import dataclasses
import math

import numpy as np
import pytest
from oracles import svt_reference

from privfed.dp import LaplaceSampler, SvtConfig, laplace_transform, noise_scale, svt_filter


NN_CFG = SvtConfig(fraction=0.9, epsilon=1.0, noise_var=2.0, gamma=0.01, tau=1e-4)
LR_CFG = SvtConfig(fraction=0.99, epsilon=1e4, noise_var=1000.0, gamma=0.001, tau=1e-7)


class TestNoiseScale:
    def test_nn_config_value(self):
        assert noise_scale(0.01, 1.0) == pytest.approx(0.02)

    def test_lr_config_value(self):
        assert noise_scale(0.001, 1e4) == pytest.approx(2e-7)

    def test_algebraic_identity(self):
        for eps in (0.5, 1.0, 3.0, 1e4):
            assert noise_scale(eps / 2.0, eps) == pytest.approx(1.0)

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            noise_scale(0.0, 1.0)
        with pytest.raises(ValueError):
            noise_scale(1.0, -1.0)


class TestLaplaceSampler:
    def test_zero_uniform_maps_to_zero(self):
        assert laplace_transform(0.0, 5.0) == 0.0

    def test_transform_signs(self):
        # u>0 -> negative tail of -b*sign(u)*log1p(-2|u|): log1p(-0.8)<0 so result>0
        assert laplace_transform(0.4, 1.0) > 0
        assert laplace_transform(-0.4, 1.0) < 0

    def test_moments(self):
        rng = np.random.default_rng(123)
        draws = LaplaceSampler(rng, 1.0).sample_n(1_000_000)
        assert abs(draws.mean()) < 0.01
        assert abs(draws.var() - 2.0) / 2.0 < 0.02

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            LaplaceSampler(np.random.default_rng(0), 0.0)


class TestSvtFilter:
    def test_degenerate_no_noise_limit(self):
        cfg = SvtConfig(fraction=1.0, epsilon=1e12, noise_var=1e-24, gamma=0.01, tau=-math.inf)
        rng = np.random.default_rng(0)
        delta = np.linspace(-0.5, 0.5, 20)
        steps = 4
        out = svt_filter(delta, steps, cfg, rng)
        want = np.clip(delta / steps, -cfg.gamma, cfg.gamma) * steps
        assert np.allclose(out, want, atol=1e-8)

    def test_dominating_threshold_blocks_everything(self):
        cfg = SvtConfig(fraction=1.0, epsilon=1e6, noise_var=1.0, gamma=0.01, tau=10.0)
        rng = np.random.default_rng(1)
        out = svt_filter(np.zeros(50), 1, cfg, rng)
        assert np.array_equal(out, np.zeros(50))

    def test_oracle_equivalence_bitwise(self):
        rng_data = np.random.default_rng(99)
        for trial in range(50):
            delta = rng_data.normal(scale=0.05, size=rng_data.integers(5, 80))
            steps = int(rng_data.integers(1, 30))
            cfg = NN_CFG if trial % 2 == 0 else LR_CFG
            seed = 1000 + trial
            got = svt_filter(delta, steps, cfg, np.random.default_rng(seed))
            want = svt_reference(delta, steps, cfg, np.random.default_rng(seed))
            assert np.array_equal(got, want)

    def test_output_bound(self):
        rng = np.random.default_rng(5)
        for trial in range(30):
            delta = rng.normal(scale=1.0, size=66)
            steps = int(rng.integers(1, 100))
            out = svt_filter(delta, steps, NN_CFG, rng)
            assert np.all(np.abs(out) <= NN_CFG.gamma * steps + 1e-15)

    def test_release_cap(self):
        rng = np.random.default_rng(6)
        for frac in (0.1, 0.3, 0.9, 1.0):
            cfg = SvtConfig(fraction=frac, epsilon=1.0, noise_var=0.1, gamma=0.01, tau=-math.inf)
            delta = rng.normal(size=66)
            out = svt_filter(delta, 1, cfg, rng)
            assert np.count_nonzero(out) <= math.ceil(frac * 66)

    def test_noise_scale_monotonicity(self):
        delta = np.random.default_rng(7).normal(scale=0.005, size=66)
        mean_abs = []
        for noise_var in (1e-6, 1e-4, 1e-2):
            cfg = SvtConfig(fraction=1.0, epsilon=1e6, noise_var=noise_var, gamma=0.01, tau=-math.inf)
            perturbations = []
            for seed in range(200):
                out = svt_filter(delta, 1, cfg, np.random.default_rng(seed))
                accepted = out != 0
                perturbations.append(np.abs(out[accepted] - delta[accepted]).mean())
            mean_abs.append(np.mean(perturbations))
        assert mean_abs[0] <= mean_abs[1] <= mean_abs[2]

    def test_signal_falls_with_noise_var_and_vanishes_at_reference(self):
        """Released values track the clipped delta only while the value-noise
        scale is near gamma; at the reference NN noise_var the scale is
        100*gamma and the output is near-pure noise."""
        gamma = NN_CFG.gamma
        delta = np.random.default_rng(0).normal(scale=gamma / 2, size=66)
        clipped = np.clip(delta, -gamma, gamma)

        def mean_corr(noise_var):
            cfg = dataclasses.replace(NN_CFG, fraction=1.0, noise_var=noise_var)
            corrs = []
            for seed in range(1000):
                out = svt_filter(delta, 1, cfg, np.random.default_rng(seed))
                # an empty release carries no signal
                corrs.append(np.corrcoef(out, clipped)[0, 1] if out.any() else 0.0)
            return float(np.mean(corrs))

        graded = [mean_corr(2 * gamma**2 * m) for m in (0.01, 0.1, 1, 10)]
        assert graded[0] > graded[1] > graded[2] > graded[3], graded
        reference = mean_corr(NN_CFG.noise_var)
        assert abs(reference) < 0.02, reference

    def test_deterministic_given_seed(self):
        delta = np.random.default_rng(8).normal(size=66)
        a = svt_filter(delta, 3, NN_CFG, np.random.default_rng(4))
        b = svt_filter(delta, 3, NN_CFG, np.random.default_rng(4))
        assert np.array_equal(a, b)

    def test_nonpositive_steps_rejected(self):
        with pytest.raises(ValueError):
            svt_filter(np.zeros(5), 0, NN_CFG, np.random.default_rng(0))


class TestSvtConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SvtConfig(fraction=0.0, epsilon=1, noise_var=1, gamma=1, tau=0)
        with pytest.raises(ValueError):
            SvtConfig(fraction=1.5, epsilon=1, noise_var=1, gamma=1, tau=0)
        with pytest.raises(ValueError):
            SvtConfig(fraction=0.5, epsilon=-1, noise_var=1, gamma=1, tau=0)
        with pytest.raises(ValueError):
            SvtConfig(fraction=0.5, epsilon=1, noise_var=0, gamma=1, tau=0)
        with pytest.raises(ValueError):
            SvtConfig(fraction=0.5, epsilon=1, noise_var=1, gamma=0, tau=0)
        with pytest.raises(ValueError):
            SvtConfig(fraction=0.5, epsilon=1, noise_var=1, gamma=1, tau=math.inf)
