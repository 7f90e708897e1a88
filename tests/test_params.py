import numpy as np
import pytest
from hypothesis import given, strategies as st

from privfed.data import CohortDataset
from privfed.errors import LayoutError
from privfed.learners import SLICES, ModelKind, TrainConfig, init_params, loss_and_grad, predict_batch, train_local
from privfed.params import (
    LayoutManifest,
    apply_update,
    check_finite,
    compute_delta,
    flatten,
    unflatten,
)

NN = ModelKind.FEEDFORWARD_NN
LR = ModelKind.LOGISTIC_REGRESSION

finite_vectors = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=66
).map(np.array)


class TestFlatten:
    def test_concatenation_order(self):
        # θ holds each learner's tensors in declaration order, back to back
        assert SLICES[LR] == {"coef": slice(0, 10), "intercept": slice(10, 11)}
        assert SLICES[NN] == {
            "hidden_w": slice(0, 50),
            "ln_gain": slice(50, 55),
            "ln_bias": slice(55, 60),
            "out_w": slice(60, 65),
            "out_b": slice(65, 66),
        }

    def test_nn_flat_length_66(self):
        assert init_params(NN, seed=7).shape == (66,)

    def test_lr_flat_length_11(self):
        assert init_params(LR, seed=7).shape == (11,)

    def test_row_major_within_tensor(self):
        # one row whose only nonzero feature is j moves only column j of
        # hidden_w: entries h*10 + j in a row-major (5, 10) layout
        theta = init_params(NN, seed=7)
        for j in range(10):
            x = np.zeros((1, 10))
            x[0, j] = 1.0
            _, grad = loss_and_grad(NN, theta, x, [1.0])
            moved = set(np.flatnonzero(grad[:50]))
            assert moved and moved <= {h * 10 + j for h in range(5)}, j


class TestUnflatten:
    def test_roundtrip_identity(self):
        theta = init_params(NN, seed=3)
        flat, manifest = flatten(theta)
        back = unflatten(flat, manifest)
        assert manifest == LayoutManifest(66)
        assert np.array_equal(back, theta)
        assert back is not flat and flat is not theta

    def test_length_mismatch_rejected(self):
        _, manifest = flatten(init_params(NN, seed=3))
        with pytest.raises(LayoutError):
            unflatten(np.zeros(65), manifest)


class TestDelta:
    def test_zero_delta(self):
        theta = init_params(NN, seed=1)
        assert np.all(compute_delta(theta, theta) == 0)

    def test_arithmetic(self):
        assert np.array_equal(compute_delta(np.array([2.0, 5.0]), np.array([1.0, 3.0])), [1.0, 2.0])

    def test_layout_mismatch(self):
        with pytest.raises(LayoutError):
            compute_delta(np.zeros(66), np.zeros(11))

    @given(finite_vectors)
    def test_delta_plus_before_is_after(self, before):
        after = before + np.random.default_rng(0).normal(size=before.size)
        delta = compute_delta(after, before)
        assert np.array_equal(apply_update(before, delta, LayoutManifest.of(before)), after)


class TestApplyUpdate:
    def test_zero_delta_identity(self):
        base = init_params(LR, seed=0)
        assert np.array_equal(apply_update(base, np.zeros(11), LayoutManifest.of(base)), base)

    def test_arithmetic(self):
        out = apply_update(np.array([1.0, 1.0]), np.array([0.5, -0.5]), LayoutManifest(2))
        assert np.array_equal(out, [1.5, 0.5])

    def test_manifest_mismatch(self):
        with pytest.raises(LayoutError):
            apply_update(np.ones(2), np.zeros(3), LayoutManifest(3))
        with pytest.raises(LayoutError):
            apply_update(np.ones(3), np.zeros(2), LayoutManifest(3))


class TestConstruction:
    def test_shape_size_mismatch_rejected(self):
        # a θ of the other learner's length never reaches a kernel
        x = np.zeros((3, 10))
        y = np.zeros(3)
        train = CohortDataset(x, y.astype(int))
        cfg = TrainConfig(learning_rate=0.1, batch_size=8, local_epochs=1)
        for kind, other in ((NN, LR), (LR, NN)):
            theta = init_params(other, 0)
            with pytest.raises(LayoutError):
                predict_batch(kind, theta, x)
            with pytest.raises(LayoutError):
                loss_and_grad(kind, theta, x, y)
            with pytest.raises(LayoutError):
                train_local(kind, theta, train, cfg)

    def test_check_finite(self):
        with pytest.raises(LayoutError):
            check_finite(np.array([1.0, np.nan]))
        assert np.array_equal(check_finite(np.array([1.0, 2.0])), [1.0, 2.0])
