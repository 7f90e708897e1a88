"""Sparse-vector-technique privacy filter for flattened model updates.

The filter normalizes a client delta by its optimizer step count, clips it
to +-gamma, then releases only components whose magnitude beats a noisily
perturbed threshold, up to a capped fraction of the vector.  Released
components get Laplace value noise and are re-clipped; everything else is
transmitted as an exact zero.  The output is rescaled by the step count
before transmission.

Noise draws come from one generator in a fixed, documented order so that an
independent straight-line implementation sharing the stream reproduces the
output bit for bit:

    1. one draw for the privatized threshold (scale lambda_rho),
    2. n draws for the per-component queries (scale 2*lambda_rho),
    3. one draw per accepted component, in index order (scale b_v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import check_finite


@dataclass(frozen=True)
class SvtConfig:
    """Filter parameterization.

    fraction: proportion of components eligible for release, in (0, 1].
    epsilon: privacy budget for the selection stage (per round).
    noise_var: variance of the Laplace noise added to released values.
    gamma: clipping bound applied to the per-step update.
    tau: baseline selection threshold before privatization (-inf acts as an
        all-pass sentinel).
    """

    fraction: float
    epsilon: float
    noise_var: float
    gamma: float
    tau: float

    def __post_init__(self):
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.noise_var <= 0:
            raise ValueError("noise_var must be positive")
        if self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if math.isnan(self.tau) or self.tau == math.inf:
            raise ValueError("tau must be a real number or -inf")


def noise_scale(gamma: float, epsilon: float) -> float:
    """Threshold-noise scale lambda_rho = 2*gamma / epsilon."""
    if gamma <= 0 or epsilon <= 0:
        raise ValueError("gamma and epsilon must be positive")
    return 2.0 * gamma / epsilon


def laplace_transform(u, scale: float):
    """Inverse-CDF map from Uniform(-1/2, 1/2) to Laplace(0, scale)."""
    u = np.asarray(u, dtype=np.float64)
    return -scale * np.sign(u) * np.log1p(-2.0 * np.abs(u))


class LaplaceSampler:
    """Laplace(0, scale) sampler over a shared numpy Generator.

    Array draws consume the underlying uniform stream exactly like the same
    number of single draws, which is what makes the filter's consumption
    order reproducible.
    """

    def __init__(self, rng: np.random.Generator, scale: float):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.rng = rng
        self.scale = scale

    def sample(self) -> float:
        return float(laplace_transform(self.rng.uniform(-0.5, 0.5), self.scale))

    def sample_n(self, n: int) -> np.ndarray:
        return laplace_transform(self.rng.uniform(-0.5, 0.5, n), self.scale)


def svt_filter(delta: np.ndarray, steps: int, cfg: SvtConfig, rng: np.random.Generator) -> np.ndarray:
    """Apply the SVT release pipeline to a flattened delta.

    Guarantees on the output y: len(y) == len(delta); every |y_i| <= gamma *
    steps; at most ceil(fraction * n) components are nonzero.
    """
    if steps < 1:
        raise ValueError("steps must be a positive integer")
    delta = check_finite(delta, "dp filter input")
    n = delta.size

    x = np.clip(delta / steps, -cfg.gamma, cfg.gamma)

    lam = noise_scale(cfg.gamma, cfg.epsilon)
    threshold = cfg.tau + LaplaceSampler(rng, lam).sample()
    queries = np.abs(x) + LaplaceSampler(rng, 2.0 * lam).sample_n(n)

    # the first ``cap`` passing indices in index order
    accepted = np.flatnonzero(queries >= threshold)[: math.ceil(cfg.fraction * n)]

    y = np.zeros(n, dtype=np.float64)
    if accepted.size:
        value_scale = math.sqrt(cfg.noise_var / 2.0)
        noise = LaplaceSampler(rng, value_scale).sample_n(accepted.size)
        y[accepted] = np.clip(x[accepted] + noise, -cfg.gamma, cfg.gamma)
    return check_finite(y * steps, "dp filter output")
