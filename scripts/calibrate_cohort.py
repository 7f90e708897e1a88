#!/usr/bin/env python3
"""Calibrate the synthetic-cohort ground truth.

Grid-scales the base coefficient vector (solving the intercept for the
target prevalence at each scale) until the pooled logistic-regression AUC
lands inside the acceptance window [0.63, 0.72].  The chosen scale's
coefficients are what ships as DEFAULT_BETA / DEFAULT_BETA0 in privfed.data;
rerun this after changing feature marginals.

Usage: python scripts/calibrate_cohort.py [--scale-factor 0.05] [--seed 7]
"""

import argparse

import numpy as np

from privfed.data import (
    AGE_MEAN,
    AGE_RANGE,
    AGE_STD,
    DEFAULT_BETA,
    FEATURE_NAMES,
    INDICATOR_PREVALENCE,
    GeneratorSpec,
    _sigmoid,
    concat_datasets,
    generate_cohort,
    split_train_valid,
)
from privfed.learners import ModelKind, TrainConfig, init_params, predict_batch, train_local
from privfed.metrics import auc

TARGET_PREVALENCE = 42033 / 660427  # pooled positives over pooled total
AUC_WINDOW = (0.63, 0.72)


def draw_features(rng, n):
    """``(10, n)`` feature columns with the generator's marginals, ordered
    like FEATURE_NAMES: a truncated normal age, then the indicators."""
    cols = np.empty((10, n), dtype=np.float64)
    np.clip(rng.normal(AGE_MEAN, AGE_STD, n), *AGE_RANGE, out=cols[0])
    for j, name in enumerate(FEATURE_NAMES[1:], start=1):
        cols[j] = rng.random(n) < INDICATOR_PREVALENCE[name]
    return cols


def solve_intercept(beta, rng, target=TARGET_PREVALENCE, n=200_000):
    """1-d bisection on the intercept so mean sigmoid hits the prevalence."""
    logits = beta @ draw_features(rng, n)
    lo, hi = -10.0, 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _sigmoid(logits + mid).mean() < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def pooled_lr_auc(spec, seed):
    pooled = concat_datasets(generate_cohort(spec).values())
    train, valid = split_train_valid(pooled, 0.8, seed=seed)
    cfg = TrainConfig(
        learning_rate=0.5, batch_size=len(train), local_epochs=1500, l2_penalty=1e-4, seed=seed
    )
    params, _ = train_local(ModelKind.LOGISTIC_REGRESSION, init_params(ModelKind.LOGISTIC_REGRESSION, 0), train, cfg)
    scores = predict_batch(ModelKind.LOGISTIC_REGRESSION, params, valid.features)
    return auc(scores, valid.labels)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale-factor", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    base = np.asarray(DEFAULT_BETA)
    rng = np.random.default_rng(args.seed)
    print(f"target pooled prevalence: {TARGET_PREVALENCE:.4f}")
    for scale in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        beta = tuple(scale * base)
        beta0 = solve_intercept(np.asarray(beta), rng)
        spec = GeneratorSpec(
            beta=beta, beta0=beta0, seed=args.seed, scale_factor=args.scale_factor
        )
        score = pooled_lr_auc(spec, args.seed)
        marker = " <- inside window" if AUC_WINDOW[0] <= score <= AUC_WINDOW[1] else ""
        print(f"scale {scale:4.2f}: beta0={beta0:+.3f} pooled LR AUC={score:.4f}{marker}")
    print(f"shipping defaults correspond to scale 1.00 of the base vector")


if __name__ == "__main__":
    main()
