"""Synthetic cohort generation, CSV ingestion, and dataset splitting.

The generator draws 10 features per record: a standardized age, a gender
flag, five diagnosis/medication indicators, and three filler comorbidity
flags (the source cohort names only seven predictors, so three slots are
unspecified stand-ins).  Labels follow a logistic ground truth and sites
are filled by rejection until the exact per-site class counts are met.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParseError, SplitError
from .seeds import derive_seed

FEATURE_NAMES = [
    "age_std",
    "gender",
    "diabetes",
    "dyslipidemia",
    "atc_a10",
    "atc_c09",
    "atc_c10",
    "comorb_1",
    "comorb_2",
    "comorb_3",
]

# Bernoulli prevalence for every indicator column (age is truncated normal).
INDICATOR_PREVALENCE = {
    "gender": 0.5,
    "diabetes": 0.08,
    "dyslipidemia": 0.15,
    "atc_a10": 0.10,
    "atc_c09": 0.20,
    "atc_c10": 0.15,
    "comorb_1": 0.12,
    "comorb_2": 0.10,
    "comorb_3": 0.08,
}

# Ground-truth coefficients, ordered like FEATURE_NAMES.  Magnitudes come
# from the calibration script (scripts/calibrate_cohort.py), chosen so the
# pooled logistic-regression AUC lands inside [0.63, 0.72].
DEFAULT_BETA = [0.52, 0.21, 0.68, 0.34, 0.42, 0.34, 0.29, 0.16, 0.13, 0.10]
DEFAULT_BETA0 = -2.95

# Most rows any BLAS product over records sees (the SGD steps in learners,
# the generator's logits).  OpenBLAS runs a product this small on the calling
# thread; over more rows it also wakes a helper thread, which busy-waits on
# the other core and roughly doubles a full-scale round's CPU time.
BLOCK_ROWS = 8192


class CohortDataset:
    """Labeled 10-feature records; features float64, labels 0/1."""

    def __init__(self, features, labels, feature_names=None):
        self.features = np.asarray(features, dtype=np.float64).reshape(-1, 10)
        self.labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if self.features.shape[0] != self.labels.size:
            raise ConfigError("features and labels differ in length")
        if not np.all(np.isfinite(self.features)):
            raise ConfigError("non-finite feature values")
        if not np.all((self.labels == 0) | (self.labels == 1)):
            raise ConfigError("labels must be 0/1")
        self.feature_names = list(feature_names or FEATURE_NAMES)
        if len(self.feature_names) != 10:
            raise ConfigError("need exactly 10 feature names")

    def __len__(self):
        return self.labels.size

    def subset(self, idx) -> "CohortDataset":
        idx = np.asarray(idx, dtype=np.int64)
        return CohortDataset(self.features[idx], self.labels[idx], self.feature_names)

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


def concat_datasets(datasets) -> CohortDataset:
    datasets = list(datasets)
    return CohortDataset(
        np.concatenate([d.features for d in datasets]),
        np.concatenate([d.labels for d in datasets]),
        datasets[0].feature_names,
    )


@dataclass(frozen=True)
class SiteSpec:
    name: str
    n_negative: int
    n_positive: int

    def __post_init__(self):
        if self.n_negative < 0 or self.n_positive < 0:
            raise ConfigError("site counts must be nonnegative")


# Per-site class counts of the reference cohort.
DEFAULT_SITES = (
    SiteSpec("ostergotland", 92630, 6518),
    SiteSpec("sodermanland", 63901, 4575),
    SiteSpec("stockholm", 391954, 26046),
    SiteSpec("uppsala", 69909, 4894),
)


@dataclass(frozen=True)
class GeneratorSpec:
    sites: tuple[SiteSpec, ...] = DEFAULT_SITES
    beta: tuple[float, ...] = tuple(DEFAULT_BETA)
    beta0: float = DEFAULT_BETA0
    seed: int = 0
    scale_factor: float = 1.0
    age_mean: float = 0.0
    age_std: float = 1.0

    def __post_init__(self):
        if not 0 < self.scale_factor <= 1:
            raise ConfigError("scale_factor must be in (0, 1]")
        if len(self.beta) != 10:
            raise ConfigError("beta must have 10 coefficients")
        for site in self.sites:
            for count in scaled_counts(site, self.scale_factor):
                if count < 10:
                    raise ConfigError(
                        f"site {site.name!r}: scaled class count {count} < 10"
                    )


def scaled_counts(site: SiteSpec, scale_factor: float) -> tuple[int, int]:
    return (
        int(round(site.n_negative * scale_factor)),
        int(round(site.n_positive * scale_factor)),
    )


def _draw_features(rng: np.random.Generator, n: int, spec: GeneratorSpec) -> np.ndarray:
    x = np.empty((n, 10), dtype=np.float64)
    age = rng.normal(spec.age_mean, spec.age_std, n)
    x[:, 0] = np.clip(age, spec.age_mean - 3 * spec.age_std, spec.age_mean + 3 * spec.age_std)
    for j, name in enumerate(FEATURE_NAMES[1:], start=1):
        x[:, j] = (rng.uniform(0.0, 1.0, n) < INDICATOR_PREVALENCE[name]).astype(np.float64)
    return x


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def generate_site(spec: GeneratorSpec, site: SiteSpec, rng: np.random.Generator) -> CohortDataset:
    """Fill one site's class buckets by rejection against the logistic truth."""
    want_neg, want_pos = scaled_counts(site, spec.scale_factor)
    beta = np.asarray(spec.beta, dtype=np.float64)
    neg_rows, pos_rows = [], []
    have_neg = have_pos = 0
    batch = max(4096, want_neg + want_pos)
    while have_neg < want_neg or have_pos < want_pos:
        x = _draw_features(rng, batch, spec)
        z = np.empty(batch)
        for start in range(0, batch, BLOCK_ROWS):
            np.matmul(x[start : start + BLOCK_ROWS], beta, out=z[start : start + BLOCK_ROWS])
        z += spec.beta0
        p = _sigmoid(z)
        y = rng.uniform(0.0, 1.0, batch) < p
        if have_pos < want_pos:
            take = x[y][: want_pos - have_pos]
            pos_rows.append(take)
            have_pos += take.shape[0]
        if have_neg < want_neg:
            take = x[~y][: want_neg - have_neg]
            neg_rows.append(take)
            have_neg += take.shape[0]
    features = np.concatenate(
        [np.concatenate(neg_rows) if neg_rows else np.zeros((0, 10))]
        + ([np.concatenate(pos_rows)] if pos_rows else [])
    )
    labels = np.concatenate([np.zeros(want_neg, dtype=np.int64), np.ones(want_pos, dtype=np.int64)])
    ds = CohortDataset(features, labels)
    # interleave classes deterministically so downstream batching is not
    # accidentally sorted by label
    order = np.random.default_rng(derive_seed(spec.seed, "shuffle", site.name)).permutation(len(ds))
    return ds.subset(order)


def generate_cohort(spec: GeneratorSpec) -> dict[str, CohortDataset]:
    """Per-site datasets with exact (scaled) class counts; deterministic."""
    out = {}
    for site in spec.sites:
        rng = np.random.default_rng(derive_seed(spec.seed, "site", site.name))
        out[site.name] = generate_site(spec, site, rng)
    return out


def split_train_valid(ds: CohortDataset, train_frac: float = 0.8, seed: int = 0):
    """Stratified train/validation split; both classes land in both parts."""
    if not 0 < train_frac < 1:
        raise SplitError("train_frac must be in (0, 1)")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    train_idx, valid_idx = [], []
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < 2:
            raise SplitError(f"class {cls} has {idx.size} rows; need at least 2")
        n_train = int(round(train_frac * idx.size))
        if n_train < 1 or n_train > idx.size - 1:
            raise SplitError(
                f"train_frac {train_frac} leaves class {cls} empty on one side"
            )
        perm = rng.permutation(idx)
        train_idx.append(perm[:n_train])
        valid_idx.append(perm[n_train:])
    train = ds.subset(np.sort(np.concatenate(train_idx)))
    valid = ds.subset(np.sort(np.concatenate(valid_idx)))
    return train, valid


def kfold_split(ds: CohortDataset, k: int = 10, seed: int = 0):
    """Stratified k-fold; yields (train, test) with every row in one test fold."""
    if k < 2:
        raise SplitError("k must be at least 2")
    rng = np.random.default_rng(derive_seed(seed, "kfold"))
    fold_of = np.empty(len(ds), dtype=np.int64)
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < k:
            raise SplitError(f"class {cls} has {idx.size} rows; need at least k={k}")
        perm = rng.permutation(idx)
        fold_of[perm] = np.arange(perm.size) % k
    folds = []
    for f in range(k):
        test_mask = fold_of == f
        folds.append((ds.subset(np.flatnonzero(~test_mask)), ds.subset(np.flatnonzero(test_mask))))
    return folds


def write_csv(ds: CohortDataset, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


def read_csv(path) -> CohortDataset:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        if len(header) != 11 or header[-1] != "label":
            raise ParseError("header must be 10 feature names followed by 'label'", row=1)
        features, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != 11:
                raise ParseError(f"expected 11 columns, got {len(row)}", row=row_no)
            try:
                values = [float(v) for v in row[:10]]
            except ValueError:
                raise ParseError("non-numeric feature value", row=row_no) from None
            if not all(math.isfinite(v) for v in values):
                raise ParseError("non-finite feature value", row=row_no)
            if row[10] not in ("0", "1"):
                raise ParseError(f"label must be 0 or 1, got {row[10]!r}", row=row_no)
            features.append(values)
            labels.append(int(row[10]))
    if not features:
        raise ParseError("no data rows")
    return CohortDataset(features, labels, header[:10])
