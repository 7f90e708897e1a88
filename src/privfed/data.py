"""Synthetic cohort generation, CSV ingestion, and dataset splitting.

The generator draws 10 features per record: a standardized age, a gender
flag, five diagnosis/medication indicators, and three filler comorbidity
flags (the source cohort names only seven predictors, so three slots are
unspecified stand-ins).  Labels follow a logistic ground truth and sites
are filled by rejection until the exact per-site class counts are met.

A site's labels come from a fixed shuffle of its class buckets, so its
train/validation split is known before any feature is drawn: the federation
gets each site as one array, training rows first, with every accepted row
written once into its final place.  Rejection passes draw their feature and
label uniforms one block of rows at a time by jumping a PCG64 stream ahead,
so the rows are those a whole-pass draw gives, bit for bit.  CSV sites are
split by the same rule after they are read.
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

# Age is a normal truncated to 3 standard deviations either side of its mean.
AGE_MEAN, AGE_STD = 0.0, 1.0
AGE_RANGE = (AGE_MEAN - 3 * AGE_STD, AGE_MEAN + 3 * AGE_STD)

# Bernoulli prevalence for every indicator column.
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

    @classmethod
    def _trusted(cls, features, labels, feature_names) -> "CohortDataset":
        """Rows taken from validated datasets: finite and 0/1 already."""
        ds = cls.__new__(cls)
        ds.features, ds.labels, ds.feature_names = features, labels, list(feature_names)
        return ds

    def subset(self, idx) -> "CohortDataset":
        idx = np.asarray(idx, dtype=np.int64)
        return CohortDataset._trusted(
            self.features.take(idx, axis=0), self.labels.take(idx), self.feature_names
        )

    def class_counts(self) -> tuple[int, int]:
        return int(np.sum(self.labels == 0)), int(np.sum(self.labels == 1))


def concat_datasets(datasets) -> CohortDataset:
    datasets = list(datasets)
    return CohortDataset._trusted(
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


def _sigmoid(z):
    """exp(min(z, 0)) / (1 + exp(-|z|)), the form ``learners._bce_head`` uses.
    For z >= 0 it is 1 / (1 + exp(-z)) and otherwise exp(z) / (1 + exp(z)):
    on either sign the same operations as a two-branch form, with no mask."""
    den = np.abs(z)
    np.negative(den, out=den)
    np.exp(den, out=den)
    den += 1.0
    out = np.minimum(z, 0.0)
    np.exp(out, out=out)
    out /= den
    return out


def generate_site(
    spec: GeneratorSpec,
    site: SiteSpec,
    rng: np.random.Generator,
    split: tuple[float, int] | None = None,
    out: tuple[np.ndarray, np.ndarray] | None = None,
):
    """Fill one site's class buckets by rejection against the logistic truth.

    Returns the site in shuffled row order, or with ``split=(train_frac,
    seed)`` the ``(train, valid)`` pair that ``split_train_valid`` makes of
    that dataset, as two views of one array laid out training rows first.
    Labels and the split are fixed before any feature is drawn, so each
    accepted row is written once, straight into its final place: into
    ``out``'s (features, labels) arrays of the site's row count if given,
    say a site's slice of a pooled cohort, else into new arrays.

    A rejection pass draws ``batch`` ages (ziggurat normals: a variable
    number of 64-bit words), then nine indicator columns and the label
    uniforms, ``batch`` doubles each at one word per double.  The pass walks
    its rows in blocks of at most BLOCK_ROWS and draws only the blocks it
    walks, jumping the stream to each block's slice of every column with
    PCG64's ``advance``; it ends where drawing the whole pass would leave
    the stream.  Other bit generators are refused, since without the jump
    the same seed would give different rows.
    """
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise TypeError(
            f"generate_site needs a PCG64 bit generator, got {type(rng.bit_generator).__name__}"
        )
    want_neg, want_pos = scaled_counts(site, spec.scale_factor)
    total = want_neg + want_pos
    if out is not None and (out[0].shape != (total, 10) or out[1].shape != (total,)):
        raise ValueError(f"out must hold the {total} rows of site {site.name!r}")
    # Bucket rows are numbered negatives first, then positives; a fixed
    # permutation interleaves the classes so downstream batching is not sorted
    # by label.  Site row i holds bucket row slot[i]; with a split, row k of
    # the result holds site row layout[k].
    slot = np.random.default_rng(derive_seed(spec.seed, "shuffle", site.name)).permutation(total)
    if split is not None:
        layout, n_train = _split_layout(slot >= want_neg, *split)
        slot = slot[layout]
        del layout  # freed, like slot below, before the features are allocated
    labels = np.empty(total, dtype=np.int64) if out is None else out[1]
    np.greater_equal(slot, want_neg, out=labels)
    where = np.empty(total, dtype=np.int64)  # bucket row r lands in row where[r]
    where[slot] = np.arange(total)
    del slot
    features = np.empty((total, 10), dtype=np.float64) if out is None else out[0]
    _fill_buckets(spec, rng, features, where, want_neg)
    if split is None:
        return CohortDataset._trusted(features, labels, FEATURE_NAMES)
    return _split_at(features, labels, n_train, FEATURE_NAMES)


def _fill_buckets(spec, rng, features, where, want_neg):
    """Rejection passes until bucket row r of both classes is written to
    ``features[where[r]]`` for every r."""
    total = len(where)
    beta = np.asarray(spec.beta, dtype=np.float64)
    prevalence = np.array([[INDICATOR_PREVALENCE[name]] for name in FEATURE_NAMES[1:]])
    bitgen = rng.bit_generator
    next_row, end = [0, want_neg], [want_neg, total]  # per class: negatives, positives
    batch = max(4096, total)
    rows = np.empty((min(batch, BLOCK_ROWS), 10))
    draws = np.empty((10, len(rows)))  # a block's nine indicator columns, then its label uniforms
    while next_row != end:
        age = rng.normal(AGE_MEAN, AGE_STD, batch)
        np.clip(age, *AGE_RANGE, out=age)
        after_age = bitgen.state
        for start in range(0, batch, BLOCK_ROWS):
            if next_row == end:
                break  # both buckets are full; the rest of this pass goes undrawn
            block = rows[: min(BLOCK_ROWS, batch - start)]
            m = len(block)
            bitgen.state = after_age
            bitgen.advance(start)
            for j in range(10):
                if j:
                    bitgen.advance(batch - m)  # to this block's slice of the next column
                rng.random(out=draws[j, :m])  # rng.uniform(0, 1) bit for bit
            np.less(draws[:9, :m], prevalence, out=draws[:9, :m], casting="unsafe")
            block[:, 0] = age[start : start + m]
            block[:, 1:] = draws[:9, :m].T
            z = block @ beta
            z += spec.beta0
            y = draws[9, :m] < _sigmoid(z)
            for cls, mask in ((0, ~y), (1, y)):
                take = np.flatnonzero(mask)[: end[cls] - next_row[cls]]
                features[where[next_row[cls] : next_row[cls] + take.size]] = block[take]
                next_row[cls] += take.size
        bitgen.state = after_age
        bitgen.advance(10 * batch)  # past the pass's indicator and label draws


def generate_cohort(spec: GeneratorSpec) -> dict[str, CohortDataset]:
    """Per-site datasets with exact (scaled) class counts; deterministic."""
    out = {}
    for site in spec.sites:
        rng = np.random.default_rng(derive_seed(spec.seed, "site", site.name))
        out[site.name] = generate_site(spec, site, rng)
    return out


def _split_layout(labels, train_frac: float, seed: int):
    """The stratified split rule: the input rows of the training part, then
    those of the validation part, each in input order, and the training
    part's size.  Both classes land in both parts."""
    if not 0 < train_frac < 1:
        raise SplitError("train_frac must be in (0, 1)")
    rng = np.random.default_rng(derive_seed(seed, "split"))
    in_train = np.zeros(labels.size, dtype=bool)
    for cls in (0, 1):
        idx = np.flatnonzero(labels == cls)
        if idx.size < 2:
            raise SplitError(f"class {cls} has {idx.size} rows; need at least 2")
        n_train = int(round(train_frac * idx.size))
        if n_train < 1 or n_train > idx.size - 1:
            raise SplitError(
                f"train_frac {train_frac} leaves class {cls} empty on one side"
            )
        in_train[rng.permutation(idx)[:n_train]] = True
    train = np.flatnonzero(in_train)
    return np.concatenate([train, np.flatnonzero(~in_train)]), train.size


def _split_at(features, labels, n_train, feature_names):
    """(train, valid) views of rows laid out training rows first."""
    return (
        CohortDataset._trusted(features[:n_train], labels[:n_train], feature_names),
        CohortDataset._trusted(features[n_train:], labels[n_train:], feature_names),
    )


def split_train_valid(ds: CohortDataset, train_frac: float = 0.8, seed: int = 0):
    """Stratified train/validation split; both classes land in both parts,
    and both keep the input's row order."""
    layout, n_train = _split_layout(ds.labels, train_frac, seed)
    rows = ds.subset(layout)
    return _split_at(rows.features, rows.labels, n_train, ds.feature_names)


def kfold_split(ds: CohortDataset, k: int = 10, seed: int = 0):
    """Stratified k-fold: an iterator of (train, test), every row in one test fold.

    Bad arguments raise here, at the call, not when the first fold is drawn.
    """
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
    # folds are built as they are consumed, so only one is held at a time
    return (
        (ds.subset(np.flatnonzero(fold_of != f)), ds.subset(np.flatnonzero(fold_of == f)))
        for f in range(k)
    )


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
