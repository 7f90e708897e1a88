"""Synthetic cohort generation, CSV ingestion, and dataset splitting.

The generator draws 10 features per record: a standardized age, a gender
flag, five diagnosis/medication indicators, and three filler comorbidity
flags (the source cohort names only seven predictors, so three slots are
unspecified stand-ins).  Labels follow a logistic ground truth and sites
are filled by rejection until the exact per-site class counts are met.

A ``CohortDataset`` stores its rows compactly: the columns that hold only
+0.0 and 1.0 (for generated rows, the nine indicators) as one uint16 bit
code per row, the others (age) as float64, and the labels as uint8, so a
generated row takes 11 bytes, not the 88 of ten float64 values and an int64
label.  ``CohortDataset.write_rows`` turns any rows back into exact float64
rows in a caller's buffer through a lookup table of the codes; training,
prediction and CSV output read rows only that way, one block at a time.

A site's labels come from a fixed shuffle of its class buckets, so its
train/validation split is known before any feature is drawn: the federation
gets each site as one store, training rows first, with every accepted row
written once into its final place.  Rejection passes draw their feature and
label uniforms one block of rows at a time by jumping a PCG64 stream ahead,
so the rows are those a whole-pass draw gives, bit for bit.  CSV sites are
parsed one block of rows at a time into a store and split by the same rule
after they are read.
"""

from __future__ import annotations

import csv
import functools
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
    """Labeled 10-feature records in a compact row store.

    The columns whose values are all bit for bit +0.0 or 1.0 (``bit_cols``)
    are packed into one uint16 code per row, bit k holding column
    ``bit_cols[k]``; the other columns stay float64 in ``dense``, shape (n,
    d), in column order; labels are uint8.  A generated row, age plus nine
    indicators, takes 11 bytes.  ``write_rows`` writes any rows back as
    exact float64 rows into a caller's buffer, and the read-only
    ``features`` builds the whole float64 matrix from it.
    """

    def __init__(self, features, labels, feature_names=None):
        x = np.asarray(features, dtype=np.float64).reshape(-1, 10)
        labels = np.asarray(labels, dtype=np.int64).reshape(-1)
        if x.shape[0] != labels.size:
            raise ConfigError("features and labels differ in length")
        if not np.all(np.isfinite(x)):
            raise ConfigError("non-finite feature values")
        if not np.all((labels == 0) | (labels == 1)):
            raise ConfigError("labels must be 0/1")
        feature_names = list(feature_names or FEATURE_NAMES)
        if len(feature_names) != 10:
            raise ConfigError("need exactly 10 feature names")
        bit_cols = _binary_cols(x)
        self._assign(
            np.empty((len(x), 10 - len(bit_cols))),
            np.empty(len(x), dtype=np.uint16),
            labels.astype(np.uint8),
            bit_cols,
            feature_names,
        )
        _encode(x, bit_cols, self.dense, self.codes)

    def _assign(self, dense, codes, labels, bit_cols, feature_names):
        self.dense, self.codes, self.labels = dense, codes, labels
        self.bit_cols, self.feature_names = bit_cols, feature_names
        self._dense_cols, self._table, self._table_cols = _layout(bit_cols)

    @classmethod
    def _of(cls, dense, codes, labels, bit_cols, feature_names) -> "CohortDataset":
        """Arrays taken from validated datasets: finite and 0/1 already."""
        ds = cls.__new__(cls)
        ds._assign(dense, codes, labels, bit_cols, feature_names)
        return ds

    def __len__(self):
        return self.labels.size

    def __getitem__(self, rows: slice) -> "CohortDataset":
        """The rows of a slice, as a view of this dataset's arrays."""
        return CohortDataset._of(
            self.dense[rows], self.codes[rows], self.labels[rows], self.bit_cols, self.feature_names
        )

    def write_rows(self, rows, out, labels=None) -> np.ndarray:
        """Write the float64 rows that ``rows`` picks (a slice, or an index
        array with each index in range) into ``out``, an (m, 10) float64
        array of any memory order, and their labels into ``labels`` if
        given; returns ``out``.  Each row is code c's row of the layout's
        lookup table with the dense columns written over it, so it equals
        the row this dataset was built from, bit for bit.  A C-ordered
        ``out`` takes whole table rows; any other takes the table's binary
        columns one at a time, so a column-major ``out`` is written in place."""
        codes = self.codes[rows]
        # the table has a row for every code, so "clip" never clips; it lets
        # take write straight into a contiguous ``out`` instead of a copy
        if out.flags.c_contiguous:
            np.take(self._table, codes, axis=0, out=out, mode="clip")
        else:
            for j in self.bit_cols:
                np.take(self._table_cols[j], codes, out=out[:, j], mode="clip")
        out[:, self._dense_cols] = self.dense[rows]
        if labels is not None:
            labels[...] = self.labels[rows]
        return out

    @property
    def features(self) -> np.ndarray:
        """Every row as a new float64 (n, 10) matrix."""
        return self.write_rows(slice(None), np.empty((len(self), 10)))

    def subset(self, idx) -> "CohortDataset":
        idx = np.asarray(idx, dtype=np.int64)
        return CohortDataset._of(
            self.dense.take(idx, axis=0),
            self.codes.take(idx),
            self.labels.take(idx),
            self.bit_cols,
            self.feature_names,
        )

    def class_counts(self) -> tuple[int, int]:
        n_pos = int(np.count_nonzero(self.labels))
        return len(self) - n_pos, n_pos


# The bit pattern of 1.0; a column holding only it and that of +0.0 (all
# zero bits) is stored as bits.
_ONE_BITS = np.float64(1.0).view(np.uint64)

# The columns the generator draws as 0/1 indicators: all but age.
GENERATED_BIT_COLS = tuple(range(1, 10))


def _binary_cols(x) -> tuple[int, ...]:
    """The columns of the float64 rows ``x`` whose values are all +0.0 or 1.0, bit for bit."""
    bits = x.view(np.uint64)
    return tuple(
        j for j in range(10) if np.all((bits[:, j] == 0) | (bits[:, j] == _ONE_BITS))
    )


@functools.cache
def _layout(bit_cols):
    """A layout's dense columns, lookup table and the table's columns as
    contiguous rows: row c of the (2^b, 10) table holds code c's binary
    columns, bit k of c giving column ``bit_cols[k]``, and zeros in the
    dense columns."""
    b = len(bit_cols)
    table = np.zeros((1 << b, 10))
    table[:, list(bit_cols)] = (np.arange(1 << b)[:, None] >> np.arange(b)) & 1
    dense_cols = np.array([j for j in range(10) if j not in bit_cols], dtype=np.intp)
    table_cols = np.ascontiguousarray(table.T)
    for a in (dense_cols, table, table_cols):
        a.setflags(write=False)
    return dense_cols, table, table_cols


def _encode(x, bit_cols, dense, codes) -> None:
    """Store the float64 rows ``x`` in the layout of ``bit_cols``, which
    must name columns of ``x`` that hold only +0.0 and 1.0, into ``dense``
    and ``codes``."""
    np.take(x, _layout(bit_cols)[0], axis=1, out=dense, mode="clip")  # no copy, as in write_rows
    codes[...] = 0
    for k, j in enumerate(bit_cols):
        codes += (x[:, j] != 0) * np.uint16(1 << k)


def _allocate(n: int, bit_cols, feature_names) -> CohortDataset:
    """A dataset of n unwritten rows in the layout of ``bit_cols``."""
    return CohortDataset._of(
        np.empty((n, 10 - len(bit_cols))),
        np.empty(n, dtype=np.uint16),
        np.empty(n, dtype=np.uint8),
        bit_cols,
        list(feature_names),
    )


def empty_generated(n: int) -> CohortDataset:
    """n unwritten rows in the generator's layout, for ``generate_site``'s ``out``."""
    return _allocate(n, GENERATED_BIT_COLS, FEATURE_NAMES)


def _copy_rows(src: CohortDataset, dst: CohortDataset) -> None:
    """Copy the rows of ``src`` into ``dst``, a dataset of as many rows
    whose binary columns are binary in ``src`` too: as arrays when the
    layouts agree, else through float64 row blocks."""
    dst.labels[...] = src.labels
    if dst.bit_cols == src.bit_cols:
        dst.dense[...] = src.dense
        dst.codes[...] = src.codes
        return
    buf = np.empty((min(len(src), BLOCK_ROWS), 10))
    for start in range(0, len(src), BLOCK_ROWS):
        rows = slice(start, min(start + BLOCK_ROWS, len(src)))
        x = src.write_rows(rows, buf[: rows.stop - start])
        _encode(x, dst.bit_cols, dst.dense[rows], dst.codes[rows])


def concat_datasets(datasets) -> CohortDataset:
    """The rows of ``datasets`` in order.  A column is stored as bits when
    every part stores it so."""
    datasets = list(datasets)
    bit_cols = tuple(c for c in datasets[0].bit_cols if all(c in d.bit_cols for d in datasets))
    out = _allocate(sum(map(len, datasets)), bit_cols, datasets[0].feature_names)
    start = 0
    for part in datasets:
        _copy_rows(part, out[start : start + len(part)])
        start += len(part)
    return out


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
    out: CohortDataset | None = None,
):
    """Fill one site's class buckets by rejection against the logistic truth.

    Returns the site in shuffled row order, or with ``split=(train_frac,
    seed)`` the ``(train, valid)`` pair that ``split_train_valid`` makes of
    that dataset, as two views of one store laid out training rows first.
    Labels and the split are fixed before any feature is drawn, so each
    accepted row is written once, straight into its final place: into
    ``out``, a dataset of the site's row count in the generator's layout
    (``empty_generated``), say a site's slice of a pooled cohort, else into
    a new one.

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
    if out is not None and (len(out) != total or out.bit_cols != GENERATED_BIT_COLS):
        raise ValueError(f"out must hold the {total} rows of site {site.name!r} in the generator's layout")
    # Bucket rows are numbered negatives first, then positives; a fixed
    # permutation interleaves the classes so downstream batching is not sorted
    # by label.  Site row i holds bucket row slot[i]; with a split, row k of
    # the result holds site row layout[k].
    slot = np.random.default_rng(derive_seed(spec.seed, "shuffle", site.name)).permutation(total)
    if split is not None:
        layout, n_train = _split_layout(slot >= want_neg, *split)
        slot = slot[layout]
        del layout  # freed, like slot below, before the rows are allocated
    ds = empty_generated(total) if out is None else out
    np.greater_equal(slot, want_neg, out=ds.labels)
    where = np.empty(total, dtype=np.int64)  # bucket row r lands in row where[r]
    where[slot] = np.arange(total)
    del slot
    _fill_buckets(spec, rng, ds, where, want_neg)
    if split is None:
        return ds
    return ds[:n_train], ds[n_train:]


def _fill_buckets(spec, rng, ds, where, want_neg):
    """Rejection passes until bucket row r of both classes is written to
    row ``where[r]`` of ``ds`` for every r."""
    total = len(where)
    beta = np.asarray(spec.beta, dtype=np.float64)
    prevalence = np.array([[INDICATOR_PREVALENCE[name]] for name in FEATURE_NAMES[1:]])
    bitgen = rng.bit_generator
    next_row, end = [0, want_neg], [want_neg, total]  # per class: negatives, positives
    batch = max(4096, total)
    rows = np.empty((min(batch, BLOCK_ROWS), 10))
    draws = np.empty((10, len(rows)))  # a block's nine indicator columns, then its label uniforms
    stored = empty_generated(len(rows))  # a block's rows in the generator's layout
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
            _encode(block, GENERATED_BIT_COLS, stored.dense[:m], stored.codes[:m])
            for cls, mask in ((0, ~y), (1, y)):
                take = np.flatnonzero(mask)[: end[cls] - next_row[cls]]
                dst = where[next_row[cls] : next_row[cls] + take.size]
                ds.dense[dst] = stored.dense[take]
                ds.codes[dst] = stored.codes[take]
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


def split_train_valid(ds: CohortDataset, train_frac: float = 0.8, seed: int = 0):
    """Stratified train/validation split; both classes land in both parts,
    and both keep the input's row order."""
    layout, n_train = _split_layout(ds.labels, train_frac, seed)
    rows = ds.subset(layout)
    return rows[:n_train], rows[n_train:]


def kfold_split(ds: CohortDataset, k: int = 10, seed: int = 0):
    """Stratified k-fold: an iterator of (train, test), every row in one test fold.

    Bad arguments raise here, at the call, not when the first fold is drawn.
    """
    if k < 2:
        raise SplitError("k must be at least 2")
    rng = np.random.default_rng(derive_seed(seed, "kfold"))
    fold_of = np.empty(len(ds), dtype=np.min_scalar_type(k - 1))
    for cls in (0, 1):
        idx = np.flatnonzero(ds.labels == cls)
        if idx.size < k:
            raise SplitError(f"class {cls} has {idx.size} rows; need at least k={k}")
        perm = rng.permutation(idx)
        del idx
        fold = np.arange(perm.size)
        fold %= k  # in place: two row-length index arrays at a time, not four
        fold_of[perm] = fold
    # folds are built as they are consumed, so only one is held at a time
    return (
        (ds.subset(np.flatnonzero(fold_of != f)), ds.subset(np.flatnonzero(fold_of == f)))
        for f in range(k)
    )


def write_csv(ds: CohortDataset, path) -> None:
    buf = np.empty((min(len(ds), BLOCK_ROWS), 10))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ds.feature_names + ["label"])
        for start in range(0, len(ds), BLOCK_ROWS):
            rows = slice(start, min(start + BLOCK_ROWS, len(ds)))
            x = ds.write_rows(rows, buf[: rows.stop - start])
            for row, label in zip(x.tolist(), ds.labels[rows].tolist()):
                writer.writerow([repr(v) for v in row] + [label])


def read_csv(path) -> CohortDataset:
    """A site from CSV: a header of 10 feature names and ``label``, then
    one row per record.  Rows are parsed into one reused block of
    BLOCK_ROWS float64 rows, and each full block is encoded into a store
    sized by the file's line count, so beside the store only one block of
    float64 rows is held.  The store takes the layout of the first block and
    is re-encoded, once per change, when a later block has a column that
    is not 0/1 where earlier blocks had only 0/1."""
    with open(path, newline="") as fh:
        capacity = sum(1 for _ in fh) - 1  # a row takes at least one line
        fh.seek(0)
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file") from None
        if len(header) != 11 or header[-1] != "label":
            raise ParseError("header must be 10 feature names followed by 'label'", row=1)
        block = np.empty((min(capacity, BLOCK_ROWS), 10))
        labels = np.empty(len(block), dtype=np.uint8)
        store, n, m = None, 0, 0
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
            block[m] = values
            labels[m] = row[10] == "1"
            m += 1
            if m == len(block):
                store = _store_block(store, block, labels, n, capacity, header[:10])
                n, m = n + m, 0
    if m:
        store = _store_block(store, block[:m], labels[:m], n, capacity, header[:10])
        n += m
    if n == 0:
        raise ParseError("no data rows")
    return store[:n]


def _store_block(store, x, labels, start, capacity, feature_names) -> CohortDataset:
    """Encode the float64 rows ``x`` and their ``labels`` as rows ``start``
    on of ``store``, a dataset of ``capacity`` rows made here for the first
    block.  Returns the store, re-encoded first into a new one if ``x``
    breaks one of its binary columns."""
    bit_cols = _binary_cols(x)
    if store is None:
        store = _allocate(capacity, bit_cols, feature_names)
    elif not set(store.bit_cols) <= set(bit_cols):
        narrower = _allocate(capacity, tuple(c for c in store.bit_cols if c in bit_cols), feature_names)
        _copy_rows(store[:start], narrower[:start])
        store = narrower
    rows = slice(start, start + len(x))
    _encode(x, store.bit_cols, store.dense[rows], store.codes[rows])
    store.labels[rows] = labels
    return store
