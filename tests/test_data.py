import ast
import hashlib
import pathlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import privfed
from privfed import data
from privfed.config import load_config
from privfed.data import (
    BLOCK_ROWS,
    DEFAULT_SITES,
    GENERATED_BIT_COLS,
    CohortDataset,
    GeneratorSpec,
    SiteSpec,
    _sigmoid,
    concat_datasets,
    generate_cohort,
    generate_site,
    kfold_split,
    read_csv,
    scaled_counts,
    split_train_valid,
    write_csv,
)
from privfed.errors import ConfigError, ParseError, SplitError
from privfed.federation import build_site_datasets, draw_site
from privfed.seeds import derive_seed, derived_rng

from oracles import generate_site_oracle

SMALL_SITES = (
    SiteSpec("alpha", 400, 40),
    SiteSpec("beta", 300, 30),
)


def small_dataset(n=100, pos_frac=0.1, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 10))
    n_pos = int(round(n * pos_frac))
    y = np.zeros(n, dtype=int)
    y[rng.choice(n, n_pos, replace=False)] = 1
    return CohortDataset(x, y)


class TestGeneration:
    def test_exact_scaled_counts(self):
        spec = GeneratorSpec(sites=SMALL_SITES, seed=3, scale_factor=1.0)
        sites = generate_cohort(spec)
        assert sites["alpha"].class_counts() == (400, 40)
        assert sites["beta"].class_counts() == (300, 30)

    def test_scaled_rounding_matches_reference_arithmetic(self):
        stockholm = DEFAULT_SITES[2]
        assert stockholm.name == "stockholm"
        assert scaled_counts(stockholm, 0.01) == (3920, 260)

    def test_default_sites_table(self):
        table = {(s.name): (s.n_negative, s.n_positive) for s in DEFAULT_SITES}
        assert table["ostergotland"] == (92630, 6518)
        assert table["sodermanland"] == (63901, 4575)
        assert table["stockholm"] == (391954, 26046)
        assert table["uppsala"] == (69909, 4894)

    def test_deterministic(self):
        spec = GeneratorSpec(sites=SMALL_SITES, seed=5, scale_factor=0.5)
        a = generate_cohort(spec)
        b = generate_cohort(spec)
        for name in a:
            assert np.array_equal(a[name].features, b[name].features)
            assert np.array_equal(a[name].labels, b[name].labels)

    def test_infeasible_scale_rejected(self):
        with pytest.raises(ConfigError):
            GeneratorSpec(sites=SMALL_SITES, scale_factor=0.01)  # 40*0.01 < 10

    def test_feature_ranges(self):
        spec = GeneratorSpec(sites=(SiteSpec("x", 200, 20),), seed=1)
        ds = generate_cohort(spec)["x"]
        assert np.all(np.abs(ds.features[:, 0]) <= 3.0)  # truncated age
        assert set(np.unique(ds.features[:, 1:])) <= {0.0, 1.0}

    def test_generated_sites_are_pinned(self):
        # every site's train and validation features and labels at scale
        # 0.05, where Stockholm's logits span several row blocks; the hash was
        # taken before the logits were computed in blocks and must hold bitwise
        assert sum(scaled_counts(DEFAULT_SITES[2], 0.05)) > 2 * BLOCK_ROWS
        cfg = load_config(None, ["data.scale_factor=0.05", "seed=7"])
        digest = hashlib.sha256()
        for train, valid in build_site_datasets(cfg).values():
            for part in (train, valid):
                digest.update(part.features.tobytes())
                digest.update(part.labels.astype(np.int64).tobytes())
        assert digest.hexdigest() == "fa5a97e5858c6e30acdcb35415bdc22a24e1aa33e423b320e46339e14070946b"

    def test_full_scale_sites_are_pinned(self):
        # the same digest at full scale, where every site makes two rejection
        # passes; taken before rows were written straight into shuffled places
        cfg = load_config(None, ["data.scale_factor=1.0", "seed=7"])
        digest = hashlib.sha256()
        for train, valid in build_site_datasets(cfg).values():
            for part in (train, valid):
                digest.update(part.features.tobytes())
                digest.update(part.labels.astype(np.int64).tobytes())
        assert digest.hexdigest() == "4bc018e2d148d8c4c3e87f63c8b3cbc0f6d82250e74ab20974c083eb0002453a"

    def test_generation_memory_peak(self):
        # the path build_site_datasets takes: rows are written once into one
        # store that the train and validation parts view, 11 B per row, and
        # a pass holds one block of rows and one of draws; beside the rows,
        # the peak holds four int64 per row (the shuffle, the placement and
        # the pass's ages) and those two float64 blocks
        spec = GeneratorSpec(seed=11, scale_factor=0.1)
        site = DEFAULT_SITES[2]
        rng = np.random.default_rng(derive_seed(spec.seed, "site", site.name))
        tracemalloc.start()
        try:
            train, valid = generate_site(spec, site, rng, split=(0.8, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        n = len(train) + len(valid)
        assert n == 41800
        for name in ("dense", "codes", "labels"):
            assert getattr(train, name).base is getattr(valid, name).base
        stored = sum(p.dense.nbytes + p.codes.nbytes + p.labels.nbytes for p in (train, valid))
        assert stored == 11 * n
        assert peak < stored + 4 * 8 * n + 2 * BLOCK_ROWS * 10 * 8

    @pytest.mark.parametrize("scale", [0.02, 0.05, 0.1])
    @pytest.mark.parametrize("seed", [7, 11, 303])
    def test_block_draws_match_whole_batch_oracle(self, seed, scale):
        # every site, split and whole, against whole-pass draws followed by
        # split_train_valid; the stream must end where the whole-pass draws
        # leave it, also when a pass stops before its last block
        cfg = load_config(None, [f"data.scale_factor={scale}", f"seed={seed}"])
        spec = cfg.data.generator_spec(derive_seed(cfg.seed, "data"))
        for site in spec.sites:
            split = (cfg.train_frac, derive_seed(cfg.seed, "split", site.name))
            rng_old = derived_rng(spec.seed, "site", site.name)
            want = split_train_valid(generate_site_oracle(spec, site, rng_old), *split)
            rng_new = derived_rng(spec.seed, "site", site.name)
            got = generate_site(spec, site, rng_new, split=split)
            for g, w in zip(got, want):
                assert g.features.tobytes() == w.features.tobytes()
                assert g.labels.tobytes() == w.labels.tobytes()
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            whole = generate_site(spec, site, derived_rng(spec.seed, "site", site.name))
            ref = generate_site_oracle(spec, site, derived_rng(spec.seed, "site", site.name))
            assert whole.features.tobytes() == ref.features.tobytes()
            assert whole.labels.tobytes() == ref.labels.tobytes()

    def test_non_pcg64_generator_refused(self):
        spec = GeneratorSpec(sites=SMALL_SITES, seed=1)
        rng = np.random.Generator(np.random.MT19937(1))
        with pytest.raises(TypeError, match="PCG64"):
            generate_site(spec, SMALL_SITES[0], rng)


class TestSplit:
    def test_stratified_arithmetic(self):
        ds = small_dataset(n=100, pos_frac=0.1, seed=4)
        train, valid = split_train_valid(ds, 0.8, seed=0)
        assert len(train) == 80 and len(valid) == 20
        assert train.class_counts() == (72, 8)
        assert valid.class_counts() == (18, 2)

    def test_union_is_input_as_multiset(self):
        ds = small_dataset(n=83, pos_frac=0.2, seed=5)
        train, valid = split_train_valid(ds, 0.8, seed=1)
        merged = np.concatenate([train.features, valid.features])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, ds.features))
        assert len(train) + len(valid) == len(ds)

    def test_disjoint(self):
        ds = small_dataset(n=60, pos_frac=0.5, seed=6)
        train, valid = split_train_valid(ds, 0.5, seed=1)
        train_rows = set(map(tuple, train.features))
        valid_rows = set(map(tuple, valid.features))
        assert not train_rows & valid_rows

    def test_tiny_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(10, 10))
        y = np.array([0] * 9 + [1])
        with pytest.raises(SplitError):
            split_train_valid(CohortDataset(x, y), 0.8, seed=0)

    def test_extreme_frac_rejected(self):
        ds = small_dataset(n=10, pos_frac=0.5, seed=7)
        with pytest.raises(SplitError):
            split_train_valid(ds, 0.999, seed=0)

    def test_deterministic(self):
        ds = small_dataset(n=100, seed=8)
        a = split_train_valid(ds, 0.8, seed=9)
        b = split_train_valid(ds, 0.8, seed=9)
        assert np.array_equal(a[0].features, b[0].features)


class TestKfold:
    def test_fold_sizes(self):
        ds = small_dataset(n=1000, pos_frac=0.1, seed=10)
        folds = list(kfold_split(ds, k=10, seed=0))
        assert len(folds) == 10
        for _, test in folds:
            assert len(test) == 100

    def test_test_folds_cover_dataset(self):
        ds = small_dataset(n=97, pos_frac=0.3, seed=11)
        folds = list(kfold_split(ds, k=5, seed=1))
        rows = np.concatenate([t.features for _, t in folds])
        assert sorted(map(tuple, rows)) == sorted(map(tuple, ds.features))

    def test_k2_symmetric_partition(self):
        ds = small_dataset(n=40, pos_frac=0.5, seed=12)
        folds = list(kfold_split(ds, k=2, seed=2))
        a_train, a_test = folds[0]
        b_train, b_test = folds[1]
        assert sorted(map(tuple, a_train.features)) == sorted(map(tuple, b_test.features))
        assert sorted(map(tuple, a_test.features)) == sorted(map(tuple, b_train.features))

    def test_small_class_rejected(self):
        x = np.random.default_rng(0).normal(size=(20, 10))
        y = np.array([0] * 15 + [1] * 5)
        with pytest.raises(SplitError):
            kfold_split(CohortDataset(x, y), k=10, seed=0)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        ds = small_dataset(n=37, pos_frac=0.3, seed=13)
        path = tmp_path / "cohort.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.feature_names == ds.feature_names

    def test_bad_label_names_row(self, tmp_path):
        ds = small_dataset(n=6, pos_frac=0.5, seed=14)
        path = tmp_path / "bad.csv"
        write_csv(ds, path)
        lines = path.read_text().splitlines()
        parts = lines[5].rsplit(",", 1)
        lines[5] = parts[0] + ",2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as err:
            read_csv(path)
        assert "row 6" in str(err.value)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_wrong_column_count(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("a,b,label\n1,2,0\n")
        with pytest.raises(ParseError):
            read_csv(path)

    def test_read_memory_peak(self, tmp_path):
        # rows are parsed into one reused block and encoded into a store
        # sized by the line count: beside the stored rows, one block of
        # float64 rows and labels, and 128 KiB for the reader's buffers and
        # one block column's temporaries
        cfg = load_config(None, ["data.scale_factor=0.1", "seed=7"])
        path = tmp_path / "stockholm.csv"
        write_csv(draw_site(cfg, cfg.data.sites[2]), path)
        tracemalloc.start()
        try:
            ds = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ds) == 41800
        stored = ds.dense.nbytes + ds.codes.nbytes + ds.labels.nbytes
        assert stored == 11 * len(ds)
        assert peak < stored + BLOCK_ROWS * (10 * 8 + 1) + 128 * 1024

    def test_a_later_block_narrows_the_layout(self, tmp_path, monkeypatch):
        # with 4-row blocks, column 2 stops being 0/1 in the second block
        # and column 5 in the third, after the store took the first's layout
        monkeypatch.setattr(data, "BLOCK_ROWS", 4)
        x = np.random.default_rng(3).integers(0, 2, (11, 10)).astype(np.float64)
        x[:, 0] = np.linspace(-1, 1, 11)
        x[5, 2] = 0.25
        x[9, 5] = -0.0
        ds = CohortDataset(x, np.arange(11) % 2)
        path = tmp_path / "narrowing.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert back.bit_cols == ds.bit_cols == (1, 3, 4, 6, 7, 8, 9)
        assert back.features.tobytes() == x.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_random_values(self, seed, tmp_path):
        ds = small_dataset(n=8, pos_frac=0.5, seed=seed)
        path = tmp_path / "r.csv"
        write_csv(ds, path)
        back = read_csv(path)
        assert np.array_equal(back.features, ds.features)


def test_concat():
    a = small_dataset(n=10, pos_frac=0.5, seed=1)
    b = small_dataset(n=6, pos_frac=0.5, seed=2)
    merged = concat_datasets([a, b])
    assert len(merged) == 16


# edge values for a column drawn as any value: -0.0 equals 0.0 but has other
# bits, so a column holding it must stay dense
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, 5e-324, 1.7976931348623157e308]
COLUMN_VALUES = {
    "binary": st.sampled_from([0.0, 1.0]),
    "any": st.one_of(st.sampled_from(EDGES), st.floats(allow_nan=False, allow_infinity=False)),
}


@st.composite
def cohort_rows(draw):
    """(x, labels): n finite float64 rows whose columns are each drawn as
    0/1 or as any value, all-binary, no-binary and mixed, and 0/1 labels."""
    n = draw(st.integers(0, 40))
    kinds = draw(
        st.one_of(
            st.just(["binary"] * 10),
            st.just(["any"] * 10),
            st.lists(st.sampled_from(["binary", "any"]), min_size=10, max_size=10),
        )
    )
    x = np.empty((n, 10))
    for j, kind in enumerate(kinds):
        x[:, j] = draw(st.lists(COLUMN_VALUES[kind], min_size=n, max_size=n))
    labels = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
    return x, labels


class TestStore:
    @given(cohort_rows(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_rows_come_back_bit_for_bit(self, rows, draw):
        x, labels = rows
        n = len(x)
        ds = CohortDataset(x, labels)
        bits = x.view(np.uint64)
        one = np.float64(1.0).view(np.uint64)
        assert ds.bit_cols == tuple(j for j in range(10) if np.all((bits[:, j] == 0) | (bits[:, j] == one)))
        assert ds.dense.shape == (n, 10 - len(ds.bit_cols)) and ds.codes.dtype == np.uint16
        assert ds.features.tobytes() == x.tobytes()
        assert ds.labels.dtype == np.uint8 and np.array_equal(ds.labels, labels)
        idx = np.array(draw.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=60 if n else 0)), dtype=np.int64)
        got_labels = np.empty(idx.size)
        got = ds.write_rows(idx, np.empty((idx.size, 10)), got_labels)
        assert got.tobytes() == x[idx].tobytes()
        assert got_labels.tobytes() == labels[idx].astype(np.float64).tobytes()
        block = draw.draw(st.integers(1, 16))
        for order in ("C", "F"):
            whole = np.empty((n, 10), order=order)
            for start in range(0, n, block):
                rows = slice(start, min(start + block, n))
                out = ds.write_rows(rows, whole[rows])
                assert np.ascontiguousarray(out).tobytes() == x[rows].tobytes()
            assert np.ascontiguousarray(ds.write_rows(slice(None), whole)).tobytes() == x.tobytes()

    def test_generated_store_is_the_one_the_constructor_builds(self):
        cfg = load_config(None, ["data.scale_factor=0.05", "seed=7"])
        for train, valid in build_site_datasets(cfg).values():
            for part in (train, valid):
                rebuilt = CohortDataset(part.features, part.labels)
                assert part.bit_cols == rebuilt.bit_cols == GENERATED_BIT_COLS
                for name in ("dense", "codes", "labels"):
                    got, want = getattr(part, name), getattr(rebuilt, name)
                    assert got.dtype == want.dtype and got.shape == want.shape
                    assert got.tobytes() == want.tobytes()

    def test_concat_of_different_binary_columns_round_trips(self):
        # a column stays bits only where every part stores it so
        rng = np.random.default_rng(4)
        a = rng.integers(0, 2, (30, 10)).astype(np.float64)
        a[:, 0] = rng.normal(size=30)
        b = rng.integers(0, 2, (20, 10)).astype(np.float64)
        b[3, 4] = 0.5
        b[7, 7] = -0.0
        c = rng.normal(size=(9, 10))
        parts = [CohortDataset(x, rng.integers(0, 2, len(x))) for x in (a, b, c)]
        assert [p.bit_cols for p in parts] == [GENERATED_BIT_COLS, (0, 1, 2, 3, 5, 6, 8, 9), ()]
        for chosen, bit_cols in ((parts[:2], (1, 2, 3, 5, 6, 8, 9)), (parts, ())):
            merged = concat_datasets(chosen)
            assert merged.bit_cols == bit_cols
            assert merged.features.tobytes() == np.concatenate([p.features for p in chosen]).tobytes()
            assert merged.labels.tobytes() == np.concatenate([p.labels for p in chosen]).tobytes()


def test_only_the_store_reads_features():
    # ``features`` builds the float64 matrix the store exists to avoid; the
    # program reads rows through ``write_rows``, one block at a time
    readers = []
    for path in pathlib.Path(privfed.__file__).parent.rglob("*.py"):
        if path.name == "data.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and node.attr == "features":
                readers.append(f"{path.name}:{node.lineno}")
    assert readers == []


def test_constructor_rejects_bad_values():
    x = np.zeros((4, 10))
    y = np.array([0, 1, 0, 1])
    x[2, 3] = np.nan
    with pytest.raises(ConfigError, match="non-finite"):
        CohortDataset(x, y)
    y[1] = 2
    with pytest.raises(ConfigError, match="0/1"):
        CohortDataset(np.zeros((4, 10)), y)


def test_sigmoid_matches_the_two_branch_form_bitwise():
    def two_branch(z):
        out = np.empty_like(z)
        pos = z >= 0
        out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
        ez = np.exp(z[~pos])
        out[~pos] = ez / (1.0 + ez)
        return out

    edges = np.array([0.0, -0.0, np.inf, -np.inf, 700.0, -700.0, 746.0, -746.0])
    z = np.concatenate([edges, np.random.default_rng(5).normal(size=10_000) * 50])
    got = _sigmoid(z)
    assert got.tobytes() == two_branch(z).tobytes()
    assert got[:4].tolist() == [0.5, 0.5, 1.0, 0.0]
