import hashlib
import tracemalloc

import numpy as np
import pytest

from privfed.config import load_config
from privfed.data import (
    BLOCK_ROWS,
    DEFAULT_SITES,
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
from privfed.federation import build_site_datasets
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
                digest.update(part.labels.tobytes())
        assert digest.hexdigest() == "fa5a97e5858c6e30acdcb35415bdc22a24e1aa33e423b320e46339e14070946b"

    def test_full_scale_sites_are_pinned(self):
        # the same digest at full scale, where every site makes two rejection
        # passes; taken before rows were written straight into shuffled places
        cfg = load_config(None, ["data.scale_factor=1.0", "seed=7"])
        digest = hashlib.sha256()
        for train, valid in build_site_datasets(cfg).values():
            for part in (train, valid):
                digest.update(part.features.tobytes())
                digest.update(part.labels.tobytes())
        assert digest.hexdigest() == "4bc018e2d148d8c4c3e87f63c8b3cbc0f6d82250e74ab20974c083eb0002453a"

    def test_generation_memory_peak(self):
        # the path build_site_datasets takes: rows are written once into one
        # array that the train and validation parts view, and a pass holds
        # one block of draws, so the peak stays under twice the result
        spec = GeneratorSpec(seed=11, scale_factor=0.1)
        site = DEFAULT_SITES[2]
        rng = np.random.default_rng(derive_seed(spec.seed, "site", site.name))
        tracemalloc.start()
        try:
            train, valid = generate_site(spec, site, rng, split=(0.8, 5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(train) + len(valid) == 41800
        assert train.features.base is valid.features.base
        assert peak < 2 * sum(p.features.nbytes + p.labels.nbytes for p in (train, valid))

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
