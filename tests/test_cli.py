import ast
import csv
import dataclasses
import json
import os
import pathlib
import socket

import pytest
from hypothesis import given, settings, strategies as st

import privfed
from privfed.cli import main
from privfed.config import RANGES, DataConfig, ExperimentConfig, load_config
from privfed.data import DEFAULT_SITES, SiteSpec
from privfed.dp import SvtConfig
from privfed.errors import ConfigError
from privfed.he import CkksParams

FAST = [
    "--set",
    "data.scale_factor=0.02",
    "--set",
    "rounds=1",
    "--set",
    "local_epochs=1",
    "--set",
    "model=lr",
]

# an override outside its key's range, and the rejection's message
OUT_OF_RANGE = [
    ("learning_rate=-1", "'learning_rate' must be positive, got -1"),
    ("learning_rate=0", "'learning_rate' must be positive, got 0"),
    ("batch_size=0", "'batch_size' must be at least 1, got 0"),
    ("site_batch_sizes.stockholm=0", "'site_batch_sizes.stockholm' must be at least 1, got 0"),
    ("local_epochs=-1", "'local_epochs' must be nonnegative, got -1"),
    ("central_epochs=-1", "'central_epochs' must be nonnegative, got -1"),
    ("l2_penalty=-0.001", "'l2_penalty' must be nonnegative, got -0.001"),
    ("threshold=2", r"'threshold' must be in \[0, 1\], got 2"),
    ("threshold=-0.5", r"'threshold' must be in \[0, 1\], got -0.5"),
    ("train_frac=1.5", r"'train_frac' must be in \(0, 1\), got 1.5"),
    ("central_folds=1", "'central_folds' must be at least 2, got 1"),
    ("timeout_seconds=0", "'timeout_seconds' must be positive, got 0"),
]


# (overrides, the dotted key the refusal names) of settings that once loaded
# and then failed inside a run or ran something other than what was asked:
# a non-integer or boolean number, a batch size for no site, and an HE block
# whose chain has no primes; of settings that crashed the load with a
# traceback; and of refusals that once named no key
HE = ["privacy.mode=he"]
DP = ["privacy.mode=dp"]
SITE = {"name": "a", "n_negative": 10000, "n_positive": 1000}
REFUSED_AT_LOAD = {
    "rounds_fraction": (["rounds=2.5"], "rounds"),
    "rounds_bool": (["rounds=true"], "rounds"),
    "central_folds_fraction": (["central_folds=2.5"], "central_folds"),
    "central_epochs_fraction": (["central_epochs=1.5"], "central_epochs"),
    "local_epochs_fraction": (["local_epochs=1.5"], "local_epochs"),
    "batch_size_fraction": (["batch_size=100.5"], "batch_size"),
    "seed_fraction": (["seed=1.5"], "seed"),
    "site_batch_size_bool": (['site_batch_sizes={"stockholm": true}'], "site_batch_sizes.stockholm"),
    "site_batch_size_misspelt": (["site_batch_sizes.stokholm=5"], "site_batch_sizes.stokholm"),
    "dp_bool": (["privacy.mode=dp", "privacy.dp.epsilon=true"], "privacy.dp.epsilon"),
    "site_count_fraction": (
        ['data.sites=[{"name": "a", "n_negative": 1000.5, "n_positive": 100}]'],
        "data.sites[0].n_negative",
    ),
    "scale_factor_bool": (["data.scale_factor=true"], "data.scale_factor"),
    "he_bits_too_wide": ([*HE, "privacy.he.modulus_bits=[62,30,30]"], "privacy.he.modulus_bits"),
    "he_bits_too_narrow": ([*HE, "privacy.he.modulus_bits=[19,30,30]"], "privacy.he.modulus_bits"),
    "he_bits_fraction": ([*HE, "privacy.he.modulus_bits=[40.5,30,30]"], "privacy.he.modulus_bits"),
    "he_scale_fraction": ([*HE, "privacy.he.scale_log2=29.5"], "privacy.he.scale_log2"),
    "he_scale_bool": ([*HE, "privacy.he.scale_log2=true"], "privacy.he.scale_log2"),
    "he_degree_bool": ([*HE, "privacy.he.poly_degree=true"], "privacy.he.poly_degree"),
    "he_no_prime": (
        [*HE, "privacy.he.poly_degree=1048576", "privacy.he.modulus_bits=[30,20,20]", "privacy.he.scale_log2=20"],
        "privacy.he.modulus_bits",
    ),
    "sites_int": (["data.sites=5"], "data.sites"),
    "sites_zero": (["data.sites=0"], "data.sites"),
    "sites_fraction": (["data.sites=2.5"], "data.sites"),
    "sites_bool": (["data.sites=true"], "data.sites"),
    "sites_object": (['data.sites={"a": 1}'], "data.sites"),
    "sites_empty": (["data.sites=[]"], "data.sites"),
    "site_name_int": ([f"data.sites={json.dumps([{**SITE, 'name': 5}])}"], "data.sites[0].name"),
    "out_dir_int": (["out_dir=5"], "out_dir"),
    "csv_dir_int": (["data.csv_dir=5"], "data.csv_dir"),
    "token_int": (["token=5"], "token"),
    "token_null": (["token=null"], "token"),
    "he_bits_int": ([*HE, "privacy.he.modulus_bits=5"], "privacy.he.modulus_bits"),
    "dp_fraction_range": ([*DP, "privacy.dp.fraction=2"], "privacy.dp.fraction"),
    "dp_epsilon_range": ([*DP, "privacy.dp.epsilon=0"], "privacy.dp.epsilon"),
    "dp_noise_var_range": ([*DP, "privacy.dp.noise_var=-1"], "privacy.dp.noise_var"),
    "dp_gamma_range": ([*DP, "privacy.dp.gamma=0"], "privacy.dp.gamma"),
    "dp_tau_nan": ([*DP, "privacy.dp.tau=NaN"], "privacy.dp.tau"),
    "dp_epsilon_string": ([*DP, 'privacy.dp.epsilon="x"'], "privacy.dp.epsilon"),
    "dp_tau_null": ([*DP, "privacy.dp.tau=null"], "privacy.dp.tau"),
    "dp_fraction_null": (["privacy.dp.fraction=null"], "privacy.dp.fraction"),
    "site_count_negative": (
        [f"data.sites={json.dumps([{**SITE, 'n_negative': -1}])}"], "data.sites[0].n_negative"
    ),
    "site_count_missing": (['data.sites=[{"name": "a", "n_negative": 1000}]'], "data.sites[0].n_positive"),
    "model_unknown": (["model=x"], "model"),
    "privacy_mode_unknown": (["privacy.mode=x"], "privacy.mode"),
    "weighting_unknown": (["weighting=x"], "weighting"),
    "he_block_outside_he": (["privacy.he.poly_degree=1024"], "privacy.he"),
    "dp_block_outside_dp": (["privacy.dp.epsilon=2"], "privacy.dp"),
    "site_batch_sizes_list": (["site_batch_sizes=[1]"], "site_batch_sizes"),
    "dp_examples_weighting": ([*DP, "weighting=examples"], "weighting"),
    "site_listed_twice": ([f"data.sites={json.dumps([SITE, SITE])}"], "data.sites"),
    "learning_rate_inf": (["learning_rate=Infinity"], "learning_rate"),
    "l2_penalty_inf": (["l2_penalty=Infinity"], "l2_penalty"),
    "timeout_seconds_inf": (["timeout_seconds=Infinity"], "timeout_seconds"),
    "dp_epsilon_inf": ([*DP, "privacy.dp.epsilon=Infinity"], "privacy.dp.epsilon"),
}


# every key load_config reads: the top level, privacy.*, data.* and the
# entries of a site
CONFIG_KEYS = [
    *(f.name for f in dataclasses.fields(ExperimentConfig) if f.name not in ("privacy_mode", "dp", "he")),
    "privacy.mode",
    *(f"privacy.{block}" for block in ("dp", "he")),
    *(f"privacy.dp.{f.name}" for f in dataclasses.fields(SvtConfig)),
    *(f"privacy.he.{f.name}" for f in dataclasses.fields(CkksParams)),
    *(f"data.{f.name}" for f in dataclasses.fields(DataConfig)),
    *(f"data.sites[0].{f.name}" for f in dataclasses.fields(SiteSpec)),
]
JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6))
JSON_VALUES = st.one_of(
    JSON_SCALARS,
    st.lists(JSON_SCALARS, max_size=3),
    st.dictionaries(st.text(max_size=6), JSON_SCALARS, max_size=3),
)


# keys the config no longer has, and the name the rejection gives: the
# privacy settings live under privacy.*, and sites are read from CSV files
# exactly when data.csv_dir is set
GONE_KEYS = [
    ("transport=tcp", "transport"),
    ("data.source=csv", "data.source"),
    ("privacy_mode=dp", "privacy_mode"),
    ("dp.epsilon=2", "dp"),
    ("he.scale_log2=30", "he"),
]


class TestConfig:
    def test_defaults_match_reference_run(self):
        cfg = load_config(None, [])
        assert cfg.rounds == 250
        assert cfg.local_epochs == 20
        assert cfg.learning_rate == 0.01
        assert cfg.batch_size == 20000
        assert cfg.site_batch_sizes == {"stockholm": 100000}
        assert cfg.data.scale_factor == 1.0

    def test_dp_defaults_per_learner(self):
        nn = load_config(None, ["privacy.mode=dp", "model=nn"])
        assert (nn.dp.fraction, nn.dp.epsilon, nn.dp.noise_var) == (0.9, 1.0, 2.0)
        assert (nn.dp.gamma, nn.dp.tau) == (0.01, 1e-4)
        lr = load_config(None, ["privacy.mode=dp", "model=lr"])
        assert (lr.dp.fraction, lr.dp.epsilon, lr.dp.noise_var) == (0.99, 1e4, 1000.0)
        assert (lr.dp.gamma, lr.dp.tau) == (0.001, 1e-7)

    def test_he_defaults_are_full_scale_parameters(self):
        cfg = load_config(None, ["privacy.mode=he"])
        assert cfg.he.poly_degree == 8192
        assert cfg.he.modulus_bits == (60, 40, 40)
        assert cfg.he.scale_log2 == 40

    def test_set_overrides(self):
        cfg = load_config(None, ["rounds=5", "privacy.mode=dp", "privacy.dp.noise_var=7",
                                 "privacy.dp.fraction=0.5", "privacy.dp.epsilon=2",
                                 "privacy.dp.gamma=0.1", "privacy.dp.tau=0"])
        assert cfg.rounds == 5
        assert cfg.dp.noise_var == 7

    def test_json_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"model": "lr", "rounds": 3}))
        cfg = load_config(str(path), [])
        assert cfg.model == "lr" and cfg.rounds == 3

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n "model": lr\n}')
        with pytest.raises(ConfigError) as err:
            load_config(str(path), [])
        assert "line 2" in str(err.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            load_config(None, ["no_such_knob=1"])

    def test_mode_config_consistency(self):
        with pytest.raises(ConfigError):
            load_config(None, ["privacy.dp.fraction=0.5", "privacy.dp.epsilon=1",
                               "privacy.dp.noise_var=1", "privacy.dp.gamma=1",
                               "privacy.dp.tau=0"])  # dp block without dp mode

    def test_dp_with_example_weighting_rejected(self):
        with pytest.raises(ConfigError, match="weighting"):
            load_config(None, ["privacy.mode=dp", "weighting=examples"])
        assert load_config(None, ["privacy.mode=dp", "weighting=unit"]).weighting == "unit"
        assert load_config(None, ["privacy.mode=he", "weighting=examples"]).weighting == "examples"

    def test_unknown_privacy_key_rejected(self):
        # a misspelt mode key used to run a plain federation
        with pytest.raises(ConfigError, match="unknown config key 'privacy.mdoe'"):
            load_config(None, ["privacy.mdoe=dp"])

    def test_unknown_dp_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'privacy.dp.noise_vr'"):
            load_config(None, ["privacy.mode=dp", "privacy.dp.noise_vr=20"])

    def test_unknown_data_key_named(self):
        with pytest.raises(ConfigError, match="unknown config key 'data.scale_fator'"):
            load_config(None, ["data.scale_fator=0.02"])

    def test_privacy_must_be_an_object(self):
        with pytest.raises(ConfigError, match="config key 'privacy' must be an object"):
            load_config(None, ["privacy=dp"])

    def test_partial_he_block_merges_defaults(self):
        cfg = load_config(None, ["privacy.mode=he", "privacy.he.poly_degree=4096"])
        assert (cfg.he.poly_degree, cfg.he.modulus_bits, cfg.he.scale_log2) == (4096, (60, 40, 40), 40)

    def test_he_chain_without_a_rescaling_level_rejected(self):
        # a fresh ciphertext of a 2-entry chain is at level 0, so the first
        # aggregation's rescale would fail after every site had trained
        he = ["privacy.mode=he", "privacy.he.poly_degree=1024", "privacy.he.scale_log2=30"]
        with pytest.raises(
            ConfigError, match=r"'privacy.he.modulus_bits' needs at least 3 entries in mode 'he', got \[40, 30\]"
        ):
            load_config(None, [*he, "privacy.he.modulus_bits=[40,30]"])
        assert load_config(None, [*he, "privacy.he.modulus_bits=[40,30,30]"]).he.fresh_level == 1

    def test_bad_dp_value_names_the_block(self):
        with pytest.raises(ConfigError, match="config key 'privacy.dp.epsilon' must be positive, got -1"):
            load_config(None, ["privacy.mode=dp", "privacy.dp.epsilon=-1"])

    @pytest.mark.parametrize("override, message", OUT_OF_RANGE, ids=[o for o, _ in OUT_OF_RANGE])
    def test_out_of_range_value_rejected(self, override, message):
        with pytest.raises(ConfigError, match=f"config key {message}"):
            load_config(None, [override])

    def test_range_edges_accepted(self):
        cfg = load_config(None, ["threshold=0", "local_epochs=0", "central_epochs=0", "l2_penalty=0"])
        assert (cfg.threshold, cfg.local_epochs, cfg.central_epochs, cfg.l2_penalty) == (0, 0, 0, 0)
        assert load_config(None, ["threshold=1", "batch_size=1"]).threshold == 1

    def test_report_config_loads_back(self, tmp_path):
        # a report's config (the to_dict form) is itself a valid config file
        for mode in ("plain", "dp", "he"):
            cfg = load_config(None, [f"privacy.mode={mode}", "data.scale_factor=0.02"])
            path = tmp_path / f"{mode}.json"
            path.write_text(json.dumps(cfg.to_dict()))
            assert load_config(str(path), []).to_dict() == cfg.to_dict()

    @pytest.mark.parametrize("override, key", GONE_KEYS, ids=[k for _, k in GONE_KEYS])
    def test_removed_key_rejected(self, override, key):
        with pytest.raises(ConfigError, match=f"unknown config key '{key}'"):
            load_config(None, [override])

    @pytest.mark.parametrize(
        "scale, reason",
        [
            (0.0, r"scale_factor must be in \(0, 1\]"),
            (0.0001, "site 'ostergotland': scaled class count 9 < 10"),
            (1.5, r"scale_factor must be in \(0, 1\]"),
            (-1, r"scale_factor must be in \(0, 1\]"),
        ],
        ids=["zero", "too_few_rows", "above_one", "negative"],
    )
    def test_bad_scale_factor_rejected_at_load(self, scale, reason):
        # generated sites take the generator's range and its rule of at
        # least 10 rows per class; read from CSV, the scale is unused
        with pytest.raises(ConfigError, match=f"config key 'data.scale_factor' is {scale}: {reason}"):
            load_config(None, [f"data.scale_factor={scale}"])
        assert load_config(None, [f"data.scale_factor={scale}", "data.csv_dir=sites"]).data.csv_dir == "sites"

    def test_duplicate_site_name_rejected(self):
        # the coordinator would admit one of the two and pool_sites draw the
        # same rows twice
        site = {"name": "a", "n_negative": 90, "n_positive": 10}
        with pytest.raises(ConfigError, match="config key 'data.sites' lists site 'a' more than once"):
            load_config(None, [f"data.sites={json.dumps([site, site])}"])

    def test_every_setting_is_read(self):
        # a setting that no module reads is accepted and echoed into every
        # report, yet changes nothing; site_batch_sizes is read by batch_for
        read = set()
        for path in pathlib.Path(privfed.__file__).parent.rglob("*.py"):
            if path.name == "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
        settings = {f.name for cls in (ExperimentConfig, DataConfig) for f in dataclasses.fields(cls)}
        assert sorted(settings - read - {"site_batch_sizes"}) == []

    def test_every_number_setting_has_a_typed_range(self):
        # an int or float setting with no RANGES rule of its type would load
        # 2.5 or true unchecked
        numbers = {(f.name, f.type) for f in dataclasses.fields(ExperimentConfig) if f.type in ("int", "float")}
        assert sorted(numbers - {(key, kind.__name__) for key, kind, _, _ in RANGES}) == []

    def test_batch_sizes_default_to_the_cohort_s_sites(self):
        # the reference run's Stockholm batch applies only where a site has
        # that name, so a cohort without one loads with no site batch sizes
        sites = json.dumps([{"name": "a", "n_negative": 200, "n_positive": 40}])
        assert load_config(None, [f"data.sites={sites}"]).site_batch_sizes == {}
        assert load_config(None, []).batch_for("stockholm") == 100000

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(key=st.sampled_from(CONFIG_KEYS), value=JSON_VALUES)
    def test_any_value_loads_or_is_refused_naming_a_key(self, key, value):
        # a dp or he entry is set in its own mode; a site's entry is set on
        # the first of the reference sites
        block = key.split(".")[1] if key.startswith(("privacy.dp.", "privacy.he.")) else None
        overrides = [f"privacy.mode={block}"] if block else []
        if key.startswith("data.sites[0]."):
            sites = [dataclasses.asdict(site) for site in DEFAULT_SITES]
            sites[0][key.rpartition(".")[2]] = value
            key, value = "data.sites", sites
        try:
            cfg = load_config(None, [*overrides, f"{key}={json.dumps(value)}"])
        except ConfigError as err:
            assert "config key '" in str(err)
            return
        strings = [cfg.model, cfg.privacy_mode, cfg.weighting, cfg.out_dir, cfg.token, *cfg.site_names()]
        assert all(isinstance(v, str) for v in strings)
        assert cfg.data.csv_dir is None or isinstance(cfg.data.csv_dir, str)
        assert cfg.data.sites

    def test_env_token(self, monkeypatch):
        monkeypatch.setenv("PRIVFED_TOKEN", "from-env")
        assert load_config(None, []).token == "from-env"


class TestCliCommands:
    def test_generate_data(self, tmp_path):
        rc = main(["generate-data", "--set", "data.scale_factor=0.02", "--out", str(tmp_path)])
        assert rc == 0
        for site in ("ostergotland", "sodermanland", "stockholm", "uppsala"):
            assert (tmp_path / f"{site}.csv").exists()

    def test_generated_csvs_reproduce_the_generated_run(self, tmp_path):
        # run-sim over generate-data's files, at the same seed, trains on the
        # same split rows as the generated run
        run = [*FAST, "--set", "rounds=2", "--set", "seed=7"]
        assert main(["generate-data", *run, "--out", str(tmp_path / "csv")]) == 0
        assert main(["run-sim", *run, "--out", str(tmp_path / "generated")]) == 0
        csv_dir = ["--set", f'data.csv_dir="{tmp_path / "csv"}"']
        assert main(["run-sim", *run, *csv_dir, "--out", str(tmp_path / "from_csv")]) == 0
        from privfed.report import nontiming_view

        generated, from_csv = (
            nontiming_view(json.loads((tmp_path / name / "report.json").read_text()))
            for name in ("generated", "from_csv")
        )
        assert len(generated["rounds"]) == 2
        for key in ("rounds", "final_params"):
            assert from_csv[key] == generated[key], key

    def test_run_sim_zero_rounds(self, tmp_path):
        rc = main(["run-sim", *FAST, "--set", "rounds=0", "--out", str(tmp_path)])
        assert rc == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["rounds"] == []
        assert report["cross_site"] is not None

    def test_run_central_smoke(self, tmp_path):
        rc = main(
            [
                "run-central",
                *FAST,
                "--set",
                "central_epochs=5",
                "--set",
                "central_folds=3",
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 0
        with open(tmp_path / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["method"] == "cml"

    def test_run_sim_emits_all_artifacts(self, tmp_path):
        rc = main(["run-sim", *FAST, "--out", str(tmp_path)])
        assert rc == 0
        for name in ("report.json", "rounds.csv", "summary.csv", "timings.csv"):
            assert (tmp_path / name).exists()

    def test_report_merge_three_fl_methods(self, tmp_path):
        he_small = [
            "--set", "privacy.he.poly_degree=128",
            "--set", "privacy.he.modulus_bits=[40,30,30]",
            "--set", "privacy.he.scale_log2=30",
        ]
        for mode, out, extra in [("plain", "a", []), ("dp", "b", []), ("he", "c", he_small)]:
            rc = main(
                ["run-sim", *FAST, "--set", f"privacy.mode={mode}", *extra,
                 "--out", str(tmp_path / out)]
            )
            assert rc == 0
        rc = main(
            [
                "report",
                str(tmp_path / "a" / "report.json"),
                str(tmp_path / "b" / "report.json"),
                str(tmp_path / "c" / "report.json"),
                "--out",
                str(tmp_path / "merged"),
            ]
        )
        assert rc == 0
        with open(tmp_path / "merged" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["fedavg", "fedavg_dp", "fedavg_he"]
        assert all(r["learner"] == "lr" for r in rows)

    def test_report_skips_an_aborted_run(self, tmp_path, capsys):
        from privfed.report import RunReport, emit_report

        assert main(["run-sim", *FAST, "--out", str(tmp_path / "done")]) == 0
        reason = "RoundTimeoutError: round 0: no reply from 'gotland'"
        aborted = RunReport("federated", "fedavg_dp", "lr", {}, aborted=True, abort_reason=reason)
        emit_report(aborted, tmp_path / "aborted")
        capsys.readouterr()
        paths = [str(tmp_path / run / "report.json") for run in ("done", "aborted")]
        assert main(["report", *paths, "--out", str(tmp_path / "merged")]) == 1
        err = capsys.readouterr().err
        assert err == f"skipped {paths[1]}: no validation metrics, run aborted: {reason}\n"
        with open(tmp_path / "merged" / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["method"] for r in rows] == ["fedavg"]

    def test_invalid_config_exits_nonzero(self, capsys):
        rc = main(["run-sim", "--set", "model=transformer"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_misspelt_config_key_exits_2_with_its_name(self, capsys):
        rc = main(["run-sim", *FAST, "--set", "privacy.mdoe=dp"])
        assert rc == 2
        assert "error: unknown config key 'privacy.mdoe'" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, key", REFUSED_AT_LOAD.values(), ids=REFUSED_AT_LOAD)
    def test_bad_value_exits_2_naming_its_key(self, overrides, key, tmp_path, capsys):
        rc = main(["run-sim", *FAST, *(arg for o in overrides for arg in ("--set", o)), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: config key '{key}' ")
        assert "Traceback" not in err

    def test_partial_he_override_runs_with_merged_defaults(self, tmp_path):
        rc = main(
            ["run-sim", *FAST, "--set", "privacy.mode=he", "--set", "privacy.he.poly_degree=128",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        he = json.loads((tmp_path / "report.json").read_text())["config"]["privacy"]["he"]
        assert he == {"poly_degree": 128, "modulus_bits": [60, 40, 40], "scale_log2": 40}

    def test_missing_csv_dir_exits_nonzero(self, capsys, tmp_path):
        rc = main(
            [
                "run-sim",
                *FAST,
                "--set",
                f'data.csv_dir="{tmp_path}"',
            ]
        )
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_no_report_file_holds_the_token(self, tmp_path, monkeypatch):
        sentinel = "sentinel-join-token-7f3a"
        monkeypatch.setenv("PRIVFED_TOKEN", sentinel)
        assert main(["run-sim", *FAST, "--out", str(tmp_path / "sim")]) == 0
        central = ["--set", "central_epochs=1", "--set", "central_folds=2"]
        assert main(["run-central", *FAST, *central, "--out", str(tmp_path / "central")]) == 0
        for run in ("sim", "central"):
            for name in ("report.json", "rounds.csv", "summary.csv", "timings.csv"):
                assert sentinel not in (tmp_path / run / name).read_text(), f"{run}/{name}"

    def test_idempotent_given_seed(self, tmp_path):
        main(["run-sim", *FAST, "--out", str(tmp_path / "one")])
        main(["run-sim", *FAST, "--out", str(tmp_path / "two")])
        from privfed.report import nontiming_view

        a = nontiming_view(json.loads((tmp_path / "one" / "report.json").read_text()))
        b = nontiming_view(json.loads((tmp_path / "two" / "report.json").read_text()))
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b


class TestTcpEndpoints:
    @pytest.mark.parametrize("endpoint", ["localhost:abc", "localhost", "localhost:0", "localhost:65536"])
    def test_bad_endpoint_is_an_argument_error(self, endpoint, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["server", "--listen", endpoint])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --listen: expected HOST:PORT with a port in 1-65535, got {endpoint!r}" in err

    def test_port_in_use_exits_2(self, capsys):
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            rc = main(["server", "--listen", f"127.0.0.1:{port}", *FAST])
        assert rc == 2
        assert f"error: cannot listen on 127.0.0.1:{port}: Address already in use" in capsys.readouterr().err

    def test_refused_connection_exits_2(self, capsys):
        # a bound socket that does not listen refuses connections to its port
        with socket.socket() as closed:
            closed.bind(("127.0.0.1", 0))
            port = closed.getsockname()[1]
            rc = main(["client", "--connect", f"127.0.0.1:{port}", "--site", "uppsala", *FAST])
        assert rc == 2
        assert f"error: cannot connect to 127.0.0.1:{port}: Connection refused" in capsys.readouterr().err
