import csv
import json
import os

import pytest

from privfed.cli import main
from privfed.config import load_config
from privfed.errors import ConfigError

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

    def test_bad_dp_value_names_the_block(self):
        with pytest.raises(ConfigError, match="privacy.dp: epsilon must be positive"):
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

    def test_env_token(self, monkeypatch):
        monkeypatch.setenv("PRIVFED_TOKEN", "from-env")
        assert load_config(None, []).token == "from-env"


class TestCliCommands:
    def test_generate_data(self, tmp_path):
        rc = main(["generate-data", "--set", "data.scale_factor=0.02", "--out", str(tmp_path)])
        assert rc == 0
        for site in ("ostergotland", "sodermanland", "stockholm", "uppsala"):
            assert (tmp_path / f"{site}.csv").exists()

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

    def test_invalid_config_exits_nonzero(self, capsys):
        rc = main(["run-sim", "--set", "model=transformer"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_misspelt_config_key_exits_2_with_its_name(self, capsys):
        rc = main(["run-sim", *FAST, "--set", "privacy.mdoe=dp"])
        assert rc == 2
        assert "error: unknown config key 'privacy.mdoe'" in capsys.readouterr().err

    def test_partial_he_override_runs_with_merged_defaults(self, tmp_path):
        rc = main(
            ["run-sim", *FAST, "--set", "privacy.mode=he", "--set", "privacy.he.poly_degree=128",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        he = json.loads((tmp_path / "report.json").read_text())["config"]["he"]
        assert he == {"poly_degree": 128, "modulus_bits": [60, 40, 40], "scale_log2": 40}

    def test_missing_csv_dir_exits_nonzero(self, capsys, tmp_path):
        rc = main(
            [
                "run-sim",
                *FAST,
                "--set",
                "data.source=csv",
                "--set",
                f'data.csv_dir="{tmp_path}"',
            ]
        )
        assert rc == 2
        assert "does not exist" in capsys.readouterr().err

    def test_idempotent_given_seed(self, tmp_path):
        main(["run-sim", *FAST, "--out", str(tmp_path / "one")])
        main(["run-sim", *FAST, "--out", str(tmp_path / "two")])
        from privfed.report import nontiming_view

        a = nontiming_view(json.loads((tmp_path / "one" / "report.json").read_text()))
        b = nontiming_view(json.loads((tmp_path / "two" / "report.json").read_text()))
        a["config"].pop("out_dir")
        b["config"].pop("out_dir")
        assert a == b
