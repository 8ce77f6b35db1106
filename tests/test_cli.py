"""CLI tests (invoking main() in-process)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.operator == "OpZ"
        assert args.rat == "5G"

    def test_rejects_bad_operator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--operator", "OpQ"])


class TestSimulate:
    def test_simulate_prints_summary(self, capsys):
        rc = main(["simulate", "--duration", "10", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "OpZ 5G" in out
        assert "Mbps" in out

    def test_simulate_writes_jsonl(self, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        rc = main(["simulate", "--duration", "10", "--out", str(out)])
        assert rc == 0
        assert out.exists()
        from repro.ran import Trace

        trace = Trace.from_jsonl(out)
        assert len(trace) == 10

    def test_simulate_nsa(self, capsys):
        rc = main(["simulate", "--nsa", "--operator", "OpX", "--duration", "10"])
        assert rc == 0
        assert "NSA" in capsys.readouterr().out


class TestCampaign:
    def test_campaign_table(self, tmp_path, capsys):
        rc = main(
            [
                "campaign", "--operators", "OpZ", "--scenarios", "urban",
                "--rats", "5G", "--ues", "1", "--duration", "20",
                "--state-dir", str(tmp_path / "state"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OpZ" in out
        assert out.count("CA%") == 1  # one table

    def test_campaign_out_dir_writes_spilled_traces(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        rc = main(
            [
                "campaign", "--operators", "OpZ", "--scenarios", "urban",
                "--rats", "5G", "--ues", "2", "--duration", "10",
                "--state-dir", str(tmp_path / "state"), "--out-dir", str(tmp_path / "traces"),
            ]
        )
        assert rc == 0
        assert "wrote 2 traces" in capsys.readouterr().out
        from repro.ran import Trace

        written = sorted((tmp_path / "traces").glob("*.jsonl"))
        assert [path.name for path in written] == ["trace_OpZ_5G_urban_000.jsonl", "trace_OpZ_5G_urban_001.jsonl"]
        assert all(len(Trace.from_jsonl(path)) == 10 for path in written)


class TestTrainEvaluate:
    def test_train_and_save(self, tmp_path, capsys):
        model_path = tmp_path / "prism.npz"
        rc = main(
            [
                "train", "--traces", "2", "--samples", "60", "--epochs", "2",
                "--hidden", "8", "--model-out", str(model_path),
            ]
        )
        assert rc == 0
        assert model_path.exists()
        assert "RMSE" in capsys.readouterr().out

    def test_evaluate_table(self, capsys):
        rc = main(
            [
                "evaluate", "--traces", "2", "--samples", "60", "--epochs", "2",
                "--hidden", "8", "--predictors", "Prophet", "Prism5G",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "Prophet" in out and "Prism5G" in out

    def test_evaluate_unknown_predictor(self, capsys):
        rc = main(["evaluate", "--predictors", "Oracle9000"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "Oracle9000" in err and "Prism5G" in err

    def test_evaluate_list_predictors(self, capsys):
        rc = main(["evaluate", "--list-predictors"])
        assert rc == 0
        from repro.core import registered_predictors

        out = capsys.readouterr().out.splitlines()
        assert out == list(registered_predictors())


class TestRun:
    def test_run_twice_skips_second_time(self, tmp_path, capsys):
        config = tmp_path / "exp.json"
        config.write_text(
            """{"name": "cli-tiny", "n_traces": 2, "samples_per_trace": 60,
                "predictors": ["Prophet"], "deep": {"hidden": 8, "max_epochs": 2}}"""
        )
        out_dir = tmp_path / "run"
        rc = main(["run", str(config), "--out-dir", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "completed" in out and "Prophet" in out
        assert "Peak MB" in out
        assert (out_dir / "run.json").exists()

        rc = main(["run", str(config), "--out-dir", str(out_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "all stages skipped" in out

    def test_run_missing_config_fails_cleanly(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    def test_run_invalid_config_fails_cleanly(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text('{"predictors": ["Oracle9000"]}')
        rc = main(["run", str(config)])
        assert rc == 2
        assert "registered predictors" in capsys.readouterr().err


class TestObs:
    @pytest.fixture(autouse=True)
    def obs_off_after(self):
        from repro import obs

        yield
        obs.configure(mode=obs.MODE_OFF)
        obs.reset()

    def test_simulate_with_metrics_then_report(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        rc = main(
            [
                "simulate", "--duration", "10", "--seed", "3",
                "--obs", "metrics", "--obs-dir", str(obs_dir),
            ]
        )
        assert rc == 0
        assert (obs_dir / "latest.json").exists()

        rc = main(["obs", "report", "--dir", str(obs_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "simulate run" in out
        assert "sim.steps" in out
        assert "peak_rss_mb" in out

    def test_obs_report_json_mode(self, tmp_path, capsys):
        obs_dir = tmp_path / "obs"
        main(["simulate", "--duration", "5", "--obs", "metrics", "--obs-dir", str(obs_dir)])
        capsys.readouterr()
        import json

        rc = main(["obs", "report", "--dir", str(obs_dir), "--json"])
        assert rc == 0
        manifest = json.loads(capsys.readouterr().out)
        assert manifest["kind"] == "simulate"
        assert manifest["kernel_paths"]["sanitize"] == "0"

    def test_simulate_sanitize_stamps_the_manifest(self, tmp_path):
        from repro import obs

        obs_dir = tmp_path / "obs"
        rc = main(["simulate", "--duration", "5", "--sanitize", "--obs", "metrics", "--obs-dir", str(obs_dir)])
        assert rc == 0
        manifest = obs.latest_manifest(obs_dir)
        assert manifest["kernel_paths"]["sanitize"] == "1"
        assert manifest["metrics"]["counters"]["sanitize.checks"] > 0

    def test_main_restores_sanitize_and_obs(self, tmp_path):
        from repro import backends, obs, runtime

        before = (runtime.flags(), backends.sanitize_active(), obs.mode(), obs.obs_dir())
        argv = ["simulate", "--duration", "5", "--sanitize", "--obs", "metrics", "--obs-dir", str(tmp_path / "obs")]
        assert main(argv) == 0
        assert (runtime.flags(), backends.sanitize_active(), obs.mode(), obs.obs_dir()) == before

    def test_obs_report_empty_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(["obs", "report", "--dir", str(tmp_path)])
        assert rc == 1
        assert "no run manifest" in capsys.readouterr().err

    def test_obs_offers_report_and_check_slo_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "--help"])
        assert "{report,check-slo}" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["simulate", "--obs", "trace"])
        assert "invalid choice: 'trace'" in capsys.readouterr().err
