"""CLI tests (invoking main() in-process)."""

import pytest

from repro import obs
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

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_run_is_the_only_training_command(self, command, capsys):
        # `repro5g run <config>` trains and scores; there is no second route
        with pytest.raises(SystemExit):
            build_parser().parse_args([command])
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


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

    def test_campaign_out_dir_writes_spilled_traces(self, tmp_path, capsys):
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

    def test_campaign_spill_keeps_traces_beside_its_shards(self, tmp_path, capsys):
        from repro.data import TraceCache

        argv = [
            "campaign", "--operators", "OpZ", "--scenarios", "urban",
            "--rats", "5G", "--ues", "2", "--duration", "10", "--shards", "2",
            "--state-dir", str(tmp_path / "state"), "--spill",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "(0 resumed)" in first
        assert TraceCache(tmp_path / "state" / "traces").entries()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["state"]
        assert main(argv) == 0
        again = capsys.readouterr().out
        assert "(2 resumed)" in again and "(0 simulated)" in again
        assert first.splitlines()[:-2] == again.splitlines()[:-2]  # same tables

    # test_city_campaign.py's TestConfigValidation covers every rejected value
    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--rats", "6G"], "unknown RAT '6G'"),
            (["--ues", "0"], "ues must be >= 1"),
            (["--cells", "-3"], "cells must be >= 0"),
        ],
    )
    def test_campaign_rejects_bad_input_before_any_state_exists(self, tmp_path, capsys, flags, message):
        state = tmp_path / "state"
        assert main(["campaign", "--state-dir", str(state), *flags]) == 2
        assert f"campaign: {message}" in capsys.readouterr().err
        assert not state.exists()


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
        yield
        obs.configure(mode=obs.MODE_OFF)
        obs.reset()

    @pytest.fixture()
    def config(self, tmp_path):
        path = tmp_path / "exp.json"
        path.write_text(
            """{"name": "cli-obs", "n_traces": 2, "samples_per_trace": 40,
                "predictors": ["LSTM"], "deep": {"hidden": 4, "max_epochs": 1, "patience": 1}}"""
        )
        return path

    def test_run_with_metrics_then_report(self, tmp_path, config, capsys):
        run_dir = tmp_path / "run"
        assert main(["run", str(config), "--out-dir", str(run_dir), "--obs", "metrics"]) == 0
        # the run directory holds the record; nothing lands beside it
        assert (run_dir / "run.json").exists()
        assert sorted(path.name for path in tmp_path.iterdir()) == ["exp.json", "run"]
        capsys.readouterr()

        assert main(["obs", "report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert f"experiment run: {run_dir / 'run.json'}" in out
        assert "sim.steps" in out and "peak_rss_mb" in out and "best_epoch" in out

    def test_report_says_when_the_peak_rss_is_an_earlier_runs(self, tmp_path, config, capsys):
        # a larger experiment, then a small one, in one process: the small
        # run's record repeats the larger one's high-water mark
        larger = tmp_path / "larger.json"
        larger.write_text(
            """{"name": "cli-obs-larger", "n_traces": 4, "samples_per_trace": 200,
                "predictors": ["Prism5G"], "deep": {"hidden": 24, "max_epochs": 1, "patience": 1}}"""
        )
        assert main(["run", str(larger), "--out-dir", str(tmp_path / "larger")]) == 0
        assert main(["run", str(config), "--out-dir", str(tmp_path / "small")]) == 0
        small = obs.read_record(tmp_path / "small")
        assert small["peak_rss_mb_at_start"] == small["peak_rss_mb"]
        capsys.readouterr()
        assert main(["obs", "report", str(tmp_path / "small")]) == 0
        assert "peak_rss_mb was set before this run" in capsys.readouterr().out

    def test_obs_report_reads_a_campaign_state_dir(self, tmp_path, capsys):
        state = tmp_path / "state"
        argv = [
            "campaign", "--operators", "OpZ", "--scenarios", "urban", "--rats", "5G",
            "--ues", "2", "--duration", "5", "--state-dir", str(state),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(state)]) == 0
        out = capsys.readouterr().out
        assert f"campaign run: {state / 'run.json'}" in out
        assert "shards_completed: 1" in out and "complete: True" in out

    def test_run_sanitize_stamps_the_record(self, tmp_path, config):
        run_dir = tmp_path / "run"
        assert main(["run", str(config), "--out-dir", str(run_dir), "--sanitize", "--obs", "metrics"]) == 0
        record = obs.read_record(run_dir)
        assert record["flags"]["sanitize"] == "1"
        assert record["counters"]["sanitize.checks"] > 0
        assert not [name for name in record["counters"] if name.startswith("sanitize.violation")]

    def test_main_restores_sanitize_and_obs(self, tmp_path, config):
        from repro import backends, obs, runtime

        before = (runtime.flags(), backends.sanitize_active(), obs.mode())
        argv = ["run", str(config), "--out-dir", str(tmp_path / "run"), "--sanitize", "--obs", "metrics"]
        assert main(argv) == 0
        assert (runtime.flags(), backends.sanitize_active(), obs.mode()) == before

    def test_obs_report_empty_dir_fails_cleanly(self, tmp_path, capsys):
        rc = main(["obs", "report", str(tmp_path)])
        assert rc == 1
        assert f"no run record (run.json) in {tmp_path}" in capsys.readouterr().err

    def test_obs_offers_report_and_check_slo_only(self, capsys):
        with pytest.raises(SystemExit):
            main(["obs", "--help"])
        assert "{report,check-slo}" in capsys.readouterr().out
        with pytest.raises(SystemExit):
            main(["run", "x.json", "--obs", "trace"])
        assert "invalid choice: 'trace'" in capsys.readouterr().err

    def test_simulate_takes_no_obs_flag(self, capsys):
        # a simulate run has no directory to hold a record
        with pytest.raises(SystemExit):
            main(["simulate", "--obs", "metrics"])
        assert "unrecognized arguments: --obs" in capsys.readouterr().err
