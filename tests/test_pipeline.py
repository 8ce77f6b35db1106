"""Experiment pipeline: typed config, hashing, stage skip/resume."""

import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs, runtime
from repro.core.predictors import (
    DeepConfig,
    LSTMPredictor,
    Prism5GPredictor,
    create_predictor,
    register_predictor,
    registered_predictors,
)
from repro.data import build_subdataset, random_split, window_trace
from repro.pipeline import (
    EXPERIMENT_SCHEMA,
    DEFAULT_STAGES,
    ExperimentConfig,
    run_dir_for,
    run_experiment,
)
from repro.ran import TraceSimulator

TINY = dict(
    name="tiny",
    n_traces=2,
    samples_per_trace=60,
    predictors=("Prophet", "Prism5G"),
    deep={"hidden": 8, "max_epochs": 2, "patience": 2},
)


#: config fields that must be at least 1
_COUNTS = ("n_traces", "samples_per_trace", "history", "horizon", "max_ccs", "stride")
_DEEP_COUNTS = ("hidden", "batch_size", "max_epochs", "patience")


class TestExperimentConfig:
    def test_json_round_trip(self):
        config = ExperimentConfig(**TINY)
        clone = ExperimentConfig.from_json(config.to_json())
        assert clone == config
        assert clone.hash() == config.hash()

    def test_save_load_round_trip(self, tmp_path):
        config = ExperimentConfig(**TINY)
        path = config.save(tmp_path / "exp.json")
        assert ExperimentConfig.load(path) == config

    def test_hash_is_stable(self):
        # equal configs hash equally regardless of construction order
        a = ExperimentConfig(seed=3, operator="OpX", mobility="walking")
        b = ExperimentConfig(mobility="walking", operator="OpX", seed=3)
        assert a.hash() == b.hash()
        assert len(a.hash()) == 16

    @pytest.mark.parametrize(
        "override",
        [
            {"seed": 1},
            {"operator": "OpX"},
            {"mobility": "walking"},
            {"timescale": "short"},
            {"n_traces": 9},
            {"split": "trace"},
            {"predictors": ("Prophet",)},
            {"deep": {"hidden": 99}},
            {"samples_per_trace": 77},
        ],
    )
    def test_every_field_feeds_the_hash(self, override):
        assert ExperimentConfig(**override).hash() != ExperimentConfig().hash()

    def test_schema_feeds_the_hash(self):
        config = ExperimentConfig()
        assert (
            runtime.canonical_hash(config.to_dict(), schema=EXPERIMENT_SCHEMA)
            == config.hash()
        )
        assert runtime.canonical_hash(config.to_dict()) != config.hash()

    def test_unknown_predictor_rejected(self):
        with pytest.raises(ValueError, match="registered predictors"):
            ExperimentConfig(predictors=("Oracle9000",))

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ValueError, match="unknown experiment config key"):
            ExperimentConfig.from_dict({"name": "x", "optimizer": "sgd"})

    def test_saved_config_records_its_schema(self, tmp_path):
        config = ExperimentConfig(**TINY)
        path = config.save(tmp_path / "exp.json")
        assert json.loads(path.read_text())["schema"] == EXPERIMENT_SCHEMA
        assert ExperimentConfig.load(path).hash() == config.hash()

    def test_other_schema_rejected_naming_both(self):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig.from_dict({"schema": "repro-experiment-v1", "name": "x"})
        assert "'repro-experiment-v1'" in str(excinfo.value)
        assert repr(EXPERIMENT_SCHEMA) in str(excinfo.value)

    def test_unknown_runtime_flag_rejected(self):
        # runtime flags never change a result, so a config cannot carry them
        with pytest.raises(ValueError, match="unknown experiment config key"):
            ExperimentConfig.from_dict({"name": "x", "runtime": {"sanitize": "1"}})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("operator", "OpQ"),
            ("mobility", "flying"),
            ("timescale", "medium"),
            ("split", "kfold"),
        ],
    )
    def test_invalid_enums_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_empty_predictors_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(predictors=())

    def test_unknown_deep_key_rejected(self):
        with pytest.raises(ValueError, match=r"unknown deep config key\(s\) \['hiden'\]") as excinfo:
            ExperimentConfig.from_dict({"name": "x", "deep": {"hiden": 8}})
        assert "'hidden'" in str(excinfo.value)

    def test_bare_string_predictors_rejected(self):
        with pytest.raises(ValueError, match="predictors must be a list") as excinfo:
            ExperimentConfig.from_dict({"name": "x", "predictors": "LSTM"})
        assert "'LSTM'" in str(excinfo.value)

    @pytest.mark.parametrize(
        "section,message",
        [
            ({"deep": [8]}, "deep must be an object, got [8]"),
            ({"n_traces": "2"}, "n_traces must be an integer, got '2'"),
            ({"deep": {"hidden": "8"}}, "deep.hidden must be an integer, got '8'"),
            ({"seed": True}, "seed must be an integer, got True"),
        ],
        ids=["deep-list", "n_traces-str", "deep.hidden-str", "seed-bool"],
    )
    def test_wrong_value_type_rejected(self, section, message):
        with pytest.raises(ValueError) as excinfo:
            ExperimentConfig.from_dict({"name": "x", **section})
        assert str(excinfo.value) == message

    def test_example_config_loads_with_its_hash(self):
        config = ExperimentConfig.load(Path(__file__).resolve().parents[1] / "examples" / "experiment_small.json")
        assert config.hash() == "8db85ee637bb02af"

    @pytest.mark.parametrize(
        "section,message",
        [
            ({"deep": {"hiden": 8}}, "unknown deep config key"),
            ({"deep": [8]}, "deep must be an object"),
        ],
        ids=["deep", "deep-list"],
    )
    def test_cli_run_rejects_nested_typo_before_any_run_dir(self, section, message, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"name": "x", **section}), encoding="utf-8")
        assert main(["run", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not runs.exists()

    @pytest.mark.parametrize(
        "section,message",
        [({name: 0}, f"{name} must be >= 1, got 0") for name in _COUNTS]
        + [({"deep": {name: 0}}, f"deep.{name} must be >= 1, got 0") for name in _DEEP_COUNTS]
        + [
            ({"deep": {"lr": 0}}, "deep.lr must be > 0, got 0"),
            ({"deep": {"lr": -0.01}}, "deep.lr must be > 0, got -0.01"),
            ({"samples_per_trace": 5}, "samples_per_trace must be >= history + horizon (20), got 5"),
            ({"samples_per_trace": 30, "history": 20, "horizon": 11}, "history + horizon (31), got 30"),
            ({"seed": -1}, "seed must be >= 0, got -1"),
            ({"deep": {"seed": -1}}, "deep.seed must be >= 0, got -1"),
        ],
        ids=[
            *_COUNTS,
            *(f"deep.{name}" for name in _DEEP_COUNTS),
            "deep.lr-0",
            "deep.lr-neg",
            "no-window",
            "no-window-31",
            "seed-neg",
            "deep.seed-neg",
        ],
    )
    def test_cli_run_rejects_out_of_range_values_before_any_run_dir(
        self, section, message, tmp_path, monkeypatch, capsys
    ):
        from repro.cli import main

        runs = tmp_path / "runs"
        monkeypatch.setenv("REPRO_RUNS_DIR", str(runs))
        config = tmp_path / "exp.json"
        config.write_text(json.dumps({"name": "x", **section}), encoding="utf-8")
        assert main(["run", str(config)]) == 2
        assert message in capsys.readouterr().err
        assert not runs.exists()

    @pytest.mark.parametrize(
        "section",
        [{name: 1} for name in _COUNTS if name != "samples_per_trace"]
        + [{"samples_per_trace": 20}, {"samples_per_trace": 2, "history": 1, "horizon": 1}]
        + [{"deep": {name: 1}} for name in _DEEP_COUNTS]
        + [{"deep": {"lr": 1e-12}}, {"seed": 0}, {"deep": {"seed": 0}}],
        ids=[
            *(name for name in _COUNTS if name != "samples_per_trace"),
            "samples_per_trace-20",
            "samples_per_trace-2",
            *(f"deep.{name}" for name in _DEEP_COUNTS),
            "deep.lr-tiny",
            "seed-0",
            "deep.seed-0",
        ],
    )
    def test_smallest_in_range_values_load(self, section):
        # the range checks stop at the first value that cannot run, not before it
        config = ExperimentConfig.from_dict({"name": "x", **section})
        loaded = config.to_dict()
        for name, value in section.items():
            if name == "deep":
                assert {key: loaded["deep"][key] for key in value} == value
            else:
                assert loaded[name] == value
        assert ExperimentConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("history,horizon", [(1, 1), (10, 10), (3, 7)])
    def test_shortest_accepted_trace_gives_one_window(self, history, horizon):
        # samples_per_trace's floor is window_trace's: history + horizon
        # samples give one window and one fewer gives none
        shortest = history + horizon
        ExperimentConfig(samples_per_trace=shortest, history=history, horizon=horizon)
        with pytest.raises(ValueError, match="samples_per_trace must be >= history"):
            ExperimentConfig(samples_per_trace=shortest - 1, history=history, horizon=horizon)
        sim = TraceSimulator("OpZ", mobility="driving", dt_s=1.0, seed=history)
        windows = window_trace(sim.run(float(shortest)), history, horizon, max_ccs=4)
        assert windows is not None
        assert len(windows[0]) == 1
        assert window_trace(sim.run(float(shortest - 1)), history, horizon, max_ccs=4) is None

    def test_run_dir_embeds_name_and_hash(self):
        config = ExperimentConfig(name="My Experiment!")
        path = run_dir_for(config)
        assert path.name == f"my_experiment-{config.hash()}"


class TestRegistry:
    def test_duplicate_registration_raises_and_keeps_registry(self):
        before = registered_predictors()
        with pytest.raises(ValueError, match="'LSTM' is already registered"):
            register_predictor("LSTM", lambda config=None: None)
        with pytest.raises(ValueError, match="already registered"):

            @register_predictor("LSTM")
            class _Shadow(LSTMPredictor):
                pass

        assert registered_predictors() == before
        assert type(create_predictor("LSTM")) is LSTMPredictor

    def test_ablations_registered(self):
        names = registered_predictors()
        assert "Prism5G (no state)" in names
        assert "Prism5G (no fusion)" in names
        # Table 13's design variants
        assert create_predictor("Prism5G (GRU)").rnn == "gru"
        assert create_predictor("Prism5G (MLP head)").head == "mlp"

    def test_registry_sorted(self):
        names = registered_predictors()
        assert list(names) == sorted(names)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("exp") / "run"
    config = ExperimentConfig(**TINY)
    result = run_experiment(config, out_dir=run_dir)
    # the tests below edit run_dir; this copy stays as the run left it
    shutil.copytree(run_dir, run_dir.with_name("pristine"))
    return config, run_dir, result


@pytest.fixture()
def finished_copy(tiny_run, tmp_path):
    """A private copy of the finished tiny run's directory."""
    _, run_dir, _ = tiny_run
    return Path(shutil.copytree(run_dir.with_name("pristine"), tmp_path / "run"))


@pytest.fixture(scope="module")
def other_fresh(tmp_path_factory):
    """Another config that loads the tiny run's checkpoints, run in a fresh directory."""
    config = ExperimentConfig(**{**TINY, "seed": 7})
    return config, run_experiment(config, out_dir=tmp_path_factory.mktemp("other") / "run")


def _unreadable_warnings(caplog, stage):
    """The fields of each ``artifact.unreadable`` warning naming ``stage``."""
    warnings = [
        json.loads(rec.args[1])
        for rec in caplog.records
        if rec.name == "repro.obs" and rec.args[0] == "artifact.unreadable"
    ]
    return [fields for fields in warnings if fields["stage"] == stage]


class TestRunExperiment:
    def test_first_run_completes_all_stages(self, tiny_run):
        _, _, result = tiny_run
        assert [s.stage for s in result.stages] == [s.name for s in DEFAULT_STAGES]
        assert all(s.status == "completed" for s in result.stages)
        assert set(result.rmse) == {"Prophet", "Prism5G"}
        assert all(np.isfinite(v) for v in result.rmse.values())

    def test_artifacts_on_disk(self, tiny_run):
        config, run_dir, result = tiny_run
        assert (run_dir / "experiment.json").exists()
        assert (run_dir / "dataset.npz").exists()
        assert (run_dir / "checkpoints" / "prophet.pkl").exists()
        assert (run_dir / "checkpoints" / "prism5g.npz").exists()
        assert (run_dir / "result.json").exists()
        summary = json.loads((run_dir / "run.json").read_text())
        assert summary["schema"] == obs.RUN_SCHEMA
        assert summary["experiment_hash"] == config.hash()
        assert summary["rmse"] == result.rmse
        payload = json.loads((run_dir / "result.json").read_text())
        assert payload["experiment_hash"] == config.hash()
        assert payload["rmse"] == result.rmse

    def test_stages_record_the_peak_rss_they_end_at(self, tiny_run):
        _, run_dir, result = tiny_run
        peaks = [s.peak_rss_mb for s in result.stages]
        assert peaks[0] > 0.0
        assert peaks == sorted(peaks)
        summary = json.loads((run_dir / "run.json").read_text())
        assert [s["peak_rss_mb"] for s in summary["stages"]] == peaks

    def test_run_dir_has_no_stage_markers(self, tiny_run):
        config, run_dir, _ = tiny_run
        # the artifacts are the completion record; experiment.json says whose
        assert not (run_dir / "stages").exists()
        assert ExperimentConfig.load(run_dir / "experiment.json").hash() == config.hash()
        assert not list(run_dir.rglob("*.tmp-*"))

    def test_second_run_all_skipped_same_rmse(self, tiny_run):
        config, run_dir, first = tiny_run
        second = run_experiment(config, out_dir=run_dir)
        assert second.all_skipped
        # a skipped stage has no detail to report: run() did not run
        assert [s.detail for s in second.stages] == [None] * len(DEFAULT_STAGES)
        # same values in the same (line-up) order: result.json sorts its keys
        assert list(second.rmse.items()) == list(first.rmse.items())
        assert list(second.predictors) == list(first.predictors) == list(config.predictors)

    def test_partial_resume_keeps_lineup_order(self, finished_copy, tiny_run):
        config, _, first = tiny_run
        # Prism5G's checkpoint is restored, Prophet is refit after it
        (finished_copy / "result.json").unlink()
        (finished_copy / "checkpoints" / "prophet.pkl").unlink()
        resumed = run_experiment(config, out_dir=finished_copy)
        train_detail = next(s.detail for s in resumed.stages if s.stage == "train")
        assert train_detail["Prism5G"] == {"status": "resumed"}
        assert list(resumed.predictors) == list(config.predictors)
        assert list(resumed.rmse.items()) == list(first.rmse.items())

    def test_result_carries_dataset_predictors_and_test_split(self, finished_copy, tiny_run):
        config, _, first = tiny_run
        payload = json.loads((finished_copy / "result.json").read_text())
        assert len(first.test) == payload["n_test"]
        assert len(first.dataset.windows) == payload["n_train"] + payload["n_val"] + payload["n_test"]
        # the RMSEs are the predictors' scores on the test split
        assert {name: p.evaluate(first.test) for name, p in first.predictors.items()} == first.rmse
        # restored predictors predict what the fitted ones did, bit for bit
        second = run_experiment(config, out_dir=finished_copy)
        assert second.all_skipped
        for name, predictor in first.predictors.items():
            np.testing.assert_array_equal(second.predictors[name].predict(second.test), predictor.predict(first.test))

    def test_split_is_drawn_from_the_training_seed(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "seed": 3, "deep": {**TINY["deep"], "seed": 0}})
        result = run_experiment(config, out_dir=tmp_path / "run")
        # the reference: synthesize with seed 3, split and train with seed 0
        dataset = build_subdataset(
            config.spec, n_traces=config.n_traces, samples_per_trace=config.samples_per_trace, seed=3, cache=None
        )
        train, val, test = random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)
        expected = {}
        for name in config.predictors:
            predictor = create_predictor(name, config.deep)
            predictor.fit(train, val)
            expected[name] = predictor.evaluate(test)
        assert result.rmse == expected

    def test_trace_split_holds_out_whole_traces(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "n_traces": 3, "split": "trace", "predictors": ("LSTM",)})
        result = run_experiment(config, out_dir=tmp_path / "run")
        payload = json.loads((result.run_dir / "result.json").read_text())
        assert payload["split"] == "trace"
        held_out = set(result.test.trace_ids.tolist())
        assert held_out and held_out < set(result.dataset.windows.trace_ids.tolist())
        assert len(result.test) == int(np.isin(result.dataset.windows.trace_ids, list(held_out)).sum())
        assert np.isfinite(result.rmse["LSTM"])

    def test_non_finite_rmse_fails_naming_the_predictor(self, tmp_path, monkeypatch):
        prophet = type(create_predictor("Prophet"))
        monkeypatch.setattr(prophet, "predict", lambda self, dataset: np.full((len(dataset), dataset.horizon), np.nan))
        config = ExperimentConfig(**TINY)
        with pytest.raises(RuntimeError, match="non-finite test RMSE from Prophet:"):
            run_experiment(config, out_dir=tmp_path / "run")
        assert not (tmp_path / "run" / "result.json").exists()

    def test_prism5g_variants_alone_have_no_improvement_figure(self, tmp_path, capsys):
        from repro.cli import main

        config = ExperimentConfig(**{**TINY, "predictors": ("Prism5G", "Prism5G (no state)")})
        path = config.save(tmp_path / "variants.json")
        assert main(["run", str(path), "--out-dir", str(tmp_path / "run")]) == 0
        assert "Prism5G (no state)" in capsys.readouterr().out
        payload = json.loads((tmp_path / "run" / "result.json").read_text())
        assert list(payload["rmse"]) == ["Prism5G", "Prism5G (no state)"]
        assert "improvement_pct" not in payload

    def test_run_dir_written_under_another_schema_is_recomputed(self, finished_copy, tiny_run):
        config, _, first = tiny_run
        # the experiment.json an older pipeline wrote: no "schema" key
        path = finished_copy / "experiment.json"
        data = json.loads(path.read_text())
        data.pop("schema", None)
        path.write_text(json.dumps(data))
        resumed = run_experiment(config, out_dir=finished_copy)
        assert all(s.status == "completed" for s in resumed.stages)
        train_detail = next(s.detail for s in resumed.stages if s.stage == "train")
        assert {info["status"] for info in train_detail.values()} == {"fitted"}
        assert resumed.rmse == first.rmse
        assert json.loads(path.read_text())["schema"] == EXPERIMENT_SCHEMA

    def test_force_reruns_everything(self, tiny_run):
        config, run_dir, first = tiny_run
        forced = run_experiment(config, out_dir=run_dir, force=True)
        assert all(s.status == "completed" for s in forced.stages)
        assert forced.rmse == pytest.approx(first.rmse)

    def test_resume_after_kill_between_stages(self, tiny_run):
        config, run_dir, first = tiny_run
        (run_dir / "result.json").unlink()
        resumed = run_experiment(config, out_dir=run_dir)
        statuses = {s.stage: s.status for s in resumed.stages}
        assert statuses == {
            "synthesize": "skipped",
            "build_dataset": "skipped",
            "train": "skipped",
            "evaluate": "completed",
        }
        # predictions come from the restored checkpoints: bit-identical
        assert resumed.rmse == first.rmse

    def test_resume_after_kill_mid_train(self, tiny_run):
        config, run_dir, first = tiny_run
        (run_dir / "result.json").unlink()
        (run_dir / "checkpoints" / "prism5g.npz").unlink()
        resumed = run_experiment(config, out_dir=run_dir)
        train_detail = next(s.detail for s in resumed.stages if s.stage == "train")
        assert train_detail["Prophet"]["status"] == "resumed"
        assert train_detail["Prism5G"]["status"] == "fitted"
        assert resumed.rmse == pytest.approx(first.rmse)

    def test_marker_from_other_config_does_not_count(self, tiny_run, tmp_path):
        config, run_dir, _ = tiny_run
        other = ExperimentConfig(**{**TINY, "seed": 7})
        # same directory, different config hash: nothing may be skipped
        result = run_experiment(other, out_dir=run_dir)
        assert all(s.status == "completed" for s in result.stages)

    def test_other_configs_run_dir_refits_every_predictor(self, finished_copy, other_fresh):
        other, fresh = other_fresh
        result = run_experiment(other, out_dir=finished_copy)
        train_detail = next(s.detail for s in result.stages if s.stage == "train")
        assert {name: info["status"] for name, info in train_detail.items()} == {
            "Prophet": "fitted",
            "Prism5G": "fitted",
        }
        assert result.rmse == fresh.rmse

    def test_kill_after_claiming_other_configs_run_dir(self, finished_copy, other_fresh, monkeypatch):
        other, fresh = other_fresh

        def killed(self, *args, **kwargs):
            raise KeyboardInterrupt

        # killed mid-train, after Prophet's checkpoint: the other config's
        # Prism5G checkpoint and result must not be resumed as this config's
        monkeypatch.setattr(Prism5GPredictor, "fit", killed)
        with pytest.raises(KeyboardInterrupt):
            run_experiment(other, out_dir=finished_copy)
        monkeypatch.undo()
        resumed = run_experiment(other, out_dir=finished_copy)
        statuses = {s.stage: s.status for s in resumed.stages}
        assert statuses == {
            "synthesize": "skipped",
            "build_dataset": "skipped",
            "train": "completed",
            "evaluate": "completed",
        }
        train_detail = next(s.detail for s in resumed.stages if s.stage == "train")
        assert train_detail["Prophet"] == {"status": "resumed"}
        assert train_detail["Prism5G"]["status"] == "fitted"
        assert resumed.rmse == fresh.rmse

    def test_torn_checkpoint_is_warned_and_refit(self, finished_copy, tiny_run, caplog):
        config, _, first = tiny_run
        checkpoint = finished_copy / "checkpoints" / "prism5g.npz"
        checkpoint.write_bytes(checkpoint.read_bytes()[: checkpoint.stat().st_size // 2])
        (finished_copy / "result.json").unlink()
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            resumed = run_experiment(config, out_dir=finished_copy)
        (warning,) = _unreadable_warnings(caplog, "train")
        assert warning["path"] == str(checkpoint)
        statuses = {s.stage: s.status for s in resumed.stages}
        assert statuses == {
            "synthesize": "skipped",
            "build_dataset": "skipped",
            "train": "completed",
            "evaluate": "completed",
        }
        train_detail = next(s.detail for s in resumed.stages if s.stage == "train")
        assert train_detail["Prophet"] == {"status": "resumed"}
        assert train_detail["Prism5G"]["status"] == "fitted"
        assert resumed.rmse == first.rmse

    @pytest.mark.parametrize(
        "artifact,stage",
        [("dataset.npz", "build_dataset"), ("result.json", "evaluate")],
    )
    def test_truncated_artifact_is_warned_and_recomputed(self, finished_copy, tiny_run, caplog, artifact, stage):
        config, _, first = tiny_run
        path = finished_copy / artifact
        path.write_bytes(path.read_bytes()[:64])
        with caplog.at_level(logging.WARNING, logger="repro.obs"):
            resumed = run_experiment(config, out_dir=finished_copy)
        (warning,) = _unreadable_warnings(caplog, stage)
        assert warning["path"] == str(path)
        statuses = {s.stage: s.status for s in resumed.stages}
        assert statuses == {s.name: "completed" if s.name == stage else "skipped" for s in DEFAULT_STAGES}
        assert resumed.rmse == first.rmse
        assert run_experiment(config, out_dir=finished_copy).all_skipped

    def test_runtime_flags_restored_after_run(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "predictors": ("Prophet",)})
        with runtime.use(sanitize="1"):
            before = runtime.flags()
            run_experiment(config, out_dir=tmp_path / "flags-run")
            assert runtime.flags() == before

    def test_sanitize_reaches_the_run_and_stays_out_of_the_hash(self, tmp_path):
        tiny_lstm = {
            **TINY,
            "predictors": ("LSTM",),
            "deep": {"hidden": 8, "max_epochs": 1, "patience": 1},
        }
        unarmed_hash = ExperimentConfig(**tiny_lstm).hash()
        obs.configure(mode=obs.MODE_METRICS)
        try:
            with runtime.use(sanitize="1"):
                config = ExperimentConfig(**tiny_lstm)
                run_experiment(config, out_dir=tmp_path / "sanitized-run")
        finally:
            obs.configure(mode=obs.MODE_OFF)
            obs.reset()
        record = obs.read_record(tmp_path / "sanitized-run")
        assert config.hash() == unarmed_hash
        assert record["flags"]["sanitize"] == "1"
        assert record["counters"]["sanitize.checks"] > 0
        assert not [name for name in record["counters"] if name.startswith("sanitize.violation")]
        # the shipped example lands in the same run directory either way
        example = Path(__file__).resolve().parent.parent / "examples" / "experiment_small.json"
        with runtime.use(sanitize="1"):
            armed = ExperimentConfig.load(example).hash()
        assert armed == ExperimentConfig.load(example).hash()

    def test_manifests_carry_experiment_hash(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "predictors": ("Prophet",)})
        run_experiment(config, out_dir=tmp_path / "run")
        record = obs.read_record(tmp_path / "run")
        result = json.loads((tmp_path / "run" / "result.json").read_text())
        # the record and the result name the run by its one hash
        assert record["experiment_hash"] == result["experiment_hash"] == config.hash()
        assert sorted(key for key in record if key.endswith("hash")) == ["experiment_hash"]
        # metrics off: the record holds no counters
        assert "counters" not in record

    def test_record_counts_only_its_own_run(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS)
        try:
            records = []
            for seed in (0, 1):
                config = ExperimentConfig(
                    n_traces=2, samples_per_trace=40, predictors=("LSTM",), seed=seed,
                    deep=DeepConfig(hidden=4, max_epochs=1, patience=1),
                )
                run_experiment(config, out_dir=tmp_path / f"run-{seed}")
                records.append(obs.read_record(tmp_path / f"run-{seed}"))
        finally:
            obs.configure(mode=obs.MODE_OFF)
            obs.reset()
        # equal-size runs in one process count alike, and every stage counts
        assert [record["counters"]["sim.steps"] for record in records] == [80.0, 80.0]
        for record in records:
            assert [stage["status"] for stage in record["stages"]] == ["completed"] * 4

    def test_rerun_record_reports_every_stage_skipped(self, finished_copy, tiny_run):
        config, _, first = tiny_run
        run_experiment(config, out_dir=finished_copy)
        record = obs.read_record(finished_copy)
        assert record["experiment_hash"] == config.hash()
        assert [(stage["status"], stage["detail"]) for stage in record["stages"]] == [("skipped", None)] * 4
        assert record["rmse"] == first.rmse

    def test_sanitized_failure_names_the_primitive_and_writes_no_record(self, tmp_path, monkeypatch):
        from repro import backends
        from repro.sanitize import SanitizerError

        plain = backends.active()
        affine = plain.affine_forward
        monkeypatch.setattr(plain, "affine_forward", lambda *args: np.full_like(affine(*args), np.nan))
        config = ExperimentConfig(**{**TINY, "predictors": ("LSTM",)})
        with runtime.use(sanitize="1"), pytest.raises(SanitizerError, match=r"sanitize\[numpy\.affine_forward\]"):
            run_experiment(config, out_dir=tmp_path / "run")
        # the error says what tripped; a run that raises leaves no record
        assert not (tmp_path / "run" / "run.json").exists()

    def test_record_carries_each_fit(self, tiny_run):
        _, run_dir, result = tiny_run
        record = obs.read_record(run_dir)
        assert [stage["stage"] for stage in record["stages"]] == [s.name for s in DEFAULT_STAGES]
        (train,) = [stage["detail"] for stage in record["stages"] if stage["stage"] == "train"]
        assert set(train) == set(result.rmse)
        assert all(fit["fit_s"] > 0.0 for fit in train.values())
        prism = train["Prism5G"]
        assert 0 <= prism["best_epoch"] < prism["epochs_run"]
        assert np.isfinite(prism["best_val_loss"])
