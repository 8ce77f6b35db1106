"""Experiment pipeline: typed config, hashing, stage skip/resume."""

import json
import logging
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import obs, runtime
from repro.core.predictors import (
    TABLE4_LINEUP,
    LSTMPredictor,
    Prism5GPredictor,
    create_predictor,
    register_predictor,
    registered_predictors,
)
from repro.pipeline import (
    EXPERIMENT_SCHEMA,
    DEFAULT_STAGES,
    ExperimentConfig,
    run_dir_for,
    run_experiment,
)

TINY = dict(
    name="tiny",
    n_traces=2,
    samples_per_trace=60,
    predictors=("Prophet", "Prism5G"),
    deep={"hidden": 8, "max_epochs": 2, "patience": 2},
)


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
        assert config.hash() == "a88b2939356eb307"

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

    def test_run_dir_embeds_name_and_hash(self):
        config = ExperimentConfig(name="My Experiment!")
        path = run_dir_for(config)
        assert path.name == f"my_experiment-{config.hash()}"


class TestRegistry:
    def test_table4_lineup_fully_registered(self):
        assert set(TABLE4_LINEUP) <= set(registered_predictors())

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
        assert summary["experiment_hash"] == config.hash()
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
        assert second.rmse == first.rmse

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
        obs_dir = tmp_path / "obs"
        obs.configure(mode=obs.MODE_METRICS, directory=obs_dir)
        try:
            with runtime.use(sanitize="1"):
                config = ExperimentConfig(**tiny_lstm)
                run_experiment(config, out_dir=tmp_path / "sanitized-run")
            manifest = obs.latest_manifest(obs_dir)
        finally:
            obs.configure(mode=obs.MODE_OFF)
            obs.reset()
        assert config.hash() == unarmed_hash
        assert manifest["kernel_paths"]["sanitize"] == "1"
        assert manifest["metrics"]["counters"]["sanitize.checks"] > 0
        # the shipped example lands in the same run directory either way
        example = Path(__file__).resolve().parent.parent / "examples" / "experiment_small.json"
        with runtime.use(sanitize="1"):
            armed = ExperimentConfig.load(example).hash()
        assert armed == ExperimentConfig.load(example).hash()

    def test_manifests_carry_experiment_hash(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "predictors": ("Prophet",)})
        obs_dir = tmp_path / "obs"
        obs.configure(mode=obs.MODE_METRICS, directory=obs_dir)
        try:
            run_experiment(config, out_dir=tmp_path / "obs-run")
            manifest = obs.latest_manifest(obs_dir)
        finally:
            obs.configure(mode=obs.MODE_OFF)
            obs.reset()
        assert manifest is not None
        assert manifest["experiment_hash"] == config.hash()
