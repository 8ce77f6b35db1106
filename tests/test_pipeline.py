"""Experiment pipeline: typed config, hashing, stage skip/resume."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import obs, runtime
from repro.core.predictors import (
    TABLE4_LINEUP,
    LSTMPredictor,
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
            ("source", "pcap"),
        ],
    )
    def test_invalid_enums_rejected(self, field, value):
        with pytest.raises(ValueError):
            ExperimentConfig(**{field: value})

    def test_empty_predictors_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ExperimentConfig(predictors=())

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
    return config, run_dir, result


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

    def test_stage_markers_carry_hash(self, tiny_run):
        config, run_dir, _ = tiny_run
        for stage in DEFAULT_STAGES:
            marker = json.loads((run_dir / "stages" / f"{stage.name}.json").read_text())
            assert marker["experiment_hash"] == config.hash()

    def test_second_run_all_skipped_same_rmse(self, tiny_run):
        config, run_dir, first = tiny_run
        second = run_experiment(config, out_dir=run_dir)
        assert second.all_skipped
        assert second.rmse == first.rmse

    def test_force_reruns_everything(self, tiny_run):
        config, run_dir, first = tiny_run
        forced = run_experiment(config, out_dir=run_dir, force=True)
        assert all(s.status == "completed" for s in forced.stages)
        assert forced.rmse == pytest.approx(first.rmse)

    def test_resume_after_kill_between_stages(self, tiny_run):
        config, run_dir, first = tiny_run
        (run_dir / "stages" / "evaluate.json").unlink()
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
        for name in ("train", "evaluate"):
            (run_dir / "stages" / f"{name}.json").unlink()
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

    def test_runtime_flags_restored_after_run(self, tmp_path):
        config = ExperimentConfig(**{**TINY, "predictors": ("Prophet",)})
        with runtime.use(sanitize="1", obs_sample_hz=0):
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
