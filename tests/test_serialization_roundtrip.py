"""Checkpoint round-trips: bit-identical restore for every deep predictor."""

import numpy as np
import pytest

from repro.core.predictors import (
    DeepConfig,
    _DeepPredictor,
    create_predictor,
    registered_predictors,
)
from repro.data import SubDatasetSpec, build_subdataset, random_split
from repro.nn import CHECKPOINT_SCHEMA, load_state, read_checkpoint_metadata, save_state
from repro.nn.modules import Linear

FAST = DeepConfig(hidden=8, max_epochs=2, patience=2)

DEEP_NAMES = tuple(
    name
    for name in registered_predictors()
    if isinstance(create_predictor(name, FAST), _DeepPredictor)
)


@pytest.fixture(scope="module")
def splits():
    spec = SubDatasetSpec("OpZ", "driving", "long")
    dataset = build_subdataset(spec, n_traces=2, samples_per_trace=60, seed=1)
    return random_split(dataset.windows, 0.5, 0.2, 0.3, seed=0)


class TestPredictorCheckpoints:
    def test_registry_has_deep_predictors(self):
        assert set(DEEP_NAMES) >= {"LSTM", "TCN", "Lumos5G", "Prism5G"}

    @pytest.mark.parametrize("name", DEEP_NAMES)
    def test_round_trip_bit_identical(self, name, splits, tmp_path):
        train, val, test = splits
        fitted = create_predictor(name, FAST).fit(train, val)
        expected = fitted.predict(test)
        path = tmp_path / "ckpt.npz"
        fitted.save_checkpoint(path)

        # a brand-new instance, never fitted, restores the exact model
        restored = create_predictor(name, FAST).load_checkpoint(path)
        np.testing.assert_array_equal(restored.predict(test), expected)

    def test_prism_per_cc_survives_restore(self, splits, tmp_path):
        train, val, test = splits
        fitted = create_predictor("Prism5G", FAST).fit(train, val)
        path = tmp_path / "prism.npz"
        fitted.save_checkpoint(path)
        restored = create_predictor("Prism5G", FAST).load_checkpoint(path)
        np.testing.assert_array_equal(
            restored.predict_per_cc(test), fitted.predict_per_cc(test)
        )

    def test_unfitted_save_raises(self, tmp_path):
        with pytest.raises(RuntimeError):
            create_predictor("LSTM", FAST).save_checkpoint(tmp_path / "x.npz")

    def test_cross_predictor_load_rejected(self, splits, tmp_path):
        train, val, _ = splits
        path = tmp_path / "lstm.npz"
        create_predictor("LSTM", FAST).fit(train, val).save_checkpoint(path)
        with pytest.raises(ValueError, match="saved by predictor 'LSTM'"):
            create_predictor("TCN", FAST).load_checkpoint(path)

    def test_mismatched_architecture_rejected(self, splits, tmp_path):
        train, val, _ = splits
        path = tmp_path / "small.npz"
        create_predictor("LSTM", FAST).fit(train, val).save_checkpoint(path)
        wider = create_predictor("LSTM", DeepConfig(hidden=16, max_epochs=2))
        with pytest.raises(ValueError, match="shape"):
            wider.load_checkpoint(path)

    def test_headerless_file_rejected_with_clear_error(self, splits, tmp_path):
        train, _, _ = splits
        path = tmp_path / "legacy.npz"
        fitted = create_predictor("LSTM", FAST).fit(train)
        np.savez(path, **fitted.trainer.model.state_dict())  # no header
        with pytest.raises(ValueError, match="no metadata header"):
            create_predictor("LSTM", FAST).load_checkpoint(path)


class TestStateSerialization:
    def test_header_schema_and_shapes(self, tmp_path):
        model = Linear(4, 3)
        path = tmp_path / "linear.npz"
        save_state(model, path, metadata={"note": "hi"})
        meta = read_checkpoint_metadata(path)
        assert meta["schema"] == CHECKPOINT_SCHEMA
        assert meta["metadata"] == {"note": "hi"}
        assert all(
            list(param.data.shape) == meta["shapes"][name]
            for name, param in model.named_parameters()
        )

    def test_legacy_headerless_load_still_works(self, tmp_path):
        model = Linear(4, 3)
        path = tmp_path / "legacy.npz"
        np.savez(path, **model.state_dict())
        assert read_checkpoint_metadata(path) is None
        clone = Linear(4, 3, rng=np.random.default_rng(1))
        load_state(clone, path)
        for (_, a), (_, b) in zip(
            sorted(model.named_parameters()), sorted(clone.named_parameters())
        ):
            np.testing.assert_array_equal(a.data, b.data)

    def test_shape_mismatch_names_offender(self, tmp_path):
        model = Linear(4, 3)
        path = tmp_path / "linear.npz"
        save_state(model, path)
        with pytest.raises(ValueError, match="weight"):
            load_state(Linear(5, 3), path)

    @pytest.mark.parametrize("keep", [0, 64, "half"], ids=["empty", "64-bytes", "half"])
    def test_torn_archive_raises_value_error_naming_it(self, tmp_path, keep):
        model = Linear(4, 3)
        path = tmp_path / "linear.npz"
        save_state(model, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2 if keep == "half" else keep])
        for read in (read_checkpoint_metadata, lambda p: load_state(Linear(4, 3), p)):
            with pytest.raises(ValueError, match="linear.npz: unreadable checkpoint archive"):
                read(path)
