"""repro.sanitize: the runtime numeric sanitizer for backend primitives.

Covers the resolution seam (flag flip wraps and unwraps the active
backend without changing its ``name``), the three guard families
(non-finite forward output, non-finite incoming grad, backward
shape/dtype mismatch against the bound forward input) each naming the
offending primitive, the obs counters a sanitized run publishes, and a
clean end-to-end training run under ``sanitize=1``.
"""

import numpy as np
import pytest

from repro import backends, obs, runtime, sanitize
from repro.backends import numpy_backend
from repro.nn.modules import LSTM, Linear, Module
from repro.nn.training import Trainer
from repro.sanitize import SanitizedBackend, SanitizerError, wrap_backend


@pytest.fixture(autouse=True)
def restore_flags():
    before = runtime.flags()
    yield
    runtime.configure(**before)


# ---------------------------------------------------------------------------
# the resolution seam


class TestSeam:
    def test_flag_flip_wraps_and_unwraps(self):
        assert not backends.sanitize_active()
        assert not isinstance(backends.active(), SanitizedBackend)
        with runtime.use(sanitize="1"):
            assert backends.sanitize_active()
            be = backends.active()
            assert isinstance(be, SanitizedBackend)
            # manifests must stamp the real compute backend
            assert be.name == "numpy"
        assert not isinstance(backends.active(), SanitizedBackend)

    def test_env_spellings_canonicalized(self):
        with runtime.use(sanitize="on"):
            assert runtime.flags() == {"sanitize": "1"}
            assert backends.sanitize_active()
        with runtime.use(sanitize="off"):
            assert runtime.flags() == {"sanitize": "0"}
            assert not backends.sanitize_active()
        with pytest.raises(ValueError):
            runtime.configure(sanitize="maybe")


# ---------------------------------------------------------------------------
# guards


class TestGuards:
    def test_clean_forward_passes_through(self):
        with runtime.use(sanitize="1"):
            be = backends.active()
            x = np.ones((3, 4))
            w = np.ones((4, 2))
            out = be.affine_forward(x, w, None, None, None)
        assert np.array_equal(out, numpy_backend.affine_forward(x, w, None, None, None))

    def test_nan_output_trips_naming_the_primitive(self):
        with runtime.use(sanitize="1"):
            be = backends.active()
            x = np.ones((3, 4))
            x[1, 2] = np.nan
            w = np.ones((4, 2))
            with pytest.raises(SanitizerError) as excinfo:
                be.affine_forward(x, w, None, None, None)
        assert excinfo.value.primitive == "affine_forward"
        assert excinfo.value.backend == "numpy"
        assert "sanitize[numpy.affine_forward]" in str(excinfo.value)

    def test_nan_grad_seed_trips_on_backward_entry(self):
        with runtime.use(sanitize="1"):
            be = backends.active()
            g = np.ones((3, 2))
            g[0, 0] = np.inf
            x = np.ones((3, 4))
            w = np.ones((4, 2))
            with pytest.raises(SanitizerError) as excinfo:
                be.affine_backward(g, x, w, None, None, {"x": True})
        assert excinfo.value.primitive == "affine_backward"
        assert "incoming grad 'g'" in str(excinfo.value)

    def test_backward_dtype_mismatch_trips(self):
        class _Broken:
            name = "broken"

            @staticmethod
            def affine_backward(g, x, weight, h, weight_h, needs):
                # silently downcast the gradient: shape right, dtype wrong
                return {"x": np.zeros(x.shape, dtype=np.float32)}

        be = wrap_backend(_Broken(), ("affine_backward",))
        g = np.ones((3, 2))
        x = np.ones((3, 4))
        w = np.ones((4, 2))
        with pytest.raises(SanitizerError) as excinfo:
            be.affine_backward(g, x, w, None, None, {"x": True})
        assert excinfo.value.primitive == "affine_backward"
        assert "float32" in str(excinfo.value) and "float64" in str(excinfo.value)

    def test_backward_shape_mismatch_trips(self):
        class _Broken:
            name = "broken"

            @staticmethod
            def affine_backward(g, x, weight, h, weight_h, needs):
                return {"x": np.zeros((1, 1))}

        be = wrap_backend(_Broken(), ("affine_backward",))
        with pytest.raises(SanitizerError, match="backward"):
            be.affine_backward(np.ones((3, 2)), np.ones((3, 4)), np.ones((4, 2)), None, None, {})

    def test_nan_in_backward_result_names_the_grad(self):
        class _Broken:
            name = "broken"

            @staticmethod
            def affine_backward(g, x, weight, h, weight_h, needs):
                bad = np.zeros(x.shape)
                bad[0, 0] = np.nan
                return {"x": bad}

        be = wrap_backend(_Broken(), ("affine_backward",))
        with pytest.raises(SanitizerError, match="grad 'x'"):
            be.affine_backward(np.ones((3, 2)), np.ones((3, 4)), np.ones((4, 2)), None, None, {})

    def test_integer_arrays_are_exempt(self):
        # non-floating dtypes (e.g. argmax index outputs) never trip
        class _IndexOut:
            name = "idx"

            @staticmethod
            def affine_forward(x, weight, h, weight_h, bias):
                return np.array([1, 2, 3], dtype=np.int64)

        be = wrap_backend(_IndexOut(), ("affine_forward",))
        assert be.affine_forward(None, None, None, None, None).dtype == np.int64


# ---------------------------------------------------------------------------
# obs counters + end-to-end


class _TinyModel(Module):
    def __init__(self):
        super().__init__()
        self.rnn = LSTM(4, 6)
        self.head = Linear(6, 1)

    def forward(self, x):
        out, _ = self.rnn(x)
        return self.head(out[:, -1, :])


class TestEndToEnd:
    def test_sanitized_training_runs_clean_and_counts_checks(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path / "obs")
        try:
            obs.reset()
            rng = np.random.default_rng(0)
            x = rng.normal(size=(32, 8, 4))
            y = rng.normal(size=(32, 1))
            with runtime.use(sanitize="1"):
                Trainer(_TinyModel(), max_epochs=2, batch_size=16, seed=0).fit(x, y)
            counters = obs.snapshot()["counters"]
            assert counters.get("sanitize.checks", 0) > 0
            assert not any(k.startswith("sanitize.violation") for k in counters)
        finally:
            obs.configure(mode=obs.MODE_OFF)

    def test_violation_publishes_counter_before_raising(self, tmp_path):
        obs.configure(mode=obs.MODE_METRICS, directory=tmp_path / "obs")
        try:
            obs.reset()
            with runtime.use(sanitize="1"):
                be = backends.active()
                x = np.full((2, 3), np.nan)
                with pytest.raises(SanitizerError):
                    be.affine_forward(x, np.ones((3, 2)), None, None, None)
            counters = obs.snapshot()["counters"]
            assert counters.get("sanitize.violation.nonfinite", 0) >= 1
        finally:
            obs.configure(mode=obs.MODE_OFF)

    def test_bit_identical_results_with_and_without_sanitizer(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(24, 8, 4))
        y = rng.normal(size=(24, 1))
        plain = Trainer(_TinyModel(), max_epochs=2, batch_size=8, seed=0).fit(x, y)
        with runtime.use(sanitize="1"):
            guarded = Trainer(_TinyModel(), max_epochs=2, batch_size=8, seed=0).fit(x, y)
        assert plain.train_loss == guarded.train_loss

    def test_sanitizer_error_is_importable_from_sanitize(self):
        assert sanitize.SanitizerError is SanitizerError
