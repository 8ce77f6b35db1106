"""repro — reproduction of "Dissecting Carrier Aggregation in 5G Networks:
Measurement, QoE Implications and Prediction" (ACM SIGCOMM 2024).

Subpackages
-----------
``repro.ran``
    3GPP-grounded 4G/5G RAN + carrier-aggregation simulator that
    synthesizes drive-test traces (the measurement substrate).
``repro.nn``
    Numpy autograd + neural modules (LSTM/GRU/TCN/MLP), Adam, trainer.
``repro.trees`` / ``repro.forecast``
    Classical ML (CART/RF/GBDT); the Prophet substitute and MPC's
    harmonic-mean estimator.
``repro.data``
    Windowing, normalization, and the paper's six ML sub-datasets.
``repro.core``
    Prism5G (the CA-aware predictor), baselines, evaluation harness.
``repro.apps``
    QoE use cases: ViVo volumetric streaming, MPC video ABR.
``repro.analysis``
    Measurement analysis: distributions, correlations, efficiency.
``repro.obs``
    Observability: counters, structured warnings, run records
    (``run.json``) and perf budgets (``REPRO_OBS`` env knob; off by default).
``repro.runtime``
    The ``sanitize`` switch + the repo's one config-hash recipe
    (``runtime.configure(...)`` / ``runtime.use(...)``).
``repro.backends``
    The numpy compute backend behind the fused primitives (the
    sanitizer's wrap seam).
``repro.pipeline``
    Config-driven, resumable experiment pipeline
    (``repro5g run experiment.json``).
"""

from . import analysis, apps, backends, core, data, forecast, nn, obs, pipeline, ran, runtime, trees

__version__ = "1.0.0"

__all__ = [
    "analysis",
    "apps",
    "backends",
    "core",
    "data",
    "forecast",
    "nn",
    "obs",
    "pipeline",
    "ran",
    "runtime",
    "trees",
    "__version__",
]
