"""Prism5G model, baseline predictors, and the evaluation harness."""

from .evaluation import (
    EvaluationResult,
    evaluate_on_new_traces,
    evaluate_predictors,
    make_default_predictors,
)
from .predictors import (
    DeepConfig,
    GBDTPredictor,
    LSTMPredictor,
    Lumos5GPredictor,
    Predictor,
    Prism5GPredictor,
    ProphetPredictor,
    RFPredictor,
    TABLE4_LINEUP,
    TCNPredictor,
    create_predictor,
    register_predictor,
    registered_predictors,
)
from .prism5g import Prism5G, pack_inputs, unpack_inputs

__all__ = [
    "DeepConfig",
    "EvaluationResult",
    "GBDTPredictor",
    "LSTMPredictor",
    "Lumos5GPredictor",
    "Predictor",
    "Prism5G",
    "Prism5GPredictor",
    "ProphetPredictor",
    "RFPredictor",
    "TABLE4_LINEUP",
    "TCNPredictor",
    "create_predictor",
    "evaluate_on_new_traces",
    "evaluate_predictors",
    "make_default_predictors",
    "register_predictor",
    "registered_predictors",
    "pack_inputs",
    "unpack_inputs",
]
