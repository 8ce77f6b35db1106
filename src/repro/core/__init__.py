"""Prism5G model and the baseline predictors behind one registry."""

from .predictors import (
    DeepConfig,
    GBDTPredictor,
    LSTMPredictor,
    Lumos5GPredictor,
    Predictor,
    Prism5GPredictor,
    ProphetPredictor,
    RFPredictor,
    TCNPredictor,
    create_predictor,
    register_predictor,
    registered_predictors,
)
from .prism5g import Prism5G, pack_inputs, unpack_inputs

__all__ = [
    "DeepConfig",
    "GBDTPredictor",
    "LSTMPredictor",
    "Lumos5GPredictor",
    "Predictor",
    "Prism5G",
    "Prism5GPredictor",
    "ProphetPredictor",
    "RFPredictor",
    "TCNPredictor",
    "create_predictor",
    "register_predictor",
    "registered_predictors",
    "pack_inputs",
    "unpack_inputs",
]
