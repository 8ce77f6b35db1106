"""Numpy-based neural network substrate (autograd, modules, training).

Replaces PyTorch, which the paper uses but is unavailable offline.  It
holds one choice per step of the paper's recipe (Appendix C.1): Adam,
an MSE training loss with RMSE for evaluation, and min-max scaling.
All arithmetic is float64.
"""

from .losses import mse_loss, rmse
from .modules import (
    MLP,
    TCN,
    CausalConv1d,
    Embedding,
    GRU,
    GRUCell,
    Linear,
    LSTM,
    LSTMCell,
    Module,
    ReLU,
    Sequential,
    TCNBlock,
)
from .optim import Adam, Optimizer
from .preprocessing import MinMaxScaler
from .serialization import CHECKPOINT_SCHEMA, load_state, read_checkpoint_metadata, save_state
from .tensor import (
    Tensor,
    affine,
    concat,
    gru_seq,
    is_grad_enabled,
    lstm_decoder_seq,
    lstm_seq,
    no_grad,
    numerical_gradient,
    set_grad_enabled,
    stack,
    where,
)
from .training import Trainer, TrainingHistory

__all__ = [
    "Adam",
    "CausalConv1d",
    "Embedding",
    "GRU",
    "GRUCell",
    "Linear",
    "LSTM",
    "LSTMCell",
    "MLP",
    "MinMaxScaler",
    "Module",
    "Optimizer",
    "ReLU",
    "Sequential",
    "TCN",
    "TCNBlock",
    "Tensor",
    "Trainer",
    "TrainingHistory",
    "affine",
    "concat",
    "gru_seq",
    "is_grad_enabled",
    "CHECKPOINT_SCHEMA",
    "load_state",
    "lstm_decoder_seq",
    "lstm_seq",
    "no_grad",
    "set_grad_enabled",
    "mse_loss",
    "numerical_gradient",
    "read_checkpoint_metadata",
    "rmse",
    "save_state",
    "stack",
    "where",
]
