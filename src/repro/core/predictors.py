"""Uniform fit/predict API over every throughput predictor in the paper.

Baselines (§6.1): Prophet (statistics-only), LSTM [28], TCN [9],
Lumos5G's Seq2Seq [32], GBDT [32] and RF [4]; plus Prism5G itself and
its ablations.  Every predictor consumes a
:class:`~repro.data.windowing.WindowedDataset` (normalized) and emits
``(n, horizon)`` forecasts, so Table 4 / Table 13 / Table 14 all run
through one evaluation loop.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Dict, List, Optional

import numpy as np

from ..data.windowing import WindowedDataset, flatten_for_trees
from ..forecast.prophet import StructuralProphet
from ..nn.losses import rmse
from ..nn.modules import Linear, LSTM, LSTMCell, Module, TCN
from ..nn.serialization import load_state, read_checkpoint_metadata, save_state
from ..nn.tensor import Tensor, lstm_decoder_seq
from ..nn.training import Trainer
from ..trees.boosting import GradientBoostingRegressor
from ..trees.forest import RandomForestRegressor
from .prism5g import Prism5G, pack_inputs


class Predictor:
    """Base predictor: fit on windows, predict (n, horizon)."""

    name = "base"
    #: True for predictors whose constructor takes a :class:`DeepConfig`
    #: (the registry passes the shared config through to those).
    requires_config = False

    def fit(self, train: WindowedDataset, val: Optional[WindowedDataset] = None) -> "Predictor":
        raise NotImplementedError

    def predict(self, dataset: WindowedDataset) -> np.ndarray:
        raise NotImplementedError

    def evaluate(self, dataset: WindowedDataset) -> float:
        """RMSE over the full horizon (the paper's metric)."""
        return rmse(self.predict(dataset), dataset.y)


# ----------------------------------------------------------------------
# Registry: one table mapping names to predictor factories
# ----------------------------------------------------------------------
#: factory signature: ``factory(config) -> Predictor`` (``config`` is a
#: :class:`DeepConfig`, ignored by the non-deep predictors).
PredictorFactory = Callable[[Optional["DeepConfig"]], "Predictor"]

_PREDICTOR_FACTORIES: Dict[str, PredictorFactory] = {}


def register_predictor(name: str, factory: Optional[PredictorFactory] = None):
    """Register a predictor under ``name``; usable as a decorator.

    Decorating a :class:`Predictor` subclass registers a factory that
    instantiates it (passing the :class:`DeepConfig` through when the
    class is a deep predictor); decorating a plain callable registers it
    as-is.  Everything that resolves predictor names — Table 4's
    ``make_default_predictors``, the CLI ``--predictors`` flag, the
    experiment pipeline, and the ablation line-up — reads this one
    table.

    ::

        @register_predictor("LSTM")
        class LSTMPredictor(_DeepPredictor): ...

        @register_predictor("Prism5G (no fusion)")
        def _no_fusion(config=None):
            return Prism5GPredictor(config, use_fusion=False)
    """
    if name in _PREDICTOR_FACTORIES:
        raise ValueError(f"predictor {name!r} is already registered")

    def decorate(obj):
        if isinstance(obj, type) and issubclass(obj, Predictor):
            if getattr(obj, "requires_config", False):
                _PREDICTOR_FACTORIES[name] = lambda config=None, cls=obj: cls(config)
            else:
                _PREDICTOR_FACTORIES[name] = lambda config=None, cls=obj: cls()
        else:
            _PREDICTOR_FACTORIES[name] = obj
        return obj

    if factory is not None:
        return decorate(factory)
    return decorate


def registered_predictors() -> List[str]:
    """Sorted names of every registered predictor (incl. ablations)."""
    return sorted(_PREDICTOR_FACTORIES)


def create_predictor(name: str, config: Optional["DeepConfig"] = None) -> "Predictor":
    """Instantiate a registered predictor by name.

    Raises ``ValueError`` naming the registered predictors when the
    name is unknown — never a bare ``KeyError``.
    """
    try:
        factory = _PREDICTOR_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown predictor {name!r}; registered predictors: {registered_predictors()}"
        ) from None
    return factory(config)


# ----------------------------------------------------------------------
# Statistics-only: Prophet
# ----------------------------------------------------------------------
@register_predictor("Prophet")
class ProphetPredictor(Predictor):
    """Refit a structural model on each window's history (rolling refit).

    This mirrors the paper's cross-validation protocol for Prophet: the
    model sees only the throughput history, no radio features.
    """

    name = "Prophet"

    def __init__(self, n_changepoints: int = 3, alpha: float = 0.5) -> None:
        self.n_changepoints = n_changepoints
        self.alpha = alpha

    def fit(self, train: WindowedDataset, val: Optional[WindowedDataset] = None) -> "ProphetPredictor":
        return self  # refit per window at prediction time

    def predict(self, dataset: WindowedDataset) -> np.ndarray:
        horizon = dataset.horizon
        out = np.empty((len(dataset), horizon))
        for i, history in enumerate(dataset.y_hist):
            model = StructuralProphet(n_changepoints=self.n_changepoints, alpha=self.alpha)
            out[i] = model.fit(history).predict(horizon)
        return out


# ----------------------------------------------------------------------
# Deep baselines (CA-blind: flattened features)
# ----------------------------------------------------------------------
class _SeqRegressor(Module):
    """LSTM encoder -> linear head on the last hidden state."""

    def __init__(self, in_size: int, hidden: int, horizon: int, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.rnn = LSTM(in_size, hidden, num_layers=2, rng=rng)
        self.head = Linear(hidden, horizon, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        out, _ = self.rnn(x)
        return self.head(out[:, -1, :])


class _TCNRegressor(Module):
    """TCN stack -> linear head on the last time step."""

    def __init__(self, in_size: int, hidden: int, horizon: int, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.tcn = TCN(in_size, [hidden, hidden], kernel_size=3, rng=rng)
        self.head = Linear(hidden, horizon, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        return self.head(self.tcn(x)[:, -1, :])


class _Seq2Seq(Module):
    """Lumos5G-style encoder/decoder (Seq2Seq) regressor.

    The encoder LSTM summarizes the history; the decoder LSTM cell
    rolls forward ``horizon`` steps feeding back its own prediction.
    """

    def __init__(self, in_size: int, hidden: int, horizon: int, seed: int = 0) -> None:
        super().__init__()
        rng = np.random.default_rng(seed)
        self.horizon = horizon
        self.encoder = LSTM(in_size, hidden, num_layers=1, rng=rng)
        self.decoder_cell = LSTMCell(1, hidden, rng=rng)
        self.head = Linear(hidden, 1, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        _, state = self.encoder(x)
        h, c = state[0]
        data = x.data if isinstance(x, Tensor) else np.asarray(x)
        step_input = Tensor(data[:, -1, -1:])  # last observed throughput
        # whole rollout as one graph node (hand-written BPTT)
        preds = lstm_decoder_seq(
            step_input,
            h,
            c,
            self.decoder_cell.weight_ih,
            self.decoder_cell.weight_hh,
            self.decoder_cell.bias,
            self.head.weight,
            self.head.bias,
            self.horizon,
        )
        return preds.reshape(data.shape[0], self.horizon)


@dataclass
class DeepConfig:
    """Shared hyperparameters for the deep predictors."""

    hidden: int = 32
    lr: float = 0.01
    batch_size: int = 128
    max_epochs: int = 60
    patience: int = 10
    seed: int = 0


class _DeepPredictor(Predictor):
    """Common packing + Trainer plumbing for all deep models.

    ``tput_history_only`` reproduces the published input contract of the
    LSTM [28] and TCN [9] baselines, which forecast from the bandwidth
    time series alone; the feature-based baselines (Lumos5G, trees) and
    Prism5G consume the full Table 3 feature set.
    """

    tput_history_only = False
    requires_config = True

    def __init__(self, config: Optional[DeepConfig] = None) -> None:
        self.config = config or DeepConfig()
        self.trainer: Optional[Trainer] = None
        self._build_args: Optional[Dict[str, int]] = None

    def _packed(self, dataset: WindowedDataset) -> np.ndarray:
        if self.tput_history_only:
            return dataset.y_hist[..., None]
        return pack_inputs(dataset.x, dataset.mask, dataset.y_hist)

    def _build(self, in_size: int, n_ccs: int, n_features: int, horizon: int) -> Module:
        raise NotImplementedError

    def _prepare(self, train: WindowedDataset) -> "tuple[np.ndarray, Module]":
        """Pack the inputs and build the model, recording the build shape.

        The recorded shape is what makes checkpoints self-describing:
        :meth:`load_checkpoint` rebuilds an identical architecture from
        the stored args without needing the training data.
        """
        x_train = self._packed(train)
        self._build_args = {
            "in_size": int(x_train.shape[2]),
            "n_ccs": int(train.n_ccs),
            "n_features": int(train.x.shape[3]),
            "horizon": int(train.horizon),
        }
        return x_train, self._build(**self._build_args)

    def fit(self, train: WindowedDataset, val: Optional[WindowedDataset] = None) -> "_DeepPredictor":
        x_train, model = self._prepare(train)
        self.trainer = Trainer(
            model,
            lr=self.config.lr,
            batch_size=self.config.batch_size,
            max_epochs=self.config.max_epochs,
            patience=self.config.patience,
            seed=self.config.seed,
        )
        x_val = self._packed(val) if val is not None and len(val) else None
        y_val = val.y if val is not None and len(val) else None
        self.trainer.fit(x_train, train.y, x_val, y_val)
        return self

    def predict(self, dataset: WindowedDataset) -> np.ndarray:
        if self.trainer is None:
            raise RuntimeError("predictor has not been fitted")
        return self.trainer.predict(self._packed(dataset))

    # ------------------------------------------------------------------
    # checkpointing
    def save_checkpoint(self, path) -> None:
        """Persist the fitted model with a self-describing metadata header.

        The header records the predictor name, the build shape, and the
        :class:`DeepConfig`, so :meth:`load_checkpoint` can rebuild the
        exact architecture and fail with a clear error on mismatch.
        """
        if self.trainer is None or self._build_args is None:
            raise RuntimeError("predictor has not been fitted")
        save_state(
            self.trainer.model,
            path,
            metadata={
                "predictor": self.name,
                "build": self._build_args,
                "deep_config": asdict(self.config),
            },
        )

    def load_checkpoint(self, path) -> "_DeepPredictor":
        """Restore a checkpoint written by :meth:`save_checkpoint`.

        Rebuilds the architecture from the stored build args and this
        predictor's :class:`DeepConfig`, then loads the weights.  A
        checkpoint from a different predictor, or weights whose shapes
        disagree with the rebuilt architecture (e.g. a different
        ``hidden`` size), raises ``ValueError`` with the offending
        names/shapes instead of crashing mid-forward.
        """
        meta = read_checkpoint_metadata(path)
        if meta is None or "build" not in meta.get("metadata", {}):
            raise ValueError(
                f"{path}: not a predictor checkpoint (no metadata header); "
                "re-save with Predictor.save_checkpoint"
            )
        saved_for = meta["metadata"].get("predictor")
        if saved_for != self.name:
            raise ValueError(
                f"{path}: checkpoint was saved by predictor {saved_for!r}, "
                f"cannot load into {self.name!r}"
            )
        self._build_args = {k: int(v) for k, v in meta["metadata"]["build"].items()}
        model = self._build(**self._build_args)
        load_state(model, path)
        self.trainer = Trainer(
            model,
            lr=self.config.lr,
            batch_size=self.config.batch_size,
            max_epochs=self.config.max_epochs,
            patience=self.config.patience,
            seed=self.config.seed,
        )
        return self


@register_predictor("LSTM")
class LSTMPredictor(_DeepPredictor):
    """Bandwidth-history LSTM (Mei et al. [28]): time series in, no radio features."""

    name = "LSTM"
    tput_history_only = True

    def _build(self, in_size: int, n_ccs: int, n_features: int, horizon: int) -> Module:
        return _SeqRegressor(in_size, self.config.hidden, horizon, seed=self.config.seed)


@register_predictor("TCN")
class TCNPredictor(_DeepPredictor):
    """Temporal convolutional forecaster (Chen et al. [9]): time series only."""

    name = "TCN"
    tput_history_only = True

    def _build(self, in_size: int, n_ccs: int, n_features: int, horizon: int) -> Module:
        return _TCNRegressor(in_size, self.config.hidden, horizon, seed=self.config.seed)


@register_predictor("Lumos5G")
class Lumos5GPredictor(_DeepPredictor):
    """Lumos5G's Seq2Seq architecture [32] on UE-side features."""

    name = "Lumos5G"

    def _build(self, in_size: int, n_ccs: int, n_features: int, horizon: int) -> Module:
        return _Seq2Seq(in_size, self.config.hidden, horizon, seed=self.config.seed)


@register_predictor("Prism5G")
class Prism5GPredictor(_DeepPredictor):
    """The paper's CA-aware model (optionally ablated).

    Trains with joint supervision: MSE on the aggregate forecast plus
    ``cc_loss_weight`` x MSE on the per-carrier forecasts (their sum is
    the aggregate, paper §5.2).  Per-CC targets come from
    ``WindowedDataset.y_cc`` when available.
    """

    name = "Prism5G"

    def __init__(
        self,
        config: Optional[DeepConfig] = None,
        use_state_trigger: bool = True,
        use_fusion: bool = True,
        rnn: str = "lstm",
        cc_loss_weight: float = 0.5,
        lr_scale: float = 0.3,
        head: str = "decoder",
    ) -> None:
        super().__init__(config)
        self.use_state_trigger = use_state_trigger
        self.use_fusion = use_fusion
        self.rnn = rnn
        self.head = head
        self.cc_loss_weight = cc_loss_weight
        # the shared encoder accumulates gradients from C carrier replicas,
        # so its effective step size is ~C-fold larger; scale the lr down.
        self.lr_scale = lr_scale
        if not use_state_trigger and use_fusion:
            self.name = "Prism5G (no state)"
        elif use_state_trigger and not use_fusion:
            self.name = "Prism5G (no fusion)"
        self.model: Optional[Prism5G] = None

    def _build(self, in_size: int, n_ccs: int, n_features: int, horizon: int) -> Module:
        self.model = Prism5G(
            n_ccs=n_ccs,
            n_features=n_features,
            horizon=horizon,
            hidden=self.config.hidden,
            rnn=self.rnn,
            use_state_trigger=self.use_state_trigger,
            use_fusion=self.use_fusion,
            head=self.head,
            seed=self.config.seed,
        )
        return self.model

    def _packed_targets(self, dataset: WindowedDataset) -> np.ndarray:
        """Aggregate targets followed by per-CC targets (flattened)."""
        horizon = dataset.horizon
        if dataset.y_cc is None:
            return dataset.y
        per_cc = dataset.y_cc.reshape(len(dataset), horizon * dataset.n_ccs)
        return np.concatenate([dataset.y, per_cc], axis=1)

    def fit(self, train: WindowedDataset, val: Optional[WindowedDataset] = None) -> "Prism5GPredictor":
        x_train, model = self._prepare(train)
        horizon = train.horizon
        has_cc = train.y_cc is not None
        weight = self.cc_loss_weight

        def loss_fn(pred: Tensor, target: Tensor) -> Tensor:
            agg = pred[:, :horizon] - target[:, :horizon]
            loss = (agg * agg).mean()
            if has_cc:
                cc = pred[:, horizon:] - target[:, horizon:]
                loss = loss + weight * (cc * cc).mean()
            return loss

        self.trainer = Trainer(
            model,
            lr=self.config.lr * self.lr_scale,
            batch_size=self.config.batch_size,
            max_epochs=self.config.max_epochs,
            patience=self.config.patience,
            seed=self.config.seed,
            loss_fn=loss_fn,
        )
        x_val = self._packed(val) if val is not None and len(val) else None
        y_val = self._packed_targets(val) if val is not None and len(val) else None
        self.trainer.fit(x_train, self._packed_targets(train), x_val, y_val)
        return self

    def predict(self, dataset: WindowedDataset) -> np.ndarray:
        if self.trainer is None:
            raise RuntimeError("predictor has not been fitted")
        return self.trainer.predict(self._packed(dataset))[:, : dataset.horizon]

    def predict_all(self, dataset: WindowedDataset) -> "tuple[np.ndarray, np.ndarray]":
        """``(aggregate, per_cc)`` forecasts from one forward pass.

        Callers that need both (Figs 33-34) should use this instead of
        ``predict`` + ``predict_per_cc``, which runs the network twice.
        """
        if self.model is None:
            raise RuntimeError("predictor has not been fitted")
        return self.model.predict_all(self._packed(dataset))

    def predict_per_cc(self, dataset: WindowedDataset) -> np.ndarray:
        """Per-carrier forecasts (paper Figs 33-34)."""
        if self.model is None:
            raise RuntimeError("predictor has not been fitted")
        return self.model.predict_per_cc(self._packed(dataset))


# ----------------------------------------------------------------------
# Classical ML (Appendix C.1 protocol: flattened history features)
# ----------------------------------------------------------------------
class _TreePredictor(Predictor):
    """One regressor per horizon step over flattened windows."""

    def __init__(self) -> None:
        self.models: List = []

    def _new_model(self, seed: int):
        raise NotImplementedError

    def fit(self, train: WindowedDataset, val: Optional[WindowedDataset] = None) -> "_TreePredictor":
        features = flatten_for_trees(train)
        self.models = []
        for step in range(train.horizon):
            model = self._new_model(seed=step)
            model.fit(features, train.y[:, step])
            self.models.append(model)
        return self

    def predict(self, dataset: WindowedDataset) -> np.ndarray:
        if not self.models:
            raise RuntimeError("predictor has not been fitted")
        features = flatten_for_trees(dataset)
        return np.stack([model.predict(features) for model in self.models], axis=1)


@register_predictor("GBDT")
class GBDTPredictor(_TreePredictor):
    """Gradient-boosted trees (used by Lumos5G [32])."""

    name = "GBDT"

    def __init__(self, n_estimators: int = 60, max_depth: int = 3, learning_rate: float = 0.1) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.learning_rate = learning_rate

    def _new_model(self, seed: int) -> GradientBoostingRegressor:
        return GradientBoostingRegressor(
            n_estimators=self.n_estimators,
            max_depth=self.max_depth,
            learning_rate=self.learning_rate,
            subsample=0.8,
            seed=seed,
        )


@register_predictor("RF")
class RFPredictor(_TreePredictor):
    """Random forest (Alimpertis et al. [4])."""

    name = "RF"

    def __init__(self, n_estimators: int = 30, max_depth: int = 10) -> None:
        super().__init__()
        self.n_estimators = n_estimators
        self.max_depth = max_depth

    def _new_model(self, seed: int) -> RandomForestRegressor:
        return RandomForestRegressor(
            n_estimators=self.n_estimators, max_depth=self.max_depth, seed=seed
        )


# ----------------------------------------------------------------------
# Ablations (Table 13): registered as factories so the pipeline and the
# CLI can name them directly.
# ----------------------------------------------------------------------
@register_predictor("Prism5G (no state)")
def _prism5g_no_state(config: Optional[DeepConfig] = None) -> Prism5GPredictor:
    return Prism5GPredictor(config, use_state_trigger=False)


@register_predictor("Prism5G (no fusion)")
def _prism5g_no_fusion(config: Optional[DeepConfig] = None) -> Prism5GPredictor:
    return Prism5GPredictor(config, use_fusion=False)


#: Table 4's predictor line-up, in column order.
TABLE4_LINEUP: "tuple[str, ...]" = (
    "Prophet",
    "LSTM",
    "TCN",
    "Lumos5G",
    "GBDT",
    "RF",
    "Prism5G",
)
