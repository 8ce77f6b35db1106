"""Save/load module parameters as ``.npz`` archives.

Checkpoints carry a versioned JSON metadata header (stored as a 0-d
string array under ``__meta__``): the schema version, the producing
module class, every parameter's shape, and arbitrary caller metadata
(the predictor registry stores its name + build args there, making
checkpoints self-describing).  :func:`load_state` validates the header
against the target model *before* touching any weights, so loading a
checkpoint into a mismatched architecture fails with a clear error
naming the offending parameters instead of a shape crash mid-forward.
Header-less archives written by older versions still load.  An archive
that cannot be read at all (torn, empty, not a zip) raises
``ValueError`` naming the file, like a bad header does.
"""

from __future__ import annotations

import json
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Mapping, Optional, Union

import numpy as np

from .. import runtime
from .modules import Module

#: bump when the checkpoint layout changes incompatibly.
CHECKPOINT_SCHEMA = "repro-checkpoint-v1"

#: archive key holding the JSON metadata header.
META_KEY = "__meta__"


def save_state(model: Module, path: Union[str, Path], metadata: Optional[Mapping] = None) -> None:
    """Write ``model.state_dict()`` plus a versioned metadata header (atomically)."""
    state = model.state_dict()
    meta = {
        "schema": CHECKPOINT_SCHEMA,
        "model": type(model).__name__,
        "shapes": {name: list(value.shape) for name, value in state.items()},
        "metadata": dict(metadata) if metadata is not None else {},
    }
    header = {META_KEY: np.array(json.dumps(meta, sort_keys=True))}
    runtime.write_atomic(path, lambda handle: np.savez(handle, **state, **header))


@contextmanager
def _archive(path: Path) -> Iterator:
    """``np.load(path)``, with an unreadable archive raised as a ``ValueError`` naming it."""
    try:
        with np.load(path) as archive:
            yield archive
    except (zipfile.BadZipFile, EOFError, OSError) as exc:
        raise ValueError(f"{path}: unreadable checkpoint archive: {type(exc).__name__}: {exc}") from exc


def read_checkpoint_metadata(path: Union[str, Path]) -> Optional[Dict]:
    """The metadata header of a checkpoint, or ``None`` for legacy files."""
    with _archive(Path(path)) as archive:
        if META_KEY not in archive.files:
            return None
        raw = str(archive[META_KEY][()])
    try:
        meta = json.loads(raw)
    except ValueError as exc:
        raise ValueError(f"{path}: corrupt checkpoint metadata header: {exc}") from exc
    if not isinstance(meta, dict):
        raise ValueError(f"{path}: corrupt checkpoint metadata header (not an object)")
    return meta


def _check_compatible(model: Module, meta: Dict, path: Path) -> None:
    """Raise a descriptive ``ValueError`` unless the header matches ``model``."""
    own = {name: param.data.shape for name, param in model.named_parameters()}
    saved = {name: tuple(shape) for name, shape in (meta.get("shapes") or {}).items()}
    missing = sorted(set(own) - set(saved))
    unexpected = sorted(set(saved) - set(own))
    mismatched = [
        f"{name}: checkpoint {saved[name]} vs model {tuple(own[name])}"
        for name in sorted(set(own) & set(saved))
        if saved[name] != tuple(own[name])
    ]
    if missing or unexpected or mismatched:
        raise ValueError(
            f"{path}: checkpoint does not match {type(model).__name__} "
            f"(saved from {meta.get('model', '?')}): "
            f"missing={missing}, unexpected={unexpected}, shape mismatches={mismatched}"
        )


def load_state(model: Module, path: Union[str, Path]) -> None:
    """Load parameters saved by :func:`save_state` into ``model``.

    When the archive has a metadata header, parameter names and shapes
    are validated against it up front; architecture mismatches raise
    ``ValueError`` with the full list of offenders.
    """
    path = Path(path)
    meta = read_checkpoint_metadata(path)
    if meta is not None:
        _check_compatible(model, meta, path)
    with _archive(path) as archive:
        state = {key: archive[key] for key in archive.files if key != META_KEY}
    model.load_state_dict(state)
