"""repro.runtime — the sanitize switch and the canonical hash recipe.

One process-wide value lives here: ``sanitize`` (``"0"``/``"1"``;
``REPRO_SANITIZE`` env preset / ``repro5g --sanitize``) arms the
numeric sanitizer: every backend primitive is wrapped with NaN/Inf
guards and forward/backward integrity checks (see :mod:`repro.sanitize`).

It does not change a result, so it feeds no cache key or experiment
hash; run manifests stamp it in one canonical spelling
(:func:`repro.obs.manifest.kernel_paths`).  Changing it swaps the
object :func:`repro.backends.active` returns, so hot paths read one
module global and never call back in here.

The same module owns the repo's one canonical content-hash helper,
:func:`canonical_hash` (sorted-key compact JSON → SHA-256), used by the
trace cache, the obs manifests, and the experiment pipeline — so one
hash identifies a run everywhere — and the resume contract of every
file artifact (pipeline stages, campaign shards, checkpoints): it is
written whole by :func:`write_atomic`, and it counts as done when
:func:`read_artifact` loads it.

Typical use::

    from repro import runtime

    runtime.configure(sanitize="1")          # arm the sanitizer
    with runtime.use(sanitize="1"):          # pin it for a block
        ...
    runtime.flags()                          # {'sanitize': '0'}
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import zipfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Dict, Iterator, Mapping, Optional, TypeVar, Union

from . import obs

T = TypeVar("T")

#: accepted spellings for the ``sanitize`` switch, canonicalized to "0"/"1".
_SANITIZE_SPELLINGS = {
    "0": "0",
    "false": "0",
    "off": "0",
    "no": "0",
    "1": "1",
    "true": "1",
    "on": "1",
    "yes": "1",
}


def _canonical_sanitize(raw: object) -> str:
    """Validate and canonicalize a sanitize value to ``"0"``/``"1"``."""
    if raw is True or raw is False:
        return "1" if raw else "0"
    text = str(raw).strip().lower()
    try:
        return _SANITIZE_SPELLINGS[text]
    except KeyError:
        raise ValueError(f"sanitize must be one of 0/1/on/off/true/false, got {raw!r}") from None


#: off by default: hot paths pay no per-primitive guard until armed.
_sanitize = _canonical_sanitize(os.environ.get("REPRO_SANITIZE", "").strip() or "0")


def flags() -> Dict[str, str]:
    """Snapshot of the process-wide switches: ``{"sanitize": "0"|"1"}``."""
    return {"sanitize": _sanitize}


def configure(sanitize: object = None) -> Dict[str, str]:
    """Set the sanitize switch; returns the *previous* :func:`flags` snapshot.

    ``None`` is ignored so callers can pass optional CLI args
    straight through::

        previous = runtime.configure(sanitize="1")
        ...
        runtime.configure(**previous)   # restore
    """
    global _sanitize
    previous = flags()
    if sanitize is not None:
        _sanitize = _canonical_sanitize(sanitize)
        # lazy: repro.backends imports this module (and arms at import)
        from . import backends

        backends._arm_sanitizer(_sanitize == "1")
    return previous


@contextmanager
def use(sanitize: object = None) -> Iterator[None]:
    """Pin the sanitize switch for a block, restoring it on exit."""
    previous = configure(sanitize=sanitize)
    try:
        yield
    finally:
        configure(**previous)


# ---------------------------------------------------------------------------
# canonical content hashing


def canonical_hash(payload: Mapping, schema: Optional[str] = None, length: int = 16) -> str:
    """Stable content hash of a JSON-serializable configuration.

    The payload is canonicalized (sorted keys, compact separators,
    ``default=str`` for exotic values) and hashed with SHA-256; an
    optional ``schema`` string is folded in so semantic changes to the
    producing code can invalidate old hashes.  This is the *only*
    hashing recipe in the repo — the trace cache, the obs manifests and
    the experiment pipeline all delegate here, so equal configurations
    hash equally everywhere.
    """
    data = dict(payload)
    if schema is not None:
        data = {"__schema__": schema, **data}
    canonical = json.dumps(data, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:length]


# ---------------------------------------------------------------------------
# resumable artifacts: written whole, done once they load


def write_atomic(path: Union[str, Path], data: Union[str, bytes, Callable[[BinaryIO], object]]) -> Path:
    """Write ``path`` whole or not at all: a sibling temp file, then ``os.replace``.

    ``data`` is text (UTF-8), bytes, or a callable writing to the open
    binary handle (``np.savez``).  A kill mid-write leaves at most a
    ``.tmp-<pid>`` sibling, which nothing reads.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.tmp-{os.getpid()}")
    try:
        with tmp.open("wb") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def read_artifact(path: Union[str, Path], load: Callable[[Path], T], **where: str) -> Optional[T]:
    """``load(path)``, or ``None`` when the artifact is absent or does not load.

    One that exists but does not load (a truncated archive, JSON or
    pickle, or one missing a field) is reported as an
    ``artifact.unreadable`` warning naming ``where`` (``stage=`` or
    ``shard=``) and the path, and the caller recomputes it.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        return load(path)
    except (OSError, EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile, pickle.UnpicklingError) as exc:
        obs.log_warning("artifact.unreadable", **where, path=str(path), error=f"{type(exc).__name__}: {exc}")
        return None
