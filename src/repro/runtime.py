"""repro.runtime — process-wide value flags and the canonical hash recipe.

One string-valued flag lives here: ``sanitize`` (``"0"``/``"1"``;
``REPRO_SANITIZE`` env preset / ``repro5g --sanitize``) arms the
numeric sanitizer: every backend primitive is wrapped with NaN/Inf
guards and forward/backward integrity checks (see :mod:`repro.sanitize`).

It does not change a result, so it feeds no cache key or experiment
hash; it is stamped into run manifests
(:func:`repro.obs.manifest.kernel_paths`).  Values are stored in one
canonical string spelling so manifests stay stable.  Subsystems that
read a flag in a hot loop register a *mirror* — a plain module global
kept in sync by :func:`set_flag` — instead of calling back in here.

The same module owns the repo's one canonical content-hash helper,
:func:`canonical_hash` (sorted-key compact JSON → SHA-256), used by the
trace cache, the obs manifests, and the experiment pipeline — so one
hash identifies a run everywhere.

Typical use::

    from repro import runtime

    runtime.configure(sanitize="1")          # set a flag
    with runtime.use(sanitize="1"):          # pin for a block
        ...
    runtime.flags()                          # {'sanitize': '0'}
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Callable, Dict, List, Mapping, Optional, Tuple


#: accepted spellings for the ``sanitize`` flag, canonicalized to "0"/"1".
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
    """Validate and canonicalize a sanitize flag value to ``"0"``/``"1"``."""
    if raw is True or raw is False:
        return "1" if raw else "0"
    text = str(raw).strip().lower()
    try:
        return _SANITIZE_SPELLINGS[text]
    except KeyError:
        raise ValueError(f"sanitize must be one of 0/1/on/off/true/false, got {raw!r}") from None


#: flag name -> (env preset, default, canonicalizer), in sorted order.
#: The default is off: hot paths pay no per-primitive guard until the
#: sanitizer is armed.
_SPECS: Dict[str, Tuple[str, str, Callable[[object], str]]] = {
    "sanitize": ("REPRO_SANITIZE", "0", _canonical_sanitize),
}

_FLAGS: Dict[str, str] = {
    name: canonical(os.environ.get(env, "").strip() or default)
    for name, (env, default, canonical) in _SPECS.items()
}
_MIRRORS: Dict[str, List[Callable[[object], None]]] = {name: [] for name in _SPECS}


def _check_name(name: str) -> None:
    if name not in _FLAGS:
        raise ValueError(f"unknown runtime flag {name!r}; known flags: {list(_SPECS)}")


def flag(name: str) -> str:
    """Current canonical value of one flag."""
    _check_name(name)
    return _FLAGS[name]


def flags() -> Dict[str, str]:
    """Snapshot of every flag (insertion order = sorted names)."""
    return dict(_FLAGS)


def register_mirror(name: str, setter: Callable[[object], None]) -> str:
    """Register a write-through mirror for ``name``; returns the current value.

    Subsystem modules call this at import time with a setter that
    updates their module-level global — hot loops keep reading a plain
    global (no function call, no dict lookup) while this module stays
    authoritative.
    """
    _check_name(name)
    _MIRRORS[name].append(setter)
    setter(_FLAGS[name])
    return _FLAGS[name]


def set_flag(name: str, value: object) -> str:
    """Set one flag (and push it to every mirror); returns the previous value."""
    _check_name(name)
    previous = _FLAGS[name]
    canonical = _SPECS[name][2](value)
    _FLAGS[name] = canonical
    for setter in _MIRRORS[name]:
        setter(canonical)
    return previous


def configure(**flag_values: object) -> Dict[str, str]:
    """Set any subset of flags by keyword; returns the *previous* snapshot.

    ``None`` values are ignored so callers can pass optional CLI args
    straight through::

        previous = runtime.configure(sanitize="1")
        ...
        runtime.configure(**previous)   # restore
    """
    for name in flag_values:
        _check_name(name)
    previous = flags()
    for name, value in flag_values.items():
        if value is not None:
            set_flag(name, value)
    return previous


class use:
    """Context manager pinning any subset of flags, restoring on exit.

    ::

        with runtime.use(sanitize="1"):
            ...  # every backend primitive guarded
    """

    def __init__(self, **flag_values: object) -> None:
        for name in flag_values:
            _check_name(name)
        self.flag_values = flag_values
        self._previous: Optional[Dict[str, str]] = None

    def __enter__(self) -> "use":
        self._previous = configure(**self.flag_values)
        return self

    def __exit__(self, *exc: object) -> None:
        if self._previous is not None:
            configure(**self._previous)


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
