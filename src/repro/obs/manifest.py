"""Run manifests: the provenance record written at the end of a run.

A manifest captures everything needed to interpret (and re-run) a
training / campaign / evaluation run: the configuration and its content
hash, the runtime flags in effect (the sanitizer), the seed, the git
SHA of the working tree, the process's metrics snapshot, its peak RSS,
and per-epoch history when the run trains a model.  Manifests are plain
JSON files in the observability directory; ``latest.json`` always
mirrors the most recent one so ``repro5g obs report`` and
``repro5g obs check-slo`` have a stable entry point.
"""

from __future__ import annotations

import itertools
import json
import os
import time
from pathlib import Path
from typing import Dict, Mapping, Optional

MANIFEST_SCHEMA = "repro-obs-manifest-v1"
LATEST_NAME = "latest.json"

_manifest_seq = itertools.count()
_git_sha_cache: Dict[str, Optional[str]] = {}


def config_hash(config: Optional[Mapping]) -> Optional[str]:
    """Stable content hash of a run configuration.

    Delegates to :func:`repro.runtime.canonical_hash` — the repo's one
    hashing recipe, shared with the trace cache and the experiment
    pipeline — so equal configurations hash equally everywhere.
    """
    if config is None:
        return None
    from .. import runtime

    return runtime.canonical_hash(config)


def git_sha(start: Optional[Path] = None) -> Optional[str]:
    """Best-effort commit SHA of the enclosing git checkout.

    Reads ``.git/HEAD`` (and ``packed-refs``) directly instead of
    shelling out, walking up from ``start`` (default: cwd).  Returns
    ``None`` outside a checkout.  Cached per start path — the SHA is
    constant for the life of a run, and manifests are written at the
    end of hot paths (``Trainer.fit``) where repeated ``.git`` walks
    would show up in the obs-overhead gate.
    """
    try:
        path = Path(start or os.getcwd()).resolve()
        cache_key = str(path)
        if cache_key in _git_sha_cache:
            return _git_sha_cache[cache_key]
        _git_sha_cache[cache_key] = _read_git_sha(path)
        return _git_sha_cache[cache_key]
    except OSError:
        return None


def _read_git_sha(path: Path) -> Optional[str]:
    try:
        for candidate in (path, *path.parents):
            git = candidate / ".git"
            if not git.is_dir():
                continue
            head = (git / "HEAD").read_text(encoding="utf-8").strip()
            if not head.startswith("ref:"):
                return head or None
            ref = head.split(None, 1)[1]
            ref_path = git / ref
            if ref_path.exists():
                return ref_path.read_text(encoding="utf-8").strip() or None
            packed = git / "packed-refs"
            if packed.exists():
                for line in packed.read_text(encoding="utf-8").splitlines():
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref:
                        return parts[0]
            return None
    except OSError:
        pass
    return None


def kernel_paths() -> Dict[str, str]:
    """The runtime flags currently in effect (``sanitize``).

    Reads :func:`repro.runtime.flags`; imported lazily so
    :mod:`repro.obs` stays import-cycle-free.
    """
    from .. import runtime

    return runtime.flags()


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children (MB)."""
    try:
        import resource

        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self_kb, child_kb) / 1024.0
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX hosts
        return 0.0


def build_manifest(
    kind: str,
    config: Optional[Mapping] = None,
    seed: Optional[int] = None,
    history: Optional[Mapping] = None,
    metrics: Optional[Mapping] = None,
    extra: Optional[Mapping] = None,
    mode: Optional[str] = None,
    run_hash: Optional[str] = None,
) -> Dict:
    """Assemble the manifest dict (no I/O; see ``obs.write_manifest``).

    ``run_hash`` is the enclosing experiment's canonical config hash
    (see :mod:`repro.pipeline`); every manifest written while a
    pipeline run is active carries it, so stage artifacts, trace-cache
    entries and manifests can all be joined on one identifier.
    """
    return {
        "schema": MANIFEST_SCHEMA,
        "kind": kind,
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "pid": os.getpid(),
        "mode": mode,
        "git_sha": git_sha(),
        "seed": seed,
        "config": dict(config) if config is not None else None,
        "config_hash": config_hash(config),
        "experiment_hash": run_hash,
        "kernel_paths": kernel_paths(),
        "peak_rss_mb": peak_rss_mb(),
        "metrics": dict(metrics) if metrics is not None else None,
        "history": dict(history) if history is not None else None,
        "extra": dict(extra) if extra is not None else None,
    }


def write_manifest_file(manifest: Mapping, directory: Path) -> Path:
    """Write a manifest JSON plus the ``latest.json`` mirror; returns the path."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"manifest-{manifest.get('kind', 'run')}-{stamp}-{os.getpid()}-{next(_manifest_seq)}.json"
    path = directory / name
    payload = json.dumps(manifest, indent=2, sort_keys=True, default=str) + "\n"
    path.write_text(payload, encoding="utf-8")
    (directory / LATEST_NAME).write_text(payload, encoding="utf-8")
    return path


def latest_manifest(directory: Path) -> Optional[Dict]:
    """The most recent manifest in a directory, or ``None``."""
    directory = Path(directory)
    latest = directory / LATEST_NAME
    candidates = [latest] if latest.exists() else sorted(directory.glob("manifest-*.json"), reverse=True)
    for path in candidates:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            continue
        if isinstance(data, dict):
            return data
    return None
