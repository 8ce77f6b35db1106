"""Run records: the one ``run.json`` an experiment or a campaign leaves.

An experiment writes ``<run_dir>/run.json`` and a campaign
``<state_dir>/run.json``, whole, once the run ends
(:func:`repro.obs.write_record`).  Every record carries the schema id,
its kind and the run's hash, the git SHA of the working tree, the
runtime flags (the sanitizer), the process's peak RSS and, when metrics
are on, the counters this run added; the run adds its own fields.
``repro5g obs report`` prints a record and ``repro5g obs check-slo``
gates one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional, Union

RUN_SCHEMA = "repro-run-v1"
RECORD_NAME = "run.json"

_git_sha_cache: Dict[str, Optional[str]] = {}


def git_sha(start: Optional[Path] = None) -> Optional[str]:
    """Best-effort commit SHA of the enclosing git checkout.

    Reads ``.git/HEAD`` (and ``packed-refs``) directly instead of
    shelling out, walking up from ``start`` (default: this package's
    directory, so the SHA names the code that ran wherever the run was
    started).  Returns ``None`` outside a checkout.  Cached per start
    path: the SHA is constant for the life of a process that writes
    many records.
    """
    try:
        path = Path(start or Path(__file__).parent).resolve()
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


def peak_rss_mb() -> float:
    """Max resident set of this process and its reaped children (MB)."""
    try:
        import resource

        self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return max(self_kb, child_kb) / 1024.0
    except (ImportError, ValueError):  # pragma: no cover - non-POSIX hosts
        return 0.0


def read_record(directory: Union[str, Path]) -> Optional[Dict]:
    """The record in a run or state directory, or ``None`` when it has none that loads."""
    try:
        data = json.loads((Path(directory) / RECORD_NAME).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return data if isinstance(data, dict) and data.get("schema") == RUN_SCHEMA else None
