"""Obs-name catalog: static harvest of metric names (rule RL005).

Every string literal passed to ``obs.counter`` / ``obs.gauge`` /
``obs.log_warning`` is harvested from the AST and checked against the checked-in catalog
(``obs_catalog.json`` next to this module).  The catalog is therefore
both a CI gate — a typo'd metric name is a new, uncatalogued name and
fails the lint — and the authoritative index of the observability
namespace (DESIGN §6b documents the taxonomy; the catalog enumerates
it).

Dynamic names are handled two ways:

* f-strings with a literal dotted prefix (``f"evaluate.rmse.{name}"``)
  harvest as a wildcard entry (``evaluate.rmse.*``);
* names published through a variable (the simulator tallies counts in
  a dict and bulk-publishes) cannot be harvested statically — they are
  pinned in the catalog's ``manual`` section, which ``--fix-catalog``
  preserves verbatim.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

#: obs entry-point → catalog kind
OBS_KINDS = {
    "counter": "counter",
    "gauge": "gauge",
    "log_warning": "warning",
}

#: receivers whose attribute calls are obs publishers (``obs.counter``)
_OBS_RECEIVERS = ("obs", "repro.obs")

CATALOG_SCHEMA = "repro-obs-catalog-v1"

_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")


def default_catalog_path() -> Path:
    return Path(__file__).resolve().parent / "obs_catalog.json"


@dataclass(frozen=True)
class ObsNameSite:
    """One harvested obs name: where it appears and as what."""

    name: str
    kind: str
    module: str
    path: str
    line: int
    col: int
    dynamic: bool  # True when the name is a wildcard from an f-string


def valid_obs_name(name: str) -> bool:
    """Dotted lowercase (``cache.bytes_read``); ``*`` only as last segment."""
    segments = name.split(".")
    if len(segments) < 2:
        return False
    for i, segment in enumerate(segments):
        if segment == "*" and i == len(segments) - 1:
            continue
        if not _SEGMENT_RE.match(segment):
            return False
    return True


def _literal_names(arg: ast.expr) -> Iterator[Tuple[str, bool]]:
    """Expand the name argument into ``(name, dynamic)`` pairs.

    Handles plain literals, conditional expressions over literals, and
    f-strings (literal prefix + ``*``).  Fully dynamic names (a bare
    variable) yield nothing — those are covered by the catalog's
    ``manual`` section.
    """
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        yield arg.value, False
    elif isinstance(arg, ast.IfExp):
        yield from _literal_names(arg.body)
        yield from _literal_names(arg.orelse)
    elif isinstance(arg, ast.JoinedStr):
        prefix = ""
        for part in arg.values:
            if isinstance(part, ast.Constant) and isinstance(part.value, str):
                prefix += part.value
            else:
                break
        if prefix:
            yield prefix.rstrip(".") + ".*", True


def harvest_module(tree: ast.AST, module: str, path: str) -> List[ObsNameSite]:
    """All statically-visible obs names published by one module."""
    sites: List[ObsNameSite] = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            continue
        kind = OBS_KINDS.get(node.func.attr)
        if kind is None:
            continue
        receiver = node.func.value
        parts: List[str] = []
        while isinstance(receiver, ast.Attribute):
            parts.append(receiver.attr)
            receiver = receiver.value
        if isinstance(receiver, ast.Name):
            parts.append(receiver.id)
        dotted = ".".join(reversed(parts))
        if dotted not in _OBS_RECEIVERS:
            continue
        if not node.args:
            continue
        for name, dynamic in _literal_names(node.args[0]):
            sites.append(
                ObsNameSite(
                    name=name,
                    kind=kind,
                    module=module,
                    path=path,
                    line=node.lineno,
                    col=node.col_offset + 1,
                    dynamic=dynamic,
                )
            )
    return sites


def aggregate(sites: List[ObsNameSite]) -> Dict[str, Dict[str, List[str]]]:
    """Collapse sites to the catalog shape: name → sorted kinds/modules."""
    merged: Dict[str, Dict[str, set]] = {}
    for site in sites:
        entry = merged.setdefault(site.name, {"kinds": set(), "modules": set()})
        entry["kinds"].add(site.kind)
        entry["modules"].add(site.module)
    return {
        name: {
            "kinds": sorted(entry["kinds"]),
            "modules": sorted(entry["modules"]),
        }
        for name, entry in sorted(merged.items())
    }


def load_catalog(path: Path) -> Dict[str, Dict[str, Dict[str, List[str]]]]:
    """Read the catalog; a missing file is an empty catalog (lint flags it)."""
    if not path.exists():
        return {"harvested": {}, "manual": {}}
    data = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("schema") != CATALOG_SCHEMA:
        raise ValueError(f"{path}: not a {CATALOG_SCHEMA} catalog")
    return {
        "harvested": dict(data.get("harvested") or {}),
        "manual": dict(data.get("manual") or {}),
    }


def write_catalog(
    path: Path,
    harvested: Mapping[str, Mapping[str, List[str]]],
    manual: Optional[Mapping[str, Mapping[str, object]]] = None,
) -> Path:
    """Rewrite the catalog, regenerating ``harvested``, keeping ``manual``."""
    if manual is None:
        try:
            manual = load_catalog(path)["manual"]
        except ValueError:
            manual = {}
    payload = {
        "schema": CATALOG_SCHEMA,
        "harvested": {name: dict(entry) for name, entry in sorted(harvested.items())},
        "manual": {name: dict(entry) for name, entry in sorted(manual.items())},
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n", encoding="utf-8")
    return path


def diff_catalog(
    sites: List[ObsNameSite],
    catalog: Mapping[str, Mapping[str, Mapping[str, List[str]]]],
    check_stale: bool = True,
) -> List[Tuple[Optional[ObsNameSite], str]]:
    """Compare a harvest against the catalog.

    Returns ``(site, message)`` pairs; ``site`` is ``None`` for stale
    catalog entries (which have no source position).  ``check_stale``
    is disabled when only a subset of the tree was linted — a partial
    harvest cannot prove a catalog entry dead.
    """
    problems: List[Tuple[Optional[ObsNameSite], str]] = []
    harvested = aggregate(sites)
    known = catalog.get("harvested", {})
    manual = catalog.get("manual", {})
    first_site = {}
    for site in sites:
        first_site.setdefault(site.name, site)
    for name, entry in harvested.items():
        site = first_site[name]
        if name not in known:
            problems.append(
                (
                    site,
                    f"obs name {name!r} ({'/'.join(entry['kinds'])}) is not in the catalog; "
                    "run `repro5g lint --fix-catalog` and commit obs_catalog.json",
                )
            )
        elif dict(known[name]) != entry:
            problems.append(
                (
                    site,
                    f"obs name {name!r} drifted from the catalog "
                    f"(catalog: {dict(known[name])}, source: {entry}); "
                    "run `repro5g lint --fix-catalog`",
                )
            )
    if check_stale:
        for name in known:
            if name not in harvested and name not in manual:
                problems.append(
                    (
                        None,
                        f"stale catalog entry {name!r}: no source site publishes it; "
                        "run `repro5g lint --fix-catalog` (or move it to the manual section)",
                    )
                )
    return problems
