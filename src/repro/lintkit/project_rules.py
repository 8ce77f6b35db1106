"""Flow-sensitive whole-program rules (RL008–RL012).

Each rule consumes the linked :class:`~repro.lintkit.project.ProjectContext`
rather than a single module AST, so it can follow a seed through call
sites, walk the callee closure of the hashing recipe, or join a
registry against the CLI's import graph.  DESIGN §6e documents the
approximation contract all five share: resolution is alias-, self- and
annotation-based, unresolved edges are treated in whichever direction
avoids false positives, and every verdict is reproducible from the
serializable facts alone (which is what lets the incremental cache
feed this pass without re-parsing).

* **RL008** — every ``default_rng`` seed must derive from the canonical
  hash recipe, a threaded seed argument, or an already-seeded
  Generator — traced through project call sites.
* **RL009** — no iteration over provably unordered (set-typed)
  expressions anywhere in the callee closure of ``canonical_hash``
  callers or ``ShardPlan``/campaign hashing: iteration order there
  changes hashes and shard assignment between runs.
* **RL010** — backend primitive implementations (names listed in the
  ``PRIMITIVES`` registry literal) must not mention float32 and
  float64 together without an explicit ``astype`` cast.
* **RL011** — paired resources must be closed on all paths:
  ``obs.span``/``obs.sample_window`` used as context managers (or
  ``force=True``), arena ``begin_step`` balanced by ``end_run`` in a
  ``finally`` — in the opening function or in every project caller.
* **RL012** — registry coverage: registered names unique, their
  factories/classes importable, their modules reachable from the CLI's
  import graph, and every ``TABLE4_LINEUP`` entry actually registered.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Set, Tuple

from .base import Diagnostic, ProjectRule, register
from .project import FunctionFacts, ModuleFacts, ProjectContext


def _site_diag(
    code: str, mf: ModuleFacts, line: int, col: int, message: str
) -> Diagnostic:
    return Diagnostic(path=mf.display_path, line=line, col=col, code=code, message=message)


# ---------------------------------------------------------------------------
# RL008 — RNG seed lineage


@register
class RngLineageRule(ProjectRule):
    code = "RL008"
    name = "rng-lineage"
    summary = (
        "default_rng seeds must derive from canonical_hash or a "
        "threaded seed argument (traced through project call sites)"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        for mf, fn in project.iter_functions():
            for seed in fn.seed_sites:
                if seed.status == "bad":
                    yield _site_diag(
                        self.code,
                        mf,
                        seed.line,
                        seed.col,
                        f"{seed.why}; seed a Generator from runtime.canonical_hash "
                        "or thread an explicit seed argument",
                    )
                elif seed.status == "deps":
                    for dep in seed.deps:
                        yield from self._check_dep(project, mf, fn, seed.line, seed.col, dep)

    def _check_dep(
        self,
        project: ProjectContext,
        mf: ModuleFacts,
        fn: FunctionFacts,
        line: int,
        col: int,
        dep: str,
    ) -> Iterator[Diagnostic]:
        targets = project.resolve_call(mf, fn, dep)
        if not targets:
            yield _site_diag(
                self.code,
                mf,
                line,
                col,
                f"seed derives from {dep}(), which cannot be traced to a "
                "project function; derive the seed from runtime.canonical_hash "
                "or thread it explicitly",
            )
            return
        for target in targets:
            _, callee = project.functions[target]
            if callee.returns_traced is not True:
                yield _site_diag(
                    self.code,
                    mf,
                    line,
                    col,
                    f"seed derives from {dep}() ({target}), whose return value "
                    "is not provably derived from canonical_hash or a threaded "
                    "seed argument",
                )


# ---------------------------------------------------------------------------
# RL009 — determinism-critical ordering


@register
class DeterminismOrderingRule(ProjectRule):
    code = "RL009"
    name = "determinism-ordering"
    summary = (
        "no iteration over set-typed expressions on paths reachable "
        "from canonical_hash callers or ShardPlan/campaign hashing"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        seeds: Set[str] = set()
        for key, (mf, fn) in project.functions.items():
            if fn.cls == "ShardPlan":
                seeds.add(key)
            elif any(raw.split(".")[-1] == "canonical_hash" for raw in fn.calls):
                seeds.add(key)
        for key in sorted(project.callee_closure(seeds)):
            mf, fn = project.functions[key]
            for site in fn.set_iter_sites:
                yield _site_diag(
                    self.code,
                    mf,
                    int(site["line"]),  # type: ignore[arg-type]
                    int(site["col"]),  # type: ignore[arg-type]
                    f"iteration over {site['desc']} in {fn.qualname}, which is "
                    "on a hash-critical path (reachable from canonical_hash / "
                    "ShardPlan); sort it so hashes and shard assignment stay "
                    "deterministic",
                )


# ---------------------------------------------------------------------------
# RL010 — backend dtype discipline


@register
class DtypeDisciplineRule(ProjectRule):
    code = "RL010"
    name = "dtype-discipline"
    summary = (
        "backend primitives (the PRIMITIVES registry) must not mix "
        "float32 and float64 without an explicit astype cast"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        literal_homes = project.string_literals("PRIMITIVES")
        if not literal_homes:
            return
        primitives: Set[str] = set()
        for items in literal_homes.values():
            primitives.update(items)
        scopes = tuple(literal_homes)
        for mf, fn in project.iter_functions():
            if fn.name not in primitives or fn.cls:
                continue
            if not any(mf.module == scope or mf.module.startswith(scope + ".") for scope in scopes):
                continue
            if fn.dtype32 and fn.dtype64 and not fn.has_astype:
                yield _site_diag(
                    self.code,
                    mf,
                    fn.line,
                    fn.col,
                    f"backend primitive {fn.name} mentions both float32 and "
                    "float64 with no explicit astype cast; mixed-precision "
                    "arithmetic silently upcasts and breaks bit-identical "
                    "backend equivalence",
                )


# ---------------------------------------------------------------------------
# RL011 — paired-resource discipline


#: obs entry points that hand back refcounted/timed resources which
#: must be closed; matched after resolution against the defining module.
_CM_NAMES = frozenset({"span", "sample_window"})

#: fallback receivers accepted when the obs module itself is outside
#: the linted root (e.g. linting a single non-obs file).
_CM_RECEIVER_PREFIXES = ("obs.", "repro.obs.")


@register
class PairedResourceRule(ProjectRule):
    code = "RL011"
    name = "paired-resource"
    summary = (
        "obs.span/sample_window must be used as context managers and "
        "arena begin_step balanced by end_run in a finally"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        cm_definers = {
            key.rsplit(".", 1)[0]
            for key in project.functions
            if key.split(".")[-1] in _CM_NAMES
        }
        for key, (mf, fn) in project.functions.items():
            yield from self._check_cm_leaks(project, mf, fn, cm_definers)
            yield from self._check_arena(project, key, mf, fn)

    def _check_cm_leaks(
        self,
        project: ProjectContext,
        mf: ModuleFacts,
        fn: FunctionFacts,
        cm_definers: Set[str],
    ) -> Iterator[Diagnostic]:
        for leak in fn.cm_leaks:
            raw = str(leak["name"])
            targets = project.resolve_call(mf, fn, raw)
            is_obs_cm = any(
                target.split(".")[-1] in _CM_NAMES and target.rsplit(".", 1)[0] != mf.module
                for target in targets
            )
            if not targets:
                is_obs_cm = raw.startswith(_CM_RECEIVER_PREFIXES)
            if targets and any(target.rsplit(".", 1)[0] == mf.module for target in targets):
                continue  # the defining module's own plumbing
            if not is_obs_cm:
                continue
            yield _site_diag(
                self.code,
                mf,
                int(leak["line"]),  # type: ignore[arg-type]
                int(leak["col"]),  # type: ignore[arg-type]
                f"{raw}(...) is neither used in a `with` block, returned, nor "
                "forced (force=True); an unclosed span/sample window leaks its "
                "timer and refcount on error paths",
            )

    def _check_arena(
        self, project: ProjectContext, key: str, mf: ModuleFacts, fn: FunctionFacts
    ) -> Iterator[Diagnostic]:
        for opened in fn.arena_opens:
            raw = str(opened["name"])
            targets = project.resolve_call(mf, fn, raw)
            arena_targets = [
                target
                for target in targets
                if target.split(".")[-1] == "begin_step"
                and project.functions[target][0].module != mf.module
            ]
            if not arena_targets:
                continue
            if fn.closes_arena:
                continue
            callers = project.callers_of(key)
            if callers and all(project.functions[c][1].closes_arena for c in callers):
                continue
            unclosed = sorted(c for c in callers if not project.functions[c][1].closes_arena)
            via = f" (callers without a finally: {', '.join(unclosed)})" if unclosed else ""
            yield _site_diag(
                self.code,
                mf,
                int(opened["line"]),  # type: ignore[arg-type]
                int(opened["col"]),  # type: ignore[arg-type]
                f"arena {raw}() is not balanced by end_run in a finally — "
                f"neither here nor in every caller{via}; leaked workspaces "
                "grow unbounded across steps",
            )


# ---------------------------------------------------------------------------
# RL012 — registry coverage


@register
class RegistryCoverageRule(ProjectRule):
    code = "RL012"
    name = "registry-coverage"
    summary = (
        "registered predictor names must be unique, importable "
        "and reachable from the CLI; lineup entries must be registered"
    )

    def check_project(self, project: ProjectContext) -> Iterator[Diagnostic]:
        registrations: List[Tuple[ModuleFacts, Dict[str, object]]] = []
        for mf in project.modules.values():
            for registration in mf.registrations:
                registrations.append((mf, registration))

        seen: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for mf, registration in registrations:
            kind = str(registration["kind"])
            name = str(registration["name"])
            line = int(registration["line"])  # type: ignore[arg-type]
            col = int(registration["col"])  # type: ignore[arg-type]
            dup_key = (kind, name)
            if dup_key in seen:
                first_module, first_line = seen[dup_key]
                yield _site_diag(
                    self.code,
                    mf,
                    line,
                    col,
                    f"{kind} {name!r} is registered more than once "
                    f"(first at {first_module}:{first_line}); later registrations "
                    "silently replace earlier ones",
                )
            else:
                seen[dup_key] = (mf.module, line)
            yield from self._check_target(project, mf, registration, line, col)

        yield from self._check_reachability(project, registrations)
        yield from self._check_lineups(project, {n for (k, n) in seen if k == "predictor"})

    def _check_target(
        self,
        project: ProjectContext,
        mf: ModuleFacts,
        registration: Dict[str, object],
        line: int,
        col: int,
    ) -> Iterator[Diagnostic]:
        target = str(registration.get("target", ""))
        if not target:
            return
        if target in mf.classes or f"{mf.module}.{target}" in project.functions:
            return
        if target in mf.aliases or target.split(".")[0] in mf.aliases:
            return
        yield _site_diag(
            self.code,
            mf,
            line,
            col,
            f"{registration['kind']} {registration['name']!r} registers "
            f"{target!r}, which is not a definition or import visible in "
            f"{mf.module}; the registry entry would fail at call time",
        )

    def _check_reachability(
        self,
        project: ProjectContext,
        registrations: List[Tuple[ModuleFacts, Dict[str, object]]],
    ) -> Iterator[Diagnostic]:
        cli_module = ""
        for candidate in project.modules:
            if candidate == "repro.cli" or candidate == "cli" or candidate.endswith(".cli"):
                cli_module = candidate
                break
        if not cli_module:
            return
        reachable = project.import_reachable(cli_module)
        for mf, registration in registrations:
            if mf.module in reachable:
                continue
            yield _site_diag(
                self.code,
                mf,
                int(registration["line"]),  # type: ignore[arg-type]
                int(registration["col"]),  # type: ignore[arg-type]
                f"{registration['kind']} {registration['name']!r} is registered "
                f"in {mf.module}, which is never imported (directly or "
                f"transitively) from {cli_module}; the CLI cannot see this "
                "registry entry",
            )

    def _check_lineups(
        self, project: ProjectContext, predictor_names: Set[str]
    ) -> Iterator[Diagnostic]:
        if not predictor_names:
            return
        for module, items in project.string_literals("TABLE4_LINEUP").items():
            mf = project.modules[module]
            for item in items:
                if item not in predictor_names:
                    yield _site_diag(
                        self.code,
                        mf,
                        1,
                        1,
                        f"lineup entry {item!r} in {module}.TABLE4_LINEUP is not "
                        "a registered predictor name; evaluation would fail to "
                        "resolve it",
                    )
