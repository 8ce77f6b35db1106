"""The repo-specific per-file invariant checkers (rules RL001–RL007).

The whole-program rules (RL008–RL012) live in
:mod:`repro.lintkit.project_rules` and run over linked module facts
rather than a single AST.

Each checker encodes one contract the reproduction depends on; DESIGN
§6d explains why every one of them exists.  In brief:

* **RL001** — bit-identical kernel oracles need seeded ``Generator``
  randomness; legacy global-state ``np.random.*`` breaks replay.
* **RL002** — :mod:`repro.runtime` keeps runtime-flag mirrors in sync
  by *assignment*; importing a flag's value freezes it at import time.
* **RL003** — one hashing recipe (:func:`repro.runtime.canonical_hash`)
  keeps cache keys, manifests and run dirs mutually consistent.
* **RL004** — a swallowed exception must at least publish an obs
  counter; silent ``except Exception: pass`` hides corrupted state.
* **RL005** — the obs namespace is a checked-in catalog; typo'd metric
  names fail lint instead of silently forking a time series.
* **RL006** — float/ndarray ``==`` is flaky across kernel paths; use
  ``np.allclose`` (or ``# lint: bit-identical`` in oracle tests).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Optional

from . import catalog as _catalog
from .base import Checker, Diagnostic, FileContext, dotted_name, register

# ---------------------------------------------------------------------------
# RL001 — determinism


#: numpy legacy global-state RNG entry points (the module-level aliases
#: around the shared global ``RandomState``); any of these makes a run
#: depend on hidden process-wide state.
_LEGACY_NP_RANDOM = frozenset(
    {
        "seed",
        "get_state",
        "set_state",
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "random_integers",
        "ranf",
        "sample",
        "bytes",
        "choice",
        "shuffle",
        "permutation",
        "beta",
        "binomial",
        "chisquare",
        "exponential",
        "gamma",
        "geometric",
        "gumbel",
        "laplace",
        "logistic",
        "lognormal",
        "multinomial",
        "multivariate_normal",
        "normal",
        "pareto",
        "poisson",
        "power",
        "rayleigh",
        "standard_cauchy",
        "standard_exponential",
        "standard_gamma",
        "standard_normal",
        "standard_t",
        "triangular",
        "uniform",
        "vonmises",
        "wald",
        "weibull",
        "zipf",
        "RandomState",
    }
)


@register
class DeterminismChecker(Checker):
    code = "RL001"
    name = "determinism"
    summary = (
        "no legacy np.random.* global-state calls and no argless "
        "default_rng(); Generators must be seeded or threaded"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                dotted = dotted_name(node.func)
                if dotted is None:
                    continue
                parts = dotted.split(".")
                if (
                    len(parts) == 3
                    and parts[0] in ("np", "numpy")
                    and parts[1] == "random"
                    and parts[2] in _LEGACY_NP_RANDOM
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"legacy global-state RNG call {dotted}(); "
                        "thread a seeded np.random.Generator instead",
                    )
                elif parts[-1] == "default_rng" and not node.args and not node.keywords:
                    yield self.diag(
                        ctx,
                        node,
                        "default_rng() without a seed is entropy-seeded and "
                        "unreproducible; pass an explicit seed or thread a Generator",
                    )
            elif isinstance(node, ast.ImportFrom) and node.module in ("numpy.random", "np.random"):
                for alias in node.names:
                    if alias.name in _LEGACY_NP_RANDOM:
                        yield self.diag(
                            ctx,
                            node,
                            f"importing legacy RNG {alias.name!r} from numpy.random; "
                            "use a seeded np.random.Generator",
                        )


# ---------------------------------------------------------------------------
# RL002 — runtime-flag discipline


#: mirror module → the names whose *values* must never be imported
#: (the canonical flag store plus every registered write-through mirror
#: global; see repro.runtime.register_mirror).
_MIRROR_MODULES: Dict[str, FrozenSet[str]] = {
    "repro.runtime": frozenset({"_FLAGS"}),
    "repro.backends": frozenset({"_ACTIVE", "_SANITIZE"}),
    "repro.obs": frozenset({"_SAMPLE_HZ"}),
}

#: flag names are additionally rejected as import targets from
#: repro.runtime itself, so `from repro.runtime import sanitize`
#: style code fails even if such an attribute is added later.  (In the
#: other mirror modules only the private mirror globals are forbidden.)
_FLAG_NAMES = frozenset({"obs_sample_hz", "sanitize"})


def _resolve_relative(ctx: FileContext, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module for an ImportFrom (handles relative levels)."""
    if node.level == 0:
        return node.module
    base = ctx.package.split(".") if ctx.package else []
    drop = node.level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


@register
class FlagDisciplineChecker(Checker):
    code = "RL002"
    name = "flag-discipline"
    summary = (
        "never import runtime-flag values from repro.runtime or its "
        "mirror modules; read them as module attributes"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ImportFrom):
                continue
            module = _resolve_relative(ctx, node)
            if module not in _MIRROR_MODULES or module == ctx.module:
                continue
            forbidden = _MIRROR_MODULES[module]
            if module == "repro.runtime":
                forbidden = forbidden | _FLAG_NAMES
            for alias in node.names:
                if alias.name == "*":
                    yield self.diag(
                        ctx,
                        node,
                        f"star-import from mirror module {module}; it can capture "
                        "runtime-flag values that runtime.set_flag cannot update",
                    )
                elif alias.name in forbidden:
                    yield self.diag(
                        ctx,
                        node,
                        f"value-import of runtime flag {alias.name!r} from {module}; "
                        "import the module and read the attribute so "
                        "runtime.configure write-through stays visible",
                    )


# ---------------------------------------------------------------------------
# RL003 — single-hash contract


#: the one module allowed to touch hashlib (owns canonical_hash)
_HASH_OWNER = "repro.runtime"


@register
class SingleHashChecker(Checker):
    code = "RL003"
    name = "single-hash"
    summary = "hashlib may only be used inside repro.runtime (canonical_hash)"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module == _HASH_OWNER:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "hashlib" or alias.name.startswith("hashlib."):
                        yield self.diag(
                            ctx,
                            node,
                            "direct hashlib use outside repro.runtime; call "
                            "runtime.canonical_hash so every cache key, manifest "
                            "and run dir shares one hash recipe",
                        )
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module == "hashlib":
                yield self.diag(
                    ctx,
                    node,
                    "direct hashlib import outside repro.runtime; call "
                    "runtime.canonical_hash instead",
                )


# ---------------------------------------------------------------------------
# RL004 — exception hygiene


_BROAD_EXC_NAMES = ("Exception", "BaseException")

#: calls that make a broad handler observable (it publishes the failure)
_OBS_PUBLISHERS = frozenset(
    {
        "obs.counter",
        "obs.log_warning",
        "obs.gauge",
        "obs.histogram",
        "repro.obs.counter",
        "repro.obs.log_warning",
    }
)


def _is_broad(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    exprs = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    for expr in exprs:
        dotted = dotted_name(expr)
        if dotted is not None and dotted.split(".")[-1] in _BROAD_EXC_NAMES:
            return True
    return False


def _handler_is_accounted(handler: ast.ExceptHandler) -> bool:
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            dotted = dotted_name(node.func)
            if dotted in _OBS_PUBLISHERS:
                return True
    return False


@register
class ExceptionHygieneChecker(Checker):
    code = "RL004"
    name = "exception-hygiene"
    summary = (
        "bare/broad except clauses must re-raise or publish an obs "
        "counter (obs.counter / obs.log_warning)"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if _is_broad(node) and not _handler_is_accounted(node):
                caught = "bare except" if node.type is None else "broad except"
                yield self.diag(
                    ctx,
                    node,
                    f"{caught} that neither re-raises nor publishes an obs "
                    "counter; narrow the exception type or call "
                    "obs.log_warning so the swallow is observable",
                )


# ---------------------------------------------------------------------------
# RL005 — obs-name catalog


@register
class ObsCatalogChecker(Checker):
    code = "RL005"
    name = "obs-catalog"
    summary = (
        "obs metric/span names must be dotted lowercase and recorded in "
        "lintkit/obs_catalog.json (--fix-catalog regenerates it)"
    )

    def __init__(self) -> None:
        self.sites: List[_catalog.ObsNameSite] = []

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for site in _catalog.harvest_module(ctx.tree, ctx.module, ctx.display_path):
            self.sites.append(site)
            if not _catalog.valid_obs_name(site.name):
                yield Diagnostic(
                    path=site.path,
                    line=site.line,
                    col=site.col,
                    code=self.code,
                    message=(
                        f"obs name {site.name!r} is not dotted-lowercase "
                        "(expected e.g. 'cache.bytes_read'; see DESIGN §6b)"
                    ),
                )

    def drift_diagnostics(self, catalog_path: Path, check_stale: bool) -> Iterator[Diagnostic]:
        """Compare the accumulated harvest against the checked-in catalog."""
        try:
            known = _catalog.load_catalog(catalog_path)
        except ValueError as exc:
            yield Diagnostic(path=str(catalog_path), line=1, col=1, code=self.code, message=str(exc))
            return
        for site, message in _catalog.diff_catalog(self.sites, known, check_stale=check_stale):
            if site is None:
                yield Diagnostic(path=str(catalog_path), line=1, col=1, code=self.code, message=message)
            else:
                yield Diagnostic(
                    path=site.path, line=site.line, col=site.col, code=self.code, message=message
                )


# ---------------------------------------------------------------------------
# RL006 — float equality


#: method names that (on this codebase) always produce floats/ndarrays
_FLOATISH_METHODS = frozenset({"std", "mean", "var", "ptp"})


def _floatish(node: ast.expr) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted is None:
            return False
        last = dotted.split(".")[-1]
        return dotted == "float" or last in _FLOATISH_METHODS
    if isinstance(node, ast.UnaryOp):
        return _floatish(node.operand)
    return False


@register
class FloatEqualityChecker(Checker):
    code = "RL006"
    name = "float-equality"
    summary = (
        "no ==/!= against float expressions; use np.allclose/np.isclose "
        "or an order comparison (# lint: bit-identical opts out)"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for i, op in enumerate(node.ops):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _floatish(operands[i]) or _floatish(operands[i + 1]):
                    yield self.diag(
                        ctx,
                        node,
                        "float equality comparison; use np.allclose/np.isclose, "
                        "an order comparison, or mark the line "
                        "`# lint: bit-identical` for oracle-equivalence checks",
                    )
                    break


# ---------------------------------------------------------------------------
# RL007 — backend dispatch discipline


#: modules holding the fused-primitive *dispatch* layer: autograd
#: bookkeeping only; array math belongs in a registered compute backend
#: (repro.backends.*), where the backend-equivalence suites can see it.
_KERNEL_DISPATCH_MODULES = frozenset({"repro.nn.kernels"})

#: np.* calls that allocate, wrap, or introspect without computing —
#: legitimate in the dispatch layer (gradient seeds, dtype plumbing).
_NP_NONCOMPUTE = frozenset(
    {
        "asarray",
        "ascontiguousarray",
        "broadcast_to",
        "can_cast",
        "dtype",
        "empty",
        "empty_like",
        "ones",
        "ones_like",
        "result_type",
        "shape",
        "zeros",
        "zeros_like",
    }
)


@register
class BackendDisciplineChecker(Checker):
    code = "RL007"
    name = "backend-discipline"
    summary = (
        "fused-kernel dispatch modules must not call np.* compute ops; "
        "array math belongs in a registered backend "
        "(# lint: backend-impl opts out)"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        if ctx.module not in _KERNEL_DISPATCH_MODULES:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None:
                continue
            parts = dotted.split(".")
            if parts[0] not in ("np", "numpy") or len(parts) < 2:
                continue
            if parts[-1] in _NP_NONCOMPUTE:
                continue
            yield self.diag(
                ctx,
                node,
                f"np compute call {dotted}() in a kernel dispatch module; "
                "move the math into a repro.backends backend (or mark the "
                "line `# lint: backend-impl` if it is backend-neutral)",
            )
