"""The repo-specific invariant checkers (rules RL001–RL011).

Each checker encodes one contract the reproduction depends on and reads
one file at a time; DESIGN §6d explains why every one of them exists.
In brief:

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
* **RL007** — the kernel dispatch layer holds no numpy compute; the
  math lives in :mod:`repro.backends`.
* **RL008** — a ``default_rng`` seed is a constant, a threaded
  argument, ``canonical_hash`` output, or a same-file helper's return
  value built from those; wall clocks and pids break replay.
* **RL009** — set iteration order is not replayable, so it never feeds
  a hash or a shard assignment.
* **RL010** — backend functions never mix float32 and float64 without
  an explicit cast; silent upcasts break backend bit-identity.
* **RL011** — obs spans/sample windows and arena step windows are
  closed on every path.

RL008–RL011 read the file's :attr:`~repro.lintkit.base.FileContext.scopes`
and resolve names only inside that file.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Mapping, Optional, Set, Tuple

from . import catalog as _catalog
from .base import Checker, Diagnostic, FileContext, Scope, dotted_name, register

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


# ---------------------------------------------------------------------------
# RL008 — RNG seed lineage


#: call roots/targets that make an RNG seed time-, process- or
#: entropy-dependent; deriving a seed from any of these breaks replay.
_BAD_SEED_ROOTS = frozenset({"time", "secrets", "uuid", "random"})
_BAD_SEED_CALLS = frozenset(
    {
        "os.urandom",
        "os.getpid",
        "os.getrandom",
        "hash",
        "id",
        "input",
    }
)

#: call targets (by last segment) that certify a seed's lineage: the
#: canonical hash recipe, or an already-seeded Generator being asked
#: for a derived seed.
_GOOD_SEED_TAILS = frozenset({"canonical_hash", "default_rng"})

#: builtins that preserve seed lineage of their argument(s).
_LINEAGE_PRESERVING_CALLS = frozenset({"int", "abs", "min", "max", "sum", "len", "divmod", "round"})


class _SeedClassifier:
    """Classifies a seed expression's lineage inside one function scope.

    ``classify`` returns ``(status, why)``: ``ok`` (lineage proven
    locally), ``bad`` (a forbidden origin, ``why`` says which), or
    ``deps`` (locally clean but derived through calls to the bare names
    collected in ``deps``, whose return values the caller must check).
    """

    def __init__(self, params: Set[str], local_values: Mapping[str, List[ast.expr]], module_constants: Set[str]) -> None:
        self.params = params
        self.local_values = local_values
        self.module_constants = module_constants
        self.deps: List[str] = []
        self._visiting: Set[str] = set()

    def classify(self, node: Optional[ast.expr]) -> Tuple[str, str]:
        """Returns ``(status, why)`` with status ok/bad/deps."""
        if node is None:
            return "bad", "seed expression could not be read"
        if isinstance(node, ast.Constant):
            return "ok", ""
        if isinstance(node, ast.Name):
            return self._classify_name(node.id)
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is not None:
                root = dotted.split(".")[0]
                if root in _BAD_SEED_ROOTS:
                    return "bad", f"seed derives from {dotted}"
            # attribute reads (self.seed, cfg.seed, module constants) are
            # named state, not entropy sources — entropy enters via calls
            return "ok", ""
        if isinstance(node, ast.Subscript):
            return self.classify(node.value)
        if isinstance(node, ast.UnaryOp):
            return self.classify(node.operand)
        if isinstance(node, ast.BinOp):
            return self._merge(self.classify(node.left), self.classify(node.right))
        if isinstance(node, ast.BoolOp):
            status: Tuple[str, str] = ("ok", "")
            for value in node.values:
                status = self._merge(status, self.classify(value))
            return status
        if isinstance(node, ast.IfExp):
            return self._merge(self.classify(node.body), self.classify(node.orelse))
        if isinstance(node, ast.Call):
            return self._classify_call(node)
        if isinstance(node, (ast.Tuple, ast.List)):
            status = ("ok", "")
            for element in node.elts:
                status = self._merge(status, self.classify(element))
            return status
        return "bad", f"seed lineage cannot be traced through {type(node).__name__}"

    def _classify_name(self, name: str) -> Tuple[str, str]:
        if name in self.params:
            return "ok", ""  # explicitly threaded seed argument
        if name in self._visiting:
            return "ok", ""  # cyclic local rebinding; assume the base case traced
        values = self.local_values.get(name)
        if values:
            self._visiting.add(name)
            try:
                status: Tuple[str, str] = ("ok", "")
                for value in values:
                    status = self._merge(status, self.classify(value))
                return status
            finally:
                self._visiting.discard(name)
        if name in self.module_constants:
            return "ok", ""
        return "bad", f"seed lineage cannot be traced for name {name!r}"

    def _classify_call(self, node: ast.Call) -> Tuple[str, str]:
        dotted = dotted_name(node.func)
        if dotted is not None:
            tail = dotted.split(".")[-1]
            root = dotted.split(".")[0]
            if dotted in _BAD_SEED_CALLS or root in _BAD_SEED_ROOTS:
                return "bad", f"seed derives from {dotted}()"
            if tail in _GOOD_SEED_TAILS:
                return "ok", ""
            if dotted in _LINEAGE_PRESERVING_CALLS:
                status: Tuple[str, str] = ("ok", "")
                for arg in node.args:
                    status = self._merge(status, self.classify(arg))
                return status
        if isinstance(node.func, ast.Attribute):
            # a method on a traced receiver (rng.integers(...)) derives
            # from the receiver's lineage
            receiver_status, receiver_why = self.classify(node.func.value)
            if receiver_status != "bad":
                return receiver_status, receiver_why
            return "bad", receiver_why
        if dotted is not None:
            self.deps.append(dotted)
            return "deps", ""
        return "bad", "seed derives from an unresolvable call"

    @staticmethod
    def _merge(left: Tuple[str, str], right: Tuple[str, str]) -> Tuple[str, str]:
        for status in ("bad", "deps"):
            if left[0] == status:
                return left
            if right[0] == status:
                return right
        return "ok", ""


def _top_level_assignments(tree: ast.AST) -> Iterator[Tuple[str, ast.expr]]:
    """``(name, value)`` for each top-level assignment to a plain name."""
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node.value
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name) and node.value is not None:
            yield node.target.id, node.value


def _returns_traced(scope: Scope, module_constants: Set[str]) -> bool:
    """Whether every ``return`` in ``scope`` hands back a seed-grade value."""
    returns = [node for node in scope.nodes if isinstance(node, ast.Return)]
    return bool(returns) and all(
        node.value is not None
        and _SeedClassifier(scope.params, scope.local_values, module_constants).classify(node.value)[0] == "ok"
        for node in returns
    )


@register
class RngLineageChecker(Checker):
    code = "RL008"
    name = "rng-lineage"
    summary = (
        "default_rng seeds must derive from canonical_hash or a "
        "threaded seed argument (traced through same-file helpers)"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        constants = {name for name, value in _top_level_assignments(ctx.tree) if isinstance(value, ast.Constant)}
        helpers = {scope.name: scope for scope in ctx.scopes if scope.node is not None and not scope.cls}
        for scope in ctx.scopes:
            for node in scope.nodes:
                if not (isinstance(node, ast.Call) and (node.args or node.keywords)):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None or dotted.split(".")[-1] != "default_rng":
                    continue
                seed = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "seed"), None)
                classifier = _SeedClassifier(scope.params, scope.local_values, constants)
                status, why = classifier.classify(seed)
                if status == "bad":
                    yield self.diag(
                        ctx,
                        node,
                        f"{why}; seed a Generator from runtime.canonical_hash "
                        "or thread an explicit seed argument",
                    )
                elif status == "deps":
                    for dep in sorted(set(classifier.deps)):
                        helper = helpers.get(dep)
                        if helper is None:
                            yield self.diag(
                                ctx,
                                node,
                                f"seed derives from {dep}(), which cannot be traced to a "
                                "function in this file; derive the seed from "
                                "runtime.canonical_hash or thread it explicitly",
                            )
                        elif not _returns_traced(helper, constants):
                            yield self.diag(
                                ctx,
                                node,
                                f"seed derives from {dep}(), whose return value is not "
                                "provably derived from canonical_hash or a threaded "
                                "seed argument",
                            )


# ---------------------------------------------------------------------------
# RL009 — determinism-critical ordering


def _is_unordered_expr(node: ast.expr, local_values: Mapping[str, List[ast.expr]], depth: int = 0) -> Optional[str]:
    """A short description if ``node`` provably evaluates to a set."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set literal" if isinstance(node, ast.Set) else "a set comprehension"
    if isinstance(node, ast.Call):
        dotted = dotted_name(node.func)
        if dotted in ("set", "frozenset"):
            return f"{dotted}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in ("union", "intersection", "difference", "symmetric_difference"):
            inner = _is_unordered_expr(node.func.value, local_values, depth)
            if inner is not None:
                return f"set.{node.func.attr}(...)"
        return None
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)):
        left = _is_unordered_expr(node.left, local_values, depth)
        right = _is_unordered_expr(node.right, local_values, depth)
        if left is not None or right is not None:
            return left or right
    if isinstance(node, ast.Name) and depth < 3:
        values = local_values.get(node.id, [])
        for value in values:
            found = _is_unordered_expr(value, local_values, depth + 1)
            if found is not None:
                return f"name {node.id!r} bound to {found}"
    return None


@register
class DeterminismOrderingChecker(Checker):
    code = "RL009"
    name = "determinism-ordering"
    summary = (
        "no iteration over set-typed expressions: set order is not "
        "replayable, so sort before iterating"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for scope in ctx.scopes:
            for node in scope.nodes:
                if isinstance(node, ast.For):
                    iterables = [node.iter]
                elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
                    iterables = [generator.iter for generator in node.generators]
                else:
                    continue
                for iterable in iterables:
                    found = _is_unordered_expr(iterable, scope.local_values)
                    if found is not None:
                        yield self.diag(
                            ctx,
                            node,
                            f"iteration over {found} in {scope.qualname}; set order "
                            "is not replayable, so any hash-critical value it feeds "
                            "(canonical_hash keys, ShardPlan assignment) can change "
                            "between runs; sort it first",
                        )


# ---------------------------------------------------------------------------
# RL010 — backend dtype discipline


def _string_tuple(node: ast.expr) -> Optional[List[str]]:
    """The items of an all-string tuple/list literal, else ``None``."""
    if not isinstance(node, (ast.Tuple, ast.List)) or not node.elts:
        return None
    items: List[str] = []
    for element in node.elts:
        if isinstance(element, ast.Constant) and isinstance(element.value, str):
            items.append(element.value)
        else:
            return None
    return items


@register
class DtypeDisciplineChecker(Checker):
    code = "RL010"
    name = "dtype-discipline"
    summary = (
        "backend functions (same-file PRIMITIVES entries and repro.backends.*) "
        "must not mix float32 and float64 without an explicit astype cast"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        primitives = {
            item
            for name, value in _top_level_assignments(ctx.tree)
            if name == "PRIMITIVES"
            for item in _string_tuple(value) or ()
        }
        in_backends = ctx.module == "repro.backends" or ctx.module.startswith("repro.backends.")
        for scope in ctx.scopes:
            if scope.node is None or not (in_backends or (not scope.cls and scope.name in primitives)):
                continue
            mentioned = {
                node.attr if isinstance(node, ast.Attribute) else node.value
                for node in scope.nodes
                if isinstance(node, (ast.Attribute, ast.Constant))
            }
            # astype on any receiver counts, including non-name chains like
            # ``(x * a).astype(...)`` that dotted_name cannot render
            cast = any(
                isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "astype"
                for node in scope.nodes
            )
            if {"float32", "float64"} <= mentioned and not cast:
                yield self.diag(
                    ctx,
                    scope.node,
                    f"backend function {scope.qualname} mentions both float32 and "
                    "float64 with no explicit astype cast; mixed-precision "
                    "arithmetic silently upcasts and breaks bit-identical "
                    "backend equivalence",
                )


# ---------------------------------------------------------------------------
# RL011 — paired-resource discipline


#: obs entry points that hand back timed/refcounted resources which
#: must be closed.
_CM_NAMES = frozenset({"span", "sample_window"})


def _import_aliases(ctx: FileContext) -> Dict[str, str]:
    """Local name -> absolute dotted target for every import in the file
    (function-scoped lazy imports included)."""
    aliases: Dict[str, str] = {}
    for node in (node for scope in ctx.scopes for node in scope.nodes):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                aliases[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative(ctx, node)
            if base is not None:
                for alias in node.names:
                    if alias.name != "*":
                        aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return aliases


def _is_obs_cm(dotted: str, aliases: Mapping[str, str]) -> bool:
    """``obs.span``-style calls, directly or through a ``repro.obs`` import."""
    if dotted.rpartition(".")[2] not in _CM_NAMES:
        return False
    head, dot, rest = dotted.partition(".")
    resolved = aliases.get(head, head) + dot + rest
    return dotted.startswith(("obs.", "repro.obs.")) or resolved.startswith("repro.obs.")


def _closes_arena(scope: Scope) -> bool:
    """Whether the scope calls ``end_run`` inside a ``finally``."""
    return any(
        isinstance(inner, ast.Call) and (dotted_name(inner.func) or "").split(".")[-1] == "end_run"
        for node in scope.nodes
        if isinstance(node, ast.Try)
        for stmt in node.finalbody
        for inner in ast.walk(stmt)
    )


def _callers(scopes: List[Scope], target: Scope) -> List[Scope]:
    """Same-file scopes calling ``target``: through ``self.``/``cls.`` in
    its own class for a method, by bare name for a module-level function."""
    if target.cls:
        names = {f"self.{target.name}", f"cls.{target.name}"}
        candidates = [scope for scope in scopes if scope.cls == target.cls]
    else:
        names = {target.name}
        candidates = scopes
    return [
        scope
        for scope in candidates
        if any(isinstance(node, ast.Call) and dotted_name(node.func) in names for node in scope.nodes)
    ]


@register
class PairedResourceChecker(Checker):
    code = "RL011"
    name = "paired-resource"
    summary = (
        "obs.span/sample_window must be used as context managers and an "
        "imported arena begin_step balanced by end_run in a finally"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        aliases = _import_aliases(ctx)
        for scope in ctx.scopes:
            yield from self._span_leaks(ctx, scope, aliases)
        # the arena module's own plumbing defines begin_step itself
        if not any(scope.node is not None and scope.name == "begin_step" for scope in ctx.scopes):
            yield from self._unbalanced_openers(ctx, aliases)

    def _span_leaks(self, ctx: FileContext, scope: Scope, aliases: Mapping[str, str]) -> Iterator[Diagnostic]:
        managed: Set[int] = set()  # ids of with-items and returned values
        with_names: Set[str] = set()
        bound: Dict[int, str] = {}  # id of an assigned call -> its name
        for node in scope.nodes:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    managed.add(id(item.context_expr))
                    if isinstance(item.context_expr, ast.Name):
                        with_names.add(item.context_expr.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                managed.add(id(node.value))
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        bound[id(node.value)] = target.id
        for node in scope.nodes:
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or not _is_obs_cm(dotted, aliases):
                continue
            if id(node) in managed or bound.get(id(node)) in with_names or any(k.arg == "force" for k in node.keywords):
                continue
            yield self.diag(
                ctx,
                node,
                f"{dotted}(...) is neither used in a `with` block, returned, nor "
                "forced (force=True); an unclosed span/sample window leaks its "
                "timer and refcount on error paths",
            )

    def _unbalanced_openers(self, ctx: FileContext, aliases: Mapping[str, str]) -> Iterator[Diagnostic]:
        for scope in ctx.scopes:
            for node in scope.nodes:
                if not isinstance(node, ast.Call):
                    continue
                dotted = dotted_name(node.func)
                if dotted is None or dotted.rpartition(".")[2] != "begin_step" or dotted.split(".")[0] not in aliases:
                    continue
                if _closes_arena(scope):
                    continue
                callers = _callers(ctx.scopes, scope)
                unclosed = sorted(caller.qualname for caller in callers if not _closes_arena(caller))
                if callers and not unclosed:
                    continue
                via = f" (callers without a finally: {', '.join(unclosed)})" if unclosed else ""
                yield self.diag(
                    ctx,
                    node,
                    f"arena {dotted}() is not balanced by end_run in a finally — "
                    f"neither here nor in every caller{via}; leaked workspaces "
                    "grow unbounded across steps",
                )
