"""The repo-specific invariant checkers (rules RL001, RL003–RL009).

Each checker encodes one contract the reproduction depends on and reads
one file at a time; DESIGN §6d explains why every one of them exists.
In brief:

* **RL001** — bit-identical kernel oracles need seeded ``Generator``
  randomness; legacy global-state ``np.random.*`` breaks replay.
* **RL003** — one hashing recipe (:func:`repro.runtime.canonical_hash`)
  keeps cache keys, run records and run dirs mutually consistent.
* **RL004** — a swallowed exception must at least publish an obs
  counter; silent ``except Exception: pass`` hides corrupted state.
* **RL005** — every literal obs name is dotted lowercase, so a
  malformed metric or warning name fails lint instead of forking a
  time series.
* **RL006** — float/ndarray ``==`` is flaky across kernel paths; use
  ``np.allclose`` (or ``# lint: bit-identical`` in oracle tests).
* **RL007** — the kernel dispatch layer holds no numpy compute; the
  math lives in :mod:`repro.backends`.
* **RL008** — a ``default_rng`` seed is a constant, a threaded
  argument, ``canonical_hash`` output, or a same-file helper's return
  value built from those; wall clocks and pids break replay.
* **RL009** — set iteration order is not replayable, so it never feeds
  a hash or a shard assignment.

RL008 and RL009 read the file's :attr:`~repro.lintkit.base.FileContext.scopes`
and resolve names only inside that file.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Mapping, Optional, Set, Tuple

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
                            "runtime.canonical_hash so every cache key, run record "
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
# RL005 — obs-name shape


#: obs entry points whose first argument is a metric or warning name
_OBS_NAMED_CALLS = frozenset(
    f"{receiver}.{entry}" for receiver in ("obs", "repro.obs") for entry in ("counter", "log_warning")
)

_SEGMENT_RE = re.compile(r"^[a-z][a-z0-9_]*$")


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


def _literal_names(arg: ast.expr) -> Iterator[str]:
    """The names an obs call's first argument can take, as far as the
    AST shows: a literal, both arms of a conditional, or an f-string's
    literal prefix as ``prefix.*``.  A bare variable yields nothing."""
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        yield arg.value
    elif isinstance(arg, ast.IfExp):
        yield from _literal_names(arg.body)
        yield from _literal_names(arg.orelse)
    elif isinstance(arg, ast.JoinedStr):
        prefix = ""
        for part in arg.values:
            if not (isinstance(part, ast.Constant) and isinstance(part.value, str)):
                break
            prefix += part.value
        if prefix:
            yield prefix.rstrip(".") + ".*"


@register
class ObsNameChecker(Checker):
    code = "RL005"
    name = "obs-names"
    summary = "literal obs metric and warning names must be dotted lowercase"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Call) and node.args and dotted_name(node.func) in _OBS_NAMED_CALLS):
                continue
            for name in _literal_names(node.args[0]):
                if not valid_obs_name(name):
                    yield self.diag(
                        ctx,
                        node,
                        f"obs name {name!r} is not dotted-lowercase "
                        "(expected e.g. 'cache.bytes_read'; see DESIGN §6b)",
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
