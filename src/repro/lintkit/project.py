"""Whole-program facts and symbol resolution for :mod:`repro.lintkit`.

PR 5's checkers each walk one module AST, so they can only enforce
invariants visible inside a single file.  The flow-sensitive rules
(RL008–RL012) need to reason *across* modules: a seed threaded through
three call sites, a set iteration two calls below ``canonical_hash``,
a registry entry whose factory lives in another package.  This module
supplies that view in two phases:

1. **Extraction** — :func:`extract_module_facts` distills each parsed
   module into a :class:`ModuleFacts` record: the symbols it defines,
   the imports/aliases it binds, and per-function :class:`FunctionFacts`
   (raw call targets, RNG seed sites, unordered-iteration sites,
   resource open/close sites, dtype mentions, registrations).  Facts
   are pure data — JSON round-trippable — which is what makes the
   runner's content-hash cache possible: an unchanged file's facts are
   reloaded instead of re-parsed.
2. **Linking** — :class:`ProjectContext` joins all facts into a
   project-wide symbol table, import graph and approximate call graph,
   and offers the resolution/reachability queries the project rules in
   :mod:`repro.lintkit.project_rules` are written against.

The call graph is a deliberately modest approximation (DESIGN §6e
documents the precision contract): calls are resolved through import
aliases, same-module definitions, ``self``/``cls`` receivers and
annotated parameters.  Calls on untyped locals, higher-order values or
``getattr`` stay unresolved — rules treat unresolved edges
conservatively in whichever direction keeps false positives low.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from .base import FileContext, dotted_name

#: bumped whenever extraction semantics change, so cached facts from an
#: older lintkit never feed the project pass (folded into cache keys).
FACTS_SCHEMA = "repro-lint-facts-v2"

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


def _json_site(line: int, col: int, **extra: object) -> Dict[str, object]:
    payload: Dict[str, object] = {"line": line, "col": col}
    payload.update(extra)
    return payload


@dataclass
class SeedSite:
    """One ``default_rng(seed)`` call and the verdict on its seed expr.

    ``status`` is ``"ok"`` (lineage proven locally), ``"bad"`` (a
    forbidden origin, ``why`` says which), or ``"deps"`` (locally clean
    but derived through project calls listed in ``deps`` — the project
    pass must prove each callee's return value is itself traced).
    """

    line: int
    col: int
    status: str
    why: str = ""
    deps: List[str] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return _json_site(self.line, self.col, status=self.status, why=self.why, deps=list(self.deps))

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "SeedSite":
        return SeedSite(
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            status=str(data["status"]),
            why=str(data.get("why", "")),
            deps=[str(d) for d in data.get("deps", [])],  # type: ignore[union-attr]
        )


@dataclass
class FunctionFacts:
    """Everything the project rules need to know about one function."""

    qualname: str  #: module-relative, e.g. ``Trainer.fit`` or ``<module>``
    name: str
    cls: str  #: enclosing class name, ``""`` for free functions
    line: int
    col: int
    params: List[str] = field(default_factory=list)
    annotations: Dict[str, str] = field(default_factory=dict)  #: param -> raw dotted annotation
    calls: List[str] = field(default_factory=list)  #: raw dotted call targets (sorted, unique)
    seed_sites: List[SeedSite] = field(default_factory=list)
    set_iter_sites: List[Dict[str, object]] = field(default_factory=list)
    cm_leaks: List[Dict[str, object]] = field(default_factory=list)
    arena_opens: List[Dict[str, object]] = field(default_factory=list)
    closes_arena: bool = False  #: calls ``end_run`` inside a ``finally``
    returns_traced: Optional[bool] = None  #: every return expr has seed-grade lineage
    dtype32: bool = False
    dtype64: bool = False
    has_astype: bool = False

    def to_json(self) -> Dict[str, object]:
        return {
            "qualname": self.qualname,
            "name": self.name,
            "cls": self.cls,
            "line": self.line,
            "col": self.col,
            "params": list(self.params),
            "annotations": dict(self.annotations),
            "calls": list(self.calls),
            "seed_sites": [s.to_json() for s in self.seed_sites],
            "set_iter_sites": list(self.set_iter_sites),
            "cm_leaks": list(self.cm_leaks),
            "arena_opens": list(self.arena_opens),
            "closes_arena": self.closes_arena,
            "returns_traced": self.returns_traced,
            "dtype32": self.dtype32,
            "dtype64": self.dtype64,
            "has_astype": self.has_astype,
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "FunctionFacts":
        traced = data.get("returns_traced")
        return FunctionFacts(
            qualname=str(data["qualname"]),
            name=str(data["name"]),
            cls=str(data["cls"]),
            line=int(data["line"]),  # type: ignore[arg-type]
            col=int(data["col"]),  # type: ignore[arg-type]
            params=[str(p) for p in data.get("params", [])],  # type: ignore[union-attr]
            annotations={str(k): str(v) for k, v in dict(data.get("annotations", {})).items()},  # type: ignore[arg-type]
            calls=[str(c) for c in data.get("calls", [])],  # type: ignore[union-attr]
            seed_sites=[SeedSite.from_json(s) for s in data.get("seed_sites", [])],  # type: ignore[union-attr]
            set_iter_sites=[dict(s) for s in data.get("set_iter_sites", [])],  # type: ignore[union-attr]
            cm_leaks=[dict(s) for s in data.get("cm_leaks", [])],  # type: ignore[union-attr]
            arena_opens=[dict(s) for s in data.get("arena_opens", [])],  # type: ignore[union-attr]
            closes_arena=bool(data.get("closes_arena", False)),
            returns_traced=None if traced is None else bool(traced),
            dtype32=bool(data.get("dtype32", False)),
            dtype64=bool(data.get("dtype64", False)),
            has_astype=bool(data.get("has_astype", False)),
        )


@dataclass
class ModuleFacts:
    """The serializable distillation of one parsed module."""

    module: str
    package: str
    display_path: str
    suppressions: Dict[int, List[str]] = field(default_factory=dict)
    aliases: Dict[str, str] = field(default_factory=dict)  #: local name -> absolute dotted target
    imports: List[str] = field(default_factory=list)  #: absolute imported module candidates
    literals: Dict[str, List[str]] = field(default_factory=dict)  #: top-level str-tuple constants
    classes: Dict[str, List[str]] = field(default_factory=dict)  #: class -> method names
    functions: List[FunctionFacts] = field(default_factory=list)
    registrations: List[Dict[str, object]] = field(default_factory=list)
    obs_sites: List[Dict[str, object]] = field(default_factory=list)

    def to_json(self) -> Dict[str, object]:
        return {
            "module": self.module,
            "package": self.package,
            "display_path": self.display_path,
            "suppressions": {str(line): sorted(codes) for line, codes in self.suppressions.items()},
            "aliases": dict(self.aliases),
            "imports": list(self.imports),
            "literals": {k: list(v) for k, v in self.literals.items()},
            "classes": {k: list(v) for k, v in self.classes.items()},
            "functions": [f.to_json() for f in self.functions],
            "registrations": list(self.registrations),
            "obs_sites": list(self.obs_sites),
        }

    @staticmethod
    def from_json(data: Mapping[str, object]) -> "ModuleFacts":
        return ModuleFacts(
            module=str(data["module"]),
            package=str(data["package"]),
            display_path=str(data["display_path"]),
            suppressions={
                int(line): [str(c) for c in codes]
                for line, codes in dict(data.get("suppressions", {})).items()  # type: ignore[arg-type]
            },
            aliases={str(k): str(v) for k, v in dict(data.get("aliases", {})).items()},  # type: ignore[arg-type]
            imports=[str(m) for m in data.get("imports", [])],  # type: ignore[union-attr]
            literals={
                str(k): [str(i) for i in v]
                for k, v in dict(data.get("literals", {})).items()  # type: ignore[arg-type]
            },
            classes={
                str(k): [str(m) for m in v]
                for k, v in dict(data.get("classes", {})).items()  # type: ignore[arg-type]
            },
            functions=[FunctionFacts.from_json(f) for f in data.get("functions", [])],  # type: ignore[union-attr]
            registrations=[dict(r) for r in data.get("registrations", [])],  # type: ignore[union-attr]
            obs_sites=[dict(s) for s in data.get("obs_sites", [])],  # type: ignore[union-attr]
        )

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line)
        if not codes:
            return False
        return code in codes or "all" in codes


# ---------------------------------------------------------------------------
# extraction


def _resolve_relative_module(package: str, node: ast.ImportFrom) -> Optional[str]:
    """Absolute dotted module for an ImportFrom (handles relative levels)."""
    if node.level == 0:
        return node.module
    base = package.split(".") if package else []
    drop = node.level - 1
    if drop > len(base):
        return None
    if drop:
        base = base[:-drop]
    if node.module:
        base = base + node.module.split(".")
    return ".".join(base) if base else None


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


class _SeedClassifier:
    """Classifies a seed expression's lineage inside one function scope."""

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


def _local_assignments(fn: ast.AST) -> Dict[str, List[ast.expr]]:
    """name -> every expression assigned to it inside ``fn`` (flat scan)."""
    values: Dict[str, List[ast.expr]] = {}

    def record(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            values.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, value)

    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, ast.AugAssign):
            record(node.target, node.value)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            record(node.target, node.value)
        elif isinstance(node, ast.For):
            record(node.target, node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in node.generators:
                record(generator.target, generator.iter)
    return values


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


def _param_names(args: ast.arguments) -> List[str]:
    params = [a.arg for a in args.posonlyargs] if hasattr(args, "posonlyargs") else []
    params += [a.arg for a in args.args] + [a.arg for a in args.kwonlyargs]
    if args.vararg is not None:
        params.append(args.vararg.arg)
    if args.kwarg is not None:
        params.append(args.kwarg.arg)
    return params


def _param_annotations(args: ast.arguments) -> Dict[str, str]:
    annotations: Dict[str, str] = {}
    all_args = list(getattr(args, "posonlyargs", [])) + list(args.args) + list(args.kwonlyargs)
    for arg in all_args:
        if arg.annotation is None:
            continue
        ann: ast.expr = arg.annotation
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            # string annotation: keep the raw text, dotted or plain
            annotations[arg.arg] = ann.value.strip().strip('"')
            continue
        if isinstance(ann, ast.Subscript):  # Optional[X] / List[X]
            inner = ann.slice
            if inner.__class__.__name__ == "Index":  # py<3.9 compat shim in ast
                inner = inner.value  # type: ignore[attr-defined]
            ann = inner  # type: ignore[assignment]
        dotted = dotted_name(ann)
        if dotted is not None:
            annotations[arg.arg] = dotted
    return annotations


def _extract_function_facts(
    node: ast.AST,
    qualname: str,
    name: str,
    cls: str,
    line: int,
    col: int,
    params: Set[str],
    annotations: Dict[str, str],
    module_constants: Set[str],
) -> FunctionFacts:
    facts = FunctionFacts(
        qualname=qualname,
        name=name,
        cls=cls,
        line=line,
        col=col,
        params=sorted(params),
        annotations=annotations,
    )
    local_values = _local_assignments(node)
    # nested defs and lambdas share the record: their params count as
    # threaded arguments for seed-lineage purposes
    params = set(params)
    for sub in ast.walk(node):
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)) and sub is not node:
            params.update(_param_names(sub.args))

    calls: Set[str] = set()
    with_expr_ids: Set[int] = set()
    returned_ids: Set[int] = set()
    with_names: Set[str] = set()
    assigned_call_ids: Dict[int, str] = {}
    finally_call_tails: Set[str] = set()
    return_values: List[Optional[ast.expr]] = []

    for sub in ast.walk(node):
        if isinstance(sub, ast.With) or isinstance(sub, ast.AsyncWith):
            for item in sub.items:
                with_expr_ids.add(id(item.context_expr))
                if isinstance(item.context_expr, ast.Name):
                    with_names.add(item.context_expr.id)
        elif isinstance(sub, ast.Return):
            return_values.append(sub.value)
            if sub.value is not None:
                returned_ids.add(id(sub.value))
        elif isinstance(sub, ast.Assign):
            for target in sub.targets:
                if isinstance(target, ast.Name) and isinstance(sub.value, ast.Call):
                    assigned_call_ids[id(sub.value)] = target.id
        elif isinstance(sub, ast.Try):
            for stmt in sub.finalbody:
                for inner in ast.walk(stmt):
                    if isinstance(inner, ast.Call):
                        dotted = dotted_name(inner.func)
                        if dotted is not None:
                            finally_call_tails.add(dotted.split(".")[-1])

    facts.closes_arena = "end_run" in finally_call_tails

    for sub in ast.walk(node):
        if isinstance(sub, (ast.Attribute, ast.Constant)):
            text = sub.attr if isinstance(sub, ast.Attribute) else sub.value
            if text == "float32":
                facts.dtype32 = True
            elif text == "float64":
                facts.dtype64 = True
            continue
        if isinstance(sub, ast.For):
            found = _is_unordered_expr(sub.iter, local_values)
            if found is not None:
                facts.set_iter_sites.append(_json_site(sub.lineno, sub.col_offset + 1, desc=found))
            continue
        if isinstance(sub, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            for generator in sub.generators:
                found = _is_unordered_expr(generator.iter, local_values)
                if found is not None:
                    facts.set_iter_sites.append(_json_site(sub.lineno, sub.col_offset + 1, desc=found))
            continue
        if not isinstance(sub, ast.Call):
            continue
        # astype on any receiver counts, including non-name chains like
        # ``(x * a).astype(...)`` that dotted_name cannot render
        if isinstance(sub.func, ast.Attribute) and sub.func.attr == "astype":
            facts.has_astype = True
        dotted = dotted_name(sub.func)
        if dotted is None:
            continue
        calls.add(dotted)
        tail = dotted.split(".")[-1]
        if tail == "default_rng" and (sub.args or sub.keywords):
            seed_expr: Optional[ast.expr] = sub.args[0] if sub.args else None
            if seed_expr is None:
                for keyword in sub.keywords:
                    if keyword.arg == "seed":
                        seed_expr = keyword.value
            classifier = _SeedClassifier(params, local_values, module_constants)
            status, why = classifier.classify(seed_expr)
            facts.seed_sites.append(
                SeedSite(
                    line=sub.lineno,
                    col=sub.col_offset + 1,
                    status=status,
                    why=why,
                    deps=sorted(set(classifier.deps)),
                )
            )
        if tail in ("span", "sample_window"):
            ok = (
                id(sub) in with_expr_ids
                or id(sub) in returned_ids
                or assigned_call_ids.get(id(sub)) in with_names
                or any(k.arg == "force" for k in sub.keywords)
            )
            if not ok:
                facts.cm_leaks.append(_json_site(sub.lineno, sub.col_offset + 1, name=dotted))
        if tail == "begin_step":
            facts.arena_opens.append(_json_site(sub.lineno, sub.col_offset + 1, name=dotted))

    facts.calls = sorted(calls)

    if return_values:
        traced = True
        for value in return_values:
            if value is None:
                traced = False
                break
            classifier = _SeedClassifier(params, local_values, module_constants)
            status, _ = classifier.classify(value)
            if status != "ok":
                traced = False
                break
        facts.returns_traced = traced
    return facts


def extract_module_facts(ctx: FileContext) -> ModuleFacts:
    """Distill one parsed module into serializable whole-program facts."""
    facts = ModuleFacts(
        module=ctx.module,
        package=ctx.package,
        display_path=ctx.display_path,
        suppressions={line: sorted(codes) for line, codes in ctx.suppressions.items()},
    )

    # -- imports and aliases (module- and function-scoped; function
    # aliases join the module map, which is imprecise under shadowing
    # but keeps lazy-import call resolution working)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                facts.imports.append(alias.name)
                local = alias.asname or alias.name.split(".")[0]
                facts.aliases[local] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = _resolve_relative_module(ctx.package, node)
            if base is None:
                continue
            facts.imports.append(base)
            for alias in node.names:
                if alias.name == "*":
                    continue
                facts.imports.append(f"{base}.{alias.name}")
                facts.aliases[alias.asname or alias.name] = f"{base}.{alias.name}"

    module_constants: Set[str] = set()
    top_level_functions: List[Tuple[ast.AST, str, str, str]] = []

    def record_registration(call: ast.Call, target: str) -> None:
        dotted = dotted_name(call.func)
        if dotted is None:
            return
        tail = dotted.split(".")[-1]
        if tail != "register_predictor" or not call.args:
            return
        name_arg = call.args[0]
        if not (isinstance(name_arg, ast.Constant) and isinstance(name_arg.value, str)):
            return
        factory = ""
        if len(call.args) > 1:
            factory = dotted_name(call.args[1]) or ""
        facts.registrations.append(
            {
                "kind": "predictor",
                "name": name_arg.value,
                "line": call.lineno,
                "col": call.col_offset + 1,
                "target": target or factory,
            }
        )

    body = ctx.tree.body if isinstance(ctx.tree, ast.Module) else []
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            top_level_functions.append((node, node.name, node.name, ""))
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    record_registration(decorator, node.name)
        elif isinstance(node, ast.ClassDef):
            for decorator in node.decorator_list:
                if isinstance(decorator, ast.Call):
                    record_registration(decorator, node.name)
            methods: List[str] = []
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    methods.append(item.name)
                    top_level_functions.append((item, f"{node.name}.{item.name}", item.name, node.name))
                    for decorator in item.decorator_list:
                        if isinstance(decorator, ast.Call):
                            record_registration(decorator, f"{node.name}.{item.name}")
            facts.classes[node.name] = methods
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            value = node.value
            if value is None:
                continue
            for target in targets:
                if not isinstance(target, ast.Name):
                    continue
                items = _string_tuple(value)
                if items is not None:
                    facts.literals[target.id] = items
                if isinstance(value, ast.Constant):
                    module_constants.add(target.id)

    # call-based registrations anywhere in the module (module body or
    # inside functions — e.g. conditional registration)
    for node in ast.walk(ctx.tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            record_registration(node.value, "")

    # -- per-function facts, plus a synthetic "<module>" record for
    # module-level statements (class bodies and decorators included)
    function_nodes = {id(fn_node) for fn_node, _, _, _ in top_level_functions}

    for fn_node, qualname, name, cls in top_level_functions:
        assert isinstance(fn_node, (ast.FunctionDef, ast.AsyncFunctionDef))
        facts.functions.append(
            _extract_function_facts(
                fn_node,
                qualname,
                name,
                cls,
                fn_node.lineno,
                fn_node.col_offset + 1,
                set(_param_names(fn_node.args)),
                _param_annotations(fn_node.args),
                module_constants,
            )
        )

    module_level = [node for node in body if id(node) not in function_nodes]
    # prune function bodies inside classes so module-level facts don't
    # double-count method internals
    pruned: List[ast.stmt] = []
    for node in module_level:
        if isinstance(node, ast.ClassDef):
            class_rest = [item for item in node.body if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))]
            clone = ast.ClassDef(
                name=node.name,
                bases=node.bases,
                keywords=node.keywords,
                body=class_rest or [ast.Pass()],
                decorator_list=node.decorator_list,
            )
            ast.copy_location(clone, node)
            ast.fix_missing_locations(clone)
            pruned.append(clone)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        else:
            pruned.append(node)
    module_proxy = ast.Module(body=pruned, type_ignores=[])
    facts.functions.append(
        _extract_function_facts(
            module_proxy,
            "<module>",
            "<module>",
            "",
            1,
            1,
            set(),
            {},
            module_constants,
        )
    )

    from . import catalog as _catalog

    for site in _catalog.harvest_module(ctx.tree, ctx.module, ctx.display_path):
        facts.obs_sites.append(
            {
                "name": site.name,
                "kind": site.kind,
                "module": site.module,
                "path": site.path,
                "line": site.line,
                "col": site.col,
                "dynamic": site.dynamic,
            }
        )
    return facts


# ---------------------------------------------------------------------------
# linking


class ProjectContext:
    """Project-wide symbol table, import graph and approximate call graph.

    Built once per lint run from every module's :class:`ModuleFacts`
    (freshly extracted or reloaded from the incremental cache), then
    handed to each :class:`~repro.lintkit.base.ProjectRule`.
    """

    def __init__(self, modules: Sequence[ModuleFacts]) -> None:
        self.modules: Dict[str, ModuleFacts] = {}
        for mf in modules:
            self.modules[mf.module] = mf
        #: "module.Qual.name" -> (ModuleFacts, FunctionFacts)
        self.functions: Dict[str, Tuple[ModuleFacts, FunctionFacts]] = {}
        #: "module.Class" -> class methods
        self.class_methods: Dict[str, List[str]] = {}
        for mf in self.modules.values():
            for fn in mf.functions:
                if fn.qualname != "<module>":
                    self.functions[f"{mf.module}.{fn.qualname}"] = (mf, fn)
            for cls, methods in mf.classes.items():
                self.class_methods[f"{mf.module}.{cls}"] = methods
        self._import_edges: Dict[str, Set[str]] = {
            mf.module: {m for m in mf.imports if m in self.modules and m != mf.module}
            for mf in self.modules.values()
        }
        # importing a submodule implicitly imports its ancestor
        # packages (and executing a package body is what imports the
        # submodule at runtime), so close edges over the package chain
        for mf in self.modules.values():
            parts = mf.module.split(".")
            for i in range(1, len(parts)):
                parent = ".".join(parts[:i])
                if parent in self.modules:
                    self._import_edges[mf.module].add(parent)
        self._callers: Optional[Dict[str, Set[str]]] = None

    # -- symbol resolution ---------------------------------------------------

    def normalize(self, full: str) -> List[str]:
        """Project function keys for an absolute dotted target.

        A constructor call (``pkg.mod.Class``) resolves to the class's
        ``__init__``/``__post_init__`` methods when present; an empty
        list means the target is not a project function.
        """
        parts = full.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module not in self.modules:
                continue
            rest = ".".join(parts[cut:])
            key = f"{module}.{rest}"
            if key in self.functions:
                return [key]
            if key in self.class_methods:
                inits = [
                    f"{key}.{method}"
                    for method in ("__init__", "__post_init__", "__new__")
                    if f"{key}.{method}" in self.functions
                ]
                return inits
            return []
        return []

    def resolve_call(self, mf: ModuleFacts, fn: FunctionFacts, raw: str) -> List[str]:
        """Project function keys a raw dotted call may target (approximate)."""
        parts = raw.split(".")
        head = parts[0]
        if head in ("self", "cls"):
            if fn.cls and len(parts) == 2 and parts[1] in mf.classes.get(fn.cls, []):
                return [f"{mf.module}.{fn.cls}.{parts[1]}"]
            return []
        if head in mf.aliases:
            target = mf.aliases[head]
            if target != head:
                return self.normalize(".".join([target] + parts[1:]))
        if f"{mf.module}.{raw}" in self.functions:
            return [f"{mf.module}.{raw}"]
        if raw in mf.classes:
            return self.normalize(f"{mf.module}.{raw}")
        if len(parts) >= 2 and head in mf.classes and parts[1] in mf.classes[head]:
            return [f"{mf.module}.{head}.{parts[1]}"]
        annotation = fn.annotations.get(head)
        if annotation is not None and len(parts) >= 2:
            for cls_key in self._annotation_classes(mf, annotation):
                if parts[1] in self.class_methods.get(cls_key, []):
                    return [f"{cls_key}.{parts[1]}"]
        return []

    def _annotation_classes(self, mf: ModuleFacts, annotation: str) -> List[str]:
        head = annotation.split(".")[0]
        if annotation in mf.classes:
            return [f"{mf.module}.{annotation}"]
        if head in mf.aliases:
            target = ".".join([mf.aliases[head]] + annotation.split(".")[1:])
            parts = target.split(".")
            for cut in range(len(parts) - 1, 0, -1):
                module = ".".join(parts[:cut])
                if module in self.modules:
                    key = f"{module}.{'.'.join(parts[cut:])}"
                    if key in self.class_methods:
                        return [key]
        # fall back: a uniquely-named project class matches by basename
        tail = annotation.split(".")[-1]
        matches = [key for key in self.class_methods if key.split(".")[-1] == tail]
        return matches if len(matches) == 1 else []

    # -- graph queries -------------------------------------------------------

    def callees(self, key: str) -> Set[str]:
        mf, fn = self.functions[key]
        resolved: Set[str] = set()
        for raw in fn.calls:
            resolved.update(self.resolve_call(mf, fn, raw))
        return resolved

    def callers_of(self, key: str) -> Set[str]:
        if self._callers is None:
            callers: Dict[str, Set[str]] = {}
            for source in self.functions:
                for target in self.callees(source):
                    callers.setdefault(target, set()).add(source)
            self._callers = callers
        return self._callers.get(key, set())

    def callee_closure(self, seeds: Set[str]) -> Set[str]:
        """``seeds`` plus every project function transitively called."""
        seen = set(seeds)
        frontier = list(seeds)
        while frontier:
            current = frontier.pop()
            if current not in self.functions:
                continue
            for callee in self.callees(current):
                if callee not in seen:
                    seen.add(callee)
                    frontier.append(callee)
        return seen

    def import_reachable(self, start: str) -> Set[str]:
        """Modules transitively imported from ``start`` (inclusive)."""
        if start not in self.modules:
            return set()
        seen = {start}
        frontier = [start]
        while frontier:
            current = frontier.pop()
            for target in self._import_edges.get(current, ()):  # pragma: no branch
                if target not in seen:
                    seen.add(target)
                    frontier.append(target)
        return seen

    def iter_functions(self) -> Iterator[Tuple[ModuleFacts, FunctionFacts]]:
        for mf in self.modules.values():
            for fn in mf.functions:
                yield mf, fn

    def string_literals(self, name: str) -> Dict[str, List[str]]:
        """module -> items, for every top-level str-tuple named ``name``."""
        found: Dict[str, List[str]] = {}
        for mf in self.modules.values():
            if name in mf.literals:
                found[mf.module] = mf.literals[name]
        return found
