"""Checker framework for :mod:`repro.lintkit`.

A *checker* is one invariant: it owns a rule code (``RL001``…), walks a
parsed module, and yields :class:`Diagnostic` records with precise
``file:line:col`` positions.  Checkers register themselves in a module
registry so the runner (and the tests) can enumerate them, and so new
invariants are one decorated class away.

Suppression is line-scoped and explicit in the source being linted::

    x == 0.0  # lint: bit-identical          (silences RL006)
    import hashlib  # lint: disable=RL003    (silences the listed codes)

``# lint: disable=all`` silences every rule on that line.  The runner
parses suppressions once per file and filters diagnostics centrally, so
individual checkers never need to know about them.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple, Type

#: matches the whole suppression comment, e.g. ``# lint: disable=RL001,RL003``
_SUPPRESS_RE = re.compile(r"#\s*lint:\s*(?P<directive>[A-Za-z0-9_=,\- ]+)")

#: alias directives: ``# lint: bit-identical`` reads better than
#: ``disable=RL006`` next to an oracle-equivalence comparison.
_DIRECTIVE_ALIASES = {
    "bit-identical": {"RL006"},
    "backend-impl": {"RL007"},
}


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One finding: a rule violation at an exact source position."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }


@dataclass
class Scope:
    """One function of a file, or the module body left around them.

    The per-function rules (RL008, RL009) reason scope by scope: each
    top-level function, each method of a top-level class, and
    ``<module>`` for everything else.  A nested def or lambda belongs
    to its enclosing scope, and its parameters join ``params``.
    """

    qualname: str  #: ``make_key``, ``Trainer.fit`` or ``<module>``
    cls: str  #: enclosing class name, ``""`` for free functions
    node: Optional[ast.AST]  #: the def statement, ``None`` for ``<module>``
    nodes: List[ast.AST]  #: every AST node in the scope
    params: Set[str]
    #: name -> every expression bound to it in the scope (flat scan)
    local_values: Dict[str, List[ast.expr]]

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _param_names(args: ast.arguments) -> List[str]:
    every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    return [arg.arg for arg in every if arg is not None]


def _local_values(nodes: List[ast.AST]) -> Dict[str, List[ast.expr]]:
    values: Dict[str, List[ast.expr]] = {}

    def record(target: ast.expr, value: ast.expr) -> None:
        if isinstance(target, ast.Name):
            values.setdefault(target.id, []).append(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                record(element, value)

    for node in nodes:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                record(target, node.value)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)) and node.value is not None:
            record(node.target, node.value)
        elif isinstance(node, (ast.For, ast.comprehension)):
            record(node.target, node.iter)
    return values


def _scope(qualname: str, cls: str, node: Optional[ast.AST], nodes: List[ast.AST]) -> Scope:
    params = {
        name
        for sub in nodes
        if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        for name in _param_names(sub.args)
    }
    return Scope(qualname, cls, node, nodes, params, _local_values(nodes))


def _file_scopes(tree: ast.AST) -> List[Scope]:
    """Every scope of a module: its functions, its methods, then ``<module>``."""
    defs: List[Tuple[str, str, ast.AST]] = []
    for node in tree.body if isinstance(tree, ast.Module) else []:
        if isinstance(node, _DEFS):
            defs.append((node.name, "", node))
        elif isinstance(node, ast.ClassDef):
            defs.extend(
                (f"{node.name}.{item.name}", node.name, item)
                for item in node.body
                if isinstance(item, _DEFS)
            )
    skip = {id(node) for _, _, node in defs}
    module_nodes: List[ast.AST] = []
    todo = [tree]
    while todo:
        current = todo.pop()
        module_nodes.append(current)
        todo.extend(child for child in ast.iter_child_nodes(current) if id(child) not in skip)
    scopes = [_scope(qualname, cls, node, list(ast.walk(node))) for qualname, cls, node in defs]
    scopes.append(_scope("<module>", "", None, module_nodes))
    return scopes


@dataclass
class FileContext:
    """Everything a checker needs to know about one source file."""

    path: Path
    display_path: str
    module: str
    source: str
    tree: ast.AST
    suppressions: Dict[int, Set[str]] = field(default_factory=dict)

    def suppressed(self, line: int, code: str) -> bool:
        codes = self.suppressions.get(line)
        if not codes:
            return False
        return code in codes or "all" in codes

    @cached_property
    def scopes(self) -> List[Scope]:
        """The file's scopes, built on first use and shared by RL008 and RL009."""
        return _file_scopes(self.tree)


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number → set of rule codes silenced on that line."""
    suppressed: Dict[int, Set[str]] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(text)
        if match is None:
            continue
        codes: Set[str] = set()
        for token in re.split(r"[,\s]+", match.group("directive").strip()):
            if not token:
                continue
            if token in _DIRECTIVE_ALIASES:
                codes |= _DIRECTIVE_ALIASES[token]
            elif token.startswith("disable="):
                for code in token[len("disable="):].split(","):
                    code = code.strip()
                    if code:
                        codes.add("all" if code == "all" else code.upper())
        if codes:
            suppressed[lineno] = codes
    return suppressed


class Checker:
    """Base class: one rule code, one ``check`` pass over a module AST."""

    #: rule code, e.g. ``RL001`` (set by subclasses)
    code: str = ""
    #: short kebab-case rule name, e.g. ``determinism``
    name: str = ""
    #: one-line description shown by ``--list-rules`` and in docs
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def diag(self, ctx: FileContext, node: ast.AST, message: str) -> Diagnostic:
        return Diagnostic(
            path=ctx.display_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message,
        )


_REGISTRY: Dict[str, Type[Checker]] = {}


def register(cls: Type[Checker]) -> Type[Checker]:
    """Class decorator adding a checker to the registry (keyed by code)."""
    if not cls.code:
        raise ValueError(f"checker {cls.__name__} has no rule code")
    if cls.code in _REGISTRY:
        raise ValueError(f"duplicate checker code {cls.code}")
    _REGISTRY[cls.code] = cls
    return cls


def registered_checkers() -> Dict[str, Type[Checker]]:
    """Snapshot of the registry: rule code → checker class (sorted)."""
    return {code: _REGISTRY[code] for code in sorted(_REGISTRY)}


def make_checkers(only: Optional[Iterable[str]] = None) -> List[Checker]:
    """Instantiate registered checkers (optionally a subset of codes)."""
    registry = registered_checkers()
    if only is None:
        return [cls() for cls in registry.values()]
    unknown = sorted(set(only) - set(registry))
    if unknown:
        raise ValueError(f"unknown rule codes {unknown}; known: {sorted(registry)}")
    return [registry[code]() for code in sorted(set(only))]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
