"""File walking, checker orchestration and report formatting.

:func:`lint_paths` is the one entry point, and linting is one per-file
pass: each module is parsed once, every selected checker (RL001,
RL003–RL010) runs over the shared AST, and line-scoped suppressions are
filtered centrally.  No step looks across files.

The CLI (``repro5g lint`` and ``python -m repro.lintkit``) is a thin
argparse wrapper: explicit paths (a pre-commit hook passes the changed
files), ``--format text|json|sarif``, ``--rules`` and ``--list-rules``.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence

from . import sarif as _sarif
from .base import (
    Diagnostic,
    FileContext,
    make_checkers,
    parse_suppressions,
    registered_checkers,
)

#: directories never descended into while walking lint roots
_SKIP_DIRS = frozenset({"__pycache__", ".git", ".repro-obs", "build", "dist"})

#: report format produced by ``--format=json``
JSON_REPORT_SCHEMA = "repro-lint-report-v1"


def default_root() -> Path:
    """The installed ``repro`` package directory (works from any cwd)."""
    return Path(__file__).resolve().parents[1]


def iter_python_files(roots: Sequence[Path]) -> Iterator[Path]:
    for root in roots:
        if root.is_file():
            if root.suffix == ".py":
                yield root
            continue
        for path in sorted(root.rglob("*.py")):
            parts = set(path.parts)
            if parts & _SKIP_DIRS or any(p.endswith(".egg-info") for p in path.parts):
                continue
            yield path


def module_name_for(path: Path) -> str:
    """Dotted module name (``repro.ran.ca``) for files under a ``repro`` tree.

    Files outside any ``repro`` package (e.g. test fixture snippets)
    fall back to their stem so rules keyed on module identity
    (RL003's exemption, RL007's dispatch modules) simply never match them.
    """
    resolved = path.resolve()
    parts = list(resolved.with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return ".".join(parts[i:])
    return parts[-1] if parts else ""


def build_context(path: Path, source: Optional[str] = None) -> FileContext:
    if source is None:
        source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    module = module_name_for(path)
    try:
        display = str(path.resolve().relative_to(Path.cwd()))
    except ValueError:
        display = str(path)
    return FileContext(
        path=path,
        display_path=display,
        module=module,
        source=source,
        tree=tree,
        suppressions=parse_suppressions(source),
    )


@dataclass
class LintResult:
    diagnostics: List[Diagnostic] = field(default_factory=list)
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.diagnostics

    def to_json(self) -> str:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        payload = {
            "schema": JSON_REPORT_SCHEMA,
            "files_checked": self.files_checked,
            "ok": self.ok,
            "counts": dict(sorted(counts.items())),
            "diagnostics": [d.to_json() for d in sorted(self.diagnostics)],
        }
        return json.dumps(payload, indent=2)

    def to_sarif(self) -> str:
        return json.dumps(_sarif.to_sarif(self.diagnostics), indent=2)

    def to_text(self) -> str:
        lines = [d.format() for d in sorted(self.diagnostics)]
        tail = (
            f"{len(self.diagnostics)} violation(s) in {self.files_checked} file(s)"
            if self.diagnostics
            else f"ok: {self.files_checked} file(s) clean"
        )
        return "\n".join([*lines, tail])


def lint_paths(
    paths: Optional[Sequence[Path]] = None,
    rules: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint files/directories and return every surviving diagnostic."""
    roots = [Path(p) for p in paths] if paths else [default_root()]
    checkers = make_checkers(rules)

    result = LintResult()
    for path in iter_python_files(roots):
        try:
            ctx = build_context(path)
        except (OSError, UnicodeDecodeError, SyntaxError) as exc:
            result.diagnostics.append(
                Diagnostic(
                    path=str(path),
                    line=getattr(exc, "lineno", None) or 1,
                    col=1,
                    code="RL000",
                    message=f"could not parse file: {exc}",
                )
            )
            continue
        result.files_checked += 1
        for checker in checkers:
            result.diagnostics.extend(
                d for d in checker.check(ctx) if not ctx.suppressed(d.line, d.code)
            )
    return result


# ---------------------------------------------------------------------------
# CLI


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to a parser (shared with ``repro5g lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to lint (default: the installed repro package)",
    )
    parser.add_argument(
        "--format",
        dest="fmt",
        default="text",
        choices=["text", "json", "sarif"],
        help="report format (default: text; sarif for code-scanning upload)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule codes to run (default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table and exit",
    )


def build_arg_parser(prog: str = "repro5g lint") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="AST invariant checks for the repro codebase (rules RL001, RL003–RL010)",
    )
    add_lint_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a lint invocation from a parsed namespace; returns exit code."""
    if args.list_rules:
        for code, cls in registered_checkers().items():
            print(f"{code}  {cls.name:<22} {cls.summary}")
        return 0
    rules = [r.strip().upper() for r in args.rules.split(",") if r.strip()] if args.rules else None
    try:
        result = lint_paths(paths=args.paths or None, rules=rules)
    except ValueError as exc:
        print(f"lint: {exc}", file=sys.stderr)
        return 2
    if args.fmt == "json":
        print(result.to_json())
    elif args.fmt == "sarif":
        print(result.to_sarif())
    else:
        print(result.to_text())
    return 0 if result.ok else 1


def run_cli(argv: Optional[Sequence[str]] = None, prog: str = "repro5g lint") -> int:
    return run_from_args(build_arg_parser(prog).parse_args(argv))
