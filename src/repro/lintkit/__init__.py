"""repro.lintkit — per-file AST invariant checks for this codebase.

The reproduction's correctness rests on conventions a generic linter
cannot see: seeded-``Generator`` determinism (the fused/batched kernel
oracles assert bit-identical outputs), the single canonical hash
recipe, and the :mod:`repro.obs` metric namespace.  This package checks them
statically (stdlib :mod:`ast` only) with a pluggable checker registry.
Every rule reads one file at a time and resolves names only inside it;
RL008–RL010 reason function by function over the file's scopes:

========  =======================  =============================================
code      rule                     invariant
========  =======================  =============================================
RL001     determinism              no legacy ``np.random.*`` global-state calls;
                                   no argless ``default_rng()``
RL003     single-hash              ``hashlib`` only inside ``repro.runtime``
RL004     exception-hygiene        broad ``except`` must re-raise or publish obs
RL005     obs-names                literal obs names are dotted lowercase
RL006     float-equality           no ``==``/``!=`` on float expressions
RL007     backend-impl             numeric kernels go through the backend table
RL008     rng-lineage              every ``default_rng`` seed traces to the
                                   canonical hash recipe or a threaded seed arg,
                                   through same-file helpers only
RL009     determinism-ordering     no iteration over set-typed expressions
RL010     dtype-discipline         backend functions never mix f32/f64 without
                                   an explicit cast
========  =======================  =============================================

Run it as ``repro5g lint`` or ``python -m repro.lintkit``; line-scoped
opt-outs are ``# lint: bit-identical`` (RL006) and
``# lint: disable=RL00X``, and ``--format sarif`` emits code-scanning
annotations.  RL002 (flag-discipline) is retired and its code stays
unused.  See README "Static analysis" and DESIGN §6d.
"""

from __future__ import annotations

from .base import (
    Checker,
    Diagnostic,
    FileContext,
    dotted_name,
    make_checkers,
    parse_suppressions,
    register,
    registered_checkers,
)
# importing this registers RL001 and RL003–RL010
from .checkers import valid_obs_name
from .runner import (
    JSON_REPORT_SCHEMA,
    LintResult,
    build_context,
    default_root,
    lint_paths,
    run_cli,
)
from .sarif import to_sarif

__all__ = [
    "Checker",
    "Diagnostic",
    "FileContext",
    "JSON_REPORT_SCHEMA",
    "LintResult",
    "build_context",
    "default_root",
    "dotted_name",
    "lint_paths",
    "make_checkers",
    "parse_suppressions",
    "register",
    "registered_checkers",
    "run_cli",
    "to_sarif",
    "valid_obs_name",
]
