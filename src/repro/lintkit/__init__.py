"""repro.lintkit — per-file AST invariant checks for this codebase.

The reproduction's correctness rests on conventions a generic linter
cannot see: seeded-``Generator`` determinism (the fused/batched kernel
oracles assert bit-identical outputs), :mod:`repro.runtime`'s
write-through flag mirrors, the single canonical hash recipe, and the
:mod:`repro.obs` metric/span namespace.  This package checks them
statically (stdlib :mod:`ast` only) with a pluggable checker registry.
Every rule reads one file at a time and resolves names only inside it;
RL008–RL011 reason function by function over the file's scopes:

========  =======================  =============================================
code      rule                     invariant
========  =======================  =============================================
RL001     determinism              no legacy ``np.random.*`` global-state calls;
                                   no argless ``default_rng()``
RL002     flag-discipline          no value-imports of runtime flags/mirrors
RL003     single-hash              ``hashlib`` only inside ``repro.runtime``
RL004     exception-hygiene        broad ``except`` must re-raise or publish obs
RL005     obs-catalog              obs names dotted-lowercase and catalogued in
                                   ``obs_catalog.json``
RL006     float-equality           no ``==``/``!=`` on float expressions
RL007     backend-impl             numeric kernels go through the backend table
RL008     rng-lineage              every ``default_rng`` seed traces to the
                                   canonical hash recipe or a threaded seed arg,
                                   through same-file helpers only
RL009     determinism-ordering     no iteration over set-typed expressions
RL010     dtype-discipline         backend functions never mix f32/f64 without
                                   an explicit cast
RL011     paired-resource          ``obs.span``/``sample_window`` and imported
                                   arena ``begin_step`` closed on all paths
========  =======================  =============================================

Run it as ``repro5g lint`` or ``python -m repro.lintkit``; line-scoped
opt-outs are ``# lint: bit-identical`` (RL006) and
``# lint: disable=RL00X``, and ``--format sarif`` emits code-scanning
annotations.  See README "Static analysis" and DESIGN §6d.
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
from .catalog import (
    CATALOG_SCHEMA,
    ObsNameSite,
    default_catalog_path,
    harvest_module,
    load_catalog,
    valid_obs_name,
    write_catalog,
)
from .runner import (
    JSON_REPORT_SCHEMA,
    LintResult,
    build_context,
    default_root,
    lint_paths,
    run_cli,
)
from .sarif import to_sarif

# importing this registers RL001-RL011
from . import checkers as _checkers  # noqa: F401

__all__ = [
    "CATALOG_SCHEMA",
    "Checker",
    "Diagnostic",
    "FileContext",
    "JSON_REPORT_SCHEMA",
    "LintResult",
    "ObsNameSite",
    "build_context",
    "default_catalog_path",
    "default_root",
    "dotted_name",
    "harvest_module",
    "lint_paths",
    "load_catalog",
    "make_checkers",
    "parse_suppressions",
    "register",
    "registered_checkers",
    "run_cli",
    "to_sarif",
    "valid_obs_name",
    "write_catalog",
]
