"""repro.lintkit — AST and whole-program invariant checks for this codebase.

The reproduction's correctness rests on conventions a generic linter
cannot see: seeded-``Generator`` determinism (the fused/batched kernel
oracles assert bit-identical outputs), :mod:`repro.runtime`'s
write-through flag mirrors, the single canonical hash recipe, and the
:mod:`repro.obs` metric/span namespace.  This package checks them
statically (stdlib :mod:`ast` only) with a pluggable checker registry.
Rules RL001–RL007 are per-file AST passes; RL008–RL012 are
whole-program rules that run over a project-wide symbol table and
import/call graph built in the same sweep (see
:mod:`repro.lintkit.project`):

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
                                   canonical hash recipe or a threaded seed arg
RL009     determinism-ordering     no set iteration on paths feeding
                                   ``canonical_hash``/``ShardPlan``
RL010     dtype-discipline         backend primitives never mix f32/f64 without
                                   an explicit cast
RL011     paired-resource          ``obs.span``/``sample_window``/arena
                                   ``begin_step`` closed on all paths
RL012     registry-coverage        registered names resolvable and reachable
                                   from the CLI
========  =======================  =============================================

Run it as ``repro5g lint`` or ``python -m repro.lintkit``; line-scoped
opt-outs are ``# lint: bit-identical`` (RL006) and
``# lint: disable=RL00X``.  Re-runs are incremental (content-hash cache,
``--no-cache`` to bypass) and ``--format sarif`` emits code-scanning
annotations.  See README "Static analysis" and DESIGN §6d/§6e.
"""

from __future__ import annotations

from .base import (
    Checker,
    Diagnostic,
    FileContext,
    ProjectRule,
    dotted_name,
    make_checkers,
    parse_suppressions,
    register,
    registered_checkers,
)
from .cache import default_cache_path
from .catalog import (
    CATALOG_SCHEMA,
    ObsNameSite,
    default_catalog_path,
    harvest_module,
    load_catalog,
    valid_obs_name,
    write_catalog,
)
from .project import (
    FACTS_SCHEMA,
    FunctionFacts,
    ModuleFacts,
    ProjectContext,
    extract_module_facts,
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

# importing these registers RL001-RL007 and RL008-RL012 respectively
from . import checkers as _checkers  # noqa: F401
from . import project_rules as _project_rules  # noqa: F401

__all__ = [
    "CATALOG_SCHEMA",
    "Checker",
    "Diagnostic",
    "FACTS_SCHEMA",
    "FileContext",
    "FunctionFacts",
    "JSON_REPORT_SCHEMA",
    "LintResult",
    "ModuleFacts",
    "ObsNameSite",
    "ProjectContext",
    "ProjectRule",
    "build_context",
    "default_cache_path",
    "default_catalog_path",
    "default_root",
    "dotted_name",
    "extract_module_facts",
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
