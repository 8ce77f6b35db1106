"""The per-function rules of repro.lintkit (RL008-RL011), module-name
resolution, SARIF output and the ``--fix-catalog`` rework.

Each rule gets pass/fail fixture pairs.  The multi-file fixtures pin
that names resolve only inside the file being linted: a helper, a
caller or a ``finally`` in another module does not count.
"""

import json

from repro.lintkit import lint_paths, registered_checkers
from repro.lintkit.catalog import load_catalog, write_catalog
from repro.lintkit.checkers import ObsCatalogChecker
from repro.lintkit.runner import (
    LintResult,
    _fix_catalog,
    build_context,
    module_name_for,
    run_cli,
)

# ---------------------------------------------------------------------------
# helpers


def lint_project(tmp_path, files, rules):
    proj = tmp_path / "proj"
    proj.mkdir(exist_ok=True)
    for name, source in files.items():
        (proj / name).parent.mkdir(parents=True, exist_ok=True)
        (proj / name).write_text(source, encoding="utf-8")
    return lint_paths([proj], rules=rules, catalog_mode="off")


def codes(result):
    return sorted({d.code for d in result.diagnostics})


# ---------------------------------------------------------------------------
# RL008 rng-lineage


class TestRngLineage:
    def test_wallclock_seed_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "import numpy as np\n"
                    "def f():\n"
                    "    return np.random.default_rng(int(time.time()))\n"
                )
            },
            rules=["RL008"],
        )
        assert codes(result) == ["RL008"]
        assert "canonical_hash" in result.diagnostics[0].message

    def test_threaded_seed_and_canonical_hash_pass(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "from repro.runtime import canonical_hash\n"
                    "def f(seed):\n"
                    "    return np.random.default_rng(seed)\n"
                    "def g(cfg):\n"
                    "    return np.random.default_rng(canonical_hash(cfg))\n"
                )
            },
            rules=["RL008"],
        )
        assert result.ok, result.to_text()

    def test_seed_traced_through_project_helper(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "from repro.runtime import canonical_hash\n"
                    "def derive(cfg):\n"
                    "    return canonical_hash(cfg)\n"
                    "def f(cfg):\n"
                    "    return np.random.default_rng(derive(cfg))\n"
                )
            },
            rules=["RL008"],
        )
        assert result.ok, result.to_text()

    def test_helper_with_untraced_return_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "import numpy as np\n"
                    "def stamp():\n"
                    "    return time.time()\n"
                    "def f():\n"
                    "    return np.random.default_rng(stamp())\n"
                )
            },
            rules=["RL008"],
        )
        assert codes(result) == ["RL008"]
        assert "stamp()" in result.diagnostics[0].message

    def test_unresolvable_seed_source_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import numpy as np\n"
                    "def f():\n"
                    "    return np.random.default_rng(mystery())\n"
                )
            },
            rules=["RL008"],
        )
        assert codes(result) == ["RL008"]
        assert "cannot be traced" in result.diagnostics[0].message

    def test_seed_from_imported_helper_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "helpers.py": (
                    "from repro.runtime import canonical_hash\n"
                    "def derive(cfg):\n"
                    "    return canonical_hash(cfg)\n"
                ),
                "mod.py": (
                    "import numpy as np\n"
                    "from helpers import derive\n"
                    "def f(cfg):\n"
                    "    return np.random.default_rng(derive(cfg))\n"
                ),
            },
            rules=["RL008"],
        )
        assert codes(result) == ["RL008"]
        assert result.diagnostics[0].path.endswith("mod.py")
        assert "cannot be traced" in result.diagnostics[0].message

    def test_suppression_silences_project_rule(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import time\n"
                    "import numpy as np\n"
                    "def f():\n"
                    "    return np.random.default_rng(int(time.time()))  # lint: disable=RL008\n"
                )
            },
            rules=["RL008"],
        )
        assert result.ok, result.to_text()


# ---------------------------------------------------------------------------
# RL009 determinism-ordering


class TestDeterminismOrdering:
    def test_set_iteration_in_hash_closure_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "from repro.runtime import canonical_hash\n"
                    "def collect(items):\n"
                    "    out = []\n"
                    "    for item in {1, 2, 3}:\n"
                    "        out.append(item)\n"
                    "    return out\n"
                    "def make_key(cfg):\n"
                    "    return canonical_hash(collect(cfg))\n"
                )
            },
            rules=["RL009"],
        )
        assert codes(result) == ["RL009"]
        assert "hash-critical" in result.diagnostics[0].message

    def test_sorted_set_iteration_passes(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "from repro.runtime import canonical_hash\n"
                    "def collect(items):\n"
                    "    return [item for item in sorted({1, 2, 3})]\n"
                    "def make_key(cfg):\n"
                    "    return canonical_hash(collect(cfg))\n"
                )
            },
            rules=["RL009"],
        )
        assert result.ok, result.to_text()

    def test_set_iteration_off_hash_path_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "def unrelated(items):\n"
                    "    for item in {1, 2}:\n"
                    "        print(item)\n"
                )
            },
            rules=["RL009"],
        )
        assert codes(result) == ["RL009"]
        assert (result.diagnostics[0].line, result.diagnostics[0].col) == (2, 5)

    def test_shardplan_methods_are_seeds(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "class ShardPlan:\n"
                    "    def assign(self, ues):\n"
                    "        return [u for u in set(ues)]\n"
                )
            },
            rules=["RL009"],
        )
        assert codes(result) == ["RL009"]


# ---------------------------------------------------------------------------
# RL010 dtype-discipline


class TestDtypeDiscipline:
    def test_mixed_precision_primitive_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "kern.py": (
                    "import numpy as np\n"
                    'PRIMITIVES = ("affine_forward",)\n'
                    "def affine_forward(x, weight):\n"
                    "    a = np.float32(1.0)\n"
                    "    b = np.float64(2.0)\n"
                    "    return x * a + b\n"
                )
            },
            rules=["RL010"],
        )
        assert codes(result) == ["RL010"]
        assert "affine_forward" in result.diagnostics[0].message

    def test_explicit_astype_passes(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "kern.py": (
                    "import numpy as np\n"
                    'PRIMITIVES = ("affine_forward",)\n'
                    "def affine_forward(x, weight):\n"
                    "    a = np.float32(1.0)\n"
                    "    return (x * a).astype(np.float64)\n"
                )
            },
            rules=["RL010"],
        )
        assert result.ok, result.to_text()

    def test_mixed_precision_backend_helper_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "repro/backends/numpy_backend.py": (
                    "import numpy as np\n"
                    "def _gates(x):\n"
                    "    return x.astype(np.float32) + np.float64(1.0)\n"
                    "def _scale(x):\n"
                    "    return x * np.float32(0.5) + np.float64(1.0)\n"
                )
            },
            rules=["RL010"],
        )
        assert codes(result) == ["RL010"]
        assert [(d.line, d.col) for d in result.diagnostics] == [(4, 1)]
        assert "_scale" in result.diagnostics[0].message

    def test_non_primitive_function_exempt(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "kern.py": (
                    "import numpy as np\n"
                    'PRIMITIVES = ("affine_forward",)\n'
                    "def helper(x):\n"
                    "    return np.float32(1.0) + np.float64(2.0)\n"
                )
            },
            rules=["RL010"],
        )
        assert result.ok, result.to_text()


# ---------------------------------------------------------------------------
# RL011 paired-resource


class TestPairedResource:
    def test_span_leak_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "from repro import obs\n"
                    "def leaky():\n"
                    '    s = obs.span("demo.step")\n'
                    "    return 1\n"
                )
            },
            rules=["RL011"],
        )
        assert codes(result) == ["RL011"]
        assert "with" in result.diagnostics[0].message

    def test_with_block_return_and_force_pass(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "from repro import obs\n"
                    "def fine():\n"
                    '    with obs.span("demo.step"):\n'
                    "        pass\n"
                    "def forced():\n"
                    '    obs.span("demo.step", force=True)\n'
                    "def handed_back():\n"
                    '    return obs.span("demo.step")\n'
                )
            },
            rules=["RL011"],
        )
        assert result.ok, result.to_text()

    def test_regex_match_span_not_flagged(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "mod.py": (
                    "import re\n"
                    "def f(text):\n"
                    '    m = re.match(r"x", text)\n'
                    "    m.span(0)\n"
                )
            },
            rules=["RL011"],
        )
        assert result.ok, result.to_text()

    def test_unbalanced_arena_open_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "arena_mod.py": "def begin_step():\n    pass\ndef end_run():\n    pass\n",
                "user.py": (
                    "from arena_mod import begin_step, end_run\n"
                    "def leaky():\n"
                    "    begin_step()\n"
                ),
            },
            rules=["RL011"],
        )
        assert codes(result) == ["RL011"]
        assert "finally" in result.diagnostics[0].message

    def test_arena_closed_locally_or_by_every_caller_passes(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "arena_mod.py": "def begin_step():\n    pass\ndef end_run():\n    pass\n",
                "user.py": (
                    "from arena_mod import begin_step, end_run\n"
                    "def balanced():\n"
                    "    begin_step()\n"
                    "    try:\n"
                    "        pass\n"
                    "    finally:\n"
                    "        end_run()\n"
                    "def opener():\n"
                    "    begin_step()\n"
                    "def driver():\n"
                    "    opener()\n"
                    "    try:\n"
                    "        pass\n"
                    "    finally:\n"
                    "        end_run()\n"
                ),
            },
            rules=["RL011"],
        )
        assert result.ok, result.to_text()

    def test_arena_finally_only_in_another_module_fails(self, tmp_path):
        result = lint_project(
            tmp_path,
            {
                "arena_mod.py": "def begin_step():\n    pass\ndef end_run():\n    pass\n",
                "opener.py": (
                    "from arena_mod import begin_step\n"
                    "def open_window():\n"
                    "    begin_step()\n"
                ),
                "trainer.py": (
                    "from arena_mod import end_run\n"
                    "from opener import open_window\n"
                    "def fit():\n"
                    "    try:\n"
                    "        open_window()\n"
                    "    finally:\n"
                    "        end_run()\n"
                ),
            },
            rules=["RL011"],
        )
        assert codes(result) == ["RL011"]
        assert [(d.path.rpartition("/")[2], d.line) for d in result.diagnostics] == [("opener.py", 3)]
        assert "finally" in result.diagnostics[0].message


# ---------------------------------------------------------------------------
# module-name resolution edge cases


class TestModuleNameResolution:
    def test_file_inside_repro_tree(self, tmp_path):
        assert module_name_for(tmp_path / "src" / "repro" / "ran" / "ca.py") == "repro.ran.ca"

    def test_package_init_maps_to_package(self, tmp_path):
        assert module_name_for(tmp_path / "repro" / "obs" / "__init__.py") == "repro.obs"

    def test_dunder_main_is_kept(self, tmp_path):
        path = tmp_path / "repro" / "lintkit" / "__main__.py"
        assert module_name_for(path) == "repro.lintkit.__main__"

    def test_namespace_package_needs_no_init(self, tmp_path):
        # no __init__.py anywhere on disk; naming is purely path-based
        path = tmp_path / "repro" / "nsp" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1\n", encoding="utf-8")
        assert module_name_for(path) == "repro.nsp.mod"
        assert build_context(path).module == "repro.nsp.mod"

    def test_file_outside_any_repro_tree_falls_back_to_stem(self, tmp_path):
        assert module_name_for(tmp_path / "scripts" / "tool.py") == "tool"

    def test_nested_repro_uses_innermost(self, tmp_path):
        path = tmp_path / "repro" / "vendor" / "repro" / "core.py"
        assert module_name_for(path) == "repro.core"


# ---------------------------------------------------------------------------
# SARIF


class TestSarif:
    def test_document_shape(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import hashlib\n", encoding="utf-8")
        result = lint_paths([bad], rules=["RL003"], catalog_mode="off")
        doc = json.loads(result.to_sarif())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == sorted(registered_checkers())
        finding = run["results"][0]
        assert finding["ruleId"] == "RL003"
        region = finding["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] == 1 and region["startColumn"] >= 1

    def test_cli_format_sarif(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import hashlib\n", encoding="utf-8")
        assert run_cli([str(bad), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "RL003"

    def test_clean_run_has_empty_results(self, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("x = 1\n", encoding="utf-8")
        result = lint_paths([good], rules=["RL003"], catalog_mode="off")
        doc = json.loads(result.to_sarif())
        assert doc["runs"][0]["results"] == []


# ---------------------------------------------------------------------------
# --fix-catalog rework


class TestFixCatalog:
    def test_prunes_manual_entries_whose_modules_vanished(self, tmp_path):
        catalog = tmp_path / "catalog.json"
        write_catalog(
            catalog,
            {},
            manual={
                "ghost.metric": {"kinds": ["counter"], "modules": ["ghost.mod"]},
                "live.metric": {"kinds": ["counter"], "modules": ["alpha"]},
            },
        )
        checker = ObsCatalogChecker()
        result = LintResult()
        _fix_catalog(catalog, checker, {"alpha"}, covering_root=True, result=result)
        assert result.catalog_pruned == ["ghost.metric"]
        data = load_catalog(catalog)
        assert "live.metric" in data["manual"]
        assert "ghost.metric" not in data["manual"]

    def test_partial_fix_preserves_other_modules_and_stays_red(self, tmp_path):
        # the catalog says demo.hits is also published by other_mod; a
        # partial fix over mod.py alone must neither drop other_mod nor
        # report success while the drift it saw is still unexplained
        catalog = tmp_path / "catalog.json"
        write_catalog(
            catalog,
            {"demo.hits": {"kinds": ["counter"], "modules": ["mod", "other_mod"]}},
        )
        snippet = tmp_path / "mod.py"
        snippet.write_text("from repro import obs\nobs.counter('demo.hits')\n", encoding="utf-8")
        before = catalog.read_text(encoding="utf-8")
        result = lint_paths([snippet], rules=["RL005"], catalog_mode="fix", catalog_path=catalog)
        assert catalog.read_text(encoding="utf-8") == before  # regeneration was a no-op
        assert not result.ok
        assert "drifted" in result.diagnostics[0].message

    def test_partial_fix_unions_new_names_into_harvest(self, tmp_path):
        catalog = tmp_path / "catalog.json"
        write_catalog(
            catalog,
            {"old.name": {"kinds": ["counter"], "modules": ["elsewhere"]}},
        )
        snippet = tmp_path / "mod.py"
        snippet.write_text("from repro import obs\nobs.counter('demo.hits')\n", encoding="utf-8")
        lint_paths([snippet], rules=["RL005"], catalog_mode="fix", catalog_path=catalog)
        data = load_catalog(catalog)
        assert "old.name" in data["harvested"]  # a partial run cannot prove it dead
        assert "demo.hits" in data["harvested"]
