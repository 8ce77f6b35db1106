"""Tests for :mod:`repro.lintkit` — the AST invariant checker.

Per rule RL001–RL007: one snippet that must pass and one that must
fail.  Plus the two repo-level gates: ``src/repro`` lints clean
(self-lint) and the checked-in obs catalog matches the harvest
(catalog drift).  The per-function rules (RL008–RL011) and SARIF
output are covered by tests/test_lintkit_project.py.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lintkit import (
    default_catalog_path,
    default_root,
    lint_paths,
    load_catalog,
    make_checkers,
    registered_checkers,
    valid_obs_name,
)
from repro.lintkit.catalog import aggregate, harvest_module, write_catalog
from repro.lintkit.runner import build_context, run_cli

# ---------------------------------------------------------------------------
# helpers


def lint_snippet(tmp_path, source, filename="snippet.py", rules=None, **kwargs):
    path = tmp_path / filename
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source, encoding="utf-8")
    kwargs.setdefault("catalog_mode", "off")
    return lint_paths([path], rules=rules, **kwargs)


def codes(result):
    return sorted({d.code for d in result.diagnostics})


# ---------------------------------------------------------------------------
# RL001 determinism


def test_rl001_fails_on_legacy_global_rng(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "np.random.seed(7)\n"
        "x = np.random.rand(3)\n"
        "rng = np.random.default_rng()\n",
        rules=["RL001"],
    )
    assert len(result.diagnostics) == 3
    assert codes(result) == ["RL001"]
    assert [d.line for d in sorted(result.diagnostics)] == [2, 3, 4]


def test_rl001_passes_on_seeded_generator(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "child = np.random.default_rng(rng.integers(0, 2**31))\n"
        "x = rng.normal(size=3)\n",
        rules=["RL001"],
    )
    assert result.ok


def test_rl001_flags_legacy_from_import(tmp_path):
    result = lint_snippet(tmp_path, "from numpy.random import randint\n", rules=["RL001"])
    assert codes(result) == ["RL001"]


# ---------------------------------------------------------------------------
# RL002 flag discipline


def test_rl002_fails_on_flag_value_import(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from repro.runtime import sanitize\n"
        "from repro.backends import _SANITIZE\n",
        rules=["RL002"],
    )
    assert len(result.diagnostics) == 2
    assert codes(result) == ["RL002"]


def test_rl002_fails_on_relative_mirror_import(tmp_path):
    # a file living inside the repro package importing a sibling package's mirror
    result = lint_snippet(
        tmp_path,
        "from ..backends import _SANITIZE\n",
        filename="repro/nn/new_module.py",
        rules=["RL002"],
    )
    assert codes(result) == ["RL002"]


def test_rl002_passes_on_module_attribute_reads(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from repro import runtime\n"
        "from repro.backends import active, sanitize_active\n"
        "enabled = runtime.flag('sanitize')\n",
        rules=["RL002"],
    )
    assert result.ok


# ---------------------------------------------------------------------------
# RL003 single-hash contract


def test_rl003_fails_on_stray_hashlib(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import hashlib\nfrom hashlib import sha256\n",
        rules=["RL003"],
    )
    assert len(result.diagnostics) == 2
    assert codes(result) == ["RL003"]


def test_rl003_allows_hashlib_in_runtime(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import hashlib\n",
        filename="src/repro/runtime.py",
        rules=["RL003"],
    )
    assert result.ok


# ---------------------------------------------------------------------------
# RL004 exception hygiene


def test_rl004_fails_on_swallowed_broad_except(tmp_path):
    result = lint_snippet(
        tmp_path,
        "try:\n    x = 1\nexcept Exception:\n    pass\n"
        "try:\n    y = 2\nexcept:\n    y = 0\n",
        rules=["RL004"],
    )
    assert len(result.diagnostics) == 2
    assert codes(result) == ["RL004"]


def test_rl004_passes_when_reraised_or_published(tmp_path):
    result = lint_snippet(
        tmp_path,
        "from repro import obs\n"
        "try:\n    x = 1\nexcept Exception:\n    raise\n"
        "try:\n    y = 2\nexcept Exception:\n    obs.log_warning('demo.swallowed')\n"
        "try:\n    z = 3\nexcept (OSError, ValueError):\n    z = 0\n",
        rules=["RL004"],
    )
    assert result.ok


# ---------------------------------------------------------------------------
# RL005 obs-name catalog


def test_rl005_fails_on_bad_name_and_missing_catalog_entry(tmp_path):
    catalog = tmp_path / "catalog.json"
    write_catalog(catalog, {}, manual={})
    result = lint_snippet(
        tmp_path,
        "from repro import obs\nobs.counter('BadName')\n",
        rules=["RL005"],
        catalog_mode="check",
        catalog_path=catalog,
    )
    messages = "\n".join(d.message for d in result.diagnostics)
    assert codes(result) == ["RL005"]
    assert "dotted-lowercase" in messages
    assert "not in the catalog" in messages


def test_rl005_passes_when_catalogued(tmp_path):
    catalog = tmp_path / "catalog.json"
    snippet = tmp_path / "mod.py"
    snippet.write_text("from repro import obs\nobs.counter('demo.hits')\n", encoding="utf-8")
    ctx = build_context(snippet)
    write_catalog(catalog, aggregate(harvest_module(ctx.tree, ctx.module, ctx.display_path)))
    result = lint_paths([snippet], rules=["RL005"], catalog_mode="check", catalog_path=catalog)
    assert result.ok


def test_rl005_wildcards_and_name_validation():
    assert valid_obs_name("cache.bytes_read")
    assert valid_obs_name("evaluate.rmse.*")
    assert not valid_obs_name("nodots")
    assert not valid_obs_name("Bad.Name")
    assert not valid_obs_name("trailing.")
    assert not valid_obs_name("*.leading")


def test_rl005_harvests_fstrings_and_conditionals(tmp_path):
    snippet = tmp_path / "mod.py"
    snippet.write_text(
        "from repro import obs\n"
        "obs.gauge(f'demo.rmse.{name}', 1.0)\n"
        "obs.counter('demo.a' if cond else 'demo.b')\n"
        "obs.counter(variable_name)\n",
        encoding="utf-8",
    )
    ctx = build_context(snippet)
    names = sorted(s.name for s in harvest_module(ctx.tree, ctx.module, ctx.display_path))
    assert names == ["demo.a", "demo.b", "demo.rmse.*"]


# ---------------------------------------------------------------------------
# RL006 float equality


def test_rl006_fails_on_float_equality(tmp_path):
    result = lint_snippet(
        tmp_path,
        "flag = x == 0.0\nother = y.std() != z\n",
        rules=["RL006"],
    )
    assert len(result.diagnostics) == 2
    assert codes(result) == ["RL006"]


def test_rl006_passes_on_order_and_allclose(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "a = x <= 0.0\n"
        "b = np.allclose(x, y)\n"
        "c = n == 0\n"  # int equality is fine
        "d = x == 0.0  # lint: bit-identical\n"
        "e = y != 1.5  # lint: disable=RL006\n",
        rules=["RL006"],
    )
    assert result.ok


# ---------------------------------------------------------------------------
# RL007 backend discipline


def test_rl007_fails_on_np_compute_in_kernel_dispatch(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "def lstm_seq(x):\n"
        "    gates = np.matmul(x, x)\n"
        "    return np.exp(gates)\n",
        filename="repro/nn/kernels.py",
        rules=["RL007"],
    )
    assert codes(result) == ["RL007"]
    assert len(result.diagnostics) == 2


def test_rl007_allows_alloc_and_optout(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "def seed(out):\n"
        "    g = np.zeros_like(out)\n"
        "    a = np.asarray(out)\n"
        "    t = np.result_type(out, g)\n"
        "    return np.tanh(a)  # lint: backend-impl\n",
        filename="repro/nn/kernels.py",
        rules=["RL007"],
    )
    assert result.ok


def test_rl007_ignores_modules_outside_dispatch_layer(tmp_path):
    result = lint_snippet(
        tmp_path,
        "import numpy as np\n"
        "y = np.exp(np.zeros(3))\n",
        filename="repro/backends/numpy_backend.py",
        rules=["RL007"],
    )
    assert result.ok


# ---------------------------------------------------------------------------
# repo-level gates


def test_self_lint_src_repro_is_clean():
    result = lint_paths()  # defaults to the installed repro package
    assert result.files_checked > 50
    assert result.ok, result.to_text()


def test_catalog_matches_harvest():
    """Catalog-drift gate: obs_catalog.json is exactly the current harvest."""
    checkers = make_checkers(["RL005"])
    result = lint_paths([default_root()], checkers=checkers, catalog_mode="off")
    assert result.ok, result.to_text()
    harvested = aggregate(checkers[0].sites)
    catalog = load_catalog(default_catalog_path())
    assert harvested == catalog["harvested"]
    # manual entries cover dynamically-published names only; they must
    # not shadow anything the harvester already sees
    assert not set(catalog["manual"]) & set(harvested)


def test_catalog_drift_detected_and_fixed(tmp_path):
    catalog = tmp_path / "catalog.json"
    snippet = tmp_path / "mod.py"
    snippet.write_text("from repro import obs\nobs.counter('demo.hits')\n", encoding="utf-8")
    drift = lint_paths([snippet], rules=["RL005"], catalog_mode="check", catalog_path=catalog)
    assert not drift.ok and "not in the catalog" in drift.diagnostics[0].message
    fixed = lint_paths([snippet], rules=["RL005"], catalog_mode="fix", catalog_path=catalog)
    assert fixed.catalog_written == catalog
    clean = lint_paths([snippet], rules=["RL005"], catalog_mode="check", catalog_path=catalog)
    assert clean.ok
    # a typo'd rename is a new name -> fails again
    snippet.write_text("from repro import obs\nobs.counter('demo.hitz')\n", encoding="utf-8")
    typo = lint_paths([snippet], rules=["RL005"], catalog_mode="check", catalog_path=catalog)
    assert not typo.ok


def test_fix_catalog_preserves_manual_section(tmp_path):
    catalog = tmp_path / "catalog.json"
    write_catalog(catalog, {}, manual={"dyn.name": {"kinds": ["counter"], "modules": ["m"]}})
    snippet = tmp_path / "mod.py"
    snippet.write_text("from repro import obs\nobs.counter('demo.hits')\n", encoding="utf-8")
    lint_paths([snippet], rules=["RL005"], catalog_mode="fix", catalog_path=catalog)
    data = load_catalog(catalog)
    assert "demo.hits" in data["harvested"]
    assert "dyn.name" in data["manual"]


# ---------------------------------------------------------------------------
# registry, runner and CLI plumbing


def test_registry_has_all_eleven_rules():
    assert list(registered_checkers()) == [f"RL{i:03d}" for i in range(1, 12)]


def test_unknown_rule_code_raises():
    with pytest.raises(ValueError, match="unknown rule codes"):
        make_checkers(["RL999"])


def test_syntax_error_reported_not_raised(tmp_path):
    result = lint_snippet(tmp_path, "def broken(:\n")
    assert codes(result) == ["RL000"]


def test_json_report_shape(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("import hashlib\n", encoding="utf-8")
    result = lint_paths([path], rules=["RL003"], catalog_mode="off")
    payload = json.loads(result.to_json())
    assert payload["schema"] == "repro-lint-report-v1"
    assert payload["ok"] is False
    assert payload["counts"] == {"RL003": 1}
    diag = payload["diagnostics"][0]
    assert diag["code"] == "RL003" and diag["line"] == 1


def test_run_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("x = y == 0.5\n", encoding="utf-8")
    good = tmp_path / "good.py"
    good.write_text("x = 1\n", encoding="utf-8")
    assert run_cli([str(good)]) == 0
    assert run_cli([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RL006" in out
    assert run_cli(["--rules", "NOPE"]) == 2


def test_cli_lint_subcommand_self_lints_clean():
    from repro.cli import main

    assert main(["lint"]) == 0


@pytest.mark.slow
def test_module_entry_point(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import hashlib\n", encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lintkit", str(bad), "--format", "json"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(default_root()).parent), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["counts"] == {"RL003": 1}
