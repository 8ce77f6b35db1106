"""The paired perf gate's decision (``scripts/perf_gate.py``) on synthetic runs.

No perfbench run happens here: each pair is built from result lines of
the shape perfbench prints, so the test covers what the gate concludes
from them, not the measurement.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perf_gate", Path(__file__).resolve().parent.parent / "scripts" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(perf_gate)


def _run(p90_ms, failed=0, returncode=0):
    """A run as the gate keeps it, from a perfbench-shaped result line."""
    metrics = {"op_cpu_ms_p90": {"value": p90_ms, "unit": "ms"}}
    line = json.dumps({"correct": failed == 0, "attempted": 30, "failed": failed, "metrics": metrics})
    stdout = f"perfbench table4 seed=0 size=full untraced: host_cpus=2\n{line}\n"
    return perf_gate.Run(returncode, perf_gate.result_line(stdout), stdout)


def _pairs(ratios):
    return [{"parent": _run(1000.0), "change": _run(1000.0 * ratio)} for ratio in ratios]


@pytest.mark.parametrize(
    "ratios, passes",
    [
        ([1.0, 1.1, 1.15, 1.3, 1.4], True),  # median at the limit
        ([0.9, 1.0, 1.1, 1.5, 2.0], True),  # median under it, though two pairs are over
        ([1.0, 1.1, 1.2, 1.2, 1.3], False),  # median over it
        ([0.7, 0.8, 0.8, 0.9, 1.0], True),  # a faster change
    ],
)
def test_the_median_pair_ratio_decides(ratios, passes):
    ratio, problems = perf_gate.decide(_pairs(ratios))
    assert ratio == pytest.approx(sorted(ratios)[2])
    assert (not problems) is passes
    if not passes:
        assert problems == [f"median op_cpu_ms_p90 ratio {ratio:.3f} (change / parent) exceeds 1.15"]


def test_the_ratio_is_change_over_parent():
    slower = [{"parent": _run(1000.0), "change": _run(1300.0)}] * 5
    faster = [{"parent": _run(1300.0), "change": _run(1000.0)}] * 5
    assert perf_gate.decide(slower)[0] == pytest.approx(1.3)
    assert perf_gate.decide(faster) == (pytest.approx(1000.0 / 1300.0), [])


@pytest.mark.parametrize("side", ["parent", "change"])
def test_an_unusable_run_on_either_side_fails_and_is_named(side):
    for broken, reason in [
        (_run(1000.0, returncode=1), "exited with status 1"),
        (perf_gate.Run(0, None, "Traceback ..."), "printed no result line"),
        (_run(1000.0, failed=2), "reported 2 failed op(s)"),
        (_run(1000.0, failed=2, returncode=1), "reported 2 failed op(s)"),
    ]:
        pairs = _pairs([1.0] * 5)
        pairs[2] = {**pairs[2], side: broken}
        ratio, problems = perf_gate.decide(pairs)
        assert ratio is None
        assert problems == [f"pair 3: the {side} run {reason}"]


def test_result_line_is_perfbenchs_last_json_line():
    assert perf_gate.result_line(_run(1000.0).output)["metrics"]["op_cpu_ms_p90"] == {"value": pytest.approx(1000.0), "unit": "ms"}
    assert perf_gate.result_line("") is None
    assert perf_gate.result_line("perfbench: a child crashed\n") is None
    assert perf_gate.result_line('{"correct": false}\n') is None
