"""The benchmark at smoke size: every workload runs and its outputs pass the checks.

Runs ``perfbench/run.py`` from the root of the checkout the way a user does,
once over all four workloads and once in self-test mode (genuine outputs
accepted, deliberately altered ones rejected).  About twenty seconds on two
cores, most of it interpreter starts.  A third test checks that every function
the tracer wraps still exists.
"""

import json
import subprocess
import sys
from importlib import import_module
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_bench(*args):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.splitlines()


def test_smoke_workloads_correct():
    lines = run_bench("--workload", "all", "--size", "smoke", "--seconds", "0.1", "--seed", "0")
    results = [json.loads(line) for line in lines if line.startswith("{")]
    assert len(results) == 4
    for result in results:
        assert result["correct"] is True
        assert result["failed"] == 0
        assert result["attempted"] > 0


def test_self_test_rejects_altered_outputs():
    lines = run_bench("--self-test")
    assert lines[-1] == "self-test passed"
    assert not any("WRONG" in line for line in lines)


def test_trace_points_resolve():
    # the smoke run traces nothing, so a renamed or deleted function would only
    # break --trace 1; child.py is compiled from its text, not imported
    path = ROOT / "perfbench" / "child.py"
    child = {"__name__": "perfbench_child"}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), child)
    missing = [(module, attr) for module, attr, _, _ in child["TRACE_POINTS"]
               if not hasattr(import_module(module), attr)]
    assert child["TRACE_POINTS"]
    assert missing == []
