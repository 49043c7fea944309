"""Smoke test of the benchmark itself, at a tiny size.

    python3 perfbench/smoke_test.py        (or: python3 -m pytest perfbench/smoke_test.py)

Checks that every workload prints exactly the metric names that
BENCHMARK.json declares, with their units, in both modes; that a wrong
expected verdict is counted as a failure; and that the benchmark refuses to
run without the qsolv sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _run(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def test_every_metric_is_printed():
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            report, result = _run(workload, trace)
            if trace == 0:
                # the report also carries the ungated latencies and fail_ratio
                for name in ("op_p50_ms", "op_p90_ms", "fail_ratio"):
                    assert any(line.strip().startswith(f"{name} = ") for line in report), name
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True, (workload, trace)
            assert result["attempted"] >= 1
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            assert units == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            if workload == "products":
                # the tiny run keeps the first known quantum_matrices(3) failure
                assert result["failed"] >= 1


def test_wrong_expected_verdict_is_a_failure():
    original = workloads._expect_validate_ok
    # validate passes quantum_matrices(n), so expecting exit code 1 is wrong
    workloads._expect_validate_ok = lambda code, out: code == 1
    work_dir = ROOT / ".perfbench_work" / "smoke-verdict"
    try:
        ctx = workloads.Context("tiny", str(run.locate_src()), str(work_dir), in_process=True)
        rnd = run.run_round("sessions", 3, ctx)
    finally:
        workloads._expect_validate_ok = original
        shutil.rmtree(work_dir, ignore_errors=True)
    assert [label for label, _ in rnd.failures] == ["validate matrices2"]


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        done = _bench("--workload", "products", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare, script=bare / "perfbench" / "run.py")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert done.stdout == ""


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
    try:
        (ROOT / ".perfbench_work").rmdir()
    except OSError:
        pass
