"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q -s

They run the benchmark in child processes, from the root of the checkout,
and print the tracing overhead of each traced run.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def bench(workload, seed, trace, scale="smoke", cwd=ROOT):
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--scale", scale]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_smoke_prints_every_metric_and_passes_its_checks():
    found = run.smoke()
    assert len(found) == len(workloads.WORKLOADS) * 2 * 2


@pytest.mark.parametrize(
    "workload, scale",
    [(name, "smoke") for name in workloads.WORKLOADS] + [("sweeps", "full")],
)
def test_two_traced_runs_give_identical_counts(workload, scale):
    first = result_of(bench(workload, 3, 1, scale))
    second = result_of(bench(workload, 3, 1, scale))
    assert first["correct"] and second["correct"]
    for name in spans.EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    overheads = [r["metrics"]["trace.overhead_frac"]["value"] for r in (first, second)]
    print(f"{workload} ({scale}): trace.overhead_frac = {overheads[0]:.4f}, {overheads[1]:.4f}")


def test_fails_without_the_program():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("sweeps", 1, 0, scale="full", cwd=bare)
        assert proc.returncode != 0
        assert "correct" not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_default_seed_reference_catches_a_changed_output():
    """A command whose output differs from the recorded reference fails."""
    import checks

    plan = workloads.Plan(commands=[])
    command = workloads.Command("phase-gamma", "sweep", [], HERE / "unused.csv",
                                dict(sweep="phase-gamma", rows=0, trials=1, seed=run.DEFAULT_SEED))
    header = workloads.SWEEP_HEADERS["phase-gamma"].encode() + b"\n"
    meta = json.dumps({"command": "phase-gamma", "seed": run.DEFAULT_SEED, "build_id": "x"}).encode()
    reference = checks.summarize(command, (header, meta))
    assert checks.check(command, 0, (header, meta), plan, reference) == []
    assert checks.check(command, 0, (header + b"\n", meta), plan, reference) != []
