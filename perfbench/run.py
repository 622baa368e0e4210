"""Seeded benchmark for dompkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the program is imported from ``src/``
there, with one BLAS thread.  One run sets up three times (a fresh
interpreter imports dompkit, the workload's inputs are written, every
command runs once at minimal size) and reports the median, then runs
passes of the workload's commands through ``dompkit.cli.main`` for
``--seconds`` seconds, checks every output, and prints one JSON result
as the last line of stdout:

- ``--trace 0``: the end-to-end metrics (median pass wall time, results
  per second, set-up time, peak RSS, share of commands that passed).
- ``--trace 1``: the per-layer metrics.  Untraced and traced passes
  alternate; the traced ones wrap dompkit's public functions (see
  ``spans.py``) and their spans are written to ``perfbench/out/``.

The environment block is printed on the line before the result, and a
readable table of the metrics on stderr.

Other modes:

    python3 perfbench/run.py --smoke             # every workload at minimal size
    python3 perfbench/run.py --record-reference  # rewrite reference.json
"""

import argparse
import json
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 3
# Peak RSS is read after this many measured passes.  Later passes only add
# allocator fragmentation (cli-theory crept from 118 to 129 MB), and how
# many passes fit in a run depends on the machine's speed.
RSS_PASSES = 2
# The seed whose outputs reference.json records.
DEFAULT_SEED = 1
# Untraced passes a run makes even when --seconds is shorter than that;
# a traced run makes at least one untraced and one traced pass.
MIN_PASSES = 3

END_TO_END = {
    "wall_s": "s",
    "results_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}


def unit_of(name):
    """Unit of a per-layer metric, from its name."""
    last = name.rsplit(".", 1)[-1]
    if name.startswith("algorithms.iter_ms.") or last.startswith("ms_"):
        return "ms"
    if last in ("s", "self_s"):
        return "s"
    if last == "mb":
        return "MB"
    if last == "mb_per_s":
        return "MB/s"
    if last == "supports_per_s":
        return "1/s"
    if last == "matvec_gb_computed":
        return "GB"
    if last.endswith(("_ratio", "_frac", "per_result")):
        return "ratio"
    return "count"


def per_layer_names():
    import spans
    import workloads

    return [*spans.LAYER_METRICS, *workloads.iter_metrics(), "trace.overhead_frac"]


def import_program():
    """Import dompkit from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import dompkit
        import dompkit.cli
    except ImportError as exc:
        raise SystemExit(f"error: cannot import dompkit from {src}: {exc}") from None
    if Path(dompkit.__file__).resolve().parent != (src / "dompkit").resolve():
        raise SystemExit(f"error: dompkit was imported from {dompkit.__file__}, not from {src}")
    return dompkit


def run_pass(cli, commands):
    """Run the commands in order; return (seconds inside cli.main for
    each command, exit codes).

    A command that raises counts as failed (exit code None) and the pass
    goes on, so that one broken command is reported instead of ending the
    run without a result."""
    times = []
    codes = []
    for command in commands:
        started = time.perf_counter()
        try:
            code = cli.main(command.argv)
        except Exception:
            traceback.print_exc()
            code = None
        times.append(time.perf_counter() - started)
        codes.append(code)
    return times, codes


class Verdicts:
    """Attempted and failed commands; the first pass is checked in full,
    and a command with a twin must have written its twin's bytes.  Later
    passes must reproduce the first pass's exit codes and bytes."""

    def __init__(self, plan, reference):
        self.plan = plan
        self.reference = reference
        self.first = None
        self.bad = []
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.problems = []

    def record(self, codes):
        import checks

        outputs = [checks.read_outputs(c) for c in self.plan.commands]
        labels = [c.label for c in self.plan.commands]
        self.passes += 1
        self.attempted += len(outputs)
        if self.first is None:
            self.first = (codes, outputs)
            for command, code, out in zip(self.plan.commands, codes, outputs):
                ref = self.reference.get(command.label) if self.reference is not None else None
                if self.reference is not None and ref is None:
                    found = ["no reference recorded for this command"]
                else:
                    found = checks.check(command, code, out, self.plan, ref)
                if command.twin is not None and out != outputs[labels.index(command.twin)]:
                    found.append(f"differs from the output of {command.twin}")
                self.bad.append(bool(found))
                self.problems += [f"{command.label}: {p}" for p in found]
        else:
            for i, (code, out) in enumerate(zip(codes, outputs)):
                if self.bad[i]:
                    continue
                if code != self.first[0][i] or out != self.first[1][i]:
                    self.bad[i] = True
                    self.failed += self.passes - 1  # earlier passes no longer agree either
                    self.problems.append(f"{self.plan.commands[i].label}: output changed between passes")
        self.failed += sum(self.bad)
        return sum(checks.results_of(c, o) for c, o in zip(self.plan.commands, outputs))


def time_import():
    """Seconds for a fresh interpreter to import dompkit's CLI."""
    code = f"import sys; sys.dont_write_bytecode = True; sys.path.insert(0, {str(ROOT / 'src')!r}); import dompkit.cli"
    started = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
    return time.perf_counter() - started


def setup(make_plan, seed, scale, workdir, cli):
    """One set-up: a fresh interpreter imports dompkit, the workload's
    inputs are built, and every command runs once at minimal size as a
    warm-up.  Returns (seconds, import seconds, plan)."""
    started = time.perf_counter()
    import_s = time_import()
    plan = make_plan(seed, scale, workdir)
    warm_dir = workdir / "warm-up"
    warm_dir.mkdir(exist_ok=True)
    warm = make_plan(seed, "smoke", warm_dir)
    run_pass(cli, warm.commands)
    return time.perf_counter() - started, import_s, plan


def measure(args, dompkit, workdir):
    import checks
    import envinfo
    import spans
    import workloads

    cli = dompkit.cli
    make_plan = workloads.WORKLOADS[args.workload][0]
    reference = None
    if args.seed == DEFAULT_SEED:
        recorded = json.loads(REFERENCE.read_text())
        reference = recorded[args.scale].get(args.workload, {})

    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        seconds, import_s, plan = setup(make_plan, args.seed, args.scale, workdir, cli)
        setups.append(seconds)
        imports.append(import_s)

    verdicts = Verdicts(plan, reference)
    tracer = spans.Tracer() if args.trace else None
    command_times, walls, traced_walls, layer_passes = [], [], [], []
    peak_rss = None
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(traced_walls) < len(walls)
        pass_started = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install(dompkit)
            try:
                times, codes = run_pass(cli, plan.commands)
            finally:
                tracer.uninstall()
            traced_walls.append(sum(times))
        else:
            times, codes = run_pass(cli, plan.commands)
            command_times.append(times)
            walls.append(sum(times))
            if len(walls) == RSS_PASSES:
                peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results = verdicts.record(codes)
        if traced:
            layer_passes.append(spans.layer_metrics(tracer.spans, results, plan.iter_keys))
        # Start another pass only if it can end within --seconds, judged
        # by the one just made, once the minimum number has been made.
        now = time.perf_counter()
        enough = len(walls) >= MIN_PASSES if tracer is None else bool(traced_walls)
        if enough and now + (now - pass_started) - started > args.seconds:
            break

    if tracer is None:
        wall_s = median(walls)
        metrics = {
            "wall_s": wall_s,
            "results_per_s": results / wall_s,
            "setup_s": median(setups),
            "peak_rss_mb": (peak_rss or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024,
            "ops_ok_frac": 1.0 - verdicts.failed / verdicts.attempted,
        }
        units = END_TO_END
    else:
        layer, unstable = spans.combine_passes(layer_passes)
        for name in unstable:
            verdicts.problems.append(f"count {name} differs between traced passes")
        if unstable:
            verdicts.failed += 1
        layer["trace.overhead_frac"] = median(traced_walls) / median(walls) - 1.0
        names = per_layer_names()
        metrics = {name: layer.get(name, 0.0) for name in names}
        units = {name: unit_of(name) for name in names}
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"trace-{args.workload}-{args.scale}-seed{args.seed}.tsv.gz")

    env = envinfo.environment(ROOT, plan.working_set_mb)
    env.update(workload=args.workload, seed=args.seed, scale=args.scale, seconds=args.seconds,
               pass_walls_s=walls, traced_pass_walls_s=traced_walls, setups_s=setups, imports_s=imports,
               command_s={c.label: [t[i] for t in command_times] for i, c in enumerate(plan.commands)})
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    for problem in verdicts.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} passes={len(walls)} traced={len(traced_walls)} "
          f"ops_failed_frac={verdicts.failed / verdicts.attempted:.6g}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}", file=sys.stderr)
    return env, result


def record_reference(dompkit):
    """Run one pass of every workload at the default seed, both scales,
    and store the summaries the checks compare against."""
    import checks
    import workloads

    recorded = {"seed": DEFAULT_SEED}
    OUT.mkdir(exist_ok=True)
    for scale in ("full", "smoke"):
        recorded[scale] = {}
        for name, (make_plan, _) in workloads.WORKLOADS.items():
            workdir = Path(tempfile.mkdtemp(prefix="record-", dir=OUT))
            try:
                plan = make_plan(DEFAULT_SEED, scale, workdir)
                _, codes = run_pass(dompkit.cli, plan.commands)
                entry = {}
                for command, code in zip(plan.commands, codes):
                    outputs = checks.read_outputs(command)
                    problems = checks.check(command, code, outputs, plan, None)
                    if problems:
                        raise SystemExit(f"error: {name}/{command.label} fails its checks: {problems}")
                    entry[command.label] = checks.summarize(command, outputs)
                recorded[scale][name] = entry
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"recorded {scale}/{name}", file=sys.stderr)
    REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def smoke(seeds=(DEFAULT_SEED, 7)):
    """Run every workload at minimal size, traced and untraced, at the
    default and one other seed, in child processes; check that each
    prints every metric of BENCHMARK.json by name and unit and passes its
    output checks.  Returns the parsed results keyed by (workload, seed, trace)."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if spec["command"] != ["python3", "perfbench/run.py"]:
        raise AssertionError("BENCHMARK.json does not run this script")
    if {w["name"] for w in spec["workloads"]} != set(workloads.WORKLOADS):
        raise AssertionError("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    if wanted[0] != END_TO_END or wanted[1] != {n: unit_of(n) for n in per_layer_names()}:
        raise AssertionError("BENCHMARK.json metrics differ from the ones this script prints")
    found = {}
    for name in workloads.WORKLOADS:
        for seed in seeds:
            for trace in (0, 1):
                argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                        "--seconds", "1", "--trace", str(trace), "--scale", "smoke"]
                proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
                if proc.returncode != 0:
                    raise AssertionError(f"{argv} exited {proc.returncode}:\n{proc.stderr}")
                result = json.loads(proc.stdout.splitlines()[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    raise AssertionError(f"{name}: result keys {sorted(result)}")
                printed = {k: v["unit"] for k, v in result["metrics"].items()}
                if printed != wanted[trace]:
                    raise AssertionError(f"{name} trace={trace}: metrics {printed} != {wanted[trace]}")
                if not result["correct"] or result["failed"]:
                    raise AssertionError(f"{name} seed={seed} trace={trace} failed its checks:\n{proc.stderr}")
                found[(name, seed, trace)] = result
                print(f"smoke ok: {name} seed={seed} trace={trace}", file=sys.stderr)
    return found


def main(argv=None):
    # One BLAS thread, set before numpy loads.  On the 2-core reference
    # machine OpenBLAS's second thread spin-waits through the many small
    # solves: it doubled CPU use and made pass times swing by +-15%,
    # against +-2% with one thread.  The environment block records the
    # values in force.  No bytecode is written into the checkout.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = "1"
    sys.dont_write_bytecode = True
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--smoke", action="store_true", help="check every workload at minimal size")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)

    dompkit = import_program()
    sys.path.insert(0, str(HERE))
    import workloads

    if args.smoke:
        smoke()
        return 0
    if args.record_reference:
        record_reference(dompkit)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        env, result = measure(args, dompkit, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
