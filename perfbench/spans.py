"""In-memory span tracer for the dompkit benchmark.

The tracer wraps the public functions of ``dompkit.cli``, ``bench``,
``algorithms``, ``linalg`` and ``theory`` from outside the package: it
rebinds every module attribute that refers to one of them, so calls made
through a module (``linalg.top_q_indices``), through a name imported into
another module (``bench.run``, ``cli.run``) and between functions of one
module (``hard_threshold`` -> ``top_q_indices``) all pass through a
wrapper.  ``IncrementalQRSolver.extended``/``solve`` and
``StoppingRule.satisfied`` are methods, so they are patched on their
classes.  Nothing under ``src/`` is edited; :meth:`Tracer.uninstall`
restores every binding.

Each wrapped call becomes one span ``(id, parent, solve, name, start_ns,
end_ns, info)``.  The parent is the innermost open span of the calling
thread; a top-level call in a sweep's worker thread is adopted by the
open sweep span.  Every ``algorithms.run`` call opens a new solve id that
its descendants inherit.  ``info`` holds the few call facts the layer
metrics need (columns appended, fallback taken, supports enumerated...).
"""

import functools
import gzip
import itertools
import os
import threading
from collections import defaultdict
from statistics import median
from time import perf_counter_ns

import numpy as np

SWEEPS = ("gamma_sweep", "iteration_sweep", "success_curves", "scaling_benchmark")
STEPS = ("omp_step", "gomp_step", "domp_step", "edomp_step")
SUITES = (
    "projection_proximity_suite",
    "recovery_bound_suite",
    "auxiliary_inequality_suite",
    "theta_equivalence_suite",
    "ric_monotonicity_suite",
)
TERMINATIONS = (
    "relative-error",
    "global-optimum",
    "iteration-cap",
    "stalled",
    "residual-increase",
    "max-iterations",
    "measurement-residual",
    "gradient-residual",
)


def _columns(args, kwargs, result):
    return len(args[1])


def _fallback(args, kwargs, result):
    return result is None


def _wide(args, kwargs, result):
    return int(np.size(args[2]) > np.shape(args[0])[0])


def _file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _solve(args, kwargs, result):
    m, n = np.shape(args[0])
    return (result.algorithm, m, n, result.iterations, result.termination)


def _supports(args, kwargs, result):
    return result.supports_examined


def _workers(args, kwargs, result):
    return kwargs.get("threads", 1)


def _applicable(args, kwargs, result):
    return bool(result.applicable)


# Call facts recorded per span, keyed by span name.
INFO = {
    "linalg.IncrementalQRSolver.extended": _columns,
    "linalg.IncrementalQRSolver.solve": _fallback,
    "linalg.restricted_least_squares": _wide,
    "linalg.load_matrix": _file_bytes,
    "linalg.load_vector": _file_bytes,
    "algorithms.run": _solve,
    "theory.ric_exact": _supports,
    "theory.verify_recovery_bound": _applicable,
    **{f"bench.{name}": _workers for name in SWEEPS},
}


class Tracer:
    """Records spans for every wrapped call while installed."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._solves = itertools.count(1)
        self._local = threading.local()
        self._adopt = (None, None)
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def reset(self):
        self.spans = []

    def _wrap(self, name, fn):
        info_fn = INFO.get(name)
        opens_solve = name == "algorithms.run"
        adopts = name.startswith("bench.") and name[6:] in SWEEPS
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent, solve = stack[-1] if stack else tracer._adopt
            span_id = next(tracer._ids)
            if opens_solve:
                solve = next(tracer._solves)
            stack.append((span_id, solve))
            if adopts:
                tracer._adopt = (span_id, solve)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = perf_counter_ns()
                stack.pop()
                if adopts:
                    tracer._adopt = (None, None)
                tracer.spans.append((span_id, parent, solve, name, start, end, "raised"))
                raise
            end = perf_counter_ns()
            stack.pop()
            if adopts:
                tracer._adopt = (None, None)
            info = info_fn(args, kwargs, result) if info_fn is not None else None
            tracer.spans.append((span_id, parent, solve, name, start, end, info))
            return result

        return traced

    def install(self, dompkit):
        """Wrap the public API of the ``dompkit`` package and its modules."""
        from dompkit import algorithms, bench, cli, linalg, theory

        layers = {"cli": cli, "bench": bench, "algorithms": algorithms, "linalg": linalg, "theory": theory}
        wrappers = {}
        for layer, module in layers.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if callable(fn) and not isinstance(fn, type) and getattr(fn, "__module__", None) == module.__name__:
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        # Rebind every alias of a wrapped function, including names imported
        # into other modules and the package namespace.
        for module in (dompkit, *layers.values()):
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, layer, attrs in (
            (linalg.IncrementalQRSolver, "linalg", ("extended", "solve")),
            (algorithms.StoppingRule, "algorithms", ("satisfied",)),
        ):
            for attr in attrs:
                fn = vars(cls)[attr]
                self._patches.append((cls, attr, fn))
                setattr(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", fn))

    def uninstall(self):
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches = []

    def write(self, path):
        """Write the recorded spans as gzip-compressed tab-separated lines."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("id\tparent\tsolve\tname\tstart_ns\tend_ns\tinfo\n")
            for span_id, parent, solve, name, start, end, info in sorted(self.spans):
                fh.write(f"{span_id}\t{parent or ''}\t{solve or ''}\t{name}\t{start}\t{end}\t{'' if info is None else info}\n")


def _covered_ns(intervals):
    """Length of the union of (start, end) intervals."""
    intervals.sort()
    total = 0
    cur_start, cur_end = intervals[0]
    for start, end in intervals[1:]:
        if start > cur_end:
            total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    return total + cur_end - cur_start


def self_times(spans):
    """Map span id -> duration minus the time its child spans cover (ns)."""
    children = defaultdict(list)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        span_id: end - start - (_covered_ns(children[span_id]) if span_id in children else 0)
        for span_id, _, _, _, start, end, _ in spans
    }


def _quantile(values, q):
    return float(np.quantile(np.asarray(values, dtype=float), q)) if values else 0.0


def layer_metrics(spans, results, iter_keys):
    """Per-layer metrics of one traced pass.

    ``results`` is the number of scored results the pass delivered and
    ``iter_keys`` maps the (solver, m) pairs to report per-iteration
    times for onto their metric names.
    Returns {name: value}; times in seconds unless the name says ms.
    """
    selfs = self_times(spans)
    total = defaultdict(int)   # inclusive ns per span name
    own = defaultdict(int)     # self ns per span name
    calls = defaultdict(int)
    for span_id, _, _, name, start, end, _ in spans:
        total[name] += end - start
        own[name] += selfs[span_id]
        calls[name] += 1

    def s(ns):
        return ns / 1e9

    def by(names, table):
        return sum(table[n] for n in names)

    # The worker pool's busy share: trial time over capacity (sweep wall x
    # workers), counting only the sweeps run with --threads > 1.
    pooled = {span_id: (end - start) * info for span_id, _, _, name, start, end, info in spans
              if name.startswith("bench.") and name[6:] in SWEEPS and isinstance(info, int) and info > 1}
    capacity_ns = sum(pooled.values())
    busy_ns = sum(end - start for _, parent, _, name, start, end, _ in spans
                  if name == "bench.run_trial" and parent in pooled)
    qr_columns = qr_fallbacks = rls_wide = load_bytes = supports = 0
    gate_calls = gate_pass = 0
    run_ms = []
    iterations = 0
    matvec_bytes = 0
    terminations = defaultdict(int)
    per_solver = defaultdict(lambda: [0, 0])  # (solver, m) -> [ns, iterations]
    for _, _, _, name, start, end, info in spans:
        if info == "raised":
            continue
        if name == "linalg.IncrementalQRSolver.extended":
            qr_columns += info
        elif name == "linalg.IncrementalQRSolver.solve":
            qr_fallbacks += info
        elif name == "linalg.restricted_least_squares":
            rls_wide += info
        elif name in ("linalg.load_matrix", "linalg.load_vector"):
            load_bytes += info
        elif name == "theory.ric_exact":
            supports += info
        elif name == "theory.verify_recovery_bound":
            gate_calls += 1
            gate_pass += info
        elif name == "algorithms.run":
            algorithm, m, n, iters, reason = info
            run_ms.append((end - start) / 1e6)
            iterations += iters
            matvec_bytes += iters * 2 * m * n * 8
            terminations[reason] += 1
            cell = per_solver[(algorithm, m)]
            cell[0] += end - start
            cell[1] += iters

    sweeps = [f"bench.{n}" for n in SWEEPS]
    steps = [f"algorithms.{n}" for n in STEPS]
    suites = [f"theory.{n}" for n in SUITES]
    loads = ["linalg.load_matrix", "linalg.load_vector"]
    load_s = s(by(loads, total))
    ric_s = s(total["theory.ric_exact"])
    qr_solves = calls["linalg.IncrementalQRSolver.solve"]
    metrics = {
        "cli.main.self_s": s(own["cli.main"] + total["cli.build_parser"]),
        "bench.sweep.self_s": s(by(sweeps, own)),
        "bench.trial.calls": calls["bench.run_trial"],
        "bench.trial.self_s": s(own["bench.run_trial"]),
        "bench.generate.calls": calls["bench.generate_problem"],
        "bench.generate.s": s(total["bench.generate_problem"]),
        "bench.pool.busy_frac": busy_ns / capacity_ns if capacity_ns else 0.0,
        "bench.solves_per_result": calls["algorithms.run"] / results if results else 0.0,
        "algorithms.run.calls": calls["algorithms.run"],
        "algorithms.run.self_s": s(own["algorithms.run"]),
        "algorithms.run.ms_p50": _quantile(run_ms, 0.5),
        "algorithms.run.ms_p90": _quantile(run_ms, 0.9),
        "algorithms.iterations": iterations,
        "algorithms.init.s": s(total["algorithms.initial_state"]),
        "algorithms.step.self_s": s(by(steps, own)),
        "algorithms.select.s": s(total["algorithms.select_dynamic_indices"]),
        "algorithms.stop.s": s(total["algorithms.StoppingRule.satisfied"]),
        "algorithms.matvec_gb_computed": matvec_bytes / 1e9,
        "linalg.qr_extend.calls": calls["linalg.IncrementalQRSolver.extended"],
        "linalg.qr_extend.s": s(total["linalg.IncrementalQRSolver.extended"]),
        "linalg.qr_extend.columns": qr_columns,
        "linalg.qr_solve.calls": qr_solves,
        "linalg.qr_solve.s": s(total["linalg.IncrementalQRSolver.solve"]),
        "linalg.qr_fallbacks": qr_fallbacks,
        "linalg.qr_fallback_ratio": qr_fallbacks / qr_solves if qr_solves else 0.0,
        "linalg.top_q.calls": calls["linalg.top_q_indices"],
        "linalg.top_q.s": s(total["linalg.top_q_indices"]),
        "linalg.rls.calls": calls["linalg.restricted_least_squares"],
        "linalg.rls.s": s(total["linalg.restricted_least_squares"]),
        "linalg.rls.wide_calls": rls_wide,
        "linalg.hard_threshold.s": s(total["linalg.hard_threshold"]),
        "linalg.spectral_norm.s": s(total["linalg.spectral_norm"]),
        "linalg.load.s": load_s,
        "linalg.load.mb": load_bytes / 1e6,
        "linalg.load.mb_per_s": load_bytes / 1e6 / load_s if load_s else 0.0,
        "theory.ric_exact.calls": calls["theory.ric_exact"],
        "theory.ric_exact.s": ric_s,
        "theory.ric_exact.supports": supports,
        "theory.ric_exact.supports_per_s": supports / ric_s if ric_s else 0.0,
        "theory.theta.s": s(total["theory.theta_constant"] + total["theory.exhaustive_theta"]),
        "theory.suite.self_s": s(by(suites, own)),
        "theory.gate_pass_ratio": gate_pass / gate_calls if gate_calls else 0.0,
    }
    for reason in TERMINATIONS:
        metrics[f"algorithms.termination.{reason}"] = terminations[reason]
    for key, name in iter_keys.items():
        ns, iters = per_solver.get(key, (0, 0))
        metrics[name] = ns / 1e6 / iters if iters else 0.0
    return metrics


# Names of the metrics layer_metrics always returns, in print order.
LAYER_METRICS = tuple(layer_metrics([], 0, {}))

# Metrics derived from counts alone: they must repeat exactly between
# traced passes and between traced runs of one seed.
EXACT = {
    "bench.trial.calls",
    "bench.generate.calls",
    "bench.solves_per_result",
    "algorithms.run.calls",
    "algorithms.iterations",
    "algorithms.matvec_gb_computed",
    "linalg.qr_extend.calls",
    "linalg.qr_extend.columns",
    "linalg.qr_solve.calls",
    "linalg.qr_fallbacks",
    "linalg.qr_fallback_ratio",
    "linalg.top_q.calls",
    "linalg.rls.calls",
    "linalg.rls.wide_calls",
    "linalg.load.mb",
    "theory.ric_exact.calls",
    "theory.ric_exact.supports",
    "theory.gate_pass_ratio",
    *(f"algorithms.termination.{reason}" for reason in TERMINATIONS),
}


def combine_passes(per_pass):
    """Merge per-pass metric dicts: counts from the first pass, times as
    the median over passes.  Returns (metrics, names whose counts differ)."""
    first = per_pass[0]
    unstable = sorted(k for k in EXACT if k in first and any(p[k] != first[k] for p in per_pass[1:]))
    merged = {}
    for key, value in first.items():
        merged[key] = value if key in EXACT else float(median(p[key] for p in per_pass))
    return merged, unstable
