"""Command-line interface.

Subcommands: single-instance recovery (`recover`), the four experiment
sweeps (`phase-gamma`, `phase-iters`, `phase-k`, `scaling`), exact RIC
certification (`ric`), and the verification suites (`verify`).

Data goes to stdout (JSON or CSV), diagnostics to stderr.  Exit codes:
0 success, 1 verification violations, 2 usage errors (including any flag
value the library rejects), 3 data errors (unreadable or malformed
files), 4 numeric failures.  Flags are checked by the library objects
that consume them; this module only parses them.  Sweep commands require
an explicit --seed; there is no hidden entropy.  Estimates in JSON use
1-based index:value pairs.
"""

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__, bench, linalg, theory
from .algorithms import ALGORITHMS, AlgorithmConfig, StoppingRule, run

__all__ = ["build_parser", "console_main", "main"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

DESK = "desk"
FULL_SCALE = "full"

_BOUND_FLAGS = ("m", "n", "k", "c", "gamma", "noise_amplitude")

# Each verify suite: the theory function that runs it (looked up by name
# at call time, so a wrapper bound onto the module is the one called), the
# flags it takes, named as its keywords, and its fixed keywords.  Flags a
# suite does not take are ignored; a flag left out keeps the default.
VERIFY_SUITES = {
    "proximity": ("projection_proximity_suite", ("m", "n", "k", "gamma"), {}),
    "aux-inequalities": ("auxiliary_inequality_suite", (), {}),
    "bound-domp": ("recovery_bound_suite", _BOUND_FLAGS, {"algorithm": "domp"}),
    "bound-edomp": ("recovery_bound_suite", _BOUND_FLAGS, {"algorithm": "edomp"}),
    "theta": ("theta_equivalence_suite", (), {}),
    "ric-monotone": ("ric_monotonicity_suite", (), {}),
}


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _nonnegative_int(text):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dompkit",
        description="Greedy sparse recovery: solvers, recovery-theory checks, benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="recover one sparse vector from a matrix/measurement pair")
    rec.add_argument("--matrix", required=True, help="matrix file: 'm n' header then m rows")
    rec.add_argument("--measurements", required=True, help="vector file: 'n' header then n numbers")
    rec.add_argument("--sparsity", required=True, type=_positive_int, help="target sparsity k")
    rec.add_argument("--algo", required=True, help=f"one of {', '.join(ALGORITHMS)}")
    rec.add_argument("--gamma", type=float, default=0.9, help="selection threshold in (0, 1]")
    rec.add_argument("--gomp-n", type=_positive_int, default=None, help="indices per gOMP iteration")
    rec.add_argument(
        "--stop",
        default=None,
        help="stopping rule: max-iters:N | residual:EPS | gradient:EPS | relerr:EPS",
    )
    rec.add_argument("--truth", default=None, help="ground-truth vector file for success scoring")
    rec.add_argument("--reset-support", action="store_true", help="thresholded variant drops stale support")
    rec.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    rec.set_defaults(func=_cmd_recover)

    for name, helptext in (
        ("phase-gamma", "success rates across the selection threshold"),
        ("phase-iters", "success rates across the iteration budget"),
        ("phase-k", "success rates across the sparsity level"),
        ("scaling", "iterations-to-recovery and runtime across problem sizes"),
    ):
        sw = sub.add_parser(name, help=helptext)
        sw.add_argument("--preset", choices=(DESK, FULL_SCALE), default=None,
                        help="desk: minutes-scale grid; full: the full-scale grid")
        sw.add_argument("--seed", type=_nonnegative_int, default=None, help="master seed (required)")
        sw.add_argument("--trials", type=_positive_int, default=None, help="trials per cell")
        sw.add_argument("--algos", default=None, help="comma-separated algorithm list")
        sw.add_argument("--threads", type=_positive_int, default=1, help="worker cap for trials")
        sw.add_argument("--out", default=None, help="CSV path; provenance sidecar written next to it")
        sw.add_argument("--gamma", type=float, default=0.9)
        if name != "scaling":
            sw.add_argument("--m", type=_positive_int, default=None)
            sw.add_argument("--n", type=_positive_int, default=None)
            sw.add_argument("--noise", type=float, default=0.0,
                            help="additive gaussian amplitude; switches to the noisy criterion")
            sw.add_argument("--k-levels", default=None, help="comma-separated sparsity levels")
        if name == "phase-gamma":
            sw.add_argument("--gammas", default=None, help="comma-separated threshold values")
        if name == "phase-iters":
            sw.add_argument("--budgets", default=None, help="comma-separated iteration budgets")
        if name == "scaling":
            sw.add_argument("--sizes", default=None, help="comma-separated row counts m (n = 5m)")
            sw.add_argument("--timing", action=argparse.BooleanOptionalAction, default=True,
                            help="--no-timing zeroes runtime columns for byte-reproducible CSV")
        sw.set_defaults(func=_cmd_sweep, sweep=name)

    ric = sub.add_parser("ric", help="exact restricted isometry constants by exhaustive enumeration")
    ric.add_argument("--matrix", required=True)
    ric.add_argument("--order", type=_positive_int, default=None, help="single order q")
    ric.add_argument("--highest", action="store_true", help="largest order with delta < 1")
    ric.add_argument("--cap", type=_positive_int, default=theory.DEFAULT_ENUMERATION_CAP,
                     help="support-enumeration cap")
    ric.add_argument("--output", default=None)
    ric.set_defaults(func=_cmd_ric)

    ver = sub.add_parser("verify", help="randomized verification suites for the recovery theory")
    ver.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    ver.add_argument("--trials", required=True, type=_positive_int)
    ver.add_argument("--seed", required=True, type=_nonnegative_int)
    ver.add_argument("--m", type=_positive_int, default=None)
    ver.add_argument("--n", type=_positive_int, default=None)
    ver.add_argument("--k", type=_positive_int, default=None)
    ver.add_argument("--c", type=_positive_int, default=None)
    ver.add_argument("--gamma", type=float, default=None)
    ver.add_argument("--noise", dest="noise_amplitude", metavar="NOISE", type=float, default=None)
    ver.add_argument("--output", default=None)
    ver.set_defaults(func=_cmd_verify)

    return parser


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _check_stop_syntax(text, has_truth):
    """Validate the --stop flag before any file is read.

    Returns (kind, value) or None.
    """
    if text is None:
        return None
    head, sep, tail = text.partition(":")
    if not sep:
        raise UsageError(f"stopping rule needs the form kind:value, got {text!r}")
    if head not in ("max-iters", "residual", "gradient", "relerr"):
        raise UsageError(f"unknown stopping rule kind {head!r}")
    try:
        value = int(tail) if head == "max-iters" else float(tail)
    except ValueError as exc:
        raise UsageError(f"bad stopping rule value in {text!r}: {exc}") from exc
    if head == "max-iters" and value < 0:
        raise UsageError("max-iters stopping rule needs a nonnegative count")
    if head != "max-iters" and value < 0:
        raise UsageError("stopping rule thresholds must be nonnegative")
    if head == "relerr" and not has_truth:
        raise UsageError("relerr stopping rule needs --truth")
    return head, value


def _build_stop(parsed, truth):
    if parsed is None:
        return None
    head, value = parsed
    if head == "max-iters":
        return StoppingRule.max_iterations(value)
    if head == "residual":
        return StoppingRule.measurement_residual(value)
    if head == "gradient":
        return StoppingRule.gradient_residual(value)
    return StoppingRule.relative_error(value, truth)


def _sparse_estimate(x):
    pairs = {}
    for idx in np.flatnonzero(x):
        pairs[str(int(idx) + 1)] = float(x[idx])
    return pairs


def _cmd_recover(args):
    # Flags are checked before any file is read: a bad flag beats a bad file.
    n_select = None
    if args.algo == "gomp":
        n_select = args.gomp_n if args.gomp_n is not None else min(2, args.sparsity - 1)
    config = AlgorithmConfig(args.algo, k=args.sparsity, gamma=args.gamma, n_select=n_select,
                             reset_support=args.reset_support)
    stop_parsed = _check_stop_syntax(args.stop, args.truth is not None)

    A = linalg.load_matrix(args.matrix)
    y = linalg.load_vector(args.measurements)
    if y.size != A.shape[0]:
        raise linalg.FileFormatError(
            args.measurements, 1, f"measurement length {y.size} does not match {A.shape[0]} rows"
        )
    truth = None
    if args.truth is not None:
        truth = linalg.load_vector(args.truth)
        if truth.size != A.shape[1]:
            raise linalg.FileFormatError(
                args.truth, 1, f"truth length {truth.size} does not match {A.shape[1]} columns"
            )

    config = replace(config, stopping=_build_stop(stop_parsed, truth))
    report = run(A, y, config, truth=truth)
    payload = {
        "algorithm": report.algorithm,
        "m": A.shape[0],
        "n": A.shape[1],
        "sparsity": args.sparsity,
        "estimate": _sparse_estimate(report.x),
        "iterations": report.iterations,
        "termination": report.termination,
        "residual_norm": report.residual_norm,
        "gradient_norm": report.gradient_norm,
        "residual_norms": [entry.residual_norm for entry in report.trace],
    }
    if truth is not None:
        payload["success"] = report.success
        payload["relative_error"] = report.relative_error
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def _csv_ints(text, flag):
    try:
        values = [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated integers: {exc}") from exc
    if not values or any(v < 1 for v in values):
        raise UsageError(f"{flag} expects positive integers")
    return values


def _csv_floats(text, flag):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"{flag} expects comma-separated numbers: {exc}") from exc
    if not values:
        raise UsageError(f"{flag} expects at least one value")
    return values


def _split_algos(text, default):
    if text is None:
        return list(default)
    algos = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not algos:
        raise UsageError("--algos expects at least one algorithm")
    return algos


def _sweep_sizes(args, desk_mn, full_mn):
    preset = args.preset or DESK
    m, n = (desk_mn if preset == DESK else full_mn)
    if args.m is not None:
        m = args.m
    if args.n is not None:
        n = args.n
    return m, n


def _cmd_sweep(args):
    if args.seed is None:
        raise UsageError("sweep commands require an explicit --seed; there is no hidden entropy")
    preset = args.preset or DESK
    name = args.sweep

    if name == "scaling":
        sizes = (
            _csv_ints(args.sizes, "--sizes")
            if args.sizes is not None
            else ([200 * j for j in range(1, 6)] if preset == DESK else [200 * j for j in range(1, 11)])
        )
        trials = args.trials if args.trials is not None else (10 if preset == DESK else 50)
        algos = _split_algos(args.algos, ("omp", "domp", "edomp", "cosamp", "sp"))
        result = bench.scaling_benchmark(
            sizes,
            algos,
            trials=trials,
            master_seed=args.seed,
            gamma=args.gamma,
            timed=args.timing,
            threads=args.threads,
        )
    else:
        m, n = _sweep_sizes(args, (125, 500), (500, 2000))
        noise = args.noise
        if name == "phase-gamma":
            gammas = (
                _csv_floats(args.gammas, "--gammas")
                if args.gammas is not None
                else [t / 20 for t in range(1, 21)]
            )
            ks = (
                _csv_ints(args.k_levels, "--k-levels")
                if args.k_levels is not None
                else ([30, 40] if preset == DESK else [120, 140, 150, 160, 170, 180])
            )
            trials = args.trials if args.trials is not None else (50 if preset == DESK else 500)
            algos = _split_algos(args.algos, ("domp", "edomp"))
            spec = bench.EnsembleSpec(m=m, n=n, k=ks[0], master_seed=args.seed, noise_amplitude=noise)
            result = bench.gamma_sweep(spec, gammas, ks, algos, trials=trials, threads=args.threads)
        elif name == "phase-iters":
            budgets = (
                _csv_ints(args.budgets, "--budgets")
                if args.budgets is not None
                else (
                    [1 + 3 * j for j in range(20)] if preset == DESK else [1 + 3 * j for j in range(60)]
                )
            )
            ks = (
                _csv_ints(args.k_levels, "--k-levels")
                if args.k_levels is not None
                else ([30, 40] if preset == DESK else [120, 140, 150, 160, 170, 180])
            )
            trials = args.trials if args.trials is not None else (50 if preset == DESK else 500)
            algos = _split_algos(args.algos, ("domp", "edomp"))
            spec = bench.EnsembleSpec(m=m, n=n, k=ks[0], master_seed=args.seed, noise_amplitude=noise)
            result = bench.iteration_sweep(
                spec, budgets, ks, algos, trials=trials, gamma=args.gamma, threads=args.threads
            )
        else:
            ks = (
                _csv_ints(args.k_levels, "--k-levels")
                if args.k_levels is not None
                else (
                    list(range(1, 76, 3)) if preset == DESK else list(range(1, 300, 3))
                )
            )
            trials = args.trials if args.trials is not None else (50 if preset == DESK else 200)
            algos = _split_algos(args.algos, ("omp", "domp", "edomp", "cosamp", "sp"))
            spec = bench.EnsembleSpec(m=m, n=n, k=ks[0], master_seed=args.seed, noise_amplitude=noise)
            result = bench.success_curves(
                spec, ks, algos, trials=trials, gamma=args.gamma, threads=args.threads
            )

    if args.out is None:
        sys.stdout.write(result.to_csv())
    else:
        result.write(args.out, str(args.out) + ".meta.json")
    return EXIT_OK


def _cmd_ric(args):
    if (args.order is None) == (not args.highest):
        raise UsageError("choose exactly one of --order Q or --highest")
    A = linalg.load_matrix(args.matrix)
    if args.highest:
        t_max = theory.highest_rip_order(A, cap=args.cap)
        payload = {"matrix": args.matrix, "highest_order": t_max}
    else:
        est = theory.ric_exact(A, args.order, cap=args.cap)
        payload = {
            "matrix": args.matrix,
            "order": est.order,
            "delta": est.delta,
            "method": est.method,
            "supports_examined": est.supports_examined,
        }
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return EXIT_OK


def _cmd_verify(args):
    name, flags, fixed = VERIFY_SUITES[args.suite]
    given = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    summary = getattr(theory, name)(args.trials, args.seed, **fixed, **given)
    _emit(summary.to_json(indent=2) + "\n", args.output)
    return EXIT_OK if summary.violations == 0 else EXIT_VIOLATIONS


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    # Exit codes by where the error comes from.  LinAlgError subclasses
    # ValueError and FileFormatError is one, so their clauses come first;
    # every other ValueError is the library rejecting a flag value.
    try:
        return args.func(args)
    except (np.linalg.LinAlgError, FloatingPointError, OverflowError) as exc:
        print(f"error: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (linalg.FileFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, theory.EnumerationCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
