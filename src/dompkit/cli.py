"""Command-line interface.

Subcommands: single-instance recovery (`recover`), the four experiment
sweeps (`phase-gamma`, `phase-iters`, `phase-k`, `scaling`), exact RIC
certification (`ric`), and the verification suites (`verify`).

Data goes to stdout (JSON or CSV), diagnostics to stderr.  Exit codes:
0 success, 1 verification violations, 2 usage errors (including any flag
value the library rejects), 3 data errors (unreadable or malformed
files), 4 numeric failures.  Flag values are checked by the library
objects that consume them; this module only parses them: a flag's type
converts its text (``int``, ``float``, a comma-separated list) and checks
no range.  A command rejects every flag it does not take: a sweep has
only the flags of its `SWEEPS` row, spelled out in full, and a verify
suite only those of its `VERIFY_SUITES` row.  Sweep commands require an
explicit --seed; there is no hidden entropy.  Estimates in JSON use
1-based index:value pairs.
"""

import argparse
import json
import sys

import numpy as np

from . import __version__, bench, linalg, theory
from .algorithms import ALGORITHMS, AlgorithmConfig, StoppingRule, run

__all__ = ["build_parser", "console_main", "main"]

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

PRESETS = ("desk", "full")

# Each --stop kind: the AlgorithmConfig keyword it sets and what makes its value.
_STOP_RULES = {
    "max-iters": ("max_iterations", int),
    "residual": ("stopping", lambda text: StoppingRule.measurement_residual(float(text))),
    "gradient": ("stopping", lambda text: StoppingRule.gradient_residual(float(text))),
    "relerr": ("stopping", lambda text: StoppingRule.relative_error(float(text))),
}


class UsageError(ValueError):
    """Invalid flag combination or value; maps to exit code 2."""


def _csv_list(convert, expected):
    """An argparse type: a nonempty comma-separated list, each item converted."""

    def parse(text):
        try:
            values = [convert(tok) for tok in text.split(",") if tok.strip()]
        except ValueError:
            values = []
        if not values:
            raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
        return values

    return parse


_csv_ints = _csv_list(int, "comma-separated integers")
_csv_floats = _csv_list(float, "comma-separated numbers")
_csv_names = _csv_list(str.strip, "a comma-separated list")

# Each sweep flag: the bench keyword it fills and its argparse options.
_SWEEP_FLAGS = {
    "m": ("m", dict(type=int)),
    "n": ("n", dict(type=int)),
    "noise": ("noise_amplitude", dict(type=float, default=0.0,
                                      help="additive gaussian amplitude; switches to the noisy criterion")),
    "k-levels": ("ks", dict(type=_csv_ints, help="comma-separated sparsity levels")),
    "gammas": ("gammas", dict(type=_csv_floats, help="comma-separated threshold values")),
    "budgets": ("budgets", dict(type=_csv_ints, help="comma-separated iteration budgets")),
    "sizes": ("ms", dict(type=_csv_ints, help="comma-separated row counts m (n = 5m)")),
    "trials": ("trials", dict(type=int, help="trials per cell")),
    "algos": ("algorithms", dict(type=_csv_names, help="comma-separated algorithm list")),
    "gamma": ("gamma", dict(type=float, default=0.9)),
    "timing": ("timed", dict(action=argparse.BooleanOptionalAction, default=True,
                             help="--no-timing zeroes runtime columns for byte-reproducible CSV")),
}

_ENSEMBLE = {"m": (125, 500), "n": (500, 2000), "noise": None}
_PHASE_K_LEVELS = ([30, 40], [120, 140, 150, 160, 170, 180])
_FIVE_SOLVERS = ["omp", "domp", "edomp", "cosamp", "sp"]

# Each sweep command: the bench function that runs it (looked up by name
# at call time, like a verify suite's), its help, and the flags it takes,
# each with its (desk, full) defaults, in PRESETS order, or None where the
# flag's own default holds at both presets.  A sweep with --m/--n runs on an
# EnsembleSpec whose k is the first sparsity level.
SWEEPS = {
    "phase-gamma": ("gamma_sweep", "success rates across the selection threshold", {
        **_ENSEMBLE,
        "k-levels": _PHASE_K_LEVELS,
        "gammas": ([t / 20 for t in range(1, 21)],) * 2,
        "trials": (50, 500),
        "algos": (["domp", "edomp"],) * 2,
    }),
    "phase-iters": ("iteration_sweep", "success rates across the iteration budget", {
        **_ENSEMBLE,
        "k-levels": _PHASE_K_LEVELS,
        "budgets": ([1 + 3 * j for j in range(20)], [1 + 3 * j for j in range(60)]),
        "trials": (50, 500),
        "algos": (["domp", "edomp"],) * 2,
        "gamma": None,
    }),
    "phase-k": ("success_curves", "success rates across the sparsity level", {
        **_ENSEMBLE,
        "k-levels": (list(range(1, 76, 3)), list(range(1, 300, 3))),
        "trials": (50, 200),
        "algos": (_FIVE_SOLVERS,) * 2,
        "gamma": None,
    }),
    "scaling": ("scaling_benchmark", "iterations-to-recovery and runtime across problem sizes", {
        "sizes": ([200 * j for j in range(1, 6)], [200 * j for j in range(1, 11)]),
        "trials": (10, 50),
        "algos": (_FIVE_SOLVERS,) * 2,
        "gamma": None,
        "timing": None,
    }),
}

# Each verify flag, by the suite keyword it fills: the flag and its type.
_VERIFY_FLAGS = {
    "m": ("--m", int),
    "n": ("--n", int),
    "k": ("--k", int),
    "c": ("--c", int),
    "gamma": ("--gamma", float),
    "noise_amplitude": ("--noise", float),
}

# Each verify suite: the theory function that runs it (looked up by name
# at call time, so a wrapper bound onto the module is the one called), the
# flags it takes, named as its keywords, and its fixed keywords.  A flag
# the suite does not take is a usage error; a flag left out keeps the
# default.
VERIFY_SUITES = {
    "proximity": ("projection_proximity_suite", ("m", "n", "k", "gamma"), {}),
    "aux-inequalities": ("auxiliary_inequality_suite", (), {}),
    "bound-domp": ("recovery_bound_suite", tuple(_VERIFY_FLAGS), {"algorithm": "domp"}),
    "bound-edomp": ("recovery_bound_suite", tuple(_VERIFY_FLAGS), {"algorithm": "edomp"}),
    "theta": ("theta_equivalence_suite", (), {}),
    "ric-monotone": ("ric_monotonicity_suite", (), {}),
}


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
    rec.add_argument("--sparsity", required=True, type=int, help="target sparsity k")
    rec.add_argument("--algo", required=True, help=f"one of {', '.join(ALGORITHMS)}")
    rec.add_argument("--gamma", type=float, default=None,
                     help="selection threshold in (0, 1] for domp/edomp (default 0.9)")
    rec.add_argument("--gomp-n", type=int, default=None, help="indices per gOMP iteration")
    rec.add_argument(
        "--stop",
        default=None,
        help="stopping rule: max-iters:N (the iteration budget) | residual:EPS | gradient:EPS | relerr:EPS",
    )
    rec.add_argument("--truth", default=None, help="ground-truth vector file for success scoring")
    rec.add_argument("--reset-support", action="store_true", help="thresholded variant drops stale support")
    rec.add_argument("--output", default=None, help="write the JSON report here instead of stdout")
    rec.set_defaults(func=_cmd_recover)

    for command, (_, helptext, flags) in SWEEPS.items():
        # No abbreviations: phase-gamma's --gammas must not take --gamma.
        sw = sub.add_parser(command, help=helptext, allow_abbrev=False)
        sw.add_argument("--preset", choices=PRESETS, default=PRESETS[0],
                        help="desk: minutes-scale grid; full: the full-scale grid")
        sw.add_argument("--seed", type=int, required=True, help="master seed")
        sw.add_argument("--threads", type=int, default=1,
                        help="accepted and ignored: trials run one after another")
        sw.add_argument("--out", default=None, help="CSV path; provenance sidecar written next to it")
        for flag in flags:
            sw.add_argument(f"--{flag}", **_SWEEP_FLAGS[flag][1])
        sw.set_defaults(func=_cmd_sweep)

    ric = sub.add_parser("ric", help="exact restricted isometry constants by exhaustive enumeration")
    ric.add_argument("--matrix", required=True)
    order = ric.add_mutually_exclusive_group(required=True)
    order.add_argument("--order", type=int, help="single order q")
    order.add_argument("--highest", action="store_true", help="largest order with delta < 1")
    ric.add_argument("--cap", type=int, default=theory.DEFAULT_ENUMERATION_CAP,
                     help="support-enumeration cap")
    ric.add_argument("--output", default=None)
    ric.set_defaults(func=_cmd_ric)

    ver = sub.add_parser("verify", help="randomized verification suites for the recovery theory")
    ver.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    ver.add_argument("--trials", required=True, type=int)
    ver.add_argument("--seed", required=True, type=int)
    for key, (flag, kind) in _VERIFY_FLAGS.items():
        ver.add_argument(flag, dest=key, metavar=flag[2:].upper(), type=kind, default=None)
    ver.add_argument("--output", default=None)
    ver.set_defaults(func=_cmd_verify)

    return parser


def _emit(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _stop_setting(text):
    """{AlgorithmConfig keyword: value} that a --stop value kind:value sets, or {}.

    The kind picks the keyword and converts the text; the maker and AlgorithmConfig check it.
    """
    if text is None:
        return {}
    kind, _, value = text.partition(":")
    if kind not in _STOP_RULES:
        raise UsageError(f"stopping rule needs the form kind:value with kind one of "
                         f"{', '.join(_STOP_RULES)}, got {text!r}")
    keyword, make = _STOP_RULES[kind]
    try:
        return {keyword: make(value)}
    except ValueError as exc:
        raise UsageError(f"bad stopping rule {text!r}: {exc}") from exc


def _sparse_estimate(x):
    pairs = {}
    for idx in np.flatnonzero(x):
        pairs[str(int(idx) + 1)] = float(x[idx])
    return pairs


def _cmd_recover(args):
    # Flags are checked before any file is read: a bad flag beats a bad file.
    stop = _stop_setting(args.stop)
    if "stopping" in stop and stop["stopping"].kind == "relative-error" and args.truth is None:
        raise UsageError("relerr stopping rule needs --truth")
    config = AlgorithmConfig(args.algo, k=args.sparsity, gamma=args.gamma, n_select=args.gomp_n,
                             reset_support=args.reset_support, **stop)

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


def _cmd_sweep(args):
    name, _, flags = SWEEPS[args.command]
    column = PRESETS.index(args.preset)
    keywords = {}
    for flag, presets in flags.items():
        value = getattr(args, flag.replace("-", "_"))
        keywords[_SWEEP_FLAGS[flag][0]] = presets[column] if value is None else value
    ensemble = {key: keywords.pop(key) for key in ("m", "n", "noise_amplitude") if key in keywords}
    if ensemble:
        keywords["spec"] = bench.EnsembleSpec(k=keywords["ks"][0], master_seed=args.seed, **ensemble)
    else:
        keywords["master_seed"] = args.seed
    result = getattr(bench, name)(**keywords)
    _emit(result.to_csv(), args.out)
    if args.out is not None:
        _emit(result.provenance_json(), args.out + ".meta.json")
    return EXIT_OK


def _cmd_ric(args):
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
    given = {key: getattr(args, key) for key in _VERIFY_FLAGS if getattr(args, key) is not None}
    foreign = [_VERIFY_FLAGS[key][0] for key in given if key not in flags]
    if foreign:
        raise UsageError(f"suite {args.suite} does not take {', '.join(foreign)}")
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
