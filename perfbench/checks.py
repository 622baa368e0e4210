"""Correctness checks on the outputs of dompkit commands.

Checks that hold at any seed come first: well-formed output, counts that
match the requested grid, a ``recover`` report consistent with its own
problem (the benchmark drew it, so it recomputes the relative error and
the residual from the reported estimate), zero verification violations,
and the ``ric --highest`` order where the full Gram spectrum decides it.
At the default seed every output is also compared with the reference
recorded in ``reference.json``: sweep CSVs and sidecars byte for byte
through their SHA-256, recover and verify reports field by field.
"""

import hashlib
import json

import numpy as np

from workloads import SWEEP_HEADERS

# Relative tolerance on recover estimates and verify min_slack against
# the reference: far above BLAS reordering noise (~1e-15), far below any
# change in which indices are selected.
ESTIMATE_RTOL = 1e-9
SUCCESS_THRESHOLD = 1e-5
TERMINATIONS = ("global-optimum", "iteration-cap", "stalled", "residual-increase")


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def read_outputs(command):
    """Bytes the command wrote: the output file, plus the sidecar of a sweep."""
    files = [command.output]
    if command.kind == "sweep":
        files.append(command.output.with_name(command.output.name + ".meta.json"))
    return tuple(path.read_bytes() if path.exists() else b"" for path in files)


def summarize(command, outputs):
    """The part of an output that the reference records."""
    if command.kind == "sweep":
        return {"csv_sha256": sha256(outputs[0]), "meta_sha256": sha256(outputs[1])}
    data = json.loads(outputs[0])
    if command.kind == "recover":
        support = sorted(int(i) for i in data["estimate"])
        return {
            "iterations": data["iterations"],
            "termination": data["termination"],
            "success": data["success"],
            "support": support,
            "estimate": [data["estimate"][str(i)] for i in support],
        }
    if command.kind == "verify":
        return {key: data[key] for key in ("violations", "inconclusive", "min_slack")}
    return {"highest_order": data["highest_order"]}


def results_of(command, outputs):
    """Scored results one output delivers: sweep trial outcomes, verify
    instances, or one report."""
    if command.kind == "sweep":
        return command.expect["rows"] * command.expect["trials"]
    if command.kind == "verify":
        try:
            return json.loads(outputs[0])["instances"]
        except (ValueError, KeyError):
            return 0
    return 1


def _check_sweep(command, outputs):
    exp = command.expect
    lines = outputs[0].decode().splitlines()
    problems = []
    if lines[0] != SWEEP_HEADERS[exp["sweep"]]:
        problems.append(f"header {lines[0]!r}")
    if len(lines) - 1 != exp["rows"]:
        problems.append(f"{len(lines) - 1} rows, expected {exp['rows']}")
    columns = lines[0].split(",")
    for line in lines[1:]:
        row = dict(zip(columns, line.split(",")))
        trials = int(row["trials"])
        hits = int(row.get("successes", row.get("recovered", -1)))
        if trials != exp["trials"] or not 0 <= hits <= trials:
            problems.append(f"bad counts in row {line!r}")
        if exp["sweep"] == "scaling" and (float(row["mean_runtime"]) or float(row["median3_runtime"])):
            problems.append(f"--no-timing row has runtimes: {line!r}")
    meta = json.loads(outputs[1])
    if meta.get("command") != exp["sweep"] or meta.get("seed") != exp["seed"] or "build_id" not in meta:
        problems.append("sidecar does not describe this sweep")
    return problems


def _check_recover(command, outputs, problem):
    A, x, y = problem
    data = json.loads(outputs[0])
    problems = []
    if data["termination"] not in TERMINATIONS:
        problems.append(f"termination {data['termination']!r}")
    if data["iterations"] != len(data["residual_norms"]):
        problems.append("iterations do not match the residual trace")
    estimate = np.zeros(A.shape[1])
    for key, value in data["estimate"].items():
        estimate[int(key) - 1] = value
    rel = float(np.linalg.norm(estimate - x) / np.linalg.norm(x))
    if abs(rel - data["relative_error"]) > 1e-12 + ESTIMATE_RTOL * rel:
        problems.append(f"relative_error {data['relative_error']} but the estimate gives {rel}")
    if data["success"] != (data["relative_error"] <= SUCCESS_THRESHOLD):
        problems.append("success flag disagrees with the relative error")
    residual = float(np.linalg.norm(y - A @ estimate))
    if abs(residual - data["residual_norm"]) > ESTIMATE_RTOL * float(np.linalg.norm(y)):
        problems.append(f"residual_norm {data['residual_norm']} but the estimate gives {residual}")
    return problems


def _check_verify(command, rc, outputs):
    data = json.loads(outputs[0])
    problems = []
    if data["suite"] != command.expect["suite"] or data["instances"] != command.expect["trials"]:
        problems.append("summary does not describe this suite")
    if data["violations"] != 0 or rc != 0:
        problems.append(f"{data['violations']} violations (exit {rc})")
    if not 0 <= data["inconclusive"] <= data["instances"]:
        problems.append(f"inconclusive count {data['inconclusive']}")
    return problems


def _check_ric(command, outputs):
    R = command.expect["matrix"]
    order = json.loads(outputs[0])["highest_order"]
    n = R.shape[1]
    eigs = np.linalg.eigvalsh(R.T @ R)
    delta_n = max(eigs[-1] - 1.0, 1.0 - eigs[0])
    if not 0 <= order <= n:
        return [f"highest order {order} outside [0, {n}]"]
    if delta_n < 1.0 - 1e-6 and order != n:
        return [f"highest order {order}, but delta_{n} = {delta_n:.6f} < 1"]
    return []


def _matches(expected, actual):
    if expected.keys() != actual.keys():
        return False
    for key, want in expected.items():
        got = actual[key]
        if key in ("estimate", "min_slack") and want is not None and got is not None:
            want_arr, got_arr = np.atleast_1d(want), np.atleast_1d(got)
            if want_arr.shape != got_arr.shape or not np.allclose(got_arr, want_arr, rtol=ESTIMATE_RTOL, atol=0):
                return False
        elif got != want:
            return False
    return True


def check(command, rc, outputs, plan, reference):
    """Problems found in one command's output; an empty list means correct.

    ``reference`` is the recorded summary for this command at the default
    seed, or None at any other seed.
    """
    if command.kind != "verify" and rc != 0:
        return [f"exit code {rc}"]
    try:
        if command.kind == "sweep":
            problems = _check_sweep(command, outputs)
        elif command.kind == "recover":
            problems = _check_recover(command, outputs, plan.problems[command.expect["problem"]])
        elif command.kind == "verify":
            problems = _check_verify(command, rc, outputs)
        else:
            problems = _check_ric(command, outputs)
        if reference is not None and not _matches(reference, summarize(command, outputs)):
            problems.append("differs from the reference recorded at the default seed")
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed output: {exc!r}"]
    return problems
