"""Report what moved between two trees of golden outputs.

    python tests/golden_diff.py OLD NEW

OLD and NEW are directories of CSV and JSON outputs (the golden tree
``tests/data/golden`` or a directory the same commands wrote).  For each
file the report lists:

- a file present on one side only;
- every changed decision field: in a CSV the header, the row count and
  each integer or string column (a column is an integer column when every
  value on both sides parses as an int); in a JSON file every value that
  is not a float (support keys, termination, iterations, success,
  violations, inconclusive, instances, highest order, ...) and every
  added or removed key or list entry;
- for the float fields that changed, their count and the largest
  absolute, relative and ulp change, with the field that has the most
  ulps.

Identical trees give an empty report.  The exit status is 1 when a file
is missing or extra, a decision field changed, or a float moved by more
than ``MAX_ULPS`` units in the last place; 0 otherwise.  The report is
evidence for a change that rewrites goldens; it replaces no golden test.
"""

import csv
import json
import math
import struct
import sys
from pathlib import Path

MAX_ULPS = 4
SUFFIXES = (".csv", ".json")


def ulps(a, b):
    """Units in the last place between two finite doubles."""

    def ordered(v):
        bits = struct.unpack("<q", struct.pack("<d", v))[0]
        return bits if bits >= 0 else -(bits & 0x7FFFFFFFFFFFFFFF)

    return abs(ordered(a) - ordered(b))


class FloatChanges:
    """The float fields of one file that changed, summarized."""

    def __init__(self):
        self.count = 0
        self.abs = self.rel = 0.0
        self.ulps = 0
        self.worst = None

    def add(self, where, old, new):
        """Record a change; return False when it is not a float change
        (a NaN or infinity on one side only)."""
        if not (math.isfinite(old) and math.isfinite(new)):
            return math.isnan(old) and math.isnan(new) or old == new
        self.count += 1
        diff = abs(new - old)
        self.abs = max(self.abs, diff)
        self.rel = max(self.rel, diff / max(abs(old), abs(new)) if diff else 0.0)
        distance = ulps(old, new)
        if distance > self.ulps:
            self.ulps, self.worst = distance, where
        return True

    def line(self):
        return (f"{self.count} float(s) changed: max abs {self.abs:.3g}, max rel {self.rel:.3g}, "
                f"max {self.ulps} ulp(s) at {self.worst}")


def _all_parse(values, kind):
    try:
        for v in values:
            kind(v)
    except ValueError:
        return False
    return True


def diff_csv(old_path, new_path):
    """Decision-field lines and the float summary of two CSV files."""
    old = list(csv.reader(old_path.read_text().splitlines()))
    new = list(csv.reader(new_path.read_text().splitlines()))
    floats = FloatChanges()
    if not old or not new or old[0] != new[0]:
        return [f"header: {old[:1]} -> {new[:1]}"], floats
    header, old, new = old[0], old[1:], new[1:]
    lines = [] if len(old) == len(new) else [f"rows: {len(old)} -> {len(new)}"]
    for col, name in enumerate(header):
        pairs = [(row, a[col], b[col]) for row, (a, b) in enumerate(zip(old, new), start=2)]
        values = [v for _, a, b in pairs for v in (a, b)]
        floating = not _all_parse(values, int) and _all_parse(values, float)
        for row, a, b in pairs:
            if a == b:
                continue
            if floating and floats.add(f"line {row} {name}", float(a), float(b)):
                continue
            lines.append(f"line {row} {name}: {a} -> {b}")
    return lines, floats


def _leaves(value, path=""):
    """(path, value) for every leaf of a parsed JSON document; a dict or
    list contributes its own path too, so added or removed keys show."""
    if isinstance(value, dict):
        yield path, "{}"
        for key, item in value.items():
            yield from _leaves(item, f"{path}.{key}" if path else str(key))
    elif isinstance(value, list):
        yield path, "[]"
        for i, item in enumerate(value):
            yield from _leaves(item, f"{path}[{i}]")
    else:
        yield path, value


def diff_json(old_path, new_path):
    """Decision-field lines and the float summary of two JSON files."""
    old = dict(_leaves(json.loads(old_path.read_text())))
    new = dict(_leaves(json.loads(new_path.read_text())))
    floats = FloatChanges()
    lines = []
    for path in sorted(old.keys() | new.keys()):
        if path not in new:
            lines.append(f"{path}: removed")
        elif path not in old:
            lines.append(f"{path}: added")
        else:
            a, b = old[path], new[path]
            if type(a) is float and type(b) is float:
                if a != b and not floats.add(path, a, b):
                    lines.append(f"{path}: {a!r} -> {b!r}")
            elif type(a) is not type(b) or a != b:
                lines.append(f"{path}: {a!r} -> {b!r}")
    return lines, floats


def report(old_dir, new_dir):
    """The report's lines and whether the trees agree within MAX_ULPS."""
    old_dir, new_dir = Path(old_dir), Path(new_dir)

    def files(root):
        return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.suffix in SUFFIXES}

    old_files, new_files = files(old_dir), files(new_dir)
    lines = [f"missing: {name}" for name in sorted(old_files - new_files)]
    lines += [f"extra: {name}" for name in sorted(new_files - old_files)]
    ok = not lines
    for name in sorted(old_files & new_files):
        compare = diff_csv if name.endswith(".csv") else diff_json
        decisions, floats = compare(old_dir / name, new_dir / name)
        lines += [f"{name}: {line}" for line in decisions]
        if floats.count:
            lines.append(f"{name}: {floats.line()}")
        ok = ok and not decisions and floats.ulps <= MAX_ULPS
    return lines, ok


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print("usage: python tests/golden_diff.py OLD NEW", file=sys.stderr)
        return 2
    lines, ok = report(*args)
    for line in lines:
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
