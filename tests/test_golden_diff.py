"""The golden diff report catches decision changes and floats moved past
the last bits, and lets a last-bit change through with a report line."""

import json
import math
import shutil
from pathlib import Path

import pytest

import golden_diff

GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.fixture
def trees(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    for tree in (old, new):
        tree.mkdir()
        for name in ("recover-sp.json", "phase-gamma.csv"):
            shutil.copy(GOLDEN / name, tree / name)
    return old, new


def _edit_json(path, edit):
    report = json.loads(path.read_text())
    edit(report)
    path.write_text(json.dumps(report, indent=2))


def test_identical_trees_give_an_empty_report(trees):
    assert golden_diff.report(*trees) == ([], True)


def test_flipped_termination_is_caught(trees, capsys):
    old, new = trees
    _edit_json(new / "recover-sp.json", lambda r: r.update(termination="stalled"))
    assert golden_diff.main([str(old), str(new)]) == 1
    assert "recover-sp.json: termination: 'residual-increase' -> 'stalled'" in capsys.readouterr().out


def test_one_ulp_change_is_reported_and_passes(trees):
    old, new = trees
    _edit_json(new / "recover-sp.json", lambda r: r.update(residual_norm=math.nextafter(r["residual_norm"], 1.0)))
    lines, ok = golden_diff.report(old, new)
    assert ok
    assert len(lines) == 1
    assert lines[0].startswith("recover-sp.json: 1 float(s) changed: ")
    assert lines[0].endswith("max 1 ulp(s) at residual_norm")


def test_relative_change_of_1e6_is_caught(trees):
    old, new = trees
    _edit_json(new / "recover-sp.json", lambda r: r.update(residual_norm=r["residual_norm"] * (1 + 1e-6)))
    lines, ok = golden_diff.report(old, new)
    assert not ok
    assert "max rel 1e-06" in lines[0]


def test_csv_count_change_and_missing_file_are_caught(trees):
    old, new = trees
    rows = (new / "phase-gamma.csv").read_text().splitlines()
    assert rows[0].split(",")[4] == "successes"
    fields = rows[1].split(",")
    fields[4] = str(int(fields[4]) - 1)
    rows[1] = ",".join(fields)
    (new / "phase-gamma.csv").write_text("\n".join(rows) + "\n")
    (old / "gone.json").write_text("{}")
    lines, ok = golden_diff.report(old, new)
    assert not ok
    assert lines == ["missing: gone.json", "phase-gamma.csv: line 2 successes: 3 -> 2"]
