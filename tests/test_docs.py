"""The README's examples run as written: the Python quick start recovers its
vector, its `recover` line gives the same result from files, and its
sweep lines parse."""

import json
import re
import shlex
from pathlib import Path

from dompkit import linalg
from dompkit.cli import build_parser, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading, language):
    """The first ``language`` code block after the line ``heading``."""
    text = README.read_text(encoding="utf-8")
    pattern = re.escape(heading) + r"\n.*?```" + language + r"\n(.*?)```"
    return re.search(pattern, text, re.S).group(1)


def _commands(block):
    """The argv of each ``dompkit`` command in a shell block."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("dompkit ")]


def _quick_start():
    namespace = {}
    exec(compile(_block("## Quick start", "python"), str(README), "exec"), namespace)
    return namespace


def test_readme_quick_start_succeeds(capsys):
    namespace = _quick_start()
    assert namespace["report"].success
    assert capsys.readouterr().out.startswith("True ")


def test_readme_recover_line_gives_the_quick_start_result(tmp_path, monkeypatch, capsys):
    # The termination is not compared: the Python run stops on its
    # relative-error rule, the CLI run (no --stop) on the global optimum.
    namespace = _quick_start()
    capsys.readouterr()
    monkeypatch.chdir(tmp_path)
    linalg.save_matrix("A.txt", namespace["A"])
    linalg.save_vector("y.txt", namespace["y"])
    linalg.save_vector("x.txt", namespace["x"])
    [argv] = _commands(_block("Command line, with the same result:", "sh"))
    assert argv[0] == "recover"
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    report = namespace["report"]
    assert (payload["success"], payload["iterations"]) == (report.success, report.iterations)
    assert payload["success"] is True


def test_readme_sweep_lines_parse():
    commands = _commands(_block("## Benchmarks", "sh"))
    assert [argv[0] for argv in commands] == ["phase-gamma", "phase-iters", "phase-k", "scaling"]
    parser = build_parser()
    for argv in commands:
        assert parser.parse_args(argv).command == argv[0]
