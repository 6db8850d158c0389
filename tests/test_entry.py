"""The process entry, ``cli.run``: ``python -m bright_kit`` and the
``bright-kit`` script both end through it, it keeps what a user sees, and the
premise of its collector freeze holds: no command leaves a file open, so no
unflushed file is left for a finalizer that a frozen object never gets."""

import gc
import importlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import bright_kit
from bright_kit import cli

from test_golden import GOLDEN, RUNS, SCORING_INPUTS
from test_golden_build import GOLDEN as GOLDEN_BUILD, STEPS

ROOT = Path(__file__).parents[1]


def _golden_commands(root: Path):
    """(name, argv) of every golden command; the construction steps read their
    inputs relative to the golden construction fixture."""
    for run, (argv, _, _) in RUNS.items():
        yield run, argv + SCORING_INPUTS + ["--out-dir", str(root / run)]
    for step, argv in STEPS:
        yield step, argv(root) + ["--out-dir", str(root / step)]


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_no_golden_command_leaves_a_file_open(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN_BUILD)
    for name, argv in _golden_commands(tmp_path):
        before = sorted(os.listdir("/proc/self/fd"))
        assert cli.main(argv) == 0, name
        assert sorted(os.listdir("/proc/self/fd")) == before, name


def test_main_leaves_the_collector_unfrozen(tmp_path, monkeypatch, capsys):
    # Tests and perfbench's traced runs call main many times in one process.
    monkeypatch.chdir(GOLDEN_BUILD)
    frozen = gc.get_freeze_count()
    for name, argv in _golden_commands(tmp_path):
        assert cli.main(argv) == 0, name
        assert gc.get_freeze_count() == frozen, name


def test_the_script_and_python_m_run_the_same_entry(monkeypatch):
    # pyproject.toml is read as text: Python 3.10 has no tomllib.
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    (target,) = re.findall(r'^bright-kit = "([\w.]+):(\w+)"$', text, re.MULTILINE)
    calls = []
    monkeypatch.setattr(cli, "run", lambda: calls.append("run"))
    runpy.run_module("bright_kit", run_name="__main__")
    assert calls == ["run"]
    assert getattr(importlib.import_module(target[0]), target[1]) is cli.run


def _process(args, cwd):
    """(exit code, stdout, stderr) of a new interpreter on this checkout's package."""
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


# The entry before cli.run existed: exit with what main returns.
_MAIN_ONLY = ["-c", "import sys; from bright_kit.cli import main; sys.exit(main())"]


EVALUATE = RUNS["evaluate_all_point"]
# name -> (argv, whether it takes an out-dir, exit code)
CASES = {
    "golden_evaluate": (EVALUATE[0] + SCORING_INPUTS, True, 0),
    "usage_error": (["evaluate", "--iou", "high"] + SCORING_INPUTS, True, 2),
    "version": (["--version"], False, 0),
}


@pytest.mark.parametrize("case", list(CASES))
def test_python_m_prints_and_exits_as_main_alone(tmp_path, case):
    argv, takes_out_dir, exit_code = CASES[case]
    results = []
    for entry, out in ((["-m", "bright_kit"], tmp_path / "entry"), (_MAIN_ONLY, tmp_path / "main")):
        code, stdout, stderr = _process(
            entry + argv + (["--out-dir", str(out)] if takes_out_dir else []), tmp_path)
        results.append((code, stdout.replace(str(out), "<out>"), stderr.replace(str(out), "<out>")))
    assert results[0] == results[1]
    assert results[0][0] == exit_code
    if case == "golden_evaluate":
        assert results[0][1] == EVALUATE[2]
        assert "clamped to image bounds" in results[0][2]  # the warnings reach stderr
        for name in EVALUATE[1]:
            expected = (GOLDEN / "expected" / "evaluate_all_point" / name).read_bytes()
            assert (tmp_path / "entry" / name).read_bytes() == expected
