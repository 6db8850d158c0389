"""The construction CLI reproduces committed artifacts byte for byte.

``tests/fixtures/golden_build/`` holds a small seeded pool, its vocabulary and
a seen vocabulary (see ``make_inputs.py`` there) and, under ``expected/``,
the artifacts that ``stats``, ``balance``, ``augment --ports mock``,
``balance --augmented`` and ``zeroshot`` wrote for them before the balancer
and the split writer were rewritten for speed.  They were regenerated once
since, on their own, for the balancer's version 2 PRNG stream
(``balancer_version`` 2), which moved the ``balance``, ``balance --augmented``
and ``zeroshot`` bytes.  Any change to these bytes is a change to the
toolkit's results and must be stated, not regenerated away.

The commands run from inside the fixture directory with relative input
paths, because ``augment`` stamps its ``--vocab`` argument into
``augmented.json`` as the ``vocabulary_ref``.  Each step's stdout is pinned
here too, with its out-dir written as ``<out>``; it stays in this file
because ``expected/`` is compared as a whole file set.
"""

import os
import subprocess
import sys
from pathlib import Path

import bright_kit
from bright_kit.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden_build"

BALANCE = ["balance", "--pool", "pool.json", "--vocab", "universe.json", "--top-k", "10",
           "--l-test", "4", "--l-train", "8", "--epochs", "5", "--seed", "11"]

# (step, argv given the output root); each step writes into <root>/<step>.
STEPS = [
    ("stats", lambda root: ["stats", "--pool", "pool.json", "--vocab", "universe.json"]),
    ("balance", lambda root: BALANCE),
    ("augment", lambda root: [
        "augment", "--deficits", str(root / "balance" / "deficits.json"), "--refs", "pool.json",
        "--vocab", "universe.json", "--ports", "mock", "--budget", "6", "--seed", "11"]),
    ("balance_fill", lambda root: BALANCE + [
        "--augmented", str(root / "augment" / "augmented.json")]),
    ("zeroshot", lambda root: [
        "zeroshot", "--seen", "seen.json", "--universe", "universe.json", "--pool", "pool.json",
        "--per-class", "3", "--classes", "3", "--epochs", "2", "--seed", "11"]),
]


STDOUT = {
    "stats": "stats: 90 images, 320 instances -> <out>\n",
    "balance": "balance: test 15 images / 40 instances, train 20 images / 65 instances, "
               "4 deficit classes -> <out>\n",
    "augment": "augment: 15 generated images for 4 deficit classes -> <out>\n",
    "balance_fill": "balance: test 15 images / 40 instances, train 35 images / 80 instances, "
                    "4 deficit classes -> <out>\n",
    "zeroshot": "zeroshot: 3 classes x 3 = 9 instances -> <out>\n",
}


def run_steps(root: Path, capsys) -> None:
    for step, argv in STEPS:
        out = root / step
        assert main(argv(root) + ["--out-dir", str(out)]) == 0, step
        assert capsys.readouterr().out.replace(str(out), "<out>") == STDOUT[step], step


def test_cli_reproduces_golden_construction_artifacts(tmp_path, monkeypatch, capsys, caplog):
    # Run twice against one load cache: the warm run loads augmented.json from
    # the entry the cold run stored (the pool needs clamps, so it is never
    # stored), and both write the committed bytes.  Balancing passes are kept
    # all the same: the cold run's balance_fill reuses balance's two passes,
    # and the warm run walks none of its five.
    monkeypatch.chdir(GOLDEN)
    expected = GOLDEN / "expected"
    for run in ("cold", "warm"):
        root = tmp_path / run
        caplog.clear()
        with caplog.at_level("INFO", logger="bright_kit"):
            run_steps(root, capsys)
        hits = [r.getMessage() for r in caplog.records
                if r.getMessage().startswith("load cache hit")]
        passes = [m for m in hits if m.startswith("load cache hit: balance pass")]
        assert len(hits) - len(passes) == (run == "warm")
        assert len(passes) == (5 if run == "warm" else 2)
        produced = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
        assert produced == sorted(p.relative_to(expected)
                                  for p in expected.rglob("*") if p.is_file())
        for rel in produced:
            assert (root / rel).read_bytes() == (expected / rel).read_bytes(), rel


def test_balance_memo_covers_the_clamped_golden_pool(tmp_path):
    # The pool's 37 clamped boxes keep its load out of the cache, yet its
    # columns carry the file's key: a second `balance` walks no pass.
    # The clamp warnings still print on every run; the bytes do not move.
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {**os.environ, "BRIGHT_KIT_LOG": "INFO", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    for run, outcome in (("cold", "stored"), ("warm", "hit")):
        out = tmp_path / run
        done = subprocess.run([sys.executable, "-m", "bright_kit", *BALANCE, "--out-dir", str(out)],
                              cwd=GOLDEN, env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        lines = done.stderr.splitlines()
        assert sum(line.endswith("clamped to image bounds") for line in lines) == 37
        cached = [line.split(" [key ")[0].split(" over ")[0] for line in lines
                  if line.startswith("INFO:bright_kit:load cache ")]
        assert [line.removeprefix("INFO:bright_kit:load cache ") for line in cached] == [
            "not stored (a row took the row rule): pool.json",
            f"{outcome}: balance pass (seed 11)", f"{outcome}: balance pass (seed 12)"]
        for rel in (GOLDEN / "expected" / "balance").iterdir():
            assert (out / rel.name).read_bytes() == rel.read_bytes(), rel.name
