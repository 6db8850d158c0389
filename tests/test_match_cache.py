"""The load cache's match entry: a scoring process that finds it gives the
bytes, messages and exit code of one that matches, without numpy.

Each command runs as its own ``python -m bright_kit`` process, as a user runs
it, and reports whether it loaded numpy or the evaluator.  The reference run
of each command has a cache directory that cannot be created, so it loads
and matches everything, and its scores equal the library's, which never
pass through a cache entry.
"""

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

import bright_kit
from bright_kit import (DataError, MatchConfig, evaluate, load_dataset, load_predictions,
                        load_vocabulary, perturb_tp_flip, save_split, save_vocabulary)
from bright_kit.jsonio import write_json_lines

from helpers import make_dataset, make_vocab

# Runs the package as ``python -m`` does, then writes which modules it loaded.
PROBE = """
import atexit, json, runpy, sys

def loaded(path=sys.argv[1]):
    with open(path, "w") as f:
        json.dump([m in sys.modules for m in ("numpy", "bright_kit.evaluator")], f)

atexit.register(loaded)
sys.argv = ["bright_kit", *sys.argv[2:]]
runpy.run_module("bright_kit", run_name="__main__", alter_sys=True)
"""


@pytest.fixture
def inputs(tmp_path):
    """A clamp-free split of classes 1-4 (class 5 has no ground truth) and a
    dump of jittered hits and background boxes; returns the common flags."""
    rng = random.Random(31)
    vocab = make_vocab(5)
    gt = make_dataset([[rng.randint(1, 4) for _ in range(rng.randint(1, 3))] for _ in range(12)],
                      vocab, seed=31)
    rows = []
    for image in gt.images:
        for inst in image.instances:
            for _ in range(rng.randint(0, 2)):
                d = rng.uniform(0, 3)
                rows.append({"image_id": image.image_id, "class_id": inst.class_id,
                             "human_box": [v + d for v in inst.human_box.as_list()],
                             "object_box": inst.object_box.as_list(),
                             "score": round(rng.random(), 2)})
        for _ in range(3):
            x, y = rng.uniform(0, 60), rng.uniform(0, 60)
            rows.append({"image_id": image.image_id, "class_id": rng.randint(1, 5),
                         "human_box": [x, y, x + 20, y + 30], "object_box": [y, x, y + 9, x + 9],
                         "score": round(rng.random(), 2)})
    save_vocabulary(vocab, tmp_path / "vocab.json")
    save_split(gt, tmp_path / "gt.json")
    write_json_lines(tmp_path / "preds.jsonl", rows)
    return ["--gt", str(tmp_path / "gt.json"), "--preds", str(tmp_path / "preds.jsonl"),
            "--vocab", str(tmp_path / "vocab.json")]


def _run(tmp_path: Path, argv: list[str], cache: Path, log: str = "WARNING"):
    """``(exit code, stdout, stderr, {artifact: bytes})`` and whether numpy and
    the evaluator were loaded, for one command process over ``cache``."""
    out, probe = tmp_path / "out", tmp_path / "loaded.json"
    shutil.rmtree(out, ignore_errors=True)
    src = str(Path(bright_kit.__file__).resolve().parents[1])
    env = {**os.environ, "XDG_CACHE_HOME": str(cache), "BRIGHT_KIT_LOG": log,
           "PYTHONPATH": os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", PROBE, probe, *argv, "--out-dir", out],
                          env=env, capture_output=True, text=True, timeout=120)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())} if out.exists() else {}
    return (done.returncode, done.stdout, done.stderr, files), json.loads(probe.read_text())


def _library(command: list[str], inputs: list[str]) -> dict:
    """What the library computes for ``command``, as its artifact holds it."""
    vocab = load_vocabulary(inputs[5])
    gt, preds = load_dataset(inputs[1], vocab), load_predictions(inputs[3], vocab)
    flags = dict(zip(command[1::2], command[2::2]))
    if command[0] == "evaluate":
        cfg = MatchConfig(ap_method=flags.get("--ap-method", "all_point"))
        return evaluate(preds, gt, vocab, cfg).to_dict()
    try:
        return asdict(perturb_tp_flip(preds, gt, int(flags["--class"]), MatchConfig(),
                                      flags.get("--flip", "top")))
    except DataError as exc:
        return {"error": str(exc)}


def _artifact(result) -> dict:
    """The scores a run wrote (its JSON artifact less the stamp), or its error message."""
    code, _, err, files = result
    if code:
        return {"error": json.loads(err)["error"]["message"]}
    name = "report.json" if "report.json" in files else "perturb.json"
    return {k: v for k, v in json.loads(files[name]).items() if k != "meta"}


EVALUATE = [["evaluate"], ["evaluate", "--ap-method", "eleven_point"]]
PERTURB = [["perturb", "--class", "1", "--flip", "top"],
           ["perturb", "--class", "1", "--flip", "lowest"],
           ["perturb", "--class", "5"]]  # no ground truth: exit 3


@pytest.mark.parametrize("first", ["evaluate", "perturb"])
def test_a_cached_match_gives_the_same_outputs_without_numpy(tmp_path, inputs, first):
    commands = EVALUATE + PERTURB if first == "evaluate" else PERTURB + EVALUATE
    (tmp_path / "no_cache").write_text("")  # not a directory: nothing is ever stored
    want = [_run(tmp_path, c + inputs, tmp_path / "no_cache")[0] for c in commands]
    assert [w[0] for w in want] == ([0, 0, 0, 0, 3] if first == "evaluate" else [0, 0, 3, 0, 0])
    assert "1 classes have no ground truth" in want[commands.index(["evaluate"])][2]
    assert [_artifact(w) for w in want] == [_library(c, inputs) for c in commands]
    cache = tmp_path / "cache"
    for warm in (False, True):
        for n, command in enumerate(commands):
            got, (numpy, evaluator) = _run(tmp_path, command + inputs, cache)
            assert got == want[n], (warm, command)
            miss = not warm and n == 0
            assert (numpy, evaluator) == (miss, miss), (warm, command)


def test_a_dump_taking_the_row_rule_stores_no_match_and_warns_every_run(tmp_path, inputs):
    preds = Path(inputs[3])
    rows = preds.read_text().splitlines()
    row = json.loads(rows[0])
    row["human_box"][0] = -1.0  # clamped to 0 with a warning
    preds.write_text("\n".join([json.dumps(row), *rows[1:]]) + "\n")
    cache = tmp_path / "cache"
    for command in EVALUATE[:1] + PERTURB[:1]:
        runs = [_run(tmp_path, command + inputs, cache, log="INFO") for _ in range(2)]
        for (code, _, err, _), loaded in runs:
            assert code == 0 and loaded == [True, True]
            warnings = [line for line in err.splitlines() if line.startswith("WARNING")]
            assert warnings[0].startswith(f"WARNING:bright_kit:{preds}:1: ")
            assert "load cache not stored (a row took the row rule): match (IoU 0.5) of " \
                   f"{preds} against " in err
        assert runs[0][0][3] == runs[1][0][3]
        assert [line for line in runs[0][0][2].splitlines() if line.startswith("WARNING")] == \
            [line for line in runs[1][0][2].splitlines() if line.startswith("WARNING")]
    assert len(list((cache / "bright-kit").iterdir())) == 1  # the split's load alone
