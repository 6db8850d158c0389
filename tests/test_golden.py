"""The scoring CLI reproduces committed artifacts byte for byte.

``tests/fixtures/golden/`` holds a small seeded ground truth, vocabulary and
prediction dump (see ``make_inputs.py`` there) and, under ``expected/``, the
artifacts ``evaluate`` and ``perturb`` wrote for them before the scorer was
rewritten over numpy columns.  ``expected/compare/`` holds what ``compare``
wrote for the a/b detector maps of ``tests/fixtures/detector_maps.json``
before the subcommands stopped writing their own files.  Any change to these
bytes is a change to the toolkit's results and must be stated, not
regenerated away.  Each run's stdout is pinned here, with its out-dir written
as ``<out>``.
"""

import json
from pathlib import Path

import pytest

from bright_kit.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"
SCORING_INPUTS = ["--gt", str(GOLDEN / "gt.json"), "--preds", str(GOLDEN / "preds.jsonl"),
                  "--vocab", str(GOLDEN / "vocab.json")]

# run -> (argv, artifact files, stdout)
RUNS = {
    "evaluate_all_point": (["evaluate", "--ap-method", "all_point"],
                           ["report.json", "per_class_ap.csv"],
                           "evaluate: mAP 0.2608 over 4 classes -> <out>\n"),
    "evaluate_eleven_point": (["evaluate", "--ap-method", "eleven_point"],
                              ["report.json", "per_class_ap.csv"],
                              "evaluate: mAP 0.2682 over 4 classes -> <out>\n"),
    "perturb_top": (["perturb", "--class", "3", "--flip", "top"], ["perturb.json"],
                    "perturb: class 3 AP 0.5766 -> 0.4451 (22.8% drop) -> <out>\n"),
    "perturb_lowest": (["perturb", "--class", "3", "--flip", "lowest"], ["perturb.json"],
                       "perturb: class 3 AP 0.5766 -> 0.5477 (5.0% drop) -> <out>\n"),
}

COMPARE_STDOUT = """\
DP-HOI: 36.56 (rank 1) -> 40.85 (rank 4, down 3)
RLIPv2: 35.46 (rank 2) -> 41.61 (rank 3, down 1)
PViC: 34.69 (rank 3) -> 43.73 (rank 1, up 2)
HOICLIP: 34.56 (rank 4) -> 39.14 (rank 5, down 1)
GEN-VLKT: 33.61 (rank 5) -> 38.02 (rank 6, down 1)
UPT: 31.65 (rank 6) -> 42.34 (rank 2, up 4)
CQL: 31.58 (rank 7) -> 33.59 (rank 9, down 2)
CDN: 31.36 (rank 8) -> 35.24 (rank 7, up 1)
QPIC: 29.11 (rank 9) -> 34.0 (rank 8, up 1)
"""


def _assert_golden(out: Path, run: str, files: list[str]) -> None:
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name in files:
        assert (out / name).read_bytes() == (GOLDEN / "expected" / run / name).read_bytes()


@pytest.mark.parametrize("run", list(RUNS))
def test_cli_reproduces_golden_artifacts(tmp_path, capsys, run):
    argv, files, stdout = RUNS[run]
    out = tmp_path / run
    assert main(argv + SCORING_INPUTS + ["--out-dir", str(out)]) == 0
    assert capsys.readouterr().out.replace(str(out), "<out>") == stdout
    _assert_golden(out, run, files)


def test_compare_reproduces_golden_artifacts(tmp_path, capsys):
    maps = json.loads((FIXTURES / "detector_maps.json").read_text())
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        for model, mean_ap in maps[side].items():
            (tmp_path / side / f"{model}.json").write_text(json.dumps({"mean_ap": mean_ap}))
    out = tmp_path / "compare"
    argv = ["compare", "--a", str(tmp_path / "a"), "--b", str(tmp_path / "b")]
    assert main(argv + ["--out-dir", str(out)]) == 0
    assert capsys.readouterr().out == COMPARE_STDOUT
    _assert_golden(out, "compare", ["ranking.json", "ranking.csv"])
