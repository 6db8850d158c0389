"""The scoring CLI reproduces committed artifacts byte for byte.

``tests/fixtures/golden/`` holds a small seeded ground truth, vocabulary and
prediction dump (see ``make_inputs.py`` there) and, under ``expected/``, the
artifacts ``evaluate`` and ``perturb`` wrote for them before the scorer was
rewritten over numpy columns.  Any change to these bytes is a change to the
toolkit's results and must be stated, not regenerated away.
"""

from pathlib import Path

import pytest

from bright_kit.cli import main

GOLDEN = Path(__file__).parent / "fixtures" / "golden"

RUNS = {
    "evaluate_all_point": (["evaluate", "--ap-method", "all_point"],
                           ["report.json", "per_class_ap.csv"]),
    "evaluate_eleven_point": (["evaluate", "--ap-method", "eleven_point"],
                              ["report.json", "per_class_ap.csv"]),
    "perturb_top": (["perturb", "--class", "3", "--flip", "top"], ["perturb.json"]),
    "perturb_lowest": (["perturb", "--class", "3", "--flip", "lowest"], ["perturb.json"]),
}


@pytest.mark.parametrize("run", list(RUNS))
def test_cli_reproduces_golden_artifacts(tmp_path, run):
    argv, files = RUNS[run]
    out = tmp_path / run
    code = main(argv + [
        "--gt", str(GOLDEN / "gt.json"),
        "--preds", str(GOLDEN / "preds.jsonl"),
        "--vocab", str(GOLDEN / "vocab.json"),
        "--out-dir", str(out),
    ])
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    for name in files:
        assert (out / name).read_bytes() == (GOLDEN / "expected" / run / name).read_bytes()
