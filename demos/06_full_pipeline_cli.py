#!/usr/bin/env python3
"""The whole toolkit end to end through the CLI, on a synthetic benchmark.

Sequence: stats -> balance (test-first) -> augment deficits with mock ports
-> balance again with the augmented file -> zero-shot split -> evaluate a
synthetic prediction dump -> TP-flip probe -> ranking comparison.  Runs twice
with the same seed and shows the artifacts come out byte-identical.

Usage:
    python3 demos/06_full_pipeline_cli.py [workdir]

Without a work directory the demo runs in a temporary one and removes it.
"""

import hashlib
import json
import random
import sys
import tempfile
from pathlib import Path

from bright_kit import (
    Dataset,
    load_dataset,
    load_vocabulary,
    save_split,
    save_vocabulary,
    subtract,
)
from bright_kit.cli import main as cli
from bright_kit.model import BBox, HoiClass, HoiInstance, ImageRecord, Vocabulary


def build_inputs(shared: Path):
    universe = Vocabulary([
        HoiClass(1, 1, 1, "hold", "bicycle"), HoiClass(2, 2, 1, "ride", "bicycle"),
        HoiClass(3, 3, 1, "wash", "bicycle"), HoiClass(4, 1, 2, "hold", "horse"),
        HoiClass(5, 2, 2, "ride", "horse"), HoiClass(6, 3, 2, "wash", "horse"),
        HoiClass(7, 1, 3, "hold", "car"), HoiClass(8, 3, 3, "wash", "car"),
    ])
    seen = universe.subset([1, 2, 3, 4, 5, 8])
    save_vocabulary(universe, shared / "universe.json")
    save_vocabulary(seen, shared / "vocab.json")

    rng = random.Random(77)

    def image(prefix, i, class_ids, vocab):
        insts = []
        for cid in class_ids:
            x1, y1 = rng.uniform(0, 60), rng.uniform(0, 60)
            insts.append(HoiInstance(BBox(x1, y1, x1 + 25, y1 + 25),
                                     BBox(x1 + 8, y1 + 8, x1 + 38, y1 + 38), cid))
        return ImageRecord(f"{prefix}{i:04d}", f"{prefix}{i:04d}.jpg", 100, 100,
                           tuple(insts))

    ids = list(seen.class_ids())
    lists = [[rng.choice(ids) for _ in range(rng.randint(1, 3))] for _ in range(100)]
    lists = [[c for c in lst if c != 3] or [1] for lst in lists][:95] + [[3]] * 2
    pool = Dataset([image("img", i, lst, seen) for i, lst in enumerate(lists)], seen)
    save_split(pool, shared / "pool.json")

    zs_lists = ([[6]] * 5 + [[7]] * 5 + [[6, 7]] * 2)
    zs_pool = Dataset([image("zs", i, lst, universe) for i, lst in enumerate(zs_lists)],
                      universe)
    save_split(zs_pool, shared / "zs_pool.json")


def run_pipeline(run_dir: Path, shared: Path):
    run_dir.mkdir()

    def step(title, *argv):
        print(f"\n$ bright-kit {' '.join(str(a) for a in argv)}")
        code = cli([str(a) for a in argv])
        assert code == 0, f"{title} failed with exit {code}"

    step("stats", "stats", "--pool", shared / "pool.json", "--vocab", shared / "vocab.json",
         "--out-dir", run_dir / "stats")
    step("balance", "balance", "--pool", shared / "pool.json",
         "--vocab", shared / "vocab.json", "--top-k", "6", "--l-test", "2",
         "--l-train", "4", "--epochs", "10", "--seed", "33", "--out-dir", run_dir / "bal")
    step("augment", "augment", "--deficits", run_dir / "bal" / "deficits.json",
         "--refs", shared / "pool.json", "--vocab", shared / "vocab.json",
         "--budget", "20", "--target", "per-deficit", "--ports", "mock",
         "--seed", "33", "--out-dir", run_dir / "aug")
    step("balance+fill", "balance", "--pool", shared / "pool.json",
         "--vocab", shared / "vocab.json", "--top-k", "6", "--l-test", "2",
         "--l-train", "4", "--epochs", "10", "--seed", "33",
         "--augmented", run_dir / "aug" / "augmented.json",
         "--out-dir", run_dir / "bal_filled")

    universe = load_vocabulary(shared / "universe.json")
    seen = load_vocabulary(shared / "vocab.json")
    test = load_dataset(run_dir / "bal_filled" / "test.json", seen)
    train = load_dataset(run_dir / "bal_filled" / "train.json", seen)
    zs_pool = load_dataset(shared / "zs_pool.json", universe)
    remainder = subtract(zs_pool, set(test.image_ids()) | set(train.image_ids()))
    save_split(remainder, run_dir / "remainder.json")
    step("zeroshot", "zeroshot", "--seen", shared / "vocab.json",
         "--universe", shared / "universe.json", "--pool", run_dir / "remainder.json",
         "--per-class", "3", "--classes", "2", "--epochs", "10", "--seed", "33",
         "--out-dir", run_dir / "zs")

    rng = random.Random(5)
    rows = []
    for rec in test.images:
        for inst in rec.instances:
            rows.append({"image_id": rec.image_id,
                         "human_box": inst.human_box.as_list(),
                         "object_box": inst.object_box.as_list(),
                         "class_id": inst.class_id,
                         "score": round(rng.random(), 4)})
    (run_dir / "preds.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    step("evaluate", "evaluate", "--gt", run_dir / "bal_filled" / "test.json",
         "--preds", run_dir / "preds.jsonl", "--vocab", shared / "vocab.json",
         "--out-dir", run_dir / "eval")

    report = json.loads((run_dir / "eval" / "report.json").read_text())
    probe = min(int(c) for c in report["per_class_ap"])
    step("perturb", "perturb", "--class", probe,
         "--gt", run_dir / "bal_filled" / "test.json",
         "--preds", run_dir / "preds.jsonl", "--vocab", shared / "vocab.json",
         "--out-dir", run_dir / "pert")

    (run_dir / "ra").mkdir(), (run_dir / "rb").mkdir()
    (run_dir / "ra" / "model.json").write_text(json.dumps({"mean_ap": 30.0}))
    (run_dir / "rb" / "model.json").write_text(json.dumps({"mean_ap": report["mean_ap"]}))
    step("compare", "compare", "--a", run_dir / "ra", "--b", run_dir / "rb",
         "--out-dir", run_dir / "cmp")


def digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(run_dir)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def main():
    if len(sys.argv) > 1:
        run_twice(Path(sys.argv[1]))
    else:
        with tempfile.TemporaryDirectory(prefix="bright_kit_") as tmp:
            run_twice(Path(tmp))


def run_twice(base: Path):
    base.mkdir(parents=True, exist_ok=True)
    shared = base / "inputs"
    shared.mkdir(exist_ok=True)
    build_inputs(shared)

    print("=" * 64)
    print(f"Working directory: {base}")
    print("=" * 64)
    run_pipeline(base / "run1", shared)
    run_pipeline(base / "run2", shared)

    d1, d2 = digest(base / "run1"), digest(base / "run2")
    print("\n" + "=" * 64)
    print("Reproducibility check")
    print("=" * 64)
    print(f"  run1 artifact digest: {d1[:32]}...")
    print(f"  run2 artifact digest: {d2[:32]}...")
    print(f"  byte-identical: {d1 == d2}")


if __name__ == "__main__":
    main()
