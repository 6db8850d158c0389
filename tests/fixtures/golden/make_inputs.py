#!/usr/bin/env python3
"""Write the seeded inputs of the golden scoring fixture into this directory.

    python3 tests/fixtures/golden/make_inputs.py

The inputs are small on purpose, but they reach every branch of the scorer:

- scores rounded to one decimal, so they tie within a class and across images
- image-class groups with up to four ground-truth instances that overlap, so
  the greedy match has to choose
- boxes with negative coordinates, which the loader clamps with a warning
- class 4 has ground truth and no predictions; classes 5 and 6 are in the
  vocabulary without ground truth, and class 5 still has predictions

The ``expected/`` files next to the inputs are the CLI's artifacts for these
inputs, written once by the scorer before its columnar rewrite.
``tests/test_golden.py`` asserts that the CLI still reproduces them byte for
byte; they are never regenerated to make that test pass.
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).parent
SEED = 20240611
SIZE = 100
CLASSES = [(1, "hold", "cup"), (2, "drink_with", "cup"), (3, "ride", "horse"),
           (4, "feed", "horse"), (5, "hold", "horse"), (6, "ride", "bicycle")]
GT_CLASSES = (1, 2, 3, 4)
PRED_CLASSES = (1, 2, 3, 5)


def _box(rng):
    w, h = rng.uniform(15, 40), rng.uniform(15, 40)
    x1, y1 = rng.uniform(0, SIZE - w), rng.uniform(0, SIZE - h)
    return [round(x1, 2), round(y1, 2), round(x1 + w, 2), round(y1 + h, 2)]


def _jitter(rng, box, spread):
    dx, dy = rng.uniform(-spread, spread), rng.uniform(-spread, spread)
    return [round(box[0] + dx, 2), round(box[1] + dy, 2),
            round(box[2] + dx, 2), round(box[3] + dy, 2)]


def main():
    rng = random.Random(SEED)
    vocab = [{"class_id": c, "verb_id": i + 1, "object_id": i + 1, "verb": v, "object": o}
             for i, (c, v, o) in enumerate(CLASSES)]
    images, rows = [], []
    for i in range(8):
        image_id = f"img{i}"
        instances = []
        for cid in rng.sample(GT_CLASSES, 2):
            human = _box(rng)
            for _ in range(rng.randint(1, 4)):
                # a second instance near the first makes the greedy choice matter
                h = _jitter(rng, human, 6) if instances and rng.random() < 0.5 else _box(rng)
                h = [min(max(v, 0.0), SIZE) for v in h]
                if h[2] <= h[0] or h[3] <= h[1]:
                    h = _box(rng)
                instances.append({"human_box": h, "object_box": _box(rng),
                                  "class_id": cid, "provenance": "real"})
        images.append({"image_id": image_id, "file_name": f"{image_id}.jpg",
                       "width": SIZE, "height": SIZE, "instances": instances})
        for inst in instances:
            if inst["class_id"] not in PRED_CLASSES:
                continue
            for _ in range(rng.randint(0, 3)):
                spread = rng.choice((2, 3, 10))  # most are hits, some miss
                rows.append({"image_id": image_id,
                             "human_box": _jitter(rng, inst["human_box"], spread),
                             "object_box": _jitter(rng, inst["object_box"], spread),
                             "class_id": inst["class_id"],
                             "score": round(rng.random(), 1)})
        for _ in range(3):
            rows.append({"image_id": image_id, "human_box": _box(rng),
                         "object_box": _box(rng), "class_id": rng.choice(PRED_CLASSES),
                         "score": round(rng.random(), 1)})
    # boxes reaching past the left and top edges: the loader clamps them
    rows.append({"image_id": "img0", "human_box": [-5, -2.5, 30, 40],
                 "object_box": [10, -8, 45, 20], "class_id": 1, "score": 0.5})
    rows.append({"image_id": "img3", "human_box": [-12.25, 10, 20, 50],
                 "object_box": [5, 5, 25, 25], "class_id": 3, "score": 0.5})
    rng.shuffle(rows)

    (HERE / "vocab.json").write_text(json.dumps(vocab, indent=2) + "\n")
    (HERE / "gt.json").write_text(
        json.dumps({"vocabulary_ref": "vocab.json", "images": images}, indent=2) + "\n")
    (HERE / "preds.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))


if __name__ == "__main__":
    main()
