#!/usr/bin/env python3
"""Write the seeded inputs of the golden construction fixture into this directory.

    python3 tests/fixtures/golden_build/make_inputs.py

The inputs are small on purpose, but they reach every branch of the
construction commands (``stats``, ``balance``, ``augment``,
``balance --augmented``, ``zeroshot``):

- a Zipf-like class distribution with several classes per image, so the
  balancer's ADD and REMOVE stages interact and head classes end above
  target and get trimmed, while tail classes end short (deficits), which
  ``augment`` and ``balance --augmented`` then fill
- classes outside the seen vocabulary whose verb and object are both seen,
  so ``zeroshot`` has candidates
- boxes reaching past the image edges, which the loader clamps with a
  warning, and integer-valued coordinates, which the loader turns into floats
- image ids, file names and a ``vocabulary_ref`` that JSON must escape: a
  double quote, a backslash, non-ASCII letters and U+2028

The ``expected/`` files next to the inputs are the CLI's artifacts for these
inputs, written by the toolkit before the balancer and the split writer were
rewritten for speed and since regenerated only on their own, for a declared
change of results (``tests/test_golden_build.py`` lists them).  That test
asserts that the CLI still reproduces them byte for byte; they are never
regenerated to make it pass.
"""

import json
import random
from pathlib import Path

HERE = Path(__file__).parent
SEED = 20241018
N_IMAGES = 90
VERBS = ["hold", "ride", "feed", "wash", "carry", "sit_on"]
OBJECTS = ["horse", "cup", "bicycle", "dog"]
NAMES = ['plain', 'quo"te', 'back\\slash', 'café', '漢字', 'line\u2028sep']
VOCABULARY_REF = 'voc "ref"\\ü\u2028.json'


def _vocab():
    classes = []
    for i, (v, o) in enumerate((v, o) for o in OBJECTS for v in VERBS):
        classes.append({"class_id": i + 1, "verb_id": VERBS.index(v) + 1,
                        "object_id": OBJECTS.index(o) + 1, "verb": v, "object": o})
    # a checkerboard over the first three verbs: the other half are zero-shot candidates
    seen = [c for c in classes
            if VERBS.index(c["verb"]) < 3
            and (VERBS.index(c["verb"]) + OBJECTS.index(c["object"])) % 2 == 0]
    return classes, seen


def _box(rng, w, h):
    kind = rng.random()
    if kind < 0.15:  # integer-valued coordinates
        x1, y1 = rng.randint(0, w // 2), rng.randint(0, h // 2)
        return [x1, y1, x1 + rng.randint(5, w // 2), y1 + rng.randint(5, h // 2)]
    if kind < 0.25:  # past the left/top or the right/bottom edge: clamped
        x1, y1 = rng.uniform(-20, w * 0.5), rng.uniform(-20, h * 0.5)
        return [round(x1, 3), round(y1, 3), round(x1 + rng.uniform(30, w), 3),
                round(y1 + rng.uniform(30, h), 3)]
    x1, y1 = rng.uniform(0, w * 0.6), rng.uniform(0, h * 0.6)
    return [x1, y1, x1 + rng.uniform(3, w * 0.4), y1 + rng.uniform(3, h * 0.4)]


def main():
    rng = random.Random(SEED)
    universe, seen = _vocab()
    ids = [c["class_id"] for c in universe]
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(ids))]
    images = []
    for i in range(N_IMAGES):
        w, h = rng.choice([(640, 480), (320, 240), (500, 500)])
        instances = []
        for _ in range(rng.randint(1, 4)):
            cid = rng.choices(ids, weights)[0]
            for _ in range(1 if rng.random() < 0.7 else rng.randint(2, 3)):
                instances.append({"human_box": _box(rng, w, h), "object_box": _box(rng, w, h),
                                  "class_id": cid})
        name = NAMES[i % len(NAMES)]
        images.append({"image_id": f"{name}/{i:03d}", "file_name": f"{name}_{i:03d}.jpg",
                       "width": w, "height": h, "instances": instances})

    (HERE / "universe.json").write_text(json.dumps(universe, indent=2) + "\n")
    (HERE / "seen.json").write_text(json.dumps(seen, indent=2) + "\n")
    (HERE / "pool.json").write_text(
        json.dumps({"vocabulary_ref": VOCABULARY_REF, "images": images}, indent=1) + "\n",
        encoding="utf-8")


if __name__ == "__main__":
    main()
