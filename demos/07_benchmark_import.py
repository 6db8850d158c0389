#!/usr/bin/env python3
"""Importing a public benchmark distribution into the canonical schema.

Writes a miniature copy of the two official input shapes (the interaction
list text file and the community JSON dump) into a temporary directory,
converts them, and shows the normalization steps: underscore-to-space object
names, box clamping, canvas inference, and the unknown-class policy.  The
directory is removed when the demo ends.

Usage:
    python3 demos/07_benchmark_import.py
"""

import json
import tempfile
from pathlib import Path

from bright_kit import distribution, merge, save_split
from bright_kit.hicodet import convert_hicodet_json, vocabulary_from_hico_list

HOI_LIST = """\
  id   object         verb
 ----  -------------  ----------
   1   bicycle        hold
   2   bicycle        ride
   3   cell_phone     talk_on
   4   dining_table   eat_at
   5   horse          ride
"""

TRAIN_DUMP = [
    {
        "file_name": "PHOTO_train_0001.jpg",
        "width": 640,
        "height": 480,
        "annotations": [
            {"bbox": [12, 40, 180, 460], "category_id": 1},
            {"bbox": [90, 200, 420, 470], "category_id": 2},
        ],
        "hoi_annotation": [
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 2},
        ],
    },
    {
        # no size fields: the canvas is inferred from box extents
        "file_name": "PHOTO_train_0002.jpg",
        "annotations": [
            {"bbox": [5, 5, 210, 350], "category_id": 1},
            {"bbox": [-8, 120, 660, 500], "category_id": 77},
        ],
        "hoi_annotation": [
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 3},
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 5},
        ],
    },
]

TEST_DUMP = [
    {
        "file_name": "PHOTO_test_0001.jpg",
        "width": 500,
        "height": 375,
        "annotations": [
            {"bbox": [10, 10, 150, 360], "category_id": 1},
            {"bbox": [120, 80, 490, 370], "category_id": 19},
        ],
        "hoi_annotation": [
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 5},
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 4},
        ],
    },
]


def main():
    with tempfile.TemporaryDirectory(prefix="benchmark_import_") as tmp:
        run(Path(tmp))


def run(root: Path):
    (root / "hico_list_hoi.txt").write_text(HOI_LIST)
    (root / "trainval.json").write_text(json.dumps(TRAIN_DUMP))
    (root / "test.json").write_text(json.dumps(TEST_DUMP))

    print("=" * 64)
    print("Vocabulary from the interaction list")
    print("=" * 64)
    vocab = vocabulary_from_hico_list(root / "hico_list_hoi.txt")
    for cls in vocab:
        print(f"  class {cls.class_id}: ({cls.verb_name}, {cls.object_name})")
    print("  note: 'cell_phone' and 'dining_table' arrive with spaces")

    print()
    print("=" * 64)
    print("Converting the community JSON dumps")
    print("=" * 64)
    train = convert_hicodet_json(root / "trainval.json", vocab)
    test = convert_hicodet_json(root / "test.json", vocab)
    for name, d in (("train", train), ("test", test)):
        dist = distribution(d)
        print(f"  {name}: {len(d)} images, {dist.total_instances} instances, "
              f"counts {dict(sorted((c, n) for c, n in dist.counts.items() if n))}")
    inferred = train.images[1]
    print(f"  inferred canvas for {inferred.image_id}: "
          f"{inferred.width}x{inferred.height} (no size in the dump)")
    clamped = inferred.instances[0].object_box
    print(f"  clamped object box: {clamped.as_list()} (was [-8, 120, 660, 500])")

    print()
    print("=" * 64)
    print("Unified pool in the canonical schema")
    print("=" * 64)
    total = merge(train, test)
    out = root / "total.json"
    save_split(total, out)
    print(f"  wrote {out} ({len(total)} images, {total.total_instances} instances)")
    print("  a file like this is what `bright-kit balance --pool ...` consumes;")
    print("  the demo's temporary directory is removed when it ends")


if __name__ == "__main__":
    main()
