"""Seeded input files for the perfbench workloads.

Stdlib only, and independent of ``bright_kit``: the toolkit under test only
ever sees the files written here.  The same seed gives the same bytes.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# The pool shape of tests/test_scale.py::_long_tail_pool (600 classes,
# 20,000 images, Zipf class weights; 37,956 instances at seed 0).
N_CLASSES = 600
N_IMAGES = 20_000
POOL_BOX = [1.0, 1.0, 50.0, 50.0]
IMAGE_W, IMAGE_H = 640, 480

# Split parameters of the paper's construction pipeline.
TOP_K = 351
L_TEST = 10
L_TRAIN = 50
EPOCHS = 20
ZS_PER_CLASS = 3


def long_tail_pool(seed: int, n_classes: int = N_CLASSES, n_images: int = N_IMAGES):
    """Vocabulary rows and image records drawn with the same random stream as
    ``_long_tail_pool`` in tests/test_scale.py."""
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < n_classes:
        pairs.add((rng.randint(1, 117), rng.randint(1, 80)))
    vocab = [
        {"class_id": i + 1, "verb_id": v, "object_id": o, "verb": f"v{v}", "object": f"o{o}"}
        for i, (v, o) in enumerate(sorted(pairs))
    ]
    ids = [row["class_id"] for row in vocab]
    weights = [1.0 / (rank + 1) ** 0.85 for rank in range(n_classes)]
    images = []
    for i in range(n_images):
        k = rng.choices([1, 2, 3, 4], weights=[45, 30, 15, 10])[0]
        instances = [
            {"human_box": POOL_BOX, "object_box": POOL_BOX, "class_id": c, "provenance": "real"}
            for c in rng.choices(ids, weights=weights, k=k)
        ]
        images.append(_image(f"img{i:06d}", instances))
    return vocab, images


def _image(image_id: str, instances: list[dict]) -> dict:
    return {
        "image_id": image_id,
        "file_name": f"{image_id}.jpg",
        "width": IMAGE_W,
        "height": IMAGE_H,
        "instances": instances,
    }


def class_counts(images) -> dict[int, int]:
    counts: dict[int, int] = {}
    for img in images:
        for inst in img["instances"]:
            counts[inst["class_id"]] = counts.get(inst["class_id"], 0) + 1
    return counts


def top_classes(vocab, images, k: int = TOP_K) -> list[int]:
    """The k largest classes, descending count, ties by ascending class id."""
    counts = class_counts(images)
    ranked = sorted((row["class_id"] for row in vocab), key=lambda c: (-counts.get(c, 0), c))
    return sorted(ranked[:k])


def balanced_test_split(seed: int, images, class_ids, per_class: int = L_TEST) -> list[dict]:
    """A test split of the pool with exactly ``per_class`` instances of each
    class in ``class_ids`` (given the supply), other classes dropped.

    Images are visited in seeded random order; each keeps the instances
    whose class still has room, so co-occurrence stays as in the pool and
    some images lose instances, as in the toolkit's trim.  This is the
    benchmark's own stand-in for the toolkit's balancer: the inputs must not
    depend on the code under test.
    """
    rng = random.Random(seed * 7919 + 4)
    room = {c: per_class for c in class_ids}
    order = list(range(len(images)))
    rng.shuffle(order)
    taken = []
    for i in order:
        kept = []
        for inst in images[i]["instances"]:
            if room.get(inst["class_id"], 0) > 0:
                room[inst["class_id"]] -= 1
                kept.append(inst)
        if kept:
            taken.append((i, {**images[i], "instances": kept}))
    return [img for _, img in sorted(taken, key=lambda t: t[0])]


def write_json(path: Path, obj) -> int:
    # The toolkit's own canonical layout, so files look like its artifacts.
    data = json.dumps(obj, sort_keys=True, indent=2).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def write_dataset(path: Path, images, vocabulary_ref: str) -> int:
    return write_json(path, {"vocabulary_ref": vocabulary_ref, "images": images})


def write_json_lines(path: Path, rows) -> int:
    data = "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows).encode("utf-8")
    path.write_bytes(data)
    return len(data)


def _jittered(box, shift: float) -> list[float]:
    """``box`` moved right and down by ``shift`` of its width and height.

    Shifts are never negative so coordinates stay inside the image and the
    loader's clamping path (which logs per row) is not taken."""
    x1, y1, x2, y2 = box
    dx, dy = (x2 - x1) * shift, (y2 - y1) * shift
    return [round(x1 + dx, 3), round(y1 + dy, 3), round(x2 + dx, 3), round(y2 + dy, 3)]


def _near_hit_shift(rng: random.Random) -> float:
    # A shift s of a same-size box gives IoU (1-s)^2 / (2 - (1-s)^2), which
    # crosses 0.5 at s ~= 0.18: about a fifth of the planted hits miss.
    return rng.uniform(0.0, 0.15) if rng.random() < 0.8 else rng.uniform(0.2, 0.4)


def _random_box(rng: random.Random) -> list[float]:
    w, h = rng.uniform(20.0, 200.0), rng.uniform(20.0, 200.0)
    x1, y1 = rng.uniform(0.0, IMAGE_W - w), rng.uniform(0.0, IMAGE_H - h)
    return [round(x1, 3), round(y1, 3), round(x1 + w, 3), round(y1 + h, 3)]


def sparse_dump(seed: int, gt_images, class_ids, background_per_image: int) -> list[dict]:
    """A realistic dump: mostly background predictions over every class, plus
    one planted near-hit per ground-truth instance."""
    rng = random.Random(seed * 7919 + 1)
    rows = []
    for img in gt_images:
        for inst in img["instances"]:
            rows.append({
                "image_id": img["image_id"],
                "human_box": _jittered(inst["human_box"], _near_hit_shift(rng)),
                "object_box": _jittered(inst["object_box"], _near_hit_shift(rng)),
                "class_id": inst["class_id"],
                "score": rng.uniform(0.2, 1.0),
            })
        for _ in range(background_per_image):
            rows.append({
                "image_id": img["image_id"],
                "human_box": _random_box(rng),
                "object_box": _random_box(rng),
                "class_id": rng.choice(class_ids),
                "score": rng.uniform(0.0, 0.8),
            })
    return rows


def crowded_gt(seed: int, class_ids, n_images: int, classes_per_image: int, per_class: int):
    """Images crowded with many instances of a few classes.  Every class of
    ``class_ids`` gets ground truth (classes are dealt round-robin), so the
    evaluator logs no undefined classes."""
    rng = random.Random(seed * 7919 + 2)
    images = []
    slot = 0
    for i in range(n_images):
        instances = []
        for _ in range(classes_per_image):
            cid = class_ids[slot % len(class_ids)]
            slot += 1
            for _ in range(per_class):
                # Room to the right and below keeps the object box inside the
                # image, so the loader clamps nothing.
                w, h = rng.uniform(20.0, 120.0), rng.uniform(20.0, 120.0)
                x1 = rng.uniform(0.0, IMAGE_W - 1.6 * w)
                y1 = rng.uniform(0.0, IMAGE_H - 1.6 * h)
                human = [round(x1, 3), round(y1, 3), round(x1 + w, 3), round(y1 + h, 3)]
                instances.append({
                    "human_box": human,
                    "object_box": _jittered(human, rng.uniform(0.3, 0.6)),
                    "class_id": cid,
                    "provenance": "real",
                })
        images.append(_image(f"crowd{i:05d}", instances))
    return images


def crowded_dump(seed: int, gt_images, per_instance: int) -> list[dict]:
    """``per_instance`` jittered predictions per ground-truth instance."""
    rng = random.Random(seed * 7919 + 3)
    rows = []
    for img in gt_images:
        for inst in img["instances"]:
            for _ in range(per_instance):
                rows.append({
                    "image_id": img["image_id"],
                    "human_box": _jittered(inst["human_box"], _near_hit_shift(rng)),
                    "object_box": _jittered(inst["object_box"], _near_hit_shift(rng)),
                    "class_id": inst["class_id"],
                    "score": rng.random(),
                })
    return rows


def pair_candidates(gt_images, rows) -> int:
    """Sum over (image, class) groups of predictions x ground-truth instances:
    the pair comparisons a greedy matcher makes at most."""
    gt: dict[tuple[str, int], int] = {}
    for img in gt_images:
        for inst in img["instances"]:
            key = (img["image_id"], inst["class_id"])
            gt[key] = gt.get(key, 0) + 1
    return sum(gt.get((r["image_id"], r["class_id"]), 0) for r in rows)
