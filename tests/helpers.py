"""Shared builders for synthetic vocabularies, datasets, and predictions."""

from __future__ import annotations

import random

from bright_kit import (
    BBox,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Prediction,
    Vocabulary,
)

CANVAS = 100


def make_vocab(n: int = 5, verbs: int | None = None, objects: int | None = None) -> Vocabulary:
    """n classes over a small verb/object grid; class i pairs verb/object cyclically."""
    verbs = verbs or n
    objects = objects or 1
    classes = []
    for i in range(1, n + 1):
        v = (i - 1) % verbs + 1
        o = (i - 1) // verbs % objects + 1
        classes.append(HoiClass(i, v, o, f"verb{v}", f"object{o}"))
    return Vocabulary(classes)


def grid_vocab(pairs: list[tuple[int, str, str]]) -> Vocabulary:
    """Explicit (class_id, verb, object) triples; verb/object ids assigned by name order."""
    verb_ids = {v: i + 1 for i, v in enumerate(sorted({p[1] for p in pairs}))}
    obj_ids = {o: i + 1 for i, o in enumerate(sorted({p[2] for p in pairs}))}
    return Vocabulary(
        HoiClass(cid, verb_ids[v], obj_ids[o], v, o) for cid, v, o in pairs
    )


def rand_box(rng: random.Random, canvas: int = CANVAS) -> BBox:
    x1 = rng.uniform(0, canvas * 0.6)
    y1 = rng.uniform(0, canvas * 0.6)
    return BBox(x1, y1, x1 + rng.uniform(2, canvas * 0.4), y1 + rng.uniform(2, canvas * 0.4))


def fixed_box(k: int = 0) -> BBox:
    return BBox(10.0 + k, 10.0 + k, 40.0 + k, 40.0 + k)


def make_image(
    image_id: str,
    class_ids: list[int],
    rng: random.Random | None = None,
    provenance: str = "real",
    canvas: int = CANVAS,
) -> ImageRecord:
    rng = rng or random.Random(0)
    instances = tuple(
        HoiInstance(rand_box(rng, canvas), rand_box(rng, canvas), cid, provenance)
        for cid in class_ids
    )
    return ImageRecord(image_id, f"{image_id}.jpg", canvas, canvas, instances)


def make_dataset(
    class_lists: list[list[int]],
    vocab: Vocabulary,
    seed: int = 0,
    prefix: str = "img",
    provenance: str = "real",
) -> Dataset:
    """One image per entry; entry i carries the listed class ids as instances."""
    rng = random.Random(seed)
    images = [
        make_image(f"{prefix}{i:04d}", class_ids, rng, provenance)
        for i, class_ids in enumerate(class_lists)
    ]
    return Dataset(images, vocab)


def random_pool(
    rng: random.Random,
    vocab: Vocabulary,
    n_images: int,
    max_classes_per_image: int = 4,
) -> Dataset:
    ids = list(vocab.class_ids())
    lists = []
    for _ in range(n_images):
        k = rng.randint(1, max_classes_per_image)
        lists.append([rng.choice(ids) for _ in range(k)])
    return make_dataset(lists, vocab, seed=rng.randint(0, 10**9))


def recount(d: Dataset) -> dict[int, int]:
    """Independent full rescan of per-class instance counts."""
    counts: dict[int, int] = {}
    for rec in d.images:
        for inst in rec.instances:
            counts[inst.class_id] = counts.get(inst.class_id, 0) + 1
    return counts


def pred(image_id: str, hbox: BBox, obox: BBox, class_id: int, score: float) -> Prediction:
    return Prediction(image_id, hbox, obox, class_id, score)
