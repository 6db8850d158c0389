"""Independent oracles the implementation is checked against.

The scoring oracles are written from scratch on purpose: their own IoU
arithmetic, their own greedy matcher, and a point-by-point precision-recall
enumeration that never shares code with the evaluator under test.

The construction references are the straightforward first versions of code
that was later rewritten for speed: :func:`reference_balance` (the balancer,
with :func:`reference_balance_v1` keeping the PRNG stream it first drew),
:func:`reference_load_dataset` (the annotation loader, one object per row,
which ``load_dataset`` replaced with columns) and :func:`dataset_to_dict`
(the split file's JSON object, which ``save_split`` now encodes from a
template).  The rewrites must agree with them exactly.
"""

from __future__ import annotations

import random
from dataclasses import replace

from bright_kit import (
    BalanceConfig,
    BalanceResult,
    Dataset,
    HoiInstance,
    ImageRecord,
    UnknownClassError,
    Vocabulary,
)
from bright_kit.errors import AnnotationFormatError
from bright_kit.jsonio import read_json
from bright_kit.model import parse_box


def oracle_iou(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    ax1, ay1, ax2, ay2 = a
    bx1, by1, bx2, by2 = b
    w = min(ax2, bx2) - max(ax1, bx1)
    h = min(ay2, by2) - max(ay1, by1)
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    return inter / (area_a + area_b - inter)


def oracle_matches(preds, gts, iou_threshold: float) -> list[int]:
    """Greedy matching from scratch.

    ``preds``: (image_id, hbox, obox, score) tuples in input order, boxes as
    4-tuples.  ``gts``: (image_id, hbox, obox) tuples.  Returns, in rank
    order, the index in ``gts`` of the ground truth each prediction claims,
    or -1: every ground truth of the image is compared, and on equal pair IoU
    the first in ``gts`` wins.
    """
    order = sorted(range(len(preds)), key=lambda i: (-preds[i][3], i))
    taken = [False] * len(gts)
    claims = []
    for i in order:
        image_id, ph, po, _score = preds[i]
        best_j, best_iou = -1, 0.0
        for j, (gim, gh, go) in enumerate(gts):
            if taken[j] or gim != image_id:
                continue
            pair_iou = min(oracle_iou(ph, gh), oracle_iou(po, go))
            if pair_iou >= iou_threshold and pair_iou > best_iou:
                best_j, best_iou = j, pair_iou
        if best_j >= 0:
            taken[best_j] = True
        claims.append(best_j)
    return claims


def oracle_match_flags(preds, gts, iou_threshold: float) -> tuple[list[bool], int]:
    """Rank-ordered TP flags of :func:`oracle_matches` and the ground-truth count."""
    return [j >= 0 for j in oracle_matches(preds, gts, iou_threshold)], len(gts)


def oracle_ap_from_flags(flags, npos: int) -> float:
    """Walk the PR curve one prediction at a time; every recall step adds
    (delta recall) * (best precision anywhere at or past that step)."""
    assert npos > 0
    tp = 0
    recalls, precisions = [], []
    for i, flag in enumerate(flags):
        if flag:
            tp += 1
        recalls.append(tp / npos)
        precisions.append(tp / (i + 1))
    ap = 0.0
    prev = 0.0
    for k in range(len(flags)):
        if recalls[k] > prev:
            ap += (recalls[k] - prev) * max(precisions[k:])
            prev = recalls[k]
    return ap


def oracle_class_ap(preds, gts, iou_threshold: float = 0.5) -> float:
    flags, npos = oracle_match_flags(preds, gts, iou_threshold)
    if npos == 0:
        raise ValueError("AP undefined without ground truth")
    return oracle_ap_from_flags(flags, npos)


def reference_balance(
    pool: Dataset, classes: Vocabulary, cfg: BalanceConfig, version: int = 2
) -> BalanceResult:
    """The balancer as first written: image ids in sets, ``image_counts``
    re-walking an image's instances on every ADD and REMOVE, and the trim
    rescanning the whole selection once per over-target class.  A selected
    image keeps only its untrimmed instances of ``classes``, and one left
    without any is dropped.  Argument checks are left to the implementation
    under test.

    ``version`` picks the PRNG stream of the ADD and REMOVE walks.  Version 1
    shuffles each stage's whole candidate list (REMOVE: every image of the
    class, selected or not) and walks it; version 2 lists ADD's unselected or
    REMOVE's selected images and draws them one at a time, each draw a
    uniform pick among those not yet drawn."""
    target = cfg.target_per_class
    target_ids = set(classes.class_ids())
    head_to_tail = sorted(classes.class_ids(), key=lambda c: (-pool.count(c), c))
    rng = random.Random(cfg.seed)

    pool_index = {rec.image_id: i for i, rec in enumerate(pool.images)}
    selected: set[str] = set()
    counts: dict[int, int] = {c: 0 for c in target_ids}

    def image_counts(image_id: str) -> dict[int, int]:
        per: dict[int, int] = {}
        for inst in pool.get_image(image_id).instances:
            if inst.class_id in target_ids:
                per[inst.class_id] = per.get(inst.class_id, 0) + 1
        return per

    def walk(candidates: list[str], done):
        """Yield candidates in random order until ``done()`` holds."""
        if version == 1:
            rng.shuffle(candidates)
            for iid in candidates:
                if done():
                    return
                yield iid
            return
        drawn = 0
        while drawn < len(candidates) and not done():
            pick = rng.randrange(drawn, len(candidates))
            candidates[drawn], candidates[pick] = candidates[pick], candidates[drawn]
            yield candidates[drawn]
            drawn += 1

    for epoch in range(1, cfg.epochs + 1):
        # ADD stage, tail to head.
        for cls_id in reversed(head_to_tail):
            if counts[cls_id] >= target:
                continue
            candidates = [
                iid for iid in pool.images_with_class(cls_id) if iid not in selected
            ]
            for iid in walk(candidates, lambda: counts[cls_id] >= target):
                selected.add(iid)
                for c, n in image_counts(iid).items():
                    counts[c] += n
            # Supply exhausted below target: leave the class short for now.

        # REMOVE stage, head to tail; the final epoch keeps its additions.
        if epoch < cfg.epochs:
            for cls_id in head_to_tail:
                if counts[cls_id] <= target:
                    continue
                candidates = [
                    iid for iid in pool.images_with_class(cls_id)
                    if version == 1 or iid in selected
                ]
                for iid in walk(candidates, lambda: counts[cls_id] <= target):
                    if iid not in selected:
                        continue
                    selected.remove(iid)
                    for c, n in image_counts(iid).items():
                        counts[c] -= n

    # Per-instance trim: classes still above target lose random annotations.
    selected_order = sorted(selected, key=pool_index.__getitem__)
    drop: dict[str, set[int]] = {}
    removed_annotations = 0
    for cls_id in head_to_tail:
        excess = counts[cls_id] - target
        if excess <= 0:
            continue
        positions = [
            (iid, k)
            for iid in selected_order
            for k, inst in enumerate(pool.get_image(iid).instances)
            if inst.class_id == cls_id
        ]
        for iid, k in rng.sample(positions, excess):
            drop.setdefault(iid, set()).add(k)
        counts[cls_id] = target
        removed_annotations += excess

    balanced_records: list[ImageRecord] = []
    for iid in selected_order:
        rec = pool.get_image(iid)
        kept = tuple(
            inst for k, inst in enumerate(rec.instances)
            if inst.class_id in target_ids and k not in drop.get(iid, ())
        )
        if kept:
            balanced_records.append(replace(rec, instances=kept))

    balanced = Dataset(balanced_records, pool.vocabulary, pool.vocabulary_ref)
    remainder = Dataset(
        (rec for rec in pool.images if rec.image_id not in selected),
        pool.vocabulary,
        pool.vocabulary_ref,
    )
    deficits = {c: target - n for c, n in counts.items() if n < target}
    return BalanceResult(
        balanced=balanced,
        deficits=deficits,
        removed_annotations=removed_annotations,
        remainder=remainder,
        trimmed_images=len(drop),
    )


def reference_balance_v1(pool: Dataset, classes: Vocabulary, cfg: BalanceConfig) -> BalanceResult:
    """:func:`reference_balance` drawing the balancer's first PRNG stream."""
    return reference_balance(pool, classes, cfg, version=1)


def reference_load_dataset(path, vocab: Vocabulary, raw=None) -> Dataset:
    """The annotation loader as first written: an :class:`ImageRecord` per
    image and a :class:`HoiInstance` per row, validated again by ``Dataset``;
    a class id with a fractional part is unknown, not truncated."""
    if raw is None:
        raw = read_json(path)
    if not isinstance(raw, dict) or "images" not in raw:
        raise AnnotationFormatError(f"{path}: expected an object with an 'images' array")
    if not isinstance(raw["images"], list):
        raise AnnotationFormatError(f"{path}: 'images' must be an array")

    records = []
    for i, img in enumerate(raw["images"]):
        where = f"{path}: images[{i}]"
        try:
            image_id = str(img["image_id"])
            file_name = str(img["file_name"])
            width = int(img["width"])
            height = int(img["height"])
            raw_instances = img.get("instances", [])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(f"{where}: missing or bad field ({exc})") from exc
        if not isinstance(raw_instances, list):
            raise AnnotationFormatError(f"{where}: 'instances' must be an array")
        instances = []
        for j, inst in enumerate(raw_instances):
            iwhere = f"{where}.instances[{j}]"
            try:
                raw_class_id = inst["class_id"]
                class_id = int(raw_class_id)
                human_raw = inst["human_box"]
                object_raw = inst["object_box"]
                provenance = str(inst.get("provenance", "real"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise AnnotationFormatError(f"{iwhere}: missing or bad field ({exc})") from exc
            if isinstance(raw_class_id, float) and raw_class_id != class_id:
                class_id = raw_class_id  # a fractional id names no class
            if class_id not in vocab:
                raise UnknownClassError(f"{iwhere}: unknown class_id {class_id}")
            instances.append(
                HoiInstance(
                    human_box=parse_box(human_raw, iwhere, width, height),
                    object_box=parse_box(object_raw, iwhere, width, height),
                    class_id=class_id,
                    provenance=provenance,
                )
            )
        records.append(ImageRecord(image_id, file_name, width, height, tuple(instances)))

    return Dataset(records, vocab, vocabulary_ref=str(raw.get("vocabulary_ref", "")))


def dataset_to_dict(d: Dataset) -> dict:
    """The split file's JSON object, as ``save_split`` first built it for ``json.dumps``."""
    return {
        "vocabulary_ref": d.vocabulary_ref,
        "images": [
            {
                "image_id": rec.image_id,
                "file_name": rec.file_name,
                "width": rec.width,
                "height": rec.height,
                "instances": [
                    {
                        "human_box": inst.human_box.as_list(),
                        "object_box": inst.object_box.as_list(),
                        "class_id": inst.class_id,
                        "provenance": inst.provenance,
                    }
                    for inst in rec.instances
                ],
            }
            for rec in d.images
        ],
    }
