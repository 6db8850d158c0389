"""Brute-force mAP reference for the score workloads.

Written from scratch on purpose, in the style of tests/oracles.py: its own
IoU arithmetic, its own greedy matcher and a point-by-point walk of the
precision-recall curve.  It shares no code with ``bright_kit.evaluator`` and
works on the raw rows the benchmark generated, never on the toolkit's files.
"""

from __future__ import annotations


def _iou(a, b) -> float:
    w = min(a[2], b[2]) - max(a[0], b[0])
    h = min(a[3], b[3]) - max(a[1], b[1])
    if w <= 0 or h <= 0:
        return 0.0
    inter = w * h
    return inter / ((a[2] - a[0]) * (a[3] - a[1]) + (b[2] - b[0]) * (b[3] - b[1]) - inter)


def _class_flags(preds, gt_by_image, threshold: float) -> list[bool]:
    """Rank-ordered TP flags: descending score, ties in input order; each
    prediction claims the untaken ground truth with the highest pair IoU."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i]["score"], i))
    taken: dict[str, set[int]] = {}
    flags = []
    for i in order:
        p = preds[i]
        best_j, best = -1, 0.0
        used = taken.setdefault(p["image_id"], set())
        for j, g in enumerate(gt_by_image.get(p["image_id"], ())):
            if j in used:
                continue
            pair = min(_iou(p["human_box"], g["human_box"]),
                       _iou(p["object_box"], g["object_box"]))
            if pair >= threshold and pair > best:
                best_j, best = j, pair
        if best_j >= 0:
            used.add(best_j)
        flags.append(best_j >= 0)
    return flags


def _ap(flags, npos: int) -> float:
    tp = 0
    recalls, precisions = [], []
    for i, flag in enumerate(flags):
        tp += flag
        recalls.append(tp / npos)
        precisions.append(tp / (i + 1))
    ap, prev = 0.0, 0.0
    for k in range(len(flags)):
        if recalls[k] > prev:
            ap += (recalls[k] - prev) * max(precisions[k:])
            prev = recalls[k]
    return ap


def reference_scores(gt_images, rows, class_ids, threshold: float = 0.5) -> dict:
    """Per-class AP, mAP and the TP count for ``rows`` scored against
    ``gt_images`` over the vocabulary ``class_ids``.

    GT boxes are used as written; the inputs are generated so that the
    toolkit's loader clamps none of them.
    """
    gt: dict[int, dict[str, list[dict]]] = {}
    for img in gt_images:
        for inst in img["instances"]:
            gt.setdefault(inst["class_id"], {}).setdefault(img["image_id"], []).append(inst)
    preds: dict[int, list[dict]] = {}
    for r in rows:
        preds.setdefault(r["class_id"], []).append(r)
    per_class: dict[int, float] = {}
    tps = 0
    for c in sorted(class_ids):
        if c not in gt:
            continue
        flags = _class_flags(preds.get(c, []), gt[c], threshold)
        tps += sum(flags)
        per_class[c] = _ap(flags, sum(len(v) for v in gt[c].values()))
    aps = [per_class[c] for c in sorted(per_class)]
    return {"per_class_ap": per_class, "mean_ap": sum(aps) / len(aps), "tp": tps}
