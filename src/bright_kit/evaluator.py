"""Per-class AP / mAP over detector prediction dumps, plus the analyses that
expose how fragile those numbers are: class-AP spread statistics, ranking
comparison between two benchmarks, and single-TP-flip perturbation.

Matching follows the de-facto pair protocol: a prediction is a true positive
iff an unmatched ground-truth instance of the same class in the same image
overlaps it with min(IoU_human, IoU_object) at or above the threshold,
assigned greedily in descending score order.  AP integrates the full
precision-recall curve under its monotone envelope; an 11-point variant is
available through :class:`MatchConfig` for cross-checking against older
evaluators.

The PR/AP arithmetic is deliberately plain Python so results are exactly
reproducible and directly comparable against a brute-force oracle.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .errors import DataError, UnknownClassError
from .jsonio import read_json_lines
from .model import BBox, Dataset, HoiInstance, Vocabulary, parse_box

logger = logging.getLogger("bright_kit")

AP_METHODS = ("all_point", "eleven_point")


@dataclass(frozen=True)
class Prediction:
    """One scored detection: a human box, an object box, and a class."""

    image_id: str
    human_box: BBox
    object_box: BBox
    class_id: int
    score: float

    def __post_init__(self):
        if not math.isfinite(self.score):
            raise DataError(f"non-finite prediction score {self.score!r}")


@dataclass(frozen=True)
class MatchConfig:
    """Matching rule: min(IoU_human, IoU_object) >= iou_threshold."""

    iou_threshold: float = 0.5
    ap_method: str = "all_point"

    def __post_init__(self):
        if not 0.0 < self.iou_threshold < 1.0:
            raise DataError(f"iou_threshold must be in (0, 1), got {self.iou_threshold}")
        if self.ap_method not in AP_METHODS:
            raise DataError(f"ap_method must be one of {AP_METHODS}, got {self.ap_method!r}")


def pair_min_iou(pred: Prediction, inst: HoiInstance) -> float:
    return min(pred.human_box.iou(inst.human_box), pred.object_box.iou(inst.object_box))


def _ap_from_labels(labels: Sequence[bool], npos: int, method: str) -> float:
    """AP from rank-ordered TP flags against ``npos`` ground-truth instances."""
    if npos <= 0:
        raise DataError("AP is undefined without ground-truth instances")
    tp = 0
    recalls: list[float] = []
    precisions: list[float] = []
    for i, flag in enumerate(labels):
        if flag:
            tp += 1
        recalls.append(tp / npos)
        precisions.append(tp / (i + 1))

    if method == "eleven_point":
        ap = 0.0
        for t in (i / 10.0 for i in range(11)):
            best = 0.0
            for p, r in zip(precisions, recalls):
                if r >= t and p > best:
                    best = p
            ap += best / 11.0
        return ap

    mrec = [0.0] + recalls
    mpre = [0.0] + precisions
    for i in range(len(mpre) - 2, -1, -1):
        if mpre[i + 1] > mpre[i]:
            mpre[i] = mpre[i + 1]
    ap = 0.0
    for i in range(1, len(mrec)):
        if mrec[i] != mrec[i - 1]:
            ap += (mrec[i] - mrec[i - 1]) * mpre[i]
    return ap


@dataclass(frozen=True)
class MatchedTP:
    """A true positive: the prediction's rank position and its matched ground truth."""

    rank: int  # position in the descending-score order, 0-based
    score: float
    image_id: str
    gt_index: int  # index among the image's ground-truth instances of the class


@dataclass
class ClassApResult:
    class_id: int
    ap: float | None  # None: no ground truth, AP undefined
    npos: int
    labels: list[bool]
    matched: list[MatchedTP]


def _grouped_class_ap(
    class_id: int,
    cls_preds: list[Prediction],
    gt_by_image: dict[str, list[HoiInstance]],
    cfg: MatchConfig,
) -> ClassApResult:
    npos = sum(len(v) for v in gt_by_image.values())
    order = sorted(range(len(cls_preds)), key=lambda k: (-cls_preds[k].score, k))

    taken: dict[str, set[int]] = {}
    labels: list[bool] = []
    matched: list[MatchedTP] = []
    for rank, k in enumerate(order):
        p = cls_preds[k]
        best_iou = 0.0
        best_gi = -1
        for gi, inst in enumerate(gt_by_image.get(p.image_id, [])):
            if gi in taken.get(p.image_id, set()):
                continue
            miou = pair_min_iou(p, inst)
            if miou >= cfg.iou_threshold and miou > best_iou:
                best_iou, best_gi = miou, gi
        if best_gi >= 0:
            taken.setdefault(p.image_id, set()).add(best_gi)
            labels.append(True)
            matched.append(MatchedTP(rank, p.score, p.image_id, best_gi))
        else:
            labels.append(False)

    if npos == 0:
        return ClassApResult(class_id, None, 0, labels, matched)
    return ClassApResult(class_id, _ap_from_labels(labels, npos, cfg.ap_method), npos, labels, matched)


def _gt_by_class_and_image(gt: Dataset) -> dict[int, dict[str, list[HoiInstance]]]:
    grouped: dict[int, dict[str, list[HoiInstance]]] = {}
    for rec in gt.images:
        for inst in rec.instances:
            grouped.setdefault(inst.class_id, {}).setdefault(rec.image_id, []).append(inst)
    return grouped


def class_ap(
    preds: Sequence[Prediction], gt: Dataset, class_id: int, cfg: MatchConfig
) -> ClassApResult:
    """AP for one class plus the matched-TP list used by the perturbation probe.

    Predictions are ranked by descending score, ties kept in input order.
    Each prediction greedily claims the unmatched qualifying ground truth
    with the highest pair IoU; one ground truth matches at most one
    prediction.
    """
    gt_by_image = _gt_by_class_and_image(gt).get(class_id, {})
    cls_preds = [p for p in preds if p.class_id == class_id]
    return _grouped_class_ap(class_id, cls_preds, gt_by_image, cfg)


@dataclass
class EvalReport:
    """Per-class APs with the aggregate and spread statistics of their distribution."""

    per_class_ap: dict[int, float]
    mean_ap: float
    variance: float
    median: float
    quartiles: tuple[float, float, float]
    outliers: list[tuple[int, float]]
    undefined_classes: list[int] = field(default_factory=list)

    @property
    def num_evaluated(self) -> int:
        return len(self.per_class_ap)

    def to_dict(self) -> dict:
        q1, q2, q3 = self.quartiles
        return {
            "mean_ap": self.mean_ap,
            "num_evaluated": self.num_evaluated,
            "variance": self.variance,
            "median": self.median,
            "quartiles": {"q1": q1, "q2": q2, "q3": q3},
            "outliers": [{"class_id": c, "ap": a} for c, a in self.outliers],
            "undefined_classes": self.undefined_classes,
            "per_class_ap": {str(c): a for c, a in sorted(self.per_class_ap.items())},
        }


def summarize_class_aps(
    per_class_ap: Mapping[int, float], undefined: Sequence[int] = ()
) -> EvalReport:
    """Aggregate a per-class AP vector into an :class:`EvalReport`.

    mAP is the arithmetic mean; variance is the population variance;
    median/quartiles use inclusive linear interpolation; outliers sit beyond
    1.5 IQR from the quartile box.
    """
    if not per_class_ap:
        raise DataError("no classes with defined AP to aggregate")
    aps = [per_class_ap[c] for c in sorted(per_class_ap)]
    mean_ap = sum(aps) / len(aps)
    arr = np.asarray(aps, dtype=np.float64)
    variance = float(np.var(arr))
    q1, q2, q3 = (float(q) for q in np.percentile(arr, [25.0, 50.0, 75.0]))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = [
        (c, a) for c, a in sorted(per_class_ap.items()) if a < lo or a > hi
    ]
    return EvalReport(
        per_class_ap=dict(per_class_ap),
        mean_ap=mean_ap,
        variance=variance,
        median=q2,
        quartiles=(q1, q2, q3),
        outliers=outliers,
        undefined_classes=list(undefined),
    )


def evaluate(
    preds: Sequence[Prediction], gt: Dataset, vocab: Vocabulary, cfg: MatchConfig
) -> EvalReport:
    """class_ap over every vocabulary class with ground truth, aggregated.

    Classes without any ground-truth instance have undefined AP; they are
    excluded from the mean and listed in ``undefined_classes``.
    """
    if gt.total_instances == 0:
        raise DataError("ground-truth dataset has no instances")
    preds_by_class: dict[int, list[Prediction]] = {}
    for p in preds:
        if p.class_id not in vocab:
            raise UnknownClassError(f"prediction has unknown class_id {p.class_id}")
        preds_by_class.setdefault(p.class_id, []).append(p)
    gt_grouped = _gt_by_class_and_image(gt)
    per_class: dict[int, float] = {}
    undefined: list[int] = []
    for cls in vocab:
        res = _grouped_class_ap(
            cls.class_id,
            preds_by_class.get(cls.class_id, []),
            gt_grouped.get(cls.class_id, {}),
            cfg,
        )
        if res.ap is None:
            undefined.append(cls.class_id)
        else:
            per_class[cls.class_id] = res.ap
    if undefined:
        logger.warning("%d classes have no ground truth; AP undefined", len(undefined))
    return summarize_class_aps(per_class, undefined)


@dataclass(frozen=True)
class RankingRow:
    model: str
    map_a: float
    rank_a: int
    map_b: float
    rank_b: int
    delta: int  # rank_a - rank_b; positive means the model improved on b

    def to_dict(self) -> dict:
        return {
            "model": self.model,
            "map_a": self.map_a,
            "rank_a": self.rank_a,
            "map_b": self.map_b,
            "rank_b": self.rank_b,
            "delta": self.delta,
        }


def _as_map(value) -> float:
    if isinstance(value, EvalReport):
        return value.mean_ap
    return float(value)


def ranking_shift(reports_a: Mapping[str, object], reports_b: Mapping[str, object]) -> list[RankingRow]:
    """Rank models by mAP on two benchmarks and report per-model rank shifts.

    Accepts either :class:`EvalReport` values or bare mAP numbers.  Ranks are
    1-based by descending mAP, ties broken by model name.
    """
    if set(reports_a) != set(reports_b):
        raise DataError(
            f"model sets differ: {sorted(set(reports_a) ^ set(reports_b))}"
        )
    map_a = {m: _as_map(v) for m, v in reports_a.items()}
    map_b = {m: _as_map(v) for m, v in reports_b.items()}
    rank_a = {m: i + 1 for i, m in enumerate(sorted(map_a, key=lambda m: (-map_a[m], m)))}
    rank_b = {m: i + 1 for i, m in enumerate(sorted(map_b, key=lambda m: (-map_b[m], m)))}
    rows = [
        RankingRow(m, map_a[m], rank_a[m], map_b[m], rank_b[m], rank_a[m] - rank_b[m])
        for m in sorted(map_a, key=lambda m: rank_a[m])
    ]
    return rows


@dataclass
class PerturbResult:
    class_id: int
    original_ap: float
    perturbed_ap: float
    relative_drop: float
    flipped_rank: int
    flipped_score: float

    def to_dict(self) -> dict:
        return {
            "class_id": self.class_id,
            "original_ap": self.original_ap,
            "perturbed_ap": self.perturbed_ap,
            "relative_drop": self.relative_drop,
            "flipped_rank": self.flipped_rank,
            "flipped_score": self.flipped_score,
        }


def perturb_tp_flip(
    preds: Sequence[Prediction],
    gt: Dataset,
    class_id: int,
    cfg: MatchConfig,
    flip: str = "top",
) -> PerturbResult:
    """Force one matched TP to count as a false positive and measure the AP drop.

    ``flip="top"`` (the probe) voids the highest-confidence matched TP;
    ``flip="lowest"`` is a debug mode for the opposite end.  The flipped
    prediction keeps its score and rank position; its ground-truth
    correspondence is voided and every other match is kept as-is, so the
    only change to the PR curve is that single TP-to-FP label flip.
    """
    if flip not in ("top", "lowest"):
        raise DataError(f"flip must be 'top' or 'lowest', got {flip!r}")
    res = class_ap(preds, gt, class_id, cfg)
    if res.ap is None:
        raise DataError(f"class {class_id} has no ground truth; AP undefined")
    if not res.matched:
        raise DataError(f"class {class_id} has no matched TP to flip")
    ranks = [m.rank for m in res.matched]
    pick = min(ranks) if flip == "top" else max(ranks)
    flipped = next(m for m in res.matched if m.rank == pick)
    labels = list(res.labels)
    labels[pick] = False
    perturbed = _ap_from_labels(labels, res.npos, cfg.ap_method)
    return PerturbResult(
        class_id=class_id,
        original_ap=res.ap,
        perturbed_ap=perturbed,
        relative_drop=(res.ap - perturbed) / res.ap,
        flipped_rank=pick,
        flipped_score=flipped.score,
    )


# ---------------------------------------------------------------------------
# Prediction dump I/O (JSON lines, one prediction per line)
# ---------------------------------------------------------------------------


def load_predictions(path: str | Path, vocab: Vocabulary | None = None) -> list[Prediction]:
    """Read a JSON-lines prediction dump, validating boxes, scores and class ids.

    Boxes go through :func:`~bright_kit.model.parse_box` without an image size.
    """
    preds = []
    for i, row in enumerate(read_json_lines(path)):
        where = f"{path}:{i + 1}"
        try:
            class_id = int(row["class_id"])
            score = float(row["score"])
            pred = Prediction(
                image_id=str(row["image_id"]),
                human_box=parse_box(row["human_box"], where),
                object_box=parse_box(row["object_box"], where),
                class_id=class_id,
                score=score,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise DataError(f"{where}: bad prediction row ({exc})") from exc
        if not 0.0 <= score <= 1.0:
            raise DataError(f"{where}: score {score} outside [0, 1]")
        if vocab is not None and class_id not in vocab:
            raise UnknownClassError(f"{where}: unknown class_id {class_id}")
        preds.append(pred)
    return preds


def save_predictions(preds: Sequence[Prediction], path: str | Path) -> None:
    from .jsonio import write_json_lines

    write_json_lines(
        path,
        (
            {
                "image_id": p.image_id,
                "human_box": p.human_box.as_list(),
                "object_box": p.object_box.as_list(),
                "class_id": p.class_id,
                "score": p.score,
            }
            for p in preds
        ),
    )
