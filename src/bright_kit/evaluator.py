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

Predictions are scored as numpy columns (:class:`PredictionTable`).  Pair IoU
is computed elementwise in float64 with the operations of
:meth:`~bright_kit.model.BBox.iou` in the same order; the object IoU only for
pairs whose human IoU reaches the threshold, since no other pair can qualify.
The AP sums run sequentially in Python, so every result is bit-identical to
scoring one :class:`Prediction` object at a time and compares exactly against
a brute-force oracle.
"""

from __future__ import annotations

import logging
import math
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import DataError, UnknownClassError
from .jsonio import read_json_lines
from .model import BBox, Dataset, Vocabulary, parse_box

logger = logging.getLogger("bright_kit")

AP_METHODS = ("all_point", "eleven_point")
# Prediction/ground-truth pairs whose IoU is computed at once.  A chunk's numpy
# temporaries take about 140 bytes a pair, so 1 << 14 pairs stay near 2 MB:
# at 1 << 16 matching ran slower and, in a fresh process, page-faulted on
# them unless an earlier large free had raised the allocator's thresholds.
_PAIR_CHUNK = 1 << 14


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


def _column(values, dtype) -> np.ndarray:
    col = np.asarray(values, dtype=dtype)
    col.flags.writeable = False
    return col


class PredictionTable(Sequence):
    """Read-only predictions as numpy columns; indexing builds a :class:`Prediction`.

    Row ``i`` is image ``image_ids[image[i]]``, class ``class_id[i]``, score
    ``score[i]`` and boxes ``boxes[i] = [human_box, object_box]``, each
    ``[x1, y1, x2, y2]``.  It compares equal to any sequence holding equal
    predictions in the same order.
    """

    def __init__(self, image_ids: Sequence[str], image, class_id, score, boxes):
        self.image_ids = tuple(image_ids)
        self.image = _column(image, np.int64)
        self.class_id = _column(class_id, np.int64)
        self.score = _column(score, np.float64)
        self.boxes = _column(boxes, np.float64).reshape(-1, 2, 4)

    @classmethod
    def of(cls, preds: Sequence[Prediction]) -> "PredictionTable":
        """``preds`` as a table; a table is returned as it is."""
        if isinstance(preds, PredictionTable):
            return preds
        ids: dict[str, int] = {}
        image = [ids.setdefault(p.image_id, len(ids)) for p in preds]
        return cls(
            ids,
            image,
            [p.class_id for p in preds],
            [p.score for p in preds],
            [p.human_box.as_list() + p.object_box.as_list() for p in preds],
        )

    def select(self, rows) -> "PredictionTable":
        """The rows a boolean mask or an index array picks, in that order."""
        return PredictionTable(
            self.image_ids, self.image[rows], self.class_id[rows], self.score[rows],
            self.boxes[rows],
        )

    def __len__(self) -> int:
        return len(self.score)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return self.select(i)
        human, obj = self.boxes[i].tolist()
        return Prediction(
            self.image_ids[self.image[i]], BBox(*human), BBox(*obj),
            int(self.class_id[i]), float(self.score[i]),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


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


def _ap_from_labels(labels: Sequence[bool], npos: int, method: str) -> float:
    """AP from rank-ordered TP flags against ``npos`` ground-truth instances.

    Recall, precision and the envelope are exact elementwise array operations;
    the sums run in Python, term by term in rank order, as the reference
    definition does.
    """
    if npos <= 0:
        raise DataError("AP is undefined without ground-truth instances")
    tp = np.cumsum(np.asarray(labels, dtype=bool))
    # int / int rounds once, like Python's true division of the exact counts
    recalls = tp / npos
    precisions = tp / np.arange(1, len(tp) + 1)

    if method == "eleven_point":
        ap = 0.0
        for t in (i / 10.0 for i in range(11)):
            ap += float(np.max(precisions, where=recalls >= t, initial=0.0)) / 11.0
        return ap

    mrec = np.concatenate(([0.0], recalls))
    mpre = np.maximum.accumulate(np.concatenate(([0.0], precisions))[::-1])[::-1]
    steps = np.flatnonzero(mrec[1:] != mrec[:-1]) + 1
    ap = 0.0
    for term in ((mrec[steps] - mrec[steps - 1]) * mpre[steps]).tolist():
        ap += term
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


def _pair_iou(pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    """IoU of each box pair ``pred[:, i]``, ``truth[:, i]``.

    Both are ``(4, n)``: coordinate, pair.  Elementwise float64 in
    :meth:`BBox.iou`'s order of operations with the prediction as ``self``,
    so every value equals the scalar computation.
    """
    px1, py1, px2, py2 = pred
    tx1, ty1, tx2, ty2 = truth
    iw = np.minimum(px2, tx2) - np.maximum(px1, tx1)
    ih = np.minimum(py2, ty2) - np.maximum(py1, ty1)
    # Disjoint boxes get 0 / union = 0.0, BBox.iou's early return.
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    return inter / ((px2 - px1) * (py2 - py1) + (tx2 - tx1) * (ty2 - ty1) - inter)


def _truth_columns(gt: Dataset, preds: PredictionTable, codes: np.ndarray):
    """Group key and boxes of each ground truth in an image and a class that
    some prediction has, sorted by key and in dataset order within a key.

    The key of (class ``codes[c]``, image ``preds.image_ids[k]``) is
    ``c * len(preds.image_ids) + k``.
    """
    image_of = {image_id: k for k, image_id in enumerate(preds.image_ids)}
    index = gt.vocabulary._index
    code_of = np.full(len(gt.vocabulary), -1, dtype=np.int64)  # vocabulary position -> code
    for c, class_id in enumerate(codes.tolist()):
        if class_id in index:
            code_of[index[class_id]] = c
    image = np.array([image_of.get(i, -1) for i in gt.image_ids()], dtype=np.int64)
    inst = np.asarray(gt._inst, dtype=np.intp)
    k = np.repeat(image, np.diff(np.frombuffer(gt._first, dtype=np.int64)))
    c = code_of[np.frombuffer(gt._cols.cls, dtype=np.int64)[inst]]
    known = (k >= 0) & (c >= 0)
    keys = (c * len(image_of) + k)[known]
    boxes = np.frombuffer(gt._cols.box, dtype=np.float64).reshape(-1, 2, 4)[inst[known]]
    by_key = np.argsort(keys, kind="stable")
    return keys[by_key], _by_pair(boxes[by_key])


def _by_pair(boxes: np.ndarray) -> np.ndarray:
    """``(n, 2, 4)`` boxes laid out as ``(2, 4, n)``: (human, object) box,
    coordinate, box; ``[0]`` and ``[1]`` are the layout :func:`_pair_iou` reads."""
    return np.ascontiguousarray(np.moveaxis(boxes, 0, -1))


def _qualifying_pairs(pred, truth, first, size, threshold) -> Iterator[tuple]:
    """``(i, t, iou)`` for each pair of prediction ``i`` and one of its
    ``size[i]`` candidate ground truths ``t`` from ``first[i]`` on whose pair
    IoU reaches ``threshold``, by ``i`` and then ``t``.  Boxes are laid out as
    :func:`_by_pair` makes them.  The human IoU is computed for about
    :data:`_PAIR_CHUNK` pairs at a time, and the object IoU only for the pairs
    whose human IoU reaches ``threshold``: below it, the pair minimum cannot.
    """
    end = np.cumsum(size)
    lo = 0
    while lo < len(size):
        done = end[lo] - size[lo]
        hi = max(lo + 1, int(np.searchsorted(end, done + _PAIR_CHUNK, side="right")))
        n = size[lo:hi]
        i = np.repeat(np.arange(lo, hi), n)
        t = np.repeat(first[lo:hi] - (end[lo:hi] - n), n) + np.arange(done, end[hi - 1])
        iou = _pair_iou(pred[0][:, i], truth[0][:, t])
        keep = np.flatnonzero(iou >= threshold)
        i, t = i[keep], t[keep]
        iou = np.minimum(iou[keep], _pair_iou(pred[1][:, i], truth[1][:, t]))
        ok = iou >= threshold
        yield from zip(i[ok].tolist(), t[ok].tolist(), iou[ok].tolist())
        lo = hi


def _match(preds: PredictionTable, gt: Dataset, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Rank every prediction and match it greedily against ``gt``.

    Returns the rank order (class ascending, then score descending, then
    input index) and, aligned with it, the index of the ground truth each
    prediction claims among its image's instances of its class, or -1.
    """
    # lexsort is stable, so equal scores keep input order
    order = np.lexsort((-preds.score, preds.class_id))
    claimed = np.full(len(preds), -1, dtype=np.int64)
    codes, code = np.unique(preds.class_id, return_inverse=True)
    key = code * len(preds.image_ids) + preds.image
    truth_key, truth = _truth_columns(gt, preds, codes)
    if len(truth_key):
        groups, group_first, group_size = np.unique(
            truth_key, return_index=True, return_counts=True
        )
        # Each (class, image) group's predictions in rank order; those of a
        # group without ground truth stay false positives.
        by_group = order[np.argsort(key[order], kind="stable")]
        group_key = key[by_group]
        g = np.minimum(np.searchsorted(groups, group_key), len(groups) - 1)
        has_truth = groups[g] == group_key
        rows, g = by_group[has_truth], g[has_truth]
        first = group_first[g]
        taken: set[int] = set()
        pairs = _qualifying_pairs(
            _by_pair(preds.boxes[rows]), truth, first, group_size[g], threshold
        )
        for i, candidates in groupby(pairs, key=itemgetter(0)):
            best_t, best_iou = -1, 0.0
            for _, t, iou in candidates:
                if iou > best_iou and t not in taken:
                    best_t, best_iou = t, iou
            if best_t >= 0:
                taken.add(best_t)
                claimed[rows[i]] = best_t - first[i]
    return order, claimed[order]


def _class_results(
    preds: PredictionTable, gt: Dataset, cfg: MatchConfig, class_ids
) -> Iterator[ClassApResult]:
    """One :class:`ClassApResult` per class of ``class_ids``, in that order."""
    order, claimed = _match(preds, gt, cfg.iou_threshold)
    ranked = preds.class_id[order]
    present, start, count = np.unique(ranked, return_index=True, return_counts=True)
    span = {c: (s, s + k) for c, s, k in zip(present.tolist(), start.tolist(), count.tolist())}
    for class_id in class_ids:
        lo, hi = span.get(class_id, (0, 0))
        rows, cols = order[lo:hi], claimed[lo:hi]
        hits = cols >= 0
        rank = np.flatnonzero(hits)
        hit = rows[rank]
        matched = [
            MatchedTP(r, s, preds.image_ids[k], g)
            for r, s, k, g in zip(
                rank.tolist(), preds.score[hit].tolist(), preds.image[hit].tolist(),
                cols[rank].tolist(),
            )
        ]
        npos = gt.count(class_id)
        ap = _ap_from_labels(hits, npos, cfg.ap_method) if npos else None
        yield ClassApResult(class_id, ap, npos, hits.tolist(), matched)


def class_ap(
    preds: Sequence[Prediction], gt: Dataset, class_id: int, cfg: MatchConfig
) -> ClassApResult:
    """AP for one class plus the matched-TP list used by the perturbation probe.

    Predictions are ranked by descending score, ties kept in input order.
    Each prediction greedily claims the unmatched qualifying ground truth
    with the highest pair IoU (the first such in dataset order on a tie);
    one ground truth matches at most one prediction.
    """
    table = PredictionTable.of(preds)
    return next(_class_results(table.select(table.class_id == class_id), gt, cfg, [class_id]))


def _vocab_ids(vocab: Vocabulary) -> np.ndarray:
    """The vocabulary's class ids that a prediction column can hold."""
    return np.array([c for c in vocab.class_ids() if -(2**63) <= c < 2**63], dtype=np.int64)


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
    table = PredictionTable.of(preds)
    unknown = ~np.isin(table.class_id, _vocab_ids(vocab))
    if unknown.any():
        raise UnknownClassError(
            f"prediction has unknown class_id {table.class_id[unknown.argmax()]}"
        )
    per_class: dict[int, float] = {}
    undefined: list[int] = []
    for res in _class_results(table, gt, cfg, vocab.class_ids()):
        if res.ap is None:
            undefined.append(res.class_id)
        else:
            per_class[res.class_id] = res.ap
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


def ranking_shift(map_a: Mapping[str, float], map_b: Mapping[str, float]) -> list[RankingRow]:
    """Rank models by mAP on two benchmarks and report per-model rank shifts.

    Ranks are 1-based by descending mAP, ties broken by model name.
    """
    if set(map_a) != set(map_b):
        raise DataError(f"model sets differ: {sorted(set(map_a) ^ set(map_b))}")
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


def _read_row(row, where: str, vocab: Vocabulary | None) -> Prediction:
    """The scalar rule for one prediction row; :func:`load_predictions` applies
    it as array operations and re-runs it on rows those flag."""
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
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{where}: bad prediction row ({exc})") from exc
    if not 0.0 <= score <= 1.0:
        raise DataError(f"{where}: score {score} outside [0, 1]")
    if vocab is not None and class_id not in vocab:
        raise UnknownClassError(f"{where}: unknown class_id {class_id}")
    if not -(2**63) <= class_id < 2**63:
        raise DataError(f"{where}: class_id {class_id} out of range")
    return pred


def load_predictions(path: str | Path, vocab: Vocabulary | None = None) -> PredictionTable:
    """Read a JSON-lines prediction dump, validating boxes, scores and class ids.

    Rows stream into numpy columns.  Boxes follow
    :func:`~bright_kit.model.parse_box` without an image size, scores must lie
    in [0, 1] and class ids in ``vocab``; these checks run as array
    operations.  A row the columns cannot take as it is (a box to clamp, a
    missing key, a value of an unexpected type) and the first row the checks
    reject go through the scalar rule again, in file order, so warnings and
    the first error (its type, message and line number) are those of a
    row-by-row read.  The load goes through the load cache
    (:mod:`bright_kit.cache`): once loaded with no row taking the scalar
    rule, a dump is not decoded again.
    """
    from .cache import Slot  # not at the top: ``--version`` imports none of it

    slot = Slot(path, "predictions", vocab)
    if slot.entry is not None:
        (image, class_id, score, coords), image_ids = slot.entry
        return PredictionTable(image_ids, image, class_id, score, coords)
    image_ids: dict[str, int] = {}
    image, class_id, lineno = array("q"), array("q"), array("q")
    score, coords = array("d"), array("d")
    recheck: dict[int, object] = {}  # row number -> raw row
    add_line, add_coords, add_score = lineno.append, coords.extend, score.append
    add_class, add_image, image_of = class_id.append, image.append, image_ids.setdefault
    for line, row in read_json_lines(path, slot.read()):
        n = len(lineno)
        add_line(line)
        try:
            human, obj = row["human_box"], row["object_box"]
            if len(human) != 4 or len(obj) != 4:
                raise ValueError("a box has four coordinates")
            # array("d") and array("q") take exactly the JSON values (numbers
            # and booleans) that float() and int() read to the same number
            add_coords(human)
            add_coords(obj)
            add_score(row["score"])
            add_class(row["class_id"])
            add_image(image_of(str(row["image_id"]), len(image_ids)))
            if human[0] < 0 or human[1] < 0 or obj[0] < 0 or obj[1] < 0:
                recheck[n] = row
        except (KeyError, TypeError, ValueError, OverflowError):
            recheck[n] = row
            for col, width in ((coords, 8), (score, 1), (class_id, 1), (image, 1)):
                del col[n * width:]
                col.extend([0] * width)

    boxes = np.frombuffer(coords, dtype=np.float64).reshape(-1, 2, 4)
    scores = np.frombuffer(score, dtype=np.float64)
    classes = np.frombuffer(class_id, dtype=np.int64)
    images = np.frombuffer(image, dtype=np.int64)
    x1, y1, x2, y2 = np.moveaxis(boxes, -1, 0)
    ok = ((-np.inf < x1) & (x1 < x2) & (x2 < np.inf)
          & (-np.inf < y1) & (y1 < y2) & (y2 < np.inf)).all(axis=1)
    ok &= (0.0 <= scores) & (scores <= 1.0)
    if vocab is not None:
        ok &= np.isin(classes, _vocab_ids(vocab))
    rule_rows = sorted(recheck.keys() | set(np.flatnonzero(~ok).tolist()))
    for n in rule_rows:
        where = f"{path}:{lineno[n]}"
        row = recheck[n] if n in recheck else next(
            r for line, r in read_json_lines(path, slot.read()) if line == lineno[n]
        )
        pred = _read_row(row, where, vocab)
        boxes[n] = (pred.human_box.as_list(), pred.object_box.as_list())
        scores[n], classes[n] = pred.score, pred.class_id
        images[n] = image_ids.setdefault(pred.image_id, len(image_ids))
    slot.store([image, class_id, score, coords], list(image_ids), bool(rule_rows))
    return PredictionTable(image_ids, images, classes, scores, boxes)


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
