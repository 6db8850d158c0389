"""Per-class AP / mAP over detector prediction dumps, plus the analyses that
expose how fragile those numbers are: class-AP spread statistics and
single-TP-flip perturbation.  The ranking comparison between two benchmarks
needs no numpy and lives in :mod:`bright_kit.stats`.

Matching follows the de-facto pair protocol: a prediction is a true positive
iff an unmatched ground-truth instance of the same class in the same image
overlaps it with min(IoU_human, IoU_object) at or above the threshold,
assigned greedily in descending score order.  AP integrates the full
precision-recall curve under its monotone envelope; an 11-point variant is
available through :class:`MatchConfig` for cross-checking against older
evaluators.

Predictions are scored as numpy columns (:class:`PredictionTable`).  Pair IoU
is computed elementwise in float64 with the operations of
:meth:`~bright_kit.model.BBox.iou` in the same order.  A prediction is compared
only with the ground truths whose human x1 lies in the window that a human
IoU at the threshold allows (:func:`_windows`), and the object IoU only for
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
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .cache import cached
from .errors import DataError, UnknownClassError
from .jsonio import read_json_lines
from .model import BBox, Dataset, Vocabulary, parse_box, read_class_id

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


@dataclass
class ClassApResult:
    class_id: int
    ap: float | None  # None: no ground truth, AP undefined
    npos: int
    labels: list[bool]  # TP flag of each prediction, in rank order
    scores: list[float]  # score of each prediction, in rank order


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
    """Key, boxes and rank (position among its key's ground truths in dataset
    order) of each ground truth in an image and a class that some prediction
    has, sorted by key and then by human x1, ties in dataset order.

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
    keys, boxes = keys[by_key], boxes[by_key]
    rank = np.arange(len(keys)) - np.searchsorted(keys, keys)
    by_x = np.lexsort((boxes[:, 0, 0], keys))  # stable
    return keys, _by_pair(boxes[by_x]), rank[by_x]


def _by_pair(boxes: np.ndarray) -> np.ndarray:
    """``(n, 2, 4)`` boxes laid out as ``(2, 4, n)``: (human, object) box,
    coordinate, box; ``[0]`` and ``[1]`` are the layout :func:`_pair_iou` reads."""
    return np.ascontiguousarray(np.moveaxis(boxes, 0, -1))


def _lex(a, b) -> np.ndarray:
    """``a + b * 1j`` (``b`` may be infinite), which numpy orders by ``a``, then ``b``."""
    z = np.empty(len(b), dtype=np.complex128)
    z.real, z.imag = a, b
    return z


def _windows(pred, truth_key, truth_x1, key, threshold: float):
    """Start and end, among ground truths sorted by key and then by human x1,
    of those the human box ``pred[:, i]`` of key ``key[i]`` can pair with.

    Human IoU t needs an overlap width of t * max(pw, gw), so a ground truth's
    x1 lies in [px1 - pw (1 - t) / t, px2 - t pw].  A t lower by 2**-30 covers
    the rounding of :func:`_pair_iou` and of the bounds, which stays relative
    while their products are normal floats: a prediction with min(pw, 1) *
    min(ph, 1) * t below 2**-900 searches its whole key.  Keys, below the table's
    class count times its image count, stay under 2**53: exact in :func:`_lex`.
    """
    x1, y1, x2, y2 = pred
    w = x2 - x1
    t = threshold * (1 - 2**-30)
    lo, hi = x1 - w * ((1 - t) / t), x2 - t * w
    whole = np.minimum(w, 1.0) * np.minimum(y2 - y1, 1.0) * threshold < 2**-900
    lo[whole], hi[whole] = -np.inf, np.inf
    keys = _lex(truth_key, truth_x1)
    return (np.searchsorted(keys, _lex(key, lo)),
            np.searchsorted(keys, _lex(key, hi), side="right"))


def _qualifying_pairs(pred, truth, first, size, rank, threshold) -> Iterator[tuple[int, int]]:
    """``(i, t)`` for each pair of prediction ``i`` and one of its ``size[i]``
    candidate ground truths ``t`` from ``first[i]`` on whose pair IoU reaches
    ``threshold``, by ``i``, then descending IoU, then ``rank[t]``.  Boxes are
    laid out as :func:`_by_pair` makes them.  Chunks of about :data:`_PAIR_CHUNK`
    pairs hold whole predictions.  The object IoU is computed only for pairs
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
        i, t, iou = i[ok], t[ok], iou[ok]
        # By (i, rank), then stably by (i, -IoU): 7x faster here than a lexsort
        by = np.argsort(_lex(i, rank[t]), kind="stable")
        by = by[np.argsort(_lex(i[by], -iou[by]), kind="stable")]
        yield from zip(i[by].tolist(), t[by].tolist())
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
    truth_key, truth, rank = _truth_columns(gt, preds, codes)
    # Each key's predictions in rank order, less those of keys without ground truth
    rows = order[np.argsort(key[order], kind="stable")]
    rows = rows[np.isin(key[rows], truth_key)]
    pred = _by_pair(preds.boxes[rows])
    start, end = _windows(pred[0], truth_key, truth[0][0], key[rows], threshold)
    won, rank_of, taken, last = array("q", [-1]) * len(rows), rank.tolist(), set(), -1
    for i, t in _qualifying_pairs(pred, truth, start, end - start, rank, threshold):
        if i != last and t not in taken:  # each prediction's first candidate not taken
            taken.add(t)
            won[i], last = rank_of[t], i
    claimed[rows] = won
    return order, claimed[order]


_NO_HITS = (np.zeros(0, dtype=bool), np.zeros(0))  # a class without predictions


def _class_hits(table: PredictionTable, gt: Dataset, threshold: float) -> dict:
    """Per class in ``table``, its TP flags and scores in rank order, from one :func:`_match`."""
    order, claimed = _match(table, gt, threshold)
    present, start = np.unique(table.class_id[order], return_index=True)
    hits, scores, bounds = claimed >= 0, table.score[order], start.tolist() + [len(order)]
    return {c: (hits[lo:hi], scores[lo:hi])
            for c, lo, hi in zip(present.tolist(), bounds, bounds[1:])}


def class_ap(
    preds: Sequence[Prediction], gt: Dataset, class_id: int, cfg: MatchConfig
) -> ClassApResult:
    """AP for one class, with the TP flags and scores the perturbation probe reads.

    Predictions are ranked by descending score, ties kept in input order.
    Each prediction greedily claims the unmatched qualifying ground truth
    with the highest pair IoU (the first such in dataset order on a tie);
    one ground truth matches at most one prediction.
    """
    table = PredictionTable.of(preds)
    table = table.select(table.class_id == class_id)
    hits, scores = _class_hits(table, gt, cfg.iou_threshold).get(class_id, _NO_HITS)
    npos = gt.count(class_id)
    ap = _ap_from_labels(hits, npos, cfg.ap_method) if npos else None
    return ClassApResult(class_id, ap, npos, hits.tolist(), scores.tolist())


def _vocab_ids(vocab: Vocabulary) -> np.ndarray:
    """The vocabulary's class ids that a prediction column can hold."""
    return np.array([c for c in vocab.class_ids() if -(2**63) <= c < 2**63], dtype=np.int64)


@dataclass
class EvalReport:
    """Per-class APs with the aggregate and spread statistics of their distribution."""

    per_class_ap: dict[int, float]
    mean_ap: float
    variance: float
    quartiles: tuple[float, float, float]
    outliers: list[tuple[int, float]]
    undefined_classes: list[int] = field(default_factory=list)

    @property
    def num_evaluated(self) -> int:
        return len(self.per_class_ap)

    @property
    def median(self) -> float:
        return self.quartiles[1]

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


def _percentile(s: Sequence[float], q: float) -> float:
    """``np.percentile(s, q)`` of sorted ``s`` by numpy's own arithmetic, bit for bit."""
    v = (len(s) - 1) * (q / 100)
    lo = math.floor(v)
    a, b = s[lo], s[min(lo + 1, len(s) - 1)]
    t = v - lo if lo < len(s) - 1 else v + 1  # numpy weighs a last value from index -1
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


def summarize_class_aps(
    per_class_ap: Mapping[int, float], undefined: Sequence[int] = ()
) -> EvalReport:
    """Aggregate a per-class AP vector into an :class:`EvalReport`.

    mAP is the arithmetic mean, summed left to right in class-id order, so no
    interpreter's ``sum`` moves its bits; variance is the population variance;
    median/quartiles use inclusive linear interpolation; outliers sit beyond
    1.5 IQR from the quartile box.
    """
    if not per_class_ap:
        raise DataError("no classes with defined AP to aggregate")
    aps = [per_class_ap[c] for c in sorted(per_class_ap)]
    mean_ap = 0.0
    for ap in aps:
        mean_ap += ap
    mean_ap /= len(aps)
    variance = float(np.var(aps))
    q1, q2, q3 = (_percentile(sorted(aps), q) for q in (25, 50, 75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = [
        (c, a) for c, a in sorted(per_class_ap.items()) if a < lo or a > hi
    ]
    return EvalReport(
        per_class_ap=dict(per_class_ap),
        mean_ap=mean_ap,
        variance=variance,
        quartiles=(q1, q2, q3),
        outliers=outliers,
        undefined_classes=list(undefined),
    )


def evaluate(
    preds: Sequence[Prediction], gt: Dataset, vocab: Vocabulary, cfg: MatchConfig
) -> EvalReport:
    """AP of every vocabulary class with ground truth, from one match of all
    predictions, aggregated by :func:`summarize_class_aps`.

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
    hits = _class_hits(table, gt, cfg.iou_threshold)
    per_class: dict[int, float] = {}
    undefined: list[int] = []
    for class_id in vocab.class_ids():
        npos = gt.count(class_id)
        if npos:
            labels = hits.get(class_id, _NO_HITS)[0]
            per_class[class_id] = _ap_from_labels(labels, npos, cfg.ap_method)
        else:
            undefined.append(class_id)
    if undefined:
        logger.warning("%d classes have no ground truth; AP undefined", len(undefined))
    return summarize_class_aps(per_class, undefined)


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
    if True not in res.labels:
        raise DataError(f"class {class_id} has no matched TP to flip")
    labels = list(res.labels)  # in rank order
    rank = labels.index(True) if flip == "top" else len(labels) - 1 - labels[::-1].index(True)
    labels[rank] = False
    perturbed = _ap_from_labels(labels, res.npos, cfg.ap_method)
    return PerturbResult(
        class_id=class_id,
        original_ap=res.ap,
        perturbed_ap=perturbed,
        relative_drop=(res.ap - perturbed) / res.ap,
        flipped_rank=rank,
        flipped_score=res.scores[rank],
    )


# ---------------------------------------------------------------------------
# Prediction dump I/O (JSON lines, one prediction per line)
# ---------------------------------------------------------------------------


def _read_row(row, where: str, vocab: Vocabulary) -> Prediction:
    """The scalar rule for one prediction row; :func:`load_predictions` applies
    it as array operations and re-runs it on rows those flag."""
    try:
        class_id = read_class_id(row["class_id"])
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
    if class_id not in vocab:
        raise UnknownClassError(f"{where}: unknown class_id {class_id}")
    if not -(2**63) <= class_id < 2**63:
        raise DataError(f"{where}: class_id {class_id} out of range")
    return pred


def load_predictions(path: str | Path, vocab: Vocabulary) -> PredictionTable:
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
    rule, a dump is not decoded again.  Hit or miss, the table is built from
    the entry.
    """
    _, columns, image_ids = cached(path, "predictions", vocab,
                                   lambda data: _decode(path, data, vocab))
    return PredictionTable(image_ids, *columns)


def _decode(path, data: bytes, vocab: Vocabulary) -> tuple[list, list, bool]:
    """The cache entry of the dump ``data``; it may be stored if no row took the scalar rule."""
    image_ids: dict[str, int] = {}
    image, class_id, lineno = array("q"), array("q"), array("q")
    score, coords = array("d"), array("d")
    recheck: dict[int, object] = {}  # row number -> raw row
    add_line, add_coords, add_score = lineno.append, coords.extend, score.append
    add_class, add_image, image_of = class_id.append, image.append, image_ids.setdefault
    for line, row in read_json_lines(path, data):
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
    ok &= (0.0 <= scores) & (scores <= 1.0) & np.isin(classes, _vocab_ids(vocab))
    rule_rows = sorted(recheck.keys() | set(np.flatnonzero(~ok).tolist()))
    for n in rule_rows:
        where = f"{path}:{lineno[n]}"
        row = recheck[n] if n in recheck else next(
            r for line, r in read_json_lines(path, data) if line == lineno[n]
        )
        pred = _read_row(row, where, vocab)
        boxes[n] = (pred.human_box.as_list(), pred.object_box.as_list())
        scores[n], classes[n] = pred.score, pred.class_id
        images[n] = image_ids.setdefault(pred.image_id, len(image_ids))
    return [image, class_id, score, coords], list(image_ids), not rule_rows
