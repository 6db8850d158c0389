"""Everything after the match, in plain Python: AP from the ranks of the true
positives, the aggregate and spread statistics of a class-AP vector, and the
single-TP-flip probe.  This module does not import numpy, so a scoring command
whose match comes from the load cache (README, "Load cache") never loads it.

A class's match is the list of its true positives' ranks (0-based positions in
the class's rank order: descending score, ties in input order) and their
scores.  Precision rises and recall steps only at a true positive, so the
ranks alone give both AP methods with the float operations, in the same order,
of the definition over the whole label vector.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping, Sequence

from .errors import DataError

logger = logging.getLogger("bright_kit")

AP_METHODS = ("all_point", "eleven_point")
_NO_MATCH = ((), ())  # a class without true positives


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


def ap_from_ranks(ranks: Sequence[int], npos: int, method: str) -> float:
    """AP from the ascending ranks of a class's true positives against ``npos``
    ground-truth instances.

    The ``i``-th true positive, at rank ``r``, has recall ``i / npos`` and
    precision ``i / (r + 1)``; a rank between two true positives has a lower
    precision at the same recall, so the monotone envelope and the 11-point
    maxima take their values at true positives only.
    """
    if npos <= 0:
        raise DataError("AP is undefined without ground-truth instances")
    precision = [i / (r + 1) for i, r in enumerate(ranks, 1)]

    ap = 0.0
    if method == "eleven_point":
        for t in (i / 10.0 for i in range(11)):
            ap += max((p for i, p in enumerate(precision, 1) if i / npos >= t), default=0.0) / 11.0
        return ap
    # A true positive whose recall rounds to the last one's (npos beyond 2**53)
    # adds 0.0: the label-vector definition sums over recall steps only.
    before = 0.0
    for i, p in enumerate(reversed(list(accumulate(reversed(precision), max))), 1):
        ap += (i / npos - before) * p
        before = i / npos
    return ap


def _pairwise_sum(v: Sequence[float], lo: int, n: int) -> float:
    """The float64 sum of ``v[lo:lo + n]`` in numpy's pairwise order: below 8
    values a left fold, up to 128 eight interleaved accumulators, and above
    that the two halves (the first a multiple of 8 long) summed apart."""
    if n < 8:
        s = -0.0
        for x in v[lo : lo + n]:
            s += x
        return s
    if n <= 128:
        r = list(v[lo : lo + 8])
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            for j in range(8):
                r[j] += v[i + j]
        s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        for x in v[end : lo + n]:
            s += x
        return s
    half = n // 2
    half -= half % 8
    return _pairwise_sum(v, lo, half) + _pairwise_sum(v, lo + half, n - half)


def variance(v: Sequence[float]) -> float:
    """``np.var(v)`` bit for bit: the population variance, both sums pairwise."""
    mean = _pairwise_sum(v, 0, len(v)) / len(v)
    return _pairwise_sum([(x - mean) * (x - mean) for x in v], 0, len(v)) / len(v)


def _percentile(s: Sequence[float], q: float) -> float:
    """``np.percentile(s, q)`` of sorted ``s`` by numpy's own arithmetic, bit for bit."""
    v = (len(s) - 1) * (q / 100)
    lo = math.floor(v)
    a, b = s[lo], s[min(lo + 1, len(s) - 1)]
    t = v - lo if lo < len(s) - 1 else v + 1  # numpy weighs a last value from index -1
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


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


def summarize_class_aps(
    per_class_ap: Mapping[int, float], undefined: Sequence[int] = ()
) -> EvalReport:
    """Aggregate a per-class AP vector into an :class:`EvalReport`.

    mAP is the arithmetic mean, summed left to right in class-id order, so no
    interpreter's ``sum`` moves its bits; variance is the population variance
    in numpy's summation order (:func:`variance`); median/quartiles use
    inclusive linear interpolation; outliers sit beyond 1.5 IQR from the
    quartile box.
    """
    if not per_class_ap:
        raise DataError("no classes with defined AP to aggregate")
    aps = [per_class_ap[c] for c in sorted(per_class_ap)]
    mean_ap = 0.0
    for ap in aps:
        mean_ap += ap
    mean_ap /= len(aps)
    q1, q2, q3 = (_percentile(sorted(aps), q) for q in (25, 50, 75))
    iqr = q3 - q1
    lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
    outliers = [
        (c, a) for c, a in sorted(per_class_ap.items()) if a < lo or a > hi
    ]
    return EvalReport(
        per_class_ap=dict(per_class_ap),
        mean_ap=mean_ap,
        variance=variance(aps),
        quartiles=(q1, q2, q3),
        outliers=outliers,
        undefined_classes=list(undefined),
    )


def evaluate_matches(matches: Mapping, gt, vocab, method: str) -> EvalReport:
    """AP of every vocabulary class with ground truth in ``gt``, from ``matches``
    (class id -> true-positive ranks and scores), aggregated by
    :func:`summarize_class_aps`; classes without ground truth are undefined."""
    if gt.total_instances == 0:
        raise DataError("ground-truth dataset has no instances")
    per_class: dict[int, float] = {}
    undefined: list[int] = []
    for class_id in vocab.class_ids():
        npos = gt.count(class_id)
        if npos:
            per_class[class_id] = ap_from_ranks(matches.get(class_id, _NO_MATCH)[0], npos, method)
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


def _check_flip(flip: str) -> None:
    if flip not in ("top", "lowest"):
        raise DataError(f"flip must be 'top' or 'lowest', got {flip!r}")


def perturb_matches(matches: Mapping, class_id: int, npos: int, method: str,
                    flip: str) -> PerturbResult:
    """The TP-flip probe of ``class_id`` (see ``evaluator.perturb_tp_flip``) from
    ``matches`` and the class's ``npos`` ground-truth instances."""
    _check_flip(flip)
    if not npos:
        raise DataError(f"class {class_id} has no ground truth; AP undefined")
    ranks, scores = matches.get(class_id, _NO_MATCH)
    if not ranks:
        raise DataError(f"class {class_id} has no matched TP to flip")
    ap = ap_from_ranks(ranks, npos, method)
    k = 0 if flip == "top" else len(ranks) - 1
    perturbed = ap_from_ranks([r for j, r in enumerate(ranks) if j != k], npos, method)
    return PerturbResult(
        class_id=class_id,
        original_ap=ap,
        perturbed_ap=perturbed,
        relative_drop=(ap - perturbed) / ap,
        flipped_rank=ranks[k],
        flipped_score=scores[k],
    )


def match_entry(matches: Mapping) -> list[array]:
    """``matches`` as load-cache columns: class ids, where each class's true
    positives end, and every rank and score, classes in ascending order."""
    classes, ends, ranks, scores = array("q"), array("q"), array("q"), array("d")
    for class_id in sorted(matches):
        class_ranks, class_scores = matches[class_id]
        classes.append(class_id)
        ranks.extend(class_ranks)
        scores.extend(class_scores)
        ends.append(len(ranks))
    return [classes, ends, ranks, scores]


def matches_of(entry: Sequence[array]) -> dict[int, tuple[array, array]]:
    """The matches :func:`match_entry` stored as ``entry``."""
    classes, ends, ranks, scores = entry
    starts = [0, *ends]
    return {c: (ranks[lo:hi], scores[lo:hi]) for c, lo, hi in zip(classes, starts, ends)}
