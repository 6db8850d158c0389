"""Distribution diagnostics: per-class counts, long-tail ordering, train/test ratios.

These are the numbers that decide whether a benchmark needs rebalancing at
all: how skewed the per-class instance counts are, and how wildly the
train:test ratio varies across classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import DataError, VocabularyMismatchError
from .model import Dataset, Vocabulary


@dataclass(frozen=True)
class ClassDistribution:
    """Per-class instance counts plus summary extremes.

    ``min_count``/``median_count`` are taken over classes with at least one
    instance unless the distribution was built with ``include_zero=True``;
    benchmark tables conventionally report the minimum over represented
    classes.
    """

    counts: Mapping[int, int]
    total_instances: int
    max_count: int
    min_count: int
    median_count: float

    def count(self, class_id: int) -> int:
        return self.counts.get(class_id, 0)


def _median(values: list[int]) -> float:
    if not values:
        return 0.0
    values = sorted(values)
    n = len(values)
    mid = n // 2
    if n % 2:
        return float(values[mid])
    return (values[mid - 1] + values[mid]) / 2.0


def distribution(d: Dataset, include_zero: bool = False) -> ClassDistribution:
    """Exact per-class instance counts for every vocabulary class."""
    counts = d.class_counts()
    values = list(counts.values())
    pool = values if include_zero else [v for v in values if v > 0]
    return ClassDistribution(
        counts=counts,
        total_instances=sum(values),
        max_count=max(values, default=0),
        min_count=min(pool, default=0),
        median_count=_median(pool),
    )


def sort_classes(dist: ClassDistribution, vocab: Vocabulary) -> tuple[int, ...]:
    """Every vocabulary class id, by descending count in ``dist``.

    Ties break by ascending class_id so that the ordering, and everything
    derived from it (top-k selection, balancing order), is deterministic.
    """
    return tuple(sorted(vocab.class_ids(), key=lambda c: (-dist.count(c), c)))


def top_k(vocab: Vocabulary, ordered: Sequence[int], k: int) -> Vocabulary:
    """The first ``k`` ids of ``ordered`` (see :func:`sort_classes`) as a subset of ``vocab``."""
    n = len(ordered)
    if not 1 <= k <= n:
        raise DataError(f"k must be in [1, {n}], got {k}")
    return vocab.subset(ordered[:k])


@dataclass(frozen=True)
class RatioRow:
    class_id: int
    train_count: int
    test_count: int
    ratio: float | None  # None marks an undefined ratio (test_count == 0)


def ratio_report(train: Dataset, test: Dataset) -> list[RatioRow]:
    """Per-class (train_count, test_count, train/test ratio), one row per vocabulary class."""
    if train.vocabulary != test.vocabulary:
        raise VocabularyMismatchError("train and test use different vocabularies")
    rows = []
    for cls in train.vocabulary:
        tr = train.count(cls.class_id)
        te = test.count(cls.class_id)
        rows.append(RatioRow(cls.class_id, tr, te, tr / te if te else None))
    return rows
