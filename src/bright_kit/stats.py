"""Distribution diagnostics: per-class counts, long-tail ordering, train/test ratios,
and the ranking shift of detectors between two benchmarks.

These are the numbers that decide whether a benchmark needs rebalancing at
all: how skewed the per-class instance counts are, and how wildly the
train:test ratio varies across classes.  :func:`ranking_shift` then shows
what rebalancing changed: how detectors' mAP ranks move from one benchmark
to the other.  Nothing here imports numpy.
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


def distribution(d: Dataset, include_zero: bool = False) -> ClassDistribution:
    """Exact per-class instance counts for every vocabulary class."""
    # Imported here: importing statistics (with decimal and fractions) costs a
    # process about 5 ms, and of the CLI commands only stats needs it.
    from statistics import median
    counts = d.class_counts()
    values = list(counts.values())
    pool = values if include_zero else [v for v in values if v > 0]
    return ClassDistribution(
        counts=counts,
        total_instances=sum(values),
        max_count=max(values, default=0),
        min_count=min(pool, default=0),
        median_count=float(median(pool)) if pool else 0.0,
    )


def sort_classes(dist: ClassDistribution | Dataset, vocab: Vocabulary) -> tuple[int, ...]:
    """Every vocabulary class id, by descending ``dist.count``: any object
    with that method, such as a :class:`ClassDistribution` or a :class:`Dataset`.

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
    return [
        RankingRow(m, map_a[m], rank_a[m], map_b[m], rank_b[m], rank_a[m] - rank_b[m])
        for m in sorted(map_a, key=lambda m: rank_a[m])
    ]
