"""Balanced zero-shot test split from novel verb-object compositions.

Candidates are classes outside the seen set whose verb and object each occur
somewhere in the seen set: compositions a detector has the ingredients for
but has never observed combined.  The split is balanced with the same
machinery as the main splits, over real leftover images only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

from .balancer import BalanceConfig, BalanceResult, _by_key, balance, require_real
from .errors import DataError, VocabularyMismatchError
# Nothing here calls ``restrict``; perfbench's span table wraps this module's name for it.
from .model import Dataset, HoiClass, Vocabulary, restrict
from .stats import sort_classes

logger = logging.getLogger("bright_kit")

DEFAULT_CLASS_BUDGET = 107


@dataclass
class ZeroShotResult:
    """The balancing pass over the selected candidate classes plus the
    selection report: ``excluded`` maps each candidate short of the target to
    its supply, ``over_budget`` lists satisfiable candidates the budget cut."""

    split: BalanceResult
    selected_class_ids: tuple[int, ...]
    excluded: dict[int, int]
    over_budget: tuple[int, ...]

    @property
    def dataset(self) -> Dataset:
        return self.split.balanced

    def to_report_dict(self) -> dict:
        return {
            **self.split.report(),
            "selected_classes": list(self.selected_class_ids),
            "excluded_insufficient_supply": _by_key(self.excluded),
            "excluded_over_budget": list(self.over_budget),
        }


def enumerate_candidates(seen: Vocabulary, universe: Vocabulary) -> list[HoiClass]:
    """Classes of ``universe`` outside ``seen`` whose verb and object are both seen.

    Comparison is by verb/object *names* so the seen set and the universe may
    come from different vocabulary files.  Result is ordered by class_id.
    """
    if not seen.is_subset_of(universe):
        raise VocabularyMismatchError("seen vocabulary is not a subset of the universe")
    seen_ids = set(seen.class_ids())
    seen_verbs = seen.verb_names()
    seen_objects = seen.object_names()
    out = [
        cls
        for cls in universe
        if cls.class_id not in seen_ids
        and cls.verb_name in seen_verbs
        and cls.object_name in seen_objects
    ]
    out.sort(key=lambda c: c.class_id)
    return out


def build_zeroshot_split(candidates: Sequence[HoiClass], pool: Dataset, cfg: BalanceConfig,
                         class_budget: int = DEFAULT_CLASS_BUDGET) -> ZeroShotResult:
    """Balance ``pool`` down to exactly ``cfg.target_per_class`` instances of
    each selected candidate class.

    ``pool`` must hold real images only, unused by the train and test splits
    (the caller guarantees disjointness).  Candidates whose pool supply is
    below the per-class target are excluded with a warning, not an error.
    When more candidates are satisfiable than ``class_budget`` allows, the
    ones with the largest supply win, ties by ascending class_id.
    """
    if class_budget < 1:
        raise DataError("class_budget must be >= 1")
    for cls in candidates:
        if cls.class_id not in pool.vocabulary:
            raise DataError(f"candidate class {cls.class_id} missing from the pool vocabulary")
    require_real(pool)

    target = cfg.target_per_class
    candidate_ids = [c.class_id for c in candidates]
    satisfiable = [cid for cid in candidate_ids if pool.count(cid) >= target]
    excluded = {cid: pool.count(cid) for cid in candidate_ids if pool.count(cid) < target}
    for cid, avail in sorted(excluded.items()):
        logger.warning(
            "zero-shot candidate %d has %d instances, needs %d; excluded",
            cid, avail, target,
        )
    if len(satisfiable) < class_budget:
        logger.warning(
            "only %d zero-shot classes satisfiable out of a budget of %d",
            len(satisfiable), class_budget,
        )

    ranked = sort_classes(pool, pool.vocabulary.subset(satisfiable))
    chosen = sorted(ranked[:class_budget])
    result = balance(pool, pool.vocabulary.subset(chosen), cfg)
    if result.deficits:  # supply >= target for every chosen class rules this out
        raise AssertionError(f"unexpected zero-shot deficits: {result.deficits}")
    return ZeroShotResult(result, tuple(chosen), excluded, tuple(sorted(ranked[class_budget:])))
