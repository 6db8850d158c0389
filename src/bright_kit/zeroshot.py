"""Balanced zero-shot test split from novel verb-object compositions.

Candidates are classes outside the seen set whose verb and object each occur
somewhere in the seen set: compositions a detector has the ingredients for
but has never observed combined.  The split is balanced with the same
machinery as the main splits, over real leftover images only.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from .balancer import BalanceConfig, balance
from .errors import DataError, VocabularyMismatchError
from .model import Dataset, HoiClass, Vocabulary, restrict

logger = logging.getLogger("bright_kit")

DEFAULT_CLASS_BUDGET = 107


@dataclass(frozen=True)
class ZeroShotPlan:
    """Inputs for zero-shot split construction.

    ``source_pool`` must hold real images unused by the train and test splits
    (the caller guarantees disjointness); ``class_budget`` caps how many
    candidate classes are kept when more are satisfiable.  The per-class
    instance target is the balancing config's ``target_per_class``.
    """

    candidate_classes: tuple[HoiClass, ...]
    source_pool: Dataset
    class_budget: int = DEFAULT_CLASS_BUDGET

    def __post_init__(self):
        if self.class_budget < 1:
            raise DataError("class_budget must be >= 1")
        pool_ids = set(self.source_pool.vocabulary.class_ids())
        for cls in self.candidate_classes:
            if cls.class_id not in pool_ids:
                raise DataError(
                    f"candidate class {cls.class_id} missing from the pool vocabulary"
                )


@dataclass
class ZeroShotResult:
    """The balanced zero-shot dataset plus the selection/warning report."""

    dataset: Dataset
    selected_class_ids: tuple[int, ...]
    excluded: dict[int, int] = field(default_factory=dict)  # class_id -> available supply
    over_budget: tuple[int, ...] = ()
    removed_annotations: int = 0
    trimmed_images: int = 0

    def to_report_dict(self) -> dict:
        return {
            "selected_classes": list(self.selected_class_ids),
            "instances": self.dataset.total_instances,
            "images": len(self.dataset),
            "excluded_insufficient_supply": {
                str(k): v for k, v in sorted(self.excluded.items())
            },
            "excluded_over_budget": list(self.over_budget),
            "removed_annotations": self.removed_annotations,
            "trimmed_images": self.trimmed_images,
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


def build_zeroshot_split(plan: ZeroShotPlan, cfg: BalanceConfig) -> ZeroShotResult:
    """Balance the source pool down to exactly ``cfg.target_per_class``
    instances of each selected candidate class.

    Candidates whose pool supply is below the per-class target are excluded
    with a warning, not an error.  When more candidates are satisfiable than
    the class budget allows, the ones with the largest supply win, ties by
    ascending class_id.
    """
    target = cfg.target_per_class
    candidate_ids = [c.class_id for c in plan.candidate_classes]
    supply = {cid: plan.source_pool.count(cid) for cid in candidate_ids}
    satisfiable = [cid for cid in candidate_ids if supply[cid] >= target]
    excluded = {cid: supply[cid] for cid in candidate_ids if cid not in set(satisfiable)}
    for cid, avail in sorted(excluded.items()):
        logger.warning(
            "zero-shot candidate %d has %d instances, needs %d; excluded",
            cid, avail, target,
        )
    if len(satisfiable) < plan.class_budget:
        logger.warning(
            "only %d zero-shot classes satisfiable out of a budget of %d",
            len(satisfiable), plan.class_budget,
        )

    ranked = sorted(satisfiable, key=lambda c: (-supply[c], c))
    chosen = sorted(ranked[: plan.class_budget])
    over_budget = tuple(sorted(ranked[plan.class_budget :]))

    if not chosen:
        empty = Dataset([], plan.source_pool.vocabulary, plan.source_pool.vocabulary_ref)
        return ZeroShotResult(empty, (), excluded, over_budget)

    scoped = restrict(plan.source_pool, chosen, drop_empty_images=True)
    chosen_vocab = plan.source_pool.vocabulary.subset(chosen)
    result = balance(scoped, chosen_vocab, cfg)
    if result.deficits:  # supply >= target for every chosen class rules this out
        raise AssertionError(f"unexpected zero-shot deficits: {result.deficits}")

    return ZeroShotResult(
        dataset=result.balanced,
        selected_class_ids=tuple(chosen),
        excluded=excluded,
        over_budget=over_budget,
        removed_annotations=result.removed_annotations,
        trimmed_images=result.trimmed_images,
    )
