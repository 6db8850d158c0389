"""Class-balanced under-sampling of multi-instance detection datasets.

Images routinely carry instances of several classes at once, so naive
per-class sampling overshoots: adding an image for a tail class silently
inflates every other class present in it.  The balancer runs alternating
add/remove passes over the class list and finishes with per-instance trimming
so that every satisfiable class ends at exactly the target count.

One epoch:

* ADD, tail classes first: for each class below the target, sample images
  containing it (uniformly, without replacement, skipping images already
  selected) until the class count reaches the target or supply runs out.
* REMOVE, head classes first (skipped on the final epoch): for each class
  above the target, sample images containing it and evict the ones currently
  selected until the count is back at or below the target.  Evictions may
  drag other classes below target again; the next epoch repairs that.

After the configured number of epochs, classes still above target lose
individual instance annotations, chosen uniformly at random, until they sit
at the target exactly.  Classes whose total supply is below the target end
up short and are reported as deficits, to be filled with augmented data.

Determinism contract: a single seeded PRNG drives every random choice, and
the stream order is fixed: epochs outer, classes in the documented
head/tail order, candidate image lists in dataset order before shuffling,
then trimming per class in head-to-tail order.  Identical (pool, classes,
config) inputs therefore reproduce identical results bit for bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import DataError, ResidualDeficitError, UnknownClassError
from .model import Dataset, ImageRecord, Vocabulary, merge, restrict

DEFAULT_EPOCHS = 20


@dataclass(frozen=True)
class BalanceConfig:
    """Knobs for one balancing pass.

    ``target_per_class`` is the exact instance count every class should end
    with; ``epochs`` is the number of add/remove rounds; ``seed`` seeds the
    pass's PRNG.  Which classes are balanced is the caller's choice.
    """

    target_per_class: int
    epochs: int = DEFAULT_EPOCHS
    seed: int = 0

    def __post_init__(self):
        if self.target_per_class < 1:
            raise DataError(f"target_per_class must be >= 1, got {self.target_per_class}")
        if self.epochs < 1:
            raise DataError(f"epochs must be >= 1, got {self.epochs}")


@dataclass
class BalanceResult:
    """Outcome of one balancing pass.

    ``balanced`` and ``remainder`` partition the input pool's images;
    ``deficits`` maps each class that could not reach the target to its
    missing count; ``removed_annotations`` counts instance annotations
    deleted by the final trim and ``trimmed_images`` the images they came
    from.
    """

    balanced: Dataset
    deficits: dict[int, int]
    removed_annotations: int
    remainder: Dataset
    trimmed_images: int = 0


def _class_order(pool: Dataset, classes: Vocabulary) -> list[int]:
    # Head-to-tail: descending pool count, ties by ascending class_id.
    return sorted(classes.class_ids(), key=lambda c: (-pool.count(c), c))


def balance(pool: Dataset, classes: Vocabulary, cfg: BalanceConfig) -> BalanceResult:
    """Select a subset of ``pool`` where every class in ``classes`` has exactly
    ``cfg.target_per_class`` instances, or as many as supply allows.

    Only instances of ``classes`` are counted; annotations of other classes
    ride along untouched.  Never raises for insufficient supply; short
    classes are reported in ``deficits``.
    """
    if not classes.is_subset_of(pool.vocabulary):
        raise UnknownClassError("balancing classes are not a subset of the pool vocabulary")

    target = cfg.target_per_class
    target_ids = set(classes.class_ids())
    head_to_tail = _class_order(pool, classes)
    rng = random.Random(cfg.seed)

    # Images are handled by position in ``pool.images``.  Shuffles and samples
    # draw from the PRNG by list length only, so lists of positions reproduce
    # the stream of the same lists of image ids.
    images = pool.images
    position = {rec.image_id: i for i, rec in enumerate(images)}
    with_class = {
        c: [position[iid] for iid in pool.images_with_class(c)] for c in target_ids
    }
    # Per image, its (class, instance count) pairs over the balanced classes.
    image_counts: list[tuple[tuple[int, int], ...]] = []
    for rec in images:
        per: dict[int, int] = {}
        for inst in rec.instances:
            if inst.class_id in target_ids:
                per[inst.class_id] = per.get(inst.class_id, 0) + 1
        image_counts.append(tuple(per.items()))

    selected = [False] * len(images)
    counts: dict[int, int] = {c: 0 for c in target_ids}

    for epoch in range(1, cfg.epochs + 1):
        # ADD stage, tail to head.
        for cls_id in reversed(head_to_tail):
            if counts[cls_id] >= target:
                continue
            candidates = [i for i in with_class[cls_id] if not selected[i]]
            rng.shuffle(candidates)
            for i in candidates:
                if counts[cls_id] >= target:
                    break
                selected[i] = True
                for c, n in image_counts[i]:
                    counts[c] += n
            # Supply exhausted below target: leave the class short for now.

        # REMOVE stage, head to tail; the final epoch keeps its additions.
        if epoch < cfg.epochs:
            for cls_id in head_to_tail:
                if counts[cls_id] <= target:
                    continue
                candidates = with_class[cls_id].copy()
                rng.shuffle(candidates)
                for i in candidates:
                    if counts[cls_id] <= target:
                        break
                    if not selected[i]:
                        continue
                    selected[i] = False
                    for c, n in image_counts[i]:
                        counts[c] -= n

    # Per-instance trim: classes still above target lose random annotations.
    # One pass over the selection collects every over-target class's
    # (image, instance) positions in selection order.
    selected_order = [i for i, chosen in enumerate(selected) if chosen]
    positions: dict[int, list[tuple[int, int]]] = {
        c: [] for c in head_to_tail if counts[c] > target
    }
    for i in selected_order:
        for k, inst in enumerate(images[i].instances):
            if inst.class_id in positions:
                positions[inst.class_id].append((i, k))
    drop: dict[int, set[int]] = {}
    removed_annotations = 0
    for cls_id, cls_positions in positions.items():
        excess = counts[cls_id] - target
        for i, k in rng.sample(cls_positions, excess):
            drop.setdefault(i, set()).add(k)
        counts[cls_id] = target
        removed_annotations += excess

    balanced_records: list[ImageRecord] = []
    for i in selected_order:
        rec = images[i]
        if i in drop:
            kept = tuple(inst for k, inst in enumerate(rec.instances) if k not in drop[i])
            rec = rec.with_instances(kept)
        balanced_records.append(rec)

    balanced = Dataset(balanced_records, pool.vocabulary, pool.vocabulary_ref)
    remainder = Dataset(
        (rec for rec, chosen in zip(images, selected) if not chosen),
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


def _by_key(counts: dict[int, int]) -> dict[str, int]:
    return {str(k): v for k, v in sorted(counts.items())}


@dataclass
class SplitResult:
    """Outcome of one test-first split construction.

    ``test`` is the balancing pass over the pool restricted to the selected
    classes and ``train`` the pass over its remainder;
    ``out_of_scope_annotations`` counts the pool annotations of the other
    classes, dropped before either pass.
    """

    test: BalanceResult
    train: BalanceResult
    out_of_scope_annotations: int

    def audit(self, train: Dataset | None = None, filled: dict[int, int] | None = None) -> dict:
        """The body of ``audit.json``.

        ``train`` is the train split as written, when :func:`fill_deficits`
        topped it up, and ``filled`` the per-class instance counts taken from
        augmented data; the deficits stay those of the balancing pass.
        """
        train = self.train.balanced if train is None else train

        def side(result: BalanceResult, split: Dataset) -> dict:
            return {
                "images": len(split),
                "instances": split.total_instances,
                "removed_annotations": result.removed_annotations,
                "trimmed_images": result.trimmed_images,
                "deficits": _by_key(result.deficits),
            }

        return {
            "test": side(self.test, self.test.balanced),
            "train": {**side(self.train, train), "filled_from_augmented": _by_key(filled or {})},
            "out_of_scope_annotations": self.out_of_scope_annotations,
        }


def build_splits(
    total: Dataset,
    classes: Vocabulary,
    test_cfg: BalanceConfig,
    train_cfg: BalanceConfig,
) -> SplitResult:
    """Test-first split construction.

    Balances a test set out of the unified pool first, so the test split is
    built purely from real images, then balances a train set from what is
    left.  The pool is restricted to the selected classes up front so split
    instance totals come out exact; annotations dropped by that restriction
    are counted apart from balancing removals.
    """
    for rec in total.images:
        for inst in rec.instances:
            if inst.provenance != "real":
                raise DataError(
                    f"image {rec.image_id}: test-first construction requires a "
                    f"real-only pool, found provenance {inst.provenance!r}"
                )

    scoped = restrict(total, classes.class_ids(), drop_empty_images=True)
    test_result = balance(scoped, classes, test_cfg)
    return SplitResult(
        test=test_result,
        train=balance(test_result.remainder, classes, train_cfg),
        out_of_scope_annotations=total.total_instances - scoped.total_instances,
    )


def fill_deficits(
    train: Dataset, deficits: dict[int, int], augmented: Dataset
) -> Dataset:
    """Top up deficient classes from an augmented dataset.

    Augmented images are consumed in file order; from each, only instances of
    classes still in need are kept, clamped to the remaining need, so every
    formerly deficient class lands exactly on target.  Surplus augmented
    instances are rejected.  Raises :class:`ResidualDeficitError` when the
    augmented data cannot cover some class.
    """
    if not deficits:
        return train
    if train.vocabulary != augmented.vocabulary:
        raise DataError("augmented dataset uses a different vocabulary than train")

    need = dict(deficits)
    train_ids = set(train.image_ids())
    kept_records: list[ImageRecord] = []
    for rec in augmented.images:
        for inst in rec.instances:
            if inst.provenance == "real":
                raise DataError(
                    f"augmented image {rec.image_id}: provenance must be "
                    f"generated or crawled"
                )
            if inst.class_id not in need:
                raise DataError(
                    f"augmented image {rec.image_id}: class {inst.class_id} "
                    f"is not a deficit class"
                )
        if rec.image_id in train_ids:
            raise DataError(f"augmented image_id {rec.image_id!r} already in train")
        kept = []
        for inst in rec.instances:
            if need.get(inst.class_id, 0) > 0:
                kept.append(inst)
                need[inst.class_id] -= 1
        if kept:
            kept_records.append(rec.with_instances(kept))

    residual = {c: n for c, n in need.items() if n > 0}
    if residual:
        raise ResidualDeficitError(residual)

    filler = Dataset(kept_records, augmented.vocabulary, train.vocabulary_ref)
    return merge(train, filler)
