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

After the configured number of epochs, or the first epoch that draws
nothing (every later one would repeat it), classes still above target lose
individual instance annotations, chosen uniformly at random, until they sit
at the target exactly.  Classes whose total supply is below the target end
up short and are reported as deficits, to be filled with augmented data.

Determinism contract: a single seeded PRNG drives every random choice, and
the stream order is fixed: epochs outer, classes in the head/tail order of
:func:`~bright_kit.stats.sort_classes` over the pool, ADD's unselected or
REMOVE's selected images of a class in dataset order, drawn one per image
taken by forward Fisher-Yates steps (Durstenfeld, CACM 1964), then trimming
per class in head-to-tail order.
Identical (pool, classes, config) inputs therefore reproduce identical results
bit for bit.  :data:`BALANCER_VERSION` names the stream.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass

from .cache import cached
from .errors import DataError, ResidualDeficitError, UnknownClassError
# Nothing here calls ``restrict``; perfbench's span table wraps this module's name for it.
from .model import PROVENANCES, Dataset, Vocabulary, merge, restrict
from .stats import sort_classes

DEFAULT_EPOCHS = 20
# The PRNG stream of :func:`balance`; artifacts' config hashes cover it.
BALANCER_VERSION = 2


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

    ``balanced`` holds the selected images with their untrimmed instances of
    the balanced classes, less any image the trim left empty; ``remainder``
    every unselected image untouched.  ``deficits`` maps each class that could not
    reach the target to its missing count; ``removed_annotations`` counts
    instance annotations deleted by the final trim and ``trimmed_images`` the
    images they came from.
    """

    balanced: Dataset
    deficits: dict[int, int]
    removed_annotations: int
    remainder: Dataset
    trimmed_images: int = 0

    def report(self, written: Dataset | None = None) -> dict:
        """Size and trim counters of the pass as the artifacts give them;
        ``written`` is the split as written when it is not ``balanced``."""
        split = self.balanced if written is None else written
        return {"images": len(split), "instances": split.total_instances,
                "removed_annotations": self.removed_annotations,
                "trimmed_images": self.trimmed_images}


def _draw(rng: random.Random, candidates: list[int], k: int) -> int:
    """Fisher-Yates step ``k``: swap a uniform pick of ``candidates[k:]`` to ``k``, return it."""
    j = rng.randrange(k, len(candidates))
    candidates[k], candidates[j] = candidates[j], candidates[k]
    return candidates[k]


def balance(pool: Dataset, classes: Vocabulary, cfg: BalanceConfig) -> BalanceResult:
    """Select a subset of ``pool`` where every class in ``classes`` has exactly
    ``cfg.target_per_class`` instances, or as many as supply allows.

    Only instances of ``classes`` are counted, and only they stay in
    ``balanced``; ``remainder`` holds every unselected image untouched.  Never
    raises for insufficient supply; short classes are reported in
    ``deficits``.  A pool read from a file is walked once per selection,
    classes and ``cfg``: the load cache keeps the result.  Stored or not, the
    result is built from the walk's entry.
    """
    if not classes.is_subset_of(pool.vocabulary):
        raise UnknownClassError("balancing classes are not a subset of the pool vocabulary")
    key = pool._cols.key
    if key is None:  # columns built in memory: no file names them
        arrays, values, _ = _walk(pool, classes, cfg)
    else:
        # The entry's key covers the file's key, the pool's selection of its
        # columns (a range selects all of them: its length names it) and ``cfg``.
        selection = (pool._rows, pool._inst, pool._first)
        sizes = [[len(s)] if isinstance(s, range) else len(s) for s in selection]
        _, arrays, values, _ = cached(
            f"balance pass (seed {cfg.seed}) over {key[:12]}", "balance",
            [key, sorted(classes.class_ids()), cfg.target_per_class, cfg.epochs, cfg.seed,
             BALANCER_VERSION, sizes], lambda _: _walk(pool, classes, cfg),
            b"".join(array("q", s) for s in selection if not isinstance(s, range)))
    deficits, removed, trimmed = values
    return BalanceResult(pool._selected(*arrays[:3]), dict(deficits), removed,
                         pool._selected(*arrays[3:]), trimmed)


def _walk(pool: Dataset, classes: Vocabulary, cfg: BalanceConfig) -> tuple[list, list, bool]:
    """The seeded walk of :func:`balance` as a cache entry: the selections of the balanced
    split and the remainder; the deficits, removed annotations and trimmed images."""
    target = cfg.target_per_class
    target_ids = set(classes.class_ids())
    index = pool.vocabulary._index
    rng = random.Random(cfg.seed)

    # Images are handled by position in the pool and classes by position in
    # its vocabulary.  Draws depend on list lengths and positions in a list
    # only, so lists of positions reproduce the stream of the same lists of
    # ids.  Head to tail: descending pool count, ties by ascending class_id.
    head_to_tail = [index[c] for c in sort_classes(pool, classes)]
    codes, first = pool._column(pool._cols.cls), pool._first
    with_class: dict[int, list[int]] = {c: [] for c in head_to_tail}
    # Per image, its (class, instance count) pairs over the balanced classes.
    image_counts: list[tuple[tuple[int, int], ...]] = []
    for i in range(len(pool)):
        per: dict[int, int] = {}
        for c in codes[first[i] : first[i + 1]]:
            if c in with_class:
                per[c] = per.get(c, 0) + 1
        for c in per:
            with_class[c].append(i)
        image_counts.append(tuple(per.items()))

    selected = [False] * len(pool)
    counts: dict[int, int] = {c: 0 for c in head_to_tail}

    for epoch in range(1, cfg.epochs + 1):
        drawn = False
        # ADD stage, tail to head.
        for cls in reversed(head_to_tail):
            if counts[cls] >= target:
                continue
            candidates = [i for i in with_class[cls] if not selected[i]]
            for k in range(len(candidates)):
                if counts[cls] >= target:
                    break
                i = _draw(rng, candidates, k)
                drawn = selected[i] = True
                for c, n in image_counts[i]:
                    counts[c] += n
            # Supply exhausted below target: leave the class short for now.

        # REMOVE stage, head to tail; the final epoch keeps its additions.
        if epoch < cfg.epochs:
            for cls in head_to_tail:
                if counts[cls] <= target:
                    continue
                candidates = [i for i in with_class[cls] if selected[i]]
                for k in range(len(candidates)):
                    if counts[cls] <= target:
                        break
                    i = _draw(rng, candidates, k)
                    selected[i], drawn = False, True
                    for c, n in image_counts[i]:
                        counts[c] -= n
        if not drawn:
            # Nothing moved and the PRNG drew nothing, so every later epoch
            # would repeat this one.
            break

    # Per-instance trim: classes still above target lose random annotations.
    # One pass over the selection keeps its instances of the balanced classes
    # and collects every over-target class's (image, instance) positions in
    # selection order.
    selected_order = [i for i, chosen in enumerate(selected) if chosen]
    positions: dict[int, list[tuple[int, int]]] = {
        c: [] for c in head_to_tail if counts[c] > target
    }
    keep = bytearray(len(codes))
    for i in selected_order:
        for j in range(first[i], first[i + 1]):
            if codes[j] in with_class:
                keep[j] = 1
                if codes[j] in positions:
                    positions[codes[j]].append((i, j))
    trimmed: set[int] = set()
    removed_annotations = 0
    for cls, cls_positions in positions.items():
        excess = counts[cls] - target
        for i, j in rng.sample(cls_positions, excess):
            keep[j] = 0
            trimmed.add(i)
        counts[cls] = target
        removed_annotations += excess

    balanced = pool._select(selected_order, keep)
    remainder = pool._select(i for i, chosen in enumerate(selected) if not chosen)
    deficits = [[c, target - counts[index[c]]] for c in target_ids if counts[index[c]] < target]
    return ([s for d in (balanced, remainder) for s in (d._rows, d._inst, d._first)],
            [deficits, removed_annotations, len(trimmed)], True)


def require_real(pool: Dataset) -> None:
    """Raise :class:`DataError` naming the first image of ``pool`` that holds
    a generated or crawled instance; balanced splits come from real images."""
    provenance = pool._column(pool._cols.prov)
    if any(provenance):
        j = next(j for j, code in enumerate(provenance) if code)
        image_id = pool.image_ids()[bisect_right(pool._first, j) - 1]
        raise DataError(
            f"image {image_id}: a balanced split requires a real-only pool, "
            f"found provenance {PROVENANCES[provenance[j]]!r}"
        )


def _by_key(counts: dict[int, int]) -> dict[str, int]:
    return {str(k): v for k, v in sorted(counts.items())}


@dataclass
class SplitResult:
    """Outcome of one test-first split construction.

    ``test`` is the balancing pass over the pool and ``train`` the pass over
    its remainder; ``out_of_scope_annotations`` counts the pool annotations of
    the other classes, which neither split keeps.
    """

    test: BalanceResult
    train: BalanceResult
    out_of_scope_annotations: int

    def audit(self, filled: Dataset | None = None) -> dict:
        """The body of ``audit.json``.

        ``filled`` is the train split as written after :func:`fill_deficits`,
        which covers every deficit of the train pass or raises; those
        deficits are then the counts taken from augmented data.
        """
        fills = {} if filled is None else self.train.deficits
        return {
            "test": {**self.test.report(), "deficits": _by_key(self.test.deficits)},
            "train": {**self.train.report(filled), "deficits": _by_key(self.train.deficits),
                      "filled_from_augmented": _by_key(fills)},
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
    left.  Each pass keeps only the selected classes' annotations, so split
    instance totals come out exact; the pool's annotations of other classes
    are counted apart from balancing removals.  A pool holding a generated or
    crawled instance is rejected (:func:`require_real`).
    """
    require_real(total)
    test_result = balance(total, classes, test_cfg)
    return SplitResult(
        test=test_result,
        train=balance(test_result.remainder, classes, train_cfg),
        out_of_scope_annotations=total.total_instances
        - sum(map(total.count, classes.class_ids())),
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
    classes, first = augmented.vocabulary.classes, augmented._first
    class_ids = [classes[c].class_id for c in augmented._column(augmented._cols.cls)]
    provenance = augmented._column(augmented._cols.prov)
    keep = bytearray(len(class_ids))
    for i, image_id in enumerate(augmented.image_ids()):
        for j in range(first[i], first[i + 1]):
            if not provenance[j]:
                raise DataError(
                    f"augmented image {image_id}: provenance must be generated or crawled"
                )
            if class_ids[j] not in need:
                raise DataError(
                    f"augmented image {image_id}: class {class_ids[j]} is not a deficit class"
                )
            if need[class_ids[j]] > 0:
                keep[j] = 1
                need[class_ids[j]] -= 1
        if image_id in train_ids:
            raise DataError(f"augmented image_id {image_id!r} already in train")

    residual = {c: n for c, n in need.items() if n > 0}
    if residual:
        raise ResidualDeficitError(residual)

    return merge(train, augmented._select(range(len(augmented)), keep))
