#!/usr/bin/env python3
"""Balanced zero-shot evaluation classes from novel verb-object compositions.

A class qualifies as a zero-shot candidate when it never appears in the seen
set but both its verb and its object do.  The demo enumerates candidates over
a small verb/object grid, then balances a leftover-image pool down to a fixed
instance count per candidate.

Usage:
    python3 demos/03_zero_shot_compositions.py
"""

import random

from bright_kit import (
    BalanceConfig,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    ZeroShotPlan,
    build_zeroshot_split,
    enumerate_candidates,
)
from bright_kit.model import BBox


def main():
    verbs = ["hold", "ride", "wash", "inspect"]
    objects = ["bicycle", "horse", "car"]
    grid = [(v, o) for v in verbs for o in objects]
    universe = Vocabulary(
        HoiClass(i + 1, verbs.index(v) + 1, objects.index(o) + 1, v, o)
        for i, (v, o) in enumerate(grid)
    )
    seen = universe.subset([1, 2, 3, 5, 6, 7, 9, 12])  # 8 of the 12 compositions

    print("=" * 64)
    print("Candidate enumeration: unseen pairs of seen parts")
    print("=" * 64)
    seen_pairs = {(c.verb_name, c.object_name) for c in seen}
    print(f"  seen: {sorted(seen_pairs)}")
    candidates = enumerate_candidates(seen, universe)
    for c in candidates:
        print(f"  candidate {c.class_id}: ({c.verb_name}, {c.object_name})")

    print()
    print("=" * 64)
    print("Balancing the leftover pool to 4 instances per candidate")
    print("=" * 64)
    rng = random.Random(5)
    lists = []
    supplies = [3] + [rng.choice([6, 8]) for _ in candidates[1:]]  # first one starved
    for c, supply in zip(candidates, supplies):
        lists.extend([c.class_id] for _ in range(supply))
    images = []
    for i, (cid,) in enumerate(lists):
        x1, y1 = rng.uniform(0, 50), rng.uniform(0, 50)
        images.append(ImageRecord(
            f"zs{i:04d}", f"zs{i:04d}.jpg", 100, 100,
            (HoiInstance(BBox(x1, y1, x1 + 30, y1 + 30),
                         BBox(x1 + 5, y1 + 5, x1 + 40, y1 + 40), cid),),
        ))
    pool = Dataset(images, universe)
    for c in candidates:
        print(f"  supply for class {c.class_id}: {pool.count(c.class_id)}")

    plan = ZeroShotPlan(
        candidate_classes=tuple(candidates),
        source_pool=pool,
        class_budget=107,
    )
    result = build_zeroshot_split(plan, BalanceConfig(4, epochs=10, seed=9))
    print(f"\n  selected classes: {list(result.selected_class_ids)}")
    print(f"  excluded (insufficient supply): {result.excluded or 'none'}")
    print(f"  split: {len(result.dataset)} images, "
          f"{result.dataset.total_instances} instances")
    print(f"  per-class counts: {[result.dataset.count(c) for c in result.selected_class_ids]}")


if __name__ == "__main__":
    main()
