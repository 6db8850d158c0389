#!/usr/bin/env python3
"""The balancing algorithm, step by step, on a pool with heavy co-occurrence.

Shows why naive sampling fails (adding an image for one class inflates the
others riding in it), then runs the add/remove/trim procedure and verifies
exactness, image-disjointness, deficits, and seed determinism.

Usage:
    python3 demos/02_balancing_walkthrough.py
"""

import random

from bright_kit import BalanceConfig, balance, build_splits
from bright_kit.model import Dataset, HoiClass, HoiInstance, ImageRecord, Vocabulary
from bright_kit.model import BBox


def build_cooccurring_pool(vocab, n_images, seed):
    rng = random.Random(seed)
    ids = list(vocab.class_ids())
    images = []
    for i in range(n_images):
        chosen = rng.sample(ids, rng.randint(1, 3))
        insts = []
        for cid in chosen:
            for _ in range(rng.randint(1, 2)):
                x1, y1 = rng.uniform(0, 50), rng.uniform(0, 50)
                insts.append(HoiInstance(BBox(x1, y1, x1 + 30, y1 + 30),
                                         BBox(x1 + 5, y1 + 5, x1 + 40, y1 + 40), cid))
        images.append(ImageRecord(f"img{i:04d}", f"img{i:04d}.jpg", 100, 100,
                                  tuple(insts)))
    return Dataset(images, vocab)


def show_counts(tag, counts, target):
    flat = "  ".join(f"{c}:{n}" for c, n in sorted(counts.items()))
    print(f"  {tag:<22} {flat}   (target {target})")


def main():
    vocab = Vocabulary(HoiClass(i, i, 1, f"verb{i}", "object") for i in range(1, 7))
    pool = build_cooccurring_pool(vocab, 80, seed=3)
    target = 8

    print("=" * 64)
    print("Naive sampling overshoots because of co-occurrence")
    print("=" * 64)
    rng = random.Random(0)
    naive: dict[int, int] = {c: 0 for c in vocab.class_ids()}
    chosen: set[str] = set()
    for cid in vocab.class_ids():
        for iid in rng.sample(pool.images_with_class(cid), k=len(pool.images_with_class(cid))):
            if naive[cid] >= target:
                break
            if iid in chosen:
                continue
            chosen.add(iid)
            for inst in pool.get_image(iid).instances:
                naive[inst.class_id] += 1
    show_counts("naive per-class pass:", naive, target)

    print()
    print("=" * 64)
    print("Alternating add/remove epochs plus a final per-instance trim")
    print("=" * 64)
    result = balance(pool, vocab, BalanceConfig(target_per_class=target, epochs=20, seed=11))
    show_counts("balanced:", result.balanced.class_counts(), target)
    print(f"  deficits: {result.deficits or 'none'}")
    print(f"  annotations trimmed: {result.removed_annotations} "
          f"(from {result.trimmed_images} images)")
    print(f"  images kept {len(result.balanced)}, remainder {len(result.remainder)}")
    overlap = set(result.balanced.image_ids()) & set(result.remainder.image_ids())
    print(f"  balanced/remainder disjoint: {not overlap}")

    print()
    print("=" * 64)
    print("Same seed, same split; new seed, different split")
    print("=" * 64)
    again = balance(pool, vocab, BalanceConfig(target_per_class=target, epochs=20, seed=11))
    other = balance(pool, vocab, BalanceConfig(target_per_class=target, epochs=20, seed=12))
    print(f"  seed 11 twice identical: {result.balanced == again.balanced}")
    print(f"  seed 12 differs:         {result.balanced != other.balanced}")

    print()
    print("=" * 64)
    print("Test-first split construction (test drawn before train)")
    print("=" * 64)
    split = build_splits(
        pool, vocab,
        BalanceConfig(target_per_class=2, epochs=20, seed=21),
        BalanceConfig(target_per_class=5, epochs=20, seed=22),
    )
    test, train = split.test.balanced, split.train.balanced
    show_counts("test:", test.class_counts(), 2)
    show_counts("train:", train.class_counts(), 5)
    print(f"  train deficits to fill by augmentation: {split.train.deficits or 'none'}")
    shared = set(test.image_ids()) & set(train.image_ids())
    print(f"  test/train image-disjoint: {not shared}")


if __name__ == "__main__":
    main()
