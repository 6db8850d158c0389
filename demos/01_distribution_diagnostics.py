#!/usr/bin/env python3
"""Why rebalancing is needed: long-tail diagnostics on a synthetic benchmark.

Builds an imbalanced multi-instance dataset, then walks through the stats
module: per-class counts, head/tail ordering, train/test ratio spread, and
top-k class selection.

Usage:
    python3 demos/01_distribution_diagnostics.py
"""

import random

from bright_kit import (
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    distribution,
    ratio_report,
    sort_classes,
    top_k,
)
from bright_kit.model import BBox


def build_long_tail(vocab, n_images, seed, prefix):
    """Zipf-ish class frequencies: a few head classes dominate."""
    rng = random.Random(seed)
    ids = list(vocab.class_ids())
    weights = [1.0 / (rank + 1) for rank in range(len(ids))]
    images = []
    for i in range(n_images):
        k = rng.randint(1, 3)
        chosen = rng.choices(ids, weights=weights, k=k)
        insts = []
        for cid in chosen:
            x1, y1 = rng.uniform(0, 60), rng.uniform(0, 60)
            h = BBox(x1, y1, x1 + 30, y1 + 30)
            o = BBox(x1 + 10, y1 + 10, x1 + 45, y1 + 45)
            insts.append(HoiInstance(h, o, cid))
        images.append(ImageRecord(f"{prefix}{i:04d}", f"{prefix}{i:04d}.jpg", 120, 120,
                                  tuple(insts)))
    return Dataset(images, vocab)


def main():
    vocab = Vocabulary(
        HoiClass(i, i, 1, f"verb{i:02d}", "object") for i in range(1, 13)
    )
    train = build_long_tail(vocab, 600, seed=1, prefix="tr")
    test = build_long_tail(vocab, 150, seed=2, prefix="te")

    print("=" * 64)
    print("Per-class instance counts (train)")
    print("=" * 64)
    dist = distribution(train)
    ordered = sort_classes(dist, vocab)
    for cid in ordered:
        bar = "#" * (dist.count(cid) // 8)
        print(f"  class {cid:>3}  {dist.count(cid):>5}  {bar}")
    print(f"\n  total {dist.total_instances}, max {dist.max_count}, "
          f"min {dist.min_count}, median {dist.median_count}")
    print(f"  head-to-tail spread: {dist.max_count / max(dist.min_count, 1):.0f}x")

    print()
    print("=" * 64)
    print("Train/test ratio per class (unstable for tail classes)")
    print("=" * 64)
    for row in ratio_report(train, test):
        ratio = "undefined" if row.ratio is None else f"{row.ratio:6.2f}"
        print(f"  class {row.class_id:>3}  train {row.train_count:>5}  "
              f"test {row.test_count:>4}  ratio {ratio}")

    print()
    print("=" * 64)
    print("Top-k selection keeps the classes that can actually be balanced")
    print("=" * 64)
    for k in (4, 8):
        kept = top_k(vocab, ordered, k)
        print(f"  k={k}: {sorted(kept.class_ids())}")


if __name__ == "__main__":
    main()
