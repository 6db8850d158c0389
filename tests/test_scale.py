"""Mid-scale regression guard: the full-benchmark shape must stay fast.

A synthetic 600-class, ~20k-image long-tail pool mirrors the structure of the
full-scale reproduction without its data; this pins the balancing path's
complexity so accidental quadratic regressions surface in CI.
"""

import random
import time

from bright_kit import (
    BalanceConfig,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    build_splits,
    distribution,
    fill_deficits,
    sort_classes,
    top_k,
)
from bright_kit.model import BBox

from helpers import recount


def _long_tail_pool(n_classes=600, n_images=20_000, seed=0):
    rng = random.Random(seed)
    pairs = set()
    while len(pairs) < n_classes:
        pairs.add((rng.randint(1, 117), rng.randint(1, 80)))
    vocab = Vocabulary(
        HoiClass(i + 1, v, o, f"v{v}", f"o{o}") for i, (v, o) in enumerate(sorted(pairs))
    )
    ids = list(vocab.class_ids())
    weights = [1.0 / (rank + 1) ** 0.85 for rank in range(n_classes)]
    box = BBox(1.0, 1.0, 50.0, 50.0)
    images = []
    for i in range(n_images):
        k = rng.choices([1, 2, 3, 4], weights=[45, 30, 15, 10])[0]
        insts = tuple(
            HoiInstance(box, box, c) for c in rng.choices(ids, weights=weights, k=k)
        )
        images.append(ImageRecord(f"img{i:06d}", f"img{i:06d}.jpg", 640, 480, insts))
    return Dataset(images, vocab), vocab


def test_full_benchmark_shape_stays_fast():
    pool, vocab = _long_tail_pool()
    started = time.monotonic()
    classes = top_k(vocab, sort_classes(distribution(pool), vocab), 351)
    result = build_splits(
        pool, classes,
        BalanceConfig(10, epochs=20, seed=0),
        BalanceConfig(50, epochs=20, seed=1),
    )
    aug = [
        ImageRecord(f"aug_{c}_{i}", "a.jpg", 100, 100,
                    (HoiInstance(BBox(1, 1, 50, 50), BBox(5, 5, 60, 60), c, "generated"),))
        for c, n in sorted(result.train.deficits.items())
        for i in range(n)
    ]
    filled = fill_deficits(result.train.balanced, result.train.deficits, Dataset(aug, vocab))
    elapsed = time.monotonic() - started

    selected = set(classes.class_ids())
    test_counts = recount(result.test.balanced)
    for c in selected:
        assert test_counts.get(c, 0) + result.test.deficits.get(c, 0) == 10
    assert filled.total_instances == 351 * 50
    assert not set(result.test.balanced.image_ids()) & set(filled.image_ids())
    assert elapsed < 30.0, f"mid-scale balancing took {elapsed:.1f}s"
