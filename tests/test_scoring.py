"""The two exact rules scoring rests on without numpy: the variance in numpy's
pairwise summation order, and AP from the ranks of the true positives alone."""

import random

import numpy as np
import pytest

from bright_kit.scoring import ap_from_ranks, variance

from oracles import label_vector_ap

# Lengths at numpy's block edges (8 accumulators, 128-value blocks, halves
# rounded to a multiple of 8), then a seeded spread up to 3,000.
_EDGES = [1, 2, 3, 7, 8, 9, 15, 16, 17, 127, 128, 129, 255, 256, 257, 263, 1024, 2999, 3000]


@pytest.mark.parametrize("values", ["uniform", "skewed"])
def test_variance_equals_np_var_bit_for_bit(values):
    rng = random.Random(20261022)
    draw = {"uniform": rng.random,
            "skewed": lambda: rng.random() ** 12 if rng.random() < 0.9 else 1 - rng.random() ** 9}
    lengths = _EDGES + list(range(4, 140)) + [rng.randint(1, 3000) for _ in range(120)]
    for n in lengths:
        v = [draw[values]() for _ in range(n)]
        assert variance(v).hex() == float(np.var(v)).hex(), (values, n)


def _labels(rng: random.Random) -> list[bool]:
    n = rng.choice([0, 1, 2, 3, rng.randint(4, 40), rng.randint(40, 400)])
    density = rng.choice([0.0, 0.05, 0.3, 0.7, 1.0])
    return [rng.random() < density for _ in range(n)]


@pytest.mark.parametrize("method", ["all_point", "eleven_point"])
def test_ap_from_ranks_equals_the_label_vector_definition(method):
    rng = random.Random(4242)
    for _ in range(3000):
        labels = _labels(rng)
        tp = sum(labels)
        npos = max(1, tp + rng.choice([0, 0, 1, 3, rng.randint(4, 500)]))
        ranks = [r for r, hit in enumerate(labels) if hit]
        assert ap_from_ranks(ranks, npos, method).hex() == \
            label_vector_ap(labels, npos, method).hex(), (labels, npos)
