import random

import pytest

from bright_kit import (
    Dataset,
    DataError,
    VocabularyMismatchError,
    distribution,
    merge,
    ratio_report,
    sort_classes,
    top_k,
)

from helpers import make_dataset, make_vocab, random_pool


def test_distribution_empty(vocab5):
    dist = distribution(Dataset([], vocab5))
    assert dist.total_instances == 0
    assert dist.max_count == 0
    assert dist.min_count == 0


def test_distribution_hand_count(vocab5):
    # counts {1: 2, 2: 5} over three images
    d = make_dataset([[1, 2, 2], [2, 2], [1, 2]], vocab5)
    dist = distribution(d)
    assert dist.count(1) == 2
    assert dist.count(2) == 5
    assert dist.max_count == 5
    assert dist.min_count == 2  # zero-count classes excluded by default
    assert dist.total_instances == 7


def test_distribution_include_zero(vocab5):
    d = make_dataset([[1]], vocab5)
    assert distribution(d).min_count == 1
    assert distribution(d, include_zero=True).min_count == 0


def test_distribution_medians(vocab5):
    d = make_dataset([[1], [1], [2], [2], [2], [3]], vocab5)
    # positive counts [2, 3, 1] -> sorted [1, 2, 3] -> median 2
    assert distribution(d).median_count == 2.0
    # with zeros [0, 0, 1, 2, 3] -> median 1
    assert distribution(d, include_zero=True).median_count == 1.0


def test_distribution_additive_over_merge(vocab5):
    rng = random.Random(3)
    a = make_dataset([[rng.choice([1, 2, 3, 4, 5])] * rng.randint(1, 3) for _ in range(12)],
                     vocab5, prefix="a")
    b = make_dataset([[rng.choice([1, 2, 3, 4, 5])] * rng.randint(1, 3) for _ in range(9)],
                     vocab5, prefix="b")
    da, db, dm = distribution(a), distribution(b), distribution(merge(a, b))
    for c in vocab5.class_ids():
        assert dm.count(c) == da.count(c) + db.count(c)


def test_sorted_list_is_vocabulary_permutation(vocab5):
    d = make_dataset([[1, 2, 2], [3]], vocab5)
    ordered = sort_classes(distribution(d), vocab5)
    assert sorted(ordered) == sorted(vocab5.class_ids())
    counts = [distribution(d).count(c) for c in ordered]
    assert counts == sorted(counts, reverse=True)


def test_sort_breaks_ties_by_class_id(vocab5):
    d = make_dataset([[2, 1], [1, 2]], vocab5)  # classes 1 and 2 tied at 2
    ordered = sort_classes(distribution(d), vocab5)
    assert ordered[:2] == (1, 2)


def test_top_k_identity(vocab5):
    d = make_dataset([[1], [2], [3], [4], [5]], vocab5)
    ordered = sort_classes(distribution(d), vocab5)
    assert set(top_k(vocab5, ordered, len(vocab5)).class_ids()) == set(vocab5.class_ids())


def test_top_k_tie_break_exhaustive():
    vocab = make_vocab(3)
    # counts {1: 5, 2: 5, 3: 1}; k=2 keeps {1, 2} with the id tie-break
    d = make_dataset([[1] * 5 + [2] * 5 + [3]], vocab)
    ordered = sort_classes(distribution(d), vocab)
    assert set(top_k(vocab, ordered, 2).class_ids()) == {1, 2}


def test_top_k_nesting(vocab5):
    rng = random.Random(5)
    d = random_pool(rng, vocab5, 30)
    ordered = sort_classes(distribution(d), vocab5)
    for k1 in range(1, 6):
        for k2 in range(k1, 6):
            assert (set(top_k(vocab5, ordered, k1).class_ids())
                    <= set(top_k(vocab5, ordered, k2).class_ids()))


def test_top_k_range_errors(vocab5):
    d = make_dataset([[1]], vocab5)
    ordered = sort_classes(distribution(d), vocab5)
    with pytest.raises(DataError):
        top_k(vocab5, ordered, 0)
    with pytest.raises(DataError):
        top_k(vocab5, ordered, 6)


def test_ratio_report_basic(vocab5):
    train = make_dataset([[1] * 4 + [2]] * 10 + [[1] * 10], vocab5, prefix="tr")
    test = make_dataset([[1], [1], [2] * 10] + [[1]] * 8, vocab5, prefix="te")
    rows = {r.class_id: r for r in ratio_report(train, test)}
    assert rows[1].train_count == 50
    assert rows[1].test_count == 10
    assert rows[1].ratio == 5.0
    assert rows[3].test_count == 0
    assert rows[3].ratio is None  # undefined marker
    assert len(rows) == len(vocab5)


def test_ratio_report_matches_recount(vocab5):
    rng = random.Random(9)
    train = random_pool(rng, vocab5, 25)
    test = make_dataset([[1, 2], [4]], vocab5, prefix="te")
    for row in ratio_report(train, test):
        tr = sum(1 for rec in train.images for i in rec.instances if i.class_id == row.class_id)
        te = sum(1 for rec in test.images for i in rec.instances if i.class_id == row.class_id)
        assert (row.train_count, row.test_count) == (tr, te)
        if te:
            assert row.ratio == tr / te


def test_ratio_report_vocabulary_mismatch():
    with pytest.raises(VocabularyMismatchError):
        ratio_report(make_dataset([[1]], make_vocab(3)), make_dataset([[1]], make_vocab(4)))
