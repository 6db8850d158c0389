import json
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from bright_kit import (
    BalanceConfig,
    DataError,
    Dataset,
    HoiInstance,
    ImageRecord,
    ResidualDeficitError,
    balance,
    build_splits,
    fill_deficits,
    load_dataset,
    save_split,
)
from bright_kit import balancer, model
from bright_kit.jsonio import canonical_dumps, read_json
from helpers import fixed_box, make_dataset, make_image, make_vocab, random_pool, recount
from oracles import (
    dataset_to_dict,
    reference_balance,
    reference_balance_v1,
    reference_load_dataset,
)


def _cfg(target, seed=0, epochs=20):
    return BalanceConfig(target_per_class=target, epochs=epochs, seed=seed)


# ---------------------------------------------------------------------------
# balance
# ---------------------------------------------------------------------------


def test_no_cooccurrence_exact_supply():
    # 4 classes, each with exactly L single-instance images: nothing to trim.
    vocab = make_vocab(4)
    L = 3
    lists = [[c] for c in vocab.class_ids() for _ in range(L)]
    pool = make_dataset(lists, vocab)
    res = balance(pool, vocab, _cfg(L))
    assert len(res.balanced) == 4 * L
    assert res.deficits == {}
    assert res.removed_annotations == 0
    assert recount(res.balanced) == {c: L for c in vocab.class_ids()}


def test_deficit_is_forced_arithmetic():
    vocab = make_vocab(2)
    pool = make_dataset([[1], [1], [1], [2] * 12], vocab)
    res = balance(pool, vocab, _cfg(10))
    assert res.deficits[1] == 7
    assert res.balanced.count(1) == 3


def test_cooccurrence_recount_oracle():
    # 5 classes, 40 images, 2-4 instances each; every satisfiable class lands
    # exactly on target, checked by an independent rescan.
    vocab = make_vocab(5)
    rng = random.Random(7)
    pool = random_pool(rng, vocab, 40, max_classes_per_image=4)
    L = 6
    res = balance(pool, vocab, _cfg(L, seed=42))
    counts = recount(res.balanced)
    for c in vocab.class_ids():
        got = counts.get(c, 0)
        if c in res.deficits:
            assert got + res.deficits[c] == L
        else:
            assert got == L
    bal_ids = set(res.balanced.image_ids())
    rem_ids = set(res.remainder.image_ids())
    assert not bal_ids & rem_ids
    assert bal_ids | rem_ids == set(pool.image_ids())


def test_determinism_byte_for_byte():
    vocab = make_vocab(6)
    rng = random.Random(123)
    pool = random_pool(rng, vocab, 60, max_classes_per_image=3)
    a = balance(pool, vocab, _cfg(4, seed=99))
    b = balance(pool, vocab, _cfg(4, seed=99))
    assert dataset_to_dict(a.balanced) == dataset_to_dict(b.balanced)
    assert dataset_to_dict(a.remainder) == dataset_to_dict(b.remainder)
    assert a.deficits == b.deficits
    assert a.removed_annotations == b.removed_annotations


def test_different_seeds_can_differ():
    vocab = make_vocab(6)
    rng = random.Random(5)
    pool = random_pool(rng, vocab, 80, max_classes_per_image=3)
    ids = {
        balance(pool, vocab, _cfg(4, seed=s)).balanced.image_ids() for s in range(6)
    }
    assert len(ids) > 1


def test_monotone_supply():
    # Growing a deficient class's supply never grows its deficit.
    vocab = make_vocab(3)
    L = 8
    rng = random.Random(21)
    for supply in range(0, L + 3):
        lists = [[1] for _ in range(supply)] + [[2, 3] for _ in range(12)]
        pool = make_dataset(lists, vocab, seed=rng.randint(0, 999))
        res = balance(pool, vocab, _cfg(L))
        expected_deficit = max(0, L - supply)
        assert res.deficits.get(1, 0) == expected_deficit


def test_trimming_touches_only_overfull_classes():
    vocab = make_vocab(3)
    # class 1 rides along with class 2 images and overshoots; class 3 scarce
    lists = [[1, 2]] * 10 + [[2]] * 5 + [[3]] * 2
    pool = make_dataset(lists, vocab)
    L = 5
    res = balance(pool, vocab, _cfg(L, seed=3))
    counts = recount(res.balanced)
    assert counts.get(2, 0) == L
    for c in (1, 2, 3):
        if c not in res.deficits:
            assert counts.get(c, 0) == L
    # trimming only ever removes from classes that exceeded the target, so
    # class 3 (scarce, deficit 3) keeps everything it had
    assert counts.get(3, 0) + res.deficits.get(3, 0) == L


def _skewed_pool(rng: random.Random):
    """A pool with Zipf-like class supply, several classes per image and
    repeated instances of one class in an image, balanced over a random
    subset of its classes."""
    vocab = make_vocab(rng.randint(2, 8))
    ids = list(vocab.class_ids())
    weights = [1.0 / (rank + 1) for rank in range(len(ids))]
    lists = []
    for _ in range(rng.randint(1, 60)):
        classes = rng.choices(ids, weights, k=rng.randint(1, 4))
        lists.append([c for c in classes for _ in range(rng.choice((1, 1, 1, 2, 3)))])
    pool = make_dataset(lists, vocab, seed=rng.randint(0, 10**6))
    classes = vocab.subset(rng.sample(ids, rng.randint(1, len(ids))))
    return pool, classes


def _random_cases():
    """The 250 (pool, classes, config) cases of the reference comparisons."""
    rng = random.Random(2024)
    for _ in range(250):
        pool, classes = _skewed_pool(rng)
        yield pool, classes, _cfg(rng.randint(1, 8), seed=rng.randint(0, 10**6),
                                  epochs=rng.randint(1, 5))


def test_balance_matches_reference_on_random_pools():
    # The indexed balancer reproduces the first implementation under the
    # version 2 draw rule, PRNG stream included, on every field of the result.
    trims = deficits = dropped = 0
    for pool, classes, cfg in _random_cases():
        got, want = balance(pool, classes, cfg), reference_balance(pool, classes, cfg)
        dropped += any(inst.class_id not in classes for iid in want.balanced.image_ids()
                       for inst in pool.get_image(iid).instances)
        assert got.balanced == want.balanced
        assert got.balanced.vocabulary_ref == want.balanced.vocabulary_ref
        assert got.remainder == want.remainder
        assert got.deficits == want.deficits
        assert got.removed_annotations == want.removed_annotations
        assert got.trimmed_images == want.trimmed_images
        trims += want.removed_annotations > 0
        deficits += bool(want.deficits)
    # the pools exercise the trim, short supply and selected images carrying
    # other classes' annotations, many times over
    assert trims >= 100 and deficits >= 25 and dropped >= 100


def test_v2_draws_sample_the_v1_selection_distribution():
    # Stream v2 draws the prefix of a uniform permutation that v1 shuffled in
    # full, so over many seeds each image is selected as often as under v1.
    # 3,000 fixed seeds; the largest per-image gap is 0.035, and 0.05 is about
    # four standard errors of a difference of two frequencies near 0.5.
    vocab = make_vocab(5)
    rng = random.Random(35)
    weights = [1.0 / (rank + 1) for rank in range(5)]
    lists = [rng.choices(list(vocab.class_ids()), weights, k=rng.randint(1, 3))
             for _ in range(35)]
    pool = make_dataset(lists, vocab)
    v1, v2, seeds = Counter(), Counter(), 3000
    for seed in range(seeds):
        cfg = _cfg(4, seed=seed, epochs=4)
        v1.update(reference_balance_v1(pool, vocab, cfg).balanced.image_ids())
        v2.update(balance(pool, vocab, cfg).balanced.image_ids())
    assert max(abs(v1[i] - v2[i]) for i in pool.image_ids()) / seeds <= 0.05
    # the pool is not trivial: no image is always left out, some is always taken
    assert min(v2[i] for i in pool.image_ids()) > 0 and max(v2.values()) == seeds


class _CountingRandom(random.Random):
    draws = 0

    def _randbelow(self, n):
        self.draws += 1
        return super()._randbelow(n)


@pytest.mark.parametrize("lists, target, walked", [
    # no co-occurrence: each class takes 3 images, none is evicted
    ([[1]] * 6 + [[2]] * 4, 3, 6),
    # class 2's two ADD picks carry four class-1 instances; REMOVE evicts one
    # of them, and the next ADD picks one of the two left: 3 selected, 1 evicted
    ([[1]] * 10 + [[1, 1, 2]] * 3, 2, 4),
])
def test_walk_draws_once_per_selected_or_evicted_image(monkeypatch, lists, target, walked):
    made: list[_CountingRandom] = []

    def counting_random(seed):
        made.append(_CountingRandom(seed))
        return made[-1]

    monkeypatch.setattr(balancer, "random", SimpleNamespace(Random=counting_random))
    result = balance(make_dataset(lists, make_vocab(2)), make_vocab(2), _cfg(target, epochs=2))
    # the trim's rng.sample draws once per removed annotation from a list this small
    [rng] = made
    assert rng.draws == walked + result.removed_annotations


def test_walk_stops_at_its_fixed_point():
    # Seed 5's first REMOVE evicts an image and the next ADD settles both
    # classes on target; from there no epoch draws, so 2**70 epochs end and
    # give the result of ten, which is the reference walk's.
    vocab = make_vocab(2)
    pool = make_dataset([[1]] * 6 + [[1, 1, 2]] * 2 + [[2]] * 4, vocab)
    want = reference_balance(pool, vocab, _cfg(2, seed=5, epochs=10))
    assert len(balance(pool, vocab, _cfg(2, seed=5, epochs=1)).balanced) == 3  # no REMOVE
    for epochs in (10, 2**70):
        got = balance(pool, vocab, _cfg(2, seed=5, epochs=epochs))
        assert (got.balanced, got.remainder, got.deficits, got.removed_annotations) == (
            want.balanced, want.remainder, want.deficits, want.removed_annotations)
        assert len(got.balanced) == 2


def test_balanced_split_drops_an_image_the_trim_empties():
    # One epoch has no REMOVE: four images are selected and the trim takes the
    # only annotation of one.  That image leaves the split and does not join
    # the remainder, as in the reference walk.
    vocab = make_vocab(2)
    pool = make_dataset([[1]] * 6 + [[1, 1, 2]] * 2 + [[2]] * 4, vocab)
    got = balance(pool, vocab, _cfg(2, seed=5, epochs=1))
    want = reference_balance(pool, vocab, _cfg(2, seed=5, epochs=1))
    assert [len(rec.instances) for rec in got.balanced.images] == [1, 2, 1]
    assert (got.removed_annotations, got.trimmed_images) == (2, 2)
    assert len(got.balanced) + len(got.remainder) == len(pool) - 1
    assert (got.balanced, got.remainder) == (want.balanced, want.remainder)


def test_loader_matches_reference_on_random_pools(tmp_path, monkeypatch):
    # The columnar loader and the row-by-row one read each pool's split file
    # into equal datasets, equal to the pool itself.  Read from the file twice,
    # the second load comes from the load cache, decoding nothing, and is equal too.
    decoded = []
    monkeypatch.setattr(model, "read_json", lambda path, data=None: decoded.append(path)
                        or read_json(path, data))
    path = tmp_path / "pool.json"
    for n, (pool, _, _) in enumerate(_random_cases(), start=1):
        raw = json.loads(canonical_dumps(dataset_to_dict(pool)))
        want = reference_load_dataset("pool.json", pool.vocabulary, raw=raw)
        got = load_dataset("pool.json", pool.vocabulary, raw=raw)
        assert got == want == pool
        assert got.images == pool.images
        save_split(pool, path)
        for _ in range(2):
            got = load_dataset(path, pool.vocabulary)
            assert got == want and got.images == pool.images
            assert got.vocabulary_ref == want.vocabulary_ref
        assert len(decoded) == n


def test_balance_requires_subset_vocab():
    vocab = make_vocab(3)
    other = make_vocab(4)
    pool = make_dataset([[1]], vocab)
    with pytest.raises(Exception):
        balance(pool, other, _cfg(1))


def test_config_validation():
    with pytest.raises(DataError):
        BalanceConfig(target_per_class=0)
    with pytest.raises(DataError):
        BalanceConfig(target_per_class=1, epochs=0)


def test_oversupply_is_trimmed_per_instance():
    vocab = make_vocab(1)
    # single image with 7 instances of class 1, L = 4: image must stay,
    # annotations must go
    img = make_image("a", [1] * 7)
    pool = Dataset([img], vocab)
    res = balance(pool, vocab, _cfg(4))
    assert len(res.balanced) == 1
    assert res.balanced.count(1) == 4
    assert res.removed_annotations == 3
    assert res.trimmed_images == 1


# ---------------------------------------------------------------------------
# build_splits
# ---------------------------------------------------------------------------


def test_build_splits_exact_multiple_no_deficits():
    vocab = make_vocab(3)
    L_test, L_train = 2, 4
    lists = [[c] for c in vocab.class_ids() for _ in range(L_test + L_train)]
    pool = make_dataset(lists, vocab)
    result = build_splits(pool, vocab, _cfg(L_test, seed=1), _cfg(L_train, seed=2))
    assert result.train.deficits == {}
    assert result.test.removed_annotations == 0
    assert result.train.removed_annotations == 0
    assert recount(result.test.balanced) == {c: L_test for c in vocab.class_ids()}
    assert recount(result.train.balanced) == {c: L_train for c in vocab.class_ids()}
    assert not set(result.test.balanced.image_ids()) & set(result.train.balanced.image_ids())


def test_build_splits_trims_annotations_not_images():
    # one class lives only inside images shared with an over-full class;
    # balancing trims annotations but never deletes whole selected images
    vocab = make_vocab(2)
    lists = [[1, 2]] * 8 + [[1]] * 20
    pool = make_dataset(lists, vocab)
    result = build_splits(pool, vocab, _cfg(2, seed=5), _cfg(4, seed=6))
    test_ids_before_after = set(result.test.balanced.image_ids())
    assert test_ids_before_after  # images survived trimming
    for rec in result.test.balanced.images:
        assert rec.image_id in set(pool.image_ids())
    counts = recount(result.test.balanced)
    for c, n in counts.items():
        assert n <= 2
    # classes listed as deficits account for the shortfall exactly
    for c in vocab.class_ids():
        assert counts.get(c, 0) + result.test.deficits.get(c, 0) == 2


def test_build_splits_rejects_synthetic_pool():
    vocab = make_vocab(1)
    img = ImageRecord(
        "g", "g.jpg", 100, 100, (HoiInstance(fixed_box(), fixed_box(1), 1, "generated"),)
    )
    pool = Dataset([img], vocab)
    with pytest.raises(DataError):
        build_splits(pool, vocab, _cfg(1), _cfg(1))


def test_build_splits_restricts_to_selected_classes():
    vocab = make_vocab(4)
    selected = vocab.subset([1, 2])
    lists = [[1, 3], [1, 4], [2, 3], [2, 4], [1], [2], [1], [2]]
    pool = make_dataset(lists, vocab)
    result = build_splits(pool, selected, _cfg(1, seed=0), _cfg(1, seed=1))
    for split in (result.test.balanced, result.train.balanced):
        for rec in split.images:
            for inst in rec.instances:
                assert inst.class_id in (1, 2)
    assert result.out_of_scope_annotations == 4


# ---------------------------------------------------------------------------
# fill_deficits
# ---------------------------------------------------------------------------


def _augmented(vocab, class_lists, prefix="aug", provenance="generated"):
    rng = random.Random(0)
    images = [
        make_image(f"{prefix}{i}", lst, rng, provenance=provenance)
        for i, lst in enumerate(class_lists)
    ]
    return Dataset(images, vocab)


def test_fill_identity_when_no_deficits(vocab5):
    train = make_dataset([[1]], vocab5)
    assert fill_deficits(train, {}, _augmented(vocab5, [[2]])) is train


def test_fill_reaches_target_exactly(vocab5):
    train = make_dataset([[3]] * 3, vocab5)  # class 3 at 3, target was 5
    filled = fill_deficits(train, {3: 2}, _augmented(vocab5, [[3], [3]]))
    assert filled.count(3) == 5
    assert sum(1 for r in filled.images for i in r.instances if i.provenance == "generated") == 2


def test_fill_rejects_surplus(vocab5):
    train = make_dataset([[3]] * 3, vocab5)
    filled = fill_deficits(train, {3: 2}, _augmented(vocab5, [[3, 3], [3], [3]]))
    assert filled.count(3) == 5  # the extra two augmented instances are dropped


def test_fill_insufficient_raises_residual(vocab5):
    train = make_dataset([[3]] * 3, vocab5)
    with pytest.raises(ResidualDeficitError) as exc:
        fill_deficits(train, {3: 4}, _augmented(vocab5, [[3]]))
    assert exc.value.residual == {3: 3}


def test_fill_rejects_real_provenance(vocab5):
    train = make_dataset([[3]], vocab5)
    bad = _augmented(vocab5, [[3]], provenance="real")
    with pytest.raises(DataError):
        fill_deficits(train, {3: 1}, bad)


@pytest.mark.parametrize("ids", [["img0001"], ["aug0", "img0002"]], ids=["kept", "dropped"])
def test_fill_rejects_augmented_ids_already_in_train(vocab5, ids):
    # The last augmented image repeats a train id.  Kept, it would also fail
    # the merge, as a duplicate id; dropped (the need is met before it),
    # nothing else would notice it.
    train = make_dataset([[3]] * 3, vocab5)  # img0000 to img0002
    augmented = Dataset([make_image(i, [3], provenance="generated") for i in ids], vocab5)
    with pytest.raises(DataError, match=f"^augmented image_id '{ids[-1]}' already in train$"):
        fill_deficits(train, {3: 1}, augmented)


def test_fill_rejects_non_deficit_classes(vocab5):
    train = make_dataset([[3]], vocab5)
    with pytest.raises(DataError):
        fill_deficits(train, {3: 1}, _augmented(vocab5, [[3, 4]]))
