import pytest

from bright_kit import (
    BalanceConfig,
    DataError,
    VocabularyMismatchError,
    build_zeroshot_split,
    enumerate_candidates,
    merge,
)

from helpers import grid_vocab, make_dataset, recount


def _grid_universe():
    # 3 verbs x 3 objects, 6 realized classes
    return grid_vocab([
        (1, "v1", "o1"),
        (2, "v1", "o2"),
        (3, "v2", "o1"),
        (4, "v2", "o2"),
        (5, "v2", "o3"),
        (6, "v3", "o1"),
    ])


def test_candidates_empty_when_seen_is_universe():
    universe = _grid_universe()
    assert enumerate_candidates(universe, universe) == []


def test_candidates_match_exhaustive_enumeration():
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])

    # independent exhaustive oracle over the raw triplets
    seen_triplets = {(c.verb_name, c.object_name) for c in seen}
    seen_verbs = {v for v, _ in seen_triplets}
    seen_objects = {o for _, o in seen_triplets}
    expected = sorted(
        c.class_id
        for c in universe
        if (c.verb_name, c.object_name) not in seen_triplets
        and c.verb_name in seen_verbs
        and c.object_name in seen_objects
    )

    got = [c.class_id for c in enumerate_candidates(seen, universe)]
    assert got == expected == [1, 4]


def test_candidates_require_subset():
    universe = _grid_universe()
    other = grid_vocab([(9, "vx", "ox")])
    with pytest.raises(VocabularyMismatchError):
        enumerate_candidates(other, universe)


def test_candidate_components_always_seen():
    universe = _grid_universe()
    for keep in ([1], [1, 2], [2, 3, 5, 6], [4, 5, 6]):
        seen = universe.subset(keep)
        for cand in enumerate_candidates(seen, universe):
            assert cand.verb_name in seen.verb_names()
            assert cand.object_name in seen.object_names()
            assert cand.class_id not in set(seen.class_ids())


def test_single_candidate_with_exact_supply():
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    pool = make_dataset([[1]] * 10 + [[6]] * 3, universe)
    candidates = [c for c in enumerate_candidates(seen, universe) if c.class_id == 1]
    result = build_zeroshot_split(candidates, pool, BalanceConfig(10, epochs=5, seed=0))
    assert result.selected_class_ids == (1,)
    assert recount(result.dataset) == {1: 10}
    assert len(result.dataset) == 10


def test_undersupplied_candidate_excluded_with_warning(caplog):
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    candidates = enumerate_candidates(seen, universe)  # classes 1 and 4
    pool = make_dataset([[1]] * 10 + [[4]] * 9, universe)
    with caplog.at_level("WARNING", logger="bright_kit"):
        result = build_zeroshot_split(candidates, pool, BalanceConfig(10, epochs=5, seed=0))
    assert result.selected_class_ids == (1,)
    assert result.excluded == {4: 9}
    assert any("excluded" in r.message for r in caplog.records)
    assert recount(result.dataset) == {1: 10}


def test_output_restricted_to_selected_classes():
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    candidates = enumerate_candidates(seen, universe)
    # candidate images co-occur with seen classes; those annotations must not leak
    pool = make_dataset([[1, 2], [1, 3], [1], [1], [1, 6], [1], [1], [1], [1], [1]],
                        universe)
    result = build_zeroshot_split(candidates, pool, BalanceConfig(10, epochs=5, seed=1))
    assert recount(result.dataset) == {1: 10}
    for rec in result.dataset.images:
        for inst in rec.instances:
            assert inst.class_id == 1


def test_budget_keeps_largest_supply_ties_by_id():
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    candidates = enumerate_candidates(seen, universe)  # 1 and 4
    # both satisfiable at L=2: class 1 supply 4, class 4 supply 2 -> budget 1 keeps class 1
    pool = make_dataset([[1]] * 4 + [[4]] * 2, universe)
    result = build_zeroshot_split(candidates, pool, BalanceConfig(2, epochs=5, seed=0), 1)
    assert result.selected_class_ids == (1,)
    assert result.over_budget == (4,)

    # equal supply: tie broken by ascending class_id
    pool = make_dataset([[1]] * 3 + [[4]] * 3, universe)
    result = build_zeroshot_split(candidates, pool, BalanceConfig(2, epochs=5, seed=0), 1)
    assert result.selected_class_ids == (1,)


def test_every_output_class_exactly_at_target():
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    candidates = enumerate_candidates(seen, universe)
    pool = make_dataset(
        [[1]] * 12 + [[4]] * 11 + [[1, 4]] * 2, universe
    )
    result = build_zeroshot_split(candidates, pool, BalanceConfig(10, epochs=20, seed=7))
    assert set(result.selected_class_ids) == {1, 4}
    assert recount(result.dataset) == {1: 10, 4: 10}


def test_no_satisfiable_candidates_returns_empty_with_warning(caplog):
    universe = _grid_universe()
    seen = universe.subset([2, 3, 5, 6])
    candidates = enumerate_candidates(seen, universe)
    pool = make_dataset([[1]] * 2, universe)
    with caplog.at_level("WARNING", logger="bright_kit"):
        result = build_zeroshot_split(candidates, pool, BalanceConfig(10, epochs=5, seed=0))
    assert result.selected_class_ids == ()
    assert len(result.dataset) == 0
    assert result.excluded == {1: 2, 4: 0}


def test_pool_with_a_crawled_image_rejected():
    universe = _grid_universe()
    candidates = enumerate_candidates(universe.subset([2, 3, 5, 6]), universe)
    crawled = make_dataset([[4]], universe, prefix="web", provenance="crawled")
    pool = merge(make_dataset([[1], [4]], universe), crawled)
    with pytest.raises(DataError, match="image web0000: .* found provenance 'crawled'"):
        build_zeroshot_split(candidates, pool, BalanceConfig(1))
