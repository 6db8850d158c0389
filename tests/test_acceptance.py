"""Acceptance criteria, one test per criterion.

Each criterion prints its own PASS/FAIL/SKIPPED line via the terminal-summary
hook in conftest.py.  Criterion 2 needs the public HICO-DET annotations and
is skipped unless BRIGHT_KIT_HICODET_DIR points at them (see README).
"""

import json
import os
import random
import time
from pathlib import Path

import pytest

from bright_kit import (
    BalanceConfig,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    MatchConfig,
    Prediction,
    Vocabulary,
    ZeroShotPlan,
    build_splits,
    build_zeroshot_split,
    class_ap,
    distribution,
    enumerate_candidates,
    fill_deficits,
    load_dataset,
    load_vocabulary,
    merge,
    perturb_tp_flip,
    ranking_shift,
    save_split,
    save_vocabulary,
    sort_classes,
    subtract,
    top_k,
)
from bright_kit.augment import GenerationBudget, generate_valid_images, mock_ports
from bright_kit.cli import main as cli_main
from bright_kit.hicodet import convert_hicodet_json, vocabulary_from_hico_list

from helpers import grid_vocab, make_dataset, make_vocab, rand_box, recount
from oracles import oracle_ap_from_flags, oracle_class_ap

FIXTURES = Path(__file__).parent / "fixtures"


# ---------------------------------------------------------------------------
# Criterion 1: balance exactness over 200 randomized pools, < 10 s
# ---------------------------------------------------------------------------


def test_criterion_1_balance_exactness():
    started = time.monotonic()
    rng = random.Random(20_240_101)
    for trial in range(200):
        n_classes = rng.randint(2, 12)
        n_images = rng.randint(10, 120)
        vocab = make_vocab(n_classes)
        ids = list(vocab.class_ids())
        lists = [
            [rng.choice(ids) for _ in range(rng.randint(1, 4))] for _ in range(n_images)
        ]
        pool = make_dataset(lists, vocab, seed=rng.randint(0, 10**9))
        l_test = rng.randint(1, 4)
        l_train = rng.randint(1, 8)
        result = build_splits(
            pool,
            vocab,
            BalanceConfig(l_test, epochs=20, seed=rng.randint(0, 10**9)),
            BalanceConfig(l_train, epochs=20, seed=rng.randint(0, 10**9)),
        )
        test, train = result.test.balanced, result.train.balanced
        test_counts = recount(test)
        train_counts = recount(train)
        for c in ids:
            got = test_counts.get(c, 0)
            assert got + result.test.deficits.get(c, 0) == l_test, (trial, c)
            got = train_counts.get(c, 0)
            assert got + result.train.deficits.get(c, 0) == l_train, (trial, c)
        assert not set(test.image_ids()) & set(train.image_ids()), trial
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"200 randomized pools took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 2: HICO-DET-scale reproduction (needs the public annotations)
# ---------------------------------------------------------------------------


def _hicodet_dir():
    root = os.environ.get("BRIGHT_KIT_HICODET_DIR")
    if not root:
        return None
    root = Path(root)
    needed = ["trainval_hico.json", "test_hico.json", "hico_list_hoi.txt"]
    if all((root / n).exists() for n in needed):
        return root
    return None


@pytest.mark.skipif(
    _hicodet_dir() is None,
    reason="set BRIGHT_KIT_HICODET_DIR to a directory holding trainval_hico.json, "
    "test_hico.json, and hico_list_hoi.txt",
)
def test_criterion_2_hicodet_scale_reproduction():
    """Full-scale reproduction against the official annotation distribution.

    Input expectations match the complete public files: 38,118 train images
    with 117,871 instances and 9,658 test images with 33,405 instances.
    """
    from bright_kit import bundled_vocabulary

    started = time.monotonic()
    root = _hicodet_dir()
    universe = vocabulary_from_hico_list(root / "hico_list_hoi.txt")
    assert len(universe) == 600
    train = convert_hicodet_json(root / "trainval_hico.json", universe)
    test = convert_hicodet_json(root / "test_hico.json", universe)
    assert (len(train), train.total_instances) == (38118, 117871)
    assert (len(test), test.total_instances) == (9658, 33405)
    train_dist = distribution(train)
    assert (train_dist.max_count, train_dist.min_count) == (4051, 1)

    total = merge(train, test)
    assert (len(total), total.total_instances) == (47776, 151276)

    classes = top_k(universe, sort_classes(distribution(total), universe), 351)
    assert set(classes.class_ids()) == set(bundled_vocabulary().class_ids())
    result = build_splits(
        total,
        classes,
        BalanceConfig(10, epochs=20, seed=0),
        BalanceConfig(50, epochs=20, seed=1),
    )
    test_split = result.test.balanced
    assert test_split.total_instances == 3510
    assert 1579 <= len(test_split) <= 1618

    # deficit filling from a synthesized augmentation file at the reported scale
    aug_images = []
    rng = random.Random(7)
    for c, n in sorted(result.train.deficits.items()):
        for i in range(n):
            aug_images.append(
                ImageRecord(
                    f"aug_{c}_{i}", f"aug_{c}_{i}.jpg", 640, 480,
                    (HoiInstance(rand_box(rng, 400), rand_box(rng, 400), c, "generated"),),
                )
            )
    filled = fill_deficits(result.train.balanced, result.train.deficits,
                           Dataset(aug_images, universe))
    assert filled.total_instances == 17550
    assert 6792 <= len(filled) <= 6935

    # balanced zero-shot split from the leftover real images
    candidates = enumerate_candidates(classes, universe)
    assert len(candidates) >= 107
    used = set(test_split.image_ids()) | set(filled.image_ids())
    remainder = subtract(total, used)
    plan = ZeroShotPlan(
        candidate_classes=tuple(candidates),
        source_pool=remainder,
        class_budget=107,
    )
    zs = build_zeroshot_split(plan, BalanceConfig(10, epochs=20, seed=2))
    assert len(zs.selected_class_ids) == 107
    assert zs.dataset.total_instances == 1070
    assert not set(zs.dataset.image_ids()) & used

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"HICO-DET-scale balancing took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 3: zero-shot split, toy oracle case and the 107x10 construction
# ---------------------------------------------------------------------------


def test_criterion_3_zeroshot_split():
    # Desk-scale toy: 3 verbs x 3 objects, 6 realized classes; candidates match
    # an exhaustive enumeration oracle exactly.
    universe = grid_vocab([
        (1, "v1", "o1"), (2, "v1", "o2"), (3, "v2", "o1"),
        (4, "v2", "o2"), (5, "v2", "o3"), (6, "v3", "o1"),
    ])
    seen = universe.subset([2, 3, 5, 6])
    seen_trips = {(c.verb_name, c.object_name) for c in seen}
    verbs = {v for v, _ in seen_trips}
    objects = {o for _, o in seen_trips}
    oracle = sorted(
        c.class_id for c in universe
        if (c.verb_name, c.object_name) not in seen_trips
        and c.verb_name in verbs and c.object_name in objects
    )
    got = [c.class_id for c in enumerate_candidates(seen, universe)]
    assert got == oracle == [1, 4]

    # Full-shape construction: a synthetic universe with more than 107
    # satisfiable candidates must yield exactly 107 classes x 10 = 1,070.
    # Parity split of a 20x12 grid: even pairs are seen (every verb and every
    # object occurs), the 120 odd pairs are unseen compositions of seen parts.
    n_verbs, n_objects = 20, 12
    pairs = [(v, o) for v in range(1, n_verbs + 1) for o in range(1, n_objects + 1)]
    seen_pairs = [(v, o) for v, o in pairs if (v + o) % 2 == 0]
    candidate_pairs = [(v, o) for v, o in pairs if (v + o) % 2 == 1]
    classes = [
        HoiClass(i + 1, v, o, f"verb{v}", f"object{o}")
        for i, (v, o) in enumerate(seen_pairs + candidate_pairs)
    ]
    big_universe = Vocabulary(classes)
    big_seen = big_universe.subset(range(1, len(seen_pairs) + 1))
    candidates = enumerate_candidates(big_seen, big_universe)
    assert len(candidates) == 120

    lists = []
    for j, cls in enumerate(candidates):
        supply = 12 if j < 110 else 9  # 110 satisfiable, 10 under-supplied
        lists.extend([[cls.class_id]] * supply)
    pool = make_dataset(lists, big_universe)
    plan = ZeroShotPlan(
        candidate_classes=tuple(candidates),
        source_pool=pool,
        class_budget=107,
    )
    result = build_zeroshot_split(plan, BalanceConfig(10, epochs=20, seed=4))

    assert len(result.selected_class_ids) == 107
    assert result.dataset.total_instances == 1070
    counts = recount(result.dataset)
    assert all(counts[c] == 10 for c in result.selected_class_ids)
    seen_ids = set(big_seen.class_ids())
    for cid in result.selected_class_ids:
        cls = big_universe.get(cid)
        assert cid not in seen_ids
        assert cls.verb_name in big_seen.verb_names()
        assert cls.object_name in big_seen.object_names()


# ---------------------------------------------------------------------------
# Criterion 4: AP equals the brute-force oracle on 1,000 random instances, < 5 s
# ---------------------------------------------------------------------------


def test_criterion_4_ap_oracle_equivalence(vocab5):
    started = time.monotonic()
    rng = random.Random(424_242)
    cfg = MatchConfig()
    for trial in range(1000):
        image_ids = ["i0", "i1"]
        gts = [
            (rng.choice(image_ids), rng.randint(0, 4))
            for _ in range(rng.randint(1, 10))
        ]
        preds = []
        for _ in range(rng.randint(0, 20)):
            img = rng.choice(image_ids)
            slot = rng.randint(0, 4)
            jitter = rng.uniform(-8.0, 8.0)
            h = (50.0 * slot + 10.0 + jitter, 10.0, 50.0 * slot + 30.0 + jitter, 30.0)
            o = (50.0 * (slot + 1) + 10.0 + jitter, 10.0,
                 50.0 * (slot + 1) + 30.0 + jitter, 30.0)
            preds.append((img, h, o, round(rng.random(), 3)))

        gt_records: dict[str, list[HoiInstance]] = {}
        for img, slot in gts:
            from bright_kit import BBox
            gt_records.setdefault(img, []).append(
                HoiInstance(
                    BBox(50.0 * slot + 10.0, 10.0, 50.0 * slot + 30.0, 30.0),
                    BBox(50.0 * (slot + 1) + 10.0, 10.0, 50.0 * (slot + 1) + 30.0, 30.0),
                    1,
                )
            )
        gt = Dataset(
            [
                ImageRecord(img, f"{img}.jpg", 10_000, 100, tuple(insts))
                for img, insts in gt_records.items()
            ],
            vocab5,
        )
        from bright_kit import BBox
        pred_objs = [
            Prediction(img, BBox(*h), BBox(*o), 1, score) for img, h, o, score in preds
        ]
        got = class_ap(pred_objs, gt, 1, cfg).ap
        want = oracle_class_ap(
            preds,
            [
                (img, (50.0 * s + 10.0, 10.0, 50.0 * s + 30.0, 30.0),
                 (50.0 * (s + 1) + 10.0, 10.0, 50.0 * (s + 1) + 30.0, 30.0))
                for img, s in gts
            ],
            cfg.iou_threshold,
        )
        assert got == want, f"trial {trial}: {got!r} != {want!r}"  # exact, not approximate
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"1,000 oracle comparisons took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# Criterion 5: TP-flip hurts the small-test-set class more
# ---------------------------------------------------------------------------


def test_criterion_5_tp_flip_sensitivity(vocab5):
    from bright_kit import BBox

    def slot(k):
        return BBox(50.0 * k + 10.0, 10.0, 50.0 * k + 30.0, 30.0)

    scores = [round(0.95 - 0.05 * i, 2) for i in range(10)]
    many = ImageRecord(
        "many", "many.jpg", 10_000, 100,
        tuple(HoiInstance(slot(s), slot(s + 20), 1) for s in range(10)),
    )
    less = ImageRecord(
        "less", "less.jpg", 10_000, 100,
        tuple(HoiInstance(slot(s), slot(s + 20), 2) for s in range(2)),
    )
    gt = Dataset([many, less], vocab5)

    preds_many = [
        Prediction("many", slot(s), slot(s + 20), 1, scores[s]) for s in range(10)
    ]
    preds_less = [
        Prediction("less", slot(s), slot(s + 20), 2, scores[s]) for s in range(2)
    ] + [
        Prediction("less", slot(s + 40), slot(s + 60), 2, scores[s]) for s in range(2, 10)
    ]
    cfg = MatchConfig()
    assert class_ap(preds_many, gt, 1, cfg).ap == 1.0
    assert class_ap(preds_less, gt, 2, cfg).ap == 1.0

    drop_many = perturb_tp_flip(preds_many, gt, 1, cfg).relative_drop
    drop_less = perturb_tp_flip(preds_less, gt, 2, cfg).relative_drop
    assert drop_less > drop_many

    # exact drop values come from the brute-force oracle
    want_many = 1.0 - oracle_ap_from_flags([False] + [True] * 9, 10)
    want_less = 1.0 - oracle_ap_from_flags([False, True] + [False] * 8, 2)
    assert drop_many == want_many
    assert drop_less == want_less


# ---------------------------------------------------------------------------
# Criterion 6: ranking-shift fixture reproduces every rank and delta
# ---------------------------------------------------------------------------


def test_criterion_6_ranking_shift_exact():
    raw = json.loads((FIXTURES / "detector_maps.json").read_text())
    rows = {r.model: r for r in ranking_shift(raw["a"], raw["b"])}
    assert len(rows) == 9
    for expected in raw["expected"]:
        row = rows[expected["model"]]
        assert row.rank_a == expected["rank_a"], expected["model"]
        assert row.rank_b == expected["rank_b"], expected["model"]
        assert row.delta == expected["delta"], expected["model"]


# ---------------------------------------------------------------------------
# Criterion 7: generation loop traces are exact, < 1 s
# ---------------------------------------------------------------------------


def test_criterion_7_pipeline_loop():
    started = time.monotonic()
    vocab = make_vocab(1)
    refs = make_dataset([[1]], vocab)

    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=10, target_valid=2),
        mock_ports(verdicts=[False, True]),
        refs,
        seed=0,
    )
    assert gen.status == "target_reached"
    assert len(gen.valid_images) == 2
    assert len(gen.attempts) == 4
    assert gen.paraphrase_events == 2

    gen = generate_valid_images(
        vocab.get(1),
        GenerationBudget(max_attempts_per_class=5, target_valid=1),
        mock_ports(verdicts=[False]),
        refs,
        seed=0,
    )
    assert gen.status == "budget_exhausted"
    assert gen.generator_calls == 5
    assert len(gen.valid_images) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"loop traces took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# Criterion 8: end-to-end determinism, byte-identical artifacts
# ---------------------------------------------------------------------------


def _run_pipeline(run_dir: Path, shared: Path) -> dict[str, bytes]:
    run_dir.mkdir()

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    bal = run_dir / "bal"
    run("balance", "--pool", shared / "pool.json", "--vocab", shared / "vocab.json",
        "--top-k", "6", "--l-test", "2", "--l-train", "4", "--epochs", "10",
        "--seed", "21", "--out-dir", bal)

    run("augment", "--deficits", bal / "deficits.json", "--refs", shared / "pool.json",
        "--vocab", shared / "vocab.json", "--budget", "20", "--target", "per-deficit",
        "--ports", "mock", "--seed", "21", "--out-dir", run_dir / "aug")

    run("balance", "--pool", shared / "pool.json", "--vocab", shared / "vocab.json",
        "--top-k", "6", "--l-test", "2", "--l-train", "4", "--epochs", "10",
        "--seed", "21", "--augmented", run_dir / "aug" / "augmented.json",
        "--out-dir", run_dir / "bal_filled")

    # remainder pool for the zero-shot pass: real images unused by train/test
    vocab = load_vocabulary(shared / "universe.json")
    pool = load_dataset(shared / "zs_pool.json", vocab)
    test = load_dataset(run_dir / "bal_filled" / "test.json", load_vocabulary(shared / "vocab.json"))
    train = load_dataset(run_dir / "bal_filled" / "train.json", load_vocabulary(shared / "vocab.json"))
    remainder = subtract(pool, set(test.image_ids()) | set(train.image_ids()))
    save_split(remainder, run_dir / "remainder.json")
    run("zeroshot", "--seen", shared / "vocab.json", "--universe", shared / "universe.json",
        "--pool", run_dir / "remainder.json", "--per-class", "2", "--classes", "2",
        "--epochs", "10", "--seed", "21", "--out-dir", run_dir / "zs")

    # deterministic synthetic predictions over this run's test split
    rng = random.Random(97)
    rows = []
    for rec in test.images:
        for inst in rec.instances:
            rows.append({
                "image_id": rec.image_id,
                "human_box": inst.human_box.as_list(),
                "object_box": inst.object_box.as_list(),
                "class_id": inst.class_id,
                "score": round(rng.random(), 4),
            })
    preds_path = run_dir / "preds.jsonl"
    preds_path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    run("evaluate", "--gt", run_dir / "bal_filled" / "test.json", "--preds", preds_path,
        "--vocab", shared / "vocab.json", "--out-dir", run_dir / "eval")

    probe_class = min(int(c) for c in json.loads(
        (run_dir / "eval" / "report.json").read_text())["per_class_ap"])
    run("perturb", "--class", str(probe_class), "--gt", run_dir / "bal_filled" / "test.json",
        "--preds", preds_path, "--vocab", shared / "vocab.json",
        "--out-dir", run_dir / "pert")

    for side in ("ra", "rb"):
        (run_dir / side).mkdir()
    (run_dir / "ra" / "model.json").write_text(json.dumps({"mean_ap": 30.0}))
    report = json.loads((run_dir / "eval" / "report.json").read_text())
    (run_dir / "rb" / "model.json").write_text(json.dumps({"mean_ap": report["mean_ap"]}))
    run("compare", "--a", run_dir / "ra", "--b", run_dir / "rb", "--out-dir", run_dir / "cmp")

    artifacts = {}
    for path in sorted(run_dir.rglob("*")):
        if path.is_file():
            artifacts[str(path.relative_to(run_dir))] = path.read_bytes()
    return artifacts


def test_criterion_8_end_to_end_determinism(tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    # universe of 8 classes on a shared verb/object grid; the first 6 are "seen"
    universe = grid_vocab([
        (1, "v1", "o1"), (2, "v2", "o1"), (3, "v3", "o1"), (4, "v1", "o2"),
        (5, "v2", "o2"), (6, "v3", "o2"), (7, "v1", "o3"), (8, "v2", "o3"),
    ])
    seen = universe.subset([1, 2, 3, 4, 5, 8])  # leaves 6 and 7 as candidates
    save_vocabulary(universe, shared / "universe.json")
    save_vocabulary(seen, shared / "vocab.json")

    rng = random.Random(1312)
    ids = list(seen.class_ids())
    lists = [[rng.choice(ids) for _ in range(rng.randint(1, 3))] for _ in range(90)]
    # class 3 gets starved so the augment stage has real work
    lists = [[c for c in lst if c != 3] or [1] for lst in lists][:84] + [[3]] * 2
    pool = make_dataset(lists, seen)
    save_split(pool, shared / "pool.json")

    zs_lists = [[6], [7], [6], [7], [6, 7]] * 2
    zs_pool = make_dataset(zs_lists, universe, prefix="zs")
    save_split(zs_pool, shared / "zs_pool.json")

    first = _run_pipeline(tmp_path / "run1", shared)
    second = _run_pipeline(tmp_path / "run2", shared)
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact differs between runs: {name}"
