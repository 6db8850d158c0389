import json
import math
import random
import re
from pathlib import Path

import numpy as np
import pytest

from bright_kit import (
    AnnotationFormatError,
    BBox,
    DataError,
    Dataset,
    DegenerateBoxError,
    HoiClass,
    HoiInstance,
    ImageRecord,
    MatchConfig,
    Prediction,
    PredictionTable,
    UnknownClassError,
    Vocabulary,
    class_ap,
    evaluate,
    load_predictions,
    perturb_tp_flip,
    ranking_shift,
    summarize_class_aps,
)

from bright_kit import evaluator
from bright_kit.cli import main
from bright_kit.evaluator import _read_row
from bright_kit.jsonio import read_json_lines, write_json_lines

from helpers import pred
from oracles import (
    oracle_ap_from_flags,
    oracle_class_ap,
    oracle_iou,
    oracle_match_flags,
    oracle_matches,
)

FIXTURES = Path(__file__).parent / "fixtures"
CFG = MatchConfig()


def _slot(k: int) -> BBox:
    # non-overlapping 20x20 boxes on a grid, offset so jitter stays positive
    return BBox(50.0 * k + 10.0, 10.0, 50.0 * k + 30.0, 30.0)


def _gt(vocab, per_image: dict[str, list[tuple[int, int]]]) -> Dataset:
    """per_image: image_id -> [(class_id, slot), ...]; boxes live on the slot grid."""
    images = []
    for image_id, items in per_image.items():
        insts = tuple(HoiInstance(_slot(s), _slot(s + 1), c) for c, s in items)
        images.append(ImageRecord(image_id, f"{image_id}.jpg", 10_000, 100, insts))
    return Dataset(images, vocab)


def _hit(image_id: str, class_id: int, slot: int, score: float) -> Prediction:
    return pred(image_id, _slot(slot), _slot(slot + 1), class_id, score)


def _miss(image_id: str, class_id: int, slot: int, score: float) -> Prediction:
    # far-away boxes that cannot match anything on the slot grid
    return pred(image_id, _slot(slot + 100), _slot(slot + 101), class_id, score)


# ---------------------------------------------------------------------------
# class_ap
# ---------------------------------------------------------------------------


def test_single_exact_prediction_ap_one(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    res = class_ap([_hit("a", 1, 0, 0.9)], gt, 1, CFG)
    assert res.ap == 1.0
    assert res.npos == 1
    assert sum(res.labels) == 1


def test_no_predictions_ap_zero(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    res = class_ap([], gt, 1, CFG)
    assert res.ap == 0.0


def test_three_prediction_pr_curve(vocab5):
    # scores .9 TP, .8 FP, .7 TP over 2 GT -> AP = 0.5 + 0.5 * (2/3)
    gt = _gt(vocab5, {"a": [(1, 0), (1, 4)]})
    preds = [
        _hit("a", 1, 0, 0.9),
        _miss("a", 1, 0, 0.8),
        _hit("a", 1, 4, 0.7),
    ]
    res = class_ap(preds, gt, 1, CFG)
    assert res.ap == pytest.approx(0.5 + 0.5 * (2.0 / 3.0))
    assert res.labels == [True, False, True]


def test_zero_gt_is_undefined(vocab5):
    gt = _gt(vocab5, {"a": [(2, 0)]})
    res = class_ap([_hit("a", 1, 0, 0.9)], gt, 1, CFG)
    assert res.ap is None
    assert res.npos == 0


def test_one_gt_matches_at_most_one_prediction(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    preds = [_hit("a", 1, 0, 0.9), _hit("a", 1, 0, 0.8)]
    res = class_ap(preds, gt, 1, CFG)
    assert res.labels == [True, False]


def test_score_ties_keep_input_order(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    first_hit = [_hit("a", 1, 0, 0.5), _miss("a", 1, 0, 0.5)]
    first_miss = [_miss("a", 1, 0, 0.5), _hit("a", 1, 0, 0.5)]
    assert class_ap(first_hit, gt, 1, CFG).labels == [True, False]
    assert class_ap(first_miss, gt, 1, CFG).labels == [False, True]


def test_pair_rule_requires_both_boxes(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    # human box matches, object box far away: not a TP
    p = pred("a", _slot(0), _slot(50), 1, 0.9)
    assert class_ap([p], gt, 1, CFG).labels == [False]


def test_matching_prefers_highest_pair_iou(vocab5):
    truth = [
        ("a", BBox(0, 0, 20, 20), BBox(30, 0, 50, 20)),
        ("a", BBox(2, 0, 22, 20), BBox(32, 0, 52, 20)),
    ]
    p = pred("a", BBox(2, 0, 22, 20), BBox(32, 0, 52, 20), 1, 0.9)
    res = class_ap([p], _truth_dataset(truth, vocab5), 1, CFG)
    assert res.labels == [True]
    assert _claims([p], truth, vocab5) == [1]  # the exactly-overlapping instance


def _random_scenario(rng, n_preds_max=20, n_gt_max=10):
    # predictions and GT share a small slot grid so overlaps actually happen
    image_ids = ["i0", "i1"]
    gts = []
    for _ in range(rng.randint(1, n_gt_max)):
        gts.append((rng.choice(image_ids), rng.randint(0, 4)))
    preds = []
    for _ in range(rng.randint(0, n_preds_max)):
        img = rng.choice(image_ids)
        slot = rng.randint(0, 4)
        jitter = rng.uniform(-8, 8)
        h = BBox(50.0 * slot + 10.0 + jitter, 10.0, 50.0 * slot + 30.0 + jitter, 30.0)
        o = BBox(50.0 * (slot + 1) + 10.0 + jitter, 10.0, 50.0 * (slot + 1) + 30.0 + jitter, 30.0)
        preds.append(Prediction(img, h, o, 1, round(rng.random(), 3)))
    return preds, gts


def _truth_dataset(truth, vocab, others=()) -> Dataset:
    """``truth``: (image_id, human box, object box) of class 1, in dataset order;
    ``others`` the same of class 2, ahead of class 1 in each image."""
    by_image: dict[str, list] = {}
    for class_id, items in ((2, others), (1, truth)):
        for img, h, o in items:
            by_image.setdefault(img, []).append(HoiInstance(h, o, class_id))
    return Dataset(
        [
            ImageRecord(img, f"{img}.jpg", 10_000, 100, tuple(insts))
            for img, insts in by_image.items()
        ],
        vocab,
    )


def _slot_truth(gts):
    return [(img, _slot(s), _slot(s + 1)) for img, s in gts]


def _scenario_to_dataset(gts, vocab):
    return _truth_dataset(_slot_truth(gts), vocab)


def _oracle_args(preds, truth):
    """``preds`` and ``truth`` as the oracles take them, boxes as 4-tuples."""
    def coords(b):
        return (b.x1, b.y1, b.x2, b.y2)

    return (
        [(p.image_id, coords(p.human_box), coords(p.object_box), p.score) for p in preds],
        [(img, coords(h), coords(o)) for img, h, o in truth],
    )


def test_class_ap_equals_brute_force_oracle_randomized(vocab5):
    rng = random.Random(1234)
    for _ in range(200):
        preds, gts = _random_scenario(rng)
        gt = _scenario_to_dataset(gts, vocab5)
        got = class_ap(preds, gt, 1, CFG).ap
        want = oracle_class_ap(*_oracle_args(preds, _slot_truth(gts)), CFG.iou_threshold)
        assert got == want  # exact float equality, not approximate


def _shifted(box: BBox, dx: float) -> BBox:
    return BBox(box.x1 + dx, box.y1, box.x2 + dx, box.y2)


def _box_near(rng, slot: int) -> BBox:
    """A box for slot ``slot``: jittered, exactly one half of the slot box
    (IoU 0.5 with it, the threshold), or far away."""
    kind = rng.randrange(4)
    if kind == 0:
        x = 50.0 * slot + rng.choice((10.0, 20.0))
        return BBox(x, 10.0, x + 10.0, 30.0)
    if kind == 1:
        return _slot(slot + 100)
    return _shifted(_slot(slot), rng.uniform(-8, 8))


def _independent_scenario(rng, n_preds_max=30, n_gt_max=12):
    """:func:`_random_scenario` with each box drawn on its own: a
    prediction's human and object box are jittered independently, so either
    can qualify alone, and a ground-truth box sits on its slot or 4 units to
    the right of it, so one prediction can qualify for several ground truths
    with different pair IoUs.  Returns predictions and truth triples."""
    image_ids = ["i0", "i1"]
    truth = []
    for _ in range(rng.randint(1, n_gt_max)):
        slot = rng.randint(0, 4)
        h, o = (_shifted(_slot(k), rng.choice((0.0, 4.0))) for k in (slot, slot + 1))
        truth.append((rng.choice(image_ids), h, o))
    preds = []
    for _ in range(rng.randint(0, n_preds_max)):
        slot = rng.randint(0, 4)
        h, o = _box_near(rng, slot), _box_near(rng, slot + 1)
        preds.append(Prediction(rng.choice(image_ids), h, o, 1, round(rng.random(), 3)))
    return preds, truth


# 1 << 16 is the chunk used before the default shrank to 1 << 14: one chunk per scenario
@pytest.mark.parametrize("chunk", [1 << 16, evaluator._PAIR_CHUNK, 1, 2, 5])
def test_one_box_qualifying_alone_matches_the_oracle_exactly(vocab5, monkeypatch, chunk):
    rng = random.Random(2468)
    cases = [_independent_scenario(rng) for _ in range(150)]
    monkeypatch.setattr(evaluator, "_PAIR_CHUNK", chunk)
    human_only = object_only = at_threshold = 0
    for preds, truth in cases:
        for p in preds:
            for img, h, o in truth:
                if img == p.image_id:
                    hi, oi = p.human_box.iou(h), p.object_box.iou(o)
                    human_only += hi >= 0.5 > oi
                    object_only += oi >= 0.5 > hi
                    at_threshold += min(hi, oi) == 0.5
        res = class_ap(preds, _truth_dataset(truth, vocab5), 1, CFG)
        p_args, t_args = _oracle_args(preds, truth)
        assert res.labels == oracle_match_flags(p_args, t_args, CFG.iou_threshold)[0]
        assert res.ap == oracle_class_ap(p_args, t_args, CFG.iou_threshold)
    # both one-box cases occur, and pairs qualifying at exactly the threshold
    assert min(human_only, object_only, at_threshold) >= 50


@pytest.mark.parametrize("chunk", [1, 2, 5])
def test_pair_chunking_does_not_change_matches(vocab5, monkeypatch, chunk):
    rng = random.Random(4321)
    cases = [_random_scenario(rng, n_preds_max=30, n_gt_max=12) for _ in range(40)]
    want = [class_ap(p, _scenario_to_dataset(g, vocab5), 1, CFG) for p, g in cases]
    monkeypatch.setattr(evaluator, "_PAIR_CHUNK", chunk)
    got = [class_ap(p, _scenario_to_dataset(g, vocab5), 1, CFG) for p, g in cases]
    assert got == want


def _window_scenario(rng):
    """Ground truths scattered along x in one or two images, and predictions
    on or near them, every x shifted by 0 or 1e12.  A mirror pair puts two
    ground truths at integer offsets +d and -d from a prediction, the right
    one first in the dataset: equal pair IoUs whose x order is not their
    dataset order.  A truth's or prediction's object box is its human box 50
    lower.  Returns predictions and truth triples."""
    offset = rng.choice((0.0, 1e12))

    def boxes(x1, w, y1=5.0):
        return (BBox(offset + x1, y1, offset + x1 + w, y1 + 10.0),
                BBox(offset + x1, y1 + 50.0, offset + x1 + w, y1 + 60.0))

    image_ids = ["i0", "i1"][: rng.randint(1, 2)]
    truth, preds = [], []
    for _ in range(rng.randint(1, 12)):
        img = rng.choice(image_ids)
        if rng.random() < 0.3:
            x, w, d = rng.randint(70, 150), rng.randint(10, 30), rng.randint(1, 5)
            truth += [(img, *boxes(x + d, w)), (img, *boxes(x - d, w))]
            preds.append(Prediction(img, *boxes(x, w), 1, round(rng.random(), 2)))
        else:
            truth.append((img, *boxes(rng.uniform(70, 150), rng.uniform(5, 30), rng.uniform(4, 6))))
    for _ in range(rng.randint(0, 25)):
        # Aligned with a truth on one side, at its height: one box holds the
        # other, and the pair IoU is the bound of the window, width over width.
        img, h, _o = rng.choice(truth)
        w = (h.x2 - h.x1) * rng.choice((1.0, rng.uniform(0.5, 2.0)))
        x1 = rng.choice((h.x1, h.x2 - w, h.x1 + rng.uniform(-10, 10))) - offset
        y1 = h.y1 + rng.choice((0.0, rng.uniform(-1, 1)))
        preds.append(Prediction(img, *boxes(x1, w, y1), 1, round(rng.random(), 2)))
    return preds, truth


def _key_gap_scenario(rng):
    """Class-1 predictions on six images, shuffled, so their (class, image)
    keys come in a random order.  An image holds class-1 ground truths that
    all share one box, or ones that share one tiny box (a prediction on it
    searches its whole key), or class-2 ground truths only, or nothing and is
    absent from the dataset; class-2 ground truths may also precede class 1.
    A prediction takes the shared box or the tiny one.  Returns predictions,
    class-1 truth triples and class-2 ones."""
    box = BBox(100.0, 5.0, 130.0, 15.0), BBox(100.0, 55.0, 130.0, 65.0)
    w = rng.choice((1e-160, 2.63e-162))
    tiny = BBox(0.0, 0.0, w, w), BBox(w, 0.0, 2 * w, w)
    truth, others, preds = [], [], []
    for img in (f"i{k}" for k in range(6)):
        kind = rng.choice(("box", "tiny", "other", "absent"))
        if kind in ("box", "tiny"):
            truth += [(img, *(box if kind == "box" else tiny))] * rng.randint(1, 3)
        if kind == "other" or kind != "absent" and rng.random() < 0.3:
            others.append((img, *box))
        preds += [Prediction(img, *rng.choice((box, tiny)), 1, round(rng.random(), 1))
                  for _ in range(rng.randint(1, 3))]
    rng.shuffle(preds)
    return preds, truth, others


def _claims(preds, truth, vocab, threshold=CFG.iou_threshold, others=()) -> list[int]:
    """Per rank, the index in ``truth`` of the ground truth that
    ``evaluator._match`` lets the prediction of class 1 there claim, or -1;
    ``others`` are class-2 ground truths.  A rank's image comes from the same
    stable sort by descending score."""
    of_image: dict[str, list[int]] = {}
    for j, (img, _h, _o) in enumerate(truth):
        of_image.setdefault(img, []).append(j)
    gt = _truth_dataset(truth, vocab, others)
    _order, claimed = evaluator._match(PredictionTable.of(preds), gt, threshold)
    ranked = sorted(preds, key=lambda p: -p.score)
    return [of_image[p.image_id][g] if g >= 0 else -1 for p, g in zip(ranked, claimed.tolist())]


def test_window_matches_the_oracle_exactly(vocab5):
    # Thresholds 0.5 and the pair IoU of a random pair, exactly and one ulp
    # either side of it; every claim must be the oracle's, ties included.
    rng = random.Random(8642)
    ties = at_threshold = one_truth = far = 0
    for _ in range(300):
        preds, truth = _window_scenario(rng)
        p_args, t_args = _oracle_args(preds, truth)
        rows = [[min(oracle_iou(p[1], t[1]), oracle_iou(p[2], t[2]))
                 for t in t_args if p[0] == t[0]] for p in p_args]
        pair = [v for row in rows for v in row]
        c = rng.choice([v for v in pair if 0 < v < 1] or [0.5])
        threshold = rng.choice((0.5, c, math.nextafter(c, 0), math.nextafter(c, 1)))
        want = oracle_matches(p_args, t_args, threshold)
        assert _claims(preds, truth, vocab5, threshold) == want
        at_threshold += threshold in pair
        ties += sum(any(row.count(v) > 1 for v in row if v >= threshold) for row in rows)
        one_truth += any(sum(t[0] == img for t in t_args) == 1 for img in ("i0", "i1"))
        far += t_args[0][1][0] > 1e11
    assert ties >= 300 and min(at_threshold, one_truth, far) >= 40
    # Keys without class-1 ground truth next, in key order, to keys whose
    # ground truths share a box; tiny predictions; images absent from gt.
    beside = tiny = absent = 0
    for _ in range(300):
        preds, truth, others = _key_gap_scenario(rng)
        threshold = rng.choice((0.3, 0.5, 0.9))
        want = oracle_matches(*_oracle_args(preds, truth), threshold)
        assert _claims(preds, truth, vocab5, threshold, others) == want
        keys = list(dict.fromkeys(p.image_id for p in preds))  # first-seen order
        count = [sum(t[0] == img for t in truth) for img in keys]
        beside += any(0 in (a, b) and max(a, b) > 1 for a, b in zip(count, count[1:]))
        truth_images, gt_images = {t[0] for t in truth}, {t[0] for t in truth + others}
        tiny += any(p.human_box.x2 < 1e-150 and p.image_id in truth_images for p in preds)
        absent += any(p.image_id not in gt_images for p in preds)
    assert min(beside, tiny, absent) >= 100


def test_window_keeps_pairs_on_its_bounds(vocab5):
    # A truth inside a prediction or around it, flush with its right edge and
    # at its height, has a pair IoU of width over width: a window bound.  With
    # the threshold at that IoU or one ulp either side, an image's one truth
    # matches as the oracle says, also when x sits near 1e12.
    rng = random.Random(97531)
    at_bound = 0
    for _ in range(600):
        x1, w, f = rng.choice((120.0, 1e12)) + rng.uniform(0, 100), rng.uniform(1, 50), rng.random()
        h = BBox(x1, 5.0, x1 + w, 15.0)
        g = BBox(h.x2 - (w * f if rng.random() < 0.5 else w / max(f, 0.3)), 5.0, h.x2, 15.0)
        c = h.iou(g)
        threshold = rng.choice((c, math.nextafter(c, 0), math.nextafter(c, 1)))
        if not 0 < threshold < 1:
            continue
        truth, p = [("a", g, g)], Prediction("a", h, h, 1, 0.5)
        want = oracle_matches(*_oracle_args([p], truth), threshold)
        assert _claims([p], truth, vocab5, threshold) == want
        at_bound += want == [0] and threshold == c
    assert at_bound >= 150


def test_window_keeps_pairs_that_rounding_lets_through(vocab5):
    # Areas near 5e-324 round so far that this pair's IoU computes to 1.0
    # though its overlap width, 0.43 of each box's, allows no IoU above 0.27.
    w = 2.63e-162
    human, obj = BBox(0.57 * w, 0.0, 1.57 * w, w), BBox(0.0, 0.0, w, w)
    truth = [("a", human, obj)]
    p = Prediction("a", BBox(0.0, 0.0, w, w), obj, 1, 0.9)
    assert p.human_box.iou(human) == 1.0
    assert class_ap([p], _truth_dataset(truth, vocab5), 1, CFG).labels == [True]


def test_window_skips_pairs_that_cannot_qualify(vocab5, monkeypatch):
    # 200 ground truths side by side in one group, a prediction on each:
    # about three neighbours per prediction fall in its window, not all 200.
    truth = [("a", BBox(10.0 * k, 0.0, 10.0 * k + 20.0, 20.0), _slot(1)) for k in range(200)]
    preds = [Prediction("a", h, o, 1, 0.5) for _, h, o in truth]
    pairs = []
    pair_iou = evaluator._pair_iou
    monkeypatch.setattr(evaluator, "_pair_iou", lambda p, t: pairs.append(p.shape[1])
                        or pair_iou(p, t))
    res = class_ap(preds, _truth_dataset(truth, vocab5), 1, CFG)
    assert res.labels == [True] * 200
    assert sum(pairs) <= 5 * 200


def test_ap_is_rank_only(vocab5):
    # AP is invariant under strictly monotone score transformations
    rng = random.Random(77)
    for _ in range(30):
        preds, gts = _random_scenario(rng)
        if not preds:
            continue
        gt = _scenario_to_dataset(gts, vocab5)
        base = class_ap(preds, gt, 1, CFG).ap
        squeezed = [
            Prediction(p.image_id, p.human_box, p.object_box, p.class_id,
                       0.1 + 0.8 / (1.0 + pow(2.0, -p.score)))
            for p in preds
        ]
        assert class_ap(squeezed, gt, 1, CFG).ap == pytest.approx(base, abs=1e-12)


def test_adding_fp_never_increases_ap(vocab5):
    rng = random.Random(31)
    for _ in range(30):
        preds, gts = _random_scenario(rng)
        gt = _scenario_to_dataset(gts, vocab5)
        base = class_ap(preds, gt, 1, CFG).ap
        with_fp = preds + [_miss("i0", 1, 0, round(rng.random(), 3))]
        assert class_ap(with_fp, gt, 1, CFG).ap <= base + 1e-12


def test_adding_top_score_tp_never_decreases_ap(vocab5):
    rng = random.Random(32)
    for _ in range(30):
        preds, gts = _random_scenario(rng)
        gt = _scenario_to_dataset(gts, vocab5)
        matched = class_ap(preds, gt, 1, CFG)
        taken = set(_claims(preds, _slot_truth(gts), vocab5))
        free = [g for j, g in enumerate(gts) if j not in taken]
        if not free:
            continue
        img, slot = free[0]
        stronger = preds + [_hit(img, 1, slot, 1.0)]
        assert class_ap(stronger, gt, 1, CFG).ap >= matched.ap - 1e-12


def test_eleven_point_variant(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0), (1, 4)]})
    preds = [_hit("a", 1, 0, 0.9), _miss("a", 1, 0, 0.8), _hit("a", 1, 4, 0.7)]
    cfg = MatchConfig(ap_method="eleven_point")
    # recall levels 0..0.5 see precision 1.0 (6 levels), 0.6..1.0 see 2/3 (5 levels)
    assert class_ap(preds, gt, 1, cfg).ap == pytest.approx((6 * 1.0 + 5 * 2 / 3) / 11)


# ---------------------------------------------------------------------------
# evaluate / summarize
# ---------------------------------------------------------------------------


def test_all_perfect_classes(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0), (2, 4)]})
    preds = [_hit("a", 1, 0, 0.9), _hit("a", 2, 4, 0.8)]
    report = evaluate(preds, gt, vocab5.subset([1, 2]), CFG)
    assert report.mean_ap == 1.0
    assert report.variance == 0.0


def test_two_class_toy_aggregates(vocab5):
    # APs {1.0, 0.5} -> mAP 0.75, population variance 0.0625
    gt = _gt(vocab5, {"a": [(1, 0)], "b": [(2, 0), (2, 4)]})
    preds = [_hit("a", 1, 0, 0.9), _hit("b", 2, 0, 0.8)]
    report = evaluate(preds, gt, vocab5.subset([1, 2]), CFG)
    assert report.per_class_ap == {1: 1.0, 2: 0.5}
    assert report.mean_ap == 0.75
    assert report.variance == 0.0625


def test_undefined_classes_flagged_and_excluded(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    report = evaluate([_hit("a", 1, 0, 0.9)], gt, vocab5, CFG)
    assert report.undefined_classes == [2, 3, 4, 5]
    assert report.mean_ap == 1.0
    assert report.num_evaluated == 1


def test_evaluate_rejects_empty_gt(vocab5):
    with pytest.raises(DataError):
        evaluate([], Dataset([], vocab5), vocab5, CFG)


def test_evaluate_rejects_unknown_pred_class(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    bad = [pred("a", _slot(0), _slot(1), 99, 0.5)]
    with pytest.raises(UnknownClassError):
        evaluate(bad, gt, vocab5, CFG)


def test_quartiles_inclusive_interpolation():
    report = summarize_class_aps({1: 0.1, 2: 0.2, 3: 0.3, 4: 0.4})
    q1, q2, q3 = report.quartiles
    assert (q1, q2, q3) == (pytest.approx(0.175), pytest.approx(0.25), pytest.approx(0.325))
    assert report.median == pytest.approx(0.25)


def test_quartiles_equal_numpy_percentile_exactly():
    # Seeded arrays of 1 to 40 values: uniform, with ties, and tiny.
    rng = random.Random(5150)
    pools = [lambda: rng.random(), lambda: rng.choice((0.0, 0.25, 0.5, 1.0)),
             lambda: rng.random() * 1e-300, lambda: rng.choice((5e-324, 1e-310, 0.0))]
    for n in [1, 2, 3, 4, 5] * 40 + [rng.randint(6, 40) for _ in range(800)]:
        draw = rng.choice(pools)
        aps = {c: draw() for c in range(n)}
        got = summarize_class_aps(aps).quartiles
        want = np.percentile(np.array(list(aps.values())), [25.0, 50.0, 75.0]).tolist()
        assert [q.hex() for q in got] == [q.hex() for q in want], aps


def test_outliers_beyond_fences():
    aps = {i: 0.5 for i in range(1, 11)}
    aps[11] = 0.99
    report = summarize_class_aps(aps)
    assert report.outliers == [(11, 0.99)]


def test_mean_matches_vector_mean_ulp():
    rng = random.Random(9)
    aps = {i: rng.random() for i in range(1, 300)}
    report = summarize_class_aps(aps)
    vec = [aps[c] for c in sorted(aps)]
    assert report.mean_ap == sum(vec) / len(vec)


def _neumaier_sum(values, start=0):
    """A compensated ``sum``, as Python 3.12 made the builtin for floats."""
    total, lost = float(start), 0.0
    for v in values:
        t = total + v
        lost += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + lost


def test_mean_ap_bytes_do_not_depend_on_the_builtin_sum(tmp_path, monkeypatch):
    # The golden all-point report's mAP moves by an ulp if the class APs are
    # summed with compensation; a left fold keeps it on any interpreter.
    golden = FIXTURES / "golden"
    monkeypatch.setattr(evaluator, "sum", _neumaier_sum, raising=False)
    argv = ["evaluate", "--ap-method", "all_point", "--gt", golden / "gt.json",
            "--preds", golden / "preds.jsonl", "--vocab", golden / "vocab.json",
            "--out-dir", tmp_path]
    assert main([str(a) for a in argv]) == 0
    want = golden / "expected" / "evaluate_all_point" / "report.json"
    assert (tmp_path / "report.json").read_bytes() == want.read_bytes()


def test_stored_per_class_fixture_mean():
    # fixture ships the aggregate; the mean-of-vector path must reproduce it
    raw = json.loads((FIXTURES / "pvic_per_class_ap.json").read_text())
    per_class = {int(c): v for c, v in raw["per_class_ap"].items()}
    assert len(per_class) == 351
    report = summarize_class_aps(per_class)
    assert report.mean_ap * 100 == pytest.approx(raw["reported_map_percent"], abs=1e-9)


# ---------------------------------------------------------------------------
# ranking_shift
# ---------------------------------------------------------------------------


def test_ranking_shift_reproduces_benchmark_table():
    raw = json.loads((FIXTURES / "detector_maps.json").read_text())
    rows = {r.model: r for r in ranking_shift(raw["a"], raw["b"])}
    for expected in raw["expected"]:
        row = rows[expected["model"]]
        assert row.rank_a == expected["rank_a"]
        assert row.rank_b == expected["rank_b"]
        assert row.delta == expected["delta"]


def test_ranking_shift_identical_reports_all_zero():
    maps = {"m1": 30.0, "m2": 20.0, "m3": 10.0}
    assert all(r.delta == 0 for r in ranking_shift(maps, dict(maps)))


def test_ranking_shift_tie_breaks_by_name():
    rows = ranking_shift({"b": 10.0, "a": 10.0}, {"b": 10.0, "a": 5.0})
    by_model = {r.model: r for r in rows}
    assert by_model["a"].rank_a == 1  # tie on A broken alphabetically
    assert by_model["b"].rank_a == 2
    assert by_model["b"].rank_b == 1


def test_ranking_shift_model_set_mismatch():
    with pytest.raises(DataError):
        ranking_shift({"a": 1.0}, {"b": 1.0})


# ---------------------------------------------------------------------------
# perturb_tp_flip
# ---------------------------------------------------------------------------


def test_flip_single_tp_full_drop(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    result = perturb_tp_flip([_hit("a", 1, 0, 0.9)], gt, 1, CFG)
    assert result.original_ap == 1.0
    assert result.perturbed_ap == 0.0
    assert result.relative_drop == 1.0


def test_flip_targets_highest_confidence_tp(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0), (1, 4)]})
    preds = [_hit("a", 1, 0, 0.9), _hit("a", 1, 4, 0.3)]
    result = perturb_tp_flip(preds, gt, 1, CFG)
    assert result.flipped_score == 0.9
    assert result.flipped_rank == 0


def test_small_test_set_suffers_larger_drop(vocab5):
    # identical score lists; 10 GT vs 2 GT -> the 2-GT class drops harder
    scores = [round(0.95 - 0.05 * i, 2) for i in range(10)]
    gt = _gt(vocab5, {
        "many": [(1, s) for s in range(10)],
        "less": [(2, 0), (2, 4)],
    })
    preds_many = [_hit("many", 1, s, scores[s]) for s in range(10)]
    preds_less = (
        [_hit("less", 2, 0, scores[0]), _hit("less", 2, 4, scores[1])]
        + [_miss("less", 2, s, scores[s]) for s in range(2, 10)]
    )
    base_many = class_ap(preds_many, gt, 1, CFG)
    base_less = class_ap(preds_less, gt, 2, CFG)
    assert base_many.ap == base_less.ap == 1.0  # similar initial AP by construction

    drop_many = perturb_tp_flip(preds_many, gt, 1, CFG).relative_drop
    drop_less = perturb_tp_flip(preds_less, gt, 2, CFG).relative_drop
    assert drop_less > drop_many

    # exact values from the independent oracle
    flags_many = [False] + [True] * 9
    flags_less = [False, True] + [False] * 8
    want_many = 1.0 - oracle_ap_from_flags(flags_many, 10)
    want_less = 1.0 - oracle_ap_from_flags(flags_less, 2)
    assert drop_many == pytest.approx(want_many)
    assert drop_less == pytest.approx(want_less)


def test_lowest_flip_drop_never_exceeds_top_flip(vocab5):
    rng = random.Random(55)
    checked = 0
    while checked < 40:
        preds, gts = _random_scenario(rng)
        gt = _scenario_to_dataset(gts, vocab5)
        res = class_ap(preds, gt, 1, CFG)
        if sum(res.labels) < 2:
            continue
        top = perturb_tp_flip(preds, gt, 1, CFG, flip="top").relative_drop
        low = perturb_tp_flip(preds, gt, 1, CFG, flip="lowest").relative_drop
        assert low <= top + 1e-12
        checked += 1


def test_drop_strictly_positive_whenever_tp_exists(vocab5):
    rng = random.Random(66)
    checked = 0
    while checked < 40:
        preds, gts = _random_scenario(rng)
        gt = _scenario_to_dataset(gts, vocab5)
        res = class_ap(preds, gt, 1, CFG)
        if not any(res.labels):
            continue
        assert perturb_tp_flip(preds, gt, 1, CFG).relative_drop > 0.0
        checked += 1


@pytest.mark.parametrize("flip", ["top", "lowest"])
def test_flip_fields_equal_the_oracle(vocab5, flip):
    # The flipped TP is the oracle's first or last, with that prediction's
    # score, and the perturbed AP is the oracle's with just its flag cleared.
    rng = random.Random(88)
    checked = 0
    while checked < 100:
        preds, gts = _random_scenario(rng)
        flags, npos = oracle_match_flags(*_oracle_args(preds, _slot_truth(gts)), CFG.iou_threshold)
        tps = [r for r, tp in enumerate(flags) if tp]
        if not tps:
            continue
        rank = tps[0] if flip == "top" else tps[-1]
        res = perturb_tp_flip(preds, _scenario_to_dataset(gts, vocab5), 1, CFG, flip=flip)
        assert res.flipped_rank == rank
        assert res.flipped_score == sorted(preds, key=lambda p: -p.score)[rank].score
        flags[rank] = False
        assert res.perturbed_ap == oracle_ap_from_flags(flags, npos)
        checked += 1


def test_flip_without_tp_errors(vocab5):
    gt = _gt(vocab5, {"a": [(1, 0)]})
    with pytest.raises(DataError):
        perturb_tp_flip([_miss("a", 1, 0, 0.9)], gt, 1, CFG)


# ---------------------------------------------------------------------------
# Prediction dump I/O
# ---------------------------------------------------------------------------


def _dump(preds, path) -> None:
    """Write ``preds`` as a JSON-lines prediction dump."""
    write_json_lines(path, ({"image_id": p.image_id, "human_box": p.human_box.as_list(),
                             "object_box": p.object_box.as_list(), "class_id": p.class_id,
                             "score": p.score} for p in preds))


def test_prediction_dump_round_trip(tmp_path, vocab5, monkeypatch):
    # the second load comes from the load cache, decoding nothing
    decoded = []
    monkeypatch.setattr(evaluator, "read_json_lines", lambda path, data=None: decoded.append(path)
                        or read_json_lines(path, data))
    preds = [_hit("a", 1, 0, 0.9), _miss("b", 2, 1, 0.25), _hit("c", 3, 2, 0.5)]
    path = tmp_path / "preds.jsonl"
    _dump(preds, path)
    for _ in range(2):
        table = load_predictions(path, vocab5)
        assert table == preds and table.image_ids == ("a", "b", "c")
        with pytest.raises(ValueError):
            table.boxes[0, 0, 0] = 1.0
    assert len(decoded) == 1


def test_prediction_dump_unencodable_row_leaves_file_as_it_was(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(b"old bytes")
    with pytest.raises(UnicodeEncodeError):
        _dump([_hit("a", 1, 0, 0.9), _hit("b\ud800", 2, 1, 0.5)], path)
    assert path.read_bytes() == b"old bytes"


def test_prediction_load_validates(tmp_path, vocab5):
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({
        "image_id": "a", "human_box": [0, 0, 5, 5], "object_box": [0, 0, 5, 5],
        "class_id": 1, "score": 1.5,
    }) + "\n")
    with pytest.raises(DataError):
        load_predictions(path, vocab5)
    path.write_text(json.dumps({
        "image_id": "a", "human_box": [0, 0, 5, 5], "object_box": [0, 0, 5, 5],
        "class_id": 77, "score": 0.5,
    }) + "\n")
    with pytest.raises(UnknownClassError):
        load_predictions(path, vocab5)
    # -1e999 decodes to -inf: rejected like an annotation box, not clamped to 0
    path.write_text(
        '{"image_id": "a", "human_box": [-1e999, 0, 10, 10], '
        '"object_box": [0, 0, 5, 5], "class_id": 1, "score": 0.5}\n'
    )
    with pytest.raises(DegenerateBoxError):
        load_predictions(path, vocab5)


# ---------------------------------------------------------------------------
# Columnar loading: the same rows, warnings and first error as the scalar rule
# ---------------------------------------------------------------------------


def _row(**fields) -> str:
    """One prediction line; a field given as None is left out."""
    row = {"image_id": "a", "human_box": [0, 0, 5, 5], "object_box": [0, 0, 5, 5],
           "class_id": 1, "score": 0.5}
    row.update(fields)
    return json.dumps({k: v for k, v in row.items() if v is not None})


GOOD = _row()
REJECTIONS = {
    "missing_key": (_row(class_id=None), DataError),
    "non_object_row": ("[1, 2, 3]", DataError),
    "non_numeric_class_id": (_row(class_id="x"), DataError),
    "infinite_class_id": (_row(class_id=float("inf")), DataError),
    "nan_score": (_row(score=float("nan")), DataError),
    "score_above_one": (_row(score=1.5), DataError),
    "unknown_class": (_row(class_id=77), UnknownClassError),
    "degenerate_box": (_row(human_box=[5, 0, 5, 5]), DegenerateBoxError),
    "box_outside_image": (_row(object_box=[-30, -30, -20, -20]), DegenerateBoxError),
}


def _row_by_row(path, vocab):
    """The reference: the scalar rule applied to every row in file order."""
    return [_read_row(row, f"{path}:{line}", vocab) for line, row in read_json_lines(path)]


@pytest.mark.parametrize("kind", list(REJECTIONS))
def test_loader_rejects_like_the_scalar_rule(tmp_path, vocab5, kind):
    text, exc_type = REJECTIONS[kind]
    second = REJECTIONS["degenerate_box" if kind == "unknown_class" else "unknown_class"][0]
    path = tmp_path / "preds.jsonl"
    path.write_text("\n".join([GOOD, "", text, GOOD, second]) + "\n")
    with pytest.raises(DataError) as got:
        load_predictions(path, vocab5)
    with pytest.raises(DataError) as want:
        _row_by_row(path, vocab5)
    assert type(got.value) is type(want.value) is exc_type
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("first,second,exc_type,message", [
    (_row(score=1.5), _row(class_id=77), DataError, "score 1.5 outside [0, 1]"),
    (_row(class_id=77), _row(score=1.5), UnknownClassError, "unknown class_id 77"),
])
def test_loader_reports_the_first_bad_row_by_file_line(
    tmp_path, vocab5, first, second, exc_type, message
):
    path = tmp_path / "preds.jsonl"
    # blank lines count: the first bad row is on line 4
    path.write_text("\n".join([GOOD, "", "  ", first, second]) + "\n")
    with pytest.raises(exc_type, match=f"^{re.escape(f'{path}:4: {message}')}$"):
        load_predictions(path, vocab5)


def test_malformed_json_line_is_reported_before_any_bad_row(tmp_path, vocab5):
    path = tmp_path / "preds.jsonl"
    path.write_text("\n".join([_row(score=1.5), GOOD, "{not json"]) + "\n")
    with pytest.raises(AnnotationFormatError, match=f"^{re.escape(str(path))}:3: malformed"):
        load_predictions(path, vocab5)


_LINE = GOOD.encode()
_DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("data,line,cause,detail", [
    (b"\xef\xbb\xbf" + _LINE + b"\n", 1, json.JSONDecodeError,
     "Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
    (_LINE + b"\n" + _LINE + b" " + _LINE + b"\n", 2, json.JSONDecodeError,
     f"Extra data: line 1 column {len(_LINE) + 2} (char {len(_LINE) + 1})"),
    (_LINE + b"\n\n" + _DEEP + b"\n", 3, RecursionError,
     "maximum recursion depth exceeded while decoding a JSON array from a unicode string"),
    (_LINE + b"\r\n  \r\n{not json\r\n", 3, json.JSONDecodeError,
     "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
    (_LINE + b'\n{"image_id": "\xff"}\n', None, UnicodeDecodeError,
     f"'utf-8' codec can't decode byte 0xff in position {len(_LINE) + 15}: invalid start byte"),
], ids=["bom", "extra_data", "too_deep", "not_json", "not_utf8"])
def test_loader_reports_undecodable_lines_with_the_decoder_message(
    tmp_path, vocab5, data, line, cause, detail
):
    path = tmp_path / "preds.jsonl"
    path.write_bytes(data)
    with pytest.raises(AnnotationFormatError) as got:
        load_predictions(path, vocab5)
    want = f"{path}: not UTF-8 text" if line is None else f"{path}:{line}: malformed JSON line"
    assert str(got.value) == f"{want} ({detail})"
    assert type(got.value.__cause__) is cause


def test_json_lines_take_non_finite_literals_and_count_every_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_bytes(b'[NaN, Infinity, -Infinity]\r\n \t\r\n\r\n{"a": 1}\r\n')
    (n1, row), (n2, obj) = read_json_lines(path)
    assert (n1, n2, obj) == (1, 4, {"a": 1})
    assert math.isnan(row[0]) and row[1:] == [math.inf, -math.inf]


@pytest.mark.parametrize("rows", [
    [{"b": "café 漢字", "a": "line\u2028sep\u2029"}, "\u2028", "é"],
    [{"x": math.nan, "y": [math.inf, -math.inf]}, math.nan, [-0.0, 1e16, 5e-324]],
    [{"z": {"b": [1, {"d": None, "c": True}], "a": {}}, "a": []}, [[{"q": 'q"\\'}]], 7],
    [],
], ids=["non_ascii", "non_finite", "nested", "empty"])
def test_json_lines_are_written_as_json_dumps_writes_each_row(tmp_path, rows):
    path = tmp_path / "rows.jsonl"
    write_json_lines(path, rows)
    want = "".join(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n" for row in rows)
    assert path.read_bytes() == want.encode("utf-8")


def test_loader_logs_clamp_warnings_in_row_order_up_to_the_error(tmp_path, vocab5, caplog):
    path = tmp_path / "preds.jsonl"
    path.write_text("\n".join([
        _row(human_box=[-1, 0, 5, 5]),
        GOOD,
        _row(object_box=[0, -2.5, 5, 5]),
        _row(human_box=[-3, 0, 5, 5], class_id=77),  # warns, then fails its class check
        _row(human_box=[-4, 0, 5, 5]),  # after the error: never read
    ]) + "\n")

    def clamp_messages(load):
        caplog.clear()
        with caplog.at_level("WARNING", logger="bright_kit"), pytest.raises(UnknownClassError):
            load(path, vocab5)
        return [r.getMessage() for r in caplog.records if "clamped" in r.getMessage()]

    got = clamp_messages(load_predictions)
    assert got == clamp_messages(_row_by_row)
    assert [m.split(": box")[0] for m in got] == [f"{path}:1", f"{path}:3", f"{path}:4"]


def test_loader_takes_what_the_scalar_rule_takes(tmp_path, vocab5):
    # values the columns cannot take as they are go through the scalar rule
    path = tmp_path / "preds.jsonl"
    path.write_text("\n".join([
        GOOD,
        _row(class_id="2", score="0.25"),
        _row(class_id=3.0, image_id=7),
        _row(human_box=[True, 0, "5", 5]),
        _row(human_box=[-1, -1, 5, 5], object_box=[-0.0, 0, 5, 5]),
        _row(score=1, class_id=True),
    ]) + "\n")
    got = load_predictions(path, vocab5)
    assert got == _row_by_row(path, vocab5)
    assert [p.image_id for p in got] == ["a", "a", "7", "a", "a", "a"]


def test_class_id_beyond_64_bits_is_a_data_error(tmp_path):
    # a vocabulary may hold any integer id; the class column holds 64 bits
    big = 2**64
    vocab = Vocabulary([HoiClass(big, 1, 1, "verb", "object")])
    path = tmp_path / "preds.jsonl"
    path.write_text(_row(class_id=big) + "\n")
    with pytest.raises(DataError, match=f"^{re.escape(f'{path}:1: class_id {big} out of range')}$"):
        load_predictions(path, vocab)


def test_prediction_table_is_a_read_only_sequence(tmp_path, vocab5):
    preds = [_hit("a", 1, 0, 0.9), _miss("b", 2, 1, 0.25), _hit("a", 3, 2, 0.5)]
    path = tmp_path / "preds.jsonl"
    _dump(preds, path)
    table = load_predictions(path, vocab5)
    assert isinstance(table, PredictionTable)
    assert len(table) == 3
    assert table[1] == preds[1] and table[-1] == preds[-1]
    assert list(table) == preds
    assert table == preds and preds == table
    assert table[1:] == preds[1:]
    assert table != preds[:2]
    assert PredictionTable.of(preds) == table
    with pytest.raises(IndexError):
        table[3]
    with pytest.raises(ValueError):
        table.score[0] = 1.0
