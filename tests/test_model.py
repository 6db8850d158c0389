import copy
import gc
import json
import random
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import pytest

from bright_kit import (
    BBox,
    Dataset,
    DegenerateBoxError,
    DuplicateImageError,
    HoiClass,
    HoiInstance,
    ImageRecord,
    UnknownClassError,
    Vocabulary,
    VocabularyMismatchError,
    bundled_vocabulary,
    load_dataset,
    load_vocabulary,
    merge,
    restrict,
    save_split,
    save_vocabulary,
    subtract,
)
from bright_kit import model
from bright_kit.errors import AnnotationFormatError
from bright_kit.jsonio import paused_gc, read_json

from helpers import fixed_box, make_dataset, make_image, make_vocab, random_pool, recount
from oracles import reference_load_dataset


# ---------------------------------------------------------------------------
# BBox
# ---------------------------------------------------------------------------


def test_bbox_rejects_degenerate():
    with pytest.raises(DegenerateBoxError):
        BBox(10, 10, 10, 20)
    with pytest.raises(DegenerateBoxError):
        BBox(10, 10, 20, 5)
    with pytest.raises(DegenerateBoxError):
        BBox(-1, 0, 5, 5)
    with pytest.raises(DegenerateBoxError):
        BBox(0, 0, float("nan"), 5)
    # An int beyond the float range: not a finite float, though it is below inf.
    for huge in ((0, 0, 10**400, 5), (0, 0, 5, 10**400), (10**400, 0, 10**401, 5)):
        with pytest.raises(DegenerateBoxError):
            BBox(*huge)
    assert BBox(0, 0, 2**1023, 5).x2 == 2**1023  # the largest power of two a float holds


def test_bbox_iou():
    a = BBox(0, 0, 10, 10)
    assert a.iou(a) == 1.0
    assert a.iou(BBox(20, 20, 30, 30)) == 0.0
    half = BBox(0, 0, 5, 10)
    assert a.iou(half) == pytest.approx(0.5)


@pytest.mark.parametrize("other", [BBox(20, 0, 30, 10), BBox(0, 20, 10, 30)], ids=["x", "y"])
def test_bbox_iou_of_boxes_disjoint_along_one_axis_is_zero(other):
    # The two boxes overlap along the other axis, so an intersection computed
    # without the early return would be negative.
    a = BBox(0, 0, 10, 10)
    assert a.iou(other) == 0.0
    assert other.iou(a) == 0.0


@pytest.mark.parametrize("size", [(0, 480), (640, 0), (-1, 480)])
def test_image_record_rejects_one_non_positive_side(size):
    with pytest.raises(AnnotationFormatError, match="non-positive size"):
        ImageRecord("a", "a.jpg", *size)


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


def test_vocabulary_rejects_duplicates():
    c1 = HoiClass(1, 1, 1, "ride", "horse")
    with pytest.raises(AnnotationFormatError):
        Vocabulary([c1, HoiClass(1, 2, 1, "walk", "horse")])
    with pytest.raises(AnnotationFormatError):
        Vocabulary([c1, HoiClass(2, 1, 1, "ride", "horse")])


def test_vocabulary_rejects_empty_names():
    with pytest.raises(AnnotationFormatError):
        HoiClass(1, 1, 1, "", "horse")


def test_vocabulary_subset_and_names(vocab5):
    sub = vocab5.subset([1, 3])
    assert sub.class_ids() == (1, 3)
    assert sub.is_subset_of(vocab5)
    assert not vocab5.is_subset_of(sub)
    with pytest.raises(UnknownClassError):
        vocab5.subset([99])


def test_bundled_vocabulary_consistency():
    vocab = bundled_vocabulary()
    assert len(vocab) == 351
    assert len(vocab.verb_names()) == 87
    assert len(vocab.object_names()) == 78
    assert len({c.class_id for c in vocab}) == 351


def test_vocabulary_round_trip(tmp_path, vocab5):
    path = tmp_path / "vocab.json"
    save_vocabulary(vocab5, path)
    assert load_vocabulary(path) == vocab5


# ---------------------------------------------------------------------------
# Dataset construction and the count index
# ---------------------------------------------------------------------------


def test_empty_dataset(vocab5):
    d = Dataset([], vocab5)
    assert len(d) == 0
    assert d.total_instances == 0
    assert all(v == 0 for v in d.class_counts().values())


def test_count_index_matches_hand_count(vocab5):
    # 2-image fixture with 3 instances of one class.
    d = make_dataset([[2, 2], [2, 1]], vocab5)
    assert d.count(2) == 3
    assert d.count(1) == 1
    assert d.count(5) == 0


def test_count_index_matches_full_rescan(vocab5):
    rng = random.Random(11)
    for _ in range(20):
        d = random_pool(rng, vocab5, n_images=rng.randint(1, 30))
        assert d.class_counts() == {**{c: 0 for c in vocab5.class_ids()}, **recount(d)}


def test_duplicate_image_id_rejected(vocab5):
    img = make_image("a", [1])
    with pytest.raises(DuplicateImageError, match="^duplicate image_id 'a'$"):
        Dataset([img, make_image("b", [2]), make_image("a", [2])], vocab5)


def test_records_report_an_unknown_class_before_a_repeated_id(vocab5):
    # Ids are checked once the columns are built, as in a file load.
    with pytest.raises(UnknownClassError, match="image b: unknown class_id 99"):
        Dataset([make_image("a", [1]), make_image("a", [2]), make_image("b", [99])], vocab5)


def test_unknown_class_rejected(vocab5):
    with pytest.raises(UnknownClassError):
        Dataset([make_image("a", [99])], vocab5)


def test_images_with_class(vocab5):
    d = make_dataset([[1], [2, 1], [3]], vocab5)
    assert d.images_with_class(1) == ("img0000", "img0001")
    assert d.images_with_class(5) == ()


# ---------------------------------------------------------------------------
# File I/O
# ---------------------------------------------------------------------------


def _write(path, payload):
    path.write_text(json.dumps(payload))


def test_load_empty_images(tmp_path, vocab5):
    path = tmp_path / "d.json"
    _write(path, {"vocabulary_ref": "v", "images": []})
    d = load_dataset(path, vocab5)
    assert len(d) == 0
    assert d.vocabulary_ref == "v"


def test_round_trip_structural_equality(tmp_path, vocab5):
    d = make_dataset([[1, 2], [3]], vocab5)
    path = tmp_path / "d.json"
    save_split(d, path)
    assert load_dataset(path, vocab5) == d


def test_round_trip_empty(tmp_path, vocab5):
    d = Dataset([], vocab5)
    path = tmp_path / "d.json"
    save_split(d, path)
    assert load_dataset(path, vocab5) == d


def test_round_trip_preserves_provenance(tmp_path, vocab5):
    img = ImageRecord(
        "g1", "g1.jpg", 100, 100,
        (HoiInstance(fixed_box(), fixed_box(5), 1, "generated"),
         HoiInstance(fixed_box(1), fixed_box(2), 2, "crawled")),
    )
    d = Dataset([img], vocab5)
    path = tmp_path / "d.json"
    save_split(d, path)
    loaded = load_dataset(path, vocab5)
    assert loaded == d
    assert [i.provenance for i in loaded.images[0].instances] == ["generated", "crawled"]


def test_save_is_deterministic(tmp_path, vocab5):
    d = make_dataset([[1, 2], [3]], vocab5)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_split(d, p1)
    save_split(d, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_load_rejects_malformed(tmp_path, vocab5):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(AnnotationFormatError):
        load_dataset(path, vocab5)
    _write(path, {"no_images": True})
    with pytest.raises(AnnotationFormatError):
        load_dataset(path, vocab5)
    _write(path, {"images": [{"image_id": "a"}]})
    with pytest.raises(AnnotationFormatError):
        load_dataset(path, vocab5)


@pytest.mark.parametrize("load", [read_json, lambda path: load_dataset(path, make_vocab(1))],
                         ids=["read_json", "load_dataset"])
@pytest.mark.parametrize("malformed", [False, True])
@pytest.mark.parametrize("enabled", [True, False])
def test_loaders_leave_the_collector_as_they_found_it(tmp_path, load, malformed, enabled):
    # both pause the cyclic collector while they decode and build
    path = tmp_path / "f.json"
    path.write_text("{not json" if malformed else '{"images": []}')
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if malformed:
            with pytest.raises(AnnotationFormatError):
                load(path)
        else:
            load(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_load_dataset_decodes_and_builds_with_the_collector_paused(tmp_path, monkeypatch, vocab5):
    states = []
    decode, header = json.load, model.annotation_header

    def recording_decode(f):
        states.append(("decode", gc.isenabled()))
        return decode(f)

    def recording_header(raw, path):
        states.append(("build", gc.isenabled()))
        return header(raw, path)

    monkeypatch.setattr(json, "load", recording_decode)
    monkeypatch.setattr(model, "annotation_header", recording_header)
    save_split(make_dataset([[1]], vocab5), tmp_path / "d.json")
    assert gc.isenabled()
    assert len(load_dataset(tmp_path / "d.json", vocab5)) == 1
    assert states == [("decode", False), ("build", False)] and gc.isenabled()


def test_overlapping_pauses_in_two_threads_leave_the_collector_on(monkeypatch):
    # Thread b starts a pause while thread a is inside one.  Were pauses free
    # to overlap, b would read the collector off, a would re-enable it on
    # leaving, and b would then disable it for good.  Events force that order
    # wherever it is possible; the 0.5 s wait runs out only when it is not.
    disable = gc.disable
    a_inside, b_disabling, a_left = threading.Event(), threading.Event(), threading.Event()

    def hooked_disable():
        if threading.current_thread() is b:
            b_disabling.set()
            a_left.wait(5)
        disable()

    def pause_a():
        with paused_gc():
            a_inside.set()
            b_disabling.wait(0.5)
        a_left.set()

    def pause_b():
        a_inside.wait(5)
        with paused_gc():
            pass

    monkeypatch.setattr(gc, "disable", hooked_disable)
    a, b = threading.Thread(target=pause_a), threading.Thread(target=pause_b)
    was = gc.isenabled()
    gc.enable()
    try:
        b.start()
        a.start()
        a.join()
        b.join()
        assert b_disabling.is_set() and gc.isenabled()
    finally:
        (gc.enable if was else disable)()


def test_load_rejects_unknown_class(tmp_path, vocab5):
    path = tmp_path / "d.json"
    _write(path, {"images": [{
        "image_id": "a", "file_name": "a.jpg", "width": 10, "height": 10,
        "instances": [{"human_box": [0, 0, 5, 5], "object_box": [1, 1, 6, 6],
                       "class_id": 42, "provenance": "real"}],
    }]})
    with pytest.raises(UnknownClassError):
        load_dataset(path, vocab5)


def test_load_rejects_degenerate_box(tmp_path, vocab5):
    path = tmp_path / "d.json"
    _write(path, {"images": [{
        "image_id": "a", "file_name": "a.jpg", "width": 10, "height": 10,
        "instances": [{"human_box": [5, 0, 5, 5], "object_box": [1, 1, 6, 6],
                       "class_id": 1}],
    }]})
    with pytest.raises(DegenerateBoxError):
        load_dataset(path, vocab5)


def test_load_clamps_out_of_bounds_boxes(tmp_path, vocab5, caplog):
    path = tmp_path / "d.json"
    _write(path, {"images": [{
        "image_id": "a", "file_name": "a.jpg", "width": 10, "height": 10,
        "instances": [{"human_box": [-1, 0, 5, 11], "object_box": [1, 1, 6, 6],
                       "class_id": 1}],
    }]})
    with caplog.at_level("WARNING", logger="bright_kit"):
        d = load_dataset(path, vocab5)
    box = d.images[0].instances[0].human_box
    assert (box.x1, box.y1, box.x2, box.y2) == (0.0, 0.0, 5.0, 10.0)
    assert any("clamped" in r.message for r in caplog.records)


def test_load_rejects_box_fully_outside(tmp_path, vocab5):
    path = tmp_path / "d.json"
    _write(path, {"images": [{
        "image_id": "a", "file_name": "a.jpg", "width": 10, "height": 10,
        "instances": [{"human_box": [20, 20, 30, 30], "object_box": [1, 1, 6, 6],
                       "class_id": 1}],
    }]})
    with pytest.raises(DegenerateBoxError):
        load_dataset(path, vocab5)


def test_load_ignores_meta_block(tmp_path, vocab5):
    d = make_dataset([[1]], vocab5)
    path = tmp_path / "d.json"
    save_split(d, path, meta={"toolkit_version": "0.1.0", "seed": 1, "config_hash": "x"})
    assert load_dataset(path, vocab5) == d


# Loader parity: every row the columns cannot take as it is goes through the
# row-by-row rule, so the outcome is that of the first loader.

NAN, INF = float("nan"), float("inf")
WIDE = 2**70  # beyond 64 bits
ROW = {"class_id": 1, "human_box": [0, 0, 5, 5], "object_box": [1, 1, 6, 6], "provenance": "real"}


def _row(**fields):
    return {**ROW, **fields}


# case -> (rows of the image under test, its other fields, whether it loads)
LOADER_CASES = {
    "missing_key": ([{k: v for k, v in ROW.items() if k != "human_box"}], {}, False),
    "non_object_instance": ([[1, [0, 0, 5, 5], [1, 1, 6, 6]]], {}, False),
    "string_class_id": ([_row(class_id="2")], {}, True),
    "float_class_id": ([_row(class_id=2.0), _row(class_id=1.0)], {}, True),
    "fractional_class_id": ([_row(class_id=2.0), _row(class_id=1.7)], {}, False),
    "non_numeric_class_id": ([_row(class_id="one")], {}, False),
    "infinite_class_id": ([_row(class_id=1e999)], {}, False),
    "unknown_class_id": ([_row(class_id=7)], {}, False),
    "nan_coordinate": ([_row(object_box=[1, NAN, 6, 6])], {}, False),
    "pos_inf_coordinate": ([_row(human_box=[0, 0, INF, 5])], {}, False),
    "neg_inf_coordinate": ([_row(human_box=[-INF, 0, 5, 5])], {}, False),
    "string_coordinate": ([_row(human_box=[0, "1", 5, 5])], {}, True),
    "non_numeric_coordinate": ([_row(human_box=[0, "one", 5, 5])], {}, False),
    "three_values": ([_row(object_box=[1, 1, 6])], {}, False),
    "box_as_object": ([_row(object_box={"1": 0, "2": 0, "5": 0, "6": 0})], {}, False),
    "boolean_coordinate": ([_row(human_box=[False, True, 5, 5])], {}, True),
    "degenerate_box": ([_row(human_box=[5, 0, 5, 5])], {}, False),
    "box_outside_image": ([_row(object_box=[20, 20, 30, 30])], {}, False),
    "negative_coordinate": ([_row(human_box=[-1, 0, 5, 5]), _row(object_box=[1, 1, 12, 6])],
                            {}, True),
    "instances_not_array": ([], {"instances": {"0": ROW}}, False),
    "missing_width": ([ROW], {"width": None}, False),
    "width_zero": ([ROW], {"width": 0}, False),
    "width_zero_no_instances": ([], {"width": 0}, False),
    "synthetic_provenance": ([_row(provenance="synthetic")], {}, False),
    "width_beyond_64_bits": ([_row(human_box=[0, 0, 2**65, 5])], {"width": WIDE}, True),
    "class_id_beyond_64_bits": ([_row(class_id=WIDE)], {}, True),
}


def _document(rows, fields, second_bad_row=True):
    image = {"image_id": "b", "file_name": "b.jpg", "width": 10, "height": 10,
             "instances": rows, **fields}
    if image["width"] is None:
        del image["width"]
    images = [{"image_id": "a", "file_name": "a.jpg", "width": 10, "height": 10,
               "instances": [ROW]}, image]
    if second_bad_row:  # an unknown class after the row under test
        images.append({"image_id": "c", "file_name": "c.jpg", "width": 10, "height": 10,
                       "instances": [ROW, _row(class_id=99)]})
    return {"vocabulary_ref": "v.json", "images": images}


def _outcome(load, document, caplog):
    vocab = Vocabulary([*make_vocab(2), HoiClass(WIDE, 9, 9, "wide", "class")])
    caplog.clear()
    with caplog.at_level("WARNING", logger="bright_kit"):
        try:
            result = load("d.json", vocab, raw=copy.deepcopy(document))
        except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
            result = (type(exc), str(exc))
    return result, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("case", sorted(LOADER_CASES))
def test_loader_matches_row_by_row_reference(case, caplog):
    rows, fields, loads = LOADER_CASES[case]
    document = _document(rows, fields)
    got, want = _outcome(load_dataset, document, caplog), _outcome(reference_load_dataset,
                                                                   document, caplog)
    assert isinstance(want[0], tuple)  # the second bad row, if nothing before it
    assert got == want
    if loads:
        document = _document(rows, fields, second_bad_row=False)
        got, want = _outcome(load_dataset, document, caplog), _outcome(reference_load_dataset,
                                                                       document, caplog)
        assert isinstance(want[0], Dataset) and got == want


def test_loader_reads_null_vocabulary_ref_as_empty(vocab5):
    assert load_dataset("d.json", vocab5, raw={"vocabulary_ref": None, "images": []}) \
        .vocabulary_ref == ""
    for ref in (5, ["v.json"]):
        with pytest.raises(AnnotationFormatError, match="vocabulary_ref must be a string"):
            load_dataset("d.json", vocab5, raw={"vocabulary_ref": ref, "images": []})


def test_concurrent_first_reads_agree(vocab5):
    # Counts and indexes are computed on first use; threads racing to do so
    # must all see the values a single reader sees.
    rng = random.Random(3)
    pool = random_pool(rng, vocab5, n_images=300)
    want = (pool.class_counts(), [pool.images_with_class(c) for c in vocab5.class_ids()],
            list(pool.images))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            d = Dataset(pool.images, vocab5)  # fresh columns, nothing cached yet
            with ThreadPoolExecutor(max_workers=8) as pool_of_threads:
                futures = [pool_of_threads.submit(
                    lambda: (d.class_counts(), [d.images_with_class(c) for c in vocab5.class_ids()],
                             [d.get_image(i) for i in d.image_ids()]))
                    for _ in range(8)]
                results = [f.result(timeout=60) for f in futures]
            for counts, by_class, records in results:
                assert (counts, by_class, records) == want
    finally:
        sys.setswitchinterval(interval)


def test_images_view_is_a_read_only_sequence(vocab5):
    d = make_dataset([[1, 2], [3], [4]], vocab5)
    assert len(d.images) == 3
    assert d.images[-1] == d.images[2]
    assert d.images[1:] == (d.images[1], d.images[2])
    assert list(d) == list(d.images)
    with pytest.raises(IndexError):
        d.images[3]
    with pytest.raises(TypeError):
        d.images[0] = d.images[1]


# ---------------------------------------------------------------------------
# merge / restrict / subtract
# ---------------------------------------------------------------------------


def test_merge_identity(vocab5):
    d = make_dataset([[1], [2]], vocab5)
    merged = merge(d, Dataset([], vocab5))
    assert merged == d


def test_merge_sums_counts(vocab5):
    a = make_dataset([[1, 2]], vocab5, prefix="a")
    b = make_dataset([[2], [3, 2]], vocab5, prefix="b")
    m = merge(a, b)
    assert len(m) == 3
    for c in vocab5.class_ids():
        assert m.count(c) == a.count(c) + b.count(c)


def test_merge_copies_every_record_of_whole_and_selected_datasets(vocab5):
    # A whole dataset selects its columns as a range, a restricted one as an
    # array; the second vocabulary lists the same classes in another order, so
    # its class positions must be translated.
    whole = random_pool(random.Random(5), vocab5, 12)
    reordered = Vocabulary(reversed(vocab5.classes))
    other = Dataset([replace(rec, image_id="b" + rec.image_id)
                     for rec in random_pool(random.Random(6), vocab5, 12)], reordered)
    part = restrict(other, [1, 3, 4])
    assert isinstance(whole._inst, range) and not isinstance(part._inst, range)
    for a, b in ((whole, part), (part, whole), (part, Dataset([], reordered))):
        m = merge(a, b)
        assert m.vocabulary_ref == a.vocabulary_ref
        assert list(m.images) == list(a.images) + list(b.images)


def test_merge_rejects_duplicate_ids(vocab5):
    a = make_dataset([[1], [1], [1]], vocab5)
    b = make_dataset([[2], [2]], vocab5, prefix="new")
    b = merge(b, make_dataset([[2], [2], [2]], vocab5))  # new0000, new0001, img0000 to img0002
    with pytest.raises(DuplicateImageError, match="^duplicate image_id 'img0000'$"):
        merge(a, b)


def test_merge_rejects_vocabulary_mismatch():
    a = make_dataset([[1]], make_vocab(3))
    b = make_dataset([[1]], make_vocab(4))
    with pytest.raises(VocabularyMismatchError):
        merge(a, b)


def test_restrict_drops_other_classes(vocab5):
    d = make_dataset([[1, 2], [2], [3]], vocab5)
    r = restrict(d, [1, 3])
    assert recount(r) == {1: 1, 3: 1}
    assert len(r) == 2  # the class-2-only image is dropped


def test_restrict_keeps_untouched_records(vocab5):
    d = make_dataset([[1, 3], [1, 2], [3], [2]], vocab5)
    r = restrict(d, [1, 3])
    assert r.images[0] == d.images[0]
    assert r.images[2] == d.images[2]
    assert r.images[1] != d.images[1]
    assert r.images[1] == replace(d.images[1], instances=d.images[1].instances[:1])


@pytest.mark.parametrize("selection", ["loaded", "all", "first_half", "reversed"])
def test_restrict_of_a_loaded_pool_equals_the_pool_built_in_memory(tmp_path, selection):
    # A file's columns selected whole (as a range), as an array of every
    # image, as the first half or reversed restrict as the same records do.
    vocab = make_vocab(4)
    rng = random.Random(7)
    lists = [rng.choices([1, 2, 3, 4], [8, 4, 2, 1], k=rng.randint(1, 4)) for _ in range(40)]
    save_split(make_dataset(lists, vocab), tmp_path / "pool.json")
    pool = load_dataset(tmp_path / "pool.json", vocab)
    n = len(pool)
    positions = {"all": range(n), "first_half": range(n // 2),
                 "reversed": range(n - 1, -1, -1)}.get(selection)
    if positions is not None:
        pool = pool._select(positions)
    in_memory = Dataset(pool.images, vocab)
    for classes in ([1, 3], [3, 1], [1, 2]):
        got = restrict(pool, classes)
        assert 0 < got.total_instances < pool.total_instances
        assert got == restrict(in_memory, classes)


def test_restrict_names_unknown_classes(vocab5):
    d = make_dataset([[1, 2], [3], [4, 4]], vocab5)
    for classes in ([1, 2, 9], [9, 7]):
        with pytest.raises(UnknownClassError) as err:
            restrict(d, classes)
        assert str(err.value) == f"unknown class_ids {sorted(set(classes) - {1, 2})}"


def test_subtract_removes_named_images(vocab5):
    d = make_dataset([[1], [2], [3]], vocab5)
    s = subtract(d, ["img0001"])
    assert s.image_ids() == ("img0000", "img0002")
