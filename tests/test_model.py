import json
import random

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
from bright_kit.errors import AnnotationFormatError

from helpers import fixed_box, make_dataset, make_image, make_vocab, random_pool, recount


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


def test_bbox_iou():
    a = BBox(0, 0, 10, 10)
    assert a.iou(a) == 1.0
    assert a.iou(BBox(20, 20, 30, 30)) == 0.0
    half = BBox(0, 0, 5, 10)
    assert a.iou(half) == pytest.approx(0.5)


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
    with pytest.raises(DuplicateImageError):
        Dataset([img, make_image("a", [2])], vocab5)


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


def test_merge_rejects_duplicate_ids(vocab5):
    a = make_dataset([[1]], vocab5)
    b = make_dataset([[2]], vocab5)
    with pytest.raises(DuplicateImageError):
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
    r_keep = restrict(d, [1, 3], drop_empty_images=False)
    assert len(r_keep) == 3


def test_restrict_keeps_untouched_records(vocab5):
    d = make_dataset([[1, 3], [1, 2], [3], [2]], vocab5)
    r = restrict(d, [1, 3])
    assert r.images[0] is d.images[0]
    assert r.images[2] is d.images[2]
    assert r.images[1] is not d.images[1]
    assert r.images[1] == d.images[1].with_instances(d.images[1].instances[:1])


def test_subtract_removes_named_images(vocab5):
    d = make_dataset([[1], [2], [3]], vocab5)
    s = subtract(d, ["img0001"])
    assert s.image_ids() == ("img0000", "img0002")
