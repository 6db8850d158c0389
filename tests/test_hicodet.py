import json

import pytest

from bright_kit import UnknownClassError
from bright_kit.errors import AnnotationFormatError
from bright_kit.cli import main
from bright_kit.hicodet import convert_hicodet_json, vocabulary_from_hico_list
from bright_kit.model import save_split

HOI_LIST = """\
 id   object         verb
 ---  ------------   --------
  1   airplane       board
  2   airplane       direct
  3   cell_phone     talk_on
  4   dining_table   eat_at
"""


def test_vocabulary_from_hico_list(tmp_path):
    path = tmp_path / "hico_list_hoi.txt"
    path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(path)
    assert len(vocab) == 4
    assert vocab.get(3).verb_name == "talk_on"
    assert vocab.get(3).object_name == "cell phone"  # underscores normalized
    assert vocab.get(4).object_name == "dining table"
    assert vocab.get(1).object_name == "airplane"


def test_vocabulary_from_empty_list_rejected(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("header only\n")
    with pytest.raises(AnnotationFormatError):
        vocabulary_from_hico_list(path)


def _dump_entry(**overrides):
    entry = {
        "file_name": "HICO_train2015_00000001.jpg",
        "width": 640,
        "height": 480,
        "annotations": [
            {"bbox": [10, 10, 100, 200], "category_id": 1},
            {"bbox": [80, 50, 300, 250], "category_id": 5},
        ],
        "hoi_annotation": [
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 1},
        ],
    }
    entry.update(overrides)
    return entry


def test_convert_basic(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry()]))
    d = convert_hicodet_json(dump, vocab)
    assert len(d) == 1
    rec = d.images[0]
    assert rec.image_id == "HICO_train2015_00000001"
    assert rec.width == 640 and rec.height == 480
    inst = rec.instances[0]
    assert inst.class_id == 1
    assert inst.provenance == "real"
    assert inst.human_box.as_list() == [10, 10, 100, 200]
    assert inst.object_box.as_list() == [80, 50, 300, 250]


def test_saved_conversion_names_no_vocabulary_file(tmp_path, capsys):
    # The vocabulary came from hico_list_hoi.txt, which no --vocab can read, so
    # a saved conversion must not point at the dump as its vocabulary.
    vocab_path = tmp_path / "hico_list_hoi.txt"
    vocab_path.write_text(HOI_LIST)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry()]))
    d = convert_hicodet_json(dump, vocabulary_from_hico_list(vocab_path))
    assert d.vocabulary_ref == ""
    save_split(d, tmp_path / "total.json")
    code = main(["stats", "--pool", str(tmp_path / "total.json"), "--out-dir", str(tmp_path / "o")])
    assert code == 2
    err = json.loads(capsys.readouterr().err.strip())["error"]
    assert err == {"type": "UsageError", "message": "missing required parameter --vocab"}


def test_convert_infers_canvas_when_size_missing(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    entry = _dump_entry()
    del entry["width"], entry["height"]
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    rec = convert_hicodet_json(dump, vocab).images[0]
    assert rec.width >= 300 and rec.height >= 250


def test_convert_infers_canvas_when_size_is_null(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry(width=None, height=None)]))
    rec = convert_hicodet_json(dump, vocabulary_from_hico_list(vocab_path)).images[0]
    assert (rec.width, rec.height) == (300, 250)


@pytest.mark.parametrize("width, height, message", [
    (0, 480, "0x480 is not positive"),
    (640, -1, "640x-1 is not positive"),
    (640, None, "int() argument must be"),
    (None, 480, "int() argument must be"),
    (640, ..., "'height'"),
    (..., 480, "'width'"),
], ids=["zero_width", "negative_height", "null_height", "null_width", "no_height", "no_width"])
def test_convert_rejects_a_partial_or_non_positive_size(tmp_path, width, height, message):
    # A size is given when either field is there and not null; it is then read
    # whole or the record fails, never replaced by the tightest canvas.
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    entry = {k: v for k, v in _dump_entry(width=width, height=height).items() if v is not ...}
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    with pytest.raises(AnnotationFormatError) as err:
        convert_hicodet_json(dump, vocabulary_from_hico_list(vocab_path))
    assert str(err.value).startswith(f"{dump}: record 0: bad image size (")
    assert message in str(err.value)


def test_convert_clamps_boxes(tmp_path, caplog):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    entry = _dump_entry(
        annotations=[
            {"bbox": [-5, 10, 100, 500], "category_id": 1},
            {"bbox": [80, 50, 700, 250], "category_id": 5},
            {"bbox": [50, 50, 50, 50], "category_id": 5},  # degenerate, but no interaction uses it
        ]
    )
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    with caplog.at_level("WARNING", logger="bright_kit"):
        rec = convert_hicodet_json(dump, vocab).images[0]
    inst = rec.instances[0]
    assert inst.human_box.as_list() == [0, 10, 100, 480]
    assert inst.object_box.as_list() == [80, 50, 640, 250]
    assert [r.message for r in caplog.records] == [
        f"{dump}: record 0.annotations[{k}]: box {box} clamped to image bounds"
        for k, box in ((0, [-5, 10, 100, 500]), (1, [80, 50, 700, 250]))
    ]


def test_convert_unknown_class_error_or_skip(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    entry = _dump_entry(
        hoi_annotation=[
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 1},
            {"subject_id": 0, "object_id": 1, "hoi_category_id": 599},
        ]
    )
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    with pytest.raises(UnknownClassError):
        convert_hicodet_json(dump, vocab)


@pytest.mark.parametrize("class_id, kept", [(1.5, None), (1.0, 1)])
def test_convert_rejects_a_fractional_hoi_category_id(tmp_path, class_id, kept):
    # int() would truncate 1.5 to class 1; a whole float is still its class.
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    entry = _dump_entry(hoi_annotation=[
        {"subject_id": 0, "object_id": 1, "hoi_category_id": class_id}])
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    vocab = vocabulary_from_hico_list(vocab_path)
    if kept is not None:
        assert convert_hicodet_json(dump, vocab).images[0].instances[0].class_id == kept
        return
    with pytest.raises(UnknownClassError) as err:
        convert_hicodet_json(dump, vocab)
    assert str(err.value).endswith("hoi_annotation[0]: unknown hoi_category_id 1.5")


def test_convert_rejects_a_file_name_utf8_cannot_encode(tmp_path):
    # a JSON escape can spell a lone surrogate, which no artifact can hold
    list_path = tmp_path / "hico_list_hoi.txt"
    list_path.write_text("  1   airplane       board\n")
    vocab = vocabulary_from_hico_list(list_path)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry(file_name="x\ud800.jpg")]))
    assert "\\ud800" in dump.read_text()
    with pytest.raises(AnnotationFormatError, match="text not encodable as UTF-8"):
        convert_hicodet_json(dump, vocab)


def test_convert_rejects_bad_indices(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    entry = _dump_entry(hoi_annotation=[{"subject_id": 0, "object_id": 9, "hoi_category_id": 1}])
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([entry]))
    with pytest.raises(AnnotationFormatError):
        convert_hicodet_json(dump, vocab)


@pytest.mark.parametrize(
    "entry",
    [
        _dump_entry(annotations=[{"bbox": [10, 10, "x", 200]}, {"bbox": [80, 50, 300, 250]}]),
        _dump_entry(annotations=[[10, 10, 100, 200], {"bbox": [80, 50, 300, 250]}]),
        _dump_entry(annotations={"bbox": [10, 10, 100, 200]}),
        _dump_entry(hoi_annotation=5),
        _dump_entry(width="wide"),
        _dump_entry(width=None, height=None,
                    annotations=[{"bbox": [10, 10, float("inf"), 200]},
                                 {"bbox": [80, 50, 300, 250]}]),
        _dump_entry(hoi_annotation=[{"subject_id": 0, "object_id": 1,
                                     "hoi_category_id": float("inf")}]),
    ],
    ids=["non_numeric_bbox", "annotation_not_object", "annotations_not_array",
         "hoi_annotation_not_array", "non_numeric_width", "infinite_box_size_absent",
         "infinite_hoi_category_id"],
)
def test_convert_malformed_record_is_a_format_error(tmp_path, entry):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    vocab = vocabulary_from_hico_list(vocab_path)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry(), entry]))
    with pytest.raises(AnnotationFormatError, match=r"record 1\b"):
        convert_hicodet_json(dump, vocab)


@pytest.mark.parametrize("overrides, message", [
    ({"hoi_annotation": [{"subject_id": 0.5, "object_id": 1, "hoi_category_id": 1}]},
     ".hoi_annotation[0]: need subject_id, object_id, hoi_category_id "
     "(subject_id 0.5 is not a whole number)"),
    ({"hoi_annotation": [{"subject_id": 0, "object_id": 1.9, "hoi_category_id": 1}]},
     ".hoi_annotation[0]: need subject_id, object_id, hoi_category_id "
     "(object_id 1.9 is not a whole number)"),
    ({"width": 640.9}, ": bad image size (width 640.9 is not a whole number)"),
    ({"height": 480.5}, ": bad image size (height 480.5 is not a whole number)"),
], ids=["subject_id", "object_id", "width", "height"])
def test_convert_rejects_a_fractional_index_or_size(tmp_path, overrides, message):
    # int() would truncate 0.5 and 1.9 to boxes 0 and 1, and 640.9 to 640.
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    dump = tmp_path / "trainval.json"
    dump.write_text(json.dumps([_dump_entry(**overrides)]))
    with pytest.raises(AnnotationFormatError) as err:
        convert_hicodet_json(dump, vocabulary_from_hico_list(vocab_path))
    assert str(err.value) == f"{dump}: record 0{message}"


def test_convert_reads_whole_numbers_as_before(tmp_path):
    vocab_path = tmp_path / "list.txt"
    vocab_path.write_text(HOI_LIST)
    dump = tmp_path / "trainval.json"
    entry = _dump_entry(width=640.0, height="480",
                        hoi_annotation=[{"subject_id": 0.0, "object_id": True, "hoi_category_id": 1}])
    dump.write_text(json.dumps([entry]))
    vocab = vocabulary_from_hico_list(vocab_path)
    (image,) = convert_hicodet_json(dump, vocab).images
    dump.write_text(json.dumps([_dump_entry()]))
    assert (image,) == convert_hicodet_json(dump, vocab).images
