"""One box rule, pinned at each of the four places a box enters from outside data.

The same raw box goes through the annotation loader, the prediction loader,
the HICO-DET importer and the HTTP detector client.  Annotations and HICO-DET
records know their image size (a 10x10 canvas here); predictions and
``/detect`` responses do not, so only the lower bound 0 applies to them.  A
cell is either the resulting box plus whether a clamp warning was logged, or
the exact exception type raised.
"""

import json
import math

import pytest

from bright_kit import load_dataset, load_predictions
from bright_kit.augment import HttpServicePorts
from bright_kit.errors import AnnotationFormatError, DegenerateBoxError, PortError
from bright_kit.hicodet import convert_hicodet_json, vocabulary_from_hico_list

from helpers import make_vocab

SIZE = 10
OTHER = [1, 1, 6, 6]  # the well-formed partner box of every instance
AFE, DBE = AnnotationFormatError, DegenerateBoxError


def ok(x1, y1, x2, y2, warned=False):
    return ((x1, y1, x2, y2), warned)


BOXES = {
    "non_list": 5,
    "string": "1234",
    "three_values": [0, 0, 5],
    "non_numeric": [0, 0, "x", 5],
    "nan": [0, 0, math.nan, 5],
    "pos_inf": [0, 0, math.inf, 5],
    "neg_inf": [-math.inf, 0, 5, 5],
    "degenerate": [5, 0, 5, 5],
    "negative": [-1, 0, 5, 5],
    "beyond": [0, 0, 15, 5],
    "outside": [20, 20, 30, 30],
    "outside_negative": [-30, -30, -20, -20],
}

# Columns follow SITES: load_dataset, load_predictions, convert_hicodet_json, detect.
RULE = {
    "non_list": (AFE, AFE, AFE, PortError),
    "string": (AFE, AFE, AFE, PortError),
    "three_values": (AFE, AFE, AFE, PortError),
    "non_numeric": (AFE, AFE, AFE, PortError),
    "nan": (DBE, DBE, DBE, PortError),
    "pos_inf": (DBE, DBE, DBE, PortError),
    "neg_inf": (DBE, DBE, DBE, PortError),
    "degenerate": (DBE, DBE, DBE, PortError),
    "negative": (ok(0, 0, 5, 5, True), ok(0, 0, 5, 5, True),
                 ok(0, 0, 5, 5, True), ok(0, 0, 5, 5, True)),
    "beyond": (ok(0, 0, 10, 5, True), ok(0, 0, 15, 5),
               ok(0, 0, 10, 5, True), ok(0, 0, 15, 5)),
    "outside": (DBE, ok(20, 20, 30, 30), DBE, ok(20, 20, 30, 30)),
    "outside_negative": (DBE, DBE, DBE, PortError),
}


def via_dataset(tmp_path, raw):
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"images": [{
        "image_id": "a", "file_name": "a.jpg", "width": SIZE, "height": SIZE,
        "instances": [{"human_box": raw, "object_box": OTHER, "class_id": 1}],
    }]}))
    return load_dataset(path, make_vocab(1)).images[0].instances[0].human_box


def via_predictions(tmp_path, raw):
    path = tmp_path / "p.jsonl"
    path.write_text(json.dumps({
        "image_id": "a", "human_box": raw, "object_box": OTHER, "class_id": 1, "score": 0.5,
    }) + "\n")
    return load_predictions(path, make_vocab(1))[0].human_box


def via_hicodet(tmp_path, raw):
    (tmp_path / "list.txt").write_text("1 object1 verb1\n")
    path = tmp_path / "dump.json"
    path.write_text(json.dumps([{
        "file_name": "a.jpg", "width": SIZE, "height": SIZE,
        "annotations": [{"bbox": raw, "category_id": 1}, {"bbox": OTHER, "category_id": 2}],
        "hoi_annotation": [{"subject_id": 0, "object_id": 1, "hoi_category_id": 1}],
    }]))
    vocab = vocabulary_from_hico_list(tmp_path / "list.txt")
    return convert_hicodet_json(path, vocab).images[0].instances[0].human_box


class _Response:
    status_code = 200

    def __init__(self, body):
        self._body = body

    def json(self):
        return self._body


class _Session:
    def __init__(self, body):
        self.body = body

    def post(self, url, json, timeout):
        return _Response(self.body)


def via_detect(tmp_path, raw):
    body = {"person_boxes": [raw], "object_boxes": [OTHER]}
    client = HttpServicePorts("http://detector", session=_Session(body))
    try:
        return client.detect("ref").person_boxes[0]
    except PortError as exc:
        assert "detect" in str(exc)
        raise


SITES = [via_dataset, via_predictions, via_hicodet, via_detect]


@pytest.mark.parametrize("site", range(len(SITES)), ids=[s.__name__ for s in SITES])
@pytest.mark.parametrize("name", list(BOXES))
def test_box_rule_table(tmp_path, caplog, name, site):
    expected = RULE[name][site]
    with caplog.at_level("WARNING", logger="bright_kit"):
        try:
            box = SITES[site](tmp_path, BOXES[name])
        except Exception as exc:  # the exact type is the pinned outcome
            got = type(exc)
        else:
            warned = any("clamped" in r.message for r in caplog.records)
            got = ((box.x1, box.y1, box.x2, box.y2), warned)
    assert got == expected
