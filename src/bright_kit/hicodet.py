"""Import adapters for the public HICO-DET annotation distribution.

Two inputs are understood:

* the official interaction list text file (``hico_list_hoi.txt``), giving the
  600 (id, object, verb) rows, which becomes a :class:`Vocabulary`;
* the community JSON dumps (``trainval_hico.json`` / ``test_hico.json``):
  a JSON array of records with ``file_name``, an ``annotations`` array of
  ``{"bbox": [x1,y1,x2,y2], "category_id": ...}`` boxes, and an
  ``hoi_annotation`` array of ``{"subject_id", "object_id",
  "hoi_category_id"}`` links, which becomes a :class:`Dataset` in the
  toolkit's canonical schema.

Object names in the official list use underscores (``dining_table``); they
are normalized to spaces so vocabularies from different sources compare by
name.  Verb tokens keep their underscores (``sit_on``).
"""

from __future__ import annotations

import functools
import math
from pathlib import Path

from .errors import AnnotationFormatError, UnknownClassError
from .jsonio import read_json
from .model import (
    BBox,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    _require_utf8,
    box_coords,
    parse_box,
    read_class_id,
    read_int,
)


def vocabulary_from_hico_list(path: str | Path) -> Vocabulary:
    """Parse the official interaction list into a vocabulary.

    Expected rows: ``<id> <object> <verb>`` separated by whitespace; header
    and separator lines are skipped.  Verb/object ids are assigned
    alphabetically; cross-vocabulary identity is by name, so the assignment
    scheme does not need to match any external convention.
    """
    rows: list[tuple[int, str, str]] = []
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        parts = line.split()
        if len(parts) != 3:
            continue
        token_id, obj, verb = parts
        if not token_id.isdigit():
            continue
        rows.append((int(token_id), obj.replace("_", " "), verb))
    if not rows:
        raise AnnotationFormatError(f"{path}: no interaction rows found")
    verb_ids = {v: i + 1 for i, v in enumerate(sorted({verb for _, _, verb in rows}))}
    obj_ids = {o: i + 1 for i, o in enumerate(sorted({obj for _, obj, _ in rows}))}
    return Vocabulary(
        HoiClass(cid, verb_ids[verb], obj_ids[obj], verb, obj)
        for cid, obj, verb in sorted(rows)
    )


def _canvas_size(entry: dict, boxes: list[tuple[float, ...]], where: str) -> tuple[int, int]:
    width = entry.get("width")
    height = entry.get("height")
    if width and height:
        try:
            return read_int(entry, "width"), read_int(entry, "height")
        except (TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(f"{where}: bad image size ({exc})") from exc
    # Size absent from the dump: use the tightest canvas covering all boxes.
    if not all(math.isfinite(v) for b in boxes for v in b):
        raise AnnotationFormatError(f"{where}: no image size and a non-finite box")
    max_x = max((b[2] for b in boxes), default=1.0)
    max_y = max((b[3] for b in boxes), default=1.0)
    return max(1, math.ceil(max_x)), max(1, math.ceil(max_y))


def convert_hicodet_json(path: str | Path, vocab: Vocabulary) -> Dataset:
    """Convert a community-format HICO-DET dump into a canonical Dataset.

    An interaction whose ``hoi_category_id`` is outside ``vocab`` rejects the
    file, and so does a ``file_name`` UTF-8 cannot encode.  All imported
    instances carry ``real`` provenance.  Every box an interaction references
    goes through :func:`~bright_kit.model.parse_box` with the image size;
    boxes no interaction uses are only shape-checked.
    """
    raw = read_json(path)
    if not isinstance(raw, list):
        raise AnnotationFormatError(f"{path}: expected a JSON array of image records")

    records = []
    for i, entry in enumerate(raw):
        where = f"{path}: record {i}"
        try:
            file_name = str(entry["file_name"])
            annotations = entry.get("annotations", [])
            hois = entry.get("hoi_annotation", [])
        except (KeyError, TypeError) as exc:
            raise AnnotationFormatError(f"{where}: missing field ({exc})") from exc
        if not isinstance(annotations, list) or not isinstance(hois, list):
            raise AnnotationFormatError(f"{where}: annotation lists must be arrays")
        boxes = []
        for k, ann in enumerate(annotations):
            if not isinstance(ann, dict):
                raise AnnotationFormatError(f"{where}.annotations[{k}]: not an object")
            boxes.append(box_coords(ann.get("bbox"), f"{where}.annotations[{k}]"))
        width, height = _canvas_size(entry, boxes, where)

        @functools.cache  # a box several interactions share is read (and warned about) once
        def box(k: int) -> BBox:
            return parse_box(annotations[k]["bbox"], f"{where}.annotations[{k}]", width, height)

        instances = []
        for j, hoi in enumerate(hois):
            hwhere = f"{where}.hoi_annotation[{j}]"
            try:
                subject_id = read_int(hoi, "subject_id")
                object_id = read_int(hoi, "object_id")
                class_id = read_class_id(hoi["hoi_category_id"])
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise AnnotationFormatError(
                    f"{hwhere}: need subject_id, object_id, hoi_category_id ({exc})"
                ) from exc
            if not (0 <= subject_id < len(boxes)) or not (0 <= object_id < len(boxes)):
                raise AnnotationFormatError(f"{hwhere}: box index out of range")
            if class_id not in vocab:
                raise UnknownClassError(f"{hwhere}: unknown hoi_category_id {class_id}")
            instances.append(
                HoiInstance(
                    human_box=box(subject_id),
                    object_box=box(object_id),
                    class_id=class_id,
                    provenance="real",
                )
            )
        image_id = Path(file_name).stem
        records.append(ImageRecord(image_id, file_name, width, height, tuple(instances)))

    _require_utf8(path, [r.file_name for r in records])  # image ids are parts of them
    # The vocabulary came from hico_list_hoi.txt, which --vocab cannot read: name none.
    return Dataset(records, vocab)
