"""Canonical data model and file I/O for benchmarks, vocabularies, and splits.

A benchmark is a :class:`Dataset`: a sequence of image records, each carrying
zero or more human-object interaction instances, validated against a
:class:`Vocabulary` of (verb, object) classes.  The subject of every
interaction is a person, so classes carry only the verb and object components.

A Dataset keeps its annotations in stdlib ``array`` columns, not in one
object per instance: :func:`load_dataset` appends each file's rows to them in
one loop.  ``Dataset.images`` builds a tuple of :class:`ImageRecord`,
:class:`HoiInstance` and :class:`BBox` values from them on each access.

Datasets are immutable after construction; every "mutation" (merge, restrict,
balancing) builds a new Dataset, most of them as a selection from the same
columns.  All read accessors are therefore safe to use from multiple threads.
"""

from __future__ import annotations

import json
import logging
import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from importlib import resources
from itertools import compress
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator

from .cache import cached
from .errors import (
    AnnotationFormatError,
    DegenerateBoxError,
    DuplicateImageError,
    UnknownClassError,
    VocabularyMismatchError,
)
from .jsonio import canonical_dumps, paused_gc, read_json, write_json

logger = logging.getLogger("bright_kit")
_MAX = math.nextafter(math.inf, 0)  # the largest finite float

PROVENANCES = ("real", "generated", "crawled")
_PROVENANCE_CODE = {p: i for i, p in enumerate(PROVENANCES)}


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, corners (x1, y1) and (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # Non-negative, non-degenerate and at most the largest float, so an int
        # beyond the float range fails like inf; NaN fails every comparison.
        if not (0 <= self.x1 < self.x2 <= _MAX and 0 <= self.y1 < self.y2 <= _MAX):
            coords = (self.x1, self.y1, self.x2, self.y2)
            raise DegenerateBoxError(f"negative, non-finite or degenerate box {coords}")

    @property
    def area(self) -> float:
        return (self.x2 - self.x1) * (self.y2 - self.y1)

    def iou(self, other: "BBox") -> float:
        """Intersection over union, continuous-coordinate convention."""
        ix1 = max(self.x1, other.x1)
        iy1 = max(self.y1, other.y1)
        ix2 = min(self.x2, other.x2)
        iy2 = min(self.y2, other.y2)
        if ix2 <= ix1 or iy2 <= iy1:
            return 0.0
        inter = (ix2 - ix1) * (iy2 - iy1)
        return inter / (self.area + other.area - inter)

    def as_list(self) -> list[float]:
        return [self.x1, self.y1, self.x2, self.y2]


def box_coords(raw, where: str) -> tuple[float, float, float, float]:
    """The shape check of :func:`parse_box`: an array of 4 values ``float()`` accepts."""
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise AnnotationFormatError(f"{where}: box must be [x1, y1, x2, y2], got {raw!r}")
    try:
        x1, y1, x2, y2 = map(float, raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise AnnotationFormatError(f"{where}: non-numeric box {raw!r}") from exc
    return x1, y1, x2, y2


def parse_box(raw, where: str, width: float = math.inf, height: float = math.inf) -> BBox:
    """Read one ``[x1, y1, x2, y2]`` box from outside data; the toolkit's only box rule.

    ``raw`` must be an array of 4 numbers (else :class:`AnnotationFormatError`)
    that are finite and span a positive width and height (else
    :class:`DegenerateBoxError`).  It is then clamped into
    ``[0, width] x [0, height]``, with one warning if that moves it; an unknown
    image size leaves only the lower bound 0.  A box left empty by the clamp
    lies outside the image and is rejected.  ``where`` prefixes every message.
    """
    x1, y1, x2, y2 = box_coords(raw, where)
    if not (-math.inf < x1 < x2 < math.inf and -math.inf < y1 < y2 < math.inf):
        raise DegenerateBoxError(f"{where}: non-finite or degenerate box {raw!r}")
    if x1 < 0 or y1 < 0 or x2 > width or y2 > height:
        logger.warning("%s: box %s clamped to image bounds", where, raw)
        x1, y1 = max(x1, 0.0), max(y1, 0.0)
        x2, y2 = min(x2, float(width)), min(y2, float(height))
        if x2 <= x1 or y2 <= y1:
            raise DegenerateBoxError(f"{where}: box {raw!r} lies outside the image")
    return BBox(x1, y1, x2, y2)


@dataclass(frozen=True)
class HoiClass:
    """One interaction class: a (verb, object) pair with an implicit person subject."""

    class_id: int
    verb_id: int
    object_id: int
    verb_name: str
    object_name: str

    def __post_init__(self):
        if not self.verb_name or not self.object_name:
            raise AnnotationFormatError(
                f"class {self.class_id}: empty verb or object name"
            )

    def to_dict(self) -> dict:
        """This class as a row of a vocabulary file."""
        return {"class_id": self.class_id, "verb_id": self.verb_id, "object_id": self.object_id,
                "verb": self.verb_name, "object": self.object_name}


class Vocabulary:
    """Immutable set of interaction classes with unique ids and (verb, object) pairs.

    ``verb_id``/``object_id`` are conveniences local to one vocabulary file;
    cross-vocabulary comparisons (is this class "the same" in another file?)
    go through verb/object *names*.
    """

    def __init__(self, classes: Iterable[HoiClass]):
        self.classes: tuple[HoiClass, ...] = tuple(classes)
        self._index: dict[int, int] = {}  # class_id -> position in ``classes``
        pairs: set[tuple[int, int]] = set()
        for cls in self.classes:
            if cls.class_id in self._index:
                raise AnnotationFormatError(f"duplicate class_id {cls.class_id}")
            key = (cls.verb_id, cls.object_id)
            if key in pairs:
                raise AnnotationFormatError(
                    f"duplicate (verb_id, object_id) pair {key}"
                )
            pairs.add(key)
            self._index[cls.class_id] = len(self._index)

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[HoiClass]:
        return iter(self.classes)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._index

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.triplet_map() == other.triplet_map()

    def get(self, class_id: int) -> HoiClass:
        try:
            return self.classes[self._index[class_id]]
        except KeyError:
            raise UnknownClassError(f"unknown class_id {class_id}") from None

    def class_ids(self) -> tuple[int, ...]:
        return tuple(c.class_id for c in self.classes)

    def verb_names(self) -> frozenset[str]:
        return frozenset(c.verb_name for c in self.classes)

    def object_names(self) -> frozenset[str]:
        return frozenset(c.object_name for c in self.classes)

    def triplet_map(self) -> dict[int, tuple[str, str]]:
        """class_id -> (verb_name, object_name); the cross-file identity of a vocabulary."""
        return {c.class_id: (c.verb_name, c.object_name) for c in self.classes}

    def subset(self, class_ids: Iterable[int]) -> "Vocabulary":
        """New vocabulary restricted to ``class_ids``, preserving original order."""
        wanted = set(class_ids)
        missing = wanted - set(self._index)
        if missing:
            raise UnknownClassError(f"unknown class_ids {sorted(missing)}")
        return Vocabulary(c for c in self.classes if c.class_id in wanted)

    def is_subset_of(self, other: "Vocabulary") -> bool:
        mine, theirs = self.triplet_map(), other.triplet_map()
        return all(theirs.get(cid) == trip for cid, trip in mine.items())


@dataclass(frozen=True)
class HoiInstance:
    """One annotated interaction: human box, object box, class, and data origin."""

    human_box: BBox
    object_box: BBox
    class_id: int
    provenance: str = "real"

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise AnnotationFormatError(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}"
            )


@dataclass(frozen=True)
class ImageRecord:
    image_id: str
    file_name: str
    width: int
    height: int
    instances: tuple[HoiInstance, ...] = ()

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise AnnotationFormatError(
                f"image {self.image_id}: non-positive size "
                f"{self.width}x{self.height}"
            )


class _Columns:
    """The annotations Datasets select from, filled while the first one is built.

    Per image: ``image_id``, ``file_name``, ``width``, ``height``, and in
    ``first`` the position of its first instance (one more entry closes the
    last image).  Per instance: ``cls``, its class's position in ``vocabulary``;
    ``box``, human then object box, 8 coordinates; ``prov``, its position in
    :data:`PROVENANCES`.  ``key`` is the load cache key of the file they were
    read from, None for columns built in memory.
    """

    def __init__(self, vocabulary: Vocabulary, key: str | None = None):
        self.vocabulary, self.key = vocabulary, key
        self.image_id, self.file_name, self.width, self.height = [], [], [], []
        self.first, self.cls, self.box = array("q", [0]), array("q"), array("d")
        self.prov = array("b")

    def add_image(self, image_id: str, file_name: str, width: int, height: int) -> None:
        """Close the image whose instances were appended since the last call."""
        self.image_id.append(image_id)
        self.file_name.append(file_name)
        self.width.append(width)
        self.height.append(height)
        self.first.append(len(self.cls))

    def add_instance(self, inst: HoiInstance) -> None:
        h, o = inst.human_box, inst.object_box
        self.cls.append(self.vocabulary._index[inst.class_id])
        self.box.extend((h.x1, h.y1, h.x2, h.y2, o.x1, o.y1, o.x2, o.y2))
        self.prov.append(_PROVENANCE_CODE[inst.provenance])

    def instance(self, k: int) -> HoiInstance:
        box = self.box[8 * k : 8 * k + 8]
        class_id = self.vocabulary.classes[self.cls[k]].class_id
        return HoiInstance(BBox(*box[:4]), BBox(*box[4:]), class_id, PROVENANCES[self.prov[k]])

    def require_unique_ids(self) -> None:
        """Image ids are unique: raise :class:`DuplicateImageError` on the first one seen twice."""
        seen: set[str] = set()
        for image_id in self.image_id:
            if image_id in seen:
                raise DuplicateImageError(f"duplicate image_id {image_id!r}")
            seen.add(image_id)


class Dataset:
    """Immutable collection of image records bound to one vocabulary.

    A Dataset is a selection from stdlib ``array`` columns (``_Columns``):
    ``_rows`` holds the positions of its images in the columns, ``_inst`` those
    of the instances it keeps, image after image, and image ``p`` has the
    instances ``_inst[_first[p]:_first[p + 1]]``.  Restricting and balancing
    select again from the same columns, copying and checking nothing twice.
    ``images`` builds records on each access; counts and the class -> images index
    are computed on first use.  Nothing else is written after construction,
    so every read is safe from several threads.
    """

    def __init__(
        self,
        images: Iterable[ImageRecord],
        vocabulary: Vocabulary,
        vocabulary_ref: str = "",
    ):
        cols = _Columns(vocabulary)
        for rec in images:
            for inst in rec.instances:
                if inst.class_id not in vocabulary:
                    raise UnknownClassError(
                        f"image {rec.image_id}: unknown class_id {inst.class_id}"
                    )
                cols.add_instance(inst)
            cols.add_image(rec.image_id, rec.file_name, rec.width, rec.height)
        cols.require_unique_ids()
        self._bind(cols, vocabulary_ref)

    def _bind(self, cols: _Columns, vocabulary_ref: str, rows=None, inst=None, first=None):
        """Select ``rows``/``inst``/``first`` of ``cols``, by default all of it."""
        self._cols, self.vocabulary_ref = cols, vocabulary_ref
        self._rows = range(len(cols.image_id)) if rows is None else rows
        self._inst = range(len(cols.cls)) if inst is None else inst
        self._first = cols.first if first is None else first
        return self

    def _select(self, positions: Iterable[int], keep=None) -> "Dataset":
        """The images at ``positions``, in that order, with all their instances;
        or, given ``keep`` (indexed like ``_inst``), with the instances whose
        entry in it is true, leaving out the images that keep none."""
        rows, inst, first = array("q"), array("q"), array("q", [0])
        for p in positions:
            a, b = self._first[p], self._first[p + 1]
            inst.extend(self._inst[a:b] if keep is None else compress(self._inst[a:b], keep[a:b]))
            if keep is not None and len(inst) == first[-1]:
                continue
            rows.append(self._rows[p])
            first.append(len(inst))
        return self._selected(rows, inst, first)

    def _selected(self, rows, inst, first) -> "Dataset":
        """Another selection ``rows``/``inst``/``first`` of the same columns."""
        return Dataset.__new__(Dataset)._bind(self._cols, self.vocabulary_ref, rows, inst, first)

    def _column(self, values: array) -> array:
        """A per-instance column of ``_cols``, in the order of ``_inst``."""
        if isinstance(self._inst, range):
            return values
        return array(values.typecode, map(values.__getitem__, self._inst))

    def _record(self, p: int) -> ImageRecord:
        cols, r = self._cols, self._rows[p]
        a, b = self._first[p], self._first[p + 1]
        return ImageRecord(cols.image_id[r], cols.file_name[r], cols.width[r], cols.height[r],
                           tuple(map(cols.instance, self._inst[a:b])))

    @property
    def vocabulary(self) -> Vocabulary:
        return self._cols.vocabulary

    @property
    def images(self) -> tuple[ImageRecord, ...]:
        """Every image's record, built anew on each access."""
        return tuple(map(self._record, range(len(self))))

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.vocabulary == other.vocabulary and self._key() == other._key()

    def _key(self) -> tuple:
        c, classes = self._cols, self.vocabulary.classes
        images = [(c.image_id[r], c.file_name[r], c.width[r], c.height[r]) for r in self._rows]
        instances = [(classes[c.cls[k]].class_id, c.box[8 * k : 8 * k + 8], c.prov[k])
                     for k in self._inst]
        return images, self._first, instances

    @property
    def total_instances(self) -> int:
        return len(self._inst)

    @cached_property
    def _counts(self) -> Counter[int]:  # class position -> instance count
        return Counter(self._column(self._cols.cls))

    def count(self, class_id: int) -> int:
        return self._counts[self.vocabulary._index.get(class_id)]  # 0 for unknown ids

    def class_counts(self) -> dict[int, int]:
        """class_id -> instance count for every vocabulary class (zeros included)."""
        counts = self._counts
        return {c.class_id: counts[code] for code, c in enumerate(self.vocabulary.classes)}

    def image_ids(self) -> tuple[str, ...]:
        return tuple(map(self._cols.image_id.__getitem__, self._rows))

    @cached_property
    def _position(self) -> dict[str, int]:
        return {image_id: p for p, image_id in enumerate(self.image_ids())}

    def get_image(self, image_id: str) -> ImageRecord:
        return self._record(self._position[image_id])

    @cached_property
    def _by_class(self) -> dict[int, tuple[str, ...]]:  # class position -> image ids
        codes, first = self._column(self._cols.cls), self._first
        by_class: dict[int, list[str]] = {}
        for p, image_id in enumerate(self.image_ids()):
            for code in set(codes[first[p] : first[p + 1]]):
                by_class.setdefault(code, []).append(image_id)
        return {code: tuple(ids) for code, ids in by_class.items()}

    def images_with_class(self, class_id: int) -> tuple[str, ...]:
        """Ids of images carrying at least one instance of ``class_id``, in dataset order."""
        return self._by_class.get(self.vocabulary._index.get(class_id), ())


# ---------------------------------------------------------------------------
# File I/O (canonical JSON schema; see README for the schema definition)
# ---------------------------------------------------------------------------


def _require_utf8(path, texts: Iterable[str]) -> None:
    """Reject text no artifact can be written with: a JSON escape can spell a
    lone surrogate, which decodes to a ``str`` that UTF-8 cannot encode."""
    try:
        "".join(texts).encode("utf-8")
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start : exc.end]
        raise AnnotationFormatError(f"{path}: text not encodable as UTF-8 ({bad!r})") from exc


def read_class_id(raw):
    """``int(raw)`` for the class id of a JSON row, except that a number with a
    fractional part comes back as it is: ``int`` would truncate it to another
    class's id, while as it is it names no class and is rejected as unknown."""
    return raw if isinstance(raw, float) and raw != int(raw) else int(raw)


def read_int(row, key: str) -> int:
    """``int(row[key])`` for an integer field of a JSON row, except that a number
    with a fractional part is a ``ValueError`` naming the field: ``int`` would
    truncate it."""
    raw = row[key]
    if isinstance(raw, float) and raw != int(raw):
        raise ValueError(f"{key} {raw!r} is not a whole number")
    return int(raw)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file: a JSON array of class rows."""
    raw = read_json(path)
    if not isinstance(raw, list):
        raise AnnotationFormatError(f"{path}: vocabulary file must be a JSON array")
    classes = []
    for i, row in enumerate(raw):
        try:
            classes.append(
                HoiClass(
                    class_id=read_int(row, "class_id"),
                    verb_id=read_int(row, "verb_id"),
                    object_id=read_int(row, "object_id"),
                    verb_name=str(row["verb"]),
                    object_name=str(row["object"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(f"{path}: bad vocabulary row {i} ({exc})") from exc
    _require_utf8(path, [name for c in classes for name in (c.verb_name, c.object_name)])
    return Vocabulary(classes)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    write_json(path, [c.to_dict() for c in vocab])


def bundled_vocabulary() -> Vocabulary:
    """The 351-class vocabulary that ships with the toolkit."""
    ref = resources.files("bright_kit").joinpath("data/top351_vocabulary.json")
    with resources.as_file(ref) as path:
        return load_vocabulary(path)


def annotation_header(raw, path) -> tuple[list, str]:
    """The ``images`` array and the ``vocabulary_ref`` of a decoded annotation
    file; a missing or null reference reads as ``""``."""
    if not isinstance(raw, dict) or "images" not in raw:
        raise AnnotationFormatError(f"{path}: expected an object with an 'images' array")
    if not isinstance(raw["images"], list):
        raise AnnotationFormatError(f"{path}: 'images' must be an array")
    ref = raw.get("vocabulary_ref")
    if ref is not None and not isinstance(ref, str):
        raise AnnotationFormatError(f"{path}: vocabulary_ref must be a string")
    return raw["images"], ref or ""


def _instance_row(inst, where: str, vocab: Vocabulary, width: int, height: int) -> HoiInstance:
    """One instance row of an annotation file, checked field by field."""
    try:
        class_id = read_class_id(inst["class_id"])
        human_raw = inst["human_box"]
        object_raw = inst["object_box"]
        provenance = str(inst.get("provenance", "real"))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise AnnotationFormatError(f"{where}: missing or bad field ({exc})") from exc
    if class_id not in vocab:
        raise UnknownClassError(f"{where}: unknown class_id {class_id}")
    return HoiInstance(
        human_box=parse_box(human_raw, where, width, height),
        object_box=parse_box(object_raw, where, width, height),
        class_id=class_id,
        provenance=provenance,
    )


@paused_gc()  # the decoded tree is dropped before the collector runs again
def load_dataset(path: str | Path, vocab: Vocabulary, raw=None) -> Dataset:
    """Read an annotation file into a Dataset, validating against ``vocab``.

    Boxes go through :func:`parse_box` with the image size, so they are
    clamped to image bounds with a warning; unknown class ids and degenerate
    boxes are rejected.  Unknown top-level keys (e.g. the ``meta``
    block the CLI adds) are ignored.  A caller that has already decoded the
    file passes its JSON as ``raw``; ``path`` then only names it in messages.

    Rows go straight into the columns when they hold a known class, a known
    provenance and two boxes of 4 numbers inside the image.  Every other row
    takes the field-by-field rule (``_instance_row``) at its place in the
    file, so warnings and the first error are those of a row-by-row read.
    A file read here goes through the load cache (:mod:`bright_kit.cache`):
    once loaded with no row taking that rule, it is not decoded again.  A
    hit, a decode and ``raw`` all build the Dataset from one entry, whose
    columns carry the file's cache key, for balancing passes over them.
    """
    if raw is None:
        key, arrays, values = cached(path, "dataset", vocab,
                                     lambda data: _decode(read_json(path, data), path, vocab))
    else:
        key, (arrays, values, _) = None, _decode(raw, path, vocab)
    cols = _Columns(vocab, key)
    cols.first, cols.cls, cols.box, cols.prov = arrays
    cols.image_id, cols.file_name, cols.width, cols.height, vocabulary_ref = values
    return Dataset.__new__(Dataset)._bind(cols, vocabulary_ref)


def _decode(raw, path, vocab: Vocabulary) -> tuple[list, list, bool]:
    """The cache entry of the decoded file ``raw``; it may be stored if no row took the row rule."""
    images, vocabulary_ref = annotation_header(raw, path)
    cols = _Columns(vocab)
    cls, box, prov = cols.cls, cols.box, cols.prov
    index, prov_code = vocab._index, _PROVENANCE_CODE
    row_rule = False
    for i, img in enumerate(images):
        try:
            image_id = str(img["image_id"])
            file_name = str(img["file_name"])
            width = read_int(img, "width")
            height = read_int(img, "height")
            raw_instances = img.get("instances", [])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(
                f"{path}: images[{i}]: missing or bad field ({exc})"
            ) from exc
        if not isinstance(raw_instances, list):
            raise AnnotationFormatError(f"{path}: images[{i}]: 'instances' must be an array")
        for j, inst in enumerate(raw_instances):
            try:
                h, o = inst["human_box"], inst["object_box"]
                code, p = index[inst["class_id"]], prov_code[inst.get("provenance", "real")]
                if type(h) is list and type(o) is list:
                    hx1, hy1, hx2, hy2 = map(float, h)
                    ox1, oy1, ox2, oy2 = map(float, o)
                    if (0.0 <= hx1 < hx2 <= width and 0.0 <= hy1 < hy2 <= height
                            and 0.0 <= ox1 < ox2 <= width and 0.0 <= oy1 < oy2 <= height):
                        cls.append(code)
                        box.extend((hx1, hy1, hx2, hy2, ox1, oy1, ox2, oy2))
                        prov.append(p)
                        continue
            except (KeyError, TypeError, ValueError, OverflowError):
                pass
            where = f"{path}: images[{i}].instances[{j}]"
            cols.add_instance(_instance_row(inst, where, vocab, width, height))
            row_rule = True
        if not (width > 0 and height > 0):
            ImageRecord(image_id, file_name, width, height)  # raises the size error
        cols.add_image(image_id, file_name, width, height)
    _require_utf8(path, [*cols.image_id, *cols.file_name, vocabulary_ref])
    cols.require_unique_ids()
    return ([cols.first, cols.cls, cols.box, cols.prov],
            [cols.image_id, cols.file_name, cols.width, cols.height, vocabulary_ref], not row_rule)


# One instance and one image of a split file, at their indentation depth, as
# ``%`` templates of their scalars; ``%r`` spells a box coordinate, a float, as
# ``json.dumps`` does.
_INSTANCE = """\
        {
          "class_id": %s,
          "human_box": [
            %r,
            %r,
            %r,
            %r
          ],
          "object_box": [
            %r,
            %r,
            %r,
            %r
          ],
          "provenance": %s
        }"""
_IMAGE = """\
    {
      "file_name": %s,
      "height": %s,
      "image_id": %s,
      "instances": %s,
      "width": %s
    }"""


def _image_template(n: int) -> str:
    """``_IMAGE`` with an instances array of ``n`` instances: a template of the
    image's 3 leading scalars, its instances' 10 each, then its width."""
    instances = "[\n" + ",\n".join([_INSTANCE] * n) + "\n      ]" if n else "[]"
    return _IMAGE % ("%s", "%s", "%s", instances, "%s")


def _encoded(values: list) -> list[str]:
    """``json.dumps(value, ensure_ascii=False)`` of each value; plain str or int in bulk."""
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(encode_basestring, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    return [json.dumps(value, ensure_ascii=False) for value in values]


def _split_document(d: Dataset, meta) -> str:
    """The text ``canonical_dumps`` gives for the split's JSON object, from
    fixed templates: keys sorted, two-space indent, trailing newline."""
    c, rows, inst, first = d._cols, d._rows, d._inst, d._first

    def column(values):  # as d._column, without building an array of a selection
        return values if isinstance(inst, range) else map(values.__getitem__, inst)

    # The scalars of every instance, 10 each, in document order.
    scalars = [""] * (10 * d.total_instances)
    class_ids = _encoded([cls.class_id for cls in d.vocabulary.classes])
    scalars[0::10] = map(class_ids.__getitem__, column(c.cls))
    for j in range(8):
        scalars[1 + j :: 10] = column(c.box[j::8])
    provenances = _encoded(list(PROVENANCES))
    scalars[9::10] = map(provenances.__getitem__, column(c.prov))
    file_names, heights, image_ids, widths = (
        _encoded(list(map(values.__getitem__, rows)))
        for values in (c.file_name, c.height, c.image_id, c.width))
    templates: dict[int, str] = {}  # instance count -> _image_template
    images = []
    for p in range(len(rows)):
        a, b = first[p], first[p + 1]
        template = templates.get(b - a) or templates.setdefault(b - a, _image_template(b - a))
        images.append(template % (file_names[p], heights[p], image_ids[p],
                                  *scalars[10 * a : 10 * b], widths[p]))
    parts = ['{\n  "images": ', "[\n" + ",\n".join(images) + "\n  ]" if images else "[]"]
    if meta is not None:
        # canonical_dumps writes "\n" only between tokens, so indenting every
        # line of it nests it one level deeper.
        parts += [',\n  "meta": ', canonical_dumps(meta)[:-1].replace("\n", "\n  ")]
    parts += [',\n  "vocabulary_ref": ', *_encoded([d.vocabulary_ref]), "\n}\n"]
    return "".join(parts)


def save_split(d: Dataset, path: str | Path, meta: dict | None = None) -> None:
    """Write a Dataset to the canonical annotation schema.

    ``load_dataset(save_split(d))`` is structurally equal to ``d``.  ``meta``
    (toolkit version, seed, config hash) is embedded verbatim when given.  The
    file holds the bytes :func:`~bright_kit.jsonio.write_json` would give the
    schema's JSON object, encoded straight from the columns.
    """
    write_json(path, _split_document(d, meta), encoded=True)


# ---------------------------------------------------------------------------
# Dataset algebra
# ---------------------------------------------------------------------------


def merge(a: Dataset, b: Dataset) -> Dataset:
    """Image-disjoint union of two datasets over the same vocabulary."""
    if a.vocabulary != b.vocabulary:
        raise VocabularyMismatchError("cannot merge datasets with different vocabularies")
    cols = _Columns(a.vocabulary)
    for d in (a, b):
        src, base = d._cols, len(cols.cls)
        cols.first.extend(base + f for f in d._first[1:])
        code = [a.vocabulary._index[c.class_id] for c in src.vocabulary.classes]
        cols.cls.extend(code[src.cls[k]] for k in d._inst)
        cols.prov.extend(src.prov[k] for k in d._inst)
        for k in d._inst:
            cols.box.extend(src.box[8 * k : 8 * k + 8])
        for name in ("image_id", "file_name", "width", "height"):
            getattr(cols, name).extend(map(getattr(src, name).__getitem__, d._rows))
    cols.require_unique_ids()
    return Dataset.__new__(Dataset)._bind(cols, a.vocabulary_ref)


def restrict(d: Dataset, class_ids: Iterable[int]) -> Dataset:
    """Keep only instances of ``class_ids`` and the images left with one."""
    codes = {d.vocabulary._index[c.class_id] for c in d.vocabulary.subset(class_ids)}
    keep = [code in codes for code in d._column(d._cols.cls)]
    return d._select(range(len(d)), keep)


def subtract(d: Dataset, image_ids: Iterable[str]) -> Dataset:
    """Images of ``d`` whose ids are not in ``image_ids``, annotations untouched."""
    drop = set(image_ids)
    return d._select(p for p, image_id in enumerate(d.image_ids()) if image_id not in drop)
