"""Canonical data model and file I/O for benchmarks, vocabularies, and splits.

A benchmark is a :class:`Dataset`: a list of image records, each carrying zero
or more human-object interaction instances, validated against a
:class:`Vocabulary` of (verb, object) classes.  The subject of every
interaction is a person, so classes carry only the verb and object components.

Datasets are immutable after construction; every "mutation" (merge, restrict,
balancing) builds a new Dataset.  All read accessors are therefore safe to use
from multiple threads.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass
from importlib import resources
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import (
    AnnotationFormatError,
    DegenerateBoxError,
    DuplicateImageError,
    UnknownClassError,
    VocabularyMismatchError,
)
from .jsonio import canonical_dumps, read_json, write_json

logger = logging.getLogger("bright_kit")

PROVENANCES = ("real", "generated", "crawled")


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, corners (x1, y1) and (x2, y2)."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        # Finite, non-negative and non-degenerate; NaN fails every comparison.
        if not (0 <= self.x1 < self.x2 < math.inf and 0 <= self.y1 < self.y2 < math.inf):
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


class Vocabulary:
    """Immutable set of interaction classes with unique ids and (verb, object) pairs.

    ``verb_id``/``object_id`` are conveniences local to one vocabulary file;
    cross-vocabulary comparisons (is this class "the same" in another file?)
    go through verb/object *names*.
    """

    def __init__(self, classes: Iterable[HoiClass]):
        self.classes: tuple[HoiClass, ...] = tuple(classes)
        self._by_id: dict[int, HoiClass] = {}
        pairs: set[tuple[int, int]] = set()
        for cls in self.classes:
            if cls.class_id in self._by_id:
                raise AnnotationFormatError(f"duplicate class_id {cls.class_id}")
            key = (cls.verb_id, cls.object_id)
            if key in pairs:
                raise AnnotationFormatError(
                    f"duplicate (verb_id, object_id) pair {key}"
                )
            pairs.add(key)
            self._by_id[cls.class_id] = cls

    def __len__(self) -> int:
        return len(self.classes)

    def __iter__(self) -> Iterator[HoiClass]:
        return iter(self.classes)

    def __contains__(self, class_id: int) -> bool:
        return class_id in self._by_id

    def __eq__(self, other) -> bool:
        if not isinstance(other, Vocabulary):
            return NotImplemented
        return self.triplet_map() == other.triplet_map()

    def get(self, class_id: int) -> HoiClass:
        try:
            return self._by_id[class_id]
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
        missing = wanted - set(self._by_id)
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

    def with_instances(self, instances: Sequence[HoiInstance]) -> "ImageRecord":
        return ImageRecord(
            self.image_id, self.file_name, self.width, self.height, tuple(instances)
        )


class Dataset:
    """Immutable collection of image records bound to one vocabulary.

    The per-class instance-count index and the class -> images index are built
    once at construction and always consistent with ``images``.
    """

    def __init__(
        self,
        images: Iterable[ImageRecord],
        vocabulary: Vocabulary,
        vocabulary_ref: str = "",
    ):
        self.images: tuple[ImageRecord, ...] = tuple(images)
        self.vocabulary = vocabulary
        self.vocabulary_ref = vocabulary_ref

        self._by_id: dict[str, ImageRecord] = {}
        counts: Counter[int] = Counter()
        by_class: dict[int, list[str]] = {}
        for rec in self.images:
            if rec.image_id in self._by_id:
                raise DuplicateImageError(f"duplicate image_id {rec.image_id!r}")
            self._by_id[rec.image_id] = rec
            seen_here: set[int] = set()
            for inst in rec.instances:
                if inst.class_id not in vocabulary:
                    raise UnknownClassError(
                        f"image {rec.image_id}: unknown class_id {inst.class_id}"
                    )
                counts[inst.class_id] += 1
                if inst.class_id not in seen_here:
                    seen_here.add(inst.class_id)
                    by_class.setdefault(inst.class_id, []).append(rec.image_id)
        self._counts = counts
        self._by_class = {c: tuple(ids) for c, ids in by_class.items()}

    def __len__(self) -> int:
        return len(self.images)

    def __iter__(self) -> Iterator[ImageRecord]:
        return iter(self.images)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return self.images == other.images and self.vocabulary == other.vocabulary

    @property
    def total_instances(self) -> int:
        return sum(self._counts.values())

    def count(self, class_id: int) -> int:
        return self._counts.get(class_id, 0)

    def class_counts(self) -> dict[int, int]:
        """class_id -> instance count for every vocabulary class (zeros included)."""
        return {c.class_id: self._counts.get(c.class_id, 0) for c in self.vocabulary}

    def image_ids(self) -> tuple[str, ...]:
        return tuple(r.image_id for r in self.images)

    def get_image(self, image_id: str) -> ImageRecord:
        return self._by_id[image_id]

    def images_with_class(self, class_id: int) -> tuple[str, ...]:
        """Ids of images carrying at least one instance of ``class_id``, in dataset order."""
        return self._by_class.get(class_id, ())


# ---------------------------------------------------------------------------
# File I/O (canonical JSON schema; see README for the schema definition)
# ---------------------------------------------------------------------------


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
                    class_id=int(row["class_id"]),
                    verb_id=int(row["verb_id"]),
                    object_id=int(row["object_id"]),
                    verb_name=str(row["verb"]),
                    object_name=str(row["object"]),
                )
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(f"{path}: bad vocabulary row {i} ({exc})") from exc
    return Vocabulary(classes)


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    rows = [
        {
            "class_id": c.class_id,
            "verb_id": c.verb_id,
            "object_id": c.object_id,
            "verb": c.verb_name,
            "object": c.object_name,
        }
        for c in vocab
    ]
    write_json(path, rows)


def bundled_vocabulary() -> Vocabulary:
    """The 351-class vocabulary that ships with the toolkit."""
    ref = resources.files("bright_kit").joinpath("data/top351_vocabulary.json")
    with resources.as_file(ref) as path:
        return load_vocabulary(path)


def load_dataset(path: str | Path, vocab: Vocabulary, raw=None) -> Dataset:
    """Read an annotation file into a Dataset, validating against ``vocab``.

    Boxes go through :func:`parse_box` with the image size, so they are
    clamped to image bounds with a warning; unknown class ids and degenerate
    boxes are rejected.  Unknown top-level keys (e.g. the ``meta``
    block the CLI adds) are ignored.  A caller that has already decoded the
    file passes its JSON as ``raw``; ``path`` then only names it in messages.
    """
    if raw is None:
        raw = read_json(path)
    if not isinstance(raw, dict) or "images" not in raw:
        raise AnnotationFormatError(f"{path}: expected an object with an 'images' array")
    if not isinstance(raw["images"], list):
        raise AnnotationFormatError(f"{path}: 'images' must be an array")

    records = []
    for i, img in enumerate(raw["images"]):
        where = f"{path}: images[{i}]"
        try:
            image_id = str(img["image_id"])
            file_name = str(img["file_name"])
            width = int(img["width"])
            height = int(img["height"])
            raw_instances = img.get("instances", [])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise AnnotationFormatError(f"{where}: missing or bad field ({exc})") from exc
        if not isinstance(raw_instances, list):
            raise AnnotationFormatError(f"{where}: 'instances' must be an array")
        instances = []
        for j, inst in enumerate(raw_instances):
            iwhere = f"{where}.instances[{j}]"
            try:
                class_id = int(inst["class_id"])
                human_raw = inst["human_box"]
                object_raw = inst["object_box"]
                provenance = str(inst.get("provenance", "real"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                raise AnnotationFormatError(f"{iwhere}: missing or bad field ({exc})") from exc
            if class_id not in vocab:
                raise UnknownClassError(f"{iwhere}: unknown class_id {class_id}")
            instances.append(
                HoiInstance(
                    human_box=parse_box(human_raw, iwhere, width, height),
                    object_box=parse_box(object_raw, iwhere, width, height),
                    class_id=class_id,
                    provenance=provenance,
                )
            )
        records.append(ImageRecord(image_id, file_name, width, height, tuple(instances)))

    return Dataset(records, vocab, vocabulary_ref=str(raw.get("vocabulary_ref", "")))


def _json_scalar(value) -> str:
    """``value`` exactly as ``json.dumps`` writes it, plain str, int and finite
    float spelled out the way its encoder does."""
    if type(value) is float and math.isfinite(value):
        return float.__repr__(value)
    if type(value) is str:
        return encode_basestring(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, ensure_ascii=False)  # subclasses, bool, None, NaN, ±inf


# One instance and one image of a split file, at their indentation depth.
_INSTANCE = """\
        {{
          "class_id": {},
          "human_box": [
            {},
            {},
            {},
            {}
          ],
          "object_box": [
            {},
            {},
            {},
            {}
          ],
          "provenance": {}
        }}"""
_IMAGE = """\
    {{
      "file_name": {},
      "height": {},
      "image_id": {},
      "instances": {},
      "width": {}
    }}"""


def _split_document(d: Dataset, meta) -> str:
    """The text ``canonical_dumps`` gives for the split's JSON object, from a
    fixed template: keys sorted, two-space indent, trailing newline."""
    enc = _json_scalar
    images = []
    for rec in d.images:
        instances = []
        for inst in rec.instances:
            h, o = inst.human_box, inst.object_box
            instances.append(_INSTANCE.format(
                enc(inst.class_id),
                enc(h.x1), enc(h.y1), enc(h.x2), enc(h.y2),
                enc(o.x1), enc(o.y1), enc(o.x2), enc(o.y2),
                enc(inst.provenance),
            ))
        images.append(_IMAGE.format(
            enc(rec.file_name),
            enc(rec.height),
            enc(rec.image_id),
            "[\n" + ",\n".join(instances) + "\n      ]" if instances else "[]",
            enc(rec.width),
        ))
    parts = ['{\n  "images": ', "[\n" + ",\n".join(images) + "\n  ]" if images else "[]"]
    if meta is not None:
        # canonical_dumps writes "\n" only between tokens, so indenting every
        # line of it nests it one level deeper.
        parts += [',\n  "meta": ', canonical_dumps(meta)[:-1].replace("\n", "\n  ")]
    parts += [',\n  "vocabulary_ref": ', enc(d.vocabulary_ref), "\n}\n"]
    return "".join(parts)


def save_split(d: Dataset, path: str | Path, meta: dict | None = None) -> None:
    """Write a Dataset to the canonical annotation schema.

    ``load_dataset(save_split(d))`` is structurally equal to ``d``.  ``meta``
    (toolkit version, seed, config hash) is embedded verbatim when given.  The
    file holds the bytes :func:`~bright_kit.jsonio.write_json` would give the
    schema's JSON object, encoded straight from the records.
    """
    write_json(path, _split_document(d, meta), encoded=True)


# ---------------------------------------------------------------------------
# Dataset algebra
# ---------------------------------------------------------------------------


def merge(a: Dataset, b: Dataset) -> Dataset:
    """Image-disjoint union of two datasets over the same vocabulary."""
    if a.vocabulary != b.vocabulary:
        raise VocabularyMismatchError("cannot merge datasets with different vocabularies")
    overlap = set(a.image_ids()) & set(b.image_ids())
    if overlap:
        raise DuplicateImageError(
            f"image_ids present in both datasets: {sorted(overlap)[:5]}"
        )
    return Dataset(a.images + b.images, a.vocabulary, vocabulary_ref=a.vocabulary_ref)


def restrict(d: Dataset, class_ids: Iterable[int], drop_empty_images: bool = True) -> Dataset:
    """Keep only instances of ``class_ids``; optionally drop images left empty."""
    wanted = set(class_ids)
    unknown = wanted - set(d.vocabulary.class_ids())
    if unknown:
        raise UnknownClassError(f"unknown class_ids {sorted(unknown)}")
    records = []
    for rec in d.images:
        kept = tuple(i for i in rec.instances if i.class_id in wanted)
        if kept or not drop_empty_images:
            records.append(rec.with_instances(kept))
    return Dataset(records, d.vocabulary, vocabulary_ref=d.vocabulary_ref)


def subtract(d: Dataset, image_ids: Iterable[str]) -> Dataset:
    """Images of ``d`` whose ids are not in ``image_ids``, annotations untouched."""
    drop = set(image_ids)
    return Dataset(
        (rec for rec in d.images if rec.image_id not in drop),
        d.vocabulary,
        vocabulary_ref=d.vocabulary_ref,
    )
