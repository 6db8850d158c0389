"""Generation-and-filtering pipeline for topping up deficient classes.

The pipeline talks to external models (image describer, text-to-image
generator, open-world detector, region verifier, text verifier, paraphraser)
only through the small port interfaces below.  Real backends live out of
process behind :class:`HttpServicePorts`, one object serving all six ports.
The shipped mocks are likewise one :class:`MockPorts` object: one fixed
person box and one fixed object box, region verdicts cycling through
``verdicts``, a text verifier that accepts everything and a paraphrase suffix
of ``" (reworded)"``; ``verdicts`` and ``description`` are its only settings.
It is deterministic, so the whole loop is testable on a desk.

Flow per class: retrieve a reference image annotated with the class, have the
describer produce a template-anchored prompt, generate an image, detect
person/object boxes, and verify every person-object pair (region description
first, then text confirmation).  An image counts as valid when at least one
pair passes both checks; otherwise the prompt is paraphrased and the loop
retries until enough valid images exist or the attempt budget runs out.
"""

from __future__ import annotations

import hashlib
import logging
import random
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from .errors import DataError, PortError, TemplateViolationError
from .model import BBox, Dataset, HoiClass, HoiInstance, parse_box

logger = logging.getLogger("bright_kit")


# ---------------------------------------------------------------------------
# Prompt and query templates
# ---------------------------------------------------------------------------

# Single words whose -ing form needs doubling or is otherwise irregular.
_ING_OVERRIDES = {
    "sit": "sitting",
    "run": "running",
    "cut": "cutting",
    "pet": "petting",
    "hit": "hitting",
    "tag": "tagging",
    "hug": "hugging",
    "stab": "stabbing",
    "stir": "stirring",
    "zip": "zipping",
    "spin": "spinning",
    "set": "setting",
    "flip": "flipping",
    "drag": "dragging",
    "hop": "hopping",
    "stop": "stopping",
}

# Whole verb tokens that cannot be formed mechanically.
_VERB_OVERRIDES = {
    "no_interaction": "not interacting with",
}


def _ing(word: str) -> str:
    if word in _ING_OVERRIDES:
        return _ING_OVERRIDES[word]
    if word.endswith("ie"):
        return word[:-2] + "ying"
    if word.endswith("e") and not word.endswith(("ee", "oe", "ye")):
        return word[:-1] + "ing"
    return word + "ing"


def gerund(verb: str) -> str:
    """-ing form of a verb token; multi-word verbs use underscores (``sit_on``)."""
    if not verb:
        raise DataError("cannot form a gerund of an empty verb")
    if verb in _VERB_OVERRIDES:
        return _VERB_OVERRIDES[verb]
    head, *rest = verb.split("_")
    return " ".join([_ing(head), *rest])


def _verb_text(cls: HoiClass) -> str:
    return cls.verb_name.replace("_", " ")


def prompt_prefix(cls: HoiClass) -> str:
    """The literal template prefix every prompt for ``cls`` must start with."""
    return f"A photo of a person {_verb_text(cls)} a/an {cls.object_name},"


def describe_query(cls: HoiClass) -> str:
    """Instruction sent to the describer to produce a template-anchored prompt."""
    verb, obj = _verb_text(cls), cls.object_name
    return (
        "<Image> Please provide a detailed description of the image, focusing "
        f"on the main person who is {verb} a {obj}. Follow this template for "
        f"your answer: 'A photo of a person {verb} a/an {obj}, {{description}}.'"
    )


def verification_query(cls: HoiClass) -> str:
    """Yes/no question the text verifier answers from a region description."""
    return (
        f"Based on the description, can you confirm if the person is "
        f"{_verb_text(cls)} the {cls.object_name}? Please answer 'Yes' or 'No'."
    )


def region_query(cls: HoiClass) -> str:
    """Yes/no question the region verifier answers for one person-object pair."""
    return (
        "<Image> Considering the image, can you definitively determine that "
        f"person <region1> is {_verb_text(cls)} {cls.object_name} <region2> in "
        "the image? Please respond with 'yes' or 'no', followed by your "
        "explanation."
    )


def crawl_query(cls: HoiClass) -> str:
    """Web-search query string for crawling images of one class."""
    return f"a photo of a/an person {gerund(cls.verb_name)} a/an {cls.object_name}"


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenerationBudget:
    max_attempts_per_class: int
    target_valid: int

    def __post_init__(self):
        if self.max_attempts_per_class < 1 or self.target_valid < 1:
            raise DataError("generation budget values must be positive")


@dataclass(frozen=True)
class PromptRecord:
    """A generation prompt anchored to the class template.

    ``paraphrase_generation`` counts how many rejections this prompt chain has
    absorbed since it was first built from a reference image.
    """

    hoi_class: HoiClass
    reference_image_id: str
    text: str
    paraphrase_generation: int = 0

    def __post_init__(self):
        prefix = prompt_prefix(self.hoi_class)
        if not self.text.startswith(prefix):
            raise TemplateViolationError(
                f"prompt does not start with template prefix {prefix!r}: {self.text!r}"
            )
        if self.paraphrase_generation < 0:
            raise DataError("paraphrase_generation must be >= 0")


@dataclass(frozen=True)
class Detections:
    person_boxes: tuple[BBox, ...]
    object_boxes: tuple[BBox, ...]


@dataclass(frozen=True)
class RegionVerdict:
    accepted: bool
    description: str


# ---------------------------------------------------------------------------
# Service ports
# ---------------------------------------------------------------------------


class Describer(Protocol):
    def describe(self, image_ref: str, cls: HoiClass) -> str: ...  # pragma: no cover


class Generator(Protocol):
    def generate(self, prompt: str) -> str: ...  # pragma: no cover


class Detector(Protocol):
    def detect(self, image_ref: str) -> Detections: ...  # pragma: no cover


class RegionVerifier(Protocol):
    def verify_region(
        self, image_ref: str, human_box: BBox, object_box: BBox, cls: HoiClass
    ) -> RegionVerdict: ...  # pragma: no cover


class TextVerifier(Protocol):
    def verify_text(self, description: str, cls: HoiClass) -> bool: ...  # pragma: no cover


class Paraphraser(Protocol):
    def paraphrase(self, prompt: str) -> str: ...  # pragma: no cover


@dataclass
class ServicePorts:
    """Bundle of the external-model interfaces the pipeline depends on."""

    describer: Describer
    generator: Generator
    detector: Detector
    region_verifier: RegionVerifier
    text_verifier: TextVerifier
    paraphraser: Paraphraser


# ---------------------------------------------------------------------------
# Deterministic mock ports
# ---------------------------------------------------------------------------


_MOCK_IMAGE_PREFIX = "mock://image/"
_MOCK_DETECTIONS = Detections(
    person_boxes=(BBox(10.0, 10.0, 200.0, 400.0),),
    object_boxes=(BBox(180.0, 120.0, 420.0, 380.0),),
)
_MOCK_PARAPHRASE_SUFFIX = " (reworded)"


class MockPorts:
    """All six ports as deterministic mocks, like :class:`HttpServicePorts`.

    The describer echoes ``description`` inside the class template.  The
    generator hashes its call number and the prompt into the image ref, so
    repeated generations from one prompt stay distinct, and region verdicts
    cycle through ``verdicts`` by call number (``[False, True]`` rejects, then
    accepts).  Call order is part of the pipeline's determinism contract, so
    every answer is reproducible for a fixed call sequence.
    """

    def __init__(
        self, verdicts: Sequence[bool] = (True,), description: str = "a plain everyday scene"
    ):
        if not verdicts:
            raise DataError("verdict cycle must be non-empty")
        self.verdicts = tuple(verdicts)
        self.description = description
        self._generate_calls = 0
        self._region_calls = 0

    def describe(self, image_ref: str, cls: HoiClass) -> str:
        return f"{prompt_prefix(cls)} {self.description}."

    def generate(self, prompt: str) -> str:
        self._generate_calls += 1
        key = f"{self._generate_calls}:{prompt}".encode("utf-8")
        return _MOCK_IMAGE_PREFIX + hashlib.sha1(key).hexdigest()[:12]

    def detect(self, image_ref: str) -> Detections:
        return _MOCK_DETECTIONS

    def verify_region(
        self, image_ref: str, human_box: BBox, object_box: BBox, cls: HoiClass
    ) -> RegionVerdict:
        accepted = self.verdicts[self._region_calls % len(self.verdicts)]
        self._region_calls += 1
        description = f"a person {_verb_text(cls)} a/an {cls.object_name} in {image_ref}"
        return RegionVerdict(accepted=accepted, description=description)

    def verify_text(self, description: str, cls: HoiClass) -> bool:
        return True

    def paraphrase(self, prompt: str) -> str:
        return prompt + _MOCK_PARAPHRASE_SUFFIX


def mock_ports(
    verdicts: Sequence[bool] = (True,), description: str = "a plain everyday scene"
) -> ServicePorts:
    """A complete all-mock port bundle, deterministic for a fixed call sequence."""
    return ServicePorts(*[MockPorts(verdicts, description)] * 6)


# ---------------------------------------------------------------------------
# HTTP ports (thin clients; real model backends live out of process)
# ---------------------------------------------------------------------------


class HttpServicePorts:
    """All six ports backed by one HTTP service.

    Endpoints mirror the port signatures with JSON bodies::

        POST /describe      {"image_ref", "class"}            -> {"text"}
        POST /generate      {"prompt"}                        -> {"image_ref"}
        POST /detect        {"image_ref"}                     -> {"person_boxes", "object_boxes"}
        POST /verify_region {"image_ref", "human_box",
                             "object_box", "class"}           -> {"accepted", "description"}
        POST /verify_text   {"description", "class"}          -> {"accepted"}
        POST /paraphrase    {"prompt"}                        -> {"prompt"}

    Any transport or HTTP error, and any response of the wrong shape (not a
    JSON object, ``accepted`` not a JSON bool, ``text``, ``image_ref``,
    ``prompt`` or a present ``description`` not a JSON string or one UTF-8
    cannot encode, an empty ``image_ref`` or ``prompt``, box lists not arrays),
    raises :class:`PortError`, which aborts one attempt, not the run.  A
    missing ``description`` reads as ``""``.  Detected boxes go through
    :func:`~bright_kit.model.parse_box` without an image size; a box it
    rejects is a ``PortError`` of the ``detect`` endpoint.
    """

    def __init__(self, base_url: str, timeout: float = 60.0, session=None):
        import requests

        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self._session = session or requests.Session()

    def _post(self, endpoint: str, payload: dict) -> dict:
        import requests

        url = f"{self.base_url}/{endpoint}"
        try:
            resp = self._session.post(url, json=payload, timeout=self.timeout)
        except requests.RequestException as exc:
            raise PortError(f"{endpoint}: {exc}") from exc
        if resp.status_code != 200:
            raise PortError(f"{endpoint}: HTTP {resp.status_code}")
        try:
            out = resp.json()
        except ValueError as exc:
            raise PortError(f"{endpoint}: non-JSON response") from exc
        if not isinstance(out, dict):
            raise PortError(f"{endpoint}: response is not a JSON object")
        return out

    @staticmethod
    def _field(endpoint: str, out: dict, key: str, kind: type, nonempty: bool = False):
        value = out.get(key)
        if not isinstance(value, kind) or (nonempty and not value):
            what = ("non-empty " if nonempty else "") + kind.__name__
            raise PortError(f"{endpoint}: response field {key!r} must be a {what}")
        if kind is str:
            try:  # a JSON escape can spell a lone surrogate, which no artifact can hold
                value.encode("utf-8")
            except UnicodeEncodeError as exc:
                raise PortError(f"{endpoint}: response field {key!r} is not UTF-8 text") from exc
        return value

    def describe(self, image_ref: str, cls: HoiClass) -> str:
        out = self._post(
            "describe",
            {"image_ref": image_ref, "class": cls.to_dict(), "query": describe_query(cls)},
        )
        return self._field("describe", out, "text", str)

    def generate(self, prompt: str) -> str:
        out = self._post("generate", {"prompt": prompt})
        return self._field("generate", out, "image_ref", str, nonempty=True)

    def detect(self, image_ref: str) -> Detections:
        out = self._post("detect", {"image_ref": image_ref})
        person_boxes = self._field("detect", out, "person_boxes", list)
        object_boxes = self._field("detect", out, "object_boxes", list)
        try:
            return Detections(
                person_boxes=tuple(parse_box(b, "detect: person box") for b in person_boxes),
                object_boxes=tuple(parse_box(b, "detect: object box") for b in object_boxes),
            )
        except DataError as exc:
            raise PortError(str(exc)) from exc

    def verify_region(
        self, image_ref: str, human_box: BBox, object_box: BBox, cls: HoiClass
    ) -> RegionVerdict:
        out = self._post(
            "verify_region",
            {
                "image_ref": image_ref,
                "human_box": human_box.as_list(),
                "object_box": object_box.as_list(),
                "class": cls.to_dict(),
                "query": region_query(cls),
            },
        )
        return RegionVerdict(
            accepted=self._field("verify_region", out, "accepted", bool),
            description=self._field("verify_region", out, "description", str)
            if "description" in out else "",
        )

    def verify_text(self, description: str, cls: HoiClass) -> bool:
        out = self._post(
            "verify_text",
            {
                "description": description,
                "class": cls.to_dict(),
                "query": verification_query(cls),
            },
        )
        return self._field("verify_text", out, "accepted", bool)

    def paraphrase(self, prompt: str) -> str:
        out = self._post("paraphrase", {"prompt": prompt})
        return self._field("paraphrase", out, "prompt", str, nonempty=True)


def http_ports(base_url: str) -> ServicePorts:
    return ServicePorts(*[HttpServicePorts(base_url)] * 6)


# ---------------------------------------------------------------------------
# Pipeline operations
# ---------------------------------------------------------------------------


def build_prompt(
    cls: HoiClass, reference_pool: Dataset, ports: ServicePorts, seed: int
) -> PromptRecord:
    """Sample a reference image of ``cls`` (seeded) and describe it into a prompt.

    The describer gets one retry if its output violates the template prefix;
    a second violation raises :class:`TemplateViolationError`.
    """
    refs = reference_pool.images_with_class(cls.class_id)
    if not refs:
        raise DataError(
            f"reference pool has no images annotated with class {cls.class_id}"
        )
    rng = random.Random(seed)
    ref_id = rng.choice(refs)
    prefix = prompt_prefix(cls)
    text = ports.describer.describe(ref_id, cls)
    if not text.startswith(prefix):
        text = ports.describer.describe(ref_id, cls)  # one retry
    return PromptRecord(cls, ref_id, text, 0)  # raises on a second violation


@dataclass
class PairVerdictRecord:
    human_box: BBox
    object_box: BBox
    region_accepted: bool
    text_accepted: bool | None  # None when the region check already rejected
    accepted: bool

    def to_dict(self) -> dict:
        return {**vars(self), "human_box": self.human_box.as_list(),
                "object_box": self.object_box.as_list()}


@dataclass
class AttemptRecord:
    attempt: int
    prompt_text: str | None = None  # None when the describer failed on this attempt
    paraphrase_generation: int = 0
    image_ref: str | None = None
    pairs: list[PairVerdictRecord] = field(default_factory=list)
    valid: bool = False
    error: str | None = None
    paraphrased_after: bool = False

    def to_dict(self) -> dict:
        return {**vars(self), "pairs": [p.to_dict() for p in self.pairs]}


@dataclass
class GenerationResult:
    attempts: list[AttemptRecord]
    status: str  # "target_reached" | "budget_exhausted"

    @property
    def valid_images(self) -> list[tuple[str, list[PairVerdictRecord]]]:
        """(image_ref, accepted pairs) of every valid attempt, in attempt order."""
        return [(a.image_ref, [p for p in a.pairs if p.accepted]) for a in self.attempts if a.valid]

    @property
    def paraphrase_events(self) -> int:
        return sum(a.paraphrased_after for a in self.attempts)

    @property
    def generator_calls(self) -> int:
        return sum(a.prompt_text is not None for a in self.attempts)  # each prompted attempt


def generate_valid_images(
    cls: HoiClass,
    budget: GenerationBudget,
    ports: ServicePorts,
    reference_pool: Dataset,
    seed: int,
) -> GenerationResult:
    """Run the generate/verify/paraphrase loop for one class.

    Every verification verdict is logged per attempt.  The prompt is built
    by :func:`build_prompt` in the first attempt and rebuilt, from the same
    seeded reference image, by each next attempt until the describer
    answers.  A rejected image paraphrases the active prompt before the next
    attempt; a port failure, the describer's and the paraphraser's included,
    and a describer or paraphraser answer without the template prefix abort
    only that attempt and keep the same prompt.  Stops as soon as
    ``budget.target_valid`` images are valid or the attempt budget is spent.
    """
    prompt: PromptRecord | None = None
    attempts: list[AttemptRecord] = []
    valid = 0
    while valid < budget.target_valid and len(attempts) < budget.max_attempts_per_class:
        rec = AttemptRecord(attempt=len(attempts) + 1)
        attempts.append(rec)
        try:
            if prompt is None:
                prompt = build_prompt(cls, reference_pool, ports, seed)
            rec.prompt_text, rec.paraphrase_generation = prompt.text, prompt.paraphrase_generation
            image_ref = ports.generator.generate(prompt.text)
            rec.image_ref = image_ref
            dets = ports.detector.detect(image_ref)
            for hb in dets.person_boxes:
                for ob in dets.object_boxes:
                    verdict = ports.region_verifier.verify_region(image_ref, hb, ob, cls)
                    text_ok: bool | None = None
                    if verdict.accepted:
                        text_ok = ports.text_verifier.verify_text(verdict.description, cls)
                    ok = verdict.accepted and bool(text_ok)
                    rec.pairs.append(PairVerdictRecord(hb, ob, verdict.accepted, text_ok, ok))
            rec.valid = any(p.accepted for p in rec.pairs)
            if rec.valid:
                valid += 1
            else:
                new_text = ports.paraphraser.paraphrase(prompt.text)
                prompt = PromptRecord(
                    cls, prompt.reference_image_id, new_text, prompt.paraphrase_generation + 1
                )
                rec.paraphrased_after = True
        except (PortError, TemplateViolationError) as exc:
            rec.error = str(exc)
            logger.warning("attempt %d for class %d aborted: %s", rec.attempt, cls.class_id, exc)

    status = "target_reached" if valid >= budget.target_valid else "budget_exhausted"
    return GenerationResult(attempts=attempts, status=status)


def pseudo_label(
    image_ref: str,
    detections: Detections,
    cls: HoiClass,
    ports: ServicePorts,
    provenance: str = "generated",
) -> list[HoiInstance]:
    """Annotate one image by asking the region verifier about every person-object pair."""
    if provenance not in ("generated", "crawled"):
        raise DataError(f"pseudo-labels must be generated or crawled, got {provenance!r}")
    if not detections.person_boxes:
        logger.warning("pseudo_label(%s): no person detected", image_ref)
        return []
    if not detections.object_boxes:
        logger.warning("pseudo_label(%s): no target object detected", image_ref)
        return []
    out = []
    for hb in detections.person_boxes:
        for ob in detections.object_boxes:
            verdict = ports.region_verifier.verify_region(image_ref, hb, ob, cls)
            if verdict.accepted:
                out.append(HoiInstance(hb, ob, cls.class_id, provenance))
    return out
