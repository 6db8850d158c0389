"""Exception hierarchy shared by all bright_kit modules.

``DataError`` subclasses signal invalid or inconsistent input data and map to
exit code 3 in the CLI; plain ``OSError`` (file missing, unwritable output)
maps to exit code 4.
"""

from __future__ import annotations


class BrightKitError(Exception):
    """Base class for all toolkit errors."""


class DataError(BrightKitError):
    """Input data violates a documented contract."""


class AnnotationFormatError(DataError):
    """Annotation or vocabulary file does not conform to the JSON schema."""


class UnknownClassError(DataError):
    """A class id does not exist in the active vocabulary."""


class DegenerateBoxError(DataError):
    """A bounding box has non-positive width or height."""


class DuplicateImageError(DataError):
    """Two image records share one image_id."""


class VocabularyMismatchError(DataError):
    """Two datasets or vocabularies that must agree do not."""


class ResidualDeficitError(DataError):
    """Augmented data could not cover every deficit class."""

    def __init__(self, residual: dict[int, int]):
        self.residual = dict(residual)
        short = ", ".join(f"{c}: {n}" for c, n in sorted(residual.items()))
        super().__init__(f"augmented data insufficient for classes {{{short}}}")


class TemplateViolationError(DataError):
    """Describer or paraphraser output does not start with the prompt template."""


class PortError(BrightKitError):
    """A service port call failed; aborts one attempt, not the run."""
