"""bright_kit: class-balanced benchmark construction and re-evaluation for
human-object interaction detection.

The toolkit turns an imbalanced multi-instance detection benchmark into
exactly class-balanced train/test/zero-shot splits (balancer, zeroshot),
orchestrates a generation-and-filtering pipeline for topping up deficient
classes through pluggable service ports (augment), re-evaluates detector
prediction dumps with per-class AP, spread and TP-flip sensitivity analyses
(evaluator), and reports how detector rankings shift between two benchmarks
(stats).

The evaluator's names are re-exported lazily: ``bright_kit.evaluator`` imports
numpy, which the construction commands never need, so it loads on the first
access to one of them.
"""

from .balancer import (
    BalanceConfig,
    BalanceResult,
    SplitResult,
    balance,
    build_splits,
    fill_deficits,
)
from .errors import (
    AnnotationFormatError,
    BrightKitError,
    DataError,
    DegenerateBoxError,
    DuplicateImageError,
    PortError,
    ResidualDeficitError,
    TemplateViolationError,
    UnknownClassError,
    VocabularyMismatchError,
)
from .model import (
    BBox,
    Dataset,
    HoiClass,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    bundled_vocabulary,
    load_dataset,
    load_vocabulary,
    merge,
    restrict,
    save_split,
    save_vocabulary,
    subtract,
)
from .stats import (
    ClassDistribution,
    RankingRow,
    RatioRow,
    distribution,
    ranking_shift,
    ratio_report,
    sort_classes,
    top_k,
)
from .zeroshot import (
    ZeroShotResult,
    build_zeroshot_split,
    enumerate_candidates,
)

__version__ = "0.1.0"

_EVALUATOR_NAMES = frozenset({
    "EvalReport",
    "MatchConfig",
    "PerturbResult",
    "Prediction",
    "PredictionTable",
    "class_ap",
    "evaluate",
    "load_predictions",
    "perturb_tp_flip",
    "summarize_class_aps",
})


def __getattr__(name):
    if name in _EVALUATOR_NAMES:
        from . import evaluator

        return getattr(evaluator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
