"""Single entry point exposing the toolkit as subcommands.

Seven subcommands: stats, balance, zeroshot, augment, evaluate, perturb and
compare.  Their usage is in the README's CLI section and in ``bright-kit
<command> --help``, which :func:`build_parser` builds from :data:`_COMMANDS`.

Each handler only computes and returns ``({file name: content}, summary)``;
:func:`main` writes the artifacts with :func:`_write_artifacts` only after the
command succeeded, then prints the summary, so a usage or data error writes nothing.

Exit codes: 0 success, 2 usage error, 3 data error, 4 I/O error.  Errors are
reported as one JSON object on stderr.  A JSON config file (``--config``) can
pre-set any parameter; explicit flags win, and config values pass the same
type and choice checks as flags.  Every JSON artifact but ``deficits.json``,
split files included, embeds a ``meta`` stamp: the toolkit version, the seed
and a hash of the algorithmic parameters; ``deficits.json``, the CSVs and
``attempts.jsonl`` carry none.  Identical inputs plus identical seeds reproduce
artifacts byte for byte.  ``BRIGHT_KIT_LOG`` sets the log level.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import logging
import math
import os
import sys
from dataclasses import asdict, astuple, fields
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

from . import __version__, cache
from .augment import GenerationBudget, generate_valid_images, http_ports, mock_ports
from .balancer import BALANCER_VERSION, DEFAULT_EPOCHS, BalanceConfig, build_splits, fill_deficits
from .errors import DataError
from .jsonio import read_json, write_json, write_json_lines
from .model import (
    Dataset,
    HoiInstance,
    ImageRecord,
    Vocabulary,
    _require_utf8,
    annotation_header,
    load_dataset,
    load_vocabulary,
    save_split,
)
from .stats import ClassDistribution, distribution, ranking_shift, ratio_report, sort_classes, top_k
from .zeroshot import DEFAULT_CLASS_BUDGET, build_zeroshot_split, enumerate_candidates


# The evaluator's names come from bright_kit.evaluator, which imports numpy.
# They are bound into this module on first use, so the construction commands,
# and scoring commands whose match is cached, start without numpy.  A match
# miss looks load_predictions up here, where perfbench's tracer patches it;
# evaluate and perturb_tp_flip resolve here for the tracer too.
_SCORING_NAMES = ("evaluate", "load_predictions", "perturb_tp_flip")


def _bind_scoring() -> None:
    from . import evaluator

    for name in _SCORING_NAMES:
        globals().setdefault(name, getattr(evaluator, name))


def __getattr__(name):
    if name in _SCORING_NAMES:
        _bind_scoring()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _make_meta(seed: int, params: dict) -> dict:
    """Reproducibility stamp embedded in the JSON artifacts (module docstring).

    The hash covers algorithmic parameters only (never paths), so runs into
    different output directories still produce identical artifact bytes.
    """
    canon = json.dumps(params, sort_keys=True)
    return {
        "toolkit_version": __version__,
        "seed": seed,
        "config_hash": hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16],
    }


class _UsageError(Exception):
    """Missing or invalid command-line parameter; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Raises :class:`_UsageError` where argparse prints usage and exits 2, in subcommands too."""

    def error(self, message):
        raise _UsageError(message)


_REQUIRED = object()  # default marker of a parameter without a default


def _scalar(kind, *accepted):
    """Coercion to ``kind`` from flag strings and the JSON types in ``accepted``."""

    def coerce(value):
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise TypeError(f"expected {kind.__name__}, got {type(value).__name__}")
        if isinstance(value, str):  # no file name holds a lone surrogate, which a
            os.fsencode(value)  # config file's JSON escape can spell: a ValueError
        return kind(value)

    return coerce


_int = _scalar(int, int, str)
_float = _scalar(float, int, float, str)
_str = _scalar(str, str)
_dir = _scalar(Path, str)


def _target(value) -> str:
    """'per-deficit' or an integer of at least 1, kept as the string the config
    hash covers."""
    if value != "per-deficit" and _int(value) < 1:
        raise ValueError("the target must be at least 1")
    return str(value)


class _Param(NamedTuple):
    """One subcommand parameter.

    ``hashed`` marks the algorithmic parameters that the artifacts' config hash
    covers; paths, URLs and the seed (stamped on its own) stay out of it.
    """

    key: str
    help: str
    coerce: Callable = _str
    default: object = _REQUIRED
    choices: tuple = ()
    hashed: bool = False


_SEED = _Param("seed", "PRNG seed", _int, 0)
_OUT_DIR = _Param("out_dir", "artifact directory", _dir)
_VOCAB = _Param("vocab", "vocabulary file")
_GT = _Param("gt", "ground-truth annotation file")
_PREDS = _Param("preds", "JSON-lines prediction dump")
_IOU = _Param("iou", "pair IoU threshold", _float, 0.5, hashed=True)
_EPOCHS = _Param("epochs", "add/remove rounds", _int, DEFAULT_EPOCHS, hashed=True)
_COMMON = (_OUT_DIR, _SEED)  # taken by every subcommand, after its own parameters


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns ({file name: content}, stdout summary)
# ---------------------------------------------------------------------------


def _vocab_ref_path(pool_path, raw_pool) -> Path:
    """The vocabulary file a decoded pool names in its vocabulary_ref."""
    ref = annotation_header(raw_pool, pool_path)[1]
    if not ref:
        raise _UsageError("missing required parameter --vocab")
    _require_utf8(pool_path, [ref])  # the path is opened before the pool is checked
    candidate = Path(pool_path).parent / ref
    return candidate if candidate.exists() else Path(ref)


def _summary(d: Dataset, dist: ClassDistribution) -> dict:
    """Size and count extremes of one dataset, as ``stats.json`` reports them."""
    return {"images": len(d), "instances": dist.total_instances, "max_count": dist.max_count,
            "min_count": dist.min_count, "median_count": dist.median_count}


def _cmd_stats(p):
    if p.vocab is not None:
        vocab = load_vocabulary(p.vocab)
        pool = load_dataset(p.pool, vocab)
    else:  # the pool names its vocabulary; decode it once for both
        raw_pool = read_json(p.pool)
        vocab = load_vocabulary(_vocab_ref_path(p.pool, raw_pool))
        pool = load_dataset(p.pool, vocab, raw=raw_pool)
    dist = distribution(pool)
    ordered = sort_classes(dist, vocab)

    report = {
        "meta": p.meta,
        **_summary(pool, dist),
        "median_count_including_zero": distribution(pool, include_zero=True).median_count,
        "classes": len(vocab),
        "sorted_class_ids": list(ordered),
    }
    rows = [["class_id", "verb", "object", "count"]] + [
        [c.class_id, c.verb_name, c.object_name, dist.count(c.class_id)]
        for c in vocab
    ]

    if p.test:
        test = load_dataset(p.test, vocab)
        ratios = ratio_report(pool, test)  # one row per class, in vocabulary order
        report["test"] = _summary(test, distribution(test))
        report["ratios"] = [asdict(r) for r in ratios]
        rows = [["class_id", "verb", "object", "train_count", "test_count", "ratio"]] + [
            [c.class_id, c.verb_name, c.object_name, r.train_count, r.test_count,
             "undefined" if r.ratio is None else r.ratio]
            for c, r in zip(vocab, ratios)
        ]

    return ({"stats.json": report, "per_class.csv": rows},
            f"stats: {len(pool)} images, {dist.total_instances} instances -> {p.out_dir}")


def _cmd_balance(p):
    vocab = load_vocabulary(p.vocab)
    pool = load_dataset(p.pool, vocab)
    classes = top_k(vocab, sort_classes(pool, vocab), p.top_k)

    # Test pass consumes the base seed; the train pass uses seed + 1.
    test_cfg = BalanceConfig(p.l_test, epochs=p.epochs, seed=p.seed)
    train_cfg = BalanceConfig(p.l_train, epochs=p.epochs, seed=p.seed + 1)
    result = build_splits(pool, classes, test_cfg, train_cfg)

    test, train, deficits = result.test.balanced, result.train.balanced, result.train.deficits
    filled = None
    if p.augmented:
        filled = train = fill_deficits(train, deficits, load_dataset(p.augmented, vocab))

    return {
        "test.json": test,
        "train.json": train,
        "deficits.json": {str(c): n for c, n in sorted(deficits.items())},
        "audit.json": {"meta": p.meta, **result.audit(filled)},
    }, (
        f"balance: test {len(test)} images / {test.total_instances} "
        f"instances, train {len(train)} images / {train.total_instances} instances, "
        f"{len(deficits)} deficit classes -> {p.out_dir}"
    )


def _cmd_zeroshot(p):
    seen = load_vocabulary(p.seen)
    universe = load_vocabulary(p.universe)
    pool = load_dataset(p.pool, universe)
    result = build_zeroshot_split(enumerate_candidates(seen, universe), pool,
                                  BalanceConfig(p.per_class, epochs=p.epochs, seed=p.seed),
                                  p.classes)

    return {
        "zeroshot.json": result.dataset,
        "zeroshot_report.json": {"meta": p.meta, **result.to_report_dict()},
    }, (
        f"zeroshot: {len(result.selected_class_ids)} classes x {p.per_class} = "
        f"{result.dataset.total_instances} instances -> {p.out_dir}"
    )


def _cmd_augment(p):
    if p.ports == "http" and not p.http_base:
        raise _UsageError("missing required parameter --http-base for --ports http")
    vocab = load_vocabulary(p.vocab)
    refs = load_dataset(p.refs, vocab)
    raw_deficits = read_json(p.deficits)
    if not isinstance(raw_deficits, dict):
        raise DataError(f"{p.deficits}: deficits file must be a JSON object")
    try:
        deficits = {_int(c): _int(n) for c, n in raw_deficits.items()}
    except (TypeError, ValueError):
        raise DataError(f"{p.deficits}: deficit class ids and counts must be integers") from None
    for class_id, n in sorted(deficits.items()):
        if n < 0:
            raise DataError(f"{p.deficits}: class {class_id} has a negative deficit count {n}")
    # Resolve every class before the first port call.
    classes = [vocab.get(class_id) for class_id in sorted(deficits)]

    ports = mock_ports() if p.ports == "mock" else http_ports(p.http_base)

    records: list[ImageRecord] = []
    attempt_rows: list[dict] = []
    summary: dict[str, dict] = {}
    for cls in classes:
        class_id = cls.class_id
        target = deficits[class_id] if p.target == "per-deficit" else int(p.target)
        if target <= 0:
            continue
        gen = generate_valid_images(
            cls,
            GenerationBudget(max_attempts_per_class=p.budget, target_valid=target),
            ports,
            refs,
            seed=p.seed + class_id,  # documented per-class stream derivation
        )
        for rec in gen.attempts:
            attempt_rows.append({"class_id": class_id, **rec.to_dict()})
        valid_images = gen.valid_images
        summary[str(class_id)] = {
            "status": gen.status,
            "valid_images": len(valid_images),
            "attempts": len(gen.attempts),
            "paraphrase_events": gen.paraphrase_events,
            "generator_calls": gen.generator_calls,
        }
        for i, (image_ref, pairs) in enumerate(valid_images):
            boxes = [b for pair in pairs for b in (pair.human_box, pair.object_box)]
            width = max(1, int(max(b.x2 for b in boxes)) + 1)
            height = max(1, int(max(b.y2 for b in boxes)) + 1)
            instances = tuple(
                HoiInstance(pair.human_box, pair.object_box, class_id, "generated")
                for pair in pairs
            )
            records.append(
                ImageRecord(
                    image_id=f"aug_{class_id}_{i:04d}",
                    file_name=image_ref,
                    width=width,
                    height=height,
                    instances=instances,
                )
            )

    return {
        "augmented.json": Dataset(records, vocab, os.path.relpath(
            os.path.realpath(p.vocab), os.path.realpath(p.out_dir))),
        "attempts.jsonl": attempt_rows,
        "augment_report.json": {"meta": p.meta, "classes": summary},
    }, (
        f"augment: {len(records)} generated images for {len(deficits)} deficit "
        f"classes -> {p.out_dir}"
    )


def _matches(p, vocab: Vocabulary, gt: Dataset) -> dict:
    """Per class with a true positive, its true-positive ranks and scores when the
    dump ``p.preds`` is matched against ``gt`` at ``p.iou``, from the load cache's
    match entry (README, "Load cache").  Only a miss imports the evaluator: it
    loads the dump and matches every class.  The entry is stored only if the
    dump's own load may be, so a dump that took the row rule warns on every run."""
    from .scoring import MatchConfig, match_entry, matches_of

    dump = cache._file_key(p.preds, "predictions", vocab)

    def match(_):
        _bind_scoring()
        from .evaluator import class_matches

        preds = load_predictions(p.preds, vocab)
        MatchConfig(iou_threshold=p.iou)  # a bad threshold fails after the dump's errors
        return match_entry(class_matches(preds, gt, p.iou)), [], preds.key == dump

    split = gt._cols.key
    name = f"match (IoU {p.iou}) of {p.preds} against {split[:12]}"
    _, arrays, _, _ = cache.cached(name, "match", [split, dump, p.iou], match, b"")
    return matches_of(arrays)


def _cmd_evaluate(p):
    from .scoring import evaluate_matches

    vocab = load_vocabulary(p.vocab)
    gt = load_dataset(p.gt, vocab)
    report = evaluate_matches(_matches(p, vocab, gt), gt, vocab, p.ap_method)

    rows = [["class_id", "verb", "object", "ap"]] + [
        [c, vocab.get(c).verb_name, vocab.get(c).object_name, ap]
        for c, ap in sorted(report.per_class_ap.items())
    ]
    return {"report.json": {"meta": p.meta, **report.to_dict()}, "per_class_ap.csv": rows}, (
        f"evaluate: mAP {report.mean_ap:.4f} over {report.num_evaluated} classes -> {p.out_dir}"
    )


def _cmd_perturb(p):
    from .scoring import MatchConfig, perturb_matches

    vocab = load_vocabulary(p.vocab)
    vocab.get(p.class_id)  # an unknown class fails before the split and dump are loaded
    gt = load_dataset(p.gt, vocab)
    result = perturb_matches(_matches(p, vocab, gt), p.class_id, gt.count(p.class_id),
                             MatchConfig().ap_method, p.flip)

    return {"perturb.json": {"meta": p.meta, **asdict(result)}}, (
        f"perturb: class {p.class_id} AP {result.original_ap:.4f} -> "
        f"{result.perturbed_ap:.4f} ({result.relative_drop:.1%} drop) -> {p.out_dir}"
    )


def _load_report_dir(path: str) -> dict[str, float]:
    reports = {}
    for f in sorted(entry for entry in Path(path).iterdir() if entry.name.endswith(".json")):
        raw = read_json(f)
        value = raw.get("mean_ap") if isinstance(raw, dict) else None
        try:  # a finite JSON number; bools, strings and NaN/Infinity are not
            valid = not isinstance(value, bool) and math.isfinite(value)
        except (TypeError, OverflowError):
            valid = False
        if not valid:
            raise DataError(f"{f}: report file must contain a finite numeric 'mean_ap' field")
        reports[f.stem] = float(value)
    if not reports:
        raise DataError(f"{path}: no report JSON files found")
    return reports


def _cmd_compare(p):
    rows = ranking_shift(_load_report_dir(p.a), _load_report_dir(p.b))
    lines = []
    for r in rows:
        arrow = "=" if r.delta == 0 else ("up" if r.delta > 0 else "down")
        lines.append(f"{r.model}: {r.map_a} (rank {r.rank_a}) -> {r.map_b} "
                     f"(rank {r.rank_b}, {arrow} {abs(r.delta)})")
    return {
        "ranking.json": {"meta": p.meta, "rows": [asdict(r) for r in rows]},
        "ranking.csv": [[f.name for f in fields(rows[0])]] + [astuple(r) for r in rows],
    }, "\n".join(lines)


def _write_artifacts(p, artifacts: dict) -> None:
    """Create ``p.out_dir`` and write each artifact by kind: a Dataset as a split stamped
    with ``p.meta``, ``.csv`` as rows, ``.jsonl`` as JSON lines, anything else as JSON."""
    p.out_dir.mkdir(parents=True, exist_ok=True)
    for name, content in artifacts.items():
        path = p.out_dir / name
        if isinstance(content, Dataset):
            save_split(content, path, meta=p.meta)
        elif name.endswith(".csv"):
            with open(path, "w", newline="", encoding="utf-8") as f:
                csv.writer(f).writerows(content)
        elif name.endswith(".jsonl"):
            write_json_lines(path, content)
        else:
            write_json(path, content)


# ---------------------------------------------------------------------------
# Parser assembly and entry point
# ---------------------------------------------------------------------------


# name -> (handler, help, parameters); each parameter's flag is ``--`` plus its
# key with dashes, except ``--class`` for ``class_id``.
_COMMANDS = {
    "stats": (_cmd_stats, "distribution diagnostics for a dataset", (
        _Param("pool", "annotation file to analyze"),
        _VOCAB._replace(help="vocabulary file (default: the pool's vocabulary_ref)",
                        default=None),
        _Param("test", "optional test split for ratio report", default=None),
    )),
    "balance": (_cmd_balance, "build balanced test and train splits", (
        _Param("pool", "unified annotation file (real images only)"),
        _VOCAB,
        _Param("top_k", "number of classes to balance", _int, hashed=True),
        _Param("l_test", "test instances per class", _int, hashed=True),
        _Param("l_train", "train instances per class", _int, hashed=True),
        _EPOCHS,
        _Param("augmented", "fill train deficits from this file", default=None),
    )),
    "zeroshot": (_cmd_zeroshot, "build the balanced zero-shot test split", (
        _Param("seen", "seen (training) vocabulary file"),
        _Param("universe", "full vocabulary file"),
        _Param("pool", "real images unused by train/test"),
        _Param("per_class", "instances per selected class", _int, 10, hashed=True),
        _Param("classes", "class budget", _int, DEFAULT_CLASS_BUDGET, hashed=True),
        _EPOCHS,
    )),
    "augment": (_cmd_augment, "generate and filter images for deficit classes", (
        _Param("deficits", "deficits JSON from the balance step"),
        _Param("refs", "reference annotation file for prompt retrieval"),
        _VOCAB,
        _Param("budget", "max attempts per class", _int, 50, hashed=True),
        _Param("target", "valid images per class, or 'per-deficit'", _target, "per-deficit",
               hashed=True),
        _Param("ports", "service port backend", _str, "mock", ("mock", "http"), hashed=True),
        _Param("http_base", "base URL for http ports", default=None),
    )),
    "evaluate": (_cmd_evaluate, "score a prediction dump against a split", (
        _GT,
        _PREDS,
        _VOCAB,
        _IOU,
        _Param("ap_method", "AP interpolation", _str, "all_point", ("all_point", "eleven_point"),
               hashed=True),
    )),
    "perturb": (_cmd_perturb, "TP-flip sensitivity probe for one class", (
        _Param("class_id", "class id to probe", _int, hashed=True),
        _GT,
        _PREDS,
        _VOCAB,
        _IOU,
        _Param("flip", "which true positive to flip", _str, "top", ("top", "lowest"), hashed=True),
    )),
    "compare": (_cmd_compare, "ranking shifts between two report directories", (
        _Param("a", "directory of report JSONs (benchmark A)"),
        _Param("b", "directory of report JSONs (benchmark B)"),
    )),
}


def _flag(param: _Param) -> str:
    return "--class" if param.key == "class_id" else "--" + param.key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    """Flags only; values stay strings until :func:`_resolve` checks them."""
    parser = _Parser(
        prog="bright-kit",
        description="Balanced benchmark construction and re-evaluation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"bright-kit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, params) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for param in params + _COMMON:
            text = param.help
            if param.default not in (_REQUIRED, None):
                text += f" (default {param.default})"
            metavar = "{" + ",".join(param.choices) + "}" if param.choices else None
            sub.add_argument(_flag(param), dest=param.key, metavar=metavar, help=text)
        sub.add_argument("--config", help="JSON config file; flags override it")
    return parser


def _resolve(args: argparse.Namespace) -> argparse.Namespace:
    """Each parameter from its flag, the config file's command section, the
    config file's top level or its default, in that order, then coerced and
    checked the same way whichever source it came from; plus the ``meta``
    stamp of the run."""
    config: dict = {}
    if args.config is not None:
        config = read_json(args.config)
        if not isinstance(config, dict):
            raise DataError(f"{args.config}: config file must be a JSON object")
    section = {} if config.get(args.command) is None else config[args.command]
    if not isinstance(section, dict):
        raise DataError(f"{args.config}: config section {args.command!r} must be a JSON object")
    resolved = argparse.Namespace()
    params = _COMMANDS[args.command][2] + _COMMON
    for param in params:
        sources = (getattr(args, param.key), section.get(param.key), config.get(param.key))
        value = next((v for v in sources if v is not None), param.default)
        if value is _REQUIRED:
            raise _UsageError(f"missing required parameter {_flag(param)}")
        if value is not None:
            try:
                value = param.coerce(value)
            except (TypeError, ValueError) as exc:
                raise _UsageError(f"invalid value {value!r} for {_flag(param)}: {exc}") from None
            if param.choices and value not in param.choices:
                raise _UsageError(f"{_flag(param)} must be one of {', '.join(param.choices)}")
        setattr(resolved, param.key, value)
    hashed = {param.key: getattr(resolved, param.key) for param in params if param.hashed}
    if args.command in ("balance", "zeroshot"):
        hashed["balancer_version"] = BALANCER_VERSION
    resolved.meta = _make_meta(resolved.seed, {"command": args.command, **hashed})
    return resolved


def _emit_error(kind: str, exc: Exception, code: int) -> int:
    """Print the JSON error line for ``exc`` on stderr; returns the exit code."""
    payload: dict = {"error": {"type": kind, "message": str(exc)}}
    filename = getattr(exc, "filename", None)
    if filename:
        payload["error"]["path"] = str(filename)
    print(json.dumps(payload, sort_keys=True), file=sys.stderr)
    return code


def main(argv=None) -> int:
    level = getattr(logging, os.environ.get("BRIGHT_KIT_LOG", "WARNING").upper(), None)
    logging.basicConfig(level=level if isinstance(level, int) else logging.WARNING)
    try:
        args = build_parser().parse_args(argv)
        p = _resolve(args)
        artifacts, summary = _COMMANDS[args.command][0](p)
        _write_artifacts(p, artifacts)
        print(summary)
    except _UsageError as exc:
        return _emit_error("UsageError", exc, 2)
    except DataError as exc:
        return _emit_error(type(exc).__name__, exc, 3)
    except OSError as exc:
        return _emit_error(type(exc).__name__, exc, 4)
    return 0


def run() -> NoReturn:
    """The process entry (``python -m bright_kit``, ``bright-kit``): :func:`main`, then
    exit with its code.  numpy loads with one OpenBLAS thread unless the user chose a
    count: the evaluator calls no BLAS routine.  Freezing the collector first lets the
    interpreter's shutdown collections skip what the OS reclaims anyway (README, "CLI")."""
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        code = main()
    finally:
        gc.freeze()
    sys.exit(code)
