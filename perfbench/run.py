#!/usr/bin/env python3
"""bright-kit benchmark: CLI workloads timed per process, plus a traced run.

    python3 perfbench/run.py --workload build-longtail --seed 1 --seconds 30 --trace 0

Run from the root of a bright-kit source tree.  Every command runs as its own
``python -m bright_kit`` process with ``PYTHONPATH=<tree>/src``, one after
another from this single process (a closed loop with one client).  The
command sequence of a workload repeats until ``--seconds`` have passed; the
metrics are medians over those repetitions.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
sequence in process instead, alternating untraced jobs with jobs traced by
``spans.py``, and prints the per-layer metrics.  Either way the last line of
standard output is one JSON object; the line before it is a JSON record of
the run's context (versions, input sizes, per-command times, every span
total).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs as gen  # noqa: E402
from oracle import reference_scores  # noqa: E402
from spans import Instrumentation, Tracer  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"

SETUP_REPEATS = 3
STARTUP_SAMPLES = 5
SPARSE_BACKGROUND_PER_IMAGE = 25
CROWD_IMAGES = 200
CROWD_CLASSES = 100
CROWD_CLASSES_PER_IMAGE = 2
CROWD_INSTANCES_PER_CLASS = 40
CROWD_PREDS_PER_INSTANCE = 2


@dataclass
class Step:
    """One CLI command of a workload; ``name`` + ``_s`` is its metric."""

    name: str
    argv: Callable[[Path], list[str]]  # job directory -> arguments


@dataclass
class Workload:
    name: str
    seed: int
    inp: Path
    steps: list[Step] = field(default_factory=list)
    sizes: dict = field(default_factory=dict)  # input sizes for the context record

    def setup(self) -> None:
        """Write every input under ``inp`` and define ``steps``."""
        raise NotImplementedError

    def after_step(self, step: str, job: Path) -> None:
        """Benchmark glue between commands of the first job (untimed)."""

    def prepare_reference(self) -> None:
        """Compute what the correctness gate compares against (untimed)."""

    def check(self, job: Path) -> dict[str, list[str]]:
        """Invariant failures per step, on one job's artifacts."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def toolkit_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # Let the warm-up write the bytecode cache, as an installed package has
    # one; otherwise every command would compile the toolkit again.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["BRIGHT_KIT_LOG"] = "WARNING"
    return env


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    code: int


def run_cli(argv: list, log: Path) -> Sample:
    """One ``python -m bright_kit`` process, accounted on its own through
    ``os.wait4``.

    ``RUSAGE_CHILDREN`` would keep one running maximum RSS across every
    child and blend the commands together."""
    with open(log, "ab") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "bright_kit", *map(str, argv)], cwd=ROOT, env=toolkit_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                  proc.returncode)


def warm_up(log: Path) -> Sample:
    """Interpreter start plus every toolkit import; also writes the bytecode
    cache so that no timed command compiles."""
    return run_cli(["--version"], log)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _load(path: Path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _balance_args(inp: Path, seed: int) -> list:
    return ["balance", "--pool", inp / "pool.json", "--vocab", inp / "vocab600.json",
            "--top-k", gen.TOP_K, "--l-test", gen.L_TEST, "--l-train", gen.L_TRAIN,
            "--epochs", gen.EPOCHS, "--seed", seed]


class BuildLongtail(Workload):
    def setup(self) -> None:
        inp, seed = self.inp, self.seed
        vocab, self.images = gen.long_tail_pool(seed)
        self.top = gen.top_classes(vocab, self.images)
        top = set(self.top)
        gen.write_json(inp / "vocab600.json", vocab)
        gen.write_json(inp / "vocab351.json", [r for r in vocab if r["class_id"] in top])
        self.sizes = {
            "pool_images": len(self.images),
            "pool_instances": sum(len(i["instances"]) for i in self.images),
            "pool_bytes": gen.write_dataset(inp / "pool.json", self.images, "vocab600.json"),
        }
        pool, vocab600 = inp / "pool.json", inp / "vocab600.json"
        self.steps = [
            Step("stats", lambda j: ["stats", "--pool", pool, "--vocab", vocab600,
                                     "--out-dir", j / "stats"]),
            Step("balance", lambda j: _balance_args(inp, seed) + ["--out-dir", j / "balance"]),
            Step("augment", lambda j: ["augment", "--deficits", j / "balance" / "deficits.json",
                                       "--refs", pool, "--vocab", vocab600, "--ports", "mock",
                                       "--target", "per-deficit", "--seed", seed,
                                       "--out-dir", j / "augment"]),
            Step("balance_fill", lambda j: _balance_args(inp, seed) + [
                "--augmented", j / "augment" / "augmented.json", "--out-dir", j / "balance_fill"]),
            Step("zeroshot", lambda j: ["zeroshot", "--seen", inp / "vocab351.json",
                                        "--universe", vocab600, "--pool", inp / "remainder.json",
                                        "--per-class", gen.ZS_PER_CLASS, "--seed", seed,
                                        "--out-dir", j / "zeroshot"]),
        ]

    def after_step(self, step: str, job: Path) -> None:
        # The zero-shot pool is what test and train left of the pool.  Later
        # jobs must reproduce these splits byte for byte, so one file serves.
        path = self.inp / "remainder.json"
        if step != "balance_fill" or path.exists():
            return
        try:
            used = {img["image_id"] for name in ("test.json", "train.json")
                    for img in _load(job / "balance_fill" / name)["images"]}
        except (OSError, ValueError, KeyError):
            return  # the failed step is counted; zeroshot then fails too
        rest = [img for img in self.images if img["image_id"] not in used]
        self.sizes["remainder_images"] = len(rest)
        self.sizes["remainder_bytes"] = gen.write_dataset(path, rest, "vocab600.json")

    def check(self, job: Path) -> dict[str, list[str]]:
        bad: dict[str, list[str]] = {}
        top = set(self.top)
        for step in ("balance", "balance_fill"):
            errs = bad.setdefault(step, [])
            try:
                test = _load(job / step / "test.json")
                train = _load(job / step / "train.json")
                audit = _load(job / step / "audit.json")
            except (OSError, ValueError) as exc:
                errs.append(f"unreadable artifact: {exc}")
                continue
            deficits = {int(c): n for c, n in audit["test"]["deficits"].items()}
            counts = gen.class_counts(test["images"])
            if set(counts) - top:
                errs.append("test holds classes outside the top-k")
            wrong = [c for c in top if counts.get(c, 0) + deficits.get(c, 0) != gen.L_TEST]
            if wrong:
                errs.append(f"{len(wrong)} classes miss l_test after deficits, e.g. {wrong[0]}")
            if {i["image_id"] for i in test["images"]} & {i["image_id"] for i in train["images"]}:
                errs.append("test and train share images")
            if step == "balance_fill":
                total = sum(gen.class_counts(train["images"]).values())
                if total != gen.TOP_K * gen.L_TRAIN:
                    errs.append(f"filled train holds {total} instances, "
                                f"not {gen.TOP_K * gen.L_TRAIN}")
        errs = bad.setdefault("zeroshot", [])
        try:
            report = _load(job / "zeroshot" / "zeroshot_report.json")
            counts = gen.class_counts(_load(job / "zeroshot" / "zeroshot.json")["images"])
        except (OSError, ValueError) as exc:
            errs.append(f"unreadable artifact: {exc}")
        else:
            chosen = report["selected_classes"]
            if not chosen:
                errs.append("no zero-shot class selected")
            if set(counts) != set(chosen) or any(counts[c] != gen.ZS_PER_CLASS for c in chosen):
                errs.append(f"zero-shot classes do not hold exactly {gen.ZS_PER_CLASS} instances")
        return {k: v for k, v in bad.items() if v}


class _Scoring(Workload):
    """Shared correctness gate of the score-* workloads."""

    def _score_steps(self, gt: Path, preds: Path, vocab: Path, perturb: bool) -> None:
        self.steps = [Step("evaluate", lambda j: ["evaluate", "--gt", gt, "--preds", preds,
                                                  "--vocab", vocab, "--out-dir", j / "evaluate"])]
        if perturb:
            self.steps.append(Step("perturb", lambda j: [
                "perturb", "--class", self.probe_class, "--gt", gt, "--preds", preds,
                "--vocab", vocab, "--out-dir", j / "perturb"]))

    def prepare_reference(self) -> None:
        gt, rows = self.gt_images, self.rows
        self.reference = reference_scores(gt, rows, self.class_ids)
        self.sizes.update({
            "gt_images": len(gt),
            "gt_instances": sum(len(i["instances"]) for i in gt),
            "prediction_rows": len(rows),
            "pair_candidates": gen.pair_candidates(gt, rows),
            "reference_map": self.reference["mean_ap"],
            "reference_tp": self.reference["tp"],
        })
        hit = [c for c, ap in sorted(self.reference["per_class_ap"].items()) if ap > 0]
        self.probe_class = hit[0] if hit else None

    def check(self, job: Path) -> dict[str, list[str]]:
        bad: dict[str, list[str]] = {}
        try:
            report = _load(job / "evaluate" / "report.json")
        except (OSError, ValueError) as exc:
            return {"evaluate": [f"unreadable report: {exc}"]}
        want = self.reference["mean_ap"]
        if not math.isclose(report["mean_ap"], want, rel_tol=1e-12, abs_tol=1e-12):
            bad["evaluate"] = [f"mAP {report['mean_ap']!r} != reference {want!r}"]
        if any(s.name == "perturb" for s in self.steps):
            try:
                probe = _load(job / "perturb" / "perturb.json")
            except (OSError, ValueError) as exc:
                bad["perturb"] = [f"unreadable perturb.json: {exc}"]
            else:
                ap = report["per_class_ap"].get(str(self.probe_class))
                if probe["original_ap"] != ap:
                    bad["perturb"] = [f"original_ap {probe['original_ap']!r} != report AP {ap!r}"]
        return bad


class ScoreSparse(_Scoring):
    def setup(self) -> None:
        inp, seed = self.inp, self.seed
        vocab, images = gen.long_tail_pool(seed)
        self.class_ids = gen.top_classes(vocab, images)
        top = set(self.class_ids)
        gen.write_json(inp / "vocab351.json", [r for r in vocab if r["class_id"] in top])
        self.gt_images = gen.balanced_test_split(seed, images, self.class_ids)
        self.rows = gen.sparse_dump(seed, self.gt_images, self.class_ids,
                                    SPARSE_BACKGROUND_PER_IMAGE)
        self.sizes = {
            "gt_bytes": gen.write_dataset(inp / "gt.json", self.gt_images, "vocab351.json"),
            "prediction_bytes": gen.write_json_lines(inp / "preds.jsonl", self.rows),
        }
        self._score_steps(inp / "gt.json", inp / "preds.jsonl", inp / "vocab351.json",
                          perturb=True)


class ScoreCrowded(_Scoring):
    def setup(self) -> None:
        inp, seed = self.inp, self.seed
        vocab = gen.long_tail_pool(seed, n_images=0)[0][:CROWD_CLASSES]
        self.class_ids = [r["class_id"] for r in vocab]
        self.gt_images = gen.crowded_gt(seed, self.class_ids, CROWD_IMAGES,
                                        CROWD_CLASSES_PER_IMAGE, CROWD_INSTANCES_PER_CLASS)
        self.rows = gen.crowded_dump(seed, self.gt_images, CROWD_PREDS_PER_INSTANCE)
        gen.write_json(inp / "vocab.json", vocab)
        self.sizes = {
            "gt_bytes": gen.write_dataset(inp / "gt.json", self.gt_images, "vocab.json"),
            "prediction_bytes": gen.write_json_lines(inp / "preds.jsonl", self.rows),
        }
        self._score_steps(inp / "gt.json", inp / "preds.jsonl", inp / "vocab.json",
                          perturb=False)


WORKLOADS = {"build-longtail": BuildLongtail, "score-sparse": ScoreSparse,
             "score-crowded": ScoreCrowded}


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(directory)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def set_up(name: str, seed: int, base: Path, log: Path,
           repeats: int) -> tuple[Workload, list[float]]:
    """Set the workload up ``repeats`` times; each time generates every
    input afresh and warms up.  The inputs must come out byte-identical."""
    times, digests, wl = [], set(), None
    for _ in range(repeats):
        inp = base / "inputs"
        shutil.rmtree(inp, ignore_errors=True)
        inp.mkdir(parents=True)
        started = time.perf_counter()
        wl = WORKLOADS[name](name, seed, inp)
        wl.setup()
        warm_up(log)
        times.append(time.perf_counter() - started)
        digests.add(digest(inp))
    if len(digests) != 1:
        raise RuntimeError("the same seed generated different inputs")
    wl.prepare_reference()
    return wl, times


class Clock:
    """Run length in measured seconds: the summed wall time of the jobs, not
    the benchmark's own checking between them.  Another job starts only if
    a typical job still fits, so the job count of a workload is stable."""

    def __init__(self, seconds: float):
        self.seconds = seconds
        self.jobs: list[float] = []

    def add(self, job_s: float) -> None:
        self.jobs.append(job_s)

    def room(self) -> bool:
        return sum(self.jobs) + statistics.median(self.jobs) <= self.seconds


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)


def gate(wl: Workload, job: Path, rep: int, codes: dict[str, int],
         reference: dict[str, str], tally: Tally) -> None:
    """Count each command once: failed on a nonzero exit, a broken invariant
    (first job), or artifacts whose bytes differ from the first job's."""
    invariants = wl.check(job) if rep == 0 else {}
    for step in wl.steps:
        tally.attempted += 1
        out = job / step.name
        if codes.get(step.name) != 0:
            tally.fail(f"job {rep} {step.name}: exit {codes.get(step.name)}")
        elif invariants.get(step.name):
            tally.fail(f"job {rep} {step.name}: {'; '.join(invariants[step.name])}")
        elif rep == 0:
            reference[step.name] = digest(out)
        elif digest(out) != reference.get(step.name):
            tally.fail(f"job {rep} {step.name}: artifact bytes differ from job 0")


def measure_processes(wl: Workload, base: Path, seconds: float, log: Path):
    tally, reference = Tally(), {}
    per_step: dict[str, list[float]] = {s.name: [] for s in wl.steps}
    jobs = []  # (wall, cpu, peak rss)
    clock = Clock(seconds)
    rep = 0
    while rep == 0 or clock.room():
        job = base / f"job{rep}"
        shutil.rmtree(job, ignore_errors=True)
        job.mkdir(parents=True)
        samples, codes = [], {}
        for step in wl.steps:
            s = run_cli(step.argv(job), log)
            samples.append(s)
            codes[step.name] = s.code
            per_step[step.name].append(s.wall_s)
            if rep == 0:
                wl.after_step(step.name, job)
        jobs.append((sum(s.wall_s for s in samples), sum(s.cpu_s for s in samples),
                     max(s.maxrss_mb for s in samples)))
        clock.add(jobs[-1][0])
        gate(wl, job, rep, codes, reference, tally)
        if rep > 0:
            shutil.rmtree(job)
        rep += 1
    return tally, per_step, jobs


def import_toolkit() -> dict:
    sys.path.insert(0, str(SRC))
    names = ("cli", "model", "balancer", "zeroshot", "evaluator", "errors")
    mods = {n: importlib.import_module(f"bright_kit.{n}") for n in names}
    loaded = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in loaded.parents:
        raise RuntimeError(f"imported bright_kit from {loaded}, not from {SRC}")
    return mods


def run_in_process(mods: dict, wl: Workload, job: Path, tracer: Tracer | None, err,
                   after: Callable[[str, Path], None] | None = None):
    """One job through ``bright_kit.cli.main`` in this process; returns the
    per-step wall times and exit codes.  ``err`` takes the job's stderr."""
    walls, codes = {}, {}
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        for step in wl.steps:
            argv = [str(a) for a in step.argv(job)]
            span = tracer.open(f"cli.{step.name}") if tracer else None
            started = time.perf_counter()
            try:
                codes[step.name] = mods["cli"].main(argv)
            except SystemExit as exc:  # argparse rejecting the arguments
                codes[step.name] = exc.code
            except Exception as exc:  # a crash is a failed command, not a failed run
                print(f"{step.name}: {type(exc).__name__}: {exc}", file=err)
                codes[step.name] = -1
            walls[step.name] = time.perf_counter() - started
            if span:
                tracer.close(span)
            if after:
                after(step.name, job)
    return walls, codes


def measure_traced(wl: Workload, base: Path, seconds: float, log: Path):
    """After one in-process warm-up job (the byte reference, timed for the
    run length only), alternate untraced and traced jobs until ``seconds``
    have passed and at least one of each has run."""
    os.environ["BRIGHT_KIT_LOG"] = "WARNING"
    mods = import_toolkit()
    tracer = Tracer()
    tally, reference = Tally(), {}
    plain, traced, missing = [], [], []
    clock = Clock(seconds)
    rep = 0
    # One stderr for the whole run: the toolkit's logging handler keeps the
    # stream it first saw.
    with open(log, "a", encoding="utf-8") as err:
        while rep < 3 or clock.room():
            job = base / f"job{rep}"
            shutil.rmtree(job, ignore_errors=True)
            job.mkdir(parents=True)
            gc.collect()
            if rep % 2 == 0:
                after = wl.after_step if rep == 0 else None
                walls, codes = run_in_process(mods, wl, job, None, err, after)
                if rep > 0:
                    plain.append(sum(walls.values()))
            else:
                tracer.job = f"job{rep}"
                with Instrumentation(tracer, mods) as inst:
                    walls, codes = run_in_process(mods, wl, job, tracer, err)
                missing = inst.missing
                traced.append((tracer.job, sum(walls.values())))
            clock.add(sum(walls.values()))
            gate(wl, job, rep, codes, reference, tally)
            if rep > 0:
                shutil.rmtree(job)
            rep += 1
    tracer.write(base / "spans.jsonl")
    return tally, tracer, plain, traced, missing


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(wl: Workload, tracer: Tracer, job: str) -> dict[str, float]:
    """Every per-layer figure of one traced job, by metric name."""
    total, self_s = tracer.totals(job)
    n = tracer.counts.get(job, {})

    def t(name: str) -> float:
        return total.get(name, 0.0)

    removed = n.get("balancer.removed_annotations", 0)
    out = {
        "jsonio.read_json.s": t("jsonio.read_json"),
        "jsonio.write_json.s": t("jsonio.write_json"),
        "jsonio.write_json_lines.s": t("jsonio.write_json_lines"),
        "jsonio.read_json_lines.s": t("jsonio.read_json_lines"),
        "jsonio.bytes_read": n.get("jsonio.bytes_read", 0),
        "jsonio.bytes_written": n.get("jsonio.bytes_written", 0),
        "model.load_dataset.self_s": self_s.get("model.load_dataset", 0.0),
        "model.load_vocabulary.s": t("model.load_vocabulary"),
        "model.Dataset.s": t("model.Dataset"),
        "model.restrict.self_s": self_s.get("model.restrict", 0.0),
        "model.save_split.self_s": self_s.get("model.save_split", 0.0),
        "model.instances_built": n.get("model.instances_built", 0),
        "stats.s": sum(t(f"stats.{f}") for f in
                       ("distribution", "sort_classes", "top_k", "ratio_report")),
        "balancer.build_splits.self_s": self_s.get("balancer.build_splits", 0.0),
        "balancer.balance.self_s": self_s.get("balancer.balance", 0.0),
        "balancer.fill_deficits.self_s": self_s.get("balancer.fill_deficits", 0.0),
        "balancer.selected_images": n.get("balancer.selected_images", 0),
        "balancer.removed_annotations": removed,
        "balancer.trim_ratio": ratio(removed, n.get("balancer.kept_instances", 0) + removed),
        "zeroshot.build_zeroshot_split.self_s": self_s.get("zeroshot.build_zeroshot_split", 0.0),
        "zeroshot.selected_classes": n.get("zeroshot.selected_classes", 0),
        "augment.generate_valid_images.self_s":
            self_s.get("augment.generate_valid_images", 0.0),
        "augment.port_s": t("augment.port"),
        "augment.port_calls": n.get("augment.port_calls", 0),
        "augment.port_errors": n.get("augment.port_errors", 0),
        "augment.valid_per_attempt": ratio(n.get("augment.valid_images", 0),
                                           n.get("augment.attempts", 0)),
        "evaluator.load_predictions.self_s": self_s.get("evaluator.load_predictions", 0.0),
        "evaluator.predictions": n.get("evaluator.predictions", 0),
        "evaluator.evaluate.s": t("evaluator.evaluate"),
        "evaluator.perturb_tp_flip.s": t("evaluator.perturb_tp_flip"),
        "evaluator.pair_candidates": wl.sizes.get("pair_candidates", 0),
        "evaluator.tp_ratio": ratio(wl.sizes.get("reference_tp", 0),
                                    wl.sizes.get("prediction_rows", 0)),
    }
    out.update({f"span.{k}.total_s": v for k, v in sorted(total.items())})
    return out


def benchmark_spec() -> dict:
    return _load(ROOT / "BENCHMARK.json")


def context(wl: Workload, spec: dict, seconds: int, trace: int, extra: dict) -> dict:
    sha = "unknown"  # the tree is not a git checkout of its own
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10).stdout.split()
        if len(out) == 2 and Path(out[0]).resolve() == ROOT:
            sha = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    return {
        "context": {
            "workload": wl.name, "seed": wl.seed, "seconds": seconds,
            "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
            "trace": trace, "git_sha": sha, "python": platform.python_version(),
            "numpy": numpy_version, "nproc": os.cpu_count(), "inputs": wl.sizes, **extra,
        }
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # A terminated run still stops its running child (see run_cli).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "bright_kit" / "__init__.py").is_file():
        print(f"perfbench: no bright_kit source tree at {SRC}", file=sys.stderr)
        return 2
    spec = benchmark_spec()
    base = WORK / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    log = base / "commands.log"

    startup = [warm_up(log).wall_s for _ in range(STARTUP_SAMPLES)] if args.trace else []
    wl, setup_times = set_up(args.workload, args.seed, base,
                             log, 1 if args.trace else SETUP_REPEATS)
    if args.trace == 0:
        tally, per_step, jobs = measure_processes(wl, base, args.seconds, log)
        metrics = {
            "job_s": median([j[0] for j in jobs]),
            "cpu_s": median([j[1] for j in jobs]),
            "peak_rss_mb": median([j[2] for j in jobs]),
            "setup_s": median(setup_times),
        }
        names = spec["end_to_end"]
        extra = {
            "jobs": len(jobs),
            "setup_s_samples": setup_times,
            "commands_s": {f"{k}_s": median(v) for k, v in per_step.items()},
            "job_s_samples": [j[0] for j in jobs],
        }
    else:
        tally, tracer, plain, traced, missing = measure_traced(wl, base, args.seconds, log)
        per_job = [layer_metrics(wl, tracer, job) for job, _ in traced]
        layers = {k: median([m.get(k, 0.0) for m in per_job]) for k in per_job[0]}
        layers["cli.startup_s"] = median(startup)
        layers["trace.overhead_s"] = median([w for _, w in traced]) - median(plain)
        metrics = layers
        names = spec["per_layer"]
        extra = {
            "jobs_untraced": len(plain), "jobs_traced": len(traced),
            "untraced_job_s": median(plain), "traced_job_s": median([w for _, w in traced]),
            "unwrapped": missing, "layers": layers,
        }
    extra.update({"error_rate": ratio(tally.failed, tally.attempted),
                  "failures": tally.failures})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
    }
    record = context(wl, spec, args.seconds, args.trace, extra)
    gen.write_json(base / "result.json", {**record, "result": result})
    # Keep the record, spans and logs; the inputs and artifacts are large.
    for path in base.iterdir():
        if path.is_dir():
            shutil.rmtree(path)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
