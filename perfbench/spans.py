"""In-process spans around the toolkit's public functions.

The traced run imports ``bright_kit`` from the checked-out tree and replaces,
for the length of one job, the module attributes its callers look up (for
example ``bright_kit.cli.load_dataset`` or ``bright_kit.balancer.restrict``)
with wrappers that record a span per call.  The service ports of ``augment``
are wrapped in proxy objects.  Nothing in the toolkit's source changes.

A span has a name, start, end, parent span and job id.  Spans stay in memory
and are written out when the run ends.  A span's self time is its duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    job: str
    start: float
    end: float = 0.0
    child_s: float = 0.0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, dict[str, float]] = field(default_factory=dict)  # job -> key -> n
    job: str = ""
    _stack: list[Span] = field(default_factory=list)

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.job, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def add(self, key: str, n: float) -> None:
        counts = self.counts.setdefault(self.job, {})
        counts[key] = counts.get(key, 0) + n

    def totals(self, job: str) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, over the spans of ``job``."""
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        for s in self.spans:
            if s.job != job:
                continue
            d = s.end - s.start
            total[s.name] = total.get(s.name, 0.0) + d
            self_s[s.name] = self_s.get(s.name, 0.0) + d - s.child_s
        return total, self_s

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent, "job": s.job,
                    "start": s.start, "end": s.end,
                }) + "\n")


def _file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


# Counters take (tracer, call arguments, return value).
def _count_read(t: Tracer, args, result) -> None:
    t.add("jsonio.bytes_read", _file_size(args[0]))


def _count_write(t: Tracer, args, result) -> None:
    t.add("jsonio.bytes_written", _file_size(args[0]))


def _count_dataset(t: Tracer, args, result) -> None:
    t.add("model.instances_built", result.total_instances)


def _count_balance(t: Tracer, args, result) -> None:
    t.add("balancer.selected_images", len(result.balanced))
    t.add("balancer.removed_annotations", result.removed_annotations)
    t.add("balancer.kept_instances", result.balanced.total_instances)


def _count_zeroshot(t: Tracer, args, result) -> None:
    t.add("zeroshot.selected_classes", len(result.selected_class_ids))


def _count_generation(t: Tracer, args, result) -> None:
    t.add("augment.valid_images", len(result.valid_images))
    t.add("augment.attempts", len(result.attempts))


def _count_predictions(t: Tracer, args, result) -> None:
    t.add("evaluator.predictions", len(result))


# (module, attribute callers look up, span name, counter or None).
WRAP_POINTS = [
    ("cli", "read_json", "jsonio.read_json", _count_read),
    ("model", "read_json", "jsonio.read_json", _count_read),
    ("evaluator", "read_json_lines", "jsonio.read_json_lines", _count_read),
    ("cli", "write_json", "jsonio.write_json", _count_write),
    ("model", "write_json", "jsonio.write_json", _count_write),
    ("cli", "write_json_lines", "jsonio.write_json_lines", _count_write),
    ("cli", "load_vocabulary", "model.load_vocabulary", None),
    ("cli", "load_dataset", "model.load_dataset", _count_dataset),
    ("cli", "save_split", "model.save_split", None),
    ("balancer", "restrict", "model.restrict", None),
    ("zeroshot", "restrict", "model.restrict", None),
    ("cli", "distribution", "stats.distribution", None),
    ("cli", "sort_classes", "stats.sort_classes", None),
    ("cli", "top_k", "stats.top_k", None),
    ("cli", "ratio_report", "stats.ratio_report", None),
    ("cli", "build_splits", "balancer.build_splits", None),
    ("balancer", "balance", "balancer.balance", _count_balance),
    ("zeroshot", "balance", "balancer.balance", _count_balance),
    ("cli", "fill_deficits", "balancer.fill_deficits", None),
    ("cli", "build_zeroshot_split", "zeroshot.build_zeroshot_split", _count_zeroshot),
    ("cli", "generate_valid_images", "augment.generate_valid_images", _count_generation),
    ("cli", "load_predictions", "evaluator.load_predictions", _count_predictions),
    ("cli", "evaluate", "evaluator.evaluate", None),
    ("cli", "perturb_tp_flip", "evaluator.perturb_tp_flip", None),
]


def _wrap(tracer: Tracer, fn, name: str, count=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if count is not None:
            count(tracer, args, result)
        return result

    return wrapper


class _PortProxy:
    """Times every method call on one service port and counts its errors."""

    def __init__(self, tracer: Tracer, port, port_error):
        self._tracer = tracer
        self._port = port
        self._port_error = port_error

    def __getattr__(self, attr):
        method = getattr(self._port, attr)
        if not callable(method):
            return method
        tracer, port_error = self._tracer, self._port_error

        @functools.wraps(method)
        def call(*args, **kwargs):
            tracer.add("augment.port_calls", 1)
            span = tracer.open("augment.port")
            try:
                return method(*args, **kwargs)
            except port_error:
                tracer.add("augment.port_errors", 1)
                raise
            finally:
                tracer.close(span)

        return call


class Instrumentation:
    """Installs the wrappers on entry and restores every attribute on exit."""

    def __init__(self, tracer: Tracer, bright_kit_modules: dict):
        self.tracer = tracer
        self.modules = bright_kit_modules
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        t = self.tracer
        self.missing = []
        for mod_name, attr, span_name, count in WRAP_POINTS:
            mod = self.modules[mod_name]
            if not hasattr(mod, attr):
                self.missing.append(f"bright_kit.{mod_name}.{attr}")
                continue
            self._patch(mod, attr, _wrap(t, getattr(mod, attr), span_name, count))

        dataset_cls = self.modules["model"].Dataset
        self._patch(dataset_cls, "__init__", _wrap(t, dataset_cls.__init__, "model.Dataset"))

        cli = self.modules["cli"]
        port_error = self.modules["errors"].PortError
        if hasattr(cli, "mock_ports"):
            make_ports = cli.mock_ports

            def proxied_ports(*args, **kwargs):
                ports = make_ports(*args, **kwargs)
                for name in list(vars(ports)):
                    port = getattr(ports, name)
                    if port is not None:
                        setattr(ports, name, _PortProxy(t, port, port_error))
                return ports

            self._patch(cli, "mock_ports", proxied_ports)
        else:
            self.missing.append("bright_kit.cli.mock_ports")
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False
