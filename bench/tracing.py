"""Outside-in spans around the public functions of each fisherjscc layer.

A traced worker calls `install(tracer)` after importing fisherjscc.
Each target below is wrapped by rebinding the name where callers look it up:
a module-level function is replaced in every fisherjscc module that holds it
(so `fisherjscc.train.fisher_trace_node` is caught as well as the one in
`robustness`), a method is replaced on its class. Nothing inside the package
is edited. A target a later commit removes is reported as absent and the run
goes on without it.

Spans are kept in memory and written once, when the worker ends. A layer's
self time is its span's duration minus the part of that interval its child
spans cover, so concurrent children (the sweep's thread pool) are not counted
twice.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

PACKAGE = "fisherjscc"


def _rows(value) -> int:
    data = getattr(value, "data", value)
    shape = getattr(data, "shape", ())
    return int(shape[0]) if len(shape) == 2 else 1


def _floor_hits(args, home) -> int:
    return int(np.sum(np.abs(args[0]) < home.H_FLOOR))


@dataclass(frozen=True)
class Target:
    """One wrapped callable and, optionally, the work size read from its arguments."""

    name: str                   # metric prefix, "<layer>.<function>"
    module: str                 # fisherjscc submodule that defines it
    attr: str                   # "func" or "Class.method"
    size_metric: str | None = None
    size: Callable | None = None     # size(args, defining module) -> int
    skip_inside: str | None = None   # no span when called directly from this span


def _rows_of(position: int) -> Callable:
    return lambda args, home: _rows(args[position])


TARGETS = (
    Target("rng.normals", "rng", "CounterRng.normals",
           "rng.normals.values", lambda args, home: int(args[1])),
    Target("rng.derive_seed", "rng", "derive_seed"),
    Target("channel.gaussian_noise", "channel", "gaussian_noise"),
    Target("channel.draw_fading_coefficients", "channel", "draw_fading_coefficients"),
    Target("channel.equalization_gains", "channel", "equalization_gains",
           "channel.fading_floor_hits", _floor_hits),
    Target("autodiff.backward", "autodiff", "backward"),
    Target("models.encoder_forward", "models", "EncoderModel.forward_node",
           "models.encoder_forward.rows", _rows_of(1)),
    Target("models.decoder_forward", "models", "DecoderModel.log_posterior_all",
           "models.decoder_forward.rows", _rows_of(1), skip_inside="models.decode"),
    Target("models.decode", "models", "DecoderModel.decode",
           "models.decode.rows", _rows_of(1)),
    Target("models.save_checkpoint", "models", "save_checkpoint"),
    Target("models.load_checkpoint", "models", "load_checkpoint"),
    Target("robustness.fisher_trace_node", "robustness", "fisher_trace_node",
           "robustness.fisher_trace_node.rows", _rows_of(1)),
    Target("robustness.mean_fisher_trace", "robustness", "mean_fisher_trace"),
    Target("train.train", "train", "train"),
    Target("train.regularized_loss", "train", "regularized_loss"),
    Target("train.adam_step", "train", "adam_step"),
    Target("experiments.taylor_validation", "experiments", "taylor_validation"),
    Target("experiments.error_sweep", "experiments", "error_sweep"),
    Target("data.make_rings", "data", "make_rings"),
    Target("data.save_table", "data", "save_table"),
    Target("data.load_table", "data", "load_table"),
    Target("cli.load_config", "cli", "load_config"),
    Target("cli.main", "cli", "main"),
)

SIZE_METRIC = {t.name: t.size_metric for t in TARGETS if t.size_metric}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the parent span, None at the top
    request: str
    size: int | None = None
    nodes: int = 0              # tape nodes created while the span was open


class Tracer:
    """In-memory span recorder; one stack of open spans per thread."""

    def __init__(self, request: str = "-"):
        self.request = request
        self.spans: list[Span] = []
        self.tensor_nodes = 0
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def current_name(self) -> str | None:
        index = self.current()
        return None if index is None else self.spans[index].name

    def open(self, name: str, size: int | None = None) -> int:
        span = Span(name, time.perf_counter(), 0.0, self.current(), self.request, size,
                    self.tensor_nodes)
        with self._lock:
            self.spans.append(span)
            index = len(self.spans) - 1
        self._stack().append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.nodes = self.tensor_nodes - span.nodes
        self._stack().pop()

    def run_under(self, parent: int | None, fn, *args, **kwargs):
        """Run fn on this thread as if the span `parent` were open here."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def count_node(self) -> None:
        with self._lock:
            self.tensor_nodes += 1


def _wrap(tracer: Tracer, target: Target, fn, home):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if target.skip_inside and tracer.current_name() == target.skip_inside:
            return fn(*args, **kwargs)
        index = tracer.open(target.name, target.size(args, home) if target.size else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)

    return wrapper


def _package_modules():
    prefix = PACKAGE + "."
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(prefix))]


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target that exists; return the names of the absent ones."""
    modules = _package_modules()
    by_name = {m.__name__: m for m in modules}
    absent = []
    for target in targets:
        home = by_name.get(f"{PACKAGE}.{target.module}")
        owner_name, _, attr = target.attr.rpartition(".")
        owner = getattr(home, owner_name, None) if owner_name else home
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            absent.append(target.name)
            continue
        wrapper = _wrap(tracer, target, original, home)
        if owner_name:
            setattr(owner, attr, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
    absent += _install_counters(tracer, by_name)
    return absent


def _install_counters(tracer: Tracer, by_name: dict) -> list[str]:
    """Count tape nodes, and carry span context into the sweep's pool threads."""
    absent = []
    tensor = getattr(by_name.get(f"{PACKAGE}.autodiff"), "Tensor", None)
    if tensor is None:
        absent.append("autodiff.tensor_nodes")
    else:
        init = tensor.__init__

        def counted_init(self, *args, **kwargs):
            tracer.count_node()
            init(self, *args, **kwargs)

        tensor.__init__ = counted_init

    experiments = by_name.get(f"{PACKAGE}.experiments")
    pool = getattr(experiments, "ThreadPoolExecutor", None)
    if pool is not None:
        class TracedPool(pool):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.run_under, tracer.current(), fn, *args, **kwargs)

        experiments.ThreadPoolExecutor = TracedPool
    return absent


# ---------------------------------------------------------------------------
# Arithmetic on recorded spans.


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [span.end - span.start - _covered(children.get(i, ()), span.start, span.end)
            for i, span in enumerate(spans)]


def summarize(spans: list[Span], tensor_nodes: int) -> dict[str, float]:
    """Per-layer metrics of one traced worker (see TARGETS for the names)."""
    out: dict[str, float] = {}
    for target in TARGETS:
        out[f"{target.name}.calls"] = 0
        out[f"{target.name}.self_s"] = 0.0
        if target.size_metric:
            out[target.size_metric] = 0
    for span, own in zip(spans, self_times(spans)):
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.self_s"] += own
        if span.size is not None:
            out[SIZE_METRIC[span.name]] += span.size

    steps, step_nodes = 0, 0
    train_seconds = 0.0
    for span in spans:
        parent = spans[span.parent].name if span.parent is not None else None
        if span.name == "train.train":
            train_seconds += span.end - span.start
        elif parent == "train.train" and span.name == "train.regularized_loss":
            steps += 1
            step_nodes += span.nodes
        elif parent == "train.train" and span.name == "autodiff.backward":
            step_nodes += span.nodes
    out["autodiff.tensor_nodes"] = tensor_nodes
    out["autodiff.nodes_per_step"] = step_nodes / steps if steps else 0.0
    out["train.steps"] = steps
    out["train.step_ms"] = 1000.0 * train_seconds / steps if steps else 0.0
    return out


def dump(tracer: Tracer) -> dict:
    return {"spans": [vars(s) for s in tracer.spans], "tensor_nodes": tracer.tensor_nodes}


def load(doc: dict) -> tuple[list[Span], int]:
    return [Span(**s) for s in doc["spans"]], doc["tensor_nodes"]
