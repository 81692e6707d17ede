"""Span tracing of the amplab modules, installed from outside the package.

``Tracer.install`` replaces every public function of each layer module with a
wrapper that records a span (name, start, end, parent span, item id).  The
modules import each other's functions by name (``from .x import f``), so a
function is replaced in every amplab namespace that holds it, not only in the
module that defines it.  ``Tracer.uninstall`` puts the originals back.

Spans stay in memory until ``reset``; ``layer_metrics`` folds them into per-layer self times,
call counts and work counts.  A span's self time is its duration minus the
time covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import statistics
import time
from collections import defaultdict

LAYERS = (
    "cli",
    "setups",
    "amplitudes",
    "lattice",
    "evolution",
    "born",
    "composite",
    "regrade",
)

STRATEGIES = ("brute_force", "transfer_matrix", "decompose_all", "sigma_all")


class Tracer:
    """Records spans of the wrapped amplab functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []  # (name_id, start, end, parent, item, tag)
        self.counters: dict[str, float] = defaultdict(float)
        self.item = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = {name: importlib.import_module(f"amplab.{name}") for name in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("amplab")]
        targets = [("cli", "main", modules["cli"].main)]
        for layer, module in modules.items():
            if layer == "cli":
                continue
            for name, fn in vars(module).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == module.__name__
                    and not name.startswith("_")
                ):
                    targets.append((layer, name, fn))
        for layer, name, fn in targets:
            wrapper = self._wrap(f"{layer}.{name}", fn)
            for ns in namespaces:
                if vars(ns).get(name) is fn:
                    self._patch(ns, name, wrapper)
        sampler = modules["regrade"].BinaryOpSampler
        self._patch(sampler, "__call__", self._wrap("regrade.sampler", sampler.__call__))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    # -- recording --------------------------------------------------------

    def _wrap(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        before, after = _HOOKS.get(qualname, (None, None))
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tag = before(self, counters, args, kwargs) if before else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.item, tag)
                if after:
                    after(counters, args, kwargs, None, exc)
                raise
            end = clock()
            stack.pop()
            spans[index] = (name_id, start, end, parent, self.item, tag)
            if after:
                after(counters, args, kwargs, result, None)
            return result

        return traced

    # -- aggregation ------------------------------------------------------

    def span_table(self) -> list[tuple[str, float, float, int, int]]:
        """Recorded spans as (name, start, end, parent, item) tuples."""
        return [(self.names[s[0]], s[1], s[2], s[3], s[4]) for s in self.spans]

    def self_times(self) -> list[float]:
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        return [s[2] - s[1] - c for s, c in zip(self.spans, child_time)]


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _new_item(tracer, counters, args, kwargs):
    tracer.item += 1


def _count_matvecs(tracer, counters, args, kwargs):
    setup = _arg(args, kwargs, 0, "setup")
    counters["amplitudes.amplitude.matvecs"] += setup.detector.time - setup.source.time


def _strategy_tag(tracer, counters, args, kwargs):
    return _arg(args, kwargs, 2, "strategy").label


def _count_evolve_steps(tracer, counters, args, kwargs):
    counters["evolution.evolve.steps"] += _arg(args, kwargs, 2, "steps")


def _count_tensor(tracer, counters, args, kwargs):
    psi = _arg(args, kwargs, 0, "psi")
    counters["born.tensor_entries"] += psi.num_sites ** _arg(args, kwargs, 3, "N")


def _count_paths(counters, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "PathExplosionError":
            counters["amplitudes.brute_force.skipped"] += 1
        return
    setup, kernel = _arg(args, kwargs, 0, "setup"), _arg(args, kwargs, 1, "kernel")
    holes = {f.time: len(f.holes) for f in setup.filters}
    counters["amplitudes.brute_force.paths"] += math.prod(
        holes.get(t, kernel.num_sites)
        for t in range(setup.source.time + 1, setup.detector.time)
    )


def _track_deviation(counters, args, kwargs, result, exc):
    if result is not None:
        key = "amplitudes.max_deviation"
        counters[key] = max(counters[key], result.max_deviation)


def _count_points(counters, args, kwargs, result, exc):
    if result is not None:
        counters["regrade.sampler_points"] += getattr(result, "size", 1)


# before-hooks may return a tag that the span and its descendants carry;
# after-hooks see the result or the exception
_HOOKS = {
    "cli.main": (_new_item, None),
    "setups.random_setup": (_new_item, None),
    "amplitudes.amplitude": (_count_matvecs, None),
    "amplitudes.evaluate": (_strategy_tag, None),
    "amplitudes.amplitude_bruteforce": (None, _count_paths),
    "amplitudes.consistency_check": (None, _track_deviation),
    "evolution.evolve": (_count_evolve_steps, None),
    "born.small_N_direct": (_count_tensor, None),
    "regrade.sampler": (None, _count_points),
}

def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Layer metrics from the spans and counters recorded since the last reset.

    Each layer and each wrapped function gets ``self_s`` (summed self time) and
    ``calls``; each layer also gets ``busy_s`` (time inside an outermost span
    of the layer).  Strategy metrics sum the amplitudes-layer self time under
    the ``evaluate`` spans of that strategy.  A metric that nothing recorded is
    absent; it reads 0.
    """
    layer_bit = {layer: 1 << i for i, layer in enumerate(LAYERS)}
    layer_of = [name.split(".", 1)[0] for name in tracer.names]
    out: dict[str, float] = defaultdict(float)
    check_us: list[float] = []
    tags: list[str | None] = []
    above: list[int] = []  # bit set of the layers of a span's ancestors
    for (name_id, start, end, parent, _, tag), self_s in zip(
        tracer.spans, tracer.self_times()
    ):
        name, layer = tracer.names[name_id], layer_of[name_id]
        if parent >= 0:
            tag = tag if tag is not None else tags[parent]
            above.append(above[parent] | layer_bit[layer_of[tracer.spans[parent][0]]])
        else:
            above.append(0)
        tags.append(tag)
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        if not above[-1] & layer_bit[layer]:
            out[f"{layer}.busy_s"] += end - start
        out[f"{name}.self_s"] += self_s
        out[f"{name}.calls"] += 1
        if name == "amplitudes.consistency_check":
            check_us.append((end - start) * 1e6)
        if layer == "amplitudes" and tag in STRATEGIES:
            out[f"amplitudes.{tag}.self_s"] += self_s
    metrics = dict(out)
    metrics.update(tracer.counters)
    metrics["amplitudes.consistency_check.p50_us"] = _quantile(check_us, 0.50)
    metrics["amplitudes.consistency_check.p99_us"] = _quantile(check_us, 0.99)
    return metrics


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]
