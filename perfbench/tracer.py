"""Span tracing of cohsh from the outside, for the benchmark's traced run.

The tracer replaces module attributes with wrappers for the duration of a
``with tracer.installed():`` block and restores them afterwards, so untraced
passes in the same process run the original functions. An attribute is
wrapped where callers look it up: ``measurement`` imports ``apply`` by name,
so ``cohsh.measurement.apply`` is wrapped, not only ``cohsh.elements.apply``.

A span is (id, parent id, trace id, name, start, end, counts). The trace id
is the index of the ``cohsh.cli.main`` call the span belongs to, so the spans
of one result share it. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path


def _hits_and_trials(table) -> dict:
    return {"trials": int(table.trials), "hits": float(table.total)}


#: (module the caller looks the name up in, attribute, counts from the result)
TARGETS = (
    ("cohsh.cli", "main", None),
    ("cohsh.cli", "load_config", None),
    ("cohsh.cli", "run_chsh", lambda run: {"clamped": float(run.clamped)}),
    ("cohsh.cli", "sweep_correlation", None),
    ("cohsh.chsh", "exact_rates", None),
    ("cohsh.chsh", "run_montecarlo_coherent", _hits_and_trials),
    ("cohsh.chsh", "run_montecarlo_fock", _hits_and_trials),
    ("cohsh.measurement", "two_mode_input", None),
    ("cohsh.measurement", "apply", lambda state: {"terms_out": len(state)}),
)


def span_name(fn) -> str:
    """Layer-qualified name: the defining module without the package prefix."""
    return f"{fn.__module__.removeprefix('cohsh.')}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._trace_id = -1

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, counts=None):
        name = span_name(fn)
        root = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                span_id = self._next_id
                self._next_id += 1
                if root and not stack:
                    self._trace_id += 1
                trace_id = self._trace_id
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = counts(result) if counts and error is None else {}
                if error:
                    attrs["error"] = error
                self.spans.append((span_id, parent, trace_id, name, start, end, attrs))

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for module_name, attr, counts in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, counts))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def take(self) -> list[tuple]:
        """The spans recorded so far, removing them from the tracer."""
        spans, self.spans = self.spans, []
        return spans


def dump(spans: list[tuple], path: Path) -> None:
    """Write spans as JSON, one list per span in the order of ``fields``."""
    fields = ("id", "parent", "trace", "name", "start", "end", "counts")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"fields": fields, "spans": spans}, separators=(",", ":")) + "\n", encoding="utf-8")


def _durations(spans):
    """Per span id: duration and self time (duration minus direct children)."""
    duration = {s[0]: s[5] - s[4] for s in spans}
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] += duration[s[0]]
    return duration, {i: d - child_time[i] for i, d in duration.items()}


def layer_metrics(spans: list[tuple], pass_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass over every job of a workload."""
    duration, self_time = _durations(spans)
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counted: dict[str, float] = defaultdict(float)
    roots = 0.0
    for s in spans:
        span_id, parent, _, name, _, _, attrs = s
        total[name] += duration[span_id]
        own[name] += self_time[span_id]
        calls[name] += 1
        for key, value in attrs.items():
            if key != "error":
                counted[f"{name}.{key}"] += value
        if parent is None:
            roots += duration[span_id]

    metrics = {
        "config.load_s": total["config.load_config"],
        "cli.self_s": own["cli.main"],
        "chsh.self_s": own["chsh.run_chsh"] + own["chsh.sweep_correlation"],
        "chsh.clamped": counted["chsh.run_chsh.clamped"],
        "source.two_mode_input.s": total["source.two_mode_input"],
        "source.two_mode_input.calls": calls["source.two_mode_input"],
        "elements.apply.s": total["elements.apply"],
        "elements.apply.calls": calls["elements.apply"],
        "elements.apply.terms_out": counted["elements.apply.terms_out"],
        "measurement.exact_rates.self_s": own["measurement.exact_rates"],
        "trace.unaccounted_s": pass_wall - roots,
    }
    for sampler in ("coherent", "fock"):
        name = f"measurement.run_montecarlo_{sampler}"
        trials = counted[f"{name}.trials"]
        metrics[f"measurement.mc.self_s.{sampler}"] = own[name]
        metrics[f"measurement.mc.calls.{sampler}"] = calls[name]
        metrics[f"measurement.mc.trials.{sampler}"] = trials
        metrics[f"measurement.mc.ns_per_trial.{sampler}"] = own[name] / trials * 1e9 if trials else 0.0
        metrics[f"measurement.mc.hit_ratio.{sampler}"] = counted[f"{name}.hits"] / trials if trials else 0.0
    return metrics


def sampler_seconds_per_cell(spans: list[tuple]) -> float:
    """Mean time of one Monte Carlo sampler call, that is of one cell."""
    cells = [s[5] - s[4] for s in spans if s[3].startswith("measurement.run_montecarlo_")]
    return sum(cells) / len(cells)
