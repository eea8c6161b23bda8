"""In-memory spans around the pipeline's public names, taken from outside.

The package is not edited: ``Tracer.install`` replaces module attributes
that the pipeline looks up at call time with wrappers that record one
span per call while an attempt is open, and pass calls straight through
otherwise.  Spans of one attempt form a tree under an ``attempt`` root.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

# (module, attribute, span name).  Each attribute is looked up by name at
# call time by the code that calls it, so replacing it on that module
# intercepts every call the pipeline makes.  The span name is the layer
# (the module that defines the function) plus the operation.
WRAPPED = (
    ("chaintomo.cli", "main", "cli.main"),
    ("chaintomo.cli", "read_trace", "dynamics.read_trace"),
    ("chaintomo.cli", "write_trace", "dynamics.write_trace"),
    ("chaintomo.cli", "simulate_traces", "tomography.simulate_traces"),
    ("chaintomo.cli", "run_tomography", "tomography.run"),
    ("chaintomo.tomography", "run_tomography", "tomography.run"),
    ("chaintomo.tomography", "flux_chains", "chain_model.flux_chains"),
    ("chaintomo.tomography", "spectral_signal", "dynamics.spectral_signal"),
    ("chaintomo.tomography", "add_noise", "dynamics.add_noise"),
    ("chaintomo.tomography", "fit_trace", "fitting.fit_trace"),
    ("chaintomo.tomography", "eta_coefficients", "series.eta"),
    ("chaintomo.tomography", "invert_couplings", "series.invert"),
    ("chaintomo.fitting", "estimate_spectrum", "fitting.estimate_spectrum"),
    ("chaintomo.fitting", "refine_fit", "fitting.refine_fit"),
)
# the calls into the package under an attempt's root span must cover all
# but this share of the intervals the harness timed around them; the few
# function calls around them take 0.01-1 % of an attempt
COVER_SLACK = 0.02


@dataclass(eq=False)
class Span:
    name: str
    parent: int  # index into the attempt's span list; -1 for the root
    start: float
    end: float = 0.0
    args: tuple = ()
    result: object = None
    error: BaseException | None = None
    children: list[int] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records the spans of one attempt at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for module_name, attr, span_name in WRAPPED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(original, span_name))
            self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def _enter(self, name: str, args: tuple) -> Span:
        parent = self._open[-1] if self._open else -1
        span = Span(name, parent, time.perf_counter(), args=args)
        index = len(self.spans)
        self.spans.append(span)
        if parent >= 0:
            self.spans[parent].children.append(index)
        self._open.append(index)
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self._open:
                return fn(*args, **kwargs)
            span = self._enter(name, args)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = exc
                raise
            finally:
                self._exit(span)

        return traced

    @contextmanager
    def attempt(self):
        """Open the root span of one attempt; its spans replace the last."""
        self.spans = []
        root = self._enter("attempt", ())
        try:
            yield
        finally:
            self._exit(root)


def self_times(spans: list[Span]) -> list[float]:
    own = [s.duration for s in spans]
    for s in spans[1:]:
        own[s.parent] -= s.duration
    return own


def nested(spans: list[Span]) -> bool:
    """Children lie inside their parent, one after another."""
    for s in spans:
        cursor = s.start
        for c in (spans[i] for i in s.children):
            if c.start < cursor or c.end > s.end or c.end < c.start:
                return False
            cursor = c.end
    return True


def _file_bytes(csv_path) -> int:
    """Size of a trace CSV plus its metadata sidecar."""
    total = 0
    for path in (Path(csv_path), Path(csv_path).with_suffix(".meta.json")):
        if path.is_file():
            total += path.stat().st_size
    return total


def _refine_model(span: Span):
    """The model a refine_fit call produced, also when it raised one."""
    if span.error is not None:
        return getattr(span.error, "best", None)
    return span.result


class LayerStats:
    """Per-layer totals over the traced attempts."""

    def __init__(self):
        self.attempts = 0
        self.spans = 0
        self.nested = True
        self.timed = 0.0  # seconds the harness timed around the traced calls
        self.uncovered = 0.0  # of those, seconds outside every top-level span
        self.time = defaultdict(float)  # seconds by span name
        self.own = defaultdict(float)  # self seconds by span name
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.count = defaultdict(int)  # work counters

    def add(self, spans: list[Span], timed: float) -> None:
        """Fold one attempt's spans in, with the seconds the harness timed
        around the attempt's calls.  Trace files must still exist."""
        covered = sum(spans[i].duration for i in spans[0].children)
        self.nested &= nested(spans) and covered <= timed
        self.timed += timed
        self.uncovered += timed - covered
        own = self_times(spans)
        self.attempts += 1
        self.spans += len(spans)
        for s, t_own in zip(spans, own):
            self.time[s.name] += s.duration
            self.own[s.name] += t_own
            self.calls[s.name] += 1
            self.errors[s.name] += s.error is not None
            if s.name == "dynamics.spectral_signal":
                self.count["samples"] += len(s.args[1])
            elif s.name == "dynamics.write_trace" and s.error is None:
                self.count["bytes_written"] += _file_bytes(s.result)
            elif s.name == "dynamics.read_trace":
                self.count["bytes_read"] += _file_bytes(s.args[0])
            elif s.name == "series.invert":
                self.count["links"] += len(s.args[0])
            elif s.name == "fitting.refine_fit":
                model = _refine_model(s)
                if model is not None:
                    self.count["refine_iters"] += model.iterations
                    self.count["refine_models"] += 1
            elif s.name == "fitting.fit_trace":
                self._add_fit(spans, s)

    def _add_fit(self, spans: list[Span], fit: Span) -> None:
        kids = [spans[i] for i in fit.children]
        refines = [k for k in kids if k.name == "fitting.refine_fit"]
        seeded_failed = any(
            k.error is not None for k in kids if k.name == "fitting.estimate_spectrum"
        )
        # the seeded route is one estimate_spectrum and one refine_fit; any
        # further refine, a failed seed or a failed fit means a rescue seed ran
        if seeded_failed or len(refines) > 1 or fit.error is not None:
            self.count["rescues"] += 1
        if fit.error is None:
            self.count["winning_refines"] += any(
                _refine_model(r) is fit.result for r in refines
            )

    @property
    def consistent(self) -> bool:
        """Every attempt's spans nest, and the top-level calls account for
        the harness's own timed intervals, a clock reading the spans do
        not share.  (Self times add up to the root by construction.)"""
        return self.nested and self.uncovered <= COVER_SLACK * self.timed

    def metrics(self) -> dict[str, tuple[float, str]]:
        n = max(self.attempts, 1)

        def ms(name: str) -> float:
            return 1e3 * self.time[name] / n

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        fits = self.calls["fitting.fit_trace"]
        refines = self.calls["fitting.refine_fit"]
        return {
            "chain_model.flux_chains_ms": (ms("chain_model.flux_chains"), "ms"),
            "dynamics.spectral_signal_ms": (ms("dynamics.spectral_signal"), "ms"),
            "dynamics.spectral_signal_calls": (
                self.calls["dynamics.spectral_signal"] / n, "count"),
            "dynamics.samples": (self.count["samples"] / n, "count"),
            "dynamics.read_trace_ms": (ms("dynamics.read_trace"), "ms"),
            "dynamics.write_trace_ms": (ms("dynamics.write_trace"), "ms"),
            "dynamics.bytes_read": (self.count["bytes_read"] / n, "bytes"),
            "dynamics.bytes_written": (self.count["bytes_written"] / n, "bytes"),
            "fitting.fit_trace_ms": (ms("fitting.fit_trace"), "ms"),
            "fitting.self_ms": (1e3 * self.own["fitting.fit_trace"] / n, "ms"),
            "fitting.estimate_spectrum_ms": (ms("fitting.estimate_spectrum"), "ms"),
            "fitting.refine_fit_ms": (ms("fitting.refine_fit"), "ms"),
            "fitting.refine_calls_per_fit": (ratio(refines, fits), "count"),
            "fitting.refine_iters": (
                ratio(self.count["refine_iters"], self.count["refine_models"]), "count"),
            "fitting.rescue_frac": (ratio(self.count["rescues"], fits), "fraction"),
            "fitting.useful_refine_ratio": (
                ratio(self.count["winning_refines"], refines), "fraction"),
            "fitting.fail_frac": (
                ratio(self.errors["fitting.fit_trace"], fits), "fraction"),
            "series.eta_ms": (ms("series.eta"), "ms"),
            "series.invert_ms": (ms("series.invert"), "ms"),
            "series.invert_fail_frac": (
                ratio(self.errors["series.invert"], self.calls["series.invert"]),
                "fraction"),
            "series.links": (self.count["links"] / n, "count"),
            "tomography.run_ms": (ms("tomography.run"), "ms"),
            "tomography.self_ms": (
                1e3 * (self.own["tomography.run"]
                       + self.own["tomography.simulate_traces"]) / n, "ms"),
            "cli.main_ms": (ms("cli.main"), "ms"),
            "cli.self_ms": (1e3 * self.own["cli.main"] / n, "ms"),
            "trace.spans_per_attempt": (self.spans / n, "count"),
        }
