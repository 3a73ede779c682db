"""Phase spans and layer wrappers for the traced benchmark run.

Spans are kept in memory as ``[name, start, end, parent, child_s]``
lists and written out once, when the run ends.  A span's self time is
its duration minus the time of its direct children (one thread, so
children never overlap).

The untraced run uses :data:`NULL_TRACER`, whose spans cost one
attribute lookup; the wrappers around the layers' public functions are
installed only by :func:`install_wrappers` and removed by the function
it returns.
"""

from __future__ import annotations

import json
import os
import sys
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: Spans that mark a pipeline phase boundary.  A pass's coverage is the
#: share of its duration spent inside outermost phase spans.
PHASES = (
    "app.run",
    "mp.app.run",
    "replay_trace",
    "run_serial_schedule",
    "NetworkLog.seal",
    "analyze_temporal",
    "analyze_spatial",
    "analyze_volume",
)

#: Spans that run a simulation.  Their self time is kernel dispatch plus
#: the model code it cannot be split from outside: coherence,
#: exec_driven and the app itself in ``app.run``, the SP2 model in
#: ``mp.app.run``.
SIMULATE_SPANS = ("app.run", "mp.app.run", "replay_trace", "run_serial_schedule")


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The untraced run's tracer: records nothing."""

    def span(self, name: str):
        return _NULL_SPAN


NULL_TRACER = NullTracer()


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.begin(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.end(self.index)
        return False


class Tracer:
    """In-memory span recorder plus the per-layer counters the wrappers feed."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.route_pairs: set = set()
        # Topologies seen this pass stay referenced so their ids (the
        # route-pair keys) cannot be reused by a later topology.
        self.route_owners: list = []
        self.route_depth = 0

    # -- spans ---------------------------------------------------------
    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, 0.0])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        now = perf_counter()
        span = self.spans[index]
        span[2] = now
        self._stack.pop()
        if self._stack:
            self.spans[self._stack[-1]][4] += now - span[1]

    def charge(self, seconds: float) -> None:
        """Book an aggregated leaf call as child time of the open span."""
        if self._stack:
            self.spans[self._stack[-1]][4] += seconds

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def reset_pass(self) -> None:
        self.counters = {}
        self.route_pairs = set()
        self.route_owners = []

    # -- derived views -------------------------------------------------
    def descendants(self, index: int) -> List[int]:
        """Indices of every span inside span ``index`` (spans are appended
        in start order, so a span's subtree is a contiguous run after it)."""
        out = []
        inside = {index}
        for i in range(index + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
                out.append(i)
            elif self.spans[i][1] >= self.spans[index][2]:
                break
        return out

    @staticmethod
    def duration(span: list) -> float:
        return span[2] - span[1]

    @staticmethod
    def self_time(span: list) -> float:
        return span[2] - span[1] - span[4]

    def write(self, path: str) -> None:
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        doc = {
            "fields": ["name", "start", "end", "parent", "self_s"],
            "spans": [
                [s[0], s[1], s[2], s[3], s[2] - s[1] - s[4]] for s in self.spans
            ],
        }
        with open(path, "w") as handle:
            json.dump(doc, handle)


def phase_coverage(tracer: Tracer, pass_index: int) -> float:
    """Share of a pass spent inside outermost phase spans."""
    spans = tracer.spans
    total = Tracer.duration(spans[pass_index])
    covered = 0.0
    for i in tracer.descendants(pass_index):
        span = spans[i]
        if span[0] not in PHASES:
            continue
        parent = span[3]
        nested = False
        while parent != pass_index and parent >= 0:
            if spans[parent][0] in PHASES:
                nested = True
                break
            parent = spans[parent][3]
        if not nested:
            covered += Tracer.duration(span)
    return covered / total if total > 0 else 0.0


# ----------------------------------------------------------------------
# wrappers around the layers' public functions
# ----------------------------------------------------------------------
def _span_wrapper(tracer: Tracer, name: str, original: Callable,
                  after: Optional[Callable] = None) -> Callable:
    def wrapper(*args, **kwargs):
        index = tracer.begin(name)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.end(index)
        if after is not None:
            after(result)
        return result

    wrapper.__wrapped__ = original
    return wrapper


def _route_wrapper(tracer: Tracer, original: Callable) -> Callable:
    # Routing runs once per message, so calls are aggregated into
    # counters and charged to the enclosing span instead of each
    # becoming a span.  Nested calls (a chiplet routing through its
    # block mesh) count once.
    def route(self, *args, **kwargs):
        if tracer.route_depth:
            return original(self, *args, **kwargs)
        tracer.route_depth = 1
        start = perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            tracer.route_depth = 0
            counters = tracer.counters
            counters["route.calls"] = counters.get("route.calls", 0) + 1
            counters["route.s"] = counters.get("route.s", 0.0) + elapsed
            key = (id(self), args)
            if key not in tracer.route_pairs:
                if not any(o is self for o in tracer.route_owners):
                    tracer.route_owners.append(self)
                tracer.route_pairs.add(key)
            tracer.charge(elapsed)

    route.__wrapped__ = original
    return route


def _replace_function(original: Callable, replacement: Callable, patches: list) -> None:
    """Rebind every ``repro`` module attribute that is ``original``."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, value))
                setattr(module, attr, replacement)


def install_wrappers(tracer: Tracer) -> Callable[[], None]:
    """Wrap the layer entry points; returns the function that restores them."""
    from repro.mesh import topology
    from repro.mesh.netlog import NetworkLog
    from repro.stats import fitting, regression, spatial_models

    patches: list = []

    def patch_attr(owner, attr, replacement) -> None:
        patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    for cls in vars(topology).values():
        if (isinstance(cls, type) and issubclass(cls, topology.Topology)
                and "route" in cls.__dict__
                and not getattr(cls.__dict__["route"], "__isabstractmethod__", False)):
            patch_attr(cls, "route", _route_wrapper(tracer, cls.__dict__["route"]))

    patch_attr(NetworkLog, "seal",
               _span_wrapper(tracer, "NetworkLog.seal", NetworkLog.__dict__["seal"]))

    def after_regression(result) -> None:
        tracer.count("fit.calls")
        tracer.count("fit.converged", 1 if result.converged else 0)
        tracer.count("secant.iters", result.iterations)

    patch_attr(regression.NonlinearRegression, "fit", _span_wrapper(
        tracer, "NonlinearRegression.fit",
        regression.NonlinearRegression.__dict__["fit"], after_regression))

    original_fit = fitting.fit_distribution
    _replace_function(original_fit, _span_wrapper(
        tracer, "fit_distribution", original_fit), patches)
    original_classify = spatial_models.classify_spatial
    _replace_function(original_classify, _span_wrapper(
        tracer, "classify_spatial", original_classify), patches)

    def restore() -> None:
        while patches:
            owner, attr, value = patches.pop()
            setattr(owner, attr, value)

    return restore


def traced_pass(tracer: Tracer, workload, state):
    """One pass of ``workload`` under a ``"pass"`` span with the wrappers
    installed; returns (the pass span's index, the pass outputs)."""
    tracer.reset_pass()
    restore = install_wrappers(tracer)
    try:
        index = tracer.begin("pass")
        outputs = workload.run_pass(state, tracer)
        tracer.end(index)
    finally:
        restore()
    return index, outputs
