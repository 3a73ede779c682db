"""Per-layer numbers of one traced pass, and their summary over passes.

Times come from the spans (``tracer.py``); counts come from the
wrappers' counters and from each op's own outputs.  A layer a workload
does not exercise reads 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, List

from perfbench.tracer import SIMULATE_SPANS, Tracer, phase_coverage
from perfbench.workloads import ALL_APPS

#: name -> unit of every per-layer metric, in report order.
PER_LAYER = {
    "simkernel.events": "count",
    "simkernel.events_per_s": "1/s",
    "simkernel.self_s": "s",
    "mesh.route.calls": "count",
    "mesh.route.pairs": "count",
    "mesh.route.reuse": "ratio",
    "mesh.route.s": "s",
    "mesh.netlog.seal_s": "s",
    "mesh.patterns.compile_s": "s",
    "mesh.messages": "count",
    "mesh.latency.mean": "cycles",
    "mesh.contention.mean": "cycles",
    "coherence.accesses": "count",
    "coherence.misses": "count",
    "coherence.invalidations": "count",
    "exec_driven.run_s": "s",
    **{f"apps.{app}.s": "s" for app in ALL_APPS},
    "mp.run_s": "s",
    "mp.trace_records": "count",
    "trace.replay_s": "s",
    "core.temporal_s": "s",
    "core.spatial_s": "s",
    "core.volume_s": "s",
    "stats.fit.calls": "count",
    "stats.fit.converged_frac": "ratio",
    "stats.secant.iters": "count",
    "stats.fit_s": "s",
    "stats.spatial_s": "s",
    "stats.fit_ks.max": "ratio",
    "bench.trace_overhead": "ratio",
    "bench.span_coverage.min": "ratio",
}

#: Per-pass counts that must repeat exactly from pass to pass.
EXACT = (
    "simkernel.events", "mesh.route.calls", "mesh.route.pairs",
    "mesh.messages", "mesh.latency.mean", "mesh.contention.mean",
    "coherence.accesses", "coherence.misses", "coherence.invalidations",
    "mp.trace_records", "stats.fit.calls", "stats.secant.iters",
    "stats.fit_ks.max",
)

#: Span name -> per-layer time metric it sums into.
SPAN_TIMES = {
    "app.run": "exec_driven.run_s",
    "mp.app.run": "mp.run_s",
    "replay_trace": "trace.replay_s",
    "NetworkLog.seal": "mesh.netlog.seal_s",
    "analyze_temporal": "core.temporal_s",
    "analyze_spatial": "core.spatial_s",
    "analyze_volume": "core.volume_s",
    "fit_distribution": "stats.fit_s",
    "classify_spatial": "stats.spatial_s",
    **{f"apps.{app}": f"apps.{app}.s" for app in ALL_APPS},
}


def pass_numbers(tracer: Tracer, pass_index: int, outputs) -> Dict[str, float]:
    """Per-layer numbers of one traced pass (outputs already checked)."""
    numbers = {name: 0 if unit == "count" else 0.0 for name, unit in PER_LAYER.items()}
    simulate_s = 0.0
    for i in tracer.descendants(pass_index):
        span = tracer.spans[i]
        metric = SPAN_TIMES.get(span[0])
        if metric is not None:
            numbers[metric] += Tracer.duration(span)
        if span[0] in SIMULATE_SPANS:
            simulate_s += Tracer.duration(span)
            numbers["simkernel.self_s"] += Tracer.self_time(span)

    counters = tracer.counters
    calls = counters.get("route.calls", 0)
    pairs = len(tracer.route_pairs)
    numbers["mesh.route.calls"] = calls
    numbers["mesh.route.pairs"] = pairs
    numbers["mesh.route.reuse"] = 1.0 - pairs / calls if calls else 0.0
    numbers["mesh.route.s"] = counters.get("route.s", 0.0)
    fits = counters.get("fit.calls", 0)
    numbers["stats.fit.calls"] = fits
    numbers["stats.fit.converged_frac"] = counters.get("fit.converged", 0) / fits if fits else 0.0
    numbers["stats.secant.iters"] = counters.get("secant.iters", 0)

    latency, contention, messages, events = [], [], 0, 0
    ks = []
    for out in outputs:
        if out.log is None:
            continue
        cols, _ = out.log.columns()
        latency += (cols["deliver_time"] - cols["inject_time"]).tolist()
        contention += cols["contention"].tolist()
        messages += cols["msg_id"].size
        events += out.events
        for key, value in out.coherence.items():
            numbers[f"coherence.{key}"] += value
        if out.trace is not None:
            numbers["mp.trace_records"] += len(out.trace)
        if out.characterization is not None:
            ks.append(out.characterization.temporal.fit.ks)
    numbers["simkernel.events"] = events
    numbers["simkernel.events_per_s"] = events / simulate_s if simulate_s else 0.0
    numbers["mesh.messages"] = messages
    numbers["mesh.latency.mean"] = math.fsum(latency) / messages if messages else 0.0
    numbers["mesh.contention.mean"] = math.fsum(contention) / messages if messages else 0.0
    numbers["stats.fit_ks.max"] = max(ks) if ks else 0.0
    numbers["bench.span_coverage.min"] = phase_coverage(tracer, pass_index)
    return numbers


def summarize(per_pass: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each time over the traced passes; the first pass's value
    of each exact count (whether it repeated is :func:`unrepeated`'s job)."""
    summary = {
        name: per_pass[0][name] if name in EXACT
        else statistics.median(p[name] for p in per_pass)
        for name in PER_LAYER
    }
    summary["bench.span_coverage.min"] = min(p["bench.span_coverage.min"] for p in per_pass)
    return summary


def unrepeated(per_pass: List[Dict[str, float]]) -> List[str]:
    """Exact counts that differed between passes."""
    return [name for name in EXACT if len({p[name] for p in per_pass}) > 1]
