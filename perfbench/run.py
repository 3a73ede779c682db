"""The repository benchmark: one command, four single-process workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload drive-mesh2d --seed 0 --seconds 22 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  Their
times are host seconds scaled to a reference host speed by a
calibration loop sampled around and inside every op (``hostspeed.py``).
``--trace 1`` alternates untraced passes with traced ones (spans and
layer wrappers on), reports the per-layer metrics of the traced passes
and writes their spans to ``.perfbench/spans-<workload>-<seed>.json``.

Every op's output is checked after its timing.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The command exits 2 without
a result when the checkout holds no ``src/repro`` to measure.
"""

from time import perf_counter

_STARTED = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from functools import partial  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Set-up (app or schedule construction) runs this many times; setup_s
#: reports the median, plus the import and the one warm-up.
SETUP_REPEATS = 3
#: Fewest timed passes a run makes, however long they take.
MIN_PASSES = 3
#: Fewest (untraced, traced) pass pairs a traced run makes.
MIN_TRACED_PAIRS = 2

END_TO_END = {
    "setup_s": "s",
    "pass_s": "s",
    "msgs_per_s": "1/s",
    "peak_rss_mib": "MiB",
}


def _import_program():
    """Import the repro sources of this checkout, or exit 2."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [SRC, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


class Tally:
    """Ops attempted and failed, and every problem the checks found."""

    def __init__(self, references) -> None:
        self.references = references.get("ops", {})
        self.traced_references = references.get("traced", {})
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def check(self, outputs) -> int:
        """Check one pass's outputs; returns the messages of passing ops."""
        from perfbench.checks import check_op

        messages = 0
        for out in outputs:
            self.attempted += 1
            problems = check_op(out, self.references.get(out.label))
            if problems:
                self.failed += 1
                self.problems += [f"{out.label}: {p}" for p in problems]
            else:
                messages += len(out.log)
        return messages

    def flag(self, problem: str) -> None:
        """A failed check on the run as a whole (not on one op)."""
        self.problems.append(problem)


def timed_pass(workload, state, speed):
    """One untraced pass with the host speed sampled around and inside
    every op: returns (host seconds, reference seconds, the outputs)."""
    from perfbench.tracer import NULL_TRACER

    gc.collect()
    speed.sample()
    outputs, host, reference = [], 0.0, 0.0
    for label, step in workload.ops(state):
        output, op_host, op_reference = speed.time(
            partial(workload.run_op, label, step, NULL_TRACER))
        outputs.append(output)
        host += op_host
        reference += op_reference
    return host, reference, outputs


def measure(workload, state, seconds: float, tally: Tally, speed):
    """Untraced passes for ``seconds``: returns (host seconds per pass,
    reference seconds per pass, messages)."""
    host_times, times, messages = [], [], 0
    deadline = perf_counter() + seconds
    while len(times) < MIN_PASSES or perf_counter() < deadline:
        host, reference, outputs = timed_pass(workload, state, speed)
        host_times.append(host)
        times.append(reference)
        messages += tally.check(outputs)
        del outputs
    return host_times, times, messages


def measure_traced(workload, state, seconds: float, tally: Tally, speed,
                   spans_path: str):
    """Alternating untraced and traced passes: returns per-layer numbers."""
    from perfbench import layers
    from perfbench.tracer import Tracer, traced_pass

    tracer = Tracer()
    per_pass, ratios = [], []
    deadline = perf_counter() + seconds
    while len(per_pass) < MIN_TRACED_PAIRS or perf_counter() < deadline:
        untraced, _, outputs = timed_pass(workload, state, speed)
        tally.check(outputs)
        del outputs
        gc.collect()
        index, outputs = traced_pass(tracer, workload, state)
        tally.check(outputs)
        numbers = layers.pass_numbers(tracer, index, outputs)
        del outputs
        per_pass.append(numbers)
        ratios.append(tracer.duration(tracer.spans[index]) / untraced)
    tracer.write(spans_path)

    summary = layers.summarize(per_pass)
    summary["mesh.patterns.compile_s"] = state["compile_s"]
    # Host seconds over host seconds: traced passes are not speed-sampled.
    summary["bench.trace_overhead"] = statistics.median(ratios) - 1.0
    for name in layers.unrepeated(per_pass):
        tally.flag(f"{name} did not repeat exactly between traced passes")
    for name, value in tally.traced_references.items():
        if summary[name] != value:
            tally.flag(f"{name}: got {summary[name]!r}, reference {value!r}")
    if summary["bench.span_coverage.min"] < 0.95:
        tally.flag(f"phase spans cover only {summary['bench.span_coverage.min']:.3f} "
                   f"of a traced pass")
    return {name: (summary[name], unit) for name, unit in layers.PER_LAYER.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    from perfbench.hostspeed import REFERENCE_S, HostSpeed
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    with open(os.path.join(ROOT, "perfbench", "references.json")) as handle:
        references = json.load(handle).get(workload.name, {}).get(str(args.seed), {})
    import_s = perf_counter() - _STARTED

    # Set-up is scaled like the passes: the import by the first sample,
    # each set-up and the warm-up by the samples taken around and inside.
    speed = HostSpeed()
    first = speed.sample()
    import_s *= speed.scale(first, first)
    setups, compiles = [], []
    for _ in range(SETUP_REPEATS):
        state, _, setup = speed.time(partial(workload.setup, args.seed))
        setups.append(setup)
        compiles.append(state["compile_s"])
    state["compile_s"] = statistics.median(compiles)
    _, _, warmup_s = speed.time(partial(workload.warmup, state))
    setup_s = import_s + statistics.median(setups) + warmup_s

    tally = Tally(references)
    if args.trace:
        spans_path = os.path.join(ROOT, ".perfbench",
                                  f"spans-{workload.name}-{args.seed}.json")
        metrics = measure_traced(workload, state, args.seconds, tally, speed, spans_path)
    else:
        host_times, times, messages = measure(workload, state, args.seconds, tally, speed)
        print("host s per pass: " + " ".join(f"{t:.3f}" for t in host_times), file=sys.stderr)
        print("reference s per pass: " + " ".join(f"{t:.3f}" for t in times),
              file=sys.stderr)
        print(f"calibration s: median {statistics.median(speed.samples):.4f}, "
              f"reference {REFERENCE_S:.4f}", file=sys.stderr)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = {
            "setup_s": setup_s,
            "pass_s": statistics.median(times),
            "msgs_per_s": messages / sum(times),
            "peak_rss_mib": peak_kib / 1024.0,
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}

    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:28s} {value:16.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
