"""Record the exact reference digests the benchmark checks against.

Run from the root of a checkout after a change that is meant to alter
the simulated model (never to make a failing check pass)::

    python3 perfbench/record_references.py

For each workload and for ``DEFAULT_SEED`` and ``HELD_OUT_SEED`` it runs
one traced pass and writes ``perfbench/references.json``: each op's log
digest (messages, events, bytes, latency sum, coherence counts) and the
pass's exact traced counts.
"""

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import layers  # noqa: E402
from perfbench.checks import check_op, op_digest  # noqa: E402
from perfbench.tracer import Tracer, traced_pass  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, HELD_OUT_SEED, WORKLOADS  # noqa: E402

#: Traced per-pass counts recorded alongside the op digests.
TRACED_COUNTS = ("stats.fit.calls", "stats.secant.iters",
                 "mesh.route.calls", "mesh.route.pairs")


def record(workload, seed: int) -> dict:
    tracer = Tracer()
    index, outputs = traced_pass(tracer, workload, workload.setup(seed))
    for out in outputs:
        problems = check_op(out)
        if problems:
            raise SystemExit(f"{workload.name} seed {seed} {out.label}: {problems}")
    numbers = layers.pass_numbers(tracer, index, outputs)
    return {
        "ops": {out.label: op_digest(out) for out in outputs},
        "traced": {name: numbers[name] for name in TRACED_COUNTS},
    }


def main() -> None:
    doc = {
        name: {str(seed): record(workload, seed) for seed in (DEFAULT_SEED, HELD_OUT_SEED)}
        for name, workload in WORKLOADS.items()
    }
    path = os.path.join(ROOT, "perfbench", "references.json")
    with open(path, "w") as handle:
        json.dump(doc, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
