"""Microbenchmark: columnar NetworkLog vs the legacy row implementation.

Builds one synthetic log of ``--records`` messages, loads it into both
:class:`repro.mesh.netlog.NetworkLog` (columnar) and
:class:`tests.netlog_rows.RowNetworkLog` (the preserved row/loop
oracle), then times the analysis mix the characterization pipeline
actually runs: interarrival series (global and per-source),
destination-count and volume fractions per source, the full
destination/volume matrices, message-length views, and the scalar
summary metrics.  Caches are invalidated between iterations so every
iteration pays the full index-build cost, exactly like a fresh
analysis pass over a just-collected log.

Standalone (not a pytest benchmark) so CI can gate on the result:

    PYTHONPATH=src:. python benchmarks/bench_netlog_columnar.py \
        --records 100000 --check --min-speedup 5.0

(the repository root on ``PYTHONPATH`` makes the oracle importable).

``--check`` exits non-zero if the columnar path is slower than
``--min-speedup`` times the row path.
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from repro.mesh.netlog import NetLogRecord, NetworkLog

KINDS = ("p2p", "coherence", "reply")
LENGTHS = (8, 16, 64, 256, 1024)


def synthesize_records(n, num_nodes, seed=7):
    """A plausible traffic trace: bursty injections, skewed destinations."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=n)
    dst = (src + rng.integers(1, num_nodes, size=n)) % num_nodes
    length = rng.choice(LENGTHS, size=n, p=(0.35, 0.3, 0.2, 0.1, 0.05))
    kind = rng.choice(len(KINDS), size=n)
    inject = np.sort(rng.exponential(2.0, size=n).cumsum())
    latency = rng.gamma(2.0, 3.0, size=n) + 1.0
    contention = rng.exponential(0.5, size=n)
    hops = rng.integers(1, 7, size=n)
    records = []
    for i in range(n):
        records.append(
            NetLogRecord(
                msg_id=i,
                src=int(src[i]),
                dst=int(dst[i]),
                length_bytes=int(length[i]),
                kind=KINDS[kind[i]],
                inject_time=float(inject[i]),
                start_time=float(inject[i]) + 0.5,
                deliver_time=float(inject[i]) + float(latency[i]),
                contention=float(contention[i]),
                hops=int(hops[i]),
            )
        )
    return records


def analysis_pass(log, num_nodes):
    """The view mix one characterization run asks of its log."""
    acc = 0.0
    acc += float(log.interarrival_times().sum())
    for src in log.sources():
        acc += float(log.interarrival_times(src).sum())
        acc += float(log.destination_fractions(src, num_nodes).sum())
        acc += float(log.volume_fractions(src, num_nodes).sum())
    acc += float(log.destination_fraction_matrix(num_nodes).sum())
    acc += float(log.volume_fraction_matrix(num_nodes).sum())
    acc += float(log.message_lengths().sum())
    acc += log.mean_latency() + log.mean_contention()
    acc += log.offered_rate() + log.throughput()
    return acc


def invalidate(log):
    """Force the next analysis pass to rebuild every cache/index."""
    if isinstance(log, NetworkLog):
        log._views = None
    else:
        log._by_source_index = None


def time_log(log, num_nodes, iterations):
    best = float("inf")
    checksum = None
    for _ in range(iterations):
        invalidate(log)
        started = time.perf_counter()
        value = analysis_pass(log, num_nodes)
        best = min(best, time.perf_counter() - started)
        if checksum is None:
            checksum = value
        elif value != checksum:
            raise AssertionError("analysis pass is not deterministic")
    return best, checksum


def main(argv=None):
    # Imported here so collecting this module under pytest needs only
    # ``src`` on the path; running the gate needs the repository root.
    from tests.netlog_rows import RowNetworkLog

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=100_000)
    parser.add_argument("--nodes", type=int, default=16)
    parser.add_argument("--iterations", type=int, default=3,
                        help="timing repetitions; best-of is reported")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless columnar beats row by --min-speedup")
    parser.add_argument("--min-speedup", type=float, default=1.0)
    args = parser.parse_args(argv)

    print(f"synthesizing {args.records} records over {args.nodes} nodes ...")
    records = synthesize_records(args.records, args.nodes)

    columnar, row = NetworkLog(), RowNetworkLog()
    started = time.perf_counter()
    columnar.extend(records)
    columnar.seal()
    columnar_build = time.perf_counter() - started
    started = time.perf_counter()
    row.extend(records)
    row_build = time.perf_counter() - started

    row_time, row_sum = time_log(row, args.nodes, args.iterations)
    col_time, col_sum = time_log(columnar, args.nodes, args.iterations)
    if row_sum != col_sum:
        print(f"FAIL: analysis results differ: row={row_sum!r} columnar={col_sum!r}")
        return 1
    speedup = row_time / col_time if col_time else float("inf")

    print(f"{'':>14} {'build':>10} {'analysis':>10}")
    print(f"{'row':>14} {row_build:>9.3f}s {row_time:>9.3f}s")
    print(f"{'columnar':>14} {columnar_build:>9.3f}s {col_time:>9.3f}s")
    print(f"analysis checksum: {col_sum:.6g} (identical on both paths)")
    print(f"analysis speedup: {speedup:.1f}x (best of {args.iterations})")

    if args.check and speedup < args.min_speedup:
        print(f"FAIL: speedup {speedup:.2f}x below required {args.min_speedup}x")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
