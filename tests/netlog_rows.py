"""Row-backed reference implementation of the activity-log views.

The production :class:`~repro.mesh.netlog.NetworkLog` stores records
columnar and answers every derived view with vectorized numpy; this
module preserves the original row-at-a-time implementation (a list of
:class:`~repro.mesh.netlog.NetLogRecord` walked by Python loops) as an
executable oracle:

* the equivalence property tests in ``tests/test_netlog_columnar.py``
  assert every derived view of the columnar log is bit-identical to
  this one on randomized logs, and
* ``benchmarks/bench_netlog_columnar.py`` reports the columnar
  speedup against it (a CI smoke step fails if the columnar path is
  ever slower).

It lives with the tests, not in the package: it is an oracle, not an
API.  Import it as ``tests.netlog_rows`` with the repository root on
``sys.path``.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.mesh.netlog import NetLogRecord


class RowNetworkLog:
    """The legacy list-of-dataclasses activity log (reference oracle)."""

    def __init__(self) -> None:
        self._records: List[NetLogRecord] = []
        self._by_source_index: Optional[Dict[int, List[NetLogRecord]]] = None

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------
    def add(self, record: NetLogRecord) -> None:
        self._records.append(record)
        self._by_source_index = None

    def extend(self, records: Iterable[NetLogRecord]) -> None:
        self._records.extend(records)
        self._by_source_index = None

    def _source_index(self) -> Dict[int, List[NetLogRecord]]:
        index = self._by_source_index
        if index is None:
            index = {}
            for r in self._records:
                index.setdefault(r.src, []).append(r)
            self._by_source_index = index
        return index

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[NetLogRecord]:
        return iter(self._records)

    @property
    def records(self) -> Sequence[NetLogRecord]:
        return tuple(self._records)

    # ------------------------------------------------------------------
    # derived views
    # ------------------------------------------------------------------
    def sources(self) -> List[int]:
        return sorted(self._source_index())

    def by_source(self, src: int) -> List[NetLogRecord]:
        return sorted(self._source_index().get(src, ()), key=lambda r: r.inject_time)

    def injection_times(self, src: Optional[int] = None) -> np.ndarray:
        records = self._records if src is None else self._source_index().get(src, ())
        return np.sort(np.asarray([r.inject_time for r in records], dtype=float))

    def interarrival_times(self, src: Optional[int] = None) -> np.ndarray:
        times = self.injection_times(src)
        if times.size < 2:
            return np.empty(0, dtype=float)
        return np.diff(times)

    def destination_counts(self, src: int, num_nodes: int) -> np.ndarray:
        counts = np.zeros(num_nodes, dtype=float)
        for r in self._source_index().get(src, ()):
            counts[r.dst] += 1
        return counts

    def destination_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        counts = self.destination_counts(src, num_nodes)
        total = counts.sum()
        return counts / total if total > 0 else counts

    def volume_by_destination(self, src: int, num_nodes: int) -> np.ndarray:
        volume = np.zeros(num_nodes, dtype=float)
        for r in self._source_index().get(src, ()):
            volume[r.dst] += r.length_bytes
        return volume

    def volume_fractions(self, src: int, num_nodes: int) -> np.ndarray:
        volume = self.volume_by_destination(src, num_nodes)
        total = volume.sum()
        return volume / total if total > 0 else volume

    def destination_count_matrix(self, num_nodes: int) -> np.ndarray:
        matrix = np.zeros((num_nodes, num_nodes))
        for src in self.sources():
            matrix[src] = self.destination_counts(src, num_nodes)
        return matrix

    def destination_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        matrix = np.zeros((num_nodes, num_nodes))
        for src in self.sources():
            matrix[src] = self.destination_fractions(src, num_nodes)
        return matrix

    def volume_matrix(self, num_nodes: int) -> np.ndarray:
        matrix = np.zeros((num_nodes, num_nodes))
        for src in self.sources():
            matrix[src] = self.volume_by_destination(src, num_nodes)
        return matrix

    def volume_fraction_matrix(self, num_nodes: int) -> np.ndarray:
        matrix = np.zeros((num_nodes, num_nodes))
        for src in self.sources():
            matrix[src] = self.volume_fractions(src, num_nodes)
        return matrix

    def message_lengths(self, src: Optional[int] = None) -> np.ndarray:
        records = self._records if src is None else self._source_index().get(src, ())
        return np.asarray([r.length_bytes for r in records], dtype=float)

    def length_counts(self) -> Dict[int, int]:
        counts: Dict[int, int] = {}
        for r in self._records:
            size = int(r.length_bytes)
            counts[size] = counts.get(size, 0) + 1
        return dict(sorted(counts.items()))

    def kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self._records:
            out[r.kind] = out.get(r.kind, 0) + 1
        return out

    # ------------------------------------------------------------------
    # summary metrics
    # ------------------------------------------------------------------
    def mean_latency(self) -> float:
        if not self._records:
            return 0.0
        return float(np.mean([r.latency for r in self._records]))

    def mean_contention(self) -> float:
        if not self._records:
            return 0.0
        return float(np.mean([r.contention for r in self._records]))

    def total_bytes(self) -> int:
        return int(sum(r.length_bytes for r in self._records))

    def span(self) -> float:
        if not self._records:
            return 0.0
        start = min(r.inject_time for r in self._records)
        end = max(r.deliver_time for r in self._records)
        return end - start

    def injection_span(self) -> float:
        if not self._records:
            return 0.0
        times = [r.inject_time for r in self._records]
        return max(times) - min(times)

    def offered_rate(self) -> float:
        duration = self.injection_span()
        if duration <= 0:
            return 0.0
        return len(self._records) / duration

    def throughput(self) -> float:
        duration = self.span()
        if duration <= 0:
            return 0.0
        return len(self._records) / duration
