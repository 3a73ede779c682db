"""One-pass, mergeable streaming statistics.

Out-of-core characterization (:mod:`repro.mesh.netlog_stream`) never
sees the whole record stream at once: it observes bounded chunks and
must later combine per-chunk partial results, one per spilled segment.
Every estimator here therefore satisfies the same contract:

* **one-pass** -- ``observe``/``observe_sorted`` consume a chunk in a
  single vectorized sweep and retain O(1) or O(K) state, never the
  data;
* **mergeable** -- ``merge(other)`` folds another partial into this
  one, and merging partials in a fixed order is *deterministic*: the
  same partials merged in the same order produce bit-identical state
  (integer tallies are exact in any order; float accumulations are
  exact for the order merged);
* **serializable** -- ``as_dict``/``from_dict`` round-trip the state
  through JSON without drift (Python's ``repr``-based float
  serialization is exact), so partials can live inside spill
  manifests.

Estimators:

* :class:`StreamingMoments` -- count/sum/min/max (and mean) of a
  series.
* :class:`StreamingHistogram` -- fixed-bin counts with underflow and
  overflow tallies; merge requires identical edges.
* :class:`P2Quantile` -- the classic Jain & Chlamtac P^2 marker
  estimator: O(1) state, sequential ``observe(x)``, *not* mergeable
  (marker positions cannot be combined with proper weighting).  Used
  when a single stream wants one cheap quantile.
* :class:`QuantileDigest` -- a bounded weighted order-statistic sketch
  that *is* mergeable: each chunk contributes evenly spaced order
  statistics weighted to the chunk size, and the sketch compresses
  back to a fixed budget.  This is what the spill manifests store.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

__all__ = [
    "P2Quantile",
    "QuantileDigest",
    "StreamingHistogram",
    "StreamingMoments",
    "geometric_edges",
]


def _float_or_none(value: float) -> Optional[float]:
    """Non-finite sentinels (untouched min/max) serialize as None."""
    return None if math.isinf(value) else float(value)


class StreamingMoments:
    """Count, sum, min and max of a series, one chunk at a time.

    The running sum is a plain left-to-right accumulation over chunk
    sums: merging partials in a fixed order is deterministic, but the
    total differs from :func:`numpy.sum` over the whole series (which
    uses pairwise summation) by normal float round-off -- consumers
    compare means to a documented tolerance, never bit-for-bit.
    Integer inputs tally exactly.
    """

    __slots__ = ("count", "total", "min_value", "max_value")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min_value = math.inf
        self.max_value = -math.inf

    def observe(self, values: np.ndarray) -> None:
        """Fold one chunk (any array-like of numbers) into the state."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        self.count += int(values.size)
        self.total += float(values.sum())
        self.min_value = min(self.min_value, float(values.min()))
        self.max_value = max(self.max_value, float(values.max()))

    def merge(self, other: "StreamingMoments") -> None:
        """Fold another partial into this one (other is unchanged)."""
        self.count += other.count
        self.total += other.total
        self.min_value = min(self.min_value, other.min_value)
        self.max_value = max(self.max_value, other.max_value)

    @property
    def mean(self) -> float:
        """Mean of everything observed (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "total": self.total,
            "min": _float_or_none(self.min_value),
            "max": _float_or_none(self.max_value),
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "StreamingMoments":
        out = cls()
        out.count = int(doc["count"])  # type: ignore[arg-type]
        out.total = float(doc["total"])  # type: ignore[arg-type]
        out.min_value = math.inf if doc["min"] is None else float(doc["min"])  # type: ignore[arg-type]
        out.max_value = -math.inf if doc["max"] is None else float(doc["max"])  # type: ignore[arg-type]
        return out


def geometric_edges(lo: float, hi: float, bins: int) -> np.ndarray:
    """``bins + 1`` geometrically spaced edges covering ``[lo, hi]``.

    The standard edge set for latency-shaped (heavy-right-tail,
    positive) series; values outside land in the histogram's
    underflow/overflow tallies rather than being lost.
    """
    if not (0 < lo < hi):
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if bins < 1:
        raise ValueError(f"bins must be >= 1, got {bins}")
    return np.geomspace(lo, hi, bins + 1)


class StreamingHistogram:
    """Fixed-bin counting histogram with underflow/overflow tallies.

    Bin ``i`` covers ``[edges[i], edges[i+1])``; values below
    ``edges[0]`` count as underflow, values at or above ``edges[-1]``
    as overflow.  All state is integer, so observation chunking and
    merge order never change the result: two histograms over the same
    multiset of values are bit-identical.  ``merge`` requires identical
    edges -- partials must be built from one shared edge constant.
    """

    __slots__ = ("edges", "counts", "underflow", "overflow")

    def __init__(self, edges: Sequence[float]) -> None:
        edges = np.asarray(edges, dtype=float)
        if edges.ndim != 1 or edges.size < 2:
            raise ValueError("edges must be a 1-D array of at least 2 values")
        if not np.all(np.diff(edges) > 0):
            raise ValueError("edges must be strictly increasing")
        self.edges = edges
        self.counts = np.zeros(edges.size - 1, dtype=np.int64)
        self.underflow = 0
        self.overflow = 0

    def observe(self, values: np.ndarray) -> None:
        """Tally one chunk of values."""
        values = np.asarray(values, dtype=float)
        if values.size == 0:
            return
        idx = np.searchsorted(self.edges, values, side="right") - 1
        under = idx < 0
        over = idx >= self.counts.size
        self.underflow += int(under.sum())
        self.overflow += int(over.sum())
        in_range = idx[~(under | over)]
        if in_range.size:
            self.counts += np.bincount(in_range, minlength=self.counts.size).astype(
                np.int64
            )

    def merge(self, other: "StreamingHistogram") -> None:
        """Add another partial's tallies (edges must match exactly)."""
        if not np.array_equal(self.edges, other.edges):
            raise ValueError("cannot merge streaming histograms with different edges")
        self.counts += other.counts
        self.underflow += other.underflow
        self.overflow += other.overflow

    @property
    def total(self) -> int:
        """Everything observed, including out-of-range values."""
        return int(self.counts.sum()) + self.underflow + self.overflow

    def fractions(self) -> np.ndarray:
        """Per-bin fraction of all observed values (zeros when empty)."""
        total = self.total
        if total == 0:
            return np.zeros_like(self.counts, dtype=float)
        return self.counts / float(total)

    def as_dict(self) -> Dict[str, object]:
        return {
            "edges": [float(e) for e in self.edges],
            "counts": [int(c) for c in self.counts],
            "underflow": self.underflow,
            "overflow": self.overflow,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "StreamingHistogram":
        out = cls(doc["edges"])  # type: ignore[arg-type]
        counts = np.asarray(doc["counts"], dtype=np.int64)
        if counts.shape != out.counts.shape:
            raise ValueError(
                f"histogram counts length {counts.size} does not match "
                f"{out.counts.size} bins"
            )
        out.counts = counts
        out.underflow = int(doc["underflow"])  # type: ignore[arg-type]
        out.overflow = int(doc["overflow"])  # type: ignore[arg-type]
        return out


class P2Quantile:
    """Jain & Chlamtac's P^2 algorithm: one quantile, five markers, O(1).

    Sequential by construction -- each ``observe(x)`` adjusts marker
    heights via piecewise-parabolic interpolation -- which is also why
    it cannot ``merge``: two marker sets cannot be combined with proper
    weighting.  Use :class:`QuantileDigest` for anything that must
    cross a segment boundary; this class serves single-stream
    consumers that want one cheap percentile without keeping the data.
    """

    __slots__ = ("q", "_initial", "_heights", "_positions", "_desired", "_rates")

    def __init__(self, q: float) -> None:
        if not 0.0 < q < 1.0:
            raise ValueError(f"q must be in (0, 1), got {q}")
        self.q = float(q)
        self._initial: List[float] = []
        self._heights: List[float] = []
        self._positions: List[float] = []
        self._desired: List[float] = []
        self._rates: List[float] = []

    @property
    def count(self) -> int:
        """Number of observations so far."""
        if self._heights:
            return int(self._positions[4])
        return len(self._initial)

    def observe(self, x: float) -> None:
        """Fold one observation into the marker state."""
        x = float(x)
        if not self._heights:
            self._initial.append(x)
            if len(self._initial) == 5:
                self._initial.sort()
                q = self.q
                self._heights = list(self._initial)
                self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
                self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
                self._rates = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
            return
        h, n, d = self._heights, self._positions, self._desired
        if x < h[0]:
            h[0] = x
            k = 0
        elif x >= h[4]:
            h[4] = x
            k = 3
        else:
            k = 0
            while x >= h[k + 1]:
                k += 1
        for i in range(k + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += self._rates[i]
        for i in (1, 2, 3):
            delta = d[i] - n[i]
            if (delta >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                delta <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if delta >= 1.0 else -1.0
                candidate = self._parabolic(i, step)
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    h[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        return h[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (h[i + 1] - h[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (h[i] - h[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        h, n = self._heights, self._positions
        j = i + int(step)
        return h[i] + step * (h[j] - h[i]) / (n[j] - n[i])

    def value(self) -> float:
        """Current quantile estimate (NaN before any observation).

        Exact while the sample is small: until a sixth observation has
        actually adjusted the markers (count <= 5), the estimate is the
        exact quantile of the retained observations — freshly seeded
        markers would otherwise report the median height for every
        ``q``.
        """
        if self._heights and self.count > 5:
            return self._heights[2]
        if not self._initial:
            return math.nan
        ordered = sorted(self._initial)
        return float(np.quantile(np.asarray(ordered), self.q))


class QuantileDigest:
    """Bounded, mergeable weighted order-statistic sketch.

    A chunk of ``n`` sorted values contributes ``min(n, chunk_samples)``
    evenly spaced order statistics, each weighted ``n / k`` so the
    sketch keeps representing all ``n`` observations.  When the stored
    point budget exceeds ``maxlen`` the sketch re-quantizes to
    ``maxlen // 2`` evenly spaced *weighted* quantile points.  Merging
    concatenates two sketches' points (stable sort by value) and
    compresses the same way, so fold order is deterministic:
    bit-identical partials merged in the same order give bit-identical
    sketches.  Accuracy is that of ~``maxlen // 2`` quantile knots:
    a few parts in a thousand of rank for smooth distributions.
    """

    DEFAULT_MAXLEN = 512
    DEFAULT_CHUNK_SAMPLES = 128

    __slots__ = ("maxlen", "chunk_samples", "count", "_values", "_weights")

    def __init__(
        self,
        maxlen: int = DEFAULT_MAXLEN,
        chunk_samples: int = DEFAULT_CHUNK_SAMPLES,
    ) -> None:
        if maxlen < 4:
            raise ValueError(f"maxlen must be >= 4, got {maxlen}")
        if chunk_samples < 2:
            raise ValueError(f"chunk_samples must be >= 2, got {chunk_samples}")
        self.maxlen = int(maxlen)
        self.chunk_samples = int(chunk_samples)
        self.count = 0
        self._values = np.empty(0, dtype=float)
        self._weights = np.empty(0, dtype=float)

    def observe_sorted(self, sorted_values: np.ndarray) -> None:
        """Fold one ascending-sorted chunk into the sketch."""
        sorted_values = np.asarray(sorted_values, dtype=float)
        n = int(sorted_values.size)
        if n == 0:
            return
        self.count += n
        k = min(n, self.chunk_samples)
        if k == n:
            values = sorted_values.copy()
            weights = np.ones(n, dtype=float)
        else:
            # Midpoint order statistics: rank (j + 0.5) / k for each of
            # the k samples, each standing in for n / k observations.
            idx = ((np.arange(k) + 0.5) * (n / k)).astype(np.int64)
            values = sorted_values[idx].astype(float)
            weights = np.full(k, n / k, dtype=float)
        self._absorb(values, weights)

    def observe(self, values: np.ndarray) -> None:
        """Fold one chunk (sorted internally)."""
        self.observe_sorted(np.sort(np.asarray(values, dtype=float)))

    def _absorb(self, values: np.ndarray, weights: np.ndarray) -> None:
        if self._values.size == 0:
            self._values, self._weights = values, weights
        else:
            merged_values = np.concatenate([self._values, values])
            merged_weights = np.concatenate([self._weights, weights])
            order = np.argsort(merged_values, kind="stable")
            self._values = merged_values[order]
            self._weights = merged_weights[order]
        if self._values.size > self.maxlen:
            self._compress()

    def _compress(self) -> None:
        k = self.maxlen // 2
        cum = np.cumsum(self._weights)
        total = cum[-1]
        targets = (np.arange(k) + 0.5) / k * total
        pos = np.searchsorted(cum, targets, side="left")
        pos = np.clip(pos, 0, self._values.size - 1)
        self._values = self._values[pos].copy()
        self._weights = np.full(k, total / k, dtype=float)

    def merge(self, other: "QuantileDigest") -> None:
        """Fold another sketch into this one (other is unchanged)."""
        if other.count == 0:
            return
        self.count += other.count
        self._absorb(other._values.copy(), other._weights.copy())

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (NaN when nothing was observed)."""
        if self.count == 0:
            return math.nan
        q = min(max(float(q), 0.0), 1.0)
        cum = np.cumsum(self._weights)
        centers = cum - 0.5 * self._weights
        target = q * cum[-1]
        return float(np.interp(target, centers, self._values))

    def quantiles(self, qs: Sequence[float]) -> np.ndarray:
        """Vectorized :meth:`quantile` (NaNs when empty)."""
        qs = np.asarray(qs, dtype=float)
        if self.count == 0:
            return np.full(qs.shape, math.nan)
        cum = np.cumsum(self._weights)
        centers = cum - 0.5 * self._weights
        targets = np.clip(qs, 0.0, 1.0) * cum[-1]
        return np.interp(targets, centers, self._values)

    def as_dict(self) -> Dict[str, object]:
        return {
            "maxlen": self.maxlen,
            "chunk_samples": self.chunk_samples,
            "count": self.count,
            "values": [float(v) for v in self._values],
            "weights": [float(w) for w in self._weights],
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, object]) -> "QuantileDigest":
        out = cls(
            maxlen=int(doc["maxlen"]),  # type: ignore[arg-type]
            chunk_samples=int(doc["chunk_samples"]),  # type: ignore[arg-type]
        )
        out.count = int(doc["count"])  # type: ignore[arg-type]
        values = np.asarray(doc["values"], dtype=float)
        weights = np.asarray(doc["weights"], dtype=float)
        if values.shape != weights.shape:
            raise ValueError("digest values and weights must have equal length")
        out._values = values
        out._weights = weights
        return out
