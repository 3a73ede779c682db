"""Output checks: every timed op's results are checked after its timing.

An op fails when its pipeline raised (an app's own ``verify()`` raises
inside ``app.run``) or when any check here returns a problem.  Each
check returns a list of problem strings; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from typing import Dict, List, Mapping, Optional

import numpy as np

#: Absolute tolerance on a fraction row summing to 1.
ROW_SUM_ATOL = 1e-9


def log_digest(log, events: int) -> Dict[str, object]:
    """Exact fingerprint of an activity log and its run.

    ``latency_sum`` is the correctly rounded sum of deliver - inject
    times (``math.fsum``), so it is independent of record order.
    """
    cols, _ = log.columns()
    latency = cols["deliver_time"] - cols["inject_time"]
    return {
        "messages": int(cols["msg_id"].size),
        "events": int(events),
        "bytes": int(cols["length_bytes"].sum()),
        "latency_sum": math.fsum(latency.tolist()),
    }


def check_digest(digest: Mapping[str, object],
                 reference: Optional[Mapping[str, object]]) -> List[str]:
    """Compare a digest with its recorded reference (when one exists)."""
    if reference is None:
        return []
    return [
        f"{key}: got {digest.get(key)!r}, reference {value!r}"
        for key, value in reference.items()
        if digest.get(key) != value
    ]


def check_log(log, num_nodes: int) -> List[str]:
    """Structural sanity of an activity log."""
    cols, _ = log.columns()
    problems = []
    if cols["msg_id"].size == 0:
        return ["empty activity log"]
    inject, start, deliver = cols["inject_time"], cols["start_time"], cols["deliver_time"]
    if not (np.all(np.isfinite(inject)) and np.all(np.isfinite(deliver))):
        problems.append("non-finite timestamps")
    if np.any(start < inject) or np.any(deliver < start):
        problems.append("timestamps out of order (inject <= start <= deliver)")
    for name in ("src", "dst"):
        column = cols[name]
        if np.any(column < 0) or np.any(column >= num_nodes):
            problems.append(f"{name} outside the {num_nodes}-node network")
    if np.any(cols["length_bytes"] <= 0):
        problems.append("non-positive message length")
    return problems


def check_conservation(log, expected: Mapping[int, tuple]) -> List[str]:
    """Every scheduled message was delivered exactly once, unchanged.

    ``expected`` maps msg_id -> (src, dst, length_bytes).
    """
    cols, _ = log.columns()
    ids = cols["msg_id"]
    if ids.size != len(expected):
        return [f"delivered {ids.size} messages, scheduled {len(expected)}"]
    if np.unique(ids).size != ids.size:
        return ["a message was delivered more than once"]
    for i, msg_id in enumerate(ids.tolist()):
        want = expected.get(msg_id)
        got = (int(cols["src"][i]), int(cols["dst"][i]), int(cols["length_bytes"][i]))
        if want != got:
            return [f"message {msg_id}: delivered {got}, scheduled {want}"]
    return []


def check_replay(log, trace) -> List[str]:
    """The replayed log carries exactly the traced messages."""
    cols, _ = log.columns()
    got = sorted(zip(cols["src"].tolist(), cols["dst"].tolist(),
                     cols["length_bytes"].tolist()))
    want = sorted((e.src, e.dst, e.length_bytes) for e in trace)
    if got != want:
        return [f"replayed {len(got)} messages that differ from the "
                f"{len(want)} traced ones"]
    return []


def _rows_sum_to_one(matrix: np.ndarray, senders: np.ndarray, label: str) -> List[str]:
    sums = np.asarray(matrix, dtype=float).sum(axis=1)
    bad = [int(s) for s in senders if abs(sums[s] - 1.0) > ROW_SUM_ATOL]
    return [f"{label} rows of sources {bad} do not sum to 1"] if bad else []


def check_characterization(ch, log) -> List[str]:
    """Fractions sum to 1, fits are finite, volume matches the log."""
    cols, _ = log.columns()
    senders = np.unique(cols["src"])
    problems = []
    problems += _rows_sum_to_one(ch.spatial.fraction_matrix, senders, "spatial fraction")
    problems += _rows_sum_to_one(ch.volume.volume_matrix, senders, "volume fraction")
    if abs(math.fsum(ch.volume.length_fractions.values()) - 1.0) > ROW_SUM_ATOL:
        problems.append("message-length fractions do not sum to 1")
    fit = ch.temporal.fit
    values = list(fit.distribution.params().values()) + [fit.r2, fit.ks, fit.sse]
    if not all(math.isfinite(float(v)) for v in values):
        problems.append(f"non-finite inter-arrival fit {fit.describe()}")
    if not 0.0 <= fit.ks <= 1.0:
        problems.append(f"KS distance {fit.ks} outside [0, 1]")
    for src, spatial in ch.spatial.per_source.items():
        if not math.isfinite(spatial.r2):
            problems.append(f"non-finite spatial fit for source {src}")
    if ch.volume.message_count != cols["msg_id"].size:
        problems.append("volume message count differs from the log")
    if ch.volume.total_bytes != int(cols["length_bytes"].sum()):
        problems.append("volume byte count differs from the log")
    return problems


def check_op(output, reference: Optional[Mapping[str, object]] = None) -> List[str]:
    """Every check that applies to one op's output."""
    if output.error is not None:
        return [output.error.strip().splitlines()[-1]]
    problems = check_log(output.log, output.num_nodes)
    if output.expected is not None:
        problems += check_conservation(output.log, output.expected)
    if output.trace is not None:
        problems += check_replay(output.log, output.trace)
    if output.characterization is not None:
        problems += check_characterization(output.characterization, output.log)
    problems += check_digest(op_digest(output), reference)
    return problems


def op_digest(output) -> Dict[str, object]:
    """The log digest plus the op's exact coherence counts."""
    digest = log_digest(output.log, output.events)
    digest.update({f"coherence.{k}": v for k, v in sorted(output.coherence.items())})
    return digest
