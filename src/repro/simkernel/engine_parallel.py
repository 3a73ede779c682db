"""Pre-drawn schedule traffic and its serial replay.

A pattern workload is compiled once into a :class:`ScheduleTraffic`:
per-source lists of ``(gap, dst, length_bytes, msg_id)`` drawn up
front from per-source seed streams, so the workload is byte-for-byte
the same whichever kernel scheduler replays it.
:func:`run_serial_schedule` replays it on one
:class:`~repro.simkernel.engine.Simulator` (closed loop: each source
holds for its gap, transfers, and waits for delivery), logging into an
in-memory :class:`~repro.mesh.netlog.NetworkLog` or a spilling
:class:`~repro.mesh.netlog_stream.StreamingNetworkLog`.

:func:`canonical_order` and :func:`logs_bit_identical` compare two
logs independently of event interleaving: records sort by
``(deliver_time, inject_time, msg_id)``, a total order because msg_ids
are unique.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetworkLog
from repro.mesh.netlog_stream import StreamingNetworkLog
from repro.mesh.network import MeshNetwork
from repro.mesh.packet import NetworkMessage, as_integer, byte_length
from repro.simkernel.engine import Simulator, hold

__all__ = [
    "PATTERNS",
    "TRAFFIC_KIND",
    "ScheduleTraffic",
    "SerialRunResult",
    "canonical_order",
    "logs_bit_identical",
    "run_serial_schedule",
    "schedule_pattern_names",
]

#: Built-in schedule patterns :meth:`ScheduleTraffic.compile_pattern`
#: draws inline; any pattern registered in :mod:`repro.mesh.patterns`
#: (tornado, transpose, hotspot, ...) is accepted as well.
PATTERNS = ("local", "uniform")


def schedule_pattern_names() -> Tuple[str, ...]:
    """Every pattern name :meth:`ScheduleTraffic.compile_pattern` accepts."""
    from repro.mesh.patterns import registered_patterns

    return tuple(sorted(set(PATTERNS) | set(registered_patterns())))


#: Kind tag on every schedule-replay message.
TRAFFIC_KIND = "pattern"


# ----------------------------------------------------------------------
# pre-drawn replay traffic
# ----------------------------------------------------------------------
class ScheduleTraffic:
    """Pre-drawn traffic replayed identically by every scheduler.

    Per-source entry lists of ``(gap, dst, length_bytes, msg_id)``:
    each source process holds for ``gap``, transfers the message, and
    waits for delivery before drawing the next entry (closed loop).
    All randomness happens at compile time, so the calendar and heap
    kernels consume byte-for-byte the same workload.
    """

    def __init__(
        self,
        num_nodes: int,
        per_source: Dict[int, Sequence[Tuple[float, int, int, int]]],
    ) -> None:
        self.num_nodes = int(num_nodes)
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
        clean: Dict[int, Tuple[Tuple[float, int, int, int], ...]] = {}
        seen_ids: Set[int] = set()
        for key in sorted(per_source):
            src = as_integer(key, "source")
            entries = tuple(
                (
                    float(gap),
                    as_integer(dst, "destination"),
                    byte_length(length),
                    as_integer(msg_id, "msg_id"),
                )
                for gap, dst, length, msg_id in per_source[key]
            )
            if not entries:
                continue
            if not (0 <= src < self.num_nodes):
                raise ValueError(f"source {src} outside {self.num_nodes}-node mesh")
            for gap, dst, length, msg_id in entries:
                if not (0 <= dst < self.num_nodes):
                    raise ValueError(
                        f"destination {dst} outside {self.num_nodes}-node mesh"
                    )
                if gap < 0:
                    raise ValueError(f"negative gap {gap} for source {src}")
                if not math.isfinite(gap):
                    raise ValueError(f"non-finite gap {gap} for source {src}")
                if msg_id in seen_ids:
                    raise ValueError(f"duplicate msg_id {msg_id}")
                seen_ids.add(msg_id)
            clean[src] = entries
        self.per_source = clean

    @property
    def message_count(self) -> int:
        return sum(len(entries) for entries in self.per_source.values())

    @classmethod
    def compile_pattern(
        cls,
        config: MeshConfig,
        pattern: str = "uniform",
        messages_per_source: int = 100,
        seed: int = 1234,
        mean_gap: float = 10.0,
        length_bytes: int = 64,
    ) -> "ScheduleTraffic":
        """Draw a synthetic pattern workload once, up front.

        ``local`` keeps every message inside its source's layer of the
        highest axis (a 2-D mesh row);
        ``uniform`` spreads destinations over every other node; any
        name registered in :mod:`repro.mesh.patterns` (tornado,
        transpose, hotspot, ...) draws destinations from that pattern,
        shaped to the config's dims.  Gaps are exponential with mean
        ``mean_gap``, drawn from per-source
        :class:`numpy.random.SeedSequence` spawns so the schedule is
        independent of source iteration order.
        """
        registry_pattern = None
        if pattern not in PATTERNS:
            from repro.mesh.patterns import pattern_for_config, registered_patterns

            if pattern not in registered_patterns():
                raise ValueError(
                    f"unknown pattern {pattern!r}; expected one of "
                    f"{schedule_pattern_names()}"
                )
            registry_pattern = pattern_for_config(pattern, config)
        if messages_per_source < 0:
            raise ValueError(
                f"messages_per_source must be >= 0, got {messages_per_source}"
            )
        if messages_per_source >= 1_000_000:
            raise ValueError(
                "messages_per_source >= 1e6 would collide the msg_id blocks"
            )
        if mean_gap <= 0:
            raise ValueError(f"mean_gap must be positive, got {mean_gap}")
        length_bytes = byte_length(length_bytes)
        n = config.num_nodes
        # In-layer node count below the highest axis: the 2-D width.
        # "local" traffic stays inside one layer.
        plane = n // config.spec.dims[-1]
        streams = np.random.SeedSequence(seed).spawn(n)
        per_source: Dict[int, List[Tuple[float, int, int, int]]] = {}
        for src in range(n):
            rng = np.random.default_rng(streams[src])
            x, y = src % plane, src // plane
            entries: List[Tuple[float, int, int, int]] = []
            for i in range(messages_per_source):
                gap = float(rng.exponential(mean_gap))
                if pattern == "local":
                    if plane < 2:
                        break  # a one-column mesh has no row-local peers
                    dst = y * plane + int((x + 1 + rng.integers(plane - 1)) % plane)
                elif registry_pattern is not None:
                    dst = int(registry_pattern.destination(src, rng))
                    if dst == src:
                        continue  # self-sends never enter the network
                else:
                    if n < 2:
                        break
                    dst = int((src + 1 + rng.integers(n - 1)) % n)
                entries.append((gap, dst, length_bytes, src * 1_000_000 + i))
            if entries:
                per_source[src] = entries
        return cls(n, per_source)


# ----------------------------------------------------------------------
# canonical ordering
# ----------------------------------------------------------------------
def canonical_order(log: NetworkLog) -> NetworkLog:
    """A fresh log with the records in canonical order.

    Records sort by ``(deliver_time, inject_time, msg_id)``; msg_ids
    are unique, so the order is total and independent of the event
    interleaving that produced each record.
    """
    cols, vocab = log.columns()
    out = NetworkLog()
    n = cols["msg_id"].size
    if n == 0:
        return out
    order = np.lexsort((cols["msg_id"], cols["inject_time"], cols["deliver_time"]))
    tags = np.asarray(vocab, dtype=np.str_)[cols["kind"][order]]
    out.extend_columns(
        msg_id=cols["msg_id"][order],
        src=cols["src"][order],
        dst=cols["dst"][order],
        length_bytes=cols["length_bytes"][order],
        kind=tags,
        inject_time=cols["inject_time"][order],
        start_time=cols["start_time"][order],
        deliver_time=cols["deliver_time"][order],
        contention=cols["contention"][order],
        hops=cols["hops"][order],
    )
    return out


def logs_bit_identical(a: NetworkLog, b: NetworkLog) -> bool:
    """Whether two logs hold exactly the same records, canonically
    ordered first (column-for-column array equality, kinds decoded)."""
    ca, va = canonical_order(a).columns()
    cb, vb = canonical_order(b).columns()
    if ca["msg_id"].size != cb["msg_id"].size:
        return False
    for name in ca:
        if name == "kind":
            continue
        if not np.array_equal(ca[name], cb[name]):
            return False
    tags_a = np.asarray(va, dtype=np.str_)[ca["kind"]] if va else ca["kind"]
    tags_b = np.asarray(vb, dtype=np.str_)[cb["kind"]] if vb else cb["kind"]
    return bool(np.array_equal(tags_a, tags_b))


# ----------------------------------------------------------------------
# serial replay
# ----------------------------------------------------------------------
@dataclass
class SerialRunResult:
    """One serial schedule replay: the log plus kernel counters."""

    log: object
    clock: float
    events_fired: int
    manifest_path: Optional[str] = None


def run_serial_schedule(
    config: MeshConfig,
    traffic: ScheduleTraffic,
    scheduler: str = "calendar",
    log: Optional[object] = None,
):
    """Replay ``traffic`` on one serial simulator.  ``log`` defaults to
    an in-memory :class:`NetworkLog`; pass a
    :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` to spill."""
    if traffic.num_nodes != config.num_nodes:
        raise ValueError(
            f"traffic drawn for {traffic.num_nodes} nodes, mesh has "
            f"{config.num_nodes}"
        )
    sim = Simulator(scheduler=scheduler)
    the_log = log if log is not None else NetworkLog()
    net = MeshNetwork(sim, config, log=the_log)

    def source(src: int, entries):
        for gap, dst, length_bytes, msg_id in entries:
            yield hold(gap)
            yield from net.transfer(
                NetworkMessage(
                    src=src,
                    dst=dst,
                    length_bytes=length_bytes,
                    kind=TRAFFIC_KIND,
                    msg_id=msg_id,
                )
            )

    for src in sorted(traffic.per_source):
        sim.process(source(src, traffic.per_source[src]), name=f"source-{src}")
    sim.run(check_stall=True)
    the_log.seal()
    manifest = None
    if isinstance(the_log, StreamingNetworkLog):
        manifest = the_log.finalize()
    return SerialRunResult(
        log=the_log,
        clock=sim.now,
        events_fired=sim.events_fired,
        manifest_path=manifest,
    )
