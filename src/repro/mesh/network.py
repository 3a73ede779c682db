"""The 2-D mesh wormhole network simulator.

Every physical channel (plus each node's injection and ejection port)
is a single-server :class:`~repro.simkernel.facility.Facility`.  A
message transfer is a simulated process that walks the XY route as a
*pipelined circuit*: the head flit acquires channels hop by hop, the
body streams once the head reaches the destination, and the whole path
is released when the tail drains.  Time spent blocked on channel
acquisition is accumulated as the message's *contention*, exactly the
quantity the paper's simulator reports alongside latency and resource
utilization.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.mesh.config import MeshConfig
from repro.mesh.netlog import NetLogRecord, NetworkLog
from repro.mesh.packet import NetworkMessage
from repro.mesh.topology import Hop
from repro.obs.registry import MetricsRegistry
from repro.obs.timeline import CHANNELS_PID, NULL_TIMELINE, TimelineRecorder
from repro.simkernel import Facility, Hold, Mailbox, Request, SimEvent, Simulator, hold

DeliveryHandler = Callable[[NetworkMessage, NetLogRecord], None]

#: One hop of a resolved route: the channel lane's interned request
#: command (its facility is the channel) and the hop's timing hold.
HopStep = Tuple[Request, Hold]


class MeshNetwork:
    """Process-oriented simulator of a wormhole-routed 2-D mesh.

    Parameters
    ----------
    simulator:
        The simulation kernel to run on.
    config:
        Mesh geometry and timing (see :class:`MeshConfig`).
    obs:
        Metrics registry; defaults to the simulator's own, so a
        registry passed to :class:`Simulator` observes the network too.
    timeline:
        Chrome trace-event recorder receiving per-node message spans
        and per-channel occupancy spans (default: disabled).
    log:
        Activity-log collector to append deliveries to; defaults to a
        fresh in-memory :class:`~repro.mesh.netlog.NetworkLog`.  Runs
        with out-of-core logging inject a
        :class:`~repro.mesh.netlog_stream.StreamingNetworkLog` here.

    Messages enter through :meth:`inject` (fire-and-forget, returns a
    completion :class:`SimEvent`) or :meth:`transfer` (a sub-generator
    for blocking sends: ``record = yield from net.transfer(msg)``).
    Deliveries append to :attr:`log`, fire any handler registered for
    the destination node, and are deposited in the destination's
    delivery mailbox if one has been requested.
    """

    #: Sample per-channel utilization/queue series every this many
    #: deliveries (per-channel sampling is O(channels)).
    CHANNEL_SAMPLE_INTERVAL = 32

    def __init__(
        self,
        simulator: Simulator,
        config: MeshConfig,
        obs: Optional[MetricsRegistry] = None,
        timeline: Optional[TimelineRecorder] = None,
        log=None,
    ) -> None:
        self.simulator = simulator
        self.config = config
        self.topology = config.spec.build()
        # ``log`` lets runs inject a collector with different storage
        # (e.g. a spilling StreamingNetworkLog); anything with the
        # NetworkLog append surface works.
        self.log = log if log is not None else NetworkLog()
        # One facility per (physical channel, virtual-channel lane).
        self._channels: Dict[Tuple[int, int, int], Facility] = {
            (u, v, lane): Facility(simulator, name=f"ch[{u}->{v}#{lane}]")
            for u, v in self.topology.channels()
            for lane in range(config.virtual_channels)
        }
        self._injection = [
            Facility(simulator, name=f"inj[{n}]") for n in range(config.num_nodes)
        ]
        self._ejection = [
            Facility(simulator, name=f"ej[{n}]") for n in range(config.num_nodes)
        ]
        self._num_nodes = config.num_nodes
        self._virtual_channels = config.virtual_channels
        self._adaptive = config.routing == "adaptive"
        # Hold commands are frozen, so the fixed delays are built once:
        # NI overheads here; the body-flit stream per message length
        # (None when the head flit is the whole message) the first time
        # a length is sent; one per hop time (keyed by the hop's link
        # scale) the first time a route needs it.
        self._injection_hold = hold(config.injection_time)
        self._ejection_hold = hold(config.ejection_time)
        self._body_holds: Dict[int, Optional[Hold]] = {}
        self._hop_holds: Dict[float, Hold] = {}
        # Hop plans: (src, dst, lane) -> the route resolved to interned
        # (Request, Hold) steps, built on a pair's first message.  The
        # lane is the free VC lane of deterministic routing, or the
        # class of the route adaptive routing took (0 = XY, 1 = YX).
        # Steps are shared across plans, keyed (u, v, lane, scale).
        self._plans: Dict[Tuple[int, int, int], Tuple[HopStep, ...]] = {}
        self._steps: Dict[Tuple[int, int, int, float], HopStep] = {}
        self._handlers: Dict[int, List[DeliveryHandler]] = {}
        self._mailboxes: Dict[int, Mailbox] = {}
        self._in_flight = 0
        self.total_injected = 0
        self.total_delivered = 0
        self.adaptive_yx_taken = 0
        self.obs = obs if obs is not None else simulator.obs
        self.timeline = timeline if timeline is not None else NULL_TIMELINE
        self._observed = self.obs.enabled
        if self._observed:
            self._m_injected = self.obs.counter("net.injected")
            self._m_delivered = self.obs.counter("net.delivered")
            self._m_in_flight = self.obs.gauge("net.in_flight")
            self._m_latency = self.obs.histogram("net.latency")
            self._m_contention = self.obs.histogram("net.contention")
            self._m_hops = self.obs.histogram("net.hops")
            self._m_hop_wait = self.obs.histogram("net.hop_wait")
            self._m_in_flight_series = self.obs.time_series("net.in_flight.series")
            self._m_mean_util = self.obs.time_series("net.mean_channel_utilization")
            self._m_max_util = self.obs.time_series("net.max_channel_utilization")
            self._deliveries_since_sample = 0
        if self.timeline.enabled:
            for node in range(config.num_nodes):
                self.timeline.name_process(node, f"node {node}")
            self.timeline.name_process(CHANNELS_PID, "network channels")
            # Stable thread id per directed physical channel, shared by
            # its lanes.
            self._channel_tids: Dict[Facility, int] = {}
            for tid, (u, v) in enumerate(sorted(self.topology.channels())):
                for lane in range(config.virtual_channels):
                    self._channel_tids[self._channels[(u, v, lane)]] = tid
                self.timeline.name_thread(CHANNELS_PID, tid, f"ch {u}->{v}")

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_handler(self, node: int, handler: DeliveryHandler) -> None:
        """Invoke ``handler(message, record)`` on every delivery at ``node``."""
        self._check_node(node)
        self._handlers.setdefault(node, []).append(handler)

    def delivery_mailbox(self, node: int) -> Mailbox:
        """Mailbox receiving ``(message, record)`` tuples delivered to
        ``node`` (created lazily)."""
        self._check_node(node)
        box = self._mailboxes.get(node)
        if box is None:
            box = Mailbox(self.simulator, name=f"deliver[{node}]")
            self._mailboxes[node] = box
        return box

    def channel(self, u: int, v: int, lane: int = 0) -> Facility:
        """The facility modeling lane ``lane`` of channel ``u -> v``."""
        try:
            return self._channels[(u, v, lane)]
        except KeyError:
            raise ValueError(f"no channel {u}->{v} lane {lane} in this network") from None

    # ------------------------------------------------------------------
    # injection APIs
    # ------------------------------------------------------------------
    def inject(self, message: NetworkMessage) -> SimEvent:
        """Start a transfer now; returns an event set at delivery.

        Callable from process or non-process code; the transfer runs as
        its own simulated process.  Endpoints are validated eagerly so
        a bad message fails at the call site, not inside the event loop.
        """
        self._check_node(message.src)
        self._check_node(message.dst)
        done = SimEvent(self.simulator, name=f"done#{message.msg_id}")

        def runner():
            record = yield from self.transfer(message)
            done.set(record)

        self.simulator.process(runner(), name=f"xfer#{message.msg_id}")
        return done

    def transfer(self, message: NetworkMessage):
        """Sub-generator performing one wormhole transfer.

        Use from model code as ``record = yield from net.transfer(msg)``;
        the caller blocks until the tail flit is delivered and receives
        the :class:`NetLogRecord`.

        Exception-safe: if the owning process fails or the run is
        truncated (the exception or ``GeneratorExit`` unwinds through
        this frame), every facility still held by this transfer is
        released synchronously and ``in_flight``/its gauge restored, so
        an aborted transfer cannot corrupt the contention and
        utilization accounting of the survivors.
        """
        src = message.src
        dst = message.dst
        n = self._num_nodes
        if not (0 <= src < n and 0 <= dst < n):
            self._check_node(src)
            self._check_node(dst)
        sim = self.simulator
        observed = self._observed
        timeline_on = self.timeline.enabled
        owner = sim.current_process
        self._in_flight += 1
        self.total_injected += 1
        if observed:
            self._m_injected.inc()
            self._m_in_flight.set(self._in_flight)
        inject_time = sim._now
        plan = self._hop_plan(message)
        inj = self._injection[src]
        ej = self._ejection[dst]
        # Facilities of the path in acquisition order are inj, each
        # plan step's channel, ej; ``taken``/``released`` count into it.
        taken = 0
        released = 0
        delivered = False
        # (channel, acquire time) pairs for the timeline's per-channel
        # occupancy spans (wormhole: held until the tail drains).
        channel_spans: Optional[List[Tuple[Facility, float]]] = (
            [] if timeline_on else None
        )

        try:
            # Source NI: serializes messages leaving the same node.
            yield inj._request_command
            taken = 1
            contention = sim._now - inject_time
            start_time = sim._now
            yield self._injection_hold

            # Head flit walks the plan, seizing each channel lane in
            # order and paying the hop's routing + (scaled) channel time.
            for request, hop_hold in plan:
                t0 = sim._now
                yield request
                taken += 1
                hop_wait = sim._now - t0
                contention += hop_wait
                if observed:
                    self._m_hop_wait.observe(hop_wait)
                if timeline_on:
                    channel_spans.append((request.facility, sim._now))
                yield hop_hold

            # Destination NI.
            t0 = sim._now
            yield ej._request_command
            taken += 1
            contention += sim._now - t0
            yield self._ejection_hold

            # Body flits stream over the held path (pipelined circuit).
            length = message.length_bytes
            try:
                body_hold = self._body_holds[length]
            except KeyError:
                body_hold = self._body_hold(length)
            if body_hold is not None:
                yield body_hold

            yield inj._release_command
            released = 1
            for request, _ in plan:
                yield request.facility._release_command
                released += 1
            yield ej._release_command
            released += 1

            now = sim._now
            record = NetLogRecord(
                message.msg_id,
                src,
                dst,
                length,
                message.kind,
                inject_time,
                start_time,
                now,
                contention,
                len(plan),
            )
            self.log.add(record)
            self._in_flight -= 1
            self.total_delivered += 1
            delivered = True
            if observed:
                self._m_delivered.inc()
                self._m_in_flight.set(self._in_flight)
                self._m_latency.observe(record.latency)
                self._m_contention.observe(contention)
                self._m_hops.observe(len(plan))
                self._deliveries_since_sample += 1
                if self._deliveries_since_sample >= self.CHANNEL_SAMPLE_INTERVAL:
                    self._deliveries_since_sample = 0
                    self._sample_channels(now)
            if timeline_on:
                self.timeline.complete(
                    name=f"{message.kind} -> {dst}",
                    category="message",
                    start=inject_time,
                    duration=now - inject_time,
                    pid=src,
                    tid=0,
                    args={
                        "msg_id": message.msg_id,
                        "bytes": length,
                        "contention": contention,
                        "hops": len(plan),
                    },
                )
                for channel, acquire_time in channel_spans:
                    self.timeline.complete(
                        name=f"msg {message.msg_id}",
                        category="channel",
                        start=acquire_time,
                        duration=now - acquire_time,
                        pid=CHANNELS_PID,
                        tid=self._channel_tids[channel],
                        args={"src": src, "dst": dst},
                    )
            self._deliver(message, record)
        except BaseException:
            # The unwind may arrive via GeneratorExit (shutdown/GC), so
            # no yields here: facilities are released synchronously.
            holder = owner if owner is not None else sim.current_process
            if holder is not None:
                path = [inj, *(request.facility for request, _ in plan), ej]
                for facility in path[released:taken]:
                    facility._abandon(holder)
            if not delivered:
                self._in_flight -= 1
                if observed:
                    self._m_in_flight.set(self._in_flight)
            raise
        return record

    def _body_hold(self, length_bytes: int) -> Optional[Hold]:
        """Memoize the hold streaming a message's body flits (``None``
        when the message is a single flit)."""
        cfg = self.config
        flits = cfg.flits_for(length_bytes)
        body = hold((flits - 1) * cfg.channel_time) if flits > 1 else None
        self._body_holds[length_bytes] = body
        return body

    def _sample_channels(self, now: float) -> None:
        """Record the per-channel utilization/queue-depth time series
        plus the aggregate utilization series (obs enabled only)."""
        utils = self.channel_utilizations()
        if utils:
            values = utils.values()
            self._m_mean_util.sample(now, sum(values) / len(utils))
            self._m_max_util.sample(now, max(values))
        self._m_in_flight_series.sample(now, self._in_flight)
        queue_depths: Dict[Tuple[int, int], int] = {}
        for (u, v, _), facility in self._channels.items():
            queue_depths[(u, v)] = queue_depths.get((u, v), 0) + facility.queue_length
        for (u, v), util in utils.items():
            self.obs.time_series(f"net.channel[{u}->{v}].utilization").sample(now, util)
            self.obs.time_series(f"net.channel[{u}->{v}].queue_depth").sample(
                now, queue_depths[(u, v)]
            )

    def attach_live(self, sampler) -> None:
        """Register this network's probes on a live-telemetry sampler.

        Adds windowed injected/delivered counters, the in-flight gauge,
        and one multi-column window probe computing the window's mean
        channel utilization and mean queue depth from the facilities'
        busy/queue time integrals (deltas over the window, so the
        values are *windowed* -- saturation onset shows immediately
        instead of being averaged away by a long healthy prefix).
        Costs O(channels) once per sampling window and touches no model
        state, so sampled runs stay bit-identical to unsampled ones.
        """
        sampler.watch_counter("net.injected", lambda: float(self.total_injected))
        sampler.watch_counter("net.delivered", lambda: float(self.total_delivered))
        sampler.watch_gauge("net.in_flight", lambda: float(self._in_flight))
        facilities = list(self._channels.values())
        state = {"busy": 0.0, "queue": 0.0}

        def window(t_start: float, t_end: float) -> Dict[str, float]:
            busy = 0.0
            queue = 0.0
            # Facility._integrate inlined against t_end (== sim.now at
            # tick time): one attribute walk per channel instead of a
            # method call plus a simulator-clock property read.
            for facility in facilities:
                span = t_end - facility._last_change
                if span > 0:
                    facility._busy_integral += span * facility._busy
                    facility._queue_integral += span * len(facility._queue)
                    facility._last_change = t_end
                busy += facility._busy_integral
                queue += facility._queue_integral
            busy_delta = busy - state["busy"]
            queue_delta = queue - state["queue"]
            state["busy"] = busy
            state["queue"] = queue
            span = t_end - t_start
            denom = span * len(facilities)
            return {
                "net.channel_utilization": busy_delta / denom if denom > 0 else 0.0,
                "net.queue_depth": queue_delta / span if span > 0 else 0.0,
            }

        sampler.watch_window(window)

    def _hop_plan(self, message: NetworkMessage) -> Tuple[HopStep, ...]:
        """The message's route as interned ``(Request, Hold)`` steps.

        Calls :meth:`Topology.route` exactly once per message (the
        route memo lives there), then returns the plan cached under
        ``(src, dst, lane)``.  Deterministic routing spreads hops whose
        VC class is free over lane ``msg_id % virtual_channels``; hops
        that pin a class (the torus dateline, chiplet up/down phases)
        get it.  Adaptive routing (mesh) compares the XY and YX
        dimension orders and takes YX -- on its dedicated lane 1 --
        when XY's first channel is busy and YX's is free; XY rides
        lane 0.  Only that choice is made per message.
        """
        src = message.src
        dst = message.dst
        route = self.topology.route(src, dst)
        plans = self._plans
        if not self._adaptive:
            key = (src, dst, message.msg_id % self._virtual_channels)
            plan = plans.get(key)
            if plan is None:
                plan = plans[key] = self._resolve(route, key[2])
            return plan
        xy = plans.get((src, dst, 0))
        if xy is None:
            # Mesh hops leave the VC class free, so the lane pins the
            # whole route to its order's class.
            xy = plans[(src, dst, 0)] = self._resolve(route, 0)
            yx_route = self.topology.route_yx(src, dst)
            if route and (route[0].src, route[0].dst) != (
                yx_route[0].src,
                yx_route[0].dst,
            ):
                plans[(src, dst, 1)] = self._resolve(yx_route, 1)
        # Present only when the two orders leave on different channels.
        yx = plans.get((src, dst, 1))
        if (
            yx is not None
            and not xy[0][0].facility.is_free
            and yx[0][0].facility.is_free
        ):
            self.adaptive_yx_taken += 1
            return yx
        return xy

    def _resolve(self, route: Tuple[Hop, ...], free_lane: int) -> Tuple[HopStep, ...]:
        """Resolve ``route`` to interned steps, free hops on ``free_lane``."""
        cfg = self.config
        steps = self._steps
        plan = []
        for hop in route:
            lane = hop.vclass if hop.vclass is not None else free_lane
            key = (hop.src, hop.dst, lane, hop.scale)
            step = steps.get(key)
            if step is None:
                hop_hold = self._hop_holds.get(hop.scale)
                if hop_hold is None:
                    # hop.scale carries the spec's per-dimension link
                    # scale (TSV-style slow links); 1.0 leaves the float
                    # math bit-identical to the unscaled formula.
                    hop_hold = self._hop_holds[hop.scale] = hold(
                        cfg.routing_time + cfg.channel_time * hop.scale
                    )
                step = steps[key] = (
                    self._channels[(hop.src, hop.dst, lane)]._request_command,
                    hop_hold,
                )
            plan.append(step)
        return tuple(plan)

    # ------------------------------------------------------------------
    # delivery + stats
    # ------------------------------------------------------------------
    def _deliver(self, message: NetworkMessage, record: NetLogRecord) -> None:
        for handler in self._handlers.get(message.dst, ()):  # registered callbacks
            handler(message, record)
        box = self._mailboxes.get(message.dst)
        if box is not None:
            box.put((message, record))

    def finalize_metrics(self) -> None:
        """Record one final sample of every channel series.

        Called by the run harnesses at end of simulation so short runs
        (fewer deliveries than the sampling interval) still export a
        per-channel utilization point.  Also records the end-of-run
        facility-leak audit so a leaky run is visible in its metrics.
        """
        if self._observed:
            self._sample_channels(self.simulator.now)
            self.obs.gauge("net.leaked_facilities").set(
                len(self.leaked_facilities())
            )

    def leaked_facilities(self, include_live: bool = False):
        """End-of-run audit restricted to this network's facilities.

        Returns ``(process, facility, count)`` for every injection,
        ejection, or channel server held by a finished/failed process
        (with ``include_live=True``: by any process -- useful after a
        truncated run).  A clean completed run returns ``[]``.
        """
        own = set(self._channels.values())
        own.update(self._injection)
        own.update(self._ejection)
        return [
            (proc, facility, count)
            for proc, facility, count in self.simulator.leaked_facilities(
                include_live=include_live
            )
            if facility in own
        ]

    @property
    def in_flight(self) -> int:
        """Messages injected but not yet delivered."""
        return self._in_flight

    def channel_utilizations(self) -> Dict[Tuple[int, int], float]:
        """Utilization of every directed physical channel (virtual
        lanes of the same physical channel are averaged)."""
        out: Dict[Tuple[int, int], float] = {}
        lanes = self.config.virtual_channels
        for (u, v, _), facility in self._channels.items():
            out[(u, v)] = out.get((u, v), 0.0) + facility.utilization() / lanes
        return out

    def mean_channel_utilization(self) -> float:
        """Average utilization across physical channels (the paper's
        "overall utilization of the different network resources")."""
        utils = list(self.channel_utilizations().values())
        return sum(utils) / len(utils) if utils else 0.0

    def max_channel_utilization(self) -> float:
        """Peak channel utilization (hot-spot indicator)."""
        utils = list(self.channel_utilizations().values())
        return max(utils) if utils else 0.0

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self._num_nodes):
            raise ValueError(f"node {node} outside mesh with {self._num_nodes} nodes")
