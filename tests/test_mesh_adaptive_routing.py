"""Tests for the adaptive (XY/YX) routing extension."""

import hashlib

import numpy as np
import pytest

from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage, TopologySpec
from repro.simkernel import Simulator, hold
from repro.simkernel.engine_parallel import ScheduleTraffic, canonical_order


def adaptive_config(**kwargs):
    return MeshConfig(
        spec="4x2", routing="adaptive", virtual_channels=2, **kwargs
    )


class TestRouteYX:
    def test_yx_traverses_y_first(self):
        topo = TopologySpec.parse("4x2").build()
        path = topo.route_yx(0, 7)
        assert (path[0].src, path[0].dst) == (0, 4)  # down first
        assert [(h.src, h.dst) for h in path[1:]] == [(4, 5), (5, 6), (6, 7)]

    def test_same_length_as_xy(self):
        topo = TopologySpec.parse("4x4").build()
        for src in range(16):
            for dst in range(16):
                assert len(topo.route_yx(src, dst)) == len(topo.route(src, dst))

    def test_same_endpoints(self):
        topo = TopologySpec.parse("4x4").build()
        for src, dst in ((0, 15), (3, 12), (5, 10)):
            path = topo.route_yx(src, dst)
            assert path[0].src == src and path[-1].dst == dst


class TestAdaptiveConfig:
    def test_requires_mesh(self):
        with pytest.raises(ValueError):
            MeshConfig(spec="4x2:torus", routing="adaptive", virtual_channels=2)

    def test_requires_two_vcs(self):
        with pytest.raises(ValueError):
            MeshConfig(routing="adaptive", virtual_channels=1)

    def test_unknown_routing_rejected(self):
        with pytest.raises(ValueError):
            MeshConfig(routing="chaos")


class TestAdaptiveBehaviour:
    def run_hotspot(self, config, repeats=6):
        """Row-0 sources all streaming to node 7 (column congestion)."""
        sim = Simulator()
        net = MeshNetwork(sim, config)

        def source(src):
            for _ in range(repeats):
                yield from net.transfer(
                    NetworkMessage(src=src, dst=7, length_bytes=256)
                )

        for src in (0, 1, 2):
            sim.process(source(src), name=f"s{src}")
        sim.run()
        return net

    def test_all_delivered_no_deadlock(self):
        net = self.run_hotspot(adaptive_config())
        assert len(net.log) == 18
        assert net.in_flight == 0

    def test_takes_yx_under_congestion(self):
        net = self.run_hotspot(adaptive_config())
        assert net.adaptive_yx_taken > 0

    def test_adaptive_not_slower_than_deterministic(self):
        deterministic = self.run_hotspot(
            MeshConfig(spec="4x2", virtual_channels=2)
        )
        adaptive = self.run_hotspot(adaptive_config())
        assert adaptive.log.mean_latency() <= deterministic.log.mean_latency() * 1.05

    def test_single_dimension_traffic_unaffected(self):
        # src and dst in the same row: XY == YX, no adaptivity needed.
        sim = Simulator()
        net = MeshNetwork(sim, adaptive_config())
        done = net.inject(NetworkMessage(src=0, dst=3, length_bytes=8))
        sim.run()
        assert net.adaptive_yx_taken == 0
        assert done.value.hops == 3

    def test_lanes_pinned_per_order(self):
        # YX worms must never touch lane 0 of their first hop.
        sim = Simulator()
        net = MeshNetwork(sim, adaptive_config())

        def blocker():
            # Saturate XY's first channel (0 -> 1).
            yield from net.transfer(NetworkMessage(src=0, dst=1, length_bytes=4096))

        def prober():
            yield hold(2.0)  # let the blocker seize (0, 1)
            yield from net.transfer(NetworkMessage(src=0, dst=5, length_bytes=8))

        sim.process(blocker(), name="blocker")
        sim.process(prober(), name="prober")
        sim.run()
        assert net.adaptive_yx_taken == 1


class TestAdaptiveGolden:
    """A 4x4 adaptive uniform run is pinned to its recorded outputs.

    The digest hashes the canonically ordered log columns; it and the
    YX count were recorded before routes were memoized and lane-pinned
    per pair, so any drift in route choice or timing shows here.
    """

    DIGEST = "337b13ee9e2ec09a238367fb9b45d65d634e0989a9028e907c0de80748f787dc"
    COLUMNS = ("msg_id", "src", "dst", "length_bytes", "inject_time",
               "start_time", "deliver_time", "contention", "hops")

    @pytest.mark.parametrize("scheduler", ("calendar", "heap"))
    def test_uniform_run_matches_golden(self, scheduler):
        config = MeshConfig.from_spec("4x4", virtual_channels=2, routing="adaptive")
        traffic = ScheduleTraffic.compile_pattern(
            config, "uniform", messages_per_source=60, seed=7, mean_gap=4.0
        )
        sim = Simulator(scheduler=scheduler)
        net = MeshNetwork(sim, config)

        def source(src, entries):
            for gap, dst, length, msg_id in entries:
                yield hold(gap)
                yield from net.transfer(
                    NetworkMessage(src=src, dst=dst, length_bytes=length, msg_id=msg_id)
                )

        for src in sorted(traffic.per_source):
            sim.process(source(src, traffic.per_source[src]), name=f"s{src}")
        sim.run(check_stall=True)
        cols, _ = canonical_order(net.log).columns()
        digest = hashlib.sha256()
        for name in self.COLUMNS:
            digest.update(np.ascontiguousarray(cols[name]).tobytes())
        assert len(net.log) == 960
        assert net.adaptive_yx_taken == 118
        assert digest.hexdigest() == self.DIGEST
