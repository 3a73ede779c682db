"""TopologySpec API: grammar, registry, N-D routing, 2-D equivalence.

The topology redesign (spec-first configuration, N-D meshes/tori,
chiplet hierarchies) must not perturb the paper's 2-D results: the
hypothesis suites here check that spec-built 2-D meshes route exactly
like an independent XY oracle (``tests/test_netlog_golden.py`` pins
their activity logs), and that the N-D routes keep the invariants the
deadlock argument relies on (minimal hops, dimension-order
monotonicity, dateline virtual-channel discipline, up*/down* ordering
on the hierarchy).
"""

import math
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import (
    ChipletTopology,
    MeshConfig,
    NDMeshTopology,
    TopologySpec,
    TopologySpecError,
    build_topology,
    register_topology,
    registered_topologies,
)
from repro.mesh.spec import TOPOLOGIES


class TestSpecParse:
    @pytest.mark.parametrize(
        "text, kind, dims",
        [
            ("4x4", "mesh", (4, 4)),
            ("4x2", "mesh", (4, 2)),
            ("4x4x2:torus", "torus", (4, 4, 2)),
            ("8x8:hypercube", "hypercube", (8, 8)),
            ("2x3x4x5:mesh", "mesh", (2, 3, 4, 5)),
        ],
    )
    def test_grammar(self, text, kind, dims):
        spec = TopologySpec.parse(text)
        assert spec.kind == kind
        assert spec.dims == dims

    def test_link_scales(self):
        spec = TopologySpec.parse("8x8x4:mesh:z=4.0")
        assert spec.link_scale == (1.0, 1.0, 4.0)
        spec2 = TopologySpec.parse("4x4:mesh:x=2,y=0.5")
        assert spec2.link_scale == (2.0, 0.5)

    def test_chiplet_grammar(self):
        spec = TopologySpec.parse("chiplet(4x4,hubs=2)")
        assert spec.kind == "chiplet"
        assert spec.dims == (4, 4)
        assert spec.hubs == 2
        assert spec.is_hierarchical
        assert spec.num_nodes == 32

    def test_whitespace_tolerated(self):
        assert TopologySpec.parse(" 4x4 ") == TopologySpec.parse("4x4")

    @pytest.mark.parametrize(
        "bad, match",
        [
            ("", "topology spec expects"),
            ("4x", "topology spec expects"),
            ("0x4", "positive"),
            ("-1x4", "positive"),
            ("4", "topology spec expects"),
            ("axb", "topology spec expects"),
            ("4x4:klein", "unknown topology"),
            ("4x4:mesh:q=2", "axis"),
            ("4x4:mesh:z=2", "axis"),
            ("4x4:mesh:x=nope", "scale"),
            ("4x4:mesh:x=0", "scale"),
            ("chiplet(4x4,hubs=0)", "hubs"),
            ("chiplet(4x4,hubs=x)", "hubs"),
        ],
    )
    def test_rejects(self, bad, match):
        with pytest.raises(TopologySpecError, match=match):
            TopologySpec.parse(bad)

    def test_spec_error_is_value_error(self):
        # Pre-redesign callers caught ValueError; that must keep working.
        with pytest.raises(ValueError):
            TopologySpec.parse("4x4:klein")

    def test_wrap_defaults_follow_kind(self):
        assert TopologySpec.parse("4x4").wrap == (False, False)
        assert TopologySpec.parse("4x4:torus").wrap == (True, True)

    def test_hypercube_requires_power_of_two(self):
        with pytest.raises(ValueError, match="power"):
            TopologySpec.parse("3x3:hypercube").build()


class TestSpecCanonical:
    @pytest.mark.parametrize(
        "text",
        ["4x4", "4x2", "4x4x2:torus", "8x8:hypercube", "8x8x4:mesh:z=4",
         "chiplet(4x4,hubs=2)", "4x4:mesh:x=2,y=0.5"],
    )
    def test_round_trip(self, text):
        spec = TopologySpec.parse(text)
        assert TopologySpec.parse(spec.canonical()) == spec

    def test_dict_round_trip(self):
        for text in ("4x4", "4x4x2:torus", "chiplet(4x4,hubs=4)",
                     "8x8x4:mesh:z=4"):
            spec = TopologySpec.parse(text)
            assert TopologySpec.from_dict(spec.as_dict()) == spec

    def test_pickle_round_trip(self):
        spec = TopologySpec.parse("4x4x2:torus")
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_frozen(self):
        spec = TopologySpec.parse("4x4")
        with pytest.raises(Exception):
            spec.kind = "torus"

    def test_hashable(self):
        assert len({TopologySpec.parse("4x4"), TopologySpec.parse("4x4")}) == 1


class TestRegistry:
    def test_builtins_registered(self):
        names = registered_topologies()
        for kind in ("mesh", "torus", "hypercube", "chiplet"):
            assert kind in names
        for kind in ("mesh", "torus", "hypercube"):
            assert TopologySpec(kind=kind, dims=(4, 2)).build().name == kind

    def test_register_and_build(self):
        def builder(spec):
            return NDMeshTopology(spec.dims)

        register_topology("testgrid", builder)
        try:
            topo = TopologySpec(kind="testgrid", dims=(3, 3)).build()
            assert topo.num_nodes == 9
        finally:
            TOPOLOGIES.pop("testgrid", None)

    def test_unknown_kind_lists_registered(self):
        with pytest.raises(ValueError, match="registered"):
            build_topology(TopologySpec(kind="klein", dims=(4, 4)))


class TestMeshConfigFacade:
    def test_spec_construction(self):
        cfg = MeshConfig(spec=TopologySpec.parse("4x4x2:torus"), virtual_channels=2)
        assert cfg.num_nodes == 32
        assert cfg.topology == "torus"

    def test_string_spec(self):
        cfg = MeshConfig(spec="4x4x2:torus", virtual_channels=2)
        assert cfg.num_nodes == 32

    def test_parse_auto_vcs(self):
        cfg = MeshConfig.parse("4x4x2:torus")
        assert cfg.virtual_channels >= 2

    def test_width_height_properties(self):
        cfg = MeshConfig(spec="4x4x2:torus", virtual_channels=2)
        assert cfg.width == 4
        assert cfg.width * cfg.height == cfg.num_nodes

    def test_torus_needs_vcs(self):
        with pytest.raises(ValueError, match="virtual channels"):
            MeshConfig(spec="4x4:torus", virtual_channels=1)

    def test_adaptive_only_on_plain_mesh(self):
        with pytest.raises(ValueError, match="adaptive"):
            MeshConfig(spec="4x4x2:mesh", routing="adaptive", virtual_channels=2)

    def test_pickles(self):
        cfg = MeshConfig(spec="4x4x2:torus", virtual_channels=2)
        assert pickle.loads(pickle.dumps(cfg)) == cfg


# ---------------------------------------------------------------------------
# 2-D equivalence: spec-built mesh vs the paper's XY routing
# ---------------------------------------------------------------------------

dims_2d = st.tuples(st.integers(2, 6), st.integers(1, 5))


class TestLegacyEquivalence:
    """Spec-built 2-D meshes route exactly as the paper's XY mesh."""

    @given(dims=dims_2d, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_mesh_route_matches_xy_oracle(self, dims, data):
        """Independent XY oracle: x to the column, then y to the row."""
        width, height = dims
        topo = TopologySpec.parse(f"{width}x{height}").build()
        n = width * height
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        sx, sy = src % width, src // width
        dx, dy = dst % width, dst // width
        expected = []
        x, y = sx, sy
        while x != dx:
            nxt = x + (1 if dx > x else -1)
            expected.append((y * width + x, y * width + nxt))
            x = nxt
        while y != dy:
            nxt = y + (1 if dy > y else -1)
            expected.append((y * width + x, nxt * width + x))
            y = nxt
        got = [(h.src, h.dst) for h in topo.route(src, dst)]
        assert got == expected
        assert len(got) == abs(sx - dx) + abs(sy - dy)


# ---------------------------------------------------------------------------
# N-D routing invariants
# ---------------------------------------------------------------------------

dims_nd = (
    st.lists(st.integers(1, 4), min_size=2, max_size=4)
    .map(tuple)
    .filter(lambda d: 2 <= math.prod(d) <= 96)
)


def _manhattan(topo, src, dst):
    s, d = topo.coordinates(src), topo.coordinates(dst)
    total = 0
    for axis, (a, b) in enumerate(zip(s, d)):
        span = abs(a - b)
        if topo.wrap[axis] and topo.dims[axis] > 1:
            span = min(span, topo.dims[axis] - span)
        total += span
    return total


class TestNDRouting:
    @given(dims=dims_nd, wrap=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_routes_minimal_and_connected(self, dims, wrap, data):
        topo = NDMeshTopology(dims, wrap=(wrap,) * len(dims))
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        route = topo.route(src, dst)
        # Minimal: exactly the (wrap-aware) Manhattan distance.
        assert len(route) == _manhattan(topo, src, dst) == topo.hops(src, dst)
        node = src
        for hop in route:
            assert hop.src == node
            assert hop.dst in topo.neighbors(node)
            node = hop.dst
        assert node == dst

    @given(dims=dims_nd, wrap=st.booleans(), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dimension_order_monotone(self, dims, wrap, data):
        """Once a route starts correcting axis k, axes < k never change
        again -- the dimension-order property region slicing relies on."""
        topo = NDMeshTopology(dims, wrap=(wrap,) * len(dims))
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        highest_seen = -1
        for hop in topo.route(src, dst):
            a, b = topo.coordinates(hop.src), topo.coordinates(hop.dst)
            changed = [axis for axis in range(len(dims)) if a[axis] != b[axis]]
            assert len(changed) == 1
            assert changed[0] >= highest_seen
            highest_seen = changed[0]

    @given(size=st.integers(3, 9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_odd_torus_wrap_shorter_ring(self, size, data):
        """On any ring (odd sizes included) the route takes the strictly
        shorter direction, wrapping through the dateline when needed."""
        topo = NDMeshTopology((size, 1), wrap=(True, True))
        src = data.draw(st.integers(0, size - 1))
        dst = data.draw(st.integers(0, size - 1))
        forward = (dst - src) % size
        backward = (src - dst) % size
        route = topo.route(src, dst)
        assert len(route) == min(forward, backward)
        wrapped = [h for h in route if abs(h.dst - h.src) > 1]
        assert len(wrapped) <= 1
        if wrapped:
            # Every hop after the dateline rides the escape class.
            after = route[route.index(wrapped[0]) + 1:]
            assert all(h.vclass == 1 for h in after)

    def test_scaled_links_carry_scale(self):
        spec = TopologySpec.parse("4x4x2:mesh:z=4.0")
        topo = spec.build()
        # 0 -> 16 is one +z hop: scale 4; in-plane hops keep scale 1.
        route_z = topo.route(0, 16)
        assert [h.scale for h in route_z] == [4.0]
        route_x = topo.route(0, 1)
        assert [h.scale for h in route_x] == [1.0]

    def test_scale_one_is_default(self):
        topo = TopologySpec.parse("4x4").build()
        assert all(
            h.scale == 1.0 for h in topo.route(0, topo.num_nodes - 1)
        )


class TestChipletRouting:
    def test_up_down_hub_route(self):
        topo = ChipletTopology((4, 4), hubs=2)
        # 3 (chiplet 0) -> 20 (chiplet 1, local 4): up to gateway 0,
        # hub hop to gateway 16, down to 20.
        route = topo.route(3, 20)
        assert route[0].src == 3
        assert route[-1].dst == 20
        gateways = {0, 16}
        hub_hops = [h for h in route if h.src in gateways and h.dst in gateways]
        assert len(hub_hops) == 1

    @given(hubs=st.integers(2, 4), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_up_down_deadlock_freedom(self, hubs, data):
        """No vclass-0 (up) hop ever follows a vclass-1 (down) hop, so
        the channel dependence graph is acyclic."""
        topo = ChipletTopology((3, 3), hubs=hubs)
        n = topo.num_nodes
        src = data.draw(st.integers(0, n - 1))
        dst = data.draw(st.integers(0, n - 1))
        route = topo.route(src, dst)
        node = src
        seen_down = False
        for hop in route:
            assert hop.src == node
            assert hop.dst in topo.neighbors(node)
            if hop.vclass == 1:
                seen_down = True
            elif seen_down:
                pytest.fail(f"up hop after down hop in {route}")
            node = hop.dst
        assert node == dst

    def test_required_vclasses(self):
        cfg = MeshConfig.parse("chiplet(4x4,hubs=2)")
        assert cfg.virtual_channels >= 2

    def test_same_chiplet_stays_local(self):
        topo = ChipletTopology((4, 4), hubs=2)
        for hop in topo.route(17, 30):
            assert topo.chiplet_of(hop.src) == topo.chiplet_of(hop.dst) == 1
