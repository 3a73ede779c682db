"""Property tests for the per-topology route memo behind ``Topology.route``.

Every built-in topology kind computes a pair's route once (its
``_route``) and hands back the same immutable tuple afterwards.  The
memo must be invisible: equal to a fresh computation, as long as
``hops``, and untouched by invalid nodes.  Mesh and torus routes are
also checked hop for hop against an independent coordinate walk.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import Hop, NDMeshTopology, TopologySpec

SPECS = (
    "6x5",  # 2-D mesh
    "1x4",  # 2-D mesh, one column wide
    "5x4:torus",  # 2-D torus, dateline classes
    "2x3:torus",  # 2-D torus with a two-node ring (direction tie)
    "4x3x2:mesh:z=4.0",  # N-D mesh with a slow axis
    "3x3x3:torus:x=0.5",  # N-D torus with a fast axis
    "5x1x3:torus:y=2.0",  # N-D torus with a one-wide scaled axis
    "4x4:hypercube",
    "chiplet(3x2,hubs=3)",
)

TOPOLOGIES = {text: TopologySpec.parse(text).build() for text in SPECS}

CARTESIAN = [text for text in SPECS if isinstance(TOPOLOGIES[text], NDMeshTopology)]


def coordinate_walk(topo, src, dst, order=None):
    """Reference dimension-order route: move a coordinate vector one
    step at a time and map it back to node ids with ``node_at``.

    ``order`` lists the axes to correct (default: ascending).  A
    wrapped axis longer than one node takes the shorter ring way,
    forward on a tie, and switches from VC class 0 to class 1 after
    its wrap channel; other axes leave the class free.
    """
    position = list(topo.coordinates(src))
    target = topo.coordinates(dst)
    path = []
    for axis in order if order is not None else range(len(topo.dims)):
        size = topo.dims[axis]
        scale = topo.link_scale[axis]
        ring = topo.wrap[axis] and size > 1
        vclass = 0 if ring else None
        while position[axis] != target[axis]:
            here = position[axis]
            if ring:
                forward = (target[axis] - here) % size
                backward = (here - target[axis]) % size
                nxt = (here + (1 if forward <= backward else -1)) % size
            else:
                nxt = here + (1 if target[axis] > here else -1)
            u = topo.node_at(*position)
            position[axis] = nxt
            v = topo.node_at(*position)
            if ring and abs(nxt - here) > 1:
                path.append(Hop(u, v, 0, scale))
                vclass = 1
            else:
                path.append(Hop(u, v, vclass, scale))
    return tuple(path)


@pytest.mark.parametrize("text", CARTESIAN)
def test_stride_walk_matches_the_coordinate_walk(text):
    topo = TopologySpec.parse(text).build()
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            path = topo.route(src, dst)
            assert path == coordinate_walk(topo, src, dst), (src, dst)
            assert len(path) == topo.hops(src, dst)


@pytest.mark.parametrize("text", ["6x5", "1x4", "4x4"])
def test_route_yx_matches_the_coordinate_walk(text):
    topo = TopologySpec.parse(text).build()
    for src in range(topo.num_nodes):
        for dst in range(topo.num_nodes):
            assert topo.route_yx(src, dst) == coordinate_walk(topo, src, dst, (1, 0))


@settings(max_examples=60, deadline=None)
@given(text=st.sampled_from(SPECS), data=st.data())
def test_memoized_route_matches_a_fresh_computation(text, data):
    topo = TOPOLOGIES[text]
    node = st.integers(0, topo.num_nodes - 1)
    src, dst = data.draw(node), data.draw(node)
    path = topo.route(src, dst)
    assert isinstance(path, tuple)
    assert path == tuple(topo._route(src, dst))
    assert topo.route(src, dst) is path
    assert len(path) == topo.hops(src, dst)


@settings(max_examples=40, deadline=None)
@given(text=st.sampled_from(SPECS), data=st.data())
def test_invalid_node_raises_and_leaves_the_memo_unchanged(text, data):
    topo = TOPOLOGIES[text]
    n = topo.num_nodes
    bad = data.draw(st.one_of(st.integers(-50, -1), st.integers(n, n + 50)))
    good = data.draw(st.integers(0, n - 1))
    before = dict(topo._routes)
    for src, dst in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match=rf"node {bad}\b"):
            topo.route(src, dst)
    assert topo._routes == before
    assert (bad, good) not in topo._routes and (good, bad) not in topo._routes


def test_route_yx_is_memoized_like_route():
    topo = TopologySpec.parse("4x4").build()
    for src in range(16):
        for dst in range(16):
            path = topo.route_yx(src, dst)
            assert isinstance(path, tuple)
            assert path == tuple(topo._route_yx(src, dst))
            assert topo.route_yx(src, dst) is path


def test_memo_is_per_instance():
    a = TopologySpec.parse("4x4").build()
    b = TopologySpec.parse("4x4").build()
    assert a.route(0, 15) == b.route(0, 15)
    assert a.route(0, 15) is not b.route(0, 15)
