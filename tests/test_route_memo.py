"""Property tests for the per-topology route memo behind ``Topology.route``.

Every built-in topology kind computes a pair's route once (its
``_route``) and hands back the same immutable tuple afterwards.  The
memo must be invisible: equal to a fresh computation, as long as
``hops``, and untouched by invalid nodes.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.mesh import TopologySpec

SPECS = (
    "6x5",  # 2-D mesh
    "5x4:torus",  # 2-D torus, dateline classes
    "4x3x2:mesh:z=4.0",  # N-D mesh with a slow axis
    "3x3x3:torus:x=0.5",  # N-D torus with a fast axis
    "4x4:hypercube",
    "chiplet(3x2,hubs=3)",
)

TOPOLOGIES = {text: TopologySpec.parse(text).build() for text in SPECS}


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
