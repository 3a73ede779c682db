"""Shared ``Request``/``Release`` commands: one pair per facility.

Each :class:`Facility` builds its two commands once and every
``request()``/``release()`` yields the same objects.  Sharing them must
not change grant order, server counts, the double-release error, or the
cleanup of a transfer cut short by ``shutdown()`` -- on either
scheduler.
"""

import pytest

from repro.mesh import MeshConfig, MeshNetwork, NetworkMessage
from repro.simkernel import Facility, SimulationError, Simulator, hold, release, request

SCHEDULERS = ("calendar", "heap")


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_commands_are_shared_per_facility(scheduler):
    sim = Simulator(scheduler=scheduler)
    a = Facility(sim, name="a")
    b = Facility(sim, name="b")
    assert request(a) is request(a)
    assert release(a) is release(a)
    assert request(a) is not request(b)
    assert request(a).facility is a and release(a).facility is a
    steps = a.use(1.0)
    assert next(steps) is request(a)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_fifo_grant_order_with_shared_commands(scheduler):
    sim = Simulator(scheduler=scheduler)
    fac = Facility(sim, name="f")
    granted = []

    def user(tag):
        yield request(fac)
        granted.append((tag, sim.now))
        yield hold(2.0)
        yield release(fac)

    for tag in range(5):
        sim.process(user(tag), name=f"u{tag}")
    sim.run()
    assert granted == [(tag, 2.0 * tag) for tag in range(5)]
    assert fac.total_requests == 5 and fac.total_queued == 4
    assert fac.busy == 0 and fac.queue_length == 0
    assert sim.leaked_facilities() == []


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_one_process_takes_two_servers_of_a_multi_server_facility(scheduler):
    sim = Simulator(scheduler=scheduler)
    fac = Facility(sim, name="pool", servers=3)
    seen = {}
    order = []

    def greedy():
        yield request(fac)
        yield request(fac)
        seen["greedy_held"] = proc.held[fac]
        seen["busy_after_two"] = fac.busy
        yield hold(5.0)
        yield release(fac)
        seen["held_after_one_release"] = proc.held[fac]
        yield hold(5.0)
        yield release(fac)

    def other(tag):
        yield hold(1.0)
        yield request(fac)
        order.append((tag, sim.now))
        yield hold(20.0)
        yield release(fac)

    proc = sim.process(greedy(), name="greedy")
    for tag in range(3):
        sim.process(other(tag), name=f"o{tag}")
    sim.run()
    assert seen == {"greedy_held": 2, "busy_after_two": 2, "held_after_one_release": 1}
    # One server is left at t=1 and o0 takes it; o1 and o2 queue, then
    # take greedy's two servers, in order, as each is released.
    assert order == [(0, 1.0), (1, 5.0), (2, 10.0)]
    assert fac.total_requests == 5 and fac.total_queued == 2
    assert fac.busy == 0 and fac.queue_length == 0
    assert proc.held == {}
    assert sim.leaked_facilities() == []


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_releasing_an_unheld_facility_still_raises(scheduler):
    sim = Simulator(scheduler=scheduler)
    fac = Facility(sim, name="f")

    def twice():
        yield request(fac)
        yield release(fac)
        yield release(fac)

    sim.process(twice(), name="twice")
    with pytest.raises(SimulationError, match="does not hold"):
        sim.run()
    assert fac.busy == 0


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_transfer_cut_by_shutdown_leaks_no_facilities(scheduler):
    sim = Simulator(scheduler=scheduler)
    net = MeshNetwork(sim, MeshConfig.parse("4x4"))
    for msg_id, src in enumerate((0, 1, 2, 3, 4, 8, 12)):
        net.inject(NetworkMessage(src=src, dst=15, length_bytes=256, msg_id=msg_id))
    sim.run(until=6.0)
    assert net.in_flight > 0
    assert net.leaked_facilities(include_live=True) != []
    sim.shutdown()
    assert net.leaked_facilities() == []
    assert net.leaked_facilities(include_live=True) == []
    assert net.in_flight == 0
    facilities = list(net._channels.values()) + net._injection + net._ejection
    assert all(f.busy == 0 and f.queue_length == 0 for f in facilities)
