"""Golden netlog digests for networks the repository benchmark does not drive.

The benchmark pins exact digests for a 2-D mesh and a 3-D torus only.
These cases cover the other routing paths -- adaptive XY/YX lanes, an
N-D mesh with a slow axis, a 2-D torus with dateline classes, and a
chiplet hierarchy -- with mixed message lengths so several body-flit
counts are timed.  Every value was recorded before the message path
was rebuilt around per-network hop plans, so any drift in route
choice, lane choice, timing or event count shows here.
"""

import math

import pytest

from repro.mesh import MeshConfig
from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule

#: Lengths cycled over the schedule: 1, 2, 4, 7 and 63 flits at 16 B.
LENGTHS = (8, 32, 64, 100, 1000)

#: spec text -> (config kwargs, pattern)
CASES = {
    "4x4": ({"virtual_channels": 2, "routing": "adaptive"}, "uniform"),
    "4x3x2:mesh:z=4.0": ({}, "uniform"),
    "5x4:torus": ({}, "tornado"),
    "chiplet(3x2,hubs=3)": ({}, "uniform"),
}

#: spec text -> (messages, events, fsum(latency), fsum(contention))
GOLDEN = {
    "4x4": (400, 6480, 31593.226233432186, 16537.22623343219),
    "4x3x2:mesh:z=4.0": (600, 9765, 53135.4038721247, 29546.4038721247),
    "5x4:torus": (500, 8520, 46387.999924770695, 27287.99992477069),
    "chiplet(3x2,hubs=3)": (450, 8031, 62297.515726421305, 44865.515726421305),
}


def run_case(text, scheduler):
    kwargs, pattern = CASES[text]
    config = MeshConfig.from_spec(text, **kwargs)
    drawn = ScheduleTraffic.compile_pattern(
        config, pattern, messages_per_source=25, seed=11, mean_gap=6.0
    )
    traffic = ScheduleTraffic(
        drawn.num_nodes,
        {
            src: [
                (gap, dst, LENGTHS[(src + i) % len(LENGTHS)], msg_id)
                for i, (gap, dst, _, msg_id) in enumerate(entries)
            ]
            for src, entries in drawn.per_source.items()
        },
    )
    result = run_serial_schedule(config, traffic, scheduler=scheduler)
    cols, _ = result.log.columns()
    return (
        int(cols["msg_id"].size),
        result.events_fired,
        math.fsum(cols["deliver_time"] - cols["inject_time"]),
        math.fsum(cols["contention"]),
    )


@pytest.mark.parametrize("scheduler", ("calendar", "heap"))
@pytest.mark.parametrize("text", sorted(CASES))
def test_netlog_matches_golden_digest(text, scheduler):
    assert run_case(text, scheduler) == GOLDEN[text]
