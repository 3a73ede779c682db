"""Non-finite durations are rejected where they enter the model.

A NaN or infinite hold, scheduling delay, mesh timing field or schedule
gap used to run to completion with ``clock == nan``.  Each entry point
now raises its existing error type with a message naming the value.
"""

import dataclasses
import math

import pytest

from repro.mesh import MeshConfig
from repro.simkernel import Hold, InvalidDelayError, SimulationError, Simulator, hold
from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule

SCHEDULERS = ("calendar", "heap")
NON_FINITE = (math.nan, math.inf, -math.inf)
TIMING_FIELDS = ("channel_time", "routing_time", "injection_time", "ejection_time")


@pytest.mark.parametrize("value", NON_FINITE)
def test_hold_rejects_non_finite(value):
    with pytest.raises(SimulationError, match=f"duration must be finite.*{value}"):
        hold(value)
    with pytest.raises(SimulationError, match=f"duration must be finite.*{value}"):
        Hold(value)


def test_hold_keeps_the_frozen_dataclass_contract():
    command = Hold(2.5)
    assert command == Hold(duration=2.5) == hold(2.5)
    assert hash(command) == hash(Hold(duration=2.5))
    assert command != Hold(2.0)
    assert [f.name for f in dataclasses.fields(Hold)] == ["duration"]
    assert dataclasses.replace(command, duration=4.0) == Hold(4.0)
    with pytest.raises(SimulationError, match="got -1.0"):
        dataclasses.replace(command, duration=-1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        command.duration = 1.0
    assert command.duration == 2.5


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_yielded_non_finite_hold_fails_the_run(scheduler, value):
    sim = Simulator(scheduler=scheduler)

    def body():
        yield hold(1.0)
        yield hold(value)

    proc = sim.process(body(), name="p")
    with pytest.raises(SimulationError, match=str(value)):
        sim.run()
    assert sim.now == 1.0
    assert proc.error is not None


@pytest.mark.parametrize("scheduler", SCHEDULERS)
@pytest.mark.parametrize("value", (math.nan, math.inf))
def test_schedule_rejects_non_finite_delay(scheduler, value):
    sim = Simulator(scheduler=scheduler)
    with pytest.raises(InvalidDelayError, match=f"delay={value}"):
        sim.schedule(value, lambda: None)
    assert sim.queue_depth == 0
    assert sim.run() == 0.0


@pytest.mark.parametrize("field", TIMING_FIELDS)
@pytest.mark.parametrize("value", NON_FINITE)
def test_mesh_config_rejects_non_finite_timing(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite and >= 0, got {value}"):
        MeshConfig(spec="4x2", **{field: value})


@pytest.mark.parametrize("value", (math.nan, math.inf))
def test_schedule_traffic_rejects_non_finite_gap(value):
    with pytest.raises(ValueError, match=f"non-finite gap {value} for source 0"):
        ScheduleTraffic(2, {0: [(1.0, 1, 8, 0), (value, 1, 8, 1)]})


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_finite_schedule_still_runs(scheduler):
    config = MeshConfig.parse("4x2")
    traffic = ScheduleTraffic(8, {0: [(1.5, 7, 8, 0)], 3: [(0.0, 4, 8, 1)]})
    result = run_serial_schedule(config, traffic, scheduler=scheduler)
    assert len(result.log) == 2
    assert math.isfinite(result.clock)
