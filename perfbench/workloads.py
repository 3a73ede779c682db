"""The benchmark's four workloads, composed phase by phase.

Each characterization runs the same steps as
``characterize_shared_memory``/``characterize_message_passing``, written
out here so the traced run can put a span on every phase::

    app.run  [-> replay_trace]  -> NetworkLog.seal
             -> analyze_temporal -> analyze_spatial -> analyze_volume

The drives run ``run_pattern``'s serial path: the schedule is compiled
once in set-up, and every pass replays it with ``run_serial_schedule``.
``test_perfbench.py`` checks that both compositions give the same logs
and characterizations as the library's own entry points.

Seeds: ``--seed`` derives every app and schedule seed (see
``app_seed``/``schedule_seed``).  :data:`DEFAULT_SEED` is the seed the
benchmark was tuned on; :data:`HELD_OUT_SEED` was not used while tuning
and is kept for checking later claims.  Both have exact reference
digests in ``references.json``.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Dict, List, Optional

from repro import create_app
from repro.core.attributes import CommunicationCharacterization
from repro.core.options import RunOptions
from repro.core.spatial import analyze_spatial
from repro.core.temporal import analyze_temporal
from repro.core.volume import analyze_volume
from repro.mesh.config import MeshConfig
from repro.mesh.network import MeshNetwork
from repro.simkernel.engine_parallel import ScheduleTraffic, run_serial_schedule
from repro.trace.replay import replay_trace

from perfbench.tracer import NULL_TRACER

#: Seed the benchmark was tuned on.
DEFAULT_SEED = 0
#: Seed kept out of tuning, for checking later claims.
HELD_OUT_SEED = 97

#: Every run uses the serial calendar kernel, whatever the environment says.
OPTIONS = RunOptions(scheduler="calendar")

#: Problem sizes: ``BENCH_PROBLEMS`` in ``benchmarks/conftest.py``.
PROBLEMS = {
    "1d-fft": {"n": 256},
    "is": {"n": 1024, "buckets": 64},
    "cholesky": {"n": 32, "density": 0.15},
    "nbody": {"n": 48, "steps": 2},
    "maxflow": {"n": 20, "extra_edges": 32},
    "3d-fft": {"n": 16},
    "mg": {"n": 32, "cycles": 2},
}
#: Each app's own default problem seed (the seed ``DEFAULT_SEED`` maps to).
APP_SEEDS = {"1d-fft": 1, "is": 2, "nbody": 3, "cholesky": 4, "maxflow": 5,
             "3d-fft": 6, "mg": 7}
#: Apps whose amount of work depends on the seeded input.  Maxflow's
#: push-relabel work varies about 15x between random graphs of the
#: same size (5,714 to 79,586 messages), so its graph stays fixed and
#: the seed varies the other apps' data only.
FIXED_INPUT_APPS = ("maxflow",)

#: Calls the warm-up makes of every function a pass calls once per op.
#: CPython 3.11 specializes ("quickens") a function's bytecode from its
#: 8th call on, so the kernel's event loop, the analyses and each app's
#: ``run`` would otherwise run unspecialized, 20-30% slower, for a run's
#: first passes and speed up part-way through it.
WARMUP_CALLS = 8
#: Small instances the warm-up runs, one per app.
WARMUP_PROBLEMS = {
    "1d-fft": {"n": 32},
    "is": {"n": 64, "buckets": 8},
    "cholesky": {"n": 8, "density": 0.3},
    "nbody": {"n": 8, "steps": 1},
    "maxflow": {"n": 4, "extra_edges": 2},
    "3d-fft": {"n": 8},
    "mg": {"n": 16, "cycles": 1},
}

SHARED_MEMORY = ("1d-fft", "is", "cholesky", "nbody", "maxflow")
MESSAGE_PASSING = ("3d-fft", "mg")
ALL_APPS = SHARED_MEMORY + MESSAGE_PASSING


def app_seed(app: str, seed: int) -> int:
    """The problem seed of ``app`` under benchmark seed ``seed``."""
    if app in FIXED_INPUT_APPS:
        return APP_SEEDS[app]
    return APP_SEEDS[app] + 1000 * (seed - DEFAULT_SEED)


def schedule_seed(seed: int) -> int:
    """The drive schedule seed (``repro drive``'s default at DEFAULT_SEED)."""
    return 1234 + (seed - DEFAULT_SEED)


@dataclass
class OpOutput:
    """What one timed op produced, kept until its checks have run."""

    label: str
    num_nodes: int = 0
    log: object = None
    events: int = 0
    characterization: Optional[CommunicationCharacterization] = None
    trace: object = None
    coherence: Dict[str, float] = field(default_factory=dict)
    expected: Optional[Dict[int, tuple]] = None
    error: Optional[str] = None


# ----------------------------------------------------------------------
# the phase-by-phase pipeline
# ----------------------------------------------------------------------
def analyze(log, config: MeshConfig, app_name: str, strategy: str,
            tracer) -> CommunicationCharacterization:
    """``characterize_log``: seal once, then the three analyses."""
    log.seal()
    with tracer.span("analyze_temporal"):
        temporal = analyze_temporal(log)
    with tracer.span("analyze_spatial"):
        spatial = analyze_spatial(log, config.width, config.height)
    with tracer.span("analyze_volume"):
        volume = analyze_volume(log, config.num_nodes)
    return CommunicationCharacterization(
        app_name=app_name, strategy=strategy, num_nodes=config.num_nodes,
        temporal=temporal, spatial=spatial, volume=volume,
    )


def characterize_dynamic(app, config: MeshConfig, tracer, label: str = "") -> OpOutput:
    """The dynamic strategy: execution-driven CC-NUMA run, then analysis."""
    with tracer.span("app.run"):
        sim = app.run(mesh_config=config, options=OPTIONS)
    ch = analyze(sim.log, config, app.name, "dynamic", tracer)
    stats = sim.machine_stats()
    return OpOutput(
        label=label or app.name, num_nodes=config.num_nodes, log=sim.log,
        events=sim.simulator.events_fired, characterization=ch,
        coherence={
            "accesses": stats["loads"] + stats["stores"],
            "misses": stats["read_misses"] + stats["write_misses"],
            "invalidations": stats["invalidations_sent"],
        },
    )


def characterize_static(app, config: MeshConfig, tracer, label: str = "") -> OpOutput:
    """The static strategy: SP2 run, trace replay into the mesh, analysis."""
    with tracer.span("mp.app.run"):
        runtime = app.run(num_ranks=config.num_nodes, options=OPTIONS)
    simulator = OPTIONS.make_simulator()
    network = MeshNetwork(simulator, config, log=OPTIONS.make_netlog())
    with tracer.span("replay_trace"):
        log = replay_trace(runtime.trace, network)
    ch = analyze(log, config, app.name, "static", tracer)
    return OpOutput(
        label=label or app.name, num_nodes=config.num_nodes, log=log,
        events=simulator.events_fired + runtime.simulator.events_fired,
        characterization=ch, trace=runtime.trace,
    )


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
class Workload:
    """One benchmark workload: set-up, a warm-up, and a timed pass."""

    name = ""
    why = ""

    def setup(self, seed: int) -> dict:
        raise NotImplementedError

    def warmup(self, state: dict) -> None:
        """Run small instances of the pass's ops, each ``WARMUP_CALLS``
        times, once per process before the first timed pass."""
        raise NotImplementedError

    def ops(self, state: dict):
        """The (label, callable(tracer) -> OpOutput) steps of one pass."""
        raise NotImplementedError

    @staticmethod
    def run_op(label: str, step, tracer) -> OpOutput:
        try:
            return step(tracer)
        except Exception:  # an op that raises is a failed op
            return OpOutput(label=label, error=traceback.format_exc())

    def run_pass(self, state: dict, tracer) -> List[OpOutput]:
        return [self.run_op(label, step, tracer) for label, step in self.ops(state)]


class CharacterizeSuite(Workload):
    def __init__(self, name: str, why: str, apps, meshes, dynamic: bool) -> None:
        self.name, self.why = name, why
        self.apps, self.meshes, self.dynamic = tuple(apps), tuple(meshes), dynamic

    def setup(self, seed: int) -> dict:
        cases = []
        for mesh in self.meshes:
            config = MeshConfig.parse(mesh)
            for name in self.apps:
                params = dict(PROBLEMS[name], seed=app_seed(name, seed))
                cases.append((create_app(name, **params), config, f"{name}@{mesh}"))
        return {"cases": cases, "compile_s": 0.0}

    def warmup(self, state: dict) -> None:
        # Simulate each app's small instance WARMUP_CALLS times, then
        # characterize one small log as often: the analyses are the same
        # functions for every app, and they cost far more than the
        # small simulations.
        config = MeshConfig.parse("4x2")
        step = characterize_dynamic if self.dynamic else characterize_static
        for name in self.apps:
            app = create_app(name, **WARMUP_PROBLEMS[name])
            for _ in range(WARMUP_CALLS - 1):
                if self.dynamic:
                    app.run(mesh_config=config, options=OPTIONS)
                else:
                    runtime = app.run(num_ranks=config.num_nodes, options=OPTIONS)
                    network = MeshNetwork(OPTIONS.make_simulator(), config,
                                          log=OPTIONS.make_netlog())
                    replay_trace(runtime.trace, network)
            log = step(app, config, NULL_TRACER).log
        for _ in range(WARMUP_CALLS - len(self.apps)):
            analyze(log, config, name, "warmup", NULL_TRACER)

    def ops(self, state: dict):
        step = characterize_dynamic if self.dynamic else characterize_static
        for app, config, label in state["cases"]:
            yield label, partial(_app_op, step, app, config, label)


def _app_op(step, app, config, label, tracer) -> OpOutput:
    with tracer.span(f"apps.{app.name}"):
        return step(app, config, tracer, label)


class Drive(Workload):
    MESSAGES_PER_SOURCE = 300
    MEAN_GAP = 10.0
    LENGTH_BYTES = 64

    def __init__(self, name: str, why: str, mesh: str, pattern: str) -> None:
        self.name, self.why, self.mesh, self.pattern = name, why, mesh, pattern

    def compile(self, config: MeshConfig, seed: int, messages: int) -> ScheduleTraffic:
        return ScheduleTraffic.compile_pattern(
            config, pattern=self.pattern, messages_per_source=messages,
            seed=seed, mean_gap=self.MEAN_GAP, length_bytes=self.LENGTH_BYTES,
        )

    def setup(self, seed: int) -> dict:
        config = MeshConfig.parse(self.mesh)
        start = perf_counter()
        traffic = self.compile(config, schedule_seed(seed), self.MESSAGES_PER_SOURCE)
        compile_s = perf_counter() - start
        expected = {
            msg_id: (src, dst, length)
            for src, entries in traffic.per_source.items()
            for _, dst, length, msg_id in entries
        }
        return {"config": config, "traffic": traffic, "expected": expected,
                "compile_s": compile_s, "seed": seed}

    def warmup(self, state: dict) -> None:
        config = state["config"]
        small = self.compile(config, schedule_seed(state["seed"]) + 10_000, 5)
        for _ in range(WARMUP_CALLS):
            run_serial_schedule(config, small, scheduler=OPTIONS.kernel_scheduler,
                                log=OPTIONS.make_netlog())

    def ops(self, state: dict):
        config, traffic = state["config"], state["traffic"]
        label = f"{self.pattern}@{self.mesh}"

        def drive(tracer) -> OpOutput:
            with tracer.span("run_serial_schedule"):
                result = run_serial_schedule(
                    config, traffic, scheduler=OPTIONS.kernel_scheduler,
                    log=OPTIONS.make_netlog())
            return OpOutput(label=label, num_nodes=config.num_nodes,
                            log=result.log, events=result.events_fired,
                            expected=state["expected"])

        yield label, drive


WORKLOADS = {
    w.name: w
    for w in (
        CharacterizeSuite(
            "dynamic-suite",
            "the paper's dynamic strategy on the five shared-memory apps; the "
            "only workload with coherence and exec_driven work",
            SHARED_MEMORY, ("4x2",), dynamic=True),
        CharacterizeSuite(
            "static-suite",
            "3d-fft and mg traced on the SP2 and replayed on 4x2 and 4x4; "
            "analysis and fitting dominate, simulation barely shows",
            MESSAGE_PASSING, ("4x2", "4x4"), dynamic=False),
        Drive(
            "drive-mesh2d",
            "uniform pattern on an 8x8 mesh: pure mesh routing and kernel "
            "dispatch, no app front end and no analysis",
            "8x8", "uniform"),
        Drive(
            "drive-torus3d",
            "tornado pattern on a 4x4x4 torus: the same layers through N-D "
            "wrapped routing with dateline VC classes",
            "4x4x4:torus", "tornado"),
    )
}
