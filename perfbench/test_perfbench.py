"""Self-tests of the benchmark.  Run from the root of a checkout::

    python3 -m pytest perfbench -q

They prove that the phase-by-phase composition the benchmark times is
the library's own pipeline, that the output checks reject a perturbed
log, that the traced run's wrappers are restored and its spans cover a
pass, and that the command follows its output contract.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro import characterize_message_passing, characterize_shared_memory, create_app  # noqa: E402
from repro.core.run import run_pattern  # noqa: E402
from repro.mesh.config import MeshConfig  # noqa: E402
from repro.mesh.netlog import NetworkLog  # noqa: E402

from perfbench import layers  # noqa: E402
from perfbench.run import END_TO_END  # noqa: E402
from perfbench.checks import (  # noqa: E402
    check_characterization,
    check_op,
    log_digest,
    op_digest,
)
from perfbench.tracer import (  # noqa: E402
    NULL_TRACER,
    Tracer,
    install_wrappers,
    phase_coverage,
    traced_pass,
)
from perfbench.workloads import (  # noqa: E402
    DEFAULT_SEED,
    HELD_OUT_SEED,
    OPTIONS,
    PROBLEMS,
    WORKLOADS,
    app_seed,
    characterize_dynamic,
    characterize_static,
)

with open(os.path.join(ROOT, "perfbench", "references.json")) as _handle:
    REFERENCES = json.load(_handle)


def _app(name, seed=DEFAULT_SEED):
    return create_app(name, **dict(PROBLEMS[name], seed=app_seed(name, seed)))


def _rebuilt(log, edit):
    """A copy of ``log`` whose columns went through ``edit(cols) -> cols``."""
    cols, vocab = log.columns()
    data = {name: np.array(values) for name, values in cols.items() if name != "kind"}
    data["kind"] = np.asarray(vocab, dtype=np.str_)[cols["kind"]]
    data = edit(data)
    out = NetworkLog()
    out.extend_columns(**data)
    return out


def characterization_digest(ch):
    """Every fitted number of a characterization, for exact comparison."""
    fit = ch.temporal.fit
    return {
        "temporal": (fit.name, sorted(fit.distribution.params().items()),
                     fit.r2, fit.ks, fit.sse, fit.converged,
                     ch.temporal.mean_interarrival, ch.temporal.cv,
                     ch.temporal.sample_size),
        "spatial": (ch.spatial.dominant_pattern,
                    sorted((src, f.describe()) for src, f in ch.spatial.per_source.items()),
                    np.asarray(ch.spatial.fraction_matrix).tolist()),
        "volume": (ch.volume.message_count, ch.volume.total_bytes,
                   ch.volume.mean_length, sorted(ch.volume.length_fractions.items()),
                   np.asarray(ch.volume.volume_matrix).tolist(),
                   sorted(ch.volume.per_source_messages.items())),
    }


def _drop_last(cols):
    return {name: values[:-1] for name, values in cols.items()}


def _late_delivery(cols):
    cols["deliver_time"][0] += 1.0
    return cols


# ----------------------------------------------------------------------
# the composition measures the real pipeline
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["1d-fft", "is", "cholesky", "nbody"])
def test_dynamic_composition_matches_characterize_shared_memory(name):
    config = MeshConfig.parse("4x2")
    ours = characterize_dynamic(_app(name), config, NULL_TRACER)
    theirs = characterize_shared_memory(_app(name), mesh_config=config, options=OPTIONS)
    assert log_digest(ours.log, 0) == log_digest(theirs.log, 0)
    assert characterization_digest(ours.characterization) == \
        characterization_digest(theirs.characterization)


@pytest.mark.parametrize("name", ["3d-fft", "mg"])
@pytest.mark.parametrize("mesh", ["4x2", "4x4"])
def test_static_composition_matches_characterize_message_passing(name, mesh):
    config = MeshConfig.parse(mesh)
    ours = characterize_static(_app(name), config, NULL_TRACER)
    theirs = characterize_message_passing(_app(name), mesh_config=config, options=OPTIONS)
    assert log_digest(ours.log, 0) == log_digest(theirs.log, 0)
    assert characterization_digest(ours.characterization) == \
        characterization_digest(theirs.characterization)


@pytest.mark.parametrize("name", ["drive-mesh2d", "drive-torus3d"])
def test_drive_matches_run_pattern(name):
    workload = WORKLOADS[name]
    state = workload.setup(DEFAULT_SEED)
    (ours,) = workload.run_pass(state, NULL_TRACER)
    theirs = run_pattern(
        state["config"], pattern=workload.pattern,
        messages_per_source=workload.MESSAGES_PER_SOURCE, seed=1234,
        mean_gap=workload.MEAN_GAP, length_bytes=workload.LENGTH_BYTES, options=OPTIONS,
    )
    assert op_digest(ours) == log_digest(theirs.log, theirs.events_fired)
    assert op_digest(ours) == REFERENCES[name][str(DEFAULT_SEED)]["ops"][ours.label]
    assert check_op(ours) == []


# ----------------------------------------------------------------------
# the output checks
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [DEFAULT_SEED, HELD_OUT_SEED])
def test_static_suite_matches_references(seed):
    workload = WORKLOADS["static-suite"]
    outputs = workload.run_pass(workload.setup(seed), NULL_TRACER)
    references = REFERENCES["static-suite"][str(seed)]["ops"]
    assert sorted(out.label for out in outputs) == sorted(references)
    for out in outputs:
        assert check_op(out, references[out.label]) == [], out.label


def test_perturbed_log_fails_the_checks():
    config = MeshConfig.parse("4x2")
    out = characterize_static(_app("mg"), config, NULL_TRACER)
    reference = REFERENCES["static-suite"][str(DEFAULT_SEED)]["ops"]["mg@4x2"]
    assert check_op(out, reference) == []

    original = out.log
    out.log = _rebuilt(original, _late_delivery)
    problems = check_op(out, reference)
    assert any(p.startswith("latency_sum") for p in problems), problems

    out.log = _rebuilt(original, _drop_last)
    problems = check_op(out, reference)
    assert any("replayed" in p for p in problems), problems
    assert any(p.startswith("messages") for p in problems), problems

    out.log = _rebuilt(original, lambda cols: cols)
    assert check_op(out, reference) == []


def test_drive_conservation_catches_a_lost_message():
    workload = WORKLOADS["drive-torus3d"]
    state = workload.setup(DEFAULT_SEED)
    (out,) = workload.run_pass(state, NULL_TRACER)
    out.log = _rebuilt(out.log, _drop_last)
    problems = check_op(out)
    assert any("scheduled" in p for p in problems), problems


def test_characterization_validity_catches_bad_fractions():
    out = characterize_static(_app("3d-fft"), MeshConfig.parse("4x2"), NULL_TRACER)
    assert check_characterization(out.characterization, out.log) == []
    out.characterization.spatial.fraction_matrix[0, :] *= 0.5
    problems = check_characterization(out.characterization, out.log)
    assert any("spatial fraction" in p for p in problems), problems


class _FailingApp:
    """An app whose own verify() rejects its result."""

    name = "3d-fft"

    def run(self, **kwargs):
        raise AssertionError("verify: computed result differs from the reference")


def test_a_raising_op_counts_as_failed():
    workload = WORKLOADS["static-suite"]
    state = {"cases": [(_FailingApp(), MeshConfig.parse("4x2"), "3d-fft@4x2")]}
    (out,) = workload.run_pass(state, NULL_TRACER)
    assert out.error is not None
    assert check_op(out) == [
        "AssertionError: verify: computed result differs from the reference"]


# ----------------------------------------------------------------------
# traced-run plumbing
# ----------------------------------------------------------------------
def _targets():
    from repro.core import spatial, temporal
    from repro.mesh import topology
    from repro.stats import fitting, regression, spatial_models

    return {
        "route": [cls.__dict__.get("route") for cls in vars(topology).values()
                  if isinstance(cls, type) and issubclass(cls, topology.Topology)],
        "seal": NetworkLog.__dict__["seal"],
        "regression": regression.NonlinearRegression.__dict__["fit"],
        "fit": (fitting.fit_distribution, temporal.fit_distribution),
        "classify": (spatial_models.classify_spatial, spatial.classify_spatial),
    }


def test_wrappers_are_installed_and_restored():
    before = _targets()
    restore = install_wrappers(Tracer())
    try:
        during = _targets()
        for key in before:
            assert during[key] != before[key], key
    finally:
        restore()
    assert _targets() == before


def test_traced_pass_covers_phases_and_matches_references():
    workload = WORKLOADS["static-suite"]
    state = workload.setup(DEFAULT_SEED)
    before = _targets()
    tracer = Tracer()
    index, outputs = traced_pass(tracer, workload, state)
    assert _targets() == before
    assert phase_coverage(tracer, index) >= 0.95
    numbers = layers.pass_numbers(tracer, index, outputs)
    traced = REFERENCES["static-suite"][str(DEFAULT_SEED)]["traced"]
    assert {name: numbers[name] for name in traced} == traced
    for name in ("mp.run_s", "trace.replay_s", "core.temporal_s", "core.spatial_s",
                 "core.volume_s", "stats.fit_s", "stats.spatial_s", "mesh.route.s",
                 "mesh.netlog.seal_s", "simkernel.self_s", "apps.3d-fft.s", "apps.mg.s"):
        assert numbers[name] > 0, name
    assert numbers["exec_driven.run_s"] == 0


# ----------------------------------------------------------------------
# host-speed scaling
# ----------------------------------------------------------------------
def test_host_speed_samples_inside_an_op_and_restores_the_timer():
    import signal
    import time

    from perfbench.hostspeed import REFERENCE_S, HostSpeed, _loop

    def busy():
        deadline = time.perf_counter() + 0.25
        while time.perf_counter() < deadline:
            _loop(500)
        return "done"

    previous = signal.getsignal(signal.SIGALRM)
    speed = HostSpeed()
    speed.sample()
    first = len(speed.samples)
    start = time.perf_counter()
    result, host, reference = speed.time(busy)
    wall = time.perf_counter() - start
    assert result == "done"
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    calibrations = speed.samples[first:]
    assert len(calibrations) >= 3  # some inside the op, and one after it
    # The calibrations' own time is left out of the op's host time.
    assert host < 0.25 < wall
    assert abs(wall - host - sum(calibrations)) < 0.01
    # Each segment is scaled by the mean of its samples, so the whole op
    # is scaled by a factor within the range the samples give.
    low = REFERENCE_S / max(speed.samples)
    high = REFERENCE_S / min(speed.samples)
    assert low * host <= reference <= high * host


# ----------------------------------------------------------------------
# the command's contract
# ----------------------------------------------------------------------
def test_benchmark_json_names_what_the_command_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER


def _run(cwd, *extra):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "static-suite",
         "--seed", "0", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_one_result_line(trace):
    done = _run(ROOT, "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    expected = END_TO_END if trace == "0" else layers.PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_command_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
