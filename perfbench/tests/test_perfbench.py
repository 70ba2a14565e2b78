"""Tests of the benchmark itself: checks, recorder hygiene, seeded inputs.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import reflectmimo as rm
import rooms
import spans
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def reference():
    return workloads.load_reference()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_passes_its_check_at_a_tiny_size(name, reference):
    wl = workloads.WORKLOADS[name]
    state = wl.load(3, reference)
    phase = harness.timed_loop(wl, state, itertools.islice(wl.inputs(state, 3), 2), None)
    assert (phase.attempted, phase.failed) == (2, 0)
    assert len(phase.scaled_s) == 2 and all(s > 0 for s in phase.scaled_s)


def _corrupt_se(out):
    cells, counts = out
    bad = dataclasses.replace(cells[0], se_avg=cells[0].se_avg * (1 + 1e-6))
    return [bad, *cells[1:]], counts


def _corrupt_epsilon(records):
    bad = dataclasses.replace(records[-1], epsilon=records[-1].epsilon + 1e-4)
    return [*records[:-1], bad]


def _corrupt_path_count(out):
    return dataclasses.replace(out, traced=out.traced[:-1], rt_fits=out.rt_fits[:-1])


@pytest.mark.parametrize(
    "name, corrupt",
    [
        ("cap_fitted", _corrupt_se),
        ("displacement", _corrupt_epsilon),
        ("fit_rich", _corrupt_path_count),
    ],
)
def test_a_corrupted_output_is_counted_as_failed(name, corrupt, reference, monkeypatch):
    wl = workloads.WORKLOADS[name]
    state = wl.load(4, reference)
    monkeypatch.setattr(wl, "unit", lambda st, inp, _unit=wl.unit: corrupt(_unit(st, inp)))
    phase = harness.timed_loop(wl, state, itertools.islice(wl.inputs(state, 4), 2), None)
    assert (phase.attempted, phase.failed) == (2, 2)
    assert phase.scaled_s == []


def test_exhaustive_check_requires_every_element_pair_traced(reference):
    wl = workloads.WORKLOADS["cap_exhaustive"]
    state = wl.load(0, reference)
    se_avg, se_center, rank = state.reference[0][0]
    cells = [rm.SweepCell(0.0, "exhaustive", se_center=se_center, se_avg=se_avg, rank_used=int(rank))]
    assert wl.check(state, 0, (cells, {"exhaustive": 64 * 64})) is None
    assert "exhaustive traces" in wl.check(state, 0, (cells, {"exhaustive": 64 * 64 - 1}))


def _package_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "reflectmimo" or name.startswith("reflectmimo."))
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_traced_run_restores_every_wrapped_binding(reference):
    wl = workloads.WORKLOADS["cap_fitted"]
    state = wl.load(0, reference)
    before = _package_bindings()
    recorder = spans.Recorder()
    with recorder:
        wrapped = list(recorder._installed)
        harness.timed_loop(wl, state, itertools.islice(wl.inputs(state, 0), 1), None, recorder)
    # every consuming module's binding was wrapped, not only the home module's
    bound = {(mod.__name__, attr) for mod, attr, _ in wrapped}
    for key in [
        ("reflectmimo.experiments", "trace_paths"),
        ("reflectmimo.channel", "trace_paths"),
        ("reflectmimo.tracer", "trace_sequence"),
        ("reflectmimo.capacity", "spectral_efficiency"),
        ("reflectmimo.channel", "mimo_matrix"),
    ]:
        assert key in bound
    assert recorder.calls["capacity.spectral_efficiency"] > 0
    assert recorder.calls["channel.mimo_matrix"] > 0
    for mod, attr, original in wrapped:
        assert getattr(mod, attr) is original
    after = _package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_excludes_wrapped_children():
    recorder = spans.Recorder()
    with recorder:
        scene = rooms.make_room(0)
        rm.trace_paths(scene, np.array([2.0, 2.0, 1.5]), np.array([9.0, 6.0, 1.5]), 2)
    inner = recorder.self_s["tracer.trace_sequence"]
    outer = recorder.self_s["tracer.trace_paths"]
    assert recorder.calls["tracer.trace_sequence"] == 20 + 20 * 19
    assert inner > 0 and outer > 0
    assert recorder.counters["paths_returned"] == len(
        rm.trace_paths(scene, np.array([2.0, 2.0, 1.5]), np.array([9.0, 6.0, 1.5]), 2)
    )


def _inputs(name, seed, n=4):
    wl = workloads.WORKLOADS[name]
    state = wl.load(seed, None)
    return state, list(itertools.islice(wl.inputs(state, seed), n))


def _same(a, b):
    if isinstance(a, rooms.RichInput):
        return a.room == b.room and np.array_equal(a.tx, b.tx) and np.array_equal(a.rx, b.rx)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(name):
    _, first = _inputs(name, 5)
    _, again = _inputs(name, 5)
    _, other = _inputs(name, 6)
    assert all(_same(a, b) for a, b in zip(first, again))
    assert not all(_same(a, b) for a, b in zip(first, other))


def test_rich_rooms_follow_the_seed():
    def centres(scene):
        return np.array([f.center for f in scene.facets])

    assert len(rooms.make_room(1).facets) == 20
    assert np.array_equal(centres(rooms.make_room(1)), centres(rooms.make_room(1)))
    assert not np.array_equal(centres(rooms.make_room(1)), centres(rooms.make_room(2)))


def test_oracle_agrees_with_tracer_on_a_demo_scene():
    with open(workloads.ROOT / "demo" / "blocked.json") as fp:
        scene = rm.fileio.load_scene(fp)
    tx, rx = np.array([0.0, 0.3, 2.49]), np.array([25.0, -0.2, 2.0])
    delays = sorted(p.delay for p in rm.trace_paths(scene, tx, rx, 2))
    np.testing.assert_allclose(rooms.oracle_delays(scene, tx, rx, 2), delays, rtol=1e-12)


def test_result_names_every_declared_metric(monkeypatch):
    monkeypatch.setattr(harness, "SETUP_REPS", 1)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        record, result = harness.run("displacement", 0, 0.05, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        assert record["seed"] == 0 and "blas_threads" in record
