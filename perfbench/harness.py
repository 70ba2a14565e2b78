"""Set-up, timed loop, accounting passes and metric assembly of one run.

Machine-speed scaling: shared machines drift in speed in phases lasting tens
of seconds (on a 2-vCPU virtual machine the same unit took 75 ms in one phase
and 135 ms in the next, CPU time tracking wall time). A fixed probe that does
not touch the package runs after every unit for a share of its time, and each
unit's time is scaled by ``PROBE_REF_S`` over the mean probe repetition time
around it, so a reported millisecond is one on a machine where a probe
repetition takes ``PROBE_REF_S``. run.py pins the run to one CPU, so probe
and units share a core. Raw wall-time medians are kept in the run record.
"""

from __future__ import annotations

import gc
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

import spans
import workloads

PROBE_REF_S = 0.002  # seconds of one probe repetition on the reference machine
PROBE_SHARE = 0.1  # probe for this share of the time of the unit just run
SETUP_REPS = 5
MiB = 1024 * 1024


class _Point:
    __slots__ = ("x", "y", "z")

    def __init__(self, x: float, y: float, z: float) -> None:
        self.x, self.y, self.z = x, y, z


_ORIGIN = np.zeros(3)


def _probe_once() -> float:
    """One repetition of the probe: object churn and float math in the
    interpreter, then numpy calls on 3-vectors and complex scalars, the two
    kinds of work the package's hot loops are made of."""
    start = time.perf_counter()
    points = []
    acc = 0.0
    for i in range(1, 2000):
        p = _Point(i * 0.5, i * 0.25, 1.0)
        acc += math.sqrt(p.x * p.x + p.y * p.y + p.z * p.z)
        points.append(p)
    for i in range(150):
        d = float(np.linalg.norm(np.array([i * 1.0, 2.0, 3.0]) - _ORIGIN))
        acc += abs(complex(0.5 * np.exp(2j * math.pi * d * 1e-3)))
    return time.perf_counter() - start


def probe(after_s: float = 0.0) -> tuple[float, int]:
    """Repeat the probe for PROBE_SHARE of `after_s`, the time of the work
    just done, and at least once; return (total seconds, repetitions).

    The probe slows down with the machine much as the package does. Probing
    for a share of each unit samples the machine's speed about as long and
    as often as the unit itself was exposed to it.
    """
    total, count = _probe_once(), 1
    while total < PROBE_SHARE * after_s:
        total += _probe_once()
        count += 1
    return total, count


def _scaled(raw: list[float], probes: list[tuple[float, int]]) -> list[float]:
    """Scale raw[i], which ran between probes[i] and probes[i + 1], by the
    mean probe repetition time of those two."""
    return [
        r * PROBE_REF_S * (probes[i][1] + probes[i + 1][1]) / (probes[i][0] + probes[i + 1][0])
        for i, r in enumerate(raw)
    ]


# ---------------------------------------------------------------------------
# set-up


_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import reflectmimo; "
    "print(time.perf_counter() - t)"
)


def _import_seconds() -> float:
    """Time of `import reflectmimo` (numpy included) in a fresh interpreter,
    measured inside it: interpreter start-up and process creation are left
    out, since their time on a shared machine comes in scheduler quanta."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER],
        env={**os.environ, "PYTHONPATH": str(workloads.ROOT / "src")},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    return float(done.stdout)


def setup(wl, seed: int):
    """Set up SETUP_REPS times; return the last state and (raw, scaled) times.

    One set-up is: import the package in a fresh interpreter, load or generate
    the scene, load the reference data, and run one warm-up unit. Only the
    in-process part is scaled by the probe: the child's import (mostly numpy
    loading its libraries) does not slow down with the probe, and scaling it
    made the set-up time noisier, not steadier.
    """
    imported, loaded = [], []
    probes = [probe()]
    for _ in range(SETUP_REPS):
        imported.append(_import_seconds())
        start = time.perf_counter()
        state = wl.load(seed, workloads.load_reference())
        wl.unit(state, next(wl.inputs(state, seed)))
        loaded.append(time.perf_counter() - start)
        probes.append(probe(loaded[-1]))
    scaled = _scaled(loaded, probes)
    return state, [(i + l, i + s) for i, l, s in zip(imported, loaded, scaled)]


# ---------------------------------------------------------------------------
# timed loop


@dataclass
class Phase:
    """Units of one timed loop: inputs, raw and scaled seconds, failures."""

    inputs: list = field(default_factory=list)
    raw_s: list[float] = field(default_factory=list)
    scaled_s: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0


def timed_loop(wl, state, inputs, seconds: float | None, recorder=None) -> Phase:
    """Run units back to back until `seconds` of wall time or the inputs end.

    Each unit's output is checked right after it, outside its timed window
    and with the recorder paused. A unit that raises or fails its check is
    counted in `failed` and left out of the timings.
    """
    phase = Phase()
    start = time.perf_counter()
    probes = [probe()]
    unit_raw = []  # every unit's time, failed ones too, aligned with probes
    passed = []
    for inp in inputs:
        if seconds is not None and phase.attempted and time.perf_counter() - start >= seconds:
            break
        phase.attempted += 1
        phase.inputs.append(inp)
        if recorder is not None:
            recorder.begin_unit()
            recorder.active = True
        t0 = time.perf_counter()
        try:
            out = wl.unit(state, inp)
            error = None
        except Exception:
            error = traceback.format_exc()
        raw = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        probes.append(probe(raw))
        unit_raw.append(raw)
        if error is None:
            error = wl.check(state, inp, out)
        passed.append(error is None)
        if error is not None:
            phase.failed += 1
            if phase.failed <= 3:
                print(f"{wl.name}: unit {phase.attempted - 1} failed: {error}", file=sys.stderr)
    scaled = _scaled(unit_raw, probes)
    phase.raw_s = [r for r, ok in zip(unit_raw, passed) if ok]
    phase.scaled_s = [s for s, ok in zip(scaled, passed) if ok]
    return phase


def canonical_unit(wl):
    """State and first input of seed 0: the fixed unit that memory and trace
    counts are taken on, so they do not move with the run's seed."""
    state = wl.load(0, None)
    return state, next(wl.inputs(state, 0))


def peak_memory_mb(wl, state, inp) -> float:
    """Peak traced heap (Python objects and numpy buffers) above its level at
    the start of one unit, in MiB. A collection first, so that when the
    cyclic collector runs inside the unit does not depend on earlier work."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        wl.unit(state, inp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / MiB


def traces_per_unit(wl, state, inp) -> int:
    """The paper's cost metric: capacity_sweep's own counts where it reports
    them, else the trace_paths calls one unit makes."""
    recorder = spans.Recorder()
    with recorder:
        out = wl.unit(state, inp)
    counted = wl.traces(out)
    return recorder.calls["tracer.trace_paths"] if counted is None else counted


# ---------------------------------------------------------------------------
# metrics


def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q))


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(wl, state, seed: int, seconds: float, setup_times) -> tuple[dict, dict, Phase]:
    phase = timed_loop(wl, state, wl.inputs(state, seed), seconds)
    if not phase.scaled_s:
        raise RuntimeError(f"{wl.name}: every unit failed")
    unit_ms = [1e3 * s for s in phase.scaled_s]
    fixed_state, fixed_input = canonical_unit(wl)
    traces = traces_per_unit(wl, fixed_state, fixed_input)  # also warms fixed_state
    metrics = {
        "unit_ms.p50": _metric(statistics.median(unit_ms), "ms"),
        "units_per_s": _metric(len(unit_ms) / sum(phase.scaled_s), "1/s"),
        "setup_s": _metric(statistics.median(s for _, s in setup_times), "s"),
        "peak_mem_mb": _metric(peak_memory_mb(wl, fixed_state, fixed_input), "MiB"),
        "traces_per_unit": _metric(traces, "traces"),
    }
    record = {
        "units": phase.attempted,
        "unit_ms.p50.samples": len(unit_ms),
        "unit_ms.p50.raw_wall": 1e3 * statistics.median(phase.raw_s),
        "setup_s.samples": len(setup_times),
        "setup_s.raw_wall": statistics.median(r for r, _ in setup_times),
        "failed_frac": phase.failed / phase.attempted,
    }
    if len(unit_ms) >= 100:  # at least ten samples beyond the 90th percentile
        record["unit_ms.p90"] = _pct(unit_ms, 90)
        record["unit_ms.p90.samples"] = len(unit_ms)
    else:
        record["unit_ms.p90"] = f"not reported: {len(unit_ms)} units < 100"
    return metrics, record, phase


def per_layer(wl, state, seed: int, seconds: float) -> tuple[dict, dict, list[Phase]]:
    """Untraced loop for half the time, then the same inputs traced."""
    plain = timed_loop(wl, state, wl.inputs(state, seed), seconds / 2.0)
    recorder = spans.Recorder()
    with recorder:
        traced = timed_loop(wl, state, iter(plain.inputs), None, recorder)
        recorder.active = True
        wl.load(seed, None)  # the scene-loading part of set-up; units load nothing
    load_scene_s = recorder.self_s["fileio.load_scene"]
    if not traced.scaled_s or not plain.scaled_s:
        raise RuntimeError(f"{wl.name}: every unit failed")
    metrics = _layer_metrics(recorder, traced.attempted, load_scene_s)
    metrics["trace_overhead_ratio"] = _metric(
        sum(traced.scaled_s) / sum(plain.scaled_s), "ratio"
    )
    record = {
        "units": traced.attempted,
        "units_untraced": plain.attempted,
        "per_layer_basis": "per attempted traced unit; self times are raw wall seconds",
        "tracer.trace_paths.call_us.samples": len(recorder.trace_call_s),
        "channel.phasors": "computed as rows * cols * paths over synthesized matrices",
        "wait_time": "none: no layer has a queue or a second thread",
        "failed_frac": (plain.failed + traced.failed) / (plain.attempted + traced.attempted),
    }
    return metrics, record, [plain, traced]


def _layer_metrics(rec: spans.Recorder, units: int, load_scene_s: float) -> dict:
    m = {}
    per_unit = 1.0 / units
    for name in rec.calls:
        if name == "fileio.load_scene":
            continue
        m[f"{name}.calls"] = _metric(rec.calls[name] * per_unit, "calls/unit")
        m[f"{name}.self_s"] = _metric(rec.self_s[name] * per_unit, "s/unit")
    calls_us = [1e6 * s for s in rec.trace_call_s] or [0.0]
    m["tracer.trace_paths.call_us.p50"] = _metric(_pct(calls_us, 50), "us")
    m["tracer.trace_paths.call_us.p99"] = _metric(_pct(calls_us, 99), "us")
    c = rec.counters
    m["tracer.paths_returned"] = _metric(c["paths_returned"] * per_unit, "paths/unit")
    m["tracer.accept_ratio"] = _metric(
        _ratio(c["bounced_paths"], rec.calls["tracer.trace_sequence"]), "ratio"
    )
    m["fit_dp.kept_ratio"] = _metric(_ratio(c["dp_kept_paths"], c["dp_reference_paths"]), "ratio")
    m["fit_dp.agree_ratio"] = _metric(_ratio(c["dp_agreeing_paths"], c["dp_kept_paths"]), "ratio")
    m["channel.phasors"] = _metric(c["phasors"] * per_unit, "phasors/unit")
    m["fileio.load_scene.self_s"] = _metric(load_scene_s, "s")
    return m


def run_record(wl, seed: int, seconds: float) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "loop": "closed, one process, next unit after the previous returns",
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "library default"),
        "probe_ref_s": PROBE_REF_S,
    }


def run(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One benchmark run; returns (run record, result line)."""
    wl = workloads.WORKLOADS[name]
    record = run_record(wl, seed, seconds)
    state, setup_times = setup(wl, seed)
    if trace:
        metrics, extra, phases = per_layer(wl, state, seed, seconds)
    else:
        metrics, extra, phase = end_to_end(wl, state, seed, seconds, setup_times)
        phases = [phase]
    record.update(extra)
    record.update(wl.notes(state))
    result = {
        "correct": all(p.failed == 0 for p in phases),
        "attempted": sum(p.attempted for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    return record, result
