"""The four benchmark workloads: set-up, inputs, one unit of work, its check.

Every workload is a closed loop from one process: the next unit starts when
the previous one has returned. A unit calls the package only through its
public API, resolved at call time (``rm.capacity_sweep``, ...), so the span
recorder's wrappers see it. Checks compare each unit's output with reference
values recorded from the seed code (``reference.npz``, written by
``record_reference.py``) or, for the generated rooms of ``fit_rich``, with an
independent oracle; their tolerances are no looser than
``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import reflectmimo as rm
import reflectmimo.fileio

import rooms

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = Path(__file__).resolve().with_name("reference.npz")

# Relative tolerance on spectral efficiencies: the rate layer sums at most
# 64 clipped logs, so a reordered sum moves them by ~1e-15.
SE_RTOL = 1e-9
# Displacement errors: |eps - ref| <= EPS_ATOL + EPS_RTOL * ref. EPS_ATOL is
# acceptance check 04's bound on the reflection-model median error at 1 m;
# the reflection-model errors themselves sit at 1e-8..1e-6 (fit round-off).
EPS_ATOL = 1e-6
EPS_RTOL = 1e-6
# fit_rich: mirror-image distance versus the re-traced route (acceptance 01),
# and traced delays versus the oracle's.
DIST_RTOL = 1e-9
DELAY_RTOL = 1e-12
# Units of the displacement workload draw their experiment seed from this pool.
DISPLACEMENT_SEEDS = tuple(range(8))
# fit_rich takes its reference pairs from this many generated rooms in turn,
# so one run's median does not hang on a single room's layout.
RICH_ROOMS = 8


def _load_json(name: str) -> dict:
    with open(ROOT / "demo" / name) as fp:
        return json.load(fp)


def _load_scene(name: str) -> rm.Scene:
    with open(ROOT / "demo" / name) as fp:
        return rm.fileio.load_scene(fp)


def _reference_pair(cfg: dict) -> rm.ReferencePair:
    return rm.ReferencePair(
        tx_ref=np.array(cfg["tx_ref"], dtype=float),
        rx_ref=np.array(cfg["rx_ref"], dtype=float),
    )


def _close(value: float, ref: float, rtol: float) -> bool:
    return abs(value - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# capacity sweeps on demo/blocked.json


@dataclass
class CapacityState:
    scene: rm.Scene
    ref: rm.ReferencePair
    cfg: dict
    rotations: list[float]
    budget: rm.LinkBudget
    reference: np.ndarray | None  # (rotation, model, [se_avg, se_center, rank])


class CapacityWorkload:
    """One unit is one ``capacity_sweep`` call for one TX rotation."""

    def __init__(self, name: str, models: tuple[str, ...]) -> None:
        self.name = name
        self.models = models

    def load(self, seed: int, reference: dict | None) -> CapacityState:
        cfg = _load_json("capacity_config.json")
        return CapacityState(
            scene=_load_scene("blocked.json"),
            ref=_reference_pair(cfg),
            cfg=cfg,
            rotations=[math.radians(d) for d in cfg["rotations_deg"]],
            budget=rm.LinkBudget(
                tx_power_dbm=float(cfg.get("tx_power_dbm", 23.0)),
                bandwidth_hz=float(cfg.get("bandwidth_hz", 2e9)),
                noise_figure_db=float(cfg.get("noise_figure_db", 3.0)),
            ),
            reference=None if reference is None else reference[self.name],
        )

    def inputs(self, state: CapacityState, seed: int):
        """Endless rotation indices into the demo config's angles."""
        rng = np.random.default_rng([seed, 0])
        while True:
            yield int(rng.integers(len(state.rotations)))

    def unit(self, state: CapacityState, rotation: int):
        cfg = state.cfg
        return rm.capacity_sweep(
            state.scene,
            state.ref,
            [state.rotations[rotation]],
            state.budget,
            rows=int(cfg["rows"]),
            cols=int(cfg["cols"]),
            spacing=float(cfg["spacing_m"]),
            models=self.models,
            n_freq=int(cfg["n_freq"]),
            max_bounces=int(cfg["max_bounces"]),
            rng_seed=int(cfg["rng_seed"]),
        )

    @staticmethod
    def summary(out) -> np.ndarray:
        cells, _ = out
        return np.array([[c.se_avg, c.se_center, c.rank_used] for c in cells], dtype=float)

    def check(self, state: CapacityState, rotation: int, out) -> str | None:
        cells, counts = out
        if [c.model for c in cells] != list(self.models):
            return f"models {[c.model for c in cells]}, expected {list(self.models)}"
        if "exhaustive" in self.models:
            pairs = (int(state.cfg["rows"]) * int(state.cfg["cols"])) ** 2
            if counts["exhaustive"] != pairs:
                return f"exhaustive traces {counts['exhaustive']}, expected {pairs}"
        got = self.summary(out)
        want = state.reference[rotation]
        for model, g, w in zip(self.models, got, want):
            if not (_close(g[0], w[0], SE_RTOL) and _close(g[1], w[1], SE_RTOL)):
                return f"{model} se (avg, centre) {g[:2]} != reference {w[:2]}"
            if g[2] != w[2]:
                return f"{model} rank {g[2]:.0f} != reference {w[2]:.0f}"
        return None

    def traces(self, out) -> int:
        return sum(out[1].values())

    def notes(self, state) -> dict:
        return {}


# ---------------------------------------------------------------------------
# displacement experiment on demo/corridor.json


@dataclass
class DisplacementState:
    scene: rm.Scene
    ref: rm.ReferencePair
    cfg: dict
    models: list[str]  # model of each record, in record order
    distances: np.ndarray  # distance of each record, in record order
    reference: np.ndarray | None  # (seed index, record) epsilons


class DisplacementWorkload:
    """One unit is one ``displacement_experiment`` call; its seed varies."""

    name = "displacement"

    def load(self, seed: int, reference: dict | None) -> DisplacementState:
        cfg = _load_json("displacement_config.json")
        n_freq = int(cfg["n_freq"])
        per_sample = n_freq * len(rm.ESTIMATORS)
        distances = np.repeat(
            np.array(cfg["distances_m"], dtype=float),
            int(cfg["directions_per_distance"]) * per_sample,
        )
        return DisplacementState(
            scene=_load_scene("corridor.json"),
            ref=_reference_pair(cfg),
            cfg=cfg,
            models=list(rm.ESTIMATORS) * (distances.size // len(rm.ESTIMATORS)),
            distances=distances,
            reference=None if reference is None else reference["displacement"],
        )

    def inputs(self, state: DisplacementState, seed: int):
        """Endless indices into DISPLACEMENT_SEEDS."""
        rng = np.random.default_rng([seed, 0])
        while True:
            yield int(rng.integers(len(DISPLACEMENT_SEEDS)))

    def unit(self, state: DisplacementState, index: int):
        cfg = state.cfg
        spec = rm.DisplacementSpec(
            distances=tuple(cfg["distances_m"]),
            directions_per_distance=int(cfg["directions_per_distance"]),
            rng_seed=DISPLACEMENT_SEEDS[index],
        )
        return rm.displacement_experiment(
            state.scene,
            state.ref,
            spec,
            n_freq=int(cfg["n_freq"]),
            max_bounces=int(cfg["max_bounces"]),
        )

    @staticmethod
    def summary(out) -> np.ndarray:
        return np.array([r.epsilon for r in out], dtype=float)

    def check(self, state: DisplacementState, index: int, out) -> str | None:
        if [r.model for r in out] != state.models or not np.array_equal(
            [r.distance for r in out], state.distances
        ):
            return "record layout (model, distance) differs from the reference"
        eps = self.summary(out)
        ref = state.reference[index]
        bad = np.abs(eps - ref) > EPS_ATOL + EPS_RTOL * np.abs(ref)
        if np.any(bad):
            i = int(np.argmax(bad))
            return f"epsilon[{i}] = {eps[i]:.6e}, reference {ref[i]:.6e}"
        return _separation_failure(state, eps)

    def traces(self, out) -> None:
        return None  # counted by the recorder: the driver's own trace calls

    def notes(self, state) -> dict:
        return {}


def _separation_failure(state: DisplacementState, eps: np.ndarray) -> str | None:
    """Acceptance check 04's invariants on the per-distance median errors."""
    models = np.array(state.models)
    med = {
        (m, d): float(np.median(eps[(models == m) & (state.distances == d)]))
        for m in ("pwa", "rm_rt", "rm_dp")
        for d in state.cfg["distances_m"]
    }
    far = max(state.cfg["distances_m"])
    if med["rm_rt", far] > 1e-6 or med["rm_dp", far] > 1e-6 or med["pwa", far] < 1e-1:
        return f"median errors at {far} m outside acceptance 04 bounds"
    for d in state.cfg["distances_m"]:
        if not med["rm_rt", d] < med["pwa", d] > med["rm_dp", d]:
            return f"reflection model not below plane-wave at {d} m"
    return None


# ---------------------------------------------------------------------------
# trace -> fit -> displaced fit on generated 20-facet rooms


@dataclass
class RichState:
    rooms: list[rm.Scene]
    # Distance checks made, and skipped because the sequence has no route at
    # the displaced endpoints (an unfolded hit falls outside its segment, as
    # when an endpoint crosses the plane of a facet).
    retraced: int = 0
    retrace_skipped: int = 0


@dataclass
class RichOutput:
    traced: list
    rt_fits: list
    dp_fits: list


class RichWorkload:
    """One unit traces a reference pair, fits both models, re-traces twice."""

    name = "fit_rich"

    def load(self, seed: int, reference: dict | None) -> RichState:
        return RichState(rooms=[rooms.make_room(seed, k) for k in range(RICH_ROOMS)])

    def inputs(self, state: RichState, seed: int):
        return rooms.inputs(seed, len(state.rooms))

    def unit(self, state: RichState, inp: rooms.RichInput) -> RichOutput:
        scene = state.rooms[inp.room]
        ref = rm.ReferencePair(tx_ref=inp.tx, rx_ref=inp.rx)
        traced = rm.trace_paths(scene, inp.tx, inp.rx, rooms.MAX_BOUNCES)
        rt_fits = [rm.fit_rm_rt(p, ref) for p in traced]
        reference = rm.PairObservation(
            tx=inp.tx, rx=inp.rx, paths=tuple(rm.to_pwa(p, ref) for p in traced)
        )
        displaced = []
        for tx, rx in inp.displaced:
            pair = rm.ReferencePair(tx_ref=tx, rx_ref=rx)
            paths = rm.trace_paths(scene, tx, rx, rooms.MAX_BOUNCES)
            displaced.append(
                rm.PairObservation(tx=tx, rx=rx, paths=tuple(rm.to_pwa(p, pair) for p in paths))
            )
        dp_fits = rm.fit_rm_dp(reference, displaced, ref)
        return RichOutput(traced=traced, rt_fits=rt_fits, dp_fits=dp_fits)

    def check(self, state: RichState, inp: rooms.RichInput, out: RichOutput) -> str | None:
        scene = state.rooms[inp.room]
        want = rooms.oracle_delays(scene, inp.tx, inp.rx, rooms.MAX_BOUNCES)
        got = np.sort([p.delay for p in out.traced])
        if got.size != want.size:
            return f"{got.size} paths traced, oracle finds {want.size}"
        if np.any(np.abs(got - want) > DELAY_RTOL * want):
            return "traced delays differ from the oracle's"
        checked = skipped = 0
        ref = rm.ReferencePair(tx_ref=inp.tx, rx_ref=inp.rx)
        for path, fit in zip(out.traced, out.rt_fits):
            image = rm.angles_to_image(fit, ref)
            for tx, rx in inp.displaced:
                route = rm.trace_sequence(
                    scene, path.route.facet_ids, tx, rx,
                    check_bounds=False, check_side=False, check_occlusion=False,
                )
                checked += 1
                if route is None:  # no route for this sequence at these endpoints
                    skipped += 1
                    continue
                truth = rm.route_length(route)
                if abs(rm.rm_distance_image(rx, tx, image) - truth) > DIST_RTOL * truth:
                    return f"mirror-image distance off the re-traced route {path.route.facet_ids}"
        state.retraced += checked - skipped
        state.retrace_skipped += skipped
        known = {(p.gain, p.delay) for p in out.traced}
        if any((p.gain, p.delay) not in known for p in out.dp_fits):
            return "fit_rm_dp returned a path that is not in the reference observation"
        return None

    def traces(self, out) -> None:
        return None  # counted by the recorder

    def notes(self, state: RichState) -> dict:
        return {
            "fit_rich.distance_checks": state.retraced,
            "fit_rich.distance_checks_skipped": state.retrace_skipped,
        }


WORKLOADS = {
    w.name: w
    for w in (
        CapacityWorkload("cap_fitted", ("rm_rt", "rm_dp", "pwa")),
        CapacityWorkload("cap_exhaustive", ("exhaustive",)),
        DisplacementWorkload(),
        RichWorkload(),
    )
}


def load_reference() -> dict:
    with np.load(REFERENCE) as data:
        return {key: data[key] for key in data.files}
