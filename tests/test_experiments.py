"""Experiment drivers: displacement error curves and rotation capacity sweeps."""

import cmath
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    ESTIMATORS,
    DisplacementSpec,
    LinkBudget,
    PairObservation,
    ReferencePair,
    Scene,
    angles_to_image,
    capacity_sweep,
    displacement_experiment,
    fit_rm_dp,
    fit_rm_rt,
    make_facet,
    pwa_distance,
    rm_distance_image,
    to_pwa,
    trace_paths,
)
from scenelib import random_scene

F0 = 140e9
WAVELENGTH = 299792458.0 / F0


def corridor_scene(length):
    """Ground plane plus one side wall along a straight TX->RX link.

    With max_bounces=1 the path set is {LOS, ground bounce, wall bounce} for
    every TX/RX perturbation used below, so no path appears or vanishes
    mid-experiment.
    """
    ground = make_facet(
        (length / 2.0, 0.0, 0.0), (0.0, 0.0, 1.0),
        half_u=length / 2.0 + 100.0, half_v=200.0,
    )
    wall = make_facet(
        (length / 2.0, 6.0, 5.0), (0.0, -1.0, 0.0),
        half_u=length / 2.0 + 100.0, half_v=200.0,
    )
    scene = Scene(facets=(ground, wall), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 5.0]), rx_ref=np.array([length, 0.0, 5.0])
    )
    return scene, ref


def blocked_scene():
    """LOS shadowed by a small facet that admits no specular bounce."""
    blocker = make_facet((5.0, 0.0, 2.0), (-1.0, 0.0, 0.0), half_u=1.0, half_v=1.0)
    scene = Scene(facets=(blocker,), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.0]), rx_ref=np.array([10.0, 0.0, 2.0])
    )
    return scene, ref


def empty_los(range_m):
    scene = Scene(facets=(), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.0]), rx_ref=np.array([range_m, 0.0, 2.0])
    )
    return scene, ref


def medians_by_distance(records, model):
    per_distance = {}
    for rec in records:
        if rec.model == model:
            per_distance.setdefault(rec.distance, []).append(rec.epsilon)
    return {d: float(np.median(v)) for d, v in sorted(per_distance.items())}


@functools.lru_cache(maxsize=None)
def long_range_records():
    scene, ref = corridor_scene(2000.0)
    spec = DisplacementSpec(directions_per_distance=10, rng_seed=3)
    return tuple(
        displacement_experiment(scene, ref, spec, n_freq=10, max_bounces=1)
    )


class TestDisplacementSpec:
    def test_defaults(self):
        spec = DisplacementSpec()
        assert spec.distances == (0.01, 0.02, 0.05, 0.10, 0.50, 1.00)
        assert spec.directions_per_distance == 10

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.02, 0.01))
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.0, 0.01))
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.01,))
        with pytest.raises(ValueError):
            DisplacementSpec(directions_per_distance=0)


class TestDisplacementExperiment:
    def test_record_grid_shape(self):
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=3)
        records = displacement_experiment(scene, ref, spec, n_freq=4, max_bounces=1)
        assert len(records) == 4 * 2 * 3 * 4
        for rec in records:
            assert rec.model in ("constant", "pwa", "rm_rt", "rm_dp")
            assert rec.distance in (0.01, 0.02)
            assert abs(rec.frequency - F0) <= 1e9
            assert rec.epsilon >= 0.0

    def test_vanishing_displacement_limit(self):
        # At nanometre offsets every extrapolation is exact up to the phase
        # produced by the leftover path-length change itself (~1e-10 for the
        # frozen-distance model at 140 GHz, ~1e-18 for the distance-tracking
        # ones). rm_dp is excluded: its roll fit is rank-deficient when the
        # displaced pairs barely move.
        scene, ref = corridor_scene(2000.0)
        spec = DisplacementSpec(distances=(1e-9, 2e-9), directions_per_distance=4)
        records = displacement_experiment(
            scene, ref, spec, models=("constant", "pwa", "rm_rt"), n_freq=3,
            max_bounces=1,
        )
        assert max(r.epsilon for r in records) <= 1e-9
        tracking = [r.epsilon for r in records if r.model in ("pwa", "rm_rt")]
        assert max(tracking) <= 1e-15

    def test_error_hierarchy_long_range(self):
        records = long_range_records()
        rt = medians_by_distance(records, "rm_rt")
        dp = medians_by_distance(records, "rm_dp")
        pwa = medians_by_distance(records, "pwa")
        const = medians_by_distance(records, "constant")

        assert rt[1.0] <= 1e-6
        assert dp[1.0] <= 1e-6
        assert pwa[1.0] >= 1e-1
        for dist in const:
            assert const[dist] >= 1e-1
        for dist in rt:
            assert rt[dist] < pwa[dist]
            assert dp[dist] < pwa[dist]

    def test_route_fit_matches_pair_fit_short_range(self):
        # Where the frozen-amplitude floor dominates, the two reflection-model
        # fits are indistinguishable; the pair-fit roll noise only shows at
        # long range.
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(directions_per_distance=10, rng_seed=3)
        records = displacement_experiment(scene, ref, spec, n_freq=10, max_bounces=1)
        rt = medians_by_distance(records, "rm_rt")
        dp = medians_by_distance(records, "rm_dp")
        for dist in rt:
            assert dp[dist] <= 1.1 * max(rt[dist], 1e-300)

    def test_sub_wavelength_monotonicity(self):
        # constant saturates once displacements pass ~lambda/4, so the
        # nondecreasing-median check lives on a sub-wavelength ladder.
        scene, ref = corridor_scene(2000.0)
        spec = DisplacementSpec(
            distances=(2e-5, 5e-5, 1e-4, 2e-4, 4e-4),
            directions_per_distance=20,
            rng_seed=3,
        )
        assert spec.distances[-1] < WAVELENGTH / 4.0
        records = displacement_experiment(
            scene, ref, spec, models=("constant", "pwa"), n_freq=10, max_bounces=1
        )
        for model in ("constant", "pwa"):
            med = medians_by_distance(records, model)
            values = [med[d] for d in sorted(med)]
            assert all(a < b for a, b in zip(values, values[1:]))

    def test_bitwise_reproducible(self):
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=2)
        a = displacement_experiment(scene, ref, spec, n_freq=3, max_bounces=1)
        b = displacement_experiment(scene, ref, spec, n_freq=3, max_bounces=1)
        assert a == b

    def test_seed_changes_samples(self):
        scene, ref = corridor_scene(100.0)
        base = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=2)
        other = DisplacementSpec(
            distances=(0.01, 0.02), directions_per_distance=2, rng_seed=99
        )
        a = displacement_experiment(scene, ref, base, n_freq=3, max_bounces=1)
        b = displacement_experiment(scene, ref, other, n_freq=3, max_bounces=1)
        assert sorted(r.frequency for r in a) != sorted(r.frequency for r in b)

    def test_rejects_bad_inputs(self):
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=2)
        with pytest.raises(ValueError, match="unknown"):
            displacement_experiment(scene, ref, spec, models=("pwa", "ray_dream"))
        bscene, bref = blocked_scene()
        with pytest.raises(ValueError, match="no propagation paths"):
            displacement_experiment(bscene, bref, spec)


def _random_unit(rng):
    while True:
        v = rng.standard_normal(3)
        n = float(np.linalg.norm(v))
        if n > 1e-6:
            return v / n


def scalar_displacement(scene, ref, spec, bandwidth, n_freq, max_bounces):
    """Per-sample, per-frequency scalar evaluation of all four estimators,
    drawing from the generator in the same order as displacement_experiment:
    (model, distance, frequency, epsilon) rows."""
    f0 = scene.carrier_freq
    rng = np.random.default_rng(spec.rng_seed)
    traced0 = trace_paths(scene, ref.tx_ref, ref.rx_ref, max_bounces)
    energy0 = sum(abs(p.gain) ** 2 for p in traced0)
    pwa0 = [to_pwa(p, ref) for p in traced0]
    displaced = []
    for dist in spec.distances[:2]:
        tx = ref.tx_ref + dist * _random_unit(rng)
        rx = ref.rx_ref + dist * _random_unit(rng)
        pair = ReferencePair(tx_ref=tx, rx_ref=rx)
        traced = trace_paths(scene, tx, rx, max_bounces)
        displaced.append(
            PairObservation(tx=tx, rx=rx, paths=tuple(to_pwa(p, pair) for p in traced))
        )
    reference_obs = PairObservation(tx=ref.tx_ref, rx=ref.rx_ref, paths=tuple(pwa0))
    rm_fits = {
        "rm_rt": [fit_rm_rt(p, ref) for p in traced0],
        "rm_dp": fit_rm_dp(reference_obs, displaced, ref),
    }
    freqs = rng.uniform(f0 - bandwidth / 2.0, f0 + bandwidth / 2.0, size=n_freq)
    samples = [
        (dist, _random_unit(rng), _random_unit(rng))
        for dist in spec.distances
        for _ in range(spec.directions_per_distance)
    ]
    rows = []
    for dist, dir_tx, dir_rx in samples:
        tx = ref.tx_ref + dist * dir_tx
        rx = ref.rx_ref + dist * dir_rx
        terms = {
            "constant": [(p.gain, p.delay, C_LIGHT * p.delay) for p in pwa0],
            "pwa": [(p.gain, p.delay, pwa_distance(rx, tx, ref, p)) for p in pwa0],
        }
        for name, fits in rm_fits.items():
            terms[name] = [
                (p.gain, p.delay, rm_distance_image(rx, tx, angles_to_image(p, ref)))
                for p in fits
            ]
        truth = trace_paths(scene, tx, rx, max_bounces)
        for f in freqs:
            h_true = sum(
                p.gain * cmath.exp(-2j * math.pi * (f - f0) * p.delay) for p in truth
            )
            for name in ESTIMATORS:
                h_est = sum(
                    g * cmath.exp(2j * math.pi * (tau * f0 - f * d / C_LIGHT))
                    for g, tau, d in terms[name]
                )
                rows.append((name, dist, float(f), abs(h_est - h_true) ** 2 / energy0))
    return rows


class TestDisplacementMatchesScalarLoop:
    # Carrier phases tau*f0 are rounded to ~1e-16 of their cycle count, so the
    # two evaluation orders agree to ~1e-13 only at a low carrier and short
    # range; a 140 GHz, 100 m link moves epsilon by ~1e-10 from roundoff alone.
    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_matches_scalar_loop(self, seed):
        scene, ref = random_scene(np.random.default_rng(seed), sep_range=(5.0, 10.0))
        scene = Scene(facets=scene.facets, carrier_freq=1e9)
        spec = DisplacementSpec(
            distances=(0.01, 0.02, 0.1, 0.5), directions_per_distance=3, rng_seed=seed
        )
        records = displacement_experiment(
            scene, ref, spec, bandwidth=1e8, n_freq=4, max_bounces=2
        )
        want = scalar_displacement(scene, ref, spec, 1e8, 4, 2)
        assert [(r.model, r.distance, r.frequency) for r in records] == [
            row[:3] for row in want
        ]
        for rec, row in zip(records, want):
            assert abs(rec.epsilon - row[3]) <= 1e-12


class TestCapacitySweep:
    def test_cells_and_trace_counts(self):
        scene, ref = empty_los(30.0)
        rotations = [math.radians(r) for r in range(-180, 180, 45)]
        cells, counts = capacity_sweep(
            scene, ref, rotations, LinkBudget(), rows=4, cols=4, spacing=0.1,
            n_freq=2, max_bounces=1,
        )
        assert counts == {
            "exhaustive": 16 * 16 * len(rotations),
            "rm_rt": 1,
            "rm_dp": 3,
            "pwa": 1,
            "constant": 1,
        }
        assert len(cells) == 5 * len(rotations)
        seen = {(c.rotation, c.model) for c in cells}
        assert len(seen) == len(cells)
        for cell in cells:
            assert math.isfinite(cell.se_avg) and cell.se_avg > 0.0
            assert math.isfinite(cell.se_center) and cell.se_center > 0.0
            assert 1 <= cell.rank_used <= 16

    def test_rm_dp_count_follows_displacements(self):
        scene, ref = corridor_scene(100.0)
        _, counts = capacity_sweep(
            scene, ref, [0.0], LinkBudget(), rows=2, cols=2, models=("rm_dp",),
            n_freq=1, max_bounces=1, dp_distances=(0.01, 0.02, 0.05),
        )
        assert counts == {"rm_dp": 4}

    def test_los_boresight_is_optimal(self):
        # Element spacing tuned for orthogonal columns at broadside; with the
        # per-stream SNR high enough that multiplexing beats beamforming, any
        # rotation away from boresight only degrades the singular values. The
        # array maps onto itself under a half turn, so +-180 deg ties exactly.
        scene, ref = empty_los(30.0)
        spacing = math.sqrt(WAVELENGTH * 30.0 / 4.0)
        budget = LinkBudget(tx_power_dbm=30.0, bandwidth_hz=1e8)
        rotations = [math.radians(r) for r in range(-180, 180, 45)]
        cells, _ = capacity_sweep(
            scene, ref, rotations, budget, rows=4, cols=4, spacing=spacing,
            models=("exhaustive",), n_freq=2, max_bounces=1,
        )
        se = {int(round(math.degrees(c.rotation))): c.se_avg for c in cells}
        for rot, value in se.items():
            assert se[0] >= value - 1e-9
            if rot not in (0, -180, 180):
                assert se[0] > value * 1.05

    def test_bitwise_reproducible(self):
        scene, ref = corridor_scene(100.0)
        rotations = [0.0, math.pi / 3.0]
        kwargs = dict(
            rows=2, cols=2, spacing=0.05, n_freq=2, max_bounces=1, rng_seed=7
        )
        a_cells, a_counts = capacity_sweep(scene, ref, rotations, LinkBudget(), **kwargs)
        b_cells, b_counts = capacity_sweep(scene, ref, rotations, LinkBudget(), **kwargs)
        assert a_cells == b_cells
        assert a_counts == b_counts

    def test_rejects_bad_inputs(self):
        scene, ref = empty_los(30.0)
        with pytest.raises(ValueError, match="unknown"):
            capacity_sweep(scene, ref, [0.0], LinkBudget(), models=("oracle",))
        bscene, bref = blocked_scene()
        with pytest.raises(ValueError, match="no propagation paths"):
            capacity_sweep(
                bscene, bref, [0.0], LinkBudget(), rows=2, cols=2, models=("pwa",)
            )
