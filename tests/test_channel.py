"""Tests for array geometry and the per-model MIMO channel synthesis.

Arrays are (K, 3) element position arrays and channel matrices (M, N)
complex arrays, indexed [rx][tx]."""

from __future__ import annotations

import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflectmimo.channel import (
    MODELS,
    channel_evaluator,
    mimo_from_traced_pairs,
    mimo_matrix,
    path_distances,
    phasor_sum,
    plane_wave_core,
    trace_array_pairs,
    upa,
)
from reflectmimo.fit_rt import fit_rm_rt
from reflectmimo.paths import (
    C_LIGHT,
    ReferencePair,
    RmPath,
    angles_to_image,
    pwa_distance,
    rm_distance_image,
)
from reflectmimo.tracer import Scene, make_facet, route_length, to_pwa, trace_paths

from scenelib import (
    band_midpoints,
    band_tolerance,
    core_tolerance,
    observe,
    phasor_sum_expression,
    random_scene,
    rm_distance_angles,
)

F0 = 140e9


def empty_scene() -> Scene:
    return Scene(facets=(), carrier_freq=F0)


def two_facet_scene():
    """Long-range broadside link with a ground plane and one side wall."""
    tx = np.array([0.0, 0.0, 5.0])
    rx = np.array([4000.0, 0.0, 5.0])
    ground = make_facet(
        center=(2000.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), half_u=2500.0, half_v=200.0
    )
    wall = make_facet(
        center=(2000.0, 5.0, 5.0), normal=(0.0, -1.0, 0.0), half_u=2500.0, half_v=200.0
    )
    return Scene(facets=(ground, wall), carrier_freq=F0), tx, rx


def fitted_paths(scene, tx, rx, max_bounces=2):
    ref = ReferencePair(tx_ref=tx, rx_ref=rx)
    traced = trace_paths(scene, tx, rx, max_bounces=max_bounces)
    return [fit_rm_rt(p, ref) for p in traced], traced, ref


class TestUpa:
    def test_8x8_aperture(self):
        pos = upa(8, 8, 0.14, center=(3.0, -2.0, 1.0))
        assert pos.shape == (64, 3)
        assert np.allclose(pos[:, 0], 3.0)
        assert abs(pos[:, 1].max() - pos[:, 1].min() - 0.98) <= 1e-12
        assert abs(pos[:, 2].max() - pos[:, 2].min() - 0.98) <= 1e-12
        assert np.allclose(pos.mean(axis=0), [3.0, -2.0, 1.0])

    def test_single_element(self):
        pos = upa(1, 1, 0.5, center=(1.0, 2.0, 3.0))
        assert pos.shape == (1, 3)
        assert np.allclose(pos[0], [1.0, 2.0, 3.0])

    def test_half_turn_mirrors_in_xy_plane(self):
        center = np.array([5.0, 1.0, 2.0])
        base = upa(3, 4, 0.2, center=center)
        turned = upa(3, 4, 0.2, center=center, azimuth_rotation=math.pi)
        rel = base - center
        mirrored = np.column_stack([-rel[:, 0], -rel[:, 1], rel[:, 2]]) + center
        assert np.max(np.abs(turned - mirrored)) <= 1e-12

    def test_rotation_preserves_spacing(self):
        base = upa(2, 2, 0.14, center=(0.0, 0.0, 0.0))
        turned = upa(2, 2, 0.14, center=(0.0, 0.0, 0.0), azimuth_rotation=0.7)
        d_base = np.linalg.norm(base[:, None] - base[None, :], axis=2)
        d_turn = np.linalg.norm(turned[:, None] - turned[None, :], axis=2)
        assert np.max(np.abs(np.sort(d_base.ravel()) - np.sort(d_turn.ravel()))) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            upa(0, 4, 0.14, center=(0, 0, 0))
        with pytest.raises(ValueError):
            upa(4, 4, 0.0, center=(0, 0, 0))

    @pytest.mark.parametrize(
        "kwargs, name",
        [
            # 8.5 rows used to raise numpy's TypeError, a NaN center or
            # rotation to return NaN element positions, and a scalar center
            # to be added to every coordinate
            (dict(rows=8.5), "rows"),
            (dict(rows=8.0), "rows"),
            (dict(cols="4"), "cols"),
            (dict(cols=0), "cols"),
            (dict(center=(0.0, math.nan, 1.0)), "center"),
            (dict(center=(math.inf, 0.0, 1.0)), "center"),
            (dict(center=5.0), "center"),
            (dict(center=(0.0, 1.0)), "center"),
            (dict(azimuth_rotation=math.nan), "azimuth_rotation"),
            (dict(azimuth_rotation=-math.inf), "azimuth_rotation"),
        ],
    )
    def test_bad_argument_named(self, kwargs, name):
        args = dict(rows=4, cols=4, spacing=0.14, center=(0.0, 0.0, 1.0)) | kwargs
        with pytest.raises(ValueError, match=f"^{name} must (be|have shape)"):
            upa(**args)

    def test_numpy_integer_sizes(self):
        pos = upa(np.int64(2), np.int32(3), 0.14, center=(0.0, 0.0, 1.0))
        assert np.array_equal(pos, upa(2, 3, 0.14, center=(0.0, 0.0, 1.0)))

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 8),
        spacing=st.floats(1e-3, 1.0),
        center=st.tuples(*[st.floats(-1e3, 1e3)] * 3),
        rotation=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=100, deadline=None)
    def test_centroid_is_the_requested_center(self, rows, cols, spacing, center, rotation):
        pos = upa(rows, cols, spacing, center=center, azimuth_rotation=rotation)
        assert np.max(np.abs(pos.mean(axis=0) - np.array(center))) <= 1e-9


class TestScalarChannel:
    """phasor_sum over paths only: the channel between two single antennas."""

    def test_single_path_at_reference(self):
        gain = 0.3 - 0.4j
        tau = 1.2e-7
        val = phasor_sum([gain], [tau], [C_LIGHT * tau], F0, F0)
        assert abs(val - gain) <= 1e-15

    def test_two_path_destructive(self):
        tau = 1e-8
        d = C_LIGHT * tau
        half_cycle = C_LIGHT / (2.0 * F0)
        val = phasor_sum([1.0, 1.0], [tau, tau], [d, d + half_cycle], F0, F0)
        # the carrier phase tau*f0 spans ~1e3 cycles, so the null depth is
        # limited by the rounding of the phase argument, not by 1e-16
        assert abs(val) <= 1e-9

    def test_constant_distance_reduces_to_delay_rotation(self):
        gain = 0.7 + 0.1j
        tau = 4.3e-8
        f = F0 + 0.9e9
        val = phasor_sum([gain], [tau], [C_LIGHT * tau], f, F0)
        expected = gain * np.exp(-2j * math.pi * (f - F0) * tau)
        assert abs(val - expected) <= 1e-9 * abs(expected)

    def test_sum_over_paths(self):
        gains, delays, dists = [0.5 + 0j, 0.2j], [1e-7, 1.1e-7], [31.0, 33.5]
        val = phasor_sum(gains, delays, dists, F0 + 3e8, F0)
        parts = sum(
            phasor_sum([g], [t], [d], F0 + 3e8, F0)
            for g, t, d in zip(gains, delays, dists)
        )
        assert abs(val - parts) <= 1e-15
        assert phasor_sum([], [], [], F0, F0) == 0j

    @pytest.mark.parametrize(
        "gains, delays, dists",
        [
            ([1.0, 0.5j, 0.2], [1e-7, 1.1e-7], [30.0, 33.0, 35.0]),
            ([1.0], [1e-7, 1.1e-7], [30.0, 33.0]),
            ([1.0, 0.5j], [1e-7, 1.1e-7], [30.0]),
            ([], [], np.ones((1, 2, 2))),
        ],
    )
    def test_path_counts_must_agree(self, gains, delays, dists):
        # zip stopped at the shortest: 3 gains with 2 delays summed 2 paths
        message = (
            f"got {len(gains)} gains, {len(delays)} delays and {len(dists)} distances"
        )
        with pytest.raises(ValueError, match=message):
            phasor_sum(gains, delays, dists, F0, F0)


def kernel_inputs(case: str, rng: np.random.Generator) -> tuple:
    """(gains, delays, distances, f) of one of phasor_sum's call shapes."""

    def gains(shape=(), real=False):
        g = rng.normal(size=shape) + (0.0 if real else 1j * rng.normal(size=shape))
        return g if shape else complex(g)

    def delays(shape=()):
        tau = rng.uniform(1e-8, 1e-5, shape)
        return tau if shape else float(tau)

    f = F0 + float(rng.uniform(-1e9, 1e9))
    freqs = F0 + rng.uniform(-1e9, 1e9, (10, 1))
    if case == "scalars":  # one antenna pair
        taus = [delays() for _ in range(3)]
        return [gains() for _ in taus], taus, [C_LIGHT * t + rng.normal() for t in taus], f
    if case == "numpy scalars":  # mimo_from_traced_pairs iterates arrays
        taus = delays((3,))
        return gains((3,)), taus, C_LIGHT * taus, f
    if case == "samples":  # the displacement truth: (F, 1) against (S,)
        taus = [delays((60,)) for _ in range(3)]
        return [gains((60,)) for _ in taus], taus, [C_LIGHT * t for t in taus], freqs
    if case == "fitted samples":  # the displacement models
        taus = [delays() for _ in range(3)]
        dists = [C_LIGHT * t + rng.normal(size=60) for t in taus]
        return [gains() for _ in taus], taus, dists, freqs
    if case in ("matrix, real gains", "matrix, complex gains"):  # exhaustive
        taus = [delays((4, 5)) for _ in range(3)]
        real = case == "matrix, real gains"
        return [gains((4, 5), real) for _ in taus], taus, [C_LIGHT * t for t in taus], f
    if case == "fitted matrix":
        taus = [delays() for _ in range(3)]
        return [gains() for _ in taus], taus, [C_LIGHT * t + rng.normal(size=(4, 5)) for t in taus], f
    if case == "one element":  # predict: a (1, 1) matrix
        taus = [delays() for _ in range(3)]
        return [gains() for _ in taus], taus, [C_LIGHT * t + rng.normal(size=(1, 1)) for t in taus], f
    if case == "core factor":  # plane_wave_core's A and B
        return [1.0], [0.0], [rng.normal(size=(6, 3))], freqs[..., None]
    if case == "core gains":  # and its c
        taus = delays((3,))
        return [gains((3,))], [taus], [C_LIGHT * taus], freqs[..., None]
    if case == "no path":  # the exhaustive model where no pair has a path
        return [np.zeros((4, 5))], [0.0], [0.0], f
    assert case == "empty"
    return [], [], [], f


KERNEL_CASES = [
    "scalars", "numpy scalars", "samples", "fitted samples", "matrix, real gains",
    "matrix, complex gains", "fitted matrix", "one element", "core factor", "core gains",
    "no path", "empty",
]


class TestPhasorKernel:
    """phasor_sum against its expression form, and the memory it holds."""

    @pytest.mark.parametrize("case", KERNEL_CASES)
    def test_equals_the_expression_byte_for_byte(self, case):
        rng = np.random.default_rng(list(map(ord, case)))
        for _ in range(25):  # a (1, 1) product rounded differently in 46% of draws
            args = kernel_inputs(case, rng)
            got, want = phasor_sum(*args, F0), phasor_sum_expression(*args, F0)
            assert type(got) is type(want)
            assert np.asarray(got).dtype == np.asarray(want).dtype
            assert np.shape(got) == np.shape(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    @staticmethod
    def peak_over_output(call) -> float:
        """Peak traced memory of call(), over the bytes of what it returns."""
        call()  # numpy sets up its caches on a first call
        tracemalloc.start()
        try:
            out = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak / out.nbytes

    def test_one_path_holds_its_term_and_one_float_scratch(self):
        # the expression form peaked at 2.53 times the output
        dists = np.random.default_rng(0).uniform(10.0, 20.0, (64, 64))
        ratio = self.peak_over_output(lambda: phasor_sum([0.3 - 0.4j], [5e-8], [dists], F0, F0))
        assert ratio <= 1.6

    def test_later_paths_add_into_the_total_in_place(self):
        # the displacement models' call: the expression form peaked at 4.75x
        rng = np.random.default_rng(1)
        args = kernel_inputs("fitted samples", rng)
        assert np.shape(phasor_sum(*args, F0)) == (10, 60)
        assert self.peak_over_output(lambda: phasor_sum(*args, F0)) <= 2.8


class TestMimoMatrixModels:
    def test_1x1_reduces_to_scalar_channel(self):
        scene = Scene(
            facets=(
                make_facet(
                    center=(6.5, 0.0, 0.0),
                    normal=(0.0, 0.0, 1.0),
                    half_u=60.0,
                    half_v=60.0,
                ),
            ),
            carrier_freq=F0,
        )
        tx = np.array([0.0, 0.0, 2.0])
        rx = np.array([13.0, 0.0, 2.0])
        rm, traced, ref = fitted_paths(scene, tx, rx)
        txa = upa(1, 1, 0.1, center=tx)
        rxa = upa(1, 1, 0.1, center=rx)
        f = F0 + 0.4e9
        # every model collapses to the reference distances at the centers
        expected = phasor_sum(
            [p.gain for p in rm], [p.delay for p in rm],
            [C_LIGHT * p.delay for p in rm], f, F0,
        )
        for model in ("constant", "pwa", "rm_image"):
            h = mimo_matrix(txa, rxa, model, f, F0, paths=rm, ref=ref)
            assert h.shape == (1, 1)
            assert abs(h[0, 0] - expected) <= 1e-10 * abs(expected)
        h_ex = mimo_matrix(txa, rxa, "exhaustive", f, F0, scene=scene)
        assert abs(h_ex[0, 0] - expected) <= 1e-9 * abs(expected)

    def test_exhaustive_requires_scene(self):
        arr = upa(1, 1, 0.1, center=(0, 0, 0))
        with pytest.raises(ValueError):
            mimo_matrix(arr, arr, "exhaustive", F0, F0)

    def test_unknown_model_rejected(self):
        arr = upa(1, 1, 0.1, center=(0, 0, 0))
        with pytest.raises(ValueError):
            mimo_matrix(arr, arr, "nearfield", F0, F0)
        ref = ReferencePair(tx_ref=np.zeros(3), rx_ref=np.ones(3))
        with pytest.raises(ValueError, match="unknown distance model"):
            path_distances(ref.rx_ref, ref.tx_ref, [], ref, "rm_angles")

    def test_extrapolation_requires_paths(self):
        arr = upa(1, 1, 0.1, center=(0, 0, 0))
        with pytest.raises(ValueError):
            mimo_matrix(arr, arr, "pwa", F0, F0, paths=[])

    def test_image_and_angle_forms_identical(self):
        rng = np.random.default_rng(4)
        scene, pair = random_scene(rng)
        rm, _, ref = fitted_paths(scene, pair.tx_ref, pair.rx_ref)
        txa = upa(3, 3, 0.14, center=pair.tx_ref, azimuth_rotation=0.4)
        rxa = upa(3, 3, 0.14, center=pair.rx_ref, azimuth_rotation=-1.1)
        for f in (F0, F0 + 1e9):
            h_img = mimo_matrix(txa, rxa, "rm_image", f, F0, paths=rm, ref=ref)
            h_ang = np.array([
                [
                    phasor_sum(
                        [p.gain for p in rm], [p.delay for p in rm],
                        [rm_distance_angles(r, t, ref, p) for p in rm], f, F0,
                    )
                    for t in txa
                ]
                for r in rxa
            ])
            scale = np.max(np.abs(h_img))
            assert np.max(np.abs(h_img - h_ang)) <= 1e-9 * scale

    def test_pwa_equals_rm_at_center_element(self):
        scene, tx, rx = two_facet_scene()
        rm, _, ref = fitted_paths(scene, tx, rx, max_bounces=1)
        txa = upa(1, 3, 0.14, center=tx)
        rxa = upa(1, 3, 0.14, center=rx)
        assert np.allclose(txa[1], tx)
        h_pwa = mimo_matrix(txa, rxa, "pwa", F0, F0, paths=rm, ref=ref)
        h_rm = mimo_matrix(txa, rxa, "rm_image", F0, F0, paths=rm, ref=ref)
        center_pwa = h_pwa[1, 1]
        center_rm = h_rm[1, 1]
        assert abs(center_pwa - center_rm) <= 1e-12 * abs(center_rm)
        # off-center entries genuinely differ at this range and aperture
        assert np.max(np.abs(h_pwa - h_rm)) > 1e-3 * abs(center_rm)

    def test_los_rm_equals_exhaustive_small_aperture(self):
        scene = empty_scene()
        tx = np.array([0.0, 0.0, 2.0])
        rx = np.array([200.0, 0.0, 2.0])
        rm, _, ref = fitted_paths(scene, tx, rx)
        txa = upa(2, 2, 1e-3, center=tx)
        rxa = upa(2, 2, 1e-3, center=rx)
        h_rm = mimo_matrix(txa, rxa, "rm_image", F0, F0, paths=rm, ref=ref)
        h_ex = mimo_matrix(txa, rxa, "exhaustive", F0, F0, scene=scene)
        scale = np.max(np.abs(h_ex))
        assert np.max(np.abs(h_rm - h_ex)) <= 1e-9 * scale

    def test_rm_distances_match_retraced_lengths_on_grid(self):
        # Geometric exactness across the aperture: the fitted image
        # reproduces every re-traced route length even though the amplitudes
        # are frozen at the reference.
        scene, tx, rx = two_facet_scene()
        rm, traced, ref = fitted_paths(scene, tx, rx, max_bounces=1)
        images = {
            p.route.facet_ids: angles_to_image(f, ref)
            for p, f in zip(traced, rm)
        }
        txa = upa(2, 2, 0.98, center=tx)
        rxa = upa(2, 2, 0.98, center=rx)
        for rx_el in rxa:
            for tx_el in txa:
                for q in trace_paths(scene, tx_el, rx_el, max_bounces=1):
                    length = route_length(q.route)
                    d_rm = rm_distance_image(rx_el, tx_el, images[q.route.facet_ids])
                    assert abs(d_rm - length) <= 1e-9 * max(1.0, length)

    def test_frobenius_gap_8x8(self):
        # 0.98 m aperture at 140 GHz: the exact mirror parametrization stays
        # within the amplitude-freezing error while the plane-wave model's
        # quadratic phase error dominates.
        scene, tx, rx = two_facet_scene()
        rm, _, ref = fitted_paths(scene, tx, rx, max_bounces=1)
        txa = upa(8, 8, 0.14, center=tx)
        rxa = upa(8, 8, 0.14, center=rx)
        h_ex = mimo_matrix(txa, rxa, "exhaustive", F0, F0, scene=scene, max_bounces=1)
        h_rm = mimo_matrix(txa, rxa, "rm_image", F0, F0, paths=rm, ref=ref)
        h_pwa = mimo_matrix(txa, rxa, "pwa", F0, F0, paths=rm, ref=ref)
        den = np.linalg.norm(h_ex)
        assert np.linalg.norm(h_rm - h_ex) / den <= 1e-6
        assert np.linalg.norm(h_pwa - h_ex) / den >= 1e-2

    def test_phase_continuity_one_micron(self):
        scene = empty_scene()
        tx = np.array([0.0, 0.0, 2.0])
        rx = np.array([50.0, 0.0, 2.0])
        rm, _, ref = fitted_paths(scene, tx, rx)
        txa = upa(2, 2, 0.14, center=tx)
        rxa = upa(2, 2, 0.14, center=rx)
        rxa_moved = rxa.copy()
        rxa_moved[0] += np.array([0.0, 1e-6, 0.0])
        h0 = mimo_matrix(txa, rxa, "rm_image", F0, F0, paths=rm, ref=ref)
        h1 = mimo_matrix(txa, rxa_moved, "rm_image", F0, F0, paths=rm, ref=ref)
        # untouched rows are bit-identical; the moved element's phases shift
        # by at most the two-way geometric bound
        assert np.array_equal(h0[1:], h1[1:])
        dphi = np.angle(h1[0] / h0[0])
        bound = 2.0 * math.pi * F0 * 2e-6 / C_LIGHT
        assert np.max(np.abs(dphi)) <= bound

    def test_evaluator_matches_direct_calls(self):
        scene, tx, rx = two_facet_scene()
        rm, _, ref = fitted_paths(scene, tx, rx, max_bounces=1)
        txa = upa(2, 2, 0.14, center=tx)
        rxa = upa(2, 2, 0.14, center=rx)
        for model in MODELS:
            if model == "exhaustive":
                kwargs = dict(scene=scene, max_bounces=1)
            else:
                kwargs = dict(paths=rm, ref=ref)
            at = channel_evaluator(txa, rxa, model, F0, **kwargs)
            for f in (F0 - 1e9, F0 + 1e9):
                direct = mimo_matrix(txa, rxa, model, f, F0, **kwargs)
                assert np.max(np.abs(at(f) - direct)) <= 1e-15


# Point arrays that are not (K, 3) with K >= 1.
BAD_POINTS = [np.zeros(3), np.zeros((0, 3)), np.zeros((2, 2)), np.zeros((2, 2, 3))]


class TestPointShapes:
    @pytest.fixture()
    def setup(self):
        scene, tx, rx = two_facet_scene()
        rm, _, ref = fitted_paths(scene, tx, rx, max_bounces=1)
        kwargs = dict(paths=rm, ref=ref, scene=scene, max_bounces=1)
        return scene, upa(2, 2, 0.14, center=tx), upa(2, 2, 0.14, center=rx), kwargs

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("bad", BAD_POINTS, ids=lambda a: str(a.shape))
    def test_evaluator_and_matrix_reject(self, setup, model, bad):
        _, txa, rxa, kwargs = setup
        for tx_points, rx_points, name in ((bad, rxa, "tx_points"), (txa, bad, "rx_points")):
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                channel_evaluator(tx_points, rx_points, model, F0, **kwargs)
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                mimo_matrix(tx_points, rx_points, model, F0, F0, **kwargs)

    @pytest.mark.parametrize("bad", BAD_POINTS, ids=lambda a: str(a.shape))
    def test_trace_array_pairs_rejects(self, setup, bad):
        scene, txa, rxa, _ = setup
        for tx_points, rx_points, name in ((bad, rxa, "tx_points"), (txa, bad, "rx_points")):
            with pytest.raises(ValueError, match=f"{name} must have shape"):
                trace_array_pairs(scene, tx_points, rx_points, max_bounces=1)


class TestTracedPairs:
    def test_matrix_at_carrier_is_gain_sum(self):
        scene, tx, rx = two_facet_scene()
        txa = upa(2, 2, 0.14, center=tx)
        rxa = upa(2, 2, 0.14, center=rx)
        pairs = trace_array_pairs(scene, txa, rxa, max_bounces=1)
        h = mimo_from_traced_pairs(pairs, F0, F0)
        for m in range(4):
            for n in range(4):
                gains, _ = pairs[m][n]
                assert abs(h[m, n] - np.sum(gains)) <= 1e-15

    def test_entry_without_paths_is_zero(self):
        # one-sided facet behind the link: nothing reflects, no LOS blockers
        scene = Scene(facets=(), carrier_freq=F0)
        txa = upa(1, 1, 0.1, center=(0.0, 0.0, 1.0))
        rxa = upa(1, 1, 0.1, center=(10.0, 0.0, 1.0))
        blocked = Scene(
            facets=(
                make_facet(
                    center=(5.0, 0.0, 1.0),
                    normal=(-1.0, 0.0, 0.0),
                    half_u=5.0,
                    half_v=5.0,
                ),
            ),
            carrier_freq=F0,
        )
        pairs = trace_array_pairs(blocked, txa, rxa, max_bounces=0)
        h = mimo_from_traced_pairs(pairs, F0, F0)
        assert h[0, 0] == 0j
        del scene

    def test_pairs_follow_trace_paths(self):
        scene, tx, rx = two_facet_scene()
        txa = upa(2, 3, 0.14, center=tx)
        rxa = upa(3, 2, 0.14, center=rx)
        pairs = trace_array_pairs(scene, txa, rxa, max_bounces=2)
        assert len(pairs) == 6 and all(len(row) == 6 for row in pairs)
        for m, rx_el in enumerate(rxa):
            for n, tx_el in enumerate(txa):
                traced = trace_paths(scene, tx_el, rx_el, 2)
                gains, delays = pairs[m][n]
                assert delays.tolist() == [p.delay for p in traced]
                want = np.array([p.gain for p in traced])
                assert np.all(np.abs(gains - want) <= 1e-12 * np.abs(want))

    def test_exhaustive_without_paths_is_a_zero_matrix(self):
        # A wall between the arrays and no bounces: no pair has a path.
        wall = make_facet(
            center=(5.0, 0.0, 1.0), normal=(-1.0, 0.0, 0.0), half_u=5.0, half_v=5.0
        )
        scene = Scene(facets=(wall,), carrier_freq=F0)
        txa = upa(2, 2, 0.1, center=(0.0, 0.0, 1.0))
        rxa = upa(1, 3, 0.1, center=(10.0, 0.0, 1.0))
        at = channel_evaluator(txa, rxa, "exhaustive", F0, scene=scene, max_bounces=0)
        for h in [at(F0), at(F0 + 1e9), *at.band(2e9, 3)]:
            assert h.shape == (3, 4) and h.dtype == complex
            assert np.all(h == 0j)
        pairs = trace_array_pairs(scene, txa, rxa, max_bounces=0)
        assert [len(row) for row in pairs] == [4, 4, 4]
        assert all(g.size == d.size == 0 for row in pairs for g, d in row)

    def test_mimo_matrix_shape(self):
        scene, tx, rx = two_facet_scene()
        txa = upa(2, 3, 0.14, center=tx)
        rxa = upa(4, 1, 0.14, center=rx)
        h = mimo_matrix(
            txa, rxa, "exhaustive", F0 + 5e8, F0, scene=scene, max_bounces=1
        )
        assert isinstance(h, np.ndarray) and h.dtype == complex
        assert h.shape == (4, 6)
        assert "exhaustive" in MODELS


# The broadcast evaluators against plain element-by-element loops. The phase
# roundoff of a distance d is about 2 pi f ulp(d) / c, so the carrier is kept
# at 1 GHz with metre-scale paths: there both sides agree to ~1e-14 and a
# 1e-12 relative tolerance still catches any wrong index or broadcast.
F_LOW = 1e9
PROP_REF = ReferencePair(tx_ref=np.array([0.0, 0.0, 1.5]), rx_ref=np.array([8.0, 1.0, 2.0]))
_angle = st.floats(-math.pi, math.pi)
_elevation = st.floats(-1.4, 1.4)
_gain = st.builds(cmath.rect, st.floats(0.1, 1.0), _angle)
_fit = st.builds(
    RmPath,
    gain=_gain,
    delay=st.floats(2.0, 20.0).map(lambda d: d / C_LIGHT),
    aoa_az=_angle,
    aoa_el=_elevation,
    aod_az=_angle,
    aod_el=_elevation,
    roll=_angle,
    s=st.sampled_from((-1, 1)),
)
_offsets = st.lists(
    st.tuples(*[st.floats(-0.5, 0.5)] * 3), min_size=1, max_size=4
)


def _array(center: np.ndarray, offsets) -> np.ndarray:
    return center + np.array(offsets)


def _loop_distance(model: str, rx, tx, path: RmPath) -> float:
    if model == "constant":
        return C_LIGHT * path.delay
    if model == "pwa":
        return pwa_distance(rx, tx, PROP_REF, path)
    return rm_distance_angles(rx, tx, PROP_REF, path)


class TestBroadcastMatchesScalarLoop:
    @given(
        paths=st.lists(_fit, min_size=1, max_size=4),
        tx_offsets=_offsets,
        rx_offsets=_offsets,
        f=st.floats(0.5 * F_LOW, 1.5 * F_LOW),
    )
    @settings(max_examples=60, deadline=None)
    def test_evaluator_matches_element_loop(self, paths, tx_offsets, rx_offsets, f):
        txa = _array(PROP_REF.tx_ref, tx_offsets)
        rxa = _array(PROP_REF.rx_ref, rx_offsets)
        tol = 1e-12 * sum(abs(p.gain) for p in paths)
        for model in ("constant", "pwa", "rm_image"):
            h = channel_evaluator(txa, rxa, model, F_LOW, paths=paths, ref=PROP_REF)(f)
            for m, rx in enumerate(rxa):
                for n, tx in enumerate(txa):
                    want = 0j
                    for p in paths:
                        d = _loop_distance(model, rx, tx, p)
                        want += p.gain * cmath.exp(
                            2j * math.pi * (p.delay * F_LOW - f * d / C_LIGHT)
                        )
                    assert abs(h[m, n] - want) <= tol

    @given(
        shape=st.tuples(st.integers(1, 4), st.integers(1, 4)),
        pair_paths=st.lists(
            st.lists(st.tuples(_gain, st.floats(1e-9, 1e-7)), max_size=4),
            min_size=16,
            max_size=16,
        ),
        f=st.floats(0.5 * F_LOW, 1.5 * F_LOW),
    )
    @settings(max_examples=60, deadline=None)
    def test_traced_pairs_match_per_pair_sum(self, shape, pair_paths, f):
        rows, cols = shape
        pairs = [
            [
                (
                    np.array([g for g, _ in pair_paths[m * cols + n]], dtype=complex),
                    np.array([tau for _, tau in pair_paths[m * cols + n]]),
                )
                for n in range(cols)
            ]
            for m in range(rows)
        ]
        h = mimo_from_traced_pairs(pairs, f, F_LOW)
        assert h.shape == shape
        for m in range(rows):
            for n in range(cols):
                gains, delays = pairs[m][n]
                want = 0j
                if gains.size:
                    want = np.sum(gains * np.exp(-2j * math.pi * (f - F_LOW) * delays))
                assert abs(h[m, n] - want) <= 1e-12 * np.sum(np.abs(gains))


class TestBandWalk:
    """``band`` walks the midpoint grid by per-path rotors; ``at(f)`` sums
    the phasors at each frequency afresh."""

    @staticmethod
    def evaluators(seed: int):
        """One evaluator per model on a random scene, with a screen 1 m in
        front of one receive element that cuts its line of sight only, so
        the exhaustive model has pairs without a route on that sequence."""
        scene, ref = random_scene(np.random.default_rng(seed))
        txa = upa(2, 2, 1.0, center=ref.tx_ref)
        rxa = upa(2, 2, 1.0, center=ref.rx_ref)
        toward_tx = ref.tx_ref - rxa[0]
        screen = make_facet(
            center=rxa[0] + toward_tx / np.linalg.norm(toward_tx),
            normal=toward_tx,
            half_u=0.2,
            half_v=0.2,
        )
        screened = Scene(facets=scene.facets + (screen,), carrier_freq=scene.carrier_freq)
        traced = trace_paths(screened, ref.tx_ref, ref.rx_ref, max_bounces=1)
        assume(traced)  # a tilted wall can cut the line of sight
        plane_wave = [to_pwa(p, ref) for p in traced]
        fits = {
            "constant": plane_wave,
            "pwa": plane_wave,
            "rm_image": [fit_rm_rt(p, ref) for p in traced],
        }
        f0 = scene.carrier_freq
        at = {
            model: channel_evaluator(txa, rxa, model, f0, paths=paths, ref=ref)
            for model, paths in fits.items()
        }
        at["exhaustive"] = channel_evaluator(
            txa, rxa, "exhaustive", f0, scene=screened, max_bounces=1
        )
        return at

    @given(
        seed=st.integers(0, 2**32 - 1),
        bandwidth=st.floats(1e8, 2e10),
        n_freq=st.sampled_from((1, 2, 3, 10)),
    )
    @settings(max_examples=40, deadline=None)
    def test_band_matches_each_midpoint(self, seed, bandwidth, n_freq):
        at = self.evaluators(seed)
        exhaustive = at["exhaustive"]
        assume(len(exhaustive.gains) >= 2)  # a few scenes' one reflection misses
        assert any(np.any(g == 0.0) for g in exhaustive.gains)
        for model, evaluator in at.items():
            tol = band_tolerance(evaluator, bandwidth, n_freq)
            band = list(evaluator.band(bandwidth, n_freq))  # a yielded matrix must not change
            freqs = band_midpoints(evaluator.f0, bandwidth, n_freq)
            assert len(band) == n_freq
            for h, f in zip(band, freqs):
                assert h.shape == (4, 4)
                assert np.max(np.abs(h - evaluator(f))) <= tol, model


@pytest.mark.parametrize("n_freq", [2.5, 2.0])
@pytest.mark.parametrize("evaluator", [channel_evaluator, plane_wave_core])
def test_band_sample_count_must_be_an_integer(evaluator, n_freq):
    # plane_wave_core's band took 2.5 for three samples at a step of B / 2.5,
    # the last outside the band; channel_evaluator's raised a TypeError
    paths, _, ref = fitted_paths(empty_scene(), np.zeros(3), np.array([20.0, 0.0, 0.0]))
    txa = upa(2, 2, 0.01, center=ref.tx_ref)
    rxa = upa(2, 2, 0.01, center=ref.rx_ref)
    at = evaluator(txa, rxa, "pwa", F0, paths=paths, ref=ref)
    with pytest.raises(ValueError, match=f"need at least one frequency sample, got {n_freq}"):
        list(at.band(1e9, n_freq))


@pytest.mark.parametrize("factor", [2, 3])
@pytest.mark.parametrize("evaluator", [channel_evaluator, plane_wave_core])
def test_band_stays_above_zero_hz(evaluator, factor):
    # a band of 3 f0 yielded matrices at 0, f0 and 2 f0; one of 2 f0 reaches 0 Hz
    paths, _, ref = fitted_paths(empty_scene(), np.zeros(3), np.array([20.0, 0.0, 0.0]))
    txa = upa(2, 2, 0.01, center=ref.tx_ref)
    rxa = upa(2, 2, 0.01, center=ref.rx_ref)
    at = evaluator(txa, rxa, "pwa", F0, paths=paths, ref=ref)
    message = f"bandwidth must be positive and under twice f0 = {F0!r} Hz, got {factor * F0!r}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        list(at.band(factor * F0, 3))
    band = list(at.band(np.nextafter(2 * F0, 0.0), 3))
    assert len(band) == 3 and all(np.isfinite(h).all() for h in band)


@pytest.mark.parametrize("evaluator", [channel_evaluator, plane_wave_core])
def test_pwa_requires_the_reference_pair(evaluator):
    # plane_wave_core raised an AttributeError in _pwa_terms
    paths, _, ref = fitted_paths(empty_scene(), np.zeros(3), np.array([20.0, 0.0, 0.0]))
    arr = upa(2, 2, 0.01, center=ref.tx_ref)
    with pytest.raises(ValueError, match="pwa model requires the reference pair"):
        evaluator(arr, arr, "pwa", F0, paths=paths, ref=None)


class TestPlaneWaveCore:
    """A plane-wave channel with P paths has rank <= P, and its core
    R_A diag(c) R_B^T has the dense matrix's nonzero singular values."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(((1, 1), (2, 1), (1, 3), (2, 2), (4, 4))),
        spacing=st.floats(0.002, 0.5),
        bandwidth=st.floats(1e8, 2e10),
        offset=st.floats(-0.5, 0.5),
        n_freq=st.sampled_from((1, 3)),
        model=st.sampled_from(("pwa", "constant")),
    )
    @settings(max_examples=60, deadline=None)
    def test_singular_values_match_the_dense_matrix(
        self, seed, shape, spacing, bandwidth, offset, n_freq, model
    ):
        rng = np.random.default_rng(seed)
        scene, ref = random_scene(rng)
        traced = trace_paths(scene, ref.tx_ref, ref.rx_ref, max_bounces=2)
        assume(traced)  # a tilted wall can cut the line of sight
        paths = [to_pwa(p, ref) for p in traced]
        txa = upa(*shape, spacing, ref.tx_ref, rng.uniform(-math.pi, math.pi))
        rxa = upa(*shape[::-1], spacing, ref.rx_ref, rng.uniform(-math.pi, math.pi))
        m, n, p = len(rxa), len(txa), len(paths)
        f0 = scene.carrier_freq
        at = channel_evaluator(txa, rxa, model, f0, paths=paths, ref=ref)
        core = plane_wave_core(txa, rxa, model, f0, paths=paths, ref=ref)

        def spectrum_gap(core_matrix, dense_matrix):
            padded = np.zeros(min(m, n))
            padded[: min(core_matrix.shape)] = np.linalg.svd(core_matrix, compute_uv=False)
            return np.max(np.abs(padded - np.linalg.svd(dense_matrix, compute_uv=False)))

        f = f0 + offset * bandwidth
        h = core(f)
        assert h.shape == (min(m, p), min(n, p))
        dense = mimo_matrix(txa, rxa, model, f, f0, paths=paths, ref=ref)
        assert spectrum_gap(h, dense) <= core_tolerance(at, f)

        # the same midpoints as the dense band, whose walk adds its own rounding
        walk = band_tolerance(at, bandwidth, n_freq) * math.sqrt(m * n)
        cores = list(core.band(bandwidth, n_freq))
        assert len(cores) == n_freq
        freqs = band_midpoints(f0, bandwidth, n_freq)
        for h, dense, f in zip(cores, at.band(bandwidth, n_freq), freqs):
            assert spectrum_gap(h, dense) <= core_tolerance(at, f) + walk
