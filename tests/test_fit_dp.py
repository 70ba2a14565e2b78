"""Tests for reflection-model recovery from displaced-pair observations."""

from __future__ import annotations

import dataclasses
import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflectmimo.fit_dp import (
    PairObservation,
    _fit_roll,
    _roll_equation,
    fit_rm_dp,
    match_paths,
    solve_gamma_s,
)
from reflectmimo.fit_rt import fit_rm_rt
from reflectmimo.geometry import wrap_angle
from reflectmimo.geometry import spherical_dir
from reflectmimo.paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmPath,
    _align_rows,
    align_rotation,
)
from reflectmimo.tracer import Scene, make_facet

from scenelib import observe, random_scene, rm_distance_angles

TX0 = np.array([0.0, 0.0, 2.0])
RX0 = np.array([13.0, 0.0, 2.0])


def ground_scene() -> Scene:
    facet = make_facet(
        center=(6.5, 0.0, 0.0), normal=(0.0, 0.0, 1.0), half_u=60.0, half_v=60.0
    )
    return Scene(facets=(facet,), carrier_freq=140e9)


def empty_scene() -> Scene:
    return Scene(facets=(), carrier_freq=140e9)


def synth_path(gain=1.0, delay=1e-7, aoa_az=0.0, aoa_el=0.0, aod_az=0.0, aod_el=0.0):
    return PwaPath(
        gain=complex(gain),
        delay=delay,
        aoa_az=aoa_az,
        aoa_el=aoa_el,
        aod_az=aod_az,
        aod_el=aod_el,
    )


def displaced_observation(scene, rng, radius, max_bounces=2, tx0=TX0, rx0=RX0):
    """Observe a pair displaced by `radius` in a random direction per endpoint."""
    d_t = rng.normal(size=3)
    d_r = rng.normal(size=3)
    tx = tx0 + radius * d_t / np.linalg.norm(d_t)
    rx = rx0 + radius * d_r / np.linalg.norm(d_r)
    obs, _ = observe(scene, tx, rx, max_bounces=max_bounces)
    return obs


class TestMatchPaths:
    def test_identity_on_identical_lists(self):
        obs, _ = observe(ground_scene(), TX0, RX0)
        assert len(obs.paths) == 2
        assert match_paths(obs, obs) == [0, 1]

    def test_reversed_copy_order_reversing(self):
        obs, _ = observe(ground_scene(), TX0, RX0)
        rev = PairObservation(tx=obs.tx, rx=obs.rx, paths=obs.paths[::-1])
        n = len(obs.paths)
        assert match_paths(obs, rev) == [n - 1 - i for i in range(n)]

    def test_recovers_facet_sequences_at_1cm(self):
        hits = 0
        for seed in range(6):
            rng = np.random.default_rng(seed)
            scene, pair = random_scene(rng)
            ref_obs, ref_traced = observe(scene, pair.tx_ref, pair.rx_ref)
            d_t = rng.normal(size=3)
            d_r = rng.normal(size=3)
            tx = pair.tx_ref + 0.01 * d_t / np.linalg.norm(d_t)
            rx = pair.rx_ref + 0.01 * d_r / np.linalg.norm(d_r)
            disp_obs, disp_traced = observe(scene, tx, rx)
            ref_ids = [p.route.facet_ids for p in ref_traced]
            disp_ids = [p.route.facet_ids for p in disp_traced]
            if sorted(ref_ids) != sorted(disp_ids):
                continue  # a path appeared/vanished across the displacement
            sigma = match_paths(ref_obs, disp_obs)
            assert all(j is not None for j in sigma)
            for i, j in enumerate(sigma):
                assert ref_ids[i] == disp_ids[j]
            hits += 1
        assert hits >= 4

    def test_empty_lists_raise(self):
        obs, _ = observe(ground_scene(), TX0, RX0)
        empty = PairObservation(tx=obs.tx, rx=obs.rx, paths=())
        with pytest.raises(ValueError):
            match_paths(empty, obs)
        with pytest.raises(ValueError):
            match_paths(obs, empty)

    def test_missing_candidates_flagged_none(self):
        obs, _ = observe(ground_scene(), TX0, RX0)
        # strongest path first by construction; keep only that one candidate
        short = PairObservation(tx=obs.tx, rx=obs.rx, paths=obs.paths[:1])
        assert match_paths(obs, short) == [0, None]

    def test_azimuth_differences_wrap(self):
        ref = PairObservation(
            tx=TX0, rx=RX0, paths=(synth_path(aoa_az=3.1),)
        )
        near_wrapped = synth_path(gain=0.5, aoa_az=-3.1)  # gap 2*pi - 6.2
        near_plain = synth_path(gain=0.4, aoa_az=2.6)  # gap 0.5
        disp = PairObservation(tx=TX0, rx=RX0, paths=(near_plain, near_wrapped))
        assert match_paths(ref, disp) == [1]

    def test_elevation_weight_applies_to_elevations(self):
        ref = PairObservation(tx=TX0, rx=RX0, paths=(synth_path(),))
        off_az = synth_path(gain=0.5, aoa_az=0.5)
        off_el = synth_path(gain=0.4, aoa_el=0.1)
        disp = PairObservation(tx=TX0, rx=RX0, paths=(off_az, off_el))
        # equal weights: the 0.1 rad elevation gap wins over 0.5 rad azimuth
        assert match_paths(ref, disp) == [1]
        # a departure elevation gap of 0.6 rad loses to the 0.5 rad azimuth gap
        off_el = synth_path(gain=0.4, aod_el=0.6)
        disp = PairObservation(tx=TX0, rx=RX0, paths=(off_az, off_el))
        assert match_paths(ref, disp) == [0]

    def test_strongest_reference_path_picks_first(self):
        weak = synth_path(gain=0.1, aoa_az=0.0)
        strong = synth_path(gain=1.0, aoa_az=0.2)
        contested = synth_path(gain=0.7, aoa_az=0.1)
        far = synth_path(gain=0.6, aoa_az=2.0)
        ref = PairObservation(tx=TX0, rx=RX0, paths=(weak, strong))
        disp = PairObservation(tx=TX0, rx=RX0, paths=(contested, far))
        # both reference paths prefer `contested`; the strong one claims it
        assert match_paths(ref, disp) == [1, 0]

    def test_delay_plays_no_part_in_matching(self):
        ref = PairObservation(tx=TX0, rx=RX0, paths=(synth_path(delay=1e-7),))
        angle_match_late = synth_path(gain=0.5, delay=3e-7)
        angle_off_early = synth_path(gain=0.4, delay=1.1e-7, aoa_az=0.3)
        disp = PairObservation(
            tx=TX0, rx=RX0, paths=(angle_match_late, angle_off_early)
        )
        assert match_paths(ref, disp) == [0]

    def test_equal_costs_go_to_the_lower_index(self):
        # the candidates differ in gain and delay only, so their costs are
        # equal; the strongest reference path takes index 0 whatever the
        # candidates' own gains, the next one index 1
        strong = synth_path(gain=1.0, aoa_az=0.1)
        weak = synth_path(gain=0.5, aoa_az=-0.1)
        weak_cand = synth_path(gain=0.2, delay=3e-7)
        strong_cand = synth_path(gain=0.9, delay=1e-7)
        for cands in ((weak_cand, strong_cand), (strong_cand, weak_cand)):
            disp = PairObservation(tx=TX0, rx=RX0, paths=cands)
            ref = PairObservation(tx=TX0, rx=RX0, paths=(weak, strong))
            assert match_paths(ref, disp) == [1, 0]
            # equal reference gains: the lower reference index picks first
            ref = PairObservation(
                tx=TX0, rx=RX0, paths=(weak, synth_path(gain=0.5, aoa_az=0.1))
            )
            assert match_paths(ref, disp) == [0, 1]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_the_rule_written_out(self, data):
        # angles and gains from small grids, so that costs and gains tie and
        # azimuth gaps wrap across +-pi
        angle = st.sampled_from([-math.pi, -3.0, -1.0, 0.0, 0.25, 1.0, 3.0, math.pi])
        path = st.builds(
            synth_path,
            gain=st.sampled_from([1.0, 0.5, -0.5, 0.25]),
            aoa_az=angle, aoa_el=angle, aod_az=angle, aod_el=angle,
        )
        ref_paths = data.draw(st.lists(path, min_size=1, max_size=6))
        disp_paths = data.draw(st.lists(path, min_size=1, max_size=6))
        # Against ref r, `first` costs exactly c's first angle gap and
        # `first_two` c's first two gaps, so partial sums of c and first_two
        # meet the best cost exactly; the copies of c and first tie with
        # them. In any order, ties must go to the lower index.
        r, c = data.draw(st.sampled_from(ref_paths)), data.draw(st.sampled_from(disp_paths))
        first = dataclasses.replace(r, gain=c.gain, aoa_az=c.aoa_az)
        first_two = dataclasses.replace(first, aod_az=c.aod_az)
        disp_paths = data.draw(st.permutations([*disp_paths, first, first_two, c, first]))

        def cost(a, b):
            gap = math.degrees(abs(wrap_angle(a.aoa_az - b.aoa_az)))
            gap += math.degrees(abs(wrap_angle(a.aod_az - b.aod_az)))
            gap += math.degrees(abs(a.aoa_el - b.aoa_el))
            return gap + math.degrees(abs(a.aod_el - b.aod_el))

        want = [None] * len(ref_paths)
        free = list(range(len(disp_paths)))
        for i in sorted(range(len(ref_paths)), key=lambda i: (-abs(ref_paths[i].gain), i)):
            if free:
                want[i] = min(free, key=lambda j: (cost(ref_paths[i], disp_paths[j]), j))
                free.remove(want[i])
        ref = PairObservation(tx=TX0, rx=RX0, paths=ref_paths)
        disp = PairObservation(tx=TX0, rx=RX0, paths=disp_paths)
        assert match_paths(ref, disp) == want


class TestRollLeastSquares:
    def test_exactly_determined_system(self):
        g = 0.7
        a = np.array([[2.0, 0.0], [0.0, 2.0]])
        c = np.array([2.0 * math.cos(g), 2.0 * math.sin(g)])
        x, y, resid = _fit_roll(a, c)
        assert abs(x - math.cos(g)) <= 1e-12
        assert abs(y - math.sin(g)) <= 1e-12
        assert abs(math.atan2(y, x) - g) <= 1e-12
        assert resid <= 1e-24

    def test_rank_deficient_returns_none(self):
        a = np.array([[1.0, 1.0], [2.0, 2.0]])
        assert _fit_roll(a, np.array([1.0, 2.0])) is None

    def test_overdetermined_least_squares(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        c = np.array([1.0, 1.0, 0.0])
        x, y, resid = _fit_roll(a, c)
        sol, res, *_ = np.linalg.lstsq(a, c, rcond=None)
        assert abs(x - sol[0]) <= 1e-12 and abs(y - sol[1]) <= 1e-12
        assert abs(resid - res[0]) <= 1e-12


EPS = np.finfo(float).eps


class TestRollSolverAgainstLstsq:
    """_fit_roll's Givens least squares against numpy's SVD-based lstsq."""

    @staticmethod
    def system(seed, n_rows, scale, cond, noise):
        """n_rows x 2 matrix with singular values scale and scale / cond, and
        a right-hand side A @ x_true plus noise * scale of random residual."""
        rng = np.random.default_rng(seed)
        left, _ = np.linalg.qr(rng.normal(size=(n_rows, 2)))
        right, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        a = (left * [scale, scale / cond]) @ right.T
        c = a @ rng.normal(size=2) + noise * scale * rng.normal(size=n_rows)
        return a, c

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 6),
        log_scale=st.floats(-6.0, 6.0),
        log_cond=st.floats(0.0, 8.0),
        noise=st.sampled_from([0.0, 1e-9, 1e-3, 1.0]),
    )
    def test_matches_lstsq(self, seed, n_rows, log_scale, log_cond, noise):
        scale, cond = 10.0**log_scale, 10.0**log_cond
        a, c = self.system(seed, n_rows, scale, cond, noise)
        got = _fit_roll(a.tolist(), c.tolist())
        sol, _, _, sv = np.linalg.lstsq(a, c, rcond=None)
        kappa = sv[0] / sv[-1]
        assert got is not None
        r = c - a @ sol
        want_resid = float(r @ r)
        # least-squares perturbation bounds: the solution moves by
        # eps kappa (|x| + kappa |r| / sigma_max), the residual vector by
        # eps kappa |c|, with a margin for the rounding of both solvers
        err_x = 64 * EPS * kappa * (np.linalg.norm(sol) + kappa * math.sqrt(want_resid) / sv[0])
        assert math.hypot(got[0] - sol[0], got[1] - sol[1]) <= err_x
        err_r = 64 * EPS * kappa * np.linalg.norm(c)
        assert abs(got[2] - want_resid) <= 2.0 * math.sqrt(want_resid) * err_r + err_r**2

    def test_consistent_system_residual_is_roundoff(self):
        # the residual summed from C - A (x, y) sits at the rounding of C;
        # one formed from the normal equations would sit at +-eps |C|^2
        for seed in range(6):
            a, c = self.system(seed, 4, 1e-4, 10.0, 0.0)
            x, y, resid = _fit_roll(a.tolist(), c.tolist())
            assert 0.0 <= resid <= (64 * EPS * 10.0) ** 2 * float(c @ c)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_rows=st.integers(2, 6),
        log_scale=st.floats(-6.0, 6.0),
        ratio=st.floats(-1e6, 1e6).filter(lambda t: t != 0.0),
        zero_col=st.sampled_from([None, 0, 1]),
    )
    def test_parallel_and_zero_columns_return_none(
        self, seed, n_rows, log_scale, ratio, zero_col
    ):
        rng = np.random.default_rng(seed)
        col = 10.0**log_scale * rng.normal(size=n_rows)
        a = np.stack([col, ratio * col], axis=1)
        if zero_col is not None:
            a[:, zero_col] = 0.0
        c = rng.normal(size=n_rows)
        assert _fit_roll(a.tolist(), c.tolist()) is None
        assert _fit_roll(np.zeros((n_rows, 2)).tolist(), c.tolist()) is None


class TestRollEquation:
    """The float rows and right-hand side against the matrix form."""

    @staticmethod
    def matrix_form(aoa, aod, d0, delta_r, delta_t, d_m):
        a_r = align_rotation(*aoa) @ delta_r
        a_t = align_rotation(*aod) @ delta_t
        e_r = delta_r + d0 * spherical_dir(*aoa)
        e_t = delta_t + d0 * spherical_dir(*aod)
        geom = -d0 * d0 + float(e_r @ e_r) + float(e_t @ e_t)
        rows = [
            [
                2.0 * (a_r[1] * a_t[1] + s * a_r[2] * a_t[2]),
                2.0 * (s * a_r[2] * a_t[1] - a_r[1] * a_t[2]),
            ]
            for s in (1, -1)
        ]
        # the scale of the terms that cancel in the right-hand side
        scale = d_m * d_m + d0 * d0 + float(e_r @ e_r) + float(e_t @ e_t)
        return rows, d_m * d_m - geom - 2.0 * a_r[0] * a_t[0], scale

    @settings(max_examples=300, deadline=None)
    @given(
        angles=st.lists(st.floats(-math.pi, math.pi), min_size=4, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        log_delta=st.floats(-4.0, 0.0),
        d0=st.floats(0.5, 2000.0),
    )
    def test_rows_and_rhs_are_the_matrix_form(self, angles, seed, log_delta, d0):
        rng = np.random.default_rng(seed)
        aoa, aod = (angles[0], angles[1] / 2), (angles[2], angles[3] / 2)
        delta_r, delta_t = 10.0**log_delta * rng.normal(size=(2, 3))
        d_m = d0 * (1.0 + 1e-3 * rng.normal())
        rot_r, rot_t = _align_rows(*aoa), _align_rows(*aod)
        for rot, ang in ((rot_r, aoa), (rot_t, aod)):
            assert np.array(rot).tobytes() == align_rotation(*ang).tobytes()
            assert np.max(np.abs(np.array(rot[0]) - spherical_dir(*ang))) <= 1e-15
        row_pos, row_neg, c_m = _roll_equation(
            rot_r, rot_t, d0, tuple(delta_r), tuple(delta_t), d_m
        )
        want_rows, want_c, scale = self.matrix_form(aoa, aod, d0, delta_r, delta_t, d_m)
        row_scale = 2.0 * np.linalg.norm(delta_r) * np.linalg.norm(delta_t)
        for got, want in zip((row_pos, row_neg), want_rows):
            assert np.max(np.abs(np.array(got) - want)) <= 1e-15 * row_scale
        assert abs(c_m - want_c) <= 1e-15 * scale


class TestSolveGammaS:
    def test_los_parity_and_roll(self):
        scene = empty_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(11)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        (sol,) = solve_gamma_s(ref_obs, displaced, pair)
        assert sol.ok
        assert sol.s == -1
        assert abs(sol.gamma) <= 1e-9

    def test_ground_bounce_matches_route_fit(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, ref_traced = observe(scene, TX0, RX0)
        rng = np.random.default_rng(5)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        sols = solve_gamma_s(ref_obs, displaced, pair)
        assert len(sols) == len(ref_traced)
        for sol, traced in zip(sols, ref_traced):
            truth = fit_rm_rt(traced, pair)
            assert sol.s == truth.s
            assert abs(wrap_angle(sol.gamma - truth.roll)) <= 1e-6

    def test_requires_two_displaced_pairs(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        one = displaced_observation(scene, np.random.default_rng(0), 0.01)
        with pytest.raises(ValueError):
            solve_gamma_s(ref_obs, [one], pair)

    def test_reference_must_sit_at_reference_pair(self):
        scene = ground_scene()
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(1)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        moved = ReferencePair(tx_ref=TX0 + [0.5, 0.0, 0.0], rx_ref=RX0)
        with pytest.raises(ValueError):
            solve_gamma_s(ref_obs, displaced, moved)

    def test_degenerate_path_flagged_others_fitted(self):
        # Displacing the second pair purely along the LOS axis zeroes both
        # least-squares coefficients for the LOS path (its rotated
        # displacements have no transverse component), leaving that one path
        # rank-deficient while the ground bounce stays solvable.
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, ref_traced = observe(scene, TX0, RX0)
        obs_a, _ = observe(
            scene, TX0 + [0.003, 0.004, 0.002], RX0 + [-0.002, 0.005, -0.003]
        )
        obs_b, _ = observe(scene, TX0 + [0.01, 0.0, 0.0], RX0 + [-0.012, 0.0, 0.0])
        sols = solve_gamma_s(ref_obs, [obs_a, obs_b], pair)

        los_idx = [i for i, p in enumerate(ref_traced) if p.bounces == 0]
        bounce_idx = [i for i, p in enumerate(ref_traced) if p.bounces == 1]
        assert len(los_idx) == 1 and len(bounce_idx) == 1
        assert not sols[los_idx[0]].ok
        assert sols[los_idx[0]].s == 0
        assert math.isinf(sols[los_idx[0]].residual)

        truth = fit_rm_rt(ref_traced[bounce_idx[0]], pair)
        assert sols[bounce_idx[0]].ok
        assert sols[bounce_idx[0]].s == truth.s
        assert abs(wrap_angle(sols[bounce_idx[0]].gamma - truth.roll)) <= 1e-5

        fitted = fit_rm_dp(ref_obs, [obs_a, obs_b], pair)
        assert len(fitted) == 1
        assert fitted[0].s == truth.s

    def test_a_residual_gap_past_the_tie_tolerance_decides(self):
        # Noise-free delays do not make the two rules disagree: the true
        # parity fits them with a residual of round-off on the unit circle.
        # These three displaced pairs' delays carry an error instead: s = +1
        # interpolates them off the unit circle, and s = -1 fits them on it
        # with a residual about 0.6% of tie_scale. The residual rule picks
        # s = +1, the unit-circle rule s = -1; a gap past the tolerance of
        # 1e-6 tie_scale must go to the residual rule.
        aoa, aod, d0 = (0.3, 0.1), (-2.5, -0.2), 14.0
        deltas_r = 1e-3 * np.array([[1.0, -1.0, 6.0], [1.0, -5.0, 4.0], [13.0, 9.0, -7.0]])
        deltas_t = 1e-3 * np.array(
            [[-13.0, -6.0, 0.0], [-23.0, -2.0, -12.0], [-7.0, -5.0, -3.0]]
        )
        forms = [
            TestRollEquation.matrix_form(aoa, aod, d0, d_r, d_t, 0.0)
            for d_r, d_t in zip(deltas_r, deltas_t)
        ]
        a_pos, a_neg = (np.array([rows[k] for rows, _, _ in forms]) for k in (0, 1))
        rhs_at_zero = np.array([c for _, c, _ in forms])  # the rhs is d_m^2 + this
        # the s = -1 fit on the unit circle plus the multiple of the s = -1
        # system's normal that puts the rhs in the range of the s = +1 system
        normal_pos, normal_neg = (np.cross(a[:, 0], a[:, 1]) for a in (a_pos, a_neg))
        on_circle = a_neg @ [math.cos(0.7), math.sin(0.7)]
        target = on_circle - (normal_pos @ on_circle) / (normal_pos @ normal_neg) * normal_neg
        delays = np.sqrt(target - rhs_at_zero) / C_LIGHT

        angles = dict(aoa_az=aoa[0], aoa_el=aoa[1], aod_az=aod[0], aod_el=aod[1])
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs = PairObservation(TX0, RX0, (synth_path(delay=d0 / C_LIGHT, **angles),))
        displaced = [
            PairObservation(TX0 - d_t, RX0 - d_r, (synth_path(delay=tau, **angles),))
            for d_r, d_t, tau in zip(deltas_r, deltas_t, delays)
        ]

        rhs = (C_LIGHT * delays) ** 2 + rhs_at_zero
        tie_scale = float(rhs @ rhs)
        residual, circle = {}, {}
        for s, a in ((1, a_pos), (-1, a_neg)):
            xy = np.linalg.lstsq(a, rhs, rcond=None)[0]
            residual[s] = float(np.sum((rhs - a @ xy) ** 2))
            circle[s] = abs(float(xy @ xy) - 1.0)
        assert 1e-6 * tie_scale < residual[-1] - residual[1] < 1e-2 * tie_scale
        assert circle[-1] < 1e-6 < 1e-3 < circle[1]  # the unit-circle rule says -1

        (sol,) = solve_gamma_s(ref_obs, displaced, pair)
        assert sol.s == 1
        assert sol.residual <= 1e-9 * tie_scale


class TestFitRmDp:
    def test_multi_path_scene_agrees_with_route_fit(self):
        walls = (
            make_facet(center=(6.5, 0.0, 0.0), normal=(0.0, 0.0, 1.0),
                       half_u=80.0, half_v=80.0),
            make_facet(center=(6.5, 9.0, 1.8), normal=(0.0, -1.0, 0.0),
                       half_u=80.0, half_v=80.0),
            make_facet(center=(6.5, -7.0, 1.8), normal=(0.0, 1.0, 0.0),
                       half_u=80.0, half_v=80.0),
        )
        scene = Scene(facets=walls, carrier_freq=140e9)
        tx = np.array([0.0, 1.0, 2.0])
        rx = np.array([13.0, -1.0, 2.2])
        pair = ReferencePair(tx_ref=tx, rx_ref=rx)
        ref_obs, ref_traced = observe(scene, tx, rx)
        assert len(ref_traced) >= 6

        rng = np.random.default_rng(7)
        displaced = [
            displaced_observation(scene, rng, r, tx0=tx, rx0=rx) for r in (0.01, 0.02)
        ]

        fitted = fit_rm_dp(ref_obs, displaced, pair)
        assert len(fitted) == len(ref_traced)
        # trace_paths already returns strongest-first, so orders align
        for est, traced in zip(fitted, ref_traced):
            truth = fit_rm_rt(traced, pair)
            assert est.s == truth.s
            assert abs(wrap_angle(est.roll - truth.roll)) <= 1e-6

    def test_los_only_scene(self):
        scene = empty_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(3)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        fitted = fit_rm_dp(ref_obs, displaced, pair)
        assert len(fitted) == 1
        assert fitted[0].s == -1
        assert abs(fitted[0].roll) <= 1e-9
        assert fitted[0].gain == ref_obs.paths[0].gain
        assert fitted[0].delay == ref_obs.paths[0].delay

    def test_strongest_first_and_fields_copied(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(9)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        shuffled = PairObservation(
            tx=ref_obs.tx, rx=ref_obs.rx, paths=ref_obs.paths[::-1]
        )
        fitted = fit_rm_dp(shuffled, displaced, pair)
        gains = [abs(p.gain) for p in fitted]
        assert gains == sorted(gains, reverse=True)
        by_gain = {p.gain: p for p in ref_obs.paths}
        for est in fitted:
            src = by_gain[est.gain]
            assert est.delay == src.delay
            assert est.aoa_az == src.aoa_az and est.aoa_el == src.aoa_el
            assert est.aod_az == src.aod_az and est.aod_el == src.aod_el

    def test_displaced_pair_without_paths_gives_no_equations(self):
        # one 1 m floor tile at 28 GHz; a displaced pair that observes no
        # paths gives no equations: beside two that do, the fit is theirs,
        # beside one, every path is left with one equation and is dropped
        tile = make_facet(
            center=(5.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), half_u=0.5, half_v=0.5
        )
        scene = Scene(facets=(tile,), carrier_freq=28e9)
        tx, rx = np.array([0.0, 0.0, 1.0]), np.array([10.0, 0.0, 1.0])
        pair = ReferencePair(tx_ref=tx, rx_ref=rx)
        ref_obs, ref_traced = observe(scene, tx, rx)
        assert sorted(p.bounces for p in ref_traced) == [0, 1]
        rng = np.random.default_rng(4)
        seen = [
            displaced_observation(scene, rng, r, tx0=tx, rx0=rx) for r in (0.01, 0.02)
        ]
        blind = PairObservation(tx=tx + [0.0, 0.01, 0.0], rx=rx, paths=())

        sols = solve_gamma_s(ref_obs, [seen[0], blind, seen[1]], pair)
        assert sols == solve_gamma_s(ref_obs, seen, pair)
        for sol, traced in zip(sols, ref_traced):
            truth = fit_rm_rt(traced, pair)
            assert sol.ok and sol.s == truth.s
            assert abs(wrap_angle(sol.gamma - truth.roll)) <= 1e-6

        sols = solve_gamma_s(ref_obs, [blind, seen[0]], pair)
        assert [(sol.s, sol.ok) for sol in sols] == [(0, False)] * 2
        assert fit_rm_dp(ref_obs, [seen[1], blind], pair) == []

    def test_reference_without_paths_gives_no_fit(self):
        # a reference pair that observes nothing has nothing to match the
        # displaced paths to, whether or not the displaced pairs see paths
        tile = make_facet(
            center=(5.0, 0.0, 0.0), normal=(0.0, 0.0, 1.0), half_u=0.5, half_v=0.5
        )
        scene = Scene(facets=(tile,), carrier_freq=28e9)
        tx, rx = np.array([0.0, 0.0, 1.0]), np.array([10.0, 0.0, 1.0])
        pair = ReferencePair(tx_ref=tx, rx_ref=rx)
        rng = np.random.default_rng(4)
        seen = [
            displaced_observation(scene, rng, r, tx0=tx, rx0=rx) for r in (0.01, 0.02)
        ]
        assert all(obs.paths for obs in seen)
        empty = PairObservation(tx=tx, rx=rx, paths=())
        blind = [PairObservation(tx=obs.tx, rx=obs.rx, paths=()) for obs in seen]
        for displaced in (seen, blind):
            assert solve_gamma_s(empty, displaced, pair) == []
            assert fit_rm_dp(empty, displaced, pair) == []

    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_reference_order_does_not_change_the_fit(self, seed, data):
        rng = np.random.default_rng(seed)
        scene, pair = random_scene(rng)
        ref_obs, _ = observe(scene, pair.tx_ref, pair.rx_ref)
        gains = [abs(p.gain) for p in ref_obs.paths]
        # a reference that observes nothing has no order to permute
        assume(gains and len(set(gains)) == len(gains))
        displaced = [
            displaced_observation(scene, rng, r, tx0=pair.tx_ref, rx0=pair.rx_ref)
            for r in (0.01, 0.02)
        ]
        perm = data.draw(st.permutations(range(len(ref_obs.paths))))
        permuted = PairObservation(
            tx=ref_obs.tx, rx=ref_obs.rx, paths=tuple(ref_obs.paths[i] for i in perm)
        )
        base = fit_rm_dp(ref_obs, displaced, pair)
        again = fit_rm_dp(permuted, displaced, pair)
        assert base

        def values(fits):
            return [[getattr(p, f.name) for f in fields(RmPath)] for p in fits]

        assert values(again) == values(base)


class TestInvariants:
    def test_distance_functions_agree_with_route_fit(self):
        checked = 0
        flagged = 0
        for seed in range(8):
            rng = np.random.default_rng(100 + seed)
            scene, pair = random_scene(rng)
            ref_obs, ref_traced = observe(scene, pair.tx_ref, pair.rx_ref)
            displaced = [
                displaced_observation(scene, rng, r, tx0=pair.tx_ref, rx0=pair.rx_ref)
                for r in (0.01, 0.02)
            ]
            sols = solve_gamma_s(ref_obs, displaced, pair)
            for sol, traced in zip(sols, ref_traced):
                if not sol.ok:
                    flagged += 1
                    continue
                truth = fit_rm_rt(traced, pair)
                est = RmPath(
                    gain=truth.gain,
                    delay=truth.delay,
                    aoa_az=truth.aoa_az,
                    aoa_el=truth.aoa_el,
                    aod_az=truth.aod_az,
                    aod_el=truth.aod_el,
                    roll=sol.gamma,
                    s=sol.s,
                )
                for _ in range(25):
                    d_t = rng.normal(size=3)
                    d_r = rng.normal(size=3)
                    tx = pair.tx_ref + rng.uniform(0, 1.0) * d_t / np.linalg.norm(d_t)
                    rx = pair.rx_ref + rng.uniform(0, 1.0) * d_r / np.linalg.norm(d_r)
                    d_dp = rm_distance_angles(rx, tx, pair, est)
                    d_rt = rm_distance_angles(rx, tx, pair, truth)
                    assert abs(d_dp - d_rt) <= 1e-8 * max(1.0, d_rt)
                    checked += 1
        assert checked >= 25 * 10
        assert flagged <= checked // 250

    def test_true_parity_interpolates_overdetermined_system(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, ref_traced = observe(scene, TX0, RX0)
        rng = np.random.default_rng(21)
        displaced = [
            displaced_observation(scene, rng, r) for r in (0.01, 0.02, 0.03)
        ]
        sols = solve_gamma_s(ref_obs, displaced, pair)
        for sol, traced in zip(sols, ref_traced):
            truth = fit_rm_rt(traced, pair)
            assert sol.ok
            assert sol.s == truth.s
            # noiseless data: the winning parity explains all three equations
            assert sol.residual <= 1e-9

    def test_relabeling_invariance(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(2)
        displaced = [
            displaced_observation(scene, rng, 0.01),
            displaced_observation(scene, rng, 0.02),
        ]
        base = solve_gamma_s(ref_obs, displaced, pair)
        relabeled = [
            PairObservation(tx=o.tx, rx=o.rx, paths=o.paths[::-1])
            for o in reversed(displaced)
        ]
        again = solve_gamma_s(ref_obs, relabeled, pair)
        assert len(base) == len(again)
        for a, b in zip(base, again):
            assert a.s == b.s
            assert abs(wrap_angle(a.gamma - b.gamma)) <= 1e-12

    def test_displacement_scaling_leaves_roll_unchanged(self):
        scene = ground_scene()
        pair = ReferencePair(tx_ref=TX0, rx_ref=RX0)
        ref_obs, _ = observe(scene, TX0, RX0)
        rng = np.random.default_rng(17)
        dirs = [
            (rng.normal(size=3), rng.normal(size=3)) for _ in range(2)
        ]
        dirs = [
            (dt / np.linalg.norm(dt), dr / np.linalg.norm(dr)) for dt, dr in dirs
        ]
        radii = (0.01, 0.02)

        def run(alpha: float):
            displaced = []
            for (d_t, d_r), radius in zip(dirs, radii):
                obs, _ = observe(
                    scene, TX0 + alpha * radius * d_t, RX0 + alpha * radius * d_r
                )
                displaced.append(obs)
            return solve_gamma_s(ref_obs, displaced, pair)

        full = run(1.0)
        half = run(0.5)
        for a, b in zip(full, half):
            assert a.s == b.s
            assert abs(wrap_angle(a.gamma - b.gamma)) <= 1e-6
