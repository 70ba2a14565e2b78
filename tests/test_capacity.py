"""Tests for singular values, rate allocation and link-budget helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflectmimo.capacity import (
    LinkBudget,
    RateModel,
    band_rate,
    optimal_streams,
    rayleigh_distance,
    rho,
    singular_values,
    spectral_efficiency,
    stream_rates,
)
from reflectmimo.channel import channel_evaluator, mimo_matrix, upa
from reflectmimo.fit_rt import fit_rm_rt
from reflectmimo.paths import C_LIGHT, ReferencePair
from reflectmimo.tracer import Scene, trace_paths

from scenelib import band_midpoints, band_tolerance, gram_singular_values

F0 = 140e9
BUDGET = LinkBudget()
MODEL = RateModel()


def snr_unit_singular(budget: LinkBudget) -> float:
    """Singular value giving per-stream SNR exactly 1 at k = 1."""
    return math.sqrt(budget.noise_power_w / budget.tx_power_w)


class TestSingularValues:
    def test_identity(self):
        s = singular_values(np.eye(2, dtype=complex))
        assert np.allclose(s, [1.0, 1.0], atol=1e-14)

    def test_rank_one_outer_product(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=3) + 1j * rng.normal(size=3)
        b = rng.normal(size=4) + 1j * rng.normal(size=4)
        s = singular_values(np.outer(a, b.conj()))
        top = np.linalg.norm(a) * np.linalg.norm(b)
        assert abs(s[0] - top) <= 1e-12 * top
        assert np.max(np.abs(s[1:])) <= 1e-12 * top

    def test_matches_gram_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            s = singular_values(h)
            oracle = gram_singular_values(h)
            assert np.max(np.abs(s - oracle)) <= 1e-8 * max(s[0], 1.0)

    def test_descending_and_count(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        s = singular_values(h)
        assert s.shape == (3,)
        assert np.all(np.diff(s) <= 0)
        assert np.all(s >= 0)

    def test_frobenius_energy(self):
        rng = np.random.default_rng(3)
        for shape in ((2, 2), (4, 6), (7, 3)):
            h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            s = singular_values(h)
            fro2 = np.linalg.norm(h) ** 2
            assert abs(np.sum(s**2) - fro2) <= 1e-9 * fro2


class TestRho:
    def test_snr_one(self):
        assert rho(1.0) == 0.6

    def test_cap_hits_exactly(self):
        assert rho(255.0) == 4.8

    def test_zero(self):
        assert rho(0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            rho(-0.1)

    def test_nan_rejected(self):
        # rho(nan) used to return nan
        with pytest.raises(ValueError, match="SNR must be non-negative, got nan"):
            rho(math.nan)

    def test_custom_model(self):
        assert rho(3.0, RateModel(alpha=1.0, se_max=2.0)) == 2.0
        assert abs(rho(1.0, RateModel(alpha=1.0, se_max=10.0)) - 1.0) <= 1e-15

    @given(
        st.floats(min_value=0.0, max_value=1e6),
        st.floats(min_value=0.0, max_value=1e6),
    )
    @settings(max_examples=200, deadline=None)
    def test_monotone(self, a, b):
        lo, hi = sorted((a, b))
        assert rho(lo) <= rho(hi) + 1e-15

    def test_model_validation(self):
        with pytest.raises(ValueError):
            RateModel(alpha=0.0)
        with pytest.raises(ValueError):
            RateModel(se_max=-1.0)


class TestSpectralEfficiency:
    def test_unit_snr_single_stream(self):
        s1 = snr_unit_singular(BUDGET)
        assert abs(spectral_efficiency([s1], BUDGET, MODEL) - 0.6) <= 1e-12

    def test_two_huge_streams_beat_one(self):
        s1 = 1e6 * snr_unit_singular(BUDGET)
        se = spectral_efficiency([s1, s1], BUDGET, MODEL)
        assert abs(se - 9.6) <= 1e-12
        assert optimal_streams([s1, s1], BUDGET, MODEL) == 2

    def test_zero_second_stream_changes_nothing(self):
        s1 = 3.0 * snr_unit_singular(BUDGET)
        alone = spectral_efficiency([s1], BUDGET, MODEL)
        padded = spectral_efficiency([s1, 0.0], BUDGET, MODEL)
        assert abs(alone - padded) <= 1e-15
        assert optimal_streams([s1, 0.0], BUDGET, MODEL) == 1

    def test_matches_manual_stream_search(self):
        rng = np.random.default_rng(5)
        scale = snr_unit_singular(BUDGET)
        for _ in range(20):
            s = np.sort(rng.uniform(0.0, 40.0, size=6))[::-1] * scale
            best = -1.0
            p_over_n = BUDGET.tx_power_w / BUDGET.noise_power_w
            for k in range(1, 7):
                best = max(
                    best,
                    sum(rho(s[i] ** 2 * p_over_n / k, MODEL) for i in range(k)),
                )
            assert abs(spectral_efficiency(s, BUDGET, MODEL) - best) <= 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(6)
        s = rng.uniform(0.0, 5.0, size=5) * snr_unit_singular(BUDGET)
        base = spectral_efficiency(np.sort(s)[::-1], BUDGET, MODEL)
        for _ in range(5):
            rng.shuffle(s)
            assert abs(spectral_efficiency(s, BUDGET, MODEL) - base) <= 1e-12

    def test_monotone_in_tx_power(self):
        s = np.array([2.0, 1.0, 0.3]) * snr_unit_singular(BUDGET)
        powers = [10.0, 17.0, 23.0, 30.0]
        ses = [
            spectral_efficiency(s, LinkBudget(tx_power_dbm=p), MODEL) for p in powers
        ]
        assert all(b >= a - 1e-12 for a, b in zip(ses, ses[1:]))

    def test_unit_modulus_scaling_leaves_se_unchanged(self):
        rng = np.random.default_rng(7)
        h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        h *= snr_unit_singular(BUDGET)
        s0 = singular_values(h)
        s1 = singular_values(np.exp(0.83j) * h)
        assert np.max(np.abs(s0 - s1)) <= 1e-12 * s0[0]
        a = spectral_efficiency(s0, BUDGET, MODEL)
        b = spectral_efficiency(s1, BUDGET, MODEL)
        assert abs(a - b) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            spectral_efficiency([], BUDGET, MODEL)
        with pytest.raises(ValueError):
            spectral_efficiency([-1.0], BUDGET, MODEL)
        with pytest.raises(ValueError):
            spectral_efficiency([math.nan, 1e-3], BUDGET, MODEL)
        with pytest.raises(ValueError):
            optimal_streams([math.nan, 1e-3], BUDGET, MODEL)

    def test_two_dimensional_rejected(self):
        # a matrix in place of its singular values used to fail inside einsum
        with pytest.raises(ValueError, match="non-empty 1-D list"):
            stream_rates(np.ones((2, 2)), BUDGET, MODEL)
        with pytest.raises(ValueError, match="non-empty 1-D list"):
            stream_rates(1.0, BUDGET, MODEL)

    @given(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 2.0, 1e3])
            | st.floats(min_value=0.0, max_value=1e3),
            min_size=1,
            max_size=64,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_rho_loop(self, snr_roots):
        # multiples of the unit-SNR singular value: exact zeros, repeats, and
        # SNRs up to 1e6, far above the se_max cap at 255
        s = np.array(snr_roots) * snr_unit_singular(BUDGET)
        ordered = np.sort(s)[::-1]
        p_over_n = BUDGET.tx_power_w / BUDGET.noise_power_w
        loop = [
            sum(rho(float(ordered[i] ** 2) * p_over_n / k, MODEL) for i in range(k))
            for k in range(1, s.size + 1)
        ]
        assert abs(spectral_efficiency(s, BUDGET, MODEL) - max(loop)) <= 1e-12
        k = optimal_streams(s, BUDGET, MODEL)
        assert loop[k - 1] >= max(loop) - 1e-12


def los_evaluator(rows: int, spacing: float, r: float = 100.0):
    """channel_evaluator of the rm_image fit of a free-space link of length r
    between two rows x rows UPAs, with the route fit it evaluates."""
    scene = Scene(facets=(), carrier_freq=F0)
    tx_c = np.array([0.0, 0.0, 2.0])
    rx_c = np.array([r, 0.0, 2.0])
    ref = ReferencePair(tx_ref=tx_c, rx_ref=rx_c)
    rm = [fit_rm_rt(p, ref) for p in trace_paths(scene, tx_c, rx_c)]
    txa = upa(rows, rows, spacing, tx_c)
    rxa = upa(rows, rows, spacing, rx_c)
    return channel_evaluator(txa, rxa, "rm_image", F0, paths=rm, ref=ref), rm


class TestBandRate:
    def test_flat_channel_averages_to_center(self):
        h = np.eye(2, dtype=complex) * snr_unit_singular(BUDGET)
        rate, se_avg = band_rate([h] * 10, BUDGET, MODEL)
        se0 = spectral_efficiency(singular_values(h), BUDGET, MODEL)
        assert abs(se_avg - se0) <= 1e-12
        assert abs(rate - se_avg * BUDGET.bandwidth_hz) <= 1e-3

    def test_single_sample_is_center_frequency(self):
        at, _ = los_evaluator(2, 0.14)
        [h] = at.band(BUDGET.bandwidth_hz, 1)
        assert np.array_equal(h, at(F0))
        _, se_avg = band_rate(at.band(BUDGET.bandwidth_hz, 1), BUDGET, MODEL)
        se0 = spectral_efficiency(singular_values(at(F0)), BUDGET, MODEL)
        assert abs(se_avg - se0) <= 1e-12 * se0

    def test_samples_cover_band_midpoints(self):
        # 100 m at 140 GHz: the phase turns by 2 pi 100 m / c per Hz, so a
        # matrix off its midpoint by a fraction of a sub-band is far outside
        # the rounding bound
        at, _ = los_evaluator(2, 0.14)
        for bandwidth, n_freq in ((2e9, 4), (1e9, 4), (1e9, 3)):
            tol = band_tolerance(at, bandwidth, n_freq)
            band = list(at.band(bandwidth, n_freq))
            midpoints = band_midpoints(F0, bandwidth, n_freq)
            assert len(band) == n_freq
            for h, f in zip(band, midpoints):
                assert np.max(np.abs(h - at(f))) <= tol
                assert np.max(np.abs(h - at(f + 0.01 * bandwidth / n_freq))) > 1e3 * tol
        # the rate integrates over the budget's band, whose noise power the
        # rate model uses: n sub-bands of B / n
        budget = LinkBudget(bandwidth_hz=1e9)
        band = list(at.band(budget.bandwidth_hz, 4))
        rate, se_avg = band_rate(band, budget, MODEL)
        per_freq = [spectral_efficiency(singular_values(h), budget, MODEL) for h in band]
        assert abs(se_avg - sum(per_freq) / 4) <= 1e-12 * se_avg
        assert abs(rate - se_avg * budget.bandwidth_hz) <= 1e-12 * rate

    def test_validation(self):
        with pytest.raises(ValueError, match="at least one frequency sample"):
            band_rate([], BUDGET, MODEL)
        # the SVD of a matrix holding inf is NaN, with no LinAlgError
        h = np.eye(3, dtype=complex)
        h[0, 1] = math.inf
        assert np.isnan(singular_values(h)).all()
        with pytest.raises(ValueError, match="non-empty 1-D list of finite"):
            band_rate([np.eye(3, dtype=complex), h], BUDGET, MODEL)
        with pytest.raises(ValueError, match="non-empty 1-D list of finite"):
            band_rate([np.zeros((0, 3), dtype=complex)], BUDGET, MODEL)
        at, _ = los_evaluator(1, 0.14)
        with pytest.raises(ValueError, match="at least one frequency sample"):
            band_rate(at.band(BUDGET.bandwidth_hz, 0), BUDGET, MODEL)

    @given(
        st.lists(
            st.tuples(
                st.integers(1, 8),  # rows
                st.integers(1, 8),  # columns
                st.integers(0, 8),  # rank, capped at min(rows, columns)
                st.floats(-3.0, 9.0),  # log10 of the entry scale in unit-SNR values
                st.integers(0, 2**32 - 1),  # entry seed
            ),
            min_size=1,
            max_size=5,
        )
    )
    @example([(1, 1, 1, 0.0, 0), (1, 1, 0, 0.0, 0), (8, 8, 3, 2.0, 1), (2, 5, 1, 9.0, 2)])
    @settings(max_examples=150, deadline=None)
    def test_is_mean_of_per_matrix_spectral_efficiency(self, specs):
        # rank-deficient matrices and the 1 × 1 cores of one-path plane-wave
        # channels included; SNRs from 1e-6 to far above the se_max cap
        band = []
        for rows, cols, rank, log_scale, seed in specs:
            rng = np.random.default_rng(seed)
            rank = min(rank, rows, cols)
            a = rng.normal(size=(rows, rank)) + 1j * rng.normal(size=(rows, rank))
            b = rng.normal(size=(rank, cols)) + 1j * rng.normal(size=(rank, cols))
            band.append(a @ b * (10.0**log_scale * snr_unit_singular(BUDGET)))
        rate, se_avg = band_rate(iter(band), BUDGET, MODEL)
        per_matrix = [spectral_efficiency(singular_values(h), BUDGET, MODEL) for h in band]
        mean = sum(per_matrix) / len(band)
        tol = 1e-12 * max(mean, 1.0)
        assert abs(se_avg - mean) <= tol
        assert abs(rate - mean * BUDGET.bandwidth_hz) <= tol * BUDGET.bandwidth_hz

    def test_orthogonal_spacing_los_closed_form(self):
        # at element spacing sqrt(lambda R / 8) the 8x8 LOS matrix is close
        # to a scaled unitary: 64 equal singular values of 8|g| carry the
        # whole Frobenius energy
        lam = C_LIGHT / F0
        at, rm = los_evaluator(8, math.sqrt(lam * 100.0 / 8.0))
        s = singular_values(at(F0))
        assert s[0] / s[-1] <= 1.01
        gain = abs(rm[0].gain)
        se_analytic = spectral_efficiency(np.full(64, 8.0 * gain), BUDGET, MODEL)
        _, se_avg = band_rate(at.band(BUDGET.bandwidth_hz, 10), BUDGET, MODEL)
        assert abs(se_avg - se_analytic) / se_analytic <= 0.01


class TestRayleighDistance:
    def test_one_meter_aperture_at_140ghz(self):
        lam = C_LIGHT / 140e9
        assert abs(rayleigh_distance(1.0, lam) - 934.0) <= 1.0

    def test_zero_aperture(self):
        assert rayleigh_distance(0.0, 0.002) == 0.0

    def test_doubling_quadruples(self):
        lam = 0.00214
        assert abs(
            rayleigh_distance(2.0, lam) - 4.0 * rayleigh_distance(1.0, lam)
        ) <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            rayleigh_distance(-1.0, 0.002)
        with pytest.raises(ValueError):
            rayleigh_distance(1.0, 0.0)


class TestLinkBudget:
    def test_noise_floor_constants(self):
        b = LinkBudget(tx_power_dbm=23.0, bandwidth_hz=2e9, noise_figure_db=3.0)
        assert abs(b.tx_power_w - 10.0 ** (23.0 / 10.0) * 1e-3) <= 1e-15
        expected_psd = 10.0 ** ((-174.0 + 3.0) / 10.0) * 1e-3
        assert abs(b.noise_psd_w_hz - expected_psd) <= 1e-25
        assert abs(b.noise_power_w - expected_psd * 2e9) <= 1e-18

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkBudget(bandwidth_hz=0.0)


class TestTwoElementBroadside:
    def test_half_wavelength_product_equalizes_streams(self):
        # two-element vertical arrays, element spacings chosen so that
        # d_t * d_r = lambda R / 2: the single LOS path still yields two
        # equal-strength spatial streams
        lam = C_LIGHT / F0
        r = 50.0
        d_t = 0.1
        d_r = lam * r / 2.0 / d_t
        scene = Scene(facets=(), carrier_freq=F0)
        tx_c = np.array([0.0, 0.0, 5.0])
        rx_c = np.array([r, 0.0, 5.0])
        txa = upa(2, 1, d_t, tx_c)
        rxa = upa(2, 1, d_r, rx_c)
        h = mimo_matrix(txa, rxa, "exhaustive", F0, F0, scene=scene)
        s = singular_values(h)
        assert s[0] / s[1] <= 1.001
