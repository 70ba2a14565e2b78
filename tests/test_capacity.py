"""Tests for singular values, rate allocation and link-budget helpers."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from reflectmimo.channel import mimo_matrix, upa
from reflectmimo.fit_rt import fit_rm_rt
from reflectmimo.paths import C_LIGHT, ReferencePair
from reflectmimo.tracer import Scene, trace_paths

from scenelib import gram_singular_values

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


class TestBandRate:
    def test_flat_channel_averages_to_center(self):
        h = np.eye(2, dtype=complex) * snr_unit_singular(BUDGET)
        rate, se_avg = band_rate(lambda f: h, F0, BUDGET, MODEL, n_freq=10)
        se0 = spectral_efficiency(singular_values(h), BUDGET, MODEL)
        assert abs(se_avg - se0) <= 1e-12
        assert abs(rate - se_avg * BUDGET.bandwidth_hz) <= 1e-3

    def test_single_sample_is_center_frequency(self):
        seen = []

        def channel(f):
            seen.append(f)
            return np.eye(2, dtype=complex) * snr_unit_singular(BUDGET)

        band_rate(channel, F0, BUDGET, MODEL, n_freq=1)
        assert seen == [F0]

    def test_samples_cover_band_midpoints(self):
        seen = []

        def channel(f):
            seen.append(f)
            return np.eye(1, dtype=complex)

        band_rate(channel, F0, BUDGET, MODEL, n_freq=4)
        expected = [F0 - 1e9 + (i + 0.5) * 5e8 for i in range(4)]
        assert np.allclose(seen, expected)
        # the band is the budget's, whose noise power the rate model uses
        seen.clear()
        band_rate(channel, F0, LinkBudget(bandwidth_hz=1e9), MODEL, n_freq=4)
        expected = [F0 - 5e8 + (i + 0.5) * 2.5e8 for i in range(4)]
        assert np.allclose(seen, expected)

    def test_validation(self):
        h = np.eye(1, dtype=complex)
        with pytest.raises(ValueError):
            band_rate(lambda f: h, F0, BUDGET, MODEL, n_freq=0)

    def test_orthogonal_spacing_los_closed_form(self):
        # at element spacing sqrt(lambda R / 8) the 8x8 LOS matrix is close
        # to a scaled unitary: 64 equal singular values of 8|g| carry the
        # whole Frobenius energy
        lam = C_LIGHT / F0
        r = 100.0
        spacing = math.sqrt(lam * r / 8.0)
        scene = Scene(facets=(), carrier_freq=F0)
        tx_c = np.array([0.0, 0.0, 2.0])
        rx_c = np.array([r, 0.0, 2.0])
        ref = ReferencePair(tx_ref=tx_c, rx_ref=rx_c)
        rm = [fit_rm_rt(p, ref) for p in trace_paths(scene, tx_c, rx_c)]
        txa = upa(8, 8, spacing, tx_c)
        rxa = upa(8, 8, spacing, rx_c)
        s = singular_values(
            mimo_matrix(txa, rxa, "rm_image", F0, F0, paths=rm, ref=ref)
        )
        assert s[0] / s[-1] <= 1.01
        gain = abs(rm[0].gain)
        se_analytic = spectral_efficiency(np.full(64, 8.0 * gain), BUDGET, MODEL)
        _, se_avg = band_rate(
            lambda f: mimo_matrix(txa, rxa, "rm_image", f, F0, paths=rm, ref=ref),
            F0,
            BUDGET,
            MODEL,
            n_freq=10,
        )
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
