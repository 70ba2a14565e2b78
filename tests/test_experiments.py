"""Experiment drivers: displacement error curves and rotation capacity sweeps."""

import cmath
import csv
import dataclasses
import functools
import io
import logging
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    ESTIMATORS,
    DisplacementResult,
    DisplacementSpec,
    ErrorRecord,
    LinkBudget,
    PairObservation,
    RateModel,
    ReferencePair,
    Scene,
    angles_to_image,
    capacity_sweep,
    channel_evaluator,
    displacement_experiment,
    fit_rm_dp,
    fit_rm_rt,
    make_facet,
    path_distances,
    phasor_sum,
    pwa_distance,
    rm_distance_image,
    singular_values,
    to_pwa,
    trace_paths,
)
from reflectmimo import capacity, channel, experiments
from reflectmimo.experiments import _random_units
from reflectmimo.fileio import write_error_csv
from scenelib import band_tolerance, core_tolerance, random_scene

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


def count_traces(monkeypatch) -> list[str]:
    """The trace_paths and trace_pairs calls the experiments make, directly
    or through the exhaustive channel, by name, one entry per call."""
    calls = []
    for module, name in (
        (experiments, "trace_paths"),
        (experiments, "trace_pairs"),
        (channel, "trace_pairs"),
    ):
        def counted(*args, _name=name, _trace=getattr(module, name), **kwargs):
            calls.append(_name)
            return _trace(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


BAD_COUNTS = [0, -2, 2.5, 3.0, "3", None]
BAD_SEEDS = [-1, 2.5, 3.0, "3", None]


def medians_by_distance(result, model):
    k = result.models.index(model)
    return {
        float(d): float(np.median(result.epsilon[result.distances == d, :, k]))
        for d in np.unique(result.distances)
    }


@functools.lru_cache(maxsize=None)
def long_range_records():
    scene, ref = corridor_scene(2000.0)
    spec = DisplacementSpec(directions_per_distance=10, rng_seed=3)
    return displacement_experiment(scene, ref, spec, n_freq=10, max_bounces=1)


class TestDisplacementSpec:
    def test_defaults(self):
        spec = DisplacementSpec()
        assert spec.distances == (0.01, 0.02, 0.05, 0.10, 0.50, 1.00)
        assert spec.directions_per_distance == 10

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.02, 0.01))
        # a repeated distance passed a test of sorted order
        with pytest.raises(ValueError, match="strictly ascending"):
            DisplacementSpec(distances=(0.01, 0.01))
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.0, 0.01))
        with pytest.raises(ValueError):
            DisplacementSpec(distances=(0.01,))
        with pytest.raises(ValueError):
            DisplacementSpec(directions_per_distance=0)

    @pytest.mark.parametrize("count", [2.5, 3.0, "3", None])
    def test_rejects_non_integral_directions(self, count):
        # 2.5 used to pass, and the experiment failed after tracing
        with pytest.raises(ValueError, match="directions_per_distance must be an integer"):
            DisplacementSpec(directions_per_distance=count)

    @pytest.mark.parametrize("seed", BAD_SEEDS)
    def test_rejects_rng_seed_not_a_non_negative_integer(self, seed):
        # 2.5 used to pass, and the experiment raised numpy's TypeError
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            DisplacementSpec(rng_seed=seed)
        assert type(DisplacementSpec(rng_seed=np.int64(2)).rng_seed) is int

    def test_keeps_directions_as_int(self):
        spec = DisplacementSpec(directions_per_distance=np.int64(2))
        assert type(spec.directions_per_distance) is int
        with pytest.raises(ValueError, match="need at least one direction per distance"):
            DisplacementSpec(directions_per_distance=-1)


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
        # a result compares by identity: compare its columns
        assert a.models == b.models
        for name in ("distances", "frequencies", "epsilon"):
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes()

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

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(n_freq=0), "n_freq"),
            (dict(models=()), "at least one model"),
            (dict(bandwidth=0.0), "bandwidth"),
            (dict(bandwidth=-1e9), "bandwidth"),
            (dict(bandwidth=math.nan), "bandwidth"),
            (dict(bandwidth=math.inf), "bandwidth"),
            # a band of 3 f0 drew frequencies down to -0.45 f0
            (dict(bandwidth=2 * F0), "under twice f0 = 140000000000.0 Hz, got 280000000000.0$"),
            (dict(bandwidth=3 * F0), "under twice f0 = 140000000000.0 Hz, got 420000000000.0$"),
        ],
    )
    def test_rejects_bad_arguments_before_tracing(self, kwargs, message):
        # the blocked scene has no reference path: a trace would fail first
        scene, ref = blocked_scene()
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=2)
        with pytest.raises(ValueError, match=message):
            displacement_experiment(scene, ref, spec, **kwargs)


    def test_a_band_just_under_twice_f0_stays_above_zero_hz(self):
        scene, ref = empty_los(10.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=1)
        bandwidth = np.nextafter(2 * F0, 0.0)
        result = displacement_experiment(scene, ref, spec, bandwidth, 50, ("pwa",), 0)
        assert all(0.0 < r.frequency < 2 * F0 and math.isfinite(r.epsilon) for r in result)

    @pytest.mark.parametrize("n_freq", BAD_COUNTS)
    def test_rejects_n_freq_not_a_positive_integer_before_tracing(self, monkeypatch, n_freq):
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=1)
        with pytest.raises(ValueError, match="n_freq must be a positive integer"):
            displacement_experiment(scene, ref, spec, n_freq=n_freq, max_bounces=1)
        assert calls == []
        displacement_experiment(scene, ref, spec, n_freq=np.int64(1), max_bounces=1)
        assert calls

    def test_rejects_repeated_model_before_tracing(self, monkeypatch):
        # ("pwa", "pwa") used to return every pwa record twice
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=1)
        with pytest.raises(ValueError, match="repeated model"):
            displacement_experiment(scene, ref, spec, models=("pwa", "rm_rt", "pwa"))
        assert calls == []


class TestErrorRecord:
    def test_named_tuple_contract(self):
        assert ErrorRecord._fields == ("model", "distance", "frequency", "epsilon")
        rec = ErrorRecord("pwa", 0.01, F0, 1.25e-7)
        assert (rec.model, rec.distance, rec.frequency, rec.epsilon) == tuple(rec)
        with pytest.raises(AttributeError):
            rec.epsilon = 0.0

    def test_dataclass_contract(self):
        # a record is still a frozen dataclass: replace, fields and asdict work
        rec = ErrorRecord("pwa", 0.01, F0, 1.25e-7)
        assert dataclasses.is_dataclass(rec)
        assert [f.name for f in dataclasses.fields(ErrorRecord)] == list(ErrorRecord._fields)
        moved = dataclasses.replace(rec, epsilon=2.5e-7)
        assert type(moved) is ErrorRecord
        assert moved == ErrorRecord("pwa", 0.01, F0, 2.5e-7)
        assert dataclasses.asdict(rec) == rec._asdict()
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.model = "rm_rt"

    @pytest.mark.parametrize("models", [ESTIMATORS, ("rm_dp", "pwa")])
    def test_experiment_fields_are_builtin_and_survive_the_csv(self, models):
        scene, ref = corridor_scene(100.0)
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=2)
        result = displacement_experiment(
            scene, ref, spec, n_freq=3, models=models, max_bounces=1
        )
        records = list(result)
        assert len(records) == 2 * 2 * 3 * len(models)
        for rec in records:
            # np.float64 subclasses float; write_error_csv needs builtin reprs
            assert type(rec) is ErrorRecord
            assert [type(x) for x in rec] == [str, float, float, float]
        buf = io.StringIO()
        write_error_csv(result, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))[1:]
        parsed = [(m, float(d), float(f), float(e)) for m, d, f, e in rows]
        assert parsed == [tuple(rec) for rec in records]


@functools.lru_cache(maxsize=None)
def subset_result():
    """A result for two of the four models, passed as a list."""
    scene, ref = corridor_scene(100.0)
    spec = DisplacementSpec(distances=(0.01, 0.02, 0.05), directions_per_distance=2)
    return displacement_experiment(
        scene, ref, spec, n_freq=4, models=["rm_rt", "constant"], max_bounces=1
    )


class TestDisplacementResult:
    def test_columns(self):
        r = subset_result()
        assert r.models == ("rm_rt", "constant")
        assert r.distances.shape == (6,) and r.distances.dtype == np.float64
        assert r.frequencies.shape == (4,) and r.frequencies.dtype == np.float64
        assert r.epsilon.shape == (6, 4, 2) and r.epsilon.dtype == np.float64
        assert r.distances.tolist() == [0.01, 0.01, 0.02, 0.02, 0.05, 0.05]
        assert len(r) == 6 * 4 * 2

    def test_read_only(self):
        r = subset_result()
        for column in (r.distances, r.frequencies, r.epsilon):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.epsilon = r.epsilon.copy()
        assert not hasattr(r, "__dict__")

    def test_rows_index_the_columns(self):
        r = subset_result()
        rows = list(r)
        assert rows == list(r)  # a second iteration gives the same rows
        assert len(rows) == len(r)
        for i, row in enumerate(rows):
            s, f, k = np.unravel_index(i, r.epsilon.shape)
            assert row == (r.models[k], r.distances[s], r.frequencies[f], r.epsilon[s, f, k])

    def test_indexing_gives_the_rows(self):
        r = subset_result()
        rows = list(r)
        for i in (0, 1, 17, len(r) - 1, -1, -len(r)):
            assert type(r[i]) is ErrorRecord
            assert [type(x) for x in r[i]] == [str, float, float, float]
            assert r[i] == rows[i]
        assert r[np.int64(5)] == rows[5]
        for i in (len(r), -len(r) - 1):
            with pytest.raises(IndexError):
                r[i]
        assert r[:-1] == rows[:-1] and r[3:9:2] == rows[3:9:2] and r[5:2] == []

    def test_empty(self):
        empty = DisplacementResult((), np.empty(0), np.empty(0), np.empty((0, 0, 0)))
        assert len(empty) == 0 and list(empty) == []


def _random_unit(rng):
    """One random direction at a time: the draw _random_units batches."""
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(v.dot(v))
        if n > 1e-6:
            return v / n


class TestRandomUnits:
    """The batched direction draw against one-at-a-time draws, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 3, 99, 2**16])
    @pytest.mark.parametrize("count", [0, 1, 4, 120])
    def test_matches_sequential_draws(self, seed, count):
        batch, loop = np.random.default_rng(seed), np.random.default_rng(seed)
        got = _random_units(batch, count)
        want = np.array([_random_unit(loop) for _ in range(count)]).reshape(count, 3)
        assert got.shape == (count, 3)
        assert got.tobytes() == want.tobytes()
        assert batch.bit_generator.state == loop.bit_generator.state


def fits_and_draws(scene, ref, spec, bandwidth, n_freq, max_bounces):
    """The reference energy, the four estimators' fitted paths, the
    frequencies and the (distance, TX, RX) samples, drawing from the
    generator in the same order as displacement_experiment."""
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
    fits = {
        "constant": pwa0,
        "pwa": pwa0,
        "rm_rt": [fit_rm_rt(p, ref) for p in traced0],
        "rm_dp": fit_rm_dp(reference_obs, displaced, ref),
    }
    freqs = rng.uniform(f0 - bandwidth / 2.0, f0 + bandwidth / 2.0, size=n_freq)
    samples = []
    for dist in spec.distances:
        for _ in range(spec.directions_per_distance):
            dir_tx, dir_rx = _random_unit(rng), _random_unit(rng)
            samples.append((dist, ref.tx_ref + dist * dir_tx, ref.rx_ref + dist * dir_rx))
    return energy0, fits, freqs, samples


def scalar_displacement(scene, ref, spec, bandwidth, n_freq, max_bounces):
    """Per-sample, per-frequency scalar evaluation of all four estimators:
    (model, distance, frequency, epsilon) rows."""
    f0 = scene.carrier_freq
    energy0, fits, freqs, samples = fits_and_draws(
        scene, ref, spec, bandwidth, n_freq, max_bounces
    )
    rows = []
    for dist, tx, rx in samples:
        terms = {
            "constant": [(p.gain, p.delay, C_LIGHT * p.delay) for p in fits["constant"]],
            "pwa": [(p.gain, p.delay, pwa_distance(rx, tx, ref, p)) for p in fits["pwa"]],
        }
        for name in ("rm_rt", "rm_dp"):
            terms[name] = [
                (p.gain, p.delay, rm_distance_image(rx, tx, angles_to_image(p, ref)))
                for p in fits[name]
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


def looped_displacement(scene, ref, spec, bandwidth, n_freq, max_bounces):
    """displacement_experiment written as one trace_paths and one phasor_sum
    per sample and model: (model, distance, frequency, epsilon) rows, and the
    number of true paths at each sample."""
    f0 = scene.carrier_freq
    energy0, fits, freqs, samples = fits_and_draws(
        scene, ref, spec, bandwidth, n_freq, max_bounces
    )
    tx_m = np.array([tx for _, tx, _ in samples])
    rx_m = np.array([rx for _, _, rx in samples])
    channel_model = {"constant": "constant", "pwa": "pwa", "rm_rt": "rm_image", "rm_dp": "rm_image"}
    distances = {
        name: path_distances(rx_m, tx_m, fits[name], ref, channel_model[name])
        for name in ESTIMATORS
    }
    rows, path_counts = [], []
    for s, (dist, tx, rx) in enumerate(samples):
        truth = trace_paths(scene, tx, rx, max_bounces)
        path_counts.append(len(truth))
        delays = [p.delay for p in truth]
        h_true = phasor_sum(
            [p.gain for p in truth], delays, [C_LIGHT * tau for tau in delays], freqs, f0
        )
        eps = {}
        for name in ESTIMATORS:
            h_est = phasor_sum(
                [p.gain for p in fits[name]],
                [p.delay for p in fits[name]],
                [d[s] for d in distances[name]],
                freqs,
                f0,
            )
            eps[name] = np.broadcast_to(abs(h_est - h_true) ** 2 / energy0, freqs.shape)
        for k, f in enumerate(freqs):
            for name in ESTIMATORS:
                rows.append((name, dist, float(f), float(eps[name][k])))
    return rows, path_counts


def occluded_scene():
    """Ground plane plus two screens across a 10 m link at x = 3 m, facing
    TX: the upper one (z above 1.4 m) shadows the line of sight from
    y = 0.05 m on, the lower one the ground bounce from y = 0.3 m on. The
    reference pair at y = 0 sees both paths; displaced samples see two, one
    or none."""
    ground = make_facet((5.0, 0.0, 0.0), (0.0, 0.0, 1.0), half_u=50.0, half_v=50.0)
    upper = make_facet((3.0, 2.55, 2.7), (-1.0, 0.0, 0.0), half_u=2.5, half_v=1.3)
    lower = make_facet((3.0, 2.8, 0.7), (-1.0, 0.0, 0.0), half_u=2.5, half_v=0.7)
    scene = Scene(facets=(ground, upper, lower), carrier_freq=F0)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 0.0, 2.0]), rx_ref=np.array([10.0, 0.0, 2.0])
    )
    return scene, ref


class TestDisplacementMatchesLoop:
    """The batched experiment against the per-sample loop, bit for bit."""

    def test_long_corridor(self):
        scene, ref = corridor_scene(2000.0)
        spec = DisplacementSpec(directions_per_distance=10, rng_seed=3)
        rows, path_counts = looped_displacement(scene, ref, spec, 2e9, 10, 1)
        assert set(path_counts) == {3}
        records = long_range_records()
        assert [(r.model, r.distance, r.frequency, r.epsilon) for r in records] == rows

    def test_occluded_samples(self):
        scene, ref = occluded_scene()
        spec = DisplacementSpec(
            distances=(0.01, 0.02, 0.2, 0.5, 1.0), directions_per_distance=8, rng_seed=5
        )
        rows, path_counts = looped_displacement(scene, ref, spec, 2e9, 4, 1)
        assert {0, 1, 2} <= set(path_counts)
        records = displacement_experiment(scene, ref, spec, n_freq=4, max_bounces=1)
        assert [(r.model, r.distance, r.frequency, r.epsilon) for r in records] == rows

    def test_logs_pair_traces(self, caplog):
        # The demo grid: 1 reference pair, 2 displaced pairs for rm_dp and
        # 6 x 10 samples.
        scene, ref = corridor_scene(100.0)
        with caplog.at_level(logging.INFO, logger="reflectmimo.experiments"):
            displacement_experiment(scene, ref, n_freq=1, max_bounces=1)
        assert "displacement experiment pair traces: 63" in caplog.messages
        caplog.clear()
        spec = DisplacementSpec(distances=(0.01, 0.02), directions_per_distance=3)
        with caplog.at_level(logging.INFO, logger="reflectmimo.experiments"):
            displacement_experiment(scene, ref, spec, n_freq=1, models=("pwa",), max_bounces=1)
        assert "displacement experiment pair traces: 7" in caplog.messages


def ceiling_scene():
    """One two-sided unbounded ceiling over a 5 m link at 28 GHz: at rng
    seeds 4 and 5, the displaced pairs 20 and 25 m away leave fit_rm_dp with
    none of the two reference paths."""
    scene = Scene(facets=(make_facet((0, 0, 10), (0, 0, 1), two_sided=True),), carrier_freq=28e9)
    return scene, ReferencePair(tx_ref=np.zeros(3), rx_ref=np.array([5.0, 0.0, 0.0]))


class TestEmptyDisplacedPairFit:
    MESSAGE = "rm_dp kept no path: its fit lost all 2 reference paths"

    @pytest.mark.parametrize("seed", [4, 5])
    def test_capacity_sweep_names_rm_dp(self, seed):
        # it raised the channel model's "rm_image model requires a non-empty path list"
        scene, ref = ceiling_scene()
        with pytest.raises(ValueError, match=self.MESSAGE):
            capacity_sweep(
                scene, ref, [0.0], LinkBudget(), rows=2, cols=2, models=("rm_dp", "pwa"),
                n_freq=1, max_bounces=1, rng_seed=seed, dp_distances=(20.0, 25.0),
            )

    def test_displacement_experiment_names_rm_dp(self):
        # it scored the empty fit as the zero channel: a median epsilon of 0
        scene, ref = ceiling_scene()
        spec = DisplacementSpec((20.0, 25.0, 30.0), directions_per_distance=2, rng_seed=4)
        with pytest.raises(ValueError, match=self.MESSAGE):
            displacement_experiment(scene, ref, spec, max_bounces=1)


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

    @pytest.mark.parametrize(
        "rotations, kwargs, message",
        [
            ([0.0], dict(models=()), "at least one model"),
            ([], {}, "at least one rotation"),
            (np.array([]), dict(models=("exhaustive",)), "at least one rotation"),
        ],
    )
    def test_rejects_empty_arguments_before_tracing(self, rotations, kwargs, message):
        # the blocked scene has no reference path: a trace would fail first
        scene, ref = blocked_scene()
        with pytest.raises(ValueError, match=message):
            capacity_sweep(scene, ref, rotations, LinkBudget(), **kwargs)

    @pytest.mark.parametrize(
        "rotations, kwargs, message",
        [
            ([0.0, math.nan], {}, "rotations must be finite"),
            (np.array([math.inf]), dict(models=("exhaustive",)), "rotations must be finite"),
            ([0.0], dict(dp_distances=(0.01, math.nan)), "dp_distances must be finite"),
            ([0.0], dict(dp_distances=(0.01, math.inf)), "dp_distances must be finite"),
            ([0.0], dict(dp_distances=(0.0, 0.02)), "dp_distances must be finite and positive"),
            ([0.0], dict(dp_distances=(-0.01,)), "dp_distances must be finite and positive"),
        ],
    )
    def test_rejects_non_finite_settings_before_tracing(self, rotations, kwargs, message):
        scene, ref = blocked_scene()
        with pytest.raises(ValueError, match=message):
            capacity_sweep(scene, ref, rotations, LinkBudget(), **kwargs)

    @pytest.mark.parametrize("n_freq", BAD_COUNTS)
    @pytest.mark.parametrize("models", [("exhaustive",), ("pwa", "rm_dp")])
    def test_rejects_n_freq_not_a_positive_integer_before_tracing(
        self, monkeypatch, models, n_freq
    ):
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        kwargs = dict(rows=2, cols=2, models=models, max_bounces=1)
        with pytest.raises(ValueError, match="n_freq must be a positive integer"):
            capacity_sweep(scene, ref, [0.0], LinkBudget(), n_freq=n_freq, **kwargs)
        assert calls == []
        capacity_sweep(scene, ref, [0.0], LinkBudget(), n_freq=np.int64(1), **kwargs)
        assert calls

    @pytest.mark.parametrize("rng_seed", BAD_SEEDS)
    @pytest.mark.parametrize("models", [("exhaustive",), ("pwa", "rm_dp")])
    def test_rejects_rng_seed_not_a_non_negative_integer_before_tracing(
        self, monkeypatch, models, rng_seed
    ):
        # 2.5 used to raise numpy's TypeError
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        kwargs = dict(rows=2, cols=2, models=models, n_freq=1, max_bounces=1)
        with pytest.raises(ValueError, match="rng_seed must be a non-negative integer"):
            capacity_sweep(scene, ref, [0.0], LinkBudget(), rng_seed=rng_seed, **kwargs)
        assert calls == []
        capacity_sweep(scene, ref, [0.0], LinkBudget(), rng_seed=np.int64(1), **kwargs)
        assert calls

    @pytest.mark.parametrize("models", [("exhaustive", "exhaustive"), ("pwa", "rm_dp", "pwa")])
    def test_rejects_repeated_model_before_tracing(self, monkeypatch, models):
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        with pytest.raises(ValueError, match="repeated model"):
            capacity_sweep(scene, ref, [0.0], LinkBudget(), rows=2, cols=2, models=models)
        assert calls == []

    @pytest.mark.parametrize("dp_distances", [(), (0.01,)])
    def test_rm_dp_rejects_fewer_than_two_dp_distances_before_tracing(
        self, monkeypatch, dp_distances
    ):
        calls = count_traces(monkeypatch)
        scene, ref = corridor_scene(100.0)
        kwargs = dict(rows=2, cols=2, n_freq=1, max_bounces=1, dp_distances=dp_distances)
        with pytest.raises(ValueError, match="rm_dp needs at least two dp_distances"):
            capacity_sweep(scene, ref, [0.0], LinkBudget(), models=("pwa", "rm_dp"), **kwargs)
        assert calls == []
        capacity_sweep(scene, ref, [0.0], LinkBudget(), models=("pwa",), **kwargs)
        assert calls == ["trace_paths"]

    def test_plane_wave_cells_take_no_dense_matrix(self, monkeypatch):
        def no_dense_channel(*args, **kwargs):
            raise AssertionError("dense channel synthesized for a plane-wave model")

        shapes = []

        def recorded(h):
            shapes.append(h.shape)
            return singular_values(h)

        monkeypatch.setattr(experiments, "channel_evaluator", no_dense_channel)
        monkeypatch.setattr(experiments, "singular_values", recorded)
        monkeypatch.setattr(capacity, "singular_values", recorded)
        scene, ref = corridor_scene(100.0)  # line of sight, ground and wall: 3 paths
        cells, _ = capacity_sweep(
            scene, ref, [0.0, 1.0], LinkBudget(), rows=4, cols=4,
            models=("constant", "pwa"), n_freq=3, max_bounces=1,
        )
        assert len(cells) == 4
        assert len(shapes) == 4 * (3 + 1)  # the band and its centre, per cell
        assert all(m <= 3 and n <= 3 for m, n in shapes)


class TestPlaneWaveCells:
    """``capacity_sweep`` rates ``constant`` and ``pwa`` from the rank-P core;
    the dense (M, N) band gives the same cells, within the dense matrix's own
    phase rounding carried through the rate's slope. (That rounding is up to
    ~1e-10 of a cell at 50-160 m and 140 GHz; on the demo the cells are
    equal.)"""

    @given(
        seed=st.integers(0, 2**32 - 1),
        shape=st.sampled_from(((1, 1), (2, 1), (2, 2), (3, 3))),
        power_dbm=st.floats(-10.0, 40.0),
        bandwidth=st.floats(1e8, 2e10),
    )
    @settings(max_examples=25, deadline=None)
    def test_cells_match_the_dense_band(self, seed, shape, power_dbm, bandwidth):
        rng = np.random.default_rng(seed)
        scene, ref = random_scene(rng)
        assume(trace_paths(scene, ref.tx_ref, ref.rx_ref, max_bounces=2))
        budget = LinkBudget(tx_power_dbm=power_dbm, bandwidth_hz=bandwidth)
        rotations = rng.uniform(-math.pi, math.pi, size=2)
        kwargs = dict(
            rows=shape[0], cols=shape[1], spacing=0.05, models=("constant", "pwa"), n_freq=3
        )
        fast, _ = capacity_sweep(scene, ref, rotations, budget, **kwargs)
        dense = []

        def dense_evaluator(tx_points, rx_points, model, f0, *, paths, ref):
            at = channel_evaluator(tx_points, rx_points, model, f0, paths=paths, ref=ref)
            dense.append(at)
            return at

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "plane_wave_core", dense_evaluator)
            slow, _ = capacity_sweep(scene, ref, rotations, budget, **kwargs)

        # Each singular value moves by at most t, and one stream's rate
        # alpha log2(1 + s^2 P / (k noise)) by at most alpha sqrt(P / (k noise))
        # / ln 2 per unit of s, so the sum over k <= L streams by sqrt(L P / noise)
        # times that; here M = N = L = elements, and sqrt(M N) = elements.
        elements = shape[0] * shape[1]
        slope = RateModel().alpha * math.sqrt(
            elements * budget.tx_power_w / budget.noise_power_w
        ) / math.log(2.0)
        f_max = scene.carrier_freq + bandwidth / 2.0
        assert len(fast) == len(slow) == len(dense) == 4
        for a, b, at in zip(fast, slow, dense):
            t = core_tolerance(at, f_max) + elements * band_tolerance(at, bandwidth, 3)
            assert (a.rotation, a.model, a.rank_used) == (b.rotation, b.model, b.rank_used)
            assert abs(a.se_center - b.se_center) <= slope * t
            assert abs(a.se_avg - b.se_avg) <= slope * t
