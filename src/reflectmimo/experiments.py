"""Experiment drivers: displacement error curves and capacity sweeps.

Both experiments fit path parameters once at a reference TX/RX pair and then
score how well each extrapolation model predicts the channel elsewhere,
against ground truth obtained by re-tracing the scene. All randomness is
drawn from a single seeded generator, so runs are reproducible bit for bit.
The displacement experiment returns its errors as read-only columns, which
iterate as ErrorRecord rows.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain, cycle, repeat
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .capacity import (
    LinkBudget,
    RateModel,
    band_rate,
    singular_values,
    stream_rates,
)
from .channel import PLANE_WAVE_MODELS, _fitted, _traced, channel_evaluator, plane_wave_core, upa
from .fit_dp import PairObservation, fit_rm_dp
from .fit_rt import fit_rm_rt
from .geometry import _at_least
from .paths import ReferencePair
from .tracer import Scene, TracedPath, _in_path_order, to_pwa, trace_pairs, trace_paths

__all__ = [
    "DisplacementResult",
    "DisplacementSpec",
    "ErrorRecord",
    "ESTIMATORS",
    "SweepCell",
    "capacity_sweep",
    "displacement_experiment",
]

log = logging.getLogger(__name__)

ESTIMATORS = ("constant", "pwa", "rm_rt", "rm_dp")

_SWEEP_MODELS = ("exhaustive",) + ESTIMATORS

# Channel model (see channel.MODELS) that evaluates each estimator's fit.
_CHANNEL_MODEL = {
    "exhaustive": "exhaustive",
    "constant": "constant",
    "pwa": "pwa",
    "rm_rt": "rm_image",
    "rm_dp": "rm_image",
}


@dataclass(frozen=True)
class DisplacementSpec:
    """Displacement grid of the error experiment.

    For each distance, directions_per_distance random displacement direction
    pairs are drawn (TX and RX move independently). The two smallest
    distances double as the displaced pairs that feed the roll/parity fit.
    """

    distances: tuple[float, ...] = (0.01, 0.02, 0.05, 0.10, 0.50, 1.00)
    directions_per_distance: int = 10
    rng_seed: int = 0

    def __post_init__(self) -> None:
        d = tuple(float(x) for x in self.distances)
        ascending = all(x < y for x, y in zip(d, d[1:]))
        if len(d) < 2 or not all(math.isfinite(x) and x > 0.0 for x in d) or not ascending:
            raise ValueError("distances must be >= 2 positive values, strictly ascending")
        count = _at_least(
            self.directions_per_distance, 1,
            "directions_per_distance must be an integer: need at least one direction per distance",
        )
        seed = _at_least(self.rng_seed, 0, "rng_seed must be a non-negative integer")
        object.__setattr__(self, "distances", d)
        object.__setattr__(self, "directions_per_distance", count)
        object.__setattr__(self, "rng_seed", seed)


@dataclass(frozen=True, init=False, repr=False, eq=False)
class ErrorRecord(NamedTuple):
    """Normalized squared channel error of one model at one sample point
    and frequency: one row of a DisplacementResult.

    A named tuple, built at tuple cost as the result is iterated. Also a
    frozen dataclass, so dataclasses.replace, fields and asdict work on it
    as on any other record of the package.
    """

    model: str
    distance: float
    frequency: float
    epsilon: float


@dataclass(frozen=True, slots=True, eq=False)
class DisplacementResult:
    """Errors of displacement_experiment as read-only columns.

    epsilon[s, f, k] is the error of models[k] at sample s, displaced by
    distances[s], and at frequencies[f]. len(), iteration and indexing give
    the ErrorRecord rows in (sample, frequency, model) order, with builtin
    str and float fields, built one at a time; a slice is a list of rows.
    """

    models: tuple[str, ...]
    distances: np.ndarray  # (S,)
    frequencies: np.ndarray  # (F,)
    epsilon: np.ndarray  # (S, F, K)

    def __len__(self) -> int:
        return self.epsilon.size

    def __iter__(self) -> Iterator[ErrorRecord]:
        # The rows share each distance and frequency float, and
        # tuple.__new__ (what ErrorRecord._make calls) does no per-field work.
        per_sample = math.prod(self.epsilon.shape[1:])
        rows = zip(
            cycle(self.models),
            chain.from_iterable(repeat(d, per_sample) for d in self.distances.tolist()),
            cycle([f for f in self.frequencies.tolist() for _ in self.models]),
            memoryview(self.epsilon.reshape(-1)),  # iterates as builtin floats
        )
        return map(tuple.__new__, repeat(ErrorRecord), rows)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(self)[index]
        s, f, k = np.unravel_index(range(len(self))[index], self.epsilon.shape)
        return ErrorRecord(
            self.models[k],
            self.distances[s].item(),
            self.frequencies[f].item(),
            self.epsilon[s, f, k].item(),
        )


def _random_units(rng: np.random.Generator, count: int) -> np.ndarray:
    """count random unit directions, (count, 3): standard normal triples
    drawn in sequence, each scaled to unit length, so the result and the
    generator's state are those of count draws of one triple at a time."""
    v = rng.standard_normal((count, 3))
    n = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
    return v / n[:, None]


def _check_models(models: Sequence[str], known: Sequence[str]) -> None:
    """ValueError unless models names at least one of known, each once."""
    if not models:
        raise ValueError("need at least one model")
    unknown = set(models) - set(known)
    if unknown:
        raise ValueError(f"unknown model(s) {sorted(unknown)}")
    if len(set(models)) < len(models):
        raise ValueError(f"repeated model in {list(models)}")


def _fit_estimators(
    scene: Scene,
    ref: ReferencePair,
    models: Sequence[str],
    dp_distances: Sequence[float],
    rng: np.random.Generator,
    max_bounces: int,
) -> tuple[list[TracedPath], dict[str, list]]:
    """Trace the reference pair once and fit each estimator named in models.

    Returns the reference paths and the fitted paths of each estimator. The
    rm_dp fit also traces one displaced pair per entry of dp_distances, in
    random directions drawn from rng; nothing else draws from it.
    """
    traced0 = trace_paths(scene, ref.tx_ref, ref.rx_ref, max_bounces)
    if not traced0:
        raise ValueError("no propagation paths at the reference pair")
    pwa0 = [to_pwa(p, ref) for p in traced0]
    fitted: dict[str, list] = {}
    for name in ("constant", "pwa"):
        if name in models:
            fitted[name] = pwa0
    if "rm_rt" in models:
        fitted["rm_rt"] = [fit_rm_rt(p, ref) for p in traced0]
    if "rm_dp" in models:
        displaced = []
        units = _random_units(rng, 2 * len(dp_distances))
        for dist, dir_tx, dir_rx in zip(dp_distances, units[0::2], units[1::2]):
            tx_m = ref.tx_ref + dist * dir_tx
            rx_m = ref.rx_ref + dist * dir_rx
            pair_ref = ReferencePair(tx_ref=tx_m, rx_ref=rx_m)
            traced = trace_paths(scene, tx_m, rx_m, max_bounces)
            displaced.append(
                PairObservation(
                    tx=tx_m, rx=rx_m, paths=tuple(to_pwa(p, pair_ref) for p in traced)
                )
            )
        reference_obs = PairObservation(tx=ref.tx_ref, rx=ref.rx_ref, paths=tuple(pwa0))
        fitted["rm_dp"] = fit_rm_dp(reference_obs, displaced, ref)
    return traced0, fitted


def displacement_experiment(
    scene: Scene,
    ref: ReferencePair,
    spec: DisplacementSpec = DisplacementSpec(),
    bandwidth: float = 2e9,
    n_freq: int = 10,
    models: Sequence[str] = ESTIMATORS,
    max_bounces: int = 2,
) -> DisplacementResult:
    """Channel prediction error of each model over a displacement grid.

    Fits every requested model at the reference pair, then displaces TX and RX
    by each grid distance along random directions, re-traces the true channel
    there and scores |H_model - H_true|^2 / E0 at n_freq random in-band
    frequencies, with E0 the total path energy at the reference. The band
    is centred on the scene carrier, which is also the phase reference.

    Returns the errors as a DisplacementResult: one per sample, frequency
    and model, as an (S, n_freq, len(models)) array, which iterates as
    ErrorRecord rows in that order. The pair traces issued are logged.

    All S samples are traced as paired endpoints in one trace_pairs call, and
    the truth and each model are synthesized as (n_freq, S) arrays, each
    sample's paths summed in trace_paths' order, and stored transposed.
    """
    n_freq = _at_least(n_freq, 1, "n_freq must be a positive integer")
    _check_models(models, ESTIMATORS)
    if not (math.isfinite(bandwidth) and bandwidth > 0.0):
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth}")

    f0 = scene.carrier_freq
    rng = np.random.default_rng(spec.rng_seed)
    dp_distances = spec.distances[:2]
    traced0, fitted = _fit_estimators(scene, ref, models, dp_distances, rng, max_bounces)
    energy0 = sum(abs(p.gain) ** 2 for p in traced0)

    freqs = rng.uniform(f0 - bandwidth / 2.0, f0 + bandwidth / 2.0, size=n_freq)
    dists = np.repeat(spec.distances, spec.directions_per_distance)
    units = _random_units(rng, 2 * len(dists))
    tx_m = ref.tx_ref + dists[:, None] * units[0::2]
    rx_m = ref.rx_ref + dists[:, None] * units[1::2]
    n_traced = 1 + (len(dp_distances) if "rm_dp" in models else 0) + len(dists)
    log.info("displacement experiment pair traces: %d", n_traced)

    # (paths, samples) against (n_freq, 1): one (n_freq, samples) sum
    gains, delays = _in_path_order(trace_pairs(scene, tx_m, rx_m, max_bounces), (len(dists),))
    h_true = _traced(gains, delays, f0)(freqs[:, None])
    eps = np.empty((len(dists), n_freq, len(models)))
    for k, name in enumerate(models):
        at = _fitted(rx_m, tx_m, fitted[name], ref, _CHANNEL_MODEL[name], f0)
        eps[:, :, k] = (abs(at(freqs[:, None]) - h_true) ** 2 / energy0).T
    for column in (dists, freqs, eps):
        column.flags.writeable = False
    return DisplacementResult(tuple(models), dists, freqs, eps)


@dataclass(frozen=True)
class SweepCell:
    """Spectral efficiency of one model at one transmitter rotation."""

    rotation: float
    model: str
    se_center: float
    se_avg: float
    rank_used: int


def capacity_sweep(
    scene: Scene,
    ref: ReferencePair,
    rotations: Sequence[float],
    budget: LinkBudget,
    rate_model: RateModel = RateModel(),
    rows: int = 8,
    cols: int = 8,
    spacing: float = 0.14,
    models: Sequence[str] = _SWEEP_MODELS,
    n_freq: int = 10,
    max_bounces: int = 2,
    rng_seed: int = 0,
    dp_distances: Sequence[float] = (0.01, 0.02),
) -> tuple[list[SweepCell], dict[str, int]]:
    """Spectral efficiency versus transmitter array rotation, per model.

    Both arrays are uniform planar arrays; the receiver boresight stays on
    the transmitter while the transmitter is rotated about the vertical by
    each angle (radians) relative to boresight alignment. Returns the sweep
    table and the number of path traces each model consumed, the cost metric
    that separates exhaustive re-tracing from the one-off fits.
    """
    n_freq = _at_least(n_freq, 1, "n_freq must be a positive integer")
    rng_seed = _at_least(rng_seed, 0, "rng_seed must be a non-negative integer")
    _check_models(models, _SWEEP_MODELS)
    if len(rotations) == 0:
        raise ValueError("need at least one rotation")
    if not np.all(np.isfinite(rotations)):
        raise ValueError("rotations must be finite")
    if not all(math.isfinite(d) and d > 0.0 for d in dp_distances):
        raise ValueError("dp_distances must be finite and positive")
    if "rm_dp" in models and len(dp_distances) < 2:
        raise ValueError("rm_dp needs at least two dp_distances")
    f0 = scene.carrier_freq
    rng = np.random.default_rng(rng_seed)

    sep = ref.tx_ref - ref.rx_ref
    rx_boresight = math.atan2(sep[1], sep[0])
    tx_boresight = math.atan2(-sep[1], -sep[0])
    rx_points = upa(rows, cols, spacing, ref.rx_ref, azimuth_rotation=rx_boresight)

    counts: dict[str, int] = {name: 0 for name in models}
    fitted: dict[str, list] = {}
    if any(name != "exhaustive" for name in models):
        _, fitted = _fit_estimators(scene, ref, models, dp_distances, rng, max_bounces)
        for name in fitted:
            counts[name] = 1 + len(dp_distances) if name == "rm_dp" else 1

    cells = []
    for rot in rotations:
        tx_points = upa(
            rows, cols, spacing, ref.tx_ref, azimuth_rotation=tx_boresight + rot
        )
        for name in models:
            model = _CHANNEL_MODEL[name]
            if model in PLANE_WAVE_MODELS:
                # rank <= P: the rates read only the nonzero singular values
                evaluator = plane_wave_core(
                    tx_points, rx_points, model, f0, paths=fitted[name], ref=ref
                )
            else:
                evaluator = channel_evaluator(
                    tx_points,
                    rx_points,
                    model,
                    f0,
                    paths=fitted.get(name, ()),
                    ref=ref,
                    scene=scene,
                    max_bounces=max_bounces,
                )
            if name == "exhaustive":
                counts[name] += len(rx_points) * len(tx_points)
            _, se_avg = band_rate(evaluator.band(budget.bandwidth_hz, n_freq), budget, rate_model)
            center = stream_rates(singular_values(evaluator(f0)), budget, rate_model)
            cells.append(
                SweepCell(
                    rotation=float(rot),
                    model=name,
                    se_center=float(center.max()),
                    se_avg=se_avg,
                    rank_used=int(np.argmax(center)) + 1,
                )
            )
    log.info("capacity sweep trace counts: %s", counts)
    return cells, counts
