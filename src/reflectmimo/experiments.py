"""Experiment drivers: displacement error curves and capacity sweeps.

Both experiments fit path parameters once at a reference TX/RX pair and then
score how well each extrapolation model predicts the channel elsewhere,
against ground truth obtained by re-tracing the scene. All randomness is
drawn from a single seeded generator, so runs are reproducible bit for bit.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .capacity import (
    LinkBudget,
    RateModel,
    band_rate,
    singular_values,
    stream_rates,
)
from .channel import channel_evaluator, path_distances, phasor_sum, upa
from .fit_dp import PairObservation, fit_rm_dp
from .fit_rt import fit_rm_rt
from .paths import C_LIGHT, ReferencePair
from .tracer import Scene, TracedPath, _in_path_order, to_pwa, trace_pairs, trace_paths

__all__ = [
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
        if len(d) < 2 or any(x <= 0.0 for x in d) or list(d) != sorted(d):
            raise ValueError("distances must be >= 2 positive values, ascending")
        if self.directions_per_distance < 1:
            raise ValueError("need at least one direction per distance")
        object.__setattr__(self, "distances", d)


@dataclass(frozen=True, slots=True)
class ErrorRecord:
    """Normalized squared channel error of one model at one sample point.

    Slotted: an experiment returns thousands of these.
    """

    model: str
    distance: float
    frequency: float
    epsilon: float


def _random_unit(rng: np.random.Generator) -> np.ndarray:
    while True:
        v = rng.standard_normal(3)
        n = math.sqrt(v.dot(v))
        if n > 1e-6:
            return v / n


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
        for dist in dp_distances:
            tx_m = ref.tx_ref + dist * _random_unit(rng)
            rx_m = ref.rx_ref + dist * _random_unit(rng)
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
) -> list[ErrorRecord]:
    """Channel prediction error of each model over a displacement grid.

    Fits every requested model at the reference pair, then displaces TX and RX
    by each grid distance along random directions, re-traces the true channel
    there and scores |H_model - H_true|^2 / E0 at n_freq random in-band
    frequencies, with E0 the total path energy at the reference. The band
    is centred on the scene carrier, which is also the phase reference.

    All S samples are traced as paired endpoints in one trace_pairs call, and
    the truth and each model are synthesized as (S, n_freq) arrays, each
    sample's paths summed in trace_paths' order. Records run sample by
    sample, then frequency, then model; the pair traces issued are logged.
    """
    unknown = set(models) - set(ESTIMATORS)
    if unknown:
        raise ValueError(f"unknown estimator(s) {sorted(unknown)}")

    f0 = scene.carrier_freq
    rng = np.random.default_rng(spec.rng_seed)
    dp_distances = spec.distances[:2]
    traced0, fitted = _fit_estimators(scene, ref, models, dp_distances, rng, max_bounces)
    energy0 = sum(abs(p.gain) ** 2 for p in traced0)

    freqs = rng.uniform(f0 - bandwidth / 2.0, f0 + bandwidth / 2.0, size=n_freq)
    samples = [
        (dist, _random_unit(rng), _random_unit(rng))
        for dist in spec.distances
        for _ in range(spec.directions_per_distance)
    ]
    tx_m = np.array([ref.tx_ref + dist * dir_tx for dist, dir_tx, _ in samples])
    rx_m = np.array([ref.rx_ref + dist * dir_rx for dist, _, dir_rx in samples])
    n_traced = 1 + (len(dp_distances) if "rm_dp" in models else 0) + len(samples)
    log.info("displacement experiment pair traces: %d", n_traced)

    # (paths, samples, 1) against (n_freq,): one (samples, n_freq) sum
    gains, delays = _in_path_order(
        trace_pairs(scene, tx_m, rx_m, max_bounces), (len(samples), 1)
    )
    h_true = phasor_sum(gains, delays, C_LIGHT * delays, freqs, f0)
    eps = np.empty((len(samples), n_freq, len(models)))
    for k, name in enumerate(models):
        paths = fitted[name]
        distances = path_distances(rx_m, tx_m, paths, ref, _CHANNEL_MODEL[name])
        h_est = phasor_sum(
            [p.gain for p in paths],
            [p.delay for p in paths],
            [d[:, None] for d in distances],
            freqs,
            f0,
        )
        eps[:, :, k] = abs(h_est - h_true) ** 2 / energy0

    keys = itertools.product([dist for dist, _, _ in samples], freqs.tolist(), models)
    values = eps.ravel().tolist()
    return [ErrorRecord(name, dist, f, e) for (dist, f, name), e in zip(keys, values)]


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
    unknown = set(models) - set(_SWEEP_MODELS)
    if unknown:
        raise ValueError(f"unknown model(s) {sorted(unknown)}")
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
            evaluator = channel_evaluator(
                tx_points,
                rx_points,
                _CHANNEL_MODEL[name],
                f0,
                paths=fitted.get(name, ()),
                ref=ref,
                scene=scene,
                max_bounces=max_bounces,
            )
            if name == "exhaustive":
                counts[name] += len(rx_points) * len(tx_points)
            _, se_avg = band_rate(
                evaluator, f0, budget.bandwidth_hz, budget, rate_model, n_freq
            )
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
