"""MIMO channel matrices from extrapolated or re-traced path sets.

An antenna array is its element positions, a float (K, 3) array (``upa``
builds one), and a channel matrix is a complex (M, N) array, indexed
[rx element][tx element], for M receive and N transmit elements.

Every channel value is one phasor sum, ``phasor_sum``: path p contributes
``gain_p * exp(j 2 pi (delay_p * f0 - f * d_p / c))``, where d_p is the
path's propagation distance between the two antennas; a band's midpoint
grid turns each path's sum at one midpoint into the next by its rotor
``phasor_sum([1], [0], [d_p], step, f0)``. ``path_distances``
gives d_p under one of the extrapolation models, for any broadcastable
arrays of receiver and transmitter points:

* ``constant``    d = c * delay_ref (element-independent),
* ``pwa``         first-order plane-wave extrapolation,
* ``rm_image``    reflection model, matrix form (exact for specular paths).

The ``constant`` and ``pwa`` distances split into a receive term and a
transmit term, so each path is one outer product of a receive and a
transmit phase vector and the (M, N) matrix has rank at most P for P
paths. ``plane_wave_core`` gives the (min(M, P), min(N, P)) core of its
P-column factors instead, with the same nonzero singular values; the
capacity sweep rates these two models from it.

The ``exhaustive`` model instead re-traces every element pair through the
scene with ``tracer.trace_pairs``, TX points as (1, N) against RX points
as (M, 1), one facet sequence over all pairs at a time; each traced
sequence is one term of the same ``phasor_sum``, with (M, N) gain and delay
arrays (zero where a pair has no such path) and d = c * delay.

Elements are isotropic: no per-element pattern weighting is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .geometry import _at_least, as_points, rotation_matrix
from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmPath,
    _pwa_terms,
    angles_to_image,
    pwa_distance,
    rm_distance_image,
)
from .tracer import Scene, _in_path_order, trace_pairs

__all__ = [
    "MODELS",
    "PLANE_WAVE_MODELS",
    "channel_evaluator",
    "mimo_from_traced_pairs",
    "mimo_matrix",
    "path_distances",
    "phasor_sum",
    "plane_wave_core",
    "trace_array_pairs",
    "upa",
]

MODELS = ("constant", "pwa", "rm_image", "exhaustive")
# The models whose channel has rank <= P, for P paths: see plane_wave_core.
PLANE_WAVE_MODELS = ("constant", "pwa")


def upa(
    rows: int,
    cols: int,
    spacing: float,
    center: np.ndarray,
    azimuth_rotation: float = 0.0,
) -> np.ndarray:
    """Element positions, (rows * cols, 3), of a uniform planar array in a
    vertical plane, centred on center.

    The unrotated array spans the y (columns) and z (rows) axes with boresight
    along +x; azimuth_rotation turns it about the global z axis.
    """
    rows = _at_least(rows, 1, "rows must be a positive integer")
    cols = _at_least(cols, 1, "cols must be a positive integer")
    if not (math.isfinite(spacing) and spacing > 0.0):
        raise ValueError("element spacing must be positive")
    center = as_points(center, "center", 1)
    if not math.isfinite(azimuth_rotation):
        raise ValueError(f"azimuth_rotation must be finite, got {azimuth_rotation!r}")
    ys = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    zs = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    yy, zz = np.meshgrid(ys, zs)
    local = np.column_stack(
        [np.zeros(rows * cols), yy.ravel(), zz.ravel()]
    )
    rot = rotation_matrix("z", azimuth_rotation)
    return center + local @ rot.T


def phasor_sum(
    gains: Sequence[complex],
    delays: Sequence[float],
    distances: Sequence,
    f: float | np.ndarray,
    f0: float,
):
    """Channel sum_p gains[p] * exp(2 pi j (delays[p] f0 - f distances[p] / c)).

    The path axis comes first in all three sequences. Each distances[p] may
    be an array (one value per antenna pair) and f an array of frequencies;
    they broadcast, and each path's term is built in one complex buffer of
    its shape from one float scratch; the first term becomes the total and
    the later ones are added to it in place. The reference delay anchors
    the phase at the carrier f0. An empty path list gives 0j; sequences of
    different lengths raise ValueError.
    """
    n_gains, n_delays, n_distances = len(gains), len(delays), len(distances)
    if not n_gains == n_delays == n_distances:
        raise ValueError(
            "phasor_sum needs one gain, delay and distance per path, got "
            f"{n_gains} gains, {n_delays} delays and {n_distances} distances"
        )
    total = None
    for g, tau, d in zip(gains, delays, distances):
        # the summary line's expression, operation for operation: the same bits
        shape = np.broadcast(g, tau, f, d).shape
        phase = np.multiply(f, d, out=np.empty(shape))
        np.divide(phase, C_LIGHT, out=phase)
        np.subtract(tau * f0, phase, out=phase)
        term = np.zeros(shape, dtype=complex)
        np.multiply(phase, 2.0 * math.pi, out=term.imag)
        del phase  # before a broadcast gain product allocates its iterator
        np.exp(term, out=term)
        # in place, a one-element array product skips numpy's FMA kernel
        term = np.multiply(g, term, out=None if term.size == 1 and term.ndim else term)
        total = term if total is None else np.add(total, term, out=total)
        del term  # not held while the next path's buffers are made
    if total is None:
        return 0j
    return total if total.ndim else total[()]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def path_distances(
    rx: np.ndarray,
    tx: np.ndarray,
    paths: Sequence[PwaPath | RmPath],
    ref: ReferencePair,
    model: str,
) -> list:
    """Modeled distance of each path under ``constant``, ``pwa`` or
    ``rm_image``, one entry per path.

    rx and tx are points of shape (..., 3) whose leading axes broadcast;
    each entry has the broadcast shape (a float for two single points).
    ``rm_image`` needs RmPath fits; the other two use only the plane-wave
    fields.
    """
    if model == "constant":
        shape = np.broadcast_shapes(np.shape(rx)[:-1], np.shape(tx)[:-1])
        return [np.full(shape, C_LIGHT * p.delay) for p in paths]
    if model == "pwa":
        return [pwa_distance(rx, tx, ref, p) for p in paths]
    if model == "rm_image":
        return [rm_distance_image(rx, tx, angles_to_image(p, ref)) for p in paths]
    raise ValueError(
        f"unknown distance model {model!r}, expected constant, pwa or rm_image"
    )


def trace_array_pairs(
    scene: Scene,
    tx_points: np.ndarray,
    rx_points: np.ndarray,
    max_bounces: int = 2,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Re-trace every TX/RX element pair through the scene.

    tx_points is (N, 3) and rx_points (M, 3). Returns per-pair (gains,
    delays) arrays indexed [rx element][tx element], each pair's paths in
    trace_paths' order; tracing once and evaluating many frequencies
    amortizes the cost. A per-pair view of ``trace_pairs``.
    """
    tx = as_points(tx_points, "tx_points", 2)
    rx = as_points(rx_points, "rx_points", 2)
    traced = trace_pairs(scene, tx[None, :], rx[:, None], max_bounces)
    shape = (len(rx), len(tx))
    gains, delays = _in_path_order(traced, shape)
    routed = delays > 0.0
    return [
        [
            (gains[routed[:, m, n], m, n], delays[routed[:, m, n], m, n])
            for n in range(shape[1])
        ]
        for m in range(shape[0])
    ]


def mimo_from_traced_pairs(
    pair_params: list[list[tuple[np.ndarray, np.ndarray]]], f: float, f0: float
) -> np.ndarray:
    """(M, N) channel matrix at frequency f from the per-pair traced gains
    and delays of ``trace_array_pairs``."""
    h = np.zeros((len(pair_params), len(pair_params[0])), dtype=complex)
    for m, row in enumerate(pair_params):
        for n, (gains, delays) in enumerate(row):
            h[m, n] = phasor_sum(gains, delays, C_LIGHT * delays, f, f0)
    return h


def mimo_matrix(
    tx_points: np.ndarray,
    rx_points: np.ndarray,
    model: str,
    f: float,
    f0: float,
    *,
    paths: Sequence = (),
    ref: ReferencePair | None = None,
    scene: Scene | None = None,
    max_bounces: int = 2,
) -> np.ndarray:
    """(M, N) channel matrix at frequency f, indexed [rx][tx], for N
    transmit points (N, 3) and M receive points (M, 3), under one of the
    extrapolation models or by re-tracing.

    The extrapolation models require the fitted path list and the reference
    pair; the exhaustive model requires the scene instead.
    """
    return channel_evaluator(
        tx_points, rx_points, model, f0, paths=paths, ref=ref, scene=scene,
        max_bounces=max_bounces,
    )(f)


def _midpoint_grid(f0: float, bandwidth: float, n_freq: int) -> tuple[float, float, int]:
    """First frequency, step and count of the midpoints f0 - bandwidth/2 + (k + 1/2)
    step, step = bandwidth/n_freq, k = 0..n_freq-1, of the band's sub-bands."""
    n_freq = _at_least(n_freq, 1, "need at least one frequency sample")
    step = bandwidth / n_freq
    return f0 - bandwidth / 2.0 + 0.5 * step, step, n_freq


@dataclass(frozen=True, eq=False)
class _Evaluator:
    """What ``channel_evaluator`` returns: per-path terms of ``phasor_sum``."""

    gains: list
    delays: list
    distances: list
    f0: float

    def __call__(self, f: float) -> np.ndarray:
        return phasor_sum(self.gains, self.delays, self.distances, f, self.f0)

    def band(self, bandwidth: float, n_freq: int) -> Iterator[np.ndarray]:
        """Matrices at the band's midpoints (``_midpoint_grid``) in ascending
        order: per path two exponentials, then a rotor multiply per step."""
        start, step, n_freq = _midpoint_grid(self.f0, bandwidth, n_freq)
        paths = zip(self.gains, self.delays, self.distances)
        running = [phasor_sum([g], [tau], [d], start, self.f0) for g, tau, d in paths]
        rotors = [phasor_sum([1.0], [0.0], [d], step, self.f0) for d in self.distances]
        for _ in range(n_freq):
            yield sum(running)
            for phasor, rotor in zip(running, rotors):
                phasor *= rotor


def _traced(gains, delays, f0: float) -> _Evaluator:
    """The evaluator of traced paths, whose distances are c * delay."""
    return _Evaluator(gains, delays, [C_LIGHT * d for d in delays], f0)


def _fitted(rx, tx, paths, ref: ReferencePair, model: str, f0: float) -> _Evaluator:
    """The evaluator of fitted paths at broadcasting rx and tx points, their
    distances under model (``path_distances``)."""
    distances = path_distances(rx, tx, paths, ref, model)
    return _Evaluator([p.gain for p in paths], [p.delay for p in paths], distances, f0)


def channel_evaluator(
    tx_points: np.ndarray,
    rx_points: np.ndarray,
    model: str,
    f0: float,
    *,
    paths: Sequence = (),
    ref: ReferencePair | None = None,
    scene: Scene | None = None,
    max_bounces: int = 2,
) -> _Evaluator:
    """Frequency -> (M, N) matrix ``at(f)`` for the models of ``mimo_matrix``;
    ``at.band(B, n)`` yields the n midpoint matrices of the band B around f0.

    The element pairs are re-traced, or the modeled element distances
    computed, once; each call only synthesizes the matrix at its frequency.
    """
    if model not in MODELS:
        raise ValueError(f"unknown channel model {model!r}, expected one of {MODELS}")
    tx = as_points(tx_points, "tx_points", 2)
    rx = as_points(rx_points, "rx_points", 2)
    if model == "exhaustive":
        _require(scene is not None, "exhaustive model requires a scene")
        traced = trace_pairs(scene, tx[None, :], rx[:, None], max_bounces)
        # no pair has a path: one zero-gain term keeps the matrix shape
        gains = [g for _, g, _ in traced] or [np.zeros((len(rx), len(tx)))]
        return _traced(gains, [d for _, _, d in traced] or [0.0], f0)
    _require(len(paths) > 0, f"{model} model requires a non-empty path list")
    _require(ref is not None, f"{model} model requires the reference pair")
    return _fitted(rx[:, None], tx[None, :], paths, ref, model, f0)


@dataclass(frozen=True, eq=False)
class _Core:
    """What ``plane_wave_core`` returns: the factors of H(f) = A diag(c) B^T."""

    rx_terms: np.ndarray  # (M, P), alpha_p at each receive element
    tx_terms: np.ndarray  # (N, P), beta_p at each transmit element
    gains: np.ndarray  # (P,)
    delays: np.ndarray  # (P,)
    f0: float

    def __call__(self, f: float | np.ndarray) -> np.ndarray:
        """The core at frequency f; for an array of frequencies, a stack of
        cores with the frequency axes first."""
        f = np.asarray(f, dtype=float)[..., None, None]
        a = phasor_sum([1.0], [0.0], [self.rx_terms], f, self.f0)
        b = phasor_sum([1.0], [0.0], [self.tx_terms], f, self.f0)
        c = phasor_sum([self.gains], [self.delays], [C_LIGHT * self.delays], f, self.f0)
        r_b = np.linalg.qr(b, mode="r")
        return (np.linalg.qr(a, mode="r") * c) @ np.swapaxes(r_b, -1, -2)

    def band(self, bandwidth: float, n_freq: int) -> Iterator[np.ndarray]:
        """Cores at the band's midpoints (``_midpoint_grid``) in ascending
        order, computed as one stack."""
        start, step, n_freq = _midpoint_grid(self.f0, bandwidth, n_freq)
        return iter(self(start + step * np.arange(n_freq)))


def plane_wave_core(
    tx_points: np.ndarray,
    rx_points: np.ndarray,
    model: str,
    f0: float,
    *,
    paths: Sequence[PwaPath],
    ref: ReferencePair,
) -> _Core:
    """Frequency -> core ``at(f)`` of a ``constant`` or ``pwa`` channel, a
    (min(M, P), min(N, P)) matrix for P paths whose singular values are the
    nonzero singular values of ``channel_evaluator(...)(f)``; ``at.band(B, n)``
    yields the n cores at the midpoints of the band B around f0.

    Path p's plane-wave distance is c tau_p + alpha_p(rx) + beta_p(tx) (zero
    alpha and beta for ``constant``), so H(f) = A diag(c) B^T with A[:, p] =
    exp(-2 pi j f alpha_p / c), B[:, p] = exp(-2 pi j f beta_p / c) and c_p =
    g_p exp(2 pi j tau_p (f0 - f)). The core is R_A diag(c) R_B^T, from the
    triangular factors of A = Q_A R_A and B = Q_B R_B, whose Q factors have
    orthonormal columns and so leave the singular values unchanged.
    """
    _require(model in PLANE_WAVE_MODELS, f"no plane-wave core for model {model!r}")
    _require(len(paths) > 0, f"{model} model requires a non-empty path list")
    tx = as_points(tx_points, "tx_points", 2)
    rx = as_points(rx_points, "rx_points", 2)
    if model == "pwa":
        alphas, betas = zip(*(_pwa_terms(rx, tx, ref, p) for p in paths))
        rx_terms, tx_terms = np.column_stack(alphas), np.column_stack(betas)
    else:
        rx_terms, tx_terms = np.zeros((len(rx), len(paths))), np.zeros((len(tx), len(paths)))
    gains = np.array([p.gain for p in paths], dtype=complex)
    delays = np.array([p.delay for p in paths])
    return _Core(rx_terms, tx_terms, gains, delays, f0)
