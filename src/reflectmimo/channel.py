"""MIMO channel matrices from extrapolated or re-traced path sets.

An antenna array is its element positions, a float (K, 3) array (``upa``
builds one), and a channel matrix is a complex (M, N) array, indexed
[rx element][tx element], for M receive and N transmit elements.

Every channel value is one phasor sum, ``phasor_sum``: path p contributes
``gain_p * exp(j 2 pi (delay_p * f0 - f * d_p / c))``, where d_p is the
path's propagation distance between the two antennas. ``path_distances``
gives d_p under one of the extrapolation models, for any broadcastable
arrays of receiver and transmitter points:

* ``constant``    d = c * delay_ref (element-independent),
* ``pwa``         first-order plane-wave extrapolation,
* ``rm_image``    reflection model, matrix form (exact for specular paths).

The ``exhaustive`` model instead re-traces every element pair through the
scene with ``tracer.trace_pairs``, one facet sequence over all pairs at a
time; each traced sequence is one term of the same ``phasor_sum``, with
(M, N) gain and delay arrays (zero where a pair has no such path) and
d = c * delay.

Elements are isotropic: no per-element pattern weighting is applied.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .geometry import as_points, rotation_matrix
from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmPath,
    angles_to_image,
    pwa_distance,
    rm_distance_image,
)
from .tracer import Scene, trace_pairs

__all__ = [
    "MODELS",
    "channel_evaluator",
    "mimo_from_traced_pairs",
    "mimo_matrix",
    "path_distances",
    "phasor_sum",
    "trace_array_pairs",
    "upa",
]

MODELS = ("constant", "pwa", "rm_image", "exhaustive")


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
    if rows < 1 or cols < 1:
        raise ValueError("array must have at least one row and one column")
    if spacing <= 0.0:
        raise ValueError("element spacing must be positive")
    ys = (np.arange(cols) - (cols - 1) / 2.0) * spacing
    zs = (np.arange(rows) - (rows - 1) / 2.0) * spacing
    yy, zz = np.meshgrid(ys, zs)
    local = np.column_stack(
        [np.zeros(rows * cols), yy.ravel(), zz.ravel()]
    )
    rot = rotation_matrix("z", azimuth_rotation)
    return np.asarray(center, dtype=float) + local @ rot.T


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
    they broadcast, and the paths are accumulated one at a time into one
    array of that shape. The reference delay anchors the phase at the
    carrier f0. An empty path list gives 0j.
    """
    terms = (
        g * np.exp(2j * math.pi * (tau * f0 - f * d / C_LIGHT))
        for g, tau, d in zip(gains, delays, distances)
    )
    total = next(terms, 0j)
    for term in terms:
        total += term
    return total


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
    traced = trace_pairs(scene, tx_points, rx_points, max_bounces)
    shape = (len(rx_points), len(tx_points))
    gains = np.array([g for _, g, _ in traced], dtype=complex).reshape(-1, *shape)
    delays = np.array([d for _, _, d in traced], dtype=float).reshape(-1, *shape)
    # trace_paths' order: descending gain magnitude, then delay (stable)
    order = np.lexsort((delays, -np.abs(gains)), axis=0)
    gains = np.take_along_axis(gains, order, axis=0)
    delays = np.take_along_axis(delays, order, axis=0)
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
) -> Callable[[float], np.ndarray]:
    """Frequency -> (M, N) matrix closure for the models of ``mimo_matrix``.

    The element pairs are re-traced, or the modeled element distances
    computed, once; each call only synthesizes the matrix at its frequency.
    """
    if model not in MODELS:
        raise ValueError(f"unknown channel model {model!r}, expected one of {MODELS}")
    tx = as_points(tx_points, "tx_points")
    rx = as_points(rx_points, "rx_points")
    if model == "exhaustive":
        _require(scene is not None, "exhaustive model requires a scene")
        traced = trace_pairs(scene, tx, rx, max_bounces)
        if not traced:
            return lambda f: np.zeros((len(rx), len(tx)), dtype=complex)
        gains = [g for _, g, _ in traced]
        delays = [d for _, _, d in traced]
        distances = [C_LIGHT * d for d in delays]
    else:
        _require(len(paths) > 0, f"{model} model requires a non-empty path list")
        _require(ref is not None, f"{model} model requires the reference pair")
        distances = path_distances(rx[:, None], tx[None, :], paths, ref, model)
        gains = [p.gain for p in paths]
        delays = [p.delay for p in paths]
    return lambda f: phasor_sum(gains, delays, distances, f, f0)
