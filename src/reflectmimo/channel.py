"""MIMO channel matrices from extrapolated or re-traced path sets.

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
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import rotation_matrix
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
    "ArrayGeometry",
    "MODELS",
    "MimoMatrix",
    "channel_evaluator",
    "mimo_from_traced_pairs",
    "mimo_matrix",
    "path_distances",
    "phasor_sum",
    "trace_array_pairs",
    "upa",
]

MODELS = ("constant", "pwa", "rm_image", "exhaustive")


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Antenna element positions with their centroid."""

    element_positions: np.ndarray
    center: np.ndarray

    def __post_init__(self) -> None:
        pos = np.asarray(self.element_positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("element positions must have shape (N, 3), N >= 1")
        center = np.asarray(self.center, dtype=float)
        if float(np.max(np.abs(pos.mean(axis=0) - center))) > 1e-9:
            raise ValueError("center must be the centroid of the element positions")
        object.__setattr__(self, "element_positions", pos)
        object.__setattr__(self, "center", center)

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]


def upa(
    rows: int,
    cols: int,
    spacing: float,
    center: np.ndarray,
    azimuth_rotation: float = 0.0,
) -> ArrayGeometry:
    """Uniform planar array in a vertical plane.

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
    positions = np.asarray(center, dtype=float) + local @ rot.T
    return ArrayGeometry(element_positions=positions, center=center)


@dataclass(frozen=True, eq=False)
class MimoMatrix:
    """Channel matrix (RX elements x TX elements) at one frequency."""

    entries: np.ndarray
    frequency: float

    def __post_init__(self) -> None:
        e = np.asarray(self.entries, dtype=complex)
        if e.ndim != 2:
            raise ValueError("channel entries must form a 2-D matrix")
        object.__setattr__(self, "entries", e)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


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
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    max_bounces: int = 2,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Re-trace every TX/RX element pair through the scene.

    Returns per-pair (gains, delays) arrays indexed [rx element][tx element],
    each pair's paths in trace_paths' order; tracing once and evaluating
    many frequencies amortizes the cost. A per-pair view of ``trace_pairs``.
    """
    traced = trace_pairs(
        scene, tx_array.element_positions, rx_array.element_positions, max_bounces
    )
    shape = (rx_array.n_elements, tx_array.n_elements)
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
) -> MimoMatrix:
    """Channel matrix from per-pair traced gains/delays at frequency f."""
    h = np.zeros((len(pair_params), len(pair_params[0])), dtype=complex)
    for m, row in enumerate(pair_params):
        for n, (gains, delays) in enumerate(row):
            h[m, n] = phasor_sum(gains, delays, C_LIGHT * delays, f, f0)
    return MimoMatrix(entries=h, frequency=f)


def mimo_matrix(
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    model: str,
    f: float,
    f0: float,
    *,
    paths: Sequence = (),
    ref: ReferencePair | None = None,
    scene: Scene | None = None,
    max_bounces: int = 2,
) -> MimoMatrix:
    """Channel matrix under one of the extrapolation models or by re-tracing.

    The extrapolation models require the fitted path list and the reference
    pair; the exhaustive model requires the scene instead.
    """
    return channel_evaluator(
        tx_array, rx_array, model, f0, paths=paths, ref=ref, scene=scene,
        max_bounces=max_bounces,
    )(f)


def channel_evaluator(
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    model: str,
    f0: float,
    *,
    paths: Sequence = (),
    ref: ReferencePair | None = None,
    scene: Scene | None = None,
    max_bounces: int = 2,
) -> Callable[[float], MimoMatrix]:
    """Frequency -> matrix closure for the models of ``mimo_matrix``.

    The element pairs are re-traced, or the modeled element distances
    computed, once; each call only synthesizes the matrix at its frequency.
    """
    if model not in MODELS:
        raise ValueError(f"unknown channel model {model!r}, expected one of {MODELS}")
    if model == "exhaustive":
        _require(scene is not None, "exhaustive model requires a scene")
        traced = trace_pairs(
            scene, tx_array.element_positions, rx_array.element_positions, max_bounces
        )
        if not traced:
            shape = (rx_array.n_elements, tx_array.n_elements)
            return lambda f: MimoMatrix(
                entries=np.zeros(shape, dtype=complex), frequency=f
            )
        gains = [g for _, g, _ in traced]
        delays = [d for _, _, d in traced]
        distances = [C_LIGHT * d for d in delays]
    else:
        _require(len(paths) > 0, f"{model} model requires a non-empty path list")
        _require(ref is not None, f"{model} model requires the reference pair")
        distances = path_distances(
            rx_array.element_positions[:, None],
            tx_array.element_positions[None, :],
            paths,
            ref,
            model,
        )
        gains = [p.gain for p in paths]
        delays = [p.delay for p in paths]
    return lambda f: MimoMatrix(
        entries=phasor_sum(gains, delays, distances, f, f0), frequency=f
    )
