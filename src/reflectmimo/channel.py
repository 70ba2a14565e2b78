"""MIMO channel matrices from extrapolated or re-traced path sets.

A channel entry for TX element n and RX element m sums the per-path phasors
``gain * exp(j 2 pi (delay_ref * f0 - f * d(m, n) / c))`` where d(m, n) is the
modeled propagation distance of the path between the two elements. The model
choices are:

* ``constant``    d = c * delay_ref (element-independent),
* ``pwa``         first-order plane-wave extrapolation,
* ``rm_image``    reflection model, matrix form,
* ``rm_angles``   reflection model, angle form (same distances as rm_image),
* ``exhaustive``  re-trace every element pair through the scene; gains and
                  delays are the per-pair traced ones, not extrapolated.

Elements are isotropic: no per-element pattern weighting is applied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import rotation_matrix, spherical_dir
from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmPath,
    align_rotation,
    angles_to_image,
    departure_mirror,
)
from .tracer import Scene, trace_paths

__all__ = [
    "ArrayGeometry",
    "MODELS",
    "MimoMatrix",
    "mimo_from_traced_pairs",
    "mimo_matrix",
    "scalar_channel",
    "trace_array_pairs",
    "upa",
]

MODELS = ("constant", "pwa", "rm_image", "rm_angles", "exhaustive")


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


def scalar_channel(
    terms: Sequence[tuple[complex, float, float]], f: float, f0: float
) -> complex:
    """Channel value at frequency f from (gain, reference delay, distance)
    triples; the reference delay anchors the phase at the carrier f0."""
    total = 0j
    for gain, tau_ref, dist in terms:
        total += gain * np.exp(2j * math.pi * (tau_ref * f0 - f * dist / C_LIGHT))
    return complex(total)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValueError(message)


def _path_distances(
    rx_pos: np.ndarray,
    tx_pos: np.ndarray,
    paths: Sequence[PwaPath | RmPath],
    ref: ReferencePair,
    model: str,
) -> list[np.ndarray]:
    """Modeled distance of each path, one (RX elements, TX elements) array per
    path; distances do not depend on frequency."""
    out = []
    for p in paths:
        if model == "constant":
            dist = np.full((rx_pos.shape[0], tx_pos.shape[0]), C_LIGHT * p.delay)
        elif model == "pwa":
            alpha = (ref.rx_ref - rx_pos) @ spherical_dir(p.aoa_az, p.aoa_el)
            beta = (ref.tx_ref - tx_pos) @ spherical_dir(p.aod_az, p.aod_el)
            dist = C_LIGHT * p.delay + alpha[:, None] + beta[None, :]
        elif model == "rm_image":
            img = angles_to_image(p, ref)
            mirrored = tx_pos @ img.U.T + img.g
            diff = rx_pos[:, None, :] - mirrored[None, :, :]
            dist = np.linalg.norm(diff, axis=2)
        else:
            a = (ref.rx_ref - rx_pos) @ align_rotation(p.aoa_az, p.aoa_el).T
            b = (ref.tx_ref - tx_pos) @ departure_mirror(p).T
            vec = a[:, None, :] + b[None, :, :]
            vec[..., 0] += C_LIGHT * p.delay
            dist = np.linalg.norm(vec, axis=2)
        out.append(dist)
    return out


def _phasor_sum(
    paths: Sequence[PwaPath | RmPath], distances: list[np.ndarray], f: float, f0: float
) -> np.ndarray:
    h = np.zeros(distances[0].shape, dtype=complex)
    for p, dist in zip(paths, distances):
        h += p.gain * np.exp(2j * math.pi * (p.delay * f0 - f * dist / C_LIGHT))
    return h


def trace_array_pairs(
    scene: Scene,
    tx_array: ArrayGeometry,
    rx_array: ArrayGeometry,
    max_bounces: int = 2,
) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Re-trace every TX/RX element pair through the scene.

    Returns per-pair (gains, delays) arrays indexed [rx element][tx element];
    tracing once and evaluating many frequencies amortizes the cost.
    """
    out = []
    for rx in rx_array.element_positions:
        row = []
        for tx in tx_array.element_positions:
            traced = trace_paths(scene, tx, rx, max_bounces)
            gains = np.array([p.gain for p in traced], dtype=complex)
            delays = np.array([p.delay for p in traced])
            row.append((gains, delays))
        out.append(row)
    return out


def mimo_from_traced_pairs(
    pair_params: list[list[tuple[np.ndarray, np.ndarray]]], f: float, f0: float
) -> MimoMatrix:
    """Channel matrix from per-pair traced gains/delays at frequency f."""
    n_rx = len(pair_params)
    n_tx = len(pair_params[0])
    h = np.zeros((n_rx, n_tx), dtype=complex)
    for m in range(n_rx):
        for n in range(n_tx):
            gains, delays = pair_params[m][n]
            if gains.size:
                h[m, n] = np.sum(gains * np.exp(-2j * math.pi * (f - f0) * delays))
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
        pairs = trace_array_pairs(scene, tx_array, rx_array, max_bounces)
        return lambda f: mimo_from_traced_pairs(pairs, f, f0)

    _require(len(paths) > 0, f"{model} model requires a non-empty path list")
    _require(ref is not None, f"{model} model requires the reference pair")
    distances = _path_distances(
        rx_array.element_positions, tx_array.element_positions, paths, ref, model
    )
    return lambda f: MimoMatrix(
        entries=_phasor_sum(paths, distances, f, f0), frequency=f
    )
