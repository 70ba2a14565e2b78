"""Multipath distance models around a reference TX/RX pair.

Two ways to evaluate the propagation distance of one path when the antennas
move away from the reference positions:

* ``pwa_distance``      first-order plane-wave extrapolation from the path's
                        arrival/departure directions (second-order error),
* ``rm_distance_*``     the reflection model: distance to a mirror image of
                        the transmitter, exact for any chain of planar
                        specular reflections.

The reflection model comes in two equivalent parametrizations: the matrix
form (orthogonal ``U`` and offset ``g``, distance ``|rx - U tx - g|``) and an
8-parameter angle form (delay, four arrival/departure angles, a transmitter
roll angle and a +-1 mirror parity). ``image_to_angles`` / ``angles_to_image``
convert between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import (
    _det3,
    _dir_angles,
    _euler_factor,
    rotation_matrix,
    spherical_dir,
    z_reflection,
)

__all__ = [
    "C_LIGHT",
    "PwaPath",
    "ReferencePair",
    "RmImage",
    "RmPath",
    "align_rotation",
    "angles_to_image",
    "departure_mirror",
    "image_to_angles",
    "pwa_distance",
    "rm_distance_angles",
    "rm_distance_image",
]

C_LIGHT = 299_792_458.0  # speed of light, m/s (exact)

_EX = np.array([1.0, 0.0, 0.0])


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    return v


def _points(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape[-1:] != (3,):
        raise ValueError(f"{name} must have shape (..., 3), got shape {v.shape}")
    return v


@dataclass(frozen=True, eq=False)
class ReferencePair:
    """Reference TX/RX positions that anchor all extrapolation models."""

    tx_ref: np.ndarray
    rx_ref: np.ndarray

    def __post_init__(self) -> None:
        tx = _vec3(self.tx_ref, "tx_ref")
        rx = _vec3(self.rx_ref, "rx_ref")
        span = math.dist(tx, rx)  # inf or nan, with no warning, if a point is not finite
        if not 1e-12 <= span < math.inf:
            what = "coincide" if span < 1e-12 else "are not finite"
            raise ValueError(f"reference TX and RX positions {what}")
        object.__setattr__(self, "tx_ref", tx)
        object.__setattr__(self, "rx_ref", rx)

    def matches(self, tx: np.ndarray, rx: np.ndarray) -> bool:
        """True when tx and rx are within 1e-9 * max(1, |rx_ref - tx_ref|) of it."""
        span, d_tx, d_rx = self.rx_ref - self.tx_ref, tx - self.tx_ref, rx - self.rx_ref
        tol = 1e-9 * max(1.0, math.sqrt(span.dot(span)))
        return math.sqrt(d_tx.dot(d_tx)) <= tol and math.sqrt(d_rx.dot(d_rx)) <= tol


@dataclass(frozen=True)
class PwaPath:
    """Plane-wave parameters of one path at the reference pair.

    gain is the complex path gain at the reference positions and carrier,
    delay the absolute propagation delay in seconds, and the four angles are
    the arrival (aoa) and departure (aod) azimuth/elevation in radians.
    """

    gain: complex
    delay: float
    aoa_az: float
    aoa_el: float
    aod_az: float
    aod_el: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.delay) and self.delay > 0.0):
            raise ValueError(f"path delay must be positive, got {self.delay}")


@dataclass(frozen=True, eq=False)
class RmImage:
    """Matrix form of the reflection model: mirror image U @ tx + g."""

    U: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.U, dtype=float)
        if u.shape != (3, 3):
            raise ValueError("U must be a 3x3 matrix")
        # U^T U = I within 1e-9 entrywise, from the columns' dot products
        (a, b, c), (d, e, f), (g, h, i) = u.tolist()
        gram = (
            a * a + d * d + g * g - 1.0,
            b * b + e * e + h * h - 1.0,
            c * c + f * f + i * i - 1.0,
            a * b + d * e + g * h,
            a * c + d * f + g * i,
            b * c + e * f + h * i,
        )
        if max(map(abs, gram)) > 1e-9:
            raise ValueError("U must be orthogonal")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "g", _vec3(self.g, "g"))

    @classmethod
    def from_planes(cls, planes) -> RmImage:
        """Image of specular reflections off the planes n . x = b, (n, b) with
        unit n in the order the path meets them; none give the identity. Each
        mirrors the image so far, x -> x - 2 (n . x - b) n: U's columns by its
        linear part, g by all of it."""
        cols, g = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0)
        for n, b in planes:
            nx, ny, nz = map(float, n)
            if abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) > 1e-9:
                raise ValueError(f"mirror normal must be unit length, got {n}")
            images = []
            for (x, y, z), off in zip((*cols, g), (0.0, 0.0, 0.0, b)):
                d = 2.0 * (nx * x + ny * y + nz * z - off)
                images.append((x - d * nx, y - d * ny, z - d * nz))
            *cols, g = images
        return cls(U=np.array(cols).T, g=np.array(g))


@dataclass(frozen=True)
class RmPath(PwaPath):
    """Angle form of the reflection model.

    Extends the plane-wave parameters with the transmitter roll angle about
    the departure direction and the +-1 parity of the accumulated mirror
    chain (s = -1 for a direct path, flipping sign with each reflection).
    """

    roll: float
    s: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.s not in (-1, 1):
            raise ValueError(f"mirror parity must be -1 or +1, got {self.s!r}")


def _align_rows(azimuth: float, elevation: float) -> tuple[tuple[float, ...], ...]:
    """Rows of align_rotation(azimuth, elevation) as float triples; the first
    is the unit direction (az, el).

    Each entry of the product is one product of the factors' entries, 0 or
    1; + 0.0 makes a zero entry +0.0, as the matrix product does.
    """
    ce, se = math.cos(elevation), math.sin(elevation)
    ca, sa = math.cos(-azimuth), math.sin(-azimuth)
    return (
        (ce * ca, ce * -sa + 0.0, se + 0.0),
        (sa + 0.0, ca, 0.0),
        (-se * ca + 0.0, -se * -sa + 0.0, ce),
    )


def align_rotation(azimuth: float, elevation: float) -> np.ndarray:
    """Rotation R_y(el) @ R_z(-az) mapping the direction (az, el) onto +x."""
    return np.array(_align_rows(azimuth, elevation))


def departure_mirror(path: RmPath) -> np.ndarray:
    """Orthogonal factor Q_z(s) R_x(roll) R_y(aod_el) R_z(-aod_az) acting on
    transmitter displacements in the angle-form distance."""
    return (
        z_reflection(path.s)
        @ rotation_matrix("x", path.roll)
        @ align_rotation(path.aod_az, path.aod_el)
    )


def pwa_distance(
    rx: np.ndarray, tx: np.ndarray, ref: ReferencePair, path: PwaPath
) -> float | np.ndarray:
    """First-order plane-wave distance estimate at displaced positions.

    Exact at the reference pair; the error grows with the square of the
    displacement of either endpoint. rx and tx are points of shape (..., 3)
    whose leading axes broadcast against each other (rx[:, None] and
    tx[None, :] give the (M, N) element-pair distances); two single points
    give a float.
    """
    alpha, beta = _pwa_terms(rx, tx, ref, path)
    return C_LIGHT * path.delay + alpha + beta


def _pwa_terms(
    rx: np.ndarray, tx: np.ndarray, ref: ReferencePair, path: PwaPath
) -> tuple[float | np.ndarray, float | np.ndarray]:
    """The receive and transmit terms of pwa_distance, apart: the receiver's
    displacement against the arrival direction and the transmitter's against
    the departure direction, of rx's and tx's leading shapes."""
    u_r = spherical_dir(path.aoa_az, path.aoa_el)
    u_t = spherical_dir(path.aod_az, path.aod_el)
    alpha = (ref.rx_ref - _points(rx, "rx")) @ u_r
    beta = (ref.tx_ref - _points(tx, "tx")) @ u_t
    return alpha, beta


def rm_distance_image(
    rx: np.ndarray, tx: np.ndarray, img: RmImage
) -> float | np.ndarray:
    """Reflection-model distance |rx - U tx - g| (matrix form).

    rx and tx are points of shape (..., 3) whose leading axes broadcast
    against each other, as in pwa_distance; the transmitter images are
    formed before the broadcast, so N transmitters are mirrored once for
    any number of receivers. Two single points give a float.
    """
    mirrored = _points(tx, "tx") @ img.U.T + img.g
    return np.linalg.norm(_points(rx, "rx") - mirrored, axis=-1)


def rm_distance_angles(
    rx: np.ndarray, tx: np.ndarray, ref: ReferencePair, path: RmPath
) -> float:
    """Reflection-model distance evaluated from the 8-parameter angle form.

    Equal (up to roundoff) to rm_distance_image with the converted image.
    """
    rot_rx = align_rotation(path.aoa_az, path.aoa_el)
    mir_tx = departure_mirror(path)
    d = C_LIGHT * path.delay * _EX
    d = d + rot_rx @ (ref.rx_ref - _vec3(rx, "rx"))
    d = d + mir_tx @ (ref.tx_ref - _vec3(tx, "tx"))
    return float(np.linalg.norm(d))


def image_to_angles(img: RmImage, ref: ReferencePair, gain: complex = 0j) -> RmPath:
    """Convert the matrix form (U, g) into the angle form at a reference pair.

    The arrival direction points from the reference receiver toward the
    transmitter image, the departure parameters follow from the Euler
    factorization of the residual rotation. Raises ValueError when the image
    coincides with the reference receiver (zero path length).
    """
    dist, angles = _image_angles(img, ref)
    return RmPath(gain, dist / C_LIGHT, *angles)


def _image_angles(img: RmImage, ref: ReferencePair) -> tuple[float, tuple]:
    """image_to_angles' image distance, and the RmPath fields that follow
    gain and delay, in order: (aoa_az, aoa_el, aod_az, aod_el, roll, s). On
    floats past the numpy products."""
    d0 = ref.rx_ref - img.U @ ref.tx_ref - img.g
    dist = math.sqrt(d0.dot(d0))
    if dist < 1e-12:
        raise ValueError("transmitter image coincides with the reference receiver")
    x, y, z = d0.tolist()
    aoa_az, aoa_el = _dir_angles(-x / dist, -y / dist, -z / dist)
    w0, w1, w2 = (-align_rotation(aoa_az, aoa_el) @ img.U).tolist()
    det_w = _det3(w0, w1, w2)
    s = int(round(det_w))
    if s not in (-1, 1) or abs(det_w - s) > 1e-9:
        raise ValueError(f"mirror chain determinant {det_w} is not +-1")
    # z_reflection(s) @ w, with +0.0 for a zero entry as in the matrix product
    roll, aod_el, aod_az = _euler_factor(w0, w1, [s * e + 0.0 for e in w2])
    return dist, (aoa_az, aoa_el, aod_az, aod_el, roll, s)


def angles_to_image(path: RmPath, ref: ReferencePair) -> RmImage:
    """Convert the angle form back into the matrix form (U, g)."""
    rot_rx = align_rotation(path.aoa_az, path.aoa_el)
    u = -rot_rx.T @ departure_mirror(path)
    d0 = -C_LIGHT * path.delay * spherical_dir(path.aoa_az, path.aoa_el)
    g = ref.rx_ref - u @ ref.tx_ref - d0
    return RmImage(U=u, g=g)
