"""Multipath distance models around a reference TX/RX pair.

Three ways to evaluate the propagation distance of one path when the antennas
move away from the reference positions:

* ``los_distance``      exact straight-line distance (line of sight only),
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
    dir_to_angles,
    euler_factor_so3,
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
    "los_distance",
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
        if float(np.linalg.norm(rx - tx)) < 1e-12:
            raise ValueError("reference TX and RX positions coincide")
        object.__setattr__(self, "tx_ref", tx)
        object.__setattr__(self, "rx_ref", rx)

    def matches(self, tx: np.ndarray, rx: np.ndarray) -> bool:
        """True when tx and rx are within 1e-9 * max(1, |rx_ref - tx_ref|) of it."""
        tol = 1e-9 * max(1.0, float(np.linalg.norm(self.rx_ref - self.tx_ref)))
        return (
            float(np.linalg.norm(tx - self.tx_ref)) <= tol
            and float(np.linalg.norm(rx - self.rx_ref)) <= tol
        )


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
        if float(np.max(np.abs(u.T @ u - np.eye(3)))) > 1e-9:
            raise ValueError("U must be orthogonal")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "g", _vec3(self.g, "g"))


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


def los_distance(rx: np.ndarray, tx: np.ndarray) -> float:
    """Straight-line distance between transmitter and receiver."""
    return float(np.linalg.norm(_vec3(rx, "rx") - _vec3(tx, "tx")))


def align_rotation(azimuth: float, elevation: float) -> np.ndarray:
    """Rotation R_y(el) @ R_z(-az) mapping the direction (az, el) onto +x."""
    return rotation_matrix("y", elevation) @ rotation_matrix("z", -azimuth)


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
    u_r = spherical_dir(path.aoa_az, path.aoa_el)
    u_t = spherical_dir(path.aod_az, path.aod_el)
    alpha = (ref.rx_ref - _points(rx, "rx")) @ u_r
    beta = (ref.tx_ref - _points(tx, "tx")) @ u_t
    return C_LIGHT * path.delay + alpha + beta


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
    d0 = ref.rx_ref - img.U @ ref.tx_ref - img.g
    dist = float(np.linalg.norm(d0))
    if dist < 1e-12:
        raise ValueError("transmitter image coincides with the reference receiver")
    aoa_az, aoa_el = dir_to_angles(-d0 / dist)
    rot_rx = align_rotation(aoa_az, aoa_el)
    w = -rot_rx @ img.U
    det_w = float(np.linalg.det(w))
    s = int(round(det_w))
    if s not in (-1, 1) or abs(det_w - s) > 1e-9:
        raise ValueError(f"mirror chain determinant {det_w} is not +-1")
    roll, aod_el, aod_az = euler_factor_so3(z_reflection(s) @ w)
    return RmPath(
        gain=gain,
        delay=dist / C_LIGHT,
        aoa_az=aoa_az,
        aoa_el=aoa_el,
        aod_az=aod_az,
        aod_el=aod_el,
        roll=roll,
        s=s,
    )


def angles_to_image(path: RmPath, ref: ReferencePair) -> RmImage:
    """Convert the angle form back into the matrix form (U, g)."""
    rot_rx = align_rotation(path.aoa_az, path.aoa_el)
    u = -rot_rx.T @ departure_mirror(path)
    d0 = -C_LIGHT * path.delay * spherical_dir(path.aoa_az, path.aoa_el)
    g = ref.rx_ref - u @ ref.tx_ref - d0
    return RmImage(U=u, g=g)
