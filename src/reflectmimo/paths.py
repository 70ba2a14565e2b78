"""Multipath distance models around a reference TX/RX pair.

Two ways to evaluate the propagation distance of one path when the antennas
move away from the reference positions:

* ``pwa_distance``      first-order plane-wave extrapolation from the path's
                        arrival/departure directions (second-order error),
* ``rm_distance_image`` the reflection model: distance to a mirror image of
                        the transmitter, exact for any chain of planar
                        specular reflections.

A fitted path is the 8-parameter angle form ``RmPath`` (delay, four
arrival/departure angles, a transmitter roll angle and a +-1 mirror
parity). ``angles_to_image`` derives from it the matrix form (orthogonal
``U`` and offset ``g``, distance ``|rx - U tx - g|``) that is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import _REACH, _complex, _det3, _dir_angles, _euler_factor, _orthogonal, _parity
from .geometry import _real, as_points, rotation_matrix, spherical_dir, z_reflection

__all__ = [
    "C_LIGHT",
    "PwaPath",
    "ReferencePair",
    "RmImage",
    "RmPath",
    "align_rotation",
    "angles_to_image",
    "pwa_distance",
    "rm_distance_image",
]

C_LIGHT = 299_792_458.0  # speed of light, m/s (exact)

# A path's delay is under this, in seconds, so that its distance c * delay,
# the length of the mirror image's offset, is within a point's reach.
_MAX_DELAY = _REACH / C_LIGHT
_DELAY_MESSAGE = f"path delay must be positive and under {_MAX_DELAY:.3g} s, got "
_GAIN_MESSAGE = "path gain must be finite, got "


def _delay(value) -> float:
    """value as a float by _real's rule, in (0, _MAX_DELAY), which a traced length may pass."""
    return _real(value, _DELAY_MESSAGE, above=0.0, below=_MAX_DELAY)


@dataclass(frozen=True, eq=False, slots=True)
class ReferencePair:
    """Reference TX/RX positions that anchor all extrapolation models."""

    tx_ref: np.ndarray
    rx_ref: np.ndarray

    def __post_init__(self) -> None:
        tx = as_points(self.tx_ref, "tx_ref", 1)
        rx = as_points(self.rx_ref, "rx_ref", 1)
        if math.dist(tx, rx) < 1e-12:
            raise ValueError("reference TX and RX positions coincide")
        object.__setattr__(self, "tx_ref", tx)
        object.__setattr__(self, "rx_ref", rx)

    def matches(self, tx: np.ndarray, rx: np.ndarray) -> bool:
        """True when tx and rx are within 1e-9 * max(1, |rx_ref - tx_ref|) of it."""
        tx_ref, rx_ref = self.tx_ref.tolist(), self.rx_ref.tolist()
        tol = 1e-9 * max(1.0, math.dist(tx_ref, rx_ref))
        tx, rx = np.asarray(tx).tolist(), np.asarray(rx).tolist()
        return math.dist(tx, tx_ref) <= tol and math.dist(rx, rx_ref) <= tol


@dataclass(frozen=True, slots=True)
class PwaPath:
    """Plane-wave parameters of one path at the reference pair.

    gain is the complex path gain at the reference positions and carrier,
    delay the absolute propagation delay in seconds, and the four angles are
    the arrival (aoa) and departure (aod) azimuth/elevation in radians.
    Construction stores each field as the rule for its kind returns it
    (_complex, _delay, _real); the pipeline's paths skip it (_record).
    """

    gain: complex
    delay: float
    aoa_az: float
    aoa_el: float
    aod_az: float
    aod_el: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", _complex(self.gain, _GAIN_MESSAGE))
        object.__setattr__(self, "delay", _delay(self.delay))
        for name in ("aoa_az", "aoa_el", "aod_az", "aod_el"):
            value = _real(getattr(self, name), f"path {name} must be finite, got ")
            object.__setattr__(self, name, value)


@dataclass(frozen=True, eq=False, slots=True)
class RmImage:
    """Matrix form of the reflection model: mirror image U @ tx + g. Construction
    checks U orthogonal and g finite; TracedPath.image's facet images skip it (_record)."""

    U: np.ndarray
    g: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.U, dtype=float)
        if u.shape != (3, 3):
            raise ValueError("U must be a 3x3 matrix")
        if not _orthogonal(*u.tolist()):
            raise ValueError("U must be orthogonal")
        object.__setattr__(self, "U", u)
        object.__setattr__(self, "g", as_points(self.g, "g", 1))

    @classmethod
    def from_planes(cls, planes) -> RmImage:
        """Image of specular reflections off the planes n . x = b, (n, b) with
        unit n in the order the path meets them; none give the identity. Each
        mirrors the image so far, x -> x - 2 (n . x - b) n: U's columns by its
        linear part, g by all of it (_mirrored)."""
        planes = [(tuple(map(float, n)), b) for n, b in planes]
        for (nx, ny, nz), _ in planes:
            if not abs(math.sqrt(nx * nx + ny * ny + nz * nz) - 1.0) <= 1e-9:
                raise ValueError(f"mirror normal must be unit length, got {(nx, ny, nz)}")
        return cls(*_mirrored(planes))


def _mirrored(planes) -> tuple[np.ndarray, np.ndarray]:
    """from_planes' (U, g), n unit float triples; U F-ordered, so products round as before."""
    cols, g = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0)
    for (nx, ny, nz), b in planes:
        images = []
        for (x, y, z), off in zip((*cols, g), (0.0, 0.0, 0.0, b)):
            d = 2.0 * (nx * x + ny * y + nz * z - off)
            images.append((x - d * nx, y - d * ny, z - d * nz))
        *cols, g = images
    return np.array(cols).T, np.array(g)


@dataclass(frozen=True, slots=True)
class RmPath(PwaPath):
    """Angle form of the reflection model.

    Extends the plane-wave parameters with the transmitter roll angle about
    the departure direction and the +-1 parity of the accumulated mirror
    chain (s = -1 for a direct path, flipping sign with each reflection),
    stored as _real and _parity return them.
    """

    roll: float
    s: int

    def __post_init__(self) -> None:
        # slots=True remakes the class, which zero-argument super() cannot see
        PwaPath.__post_init__(self)
        object.__setattr__(self, "roll", _real(self.roll, "path roll must be finite, got "))
        object.__setattr__(self, "s", _parity(self.s, "mirror parity s must be -1 or +1"))


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
    alpha = (ref.rx_ref - as_points(rx, "rx", None)) @ u_r
    beta = (ref.tx_ref - as_points(tx, "tx", None)) @ u_t
    return alpha, beta


def rm_distance_image(
    rx: np.ndarray, tx: np.ndarray, img: RmImage
) -> float | np.ndarray:
    """Reflection-model distance |rx - U tx - g| (matrix form).

    rx and tx are points of shape (..., 3) whose leading axes broadcast
    against each other, as in pwa_distance; the transmitter images are
    formed before the broadcast, so N transmitters are mirrored once for
    any number of receivers. Two single points give a float. The difference
    is subtracted, squared and summed one coordinate at a time, in place and
    in np.linalg.norm's order: no (..., 3) array of the broadcast shape is
    formed.
    """
    mirrored = as_points(tx, "tx", None) @ img.U.T + img.g
    rx = as_points(rx, "rx", None)
    total = rx[..., 0] - mirrored[..., 0]
    total *= total
    diff = np.empty_like(total)
    for k in (1, 2):
        # filled, then subtracted: numpy buffers one broadcast operand, not two
        diff[...] = rx[..., k]
        diff -= mirrored[..., k]
        diff *= diff
        total += diff
    return np.sqrt(total)


def _image_angles(img: RmImage, ref: ReferencePair) -> tuple[float, tuple]:
    """The image distance and the RmPath fields that follow gain and delay,
    in order: (aoa_az, aoa_el, aod_az, aod_el, roll, s). On floats past the
    numpy products; ValueError when the image sits on the reference receiver."""
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
    """The matrix form (U, g) of the angle form at the reference pair."""
    rot_rx = align_rotation(path.aoa_az, path.aoa_el)
    mirror = z_reflection(path.s) @ rotation_matrix("x", path.roll)
    u = -rot_rx.T @ (mirror @ align_rotation(path.aod_az, path.aod_el))
    d0 = -C_LIGHT * path.delay * spherical_dir(path.aoa_az, path.aoa_el)
    g = ref.rx_ref - u @ ref.tx_ref - d0
    return RmImage(U=u, g=g)
