"""3-D geometry primitives: axis rotations, the z mirror, direction
angles and the Euler factorization used by the reflection path model.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3). All angles
are radians; angle-valued results are wrapped to (-pi, pi].
"""

from __future__ import annotations

import contextlib
import math
import numbers
import operator

import numpy as np

__all__ = [
    "rotation_matrix",
    "spherical_dir",
    "unit",
    "wrap_angle",
    "z_reflection",
]

# Below this, a direction is considered numerically parallel to the z axis and
# the azimuth of the gimbal-locked frame is pinned to 0.
_POLE_EPS = 1e-9


def wrap_angle(angle: float) -> float:
    """Wrap an angle to the interval (-pi, pi]."""
    a = math.remainder(float(angle), 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    return a


def unit(v: np.ndarray) -> np.ndarray:
    """Return v scaled to unit length; rejects (near-)zero and non-finite input."""
    v = np.asarray(v, dtype=float)
    n = math.sqrt(v.dot(v))
    if not 1e-15 <= n < math.inf:  # a NaN norm fails both comparisons
        raise ValueError("cannot normalize a zero or non-finite vector")
    return v / n


def _unit3(v: np.ndarray) -> tuple[float, float, float]:
    """unit(v) of a numpy 3-vector, as floats."""
    n = math.sqrt(v.dot(v))
    if not 1e-15 <= n < math.inf:
        raise ValueError("cannot normalize a zero or non-finite vector")
    x, y, z = v.tolist()
    return x / n, y / n, z / n


# The shapes as_points takes, by its ndim: one point, an antenna array, or
# any array of points.
_POINT_SHAPES = {1: "(3,)", 2: "(K, 3) with K >= 1", None: "(..., 3) with at least one point"}

# A point's coordinates are under this magnitude, in meters, so that the
# squared distance of two points, and so every distance and phase, stays in
# the float range.
_REACH = 1e150


def as_points(points, name: str, ndim: int | None) -> np.ndarray:
    """points as a float array of shape (..., 3) that holds at least one
    point, all finite and under _REACH in magnitude, with ndim axes: 1 for
    one point, 2 for an antenna array (K, 3), None for any number. The one
    check of a point; a ValueError names the argument otherwise."""
    pts = np.asarray(points, dtype=float)
    if pts.shape[-1:] != (3,) or pts.size == 0 or ndim not in (None, pts.ndim):
        raise ValueError(f"{name} must have shape {_POINT_SHAPES[ndim]}, got {pts.shape}")
    if not abs(pts).max() < _REACH:  # a NaN maximum fails the comparison
        raise ValueError(f"{name} must be finite, each coordinate under {_REACH:g} m")
    return pts


def _record(cls, *values):
    """A frozen dataclass cls, its fields set in order to values unchecked, for values
    built from checked ones, as __init__ does."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(obj, name, value)
    return obj


def _at_least(value, least: int, message: str) -> int:
    """value as an int; ValueError(f"{message}, got {value!r}") unless
    ``operator.index`` takes it (an int or numpy integer, not a float) and it
    is at least least; never for a bool, which Python's index takes as 0 or 1."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least or isinstance(value, bool):
        raise ValueError(f"{message}, got {value!r}")
    return count


def _parity(value, message: str) -> int:
    """_at_least(value, -1, message), which takes no bool or float, if it is -1 or +1."""
    if _at_least(value, -1, message) not in (-1, 1):
        raise ValueError(f"{message}, got {value!r}")
    return int(value)


def _real(
    value, message: str, least: float = -math.inf, above: float = -math.inf,
    below: float = math.inf,
) -> float:
    """value as a float; ValueError(message + repr(value)) unless it is a
    numbers.Real and not a bool (numpy's is no numbers.Real), finite (an int
    past the float range is not), >= least, > above and < below. The one
    check of a real-valued argument."""
    real = math.nan
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            real = float(value)
        except OverflowError:
            real = math.inf
    if not (math.isfinite(real) and real >= least and real > above and real < below):
        raise ValueError(message + repr(value))
    return real


def _complex(value, message: str) -> complex:
    """value as a complex; ValueError(message + repr(value)) unless it is a
    numbers.Complex and not a bool whose parts _real takes."""
    if isinstance(value, numbers.Complex) and not isinstance(value, bool):
        with contextlib.suppress(ValueError):
            return complex(_real(value.real, message), _real(value.imag, message))
    raise ValueError(message + repr(value))


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """Right-handed rotation matrix about a coordinate axis ("x", "y" or "z")."""
    c = math.cos(angle)
    s = math.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == "z":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"unknown axis {axis!r}, expected 'x', 'y' or 'z'")


def z_reflection(s: int) -> np.ndarray:
    """diag(1, 1, s): identity for s = +1, mirror through the x-y plane for s = -1."""
    s = _parity(s, "reflection parity must be -1 or +1")
    return np.diag([1.0, 1.0, float(s)])


def _det3(r0, r1, r2) -> float:
    """Determinant of the 3x3 matrix with rows r0, r1, r2 (float triples)."""
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def _orthogonal(m0, m1, m2) -> bool:
    """M^T M = I within 1e-9 entrywise, M of rows m0, m1, m2 (float triples); a NaN fails."""
    return all(
        abs(m0[i] * m0[j] + m1[i] * m1[j] + m2[i] * m2[j] - (i == j)) <= 1e-9
        for i in range(3) for j in range(i, 3)
    )


def _euler_factor(m0, m1, m2) -> tuple[float, float, float]:
    """Factor the rotation M with rows m0, m1, m2 (float triples) as
    M = R_x(gamma) @ R_y(theta) @ R_z(-phi).

    Returns (gamma, theta, phi) with theta in [-pi/2, pi/2] and gamma, phi in
    (-pi, pi]. Near gimbal lock (|cos theta| < 1e-9) the split between gamma
    and phi is not unique and the canonical solution with gamma = 0 is
    returned. Raises ValueError when M is not a proper rotation.
    """
    if not _orthogonal(m0, m1, m2):
        raise ValueError("matrix is not orthogonal")
    if _det3(m0, m1, m2) < 0.0:
        raise ValueError("matrix has determinant -1, not a proper rotation")

    theta = math.asin(max(-1.0, min(1.0, m0[2])))
    if math.cos(theta) < _POLE_EPS:
        # First row is +-e_z: gamma and phi act about the same axis.
        gamma = 0.0
        phi = math.atan2(-m1[0], m1[1])
    else:
        phi = math.atan2(m0[1], m0[0])
        gamma = math.atan2(-m1[2], m2[2])
    return wrap_angle(gamma), theta, wrap_angle(phi)


def spherical_dir(azimuth: float, elevation: float) -> np.ndarray:
    """Unit direction (cos az cos el, sin az cos el, sin el)."""
    ca = math.cos(azimuth)
    sa = math.sin(azimuth)
    ce = math.cos(elevation)
    se = math.sin(elevation)
    return np.array([ca * ce, sa * ce, se])


def _dir_angles(x: float, y: float, z: float) -> tuple[float, float]:
    """(azimuth, elevation) of the unit vector (x, y, z); inverse of
    spherical_dir. At the poles the azimuth is undefined and 0 is returned."""
    elevation = math.asin(max(-1.0, min(1.0, z)))
    if math.hypot(x, y) < _POLE_EPS:
        return 0.0, elevation
    return wrap_angle(math.atan2(y, x)), elevation
