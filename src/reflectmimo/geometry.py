"""3-D geometry primitives: axis rotations, the z mirror, direction
angles and the Euler factorization used by the reflection path model.

Vectors are numpy arrays of shape (3,), matrices of shape (3, 3). All angles
are radians; angle-valued results are wrapped to (-pi, pi].
"""

from __future__ import annotations

import math
import operator

import numpy as np

__all__ = [
    "dir_to_angles",
    "euler_factor_so3",
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


def as_points(points, name: str) -> np.ndarray:
    """points as a float (K, 3) array of K >= 1 points, the form of an
    antenna array; a ValueError names the argument otherwise."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"{name} must have shape (K, 3) with K >= 1")
    return pts


def _at_least(value, least: int, message: str) -> int:
    """value as an int; ValueError(f"{message}, got {value!r}") unless
    ``operator.index`` takes it (an int or numpy integer, not a float) and it
    is at least least."""
    try:
        count = operator.index(value)
    except TypeError:
        count = least - 1
    if count < least:
        raise ValueError(f"{message}, got {value!r}")
    return count


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
    if s not in (-1, 1):
        raise ValueError(f"reflection parity must be -1 or +1, got {s!r}")
    return np.diag([1.0, 1.0, float(s)])


def _det3(r0, r1, r2) -> float:
    """Determinant of the 3x3 matrix with rows r0, r1, r2 (float triples)."""
    return (
        r0[0] * (r1[1] * r2[2] - r1[2] * r2[1])
        - r0[1] * (r1[0] * r2[2] - r1[2] * r2[0])
        + r0[2] * (r1[0] * r2[1] - r1[1] * r2[0])
    )


def euler_factor_so3(m: np.ndarray) -> tuple[float, float, float]:
    """Factor a rotation as M = R_x(gamma) @ R_y(theta) @ R_z(-phi).

    Returns (gamma, theta, phi) with theta in [-pi/2, pi/2] and gamma, phi in
    (-pi, pi]. Near gimbal lock (|cos theta| < 1e-9) the split between gamma
    and phi is not unique and the canonical solution with gamma = 0 is
    returned. Raises ValueError when M is not a proper rotation.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise ValueError("expected a 3x3 matrix")
    return _euler_factor(*m.tolist())


def _euler_factor(m0, m1, m2) -> tuple[float, float, float]:
    """euler_factor_so3 of the matrix with rows m0, m1, m2 (float triples)."""
    for i in range(3):
        for j in range(i, 3):
            dot = m0[i] * m0[j] + m1[i] * m1[j] + m2[i] * m2[j]
            if abs(dot - (1.0 if i == j else 0.0)) > 1e-9:
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


def dir_to_angles(u: np.ndarray) -> tuple[float, float]:
    """(azimuth, elevation) of a unit vector; inverse of spherical_dir.

    At the poles the azimuth is undefined and 0 is returned.
    """
    u = np.asarray(u, dtype=float)
    n = math.sqrt(u.dot(u))
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"direction must be unit length, got |u| = {n}")
    return _dir_angles(float(u[0]), float(u[1]), float(u[2]))


def _dir_angles(x: float, y: float, z: float) -> tuple[float, float]:
    """dir_to_angles of the unit vector (x, y, z)."""
    elevation = math.asin(max(-1.0, min(1.0, z)))
    if math.hypot(x, y) < _POLE_EPS:
        return 0.0, elevation
    return wrap_angle(math.atan2(y, x)), elevation
