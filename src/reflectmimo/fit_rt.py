"""Reflection-model extraction from explicit ray routes.

Each interior bend of a route determines the mirror plane that produced it
(normal along the change of the unit step direction); composing the per-bend
Householder mirrors yields the orthogonal matrix U and offset g such that
|rx - U tx - g| reproduces the route length exactly for any endpoints that
keep the same reflection sequence.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .geometry import householder
from .paths import C_LIGHT, ReferencePair, RmImage, RmPath, image_to_angles
from .tracer import Route, TracedPath

__all__ = ["fit_from_route", "fit_rm_rt"]

# Bends sharper than this (in unit-step difference) are required; straighter
# ones leave the mirror normal numerically undetermined.
_MIN_BEND = 1e-12


def fit_from_route(route: Route) -> RmImage:
    """Mirror-image parameters (U, g) of one route.

    A direct route (no interactions) yields the identity image. Raises
    ValueError on degenerate routes: repeated vertices or straight-through
    interactions, whose mirror normal is undefined.
    """
    verts = np.asarray(route.vertices, dtype=float)
    steps = np.diff(verts, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    if np.any(lengths < 1e-12):
        raise ValueError("route has coincident consecutive vertices")
    v = steps / lengths[:, None]

    u_mat = np.eye(3)
    g = np.zeros(3)
    for k in range(len(v) - 1):
        bend = v[k + 1] - v[k]
        bend_norm = float(np.linalg.norm(bend))
        if bend_norm < _MIN_BEND:
            raise ValueError(
                f"interaction {k} is a straight pass-through, mirror normal undefined"
            )
        n = bend / bend_norm
        b = float(n @ verts[k + 1])
        mirror = householder(n)
        u_mat = mirror @ u_mat
        g = 2.0 * b * n + mirror @ g
    return RmImage(U=u_mat, g=g)


def fit_rm_rt(path: TracedPath, ref: ReferencePair) -> RmPath:
    """Angle-form reflection parameters of a traced path at its reference.

    Copies the traced gain and delay and checks that the image distance at
    the reference reproduces the traced delay.
    """
    verts = path.route.vertices
    if not ref.matches(verts[0], verts[-1]):
        raise ValueError("route endpoints do not match the reference pair")
    img = fit_from_route(path.route)
    rm = image_to_angles(img, ref, gain=path.gain)
    if abs(rm.delay - path.delay) * C_LIGHT > 1e-9 * max(1.0, C_LIGHT * path.delay):
        raise ValueError("image distance disagrees with the traced path length")
    return dataclasses.replace(rm, delay=path.delay)
