"""Reflection-model extraction from explicit ray routes.

The mirror image (U, g) reproduces the route length as |rx - U tx - g| for
any endpoints that keep the reflection sequence: it composes the Householder
mirrors of the planes the route meets. A traced path names them by facet
(TracedPath.image); on a route loaded from an export, each interior bend
determines its plane, normal along the change of the unit step direction.
"""

from __future__ import annotations

import numpy as np

from .paths import C_LIGHT, ReferencePair, RmImage, RmPath, _image_angles
from .tracer import Route, TracedPath

__all__ = ["fit_from_route", "fit_rm_rt"]

# Bends sharper than this (in unit-step difference) are required; straighter
# ones leave the mirror normal numerically undetermined.
_MIN_BEND = 1e-12


def fit_from_route(route: Route) -> RmImage:
    """Mirror-image parameters (U, g) of one route.

    A direct route (no interactions) yields the identity image. Raises
    ValueError on degenerate routes: repeated vertices or straight-through
    interactions, whose mirror normal is undefined. (A Route's vertices are
    finite.)

    Each normal is read off unit steps between rounded vertices, so the
    image loses accuracy as 1 / the shortest leg: on generated rooms U is
    off the facet image by up to ~2.3e-12 where a leg is 0.9 mm long. A
    traced path's facet image (TracedPath.image) does not depend on legs.
    """
    verts = route.vertices
    steps = np.diff(verts, axis=0)
    lengths = np.linalg.norm(steps, axis=1)
    if np.any(lengths < 1e-12):
        raise ValueError("route has coincident consecutive vertices")
    v = steps / lengths[:, None]

    bends = np.diff(v, axis=0)
    bend_norms = np.linalg.norm(bends, axis=1)
    straight = np.flatnonzero(bend_norms < _MIN_BEND)
    if straight.size:
        k = straight[0]
        raise ValueError(f"interaction {k} is a straight pass-through, mirror normal undefined")
    normals = bends / bend_norms[:, None]
    return RmImage.from_planes(zip(normals, np.sum(normals * verts[1:-1], axis=1)))


def fit_rm_rt(path: TracedPath, ref: ReferencePair) -> RmPath:
    """Angle-form reflection parameters of a traced path at its reference.

    Copies the traced gain and delay; the image, path.image or without a
    scene fit_from_route's, must reproduce the delay at the reference.
    """
    verts = path.route.vertices
    if not ref.matches(verts[0], verts[-1]):
        raise ValueError("route endpoints do not match the reference pair")
    img = path.image
    if img is None:
        img = fit_from_route(path.route)
    dist, angles = _image_angles(img, ref)
    if abs(dist / C_LIGHT - path.delay) * C_LIGHT > 1e-9 * max(1.0, C_LIGHT * path.delay):
        raise ValueError("image distance disagrees with the traced path length")
    return RmPath(path.gain, path.delay, *angles)
