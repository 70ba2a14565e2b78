"""Procedural rich room for the ``fit_rich`` workload, and a path-count oracle.

The demo scenes have two facets, so facet-sequence enumeration and the
per-segment occlusion tests never dominate there. This room has 20: six
inward-facing walls of a box plus 14 one-sided panels at random positions and
orientations, traced to three bounces (7,620 candidate sequences per pair).
Everything is drawn from the seed alone.

``oracle_delays`` re-derives the valid specular paths of one pair with an
independent, batched numpy form of the image method (all sequences of one
length at once). It is the reference for the path count and delays of each
reference pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

import reflectmimo as rm

ROOM = (12.0, 9.0, 3.5)  # box extent along x, y, z in metres
N_PANELS = 14
MAX_BOUNCES = 3
CARRIER_HZ = 140e9
MIN_SEPARATION = 3.0  # metres between TX and RX of a reference pair
DISPLACEMENTS = (0.01, 0.02)  # metres, the two displaced pairs fed to fit_rm_dp
# Segment-parameter slack of the tracer: an intersection must fall strictly
# inside a segment, not on its own endpoints.
_T_EPS = 1e-9


@dataclass(frozen=True)
class RichInput:
    """One unit of work: a room, a reference pair and two displaced pairs."""

    room: int
    tx: np.ndarray
    rx: np.ndarray
    displaced: tuple[tuple[np.ndarray, np.ndarray], ...]


def make_room(seed: int, index: int = 0) -> rm.Scene:
    """Box room with inward-facing walls plus random one-sided panels."""
    rng = np.random.default_rng([seed, index, 1])
    extent = np.array(ROOM)
    half = extent / 2.0
    facets = []
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        for side in (0.0, 1.0):
            centre = half.copy()
            centre[k] = side * extent[k]
            u, v = np.eye(3)[i], np.eye(3)[j]  # u x v = +e_k faces the room
            hu, hv = half[i], half[j]
            if side:  # the far wall faces -e_k
                u, v, hu, hv = v, u, hv, hu
            facets.append(rm.Facet(center=centre, axis_u=u, axis_v=v, half_u=hu, half_v=hv))
    for _ in range(N_PANELS):
        centre = rng.uniform([1.0, 1.0, 0.5], extent - [1.0, 1.0, 0.5])
        facets.append(
            rm.make_facet(
                centre,
                rng.standard_normal(3),
                half_u=float(rng.uniform(0.3, 0.9)),
                half_v=float(rng.uniform(0.3, 0.9)),
            )
        )
    return rm.Scene(facets=tuple(facets), carrier_freq=CARRIER_HZ)


def inputs(seed: int, rooms: int):
    """Endless reference pairs inside the rooms, taking the rooms in turn."""
    rng = np.random.default_rng([seed, 2])
    lo = np.full(3, 0.5)
    hi = np.array(ROOM) - 0.5
    count = 0
    while True:
        tx, rx = rng.uniform(lo, hi), rng.uniform(lo, hi)
        if np.linalg.norm(rx - tx) < MIN_SEPARATION:
            continue
        displaced = tuple(
            (tx + d * _unit(rng), rx + d * _unit(rng)) for d in DISPLACEMENTS
        )
        yield RichInput(room=count % rooms, tx=tx, rx=rx, displaced=displaced)
        count += 1


def _unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _facet_arrays(scene: rm.Scene):
    fs = scene.facets
    normal = np.array([f.normal for f in fs])
    return (
        normal,
        np.array([f.intercept for f in fs]),
        np.array([f.center for f in fs]),
        np.array([f.axis_u for f in fs]),
        np.array([f.axis_v for f in fs]),
        np.array([np.inf if f.half_u is None else f.half_u for f in fs]),
        np.array([np.inf if f.half_v is None else f.half_v for f in fs]),
        np.array([f.two_sided for f in fs]),
    )


def _inside(hit, centre, axis_u, axis_v, half_u, half_v):
    rel = hit - centre
    return (np.abs(np.sum(rel * axis_u, axis=-1)) <= half_u + _T_EPS) & (
        np.abs(np.sum(rel * axis_v, axis=-1)) <= half_v + _T_EPS
    )


def _blocked(arrays, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per row, whether the open segment p -> q crosses any facet."""
    normal, intercept, centre, axis_u, axis_v, half_u, half_v, _ = arrays
    step = q - p
    denom = step @ normal.T
    t = (intercept - p @ normal.T) / denom
    hit = p[:, None, :] + t[..., None] * step[:, None, :]
    crosses = (denom != 0.0) & (t > _T_EPS) & (t < 1.0 - _T_EPS)
    return np.any(crosses & _inside(hit, centre, axis_u, axis_v, half_u, half_v), axis=1)


def oracle_delays(scene: rm.Scene, tx, rx, max_bounces: int) -> np.ndarray:
    """Sorted delays of every valid specular path between tx and rx."""
    arrays = _facet_arrays(scene)
    normal, intercept, centre, axis_u, axis_v, half_u, half_v, two_sided = arrays
    tx = np.asarray(tx, dtype=float)[None, :]
    rx = np.asarray(rx, dtype=float)[None, :]
    lengths = []
    with np.errstate(divide="ignore", invalid="ignore"):
        los = float(np.linalg.norm(rx - tx))
        if los > 1e-12 and not _blocked(arrays, tx, rx)[0]:
            lengths.append(np.array([los]))
        for bounces in range(1, max_bounces + 1):
            seqs = np.array(
                [
                    s
                    for s in itertools.product(range(len(scene.facets)), repeat=bounces)
                    if all(a != b for a, b in zip(s, s[1:]))
                ]
            )
            images = [None] * bounces
            img = np.repeat(rx, len(seqs), axis=0)
            for k in reversed(range(bounces)):
                n = normal[seqs[:, k]]
                img = img - 2.0 * (np.sum(n * img, axis=1) - intercept[seqs[:, k]])[:, None] * n
                images[k] = img
            ok = np.ones(len(seqs), dtype=bool)
            vertices = [np.repeat(tx, len(seqs), axis=0)]
            for k in range(bounces):
                f = seqs[:, k]
                p = vertices[-1]
                step = images[k] - p
                denom = np.sum(normal[f] * step, axis=1)
                t = (intercept[f] - np.sum(normal[f] * p, axis=1)) / denom
                hit = p + t[:, None] * step
                ok &= (denom != 0.0) & (t > _T_EPS) & (t < 1.0 - _T_EPS)
                ok &= _inside(hit, centre[f], axis_u[f], axis_v[f], half_u[f], half_v[f])
                ok &= two_sided[f] | (denom < 0.0)
                vertices.append(hit)
            vertices.append(np.repeat(rx, len(seqs), axis=0))
            vertices = [v[ok] for v in vertices]
            clear = np.ones(int(np.sum(ok)), dtype=bool)
            total = np.zeros(clear.size)
            for a, b in zip(vertices[:-1], vertices[1:]):
                clear &= ~_blocked(arrays, a, b)
                total += np.linalg.norm(b - a, axis=1)
            lengths.append(total[clear])
    return np.sort(np.concatenate(lengths)) / rm.C_LIGHT
