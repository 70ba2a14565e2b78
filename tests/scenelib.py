"""Shared scene generators and oracles for the test suite.

Scenes are built so that specular paths reliably exist: TX and RX sit near
the x axis at 50-160 m separation, reflectors are placed well off-axis (side
walls and an overhead panel) with mildly tilted normals so the recovered
roll angles are generic rather than axis-aligned special cases.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

from reflectmimo import (
    C_LIGHT,
    Facet,
    PairObservation,
    ReferencePair,
    Scene,
    TracedPath,
    make_facet,
    route_length,
    to_pwa,
    trace_paths,
    trace_sequence,
)


def observe(scene: Scene, tx, rx, max_bounces: int = 2):
    """Plane-wave observation of one TX/RX pair, plus the traced routes.

    The traced list is aligned with the observation's path tuple, so route
    facet sequences can serve as ground-truth path identities.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    pair = ReferencePair(tx_ref=tx, rx_ref=rx)
    traced = trace_paths(scene, tx, rx, max_bounces=max_bounces)
    obs = PairObservation(tx=tx, rx=rx, paths=tuple(to_pwa(p, pair) for p in traced))
    return obs, traced


def random_scene(
    rng: np.random.Generator,
    n_facets: int | None = None,
    sep_range: tuple[float, float] = (50.0, 160.0),
):
    """Random specular scene plus its reference pair.

    Facet normals are tilted by up to ~0.12 rad off the nominal facing
    direction, enough to exercise generic rotations without letting any
    reflector plane cut between the endpoints.  sep_range bounds the TX/RX
    separation; compact scenes keep squared-distance algebra well away from
    float cancellation, large ones stress the far-field regime.
    """
    if n_facets is None:
        n_facets = int(rng.integers(1, 4))
    sep = rng.uniform(*sep_range)
    tx = np.array([0.0, rng.uniform(-2, 2), rng.uniform(1.5, 3.0)])
    rx = np.array([sep, rng.uniform(-2, 2), rng.uniform(1.5, 3.0)])

    # one slot per side, so facets cannot occlude each other's bounces
    slots = [
        np.array([0.0, 1.0, 0.0]),  # left wall
        np.array([0.0, -1.0, 0.0]),  # right wall
        np.array([0.0, 0.0, 1.0]),  # overhead panel
    ]
    rng.shuffle(slots)
    facets = []
    for side in slots[:n_facets]:
        standoff = rng.uniform(8.0, 30.0)
        center = (tx + rx) / 2 + side * standoff
        center += np.array([rng.uniform(-10, 10), 0.0, 0.0])
        normal = -side + rng.uniform(-0.12, 0.12, size=3)
        normal -= side * (side @ normal + side @ side)  # keep facing the axis
        facets.append(
            make_facet(
                center=center,
                normal=normal,
                half_u=rng.uniform(sep * 0.6, sep),
                half_v=rng.uniform(20.0, 40.0),
            )
        )
    scene = Scene(facets=tuple(facets), carrier_freq=140e9)
    return scene, ReferencePair(tx_ref=tx, rx_ref=rx)


def rich_room(rng: np.random.Generator, n_panels: int = 14):
    """Box room with six inward-facing walls plus n_panels one-sided panels at
    random positions and orientations (20 facets by default), and a TX/RX
    pair inside it at least 3 m apart.

    Unlike random_scene, facets here occlude each other and many face away
    from the endpoints, so most facet sequences are dark: the scene that the
    tracer's pruning is for.
    """
    extent = np.array([12.0, 9.0, 3.5])
    half = extent / 2.0
    facets = []
    for k, far in itertools.product(range(3), (False, True)):
        u, v = np.eye(3)[(k + 1) % 3], np.eye(3)[(k + 2) % 3]  # u x v = +e_k
        if far:
            u, v = v, u  # the far wall faces -e_k, into the room
        center = half.copy()
        center[k] = extent[k] if far else 0.0
        facets.append(Facet(center, u, v, half_u=half @ u, half_v=half @ v))
    for _ in range(n_panels):
        facets.append(
            make_facet(
                rng.uniform([1.0, 1.0, 0.5], extent - [1.0, 1.0, 0.5]),
                rng.standard_normal(3),
                half_u=rng.uniform(0.3, 0.9),
                half_v=rng.uniform(0.3, 0.9),
            )
        )
    while True:
        tx, rx = rng.uniform(0.5, extent - 0.5, size=(2, 3))
        if np.linalg.norm(rx - tx) >= 3.0:
            break
    scene = Scene(facets=tuple(facets), carrier_freq=140e9)
    return scene, ReferencePair(tx_ref=tx, rx_ref=rx)


def facet_sequences(n_facets: int, max_bounces: int):
    """Every facet sequence of 1..max_bounces bounces with no facet twice in
    a row, by bounce count, then lexicographic."""
    for bounces in range(1, max_bounces + 1):
        for seq in itertools.product(range(n_facets), repeat=bounces):
            if all(a != b for a, b in zip(seq, seq[1:])):
                yield seq


def brute_force_paths(scene: Scene, tx, rx, max_bounces: int) -> list[TracedPath]:
    """trace_paths by trying every facet sequence: the tracer's oracle.

    Line of sight first, then facet_sequences in order, each through the
    public trace_sequence. The occlusion test (every segment against every
    facet, with no bounding-box reject), the seam rule (drop a route when an
    earlier kept route with as many bounces has the same length and vertices
    within 1e-9 of its length) and the gains are written out here.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    gap = tx - rx
    seqs = list(facet_sequences(len(scene.facets), max_bounces))
    if math.sqrt(gap[0] * gap[0] + gap[1] * gap[1] + gap[2] * gap[2]) > 1e-12:
        seqs.insert(0, ())
    routes = [trace_sequence(scene, seq, tx, rx, check_occlusion=False) for seq in seqs]
    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)
    paths = []
    for r in routes:
        if r is None or any(
            cross is not None and f.contains(cross[0])
            for p, q in zip(r.vertices[:-1], r.vertices[1:])
            for f in scene.facets
            for cross in [f.crossing(p, q - p)]
        ):
            continue
        length = route_length(r)
        tol = 1e-9 * max(1.0, length)
        if any(
            abs(p.delay * C_LIGHT - length) <= tol
            and p.route.vertices.shape == r.vertices.shape
            and float(np.max(np.abs(p.route.vertices - r.vertices))) <= tol
            for p in paths
        ):
            continue
        amp = scene.wavelength / (4.0 * math.pi * length) * loss_amp ** r.bounces
        phase = -2.0 * math.pi * scene.carrier_freq * length / C_LIGHT
        gain = amp * cmath.exp(1j * phase)
        paths.append(TracedPath(route=r, gain=gain, delay=length / C_LIGHT))
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


def retrace_length(scene: Scene, path: TracedPath, tx, rx) -> float | None:
    """Ground-truth length of `path`'s facet sequence unfolded to (tx, rx).

    Re-runs the image construction with bounds/side/occlusion checks
    disabled so finite extents don't matter.  Returns None when the
    sequence has no specular route at the displaced endpoints (a reflection
    point leaves its segment, which happens near grazing incidence) — the
    route length is undefined there and callers skip the sample.
    """
    route = trace_sequence(
        scene,
        path.route.facet_ids,
        np.asarray(tx, dtype=float),
        np.asarray(rx, dtype=float),
        check_bounds=False,
        check_side=False,
        check_occlusion=False,
    )
    return None if route is None else route_length(route)


def random_orthogonal(rng: np.random.Generator, det: int | None = None) -> np.ndarray:
    """Haar-ish random 3x3 orthogonal matrix, optionally with fixed det."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if det is not None and round(float(np.linalg.det(q))) != det:
        q[:, 0] = -q[:, 0]
    return q


def gram_singular_values(h: np.ndarray) -> np.ndarray:
    """Singular values via the characteristic polynomial of H^H H.

    Independent of the SVD routine: Faddeev-LeVerrier gives the
    characteristic polynomial coefficients, and its roots (companion-matrix
    eigenvalues) are the squared singular values.  Accurate enough to serve
    as an oracle for small, well-conditioned matrices only.
    """
    h = np.asarray(h)
    gram = h.conj().T @ h
    n = gram.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(gram)
    for k in range(1, n + 1):
        m = gram @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(gram @ m).real / k
    roots = np.roots(coeffs)
    vals = np.clip(roots.real, 0.0, None)
    return np.sqrt(np.sort(vals)[::-1])
