"""Shared scene generators and oracles for the test suite.

random_scene puts TX and RX near the x axis at 50-160 m separation and its
reflectors well off-axis (side walls and an overhead panel) with mildly
tilted normals, so the recovered roll angles are generic rather than
axis-aligned special cases. Most seeds give the line of sight and one
reflection per facet, but not every seed: at seed 71102854 a tilted side
wall's plane separates TX and RX and cuts the line of sight, so the
reference pair has no path at all, and at seeds 54, 147 and 40408 the one
facet's reflection point falls outside it, so only the line of sight is
traced at 1 bounce. Tests that draw seeds from it must ``assume`` around
seeds without the paths they need.

The tracer's oracle is the classical image method (Borish 1984) written out
here from its definitions on plain numpy vectors: mirror, crossing, inside,
blocked, unfold and brute_force_paths read only the public Facet fields
(normal, intercept, center, axis_u, axis_v, half_u, half_v, two_sided) and
share no code with the tracer, so a wrong unfolding, bounds or side rule in
the tracer cannot change the oracle with it.

The reflection model's oracles are its angle form written out as 3x3 numpy
products: rm_distance_angles evaluates a path's distance from its eight
parameters, and image_to_angles converts an image (U, g) into them. The
package evaluates only the image that paths.angles_to_image derives.

The phasor kernel's oracle, phasor_sum_expression, is the sum written as one
numpy expression per path, which allocates each temporary afresh; the
package builds each term in one buffer and must give the same bytes.
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
    RmImage,
    RmPath,
    Route,
    Scene,
    TracedPath,
    align_rotation,
    make_facet,
    rotation_matrix,
    to_pwa,
    trace_paths,
    z_reflection,
)
from reflectmimo.geometry import _dir_angles, _euler_factor

# The tracer's slack: an interaction point must lie strictly inside its
# segment, more than _SLACK of the segment parameter from either end, and
# may lie up to _SLACK m outside its facet's rectangle.
_SLACK = 1e-9


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
    direction, enough to exercise generic rotations; now and then a tilted
    plane still passes between the endpoints, or a reflection point falls
    off its facet (see the module docstring).  sep_range bounds the TX/RX
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


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def mirror(facet: Facet, p) -> np.ndarray:
    """Image of point p through the facet's plane n . x = b: p moved twice
    its height n . p - b above the plane, against n."""
    p = np.asarray(p, dtype=float)
    return p - 2.0 * (_dot(facet.normal, p) - facet.intercept) * facet.normal


def crossing(facet: Facet, p: np.ndarray, q: np.ndarray):
    """Where the open segment p -> q crosses the facet's plane, as (point,
    n . (q - p)); None when the segment is parallel to the plane or meets it
    at a segment parameter t outside (_SLACK, 1 - _SLACK). The sign of
    n . (q - p) is negative when the segment arrives on the normal side."""
    step = q - p
    denom = _dot(facet.normal, step)
    if denom == 0.0:
        return None
    t = (facet.intercept - _dot(facet.normal, p)) / denom
    if not _SLACK < t < 1.0 - _SLACK:
        return None
    return p + t * step, denom


def inside(facet: Facet, x: np.ndarray) -> bool:
    """Whether in-plane point x lies within the facet's rectangle, up to
    _SLACK along each bounded axis."""
    rel = x - facet.center
    return all(
        half is None or abs(_dot(rel, axis)) <= half + _SLACK
        for axis, half in ((facet.axis_u, facet.half_u), (facet.axis_v, facet.half_v))
    )


def blocked(scene: Scene, p: np.ndarray, q: np.ndarray, own=()) -> bool:
    """Whether the open segment p -> q passes through a facet of the scene
    other than those it starts and ends on, whose indices own lists: every
    other facet is tested, with no quick reject. A straight segment meets
    the plane of its own facet only at its end, up to the rounding of that
    end, which on a segment a few nm long is past the slack."""
    return any(
        hit is not None and inside(f, hit[0])
        for k, f in enumerate(scene.facets)
        if k not in own
        for hit in [crossing(f, p, q)]
    )


def unfold(scene: Scene, sequence, tx, rx, checked: bool = True) -> np.ndarray | None:
    """The route of one facet sequence by the image method, as its
    (bounces + 2, 3) vertices: TX, the interaction points, RX.

    RX is mirrored through the facets from last to first; the route then
    runs from TX towards each image in turn, and meets each facet where that
    segment crosses its plane. None when a segment misses its plane and,
    when checked, when a point lies outside its facet or the segment
    arrives on the back of a one-sided facet. Occlusion is not tested.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    facets = [scene.facets[i] for i in sequence]
    images = [rx]
    for f in reversed(facets):
        images.insert(0, mirror(f, images[0]))
    vertices = [tx]
    for f, image in zip(facets, images):
        hit = crossing(f, vertices[-1], image)
        if hit is None:
            return None
        point, arrival = hit
        if checked and not (inside(f, point) and (f.two_sided or arrival < 0.0)):
            return None
        vertices.append(point)
    vertices.append(rx)
    return np.array(vertices)


def _length(vertices: np.ndarray) -> float:
    return float(np.sum(np.linalg.norm(np.diff(vertices, axis=0), axis=1)))


def brute_force_paths(scene: Scene, tx, rx, max_bounces: int) -> list[TracedPath]:
    """trace_paths by trying every facet sequence: the tracer's oracle.

    Line of sight first (when TX and RX lie more than 1e-12 m apart), then
    facet_sequences in order, each unfolded and each segment tested for
    occlusion against every facet but those it starts and ends on. The
    seam rule: a route is dropped when an earlier kept route with as many
    bounces has its length and every vertex coordinate within
    1e-9 max(1, length). Gains: free-space spreading over the route length,
    the scene's per-bounce loss and the carrier phase. Sorted by descending
    gain magnitude, then delay, then sequence order.
    """
    tx = np.asarray(tx, dtype=float)
    rx = np.asarray(rx, dtype=float)
    seqs = list(facet_sequences(len(scene.facets), max_bounces))
    if np.linalg.norm(rx - tx) > 1e-12:
        seqs.insert(0, ())
    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)
    paths = []
    for seq in seqs:
        vertices = unfold(scene, seq, tx, rx)
        ends = (None, *seq, None)
        if vertices is None or any(
            blocked(scene, p, q, own) for p, q, *own in zip(vertices, vertices[1:], ends, ends[1:])
        ):
            continue
        length = _length(vertices)
        tol = 1e-9 * max(1.0, length)
        if any(
            abs(p.delay * C_LIGHT - length) <= tol
            and p.route.vertices.shape == vertices.shape
            and np.all(np.abs(p.route.vertices - vertices) <= tol)
            for p in paths
        ):
            continue
        amp = scene.wavelength / (4.0 * math.pi * length) * loss_amp ** len(seq)
        phase = -2.0 * math.pi * scene.carrier_freq * length / C_LIGHT
        gain = amp * cmath.exp(1j * phase)
        paths.append(TracedPath(route=Route(vertices, seq), gain=gain, delay=length / C_LIGHT))
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


def retrace_length(scene: Scene, path: TracedPath, tx, rx) -> float | None:
    """Ground-truth length of `path`'s facet sequence unfolded to (tx, rx).

    Unfolds with the bounds, side and occlusion tests off, so finite extents
    don't matter. Returns None when the sequence has no specular route at
    the displaced endpoints (a reflection point leaves its segment, which
    happens near grazing incidence): the route length is undefined there and
    callers skip the sample.
    """
    vertices = unfold(scene, path.route.facet_ids, tx, rx, checked=False)
    return None if vertices is None else _length(vertices)


def random_orthogonal(rng: np.random.Generator, det: int | None = None) -> np.ndarray:
    """Haar-ish random 3x3 orthogonal matrix, optionally with fixed det."""
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q = q * np.sign(np.diag(r))
    if det is not None and round(float(np.linalg.det(q))) != det:
        q[:, 0] = -q[:, 0]
    return q


def rm_distance_angles(rx, tx, ref: ReferencePair, path: RmPath) -> float:
    """Reflection-model distance evaluated from the 8-parameter angle form:
    |c tau e_x + A_r (rx_ref - rx) + Q_z(s) R_x(roll) A_t (tx_ref - tx)|,
    with A_r and A_t the align rotations of the arrival and departure
    directions."""
    rot_rx = align_rotation(path.aoa_az, path.aoa_el)
    mir_tx = (
        z_reflection(path.s)
        @ rotation_matrix("x", path.roll)
        @ align_rotation(path.aod_az, path.aod_el)
    )
    d = C_LIGHT * path.delay * np.array([1.0, 0.0, 0.0])
    d = d + rot_rx @ (ref.rx_ref - np.asarray(rx, dtype=float))
    d = d + mir_tx @ (ref.tx_ref - np.asarray(tx, dtype=float))
    return float(np.linalg.norm(d))


def image_to_angles(img: RmImage, ref: ReferencePair, gain: complex = 0j) -> RmPath:
    """The angle form of the image (U, g) at a reference pair, through
    3-vector and 3x3 numpy products.

    The arrival direction points from the reference receiver toward the
    transmitter image, the departure parameters follow from the Euler
    factorization of the residual rotation. Raises ValueError when the image
    coincides with the reference receiver (zero path length).
    """
    d0 = ref.rx_ref - img.U @ ref.tx_ref - img.g
    dist = math.sqrt(d0.dot(d0))
    if dist < 1e-12:
        raise ValueError("transmitter image coincides with the reference receiver")
    aoa_az, aoa_el = _dir_angles(*(-d0 / dist).tolist())
    w = -(rotation_matrix("y", aoa_el) @ rotation_matrix("z", -aoa_az)) @ img.U
    s = int(round(float(np.linalg.det(w))))
    roll, aod_el, aod_az = _euler_factor(*(z_reflection(s) @ w).tolist())
    return RmPath(gain, dist / C_LIGHT, aoa_az, aoa_el, aod_az, aod_el, roll, s)


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


def phasor_sum_expression(gains, delays, distances, f, f0):
    """channel.phasor_sum as one numpy expression per path, each term a
    fresh array, summed in path order: the kernel's byte-for-byte oracle."""
    terms = (
        g * np.exp(2j * math.pi * (tau * f0 - f * d / C_LIGHT))
        for g, tau, d in zip(gains, delays, distances)
    )
    total = next(terms, 0j)
    for term in terms:
        total += term
    return total


def band_midpoints(f0: float, bandwidth: float, n_freq: int) -> list[float]:
    """The midpoint-rule frequencies of the band bandwidth around f0."""
    return [f0 - bandwidth / 2.0 + (k + 0.5) * (bandwidth / n_freq) for k in range(n_freq)]


def _largest_phase_and_gain(at, f_max: float) -> tuple[float, float]:
    """The largest phase argument 2 pi f d / c (or 2 pi f0 tau) of the
    evaluator at up to frequency f_max, and the largest sum over paths of |g|."""
    reach = max(
        max(np.max(np.abs(d)), C_LIGHT * np.max(np.abs(tau)))
        for d, tau in zip(at.distances, at.delays)
    )
    phase = 2.0 * math.pi * max(f_max, at.f0) * reach / C_LIGHT
    return phase, np.max(sum(np.abs(g) for g in at.gains))


def band_tolerance(at, bandwidth: float, n_freq: int) -> float:
    """Bound on |at.band(bandwidth, n_freq)[k] - at(f_k)| for the evaluator at.

    Both sides carry the rounding of the phase argument 2 pi (tau f0 - f d/c),
    a few ulps of its largest value, and the walk adds the rounding of one
    rotor multiply per midpoint; each path's share scales with its gain.
    """
    phase, gain = _largest_phase_and_gain(at, at.f0 + bandwidth / 2.0)
    return gain * (8.0 * np.spacing(phase) + 4.0 * n_freq * np.finfo(float).eps)


def core_tolerance(at, f: float) -> float:
    """Bound on the gap between the singular values of the dense matrix at(f)
    and those of its plane-wave core at f, padded with zeros.

    Each dense entry carries the rounding of its phase argument, a few ulps
    of the largest one, on each path's share |g|; sqrt(M N) takes that
    entrywise bound to one on the spectral norm of the error, which bounds
    how far any singular value moves. The core's phases are the small terms
    of the same law, and the SVDs' own rounding is a few eps of s_1 <=
    sqrt(M N) sum |g|, both far below it.
    """
    phase, gain = _largest_phase_and_gain(at, f)
    return gain * math.sqrt(np.size(at.distances[0])) * 8.0 * np.spacing(phase)
