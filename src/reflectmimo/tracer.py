"""Image-method specular ray tracer over planar rectangular facets.

Serves as the ground-truth generator for synthetic scenes. It walks the
ordered facet sequences up to a bounce limit as a tree keyed by suffix
(_walk), so sequences with a common suffix share their receiver images and a
subtree is cut where an image lies behind a one-sided facet. Each route is
unfolded towards those images and kept only if every interaction point lies
inside its facet, hits the reflective side, and no segment is blocked by
another facet. The kept sequences are sorted (line of sight, bounce count,
lexicographic) before the seam rule and the gains, so the output is that of
trying every sequence in that order. Gains follow free-space spreading over
the route length with a fixed per-bounce loss, phase referenced to the
scene carrier. Two tracers share the walk and these rules:

* ``trace_paths`` traces one TX/RX pair on the plain float triples each
  Facet keeps next to its arrays, because numpy call overhead dominates at
  one pair.
* ``trace_pairs`` traces every pair of a TX and an RX array at once: for a
  fixed facet sequence the unfolding, bounds, side and occlusion tests are
  the same arithmetic for every pair, so each runs once per sequence on
  (M, N) coordinate arrays. It gives the same delays, bit for bit.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import as_points, dir_to_angles, unit
from .paths import C_LIGHT, PwaPath, ReferencePair

__all__ = [
    "Facet",
    "Route",
    "Scene",
    "TracedPath",
    "make_facet",
    "route_length",
    "to_pwa",
    "trace_pairs",
    "trace_paths",
    "trace_sequence",
]

MAX_BOUNCES = 3

# Segment parameter slack excluding a segment's own endpoints from
# intersection/occlusion tests.
_T_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class Facet:
    """Rectangular (or unbounded) planar reflector.

    axis_u and axis_v are orthonormal in-plane directions; the facet normal is
    their cross product and reflections are accepted from the normal side only
    unless two_sided is set. half_u / half_v are half-extents in meters along
    the two axes; None means unbounded in that direction.

    Facets are immutable, fields and arrays alike, and compare by identity.
    Each facet also keeps its center, axes and normal as plain float
    triples, which reflect, contains and crossing read in the trace loop
    (reflect and contains also take triples of coordinate arrays, crossing
    has crossing_batch), and, when bounded, the axis-aligned box of the
    points contains accepts, for the occlusion test's quick reject.
    """

    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    half_u: float | None = None
    half_v: float | None = None
    two_sided: bool = False
    normal: np.ndarray = field(init=False)
    intercept: float = field(init=False)
    _center: tuple[float, float, float] = field(init=False, repr=False)
    _axis_u: tuple[float, float, float] = field(init=False, repr=False)
    _axis_v: tuple[float, float, float] = field(init=False, repr=False)
    _normal: tuple[float, float, float] = field(init=False, repr=False)
    _box: tuple[float, ...] | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        center = np.array(self.center, dtype=float)
        axis_u = unit(self.axis_u)
        axis_v = unit(self.axis_v)
        if abs(float(axis_u @ axis_v)) > 1e-9:
            raise ValueError("facet axes must be orthogonal")
        for half in (self.half_u, self.half_v):
            if half is not None and not (math.isfinite(half) and half > 0.0):
                raise ValueError(f"facet half-extent must be positive, got {half}")
        normal = np.cross(axis_u, axis_v)
        arrays = {"center": center, "axis_u": axis_u, "axis_v": axis_v, "normal": normal}
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
            object.__setattr__(self, "_" + name, _f3(value))
        object.__setattr__(self, "intercept", float(normal @ center))
        box = None
        if self.half_u is not None and self.half_v is not None:
            # 3 _T_EPS: the bounds slack plus the rounding of a hit point,
            # off its plane and along its segment, on segments up to ~1e6 m
            reach = np.abs(axis_u) * self.half_u + np.abs(axis_v) * self.half_v + 3 * _T_EPS
            box = _f3(center - reach) + _f3(center + reach)
        object.__setattr__(self, "_box", box)

    def reflect(self, p):
        """Mirror image of point p across the facet plane.

        p is a float triple or a triple of coordinate arrays; the image is
        the same kind of triple.
        """
        n = self._normal
        d = 2.0 * (_dot(n, p) - self.intercept)
        return (p[0] - d * n[0], p[1] - d * n[1], p[2] - d * n[2])

    def contains(self, p):
        """True when in-plane point p lies within the facet bounds; for a
        triple of coordinate arrays, a boolean array unless unbounded."""
        rel = _sub(p, self._center)
        inside = True
        if self.half_u is not None:
            inside = abs(_dot(rel, self._axis_u)) <= self.half_u + _T_EPS
        if self.half_v is not None:
            inside = inside & (abs(_dot(rel, self._axis_v)) <= self.half_v + _T_EPS)
        return inside

    def crossing(self, p, step) -> tuple[tuple[float, float, float], float] | None:
        """Where the open segment p -> p + step crosses the facet plane.

        Returns (hit point, normal . step), or None when the segment is
        parallel to the plane or meets it only within _T_EPS of an endpoint.
        The sign of normal . step tells the side the segment arrives from.
        """
        # Dot products written out: this runs for every facet on every
        # segment of the occlusion test.
        n = self._normal
        denom = n[0] * step[0] + n[1] * step[1] + n[2] * step[2]
        if denom == 0.0:
            return None
        t = (self.intercept - (n[0] * p[0] + n[1] * p[1] + n[2] * p[2])) / denom
        if t <= _T_EPS or t >= 1.0 - _T_EPS:
            return None
        return (p[0] + t * step[0], p[1] + t * step[1], p[2] + t * step[2]), denom

    def crossing_batch(self, p, step):
        """crossing for triples of coordinate arrays.

        Returns (hit point, normal . step, mask of the segments that cross);
        the hit point is only meaningful where the mask is set.
        """
        n = self._normal
        denom = n[0] * step[0] + n[1] * step[1] + n[2] * step[2]
        crosses = denom != 0.0
        num = self.intercept - (n[0] * p[0] + n[1] * p[1] + n[2] * p[2])
        t = np.divide(num, denom, out=np.zeros(np.shape(denom)), where=crosses)
        crosses &= (t > _T_EPS) & (t < 1.0 - _T_EPS)
        return (p[0] + t * step[0], p[1] + t * step[1], p[2] + t * step[2]), denom, crosses


def make_facet(
    center: np.ndarray,
    normal: np.ndarray,
    half_u: float | None = None,
    half_v: float | None = None,
    two_sided: bool = False,
) -> Facet:
    """Build a facet from its center and normal, choosing in-plane axes."""
    n = unit(normal)
    helper = np.array([0.0, 0.0, 1.0])
    if abs(float(n @ helper)) > 0.9:
        helper = np.array([1.0, 0.0, 0.0])
    axis_u = unit(np.cross(helper, n))
    axis_v = np.cross(n, axis_u)
    return Facet(
        center=center,
        axis_u=axis_u,
        axis_v=axis_v,
        half_u=half_u,
        half_v=half_v,
        two_sided=two_sided,
    )


@dataclass(frozen=True, eq=False)
class Scene:
    """Facet collection plus the carrier frequency and per-bounce loss."""

    facets: tuple[Facet, ...]
    carrier_freq: float
    reflection_loss_db: float = 3.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "facets", tuple(self.facets))
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > 0.0):
            raise ValueError("carrier frequency must be positive")
        if self.reflection_loss_db < 0.0:
            raise ValueError("reflection loss must be non-negative (dB)")

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_freq


@dataclass(frozen=True, eq=False)
class Route:
    """Polyline of a path: TX first, interaction points, RX last.

    facet_ids lists the facet index of each interaction; it is None for
    routes loaded from external exports that do not carry facet identities.
    """

    vertices: np.ndarray
    facet_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 3 or v.shape[0] < 2:
            raise ValueError("route vertices must have shape (K+1, 3) with K >= 1")
        object.__setattr__(self, "vertices", v)
        if self.facet_ids is not None:
            ids = tuple(int(i) for i in self.facet_ids)
            if len(ids) != v.shape[0] - 2:
                raise ValueError("facet_ids must name every interaction point")
            object.__setattr__(self, "facet_ids", ids)

    @property
    def bounces(self) -> int:
        return self.vertices.shape[0] - 2


@dataclass(frozen=True, eq=False)
class TracedPath:
    """A traced route with its complex gain and absolute delay, length / c."""

    route: Route
    gain: complex
    delay: float

    @property
    def bounces(self) -> int:
        return self.route.bounces


def route_length(route: Route) -> float:
    """Total polyline length of a route."""
    steps = np.diff(route.vertices, axis=0)
    return float(np.sum(np.linalg.norm(steps, axis=1)))


# ---------------------------------------------------------------------------
# flat float3 helpers for the trace inner loop; _dot and _sub also take
# triples of coordinate arrays


def _f3(a) -> tuple[float, float, float]:
    return (float(a[0]), float(a[1]), float(a[2]))


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _misses(f: Facet, box) -> bool:
    """True when f is bounded and its box misses box (low corner, then high)."""
    b = f._box
    return b is not None and (
        b[0] > box[3] or b[1] > box[4] or b[2] > box[5]
        or b[3] < box[0] or b[4] < box[1] or b[5] < box[2]
    )


# ---------------------------------------------------------------------------
# the rules both tracers share, on float triples or on triples of coordinate
# arrays; ops holds the few calls that differ between the two


_Ops = namedtuple("_Ops", "any sqrt maximum exp")  # any: "some pair passes"
_FLOAT_OPS = _Ops(bool, math.sqrt, max, cmath.exp)
_ARRAY_OPS = _Ops(np.any, np.sqrt, np.maximum, np.exp)


def _walk(facets: tuple[Facet, ...], tx, rx, max_bounces: int, ops: _Ops):
    """Depth-first walk of the facet-sequence tree, keyed by suffix.

    Yields (sequence, images) for the sequences that can have a route, line
    of sight () first; images[k] is rx mirrored through sequence[k:], the aim
    point of the segment arriving at interaction k. A child puts facet f in
    front of its node and mirrors the node's images[0] through f. A one-sided
    f is cut, with its subtree, unless images[0] is strictly in front of it,
    where the segment leaving f heads; a node is yielded only when TX is
    strictly in front of its one-sided first facet. On arrays, a test passes
    when it passes for any pair.
    """
    if not 0 <= max_bounces <= MAX_BOUNCES:
        raise ValueError(f"max_bounces must be between 0 and {MAX_BOUNCES}, got {max_bounces}")
    any_ = ops.any
    stack = [((), (rx,))]
    while stack:
        seq, images = stack.pop()
        head = seq[0] if seq else -1
        first = facets[head] if seq else None
        if not seq or first.two_sided or any_(_dot(first._normal, tx) > first.intercept):
            yield seq, images
        if len(seq) == max_bounces:
            continue
        aim = images[0]
        for idx, f in enumerate(facets):
            # Two consecutive hits on the same plane can never be specular.
            if idx != head and (f.two_sided or any_(_dot(f._normal, aim) > f.intercept)):
                stack.append(((idx, *seq), (f.reflect(aim), *images)))


def _apart(a, b, ops: _Ops):
    """The line-of-sight route needs endpoints more than 1e-12 m apart."""
    gap = _sub(a, b)
    return ops.sqrt(_dot(gap, gap)) > 1e-12


def _kept(accepted, ops: _Ops):
    """The seam rule on the (sequence, vertices, valid) a walk accepted.

    Yields (sequence, vertices, valid, length) in sequence order (line of
    sight, bounce count, lexicographic). valid loses the pairs whose route an
    earlier sequence with as many bounces has, lengths and vertices within
    1e-9 of the route length (coplanar facets that meet or overlap). The
    length is route_length's arithmetic: segment norms summed in order.
    """
    peers = []  # (vertices, valid, length) of the earlier sequences, same bounces
    for seq, vertices, valid in sorted(accepted, key=lambda e: (len(e[0]), e[0])):
        if peers and len(peers[0][0]) != len(vertices):
            peers = []
        length = 0.0
        for a, b in zip(vertices[:-1], vertices[1:]):
            step = _sub(b, a)
            length = length + ops.sqrt(_dot(step, step))
        tol = 1e-9 * ops.maximum(1.0, length)
        for prev_vertices, prev_valid, prev_length in peers:
            same = valid & prev_valid & (abs(prev_length - length) <= tol)
            if ops.any(same):
                for a, b in zip(prev_vertices, vertices):
                    for ca, cb in zip(a, b):
                        same = same & (abs(ca - cb) <= tol)
                valid = valid ^ same  # same lies within valid: drop it
        if ops.any(valid):
            peers.append((vertices, valid, length))
            yield seq, vertices, valid, length


def _gain(scene: Scene, length, bounces: int, ops: _Ops):
    """Free-space spreading over the route length, the per-bounce loss and
    the carrier phase."""
    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)
    amp = scene.wavelength / (4.0 * math.pi * length) * loss_amp**bounces
    return amp * ops.exp(1j * (-2.0 * math.pi * scene.carrier_freq * length / C_LIGHT))


def trace_sequence(
    scene: Scene,
    sequence: tuple[int, ...],
    tx: np.ndarray,
    rx: np.ndarray,
    check_bounds: bool = True,
    check_side: bool = True,
    check_occlusion: bool = True,
) -> Route | None:
    """Construct the specular route for one ordered facet sequence.

    Returns None when no valid route exists. Disabling the checks still
    requires each unfolded intersection to fall strictly inside its segment,
    so the result remains a genuine geometric route; the relaxed mode is the
    re-tracing oracle used to follow a known path to displaced endpoints.
    """
    facets = scene.facets
    for idx in sequence:
        if not 0 <= idx < len(facets):
            raise ValueError(f"facet index {idx} out of range")
    images = [_f3(rx)]
    for idx in reversed(sequence):
        images.insert(0, facets[idx].reflect(images[0]))
    vertices = _unfold(facets, sequence, images, _f3(tx), check_bounds, check_side, check_occlusion)
    return None if vertices is None else Route(np.array(vertices), sequence)


def _unfold(
    facets, sequence, images, txf, check_bounds=True, check_side=True, check_occlusion=True
):
    """Vertices of trace_sequence's route, or None, for valid facet indices,
    float-triple TX and the receiver images of _walk."""
    rxf = images[-1]
    if not sequence and not _apart(txf, rxf, _FLOAT_OPS):
        return None
    points = []
    p = txf
    for idx, aim in zip(sequence, images):
        f = facets[idx]
        cross = f.crossing(p, _sub(aim, p))
        if cross is None:
            return None
        hit, denom = cross
        if check_bounds and not f.contains(hit):
            return None
        if check_side and not f.two_sided and denom >= 0.0:
            return None
        points.append(hit)
        p = hit

    vertices = [txf, *points, rxf]
    if check_occlusion:
        for a, b in zip(vertices[:-1], vertices[1:]):
            # blocked when the open segment a->b crosses a facet rectangle
            step = _sub(b, a)
            box = (*map(min, a, b), *map(max, a, b))
            for f in facets:
                if not _misses(f, box):
                    cross = f.crossing(a, step)
                    if cross is not None and f.contains(cross[0]):
                        return None
    return vertices


def trace_paths(
    scene: Scene, tx: np.ndarray, rx: np.ndarray, max_bounces: int = 2
) -> list[TracedPath]:
    """All specular paths between tx and rx up to max_bounces reflections.

    Includes the line-of-sight path when unobstructed. The suffix walk
    skips only sequences the side test rejects, so the paths are those of
    trying every sequence. They are sorted by descending gain magnitude, ties
    in sequence order (line of sight, bounce count, lexicographic). Coplanar
    facets that meet or overlap can both accept the same specular point; such
    a path is returned once, under the first facet sequence in that order.
    """
    facets = scene.facets
    txf = _f3(tx)
    walk = _walk(facets, txf, _f3(rx), max_bounces, _FLOAT_OPS)
    unfolded = ((seq, _unfold(facets, seq, images, txf)) for seq, images in walk)
    # vertex arrays, kept as the routes: as float tuples they would double
    # the memory of the accepted routes
    accepted = [(seq, np.array(v), True) for seq, v in unfolded if v is not None]
    paths = []
    for seq, vertices, _, length in _kept(accepted, _FLOAT_OPS):
        route = Route(vertices, seq)
        gain = _gain(scene, length, len(seq), _FLOAT_OPS)
        paths.append(TracedPath(route=route, gain=gain, delay=length / C_LIGHT))
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


# ---------------------------------------------------------------------------
# every TX/RX element pair at once


def _coordinates(points, name: str, axis: int) -> tuple[np.ndarray, ...]:
    """The x, y, z columns of an (K, 3) point array, each with a new axis
    inserted at `axis`, so TX (axis 0) and RX (axis 1) columns broadcast to
    (M, N)."""
    pts = as_points(points, name)
    return tuple(np.expand_dims(np.ascontiguousarray(c), axis) for c in pts.T)


def _unfold_batch(facets: tuple[Facet, ...], sequence: tuple[int, ...], images, tx):
    """_unfold for every pair: the route vertices and the mask of pairs with
    a route; None as soon as no pair has one."""
    rx = images[-1]
    valid = True if sequence else _apart(tx, rx, _ARRAY_OPS)
    points = []
    p = tx
    for idx, aim in zip(sequence, images):
        f = facets[idx]
        hit, denom, valid_k = f.crossing_batch(p, _sub(aim, p))
        valid = valid & valid_k & f.contains(hit)
        if not f.two_sided:
            valid &= denom < 0.0
        if not valid.any():
            return None
        points.append(hit)
        p = hit

    vertices = [tx, *points, rx]
    for a, b in zip(vertices[:-1], vertices[1:]):
        step = _sub(b, a)
        box = (*map(np.min, map(np.minimum, a, b)), *map(np.max, map(np.maximum, a, b)))
        for f in facets:
            if not _misses(f, box):
                hit, _, crosses = f.crossing_batch(a, step)
                if crosses.any():
                    valid = valid & ~(crosses & f.contains(hit))
        if not valid.any():
            return None
    return vertices, valid


def trace_pairs(
    scene: Scene, tx_points: np.ndarray, rx_points: np.ndarray, max_bounces: int = 2
) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """trace_paths for every pair of N transmitters and M receivers at once.

    tx_points is (N, 3) and rx_points (M, 3). The suffix walk of trace_paths
    cuts a subtree only when no pair passes; each sequence is unfolded,
    bounds-, side- and occlusion-tested over all pairs as (M, N) arrays.
    Returns one (facet sequence, gains, delays) entry per sequence with a
    path for some pair, in sequence order; gains (complex) and delays are
    (M, N), indexed [rx][tx], and zero where the pair has no route under that
    sequence. Per pair, the routes are those of trace_paths, the seam rule
    included: the delays are equal bit for bit and the gains to rounding.
    """
    facets = scene.facets
    tx = _coordinates(tx_points, "tx_points", 0)
    rx = _coordinates(rx_points, "rx_points", 1)
    walk = _walk(facets, tx, rx, max_bounces, _ARRAY_OPS)
    unfolded = ((seq, _unfold_batch(facets, seq, images, tx)) for seq, images in walk)
    accepted = [(seq, *found) for seq, found in unfolded if found is not None]
    traced = []
    for seq, _, valid, length in _kept(accepted, _ARRAY_OPS):
        gains = np.zeros(valid.shape, dtype=complex)
        delays = np.zeros(valid.shape)
        gains[valid] = _gain(scene, length[valid], len(seq), _ARRAY_OPS)
        delays[valid] = length[valid] / C_LIGHT
        traced.append((seq, gains, delays))
    return traced


def to_pwa(path: TracedPath, ref: ReferencePair) -> PwaPath:
    """Plane-wave parameters of a traced path whose route ends at ref.

    The departure direction follows the first route segment; the arrival
    direction points from the receiver back along the last segment.
    """
    verts = path.route.vertices
    if not ref.matches(verts[0], verts[-1]):
        raise ValueError("route endpoints do not match the reference pair")
    u_t = unit(verts[1] - verts[0])
    u_r = -unit(verts[-1] - verts[-2])
    aod_az, aod_el = dir_to_angles(u_t)
    aoa_az, aoa_el = dir_to_angles(u_r)
    return PwaPath(
        gain=path.gain,
        delay=path.delay,
        aoa_az=aoa_az,
        aoa_el=aoa_el,
        aod_az=aod_az,
        aod_el=aod_el,
    )
