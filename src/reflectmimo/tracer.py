"""Image-method specular ray tracer over planar rectangular facets.

Serves as the ground-truth generator for synthetic scenes. It walks the
ordered facet sequences up to a bounce limit as a tree keyed by suffix
(_walk), so sequences with a common suffix share their receiver images. The
walk skips only sequences that unfolding would reject: it cuts a subtree
where an image lies behind a one-sided facet (Borish 1984) or where two
facets face away from each other (a facet-pair table kept by each Scene),
and unfolds a sequence only when TX faces its first facet and, tracing one
pair, when the aim image lies in the cone from TX's mirror through that
facet (the beam of Funkhouser et al. 1998, at its first reflection). Each
route is unfolded towards those images and kept only if every interaction
point lies inside its facet, hits the reflective side, and no segment is
blocked by another facet. The kept sequences are sorted (line of sight,
bounce count, lexicographic) before the seam rule and the gains, so the
output is that of trying every sequence in that order. Gains follow
free-space spreading over the route length with a fixed per-bounce loss,
phase referenced to the scene carrier. Each traced path keeps its scene, so
its mirror image (U, g) composes from the planes of the facets it meets.
Two tracers share the walk and these rules:

* ``trace_paths`` traces one TX/RX pair on the plain float triples each
  Facet keeps next to its arrays, because numpy call overhead dominates at
  one pair.
* ``trace_pairs`` traces many pairs at once, TX and RX point arrays whose
  leading axes broadcast (paired endpoints, or every pair of two arrays):
  for a fixed facet sequence the unfolding, bounds, side and occlusion
  tests are the same arithmetic for every pair, so each runs once per
  sequence on coordinate arrays of the broadcast shape. It gives the same
  delays, bit for bit.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .geometry import dir_to_angles, unit
from .paths import C_LIGHT, PwaPath, ReferencePair, RmImage

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

# How far the tests that must keep every point contains accepts, the
# occlusion boxes and the culls of _walk, pad a facet's rectangle. _T_EPS is
# the bounds slack; 2 _T_EPS more covers the rounding of a hit point, off
# its plane and along its segment: a few ulps of the coordinates, grown by
# 1 / sin of the angle between segment and plane. That holds on segments up
# to ~1e6 m at steep incidence, and on 100 m segments down to ~1e-4 rad.
_PAD = 3 * _T_EPS


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
            reach = np.abs(axis_u) * self.half_u + np.abs(axis_v) * self.half_v + _PAD
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
    """Facet collection plus the carrier frequency and per-bounce loss.

    Each scene also keeps, for every facet g, the indices of the facets f
    that may come straight before g in a route (_predecessors): f != g, and
    the segment from f to g can leave f's reflective side and arrive on g's
    (see _faces).
    """

    facets: tuple[Facet, ...]
    carrier_freq: float
    reflection_loss_db: float = 3.0
    _predecessors: tuple[tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        if not (math.isfinite(self.carrier_freq) and self.carrier_freq > 0.0):
            raise ValueError("carrier frequency must be positive")
        if self.reflection_loss_db < 0.0:
            raise ValueError("reflection loss must be non-negative (dB)")
        predecessors = tuple(
            tuple(
                i
                for i, f in enumerate(facets)
                if i != j and _faces(f, g) and _faces(g, f)
            )
            for j, g in enumerate(facets)
        )
        object.__setattr__(self, "_predecessors", predecessors)

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
    """A traced route with its complex gain and absolute delay, length / c,
    and the scene trace_paths traced it in (None for routes from exports)."""

    route: Route
    gain: complex
    delay: float
    scene: Scene | None = None

    @property
    def bounces(self) -> int:
        return self.route.bounces

    @property
    def image(self) -> RmImage | None:
        """Mirror image (U, g) of the route's facets, composed from their
        planes in the scene on each call; None without a scene or facet ids,
        as for routes from exports, whose image fit_from_route reads off the
        bends."""
        ids = self.route.facet_ids
        if self.scene is None or ids is None:
            return None
        facets = self.scene.facets
        return RmImage.from_planes((facets[i]._normal, facets[i].intercept) for i in ids)


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


def _faces(f: Facet, g: Facet) -> bool:
    """False only when no route segment between a point of f and a point of
    g can lie in front of f, as one that leaves or meets a one-sided f must.

    The end on g lies within g's rectangle up to contains' slack, off g's
    plane by rounding, and in front of f up to rounding. So it suffices that
    some corner of g's rectangle, padded by _PAD along both axes and the
    normal, lies strictly in front of f. Always true for a two-sided f and
    an unbounded g.
    """
    if f.two_sided or g.half_u is None or g.half_v is None:
        return True
    n = f._normal
    ahead = _dot(n, _sub(g._center, f._center))
    ahead += (g.half_u + _PAD) * abs(_dot(n, g._axis_u))
    ahead += (g.half_v + _PAD) * abs(_dot(n, g._axis_v))
    return ahead + _PAD * abs(_dot(n, g._normal)) > 0.0


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


def _walk(scene: Scene, rx, max_bounces: int, ops: _Ops, reaches):
    """Depth-first walk of the facet-sequence tree, keyed by suffix.

    Yields (sequence, images) for the sequences that can have a route, line
    of sight () first; images[k] is rx mirrored through sequence[k:], the aim
    point of the segment arriving at interaction k. A child puts facet f in
    front of its node and mirrors the node's images[0] through f. Three
    culls, each of which skips only sequences that _unfold rejects (their
    margins pad facets by _PAD, which covers _unfold's rounding):

    * f goes in front of the node's first facet only if the scene lists it
      as a predecessor (Scene._predecessors), which also excludes that
      facet itself: two consecutive hits on one facet are never specular.
    * A one-sided f is cut, with its subtree, unless images[0], where the
      segment leaving f heads, is strictly in front of it.
    * reaches(f, aim) tells whether a route from TX can meet facet f first
      and leave it towards aim. A node is yielded only when it holds for its
      first facet and images[1]; a child at the bounce limit that fails it
      is not pushed at all.

    On arrays, a test passes when it passes for any pair.
    """
    if not 0 <= max_bounces <= MAX_BOUNCES:
        raise ValueError(f"max_bounces must be between 0 and {MAX_BOUNCES}, got {max_bounces}")
    facets = scene.facets
    predecessors = scene._predecessors
    any_ = ops.any
    stack = [((), (rx,), True)]
    while stack:
        seq, images, reached = stack.pop()
        if reached:
            yield seq, images
        depth = len(seq) + 1
        if depth > max_bounces:
            continue
        aim = images[0]
        for idx in predecessors[seq[0]] if seq else range(len(facets)):
            f = facets[idx]
            if f.two_sided or any_(_dot(f._normal, aim) > f.intercept):
                reached = reaches(idx, aim)
                if reached or depth < max_bounces:
                    stack.append(((idx, *seq), (f.reflect(aim), *images), reached))


def _faced(facets: tuple[Facet, ...], tx, ops: _Ops) -> list:
    """For each facet, whether a route from TX can meet it first: it is
    two-sided, or TX is strictly in front of it."""
    return [f.two_sided or ops.any(_dot(f._normal, tx) > f.intercept) for f in facets]


def _tx_cones(facets: tuple[Facet, ...], tx):
    """reaches for _walk from the float triple tx: _faced, plus a cone.

    A route meets facet f first where the segment from tx to the mirror of
    aim crosses f's plane, which is where the segment from f.reflect(tx) to
    aim does. So aim must lie in the cone from f.reflect(tx) through f's
    rectangle padded by _PAD. In f's frame, let TX lie at height h and
    in-plane coordinates (a_u, a_v), and aim at height z and (x_u, x_v). The
    crossing lies at (a_u z + h x_u) / (h + z) along u, so the cone's four
    side planes read

        |a_u z + h x_u| <= (half_u + _PAD) s (h + z),  and the same along v,

    with s the sign of h. s (h + z) is negative, and the test fails, when
    aim lies beyond f's plane from TX, where no route heads after meeting f.
    The test rounds like _unfold's crossing, which _PAD covers. TX within
    _PAD of f's plane gets no cone, and neither does an unbounded f.
    """
    cones = []
    for f, faced in zip(facets, _faced(facets, tx, _FLOAT_OPS)):
        rel = _sub(tx, f._center)
        h = _dot(rel, f._normal)
        if not faced or abs(h) <= _PAD or (f.half_u is None and f.half_v is None):
            cones.append(faced)
        else:
            cones.append((h, _dot(rel, f._axis_u), _dot(rel, f._axis_v)))

    def reaches(idx, aim):
        cone = cones[idx]
        if cone.__class__ is bool:
            return cone
        h, a_u, a_v = cone
        f = facets[idx]
        c, n = f._center, f._normal
        dx, dy, dz = aim[0] - c[0], aim[1] - c[1], aim[2] - c[2]
        z = n[0] * dx + n[1] * dy + n[2] * dz
        d = h + z if h > 0.0 else -h - z
        if f.half_u is not None:
            u = f._axis_u
            x_u = u[0] * dx + u[1] * dy + u[2] * dz
            if abs(a_u * z + h * x_u) > (f.half_u + _PAD) * d:
                return False
        if f.half_v is not None:
            v = f._axis_v
            x_v = v[0] * dx + v[1] * dy + v[2] * dz
            return abs(a_v * z + h * x_v) <= (f.half_v + _PAD) * d
        return True

    return reaches


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
    skips only sequences that unfolding rejects, so the paths are those of
    trying every sequence. They are sorted by descending gain magnitude, ties
    in sequence order (line of sight, bounce count, lexicographic). Coplanar
    facets that meet or overlap can both accept the same specular point; such
    a path is returned once, under the first facet sequence in that order.
    """
    facets = scene.facets
    txf = _f3(tx)
    walk = _walk(scene, _f3(rx), max_bounces, _FLOAT_OPS, _tx_cones(facets, txf))
    unfolded = ((seq, _unfold(facets, seq, images, txf)) for seq, images in walk)
    # vertex arrays, kept as the routes: as float tuples they would double
    # the memory of the accepted routes
    accepted = [(seq, np.array(v), True) for seq, v in unfolded if v is not None]
    paths = []
    for seq, vertices, _, length in _kept(accepted, _FLOAT_OPS):
        route = Route(vertices, seq)
        gain = _gain(scene, length, len(seq), _FLOAT_OPS)
        paths.append(TracedPath(route=route, gain=gain, delay=length / C_LIGHT, scene=scene))
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


# ---------------------------------------------------------------------------
# many TX/RX pairs at once, on broadcast coordinate arrays


def _coordinates(tx_points, rx_points) -> tuple[tuple[np.ndarray, ...], ...]:
    """The x, y, z columns of the TX and RX point arrays, no axis inserted.

    Each array is (..., 3) with at least one leading axis and one point, and
    the two leading shapes must broadcast: the broadcast shape is that of
    every per-pair array of trace_pairs.
    """
    columns = []
    for name, points in (("tx_points", tx_points), ("rx_points", rx_points)):
        pts = np.asarray(points, dtype=float)
        if pts.ndim < 2 or pts.shape[-1] != 3 or pts.size == 0:
            raise ValueError(f"{name} must have shape (..., 3) with at least one point")
        columns.append(tuple(np.ascontiguousarray(pts[..., k]) for k in range(3)))
    tx, rx = columns
    try:
        np.broadcast_shapes(tx[0].shape, rx[0].shape)
    except ValueError:
        raise ValueError(
            f"tx_points {tx[0].shape} and rx_points {rx[0].shape} do not broadcast"
        ) from None
    return tx, rx


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
    """trace_paths for many TX/RX pairs at once.

    tx_points and rx_points are (..., 3) point arrays, each with at least
    one leading axis; their leading shapes broadcast against each other,
    and each element of the broadcast shape is one pair. Two (S, 3) arrays
    are S paired endpoints; tx_points[None, :] (1, N, 3) against
    rx_points[:, None] (M, 1, 3) is every pair of two arrays, as (M, N)
    indexed [rx][tx]. The suffix walk of trace_paths, without its cones,
    cuts a subtree only when no pair passes; each sequence is unfolded,
    bounds-, side- and occlusion-tested over all pairs as arrays of the
    broadcast shape.
    Returns one (facet sequence, gains, delays) entry per sequence with a
    path for some pair, in sequence order; gains (complex) and delays have
    the broadcast shape and are zero where the pair has no route under that
    sequence. Per pair, the routes are those of trace_paths, the seam rule
    included: the delays are equal bit for bit and the gains to rounding.
    """
    facets = scene.facets
    tx, rx = _coordinates(tx_points, rx_points)
    faced = _faced(facets, tx, _ARRAY_OPS)
    walk = _walk(scene, rx, max_bounces, _ARRAY_OPS, lambda idx, aim: faced[idx])
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


def _in_path_order(traced, shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """trace_pairs' entries as (P, *shape) gains and delays, with each pair's
    paths in trace_paths' order: descending gain magnitude, then delay,
    stable over sequence order. A pair with fewer than P paths ends in
    zeros, which sort last."""
    gains = np.array([g for _, g, _ in traced], dtype=complex).reshape(-1, *shape)
    delays = np.array([d for _, _, d in traced], dtype=float).reshape(-1, *shape)
    order = np.lexsort((delays, -np.abs(gains)), axis=0)
    return np.take_along_axis(gains, order, axis=0), np.take_along_axis(delays, order, axis=0)


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
