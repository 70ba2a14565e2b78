"""Image-method specular ray tracer over planar rectangular facets.

Serves as the ground-truth generator for synthetic scenes: it enumerates
ordered facet sequences up to a bounce limit, constructs each candidate route
by mirroring the receiver through the facet planes in reverse order, and
keeps the route only if every interaction point lies inside its facet, hits
the reflective side, and no segment is blocked by another facet.

Path gains follow free-space spreading over the full route length with a
fixed per-bounce reflection loss; the phase is referenced to the scene
carrier. Two tracers share one set of rules:

* ``trace_paths`` traces one TX/RX pair. Its inner loop works on the plain
  float triples each Facet keeps next to its arrays, through Facet.reflect,
  contains and crossing, because numpy call overhead dominates at one pair.
* ``trace_pairs`` traces every pair of a TX and an RX array at once: for a
  fixed facet sequence the unfolding, bounds, side and occlusion tests are
  the same arithmetic for every pair, so each runs once per sequence on
  (M, N) coordinate arrays, through Facet.reflect, contains_batch and
  crossing_batch. It gives the same delays, bit for bit.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import dir_to_angles, unit
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
    triples, which reflect, contains and crossing read in the trace loop;
    contains_batch and crossing_batch are their forms for triples of
    coordinate arrays.
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

    def reflect(self, p):
        """Mirror image of point p across the facet plane.

        p is a float triple or a triple of coordinate arrays; the image is
        the same kind of triple.
        """
        n = self._normal
        d = 2.0 * (_dot(n, p) - self.intercept)
        return (p[0] - d * n[0], p[1] - d * n[1], p[2] - d * n[2])

    def contains(self, p) -> bool:
        """True when in-plane point p lies within the facet bounds."""
        rel = _sub(p, self._center)
        if self.half_u is not None and abs(_dot(rel, self._axis_u)) > self.half_u + _T_EPS:
            return False
        if self.half_v is not None and abs(_dot(rel, self._axis_v)) > self.half_v + _T_EPS:
            return False
        return True

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

    def contains_batch(self, p):
        """contains for a triple of coordinate arrays: a boolean array, or
        True when the facet is unbounded."""
        rel = _sub(p, self._center)
        inside = True
        if self.half_u is not None:
            inside = np.abs(_dot(rel, self._axis_u)) <= self.half_u + _T_EPS
        if self.half_v is not None:
            inside = inside & (np.abs(_dot(rel, self._axis_v)) <= self.half_v + _T_EPS)
        return inside

    def crossing_batch(self, p, step):
        """crossing for triples of coordinate arrays.

        Returns (hit point, normal . step, mask of the segments that cross);
        the hit point is only meaningful where the mask is set.
        """
        n = self._normal
        denom = n[0] * step[0] + n[1] * step[1] + n[2] * step[2]
        crosses = denom != 0.0
        t = np.divide(
            self.intercept - (n[0] * p[0] + n[1] * p[1] + n[2] * p[2]),
            denom,
            out=np.zeros(np.shape(denom)),
            where=crosses,
        )
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
    """A traced route with its complex gain and absolute delay."""

    route: Route
    gain: complex
    delay: float

    def __post_init__(self) -> None:
        length = route_length(self.route)
        if abs(self.delay * C_LIGHT - length) > 1e-12 * max(1.0, length):
            raise ValueError("delay is inconsistent with the route length")

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


def _dist(a, b) -> float:
    dx = a[0] - b[0]
    dy = a[1] - b[1]
    dz = a[2] - b[2]
    return math.sqrt(dx * dx + dy * dy + dz * dz)


def _segment_blocked(facets: tuple[Facet, ...], p, q) -> bool:
    """True when the open segment p->q crosses any facet rectangle."""
    step = _sub(q, p)
    for f in facets:
        cross = f.crossing(p, step)
        if cross is not None and f.contains(cross[0]):
            return True
    return False


def _check_bounces(max_bounces: int) -> None:
    if not 0 <= max_bounces <= MAX_BOUNCES:
        raise ValueError(
            f"max_bounces must be between 0 and {MAX_BOUNCES}, got {max_bounces}"
        )


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
    for idx in sequence:
        if not 0 <= idx < len(scene.facets):
            raise ValueError(f"facet index {idx} out of range")
    return _trace_sequence(
        scene.facets, sequence, _f3(tx), _f3(rx), check_bounds, check_side, check_occlusion
    )


def _trace_sequence(
    facets: tuple[Facet, ...],
    sequence: tuple[int, ...],
    txf: tuple[float, float, float],
    rxf: tuple[float, float, float],
    check_bounds: bool = True,
    check_side: bool = True,
    check_occlusion: bool = True,
) -> Route | None:
    """trace_sequence for valid facet indices and float-triple endpoints."""
    # images[k] is the receiver mirrored through facets sequence[k:]; it is
    # the aim point for the segment arriving at interaction k.
    images = [rxf]
    for idx in reversed(sequence):
        images.insert(0, facets[idx].reflect(images[0]))

    points = []
    p = txf
    for k, idx in enumerate(sequence):
        f = facets[idx]
        cross = f.crossing(p, _sub(images[k], p))
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
            if _segment_blocked(facets, a, b):
                return None
    return Route(np.array(vertices), tuple(sequence))


def _sequences(n_facets: int, max_bounces: int):
    for bounces in range(1, max_bounces + 1):
        for seq in itertools.product(range(n_facets), repeat=bounces):
            # Two consecutive hits on the same plane can never be specular.
            if any(a == b for a, b in zip(seq, seq[1:])):
                continue
            yield seq


def trace_paths(
    scene: Scene, tx: np.ndarray, rx: np.ndarray, max_bounces: int = 2
) -> list[TracedPath]:
    """All specular paths between tx and rx up to max_bounces reflections.

    Includes the line-of-sight path when unobstructed. Paths are returned
    sorted by descending gain magnitude. Coplanar facets that meet or overlap
    can both accept the same specular point; such a path is returned once,
    under the first facet sequence that produced it.
    """
    _check_bounces(max_bounces)
    facets = scene.facets
    txf = _f3(tx)
    rxf = _f3(rx)

    routes = []
    if _dist(txf, rxf) > 1e-12 and not _segment_blocked(facets, txf, rxf):
        routes.append(Route(np.array([txf, rxf]), ()))
    for seq in _sequences(len(facets), max_bounces):
        r = _trace_sequence(facets, seq, txf, rxf)
        if r is not None:
            routes.append(r)

    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)
    paths = []
    for r in routes:
        length = route_length(r)
        # Same bounce count and vertices within 1e-9 of the route length.
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
        paths.append(
            TracedPath(route=r, gain=amp * cmath.exp(1j * phase), delay=length / C_LIGHT)
        )
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


# ---------------------------------------------------------------------------
# every TX/RX element pair at once


def _coordinates(points, name: str, axis: int) -> tuple[np.ndarray, ...]:
    """The x, y, z columns of an (K, 3) point array, each with a new axis
    inserted at `axis`, so TX (axis 0) and RX (axis 1) columns broadcast to
    (M, N)."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3 or pts.shape[0] < 1:
        raise ValueError(f"{name} must have shape (K, 3) with K >= 1")
    return tuple(np.expand_dims(np.ascontiguousarray(c), axis) for c in pts.T)


def _unfold_batch(facets: tuple[Facet, ...], sequence: tuple[int, ...], tx, rx):
    """Interaction points of one facet sequence for every pair, and the mask
    of pairs whose points pass the crossing, bounds and side tests of
    _trace_sequence; None as soon as no pair passes."""
    images = [rx]
    for idx in reversed(sequence):
        images.insert(0, facets[idx].reflect(images[0]))

    points = []
    valid = True
    p = tx
    for k, idx in enumerate(sequence):
        f = facets[idx]
        hit, denom, valid_k = f.crossing_batch(p, _sub(images[k], p))
        valid = valid & valid_k & f.contains_batch(hit)
        if not f.two_sided:
            valid &= denom < 0.0
        if not valid.any():
            return None
        points.append(hit)
        p = hit
    return points, valid


def _blocked_batch(facets: tuple[Facet, ...], p, q):
    """_segment_blocked for every pair: mask of the open segments p->q that
    cross a facet rectangle."""
    step = _sub(q, p)
    blocked = np.zeros(np.shape(step[0]), dtype=bool)
    for f in facets:
        hit, _, crosses = f.crossing_batch(p, step)
        if crosses.any():
            blocked |= crosses & f.contains_batch(hit)
    return blocked


def trace_pairs(
    scene: Scene, tx_points: np.ndarray, rx_points: np.ndarray, max_bounces: int = 2
) -> list[tuple[tuple[int, ...], np.ndarray, np.ndarray]]:
    """trace_paths for every pair of N transmitters and M receivers at once.

    tx_points is (N, 3) and rx_points (M, 3). Each facet sequence, line of
    sight first and then in trace_paths' order, is unfolded, bounds-, side-
    and occlusion-tested over all pairs as (M, N) arrays. Returns one
    (facet sequence, gains, delays) entry per sequence that has a path for
    at least one pair; gains (complex) and delays are (M, N), indexed
    [rx][tx], and zero where the pair has no route under that sequence.
    Per pair, the routes are those of trace_paths, the seam rule included:
    the delays are equal bit for bit and the gains to rounding.
    """
    _check_bounces(max_bounces)
    facets = scene.facets
    tx = _coordinates(tx_points, "tx_points", 0)
    rx = _coordinates(rx_points, "rx_points", 1)
    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)

    traced = []
    for seq in itertools.chain([()], _sequences(len(facets), max_bounces)):
        if seq:
            unfolded = _unfold_batch(facets, seq, tx, rx)
            if unfolded is None:
                continue
            points, valid = unfolded
        else:
            gap = _sub(tx, rx)
            points, valid = [], np.sqrt(_dot(gap, gap)) > 1e-12
        vertices = [tx, *points, rx]
        for a, b in zip(vertices[:-1], vertices[1:]):
            if not valid.any():
                break
            valid = valid & ~_blocked_batch(facets, a, b)
        if not valid.any():
            continue

        # route_length's arithmetic: per-segment norms, summed in order
        length = 0.0
        for a, b in zip(vertices[:-1], vertices[1:]):
            step = _sub(b, a)
            length = length + np.sqrt(_dot(step, step))
        # The seam rule of trace_paths, per pair: drop the route where an
        # earlier route with as many bounces has the same length and
        # vertices within 1e-9 of it. Their points are unfolded again only
        # when some pair has an equal length.
        tol = 1e-9 * np.maximum(1.0, length)
        for prev_seq, _, prev_delays in traced:
            if len(prev_seq) != len(seq):
                continue
            same = valid & (prev_delays > 0.0)
            same &= np.abs(prev_delays * C_LIGHT - length) <= tol
            if not same.any():
                continue
            prev_points, _ = _unfold_batch(facets, prev_seq, tx, rx)
            for a, b in zip(prev_points, points):
                for ca, cb in zip(a, b):
                    same &= np.abs(ca - cb) <= tol
            valid &= ~same
        if not valid.any():
            continue

        length = length[valid]
        amp = scene.wavelength / (4.0 * math.pi * length) * loss_amp ** len(seq)
        phase = -2.0 * math.pi * scene.carrier_freq * length / C_LIGHT
        gains = np.zeros(valid.shape, dtype=complex)
        delays = np.zeros(valid.shape)
        gains[valid] = amp * np.exp(1j * phase)
        delays[valid] = length / C_LIGHT
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
