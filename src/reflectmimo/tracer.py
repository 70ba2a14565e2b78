"""Image-method specular ray tracer over planar rectangular facets.

Serves as the ground-truth generator for synthetic scenes: it enumerates
ordered facet sequences up to a bounce limit, constructs each candidate route
by mirroring the receiver through the facet planes in reverse order, and
keeps the route only if every interaction point lies inside its facet, hits
the reflective side, and no segment is blocked by another facet.

Path gains follow free-space spreading over the full route length with a
fixed per-bounce reflection loss; the phase is referenced to the scene
carrier. The inner loop works on the plain float triples each Facet keeps
next to its arrays, through Facet.reflect, contains and crossing: it runs
once per element pair in exhaustive MIMO sweeps, where numpy call overhead
dominates.
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
    "trace_paths",
    "trace_sequence",
]

MAX_BOUNCES = 3

# Segment parameter slack excluding a segment's own endpoints from
# intersection/occlusion tests.
_T_EPS = 1e-9


@dataclass(frozen=True)
class Facet:
    """Rectangular (or unbounded) planar reflector.

    axis_u and axis_v are orthonormal in-plane directions; the facet normal is
    their cross product and reflections are accepted from the normal side only
    unless two_sided is set. half_u / half_v are half-extents in meters along
    the two axes; None means unbounded in that direction.

    Facets are immutable, fields and arrays alike. Each facet also keeps its
    center, axes and normal as plain float triples, which reflect, contains
    and crossing read in the trace loop.
    """

    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    half_u: float | None = None
    half_v: float | None = None
    two_sided: bool = False
    normal: np.ndarray = field(init=False)
    intercept: float = field(init=False)
    _center: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    _axis_u: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    _axis_v: tuple[float, float, float] = field(init=False, repr=False, compare=False)
    _normal: tuple[float, float, float] = field(init=False, repr=False, compare=False)

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

    def reflect(self, p) -> tuple[float, float, float]:
        """Mirror image of point p across the facet plane, as a float triple."""
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
# flat float3 helpers for the trace inner loop


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
    txf = _f3(tx)
    rxf = _f3(rx)

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
    if not 0 <= max_bounces <= MAX_BOUNCES:
        raise ValueError(
            f"max_bounces must be between 0 and {MAX_BOUNCES}, got {max_bounces}"
        )
    facets = scene.facets
    txf = _f3(tx)
    rxf = _f3(rx)

    routes = []
    if _dist(txf, rxf) > 1e-12 and not _segment_blocked(facets, txf, rxf):
        routes.append(Route(np.array([txf, rxf]), ()))
    for seq in _sequences(len(scene.facets), max_bounces):
        r = trace_sequence(scene, seq, tx, rx)
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
