"""Image-method specular ray tracer over planar rectangular facets.

Serves as the ground-truth generator for synthetic scenes. It walks the
ordered facet sequences up to a bounce limit as a tree keyed by suffix
(_walk), so sequences with a common suffix share their receiver images. The
walk skips only sequences that unfolding would reject, by four culls: it
cuts a subtree where an image lies behind a one-sided facet (Borish 1984)
or where two facets face away from each other (the one facet-pair table of
each Scene), and yields a sequence only when TX faces its first facet and,
tracing one pair, when the beam from TX's mirror through that facet holds
the aim image and crosses the second facet inside its rectangle (the beam
of Funkhouser et al. 1998, checked at its first two reflections). What
these culls read of a facet, or of a pair of facets, the Scene keeps from
construction; a trace adds only three floats per bounded facet, TX's view
of it (_view, by which the walk also sees each aim). Each yielded sequence
is unfolded towards those images, and its route kept only if every
interaction point lies inside its facet, hits the reflective side, and no
segment is blocked by a facet other than those it starts and ends on. The
kept sequences are sorted (line of sight, bounce count, lexicographic)
before the seam rule and the gains, so the output is that of trying every
sequence in that order. Gains follow free-space spreading over the route
length with a fixed per-bounce loss, phase referenced to the scene
carrier. Each traced path keeps its scene, so its mirror image (U, g)
composes from the planes of the facets it meets.
Two tracers share the walk and these rules:

* ``trace_paths`` traces one TX/RX pair on plain floats: the flat record
  the Scene builds for each facet, unpacked into locals, because numpy
  call and attribute overhead dominate at one pair. Its unfolding writes
  the crossing, bounds, side and occlusion tests out inline and measures
  the route length on the way. Its routes and paths, trace_sequence's routes
  and TracedPath.image's images skip the constructors' re-checks (_record).
* ``trace_pairs`` traces many pairs at once, TX and RX point arrays whose
  leading axes broadcast (paired endpoints, or every pair of two arrays):
  for a fixed facet sequence the unfolding, bounds, side and occlusion
  tests are the same arithmetic for every pair, so each runs once per
  sequence on coordinate arrays of the broadcast shape. It gives the same
  delays, bit for bit. Per pair it holds, besides its output (a complex
  gain and a delay per sequence, 24 bytes), the hit points of each accepted
  route (24 bytes a bounce) with its length and mask (9 bytes), and at
  most about 41 bytes of scratch: a crossing's parameter t, its two
  in-plane offsets, and one coordinate array and one product at a time;
  steps and offsets are never held as coordinate triples. One call on
  16 x 16 UPAs against 16 x 16 in the blocked demo peaks near 68 bytes a
  pair.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .geometry import _at_least, _complex, _dir_angles, _real, _record, _unit3, as_points, unit
from .paths import _DELAY_MESSAGE, _GAIN_MESSAGE, _MAX_DELAY, C_LIGHT, PwaPath, ReferencePair
from .paths import RmImage, _delay, _mirrored

__all__ = [
    "MAX_BOUNCES",
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

# How far the tests that must keep every point the bounds test accepts, the
# occlusion boxes and the culls of _walk, pad a facet's rectangle. _T_EPS is
# the bounds slack; 2 _T_EPS more covers the rounding of a hit point, off
# its plane and along its segment: a few ulps of the coordinates, grown by
# 1 / sin of the angle between segment and plane. That holds on segments up
# to ~1e6 m at steep incidence, and on 100 m segments down to ~1e-4 rad.
_PAD = 3 * _T_EPS


# The plain floats of a facet in Scene._flats, which the trace loops unpack
# into locals: the reflective side, the plane n . x = b, the centre, the
# in-plane axes, the half-extents (None when unbounded) and the axis-aligned
# box, low corner then high, of the points the bounds test accepts, for the
# occlusion test's quick reject (infinite unless bounded along both axes).
_Flat = namedtuple("_Flat", "two_sided nx ny nz b cx cy cz ux uy uz vx vy vz half_u half_v box")


@dataclass(frozen=True, eq=False)
class Facet:
    """Rectangular (or unbounded) planar reflector.

    axis_u and axis_v are orthonormal in-plane directions; the facet normal is
    their cross product and reflections are accepted from the normal side only
    unless two_sided is set. half_u / half_v are half-extents in meters along
    the two axes; None means unbounded in that direction.

    A facet is a plain record of its validated geometry: the mirror,
    crossing, bounds and side tests are the tracer's functions, on the flat
    record of plain floats (_Flat) each Scene builds from it. Facets are
    immutable, fields and arrays alike, and compare by identity. two_sided
    must be a bool (numpy's included) and is kept as a Python bool; a
    half-extent other than None is a positive real, checked and kept as a
    float by geometry._real.
    """

    center: np.ndarray
    axis_u: np.ndarray
    axis_v: np.ndarray
    half_u: float | None = None
    half_v: float | None = None
    two_sided: bool = False
    normal: np.ndarray = field(init=False)
    intercept: float = field(init=False)

    def __post_init__(self) -> None:
        center = np.array(as_points(self.center, "center", 1))  # a copy, made read-only below
        axis_u = unit(as_points(self.axis_u, "axis_u", 1))
        axis_v = unit(as_points(self.axis_v, "axis_v", 1))
        if abs(float(axis_u @ axis_v)) > 1e-9:
            raise ValueError("facet axes must be orthogonal")
        for name in ("half_u", "half_v"):
            if (half := getattr(self, name)) is not None:
                half = _real(half, f"facet {name} must be a positive number, got ", above=0.0)
                object.__setattr__(self, name, half)
        if not isinstance(self.two_sided, (bool, np.bool_)):  # bool("false") is True
            raise ValueError(f"facet two_sided must be true or false, got {self.two_sided!r}")
        object.__setattr__(self, "two_sided", bool(self.two_sided))
        normal = np.cross(axis_u, axis_v)
        arrays = {"center": center, "axis_u": axis_u, "axis_v": axis_v, "normal": normal}
        for name, value in arrays.items():
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "intercept", float(normal @ center))


def _flat(f: Facet) -> _Flat:
    """The flat record of facet f, its box padded by _PAD."""
    box = (-math.inf,) * 3 + (math.inf,) * 3
    if f.half_u is not None and f.half_v is not None:
        reach = np.abs(f.axis_u) * f.half_u + np.abs(f.axis_v) * f.half_v + _PAD
        box = _f3(f.center - reach) + _f3(f.center + reach)
    return _Flat(
        f.two_sided, *_f3(f.normal), f.intercept, *_f3(f.center), *_f3(f.axis_u),
        *_f3(f.axis_v), f.half_u, f.half_v, box,
    )


def make_facet(
    center: np.ndarray,
    normal: np.ndarray,
    half_u: float | None = None,
    half_v: float | None = None,
    two_sided: bool = False,
) -> Facet:
    """Build a facet from its center and normal, choosing in-plane axes."""
    n = unit(as_points(normal, "normal", 1))
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
    """Facet collection plus the carrier frequency and per-bounce loss,
    real numbers checked and stored as floats by geometry._real.

    Each scene builds every facet's flat record (_Flat) once, into _flats.
    For _walk's culls it keeps each facet's plane (two_sided, nx, ny, nz, b)
    in _planes; in _frames its axes, each with its dot product with the
    centre (ux, uy, uz, u . c, vx, vy, vz, v . c), and its half-extents
    padded by _PAD; and in _turns its one facet-pair table: for each facet
    g, a dict whose keys are the facets f that may come straight before g
    in a route, in ascending index (f != g, and the segment from f to g can
    leave f's reflective side and arrive on g's, see _faces), and whose
    values are the dot products of g's normal and axes with f's normal.
    """

    facets: tuple[Facet, ...]
    carrier_freq: float
    reflection_loss_db: float = 3.0
    _flats: tuple[_Flat, ...] = field(init=False, repr=False)
    _planes: tuple[tuple, ...] = field(init=False, repr=False)
    _frames: tuple[tuple, ...] = field(init=False, repr=False)
    _turns: tuple[dict[int, tuple], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        facets = tuple(self.facets)
        object.__setattr__(self, "facets", facets)
        carrier = _real(self.carrier_freq, "carrier frequency must be positive, got ", above=0.0)
        message = "reflection loss must be non-negative (dB), got "
        loss = _real(self.reflection_loss_db, message, least=0.0)
        object.__setattr__(self, "carrier_freq", carrier)
        object.__setattr__(self, "reflection_loss_db", loss)
        flats = tuple(map(_flat, facets))
        object.__setattr__(self, "_flats", flats)
        object.__setattr__(self, "_planes", tuple(f[:5] for f in flats))
        object.__setattr__(self, "_frames", tuple(map(_frame, flats)))
        turns = tuple(
            {i: _turn(f, g) for i, f in enumerate(flats)
             if i != j and _faces(f, g) and _faces(g, f)}
            for j, g in enumerate(flats)
        )
        object.__setattr__(self, "_turns", turns)

    @property
    def wavelength(self) -> float:
        return C_LIGHT / self.carrier_freq


@dataclass(frozen=True, eq=False, slots=True)
class Route:
    """Polyline of a path: TX first, interaction points, RX last.

    facet_ids lists the facet index of each interaction; it is None for
    routes loaded from external exports that do not carry facet identities.
    Construction checks both; trace_paths' and trace_sequence's routes skip it (_record).
    """

    vertices: np.ndarray
    facet_ids: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        v = as_points(self.vertices, "vertices", 2)
        if v.shape[0] < 2:
            raise ValueError(f"vertices must hold at least the TX and RX points, got {v.shape}")
        object.__setattr__(self, "vertices", v)
        if self.facet_ids is not None:
            message = "facet_ids must hold facet indices"
            ids = tuple(_at_least(i, 0, message) for i in self.facet_ids)
            if len(ids) != v.shape[0] - 2:
                raise ValueError("facet_ids must name every interaction point")
            object.__setattr__(self, "facet_ids", ids)

    @property
    def bounces(self) -> int:
        return self.vertices.shape[0] - 2


@dataclass(frozen=True, eq=False, slots=True)
class TracedPath:
    """A traced route with its complex gain and absolute delay, length / c,
    and the scene trace_paths traced it in (None for routes from exports).
    Construction checks gain and delay as PwaPath does; trace_paths skips it."""

    route: Route
    gain: complex
    delay: float
    scene: Scene | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "gain", _complex(self.gain, _GAIN_MESSAGE))
        object.__setattr__(self, "delay", _delay(self.delay))

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
        planes = self.scene._planes  # unit normals: Facet checked them
        return _record(RmImage, *_mirrored((planes[i][1:4], planes[i][4]) for i in ids))


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


def _mirror(p, d, nx, ny, nz):
    """p moved by d against the unit normal (nx, ny, nz): its mirror image
    through a plane of that normal when d is twice its height above it. p is
    a float triple or a triple of coordinate arrays."""
    return (p[0] - d * nx, p[1] - d * ny, p[2] - d * nz)


def _frame(f: _Flat) -> tuple:
    """Scene._frames' entry of facet record f."""
    centre = (f.cx, f.cy, f.cz)
    u, v = (f.ux, f.uy, f.uz), (f.vx, f.vy, f.vz)
    halves = tuple(None if h is None else h + _PAD for h in (f.half_u, f.half_v))
    return (*u, _dot(u, centre), *v, _dot(v, centre), *halves)


def _turn(f: _Flat, g: _Flat) -> tuple[float, float, float]:
    """Scene._turns' entry of facet record f before g: the dot products of
    g's normal, u and v axes with f's normal."""
    n = (f.nx, f.ny, f.nz)
    return _dot((g.nx, g.ny, g.nz), n), _dot((g.ux, g.uy, g.uz), n), _dot((g.vx, g.vy, g.vz), n)


def _faces(f: _Flat, g: _Flat) -> bool:
    """False only when no route segment between a point of facet f and a
    point of facet g can lie in front of f, as one that leaves or meets a
    one-sided f must.

    The end on g lies within g's rectangle up to the bounds slack, off g's
    plane by rounding, and in front of f up to rounding. So it suffices that
    some corner of g's rectangle, padded by _PAD along both axes and the
    normal, lies strictly in front of f. Always true for a two-sided f and
    an unbounded g.
    """
    if f.two_sided or g.half_u is None or g.half_v is None:
        return True
    n = (f.nx, f.ny, f.nz)
    ahead = _dot(n, (g.cx - f.cx, g.cy - f.cy, g.cz - f.cz))
    ahead += (g.half_u + _PAD) * abs(_dot(n, (g.ux, g.uy, g.uz)))
    ahead += (g.half_v + _PAD) * abs(_dot(n, (g.vx, g.vy, g.vz)))
    return ahead + _PAD * abs(_dot(n, (g.nx, g.ny, g.nz))) > 0.0


def _misses(fbox, box) -> bool:
    """True when facet box fbox misses box (both low corner, then high)."""
    return (
        fbox[0] > box[3] or fbox[1] > box[4] or fbox[2] > box[5]
        or fbox[3] < box[0] or fbox[4] < box[1] or fbox[5] < box[2]
    )


# ---------------------------------------------------------------------------
# the rules both tracers share, on float triples or on triples of coordinate
# arrays; ops holds the few calls that differ between the two


def _rect(amp: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """amp exp(1j phase) of float arrays, as cmath.rect: exp(1j phase)
    written into one complex array, whose parts are then scaled in place."""
    z = np.zeros(phase.shape, dtype=complex)
    z.imag = phase
    np.exp(z, out=z)
    z.real *= amp
    z.imag *= amp
    return z


_Ops = namedtuple("_Ops", "any sqrt maximum rect")  # any: "some pair passes"
_FLOAT_OPS = _Ops(bool, math.sqrt, max, cmath.rect)
_ARRAY_OPS = _Ops(np.any, np.sqrt, np.maximum, _rect)


def _walk(scene: Scene, rx, max_bounces: int, ops: _Ops, cones, views=None):
    """Depth-first walk of the facet-sequence tree, keyed by suffix.

    Yields (sequence, images) for the sequences that can have a route, line
    of sight () first; images[k] is rx mirrored through sequence[k:], the aim
    point of the segment arriving at interaction k. A child puts facet f in
    front of its node and mirrors the node's images[0] through f (_mirror),
    from the height of images[0] over f's plane (Scene._planes) that the
    side cull below also reads. Four culls, each of which skips only
    sequences that _unfold rejects (their margins pad facets by _PAD, which
    covers _unfold's rounding):

    * f goes in front of the node's first facet g only if g's entry of
      Scene._turns holds it (in ascending index), which also excludes g
      itself: two consecutive hits on one facet are never specular.
    * A one-sided f is cut, with its subtree, unless images[0], where the
      segment leaving f heads, is strictly in front of it.
    * cones[f] tells whether a route from TX can meet facet f first and
      leave it towards images[0]: that truth value, or a cone of _tx_cones,
      tested here on f's frame (Scene._frames). At the bounce limit a facet
      whose truth value is false is skipped before any arithmetic.
    * With views, TX's coordinates in each bounded facet's frame
      (_tx_cones), a child that passes its cone must also meet g, the
      node's first facet. The segment leaving f lies on the line from S,
      TX's mirror through f, to A = images[0], so that line must cross g's
      plane inside g's rectangle padded by _PAD, the first hit P lying on
      the side it arrives from. In g's frame let S lie at height hs and
      in-plane coordinates (s_u, s_v), A at z_g and (x_u, x_v), and P at
      hp = hs + h / (h + z) (z_g - hs), where h and z are the heights of TX
      and A over f; the line crosses g's plane at (hs x_u - z_g s_u) /
      (hs - z_g) along u. So the child is cut when hp and z_g lie on one
      side of g, or when

        |hs x_u - z_g s_u| > (half_u + _PAD) |hs - z_g|,  or the same along v.

      hs = h_g - 2 h (n_g . n_f) and s_u = t_u - 2 h (u_g . n_f) read TX's
      view (h_g, t_u, t_v) of g (_view) and the products of Scene._turns;
      A's, (z_g, x_u, x_v), is read once per node. Nothing is tested when g
      is unbounded or |hs|, |hp|, |z_g| or |h + z| is at most _PAD.

    A child is yielded from its node's loop only when it passes the last
    two culls; a child at the bounce limit is built only then, and never
    pushed. _kept sorts what is yielded. On arrays, a test passes when it
    passes for any pair; the last cull is for one pair only.
    """
    message = f"max_bounces must be between 0 and {MAX_BOUNCES}"
    if _at_least(max_bounces, 0, message) > MAX_BOUNCES:
        raise ValueError(f"{message}, got {max_bounces!r}")
    planes, frames, turns = scene._planes, scene._frames, scene._turns
    any_ = ops.any
    root = ((), (rx,))
    yield root
    stack = [root] if max_bounces else []
    while stack:
        seq, images = stack.pop()
        leaf = len(seq) + 1 == max_bounces
        aim = images[0]
        ax, ay, az = aim
        middle = False  # whether the last cull tests the children
        if seq and views is not None and views[seq[0]] is not None:
            g = seq[0]
            z_g, x_u, x_v = _view(planes[g], frames[g], aim)
            if abs(z_g) > _PAD:
                h_g, t_u, t_v = views[g]
                half_gu, half_gv = frames[g][8:]
                middle = True
        # (f, g's dot products with f); at the root every f, lazily (a list costs memory)
        for idx, dots in turns[seq[0]].items() if seq else zip(range(len(planes)), repeat(None)):
            reached = cones[idx]
            if leaf and not reached:
                continue
            two_sided, nx, ny, nz, b = planes[idx]
            height = nx * ax + ny * ay + nz * az
            if not (two_sided or any_(height > b)):
                continue
            if reached.__class__ is tuple:  # the tests _tx_cones derives
                h, a_u, a_v = reached
                ux, uy, uz, uc, vx, vy, vz, vc, half_u, half_v = frames[idx]
                z = height - b
                w = h + z
                d = w if h > 0.0 else -w
                x = ux * ax + uy * ay + uz * az - uc
                reached = half_u is None or not abs(a_u * z + h * x) > half_u * d
                if reached and half_v is not None:
                    x = vx * ax + vy * ay + vz * az - vc
                    reached = abs(a_v * z + h * x) <= half_v * d
                if reached and middle and abs(w) > _PAD:
                    n_gf, u_gf, v_gf = dots
                    hs = h_g - 2.0 * h * n_gf
                    hp = hs + h / w * (z_g - hs)
                    if abs(hs) > _PAD and abs(hp) > _PAD:
                        gap = abs(hs - z_g)
                        reached = (hp > 0.0) != (z_g > 0.0) and (
                            half_gu is None
                            or abs(hs * x_u - z_g * (t_u - 2.0 * h * u_gf)) <= half_gu * gap
                        ) and (
                            half_gv is None
                            or abs(hs * x_v - z_g * (t_v - 2.0 * h * v_gf)) <= half_gv * gap
                        )
            if reached or not leaf:
                node = ((idx,) + seq, (_mirror(aim, 2.0 * (height - b), nx, ny, nz),) + images)
                if reached:
                    yield node
                if not leaf:
                    stack.append(node)


def _view(plane, frame, p) -> tuple[float, float, float]:
    """Float triple p seen from a facet: its height over the facet's plane
    (Scene._planes), n . p - b, and its in-plane coordinates in the facet's
    frame (Scene._frames), u . p - u . c and v . p - v . c."""
    _, nx, ny, nz, b = plane
    ux, uy, uz, uc, vx, vy, vz, vc = frame[:8]
    px, py, pz = p
    height = nx * px + ny * py + nz * pz - b
    return height, ux * px + uy * py + uz * pz - uc, vx * px + vy * py + vz * pz - vc


def _faced(planes, tx, ops: _Ops) -> list:
    """For each facet plane (Scene._planes), whether a route from TX can meet
    it first: it is two-sided, or TX is strictly in front of it."""
    return [
        two_sided or ops.any(nx * tx[0] + ny * tx[1] + nz * tx[2] > b)
        for two_sided, nx, ny, nz, b in planes
    ]


def _tx_cones(scene: Scene, tx) -> tuple[list, list]:
    """The cones and views of _walk from the float triple tx.

    views[f] is TX's view (h, a_u, a_v) of facet f (_view): its height over
    f's plane and its in-plane coordinates in f's frame, for each f bounded
    along some axis; None for an unbounded f. cones[f] is _faced's truth
    value, or in its place the cone through f, which is views[f], when TX
    lies in front of f, or behind a two-sided f, by more than _PAD.

    A route meets facet f first where the segment from tx to the mirror of
    aim crosses f's plane, which is where the segment from TX's mirror
    through f to aim does. So aim must lie in the cone from that mirror
    through f's rectangle padded by _PAD. In f's frame, let aim lie at
    height z and in-plane coordinates (x_u, x_v). The crossing lies at
    (a_u z + h x_u) / (h + z) along u, so the cone's four side planes read

        |a_u z + h x_u| <= (half_u + _PAD) s (h + z),  and the same along v,

    with s the sign of h. s (h + z) is negative, and the test fails, when
    aim lies beyond f's plane from TX, where no route heads after meeting f.
    The test rounds like _unfold's crossing, which _PAD covers. A cone
    holds (h, a_u, a_v), what depends on TX; _walk reads the rest off f.
    """
    faced = _faced(scene._planes, tx, _FLOAT_OPS)
    views = [
        None if frame[8] is None and frame[9] is None else _view(plane, frame, tx)
        for plane, frame in zip(scene._planes, scene._frames)
    ]
    cones = [
        view if ok and view is not None and abs(view[0]) > _PAD else ok
        for ok, view in zip(faced, views)
    ]
    return cones, views


def _apart(a, b, ops: _Ops):
    """The line-of-sight route needs endpoints more than 1e-12 m apart."""
    gap = _sub(a, b)
    return ops.sqrt(_dot(gap, gap)) > 1e-12


def _kept(accepted, ops: _Ops):
    """The seam rule on the (sequence, vertices, length[, valid]) a walk
    accepted: length the route's, segment norms summed in order, and on
    arrays valid, the mask of pairs with a route (every pair on floats).

    Yields (sequence, vertices, valid, length) in sequence order (line of
    sight, bounce count, lexicographic). valid loses the pairs whose route an
    earlier sequence with as many bounces has, lengths and vertices within
    1e-9 of the route length (coplanar facets that meet or overlap).
    """
    peers = []  # (vertices, valid, length) of the earlier sequences, same bounces
    for seq, vertices, length, *mask in sorted(accepted, key=lambda e: (len(e[0]), e[0])):
        valid = mask[0] if mask else True
        if peers and len(peers[0][0]) != len(vertices):
            peers = []
        tol = 1e-9 * ops.maximum(1.0, length)
        for prev_vertices, prev_valid, prev_length in peers:
            same = valid & prev_valid & (abs(prev_length - length) <= tol)
            if ops.any(same):
                for a, b in zip(prev_vertices, vertices):
                    for ca, cb in zip(a, b):
                        same = same & (abs(ca - cb) <= tol)
                valid = valid ^ same  # same lies within valid: drop it
        del tol  # not held while the caller computes the gains
        if ops.any(valid):
            peers.append((vertices, valid, length))
            yield seq, vertices, valid, length


def _gain(scene: Scene, length, bounces: int, ops: _Ops):
    """Free-space spreading over the route length, the per-bounce loss and
    the carrier phase, as one phasor (_Ops.rect). On arrays length must be
    the caller's own copy, which this overwrites."""
    loss_amp = 10.0 ** (-scene.reflection_loss_db / 20.0)
    phase = -2.0 * math.pi * scene.carrier_freq * length / C_LIGHT
    length *= 4.0 * math.pi
    amp = scene.wavelength / length
    amp *= loss_amp**bounces
    return ops.rect(amp, phase)


def _delay_of(length, ops: _Ops):
    """length / C_LIGHT, each route's delay, if under _MAX_DELAY (paths._delay's bound
    and message): a route between points within reach may be longer than the reach."""
    delay = length / C_LIGHT
    if ops.any(delay >= _MAX_DELAY):
        raise ValueError(_DELAY_MESSAGE + repr(float(np.max(delay))))
    return delay


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

    Returns None when no valid route exists. A check turned off relaxes
    what _unfold reads: the sequence's facets lose their bounds or turn
    two-sided, or no facet occludes. Each unfolded point must still lie
    strictly inside its segment, so a relaxed route, which follows a known
    path to displaced endpoints, stays geometric. Mirrors as in _walk.
    """
    flats = scene._flats
    sequence = tuple(_at_least(i, 0, "sequence must hold facet indices") for i in sequence)
    for idx in sequence:
        if idx >= len(flats):
            raise ValueError(f"facet index {idx} out of range")
    bounds = {} if check_bounds else {"half_u": None, "half_v": None}
    side = {} if check_side else {"two_sided": True}
    hits = {idx: flats[idx]._replace(**bounds, **side) for idx in sequence}
    txf = as_points(tx, "tx", 1).tolist()
    images = [as_points(rx, "rx", 1).tolist()]
    for idx in reversed(sequence):
        _, nx, ny, nz, b = flats[idx][:5]
        ax, ay, az = images[0]
        images.insert(0, _mirror(images[0], 2.0 * (nx * ax + ny * ay + nz * az - b), nx, ny, nz))
    found = _unfold(hits, sequence, images, txf, flats if check_occlusion else ())
    return None if found is None else _record(Route, np.array(found[0]), sequence)


def _unfold(flats, sequence, images, txf, occluders):
    """The route through sequence as (vertices, length), or None, from the
    records flats[idx] it reflects off, float-triple TX, _walk's receiver
    images and the records that may block it, occluders; the length sums
    the segment norms in order. The crossing (open segment, t within
    (_T_EPS, 1 - _T_EPS)), bounds (_T_EPS slack), side and occlusion tests
    are written out on the records' floats; _plane and _inside are the
    crossing and bounds tests on arrays."""
    rxf = images[-1]
    if not sequence and not _apart(txf, rxf, _FLOAT_OPS):
        return None
    vertices = [txf]
    px, py, pz = txf
    for idx, (qx, qy, qz) in zip(sequence, images):
        two_sided, nx, ny, nz, b, cx, cy, cz, ux, uy, uz, vx, vy, vz, half_u, half_v, _ = flats[idx]
        sx, sy, sz = qx - px, qy - py, qz - pz
        denom = nx * sx + ny * sy + nz * sz
        if denom == 0.0:
            return None
        t = (b - (nx * px + ny * py + nz * pz)) / denom
        if t <= _T_EPS or t >= 1.0 - _T_EPS:
            return None
        px, py, pz = px + t * sx, py + t * sy, pz + t * sz
        dx, dy, dz = px - cx, py - cy, pz - cz
        if half_u is not None and not abs(dx * ux + dy * uy + dz * uz) <= half_u + _T_EPS:
            return None
        if half_v is not None and not abs(dx * vx + dy * vy + dz * vz) <= half_v + _T_EPS:
            return None
        if not two_sided and denom >= 0.0:
            return None
        vertices.append((px, py, pz))
    vertices.append(rxf)

    # the occluder record each vertex lies on, None for TX and RX
    ends = [None, *(occluders[idx] if occluders else None for idx in sequence), None]
    length = 0.0
    for (ax, ay, az), (bx, by, bz), start, end in zip(vertices, vertices[1:], ends, ends[1:]):
        sx, sy, sz = bx - ax, by - ay, bz - az
        length = length + math.sqrt(sx * sx + sy * sy + sz * sz)
        # blocked when the open segment a->b crosses a facet rectangle other
        # than those it starts and ends on, whose planes it meets only there
        lo_x, hi_x = (ax, bx) if ax <= bx else (bx, ax)
        lo_y, hi_y = (ay, by) if ay <= by else (by, ay)
        lo_z, hi_z = (az, bz) if az <= bz else (bz, az)
        for f in occluders:
            box = f.box
            if (
                box[0] > hi_x or box[1] > hi_y or box[2] > hi_z
                or box[3] < lo_x or box[4] < lo_y or box[5] < lo_z
            ) or f is start or f is end:
                continue
            _, nx, ny, nz, b, cx, cy, cz, ux, uy, uz, vx, vy, vz, half_u, half_v, _ = f
            denom = nx * sx + ny * sy + nz * sz
            if denom == 0.0:
                continue
            t = (b - (nx * ax + ny * ay + nz * az)) / denom
            if t <= _T_EPS or t >= 1.0 - _T_EPS:
                continue
            dx, dy, dz = ax + t * sx - cx, ay + t * sy - cy, az + t * sz - cz
            if (half_u is None or abs(dx * ux + dy * uy + dz * uz) <= half_u + _T_EPS) and (
                half_v is None or abs(dx * vx + dy * vy + dz * vz) <= half_v + _T_EPS
            ):
                return None
    return vertices, length


def trace_paths(
    scene: Scene, tx: np.ndarray, rx: np.ndarray, max_bounces: int = 2
) -> list[TracedPath]:
    """All specular paths between tx and rx up to max_bounces reflections.

    Includes the line-of-sight path when unobstructed. The suffix walk
    skips only sequences that unfolding rejects, so the paths are those of
    trying every sequence. They are sorted by descending gain magnitude, ties
    by ascending delay, then in sequence order (line of sight, bounce count,
    lexicographic), as _in_path_order documents for trace_pairs. Coplanar
    facets that meet or overlap can both accept the same specular point; such
    a path is returned once, under the first facet sequence in that order.
    """
    flats = scene._flats
    txf = as_points(tx, "tx", 1).tolist()
    rxf = as_points(rx, "rx", 1).tolist()
    walk = _walk(scene, rxf, max_bounces, _FLOAT_OPS, *_tx_cones(scene, txf))
    accepted = []
    for seq, images in walk:
        found = _unfold(flats, seq, images, txf, flats)
        if found is not None:
            # vertex arrays, kept as the routes: as float tuples they would
            # double the memory of the accepted routes
            accepted.append((seq, np.array(found[0]), found[1]))
    paths = []
    for seq, vertices, _, length in _kept(accepted, _FLOAT_OPS):
        route = _record(Route, vertices, seq)
        gain = _gain(scene, length, len(seq), _FLOAT_OPS)
        paths.append(_record(TracedPath, route, gain, _delay_of(length, _FLOAT_OPS), scene))
    paths.sort(key=lambda p: (-abs(p.gain), p.delay))
    return paths


# ---------------------------------------------------------------------------
# many TX/RX pairs at once, on broadcast coordinate arrays


def _coordinates(tx_points, rx_points) -> tuple[tuple[np.ndarray, ...], ...]:
    """The x, y, z columns of the TX and RX point arrays, no axis inserted.

    Each array is as_points' (..., 3) with at least one leading axis, and
    the two leading shapes must broadcast: the broadcast shape is that of
    every per-pair array of trace_pairs.
    """
    columns = []
    for name, points in (("tx_points", tx_points), ("rx_points", rx_points)):
        pts = as_points(points, name, None)
        if pts.ndim < 2:
            raise ValueError(f"{name} must have a leading axis, got {pts.shape}")
        columns.append(tuple(np.ascontiguousarray(pts[..., k]) for k in range(3)))
    tx, rx = columns
    try:
        np.broadcast_shapes(tx[0].shape, rx[0].shape)
    except ValueError:
        raise ValueError(
            f"tx_points {tx[0].shape} and rx_points {rx[0].shape} do not broadcast"
        ) from None
    return tx, rx


def _plane(f: _Flat, a, b):
    """Where the open segments a -> b cross the plane of facet record f, on
    triples of coordinate arrays: (t, normal . (b - a), mask of the
    segments that cross it), _unfold's crossing test. t is the segment
    parameter of the crossing where the mask is set and 0 elsewhere; the
    sign of normal . (b - a) tells the side the segment arrives from. The
    step b - a is formed one axis at a time, and the dot products
    accumulate in place, in _dot's order."""
    normal = (f.nx, f.ny, f.nz)
    denom = None
    for ak, bk, nk in zip(a, b, normal):
        denom = _accumulate(denom, bk - ak, nk)
    crosses = denom != 0.0
    num = None
    for ak, nk in zip(a, normal):
        num = _accumulate(num, ak, nk)
    num = np.subtract(f.b, num, out=num)
    t = np.divide(num, denom, out=np.zeros(np.shape(denom)), where=crosses)
    crosses &= (t > _T_EPS) & (t < 1.0 - _T_EPS)
    return t, denom, crosses


def _along(a, b, t):
    """The points a + t (b - a), one coordinate array at a time."""
    for ak, bk in zip(a, b):
        x = bk - ak
        x *= t
        x += ak
        yield x


def _inside(f: _Flat, offsets, crosses):
    """crosses, narrowed in place to the points within the bounds of facet
    record f (_T_EPS slack), _unfold's bounds test. offsets yields the
    points' x, y and z offsets from f's centre, one coordinate array at a
    time, which it may overwrite; both in-plane offsets accumulate in place,
    in _dot's order."""
    half_u, half_v = f.half_u, f.half_v
    if (half_u is None and half_v is None) or not crosses.any():
        return crosses
    on_u = on_v = None
    for x, u, v in zip(offsets, (f.ux, f.uy, f.uz), (f.vx, f.vy, f.vz)):
        if half_v is not None:
            on_v = _accumulate(on_v, x, v)
        if half_u is not None:
            on_u = _accumulate(on_u, x, u)
    if half_u is not None:
        crosses &= np.abs(on_u, out=on_u) <= half_u + _T_EPS
    if half_v is not None:
        crosses &= np.abs(on_v, out=on_v) <= half_v + _T_EPS
    return crosses


def _accumulate(total, x, a):
    """total + x a, in place once total is an array; x a when total is None."""
    if total is None:
        return x * a
    total += x * a
    return total


def _unfold_batch(flats, sequence: tuple[int, ...], images, tx):
    """_unfold for every pair, on the facet records: the route vertices, the
    route lengths and the mask of pairs with a route; None as soon as no
    pair has one. Besides the route vertices, it holds no coordinate triple
    per pair: steps and offsets are formed one axis at a time, and each
    denominator is dropped once read."""
    rx = images[-1]
    valid = True if sequence else _apart(tx, rx, _ARRAY_OPS)
    points = []
    p = tx
    for idx, aim in zip(sequence, images):
        f = flats[idx]
        t, denom, crosses = _plane(f, p, aim)
        p = tuple(_along(p, aim, t))
        if not f.two_sided:
            crosses &= denom < 0.0
        del denom
        centre = (f.cx, f.cy, f.cz)
        valid = valid & _inside(f, (x - c for x, c in zip(p, centre)), crosses)
        if not valid.any():
            return None
        points.append(p)

    vertices = [tx, *points, rx]
    ends = (-1, *sequence, -1)  # the facet each vertex lies on, -1 for TX and RX
    for a, b, start, end in zip(vertices[:-1], vertices[1:], ends[:-1], ends[1:]):
        box = (*map(np.min, map(np.minimum, a, b)), *map(np.max, map(np.maximum, a, b)))
        for idx, f in enumerate(flats):
            if idx != start and idx != end and not _misses(f.box, box):
                t, denom, crosses = _plane(f, a, b)
                del denom  # an occluder blocks from either side
                centre = (f.cx, f.cy, f.cz)
                offsets = (np.subtract(x, c, out=x) for x, c in zip(_along(a, b, t), centre))
                valid &= ~_inside(f, offsets, crosses)
        if not valid.any():
            return None
    length = 0.0
    for a, b in zip(vertices[:-1], vertices[1:]):
        norm = None  # _dot(b - a, b - a), in place
        for ak, bk in zip(a, b):
            d = bk - ak
            norm = _accumulate(norm, d, d)
        length += np.sqrt(norm, out=norm)
    return vertices, length, valid


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
    tx, rx = _coordinates(tx_points, rx_points)
    faced = _faced(scene._planes, tx, _ARRAY_OPS)
    walk = _walk(scene, rx, max_bounces, _ARRAY_OPS, faced)
    unfolded = ((seq, _unfold_batch(scene._flats, seq, images, tx)) for seq, images in walk)
    accepted = [(seq, *found) for seq, found in unfolded if found is not None]
    traced = []
    for seq, _, valid, length in _kept(accepted, _ARRAY_OPS):
        phasors = _gain(scene, length[valid], len(seq), _ARRAY_OPS)
        gains = np.zeros(valid.shape, dtype=complex)
        gains[valid] = phasors
        del phasors
        delays = np.zeros(valid.shape)
        delays[valid] = _delay_of(length[valid], _ARRAY_OPS)
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
    aod_az, aod_el = _dir_angles(*_unit3(verts[1] - verts[0]))
    x, y, z = _unit3(verts[-1] - verts[-2])
    aoa_az, aoa_el = _dir_angles(-x, -y, -z)
    return _record(PwaPath, path.gain, path.delay, aoa_az, aoa_el, aod_az, aod_el)
