import dataclasses
import gc
import itertools
import json
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    Facet,
    ReferencePair,
    Route,
    Scene,
    TracedPath,
    make_facet,
    route_length,
    spherical_dir,
    to_pwa,
    trace_pairs,
    trace_paths,
    trace_sequence,
    unit,
)
from reflectmimo import tracer, upa
from reflectmimo.fileio import load_scene
from reflectmimo.geometry import _dir_angles
from reflectmimo.tracer import _T_EPS
from scenelib import (
    blocked,
    brute_force_paths,
    facet_sequences,
    inside,
    mirror,
    random_orthogonal,
    random_scene,
    rich_room,
)

EZ = np.array([0.0, 0.0, 1.0])
DEMO = pathlib.Path(__file__).resolve().parents[1] / "demo"


def ground_scene(**kwargs) -> Scene:
    return Scene(
        facets=(make_facet(center=np.zeros(3), normal=EZ, **kwargs),),
        carrier_freq=140e9,
    )


class TestTypes:
    def test_facet_axes_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            Facet(
                center=np.zeros(3),
                axis_u=np.array([1.0, 0.0, 0.0]),
                axis_v=np.array([1.0, 1.0, 0.0]),
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_facet_rejects_non_finite_geometry(self, bad):
        # a NaN-centred facet would never occlude, its crossing tests all
        # failing; a NaN or infinite axis normalizes to NaN
        x, y = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        with pytest.raises(ValueError, match="center must be finite"):
            Facet(center=np.array([0.0, bad, 0.0]), axis_u=x, axis_v=y, half_u=1.0, half_v=1.0)
        with pytest.raises(ValueError, match="axis_u must be finite"):
            Facet(center=np.zeros(3), axis_u=np.array([bad, 0.0, 0.0]), axis_v=y)
        with pytest.raises(ValueError, match="normal must be finite"):
            make_facet(center=np.zeros(3), normal=np.array([0.0, 0.0, bad]))

    def test_truthy_two_sided_that_is_not_a_bool(self):
        # numpy's True, as from a boolean array, on a facet without a cone:
        # the walk must take it as the truth value it is
        scene = Scene(facets=(make_facet(np.zeros(3), EZ, two_sided=np.True_),), carrier_freq=1e9)
        assert scene.facets[0].two_sided is True
        paths = trace_paths(scene, np.array([0.0, 0.0, 1.0]), np.array([3.0, 0.0, 1.0]), 1)
        assert [p.route.facet_ids for p in paths] == [(), (0,)]

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_two_sided_must_be_a_bool(self, flag):
        # bool("false") is True: a string would build a two-sided facet
        with pytest.raises(ValueError, match=f"two_sided must be true or false, got {flag!r}"):
            make_facet(np.zeros(3), EZ, two_sided=flag)
        with pytest.raises(ValueError, match="two_sided"):
            dataclasses.replace(make_facet(np.zeros(3), EZ), two_sided=flag)

    def test_scene_rejects_negative_loss(self):
        with pytest.raises(ValueError):
            Scene(facets=(), carrier_freq=1e9, reflection_loss_db=-1.0)

    def test_route_facet_id_count_checked(self):
        with pytest.raises(ValueError):
            Route(vertices=np.zeros((2, 3)), facet_ids=(0,))

    @pytest.mark.parametrize("bad", [1.7, 1.0, -1, np.float64(0.0), "0"])
    def test_route_facet_id_must_be_an_index(self, bad):
        # 1.7 was stored as 1, and -1 as given, for TracedPath.image to index with
        vertices = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 0.0], [4.0, 0.0, 1.0]])
        message = f"facet_ids must hold facet indices, got {bad!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Route(vertices=vertices, facet_ids=(bad,))

    def test_route_facet_ids_take_numpy_integers(self):
        vertices = np.array([[0.0, 0.0, 1.0], [2.0, 0.0, 0.0], [4.0, 0.0, 1.0]])
        route = Route(vertices=vertices, facet_ids=np.array([3]))
        assert route.facet_ids == (3,) and type(route.facet_ids[0]) is int

    @pytest.mark.parametrize("sequence", [(0.0,), (0.0, 1.0), (-1,), (np.float64(0.0),)])
    def test_trace_sequence_takes_only_facet_indices(self, sequence):
        # (0.0, 1.0) ended in a TypeError, and a float or negative id would
        # have been stored in the route's facet_ids
        scene = Scene(facets=(make_facet(np.zeros(3), EZ), make_facet((0, 0, 9.0), -EZ)),
                      carrier_freq=1e9)
        message = f"sequence must hold facet indices, got {sequence[0]!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_sequence(scene, sequence, np.array([0.0, 0, 1]), np.array([4.0, 0, 1]))

    def test_trace_sequence_takes_a_numpy_index_array(self):
        # np.array([0, 1]) ended in numpy's "truth value of an array ... is ambiguous"
        scene = Scene(facets=(make_facet(np.zeros(3), EZ), make_facet((0, 0, 9.0), -EZ)),
                      carrier_freq=1e9)
        tx, rx = np.array([0.0, 0, 1]), np.array([4.0, 0, 1])
        got = trace_sequence(scene, np.array([0, 1]), tx, rx)
        want = trace_sequence(scene, (0, 1), tx, rx)
        assert got is not None and got.facet_ids == want.facet_ids == (0, 1)
        assert type(got.facet_ids[0]) is int
        assert got.vertices.tobytes() == want.vertices.tobytes()
        with pytest.raises(ValueError, match="facet index 2 out of range"):
            trace_sequence(scene, np.array([2]), tx, rx)

    def test_make_facet_normal_orthogonal_to_axes(self):
        f = make_facet(center=np.ones(3), normal=np.array([0.3, -1.0, 0.2]))
        assert abs(f.axis_u @ f.axis_v) <= 1e-12
        assert abs(f.normal @ f.axis_u) <= 1e-12
        assert abs(f.normal @ f.axis_v) <= 1e-12
        assert np.linalg.norm(f.normal) == pytest.approx(1.0, abs=1e-12)


class TestFacetReflect:
    # The oracle's mirror through a facet's plane, from the public fields.
    def test_plane_z0(self):
        floor = make_facet(center=np.zeros(3), normal=EZ)
        q = mirror(floor, np.array([1.0, 2.0, 3.0]))
        assert q == pytest.approx([1.0, 2.0, -3.0])

    def test_offset_plane_origin(self):
        ceiling = make_facet(center=np.array([3.0, -1.0, 5.0]), normal=EZ)
        assert mirror(ceiling, np.zeros(3)) == pytest.approx([0.0, 0.0, 10.0])

    def test_point_on_plane_fixed(self):
        wall = make_facet(np.array([2.0, 0.0, 0.0]), np.array([1.0, 0.0, 0.0]))
        p = (2.0, 7.0, -1.0)
        assert mirror(wall, p) == pytest.approx(p)

    @given(
        a=st.floats(-math.pi, math.pi),
        e=st.floats(-1.5, 1.5),
        b=st.floats(-5, 5),
        p=st.tuples(*[st.floats(-20.0, 20.0)] * 3),
    )
    def test_involution_and_signed_distance_flip(self, a, e, b, p):
        u = spherical_dir(a, e)
        f = make_facet(center=b * u, normal=u)
        q = mirror(f, p)
        assert f.normal @ q - f.intercept == pytest.approx(
            -(f.normal @ p - f.intercept), abs=1e-9
        )
        assert mirror(f, q) == pytest.approx(p, abs=1e-9)


class TestFacetImmutable:
    # The trace loops read the float records a Scene builds from its facets'
    # arrays, so a facet changed after the scene was built would be traced
    # with its old geometry.
    def test_mutation_raises_and_trace_is_unchanged(self):
        center = np.zeros(3)
        scene = Scene(
            facets=(make_facet(center=center, normal=EZ, half_u=50.0, half_v=50.0),),
            carrier_freq=140e9,
        )
        tx, rx = np.array([0.0, 0.0, 2.0]), np.array([10.0, 0.0, 2.0])
        before = [p.delay for p in trace_paths(scene, tx, rx, max_bounces=1)]
        floor = scene.facets[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            floor.center = np.array([0.0, 0.0, -1.0])
        for name in ("center", "axis_u", "axis_v", "normal"):
            with pytest.raises(ValueError):
                getattr(floor, name)[2] = -1.0
        center[2] = -1.0  # the caller's array is copied, not frozen
        assert floor.center[2] == 0.0
        assert [p.delay for p in trace_paths(scene, tx, rx, max_bounces=1)] == before


class TestRouteLength:
    def test_straight(self):
        r = Route(vertices=np.array([[0.0, 0, 0], [3.0, 4, 0]]), facet_ids=())
        assert route_length(r) == 5.0

    def test_ground_bounce(self):
        r = Route(
            vertices=np.array([[0.0, 0, 1], [2.0, 0, 0], [4.0, 0, 1]]),
            facet_ids=(0,),
        )
        assert route_length(r) == pytest.approx(2 * math.sqrt(5), abs=1e-12)


class TestTracePaths:
    TX = np.array([0.0, 0.0, 1.0])
    RX = np.array([10.0, 0.0, 1.0])

    def test_empty_scene_single_los(self):
        paths = trace_paths(Scene(facets=(), carrier_freq=140e9), self.TX, self.RX, 2)
        assert len(paths) == 1
        assert paths[0].route.facet_ids == ()
        assert paths[0].delay == pytest.approx(10.0 / C_LIGHT, rel=1e-12)

    def test_two_ray_ground(self):
        paths = trace_paths(ground_scene(), self.TX, self.RX, 1)
        lengths = sorted(route_length(p.route) for p in paths)
        assert lengths == pytest.approx([10.0, math.sqrt(104.0)], rel=1e-12)

    def test_blocking_wall_removes_los(self):
        wall = make_facet(
            center=np.array([5.0, 0.0, 1.0]),
            normal=np.array([-1.0, 0.0, 0.0]),
            half_u=3.0,
            half_v=3.0,
        )
        scene = Scene(facets=(ground_scene().facets[0], wall), carrier_freq=140e9)
        paths = trace_paths(scene, self.TX, self.RX, 1)
        ids = [p.route.facet_ids for p in paths]
        assert () not in ids
        assert (0,) in ids

    def test_route_ending_nanometres_from_its_wall(self):
        # RX 5 to 200 nm in front of a wall: the wall hit, rounded a few
        # ulps behind the wall's plane, made the last segment cross that
        # plane past the slack, and 4 of these 40 bounces were dropped as
        # blocked by their own wall. A segment is not tested against the
        # facets it starts and ends on.
        wall = make_facet(np.array([3.0, 0.0, 1.5]), np.array([-1.0, 0.0, 0.0]), 1.5, 1.5)
        scene = Scene(facets=(wall,), carrier_freq=140e9)
        rng = np.random.default_rng(0)
        tx = rng.uniform([-2.0, -2.0, 0.5], [2.0, 2.0, 2.5], size=(40, 3))
        gaps = 5e-9 * np.arange(1, 41)
        rx = np.column_stack([3.0 - gaps, rng.uniform([-1.0, 0.5], [1.0, 2.5], size=(40, 2))])
        for t, r in zip(tx, rx):
            assert (0,) in [p.route.facet_ids for p in assert_matches_brute_force(scene, t, r, 1)]
        assert [(seq, np.all(d > 0.0)) for seq, _, d in trace_pairs(scene, tx, rx, 1)] == [
            ((), True), ((0,), True)
        ]

    def test_bounds_exclude_distant_bounce(self):
        # reflection point is at x=5; a 1 m panel centered at x=0 misses it
        paths = trace_paths(ground_scene(half_u=1.0, half_v=1.0), self.TX, self.RX, 1)
        assert [p.route.facet_ids for p in paths] == [()]

    def test_one_sided_facet_back_is_dark(self):
        scene = Scene(
            facets=(make_facet(center=np.zeros(3), normal=-EZ),), carrier_freq=140e9
        )
        paths = trace_paths(scene, self.TX, self.RX, 1)
        assert [p.route.facet_ids for p in paths] == [()]

    def test_two_sided_facet_reflects_from_both_sides(self):
        scene = Scene(
            facets=(make_facet(center=np.zeros(3), normal=-EZ, two_sided=True),),
            carrier_freq=140e9,
        )
        paths = trace_paths(scene, self.TX, self.RX, 1)
        assert (0,) in [p.route.facet_ids for p in paths]

    def test_max_bounces_guard(self):
        with pytest.raises(ValueError):
            trace_paths(ground_scene(), self.TX, self.RX, 4)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["tx", "rx"])
    def test_non_finite_endpoint_rejected(self, name, bad):
        # every crossing test fails on a NaN, so the trace used to be empty
        points = {"tx": self.TX.copy(), "rx": self.RX.copy()}
        points[name][1] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            trace_paths(ground_scene(), points["tx"], points["rx"], 1)
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            trace_sequence(ground_scene(), (0,), points["tx"], points["rx"])

    def test_gain_friis_and_phase(self):
        scene = ground_scene()
        lam = C_LIGHT / scene.carrier_freq
        for p in trace_paths(scene, self.TX, self.RX, 1):
            length = route_length(p.route)
            bounces = len(p.route.facet_ids)
            expected_amp = (
                lam / (4 * math.pi * length) * (10 ** (-3.0 / 20)) ** bounces
            )
            assert abs(p.gain) == pytest.approx(expected_amp, rel=1e-12)
            expected_phase = -2 * math.pi * scene.carrier_freq * length / C_LIGHT
            assert math.remainder(np.angle(p.gain) - expected_phase, 2 * math.pi) == (
                pytest.approx(0.0, abs=1e-6)
            )

    def test_sorted_by_gain_and_delay_consistency(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            scene, ref = random_scene(rng)
            paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, 2)
            gains = [abs(p.gain) for p in paths]
            assert gains == sorted(gains, reverse=True)
            for p in paths:
                assert p.delay * C_LIGHT == pytest.approx(
                    route_length(p.route), rel=1e-12
                )


class TestDuplicateRoutes:
    @pytest.mark.parametrize("half_u, half_v", [(2.5, 5.0), (5.0, 2.5)])
    def test_coplanar_tiles_count_a_shared_path_once(self, half_u, half_v):
        # Two floor tiles that overlap (2.5, 5.0) or meet at x = 5 (5.0, 2.5);
        # the specular point (5, 0, 0) lies on both.
        tiles = tuple(
            make_facet(np.array([x, 0.0, 0.0]), EZ, half_u=half_u, half_v=half_v)
            for x in (2.5, 7.5)
        )
        scene = Scene(facets=tiles, carrier_freq=140e9)
        tx, rx = np.array([0.0, 0.0, 2.0]), np.array([10.0, 0.0, 2.0])
        paths = trace_paths(scene, tx, rx, max_bounces=1)
        assert [p.route.facet_ids for p in paths] == [(), (0,)]
        assert paths[1].delay * C_LIGHT == pytest.approx(math.sqrt(116.0), rel=1e-12)

    @pytest.mark.parametrize("strip_first", [True, False])
    def test_tiles_a_micrometre_apart_keep_both_routes(self, strip_first):
        # A floor and, 1 um above it, a strip 2 um wide along x that holds
        # its own specular point but neither point where the floor's route
        # crosses its plane (3.3 um either side of the floor's point). The
        # two routes differ by about 0.6 um in length and 1 um at the bounce,
        # over 1e-9 of their 10.4 m: the seam rule keeps both, where a
        # tolerance of 1e-6 of the length would drop the second.
        tx, rx, lift = np.array([-5.0, 0.0, 2.0]), np.array([5.0, 0.0, 1.0]), 1e-6
        x_strip = -5.0 + 10.0 * (2.0 - lift) / (3.0 - 2.0 * lift)  # its specular point
        ex, ey = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
        floor = Facet(np.zeros(3), ex, ey, half_u=10.0, half_v=10.0)
        strip = Facet(np.array([x_strip, 0.0, lift]), ex, ey, half_u=1e-6, half_v=1.0)
        facets = (strip, floor) if strip_first else (floor, strip)
        scene = Scene(facets=facets, carrier_freq=140e9)
        paths = trace_paths(scene, tx, rx, max_bounces=1)
        lengths = {p.route.facet_ids: p.delay * C_LIGHT for p in paths}
        i_strip, i_floor = facets.index(strip), facets.index(floor)
        assert sorted(lengths) == [(), (0,), (1,)]
        assert lengths[(i_floor,)] == pytest.approx(math.sqrt(109.0), rel=1e-15)
        strip_length = math.hypot(10.0, 3.0 - 2.0 * lift)
        assert lengths[(i_strip,)] == pytest.approx(strip_length, rel=1e-15)
        traced = assert_pairs_match_scalar(scene, tx[None], rx[None], 1)
        assert sorted(seq for seq, _, _ in traced) == [(), (0,), (1,)]

    def test_equal_length_paths_are_kept(self):
        # Mirror-symmetric walls: each delay occurs twice, on distinct routes.
        walls = tuple(
            make_facet(center=np.array([5.0, y, 2.0]), normal=np.array([0.0, -y, 0.0]))
            for y in (5.0, -5.0)
        )
        scene = Scene(facets=walls, carrier_freq=140e9)
        tx, rx = np.array([0.0, 0.0, 2.0]), np.array([10.0, 0.0, 2.0])
        paths = trace_paths(scene, tx, rx, max_bounces=2)
        ids = sorted(p.route.facet_ids for p in paths)
        assert ids == [(), (0,), (0, 1), (1,), (1, 0)]
        delays = sorted(p.delay for p in paths)
        assert delays[1] == pytest.approx(delays[2], rel=1e-15)
        assert delays[3] == pytest.approx(delays[4], rel=1e-15)

    def test_random_scenes_keep_every_accepted_sequence(self):
        rng = np.random.default_rng(11)
        for _ in range(8):
            scene, ref = random_scene(rng)
            tx, rx = ref.tx_ref, ref.rx_ref
            n = len(scene.facets)
            accepted = [
                seq
                for b in (1, 2)
                for seq in itertools.product(range(n), repeat=b)
                if len(set(seq)) == b and trace_sequence(scene, seq, tx, rx) is not None
            ]
            traced = {p.route.facet_ids for p in trace_paths(scene, tx, rx, 2)}
            assert traced - {()} == set(accepted)


def assert_pairs_match_scalar(scene, tx_points, rx_points, max_bounces):
    """trace_pairs against trace_paths, pair by pair over the broadcast
    endpoints: the same facet sequences, delays equal bit for bit, gains
    within 1e-12 of their size."""
    traced = trace_pairs(scene, tx_points, rx_points, max_bounces)
    shape = np.broadcast_shapes(tx_points.shape[:-1], rx_points.shape[:-1])
    tx_points = np.broadcast_to(tx_points, (*shape, 3))
    rx_points = np.broadcast_to(rx_points, (*shape, 3))
    for seq, gains, delays in traced:
        assert gains.shape == delays.shape == shape
        assert gains.dtype == complex
        assert np.any(delays > 0.0), f"sequence {seq} returned without a path"
        assert np.all((gains == 0.0) == (delays == 0.0))
    for pair in np.ndindex(shape):
        want = sorted(
            (p.delay, p.route.facet_ids, p.gain)
            for p in trace_paths(scene, tx_points[pair], rx_points[pair], max_bounces)
        )
        got = sorted((d[pair], seq, g[pair]) for seq, g, d in traced if d[pair] > 0.0)
        assert [(d, seq) for d, seq, _ in got] == [(d, seq) for d, seq, _ in want]
        for (_, _, g), (_, _, g_want) in zip(got, want):
            assert abs(g - g_want) <= 1e-12 * abs(g_want)
    return traced


def routes_by_pair(traced, shape):
    """Facet sequences of each pair's routes, [rx][tx]."""
    return [
        [[seq for seq, _, d in traced if d[m, n] > 0.0] for n in range(shape[1])]
        for m in range(shape[0])
    ]


def random_panel(rng) -> Facet:
    """A bounded one-sided facet at a random pose."""
    return make_facet(
        rng.uniform(-5.0, 5.0, 3), rng.standard_normal(3), *rng.uniform(0.3, 2.0, size=2)
    )


def points_past_each_edge(rng, facet, beyond):
    """Four points in facet's plane, past its -u, +u, -v and +v edges by
    beyond * _T_EPS, each at a random place along its edge."""
    halves = (facet.half_u, facet.half_v)
    axes = (facet.axis_u, facet.axis_v)
    return [
        facet.center
        + sign * (halves[k] + beyond * _T_EPS) * axes[k]
        + rng.uniform(-1.0, 1.0) * halves[1 - k] * axes[1 - k]
        for k, sign in itertools.product(range(2), (-1.0, 1.0))
    ]


_offset = st.tuples(*[st.floats(-6.0, 6.0)] * 3)
_offsets = st.lists(_offset, min_size=1, max_size=3)
# (TX offset, RX offset) of each of up to 4 paired endpoints
_paired_offsets = st.lists(st.tuples(_offset, _offset), min_size=1, max_size=4)


class TestTracePairs:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tx_offsets=_offsets,
        rx_offsets=_offsets,
        max_bounces=st.integers(0, 3),
    )
    def test_random_scenes_match_scalar(self, seed, tx_offsets, rx_offsets, max_bounces):
        # every pair of two arrays: (1, N, 3) against (M, 1, 3)
        scene, ref = random_scene(np.random.default_rng(seed))
        assert_pairs_match_scalar(
            scene,
            ref.tx_ref + np.array(tx_offsets)[None, :],
            ref.rx_ref + np.array(rx_offsets)[:, None],
            max_bounces,
        )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offsets=_paired_offsets,
        max_bounces=st.integers(0, 3),
    )
    def test_paired_endpoints_match_scalar(self, seed, offsets, max_bounces):
        # S paired endpoints: (S, 3) against (S, 3)
        scene, ref = random_scene(np.random.default_rng(seed))
        tx_offsets, rx_offsets = zip(*offsets)
        assert_pairs_match_scalar(
            scene,
            ref.tx_ref + np.array(tx_offsets),
            ref.rx_ref + np.array(rx_offsets),
            max_bounces,
        )

    def test_coplanar_tiles_under_an_array(self):
        # Tiles meeting at x = 5 (half_v runs along x): the middle pair
        # reflects on the seam, every other pair on one tile only.
        tiles = tuple(
            make_facet(np.array([x, 0.0, 0.0]), EZ, half_u=5.0, half_v=2.5)
            for x in (2.5, 7.5)
        )
        scene = Scene(facets=tiles, carrier_freq=140e9)
        tx = np.array([[x, 0.0, 2.0] for x in (-1.0, 0.0, 1.0)])
        rx = np.array([[x, 0.0, 2.0] for x in (9.0, 10.0, 11.0)])
        traced = assert_pairs_match_scalar(scene, tx[None, :], rx[:, None], 1)
        routes = routes_by_pair(traced, (3, 3))
        for m in range(3):
            for n in range(3):
                assert len(routes[m][n]) == 2  # LOS and one floor bounce
        assert routes[1][1] == [(), (0,)]  # on the seam: the first tile
        assert routes[0][0] == [(), (0,)]
        assert routes[2][2] == [(), (1,)]

    def test_two_sided_facet(self):
        tx = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 2.0]])
        rx = np.array([[10.0, 0.0, 1.0], [10.0, -1.0, 1.5]])
        for two_sided, bounce in ((True, [(0,)]), (False, [])):
            scene = Scene(
                facets=(make_facet(np.zeros(3), -EZ, two_sided=two_sided),),
                carrier_freq=140e9,
            )
            traced = assert_pairs_match_scalar(scene, tx[None, :], rx[:, None], 1)
            for row in routes_by_pair(traced, (2, 2)):
                assert row == [[(), *bounce]] * 2

    def test_los_blocked_for_some_pairs_only(self):
        # A 1 m screen halfway: it shadows the pairs at y = 0 only.
        screen = make_facet(
            np.array([5.0, 0.0, 1.0]), np.array([-1.0, 0.0, 0.0]), half_u=0.5, half_v=0.5
        )
        scene = Scene(facets=(screen,), carrier_freq=140e9)
        tx = np.array([[0.0, y, 1.0] for y in (0.0, 3.0)])
        rx = np.array([[10.0, y, 1.0] for y in (0.0, 3.0)])
        traced = assert_pairs_match_scalar(scene, tx[None, :], rx[:, None], 1)
        (seq, gains, delays), *_ = traced
        assert seq == ()
        assert gains[0, 0] == 0.0 and delays[0, 0] == 0.0
        assert np.all(gains.ravel()[1:] != 0.0)

    def test_coincident_elements_have_no_los(self):
        tx = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 1.0]])
        rx = np.array([[1.0, 0.0, 1.0]])
        scene = ground_scene()
        traced = assert_pairs_match_scalar(scene, tx[None, :], rx[:, None], 1)
        assert routes_by_pair(traced, (1, 2)) == [[[(), (0,)], [(0,)]]]

    def test_single_pair_equals_trace_paths(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            scene, ref = random_scene(rng)
            traced = assert_pairs_match_scalar(
                scene, ref.tx_ref[None, None], ref.rx_ref[None, None], 2
            )
            assert len(traced) == len(trace_paths(scene, ref.tx_ref, ref.rx_ref, 2))

    @pytest.mark.parametrize("max_bounces", [0, 1, 2, 3])
    def test_every_bounce_limit(self, max_bounces):
        scene, ref = random_scene(np.random.default_rng(9), n_facets=3)
        offsets = np.array([[0.0, 0.0, 0.0], [0.3, -1.0, 0.5]])
        traced = assert_pairs_match_scalar(
            scene, (ref.tx_ref + offsets)[None, :], (ref.rx_ref - offsets)[:, None], max_bounces
        )
        assert max(len(seq) for seq, _, _ in traced) == max_bounces

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beyond=st.floats(0.1, 0.9))
    def test_specular_points_just_past_each_edge(self, seed, beyond):
        # Pair k's specular point lies past edge k of the panel by less than
        # the bounds slack _T_EPS, which the bounds test accepts.
        rng = np.random.default_rng(seed)
        panel = random_panel(rng)
        tx, rx = [], []
        for hit in points_past_each_edge(rng, panel, beyond):
            along = rng.uniform(-2.0, 2.0, size=2) @ np.array([panel.axis_u, panel.axis_v])
            tx.append(hit + rng.uniform(0.5, 20.0) * unit(panel.normal + along))
            rx.append(hit + rng.uniform(0.5, 20.0) * unit(panel.normal - along))
        scene = Scene(facets=(panel,), carrier_freq=140e9)
        traced = assert_pairs_match_scalar(scene, np.array(tx), np.array(rx), 1)
        assert [np.all(g != 0.0) for seq, g, _ in traced if seq == (0,)] == [True]

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), beyond=st.floats(0.1, 0.9))
    def test_lines_of_sight_just_past_each_screen_edge(self, seed, beyond):
        # Pair k's line of sight crosses the screen's plane past edge k by
        # less than the bounds slack, which the occlusion test counts as
        # blocked, from either side.
        rng = np.random.default_rng(seed)
        screen = random_panel(rng)
        tx, rx = [], []
        for cross in points_past_each_edge(rng, screen, beyond):
            along = rng.uniform(-2.0, 2.0, size=2) @ np.array([screen.axis_u, screen.axis_v])
            ray = unit(rng.choice([-1.0, 1.0]) * screen.normal + along)
            tx.append(cross + rng.uniform(0.5, 20.0) * ray)
            rx.append(cross - rng.uniform(0.5, 20.0) * ray)
        scene = Scene(facets=(screen,), carrier_freq=140e9)
        assert assert_pairs_match_scalar(scene, np.array(tx), np.array(rx), 0) == []

    def test_per_pair_memory_at_16x16(self):
        # One call on 16 x 16 UPAs against 16 x 16 in the blocked demo: per
        # pair, the route's hit points, its length and mask, and scratch of
        # one coordinate array at a time, 67.5 bytes a pair with numpy 2.4.
        # A coordinate triple per step, hit point and in-plane offset takes
        # about 139.
        with open(DEMO / "blocked.json") as fp:
            scene = load_scene(fp)
        with open(DEMO / "capacity_config.json") as fp:
            cfg = json.load(fp)
        tx = upa(16, 16, 0.14, np.array(cfg["tx_ref"]))[None, :]
        rx = upa(16, 16, 0.14, np.array(cfg["rx_ref"]), azimuth_rotation=math.pi)[:, None]
        trace_pairs(scene, tx, rx, 2)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            traced = trace_pairs(scene, tx, rx, 2)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert [(seq, np.count_nonzero(g)) for seq, g, _ in traced] == [((0,), 16**4)]
        assert peak <= 80 * 16**4

    @pytest.mark.parametrize("max_bounces", [-1, 4])
    def test_bounce_limit_guard(self, max_bounces):
        tx = np.zeros((1, 3))
        rx = np.ones((1, 3))
        with pytest.raises(ValueError, match="max_bounces"):
            trace_paths(ground_scene(), tx[0], rx[0], max_bounces)
        with pytest.raises(ValueError, match="max_bounces"):
            trace_pairs(ground_scene(), tx, rx, max_bounces)

    @pytest.mark.parametrize("max_bounces", [1.5, 2.0, "2"])
    def test_bounce_limit_must_be_an_integer(self, max_bounces):
        # with 1.5 no node was a leaf, and in a room the walk grew until
        # memory ran out; one facet is no predecessor of itself, so here the
        # walk ends anyway
        tx = np.zeros((1, 3)) + EZ
        rx = np.ones((1, 3))
        message = f"max_bounces must be between 0 and 3, got {max_bounces!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_paths(ground_scene(), tx[0], rx[0], max_bounces)
        with pytest.raises(ValueError, match=re.escape(message)):
            trace_pairs(ground_scene(), tx, rx, max_bounces)

    def test_point_arrays_checked(self):
        with pytest.raises(ValueError):
            trace_pairs(ground_scene(), np.zeros(3), np.ones((1, 3)))
        with pytest.raises(ValueError):
            trace_pairs(ground_scene(), np.zeros((1, 3)), np.ones((0, 3)))
        with pytest.raises(ValueError, match="do not broadcast"):
            trace_pairs(ground_scene(), np.zeros((2, 3)), np.ones((3, 3)))
        with pytest.raises(ValueError, match="rx_points must have shape"):
            trace_pairs(ground_scene(), np.zeros((2, 3)), np.ones((2, 2)))

    @pytest.mark.parametrize("name", ["tx_points", "rx_points"])
    def test_non_finite_points_rejected(self, name):
        # a NaN pair used to drop out of every entry without an error
        points = {"tx_points": np.zeros((2, 3)), "rx_points": np.ones((2, 3))}
        points[name][1, 2] = math.nan
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            trace_pairs(ground_scene(), points["tx_points"], points["rx_points"])


def assert_matches_brute_force(scene, tx, rx, max_bounces):
    """trace_paths against the brute-force oracle: the facet ids in
    trace_paths' order exactly, delays within 1e-12 relative, vertices
    within 1e-12 times the route length, and gains within 1e-12 relative in
    amplitude and in phase (about 2 pi f0 delay rad, so a delay within
    1e-12 allows that much more)."""
    got = trace_paths(scene, tx, rx, max_bounces)
    want = brute_force_paths(scene, tx, rx, max_bounces)
    assert [p.route.facet_ids for p in got] == [p.route.facet_ids for p in want]
    for p, q in zip(got, want):
        assert abs(p.delay - q.delay) <= 1e-12 * q.delay
        phase = 2.0 * math.pi * scene.carrier_freq * q.delay
        assert abs(p.gain - q.gain) <= 1e-12 * (1.0 + phase) * abs(q.gain)
        tol = 1e-12 * q.delay * C_LIGHT
        assert np.all(np.abs(p.route.vertices - q.route.vertices) <= tol)
    return got


def two_bounce_pair(p1, hit, n1, n2, lead, trail):
    """TX and RX of the specular route that reflects at p1 off a plane of
    unit normal n1, then at hit off one of normal n2: TX lies lead times
    the step p1 -> hit back from p1, RX trail times it on from hit."""
    step = hit - p1
    arriving = step - 2.0 * (step @ n1) * n1
    leaving = step - 2.0 * (step @ n2) * n2
    return p1 - lead * arriving, hit + trail * leaving


def back_face_hits(scene, path) -> bool:
    """True when some leg of path arrives at its facet from behind."""
    verts = path.route.vertices
    return any(
        scene.facets[fid].normal @ (verts[k + 1] - verts[k]) > 0.0
        for k, fid in enumerate(path.route.facet_ids)
    )


def count_calls(monkeypatch, name, trace, *args):
    """Calls of tracer.<name> that trace(*args) makes, and its result.

    Every mirror the tracer takes through a facet plane goes through
    tracer._mirror: the walk's and trace_sequence's. Each sequence the walk
    yields is unfolded once, by _unfold in trace_paths and by _unfold_batch
    in trace_pairs."""
    calls = []
    original = getattr(tracer, name)

    def counted(*call_args):
        calls.append(None)
        return original(*call_args)

    with monkeypatch.context() as m:
        m.setattr(tracer, name, counted)
        result = trace(*args)
    return len(calls), result


class TestSuffixWalk:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_bounces=st.integers(0, 3))
    def test_random_scenes_match_brute_force(self, seed, max_bounces):
        scene, ref = random_scene(np.random.default_rng(seed))
        assert_matches_brute_force(scene, ref.tx_ref, ref.rx_ref, max_bounces)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), max_bounces=st.integers(0, 3))
    def test_rich_rooms_match_brute_force(self, seed, max_bounces):
        scene, ref = rich_room(np.random.default_rng(seed))
        assert_matches_brute_force(scene, ref.tx_ref, ref.rx_ref, max_bounces)

    def test_pruning_cuts_reflections(self, monkeypatch):
        # 20 one-sided facets at 3 bounces: trying every sequence mirrors
        # the receiver through every facet of all 20 + 380 + 7,220
        # sequences; the walk mirrors it 305 times.
        scene, ref = rich_room(np.random.default_rng(7))
        args = (scene, ref.tx_ref, ref.rx_ref, 3)
        walked, paths = count_calls(monkeypatch, "_mirror", trace_paths, *args)
        brute = 20 + 2 * 20 * 19 + 3 * 20 * 19 * 19
        assert walked == 305
        assert 73 * walked <= brute
        assert len(paths) > 10
        assert_matches_brute_force(*args)

    def test_walk_yield_counts(self, monkeypatch):
        # The sequences the walk yields in the seed-7 room at 3 bounces, as
        # the unfolds they cost: brute-force agreement cannot see a cull
        # that is lost, only one that cuts a path. trace_pairs has no cones.
        scene, ref = rich_room(np.random.default_rng(7))
        unfolded, paths = count_calls(
            monkeypatch, "_unfold", trace_paths, scene, ref.tx_ref, ref.rx_ref, 3
        )
        assert (unfolded, len(paths)) == (157, 52)
        unfolded, traced = count_calls(
            monkeypatch, "_unfold_batch", trace_pairs, scene, ref.tx_ref[None], ref.rx_ref[None], 3
        )
        assert (unfolded, len(traced)) == (1222, 52)

    def test_two_sided_facets_are_never_cut(self):
        # The seed-7 room with every facet two-sided: paths that reflect off
        # a back face, which the one-sided room cannot have, are found.
        room, ref = rich_room(np.random.default_rng(7))
        scene = Scene(
            facets=tuple(dataclasses.replace(f, two_sided=True) for f in room.facets),
            carrier_freq=room.carrier_freq,
        )
        args = (scene, ref.tx_ref, ref.rx_ref, 3)
        paths = assert_matches_brute_force(*args)
        one_sided = {p.route.facet_ids for p in trace_paths(room, *args[1:])}
        back = [p.route.facet_ids for p in paths if back_face_hits(scene, p)]
        assert len(back) >= 3
        assert one_sided.isdisjoint(back)

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        two_sided=st.lists(st.booleans(), min_size=14, max_size=14),
        floor_halves=st.sampled_from([(None, None), (None, 6.0), (4.5, None)]),
        max_bounces=st.integers(1, 3),
    )
    def test_two_sided_panels_and_unbounded_floor(
        self, seed, two_sided, floor_halves, max_bounces
    ):
        # The culls' exemptions: two-sided facets (on either side of TX) and
        # a floor unbounded along one or both axes.
        room, ref = rich_room(np.random.default_rng(seed))
        facets = list(room.facets)
        facets[4] = dataclasses.replace(facets[4], half_u=floor_halves[0], half_v=floor_halves[1])
        for k, flag in enumerate(two_sided, start=6):
            facets[k] = dataclasses.replace(facets[k], two_sided=flag)
        scene = Scene(facets=tuple(facets), carrier_freq=room.carrier_freq)
        assert_matches_brute_force(scene, ref.tx_ref, ref.rx_ref, max_bounces)
        assert_pairs_match_scalar(scene, ref.tx_ref[None], ref.rx_ref[None], max_bounces)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        beyond=st.floats(0.1, 0.9),
        max_bounces=st.integers(1, 2),
    )
    def test_specular_point_just_past_an_edge(self, seed, beyond, max_bounces):
        # The specular point lies past a panel edge by less than the bounds
        # slack _T_EPS, which contains accepts, so the cone from TX's mirror
        # through the panel must be padded to keep it.
        rng = np.random.default_rng(seed)
        half = rng.uniform(0.3, 2.0, size=2)
        panel = make_facet(rng.uniform(-5.0, 5.0, 3), rng.standard_normal(3), *half)
        axes = [panel.axis_u, panel.axis_v]
        k = int(rng.integers(2))
        hit = (
            panel.center
            + rng.choice([-1.0, 1.0]) * (half[k] + beyond * _T_EPS) * axes[k]
            + rng.uniform(-1.0, 1.0) * half[1 - k] * axes[1 - k]
        )
        along = rng.uniform(-2.0, 2.0, size=2) @ np.array(axes)
        tx = hit + rng.uniform(0.5, 20.0) * unit(panel.normal + along)
        rx = hit + rng.uniform(0.5, 20.0) * unit(panel.normal - along)
        scene = Scene(facets=(panel,), carrier_freq=140e9)
        paths = assert_matches_brute_force(scene, tx, rx, max_bounces)
        assert (0,) in [p.route.facet_ids for p in paths]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        below=st.floats(0.1, 0.8),
        rise=st.floats(0.05, 0.15),
    )
    def test_next_facet_just_behind_the_last(self, seed, below, rise):
        # A wall whose top edge lies below a floor's plane by less than the
        # bounds slack: the route floor -> wall meets the wall just past
        # that edge, in front of the floor, so the facet-pair table must pad
        # the wall's corners to keep it. Axis-aligned (up to a signed
        # permutation) so that heights of 1e-10 m keep their precision.
        rng = np.random.default_rng(seed)
        perm = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=(3, 1))
        perm[0] *= np.linalg.det(perm)  # a rotation: both normals face the routes
        shift = np.array([*rng.uniform(-5.0, 5.0, 2), 0.0])

        def place(p):
            return perm @ (np.asarray(p, dtype=float) + shift)

        ex, ey, ez = perm.T
        floor = Facet(place([0.5, 0.0, 0.0]), ex, ey, half_u=1.0, half_v=1.0)
        wall = Facet(place([1.0, 0.0, -0.5 - below * _T_EPS]), -ey, ez, 1.0, 0.5)
        # tx and rx at x = 0 put the wall hit at height (b - a) / 2
        a = rng.uniform(1e-7, 1e-5)
        tx = place([0.0, rng.uniform(-0.5, 0.5), a])
        rx = place([0.0, rng.uniform(-0.5, 0.5), a + 2.0 * rise * _T_EPS])
        scene = Scene(facets=(floor, wall), carrier_freq=140e9)
        paths = assert_matches_brute_force(scene, tx, rx, 2)
        assert (0, 1) in [p.route.facet_ids for p in paths]

    # The middle cull of _walk: a child (f, g, ...) must meet g, its second
    # facet, on the line from TX's mirror through f to the node's aim.

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        beyond=st.one_of(st.floats(0.1, 0.9), st.floats(-1000.0, 1000.0)),
        halves=st.sampled_from([(1.0, 1.2), (None, 1.2), (1.0, None), (None, None)]),
        back=st.booleans(),
        two_sided=st.booleans(),
    )
    def test_second_hit_near_an_edge_of_the_middle_facet(
        self, seed, beyond, halves, back, two_sided
    ):
        # The route floor -> wall meets the wall within 1 um of an edge,
        # past it by `beyond` bounds slacks: the cull must pad the wall as
        # the first facet's cone pads it. The wall may be unbounded along
        # either axis, and met from its back, which only a two-sided wall
        # reflects.
        rng = np.random.default_rng(seed)
        rotation = random_orthogonal(rng, det=1)
        shift = rng.uniform(-5.0, 5.0, 3)
        ex, ey, ez = rotation.T
        floor = Facet(shift, ex, ey, half_u=2.0, half_v=2.0)
        axes = [ey, ez] if back else [ez, ey]  # the normal is -ex, or ex from behind
        centre = np.array([3.0, 0.0, 1.5])
        wall = Facet(rotation @ centre + shift, *axes, *halves, two_sided=two_sided)
        k = int(rng.integers(2))
        edge = [1.0 if h is None else h for h in halves]
        hit = centre + rotation.T @ (
            rng.choice([-1.0, 1.0]) * (edge[k] + beyond * _T_EPS) * axes[k]
            + rng.uniform(-0.9, 0.9) * edge[1 - k] * axes[1 - k]
        )
        p1 = np.array([*rng.uniform(-1.5, 1.5, 2), 0.0])
        tx, rx = two_bounce_pair(p1, hit, EZ, np.array([1.0, 0.0, 0.0]), *rng.uniform(0.2, 1.0, 2))
        scene = Scene(facets=(floor, wall), carrier_freq=140e9)
        paths = assert_matches_brute_force(scene, rotation @ tx + shift, rotation @ rx + shift, 2)
        found = (0, 1) in [p.route.facet_ids for p in paths]
        if back and not two_sided:
            assert not found
        elif beyond <= 0.9 or halves[k] is None:
            assert found
        elif beyond >= 1.1:
            assert not found

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rise=st.floats(-2.0, 2.0))
    def test_tx_within_pad_of_the_middle_plane(self, seed, rise):
        # TX lies rise _PAD above the floor, which a route meets after a
        # wall that leans over it at 45 degrees. An upright wall, reaching
        # below the floor, puts TX's mirror as near the floor's plane, where
        # the cull tests nothing.
        rng = np.random.default_rng(seed)
        floor = Facet(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 4.0, 4.0)
        leaning = make_facet(np.array([-2.0, 0.0, 1.5]), np.array([1.0, 0.0, -1.0]), 1.5, 1.5)
        upright = make_facet(np.array([-2.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0]), 1.5, 1.5)
        p1 = leaning.center + rng.uniform(-1.0, 1.0, 2) @ np.array([leaning.axis_u, leaning.axis_v])
        hit = np.array([*rng.uniform([0.0, -2.0], [3.0, 2.0]), 0.0])
        _, rx = two_bounce_pair(p1, hit, leaning.normal, EZ, 1.0, rng.uniform(0.2, 1.0))
        step = hit - p1
        arriving = step - 2.0 * (step @ leaning.normal) * leaning.normal
        tx = p1 - (p1[2] - rise * tracer._PAD) / arriving[2] * arriving  # at height rise _PAD
        for wall in (leaning, upright):
            scene = Scene(facets=(wall, floor), carrier_freq=140e9)
            paths = assert_matches_brute_force(scene, tx, rx, 2)
            if wall is leaning and rise > 0.0:
                assert (0, 1) in [p.route.facet_ids for p in paths]

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rise=st.floats(-2.0, 2.0),
        two_sided=st.booleans(),
        max_bounces=st.integers(2, 3),
    )
    def test_aim_on_the_middle_plane(self, seed, rise, two_sided, max_bounces):
        # RX lies rise _PAD in front of a wall, so every sequence that ends
        # on the wall aims at a point within _PAD of its plane.
        rng = np.random.default_rng(seed)
        floor = Facet(np.zeros(3), np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]), 4.0, 4.0)
        wall = make_facet(np.array([3.0, 0.0, 1.5]), np.array([-1.0, 0, 0]), 1.5, 1.5, two_sided)
        ceiling = make_facet(np.array([0.0, 0.0, 3.0]), -EZ, 4.0, 4.0)
        tx = rng.uniform([-2.0, -2.0, 0.5], [2.0, 2.0, 2.5])
        rx = np.array([3.0 - rise * tracer._PAD, *rng.uniform([-1.0, 0.5], [1.0, 2.5])])
        scene = Scene(facets=(floor, wall, ceiling), carrier_freq=140e9)
        assert_matches_brute_force(scene, tx, rx, max_bounces)

    @pytest.mark.parametrize("seed", range(4))
    def test_aim_level_with_tx_mirror(self, seed):
        # TX 1 m over a two-sided floor and the aim of the wall 1 m under it,
        # both on the floor's normal through its centre: h + z = 0 exactly,
        # which the floor's cone passes and the cull must not divide by.
        # Integer coordinates under a signed permutation keep it exact.
        rng = np.random.default_rng(seed)
        perm = np.eye(3)[rng.permutation(3)] * rng.choice([-1.0, 1.0], size=(3, 1))
        perm[0] *= np.linalg.det(perm)
        shift = rng.integers(-5, 5, 3).astype(float)

        def place(p):
            return perm @ np.asarray(p, dtype=float) + shift

        ex, ey, ez = perm.T
        floor = Facet(place([0, 0, 0]), ex, ey, 3.0, 3.0, two_sided=True)
        wall = Facet(place([2, 0, 0]), ey, ez, 3.0, 3.0)  # faces +x
        tx, rx = place([0, 0, 1]), place([4, 0, -1])  # rx mirrored through the wall: (0, 0, -1)
        scene = Scene(facets=(floor, wall), carrier_freq=140e9)
        cones, _ = tracer._tx_cones(scene, tx.tolist())
        assert cones[0] == (1.0, 0.0, 0.0)  # the floor's cone: h = 1 on its normal
        assert_matches_brute_force(scene, tx, rx, 2)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), tx_offsets=_offsets, rx_offsets=_offsets)
    def test_pairs_in_rich_rooms_match_scalar(self, seed, tx_offsets, rx_offsets):
        # The pair tracer cuts a subtree only when every pair fails. Up to
        # 3 x 3 elements within 0.3 m of endpoints that keep 0.5 m from the
        # walls.
        scene, ref = rich_room(np.random.default_rng(seed))
        tx = ref.tx_ref + np.array(tx_offsets) / 20.0
        rx = ref.rx_ref + np.array(rx_offsets) / 20.0
        assert_pairs_match_scalar(scene, tx[None, :], rx[:, None], 2)

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), offsets=_paired_offsets)
    def test_paired_endpoints_in_rich_rooms_match_scalar(self, seed, offsets):
        scene, ref = rich_room(np.random.default_rng(seed))
        tx_offsets, rx_offsets = zip(*offsets)
        tx = ref.tx_ref + np.array(tx_offsets) / 20.0
        rx = ref.rx_ref + np.array(rx_offsets) / 20.0
        assert_pairs_match_scalar(scene, tx, rx, 2)

    def test_coincident_endpoints_have_no_los_route(self):
        p = np.array([1.0, 2.0, 3.0])
        assert trace_sequence(ground_scene(), (), p, p) is None
        assert trace_sequence(ground_scene(), (), p, p + 1.0) is not None


class TestRouteGeometry:
    def test_interior_vertices_on_planes_and_specular(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            scene, ref = random_scene(rng)
            for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2):
                verts = p.route.vertices
                for k, fid in enumerate(p.route.facet_ids):
                    facet = scene.facets[fid]
                    x = verts[k + 1]
                    assert abs(facet.normal @ x - facet.intercept) <= 1e-9
                    local = x - facet.center
                    assert abs(local @ facet.axis_u) <= facet.half_u + 1e-9
                    assert abs(local @ facet.axis_v) <= facet.half_v + 1e-9
                    v_in = unit(verts[k + 1] - verts[k])
                    v_out = unit(verts[k + 2] - verts[k + 1])
                    mirrored = v_in - 2 * (facet.normal @ v_in) * facet.normal
                    assert v_out == pytest.approx(mirrored, abs=1e-9)


class TestInvariances:
    @staticmethod
    def lengths(scene, tx, rx):
        return sorted(route_length(p.route) for p in trace_paths(scene, tx, rx, 2))

    def test_reciprocity(self):
        rng = np.random.default_rng(2)
        for _ in range(8):
            scene, ref = random_scene(rng)
            fwd = self.lengths(scene, ref.tx_ref, ref.rx_ref)
            rev = self.lengths(scene, ref.rx_ref, ref.tx_ref)
            assert fwd == pytest.approx(rev, abs=1e-9)

    def test_rigid_rotation_invariance(self):
        rng = np.random.default_rng(3)
        c, s = math.cos(0.7), math.sin(0.7)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        for _ in range(5):
            scene, ref = random_scene(rng)
            rotated = Scene(
                facets=tuple(
                    Facet(
                        center=R @ f.center,
                        axis_u=R @ f.axis_u,
                        axis_v=R @ f.axis_v,
                        half_u=f.half_u,
                        half_v=f.half_v,
                        two_sided=f.two_sided,
                    )
                    for f in scene.facets
                ),
                carrier_freq=scene.carrier_freq,
                reflection_loss_db=scene.reflection_loss_db,
            )
            base = self.lengths(scene, ref.tx_ref, ref.rx_ref)
            rot = self.lengths(rotated, R @ ref.tx_ref, R @ ref.rx_ref)
            assert base == pytest.approx(rot, abs=1e-9)


class TestTraceSequence:
    def test_relaxed_checks_unfold_any_displacement(self):
        scene = ground_scene(half_u=1.0, half_v=1.0)
        route = trace_sequence(
            scene,
            (0,),
            np.array([0.0, 0.0, 1.0]),
            np.array([40.0, 0.0, 1.0]),
            check_bounds=False,
            check_side=False,
            check_occlusion=False,
        )
        assert route is not None
        assert route_length(route) == pytest.approx(math.sqrt(1600 + 4), rel=1e-12)

    def test_strict_bounds_reject(self):
        scene = ground_scene(half_u=1.0, half_v=1.0)
        route = trace_sequence(
            scene, (0,), np.array([0.0, 0.0, 1.0]), np.array([40.0, 0.0, 1.0])
        )
        assert route is None

    # What each check rejects, on a route its check alone let through.
    VIOLATIONS = {
        "check_bounds": lambda scene, route: not all(
            inside(scene.facets[fid], v)
            for fid, v in zip(route.facet_ids, route.vertices[1:-1])
        ),
        "check_side": lambda scene, route: back_face_hits(scene, TracedPath(route, 1.0, 1.0)),
        "check_occlusion": lambda scene, route: any(
            blocked(scene, p, q, own)
            for p, q, *own in zip(
                route.vertices,
                route.vertices[1:],
                (None, *route.facet_ids),
                (*route.facet_ids, None),
            )
        ),
    }

    @pytest.mark.parametrize("flag", sorted(VIOLATIONS))
    def test_each_check_on_its_own(self, flag):
        # One check off: every route the full checks accept comes out the
        # same, bit for bit, and some route they reject comes through, one
        # that breaks the rule of that check.
        scene, ref = rich_room(np.random.default_rng(7))
        args = (ref.tx_ref, ref.rx_ref)
        accepted, let_through = 0, []
        for seq in [(), *facet_sequences(len(scene.facets), 2)]:
            full = trace_sequence(scene, seq, *args)
            relaxed = trace_sequence(scene, seq, *args, **{flag: False})
            if full is None:
                if relaxed is not None:
                    let_through.append(relaxed)
                continue
            accepted += 1
            assert relaxed is not None and relaxed.facet_ids == full.facet_ids
            assert np.array_equal(relaxed.vertices, full.vertices)
        assert accepted >= 10
        assert let_through
        assert all(self.VIOLATIONS[flag](scene, route) for route in let_through)


class TestToPwa:
    def test_los_angles(self):
        tx, rx = np.array([0.0, 0, 1]), np.array([10.0, 0, 1])
        ref = ReferencePair(tx_ref=tx, rx_ref=rx)
        (path,) = trace_paths(Scene(facets=(), carrier_freq=140e9), tx, rx, 0)
        pwa = to_pwa(path, ref)
        assert pwa.aoa_az == pytest.approx(math.pi)
        assert pwa.aoa_el == pytest.approx(0.0)
        assert pwa.aod_az == pytest.approx(0.0)
        assert pwa.aod_el == pytest.approx(0.0)

    def test_ground_bounce_departure_elevation(self):
        tx, rx = np.array([0.0, 0, 1]), np.array([4.0, 0, 1])
        ref = ReferencePair(tx_ref=tx, rx_ref=rx)
        paths = trace_paths(ground_scene(), tx, rx, 1)
        bounce = next(p for p in paths if p.route.facet_ids == (0,))
        pwa = to_pwa(bounce, ref)
        assert pwa.aod_el == pytest.approx(-math.atan(0.5), abs=1e-12)
        assert pwa.gain == bounce.gain

    def test_angles_are_the_unit_vector_pipeline(self):
        # to_pwa works on floats; it gives _dir_angles' bits on the numpy
        # unit steps, signed zeros included, on axis-aligned routes too.
        rng = np.random.default_rng(6)
        cases = [
            (ground_scene(), np.array([0.0, 0.0, 1.0]), np.array([4.0, 0.0, 1.0])),
            (ground_scene(), np.array([3.0, -2.0, 1.0]), np.array([3.0, 5.0, 2.0])),
            (ground_scene(), np.array([0.0, 0.0, 3.0]), np.array([0.0, 0.0, 1.0])),
        ]
        for _ in range(3):
            scene, ref = random_scene(rng)
            cases.append((scene, ref.tx_ref, ref.rx_ref))
        compared = 0
        for scene, tx, rx in cases:
            ref = ReferencePair(tx_ref=tx, rx_ref=rx)
            for p in trace_paths(scene, tx, rx, 2):
                verts = p.route.vertices
                want = (
                    *_dir_angles(*(-unit(verts[-1] - verts[-2])).tolist()),
                    *_dir_angles(*unit(verts[1] - verts[0]).tolist()),
                )
                pwa = to_pwa(p, ref)
                got = (pwa.aoa_az, pwa.aoa_el, pwa.aod_az, pwa.aod_el)
                assert np.array(got).tobytes() == np.array(want).tobytes()
                compared += 1
        assert compared >= 8

    def test_endpoint_mismatch_rejected(self):
        tx, rx = np.array([0.0, 0, 1]), np.array([10.0, 0, 1])
        (path,) = trace_paths(Scene(facets=(), carrier_freq=140e9), tx, rx, 0)
        bad_ref = ReferencePair(tx_ref=tx + 0.5, rx_ref=rx)
        with pytest.raises(ValueError):
            to_pwa(path, bad_ref)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_interaction_point_rejected(self, bad):
        # a NaN norm passes a "norm below epsilon" test; an infinite one
        # normalizes to NaN; a Route holds finite vertices only, so to_pwa
        # never meets one
        tx, rx = np.array([0.0, 0, 1]), np.array([3.0, 0, 1])
        with pytest.raises(ValueError, match="vertices must be finite"):
            Route(vertices=np.array([tx, [bad, 0.0, 0.0], rx]))

    def test_angles_match_distance_gradients(self):
        from reflectmimo import spherical_dir
        from scenelib import retrace_length

        rng = np.random.default_rng(4)
        step = 1e-6
        for _ in range(5):
            scene, ref = random_scene(rng)
            for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2):
                pwa = to_pwa(p, ref)
                for which, u in (
                    ("rx", spherical_dir(pwa.aoa_az, pwa.aoa_el)),
                    ("tx", spherical_dir(pwa.aod_az, pwa.aod_el)),
                ):
                    grad = np.zeros(3)
                    for i in range(3):
                        e = np.zeros(3)
                        e[i] = step
                        if which == "rx":
                            hi = retrace_length(scene, p, ref.tx_ref, ref.rx_ref + e)
                            lo = retrace_length(scene, p, ref.tx_ref, ref.rx_ref - e)
                        else:
                            hi = retrace_length(scene, p, ref.tx_ref + e, ref.rx_ref)
                            lo = retrace_length(scene, p, ref.tx_ref - e, ref.rx_ref)
                        grad[i] = (hi - lo) / (2 * step)
                    assert grad == pytest.approx(-u, abs=1e-5)
