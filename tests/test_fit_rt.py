import dataclasses
import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    ReferencePair,
    Route,
    Scene,
    fileio,
    fit_from_route,
    fit_rm_rt,
    make_facet,
    rm_distance_image,
    to_pwa,
    trace_paths,
    wrap_angle,
)
from scenelib import random_scene, retrace_length, rich_room, rm_distance_angles

ANGLES = ("aoa_az", "aoa_el", "aod_az", "aod_el")


def corridor_scene() -> tuple[Scene, ReferencePair]:
    """Two parallel walls — supports up to triple zigzag bounces."""
    walls = (
        make_facet(
            center=np.array([25.0, 8.0, 2.0]), normal=np.array([0.0, -1.0, 0.0])
        ),
        make_facet(
            center=np.array([25.0, -8.0, 2.0]), normal=np.array([0.0, 1.0, 0.0])
        ),
    )
    scene = Scene(facets=walls, carrier_freq=140e9)
    ref = ReferencePair(
        tx_ref=np.array([0.0, 1.0, 2.0]), rx_ref=np.array([50.0, -1.0, 2.0])
    )
    return scene, ref


class TestFitFromRoute:
    def test_los(self):
        route = Route(
            vertices=np.array([[0.0, 0, 0], [50.0, 3, 1]]), facet_ids=()
        )
        img = fit_from_route(route)
        assert img.U == pytest.approx(np.eye(3))
        assert img.g == pytest.approx(np.zeros(3))

    def test_ground_bounce(self):
        route = Route(
            vertices=np.array([[0.0, 0, 1], [2.0, 0, 0], [4.0, 0, 1]]),
            facet_ids=(0,),
        )
        img = fit_from_route(route)
        assert img.U == pytest.approx(np.diag([1.0, 1.0, -1.0]), abs=1e-12)
        assert img.g == pytest.approx(np.zeros(3), abs=1e-12)

    def test_two_parallel_mirrors(self):
        route = Route(
            vertices=np.array(
                [[1.5, 2, 1], [0.0, 2, 1], [5.0, 2, 1], [3.0, 2, 1]]
            ),
            facet_ids=(0, 1),
        )
        img = fit_from_route(route)
        assert img.U == pytest.approx(np.eye(3), abs=1e-12)
        assert img.g == pytest.approx([10.0, 0.0, 0.0], abs=1e-12)

    def test_rejects_coincident_vertices(self):
        route = Route(
            vertices=np.array([[0.0, 0, 1], [2.0, 0, 0], [2.0, 0, 0], [4.0, 0, 1]]),
            facet_ids=(0, 1),
        )
        with pytest.raises(ValueError):
            fit_from_route(route)

    def test_rejects_straight_through_interaction(self):
        route = Route(
            vertices=np.array([[0.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]]),
            facet_ids=(0,),
        )
        with pytest.raises(ValueError):
            fit_from_route(route)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_vertices(self, bad):
        route = Route(vertices=np.array([[0.0, 0, 1], [bad, 0, 0], [3.0, 0, 1]]))
        with pytest.raises(ValueError, match="non-finite"):
            fit_from_route(route)

    def test_determinant_law_all_bounce_counts(self):
        scene, ref = corridor_scene()
        paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, 3)
        seen = set()
        for p in paths:
            k_minus_1 = len(p.route.facet_ids)
            seen.add(k_minus_1)
            img = fit_from_route(p.route)
            assert np.linalg.det(img.U) == pytest.approx(
                (-1.0) ** k_minus_1, abs=1e-12
            )
        assert seen == {0, 1, 2, 3}

    def test_translation_equivariance(self):
        rng = np.random.default_rng(21)
        scene, ref = random_scene(rng, n_facets=2)
        t = np.array([3.0, -7.0, 2.0])
        for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2):
            img = fit_from_route(p.route)
            shifted = Route(
                vertices=p.route.vertices + t, facet_ids=p.route.facet_ids
            )
            img_t = fit_from_route(shifted)
            assert img_t.U == pytest.approx(img.U, abs=1e-12)
            assert img_t.g == pytest.approx(img.g + t - img.U @ t, abs=1e-9)

    def test_exactness_against_retrace(self):
        rng = np.random.default_rng(22)
        checked = skipped = 0
        for _ in range(5):
            scene, ref = random_scene(rng)
            for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2):
                img = fit_from_route(p.route)
                for _ in range(20):
                    tx = ref.tx_ref + rng.uniform(-1, 1, size=3)
                    rx = ref.rx_ref + rng.uniform(-1, 1, size=3)
                    truth = retrace_length(scene, p, tx, rx)
                    if truth is None:  # sequence gone at this displacement
                        skipped += 1
                        continue
                    checked += 1
                    assert abs(rm_distance_image(rx, tx, img) - truth) <= 1e-9 * truth
        assert checked > 9 * skipped


class TestFitRmRt:
    def test_los_matches_pwa_angles(self):
        tx, rx = np.zeros(3), np.array([100.0, 0.0, 0.0])
        ref = ReferencePair(tx_ref=tx, rx_ref=rx)
        (p,) = trace_paths(Scene(facets=(), carrier_freq=140e9), tx, rx, 0)
        rm = fit_rm_rt(p, ref)
        pwa = to_pwa(p, ref)
        assert rm.s == -1
        assert rm.roll == pytest.approx(0.0, abs=1e-12)
        assert rm.gain == p.gain
        assert rm.delay == p.delay
        for field in ("aoa_az", "aoa_el", "aod_az", "aod_el"):
            assert getattr(rm, field) == pytest.approx(
                getattr(pwa, field), abs=1e-9
            )

    def test_ground_bounce_parity(self):
        tx, rx = np.array([0.0, 0, 1]), np.array([4.0, 0, 1])
        ref = ReferencePair(tx_ref=tx, rx_ref=rx)
        scene = Scene(
            facets=(make_facet(center=np.zeros(3), normal=np.array([0.0, 0, 1])),),
            carrier_freq=140e9,
        )
        bounce = next(
            p
            for p in trace_paths(scene, tx, rx, 1)
            if p.route.facet_ids == (0,)
        )
        assert fit_rm_rt(bounce, ref).s == 1

    def test_angles_match_pwa_for_all_paths(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            scene, ref = random_scene(rng)
            for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2):
                rm = fit_rm_rt(p, ref)
                pwa = to_pwa(p, ref)
                for field in ("aoa_az", "aoa_el", "aod_az", "aod_el"):
                    assert getattr(rm, field) == pytest.approx(
                        getattr(pwa, field), abs=1e-9
                    )

    def test_retrace_oracle_50_displacements(self):
        rng = np.random.default_rng(24)
        scene, ref = random_scene(rng, n_facets=3)
        paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, 2)
        assert paths
        checked = skipped = 0
        for p in paths:
            rm = fit_rm_rt(p, ref)
            assert rm.delay * C_LIGHT == pytest.approx(
                retrace_length(scene, p, ref.tx_ref, ref.rx_ref), rel=1e-9
            )
            for _ in range(50):
                tx = ref.tx_ref + rng.uniform(-0.5, 0.5, size=3)
                rx = ref.rx_ref + rng.uniform(-0.5, 0.5, size=3)
                truth = retrace_length(scene, p, tx, rx)
                if truth is None:
                    skipped += 1
                    continue
                checked += 1
                got = rm_distance_angles(rx, tx, ref, rm)
                assert abs(got - truth) <= 1e-9 * truth
        assert checked > 9 * skipped

    def test_endpoint_mismatch_rejected(self):
        tx, rx = np.zeros(3), np.array([100.0, 0.0, 0.0])
        (p,) = trace_paths(Scene(facets=(), carrier_freq=140e9), tx, rx, 0)
        with pytest.raises(ValueError):
            fit_rm_rt(p, ReferencePair(tx_ref=tx + 1.0, rx_ref=rx))


def route_tolerance_scale(path) -> float:
    """1 / the shortest leg of the route in metres, at least 1.

    fit_from_route reads each plane normal off the unit steps between the
    route's vertices, which carry ~1e-15 m of rounding: its U and angles are
    off by that over the leg length, while the facet image is not.
    """
    legs = np.linalg.norm(np.diff(path.route.vertices, axis=0), axis=1)
    return 1.0 / min(1.0, float(legs.min()))


def assert_same_fit(got, want, scale: float) -> None:
    """gain, delay and parity equal; angles within 1e-12, roll within 1e-10
    rad, both times scale."""
    assert (got.gain, got.delay, got.s) == (want.gain, want.delay, want.s)
    for name in ANGLES:
        assert abs(wrap_angle(getattr(got, name) - getattr(want, name))) <= 1e-12 * scale
    assert abs(wrap_angle(got.roll - want.roll)) <= 1e-10 * scale


class TestTracedImage:
    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        rich=st.booleans(),
        max_bounces=st.integers(0, 3),
    )
    def test_facet_image_equals_route_fit(self, seed, rich, max_bounces):
        scene, ref = (rich_room if rich else random_scene)(np.random.default_rng(seed))
        for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, max_bounces):
            assert p.scene is scene
            scale = route_tolerance_scale(p)
            img, by_route = p.image, fit_from_route(p.route)
            assert np.max(np.abs(img.U - by_route.U)) <= 1e-12 * scale
            assert np.max(np.abs(img.g - by_route.g)) <= 1e-9 * max(
                1.0, float(np.linalg.norm(img.g))
            )
            rm = fit_rm_rt(p, ref)
            assert (rm.gain, rm.delay) == (p.gain, p.delay)
            assert_same_fit(rm, fit_rm_rt(dataclasses.replace(p, scene=None), ref), scale)

    def test_image_is_composed_on_each_call(self):
        scene, ref = rich_room(np.random.default_rng(7))
        p = next(p for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 2) if p.bounces == 2)
        assert p.image is not p.image
        assert np.array_equal(p.image.U, p.image.U)
        assert dataclasses.replace(p, scene=None).image is None

    def test_delay_off_the_image_distance_is_rejected(self):
        scene, ref = rich_room(np.random.default_rng(7))
        paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, 3)
        assert {p.bounces for p in paths} == {0, 1, 2, 3}
        for p in paths:
            off = dataclasses.replace(p, delay=p.delay * (1.0 + 1e-6))
            for path in (off, dataclasses.replace(off, scene=None)):
                with pytest.raises(ValueError, match="disagrees with the traced path length"):
                    fit_rm_rt(path, ref)

    def test_moved_facet_is_rejected(self):
        scene, ref = rich_room(np.random.default_rng(7))
        paths = [p for p in trace_paths(scene, ref.tx_ref, ref.rx_ref, 3) if p.bounces]
        assert len(paths) > 10
        for p in paths:
            k = p.route.facet_ids[-1]
            facets = list(scene.facets)
            f = facets[k]
            facets[k] = dataclasses.replace(f, center=f.center + 1e-3 * f.normal)
            moved = Scene(facets=tuple(facets), carrier_freq=scene.carrier_freq)
            with pytest.raises(ValueError, match="disagrees with the traced path length"):
                fit_rm_rt(dataclasses.replace(p, scene=moved), ref)

    def test_loaded_routes_fit_through_their_bends(self):
        scene, ref = rich_room(np.random.default_rng(7))
        paths = trace_paths(scene, ref.tx_ref, ref.rx_ref, 3)
        export = fileio.PathExport(
            tx=ref.tx_ref,
            rx=ref.rx_ref,
            f0_hz=scene.carrier_freq,
            paths=tuple((to_pwa(p, ref), p.route) for p in paths),
        )
        buf = io.StringIO()
        fileio.save_paths(export, buf)
        buf.seek(0)
        loaded = fileio.load_paths(buf).traced()
        assert len(loaded) == len(paths) > 10
        for p, q in zip(paths, loaded):
            assert q.scene is None and q.route.facet_ids is None and q.image is None
            assert np.array_equal(q.route.vertices, p.route.vertices)
            got = fit_rm_rt(q, ref)
            want = fit_rm_rt(p, ref)
            # the export keeps the gain as dB and degrees
            assert got.gain == q.gain and got.gain == pytest.approx(want.gain, rel=1e-12)
            assert_same_fit(dataclasses.replace(got, gain=want.gain), want, route_tolerance_scale(p))
