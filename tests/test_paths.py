import gc
import itertools
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmImage,
    RmPath,
    angles_to_image,
    pwa_distance,
    rm_distance_image,
    rotation_matrix,
    spherical_dir,
    unit,
)
from reflectmimo.paths import _image_angles, align_rotation
from scenelib import image_to_angles, random_orthogonal, rm_distance_angles

def los_distance(rx: np.ndarray, tx: np.ndarray) -> float:
    """Straight-line distance, the oracle for line-of-sight paths."""
    return float(np.linalg.norm(rx - tx))


LOS_REF = ReferencePair(tx_ref=np.zeros(3), rx_ref=np.array([100.0, 0.0, 0.0]))


def los_path(ref: ReferencePair) -> PwaPath:
    d = ref.rx_ref - ref.tx_ref
    length = np.linalg.norm(d)
    return PwaPath(
        gain=1.0 + 0j,
        delay=length / C_LIGHT,
        aoa_az=math.pi,
        aoa_el=0.0,
        aod_az=0.0,
        aod_el=0.0,
    )


class TestTypes:
    def test_delay_must_be_positive(self):
        with pytest.raises(ValueError):
            PwaPath(gain=1.0, delay=0.0, aoa_az=0, aoa_el=0, aod_az=0, aod_el=0)

    @pytest.mark.parametrize("delay", [math.nan, math.inf, 1e308])
    def test_delay_must_be_within_reach(self, delay):
        # c * 1e308 s overflowed: angles_to_image made a NaN offset
        with pytest.raises(ValueError, match="path delay must be positive and under 3.34e"):
            RmPath(gain=1.0, delay=delay, aoa_az=0, aoa_el=0, aod_az=0, aod_el=0, roll=0.0, s=1)

    def test_rm_path_s_validated(self):
        with pytest.raises(ValueError):
            RmPath(
                gain=1.0, delay=1e-7, aoa_az=0, aoa_el=0, aod_az=0, aod_el=0,
                roll=0.0, s=0,
            )

    @pytest.mark.parametrize(
        "s", [True, False, np.True_, 1.0, -1.0, np.float64(1.0), 1 + 0j, "1", 0, 2, -2]
    )
    def test_rm_path_s_must_be_an_integer(self, s):
        # a bool or a float equal to +-1 used to be stored as given
        message = re.escape(f"mirror parity s must be -1 or +1, got {s!r}") + "$"
        with pytest.raises(ValueError, match=message):
            RmPath(
                gain=1.0, delay=1e-7, aoa_az=0, aoa_el=0, aod_az=0, aod_el=0,
                roll=0.0, s=s,
            )

    @pytest.mark.parametrize("s", [1, -1, np.int64(1), np.int8(-1)])
    def test_rm_path_s_stored_as_int(self, s):
        path = RmPath(
            gain=1.0, delay=1e-7, aoa_az=0, aoa_el=0, aod_az=0, aod_el=0, roll=0.0, s=s
        )
        assert type(path.s) is int and path.s == s

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", ["gain", "gain.imag", "aoa_az", "aoa_el", "aod_az", "aod_el", "roll"]
    )
    def test_non_finite_field_rejected(self, field, bad):
        # a NaN roll used to construct, and only the model file's
        # load-time cross-check caught it
        pwa = dict(gain=1.0 + 0j, delay=1e-7, aoa_az=0.3, aoa_el=-0.2, aod_az=2.0, aod_el=0.1)
        name = field.partition(".")[0]
        value = complex(1.0, bad) if field == "gain.imag" else bad
        for cls, kwargs in ((PwaPath, pwa), (RmPath, dict(pwa, roll=0.7, s=1))):
            if name in kwargs:
                with pytest.raises(ValueError, match=f"path {name} must be finite"):
                    cls(**dict(kwargs, **{name: value}))

    def test_rm_image_orthogonality_validated(self):
        with pytest.raises(ValueError):
            RmImage(U=np.eye(3) * 1.001, g=np.zeros(3))

    @pytest.mark.parametrize("shape", [(2, 2), (3,), (3, 4), (4, 3)])
    def test_rm_image_u_must_be_3x3(self, shape):
        with pytest.raises(ValueError, match="U must be a 3x3 matrix"):
            RmImage(U=np.zeros(shape), g=np.zeros(3))

    def test_rm_image_orthogonality_bound_on_every_entry(self):
        # U = Q (I + E) moves entry (i, j) of U^T U and its mirror by about
        # 2 E_ij; the image is refused exactly when an entry is off I by
        # more than 1e-9
        rng = np.random.default_rng(5)
        for i, j in itertools.product(range(3), repeat=2):
            for offset in (6e-10, 4e-10, -6e-10, -4e-10):
                e = np.zeros((3, 3))
                e[i, j] = e[j, i] = offset
                u = random_orthogonal(rng) @ (np.eye(3) + e)
                off = float(np.max(np.abs(u.T @ u - np.eye(3))))
                assert abs(off - 1e-9) > 1e-12  # not at the bound itself
                if off > 1e-9:
                    with pytest.raises(ValueError, match="orthogonal"):
                        RmImage(U=u, g=np.zeros(3))
                else:
                    RmImage(U=u, g=np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rm_image_rejects_non_finite_u_entries(self, bad):
        # with a NaN among the six U^T U entries, their max depended on
        # where the NaN stood, and a NaN U passed
        for i, j in itertools.product(range(3), repeat=2):
            u = np.eye(3)
            u[i, j] = bad
            with pytest.raises(ValueError, match="U must be orthogonal"):
                RmImage(U=u, g=np.zeros(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_mirror_normal_must_be_finite(self, bad):
        # a NaN normal used to give an all-NaN U
        for k in range(3):
            normal = [0.0, 0.0, 1.0]
            normal[k] = bad
            with pytest.raises(ValueError, match="mirror normal must be unit length"):
                RmImage.from_planes([(normal, 0.0)])

    def test_reference_pair_distinct(self):
        with pytest.raises(ValueError):
            ReferencePair(tx_ref=np.ones(3), rx_ref=np.ones(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("end", ["tx_ref", "rx_ref", "both"])
    def test_reference_pair_rejects_non_finite_points(self, bad, end):
        point = np.array([1.0, bad, 2.0])
        kwargs = {"tx_ref": np.zeros(3), "rx_ref": np.array([4.0, 0.0, 1.0])}
        for key in kwargs if end == "both" else [end]:
            kwargs[key] = point
        with pytest.raises(ValueError, match=f"{'tx_ref' if end == 'both' else end} must be finite"):
            ReferencePair(**kwargs)

    def test_reference_pair_match_tolerance_scales_with_separation(self):
        ex = np.array([1.0, 0.0, 0.0])
        for sep in (0.5, 2000.0):
            ref = ReferencePair(tx_ref=np.zeros(3), rx_ref=sep * ex)
            tol = 1e-9 * max(1.0, sep)
            assert ref.matches(ref.tx_ref + 0.9 * tol * ex, ref.rx_ref)
            assert ref.matches(ref.tx_ref, ref.rx_ref - 0.9 * tol * ex)
            assert not ref.matches(ref.tx_ref + 1.1 * tol * ex, ref.rx_ref)
            assert not ref.matches(ref.tx_ref, ref.rx_ref - 1.1 * tol * ex)


class TestImageAngleErrors:
    REF = ReferencePair(tx_ref=np.array([1.0, 2.0, 3.0]), rx_ref=np.array([6.0, -1.0, 2.0]))

    def test_an_image_on_the_reference_receiver_has_no_angles(self):
        img = RmImage(np.eye(3), self.REF.rx_ref - self.REF.tx_ref)
        with pytest.raises(ValueError, match="transmitter image coincides with the reference"):
            _image_angles(img, self.REF)

    def test_a_determinant_off_unit_has_no_parity(self):
        # inside RmImage's orthogonality tolerance (U^T U = I within 1e-9),
        # but det U = 1 + 1.2e-9 is more than 1e-9 off +1
        img = RmImage((1.0 + 4e-10) * np.eye(3), np.array([0.0, 5.0, 0.0]))
        with pytest.raises(ValueError, match=r"mirror chain determinant \S+ is not \+-1"):
            _image_angles(img, self.REF)


class TestLosDistance:
    def test_345(self):
        assert los_distance(np.array([3.0, 4.0, 0.0]), np.zeros(3)) == 5.0

    def test_zero(self):
        assert los_distance(np.ones(3), np.ones(3)) == 0.0

    @given(st.tuples(*[st.floats(-50, 50)] * 6))
    def test_matches_formula(self, xs):
        rx, tx = np.array(xs[:3]), np.array(xs[3:])
        expected = math.sqrt(sum((a - b) ** 2 for a, b in zip(rx, tx)))
        assert los_distance(rx, tx) == pytest.approx(expected, abs=1e-12)


class TestPwaDistance:
    def test_reference_gives_c_tau(self):
        path = los_path(LOS_REF)
        got = pwa_distance(LOS_REF.rx_ref, LOS_REF.tx_ref, LOS_REF, path)
        assert got == pytest.approx(C_LIGHT * path.delay, abs=1e-12)

    def test_collinear_rx_shift_exact(self):
        path = los_path(LOS_REF)
        u_r = spherical_dir(path.aoa_az, path.aoa_el)
        for delta in (0.05, 0.4, 1.7):
            got = pwa_distance(
                LOS_REF.rx_ref + delta * u_r, LOS_REF.tx_ref, LOS_REF, path
            )
            assert got == pytest.approx(100.0 - delta, abs=1e-12)

    def test_second_order_error_halving(self):
        path = los_path(LOS_REF)
        rng = np.random.default_rng(7)
        for _ in range(20):
            dr, dt = rng.normal(size=3), rng.normal(size=3)
            errs = []
            for delta in (0.02, 0.01):
                rx = LOS_REF.rx_ref + delta * unit(dr)
                tx = LOS_REF.tx_ref + delta * unit(dt)
                truth = los_distance(rx, tx)
                errs.append(abs(pwa_distance(rx, tx, LOS_REF, path) - truth))
            assert 3.5 <= errs[0] / errs[1] <= 4.5


GROUND_BOUNCE = RmImage(U=np.diag([1.0, 1.0, -1.0]), g=np.zeros(3))


class TestRmDistanceImage:
    def test_identity_reduces_to_los(self):
        img = RmImage(U=np.eye(3), g=np.zeros(3))
        rx, tx = np.array([3.0, -4.0, 12.0]), np.array([0.0, 0.0, 0.0])
        assert rm_distance_image(rx, tx, img) == pytest.approx(13.0)

    def test_ground_bounce_sqrt20(self):
        got = rm_distance_image(
            np.array([4.0, 0.0, 1.0]), np.array([0.0, 0.0, 1.0]), GROUND_BOUNCE
        )
        assert got == pytest.approx(math.sqrt(20.0), abs=1e-12)

    def test_two_parallel_mirrors(self):
        # fold along x between mirrors x=0 then x=5: segments 1.5 + 5 + 2
        img = RmImage(U=np.eye(3), g=np.array([10.0, 0.0, 0.0]))
        got = rm_distance_image(
            np.array([3.0, 2.0, 1.0]), np.array([1.5, 2.0, 1.0]), img
        )
        assert got == pytest.approx(8.5, abs=1e-12)

    @pytest.mark.parametrize(
        "rx_shape, tx_shape",
        [((3,), (3,)), ((5, 3), (5, 3)), ((4, 1, 3), (1, 6, 3)), ((3,), (7, 3)), ((2, 3), (3,))],
    )
    def test_bits_of_the_broadcast_norm(self, rx_shape, tx_shape):
        # summed one coordinate at a time in the order np.linalg.norm sums
        # the (..., 3) difference, so every bit is that norm's
        rng = np.random.default_rng(len(rx_shape) * 10 + len(tx_shape))
        for det in (1.0, -1.0):
            img = RmImage(U=random_orthogonal(rng, det), g=rng.uniform(-50.0, 50.0, 3))
            rx = rng.uniform(-80.0, 80.0, rx_shape)
            tx = rng.uniform(-80.0, 80.0, tx_shape)
            want = np.linalg.norm(rx - (tx @ img.U.T + img.g), axis=-1)
            got = rm_distance_image(rx, tx, img)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_peak_memory_without_a_coordinate_triple(self):
        # (64, 1, 3) receivers against (1, 64, 3) transmitters, M N 8 bytes
        # an array: the running sum, one coordinate difference and numpy's
        # buffer for the difference's broadcast operand (M N values below
        # 8192 pairs) peak near 3.1 M N 8 bytes. A broadcast (M, N, 3)
        # difference and its norm take about 8 M N 8.
        rng = np.random.default_rng(3)
        rx = rng.uniform(-5.0, 5.0, (64, 1, 3))
        tx = rng.uniform(-5.0, 5.0, (1, 64, 3))
        rm_distance_image(rx, tx, GROUND_BOUNCE)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rm_distance_image(rx, tx, GROUND_BOUNCE)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 64 * 64 * 8


class TestConversions:
    def test_los_image_to_angles_values(self):
        img = RmImage(U=np.eye(3), g=np.zeros(3))
        path = image_to_angles(img, LOS_REF)
        assert path.delay == pytest.approx(100.0 / C_LIGHT)
        assert path.aoa_az == pytest.approx(math.pi)
        assert path.aoa_el == pytest.approx(0.0)
        assert path.s == -1
        assert path.roll == pytest.approx(0.0)
        assert path.aod_az == pytest.approx(0.0)
        assert path.aod_el == pytest.approx(0.0)

    def test_los_angles_to_image_identity(self):
        path = image_to_angles(RmImage(U=np.eye(3), g=np.zeros(3)), LOS_REF)
        img = angles_to_image(path, LOS_REF)
        assert img.U == pytest.approx(np.eye(3), abs=1e-9)
        assert img.g == pytest.approx(np.zeros(3), abs=1e-9)

    def test_ground_bounce_parity_and_roundtrip(self):
        ref = ReferencePair(
            tx_ref=np.array([0.0, 0.0, 1.0]), rx_ref=np.array([4.0, 0.0, 1.0])
        )
        path = image_to_angles(GROUND_BOUNCE, ref)
        assert path.s == 1
        assert path.delay == pytest.approx(math.sqrt(20.0) / C_LIGHT)
        img = angles_to_image(path, ref)
        assert img.U == pytest.approx(GROUND_BOUNCE.U, abs=1e-9)
        assert img.g == pytest.approx(GROUND_BOUNCE.g, abs=1e-9)

    def test_degenerate_zero_length_rejected(self):
        # image of the TX reference placed exactly at the RX reference
        img = RmImage(U=np.eye(3), g=LOS_REF.rx_ref - LOS_REF.tx_ref)
        with pytest.raises(ValueError):
            image_to_angles(img, LOS_REF)

    @pytest.mark.parametrize("det", [1, -1])
    def test_roundtrip_random_images(self, det):
        rng = np.random.default_rng(42 + det)
        for _ in range(50):
            img = RmImage(
                U=random_orthogonal(rng, det=det), g=rng.normal(scale=20, size=3)
            )
            ref = ReferencePair(
                tx_ref=rng.normal(scale=5, size=3),
                rx_ref=rng.normal(scale=5, size=3) + np.array([60.0, 0, 0]),
            )
            path = image_to_angles(img, ref)
            assert path.s in (-1, 1)
            assert -math.pi < path.roll <= math.pi
            back = angles_to_image(path, ref)
            assert back.U == pytest.approx(img.U, abs=1e-9)
            assert back.g == pytest.approx(img.g, abs=1e-9)


class TestAngleFormEquivalence:
    @pytest.mark.parametrize("det", [1, -1])
    def test_distance_agreement_1000_points(self, det):
        rng = np.random.default_rng(5 + det)
        for _ in range(10):
            img = RmImage(
                U=random_orthogonal(rng, det=det), g=rng.normal(scale=15, size=3)
            )
            ref = ReferencePair(
                tx_ref=rng.normal(scale=3, size=3),
                rx_ref=rng.normal(scale=3, size=3) + np.array([80.0, 5, 0]),
            )
            path = image_to_angles(img, ref)
            for _ in range(100):
                tx = ref.tx_ref + rng.uniform(-2, 2, size=3)
                rx = ref.rx_ref + rng.uniform(-2, 2, size=3)
                d_img = rm_distance_image(rx, tx, img)
                d_ang = rm_distance_angles(rx, tx, ref, path)
                assert abs(d_ang - d_img) <= 1e-9 * max(1.0, d_img)

    def test_reference_gives_c_tau(self):
        rng = np.random.default_rng(9)
        img = RmImage(U=random_orthogonal(rng, det=1), g=rng.normal(size=3))
        path = image_to_angles(img, LOS_REF)
        got = rm_distance_angles(LOS_REF.rx_ref, LOS_REF.tx_ref, LOS_REF, path)
        assert got == pytest.approx(C_LIGHT * path.delay, rel=1e-12)

    def test_los_rx_shift_along_arrival_direction(self):
        path = image_to_angles(RmImage(U=np.eye(3), g=np.zeros(3)), LOS_REF)
        u_r = spherical_dir(path.aoa_az, path.aoa_el)
        got = rm_distance_angles(
            LOS_REF.rx_ref + u_r, LOS_REF.tx_ref, LOS_REF, path
        )
        assert got == pytest.approx(C_LIGHT * path.delay - 1.0, rel=1e-12)


class TestGradients:
    """Central finite differences of the angle-form distance at the reference
    recover the negative arrival/departure directions."""

    STEP = 1e-6

    def fd_gradient(self, fn, x0):
        grad = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = self.STEP
            grad[i] = (fn(x0 + e) - fn(x0 - e)) / (2 * self.STEP)
        return grad

    @pytest.mark.parametrize("det", [1, -1])
    def test_gradients_match_directions(self, det):
        rng = np.random.default_rng(17 + det)
        for _ in range(25):
            img = RmImage(
                U=random_orthogonal(rng, det=det), g=rng.normal(scale=10, size=3)
            )
            ref = ReferencePair(
                tx_ref=rng.normal(scale=4, size=3),
                rx_ref=rng.normal(scale=4, size=3) + np.array([70.0, 0, 0]),
            )
            path = image_to_angles(img, ref)
            u_r = spherical_dir(path.aoa_az, path.aoa_el)
            u_t = spherical_dir(path.aod_az, path.aod_el)
            g_r = self.fd_gradient(
                lambda x: rm_distance_angles(x, ref.tx_ref, ref, path), ref.rx_ref
            )
            g_t = self.fd_gradient(
                lambda x: rm_distance_angles(ref.rx_ref, x, ref, path), ref.tx_ref
            )
            assert g_r == pytest.approx(-u_r, abs=1e-5)
            assert g_t == pytest.approx(-u_t, abs=1e-5)


def bits(values) -> bytes:
    """values as float64 bytes: equal only when equal bit for bit, signed
    zeros included."""
    return np.array(values, dtype=float).tobytes()


class TestFloatArithmetic:
    """The per-path conversions run on floats; they give the bits of the
    matrix products they replace, signed zeros included."""

    # Axis-aligned angles give exact zeros in the rotations.
    ANGLES = [0.0, -0.0, math.pi / 2, -math.pi / 2, math.pi, -math.pi, 0.3, -1.2, 1e-300]

    def test_align_rotation_is_the_matrix_product(self):
        for az, el in itertools.product(self.ANGLES, self.ANGLES):
            want = rotation_matrix("y", el) @ rotation_matrix("z", -az)
            assert align_rotation(az, el).tobytes() == want.tobytes(), (az, el)

    def test_image_to_angles_is_the_matrix_pipeline(self):
        # fit_rm_rt's conversion against the oracle's numpy products, on
        # signed permutations between axis-aligned endpoints, then random
        # images.
        signs = itertools.product([1.0, -1.0], repeat=3)
        images = [
            RmImage(U=np.eye(3)[list(perm)] * np.array(sign)[:, None], g=g)
            for perm, sign in itertools.product(itertools.permutations(range(3)), signs)
            for g in (np.zeros(3), np.array([0.0, 0.0, 4.98]), np.array([0.0, -6.0, 0.0]))
        ]
        refs = [
            ReferencePair(tx_ref=np.array([0.0, 0.0, 2.49]), rx_ref=np.array([25.0, 0.0, 2.49])),
            ReferencePair(tx_ref=np.array([1.0, 2.0, 3.0]), rx_ref=np.array([1.0, 2.0, 7.0])),
            ReferencePair(tx_ref=np.array([3.0, 0.0, 0.0]), rx_ref=np.array([-1.0, 0.0, 0.0])),
        ]
        rng = np.random.default_rng(11)
        for det in (1, -1):
            images += [
                RmImage(U=random_orthogonal(rng, det=det), g=rng.normal(scale=20, size=3))
                for _ in range(30)
            ]
        compared = 0
        for img, ref in itertools.product(images, refs):
            try:
                want = image_to_angles(img, ref)
            except ValueError:  # the image sits on the receiver
                continue
            dist, angles = _image_angles(img, ref)
            fields = (want.aoa_az, want.aoa_el, want.aod_az, want.aod_el, want.roll, want.s)
            assert bits((dist / C_LIGHT, *angles)) == bits((want.delay, *fields))
            compared += 1
        assert compared >= 400

