import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    RmImage,
    rotation_matrix,
    spherical_dir,
    unit,
    wrap_angle,
    z_reflection,
)
from reflectmimo.geometry import _dir_angles, _euler_factor

angles = st.floats(-20.0, 20.0, allow_nan=False)
unit_vecs = st.builds(
    lambda a, b: spherical_dir(a, b), st.floats(-math.pi, math.pi), st.floats(-1.5, 1.5)
)


class TestUnit:
    @pytest.mark.parametrize("bad", [(math.nan, 0.0, 0.0), (0.0, -math.inf, 1.0), (0.0, 0.0, 0.0)])
    def test_rejects_zero_and_non_finite(self, bad):
        # nan < 1e-15 is False: a NaN norm must not pass as a non-zero one
        with pytest.raises(ValueError, match="cannot normalize"):
            unit(np.array(bad))


class TestWrapAngle:
    @given(angles)
    def test_range_and_equivalence(self, a):
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-12)
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-12)

    def test_boundary_maps_to_pi(self):
        assert wrap_angle(math.pi) == math.pi
        assert wrap_angle(-math.pi) == math.pi
        assert wrap_angle(3 * math.pi) == pytest.approx(math.pi)


class TestRotationMatrix:
    def test_quarter_turn_z(self):
        out = rotation_matrix("z", math.pi / 2) @ np.array([1.0, 0.0, 0.0])
        assert out == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)

    def test_zero_angle_identity(self):
        assert rotation_matrix("y", 0.0) == pytest.approx(np.eye(3))

    def test_half_turn_x(self):
        out = rotation_matrix("x", math.pi) @ np.array([0.0, 1.0, 1.0])
        assert out == pytest.approx([0.0, -1.0, -1.0], abs=1e-15)

    @pytest.mark.parametrize("axis", ["x", "y", "z"])
    @given(a=angles)
    def test_orthogonal_unit_det(self, axis, a):
        m = rotation_matrix(axis, a)
        assert np.max(np.abs(m.T @ m - np.eye(3))) <= 1e-12
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("axis, fixed", [("x", 0), ("y", 1), ("z", 2)])
    def test_axis_is_fixed(self, axis, fixed):
        e = np.zeros(3)
        e[fixed] = 1.0
        assert rotation_matrix(axis, 0.83) @ e == pytest.approx(e)

    @given(a=angles, b=angles)
    def test_composition_adds_angles(self, a, b):
        lhs = rotation_matrix("z", a) @ rotation_matrix("z", b)
        assert lhs == pytest.approx(rotation_matrix("z", a + b), abs=1e-12)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError):
            rotation_matrix("w", 0.1)


class TestZReflection:
    def test_plus_one_identity(self):
        assert z_reflection(1) == pytest.approx(np.eye(3))

    def test_minus_one_flips_z(self):
        assert z_reflection(-1) @ np.array([1.0, 2.0, 3.0]) == pytest.approx(
            [1.0, 2.0, -3.0]
        )

    def test_involution(self):
        assert z_reflection(-1) @ z_reflection(-1) == pytest.approx(np.eye(3))

    @pytest.mark.parametrize("bad", [0, 2, -2])
    def test_rejects_non_sign(self, bad):
        with pytest.raises(ValueError):
            z_reflection(bad)


class TestHouseholder:
    # The Householder mirror I - 2 n n^T is the U of a one-plane image.
    @staticmethod
    def mirror(n, b=0.0) -> RmImage:
        return RmImage.from_planes([(n, b)])

    def test_ez(self):
        assert self.mirror(np.array([0.0, 0.0, 1.0])).U == pytest.approx(
            np.diag([1.0, 1.0, -1.0])
        )

    def test_ex_applied(self):
        v = self.mirror(np.array([1.0, 0.0, 0.0])).U @ np.array([5.0, 1.0, 1.0])
        assert v == pytest.approx([-5.0, 1.0, 1.0])

    @given(u=unit_vecs, b=st.floats(-5.0, 5.0))
    def test_det_minus_one_and_involution(self, u, b):
        img = self.mirror(u, b)
        v = img.U
        assert np.max(np.abs(v - (np.eye(3) - 2.0 * np.outer(u, u)))) <= 1e-12
        assert np.linalg.det(v) == pytest.approx(-1.0, abs=1e-12)
        assert np.max(np.abs(v @ v - np.eye(3))) <= 1e-12
        assert img.g == pytest.approx(2.0 * b * u, abs=1e-12)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError, match="unit length"):
            self.mirror(np.array([1.0, 1.0, 0.0]))


class TestEulerFactorSO3:
    def test_identity(self):
        assert _euler_factor(*np.eye(3).tolist()) == pytest.approx((0.0, 0.0, 0.0))

    def test_single_axis_z(self):
        g, t, p = _euler_factor(*rotation_matrix("z", -0.3).tolist())
        assert (g, t, p) == pytest.approx((0.0, 0.0, 0.3))

    @staticmethod
    def compose(g, t, p):
        return (
            rotation_matrix("x", g) @ rotation_matrix("y", t) @ rotation_matrix("z", -p)
        )

    @settings(max_examples=300)
    @given(
        g=st.floats(-math.pi, math.pi),
        t=st.floats(-math.pi / 2 + 1e-6, math.pi / 2 - 1e-6),
        p=st.floats(-math.pi, math.pi),
    )
    def test_roundtrip_reconstruction(self, g, t, p):
        m = self.compose(g, t, p)
        out = _euler_factor(*m.tolist())
        assert np.max(np.abs(self.compose(*out) - m)) <= 1e-9
        assert -math.pi / 2 <= out[1] <= math.pi / 2

    def test_roundtrip_1000_random_so3(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            m = self.compose(*rng.uniform(-math.pi, math.pi, size=3))
            out = _euler_factor(*m.tolist())
            assert np.max(np.abs(self.compose(*out) - m)) <= 1e-9

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_gimbal_lock_sets_gamma_zero(self, sign):
        m = self.compose(0.4, sign * math.pi / 2, -0.9)
        g, t, p = _euler_factor(*m.tolist())
        assert g == 0.0
        assert t == pytest.approx(sign * math.pi / 2)
        assert np.max(np.abs(self.compose(g, t, p) - m)) <= 1e-9

    def test_rejects_reflection(self):
        with pytest.raises(ValueError):
            _euler_factor(*np.diag([1.0, 1.0, -1.0]).tolist())

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError):
            _euler_factor(*(np.eye(3) * 1.1).tolist())

    def test_rejects_non_finite_entries(self):
        # a NaN entry used to pass the orthogonality test and factor to
        # angles, (0, 0, 0) for a NaN on the diagonal
        for i in range(3):
            for j in range(3):
                m = np.eye(3)
                m[i, j] = math.nan
                with pytest.raises(ValueError, match="not orthogonal"):
                    _euler_factor(*m.tolist())


class TestSphericalDir:
    def test_x_axis(self):
        assert spherical_dir(0.0, 0.0) == pytest.approx([1.0, 0.0, 0.0])

    def test_y_axis(self):
        assert spherical_dir(math.pi / 2, 0.0) == pytest.approx(
            [0.0, 1.0, 0.0], abs=1e-15
        )

    def test_pole_ignores_azimuth(self):
        assert spherical_dir(1.234, math.pi / 2) == pytest.approx(
            [0.0, 0.0, 1.0], abs=1e-12
        )

    @given(az=st.floats(-math.pi, math.pi), el=st.floats(-math.pi / 2, math.pi / 2))
    def test_unit_norm(self, az, el):
        assert np.linalg.norm(spherical_dir(az, el)) == pytest.approx(1.0, abs=1e-12)


class TestDirToAngles:
    def test_minus_x(self):
        assert _dir_angles(-1.0, 0.0, 0.0) == pytest.approx((math.pi, 0.0))

    def test_pole_convention(self):
        assert _dir_angles(0.0, 0.0, -1.0) == pytest.approx((0.0, -math.pi / 2))

    def test_roundtrip_1000(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            u = unit(rng.normal(size=3))
            az, el = _dir_angles(*u.tolist())
            assert spherical_dir(az, el) == pytest.approx(u, abs=1e-9)
            assert -math.pi < az <= math.pi
            assert -math.pi / 2 <= el <= math.pi / 2

