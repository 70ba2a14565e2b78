import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reflectmimo import (
    C_LIGHT,
    DisplacementSpec,
    LinkBudget,
    PwaPath,
    RateModel,
    ReferencePair,
    RmImage,
    RmPath,
    Route,
    Scene,
    TracedPath,
    channel_evaluator,
    displacement_experiment,
    make_facet,
    mimo_from_traced_pairs,
    mimo_matrix,
    plane_wave_core,
    rayleigh_distance,
    rho,
    rotation_matrix,
    spherical_dir,
    trace_paths,
    trace_sequence,
    unit,
    upa,
    wrap_angle,
    z_reflection,
)
from reflectmimo.fileio import PathExport
from reflectmimo.geometry import _dir_angles, _euler_factor
from scenelib import BAD_REALS

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


TX, RX = np.array([0.0, 0.0, 1.0]), np.array([4.0, 0.0, 1.0])
FLOOR_AND_CEILING = Scene(
    facets=(make_facet(np.zeros(3), np.array([0.0, 0, 1])),
            make_facet(np.array([0.0, 0, 9]), np.array([0.0, 0, -1]))),
    carrier_freq=1e9,
)
# count argument -> (call with a bool for it, the message of geometry._at_least)
BOOL_COUNTS = {
    "max_bounces": (
        lambda: trace_paths(FLOOR_AND_CEILING, TX, RX, max_bounces=True),
        "max_bounces must be between 0 and 3",
    ),
    "rows": (lambda: upa(True, 2, 0.1, TX), "rows must be a positive integer"),
    "cols": (lambda: upa(2, True, 0.1, TX), "cols must be a positive integer"),
    "n_freq": (
        lambda: displacement_experiment(
            FLOOR_AND_CEILING, ReferencePair(tx_ref=TX, rx_ref=RX), n_freq=True
        ),
        "n_freq must be a positive integer",
    ),
    "rng_seed": (
        lambda: DisplacementSpec(rng_seed=False), "rng_seed must be a non-negative integer"
    ),
    "directions_per_distance": (
        lambda: DisplacementSpec(directions_per_distance=True),
        "need at least one direction per distance",
    ),
    "Route facet id": (
        lambda: Route(vertices=np.array([TX, [2.0, 0.0, 0.0], RX]), facet_ids=(False,)),
        "facet_ids must hold facet indices",
    ),
    "trace_sequence index": (
        lambda: trace_sequence(FLOOR_AND_CEILING, (True,), TX, RX),
        "sequence must hold facet indices",
    ),
}


@pytest.mark.parametrize("count", BOOL_COUNTS)
def test_a_count_is_not_a_bool(count):
    # operator.index takes Python's bool as 0 or 1, though not numpy's:
    # max_bounces=True traced one bounce, and upa(True, 2, ...) built a row
    call, message = BOOL_COUNTS[count]
    with pytest.raises(ValueError, match=re.escape(f"{message}, got ") + "(True|False)$"):
        call()


# the channel layer's arguments: the line of sight from TX to RX as one path
LOS = {
    "paths": [PwaPath(1.0 + 0j, 4.0 / C_LIGHT, math.pi, 0.0, 0.0, 0.0)],
    "ref": ReferencePair(TX, RX),
}

# the fields of a path record, valid, in order: PwaPath's, then RmPath's roll and s
PATH_FIELDS = (1.0 + 0j, 4.0 / C_LIGHT, math.pi, 0.0, 0.0, 0.0, 0.5, 1)
LOS_ROUTE = Route(vertices=np.array([TX, RX]))
# one pair's traced gains and delays, as trace_array_pairs gives them
PAIR_PARAMS = [[(np.array([1.0 + 0j]), np.array([4.0 / C_LIGHT]))]]
DELAY_MESSAGE = "path delay must be positive and under 3.34e+141 s, got "


def path_field(cls, index):
    """cls(...) with PATH_FIELDS[index] replaced by x, as a function of x."""
    return lambda x: cls(*PATH_FIELDS[:index], x, *PATH_FIELDS[index + 1 : len(fields(cls))])


# real or complex argument -> (call with x for it, the message of geometry._real
# or geometry._complex up to the value); a file's numbers pass fileio._number
# first, see tests/test_fileio_cli.py::NON_FINITE_SETTINGS. A gain takes all
# seven values: none is a finite complex.
API_REALS = {
    "azimuth_rotation": (
        lambda x: upa(2, 2, 0.1, TX, azimuth_rotation=x), "azimuth_rotation must be finite, got "
    ),
    "rho": (rho, "SNR must be non-negative, got "),
    "rayleigh_distance aperture": (
        lambda x: rayleigh_distance(x, 0.002),
        "aperture must be non-negative and wavelength positive, both finite, got 'aperture' = ",
    ),
    "rayleigh_distance wavelength": (
        lambda x: rayleigh_distance(1.0, x),
        "aperture must be non-negative and wavelength positive, both finite, got 'wavelength' = ",
    ),
    "channel_evaluator f0": (
        lambda x: channel_evaluator(TX[None], RX[None], "pwa", x, **LOS),
        "reference frequency f0 must be positive, got ",
    ),
    "plane_wave_core f0": (
        lambda x: plane_wave_core(TX[None], RX[None], "pwa", x, **LOS),
        "reference frequency f0 must be positive, got ",
    ),
    "mimo_matrix f": (
        lambda x: mimo_matrix(TX[None], RX[None], "pwa", x, 28e9, **LOS),
        "frequency f must be positive, got ",
    ),
    "channel_evaluator band": (
        lambda x: next(channel_evaluator(TX[None], RX[None], "pwa", 28e9, **LOS).band(x, 2)),
        "bandwidth must be positive and under twice f0 = 28000000000.0 Hz, got ",
    ),
    "plane_wave_core band": (
        lambda x: plane_wave_core(TX[None], RX[None], "pwa", 28e9, **LOS).band(x, 2),
        "bandwidth must be positive and under twice f0 = 28000000000.0 Hz, got ",
    ),
    "mimo_from_traced_pairs f": (
        lambda x: mimo_from_traced_pairs(PAIR_PARAMS, x, 28e9),
        "frequency f must be positive, got ",
    ),
    "mimo_from_traced_pairs f0": (
        lambda x: mimo_from_traced_pairs(PAIR_PARAMS, 28e9, x),
        "reference frequency f0 must be positive, got ",
    ),
    "PathExport f0_hz": (
        lambda x: PathExport(TX, RX, x, ()),
        "reference frequency f0_hz must be positive, got ",
    ),
    "PwaPath gain": (path_field(PwaPath, 0), "path gain must be finite, got "),
    "PwaPath delay": (path_field(PwaPath, 1), DELAY_MESSAGE),
    **{
        f"PwaPath {name}": (path_field(PwaPath, k), f"path {name} must be finite, got ")
        for k, name in enumerate(("aoa_az", "aoa_el", "aod_az", "aod_el"), start=2)
    },
    "RmPath roll": (path_field(RmPath, 6), "path roll must be finite, got "),
    "TracedPath gain": (
        lambda x: TracedPath(LOS_ROUTE, x, 4.0 / C_LIGHT), "path gain must be finite, got "
    ),
    "TracedPath delay": (lambda x: TracedPath(LOS_ROUTE, 1.0 + 0j, x), DELAY_MESSAGE),
}


@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
@pytest.mark.parametrize("argument", API_REALS)
def test_a_real_is_a_finite_number_not_a_bool(argument, bad):
    # upa(2, 2, 0.1, TX, azimuth_rotation=True) turned the array by 1 rad,
    # rho(True) and rho(inf) returned a rate; "1.0" raised a TypeError and
    # 10**400 an OverflowError
    call, message = API_REALS[argument]
    with pytest.raises(ValueError, match=re.escape(message + repr(bad)) + "$"):
        call(bad)


def test_a_real_is_stored_as_a_float():
    scene = Scene(facets=(), carrier_freq=28_000_000_000, reflection_loss_db=np.float32(3.0))
    budget = LinkBudget(tx_power_dbm=np.int64(20), bandwidth_hz=10**9, noise_figure_db=5)
    records = [scene.carrier_freq, scene.reflection_loss_db, *vars(budget).values()]
    records += vars(RateModel(alpha=1, se_max=np.float16(4))).values()
    records += DisplacementSpec(distances=(1, np.int32(2))).distances
    assert records == [28e9, 3.0, 20.0, 1e9, 5.0, 1.0, 4.0, 1.0, 2.0]
    assert all(type(x) is float for x in records)


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

    @pytest.mark.parametrize("bad", [0, 2, -2, True, np.True_, 1.0, np.float64(-1.0), "1"])
    def test_rejects_non_sign(self, bad):
        # True and 1.0 equal 1, and returned the identity
        message = re.escape(f"reflection parity must be -1 or +1, got {bad!r}") + "$"
        with pytest.raises(ValueError, match=message):
            z_reflection(bad)

    @pytest.mark.parametrize("s", [1, -1, np.int64(-1)])
    def test_takes_an_integer_sign(self, s):
        assert z_reflection(s) @ np.array([1.0, 2.0, 3.0]) == pytest.approx([1.0, 2.0, 3.0 * s])


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

