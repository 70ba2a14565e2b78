"""Every entry that takes a point or an array of points checks it by one
rule, geometry.as_points: a float (..., 3) array that holds at least one
point, all of them finite and each coordinate under 1e150 m, with the
number of axes the entry needs.

The table below calls each entry with one of its point arguments made
non-finite, finite past that reach, or misshapen, and expects a ValueError
that names the argument. Before the rule was shared, several entries let a
NaN through: a NaN element position gave NaN channel entries, a NaN
displaced pair made fit_rm_dp drop every path, and a NaN route vertex or
mirror offset was stored as given. So was PathExport's pair, which could
save a NaN point into a file that load_paths refuses. Before it had a
reach, a model file
whose reference receiver sat at 1e308 m predicted a NaN channel: its
squared distances overflowed.
"""

import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from reflectmimo import (
    C_LIGHT,
    Facet,
    PairObservation,
    PwaPath,
    ReferencePair,
    RmImage,
    RmPath,
    Route,
    Scene,
    channel_evaluator,
    fit_rm_dp,
    make_facet,
    mimo_matrix,
    plane_wave_core,
    pwa_distance,
    rm_distance_image,
    trace_array_pairs,
    trace_pairs,
    trace_paths,
    trace_sequence,
    upa,
)
from reflectmimo.fileio import PathExport

F0 = 28e9
EX, EY, EZ = np.eye(3)
TX = np.array([0.0, 0.0, 1.5])
RX = np.array([6.0, 1.0, 1.5])
REF = ReferencePair(tx_ref=TX, rx_ref=RX)
# the line-of-sight path of REF; GROUND_SCENE adds a ground bounce
AZ = math.atan2(1.0, 6.0)
PWA = PwaPath(1e-3 + 0j, math.dist(TX, RX) / C_LIGHT, AZ - math.pi, 0.0, AZ, 0.0)
RM = RmPath(**asdict(PWA), roll=0.0, s=-1)
GROUND_SCENE = Scene(facets=(make_facet(np.zeros(3), EZ),), carrier_freq=F0)
ARRAYS = dict(tx_points=upa(2, 2, 0.1, center=TX), rx_points=upa(2, 2, 0.1, center=RX))

# entry -> (function, valid keyword arguments, {point argument: its number
# of axes, None for any}); every point argument is named by its parameter
ENTRIES = {
    "ReferencePair": (ReferencePair, dict(tx_ref=TX, rx_ref=RX), {"tx_ref": 1, "rx_ref": 1}),
    "PairObservation": (
        PairObservation, dict(tx=TX, rx=RX, paths=(PWA,)), {"tx": 1, "rx": 1},
    ),
    "PathExport": (PathExport, dict(tx=TX, rx=RX, f0_hz=F0, paths=()), {"tx": 1, "rx": 1}),
    "RmImage": (RmImage, dict(U=np.eye(3), g=RX - TX), {"g": 1}),
    "Route": (Route, dict(vertices=np.array([TX, [3.0, 0.5, 0.0], RX])), {"vertices": 2}),
    "Facet": (
        Facet, dict(center=np.zeros(3), axis_u=EX, axis_v=EY, half_u=1.0, half_v=1.0),
        {"center": 1, "axis_u": 1, "axis_v": 1},
    ),
    "make_facet": (make_facet, dict(center=np.zeros(3), normal=EZ), {"center": 1, "normal": 1}),
    "upa": (upa, dict(rows=2, cols=2, spacing=0.1, center=TX), {"center": 1}),
    "pwa_distance": (pwa_distance, dict(rx=RX, tx=TX, ref=REF, path=PWA), {"rx": None, "tx": None}),
    "rm_distance_image": (
        rm_distance_image, dict(rx=RX, tx=TX, img=RmImage(U=np.eye(3), g=np.zeros(3))),
        {"rx": None, "tx": None},
    ),
    "trace_paths": (trace_paths, dict(scene=GROUND_SCENE, tx=TX, rx=RX), {"tx": 1, "rx": 1}),
    "trace_sequence": (
        trace_sequence, dict(scene=GROUND_SCENE, sequence=(0,), tx=TX, rx=RX), {"tx": 1, "rx": 1},
    ),
    "trace_pairs": (
        trace_pairs, dict(scene=GROUND_SCENE, **ARRAYS), {"tx_points": None, "rx_points": None},
    ),
    "mimo_matrix[pwa]": (
        mimo_matrix, dict(**ARRAYS, model="pwa", f=F0, f0=F0, paths=(PWA,), ref=REF),
        {"tx_points": 2, "rx_points": 2},
    ),
    "mimo_matrix[rm_image]": (
        mimo_matrix, dict(**ARRAYS, model="rm_image", f=F0, f0=F0, paths=(RM,), ref=REF),
        {"tx_points": 2, "rx_points": 2},
    ),
    "channel_evaluator[constant]": (
        channel_evaluator, dict(**ARRAYS, model="constant", f0=F0, paths=(PWA,), ref=REF),
        {"tx_points": 2, "rx_points": 2},
    ),
    "channel_evaluator[exhaustive]": (
        channel_evaluator, dict(**ARRAYS, model="exhaustive", f0=F0, scene=GROUND_SCENE),
        {"tx_points": 2, "rx_points": 2},
    ),
    "plane_wave_core[pwa]": (
        plane_wave_core, dict(**ARRAYS, model="pwa", f0=F0, paths=(PWA,), ref=REF),
        {"tx_points": 2, "rx_points": 2},
    ),
    "trace_array_pairs": (
        trace_array_pairs, dict(scene=GROUND_SCENE, **ARRAYS), {"tx_points": 2, "rx_points": 2},
    ),
}


# a coordinate the point check rejects, by fault
BAD_COORDINATES = {"nan": math.nan, "inf": -math.inf, "past reach": 1e308}


def corrupt(value, ndim: int | None, fault: str) -> np.ndarray:
    """value with one coordinate NaN, infinite or finite past the reach of
    a point, its last axis cut to two coordinates, or, for the shape, an
    axis added (one point, an array) or every point dropped (any number of
    axes)."""
    bad = np.array(value, dtype=float)
    if fault in BAD_COORDINATES:
        bad.reshape(-1)[1] = BAD_COORDINATES[fault]
        return bad
    if fault == "coordinates":
        return bad[..., :2]
    return bad[None] if ndim is not None else bad[:0]


CASES = [
    pytest.param(entry, name, ndim, fault, id=f"{entry}-{name}-{fault}")
    for entry, (_, _, points) in ENTRIES.items()
    for name, ndim in points.items()
    for fault in (*BAD_COORDINATES, "coordinates", "shape")
]


@pytest.mark.parametrize("entry, name, ndim, fault", CASES)
def test_point_arguments_are_checked(entry, name, ndim, fault):
    function, kwargs, _ = ENTRIES[entry]
    bad = corrupt(kwargs[name], ndim, fault)
    with pytest.raises(ValueError, match=f"^{name} must "):
        function(**dict(kwargs, **{name: bad}))


@pytest.mark.parametrize("entry", ENTRIES)
def test_table_entries_accept_their_valid_arguments(entry):
    # so that each rejection above is the point check's
    function, kwargs, _ = ENTRIES[entry]
    function(**kwargs)


def test_fit_rm_dp_with_a_nan_displaced_pair_raises():
    # the NaN pair's equations made every roll fit fail, and fit_rm_dp
    # returned [] without an error
    reference = PairObservation(tx=TX, rx=RX, paths=(PWA,))
    displaced = [
        PairObservation(tx=tx, rx=rx, paths=(replace(PWA, delay=math.dist(tx, rx) / C_LIGHT),))
        for tx, rx in ((TX + [0.0, 0.01, 0.0], RX + [0.0, 0.0, 0.01]), (TX + EY / 50, RX - EY / 50))
    ]
    assert [p.s for p in fit_rm_dp(reference, displaced, REF)] == [-1]
    nan_tx = displaced[1].tx.copy()
    nan_tx[0] = math.nan
    with pytest.raises(ValueError, match="^tx must be finite"):
        fit_rm_dp(reference, [displaced[0], replace(displaced[1], tx=nan_tx)], REF)


def test_path_export_holds_its_points_as_float_arrays():
    # a list stayed a list, and a NaN point saved a file that load_paths refuses
    export = PathExport([0, 0, 1], RX.tolist(), F0, ())
    for got, want in ((export.tx, [0.0, 0.0, 1.0]), (export.rx, RX)):
        assert type(got) is np.ndarray and got.dtype == float and got.tolist() == list(want)


def test_route_needs_both_ends():
    # the one check Route keeps besides as_points
    with pytest.raises(ValueError, match="^vertices must hold at least the TX and RX points"):
        Route(vertices=TX[None])
