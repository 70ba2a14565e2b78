"""Every public function checks each argument annotated float or
float | None by one rule, geometry._real: a real number, not a bool, finite
and in range. The table below gives one valid call of each function in
reflectmimo.__all__ and fileio.__all__ that takes such an argument; the
test substitutes each of the seven values of scenelib.BAD_REALS for each
such argument, found from the annotations, and expects a ValueError whose
message ends with the value. A public function with a float argument and no
row here fails, so later code stays inside the contract.

The records, the public classes, are the other half of the contract:
tests/test_records.py generates it from their fields. The hot kernels
(EXEMPT) are outside it: their callers check what they pass.
"""

import math
import re
from dataclasses import is_dataclass
from typing import get_type_hints

import numpy as np
import pytest

import reflectmimo
from reflectmimo import (
    C_LIGHT,
    DisplacementSpec,
    LinkBudget,
    PwaPath,
    ReferencePair,
    Scene,
)
from reflectmimo import fileio
from scenelib import BAD_REALS

F0 = 28e9
TX = np.array([0.0, 0.0, 1.5])
RX = np.array([6.0, 1.0, 1.5])
REF = ReferencePair(tx_ref=TX, rx_ref=RX)
AZ = math.atan2(1.0, 6.0)
PWA = PwaPath(1e-3 + 0j, math.dist(TX, RX) / C_LIGHT, AZ - math.pi, 0.0, AZ, 0.0)
EMPTY = Scene(facets=(), carrier_freq=F0)
LOS = dict(tx_points=TX[None], rx_points=RX[None], paths=(PWA,), ref=REF)

# the per-path kernels: their callers check the angles and frequencies they pass
EXEMPT = ("wrap_angle", "spherical_dir", "rotation_matrix", "align_rotation", "phasor_sum")

# public function -> keyword arguments of one valid call
CALLS = {
    "rayleigh_distance": dict(aperture=0.1, wavelength=0.002),
    "rho": dict(snr=1.0),
    "upa": dict(rows=2, cols=2, spacing=0.1, center=TX, azimuth_rotation=0.0),
    "make_facet": dict(center=np.zeros(3), normal=[0.0, 0.0, 1.0], half_u=1.0, half_v=1.0),
    "channel_evaluator": dict(**LOS, model="pwa", f0=F0),
    "plane_wave_core": dict(**LOS, model="pwa", f0=F0),
    "mimo_matrix": dict(**LOS, model="pwa", f=F0, f0=F0),
    "mimo_from_traced_pairs": dict(
        pair_params=[[(np.array([1e-3 + 0j]), np.array([PWA.delay]))]], f=F0, f0=F0
    ),
    "capacity_sweep": dict(
        scene=EMPTY, ref=REF, rotations=[0.0], budget=LinkBudget(), rows=1, cols=1,
        spacing=0.1, models=("pwa",), n_freq=1, max_bounces=0,
    ),
    "displacement_experiment": dict(
        scene=EMPTY, ref=REF, spec=DisplacementSpec((0.01, 0.02), 1), bandwidth=2e9,
        n_freq=1, models=("pwa",), max_bounces=0,
    ),
}


PUBLIC = {
    name: getattr(module, name) for module in (reflectmimo, fileio) for name in module.__all__
}
# the public classes are records, whose half of the contract is tests/test_records.py
FUNCTIONS = {
    name: obj for name, obj in PUBLIC.items() if callable(obj) and not isinstance(obj, type)
}


def float_arguments(function) -> list[str]:
    """The parameters of function annotated float or float | None."""
    hints = get_type_hints(function)
    hints.pop("return", None)
    return [name for name, hint in hints.items() if hint in (float, float | None)]


CASES = [
    pytest.param(name, argument, id=f"{name}.{argument}")
    for name, function in FUNCTIONS.items()
    if name not in EXEMPT
    for argument in float_arguments(function)
]


@pytest.mark.parametrize("bad", BAD_REALS.values(), ids=BAD_REALS.keys())
@pytest.mark.parametrize("name, argument", CASES)
def test_every_float_argument_of_a_public_function_is_checked(name, argument, bad):
    assert name in CALLS, f"{name} has a float argument and no valid call here"
    with pytest.raises(ValueError, match=re.escape(repr(bad)) + "$"):
        FUNCTIONS[name](**dict(CALLS[name], **{argument: bad}))


def test_the_table_holds_every_function_with_a_float_argument():
    found = {name for name, function in FUNCTIONS.items() if float_arguments(function)}
    assert set(CALLS) == found - set(EXEMPT)
    assert set(EXEMPT) <= found


def test_every_public_class_is_a_record():
    classes = [name for name, obj in PUBLIC.items() if isinstance(obj, type)]
    assert classes and all(is_dataclass(PUBLIC[name]) for name in classes)


@pytest.mark.parametrize("name", CALLS)
def test_table_calls_are_valid(name):
    # so that each rejection above is the argument's check
    FUNCTIONS[name](**CALLS[name])
