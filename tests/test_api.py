"""The public surface: exported names and the benchmark's span targets.

Every name a module lists in __all__ must exist, so a deletion that leaves its
export entry behind fails here rather than at a star import.

perfbench/spans.py wraps public functions by (layer, name) to time them; a
name deleted from the package would only show up there as a failed traced
benchmark run, so the targets are checked here. The file is parsed, not
imported, because it belongs to the benchmark.

The frozen dataclasses that hold numpy arrays compare and hash by identity:
a field-wise == would have to reduce array comparisons to one bool.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import reflectmimo
from reflectmimo import fileio

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def span_targets() -> dict[str, tuple[str, ...]]:
    for node in ast.parse(SPANS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {SPANS}")


def test_every_exported_name_resolves():
    missing = [n for n in reflectmimo.__all__ if not hasattr(reflectmimo, n)]
    assert missing == []
    assert len(set(reflectmimo.__all__)) == len(reflectmimo.__all__)


@pytest.mark.parametrize(
    "module", [m.name for m in pkgutil.iter_modules(reflectmimo.__path__)]
)
def test_every_submodule_export_resolves(module):
    mod = importlib.import_module(f"reflectmimo.{module}")
    names = getattr(mod, "__all__", [])
    assert [n for n in names if not hasattr(mod, n)] == []
    assert len(set(names)) == len(names)


def test_span_targets_exist():
    targets = span_targets()
    assert targets
    missing = [
        f"{layer}.{name}"
        for layer, names in targets.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"reflectmimo.{layer}"), name, None))
    ]
    assert missing == []


def _scene():
    return reflectmimo.Scene(
        facets=(reflectmimo.make_facet(np.zeros(3), np.array([0.0, 0.0, 1.0])),),
        carrier_freq=1e9,
    )


def _ref():
    return reflectmimo.ReferencePair(tx_ref=np.zeros(3), rx_ref=np.ones(3))


def _route():
    return reflectmimo.Route(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), ())


ARRAY_DATACLASSES = {
    "Facet": lambda: reflectmimo.make_facet(np.zeros(3), np.array([0.0, 0.0, 1.0])),
    "Scene": _scene,
    "Route": _route,
    "TracedPath": lambda: reflectmimo.TracedPath(
        route=_route(), gain=1.0 + 0j, delay=1.0 / reflectmimo.C_LIGHT
    ),
    "ReferencePair": _ref,
    "RmImage": lambda: reflectmimo.RmImage(U=np.eye(3), g=np.zeros(3)),
    "ArrayGeometry": lambda: reflectmimo.upa(1, 2, 0.1, np.zeros(3)),
    "MimoMatrix": lambda: reflectmimo.MimoMatrix(entries=np.eye(2), frequency=1e9),
    "PairObservation": lambda: reflectmimo.PairObservation(
        tx=np.zeros(3), rx=np.ones(3), paths=()
    ),
    "PathExport": lambda: fileio.PathExport(
        tx=np.zeros(3), rx=np.ones(3), f0_hz=1e9, paths=()
    ),
    "RmExport": lambda: fileio.RmExport(ref=_ref(), f0_hz=1e9, paths=()),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2
