"""The public surface: exported names and the benchmark's span targets.

Every name a module lists in __all__ must exist, so a deletion that leaves its
export entry behind fails here rather than at a star import. The package root
re-exports the __all__ of its eight pipeline modules and nothing else, so a
public name is declared in one place.

perfbench/spans.py wraps public functions by (layer, name) to time them; a
name deleted from the package would only show up there as a failed traced
benchmark run, so the targets are checked here. The file is parsed, not
imported, because it belongs to the benchmark. Some of its hooks also read a
wrapped call's arguments by name, the workloads call the per-path API
positionally, and they build scenes and re-trace routes with keyword
arguments, so those parameters are checked as well: a renamed one would fail
every benchmark unit.

The frozen dataclasses that hold numpy arrays compare and hash by identity:
a field-wise == would have to reduce array comparisons to one bool.
"""

import ast
import importlib
import inspect
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


SUBMODULES = [m.name for m in pkgutil.iter_modules(reflectmimo.__path__)]

# The modules the root re-exports, in the order of its __all__; fileio and
# the CLI stay behind their module names.
PIPELINE = ["capacity", "channel", "experiments", "fit_dp", "fit_rt", "geometry", "paths", "tracer"]


def test_root_exports_are_the_pipeline_modules_exports():
    modules = [importlib.import_module(f"reflectmimo.{name}") for name in PIPELINE]
    assert reflectmimo.__all__ == [n for mod in modules for n in mod.__all__]
    # a star import that leaks a helper module (np, math) or a private
    # helper without an underscore shows up as an extra public attribute
    public = {n for n in dir(reflectmimo) if not n.startswith("_")}
    assert public - set(SUBMODULES) == set(reflectmimo.__all__)
    assert "MAX_BOUNCES" in reflectmimo.tracer.__all__


@pytest.mark.parametrize("module", SUBMODULES)
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


# Arguments the span hooks read: a first parameter as args[0] or by its name,
# a keyword-only one from kwargs.
HOOK_ARGUMENTS = [
    ("fit_dp", "fit_rm_dp", "reference", "first"),
    ("channel", "mimo_from_traced_pairs", "pair_params", "first"),
    ("channel", "mimo_matrix", "paths", "keyword"),
]


@pytest.mark.parametrize("layer, name, param, where", HOOK_ARGUMENTS)
def test_span_hook_arguments_exist(layer, name, param, where):
    assert name in span_targets()[layer]
    func = getattr(importlib.import_module(f"reflectmimo.{layer}"), name)
    params = list(inspect.signature(func).parameters.values())
    if where == "first":
        assert params[0].name == param
        assert params[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
    else:
        assert [p.kind for p in params if p.name == param] == [
            inspect.Parameter.KEYWORD_ONLY
        ]


# Per-path calls that perfbench/workloads.py makes with positional arguments:
# their leading parameters, in order. Any further parameter needs a default.
POSITIONAL_CALLS = [
    ("tracer", "trace_paths", ("scene", "tx", "rx", "max_bounces")),
    ("fit_rt", "fit_rm_rt", ("path", "ref")),
    ("tracer", "to_pwa", ("path", "ref")),
    ("tracer", "trace_sequence", ("scene", "sequence", "tx", "rx")),
]


@pytest.mark.parametrize("layer, name, leading", POSITIONAL_CALLS)
def test_positional_call_signatures(layer, name, leading):
    assert name in span_targets()[layer]
    func = getattr(importlib.import_module(f"reflectmimo.{layer}"), name)
    params = list(inspect.signature(func).parameters.values())
    assert tuple(p.name for p in params[: len(leading)]) == leading
    assert all(p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params[: len(leading)])
    assert all(p.default is not inspect.Parameter.empty for p in params[len(leading):])


# Calls that perfbench/workloads.py and perfbench/rooms.py make with keyword
# arguments: the package name, its leading positional parameters, in order,
# and the keywords.
KEYWORD_CALLS = [
    ("trace_sequence", ("scene", "sequence", "tx", "rx"),
     ("check_bounds", "check_side", "check_occlusion")),
    ("Facet", (), ("center", "axis_u", "axis_v", "half_u", "half_v")),
    ("make_facet", ("center", "normal"), ("half_u", "half_v")),
    ("Scene", (), ("facets", "carrier_freq")),
]


@pytest.mark.parametrize("name, leading, keywords", KEYWORD_CALLS)
def test_keyword_call_signatures(name, leading, keywords):
    sig = inspect.signature(getattr(reflectmimo, name))
    params = list(sig.parameters.values())
    assert tuple(p.name for p in params[: len(leading)]) == leading
    sig.bind(*leading, **dict.fromkeys(keywords))  # TypeError if the call no longer fits


def test_capacity_layer_does_not_import_channel():
    # the rate layer works on plain (M, N) arrays, not on channel types
    tree = ast.parse(Path(importlib.import_module("reflectmimo.capacity").__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert imported.isdisjoint({".", ".channel", "reflectmimo", "reflectmimo.channel"})


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
    "PairObservation": lambda: reflectmimo.PairObservation(
        tx=np.zeros(3), rx=np.ones(3), paths=()
    ),
    "PathExport": lambda: fileio.PathExport(
        tx=np.zeros(3), rx=np.ones(3), f0_hz=1e9, paths=()
    ),
}


@pytest.mark.parametrize("name", sorted(ARRAY_DATACLASSES))
def test_array_dataclasses_compare_by_identity(name):
    a, b = ARRAY_DATACLASSES[name](), ARRAY_DATACLASSES[name]()
    assert type(a).__name__ == name
    assert a == a and not a != a
    assert (a == b) is False and (a != b) is True
    assert len({a, b, a}) == 2
