"""The public surface: exported names and the benchmark's span targets.

Every name a module lists in __all__ must exist, so a deletion that leaves its
export entry behind fails here rather than at a star import.

perfbench/spans.py wraps public functions by (layer, name) to time them; a
name deleted from the package would only show up there as a failed traced
benchmark run, so the targets are checked here. The file is parsed, not
imported, because it belongs to the benchmark.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import reflectmimo

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
