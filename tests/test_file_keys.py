"""Every number an input file holds is read by one reader, fileio._number,
with the shape its key holds: a number, a list of numbers or a list of such
lists (a route), all finite, or a count in an experiment config.

The table below names every numeric key of a scene, a path file as trace
writes it, a fitted path file as fit rt writes it and the two experiment
configs, with its shape. Each key is given a
misshapen value and each of the entries JSON can hold in place of a number;
the file's loader must raise a ValueError naming the key, and the command
that reads the file must exit 2 with that error line. Before the reader
took a shape, a list where a number belongs ended in a TypeError, and a
number where a list belongs in a TypeError or a wrongly shaped value.

A facet built in Python takes only a positive real number, or None, as a
half-extent, and keeps it as a float, so that its scene file reads back.

Every kind rejects a key it does not hold by name, at the top level and in
an entry, and a capacity config's link budget must give powers in watts
that are positive and finite; a budget or rate constant out of its range
is named with its value.

Documents generated from each kind's valid one, with up to three nodes
replaced from a fixed pool of awkward values or deleted, keep the error
contract: the loader returns or raises a ValueError, or a KeyError naming
a key the kind holds, and the command exits 0, or 2 with the loader's
error line, never with a traceback.
"""

import copy
import io
import json
import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from reflectmimo import (
    DisplacementResult, LinkBudget, ReferencePair, Scene, fit_rm_rt, make_facet, to_pwa,
    trace_paths,
)
from reflectmimo import cli, fileio
from reflectmimo.cli import main

F0 = 28e9
TX = np.array([0.0, 0.0, 1.0])
RX = np.array([4.0, 0.0, 1.0])
REF = ReferencePair(tx_ref=TX, rx_ref=RX)
SCENE = Scene(facets=(make_facet(np.zeros(3), (0.0, 0.0, 1.0)),), carrier_freq=F0)


def _saved(save, export) -> dict:
    buf = io.StringIO()
    save(export, buf)
    return json.loads(buf.getvalue())


TRACED = trace_paths(SCENE, TX, RX, 1)  # line of sight, then the ground bounce
PATH_EXPORT = fileio.PathExport(
    tx=TX, rx=RX, f0_hz=F0, paths=tuple((to_pwa(p, REF), p.route) for p in TRACED)
)
MODEL = fileio.PathExport(
    tx=TX, rx=RX, f0_hz=F0, paths=tuple((fit_rm_rt(p, REF), p.route) for p in TRACED)
)
PWA_KEYS = ("gain_db", "phase_deg", "aoa_az_deg", "aoa_el_deg", "aod_az_deg", "aod_el_deg")
REFERENCE = {"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0]}

# file kind -> (a valid document, the command line that reads it from the
# file named {file}, with the scene file {scene}, and {key: its ndim for
# fileio._number}). A key of a path entry is set in the document's last
# path (a bounce, for the route), a key of a facet in its facet.
FILES = {
    "scene": (
        {
            "carrier_hz": F0,
            "reflection_loss_db": 3.0,
            "facets": [{
                "center": [0.0, 0.0, 0.0], "axis_u": [1.0, 0.0, 0.0],
                "axis_v": [0.0, 1.0, 0.0], "half_u": 10.0, "half_v": 20.0,
            }],
        },
        "trace --scene {file} --tx 0,0,1 --rx 4,0,1 --out {out}",
        {"carrier_hz": 0, "reflection_loss_db": 0, "center": 1, "axis_u": 1, "axis_v": 1,
         "half_u": 0, "half_v": 0},
    ),
    "paths": (
        _saved(fileio.save_paths, PATH_EXPORT),
        "fit rt --paths {file} --out {out}",
        {"tx": 1, "rx": 1, "f0_hz": 0, "delay_s": 0, **dict.fromkeys(PWA_KEYS, 0), "route": 2},
    ),
    "model": (
        _saved(fileio.save_paths, MODEL),
        f"predict --rm {{file}} --tx 0,0,1 --rx 4,0,1 --freq {F0!r}",
        {"tx": 1, "rx": 1, "f0_hz": 0, "delay_s": 0, **dict.fromkeys(PWA_KEYS, 0), "route": 2,
         "roll_deg": 0, "s": 0},
    ),
    "displacement": (
        {**REFERENCE, "distances_m": [0.01, 0.02], "directions_per_distance": 1,
         "rng_seed": 0, "bandwidth_hz": 1e9, "n_freq": 2, "max_bounces": 1,
         "models": ["pwa"]},
        "experiment displacement --scene {scene} --config {file} --out {out}",
        {"tx_ref": 1, "rx_ref": 1, "distances_m": 1, "directions_per_distance": int,
         "rng_seed": int, "bandwidth_hz": 0, "n_freq": int, "max_bounces": int},
    ),
    "capacity": (
        {**REFERENCE, "rotations_deg": [0.0, 15.0], "rows": 2, "cols": 2, "n_freq": 2,
         "max_bounces": 1, "rng_seed": 0, "spacing_m": 0.01, "dp_displacements_m": [0.01, 0.02],
         "tx_power_dbm": 20.0, "bandwidth_hz": 1e9, "noise_figure_db": 7.0, "alpha": 0.6,
         "se_max_bpshz": 4.8, "models": ["rm_dp"]},
        "experiment capacity --scene {scene} --config {file} --out {out}",
        {"tx_ref": 1, "rx_ref": 1, "rotations_deg": 1, "rows": int, "cols": int, "n_freq": int,
         "max_bounces": int, "rng_seed": int, "spacing_m": 0, "dp_displacements_m": 1,
         "tx_power_dbm": 0, "bandwidth_hz": 0, "noise_figure_db": 0, "alpha": 0,
         "se_max_bpshz": 0},
    ),
}


def _first(value):
    """The first number of value."""
    return _first(value[0]) if isinstance(value, list) else value


def _first_number(value, new):
    """value with its first number replaced by new."""
    return [_first_number(value[0], new), *value[1:]] if isinstance(value, list) else new


def _first_list(value):
    """value with its innermost first list replaced by that list's first
    number: a number where a list belongs."""
    return [_first_list(value[0]), *value[1:]] if isinstance(value[0], list) else value[0]


# case -> the bad value made from a key's valid value v and its ndim, None
# where the case does not apply. Every entry stays a finite number.
SHAPE_CASES = {
    "list for a number": lambda v, ndim: _first_number(v, [_first(v)]),
    "number for a list": lambda v, ndim: _first_list(v) if ndim in (1, 2) else None,
    "nested once more": lambda v, ndim: [v],
    "ragged": lambda v, ndim: [v[0][:-1], *v[1:]] if ndim == 2 else None,
}
# 10**400 is written as an integer literal past the float range: it must be
# read as inf, as 1e400 is, not end in an OverflowError or pass as a count
ENTRY_CASES = {
    "true": True, "string": "1", "null": None, "nan": math.nan, "inf": math.inf,
    "past the float range": 10**400,
}
# a null half-extent is an unbounded facet side
NULLABLE = {"half_u", "half_v"}


def _holder(doc: dict, key: str) -> dict:
    """The object of doc that holds key."""
    for entries in ("facets", "paths"):
        if key not in doc and entries in doc:
            return doc[entries][-1]
    return doc


def _cases():
    for kind, (doc, _, keys) in FILES.items():
        for key, ndim in keys.items():
            value = _holder(doc, key)[key]
            for case, make in SHAPE_CASES.items():
                bad = make(value, ndim)
                if bad is not None:
                    message = f"'{key}' must be "
                    yield pytest.param(kind, key, bad, message, id=f"{kind}-{key}-{case}")
            for case, entry in ENTRY_CASES.items():
                if case == "null" and key in NULLABLE:
                    continue
                if isinstance(entry, (int, float)) and not isinstance(entry, bool):
                    # not finite; an integer past the float range reads as inf
                    shown = entry if isinstance(entry, float) else math.inf
                    message = (
                        f"config key '{key}': expected an integer, got {shown!r}" if ndim is int
                        else f"non-finite '{key}' in file"
                    )
                else:
                    message = f"'{key}' must be a number, got {entry!r}"
                bad = _first_number(value, entry)
                yield pytest.param(kind, key, bad, message, id=f"{kind}-{key}-{case}")


# What a scene built in Python may give as a facet half-extent in place of a
# positive number. True was kept as a 1 m half-extent: save_scene wrote it
# as "half_u": true, which load_scene then rejected; "1" and 10**400 ended in
# a TypeError and an OverflowError.
HALF_EXTENT_CASES = [True, np.True_, "1", [1.0], math.nan, math.inf, 10**400, 0, -1.0]


@pytest.mark.parametrize("bad", HALF_EXTENT_CASES, ids=repr)
@pytest.mark.parametrize("key", sorted(NULLABLE))
def test_facet_half_extent_must_be_a_number(key, bad):
    message = f"facet {key} must be a positive number, got {bad!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        make_facet(np.zeros(3), (0.0, 0.0, 1.0), **{key: bad})


@pytest.mark.parametrize("half", [2, np.int64(2), np.float32(0.5), 0.25], ids=repr)
@pytest.mark.parametrize("key", sorted(NULLABLE))
def test_facet_half_extent_is_kept_as_a_float(key, half):
    # np.int64(2) was kept as given, and save_scene could not write it
    scene = Scene(facets=(make_facet(np.zeros(3), (0.0, 0.0, 1.0), **{key: half}),),
                  carrier_freq=F0)
    assert type(getattr(scene.facets[0], key)) is float
    loaded = fileio.load_scene(io.StringIO(json.dumps(_saved(fileio.save_scene, scene))))
    assert getattr(loaded.facets[0], key) == float(half)


@pytest.fixture(autouse=True)
def _no_experiments(monkeypatch):
    """The experiments a config would run, stubbed: a config key is read
    before the experiment starts."""
    empty = DisplacementResult((), np.empty(0), np.empty(0), np.empty((0, 0, 0)))
    monkeypatch.setattr(cli, "displacement_experiment", lambda *args, **kwargs: empty)
    monkeypatch.setattr(cli, "capacity_sweep", lambda *args, **kwargs: ([], {}))


LOADERS = {"scene": fileio.load_scene, "paths": fileio.load_paths, "model": fileio.load_paths}


def _load(kind: str, path) -> None:
    if kind in LOADERS:
        with open(path) as fp:
            LOADERS[kind](fp)
    else:
        run = getattr(cli, f"{kind}_from_config")
        run(SCENE, cli._load_config(str(path)))


def _command(kind: str, path, tmp_path) -> list[str]:
    scene = tmp_path / "valid_scene.json"
    with open(scene, "w") as fp:
        fileio.save_scene(SCENE, fp)
    line = FILES[kind][1].format(file=path, scene=scene, out=tmp_path / "out")
    return line.split()


def _check(kind: str, text: str, message: str, tmp_path, capsys) -> None:
    """The loader of kind raises a ValueError that matches message, and the
    command that reads the file exits 2 with that error line."""
    path = tmp_path / f"{kind}.json"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(message)) as exc:
        _load(kind, path)
    capsys.readouterr()
    assert main(_command(kind, path, tmp_path)) == 2
    assert f"error: {exc.value}\n" in capsys.readouterr().err


@pytest.mark.parametrize("kind", sorted(FILES))
def test_valid_file_is_read(kind, tmp_path, capsys):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(FILES[kind][0]))
    _load(kind, path)
    assert main(_command(kind, path, tmp_path)) == 0


@pytest.mark.parametrize("kind, key, bad, message", _cases())
def test_bad_number_is_rejected_by_key(kind, key, bad, message, tmp_path, capsys):
    doc = json.loads(json.dumps(FILES[kind][0]))
    _holder(doc, key)[key] = bad
    _check(kind, json.dumps(doc), message, tmp_path, capsys)


@pytest.mark.parametrize("text", ["[]", "1.0", '"scene"', "null"])
@pytest.mark.parametrize("kind", sorted(FILES))
def test_top_level_must_be_an_object(kind, text, tmp_path, capsys):
    _check(kind, text, "the file must hold a JSON object", tmp_path, capsys)


@pytest.mark.parametrize("entries", [{}, {"a": 1}, ["x"], [[]], 1.0, None])
@pytest.mark.parametrize("kind, key", [("scene", "facets"), ("paths", "paths"), ("model", "paths")])
def test_entry_list_must_hold_objects(kind, key, entries, tmp_path, capsys):
    doc = dict(FILES[kind][0], **{key: entries})
    _check(kind, json.dumps(doc), f"'{key}' must be a list of objects", tmp_path, capsys)


@pytest.mark.parametrize("models", ["pwa", ["pwa", 1], [["pwa"]], None])
@pytest.mark.parametrize("kind", ["displacement", "capacity"])
def test_models_must_be_a_list_of_names(kind, models, tmp_path, capsys):
    # "pwa" was split into letters: unknown model(s) ['a', 'p', 'w']
    doc = dict(FILES[kind][0], models=models)
    message = f"'models' must be a list of model names, got {models!r}"
    _check(kind, json.dumps(doc), message, tmp_path, capsys)


@pytest.mark.parametrize("gain_db", [7000.0, 1e300])
@pytest.mark.parametrize("kind", ["paths", "model"])
def test_gain_past_the_float_range_is_rejected(kind, gain_db, tmp_path, capsys):
    # 10 ** (gain_db / 20) ended in an OverflowError, and the command in exit 1
    doc = json.loads(json.dumps(FILES[kind][0]))
    doc["paths"][-1]["gain_db"] = gain_db
    message = f"'gain_db' is past the float range, got {gain_db!r}"
    _check(kind, json.dumps(doc), message, tmp_path, capsys)


# kind -> a misspelled key, the entry list it is set in (None for the top
# level) and the object the error names. Each loader took a key it does not
# know for one it left out: a facet with "half_uu" was unbounded along u,
# "reflection_los_db" left the 3 dB default, and a config's "n_freqs" ran at
# the default of 10 frequencies. A fitted path entry is covered by
# test_fileio_cli's unknown-key test, which it already failed.
UNKNOWN_KEYS = [
    ("scene", "reflection_los_db", None, "a scene file"),
    ("scene", "half_uu", "facets", "a scene file facet"),
    ("paths", "f0", None, "a path file"),
    ("paths", "delay", "paths", "a path file path"),
    ("model", "ref", None, "a path file"),
    ("displacement", "n_freqs", None, "a displacement config"),
    ("capacity", "rotation_deg", None, "a capacity config"),
]


@pytest.mark.parametrize("kind, key, entries, where", UNKNOWN_KEYS)
def test_unknown_key_is_rejected_by_name(kind, key, entries, where, tmp_path, capsys):
    doc = json.loads(json.dumps(FILES[kind][0]))
    holder = doc if entries is None else doc[entries][-1]
    holder[key] = 1.0
    _check(kind, json.dumps(doc), f"unknown key {key!r} in {where}", tmp_path, capsys)


# A capacity config's budget value -> the power in watts it takes out of the
# float range (an OverflowError from 10 ** (x / 10)) or to 0.0, a noise power
# the rate kernel divided by (a ZeroDivisionError), each a traceback and exit 1.
BUDGET_CASES = [
    *[("tx_power_dbm", x, "tx_power_w", math.inf) for x in (1e20, 1e300, 1e308)],
    *[("noise_figure_db", x, "noise_power_w", math.inf) for x in (1e20, 1e300, 1e308)],
    *[("noise_figure_db", x, "noise_power_w", 0.0) for x in (-1e20, -1e308)],
    ("bandwidth_hz", 5e-324, "noise_power_w", 0.0),
]
# each power in watts -> the budget values it is made of
BUDGET_KEYS = {
    "tx_power_w": ("tx_power_dbm",), "noise_power_w": ("noise_figure_db", "bandwidth_hz"),
}


@pytest.mark.parametrize("key, value, power, watts", BUDGET_CASES)
def test_budget_power_out_of_range_is_rejected(key, value, power, watts, tmp_path, capsys):
    doc = dict(FILES["capacity"][0], **{key: value})
    given = ", ".join(f"{name!r} = {doc[name]!r}" for name in BUDGET_KEYS[power])
    message = f"{power} must be positive and finite, got {watts!r} from {given}"
    assert f"{key!r} = {value!r}" in message
    with pytest.raises(ValueError, match=re.escape(message)):
        LinkBudget(**{name: doc[name] for keys in BUDGET_KEYS.values() for name in keys})
    _check("capacity", json.dumps(doc), message, tmp_path, capsys)


# A capacity config value its link budget or rate model rejects -> the field
# its error names, with the value (se_max, the library's name, for
# se_max_bpshz).
RANGE_CASES = [
    ("alpha", 0, "alpha"),
    ("alpha", -0.6, "alpha"),
    ("se_max_bpshz", -1, "se_max"),
    ("se_max_bpshz", 0, "se_max"),
    ("bandwidth_hz", 0, "bandwidth_hz"),
    ("bandwidth_hz", -1e9, "bandwidth_hz"),
]


@pytest.mark.parametrize("key, value, field", RANGE_CASES)
def test_rate_and_budget_range_errors_name_the_field(key, value, field, tmp_path, capsys):
    doc = dict(FILES["capacity"][0], **{key: value})
    _check("capacity", json.dumps(doc), f", got {field!r} = {float(value)!r}", tmp_path, capsys)


# The values a generated document puts in place of a node, DELETE for none.
DELETE = object()
POOL = [
    DELETE, 10**400, -(10**400), 1e308, 5e-324, -0.0, True, "", "1", "pwa", None, [], {},
    [[]], [[1.0, 2.0, 3.0]], [[[0.0]]], [1.0, 2.0], [0.0, 0.0, 1.0, 2.0],
]


def _nodes(value, at=()):
    """The path of every node under value, by keys and list indices."""
    children = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in children:
        yield at + (key,)
        if isinstance(child, (dict, list)):
            yield from _nodes(child, at + (key,))


def _holds(holder, key) -> bool:
    if isinstance(holder, dict):
        return key in holder
    return isinstance(holder, list) and isinstance(key, int) and key < len(holder)


def _edited(doc: dict, edits) -> dict:
    """A copy of doc with each (path, value) of edits applied in turn; an
    edit whose node an earlier one removed is skipped."""
    doc = copy.deepcopy(doc)
    for at, value in edits:
        holder = doc
        for key in at[:-1]:
            holder = holder[key] if _holds(holder, key) else None
        if _holds(holder, at[-1]):
            if value is DELETE:
                del holder[at[-1]]
            else:
                holder[at[-1]] = copy.deepcopy(value)
    return doc


@pytest.mark.parametrize("kind", sorted(FILES))
@seed(29)
@settings(
    max_examples=100, deadline=None, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_generated_document_keeps_the_error_contract(kind, data, tmp_path, capsys):
    doc = FILES[kind][0]
    nodes = list(_nodes(doc))
    edit = st.tuples(st.sampled_from(nodes), st.sampled_from(POOL))
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(_edited(doc, data.draw(st.lists(edit, min_size=1, max_size=3)))))
    error = None
    try:
        _load(kind, path)
    except KeyError as exc:
        assert exc.args[0] in {at[-1] for at in nodes}
        error = f"error: {exc}\n"
    except ValueError as exc:
        error = f"error: {exc}\n"
    capsys.readouterr()
    code = main(_command(kind, path, tmp_path))
    err = capsys.readouterr().err
    if error is None:
        assert code == 0 or (code == 2 and err.startswith("error: "))
    else:
        assert code == 2 and error in err
