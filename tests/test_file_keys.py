"""Every number an input file holds is read by one reader, fileio._number,
with the shape its key holds: a number, a list of numbers or a list of such
lists (a route), all finite, or a count in an experiment config.

The table below names every numeric key of a scene, a path export, a model
file and the two experiment configs, with its shape. Each key is given a
misshapen value and each of the entries JSON can hold in place of a number;
the file's loader must raise a ValueError naming the key, and the command
that reads the file must exit 2 with that error line. Before the reader
took a shape, a list where a number belongs ended in a TypeError, and a
number where a list belongs in a TypeError or a wrongly shaped value.
"""

import io
import json
import math
import re

import numpy as np
import pytest

from reflectmimo import ReferencePair, Scene, fit_rm_rt, make_facet, to_pwa, trace_paths
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
MODEL = fileio.RmExport(ref=REF, f0_hz=F0, paths=tuple(fit_rm_rt(p, REF) for p in TRACED))
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
        _saved(fileio.save_rm, MODEL),
        f"predict --rm {{file}} --tx 0,0,1 --rx 4,0,1 --freq {F0!r}",
        {"tx_ref": 1, "rx_ref": 1, "f0_hz": 0, "tau_s": 0, **dict.fromkeys(PWA_KEYS, 0),
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
ENTRY_CASES = {"true": True, "string": "1", "null": None, "nan": math.nan, "inf": math.inf}
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
                if isinstance(entry, float):  # non-finite
                    message = (
                        f"config key '{key}': expected an integer, got {entry!r}" if ndim is int
                        else f"non-finite '{key}' in file"
                    )
                else:
                    message = f"'{key}' must be a number, got {entry!r}"
                bad = _first_number(value, entry)
                yield pytest.param(kind, key, bad, message, id=f"{kind}-{key}-{case}")


@pytest.fixture(autouse=True)
def _no_experiments(monkeypatch):
    """The experiments a config would run, stubbed: a config key is read
    before the experiment starts."""
    monkeypatch.setattr(cli, "displacement_experiment", lambda *args, **kwargs: [])
    monkeypatch.setattr(cli, "capacity_sweep", lambda *args, **kwargs: ([], {}))


LOADERS = {"scene": fileio.load_scene, "paths": fileio.load_paths, "model": fileio.load_rm}


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
