"""On-disk formats and the command-line front end."""

import csv
import io
import json
import math
import pathlib
import re

import numpy as np
import pytest

from reflectmimo import (
    DisplacementSpec,
    ErrorRecord,
    LinkBudget,
    RateModel,
    ReferencePair,
    Scene,
    SweepCell,
    fit_rm_rt,
    make_facet,
    to_pwa,
    trace_paths,
    upa,
)
from reflectmimo import cli, experiments, fileio
from reflectmimo.cli import main
from reflectmimo.paths import C_LIGHT, angles_to_image

F0 = 140e9
DEMO = pathlib.Path(__file__).resolve().parents[1] / "demo"

TX = np.array([0.0, 0.0, 1.0])
RX = np.array([4.0, 0.0, 1.0])


def ground_scene():
    ground = make_facet((2.0, 0.0, 0.0), (0.0, 0.0, 1.0), half_u=50.0, half_v=50.0)
    return Scene(facets=(ground,), carrier_freq=F0)


def traced_export(scene, tx, rx, max_bounces=1):
    ref = ReferencePair(tx_ref=tx, rx_ref=rx)
    traced = trace_paths(scene, tx, rx, max_bounces)
    return (
        fileio.PathExport(
            tx=tx,
            rx=rx,
            f0_hz=scene.carrier_freq,
            paths=tuple((to_pwa(p, ref), p.route) for p in traced),
        ),
        traced,
        ref,
    )


def rm_export(scene, tx, rx):
    _, traced, ref = traced_export(scene, tx, rx)
    fitted = tuple(fit_rm_rt(p, ref) for p in traced)
    return fileio.RmExport(ref=ref, f0_hz=scene.carrier_freq, paths=fitted)


def resave(save, load, export):
    """The document a save writes, and the one a save of its load writes."""
    first = io.StringIO()
    save(export, first)
    second = io.StringIO()
    save(load(io.StringIO(first.getvalue())), second)
    return json.loads(first.getvalue()), json.loads(second.getvalue())


def numbers(doc) -> list[float]:
    if isinstance(doc, dict):
        doc = list(doc.values())
    if isinstance(doc, list):
        return [x for item in doc for x in numbers(item)]
    return [float(doc)]


# The plane-wave keys of one path entry; the two formats name the delay apart.
PWA_KEYS = [
    "gain_db",
    "phase_deg",
    "{delay}",
    "aoa_az_deg",
    "aoa_el_deg",
    "aod_az_deg",
    "aod_el_deg",
]


def saved(save, export) -> dict:
    buf = io.StringIO()
    save(export, buf)
    return json.loads(buf.getvalue())


def poisoned(doc: dict, key: str, bad: float) -> str:
    """doc as JSON text, with every number of key (a top-level key, else one
    of path 1's) set to bad; Python's json writes and reads NaN and Infinity."""
    holder = doc if key in doc else doc["paths"][1]
    holder[key] = np.full(np.shape(holder[key]), bad).tolist()
    return json.dumps(doc)


def with_true(doc: dict, key: str) -> str:
    """doc as JSON text, with the last number of key (a top-level key, else
    one of path 1's) set to true: a list entry when key holds a list."""
    holder, name = (doc, key) if key in doc else (doc["paths"][1], key)
    while isinstance(holder[name], list):
        holder, name = holder[name], -1
    holder[name] = True
    return json.dumps(doc)


# Numbers that a JSON config or scene can set to NaN or Infinity, which pass a
# plain `<= 0` check: each must fail its constructor with the usual message,
# a budget or rate constant naming its field.
NON_FINITE_SETTINGS = {
    "bandwidth_hz": (
        lambda x: LinkBudget(bandwidth_hz=x),
        "bandwidth must be positive and finite, got 'bandwidth_hz' = ",
    ),
    "tx_power_dbm": (lambda x: LinkBudget(tx_power_dbm=x), "must be finite, got 'tx_power_dbm' = "),
    "noise_figure_db": (
        lambda x: LinkBudget(noise_figure_db=x), "must be finite, got 'noise_figure_db' = ",
    ),
    "alpha": (
        lambda x: RateModel(alpha=x),
        "rate model constants must be positive and finite, got 'alpha' = ",
    ),
    "se_max_bpshz": (
        lambda x: RateModel(se_max=x),
        "rate model constants must be positive and finite, got 'se_max' = ",
    ),
    "reflection_loss_db": (
        lambda x: Scene(facets=(), carrier_freq=F0, reflection_loss_db=x),
        "reflection loss must be non-negative",
    ),
    "spacing_m": (lambda x: upa(2, 2, x, np.zeros(3)), "element spacing must be positive"),
    "distances_m": (
        lambda x: DisplacementSpec(distances=(0.01, x)),
        "distances must be >= 2 positive values",
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("setting", sorted(NON_FINITE_SETTINGS))
def test_non_finite_setting_rejected(setting, bad):
    build, message = NON_FINITE_SETTINGS[setting]
    with pytest.raises(ValueError, match=message):
        build(bad)


class TestSceneJson:
    def test_roundtrip_exact(self):
        bounded = make_facet(
            (1.25, -3.7, 0.125), (0.3, -0.4, 0.5), half_u=7.5, half_v=0.03125,
            two_sided=True,
        )
        unbounded = make_facet((0.0, 0.0, 0.0), (0.0, 0.0, 1.0))
        scene = Scene(
            facets=(bounded, unbounded), carrier_freq=140.0e9 + 0.1,
            reflection_loss_db=2.75,
        )
        buf = io.StringIO()
        fileio.save_scene(scene, buf)
        buf.seek(0)
        loaded = fileio.load_scene(buf)

        assert loaded.carrier_freq == scene.carrier_freq
        assert loaded.reflection_loss_db == scene.reflection_loss_db
        assert len(loaded.facets) == 2
        for got, want in zip(loaded.facets, scene.facets):
            assert np.array_equal(got.center, want.center)
            assert np.array_equal(got.axis_u, want.axis_u)
            assert np.array_equal(got.axis_v, want.axis_v)
            assert got.half_u == want.half_u
            assert got.half_v == want.half_v
            assert got.two_sided == want.two_sided
        assert loaded.facets[1].half_u is None

    @pytest.mark.parametrize("flag", ["false", "true", 0, 1, None])
    def test_two_sided_must_be_a_json_boolean(self, flag):
        # bool("false") is True: a string would load as a two-sided facet
        facet = {"center": [0, 0, 0], "axis_u": [1, 0, 0], "axis_v": [0, 1, 0], "two_sided": flag}
        doc = {"carrier_hz": 1e9, "facets": [facet]}
        with pytest.raises(ValueError, match=f"two_sided must be true or false, got {flag!r}"):
            fileio.load_scene(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize(
        "key, value, bad",
        [
            ("carrier_hz", True, True),
            ("reflection_loss_db", False, False),
            ("center", [0, 0, True], True),
            ("axis_u", [1, False, 0], False),
            ("axis_v", [0, 1, True], True),
            ("half_u", True, True),
            ("half_v", False, False),
            ("carrier_hz", "1e9", "1e9"),
            ("reflection_loss_db", None, None),
        ],
    )
    def test_numbers_only(self, key, value, bad):
        # "center": [0, 0, true] loaded as z = 1, "carrier_hz": true as 1 Hz
        # and "carrier_hz": "1e9" as 1e9 Hz
        facet = {"center": [0, 0, 0], "axis_u": [1, 0, 0], "axis_v": [0, 1, 0], "half_u": 1.0}
        doc = {"carrier_hz": 1e9, "reflection_loss_db": 3.0, "facets": [facet]}
        (doc if key in doc else facet)[key] = value
        with pytest.raises(ValueError, match=re.escape(f"{key!r} must be a number, got {bad!r}")):
            fileio.load_scene(io.StringIO(json.dumps(doc)))

    def test_defaults_on_load(self):
        doc = {"carrier_hz": 1e9}
        loaded = fileio.load_scene(io.StringIO(json.dumps(doc)))
        assert loaded.facets == ()
        assert loaded.reflection_loss_db == 3.0


class TestPathsJson:
    def test_roundtrip(self):
        export, traced, _ = traced_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_paths(export, buf)
        buf.seek(0)
        loaded = fileio.load_paths(buf)

        assert np.array_equal(loaded.tx, TX) and np.array_equal(loaded.rx, RX)
        assert loaded.f0_hz == F0
        assert len(loaded.paths) == len(traced) == 2
        for (got, route), want in zip(loaded.paths, export.paths):
            # gain passes through (dB, degrees); delay and vertices are raw
            assert abs(got.gain - want[0].gain) <= 1e-12 * abs(want[0].gain)
            assert got.delay == want[0].delay
            for field in ("aoa_az", "aoa_el", "aod_az", "aod_el"):
                assert abs(getattr(got, field) - getattr(want[0], field)) <= 1e-12
            assert np.array_equal(route.vertices, want[1].vertices)

    def test_resave_keeps_keys_and_values(self):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        first, second = resave(fileio.save_paths, fileio.load_paths, export)
        keys = [k.format(delay="delay_s") for k in PWA_KEYS] + ["route"]
        for doc in (first, second):
            assert list(doc) == ["tx", "rx", "f0_hz", "paths"]
            assert [list(e) for e in doc["paths"]] == [keys, keys]
        assert numbers(second) == pytest.approx(numbers(first), rel=1e-12, abs=1e-12)

    def test_bounce_route_length(self):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_paths(export, buf)
        buf.seek(0)
        loaded = fileio.load_paths(buf)
        lengths = sorted(
            sum(
                float(np.linalg.norm(b - a))
                for a, b in zip(route.vertices[:-1], route.vertices[1:])
            )
            for _, route in loaded.paths
        )
        assert abs(lengths[0] - 4.0) <= 1e-12
        assert abs(lengths[1] - math.sqrt(20.0)) <= 1e-12

    def test_traced_requires_routes(self):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        assert len(export.traced()) == 2
        stripped = fileio.PathExport(
            tx=TX, rx=RX, f0_hz=F0, paths=tuple((p, None) for p, _ in export.paths)
        )
        with pytest.raises(ValueError, match="route"):
            stripped.traced()

    def test_delay_must_match_route_length(self, tmp_path, capsys):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_paths(export, buf)
        doc = json.loads(buf.getvalue())
        doc["paths"][1]["delay_s"] *= 1.0 + 1e-9
        text = json.dumps(doc)
        with pytest.raises(ValueError, match="path 1: delay is inconsistent"):
            fileio.load_paths(io.StringIO(text)).traced()
        paths = tmp_path / "paths.json"
        paths.write_text(text)
        assert main(["fit", "rt", "--paths", str(paths), "--out", "-"]) == 2
        assert "delay is inconsistent" in capsys.readouterr().err

    def test_non_finite_route_vertex_rejected(self, tmp_path, capsys):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_paths(export, buf)
        doc = json.loads(buf.getvalue())
        bounce = next(e for e in doc["paths"] if len(e["route"]) == 3)
        bounce["route"][1][0] = math.nan
        text = json.dumps(doc)  # Python's json writes and reads NaN
        with pytest.raises(ValueError, match="non-finite"):
            fileio.load_paths(io.StringIO(text))
        paths = tmp_path / "paths.json"
        paths.write_text(text)
        assert main(["fit", "rt", "--paths", str(paths), "--out", "-"]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "key", ["tx", "rx", "f0_hz", *(k.format(delay="delay_s") for k in PWA_KEYS)]
    )
    def test_non_finite_number_rejected(self, key, bad):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        text = poisoned(saved(fileio.save_paths, export), key, bad)
        with pytest.raises(ValueError, match=f"non-finite '{key}'"):
            fileio.load_paths(io.StringIO(text))

    @pytest.mark.parametrize(
        "key", ["tx", "rx", "f0_hz", "route", *(k.format(delay="delay_s") for k in PWA_KEYS)]
    )
    def test_boolean_rejected(self, key):
        # "tx": [0, 0, true] loaded as z = 1; so did a route vertex
        export, _, _ = traced_export(ground_scene(), TX, RX)
        text = with_true(saved(fileio.save_paths, export), key)
        with pytest.raises(ValueError, match=f"'{key}' must be a number, got True"):
            fileio.load_paths(io.StringIO(text))

    def test_zero_gain_rejected(self):
        export, _, _ = traced_export(ground_scene(), TX, RX)
        pwa = export.paths[0][0]
        bad = fileio.PathExport(
            tx=TX, rx=RX, f0_hz=F0,
            paths=((type(pwa)(gain=0j, delay=pwa.delay, aoa_az=0.0, aoa_el=0.0,
                              aod_az=0.0, aod_el=0.0), None),),
        )
        with pytest.raises(ValueError, match="zero path gain"):
            fileio.save_paths(bad, io.StringIO())


class TestRmJson:
    def test_roundtrip(self):
        export = rm_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_rm(export, buf)
        buf.seek(0)
        loaded = fileio.load_rm(buf)

        assert len(loaded.paths) == 2
        for got, want in zip(loaded.paths, export.paths):
            assert type(got.s) is int and got.s == want.s
            assert got.delay == want.delay
            assert abs(got.gain - want.gain) <= 1e-12 * abs(want.gain)
            for field in ("aoa_az", "aoa_el", "aod_az", "aod_el", "roll"):
                assert abs(getattr(got, field) - getattr(want, field)) <= 1e-12

    def test_resave_keeps_keys_and_values(self):
        export = rm_export(ground_scene(), TX, RX)
        first, second = resave(fileio.save_rm, fileio.load_rm, export)
        keys = [k.format(delay="tau_s") for k in PWA_KEYS] + ["roll_deg", "s"]
        for doc in (first, second):
            assert list(doc) == ["tx_ref", "rx_ref", "f0_hz", "paths"]
            assert [list(e) for e in doc["paths"]] == [keys, keys]
        assert numbers(second) == pytest.approx(numbers(first), rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("keys", [("U",), ("g",), ("U", "g"), ("tau",)])
    def test_unknown_key_rejected(self, keys, tmp_path, capsys):
        # a file that still carries the matrix form (U, then g) fails on 'U'
        export = rm_export(ground_scene(), TX, RX)
        doc = saved(fileio.save_rm, export)
        img = angles_to_image(export.paths[1], export.ref)
        image = {"U": img.U.tolist(), "g": img.g.tolist(), "tau": 1e-8}
        doc["paths"][1].update({key: image[key] for key in keys})
        with pytest.raises(ValueError, match=f"unknown key '{keys[0]}'"):
            fileio.load_rm(io.StringIO(json.dumps(doc)))
        rm = tmp_path / "rm.json"
        rm.write_text(json.dumps(doc))
        assert main([
            "predict", "--rm", str(rm), "--tx", "0,0,1", "--rx", "4,0,1", "--freq", repr(F0),
        ]) == 2
        assert f"unknown key '{keys[0]}'" in capsys.readouterr().err

    @pytest.mark.parametrize("parity", [-1.4, -0.5, 0, 0.9999999, 2, -3])
    def test_parity_other_than_plus_or_minus_one_rejected(self, parity):
        # -1.4 used to load as s = -1
        doc = saved(fileio.save_rm, rm_export(ground_scene(), TX, RX))
        doc["paths"][1]["s"] = parity
        with pytest.raises(ValueError, match=f"'s' must be -1 or \\+1, got {float(parity)!r}"):
            fileio.load_rm(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("parity", [True, False])
    def test_boolean_parity_rejected(self, parity):
        # true used to load as s = +1, and an RmPath built with s=True was
        # saved as "s": true
        doc = saved(fileio.save_rm, rm_export(ground_scene(), TX, RX))
        doc["paths"][1]["s"] = parity
        with pytest.raises(ValueError, match=f"'s' must be a number, got {parity!r}"):
            fileio.load_rm(io.StringIO(json.dumps(doc)))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "key",
        ["tx_ref", "rx_ref", "f0_hz", *(k.format(delay="tau_s") for k in PWA_KEYS),
         "roll_deg", "s"],
    )
    def test_non_finite_number_rejected(self, key, bad):
        text = poisoned(saved(fileio.save_rm, rm_export(ground_scene(), TX, RX)), key, bad)
        with pytest.raises(ValueError, match=f"non-finite '{key}'"):
            fileio.load_rm(io.StringIO(text))


    @pytest.mark.parametrize(
        "key",
        ["tx_ref", "rx_ref", "f0_hz", *(k.format(delay="tau_s") for k in PWA_KEYS), "roll_deg"],
    )
    def test_boolean_rejected(self, key):
        # "tx_ref": [true, 0, 1] loaded as [1, 0, 1]
        text = with_true(saved(fileio.save_rm, rm_export(ground_scene(), TX, RX)), key)
        with pytest.raises(ValueError, match=f"'{key}' must be a number, got True"):
            fileio.load_rm(io.StringIO(text))


class TestCsv:
    def test_error_table(self):
        records = [
            ErrorRecord(model="pwa", distance=0.01, frequency=F0, epsilon=1.25e-7),
            ErrorRecord(model="rm_rt", distance=1.0 / 3.0, frequency=F0 - 1e8,
                        epsilon=3.0e-9),
        ]
        buf = io.StringIO()
        fileio.write_error_csv(records, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["model", "distance_m", "freq_hz", "epsilon"]
        assert len(rows) == 3
        for row, rec in zip(rows[1:], records):
            assert row[0] == rec.model
            # repr-serialized floats parse back bit for bit
            assert float(row[1]) == rec.distance
            assert float(row[2]) == rec.frequency
            assert float(row[3]) == rec.epsilon

    def test_capacity_table(self):
        cells = [
            SweepCell(rotation=math.pi / 6.0, model="exhaustive", se_center=10.5,
                      se_avg=10.25, rank_used=4),
            SweepCell(rotation=-math.pi, model="pwa", se_center=1.0 / 7.0,
                      se_avg=0.125, rank_used=1),
        ]
        buf = io.StringIO()
        fileio.write_capacity_csv(cells, buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == [
            "rotation_deg", "model", "se_center_bpshz", "se_avg_bpshz", "rank_used"
        ]
        assert float(rows[1][0]) == math.degrees(cells[0].rotation)
        assert float(rows[2][0]) == -180.0
        for row, cell in zip(rows[1:], cells):
            assert row[1] == cell.model
            assert float(row[2]) == cell.se_center
            assert float(row[3]) == cell.se_avg
            assert int(row[4]) == cell.rank_used


class TestCli:
    @pytest.fixture()
    def scene_file(self, tmp_path):
        path = tmp_path / "scene.json"
        with open(path, "w") as fp:
            fileio.save_scene(ground_scene(), fp)
        return str(path)

    def trace(self, scene_file, tmp_path, tx, rx, name, bounces=1):
        out = str(tmp_path / name)
        rc = main([
            "trace", "--scene", scene_file, "--tx", tx, "--rx", rx,
            "--bounces", str(bounces), "--out", out,
        ])
        assert rc == 0
        return out

    def test_trace_writes_paths(self, scene_file, tmp_path, capsys):
        out = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "paths.json")
        assert "traced 2 path(s)" in capsys.readouterr().err
        with open(out) as fp:
            export = fileio.load_paths(fp)
        delays = sorted(p.delay for p, _ in export.paths)
        assert abs(delays[0] - 4.0 / C_LIGHT) <= 1e-20
        assert abs(delays[1] - math.sqrt(20.0) / C_LIGHT) <= 1e-20

    def test_fit_rt_and_predict_reproduce_reference(self, scene_file, tmp_path, capsys):
        paths = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "paths.json")
        rm = str(tmp_path / "rm.json")
        assert main(["fit", "rt", "--paths", paths, "--out", rm]) == 0
        capsys.readouterr()

        assert main([
            "predict", "--rm", rm, "--tx", "0,0,1", "--rx", "4,0,1",
            "--freq", repr(F0), "--model", "rm",
        ]) == 0
        got = complex(capsys.readouterr().out.strip())

        with open(paths) as fp:
            want = sum(p.gain for p, _ in fileio.load_paths(fp).paths)
        assert abs(got - want) <= 1e-9 * abs(want)

    def test_predict_all_models_run(self, scene_file, tmp_path, capsys):
        paths = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "paths.json")
        rm = str(tmp_path / "rm.json")
        assert main(["fit", "rt", "--paths", paths, "--out", rm]) == 0
        for model in ("constant", "pwa", "rm"):
            capsys.readouterr()
            assert main([
                "predict", "--rm", rm, "--tx", "0.2,0.1,1", "--rx", "4.1,-0.2,1.1",
                "--freq", repr(F0 + 1e8), "--model", model,
            ]) == 0
            complex(capsys.readouterr().out.strip())

    def test_predict_without_paths_is_zero(self, tmp_path, capsys):
        ref = ReferencePair(tx_ref=np.array([0.0, 0.0, 1.0]), rx_ref=np.array([4.0, 0.0, 1.0]))
        rm = tmp_path / "rm.json"
        with open(rm, "w") as fp:
            fileio.save_rm(fileio.RmExport(ref=ref, f0_hz=F0, paths=()), fp)
        assert main([
            "predict", "--rm", str(rm), "--tx", "0,0,1", "--rx", "4,0,1", "--freq", repr(F0),
        ]) == 0
        assert capsys.readouterr().out.strip() == "0+0j"

    def test_fit_dp_pipeline(self, scene_file, tmp_path):
        ref = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "ref.json")
        d1 = self.trace(scene_file, tmp_path, "0.006,-0.008,1", "4.008,0.006,1",
                        "d1.json")
        d2 = self.trace(scene_file, tmp_path, "0,0.012,1.016", "3.988,0,1.016",
                        "d2.json")
        rm = str(tmp_path / "rm_dp.json")
        assert main(["fit", "dp", "--ref", ref, "--disp", d1, d2, "--out", rm]) == 0
        with open(rm) as fp:
            loaded = fileio.load_rm(fp)
        assert sorted(p.s for p in loaded.paths) == [-1, 1]

    def test_experiment_displacement_csv(self, scene_file, tmp_path):
        config = tmp_path / "disp.json"
        config.write_text(json.dumps({
            "tx_ref": [0.0, 0.0, 1.0],
            "rx_ref": [4.0, 0.0, 1.0],
            "distances_m": [0.01, 0.02],
            "directions_per_distance": 2,
            "n_freq": 3,
            "models": ["constant", "pwa"],
            "max_bounces": 1,
        }))
        out = str(tmp_path / "errors.csv")
        rc = main([
            "experiment", "displacement", "--scene", scene_file,
            "--config", str(config), "--out", out,
        ])
        assert rc == 0
        rows = list(csv.reader(open(out)))
        assert rows[0] == ["model", "distance_m", "freq_hz", "epsilon"]
        assert len(rows) == 1 + 2 * 2 * 2 * 3
        assert {r[0] for r in rows[1:]} == {"constant", "pwa"}

    def test_experiment_capacity_csv(self, scene_file, tmp_path, capsys):
        config = tmp_path / "cap.json"
        config.write_text(json.dumps({
            "tx_ref": [0.0, 0.0, 1.0],
            "rx_ref": [4.0, 0.0, 1.0],
            "rotations_deg": [0.0, 90.0],
            "rows": 2,
            "cols": 2,
            "spacing_m": 0.02,
            "models": ["constant"],
            "n_freq": 2,
            "max_bounces": 1,
        }))
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "experiment", "capacity", "--scene", scene_file,
            "--config", str(config), "--out", out,
        ])
        assert rc == 0
        assert "trace count constant: 1" in capsys.readouterr().err
        rows = list(csv.reader(open(out)))
        assert rows[0] == [
            "rotation_deg", "model", "se_center_bpshz", "se_avg_bpshz", "rank_used"
        ]
        assert [r[0] for r in rows[1:]] == ["0.0", "90.0"]

    def test_displacement_prints_the_medians_of_its_csv(self, scene_file, tmp_path, capsys):
        config = tmp_path / "disp.json"
        config.write_text(json.dumps({
            "tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0],
            "distances_m": [0.01, 0.05, 0.25], "directions_per_distance": 3, "n_freq": 2,
            "models": ["constant", "pwa", "rm_rt"], "max_bounces": 1,
        }))
        out = tmp_path / "errors.csv"
        assert main([
            "experiment", "displacement", "--scene", scene_file,
            "--config", str(config), "--out", str(out),
        ]) == 0
        title, header, *rows = capsys.readouterr().err.splitlines()
        eps = {}
        for row in csv.DictReader(io.StringIO(out.read_text())):
            eps.setdefault(row["distance_m"], {}).setdefault(row["model"], []).append(
                float(row["epsilon"])
            )
        assert title == "median epsilon by displacement"
        assert header.split() == ["distance_m", "constant", "pwa", "rm_rt"]
        assert len(rows) == len(eps) == 3
        for row, (dist, by_model) in zip(rows, eps.items()):
            cells = row.split()
            assert cells[0] == f"{float(dist):.3f}"
            # each printed median is the CSV's median to three digits
            for model, cell in zip(header.split()[1:], cells[1:]):
                assert float(cell) == float(f"{np.median(by_model[model]):.2e}")

    def test_capacity_prints_the_deviations_of_its_csv(self, scene_file, tmp_path, capsys):
        config = tmp_path / "cap.json"
        config.write_text(json.dumps({
            "tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0],
            "rotations_deg": [0.0, 40.0, 90.0], "rows": 2, "cols": 2, "spacing_m": 0.3,
            "models": ["exhaustive", "rm_rt", "constant"], "n_freq": 2, "max_bounces": 1,
        }))
        out = tmp_path / "sweep.csv"
        assert main([
            "experiment", "capacity", "--scene", scene_file,
            "--config", str(config), "--out", str(out),
        ]) == 0
        lines = capsys.readouterr().err.splitlines()
        se = {}
        for row in csv.DictReader(io.StringIO(out.read_text())):
            se.setdefault(row["rotation_deg"], {})[row["model"]] = float(row["se_avg_bpshz"])
        assert lines[:3] == [
            "trace count exhaustive: 48", "trace count rm_rt: 1", "trace count constant: 1",
        ]
        deviations = {}
        for line in lines[3:]:
            name, percent = re.fullmatch(
                r"worst \|SE_(\w+) - SE_exhaustive\| / SE_exhaustive: (\S+)%", line
            ).groups()
            deviations[name] = percent
        assert list(deviations) == ["rm_rt", "constant"]
        for name, percent in deviations.items():
            worst = max(abs(row[name] - row["exhaustive"]) / row["exhaustive"]
                        for row in se.values())
            assert percent == f"{100 * worst:.2f}"
        assert float(deviations["constant"]) > 0.0

    def test_capacity_deviation_from_a_zero_rate(self, scene_file, tmp_path, capsys, monkeypatch):
        # a sweep whose exhaustive rate is 0 at a rotation, as at a transmit
        # power of -300 dBm, where log2(1 + snr) rounds to 0; the other
        # models are 0 there (no deviation) or not (an infinite one)
        def sweep(*args, **kwargs):
            cells = [SweepCell(0.0, name, 0.0, se, 0) for name, se in
                     (("exhaustive", 0.0), ("pwa", 0.0), ("rm_rt", 0.5))]
            return cells, {"exhaustive": 8, "pwa": 1, "rm_rt": 1}

        monkeypatch.setattr(cli, "capacity_sweep", sweep)
        config = tmp_path / "cap.json"
        config.write_text(json.dumps({"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0]}))
        assert main([
            "experiment", "capacity", "--scene", scene_file,
            "--config", str(config), "--out", str(tmp_path / "sweep.csv"),
        ]) == 0
        assert capsys.readouterr().err.splitlines()[3:] == [
            "worst |SE_pwa - SE_exhaustive| / SE_exhaustive: 0.00%",
            "worst |SE_rm_rt - SE_exhaustive| / SE_exhaustive: inf%",
        ]

    @pytest.mark.parametrize(
        "experiment, scene, config, table",
        [
            ("displacement", "corridor.json", "displacement_config.json",
             "displacement_errors.csv"),
            ("capacity", "blocked.json", "capacity_config.json", "capacity_sweep.csv"),
        ],
    )
    def test_demo_tables_are_what_the_cli_writes(
        self, tmp_path, capsys, experiment, scene, config, table
    ):
        # The tolerances allow for rounding that another numpy, BLAS or libm
        # may move, not for a change in the arithmetic, which must rewrite
        # the tables: each epsilon within 1e-9 of its size plus 1e-12 (the rm
        # models' errors, ~1e-13, are rounding themselves), each spectral
        # efficiency within 1e-9 of its size, every other cell as written.
        tolerances = {"epsilon": (1e-9, 1e-12), "se_center_bpshz": (1e-9, 0.0),
                      "se_avg_bpshz": (1e-9, 0.0)}
        out = tmp_path / table
        assert main([
            "experiment", experiment, "--scene", str(DEMO / scene),
            "--config", str(DEMO / config), "--out", str(out),
        ]) == 0
        capsys.readouterr()
        got = list(csv.DictReader(io.StringIO(out.read_text())))
        want = list(csv.DictReader(io.StringIO((DEMO / table).read_text())))
        assert len(got) == len(want)
        for row, ref in zip(got, want):
            assert row.keys() == ref.keys()
            for key, cell in ref.items():
                if key in tolerances:
                    rel, floor = tolerances[key]
                    assert abs(float(row[key]) - float(cell)) <= rel * abs(float(cell)) + floor
                else:
                    assert row[key] == cell

    def test_malformed_inputs_exit_2(self, tmp_path, capsys):
        bad_scene = tmp_path / "scene.json"
        bad_scene.write_text("{not json")
        rc = main([
            "trace", "--scene", str(bad_scene), "--tx", "0,0,1", "--rx", "4,0,1",
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

        missing = main([
            "trace", "--scene", str(tmp_path / "nope.json"),
            "--tx", "0,0,1", "--rx", "4,0,1",
        ])
        assert missing == 2

    def test_bad_vector_argument_exits_via_argparse(self, scene_file):
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--scene", scene_file, "--tx", "1,2", "--rx", "0,0,0"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_arguments_exit_via_argparse(self, scene_file, tmp_path, capsys, bad):
        paths = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "paths.json")
        rm = str(tmp_path / "rm.json")
        assert main(["fit", "rt", "--paths", paths, "--out", rm]) == 0
        capsys.readouterr()
        calls = [  # "--opt=value", so that "-inf" is not read as an option
            ["trace", "--scene", scene_file, f"--tx={bad},0,5", "--rx", "4,0,1"],
            ["trace", "--scene", scene_file, "--tx", "0,0,1", f"--rx=4,{bad},1"],
            ["predict", "--rm", rm, "--tx", "0,0,1", "--rx", "4,0,1", f"--freq={bad}"],
        ]
        for argv in calls:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "expected a finite number" in capsys.readouterr().err

    def test_predict_on_non_finite_model_exits_2(self, scene_file, tmp_path, capsys):
        paths = self.trace(scene_file, tmp_path, "0,0,1", "4,0,1", "paths.json")
        rm = tmp_path / "rm.json"
        assert main(["fit", "rt", "--paths", paths, "--out", str(rm)]) == 0
        doc = json.loads(rm.read_text())
        doc["paths"][0]["roll_deg"] = math.nan
        rm.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main([
            "predict", "--rm", str(rm), "--tx", "0,0,1", "--rx", "4,0,1", "--freq", repr(F0),
        ]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite 'roll_deg'" in captured.err

    def run_experiment(self, experiment, scene_file, tmp_path, cfg) -> int:
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(cfg))
        return main([
            "experiment", experiment, "--scene", scene_file,
            "--config", str(config), "--out", str(tmp_path / "o.csv"),
        ])

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("rotations_deg", [0.0, math.nan], "non-finite 'rotations_deg' in file"),
            ("dp_displacements_m", [0.01, math.nan], "non-finite 'dp_displacements_m' in file"),
            ("dp_displacements_m", [0.0, 0.02], "dp_distances must be finite and positive"),
        ],
    )
    def test_capacity_config_bad_setting_exits_2(
        self, scene_file, tmp_path, capsys, key, value, message
    ):
        cfg = {"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], "rows": 2, "cols": 2,
               "models": ["rm_dp"], "n_freq": 1, "max_bounces": 1, key: value}
        assert self.run_experiment("capacity", scene_file, tmp_path, cfg) == 2
        assert f"error: {message}" in capsys.readouterr().err

    def test_displacement_config_repeated_distance_exits_2(self, scene_file, tmp_path, capsys):
        cfg = {"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], "distances_m": [0.01, 0.01]}
        assert self.run_experiment("displacement", scene_file, tmp_path, cfg) == 2
        message = "error: distances must be >= 2 positive values, strictly ascending"
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("dp_displacements", [[], [0.01]])
    def test_capacity_config_one_rm_dp_displacement_exits_2_before_tracing(
        self, scene_file, tmp_path, capsys, monkeypatch, dp_displacements
    ):
        calls = []
        monkeypatch.setattr(experiments, "trace_paths", lambda *args: calls.append(args))
        cfg = {"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], "rows": 2, "cols": 2,
               "models": ["rm_dp"], "dp_displacements_m": dp_displacements}
        assert self.run_experiment("capacity", scene_file, tmp_path, cfg) == 2
        assert "error: rm_dp needs at least two dp_distances" in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5], ids=["inf", "nan", "2.5"])
    @pytest.mark.parametrize(
        "experiment, key",
        [("capacity", key) for key in ("rows", "cols", "n_freq", "max_bounces", "rng_seed")]
        + [("displacement", key)
           for key in ("directions_per_distance", "rng_seed", "n_freq", "max_bounces")],
    )
    def test_integer_config_key_not_an_integer_exits_2(
        self, scene_file, tmp_path, capsys, experiment, key, bad
    ):
        cfg = {"tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], key: bad}
        assert self.run_experiment(experiment, scene_file, tmp_path, cfg) == 2
        err = capsys.readouterr().err
        assert f"error: config key {key!r}: expected an integer, got {bad!r}" in err

    @pytest.mark.parametrize(
        "experiment, key",
        [("capacity", key) for key in (
            "tx_ref", "rows", "cols", "spacing_m", "n_freq", "max_bounces", "rng_seed",
            "rotations_deg", "dp_displacements_m", "tx_power_dbm", "bandwidth_hz",
            "noise_figure_db", "alpha", "se_max_bpshz",
        )]
        + [("displacement", key) for key in (
            "rx_ref", "distances_m", "directions_per_distance", "rng_seed", "bandwidth_hz",
            "n_freq", "max_bounces",
        )],
    )
    def test_boolean_config_number_exits_2(
        self, scene_file, tmp_path, capsys, monkeypatch, experiment, key
    ):
        # "rows": true traced a 1-row array; [0, 0, true] read as [0, 0, 1]
        calls = []
        monkeypatch.setattr(experiments, "trace_paths", lambda *args: calls.append(args))
        monkeypatch.setattr(experiments, "trace_pairs", lambda *args: calls.append(args))
        cfg = {
            "capacity": {
                "tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], "rows": 2, "cols": 2,
                "spacing_m": 0.01, "n_freq": 1, "max_bounces": 1, "rng_seed": 0,
                "rotations_deg": [0.0], "models": ["rm_dp"], "dp_displacements_m": [0.01, 0.02],
                "tx_power_dbm": 20.0, "bandwidth_hz": 1e9, "noise_figure_db": 3.0,
                "alpha": 0.75, "se_max_bpshz": 4.8,
            },
            "displacement": {
                "tx_ref": [0.0, 0.0, 1.0], "rx_ref": [4.0, 0.0, 1.0], "distances_m": [0.01, 0.02],
                "directions_per_distance": 1, "rng_seed": 0, "bandwidth_hz": 1e9, "n_freq": 1,
                "max_bounces": 1,
            },
        }[experiment]
        text = with_true(cfg, key)
        assert self.run_experiment(experiment, scene_file, tmp_path, json.loads(text)) == 2
        assert f"error: '{key}' must be a number, got True" in capsys.readouterr().err
        assert calls == []

    def test_config_missing_reference_exits_2(self, scene_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rotations_deg": [0.0]}))
        rc = main([
            "experiment", "capacity", "--scene", scene_file,
            "--config", str(config), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
