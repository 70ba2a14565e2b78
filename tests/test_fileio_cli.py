"""On-disk formats and the command-line front end."""

import csv
import io
import json
import math

import numpy as np
import pytest

from reflectmimo import (
    ErrorRecord,
    ReferencePair,
    Scene,
    SweepCell,
    fit_rm_rt,
    make_facet,
    to_pwa,
    trace_paths,
)
from reflectmimo import fileio
from reflectmimo.cli import main
from reflectmimo.paths import C_LIGHT, angles_to_image

F0 = 140e9

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
    export, traced, ref = traced_export(scene, tx, rx)
    fitted = tuple(
        (rm, angles_to_image(rm, ref)) for rm in (fit_rm_rt(p, ref) for p in traced)
    )
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
    def test_roundtrip_with_consistency_check(self):
        export = rm_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_rm(export, buf)
        buf.seek(0)
        loaded = fileio.load_rm(buf)

        assert len(loaded.paths) == 2
        for (got, got_img), (want, want_img) in zip(loaded.paths, export.paths):
            assert got.s == want.s
            assert got.delay == want.delay
            assert abs(got.roll - want.roll) <= 1e-12
            assert np.array_equal(got_img.U, want_img.U)
            assert np.array_equal(got_img.g, want_img.g)

    def test_resave_keeps_keys_and_values(self):
        export = rm_export(ground_scene(), TX, RX)
        first, second = resave(fileio.save_rm, fileio.load_rm, export)
        keys = [k.format(delay="tau_s") for k in PWA_KEYS] + ["roll_deg", "s", "U", "g"]
        for doc in (first, second):
            assert list(doc) == ["tx_ref", "rx_ref", "f0_hz", "paths"]
            assert [list(e) for e in doc["paths"]] == [keys, keys]
        assert numbers(second) == pytest.approx(numbers(first), rel=1e-12, abs=1e-12)

    def test_corrupt_file_rejected(self):
        export = rm_export(ground_scene(), TX, RX)
        buf = io.StringIO()
        fileio.save_rm(export, buf)
        doc = json.loads(buf.getvalue())
        doc["paths"][1]["roll_deg"] += 5.0
        corrupt = io.StringIO(json.dumps(doc))
        with pytest.raises(ValueError, match="disagree"):
            fileio.load_rm(corrupt)


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
        assert sorted(p.s for p, _ in loaded.paths) == [-1, 1]

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

    def test_config_missing_reference_exits_2(self, scene_file, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"rotations_deg": [0.0]}))
        rc = main([
            "experiment", "capacity", "--scene", scene_file,
            "--config", str(config), "--out", str(tmp_path / "o.csv"),
        ])
        assert rc == 2
        assert "error:" in capsys.readouterr().err
