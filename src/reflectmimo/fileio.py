"""On-disk formats: scene JSON, traced path exports, fitted reflection-model
parameters and experiment CSV tables.

Files carry angles in degrees and complex gains as (gain_db, phase_deg); the
in-memory API stays in radians and complex numbers. The raw fields of path
and model files (delays, route vertices, positions, U, g) are written with
the shortest repr and load back bit for bit; gains and angles pass through
the dB/degree conversion and change in their last digits on a round trip.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .experiments import ErrorRecord, SweepCell
from .fit_dp import PairObservation
from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmImage,
    RmPath,
    rm_distance_angles,
    rm_distance_image,
)
from .tracer import Facet, Route, Scene, TracedPath, route_length

__all__ = [
    "PathExport",
    "RmExport",
    "load_paths",
    "load_rm",
    "load_scene",
    "save_paths",
    "save_rm",
    "save_scene",
    "write_capacity_csv",
    "write_error_csv",
]

_DEG = math.pi / 180.0


def _gain_to_fields(gain: complex) -> tuple[float, float]:
    mag = abs(gain)
    if mag <= 0.0:
        raise ValueError("cannot serialize a zero path gain")
    return 20.0 * math.log10(mag), math.degrees(cmath.phase(gain))


def _gain_from_fields(gain_db: float, phase_deg: float) -> complex:
    return 10.0 ** (gain_db / 20.0) * cmath.exp(1j * math.radians(phase_deg))


_ANGLES = ("aoa_az", "aoa_el", "aod_az", "aod_el")


def _pwa_to_fields(path: PwaPath, delay_key: str) -> dict:
    """File fields of the six plane-wave parameters of a path; the path export
    and the fitted-model file name the delay differently."""
    gain_db, phase_deg = _gain_to_fields(path.gain)
    doc = {"gain_db": gain_db, "phase_deg": phase_deg, delay_key: path.delay}
    doc.update({f"{name}_deg": getattr(path, name) / _DEG for name in _ANGLES})
    return doc


def _pwa_from_fields(entry: dict, delay_key: str) -> dict:
    """PwaPath keyword arguments read back from _pwa_to_fields output."""
    return {
        "gain": _gain_from_fields(float(entry["gain_db"]), float(entry["phase_deg"])),
        "delay": float(entry[delay_key]),
        **{name: float(entry[f"{name}_deg"]) * _DEG for name in _ANGLES},
    }


def _vec(x) -> list[float]:
    return [float(v) for v in x]


# ---------------------------------------------------------------------------
# scene JSON


def save_scene(scene: Scene, fp: IO[str]) -> None:
    doc = {
        "carrier_hz": scene.carrier_freq,
        "reflection_loss_db": scene.reflection_loss_db,
        "facets": [
            {
                "center": _vec(f.center),
                "axis_u": _vec(f.axis_u),
                "axis_v": _vec(f.axis_v),
                "half_u": f.half_u,
                "half_v": f.half_v,
                "two_sided": f.two_sided,
            }
            for f in scene.facets
        ],
    }
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def load_scene(fp: IO[str]) -> Scene:
    doc = json.load(fp)
    facets = tuple(
        Facet(
            center=np.array(f["center"], dtype=float),
            axis_u=np.array(f["axis_u"], dtype=float),
            axis_v=np.array(f["axis_v"], dtype=float),
            half_u=None if f.get("half_u") is None else float(f["half_u"]),
            half_v=None if f.get("half_v") is None else float(f["half_v"]),
            two_sided=bool(f.get("two_sided", False)),
        )
        for f in doc.get("facets", [])
    )
    return Scene(
        facets=facets,
        carrier_freq=float(doc["carrier_hz"]),
        reflection_loss_db=float(doc.get("reflection_loss_db", 3.0)),
    )


# ---------------------------------------------------------------------------
# traced path export JSON


@dataclass(frozen=True, eq=False)
class PathExport:
    """Trace result for one TX/RX pair: plane-wave parameters plus routes."""

    tx: np.ndarray
    rx: np.ndarray
    f0_hz: float
    paths: tuple[tuple[PwaPath, Route | None], ...]

    @property
    def reference(self) -> ReferencePair:
        return ReferencePair(tx_ref=self.tx, rx_ref=self.rx)

    def observation(self) -> PairObservation:
        return PairObservation(
            tx=self.tx, rx=self.rx, paths=tuple(p for p, _ in self.paths)
        )

    def traced(self) -> list[TracedPath]:
        """The paths with their routes; each delay must match its route's
        length to 1e-12 relative."""
        out = []
        for k, (pwa, route) in enumerate(self.paths):
            if route is None:
                raise ValueError("path export lacks route geometry")
            length = route_length(route)
            if abs(pwa.delay * C_LIGHT - length) > 1e-12 * max(1.0, length):
                raise ValueError(f"path {k}: delay is inconsistent with the route length")
            out.append(TracedPath(route=route, gain=pwa.gain, delay=pwa.delay))
        return out


def save_paths(export: PathExport, fp: IO[str]) -> None:
    entries = []
    for pwa, route in export.paths:
        entry = _pwa_to_fields(pwa, "delay_s")
        entry["route"] = None if route is None else [_vec(v) for v in route.vertices]
        entries.append(entry)
    doc = {
        "tx": _vec(export.tx),
        "rx": _vec(export.rx),
        "f0_hz": export.f0_hz,
        "paths": entries,
    }
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def load_paths(fp: IO[str]) -> PathExport:
    doc = json.load(fp)
    paths = []
    for e in doc["paths"]:
        pwa = PwaPath(**_pwa_from_fields(e, "delay_s"))
        route = None
        if e.get("route") is not None:
            route = Route(vertices=np.array(e["route"], dtype=float))
        paths.append((pwa, route))
    return PathExport(
        tx=np.array(doc["tx"], dtype=float),
        rx=np.array(doc["rx"], dtype=float),
        f0_hz=float(doc["f0_hz"]),
        paths=tuple(paths),
    )


# ---------------------------------------------------------------------------
# fitted reflection-model JSON


@dataclass(frozen=True, eq=False)
class RmExport:
    """Fitted reflection model: both parametrizations of every path."""

    ref: ReferencePair
    f0_hz: float
    paths: tuple[tuple[RmPath, RmImage], ...]


def save_rm(export: RmExport, fp: IO[str]) -> None:
    entries = []
    for path, img in export.paths:
        entry = _pwa_to_fields(path, "tau_s")
        entry.update(
            roll_deg=path.roll / _DEG,
            s=path.s,
            U=[_vec(row) for row in img.U],
            g=_vec(img.g),
        )
        entries.append(entry)
    doc = {
        "tx_ref": _vec(export.ref.tx_ref),
        "rx_ref": _vec(export.ref.rx_ref),
        "f0_hz": export.f0_hz,
        "paths": entries,
    }
    json.dump(doc, fp, indent=2)
    fp.write("\n")


def load_rm(fp: IO[str]) -> RmExport:
    """Load fitted parameters; verifies that the two stored parametrizations
    describe the same distance function before returning."""
    doc = json.load(fp)
    ref = ReferencePair(
        tx_ref=np.array(doc["tx_ref"], dtype=float),
        rx_ref=np.array(doc["rx_ref"], dtype=float),
    )
    paths = []
    for e in doc["paths"]:
        path = RmPath(
            **_pwa_from_fields(e, "tau_s"),
            roll=float(e["roll_deg"]) * _DEG,
            s=int(e["s"]),
        )
        img = RmImage(U=np.array(e["U"], dtype=float), g=np.array(e["g"], dtype=float))
        paths.append((path, img))
    export = RmExport(ref=ref, f0_hz=float(doc["f0_hz"]), paths=tuple(paths))
    _check_rm_consistency(export)
    return export


# Random probe points per path at which the two stored forms must agree.
_N_PROBE = 10


def _check_rm_consistency(export: RmExport) -> None:
    """The angle form and the matrix form must agree at random probe points."""
    rng = np.random.default_rng(20240917)
    for k, (path, img) in enumerate(export.paths):
        for _ in range(_N_PROBE):
            rx = export.ref.rx_ref + rng.uniform(-2.0, 2.0, size=3)
            tx = export.ref.tx_ref + rng.uniform(-2.0, 2.0, size=3)
            da = rm_distance_angles(rx, tx, export.ref, path)
            di = rm_distance_image(rx, tx, img)
            if abs(da - di) > 1e-9 * max(1.0, di):
                raise ValueError(
                    f"path {k}: stored parametrizations disagree "
                    f"({da!r} vs {di!r}); file is corrupt or inconsistent"
                )


# ---------------------------------------------------------------------------
# experiment CSV tables


def write_error_csv(records: Iterable[ErrorRecord], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(["model", "distance_m", "freq_hz", "epsilon"])
    for r in records:
        writer.writerow([r.model, repr(r.distance), repr(r.frequency), repr(r.epsilon)])


def write_capacity_csv(cells: Iterable[SweepCell], fp: IO[str]) -> None:
    writer = csv.writer(fp)
    writer.writerow(
        ["rotation_deg", "model", "se_center_bpshz", "se_avg_bpshz", "rank_used"]
    )
    for c in cells:
        writer.writerow(
            [
                repr(math.degrees(c.rotation)),
                c.model,
                repr(c.se_center),
                repr(c.se_avg),
                c.rank_used,
            ]
        )
