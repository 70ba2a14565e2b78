"""On-disk formats: scene JSON, traced path exports, fitted reflection-model
parameters and experiment CSV tables.

Files carry angles in degrees and complex gains as (gain_db, phase_deg); the
in-memory API stays in radians and complex numbers. The raw fields of path
and model files (delays, route vertices and positions) are written with
the shortest repr and load back bit for bit; gains and angles pass through
the dB/degree conversion and change in their last digits on a round trip.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
import numbers
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

from .experiments import ErrorRecord, SweepCell
from .fit_dp import PairObservation
from .paths import C_LIGHT, PwaPath, ReferencePair, RmPath
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


def _number(doc: dict, key: str, ndim=0):
    """doc[key] read as a float for ndim 0, an int for ndim int (a count,
    which only configs hold; 8.0 reads as 8), or a float array for ndim 1
    (a list of numbers) or 2 (a list of such lists). Every number of a
    scene, a path export, a model file and a config is read here. Any other
    shape or entry raises a ValueError naming key: that takes in JSON's true
    and false, which Python reads as bools and float() as 1 and 0, strings,
    null, and NaN and Infinity, which Python's json reads too."""
    value = doc[key]
    depth = 0 if ndim is int else ndim
    x = np.array(value, dtype=object)  # a ragged list stays a list of lists
    if x.ndim != depth:
        shape = ("a number", "a list of numbers", "a list of equal-length lists of numbers")
        raise ValueError(f"{key!r} must be {shape[depth]}, got {value!r}")
    for entry in x.flat:
        if isinstance(entry, bool) or not isinstance(entry, numbers.Real):
            raise ValueError(f"{key!r} must be a number, got {entry!r}")
    if ndim is int:
        if isinstance(value, float) and not value.is_integer():
            raise ValueError(f"config key {key!r}: expected an integer, got {value!r}")
        return int(value)
    x = x.astype(float)
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite {key!r} in file")
    return x if depth else float(x)


def _document(fp: IO[str]) -> dict:
    """The JSON object fp holds; its entry lists, facets and paths, must be
    lists of objects where it has them."""
    doc = json.load(fp)
    if not isinstance(doc, dict):
        raise ValueError("the file must hold a JSON object")
    for key in ("facets", "paths"):
        entries = doc.get(key, [])
        if not (isinstance(entries, list) and all(isinstance(e, dict) for e in entries)):
            raise ValueError(f"{key!r} must be a list of objects")
    return doc


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
        "gain": _gain_from_fields(_number(entry, "gain_db"), _number(entry, "phase_deg")),
        "delay": _number(entry, delay_key),
        **{name: _number(entry, f"{name}_deg") * _DEG for name in _ANGLES},
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
    """The scene a scene JSON file describes. A key the file leaves out, or
    a null (unbounded) half-extent, is not passed, so the defaults are
    those of Facet and Scene, which check the values."""
    doc = _document(fp)
    facets = tuple(
        Facet(
            **{key: _number(f, key, 1) for key in ("center", "axis_u", "axis_v")},
            **{key: _number(f, key) for key in ("half_u", "half_v") if f.get(key) is not None},
            **{key: f[key] for key in ("two_sided",) if key in f},
        )
        for f in doc.get("facets", [])
    )
    loss = {key: _number(doc, key) for key in ("reflection_loss_db",) if key in doc}
    return Scene(facets=facets, carrier_freq=_number(doc, "carrier_hz"), **loss)


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
    doc = _document(fp)
    paths = []
    for e in doc["paths"]:
        pwa = PwaPath(**_pwa_from_fields(e, "delay_s"))
        route = None if e.get("route") is None else Route(vertices=_number(e, "route", 2))
        paths.append((pwa, route))
    return PathExport(
        tx=_number(doc, "tx", 1),
        rx=_number(doc, "rx", 1),
        f0_hz=_number(doc, "f0_hz"),
        paths=tuple(paths),
    )


# ---------------------------------------------------------------------------
# fitted reflection-model JSON


@dataclass(frozen=True, eq=False)
class RmExport:
    """Fitted reflection model: the angle form of every path."""

    ref: ReferencePair
    f0_hz: float
    paths: tuple[RmPath, ...]


# The keys of a model file's path entry, as save_rm writes them.
_RM_KEYS = ("gain_db", "phase_deg", "tau_s", *(f"{a}_deg" for a in _ANGLES), "roll_deg", "s")


def save_rm(export: RmExport, fp: IO[str]) -> None:
    entries = []
    for path in export.paths:
        entry = _pwa_to_fields(path, "tau_s")
        entry.update(roll_deg=path.roll / _DEG, s=path.s)
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
    """Load fitted parameters; a path entry with a key that save_rm does not
    write, or a parity s other than -1 or +1, is rejected by name."""
    doc = _document(fp)
    ref = ReferencePair(tx_ref=_number(doc, "tx_ref", 1), rx_ref=_number(doc, "rx_ref", 1))
    paths = []
    for e in doc["paths"]:
        unknown = [key for key in e if key not in _RM_KEYS]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in a model file path")
        s = _number(e, "s")
        if s not in (-1.0, 1.0):
            raise ValueError(f"'s' must be -1 or +1, got {s!r}")
        roll = _number(e, "roll_deg") * _DEG
        paths.append(RmPath(**_pwa_from_fields(e, "tau_s"), roll=roll, s=int(s)))
    return RmExport(ref=ref, f0_hz=_number(doc, "f0_hz"), paths=tuple(paths))


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
