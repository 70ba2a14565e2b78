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


def _number(doc: dict, key: str):
    """doc[key], a number or a list of them (nested to any depth), as it
    stands; ValueError naming key for any other entry. Every number of a
    scene, a path export, a model file and an experiment config is read
    through here. JSON's true and false are rejected, as a value or as a
    list entry alike: Python's json reads them as bools, which float(),
    int() and numpy take for 1 and 0. So is a string, which float() would
    parse."""
    pending = [doc[key]]
    while pending:
        value = pending.pop()
        if isinstance(value, (list, tuple)):
            pending.extend(value)
        elif isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{key!r} must be a number, got {value!r}")
    return doc[key]


def _finite(entry: dict, key: str):
    """entry[key] (see _number) as a float, or as a float array if it is a
    list. Python's json reads NaN and Infinity, so a non-finite number is
    rejected here."""
    x = np.array(_number(entry, key), dtype=float)
    if not np.isfinite(x).all():
        raise ValueError(f"non-finite {key!r} in file")
    return x if x.ndim else float(x)


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
        "gain": _gain_from_fields(_finite(entry, "gain_db"), _finite(entry, "phase_deg")),
        "delay": _finite(entry, delay_key),
        **{name: _finite(entry, f"{name}_deg") * _DEG for name in _ANGLES},
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
    """The scene a scene JSON file describes; its numbers are read through
    _number, and Facet and Scene check their values."""
    doc = json.load(fp)
    facets = tuple(
        Facet(
            center=np.array(_number(f, "center"), dtype=float),
            axis_u=np.array(_number(f, "axis_u"), dtype=float),
            axis_v=np.array(_number(f, "axis_v"), dtype=float),
            half_u=None if f.get("half_u") is None else float(_number(f, "half_u")),
            half_v=None if f.get("half_v") is None else float(_number(f, "half_v")),
            two_sided=f.get("two_sided", False),
        )
        for f in doc.get("facets", [])
    )
    loss_db = _number(doc, "reflection_loss_db") if "reflection_loss_db" in doc else 3.0
    return Scene(
        facets=facets,
        carrier_freq=float(_number(doc, "carrier_hz")),
        reflection_loss_db=float(loss_db),
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
        route = None if e.get("route") is None else Route(vertices=_finite(e, "route"))
        paths.append((pwa, route))
    return PathExport(
        tx=_finite(doc, "tx"),
        rx=_finite(doc, "rx"),
        f0_hz=_finite(doc, "f0_hz"),
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
    doc = json.load(fp)
    ref = ReferencePair(tx_ref=_finite(doc, "tx_ref"), rx_ref=_finite(doc, "rx_ref"))
    paths = []
    for e in doc["paths"]:
        unknown = [key for key in e if key not in _RM_KEYS]
        if unknown:
            raise ValueError(f"unknown key {unknown[0]!r} in a model file path")
        s = _finite(e, "s")
        if s not in (-1.0, 1.0):
            raise ValueError(f"'s' must be -1 or +1, got {s!r}")
        roll = _finite(e, "roll_deg") * _DEG
        paths.append(RmPath(**_pwa_from_fields(e, "tau_s"), roll=roll, s=int(s)))
    return RmExport(ref=ref, f0_hz=_finite(doc, "f0_hz"), paths=tuple(paths))


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
