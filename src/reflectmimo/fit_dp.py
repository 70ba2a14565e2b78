"""Reflection-model recovery from plane-wave observations at displaced pairs.

Route geometry is often unavailable: a channel sounder or a commercial ray
tracer reports per-path gains, delays and angles only. Those plane-wave
parameters at the reference pair already fix everything in the angle form of
the reflection model except the transmitter roll angle and the +-1 mirror
parity. Observing the same paths at a few displaced TX/RX pairs pins both
down: each displaced pair contributes one linear equation in
(cos roll, sin roll) for either parity, obtained by squaring the modeled
distance, and the parity/roll pair that explains the measured delays wins.

Paths are identified across pairs by one fixed greedy rule: reference paths
take their matches strongest first, each the unused displaced path whose four
angle gaps, summed in degrees, are smallest, ties going to the lowest index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .paths import (
    C_LIGHT,
    PwaPath,
    ReferencePair,
    RmPath,
    _vec3,
    align_rotation,
    spherical_dir,
)
from .geometry import wrap_angle

__all__ = [
    "GammaSolution",
    "PairObservation",
    "fit_rm_dp",
    "match_paths",
    "solve_gamma_s",
]

# The plane-wave parameters that fit_rm_dp copies into each RmPath.
_PWA_FIELDS = tuple(f.name for f in fields(PwaPath))

# Weight of every angle gap in the matching cost: the gaps are summed in degrees.
_DEG_PER_RAD = 180.0 / math.pi


@dataclass(frozen=True, eq=False)
class PairObservation:
    """Plane-wave path list observed at one TX/RX pair."""

    tx: np.ndarray
    rx: np.ndarray
    paths: tuple[PwaPath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx", _vec3(self.tx, "tx"))
        object.__setattr__(self, "rx", _vec3(self.rx, "rx"))
        object.__setattr__(self, "paths", tuple(self.paths))


@dataclass(frozen=True)
class GammaSolution:
    """Roll/parity estimate for one reference path.

    residual is the summed squared mismatch of the chosen parity; it is
    infinite when the path could not be solved (rank-deficient system or too
    few matched observations), in which case s is 0 and gamma is nan.
    """

    s: int
    gamma: float
    residual: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.residual)


def _strongest_first(paths: tuple[PwaPath, ...]) -> list[int]:
    """Path indices by descending |gain|, equal gains in index order."""
    return sorted(range(len(paths)), key=lambda i: (-abs(paths[i].gain), i))


def match_paths(
    reference: PairObservation, displaced: PairObservation
) -> list[int | None]:
    """Injective map from reference path index to displaced path index.

    Reference paths are processed strongest first; each takes the unused
    displaced path with the smallest angle distance (ties resolved toward the
    lowest index). Entries are None when the displaced pair has run out of
    candidates. Raises ValueError on empty path lists.
    """
    if not reference.paths or not displaced.paths:
        raise ValueError("cannot match empty path lists")
    result: list[int | None] = [None] * len(reference.paths)
    used = set()
    remainder, turn = math.remainder, 2.0 * math.pi
    for i in _strongest_first(reference.paths):
        ref = reference.paths[i]
        best = None
        best_cost = math.inf
        for j, cand in enumerate(displaced.paths):
            if j in used:
                continue
            # the four angle gaps in degrees, azimuths wrapped, summed in order
            cost = _DEG_PER_RAD * abs(remainder(ref.aoa_az - cand.aoa_az, turn))
            cost += _DEG_PER_RAD * abs(remainder(ref.aod_az - cand.aod_az, turn))
            cost += _DEG_PER_RAD * abs(ref.aoa_el - cand.aoa_el)
            cost += _DEG_PER_RAD * abs(ref.aod_el - cand.aod_el)
            if cost < best_cost:
                best_cost = cost
                best = j
        if best is not None:
            result[i] = best
            used.add(best)
    return result


def _fit_roll(a_mat: np.ndarray, c_vec: np.ndarray) -> tuple[float, float, float] | None:
    """Least-squares (x, y, residual) for A @ (x, y) ~ C; None if rank < 2."""
    sol, _, _, sv = np.linalg.lstsq(a_mat, c_vec, rcond=None)
    if sv[-1] <= 1e-12 * max(sv[0], 1e-300):
        return None
    resid = float(np.sum((c_vec - a_mat @ sol) ** 2))
    return float(sol[0]), float(sol[1]), resid


def solve_gamma_s(
    reference: PairObservation,
    displaced: list[PairObservation],
    ref_geometry: ReferencePair,
) -> list[GammaSolution]:
    """Per-path roll angle and mirror parity from displaced-pair delays.

    For each reference path and each displaced pair, the squared modeled
    distance is linear in (cos roll, sin roll) once the parity is fixed; the
    two candidate linear systems are solved and the parity with the smaller
    residual wins. When both residuals vanish (always the case with exactly
    two displaced pairs and consistent data), the solution whose (x, y) lies
    closer to the unit circle decides, since x^2 + y^2 = 1 must hold for the
    true parity. Requires at least two displaced pairs.
    """
    if len(displaced) < 2:
        raise ValueError("need at least two displaced pairs")
    if not ref_geometry.matches(reference.tx, reference.rx):
        raise ValueError("reference observation does not sit at the reference pair")

    matches = [match_paths(reference, obs) for obs in displaced]

    solutions = []
    for i, path in enumerate(reference.paths):
        rot_rx = align_rotation(path.aoa_az, path.aoa_el)
        rot_tx = align_rotation(path.aod_az, path.aod_el)
        u_r = spherical_dir(path.aoa_az, path.aoa_el)
        u_t = spherical_dir(path.aod_az, path.aod_el)
        d0 = C_LIGHT * path.delay

        rows_a: dict[int, list[list[float]]] = {1: [], -1: []}
        rhs: list[float] = []
        for obs, sigma in zip(displaced, matches):
            j = sigma[i]
            if j is None:
                continue
            delta_r = ref_geometry.rx_ref - obs.rx
            delta_t = ref_geometry.tx_ref - obs.tx
            a_r = rot_rx @ delta_r
            a_t = rot_tx @ delta_t
            geom = (
                -d0 * d0
                + float(np.sum((delta_r + d0 * u_r) ** 2))
                + float(np.sum((delta_t + d0 * u_t) ** 2))
            )
            d_m = C_LIGHT * obs.paths[j].delay
            c_m = d_m * d_m - geom - 2.0 * a_r[0] * a_t[0]
            for s in (1, -1):
                rows_a[s].append(
                    [
                        2.0 * (a_r[1] * a_t[1] + s * a_r[2] * a_t[2]),
                        2.0 * (s * a_r[2] * a_t[1] - a_r[1] * a_t[2]),
                    ]
                )
            rhs.append(c_m)

        if len(rhs) < 2:
            solutions.append(GammaSolution(s=0, gamma=math.nan, residual=math.inf))
            continue
        c_vec = np.array(rhs)
        fit_pos = _fit_roll(np.array(rows_a[1]), c_vec)
        fit_neg = _fit_roll(np.array(rows_a[-1]), c_vec)
        if fit_pos is None or fit_neg is None:
            solutions.append(GammaSolution(s=0, gamma=math.nan, residual=math.inf))
            continue

        # Residuals tie (both systems interpolate) whenever there are only as
        # many equations as unknowns; fall back to unit-circle consistency.
        tie_scale = max(float(np.sum(c_vec**2)), 1e-300)
        if abs(fit_pos[2] - fit_neg[2]) > 1e-6 * tie_scale:
            s = 1 if fit_pos[2] < fit_neg[2] else -1
        else:
            circle_pos = abs(fit_pos[0] ** 2 + fit_pos[1] ** 2 - 1.0)
            circle_neg = abs(fit_neg[0] ** 2 + fit_neg[1] ** 2 - 1.0)
            s = 1 if circle_pos < circle_neg else -1
        x, y, resid = fit_pos if s == 1 else fit_neg
        solutions.append(
            GammaSolution(s=s, gamma=wrap_angle(math.atan2(y, x)), residual=resid)
        )
    return solutions


def fit_rm_dp(
    reference: PairObservation,
    displaced: list[PairObservation],
    ref_geometry: ReferencePair,
) -> list[RmPath]:
    """Reflection-model paths from plane-wave observations alone.

    Gains, delays and angles are copied from the reference observation; roll
    and parity come from solve_gamma_s. Paths are returned strongest first,
    in match_paths' order; paths whose system is degenerate are dropped.
    """
    solutions = solve_gamma_s(reference, displaced, ref_geometry)
    fitted = []
    for i in _strongest_first(reference.paths):
        sol = solutions[i]
        if not sol.ok:
            continue
        pwa = {name: getattr(reference.paths[i], name) for name in _PWA_FIELDS}
        fitted.append(RmPath(**pwa, roll=sol.gamma, s=sol.s))
    return fitted
