"""Reflection-model recovery from plane-wave observations at displaced pairs.

Route geometry is often unavailable: a channel sounder or a commercial ray
tracer reports per-path gains, delays and angles only. Those plane-wave
parameters at the reference pair already fix everything in the angle form of
the reflection model except the transmitter roll angle and the +-1 mirror
parity. Observing the same paths at a few displaced TX/RX pairs pins both
down: each displaced pair contributes one linear equation in
(cos roll, sin roll) for either parity, obtained by squaring the modeled
distance, and the parity/roll pair that explains the measured delays wins.
Each parity's system, two columns and one row per displaced pair, is solved
in least squares by Givens rotations on floats (_fit_roll); two or more pairs
are taken.

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
    _align_rows,
)
from .geometry import as_points, wrap_angle

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


@dataclass(frozen=True, eq=False, slots=True)
class PairObservation:
    """Plane-wave path list observed at one TX/RX pair."""

    tx: np.ndarray
    rx: np.ndarray
    paths: tuple[PwaPath, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tx", as_points(self.tx, "tx", 1))
        object.__setattr__(self, "rx", as_points(self.rx, "rx", 1))
        object.__setattr__(self, "paths", tuple(self.paths))


@dataclass(frozen=True, slots=True)
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
            # the four angle gaps in degrees, azimuths wrapped, summed in order;
            # a partial sum that reaches best_cost can only stay there or grow
            cost = _DEG_PER_RAD * abs(remainder(ref.aoa_az - cand.aoa_az, turn))
            if cost < best_cost:
                cost += _DEG_PER_RAD * abs(remainder(ref.aod_az - cand.aod_az, turn))
            if cost < best_cost:
                cost += _DEG_PER_RAD * abs(ref.aoa_el - cand.aoa_el)
            if cost < best_cost:
                cost += _DEG_PER_RAD * abs(ref.aod_el - cand.aod_el)
            if cost < best_cost:
                best_cost = cost
                best = j
        if best is not None:
            result[i] = best
            used.add(best)
    return result


def _fit_roll(rows, rhs) -> tuple[float, float, float] | None:
    """Least-squares (x, y, residual) for A @ (x, y) ~ C; None if rank < 2.

    rows are the (a, b) rows of A, two or more, and rhs the entries of C.
    Givens rotations reduce [A | C] row by row to the triangle
    R = [[r11, r12], [0, r22]] and Q^T C = (z1, z2, ...), without forming
    A^T A. Rank < 2 means sigma_min <= 1e-12 sigma_max for R, whose singular
    values multiply to |r11 r22| and have squares summing to
    r11^2 + r12^2 + r22^2. The residual is summed from C - A @ (x, y) row by
    row.
    """
    r11 = r12 = r22 = z1 = z2 = 0.0
    for (a, b), c in zip(rows, rhs):
        # rotate the row's first entry into r11, then its second into r22
        rho = math.hypot(r11, a)
        if rho != 0.0:
            cs, sn = r11 / rho, a / rho
            r11, r12, b = rho, cs * r12 + sn * b, cs * b - sn * r12
            z1, c = cs * z1 + sn * c, cs * c - sn * z1
        rho = math.hypot(r22, b)
        if rho != 0.0:
            r22, z2 = rho, (r22 * z2 + b * c) / rho
    half, det = 0.5 * (r11 * r11 + r12 * r12 + r22 * r22), r11 * r22
    sigma_max_sq = half + math.sqrt(max((half - det) * (half + det), 0.0))
    if det <= 1e-12 * sigma_max_sq:
        return None
    y = z2 / r22
    x = (z1 - r12 * y) / r11
    resid = 0.0
    for (a, b), c in zip(rows, rhs):
        e = c - (a * x + b * y)
        resid += e * e
    return x, y, resid


def _roll_equation(rot_r, rot_t, d0, delta_r, delta_t, d_m):
    """One displaced pair's equation in (cos roll, sin roll) for one path:
    the row for s = +1, the row for s = -1 and the right-hand side.

    rot_r and rot_t are the rows of align_rotation at the arrival and the
    departure angles, d0 and d_m the path lengths at the reference and the
    displaced pair, delta_r and delta_t the reference minus the displaced
    positions. With a = rot @ delta at each end, the squared modeled
    distance gives the row 2 (a_r1 a_t1 + s a_r2 a_t2, s a_r2 a_t1 - a_r1 a_t2)
    and the right-hand side d_m^2 - geom - 2 a_r0 a_t0, where
    geom = -d0^2 + |delta_r + d0 u_r|^2 + |delta_t + d0 u_t|^2 and u is the
    direction, the first row of rot.
    """
    dr0, dr1, dr2 = delta_r
    dt0, dt1, dt2 = delta_t
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot_r
    (t00, t01, t02), (t10, t11, t12), (t20, t21, t22) = rot_t
    ar0 = r00 * dr0 + r01 * dr1 + r02 * dr2
    ar1 = r10 * dr0 + r11 * dr1 + r12 * dr2
    ar2 = r20 * dr0 + r21 * dr1 + r22 * dr2
    at0 = t00 * dt0 + t01 * dt1 + t02 * dt2
    at1 = t10 * dt0 + t11 * dt1 + t12 * dt2
    at2 = t20 * dt0 + t21 * dt1 + t22 * dt2
    er0, er1, er2 = dr0 + d0 * r00, dr1 + d0 * r01, dr2 + d0 * r02
    et0, et1, et2 = dt0 + d0 * t00, dt1 + d0 * t01, dt2 + d0 * t02
    geom = (
        -d0 * d0
        + (er0 * er0 + er1 * er1 + er2 * er2)
        + (et0 * et0 + et1 * et1 + et2 * et2)
    )
    p, q, u, v = ar1 * at1, ar2 * at2, ar2 * at1, ar1 * at2
    return (
        (2.0 * (p + q), 2.0 * (u - v)),
        (2.0 * (p - q), 2.0 * (-u - v)),
        d_m * d_m - geom - 2.0 * ar0 * at0,
    )


def solve_gamma_s(
    reference: PairObservation,
    displaced: list[PairObservation],
    ref_geometry: ReferencePair,
) -> list[GammaSolution]:
    """Per-path roll angle and mirror parity from displaced-pair delays.

    For each reference path and each displaced pair, the squared modeled
    distance is linear in (cos roll, sin roll) once the parity is fixed; the
    two candidate linear systems are solved by _fit_roll's two-column least
    squares and the parity with the smaller residual wins. When both
    residuals vanish (always the case with exactly two displaced pairs and
    consistent data), the solution whose (x, y) lies closer to the unit
    circle decides, since x^2 + y^2 = 1 must hold for the true parity.
    Requires at least two displaced pairs; one that observes no paths gives
    no equations, and a reference that observes none has nothing to solve.
    The arithmetic runs on floats.
    """
    if len(displaced) < 2:
        raise ValueError("need at least two displaced pairs")
    if not ref_geometry.matches(reference.tx, reference.rx):
        raise ValueError("reference observation does not sit at the reference pair")
    if not reference.paths:
        return []

    # per displaced pair: the matches, ref - displaced at RX and TX, and the
    # observed paths
    rx_ref, tx_ref = ref_geometry.rx_ref.tolist(), ref_geometry.tx_ref.tolist()
    pairs = []
    for obs in displaced:
        if obs.paths:
            sigma = match_paths(reference, obs)
        else:
            sigma = [None] * len(reference.paths)
        delta_r = tuple(r - o for r, o in zip(rx_ref, obs.rx.tolist()))
        delta_t = tuple(t - o for t, o in zip(tx_ref, obs.tx.tolist()))
        pairs.append((sigma, delta_r, delta_t, obs.paths))

    solutions = []
    for i, path in enumerate(reference.paths):
        rot_r = _align_rows(path.aoa_az, path.aoa_el)
        rot_t = _align_rows(path.aod_az, path.aod_el)
        d0 = C_LIGHT * path.delay

        rows_pos, rows_neg, rhs = [], [], []
        for sigma, delta_r, delta_t, seen in pairs:
            j = sigma[i]
            if j is None:
                continue
            row_pos, row_neg, c_m = _roll_equation(
                rot_r, rot_t, d0, delta_r, delta_t, C_LIGHT * seen[j].delay
            )
            rows_pos.append(row_pos)
            rows_neg.append(row_neg)
            rhs.append(c_m)

        if len(rhs) < 2:
            solutions.append(GammaSolution(s=0, gamma=math.nan, residual=math.inf))
            continue
        fit_pos = _fit_roll(rows_pos, rhs)
        fit_neg = _fit_roll(rows_neg, rhs)
        if fit_pos is None or fit_neg is None:
            solutions.append(GammaSolution(s=0, gamma=math.nan, residual=math.inf))
            continue

        # Residuals tie (both systems interpolate) whenever there are only as
        # many equations as unknowns; fall back to unit-circle consistency.
        tie_scale = max(sum([c * c for c in rhs]), 1e-300)
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
