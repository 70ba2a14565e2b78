"""Link budget, stream allocation and achievable-rate estimates.

Spatial multiplexing over the singular values of the channel matrix, a
complex (M, N) array indexed [rx][tx]: the transmit power is split equally
over the k strongest streams and the per-stream rate follows a clipped
linear-in-log spectral efficiency curve; the stream count maximizing the sum
is chosen. Wideband rate integrates the per-frequency spectral efficiency
over the band with the midpoint rule, from the matrices at its sub-band
midpoints that the caller synthesizes.

The K sums for k = 1..K come from the packed lower triangle of the k × i
table of per-stream rates: row k holds only the k streams in use, K(K+1)/2
entries in all, and one np.add.reduceat gives the row sums. The gather
indices, the 1/k of each entry and the row starts depend on K alone and are
built once per size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .geometry import _real

__all__ = [
    "LinkBudget",
    "RateModel",
    "band_rate",
    "optimal_streams",
    "rayleigh_distance",
    "rho",
    "singular_values",
    "spectral_efficiency",
    "stream_rates",
]

# Thermal noise floor at 290 K in dBm/Hz.
_NOISE_FLOOR_DBM_HZ = -174.0


@dataclass(frozen=True)
class LinkBudget:
    """Transmit power, bandwidth and receiver noise figure, real numbers
    checked and stored as floats by geometry._real."""

    tx_power_dbm: float = 23.0
    bandwidth_hz: float = 2e9
    noise_figure_db: float = 3.0

    def __post_init__(self) -> None:
        message = "bandwidth must be positive and finite, got 'bandwidth_hz' = "
        object.__setattr__(self, "bandwidth_hz", _real(self.bandwidth_hz, message, above=0.0))
        for key in ("tx_power_dbm", "noise_figure_db"):
            message = f"transmit power and noise figure must be finite, got {key!r} = "
            object.__setattr__(self, key, _real(getattr(self, key), message))
        # 10 ** (x / 10) leaves the float range past x = 308.25 * 10 and
        # its watts reach 0.0 below about -3200 dBm; a subnormal bandwidth
        # takes the noise power to 0.0 too
        for power, keys in (
            ("tx_power_w", ("tx_power_dbm",)),
            ("noise_power_w", ("noise_figure_db", "bandwidth_hz")),
        ):
            try:
                watts = getattr(self, power)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:
                given = ", ".join(f"{key!r} = {getattr(self, key)!r}" for key in keys)
                raise ValueError(f"{power} must be positive and finite, got {watts!r} from {given}")

    @property
    def tx_power_w(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0) * 1e-3

    @property
    def noise_psd_w_hz(self) -> float:
        return 10.0 ** ((_NOISE_FLOOR_DBM_HZ + self.noise_figure_db) / 10.0) * 1e-3

    @property
    def noise_power_w(self) -> float:
        return self.noise_psd_w_hz * self.bandwidth_hz


@dataclass(frozen=True)
class RateModel:
    """Clipped spectral-efficiency curve alpha*log2(1+snr), capped at se_max;
    both positive reals, checked and stored as floats by geometry._real."""

    alpha: float = 0.6
    se_max: float = 4.8

    def __post_init__(self) -> None:
        for key in ("alpha", "se_max"):
            message = f"rate model constants must be positive and finite, got {key!r} = "
            object.__setattr__(self, key, _real(getattr(self, key), message, above=0.0))


def singular_values(h: np.ndarray) -> np.ndarray:
    """Singular values of an (M, N) channel matrix, min(M, N) of them,
    descending."""
    return np.linalg.svd(h, compute_uv=False)


def rho(snr: float, model: RateModel = RateModel()) -> float:
    """Per-stream spectral efficiency at a given SNR, bps/Hz."""
    snr = _real(snr, "SNR must be non-negative, got ", least=0.0)
    return min(model.alpha * math.log2(1.0 + snr), model.se_max)


@functools.lru_cache(maxsize=8)
def _triangle(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed lower triangle of the size × size stream table, row by row:
    the stream index i <= k - 1 of each entry of row k, its 1/k, and the
    offset where each row starts. Read-only, as every caller shares them."""
    rows, cols = np.tril_indices(size)
    inv_k = 1.0 / (rows + 1.0)
    starts = np.flatnonzero(cols == 0)
    for a in (cols, inv_k, starts):
        a.flags.writeable = False
    return cols, inv_k, starts


def _checked(singulars) -> np.ndarray:
    """singulars as a float array, or ValueError unless it is a non-empty
    1-D list of finite non-negative values. min and max are NaN if any value
    is, so the one comparison also rejects NaN."""
    s = np.asarray(singulars, dtype=float)
    if s.ndim != 1 or s.size == 0 or not (s.min() >= 0.0 and s.max() < math.inf):
        raise ValueError(
            "singular values must be a non-empty 1-D list of finite non-negative values"
        )
    return s


def _stream_rates(s: np.ndarray, budget: LinkBudget, model: RateModel) -> np.ndarray:
    """stream_rates of a non-empty, finite, non-negative and descending s."""
    cols, inv_k, starts = _triangle(s.size)
    # Entry (k, i) is the per-stream SNR s_i^2 P / (N k) of an equal split
    # over k streams. The packed triangle, K(K+1)/2 entries, is the only
    # scratch array: half the K × K table, which a sweep's peak memory would
    # otherwise hold, and no mask over its unused upper half.
    snr = (s * s * (budget.tx_power_w / budget.noise_power_w))[cols]
    snr *= inv_k
    snr += 1.0
    np.log2(snr, out=snr)
    snr *= model.alpha
    np.minimum(snr, model.se_max, out=snr)
    return np.add.reduceat(snr, starts)


def stream_rates(
    singulars: np.ndarray, budget: LinkBudget, model: RateModel = RateModel()
) -> np.ndarray:
    """Sum rate of the k strongest streams at equal power, for k = 1..K, bps/Hz.

    singulars is a 1-D list in any order."""
    return _stream_rates(np.sort(_checked(singulars))[::-1], budget, model)


def spectral_efficiency(
    singulars: np.ndarray, budget: LinkBudget, model: RateModel = RateModel()
) -> float:
    """Best equal-power stream split, bps/Hz."""
    return float(stream_rates(singulars, budget, model).max())


def optimal_streams(
    singulars: np.ndarray, budget: LinkBudget, model: RateModel = RateModel()
) -> int:
    """Stream count achieving the spectral-efficiency maximum."""
    return int(np.argmax(stream_rates(singulars, budget, model))) + 1


def band_rate(
    matrices: Iterable[np.ndarray],
    budget: LinkBudget,
    model: RateModel = RateModel(),
) -> tuple[float, float]:
    """Midpoint-rule rate over B = budget.bandwidth_hz, the band the budget's
    noise power covers, from the channel matrices at the midpoints of its n
    equal sub-bands, as ``channel_evaluator(...).band(B, n)`` yields. Only
    their singular values are read, so any matrices whose nonzero singular
    values are the channel's serve, such as the cores that
    ``plane_wave_core(...).band(B, n)`` yields.

    Returns (rate in bit/s, band-averaged spectral efficiency in bps/Hz).
    """
    bandwidth = budget.bandwidth_hz
    total, n_freq = 0.0, 0
    # map holds no matrix while the next one is synthesized. The SVD's values
    # come descending, so they skip stream_rates' sort, but are still checked:
    # a matrix holding inf gives NaNs and no LinAlgError.
    for n_freq, s in enumerate(map(singular_values, matrices), 1):
        total += float(_stream_rates(_checked(s), budget, model).max())
    if n_freq < 1:
        raise ValueError("need at least one frequency sample")
    rate = bandwidth / n_freq * total
    return rate, rate / bandwidth


def rayleigh_distance(aperture: float, wavelength: float) -> float:
    """Far-field boundary 2 D^2 / lambda of an aperture of size D."""
    message = "aperture must be non-negative and wavelength positive, both finite, got "
    aperture = _real(aperture, f"{message}'aperture' = ", least=0.0)
    wavelength = _real(wavelength, f"{message}'wavelength' = ", above=0.0)
    return 2.0 * aperture * aperture / wavelength
