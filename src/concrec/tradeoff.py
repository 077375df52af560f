"""Concentration-recovery trade-off quantities, minimized over the EPR count.

The minimal concentration-recovery error for n source copies and N <= n
recovered copies is the minimum over the intermediate EPR count m of the
concentration error into m pairs plus the dilution error back out of them.
The dilution term vanishes once 2^m covers the full target spectrum, and
the concentration term only grows with m, so the scan is capped at
N * ceil(log2 rank) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Union

from .conversion import concentration_fidelity, dilution_fidelity
from .errors import InvalidEpsilon, InvalidRange
from .spectrum import LeveledSpectrum, SchmidtVector, power_spectrum


@dataclass(frozen=True)
class TradeoffResult:
    """One point of the trade-off: total error and its two components."""

    delta: float
    optimal_m: int
    concentration_error: float
    recovery_error: float
    n: int
    N: int


def _ceil_log2(r: int) -> int:
    return (r - 1).bit_length()


@lru_cache(maxsize=64)
def _spectrum(sv: SchmidtVector, copies: int) -> LeveledSpectrum:
    return power_spectrum(sv, copies)


@lru_cache(maxsize=8192)
def _gmcre(sv: SchmidtVector, n: int, N: int) -> TradeoffResult:
    spec_n = _spectrum(sv, n)
    spec_N = spec_n if N == n else _spectrum(sv, N)
    # max(1, ...) keeps rank-1 inputs scannable; their best m is 1 anyway.
    m_cap = max(1, N * _ceil_log2(sv.rank))
    best: Union[tuple[float, int, float, float], None] = None
    for m in range(1, m_cap + 1):
        L = 1 << m
        conc = concentration_fidelity(spec_n, L).error
        dil = dilution_fidelity(spec_N, L).error
        delta = conc + dil
        if best is None or delta < best[0]:
            best = (delta, m, conc, dil)
    assert best is not None
    return TradeoffResult(
        delta=best[0],
        optimal_m=best[1],
        concentration_error=best[2],
        recovery_error=best[3],
        n=n,
        N=N,
    )


def generalized_mcre(sv: SchmidtVector, n: int, N: int) -> TradeoffResult:
    """Minimal total error for concentrating n copies and recovering N of them.

    Scans every EPR count m in [1, N * ceil(log2 rank)]; ties go to the
    smallest m, so results are independent of evaluation order.
    """
    if N < 1 or N > n:
        raise InvalidRange(f"need 1 <= N <= n, got N={N}, n={n}")
    return _gmcre(sv, n, N)


def mcre(sv: SchmidtVector, n: int) -> TradeoffResult:
    """Minimal concentration-recovery error with full recovery (N = n)."""
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    return _gmcre(sv, n, n)


def max_recoverable(sv: SchmidtVector, n: int, eps: float) -> int:
    """Largest N in [0, n] whose trade-off error stays within ``eps``.

    Recovering nothing costs nothing, so N = 0 always qualifies.  The search
    is binary, relying on the trade-off error being non-decreasing in N.
    """
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    if not 0.0 < eps <= 1.0:
        raise InvalidEpsilon(f"need 0 < eps <= 1, got {eps}")
    lo, hi = 0, n
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if _gmcre(sv, n, mid).delta <= eps:
            lo = mid
        else:
            hi = mid - 1
    return lo


def delta_curve(sv: SchmidtVector, n_values: Iterable[int]) -> list[tuple[int, float]]:
    """Full-recovery trade-off error for each copy count in ``n_values``, in order."""
    return [(n, mcre(sv, n).delta) for n in n_values]
