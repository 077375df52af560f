"""Concentration-recovery trade-off quantities, minimized over the EPR count.

The minimal concentration-recovery error for n source copies and N <= n
recovered copies is the minimum over the intermediate EPR count m of the
concentration error into m pairs plus the dilution error back out of them.
The dilution term vanishes once 2^m covers the full target spectrum, so m
is capped at N * ceil(log2 rank) pairs.  Within the cap, the concentration
term never decreases in m and the dilution term never increases, so the
search evaluates the anchor m0 = round(S * N) (S the entropy in bits),
bisects for the window of m whose terms stay within delta(m0) plus a
1e-12 slack, and scans only that window, smallest m first.

The concentration term depends only on the n-copy spectrum and 2^m, not on
N, so a search over an error grid shares its concentration errors across
its points, as it shares the points across its budgets, and drops both on
return.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

from .asymptotics import profile
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


# Float slack on the bound of the EPR-count window in _gmcre.
_WINDOW_SLACK = 1e-12


def _ceil_log2(r: int) -> int:
    return (r - 1).bit_length()


def _gmcre(
    spec_n: LeveledSpectrum, N: int, entropy: float, conc_errors: dict[int, float]
) -> TradeoffResult:
    """Trade-off point at N.  ``conc_errors`` maps m to the concentration
    error of ``spec_n`` into 2^m; it is read and filled here."""
    sv, n = spec_n.base, spec_n.copies
    spec_N = spec_n if N == n else power_spectrum(sv, N)
    # max(1, ...) keeps rank-1 inputs searchable; their best m is 1 anyway.
    m_cap = max(1, N * _ceil_log2(sv.rank))
    errors: dict[int, tuple[float, float]] = {}

    def at(m: int) -> tuple[float, float]:
        if m not in errors:
            L = 1 << m
            if m not in conc_errors:
                conc_errors[m] = concentration_fidelity(spec_n, L).error
            errors[m] = (conc_errors[m], dilution_fidelity(spec_N, L).error)
        return errors[m]

    # conc never decreases in m and dil never increases, and both are >= 0,
    # so every m with delta(m) <= delta(m0) lies between the first m with
    # dil <= bound and the last m with conc <= bound.  In floats this stays
    # exact while no rounding moves conc down, or dil up, by the slack
    # between any two m.  Measured for qubits up to n = 3e4: the largest
    # such move is 9.6e-13 (conc, p = 0.25), and dil never rises.
    m0 = min(max(round(entropy * N), 1), m_cap)
    conc0, dil0 = at(m0)
    bound = conc0 + dil0 + _WINDOW_SLACK
    first, hi = 1, m0  # first m with dil <= bound
    while first < hi:
        mid = (first + hi) // 2
        if at(mid)[1] <= bound:
            hi = mid
        else:
            first = mid + 1
    lo, last = m0, m_cap  # last m with conc <= bound
    while lo < last:
        mid = (lo + last + 1) // 2
        if at(mid)[0] <= bound:
            lo = mid
        else:
            last = mid - 1
    best: Union[tuple[float, int, float, float], None] = None
    for m in range(first, last + 1):
        conc, dil = at(m)
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

    Minimizes over the EPR count m in [1, N * ceil(log2 rank)] without
    evaluating every m: from the anchor m0 = round(S * N) it bisects for the
    window of m whose dilution and concentration errors each stay within
    delta(m0) + 1e-12, and scans that window.  Every m that could attain the
    minimum lies inside it, so the result equals a scan of the full range.
    Ties go to the smallest m, so results are independent of evaluation order.
    """
    if N < 1 or N > n:
        raise InvalidRange(f"need 1 <= N <= n, got N={N}, n={n}")
    return _gmcre(power_spectrum(sv, n), N, profile(sv).entropy_S, {})


def mcre(sv: SchmidtVector, n: int) -> TradeoffResult:
    """Minimal concentration-recovery error with full recovery (N = n)."""
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    return _gmcre(power_spectrum(sv, n), n, profile(sv).entropy_S, {})


def recoverable_points(
    sv: SchmidtVector, n: int, eps_grid: Sequence[float]
) -> list[Union[TradeoffResult, None]]:
    """Trade-off point at the largest N in [0, n] within each budget, in grid order.

    ``None`` means only N = 0 qualifies: recovering nothing costs nothing.
    Each budget is a binary search, relying on the trade-off error being
    non-decreasing in N.  The n-copy spectrum, the points evaluated and
    their concentration errors are shared across the grid and dropped on
    return.

    Budgets below about 1e-12 sit in rounding noise: deltas that are 0 in
    exact arithmetic come out as noise that is not monotone in N.  There
    the result is the bisection's, and may lie below the largest N whose
    delta is within the budget.
    """
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    for eps in eps_grid:
        if not 0.0 < eps <= 1.0:
            raise InvalidEpsilon(f"need 0 < eps <= 1, got {eps}")
    spec_n = power_spectrum(sv, n)
    entropy = profile(sv).entropy_S
    points: dict[int, TradeoffResult] = {}
    conc_errors: dict[int, float] = {}
    found: list[Union[TradeoffResult, None]] = []
    for eps in eps_grid:
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if mid not in points:
                points[mid] = _gmcre(spec_n, mid, entropy, conc_errors)
            if points[mid].delta <= eps:
                lo = mid
            else:
                hi = mid - 1
        found.append(points[lo] if lo else None)
    return found


def max_recoverable(sv: SchmidtVector, n: int, eps: float) -> int:
    """Largest N in [0, n] whose trade-off error stays within ``eps``."""
    (point,) = recoverable_points(sv, n, [eps])
    return point.N if point else 0


def delta_curve(sv: SchmidtVector, n_values: Iterable[int]) -> list[tuple[int, float]]:
    """Full-recovery trade-off error for each copy count in ``n_values``, in order."""
    return [(n, mcre(sv, n).delta) for n in n_values]
