"""Concentration-recovery trade-off quantities, minimized over the EPR count.

The minimal concentration-recovery error for n source copies and N <= n
recovered copies is the minimum over the intermediate EPR count m of the
concentration error into m pairs plus the dilution error back out of them.
The dilution term vanishes once 2^m covers the full target spectrum, so m
is capped at N * ceil(log2 rank) pairs.

*The window.*  Within the cap the concentration term never decreases in m
and the dilution term never increases, and both are >= 0.  So every m with
delta(m) <= delta(m0), for the anchor m0 = round(S * N) (S the entropy in
bits), lies between the first m whose dilution error is within delta(m0)
plus a 1e-12 slack and the last m whose concentration error is.  The first
is bisected over [1, m0], the last galloped to from m0 (below).  No
concentration error below the window is read: at large n those sit at the
float floor and can fail their range check (p = 0.1, n = 6e4).

*The branch and bound.*  On any [a, b] inside the window every delta is at
least conc(a) + dil(b).  The search evaluates both ends of an interval,
drops it when that bound exceeds the best delta so far by more than the
slack on each term, and splits it at its middle otherwise.  Every m that
could attain the minimum survives, so the result equals a scan of every m
up to the cap; comparing (delta, m) sends ties to the smallest m.

*The gallop.*  One search, ``_last_passing``, finds the window's upper end
and the largest recoverable N for each budget of a grid: from a point that
passes it gallops out, doubling its step, until a probe fails, and then
bisects the bracket.  The n-copy spectrum is built as a head (see
``concrec.spectrum``): only its levels near and above the typical set, with
every column, exact up to its ``total_count``.  The upper end gallops up
from m0, so it reads concentration errors only to about twice the window's
width past m0, well within the head.  Budgets are searched in ascending
order, and delta is non-decreasing in N, so the previous budget's N passes
and is the lower end of the next bracket; its gallop starts at the
second-order estimate ``nmax_approx`` plus the previous estimate's offset.
The budgets that :func:`recoverable_points` sends to the cold bisection
over [1, n] instead skip the gallop: its probe sequence fixes the result
where deltas are noise.

The concentration term depends only on the n-copy spectrum and 2^m, not on
N, so a search over an error grid shares its concentration errors across
its points, as it shares the points across its budgets.  Both are
``functools.cache`` closures over the search, dropped on return.

Every error is read through one accessor, ``_errors``: a read at 2^m that
the spectrum does not answer grows it with ``extend_spectrum`` (see
``concrec.spectrum``), and the grown spectrum serves every later read.
Below N = n the N-copy spectrum is read only by the dilution term, which
reads its top 2^m entries.  So it is built as a partial spectrum down to
2^m0, and the window's upper end is found on concentration errors alone;
the first dilution read past it, at that end, continues it once.  Where a
read lies past the n-copy head, as where the head does not reach 2^m0, it
grows the head into the full spectrum, once for both errors at N = n, with
the same result.

The head and the partial N-copy spectra hold certified counts, not exact
ones (see ``concrec.spectrum``), and the search reads them only through
that module's certified reads, with concentration errors from the private
``conversion._concentration``, which leaves out the exact cut J.  So it
counts exactly only where a bound cannot decide a read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Sequence, Union

from .asymptotics import nmax_approx, profile
from .conversion import _concentration, dilution_fidelity
from .errors import InvalidEpsilon, InvalidRange
from .spectrum import _HEAD, LeveledSpectrum, SchmidtVector, extend_spectrum, power_spectrum


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

# Budgets up to this get the cold bisection over N in recoverable_points.
# Deltas carry a float floor that grows about linearly in n (3.04e-12 for
# p = 0.1 at n = 6e4), so this leaves a margin of over 300 there.
_NOISE_BUDGET = 1e-9


def _last_passing(passes: Callable[[int], bool], lo: int, hi: int, probe: int) -> int:
    """The largest x in [lo, hi) that ``passes``, or lo where none in
    (lo, hi) does, for a predicate that holds up to some x and fails past
    it; ``passes`` is called only inside (lo, hi).  It gallops from
    ``probe``, doubling its step, while the probe lies inside (lo, hi), and
    then bisects, probing upper midpoints."""
    step = 1
    while lo < probe < hi:
        if passes(probe):
            lo, probe = probe, probe + step
        else:
            hi, probe = probe, probe - step
        step *= 2
    return hi - 1 - bisect_left(range(hi - 1, lo, -1), True, key=passes)


def _errors(ls: LeveledSpectrum) -> tuple[Callable[[int], float], Callable[[int], float]]:
    """The concentration and dilution errors of ``ls`` at 2^m, as cached
    functions of m.  A read that ``ls`` does not answer grows it by
    ``extend_spectrum``, and the grown spectrum serves every later read of
    either error."""

    def grown(m: int) -> LeveledSpectrum:
        nonlocal ls
        ls = extend_spectrum(ls, 1 << m)
        return ls

    return (
        cache(lambda m: _concentration(grown(m), 1 << m)[0].error),
        cache(lambda m: dilution_fidelity(grown(m), 1 << m).error),
    )


def _gmcre(
    spec_n: LeveledSpectrum, N: int, entropy: float, errors_n: tuple[Callable[[int], float], ...]
) -> TradeoffResult:
    """Trade-off point at N; ``errors_n`` is ``_errors(spec_n)``."""
    sv, n = spec_n.base, spec_n.copies
    # max(1, ...) keeps rank-1 inputs searchable; their best m is 1 anyway.
    m_cap = max(1, N * (sv.rank - 1).bit_length())
    m0 = min(max(round(entropy * N), 1), m_cap)
    conc, dil = errors_n
    if N < n:
        dil = _errors(power_spectrum(sv, N, 1 << m0))[1]

    # The window and the branch and bound stay exact in floats while no
    # rounding moves conc down, or dil up, by the slack between any two m.
    # Measured for qubits up to n = 3e4: the largest such move is 9.6e-13
    # (conc, p = 0.25), and dil never rises.  The upper end gallops up from
    # m0, which passes, so conc is read only up to about twice the window's
    # width past m0, within the head.  The intervals wait on a stack: a
    # recursive closure would be a reference cycle, keeping the N-copy
    # spectrum alive until the cycle collector runs.
    bound = conc(m0) + dil(m0) + _WINDOW_SLACK
    last = _last_passing(lambda m: conc(m) <= bound, m0, m_cap + 1, m0 + 1)
    first = bisect_left(range(m0), True, lo=1, key=lambda m: dil(m) <= bound)

    def key(m: int) -> tuple[float, int]:
        return conc(m) + dil(m), m

    best = key(m0)
    stack = [(first, last)]
    while stack:
        a, b = stack.pop()
        best = min(best, key(a), key(b))
        if b - a > 1 and conc(a) + dil(b) <= best[0] + 2 * _WINDOW_SLACK:
            mid = (a + b) // 2
            stack += [(mid, b), (a, mid)]
    delta, m = best
    return TradeoffResult(
        delta=delta,
        optimal_m=m,
        concentration_error=conc(m),
        recovery_error=dil(m),
        n=n,
        N=N,
    )


def generalized_mcre(sv: SchmidtVector, n: int, N: int) -> TradeoffResult:
    """Minimal total error for concentrating n copies and recovering N of them.

    Minimizes over the EPR count m in [1, N * ceil(log2 rank)], by a branch
    and bound over a window of m (see the module docstring) whose result
    equals a scan of that full range.  Ties go to the smallest m, so results
    are independent of evaluation order.
    """
    if N < 1 or N > n:
        raise InvalidRange(f"need 1 <= N <= n, got N={N}, n={n}")
    spec_n = power_spectrum(sv, n, _HEAD)
    return _gmcre(spec_n, N, profile(sv).entropy_S, _errors(spec_n))


def mcre(sv: SchmidtVector, n: int) -> TradeoffResult:
    """Minimal concentration-recovery error with full recovery (N = n)."""
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    return generalized_mcre(sv, n, n)


def recoverable_points(
    sv: SchmidtVector, n: int, eps_grid: Sequence[float]
) -> list[Union[TradeoffResult, None]]:
    """Trade-off point at the largest N in [0, n] within each budget, in grid order.

    ``None`` means only N = 0 qualifies: recovering nothing costs nothing.
    The search relies on the trade-off error being non-decreasing in N, and
    brackets each budget from the one below it (see the module docstring).
    The n-copy spectrum, the points evaluated and their concentration
    errors are shared across the grid and dropped on return.

    Budgets below about 1e-12 sit in rounding noise: deltas that are 0 in
    exact arithmetic come out as noise that is not monotone in N.  Budgets
    up to 1e-9, a budget of 1 and states with zero entropy or variance get
    a cold bisection over [1, n], so at the noise level the result is the
    bisection's, and may lie below the largest N whose delta is within the
    budget.  The noise floor grows with n; the 1e-9 cutoff keeps a wide
    margin over it at every n checked, up to 6e4.
    """
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    for eps in eps_grid:
        if not 0.0 < eps <= 1.0:
            raise InvalidEpsilon(f"need 0 < eps <= 1, got {eps}")
    spec_n = power_spectrum(sv, n, _HEAD)
    prof = profile(sv)
    errors_n = _errors(spec_n)
    point = cache(lambda N: _gmcre(spec_n, N, prof.entropy_S, errors_n))
    found: dict[float, Union[TradeoffResult, None]] = {}
    N = offset = 0
    for eps in sorted(set(eps_grid)):
        def passes(N: int) -> bool:
            return point(N).delta <= eps

        warm = _NOISE_BUDGET < eps < 1.0 and prof.entropy_S > 0.0 and prof.variance_V > 0.0
        if warm:
            # Without the second-order guess the gallop builds more spectra
            # than the cold search (fig4 grid, p = 0.077, n = 3000: 175
            # against 107; 65 with it).
            approx = int(nmax_approx(sv, n, eps))
            N = _last_passing(passes, N, n + 1, min(max(approx + offset, N + 1), n))
            offset = N - approx
        else:
            N = _last_passing(passes, 0, n + 1, 0)
        found[eps] = point(N) if N else None
    return [found[eps] for eps in eps_grid]


def max_recoverable(sv: SchmidtVector, n: int, eps: float) -> int:
    """Largest N in [0, n] whose trade-off error stays within ``eps``."""
    (point,) = recoverable_points(sv, n, [eps])
    return point.N if point else 0


def delta_curve(sv: SchmidtVector, n_values: Iterable[int]) -> list[tuple[int, float]]:
    """Full-recovery trade-off error for each copy count in ``n_values``, in order."""
    return [(n, mcre(sv, n).delta) for n in n_values]
