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
plus a 1e-12 slack and the last m whose concentration error is.  Both ends
are galloped to from m0 (below): the first down, the last up.  For N
well below n the first lies at or next to m0, so it takes one or two
dilution reads; near N = n it lies up to about 80 below m0 (p = 0.077,
n = 3000).  No concentration error below the window is read: at large n
those sit at the float floor and can fail their range check (p = 0.1,
n = 6e4).

*The branch and bound.*  On any [a, b] inside the window every delta is at
least conc(a) + dil(b).  The search evaluates both ends of an interval,
drops it when that bound exceeds the best delta so far by more than the
slack on each term, and splits it at its middle otherwise.  Every m that
could attain the minimum survives, so the result equals a scan of every m
up to the cap; comparing (delta, m) sends ties to the smallest m.

*The gallop.*  One search, ``_last_passing``, finds both ends of the
window: from a point it gallops out, doubling its step, until a probe
crosses, and then bisects the bracket.  The n-copy spectrum is built as a
head (see ``concrec.spectrum``): only its levels near and above the typical
set, with every column, exact up to its ``total_count``.  The upper end
gallops up from m0, so it reads concentration errors only to about twice
the window's width past m0, well within the head.

*The N search.*  :func:`recoverable_points` searches its budgets in
ascending order, and delta is non-decreasing in N, so every N evaluated for
a lower budget bounds the next one's.  ``_last_within`` brackets each budget
between the largest N evaluated so far within it (at least the previous
budget's N) and the smallest evaluated N above that, and interpolates on
the deltas in hand: a safeguarded secant step with a bisection fallback,
after Dekker and Brent.  Its first probe is the second-order estimate
``nmax_approx`` plus the previous estimate's offset.  While no N past the
budget is known it gallops up, at least as far as a doubling step from that
probe and as far as the line through the two highest passing N reaches the
budget; then it probes where the line through the bracket's ends does, and
the midpoint after any probe that did not halve the bracket, so the worst
case stays logarithmic.  The budgets that :func:`recoverable_points` sends
to the cold bisection over [1, n] use ``_last_passing`` from 0 as before:
its probe sequence fixes the result where deltas are noise.

The concentration term depends only on the n-copy spectrum and 2^m, not on
N, so a search over an error grid shares its concentration errors across
its points, as it shares the points across its budgets.  The errors are
``functools.cache`` closures and the points a dict, held by the search and
dropped on return.

Every error is read through one accessor, ``_errors``: a read at 2^m that
the spectrum does not answer raises ``CountExceedsTotal``, the spectrum is
grown with ``extend_spectrum`` (see ``concrec.spectrum``) and read again,
and the grown spectrum serves every later read.  Below N = n the N-copy
spectrum is read only by the dilution term, which reads its top 2^m
entries.  So it is built once as a partial spectrum, down to 2^m for m
four Gaussian widths sqrt(V N) past m0 (see ``_gmcre``), and the window's
upper end is found on concentration errors alone.  The first dilution read
at that end is the largest m the point reads; where it lies past the
partial spectrum, the spectrum is rebuilt from level 0 down to it, once.
Where a read lies past the n-copy head, as where the head does not reach
2^m0, it grows the head into the full spectrum, once for both errors at
N = n.  Either way the result is the same.

The head and the partial N-copy spectra hold certified counts, not exact
ones (see ``concrec.spectrum``), and the search reads them only through
that module's certified reads: concentration errors from the private
``conversion._concentration``, which leaves out the exact cut J, and
dilution errors from ``conversion._dilution_mass``, which builds no result.
So it counts exactly only where a bound cannot decide a read.  Each point's
record reads its recovery error once more through the public
``dilution_fidelity``, so that a caller wrapping the public conversions
(as the benchmark's tracer does) still sees every point.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterable, Mapping, Sequence, Union

from .asymptotics import AsymptoticProfile, nmax_approx, profile
from .conversion import _concentration, _dilution_mass, dilution_fidelity
from .errors import CountExceedsTotal, InvalidEpsilon, InvalidRange
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

# The N-copy spectrum below N = n is built down to 2^m for m this many
# standard deviations sqrt(V N) past m0 (see _gmcre).
_REACH_SIGMAS = 4


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


def _last_within(
    delta: Callable[[int], float], known: Mapping[int, float], eps: float, top: int, probe: int
) -> int:
    """The largest N in [0, top) with ``delta(N) <= eps``, for delta
    non-decreasing in N from delta(0) = 0.  ``known`` maps each N evaluated
    so far, all above 0, to its delta.

    The bracket (lo, hi) is what ``known`` leaves: lo the largest known N
    within eps, or 0, and hi the smallest known N above lo, or top.
    ``delta`` is called only inside it, at no known N, and at most
    3 ceil(log2(hi - lo)) + 1 times.  The first probe is ``probe``, clamped
    into the bracket.  While hi is top, each probe lies at least as far as
    a gallop from the first, its step doubling from 1, would reach, and as
    far as the line through the two highest N within eps reaches eps, where
    neither is 0: delta is far from linear that far down.  So at most
    ceil(log2(hi - lo)) probes pass before one fails, and one more where
    none fails.  After that it probes where the line through delta(lo) and
    delta(hi) reaches eps, or the midpoint after a probe that left more
    than half the bracket (of width w, more than ceil(w / 2)).  A midpoint,
    like a probe that halves, takes at least 1 from ceil(log2(hi - lo)), so
    at most twice that many probes follow the first that fails.
    """
    within = sorted({0: 0.0, **{x: d for x, d in known.items() if d <= eps}}.items())
    (x1, d1), (lo, d_lo) = ([(0, 0.0)] + within)[-2:]
    hi = min([top] + [x for x in known if x > lo])
    d_hi, step = known.get(hi), 1
    gallop = min(max(probe, lo + 1), hi - 1)
    while hi - lo > 1:
        x = min(max(probe, lo + 1), hi - 1)
        d, width = delta(x), hi - lo
        if d <= eps:
            (x1, d1), lo, d_lo = (lo, d_lo), x, d
        else:
            hi, d_hi = x, d
        if hi == top:
            gallop, step = gallop + step, 2 * step
            probe = gallop
            if x1 and d_lo > d1:
                probe = max(probe, lo + int(min((eps - d_lo) / (d_lo - d1) * (lo - x1), top - lo)))
        elif 2 * (hi - lo) > width + 1:
            probe = (lo + hi) // 2
        else:
            probe = lo + int((eps - d_lo) / (d_hi - d_lo) * (hi - lo))
    return lo


def _errors(ls: LeveledSpectrum) -> tuple[Callable[[int], float], ...]:
    """The concentration and dilution errors of ``ls`` at 2^m, as cached
    functions of m, and the dilution error at an m already read, through
    the public ``dilution_fidelity``, for a point's record.  A read that
    ``ls`` does not answer raises ``CountExceedsTotal``; then ``ls`` is
    grown by ``extend_spectrum`` (a partial spectrum rebuilt from level 0
    down to the read, a head built in full), and the grown spectrum serves
    every later read of either error."""

    def read(error: Callable[[LeveledSpectrum, int], float]) -> Callable[[int], float]:
        def at(m: int) -> float:
            nonlocal ls
            try:
                return error(ls, 1 << m)
            except CountExceedsTotal:
                ls = extend_spectrum(ls, 1 << m)
                return error(ls, 1 << m)

        return cache(at)

    return (
        read(lambda spec, L: _concentration(spec, L)[0].error),
        read(lambda spec, L: 1.0 - _dilution_mass(spec, L)),
        lambda m: dilution_fidelity(ls, 1 << m).error,
    )


def _gmcre(
    spec_n: LeveledSpectrum,
    N: int,
    prof: AsymptoticProfile,
    errors_n: tuple[Callable[[int], float], ...],
) -> TradeoffResult:
    """Trade-off point at N; ``errors_n`` is ``_errors(spec_n)`` and ``prof``
    the state's profile.

    Below N = n the N-copy spectrum is built once, down to 2^reach entries,
    reach = m0 + floor(4 sqrt(V N)) + 1, capped at ``m_cap``.  A Gaussian
    width is enough since the window scales with it: to second order the
    dilution error at 2^m is 1 - G((m - S N) / sqrt(V N)), and the
    concentration error moves over widths sqrt(V n) near S n, so where the
    search probes, at N whose delta meets a budget away from 0 and 1, the
    window spans a few widths around m0.  Four widths hold its upper end at
    all but 15 of the 482 points of ten fig4 searches at n = 3000 (p from
    0.077 to 0.241), and at every point of three at n = 3e4.  The largest m
    a point reads is the branch and bound's first read, at the window's
    upper end; a read past the reach rebuilds the spectrum from level 0 down
    to it (see ``_errors``), so a point rebuilds at most once, and the
    result does not depend on the reach.
    """
    sv, n = spec_n.base, spec_n.copies
    # max(1, ...) keeps rank-1 inputs searchable; their best m is 1 anyway.
    m_cap = max(1, N * (sv.rank - 1).bit_length())
    m0 = min(max(round(prof.entropy_S * N), 1), m_cap)
    conc, dil, recovery = errors_n
    if N < n:
        reach = min(m0 + int(_REACH_SIGMAS * math.sqrt(prof.variance_V * N)) + 1, m_cap)
        _, dil, recovery = _errors(power_spectrum(sv, N, 1 << reach))

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
    first = _last_passing(lambda m: dil(m) > bound, 0, m0, m0 - 1) + 1

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
        recovery_error=recovery(m),
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
    n, N = operator.index(n), operator.index(N)
    if N < 1 or N > n:
        raise InvalidRange(f"need 1 <= N <= n, got N={N}, n={n}")
    spec_n = power_spectrum(sv, n, _HEAD)
    return _gmcre(spec_n, N, profile(sv), _errors(spec_n))


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
    brackets each budget from the points evaluated for the budgets below it
    (see the module docstring).
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
    n = operator.index(n)
    if n < 1:
        raise InvalidRange(f"need n >= 1, got {n}")
    for eps in eps_grid:
        if not 0.0 < eps <= 1.0:
            raise InvalidEpsilon(f"need 0 < eps <= 1, got {eps}")
    spec_n = power_spectrum(sv, n, _HEAD)
    prof = profile(sv)
    errors_n = _errors(spec_n)
    points: dict[int, TradeoffResult] = {}

    def delta(N: int) -> float:
        if N not in points:
            points[N] = _gmcre(spec_n, N, prof, errors_n)
        return points[N].delta

    found: dict[float, Union[TradeoffResult, None]] = {}
    N = offset = 0
    for eps in sorted(set(eps_grid)):
        warm = _NOISE_BUDGET < eps < 1.0 and prof.variance_V > 0.0
        if warm:
            # The second-order guess pays: on the fig4 grid at p = 0.077,
            # n = 3000, a gallop without it built 175 spectra, more than the
            # cold search's 107, and this search with it builds 51.
            approx = int(nmax_approx(sv, n, eps))
            known = {M: p.delta for M, p in points.items()}
            N = _last_within(delta, known, eps, n + 1, approx + offset)
            offset = N - approx
        else:
            N = _last_passing(lambda M: delta(M) <= eps, 0, n + 1, 0)
        found[eps] = points[N] if N else None
    return [found[eps] for eps in eps_grid]


def max_recoverable(sv: SchmidtVector, n: int, eps: float) -> int:
    """Largest N in [0, n] whose trade-off error stays within ``eps``."""
    (point,) = recoverable_points(sv, n, [eps])
    return point.N if point else 0


def delta_curve(sv: SchmidtVector, n_values: Iterable[int]) -> list[tuple[int, float]]:
    """Full-recovery trade-off error for each copy count in ``n_values``, in order."""
    return [(n, mcre(sv, n).delta) for n in n_values]
