"""Independent reference implementations used to cross-check the library.

Everything here works on dense eigenvalue arrays and plain quadrature, with
no reliance on the leveled-spectrum machinery, so agreement between the two
paths is meaningful.  The dense power spectrum and the dense flatten scan
themselves live in ``concrec.conversion``, where ``validate`` and the
brute-force oracle share them.  Two references are the exception.
``reference_power_spectrum`` is the per-level build of a leveled spectrum,
one Python tuple per type class, as the reference for the library's
columnar build.  ``full_scan_tradeoff`` runs the library's own per-m
conversions over every EPR count, as the reference for the windowed search
over m.  ``short_mantissa`` is no reference: it forces the exact counting
that the certified ladder counts fall back on.
"""

import bisect
import contextlib
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from concrec import TradeoffResult, power_spectrum, spectrum
from concrec.spectrum import NEG_INF, LeveledSpectrum, _distinct_groups, log2_int
from concrec.conversion import (
    concentration_fidelity,
    dense_flatten_index,
    dense_power_spectrum,
    dilution_fidelity,
)


def dense_concentration_fidelity(pvec: np.ndarray, L: int) -> float:
    J = dense_flatten_index(pvec, L)
    full = np.zeros(max(L + 1, pvec.size))
    full[: pvec.size] = pvec
    prefix = np.concatenate(([0.0], np.cumsum(full)))
    tail = max(float(prefix[-1]) - float(prefix[J]), 0.0)
    fidelity = float(np.sqrt(full[:J]).sum()) / math.sqrt(L) + math.sqrt(
        (1.0 - J / L) * tail
    )
    return min(fidelity, 1.0)


def dense_concentration_error(pvec: np.ndarray, L: int) -> float:
    return 1.0 - dense_concentration_fidelity(pvec, L) ** 2


def dense_dilution_error(pvec: np.ndarray, L: int) -> float:
    return 1.0 - float(pvec[:L].sum())


def exact_qubit_errors(probs, n: int, dims):
    """Concentration and dilution errors of the n-fold qubit power, exactly.

    Sums the n + 1 binomial levels p^(n-k) q^k (multiplicity C(n, k)) in
    60-digit decimal arithmetic, taking the float probabilities at their
    exact binary values, so it reaches the large n the dense oracles cannot.
    Within one level the tail-average condition tail(j) >= (L - j) * lambda
    does not depend on j, so the keep-then-flatten cut J is the start of the
    first level that meets it, or the end of the spectrum when none does.
    Returns one (concentration error, dilution error) pair of floats per
    target dimension L in ``dims``.
    """
    with localcontext() as ctx:
        ctx.prec = 60
        p, q = (Decimal(x) for x in probs)
        ratio, sqrt_ratio = q / p, (q / p).sqrt()
        starts, counts, values, roots = [], [], [], []
        start, count, value, root = 0, 1, p**n, (p**n).sqrt()
        for k in range(n + 1):
            starts.append(start)
            counts.append(count)
            values.append(value)
            roots.append(root)
            start += count
            count = count * (n - k) // (k + 1)
            value *= ratio
            root *= sqrt_ratio
        end = start
        # Exact conversions, done once: turning a big count into a Decimal
        # costs far more than the products that use it.
        exact_counts = [Decimal(c) for c in counts]
        prefix_mass, prefix_root = [Decimal(0)], [Decimal(0)]
        for c, v, r in zip(exact_counts, values, roots):
            prefix_mass.append(prefix_mass[-1] + c * v)
            prefix_root.append(prefix_root[-1] + c * r)
        suffix_mass = [Decimal(0)] * (n + 2)
        for k in range(n, -1, -1):
            suffix_mass[k] = suffix_mass[k + 1] + exact_counts[k] * values[k]

        results = []
        for L in dims:
            # Dilution: the top-L mass ends inside the last level starting below L.
            K = bisect.bisect_right(starts, L - 1) - 1
            kept = min(L - starts[K], counts[K])
            dil = 1 - (prefix_mass[K] + kept * values[K])
            # Concentration: keep the levels before the cut, flatten the rest.
            J, cut = end, n + 1
            for k in range(n + 1):
                if starts[k] >= L:
                    break
                if suffix_mass[k] >= (L - starts[k]) * values[k]:
                    J, cut = starts[k], k
                    break
            root_L = Decimal(L).sqrt()
            fidelity = prefix_root[cut] / root_L + (
                (L - J) * suffix_mass[cut] / L
            ).sqrt()
            results.append((float(1 - fidelity * fidelity), float(dil)))
    return results


def _reference_types(sizes, n: int):
    """(exponent vector e, multiplicity) of every type class of n copies, in
    descending lexicographic order of e, one exact ratio step per level."""
    g, rest = sizes[0], sizes[1:]
    if not rest:
        yield (n,), g**n
        return
    last = len(rest) == 1
    h = rest[0] if last else 1
    head = g**n
    for e in range(n, -1, -1):
        if last:
            yield (e, n - e), head
        else:
            for exps, mult in _reference_types(rest, n - e):
                yield (e, *exps), head * mult
        head = head * e * h // ((n - e + 1) * g)


def reference_power_spectrum(sv, n: int) -> LeveledSpectrum:
    """Leveled spectrum built one level at a time.

    Each eigenvalue is the fsum of its exponent-weighted log2 values, the
    levels are sorted as Python tuples by (-eigenvalue, exponent vector),
    and ``starts`` accumulates the multiplicities one by one.
    """
    values, sizes = _distinct_groups(sv)
    log2_values = [math.log2(v) for v in values]
    entries = sorted(
        (
            (math.fsum(e * lv for e, lv in zip(exps, log2_values)), exps, mult)
            for exps, mult in _reference_types(sizes, n)
        ),
        key=lambda item: (-item[0], item[1]),
    )
    log2_eigs = np.array([eig for eig, _, _ in entries], dtype=np.float64)
    log2_mults = np.array([log2_int(mult) for _, _, mult in entries], dtype=np.float64)
    starts = [0]
    for _, _, mult in entries:
        starts.append(starts[-1] + mult)
    assert starts[-1] == sv.rank**n
    level_log2_mass = log2_mults + log2_eigs
    suffix = np.empty(len(entries) + 1, dtype=np.float64)
    suffix[-1] = NEG_INF
    suffix[:-1] = np.logaddexp2.accumulate(level_log2_mass[::-1])[::-1]
    return LeveledSpectrum(
        base=sv,
        copies=n,
        starts=tuple(starts),
        log2_eigenvalues=log2_eigs,
        prefix_log2_mass=np.logaddexp2.accumulate(level_log2_mass),
        prefix_log2_sqrt_mass=np.logaddexp2.accumulate(log2_mults + 0.5 * log2_eigs),
        suffix_log2_mass=suffix,
    )


def dense_delta(probs, n: int, N: int, cache=None) -> float:
    """Trade-off error from densely enumerated spectra (small n only)."""
    if cache is None:
        cache = {}
    pn = cache.get(n)
    if pn is None:
        pn = cache[n] = dense_power_spectrum(probs, n)
    pN = cache.get(N)
    if pN is None:
        pN = cache[N] = dense_power_spectrum(probs, N)
    rank = len(probs)
    m_cap = max(1, N * (rank - 1).bit_length())
    best = None
    for m in range(1, m_cap + 1):
        L = 1 << m
        delta = dense_concentration_error(pn, L) + dense_dilution_error(pN, L)
        if best is None or delta < best:
            best = delta
    return best


def full_scan_tradeoff(sv, n: int, N: int, cache=None) -> TradeoffResult:
    """Trade-off point from every EPR count m in [1, N * ceil(log2 rank)].

    The same per-m arithmetic as ``generalized_mcre``, scanned in ascending
    m with a strict ``<``, so ties go to the smallest m.  ``cache`` maps a
    copy count to its spectrum of ``sv`` and is filled as needed.
    """
    if cache is None:
        cache = {}
    for copies in (n, N):
        if copies not in cache:
            cache[copies] = power_spectrum(sv, copies)
    spec_n, spec_N = cache[n], cache[N]
    best = None
    for m in range(1, max(1, N * (sv.rank - 1).bit_length()) + 1):
        conc = concentration_fidelity(spec_n, 1 << m).error
        dil = dilution_fidelity(spec_N, 1 << m).error
        if best is None or conc + dil < best[0]:
            best = (conc + dil, m, conc, dil)
    return TradeoffResult(*best, n=n, N=N)


def normal_cdf_simpson(x: float, panels: int = 16384) -> float:
    """Standard normal CDF by composite Simpson quadrature of the density."""
    if x == 0.0:
        return 0.5
    a = abs(x)
    ts = np.linspace(0.0, a, panels + 1)
    weights = np.ones(panels + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    integral = (a / panels) / 3.0 * float(weights @ np.exp(-0.5 * ts * ts))
    integral /= math.sqrt(2.0 * math.pi)
    return 0.5 + integral if x > 0 else 0.5 - integral


def sorted_simplex_grid(L: int, step: int):
    """(vectors, objectives, prefix sums) of the step-1/step sorted simplex.

    Only implemented for L in (2, 3); the grids are competitors for the
    concentration objective sum_i sqrt(q_i / L).
    """
    if L == 2:
        a = np.arange((step + 1) // 2, step + 1) / step
        grid = np.stack([a, 1.0 - a], axis=1)
    elif L == 3:
        q1, q2 = np.meshgrid(np.arange(step + 1), np.arange(step + 1), indexing="ij")
        q3 = step - q1 - q2
        mask = (q3 >= 0) & (q1 >= q2) & (q2 >= q3)
        grid = np.stack([q1[mask], q2[mask], q3[mask]], axis=1) / step
    else:
        raise ValueError("grid oracle only covers L = 2 or 3")
    objectives = np.sqrt(grid).sum(axis=1) / math.sqrt(L)
    return grid, objectives, np.cumsum(grid, axis=1)


def best_feasible_grid_value(prefix_p: np.ndarray, objectives, prefixes) -> float:
    """Best grid objective among vectors majorizing the given prefix sums."""
    feasible = np.all(prefixes >= prefix_p - 1e-12, axis=1)
    return float(objectives[feasible].max())


@contextlib.contextmanager
def short_mantissa(bits: int = 60):
    """Rank-2 ladders built inside run on a ``bits``-bit mantissa.  At 60
    bits their bounds leave the top 53 bits of most counts undecided, so
    those reads count exactly.  Yields the levels counted exactly, one entry
    per exact read."""
    counted = []
    real = spectrum._LadderStarts.exact

    def exact(self, i):
        counted.append(i)
        return real(self, i)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectrum, "_MANTISSA", bits)
        mp.setattr(spectrum._LadderStarts, "exact", exact)
        yield counted


def must_count(ls) -> bool:
    """Whether a 60-bit ladder that built ``ls`` certainly counted a level
    exactly: ``ls`` is incomplete, so a ladder built it, and it has a level
    k >= 32 of 2^61 entries or more, whose count's bound spans 4k >= 2^7
    units past the top 53 of its 60 bits."""
    k = ls.num_levels - 1
    return not ls.complete and k >= 32 and math.comb(ls.copies, k) >> 61 > 0
