import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import weakref
from bisect import bisect_left
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import pytest
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concrec import (
    concentration_fidelity,
    delta_curve,
    dilution_fidelity,
    extend_spectrum,
    generalized_mcre,
    log2_prefix_mass,
    log2_prefix_sqrt_mass,
    log2_tail_mass,
    make_schmidt,
    max_recoverable,
    mcre,
    power_spectrum,
    prefix_mass,
    recoverable_points,
    tradeoff,
)
from concrec.asymptotics import profile
from concrec.conversion import concentration_fidelity, dilution_fidelity
from concrec.errors import CountExceedsTotal, InvalidEpsilon, InvalidRange
from concrec import conversion, spectrum
from concrec.spectrum import _HEAD

from _oracles import dense_delta, exact_qubit_errors, full_scan_tradeoff, short_mantissa


class TestGeneralizedMcre:
    def test_two_to_one(self):
        sv = make_schmidt([0.9, 0.1])
        result = generalized_mcre(sv, 2, 1)
        # keep the 0.81 level, flatten the rest over one slot of L = 2
        expected = 0.5 - 2.0 * math.sqrt(0.405 * 0.095)
        assert result.delta == pytest.approx(expected, abs=1e-12)
        assert result.optimal_m == 1
        assert result.recovery_error == pytest.approx(0.0, abs=1e-12)
        assert result.concentration_error == pytest.approx(expected, abs=1e-12)

    def test_maximally_entangled_is_free(self):
        sv = make_schmidt([0.5, 0.5])
        for k in (1, 2, 3, 5):
            result = generalized_mcre(sv, k, k)
            assert result.delta == pytest.approx(0.0, abs=1e-12)
            assert result.optimal_m == k

    def test_single_copy(self):
        result = generalized_mcre(make_schmidt([0.9, 0.1]), 1, 1)
        assert result.delta == pytest.approx(0.2, abs=1e-12)
        assert result.optimal_m == 1

    def test_components_sum_to_delta(self):
        result = generalized_mcre(make_schmidt([0.6, 0.3, 0.1]), 5, 3)
        assert result.delta == pytest.approx(
            result.concentration_error + result.recovery_error, abs=1e-15
        )
        assert 0.0 <= result.delta <= 1.0
        assert 1 <= result.optimal_m <= 3 * 2

    def test_invalid_range(self):
        sv = make_schmidt([0.9, 0.1])
        with pytest.raises(InvalidRange):
            generalized_mcre(sv, 2, 3)
        with pytest.raises(InvalidRange):
            generalized_mcre(sv, 2, 0)

    def test_optimal_m_is_smallest_argmin(self):
        for probs, n, N in ([0.9, 0.1], 6, 4), ([0.5, 0.5], 4, 4), ([0.6, 0.3, 0.1], 4, 2):
            sv = make_schmidt(probs)
            result = generalized_mcre(sv, n, N)
            cap = max(1, N * (sv.rank - 1).bit_length())
            ls_n, ls_N = power_spectrum(sv, n), power_spectrum(sv, N)
            deltas = [
                concentration_fidelity(ls_n, 1 << m).error + dilution_fidelity(ls_N, 1 << m).error
                for m in range(1, cap + 1)
            ]
            best = min(deltas)
            assert result.delta == pytest.approx(best, abs=1e-15)
            assert result.optimal_m == 1 + deltas.index(best)

    def test_rank_one_state(self):
        result = generalized_mcre(make_schmidt([1.0]), 3, 2)
        assert result.optimal_m == 1
        assert result.delta == pytest.approx(0.5, abs=1e-12)

    def test_matches_dense_oracle(self):
        for probs in ([0.8, 0.2], [0.5, 0.3, 0.2]):
            sv = make_schmidt(probs)
            cache = {}
            for n in range(1, 9):
                for N in range(1, n + 1):
                    fast = generalized_mcre(sv, n, N).delta
                    assert fast == pytest.approx(
                        dense_delta(sv.probs, n, N, cache), abs=1e-11
                    )


class TestMcre:
    def test_single_copy(self):
        assert mcre(make_schmidt([0.9, 0.1]), 1).delta == pytest.approx(0.2, abs=1e-12)

    def test_uniform_zero(self):
        for n in (1, 3, 6):
            assert mcre(make_schmidt([0.5, 0.5]), n).delta == 0.0

    def test_equals_generalized_at_full_recovery(self):
        sv = make_schmidt([0.7, 0.3])
        for n in (1, 4, 9):
            assert mcre(sv, n) == generalized_mcre(sv, n, n)

    def test_growth_toward_one(self):
        sv = make_schmidt([0.9, 0.1])
        d16 = mcre(sv, 16).delta
        d1024 = mcre(sv, 1024).delta
        assert 0.2 < d16 < d1024 < 1.0

    def test_requires_positive_n(self):
        with pytest.raises(InvalidRange):
            mcre(make_schmidt([0.9, 0.1]), 0)


class TestMaxRecoverable:
    def test_examples(self):
        sv = make_schmidt([0.9, 0.1])
        assert max_recoverable(sv, 1, 0.2) == 1
        assert max_recoverable(sv, 1, 0.1) == 0
        for n in (1, 5, 12):
            assert max_recoverable(sv, n, 1.0) == n

    def test_invalid_epsilon(self):
        sv = make_schmidt([0.9, 0.1])
        with pytest.raises(InvalidEpsilon):
            max_recoverable(sv, 4, 0.0)
        with pytest.raises(InvalidEpsilon):
            max_recoverable(sv, 4, 1.5)

    def test_binary_search_matches_full_scan(self):
        sv = make_schmidt([0.9, 0.1])
        n = 40
        deltas = {N: generalized_mcre(sv, n, N).delta for N in range(1, n + 1)}
        for eps in (0.05, 0.11, 0.2, 0.37, 0.5, 0.8, 1.0):
            expected = max((N for N, d in deltas.items() if d <= eps), default=0)
            assert max_recoverable(sv, n, eps) == expected

    def test_inverse_relation(self):
        sv = make_schmidt([0.85, 0.15])
        n = 24
        for N in range(1, n + 1):
            eps_N = generalized_mcre(sv, n, N).delta
            if eps_N > 0.0:
                assert max_recoverable(sv, n, eps_N) >= N


class TestRecoverablePoints:
    def test_examples(self):
        sv = make_schmidt([0.9, 0.1])
        assert recoverable_points(sv, 1, [0.2, 0.1, 1.0]) == [mcre(sv, 1), None, mcre(sv, 1)]
        middle, last = recoverable_points(sv, 12, [0.3, 1.0])
        assert middle == generalized_mcre(sv, 12, max_recoverable(sv, 12, 0.3))
        assert last == mcre(sv, 12)
        assert recoverable_points(sv, 12, []) == []

    def test_invalid_arguments(self):
        sv = make_schmidt([0.9, 0.1])
        with pytest.raises(InvalidRange):
            recoverable_points(sv, 0, [0.5])
        with pytest.raises(InvalidEpsilon):
            recoverable_points(sv, 4, [0.5, 0.0])

    def test_noise_level_budget_gives_the_bisection_result(self):
        # README: below about 1e-12 the result is the bisection's.  Here
        # every delta below N = 6 is rounding noise, and the bisection probes
        # N = 3 and then N = 1, both above the budget, so it never reaches the
        # N = 5 that a full scan finds.
        sv = make_schmidt([1 / 3, 1 / 3, 1 / 3])
        eps = generalized_mcre(sv, 6, 5).delta
        assert 0.0 < eps < 1e-14
        scan = [N for N in range(1, 7) if generalized_mcre(sv, 6, N).delta <= eps]
        assert scan == [5]
        assert max_recoverable(sv, 6, eps) == 0
        assert recoverable_points(sv, 6, [eps]) == [None]

    def test_no_spectrum_outlives_a_call(self, monkeypatch):
        # Every spectrum built or extended is freed on return by reference
        # counting alone: no reference cycle holds one until the cycle
        # collector runs, so the test runs with the collector off.
        built, heads = [], []

        def recording(real):
            def build(*args):
                spectrum = real(*args)
                built.append(weakref.ref(spectrum))
                heads.append(spectrum.suffix_log2_mass is not None and not spectrum.complete)
                return spectrum

            return build

        for name in ("power_spectrum", "extend_spectrum"):
            monkeypatch.setattr(tradeoff, name, recording(getattr(tradeoff, name)))
        sv = make_schmidt([0.83, 0.17])  # a state no other test builds
        gc.disable()
        try:
            mcre(sv, 12)
            generalized_mcre(sv, 12, 7)
            max_recoverable(sv, 12, 0.3)
            recoverable_points(sv, 12, [0.5, 0.2, 0.5, 1e-13])
            mcre(sv, 400)
            recoverable_points(sv, 400, [0.5, 0.2])
            monkeypatch.setattr(spectrum, "_MANTISSA", 60)  # exact counts
            mcre(sv, 401)
            alive = [ref for ref in built if ref() is not None]
        finally:
            gc.enable()
        assert built
        assert any(heads)
        assert alive == []


def _hexed(point):
    """A trade-off point's fields, each float as ``float.hex``."""
    return point and tuple(x.hex() if isinstance(x, float) else x for x in dataclasses.astuple(point))


def test_numpy_integers_read_as_ints_and_floats_are_refused():
    # Copy counts, entry counts and dimensions pass through operator.index,
    # so a numpy integer gives the plain int's result bit for bit, and a
    # float is refused with TypeError.
    sv, i64 = make_schmidt([0.1, 0.9]), np.int64
    full = power_spectrum(sv, 300)
    part = power_spectrum(sv, 300, 1 << 60)

    def same(a, b):
        for column in ("starts", "log2_eigenvalues", "prefix_log2_mass"):
            assert tuple(getattr(a, column)) == tuple(getattr(b, column)), column
        assert (a.copies, a.complete) == (b.copies, b.complete)

    same(power_spectrum(sv, i64(300)), full)
    same(power_spectrum(sv, i64(300), i64(1 << 60)), part)
    same(extend_spectrum(part, i64(1 << 62)), extend_spectrum(part, 1 << 62))
    for read in (prefix_mass, log2_prefix_mass, log2_prefix_sqrt_mass, log2_tail_mass):
        for c in (0, 4, 1 << 40, (1 << 62) + 5):
            assert read(full, i64(c)).hex() == read(full, c).hex(), (read, c)
    for L in (1, 3, 1 << 40):
        for convert in (concentration_fidelity, dilution_fidelity):
            assert _hexed(convert(full, i64(L))) == _hexed(convert(full, L)), (convert, L)
    assert _hexed(mcre(sv, i64(300))) == _hexed(mcre(sv, 300))
    assert _hexed(generalized_mcre(sv, i64(300), i64(200))) == _hexed(generalized_mcre(sv, 300, 200))
    grid = [0.1, 0.5]
    assert [_hexed(r) for r in recoverable_points(sv, i64(300), grid)] == [
        _hexed(r) for r in recoverable_points(sv, 300, grid)
    ]
    for call in (
        lambda: power_spectrum(sv, 300.0),
        lambda: power_spectrum(sv, 300, 4.0),
        lambda: extend_spectrum(part, 4.0),
        lambda: prefix_mass(full, 4.0),
        lambda: log2_tail_mass(full, 4.0),
        lambda: concentration_fidelity(full, 4.0),
        lambda: dilution_fidelity(full, 4.0),
        lambda: mcre(sv, 300.0),
        lambda: generalized_mcre(sv, 300, 200.0),
        lambda: recoverable_points(sv, 300.0, grid),
    ):
        with pytest.raises(TypeError):
            call()


@pytest.mark.parametrize("n", [400, 3000])
@pytest.mark.parametrize("p", [0.077, 0.1, 0.235, 0.5 - 1e-14])
def test_results_do_not_depend_on_the_reach(monkeypatch, p, n):
    # Below N = n a point builds its N-copy spectrum down to a Gaussian reach
    # past m0, and a read past it rebuilds the spectrum from level 0.  With
    # no width the reach is m0 + 1, so almost every point rebuilds; past
    # m_cap every point reads a spectrum down to 2^m_cap, which for a qubit
    # is the full build.  Every result is equal bit for bit either way.
    sv = make_schmidt([p, 1.0 - p])
    budgets = [0.05 * i for i in range(1, 20)] + [1e-13, 5e-13, 1e-15, 2e-12, 1e-10]
    builds = []
    real = spectrum._leading_levels

    def counted(sv, copies, count):
        builds[-1][copies] += 1
        return real(sv, copies, count)

    def results():
        points = []
        for N in (1, n // 3, n - 1, n):
            builds.append(Counter())
            points.append(generalized_mcre(sv, n, N))
        builds.append(Counter())
        points += recoverable_points(sv, n, budgets)
        return [_hexed(point) for point in points]

    monkeypatch.setattr(spectrum, "_leading_levels", counted)
    expected = results()
    # A point below n builds its ladder once and rebuilds it at most once.
    assert max(c for call in builds for copies, c in call.items() if copies < n) <= 2
    for sigmas in (0, 1e300):
        monkeypatch.setattr(tradeoff, "_REACH_SIGMAS", sigmas)
        assert results() == expected


def test_recovery_spectra_are_built_partially(monkeypatch):
    real = tradeoff.power_spectrum
    built = []

    def recording(sv, copies, *count):
        spectrum = real(sv, copies, *count)
        built.append(spectrum)
        return spectrum

    monkeypatch.setattr(tradeoff, "power_spectrum", recording)
    recoverable_points(make_schmidt([0.1, 0.9]), 600, [0.1, 0.3])
    below_n = [ls for ls in built if ls.copies < 600]
    assert below_n
    assert not any(ls.complete for ls in below_n)
    assert all(ls.num_levels < ls.copies // 4 for ls in below_n)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(
    st.floats(0.02, 0.45),
    st.integers(200, 1500),
    st.floats(0.0, 1.0),
    st.lists(st.floats(0.01, 0.99), min_size=1, max_size=3),
)
@example(0.1, 1500, 0.9, [0.1, 0.5])
def test_head_and_full_spectrum_give_equal_results(p, n, share, grid):
    sv = make_schmidt([p, 1.0 - p])
    N = max(1, round(share * n))

    def results():
        return mcre(sv, n), generalized_mcre(sv, n, N), recoverable_points(sv, n, grid)

    on_head = results()
    real = tradeoff.power_spectrum

    def full(sv, copies, *count):  # the full spectrum where a head is asked for
        return real(sv, copies, *(c for c in count if c is not _HEAD))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tradeoff, "power_spectrum", full)
        assert results() == on_head


@pytest.mark.parametrize("p", [0.1, 0.25])
def test_thinned_heads_give_equal_results(p):
    # On a 60-bit mantissa the certified counts leave most reads undecided,
    # so the search reads many counts exactly.
    sv, n, grid = make_schmidt([p, 1.0 - p]), 2000, [0.1, 0.5, 0.9]

    def results():
        return mcre(sv, n), generalized_mcre(sv, n, 1500), recoverable_points(sv, n, grid)

    plain = results()
    with short_mantissa() as counted:
        assert results() == plain
    assert counted


@pytest.mark.parametrize(
    "p, n, expected",
    [
        (0.05, 30000, "TradeoffResult(delta=0.9705384644062791, optimal_m=8577, "
         "concentration_error=0.4563034227300933, recovery_error=0.5142350416761858, n=30000, N=30000)"),
        (0.25, 30000, "TradeoffResult(delta=0.9625355346954055, optimal_m=24325, "
         "concentration_error=0.44419293349744304, recovery_error=0.5183426011979625, n=30000, N=30000)"),
        (0.1, 3000, "823bb06cc946b39a2e2f69ff227d9741fcf8725babb0f9c43ee75d1c34ccfca9"),
    ],
)
def test_the_search_counts_no_start_exactly(monkeypatch, p, n, expected):
    # The certified counts decide every read of these searches: with exact
    # counting made to raise, they return the results that the exact
    # big-integer ladder gave.  At n = 3000 the search is fig4's, over its
    # grid, pinned by SHA-256.  Nor do they build a full spectrum: the
    # window's upper end gallops up from m0, reading concentration errors
    # past the window, yet never past the n-copy head.
    def refused(self, i):
        raise AssertionError(f"level {i} counted exactly")

    def full(sv, copies):
        raise AssertionError(f"full build at n = {copies}")

    monkeypatch.setattr(spectrum._LadderStarts, "exact", refused)
    monkeypatch.setattr(spectrum, "_full_spectrum", full)
    sv = make_schmidt([p, 1.0 - p])
    if n == 3000:
        points = recoverable_points(sv, n, [0.05 * i for i in range(1, 20)])
        assert hashlib.sha256(repr(points).encode()).hexdigest() == expected
    else:
        assert repr(mcre(sv, n)) == expected


@pytest.mark.parametrize("levels", [300, 315])
def test_full_build_fallback_gives_equal_results(monkeypatch, levels):
    # The head for p = 0.1 at n = 3000 has 461 levels (2^1850 entries) and
    # reaches past every window; no input found reads past a head.  A cut to
    # fewer levels is still exact where it answers.  Cut to 300 (2^1399
    # entries), it does not reach 2^m0 (m0 = 1407, in level 302), so the
    # first read, conc(m0), lies past it.  Cut to 315 (2^1446 entries), it
    # reaches 2^m0, but not the window's upper end (m = 1484 for mcre), so
    # the gallop up from m0 reads past it.  Either way the first read past
    # the head grows it into the full build.
    sv, n, grid = make_schmidt([0.1, 0.9]), 3000, [0.1, 0.5, 0.9]
    expected = mcre(sv, n), generalized_mcre(sv, n, 2000), recoverable_points(sv, n, grid)
    real, real_full = tradeoff.power_spectrum, spectrum._full_spectrum
    full = []

    def full_build(sv, copies):
        full.append(copies == n)
        return real_full(sv, copies)

    def short_heads(sv, copies, *count):
        ls = real(sv, copies, *count)
        if count and count[0] is _HEAD:
            assert not ls.complete and ls.num_levels > levels
            ls = dataclasses.replace(
                ls,
                starts=ls.starts[: levels + 1],
                log2_eigenvalues=ls.log2_eigenvalues[:levels],
                prefix_log2_mass=ls.prefix_log2_mass[:levels],
                prefix_log2_sqrt_mass=ls.prefix_log2_sqrt_mass[:levels],
                suffix_log2_mass=ls.suffix_log2_mass[: levels + 1],
            )
        return ls

    monkeypatch.setattr(tradeoff, "power_spectrum", short_heads)
    monkeypatch.setattr(spectrum, "_full_spectrum", full_build)
    assert mcre(sv, n) == expected[0]
    assert any(full)
    full.clear()
    assert recoverable_points(sv, n, grid) == expected[2]
    assert any(full)
    assert generalized_mcre(sv, n, 2000) == expected[1]


@st.composite
def last_passing_cases(draw):
    """A range [lo, hi), a threshold in [lo - 1, hi] up to which the
    predicate holds, and a probe inside (lo, hi) or outside it."""
    lo = draw(st.integers(-3, 40))
    hi = draw(st.integers(lo + 1, lo + 70))
    inside = st.integers(lo + 1, hi - 1) if hi - lo > 1 else st.nothing()
    probe = draw(inside | st.integers(lo - 3, lo) | st.integers(hi, hi + 3))
    return lo, hi, draw(st.integers(lo - 1, hi)), probe


@settings(max_examples=300, deadline=None, derandomize=True)
@given(last_passing_cases())
@example((5, 6, 4, 6))  # lo + 1 == hi: nothing to probe
@example((5, 6, 6, 5))
@example((0, 3001, 1484, 0))  # the cold bisection
@example((1407, 3001, 1484, 1408))  # the window's upper end for mcre, p = 0.1, n = 3000
@example((0, 1407, 1323, 1406))  # its lower end, galloping down from m0
def test_last_passing_equals_a_linear_scan(case):
    lo, hi, threshold, probe = case
    called = []

    def passes(x):
        called.append(x)
        return x <= threshold

    expected = max([x for x in range(lo + 1, hi) if passes(x)], default=lo)
    called.clear()
    assert tradeoff._last_passing(passes, lo, hi, probe) == expected
    assert all(lo < x < hi for x in called), called


@st.composite
def delta_tables(draw):
    """A non-decreasing delta table over N = 1..n, with plateaus, equal
    steps and jumps; budgets at its values, between them and beside them,
    out of order and repeated; and the second-order guesses that the N
    search starts from, inside [1, n] or outside it."""
    n = draw(st.integers(1, 120))
    step = st.sampled_from([0.0, 0.0, 0.004, 0.004, 0.05, 0.4])
    steps = draw(st.lists(step, min_size=n, max_size=n))
    base = draw(st.sampled_from([1e-6, 0.002, 0.3]))
    table = [base + s for s in itertools.accumulate(steps)]
    values = sorted(set(table))
    ends = [base / 2, values[-1] + 0.01, 1.0]
    between = [(a + b) / 2 for a, b in zip(values, values[1:])]
    budgets = [eps for eps in values + between + ends if 0.0 < eps <= 1.0]
    indices = draw(st.lists(st.integers(0, 200), min_size=1, max_size=8))
    picks = [budgets[i % len(budgets)] for i in indices]
    guesses = draw(st.lists(st.floats(-20.0, n + 20.0), min_size=1, max_size=4))
    return table, picks + picks[::-2], guesses


@settings(max_examples=200, deadline=None, derandomize=True)
@given(delta_tables())
@example(([0.001] * 98 + [0.9] * 2, [0.01], [1.0]))  # one step, far above the gallop's last pass
@example(([0.001] * 5, [0.5, 0.2], [3.0]))  # every N passes
@example(([0.5] * 5, [0.1, 0.2], [3.0]))  # none does
@example(([0.1, 0.2, 0.3, 0.4], [0.25, 0.26, 0.3, 0.25], [2.0]))  # lo + 1 == hi after 0.25
def test_n_search_equals_a_linear_scan(case):
    # recoverable_points over a fake trade-off point that reads delta from
    # a table.  Each warm budget's search calls delta only inside the
    # bracket (lo, hi) that the points evaluated so far leave, at no N
    # evaluated before, and at most 3 ceil(log2(hi - lo)) + 1 times.
    table, grid, guesses = case
    n, evaluated, guess = len(table), [], itertools.cycle(guesses)
    real = tradeoff._last_within

    def point(spec_n, N, entropy, errors_n):
        evaluated.append(N)
        return tradeoff.TradeoffResult(table[N - 1], 1, 0.0, table[N - 1], n, N)

    def search(delta, known, eps, top, probe):
        lo = max([0] + [N for N, d in known.items() if d <= eps])
        hi = min([top] + [N for N in known if N > lo])
        calls = []

        def recorded(N):
            assert lo < N < hi and N not in known and N not in calls, (lo, N, hi)
            calls.append(N)
            return delta(N)

        found = real(recorded, known, eps, top, probe)
        assert found == lo or found in calls
        assert len(calls) <= (3 * (hi - lo - 1).bit_length() + 1 if hi - lo > 1 else 0), calls
        return found

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tradeoff, "_gmcre", point)
        mp.setattr(tradeoff, "nmax_approx", lambda sv, n, eps: next(guess))
        mp.setattr(tradeoff, "_last_within", search)
        points = recoverable_points(make_schmidt([0.1, 0.9]), n, grid)
    for eps, found in zip(grid, points):
        scan = max((N for N in range(1, n + 1) if table[N - 1] <= eps), default=0)
        assert (found.N if found else 0) == scan
    assert len(evaluated) == len(set(evaluated))


@st.composite
def search_cases(draw):
    """A rank 1-3 state whose entries may tie, a copy count n <= 30, and an
    error grid given as indices into the budgets the test derives."""
    weights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    sv = make_schmidt([w / sum(weights) for w in weights])
    picks = draw(st.lists(st.integers(0, 60), min_size=2, max_size=8))
    return sv, draw(st.integers(1, 30)), picks + picks[::-2]  # repeats, out of order


@settings(max_examples=60, deadline=None, derandomize=True)
@given(search_cases())
@example((make_schmidt([0.5, 0.5]), 12, [2, 0, 1, 2]))  # every delta is 0
def test_grid_search_matches_pointwise_and_full_scan(case):
    sv, n, picks = case
    scan = {N: generalized_mcre(sv, n, N) for N in range(1, n + 1)}
    # Budgets at every positive delta hit the search's <= boundary exactly.
    budgets = sorted({p.delta for p in scan.values() if p.delta > 0.0} | {0.01, 0.3, 1.0})
    grid = [budgets[i % len(budgets)] for i in picks]
    points = recoverable_points(sv, n, grid)
    found = [p.N if p else 0 for p in points]
    assert found == [max_recoverable(sv, n, eps) for eps in grid]
    for eps, point, N in zip(grid, points, found):
        assert point == (scan[N] if N else None)
        # The bisection's bracket holds for any delta sequence.
        assert N == 0 or scan[N].delta <= eps
        assert N == n or scan[N + 1].delta > eps
        # Deltas that are 0 in exact arithmetic come out as rounding noise
        # below 1e-12, which need not be monotone in N; above that slack the
        # search must equal a full scan.
        if eps > 1e-12:
            assert N == max((M for M, p in scan.items() if p.delta <= eps), default=0)


@pytest.mark.parametrize("seed", [1, 2, 14])
def test_grid_search_brackets_each_budget_at_large_n(seed):
    rng = random.Random(seed)
    p = rng.uniform(0.05, 0.25)
    sv, n = make_schmidt([p, 1.0 - p]), 3000
    delta = functools.cache(lambda N: generalized_mcre(sv, n, N).delta)  # one search per N
    grid = [0.05 * i for i in range(1, 20)]
    # The fig4 grid alone, then with noise-level budgets beside ordinary
    # ones, out of order and repeated.
    mixed = [0.3, 1e-13, 0.05, 5e-13, 1.0, 1e-15, 0.3, 2e-12, 1e-10, 0.9]
    for budgets in (grid, mixed):
        for eps, point in zip(budgets, recoverable_points(sv, n, budgets)):
            N = point.N if point else 0
            if eps <= tradeoff._NOISE_BUDGET:
                # README: at the noise level the result is the bisection's.
                key = lambda M: delta(M) <= eps
                assert N == n - bisect_left(range(n, 0, -1), True, key=key)
            else:
                assert N == 0 or delta(N) <= eps
                assert N == n or delta(N + 1) > eps


@pytest.mark.parametrize("probs, n", [([0.1, 0.9], 400), ([0.3, 0.7], 150), ([0.5, 0.3, 0.2], 40)])
def test_dilution_error_reads_equal_dilution_fidelity(monkeypatch, probs, n):
    # The search reads each dilution error as 1 - conversion._dilution_mass,
    # bit for bit dilution_fidelity's error, on heads, partial, rebuilt and
    # full spectra.  Past an incomplete spectrum's total both raise
    # CountExceedsTotal, and the search's read then grows it exactly once:
    # a partial spectrum is rebuilt from level 0, a head built in full.
    sv = make_schmidt(probs)
    full = power_spectrum(sv, n)
    partial = power_spectrum(sv, n, 1 << (n // 4))
    rebuilt = extend_spectrum(partial, partial.total_count + 1)
    spectra = [full, power_spectrum(sv, n, _HEAD), partial, rebuilt]
    assert all(ls.complete for ls in spectra) == (sv.rank > 2)
    grown = []
    real = tradeoff.extend_spectrum

    def extend(ls, count):
        grown.append(count)
        return real(ls, count)

    monkeypatch.setattr(tradeoff, "extend_spectrum", extend)
    for ls in spectra:
        total, k = ls.total_count, ls.num_levels
        # At level starts, one past them, and at the total.
        counts = {ls.starts[j] + one for j in (1, k // 2, k - 1) for one in (0, 1)} | {total}
        for L in sorted(counts):
            error = (1.0 - conversion._dilution_mass(ls, L)).hex()
            assert error == dilution_fidelity(ls, L).error.hex()
            assert error == dilution_fidelity(full, L).error.hex()
        past = total + 1
        if ls.complete:
            error = (1.0 - conversion._dilution_mass(ls, past)).hex()
            assert error == dilution_fidelity(ls, past).error.hex()
        else:
            for read in (conversion._dilution_mass, dilution_fidelity):
                with pytest.raises(CountExceedsTotal):
                    read(ls, past)
        m = past.bit_length()  # 2^m > total
        grown.clear()
        _, dil, recovery = tradeoff._errors(ls)
        assert dil(m).hex() == recovery(m).hex() == dilution_fidelity(full, 1 << m).error.hex()
        assert dil(m - 1) == dilution_fidelity(full, 1 << (m - 1)).error
        assert grown == ([] if ls.complete else [1 << m])


@pytest.mark.parametrize("N", [600, 250])
def test_no_concentration_error_is_read_below_the_window(monkeypatch, N):
    # For p = 0.1 at n = 6e4 the concentration error at every m from 1 to
    # 399 sits at the float floor and fails its range check, while the
    # optimum is m = 28,107.  Here it raises below the window's first m, the
    # first with a dilution error within delta(m0) + slack, as that floor
    # would, and the search must still find the same point.
    sv, n = make_schmidt([0.1, 0.9]), 600
    expected = generalized_mcre(sv, n, N)
    spec_n, spec_N = power_spectrum(sv, n), power_spectrum(sv, N)
    m0 = round(profile(sv).entropy_S * N)
    bound = (
        concentration_fidelity(spec_n, 1 << m0).error
        + dilution_fidelity(spec_N, 1 << m0).error
        + tradeoff._WINDOW_SLACK
    )
    first = next(m for m in range(1, m0 + 1) if dilution_fidelity(spec_N, 1 << m).error <= bound)
    assert first > 1
    real = tradeoff._concentration

    def guarded(ls, L):
        if L < 1 << first:
            raise ArithmeticError(f"concentration read below the window: L = {L}")
        return real(ls, L)

    monkeypatch.setattr(tradeoff, "_concentration", guarded)
    assert generalized_mcre(sv, n, N) == expected


@st.composite
def tied_states(draw, max_distinct=3, max_n=60):
    """A rank 1-4 state with at most ``max_distinct`` distinct entries, and a
    copy count n <= ``max_n``.  With three, every rank-4 state has a tie."""
    rank = draw(st.integers(1, 4))
    weights = draw(
        st.lists(st.integers(1, 4), min_size=rank, max_size=rank).filter(
            lambda w: len(set(w)) <= max_distinct
        )
    )
    return make_schmidt([w / sum(weights) for w in weights]), draw(st.integers(1, max_n))


def _largest_drop(values):
    """Largest values[i] - values[j] over i < j; 0 for a non-decreasing list."""
    drop, peak = 0.0, -math.inf
    for v in values:
        drop, peak = max(drop, peak - v), max(peak, v)
    return drop


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tied_states())
@example((make_schmidt([0.5, 0.5]), 60))  # every delta is 0
@example((make_schmidt([0.4, 0.2, 0.2, 0.2]), 60))
@example((make_schmidt([0.5, 0.3, 0.2]), 60))
def test_window_equals_full_scan(case):
    sv, n = case
    cache = {}
    for N in range(1, n + 1):
        assert generalized_mcre(sv, n, N) == full_scan_tradeoff(sv, n, N, cache)


def test_window_equals_full_scan_for_qubits_at_large_n():
    rng = random.Random(3000)
    n = 3000
    for _ in range(3):
        p = rng.uniform(0.05, 0.25)
        sv, cache = make_schmidt([p, 1.0 - p]), {}
        for N in sorted({1, n, *rng.sample(range(2, n), 6)}):
            assert generalized_mcre(sv, n, N) == full_scan_tradeoff(sv, n, N, cache)


def test_window_converts_each_m_once(monkeypatch):
    targets = []
    real = tradeoff._concentration

    def recording(ls, L):
        targets.append(L)
        return real(ls, L)

    monkeypatch.setattr(tradeoff, "_concentration", recording)
    mcre(make_schmidt([0.1, 0.9]), 3000)
    assert len(targets) == len(set(targets))
    assert len(targets) < 3000 // 10


def test_grid_search_converts_each_concentration_dimension_once(monkeypatch):
    targets = []
    calls = Counter()

    def recording(name):
        real = getattr(tradeoff, name)

        def call(ls, *args):
            calls[name] += 1
            if name == "_concentration":
                targets.append(args[0])
            return real(ls, *args)

        return call

    # The search reads dilution errors through _dilution_mass, and each
    # point's record through dilution_fidelity.
    for name in ("power_spectrum", "_concentration", "_dilution_mass", "dilution_fidelity"):
        monkeypatch.setattr(tradeoff, name, recording(name))
    grown = []
    real_extend = tradeoff.extend_spectrum

    def extend(ls, count):
        longer = real_extend(ls, count)
        if longer is not ls:
            grown.append(count)
        return longer

    monkeypatch.setattr(tradeoff, "extend_spectrum", extend)
    grid = [0.05 * i for i in range(1, 20)]
    recoverable_points(make_schmidt([0.1, 0.9]), 3000, grid)
    assert targets
    assert len(targets) == len(set(targets))
    # The N search probes few copy counts and the branch and bound few EPR
    # counts per point: 57 builds and 2,462 + 57 dilution reads here, under
    # these bounds, against 107 and 14,231 for a cold bisection over a
    # scanned window.  Each N-copy spectrum is built to a Gaussian reach
    # past m0, so only 2 of the 57 points read past it and rebuild.
    assert calls["power_spectrum"] <= 62
    assert calls["_dilution_mass"] + calls["dilution_fidelity"] <= 2800
    assert len(grown) <= 5


def _assert_monotone_within_slack(sv, n):
    # The window is exact only while rounding never moves conc down, or dil
    # up, by the slack across any pair of m.
    spectrum = power_spectrum(sv, n)
    dims = [1 << m for m in range(1, max(1, n * (sv.rank - 1).bit_length()) + 1)]
    conc = [concentration_fidelity(spectrum, L).error for L in dims]
    dil = [dilution_fidelity(spectrum, L).error for L in dims]
    assert _largest_drop(conc) < tradeoff._WINDOW_SLACK
    assert _largest_drop([-d for d in dil]) < tradeoff._WINDOW_SLACK


@settings(max_examples=40, deadline=None, derandomize=True)
@given(tied_states(max_distinct=4))
def test_errors_monotone_in_m_within_slack(case):
    _assert_monotone_within_slack(*case)


@pytest.mark.parametrize("p", [0.05, 0.1, 0.25])
def test_errors_monotone_in_m_within_slack_at_large_n(p):
    _assert_monotone_within_slack(make_schmidt([p, 1.0 - p]), 3000)


def test_optimum_against_exact_oracle_at_large_n():
    sv, n = make_schmidt([0.1, 0.9]), 10_000
    m_star = mcre(sv, n).optimal_m
    spectrum = power_spectrum(sv, n)
    ms = (m_star - 1, m_star, m_star + 1)
    exact = exact_qubit_errors(sv.probs, n, [1 << m for m in ms])
    for m, (conc, dil) in zip(ms, exact):
        assert abs(concentration_fidelity(spectrum, 1 << m).error - conc) <= 1e-12
        assert abs(dilution_fidelity(spectrum, 1 << m).error - dil) <= 1e-12
    below, at, above = (conc + dil for conc, dil in exact)
    assert min(below, above) >= at - 1e-12


def _assert_delta_monotone_in_N(sv, n):
    deltas = [generalized_mcre(sv, n, N).delta for N in range(1, n + 1)]
    assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))
    assert all(0.0 <= d <= 1.0 for d in deltas)


class TestMonotonicityAndBounds:
    # recoverable_points bisects over N on this property.
    @pytest.mark.parametrize("n", [16, 40, 64])
    def test_delta_monotone_in_N(self, n):
        _assert_delta_monotone_in_N(make_schmidt([0.9, 0.1]), n)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(tied_states(max_n=40))
    def test_delta_monotone_in_N_tied_states(self, case):
        _assert_delta_monotone_in_N(*case)

    def test_convergence_direction(self):
        sv = make_schmidt([0.9, 0.1])
        for k in (16, 64, 256):
            assert mcre(sv, 4 * k).delta > mcre(sv, k).delta


class TestDeltaCurve:
    def test_matches_pointwise(self):
        sv = make_schmidt([0.9, 0.1])
        points = delta_curve(sv, [1, 2])
        assert points[0] == (1, pytest.approx(0.2, abs=1e-12))
        assert points[1] == (2, pytest.approx(generalized_mcre(sv, 2, 2).delta, abs=0))

    def test_uniform_all_zero(self):
        points = delta_curve(make_schmidt([0.5, 0.5]), [1, 2, 4, 8])
        assert [d for _, d in points] == [0.0, 0.0, 0.0, 0.0]

    def test_thread_fanout_is_bit_identical(self):
        # Callers may fan points out on their own threads; every thread
        # recomputes its point and spectrum.
        sv = make_schmidt([0.9, 0.1])
        ns = [2**k for k in range(1, 8)]
        serial = delta_curve(sv, ns)
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda n: (n, mcre(sv, n).delta), ns))
        assert threaded == serial

    def test_paper_figure_state_trend(self):
        sv = make_schmidt([0.1, 0.9])
        points = delta_curve(sv, [2**k for k in range(1, 11)])
        deltas = [d for _, d in points]
        assert all(b >= a for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 1.0


def test_determinism_across_repeated_calls():
    sv = make_schmidt([0.77, 0.23])
    first = generalized_mcre(sv, 30, 17)
    second = generalized_mcre(sv, 30, 17)
    assert first == second


def test_results_independent_of_schmidt_input_order():
    a = make_schmidt([0.1, 0.9])
    b = make_schmidt([0.9, 0.1])
    assert mcre(a, 8) == mcre(b, 8)
