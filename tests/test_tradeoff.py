import gc
import math
import random
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concrec import (
    concentration_fidelity,
    delta_curve,
    dilution_fidelity,
    generalized_mcre,
    make_schmidt,
    max_recoverable,
    mcre,
    power_spectrum,
    recoverable_points,
    tradeoff,
)
from concrec.conversion import concentration_fidelity, dilution_fidelity
from concrec.errors import InvalidEpsilon, InvalidRange

from _oracles import dense_delta, exact_qubit_errors, full_scan_tradeoff


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

    def test_no_spectrum_outlives_a_call(self, monkeypatch):
        real = tradeoff.power_spectrum
        built = []

        def recording(sv, copies, *count):
            spectrum = real(sv, copies, *count)
            built.append(weakref.ref(spectrum))
            return spectrum

        monkeypatch.setattr(tradeoff, "power_spectrum", recording)
        sv = make_schmidt([0.83, 0.17])  # a state no other test builds
        mcre(sv, 12)
        generalized_mcre(sv, 12, 7)
        max_recoverable(sv, 12, 0.3)
        recoverable_points(sv, 12, [0.5, 0.2, 0.5])
        gc.collect()
        assert built
        assert [ref for ref in built if ref() is not None] == []


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
    real = tradeoff.concentration_fidelity

    def recording(ls, L):
        targets.append(L)
        return real(ls, L)

    monkeypatch.setattr(tradeoff, "concentration_fidelity", recording)
    mcre(make_schmidt([0.1, 0.9]), 3000)
    assert len(targets) == len(set(targets))
    assert len(targets) < 3000 // 10


def test_grid_search_converts_each_concentration_dimension_once(monkeypatch):
    targets = []
    real = tradeoff.concentration_fidelity

    def recording(ls, L):
        targets.append(L)
        return real(ls, L)

    monkeypatch.setattr(tradeoff, "concentration_fidelity", recording)
    grid = [0.05 * i for i in range(1, 20)]
    recoverable_points(make_schmidt([0.1, 0.9]), 3000, grid)
    assert targets
    assert len(targets) == len(set(targets))


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
