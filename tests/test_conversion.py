import math
from collections import Counter

import numpy as np
import pytest

from concrec import (
    brute_force_fidelity,
    concentration_fidelity,
    dilution_fidelity,
    make_schmidt,
    power_spectrum,
)
from concrec import spectrum
from concrec.conversion import _concentration
from concrec.errors import DimensionTooLargeForOracle, InvalidDimension
from concrec.spectrum import _HEAD, NEG_INF, LeveledSpectrum, _flatten_split

from _oracles import (
    dense_concentration_error,
    dense_dilution_error,
    dense_flatten_index,
    dense_power_spectrum,
    exact_qubit_errors,
    short_mantissa,
)


def _flatten_cut(ls, L):
    """The cut J: the start of the flatten cut's level."""
    return ls.starts[_flatten_split(ls, L)[0]]


def _replay_cuts(ls, starts):
    """Check the flatten cut and its gap at each of about 150 dimensions L,
    powers of two and random, up to the total of ``ls`` (past it where
    ``ls`` is complete), against a bisection that reads every start of the
    exact ``starts``."""
    from bisect import bisect_left, bisect_right

    from concrec import log2_int

    suffix, eigs = ls.suffix_log2_mass, ls.log2_eigenvalues
    rng = np.random.default_rng(ls.copies)
    bits = starts[-1].bit_length()
    counts = {1 << m for m in range(0, bits + 1, max(1, bits // 97))}
    counts |= {int(rng.integers(1, 1 << 62)) << int(rng.integers(0, bits - 60)) for _ in range(60)}
    for L in sorted(L for L in counts if ls.complete or L <= starts[-1]):
        i_max = bisect_right(starts, L - 1) - 1
        expected = starts[bisect_left(
            range(i_max),
            True,
            key=lambda i: float(suffix[i]) - log2_int(L - starts[i]) >= float(eigs[i]),
        )]
        j, gap = _flatten_split(ls, L)
        assert (starts[j], gap) == (expected, log2_int(L - expected)), L


class TestFlattenIndex:
    def test_single_copy_examples(self):
        assert _flatten_cut(power_spectrum(make_schmidt([0.9, 0.1]), 1), 2) == 1
        assert _flatten_cut(power_spectrum(make_schmidt([0.5, 0.5]), 1), 2) == 0
        assert _flatten_cut(power_spectrum(make_schmidt([0.4, 0.3, 0.3]), 1), 2) == 0

    def test_invalid_dimension(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 1)
        with pytest.raises(InvalidDimension):
            concentration_fidelity(ls, 0)
        with pytest.raises(InvalidDimension):
            dilution_fidelity(ls, 0)
        with pytest.raises(InvalidDimension):
            brute_force_fidelity([0.9, 0.1], 0)

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.75, 0.25]])
    def test_matches_dense_scan_qubit(self, probs):
        sv = make_schmidt(probs)
        for n in range(0, 13):
            ls = power_spectrum(sv, n)
            dense = dense_power_spectrum(sv.probs, n)
            for L in [1, 2, 3, 5, 8, 64, 1 << n, (1 << n) + 1, 1 << (n + 1)]:
                assert _flatten_cut(ls, L) == dense_flatten_index(dense, L), (n, L)

    def test_matches_dense_scan_qutrit(self):
        for probs in ([0.5, 0.3, 0.2], [0.5, 0.25, 0.25]):
            sv = make_schmidt(probs)
            for n in range(0, 9):
                ls = power_spectrum(sv, n)
                dense = dense_power_spectrum(sv.probs, n)
                for L in [1, 2, 4, 7, 16, 81, 3**n, 3**n + 5]:
                    assert _flatten_cut(ls, L) == dense_flatten_index(dense, L), (n, L)

    def test_huge_dimension(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 40)
        J = _flatten_cut(ls, 1 << 200)
        assert J == ls.total_count  # everything kept, flat part beyond spectrum

    def test_binary_search_matches_linear_boundary_scan_at_scale(self):
        # The binary search relies on the condition being monotone over
        # level boundaries; replay it as a linear scan on a large spectrum.
        from concrec import log2_int, log2_tail_mass

        sv = make_schmidt([0.9, 0.1])
        ls = power_spectrum(sv, 3000)
        # Each boundary's cut, with the log2 eigenvalue of the level after it.
        pairs = list(zip(ls.starts, [*ls.log2_eigenvalues.tolist(), -math.inf]))
        for m in (1, 2, 17, 300, 1406, 1500, 2999, 3000, 5999, 6000):
            L = 1 << m
            expected = None
            for cut, log2_next in pairs:
                if cut > L - 1:
                    break
                tail = log2_tail_mass(ls, cut)
                if tail == -math.inf:
                    satisfied = log2_next == -math.inf
                else:
                    satisfied = tail - log2_int(L - cut) >= log2_next
                if satisfied:
                    expected = cut
                    break
            assert expected is not None
            assert _flatten_cut(ls, L) == expected, m

    @pytest.mark.parametrize(
        "probs, n",
        [((0.9, 0.1), 3000), ((0.75, 0.25), 2000), ((0.5, 0.3, 0.2), 60), ((0.4, 0.2, 0.2, 0.2), 40)],
    )
    def test_skipped_boundaries_change_no_cut(self, probs, n):
        # The search skips reading starts[i] where a bound from starts[i_max]
        # already makes the condition false; replay it reading every start,
        # with the gap to L at the cut it returns.
        ls = power_spectrum(make_schmidt(probs), n)
        _replay_cuts(ls, ls.starts)

    def test_skipped_boundaries_change_no_cut_on_a_60_bit_head(self):
        # The same replay on the p = 0.1 head the search reads, its ladder on
        # a 60-bit mantissa, where its bounds often decide no gap: 171 of the
        # 662 start reads here count exactly, and 65 of the 100 for L in
        # 2^1200..2^1690, the window the search reads.  The exact starts come
        # from a second build, so that taking them counts no start of the
        # spectrum read.
        sv = make_schmidt([0.9, 0.1])
        with short_mantissa(60) as counted:
            ls = power_spectrum(sv, 3000, _HEAD)
            starts = tuple(power_spectrum(sv, 3000, _HEAD).starts)
            before = len(counted)
            _replay_cuts(ls, starts)
            assert len(counted) > before

    @pytest.mark.parametrize(
        "n, count, log2_Ls",
        [
            (3000, _HEAD, range(1200, 1700, 10)),  # the p = 0.1 head the search reads
            (31, None, [30]),  # 2^30 is the start of level 16, so i_max is level 15
        ],
    )
    def test_concentration_reads_each_start_once(self, n, count, log2_Ls, monkeypatch):
        # The flatten cut takes its last boundary below L and the gap to L from
        # one split of L, and the gap at the cut from the split or from the
        # bisection's test of it, so no start is read twice.
        ls = power_spectrum(make_schmidt([0.9, 0.1]), n, count)
        compare, reads = spectrum._compare, []

        def counted(starts, j, value):
            reads.append(j)
            return compare(starts, j, value)

        monkeypatch.setattr(spectrum, "_compare", counted)
        for log2_L in log2_Ls:
            reads.clear()
            _concentration(ls, 1 << log2_L)
            assert all(v == 1 for v in Counter(reads).values()), log2_L

    def test_tie_insensitivity(self):
        # When the flattened tail average exactly equals the next weight,
        # cutting on either side of the tie describes the same vector, so
        # the fidelity cannot depend on which cut the search picks.
        for probs, L in ([0.4, 0.3, 0.3], 3), ([0.4, 0.2, 0.2, 0.2], 4), ([0.5, 0.25, 0.25], 3):
            sv = make_schmidt(probs)
            ls = power_spectrum(sv, 1)
            J = _flatten_cut(ls, L)
            dense = np.asarray(sv.probs)

            def eta_value(cut: int) -> float:
                eta = np.zeros(L)
                eta[:cut] = dense[:cut]
                eta[cut:] = float(dense[cut:].sum()) / (L - cut)
                return float(np.sqrt(eta / L).sum())

            reported = concentration_fidelity(ls, L).fidelity
            assert reported == pytest.approx(eta_value(J), abs=1e-12)
            if J + 1 < L:
                assert eta_value(J) == pytest.approx(eta_value(J + 1), abs=1e-12)


class TestConcentration:
    def test_qubit_single_copy(self):
        result = concentration_fidelity(power_spectrum(make_schmidt([0.9, 0.1]), 1), 2)
        assert result.fidelity == pytest.approx(math.sqrt(0.45) + math.sqrt(0.05), abs=1e-12)
        assert result.error == pytest.approx(0.2, abs=1e-12)
        assert result.flatten_index_J == 1

    def test_exact_conversion_to_smaller_uniform(self):
        result = concentration_fidelity(power_spectrum(make_schmidt([0.4, 0.3, 0.3]), 1), 2)
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.error == pytest.approx(0.0, abs=1e-12)

    def test_uniform_to_same_dimension(self):
        result = concentration_fidelity(power_spectrum(make_schmidt([0.25] * 4), 1), 4)
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)

    def test_qubit_L4(self):
        result = concentration_fidelity(power_spectrum(make_schmidt([0.9, 0.1]), 1), 4)
        assert result.fidelity == pytest.approx((math.sqrt(0.9) + math.sqrt(0.1)) / 2, abs=1e-12)
        assert result.error == pytest.approx(0.6, abs=1e-12)
        assert result.flatten_index_J == 2

    def test_error_fidelity_relation(self):
        for probs, L in ([0.9, 0.1], 2), ([0.6, 0.3, 0.1], 5), ([0.5, 0.5], 8):
            r = concentration_fidelity(power_spectrum(make_schmidt(probs), 3), L)
            assert abs(r.error - (1.0 - r.fidelity**2)) <= 1e-12
            assert 0 <= r.flatten_index_J < L

    def test_fidelity_past_the_clamp_is_refused(self):
        # One level of two entries holding mass 1 + 1e-9, built as
        # _oracles.reference_power_spectrum builds a spectrum.  Into L = 1
        # everything is flattened: F = sqrt(1 + 1e-9), past the 1e-12 clamp.
        log2_eigs = np.array([math.log2(0.5 * (1.0 + 1e-9))])
        log2_mults = np.array([1.0])
        level_log2_mass = log2_mults + log2_eigs
        ls = LeveledSpectrum(
            base=make_schmidt([0.5, 0.5]),
            copies=1,
            starts=(0, 2),
            log2_eigenvalues=log2_eigs,
            prefix_log2_mass=np.logaddexp2.accumulate(level_log2_mass),
            prefix_log2_sqrt_mass=np.logaddexp2.accumulate(log2_mults + 0.5 * log2_eigs),
            suffix_log2_mass=np.append(level_log2_mass, NEG_INF),
        )
        with pytest.raises(ArithmeticError, match="concentration fidelity = 1.000000000.* outside"):
            concentration_fidelity(ls, 1)

    def test_rank_one_state(self):
        result = concentration_fidelity(power_spectrum(make_schmidt([1.0]), 5), 4)
        assert result.fidelity == pytest.approx(0.5, abs=1e-12)
        assert result.error == pytest.approx(0.75, abs=1e-12)


class TestDilution:
    def test_two_copy_target(self):
        result = dilution_fidelity(power_spectrum(make_schmidt([0.9, 0.1]), 2), 2)
        assert result.fidelity == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert result.error == pytest.approx(0.10, abs=1e-12)
        assert result.flatten_index_J is None

    def test_full_prefix_is_exact(self):
        ls = power_spectrum(make_schmidt([0.6, 0.3, 0.1]), 3)
        result = dilution_fidelity(ls, ls.total_count)
        assert result.fidelity == pytest.approx(1.0, abs=1e-10)
        assert result.error == pytest.approx(0.0, abs=1e-10)

    def test_single_copy(self):
        result = dilution_fidelity(power_spectrum(make_schmidt([0.9, 0.1]), 1), 1)
        assert result.fidelity == pytest.approx(math.sqrt(0.9), abs=1e-12)
        assert result.error == pytest.approx(0.1, abs=1e-12)


class TestCopyLevelWrappers:
    """Errors between n copies and m EPR pairs: a conversion at L = 2^m."""

    def test_concentration_error_examples(self):
        sv = make_schmidt([0.9, 0.1])
        ls = power_spectrum(sv, 1)
        assert concentration_fidelity(ls, 2).error == pytest.approx(0.2, abs=1e-12)
        assert concentration_fidelity(ls, 4).error == pytest.approx(0.6, abs=1e-12)
        uniform = make_schmidt([0.5, 0.5])
        for k in (1, 2, 5):
            error = concentration_fidelity(power_spectrum(uniform, k), 1 << k).error
            assert error == pytest.approx(0.0, abs=1e-12)

    def test_dilution_error_examples(self):
        sv = make_schmidt([0.9, 0.1])
        assert dilution_fidelity(power_spectrum(sv, 2), 2).error == pytest.approx(0.10, abs=1e-12)
        assert dilution_fidelity(power_spectrum(sv, 1), 2).error == pytest.approx(0.0, abs=1e-12)
        qutrit = make_schmidt([0.6, 0.3, 0.1])
        for N in (1, 2, 3):
            m = N * 2  # 2^m covers rank^N
            error = dilution_fidelity(power_spectrum(qutrit, N), 1 << m).error
            assert error == pytest.approx(0.0, abs=1e-10)

    def test_monotonicity_in_m(self):
        sv = make_schmidt([0.9, 0.1])
        ls = power_spectrum(sv, 6)
        conc = [concentration_fidelity(ls, 1 << m).error for m in range(1, 13)]
        dil = [dilution_fidelity(ls, 1 << m).error for m in range(1, 13)]
        assert all(b >= a - 1e-12 for a, b in zip(conc, conc[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(dil, dil[1:]))

    def test_exact_conversion_characterization(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            rank = int(rng.integers(2, 5))
            sv = make_schmidt(rng.dirichlet(np.ones(rank)).tolist())
            n = int(rng.integers(1, 5))
            ls = power_spectrum(sv, n)
            dense = dense_power_spectrum(sv.probs, n)
            for m in range(1, 2 * n + 1):
                L = 1 << m
                error = concentration_fidelity(ls, L).error
                k = np.arange(1, min(L, dense.size) + 1)
                uniform_majorizes = bool(np.all(k / L >= np.cumsum(dense)[: k.size] - 1e-12))
                if L < dense.size:
                    uniform_majorizes = uniform_majorizes and L / L >= float(dense.sum()) - 1e-12
                assert (error <= 1e-9) == uniform_majorizes, (sv.probs, n, m)
                dil = dilution_fidelity(ls, L).error
                assert (dil <= 1e-9) == (L >= dense.size)

    def test_errors_within_unit_range(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            rank = int(rng.integers(1, 5))
            sv = make_schmidt(rng.dirichlet(np.ones(rank) * 2).tolist())
            n = int(rng.integers(0, 7))
            m = int(rng.integers(1, 12))
            ls = power_spectrum(sv, n)
            for result in (concentration_fidelity(ls, 1 << m), dilution_fidelity(ls, 1 << m)):
                assert 0.0 <= result.error <= 1.0


class TestBruteForceOracle:
    def test_examples(self):
        assert brute_force_fidelity([0.9, 0.1], 2) == pytest.approx(
            math.sqrt(0.45) + math.sqrt(0.05), abs=1e-9
        )
        assert brute_force_fidelity([0.4, 0.3, 0.3], 2) == pytest.approx(1.0, abs=1e-9)
        assert brute_force_fidelity([0.99, 0.01], 4) == pytest.approx(
            (math.sqrt(0.99) + math.sqrt(0.01)) / 2, abs=1e-9
        )

    def test_rejects_large_dimension(self):
        with pytest.raises(DimensionTooLargeForOracle):
            brute_force_fidelity([0.9, 0.1], 9)

    def test_formula_agreement_seeded(self):
        rng = np.random.default_rng(321)
        worst = 0.0
        for _ in range(60):
            rank = int(rng.integers(2, 5))
            sv = make_schmidt(rng.dirichlet(np.ones(rank)).tolist())
            single = power_spectrum(sv, 1)
            for L in range(2, 9):
                formula = concentration_fidelity(single, L).fidelity
                worst = max(worst, abs(formula - brute_force_fidelity(sv, L)))
        assert worst <= 1e-6

    def test_agreement_on_tensor_powers(self):
        sv = make_schmidt([0.8, 0.2])
        for n in (2, 3):
            dense = dense_power_spectrum(sv.probs, n)
            ls = power_spectrum(sv, n)
            for L in range(2, 9):
                formula = concentration_fidelity(ls, L).fidelity
                assert brute_force_fidelity(dense.tolist(), L) == pytest.approx(
                    formula, abs=1e-9
                )


class TestAgainstDenseOracle:
    def test_concentration_matches_dense(self):
        for probs in ([0.9, 0.1], [0.5, 0.3, 0.2]):
            sv = make_schmidt(probs)
            for n in range(0, 9):
                ls = power_spectrum(sv, n)
                dense = dense_power_spectrum(sv.probs, n)
                for m in range(1, 11):
                    assert concentration_fidelity(ls, 1 << m).error == pytest.approx(
                        dense_concentration_error(dense, 1 << m), abs=1e-11
                    )

    def test_dilution_matches_dense(self):
        sv = make_schmidt([0.7, 0.3])
        for n in range(0, 11):
            ls = power_spectrum(sv, n)
            dense = dense_power_spectrum(sv.probs, n)
            for m in range(1, 12):
                assert dilution_fidelity(ls, 1 << m).error == pytest.approx(
                    dense_dilution_error(dense, 1 << m), abs=1e-11
                )

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.75, 0.25], [0.6, 0.4], [0.5, 0.5]])
    def test_exact_qubit_oracle_matches_dense(self, probs):
        sv = make_schmidt(probs)
        for n in range(0, 13):
            dense = dense_power_spectrum(sv.probs, n)
            dims = sorted({1, 2, 3, 5, 12, 1 << (n // 2), 1 << n, (1 << n) + 1, 1 << (n + 1)})
            for L, (conc, dil) in zip(dims, exact_qubit_errors(sv.probs, n, dims)):
                expected_conc = dense_concentration_error(dense, L)
                assert conc == pytest.approx(expected_conc, abs=1e-12), (n, L)
                assert dil == pytest.approx(dense_dilution_error(dense, L), abs=1e-12), (n, L)
