import math

import numpy as np
import pytest

from concrec import (
    brute_force_fidelity,
    concentration_fidelity,
    dilution_fidelity,
    make_schmidt,
    power_spectrum,
)
from concrec.conversion import _flatten_boundary
from concrec.errors import DimensionTooLargeForOracle, InvalidDimension

from _oracles import (
    dense_concentration_error,
    dense_dilution_error,
    dense_flatten_index,
    dense_power_spectrum,
    exact_qubit_errors,
)


class TestFlattenIndex:
    def test_single_copy_examples(self):
        assert _flatten_boundary(power_spectrum(make_schmidt([0.9, 0.1]), 1), 2)[1] == 1
        assert _flatten_boundary(power_spectrum(make_schmidt([0.5, 0.5]), 1), 2)[1] == 0
        assert _flatten_boundary(power_spectrum(make_schmidt([0.4, 0.3, 0.3]), 1), 2)[1] == 0

    def test_invalid_dimension(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 1)
        with pytest.raises(InvalidDimension):
            _flatten_boundary(ls, 0)

    @pytest.mark.parametrize("probs", [[0.9, 0.1], [0.75, 0.25]])
    def test_matches_dense_scan_qubit(self, probs):
        sv = make_schmidt(probs)
        for n in range(0, 13):
            ls = power_spectrum(sv, n)
            dense = dense_power_spectrum(sv.probs, n)
            for L in [1, 2, 3, 5, 8, 64, 1 << n, (1 << n) + 1, 1 << (n + 1)]:
                assert _flatten_boundary(ls, L)[1] == dense_flatten_index(dense, L), (n, L)

    def test_matches_dense_scan_qutrit(self):
        for probs in ([0.5, 0.3, 0.2], [0.5, 0.25, 0.25]):
            sv = make_schmidt(probs)
            for n in range(0, 9):
                ls = power_spectrum(sv, n)
                dense = dense_power_spectrum(sv.probs, n)
                for L in [1, 2, 4, 7, 16, 81, 3**n, 3**n + 5]:
                    assert _flatten_boundary(ls, L)[1] == dense_flatten_index(dense, L), (n, L)

    def test_huge_dimension(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 40)
        J = _flatten_boundary(ls, 1 << 200)[1]
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
            assert _flatten_boundary(ls, L)[1] == expected, m

    def test_tie_insensitivity(self):
        # When the flattened tail average exactly equals the next weight,
        # cutting on either side of the tie describes the same vector, so
        # the fidelity cannot depend on which cut the search picks.
        for probs, L in ([0.4, 0.3, 0.3], 3), ([0.4, 0.2, 0.2, 0.2], 4), ([0.5, 0.25, 0.25], 3):
            sv = make_schmidt(probs)
            ls = power_spectrum(sv, 1)
            J = _flatten_boundary(ls, L)[1]
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
