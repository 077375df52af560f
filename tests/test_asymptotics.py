import math

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from concrec import (
    K,
    SchmidtVector,
    loss_coefficient,
    make_schmidt,
    mcre_limit,
    nmax_approx,
    normal_cdf,
    normal_quantile,
    profile,
    prop3_limits,
)
from concrec.errors import DegenerateVariance, InvalidEpsilon, OutOfDomain

from _oracles import normal_cdf_simpson

QUBIT = make_schmidt([0.9, 0.1])


def _expected_profile(probs):
    logs = [-math.log2(p) for p in probs]
    S = math.fsum(p * x for p, x in zip(probs, logs))
    V = math.fsum(p * (x - S) ** 2 for p, x in zip(probs, logs))
    return S, V


class TestProfile:
    def test_uniform(self):
        prof = profile(make_schmidt([0.5, 0.5]))
        assert prof.entropy_S == 1.0
        assert prof.variance_V == 0.0

    def test_product_state(self):
        prof = profile(make_schmidt([1.0]))
        assert prof.entropy_S == 0.0
        assert prof.variance_V == 0.0
        assert math.isnan(prof.loss_scale)

    def test_qubit_values(self):
        S, V = _expected_profile((0.9, 0.1))
        prof = profile(QUBIT)
        assert prof.entropy_S == pytest.approx(S, abs=1e-14)
        assert prof.variance_V == pytest.approx(V, abs=1e-14)
        assert prof.sqrt_V == pytest.approx(math.sqrt(V), abs=1e-14)
        assert prof.loss_scale == pytest.approx(2.0 * math.sqrt(V) / S, abs=1e-12)
        # reference magnitudes for the standard example state
        assert prof.entropy_S == pytest.approx(0.468996, abs=1e-6)
        assert prof.variance_V == pytest.approx(0.904358, abs=1e-6)
        assert prof.loss_scale == pytest.approx(4.0554, abs=1e-4)

    def test_entropy_bounded_by_log_rank(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            rank = int(rng.integers(1, 6))
            sv = make_schmidt(rng.dirichlet(np.ones(rank)).tolist())
            prof = profile(sv)
            assert -1e-12 <= prof.entropy_S <= math.log2(max(rank, 1)) + 1e-12
            assert prof.variance_V >= 0.0


class TestNormalCdf:
    def test_center_exact(self):
        assert normal_cdf(0.0) == 0.5

    def test_known_value(self):
        assert normal_cdf(1.0) == pytest.approx(0.8413447460685429, abs=1e-14)

    def test_against_quadrature(self):
        for x in np.linspace(-8.0, 8.0, 33):
            assert normal_cdf(float(x)) == pytest.approx(
                normal_cdf_simpson(float(x)), abs=1e-12
            )

    def test_against_scipy(self):
        xs = np.linspace(-10.0, 10.0, 101)
        mine = np.array([normal_cdf(float(x)) for x in xs])
        assert float(np.max(np.abs(mine - scipy.special.ndtr(xs)))) <= 1e-14

    def test_symmetry(self):
        for x in np.linspace(0.0, 8.0, 81):
            assert abs(normal_cdf(-float(x)) - (1.0 - normal_cdf(float(x)))) <= 1e-14


class TestNormalQuantile:
    def test_median(self):
        assert normal_quantile(0.5) == 0.0

    def test_known_value(self):
        assert normal_quantile(0.95) == pytest.approx(1.6448536269514722, abs=1e-9)

    def test_roundtrip_u(self):
        grid = np.concatenate(
            [
                np.logspace(-6, -1, 30),
                np.linspace(0.1, 0.9, 33),
                1.0 - np.logspace(-6, -1, 30),
            ]
        )
        for u in grid:
            z = normal_quantile(float(u))
            assert abs(normal_cdf(z) - float(u)) <= 1e-10

    def test_roundtrip_x(self):
        for x in np.linspace(-6.0, 6.0, 49):
            assert normal_quantile(normal_cdf(float(x))) == pytest.approx(
                float(x), abs=1e-8
            )

    def test_domain(self):
        for bad in (0.0, 1.0, -0.2, 1.7):
            with pytest.raises(OutOfDomain):
                normal_quantile(bad)

    def test_within_four_ulps_of_the_exact_quantile(self):
        # The reference is the quantile of the float u itself, to 50 digits,
        # so the bound measures the function, not the rounding of u.
        tails = [float(t) for t in np.logspace(-15, math.log10(0.5), 121)]
        grid = (
            [1.0 - (0.05 * i) / 2.0 for i in range(1, 20)]  # fig4's u
            + [1.0 - (0.01 * i) / 2.0 for i in range(1, 100)]  # fig5's u
            + tails
            + [1.0 - t for t in tails]
        )
        with mpmath.workdps(50):
            for u in grid:
                exact = float(mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(u) - 1))
                assert abs(normal_quantile(u) - exact) <= 4 * math.ulp(exact), u


class TestK:
    def test_center(self):
        assert K(QUBIT, 0.0, 0.0) == 0.5
        assert K(make_schmidt([0.6, 0.3, 0.1]), 0.0, 0.0) == 0.5

    def test_example_value(self):
        prof = profile(QUBIT)
        expected = normal_cdf_simpson(prof.entropy_S / prof.sqrt_V)
        assert K(QUBIT, 0.0, -1.0) == pytest.approx(expected, abs=1e-12)
        assert K(QUBIT, 0.0, -1.0) == pytest.approx(0.689, abs=1e-3)

    def test_symmetry_in_b(self):
        for b in (0.3, 1.1, 2.7):
            assert abs(K(QUBIT, b, 0.0) + K(QUBIT, -b, 0.0) - 1.0) <= 1e-12

    def test_depends_only_on_combination(self):
        prof = profile(QUBIT)
        for b, bp, t in ((0.4, -0.2, 0.9), (-1.0, 0.5, -2.0)):
            assert K(QUBIT, b + prof.entropy_S * t, bp + t) == pytest.approx(
                K(QUBIT, b, bp), abs=1e-12
            )

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            K(make_schmidt([0.5, 0.5]), 0.0, 0.0)
        with pytest.raises(DegenerateVariance):
            K(make_schmidt([1.0]), 0.0, 0.0)


class TestProp3Limits:
    def test_branches(self):
        assert prop3_limits(QUBIT, 0.3) == (0.0, 1.0)
        assert prop3_limits(QUBIT, 0.6) == (1.0, 0.0)
        S = profile(QUBIT).entropy_S
        assert prop3_limits(QUBIT, S, 0.0) == (0.5, 0.5)

    def test_middle_branch_value(self):
        prof = profile(QUBIT)
        conc, dil = prop3_limits(QUBIT, prof.entropy_S, 1.3)
        assert conc == pytest.approx(normal_cdf(1.3 / prof.sqrt_V), abs=0)
        assert dil == 1.0 - conc

    def test_components_sum_to_one_exactly(self):
        rng = np.random.default_rng(23)
        S = profile(QUBIT).entropy_S
        for _ in range(200):
            a = float(rng.choice([0.1, S, 0.9]))
            b = float(rng.normal())
            conc, dil = prop3_limits(QUBIT, a, b)
            assert conc + dil == 1.0

    def test_middle_branch_needs_variance(self):
        sv = make_schmidt([0.5, 0.5])
        with pytest.raises(DegenerateVariance):
            prop3_limits(sv, profile(sv).entropy_S, 0.0)
        # off-critical branches stay available
        assert prop3_limits(sv, 0.5) == (0.0, 1.0)


class TestMcreLimit:
    def test_full_recovery_limit_is_one(self):
        assert mcre_limit(QUBIT, 0.0) == 1.0
        assert mcre_limit(QUBIT, 2.5) == 1.0

    def test_example_value(self):
        prof = profile(QUBIT)
        value = mcre_limit(QUBIT, -prof.loss_scale)
        assert value == pytest.approx(2.0 * normal_cdf(-1.0), abs=1e-12)
        assert value == pytest.approx(0.317311, abs=1e-6)

    def test_vanishes_far_left(self):
        assert mcre_limit(QUBIT, -1e6) <= 1e-12

    def test_continuous_and_monotone(self):
        values = [mcre_limit(QUBIT, b) for b in np.linspace(-3.0, -1e-9, 200)]
        assert all(y >= x - 1e-15 for x, y in zip(values, values[1:]))
        assert values[-1] == pytest.approx(1.0, abs=1e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateVariance):
            mcre_limit(make_schmidt([0.5, 0.5]), -1.0)


class TestNmaxApprox:
    def test_reference_value(self):
        prof = profile(QUBIT)
        expected = 3000 - prof.loss_scale * normal_quantile(0.95) * math.sqrt(3000)
        value = nmax_approx(QUBIT, 3000, 0.1)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(2634.64, abs=0.01)

    def test_eps_near_one(self):
        assert nmax_approx(QUBIT, 500, 1.0 - 1e-12) == pytest.approx(500.0, abs=1e-3)

    def test_zero_copies(self):
        assert nmax_approx(QUBIT, 0, 0.3) == 0.0

    def test_always_below_n(self):
        for eps in (0.01, 0.1, 0.5, 0.9):
            assert nmax_approx(QUBIT, 2000, eps) < 2000

    def test_errors(self):
        with pytest.raises(InvalidEpsilon):
            nmax_approx(QUBIT, 100, 0.0)
        with pytest.raises(DegenerateVariance):
            nmax_approx(make_schmidt([0.5, 0.5]), 100, 0.1)


class TestLossCoefficient:
    def test_normalized_reference_point(self):
        eps = 2.0 * normal_cdf(-1.0)
        assert normal_quantile(1 - eps / 2) == pytest.approx(1.0, abs=1e-10)

    def test_state_scale(self):
        prof = profile(QUBIT)
        assert loss_coefficient(QUBIT, 0.1) == pytest.approx(
            prof.loss_scale * normal_quantile(0.95), abs=1e-9
        )

    def test_strictly_decreasing(self):
        grid = [0.01 * i for i in range(1, 100)]
        values = [normal_quantile(1 - eps / 2) for eps in grid]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_divergence_toward_zero(self):
        assert normal_quantile(1 - 1e-6 / 2) > normal_quantile(1 - 1e-3 / 2)

    def test_vanishes_toward_one(self):
        assert normal_quantile(1 - (1.0 - 1e-9) / 2) == pytest.approx(0.0, abs=1e-6)

    def test_invalid_epsilon(self):
        with pytest.raises(InvalidEpsilon):
            loss_coefficient(QUBIT, 1.0)
        # 1 - eps/2 rounds to 1 up to eps = 2^-53; just above, it does not.
        for eps in (1e-17, 2.0**-53):
            with pytest.raises(InvalidEpsilon, match=f"eps = {eps!r}"):
                loss_coefficient(QUBIT, eps)
        assert math.isfinite(loss_coefficient(QUBIT, 2.3e-16))


# States of rank 1 to 5 from small integer weights, so ties are common, and
# rank-1 vectors built directly with an entry within the sum's tolerance of 1.
_STATES = st.one_of(
    st.lists(st.integers(1, 4), min_size=1, max_size=5).map(
        lambda w: make_schmidt([x / sum(w) for x in w])
    ),
    st.floats(1.0 - 1e-12, 1.0).map(lambda p: SchmidtVector(probs=(p,))),
)


@settings(max_examples=200, deadline=None)
@given(_STATES)
def test_positive_variance_implies_positive_entropy(sv):
    prof = profile(sv)
    if prof.variance_V > 0.0:
        assert prof.entropy_S > 0.0, sv
    try:
        nmax_approx(sv, 100, 0.1)
    except DegenerateVariance:
        assert prof.variance_V == 0.0, sv
    else:
        assert prof.variance_V != 0.0, sv
