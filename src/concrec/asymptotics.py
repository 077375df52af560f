"""Closed-form second-order (Gaussian) quantities for the trade-off curves.

All logarithms are base 2: EPR counts are qubit dimensions 2^m, so the
entropy is in bits per copy and the log-spectrum variance in bits squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist

from .errors import DegenerateVariance, InvalidEpsilon, OutOfDomain
from .spectrum import SchmidtVector

_SQRT2 = math.sqrt(2.0)
_STANDARD = NormalDist()


@dataclass(frozen=True)
class AsymptoticProfile:
    """First- and second-order rate parameters of a state."""

    entropy_S: float
    variance_V: float
    sqrt_V: float
    loss_scale: float  # 2*sqrt(V)/S; nan when the entropy is zero


def profile(sv: SchmidtVector) -> AsymptoticProfile:
    """Entropy (bits), log-spectrum variance (bits^2) and derived scales.

    Zero entropy or zero variance are reported, not raised; only operations
    that genuinely need V > 0 reject such states.
    """
    neg_logs = [-math.log2(p) for p in sv.probs]
    entropy = math.fsum(p * nl for p, nl in zip(sv.probs, neg_logs))
    variance = math.fsum(p * (nl - entropy) ** 2 for p, nl in zip(sv.probs, neg_logs))
    variance = max(variance, 0.0)
    sqrt_v = math.sqrt(variance)
    loss_scale = 2.0 * sqrt_v / entropy if entropy > 0.0 else math.nan
    return AsymptoticProfile(
        entropy_S=entropy, variance_V=variance, sqrt_V=sqrt_v, loss_scale=loss_scale
    )


def normal_cdf(x: float) -> float:
    """Standard normal CDF, accurate to well below 1e-12 absolute."""
    return 0.5 * math.erfc(-x / _SQRT2)


def normal_quantile(u: float) -> float:
    """Inverse of :func:`normal_cdf`, from the standard library's
    ``NormalDist.inv_cdf`` (Wichura's AS241); within 4 ulps of the exact
    quantile of the float ``u`` over 1e-15 <= u <= 1 - 1e-15."""
    if not 0.0 < u < 1.0:
        raise OutOfDomain(f"quantile needs 0 < u < 1, got {u}")
    return _STANDARD.inv_cdf(u)


def _positive_variance(sv: SchmidtVector) -> AsymptoticProfile:
    prof = profile(sv)
    if prof.variance_V <= 0.0:
        raise DegenerateVariance(
            "second-order quantities need a non-flat spectrum (V > 0)"
        )
    return prof


def K(sv: SchmidtVector, b: float, b_prime: float) -> float:
    """Limiting kept-mass fraction G((b - S*b') / sqrt(V))."""
    prof = _positive_variance(sv)
    return normal_cdf((b - prof.entropy_S * b_prime) / prof.sqrt_V)


def prop3_limits(sv: SchmidtVector, a: float, b: float = 0.0) -> tuple[float, float]:
    """Limits of the concentration and dilution errors at rates (a, b).

    ``a`` selects the branch by exact comparison with the state's entropy;
    pass ``profile(sv).entropy_S`` to hit the critical-rate branch, where the
    pair is (G(b/sqrt(V)), 1 - G(b/sqrt(V))).  The two components always sum
    to 1.
    """
    prof = profile(sv)
    if a == prof.entropy_S:
        if prof.variance_V <= 0.0:
            raise DegenerateVariance("critical-rate branch needs V > 0")
        conc = normal_cdf(b / prof.sqrt_V)
    elif a < prof.entropy_S:
        conc = 0.0
    else:
        conc = 1.0
    return conc, 1.0 - conc


def mcre_limit(sv: SchmidtVector, b_prime: float) -> float:
    """Limit of the trade-off error when recovering n + b'*sqrt(n) copies.

    2*G(S*b' / (2*sqrt(V))) for b' < 0; for b' >= 0 the limit is 1: full
    recovery is asymptotically maximally lossy.
    """
    prof = _positive_variance(sv)
    if b_prime < 0.0:
        return 2.0 * normal_cdf(prof.entropy_S * b_prime / (2.0 * prof.sqrt_V))
    return 1.0


def nmax_approx(sv: SchmidtVector, n: int, eps: float) -> float:
    """Second-order approximation of the maximum recoverable copy count:
    n - (2*sqrt(V)/S) * quantile(1 - eps/2) * sqrt(n), not floored."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"need 0 < eps < 1, got {eps}")
    prof = _positive_variance(sv)
    if prof.entropy_S <= 0.0:
        raise DegenerateVariance("approximation needs positive entropy")
    return n - prof.loss_scale * normal_quantile(1.0 - eps / 2.0) * math.sqrt(n)


def loss_coefficient(sv: SchmidtVector, eps: float) -> float:
    """Coefficient of sqrt(n) in the asymptotic copy loss after compression:
    (2*sqrt(V)/S) * quantile(1 - eps/2)."""
    if not 0.0 < eps < 1.0:
        raise InvalidEpsilon(f"need 0 < eps < 1, got {eps}")
    return profile(sv).loss_scale * normal_quantile(1.0 - eps / 2.0)
