"""Optimal LOCC conversion fidelities between tensor powers and EPR blocks.

Concentration (state to maximally entangled target of dimension L) follows
the keep-then-flatten construction: keep the J largest Schmidt weights and
spread the remaining mass uniformly over the other L - J slots, where J is
the smallest cut at which the flattened tail no longer exceeds the next
kept weight.  Dilution (maximally entangled source to state) is the
top-L-prefix fidelity.  Everything runs on leveled spectra in log2 space,
so dimensions like 2^3000 are exact.  The cut and the log2 of L minus its
start come from the spectrum's flatten query, and the dilution mass from
its prefix-mass query: this module reads no level start itself.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DimensionTooLargeForOracle, InvalidDimension
from .spectrum import (
    NEG_INF,
    LeveledSpectrum,
    SchmidtVector,
    _flatten_split,
    log2_int,
    prefix_mass,
)

_CLAMP_TOL = 1e-12


@dataclass(frozen=True)
class ConversionResult:
    """Outcome of one optimal LOCC conversion."""

    fidelity: float
    error: float
    flatten_index_J: Union[int, None]


def _clamp_unit(x: float) -> float:
    # The only range check a conversion makes.  The concentration fidelity
    # x is a sum of two powers of 2.0, so never negative.  The errors need
    # no check: 1 - F*F with F clamped here, and 1 - mass with the prefix
    # mass min(1.0, 2.0 ** log2_mass), both lie in [0, 1].
    if 1.0 < x <= 1.0 + _CLAMP_TOL:
        return 1.0
    if not 0.0 <= x <= 1.0:
        raise ArithmeticError(f"concentration fidelity = {x!r} outside [0, 1] beyond tolerance")
    return x


def _concentration(ls: LeveledSpectrum, L: int) -> tuple[ConversionResult, int]:
    """:func:`concentration_fidelity` with ``flatten_index_J`` None, and the
    level j of its cut, so J = ``ls.starts[j]``.  It reads no exact start of
    a ladder spectrum where the bounds decide (see ``concrec.spectrum``)."""
    L = operator.index(L)
    if L < 1:
        raise InvalidDimension(f"target dimension must be >= 1, got {L}")
    j, log2_gap = _flatten_split(ls, L)
    log2_L = log2_int(L)
    kept = float(ls.prefix_log2_sqrt_mass[j - 1]) if j else NEG_INF
    first = 2.0 ** (kept - 0.5 * log2_L)
    rest = log2_gap - log2_L + float(ls.suffix_log2_mass[j])
    second = 2.0 ** (0.5 * rest)
    fidelity = _clamp_unit(first + second)
    return ConversionResult(fidelity, 1.0 - fidelity * fidelity, None), j


def concentration_fidelity(ls: LeveledSpectrum, L: int) -> ConversionResult:
    """Optimal fidelity for converting the spectrum's state into a
    maximally entangled state of dimension ``L``.

    The fidelity is sqrt(1/L) * sum of sqrt of the J kept weights plus
    sqrt((1 - J/L) * tail mass); both terms are assembled in log2 space.
    """
    result, j = _concentration(ls, L)
    return ConversionResult(result.fidelity, result.error, flatten_index_J=ls.starts[j])


def _dilution_mass(ls_target: LeveledSpectrum, L: int) -> float:
    """The top-``L`` mass that :func:`dilution_fidelity` reads, whose
    complement 1 - mass is the dilution error, without building a result.
    The fidelity, its square root, cannot be recovered bit for bit from the
    error where the mass is below 1/2, so the mass is what is shared."""
    if L < 1:
        raise InvalidDimension(f"source dimension must be >= 1, got {L}")
    return prefix_mass(ls_target, L)


def dilution_fidelity(ls_target: LeveledSpectrum, L: int) -> ConversionResult:
    """Optimal fidelity for preparing the spectrum's state from a maximally
    entangled source of dimension ``L``: the square root of the top-L mass."""
    mass = _dilution_mass(ls_target, L)
    return ConversionResult(
        fidelity=math.sqrt(mass),
        error=1.0 - mass,
        flatten_index_J=None,
    )


def dense_power_spectrum(probs: Sequence[float], n: int) -> np.ndarray:
    """All rank^n eigenvalue products of the n-fold power, sorted descending.

    The dense reference for small n that the leveled spectrum is checked
    against.
    """
    spec = np.ones(1)
    base = np.asarray(probs, dtype=np.float64)
    for _ in range(n):
        spec = np.multiply.outer(spec, base).ravel()
    return np.sort(spec)[::-1]


def dense_flatten_index(probs: np.ndarray, L: int) -> int:
    """Flatten index J of a dense sorted spectrum, by a per-index scan.

    The reference for the flatten cut of ``concrec.spectrum._flatten_split``:
    the smallest j whose tail average covers the entry at j.  A relative
    slack of 1e-12 keeps exact mathematical ties from flipping on the float
    rounding of the tail subtraction; the last candidate is forced because
    the condition holds at j = L - 1 in exact arithmetic.
    """
    full = np.zeros(max(L + 1, probs.size))
    full[: probs.size] = probs
    prefix = np.concatenate(([0.0], np.cumsum(full)))
    js = np.arange(L)
    cond = (prefix[-1] - prefix[js]) / (L - js) >= full[js] * (1.0 - 1e-12) - 1e-15
    cond[L - 1] = True
    return int(np.argmax(cond))


def _majorizes(q: np.ndarray, prefix_p: np.ndarray, tol: float) -> bool:
    return bool(np.all(np.cumsum(q) >= prefix_p - tol))


def brute_force_fidelity(p: Union[SchmidtVector, Sequence[float]], L: int) -> float:
    """Independent oracle for the optimal concentration fidelity.

    Maximizes sum_i sqrt(q_i / L) over sorted q of length L that majorize p,
    by constructing the keep-then-flatten vector, verifying its feasibility,
    and certifying local optimality under pairwise mass transfers of step
    1e-6 (the objective is concave over a polytope, so a local optimum is
    global).  If a transfer does improve the objective, the improved value
    is returned so the disagreement is visible to callers.
    """
    raw = p.probs if isinstance(p, SchmidtVector) else tuple(float(x) for x in p)
    if L < 1:
        raise InvalidDimension(f"target dimension must be >= 1, got {L}")
    if L > 8 or len(raw) > 8:
        raise DimensionTooLargeForOracle("oracle handles dimension and rank up to 8")
    probs = np.sort(np.asarray(raw, dtype=np.float64))[::-1]

    # Keep the top J weights and spread the rest evenly over the other slots.
    J = dense_flatten_index(probs, L)
    prefix = np.concatenate(([0.0], np.cumsum(probs)))
    eta = np.zeros(L)
    eta[:J] = probs[:J]
    eta[J:] = max(float(prefix[-1]) - float(prefix[J]), 0.0) / (L - J)
    padded = np.zeros(L)
    padded[: min(L, probs.size)] = probs[: min(L, probs.size)]
    prefix_p = np.cumsum(padded)
    if not _majorizes(eta, prefix_p, 1e-9):
        raise ArithmeticError("constructed flatten vector does not majorize the input")
    if np.any(np.diff(eta) > 1e-12) or abs(float(eta.sum()) - float(probs.sum())) > 1e-9:
        raise ArithmeticError("constructed flatten vector is not a sorted distribution")

    inv_sqrt_L = 1.0 / math.sqrt(L)
    best = float(np.sqrt(eta).sum()) * inv_sqrt_L
    step = 1e-6
    for i in range(L):
        if eta[i] < step:
            continue
        for j in range(L):
            if j == i:
                continue
            q = eta.copy()
            q[i] -= step
            q[j] += step
            q[::-1].sort()
            if q[-1] < -1e-15 or not _majorizes(q, prefix_p, 1e-12):
                continue
            candidate = float(np.sqrt(np.clip(q, 0.0, None)).sum()) * inv_sqrt_L
            if candidate > best:
                best = candidate
    return best
