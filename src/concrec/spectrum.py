"""Level-compressed spectra of tensor powers of a reduced state.

The eigenvalues of the n-fold tensor power of a diagonal state with
probabilities (p_1, ..., p_r) are the products prod_i p_i^{k_i} taken over
compositions (k_1, ..., k_r) of n.  Entries sharing the same exponent
pattern against the distinct base probabilities form one *level* (a type
class): a single eigenvalue with an exact multiplicity.  The whole spectrum
is therefore stored as a few per-level columns: log2 eigenvalues, exact
level start counts, and log2 prefix and suffix masses.  Multiplicities
and counts reach 2^3000 and beyond, so all counting is exact integer
arithmetic; masses live in log2 space and are accumulated with running
log-add in double precision, which keeps the total-mass drift around 1e-12
for spectra with thousands of levels.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    CountExceedsTotal,
    EmptyInput,
    NegativeEntry,
    NotNormalized,
    RankTooLargeForN,
)

NEG_INF = float("-inf")

# A build whose estimated peak (_build_bytes) exceeds this is refused up front.
BUILD_BUDGET_BYTES = 2 << 30

_RENORM_TOL = 1e-9
_MASS_GUARD = 1e-6


def log2_int(value: int) -> float:
    """Base-2 logarithm of a positive integer of any bit length.

    Uses the bit length plus a 53-bit mantissa, so the result is accurate to
    about one ulp even when ``value`` far exceeds the double range.
    """
    if value <= 0:
        raise ValueError("log2_int requires a positive integer")
    nbits = value.bit_length()
    if nbits <= 53:
        return math.log2(value)
    shift = nbits - 53
    return math.log2(value >> shift) + shift


def _exp2(x: float) -> float:
    """2**x as a float, saturating to inf instead of raising on overflow."""
    if x == NEG_INF:
        return 0.0
    try:
        return math.pow(2.0, x)
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class SchmidtVector:
    """Sorted squared Schmidt coefficients of a bipartite pure state.

    Attributes
    ----------
    probs : tuple of float
        Strictly positive probabilities in non-increasing order, summing
        to 1 within 1e-12.
    rank : int
        Number of entries (the Schmidt rank).
    """

    probs: tuple[float, ...]
    rank: int

    def __post_init__(self) -> None:
        if self.rank != len(self.probs):
            raise ValueError("rank must equal the number of entries")
        if not self.probs:
            raise EmptyInput("a Schmidt vector needs at least one entry")
        for a, b in zip(self.probs, self.probs[1:]):
            if b > a:
                raise ValueError("entries must be non-increasing")
        if self.probs[-1] <= 0.0:
            raise ValueError("entries must be strictly positive")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise NotNormalized("entries must sum to 1 within 1e-12")


def make_schmidt(probs: Sequence[float]) -> SchmidtVector:
    """Build a :class:`SchmidtVector` from raw probabilities.

    Zero entries are dropped, the rest are sorted in non-increasing order and
    renormalized, provided the input sum is within 1e-9 of 1.
    """
    entries = [float(p) for p in probs]
    if not entries:
        raise EmptyInput("no probabilities given")
    for p in entries:
        if not p >= 0.0:  # also rejects NaN
            raise NegativeEntry(f"not a non-negative probability: {p!r}")
    kept = [p for p in entries if p > 0.0]
    if not kept:
        raise EmptyInput("all probabilities are zero")
    total = math.fsum(kept)
    if abs(total - 1.0) > _RENORM_TOL:
        raise NotNormalized(f"probabilities sum to {total!r}, expected 1 within 1e-9")
    kept = [p / total for p in kept]
    kept.sort(reverse=True)
    return SchmidtVector(probs=tuple(kept), rank=len(kept))


@dataclass(frozen=True)
class Level:
    """One group of equal eigenvalues of a tensor-power spectrum."""

    log2_eigenvalue: float
    multiplicity: int
    cumulative_count: int


@dataclass(frozen=True, eq=False)
class LeveledSpectrum:
    """Sorted spectrum of ``(Tr_B psi)^{(x)n}`` stored as per-level columns.

    ``starts`` holds exact counts with a leading 0: level ``i`` covers the
    sorted entries ``starts[i] .. starts[i+1] - 1``, so its multiplicity is
    ``starts[i+1] - starts[i]`` and ``starts[-1]`` is the total count.
    ``prefix_log2_mass[i]`` is log2 of the total eigenvalue mass of levels
    ``0..i``; ``prefix_log2_sqrt_mass`` holds the analogous sums of square
    roots of eigenvalues.  ``suffix_log2_mass`` has one trailing ``-inf``
    sentinel so ``suffix_log2_mass[i]`` is always the mass of levels ``i..``.
    Instances are immutable; every query below is pure and safe to call
    concurrently.
    """

    base: SchmidtVector
    copies: int
    starts: tuple[int, ...]
    log2_eigenvalues: np.ndarray
    prefix_log2_mass: np.ndarray
    prefix_log2_sqrt_mass: np.ndarray
    suffix_log2_mass: np.ndarray

    @property
    def num_levels(self) -> int:
        return len(self.log2_eigenvalues)

    @property
    def total_count(self) -> int:
        return self.starts[-1]

    @property
    def levels(self) -> tuple[Level, ...]:
        """One :class:`Level` per level, built from the columns on each access."""
        s = self.starts
        return tuple(
            Level(eig, s[i + 1] - s[i], s[i + 1])
            for i, eig in enumerate(self.log2_eigenvalues.tolist())
        )


def _distinct_groups(sv: SchmidtVector) -> tuple[list[float], list[int]]:
    """Distinct probability values (by exact float equality) and group sizes."""
    values: list[float] = []
    sizes: list[int] = []
    for p in sv.probs:
        if values and p == values[-1]:
            sizes[-1] += 1
        else:
            values.append(p)
            sizes.append(1)
    return values, sizes


def _types(sizes: Sequence[int], n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """(exponent vector e, multiplicity) of every type class of n copies.

    Over distinct values with group sizes g the multiplicity is
    multinomial(n; e) * prod_i g_i^(e_i): choose which tensor factors fall
    in each value class, then which of the g_i equal entries each factor
    uses.  It splits into C(n, e_1) * g_1^(e_1) times the multiplicity of
    the remaining groups on n - e_1 copies, and the first factor follows
    e_1 down from n by an exact integer ratio.  When one group is left, its
    power g_2^(n - e_1) rides along in the same ratio, so a level of two
    groups costs products of a big integer by small ones only, never a
    fresh big power times a big factor.
    """
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
            for exps, mult in _types(rest, n - e):
                yield (e, *exps), head * mult
        head = head * e * h // ((n - e + 1) * g)


def _build_bytes(levels: int, n: int, rank: int) -> float:
    """Estimated build peak: about 270 B per level plus its n*log2(rank)-bit count."""
    return levels * (270 + n * math.log2(rank) / 8)


def power_spectrum(sv: SchmidtVector, n: int) -> LeveledSpectrum:
    """Leveled spectrum of the n-fold tensor power of ``diag(sv.probs)``.

    Raises
    ------
    RankTooLargeForN
        If the estimated build peak exceeds ``BUILD_BUDGET_BYTES``.
    """
    if n < 0:
        raise ValueError("copy count must be non-negative")
    values, sizes = _distinct_groups(sv)
    n_levels = math.comb(n + len(values) - 1, len(values) - 1)
    need = _build_bytes(n_levels, n, sv.rank)
    if need > BUILD_BUDGET_BYTES:
        raise RankTooLargeForN(
            f"{n_levels} levels for rank {sv.rank} at n={n} need about "
            f"{need / 2**30:.1f} GiB to build, over the {BUILD_BUDGET_BYTES >> 30} GiB budget"
        )

    # Numerically equal eigenvalues from different exponent vectors are
    # deliberately kept separate: every downstream quantity depends only on
    # the eigenvalue multiset, and the exponent vector gives a deterministic
    # secondary sort key.  fsum rounds each eigenvalue once from its exact
    # terms for any number of distinct values, and gives +0.0 at n = 0.
    log2_values = [math.log2(v) for v in values]
    entries = sorted(
        (
            (math.fsum(e * lv for e, lv in zip(exps, log2_values)), exps, mult)
            for exps, mult in _types(sizes, n)
        ),
        key=lambda item: (-item[0], item[1]),
    )
    log2_eigs = np.array([eig for eig, _, _ in entries], dtype=np.float64)
    log2_mults = np.empty(n_levels, dtype=np.float64)
    starts = [0]
    for i, (_, _, mult) in enumerate(entries):
        # Drop each big multiplicity once it is counted, so the spectrum's
        # big integers are never held twice.
        entries[i] = None
        log2_mults[i] = log2_int(mult)
        starts.append(starts[-1] + mult)
    if starts[-1] != sv.rank**n:
        raise ArithmeticError("level multiplicities do not sum to rank^n")

    level_log2_mass = log2_mults + log2_eigs
    level_log2_sqrt = log2_mults + 0.5 * log2_eigs

    prefix_mass = np.logaddexp2.accumulate(level_log2_mass)
    prefix_sqrt = np.logaddexp2.accumulate(level_log2_sqrt)
    suffix = np.empty(n_levels + 1, dtype=np.float64)
    suffix[-1] = NEG_INF
    suffix[:-1] = np.logaddexp2.accumulate(level_log2_mass[::-1])[::-1]
    if abs(prefix_mass[-1]) > _MASS_GUARD:
        raise ArithmeticError("spectrum mass drifted from 1; construction is broken")

    for arr in (log2_eigs, prefix_mass, prefix_sqrt, suffix):
        arr.flags.writeable = False
    return LeveledSpectrum(
        base=sv,
        copies=n,
        starts=tuple(starts),
        log2_eigenvalues=log2_eigs,
        prefix_log2_mass=prefix_mass,
        prefix_log2_sqrt_mass=prefix_sqrt,
        suffix_log2_mass=suffix,
    )


def _log2_split(
    ls: LeveledSpectrum, count: int, whole: np.ndarray, weight: float, tail: bool
) -> float:
    """log2 of the sum of eigenvalue**weight over the top ``count`` entries,
    or over the entries after them when ``tail`` is set.

    ``whole`` holds the matching sums over whole levels: a prefix column for
    the top entries, ``suffix_log2_mass`` for the rest.  Needs
    ``0 <= count <= total``, and ``count >= 1`` for the top entries.
    """
    starts = ls.starts
    i = bisect_right(starts, count) - 1  # the level that holds entry count + 1
    kept = count - starts[i]  # entries of level i among the top count
    if kept == 0:
        return float(whole[i] if tail else whole[i - 1])
    if tail:
        rest, piece = whole[i + 1], starts[i + 1] - count
    else:
        rest, piece = (whole[i - 1] if i else NEG_INF), kept
    partial = log2_int(piece) + weight * ls.log2_eigenvalues[i]
    return float(np.logaddexp2(rest, partial))


def log2_prefix_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the sum of the top ``count`` eigenvalues; clamps beyond total."""
    if count <= 0:
        return NEG_INF
    return _log2_split(ls, min(count, ls.total_count), ls.prefix_log2_mass, 1.0, False)


def log2_prefix_sqrt_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the sum of sqrt(eigenvalue) over the top ``count`` entries."""
    if count < 0:
        raise ValueError("count must be non-negative")
    if count > ls.total_count:
        raise CountExceedsTotal(f"count {count} exceeds total {ls.total_count}")
    if count == 0:
        return NEG_INF
    return _log2_split(ls, count, ls.prefix_log2_sqrt_mass, 0.5, False)


def log2_tail_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the eigenvalue mass strictly after the top ``count`` entries."""
    count = min(max(count, 0), ls.total_count)
    return _log2_split(ls, count, ls.suffix_log2_mass, 1.0, True)


def prefix_mass(ls: LeveledSpectrum, count: int) -> float:
    """Sum of the top ``count`` sorted eigenvalues, in [0, 1].

    Counts beyond the total clamp to the full mass.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return min(1.0, _exp2(log2_prefix_mass(ls, count)))


def prefix_sqrt_mass(ls: LeveledSpectrum, count: int) -> float:
    """Sum of sqrt(eigenvalue) over the top ``count`` entries.

    The linear value overflows to inf for very large tensor powers; use
    :func:`log2_prefix_sqrt_mass` there.
    """
    return _exp2(log2_prefix_sqrt_mass(ls, count))


def level_boundaries(ls: LeveledSpectrum) -> list[tuple[int, float]]:
    """Candidate cut positions for the flatten-index search.

    Returns ``(cut, log2 eigenvalue of the entry just after the cut)`` pairs,
    one per entry of ``starts``, the final pair carrying a ``-inf``
    eigenvalue because nothing follows the last level.
    """
    return list(zip(ls.starts, ls.log2_eigenvalues.tolist() + [NEG_INF]))
