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

The build works on whole columns.  The exponent vectors form one int64
array and the multiplicities one list, from an exact ratio ladder that
takes one big-by-small product per level and, when the last two value
groups have equal sizes, runs only half its length and mirrors the rest.
When those are the only two groups (every qubit), the log2 of the counts
is taken over that half too.
The log2 eigenvalues are one numpy product of that array with the log2
values, summed along each row: a single float addition rounds a sum of
one or two terms exactly as ``math.fsum`` does, while three or more terms
keep ``math.fsum`` per row, since a plain float sum could round twice.
One ``np.lexsort`` orders the levels by descending eigenvalue, then by
exponent vector.

A reader of only the top entries, such as dilution from an L-dimensional
maximally entangled state, may ask for a *partial* spectrum of a rank-2
state with unequal entries: the heaviest levels only, down to the first one
that passes a given entry count.  For two values the ladder runs from the
heaviest level down, which is already the sorted order whenever the float
eigenvalues strictly decrease along it, so no sort is needed; and
:func:`extend_spectrum` continues the ladder from its last exact count.  A
partial spectrum holds ``starts``, the log2 eigenvalues and the prefix log2
mass of its levels, each equal bit for bit to the leading entries of the
full build, since ``np.logaddexp2.accumulate`` is a running sum.  It
answers prefix-mass queries up to its built count and raises
``CountExceedsTotal`` for any other query.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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

    A *partial* spectrum (``complete`` is False) holds only the heaviest
    levels: their ``starts``, ``log2_eigenvalues`` and ``prefix_log2_mass``,
    with ``None`` for the square-root and suffix columns, so its
    ``total_count`` is the number of entries those levels hold.  It answers
    ``log2_prefix_mass`` and ``prefix_mass`` (and so dilution) up to
    ``total_count``.  A larger count, and every other query, raises
    ``CountExceedsTotal``.
    """

    base: SchmidtVector
    copies: int
    starts: tuple[int, ...]
    log2_eigenvalues: np.ndarray
    prefix_log2_mass: np.ndarray
    prefix_log2_sqrt_mass: Optional[np.ndarray]
    suffix_log2_mass: Optional[np.ndarray]

    @property
    def num_levels(self) -> int:
        return len(self.log2_eigenvalues)

    @property
    def total_count(self) -> int:
        return self.starts[-1]

    @property
    def complete(self) -> bool:
        return self.suffix_log2_mass is not None


def _require_complete(ls: LeveledSpectrum, query: str) -> None:
    """Raise ``CountExceedsTotal`` when ``ls`` is partial: ``query`` reads
    past its built levels."""
    if not ls.complete:
        raise CountExceedsTotal(
            f"{query} reads past the {ls.num_levels} levels of a partial spectrum"
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


def _type_columns(sizes: Sequence[int], n: int) -> tuple[np.ndarray, list[int]]:
    """Exponent vectors and multiplicities of every type class of n copies.

    Returns an int64 array with one row e per type class, rows in
    descending lexicographic order of e, and the list of the matching
    multiplicities.  Over distinct values with group sizes g the
    multiplicity is multinomial(n; e) * prod_i g_i^(e_i): choose which
    tensor factors fall in each value class, then which of the g_i equal
    entries each factor uses.  It splits into C(n, e_1) * g_1^(e_1) times
    the multiplicity of the remaining groups on n - e_1 copies, and the
    first factor follows e_1 down from n by an exact integer ratio.  When
    one group is left, its power h^(n - e_1) rides along in the same ratio,
    folded into one step ``head * (e * h) // ((n - e + 1) * g)``: a big
    integer times a small one, then divided by a small one.  When the last
    two groups have equal sizes (every qubit), the counts are g^n C(n, e),
    symmetric in e <-> n - e, so only half the ladder is run and the other
    half is its mirror image.
    """
    g, rest = sizes[0], sizes[1:]
    if not rest:
        return np.array([[n]], dtype=np.int64), [g**n]
    if len(rest) == 1:
        h = rest[0]
        e_col = np.arange(n, -1, -1, dtype=np.int64)
        head = g**n
        mults = [head]
        for e in range(n, n - n // 2 if g == h else 0, -1):
            head = head * (e * h) // ((n - e + 1) * g)
            mults.append(head)
        if g == h:
            # Fresh ints (m + 0), not shared references.  The build frees each
            # count as it is summed; a shared object is freed only at its
            # second pop.  For a qubit at n = 3e4 sharing left tracemalloc's
            # peak as it was but raised ru_maxrss from 133 to 148 MB.
            mults.extend(m + 0 for m in reversed(mults[: (n + 1) // 2]))
        return np.column_stack((e_col, n - e_col)), mults
    blocks, mults = [], []
    head = g**n
    for e in range(n, -1, -1):
        sub_exps, sub_mults = _type_columns(rest, n - e)
        blocks.append(np.column_stack((np.full(len(sub_mults), e, dtype=np.int64), sub_exps)))
        mults.extend(head * m for m in sub_mults)
        head = head * e // ((n - e + 1) * g)
    return np.concatenate(blocks), mults


def _log2_counts(counts: Iterable[int]) -> np.ndarray:
    """log2_int of each count, inlined: a call per level would cost about as
    much as its work."""
    return np.array(
        [
            math.log2(m) if (b := m.bit_length()) <= 53 else math.log2(m >> (b - 53)) + (b - 53)
            for m in counts
        ],
        dtype=np.float64,
    )


def _build_bytes(levels: int, n: int, rank: int) -> float:
    """Estimated build peak: about 180 B per level plus its n*log2(rank)-bit count."""
    return levels * (180 + n * math.log2(rank) / 8)


def _log2_eigs(exps: np.ndarray, values: Sequence[float]) -> np.ndarray:
    """log2 eigenvalue of each row of exponents against the distinct values.

    Each is the exactly rounded sum of its products e * log2(value), which
    numpy forms exactly as Python floats do.  For one or two distinct values
    a single float addition is that rounded sum, taken column by column
    (numpy's row sum over two columns is several times slower); + 0.0 makes
    a -0.0 sum (all products -0.0 at n = 0) the +0.0 that fsum gives.  Three
    or more terms need fsum.
    """
    if len(values) <= 2:
        return sum(exps[:, j] * math.log2(v) for j, v in enumerate(values)) + 0.0
    prods = exps * np.array([math.log2(v) for v in values])
    # A few thousand rows at a time: one list of lists for the whole
    # array raised ru_maxrss by 4 MB at rank 3, n = 300.
    return np.array(
        [math.fsum(row) for i in range(0, len(prods), 4096) for row in prods[i : i + 4096].tolist()],
        dtype=np.float64,
    )


def power_spectrum(sv: SchmidtVector, n: int, count: Optional[int] = None) -> LeveledSpectrum:
    """Leveled spectrum of the n-fold tensor power of ``diag(sv.probs)``.

    Given ``count``, a rank-2 state with unequal entries gets a
    partial spectrum (see :class:`LeveledSpectrum`): its heaviest levels,
    down to the first that brings the entries held to ``count`` or more.
    The full spectrum is built instead when ``count`` reaches ``2**n``, when
    those levels pass the first half of the ladder (n // 2 + 1 levels, the
    half the full build runs), or when the float eigenvalues do not strictly
    decrease down the ladder (p within rounding of 1/2).

    Raises
    ------
    RankTooLargeForN
        If the estimated peak of the full build exceeds ``BUILD_BUDGET_BYTES``.
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
    if count is not None:
        if count < 1:
            raise ValueError("count must be positive")
        if sizes == [1, 1]:
            partial = _leading_levels(sv, n, count, None)
            if partial is not None:
                return partial
    return _full_spectrum(sv, n, values, sizes)


def extend_spectrum(ls: LeveledSpectrum, count: int) -> LeveledSpectrum:
    """``ls`` built far enough down to hold its top ``count`` entries.

    Returns ``ls`` itself when it is complete or already holds them.  A
    partial spectrum is continued from its last level, so no built level is
    computed again, or replaced by the full build in the cases where
    :func:`power_spectrum` builds in full.
    """
    if ls.complete or count <= ls.total_count:
        return ls
    longer = _leading_levels(ls.base, ls.copies, count, ls)
    if longer is not None:
        return longer
    values, sizes = _distinct_groups(ls.base)
    return _full_spectrum(ls.base, ls.copies, values, sizes)


def _leading_levels(
    sv: SchmidtVector, n: int, count: int, built: Optional[LeveledSpectrum]
) -> Optional[LeveledSpectrum]:
    """Partial n-copy spectrum of a rank-2 state with unequal entries that
    holds at least ``count`` entries, from level 0 or continuing the partial
    spectrum ``built``; None where :func:`power_spectrum` builds in full.

    Level k holds the C(n, k) entries with k factors of the smaller value,
    and the ladder steps C(n, k) = C(n, k - 1) * (n - k + 1) // k exactly.
    In place of the full build's rank^n count check and total-mass guard,
    the last count must equal ``math.comb(n, k)`` and the prefix log2 mass
    must stay within the mass guard of 0.
    """
    if count >= 1 << n:
        return None
    # The eigenvalues of every level, so that the ladder order is known to
    # be the order the full build sorts them into, not only along the prefix.
    e = np.arange(n, -1, -1, dtype=np.int64)
    eigs = _log2_eigs(np.column_stack((e, n - e)), sv.probs)
    if not np.all(eigs[1:] < eigs[:-1]):
        return None
    if built is None:
        starts, head, prefix = [0], 0, eigs[:0]
    else:
        starts, prefix = list(built.starts), built.prefix_log2_mass
        head = starts[-1] - starts[-2]
    k0 = k = len(starts) - 1
    heads = []
    while starts[-1] < count:
        if k > n // 2:
            return None
        head = head * (n - k + 1) // k if k else 1
        heads.append(head)
        starts.append(starts[-1] + head)
        k += 1
    if head != math.comb(n, k - 1):
        raise ArithmeticError("ladder count differs from the binomial count")
    # Seeded with the last built prefix value, the running log-add continues
    # exactly where the built levels stopped.
    masses = _log2_counts(heads) + eigs[k0:k]
    tail = np.logaddexp2.accumulate(np.concatenate((prefix[-1:], masses)))
    prefix = np.concatenate((prefix[:-1], tail))
    if prefix[-1] > _MASS_GUARD:
        raise ArithmeticError("spectrum mass exceeds 1; construction is broken")
    log2_eigs = eigs[:k].copy()
    for arr in (log2_eigs, prefix):
        arr.flags.writeable = False
    return LeveledSpectrum(
        base=sv,
        copies=n,
        starts=tuple(starts),
        log2_eigenvalues=log2_eigs,
        prefix_log2_mass=prefix,
        prefix_log2_sqrt_mass=None,
        suffix_log2_mass=None,
    )


def _full_spectrum(
    sv: SchmidtVector, n: int, values: Sequence[float], sizes: Sequence[int]
) -> LeveledSpectrum:
    """Every level of the n-copy spectrum, with every column."""
    # Numerically equal eigenvalues from different exponent vectors are
    # deliberately kept separate: every downstream quantity depends only on
    # the eigenvalue multiset, and the exponent vector gives a deterministic
    # secondary sort key.
    exps, mults = _type_columns(sizes, n)
    eigs = _log2_eigs(exps, values)
    order = np.lexsort((*exps.T[::-1], -eigs))
    log2_eigs = eigs[order]
    # Symmetric counts (see _type_columns): row i holds the count of row
    # n - i, so the log2 of the first half, gathered, gives every level's.
    if len(sizes) == 2 and sizes[0] == sizes[1]:
        half = itertools.islice(mults, n // 2 + 1)
        log2_mults = _log2_counts(half)[np.minimum(order, n - order)]
    else:
        log2_mults = _log2_counts(mults)[order]
    mults = [mults[i] for i in order.tolist()]
    # Pop each big multiplicity as it is counted, down to the None put under
    # them, so the spectrum's big integers are never held twice.
    mults.append(None)
    mults.reverse()
    starts = tuple(itertools.accumulate(iter(mults.pop, None), initial=0))
    if starts[-1] != sv.rank**n:
        raise ArithmeticError("level multiplicities do not sum to rank^n")

    level_log2_mass = log2_mults + log2_eigs
    level_log2_sqrt = log2_mults + 0.5 * log2_eigs

    prefix_mass = np.logaddexp2.accumulate(level_log2_mass)
    prefix_sqrt = np.logaddexp2.accumulate(level_log2_sqrt)
    suffix = np.empty(len(log2_eigs) + 1, dtype=np.float64)
    suffix[-1] = NEG_INF
    suffix[:-1] = np.logaddexp2.accumulate(level_log2_mass[::-1])[::-1]
    if abs(prefix_mass[-1]) > _MASS_GUARD:
        raise ArithmeticError("spectrum mass drifted from 1; construction is broken")

    for arr in (log2_eigs, prefix_mass, prefix_sqrt, suffix):
        arr.flags.writeable = False
    return LeveledSpectrum(
        base=sv,
        copies=n,
        starts=starts,
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
    """log2 of the sum of the top ``count`` eigenvalues.

    Beyond the total, a complete spectrum clamps and a partial one raises
    ``CountExceedsTotal``.
    """
    if count <= 0:
        return NEG_INF
    if count > ls.total_count:
        _require_complete(ls, f"a prefix of {count} entries")
        count = ls.total_count
    return _log2_split(ls, count, ls.prefix_log2_mass, 1.0, False)


def log2_prefix_sqrt_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the sum of sqrt(eigenvalue) over the top ``count`` entries."""
    if count < 0:
        raise ValueError("count must be non-negative")
    _require_complete(ls, "the square-root mass")
    if count > ls.total_count:
        raise CountExceedsTotal(f"count {count} exceeds total {ls.total_count}")
    if count == 0:
        return NEG_INF
    return _log2_split(ls, count, ls.prefix_log2_sqrt_mass, 0.5, False)


def log2_tail_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the eigenvalue mass strictly after the top ``count`` entries."""
    _require_complete(ls, "the tail mass")
    count = min(max(count, 0), ls.total_count)
    return _log2_split(ls, count, ls.suffix_log2_mass, 1.0, True)


def prefix_mass(ls: LeveledSpectrum, count: int) -> float:
    """Sum of the top ``count`` sorted eigenvalues, in [0, 1].

    Counts beyond the total clamp to the full mass on a complete spectrum
    and raise ``CountExceedsTotal`` on a partial one.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return min(1.0, _exp2(log2_prefix_mass(ls, count)))
