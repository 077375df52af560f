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
The log2 eigenvalues are one numpy product of that array with the log2
values, summed along each row: a single float addition rounds a sum of
one or two terms exactly as ``math.fsum`` does, while three or more terms
keep ``math.fsum`` per row, since a plain float sum could round twice.
One ``np.lexsort`` orders the levels by descending eigenvalue, then by
exponent vector.  Every build, full or partial, hands its sorted levels to
one function, ``_assemble``, which accumulates the mass columns and checks
the total mass.

A reader of only the top entries, such as dilution from an L-dimensional
maximally entangled state, may ask for a *partial* spectrum of a rank-2
state with unequal entries: the heaviest levels only, down to the first one
that passes a given entry count.  For two values the ladder runs from the
heaviest level down, which is already the sorted order whenever the float
eigenvalues strictly decrease along it, so no sort is needed.  Its columns
(see :class:`LeveledSpectrum`) equal the leading entries of the full build
bit for bit, since ``np.logaddexp2.accumulate`` is a running sum.

The trade-off search reads the n-copy spectrum of such a state only near its
typical set, so it asks for the *head*: the same ladder from the heaviest
level, with every column, stopped past the mass peak.  The level masses M_k
change by the ratio r_k = (n - k + 1) / k * (b / a) for entries a > b, which
falls in k, so past the peak (r_k < 1) the levels from k on hold at most
M_{k-1} r_k / (1 - r_k).  The ladder stops at the first k where that bound
lies ``_HEAD_CUT`` = 160 bits below the heaviest level's mass.  The prefix
columns equal the full build's on every built level, since they run from
level 0; the suffix is accumulated over the built levels only, so it misses
the dropped tail.  A *guard* keeps the levels above the deepest one whose
suffix still lies ``_HEAD_GUARD`` = 100 bits above the bound: there the
dropped mass is far below the last bit of the running sum, and the two
accumulations agree from that level up.  The head holds the entries up to
the start of that level, its ``total_count``.  A cut of 60 bits was not
enough: the head's suffix then differed from the full build's 16 to 78
levels past the peak for n <= 1e4, inside the window that concentration
reads.  The full spectrum is built instead where a partial one would be,
where the ladder would pass n // 2 levels, and where the suffix at the guard
level lies above -1 (see ``_assemble``).

What a spectrum answers is decided in one place, ``_log2_split`` (the rule
is in :class:`LeveledSpectrum`), and what is built past it in another,
:func:`extend_spectrum`: a partial spectrum continues its ladder from its
last exact count, and a head, or a partial spectrum whose ladder cannot
continue, becomes the full build.

A head's memory is mostly its exact starts below the mass peak, 2.7 MB at
p = 0.077 and 16 MB at p = 0.24 for n = 3e4.  So it holds every start only
from its *band*, the first level of mass 2^-40 or more, on; before that, only
those of every 32nd level and of counts within 4096 bits.  Another start is
counted up from the nearest one held when first read (a search reads a few
dozen), and then held.  Where no start is left out, as at every n <= 4096,
the starts stay a plain tuple, which reads faster.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

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

# The head's cut and guard, in bits (see the module docstring).
_HEAD_CUT = 160
_HEAD_GUARD = 100

# A head's band and the starts held before it (see the module docstring).
_HEAD_BAND = 40
_HEAD_KNOT = 32
_HEAD_SMALL = 4096

# The count that asks power_spectrum for the head.
_HEAD = object()


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


@dataclass(frozen=True)
class SchmidtVector:
    """Sorted squared Schmidt coefficients of a bipartite pure state.

    Attributes
    ----------
    probs : tuple of float
        Probabilities in (0, 1] in non-increasing order, summing to 1
        within 1e-12.
    """

    probs: tuple[float, ...]

    @property
    def rank(self) -> int:
        """Number of entries (the Schmidt rank)."""
        return len(self.probs)

    def __post_init__(self) -> None:
        if not self.probs:
            raise EmptyInput("a Schmidt vector needs at least one entry")
        for a, b in zip(self.probs, self.probs[1:]):
            if b > a:
                raise ValueError("entries must be non-increasing")
        if not all(0.0 < p <= 1.0 for p in self.probs):  # also rejects NaN
            raise ValueError("entries must lie in (0, 1]")
        if abs(math.fsum(self.probs) - 1.0) > 1e-12:
            raise NotNormalized("entries must sum to 1 within 1e-12")


class _HeadStarts(Sequence[int]):
    """A head's exact level starts: ``band`` holds them from level ``first``
    on.  ``known`` maps levels before it to their (start, count), at first
    every ``_HEAD_KNOT``-th level; a start read there is counted up the
    ladder from the nearest known level below, and kept with its count.
    Besides an index, it takes only the cut ``[:stop]`` that ``_assemble``
    makes."""

    def __init__(self, n: int, known: dict[int, tuple[int, int]], band: tuple[int, ...], first: int):
        self._n, self._known, self._band, self._first = n, known, band, first

    def __len__(self) -> int:
        return self._first + len(self._band)

    def __getitem__(self, i):
        if isinstance(i, slice):
            first = min(self._first, i.stop)
            return _HeadStarts(self._n, self._known, self._band[: i.stop - first], first)
        if i < 0:
            i += len(self)
        if i >= self._first:
            return self._band[i - self._first]
        if i < 0:
            raise IndexError("level start index out of range")
        level = i
        while level not in self._known:
            level -= 1
        start, count = self._known[level]
        for level in range(level, i):
            start += count
            count = count * (self._n - level) // (level + 1)
        self._known[i] = start, count
        return start


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
    return SchmidtVector(probs=tuple(kept))


@dataclass(frozen=True, eq=False)
class LeveledSpectrum:
    """Sorted spectrum of ``(Tr_B psi)^{(x)n}`` stored as per-level columns.

    ``starts`` holds exact counts with a leading 0: level ``i`` covers the
    sorted entries ``starts[i] .. starts[i+1] - 1``, so its multiplicity is
    ``starts[i+1] - starts[i]`` and ``starts[-1]`` is the total count.  It
    is a tuple, except for a head whose early starts are counted when read
    (see the module docstring).
    ``prefix_log2_mass[i]`` is log2 of the total eigenvalue mass of levels
    ``0..i``; ``prefix_log2_sqrt_mass`` holds the analogous sums of square
    roots of eigenvalues.  ``suffix_log2_mass`` has one trailing ``-inf``
    sentinel so ``suffix_log2_mass[i]`` is always the mass of levels ``i..``.
    One function, ``_assemble``, computes these columns for every build.
    Instances are immutable, their array columns sealed read-only on
    construction; every query below is pure and safe to call concurrently
    (a head that counts a start when read keeps it, which changes no answer).

    A *partial* spectrum holds only the heaviest levels: their ``starts``,
    ``log2_eigenvalues`` and ``prefix_log2_mass``, with ``None`` for the
    square-root and suffix columns, so its ``total_count`` is the number of
    entries those levels hold.  A *head* (see the module docstring) has
    every column, and its last suffix entry is the mass of the levels it
    leaves out rather than the ``-inf`` sentinel.  Only a spectrum with every
    level is ``complete``.

    Every mass query (the prefix, square-root prefix and tail masses, and so
    the conversions) reads a count by one rule: a negative count raises
    ``ValueError``; past ``total_count`` a complete spectrum clamps, since the
    entries past its total are zero padding; an incomplete spectrum, or a
    column that was not built, raises ``CountExceedsTotal``; and a prefix of
    0 entries is -inf.  :func:`extend_spectrum` grows an incomplete spectrum
    until it answers a count.
    """

    base: SchmidtVector
    copies: int
    starts: Sequence[int]
    log2_eigenvalues: np.ndarray
    prefix_log2_mass: np.ndarray
    prefix_log2_sqrt_mass: Optional[np.ndarray]
    suffix_log2_mass: Optional[np.ndarray]

    def __post_init__(self) -> None:
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.flags.writeable = False

    @property
    def num_levels(self) -> int:
        return len(self.log2_eigenvalues)

    @property
    def total_count(self) -> int:
        return self.starts[-1]

    @property
    def complete(self) -> bool:
        return self.suffix_log2_mass is not None and bool(self.suffix_log2_mass[-1] == NEG_INF)


def _require_reach(ls: LeveledSpectrum, count: int, column: Optional[np.ndarray]) -> None:
    """Raise ``CountExceedsTotal`` unless ``ls`` answers a read of ``column``
    at ``count``: the column must be built, and only a complete spectrum
    answers counts past its total."""
    if column is None or (count > ls.total_count and not ls.complete):
        raise CountExceedsTotal(f"a read past the {ls.num_levels} built levels of the spectrum")


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
    decrease down the ladder (p within rounding of 1/2).  The private count
    ``_HEAD`` asks for the head (see the module docstring) in the same cases.

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
        if count is not _HEAD and count < 1:
            raise ValueError("count must be positive")
        if sizes == [1, 1]:
            partial = _leading_levels(sv, n, count, None)
            if partial is not None:
                return partial
    return _full_spectrum(sv, n)


def extend_spectrum(ls: LeveledSpectrum, count: int) -> LeveledSpectrum:
    """``ls`` grown until it answers ``count`` entries.

    Returns ``ls`` itself when it is complete or already holds them.  A
    partial spectrum continues its ladder from its last level, so no built
    level is computed again.  A head, or a partial spectrum whose ladder
    cannot continue (where :func:`power_spectrum` builds in full), becomes
    the full build.
    """
    if ls.complete or count <= ls.total_count:
        return ls
    if ls.suffix_log2_mass is None:
        longer = _leading_levels(ls.base, ls.copies, count, ls)
        if longer is not None:
            return longer
    return _full_spectrum(ls.base, ls.copies)


def _leading_levels(
    sv: SchmidtVector, n: int, count: int, built: Optional[LeveledSpectrum]
) -> Optional[LeveledSpectrum]:
    """Partial n-copy spectrum of a rank-2 state with unequal entries that
    holds at least ``count`` entries, from level 0 or continuing the partial
    spectrum ``built``, or its head for ``count`` ``_HEAD``; None where
    :func:`power_spectrum` builds in full.

    Level k holds the C(n, k) entries with k factors of the smaller value,
    and the ladder steps C(n, k) = C(n, k - 1) * (n - k + 1) // k exactly.
    The head's cut reads the level masses as the ladder makes them (see
    the module docstring).  In place of the full build's rank^n count check,
    the last count must equal ``math.comb(n, k)``.
    """
    head = count is _HEAD
    if not head and count >= 1 << n:
        return None
    # The eigenvalues of every level, so that the ladder order is known to
    # be the order the full build sorts them into, not only along the prefix.
    e = np.arange(n, -1, -1, dtype=np.int64)
    eigs = _log2_eigs(np.column_stack((e, n - e)), sv.probs)
    if not np.all(eigs[1:] < eigs[:-1]):
        return None
    starts, prefix = [0], eigs[:0]
    if built is not None:
        starts, prefix = list(built.starts), built.prefix_log2_mass
    k = len(starts) - 1
    mult = starts[-1] - starts[-2] if k else 0
    # log2 of each count as it is made, so that no count is held twice.
    logs: list[float] = []
    peak, tail = NEG_INF, None
    # Before a head's band, starts holds only the next level's start, and
    # knots the (start, count) of the levels whose start is held.
    knots: dict[int, tuple[int, int]] = {}
    ratio = sv.probs[1] / sv.probs[0]
    while head or starts[-1] < count:
        if head and k:
            r = (n - k + 1) / k * ratio
            mass = logs[-1] + eigs.item(k - 1)
            peak = max(peak, mass)
            if 0.0 < r < 1.0:  # r = 0 only past level n, at n = 0
                tail = mass + math.log2(r / (1.0 - r))
                if tail <= peak - _HEAD_CUT:
                    break
        if k > n // 2:
            return None
        mult = mult * (n - k + 1) // k if k else 1
        logs.append(log2_int(mult))
        if head and len(starts) == 1 and logs[-1] + eigs.item(k) < -_HEAD_BAND:
            if k % _HEAD_KNOT == 0 or mult.bit_length() <= _HEAD_SMALL:
                knots[k] = starts[0], mult
            starts[0] += mult
        else:
            starts.append(starts[-1] + mult)
        k += 1
    if mult != math.comb(n, k - 1):
        raise ArithmeticError("ladder count differs from the binomial count")
    log2_counts = np.array(logs, dtype=np.float64)
    first = k + 1 - len(starts)
    if len(knots) == first:  # every start before the band is held: a plain tuple
        kept = (*(start for start, _ in knots.values()), *starts)
    else:
        kept = _HeadStarts(n, knots, tuple(starts), first)
    return _assemble(sv, n, kept, eigs[:k].copy(), log2_counts, prefix, tail)


def _full_spectrum(sv: SchmidtVector, n: int) -> LeveledSpectrum:
    """Every level of the n-copy spectrum, with every column."""
    values, sizes = _distinct_groups(sv)
    # Numerically equal eigenvalues from different exponent vectors are
    # deliberately kept separate: every downstream quantity depends only on
    # the eigenvalue multiset, and the exponent vector gives a deterministic
    # secondary sort key.
    exps, mults = _type_columns(sizes, n)
    eigs = _log2_eigs(exps, values)
    order = np.lexsort((*exps.T[::-1], -eigs))
    log2_mults = np.fromiter(map(log2_int, mults), dtype=np.float64)[order]
    mults = [mults[i] for i in order.tolist()]
    # Pop each big multiplicity as it is counted, down to the None put under
    # them, so the spectrum's big integers are never held twice.
    mults.append(None)
    mults.reverse()
    starts = tuple(itertools.accumulate(iter(mults.pop, None), initial=0))
    if starts[-1] != sv.rank**n:
        raise ArithmeticError("level multiplicities do not sum to rank^n")
    return _assemble(sv, n, starts, eigs[order], log2_mults, eigs[:0], NEG_INF)


def _assemble(
    sv: SchmidtVector,
    n: int,
    starts: Sequence[int],
    log2_eigs: np.ndarray,
    log2_counts: np.ndarray,
    built: np.ndarray,
    tail: Optional[float],
) -> Optional[LeveledSpectrum]:
    """The spectrum of sorted levels: ``starts``, their log2 eigenvalues and,
    for the levels after the ``built`` prefix column (empty unless a partial
    spectrum is continued), their log2 counts.

    ``tail`` is None for a partial spectrum, which gets the prefix column
    only.  Otherwise it bounds the log2 mass of the levels left out: -inf
    for the full build, finite for a head.  Both get the square-root prefix
    and suffix columns, and a head keeps only the levels its guard admits,
    or is None where the suffix at the guard level lies above -1.  Near 0
    the float spacing shrinks without bound, so there a dropped tail of any
    size can move the last bit (p = 1e-300 at n = 3000).  The mass guard
    refuses a partial prefix above 1, or any other total away from 1, by
    more than ``_MASS_GUARD``, and refuses a NaN total.
    """
    mass = log2_counts + log2_eigs[len(built):]
    # Seeded with the last built prefix value, the running log-add continues
    # exactly where the built levels stopped.
    acc = np.logaddexp2.accumulate(np.concatenate((built[-1:], mass)))
    prefix = np.concatenate((built[:-1], acc))
    if not (prefix[-1] if tail is None else abs(prefix[-1])) <= _MASS_GUARD:
        raise ArithmeticError("spectrum mass drifted from 1; construction is broken")
    if tail is None:
        return LeveledSpectrum(sv, n, starts, log2_eigs, prefix, None, None)
    sqrt = np.logaddexp2.accumulate(log2_counts + 0.5 * log2_eigs)
    suffix = np.append(np.logaddexp2.accumulate(mass[::-1])[::-1], NEG_INF)
    # The levels above the deepest whose suffix lies _HEAD_GUARD bits above
    # the bound, found by bisection, since a running log-add never falls.
    # A full build keeps every level: its suffix ends at -inf, which the
    # bound -inf + _HEAD_GUARD admits.  Level 0 of a head passes, since the
    # cut puts the bound _HEAD_CUT bits below the heaviest level.
    floor = tail + _HEAD_GUARD
    k = bisect_left(range(len(suffix)), True, key=lambda i: float(suffix[i]) < floor) - 1
    if suffix[k] > -1.0:
        return None
    return LeveledSpectrum(
        base=sv,
        copies=n,
        starts=starts[: k + 1],
        log2_eigenvalues=log2_eigs[:k],
        prefix_log2_mass=prefix[:k],
        prefix_log2_sqrt_mass=sqrt[:k],
        suffix_log2_mass=suffix[: k + 1],
    )


def _log2_split(
    ls: LeveledSpectrum, count: int, whole: Optional[np.ndarray], weight: float, tail: bool
) -> float:
    """log2 of the sum of eigenvalue**weight over the top ``count`` entries,
    or over the entries after them when ``tail`` is set, by the read rule of
    :class:`LeveledSpectrum`.

    ``whole`` holds the matching sums over whole levels: a prefix column for
    the top entries, ``suffix_log2_mass`` for the rest.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    if whole is None or count > ls.total_count:
        _require_reach(ls, count, whole)
        count = ls.total_count
    starts = ls.starts
    i = bisect_right(starts, count) - 1  # the level that holds entry count + 1
    kept = count - starts[i]  # entries of level i among the top count
    if kept == 0:
        if tail:
            return float(whole[i])
        return float(whole[i - 1]) if i else NEG_INF
    if tail:
        rest, piece = whole[i + 1], starts[i + 1] - count
    else:
        rest, piece = (whole[i - 1] if i else NEG_INF), kept
    partial = log2_int(piece) + weight * ls.log2_eigenvalues[i]
    return float(np.logaddexp2(rest, partial))


def log2_prefix_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the sum of the top ``count`` eigenvalues."""
    return _log2_split(ls, count, ls.prefix_log2_mass, 1.0, False)


def log2_prefix_sqrt_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the sum of sqrt(eigenvalue) over the top ``count`` entries."""
    return _log2_split(ls, count, ls.prefix_log2_sqrt_mass, 0.5, False)


def log2_tail_mass(ls: LeveledSpectrum, count: int) -> float:
    """log2 of the eigenvalue mass strictly after the top ``count`` entries."""
    return _log2_split(ls, count, ls.suffix_log2_mass, 1.0, True)


def prefix_mass(ls: LeveledSpectrum, count: int) -> float:
    """Sum of the top ``count`` sorted eigenvalues, in [0, 1]."""
    return min(1.0, 2.0 ** log2_prefix_mass(ls, count))
