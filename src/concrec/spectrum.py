"""Level-compressed spectra of tensor powers of a reduced state.

The eigenvalues of the n-fold tensor power of a diagonal state with
probabilities (p_1, ..., p_r) are the products prod_i p_i^{k_i} taken over
compositions (k_1, ..., k_r) of n.  Entries sharing the same exponent
pattern against the distinct base probabilities form one *level* (a type
class): a single eigenvalue with an exact multiplicity.  The whole spectrum
is therefore stored as a few per-level columns: log2 eigenvalues, level
start counts, and log2 prefix and suffix masses.  Multiplicities and counts
reach 2^3000 and beyond.  Counting is exact where an integer is output or
a bound cannot decide: the full build counts in exact integers, and the
rank-2 ladder below in certified fixed precision.  Masses live in log2
space and are accumulated with running log-add in double precision, which
keeps the total-mass drift around 1e-12 for spectra with thousands of
levels.

The build works on whole columns.  The exponent vectors form one int64
array, each column one ``np.repeat`` over the rows before it.  The
multiplicities form one list, from an exact ratio ladder per value group
that takes one big-by-small product per level: the running count of the
groups before is the start of the next group's ladder, folded into its
counts rather than multiplied into each.  ``log2_int`` of each count is
taken as the ladder makes it, and when the last two value groups have equal
sizes the ladder runs only half its length and mirrors both the counts and
their log2 values.  The log2 eigenvalues are one numpy product of that
array with the log2 values, summed along each row and rounded once, as
``math.fsum`` rounds: by one float addition for one or two terms, and for
three or more by TwoSum, column by column, whose error terms carry the
exact sum (see ``_log2_eigs``).  One stable ``np.argsort`` of the rows in
reverse orders the levels by descending eigenvalue, then by ascending
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
last level, and a head, or a partial spectrum whose ladder cannot continue,
becomes the full build.

*Certified counts.*  Partial spectra and heads run their ladder on a P-bit
mantissa and an exponent, P = ``_MANTISSA``.  Each step multiplies the
mantissa of C(n, k - 1) by n - k + 1, floor-divides it by k and truncates
it to P bits.  The running start is kept at the count's exponent, so it is
truncated to that exponent's multiples as the count is, and each start is
held truncated to P bits.  These roundings only lower a value, so every
count and start is a lower bound m 2^e of the exact one.  In one step the
division loses less than one unit 2^e of the old last bit, and the
truncation by s bits at most 2^(e+s) - 2^e, so together less than one unit
of the new last bit.  Once a value is truncated its mantissa has P bits, so
that unit is at most u = 2^(1-P) of the value; before, every value is
exact.  So a count after k steps is C_k <= a_k (1 + u)^k.  The running sum
of k such counts loses less than u of each new count, and so of the new
sum, at each of its k steps, and the held start u of itself more; so the
start of level k is S_k <= s_k (1 + u)^(2k).  Since (1 + u)^N - 1 <= 2 N u
while N u <= 1, and m < 2^P, the exact count lies in [m 2^e, (m + 4k) 2^e]
and the exact start in [m 2^e, (m + 8k) 2^e], for k <= 2^(P - 2); a value
with e = 0 is exact.  Each start's bound is held packed as e 2^P + m, so
that integer order is the order of the bounds, and a level is found by one
bisection of a plain list.  A read answers from these intervals where they
decide it: a comparison with a count where the interval lies on one side of
it, and ``log2_int`` of a count, or of a count minus a start, where both
ends have the same bit length and top 53 bits, so that the exact value has
them too.  Otherwise the read counts exactly: the exact ladder runs from
level 0 up to the level read, once per spectrum, and keeps what it counted.
At P = 128 the bounds have decided every read of every trade-off search
tried, up to n = 1e5.  ``math.comb(n, k)`` must lie in the interval of each
ladder's last count.

A ladder spectrum thus holds no count of n bits: its ``starts`` are exact
only when read (see :class:`LeveledSpectrum`).  The ladder needs the float
eigenvalues to strictly decrease along it, over every level, not only those
it builds.  They do where the step log2(a / b) exceeds twice the rounding
error of any eigenvalue: each is two products and a sum, each rounded, of
terms at most n |log2 b| in size, so its error is below 2^-51 n |log2 b|,
and the ladder checks log2(a / b) > 2^-49 n |log2 b|.  Only where that
fails does it compute every eigenvalue and check them.
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

# The mantissa bits of a ladder's certified counts (see the module docstring).
_MANTISSA = 128

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


class _LadderStarts(Sequence[int]):
    """The level starts of a ladder spectrum: exact when read, and held as
    the certified bounds that the library's reads use (see the module
    docstring).

    ``lo[k]`` packs the lower bound m 2^e of start k as e 2^bits + m, so that
    integer order is the order of the bounds.  ``known`` holds the exact
    starts counted so far, from level 0 up, and the exact count of the
    highest of those levels.  A read past them counts on from there into a
    new list and publishes it, with its count, in one assignment, so a
    concurrent read sees one pair or the other, and threads that count the
    same levels publish equal values.  ``last`` is the state that a partial
    spectrum's ladder continues from: the bound m 2^e of the last level's
    count as (e, m), and the running start at that exponent.
    The cut ``[:stop]`` that ``_assemble`` makes is again a ladder's
    starts; any other slice is a tuple of exact starts.
    """

    def __init__(self, n: int, bits: int, lo: list[int], known: tuple[list[int], int]):
        self.n, self.bits, self.lo, self.known = n, bits, lo, known
        self.last: Optional[tuple[int, int, int]] = None

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.start is None and i.step is None:
                return _LadderStarts(self.n, self.bits, self.lo[i], self.known)
            return tuple(self)[i]
        if i < 0:
            i += len(self.lo)
        if not 0 <= i < len(self.lo):
            raise IndexError("level start index out of range")
        return self.exact(i)[0][i]

    def exact(self, i: int) -> tuple[list[int], int]:
        """``known``, counted on to level ``i`` where it stops below it."""
        starts, count = self.known
        if i >= len(starts):
            starts, start = starts.copy(), starts[-1]
            for level in range(len(starts) - 1, i):
                start += count
                count = count * (self.n - level) // (level + 1)
                starts.append(start)
            self.known = starts, count
        return starts, count

    def pack(self, count: int) -> int:
        """``count`` rounded down to the bounds' precision and packed like
        them: a bound is at most the one where it is at most the other."""
        e = count.bit_length() - self.bits
        return count if e <= 0 else e << self.bits | count >> e

    def bound(self, j: int) -> tuple[int, int, int]:
        """(e, m, w) such that start ``j`` lies in [m 2^e, (m + w) 2^e]."""
        packed = self.lo[j]
        e = packed >> self.bits
        return e, packed & ((1 << self.bits) - 1), 8 * j if e else 0


def _log2_between(x: int, y: int, e: int) -> Optional[float]:
    """``log2_int`` of every integer in [x 2^e, (y + 1) 2^e), for 0 < x <= y,
    or None where it may differ between them.  It is the same for all of
    them where x and y have the same bit length, at least 53, and the same
    top 53 bits."""
    shift = x.bit_length() - 53
    if shift >= 0 and x >> shift == y >> shift:
        return math.log2(x >> shift) + (shift + e)
    return None


def _at_most(starts: Sequence[int], j: int, count: int) -> bool:
    """Whether ``starts[j] <= count``, for count >= 0."""
    if isinstance(starts, _LadderStarts):
        e, m, w = starts.bound(j)
        q = (count >> e) - m
        if q < 0:  # count < m 2^e
            return False
        if q >= w:  # (m + w) 2^e <= count
            return True
    return starts[j] <= count


def _split(starts: Sequence[int], count: int) -> tuple[int, float]:
    """The last level i with ``starts[i] <= count``, for count >= 0, which
    holds entry count + 1, and ``log2_int(count - starts[i])``, or -inf where
    they are equal."""
    if not isinstance(starts, _LadderStarts):
        i = bisect_right(starts, count) - 1
        start = starts[i]
    else:
        i = bisect_right(starts.lo, starts.pack(count)) - 1  # the last bound <= count
        e, start, w = starts.bound(i)
        if e:
            q = (count >> e) - start
            if q > w:  # count - starts[i] lies in [(q - w) 2^e, (q + 1) 2^e)
                log2 = _log2_between(q - w, q, e)
                if log2 is not None:
                    return i, log2
            i = bisect_right(range(i + 1), count, key=starts.__getitem__) - 1
            start = starts[i]
    kept = count - start
    return i, log2_int(kept) if kept else NEG_INF


def _log2_gap(starts: Sequence[int], j: int, count: int) -> float:
    """``log2_int(abs(count - starts[j]))``, or -inf where they are equal."""
    if isinstance(starts, _LadderStarts):
        e, m, w = starts.bound(j)
        q, log2 = (count >> e) - m, None
        if q > w:  # count - starts[j] lies in [(q - w) 2^e, (q + 1) 2^e)
            log2 = _log2_between(q - w, q, e)
        elif q < -1:  # starts[j] - count lies in [(-q - 1) 2^e, (w - q + 1) 2^e)
            log2 = _log2_between(-q - 1, w - q, e)
        if log2 is not None:
            return log2
        start = starts[j] if e else m  # with e = 0 the bound is exact
    else:
        start = starts[j]
    gap = abs(count - start)
    return log2_int(gap) if gap else NEG_INF


def _covers(ls: LeveledSpectrum, count: int) -> bool:
    """Whether ``count <= ls.total_count``, for count >= 0."""
    return not _at_most(ls.starts, len(ls.starts) - 1, count - 1)


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
    is a tuple, except for a partial spectrum or a head, whose ladder holds
    certified bounds on the starts (see the module docstring).  Counting is
    exact where an integer is output or a bound cannot decide: every start
    read from ``starts`` is counted exactly, from level 0 up, on first read,
    while the queries below read the bounds where they decide.
    ``prefix_log2_mass[i]`` is log2 of the total eigenvalue mass of levels
    ``0..i``; ``prefix_log2_sqrt_mass`` holds the analogous sums of square
    roots of eigenvalues.  ``suffix_log2_mass`` has one trailing ``-inf``
    sentinel so ``suffix_log2_mass[i]`` is always the mass of levels ``i..``.
    One function, ``_assemble``, computes these columns for every build.
    Instances are immutable, their array columns sealed read-only on
    construction; every query below is pure and safe to call concurrently
    (a ladder spectrum keeps each start it counts, which changes no answer).

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
    if column is None or not (ls.complete or _covers(ls, count)):
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


def _type_columns(sizes: Sequence[int], n: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Exponent vectors, multiplicities and log2 multiplicities of every type
    class of n copies.

    Returns an int64 array with one row e per type class, rows in
    descending lexicographic order of e, the list of the matching
    multiplicities, and their ``log2_int`` values as a float64 array.  Each
    column of the exponent rows is one ``np.repeat`` over the rows before
    it: a row with s copies left gets s + 1 children, whose next entry runs
    from s down to 0.

    Over distinct values with group sizes g the multiplicity is
    multinomial(n; e) * prod_i g_i^(e_i): choose which tensor factors fall
    in each value class, then which of the g_i equal entries each factor
    uses.  It splits into C(n, e_1) * g_1^(e_1) times the multiplicity of
    the remaining groups on n - e_1 copies, and the first factor follows e_1
    down from n by an exact integer ratio.  That running factor is the start
    of the remaining groups' ladder, so it is folded into every count they
    make rather than multiplied into each.  When one group is left, its
    power h^(n - e_1) rides along in the same ratio, folded into one step
    ``head * (e * h) // ((n - e + 1) * g)``: a big integer times a small
    one, then divided by a small one, exactly, since the quotient is the
    next count.  When the last two groups have equal sizes (every qubit,
    and every state of distinct entries), the counts of a ladder are its
    start times g^n C(n, e), symmetric in e <-> n - e, so only half the
    ladder is run, and only its half of the log2 counts taken; the other
    half of both is the mirror image.
    """
    left, cols = np.array([n], dtype=np.int64), []
    for _ in sizes[1:]:
        width = left + 1
        rest = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        cols = [np.repeat(c, width) for c in cols] + [np.repeat(left, width) - rest]
        left = rest
    cols.append(left)
    mults: list[int] = []
    logs: list[float] = []
    _ladder(sizes, n, 1, mults, logs)
    return np.array(cols).T, mults, np.array(logs)


def _ladder(sizes: Sequence[int], n: int, head: int, mults: list[int], logs: list[float]) -> None:
    """Append to ``mults`` the multiplicity of every type class of the value
    groups ``sizes`` on n copies, times ``head``, and to ``logs`` their
    ``log2_int`` values, in the order and by the ladder of
    :func:`_type_columns`."""
    g, rest = sizes[0], sizes[1:]
    head *= g**n
    if not rest:
        mults.append(head)
        logs.append(log2_int(head))
    elif len(rest) > 1:
        for e in range(n, -1, -1):
            _ladder(rest, n - e, head, mults, logs)
            head = head * e // ((n - e + 1) * g)
    else:
        h, first = rest[0], len(mults)
        mults.append(head)
        for e in range(n, n - n // 2 if g == h else 0, -1):
            head = head * (e * h) // ((n - e + 1) * g)
            mults.append(head)
        logs.extend(map(log2_int, mults[first:]))
        if g == h:
            half = (n + 1) // 2
            # Fresh ints (m + 0), not shared references.  The build frees each
            # count as it is summed; a shared object is freed only at its
            # second pop.  For a qubit at n = 3e4 sharing left tracemalloc's
            # peak as it was but raised ru_maxrss from 133 to 148 MB.
            mults.extend(m + 0 for m in reversed(mults[first : first + half]))
            logs.extend(reversed(logs[first : first + half]))


def _build_bytes(levels: int, n: int, rank: int) -> float:
    """Estimated build peak: about 180 B per level plus its n*log2(rank)-bit count."""
    return levels * (180 + n * math.log2(rank) / 8)


def _two_sum(a, b):
    """a + b rounded, and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _log2_eigs(exps: np.ndarray, values: Sequence[float]) -> np.ndarray:
    """log2 eigenvalue of each row of exponents against the distinct values.

    Each is the correctly rounded sum of its products e * log2(value), which
    numpy forms exactly as Python floats do, and which ``math.fsum`` returns.
    For one or two distinct values a single float addition is that rounded
    sum, taken column by column (numpy's row sum over two columns is several
    times slower); + 0.0 makes a -0.0 sum (all products -0.0 at n = 0) the
    +0.0 that fsum gives.

    Three or more terms could round twice, so the columns are summed with
    TwoSum: the running sum t, and the rounding error of each addition,
    exactly.  So t plus the error terms is the exact row sum S.  The error
    terms are summed with TwoSum too, into err.  Where that sum never
    rounds (every second-order error is 0), err is exactly their sum, so
    t + err = S, and the one float addition t + err rounds S once: it is
    the correctly rounded sum that fsum gives, ties included.  A row of
    -0.0 products sums to +0.0 there too, since the error of -0.0 + -0.0
    is +0.0.  Any other row is summed by fsum.  No product is positive, so
    each error term lies below half a unit in the last place of t, and is a
    multiple of the finest such unit among the products: the error sum
    rounds only where the products lie more than about 2^50 apart.
    """
    prods = [exps[:, j] * math.log2(v) for j, v in enumerate(values)]
    if len(values) <= 2:
        return sum(prods) + 0.0
    t, err, exact = prods[0], 0.0, True
    for p in prods[1:]:
        t, e = _two_sum(t, p)
        err, lost = _two_sum(err, e)
        exact &= lost == 0.0
    eigs = t + err
    rows = np.flatnonzero(~exact)
    eigs[rows] = [math.fsum(row) for row in np.column_stack([p[rows] for p in prods]).tolist()]
    return eigs


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
    if ls.complete or _covers(ls, count):
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
    and the ladder steps C(n, k) = C(n, k - 1) * (n - k + 1) / k on
    certified counts (see the module docstring).  The head's cut reads the
    level masses as the ladder makes them.  In place of the full build's
    rank^n count check, ``math.comb(n, k)`` must lie in the interval of the
    last count.
    """
    head = count is _HEAD
    if not head and count >= 1 << n:
        return None
    la, lb = (math.log2(p) for p in sv.probs)
    if not la - lb > 2.0**-49 * n * -lb:
        # The bound does not show that the float eigenvalues strictly
        # decrease along the ladder, so check every one of them.
        e = np.arange(n, -1, -1, dtype=np.int64)
        eigs = _log2_eigs(np.column_stack((e, n - e)), sv.probs)
        if not np.all(eigs[1:] < eigs[:-1]):
            return None
    old = built.starts if built else _LadderStarts(n, _MANTISSA, [0], ([0], 1))
    starts = _LadderStarts(n, old.bits, list(old.lo), old.known)
    prefix = built.prefix_log2_mass if built else np.empty(0)
    ce, cm, sm = old.last or (0, 1, 0)  # from level 0: its count 1, and start 0
    bits, lo = starts.bits, starts.lo
    k = len(lo) - 1
    # A count with ce > 0 has exactly bits bits; its interval's ends share the
    # top 53 where adding 4k to the low ``top`` bits carries nothing.
    top = bits - 53
    low = (1 << top) - 1
    if not head:
        below = count - 1
        # A start bound at most below // 2 is below count with its error:
        # the error is less than the bound.
        half = starts.pack(below >> 1)
    logs: list[float] = []
    peak, tail = NEG_INF, None
    ratio = sv.probs[1] / sv.probs[0]
    log2, last, append, hold = math.log2, n // 2, logs.append, lo.append
    while head or lo[-1] <= half or _at_most(starts, k, below):
        up = n - k + 1
        if head and k:
            r = up / k * ratio
            mass = logs[-1] + (up * la + (k - 1) * lb + 0.0)
            peak = max(peak, mass)
            if 0.0 < r < 1.0:  # r = 0 only past level n, at n = 0
                tail = mass + log2(r / (1.0 - r))
                if tail <= peak - _HEAD_CUT:
                    break
        if k > last:
            return None
        if k:  # the count cm 2^ce of level k - 1 steps to level k
            q = cm * up // k
            cut = q.bit_length() - bits
            if cut > 0:
                cm, ce, sm = q >> cut, ce + cut, sm >> cut
            else:
                cm = q
        if not ce:
            append(log2_int(cm))
        elif (cm & low) + 4 * k <= low:
            append(log2(cm >> top) + (top + ce))
        else:
            # Reads reach built levels only, so k is the highest counted.
            append(log2_int(starts.exact(k)[1]))
        sm += cm  # the start of level k + 1, at the count's exponent
        cut = sm.bit_length() - bits
        hold((ce + cut) << bits | sm >> cut if cut > 0 else ce << bits | sm)
        k += 1
    if not cm << ce <= math.comb(n, k - 1) <= cm + (4 * (k - 1) if ce else 0) << ce:
        raise ArithmeticError("ladder count differs from the binomial count")
    starts.last = ce, cm, sm
    e = np.arange(n, n - k, -1, dtype=np.int64)
    eigs = _log2_eigs(np.column_stack((e, n - e)), sv.probs)
    return _assemble(sv, n, starts, eigs, np.array(logs, dtype=np.float64), prefix, tail)


def _full_spectrum(sv: SchmidtVector, n: int) -> LeveledSpectrum:
    """Every level of the n-copy spectrum, with every column."""
    values, sizes = _distinct_groups(sv)
    # Numerically equal eigenvalues from different exponent vectors are
    # deliberately kept separate: every downstream quantity depends only on
    # the eigenvalue multiset, and the exponent vector gives a deterministic
    # secondary sort key.
    exps, mults, log2_mults = _type_columns(sizes, n)
    eigs = _log2_eigs(exps, values)
    del exps  # not held through the count reorder and accumulate, the peak
    # By descending eigenvalue, ties in ascending exponent order: a stable
    # sort of the rows in reverse, since they come in descending order.
    order = len(eigs) - 1 - np.argsort(-eigs[::-1], kind="stable")
    mults = [mults[i] for i in order.tolist()]
    # Pop each big multiplicity as it is counted, down to the None put under
    # them, so the spectrum's big integers are never held twice.
    mults.append(None)
    mults.reverse()
    starts = tuple(itertools.accumulate(iter(mults.pop, None), initial=0))
    if starts[-1] != sv.rank**n:
        raise ArithmeticError("level multiplicities do not sum to rank^n")
    return _assemble(sv, n, starts, eigs[order], log2_mults[order], eigs[:0], NEG_INF)


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
    starts = ls.starts
    i, log2_kept = _split(starts, count)  # log2 of the entries of level i among the top count
    if whole is None or (i == ls.num_levels and log2_kept != NEG_INF):
        _require_reach(ls, count, whole)
        log2_kept = NEG_INF  # a complete spectrum clamps to its total
    if log2_kept == NEG_INF:
        if tail:
            return whole.item(i)
        return whole.item(i - 1) if i else NEG_INF
    if tail:
        rest, log2_piece = whole.item(i + 1), _log2_gap(starts, i + 1, count)
    else:
        rest, log2_piece = (whole.item(i - 1) if i else NEG_INF), log2_kept
    partial = log2_piece + weight * ls.log2_eigenvalues.item(i)
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
