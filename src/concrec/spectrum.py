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

The build works on whole columns.  The exponent vectors of the type
classes are held as one int64 column per value group, from enumeration to
eigenvalues, each column one ``np.repeat`` over the rows before it (see
``_type_columns``).  A level's multiplicity depends only on the multiset of
its (group size, exponent) pairs, so it is counted once per *canonical*
row, whose exponents do not increase within each class of equal-size value
groups: 7,651 of the 45,451 rows for three distinct entries at n = 300,
n // 2 + 1 of the n + 1 for a qubit.  The counts form one list, from an
exact ratio ladder per value group over the canonical rows that takes one
big-by-small product per count: the running count of the groups before is
the start of the next group's ladder, folded into its counts rather than
multiplied into each.  ``log2_int`` is taken once per count.  The log2
eigenvalues are read from the columns first, each product e * log2(value)
formed as it is added, and each row's sum rounded once, as ``math.fsum``
rounds: by one float addition for one or two terms, and for three or more
by TwoSum, column by column, whose error terms carry the exact sum (see
``_log2_eigs``).  Then each row finds the index of its canonical row in
numpy alone: a compare-exchange network sorts each class's columns in
place, the sorted row's position in the enumeration is a sum of binomials
read from a small table, and a running count of the canonical rows maps
that position to the index (see ``_type_classes``).  One stable
``np.argsort`` of the rows in reverse orders the levels by descending
eigenvalue, then by ascending exponent vector, and one gather in that order
gives each level its count and log2 count.  Every build, full or partial,
hands its sorted levels to one function, ``_assemble``, which accumulates
the mass columns and checks the total mass.

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
:func:`extend_spectrum`: a partial spectrum is rebuilt from level 0 down to
the count read, and a head becomes the full build.  The conversions read
the spectrum through these queries and one more, ``_flatten_split``, the
optimal flatten cut for a target dimension with the log2 gap from the
dimension to the cut's start.  No other module reads a level start, so how
a start is held is decided here.  Every spectrum holds its starts in one
column, ``_Starts``, of certified bounds that the queries read: a ladder's
are packed P-bit bounds, as below, and a full build's are its exact starts,
bounds of width 0.  Only ``_full_spectrum``'s storage knows that a start
can be held exactly.

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
bisection of a plain list.  The ladder takes ``log2_int`` of a count from
its interval where both ends have the same bit length and top 53 bits, so
that the exact value has them too.  One reader, ``_compare``, reads a
start's bound once and gives both whether the start is at most a count and
``log2_int`` of their difference, where the interval lies on one side of the
count and its ends agree as above.  ``_split`` bisects the bounds for a
count's level i and reads start i; where that start lies above the count,
the level is i - 1, by a bound on the interval's width (see ``_split``).
Where the interval does not decide, the read counts exactly: the exact
ladder runs from level 0 up to the level read, once per spectrum, and keeps
what it counted.  The ladder's stop rule and :func:`extend_spectrum` compare
the packed lower bounds alone, so they count nothing exactly, and a partial
spectrum holds at most one level past the first that holds the count.
At P = 128 the bounds have decided every read of every trade-off search
tried, up to n = 1e5.  ``math.comb(n, k)`` must lie in the interval of each
ladder's last count.

A ladder spectrum thus holds no count of n bits: its ``starts`` are exact
only when read (see :class:`LeveledSpectrum`).  A full build's bounds have
width 0, so every read of it is decided and none counts.  The ladder needs the float
eigenvalues to strictly decrease along it, over every level, not only those
it builds.  They do where the step log2(a / b) exceeds twice the rounding
error of any eigenvalue: each is two products and a sum, each rounded, of
terms at most n |log2 b| in size, so its error is below 2^-51 n |log2 b|,
and the ladder checks log2(a / b) > 2^-49 n |log2 b|.  Where that fails,
for p within about 3e-16 n of 1/2 (3e-11 at n = 1e5), the full build runs,
which computes and sorts every eigenvalue anyway.
"""

from __future__ import annotations

import itertools
import math
import operator
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

# A count of at most this many bits fits Python's small-object pools (512 B).
_POOLED_BITS = 3600

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


class _Starts(Sequence[int]):
    """The level starts of a spectrum: exact when read, and held as the
    certified bounds that the library's reads use (see the module
    docstring).

    ``lo[k]`` packs the lower bound m 2^e of start k as e 2^bits + m, so that
    integer order is the order of the bounds.  ``known`` holds the exact
    starts counted so far, from level 0 up, and the exact count of the
    highest of those levels.  A ladder's read past them counts on from there
    into a new list and publishes it, with its count, in one assignment, so
    a concurrent read sees one pair or the other, and threads that count the
    same levels publish equal values.  A full build knows every start: its
    bounds have width 0, ``bits`` is the bit length of its total, so each
    start packs as itself, and one tuple of exact starts serves as ``lo``
    and as the known starts.  The cut ``[:stop]`` that ``_assemble`` makes
    is again a column of starts; any other slice is a tuple of exact starts.
    Iteration and ``==`` against any sequence read the exact starts.
    """

    def __init__(self, n: int, bits: int, lo: Sequence[int], known: tuple[Sequence[int], int]):
        self.n, self.bits, self.lo, self.known = n, bits, lo, known

    def __len__(self) -> int:
        return len(self.lo)

    def __getitem__(self, i):
        if isinstance(i, slice):
            if i.start is None and i.step is None:
                return _Starts(self.n, self.bits, self.lo[i], self.known)
            return tuple(self)[i]
        i = range(len(self.lo))[i]
        return self.exact(i)[0][i]

    def __iter__(self):
        return itertools.islice(self.exact(len(self.lo) - 1)[0], len(self.lo))

    def __eq__(self, other):
        return tuple(self) == tuple(other) if isinstance(other, Sequence) else NotImplemented

    def exact(self, i: int) -> tuple[Sequence[int], int]:
        """``known``, counted on to level ``i`` where it stops below it."""
        starts, count = self.known
        if i >= len(starts):
            starts, start = list(starts), starts[-1]
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
        e = self.lo[j] >> self.bits
        return (e, self.lo[j] & ((1 << self.bits) - 1), 8 * j) if e else (0, self.lo[j], 0)


def _log2_between(x: int, y: int, e: int) -> Optional[float]:
    """``log2_int`` of every integer in [x 2^e, (y + 1) 2^e), for
    -2^52 < x <= y, or None where it may differ between them.  It is the
    same for all of them where x and y have the same bit length, at least
    53, and the same top 53 bits; an x of fewer bits, 0 or below, gives
    None."""
    shift = x.bit_length() - 53
    if shift >= 0 and x >> shift == y >> shift:
        return math.log2(x >> shift) + (shift + e)
    return None


def _split(starts: _Starts, count: int) -> tuple[int, float]:
    """The last level i with ``starts[i] <= count``, for count >= 0, which
    holds entry count + 1, and the gap ``_compare(starts, i, count)[1]``.

    A ladder's level is found by bisecting the packed bounds, which gives
    the last i whose lower bound m 2^e is at most the count, and ``_compare``
    reads start i once.  Where S_i = ``starts[i]`` lies above the count, the
    level is i - 1, since S_(i-1) <= count.  A ladder stops at level n // 2,
    and C(n, k) does not decrease up to there, so S_i, a sum of i counts
    C(n, k) for k < i, is at most i C(n, i - 1).  With e > 0 the mantissa m
    has P bits, so 2^e <= S_i 2^(1-P), and the interval's width 8i 2^e is at
    most 16 i^2 C(n, i - 1) 2^-P, below C(n, i - 1) while 16 i^2 < 2^P.  (With
    e = 0 the bound is exact, and S_i <= count: bounds of width 0, as all of
    a full build's are, never step back.)  So from m 2^e <= count <
    S_i follows S_(i-1) = S_i - C(n, i - 1) <= count.  For the same reason a
    ladder that stops where the lower bound of S_i passes count - 1, as a
    partial build and ``extend_spectrum`` do, holds at most one level past
    the first that holds the count: where S_i holds it but its lower bound
    does not, the lower bound of S_(i+1) lies above S_(i+1) - C(n, i) = S_i.
    """
    i = bisect_right(starts.lo, starts.pack(count)) - 1
    at_most, log2 = _compare(starts, i, count)
    if at_most:
        return i, log2
    return i - 1, _compare(starts, i - 1, count)[1]


def _compare(starts: _Starts, j: int, count: int) -> tuple[bool, float]:
    """Whether ``starts[j] <= count``, and ``log2_int(abs(count - starts[j]))``
    or -inf where they are equal, from the start's certified bound (an exact
    start is a bound of width 0) where that decides both, else exactly."""
    e, m, w = starts.bound(j)
    q = (count >> e) - m  # count - starts[j] where the bound is exact, w = 0
    if w:
        # count - starts[j] lies in [(q - w) 2^e, (q + 1) 2^e) where q > 0, and
        # starts[j] - count in [(-q - 1) 2^e, (w - q + 1) 2^e) where not.
        x, y = (q - w, q) if q > 0 else (-q - 1, w - q)
        log2 = _log2_between(x, y, e)
        if log2 is not None:
            return q > 0, log2
        q = count - starts[j]
    return q >= 0, log2_int(abs(q)) if q else NEG_INF


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
    is one column, ``_Starts``, for every spectrum: certified bounds on the
    starts, of width 0 for a full build, whose starts are exact, and packed
    from a partial spectrum's or a head's ladder (see the module docstring).
    A plain sequence of exact starts given here becomes such a column.
    Counting is exact where an integer is output or a bound cannot decide:
    every start read from ``starts`` is exact, counted from level 0 up on
    first read, while the queries below read the bounds where they decide.
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
    entries those levels hold, at least the count it was built for.  A
    *head* (see the module docstring) has every column, and its last suffix
    entry is the mass of the levels it leaves out rather than the ``-inf``
    sentinel.  Only a spectrum with every level is ``complete``.

    Every mass query (the prefix, square-root prefix and tail masses, and so
    the conversions) reads a count by one rule: a negative count raises
    ``ValueError``; past ``total_count`` a complete spectrum clamps, since the
    entries past its total are zero padding; an incomplete spectrum, or a
    column that was not built, raises ``CountExceedsTotal``; and a prefix of
    0 entries is -inf.  Whether a count lies past the total is read from the
    count's split, the level it falls in, which the query reads anyway; the
    total is not compared again.  A count is any integer, a numpy integer
    included, and a float raises ``TypeError``.  :func:`extend_spectrum`
    grows an incomplete spectrum until the lower bound on its total reaches
    a count: a partial spectrum is rebuilt from level 0, a head becomes the
    full build.
    """

    base: SchmidtVector
    copies: int
    starts: _Starts
    log2_eigenvalues: np.ndarray
    prefix_log2_mass: np.ndarray
    prefix_log2_sqrt_mass: Optional[np.ndarray]
    suffix_log2_mass: Optional[np.ndarray]

    def __post_init__(self) -> None:
        if not isinstance(self.starts, _Starts):  # exact starts: bounds of width 0
            lo = tuple(self.starts)
            object.__setattr__(self, "starts", _Starts(self.copies, lo[-1].bit_length(), lo, (lo, 0)))
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


def _require_reach(ls: LeveledSpectrum, past: bool, column: Optional[np.ndarray]) -> None:
    """Raise ``CountExceedsTotal`` unless ``ls`` answers a read of ``column``
    at a count that lies ``past`` its total or not, as the caller's split of
    that count shows: the column must be built, and only a complete
    spectrum answers counts past its total."""
    if column is None or (past and not ls.complete):
        raise CountExceedsTotal(f"a read past the {ls.num_levels} built levels of the spectrum")


def _distinct_groups(sv: SchmidtVector) -> tuple[list[float], list[int]]:
    """Distinct probability values (by exact float equality) and group sizes."""
    groups = [(p, len(list(run))) for p, run in itertools.groupby(sv.probs)]
    return [p for p, _ in groups], [size for _, size in groups]


def _type_columns(sizes: Sequence[int], n: int) -> list[np.ndarray]:
    """Exponent vectors of every type class of n copies, as one int64
    column per value group.

    Each row e of the columns is one type class, rows in descending
    lexicographic order of e.  Each column is one ``np.repeat`` over the
    rows before it: a row with s copies left gets s + 1 children, whose
    next entry runs from s down to 0.
    """
    left, cols = np.array([n], dtype=np.int64), []
    for _ in sizes[1:]:
        width = left + 1
        rest = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        cols = [np.repeat(c, width) for c in cols] + [np.repeat(left, width) - rest]
        left = rest
    return [*cols, left]


def _type_classes(cols: list, values: Sequence[float], sizes: Sequence[int], n: int) -> tuple:
    """The log2 eigenvalue of each row of the columns of
    :func:`_type_columns`, the index of its canonical row among the
    canonical rows, in the order of the rows, which is the order of
    :func:`_ladder`'s counts, and the mask of the canonical rows.

    The eigenvalues are read first (see :func:`_log2_eigs`).  Then ``cols``
    is sorted in place, each compare-exchange replacing the two columns it
    reads, so no second set of columns is held.  A row's multiplicity (see
    :func:`_ladder`) depends only on the multiset of its (group size,
    exponent) pairs, so it is that of its *canonical* row: the same row
    with the exponents of each class of equal-size groups sorted
    non-increasing, the first of those rows.  Each class's columns are
    sorted by a bubble-sort network of ``np.maximum`` and ``np.minimum``
    compare-exchanges.  The rows before the sorted row are, for each column
    j after the first, those that agree with it before column j - 1 and
    leave fewer than its R copies to the k columns from j on:
    C(R + k - 1, k) of them, read from a table of k-fold running sums of
    ones.  A row is canonical where that position is its own, and a running
    count of the canonical rows maps the position to the canonical row's
    index.
    """
    eigs = _log2_eigs(cols, values)
    for size in set(sizes):
        members = [j for j, s in enumerate(sizes) if s == size]
        for last in range(len(members) - 1, 0, -1):
            for a, b in itertools.pairwise(members[: last + 1]):
                cols[a], cols[b] = np.maximum(cols[a], cols[b]), np.minimum(cols[a], cols[b])
    position, tail = np.zeros((2, len(eigs)), dtype=np.int64)
    table = np.ones(n + 1, dtype=np.int64)
    for col in reversed(cols[1:]):
        tail += col
        table = np.cumsum(table)  # C(m + k, k) at m, for the k columns from col on
        position += np.concatenate(([0], table[:-1]))[tail]
    canonical = position == np.arange(len(eigs))
    return eigs, (np.cumsum(canonical) - 1)[position], canonical


def _ladder(sizes: Sequence[int], n: int) -> tuple[list[int], list[float]]:
    """The multiplicity of every canonical row of :func:`_type_classes`, in
    the order of the rows, and its ``log2_int``.

    Over distinct values with group sizes g the multiplicity is
    multinomial(n; e) * prod_i g_i^(e_i): choose which tensor factors fall
    in each value class, then which of the g_i equal entries each factor
    uses.  It splits into C(n, e_1) * g_1^(e_1) times the multiplicity of
    the remaining groups on n - e_1 copies, and the first factor follows e_1
    down by an exact integer ratio.  That running factor is the start of
    the remaining groups' ladder, so it is folded into every count they make
    rather than multiplied into each.  For the last two groups, of sizes g
    and h, the power h^(n - e) rides along in the same ratio, folded into
    one step ``head * (e * h) // ((n - e + 1) * g)`` per row: a big integer
    times a small one, then divided by a small one, exactly, since the
    quotient is the next count.

    Each exponent runs over the canonical rows only: from the exponent of
    the group before it in its class, or all the copies left where fewer or
    where there is none, down to the least x that leaves no more copies than
    the groups after it can take.  Each of those is held to the exponent
    before it in its class, so where each one's class has a group up to this
    one, they take at most k x + c copies: x for each of the k in this
    group's class, and c the sum, over the others, of the exponent of their
    class's last group so far.  A ladder that starts below all the copies
    left starts from ``math.comb``.
    """

    def last(size: int, i: int) -> Optional[int]:
        """The last group up to i whose size is ``size``, if any."""
        return max((q for q in range(i + 1) if sizes[q] == size), default=None)

    groups = [
        (size, last(size, i - 1), [last(sizes[j], i) for j in range(i + 1, len(sizes))])
        for i, size in enumerate(sizes)
    ]
    mults: list[int] = []
    _ladder_rows(groups, (), n, 1, mults)
    return mults, list(map(log2_int, mults))


def _ladder_rows(groups: list, e: tuple[int, ...], left: int, head: int, mults: list[int]) -> None:
    """Append to ``mults`` the count of every canonical row that begins with
    the exponents ``e`` and leaves ``left`` copies to the groups after them,
    times ``head``, by the ladder of :func:`_ladder`.  Each entry of
    ``groups`` holds a group's size, the group before it in its class, and,
    for each group after it, the last group up to it in that one's class."""
    i = len(e)
    g, above, below = groups[i]
    top = left if above is None else min(left, e[above])
    bottom = 0
    if None not in below:  # left - x <= k x + c
        k, c = below.count(i), sum(e[q] for q in below if q != i)
        bottom = max(0, -((c - left) // (k + 1)))
    head *= math.comb(left, top) * g**top
    if i == len(groups) - 1:
        mults.append(head)
    elif i == len(groups) - 2:
        h = groups[-1][0]
        head *= h ** (left - top)
        mults.append(head)
        for x in range(top, bottom, -1):
            head = head * (x * h) // ((left - x + 1) * g)
            mults.append(head)
    else:
        _ladder_rows(groups, (*e, top), left - top, head, mults)
        for x in range(top, bottom, -1):
            head = head * x // ((left - x + 1) * g)
            _ladder_rows(groups, (*e, x - 1), left - x + 1, head, mults)


def _build_bytes(levels: int, n: int, rank: int) -> float:
    """Estimated build peak: per level, about 145 B plus its n*log2(rank)-bit
    start, or 80 B plus 8 B per entry where that is more (from about rank
    9 up, whose peak lies in the exponent columns while ``_log2_eigs`` sums
    them).  Levels share their canonical row's count, or free it as it is
    summed (see ``_full_spectrum``), so a count is not charged per level."""
    return levels * max(145 + n * math.log2(rank) / 8, 80 + 8 * rank)


def _two_sum(a, b):
    """a + b rounded, and its rounding error, exactly (Knuth's TwoSum)."""
    s = a + b
    z = s - a
    return s, (a - (s - z)) + (b - z)


def _log2_eigs(cols: Sequence[np.ndarray], values: Sequence[float]) -> np.ndarray:
    """log2 eigenvalue of each row of the exponent columns ``cols``, one
    column per distinct value.

    Each is the correctly rounded sum of its products e * log2(value), which
    numpy forms exactly as Python floats do, and which ``math.fsum`` returns.
    Each product column is formed as it is added.  For one or two distinct
    values a single float addition is that rounded sum, taken column by
    column (numpy's row sum over two columns is several times slower); + 0.0
    makes a -0.0 sum (all products -0.0 at n = 0) the +0.0 that fsum gives.

    Three or more terms could round twice, so the columns are summed with
    TwoSum: the running sum t, and the rounding error of each addition,
    exactly.  So t plus the error terms is the exact row sum S.  The error
    terms are summed with TwoSum too, into err.  Where that sum never
    rounds (every second-order error is 0), err is exactly their sum, so
    t + err = S, and the one float addition t + err rounds S once: it is
    the correctly rounded sum that fsum gives, ties included.  A row of
    -0.0 products sums to +0.0 there too, since the error of -0.0 + -0.0
    is +0.0.  Any other row's products are formed again from the columns,
    the same floats, and summed by fsum.  No product is positive, so each
    error term lies below half a unit in the last place of t, and is a
    multiple of the finest such unit among the products: the error sum
    rounds only where the products lie more than about 2^50 apart.
    """
    logs = [math.log2(v) for v in values]
    if len(values) <= 2:
        return sum(col * x for col, x in zip(cols, logs)) + 0.0
    t, err, exact = cols[0] * logs[0], 0.0, True
    for col, x in zip(cols[1:], logs[1:]):
        t, e = _two_sum(t, col * x)
        err, lost = _two_sum(err, e)
        exact &= lost == 0.0
    eigs = t + err
    rows = np.flatnonzero(~exact)
    eigs[rows] = list(map(math.fsum, zip(*[(c[rows] * x).tolist() for c, x in zip(cols, logs)])))
    return eigs


def power_spectrum(sv: SchmidtVector, n: int, count: Optional[int] = None) -> LeveledSpectrum:
    """Leveled spectrum of the n-fold tensor power of ``diag(sv.probs)``.

    Given ``count``, a rank-2 state with unequal entries gets a
    partial spectrum (see :class:`LeveledSpectrum`): its heaviest levels,
    down to the first whose certified lower bound on the entries held
    reaches ``count``.  So it holds ``count`` entries or more, and at most
    one level past the first that holds them (see ``_split``).
    The full spectrum is built instead when ``count`` reaches ``2**n``, when
    those levels pass the first half of the ladder (n // 2 + 1 levels, the
    half the full build runs), or where the bound that keeps the float
    eigenvalues strictly decreasing down the ladder fails (p within about
    3e-16 n of 1/2, see the module docstring).  The private count
    ``_HEAD`` asks for the head (see the module docstring) in the same cases.

    Raises
    ------
    RankTooLargeForN
        If the estimated peak of the full build exceeds ``BUILD_BUDGET_BYTES``.
    """
    n = operator.index(n)
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
        if count is not _HEAD:
            count = operator.index(count)
            if count < 1:
                raise ValueError("count must be positive")
        if sizes == [1, 1]:
            partial = _leading_levels(sv, n, count)
            if partial is not None:
                return partial
    return _full_spectrum(sv, n)


def extend_spectrum(ls: LeveledSpectrum, count: int) -> LeveledSpectrum:
    """``ls`` grown until it answers ``count`` entries.

    Returns ``ls`` itself when it is complete or the lower bound on its
    total shows that it holds them.  Otherwise :func:`power_spectrum` builds
    it again from level 0: a partial spectrum for ``count``, so it may come
    back complete where that builds in full, and a head in full.
    """
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    if ls.complete or ls.starts.lo[-1] > ls.starts.pack(count - 1):
        return ls
    return power_spectrum(ls.base, ls.copies, count if ls.suffix_log2_mass is None else None)


def _leading_levels(sv: SchmidtVector, n: int, count: int) -> Optional[LeveledSpectrum]:
    """Partial n-copy spectrum of a rank-2 state with unequal entries that
    holds at least ``count`` entries, or its head for ``count`` ``_HEAD``,
    built from level 0; None where :func:`power_spectrum` builds in full.

    Level k holds the C(n, k) entries with k factors of the smaller value,
    and the ladder steps C(n, k) = C(n, k - 1) * (n - k + 1) / k on
    certified counts (see the module docstring).  The head's cut reads the
    level masses as the ladder makes them.  In place of the full build's
    rank^n count check, ``math.comb(n, k)`` must lie in the interval of the
    last count.
    """
    head = count is _HEAD
    la, lb = (math.log2(p) for p in sv.probs)
    # Where the bound fails, rounding may reorder the float eigenvalues
    # along the ladder; the full build sorts them instead.
    if not la - lb > 2.0**-49 * n * -lb or not head and count >= 1 << n:
        return None
    starts = _Starts(n, _MANTISSA, [0], ([0], 1))
    ce, cm, sm = 0, 1, 0  # level 0: its count 1, and start 0
    bits, lo, k = starts.bits, starts.lo, 0
    # A count with ce > 0 has exactly bits bits; its interval's ends share the
    # top 53 where adding 4k to the low ``top`` bits carries nothing.
    top = bits - 53
    low = (1 << top) - 1
    # A partial build runs on while the lower bound of the entries held is
    # below count, so it counts no start exactly (see _split).
    stop = None if head else starts.pack(count - 1)
    logs: list[float] = []
    peak, tail = NEG_INF, None
    ratio = sv.probs[1] / sv.probs[0]
    log2, last, append, hold = math.log2, n // 2, logs.append, lo.append
    while head or lo[-1] <= stop:
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
    e = np.arange(n, n - k, -1, dtype=np.int64)
    eigs = _log2_eigs([e, n - e], sv.probs)
    return _assemble(sv, n, starts, eigs, np.array(logs, dtype=np.float64), tail)


def _full_spectrum(sv: SchmidtVector, n: int) -> LeveledSpectrum:
    """Every level of the n-copy spectrum, with every column."""
    values, sizes = _distinct_groups(sv)
    # Numerically equal eigenvalues from different exponent vectors are
    # deliberately kept separate: every downstream quantity depends only on
    # the eigenvalue multiset, and the exponent vector gives a deterministic
    # secondary sort key.
    eigs, index, canonical = _type_classes(_type_columns(sizes, n), values, sizes, n)
    # By descending eigenvalue, ties in ascending exponent order: a stable
    # sort of the rows in reverse, since they come in descending order.
    order = len(eigs) - 1 - np.argsort(-eigs[::-1], kind="stable")
    index = index[order]
    counts, log2_counts = _ladder(sizes, n)
    mults = np.array(counts, dtype=object)[index]
    del counts
    # Levels share the int of their canonical row's count, held until every
    # level is summed.  Past Python's small-object pools each level gets its
    # own int instead, freed as it is summed, down to the None put under
    # them, so the spectrum's big integers are never held twice: a level
    # whose row is not canonical takes a fresh copy (m | 0).  A shared count
    # is freed only at the last of its levels, and the system allocator then
    # reuses its memory poorly: for a qubit at n = 3e4 sharing left
    # tracemalloc's peak as it was but raised ru_maxrss from 133 to 148 MB.
    if n * math.log2(sv.rank) <= _POOLED_BITS:
        starts = tuple(itertools.accumulate(mults.tolist(), initial=0))
    else:
        np.bitwise_or(mults, 0, out=mults, where=~canonical[order])
        mults = mults[::-1].tolist()
        mults.insert(0, None)
        starts = tuple(itertools.accumulate(iter(mults.pop, None), initial=0))
    del mults
    if starts[-1] != sv.rank**n:
        raise ArithmeticError("level multiplicities do not sum to rank^n")
    return _assemble(sv, n, starts, eigs[order], np.array(log2_counts)[index], NEG_INF)


def _assemble(
    sv: SchmidtVector,
    n: int,
    starts: Sequence[int],
    log2_eigs: np.ndarray,
    log2_counts: np.ndarray,
    tail: Optional[float],
) -> Optional[LeveledSpectrum]:
    """The spectrum of sorted levels: ``starts``, their log2 eigenvalues and
    their log2 counts, every level from level 0, so each mass column is one
    running log-add.

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
    mass = log2_counts + log2_eigs
    prefix = np.logaddexp2.accumulate(mass)
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
    count = operator.index(count)
    if count < 0:
        raise ValueError("count must be non-negative")
    starts = ls.starts
    i, log2_kept = _split(starts, count)  # log2 of the entries of level i among the top count
    past = i == ls.num_levels and log2_kept != NEG_INF  # count > ls.total_count
    if whole is None or past:
        _require_reach(ls, past, whole)
        log2_kept = NEG_INF  # a complete spectrum clamps to its total
    if log2_kept == NEG_INF:
        if tail:
            return whole.item(i)
        return whole.item(i - 1) if i else NEG_INF
    if tail:
        rest, log2_piece = whole.item(i + 1), _compare(starts, i + 1, count)[1]
    else:
        rest, log2_piece = (whole.item(i - 1) if i else NEG_INF), log2_kept
    partial = log2_piece + weight * ls.log2_eigenvalues.item(i)
    return float(np.logaddexp2(rest, partial))


def _flatten_split(ls: LeveledSpectrum, L: int) -> tuple[int, float]:
    """Level j of the optimal flatten cut to a target of dimension L >= 1,
    which keeps J = ``starts[j]`` entries, and ``log2_int(L - J)``.

    J is the smallest j in [0, L-1] whose tail average (sum of entries after
    j, divided by L - j) is at least the next entry.  The condition, once
    true at a level boundary, stays true at later boundaries, and it cannot
    first become true strictly inside a level, so a binary search over the
    boundaries below L is exact.  The cut is the last boundary below L, whose
    gap the split of L gives, or a boundary the search tested true, whose
    gap it read there: each start is read once.
    """
    starts, suffix, eigs = ls.starts, ls.suffix_log2_mass, ls.log2_eigenvalues
    # Boundary i keeps the first i whole levels, i.e. starts[i] entries.
    # The last boundary below L, i_max, is the split of L, or the level
    # before it where its start is L itself, and lies past the levels exactly
    # where L exceeds the total.  It is never tested: exact arithmetic
    # guarantees the condition there, and float rounding can only miss it at
    # an exact tie, where either cut choice yields the same fidelity.
    i_max, bound = _split(starts, L)
    if bound == NEG_INF:
        i_max -= 1
        bound = _compare(starts, i_max, L)[1]
    _require_reach(ls, i_max == ls.num_levels, suffix)
    # Below i_max, L - starts[i] >= L - starts[i_max], and log2_int and the
    # float subtraction are monotone; so where the bound with the latter
    # leaves the condition a bit short, it is false without reading the gap
    # at starts[i].  The gaps read are kept for the cut's own.
    gaps = {i_max: bound}

    def condition(i: int) -> bool:
        # i < i_max <= num_levels, and suffix[i] is a log-add of finite level
        # masses.  Python floats: bisect compares the result with True, slowly
        # for numpy.bool_.
        tail, eig = float(suffix[i]), float(eigs[i])
        return tail - bound >= eig - 1.0 and (
            tail - gaps.setdefault(i, _compare(starts, i, L)[1]) >= eig
        )

    j = bisect_left(range(i_max), True, key=condition)
    return j, gaps[j]


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
