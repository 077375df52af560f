import itertools
import math
import time
import tracemalloc
from bisect import bisect_left, bisect_right
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from concrec import (
    SchmidtVector,
    concentration_fidelity,
    dilution_fidelity,
    extend_spectrum,
    log2_int,
    log2_prefix_mass,
    log2_prefix_sqrt_mass,
    log2_tail_mass,
    make_schmidt,
    power_spectrum,
    prefix_mass,
)
from concrec.errors import (
    CountExceedsTotal,
    EmptyInput,
    NegativeEntry,
    NotNormalized,
    RankTooLargeForN,
)
from concrec import spectrum
from concrec.spectrum import _HEAD, NEG_INF, _assemble, _build_bytes

from _oracles import dense_power_spectrum, must_count, reference_power_spectrum, short_mantissa


def _mults(ls):
    """Per-level multiplicities, from the ``starts`` column."""
    return [b - a for a, b in itertools.pairwise(ls.starts)]


class TestMakeSchmidt:
    def test_sorts_descending(self):
        sv = make_schmidt([0.1, 0.9])
        assert sv.probs == (0.9, 0.1)
        assert sv.rank == 2

    def test_uniform(self):
        sv = make_schmidt([0.5, 0.5])
        assert sv.probs == (0.5, 0.5)
        assert sv.rank == 2

    def test_already_sorted(self):
        sv = make_schmidt([0.4, 0.3, 0.3])
        assert sv.probs == (0.4, 0.3, 0.3)
        assert sv.rank == 3

    def test_drops_zeros(self):
        sv = make_schmidt([0.0, 1.0, 0.0])
        assert sv.probs == (1.0,)
        assert sv.rank == 1

    def test_renormalizes_small_drift(self):
        sv = make_schmidt([0.5 + 4e-10, 0.5])
        assert abs(math.fsum(sv.probs) - 1.0) <= 1e-12

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            make_schmidt([])
        with pytest.raises(EmptyInput):
            make_schmidt([0.0, 0.0])

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            make_schmidt([1.1, -0.1])

    def test_nan_entry(self):
        with pytest.raises(NegativeEntry):
            make_schmidt([1.0, float("nan")])

    def test_infinite_entry(self):
        with pytest.raises(NotNormalized):
            make_schmidt([1.0, float("inf")])

    def test_not_normalized(self):
        with pytest.raises(NotNormalized):
            make_schmidt([0.5, 0.6])

    def test_frozen(self):
        sv = make_schmidt([0.9, 0.1])
        with pytest.raises(AttributeError):
            sv.rank = 3


class TestPowerSpectrum:
    def test_qubit_square(self):
        ls = power_spectrum(make_schmidt([0.1, 0.9]), 2)
        eigs = np.power(2.0, ls.log2_eigenvalues).tolist()
        assert eigs == pytest.approx([0.81, 0.09, 0.01], abs=1e-15)
        assert _mults(ls) == [1, 2, 1]
        assert list(ls.starts[1:]) == [1, 3, 4]

    def test_uniform_single_level(self):
        ls = power_spectrum(make_schmidt([0.5, 0.5]), 3)
        assert ls.num_levels == 1
        assert ls.log2_eigenvalues[0] == -3.0
        assert ls.starts == (0, 8)

    def test_zero_copies(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 0)
        assert ls.num_levels == 1
        assert ls.log2_eigenvalues[0] == 0.0
        assert ls.starts == (0, 1)
        # The empty product is +0.0 whatever the number of distinct values.
        for probs in ([1.0], [0.5, 0.5], [0.9, 0.1], [0.6, 0.3, 0.1], [0.4, 0.3, 0.2, 0.1]):
            eig = power_spectrum(make_schmidt(probs), 0).log2_eigenvalues[0]
            assert math.copysign(1.0, eig) == 1.0, probs
        with pytest.raises(ValueError, match="non-negative"):
            power_spectrum(make_schmidt([0.9, 0.1]), -1)

    def test_repeated_probabilities_grouped(self):
        # (0.5, 0.25, 0.25) has two distinct values; levels follow the
        # two-value ladder with group size 2 on the smaller value.
        ls = power_spectrum(make_schmidt([0.5, 0.25, 0.25]), 2)
        assert _mults(ls) == [1, 4, 4]
        assert ls.total_count == 9

    def test_accidental_collision_not_merged(self):
        # 0.5 * 0.125 equals 0.25^2 exactly in binary floats, so two distinct
        # exponent patterns share one eigenvalue at n = 2; they stay separate
        # levels and only the eigenvalue multiset matters downstream.
        sv = make_schmidt([0.5, 0.25, 0.125, 0.125])
        ls = power_spectrum(sv, 2)
        assert np.count_nonzero(ls.log2_eigenvalues == -4.0) == 2
        assert ls.total_count == 16
        expanded = np.repeat(np.power(2.0, ls.log2_eigenvalues), np.diff(ls.starts))
        dense = dense_power_spectrum(sv.probs, 2)
        assert float(np.max(np.abs(expanded - dense))) <= 1e-15

    @pytest.mark.parametrize(
        "probs",
        [
            [0.9, 0.1],
            [0.5, 0.5],
            [0.6, 0.3, 0.1],
            [0.4, 0.3, 0.3],
            [0.5, 0.25, 0.25],
            [0.5, 0.25, 0.125, 0.125],
        ],
    )
    def test_dense_equivalence(self, probs):
        sv = make_schmidt(probs)
        for n in range(0, 13):
            ls = power_spectrum(sv, n)
            expanded = np.repeat(np.power(2.0, ls.log2_eigenvalues), np.diff(ls.starts))
            dense = dense_power_spectrum(sv.probs, n)
            assert expanded.shape == dense.shape
            assert float(np.max(np.abs(expanded - dense))) <= 1e-12

    def test_level_limit(self):
        # 4.5M levels, estimated at 3.3 GB to build: refused before enumerating.
        start = time.perf_counter()
        with pytest.raises(RankTooLargeForN, match="GiB"):
            power_spectrum(make_schmidt([0.5, 0.3, 0.2]), 3000)
        assert time.perf_counter() - start < 1.0

    def test_exact_counts_qubit_n300(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 300)
        acc = 0
        for k, mult in enumerate(_mults(ls)):
            assert mult == math.comb(300, k)
            acc += math.comb(300, k)
            assert ls.starts[k + 1] == acc
        assert ls.total_count == 2**300

    def test_exact_counts_grouped_n300(self):
        # two distinct values with group sizes (1, 2): mult = C(n,k) * 2^k
        ls = power_spectrum(make_schmidt([0.5, 0.25, 0.25]), 300)
        for k, mult in enumerate(_mults(ls)):
            assert mult == math.comb(300, k) * 2**k
        assert ls.total_count == 3**300

    def test_exact_counts_three_distinct(self):
        sv = make_schmidt([0.6, 0.3, 0.1])
        n = 40
        ls = power_spectrum(sv, n)
        total = sum(_mults(ls))
        assert total == 3**n == ls.total_count

    @pytest.mark.parametrize(
        "probs, n", [((0.3, 0.3, 0.2, 0.1, 0.1), 30), ((0.6, 0.3, 0.1), 40)]
    )
    def test_exact_counts_per_level_tied_groups(self, probs, n):
        # Oracle: multinomial(n; e) * prod_i g_i^e_i for every exponent
        # vector e over the distinct values, from math.comb.
        sv = make_schmidt(probs)
        values = sorted(set(sv.probs), reverse=True)
        sizes = [sv.probs.count(v) for v in values]
        log2_values = [math.log2(v) for v in values]
        expected = Counter()
        for head in itertools.product(range(n + 1), repeat=len(values) - 1):
            if sum(head) > n:
                continue
            exps = (*head, n - sum(head))
            mult, left = 1, n
            for e, g in zip(exps, sizes):
                mult *= math.comb(left, e) * g**e
                left -= e
            log2_eig = math.fsum(e * lv for e, lv in zip(exps, log2_values))
            expected[(log2_eig, mult)] += 1
        ls = power_spectrum(sv, n)
        assert Counter(zip(ls.log2_eigenvalues.tolist(), _mults(ls))) == expected
        assert ls.total_count == sv.rank**n

    def test_arrays_read_only(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 4)
        with pytest.raises(ValueError):
            ls.prefix_log2_mass[0] = 0.0


class TestPrefixQueries:
    def test_prefix_mass_examples(self):
        ls = power_spectrum(make_schmidt([0.1, 0.9]), 2)
        assert prefix_mass(ls, 2) == pytest.approx(0.90, abs=1e-12)
        assert prefix_mass(ls, 3) == pytest.approx(0.99, abs=1e-12)
        assert prefix_mass(ls, 4) == pytest.approx(1.0, abs=1e-12)

    def test_prefix_mass_clamps_beyond_total(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 3)
        assert prefix_mass(ls, 10**100) == prefix_mass(ls, ls.total_count)

    def test_prefix_mass_rejects_negative(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 1)
        with pytest.raises(ValueError):
            prefix_mass(ls, -1)
        with pytest.raises(ValueError, match="non-negative"):
            log2_prefix_sqrt_mass(ls, -1)

    def test_prefix_sqrt_examples(self):
        sv = make_schmidt([0.9, 0.1])
        one = power_spectrum(sv, 1)
        assert 2.0 ** log2_prefix_sqrt_mass(one, 2) == pytest.approx(
            math.sqrt(0.9) + math.sqrt(0.1), abs=1e-12
        )
        two = power_spectrum(sv, 2)
        assert 2.0 ** log2_prefix_sqrt_mass(two, 4) == pytest.approx(1.6, abs=1e-9)
        assert 2.0 ** log2_prefix_sqrt_mass(two, 0) == 0.0

    def test_prefix_sqrt_clamps_beyond_total(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 2)
        assert log2_prefix_sqrt_mass(ls, 5) == log2_prefix_sqrt_mass(ls, ls.total_count)

    def test_partial_level_prefix(self):
        ls = power_spectrum(make_schmidt([0.1, 0.9]), 2)
        # count 2 cuts into the middle level: 0.81 + one of the 0.09 entries
        assert prefix_mass(ls, 2) == pytest.approx(0.81 + 0.09, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 7, 16, 64, 200])
    def test_normalization(self, n):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), n)
        assert abs(prefix_mass(ls, ls.total_count) - 1.0) <= 1e-10

    @pytest.mark.parametrize("n", [1, 5, 32, 200])
    def test_sqrt_mass_identity(self, n):
        sv = make_schmidt([0.7, 0.2, 0.1])
        ls = power_spectrum(sv, n)
        expected = n * math.log2(math.fsum(math.sqrt(p) for p in sv.probs))
        got = log2_prefix_sqrt_mass(ls, ls.total_count)
        assert abs(math.expm1((got - expected) * math.log(2.0))) <= 1e-9

    def test_log_domain_prefix_and_tail_partition(self):
        ls = power_spectrum(make_schmidt([0.6, 0.3, 0.1]), 7)
        dense = dense_power_spectrum((0.6, 0.3, 0.1), 7)
        for count in (0, 1, 2, 50, 100, ls.total_count - 1, ls.total_count):
            head = 2.0 ** log2_prefix_mass(ls, count) if count else 0.0
            tail = 2.0 ** log2_tail_mass(ls, count) if count < ls.total_count else 0.0
            assert head + tail == pytest.approx(1.0, abs=1e-12)
            assert head == pytest.approx(float(dense[:count].sum()), abs=1e-12)
            assert tail == pytest.approx(float(dense[count:].sum()), abs=1e-12)

    def test_monotone_and_concave_per_level(self):
        ls = power_spectrum(make_schmidt([0.6, 0.3, 0.1]), 9)
        prev_mass = 0.0
        prev_rate = math.inf
        for mult, cumulative in zip(_mults(ls), ls.starts[1:]):
            mass = prefix_mass(ls, cumulative)
            assert mass >= prev_mass - 1e-15
            rate = (mass - prev_mass) / mult
            assert rate <= prev_rate + 1e-15
            prev_mass, prev_rate = mass, rate


@st.composite
def tied_spectra(draw, max_n=40):
    """A rank 1-6 state whose entries repeat in groups, and a copy count, at
    most 12 above rank 4."""
    rank = draw(st.integers(1, 6))
    cuts = sorted(draw(st.sets(st.integers(1, rank - 1)))) if rank > 1 else []
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, rank])]
    values = draw(st.lists(st.integers(1, 20), min_size=len(sizes), max_size=len(sizes), unique=True))
    weights = [v for v, size in zip(values, sizes) for _ in range(size)]
    sv = make_schmidt([w / sum(weights) for w in weights])
    return sv, draw(st.integers(0, max_n if rank <= 4 else min(max_n, 12)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(tied_spectra())
def test_prefix_and_tail_partition_property(case):
    sv, n = case
    ls = power_spectrum(sv, n)
    total = ls.total_count
    assert ls.starts[0] == 0 and len(ls.starts) == ls.num_levels + 1
    assert all(a < b for a, b in itertools.pairwise(ls.starts))
    counts = sorted(
        {0, total} | {c for s in ls.starts for c in (s - 1, s, s + 1) if 0 <= c <= total}
    )
    heads = [prefix_mass(ls, c) for c in counts]
    tails = [2.0 ** log2_tail_mass(ls, c) for c in counts]
    for head, tail in zip(heads, tails):
        assert abs(head + tail - 1.0) <= 1e-12
    if total > 4096:
        return
    # At most 4096 entries, so the dense float sums are within 5e-13.
    dense = dense_power_spectrum(sv.probs, n)
    dense_head = np.concatenate(([0.0], np.cumsum(dense)))
    dense_tail = np.concatenate((np.cumsum(dense[::-1])[::-1], [0.0]))
    dense_sqrt = np.concatenate(([0.0], np.cumsum(np.sqrt(dense))))
    for c, head, tail in zip(counts, heads, tails):
        assert head == pytest.approx(dense_head[c], abs=1e-12)
        assert tail == pytest.approx(dense_tail[c], abs=1e-12)
        sqrt_mass = 2.0 ** log2_prefix_sqrt_mass(ls, c)
        assert sqrt_mass == pytest.approx(dense_sqrt[c], rel=1e-12, abs=0.0)


def _assert_same_build(sv, n):
    """The columnar build equals the per-level reference bit for bit;
    comparing bytes also tells +0.0 from -0.0."""
    got, ref = power_spectrum(sv, n), reference_power_spectrum(sv, n)
    assert got.starts == ref.starts
    for column in ("log2_eigenvalues", "prefix_log2_mass", "prefix_log2_sqrt_mass", "suffix_log2_mass"):
        assert getattr(got, column).tobytes() == getattr(ref, column).tobytes(), column


@settings(max_examples=80, deadline=None, derandomize=True)
@given(tied_spectra(max_n=60))
@example((make_schmidt([0.4, 0.2, 0.2, 0.2]), 59))
@example((make_schmidt([0.4, 0.2, 0.2, 0.2]), 60))
@example((make_schmidt([0.9, 0.1]), 59))
@example((make_schmidt([0.9, 0.1]), 60))
# Two groups of size 2: symmetric counts beyond qubits.
@example((make_schmidt([0.3, 0.3, 0.2, 0.2]), 59))
@example((make_schmidt([0.3, 0.3, 0.2, 0.2]), 60))
# The groups of size 1 are not adjacent in value order.
@example((make_schmidt([0.35, 0.2, 0.2, 0.15, 0.1]), 30))
@example((make_schmidt([0.4, 0.25, 0.15, 0.12, 0.08]), 30))
@example((make_schmidt([0.25, 0.25, 0.25, 0.25]), 60))
def test_build_matches_per_level_reference(case):
    _assert_same_build(*case)


@pytest.mark.parametrize(
    "probs, n, rows",
    [
        ((0.5, 0.3, 0.2), 300, 7651),  # partitions of 300 into at most 3 parts
        ((0.9, 0.1), 3000, 1501),
        ((0.35, 0.2, 0.2, 0.15, 0.1), 12, None),
        ((0.3, 0.3, 0.15, 0.15, 0.05, 0.05), 9, None),
        ((0.25, 0.2, 0.2, 0.15, 0.1, 0.1), 10, None),
    ],
)
def test_one_count_per_canonical_row(probs, n, rows, monkeypatch):
    # A row's count depends only on the multiset of its (group size,
    # exponent) pairs, so the build counts each such multiset once: one
    # ladder count and one log2_int each.
    values, sizes = spectrum._distinct_groups(make_schmidt(probs))
    cols = spectrum._type_columns(sizes, n)
    exps = zip(*[col.tolist() for col in cols])
    forms = [tuple(sorted((sizes[j], e) for j, e in enumerate(row))) for row in exps]
    _, index, canonical = spectrum._type_classes(cols, values, sizes, n)
    if rows is None:
        rows = len(set(forms))
    first = {}
    for form, i in zip(forms, index.tolist()):
        assert first.setdefault(form, i) == i  # one index per multiset
    assert sorted(first.values()) == list(range(rows)) and canonical.sum() == rows
    logs = []
    monkeypatch.setattr(spectrum, "log2_int", lambda value: logs.append(value) or log2_int(value))
    counts = spectrum._ladder(sizes, n)[0]
    assert len(counts) == rows and logs == counts
    logs.clear()
    power_spectrum(make_schmidt(probs), n)
    assert len(logs) == rows


@pytest.mark.parametrize(
    "probs, n",
    [
        ((0.9, 0.1), 3000),
        ((0.5, 0.3, 0.2), 300),
        ((1.0,), 0),
        ((0.9, 0.1), 0),
        ((0.5, 0.5), 0),
        ((0.6, 0.3, 0.1), 0),
        ((0.4, 0.3, 0.3), 0),
        # Powers of two tie exactly across exponent vectors, where only the
        # exponent tie-break orders the levels.
        ((0.5, 0.25, 0.125, 0.0625, 0.0625), 12),
    ],
)
def test_build_matches_per_level_reference_seeded(probs, n):
    _assert_same_build(make_schmidt(probs), n)


# A value in (0, 1): any float, a power of two, or the largest float below 1.
_UNIT = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(1, 1074).map(lambda k: 2.0**-k),
    st.just(math.nextafter(1.0, 0.0)),
)


@st.composite
def value_rows(draw):
    """3-5 distinct values in (0, 1), neighbouring floats among them, and
    rows of exponents against them: zeros, small ones and ones up to 2^53."""
    values = draw(st.lists(_UNIT, min_size=1, max_size=5, unique=True))
    for _ in range(draw(st.integers(max(3 - len(values), 0), 5 - len(values)))):
        values.append(math.nextafter(values[-1], 0.25 if values[-1] >= 0.5 else 0.75))
    assume(len(set(values)) == len(values))
    exponent = st.one_of(st.just(0), st.integers(0, 400), st.integers(0, 2**53))
    row = st.lists(exponent, min_size=len(values), max_size=len(values))
    return values, draw(st.lists(row, min_size=1, max_size=8))


def test_eigenvalue_sums_equal_fsum():
    # Each row's sum is fsum's bit for bit, whether the TwoSum columns
    # certify it or fsum is called for it; the examples take both ways.
    from unittest import mock

    ways = Counter()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(value_rows())
    # n = 0: every product is -0.0, and the sum +0.0.
    @example(((0.5, 0.3, 0.2), [[0, 0, 0]]))
    # Exact ties between exponent vectors, and a tie in the rounding of
    # -2^60 - 128 that the product -1.6e-16 breaks: the error sum
    # -128 - 1.6e-16 rounds, and t + err would round the tie to -2^60.
    @example(((0.5, 0.25, 0.125, 0.0625), [[2, 0, 0, 0], [0, 1, 0, 0], [1, 1, 1, 1]]))
    @example(((math.nextafter(1.0, 0.0), 0.5, 0.25), [[1, 2**60, 64], [1, 0, 0]]))
    def check(case):
        values, rows = case
        exps = np.array(rows, dtype=np.int64)
        with mock.patch.object(math, "fsum", wraps=math.fsum) as fsum:
            got = spectrum._log2_eigs(list(exps.T), values)
        ways["fsum"] += fsum.call_count
        ways["columns"] += len(rows) - fsum.call_count
        expected = [math.fsum(e * math.log2(v) for e, v in zip(row, values)) for row in rows]
        assert [x.hex() for x in got.tolist()] == [x.hex() for x in expected]

    check()
    assert ways["fsum"] and ways["columns"], ways


def _assert_read_rule(ls):
    """Each mass read of ``ls`` at -1 and at one past its total: a negative
    count raises ValueError; past the total a complete spectrum clamps, and
    any other raises CountExceedsTotal."""
    total = ls.total_count
    for read in (log2_prefix_mass, prefix_mass, log2_prefix_sqrt_mass, log2_tail_mass):
        with pytest.raises(ValueError) as negative:
            read(ls, -1)
        assert negative.type is ValueError, read
        if ls.complete:
            assert read(ls, total + 1) == read(ls, total), read
        else:
            with pytest.raises(CountExceedsTotal):
                read(ls, total + 1)


@st.composite
def partial_cases(draw):
    """A qubit with p in [0.01, 1/2], p = 1/2 and p within 1e-13 of 1/2
    included; a copy count n <= 400; a target count and a few extensions."""
    p = draw(st.one_of(st.floats(0.01, 0.5), st.just(0.5), st.floats(0.5 - 1e-13, 0.5)))
    n = draw(st.integers(0, 400))
    targets = st.integers(0, n).flatmap(lambda bits: st.integers(1, 1 << bits))
    return make_schmidt([p, 1.0 - p]), n, draw(targets), draw(st.lists(targets, max_size=3))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(partial_cases())
@example((make_schmidt([0.1, 0.9]), 400, 2**40, [2**60, 2**41, 2**200, 2**400]))
@example((make_schmidt([0.25, 0.75]), 31, 2**15, [2**30, 2**31]))
@example((make_schmidt([0.5 - 1e-14, 0.5 + 1e-14]), 400, 2**40, [2**100]))
def test_partial_build_equals_the_full_builds_head(case):
    # At the library's mantissa, and at 60 bits, where the certified counts
    # leave most reads undecided and count them exactly.
    sv, n, count, extensions = case
    full = power_spectrum(sv, n)
    _assert_read_rule(full)
    for bits in (spectrum._MANTISSA, 60):
        with short_mantissa(bits) as counted:
            ls = power_spectrum(sv, n, count)
            if bits == 60 and must_count(ls):
                assert counted
            if sv.probs[0] - sv.probs[1] > 1e-3 and 2 * count <= 1 << n:
                assert not ls.complete
            if not ls.complete:
                assert ls.starts[-2] < count <= ls.starts[-1]  # built no further than needed
            for target in [count, *extensions]:
                ls = extend_spectrum(ls, target)
                k = ls.num_levels
                assert ls.total_count >= target
                assert tuple(ls.starts) == full.starts[: k + 1]
                for column in ("log2_eigenvalues", "prefix_log2_mass"):
                    assert getattr(ls, column).tobytes() == getattr(full, column)[:k].tobytes(), column
                _assert_read_rule(ls)
                if ls.complete:
                    continue
                assert prefix_mass(ls, target) == prefix_mass(full, target)
                past = ls.total_count + 1
                for query in (
                    lambda: log2_prefix_mass(ls, past),
                    lambda: prefix_mass(ls, past),
                    lambda: dilution_fidelity(ls, past),
                    lambda: log2_tail_mass(ls, 0),
                    lambda: log2_prefix_sqrt_mass(ls, 1),
                    lambda: concentration_fidelity(ls, 2),
                ):
                    with pytest.raises(CountExceedsTotal):
                        query()


@st.composite
def head_cases(draw):
    """A qubit with p in (0, 1/2), values within 1e-13 of 1/2 included, and
    a copy count n <= 3000."""
    p = draw(st.one_of(st.floats(0.0, 0.5, exclude_min=True, exclude_max=True),
                       st.floats(0.5 - 1e-13, 0.5, exclude_max=True)))
    return make_schmidt([p, 1.0 - p]), draw(st.integers(0, 3000))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(head_cases())
@example((make_schmidt([0.1, 0.9]), 3000))
@example((make_schmidt([0.25, 0.75]), 3000))
@example((make_schmidt([0.4, 0.6]), 3000))  # passes n // 2 levels: full
@example((make_schmidt([0.5 - 1e-14, 0.5 + 1e-14]), 3000))  # ladder not decreasing
@example((make_schmidt([1e-300, 1.0 - 1e-300]), 3000))  # level 0 holds all the mass: full
def test_head_equals_the_full_build_where_it_answers(case):
    # At the library's mantissa, and at 60 bits, where the certified counts
    # leave most reads undecided and count them exactly.
    sv, n = case
    full = power_spectrum(sv, n)
    _assert_read_rule(full)
    for bits in (spectrum._MANTISSA, 60):
        with short_mantissa(bits) as counted:
            head = power_spectrum(sv, n, _HEAD)
            if bits == 60 and must_count(head):
                assert counted
            _assert_head_answers_as_the_full_build(head, full)


def _assert_head_answers_as_the_full_build(head, full):
    k, n = head.num_levels, head.copies
    for column in ("log2_eigenvalues", "prefix_log2_mass", "prefix_log2_sqrt_mass"):
        assert getattr(head, column).tobytes() == getattr(full, column)[:k].tobytes(), column
    assert head.suffix_log2_mass.tobytes() == full.suffix_log2_mass[: k + 1].tobytes()
    _assert_read_rule(head)
    if head.complete:
        assert k == full.num_levels
        return
    assert k <= n // 2 + 1
    total = head.total_count
    for count in {0, 1, total // 3, total // 2, max(total - 1, 0), total}:
        assert log2_tail_mass(head, count) == log2_tail_mass(full, count)
        assert log2_prefix_sqrt_mass(head, count) == log2_prefix_sqrt_mass(full, count)
        assert prefix_mass(head, count) == prefix_mass(full, count)
        if count:
            assert concentration_fidelity(head, count) == concentration_fidelity(full, count)
    past = total + 1
    for query in (
        lambda: log2_prefix_mass(head, past),
        lambda: dilution_fidelity(head, past),
        lambda: log2_tail_mass(head, past),
        lambda: log2_prefix_sqrt_mass(head, past),
        lambda: concentration_fidelity(head, past),
    ):
        with pytest.raises(CountExceedsTotal):
            query()
    assert tuple(head.starts) == full.starts[: k + 1]


def test_heads_are_short_past_the_typical_set():
    # p = 0.1 at n = 3000: 461 of 3,001 levels, and 2^1849 of 2^3000 entries,
    # where the typical set holds about 2^1407.
    head = power_spectrum(make_schmidt([0.1, 0.9]), 3000, _HEAD)
    assert not head.complete
    assert head.num_levels < 500
    assert 1407 < head.total_count.bit_length() < 2000


@pytest.mark.parametrize("p, n", [(0.1, 3000), (0.25, 3000), (0.02, 2000), (0.2, 700)])
def test_thinned_head_starts_equal_the_full_builds(p, n):
    # On a 60-bit mantissa the head's certified counts leave most reads
    # undecided, so its build and reads count many starts exactly; any start
    # read through ``starts`` is counted from level 0 up when first read.
    sv = make_schmidt([p, 1.0 - p])
    full = power_spectrum(sv, n)
    with short_mantissa() as counted:
        head = power_spectrum(sv, n, _HEAD)
        assert counted
        total = head.total_count
        for count in {1, total // 3, total // 2, total}:
            assert log2_tail_mass(head, count) == log2_tail_mass(full, count)
            assert prefix_mass(head, count) == prefix_mass(full, count)
            assert concentration_fidelity(head, count) == concentration_fidelity(full, count)
        fresh = power_spectrum(sv, n, _HEAD)
        # Grown past its total, a head becomes the full build.
        grown = extend_spectrum(fresh, fresh.total_count + 1)
    assert grown.complete and grown.starts == full.starts
    for column in (
        "log2_eigenvalues",
        "prefix_log2_mass",
        "prefix_log2_sqrt_mass",
        "suffix_log2_mass",
    ):
        assert getattr(grown, column).tobytes() == getattr(full, column).tobytes(), column
    k = head.num_levels
    expected = full.starts[: k + 1]
    assert len(head.starts) == k + 1
    for j, start in enumerate(expected):  # each exact start lies in its bound
        e, m, w = head.starts.bound(j)
        assert m << e <= start <= (m + w) << e, j
    # Read in a shuffled order, so that starts are counted both past and
    # within the levels counted before them.
    order = list(range(k + 1))
    np.random.default_rng(n).shuffle(order)
    assert [fresh.starts[i] for i in order] == [expected[i] for i in order]
    assert tuple(head.starts) == expected
    assert head.starts[-1] == head.total_count == expected[-1]
    assert head.starts[-k - 1] == 0
    assert tuple(head.starts[: k // 2]) == expected[: k // 2]
    assert head.starts[::7] == expected[::7] and head.starts[1:-1] == expected[1:-1]
    for index in (k + 1, -k - 2):
        with pytest.raises(IndexError):
            head.starts[index]


_LADDERS = [(0.1, 3000, None), (0.25, 3000, None), (0.02, 2000, None), (0.2, 700, None),
            (0.1, 2800, 1500), (0.235, 2900, 2400)]


@pytest.mark.parametrize("bits", [60, spectrum._MANTISSA])
@pytest.mark.parametrize("p, n, log2_count", _LADDERS)
def test_certified_reads_equal_exact_arithmetic(p, n, log2_count, bits):
    # The split and the reader's side and gap, read from a ladder's certified
    # bounds, against the same arithmetic on its exact starts.  The exact
    # starts come from a second build, so that taking them counts no start
    # of the spectrum read: it counts only where its own build or reads
    # fall back to exact counting.  The counts sit on and around every
    # start, where the bounds decide least, at every power of two, the
    # dimensions the trade-off reads, and at twice and half of sampled
    # starts.  At 60 bits most reads fall back to exact counting; at the
    # library's mantissa the bounds decide them.  A head where no count is
    # given, else a partial spectrum.  Just below a start the bisection of
    # the bounds lands one level high, and the split steps back to i - 1:
    # at 60 bits in 908, 1,938, 204, 471, 678 and 1,508 of the 4,264,
    # 7,718, 1,232, 1,964, 3,336 and 6,318 counts of the six ladders, and
    # about as often at the library's mantissa.  A split reads start i
    # exactly at most once, where the bounds do not decide, and start
    # i - 1 once more only where it steps back and they decide neither.
    sv = make_schmidt([p, 1.0 - p])
    count = _HEAD if log2_count is None else 1 << log2_count
    with short_mantissa(bits) as counted:
        ls = power_spectrum(sv, n, count)
        exact = tuple(power_spectrum(sv, n, count).starts)
        assert not ls.complete
        total, k = exact[-1], len(exact) - 1
        counts = {s + d for s in exact for d in range(-2, 3)}
        counts.update(1 << b for b in range(total.bit_length()))
        for j in np.random.default_rng(n).integers(0, k + 1, 60).tolist():
            counts.update((2 * exact[j], exact[j] // 2))

        def gap(j, c):
            return log2_int(abs(c - exact[j])) if c != exact[j] else NEG_INF

        steps = 0
        for c in sorted(c for c in counts if c >= 0):
            i = bisect_right(exact, c) - 1
            found = bisect_right(ls.starts.lo, ls.starts.pack(c)) - 1
            assert found in (i, i + 1), c
            steps += found > i
            before = len(counted)
            assert spectrum._split(ls.starts, c) == (i, gap(i, c)), c
            assert counted[before:] == [found, i][: len(counted) - before], c
            for j in {max(i - 1, 0), i, min(i + 1, k)}:
                assert spectrum._compare(ls.starts, j, c) == (exact[j] <= c, gap(j, c)), (j, c)
        assert steps


@pytest.mark.parametrize(
    "probs, n", [((0.9, 0.1), 200), ((0.5, 0.3, 0.2), 60), ((0.4, 0.3, 0.3), 60), ((0.4, 0.2, 0.2, 0.2), 40)]
)
def test_certified_reads_of_full_builds_equal_exact_arithmetic(probs, n):
    # The reads of test_certified_reads_equal_exact_arithmetic, and the
    # flatten split, on full builds, against the same arithmetic on the exact
    # starts.  A full build's bounds have width 0, so none of these reads
    # counts a start: the bisection of the bounds is the exact one, and the
    # split never steps back.  The qubit is read on both
    # sides of its count peak at level n // 2; (0.4, 0.3, 0.3) ties two
    # entries and (0.4, 0.2, 0.2, 0.2) three.  The counts sit at every start
    # +- 2, at every power of two, at 0, at the total and past it.
    ls = power_spectrum(make_schmidt(probs), n)
    exact = tuple(ls.starts)
    total, k = exact[-1], len(exact) - 1
    counts = {s + d for s in exact for d in range(-2, 3)} | {0, total, total + 1, 2 * total}
    counts.update(1 << b for b in range(total.bit_length() + 1))
    suffix, eigs = ls.suffix_log2_mass.tolist(), ls.log2_eigenvalues.tolist()

    def gap(j, c):
        return log2_int(abs(c - exact[j])) if c != exact[j] else NEG_INF

    def condition(i, c):
        return suffix[i] - log2_int(c - exact[i]) >= eigs[i]

    with short_mantissa() as counted:
        for c in sorted(c for c in counts if c >= 0):
            i = bisect_right(exact, c) - 1
            assert spectrum._split(ls.starts, c) == (i, gap(i, c)), c
            for j in {max(i - 1, 0), i, min(i + 1, k)}:
                assert spectrum._compare(ls.starts, j, c) == (exact[j] <= c, gap(j, c)), (j, c)
            if c:
                i_max = bisect_right(exact, c - 1) - 1
                j = bisect_left(range(i_max), True, key=lambda i: condition(i, c))
                assert spectrum._flatten_split(ls, c) == (j, gap(j, c)), c
    assert not counted


def test_every_spectrum_holds_one_start_column():
    sv = make_schmidt([0.9, 0.1])
    full = power_spectrum(sv, 300)
    spectra = [
        full,
        power_spectrum(sv, 300, _HEAD),
        power_spectrum(sv, 300, 1 << 60),
        reference_power_spectrum(sv, 300),  # built from a tuple of exact starts
    ]
    assert [ls.complete for ls in spectra] == [True, False, False, True]
    assert {type(ls.starts) for ls in spectra} == {spectrum._Starts}
    assert spectra[-1].starts == full.starts == tuple(full.starts)


@pytest.mark.parametrize("p, n, log2_count", _LADDERS)
def test_ladders_stop_and_grow_on_lower_bounds(p, n, log2_count, monkeypatch):
    # At the library's mantissa a partial build stops, and extend_spectrum
    # decides whether a spectrum holds a count, on the packed lower bounds
    # of the starts alone, so neither counts a start exactly.  A lower bound
    # can let the ladder build one level past the fewest that hold the
    # count, and no more (see ``spectrum._split``).  The counts sit at every
    # start +- 2 of the six ladders above, where the bounds decide least, and
    # the extra level is built for 51-59% of them: those at a start or just
    # below it, inside its bound's width.
    sv = make_schmidt([p, 1.0 - p])
    count = _HEAD if log2_count is None else 1 << log2_count
    ls = power_spectrum(sv, n, count)
    exact = tuple(power_spectrum(sv, n, count).starts)

    def refuse(self, i):
        raise AssertionError(f"start {i} counted exactly")

    monkeypatch.setattr(spectrum._Starts, "exact", refuse)
    with pytest.raises(ValueError):  # a negative count, as every count read
        extend_spectrum(ls, -5)
    for c in sorted({s + d for s in exact for d in range(-2, 3)} - {-2, -1, 0}):
        fewest = bisect_left(exact, c)  # S_fewest >= c, also past the last start
        part = power_spectrum(sv, n, c)
        assert not part.complete
        assert fewest <= part.num_levels <= fewest + 1, c
        assert extend_spectrum(part, c) is part
        grown = extend_spectrum(ls, c)
        assert grown.complete or grown.num_levels >= fewest, c


@pytest.mark.parametrize("p", [0.05, 0.25])
def test_large_heads_hold_no_big_integers(p):
    # A head holds its certified bounds, about 85 bytes per level, and no
    # exact count: 0.16 and 0.68 MB at n = 3e4 for p = 0.05 and 0.25 under
    # tracemalloc, peaking at 0.32 and 1.30 MB.  With exact starts from the
    # first level of mass 2^-40 on, it held 1.22 and 5.30 MB; with every
    # start, 1.5 and 17.2 MB.
    sv = make_schmidt([p, 1.0 - p])
    tracemalloc.start()
    try:
        head = power_spectrum(sv, 30000, _HEAD)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not head.complete and head.starts.known == ([0], 1)
    bound = {0.05: 0.35 * 2**20, 0.25: 1.4 * 2**20}[p]
    assert retained < bound and peak < 2 * bound, (retained, peak)


@pytest.mark.parametrize("p", [0.1, 0.25])
def test_an_exact_total_holds_one_big_integer_per_level(p):
    # Reading ``total_count`` counts every level of the head exactly.  Held
    # as one exact start per level and the top count, that retains 4.17 and
    # 16.97 MB at n = 3e4 for p = 0.1 and 0.25 under tracemalloc.  Held as
    # an exact (start, count) pair per level in a dict, it retained 8.70 and
    # 34.64 MB; the bound is 55% of that.
    sv, n = make_schmidt([p, 1.0 - p]), 30000
    head = power_spectrum(sv, n, _HEAD)
    tracemalloc.start()
    try:
        total = head.total_count
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    k = head.num_levels
    # The sum of C(n, j) for j < k, by the exact ladder C(n, j + 1) =
    # C(n, j) (n - j) / (j + 1), whose last count is checked against
    # math.comb; one math.comb per level takes about 20 s at p = 0.25.
    exact, count = 0, 1
    for j in range(k):
        exact, count = exact + count, count * (n - j) // (j + 1)
    assert count == math.comb(n, k)
    assert total == exact
    assert head.starts.known[1] == math.comb(n, k)  # the count of the level past the head
    assert retained < 0.55 * {0.1: 8.70, 0.25: 34.64}[p] * 2**20, retained


def test_a_large_head_equals_the_exact_ladder():
    # At n = 1e5 the counts reach 35,000 bits.  The head's certified log2
    # counts give the prefix columns of the exact counts bit for bit, and
    # the starts read through ``starts`` are the exact ones.  Starts are
    # sampled from the first third of the levels: reading one counts every
    # level below it, and holds each.
    sv, n = make_schmidt([0.1, 0.9]), 100_000
    with short_mantissa(spectrum._MANTISSA) as counted:
        head = power_spectrum(sv, n, _HEAD)
    assert not counted and not head.complete
    k = head.num_levels
    sample = set(np.random.default_rng(5).integers(0, k // 3, 40).tolist())
    logs, expected, start, count = [], {}, 0, 1
    for level in range(k):
        if level in sample:
            expected[level] = start
        logs.append(log2_int(count))
        start += count
        count = count * (n - level) // (level + 1)
    logs = np.array(logs)
    for column, weight in (("prefix_log2_mass", 1.0), ("prefix_log2_sqrt_mass", 0.5)):
        exact = np.logaddexp2.accumulate(logs + weight * head.log2_eigenvalues)
        assert exact.tobytes() == getattr(head, column).tobytes(), column
    assert {i: head.starts[i] for i in sample} == expected


def test_ladders_compute_only_the_eigenvalues_they_build(monkeypatch):
    # Where log2(a / b) > 2^-49 n |log2 b|, rounding cannot reorder the
    # float eigenvalues along the ladder.  Within rounding of p = 1/2 that
    # fails, and the full build computes and sorts every eigenvalue instead.
    rows = []
    real = spectrum._log2_eigs

    def recording(cols, values):
        rows.append(len(cols[0]))
        return real(cols, values)

    monkeypatch.setattr(spectrum, "_log2_eigs", recording)
    ls = power_spectrum(make_schmidt([0.1, 0.9]), 3000, 1 << 1000)
    assert rows == [ls.num_levels] and not ls.complete
    near = make_schmidt([0.5 - 1e-14, 0.5 + 1e-14])
    for count, n in ((1 << 40, 400), (_HEAD, 3000)):
        rows.clear()
        assert power_spectrum(near, n, count).complete
        assert rows[0] == n + 1
    checked = 0
    for p in (0.5 - 1e-9, 0.5 - 1e-11, 0.49, 0.3, 1e-300):
        probs = make_schmidt([p, 1.0 - p]).probs
        a, b = (math.log2(x) for x in probs)
        for n in (10, 1000, 60000):
            if a - b > 2.0**-49 * n * -b:
                e = np.arange(n, -1, -1)
                eigs = real([e, n - e], probs)
                assert np.all(eigs[1:] < eigs[:-1]), (p, n)
                checked += 1
    assert checked == 14


@pytest.fixture(scope="module")
def qubit_15000():
    """A complete spectrum whose 2^15000 entries take 4,516 decimal digits,
    past the 4,300 that Python 3.11 converts by default."""
    return power_spectrum(make_schmidt([0.9, 0.1]), 15000)


@pytest.mark.parametrize(
    "query, expected",
    [
        (lambda ls: prefix_mass(ls, ls.total_count + 1), 1.0),
        (lambda ls: dilution_fidelity(power_spectrum(ls.base, 5), 1 << 20000).error, 0.0),
        (
            lambda ls: log2_prefix_sqrt_mass(ls, ls.total_count + 1)
            == log2_prefix_sqrt_mass(ls, ls.total_count),
            True,
        ),
        (
            lambda ls: prefix_mass(power_spectrum(ls.base, 15000, 1 << 100), 1 << 20000),
            CountExceedsTotal,
        ),
    ],
    ids=["clamp", "dilution", "sqrt-mass-clamp", "partial-refused"],
)
def test_counts_past_the_decimal_digit_limit(qubit_15000, query, expected):
    if expected is CountExceedsTotal:
        with pytest.raises(CountExceedsTotal):
            query(qubit_15000)
    else:
        assert query(qubit_15000) == expected


def test_partial_build_rejects_an_empty_count():
    with pytest.raises(ValueError):
        power_spectrum(make_schmidt([0.9, 0.1]), 3, 0)


class TestLevelBoundaries:
    def test_examples(self):
        assert power_spectrum(make_schmidt([0.1, 0.9]), 2).starts == (0, 1, 3, 4)
        assert power_spectrum(make_schmidt([0.5, 0.5]), 3).starts == (0, 8)
        assert power_spectrum(make_schmidt([0.9, 0.1]), 0).starts == (0, 1)

    def test_pairs_carry_next_eigenvalue(self):
        ls = power_spectrum(make_schmidt([0.1, 0.9]), 2)
        # Boundary i (after starts[i] entries) is followed by level i; the
        # last boundary by nothing, so the tail after it is empty.
        assert (ls.starts[0], ls.log2_eigenvalues[0]) == (0, pytest.approx(math.log2(0.81)))
        assert (ls.starts[1], ls.log2_eigenvalues[1]) == (1, pytest.approx(math.log2(0.09)))
        assert ls.starts[-1] == 4 and len(ls.starts) == ls.num_levels + 1
        assert ls.suffix_log2_mass[-1] == -math.inf


class TestLog2Int:
    def test_small_exact(self):
        assert log2_int(1) == 0.0
        assert log2_int(8) == 3.0
        assert log2_int(1 << 1000) == 1000.0

    def test_doubling_relation(self):
        m = 123456789123456789123456789
        assert log2_int(2 * m) == pytest.approx(log2_int(m) + 1.0, abs=1e-12)

    def test_matches_float_log(self):
        for m in (3, 10**15, 7**80):
            assert log2_int(m) == pytest.approx(math.log2(float(m)), rel=1e-14)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log2_int(0)


class TestBigPowers:
    def test_mass_identities_at_4096(self):
        sv = make_schmidt([0.9, 0.1])
        ls = power_spectrum(sv, 4096)
        assert ls.total_count == 2**4096
        assert abs(prefix_mass(ls, ls.total_count) - 1.0) <= 1e-10
        expected = 4096 * math.log2(math.sqrt(0.9) + math.sqrt(0.1))
        got = log2_prefix_sqrt_mass(ls, ls.total_count)
        assert abs(math.expm1((got - expected) * math.log(2.0))) <= 1e-9

    def test_huge_count_prefix(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 600)
        half = ls.total_count // 2
        mass = prefix_mass(ls, half)
        assert 0.0 < mass <= 1.0

    def test_build_peak_near_retained_size(self):
        # The big-integer counts dominate a qubit spectrum at large n; the
        # build must not hold each multiplicity beside its running count.
        ls, retained, peak = _traced_build(make_schmidt([0.9, 0.1]), 10000)
        assert ls.num_levels == 10001
        assert peak <= 1.25 * retained, (peak, retained)

    def test_rank3_build_peak_near_retained_size(self):
        # Levels share the count of their canonical row (7,651 counts for
        # 45,451 levels here), so the build holds far fewer big integers than
        # levels.  Counting every row put the peak at 1.60 times the size.
        ls, retained, peak = _traced_build(make_schmidt([0.5, 0.3, 0.2]), 300)
        assert ls.num_levels == 45451
        assert peak <= 1.5 * retained, (peak, retained)

    def test_high_rank_build_peak_near_retained_size(self):
        # From rank 5 up the exponent columns, 8 B per entry per level, hold
        # the peak.  Holding them as rows of one array beside the sorted
        # columns put it at 2.67 times the size here.
        sv = make_schmidt([0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.06, 0.04])
        ls, retained, peak = _traced_build(sv, 12)
        assert ls.num_levels == 50388
        assert peak <= 2 * retained, (peak, retained)

    @pytest.mark.parametrize(
        "probs, n",
        [
            ((0.9, 0.1), 10000),
            ((0.5, 0.3, 0.2), 300),
            ((0.9, 0.1), 30000),
            ((0.4, 0.3, 0.2, 0.1), 100),
            ((0.3, 0.2, 0.15, 0.1, 0.08, 0.07, 0.06, 0.04), 12),
            ((0.3, 0.25, 0.18, 0.12, 0.1, 0.05), 20),
            ((0.2, 0.15, 0.12, 0.1, 0.09, 0.08, 0.07, 0.06, 0.05, 0.04, 0.03, 0.01), 8),
        ],
    )
    def test_build_estimate_near_peak(self, probs, n):
        # The budget refuses up front on this estimate, so it must not lie
        # below the peak, nor far above it.  Charging each level a full
        # count put it 1.31 and 1.41 times above the peak at rank 3 and 4,
        # where levels share their canonical row's count, and 0.91 times the
        # peak at rank 8, where the exponent columns held it.
        sv = make_schmidt(probs)
        ls, _, peak = _traced_build(sv, n)
        estimate = _build_bytes(ls.num_levels, n, sv.rank)
        assert peak <= estimate <= 1.25 * peak, (estimate, peak)


def _traced_build(sv, n):
    """A spectrum with the bytes it retains and its build peak, under
    tracemalloc; a caller's own tracing is left running."""
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ls = power_spectrum(sv, n)
        retained, peak = (x - base for x in tracemalloc.get_traced_memory())
    finally:
        if not was_tracing:
            tracemalloc.stop()
    return ls, retained, peak


def test_concurrent_queries_match_serial():
    from concurrent.futures import ThreadPoolExecutor

    ls = power_spectrum(make_schmidt([0.6, 0.3, 0.1]), 9)
    counts = list(range(0, ls.total_count + 1, 997)) + [ls.total_count]
    serial = [prefix_mass(ls, c) for c in counts]
    with ThreadPoolExecutor(max_workers=8) as pool:
        threaded = list(pool.map(lambda c: prefix_mass(ls, c), counts))
    assert threaded == serial


def test_concurrent_reads_of_counted_starts():
    # A head counts each start when first read and keeps it.  Two readers
    # here count the same unread levels at the same moment: each count's
    # first step from level 0 waits at a barrier for the other.  Both must
    # see the exact values, and so must every read after them.
    import threading
    from concurrent.futures import ThreadPoolExecutor

    meet = threading.Barrier(2, timeout=10)

    class Meeting(int):
        """A count that waits for the other reader when a count steps from it."""

        def __mul__(self, other):
            meet.wait()
            return int(self) * other

    sv = make_schmidt([0.25, 0.75])
    expected = power_spectrum(sv, 3000).starts
    head = power_spectrum(sv, 3000, _HEAD)
    assert head.starts.known == ([0], 1)
    head.starts.known = ([0], Meeting(1))
    reads = [len(head.starts) - 1, len(head.starts) // 2]
    with ThreadPoolExecutor(max_workers=2) as pool:
        got = list(pool.map(head.starts.__getitem__, reads, timeout=60))
    assert got == [expected[i] for i in reads]
    assert tuple(head.starts) == expected[: len(head.starts)]


def test_schmidt_vector_invariants_enforced():
    with pytest.raises(ValueError):
        SchmidtVector(probs=(0.1, 0.9))  # not sorted
    with pytest.raises(NotNormalized):
        SchmidtVector(probs=(0.5, 0.4))
    with pytest.raises(EmptyInput):
        SchmidtVector(probs=())
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        SchmidtVector(probs=(1.0, 0.0))
    # Within the sum's tolerance, yet no probability: its entropy is negative.
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        SchmidtVector(probs=(1.0 + 5e-13,))
    # NaN fails every comparison, so it would pass the order and sum checks.
    with pytest.raises(ValueError, match="in \\(0, 1\\]"):
        SchmidtVector(probs=(0.6, float("nan"), 0.4))


@pytest.mark.parametrize("tail", [None, NEG_INF, -200.0], ids=["partial", "full", "head"])
def test_mass_guard_refuses_a_nan_total(tail):
    sv = make_schmidt([0.9, 0.1])
    eigs = np.array([math.log2(0.9), math.log2(0.1)])
    with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="mass"):
        _assemble(sv, 1, (0, 1, 2), eigs, np.array([0.0, np.nan]), tail)
