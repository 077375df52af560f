import itertools
import math
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from concrec.spectrum import _build_bytes

from _oracles import dense_power_spectrum, reference_power_spectrum


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
        # 4.5M levels, estimated at 3.5 GB to build: refused before enumerating.
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

    def test_prefix_sqrt_examples(self):
        sv = make_schmidt([0.9, 0.1])
        one = power_spectrum(sv, 1)
        assert 2.0 ** log2_prefix_sqrt_mass(one, 2) == pytest.approx(
            math.sqrt(0.9) + math.sqrt(0.1), abs=1e-12
        )
        two = power_spectrum(sv, 2)
        assert 2.0 ** log2_prefix_sqrt_mass(two, 4) == pytest.approx(1.6, abs=1e-9)
        assert 2.0 ** log2_prefix_sqrt_mass(two, 0) == 0.0

    def test_prefix_sqrt_count_exceeds(self):
        ls = power_spectrum(make_schmidt([0.9, 0.1]), 2)
        with pytest.raises(CountExceedsTotal):
            log2_prefix_sqrt_mass(ls, 5)

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
    """A rank 1-4 state whose entries repeat in groups, and a copy count."""
    rank = draw(st.integers(1, 4))
    cuts = sorted(draw(st.sets(st.integers(1, rank - 1)))) if rank > 1 else []
    sizes = [b - a for a, b in zip([0, *cuts], [*cuts, rank])]
    values = draw(st.lists(st.integers(1, 20), min_size=len(sizes), max_size=len(sizes), unique=True))
    weights = [v for v, size in zip(values, sizes) for _ in range(size)]
    sv = make_schmidt([w / sum(weights) for w in weights])
    return sv, draw(st.integers(0, max_n))


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
def test_build_matches_per_level_reference(case):
    _assert_same_build(*case)


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
    sv, n, count, extensions = case
    full = power_spectrum(sv, n)
    ls = power_spectrum(sv, n, count)
    if sv.probs[0] - sv.probs[1] > 1e-3 and 2 * count <= 1 << n:
        assert not ls.complete
    if not ls.complete:
        assert ls.starts[-2] < count <= ls.starts[-1]  # built no further than needed
    for target in [count, *extensions]:
        ls = extend_spectrum(ls, target)
        k = ls.num_levels
        assert ls.total_count >= target
        assert ls.starts == full.starts[: k + 1]
        for column in ("log2_eigenvalues", "prefix_log2_mass"):
            assert getattr(ls, column).tobytes() == getattr(full, column)[:k].tobytes(), column
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


def test_partial_build_rejects_an_empty_count():
    with pytest.raises(ValueError):
        power_spectrum(make_schmidt([0.9, 0.1]), 3, 0)


def test_seeded_accumulate_continues_one_accumulate():
    # extend_spectrum continues a prefix column by seeding the running
    # log-add with its last value; this pins numpy's accumulate to that.
    pieces = np.random.default_rng(16).uniform(-60.0, 0.0, 10_000)
    whole = np.logaddexp2.accumulate(pieces)
    for cut in (1, 137, 5_000, 9_999):
        head = np.logaddexp2.accumulate(pieces[:cut])
        rest = np.logaddexp2.accumulate(np.concatenate((head[-1:], pieces[cut:])))
        assert np.concatenate((head[:-1], rest)).tobytes() == whole.tobytes()


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

    @pytest.mark.parametrize("probs, n", [((0.9, 0.1), 10000), ((0.5, 0.3, 0.2), 300)])
    def test_build_estimate_near_peak(self, probs, n):
        sv = make_schmidt(probs)
        ls, _, peak = _traced_build(sv, n)
        estimate = _build_bytes(ls.num_levels, n, sv.rank)
        assert peak / 2 <= estimate <= 2 * peak, (estimate, peak)


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


def test_schmidt_vector_invariants_enforced():
    with pytest.raises(ValueError):
        SchmidtVector(probs=(0.1, 0.9), rank=2)  # not sorted
    with pytest.raises(NotNormalized):
        SchmidtVector(probs=(0.5, 0.4), rank=2)
    with pytest.raises(ValueError):
        SchmidtVector(probs=(0.9, 0.1), rank=3)
