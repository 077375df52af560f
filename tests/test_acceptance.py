"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured deviations.
"""

import math
import time

import numpy as np

from concrec import (
    brute_force_fidelity,
    concentration_fidelity,
    dilution_fidelity,
    generalized_mcre,
    log2_prefix_sqrt_mass,
    make_schmidt,
    max_recoverable,
    mcre,
    mcre_limit,
    nmax_approx,
    normal_cdf,
    normal_quantile,
    power_spectrum,
    prefix_mass,
    profile,
    prop3_limits,
)
from concrec.cli import main as cli_main

from _oracles import (
    best_feasible_grid_value,
    dense_delta,
    exact_qubit_errors,
    sorted_simplex_grid,
)

QUBIT = make_schmidt([0.9, 0.1])


def _report(num: int, description: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num}: {description} ({detail})")
    assert ok, f"criterion {num}: {description} ({detail})"


def test_criterion_01_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i in range(1, 10):
        p = 0.05 * i
        sv = make_schmidt([p, 1.0 - p])
        cache = {}
        for n in range(1, 13):
            for N in range(1, n + 1):
                fast = generalized_mcre(sv, n, N).delta
                dense = dense_delta(sv.probs, n, N, cache)
                worst = max(worst, abs(fast - dense))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "leveled trade-off equals densely enumerated trade-off",
        worst <= 1e-10 and elapsed < 10.0,
        f"max |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_concentration_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(20240901)
    grids = {L: sorted_simplex_grid(L, 1000) for L in (2, 3)}
    worst_brute = 0.0
    worst_grid = 0.0
    for _ in range(200):
        rank = int(rng.integers(2, 5))
        sv = make_schmidt(rng.dirichlet(np.ones(rank)).tolist())
        single = power_spectrum(sv, 1)
        for L in range(2, 9):
            formula = concentration_fidelity(single, L).fidelity
            worst_brute = max(worst_brute, abs(formula - brute_force_fidelity(sv, L)))
            if L in grids:
                padded = np.zeros(L)
                padded[: min(L, sv.rank)] = sv.probs[:L]
                _grid, objectives, prefixes = grids[L]
                best = best_feasible_grid_value(np.cumsum(padded), objectives, prefixes)
                worst_grid = max(worst_grid, best - formula)
    elapsed = time.perf_counter() - start
    _report(
        2,
        "formula matches brute-force oracle and beats grid competitors",
        worst_brute <= 1e-6 and worst_grid <= 1e-6 and elapsed < 60.0,
        f"max |formula-oracle| = {worst_brute:.2e}, "
        f"max grid excess = {worst_grid:.2e}, {elapsed:.1f}s",
    )


def test_criterion_03_spectral_identities():
    log2_sqrt_single = math.log2(math.sqrt(0.9) + math.sqrt(0.1))
    mass_dev = 0.0
    sqrt_dev = 0.0
    for n in (1, 2, 3, 5, 16, 64, 100, 256, 1000, 2048, 4095, 4096):
        ls = power_spectrum(QUBIT, n)
        mass_dev = max(mass_dev, abs(prefix_mass(ls, ls.total_count) - 1.0))
        diff = log2_prefix_sqrt_mass(ls, ls.total_count) - n * log2_sqrt_single
        sqrt_dev = max(sqrt_dev, abs(math.expm1(diff * math.log(2.0))))
    _report(
        3,
        "total mass and sqrt-mass identities up to n=4096",
        mass_dev <= 1e-10 and sqrt_dev <= 1e-9,
        f"mass dev = {mass_dev:.2e}, sqrt-mass rel dev = {sqrt_dev:.2e}",
    )


def test_criterion_04_prop3_finite_n():
    start = time.perf_counter()
    prof = profile(QUBIT)
    offsets = (-1.0, 0.0, 1.0)
    sizes = (750, 3000, 12000)
    errors = {}
    for n in sizes:
        ls = power_spectrum(QUBIT, n)
        ms = [int(math.floor(prof.entropy_S * n + b * math.sqrt(n))) for b in offsets]
        conc = [concentration_fidelity(ls, 1 << m).error for m in ms]
        dil = [dilution_fidelity(ls, 1 << m).error for m in ms]
        errors[n] = (ms, conc, dil)
    ms, conc, dil = errors[3000]
    limits = [normal_cdf(b / prof.sqrt_V) for b in offsets]
    conc_dev = max(abs(c - g) for c, g in zip(conc, limits))
    dil_dev = max(abs(d - (1.0 - g)) for d, g in zip(dil, limits))
    exact = exact_qubit_errors(QUBIT.probs, 3000, [1 << m for m in ms])
    oracle_dev = max(
        max(abs(c - ec), abs(d - ed)) for c, d, (ec, ed) in zip(conc, dil, exact)
    )
    deficits = {n: [1.0 - c - d for c, d in zip(*errors[n][1:])] for n in sizes}
    elapsed = time.perf_counter() - start
    # Prop 3 says conc + dil -> 1 but gives no rate at finite n: both errors
    # approach their Gaussian limits from below, so the sum falls short of 1
    # by O(log n / sqrt(n)), 0.073 at n = 3000. The sum is therefore checked
    # as a limit: the deficit stays positive and quadrupling n cuts it by at
    # least a third, which a deficit that does not vanish cannot do.
    positive = all(x > 0.0 for xs in deficits.values() for x in xs)
    worst = [max(deficits[n]) for n in sizes]
    ratios = [b / a for a, b in zip(worst, worst[1:])]
    _report(
        4,
        "finite-n errors track the Gaussian limits at n=3000",
        conc_dev <= 0.05
        and dil_dev <= 0.05
        and oracle_dev <= 1e-10
        and positive
        and all(r <= 2.0 / 3.0 for r in ratios)
        and elapsed < 30.0,
        f"n=3000: conc dev = {conc_dev:.4f}, dil dev = {dil_dev:.4f}, "
        f"oracle dev = {oracle_dev:.1e}; sum deficit at n=750/3000/12000 = "
        f"{worst[0]:.4f}/{worst[1]:.4f}/{worst[2]:.4f}, "
        f"ratios {ratios[0]:.3f}/{ratios[1]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_tradeoff_trend():
    start = time.perf_counter()
    deltas = {n: mcre(QUBIT, n).delta for n in (2**k for k in range(1, 11))}
    values = [deltas[2**k] for k in range(1, 11)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    bounded = all(0.0 <= d <= 1.0 for d in values)
    elapsed = time.perf_counter() - start
    _report(
        5,
        "trade-off error grows toward 1 along n = 2^1..2^10",
        monotone
        and bounded
        and deltas[1024] > deltas[16]
        and (1.0 - deltas[1024]) < (1.0 - deltas[64])
        and elapsed < 60.0,
        f"delta(16) = {deltas[16]:.4f}, delta(64) = {deltas[64]:.4f}, "
        f"delta(1024) = {deltas[1024]:.4f}, {elapsed:.1f}s",
    )


def test_criterion_06_recoverable_copies_approximation():
    start = time.perf_counter()
    scaled = {}
    worst_rel = 0.0
    for n in (750, 3000):
        for eps in (0.1, 0.2, 0.5):
            exact_loss = n - max_recoverable(QUBIT, n, eps)
            approx_loss = n - nmax_approx(QUBIT, n, eps)
            scaled[(n, eps)] = abs(exact_loss - approx_loss) / math.sqrt(n)
            if n == 3000:
                worst_rel = max(worst_rel, abs(exact_loss - approx_loss) / approx_loss)
    shrinks = all(scaled[(3000, eps)] < scaled[(750, eps)] for eps in (0.1, 0.2, 0.5))
    elapsed = time.perf_counter() - start
    _report(
        6,
        "copy-loss approximation within 20% at n=3000 and tightening with n",
        worst_rel <= 0.20 and shrinks and elapsed < 300.0,
        f"max rel gap = {worst_rel:.3f}, "
        f"scaled gaps 750->{max(scaled[(750, e)] for e in (0.1, 0.2, 0.5)):.3f} "
        f"3000->{max(scaled[(3000, e)] for e in (0.1, 0.2, 0.5)):.3f}, {elapsed:.1f}s",
    )


def test_criterion_07_ten_percent_loss():
    n = 3000
    loss = n - max_recoverable(QUBIT, n, 0.1)
    _report(
        7,
        "loss at eps=0.1, n=3000 reaches 10% of the initial copies",
        loss / n >= 0.10,
        f"loss fraction = {loss / n:.4f}",
    )


def test_criterion_08_special_functions():
    grid = np.concatenate(
        [
            np.logspace(-6, -1, 60),
            np.linspace(0.1, 0.9, 81),
            1.0 - np.logspace(-6, -1, 60),
        ]
    )
    roundtrip = max(abs(normal_cdf(normal_quantile(float(u))) - float(u)) for u in grid)
    symmetry = max(
        abs(normal_cdf(-float(x)) - (1.0 - normal_cdf(float(x))))
        for x in np.linspace(0.0, 8.0, 161)
    )
    _report(
        8,
        "normal CDF/quantile accuracy, center value and symmetry",
        roundtrip <= 1e-10 and normal_cdf(0.0) == 0.5 and symmetry <= 1e-14,
        f"roundtrip = {roundtrip:.2e}, symmetry = {symmetry:.2e}",
    )


def test_criterion_09_closed_form_asymptotics():
    prof = profile(QUBIT)
    sums_exact = all(
        sum(prop3_limits(QUBIT, a, b)) == 1.0
        for a in (0.1, prof.entropy_S, 0.9)
        for b in np.linspace(-3.0, 3.0, 41)
    )
    grid = [0.01 * i for i in range(1, 100)]
    values = [normal_quantile(1 - eps / 2) for eps in grid]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    _report(
        9,
        "limit identities: components sum to 1, unit limit, decreasing coefficient",
        sums_exact and mcre_limit(QUBIT, 0.0) == 1.0 and decreasing,
        f"sums exact = {sums_exact}, decreasing = {decreasing}",
    )


def test_criterion_10_figure_determinism(tmp_path):
    figures = [
        ["fig", "--id", "2"],
        ["fig", "--id", "3"],
        ["fig", "--id", "4"],
        ["fig", "--id", "5"],
    ]
    all_identical = True
    details = []
    for args in figures:
        first = tmp_path / f"{args[2]}_a.csv"
        second = tmp_path / f"{args[2]}_b.csv"
        assert cli_main(args + ["--out", str(first)]) == 0
        assert cli_main(args + ["--out", str(second)]) == 0
        identical = first.read_bytes() == second.read_bytes()
        all_identical &= identical
        details.append(f"fig{args[2]}:{'=' if identical else '!='}")
    _report(
        10,
        "figure outputs are byte-identical across runs",
        all_identical,
        " ".join(details),
    )
