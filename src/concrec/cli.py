"""Command-line front end: figure data files, point queries, validation suites.

Exit codes: 0 on success, 1 when a validation suite fails (or output cannot
be written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
import time
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import __version__
from .asymptotics import (
    _critical_value,
    nmax_approx,
    normal_cdf,
    profile,
    prop3_limits,
)
from .conversion import (
    brute_force_fidelity,
    concentration_fidelity,
    dense_power_spectrum,
    dilution_fidelity,
)
from .errors import DegenerateVariance, InvalidEpsilon, InvalidSpec, IoFailure, ParamError
from .spectrum import SchmidtVector, log2_prefix_sqrt_mass, make_schmidt, power_spectrum
from .tradeoff import delta_curve, generalized_mcre, mcre, recoverable_points

QUERY_KINDS = ("mcre", "gmcre", "nmax", "error-conc", "error-dil", "profile")
SUITES = ("oracle", "identities", "asymptotic")

def _parse_float_list(text: str, what: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ParamError(f"cannot parse {what} list {text!r}") from exc
    if not values:
        raise ParamError(f"empty {what} list")
    return values


def _load_config(path: Union[str, None]) -> dict[str, str]:
    if path is None:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParamError(f"cannot read config file {path}: {exc}") from exc
    config: dict[str, str] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ParamError(f"config line {line_no} is not key=value: {line!r}")
        key, value = line.split("=", 1)
        config[key.strip()] = value.strip()
    return config


def _param(args, config: dict[str, str], name: str, cast, default=None):
    """A flag beats the config file, which beats ``default``; with no
    default the parameter is required.  ``cast`` reads config text, and
    flag values too, which argparse leaves as text for the list flags.
    The config entry is taken out of ``config`` either way, so the keys left
    at the end are those no parameter reads."""
    text = config.pop(name, None)
    value = getattr(args, name)
    if value is not None:
        return cast(value)
    if text is not None:
        try:
            return cast(text)
        except ValueError as exc:
            raise ParamError(f"config value {name}={text!r} is not valid") from exc
    if default is None:
        raise ParamError(f"query kind {args.kind!r} requires --{name}")
    return default


def _output_format(args, config: dict[str, str], default: str) -> str:
    fmt = _param(args, config, "format", str, default)
    if fmt not in ("csv", "json"):
        raise ParamError(f"unknown format {fmt!r}")
    return fmt


def _refuse_unread(config: dict[str, str]) -> None:
    """Refuse the config keys that no parameter of the command has read."""
    if config:
        raise ParamError(f"unknown config key(s) for this command: {', '.join(config)}")


def _resolve_state(args, config: dict[str, str]) -> SchmidtVector:
    if (args.p is not None and args.schmidt is not None) or ("p" in config and "schmidt" in config):
        raise ParamError("give either --p or --schmidt, not both")
    schmidt = config.pop("schmidt", None)
    if args.schmidt is not None:
        schmidt = args.schmidt
    if schmidt is not None and args.p is None:
        config.pop("p", None)
        return make_schmidt(_parse_float_list(schmidt, "schmidt"))
    p = _param(args, config, "p", float, 0.1)
    if not 0.0 < p < 1.0:
        raise ParamError(f"--p must be in (0, 1), got {p}")
    return make_schmidt([p, 1.0 - p])


def _render_csv(metadata: list[tuple[str, str]], columns: Sequence[str], rows) -> str:
    out = io.StringIO()
    out.writelines(f"# {key}={value}\n" for key, value in metadata)
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return out.getvalue()


def _render_json(metadata: list[tuple[str, str]], columns: Sequence[str], rows) -> str:
    payload = {
        "metadata": dict(metadata),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def _state_text(sv: SchmidtVector) -> str:
    return ",".join(repr(p) for p in sv.probs)


def run_figure(
    figure_id: str,
    sv: SchmidtVector,
    n: int,
    kmax: int,
    epsilon_grid: Sequence[float],
    b_grid: Sequence[float],
) -> tuple[Sequence[str], list, list[tuple[str, str]]]:
    """Compute the rows of one figure; returns (columns, rows, metadata)."""
    metadata: list[tuple[str, str]] = [
        ("figure", figure_id),
        ("state", _state_text(sv)),
        ("version", __version__),
    ]
    if figure_id == "fig2":
        metadata.append(("kmax", str(kmax)))
        metadata.append(("units", "log2_n:bits,delta:1"))
        points = delta_curve(sv, [1 << k for k in range(1, kmax + 1)])
        rows = [(k, delta) for k, (_n, delta) in enumerate(points, start=1)]
        return ("log2_n", "delta"), rows, metadata
    if figure_id == "fig3":
        prof = profile(sv)
        if prof.variance_V <= 0.0:
            raise InvalidSpec("fig3 needs a state with non-flat spectrum (V > 0)")
        metadata.append(("units", "b:bits_per_sqrt_copy,conc_limit:1,dil_limit:1"))
        rows = []
        for b in b_grid:
            conc, dil = prop3_limits(sv, prof.entropy_S, b)
            rows.append((b, conc, dil))
        return ("b", "conc_limit", "dil_limit"), rows, metadata
    if figure_id == "fig4":
        prof = profile(sv)
        # V > 0 needs two distinct entries, so each is below 1 and S > 0.
        if prof.variance_V <= 0.0:
            raise InvalidSpec("fig4 needs a state with V > 0 and S > 0")
        metadata.append(("n", str(n)))
        metadata.append(("units", "epsilon:1,N_exact:copies,N_approx:copies"))
        points = recoverable_points(sv, n, epsilon_grid)
        rows = [
            (eps, point.N if point else 0, nmax_approx(sv, n, eps))
            for eps, point in zip(epsilon_grid, points)
        ]
        return ("epsilon", "N_exact", "N_approx"), rows, metadata
    if figure_id == "fig5":
        metadata.append(("units", "epsilon:1,coefficient:copies_per_sqrt_copy"))
        rows = [(eps, _critical_value(eps)) for eps in epsilon_grid]
        return ("epsilon", "coefficient"), rows, metadata
    raise InvalidSpec(f"unknown figure id {figure_id!r}")


def _cmd_fig(args) -> int:
    config = _load_config(args.config)
    state = _resolve_state(args, config)
    figure_id = f"fig{args.id}"
    eps_default = {
        "fig4": tuple(0.05 * i for i in range(1, 20)),
        "fig5": tuple(0.01 * i for i in range(1, 100)),
    }.get(figure_id, ())
    eps_grid = _param(
        args, config, "eps_grid", lambda text: _parse_float_list(text, "epsilon"), eps_default
    )
    for eps in eps_grid:
        if not 0.0 < eps < 1.0:
            raise ParamError(f"epsilon values must lie in (0, 1), got {eps}")
    b_default = tuple(float(b) for b in np.linspace(-4.0, 4.0, 81))
    b_grid = _param(args, config, "b_grid", lambda text: _parse_float_list(text, "b"), b_default)
    n = _param(args, config, "n", int, 3000)
    kmax = _param(args, config, "kmax", int, 10)
    fmt = _output_format(args, config, "csv")
    _refuse_unread(config)
    if n < 1 or kmax < 1:
        raise ParamError("--n and --kmax must be >= 1")

    start = time.perf_counter()
    columns, rows, metadata = run_figure(figure_id, state, n, kmax, eps_grid, b_grid)
    for row in rows:
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSpec(f"non-finite value {value!r} in output row {row}")
    text = (_render_csv if fmt == "csv" else _render_json)(metadata, columns, rows)
    try:
        Path(args.out).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {args.out}: {exc}") from exc
    elapsed = time.perf_counter() - start
    print(f"wrote {args.out} ({len(rows)} rows) in {elapsed:.2f}s")
    return 0


def _cmd_query(args) -> int:
    config = _load_config(args.config)
    state = _resolve_state(args, config)
    fmt = _output_format(args, config, "json")
    kind = args.kind
    # Every parameter is read before any work, so an unknown config key is
    # refused up front.
    n = _param(args, config, "n", int) if kind not in ("error-dil", "profile") else None
    N = _param(args, config, "N", int) if kind in ("gmcre", "error-dil") else None
    m = _param(args, config, "m", int) if kind in ("error-conc", "error-dil") else None
    eps = _param(args, config, "eps", float) if kind == "nmax" else None
    _refuse_unread(config)
    record: dict[str, object] = {"kind": kind, "state": _state_text(state)}
    if kind in ("mcre", "gmcre"):
        record["n"] = n
        if kind == "mcre":
            result = mcre(state, n)
        else:
            record["N"] = N
            result = generalized_mcre(state, n, N)
        record.update(
            delta=result.delta,
            optimal_m=result.optimal_m,
            concentration_error=result.concentration_error,
            recovery_error=result.recovery_error,
        )
    elif kind == "nmax":
        (point,) = recoverable_points(state, n, [eps])
        n_exact = point.N if point else 0
        record.update(n=n, eps=eps, N_max=n_exact, loss=n - n_exact)
        # Left out where the estimate is undefined: V = 0, eps = 1, or an
        # eps so small that 1 - eps/2 rounds to 1.
        with contextlib.suppress(DegenerateVariance, InvalidEpsilon):
            record["N_approx"] = nmax_approx(state, n, eps)
        if point:
            record["delta_at_N_max"] = point.delta
    elif kind == "error-conc":
        if n < 0 or m < 1:
            raise ParamError("error-conc needs n >= 0 and m >= 1")
        result = concentration_fidelity(power_spectrum(state, n), 1 << m)
        record.update(
            n=n,
            m=m,
            error=result.error,
            fidelity=result.fidelity,
            flatten_index_J=result.flatten_index_J,
        )
    elif kind == "error-dil":
        if N < 0 or m < 1:
            raise ParamError("error-dil needs N >= 0 and m >= 1")
        result = dilution_fidelity(power_spectrum(state, N), 1 << m)
        record.update(N=N, m=m, error=result.error, fidelity=result.fidelity)
    else:
        record.update(dataclasses.asdict(profile(state)))

    print(_render_record(record, fmt), end="")
    return 0


def _render_record(record: dict[str, object], fmt: str) -> str:
    """The record as text, with the interpreter's cap on int-to-decimal digits
    (Python 3.10.7 and later) lifted: an exact flatten index can pass it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if fmt == "csv":
            return _render_csv([], record, [record.values()])
        # JSON has no NaN or infinity: write those as null.
        finite = {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()
        }
        return json.dumps(finite, sort_keys=True) + "\n"
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _check(name: str, deviation: float, tolerance: float) -> bool:
    """Print one PASS or FAIL line; True when it passes."""
    ok = deviation <= tolerance
    status = "PASS" if ok else "FAIL"
    print(f"{status}  {name}: max deviation {deviation:.3e} (tolerance {tolerance:.1e})")
    return ok


def _suite_oracle(seed: int) -> bool:
    if seed < 0:
        raise ParamError(f"--seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    worst = 0.0
    trials = 0
    for _ in range(200):
        rank = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(rank))
        sv = make_schmidt(probs.tolist())
        single = power_spectrum(sv, 1)
        for L in range(2, 9):
            formula = concentration_fidelity(single, L).fidelity
            oracle = brute_force_fidelity(sv, L)
            worst = max(worst, abs(formula - oracle))
            trials += 1
    print(f"compared 200 random states across L in 2..8 ({trials} pairs)")
    return _check("concentration fidelity vs brute-force oracle", worst, 1e-6)


def _suite_identities() -> bool:
    sv = make_schmidt([0.9, 0.1])

    mass_dev = 0.0
    sqrt_dev = 0.0
    count_dev = 0.0
    log2_sqrt_single = math.log2(math.fsum(math.sqrt(p) for p in sv.probs))
    for n in range(1, 65):
        ls = power_spectrum(sv, n)
        mass_dev = max(mass_dev, abs(math.pow(2.0, float(ls.prefix_log2_mass[-1])) - 1.0))
        sqrt_dev = max(
            sqrt_dev,
            abs(log2_prefix_sqrt_mass(ls, ls.total_count) - n * log2_sqrt_single),
        )
        count_dev = max(count_dev, abs(ls.total_count - 2**n))
    # & rather than and: every check prints its line.
    ok = _check("total mass equals 1", mass_dev, 1e-10)
    ok &= _check("log2 of total sqrt-mass equals n*log2(sum sqrt p)", sqrt_dev, 1.5e-9)
    ok &= _check("total count equals rank^n", count_dev, 0.0)

    dense_dev = 0.0
    for probs in ([0.9, 0.1], [0.5, 0.3, 0.2]):
        svd = make_schmidt(probs)
        for n in range(0, 13):
            ls = power_spectrum(svd, n)
            dense = dense_power_spectrum(svd.probs, n)
            expanded = np.repeat(np.power(2.0, ls.log2_eigenvalues), np.diff(ls.starts))
            dense_dev = max(dense_dev, float(np.max(np.abs(expanded - dense))))
    ok &= _check("leveled spectrum equals dense enumeration", dense_dev, 1e-12)

    mono_dev = 0.0
    ls16 = power_spectrum(sv, 16)
    conc = [concentration_fidelity(ls16, 1 << m).error for m in range(1, 33)]
    dil = [dilution_fidelity(ls16, 1 << m).error for m in range(1, 33)]
    for a, b in zip(conc, conc[1:]):
        mono_dev = max(mono_dev, a - b)
    for a, b in zip(dil, dil[1:]):
        mono_dev = max(mono_dev, b - a)
    deltas = [generalized_mcre(sv, 32, N).delta for N in range(1, 33)]
    for a, b in zip(deltas, deltas[1:]):
        mono_dev = max(mono_dev, a - b)
    return _check("monotonicity (conc in m, dil in m, delta in N)", mono_dev, 1e-12) & ok


def _suite_asymptotic(n: int) -> bool:
    sv = make_schmidt([0.9, 0.1])
    prof = profile(sv)
    if n < 0:
        raise ParamError(f"--n must be >= 0, got {n}")
    ms = {b: math.floor(prof.entropy_S * n + b * math.sqrt(n)) for b in (-1.0, 0.0, 1.0)}
    if min(ms.values()) < 0:
        raise ParamError(f"--n {n} is too small: m = floor(S*n - sqrt(n)) = {ms[-1.0]} < 0")
    ls = power_spectrum(sv, n)
    conc_dev = 0.0
    dil_dev = 0.0
    for b, m in ms.items():
        limit = normal_cdf(b / prof.sqrt_V)
        conc = concentration_fidelity(ls, 1 << m).error
        dil = dilution_fidelity(ls, 1 << m).error
        conc_dev = max(conc_dev, abs(conc - limit))
        dil_dev = max(dil_dev, abs(dil - (1.0 - limit)))
    ok = _check(f"concentration error vs Gaussian limit at n={n}", conc_dev, 0.05)
    return _check(f"dilution error vs Gaussian limit at n={n}", dil_dev, 0.05) & ok


def _cmd_validate(args) -> int:
    if args.suite == "oracle":
        ok = _suite_oracle(args.seed if args.seed is not None else 0)
    elif args.suite == "identities":
        ok = _suite_identities()
    else:
        ok = _suite_asymptotic(args.n if args.n is not None else 3000)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="concrec",
        description=(
            "Exact LOCC concentration/dilution errors between tensor-power "
            "states and EPR blocks, trade-off curves, and their Gaussian "
            "second-order approximations."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("fig", help="write one figure data file")
    fig.add_argument("--id", type=int, required=True, choices=(2, 3, 4, 5))
    fig.add_argument("--p", type=float, help="qubit parameter: state sqrt(p)|00> + sqrt(1-p)|11>")
    fig.add_argument("--schmidt", type=str, help="comma-separated squared Schmidt coefficients")
    fig.add_argument("--n", type=int, help="copy count for fig4 (default 3000)")
    fig.add_argument("--kmax", type=int, help="fig2 scans n = 2^1 .. 2^kmax (default 10)")
    fig.add_argument("--eps-grid", type=str, help="comma-separated error budgets for fig4/fig5")
    fig.add_argument("--b-grid", type=str, help="comma-separated second-order rates for fig3")
    fig.add_argument("--out", type=str, required=True)
    fig.add_argument("--format", choices=("csv", "json"))
    fig.add_argument("--config", type=str, help="key=value defaults file")
    fig.set_defaults(func=_cmd_fig)

    query = sub.add_parser("query", help="print one record for a single quantity")
    query.add_argument("--kind", required=True, choices=QUERY_KINDS)
    query.add_argument("--p", type=float)
    query.add_argument("--schmidt", type=str)
    query.add_argument("--n", type=int)
    query.add_argument("--N", type=int)
    query.add_argument("--m", type=int)
    query.add_argument("--eps", type=float)
    query.add_argument("--format", choices=("csv", "json"))
    query.add_argument("--config", type=str)
    query.set_defaults(func=_cmd_query)

    validate = sub.add_parser("validate", help="run a self-check suite")
    validate.add_argument("--suite", required=True, choices=SUITES)
    validate.add_argument("--seed", type=int)
    validate.add_argument("--n", type=int)
    validate.set_defaults(func=_cmd_validate)
    return parser


def main(argv: Union[Sequence[str], None] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (IoFailure, ArithmeticError) as exc:  # output failure or broken check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes every errors.Error subclass
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'concrec {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
