"""Command-line front end: figure data files, point queries, validation suites.

Exit codes: 0 on success, 1 when a validation suite fails (or output cannot
be written), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from . import __version__
from .asymptotics import (
    nmax_approx,
    normal_cdf,
    normal_quantile,
    profile,
    prop3_limits,
)
from .conversion import (
    brute_force_fidelity,
    concentration_fidelity,
    dense_power_spectrum,
    dilution_fidelity,
)
from .errors import InvalidSpec, IoFailure, ParamError
from .spectrum import SchmidtVector, log2_prefix_sqrt_mass, make_schmidt, power_spectrum
from .tradeoff import delta_curve, generalized_mcre, mcre, recoverable_points

QUERY_KINDS = ("mcre", "gmcre", "nmax", "error-conc", "error-dil", "profile")
SUITES = ("oracle", "identities", "asymptotic")

_DEFAULTS = {
    "p": 0.1,
    "n": 3000,
    "kmax": 10,
    "format": "csv",
    "seed": 0,
}


@dataclass(frozen=True)
class FigureSpec:
    """Everything needed to produce one figure data file."""

    figure_id: str
    state: SchmidtVector
    n: int
    kmax: int
    epsilon_grid: tuple[float, ...]
    b_grid: tuple[float, ...]
    output_path: str
    format: str


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
    flag values too, which argparse leaves as text for the list flags."""
    value = getattr(args, name)
    if value is not None:
        return cast(value)
    if name in config:
        try:
            return cast(config[name])
        except ValueError as exc:
            raise ParamError(f"config value {name}={config[name]!r} is not valid") from exc
    if default is None:
        raise ParamError(f"query kind {args.kind!r} requires --{name}")
    return default


def _resolve_state(args, config: dict[str, str]) -> SchmidtVector:
    if (args.p is not None and args.schmidt is not None) or ("p" in config and "schmidt" in config):
        raise ParamError("give either --p or --schmidt, not both")
    if args.schmidt is not None:
        return make_schmidt(_parse_float_list(args.schmidt, "schmidt"))
    if "schmidt" in config and args.p is None:
        return make_schmidt(_parse_float_list(config["schmidt"], "schmidt"))
    p = _param(args, config, "p", float, _DEFAULTS["p"])
    if not 0.0 < p < 1.0:
        raise ParamError(f"--p must be in (0, 1), got {p}")
    return make_schmidt([p, 1.0 - p])


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _render_csv(metadata: list[tuple[str, str]], columns: Sequence[str], rows) -> str:
    lines = [f"# {key}={value}" for key, value in metadata]
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_format_value(v) for v in row))
    return "\n".join(lines) + "\n"


def _render_json(metadata: list[tuple[str, str]], columns: Sequence[str], rows) -> str:
    payload = {
        "metadata": dict(metadata),
        "columns": list(columns),
        "rows": [list(row) for row in rows],
    }
    return json.dumps(payload, sort_keys=True, separators=(", ", ": ")) + "\n"


def _state_text(sv: SchmidtVector) -> str:
    return ",".join(repr(p) for p in sv.probs)


def run_figure(spec: FigureSpec) -> tuple[Sequence[str], list, list[tuple[str, str]]]:
    """Compute the rows of one figure; returns (columns, rows, metadata)."""
    sv = spec.state
    metadata: list[tuple[str, str]] = [
        ("figure", spec.figure_id),
        ("state", _state_text(sv)),
        ("version", __version__),
    ]
    if spec.figure_id == "fig2":
        metadata.append(("kmax", str(spec.kmax)))
        metadata.append(("units", "log2_n:bits,delta:1"))
        points = delta_curve(sv, [1 << k for k in range(1, spec.kmax + 1)])
        rows = [(k, delta) for k, (_n, delta) in enumerate(points, start=1)]
        return ("log2_n", "delta"), rows, metadata
    if spec.figure_id == "fig3":
        prof = profile(sv)
        if prof.variance_V <= 0.0:
            raise InvalidSpec("fig3 needs a state with non-flat spectrum (V > 0)")
        metadata.append(("units", "b:bits_per_sqrt_copy,conc_limit:1,dil_limit:1"))
        rows = []
        for b in spec.b_grid:
            conc, dil = prop3_limits(sv, prof.entropy_S, b)
            rows.append((b, conc, dil))
        return ("b", "conc_limit", "dil_limit"), rows, metadata
    if spec.figure_id == "fig4":
        prof = profile(sv)
        if prof.variance_V <= 0.0 or prof.entropy_S <= 0.0:
            raise InvalidSpec("fig4 needs a state with V > 0 and S > 0")
        metadata.append(("n", str(spec.n)))
        metadata.append(("units", "epsilon:1,N_exact:copies,N_approx:copies"))
        points = recoverable_points(sv, spec.n, spec.epsilon_grid)
        rows = [
            (eps, point.N if point else 0, nmax_approx(sv, spec.n, eps))
            for eps, point in zip(spec.epsilon_grid, points)
        ]
        return ("epsilon", "N_exact", "N_approx"), rows, metadata
    if spec.figure_id == "fig5":
        metadata.append(("units", "epsilon:1,coefficient:copies_per_sqrt_copy"))
        rows = [(eps, normal_quantile(1.0 - eps / 2.0)) for eps in spec.epsilon_grid]
        return ("epsilon", "coefficient"), rows, metadata
    raise InvalidSpec(f"unknown figure id {spec.figure_id!r}")


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
    spec = FigureSpec(
        figure_id=figure_id,
        state=state,
        n=_param(args, config, "n", int, _DEFAULTS["n"]),
        kmax=_param(args, config, "kmax", int, _DEFAULTS["kmax"]),
        epsilon_grid=eps_grid,
        b_grid=b_grid,
        output_path=args.out,
        format=_param(args, config, "format", str, _DEFAULTS["format"]),
    )
    if spec.n < 1 or spec.kmax < 1:
        raise ParamError("--n and --kmax must be >= 1")
    if spec.format not in ("csv", "json"):
        raise ParamError(f"unknown format {spec.format!r}")

    start = time.perf_counter()
    columns, rows, metadata = run_figure(spec)
    for row in rows:
        for value in row:
            if isinstance(value, float) and not math.isfinite(value):
                raise InvalidSpec(f"non-finite value {value!r} in output row {row}")
    text = (_render_csv if spec.format == "csv" else _render_json)(metadata, columns, rows)
    try:
        Path(spec.output_path).write_text(text)
    except OSError as exc:
        raise IoFailure(f"cannot write {spec.output_path}: {exc}") from exc
    elapsed = time.perf_counter() - start
    print(f"wrote {spec.output_path} ({len(rows)} rows) in {elapsed:.2f}s")
    return 0


def _cmd_query(args) -> int:
    config = _load_config(args.config)
    state = _resolve_state(args, config)
    record: dict[str, object] = {"kind": args.kind, "state": _state_text(state)}
    kind = args.kind
    if kind in ("mcre", "gmcre"):
        n = _param(args, config, "n", int)
        record["n"] = n
        if kind == "mcre":
            result = mcre(state, n)
        else:
            N = _param(args, config, "N", int)
            record["N"] = N
            result = generalized_mcre(state, n, N)
        record.update(
            delta=result.delta,
            optimal_m=result.optimal_m,
            concentration_error=result.concentration_error,
            recovery_error=result.recovery_error,
        )
    elif kind == "nmax":
        n = _param(args, config, "n", int)
        eps = _param(args, config, "eps", float)
        (point,) = recoverable_points(state, n, [eps])
        n_exact = point.N if point else 0
        record.update(n=n, eps=eps, N_max=n_exact, loss=n - n_exact)
        prof = profile(state)
        if prof.variance_V > 0.0 and prof.entropy_S > 0.0 and eps < 1.0:
            record["N_approx"] = nmax_approx(state, n, eps)
        if point:
            record["delta_at_N_max"] = point.delta
    elif kind == "error-conc":
        n = _param(args, config, "n", int)
        m = _param(args, config, "m", int)
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
        N = _param(args, config, "N", int)
        m = _param(args, config, "m", int)
        if N < 0 or m < 1:
            raise ParamError("error-dil needs N >= 0 and m >= 1")
        result = dilution_fidelity(power_spectrum(state, N), 1 << m)
        record.update(N=N, m=m, error=result.error, fidelity=result.fidelity)
    elif kind == "profile":
        prof = profile(state)
        record.update(
            entropy_S=prof.entropy_S,
            variance_V=prof.variance_V,
            sqrt_V=prof.sqrt_V,
            loss_scale=prof.loss_scale,
        )
    else:
        raise ParamError(f"unknown query kind {kind!r}")

    if args.format == "csv":
        keys = list(record)
        print(",".join(keys))
        print(",".join(_format_value(record[k]) for k in keys))
    else:
        # JSON has no NaN or infinity: write those as null.
        finite = {
            k: None if isinstance(v, float) and not math.isfinite(v) else v
            for k, v in record.items()
        }
        print(json.dumps(finite, sort_keys=True))
    return 0


class _Report:
    def __init__(self) -> None:
        self.failed = False

    def check(self, name: str, deviation: float, tolerance: float) -> None:
        ok = deviation <= tolerance
        self.failed |= not ok
        status = "PASS" if ok else "FAIL"
        print(f"{status}  {name}: max deviation {deviation:.3e} (tolerance {tolerance:.1e})")


def _suite_oracle(seed: int) -> _Report:
    rng = np.random.default_rng(seed)
    report = _Report()
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
    report.check("concentration fidelity vs brute-force oracle", worst, 1e-6)
    return report


def _suite_identities() -> _Report:
    report = _Report()
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
    report.check("total mass equals 1", mass_dev, 1e-10)
    report.check("log2 of total sqrt-mass equals n*log2(sum sqrt p)", sqrt_dev, 1.5e-9)
    report.check("total count equals rank^n", count_dev, 0.0)

    dense_dev = 0.0
    for probs in ([0.9, 0.1], [0.5, 0.3, 0.2]):
        svd = make_schmidt(probs)
        for n in range(0, 13):
            ls = power_spectrum(svd, n)
            dense = dense_power_spectrum(svd.probs, n)
            expanded = np.repeat(np.power(2.0, ls.log2_eigenvalues), np.diff(ls.starts))
            dense_dev = max(dense_dev, float(np.max(np.abs(expanded - dense))))
    report.check("leveled spectrum equals dense enumeration", dense_dev, 1e-12)

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
    report.check("monotonicity (conc in m, dil in m, delta in N)", mono_dev, 1e-12)
    return report


def _suite_asymptotic(n: int) -> _Report:
    report = _Report()
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
    report.check(f"concentration error vs Gaussian limit at n={n}", conc_dev, 0.05)
    report.check(f"dilution error vs Gaussian limit at n={n}", dil_dev, 0.05)
    return report


def _cmd_validate(args) -> int:
    if args.suite == "oracle":
        report = _suite_oracle(args.seed if args.seed is not None else _DEFAULTS["seed"])
    elif args.suite == "identities":
        report = _suite_identities()
    elif args.suite == "asymptotic":
        report = _suite_asymptotic(args.n if args.n is not None else _DEFAULTS["n"])
    else:
        raise ParamError(f"unknown suite {args.suite!r}")
    return 1 if report.failed else 0


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
    query.add_argument("--format", choices=("csv", "json"), default="json")
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
    except IoFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # includes every errors.Error subclass
        print(f"error: {exc}", file=sys.stderr)
        print(f"run 'concrec {args.command} --help' for usage", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
