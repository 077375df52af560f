"""Benchmark worker: one fresh process per job, driven by run.py.

Usage: python3 worker.py ROOT

Imports concrec from ROOT/src (never from an installed copy), prints
``ready``, reads one JSON job from stdin and prints one JSON result line.
Jobs:

- ``solve``: run one CLI operation through ``concrec.cli.main`` and time it,
  optionally under the span tracer;
- ``check``: verify the outputs of one sample through the public API;
- ``levels``: build one spectrum under tracemalloc and report its bytes;
- ``exit``: nothing (a set-up-only sample).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

# Equal to the trade-off layer's own tie slack: the checks allow no more.
TOL = 1e-12


def _solve(job: dict) -> dict:
    from concrec import cli

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    stdout = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(stdout):
        rc = cli.main(job["argv"])
    solve_s = time.perf_counter() - start
    result = {
        "rc": rc,
        "solve_s": solve_s,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if rc == 0:
        out = job.get("out")
        result["output"] = Path(out).read_text() if out else stdout.getvalue()
    if tracer is not None:
        result["trace"] = tracer.summary()
        tracer.write(job["spans"], job["op"])
    return result


def _state(spec: dict):
    from concrec import make_schmidt

    if "p" in spec:
        return make_schmidt([spec["p"], 1.0 - spec["p"]])
    return make_schmidt(spec["schmidt"])


class _Checker:
    """Checks trade-off results against the public conversion functions."""

    def __init__(self, sv) -> None:
        self.sv = sv
        self._spectra: dict[int, object] = {}

    def spectrum(self, copies: int):
        from concrec import power_spectrum

        if copies not in self._spectra:
            self._spectra[copies] = power_spectrum(self.sv, copies)
        return self._spectra[copies]

    def delta_at(self, n: int, N: int, m: int) -> tuple[float, float]:
        from concrec import concentration_fidelity, dilution_fidelity

        conc = concentration_fidelity(self.spectrum(n), 1 << m).error
        dil = dilution_fidelity(self.spectrum(N), 1 << m).error
        return conc, dil

    def point(self, n, N, delta, m, conc, rec) -> list[str]:
        """delta = conc + rec at m, both exact, and no neighbouring m is better."""
        m_cap = max(1, N * (self.sv.rank - 1).bit_length())
        if not 1 <= m <= m_cap:
            return [f"(n={n}, N={N}): optimal_m={m} outside [1, {m_cap}]"]
        errors = []
        if abs(delta - (conc + rec)) > TOL:
            errors.append(f"(n={n}, N={N}): delta {delta!r} != conc + rec")
        exact = self.delta_at(n, N, m)
        if abs(exact[0] - conc) > TOL or abs(exact[1] - rec) > TOL:
            errors.append(f"(n={n}, N={N}, m={m}): components {conc!r}, {rec!r} != {exact}")
        for other in (m - 1, m + 1):
            if 1 <= other <= m_cap and sum(self.delta_at(n, N, other)) < delta - TOL:
                errors.append(f"(n={n}, N={N}): m={other} beats optimal_m={m}")
        return errors


def _check_mcre(sv, spec: dict, text: str) -> list[str]:
    record = json.loads(text)
    n = spec["n"]
    expected_state = ",".join(repr(p) for p in sv.probs)
    if record.get("kind") != "mcre" or record.get("n") != n or record.get("state") != expected_state:
        return [f"record does not describe mcre at n={n} for {expected_state}: {text.strip()}"]
    return _Checker(sv).point(
        n,
        n,
        record["delta"],
        record["optimal_m"],
        record["concentration_error"],
        record["recovery_error"],
    )


def _check_fig4(sv, spec: dict, text: str) -> list[str]:
    from concrec import generalized_mcre, nmax_approx

    n = spec["n"]
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if f"# n={n}" not in text.splitlines() or lines[:1] != ["epsilon,N_exact,N_approx"]:
        return [f"fig4 header does not describe n={n}"]
    rows = [line.split(",") for line in lines[1:]]
    grid = [0.05 * i for i in range(1, 20)]
    if [float(row[0]) for row in rows] != grid:
        return ["fig4 epsilon column is not the default 19-point grid"]
    checker = _Checker(sv)
    errors = []
    for eps_text, n_text, approx_text in rows:
        eps, N = float(eps_text), int(n_text)
        if not 0 <= N <= n:
            errors.append(f"eps={eps_text}: N_exact={N} outside [0, {n}]")
            continue
        # The bracket delta(N) <= eps < delta(N + 1), each side a checked point.
        for copies, within in ((N, True), (N + 1, False)):
            if not 1 <= copies <= n:
                continue
            r = generalized_mcre(sv, n, copies)
            if (r.delta <= eps) != within:
                errors.append(f"eps={eps_text}: delta(N={copies})={r.delta!r} breaks the bracket")
            errors += checker.point(
                n, copies, r.delta, r.optimal_m, r.concentration_error, r.recovery_error
            )
        if float(approx_text) != nmax_approx(sv, n, eps):
            errors.append(f"eps={eps_text}: N_approx={approx_text} != nmax_approx")
    return errors


def _check(job: dict) -> dict:
    """One list of failure messages per operation."""
    failures = []
    for spec in job["ops"]:
        sv = _state(spec["state"])
        check = _check_fig4 if spec["kind"] == "fig4" else _check_mcre
        try:
            failures.append(check(sv, spec, spec["output"]))
        except (ValueError, KeyError, IndexError, TypeError, ArithmeticError) as exc:
            failures.append([f"output could not be checked: {exc!r}"])
    return {"failures": failures}


def _levels(job: dict) -> dict:
    import tracemalloc

    from concrec import power_spectrum

    sv = _state(job["state"])
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    spectrum = power_spectrum(sv, job["n"])
    retained = tracemalloc.get_traced_memory()[0] - before
    tracemalloc.stop()
    return {"levels": spectrum.num_levels, "bytes": retained}


JOBS = {
    "solve": _solve,
    "check": _check,
    "levels": _levels,
    "exit": lambda job: {},
}


def main() -> int:
    src = (Path(sys.argv[1]) / "src").resolve()
    sys.path.insert(0, str(src))
    import concrec
    import concrec.cli  # noqa: F401  (set-up covers the whole CLI import)

    if not Path(concrec.__file__).resolve().is_relative_to(src):
        print(f"error: concrec imported from {concrec.__file__}, not {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    job = json.loads(sys.stdin.readline())
    result = JOBS[job["mode"]](job)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
