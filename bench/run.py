"""concrec benchmark: time to solution of the CLI, with an outside-in layer trace.

Usage (from the root of a source checkout):

    python3 bench/run.py --workload fig4_qubit --seed 1 --seconds 20 --trace 0

Every operation (one figure or one query) runs through ``concrec.cli.main``
in a fresh worker process, so the library's process-wide caches start cold
as they do for a command-line user.  Workers run one after another.  A
sample is one pass over the workload's operations; samples repeat until
``--seconds`` have been spent (at least one sample).

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (worker start plus
``import concrec.cli``, median over workers), ``solve_s`` (time from the
CLI call to the written figure or printed record, summed over a sample's
operations, median over samples) and ``peak_rss_mb`` (largest worker peak
RSS in a sample, median over samples).  ``--trace 1`` alternates untraced
and traced samples and reports the per-layer metrics; the spans go to
``.bench_out/spans/``.

Outputs are checked outside the timed region in a separate worker, and every
sample's outputs must match the first sample's byte for byte.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it record the machine, the sample statistics,
``fail_ratio`` and a digest of the outputs.  The same summary goes to
``.bench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
OUT_DIR = ROOT / ".bench_out"

# A run must end within 180 s: one worker may use at most this long.
WORKER_TIMEOUT_S = 150.0
# Set-up is short and noisy, so every full-size run takes at least this many
# set-up samples.
MIN_SETUPS = 9


def _qubit(rng: random.Random) -> dict:
    return {"p": round(rng.uniform(0.05, 0.25), 6)}


def _rank3(rng: random.Random) -> dict:
    # Disjoint ranges keep the three entries distinct, so the spectrum has
    # the full C(n + 2, 2) levels whatever the seed.
    a = round(rng.uniform(0.52, 0.60), 6)
    b = round(rng.uniform(0.25, 0.30), 6)
    return {"schmidt": [a, b, round(1.0 - a - b, 6)]}


# name -> (state drawn from the seed, operations as (kind, n), tiny sizes)
WORKLOADS = {
    "fig4_qubit": (_qubit, [("fig4", 3000)], [("fig4", 64)]),
    "mcre_qubit_large": (
        _qubit,
        [("mcre", 3000), ("mcre", 10000), ("mcre", 30000)],
        [("mcre", 64), ("mcre", 128), ("mcre", 256)],
    ),
    "mcre_rank3": (_rank3, [("mcre", 300)], [("mcre", 12)]),
}

END_TO_END_UNITS = {"setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "spectrum.builds": "count",
    "spectrum.rebuilds": "count",
    "spectrum.build_s": "s",
    "spectrum.levels": "count",
    "spectrum.bytes_per_level": "B/level",
    "conversion.conc_calls": "count",
    "conversion.conc_us": "us",
    "conversion.dil_calls": "count",
    "conversion.dil_us": "us",
    "tradeoff.points": "count",
    "tradeoff.m_share": "ratio",
    "tradeoff.m_cap": "count",
    "tradeoff.search_points": "points/search",
    "tradeoff.searches": "count",
    "tradeoff.self_s": "s",
    "asymptotics.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}


def _state_args(state: dict) -> list[str]:
    if "p" in state:
        return ["--p", repr(state["p"])]
    return ["--schmidt", ",".join(repr(x) for x in state["schmidt"])]


def make_ops(workload: str, seed: int, tiny: bool) -> list[dict]:
    """The workload's operations, with inputs drawn from ``seed`` only."""
    draw, full, small = WORKLOADS[workload]
    state = draw(random.Random(seed))
    ops = []
    for k, (kind, n) in enumerate(small if tiny else full):
        out = None
        if kind == "fig4":
            out = str(OUT_DIR / "work" / f"{workload}-op{k}.csv")
            argv = ["fig", "--id", "4", "--n", str(n), *_state_args(state), "--out", out]
        else:
            argv = ["query", "--kind", "mcre", "--n", str(n), *_state_args(state)]
        ops.append({"kind": kind, "n": n, "state": state, "argv": argv, "out": out})
    return ops


class WorkerFailed(Exception):
    pass


def run_worker(job: dict) -> tuple[float, dict]:
    """Start one worker, hand it ``job``; returns (set-up seconds, result)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), str(ROOT)],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        out, err = proc.communicate(json.dumps(job) + "\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerFailed(f"{job['mode']} worker timed out after {WORKER_TIMEOUT_S} s")
    if ready.strip() != "ready" or proc.returncode != 0 or not out.strip():
        raise WorkerFailed(f"{job['mode']} worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return setup_s, json.loads(out.strip().splitlines()[-1])


def run_sample(ops: list[dict], trace: bool, tag: str) -> tuple[list[float], list[dict | None]]:
    """One pass over the operations; a failed operation's result is None."""
    setups, results = [], []
    for k, op in enumerate(ops):
        job = {"mode": "solve", "argv": op["argv"], "out": op["out"], "trace": trace, "op": k}
        if trace:
            job["spans"] = str(OUT_DIR / "spans" / f"{tag}-op{k}.npz")
        try:
            setup_s, result = run_worker(job)
        except WorkerFailed as exc:
            print(f"operation {k} failed: {exc}", file=sys.stderr)
            results.append(None)
            continue
        setups.append(setup_s)
        results.append(result if result["rc"] == 0 else None)
    return setups, results


def check_outputs(ops: list[dict], reference: list[dict | None]) -> list[bool]:
    """Whether each operation's reference output passes the output checks."""
    ok = [r is not None for r in reference]
    specs = [dict(op, output=r["output"]) for op, r in zip(ops, reference) if r is not None]
    if not specs:
        return ok
    try:
        _, checked = run_worker({"mode": "check", "ops": specs})
        failures = iter(checked["failures"])
    except WorkerFailed as exc:
        print(f"output check failed: {exc}", file=sys.stderr)
        failures = iter([["check worker failed"]] * len(specs))
    for k in range(len(ops)):
        if ok[k]:
            errors = next(failures)
            for message in errors:
                print(f"operation {k}: {message}", file=sys.stderr)
            ok[k] = not errors
    return ok


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def machine(seed: int) -> dict:
    cpu = platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        models = [line for line in cpuinfo.read_text().splitlines() if line.startswith("model name")]
        if models:
            cpu = models[0].split(":", 1)[1].strip()
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "seed": seed,
    }


def layer_metrics(traces: list[dict], plain_s: list[float], traced_s: list[float], levels: dict) -> dict:
    """Per-layer metrics: counts from the first traced sample, times as medians."""

    def total(sample: list[dict], key: str) -> float:
        return sum(t[key] for t in sample)

    def median(key: str) -> float:
        return statistics.median(total(sample, key) for sample in traces)

    first = traces[0]
    m_cap, searches = total(first, "m_cap"), total(first, "searches")
    conc_calls, dil_calls = total(first, "conc_calls"), total(first, "dil_calls")
    return {
        "spectrum.builds": total(first, "builds"),
        "spectrum.rebuilds": total(first, "rebuilds"),
        "spectrum.build_s": median("build_s"),
        "spectrum.levels": total(first, "levels"),
        "spectrum.bytes_per_level": levels["bytes"] / levels["levels"],
        "conversion.conc_calls": conc_calls,
        "conversion.conc_us": 1e6 * median("conc_s") / conc_calls if conc_calls else 0.0,
        "conversion.dil_calls": dil_calls,
        "conversion.dil_us": 1e6 * median("dil_s") / dil_calls if dil_calls else 0.0,
        "tradeoff.points": total(first, "points"),
        "tradeoff.m_share": total(first, "m_evaluated") / m_cap if m_cap else 0.0,
        "tradeoff.m_cap": m_cap,
        "tradeoff.search_points": total(first, "search_points") / searches if searches else 0.0,
        "tradeoff.searches": searches,
        "tradeoff.self_s": median("tradeoff_self_s"),
        "asymptotics.s": median("asymptotics_s"),
        "cli.self_s": median("cli_self_s"),
        "trace.overhead_s": statistics.median(traced_s) - statistics.median(plain_s),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smallest sizes and set-up samples, for the smoke test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "concrec" / "__init__.py").is_file():
        print(f"error: no concrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    for sub in ("work", "spans"):
        (OUT_DIR / sub).mkdir(parents=True, exist_ok=True)
    ops = make_ops(args.workload, args.seed, args.tiny)

    # Timed samples.  With tracing, untraced and traced samples alternate so
    # both see the same machine state; the difference is the trace overhead.
    modes = (False, True) if args.trace else (False,)
    setups: list[float] = []
    samples: dict[bool, list[list[dict | None]]] = {False: [], True: []}
    deadline = time.perf_counter() + args.seconds
    while not samples[modes[-1]] or time.perf_counter() < deadline:
        for traced in modes:
            sample_setups, results = run_sample(ops, traced, tag)
            setups += sample_setups
            samples[traced].append(results)
    while len(setups) < (1 if args.tiny else MIN_SETUPS):
        try:
            setups.append(run_worker({"mode": "exit"})[0])
        except WorkerFailed as exc:
            print(f"set-up sample failed: {exc}", file=sys.stderr)
            break

    # Correctness, outside the timed region: the first sample's outputs are
    # checked, and every other sample must reproduce them byte for byte.
    all_samples = samples[False] + samples[True]
    reference = all_samples[0]
    check_start = time.perf_counter()
    passed = check_outputs(ops, reference)
    check_s = time.perf_counter() - check_start
    failed = 0
    for results in all_samples:
        for k, result in enumerate(results):
            failed += result is None or not passed[k] or result["output"] != reference[k]["output"]
    attempted = len(all_samples) * len(ops)
    digest = hashlib.sha256()
    for result in reference:
        digest.update((result["output"] if result else "").encode())

    complete = [s for s in samples[False] if all(r is not None for r in s)]
    solve = [sum(r["solve_s"] for r in s) for s in complete]
    rss = [max(r["rss_mb"] for r in s) for s in complete]
    summary = {
        "workload": args.workload,
        "machine": machine(args.seed),
        "operations": [op["argv"] for op in ops],
        "samples": len(complete),
        "solve_s_samples": solve,
        "solve_s_quartiles": quartiles(solve) if solve else None,
        "setup_s_quartiles": quartiles(setups) if setups else None,
        "setups": len(setups),
        "fail_ratio": failed / attempted,
        "check_s": check_s,
        "digest": digest.hexdigest(),
    }
    if args.trace:
        traced = [s for s in samples[True] if all(r is not None for r in s)]
        if not traced or not complete:
            metrics = {}
        else:
            largest = max(ops, key=lambda op: op["n"])
            try:
                _, levels = run_worker({"mode": "levels", "state": largest["state"], "n": largest["n"]})
            except WorkerFailed as exc:
                print(f"levels worker failed: {exc}", file=sys.stderr)
                levels = {"bytes": 0.0, "levels": 1}
            metrics = layer_metrics(
                [[r["trace"] for r in s] for s in traced],
                solve,
                [sum(r["solve_s"] for r in s) for s in traced],
                levels,
            )
        units = PER_LAYER_UNITS
        summary["trace_samples"] = len(traced)
        summary["traced_solve_s"] = [[r["solve_s"] for r in s] for s in traced]
        summary["trace"] = [r["trace"] for r in traced[0]] if traced else None
    else:
        metrics = {
            "setup_s": statistics.median(setups) if setups else 0.0,
            "solve_s": statistics.median(solve) if solve else 0.0,
            "peak_rss_mb": statistics.median(rss) if rss else 0.0,
        }
        units = END_TO_END_UNITS
    summary["metrics"] = metrics
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(summary, indent=1) + "\n")

    print("machine: " + json.dumps(summary["machine"]))
    if solve:
        q1, q2, q3 = summary["solve_s_quartiles"]
        print(f"solve_s: median {q2:.4f} s, quartiles {q1:.4f} .. {q3:.4f} s, {len(solve)} samples")
    print(f"fail_ratio: {failed}/{attempted} = {failed / attempted:g}; output digest {digest.hexdigest()}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics.get(name, 0.0), "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
