"""Benchmark harness for tridephase.

    python3 bench/run.py --workload {figures,kernels,ode} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --selftest

Run from the root of a checkout.  The seed generates the workload's scenarios
(see workloads.py); the program receives them as one config file.  Each
measurement is a fresh process (child.py) with cold caches and BLAS/OpenMP
pinned to one thread, which calls ``runner.run_scenarios`` once per scenario.
Processes are started one after another until ``--seconds`` have passed and
enough latency samples exist; every process's CSVs are then checked.

With ``--trace 0`` the end-to-end metrics are printed: medians over the
processes; the typical latency is the median over scenarios of each
scenario's median over the processes, and the tail latency a percentile of
the pooled per-scenario times.  Every time is process CPU time scaled to a
reference host speed by a probe that runs alongside the program (speed.py),
because the host's own speed changes by up to 1.8x within seconds and the
host at times stops the virtual CPU; the unscaled medians are printed too.  With ``--trace 1`` traced and untraced
processes alternate, and the per-layer metrics are medians over the traced
ones.  The last line of output is one
JSON object: ``correct``, ``attempted``, ``failed`` (scenarios that failed or
did not match the check) and ``metrics``.

``--selftest`` checks the tracer against call counts known from the code and
checks that each output check rejects a perturbed value.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import check
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"

DEFAULT_SEED = 0  # the seed whose kernels outputs are stored under reference/
N_POINTS = 201
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# A run must end within 180 s: no timed process starts after BUDGET_S, and any
# process still running at DEADLINE_S is killed and the run fails.
BUDGET_S = 120.0
DEADLINE_S = 170.0
STARTED = time.monotonic()
# Tail percentile per workload, fixed so that runs of different lengths report
# the same statistic; the plain processes continue until at least ten pooled
# samples lie beyond it.
TAIL_Q = {"figures": 95, "kernels": 90, "ode": 60}
MIN_PER_SIDE = 2  # traced and untraced processes in a traced run
CHECK_TOL = {"figures": 1e-8, "kernels": 1e-8, "ode": 1e-6}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    return env


def launch(child_args: list[str]) -> dict:
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *child_args], cwd=ROOT, env=_env(),
                              capture_output=True, text=True,
                              timeout=max(0.0, STARTED + DEADLINE_S - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a measured process was still running {DEADLINE_S:g} s into the run") from exc
    if proc.returncode != 0:
        raise BenchError(f"measured process exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchError(f"measured process printed no report:\n{proc.stdout[-3000:]}") from exc


def measured(config: Path, out_dir: Path, names: list[str], trace: bool) -> dict:
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    launched = time.monotonic()
    report = launch(["run", str(config), str(out_dir), repr(launched)] + (["--trace"] if trace else []))
    report["outputs"] = check.read_outputs(out_dir, names)
    return report


def write_config(path: Path, entries: list[dict]) -> Path:
    path.write_text(workloads.config_text(entries), encoding="utf-8")
    return path


def verifier(workload: str, seed: int, entries: list[dict], work: Path):
    """The check for this workload's outputs: output dict -> problems dict."""
    names = [e["output"] for e in entries]
    tol = CHECK_TOL[workload]
    if workload == "kernels" and seed != DEFAULT_SEED:
        return lambda outputs: check.in_range(outputs, entries, N_POINTS)
    if workload == "ode":
        # the closed-form engine on the same scenarios, outside the timed region
        closed = [{**e, "engine": "closed_form"} for e in entries]
        report = measured(write_config(work / "closed_form.yaml", closed), work / "closed_form",
                          names, trace=False)
        if report["errors"]:
            raise BenchError(f"closed-form reference failed: {report['errors']}")
        reference = report["outputs"]
        return lambda outputs: check.against(outputs, reference, tol, ignore_engine=True)
    reference = check.load_reference(workload)
    if sorted(reference) != sorted(names):
        raise BenchError(f"reference/{workload} does not hold exactly this workload's outputs")
    return lambda outputs: check.against(outputs, reference, tol)


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between order statistics (values sorted ascending)."""
    pos = (len(values) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def end_to_end(workload: str, reports: list[dict], lines: list[str]) -> dict:
    median = statistics.median
    latencies = sorted(1e3 * x for r in reports for x in r["latencies_s"])
    # Each scenario's median over the processes, then the median over the
    # scenarios.  The pooled median of a few scenarios of unequal cost (ode has
    # four) falls in the gap between two of them and follows their extremes.
    typical = sorted(1e3 * median(r["latencies_s"][i] for r in reports)
                     for i in range(len(reports[0]["latencies_s"])))
    q = TAIL_Q[workload]
    tail = percentile(latencies, q)
    beyond = sum(x > tail for x in latencies)
    lines.append(f"trace_tail_ms is p{q} of {len(latencies)} pooled scenario latencies ({beyond} beyond it)")
    lines.append(f"unscaled medians: wall time {median(r['raw']['wall_s'] for r in reports):.4g} s, "
                 f"CPU time {median(r['raw']['cpu_s'] for r in reports):.4g} s, "
                 f"set-up wall time {median(r['raw']['setup_s'] for r in reports):.4g} s; probe "
                 f"{median(r['probe_us'] for r in reports):.4g} us against {reports[0]['ref_probe_us']:g} us")
    return {
        "process_s": (median(r["process_s"] for r in reports), "s"),
        "setup_s": (median(r["setup_s"] for r in reports), "s"),
        "trace_p50_ms": (median(typical), "ms"),
        "trace_tail_ms": (tail, "ms"),
        "samples_per_s": (median(r["points"] / r["run_s"] for r in reports), "1/s"),
        "peak_rss_mb": (median(r["peak_rss_mb"] for r in reports), "MB"),
    }


# self-time groups of the designed split, printed by traced runs
SPLIT = {
    "per-sample path (measures + numerics.eig + states.validate + dynamics.propagate)":
        ("measures.cr", "numerics.eig", "states.validate", "dynamics.propagate"),
    "quadrature (numerics.quad)": ("numerics.quad",),
    "ODE loop (numerics.rk4 + dynamics.rhs)": ("numerics.rk4", "dynamics.rhs"),
}


def per_layer(traced: list[dict], plain: list[dict], lines: list[str]) -> dict:
    median = statistics.median
    metrics = {}
    for name, (_, unit) in traced[0]["layers"].items():
        metrics[name] = (median(r["layers"][name][0] for r in traced), unit)
    overhead = median(r["process_s"] for r in traced) / median(r["process_s"] for r in plain) - 1.0
    metrics["trace_overhead"] = (overhead, "ratio")

    spans = sorted({s for r in traced for s in r["shares"]})
    shares = {s: statistics.fmean(r["shares"].get(s, 0.0) for r in traced) for s in spans}
    lines.append("self-time share of traced time: " + ", ".join(
        f"{s} {100 * v:.1f}%" for s, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    for label, group in SPLIT.items():
        lines.append(f"  {label}: {100 * sum(shares.get(s, 0.0) for s in group):.1f}%")
    absent = traced[0]["absent"]
    lines.append(f"absent names (0 calls): {', '.join(absent) if absent else 'none'}")
    return metrics


def measure(args, work: Path) -> tuple[dict, list[str]]:
    entries = workloads.generate(args.workload, args.seed)
    names = [e["output"] for e in entries]
    config = write_config(work / "config.yaml", entries)
    out_dir = work / "out"
    # n pooled samples put (n - 1) * (1 - q/100) of them beyond the q-th percentile
    min_plain = max(MIN_PER_SIDE, math.ceil((1 + 10 / (1 - TAIL_Q[args.workload] / 100)) / len(entries)))

    plain, traced = [], []
    start = time.monotonic()
    while True:
        trace = bool(args.trace) and len(traced) < len(plain)
        (traced if trace else plain).append(measured(config, out_dir, names, trace))
        elapsed = time.monotonic() - start
        if args.trace:
            enough = min(len(plain), len(traced)) >= MIN_PER_SIDE
        else:
            enough = len(plain) >= min_plain
        if time.monotonic() - STARTED >= BUDGET_S or (elapsed >= args.seconds and enough):
            break

    verify = verifier(args.workload, args.seed, entries, work)
    failed = 0
    problems = {}
    for report in plain + traced:
        bad = {**verify(report["outputs"]), **report["errors"]}
        failed += len(bad)
        problems.update(bad)
    attempted = len(entries) * len(plain + traced)

    m = plain[0]["machine"]
    lines = [f"machine: nproc={m['nproc']} python={m['python']} numpy={m['numpy']} blas={m['blas']}",
             f"workload={args.workload} seed={args.seed} processes={len(plain)} untraced + "
             f"{len(traced)} traced, {len(entries)} scenarios each, {elapsed:.1f} s"]
    metrics = per_layer(traced, plain, lines) if args.trace else end_to_end(args.workload, plain, lines)
    lines.append(f"fail_frac {failed / attempted:.6g} ({failed} of {attempted} scenarios)")
    for name, problem in sorted(problems.items())[:10]:
        lines.append(f"  FAILED {name}: {problem}")
    lines.extend(f"{name} {value:.6g} {unit}" for name, (value, unit) in metrics.items())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}}
    return result, lines


def selftest(work: Path) -> list[str]:
    """Problems found; empty when the tracer and every output check behave."""
    report = launch(["selftest", str(work / "selftest")])
    problems = [f"tracer: {f}" for f in report["failures"]]
    problems += [f"tracer: {name} is absent" for name in report["absent"]]

    def perturbed(outputs: dict, delta: float) -> dict:
        bad = copy.deepcopy(outputs)
        name = sorted(bad)[0]
        t, c = bad[name][1][100]
        bad[name][1][100] = (t, c + delta)
        return bad

    reference = check.load_reference("figures")
    for tol, ignore_engine in ((CHECK_TOL["figures"], False), (CHECK_TOL["ode"], True)):
        if check.against(reference, reference, tol, ignore_engine):
            problems.append(f"the {tol:g} check rejects the unchanged reference")
        if not check.against(perturbed(reference, 10 * tol), reference, tol, ignore_engine):
            problems.append(f"the {tol:g} check accepts a value moved by {10 * tol:g}")
    kernels = check.load_reference("kernels")
    entries = workloads.generate("kernels", DEFAULT_SEED)
    if check.in_range(kernels, entries, N_POINTS):
        problems.append("the range check rejects the kernels reference")
    # moving any C_R down by more than ln 8 leaves [0, ln 8]
    if not check.in_range(perturbed(kernels, -check.LN8 - 1e-3), entries, N_POINTS):
        problems.append("the range check accepts a value outside [0, ln 8]")
    return problems


def main(argv=None) -> int:
    # a terminated harness unwinds: subprocess.run kills and waits for the
    # measured process, and the scratch directory is removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description="tridephase benchmark")
    parser.add_argument("--workload", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "tridephase" / "__init__.py").is_file():
        print(f"error: no tridephase package under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2

    work = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        if args.selftest:
            problems = selftest(work)
            print("\n".join(problems) if problems else "selftest passed")
            return 1 if problems else 0
        result, lines = measure(args, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
