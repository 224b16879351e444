"""One measured process of the benchmark; run.py starts it.

    child.py run CONFIG OUT_DIR LAUNCHED [--trace]
    child.py selftest OUT_DIR

``run`` imports the package from ``src/``, parses CONFIG, calls
``runner.run_scenarios`` once per scenario and prints one JSON report as the
last line of its output.  The benchmark's times are process CPU time scaled
to the reference host speed (speed.py); the unscaled wall times are reported
beside them.  LAUNCHED is the parent's ``time.monotonic()`` just before it
started this process; on Linux that clock is system-wide, so the unscaled
set-up and wall times include interpreter start-up and imports, as the CPU
times do, which count from the start of the process.

``selftest`` checks the tracer against call counts known from the code.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _machine() -> dict:
    import platform

    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas}


def run(config: str, out_dir: str, launched: float, trace: bool) -> dict:
    from speed import REF_PROBE_S, Sampler
    sampler = Sampler()
    sampler.start()
    sys.path.insert(0, str(ROOT / "src"))
    from tridephase import runner
    tracer = None
    if trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    scenarios = runner.parse_config(Path(config).read_text(encoding="utf-8"))
    setup_done = time.monotonic()
    setup_cpu = time.process_time()

    spans, errors, points = [], {}, 0
    for scenario in scenarios:
        start = time.process_time()
        (result,) = runner.run_scenarios([scenario], out_dir)
        spans.append((start, time.process_time()))
        if result.ok:
            points += scenario.n_points
        else:
            errors[scenario.output] = f"{type(result.error).__name__}: {result.error}"
    end_cpu = time.process_time()
    end = time.monotonic()
    sampler.stop()

    report = {
        "raw": {"setup_s": setup_done - launched, "wall_s": end - launched, "cpu_s": end_cpu},
        # process CPU time starts at 0 when the process does
        "setup_s": sampler.scaled(0.0, setup_cpu),
        "process_s": sampler.scaled(0.0, end_cpu),
        "run_s": sampler.scaled(setup_cpu, end_cpu),
        "latencies_s": [sampler.scaled(a, b) for a, b in spans],
        "probe_us": 1e6 * statistics.median(d for _, d in sampler.samples),
        "ref_probe_us": 1e6 * REF_PROBE_S,
        "points": points,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "errors": errors,
        "machine": _machine(),
    }
    if tracer is not None:
        report["layers"] = tracer.layer_metrics()
        report["shares"] = tracer.shares()
        report["absent"] = tracer.absent
    return report


def selftest(out_dir: str) -> dict:
    """Counts the tracer must reproduce at the package version it was written for."""
    sys.path.insert(0, str(ROOT / "src"))
    from tridephase import runner
    from tracer import Tracer
    tracer = Tracer()
    tracer.install()
    failures = []

    def expect(label, got, want):
        if got != want:
            failures.append(f"{label}: got {got}, expected {want}")

    # closed form, Markov: one C_R per sample (two eigendecompositions each),
    # one state check on the input plus one per sample
    n = 11
    doc = {"scenarios": [{"state": "ghz", "topology": "common", "memory": "markov",
                          "n_points": n, "output": "markov.csv"}]}
    runner.run_scenarios(runner.parse_config(json.dumps(doc)), out_dir)
    layers = tracer.layer_metrics()
    expect("measures.cr_calls", layers["measures.cr_calls"][0], n)
    expect("numerics.eig_calls", layers["numerics.eig_calls"][0], 2 * n)
    expect("states.validate_calls", layers["states.validate_calls"][0], n + 1)
    expect("dynamics.propagate_calls", layers["dynamics.propagate_calls"][0], 1)
    expect("numerics.quad_calls", layers["numerics.quad_calls"][0], 0)

    # the default ODE common/markov panel: 200 grid intervals of length 0.15
    # at a step cap of 1e-2/3 take 45 substeps each, 46 in the 109 intervals
    # where rounding puts the ratio just above 45
    tracer.reset()
    doc = {"scenarios": [{"state": "ghz", "topology": "common", "memory": "markov",
                          "engine": "ode", "output": "ode.csv"}]}
    runner.run_scenarios(runner.parse_config(json.dumps(doc)), out_dir)
    layers = tracer.layer_metrics()
    expect("numerics.rk4_substeps", layers["numerics.rk4_substeps"][0], 9109)
    expect("dynamics.rhs_calls", layers["dynamics.rhs_calls"][0], 4 * 9109)
    return {"failures": failures, "absent": tracer.absent}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    run_p = sub.add_parser("run")
    run_p.add_argument("config")
    run_p.add_argument("out_dir")
    run_p.add_argument("launched", type=float)
    run_p.add_argument("--trace", action="store_true")
    self_p = sub.add_parser("selftest")
    self_p.add_argument("out_dir")
    args = parser.parse_args(argv)
    if args.mode == "run":
        report = run(args.config, args.out_dir, args.launched, args.trace)
    else:
        report = selftest(args.out_dir)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
