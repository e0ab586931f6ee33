"""One workload in one fresh process: set-up, the closed timed loop, metrics.

run.py starts this file with the BLAS and OpenMP pools held to one thread,
so `setup_s` and `peak_rss_mb` belong to this workload alone. One client
issues the next op only after the previous one has finished and been
checked. The last line of stdout is one JSON object with the computed
metrics and the run record; run.py turns it into the benchmark's result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

#: Fresh-interpreter imports and input builds per run; `setup_s` is the
#: sum of their medians.
IMPORT_REPEATS = 5
BUILD_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import qvkit, qvkit.cli; print(time.perf_counter() - t)")


ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv=None):
    """The options of run.py, which passes them on to this file unchanged."""
    p = argparse.ArgumentParser(prog="perfbench/run.py")
    p.add_argument("--workload", required=True,
                   choices=("cli-analysis", "tally-round", "last-mover"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny inputs, for the self-test")
    return p.parse_args(argv)


def import_seconds(src):
    """Median time to import qvkit in a fresh interpreter, over IMPORT_REPEATS."""
    times = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], check=True,
                             stdout=subprocess.PIPE, text=True, timeout=60).stdout
        times.append(float(out))
    return statistics.median(times)


def closed_loop(wl, seconds, trace=None):
    """Run checked ops one after another for `seconds` of wall time.

    With a tracer, odd ops run traced and even ops untraced, and the loop
    runs at least two ops. An op that raises or fails its check counts as
    failed, and the loop goes on. Returns the untraced and the traced op
    wall times, the failed count and the first few failure messages.
    """
    walls, traced_walls, failures = [], [], []
    failed = 0
    min_ops = 2 if trace else 1
    loop_start = time.perf_counter()
    while True:
        op_id = len(walls) + len(traced_walls)
        traced = trace is not None and op_id % 2 == 1
        if traced:
            trace.install(op_id)
        t = time.perf_counter()
        try:
            out = wl.op()
            error = None
        except Exception as exc:  # counted as a failed op; the loop goes on
            error = exc
        wall = time.perf_counter() - t
        if traced:
            trace.uninstall()
        if error is None:
            try:
                wl.check(out)
            except Exception as exc:  # CheckFailed, or output of the wrong shape
                error = exc
        out = None
        (traced_walls if traced else walls).append(wall)
        if error is not None:
            failed += 1
            if len(failures) < 5:
                failures.append(f"op {op_id}: {type(error).__name__}: {error}")
        if op_id + 1 >= min_ops and time.perf_counter() - loop_start >= seconds:
            return walls, traced_walls, failed, failures


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import numpy
    import qvkit
    import qvkit.cli
    if Path(qvkit.__file__).resolve().parent != src / "qvkit":
        sys.exit(f"qvkit imported from {qvkit.__file__}, not from {src}")

    import tracer
    import workloads

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        wl = workloads.WORKLOADS[args.workload](qvkit, args.size, args.seed, workdir)
        builds = []
        for _ in range(BUILD_REPEATS):
            t = time.perf_counter()
            wl.build()
            builds.append(time.perf_counter() - t)
        import_s = import_seconds(src)
        setup_s = import_s + statistics.median(builds)
        sizes = wl.prepare()
        trace = tracer.Tracer(qvkit) if args.trace else None
        walls, traced_walls, failed, failures = closed_loop(wl, args.seconds, trace)

    attempted = len(walls) + len(traced_walls)
    ok = attempted - failed
    info = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "mode": "traced" if trace else "timed", "sizes": sizes,
        "ops": attempted, "ops_traced": len(traced_walls),
        "failed_ops_ratio": failed / attempted, "failures": failures,
        "numpy": numpy.__version__, "import_s": import_s, "build_s": builds,
        "op_ms": [1000.0 * w for w in walls], "traced_op_ms": [1000.0 * w for w in traced_walls],
    }
    if trace is None:
        info["op_p50_ms"] = 1000.0 * statistics.median(walls)
        metrics = {
            "throughput_ops_s": ok / sum(walls),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ops_ratio": ok / attempted,
        }
    else:
        metrics = trace.metrics(len(traced_walls))
        metrics["trace_overhead_ratio"] = (statistics.median(traced_walls)
                                           / statistics.median(walls))
        trace_path = out_dir / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        trace.write(trace_path)
        info["trace_file"] = str(trace_path.relative_to(ROOT))
        info["span_ops"] = trace.span_ops()
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "info": info}))


if __name__ == "__main__":
    main()
