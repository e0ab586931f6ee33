"""qvkit benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout that holds `src/qvkit` and
`BENCHMARK.json`. The workload runs in a fresh child process (child.py)
with the BLAS and OpenMP pools held to one thread. With `--trace 0` the
result carries the end-to-end metrics of BENCHMARK.json, with `--trace 1`
the per-layer ones. Stdout ends with two JSON lines: the run record (seed,
sizes, versions, machine, each metric's unit and direction), then the
result object `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

from child import ROOT, parse_args

HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
#: The whole run must end within 180 s; the child gets the rest after start-up.
CHILD_TIMEOUT_S = 170


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    if not (ROOT / "src" / "qvkit" / "__init__.py").is_file():
        print(f"error: no qvkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    # subprocess.run kills the child when the wait is interrupted, so turn
    # SIGTERM into an exception that interrupts it
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    cmd = [sys.executable, str(HERE / "child.py"), *argv]
    env = {**os.environ, **{var: "1" for var in THREAD_VARS}, "PYTHONHASHSEED": "0"}
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"error: workload ran past {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}", file=sys.stderr)
        return 1
    out = json.loads(proc.stdout.strip().splitlines()[-1])

    missing = [m["name"] for m in wanted if m["name"] not in out["metrics"]]
    if missing:
        print(f"error: workload did not compute {missing}", file=sys.stderr)
        return 1
    info = {
        **out["info"],
        "seconds": args.seconds,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "units": {m["name"]: {"unit": m["unit"], "better": m["better"]} for m in wanted},
    }
    result = {
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {m["name"]: {"value": out["metrics"][m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
