"""Self-test of the benchmark itself, on tiny inputs.

    python3 perfbench/selftest.py

Run it from anywhere; it needs the checkout around this directory. It
checks that:

- a short tiny run of each workload, timed and traced, passes its checks
  and emits exactly the metrics that BENCHMARK.json names;
- each run's op count is the number of op times it recorded, a traced run
  traces every other op, and its spans cover every traced op;
- with one reference deliberately wrong, the check raises CheckFailed and
  the closed loop counts every op as failed and still completes;
- in a directory holding only BENCHMARK.json and this directory, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import child
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = 2


def run(runner, *args):
    return subprocess.run([sys.executable, str(runner), *args], cwd=runner.parent.parent,
                          stdout=subprocess.PIPE, text=True, timeout=170)


def tiny(workload, trace):
    proc = run(HERE / "run.py", "--workload", workload, "--seed", "7",
               "--seconds", str(SECONDS), "--trace", str(trace), "--size", "tiny")
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} trace={trace} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["info"], json.loads(lines[-1])


def _wrong_gini(wl):
    wl.gini *= 1.0 + 1e-6


def _wrong_score(wl):
    score, vscore, ids = wl.refs[0]
    wl.refs[0] = (score + 1.0, vscore, ids)


def _wrong_oracle(wl):
    next(p for p in wl.problems if p["oracle"] is not None)["oracle"] += 1.0


#: One deliberately wrong reference per workload, set after prepare().
WRONG_REFERENCE = {"cli-analysis": _wrong_gini, "tally-round": _wrong_score,
                   "last-mover": _wrong_oracle}


def wrong_reference_run(qvkit, name, workdir):
    """Returns whether check() raised CheckFailed, and the closed loop's counts."""
    wl = workloads.WORKLOADS[name](qvkit, "tiny", 7, workdir)
    wl.build()
    wl.prepare()
    WRONG_REFERENCE[name](wl)
    try:
        wl.check(wl.op())
        raised = False
    except workloads.CheckFailed:
        raised = True
    walls, traced_walls, failed, failures = child.closed_loop(wl, 0.5)
    return raised, len(walls) + len(traced_walls), failed, failures


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    problems = []

    def expect(cond, message):
        print(("ok   " if cond else "FAIL ") + message)
        if not cond:
            problems.append(message)

    sys.path.insert(0, str(ROOT / "src"))
    import qvkit
    import qvkit.cli

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    for w in spec["workloads"]:
        name = w["name"]
        info, res = tiny(name, 0)
        expect(set(res) == {"correct", "attempted", "failed", "metrics"},
               f"{name}: result has exactly the four keys")
        expect(res["correct"] and res["failed"] == 0,
               f"{name}: {res['attempted']} timed ops, all passing their checks "
               f"{info['failures']}")
        expect(res["attempted"] == len(info["op_ms"]) and not info["traced_op_ms"],
               f"{name}: timed op count is the number of untraced op times")
        expect(list(res["metrics"]) == e2e, f"{name}: timed run emits every end-to-end metric")
        expect(all(m["value"] > 0 for m in res["metrics"].values()),
               f"{name}: every end-to-end metric is above 0")

        tinfo, tres = tiny(name, 1)
        expect(tres["correct"], f"{name}: traced ops pass their checks {tinfo['failures']}")
        expect(list(tres["metrics"]) == layers, f"{name}: traced run emits every per-layer metric")
        expect(tres["attempted"] == len(tinfo["op_ms"]) + len(tinfo["traced_op_ms"]),
               f"{name}: traced op count is the number of op times, traced or not")
        expect(tinfo["ops_traced"] == tres["attempted"] // 2 >= 1,
               f"{name}: {tinfo['ops_traced']} of {tres['attempted']} ops traced, every other one")
        expect(tinfo["span_ops"] == tinfo["ops_traced"],
               f"{name}: spans cover each of the {tinfo['ops_traced']} traced ops")

        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            raised, attempted, failed, failures = wrong_reference_run(qvkit, name, workdir)
        expect(raised, f"{name}: a wrong reference makes check() raise CheckFailed")
        expect(attempted >= 1 and failed == attempted,
               f"{name}: a wrong reference fails all {attempted} ops {failures[:1]}")

    with tempfile.TemporaryDirectory(dir=out_dir) as bare:
        bare = Path(bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare / HERE.name / "run.py", "--workload", "last-mover",
                   "--seed", "7", "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without src/qvkit the benchmark exits non-zero and prints no result")

    print(f"{len(problems)} check(s) failed" if problems else "all checks passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
