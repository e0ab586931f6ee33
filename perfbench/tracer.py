"""Span tracing of qvkit's layers from outside the package.

`Tracer` wraps every public function of the seven qvkit modules, and the
three lookup methods of `StakeDistribution`, while it is installed. Each
call records a span (name, start, end, parent span, op id) in typed arrays,
a call count and, when an exception leaves it, an error count. Self time is
a span's duration minus the time its direct child spans cover. Nothing
under `src/` is edited: the wrappers are swapped into the module and class
attributes and swapped back out by `uninstall`.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array

LAYERS = ("stake", "schemes", "metrics", "transform", "utility", "attacks", "cli")
STAKE_METHODS = ("stakes", "stake_of", "__contains__")

#: Per-layer metrics. "ms" is self time, "calls" a call count, "result"
#: a number read from the call's result; all are per traced op. Each layer
#: also gets `<layer>.self.ms`, the self time of all its public functions,
#: and `<layer>.errors`.
PER_LAYER = {
    "stake.read_csv.ms": ("ms", ["stake.read_csv"]),
    "stake.write_csv.ms": ("ms", ["stake.write_csv"]),
    "stake.canonicalize.ms": ("ms", ["stake.canonicalize"]),
    "stake.stakes.calls": ("calls", ["stake.stakes"]),
    "stake.stakes.ms": ("ms", ["stake.stakes"]),
    "stake.lookup.calls": ("calls", ["stake.stake_of", "stake.__contains__"]),
    "stake.lookup.ms": ("ms", ["stake.stake_of", "stake.__contains__"]),
    "schemes.tally.ms": ("ms", ["schemes.tally"]),
    "schemes.validate_ballot.calls": ("calls", ["schemes.validate_ballot"]),
    "schemes.validate_ballot.ms": ("ms", ["schemes.validate_ballot"]),
    "schemes.score.ms": ("ms", ["schemes.score"]),
    "schemes.vscore.ms": ("ms", ["schemes.vscore"]),
    "metrics.report.ms": ("ms", ["metrics.report"]),
    "metrics.gini.ms": ("ms", ["metrics.gini"]),
    "metrics.lorenz_points.ms": ("ms", ["metrics.lorenz_points"]),
    "metrics.nakamoto.calls": ("calls", ["metrics.nakamoto"]),
    "metrics.nakamoto.ms": ("ms", ["metrics.nakamoto"]),
    "transform.gamma_search.ms": ("ms", ["transform.gamma_search"]),
    "transform.gamma_search.iterations": ("result", ["transform.gamma_search"]),
    "transform.top_share.calls": ("calls", ["transform.top_share"]),
    "transform.top_share.ms": ("ms", ["transform.top_share"]),
    "transform.apply_gamma.ms": ("ms", ["transform.apply_gamma"]),
    "utility.maximize.calls": ("calls", ["utility.maximize"]),
    "utility.maximize_qv1.ms": ("ms", ["utility.maximize_qv1"]),
    "utility.maximize_qv2.ms": ("ms", ["utility.maximize_qv2"]),
    "utility.kkt_residual.ms": ("ms", ["utility.kkt_residual"]),
    "attacks.last_voter_advantage.ms": ("ms", ["attacks.last_voter_advantage"]),
    # argparse (parser construction too), command dispatch and JSON emit
    "cli.main.ms": ("ms", ["cli.main", "cli.build_parser"]),
    "cli.stdout_bytes": ("result", ["cli.main"]),
}

#: Numbers read from a traced call's result: span name -> f(args, kwargs, result).
RESULT_COUNTERS = {
    "transform.gamma_search": lambda args, kwargs, res: res.iterations,
    "cli.main": lambda args, kwargs, res: len(kwargs["stdout"].getvalue().encode()),
}


def per_layer_names():
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = list(PER_LAYER)
    for layer in LAYERS:
        names += [f"{layer}.self.ms", f"{layer}.errors"]
    return names + ["trace_overhead_ratio"]


class Tracer:
    def __init__(self, qvkit):
        modules = {layer: importlib.import_module(f"qvkit.{layer}") for layer in LAYERS}
        self.names = []
        self.self_s = []
        self.calls = []
        self.errors = []
        self.results = []
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_op = array("i")
        self._stack = []
        self._op_id = -1
        self.epoch = time.perf_counter()

        wrappers = {}
        for layer, mod in modules.items():
            for attr, fn in vars(mod).items():
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        # Rebind every qvkit name that refers to a wrapped function, so that
        # names imported with `from .schemes import tally` are traced too.
        self._patches = [(owner, attr, fn, wrappers[fn])
                         for owner in (qvkit, *modules.values())
                         for attr, fn in vars(owner).items()
                         if inspect.isfunction(fn) and fn in wrappers]
        cls = modules["stake"].StakeDistribution
        for attr in STAKE_METHODS:
            fn = cls.__dict__[attr]
            self._patches.append((cls, attr, fn, self._wrap(f"stake.{attr}", fn)))

    def _wrap(self, name, fn):
        nid = len(self.names)
        self.names.append(name)
        for counter in (self.self_s, self.calls, self.errors, self.results):
            counter.append(0)
        counter_of = RESULT_COUNTERS.get(name)
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.span_name)
            self.span_name.append(nid)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_op.append(self._op_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[nid] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
                duration = end - start
                self.self_s[nid] += duration - frame[1]
                self.calls[nid] += 1
                if stack:
                    stack[-1][1] += duration
            if counter_of is not None:
                self.results[nid] += counter_of(args, kwargs, result)
            return result

        return traced

    def install(self, op_id):
        self._op_id = op_id
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def metrics(self, traced_ops):
        """Per-layer metrics averaged over `traced_ops` traced ops."""
        nid = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, (kind, spans) in PER_LAYER.items():
            ids = [nid[s] for s in spans]
            if kind == "ms":
                value = 1000.0 * sum(self.self_s[i] for i in ids)
            elif kind == "calls":
                value = sum(self.calls[i] for i in ids)
            else:
                value = sum(self.results[i] for i in ids)
            out[metric] = value / traced_ops
        for layer in LAYERS:
            ids = [i for name, i in nid.items() if name.startswith(layer + ".")]
            out[f"{layer}.self.ms"] = 1000.0 * sum(self.self_s[i] for i in ids) / traced_ops
            out[f"{layer}.errors"] = sum(self.errors[i] for i in ids) / traced_ops
        return out

    def span_ops(self):
        return len(set(self.span_op))

    def write(self, path):
        """Write every span as CSV (times in microseconds from the tracer's start)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as fh:
            fh.write("span,parent,op,name,start_us,end_us\n")
            for i, (n, p, op, s, e) in enumerate(zip(
                    self.span_name, self.span_parent, self.span_op,
                    self.span_start, self.span_end)):
                fh.write(f"{i},{p},{op},{self.names[n]},"
                         f"{(s - self.epoch) * 1e6:.3f},{(e - self.epoch) * 1e6:.3f}\n")
