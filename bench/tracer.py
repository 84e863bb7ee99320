"""Span tracer for the stablebounds layers, installed from outside the package.

``Tracer.install`` wraps every public function of the six layer modules in
every module namespace that holds it, because ``chaos``, ``partition`` and
``lab`` import oracle and bounds functions by name. Per-refit helpers of
``lab`` stay unwrapped: they run inside the refit loops and tracing them
would measure the tracer.

A span is (id, name, start, end, parent id, job id, info), where ``info`` is
the work count the layer metrics derive from the call's arguments. The
parent stack is kept per thread because ``cli.run`` spreads grid points over
a thread pool; a span opened on a pool thread with an empty stack takes the
current job's root span as its parent. Spans stay in memory until
``write``.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
from collections import defaultdict
from time import perf_counter

LAYERS = ("cli", "bounds", "oracle", "chaos", "partition", "lab")

UNTRACED = {"lab.risk", "lab.refit", "lab.replace", "lab.empirical_risk",
            "lab.absolute_loss", "lab.zero_one_loss"}


def _collapse_key(g, n, p):
    closure = tuple(cell.cell_contents for cell in g.__closure__ or ())
    return [f"{g.__code__.co_filename}:{g.__code__.co_firstlineno}", repr(closure), n, p]


# Work counts per call, computed from the arguments with the callee's
# parameter names.
METERS = {
    "oracle.sign_matrix": lambda n: 1 << n,
    "partition.verify_telescoping": lambda params: 1 << params.n,
    "partition.verify_level_bounds": lambda params, p: 1 << params.n,
    "oracle.collapse_lp": _collapse_key,
    "lab.collect_gaps": lambda spec, dist, n, reps, seed: reps,
    "lab.sandwich_sweep": (lambda spec, dist, n, reps, seed, gamma=None,
                           gamma_mode="analytic": [reps, reps * n * (len(dist.support) - 1)]),
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.job = None
        self._ids = itertools.count(1)   # next() on a count is atomic under the GIL
        self._local = threading.local()
        self._client = threading.current_thread()
        self._root = None

    def begin_job(self, job_id: str) -> None:
        self.job = job_id
        self._root = None

    def install(self, package) -> None:
        """Wrap the public functions of every layer module of ``package``."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, fn in vars(module).items():
                qualname = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or qualname in UNTRACED):
                    continue
                wrappers[fn] = self._wrap(qualname, fn, METERS.get(qualname))
        prefix = package.__name__ + "."
        namespaces = [m for key, m in list(sys.modules.items())
                      if key == package.__name__ or key.startswith(prefix)]
        for module in namespaces:
            for name, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(module, name, wrappers[value])

    def _wrap(self, qualname: str, fn, meter):
        tracer = self
        local = self._local
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.current_thread() is tracer._client:
                parent = None
                tracer._root = span_id
            else:
                parent = tracer._root
            info = meter(*args, **kwargs) if meter is not None else None
            job = tracer.job
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((span_id, qualname, start, end, parent, job, info))

        traced.__qualname__ = qualname
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span_id, _, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for a, b in sorted(children.get(span_id, ())):
            a, b = max(a, cursor), min(b, end)
            if b > a:
                covered += b - a
                cursor = b
        out[span_id] = (end - start) - covered
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one repetition (see README.md for definitions)."""
    layer_of = {span[0]: span[1].split(".", 1)[0] for span in spans}
    own = self_times(spans)
    busy = defaultdict(float)       # function -> summed span time
    calls = defaultdict(int)        # function -> calls
    entry_busy = defaultdict(float)  # layer -> span time of calls from another layer
    entry_calls = defaultdict(int)
    self_s = defaultdict(float)      # layer -> summed self time
    info = defaultdict(list)
    for span_id, name, start, end, parent, _, extra in spans:
        layer = layer_of[span_id]
        busy[name] += end - start
        calls[name] += 1
        self_s[layer] += own[span_id]
        if parent is None or layer_of.get(parent) != layer:
            entry_busy[layer] += end - start
            entry_calls[layer] += 1
        if extra is not None:
            info[name].append(extra)
    collapse = info["oracle.collapse_lp"]
    distinct = len({json.dumps(key) for key in collapse})
    sweeps = info["lab.sandwich_sweep"]
    return {
        "lab.collect_gaps.busy_s": busy["lab.collect_gaps"],
        "lab.sandwich_sweep.busy_s": busy["lab.sandwich_sweep"],
        "lab.self_s": self_s["lab"],
        "lab.fits": sum(info["lab.collect_gaps"]) + sum(s[0] for s in sweeps),
        "lab.refits": sum(s[1] for s in sweeps),
        "partition.verify_telescoping.busy_s": busy["partition.verify_telescoping"],
        "partition.verify_level_bounds.busy_s": busy["partition.verify_level_bounds"],
        "partition.self_s": self_s["partition"],
        "partition.enum_rows": (sum(info["partition.verify_telescoping"])
                                + sum(info["partition.verify_level_bounds"])),
        "oracle.sign_matrix.calls": calls["oracle.sign_matrix"],
        "oracle.sign_matrix.busy_s": busy["oracle.sign_matrix"],
        "oracle.sign_rows": sum(info["oracle.sign_matrix"]),
        "oracle.enumerate_lp.calls": calls["oracle.enumerate_lp"],
        "oracle.enumerate_lp.busy_s": busy["oracle.enumerate_lp"],
        "chaos.verify_chaos_conditions.busy_s": busy["chaos.verify_chaos_conditions"],
        "oracle.collapse_lp.calls": calls["oracle.collapse_lp"],
        "oracle.collapse_lp.busy_s": busy["oracle.collapse_lp"],
        "oracle.collapse_lp.distinct_ratio": distinct / len(collapse) if collapse else 0.0,
        "oracle.collapse_support": sum(key[2] + 1 for key in collapse),
        "oracle.log_binomial_weights.calls": calls["oracle.log_binomial_weights"],
        "oracle.self_s": self_s["oracle"],
        "chaos.chaos_lp.calls": calls["chaos.chaos_lp"],
        "chaos.paley_zygmund_certificate.busy_s": busy["chaos.paley_zygmund_certificate"],
        "chaos.self_s": self_s["chaos"],
        "bounds.calls": entry_calls["bounds"],
        "bounds.busy_s": entry_busy["bounds"],
        "cli.run.self_s": sum(own[s[0]] for s in spans if s[1] == "cli.run"),
        "cli.render.busy_s": busy["cli.render"],
    }
