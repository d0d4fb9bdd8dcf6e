"""Spans around the calls into each fermibox layer, and the per-layer
metrics computed from them.

The tracer wraps, from outside the package, every public function of every
``fermibox.*`` module plus ``ModeFamily.eval_matrix`` and ``Kernel.__call__``.
Modules import each other's functions by name, so one wrapper per function
is installed under every module attribute that refers to it
(``fermibox.kernels.eigenfunction_eval`` and ``fermibox.cli.solve_spectrum``
as well as ``fermibox.spectral``'s own names).  A span is
``[name, start, end, parent, extra]``, kept in memory and written once when
the job ends.  A layer is the module that defines the function.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import time
import tracemalloc

import numpy as np

LAYERS = ("cli", "boundary", "spectral", "kernels", "thermo", "sampling",
          "heatflow", "analysis", "baselines")

KERNEL_CONSTRUCTORS = {
    "ground_state_modes", "ground_state_kernel", "finite_t_modes",
    "finite_t_kernel", "cue_kernel", "group_kernel", "kernel_sine",
    "kernel_bessel", "kernel_robin_edge", "kernel_delta_edge",
    "kernel_finite_t_sine", "half_line_robin_projection",
    "delta_line_projection", "parse_kernel_spec",
}
STUDIES = {"bulk_scaling_study", "edge_scaling_study", "finite_t_bulk_study"}
ESTIMATORS = {"estimate_density", "estimate_pair_correlation"}
PROJECTION = {"sample_projection", "sample_projection_many"}
GRAND_CANONICAL = {"sample_grand_canonical", "sample_grand_canonical_many"}
# a tail percentile needs at least ten samples beyond it
P99_MIN_CALLS = 1000


# ---------------------------------------------------------------------------
# recording (runs inside the traced child)


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index]


def _extra(name, args, kwargs, result):
    """Work counts recorded with a span, by function."""
    if name == "eval_matrix":            # (self, xs)
        return [len(args[0]), int(getattr(result, "shape", (0, 0))[-1])]
    if name in ("sample_projection_many", "sample_grand_canonical_many"):
        family = args[0]
        points = (result.size if hasattr(result, "size")
                  else sum(len(r) for r in result))
        draws = _arg(args, kwargs, 1 if name == "sample_projection_many" else 3, "count")
        return [int(draws), len(family), int(points)]
    if name in ("sample_projection", "sample_grand_canonical"):
        return [1, len(args[0]), int(len(result))]
    if name == "haar_eigenangles":
        return [int(_arg(args, kwargs, 2, "count")), int(result.size)]
    if name == "km_mcmc":
        return [int(_arg(args, kwargs, 3, "steps")), float(result[1])]
    if name == "solve_spectrum":
        return [len(result)]
    if name == "kernel_call":          # (self, x, y)
        return [_broadcast_size(args[1], args[2])]
    if name == "run":
        return [int(result)]
    return None


class Tracer:
    """Span recorder; `install` swaps the wrappers into the package."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        short = name.rsplit(".", 1)[1]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            rec[4] = _extra(short, args, kwargs, result)
            return result

        return wrapper

    def _wrap_memory(self, fn):
        """Kernel calls with their peak of newly allocated memory.

        tracemalloc slows every allocation several times over, so it runs
        only inside outermost kernel calls, and only in a separate
        repetition whose timings are not used.
        """
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(kernel, x, y):
            if tracemalloc.is_tracing():
                return fn(kernel, x, y)
            tracemalloc.start()
            try:
                result = fn(kernel, x, y)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            spans.append(["kernels.kernel_call", 0.0, 0.0, -1, [_broadcast_size(x, y), peak]])
            return result

        return wrapper

    def install(self, memory: bool = False) -> None:
        """Wrap the public functions, or with `memory` only Kernel.__call__."""
        kernels = importlib.import_module("fermibox.kernels")
        if memory:
            kernels.Kernel.__call__ = self._wrap_memory(kernels.Kernel.__call__)
            return
        modules = [importlib.import_module(f"fermibox.{m}") for m in LAYERS]
        originals = {}
        for mod in modules:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    originals[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    setattr(mod, attr, originals[id(obj)][1])
        kernels.ModeFamily.eval_matrix = self._wrap(
            "kernels.eval_matrix", kernels.ModeFamily.eval_matrix)
        kernels.Kernel.__call__ = self._wrap("kernels.kernel_call", kernels.Kernel.__call__)

    def dump(self, path: str, job: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": job, "spans": self.spans}, fh)


def _broadcast_size(x, y) -> int:
    return int(np.broadcast(np.asarray(x), np.asarray(y)).size)


# ---------------------------------------------------------------------------
# analysis (runs in the benchmark parent)


class JobSpans:
    """One traced job: spans with self times and ancestry helpers."""

    def __init__(self, spans: list[list]):
        self.spans = spans
        covered = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                covered[parent] += end - start
            self.by_name.setdefault(name, []).append(i)
        self.self_s = [s[2] - s[1] - covered[i] for i, s in enumerate(spans)]

    def root_s(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[3] < 0)

    def inside(self, i: int, names) -> bool:
        """Whether an ancestor of span i has one of `names`."""
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def named(self, names) -> list[int]:
        return sorted(i for n in names for i in self.by_name.get(n, ()))

    def select(self, names) -> list[int]:
        """Outermost spans among `names` (nested repeats are not re-counted)."""
        return [i for i in self.named(names) if not self.inside(i, names)]


def _q(layer: str, names) -> set[str]:
    return {f"{layer}.{n}" for n in names}


def layer_metrics(jobs: list[JobSpans], memory: list[JobSpans]) -> dict[str, float]:
    """Per-layer metrics summed over one traced rep of each job.

    `memory` holds the kernel-call spans of the memory repetitions.
    """
    m: dict[str, float] = {}
    self_by_layer = dict.fromkeys(LAYERS, 0.0)
    total = 0.0

    def count(names):
        return sum(len(j.select(names)) for j in jobs)

    def incl(names):
        return sum(j.spans[i][2] - j.spans[i][1] for j in jobs for i in j.select(names))

    def self_of(names):
        return sum(j.self_s[i] for j in jobs for i in j.named(names))

    def extras(names, outer=True):
        return [j.spans[i][4] for j in jobs
                for i in (j.select(names) if outer else j.named(names))]

    for j in jobs:
        total += j.root_s()
        for s, self_s in zip(j.spans, j.self_s):
            self_by_layer[s[0].split(".", 1)[0]] += self_s
    for layer in LAYERS:
        m[f"share.{layer}"] = self_by_layer[layer] / total if total else 0.0

    m["cli.self_s"] = self_by_layer["cli"]

    solve = {"spectral.solve_spectrum"}
    m["spectral.solve_spectrum.calls"] = count(solve)
    m["spectral.solve_spectrum.s"] = incl(solve)
    m["spectral.solve_spectrum.modes"] = sum(e[0] for e in extras(solve, outer=False))
    ef = {"spectral.eigenfunction_eval"}
    m["spectral.eigenfunction_eval.calls"] = count(ef)
    m["spectral.eigenfunction_eval.s"] = incl(ef)

    ev = {"kernels.eval_matrix"}
    ev_idx = [(j, i) for j in jobs for i in j.named(ev)]
    durations = sorted(j.spans[i][2] - j.spans[i][1] for j, i in ev_idx)
    m["kernels.eval_matrix.calls"] = len(ev_idx)
    m["kernels.eval_matrix.s"] = sum(durations)
    m["kernels.eval_matrix.call_s_p50"] = statistics.median(durations) if durations else 0.0
    m["kernels.eval_matrix.call_s_p99"] = (
        statistics.quantiles(durations, n=100)[98] if len(durations) >= P99_MIN_CALLS else 0.0)
    mode_points = sum(j.spans[i][4][0] * j.spans[i][4][1] for j, i in ev_idx)
    m["kernels.eval_matrix.mode_points"] = mode_points
    m["kernels.eval_matrix.bytes_computed"] = 16 * mode_points
    kc = {"kernels.kernel_call"}
    calls = extras(kc, outer=False)
    m["kernels.kernel_call.calls"] = len(calls)
    m["kernels.kernel_call.self_s"] = self_of(kc)
    m["kernels.kernel_call.pairs"] = sum(e[0] for e in calls)
    m["kernels.kernel_call.peak_mb"] = max(
        (s[4][1] for j in memory for s in j.spans), default=0) / 2**20
    m["kernels.build.s"] = self_of(_q("kernels", KERNEL_CONSTRUCTORS))

    for fn in ("solve_mu", "solve_lambda"):
        names = {f"thermo.{fn}"}
        m[f"thermo.{fn}.calls"] = count(names)
        m[f"thermo.{fn}.s"] = incl(names)
    m["thermo.polylog_half.calls"] = sum(
        len(j.named({"thermo.polylog_half"})) for j in jobs)

    points = 0
    for kind, names in (("projection", _q("sampling", PROJECTION)),
                        ("gc", _q("sampling", GRAND_CANONICAL))):
        ex = extras(names)
        draws = sum(e[0] for e in ex)
        placed = sum(e[2] for e in ex)
        points += placed
        m[f"sampling.{kind}.draws"] = draws
        m[f"sampling.{kind}.s_per_draw"] = incl(names) / draws if draws else 0.0
        if kind == "gc":
            slots = sum(e[0] * e[1] for e in ex)
            m["sampling.gc.mode_use_ratio"] = placed / slots if slots else 0.0
    haar = {"sampling.haar_eigenangles"}
    draws = sum(e[0] for e in extras(haar))
    m["sampling.haar.s_per_draw"] = incl(haar) / draws if draws else 0.0
    samplers = _q("sampling", PROJECTION | GRAND_CANONICAL)
    inside = sum(1 for j, i in ev_idx if j.inside(i, samplers))
    m["sampling.eval_calls_per_point"] = inside / points if points else 0.0

    mc = {"heatflow.km_mcmc"}
    ex = extras(mc)
    steps = sum(e[0] for e in ex)
    m["heatflow.km_mcmc.steps"] = steps
    m["heatflow.km_mcmc.s_per_step"] = incl(mc) / steps if steps else 0.0
    m["heatflow.km_mcmc.acceptance"] = (
        sum(e[0] * e[1] for e in ex) / steps if steps else 0.0)
    m["heatflow.km_log_density.s"] = incl({"heatflow.km_log_density"})

    m["analysis.study.self_s"] = self_of(_q("analysis", STUDIES))
    m["analysis.estimate.s"] = incl(_q("analysis", ESTIMATORS))
    m["boundary.s"] = self_by_layer["boundary"]
    m["baselines.s"] = self_by_layer["baselines"]
    return m


def load(path: str) -> JobSpans:
    with open(path, encoding="utf-8") as fh:
        return JobSpans(json.load(fh)["spans"])
