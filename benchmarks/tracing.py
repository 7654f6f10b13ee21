"""Traced run: spans around the calls into each jumpspectra module.

The wrappers live in the benchmark, not in the package.  Each one replaces a
name where its caller looks it up: ``harness`` imported ``lagrange_at_jump``
by name, so patching ``lagrange.lagrange_at_jump`` would record nothing and
``harness.lagrange_at_jump`` is patched instead.  ``installed`` restores every
name on exit.

A span records its name, start, end, parent span, task id and an amount of
work (grid nodes, points, rows, ...).  Spans stay in memory; ``layer_metrics``
turns one pass's spans into the per-layer metrics.  A span's self time is its
duration minus the durations of its child spans, which cover disjoint parts
of it because the benchmark runs on one thread.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

LAGRANGE = ("lagrange_sweep",)
SWEEPS = ("lagrange_sweep", "shepard_sweep")
COMPARES = ("lagrange_sweep", "shepard_sweep", "long_prefix")
SHEPARD = ("shepard_sweep",)
TABLE = ("spectra_table",)
LONG = ("long_prefix",)

# metric -> (unit, span, statistic, workloads whose wall_s it should move).
# On those workloads a metric whose span recorded no call is left out rather
# than reported as 0 s: a change that stops calling the wrapped name would
# otherwise read as a 100% saving.
LAYER_METRICS = {
    "harness.run_sequence.s": ("s", "harness.run_sequence", "s", SWEEPS),
    "harness.compare.self_s": ("s", "harness.compare", "self_s", COMPARES),
    "harness.ks.s": ("s", "harness.ks", "s", SWEEPS),
    "harness.export.s": ("s", "harness.export", "s", LONG),
    "harness.export.rows": ("count", "harness.export", "amount", LONG),
    "harness.export.us_per_row": ("us", "harness.export", "us_per_amount", LONG),
    "lagrange.at_jump.calls": ("count", "lagrange.at_jump", "calls", LAGRANGE),
    "lagrange.at_jump.s": ("s", "lagrange.at_jump", "s", LAGRANGE),
    "lagrange.at_jump.self_s": ("s", "lagrange.at_jump", "self_s", LAGRANGE),
    "lagrange.ns_per_node": ("ns", "lagrange.at_jump", "ns_per_amount", LAGRANGE),
    "lagrange.grid.s": ("s", "lagrange.grid", "s", LAGRANGE),
    "shepard.sweep_sgt1.s": ("s", "shepard.sweep_sgt1", "s", SHEPARD),
    "shepard.sweep_sgt1.values": ("count", "shepard.sweep_sgt1", "amount", SHEPARD),
    "shepard.sweep_sgt1.ns_per_value": ("ns", "shepard.sweep_sgt1", "ns_per_amount", SHEPARD),
    "shepard.sweep_s1.s": ("s", "shepard.sweep_s1", "s", LONG),
    "shepard.sweep_s1.values": ("count", "shepard.sweep_s1", "amount", LONG),
    "shepard.at_jump.calls": ("count", "shepard.at_jump", "calls", SHEPARD),
    "shepard.at_jump.s": ("s", "shepard.at_jump", "s", SHEPARD),
    "piecewise.eval_many.calls": ("count", "piecewise.eval_many", "calls", SWEEPS),
    "piecewise.eval_many.points": ("count", "piecewise.eval_many", "amount", SWEEPS),
    "piecewise.eval_many.s": ("s", "piecewise.eval_many", "s", SWEEPS),
    "theory.predict.s": ("s", "theory.predict", "s", TABLE),
    "theory.atoms": ("count", "theory.predict", "amount", TABLE),
    "theory.set_index.s": ("s", "theory.set_index", "s", TABLE),
    "specfun.profile_scalar.calls": ("count", "specfun.profile_scalar", "calls", TABLE),
    "specfun.profile_scalar.s": ("s", "specfun.profile_scalar", "s", TABLE),
    "specfun.eval_many.points": ("count", "specfun.eval_many", "amount", TABLE),
    "specfun.eval_many.s": ("s", "specfun.eval_many", "s", TABLE),
    "specfun.monotone_grid.calls": ("count", "specfun.monotone_grid", "calls", SWEEPS),
    "specfun.monotone_grid.builds": ("count", "specfun.monotone_grid", "builds", SWEEPS),
    "specfun.monotone_grid.s": ("s", "specfun.monotone_grid", "s", SWEEPS),
    "specfun.invert.calls": ("count", "specfun.invert", "calls", TABLE),
    "specfun.invert.s": ("s", "specfun.invert", "s", TABLE),
    "specfun.invert_many.s": ("s", "specfun.invert_many", "s", SWEEPS),
    "density.detect_clusters.s": ("s", "density.detect_clusters", "s", LONG),
    "density.empirical_index.calls": ("count", "density.empirical_index", "calls", LONG),
    "density.empirical_index.s": ("s", "density.empirical_index", "s", LONG),
    "density.ns_per_scanned_value": ("ns", "density.empirical_index", "ns_per_amount", LONG),
    "cli.main.self_s": ("s", "cli.main", "self_s", LONG),
}

# measured by the worker around whole passes, not from spans
PASS_METRICS = {
    "proc.cpu_s": "s",
    "proc.cpu_per_wall": "ratio",
    "trace.overhead_s": "s",
}

NAME, START, END, PARENT, TASK, AMOUNT = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._open: list[int] = []

    def call(self, name: str, fn, args, kwargs, amount=None):
        span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.task, 0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf_counter()
            self._open.pop()
        if amount is not None:
            span[AMOUNT] = amount(args, result)
        return result

    def wrap(self, name: str, fn, amount=None):
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, amount)

        return traced


def _size(args, result) -> int:
    return int(result.size)


def _targets(tracer: Tracer):
    """(owner, attribute, replacement) for every traced lookup site."""
    from jumpspectra import cli, density, harness, theory
    from jumpspectra.piecewise import JumpFunction
    from jumpspectra.specfun import LimitProfile

    def wrap(owner, attr, name, amount=None):
        return owner, attr, tracer.wrap(name, vars(owner)[attr], amount)

    step_sweep = vars(harness)["step_sweep"]

    def traced_step_sweep(f, s, n_values):
        name = "shepard.sweep_s1" if float(s) == 1.0 else "shepard.sweep_sgt1"
        return tracer.call(name, step_sweep, (f, s, n_values), {}, _size)

    return [
        wrap(harness, "compare", "harness.compare"),
        wrap(cli, "compare", "harness.compare"),
        wrap(harness, "run_sequence", "harness.run_sequence"),
        wrap(cli, "run_sequence", "harness.run_sequence"),
        wrap(harness, "ks_uniform_distance", "harness.ks"),
        wrap(cli, "write_run_csv", "harness.export", lambda a, r: a[1].n),
        wrap(harness, "lagrange_at_jump", "lagrange.at_jump", lambda a, r: a[0].n),
        wrap(harness, "ChebyshevGrid", "lagrange.grid"),
        (harness, "step_sweep", traced_step_sweep),
        wrap(harness, "shepard_at_jump", "shepard.at_jump"),
        wrap(harness, "detect_clusters", "density.detect_clusters"),
        wrap(harness, "predict_lagrange", "theory.predict", lambda a, r: len(r.atoms)),
        wrap(harness, "predict_shepard", "theory.predict", lambda a, r: len(r.atoms)),
        wrap(density, "empirical_index", "density.empirical_index",
             lambda a, r: a[0].n * len(r.eps_profile)),
        wrap(theory, "g_lagrange", "specfun.profile_scalar"),
        wrap(theory, "g_shepard", "specfun.profile_scalar"),
        wrap(theory, "profile_preimage_measure", "specfun.preimage_measure"),
        wrap(theory, "predicted_set_index", "theory.set_index"),
        wrap(JumpFunction, "eval_many", "piecewise.eval_many", _size),
        wrap(LimitProfile, "eval_many", "specfun.eval_many", _size),
        wrap(LimitProfile, "monotone_grid", "specfun.monotone_grid"),
        wrap(LimitProfile, "invert", "specfun.invert"),
        wrap(LimitProfile, "invert_many", "specfun.invert_many"),
        wrap(cli, "main", "cli.main"),
    ]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Put the tracer's wrappers in place; restore every original on exit."""
    saved = []
    try:
        for owner, attr, replacement in _targets(tracer):
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(spans: list[list], workload: str) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    calls = defaultdict(int)
    total = defaultdict(float)
    child = defaultdict(float)
    amount = defaultdict(int)
    built = set()
    for i, span in enumerate(spans):
        name, duration = span[NAME], span[END] - span[START]
        calls[name] += 1
        total[name] += duration
        amount[name] += span[AMOUNT]
        parent = span[PARENT]
        if parent is not None:
            child[parent] += duration
            # monotone_grid evaluates the profile only when it builds its grid
            if name == "specfun.eval_many" and spans[parent][NAME] == "specfun.monotone_grid":
                built.add(parent)
    self_time = defaultdict(float)
    for i, span in enumerate(spans):
        self_time[span[NAME]] += span[END] - span[START] - child[i]

    def per_amount(name: str, scale: float) -> float:
        return total[name] * scale / amount[name] if amount[name] else 0.0

    statistic = {
        "calls": lambda n: calls[n],
        "s": lambda n: total[n],
        "self_s": lambda n: self_time[n],
        "amount": lambda n: amount[n],
        "builds": lambda n: len(built),
        "us_per_amount": lambda n: per_amount(n, 1e6),
        "ns_per_amount": lambda n: per_amount(n, 1e9),
    }
    out = {}
    for metric, (_, span, stat, mapped) in LAYER_METRICS.items():
        if calls[span] == 0 and workload in mapped:
            continue
        out[metric] = statistic[stat](span)
    return out
