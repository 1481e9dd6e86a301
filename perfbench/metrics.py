"""Names, units and definitions of every metric the benchmark reports.

``BENCHMARK.json`` is written from these lists by ``collect.py``; the
self-test checks that the two agree.

Per-layer figures come from the traced run and are given per round: the
traced body's totals divided by its rounds, plus the checks' totals. A count
per round therefore stays fixed for a given seed however fast the code runs. The ``.n<N>`` figures come from the
``scale`` workload alone, from its exact phase except ``evaluation.monte_carlo``
(its sampling phase); ``.exponent`` is their log-log slope over n.
"""

from __future__ import annotations

import math

from workloads import Scale

# name, unit, better, bound: bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression. Times
# get the largest bound allowed, 0.25: on a shared 2-core VM the same code
# runs up to ~1.7x slower for stretches that can cover a whole run.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_p95_ms", "ms", "lower", 0.25),
    ("mc_samples_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_ops_ratio", "ratio", "higher", 0.01),
)

EVAL_PAIRS = (
    "golden.expectation",
    "maxprob.winprob",
    "opt-exp.expectation",
    "opt-maxprob.winprob",
    "median.winprob",
    "threshold.winprob",
)


class Totals:
    """Calls, self time and work per (phase, n, layer) from a tracer's spans."""

    def __init__(self, tracer, rounds: dict):
        self.rounds = rounds
        self.table: dict = {}
        for name, _start, _end, _parent, op, self_s, counted, work in tracer.spans:
            if op is None:  # the root span
                continue
            self._add(op, name, 1, self_s, work)
            for cname, (calls, _total, cself) in (counted or {}).items():
                self._add(op, cname, calls, cself, 0)

    def _add(self, op, name, calls, self_s, work):
        acc = self.table.setdefault((op[0], op[1], name), [0, 0.0, 0])
        acc[0] += calls
        acc[1] += self_s
        acc[2] += work

    def get(self, name: str, field: int, phase=None, n=None) -> float:
        return sum(
            v[field] / self.rounds[ph]
            for (ph, nn, nm), v in self.table.items()
            if nm == name and (phase is None or ph == phase) and (n is None or nn == n)
        )


CALLS, SELF_S, WORK = 0, 1, 2


def _layer(name: str, field: int):
    return lambda t: t.get(name, field)


def _hit_ratio(t: Totals) -> float:
    calls = t.get("policies.golden_triple", CALLS)
    return (calls - t.get("thresholds.threshold_triple", CALLS)) / calls if calls else 0.0


_BASE = [
    ("core.prob_below.calls", "count", "lower", _layer("core.prob_below", CALLS)),
    ("core.prob_below.self_s", "s", "lower", _layer("core.prob_below", SELF_S)),
    ("core.validate_instance.calls", "count", "lower", _layer("core.validate_instance", CALLS)),
    ("core.validate_instance.self_s", "s", "lower", _layer("core.validate_instance", SELF_S)),
    ("core.sample.calls", "count", "lower", _layer("core.sample", CALLS)),
    ("core.sample.self_s", "s", "lower", _layer("core.sample", SELF_S)),
    ("thresholds.suffix_max.calls", "count", "lower", _layer("thresholds.suffix_max", CALLS)),
    ("thresholds.suffix_max.self_s", "s", "lower", _layer("thresholds.suffix_max", SELF_S)),
    ("thresholds.suffix_max.support_points", "count", "lower", _layer("thresholds.suffix_max", WORK)),
    ("thresholds.solve_beta.calls", "count", "lower", _layer("thresholds.solve_beta", CALLS)),
    ("thresholds.solve_beta.self_s", "s", "lower", _layer("thresholds.solve_beta", SELF_S)),
    ("thresholds.solve_beta_bisection.calls", "count", "lower", _layer("thresholds.solve_beta_bisection", CALLS)),
    ("policies.golden_triple.calls", "count", "lower", _layer("policies.golden_triple", CALLS)),
    ("policies.golden_triple.misses", "count", "lower", _layer("thresholds.threshold_triple", CALLS)),
    ("policies.golden_triple.hit_ratio", "ratio", "higher", _hit_ratio),
    ("policies.opt_maxprob_init.calls", "count", "lower", _layer("policies.opt_maxprob_init", CALLS)),
    ("policies.opt_maxprob_init.self_s", "s", "lower", _layer("policies.opt_maxprob_init", SELF_S)),
    ("policies.opt_exp_thresholds.calls", "count", "lower", _layer("policies.opt_exp_thresholds", CALLS)),
    ("policies.opt_exp_thresholds.self_s", "s", "lower", _layer("policies.opt_exp_thresholds", SELF_S)),
    ("policies.decide.calls", "count", "lower", _layer("policies.decide", CALLS)),
    ("policies.decide.self_s", "s", "lower", _layer("policies.decide", SELF_S)),
]
for _pair in EVAL_PAIRS:
    _BASE += [
        (f"evaluation.eval_exact.{_pair}.calls", "count", "lower", _layer(f"evaluation.eval_exact.{_pair}", CALLS)),
        (f"evaluation.eval_exact.{_pair}.self_s", "s", "lower", _layer(f"evaluation.eval_exact.{_pair}", SELF_S)),
    ]
_BASE += [
    ("evaluation.order_ratio_sweep.self_s", "s", "lower", _layer("evaluation.order_ratio_sweep", SELF_S)),
    ("evaluation.monte_carlo.self_s", "s", "lower", _layer("evaluation.monte_carlo", SELF_S)),
    ("evaluation.brute_force.calls", "count", "lower", _layer("evaluation.brute_force", CALLS)),
    ("evaluation.brute_force.self_s", "s", "lower", _layer("evaluation.brute_force", SELF_S)),
    ("families.example1.self_s", "s", "lower", _layer("families.example1", SELF_S)),
    ("families.golden_lb.self_s", "s", "lower", _layer("families.golden_lb", SELF_S)),
    ("families.maxprob_lb.self_s", "s", "lower", _layer("families.maxprob_lb", SELF_S)),
    ("families.single_threshold_family.self_s", "s", "lower", _layer("families.single_threshold_family", SELF_S)),
    ("families.single_threshold_ratio_curve.self_s", "s", "lower",
     _layer("families.single_threshold_ratio_curve", SELF_S)),
    ("cli.main.self_s", "s", "lower", _layer("cli.main", SELF_S)),
]

# (layer, fields, phase) reported at every n of the scale series.
_PER_N = (
    ("core.prob_below", ("calls", "self_s"), "ops"),
    ("thresholds.suffix_max", ("calls", "self_s", "support_points"), "ops"),
    ("thresholds.solve_beta", ("calls", "self_s"), "ops"),
    ("policies.decide", ("calls", "self_s"), "ops"),
    ("policies.opt_maxprob_init", ("self_s",), "ops"),
    ("evaluation.eval_exact.golden.expectation", ("self_s",), "ops"),
    ("evaluation.eval_exact.maxprob.winprob", ("self_s",), "ops"),
    ("evaluation.eval_exact.opt-maxprob.winprob", ("self_s",), "ops"),
    ("evaluation.eval_exact.opt-exp.expectation", ("self_s",), "ops"),
    ("evaluation.eval_exact.median.winprob", ("self_s",), "ops"),
    ("evaluation.monte_carlo", ("self_s",), "mc"),
)
_FIELDS = {"calls": (CALLS, "count"), "self_s": (SELF_S, "s"), "support_points": (WORK, "count")}

_TRACING = (
    ("tracing.ops_per_s_untraced", "1/s", "higher"),
    ("tracing.ops_per_s_traced", "1/s", "higher"),
    ("tracing.overhead_ratio", "ratio", "lower"),
)


def _per_n_names():
    for layer, fields, phase in _PER_N:
        for field in fields:
            index, unit = _FIELDS[field]
            for n in Scale.NS:
                yield f"{layer}.{field}.n{n}", unit, layer, index, phase, n
            yield f"{layer}.{field}.exponent", "1", layer, index, phase, None


PER_LAYER = (
    [(name, unit, better) for name, unit, better, _ in _BASE]
    + [(name, unit, "lower") for name, unit, *_ in _per_n_names()]
    + list(_TRACING)
)


def log_log_slope(points) -> float:
    """Least-squares slope of log(value) over log(n); 0 with fewer than two positive values."""
    pts = [(math.log(n), math.log(v)) for n, v in points if v > 0]
    if len(pts) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def per_layer_values(tracer, rounds: dict, ops_per_s: dict) -> dict:
    """Every PER_LAYER metric as {"value", "unit"}, from one traced body and its checks."""
    totals = Totals(tracer, rounds)
    values = {name: fn(totals) for name, _unit, _better, fn in _BASE}
    series: dict = {}
    for name, _unit, layer, index, phase, n in _per_n_names():
        if n is None:
            values[name] = log_log_slope(series.pop((layer, index)))
        else:
            values[name] = totals.get(layer, index, phase=phase, n=n)
            series.setdefault((layer, index), []).append((n, values[name]))
    values["tracing.ops_per_s_untraced"] = ops_per_s["untraced"]
    values["tracing.ops_per_s_traced"] = ops_per_s["traced"]
    values["tracing.overhead_ratio"] = ops_per_s["untraced"] / ops_per_s["traced"]
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
