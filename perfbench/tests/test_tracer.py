"""Self-test of the benchmark: the tracer changes no result, and every layer
metric reads non-zero on the workload where that layer does work.

    python3 -m pytest perfbench/tests -q

Workloads run here at reduced sizes, one round per phase.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import prophet_order as po  # noqa: E402
from collect import benchmark_config  # noqa: E402
from metrics import CALLS, PER_LAYER, Totals, per_layer_values  # noqa: E402
from run import HostProbe, check, ops_per_s, run_body  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Scale, Sweep  # noqa: E402

SCALE_NS = Scale.NS[:2]

COMMON = [
    "core.prob_below.calls", "core.prob_below.self_s",
    "core.validate_instance.calls", "core.validate_instance.self_s",
    "core.sample.calls", "core.sample.self_s",
    "thresholds.suffix_max.calls", "thresholds.suffix_max.self_s", "thresholds.suffix_max.support_points",
    "thresholds.solve_beta.calls", "thresholds.solve_beta.self_s",
    "policies.golden_triple.calls", "policies.golden_triple.misses", "policies.golden_triple.hit_ratio",
    "policies.opt_maxprob_init.calls", "policies.opt_maxprob_init.self_s",
    "policies.opt_exp_thresholds.calls", "policies.opt_exp_thresholds.self_s",
    "policies.decide.calls", "policies.decide.self_s",
    "evaluation.monte_carlo.self_s",
    "tracing.ops_per_s_untraced", "tracing.ops_per_s_traced", "tracing.overhead_ratio",
]


def _eval(*pairs):
    return [f"evaluation.eval_exact.{p}.{f}" for p in pairs for f in ("calls", "self_s")]


EXPECTED_NONZERO = {
    "sweep": COMMON
    + _eval("golden.expectation", "maxprob.winprob", "opt-exp.expectation", "opt-maxprob.winprob")
    + ["evaluation.order_ratio_sweep.self_s", "evaluation.brute_force.calls", "evaluation.brute_force.self_s"],
    "scale": COMMON
    + _eval("golden.expectation", "maxprob.winprob", "opt-exp.expectation", "opt-maxprob.winprob", "median.winprob",
            "threshold.winprob")
    + ["evaluation.order_ratio_sweep.self_s", "cli.main.self_s"]
    + [name for name, _, _ in PER_LAYER if name.startswith("families.")]
    + [name for name, _, _ in PER_LAYER
       if any(name.endswith(f".n{n}") for n in SCALE_NS) and "solve_beta_bisection" not in name]
    + [name for name, _, _ in PER_LAYER if name.endswith(".exponent") and ".calls." not in name],
}

# Calls the workload's own ops make only through names that ``evaluation`` and
# ``policies`` imported from other modules; they read zero if the tracer wraps
# the defining module alone.
BY_NAME_LOOKUPS = {
    "sweep": ["evaluation.eval_exact.golden.expectation", "core.validate_instance",
              "thresholds.suffix_max", "thresholds.threshold_triple"],
    "scale": ["core.validate_instance", "thresholds.suffix_max", "thresholds.threshold_triple",
              "families.maxprob_lb", "evaluation.order_ratio_sweep"],
}


def small_workload(name: str):
    if name == "sweep":
        return Sweep(po, 3, counts={n: 1 for n in range(1, 7)})
    commands = (("reproduce", "example1"), ("reproduce", "golden-lb"),
                ("reproduce", "maxprob-lb", "--n", "60"), ("reproduce", "single-threshold", "--n", "2500"))
    return Scale(po, 3, ns=SCALE_NS, commands=commands)


@pytest.fixture(scope="module")
def traced_runs():
    """One untraced and one traced body per workload, plus the traced checks."""
    runs = {}
    for name in ("sweep", "scale"):
        workload = small_workload(name)
        plain = run_body(workload, 1, HostProbe())
        tracer = Tracer()
        tracer.install(po)
        try:
            traced = run_body(workload, 1, HostProbe(), tracer, first_round=1)
            tracer.op = ("check", 0)
            failed = check(workload, plain["results"] + traced["results"])
        finally:
            tracer.uninstall()
            tracer.finish()
        rounds = {"ops": traced["rounds"], "mc": traced["rounds"], "check": 1}
        rates = {"untraced": ops_per_s(plain["results"], None), "traced": ops_per_s(traced["results"], None)}
        runs[name] = (plain, traced, tracer, rounds, rates, failed)
    return runs


@pytest.mark.parametrize("name", ["sweep", "scale"])
def test_traced_values_are_bit_identical(traced_runs, name):
    plain, traced, *_, failed = traced_runs[name]
    assert failed == 0
    assert len(plain["results"]) == len(traced["results"])
    for a, b in zip(plain["results"], traced["results"]):
        assert (a.phase, a.index) == (b.phase, b.index)
        assert repr(a.value) == repr(b.value), a.op.label


@pytest.mark.parametrize("name", ["sweep", "scale"])
def test_layer_metrics_nonzero_where_the_layer_works(traced_runs, name):
    _, _, tracer, rounds, rates, _ = traced_runs[name]
    metrics = per_layer_values(tracer, rounds, rates)
    assert set(metrics) == {n for n, _, _ in PER_LAYER}
    zero = [m for m in EXPECTED_NONZERO[name] if not metrics[m]["value"] > 0]
    assert not zero, f"{name}: read zero: {zero}"
    totals = Totals(tracer, rounds)
    unseen = [layer for layer in BY_NAME_LOOKUPS[name] if not totals.get(layer, CALLS, phase="ops") > 0]
    assert not unseen, f"{name}: no calls during the timed ops: {unseen}"


@pytest.mark.parametrize("name", ["sweep", "scale"])
def test_self_times_partition_the_root_span(traced_runs, name):
    tracer = traced_runs[name][2]
    name0, start, end = tracer.spans[0][:3]
    assert name0 == "bench.root"
    covered = sum(rec[5] + sum(c[2] for c in (rec[6] or {}).values()) for rec in tracer.spans)
    assert covered == pytest.approx(end - start, rel=1e-9, abs=1e-9)


def test_uninstall_restores_every_original():
    before = {mod: dict(vars(getattr(po, mod))) for mod in ("core", "thresholds", "policies", "evaluation")}
    classes = [po.DiscreteDistribution, po.GoldenPolicy, po.MaxProbPolicy, po.OptMaxProbPolicy]
    methods = {cls: dict(vars(cls)) for cls in classes}
    tracer = Tracer()
    tracer.install(po)
    assert po.evaluation.eval_exact is not before["evaluation"]["eval_exact"]
    assert po.policies.validate_instance is not before["policies"]["validate_instance"]
    tracer.uninstall()
    for mod, names in before.items():
        assert dict(vars(getattr(po, mod))) == names
    for cls, attrs in methods.items():
        assert dict(vars(cls)) == attrs


def test_benchmark_json_matches_the_definitions():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == benchmark_config()
    assert len(PER_LAYER) <= 128
