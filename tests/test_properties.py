"""Property-based cross-checks over generated edge-case instances."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from prophet_order import (
    Instance,
    Objective,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    eval_exact,
    order_ratio_sweep,
)
from tests.helpers import FunctionPolicy


@st.composite
def unique_max_instances(draw) -> Instance:
    """n <= 4 boxes of at most 3 points each: point masses, shared zero atoms,
    and positive dyadic values that no two boxes share."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    zeros = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    positives = draw(st.lists(st.integers(1, 64), min_size=sum(sizes), max_size=sum(sizes), unique=True))
    boxes = []
    for size, zero in zip(sizes, zeros):
        values = [k / 8.0 for k in positives[:size]]
        positives = positives[size:]
        if zero:
            values[0] = 0.0
        weights = draw(st.lists(st.integers(1, 1000), min_size=size, max_size=size))
        total = sum(weights)
        boxes.append([(v, w / total) for v, w in zip(values, weights)])
    return Instance.from_supports(boxes)


@settings(derandomize=True, deadline=None, max_examples=100, database=None)
@given(unique_max_instances(), st.sampled_from([0.0, 0.0625, 1.0, 4.0]))
def test_sweep_opt_is_the_exact_value_of_the_benchmark(instance, baseline):
    # order_ratio_sweep reads the optimum off the benchmark's own backward
    # induction; evaluating the benchmark policy forward must give the same value.
    policy = FunctionPolicy(lambda ctx: True, uses_prefix_max=False)
    for objective in (Objective.expectation(), Objective.winprob(baseline)):
        report = order_ratio_sweep(instance, policy, objective)
        for row in report.per_order:
            if objective.is_winprob:
                benchmark = OptMaxProbPolicy(instance, row.order, baseline)
            else:
                benchmark = OptExpectationPolicy(instance, row.order)
            exact = eval_exact(instance, row.order, benchmark, objective).value
            assert abs(row.opt - exact) <= 1e-12, (objective, row.order)
