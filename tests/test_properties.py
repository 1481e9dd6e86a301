"""Property-based cross-checks over generated edge-case instances."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from prophet_order import (
    LN_INV_LAMBDA,
    PHI,
    DecisionContext,
    DiscreteDistribution,
    GoldenPolicy,
    Instance,
    MaxProbPolicy,
    Objective,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    Order,
    SingleThresholdPolicy,
    ThresholdRule,
    brute_force,
    eval_exact,
    make_policy,
    monte_carlo,
    order_ratio_sweep,
    solve_beta,
    suffix_max,
    threshold_triple,
)
from prophet_order.thresholds import (
    carry_win_factors,
    expected_surplus,
    solve_beta_bisection,
)
from tests.helpers import (
    FunctionPolicy,
    ListedThresholds,
    SteppedRule,
    TableOptMaxProbPolicy,
    assert_decides_as_the_table,
    enumerate_max_law,
    per_pair_threshold_winprob,
    simulate_profile,
    suffix_max_by_lookup,
    threshold_winprob_fraction,
    win_factor_after,
)

SETTINGS = settings(derandomize=True, deadline=None, max_examples=100, database=None)


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


@SETTINGS
@given(unique_max_instances(), st.sampled_from([0.0, 0.0625, 1.0, 4.0]))
def test_sweep_opt_is_the_exact_value_of_the_benchmark(instance, baseline):
    # order_ratio_sweep reads the optimum off the benchmark's own backward
    # induction; evaluating the benchmark policy forward must give the same value.
    policy = FunctionPolicy(lambda ctx: True)
    for objective in (Objective.expectation(), Objective.winprob(baseline)):
        report = order_ratio_sweep(instance, policy, objective)
        for row in report.per_order:
            if objective.is_winprob:
                benchmark = OptMaxProbPolicy(instance, row.order, baseline)
            else:
                benchmark = OptExpectationPolicy(instance, row.order)
            exact = eval_exact(instance, row.order, benchmark, objective).value
            assert abs(row.opt - exact) <= 1e-12, (objective, row.order)


# Positive values from small dyadics up to 1e6, and point probabilities down to 1e-9.
EDGE_VALUES = st.one_of(
    st.integers(1, 64).map(lambda k: k / 8.0),
    st.floats(1.0, 1e6, allow_nan=False, allow_infinity=False),
    st.sampled_from([1e6, 999999.5]),
)
EDGE_PROBS = st.one_of(st.sampled_from([1e-9, 1e-7, 1e-3]), st.floats(1e-9, 0.3))


@st.composite
def edge_instances(draw) -> Instance:
    """n <= 4 boxes of at most 3 points each: point masses, shared zero atoms,
    probabilities down to 1e-9 and positive values up to 1e6 that no two boxes
    share. The last point of a box takes the mass the others leave."""
    n = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    positives = draw(st.lists(EDGE_VALUES, min_size=sum(sizes), max_size=sum(sizes), unique=True))
    boxes = []
    for size in sizes:
        values = sorted(positives[:size])
        positives = positives[size:]
        if draw(st.booleans()):
            values[0] = 0.0
        probs = draw(st.lists(EDGE_PROBS, min_size=size - 1, max_size=size - 1))
        boxes.append(list(zip(values, probs + [1.0 - sum(probs)])))
    return Instance.from_supports(boxes)


@st.composite
def edge_cases(draw) -> tuple[Instance, Order]:
    instance = draw(edge_instances())
    return instance, Order(tuple(draw(st.permutations(range(instance.n)))))


def threshold_probes(instance: Instance) -> list[float]:
    """Thresholds at 0, on a support point, between two points and above the largest."""
    values = sorted({v for d in instance.distributions for v in d.values})
    mid = len(values) // 2
    probes = [0.0, values[mid], values[-1] + 1.0]
    if mid:
        probes.append((values[mid - 1] + values[mid]) / 2.0)
    return probes


def table_ending_at(box: DiscreteDistribution, end: float) -> DiscreteDistribution | None:
    """``box`` rebuilt by the bare constructor with its last probability moved
    so that its CDF table ends at ``end``; None when no float does that."""
    *head, (v, _) = box.outcomes
    q = float(Fraction(end) - sum((Fraction(p) for _, p in head), Fraction(0)))
    for cand in (q, math.nextafter(q, 0.0), math.nextafter(q, 2.0)):
        if 0.0 < cand <= 1.0:
            moved = DiscreteDistribution((*head, (v, cand)))
            if moved.cdf[-1] == end:
                return moved
    return None


@st.composite
def near_one_cases(draw) -> tuple[Instance, Order]:
    """Edge cases in which any box may be rebuilt so that its CDF table ends
    one ulp below 1.0 instead of at 1.0. No table ends above 1.0: the
    constructor caps it."""
    instance, order = draw(edge_cases())
    ends = [None, math.nextafter(1.0, 0.0)]
    boxes = []
    for box in instance.distributions:
        end = draw(st.sampled_from(ends))
        moved = None if end is None else table_ending_at(box, end)
        boxes.append(box if moved is None else moved)
    return Instance(tuple(boxes)), order


@SETTINGS
@given(edge_instances())
def test_suffix_max_matches_enumeration_on_edge_laws(instance):
    law = dict(suffix_max(instance.distributions).outcomes)
    oracle = dict(enumerate_max_law(instance.distributions))
    # An atom below float resolution next to a CDF near 1 may drop out of the
    # law, so compare masses value by value instead of the supports.
    assert set(law) <= set(oracle)
    for v, p in oracle.items():
        assert abs(law.get(v, 0.0) - p) <= 1e-12, v


# Values a few boxes may share, so that a merged support dedupes them.
SHARED_VALUES = st.sampled_from([0.0, 0.5, 3.0, 1e6])


@st.composite
def edge_boxes(draw) -> DiscreteDistribution:
    """One box of at most 4 points: point masses, zeros and other values that
    boxes share, probabilities down to 1e-9 and values up to 1e6. Its table
    may end one ulp below 1.0."""
    size = draw(st.integers(1, 4))
    values = draw(st.lists(st.one_of(SHARED_VALUES, EDGE_VALUES), min_size=size, max_size=size, unique=True))
    probs = draw(st.lists(EDGE_PROBS, min_size=size - 1, max_size=size - 1))
    box = DiscreteDistribution.from_pairs(zip(sorted(values), probs + [1.0 - sum(probs)]))
    if draw(st.booleans()):
        box = table_ending_at(box, math.nextafter(1.0, 0.0)) or box
    return box


def law_bits(law: DiscreteDistribution) -> tuple:
    return (
        [v.hex() for v in law.values],
        [c.hex() for c in law.cdf],
        [(v.hex(), p.hex()) for v, p in law.outcomes],
    )


@SETTINGS
@given(st.lists(edge_boxes(), min_size=1, max_size=12), st.data())
def test_suffix_max_is_the_lookup_product_bit_for_bit_on_edge_laws(boxes, data):
    # Box first: the boxes as drawn, up to 12 of them.
    assert law_bits(suffix_max(boxes)) == law_bits(suffix_max_by_lookup(boxes))
    # Law first: a law of some boxes extended by the others at once, and one
    # box at a time from the back, as GoldenPolicy.warm extends its law.
    k = data.draw(st.integers(0, len(boxes)))
    law = suffix_max_by_lookup(boxes[:k])
    members = [law, *boxes[k:]]
    assert law_bits(suffix_max(members)) == law_bits(suffix_max_by_lookup(members))
    law = suffix_max(())
    for box in reversed(boxes):
        want = suffix_max_by_lookup((law, box))
        law = suffix_max((law, box))
        assert law_bits(law) == law_bits(want)


@SETTINGS
@given(edge_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_exact_equals_brute_force_on_edge_laws(case, baseline):
    instance, order = case
    policies = {
        "golden": GoldenPolicy(instance),
        "opt-exp": OptExpectationPolicy(instance, order),
    }
    for threshold in threshold_probes(instance):
        policies[f"threshold:{threshold!r}"] = SingleThresholdPolicy(threshold)
    policies["maxprob"] = MaxProbPolicy(instance)
    for objective in (Objective.expectation(), Objective.winprob(baseline)):
        # The optimum's baseline picks only its win_probability, not a decision.
        policies["opt-maxprob"] = OptMaxProbPolicy(instance, order, objective.baseline)
        for name, policy in policies.items():
            exact = eval_exact(instance, order, policy, objective).value
            brute = brute_force(instance, order, policy, objective).value
            assert abs(exact - brute) <= 1e-12 * max(1.0, abs(exact)), (name, objective)


class PositionalThreshold(ThresholdRule):
    """A threshold that moves with position over :func:`threshold_probes`."""

    kind = "positional"

    def __init__(self, instance: Instance):
        self.probes = threshold_probes(instance)

    def threshold_at(self, position: int, remaining_boxes: frozenset[int]) -> float:
        return self.probes[position % len(self.probes)]


@SETTINGS
@given(edge_cases())
def test_custom_shape_rules_match_brute_force_on_edge_laws(case):
    # The exact pass reads the shape each rule states by type: one threshold
    # per position, or SteppedRule's answer per new maximum and its cut per
    # position. brute_force reads only the decide each type derives.
    instance, order = case
    values = sorted({v for d in instance.distributions for v in d.values})
    objectives = (Objective.expectation(), Objective.winprob(0.0), Objective.winprob(values[len(values) // 2]))
    for policy in (PositionalThreshold(instance), SteppedRule(instance)):
        for objective in objectives:
            exact = eval_exact(instance, order, policy, objective).value
            brute = brute_force(instance, order, policy, objective).value
            assert abs(exact - brute) <= 1e-12 * max(1.0, abs(exact)), (policy.kind, objective)


@SETTINGS
@given(edge_cases(), st.data())
def test_threshold_pass_matches_brute_force_and_the_rational_value_on_edge_laws(case, data):
    # Every ThresholdRule takes one win-probability pass. Rising thresholds
    # reach each value with the running pass mass, falling ones with a product
    # of its own. decide takes no value at a NaN or +inf threshold and every
    # value at -inf; P[y < NaN] reads 0, so the pass must read NaN as +inf.
    instance, order = case
    n = instance.n
    probes = sorted(threshold_probes(instance))
    rising = [probes[min(t, len(probes) - 1)] for t in range(n)]
    drawn = data.draw(st.lists(st.sampled_from([math.nan, math.inf, -math.inf, *probes]), min_size=n, max_size=n))
    policies = [GoldenPolicy(instance), OptExpectationPolicy(instance, order)]
    policies += [ListedThresholds(row) for row in (rising, rising[::-1], [math.nan] + [0.0] * (n - 1), drawn)]
    values = sorted({v for d in instance.distributions for v in d.values})
    for baseline in (0.0, values[len(values) // 2]):
        objective = Objective.winprob(baseline)
        for policy in policies:
            exact = eval_exact(instance, order, policy, objective).value
            brute = brute_force(instance, order, policy, objective).value
            rational = threshold_winprob_fraction(instance, order, policy.thresholds_along(order), baseline)
            where = (policy.kind, list(policy.thresholds_along(order)), baseline)
            assert abs(exact - brute) <= 1e-12, where
            assert abs(Fraction(exact) - rational) <= 1e-14 * rational, where


@SETTINGS
@given(edge_cases(), st.sampled_from([0.0, 0.5, 1e6]), st.sampled_from([0.0, 0.5, 1e6]))
def test_split_pass_is_bit_identical_to_the_per_pair_pass_on_edge_laws(case, rule_baseline, baseline):
    # The shipped max-prob rules are asked once per outcome and for one cut
    # per position; their derived decide behind a plain wrapper is asked once
    # per (state, outcome). These laws hold a few states per
    # position; TestSplitPass in test_evaluation covers hundreds. The
    # optimum's baseline may lie above, at or below the objective's: it
    # picks only the optimum's own win_probability.
    instance, order = case
    for policy in (MaxProbPolicy(instance), OptMaxProbPolicy(instance, order, rule_baseline)):
        per_pair = FunctionPolicy(policy.decide)
        for objective in (Objective.expectation(), Objective.winprob(baseline)):
            split = eval_exact(instance, order, policy, objective).value
            paired = eval_exact(instance, order, per_pair, objective).value
            assert split.hex() == paired.hex(), (policy.kind, objective)


@SETTINGS
@given(edge_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_max_prob_rules_built_without_the_baseline_act_as_rules_built_at_it(case, baseline):
    # make_policy builds the max-prob rules without the objective's baseline;
    # every prefix max an evaluator shows them is >= it. The references are
    # floored at it: the max-prob rule behind a wrapper that raises the prefix
    # max to the baseline, and the optimum's full table built there.
    instance, order = case
    objective = Objective.winprob(baseline)
    rule = MaxProbPolicy(instance)
    floored_rule = FunctionPolicy(lambda c: rule.decide(c._replace(prefix_max=max(c.prefix_max, baseline))))
    pairs = (
        (make_policy("maxprob", instance), floored_rule),
        (make_policy("opt-maxprob", instance, order), TableOptMaxProbPolicy(instance, order, baseline)),
    )
    grid = sorted({baseline} | {v for d in instance.distributions for v in d.values if v > baseline})
    prefixes = grid + [(a + b) / 2.0 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1.0]
    seq = order.sequence
    for built, floored in pairs:
        for evaluate in (eval_exact, brute_force):
            got = evaluate(instance, order, built, objective).value
            want = evaluate(instance, order, floored, objective).value
            assert got.hex() == want.hex(), (built.kind, evaluate.__name__)
        for t in range(1, instance.n + 1):
            remaining = frozenset(seq[t:])
            for v in instance.box(seq[t - 1]).values:
                for prefix in prefixes:
                    c = DecisionContext(t, v, prefix, remaining)
                    assert built.decide(c) == floored.decide(c), (built.kind, t, v, prefix)


@SETTINGS
@given(edge_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_opt_maxprob_decides_as_the_full_table_on_edge_laws(case, baseline):
    instance, order = case
    assert_decides_as_the_table(instance, order, baseline)


@SETTINGS
@given(near_one_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_opt_maxprob_decides_as_the_full_table_on_tables_ending_near_one(case, baseline):
    # The build carries its win factors over the grid and may skip a box
    # above its largest point only when the box's table ends at exactly 1.0.
    instance, order = case
    assert_decides_as_the_table(instance, order, baseline)


@SETTINGS
@given(edge_cases())
def test_win_factor_matches_enumeration_on_edge_laws(case):
    instance, order = case
    seq = order.sequence
    values = sorted({v for d in instance.distributions for v in d.values})
    probes = values + [values[-1] + 1.0] + [(a + b) / 2.0 for a, b in zip(values, values[1:])]
    for t in range(1, instance.n + 1):
        later = [instance.box(b) for b in seq[t:]]
        law = enumerate_max_law(later) if later else ((0.0, 1.0),)
        for v in probes:
            oracle = sum(p for u, p in law if u < v) if later else 1.0
            assert abs(win_factor_after(instance, order, t, v) - oracle) <= 1e-12, (t, v)


def assert_carried_factors_are_win_factor(instance, order):
    """``carry_win_factors`` from the last box back gives ``win_factor_after`` by
    ``float.hex`` at every position, on the support points, between them and
    above them."""
    values = sorted({v for d in instance.distributions for v in d.values})
    grid = sorted(set(values) | {(a + b) / 2.0 for a, b in zip(values, values[1:])} | {values[-1] + 1.0})
    acc = [1.0] * len(grid)
    for t in range(instance.n, 0, -1):
        assert [f.hex() for f in acc] == [win_factor_after(instance, order, t, x).hex() for x in grid], t
        carry_win_factors(acc, grid, instance.box(order.sequence[t - 1]))


@SETTINGS
@given(edge_cases())
def test_carried_win_factors_match_win_factor_bit_for_bit_on_edge_laws(case):
    assert_carried_factors_are_win_factor(*case)


@SETTINGS
@given(near_one_cases())
def test_carried_win_factors_match_win_factor_bit_for_bit_on_tables_ending_near_one(case):
    assert_carried_factors_are_win_factor(*case)


def assert_threshold_winprob_is_the_per_pair_loop(instance, order, baseline):
    """The threshold-rule pass at a constant threshold equals one
    ``win_factor`` call per winnable pair by ``float.hex``, at every
    ``threshold_probes`` threshold."""
    for threshold in threshold_probes(instance):
        policy = SingleThresholdPolicy(threshold)
        exact = eval_exact(instance, order, policy, Objective.winprob(baseline)).value
        oracle = per_pair_threshold_winprob(instance, order, threshold, baseline)
        assert exact.hex() == oracle.hex(), threshold


@SETTINGS
@given(edge_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_threshold_winprob_is_the_per_pair_loop_bit_for_bit_on_edge_laws(case, baseline):
    assert_threshold_winprob_is_the_per_pair_loop(*case, baseline)


@SETTINGS
@given(near_one_cases(), st.sampled_from([0.0, 0.5, 1e6]))
def test_threshold_winprob_is_the_per_pair_loop_bit_for_bit_on_tables_ending_near_one(case, baseline):
    # The carry runs over the winnable values only, so a box may lie wholly
    # below them; it may skip such a box only when its table ends at 1.0.
    assert_threshold_winprob_is_the_per_pair_loop(*case, baseline)


@SETTINGS
@given(edge_cases())
def test_solve_beta_meets_its_residual_and_the_bisection_on_edge_laws(case):
    # Every box, and the law of every suffix of the order as the golden rule
    # reads it. TestSolveBeta's 1e-10 holds on laws with E[y] <= 10; with values
    # up to 1e6 an ulp of beta exceeds it, so the tolerance scales with E[y] above 1.
    instance, order = case
    seq = order.sequence
    suffixes = (suffix_max(instance.box(b) for b in seq[t:]) for t in range(instance.n))
    for law in (*instance.distributions, *suffixes):
        beta = solve_beta(law)
        tol = 1e-10 * max(1.0, law.expectation())
        assert abs(expected_surplus(law, PHI * beta) - beta) <= tol, law
        assert abs(beta - solve_beta_bisection(law)) <= tol, law


@SETTINGS
@given(edge_instances())
def test_sweep_rows_meet_the_tight_constant_on_edge_laws(instance):
    cases = (
        (GoldenPolicy(instance), Objective.expectation(), 1.0 / PHI),
        (MaxProbPolicy(instance, 0.0), Objective.winprob(0.0), LN_INV_LAMBDA),
    )
    for policy, objective, c in cases:
        for row in order_ratio_sweep(instance, policy, objective).per_order:
            assert row.alg >= c * row.opt - 1e-9, (policy.kind, row)


@SETTINGS
@given(edge_instances())
def test_prob_below_is_the_fsum_prefix_on_edge_laws(instance):
    for box in instance.distributions:
        values = box.values
        probes = set(values) | {-1.0, -0.0, 0.0, values[-1] + 1.0, math.inf, -math.inf, math.nan}
        probes |= {(a + b) / 2.0 for a, b in zip(values, values[1:])}
        for x in probes:
            below = math.fsum(p for v, p in box.outcomes if v < x)
            assert box.prob_below(x).hex() == below.hex(), x
        xs = list(probes)
        at_most = [math.fsum(p for v, p in box.outcomes if v <= x) for x in xs]
        assert [c.hex() for c in box.cdf_at(xs)] == [c.hex() for c in at_most], xs


@SETTINGS
@given(edge_cases())
def test_golden_tau_does_not_depend_on_the_walk(case):
    # A law may be extended from the last one built or rebuilt from scratch,
    # depending on the order in which sets are first reached; tau must not
    # move by more than rounding either way.
    instance, order = case
    seq = order.sequence
    suffixes = [frozenset(seq[t:]) for t in range(1, instance.n + 1)]
    backward = GoldenPolicy(instance)
    eval_exact(instance, order, backward, Objective.expectation())
    forward = GoldenPolicy(instance)
    for remaining in suffixes:
        forward.triple(remaining).tau
    swept = GoldenPolicy(instance)
    order_ratio_sweep(instance, swept, Objective.expectation())
    proper_subsets = [
        frozenset(s) for k in range(instance.n) for s in itertools.combinations(range(instance.n), k)
    ]
    for policy, reached in ((backward, suffixes), (forward, suffixes), (swept, proper_subsets)):
        for remaining in reached:
            ref = threshold_triple(suffix_max(instance.box(b) for b in sorted(remaining))).tau
            assert abs(policy.triple(remaining).tau - ref) <= 1e-12 * abs(ref), sorted(remaining)


MC_SAMPLES = 2000
MC_LOG_TERM = math.log(2 / 1e-6)  # ln(2 / delta): each bound below fails w.p. <= 1e-6


@SETTINGS
@given(edge_cases())
def test_monte_carlo_lands_near_exact_on_edge_laws(case):
    # Golden under expectation and maxprob under win probability, at fixed
    # seeds. An atom rarer than 1 / MC_SAMPLES is seldom drawn, and then the
    # reported stderr misses it (it reads 0 when no sample varies), so the
    # bound takes the payoff's exact variance from the enumerated profiles.
    # Bernstein's inequality for N payoffs in [0, top] then bounds the miss
    # by sqrt(2 var L / N) + 2 top L / (3 N): about 5.4 exact stderrs plus
    # one payoff range per 1 / N for a draw of a rare atom.
    instance, order = case
    pairs = ((GoldenPolicy(instance), Objective.expectation()), (MaxProbPolicy(instance), Objective.winprob()))
    for seed, (policy, objective) in enumerate(pairs, start=1):
        exact = eval_exact(instance, order, policy, objective).value
        profiles = []
        for combo in itertools.product(*(d.outcomes for d in instance.distributions)):
            payoff = simulate_profile(order, policy, objective, tuple(v for v, _ in combo))
            profiles.append((math.prod(p for _, p in combo), payoff))
        mean = math.fsum(p * x for p, x in profiles)
        var = math.fsum(p * (x - mean) ** 2 for p, x in profiles)
        top = 1.0 if objective.is_winprob else max(d.values[-1] for d in instance.distributions)
        bound = math.sqrt(2 * var * MC_LOG_TERM / MC_SAMPLES) + 2 * top * MC_LOG_TERM / (3 * MC_SAMPLES)
        estimate = monte_carlo(instance, order, policy, objective, MC_SAMPLES, seed)
        assert abs(estimate.value - exact) <= bound, (policy.kind, estimate, exact, bound)
