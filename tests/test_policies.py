import math
import random

import pytest

from prophet_order import (
    LAMBDA,
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
    ValidationError,
    brute_force,
    eval_exact,
    make_policy,
    opt_expectation_thresholds,
)
from prophet_order import policies
from tests.helpers import (
    TableOptMaxProbPolicy,
    assert_decides_as_the_table,
    random_instance,
    random_order,
    simulate_profile,
)


def ctx(position, value, prefix=0.0, remaining=()):
    return DecisionContext(position, value, prefix, frozenset(remaining))


def classic_two_box(eps):
    return Instance.from_supports(
        [[(1.0, 1.0)], [(0.0, 1.0 - eps), (1.0 / eps, eps)]]
    )


@pytest.fixture
def suffix_max_members(monkeypatch):
    """The number of laws in each ``suffix_max`` call that ``policies`` makes."""
    members = []
    original = policies.suffix_max

    def recording(dists):
        dists = tuple(dists)
        members.append(len(dists))
        return original(dists)

    monkeypatch.setattr(policies, "suffix_max", recording)
    return members


class TestGoldenPolicy:
    def test_accepts_anything_on_last_box(self):
        inst = Instance.from_supports([[(0.0, 0.5), (1.0, 0.5)]])
        pol = GoldenPolicy(inst)
        assert pol.decide(ctx(1, 0.0, remaining=()))

    def test_accepts_sqrt2_ahead_of_deterministic_one_and_rare_box(self):
        eps = 0.001
        inst = Instance.from_supports(
            [
                [(math.sqrt(2.0), 1.0)],
                [(1.0, 1.0)],
                [(0.0, 1.0 - eps), (1.0 / eps, eps)],
            ]
        )
        pol = GoldenPolicy(inst)
        assert pol.tau(frozenset({1, 2})) == pytest.approx(1.23545, abs=1e-5)
        assert pol.decide(ctx(1, math.sqrt(2.0), remaining={1, 2}))

    def test_rejects_below_point_mass_threshold(self):
        inst = Instance.from_supports([[(0.5, 1.0)], [(1.0, 1.0)]])
        pol = GoldenPolicy(inst)
        # remaining point mass 1 gives tau = 1/phi ~ 0.618
        assert not pol.decide(ctx(1, 0.5, remaining={1}))

    def test_accepts_tau_and_rejects_the_float_below_it(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.75), (3.0, 0.25)]])
        pol = GoldenPolicy(inst)
        tau = pol.tau(frozenset({1}))
        assert pol.decide(ctx(1, tau, remaining={1}))
        assert not pol.decide(ctx(1, math.nextafter(tau, 0.0), remaining={1}))

    def test_exact_walk_extends_one_law_per_position(self, suffix_max_members):
        # eval_exact builds the thresholds from the back of the order, where
        # each remaining set is the last one plus a box: after the empty set,
        # every law comes from the last law and that box, not from all boxes.
        inst = Instance.from_supports([[(0.0, 0.5), (float(k + 1), 0.5)] for k in range(30)])
        eval_exact(inst, Order.identity(30), GoldenPolicy(inst), Objective.expectation())
        assert len(suffix_max_members) == 30
        assert suffix_max_members[1:] == [2] * 29

    def test_warm_extends_its_law_past_sets_cached_by_another_order(self, suffix_max_members):
        # The second order's walk finds every set but its largest cached by
        # the first. It still carries its law through them, so the new set
        # extends that law by one box, and every triple is the one a fresh
        # walk of that order gives.
        inst = Instance.from_supports(
            [[(0.0, 0.3), (float(k + 1), 0.3), (10.0 + k, 0.4)] for k in range(5)]
        )
        first, second = Order((0, 1, 2, 3, 4)), Order((1, 0, 2, 3, 4))
        policy = GoldenPolicy(inst)
        policy.warm(first)
        suffix_max_members.clear()
        policy.warm(second)
        assert suffix_max_members == [0, 2, 2, 2, 2]
        fresh = GoldenPolicy(inst)
        fresh.warm(second)
        for t in range(1, 6):
            remaining = frozenset(second.sequence[t:])
            assert policy.triple(remaining) == fresh.triple(remaining), t

    def test_ignores_prefix_max_and_order(self):
        rng = random.Random(41)
        for _ in range(50):
            inst = random_instance(rng, 5, 3)
            pol = GoldenPolicy(inst)
            n = inst.n
            pos = rng.randint(1, n)
            remaining = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
            v = rng.choice(inst.box(rng.randrange(n)).values)
            base = pol.decide(ctx(pos, v, 0.0, remaining))
            # The context carries no order; the position is all an order could add.
            for prefix in (0.0, v, v + 1.0, 50.0):
                for other_pos in range(1, n + 1):
                    assert pol.decide(DecisionContext(other_pos, v, prefix, remaining)) == base


class TestMaxProbPolicy:
    def test_accepts_new_max_with_empty_future(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        pol = MaxProbPolicy(inst)
        assert pol.decide(ctx(1, 1.0, prefix=0.0, remaining=()))

    def test_accepts_when_future_stays_below_with_prob_half(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.5), (3.0, 0.5)]])
        pol = MaxProbPolicy(inst)
        assert 0.5 >= LAMBDA
        assert pol.decide(ctx(1, 1.0, prefix=0.0, remaining={1}))

    def test_rejects_when_future_likely_exceeds(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.1), (3.0, 0.9)]])
        pol = MaxProbPolicy(inst)
        assert pol.prob_future_below(frozenset({1}), 1.0) == pytest.approx(0.1)
        assert not pol.decide(ctx(1, 1.0, prefix=0.0, remaining={1}))

    @pytest.mark.parametrize("below", [LAMBDA, math.nextafter(LAMBDA, 0.0)])
    def test_accepts_iff_the_future_stays_below_w_p_at_least_lambda(self, below):
        # Bare constructor: the later box's table holds P[it < 1] as given,
        # where from_pairs would renormalize it.
        later = DiscreteDistribution(((0.0, below), (3.0, 1.0 - below)))
        inst = Instance((DiscreteDistribution.point(1.0), later))
        pol = MaxProbPolicy(inst)
        assert pol.prob_future_below(frozenset({1}), 1.0) == below
        assert pol.decide(ctx(1, 1.0, prefix=0.0, remaining={1})) == (below == LAMBDA)

    def test_future_below_does_not_depend_on_how_the_set_was_built(self):
        # Boxes 0, 8 and 16 collide in a small frozenset's hash table, so
        # iteration follows insertion; the product is taken in box id order.
        below = {0: 0.619, 8: 0.486, 16: 0.641}
        inst = Instance.from_supports(
            [[(0.0, below.get(b, 0.5)), (10.0 + b, 1.0 - below.get(b, 0.5))] for b in range(17)]
        )
        ascending = below[0] * below[8] * below[16]
        for built in ((0, 8, 16), (16, 8, 0)):
            got = MaxProbPolicy(inst).prob_future_below(frozenset(built), 5.0)
            assert got.hex() == ascending.hex(), built

    def test_rejects_value_not_above_prefix(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(2.0, 1.0)]])
        pol = MaxProbPolicy(inst)
        assert not pol.decide(ctx(1, 1.0, prefix=1.0, remaining=()))

    def test_baseline_acts_as_floor(self):
        # The evaluators start the prefix max at the objective's baseline, so
        # a value at or below it is no new maximum and is refused.
        inst = Instance.from_supports([[(1.0, 1.0)]])
        pol = MaxProbPolicy(inst)
        assert not pol.decide(ctx(1, 1.0, prefix=2.0, remaining=()))
        assert pol.decide(ctx(1, 1.0, prefix=0.0, remaining=()))
        assert eval_exact(inst, Order((0,)), pol, Objective.winprob(2.0)).value == 0.0

    def test_order_does_not_change_decisions(self):
        rng = random.Random(42)
        for _ in range(50):
            inst = random_instance(rng, 5, 3)
            pol = MaxProbPolicy(inst)
            n = inst.n
            pos = rng.randint(1, n)
            remaining = frozenset(rng.sample(range(n), rng.randint(0, n - 1)))
            v = rng.choice(inst.box(rng.randrange(n)).values)
            prefix = rng.choice([0.0, v / 2.0])
            base = pol.decide(ctx(pos, v, prefix, remaining))
            for other_pos in range(1, n + 1):
                assert pol.decide(DecisionContext(other_pos, v, prefix, remaining)) == base


class TestOptExpectation:
    def test_single_box(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        assert opt_expectation_thresholds(inst, Order((0,))) == [0.0]

    def test_classic_two_box(self):
        inst = classic_two_box(0.001)
        taus = opt_expectation_thresholds(inst, Order((0, 1)))
        assert taus[1] == 0.0
        assert taus[0] == pytest.approx(1.0, abs=1e-12)

    def test_three_point_masses(self):
        inst = Instance.from_supports([[(3.0, 1.0)], [(2.0, 1.0)], [(1.0, 1.0)]])
        assert opt_expectation_thresholds(inst, Order((0, 1, 2))) == [2.0, 1.0, 0.0]

    def test_recursion_residual(self):
        rng = random.Random(43)
        for _ in range(100):
            inst = random_instance(rng, 6, 4)
            order = random_order(rng, inst.n)
            taus = opt_expectation_thresholds(inst, order)
            for t in range(inst.n):
                if t == inst.n - 1:
                    assert taus[t] == 0.0
                    continue
                box = inst.box(order.sequence[t + 1])
                expected = math.fsum(p * max(v, taus[t + 1]) for v, p in box.outcomes)
                assert abs(taus[t] - expected) <= 1e-12

    def test_policy_accepts_at_threshold(self):
        inst = Instance.from_supports([[(2.0, 1.0)], [(2.0, 0.5), (0.0, 0.5)]])
        pol = OptExpectationPolicy(inst, Order((0, 1)))
        assert pol.decide(ctx(1, pol.thresholds[0], remaining={1}))


class TestOptMaxProb:
    def test_single_box_accepting(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        pol = OptMaxProbPolicy(inst, Order((0,)), baseline=0.0)
        assert pol.win_probability == 1.0

    def test_single_box_dead_baseline(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        pol = OptMaxProbPolicy(inst, Order((0,)), baseline=2.0)
        assert pol.win_probability == 0.0

    def test_two_box_prefers_waiting(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.1), (3.0, 0.9)]])
        pol = OptMaxProbPolicy(inst, Order((0, 1)), baseline=0.0)
        assert pol.win_probability == pytest.approx(0.9, abs=1e-12)
        assert not pol.decide(ctx(1, 1.0, prefix=0.0, remaining={1}))

    def test_rejects_non_unique_max_instance(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(1.0, 0.5), (2.0, 0.5)]])
        with pytest.raises(ValidationError):
            OptMaxProbPolicy(inst, Order((0, 1)))

    def test_value_table_monotone_in_prefix(self):
        # The two thresholds stand in for the table only because every row of
        # the full table is non-increasing in the prefix max, bit for bit.
        rng = random.Random(44)
        for _ in range(50):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            pol = TableOptMaxProbPolicy(inst, order, baseline=0.0)
            for row in pol.value_table[1 : inst.n + 1]:
                thetas = sorted(row)
                for a, b in zip(thetas, thetas[1:]):
                    assert row[b] <= row[a]

    def test_keeps_two_thresholds_per_position(self):
        # Position 1: taking 1.0 wins w.p. 0.1, waiting w.p. 0.9, and waiting
        # wins nothing from a prefix max of 3.0 on. Position 2 takes anything.
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.1), (3.0, 0.9)]])
        pol = OptMaxProbPolicy(inst, Order((0, 1)), baseline=0.0)
        assert pol.take_from[1:] == [math.inf, 0.0]
        assert pol.dead_from[1:] == [3.0, 0.0]

    def test_tie_between_taking_and_waiting_goes_to_accept(self):
        # Taking 1.0 and waiting for 3.0 both win w.p. 0.5 exactly.
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.5), (3.0, 0.5)]])
        pol = OptMaxProbPolicy(inst, Order((0, 1)), baseline=0.0)
        assert pol.take_from[1] == 1.0
        assert pol.decide(ctx(1, 1.0, prefix=0.0, remaining={1}))
        assert_decides_as_the_table(inst, Order((0, 1)), 0.0)

    def test_a_table_ending_below_one_is_multiplied_above_its_points(self):
        # Bare constructor: the later box's table ends one ulp below 1.0, so
        # the win factor of 5.0 is that end, not 1.0; the carry may skip a box
        # above its largest point only when its table ends at exactly 1.0.
        end = math.nextafter(1.0, 0.0)
        later = DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5)))
        assert later.cdf[-1] == end
        inst = Instance((DiscreteDistribution.point(5.0), later))
        assert OptMaxProbPolicy(inst, Order((0, 1))).win_probability == end
        assert_decides_as_the_table(inst, Order((0, 1)), 0.0)

    def test_decide_matches_the_full_table_rule(self):
        rng = random.Random(46)
        for _ in range(300):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            grid = sorted({v for d in inst.distributions for v in d.values})
            foreign = (grid[0] + grid[-1]) / 2.0 + 1.0 / 1024.0
            for baseline in (0.0, rng.choice(grid), foreign):
                assert_decides_as_the_table(inst, order, baseline)

    def test_table_start_state_matches_exact_eval(self):
        rng = random.Random(45)
        for _ in range(30):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            pol = OptMaxProbPolicy(inst, order, baseline=0.0)
            value = eval_exact(inst, order, pol, Objective.winprob(0.0)).value
            assert value == pytest.approx(pol.win_probability, abs=1e-12)
            exp_pol = OptExpectationPolicy(inst, order)
            value = eval_exact(inst, order, exp_pol, Objective.expectation()).value
            assert value == pytest.approx(exp_pol.value, abs=1e-12)

    def test_prefix_values_off_the_grid_are_handled(self):
        # evaluating under a foreign baseline puts prefix maxima between grid
        # points; the decision rule snaps down, which is exact
        inst = Instance.from_supports(
            [[(0.0, 0.5), (1.0, 0.5)], [(0.5, 0.5), (3.0, 0.5)]]
        )
        order = Order((0, 1))
        pol = OptMaxProbPolicy(inst, order, baseline=0.0)
        for baseline in (0.25, 0.7, 2.0):
            obj = Objective.winprob(baseline)
            a = eval_exact(inst, order, pol, obj).value
            b = brute_force(inst, order, pol, obj).value
            assert abs(a - b) <= 1e-12


class TestSingleThreshold:
    def test_zero_threshold_accepts_first(self):
        pol = SingleThresholdPolicy(0.0)
        assert pol.decide(ctx(1, 0.0, remaining={1, 2}))

    def test_infinite_threshold_never_accepts(self):
        pol = SingleThresholdPolicy(math.inf)
        assert not pol.decide(ctx(1, 1e12, remaining=()))

    def test_half_expected_max_accepts_first_box_of_classic_pair(self):
        inst = classic_two_box(0.5)
        pol = make_policy("half-emax", inst)
        assert pol.threshold == 0.75
        assert pol.decide(ctx(1, 1.0, remaining={1}))

    def test_rejects_negative_threshold(self):
        with pytest.raises(ValueError):
            SingleThresholdPolicy(-1.0)


class TestMakePolicy:
    def test_specs_build_expected_kinds(self):
        inst = classic_two_box(0.25)
        order = Order((0, 1))
        assert make_policy("golden", inst).kind == "golden"
        assert make_policy("maxprob", inst).kind == "maxprob"
        assert make_policy("opt-exp", inst, order).kind == "opt-exp"
        assert make_policy("opt-maxprob", inst, order).kind == "opt-maxprob"
        # the win-probability baseline belongs to the objective alone
        with pytest.raises(TypeError):
            make_policy("maxprob", inst, baseline=0.5)
        for spec in ("maxprob:0.5", "opt-maxprob:0.25", "maxprob:"):
            with pytest.raises(ValidationError, match="--obj winprob:"):
                make_policy(spec, inst, order)
        assert make_policy("threshold:1.5", inst).threshold == 1.5
        assert make_policy("median", inst).kind == "median"
        assert make_policy("inv-e", inst).kind == "inv-e"

    def test_order_aware_specs_need_order(self):
        inst = classic_two_box(0.25)
        with pytest.raises(ValidationError):
            make_policy("opt-exp", inst)
        with pytest.raises(ValidationError):
            make_policy("opt-maxprob", inst)

    def test_unknown_spec_rejected(self):
        inst = classic_two_box(0.25)
        with pytest.raises(ValidationError):
            make_policy("mystery", inst)
        with pytest.raises(ValidationError):
            make_policy("threshold", inst)


class TestSingleWitnessEvents:
    """If exactly one box from some late suffix exceeds the standing maximum
    (and every other box stays below it), the max-probability rule must stop
    there: earlier boxes fail the new-maximum test and the lone witness clears
    the future-stays-below bar by construction."""

    def test_rule_accepts_the_lone_witness(self):
        rng = random.Random(46)
        checked = 0
        attempts = 0
        while checked < 60 and attempts < 4000:
            attempts += 1
            inst = random_instance(rng, 5, 4)
            if inst.n < 2:
                continue
            order = random_order(rng, inst.n)
            seq = order.sequence
            first = inst.box(seq[0])
            positives = [v for v in first.values if v > 0.0]
            if not positives:
                continue
            theta1 = rng.choice(positives)
            pol = MaxProbPolicy(inst, baseline=0.0)
            if pol.prob_future_below(frozenset(seq[1:]), theta1) >= LAMBDA:
                continue  # the rule would already stop at the first box
            t = next(
                pos
                for pos in range(2, inst.n + 1)
                if pol.prob_future_below(frozenset(seq[pos:]), theta1) >= LAMBDA
            )
            for s in range(t, inst.n + 1):
                witness_vals = [v for v in inst.box(seq[s - 1]).values if v > theta1]
                if not witness_vals:
                    continue
                values = [0.0] * inst.n
                values[seq[0]] = theta1
                ok = True
                for pos in range(2, inst.n + 1):
                    if pos == s:
                        continue
                    below = [v for v in inst.box(seq[pos - 1]).values if v < theta1]
                    if not below:
                        ok = False
                        break
                    values[seq[pos - 1]] = max(below)
                if not ok:
                    continue
                values[seq[s - 1]] = min(witness_vals)
                payoff = simulate_profile(order, pol, Objective.winprob(0.0), tuple(values))
                assert payoff == 1.0, (inst, order, s, values)
                checked += 1
        assert checked >= 30
