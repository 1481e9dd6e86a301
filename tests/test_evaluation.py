import collections
import itertools
import math
import random
import tracemalloc
from bisect import bisect_left
from fractions import Fraction

import pytest

from prophet_order import (
    LAMBDA,
    PHI,
    CapExceededError,
    DiscreteDistribution,
    GoldenPolicy,
    Instance,
    MaxProbPolicy,
    NewMaxRule,
    Objective,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    Order,
    SingleThresholdPolicy,
    ThresholdRule,
    ValidationError,
    brute_force,
    eval_exact,
    monte_carlo,
    order_ratio_sweep,
    example1,
    make_policy,
    maxprob_lb,
)
from prophet_order import evaluation, policies
from prophet_order.thresholds import carry_win_factors, win_factor
from tests.helpers import (
    FunctionPolicy,
    SteppedRule,
    continuation_audit,
    many_state_instance,
    oracle_corpus,
    per_context_enumeration,
    per_context_monte_carlo,
    random_instance,
    random_order,
    threshold_winprob_fraction,
)


class JumpRule(NewMaxRule):
    """Takes a value >= the prefix max + 3. It states a new maximum's answer
    as at prefix max 0, but overrides the ``decide`` its type derives to read
    the prefix max, so the exact pass, which reads the stated shape, misreads
    it."""

    kind = "jump"

    def takes_new_max(self, position, value, remaining_boxes):
        return value >= 3.0

    def decide(self, ctx):
        return ctx.current_value >= ctx.prefix_max + 3.0


def classic_two_box(eps):
    return Instance.from_supports(
        [[(1.0, 1.0)], [(0.0, 1.0 - eps), (1.0 / eps, eps)]]
    )


def all_policies(instance, order):
    yield GoldenPolicy(instance)
    yield MaxProbPolicy(instance, 0.0)
    yield make_policy("median", instance)
    yield make_policy("half-emax", instance)
    yield make_policy("inv-e", instance)
    yield OptExpectationPolicy(instance, order)
    yield OptMaxProbPolicy(instance, order, 0.0)


class TestObjective:
    def test_parse(self):
        assert Objective.parse("expectation") == Objective.expectation()
        assert Objective.parse("winprob") == Objective.winprob(0.0)
        assert Objective.parse("winprob:0.5") == Objective.winprob(0.5)
        for text in ("entropy", "expectation:5", "expectation:", "winprob:", "winprob:x"):
            with pytest.raises(ValidationError, match="winprob:THETA"):
                Objective.parse(text)

    @pytest.mark.parametrize("baseline", [math.nan, math.inf, -1.0])
    def test_baseline_checked_at_construction(self, baseline):
        with pytest.raises(ValidationError, match="baseline"):
            Objective.winprob(baseline)
        with pytest.raises(ValidationError, match="baseline"):
            Objective.parse(f"winprob:{baseline}")

    def test_kind_and_expectation_baseline_checked_at_construction(self):
        # A misspelt kind used to be evaluated as expectation, and a baseline
        # under expectation was kept although nothing reads it.
        with pytest.raises(ValidationError, match="'winprb' is not expectation or winprob"):
            Objective("winprb")
        with pytest.raises(ValidationError, match="expectation objective takes no baseline"):
            Objective("expectation", 5.0)
        assert Objective("winprob") == Objective.winprob() == Objective.parse("winprob")
        assert Objective("expectation") == Objective.expectation() == Objective.parse("expectation")

    def test_winprob_requires_unique_max(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(1.0, 0.5), (2.0, 0.5)]])
        pol = GoldenPolicy(inst)
        with pytest.raises(ValidationError):
            eval_exact(inst, Order((0, 1)), pol, Objective.winprob(0.0))
        with pytest.raises(ValidationError):
            brute_force(inst, Order((0, 1)), pol, Objective.winprob(0.0))


class TestEvalExactExamples:
    def test_single_box_golden(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        res = eval_exact(inst, Order((0,)), GoldenPolicy(inst), Objective.expectation())
        assert res.value == 1.0
        assert res.method == "exact-dp"

    @pytest.mark.parametrize("eps", [0.5, 0.3, 0.01, 0.001])
    def test_classic_two_box_opt_exp_is_one(self, eps):
        inst = classic_two_box(eps)
        order = Order((0, 1))
        res = eval_exact(
            inst, order, OptExpectationPolicy(inst, order), Objective.expectation()
        )
        assert res.value == pytest.approx(1.0, abs=1e-12)

    def test_maxprob_winprob_half(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.5), (3.0, 0.5)]])
        res = eval_exact(
            inst, Order((0, 1)), MaxProbPolicy(inst, 0.0), Objective.winprob(0.0)
        )
        assert res.value == 0.5

    def test_stateless_rule_stays_outside_the_state_cap(self, monkeypatch):
        # Under expectation a rule that ignores the prefix max keeps one state
        # per position, so it holds no state that counts against the cap.
        # The rule accepts the first box of the identity order outright; the
        # reversed order keeps it running to the last box.
        rng = random.Random(61)
        inst = random_instance(rng, 4, 3)
        exp = Objective.expectation()
        for order in (Order.identity(inst.n), Order((3, 2, 1, 0))):
            uncapped = eval_exact(inst, order, GoldenPolicy(inst), exp).value
            with monkeypatch.context() as capped_run:
                for state_cap in (1, 0):
                    capped_run.setattr(evaluation, "STATE_CAP", state_cap)
                    capped = eval_exact(inst, order, GoldenPolicy(inst), exp)
                    assert capped.value == uncapped
            assert abs(uncapped - brute_force(inst, order, GoldenPolicy(inst), exp).value) <= 1e-12

    def test_state_cap_counts_the_states_held(self, monkeypatch):
        # Box i is 2i or 2i + 1 and the rule never accepts, so after each of
        # the n positions the pass holds two prefix maxima: one that counts.
        n = 4
        inst = Instance.from_supports(
            [[(2.0 * i, 0.5), (2.0 * i + 1.0, 0.5)] for i in range(1, n + 1)]
        )
        order = Order.identity(n)
        never = FunctionPolicy(lambda ctx: False)
        exp = Objective.expectation()
        monkeypatch.setattr(evaluation, "STATE_CAP", n)
        assert eval_exact(inst, order, never, exp).value == 0.0
        monkeypatch.setattr(evaluation, "STATE_CAP", n - 1)
        with pytest.raises(CapExceededError, match="monte_carlo"):
            eval_exact(inst, order, never, exp)

    def test_maxprob_lb_1000_lands_on_lambda_on_both_orders(self):
        # support x n = 2001 x 1001 is above the default cap, but the rule
        # accepts the deterministic first box, so the pass holds one state.
        fam = maxprob_lb(1000)
        inst = fam.instance
        for name, order in fam.canonical_orders:
            res = eval_exact(inst, order, MaxProbPolicy(inst, 0.0), Objective.winprob(0.0))
            assert abs(res.value - LAMBDA) <= 1e-12, name

    def test_maxprob_lb_decreasing_computes_one_win_factor(self, monkeypatch):
        # The rule accepts the deterministic first box; only that pair is paid.
        fam = maxprob_lb(400)
        calls = []

        def recording(boxes, value):
            boxes = list(boxes)
            calls.append((len(boxes), value))
            return win_factor(boxes, value)

        monkeypatch.setattr(evaluation, "win_factor", recording)
        inst = fam.instance
        res = eval_exact(inst, fam.order("decreasing"), MaxProbPolicy(inst, 0.0), Objective.winprob(0.0))
        assert calls == [(400, 0.5)]
        assert abs(res.value - LAMBDA) <= 1e-12

    @pytest.fixture
    def set_sizes(self, monkeypatch):
        """The size of every set ``evaluation`` builds with ``frozenset``, in turn."""
        sizes = []

        def counting(ids):
            built = frozenset(ids)
            sizes.append(len(built))
            return built

        monkeypatch.setattr(evaluation, "frozenset", counting, raising=False)
        return sizes

    @pytest.mark.parametrize("name", ["decreasing", "increasing"])
    def test_maxprob_lb_builds_only_the_remaining_set_it_reaches(self, set_sizes, name):
        # The rule accepts the deterministic first box, so the pass stops at
        # position 1 and needs the set of the 400 boxes after it, no other.
        fam = maxprob_lb(400)
        inst = fam.instance
        res = eval_exact(inst, fam.order(name), MaxProbPolicy(inst), Objective.winprob())
        assert set_sizes == [400]
        assert abs(res.value - LAMBDA) <= 1e-12

    def test_monte_carlo_builds_only_the_remaining_set_it_reaches(self, set_sizes):
        # Every sample stops at the deterministic first box, so the walk asks
        # the rule at position 1 alone and needs no other remaining set.
        fam = maxprob_lb(400)
        inst = fam.instance
        res = monte_carlo(inst, fam.order("decreasing"), MaxProbPolicy(inst), Objective.winprob(), 20, 0)
        assert set_sizes == [400]
        assert res.samples == 20

    def test_threshold_winprob_pays_only_the_positions_it_reaches(self, monkeypatch):
        # A sure accept at position 1 ends the sum: no later value is paid.
        rare = [DiscreteDistribution(((0.0, 0.5), (float(i), 0.5))) for i in range(1, 50)]
        inst = Instance((DiscreteDistribution.point(100.0), *rare))
        grids = []

        def recording(acc, grid, box):
            grids.append(list(grid))
            carry_win_factors(acc, grid, box)

        monkeypatch.setattr(evaluation, "carry_win_factors", recording)
        res = eval_exact(inst, Order.identity(50), SingleThresholdPolicy(0.5), Objective.winprob(0.0))
        assert grids and all(grid == [100.0] for grid in grids)
        assert res.value == 1.0

    def test_state_cap_guard(self, monkeypatch):
        rng = random.Random(61)
        inst = random_instance(rng, 4, 3)
        order = Order.identity(inst.n)
        monkeypatch.setattr(evaluation, "STATE_CAP", 1)
        with pytest.raises(CapExceededError, match="monte_carlo"):
            eval_exact(inst, order, MaxProbPolicy(inst, 0.0), Objective.expectation())


class TestOracleEquivalence:
    def test_profile_count_is_support_product(self):
        inst = Instance.from_supports(
            [
                [(0.0, 0.5), (1.0, 0.5)],
                [(0.25, 0.25), (2.0, 0.5), (3.0, 0.25)],
                [(0.125, 0.5), (4.0, 0.5)],
            ]
        )
        assert math.prod(len(d.outcomes) for d in inst.distributions) == 12
        order = Order((0, 1, 2))
        pol = GoldenPolicy(inst)
        a = eval_exact(inst, order, pol, Objective.expectation()).value
        b = brute_force(inst, order, pol, Objective.expectation()).value
        assert abs(a - b) <= 1e-12

    def test_routes_agree_on_atoms_summing_off_one_once_from_pairs_renormalizes(self):
        # The bare constructor refuses these atoms (they sum to 1 + 6e-10).
        d = DiscreteDistribution.from_pairs([(0.0, 0.6), (1.0, 0.4 + 5e-10), (1e6, 1e-10)])
        inst = Instance((DiscreteDistribution.point(0.5), d))
        order = Order((0, 1))
        for pol in (GoldenPolicy(inst), OptExpectationPolicy(inst, order)):
            a = eval_exact(inst, order, pol, Objective.expectation()).value
            b = brute_force(inst, order, pol, Objective.expectation()).value
            assert abs(a - b) <= 1e-12, pol.kind

    def test_all_policies_both_objectives_small_corpus(self):
        objectives = (Objective.expectation(), Objective.winprob(0.0))
        for inst in oracle_corpus()[:25]:
            for perm in itertools.permutations(range(inst.n)):
                order = Order(perm)
                for pol in all_policies(inst, order):
                    for obj in objectives:
                        a = eval_exact(inst, order, pol, obj).value
                        b = brute_force(inst, order, pol, obj).value
                        assert abs(a - b) <= 1e-12, (pol.kind, obj.kind, perm)

    def test_prefix_dependent_custom_policy_matches_oracle(self):
        # forces the general state DP under both objectives. chase_prefix
        # takes any positive value at prefix max 0, so its pass holds one
        # state; near_max holds several and reads a value that is no new
        # maximum against the prefix max, which the once-per-outcome split of
        # the max-prob rules would misread
        def chase_prefix(ctx):
            return ctx.current_value >= 2.0 * ctx.prefix_max and ctx.current_value > 0
        def near_max(ctx):
            return ctx.current_value >= 0.5 * ctx.prefix_max > 0
        rng = random.Random(62)
        for _ in range(30):
            inst = random_instance(rng, 4, 3)
            order = random_order(rng, inst.n)
            for pol in (FunctionPolicy(chase_prefix, kind="chase"), FunctionPolicy(near_max, kind="near-max")):
                for obj in (Objective.expectation(), Objective.winprob(0.0)):
                    a = eval_exact(inst, order, pol, obj).value
                    b = brute_force(inst, order, pol, obj).value
                    assert abs(a - b) <= 1e-12, (pol.kind, obj)

    def test_threshold_winprob_fast_path_matches_oracle(self):
        rng = random.Random(63)
        for _ in range(40):
            inst = random_instance(rng, 4, 3)
            order = random_order(rng, inst.n)
            values = sorted({v for d in inst.distributions for v in d.values})
            threshold = rng.choice(values + [0.0, values[-1] + 1.0])
            pol = SingleThresholdPolicy(threshold)
            for baseline in (0.0, values[len(values) // 2]):
                obj = Objective.winprob(baseline)
                a = eval_exact(inst, order, pol, obj).value
                b = brute_force(inst, order, pol, obj).value
                assert abs(a - b) <= 1e-12

    def test_brute_force_relies_on_no_promise_of_the_rule(self):
        # The rule's decide reads the prefix max on a new maximum, against
        # the shape its type states, so the exact pass misreads it; the
        # oracle reads only decide and must be the per-context enumeration
        # bit for bit.
        rng = random.Random(64)
        misread = 0
        for _ in range(30):
            inst = random_instance(rng, 5, 4)
            order = random_order(rng, inst.n)
            pol = JumpRule()
            for obj in (Objective.expectation(), Objective.winprob(0.0)):
                b = brute_force(inst, order, pol, obj).value
                assert b.hex() == per_context_enumeration(inst, order, pol, obj).hex(), obj
                misread += abs(eval_exact(inst, order, pol, obj).value - b) > 1e-12
        assert misread

    @pytest.mark.parametrize("rule,objective", [
        ("golden", Objective.expectation()),
        ("maxprob", Objective.winprob(0.0)),
        ("jump", Objective.expectation()),
        ("jump", Objective.winprob(0.0)),
    ], ids=["golden-exp", "maxprob-win", "jump-exp", "jump-win"])
    def test_brute_force_asks_each_context_at_most_once(self, rule, objective):
        # 7 boxes of 4 values: 16,384 profiles, each walked through about
        # every position by the max-prob rule in this increasing order. The
        # jump rule's decide breaks the shape its type states, so only the
        # whole context (position, value, prefix max, remaining set) keys its
        # answers.
        inst = many_state_instance(7, 7)
        order = Order.identity(7)
        rules = {
            "golden": lambda: GoldenPolicy(inst),
            "maxprob": lambda: MaxProbPolicy(inst),
            "jump": JumpRule,
        }
        want = per_context_enumeration(inst, order, rules[rule](), objective)
        pol = rules[rule]()
        decide = pol.decide
        asked = collections.Counter()

        def counting(ctx):
            asked[ctx] += 1
            return decide(ctx)

        pol.decide = counting
        got = brute_force(inst, order, pol, objective).value
        assert got.hex() == want.hex()
        assert asked and max(asked.values()) == 1

    def test_brute_force_cap(self, monkeypatch):
        inst = Instance.from_supports([[(0.0, 0.5), (1.0, 0.5)]] * 3)
        monkeypatch.setattr(evaluation, "PROFILE_CAP", 7)
        with pytest.raises(CapExceededError):
            brute_force(inst, Order((0, 1, 2)), GoldenPolicy(inst), Objective.expectation())


class TestThresholdPass:
    """The win-probability pass of a ``ThresholdRule`` against exact values."""

    @pytest.mark.parametrize("seed", [1, 2])
    @pytest.mark.parametrize("rule", ["golden", "opt-exp"])
    def test_is_within_1e_14_of_the_rational_value_on_many_states(self, rule, seed):
        # The state pass, which asks decide per (prefix max, outcome), is
        # reported beside it and held to the routes' 1e-12 only.
        inst = many_state_instance(seed, 25)
        order = Order.identity(inst.n)
        pol = make_policy(rule, inst, order)
        objective = Objective.winprob(0.0)
        values = {
            "pass": eval_exact(inst, order, pol, objective).value,
            "state pass": eval_exact(inst, order, FunctionPolicy(pol.decide), objective).value,
        }
        rational = threshold_winprob_fraction(inst, order, pol.thresholds_along(order), 0.0)
        errors = {route: float(abs(Fraction(x) - rational) / rational) for route, x in values.items()}
        print(f"{rule} seed {seed}: relative error {errors}")
        assert errors["pass"] <= 1e-14, errors
        assert errors["state pass"] <= 1e-12, errors


class TestSplitPass:
    """The exact pass on a :class:`NewMaxRule`: one ``takes_new_max`` per
    outcome above the start state and one ``old_max_cut`` per position, bit
    for bit the pass that asks ``decide`` once per pair."""

    RULES = {
        "maxprob": lambda inst, order: MaxProbPolicy(inst),
        "opt-maxprob": lambda inst, order: OptMaxProbPolicy(inst, order),
        "stepped": lambda inst, order: SteppedRule(inst),
    }

    @pytest.mark.parametrize("rule", ["maxprob", "opt-maxprob"])
    @pytest.mark.parametrize("objective", [Objective.expectation(), Objective.winprob(0.0)], ids=["exp", "win"])
    def test_asks_once_per_fresh_outcome_and_reads_one_cut_per_position(self, rule, objective):
        inst = many_state_instance(1)
        order = Order.identity(inst.n)
        pol = self.RULES[rule](inst, order)
        decide, takes_new_max, old_max_cut = pol.decide, pol.takes_new_max, pol.old_max_cut
        # The per-pair pass asks about every state, so it lists them.
        states = collections.defaultdict(set)

        def recording(ctx):
            states[ctx.position].add(ctx.prefix_max)
            return decide(ctx)

        eval_exact(inst, order, FunctionPolicy(recording), objective)
        asked = collections.Counter()
        cuts = collections.Counter()

        def counting_takes(position, value, remaining_boxes):
            asked[position, value] += 1
            return takes_new_max(position, value, remaining_boxes)

        def counting_cut(position, remaining_boxes):
            cuts[position] += 1
            return old_max_cut(position, remaining_boxes)

        def refusing(ctx):
            raise AssertionError(f"the exact pass asked decide: {ctx[:3]}")

        pol.takes_new_max, pol.old_max_cut, pol.decide = counting_takes, counting_cut, refusing
        eval_exact(inst, order, pol, objective)
        assert max(map(len, states.values())) >= 150
        assert set(cuts) == set(states) and set(cuts.values()) == {1}
        assert set(asked.values()) == {1}
        for pos, v in asked:
            assert pos in states and v > objective.baseline, (pos, v)
            assert v in inst.box(order.sequence[pos - 1]).values, (pos, v)

    @pytest.mark.parametrize("rule", RULES)
    def test_many_states_give_the_per_pair_pass_bit_for_bit(self, rule):
        # The edge laws of the property tests hold a few states per position;
        # here they run to about 175, on both sides of each position's cut.
        inst = many_state_instance(2)
        positive = sorted(v for d in inst.distributions for v in d.values if v > 0.0)
        objectives = (Objective.expectation(), Objective.winprob(0.0), Objective.winprob(positive[len(positive) // 4]))
        for order in (Order.identity(inst.n), random_order(random.Random(2), inst.n)):
            pol = self.RULES[rule](inst, order)
            per_pair = FunctionPolicy(pol.decide)
            for obj in objectives:
                split = eval_exact(inst, order, pol, obj).value
                paired = eval_exact(inst, order, per_pair, obj).value
                assert split.hex() == paired.hex(), (order.sequence[:3], obj)

    def test_a_plain_rule_taking_old_maxima_in_a_band_agrees_on_every_route(self):
        # The rule decides a new maximum without the prefix max, but takes
        # any other value only while the prefix max lies in a band: above the
        # band its answer falls back to no, so no cut states it. As a plain
        # Policy it takes the per-pair pass, which agrees with enumeration;
        # enumeration and sampling are their per-context loops bit for bit.
        rng = random.Random(68)
        for k in range(30):
            inst = random_instance(rng, 5, 4)
            order = random_order(rng, inst.n)
            grid = sorted({v for d in inst.distributions for v in d.values})
            low, high, take = grid[len(grid) // 4], grid[len(grid) // 2], grid[3 * len(grid) // 4]

            def band(ctx, low=low, high=high, take=take):
                if ctx.current_value > ctx.prefix_max:
                    return ctx.current_value >= take
                return low <= ctx.prefix_max < high

            pol = FunctionPolicy(band, kind="band")
            for obj in (Objective.expectation(), Objective.winprob(0.0)):
                b = brute_force(inst, order, pol, obj).value
                assert b.hex() == per_context_enumeration(inst, order, pol, obj).hex(), obj
                got = monte_carlo(inst, order, pol, obj, 200, seed=k)
                ref = per_context_monte_carlo(inst, order, pol, obj, 200, seed=k)
                assert (got.value.hex(), got.stderr.hex()) == (ref[0].hex(), ref[1].hex()), obj
                assert abs(eval_exact(inst, order, pol, obj).value - b) <= 1e-12, obj


class TestRouteOrder:
    # The bare constructor keeps these probabilities' bits as written.
    BOXES = (
        ((0.0, 0.46081282814010116), (1.2734375, 0.1739862670647956), (5.5078125, 0.3652009047951033)),
        ((9.90625, 1.0),),
        ((1.8203125, 0.30644402863328524), (8.890625, 0.06922201274925353), (8.9609375, 0.6243339586174613)),
        ((0.0, 0.45289363218050444), (7.0859375, 0.3533828711206384), (7.9765625, 0.19372349669885722)),
    )

    def test_every_route_reads_the_golden_thresholds_of_the_order(self):
        # Built in ascending box id, tau({0, 2, 3}) lands one ulp away from
        # the one built from the back of this order; each route must see the
        # latter, whichever route runs first on a fresh rule.
        inst = Instance(tuple(DiscreteDistribution(outcomes) for outcomes in self.BOXES))
        order = Order((1, 2, 3, 0))
        sets = [frozenset(order.sequence[t:]) for t in range(1, inst.n + 1)]
        exp = Objective.expectation()
        exact_first = GoldenPolicy(inst)
        eval_exact(inst, order, exact_first, exp)
        expected = [exact_first.triple(s).tau.hex() for s in sets]
        routes = {
            "brute_force": lambda policy: brute_force(inst, order, policy, exp),
            "monte_carlo": lambda policy: monte_carlo(inst, order, policy, exp, 100, 0),
        }
        for name, route in routes.items():
            policy = GoldenPolicy(inst)
            route(policy)
            assert [policy.triple(s).tau.hex() for s in sets] == expected, name


class TestMonteCarlo:
    def test_deterministic_payoff_has_zero_stderr(self):
        inst = Instance.from_supports([[(2.0, 1.0)]])
        res = monte_carlo(
            inst, Order((0,)), GoldenPolicy(inst), Objective.expectation(), 50, seed=1
        )
        assert res.value == 2.0
        assert res.stderr == 0.0
        assert res.samples == 50

    def test_same_seed_same_estimate(self):
        inst = classic_two_box(0.3)
        order = Order((0, 1))
        pol = OptExpectationPolicy(inst, order)
        a = monte_carlo(inst, order, pol, Objective.expectation(), 5000, seed=9)
        b = monte_carlo(inst, order, pol, Objective.expectation(), 5000, seed=9)
        assert a == b

    def test_estimate_within_three_stderr_of_exact(self):
        # threshold 2 skips the deterministic box, so the payoff is genuinely
        # random: 1/0.3 with probability 0.3, else nothing
        inst = classic_two_box(0.3)
        order = Order((0, 1))
        pol = SingleThresholdPolicy(2.0)
        exact = eval_exact(inst, order, pol, Objective.expectation()).value
        assert exact == pytest.approx(1.0, abs=1e-12)
        res = monte_carlo(inst, order, pol, Objective.expectation(), 100_000, seed=12345)
        assert res.stderr > 0.0
        assert abs(res.value - exact) <= 3.0 * res.stderr

    @pytest.mark.parametrize("top", [1e160, 1e200, 1e300, 1.7e308])
    def test_values_near_the_float_limit_keep_finite_sums(self, top):
        # Squares of payoffs this large overflow unless the sums are scaled.
        # Scaling by a power of two is exact: the estimate is that of the
        # same instance 2^1000 times smaller, scaled back, bit for bit.
        def estimate(big):
            inst = Instance.from_supports([[(0.0, 0.5), (big, 0.5)], [(big / 3, 1.0)]])
            order = Order((0, 1))
            pol = GoldenPolicy(inst)
            exact = eval_exact(inst, order, pol, Objective.expectation()).value
            return exact, monte_carlo(inst, order, pol, Objective.expectation(), 2000, seed=1)

        exact, res = estimate(top)
        assert math.isfinite(res.value) and 0.0 < res.stderr < math.inf
        assert abs(res.value - exact) <= 5.0 * res.stderr
        _, small = estimate(math.ldexp(top, -1000))
        assert res.value == math.ldexp(small.value, 1000)
        assert res.stderr == math.ldexp(small.stderr, 1000)

    RULES = {
        "golden": lambda inst, order: GoldenPolicy(inst),
        "maxprob": lambda inst, order: MaxProbPolicy(inst),
        "opt-maxprob": lambda inst, order: OptMaxProbPolicy(inst, order),
        "opt-exp": lambda inst, order: OptExpectationPolicy(inst, order),
        "threshold": lambda inst, order: SingleThresholdPolicy(inst.box(order.sequence[-1]).values[-1]),
        "near-max": lambda inst, order: FunctionPolicy(
            lambda ctx: ctx.current_value >= 0.5 * ctx.prefix_max > 0, kind="near-max"),
    }

    @pytest.mark.parametrize("rule", RULES)
    def test_matches_the_per_context_loop_bit_for_bit(self, rule):
        rng = random.Random(65)
        for k in range(12):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            positive = sorted(v for d in inst.distributions for v in d.values if v > 0.0)
            baseline = positive[len(positive) // 2] if positive else 1.0
            for obj in (Objective.expectation(), Objective.winprob(0.0), Objective.winprob(baseline)):
                pol = self.RULES[rule](inst, order)
                got = monte_carlo(inst, order, pol, obj, 400, seed=k)
                ref = per_context_monte_carlo(inst, order, self.RULES[rule](inst, order), obj, 400, seed=k)
                assert (got.value.hex(), got.stderr.hex()) == (ref[0].hex(), ref[1].hex()), (k, obj)

    def test_a_new_maximum_and_an_equal_prefix_max_are_asked_apart(self):
        # 3.0 is a value of box 0 and of box 1: at position 2 it is the
        # prefix max in some samples and a new maximum in others. Expectation
        # only, as win probability rejects a value two boxes share.
        inst = Instance.from_supports([
            [(0.0, 0.5), (3.0, 0.5)], [(1.0, 0.5), (3.0, 0.5)], [(0.0, 0.85), (5.0, 0.15)],
        ])
        order = Order((0, 1, 2))
        obj = Objective.expectation()
        got = monte_carlo(inst, order, MaxProbPolicy(inst), obj, 400, seed=1)
        ref = per_context_monte_carlo(inst, order, MaxProbPolicy(inst), obj, 400, seed=1)
        assert (got.value.hex(), got.stderr.hex()) == (ref[0].hex(), ref[1].hex())

    @staticmethod
    def _counted_keys(pol):
        """Wrap ``pol.decide`` and return the list its calls append their decision keys to."""
        keys = []
        decide = pol.decide

        def counting(ctx):
            t, v, prefix, _ = ctx
            if isinstance(pol, ThresholdRule):
                keys.append((t, v))
            elif isinstance(pol, NewMaxRule):
                keys.append(("new", t, v) if v > prefix else ("old", t, prefix))
            else:
                keys.append((t, v, prefix))
            return decide(ctx)

        pol.decide = counting
        return keys

    @pytest.mark.parametrize("rule", RULES)
    def test_asks_each_distinct_decision_once_per_call(self, rule):
        rng = random.Random(66)
        for k in range(8):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            for obj in (Objective.expectation(), Objective.winprob(0.0)):
                pol = self.RULES[rule](inst, order)
                keys = self._counted_keys(pol)
                monte_carlo(inst, order, pol, obj, 300, seed=k)
                assert len(keys) == len(set(keys)), (k, obj)

    @pytest.mark.parametrize("rule,objective", [
        ("golden", Objective.expectation()), ("maxprob", Objective.winprob(0.0)),
    ])
    def test_a_long_walk_asks_far_fewer_times_than_it_steps(self, rule, objective):
        # 50 boxes of a zero atom and three positive values, in increasing
        # order of their largest, as the benchmark's scale workload builds
        # them: a max-prob walk runs through about every box.
        inst = many_state_instance(67, 50)
        order = Order.identity(50)
        pol = self.RULES[rule](inst, order)
        keys = self._counted_keys(pol)
        samples = 1000
        monte_carlo(inst, order, pol, objective, samples, seed=3)
        assert len(keys) == len(set(keys))
        assert len(keys) <= samples * inst.n // 20

    def test_rejects_nonpositive_samples(self):
        inst = classic_two_box(0.5)
        with pytest.raises(ValidationError):
            monte_carlo(
                inst, Order((0, 1)), GoldenPolicy(inst), Objective.expectation(), 0, seed=0
            )


class TestOrderRatioSweep:
    def test_single_box(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        rep = order_ratio_sweep(inst, GoldenPolicy(inst), Objective.expectation())
        assert rep.min_ratio == 1.0
        assert rep.argmin_order == Order((0,))

    def test_two_point_masses(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(2.0, 1.0)]])
        rep = order_ratio_sweep(inst, GoldenPolicy(inst), Objective.expectation())
        assert rep.min_ratio == pytest.approx(1.0, abs=1e-12)
        for row in rep.per_order:
            assert row.alg == pytest.approx(row.opt, abs=1e-12)

    def test_example1_canonical_orders(self):
        fam = example1(0.001)
        orders = [order for _, order in fam.canonical_orders]
        rep = order_ratio_sweep(
            fam.instance, GoldenPolicy(fam.instance), Objective.expectation(), orders=orders
        )
        assert rep.min_ratio == pytest.approx(math.sqrt(2.0) / 1.999, abs=1e-9)
        assert 0.70 <= rep.min_ratio <= 0.715
        assert rep.argmin_order == fam.order("order_a")

    def test_degenerate_orders_count_as_ratio_one(self):
        inst = Instance.from_supports([[(0.0, 1.0)], [(0.0, 1.0)]])
        rep = order_ratio_sweep(inst, GoldenPolicy(inst), Objective.expectation())
        assert rep.min_ratio == 1.0
        for row in rep.per_order:
            assert row.degenerate
            assert row.alg == 0.0
            assert row.opt == 0.0

    def test_permutation_cap(self):
        inst = Instance.from_supports([[(float(i + 1), 1.0)] for i in range(4)])
        with pytest.raises(CapExceededError, match="explicit order list"):
            order_ratio_sweep(
                inst, GoldenPolicy(inst), Objective.expectation(), perm_cap=3
            )

    def test_evaluates_only_the_policy(self, monkeypatch):
        # the optimum comes from the benchmark's own DP, not from eval_exact
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.5), (2.0, 0.5)], [(0.5, 0.5), (3.0, 0.5)]])
        evaluated = []
        original = evaluation.eval_exact

        def counting(instance, order, policy, objective, **kwargs):
            evaluated.append(policy)
            return original(instance, order, policy, objective, **kwargs)

        monkeypatch.setattr(evaluation, "eval_exact", counting)
        for policy, objective in ((GoldenPolicy(inst), Objective.expectation()),
                                  (MaxProbPolicy(inst), Objective.winprob())):
            evaluated.clear()
            rep = order_ratio_sweep(inst, policy, objective)
            assert len(rep.per_order) == 6
            assert evaluated == [policy] * 6
            assert all(row.opt > 0 for row in rep.per_order)


def instance_of(n: int, seed: int) -> Instance:
    """A unique-max instance of exactly n boxes with up to 3 points each."""
    rng = random.Random(seed)
    while True:
        inst = random_instance(rng, n, 3)
        if inst.n == n:
            return inst


def per_order_optimum(instance: Instance, order: Order, objective: Objective) -> float:
    """The optimum as a build of the benchmark for ``order`` alone gives it."""
    if objective.is_winprob:
        return evaluation._clamp_prob(OptMaxProbPolicy(instance, order, objective.baseline).win_probability)
    return OptExpectationPolicy(instance, order).value


def objectives_of(instance: Instance) -> list[Objective]:
    """Expectation, and win probability at 0, at a support value, between two and above every one."""
    values = sorted({v for d in instance.distributions for v in d.values if v > 0.0})
    mid = values[len(values) // 2]
    return [Objective.expectation()] + [
        Objective.winprob(b) for b in (0.0, mid, mid + 1 / 1024, values[-1] + 1.0)
    ]


class TestSweepSharesSuffixes:
    """The optimum of every order comes from one walk over shared suffixes."""

    ACCEPT_ALL = FunctionPolicy(lambda ctx: True)

    def assert_rows_are_the_builds(self, inst, orders, objective):
        rep = order_ratio_sweep(inst, self.ACCEPT_ALL, objective, orders=orders)
        expected = orders or [Order(p) for p in itertools.permutations(range(inst.n))]
        assert [row.order for row in rep.per_order] == list(expected)
        for row in rep.per_order:
            assert row.opt.hex() == per_order_optimum(inst, row.order, objective).hex(), (objective, row.order)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_full_sweep_opt_is_the_build_per_order_bit_for_bit(self, n):
        inst = instance_of(n, 700 + n)
        for objective in objectives_of(inst):
            self.assert_rows_are_the_builds(inst, None, objective)

    @pytest.mark.parametrize("seed", range(4))
    def test_explicit_lists_come_back_in_the_given_order(self, seed):
        rng = random.Random(seed)
        inst = instance_of(5, 800 + seed)
        perms = [Order(p) for p in itertools.permutations(range(5))]
        shuffled = rng.sample(perms, 40)
        repeated = [rng.choice(perms[:6]) for _ in range(12)] + shuffled[:5] + [perms[0]] * 3
        # each order ends in a box no other order ends in
        disjoint = [random_order(rng, 5) for _ in range(40)]
        disjoint = list({order.sequence[-1]: order for order in disjoint}.values())
        assert len({order.sequence[-1] for order in disjoint}) == len(disjoint) > 1
        for orders in (shuffled, repeated, disjoint):
            for objective in objectives_of(inst):
                self.assert_rows_are_the_builds(inst, orders, objective)

    @pytest.mark.parametrize("n", [2, 3, 50, 200])
    def test_maxprob_lb_canonical_orders_opt_is_the_build_bit_for_bit(self, n):
        fam = maxprob_lb(n)
        orders = [order for _, order in fam.canonical_orders]
        for objective in objectives_of(fam.instance):
            self.assert_rows_are_the_builds(fam.instance, orders, objective)

    def test_the_sweep_sums_only_the_prefix_maxima_an_order_can_reach(self, monkeypatch):
        # Before the box at position t the prefix max is the baseline or a
        # value of an earlier box: on maxprob_lb(200) at most t points of the
        # grid of 202, where a build per order sums every entry below top.
        summed = []
        step = policies._maxprob_row

        def counting(grid, index, box, nxt, dead, below, reach):
            summed.append(bisect_left(reach, max(index[box.values[-1]], dead)))
            return step(grid, index, box, nxt, dead, below, reach)

        for module in (evaluation, policies):
            monkeypatch.setattr(module, "_maxprob_row", counting)
        fam = maxprob_lb(200)
        orders = [order for _, order in fam.canonical_orders]
        order_ratio_sweep(fam.instance, self.ACCEPT_ALL, Objective.winprob(), orders=orders)
        assert len(summed) == 2 * 201 and sum(summed) <= 21_000, sum(summed)
        summed.clear()
        for order in orders:
            OptMaxProbPolicy(fam.instance, order)
        assert sum(summed) == 60_902

    def test_a_full_sweep_at_five_runs_one_row_step_per_distinct_suffix(self, monkeypatch):
        # 5 + 20 + 60 + 120 + 120 = 325 suffixes; a build per order runs 5 * 120 = 600 steps
        calls = []

        def counting(step):
            def wrapper(*args):
                calls.append(step)
                return step(*args)
            return wrapper

        for module in (evaluation, policies):
            monkeypatch.setattr(module, "_maxprob_row", counting(policies._maxprob_row))
        monkeypatch.setattr(evaluation, "_step_back", counting(policies._step_back))
        inst = instance_of(5, 705)
        for objective in (Objective.winprob(0.0), Objective.expectation()):
            calls.clear()
            order_ratio_sweep(inst, self.ACCEPT_ALL, objective)
            assert len(calls) == 325, objective
        calls.clear()
        for perm in itertools.permutations(range(5)):
            OptMaxProbPolicy(inst, Order(perm))
        assert len(calls) == 600

    def test_orders_sharing_no_suffix_hold_one_row_at_a_time(self):
        # maxprob_lb(400)'s two orders share no suffix: the walk keeps no
        # state past its order, so it peaks about as one build does, not at
        # 400 rows. The rule is warmed first, so its own cache does not count.
        fam = maxprob_lb(400)
        inst = fam.instance
        orders = [order for _, order in fam.canonical_orders]
        policy = MaxProbPolicy(inst)
        order_ratio_sweep(inst, policy, Objective.winprob(), orders=orders)

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        build = peak(lambda: OptMaxProbPolicy(inst, orders[0]))
        sweep = peak(lambda: order_ratio_sweep(inst, policy, Objective.winprob(), orders=orders))
        assert sweep <= 1.5 * build, (sweep, build)

    @pytest.mark.parametrize("bad", [(0, 1), (0, 1, 1)])
    @pytest.mark.parametrize("objective", [Objective.expectation(), Objective.winprob()])
    def test_a_non_permutation_among_valid_orders_is_refused_before_the_walk(self, monkeypatch, bad, objective):
        walked = []
        monkeypatch.setattr(evaluation, "_optima", lambda *args: walked.append(args))
        inst = instance_of(3, 703)
        orders = [Order((2, 1, 0)), Order((0, 1, 2)), Order(bad), Order((1, 0, 2))]
        with pytest.raises(ValidationError, match=r"is not a permutation of 0\.\.2"):
            order_ratio_sweep(inst, MaxProbPolicy(inst), objective, orders=orders)
        assert walked == []


class TestPolicyBuiltForAnotherInput:
    """A rule built for one instance or order misreads another; every route refuses it.

    A baseline is not part of what a rule is built for: it is the objective's.
    """

    INST = Instance.from_supports([[(1.0, 0.5), (2.0, 0.5)], [(0.0, 0.5), (3.0, 0.5)]])
    OTHER = Instance.from_supports([[(1.5, 1.0)], [(0.0, 0.5), (4.0, 0.5)]])

    def test_eval_exact_rejects_another_order(self):
        # this used to return a number without a word
        pol = OptExpectationPolicy(self.INST, Order((0, 1)))
        with pytest.raises(ValidationError, match="another order"):
            eval_exact(self.INST, Order((1, 0)), pol, Objective.expectation())

    def test_brute_force_rejects_another_order(self):
        pol = OptMaxProbPolicy(self.INST, Order((0, 1)), 0.0)
        with pytest.raises(ValidationError, match="another order"):
            brute_force(self.INST, Order((1, 0)), pol, Objective.winprob(0.0))

    def test_monte_carlo_rejects_another_instance(self):
        pol = GoldenPolicy(self.OTHER)
        with pytest.raises(ValidationError, match="another instance"):
            monte_carlo(self.INST, Order((0, 1)), pol, Objective.expectation(), 10, 0)

    def test_order_ratio_sweep_rejects_another_instance(self):
        pol = MaxProbPolicy(self.OTHER, 0.0)
        with pytest.raises(ValidationError, match="another instance"):
            order_ratio_sweep(self.INST, pol, Objective.winprob(0.0))

    # A max-prob rule floored at 5 refused 6 and 7, which win at a baseline
    # of 0: on order (0, 1, 2) the sweep returned alg 0.75 for it without a
    # word, where the rule built at 0 gives 0.875. No rule holds a floor now:
    # the max-prob rule takes no baseline, and the optimum's picks only its
    # own win_probability.
    FLOORED = Instance.from_supports([[(0, .5), (3, .5)], [(0, .5), (7, .5)], [(1, .5), (6, .5)]])

    def test_the_max_prob_rule_takes_no_baseline(self):
        for baseline in (5.0, 1e-300, math.nan, -1.0):
            with pytest.raises(ValueError, match="comes from the objective"):
                MaxProbPolicy(self.FLOORED, baseline)
        MaxProbPolicy(self.FLOORED, 0.0)  # perfbench's positional call

    @pytest.mark.parametrize("route", [
        lambda inst, order, pol, obj: eval_exact(inst, order, pol, obj).value,
        lambda inst, order, pol, obj: brute_force(inst, order, pol, obj).value,
        lambda inst, order, pol, obj: monte_carlo(inst, order, pol, obj, 10, 0).value,
        lambda inst, order, pol, obj: order_ratio_sweep(inst, pol, obj, orders=[order]).per_order[0].alg,
    ], ids=["eval_exact", "brute_force", "monte_carlo", "order_ratio_sweep"])
    def test_every_route_reads_an_optimum_built_at_a_higher_baseline_as_one_built_at_0(self, route):
        inst, order = self.FLOORED, Order((0, 1, 2))
        high, zero = OptMaxProbPolicy(inst, order, 5.0), OptMaxProbPolicy(inst, order)
        assert (high.win_probability, zero.win_probability) == (0.75, 0.875)
        for objective in (Objective.winprob(0.0), Objective.winprob(4.0), Objective.expectation()):
            got = route(inst, order, high, objective)
            assert got.hex() == route(inst, order, zero, objective).hex(), objective

    def test_the_rules_are_exact_at_every_baseline(self):
        inst, order = self.FLOORED, Order((0, 1, 2))
        for built in (0.0, 3.0, 5.0):
            for at in (0.0, 3.0, 4.0, 5.0):
                objective = Objective.winprob(at)
                for rule in (MaxProbPolicy(inst), OptMaxProbPolicy(inst, order, built)):
                    got = eval_exact(inst, order, rule, objective).value
                    assert got == pytest.approx(brute_force(inst, order, rule, objective).value, abs=1e-12)
                got = eval_exact(inst, order, OptMaxProbPolicy(inst, order, built), objective).value
                assert got == pytest.approx(OptMaxProbPolicy(inst, order, at).win_probability, abs=1e-12)
        for rule in (MaxProbPolicy(inst), OptMaxProbPolicy(inst, order, 5.0)):
            for evaluate in (eval_exact, brute_force):
                assert evaluate(inst, order, rule, Objective.winprob(0.0)).value == 0.875
            rep = order_ratio_sweep(inst, rule, Objective.winprob(0.0), orders=[order])
            assert rep.per_order[0].alg == 0.875

    def test_equal_copies_are_accepted(self):
        copy = Instance.from_supports([d.outcomes for d in self.INST.distributions])
        order = Order((1, 0))
        pol = OptMaxProbPolicy(copy, Order((1, 0)), 0.0)
        value = eval_exact(self.INST, order, pol, Objective.winprob(0.0)).value
        assert value == pytest.approx(pol.win_probability, abs=1e-12)


class TestResultRanges:
    def test_expectation_nonnegative_and_winprob_in_unit_interval(self):
        rng = random.Random(67)
        for _ in range(30):
            inst = random_instance(rng, 4, 3)
            order = random_order(rng, inst.n)
            for pol in all_policies(inst, order):
                exp = eval_exact(inst, order, pol, Objective.expectation())
                assert exp.value >= 0.0
                win = eval_exact(inst, order, pol, Objective.winprob(0.0))
                assert 0.0 <= win.value <= 1.0


class TestBenchmarkDominance:
    def test_opt_exp_dominates_under_expectation(self):
        rng = random.Random(64)
        exp = Objective.expectation()
        for _ in range(25):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            opt = eval_exact(inst, order, OptExpectationPolicy(inst, order), exp).value
            for pol in all_policies(inst, order):
                value = eval_exact(inst, order, pol, exp).value
                assert opt >= value - 1e-9, pol.kind

    def test_opt_maxprob_dominates_under_winprob(self):
        rng = random.Random(65)
        wp = Objective.winprob(0.0)
        for _ in range(25):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            opt = eval_exact(inst, order, OptMaxProbPolicy(inst, order, 0.0), wp).value
            for pol in all_policies(inst, order):
                value = eval_exact(inst, order, pol, wp).value
                assert opt >= value - 1e-9, pol.kind


class TestContinuationAudit:
    def test_boundary_row(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        rows = continuation_audit(inst, Order((0,)))
        last = rows[-1]
        assert (last.alg_suffix_value, last.beta, last.alpha) == (0.0, 0.0, 0.0)
        assert last.passed

    def test_classic_two_box_row(self):
        eps = 0.001
        inst = classic_two_box(eps)
        rows = continuation_audit(inst, Order((0, 1)))
        first = rows[0]
        assert first.alg_suffix_value == pytest.approx(1.0, abs=1e-12)
        assert first.beta == pytest.approx(1.0 / (1.0 + eps * PHI), abs=1e-12)
        assert first.passed

    def test_random_pairs_pass(self):
        rng = random.Random(66)
        for _ in range(60):
            inst = random_instance(rng, 5, 3)
            order = random_order(rng, inst.n)
            assert all(row.passed for row in continuation_audit(inst, order))

    def test_suffix_values_are_exact_values_of_the_suffix(self):
        rng = random.Random(67)
        exp = Objective.expectation()
        for _ in range(40):
            inst = random_instance(rng, 6, 4)
            order = random_order(rng, inst.n)
            for row in continuation_audit(inst, order):
                suffix = order.sequence[row.t:]
                if not suffix:
                    assert row.alg_suffix_value == 0.0
                    continue
                sub = Instance(tuple(inst.box(b) for b in suffix))
                want = eval_exact(sub, Order.identity(sub.n), GoldenPolicy(sub), exp).value
                assert abs(row.alg_suffix_value - want) <= 1e-12, (row.t, order)

    def test_makes_no_eval_exact_call(self, monkeypatch):
        # Every evaluation passes the shared input check, whatever name it is
        # reached by, so recording that check sees any call the audit makes.
        calls = []
        check = evaluation._check_inputs

        def recording(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)

        monkeypatch.setattr(evaluation, "_check_inputs", recording)
        rng = random.Random(68)
        inst = random_instance(rng, 6, 4)
        order = random_order(rng, inst.n)
        rows = continuation_audit(inst, order)
        assert len(rows) == inst.n and calls == []
        eval_exact(inst, order, GoldenPolicy(inst), Objective.expectation())
        assert len(calls) == 1

