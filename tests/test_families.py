import ast
import math

import pytest

from prophet_order import (
    LAMBDA,
    LN_INV_LAMBDA,
    PHI,
    DiscreteDistribution,
    GoldenPolicy,
    MaxProbPolicy,
    Objective,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    SingleThresholdPolicy,
    ValidationError,
    closed_form_alg,
    closed_form_opt,
    closed_form_ratio,
    eval_exact,
    example1,
    golden_lb,
    hv_box,
    maxprob_lb,
    single_threshold_family,
    single_threshold_ratio_curve,
    threshold_for_alpha,
    validate_instance,
    validate_order,
)
from prophet_order import CapExceededError, families
from prophet_order.families import ALPHA_GRID, MAXPROB_LB_MAX_BOXES, SINGLE_THRESHOLD_MAX_BOXES
from tests.helpers import per_pair_threshold_winprob


def family_ratios(fam, policy, objective, opt_builder):
    out = {}
    for name, order in fam.canonical_orders:
        alg = eval_exact(fam.instance, order, policy, objective).value
        opt = eval_exact(fam.instance, order, opt_builder(order), objective).value
        out[name] = (alg, opt, alg / opt if opt else 1.0)
    return out


def test_families_imports_only_core_and_thresholds_of_the_package():
    # The generators build instances; they need no evaluator or rule.
    with open(families.__file__, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    own = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1}
    assert own == {"core", "thresholds"}


class TestExample1:
    def test_construction_at_eps_half(self):
        fam = example1(0.5)
        assert fam.instance.box(2).outcomes == ((0.0, 0.5), (2.0, 0.5))
        assert fam.instance.box(0).outcomes == ((math.sqrt(2.0), 1.0),)
        assert fam.predicted_limit == pytest.approx(1.0 / math.sqrt(2.0))

    def test_orders_are_valid_permutations(self):
        fam = example1(0.01)
        for _, order in fam.canonical_orders:
            validate_order(fam.instance, order)

    def test_worst_canonical_ratio_near_limit(self):
        fam = example1(0.001)
        ratios = family_ratios(
            fam,
            GoldenPolicy(fam.instance),
            Objective.expectation(),
            lambda order: OptExpectationPolicy(fam.instance, order),
        )
        _, _, ratio_a = ratios["order_a"]
        assert ratio_a == pytest.approx(math.sqrt(2.0) / 1.999, abs=1e-9)
        _, _, ratio_b = ratios["order_b"]
        assert ratio_b == pytest.approx(1.0, abs=1e-12)


class TestGoldenLb:
    def test_two_box_grid_when_step_spans_whole_range(self):
        fam = golden_lb(0.001, PHI - 1.0)
        values = [d.outcomes[0][0] for d in fam.instance.distributions[:-1]]
        assert values == [PHI, 1.0]
        names = [name for name, _ in fam.canonical_orders]
        assert names[0] == "pi"
        assert len(names) == 3  # pi plus one pi_x per deterministic box

    def test_policy_accepts_top_value_immediately(self):
        # the premise of the early-acceptance branch: tau at the first box is
        # below phi, so the adaptive rule takes the top deterministic value
        fam = golden_lb(1e-4, 0.05)
        pol = GoldenPolicy(fam.instance)
        order = fam.order("pi")
        first = fam.instance.box(order.sequence[0]).outcomes[0][0]
        assert first == PHI
        remaining = frozenset(order.sequence[1:])
        assert pol.triple(remaining).tau < PHI

    def test_min_canonical_ratio_close_to_inverse_phi(self):
        fam = golden_lb(1e-4, 0.05)
        ratios = family_ratios(
            fam,
            GoldenPolicy(fam.instance),
            Objective.expectation(),
            lambda order: OptExpectationPolicy(fam.instance, order),
        )
        worst = min(r for _, _, r in ratios.values())
        assert abs(worst - 1.0 / PHI) <= 0.02
        assert worst >= 1.0 / PHI - 1e-9

    def test_instance_unique_max_valid(self):
        fam = golden_lb(1e-3, 0.1)
        validate_instance(fam.instance)


class TestMaxProbLb:
    def test_accept_branch_probability_is_lambda(self):
        fam = maxprob_lb(50)
        alg = eval_exact(
            fam.instance,
            fam.order("decreasing"),
            MaxProbPolicy(fam.instance, 0.0),
            Objective.winprob(0.0),
        ).value
        assert abs(alg - LAMBDA) <= 1e-12

    def test_decreasing_order_benchmark_rejects_and_wins(self):
        fam = maxprob_lb(50)
        opt = eval_exact(
            fam.instance,
            fam.order("decreasing"),
            OptMaxProbPolicy(fam.instance, fam.order("decreasing"), 0.0),
            Objective.winprob(0.0),
        ).value
        assert abs(opt - (1.0 - LAMBDA)) <= 1e-12

    def test_ratio_bounds_on_both_orders(self):
        fam = maxprob_lb(60)
        ratios = family_ratios(
            fam,
            MaxProbPolicy(fam.instance, 0.0),
            Objective.winprob(0.0),
            lambda order: OptMaxProbPolicy(fam.instance, order, 0.0),
        )
        for name, (_, _, ratio) in ratios.items():
            assert ratio >= LN_INV_LAMBDA - 1e-9, name
        _, _, worst = ratios["decreasing"]
        assert worst == pytest.approx(LAMBDA / (1.0 - LAMBDA), abs=1e-12)

    def test_eps_matches_lambda_root(self):
        fam = maxprob_lb(40)
        eps = fam.parameters["eps"]
        assert eps == pytest.approx(1.0 - LAMBDA ** (1.0 / 40), rel=1e-9)

    def test_unique_max_valid_and_orders(self):
        fam = maxprob_lb(10)
        validate_instance(fam.instance)
        for _, order in fam.canonical_orders:
            validate_order(fam.instance, order)

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            maxprob_lb(1)

    @pytest.mark.parametrize("n", [2, 3, 400])
    def test_rare_boxes_are_the_from_pairs_boxes(self, n):
        # Every rare box is the first one's checked table moved to its value.
        # q = 1 - eps lies in [1/2, 1), so eps and 1 - eps are exact.
        def bits(box):
            return ([(v.hex(), p.hex()) for v, p in box.outcomes],
                    [v.hex() for v in box.values], [c.hex() for c in box.cdf])

        fam = maxprob_lb(n)
        eps = fam.parameters["eps"]
        boxes = fam.instance.distributions
        assert len(boxes) == n + 1
        assert bits(boxes[0]) == bits(DiscreteDistribution.point(0.5))
        for i, box in enumerate(boxes[1:], start=1):
            ref = DiscreteDistribution.from_pairs([(0.0, 1.0 - eps), (float(i), eps)])
            assert bits(box) == bits(ref), i

    def test_the_cap_is_the_last_n_that_lands_on_lambda(self):
        # Every n up to the cap lands P[every rare box is 0] within 1e-12 of
        # lambda and n = cap + 1 is the first that does not. Above it some n
        # land again (85,000 did), so only the cap makes the refusal
        # predictable.
        assert MAXPROB_LB_MAX_BOXES == 20_299
        fam = maxprob_lb(MAXPROB_LB_MAX_BOXES)
        assert abs(math.prod([1.0 - fam.parameters["eps"]] * MAXPROB_LB_MAX_BOXES) - LAMBDA) <= 1e-12
        for n in (MAXPROB_LB_MAX_BOXES + 1, 85_000):
            with pytest.raises(CapExceededError, match=f"n={n} exceeds .* cap of 20299 boxes: .*1e-12"):
                maxprob_lb(n)


def combinatorial_winprob(n, T):
    """Independent oracle for the three-period order: the threshold rule wins
    iff exactly one value fires in period 1 and none in period 2, or none in
    period 1 and some in period 2."""
    p = 1.0 / math.sqrt(n)
    k1 = (n - T) // 2
    k2 = (n - T + 1) - k1
    one_in_p1 = k1 * p * (1.0 - p) ** (k1 - 1) if k1 else 0.0
    none_in_p1 = (1.0 - p) ** k1
    none_in_p2 = (1.0 - p) ** k2
    return one_in_p1 * none_in_p2 + none_in_p1 * (1.0 - none_in_p2)


class TestSingleThresholdFamily:
    def test_period_partition_covers_all_boxes(self):
        fam = single_threshold_family(25, 16)
        sizes = fam.parameters["period_sizes"]
        assert sum(sizes) == 25
        assert sorted(fam.order("three_period").sequence) == list(range(25))

    def test_boundary_layout_at_T_equals_n(self):
        fam = single_threshold_family(9, 9)
        assert fam.parameters["period_sizes"] == (0, 1, 8)
        assert fam.order("three_period").sequence == tuple(
            v - 1 for v in [9, 8, 7, 6, 5, 4, 3, 2, 1]
        )

    @pytest.mark.parametrize("n,T", [(9, 9), (16, 10), (25, 16), (100, 88), (121, 100)])
    def test_exact_winprob_matches_combinatorial_oracle(self, n, T):
        fam = single_threshold_family(n, T)
        exact = eval_exact(
            fam.instance,
            fam.order("three_period"),
            SingleThresholdPolicy(float(T)),
            Objective.winprob(0.0),
        ).value
        assert exact == pytest.approx(combinatorial_winprob(n, T), abs=1e-10)

    def test_unique_max_valid(self):
        fam = single_threshold_family(16, 10)
        validate_instance(fam.instance)

    @pytest.mark.parametrize("n", [2, 3, 400, 2500, 10000])
    def test_boxes_are_the_from_pairs_boxes(self, n):
        # Every box is the first one's checked table moved to its value; the
        # bare constructor, which checks and sums again, agrees in every bit.
        def bits(box):
            return ([(v.hex(), p.hex()) for v, p in box.outcomes],
                    [v.hex() for v in box.values], [c.hex() for c in box.cdf])

        p = 1.0 / math.sqrt(n)
        boxes = single_threshold_family(n, n).instance.distributions
        assert len(boxes) == n
        for i, box in enumerate(boxes, start=1):
            ref = DiscreteDistribution.from_pairs([(0.0, 1.0 - p), (float(i), p)])
            assert bits(box) == bits(DiscreteDistribution(ref.outcomes)) == bits(ref), i

    def test_one_box_is_refused_as_from_pairs_refuses_it(self):
        # At n = 1, p = 1 leaves the zero atom with probability 0, which
        # from_pairs refuses; the family names n before building any box.
        with pytest.raises(ValidationError, match="probability 0.0"):
            DiscreteDistribution.from_pairs([(0.0, 0.0), (1.0, 1.0)])
        with pytest.raises(ValueError, match=r"need n >= 2 .*got n=1, T=1"):
            single_threshold_family(1, 1)

    def test_n_above_the_cap_is_refused_before_any_box_is_built(self, monkeypatch):
        built = []

        class Recorder:
            def __init__(self, *args):
                built.append(args)

            @classmethod
            def from_pairs(cls, pairs):
                return cls(pairs)

        monkeypatch.setattr(families, "DiscreteDistribution", Recorder)
        n = SINGLE_THRESHOLD_MAX_BOXES + 1
        with pytest.raises(CapExceededError, match=f"n={n} exceeds .* cap of {SINGLE_THRESHOLD_MAX_BOXES} boxes"):
            single_threshold_family(n, n // 2)
        assert built == []

    @pytest.mark.parametrize("T", [9888, 9990])
    def test_exact_winprob_is_the_per_pair_loop_bit_for_bit(self, T):
        fam = single_threshold_family(10000, T)
        order = fam.order("three_period")
        policy = SingleThresholdPolicy(float(T))
        exact = eval_exact(fam.instance, order, policy, Objective.winprob(0.0)).value
        assert exact.hex() == per_pair_threshold_winprob(fam.instance, order, float(T), 0.0).hex()

    def test_threshold_for_alpha(self):
        assert threshold_for_alpha(10000, 1.12324) == 9888
        assert threshold_for_alpha(4, 100.0) == 1
        assert threshold_for_alpha(4, 0.0) == 4


class TestRatioCurve:
    def test_formulas_at_zero(self):
        assert closed_form_alg(0.0) == 0.0
        assert closed_form_opt(0.0) == 1.0
        assert closed_form_ratio(0.0) == 0.0

    def test_maximizer_and_value(self):
        rep = single_threshold_ratio_curve()
        # the closed forms peak at ~1.23244 with ratio ~0.56956
        assert rep.alpha_star == pytest.approx(1.2324354, abs=5e-6)
        assert rep.max_ratio == pytest.approx(0.5695581, abs=1e-6)

    def test_grid_maximum_is_global(self):
        rep = single_threshold_ratio_curve()
        for alpha in ALPHA_GRID:
            assert closed_form_ratio(alpha) < rep.max_ratio + 1e-9


class TestHvBox:
    def test_mean_one(self):
        box = hv_box(0.02)
        assert box.expectation() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            hv_box(1.5)
