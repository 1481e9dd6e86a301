import math
import random

import pytest

from prophet_order import (
    LAMBDA,
    LN_INV_LAMBDA,
    PHI,
    DiscreteDistribution,
    Instance,
    Objective,
    Order,
    SingleThresholdPolicy,
    classic_thresholds,
    eval_exact,
    maxprob_lb,
    solve_beta,
    solve_lambda,
    suffix_max,
    threshold_triple,
)
from prophet_order.thresholds import carry_win_factors, expected_surplus, solve_beta_bisection
from tests.helpers import enumerate_max_law, random_instance, random_suffix_law, win_factor_after


class TestConstants:
    def test_phi_fixed_point(self):
        assert abs(PHI * PHI - PHI - 1.0) <= 1e-12

    def test_lambda_residual(self):
        lam = solve_lambda()
        assert abs(lam / (1.0 - lam) - math.log(1.0 / lam)) <= 1e-14

    def test_lambda_value(self):
        assert 0.4463 <= LAMBDA <= 0.4465

    def test_ln_inv_lambda_value(self):
        assert 0.8055 <= LN_INV_LAMBDA <= 0.8075
        assert LN_INV_LAMBDA == math.log(1.0 / LAMBDA)


class TestSuffixMax:
    def test_empty_set_convention(self):
        law = suffix_max([])
        assert law == DiscreteDistribution.point(0.0)
        assert law.expectation() == 0.0
        assert law.prob_below(0.5, strict=True) == 1.0
        assert law.prob_below(123.0, strict=True) == 1.0

    def test_point_masses(self):
        law = suffix_max([DiscreteDistribution.point(1.0), DiscreteDistribution.point(2.0)])
        assert law.outcomes == ((2.0, 1.0),)

    def test_two_box_enumeration(self):
        dists = [
            DiscreteDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)]),
            DiscreteDistribution.point(1.0),
        ]
        law = suffix_max(dists)
        assert law.outcomes == ((1.0, 0.5), (2.0, 0.5))
        assert law.outcomes == enumerate_max_law(dists)

    def test_matches_enumeration_oracle(self):
        rng = random.Random(21)
        for _ in range(100):
            inst = random_instance(rng, 4, 3)
            law = suffix_max(inst.distributions)
            oracle = enumerate_max_law(inst.distributions)
            assert len(law.outcomes) == len(oracle)
            for (v1, p1), (v2, p2) in zip(law.outcomes, oracle):
                assert v1 == v2
                assert p1 == pytest.approx(p2, abs=1e-12)

    def test_cdf_is_product_of_member_cdfs(self):
        rng = random.Random(22)
        for _ in range(100):
            inst = random_instance(rng, 4, 3)
            increments = []
            prev = 0.0
            for v in sorted({v for d in inst.distributions for v in d.values}):
                cdf = min(math.prod(d.prob_below(v) for d in inst.distributions), 1.0)
                if cdf - prev > 0.0:
                    increments.append((v, cdf - prev))
                prev = cdf
            assert suffix_max(inst.distributions).outcomes == tuple(increments)

    def test_cdf_capped_at_one(self):
        # A valid box whose probabilities sum to one ulp above 1: its table
        # is capped, so its CDF and the law's never read above 1.
        d = DiscreteDistribution(
            ((1.0, 0.25961622776015947), (2.0, 0.05747620389958546),
             (3.0, 0.6188763522845167), (4.0, 0.06403121605573854))
        )
        assert math.fsum(d.probabilities) > 1.0
        assert d.prob_below(4.0) == 1.0
        law = suffix_max([d, DiscreteDistribution.point(100.0)])
        assert law.outcomes == ((100.0, 1.0),)
        assert math.fsum(law.probabilities) == 1.0


class TestExpectedSurplus:
    def test_point_mass_examples(self):
        law = suffix_max([DiscreteDistribution.point(1.0)])
        assert expected_surplus(law, 0.5) == 0.5
        assert expected_surplus(law, 2.0) == 0.0

    def test_two_point_example(self):
        law = suffix_max(
            [DiscreteDistribution.from_pairs([(1.0, 0.5), (2.0, 0.5)])]
        )
        assert expected_surplus(law, 1.5) == 0.25

    def test_convex_nonincreasing_and_linear_tail(self):
        rng = random.Random(23)
        for _ in range(60):
            law = random_suffix_law(rng)
            lo = min(v for v, _ in law.outcomes)
            hi = max(v for v, _ in law.outcomes)
            grid = [lo / 2, lo, (lo + hi) / 2, hi, hi + 1.0]
            values = [expected_surplus(law, c) for c in grid]
            for a, b in zip(values, values[1:]):
                assert b <= a + 1e-12
            # convexity via midpoints
            for a, b in zip(grid, grid[2:]):
                mid = (a + b) / 2
                assert expected_surplus(law, mid) <= (
                    expected_surplus(law, a) + expected_surplus(law, b)
                ) / 2 + 1e-12
            # equals E[y] - c below the support
            for c in (0.0, lo / 2, lo):
                assert expected_surplus(law, c) == pytest.approx(
                    law.expectation() - c, abs=1e-12
                )


class TestSolveBeta:
    def test_empty_set(self):
        assert solve_beta(suffix_max([])) == 0.0

    def test_point_mass_closed_form(self):
        # c - phi*x = x  =>  x = c / (1 + phi) = c / phi^2
        law = suffix_max([DiscreteDistribution.point(1.0)])
        beta = solve_beta(law)
        assert beta == pytest.approx(1.0 / PHI**2, abs=1e-14)
        assert beta == pytest.approx(solve_beta_bisection(law), abs=1e-12)

    def test_rare_high_value_closed_form(self):
        # On the segment phi*x < 1/eps the equation reads 1 - eps*phi*x = x.
        eps = 0.01
        law = suffix_max([DiscreteDistribution.from_pairs([(0.0, 1 - eps), (1 / eps, eps)])])
        beta = solve_beta(law)
        assert beta == pytest.approx(1.0 / (1.0 + eps * PHI), abs=1e-12)
        assert beta == pytest.approx(0.98407, abs=1e-5)
        assert beta == pytest.approx(solve_beta_bisection(law), abs=1e-12)

    def test_residual_and_bisection_agreement(self):
        rng = random.Random(24)
        for _ in range(300):
            law = random_suffix_law(rng)
            beta = solve_beta(law)
            assert abs(expected_surplus(law, PHI * beta) - beta) <= 1e-10
            assert beta == pytest.approx(solve_beta_bisection(law), abs=1e-10)


class TestThresholdTriple:
    def test_empty_set(self):
        t = threshold_triple(suffix_max([]))
        assert (t.alpha, t.beta, t.tau) == (0.0, 0.0, 0.0)

    def test_point_mass(self):
        t = threshold_triple(suffix_max([DiscreteDistribution.point(1.0)]))
        assert t.alpha == pytest.approx(0.6180340, abs=1e-7)
        assert t.beta == pytest.approx(0.3819660, abs=1e-7)
        assert t.tau == t.alpha

    def test_deterministic_one_plus_rare_high_value(self):
        eps = 0.001
        law = suffix_max(
            [
                DiscreteDistribution.point(1.0),
                DiscreteDistribution.from_pairs([(0.0, 1 - eps), (1 / eps, eps)]),
            ]
        )
        t = threshold_triple(law)
        assert t.alpha == pytest.approx((2.0 - eps) / PHI, abs=1e-12)
        assert t.alpha == pytest.approx(1.23545, abs=1e-5)
        assert t.beta == pytest.approx(1.0 / (1.0 + eps * PHI), abs=1e-12)
        assert t.beta == pytest.approx(0.99838, abs=1e-5)
        assert t.tau == t.alpha

    def test_tau_and_lower_bounds(self):
        rng = random.Random(25)
        for _ in range(200):
            law = random_suffix_law(rng)
            t = threshold_triple(law)
            assert t.tau == max(t.alpha, t.beta)
            assert t.beta >= t.alpha / PHI - 1e-12
            assert t.beta >= law.expectation() / PHI**2 - 1e-12


class TestClassicThresholds:
    def test_single_point_mass(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        c = classic_thresholds(inst)
        assert c == (1.0, 0.5, 1.0)

    def test_two_box_enumeration(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.5), (4.0, 0.5)]])
        c = classic_thresholds(inst)
        assert c.median_of_max == 1.0
        assert c.half_expected_max == 1.25
        assert c.inv_e_quantile == 1.0

    def test_half_expected_max_on_two_box_rare_value(self):
        eps = 0.5
        inst = Instance.from_supports(
            [[(1.0, 1.0)], [(0.0, 1 - eps), (1 / eps, eps)]]
        )
        assert classic_thresholds(inst).half_expected_max == 0.75


class TestWinFactor:
    @pytest.mark.parametrize("n", [2, 50, 200, 400])
    def test_maxprob_lb_product_is_the_tuned_one_bit_for_bit(self, n):
        # maxprob_lb nudges q until its sequential product lands on lambda; the
        # win factor of the deterministic first box must be that same product.
        fam = maxprob_lb(n)
        q = 1.0 - fam.parameters["eps"]
        inst = fam.instance
        assert all(inst.box(b).prob_below(0.5, strict=True) == q for b in range(1, n + 1))
        got = win_factor_after(inst, fam.order("decreasing"), 1, 0.5)
        assert got.hex() == math.prod([q] * n).hex()

    def test_strict_and_one_after_the_last_box(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.25), (2.0, 0.75)], [(3.0, 0.5), (4.0, 0.5)]])
        order = Order((0, 1, 2))
        assert win_factor_after(inst, order, 3, 0.0) == 1.0
        assert win_factor_after(inst, order, 2, 3.0) == 0.0
        assert win_factor_after(inst, order, 2, 4.0) == 0.5
        assert win_factor_after(inst, order, 1, 2.0) == 0.0
        assert win_factor_after(inst, order, 1, 5.0) == 1.0
        assert win_factor_after(inst, Order((2, 0, 1)), 1, 2.5) == 1.0

    def test_product_runs_from_the_last_box_back(self):
        rng = random.Random(47)
        for _ in range(50):
            inst = random_instance(rng, 6, 4)
            seq = tuple(rng.sample(range(inst.n), inst.n))
            for t in range(1, inst.n + 1):
                for v in {v for d in inst.distributions for v in d.values}:
                    want = 1.0
                    for b in reversed(seq[t:]):
                        want *= inst.box(b).prob_below(v, strict=True)
                    assert win_factor_after(inst, Order(seq), t, v).hex() == want.hex()


class TestCarryWinFactors:
    def test_each_step_is_win_factor_one_position_earlier(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(0.0, 0.25), (2.0, 0.75)], [(3.0, 0.5), (4.0, 0.5)]])
        order = Order((0, 1, 2))
        grid = [0.0, 1.0, 2.0, 2.5, 3.0, 4.0, 5.0]
        acc = [1.0] * len(grid)
        for t in (3, 2, 1):
            assert acc == [win_factor_after(inst, order, t, x) for x in grid]
            carry_win_factors(acc, grid, inst.box(order.sequence[t - 1]))
        assert acc == [0.0] * 5 + [0.5, 1.0]

    def test_a_table_ending_below_one_multiplies_points_above_it(self):
        end = math.nextafter(1.0, 0.0)
        box = DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5)))
        acc = [1.0, 1.0, 1.0]
        carry_win_factors(acc, [1.0, 2.0, 5.0], box)
        assert acc == [0.0, 0.5, end]

    def test_a_table_ending_below_one_multiplies_a_grid_wholly_above_it(self):
        # The whole-box skip holds only for a table that ends at exactly 1.0.
        end = math.nextafter(1.0, 0.0)
        box = DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5)))
        acc = [1.0]
        carry_win_factors(acc, [5.0], box)
        assert acc == [end]


class TestWinFactors:
    @pytest.mark.parametrize("end", [math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)])
    def test_a_table_ending_off_one_multiplies_values_above_its_points(self, end):
        # Bare constructor: the last box's probabilities sum to one ulp off
        # 1.0. Below 1 its table ends there, so P[it < 5] is that end, not
        # 1.0, and the carry must not skip it; above 1 the table is capped.
        later = DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5)))
        assert later.cdf[-1] == min(end, 1.0)
        inst = Instance((DiscreteDistribution.point(5.0), later))
        got = eval_exact(inst, Order((0, 1)), SingleThresholdPolicy(5.0), Objective.winprob())
        assert got.value.hex() == later.cdf[-1].hex()
