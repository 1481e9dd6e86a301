import json
import math
import random
import types

import pytest

import prophet_order
from prophet_order import (
    DiscreteDistribution,
    Instance,
    Order,
    ValidationError,
    load_instance,
    load_order,
    save_instance,
    save_order,
    validate_instance,
    validate_order,
)
from tests.helpers import draw_profile, random_instance, sample_profile


class TestFromPairs:
    def test_merges_duplicate_values(self):
        d = DiscreteDistribution.from_pairs([(1.0, 0.3), (2.0, 0.5), (1.0, 0.2)])
        assert d.outcomes == ((1.0, 0.5), (2.0, 0.5))

    def test_sorts_values(self):
        d = DiscreteDistribution.from_pairs([(3.0, 0.5), (1.0, 0.5)])
        assert d.values == (1.0, 3.0)

    def test_renormalizes_within_tolerance(self):
        p = 1.0 / 3.0
        d = DiscreteDistribution.from_pairs([(0.0, p), (1.0, p), (2.0, p)])
        assert math.fsum(d.probabilities) == pytest.approx(1.0, abs=1e-15)

    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError, match="sum"):
            DiscreteDistribution.from_pairs([(1.0, 0.5), (2.0, 0.6)])

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution.from_pairs([])

    def test_rejects_negative_value(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution.from_pairs([(-1.0, 1.0)])

    def test_rejects_nonfinite_value(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution.from_pairs([(math.inf, 1.0)])

    def test_rejects_zero_probability(self):
        with pytest.raises(ValidationError):
            DiscreteDistribution.from_pairs([(1.0, 0.0), (2.0, 1.0)])


class TestExpectationAndCdf:
    def test_point_mass(self):
        assert DiscreteDistribution.point(1.0).expectation() == 1.0

    def test_two_point(self):
        d = DiscreteDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert d.expectation() == 1.0

    def test_rare_high_value(self):
        d = DiscreteDistribution.from_pairs([(0.0, 0.999), (1000.0, 0.001)])
        assert d.expectation() == pytest.approx(1.0, abs=1e-12)

    def test_prob_below_point_mass(self):
        d = DiscreteDistribution.point(1.0)
        assert d.prob_below(1.0) == 0.0
        assert d.cdf_at([1.0]) == [1.0]

    def test_prob_below_two_point(self):
        d = DiscreteDistribution.from_pairs([(0.0, 0.5), (2.0, 0.5)])
        assert d.prob_below(1.0) == 0.5

    @pytest.mark.parametrize("m", [10, 100])
    def test_prob_below_is_the_fsum_prefix_bit_for_bit(self, m):
        # m atoms of 1/m added one by one drift off the correctly rounded
        # prefix sums (ten atoms of 0.1 reach 0.9999999999999999); the table
        # holds the prefix sums math.fsum gives.
        d = DiscreteDistribution(tuple((float(k), 1.0 / m) for k in range(m)))
        for k in range(m):
            assert d.cdf_at([float(k)]) == [math.fsum([1.0 / m] * (k + 1))]
            assert d.prob_below(float(k)) == math.fsum([1.0 / m] * k)
        assert d.cdf_at([m - 1.0]) == [1.0]

    def test_prob_below_is_the_fsum_prefix_with_subnormal_mass(self):
        # Adding 2**-54 to 0.5 one at a time rounds each back to 0.5; the
        # exact prefix is 0.5 + 2**-53. The smallest subnormal makes the
        # common denominator 2**1074.
        probs = (0.5, 2.0**-54, 2.0**-54, 5e-324, 0.5 - 2.0**-53)
        d = DiscreteDistribution(tuple((float(k), p) for k, p in enumerate(probs)))
        for k in range(len(probs)):
            assert d.cdf_at([float(k)])[0].hex() == math.fsum(probs[: k + 1]).hex()

    def test_prob_below_monotone_and_mass_identity(self):
        rng = random.Random(11)
        for _ in range(100):
            inst = random_instance(rng, 1, 4)
            d = inst.box(0)
            probes = sorted(set(d.values) | {0.0, 0.5, 3.7, 100.0})
            prev_strict = prev_loose = -1.0
            for x in probes:
                strict = d.prob_below(x)
                [loose] = d.cdf_at([x])
                assert strict <= loose + 1e-15
                assert strict >= prev_strict - 1e-15
                assert loose >= prev_loose - 1e-15
                mass_at_x = math.fsum(p for v, p in d.outcomes if v == x)
                assert loose - strict == pytest.approx(mass_at_x, abs=1e-12)
                prev_strict, prev_loose = strict, loose

    def test_expectation_matches_manual_sum(self):
        rng = random.Random(12)
        for _ in range(50):
            d = random_instance(rng, 1, 4).box(0)
            manual = sum(v * p for v, p in d.outcomes)
            assert d.expectation() == pytest.approx(manual, abs=1e-15)


class TestValidation:
    def test_single_point_mass_valid(self):
        inst = Instance.from_supports([[(1.0, 1.0)]])
        validate_instance(inst)
        assert inst.box(0) == DiscreteDistribution.point(1.0)

    def test_bad_probability_sum_reported(self):
        with pytest.raises(ValidationError, match="sum to 1.1"):
            DiscreteDistribution(((1.0, 0.5), (2.0, 0.6)))

    def test_bare_constructor_accepts_rounding_only(self):
        # These atoms sum to 1 + 6e-10: brute_force weighed them as given and
        # read 0.5000000003 where eval_exact read 0.5.
        with pytest.raises(ValidationError, match="sum to"):
            DiscreteDistribution(((0.0, 0.6), (1.0, 0.4 + 5e-10), (1e6, 1e-10)))
        for end in (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)):
            assert DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5))).cdf[-1] == min(end, 1.0)

    def test_duplicate_value_reported(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            DiscreteDistribution(((1.0, 0.5), (1.0, 0.5)))

    def test_unsorted_values_reported(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            DiscreteDistribution(((2.0, 0.5), (1.0, 0.5)))

    @pytest.mark.parametrize(
        "outcomes, message",
        [
            ((), "at least one outcome"),
            (((math.nan, 1.0),), "finite non-negative"),
            (((math.inf, 1.0),), "finite non-negative"),
            (((-1.0, 1.0),), "finite non-negative"),
            (((1.0, 0.0), (2.0, 1.0)), "outside"),
            (((1.0, 1.5),), "outside"),
            (((1.0, math.nan),), "outside"),
            (((1.0, 0.25), (2.0, 0.25)), "sum to"),
        ],
    )
    def test_bare_constructor_checks_every_invariant(self, outcomes, message):
        with pytest.raises(ValidationError, match=message):
            DiscreteDistribution(outcomes)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_point_rejects_bad_value(self, value):
        with pytest.raises(ValidationError, match="finite non-negative"):
            DiscreteDistribution.point(value)

    def test_empty_instance_rejected(self):
        with pytest.raises(ValidationError, match="at least one box"):
            Instance(())
        with pytest.raises(ValidationError, match="at least one box"):
            Instance.from_supports([])

    def test_shared_positive_value_rejected_under_unique_max(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(1.0, 0.5), (2.0, 0.5)]])
        with pytest.raises(ValidationError, match="value 1.0 appears in boxes 0 and 1"):
            validate_instance(inst)

    def test_shared_zero_allowed_under_unique_max(self):
        # zero stands for an empty box and can never be the caught maximum
        inst = Instance.from_supports(
            [[(0.0, 0.5), (1.0, 0.5)], [(0.0, 0.5), (2.0, 0.5)]]
        )
        validate_instance(inst)

    def test_order_must_be_permutation(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(2.0, 1.0)]])
        validate_order(inst, Order((1, 0)))
        for seq in ((0, 0), (0,), (0, 1, 2)):
            with pytest.raises(ValidationError, match="not a permutation"):
                validate_order(inst, Order(seq))


class TestSampling:
    def test_point_masses_sample_deterministically(self):
        inst = Instance.from_supports([[(1.0, 1.0)], [(2.0, 1.0)]])
        assert sample_profile(inst, rng_seed=999) == (1.0, 2.0)

    def test_same_seed_same_profile(self):
        rng = random.Random(4)
        inst = random_instance(rng, 5, 4)
        assert sample_profile(inst, 77) == sample_profile(inst, 77)

    def test_samples_stay_in_support(self):
        rng = random.Random(5)
        inst = random_instance(rng, 4, 4)
        supports = [set(d.values) for d in inst.distributions]
        gen = random.Random(6)
        for _ in range(200):
            profile = draw_profile(inst, gen)
            for bid, v in enumerate(profile):
                assert v in supports[bid]

    def test_draw_is_the_inverse_of_the_cdf_table(self):
        # Ten atoms of 0.1 added one by one reach 0.6 at the sixth, but the
        # table holds P[v <= 5] = fsum = 0.6000000000000001 > 0.6, so u = 0.6
        # draws 5.0, as the exact routes read the law.
        d = DiscreteDistribution(tuple((float(k), 0.1) for k in range(10)))
        assert d.cdf[6] > 0.6
        assert d.sample(types.SimpleNamespace(random=lambda: 0.6)) == 5.0
        # A table that ends below 1.0: a u at or past its end draws the
        # largest value.
        end = math.nextafter(1.0, 0.0)
        d = DiscreteDistribution(((1.0, 0.5), (2.0, end - 0.5)))
        assert d.cdf[-1] == end
        for u, want in ((0.0, 1.0), (0.5, 2.0), (end, 2.0)):
            assert d.sample(types.SimpleNamespace(random=lambda u=u: u)) == want

    def test_law_of_large_numbers(self):
        inst = Instance.from_supports([[(0.0, 0.5), (1.0, 0.5)]])
        gen = random.Random(31337)
        mean = sum(draw_profile(inst, gen)[0] for _ in range(100_000)) / 100_000
        assert abs(mean - 0.5) < 0.01


class TestJsonRoundTrip:
    def test_instance_round_trip(self, tmp_path):
        rng = random.Random(8)
        inst = random_instance(rng, 4, 3)
        path = tmp_path / "inst.json"
        save_instance(inst, str(path))
        assert load_instance(str(path)) == inst

    def test_order_round_trip(self, tmp_path):
        order = Order((2, 0, 1))
        path = tmp_path / "order.json"
        save_order(order, str(path))
        assert load_order(str(path)) == order

    def test_instance_json_shape(self):
        inst = Instance.from_supports([[(0.0, 0.5), (2.0, 0.5)]])
        assert inst.to_json_dict() == {"boxes": [{"support": [[0.0, 0.5], [2.0, 0.5]]}]}

    def test_loader_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"not_boxes": []}))
        with pytest.raises(ValidationError):
            load_instance(str(path))

    @pytest.mark.parametrize(
        "data",
        [
            {"boxes": [1]},
            {"boxes": [{"support": [[1]]}]},
            {"boxes": [{"support": [[None, 1.0]]}]},
            {"boxes": [{"support": [["x", 1.0]]}]},
            {"boxes": [{"values": [[1.0, 1.0]]}]},
            {"boxes": 3},
            [],
            {"boxes": [{"support": [[1, 1, 5]]}]},
            {"boxes": [{"support": [[True, 1]]}]},
            {"boxes": [{"support": [["1", "1"]]}]},
        ],
    )
    def test_from_json_dict_rejects_malformed_boxes(self, data):
        with pytest.raises(ValidationError, match="instance JSON must be"):
            Instance.from_json_dict(data)

    def test_loader_rejects_bad_sum(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"boxes": [{"support": [[1.0, 0.5], [2.0, 0.6]]}]}))
        with pytest.raises(ValidationError):
            load_instance(str(path))

    def test_order_from_string(self):
        assert Order.from_string("0, 2,1").sequence == (0, 2, 1)
        with pytest.raises(ValidationError):
            Order.from_string("0,x")


class TestPackageExports:
    def test_all_lists_names_not_submodules(self):
        exported = prophet_order.__all__
        assert not [n for n in exported if isinstance(getattr(prophet_order, n), types.ModuleType)]
        assert {"core", "evaluation", "families", "policies", "thresholds"}.isdisjoint(exported)
        assert {"Instance", "ValidationError", "eval_exact", "order_ratio_sweep"} <= set(exported)

    def test_cap_exceeded_error_lives_in_core(self):
        # evaluation and the package re-export the one class, so an except
        # clause on any of the three names catches every cap.
        assert prophet_order.evaluation.CapExceededError is prophet_order.core.CapExceededError
        assert prophet_order.CapExceededError is prophet_order.core.CapExceededError
        assert "CapExceededError" in prophet_order.__all__
