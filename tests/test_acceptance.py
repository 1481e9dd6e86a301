"""Acceptance suite: one check per documented criterion, at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL line
per criterion. Criterion 10a's maximizer reference is 1.2324: the closed-form
ratio peaks at alpha ~1.2324354. The earlier reference 1.12324 was a digit
slip; the ratio's derivative there is +0.0566 (see README, "Acceptance suite
and known results").
"""

import itertools
import math
import random
import time

from prophet_order import (
    LAMBDA,
    LN_INV_LAMBDA,
    PHI,
    GoldenPolicy,
    Instance,
    MaxProbPolicy,
    Objective,
    OptExpectationPolicy,
    OptMaxProbPolicy,
    Order,
    SingleThresholdPolicy,
    brute_force,
    classic_thresholds,
    closed_form_alg,
    closed_form_ratio,
    eval_exact,
    example1,
    golden_lb,
    make_policy,
    maxprob_lb,
    order_ratio_sweep,
    single_threshold_family,
    single_threshold_ratio_curve,
    solve_beta,
    solve_lambda,
    suffix_max,
    threshold_for_alpha,
    DiscreteDistribution,
)
from prophet_order.thresholds import expected_surplus
from tests.helpers import (
    continuation_audit,
    oracle_corpus,
    random_instance,
    random_order,
    random_suffix_law,
    guarantee_corpus,
)

EXPECTATION = Objective.expectation()
WINPROB = Objective.winprob(0.0)


def _report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_constants():
    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        lam = solve_lambda()
        best = min(best, time.perf_counter() - t0)
    residual = abs(lam / (1.0 - lam) - math.log(1.0 / lam))
    ln_inv = math.log(1.0 / lam)
    ok = (
        residual <= 1e-14
        and 0.4463 <= lam <= 0.4465
        and 0.8055 <= ln_inv <= 0.8075
        and best < 1e-3
    )
    _report(
        "criterion 1",
        ok,
        f"lambda={lam:.10f} ln(1/lambda)={ln_inv:.10f} residual={residual:.2e} "
        f"solve_time={best * 1e6:.0f}us",
    )
    assert residual <= 1e-14
    assert 0.4463 <= lam <= 0.4465
    assert 0.8055 <= ln_inv <= 0.8075
    assert best < 1e-3, f"lambda solve took {best:.6f}s"


def test_criterion_02_expectation_guarantee_sweep():
    t0 = time.perf_counter()
    inv_phi = 1.0 / PHI
    worst_margin = math.inf
    worst_ratio = math.inf
    pairs = 0
    for inst in guarantee_corpus():
        golden = GoldenPolicy(inst)
        for perm in itertools.permutations(range(inst.n)):
            order = Order(perm)
            alg = eval_exact(inst, order, golden, EXPECTATION).value
            opt = eval_exact(
                inst, order, OptExpectationPolicy(inst, order), EXPECTATION
            ).value
            pairs += 1
            margin = alg - inv_phi * opt
            worst_margin = min(worst_margin, margin)
            if opt > 0.0:
                worst_ratio = min(worst_ratio, alg / opt)
            assert margin >= -1e-9, (inst, perm, alg, opt)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-9 and elapsed < 300.0
    _report(
        "criterion 2",
        ok,
        f"{pairs} (instance, order) pairs; worst ratio {worst_ratio:.6f} vs 1/phi "
        f"{inv_phi:.6f}; worst slack {worst_margin:.2e}; {elapsed:.1f}s",
    )
    assert elapsed < 300.0


def test_criterion_03_winprob_guarantee_sweep():
    t0 = time.perf_counter()
    worst_margin = math.inf
    worst_ratio = math.inf
    pairs = 0
    for inst in guarantee_corpus():
        maxprob = MaxProbPolicy(inst, 0.0)
        for perm in itertools.permutations(range(inst.n)):
            order = Order(perm)
            alg = eval_exact(inst, order, maxprob, WINPROB).value
            opt = eval_exact(
                inst, order, OptMaxProbPolicy(inst, order, 0.0), WINPROB
            ).value
            pairs += 1
            margin = alg - LN_INV_LAMBDA * opt
            worst_margin = min(worst_margin, margin)
            if opt > 0.0:
                worst_ratio = min(worst_ratio, alg / opt)
            assert margin >= -1e-9, (inst, perm, alg, opt)
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-9 and elapsed < 300.0
    _report(
        "criterion 3",
        ok,
        f"{pairs} (instance, order) pairs; worst ratio {worst_ratio:.6f} vs ln(1/lambda) "
        f"{LN_INV_LAMBDA:.6f}; worst slack {worst_margin:.2e}; {elapsed:.1f}s",
    )
    assert elapsed < 300.0


def test_criterion_04_oracle_equivalence():
    objectives = (EXPECTATION, WINPROB)
    worst = 0.0
    checks = 0
    for inst in oracle_corpus():
        unaware = [
            GoldenPolicy(inst),
            MaxProbPolicy(inst, 0.0),
            make_policy("median", inst),
            make_policy("half-emax", inst),
            make_policy("inv-e", inst),
        ]
        for perm in itertools.permutations(range(inst.n)):
            order = Order(perm)
            policies = unaware + [
                OptExpectationPolicy(inst, order),
                OptMaxProbPolicy(inst, order, 0.0),
            ]
            for pol in policies:
                for obj in objectives:
                    a = eval_exact(inst, order, pol, obj).value
                    b = brute_force(inst, order, pol, obj).value
                    worst = max(worst, abs(a - b))
                    checks += 1
                    assert abs(a - b) <= 1e-12, (pol.kind, obj.kind, perm)
    _report(
        "criterion 4",
        worst <= 1e-12,
        f"{checks} exact-vs-enumeration checks across "
        f"{len(oracle_corpus())} instances; worst gap {worst:.2e}",
    )


def test_criterion_05_threshold_chain_audit():
    rng = random.Random(0x5EED_0005)
    rows_checked = 0
    for _ in range(500):
        inst = random_instance(rng, 5, 4)
        order = random_order(rng, inst.n)
        rows = continuation_audit(inst, order)
        rows_checked += len(rows)
        assert all(row.passed for row in rows), (inst, order, rows)
    _report(
        "criterion 5",
        True,
        f"500 instance/order pairs, {rows_checked} audit rows, both inequalities hold",
    )


def test_criterion_06_beta_solver():
    rng = random.Random(0x5EED_0006)
    worst_residual = 0.0
    for _ in range(1000):
        law = random_suffix_law(rng)
        beta = solve_beta(law)
        residual = abs(expected_surplus(law, PHI * beta) - beta)
        worst_residual = max(worst_residual, residual)
        assert residual <= 1e-10
    worst_closed_form = 0.0
    for c in (0.25, 0.5, 1.0, 2.0, 3.5, 10.0, 64.0):
        law = suffix_max([DiscreteDistribution.point(c)])
        gap = abs(solve_beta(law) - c / PHI**2)
        worst_closed_form = max(worst_closed_form, gap)
        assert gap <= 1e-12
    _report(
        "criterion 6",
        True,
        f"1000 randomized laws, worst residual {worst_residual:.2e}; "
        f"point-mass closed form gap {worst_closed_form:.2e}",
    )


def test_criterion_07_three_box_reproduction():
    fam = example1(1e-3)
    order = fam.order("order_a")
    alg = eval_exact(fam.instance, order, GoldenPolicy(fam.instance), EXPECTATION).value
    opt = eval_exact(
        fam.instance, order, OptExpectationPolicy(fam.instance, order), EXPECTATION
    ).value
    ratio = alg / opt
    ok = 0.70 <= ratio <= 0.715
    _report(
        "criterion 7",
        ok,
        f"ratio {ratio:.6f} in [0.70, 0.715] (limit 1/sqrt(2) = {1 / math.sqrt(2):.6f})",
    )
    assert ok


def test_criterion_08_expectation_lower_bound_family():
    fam = golden_lb(1e-4, 0.05)
    golden = GoldenPolicy(fam.instance)
    worst = math.inf
    for _, order in fam.canonical_orders:
        alg = eval_exact(fam.instance, order, golden, EXPECTATION).value
        opt = eval_exact(
            fam.instance, order, OptExpectationPolicy(fam.instance, order), EXPECTATION
        ).value
        worst = min(worst, alg / opt)
    gap = abs(worst - 1.0 / PHI)
    # The rule's own tight point: a sure 1/phi ahead of a sure 1. Golden's
    # threshold for the first box is E[rest]/phi = 1/phi and ties go to
    # accept, so the ratio is 1/phi bit for bit.
    pair = Instance.from_supports([[(1.0 / PHI, 1.0)], [(1.0, 1.0)]])
    tight = order_ratio_sweep(pair, GoldenPolicy(pair), EXPECTATION)
    ok = gap <= 0.02 and tight.min_ratio == 1.0 / PHI and tight.argmin_order == Order((0, 1))
    _report(
        "criterion 8",
        ok,
        f"min ratio over {len(fam.canonical_orders)} canonical orders = {worst:.6f}; "
        f"|ratio - 1/phi| = {gap:.4f} <= 0.02; two sure boxes {tight.min_ratio!r} vs 1/phi",
    )
    assert gap <= 0.02
    assert tight.min_ratio == 1.0 / PHI
    assert tight.argmin_order == Order((0, 1))


def test_criterion_09_winprob_lower_bound_family():
    fam = maxprob_lb(200)
    order = fam.order("decreasing")
    alg = eval_exact(fam.instance, order, MaxProbPolicy(fam.instance, 0.0), WINPROB).value
    opt = eval_exact(
        fam.instance, order, OptMaxProbPolicy(fam.instance, order, 0.0), WINPROB
    ).value
    ratio = alg / opt
    ratio_gap = abs(ratio - LN_INV_LAMBDA)
    accept_gap = abs(alg - LAMBDA)
    ok = ratio_gap <= 0.02 and accept_gap <= 1e-12
    _report(
        "criterion 9",
        ok,
        f"decreasing-order ratio {ratio:.6f} (|gap| {ratio_gap:.2e} <= 0.02); "
        f"accept-branch win probability {alg:.15f} vs lambda (|gap| {accept_gap:.2e} <= 1e-12)",
    )
    assert ratio_gap <= 0.02
    assert accept_gap <= 1e-12


def test_criterion_10a_curve_maximizer_matches_quoted_value():
    """The reported maximizer sits where the closed-form ratio peaks.

    The reference is 1.2324: the ratio's derivative changes sign at
    alpha ~1.2324354, where the ratio is ~0.569558. The earlier reference
    1.12324 was a digit slip, not a critical point: the derivative there is
    +0.0566 and the ratio 0.56655, so it is checked below not to be the peak.
    """
    rep = single_threshold_ratio_curve()
    gap = abs(rep.alpha_star - 1.2324)
    # Location checked on the curve itself, independently of the search.
    peak = closed_form_ratio(rep.alpha_star)
    below = closed_form_ratio(rep.alpha_star - 1e-3)
    above = closed_form_ratio(rep.alpha_star + 1e-3)
    local_max = peak >= below and peak >= above
    old_ratio = closed_form_ratio(1.12324)
    ok = gap <= 1e-3 and local_max and old_ratio < rep.max_ratio
    _report(
        "criterion 10a",
        ok,
        f"alpha* = {rep.alpha_star:.7f}, reference 1.2324, |gap| = {gap:.5f} <= 1e-3; "
        f"ratio {peak:.6f} >= ratio at alpha* +/- 1e-3: {local_max}; "
        f"old reference 1.12324 gives {old_ratio:.6f} < max",
    )
    assert gap <= 1e-3, (
        f"measured maximizer {rep.alpha_star:.7f} differs from the reference "
        f"1.2324 by {gap:.5f}"
    )
    assert local_max, f"alpha* = {rep.alpha_star:.7f} is not a local maximum of the ratio"
    assert old_ratio < rep.max_ratio


def test_criterion_10b_curve_max_value_in_range():
    rep = single_threshold_ratio_curve()
    ok = 0.560 <= rep.max_ratio <= 0.575
    _report(
        "criterion 10b",
        ok,
        f"max ratio {rep.max_ratio:.6f} in [0.560, 0.575] (rounds to the quoted 0.57)",
    )
    assert ok


def test_criterion_10c_generated_instance_matches_closed_form():
    n = 10_000
    T = threshold_for_alpha(n, 1.12324)
    fam = single_threshold_family(n, T)
    alpha = fam.parameters["alpha"]
    exact = eval_exact(
        fam.instance,
        fam.order("three_period"),
        SingleThresholdPolicy(float(T)),
        WINPROB,
    ).value
    formula = closed_form_alg(alpha)
    gap = abs(exact - formula)
    ok = gap <= 0.02
    _report(
        "criterion 10c",
        ok,
        f"n={n} T={T} alpha={alpha:.5f}: exact win probability {exact:.6f} vs "
        f"closed form {formula:.6f}; |gap| = {gap:.4f} <= 0.02",
    )
    assert ok


def test_criterion_11_baseline_sanity():
    t0 = time.perf_counter()
    worst_half = math.inf
    worst_dom = math.inf
    pairs = 0
    for inst in guarantee_corpus():
        emax = suffix_max(inst.distributions).expectation()
        half = classic_thresholds(inst).half_expected_max
        half_policy = SingleThresholdPolicy(half, kind="half-emax")
        others = [
            GoldenPolicy(inst),
            MaxProbPolicy(inst, 0.0),
            make_policy("median", inst),
            half_policy,
            make_policy("inv-e", inst),
        ]
        for perm in itertools.permutations(range(inst.n)):
            order = Order(perm)
            pairs += 1
            half_value = eval_exact(inst, order, half_policy, EXPECTATION).value
            worst_half = min(worst_half, half_value - 0.5 * emax)
            assert half_value >= 0.5 * emax - 1e-9, (inst, perm)
            opt = eval_exact(
                inst, order, OptExpectationPolicy(inst, order), EXPECTATION
            ).value
            for pol in others + [OptMaxProbPolicy(inst, order, 0.0)]:
                value = eval_exact(inst, order, pol, EXPECTATION).value
                worst_dom = min(worst_dom, opt - value)
                assert opt >= value - 1e-9, (pol.kind, inst, perm)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 11",
        True,
        f"{pairs} (instance, order) pairs: half-expected-max slack >= {worst_half:.2e}; "
        f"benchmark dominance slack >= {worst_dom:.2e}; {elapsed:.1f}s",
    )
