"""Seeded generators and shared corpora for the test suite.

Values are dyadic rationals (k/128) so float arithmetic stays exact and
equality-based tie paths actually get exercised. Positive values are kept
distinct across the boxes of one instance, so every generated instance
satisfies the unique-max requirement; zeros may repeat (an empty box).
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from prophet_order import (
    PHI,
    DecisionContext,
    DiscreteDistribution,
    GoldenPolicy,
    Instance,
    Objective,
    OptMaxProbPolicy,
    Order,
    Policy,
    suffix_max,
    validate_instance,
    validate_order,
)
from prophet_order import evaluation
from prophet_order.thresholds import win_factor

GUARANTEE_CORPUS_SEED = 0x5EED_0001
ORACLE_CORPUS_SEED = 0x5EED_0002


def win_factor_after(instance: Instance, order: Order, position: int, value: float) -> float:
    """P[every box after ``position`` (1-based) of ``order`` < ``value``], 1.0 after the last.

    ``win_factor`` over the later boxes from the last one back, the
    multiplication order of the exact pass and of ``carry_win_factors``.
    """
    return win_factor([instance.box(b) for b in reversed(order.sequence[position:])], value)


class FunctionPolicy(Policy):
    """Wrap an arbitrary decision function, for custom rules in tests."""

    def __init__(self, fn: Callable[[DecisionContext], bool], kind: str = "custom",
                 uses_prefix_max: bool = True, splits_on_new_max: bool = False):
        self._fn = fn
        self.kind = kind
        self.uses_prefix_max = uses_prefix_max
        self.splits_on_new_max = splits_on_new_max

    def decide(self, ctx: DecisionContext) -> bool:
        return self._fn(ctx)


class TableOptMaxProbPolicy(Policy):
    """Reference for ``OptMaxProbPolicy``: the optimum with its whole value table.

    ``value_table[t]`` maps each grid point (the baseline and every support
    value) to the win probability of optimal play at positions t..n; row n+1
    is identically 0. ``decide`` reads the table, snapping a prefix max that
    is off the grid down to it, and compares the payoff with the continuation
    value, ties going to accept.
    """

    kind = "opt-maxprob-table"
    uses_prefix_max = True

    def __init__(self, instance: Instance, order: Order, baseline: float = 0.0):
        validate_instance(instance)
        validate_order(instance, order)
        self.baseline = baseline
        n = instance.n
        seq = order.sequence
        grid = sorted({baseline} | {v for d in instance.distributions for v in d.values})
        self._grid = grid
        self._win_factor = win = [{}] + [
            {v: win_factor_after(instance, order, t, v) for v in instance.box(seq[t - 1]).values}
            for t in range(1, n + 1)
        ]
        value_table: list[dict[float, float]] = [dict() for _ in range(n + 2)]
        value_table[n + 1] = {v: 0.0 for v in grid}
        for t in range(n, 0, -1):
            box = instance.box(seq[t - 1])
            nxt = value_table[t + 1]
            row = {}
            for theta in grid:
                total = 0.0
                for v, p in box.outcomes:
                    payoff = win[t][v] if v > theta else 0.0
                    cont = nxt[theta if v <= theta else v]
                    total += p * (payoff if payoff >= cont else cont)
                row[theta] = total
            value_table[t] = row
        self.value_table = value_table
        self.win_probability = value_table[1][baseline]

    def decide(self, ctx: DecisionContext) -> bool:
        t = ctx.position
        v = ctx.current_value
        theta = max(ctx.prefix_max, self.baseline)
        if theta not in self.value_table[t + 1]:
            theta = self._grid[bisect_right(self._grid, theta) - 1]
        payoff = self._win_factor[t][v] if v > ctx.prefix_max and v > self.baseline else 0.0
        cont = self.value_table[t + 1][theta if v <= theta else v]
        return payoff >= cont


def assert_decides_as_the_table(inst, order, baseline):
    """``OptMaxProbPolicy`` built with ``baseline`` decides as the full-table
    reference built at 0 on every position, every value of the box there, and
    prefix maxima on the grid, between grid points and above it; at every
    prefix max >= ``baseline`` it also decides as the reference built there,
    and the win probabilities agree with that one bit for bit."""
    pol = OptMaxProbPolicy(inst, order, baseline)
    ref = TableOptMaxProbPolicy(inst, order, baseline)
    zero = TableOptMaxProbPolicy(inst, order, 0.0)
    assert pol.win_probability.hex() == ref.win_probability.hex()
    grid = sorted({0.0, baseline} | {v for d in inst.distributions for v in d.values})
    prefixes = grid + [(a + b) / 2.0 for a, b in zip(grid, grid[1:])] + [grid[-1] + 1.0]
    seq = order.sequence
    for t in range(1, inst.n + 1):
        remaining = frozenset(seq[t:])
        for v in inst.box(seq[t - 1]).values:
            for prefix in prefixes:
                c = DecisionContext(t, v, prefix, remaining)
                assert pol.decide(c) == zero.decide(c), (t, v, prefix, baseline)
                if prefix >= baseline:
                    assert pol.decide(c) == ref.decide(c), (t, v, prefix, baseline)


def per_pair_threshold_winprob(instance: Instance, order: Order, threshold: float, baseline: float) -> float:
    """Reference for the exact win probability of a single-threshold rule.

    One forward sum over the order with one ``win_factor_after`` call per winnable
    outcome, clamped to [0, 1] as ``eval_exact`` clamps its value.
    ``eval_exact`` must match it bit for bit: its carried factors and its
    sum run in the same order.
    """
    seq = order.sequence
    total = 0.0
    pass_mass = 1.0
    for pos in range(1, len(seq) + 1):
        box = instance.box(seq[pos - 1])
        for v, p in box.outcomes:
            if v >= threshold and v > baseline:
                total += pass_mass * p * win_factor_after(instance, order, pos, v)
        pass_mass *= box.prob_below(threshold)
        if pass_mass == 0.0:
            break
    return min(max(total, 0.0), 1.0)


def draw_profile(instance: Instance, rng: random.Random) -> tuple[float, ...]:
    """One independent draw per box, indexed by box id."""
    return tuple(d.sample(rng) for d in instance.distributions)


def sample_profile(instance: Instance, rng_seed: int) -> tuple[float, ...]:
    """Reproducible profile draw: the same seed always yields the same profile."""
    return draw_profile(instance, random.Random(rng_seed))


def simulate_profile(
    order: Order, policy: Policy, objective: Objective, values: tuple[float, ...]
) -> float:
    """Payoff of one sequential run on fixed realized values (indexed by box id)."""
    seq = order.sequence
    winprob = objective.is_winprob
    prefix = objective.baseline if winprob else 0.0
    for pos, bid in enumerate(seq, start=1):
        v = values[bid]
        if policy.decide(DecisionContext(pos, v, prefix, frozenset(seq[pos:]))):
            if not winprob:
                return v
            return 1.0 if v > prefix and all(values[b] < v for b in seq[pos:]) else 0.0
        prefix = max(prefix, v)
    return 0.0


def per_context_monte_carlo(
    instance: Instance, order: Order, policy: Policy, objective: Objective, samples: int, seed: int
) -> tuple[float, float]:
    """Reference for ``monte_carlo``: (value, stderr) with the rule asked at every position of every sample.

    The same draws, scaling and sums as ``monte_carlo``, each payoff from
    ``simulate_profile``. ``monte_carlo`` must match it bit for bit on any
    rule that keeps the promises its flags make.
    """
    evaluation._check_inputs(instance, order, policy, objective)
    rng = random.Random(seed)
    top = 1.0 if objective.is_winprob else max(d.values[-1] for d in instance.distributions)
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    s1 = 0.0
    s2 = 0.0
    for _ in range(samples):
        payoff = simulate_profile(order, policy, objective, draw_profile(instance, rng)) / scale
        s1 += payoff
        s2 += payoff * payoff
    mean = s1 / samples
    if samples == 1:
        return mean * scale, 0.0
    var = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
    return mean * scale, math.sqrt(var / samples) * scale


def per_context_enumeration(instance: Instance, order: Order, policy: Policy, objective: Objective) -> float:
    """Reference for ``brute_force``: every profile's payoff from ``simulate_profile``, summed as it sums.

    It asks the rule at every position of every profile, so it relies on no
    promise a rule's flags make.
    """
    evaluation._check_inputs(instance, order, policy, objective)
    total = 0.0
    for combo in itertools.product(*[d.outcomes for d in instance.distributions]):
        payoff = simulate_profile(order, policy, objective, tuple(v for v, _ in combo))
        if payoff:
            total += math.prod(p for _, p in combo) * payoff
    return min(max(total, 0.0), 1.0) if objective.is_winprob else total


def random_instance(
    rng: random.Random,
    max_boxes: int,
    max_support: int,
    zero_prob: float = 0.35,
) -> Instance:
    n = rng.randint(1, max_boxes)
    used: set[float] = set()
    boxes = []
    for _ in range(n):
        k = rng.randint(1, max_support)
        values: set[float] = set()
        if rng.random() < zero_prob:
            values.add(0.0)
        while len(values) < k:
            v = rng.randrange(1, 1280) / 128.0
            if v not in used:
                values.add(v)
                used.add(v)
        weights = [rng.random() + 0.05 for _ in values]
        total = sum(weights)
        boxes.append([(v, w / total) for v, w in zip(sorted(values), weights)])
    return Instance.from_supports(boxes)


def many_state_instance(seed: int, n: int = 60) -> Instance:
    """n boxes, each a zero atom plus three distinct positive dyadic values,
    sorted by their largest value.

    The max-prob rules pass most new maxima on it, so the exact pass holds
    hundreds of prefix maxima per position; the zero atom keeps mass on every
    position to the end.
    """
    rng = random.Random(seed)
    positives = rng.sample(range(1, 1 << 20), 3 * n)
    boxes = []
    for i in range(n):
        weights = [rng.random() + 0.05 for _ in range(4)]
        total = sum(weights)
        values = [0.0] + sorted(k / 1024.0 for k in positives[3 * i:3 * i + 3])
        boxes.append([(v, w / total) for v, w in zip(values, weights)])
    boxes.sort(key=lambda box: box[-1][0])
    return Instance.from_supports(boxes)


def random_order(rng: random.Random, n: int) -> Order:
    seq = list(range(n))
    rng.shuffle(seq)
    return Order(tuple(seq))


def random_suffix_law(rng: random.Random, max_boxes: int = 4, max_support: int = 4) -> DiscreteDistribution:
    if rng.random() < 0.05:
        return suffix_max([])
    inst = random_instance(rng, max_boxes, max_support)
    return suffix_max(inst.distributions)


def enumerate_max_law(dists):
    """Independent oracle: build the max law by enumerating all profiles."""
    acc: dict[float, float] = {}
    for combo in itertools.product(*[d.outcomes for d in dists]):
        prob = math.prod(p for _, p in combo)
        top = max(v for v, _ in combo)
        acc[top] = acc.get(top, 0.0) + prob
    return tuple(sorted((v, p) for v, p in acc.items()))


@lru_cache(maxsize=None)
def guarantee_corpus() -> tuple[Instance, ...]:
    """200 unique-max instances, n <= 6, support size <= 4."""
    rng = random.Random(GUARANTEE_CORPUS_SEED)
    return tuple(random_instance(rng, 6, 4) for _ in range(200))


@lru_cache(maxsize=None)
def oracle_corpus() -> tuple[Instance, ...]:
    """100 unique-max instances, n <= 4, support size <= 3."""
    rng = random.Random(ORACLE_CORPUS_SEED)
    return tuple(random_instance(rng, 4, 3) for _ in range(100))


AUDIT_SLACK = 1e-9


@dataclass(frozen=True)
class ContinuationAuditRow:
    t: int
    alg_suffix_value: float
    beta: float
    alpha: float
    ok_alg_vs_beta: bool
    ok_beta_vs_alpha: bool

    @property
    def passed(self) -> bool:
        return self.ok_alg_vs_beta and self.ok_beta_vs_alpha


def continuation_audit(instance: Instance, order: Order) -> list[ContinuationAuditRow]:
    """Check, at every position t, that the adaptive policy's continuation value
    dominates beta_t, and that beta_t >= E[y_t] / phi^2.

    ``alg_suffix_value`` is the exact expected value of the adaptive policy run
    on positions t+1..n alone; the t = n row is the (0, 0, 0) boundary. These
    values come from one walk from the back of the order: the value from
    position t on is E[y_t if y_t >= tau_t else (value from t+1 on)], where
    tau_t depends only on the boxes after t, so it is the same threshold the
    policy uses on the suffix as an instance of its own.
    """
    validate_order(instance, order)
    golden = GoldenPolicy(instance)
    golden.warm(order)
    seq = order.sequence
    rows: list[ContinuationAuditRow] = []
    after = 0.0  # value of the policy on positions t+1..n
    for t in range(instance.n, 0, -1):
        triple = golden.triple(frozenset(seq[t:]))
        rows.append(
            ContinuationAuditRow(
                t=t,
                alg_suffix_value=after,
                beta=triple.beta,
                alpha=triple.alpha,
                ok_alg_vs_beta=after >= triple.beta - AUDIT_SLACK,
                ok_beta_vs_alpha=triple.beta >= triple.alpha / PHI - AUDIT_SLACK,
            )
        )
        after = math.fsum(
            p * (v if v >= triple.tau else after) for v, p in instance.box(seq[t - 1]).outcomes
        )
    rows.reverse()
    return rows
