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
from functools import lru_cache
from typing import Callable

from prophet_order import (
    DecisionContext,
    DiscreteDistribution,
    Instance,
    Objective,
    Order,
    Policy,
    suffix_max,
)

GUARANTEE_CORPUS_SEED = 0x5EED_0001
ORACLE_CORPUS_SEED = 0x5EED_0002


class FunctionPolicy(Policy):
    """Wrap an arbitrary decision function, for custom rules in tests."""

    def __init__(self, fn: Callable[[DecisionContext], bool], kind: str = "custom",
                 uses_prefix_max: bool = True):
        self._fn = fn
        self.kind = kind
        self.uses_prefix_max = uses_prefix_max

    def decide(self, ctx: DecisionContext) -> bool:
        return self._fn(ctx)


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
