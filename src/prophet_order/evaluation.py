"""Exact, enumerated, and sampled evaluation of stopping rules, plus ratio sweeps.

Three independent routes compute a policy's performance on a fixed arrival
order: an exact forward pass (``eval_exact``), full profile enumeration
(``brute_force``), and seeded sampling (``monte_carlo``). The first two must
agree to 1e-12 on any input both can handle; tests rely on that redundancy.
All three enter through one check of their inputs, which also prepares the
rule for the order, so each route is left only its own work. Their resource
caps are the module constants ``STATE_CAP`` and ``PROFILE_CAP``.

Win-probability semantics: a run wins iff the accepted value strictly exceeds
the baseline and every other realized value. Instances where a positive value
appears in two boxes are rejected for this objective rather than tie-broken.
"""

from __future__ import annotations

import itertools
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Instance, Order, ValidationError, validate_instance, validate_order
from .policies import (
    DecisionContext,
    GoldenPolicy,
    Policy,
    SingleThresholdPolicy,
    _maxprob_grid,
    _maxprob_row,
    _step_back,
)
from .thresholds import carry_win_factors, win_factor

STATE_CAP = 1_000_000
PROFILE_CAP = 1_000_000
DEFAULT_PERM_CAP = 8


class CapExceededError(RuntimeError):
    """A configured resource cap would be exceeded; pick a cheaper route."""


@dataclass(frozen=True)
class Objective:
    """What to maximize: expected accepted value, or the chance of catching the max.

    ``kind`` is ``"expectation"`` or ``"winprob"``. ``baseline`` is the
    standing value the accepted box must strictly exceed for the
    win-probability objective; under expectation it must be 0.
    """

    kind: str
    baseline: float = 0.0

    EXPECTATION = "expectation"
    WINPROB = "winprob"

    def __post_init__(self) -> None:
        if self.kind not in (self.EXPECTATION, self.WINPROB):
            raise ValidationError(f"objective kind {self.kind!r} is not expectation or winprob")
        if not math.isfinite(self.baseline) or self.baseline < 0.0:
            raise ValidationError(f"baseline must be finite and >= 0, got {self.baseline!r}")
        if self.kind == self.EXPECTATION and self.baseline != 0.0:
            raise ValidationError(f"the expectation objective takes no baseline, got {self.baseline!r}")

    @classmethod
    def expectation(cls) -> "Objective":
        return cls(cls.EXPECTATION)

    @classmethod
    def winprob(cls, baseline: float = 0.0) -> "Objective":
        return cls(cls.WINPROB, baseline)

    @property
    def is_winprob(self) -> bool:
        return self.kind == self.WINPROB

    @classmethod
    def parse(cls, text: str) -> "Objective":
        name, colon, arg = text.partition(":")
        if name == "expectation" and not colon:
            return cls.expectation()
        if name == "winprob" and (arg or not colon):
            try:
                theta = float(arg) if arg else 0.0
            except ValueError:
                pass
            else:
                return cls.winprob(theta)
        raise ValidationError(f"objective {text!r} is not expectation, winprob or winprob:THETA")


@dataclass(frozen=True)
class EvalResult:
    value: float
    method: str  # "exact-dp" | "brute-force" | "monte-carlo"
    samples: Optional[int] = None
    stderr: Optional[float] = None


def _check_inputs(instance: Instance, order: Order, policy: Policy, objective: Objective) -> None:
    """Validate what every route reads, then prepare ``policy`` for ``order``.

    A rule built for another instance or order, or with a floor (``baseline``)
    above the objective's baseline, is refused with :class:`ValidationError`.
    A :class:`GoldenPolicy` computes its thresholds from the back of the order
    (:meth:`GoldenPolicy.warm`), so each route reads the same tau for a set
    whichever route runs first on a fresh rule.
    """
    validate_order(instance, order)
    if objective.is_winprob:
        validate_instance(instance)
    # A rule built for one instance (or order) silently misreads another.
    for name, given in (("instance", instance), ("order", order)):
        built = getattr(policy, name, given)
        if built is not given and built != given:
            raise ValidationError(f"the {policy.kind} policy was built for another {name}")
    # A floor above the objective's baseline refuses values the objective
    # still rewards; one below it is never read, as every prefix max is >= it.
    if getattr(policy, "baseline", objective.baseline) > objective.baseline:
        raise ValidationError(
            f"the {policy.kind} policy was built for another baseline "
            f"({policy.baseline!r} > {objective.baseline!r})"
        )
    if isinstance(policy, GoldenPolicy):
        policy.warm(order)


def _remaining_sets(order: Order) -> list[frozenset[int]]:
    seq = order.sequence
    return [frozenset(seq[pos:]) for pos in range(1, len(seq) + 1)]


def _clamp_prob(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def eval_exact(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """Exact performance of ``policy`` on ``order``, no sampling involved.

    One forward pass over states (position, prefix max) computes every value
    but one: a fixed-threshold policy under win probability reduces to
    prefix/suffix products (everything the rule passes is strictly below its
    threshold, hence below anything it accepts). A policy that does not read
    the prefix max keeps a single state under expectation, and one that
    declares ``splits_on_new_max`` is asked once per outcome and once per
    state at a position, not once per pair. The pass counts the states it
    holds beyond one per position, summed over positions, and raises
    :class:`CapExceededError` once that count exceeds ``STATE_CAP``; use
    :func:`monte_carlo` on such inputs. A :class:`GoldenPolicy` arrives warmed
    for the order by the shared input check, so the pass finds its
    thresholds cached.
    """
    _check_inputs(instance, order, policy, objective)
    if isinstance(policy, SingleThresholdPolicy) and objective.is_winprob:
        value = _threshold_winprob(instance, order, policy.threshold, objective.baseline)
        return EvalResult(_clamp_prob(value), "exact-dp")
    return _state_dp(instance, order, policy, objective)


def _threshold_winprob(instance: Instance, order: Order, threshold: float, baseline: float) -> float:
    """Win probability of a fixed threshold, by one walk forward and one back.

    Forward to the first box that leaves no mass: each position holding a
    winnable value, with the mass of passing the boxes before it. Back from
    the last box to the first such position: P[every later box < v] carried
    over the sorted winnable values, read at a position before its box.
    """

    def winnable(v: float) -> bool:
        return v >= threshold and v > baseline

    seq = order.sequence
    # A box's values ascend, so its largest tells whether it holds a winnable one.
    reached: dict[int, tuple[float, list[tuple[float, float]]]] = {}
    pass_mass = 1.0
    for t, bid in enumerate(seq, start=1):
        box = instance.box(bid)
        if winnable(box.values[-1]):
            reached[t] = (pass_mass, [(v, p) for v, p in box.outcomes if winnable(v)])
        pass_mass *= box.prob_below(threshold)
        if pass_mass == 0.0:
            break
    # A winnable value is positive, and validate_instance makes a positive
    # value unique to its box, so each grid value is read at one position.
    grid = sorted(v for _, pairs in reached.values() for v, _ in pairs)
    acc = [1.0] * len(grid)
    win: dict[float, float] = {}
    carried = len(seq)  # acc holds the win factors at position `carried`
    for t in reversed(reached):
        for bid in reversed(seq[t:carried]):
            carry_win_factors(acc, grid, instance.box(bid))
        carried = t
        win.update((v, acc[bisect_left(grid, v)]) for v, _ in reached[t][1])
    total = 0.0
    for pass_mass, pairs in reached.values():
        for v, p in pairs:
            total += pass_mass * p * win[v]
    return total


def _state_dp(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """The forward pass of :func:`eval_exact` over states (position, prefix max).

    It builds a position's remaining set on reaching it, and pays an accepted
    new maximum v the :func:`win_factor` of the later boxes, the last first.
    """
    n = instance.n
    winprob = objective.is_winprob
    tracked = winprob or policy.uses_prefix_max
    seq = order.sequence
    decide = policy.decide
    theta0 = objective.baseline
    states: dict[float, float] = {theta0: 1.0}
    extra = 0  # states held beyond one per position, summed over positions
    total = 0.0
    for pos in range(1, n + 1):
        outcomes = instance.box(seq[pos - 1]).outcomes
        remaining = frozenset(seq[pos:])
        # A rule that splits on a new maximum is asked once per outcome and
        # once per state wherever that is fewer calls than once per pair.
        # Every state is >= theta0, so a new maximum over any state is decided
        # as over theta0, and any other value as the state itself.
        held = len(states)
        split = policy.splits_on_new_max and held + len(outcomes) < held * len(outcomes)
        if split:
            fresh = {v: decide(DecisionContext(pos, v, theta0, remaining)) for v, _ in outcomes if v > theta0}
        factors: dict[float, float] = {}  # P[all later boxes < v], per accepted v
        nxt: dict[float, float] = {}
        for theta, mass in states.items():
            if split:
                stale = decide(DecisionContext(pos, theta, theta, remaining))
            for v, p in outcomes:
                if split:
                    accept = fresh[v] if v > theta else stale
                else:
                    accept = decide(DecisionContext(pos, v, theta, remaining))
                if accept:
                    if not winprob:
                        total += mass * p * v
                    elif v > theta:
                        factor = factors.get(v)
                        if factor is None:
                            factor = factors[v] = win_factor(map(instance.box, reversed(seq[pos:])), v)
                        total += mass * p * factor
                else:
                    key = v if v > theta and tracked else theta
                    nxt[key] = nxt.get(key, 0.0) + mass * p
        states = nxt
        if not states:
            break
        extra += len(states) - 1
        if extra > STATE_CAP:
            raise CapExceededError(
                f"the exact pass holds more than {STATE_CAP} states beyond one per position; "
                "use monte_carlo for an estimate"
            )
    return EvalResult(_clamp_prob(total) if winprob else total, "exact-dp")


def _walk(
    seq: Sequence[int],
    rem: Sequence[frozenset[int]],
    policy: Policy,
    objective: Objective,
    values: Sequence[float],
) -> float:
    """Payoff of one run on ``values`` (by box id), the rule asked at every position it reaches."""
    winprob = objective.is_winprob
    prefix = objective.baseline
    for pos in range(1, len(seq) + 1):
        bid = seq[pos - 1]
        v = values[bid]
        ctx = DecisionContext(pos, v, prefix, rem[pos - 1])
        if policy.decide(ctx):
            if not winprob:
                return v
            if v <= prefix:
                return 0.0
            return 1.0 if all(values[b] < v for b in rem[pos - 1]) else 0.0
        if v > prefix:
            prefix = v
    return 0.0


def brute_force(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """Enumerate every value profile with its probability and simulate the policy.

    Independent of :func:`eval_exact`; serves as its oracle on small inputs.
    """
    _check_inputs(instance, order, policy, objective)
    n_profiles = math.prod(len(d.outcomes) for d in instance.distributions)
    if n_profiles > PROFILE_CAP:
        raise CapExceededError(
            f"{n_profiles} profiles exceed cap {PROFILE_CAP}; use monte_carlo or eval_exact"
        )
    seq = order.sequence
    rem = _remaining_sets(order)
    total = 0.0
    for combo in itertools.product(*[d.outcomes for d in instance.distributions]):
        prob = math.prod(p for _, p in combo)
        values = tuple(v for v, _ in combo)
        payoff = _walk(seq, rem, policy, objective, values)
        if payoff:
            total += prob * payoff
    if objective.is_winprob:
        total = _clamp_prob(total)
    return EvalResult(total, "brute-force")


def monte_carlo(
    instance: Instance,
    order: Order,
    policy: Policy,
    objective: Objective,
    samples: int,
    seed: int,
) -> EvalResult:
    """Sampled estimate with standard error; reproducible from the seed.

    Each sample draws one value per box, in box-id order, and walks the
    order. The remaining set at a position is the same in every sample, so
    the walk asks the rule once per distinct decision in a call and keeps the
    answer: keyed by (position, value) for a rule that does not read the
    prefix max, by (position, value) on a new maximum and (position, prefix
    max) otherwise for one that ``splits_on_new_max``, and by (position,
    value, prefix max) for any other rule. The promises are those the exact
    pass relies on; :func:`brute_force` relies on neither.

    The sums run on payoffs divided by 2^(e - 1), e the ``frexp`` exponent of
    the largest payoff possible, so no square overflows; the scaling is exact.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    _check_inputs(instance, order, policy, objective)
    rng = random.Random(seed)
    seq = order.sequence
    n = len(seq)
    rem = _remaining_sets(order)
    dists = instance.distributions
    draws = [d.sample for d in dists]
    decide = policy.decide
    winprob = objective.is_winprob
    fresh_only = not policy.uses_prefix_max
    split = policy.splits_on_new_max
    top = 1.0 if winprob else max(d.values[-1] for d in dists)
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    memo: dict[tuple, bool] = {}
    s1 = 0.0
    s2 = 0.0
    for _ in range(samples):
        values = [draw(rng) for draw in draws]
        payoff = 0.0
        prefix = objective.baseline
        for pos in range(1, n + 1):
            v = values[seq[pos - 1]]
            if fresh_only:
                key = (pos, v)
            elif split:
                # A negative position keys a value that is no new maximum.
                key = (pos, v) if v > prefix else (-pos, prefix)
            else:
                key = (pos, v, prefix)
            accept = memo.get(key)
            if accept is None:
                accept = memo[key] = decide(DecisionContext(pos, v, prefix, rem[pos - 1]))
            if accept:
                if not winprob:
                    payoff = v
                elif v > prefix and (pos == n or max(map(values.__getitem__, seq[pos:])) < v):
                    payoff = 1.0
                break
            if v > prefix:
                prefix = v
        payoff /= scale
        s1 += payoff
        s2 += payoff * payoff
    mean = s1 / samples
    if samples > 1:
        var = max(0.0, (s2 - samples * mean * mean) / (samples - 1))
        stderr = math.sqrt(var / samples) * scale
    else:
        stderr = 0.0
    return EvalResult(mean * scale, "monte-carlo", samples=samples, stderr=stderr)


@dataclass(frozen=True)
class OrderRatio:
    order: Order
    alg: float
    opt: float
    ratio: float
    degenerate: bool
    method: str


@dataclass(frozen=True)
class RatioReport:
    per_order: tuple[OrderRatio, ...]
    min_ratio: float
    argmin_order: Order


def order_ratio_sweep(
    instance: Instance,
    policy: Policy,
    objective: Objective,
    *,
    orders: Optional[Sequence[Order]] = None,
    perm_cap: int = DEFAULT_PERM_CAP,
) -> RatioReport:
    """Ratio of ``policy`` to the order-aware optimum over arrival orders.

    Sweeps every permutation unless ``orders`` is given; rows come back in
    the given order. ``policy`` is reused unchanged and evaluated on every
    order by :func:`eval_exact` first, which validates each order. The optimum
    is the start value of the benchmark's own backward induction
    (:class:`OptExpectationPolicy` or :class:`OptMaxProbPolicy` at the
    objective's baseline), bit for bit, computed once per suffix the orders
    share. Orders where the optimum is 0 are recorded with ratio 1 and flagged
    degenerate instead of being dropped. An empty ``orders``, or a
    ``perm_cap`` below 1 when the sweep covers every permutation, raises
    :class:`ValidationError`; the cap is not read when ``orders`` is given.
    """
    if orders is None:
        if perm_cap < 1:
            raise ValidationError(f"perm_cap must be >= 1, got {perm_cap}")
        if instance.n > perm_cap:
            raise CapExceededError(
                f"n={instance.n} exceeds the permutation cap {perm_cap}; "
                "pass an explicit order list instead of sweeping all orders"
            )
        orders = [Order(perm) for perm in itertools.permutations(range(instance.n))]
    if not orders:
        raise ValidationError("the order list is empty; give at least one order")
    algs = [eval_exact(instance, order, policy, objective) for order in orders]
    rows = []
    for order, alg_res, opt in zip(orders, algs, _optima(instance, orders, objective)):
        degenerate = opt == 0.0
        ratio = 1.0 if degenerate else alg_res.value / opt
        rows.append(OrderRatio(order, alg_res.value, opt, ratio, degenerate, alg_res.method))
    worst = min(rows, key=lambda row: row.ratio)
    return RatioReport(tuple(rows), worst.ratio, worst.order)


def _optima(instance: Instance, orders: Sequence[Order], objective: Objective) -> list[float]:
    """The optimum of each of ``orders`` (all valid), computed once per distinct suffix.

    A state after position t reads only the suffix from t. Sorted by reversed
    sequence, orders that share a suffix sit together; a state is kept only
    while the next order reuses it.

    Under win probability the state after the last d boxes also holds their
    reach: the grid indices of the prefix maxima that can occur before them,
    i.e. the baseline and every value above it of the other boxes. Each row
    is summed only there (see :func:`_maxprob_row`), which leaves the start
    entry, at the baseline, bit for bit as a full build has it.
    """
    n = instance.n
    winprob = objective.is_winprob
    start = 0.0
    if winprob:
        grid, index = _maxprob_grid(instance, objective.baseline)
        floor = index[objective.baseline]
        start = ([0.0] * len(grid), 0, [1.0] * len(grid), list(range(floor, len(grid))))
    rank = sorted(range(len(orders)), key=lambda k: orders[k].sequence[::-1])
    opts = [0.0] * len(orders)
    states = [start]  # states[d]: the state after the last d boxes, while shared
    for j, k in enumerate(rank):
        seq = orders[k].sequence
        after = orders[rank[j + 1]].sequence if j + 1 < len(rank) else ()
        keep = next((d for d in range(len(after)) if seq[-1 - d] != after[-1 - d]), len(after))
        state = states[-1]
        for d in range(len(states), n + 1):
            box = instance.box(seq[-d])
            if winprob:
                # The state at d - 1 is read again if the next order shares it.
                below = state[2][:] if d - 1 <= keep and d < n else state[2]
                # eval_exact has run validate_instance, so a value above the
                # baseline is this box's alone and in the reach once.
                reach = state[3][:]
                for v in box.values:
                    if v > objective.baseline:
                        del reach[bisect_left(reach, index[v])]
                row, dead, _ = _maxprob_row(grid, index, box, state[0], state[1], below, reach)
                state = (row, dead, below, reach)
                if d < n:
                    carry_win_factors(below, grid, box)
            else:
                state = _step_back(box, state)
            if d <= keep:
                states.append(state)
        opts[k] = _clamp_prob(state[0][floor]) if winprob else state
        del states[keep + 1:]
    return opts
