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
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    CapExceededError,
    DiscreteDistribution,
    Instance,
    Order,
    ValidationError,
    validate_instance,
    validate_order,
)
from .policies import (
    DecisionContext,
    GoldenPolicy,
    NewMaxRule,
    Policy,
    ThresholdRule,
    _maxprob_grid,
    _maxprob_row,
    _step_back,
)
from .thresholds import carry_win_factors, win_factor

STATE_CAP = 1_000_000
PROFILE_CAP = 1_000_000
DEFAULT_PERM_CAP = 8


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

    A rule built for another instance or order is refused with
    :class:`ValidationError`; the baseline is the objective's alone.
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
    if isinstance(policy, GoldenPolicy):
        policy.warm(order)


def _clamp_prob(x: float) -> float:
    return 0.0 if x < 0.0 else (1.0 if x > 1.0 else x)


def eval_exact(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """Exact performance of ``policy`` on ``order``, no sampling involved.

    A :class:`ThresholdRule` under win probability is read off its thresholds
    along the order (:func:`_threshold_winprob`). Every other value comes from
    one forward pass over states (position, prefix max), where a
    :class:`ThresholdRule` keeps a single state, a :class:`NewMaxRule` is
    asked once per outcome and for one cut per position, never ``decide``,
    and any other rule once per (state, outcome) pair. The pass raises
    :class:`CapExceededError` once the states it holds beyond one per
    position, summed over positions, exceed ``STATE_CAP``; use
    :func:`monte_carlo` on such inputs. A :class:`GoldenPolicy` arrives
    warmed for the order by the shared input check.
    """
    _check_inputs(instance, order, policy, objective)
    if objective.is_winprob and isinstance(policy, ThresholdRule):
        value = _threshold_winprob(instance, order, policy.thresholds_along(order), objective.baseline)
        return EvalResult(_clamp_prob(value), "exact-dp")
    return _state_dp(instance, order, policy, objective)


def _threshold_winprob(instance: Instance, order: Order, thresholds: Iterable[float], baseline: float) -> float:
    """Win probability of taking v at position t iff v >= tau_t, the t-th of ``thresholds``.

    A NaN tau reads as +inf, as ``decide`` takes no value at it. Forward to
    the first box that leaves no mass: each winnable value v (v >= tau_t and
    v > baseline) with the mass of reaching t below v, the product over s < t
    of P[y_s < min(v, tau_s)]: the running pass mass where v meets every
    earlier tau, else a product taken first to last. Back from the last box to
    the first such position: P[every later box < v] carried over the sorted
    winnable values, read at a position before its box.
    """
    seq = order.sequence
    reached: dict[int, list[tuple[float, float, float]]] = {}  # t -> (v, p, mass) per winnable v
    taus: list[float] = []
    top = -math.inf  # the largest tau before the position
    pass_mass = 1.0
    for t, (bid, tau) in enumerate(zip(seq, thresholds), start=1):
        tau = math.inf if tau != tau else tau
        box = instance.box(bid)
        # A box's values ascend, so its largest tells whether it holds a winnable one.
        if box.values[-1] >= tau and box.values[-1] > baseline:
            reached[t] = [(v, p, pass_mass if v >= top else math.prod(
                instance.box(b).prob_below(min(v, s)) for b, s in zip(seq, taus)
            )) for v, p in box.outcomes if v >= tau and v > baseline]
        pass_mass *= box.prob_below(tau)
        if pass_mass == 0.0:
            break
        taus.append(tau)
        top = tau if tau > top else top
    # A winnable value is positive, and validate_instance makes a positive
    # value unique to its box, so each grid value is read at one position.
    grid = sorted(v for triples in reached.values() for v, _, _ in triples)
    acc = [1.0] * len(grid)
    win: dict[float, float] = {}
    carried = len(seq)  # acc holds the win factors at position `carried`
    for t in reversed(reached):
        for bid in reversed(seq[t:carried]):
            carry_win_factors(acc, grid, instance.box(bid))
        carried = t
        win.update((v, acc[bisect_left(grid, v)]) for v, _, _ in reached[t])
    total = 0.0
    for triples in reached.values():
        for v, p, mass in triples:
            total += mass * p * win[v]
    return total


def _state_dp(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """The forward pass of :func:`eval_exact` over states (position, prefix max).

    It is never given a :class:`ThresholdRule` under win probability. It
    builds a position's remaining set on reaching it, and pays an accepted new
    maximum v the :func:`win_factor` of the later boxes, the last first. A
    :class:`NewMaxRule` answers each pair from its answers per outcome and its
    cut, as its derived ``decide`` would, and every sum runs as in the pass
    that asks once per pair, so the value is bit-identical to it.
    """
    n = instance.n
    winprob = objective.is_winprob
    tracked = not isinstance(policy, ThresholdRule)
    split = isinstance(policy, NewMaxRule)
    seq = order.sequence
    decide = policy.decide
    theta0 = objective.baseline
    states: dict[float, float] = {theta0: 1.0}
    extra = 0  # states held beyond one per position, summed over positions
    total = 0.0
    for pos in range(1, n + 1):
        outcomes = instance.box(seq[pos - 1]).outcomes
        remaining = frozenset(seq[pos:])
        # Every state is >= theta0, so a value that is a new maximum over any
        # state is one over theta0.
        if split:
            fresh = {v: policy.takes_new_max(pos, v, remaining) for v, _ in outcomes if v > theta0}
            cut = policy.old_max_cut(pos, remaining)
        factors: dict[float, float] = {}  # P[all later boxes < v], per accepted v
        nxt: dict[float, float] = {}
        for theta, mass in states.items():
            for v, p in outcomes:
                if split:
                    accept = fresh[v] if v > theta else theta >= cut
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


def _payoffs(
    order: Order,
    policy: Policy,
    objective: Objective,
    profiles: Iterable[Sequence[float]],
    trusted: bool,
) -> Iterator[float]:
    """Yield the payoff of each profile (values by box id) in turn.

    The remaining set at a position is the same in every profile, so the rule
    is asked once per distinct decision: per whole context (position, value,
    prefix max), or with ``trusted`` per what its type reads (see
    :class:`ThresholdRule` and :class:`NewMaxRule`); a position's remaining
    set is built on its first miss.
    """
    seq = order.sequence
    n = len(seq)
    rem: dict[int, frozenset[int]] = {}
    decide = policy.decide
    winprob = objective.is_winprob
    fresh_only = trusted and isinstance(policy, ThresholdRule)
    split = trusted and isinstance(policy, NewMaxRule)
    memo: dict[tuple, bool] = {}
    for values in profiles:
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
                if pos not in rem:
                    rem[pos] = frozenset(seq[pos:])
                accept = memo[key] = decide(DecisionContext(pos, v, prefix, rem[pos]))
            if accept:
                if not winprob:
                    payoff = v
                elif v > prefix and (pos == n or max(map(values.__getitem__, seq[pos:])) < v):
                    payoff = 1.0
                break
            if v > prefix:
                prefix = v
        yield payoff


def brute_force(instance: Instance, order: Order, policy: Policy, objective: Objective) -> EvalResult:
    """Enumerate every value profile with its probability and simulate the policy.

    Independent of :func:`eval_exact`; serves as its oracle on small inputs.
    It reads only ``decide``, once per whole context, whatever the rule's type.
    """
    _check_inputs(instance, order, policy, objective)
    dists = instance.distributions
    n_profiles = math.prod(len(d.outcomes) for d in dists)
    if n_profiles > PROFILE_CAP:
        raise CapExceededError(
            f"{n_profiles} profiles exceed cap {PROFILE_CAP}; use monte_carlo or eval_exact"
        )
    profiles = itertools.product(*[d.values for d in dists])
    weights = itertools.product(*[d.probabilities for d in dists])
    total = 0.0
    for payoff, probs in zip(_payoffs(order, policy, objective, profiles, False), weights):
        if payoff:
            total += math.prod(probs) * payoff
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
    order, asking ``decide`` once per distinct decision in a call, keyed by
    what the rule's type reads (see :class:`Policy`).

    The sums run on payoffs divided by 2^(e - 1), e the ``frexp`` exponent of
    the largest payoff possible, so no square overflows; the scaling is exact.
    """
    if samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    _check_inputs(instance, order, policy, objective)
    rng = random.Random(seed)
    dists = instance.distributions
    draws = map(DiscreteDistribution.sample, itertools.cycle(dists), itertools.repeat(rng))
    profiles = itertools.islice(zip(*[draws] * len(dists)), samples)
    top = 1.0 if objective.is_winprob else max(d.values[-1] for d in dists)
    scale = math.ldexp(1.0, math.frexp(top)[1] - 1)
    s1 = 0.0
    s2 = 0.0
    for payoff in _payoffs(order, policy, objective, profiles, True):
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
    (``OptExpectationPolicy.value``, or ``OptMaxProbPolicy.win_probability``
    at the objective's baseline), bit for bit, computed once per suffix the
    orders share. Orders where the optimum is 0 are recorded with ratio 1
    and flagged degenerate instead of being dropped. An empty ``orders``, or a
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
    i.e. the baseline (at ``floor``, the grid point at or below it) and every
    value above it of the other boxes. Each row is summed only there (see
    :func:`_maxprob_row`), which leaves the start entry bit for bit as a
    full build has it.
    """
    n = instance.n
    winprob = objective.is_winprob
    start = 0.0
    if winprob:
        grid, index = _maxprob_grid(instance)
        floor = bisect_right(grid, objective.baseline) - 1
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
