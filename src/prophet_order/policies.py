"""Stopping rules behind one decision interface.

Order-unaware policies (adaptive golden-ratio thresholds, max-probability rule)
read only the set of boxes still to come; order-aware optima are built for one
fixed order by backward induction and keep thresholds per position (two for
win probability). The context carries no order, so no policy can learn it.
Internal caches are keyed on context fields and keep the first value computed
for a key. The max-probability rule multiplies in ascending box id, so its
value for a set does not depend on how the set was built. The golden rule's
law of a set extends the law of the set after it in :meth:`GoldenPolicy.warm`,
which each evaluator calls for its order before it asks the rule anything, and
is built in ascending box id when a caller asks first. Its tau may differ by
rounding between the orders (or the callers) that first reach the set.

Tie-breaking is uniform across policies: accept on threshold equality. The
max-probability rule additionally requires the current value to strictly
exceed the running prefix maximum, so a value merely equal to the baseline is
rejected.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import DiscreteDistribution, Instance, Order, ValidationError, validate_instance, validate_order
from .thresholds import (
    LAMBDA,
    ThresholdTriple,
    carry_win_factors,
    classic_thresholds,
    suffix_max,
    threshold_triple,
    win_factor,
)


class DecisionContext(NamedTuple):
    """What a policy sees when a box arrives.

    ``position`` is 1-based. ``prefix_max`` is the running maximum of the
    baseline and every value observed before this one.
    """

    position: int
    current_value: float
    prefix_max: float
    remaining_boxes: frozenset[int]


class Policy:
    """Base stopping rule. Subclasses implement :meth:`decide`.

    :meth:`decide` must be a function of its context: ``brute_force`` and
    ``monte_carlo`` ask each distinct decision once per call and reuse the
    answer. A rule that states its shape subclasses :class:`ThresholdRule` or
    :class:`NewMaxRule` instead, whose :meth:`decide` is derived from what the
    rule states and is not overridden; the evaluators read that shape by type.
    """

    kind: str = "custom"

    def decide(self, ctx: DecisionContext) -> bool:
        raise NotImplementedError


class ThresholdRule(Policy):
    """Take a value iff it meets :meth:`threshold_at` (position, remaining set).

    The decision never reads ``prefix_max``, so the exact pass keeps one state
    per position under expectation, reads :meth:`thresholds_along` under win
    probability, and ``monte_carlo`` keys its decisions by position and value.
    """

    def threshold_at(self, position: int, remaining_boxes: frozenset[int]) -> float:
        raise NotImplementedError

    def thresholds_along(self, order: Order) -> Iterable[float]:
        """:meth:`threshold_at` at each position of ``order``, given the set after it, read lazily.

        A rule whose threshold ignores the set may override this to build none.
        """
        seq = order.sequence
        return (self.threshold_at(t, frozenset(seq[t:])) for t in range(1, len(seq) + 1))

    def decide(self, ctx: DecisionContext) -> bool:
        return ctx.current_value >= self.threshold_at(ctx.position, ctx.remaining_boxes)


class NewMaxRule(Policy):
    """Take a new maximum iff :meth:`takes_new_max`, any other value iff the
    prefix max is >= :meth:`old_max_cut` (never, by default).

    Neither answer reads more than its arguments, so the exact pass asks once
    per outcome and reads one cut per position, and ``monte_carlo`` keys a new
    maximum by (position, value) and any other value by (position, prefix max).
    """

    def takes_new_max(self, position: int, value: float, remaining_boxes: frozenset[int]) -> bool:
        raise NotImplementedError

    def old_max_cut(self, position: int, remaining_boxes: frozenset[int]) -> float:
        return math.inf

    def decide(self, ctx: DecisionContext) -> bool:
        if ctx.current_value > ctx.prefix_max:
            return self.takes_new_max(ctx.position, ctx.current_value, ctx.remaining_boxes)
        return ctx.prefix_max >= self.old_max_cut(ctx.position, ctx.remaining_boxes)


class GoldenPolicy(ThresholdRule):
    """Accept the current value iff it meets tau = max(alpha, beta).

    Both thresholds are recomputed from the boxes still to come, so the rule
    is order-unaware: only the *set* of remaining boxes matters. With no boxes
    left tau is 0 and anything (including 0) is accepted.

    Triples are cached by set; no law is kept. :meth:`warm` fills the cache
    for the sets of one order, and every evaluator calls it first; a set that
    a direct caller reaches first has its law built from scratch, in
    ascending box id.
    """

    kind = "golden"

    def __init__(self, instance: Instance):
        self.instance = instance
        self._triples: dict[frozenset[int], ThresholdTriple] = {}

    def triple(self, remaining_boxes: frozenset[int]) -> ThresholdTriple:
        cached = self._triples.get(remaining_boxes)
        if cached is None:
            law = suffix_max(self.instance.box(b) for b in sorted(remaining_boxes))
            cached = self._triples[remaining_boxes] = threshold_triple(law)
        return cached

    def warm(self, order: Order) -> None:
        """Compute the triples of the sets left after each position of ``order``.

        The sets are walked from the back, where each is the one after it plus
        a box, so each law extends the one before it: O(support points) per
        set, not per box. Skipped when the largest set is cached already, as
        it is for every order but a few in a sweep.
        """
        seq = order.sequence
        if frozenset(seq[1:]) in self._triples:
            return
        law = suffix_max(())
        for t in range(len(seq), 0, -1):
            if t < len(seq):
                law = suffix_max((law, self.instance.box(seq[t])))
            boxes = frozenset(seq[t:])
            if boxes not in self._triples:
                self._triples[boxes] = threshold_triple(law)

    def threshold_at(self, position: int, remaining_boxes: frozenset[int]) -> float:
        return self.triple(remaining_boxes).tau


class MaxProbPolicy(NewMaxRule):
    """Accept a new running maximum once the future stays below it w.p. >= lambda.

    The box is taken iff its value strictly exceeds the prefix maximum and the
    probability that every remaining box stays strictly below it is at least
    lambda. Both conditions read only the remaining set, so the rule is
    order-unaware. The evaluators start the prefix maximum at the objective's
    baseline; ``baseline`` is accepted only as 0.0, for positional callers.

    The test needs the product only until it falls below lambda:
    :meth:`takes_new_max` stops it there (``win_factor``'s ``stop_below``),
    reading the set in ascending box id, and caches its yes or no per (set,
    value).
    """

    kind = "maxprob"

    def __init__(self, instance: Instance, baseline: float = 0.0):
        if baseline != 0.0:
            raise ValueError(f"the rule takes no baseline ({baseline!r}): it comes from the objective")
        self.instance = instance
        self._accepts: dict[tuple[frozenset[int], float], bool] = {}

    def takes_new_max(self, position: int, value: float, remaining_boxes: frozenset[int]) -> bool:
        key = (remaining_boxes, value)
        cached = self._accepts.get(key)
        if cached is None:
            below = win_factor(map(self.instance.box, sorted(remaining_boxes)), value, LAMBDA)
            cached = self._accepts[key] = below >= LAMBDA
        return cached


def opt_expectation_thresholds(instance: Instance, order: Order) -> list[float]:
    """Backward-induction thresholds for the expectation objective.

    tau*[t] is the expected value of optimal play on positions t+1..n, so the
    box at position t is accepted iff its value >= tau*[t]; tau*[n] = 0.
    """
    validate_order(instance, order)
    n = instance.n
    taus = [0.0] * n
    cont = 0.0  # optimal continuation value from position t+1 onward
    for t in range(n - 1, 0, -1):
        cont = _step_back(instance.box(order.sequence[t]), cont)
        taus[t - 1] = cont
    return taus


def _step_back(box: DiscreteDistribution, cont: float) -> float:
    """Value of optimal play from ``box`` on, given continuation value ``cont`` after it."""
    return math.fsum(p * (v if v >= cont else cont) for v, p in box.outcomes)


class OptExpectationPolicy(ThresholdRule):
    """The optimal order-aware rule for maximizing the expected accepted value.

    ``value`` is the backward induction carried one step further, to the first
    box: the expected accepted value of optimal play on the whole order.
    """

    kind = "opt-exp"

    def __init__(self, instance: Instance, order: Order):
        self.instance = instance
        self.order = order
        self.thresholds = opt_expectation_thresholds(instance, order)
        self.value = _step_back(instance.box(order.sequence[0]), self.thresholds[0])

    def threshold_at(self, position: int, remaining_boxes: frozenset[int]) -> float:
        return self.thresholds[position - 1]


class OptMaxProbPolicy(NewMaxRule):
    """The optimal order-aware rule for catching the maximum value.

    Backward induction over states (position, prefix max), the prefix max
    ranging over the grid of 0 and every support value. Accepting v at
    position t wins w.p. [v > prefix_max] * P[all later boxes < v]; the rule
    accepts iff that payoff is >= the continuation value (ties go to accept).
    The build keeps two lists indexed by grid point: the row after the
    current position, and the win factors P[all later boxes < v], carried
    back one box per position (``thresholds.carry_win_factors``). Bit for
    bit, a row does not increase in the prefix max and the payoff does not
    decrease in v, so the rule is two thresholds per position: a new maximum
    v is taken iff v >= ``take_from[t]``, any other value iff the prefix max
    is >= ``dead_from[t]`` (its :meth:`old_max_cut`), the least grid point
    from which positions t+1..n win nothing.

    No decision reads a baseline: the evaluators start the prefix max at the
    objective's. ``baseline`` only picks ``win_probability``: the first row's
    entry at the grid point at or below it, which is bit for bit what a grid
    holding the baseline itself gives, as no support value lies between them.
    ``order_ratio_sweep`` runs the row step, :func:`_maxprob_row`, once per
    suffix its orders share, summed only at the prefix maxima its position
    can reach. A build sums every grid point, as ``decide`` snaps any prefix
    max down to the grid and the snap can land on any point.

    Requires a unique-max-valid instance (no positive value shared between two
    boxes).
    """

    kind = "opt-maxprob"

    def __init__(self, instance: Instance, order: Order, baseline: float = 0.0):
        if not math.isfinite(baseline) or baseline < 0.0:
            raise ValueError(f"baseline must be finite and >= 0, got {baseline!r}")
        validate_instance(instance)
        validate_order(instance, order)
        self.instance = instance
        self.order = order

        n = instance.n
        seq = order.sequence
        grid, index = _maxprob_grid(instance)
        size = len(grid)
        self.take_from = take_from = [math.inf] * (n + 1)  # index 0 unused
        self.dead_from = dead_from = [math.inf] * n + [0.0]
        nxt, dead, below = [0.0] * size, 0, [1.0] * size  # after position n: nothing left to win
        for t in range(n, 0, -1):
            box = instance.box(seq[t - 1])
            nxt, dead, take_from[t] = _maxprob_row(grid, index, box, nxt, dead, below, range(size))
            if dead < size:
                dead_from[t - 1] = grid[dead]
            if t > 1:
                carry_win_factors(below, grid, box)
        self.win_probability = nxt[bisect_right(grid, baseline) - 1]

    def takes_new_max(self, position: int, value: float, remaining_boxes: frozenset[int]) -> bool:
        return value >= self.take_from[position]

    def old_max_cut(self, position: int, remaining_boxes: frozenset[int]) -> float:
        # A value that is no new maximum wins nothing: take it iff waiting
        # wins nothing either. dead_from is a grid point, so an off-grid
        # prefix max compares as its snap down to the grid would.
        return self.dead_from[position]


def _maxprob_grid(instance: Instance) -> tuple[list[float], dict[float, int]]:
    """The optimum's grid (0 and every support value, sorted) and each point's index."""
    grid = sorted({0.0} | {v for d in instance.distributions for v in d.values})
    return grid, {v: i for i, v in enumerate(grid)}


def _maxprob_row(grid: Sequence[float], index: dict[float, int], box: DiscreteDistribution,
                 nxt: Sequence[float], dead: int, below: Sequence[float],
                 reach: Sequence[int]) -> tuple[list[float], int, float]:
    """One position of :class:`OptMaxProbPolicy`'s backward induction: its row, first zero and ``take_from``.

    ``nxt[i]`` is the win probability of optimal play after the position from
    prefix max ``grid[i]``, ``dead`` its first zero (``len(grid)`` if none),
    and ``below[i]`` P[every later box < grid[i]].

    ``reach`` lists in ascending order the grid indices of the prefix maxima
    that can occur before the box: the whole grid for a build. Only those
    entries are summed, the others stay 0.0, and the first zero returned is
    the least summed one. Each summed entry is the full row's, bit for bit,
    when ``nxt`` holds the full row's values at every prefix max that can
    occur after the box (an entry at theta reads ``nxt`` at theta and at the
    box's values above theta) and the full ``nxt`` is 0.0 from ``dead`` on.
    Over a part of the grid, the ``take_from`` returned is not the rule's.
    """
    # A new maximum v contributes p * max(win, nxt[v]) whatever the prefix
    # max theta; a value at or below theta wins nothing and contributes
    # p * nxt[theta].
    take = math.inf
    outcomes = []
    for v, p in box.outcomes:
        i = index[v]
        win, cont = below[i], nxt[i]
        if win >= cont:
            take = min(take, v)
        outcomes.append((v, p, p * (win if win >= cont else cont)))
    # Bit for bit a row does not increase in theta (see the class docstring;
    # decide relies on it too), so nxt is 0.0 from dead on. Where theta is
    # also at or above the box's largest value, every outcome contributes
    # p * 0.0 and the entry stays 0.0 unsummed.
    top = max(index[box.values[-1]], dead)
    row = [0.0] * len(grid)
    dead = top
    # Over a part of the grid, top may lie above the full row's (dead is the
    # least summed zero); an entry between the two sums p * 0.0 = 0.0, as the
    # full row holds it.
    for i in reversed(reach[:bisect_left(reach, top)]):
        theta, cont = grid[i], nxt[i]
        total = 0.0
        for v, p, fresh in outcomes:
            total += p * cont if v <= theta else fresh
        row[i] = total
        if total == 0.0:
            dead = i
    return row, dead, take


class SingleThresholdPolicy(ThresholdRule):
    """Accept the first value >= a fixed threshold."""

    def __init__(self, threshold: float, kind: str = "threshold"):
        if not threshold >= 0.0:
            raise ValueError(f"threshold must be >= 0, got {threshold!r}")
        self.threshold = threshold
        self.kind = kind

    def threshold_at(self, position: int, remaining_boxes: frozenset[int]) -> float:
        return self.threshold

    def thresholds_along(self, order: Order) -> list[float]:
        return [self.threshold] * len(order.sequence)


def _needs_order(name: str, order: Order | None) -> Order:
    if order is None:
        raise ValidationError(f"policy {name!r} is order-aware and needs an order")
    return order


# Every spec but ``threshold:<T>``: a bare name and how to build its policy
# from (instance, order).
_PLAIN_SPECS: dict[str, Callable[[Instance, Order | None], Policy]] = {
    "golden": lambda inst, order: GoldenPolicy(inst),
    "maxprob": lambda inst, order: MaxProbPolicy(inst),
    "opt-exp": lambda inst, order: OptExpectationPolicy(inst, _needs_order("opt-exp", order)),
    "opt-maxprob": lambda inst, order: OptMaxProbPolicy(inst, _needs_order("opt-maxprob", order)),
    "median": lambda inst, order: SingleThresholdPolicy(
        classic_thresholds(inst).median_of_max, kind="median"
    ),
    "half-emax": lambda inst, order: SingleThresholdPolicy(
        classic_thresholds(inst).half_expected_max, kind="half-emax"
    ),
    "inv-e": lambda inst, order: SingleThresholdPolicy(
        classic_thresholds(inst).inv_e_quantile, kind="inv-e"
    ),
}


def make_policy(spec: str, instance: Instance, order: Order | None = None) -> Policy:
    """Build a policy from its CLI spec string.

    Recognized: ``golden``, ``maxprob``, ``opt-exp``, ``opt-maxprob``,
    ``threshold:<T>``, ``median``, ``half-emax``, ``inv-e``. Order-aware kinds
    require ``order``. Rules are built without the win-probability baseline,
    which the evaluators read from the objective. Only ``threshold`` takes a
    ``:suffix``; one on any other spec is rejected.
    """
    name, sep, arg = spec.partition(":")
    name = name.strip()
    if name == "threshold":
        if not arg:
            raise ValidationError("policy 'threshold' needs a value, e.g. threshold:1.5")
        return SingleThresholdPolicy(float(arg))
    build = _PLAIN_SPECS.get(name)
    if build is None:
        raise ValidationError(f"unknown policy spec {spec!r}")
    if sep:
        hint = "only 'threshold' takes one"
        if name in ("maxprob", "opt-maxprob"):
            hint = f"its baseline comes from the objective, set it with --obj winprob:{arg or 'THETA'}"
        raise ValidationError(f"policy {name!r} takes no suffix: {hint}")
    return build(instance, order)
