"""Generators for the worst-case instance families and the fixed-threshold curve.

Each generator returns a :class:`FamilyInstance`: the boxes, the named arrival
orders the construction is about, the parameters used, and the limiting
constant the family approaches as its parameter goes to its extreme. Reports
quote both and the deviation, never asserting the limit as the finite value.
Most families only approach their constant at finite parameters;
``maxprob_lb`` sits on ln(1/lambda), up to rounding, at every n >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .core import CapExceededError, DiscreteDistribution, Instance, Order
from .thresholds import LAMBDA, LN_INV_LAMBDA, PHI

# golden_lb builds about (phi - 1) / step deterministic boxes and as many
# canonical orders of that length; past this count the orders alone would
# take gigabytes.
GOLDEN_LB_MAX_BOXES = 1000
# single_threshold_family builds n boxes of about 0.6 KB; at this count the
# family and its exact win probability take about a second and 80 MB.
SINGLE_THRESHOLD_MAX_BOXES = 100_000
# maxprob_lb lands P[every rare box is 0] within 1e-12 of lambda at every n
# up to this one and first misses at the next; above it, it misses some n and
# not others, so only a cap refuses n predictably.
MAXPROB_LB_MAX_BOXES = 20_299


@dataclass(frozen=True)
class FamilyInstance:
    name: str
    instance: Instance
    canonical_orders: tuple[tuple[str, Order], ...]
    parameters: dict
    predicted_limit: float
    limit_note: str

    def order(self, name: str) -> Order:
        for key, order in self.canonical_orders:
            if key == name:
                return order
        raise KeyError(name)


def hv_box(eps: float) -> DiscreteDistribution:
    """High-variance box: 1/eps with probability eps, else 0. Mean 1."""
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must be in (0, 1), got {eps!r}")
    return DiscreteDistribution.from_pairs([(0.0, 1.0 - eps), (1.0 / eps, eps)])


def example1(eps: float) -> FamilyInstance:
    """Three boxes: deterministic sqrt(2) and 1, plus a high-variance box.

    The two canonical orders differ in whether the high-variance box or the
    deterministic 1 follows the opening sqrt(2). As eps -> 0 the adaptive
    expectation policy's ratio against the order-aware optimum approaches
    1/sqrt(2) on the order that hides the high-variance box second.
    """
    root2 = math.sqrt(2.0)
    instance = Instance(
        (
            DiscreteDistribution.point(root2),
            DiscreteDistribution.point(1.0),
            hv_box(eps),
        )
    )
    return FamilyInstance(
        name="example1",
        instance=instance,
        canonical_orders=(
            ("order_a", Order((0, 2, 1))),  # sqrt(2), HV, 1
            ("order_b", Order((0, 1, 2))),  # sqrt(2), 1, HV
        ),
        parameters={"eps": eps},
        predicted_limit=1.0 / root2,
        limit_note="1/sqrt(2), the eps->0 ratio ceiling for deterministic order-unaware rules",
    )


def golden_lb(eps: float, step: float) -> FamilyInstance:
    """Descending deterministic values from phi down to 1, plus a high-variance box.

    Canonical orders: ``pi`` places all deterministic boxes first (descending)
    with the high-variance box last; ``pi_x_<v>`` truncates pi right after the
    deterministic value v, inserts the high-variance box, then the rest. The
    worst ratio over these orders approaches 1/phi as eps, step -> 0.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError(f"eps must be in (0, 0.5), got {eps!r}")
    if not 0.0 < step <= PHI - 1.0:
        raise ValueError(f"step must be in (0, phi-1], got {step!r}")
    if (PHI - 1.0) / step > GOLDEN_LB_MAX_BOXES:
        raise ValueError(
            f"step {step!r} would build more than {GOLDEN_LB_MAX_BOXES} boxes; "
            f"use a step of at least {(PHI - 1.0) / GOLDEN_LB_MAX_BOXES:.3g}"
        )
    values = []
    v = PHI
    while v > 1.0 + 1e-9:
        values.append(v)
        v -= step
    values.append(1.0)
    boxes = tuple(DiscreteDistribution.point(x) for x in values) + (hv_box(eps),)
    instance = Instance(boxes)
    m = len(values)
    hv_id = m
    pi = Order(tuple(range(m)) + (hv_id,))
    orders: list[tuple[str, Order]] = [("pi", pi)]
    for j, x in enumerate(values):
        seq = tuple(range(j + 1)) + (hv_id,) + tuple(range(j + 1, m))
        orders.append((f"pi_x_{x:.6g}", Order(seq)))
    return FamilyInstance(
        name="golden_lb",
        instance=instance,
        canonical_orders=tuple(orders),
        parameters={"eps": eps, "step": step, "deterministic_boxes": m},
        predicted_limit=1.0 / PHI,
        limit_note="1/phi, the tight ratio for the expectation objective",
    )


def maxprob_lb(n: int) -> FamilyInstance:
    """A deterministic 1/2 followed by n rare boxes with values 1..n.

    Each rare box realizes its value with probability eps chosen so that
    P[all rare boxes stay at 0] lands exactly on lambda in float arithmetic
    (the construction sits on the accept boundary of the max-probability rule,
    so eps is nudged by ulps until ``win_factor``'s product is >= lambda). An
    n above ``MAXPROB_LB_MAX_BOXES`` raises :class:`CapExceededError` before
    any work: past it one ulp of 1 - eps can move that product by more than
    1e-12 off lambda. Every n up to the cap lands within 1e-12, as asserted.
    Canonical orders run the rare boxes decreasing (the hard order) and
    increasing after the deterministic box.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    if n > MAXPROB_LB_MAX_BOXES:
        raise CapExceededError(
            f"n={n} exceeds the max-prob family's cap of {MAXPROB_LB_MAX_BOXES} boxes: above it "
            "floats cannot always land P[every rare box is 0] within 1e-12 of lambda"
        )
    q = LAMBDA ** (1.0 / n)
    while math.prod([q] * n) < LAMBDA:
        q = math.nextafter(q, 1.0)
    assert abs(math.prod([q] * n) - LAMBDA) <= 1e-12, n
    eps = 1.0 - q
    # As in single_threshold_family: check and sum the rare law once and
    # move it to each value.
    rare = DiscreteDistribution.from_pairs([(0.0, q), (1.0, eps)])
    rares = (rare,) + tuple(rare._on_columns((repeat(0.0, n - 1), map(float, range(2, n + 1)))))
    instance = Instance((DiscreteDistribution.point(0.5),) + rares)
    decreasing = Order((0,) + tuple(range(n, 0, -1)))
    increasing = Order(tuple(range(n + 1)))
    return FamilyInstance(
        name="maxprob_lb",
        instance=instance,
        canonical_orders=(("decreasing", decreasing), ("increasing", increasing)),
        parameters={"n": n, "eps": eps},
        predicted_limit=LN_INV_LAMBDA,
        limit_note="ln(1/lambda), the tight ratio for the max-probability objective",
    )


def single_threshold_family(n: int, T: int) -> FamilyInstance:
    """n boxes where box i holds value i with probability 1/sqrt(n), else 0.

    The canonical order has three periods: values T..T+k-1 ascending (with
    k = floor((n-T)/2)), then n down to T+k, then T-1 down to 1. A fixed
    threshold-T rule accepts the first value it sees in the first two periods
    and can never accept in the third. An n above the cap raises
    :class:`CapExceededError` before any box is built.
    """
    # At n = 1 the box's zero atom would get probability 1 - 1/sqrt(1) = 0.
    if n < 2 or not 1 <= T <= n:
        raise ValueError(f"need n >= 2 and 1 <= T <= n, got n={n}, T={T}")
    if n > SINGLE_THRESHOLD_MAX_BOXES:
        raise CapExceededError(
            f"n={n} exceeds the single-threshold family's cap of {SINGLE_THRESHOLD_MAX_BOXES} boxes"
        )
    p = 1.0 / math.sqrt(n)
    # The law from_pairs makes of (0, 1 - p), (i, p), CDF table included,
    # does not depend on i, so check and sum it once and move it to each i.
    first = DiscreteDistribution.from_pairs([(0.0, 1.0 - p), (1.0, p)])
    boxes = (first,) + tuple(first._on_columns((repeat(0.0, n - 1), map(float, range(2, n + 1)))))
    instance = Instance(boxes)
    k = (n - T) // 2
    period1 = list(range(T, T + k))
    period2 = list(range(n, T + k - 1, -1))
    period3 = list(range(T - 1, 0, -1))
    # k + (n - T - k + 1) + (T - 1) = n: the periods cover every box once.
    order = Order(tuple(v - 1 for v in period1 + period2 + period3))
    alpha = (n - T) / math.sqrt(n)
    return FamilyInstance(
        name="single_threshold",
        instance=instance,
        canonical_orders=(("three_period", order),),
        parameters={
            "n": n,
            "T": T,
            "alpha": alpha,
            "value_prob": p,
            "period_sizes": (len(period1), len(period2), len(period3)),
        },
        predicted_limit=closed_form_alg(alpha),
        limit_note="closed-form win probability of the threshold rule at this alpha, asymptotic in n",
    )


def threshold_for_alpha(n: int, alpha: float) -> int:
    """Integer threshold T with (n - T)/sqrt(n) closest to the requested alpha."""
    if n < 1:
        raise ValueError(f"need n >= 1, got n={n}")
    return min(n, max(1, n - round(alpha * math.sqrt(n))))


def closed_form_alg(alpha: float) -> float:
    """Limiting win probability of the threshold rule on the three-period order."""
    return alpha / 2.0 * math.exp(-alpha) + math.exp(-alpha / 2.0) - math.exp(-alpha)


def closed_form_opt(alpha: float) -> float:
    """Limiting win probability of the discard-period-1 order-aware rule."""
    return 1.0 - math.exp(-alpha / 2.0) + math.exp(-alpha)


def closed_form_ratio(alpha: float) -> float:
    return closed_form_alg(alpha) / closed_form_opt(alpha)


@dataclass(frozen=True)
class SingleThresholdReport:
    alpha_star: float
    max_ratio: float


ALPHA_GRID = tuple(i * 0.01 for i in range(401))


def single_threshold_ratio_curve() -> SingleThresholdReport:
    """Bracket the closed-form ratio's maximum on ``ALPHA_GRID`` and refine it.

    The grid covers [0, 4], which brackets the hump. Its maximizer is refined
    by golden-section search between its neighbors to 1e-6.
    """
    best = max(range(len(ALPHA_GRID)), key=lambda i: closed_form_ratio(ALPHA_GRID[i]))
    lo = ALPHA_GRID[max(0, best - 1)]
    hi = ALPHA_GRID[min(len(ALPHA_GRID) - 1, best + 1)]
    alpha_star = _golden_section_max(closed_form_ratio, lo, hi, xtol=1e-6)
    return SingleThresholdReport(alpha_star=alpha_star, max_ratio=closed_form_ratio(alpha_star))


def _golden_section_max(fn, lo: float, hi: float, xtol: float) -> float:
    if hi <= lo:
        return lo
    inv = 1.0 / PHI
    c = hi - inv * (hi - lo)
    d = lo + inv * (hi - lo)
    fc, fd = fn(c), fn(d)
    while hi - lo > xtol:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - inv * (hi - lo)
            fc = fn(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + inv * (hi - lo)
            fd = fn(d)
    return (lo + hi) / 2.0
