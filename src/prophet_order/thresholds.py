"""Suffix-max laws, the adaptive threshold pair, and the two tight-ratio constants.

The adaptive stopping rule for the expectation objective compares each arriving
value against tau = max(alpha, beta), where both thresholds are computed from
the law of the best value still to come:

    alpha = E[y] / phi
    beta  solves  E[(y - phi * x)^+] = x

with phi the golden ratio. The probability objective instead hinges on the
constant lambda, the unique root of x / (1 - x) = ln(1 / x).
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from .core import DiscreteDistribution, Instance

PHI = (1.0 + math.sqrt(5.0)) / 2.0

# Largest residual the bisections accept; beta's scales up with E[y].
RESIDUAL_TOL = 1e-14


def _bisect(root_above: Callable[[float], bool], lo: float, hi: float) -> float:
    """Halve [lo, hi] to float resolution; ``root_above(mid)`` says the root lies above mid."""
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if root_above(mid):
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def solve_lambda() -> float:
    """Root of x / (1 - x) = ln(1 / x) in (0, 1), by bisection.

    The difference x / (1 - x) + ln(x) is strictly increasing on (0, 1), from
    -inf to +inf, so the root is unique. Iterates to float resolution and
    checks the residual against ``RESIDUAL_TOL``.
    """

    def gap(x: float) -> float:
        return x / (1.0 - x) + math.log(x)

    root = _bisect(lambda x: gap(x) < 0.0, 1e-12, 1.0 - 1e-12)
    if abs(gap(root)) > RESIDUAL_TOL:
        raise ArithmeticError(f"lambda bisection stalled, residual {gap(root)!r}")
    return root


LAMBDA = solve_lambda()
LN_INV_LAMBDA = math.log(1.0 / LAMBDA)


def suffix_max(dists: Iterable[DiscreteDistribution]) -> DiscreteDistribution:
    """Exact law of the maximum value over the given boxes.

    The CDF at each support point is the product of the boxes' CDFs there,
    taken in the order the boxes are given; every table ends at or below 1,
    so the product does too. The law keeps that product as its CDF table.
    The max over no boxes is a point mass at 0: it is below every positive
    value and has expectation 0.

    Each member's CDF is read off its table at every point of the merged
    support, so a call costs O(support points x members) lookups. A member
    may itself be a law built here: ``suffix_max((law_of_rest, box))``
    extends a law by one box in O(support points).
    """
    members = tuple(dists)
    if not members:
        return DiscreteDistribution.point(0.0)
    grid = sorted({v for m in members for v in m.values})
    cdf = members[0].cdf_at(grid)
    for m in members[1:]:
        cdf = [c * f for c, f in zip(cdf, m.cdf_at(grid))]
    return DiscreteDistribution._from_cdf(grid, cdf)


def win_factor(boxes: Iterable[DiscreteDistribution], value: float) -> float:
    """P[every box in ``boxes`` realizes strictly below ``value``]; 1.0 for no boxes.

    The one per-value product of strict CDFs in the package, multiplied one
    box at a time in the order the caller gives, so the caller fixes the
    bits. A call costs one lookup per box. It serves callers that learn their
    values as they go or key them by set: the state pass of ``evaluation``
    passes the boxes after its position from the last one back, and
    ``MaxProbPolicy.prob_future_below`` passes its set in ascending box id.
    Callers that know every value before they walk carry the product over a
    grid with :func:`carry_win_factors` instead.
    """
    return math.prod((box.prob_below(value, strict=True) for box in boxes), start=1.0)


def carry_win_factors(acc: list[float], grid: Sequence[float], box: DiscreteDistribution) -> None:
    """Multiply ``box``'s strict CDF into ``acc`` at every point of the sorted, non-empty ``grid``, in place.

    One back-to-front step of :func:`win_factor` for a whole grid: if
    ``acc[i]`` is the factor of the boxes after position t, last one first,
    at ``grid[i]`` and ``box`` is the box at t, it becomes the factor at
    t - 1, bit for bit (start from 1.0 after the last position). The strict
    CDF is a step function: ``cdf[k]`` is P[box < x] for every x in
    (values[k-1], values[k]], so each such run of grid points is multiplied
    by one factor. A box whose CDF table ends at exactly 1.0 leaves the
    points above its largest value alone, since x * 1.0 == x, and returns at
    once when that is every point. It serves callers that know every value
    they read before they walk: ``OptMaxProbPolicy`` and the fixed-threshold
    pass of ``evaluation``.
    """
    f = box.cdf[-1]
    if f == 1.0 and box.values[-1] < grid[0]:
        return
    lo = 0
    for v, c in zip(box.values, box.cdf):
        hi = bisect_right(grid, v)
        acc[lo:hi] = [a * c for a in acc[lo:hi]]
        lo = hi
    if f != 1.0:
        acc[lo:] = [a * f for a in acc[lo:]]


def expected_surplus(dist: DiscreteDistribution, c: float) -> float:
    """E[(y - c)^+] for y distributed as ``dist``."""
    return math.fsum(p * (v - c) for v, p in dist.outcomes if v > c)


def solve_beta(dist: DiscreteDistribution) -> float:
    """The unique x >= 0 with E[(y - phi*x)^+] = x, solved exactly.

    The left side is piecewise linear and non-increasing in x with breakpoints
    at support values divided by phi; on each segment the equation is linear
    and solved in closed form. G(x) = E[(y - phi*x)^+] - x strictly
    decreases, so the root lies in the first segment whose candidate is at
    most its upper end, and such a segment always exists: in the last one the
    candidate p*v / (1 + phi*p) is below v / phi. The scan returns from that
    segment; no other solver runs. A law with E[y] = 0 stops at its first
    segment with candidate 0. :func:`solve_beta_bisection` is an independent
    cross-check for tests.
    """
    outs = dist.outcomes
    m = len(outs)
    # suffix_p[a] = P[y >= outs[a].value], suffix_ev[a] = E[y; y >= outs[a].value]
    suffix_p = [0.0] * (m + 1)
    suffix_ev = [0.0] * (m + 1)
    for a in range(m - 1, -1, -1):
        v, p = outs[a]
        suffix_p[a] = suffix_p[a + 1] + p
        suffix_ev[a] = suffix_ev[a + 1] + p * v
    # On x in [outs[a-1].value/phi, outs[a].value/phi) the active tail is a..m-1
    # and the equation reads suffix_ev[a] - phi*suffix_p[a]*x = x.
    for a in range(m):
        candidate = suffix_ev[a] / (1.0 + PHI * suffix_p[a])
        if candidate <= outs[a][0] / PHI:
            break
    return candidate


def solve_beta_bisection(dist: DiscreteDistribution) -> float:
    """Bisection solve of E[(y - phi*x)^+] = x, independent of the exact path."""
    if dist.expectation() == 0.0:
        return 0.0

    def gap(x: float) -> float:
        return expected_surplus(dist, PHI * x) - x

    hi = dist.expectation()
    while gap(hi) > 0.0:
        hi *= 2.0
    root = _bisect(lambda x: gap(x) > 0.0, 0.0, hi)
    if abs(gap(root)) > max(RESIDUAL_TOL, 1e-12 * dist.expectation()):
        raise ArithmeticError(f"beta bisection stalled, residual {gap(root)!r}")
    return root


@dataclass(frozen=True)
class ThresholdTriple:
    """(alpha, beta, tau) for one step of the adaptive expectation policy."""

    alpha: float
    beta: float
    tau: float


def threshold_triple(dist: DiscreteDistribution) -> ThresholdTriple:
    """alpha = E[y]/phi, beta from :func:`solve_beta`, tau = max(alpha, beta)."""
    alpha = dist.expectation() / PHI
    beta = solve_beta(dist)
    return ThresholdTriple(alpha=alpha, beta=beta, tau=max(alpha, beta))


class ClassicThresholds(NamedTuple):
    median_of_max: float
    half_expected_max: float
    inv_e_quantile: float


def classic_thresholds(instance: Instance) -> ClassicThresholds:
    """The three textbook single thresholds for an instance.

    Quantile-style thresholds pick the smallest support value meeting the
    probability bound, which makes tie-breaking on atoms deterministic.
    """
    law = suffix_max(instance.distributions)
    return ClassicThresholds(
        median_of_max=_lower_quantile(law, 0.5),
        half_expected_max=law.expectation() / 2.0,
        inv_e_quantile=_lower_quantile(law, 1.0 / math.e),
    )


def _lower_quantile(law: DiscreteDistribution, q: float) -> float:
    """The least support value whose CDF, read off the law's table, is >= q (else the largest)."""
    return law.values[min(bisect_left(law.cdf, q, 1), len(law.values)) - 1]
