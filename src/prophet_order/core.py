"""Finite discrete value distributions, box instances, and arrival orders.

Everything downstream (thresholds, policies, exact evaluation) is built on the
types in this module. All types are immutable after construction and safe to
share across threads; randomness always enters through an explicit seed or
generator.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import repeat, tee
from typing import Iterable, Iterator, Sequence

PROB_SUM_TOL = 1e-9


class ValidationError(ValueError):
    """An instance, order, or distribution violates its invariants."""


class CapExceededError(RuntimeError):
    """A configured resource cap would be exceeded; pick a cheaper route."""


@dataclass(frozen=True)
class DiscreteDistribution:
    """Finitely supported law of a single box's value.

    ``outcomes`` is a tuple of ``(value, probability)`` pairs with values
    strictly increasing and probabilities summing to 1 up to rounding
    (2**-50). Build from raw data through :meth:`from_pairs`, which
    canonicalizes it; the bare constructor checks the invariants as they
    stand and raises :class:`ValidationError`.

    Every distribution carries its CDF table: the support ``values`` and
    ``cdf``, where ``cdf[k]`` is the mass of the first k atoms
    (``cdf[0] == 0.0``). For a law built by the constructor each entry is the
    correctly rounded prefix sum, i.e. ``math.fsum`` of the first k
    probabilities, capped at 1.0; a law of a maximum built by
    ``thresholds.suffix_max`` keeps the CDF product it came from. The CDF
    is read only through the table: :meth:`prob_below` (P[v < x]),
    :meth:`cdf_at` (P[v <= x]) and :meth:`sample` (its inverse).
    """

    outcomes: tuple[tuple[float, float], ...]
    values: tuple[float, ...] = field(init=False, repr=False, compare=False)
    cdf: tuple[float, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.outcomes:
            raise ValidationError("distribution needs at least one outcome")
        values, probs = zip(*self.outcomes)
        prev = None
        for v, p in self.outcomes:
            if not math.isfinite(v) or v < 0.0:
                raise ValidationError(f"value {v!r} is not a finite non-negative real")
            if prev is not None and v <= prev:
                raise ValidationError(f"values not strictly increasing at {v!r}")
            prev = v
            if not (0.0 < p <= 1.0):
                raise ValidationError(f"probability {p!r} outside (0, 1]")
        cdf = _prefix_sums(probs)
        # brute_force weighs the atoms as given, so a sum off 1 by more than
        # rounding would split the routes; from_pairs renormalizes raw input.
        if abs(cdf[-1] - 1.0) > 2.0**-50:
            raise ValidationError(f"probabilities sum to {cdf[-1]!r}, not 1")
        if cdf[-1] > 1.0:
            # A sum a little above 1 is valid, but no CDF may read above 1.
            cdf = tuple(c if c < 1.0 else 1.0 for c in cdf)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "cdf", cdf)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "DiscreteDistribution":
        """Canonicalize ``(value, prob)`` pairs into a valid distribution.

        Duplicate values are merged by summing their probabilities, values are
        sorted ascending, and probabilities are renormalized when their sum is
        within ``PROB_SUM_TOL`` of 1. Anything unsalvageable (empty support,
        negative or non-finite values, probabilities outside (0, 1], a sum off
        by more than the tolerance) raises :class:`ValidationError`.
        """
        merged: dict[float, float] = {}
        for value, prob in pairs:
            v, p = float(value), float(prob)
            if not (0.0 < p <= 1.0 + PROB_SUM_TOL):
                raise ValidationError(f"probability {p!r} outside (0, 1]")
            merged[v] = merged.get(v, 0.0) + p
        if not merged:
            raise ValidationError("distribution needs at least one outcome")
        total = math.fsum(merged.values())
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")
        outcomes = tuple((v, merged[v] / total) for v in sorted(merged))
        return cls(outcomes)

    @classmethod
    def _from_cdf(cls, values: Sequence[float], cdf: Sequence[float]) -> "DiscreteDistribution":
        """The law whose CDF at ``values[k]`` is ``cdf[k]``, taken as given.

        Private to ``thresholds.suffix_max``, whose arguments meet what this
        does not check: ``values`` finite, non-negative and strictly
        increasing, ``cdf`` non-decreasing in [0, 1], as a product of CDFs
        is. Points where the CDF does not rise carry no atom and are dropped.
        The CDF becomes the law's table as it is, without re-summing the
        atoms, and the total must lie within ``PROB_SUM_TOL`` of 1.
        """
        outcomes = []
        atoms = []
        table = [0.0]
        for v, c in zip(values, cdf):
            if c > table[-1]:
                outcomes.append((v, c - table[-1]))
                atoms.append(v)
                table.append(c)
        if abs(table[-1] - 1.0) > PROB_SUM_TOL:
            raise ValidationError(f"probabilities sum to {table[-1]!r}, not 1")
        # Bypass __init__: its checks hold by construction, and it would
        # replace the table with re-summed atoms.
        law = object.__new__(cls)
        object.__setattr__(law, "outcomes", tuple(outcomes))
        object.__setattr__(law, "values", tuple(atoms))
        object.__setattr__(law, "cdf", tuple(table))
        return law

    def _on_columns(self, columns: Sequence[Iterable[float]]) -> Iterator["DiscreteDistribution"]:
        """This law's probabilities and CDF table on other values: one law per row of ``columns``.

        ``columns[k]`` yields the k-th value of each law in turn. Private to
        the family builders ``families.single_threshold_family`` and
        ``families.maxprob_lb``, whose rows are floats, finite, non-negative
        and strictly increasing. The table depends only on the probabilities,
        so every law shares this one's: the constructor would check and sum
        again what it checked and summed for this law. Rows and their
        (value, probability) pairs are zipped from the columns as they are
        drawn, and no list of them is kept.
        """
        cls, cdf, setattr_ = type(self), self.cdf, object.__setattr__
        rows, pairs = [], []
        for column, p in zip(columns, self.probabilities):
            values, paired = tee(column)
            rows.append(values)
            pairs.append(zip(paired, repeat(p)))
        for values, outcomes in zip(zip(*rows), zip(*pairs)):
            law = object.__new__(cls)
            setattr_(law, "outcomes", outcomes)
            setattr_(law, "values", values)
            setattr_(law, "cdf", cdf)
            yield law

    @classmethod
    def point(cls, value: float) -> "DiscreteDistribution":
        """Deterministic box holding ``value``."""
        return cls(((float(value), 1.0),))

    @property
    def probabilities(self) -> tuple[float, ...]:
        return tuple(p for _, p in self.outcomes)

    def expectation(self) -> float:
        return math.fsum(v * p for v, p in self.outcomes)

    def prob_below(self, x: float) -> float:
        """P[v < x]; 0 when ``x`` is NaN."""
        return self.cdf[bisect_left(self.values, x)]

    def cdf_at(self, xs: Iterable[float]) -> list[float]:
        """[P[v <= x] for x in xs]; 0 where ``x`` is NaN."""
        values, table = self.values, self.cdf
        return [table[bisect_right(values, x)] if x == x else 0.0 for x in xs]

    def sample(self, rng: random.Random) -> float:
        """The least value whose CDF exceeds u = ``rng.random()``; the largest if none does."""
        k = bisect_right(self.cdf, rng.random())
        if k > len(self.values):
            return self.values[-1]
        return self.values[k - 1]


def _prefix_sums(probs: Sequence[float]) -> tuple[float, ...]:
    """(0.0, fsum(probs[:1]), fsum(probs[:2]), ...): each prefix sum correctly rounded.

    One exact pass: each float is an integer over a power of two, so the
    prefixes add up exactly as integers over the largest denominator, and
    int / int rounds correctly, as ``math.fsum`` does.
    """
    out = [0.0]
    ratios = [p.as_integer_ratio() for p in probs]
    den = max(d for _, d in ratios)
    acc = 0
    for num, d in ratios:
        acc += num * (den // d)
        out.append(acc / den)
    return tuple(out)


@dataclass(frozen=True)
class Instance:
    """An ordered collection of boxes. Box ids are positional: 0..n-1."""

    distributions: tuple[DiscreteDistribution, ...]

    def __post_init__(self) -> None:
        if not self.distributions:
            raise ValidationError("instance needs at least one box")

    @classmethod
    def from_supports(cls, supports: Iterable[Iterable[tuple[float, float]]]) -> "Instance":
        return cls(tuple(DiscreteDistribution.from_pairs(s) for s in supports))

    @property
    def n(self) -> int:
        return len(self.distributions)

    @property
    def box_ids(self) -> range:
        return range(self.n)

    def box(self, box_id: int) -> DiscreteDistribution:
        return self.distributions[box_id]

    def to_json_dict(self) -> dict:
        return {
            "boxes": [
                {"support": [[v, p] for v, p in d.outcomes]} for d in self.distributions
            ]
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Instance":
        """The instance ``{"boxes": [{"support": [[value, prob], ...]}, ...]}``.

        Each support pair must be exactly two JSON numbers; a bool or a
        string is not one.
        """
        try:
            supports = [[_number_pair(pair) for pair in box["support"]] for box in data["boxes"]]
        except OverflowError:
            raise ValidationError("instance JSON holds a number beyond float range") from None
        except (TypeError, KeyError, ValueError):
            raise ValidationError(
                'instance JSON must be {"boxes": [{"support": [[value, prob], ...]}, ...]}'
            ) from None
        return cls.from_supports(supports)


def _number_pair(pair: object) -> tuple[float, float]:
    """``pair`` as (value, prob) if it holds exactly two JSON numbers, else ValueError."""
    v, p = pair
    if type(v) not in (int, float) or type(p) not in (int, float):
        raise ValueError(f"{pair!r} is not two numbers")
    return float(v), float(p)


@dataclass(frozen=True)
class Order:
    """An arrival permutation of an instance's box ids."""

    sequence: tuple[int, ...]

    @classmethod
    def identity(cls, n: int) -> "Order":
        return cls(tuple(range(n)))

    @classmethod
    def from_string(cls, text: str) -> "Order":
        try:
            return cls(tuple(int(tok) for tok in text.replace(" ", "").split(",") if tok != ""))
        except ValueError:
            raise ValidationError(f"cannot parse order {text!r}") from None

    def to_json_dict(self) -> dict:
        return {"order": list(self.sequence)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Order":
        """The order ``{"order": [ids...]}``; every id must be a JSON integer, not a bool."""
        ids = data.get("order") if isinstance(data, dict) else None
        if not isinstance(ids, list) or any(type(i) is not int for i in ids):
            raise ValidationError('order JSON must be {"order": [ids...]} with integer ids')
        return cls(tuple(ids))


def validate_instance(instance: Instance) -> None:
    """Reject any positive value that appears in two different boxes' supports.

    This is the one invariant that construction cannot check, because it spans
    boxes and only the win-probability objective needs it. Shared zeros are
    allowed: a zero stands for "box is empty" and can never be the caught
    maximum, since a win requires strictly exceeding a non-negative baseline.
    """
    seen: dict[float, int] = {}
    for bid, dist in enumerate(instance.distributions):
        for v in dist.values:
            if v == 0.0:
                continue
            if v in seen:
                raise ValidationError(f"value {v!r} appears in boxes {seen[v]} and {bid}")
            seen[v] = bid


def validate_order(instance: Instance, order: Order) -> None:
    """Raise :class:`ValidationError` unless ``order`` is a permutation of the box ids."""
    if sorted(order.sequence) != list(instance.box_ids):
        raise ValidationError(
            f"order {list(order.sequence)} is not a permutation of 0..{instance.n - 1}"
        )


def read_json(path: str) -> object:
    """The JSON document in the file at ``path``.

    A file that is not UTF-8 JSON, or a document nested too deep to decode,
    raises :class:`ValidationError` naming ``path``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValidationError(f"JSON in {path} is nested too deep to decode") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot decode JSON in {path}: {exc}") from None


def load_instance(path: str) -> Instance:
    return Instance.from_json_dict(read_json(path))


def save_instance(instance: Instance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_order(path: str) -> Order:
    return Order.from_json_dict(read_json(path))


def save_order(order: Order, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(order.to_json_dict(), fh, indent=2)
        fh.write("\n")
