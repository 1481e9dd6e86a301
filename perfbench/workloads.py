"""The benchmark's workloads: inputs made from a seed, timed ops, and output checks.

Each workload has a fixed list of phase-1 ops (``ops``: the traffic the
workload exists for) and of phase-2 ops (``mc_ops``: ``monte_carlo`` calls
on the same inputs). ``run.py`` runs each list in ``ROUNDS`` rounds, every
round the same ops in the same order, and ``check`` inspects one round's
outputs outside the timed body and names the ops whose output is wrong.

Every workload calls the public API of ``prophet_order`` through the package
object ``po`` passed in, looked up at call time, so the tracer's wrappers see
each call.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
from array import array
from typing import Callable, NamedTuple

MC_Z = 5.0  # a Monte Carlo mean may sit at most this many stderr from the exact value


class Op(NamedTuple):
    label: str
    n: int  # boxes in the op's instance, for per-n layer figures
    key: tuple  # what the op works on, for the checks
    fn: Callable[[], object]
    latency: bool = True  # whether the op's time counts toward op_p50_ms and op_p95_ms


def _mc_mismatch(mean: float, stderr: float, exact: float) -> str | None:
    if abs(mean - exact) <= MC_Z * stderr + 1e-9:
        return None
    return f"monte carlo mean {mean!r} +- {stderr!r} is more than {MC_Z} stderr from exact {exact!r}"


# -- sweep ------------------------------------------------------------------


def _dyadic_instance(po, rng: random.Random, n: int):
    """n boxes shaped like the acceptance corpus, with support sizes and zero
    atoms stratified instead of drawn, so every seed yields the same mix of
    work and only values and probabilities vary.

    Support sizes cycle through 1..4 points. About a third of the boxes
    (round(n/3)) hold a zero atom, counted among their points. Positive values
    are distinct dyadics k/128 across the whole instance, because winprob
    rejects a positive value shared by two boxes.
    """
    sizes = [1 + j % 4 for j in range(n)]
    zeros = [j < round(n / 3) for j in range(n)]
    rng.shuffle(sizes)
    rng.shuffle(zeros)
    used: set[float] = set()
    boxes = []
    for k, zero in zip(sizes, zeros):
        values = {0.0} if zero else set()
        while len(values) < k:
            v = rng.randrange(1, 1280) / 128.0
            if v not in used:
                used.add(v)
                values.add(v)
        weights = [rng.random() + 0.05 for _ in values]
        total = sum(weights)
        boxes.append([(v, w / total) for v, w in zip(sorted(values), weights)])
    return po.Instance.from_supports(boxes)


class Sweep:
    """``order_ratio_sweep`` over all n! orders of small instances (n <= 6).

    The corpus holds COUNTS[n] instances per n, each swept once per objective
    (golden/expectation and maxprob/winprob), in a seeded shuffled order: 216
    ops, so that at least 10 op latencies lie beyond the 95th percentile.
    Phase 2 samples every instance on its own seeded order with a fresh
    policy, as a caller would.

    Op latencies fall into classes by (n, objective), with gaps of 1.5x or more
    between them: golden n <= 3 and maxprob n <= 2 below 0.5 ms; maxprob n = 3
    and golden n = 4 at ~1 ms; golden n = 5 and maxprob n = 4 at ~5 ms; golden
    n = 6 and maxprob n = 5 at ~30 ms; maxprob n = 6 at ~250 ms. With equal
    counts per n the median falls on one such gap, and which side it reads
    depends on the seed. These counts put the median in the middle of the
    ~1 ms class (80 ops) and the 95th percentile in the middle of the ~30 ms
    class (14 ops).
    """

    name = "sweep"
    WHY = ("the paper's verification traffic: order_ratio_sweep over all n! orders of small instances, "
           "dominated by per-call overhead (validation, one benchmark DP per order)")
    COUNTS = {1: 7, 2: 7, 3: 40, 4: 40, 5: 10, 6: 4}
    ROUNDS = 12
    MC_SAMPLES = 500
    BRUTE_FORCE_CHECKS = 30

    def __init__(self, po, seed: int, counts: dict = COUNTS):
        self.po = po
        self.seed = seed
        rng = random.Random(seed)
        self.cases = []
        for n, count in counts.items():
            for _ in range(count):
                inst = _dyadic_instance(po, rng, n)
                order = list(range(n))
                rng.shuffle(order)
                case = (inst, po.Order(tuple(order)))
                self.cases += [(case, "golden"), (case, "maxprob")]
        rng.shuffle(self.cases)

    def _policy(self, inst, kind: str):
        po = self.po
        if kind == "golden":
            return po.GoldenPolicy(inst), po.Objective.expectation()
        return po.MaxProbPolicy(inst, 0.0), po.Objective.winprob(0.0)

    def _sweep(self, inst, kind: str):
        report = self.po.order_ratio_sweep(inst, *self._policy(inst, kind))
        # Keep two float arrays, not the report, so that what the run holds
        # for its checks does not grow peak memory with the number of rounds.
        return array("d", (row.alg for row in report.per_order)), array("d", (row.opt for row in report.per_order))

    def _mc(self, case, kind: str, seed: int):
        inst, order = case
        policy, objective = self._policy(inst, kind)
        return self.po.monte_carlo(inst, order, policy, objective, self.MC_SAMPLES, seed)

    def ops(self) -> list[Op]:
        return [
            Op(f"{kind} n={case[0].n}", case[0].n, (case, kind), lambda inst=case[0], kind=kind: self._sweep(inst, kind))
            for case, kind in self.cases
        ]

    def mc_ops(self) -> list[Op]:
        return [
            Op(f"mc {kind} n={case[0].n}", case[0].n, (case, kind),
               lambda case=case, kind=kind, seed=self.seed * 7919 + i: self._mc(case, kind, seed))
            for i, (case, kind) in enumerate(self.cases)
        ]

    def check(self, results) -> list[tuple[int, str]]:
        po = self.po
        bound = {"golden": 1.0 / po.PHI, "maxprob": po.LN_INV_LAMBDA}
        failures = []
        for i, res in enumerate(results):
            (inst, order), kind = res.op.key
            if res.phase == "ops":
                algs, opts = res.value
                if len(algs) != math.factorial(inst.n):
                    failures.append((i, f"{len(algs)} rows for {inst.n} boxes"))
                for alg, opt in zip(algs, opts):
                    if alg < bound[kind] * opt - 1e-9:
                        failures.append((i, f"{kind} ratio {alg}/{opt} below its guarantee"))
                        break
            else:
                exact = po.eval_exact(inst, order, *self._policy(inst, kind)).value
                msg = _mc_mismatch(res.value.value, res.value.stderr, exact)
                if msg:
                    failures.append((i, msg))
        return failures + self._check_brute_force(results)

    def _check_brute_force(self, results) -> list[tuple[int, str]]:
        """eval_exact against brute_force on a seeded sample of (instance, order, policy, objective)."""
        po = self.po
        rng = random.Random(self.seed ^ 0xB7F)
        swept = [(i, res.op.key[0][0]) for i, res in enumerate(results) if res.phase == "ops"]
        objectives = (po.Objective.expectation(), po.Objective.winprob(0.0))
        failures = []
        for _ in range(self.BRUTE_FORCE_CHECKS):
            i, inst = rng.choice(swept)
            seq = list(range(inst.n))
            rng.shuffle(seq)
            order = po.Order(tuple(seq))
            policy = rng.choice((
                lambda: po.GoldenPolicy(inst),
                lambda: po.MaxProbPolicy(inst, 0.0),
                lambda: po.OptExpectationPolicy(inst, order),
                lambda: po.OptMaxProbPolicy(inst, order, 0.0),
            ))()
            objective = rng.choice(objectives)
            exact = po.eval_exact(inst, order, policy, objective).value
            brute = po.brute_force(inst, order, policy, objective).value
            if abs(exact - brute) > 1e-12:
                failures.append((i, f"{policy.kind}/{objective.kind}: eval_exact {exact!r} != brute_force {brute!r}"))
        return failures


# -- scale ------------------------------------------------------------------


def _scale_instance(po, rng: random.Random, n: int):
    """n boxes, each a zero atom plus three positive values, all distinct, in
    increasing order of their largest value.

    The zero atom keeps the pass mass of every rule positive to the end, since
    ``eval_exact`` stops once it reaches 0; without it the series would measure
    where the first sure-accept box sits, not n. Positive values are distinct
    because winprob rejects shared ones. 4n points times n positions stays
    far below the exact state cap of 1e6. The sort makes a maxprob walk run
    to about n boxes on every seed; in random box order its length follows
    where the seed puts the largest values, and varies 2.5x between seeds at
    n = 200.
    """
    used: set[float] = set()
    boxes = []
    for _ in range(n):
        values = []
        while len(values) < 3:
            v = rng.randrange(1, 1 << 20) / 1024.0
            if v not in used:
                used.add(v)
                values.append(v)
        weights = [rng.random() + 0.05 for _ in range(4)]
        total = sum(weights)
        boxes.append([(0.0, weights[0] / total)] + [(v, w / total) for v, w in zip(sorted(values), weights[1:])])
    boxes.sort(key=lambda box: box[-1][0])
    return po.Instance.from_supports(boxes)


class Scale:
    """Exact evaluation at large n: one op per (n, policy, objective) along a
    growing n series, then the ``prophet-order reproduce`` families through
    ``cli.main`` in-process.

    The reproductions do real exact work and stay under the state cap:
    ``maxprob-lb --n 1000`` is left out because it exits 3 at the cap today,
    which would count as a failure now and make the cap's removal read as a
    slowdown. They use no random inputs, so their latencies alone feed
    ``op_p50_ms`` and ``op_p95_ms``: the same command sits at each percentile
    on every seed, while the exact ops' ranking changes with the inputs.
    Phase 2 samples golden and maxprob at every n with the policies the
    phase-1 ops of the same round built, whose caches already hold every
    state a walk reaches.
    """

    name = "scale"
    WHY = ("exact evaluation at n = 25..200 and the reproduce commands via cli.main: suffix-max rebuilds, "
           "the beta solve, the state DP, families and CLI; then Monte Carlo through warm caches")
    NS = (25, 50, 100, 200)
    PAIRS = (
        ("golden", "expectation"),   # stateless path, ~n^3 suffix-max rebuilds
        ("maxprob", "winprob"),      # state DP
        ("opt-maxprob", "winprob"),  # order-aware DP built per order, then the state DP
        ("opt-exp", "expectation"),  # backward induction, then the stateless path
        ("median", "winprob"),       # classic single threshold: the threshold path
    )
    COMMANDS = (
        ("reproduce", "example1"),
        ("reproduce", "golden-lb"),
        ("reproduce", "maxprob-lb", "--n", "200"),
        ("reproduce", "maxprob-lb", "--n", "400"),
        ("reproduce", "single-threshold", "--n", "10000"),
    )
    ROUNDS = 3
    MC_SAMPLES = 1000

    def __init__(self, po, seed: int, ns: tuple[int, ...] = NS, commands=COMMANDS):
        self.po = po
        self.cli = importlib.import_module(f"{po.__name__}.cli")
        self.seed = seed
        rng = random.Random(seed)
        self.cases = [(_scale_instance(po, rng, n), po.Order.identity(n)) for n in ns]
        self.commands = [list(c) for c in commands]
        self._warm: dict = {}

    def _exact(self, inst, order, spec, obj):
        po = self.po
        policy = po.make_policy(spec, inst, order)
        value = po.eval_exact(inst, order, policy, po.Objective.parse(obj)).value
        self._warm[(inst.n, spec)] = policy
        return value

    def _cli(self, argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def _mc(self, inst, order, spec, obj, seed):
        po = self.po
        return po.monte_carlo(inst, order, self._warm[(inst.n, spec)], po.Objective.parse(obj), self.MC_SAMPLES, seed)

    def ops(self) -> list[Op]:
        exact = [
            Op(f"{spec}/{obj}", inst.n, (spec, obj), lambda a=(inst, order, spec, obj): self._exact(*a), False)
            for inst, order in self.cases
            for spec, obj in self.PAIRS
        ]
        # n = 0 keeps the reproductions out of the per-n figures of the series.
        return exact + [Op(" ".join(argv), 0, tuple(argv), lambda argv=argv: self._cli(argv))
                        for argv in self.commands]

    def mc_ops(self) -> list[Op]:
        return [
            Op(f"mc {spec}/{obj}", inst.n, (spec, obj),
               lambda a=(inst, order, spec, obj, self.seed * 7919 + 2 * i + j): self._mc(*a))
            for i, (inst, order) in enumerate(self.cases)
            for j, (spec, obj) in enumerate(self.PAIRS[:2])
        ]

    def check(self, results) -> list[tuple[int, str]]:
        po = self.po
        failures = []
        exact = {(r.op.n, *r.op.key): r.value for r in results if r.phase == "ops" and r.op.n}
        for inst, _ in self.cases:
            n = inst.n
            golden, opt_exp = exact[(n, "golden", "expectation")], exact[(n, "opt-exp", "expectation")]
            maxprob, opt_mp = exact[(n, "maxprob", "winprob")], exact[(n, "opt-maxprob", "winprob")]
            idx = next(i for i, r in enumerate(results) if r.op.n == n and r.op.key == ("golden", "expectation"))
            if golden < opt_exp / po.PHI - 1e-9:
                failures.append((idx, f"n={n}: golden {golden!r} below opt-exp {opt_exp!r} / phi"))
            if maxprob > opt_mp + 1e-12:
                failures.append((idx, f"n={n}: maxprob {maxprob!r} above opt-maxprob {opt_mp!r}"))
        for i, res in enumerate(results):
            if res.phase == "mc":
                msg = _mc_mismatch(res.value.value, res.value.stderr, exact[(res.op.n, *res.op.key)])
                if msg:
                    failures.append((i, f"n={res.op.n} {res.op.label}: {msg}"))
            elif res.op.n == 0:
                code, text = res.value
                msg = f"exit code {code}" if code != 0 else self._family_bound(json.loads(text), po)
                if msg:
                    failures.append((i, msg))
        return failures

    @staticmethod
    def _family_bound(out: dict, po) -> str | None:
        """The bounds of acceptance criteria 7, 8, 9 and 10c."""
        family = out.get("family")
        if family == "example1":
            ratio = next(r["ratio"] for r in out["orders"] if r["name"] == "order_a")
            return None if 0.70 <= ratio <= 0.715 else f"order_a ratio {ratio} outside [0.70, 0.715]"
        if family == "golden_lb":
            gap = abs(out["min_ratio"] - 1.0 / po.PHI)
            return None if gap <= 0.02 else f"min ratio {out['min_ratio']} is {gap} from 1/phi"
        if family == "maxprob_lb":
            ratio = next(r["ratio"] for r in out["orders"] if r["name"] == "decreasing")
            if abs(ratio - po.LN_INV_LAMBDA) > 0.02:
                return f"decreasing-order ratio {ratio} is more than 0.02 from ln(1/lambda)"
            if abs(out["accept_branch_minus_lambda"]) > 1e-12:
                return f"accept branch is {out['accept_branch_minus_lambda']} from lambda"
            return None
        if family == "single_threshold":
            gap = abs(out["exact_minus_closed_form"])
            return None if gap <= 0.02 else f"exact win probability is {gap} from the closed form"
        return f"unexpected family {family!r}"


WORKLOADS = {"sweep": Sweep, "scale": Scale}
