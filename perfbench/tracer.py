"""In-memory span tracer that wraps the public layer boundaries of ``prophet_order``.

Nothing under ``src/`` is edited: :meth:`Tracer.install` replaces each traced
function or method with a wrapper, in every module namespace of the package
that holds it (``evaluation`` imports ``validate_instance`` by name, ``policies``
imports ``suffix_max`` and ``threshold_triple`` by name, ``cli`` imports the
family generators, ...), so a call is seen wherever it is looked up.
:meth:`Tracer.uninstall` puts the originals back.

Two kinds of wrapper exist. A *span* records name, start, end, parent span
and op id. A *counted* call is a hot leaf (run 1e5-1e6 times per run): it adds
a call count, its total time and its self time to the enclosing span instead
of creating a span of its own. Self time is always duration minus the time the
direct children (spans or counted calls) cover.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import json
import time
from functools import wraps

_perf = time.perf_counter

# (layer name, module attribute path) of every traced boundary. Counted calls
# are the hot leaves; everything else gets one span per call.
COUNTED = (
    ("core.prob_below", "core.DiscreteDistribution.prob_below"),
    ("core.sample", "core.DiscreteDistribution.sample"),
    ("core.validate_instance", "core.validate_instance"),
    ("policies.golden_triple", "policies.GoldenPolicy.triple"),
)
SPANNED = (
    ("thresholds.suffix_max", "thresholds.suffix_max"),
    ("thresholds.threshold_triple", "thresholds.threshold_triple"),
    ("thresholds.solve_beta", "thresholds.solve_beta"),
    ("thresholds.solve_beta_bisection", "thresholds.solve_beta_bisection"),
    ("policies.opt_maxprob_init", "policies.OptMaxProbPolicy.__init__"),
    ("policies.opt_exp_thresholds", "policies.opt_expectation_thresholds"),
    ("evaluation.order_ratio_sweep", "evaluation.order_ratio_sweep"),
    ("evaluation.monte_carlo", "evaluation.monte_carlo"),
    ("evaluation.brute_force", "evaluation.brute_force"),
    ("families.example1", "families.example1"),
    ("families.golden_lb", "families.golden_lb"),
    ("families.maxprob_lb", "families.maxprob_lb"),
    ("families.single_threshold_family", "families.single_threshold_family"),
    ("families.single_threshold_ratio_curve", "families.single_threshold_ratio_curve"),
    ("cli.main", "cli.main"),
)
MODULES = ("core", "thresholds", "policies", "evaluation", "families", "cli")


def _eval_exact_label(instance, order, policy, objective, **_kwargs) -> str:
    return f"evaluation.eval_exact.{policy.kind}.{objective.kind}"


class Tracer:
    """Collects spans and counted calls for one traced run.

    ``op`` is the id of the benchmark op in progress; the benchmark sets it
    before each op and every span opened meanwhile records it. A root span
    (index 0) encloses everything, so a counted call always has a parent.
    """

    def __init__(self):
        # span record: [name, start, end, parent, op, self_s, counted, work]
        # counted maps a hot-leaf name to [calls, total_s, self_s].
        self.spans: list[list] = []
        self.op = None
        # open frames: [child_s] for a counted call, [child_s, span index,
        # the enclosing span's counted dict] for a span
        self._stack: list[list] = []
        self._cur = -1
        self._cur_counted: dict = {}
        self._patches: list[tuple[object, str, object]] = []
        self._enter("bench.root")

    # -- recording -------------------------------------------------------

    def _enter(self, name: str) -> list:
        idx = len(self.spans)
        rec = [name, 0.0, 0.0, self._cur, self.op, 0.0, None, 0]
        self.spans.append(rec)
        self._stack.append([0.0, idx, self._cur_counted])
        self._cur = idx
        self._cur_counted = {}
        rec[1] = _perf()
        return rec

    def _exit(self, rec: list) -> None:
        end = _perf()
        frame = self._stack.pop()
        dur = end - rec[1]
        rec[2] = end
        rec[5] = dur - frame[0]
        if self._cur_counted:
            rec[6] = self._cur_counted
        self._cur = rec[3]
        self._cur_counted = frame[2]
        if self._stack:
            self._stack[-1][0] += dur

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself."""
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def finish(self) -> None:
        """Close the root span; call once, after the last traced call."""
        while self._stack:
            self._exit(self.spans[self._stack[-1][1]])

    # -- wrappers --------------------------------------------------------

    def _counted(self, name: str, fn):
        tracer = self
        stack = self._stack

        @wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = _perf() - t0
                stack.pop()
                stack[-1][0] += dur
                acc = tracer._cur_counted.get(name)
                if acc is None:
                    acc = tracer._cur_counted[name] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += dur
                acc[2] += dur - frame[0]

        return wrapper

    def _spanned(self, name, fn, work=None):
        tracer = self
        label = name if callable(name) else None

        @wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer._enter(label(*args, **kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
                if work is not None:
                    rec[7] = work(result)
                return result
            finally:
                tracer._exit(rec)

        return wrapper

    # -- installation ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every traced boundary of ``package`` (the imported ``prophet_order``)."""
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for name, path in COUNTED:
            self._patch(namespaces, path, lambda fn, name=name: self._counted(name, fn))
        for name, path in SPANNED:
            work = (lambda law: len(law.outcomes)) if name == "thresholds.suffix_max" else None
            self._patch(namespaces, path, lambda fn, name=name, work=work: self._spanned(name, fn, work))
        self._patch(namespaces, "evaluation.eval_exact", lambda fn: self._spanned(_eval_exact_label, fn))
        for cls in _subclasses(package.policies.Policy):
            if "decide" in vars(cls):
                self._patch_attr(cls, "decide", self._counted("policies.decide", vars(cls)["decide"]))

    def _patch(self, namespaces, path: str, make) -> None:
        module_name, *attrs = path.split(".")
        owner = getattr(namespaces[0], module_name)
        for attr in attrs[:-1]:
            owner = getattr(owner, attr)
        if isinstance(owner, type):  # a method: patch the class once
            self._patch_attr(owner, attrs[-1], make(vars(owner)[attrs[-1]]))
            return
        original = getattr(owner, attrs[-1])
        wrapper = make(original)
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    self._patch_attr(ns, key, wrapper)

    def _patch_attr(self, owner, key: str, value) -> None:
        self._patches.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- output ----------------------------------------------------------

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        keys = ("name", "start", "end", "parent", "op", "self_s", "counted", "work")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
