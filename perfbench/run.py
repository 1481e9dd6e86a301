"""Benchmark of ``prophet_order``: one workload, one process, one thread.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Set-up imports the package and builds the workload's inputs from the
seed. The timed body is closed loop with one caller and runs the workload's
fixed number of rounds (``ROUNDS``): each round runs the workload's phase-1
ops, then its phase-2 ``monte_carlo`` calls. Every round repeats the same
ops, and an op's time is the median over the rounds of its times, each
scaled to the host's speed around it (``HostProbe``). The round count does
not depend on how fast the code runs, and neither does the estimator. Set-up is repeated before the body, after
every round, and then until ``--seconds`` have passed; the median is
reported. The outputs are checked after the timed body.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``. The line before
it records the environment and the sample counts behind every figure. A traced
run first runs a quarter of the rounds untraced, then as many traced, and
reports both throughputs as the tracing overhead.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from typing import NamedTuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path[:0] = [SRC, HERE]

from metrics import END_TO_END, per_layer_values  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 3  # set-ups before the timed body; one more follows every round
PROBE_EVERY_S = 0.25
# Times are reported for a host on which probe() takes this long: about its
# best on a 2-core x86-64 VM with Python 3.11.7. The constant fixes the scale
# only; comparisons on one host do not depend on it.
PROBE_REF_S = 1.5e-3


def _probe_loop() -> float:
    """Fixed pure-Python work of the kind the package does: calls, tuples, dict and float ops."""
    table: dict = {}
    acc = 0.0
    for i in range(3000):
        key = (i & 63, i & 7)
        table[key] = table.get(key, 0.0) + math.fsum((i * 0.5, 1.0, -0.25))
        acc += max(table[key], acc * 0.5)
    return acc


class HostProbe:
    """Tracks how fast the host runs plain Python at each moment of a run.

    On a shared VM the same code ran up to ~2x slower for stretches of a
    fraction of a second to tens of seconds, and a fixed loop slowed down
    with it. Between ops, at most every PROBE_EVERY_S, this times a loop that
    shares no code with the package. A time measured over a span is scaled by
    PROBE_REF_S over the mean of the probe times just before and just after
    the span: the host's speed then. A change to the package leaves the loop
    alone, so it still shows in full.
    """

    def __init__(self):
        self.ends: list[float] = []  # when each probe ended, ascending
        self.probes: list[float] = []  # how long each took

    def maybe(self) -> None:
        if not self.ends or time.perf_counter() - self.ends[-1] >= PROBE_EVERY_S:
            t0 = time.perf_counter()
            _probe_loop()
            end = time.perf_counter()
            self.ends.append(end)
            self.probes.append(end - t0)

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, in the host speed of PROBE_REF_S."""
        before = self.probes[bisect.bisect_right(self.ends, start) - 1]
        i = bisect.bisect_left(self.ends, start + seconds)
        after = self.probes[i] if i < len(self.probes) else before
        return seconds * PROBE_REF_S / ((before + after) / 2)


class Result(NamedTuple):
    op: object  # workloads.Op
    phase: str  # "ops" (phase 1) or "mc" (phase 2)
    round: int
    index: int  # position of the op in its phase's list
    value: object  # what the op returned, or the exception it raised
    start: float  # time.perf_counter() when the op began
    seconds: float


def import_package():
    """Import ``prophet_order`` afresh from this checkout's ``src/``."""
    for name in [m for m in sys.modules if m == "prophet_order" or m.startswith("prophet_order.")]:
        del sys.modules[name]
    po = importlib.import_module("prophet_order")
    if not os.path.abspath(po.__file__).startswith(SRC + os.sep):
        raise ImportError(f"prophet_order imported from {po.__file__}, not from {SRC}")
    return po


def set_up(name: str, seed: int):
    """Import the package and build the workload's inputs once; return both and the seconds taken."""
    gc.collect()
    t0 = time.perf_counter()
    po = import_package()
    workload = WORKLOADS[name](po, seed)
    return po, workload, time.perf_counter() - t0


def run_round(ops, phase: str, rnd: int, tracer, host: HostProbe) -> list[Result]:
    results = []
    for index, op in enumerate(ops):
        host.maybe()
        if tracer is not None:
            tracer.op = (phase, op.n)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                value = op.fn()
            else:
                with tracer.span("bench.op"):
                    value = op.fn()
        except Exception as exc:  # an op that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            value = exc
        results.append(Result(op, phase, rnd, index, value, t0, time.perf_counter() - t0))
    return results


def run_body(workload, rounds: int, host: HostProbe, tracer=None, first_round: int = 0,
             between_rounds=None) -> dict:
    """``rounds`` rounds of the phase-1 ops followed by the phase-2 ops.
    ``between_rounds`` is called after every round, outside any op."""
    phases = (("ops", workload.ops()), ("mc", workload.mc_ops()))
    results: list[Result] = []
    for rnd in range(first_round, first_round + rounds):
        for phase, op_list in phases:
            results += run_round(op_list, phase, rnd, tracer, host)
        if between_rounds is not None:
            between_rounds()
    return {"results": results, "rounds": rounds}


def op_seconds(results: list[Result], phase: str, host: HostProbe | None) -> list[float]:
    """Each op's median time over the rounds that ran it, each time scaled to
    the host's speed around it when ``host`` is given.

    Every round repeats the same ops on the same inputs, so the spread between
    rounds is the host's, not the program's. A scaled time errs by up to ~2x
    either way when the host switched speed between a probe and the op, so
    the median, not the best, is taken.
    """
    times: dict = {}
    for r in results:
        if r.phase == phase:
            times.setdefault(r.index, []).append(r.seconds if host is None else host.scaled(r.start, r.seconds))
    return [statistics.median(times[i]) for i in sorted(times)]


def ops_per_s(results: list[Result], host: HostProbe | None) -> float:
    times = op_seconds(results, "ops", host)
    return len(times) / sum(times)


def end_to_end(results: list[Result], setups: list[tuple[float, float]], failed: int,
               host: HostProbe) -> tuple[dict, dict]:
    """End-to-end metrics, times scaled to the host's speed; counts behind them.
    ``setups`` holds the start and the seconds of every set-up."""
    latency = [r.op.latency for r in results if r.phase == "ops" and r.round == 0]
    lat_ms = sorted(s * 1e3 for s, counted in zip(op_seconds(results, "ops", host), latency) if counted)
    mc_times = op_seconds(results, "mc", host)
    samples = sum(r.value.samples for r in results if r.phase == "mc" and r.round == 0)
    values = {
        "setup_s": statistics.median(host.scaled(start, seconds) for start, seconds in setups),
        "ops_per_s": ops_per_s(results, host),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p95_ms": statistics.quantiles(lat_ms, n=20, method="inclusive")[18] if len(lat_ms) > 1 else lat_ms[0],
        "mc_samples_per_s": samples / sum(mc_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ops_ratio": (len(results) - failed) / len(results),
    }
    counts = {
        "latency_samples": len(lat_ms),
        "latency_samples_beyond_p95": sum(1 for x in lat_ms if x > values["op_p95_ms"]),
        "rounds": 1 + max(r.round for r in results),
        "mc_calls_per_round": len(mc_times),
        "mc_samples_per_round": samples,
        "setup_reps": len(setups),
        "failed_ops_ratio": failed / len(results),
        "host_probes": len(host.probes),
        "host_probe_best_s": min(host.probes),
        "host_probe_median_s": statistics.median(host.probes),
        "unscaled_ops_per_s": ops_per_s(results, None),
    }
    return values, counts


def check(workload, results: list[Result]) -> int:
    """Count failed op runs: those that raised, those whose output differs from
    the op's first run, and every run of an op whose output check fails."""
    first: dict = {}
    bad: set = set()
    for r in results:
        if isinstance(r.value, BaseException):
            bad.add((r.phase, r.index))
        elif (r.phase, r.index) not in first:
            first[(r.phase, r.index)] = r
        elif r.value != first[(r.phase, r.index)].value:
            print(f"check failed: {r.op.label}: round {r.round} output differs from round 0", file=sys.stderr)
            bad.add((r.phase, r.index))
    checked = [r for key, r in first.items() if key not in bad]
    try:
        failures = workload.check(checked)
    except Exception:  # a check that cannot run fails every op it covers
        traceback.print_exc(file=sys.stderr)
        failures = [(j, "the check raised") for j in range(len(checked))]
    for j, msg in failures:
        print(f"check failed: {checked[j].op.label}: {msg}", file=sys.stderr)
        bad.add((checked[j].phase, checked[j].index))
    return sum(1 for r in results if (r.phase, r.index) in bad)


def commit_id() -> str:
    """HEAD of the checkout's git metadata, read without running git; 'unknown' outside git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit_id(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    host = HostProbe()
    setups = []

    def timed_set_up():
        host.maybe()
        start = time.perf_counter()
        po, workload, seconds = set_up(args.workload, args.seed)
        setups.append((start, seconds))
        return po, workload

    try:
        for _ in range(SETUP_REPS):
            po, workload = timed_set_up()
    except ImportError as exc:
        print(f"error: cannot import prophet_order from {SRC}: {exc}", file=sys.stderr)
        return 2

    info = environment(args)
    if args.trace:
        from tracer import Tracer

        quarter = max(1, workload.ROUNDS // 4)
        plain = run_body(workload, quarter, host)
        tracer = Tracer()
        tracer.install(po)
        try:
            body = run_body(workload, quarter, host, tracer, first_round=quarter)
            results = plain["results"] + body["results"]
            tracer.op = ("check", 0)
            failed = check(workload, results)
        finally:
            tracer.uninstall()
            tracer.finish()
        os.makedirs(OUT, exist_ok=True)
        trace_path = os.path.join(OUT, f"trace_{args.workload}.jsonl.gz")
        tracer.write(trace_path)
        rounds = {"ops": body["rounds"], "mc": body["rounds"], "check": 1}
        host.maybe()
        rates = {"untraced": ops_per_s(plain["results"], host), "traced": ops_per_s(body["results"], host)}
        metrics = per_layer_values(tracer, rounds, rates)
        info.update(rounds=rounds, trace_file=os.path.relpath(trace_path, ROOT), spans=len(tracer.spans))
    else:
        # Set-ups spread over the run sample the host's speed at different
        # moments; only their times are kept. A round count that followed the
        # speed of the code would change the estimate with it, so the time
        # left after the rounds goes to set-ups alone.
        start = time.perf_counter()
        results = run_body(workload, workload.ROUNDS, host, between_rounds=timed_set_up)["results"]
        while time.perf_counter() - start < args.seconds:
            timed_set_up()
        host.maybe()
        failed = check(workload, results)
        values, counts = end_to_end(results, setups, failed, host)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
        info.update(counts)

    attempted = len(results)
    for name, m in metrics.items():
        print(f"{name:60s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
