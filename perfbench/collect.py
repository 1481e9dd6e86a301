"""Run the benchmark over many seeds and record what it measured.

    python3 perfbench/collect.py

writes, from the repository root:

- ``BENCHMARK.json``: workloads and metric definitions, from ``metrics.py``
  and ``workloads.py``;
- ``perfbench/baseline.json``: every run's figures plus, per workload and
  end-to-end metric, the median, the quartiles and the spread (interquartile
  distance over the median) next to the metric's bound;
- ``perfbench/LAYERS.md``: the median of each per-layer metric over the
  traced runs, one column per workload.

Each workload gets RUNS untraced runs, seeds 1..RUNS, and TRACED_RUNS traced
runs. Runs are made one at a time, each in its own process.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_SECONDS = 50
RUNS = 10
TRACED_RUNS = 3
COMMAND = ["python3", "perfbench/run.py"]


def benchmark_config() -> dict:
    return {
        "command": COMMAND,
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": cls.WHY} for name, cls in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [{"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER],
    }


def run_once(workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(RUN_SECONDS), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["info"] = json.loads(lines[-2])["info"]
    return result


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    if bound is not None:
        out["bound"] = bound
    return out


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "w", encoding="utf-8") as fh:
        json.dump(benchmark_config(), fh, indent=2)
        fh.write("\n")

    seeds = list(range(1, RUNS + 1))
    report: dict = {"run_seconds": RUN_SECONDS, "workloads": {}}
    layer_medians: dict = {}
    for workload in WORKLOADS:
        runs = []
        for seed in seeds:
            res = run_once(workload, seed, 0)
            runs.append({"seed": seed, "correct": res["correct"], "attempted": res["attempted"],
                         "failed": res["failed"], "info": res["info"],
                         "metrics": {k: v["value"] for k, v in res["metrics"].items()}})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), flush=True)
        summary = {
            name: summarize([r["metrics"][name] for r in runs], bound)
            for name, _unit, _better, bound in END_TO_END
        }
        traced = [run_once(workload, seed, 1) for seed in seeds[:TRACED_RUNS]]
        layer_medians[workload] = {
            name: statistics.median(t["metrics"][name]["value"] for t in traced) for name, _, _ in PER_LAYER
        }
        report["workloads"][workload] = {
            "environment": {k: runs[0]["info"][k] for k in ("python", "platform", "commit", "nproc")},
            "summary": summary,
            "runs": runs,
            "traced_runs": [{"seed": t["info"]["seed"], "correct": t["correct"], "rounds": t["info"]["rounds"]}
                            for t in traced],
        }
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- spread above bound/3"
            print(f"{workload:10s} {name:18s} median {s['median']:12.6g} spread {s['spread']:.4f} "
                  f"bound {s['bound']}{flag}", flush=True)

    with open(os.path.join(HERE, "baseline.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    write_layers(os.path.join(HERE, "LAYERS.md"), layer_medians)
    return 0


def write_layers(path: str, medians: dict) -> None:
    workloads = list(medians)
    units = {name: unit for name, unit, _ in PER_LAYER}
    lines = [
        "# Per-layer figures",
        "",
        f"Median over {TRACED_RUNS} traced runs (seeds 1..{TRACED_RUNS}) of `python3 perfbench/run.py --trace 1`,"
        " per round of each workload (see `metrics.py`). Regenerate with `python3 perfbench/collect.py`.",
        "",
        "| metric | unit | " + " | ".join(workloads) + " |",
        "|---|---|" + "---|" * len(workloads),
    ]
    for name in units:
        cells = " | ".join(f"{medians[w][name]:.4g}" for w in workloads)
        lines.append(f"| `{name}` | {units[name]} | {cells} |")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
