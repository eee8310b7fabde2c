#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, with a seed per run.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --batches 2 --out perfbench/STEADINESS.json

Each batch runs perfbench/run.py once per workload and seed (seeds
1..runs, every workload for one seed before the next seed) and reports, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median.  A
metric is steady when its spread is below a third of its bound in
BENCHMARK.json (setup_s excepted: it is judged by the drift of its median),
and when no batch's median is worse than the first batch's by more than the
bound.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=180)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n"
                         f"{proc.stdout}")
    result["wall_s"] = wall
    return result


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--batches", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--out", type=Path)
    args = p.parse_args()

    metrics = {m["name"]: m for m in spec["end_to_end"]}
    batches = []
    for b in range(args.batches):
        # Seed-major order: a slow spell of the host touches a few runs of
        # every workload rather than every run of one.
        results: dict[str, list[dict]] = {w: [] for w in args.workloads}
        batch: dict[str, dict] = {}
        batches.append(batch)
        for seed in range(1, args.runs + 1):
            for w in args.workloads:
                results[w].append(run(w, seed, args.seconds))
            if seed < 2:
                continue
            for w, rs in results.items():
                batch[w] = {name: summarize([r["metrics"][name]["value"]
                                             for r in rs])
                            for name in metrics}
                batch[w]["wall_s"] = summarize([r["wall_s"] for r in rs])
            steady = judge(batches, metrics)
            if args.out:  # rewritten each round, so a cut run keeps its data
                write_report(args, batches, steady)
        for w in args.workloads:
            for name, s in batch[w].items():
                bound = metrics[name]["bound"] if name in metrics else None
                flag = ""
                if bound is not None and name != "setup_s" \
                        and s["spread"] >= bound / 3:
                    flag = "  <-- spread >= bound/3"
                print(f"batch {b} {w:<26} {name:<16} median "
                      f"{s['median']:<12.6g} spread {s['spread']:.4f}{flag}",
                      flush=True)
    print(f"steady: {steady}")
    return 0 if steady else 1


def judge(batches, metrics) -> bool:
    """Spreads below bound / 3 and no batch median worse than the first's
    by more than the bound, over the workloads measured so far."""
    steady = True
    for w in batches[0]:
        for name, m in metrics.items():
            if name != "setup_s" and any(
                    b[w][name]["spread"] >= m["bound"] / 3
                    for b in batches if w in b):
                steady = False
            first = batches[0][w][name]
            for later in batches[1:]:
                if w not in later:
                    continue
                med = later[w][name]["median"]
                worse = (med - first["median"] if m["better"] == "lower"
                         else first["median"] - med) / first["median"]
                later[w][name]["drift"] = worse
                if worse > m["bound"]:
                    steady = False
    return steady


def write_report(args, batches, steady: bool) -> None:
    report = {
        "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                    "python": sys.version.split()[0],
                    "platform": platform.platform()},
        "run_seconds": args.seconds, "runs": args.runs,
        "seeds": list(range(1, args.runs + 1)),
        "steady": steady, "batches": batches}
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    sys.exit(main())
