#!/usr/bin/env python3
"""Seeded benchmark for discoquery: set-up time, query latency and throughput.

Run from the repository root:

    python3 perfbench/run.py --workload qa-identity.ask --seed 1 --seconds 15 --trace 0

One process runs one workload.  It generates the workload's KG, embeddings
and query texts from the seed (perfbench/gen.py), sets the program up several
times, then sends the queries from one closed-loop client for --seconds and
checks every answer outside the timed region.  The last line of stdout is a
JSON object with the keys correct, attempted, failed and metrics.

--trace 0 reports the end-to-end metrics.  --trace 1 runs the same loop twice,
half the time each, untraced and then with a span around every call into a
library layer, and reports per-layer metrics and the tracing overhead; the
spans go to .perfbench/trace-<workload>-seed<seed>.jsonl.gz.  --workload all runs
every workload, each in its own process, and prints a table.
"""
from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads; CLI children inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import array  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"


@dataclass(frozen=True)
class Workload:
    dataset: str   # key of gen.DATASETS
    kind: str      # key of kinds.STAGES
    pool: int      # distinct queries generated, sent in order and cycled
    setups: int    # set-ups timed for setup_s (median reported)
    warmup: int    # untimed queries before the loop


WORKLOADS = {
    "qa-identity.ask": Workload("qa-identity", "ask", 256, 3, 64),
    "qa-identity.rank": Workload("qa-identity", "rank", 256, 3, 64),
    "qa-identity.sparql": Workload("qa-identity", "sparql", 256, 3, 64),
    "resolve-embedded.free": Workload("resolve-embedded", "resolve_free",
                                      32, 5, 1),
    "resolve-embedded.coupled": Workload("resolve-embedded",
                                         "resolve_coupled", 32, 5, 1),
    "cli-identity": Workload("cli-identity", "cli", 32, 5, 4),
}

#: Subprocess runs per side of the import probe.
IMPORT_PROBE_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


class Loop:
    """One closed-loop client: a query is sent when the previous returns."""

    def __init__(self, kinds, ctx, w: Workload, queries):
        self.kinds, self.ctx, self.w, self.queries = kinds, ctx, w, queries
        self.stages = kinds.STAGES[w.kind]
        self.tracer = None                   # set for the traced half
        self.first: dict[int, object] = {}   # query index -> first answer
        self.ops: dict[int, int] = {}        # query index -> ops answered
        self.errors: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies = array.array("d")    # seconds, per timed op
        self.next = 0

    def one(self, timed: bool) -> None:
        qi = self.next % len(self.queries)
        self.next += 1
        q = self.queries[qi]
        tr = self.tracer
        try:
            if tr is None:
                t0 = time.perf_counter_ns()
                out = self.kinds.run_stages(self.ctx, q, self.stages)
                t1 = time.perf_counter_ns()
            else:
                out, t0, t1 = tr.run_stages(self.ctx, q, qi, self.stages,
                                            "query")
        except Exception as exc:  # a failed op is counted, not fatal
            if timed:
                self.attempted += 1
                self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
            return
        if not timed:
            self.first.setdefault(qi, out)
            return
        self.attempted += 1
        self.latencies.append((t1 - t0) / 1e9)
        self.ops[qi] = self.ops.get(qi, 0) + 1
        if qi not in self.first:
            self.first[qi] = out
        elif not bool(out == self.first[qi]):
            self.failed += 1
            self.errors.append(f"query {qi}: answer changed between runs")

    def run_for(self, seconds: float) -> None:
        """Send queries for `seconds`, finishing the current pass of a CLI
        cycle so every command is sent equally often."""
        deadline = time.perf_counter() + seconds
        cycle = 4 if self.w.kind == "cli" else 1
        while time.perf_counter() < deadline or self.next % cycle:
            self.one(timed=True)

    def qps(self, since: int = 0) -> float:
        lat = self.latencies[since:]
        return len(lat) / sum(lat)


def check_answers(kinds, loop: Loop, seed: int) -> None:
    """Verify each distinct answer by its oracle; a wrong one fails every op
    that returned it."""
    rng = np.random.default_rng([seed, 2])
    for qi, out in sorted(loop.first.items()):
        q = loop.queries[qi]
        expected = None
        if q.get("command"):
            expected = kinds.cli_expected(
                loop.ctx, q, kinds.run_stages(
                    loop.ctx, q, kinds.CLI_LIBRARY_STAGES[q["command"]]))
        try:
            reason = kinds.check(loop.w.kind, loop.ctx, q, out, rng, expected)
        except Exception as exc:
            reason = f"oracle raised {type(exc).__name__}: {exc}"
        if reason is not None:
            loop.failed += loop.ops.get(qi, 0)
            loop.errors.append(f"query {qi} ({q['text']!r}): {reason}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def set_up_many(kinds, w: Workload, files, ds, env, tracer=None):
    """Set up w.setups times; return the last context and per-stage times."""
    runs = []
    for _ in range(w.setups):
        ctx = None  # free the previous set-up first, so peak RSS holds one
        ctx, times = kinds.set_up(files, ds.semiring, env, tracer)
        runs.append(times)
    return ctx, runs


#: Stages reported in milliseconds rather than microseconds.
MS_STAGES = {"resolution.resolve_argmax", "cli.subprocess"}


def wrap_targets():
    from discoquery.matrix import Matrix
    from discoquery.semiring import Semiring
    return ((Matrix, "__post_init__", lambda a: "matrix"),
            (Semiring, "matmul", lambda a: a[0].name))


def layer_table(kinds, loop: Loop, tracer, setups, w, untraced, env) -> dict:
    """Every per-layer figure of the traced run, as name -> (value, unit)."""
    def med(xs):
        return float(np.median(xs)) if len(xs) else 0.0

    ctx = loop.ctx
    layers: dict[str, tuple[float, str]] = {}
    encode = next(k for k in setups[0] if k.startswith("encoding.")
                  and k != "encoding.build_verb_matrix")
    build_s = med([t["encoding.build_verb_matrix"] for t in setups])
    layers["kb.load_kg_ms"] = (med([t["kb.load_kg"] for t in setups]) * 1e3,
                               "ms")
    layers["kb.triples"] = (len(ctx.kg), "count")
    layers[f"{encode}_ms"] = (med([t[encode] for t in setups]) * 1e3, "ms")
    layers["encoding.encode_ms"] = layers[f"{encode}_ms"]
    layers["encoding.build_verb_matrix_ms"] = (build_s * 1e3, "ms")
    layers["encoding.verb_triples_per_s"] = (len(ctx.kg) / build_s, "1/s")
    layers["encoding.verb_matrix_mb"] = (
        ctx.verbs.matrix.entries.nbytes / 2**20, "MB")
    n, ms = tracer.counted("matrix", ("kb.load_kg", encode,
                                      "encoding.build_verb_matrix"))
    layers["matrix.setup_constructs"] = (n / len(setups), "count")
    layers["matrix.setup_construct_ms"] = (ms / len(setups), "ms")

    # Per query: the library pipeline under each root span.  For the CLI
    # the root is the in-process library run of each distinct query.
    root = "library" if w.kind == "cli" else "query"
    roots = {sid for sid, parent, name, *_ in tracer.spans
             if parent is None and name == root}
    by_stage: dict[str, list[int]] = {}
    parse: dict[int, int] = {}
    answer: dict[int, int] = {}
    for sid, parent, name, qi, t0, t1 in tracer.spans:
        if parent is None:
            continue
        by_stage.setdefault(name, []).append(t1 - t0)
        if parent not in roots:
            continue
        if parent in parse:
            answer[parent] = answer.get(parent, 0) + t1 - t0
        else:
            parse[parent] = t1 - t0
    for name, durations in by_stage.items():
        unit, scale = ("ms", 1e6) if name in MS_STAGES else ("us", 1e3)
        layers[f"{name}_{unit}"] = (med(durations) / scale, unit)
    layers["query.parse_us"] = (med(list(parse.values())) / 1e3, "us")
    layers["query.answer_us"] = (med(list(answer.values())) / 1e3, "us")

    query_stages = set(by_stage)
    nq = max(1, len(roots))
    for label in sorted(set(tracer.labels()) | {"matrix", ctx.sr.name}):
        calls, ms = tracer.counted(label, query_stages)
        name = "matrix.construct" if label == "matrix" \
            else f"semiring.matmul[{label}]"
        layers[f"{name}_calls"] = (calls / nq, "count")
        layers[f"{name}_ms"] = (ms / nq, "ms")
    layers["query.matrix_constructs"] = layers["matrix.construct_calls"]
    layers["query.matmul_calls"] = (
        sum(v for k, (v, _) in layers.items()
            if k.startswith("semiring.matmul") and k.endswith("_calls")),
        "count")
    for absent in sorted(tracer.absent):
        print(f"note: {absent} no longer exists; its counters read 0")

    if w.kind == "sparql":
        rows = [len(out[1]) for out in loop.first.values()]
        layers["sparql.rows"] = (float(np.mean(rows)), "count")
    spaces = [kinds.search_space(ctx, q) for q in loop.queries
              if w.kind.startswith("resolve") or q.get("command") == "resolve"]
    layers["resolution.search_space"] = (
        float(np.mean(spaces)) if spaces else 0.0, "count")
    if w.kind == "cli":
        layers["cli.main_ms"] = (cli_main_ms(kinds, loop), "ms")
        layers["cli.stdout_bytes"] = (float(np.mean(
            [len(out[1].encode()) for out in loop.first.values()])), "count")
    layers["cli.import_ms"] = (kinds.import_probe_ms(
        env, ROOT, IMPORT_PROBE_REPEATS), "ms")
    layers["trace.overhead"] = (loop.qps(since=untraced[1]) / untraced[0],
                                "ratio")
    return layers


def cli_main_ms(kinds, loop: Loop) -> float:
    """Median in-process cli.main time over one call per command."""
    import contextlib
    import io
    from discoquery import cli
    times = []
    for command in kinds.CLI_LIBRARY_STAGES:
        q = next(q for q in loop.queries if q["command"] == command)
        with contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter_ns()
            cli.main(kinds.cli_argv(loop.ctx, q)[3:])
            times.append((time.perf_counter_ns() - t0) / 1e6)
    return float(np.median(times))


def run_one(name: str, args) -> dict:
    import gen
    import kinds
    from spans import Tracer

    w = WORKLOADS[name]
    ds = gen.DATASETS[w.dataset]
    work = OUT / f"work-{name}-seed{args.seed}-{os.getpid()}"
    env = child_env()
    try:
        files = gen.generate(w.dataset, w.kind, args.seed, work, w.pool)
        queries = [json.loads(line) for line in
                   files["queries"].read_text(encoding="utf-8").splitlines()]
        tracer = Tracer() if args.trace else None
        if tracer:
            with tracer.wrapped(wrap_targets()):
                ctx, setups = set_up_many(kinds, w, files, ds, env, tracer)
        else:
            ctx, setups = set_up_many(kinds, w, files, ds, env)
        setup_s = float(np.median([sum(t.values()) for t in setups]))
        loop = Loop(kinds, ctx, w, queries)
        for _ in range(w.warmup):
            loop.one(timed=False)
        if tracer:
            loop.run_for(args.seconds / 2)
            untraced = (loop.qps(), len(loop.latencies))
            loop.tracer = tracer
            with tracer.wrapped(wrap_targets()):
                loop.run_for(args.seconds / 2)
                if w.kind == "cli":
                    for qi, q in enumerate(queries):
                        tracer.run_stages(
                            ctx, q, qi,
                            kinds.CLI_LIBRARY_STAGES[q["command"]], "library")
        else:
            loop.run_for(args.seconds)
        check_answers(kinds, loop, args.seed)

        lat_ms = [x * 1e3 for x in loop.latencies]
        print(f"workload {name}: dataset {w.dataset} {ds}, kind {w.kind}, "
              f"seed {args.seed}, blas_threads {BLAS_THREADS}, "
              f"triples {len(ctx.kg)}")
        print(f"  ops {loop.attempted}, failed {loop.failed}, fail_frac "
              f"{loop.failed / max(1, loop.attempted):.6g}")
        for err in loop.errors[:5]:
            print(f"  error: {err}")
        if tracer:
            layers = layer_table(kinds, loop, tracer, setups, w, untraced,
                                 env)
            for metric, (value, unit) in layers.items():
                print(f"  {metric:<40} {value:>14.6g} {unit}")
            OUT.mkdir(exist_ok=True)
            path = OUT / f"trace-{name}-seed{args.seed}.jsonl.gz"
            tracer.dump(path, {"workload": name, "seed": args.seed,
                               "blas_threads": BLAS_THREADS,
                               "absent": sorted(tracer.absent),
                               "layers": {k: v[0] for k, v in layers.items()}})
            print(f"  spans written to {path.relative_to(ROOT)}")
            metrics = {k: layers[k] for k in spec_names("per_layer")}
        else:
            who = (resource.RUSAGE_CHILDREN if w.kind == "cli"
                   else resource.RUSAGE_SELF)
            table = {
                "setup_s": (setup_s, "s"),
                "qps": (loop.qps(), "1/s"),
                "latency_ms_p50": (percentile(lat_ms, 50), "ms"),
                "latency_ms_p90": (percentile(lat_ms, 90), "ms"),
                "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024,
                                "MB"),
            }
            for metric, (value, unit) in table.items():
                print(f"  {metric:<16} {value:>14.6g} {unit}")
            print(f"  samples {len(lat_ms)}, setups {w.setups}")
            metrics = {k: table[k] for k in spec_names("end_to_end")}
        return {"correct": loop.failed == 0, "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def spec_names(key: str) -> list[str]:
    """Metric names listed under key in BENCHMARK.json: the result line
    carries exactly these; the printed table may show more."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[key]]


def run_all(args) -> dict:
    """Each workload in a fresh process, so peak RSS is that workload's."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "discoquery" / "__init__.py").is_file():
        print(f"error: discoquery sources not found under {SRC}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
