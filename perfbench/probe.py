#!/usr/bin/env python3
"""One-off probe of the two hot spots at the scales the seed finishes in seconds.

Run from the repository root:

    python3 perfbench/probe.py --out perfbench/PROBE.json

It times build_verb_matrix on the identity encoding at |E| = 200 and 500,
and resolve_argmax on two coupled coreference classes
(``he r0 e1 . e2 r1 him . he r2 him .`` with corefer 0 2, identity encoding)
at |E| = 100 and 200.  KGs have |R| = 8 and T = 10 |E| uniform random
triples.  This is not a workload: it makes no answer checks and runs each
case a fixed number of times, reporting the median.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from discoquery import (build_verb_matrix, by_name, identity_encoding,  # noqa: E402
                        make_constraints, parse_discourse, resolve_argmax)
from discoquery.kb import KnowledgeGraph, Triple, Vocabulary  # noqa: E402

RELATIONS = 8
COUPLED = "he r0 e1 . e2 r1 him . he r2 him ."

# (case, |E|, semiring, repeats)
CASES = [
    ("build_verb_matrix", 200, "real", 3),
    ("build_verb_matrix", 500, "real", 3),
    ("resolve_argmax_coupled", 100, "real", 3),
    ("resolve_argmax_coupled", 200, "real", 1),
    ("resolve_argmax_coupled", 200, "fuzzy", 1),
]


def random_kg(n_entities: int, seed: int):
    rng = np.random.default_rng(seed)
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(n_entities)],
                                  [f"r{j}" for j in range(RELATIONS)])
    t = 10 * n_entities
    spo = np.stack([rng.integers(n_entities, size=t),
                    rng.integers(RELATIONS, size=t),
                    rng.integers(n_entities, size=t)], axis=1)
    return vocab, KnowledgeGraph(Triple(*row) for row in spo.tolist())


def time_case(case: str, n: int, semiring: str, seed: int) -> float:
    vocab, kg = random_kg(n, seed)
    enc = identity_encoding(vocab, by_name(semiring))
    t0 = time.perf_counter()
    verbs = build_verb_matrix(enc, kg)
    if case == "build_verb_matrix":
        return time.perf_counter() - t0
    d = parse_discourse(COUPLED, vocab)
    cons = make_constraints(d.k, vocab, [(0, 2)])
    t0 = time.perf_counter()
    resolve_argmax(d, cons, enc, verbs, vocab)
    return time.perf_counter() - t0


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--out", type=Path)
    args = p.parse_args()
    rows = []
    for case, n, semiring, repeats in CASES:
        times = [time_case(case, n, semiring, args.seed)
                 for _ in range(repeats)]
        rows.append({"case": case, "entities": n, "relations": RELATIONS,
                     "triples_drawn": 10 * n, "semiring": semiring,
                     "repeats": repeats, "median_s": statistics.median(times)})
        print(f"{case:<24} |E|={n:<5} {semiring:<6} "
              f"{statistics.median(times):9.3f} s", flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"seed": args.seed, "cpus": os.cpu_count(), "blas_threads": 1,
             "results": rows}, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
