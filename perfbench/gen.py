"""Seeded generator for the benchmark's knowledge graphs, embeddings and queries.

Everything is drawn from numpy's PCG64 generator seeded by the workload seed,
so the same seed writes byte-identical files.  Entity popularity follows a
finite Zipf law (weight of rank i is i**-ZIPF_EXPONENT) for subjects and
objects alike; relations are drawn equally often.  Each query kind uses one sentence
shape and varies only the entities and relations drawn into it.

Run ``python3 perfbench/gen.py DATASET KIND SEED OUTDIR`` to write one
workload's files by hand.
"""
from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZIPF_EXPONENT = 0.8


@dataclass(frozen=True)
class Dataset:
    semiring: str          # name accepted by discoquery.semiring.by_name
    entities: int
    relations: int
    triples: int           # draws before de-duplication
    dim: int | None        # embedding dimension; None for the identity encoding


DATASETS = {
    "qa-identity": Dataset("boolean", 500, 8, 5000, None),
    "resolve-embedded": Dataset("fuzzy", 2000, 16, 20000, 32),
    "cli-identity": Dataset("real", 300, 8, 3000, None),
}

#: Candidates per coreference class in the coupled resolution shape.
COUPLED_CANDIDATES = 40


def entity_name(i: int) -> str:
    return f"e{i:04d}"


def relation_name(j: int) -> str:
    return f"r{j}"


def zipf_probs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Zipf weights over n items, with ranks shuffled over the item ids."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -ZIPF_EXPONENT
    probs = np.empty(n)
    probs[rng.permutation(n)] = weights / weights.sum()
    return probs


def make_triples(rng: np.random.Generator, ds: Dataset,
                 popularity: np.ndarray) -> np.ndarray:
    """(T, 3) int array of distinct (s, v, o), in order of first draw."""
    s = rng.choice(ds.entities, ds.triples, p=popularity)
    o = rng.choice(ds.entities, ds.triples, p=popularity)
    # Every relation gets the same number of draws, so per-relation work
    # (a SPARQL pattern scans one relation's triples) does not vary by seed.
    v = rng.permutation(np.arange(ds.triples) % ds.relations)
    spo = np.stack([s, v, o], axis=1)
    _, first = np.unique(spo, axis=0, return_index=True)
    return spo[np.sort(first)]


def write_kg(path: Path, ds: Dataset, triples: np.ndarray) -> None:
    # Declaring every entity first fixes |E| and the vocabulary order.
    lines = [entity_name(e) for e in range(ds.entities)]
    lines += [f"{entity_name(s)}\t{relation_name(v)}\t{entity_name(o)}"
              for s, v, o in triples.tolist()]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_embeddings(path: Path, rng: np.random.Generator,
                     ds: Dataset) -> None:
    # Cubing skews components toward 0 so entities differ in a few dimensions.
    vecs = rng.random((ds.entities, ds.dim)) ** 3
    lines = [entity_name(e) + "\t" + ",".join(f"{x:.4f}" for x in row)
             for e, row in enumerate(vecs.tolist())]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Draw:
    """Entity, relation and triple draws shared by the query shapes."""

    def __init__(self, rng, ds, popularity, triples):
        self.rng, self.ds, self.popularity = rng, ds, popularity
        self.triples = triples

    def entity(self) -> str:
        return entity_name(int(self.rng.choice(self.ds.entities,
                                               p=self.popularity)))

    def relation(self) -> str:
        return relation_name(int(self.rng.integers(self.ds.relations)))

    def triple(self) -> tuple[str, str, str]:
        s, v, o = self.triples[int(self.rng.integers(len(self.triples)))]
        return entity_name(s), relation_name(v), entity_name(o)


def _ask(d: _Draw, i: int) -> dict:
    # Every other sentence is built from stored triples so answers vary.
    if i % 2:
        b, r2, c = d.triple()
        chain = d.triples[d.triples[:, 2] == int(b[1:])]
        if len(chain):
            s, v, _ = chain[int(d.rng.integers(len(chain)))]
            a, r1 = entity_name(s), relation_name(v)
        else:
            a, r1 = d.entity(), d.relation()
    else:
        a, r1, b, r2, c = (d.entity(), d.relation(), d.entity(),
                           d.relation(), d.entity())
    return {"text": f"{a} {r1} {b} that {r2} {c} ."}


def _rank(d: _Draw, i: int) -> dict:
    if i % 2:
        return {"text": f"who does {d.entity()} {d.relation()} ?"}
    return {"text": f"who {d.relation()} {d.entity()} ?"}


def _sparql(d: _Draw, i: int) -> dict:
    _, ra, _ = d.triple()
    _, rb, x = d.triple()
    return {"text": f"he {ra} him . he {rb} {x} .", "corefer": [[0, 2]]}


def _resolve_free(d: _Draw, i: int) -> dict:
    return {"text": f"he {d.relation()} {d.entity()} . "
                    f"{d.entity()} {d.relation()} him ."}


def _resolve_coupled(d: _Draw, i: int) -> dict:
    picks = [d.rng.choice(d.ds.entities, COUPLED_CANDIDATES, replace=False,
                          p=d.popularity) for _ in range(2)]
    cands = {str(slot): [entity_name(e) for e in sorted(p.tolist())]
             for slot, p in zip((0, 1), picks)}
    return {"text": f"he {d.relation()} him . she {d.relation()} {d.entity()} .",
            "corefer": [[0, 2]], "candidates": cands}


def _cli(d: _Draw, i: int) -> dict:
    command = ("ask", "rank", "resolve", "emit-sparql")[i % 4]
    if command == "ask":
        q = _ask(d, i // 4)
    elif command == "rank":
        q = _rank(d, i // 4)
    elif command == "resolve":
        q = {"text": f"he {d.relation()} {d.entity()} ."}
    else:
        q = {"text": f"{d.entity()} {d.relation()} him ."}
    return {"command": command, **q}


QUERY_SHAPES = {
    "ask": _ask,
    "rank": _rank,
    "sparql": _sparql,
    "resolve_free": _resolve_free,
    "resolve_coupled": _resolve_coupled,
    "cli": _cli,
}


def generate(dataset: str, kind: str, seed: int, outdir: Path,
             n_queries: int) -> dict:
    """Write kg.tsv (+ embeddings.tsv) and queries.jsonl; return their paths."""
    ds = DATASETS[dataset]
    outdir.mkdir(parents=True, exist_ok=True)
    data_rng = np.random.default_rng([seed, 0])
    popularity = zipf_probs(data_rng, ds.entities)
    triples = make_triples(data_rng, ds, popularity)
    files = {"kg": outdir / "kg.tsv", "queries": outdir / "queries.jsonl"}
    write_kg(files["kg"], ds, triples)
    if ds.dim is not None:
        files["embeddings"] = outdir / "embeddings.tsv"
        write_embeddings(files["embeddings"], data_rng, ds)
    draw = _Draw(np.random.default_rng([seed, 1]), ds, popularity, triples)
    queries = [QUERY_SHAPES[kind](draw, i) for i in range(n_queries)]
    files["queries"].write_text(
        "".join(json.dumps(q, sort_keys=True) + "\n" for q in queries),
        encoding="utf-8")
    return files


if __name__ == "__main__":
    if len(sys.argv) != 5:
        sys.exit("usage: gen.py DATASET KIND SEED OUTDIR")
    print(generate(sys.argv[1], sys.argv[2], int(sys.argv[3]),
                   Path(sys.argv[4]), 64))
