"""Ordered vocabulary, triple storage, and the knowledge-graph effect.

KG file format: UTF-8 text, one triple per line as three tab-separated
tokens ``subject<TAB>verb<TAB>object``.  A line holding a single token
declares an entity that occurs in no triple.  ``#``-prefixed lines are
comments; blank lines are ignored.  Entity and relation namespaces must be
disjoint within a file.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LoadError, ShapeMismatch, utf8_text
from .matrix import Matrix, check_budget, one_hot_state, tensor
from .semiring import Semiring


@dataclass(frozen=True, eq=False)
class Vocabulary:
    entities: tuple[str, ...]
    relations: tuple[str, ...]
    entity_index: dict[str, int] = field(repr=False)
    relation_index: dict[str, int] = field(repr=False)

    @classmethod
    def from_lists(cls, entities, relations) -> "Vocabulary":
        entities, relations = tuple(entities), tuple(relations)
        return cls(entities, relations,
                   {e: i for i, e in enumerate(entities)},
                   {r: i for i, r in enumerate(relations)})

    @property
    def n_entities(self) -> int:
        return len(self.entities)

    @property
    def n_relations(self) -> int:
        return len(self.relations)


@dataclass(frozen=True, order=True)
class Triple:
    s: int
    v: int
    o: int


class KnowledgeGraph:
    """Deduplicated triple set with sparse lookup indices."""

    def __init__(self, triples):
        seen = set()
        ordered = []
        for t in triples:
            if t not in seen:
                seen.add(t)
                ordered.append(t)
        self.triples: tuple[Triple, ...] = tuple(ordered)
        self.triple_set: frozenset[Triple] = frozenset(seen)
        self.by_sv: dict[tuple[int, int], tuple[int, ...]] = {}
        self.by_vo: dict[tuple[int, int], tuple[int, ...]] = {}
        self.by_v: dict[int, tuple[Triple, ...]] = {}
        by_sv, by_vo, by_v = {}, {}, {}
        for t in self.triples:
            by_sv.setdefault((t.s, t.v), []).append(t.o)
            by_vo.setdefault((t.v, t.o), []).append(t.s)
            by_v.setdefault(t.v, []).append(t)
        self.by_sv = {k: tuple(v) for k, v in by_sv.items()}
        self.by_vo = {k: tuple(v) for k, v in by_vo.items()}
        self.by_v = {k: tuple(v) for k, v in by_v.items()}

    def __len__(self):
        return len(self.triples)


def load_kg(path) -> tuple[Vocabulary, KnowledgeGraph]:
    """Parse a KG file; vocabulary is ordered by first appearance."""
    entities: list[str] = []
    relations: list[str] = []
    e_index: dict[str, int] = {}
    r_index: dict[str, int] = {}

    def entity(tok: str, lineno: int) -> int:
        if tok in r_index:
            raise LoadError(path, lineno,
                            f"token {tok!r} used as both entity and relation")
        if tok not in e_index:
            e_index[tok] = len(entities)
            entities.append(tok)
        return e_index[tok]

    def relation(tok: str, lineno: int) -> int:
        if tok in e_index:
            raise LoadError(path, lineno,
                            f"token {tok!r} used as both entity and relation")
        if tok not in r_index:
            r_index[tok] = len(relations)
            relations.append(tok)
        return r_index[tok]

    triples: list[Triple] = []
    with utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) == 1:
                entity(parts[0], lineno)
                continue
            if len(parts) != 3:
                raise LoadError(path, lineno,
                                f"expected 3 tab-separated tokens, got {len(parts)}")
            s, v, o = parts
            if not (s and v and o):
                raise LoadError(path, lineno, "empty token")
            triples.append(Triple(entity(s, lineno), relation(v, lineno),
                                  entity(o, lineno)))
    vocab = Vocabulary.from_lists(entities, relations)
    return vocab, KnowledgeGraph(triples)


def _check_triple(t: Triple, vocab: Vocabulary) -> None:
    if not (0 <= t.s < vocab.n_entities and 0 <= t.o < vocab.n_entities
            and 0 <= t.v < vocab.n_relations):
        raise ShapeMismatch(f"triple {t} out of range for vocabulary")


def kg_effect(kg: KnowledgeGraph, vocab: Vocabulary, semiring: Semiring,
              budget: int | None = None) -> Matrix:
    """Dense membership effect |E| (x) |R| (x) |E| -> 1: a test oracle."""
    ne, nr = vocab.n_entities, vocab.n_relations
    check_budget(ne * nr * ne, budget)
    ent = np.zeros((1, ne * nr * ne), dtype=semiring.dtype)
    for t in kg.triples:
        ent[0, (t.s * nr + t.v) * ne + t.o] = semiring.one
    return Matrix(semiring, (ne, nr, ne), (), ent)


def kg_contains(kg: KnowledgeGraph, t: Triple, semiring: Semiring):
    """Membership scalar via hash lookup, never materializing the effect."""
    return semiring.one if t in kg.triple_set else semiring.zero


def triple_state(t: Triple, vocab: Vocabulary, semiring: Semiring) -> Matrix:
    _check_triple(t, vocab)
    ne, nr = vocab.n_entities, vocab.n_relations
    return tensor(tensor(one_hot_state(t.s, ne, semiring),
                         one_hot_state(t.v, nr, semiring)),
                  one_hot_state(t.o, ne, semiring))
