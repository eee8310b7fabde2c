"""Ordered vocabulary, triple storage, and KG membership.

KG file format: UTF-8 text, one triple per line as three tab-separated
tokens ``subject<TAB>verb<TAB>object``.  A line holding a single token
declares an entity that occurs in no triple.  ``#``-prefixed lines are
comments; blank lines are ignored.  Entity and relation namespaces must be
disjoint within a file, and neither may hold a token of ``RESERVED``.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import starmap

import numpy as np

from .errors import LoadError, utf8_text
from .semiring import Semiring

#: Pronouns of the controlled language.
PRONOUNS = frozenset({"he", "him", "she", "her", "they", "them", "it"})
#: Tokens the sentence and question grammars reserve: no entity or
#: relation may be named so.
RESERVED = PRONOUNS | {"that", "who", "whom", "does", ".", "?"}


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


def _grouped(pairs) -> dict:
    out: dict = {}
    for key, value in pairs:
        out.setdefault(key, []).append(value)
    return {k: tuple(v) for k, v in out.items()}


class KnowledgeGraph:
    """Deduplicated triples as one read-only (T, 3) int array ``spo``.

    Rows are (subject, relation, object) ordinals in first-appearance
    order.  The tuple, set and dict views of the triples are built on first
    use only; the set-up path reads ``spo`` and ``relation``.
    """

    def __init__(self, triples):
        """``triples``: Triple objects or a (T, 3) int array of rows."""
        if not isinstance(triples, np.ndarray):
            triples = [(t.s, t.v, t.o) for t in triples]
        spo = np.array(triples, dtype=np.intp).reshape(-1, 3)
        if len(spo):
            # One int64 key per triple; np.unique's return_index gives each
            # key's first occurrence, and sorting those keeps file order.
            ne = int(max(spo[:, 0].max(), spo[:, 2].max())) + 1
            nr = int(spo[:, 1].max()) + 1
            key = (spo[:, 0].astype(np.int64) * nr + spo[:, 1]) * ne + spo[:, 2]
            first = np.unique(key, return_index=True)[1]
            if len(first) < len(spo):
                first.sort()
                spo = spo[first]
        spo.flags.writeable = False
        self.spo = spo

    def __len__(self):
        return len(self.spo)

    @cached_property
    def _by_relation(self) -> tuple[np.ndarray, np.ndarray]:
        v = self.spo[:, 1]
        rows = self.spo[np.argsort(v, kind="stable")]
        rows.flags.writeable = False
        return rows, np.concatenate(([0], np.cumsum(np.bincount(v))))

    def relation(self, v: int) -> np.ndarray:
        """The rows of ``spo`` with relation v, in ``spo`` order."""
        rows, offsets = self._by_relation
        if v + 1 >= len(offsets):
            return rows[:0]
        return rows[offsets[v]:offsets[v + 1]]

    @cached_property
    def triples(self) -> tuple[Triple, ...]:
        return tuple(starmap(Triple, self.spo.tolist()))

    @cached_property
    def triple_set(self) -> frozenset[Triple]:
        return frozenset(self.triples)

    @cached_property
    def by_sv(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return _grouped(((s, v), o) for s, v, o in self.spo.tolist())

    @cached_property
    def by_vo(self) -> dict[tuple[int, int], tuple[int, ...]]:
        return _grouped(((v, o), s) for s, v, o in self.spo.tolist())

    @cached_property
    def by_v(self) -> dict[int, tuple[Triple, ...]]:
        return _grouped((t.v, t) for t in self.triples)


def _line_error(path, text: str) -> LoadError:
    """The LoadError of the first bad line of a KG file's text."""
    kinds: dict[str, str] = {}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) not in (1, 3):
            return LoadError(path, lineno,
                             f"expected 3 tab-separated tokens, got {len(parts)}")
        if not all(parts):
            return LoadError(path, lineno, "empty token")
        for tok, kind in zip(parts, ("entity", "relation", "entity")):
            if kinds.setdefault(tok, kind) != kind:
                return LoadError(path, lineno, f"token {tok!r} used as "
                                 "both entity and relation")
            if tok in RESERVED:
                return LoadError(path, lineno, f"token {tok!r} is reserved")
    raise AssertionError("no bad line")


def load_kg(path) -> tuple[Vocabulary, KnowledgeGraph]:
    """Parse a KG file; vocabulary is ordered by first appearance.

    The checks run on the whole file at once; only when one fails are the
    lines walked one by one, to name the first bad line.
    """
    with utf8_text(path) as fh:
        raw = fh.read()
    text = "\n".join(ln for ln in map(str.strip, raw.split("\n"))
                     if ln and ln[0] != "#")
    # Tokens per line, from the tab and newline bytes of the UTF-8 text.
    code = np.frombuffer(text.encode(), dtype=np.uint8)
    newline = np.flatnonzero(code == 10)
    width = 1 + np.bincount(np.searchsorted(newline, np.flatnonzero(code == 9)),
                            minlength=len(newline) + bool(text))
    if not ((width == 1) | (width == 3)).all():
        raise _line_error(path, raw)
    tokens = np.array(text.replace("\n", "\t").split("\t") if text else [],
                      dtype=object)
    # Column of each token in its line: an entity line holds one entity, a
    # triple line subject, relation and object.
    column = np.arange(len(tokens)) - np.repeat(np.cumsum(width) - width,
                                                width)
    ent_tokens = tokens[column != 1].tolist()
    rel_tokens = tokens[column == 1].tolist()
    e_index = {e: i for i, e in enumerate(dict.fromkeys(ent_tokens))}
    r_index = {r: i for i, r in enumerate(dict.fromkeys(rel_tokens))}
    if ("" in e_index or "" in r_index
            or not e_index.keys().isdisjoint(r_index)
            or not RESERVED.isdisjoint(e_index)
            or not RESERVED.isdisjoint(r_index)):
        raise _line_error(path, raw)
    ents = np.fromiter(map(e_index.__getitem__, ent_tokens), dtype=np.intp,
                       count=len(ent_tokens))
    n_ents = (width + 1) // 2
    subj = (np.cumsum(n_ents) - n_ents)[width == 3]
    spo = np.empty((len(rel_tokens), 3), dtype=np.intp)
    spo[:, 0] = ents[subj]
    spo[:, 1] = np.fromiter(map(r_index.__getitem__, rel_tokens),
                            dtype=np.intp, count=len(rel_tokens))
    spo[:, 2] = ents[subj + 1]
    vocab = Vocabulary(tuple(e_index), tuple(r_index), e_index, r_index)
    return vocab, KnowledgeGraph(spo)


def kg_contains(kg: KnowledgeGraph, t: Triple, semiring: Semiring):
    """Membership scalar via hash lookup, never materializing the effect."""
    return semiring.one if t in kg.triple_set else semiring.zero
