"""Ordered vocabulary, triple storage, and KG membership.

KG file format: UTF-8 text, lines ending at ``\n``, ``\r\n`` or ``\r`` and
stripped of Python whitespace (``str.strip``, tab included).  A line holds
one triple as three tab-separated tokens ``subject<TAB>verb<TAB>object``, or
one token declaring an entity that occurs in no triple.  ``#``-prefixed lines
are comments; blank lines are ignored.  Tokens are compared by their UTF-8
bytes.  Entity and relation namespaces must be disjoint within a file, and
neither may hold a token of ``RESERVED``.
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
            # Keeping each triple's first row keeps file order.
            key = np.ravel_multi_index(spo.T, spo.max(axis=0) + 1)
            first = _first_appearance(_dense(key))[1]
            if len(first) < len(spo):
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


#: Bytes that may begin or end a character ``str.strip`` removes.
_EDGE = np.array([c > 127 or chr(c).isspace() for c in range(256)])
#: OR-ed into the 8-byte word at byte k of a token, by the bytes left from k
#: (8 for 8 or more): 0xFF, never in UTF-8, fills the bytes past its end.
_PAD = np.array([2**64 - 2**(8 * r) for r in range(8)] + [0], dtype=np.uint64)


def _dense(keys: np.ndarray) -> np.ndarray:
    """Ids from 0 up that are equal where the keys are."""
    return np.unique(keys, return_inverse=True)[1]


def _first_appearance(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Renumber ids >= 0 by first appearance: each element's new id, and
    the position of each new id's first element, ascending."""
    first = np.full(ids.max(initial=-1) + 1, len(ids), dtype=np.intp)
    np.minimum.at(first, ids, np.arange(len(ids)))
    is_first = np.zeros(len(ids) + 1, dtype=bool)
    is_first[first] = True
    return np.cumsum(is_first)[first[ids]] - 1, np.flatnonzero(is_first[:-1])


def _tokens(data: bytes, start: np.ndarray, end: np.ndarray):
    """First-appearance ids of the tokens ``data[start:end]``, equal where
    their bytes are, and the distinct names.  A token is its words at 0, 8,
    ..., 8 * (length // 8), the last padded; ``data`` ends in 8 spare bytes."""
    words = np.ndarray((len(data) - 7,), dtype="<u8", buffer=data,
                       strides=(1,))  # words[i]: the 8 bytes from byte i on
    length = end - start
    ids = _dense(words[start] | _PAD[np.minimum(length, 8)])
    long = np.flatnonzero(length >= 8)
    for k in range(8, int(length.max(initial=0)) + 1, 8):
        word = _dense(words[start[long] + k]
                      | _PAD[np.minimum(length[long] - k, 8)])
        ids[long] = ids.max() + 1 + _dense(ids[long] * (word.max() + 1) + word)
        long = long[length[long] >= k + 8]
    ids, first = _first_appearance(ids)
    return ids, [data[s:e].decode()
                 for s, e in zip(start[first].tolist(), end[first].tolist())]


def load_kg(path) -> tuple[Vocabulary, KnowledgeGraph]:
    """Parse a KG file; vocabulary is ordered by first appearance.

    Lines and tokens are cut at newline and tab bytes; Python strips only
    lines with an ``_EDGE`` byte at an edge and decodes only distinct names.
    Only a failed whole-file check walks the lines, to name the first bad one.
    """
    with utf8_text(path) as fh:
        raw = fh.read()
    data = raw.encode() + bytes(8)
    code = np.frombuffer(data, dtype=np.uint8)
    newline = np.flatnonzero(code == 10)
    start = np.concatenate(([0], newline + 1))
    end = np.concatenate((newline, [len(data) - 8]))
    edged = (end > start) & (_EDGE[code[start]] | _EDGE[code[end - 1]])
    for i in np.flatnonzero(edged).tolist():
        line = data[start[i]:end[i]].decode()
        start[i] += len(line[:len(line) - len(line.lstrip())].encode())
        end[i] = start[i] + len(line.strip().encode())
    keep = (end > start) & (code[start] != ord("#"))
    start, end = start[keep], end[keep]
    tab = np.flatnonzero(code == 9)
    first_tab = np.searchsorted(tab, start)
    width = 1 + np.searchsorted(tab, end) - first_tab
    if not ((width == 1) | (width == 3)).all():
        raise _line_error(path, raw)
    triple = width == 3
    tab1, tab2 = tab[first_tab[triple]], tab[first_tab[triple] + 1]
    # Two entity tokens per line: its first token, then a triple's object
    # or, on an entity line, its one token again.
    e_start, e_end = np.repeat(start, 2), np.repeat(end, 2)
    e_end[0::2][triple], e_start[1::2][triple] = tab1, tab2 + 1
    ents, entities = _tokens(data, e_start, e_end)
    rels, relations = _tokens(data, tab1 + 1, tab2)
    e_index = {e: i for i, e in enumerate(entities)}
    r_index = {r: i for i, r in enumerate(relations)}
    if ("" in e_index or "" in r_index
            or not e_index.keys().isdisjoint(r_index)
            or not RESERVED.isdisjoint(e_index)
            or not RESERVED.isdisjoint(r_index)):
        raise _line_error(path, raw)
    vocab = Vocabulary(tuple(entities), tuple(relations), e_index, r_index)
    subj, obj = ents.reshape(-1, 2)[triple].T
    return vocab, KnowledgeGraph(np.column_stack((subj, rels, obj)))


def kg_contains(kg: KnowledgeGraph, t: Triple, semiring: Semiring):
    """Membership scalar via hash lookup, never materializing the effect."""
    return semiring.one if t in kg.triple_set else semiring.zero
