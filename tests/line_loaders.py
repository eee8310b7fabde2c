"""Line-by-line KG and embedding loaders: the reference for the bulk loaders.

They read a file one line and one Triple at a time, as the library did
before its columnar store.  The KG reader also makes the reserved-word
check that the bulk loader added.  test_loaders compares the library's
loaders against them.
"""
import numpy as np

from discoquery.encoding import EncodingMatrix
from discoquery.errors import LoadError, utf8_text
from discoquery.kb import RESERVED, Triple, Vocabulary


def load_kg_lines(path):
    """(vocabulary, triples in first-appearance order, duplicates dropped)."""
    entities, relations = [], []
    e_index, r_index = {}, {}

    def intern(tok, lineno, own, own_list, other):
        if tok in other:
            raise LoadError(path, lineno,
                            f"token {tok!r} used as both entity and relation")
        if tok in RESERVED:
            raise LoadError(path, lineno, f"token {tok!r} is reserved")
        if tok not in own:
            own[tok] = len(own_list)
            own_list.append(tok)
        return own[tok]

    def entity(tok, lineno):
        return intern(tok, lineno, e_index, entities, r_index)

    def relation(tok, lineno):
        return intern(tok, lineno, r_index, relations, e_index)

    triples = []
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
    return (Vocabulary.from_lists(entities, relations),
            list(dict.fromkeys(triples)))


def load_embeddings_lines(path, vocab, semiring):
    rows = {}
    n = None
    with utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise LoadError(path, lineno, "expected 'entity<TAB>c1,c2,...'")
            name, comps = parts
            if name not in vocab.entity_index:
                raise LoadError(path, lineno, f"unknown entity {name!r}")
            if name in rows:
                raise LoadError(path, lineno, f"duplicate entity {name!r}")
            try:
                vec = np.array([float(c) for c in comps.split(",")],
                               dtype=np.float64)
            except ValueError:
                raise LoadError(path, lineno, "malformed vector component") from None
            if n is None:
                n = len(vec)
            elif len(vec) != n:
                raise LoadError(path, lineno,
                                f"row of length {len(vec)}, expected {n}")
            try:
                semiring.validate(vec)
            except ValueError as exc:
                raise LoadError(path, lineno, str(exc)) from None
            rows[name] = vec
    missing = [e for e in vocab.entities if e not in rows]
    if missing:
        raise LoadError(path, 0, f"missing entity {missing[0]!r}")
    if n is None or n < 1:
        raise LoadError(path, 0, "no embedding rows")
    ent = np.stack([rows[e] for e in vocab.entities], axis=1)
    return EncodingMatrix(semiring, ent, vocab)
