"""Distributional encoding of entities and the derived verb matrix.

Embeddings file format: UTF-8, one line per entity,
``entity<TAB>c1,c2,...,cn`` with decimal components; ``#`` comments and
blank lines allowed.  The noun-space dimension n is read from the file.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .errors import (BudgetExceeded, DomainError, LoadError,
                     SemiringMismatch, VerbOverflow, utf8_text)
from .kb import KnowledgeGraph, Vocabulary
from .matrix import (DEFAULT_BUDGET, Matrix, check_budget, compose,
                     one_hot_effect, one_hot_state, transpose, scalar_value)
from .semiring import NONNEG_REAL, Semiring

# Scalars a gathered operand of the dense verb build may hold beyond n^2.
_GATHER = 1 << 18


@dataclass(frozen=True, eq=False)
class EncodingMatrix:
    """Map |E| -> n sending each one-hot entity to its noun-space vector."""
    matrix: Matrix
    vocab: Vocabulary

    @property
    def n(self) -> int:
        return self.matrix.cod_dim

    @property
    def semiring(self) -> Semiring:
        return self.matrix.semiring

    def column(self, e: int) -> np.ndarray:
        return self.matrix.entries[:, e]


@dataclass(frozen=True, eq=False)
class VerbMatrix:
    """Map |R| -> n (x) n, stored relation-major: ``blocks[v]`` is the n x n
    sum over v's triples of E|s> (x) E|o>, subject wire as rows.

    ``blocks`` is one read-only, C-contiguous (|R|, n, n) array, so every
    contraction reads a contiguous operand.
    """
    semiring: Semiring
    blocks: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return self.blocks.shape[1]

    def square(self, v: int) -> np.ndarray:
        """Relation v as a contiguous n x n view, subject wire as rows."""
        return self.blocks[v]

    @property
    def matrix(self) -> Matrix:
        """The verbs as one Matrix |R| -> n (x) n, built on each access;
        for the oracles and tests, not for queries."""
        nr, n = self.blocks.shape[:2]
        return Matrix(self.semiring, (nr,), (n, n),
                      self.blocks.reshape(nr, n * n).T)


def _row_error(path, text: str, vocab: Vocabulary,
               semiring: Semiring) -> LoadError:
    """The LoadError of the first bad row of an embeddings file's text."""
    seen: set[str] = set()
    n = None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            return LoadError(path, lineno, "expected 'entity<TAB>c1,c2,...'")
        name, comps = parts
        if name not in vocab.entity_index:
            return LoadError(path, lineno, f"unknown entity {name!r}")
        if name in seen:
            return LoadError(path, lineno, f"duplicate entity {name!r}")
        seen.add(name)
        try:
            vec = np.array([float(c) for c in comps.split(",")],
                           dtype=np.float64)
        except ValueError:
            return LoadError(path, lineno, "malformed vector component")
        if n is None:
            n = len(vec)
        elif len(vec) != n:
            return LoadError(path, lineno,
                             f"row of length {len(vec)}, expected {n}")
        try:
            semiring.validate(vec)
        except DomainError as exc:
            return LoadError(path, lineno, str(exc))
    missing = [e for e in vocab.entities if e not in seen]
    if missing:
        return LoadError(path, 0, f"missing entity {missing[0]!r}")
    return LoadError(path, 0, "no embedding rows")


def load_embeddings(path, vocab: Vocabulary,
                    semiring: Semiring = NONNEG_REAL) -> EncodingMatrix:
    """Read one row per entity; the checks run on all rows at once, and
    only when one fails are the rows walked one by one to name the first
    bad row."""
    with utf8_text(path) as fh:
        text = fh.read()
    rows = [ln.split("\t") for ln in map(str.strip, text.split("\n"))
            if ln and ln[0] != "#"]
    names = [r[0] for r in rows]
    comps = [r[-1] for r in rows]
    lengths = set(map(str.count, comps, repeat(",")))
    if not (rows and all(len(r) == 2 for r in rows) and len(lengths) == 1
            and len(rows) == vocab.n_entities
            and set(names) == vocab.entity_index.keys()):
        raise _row_error(path, text, vocab, semiring)
    n = lengths.pop() + 1
    try:
        values = np.fromiter(
            map(float, chain.from_iterable(c.split(",") for c in comps)),
            dtype=np.float64, count=len(rows) * n)
    except ValueError:
        raise _row_error(path, text, vocab, semiring) from None
    ent = np.empty((n, vocab.n_entities), dtype=np.float64)
    ent[:, list(map(vocab.entity_index.__getitem__, names))] = \
        values.reshape(len(rows), n).T
    try:
        # Matrix validates the entries once, as one array.
        matrix = Matrix(semiring, (vocab.n_entities,), (n,), ent)
    except DomainError:
        raise _row_error(path, text, vocab, semiring) from None
    return EncodingMatrix(matrix, vocab)


def identity_encoding(vocab: Vocabulary,
                      semiring: Semiring = NONNEG_REAL) -> EncodingMatrix:
    """Degenerate encoding with n = |E|: semantics collapse to crisp KG queries."""
    ne = vocab.n_entities
    if ne * ne > DEFAULT_BUDGET:
        raise BudgetExceeded(ne * ne, DEFAULT_BUDGET)
    return EncodingMatrix(
        Matrix(semiring, (ne,), (ne,), np.eye(ne, dtype=semiring.dtype)), vocab)


def build_verb_matrix(enc: EncodingMatrix, kg: KnowledgeGraph) -> VerbMatrix:
    """Verb matrix: block v is the sum over v's triples of E|s> (x) E|o>.

    The kernel follows from the encoding; neither contracts the dense KG
    effect.

    - Selection encoding (every entity column has at most one nonzero, as
      for ``identity_encoding``): triple t adds w(s) * w(o) to the single
      cell (r(s), r(o)) of block v, where r(e) is the nonzero row of column
      e and w(e) its weight.  One ``add.at`` scatter over all triples at
      flat index (v n + r(s)) n + r(o), O(T), adding in triple order.
    - Any other encoding: V_v = E[:, S_v] . E[:, O_v]^T by
      ``Semiring.matmul``, O(n^2 T) semiring flops in all, added in place
      into block v, with the triples of v taken in batches so that a
      gathered operand holds at most max(n^2, _GATHER) scalars.

    Raises VerbOverflow, naming the relation, if a real entry overflows.
    """
    sr = enc.semiring
    n = enc.n
    vocab = enc.vocab
    nr = vocab.n_relations
    check_budget(n * n * max(nr, 1))
    e = enc.matrix.entries
    blocks = np.zeros((nr, n, n), dtype=sr.dtype)
    with np.errstate(over="ignore"):
        if (np.count_nonzero(e, axis=0) <= 1).all():
            rows = e.argmax(axis=0)
            weight = e[rows, np.arange(e.shape[1])]
            s, v, o = kg.spo.T
            sr.add.at(blocks.reshape(-1), (v * n + rows[s]) * n + rows[o],
                      sr.mul(weight[s], weight[o]))
        else:
            step = max(n, _GATHER // n)
            for v in range(nr):
                s, _, o = kg.relation(v).T
                block = blocks[v]
                for lo in range(0, len(s), step):
                    sl = slice(lo, lo + step)
                    sr.add(block, sr.matmul(e[:, s[sl]], e[:, o[sl]].T),
                           out=block)
    if sr.name != "boolean":
        finite = np.isfinite(blocks).all(axis=(1, 2))
        if not finite.all():
            raise VerbOverflow(vocab.relations[int(np.argmin(finite))])
    blocks.flags.writeable = False
    return VerbMatrix(sr, blocks)


@np.errstate(over="ignore")
def similarity(enc: EncodingMatrix, e1: int, e2: int):
    """Inner product of the two entity columns: <e1| E^T E |e2>.

    Raises DomainError (from ``Matrix``) if a composite overflows.
    """
    sr = enc.semiring
    ne = enc.vocab.n_entities
    chain = compose(compose(one_hot_state(e2, ne, sr), enc.matrix),
                    transpose(enc.matrix))
    return scalar_value(compose(chain, one_hot_effect(e1, ne, sr)))


def normalize_l1(enc: EncodingMatrix) -> EncodingMatrix:
    """Divide each nonzero column by its entry sum; zero columns pass through."""
    if enc.semiring.name != "nonneg-real":
        raise SemiringMismatch(
            "L1 normalization requires the nonneg-real semiring")
    ent = enc.matrix.entries.copy()
    zero_cols = []
    for e in range(ent.shape[1]):
        mass = ent[:, e].sum()
        if mass == 0.0:
            zero_cols.append(enc.vocab.entities[e])
        else:
            ent[:, e] = ent[:, e] / mass
    if zero_cols:
        warnings.warn(f"zero embedding columns left unnormalized: {zero_cols}")
    return EncodingMatrix(
        Matrix(enc.semiring, enc.matrix.dom, enc.matrix.cod, ent), enc.vocab)
