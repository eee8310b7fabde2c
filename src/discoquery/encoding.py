"""Distributional encoding of entities and the derived verb matrix.

Embeddings file format: UTF-8, one line per entity,
``entity<TAB>c1,c2,...,cn`` with decimal components; ``#`` comments and
blank lines allowed.  The noun-space dimension n is read from the file.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, LoadError, VerbOverflow, utf8_text
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
    """Map |R| -> n (x) n; column v sums the encoded subject/object pairs of v."""
    matrix: Matrix

    @property
    def n(self) -> int:
        return self.matrix.cod[0]

    def square(self, v: int) -> np.ndarray:
        """Column v reshaped n x n, subject wire as rows."""
        n = self.n
        return self.matrix.entries[:, v].reshape(n, n)


def load_embeddings(path, vocab: Vocabulary,
                    semiring: Semiring = NONNEG_REAL) -> EncodingMatrix:
    rows: dict[str, np.ndarray] = {}
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
    return EncodingMatrix(
        Matrix(semiring, (vocab.n_entities,), (n,), ent), vocab)


def identity_encoding(vocab: Vocabulary,
                      semiring: Semiring = NONNEG_REAL) -> EncodingMatrix:
    """Degenerate encoding with n = |E|: semantics collapse to crisp KG queries."""
    ne = vocab.n_entities
    if ne * ne > DEFAULT_BUDGET:
        raise BudgetExceeded(ne * ne, DEFAULT_BUDGET)
    return EncodingMatrix(
        Matrix(semiring, (ne,), (ne,), np.eye(ne, dtype=semiring.dtype)), vocab)


def build_verb_matrix(enc: EncodingMatrix, kg: KnowledgeGraph) -> VerbMatrix:
    """Verb matrix: column v is the sum over v's triples of E|s> (x) E|o>.

    The kernel follows from the encoding; neither contracts the dense KG
    effect.

    - Selection encoding (every entity column has at most one nonzero, as
      for ``identity_encoding``): triple t adds w(s) * w(o) to the single
      cell (r(s), r(o)), where r(e) is the nonzero row of column e and w(e)
      its weight.  One ``add.at`` scatter over all triples, O(T), adding in
      triple order.
    - Any other encoding: V_v = E[:, S_v] . E[:, O_v]^T by
      ``Semiring.matmul``, O(n^2 T) semiring flops in all, with the
      triples of v taken in blocks so that a gathered operand holds at most
      max(n^2, _GATHER) scalars.

    Raises VerbOverflow, naming the relation, if a real entry overflows.
    """
    sr = enc.semiring
    n = enc.n
    vocab = enc.vocab
    nr = vocab.n_relations
    check_budget(n * n * max(nr, 1))
    e = enc.matrix.entries
    ent = np.zeros((n * n, nr), dtype=sr.dtype)
    with np.errstate(over="ignore"):
        if (np.count_nonzero(e, axis=0) <= 1).all():
            rows = e.argmax(axis=0)
            weight = e[rows, np.arange(e.shape[1])]
            s, v, o = np.array([(t.s, t.v, t.o) for t in kg.triples],
                               dtype=np.intp).reshape(-1, 3).T
            sr.add.at(ent, (rows[s] * n + rows[o], v),
                      sr.mul(weight[s], weight[o]))
        else:
            step = max(n, _GATHER // n)
            for v, triples in kg.by_v.items():
                s = np.array([t.s for t in triples], dtype=np.intp)
                o = np.array([t.o for t in triples], dtype=np.intp)
                col = ent[:, v].reshape(n, n)
                for lo in range(0, len(triples), step):
                    sl = slice(lo, lo + step)
                    col = sr.add(col, sr.matmul(e[:, s[sl]], e[:, o[sl]].T))
                ent[:, v] = col.reshape(-1)
    if sr.name != "boolean":
        finite = np.isfinite(ent).all(axis=0)
        if not finite.all():
            raise VerbOverflow(vocab.relations[int(np.argmin(finite))])
    return VerbMatrix(Matrix(sr, (nr,), (n, n), ent))


def similarity(enc: EncodingMatrix, e1: int, e2: int):
    """Inner product of the two entity columns: <e1| E^T E |e2>."""
    sr = enc.semiring
    ne = enc.vocab.n_entities
    chain = compose(compose(one_hot_state(e2, ne, sr), enc.matrix),
                    transpose(enc.matrix))
    return scalar_value(compose(chain, one_hot_effect(e1, ne, sr)))


def normalize_l1(enc: EncodingMatrix) -> EncodingMatrix:
    """Divide each nonzero column by its entry sum; zero columns pass through."""
    if enc.semiring.name != "nonneg-real":
        raise ValueError("L1 normalization requires the nonneg-real semiring")
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
