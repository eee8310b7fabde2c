"""Distributional encoding of entities and the derived verb matrix.

Embeddings file format: UTF-8, one line per entity,
``entity<TAB>c1,c2,...,cn`` with decimal components; ``#`` comments and
blank lines allowed.  The noun-space dimension n is read from the file.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from . import semiring as sr_mod
from .errors import (DomainError, LoadError, SemiringMismatch, ShapeMismatch,
                     VerbOverflow, utf8_text)
from .kb import KnowledgeGraph, Vocabulary
from .matrix import Matrix, check_budget
from .semiring import NONNEG_REAL, Semiring

# Scalars a gathered operand of the dense verb build may hold beyond n^2.
_GATHER = 1 << 18


@dataclass(frozen=True, eq=False)
class EncodingMatrix:
    """Map |E| -> n sending each one-hot entity to its noun-space vector.
    ``entries`` is a read-only (n, |E|) view of the array given, validated
    once; queries multiply ``columns`` blocks by the verb products
    (``verb_*``) and ``product``, and ``decode`` the result."""
    semiring: Semiring
    entries: np.ndarray = field(repr=False)
    vocab: Vocabulary

    def __post_init__(self):
        ent = np.asarray(self.entries, dtype=self.semiring.dtype).view()
        if ent.ndim != 2 or ent.shape[1] != self.vocab.n_entities:
            raise ShapeMismatch(f"encoding of shape {ent.shape} for "
                                f"{self.vocab.n_entities} entities")
        self.semiring.validate(ent)
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    @property
    def matrix(self) -> Matrix:
        """A Matrix |E| -> n, built on each access; not for queries."""
        return Matrix(self.semiring, (self.vocab.n_entities,), (self.n,),
                      self.entries)

    def column(self, e: int) -> np.ndarray:
        return self.entries[:, e]

    @cached_property
    def operands(self) -> tuple[np.ndarray | None, np.ndarray]:
        """(values, entries) that queries contract on: for fuzzy, E's sorted
        values (+0.0 first) and E as uint16 or uint32 ranks into them, exact
        as max and min commute with order-preserving maps; else (None, E)."""
        e = self.entries
        return _ranks(e) if self.semiring.name == "fuzzy-minmax" else (None, e)

    def columns(self, cands) -> np.ndarray:
        """E[:, C] in the operand form: E itself for C = ``range(|E|)``, a
        view E[:, [e]] for one entity C = e, else gathered by take in C order
        like E (so BLAS sums alike); an ``intp`` array C gathers directly."""
        e = self.operands[1]
        if isinstance(cands, (int, np.integer)):
            return e[:, cands, None]
        if isinstance(cands, range) and cands == range(e.shape[1]):
            return e
        return e.take(cands, axis=1)

    def _block(self, verbs: VerbMatrix, v: int) -> np.ndarray:
        if not (verbs.values is self.operands[0]
                or np.array_equal(verbs.values, self.operands[0])):
            raise ValueError("verbs built on another encoding's values")
        return verbs.operands[v]

    def verb_object(self, verbs: VerbMatrix, v: int, b: np.ndarray):
        """V.B, verb v's object wire on the (n, m) operand block B; each verb
        product raises ValueError on verbs ranked in another value table."""
        return self.product(self._block(verbs, v), b)

    def verb_subject(self, verbs: VerbMatrix, v: int, b: np.ndarray):
        """B^T.V: verb v's subject wire contracted with the block B."""
        return self.product(b.T, self._block(verbs, v))

    def verb_diagonal(self, verbs: VerbMatrix, v: int, c: np.ndarray):
        """The diagonal of C^T.V.C, both wires of verb v on the same column."""
        sr = self.semiring
        return sr.sum(sr.mul(c, self.verb_object(verbs, v, c)), axis=0)

    def product(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a.b on operand-form blocks.  Under a max (+), one output row or
        column within ``semiring._CHUNK`` scalars of temporary is one
        broadcast and reduction on a contiguous copy of that column; the
        rest, reals included, is ``Semiring.matmul`` (1-2 us dispatch)."""
        sr = self.semiring
        (m, k), n = a.shape, b.shape[1]
        if sr.name == "nonneg-real" or m > 1 < n or m * k * n > sr_mod._CHUNK:
            return sr.matmul(a, b)
        rows, col = (b, a.T) if m == 1 else (a.T, b)
        out = sr.add.reduce(sr.mul(rows, np.ascontiguousarray(col)), axis=0,
                            keepdims=True)
        return out if m == 1 else out.T

    def decode(self, arr: np.ndarray) -> np.ndarray:
        """Values of an array in the operand form."""
        return arr if self.operands[0] is None else self.operands[0].take(arr)


@dataclass(frozen=True, eq=False)
class VerbMatrix:
    """Map |R| -> n (x) n, stored relation-major: block v is the n x n sum
    over v's triples of E|s> (x) E|o>, subject wire as rows.

    ``operands`` is one read-only, C-contiguous (|R|, n, n) array, in the
    encoding's ``operands`` form (ranks into ``values``, for fuzzy), so
    every contraction reads a contiguous operand.
    """
    semiring: Semiring
    operands: np.ndarray = field(repr=False)
    values: np.ndarray | None = field(default=None, repr=False)

    @cached_property
    def blocks(self) -> np.ndarray:
        """The (|R|, n, n) values, decoded on first access; for the oracles
        and tests, not for queries."""
        blocks = self.operands if self.values is None else \
            self.values.take(self.operands)
        blocks.flags.writeable = False
        return blocks

    @property
    def matrix(self) -> Matrix:
        """The verbs as one Matrix |R| -> n (x) n, built on each access;
        for the oracles and tests, not for queries."""
        nr, n = self.operands.shape[:2]
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
    ent = np.empty((n, vocab.n_entities), dtype=semiring.dtype)
    ent[:, list(map(vocab.entity_index.__getitem__, names))] = \
        values.reshape(len(rows), n).T
    try:
        return EncodingMatrix(semiring, ent, vocab)
    except DomainError:
        raise _row_error(path, text, vocab, semiring) from None


def identity_encoding(vocab: Vocabulary,
                      semiring: Semiring = NONNEG_REAL) -> EncodingMatrix:
    """Degenerate encoding with n = |E|: semantics collapse to crisp KG queries."""
    ne = vocab.n_entities
    check_budget(ne * ne)
    return EncodingMatrix(semiring, np.eye(ne, dtype=semiring.dtype), vocab)


def _ranks(e: np.ndarray):
    """Sorted values of E (+0.0 first) and E as ranks, one column block at a
    time; a block searches its distinct values, 2-3x faster than each entry."""
    # np.unique takes ~48 B a scalar; n is 0 when there are no entities
    step = max(1, _GATHER // (4 * len(e) or 1))
    cols = [slice(j, j + step) for j in range(0, e.shape[1], step)]
    values = np.unique(e)  # a zero of either sign leads, replaced by +0.0
    values = np.append(0.0, values[values.searchsorted(0.0, "right"):])
    ranks = np.empty(e.shape, np.uint16 if len(values) <= 65536 else np.uint32)
    for c in cols:
        local, inverse = np.unique(e[:, c], return_inverse=True)
        ranks[:, c] = values.searchsorted(local)[inverse].reshape(len(e), -1)
    return values, ranks


def build_verb_matrix(enc: EncodingMatrix, kg: KnowledgeGraph) -> VerbMatrix:
    """Verb matrix: block v is the sum over v's triples of E|s> (x) E|o>.

    The kernel follows from the encoding; neither contracts the dense KG
    effect.

    - Selection encoding (every entity column has at most one nonzero, as
      for ``identity_encoding``): triple t adds w(s) * w(o) to the single
      cell (r(s), r(o)) of block v, where r(e) is the nonzero row of column
      e and w(e) its weight.  One ``add.at`` scatter over all triples at
      flat index (v n + r(s)) n + r(o), O(T), adding in triple order.
    - Any other encoding: V_v = E[:, S_v] . E[:, O_v]^T by Semiring.matmul,
      O(n^2 T) semiring flops in all, added in place into block v, with v's
      triples taken in batches so that a gathered operand holds at most
      max(n^2, _GATHER) scalars.  Both run on ``enc.operands`` (ranks, for
      fuzzy) and keep that form as the verbs' ``operands``.

    Raises VerbOverflow, naming the relation, if a real entry overflows.
    """
    sr = enc.semiring
    n = enc.n
    vocab = enc.vocab
    nr = vocab.n_relations
    check_budget(n * n * max(nr, 1))
    values, e = enc.operands
    blocks = np.zeros((nr, n, n), dtype=e.dtype)
    with np.errstate(over="ignore"):
        if (np.count_nonzero(e, axis=0) <= 1).all():
            rows = e.argmax(axis=0) if n else np.zeros(0, np.intp)  # |E| = 0
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
                    sr.add(block, sr.matmul(e.take(s[sl], axis=1),
                                            e.take(o[sl], axis=1).T),
                           out=block)
    if sr.name == "nonneg-real":
        finite = np.isfinite(blocks).all(axis=(1, 2))
        if not finite.all():
            raise VerbOverflow(vocab.relations[int(np.argmin(finite))])
    blocks.flags.writeable = False
    return VerbMatrix(sr, blocks, values)


@np.errstate(over="ignore", invalid="ignore")
def similarity(enc: EncodingMatrix, e1: int, e2: int):
    """Inner product of the two entity columns: <e1| E^T E |e2>, the sum
    over rows of col(e1) (x) col(e2).

    Raises DomainError if it overflows.
    """
    sr = enc.semiring
    value = sr.sum(sr.mul(enc.column(e1), enc.column(e2)))
    sr.validate(value)
    return value


def normalize_l1(enc: EncodingMatrix) -> EncodingMatrix:
    """Divide each nonzero column by its entry sum; zero columns pass through."""
    if enc.semiring.name != "nonneg-real":
        raise SemiringMismatch(
            "L1 normalization requires the nonneg-real semiring")
    ent = enc.entries
    mass = np.ascontiguousarray(ent.T).sum(axis=1)  # each ent[:, e].sum()
    zero_cols = [enc.vocab.entities[e] for e in np.flatnonzero(mass == 0.0)]
    if zero_cols:
        warnings.warn(f"zero embedding columns left unnormalized: {zero_cols}")
    return EncodingMatrix(enc.semiring, ent / np.where(mass == 0.0, 1.0, mass),
                          enc.vocab)
