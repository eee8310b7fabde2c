"""Constraint-based anaphora resolution as a deterministic argmax search.

Constraints are a coreference partition of the pronoun slots plus optional
per-class candidate entity sets.  Constraints file format: lines
``corefer: s1 s2 ...`` (slot indices merged into one class) and
``candidates: class_slot e1 e2 ...`` (class named by any member slot).
"""
from __future__ import annotations

import itertools
from functools import reduce
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError, LoadError, utf8_text
from .kb import Vocabulary
from .matrix import check_budget, prod
from .semantics import Discourse, contract, contract_operands


@dataclass(frozen=True)
class MatchingFunction:
    """Assignment of an entity ordinal to each pronoun slot."""
    assignment: tuple[int, ...]

    def __len__(self):
        return len(self.assignment)


@dataclass(frozen=True, eq=False)
class DrsConstraints:
    """Coreference classes (ordered by smallest slot) and candidate sets.

    A class with no candidate restriction holds ``range(|E|)``, which
    resolution contracts on the encoding itself, with no gather.
    ``slot_class`` maps each slot to the index of its class.
    """
    classes: tuple[tuple[int, ...], ...]
    candidates: tuple[Sequence[int], ...]
    slot_class: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slot_class", {
            s: c for c, members in enumerate(self.classes) for s in members})


def default_constraints(k: int, vocab: Vocabulary) -> DrsConstraints:
    """Every slot its own class, all entities candidates: D(d) = E^k."""
    return make_constraints(k, vocab)


def _blocks(n: int, groups) -> tuple[tuple[int, ...], ...]:
    """Partition of range(n) joining the members of each group (union-find).

    Blocks are ascending and ordered by their smallest member.
    """
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for group in groups:
        for x in group[1:]:
            parent[find(group[0])] = find(x)
    blocks: dict[int, list[int]] = {}
    for x in range(n):
        blocks.setdefault(find(x), []).append(x)
    return tuple(sorted(tuple(b) for _, b in blocks.items()))


def make_constraints(k: int, vocab: Vocabulary, coref=(),
                     candidates=None) -> DrsConstraints:
    """Build constraints from coreference groups and per-slot candidate names."""
    for group in coref:
        for s in group:
            if not 0 <= s < k:
                raise GrammarError(f"coreference slot {s} out of range")
    classes = _blocks(k, coref)
    all_entities = range(vocab.n_entities)
    cand_list = []
    for members in classes:
        chosen = None
        for s in members:
            if candidates and s in candidates:
                ents = tuple(sorted(candidates[s]))
                chosen = ents if chosen is None else tuple(
                    sorted(set(chosen) & set(ents)))
        cand_list.append(all_entities if chosen is None else chosen)
    return DrsConstraints(classes, tuple(cand_list))


def load_constraints(path, k: int, vocab: Vocabulary) -> DrsConstraints:
    coref = []
    candidates: dict[int, tuple[int, ...]] = {}
    with utf8_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if line.startswith("corefer:"):
                try:
                    slots = tuple(int(t) for t in line[len("corefer:"):].split())
                except ValueError:
                    raise LoadError(path, lineno, "bad slot index") from None
                if any(not 0 <= s < k for s in slots):
                    raise LoadError(path, lineno, f"slot out of range in {slots}")
                coref.append(slots)
            elif line.startswith("candidates:"):
                toks = line[len("candidates:"):].split()
                if not toks:
                    raise LoadError(path, lineno, "empty candidates line")
                try:
                    slot = int(toks[0])
                except ValueError:
                    raise LoadError(path, lineno, "bad class slot") from None
                if not 0 <= slot < k:
                    raise LoadError(path, lineno, f"slot {slot} out of range")
                ents = []
                for name in toks[1:]:
                    if name not in vocab.entity_index:
                        raise LoadError(path, lineno, f"unknown entity {name!r}")
                    ents.append(vocab.entity_index[name])
                if not ents:
                    raise LoadError(path, lineno, "empty candidate set")
                candidates[slot] = tuple(ents)
            else:
                raise LoadError(path, lineno, f"unrecognized line {line!r}")
    return make_constraints(k, vocab, coref, candidates)


def _check_constraints(constraints: DrsConstraints, k: int) -> None:
    if sorted(s for members in constraints.classes
              for s in members) != list(range(k)):
        raise GrammarError("constraints do not partition the slots")
    if any(not c for c in constraints.candidates):
        raise GrammarError("empty candidate set")


def enumerate_matchings(constraints: DrsConstraints, k: int,
                        vocab: Vocabulary):
    """All constrained matchings, lexicographic over per-class entity choices."""
    _check_constraints(constraints, k)
    slot_class = constraints.slot_class
    for choice in itertools.product(*constraints.candidates):
        assignment = tuple(choice[slot_class[s]] for s in range(k))
        yield MatchingFunction(assignment)


@np.errstate(over="ignore", invalid="ignore")
def resolution_scalar(d: Discourse, mu: MatchingFunction, enc: EncodingMatrix,
                      verbs: VerbMatrix):
    """Discourse scalar with each pronoun wire bound to its assigned entity.

    Sparse path: each pronoun wire reads its entity's column E[:, [e]], each
    sentence contracts in O(n^2), and the sentences combine by the semiring
    product; |E|^k is never materialized.  Raises DomainError if the scalar
    overflows.
    """
    if len(mu) != d.k:
        raise GrammarError(f"matching of length {len(mu)} for k={d.k}")

    def bound(pronoun):
        return enc.columns(mu.assignment[pronoun.slot])

    value = _product(d.sentences, enc, verbs, bound)
    enc.semiring.validate(value)
    return value[()]


def _product(sentences, enc: EncodingMatrix, verbs: VerbMatrix, wire=None):
    """Semiring product of the sentence scalars, each wire bound by ``wire``."""
    sr = enc.semiring
    total = sr.one
    for s in sentences:
        total = sr.mul(total, contract(s, enc, verbs, wire))
    return np.asarray(total).reshape(())


def score_all_matchings(d: Discourse, constraints: DrsConstraints,
                        enc: EncodingMatrix, verbs: VerbMatrix,
                        vocab: Vocabulary):
    """Every constrained matching with its scalar, in enumeration order.

    Raises BudgetExceeded past the budget, DomainError if a scalar overflows.
    """
    check_budget(prod(map(len, constraints.candidates)))
    return [(mu, resolution_scalar(d, mu, enc, verbs))
            for mu in enumerate_matchings(constraints, d.k, vocab)]


@np.errstate(over="ignore", invalid="ignore")
def resolve_argmax(d: Discourse, constraints: DrsConstraints,
                   enc: EncodingMatrix, verbs: VerbMatrix,
                   vocab: Vocabulary) -> tuple[MatchingFunction, object]:
    """Best matching under the semiring order and its score.

    Ties go to the first best matching in ``enumerate_matchings`` order.

    Classes are joined into components by the sentences they share.  Each
    component becomes one table over its classes' candidates, axes in
    class order: the semiring product of its sentences' contractions with
    each pronoun wire on its class's candidate columns E[:, C] (for two
    pronouns of one class, the diagonal of that matrix, computed directly),
    of size prod |C_c| under the scalar budget.  The score is
    closed (x) M_1 (x) ... (x) M_m, with closed the product of the
    pronoun-free sentences and M_c the largest entry of table c.  Component
    c takes the first entry (in C order, which is enumeration order) with
    table (x) rest_c == M_c (x) rest_c, where rest_c is closed times the
    other components' maxima (table == M_c if there are none).  That is the
    entries equal to M_c for boolean and reals, the entries at least the
    score for fuzzy min, and every entry, hence each class's first
    candidate, when the score is zero: exactly the enumeration-order
    tie-break of the whole search.  All of it runs in the operand form, and
    the score alone is decoded: the decode is strictly increasing.

    Raises BudgetExceeded if a component table exceeds the budget, and
    DomainError if the score overflows (an inf entry, or the nan of inf
    times zero, leaves the score non-finite).
    """
    sr = enc.semiring
    _check_constraints(constraints, d.k)
    slot_class = constraints.slot_class
    cands = constraints.candidates
    columns = [enc.columns(c) for c in cands]

    def candidates(pronoun):
        return columns[slot_class[pronoun.slot]]

    factors = []
    for s in d.sentences:
        cls = [slot_class[x] for x in s.slots()]
        if len(cls) == 2 and cls[0] == cls[1]:
            col = columns[cls.pop()]
            factor = sr.sum(sr.mul(col, sr.matmul(enc.verb(verbs, s.verb),
                                                  col)), axis=0)
        else:
            factor = contract_operands(s, enc, verbs, candidates)[0]
            if len(cls) == 2 and cls[0] > cls[1]:
                factor = factor.T
        factors.append((cls, factor))
    closed = [factor.reshape(()) for cls, factor in factors if not cls]

    tables = []
    for comp in _blocks(len(cands), [cls for cls, _ in factors]):
        check_budget(prod(len(cands[c]) for c in comp))
        tables.append((comp, reduce(sr.mul, [
            factor.reshape([len(cands[c]) if c in cls else 1 for c in comp])
            for cls, factor in factors if cls and cls[0] in comp])))

    maxima = [table.max() for _, table in tables]
    best = [0] * len(cands)
    for i, (comp, table) in enumerate(tables):
        rest = closed + maxima[:i] + maxima[i + 1:]
        if rest:
            rest = reduce(sr.mul, rest)
            table = sr.mul(table, rest) == sr.mul(maxima[i], rest)
        pos = int(table.argmax())
        for c in reversed(comp):
            pos, p = divmod(pos, len(cands[c]))
            best[c] = cands[c][p]

    score = np.asarray(enc.decode(reduce(sr.mul, closed + maxima)))
    sr.validate(score)
    assignment = tuple(best[slot_class[s]] for s in range(d.k))
    return MatchingFunction(assignment), score[()]
