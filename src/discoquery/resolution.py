"""Constraint-based anaphora resolution as a deterministic argmax search.

Constraints are a coreference partition of the pronoun slots plus optional
per-class candidate entity sets.  Constraints file format: lines
``corefer: s1 s2 ...`` (slot indices merged into one class) and
``candidates: class_slot e1 e2 ...`` (class named by any member slot).
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError, LoadError, utf8_text
from .kb import Vocabulary
from .matrix import (check_budget, compose, identity, one_hot_state, prod,
                     scalar_value, spider, tensor_all, wire_permutation)
from .semantics import Discourse, contract


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
    all_entities = range(vocab.n_entities)
    return DrsConstraints(tuple((s,) for s in range(k)),
                          tuple(all_entities for _ in range(k)))


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
    return tuple(sorted(tuple(b) for b in blocks.values()))


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
    e = enc.matrix.entries

    def bound(pronoun):
        return e[:, mu.assignment[pronoun.slot], None]

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

    Raises DomainError if a scalar overflows.
    """
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
    other components' maxima.  That is the entries equal to M_c for boolean
    and reals, the entries at least the score for fuzzy min, and every
    entry, hence each class's first candidate, when the score is zero:
    exactly the enumeration-order tie-break of the whole search.

    Raises BudgetExceeded if a component table exceeds the budget, and
    DomainError if the score overflows (an inf entry, or the nan of inf
    times zero, leaves the score non-finite).
    """
    sr = enc.semiring
    _check_constraints(constraints, d.k)
    # E[:, C] per class, gathered once in C order like E itself (so BLAS
    # sums alike); a class over every entity contracts on E, ungathered.
    e = enc.matrix.entries
    everyone = range(vocab.n_entities)
    columns = [e if cands == everyone else np.take(e, cands, axis=1)
               for cands in constraints.candidates]
    n_classes = len(constraints.classes)
    sentence_classes = [
        tuple(dict.fromkeys(constraints.slot_class[x] for x in s.slots()))
        for s in d.sentences]

    closed = _product([s for s, cls in zip(d.sentences, sentence_classes)
                       if not cls], enc, verbs)

    def candidates(pronoun):
        return columns[constraints.slot_class[pronoun.slot]]

    tables = []
    for comp in _blocks(n_classes, sentence_classes):
        check_budget(prod(len(constraints.candidates[c]) for c in comp))
        table = sr.one
        for s, cls in zip(d.sentences, sentence_classes):
            if not cls or cls[0] not in comp:
                continue
            if len(cls) == 1 and len(s.slots()) == 2:
                col = columns[cls[0]]
                factor = sr.sum(sr.mul(col, sr.matmul(verbs.square(s.verb),
                                                      col)), axis=0)
            else:
                factor = contract(s, enc, verbs, candidates)
                if len(cls) == 2 and cls[0] > cls[1]:
                    factor = factor.T
            shape = [len(constraints.candidates[c]) if c in cls else 1
                     for c in comp]
            table = sr.mul(table, factor.reshape(shape))
        tables.append((comp, table))

    maxima = [table.max() for _, table in tables]
    best = [0] * n_classes
    for i, (comp, table) in enumerate(tables):
        rest = closed
        for j, m in enumerate(maxima):
            if j != i:
                rest = sr.mul(rest, m)
        hit = sr.mul(table, rest) == sr.mul(maxima[i], rest)
        pos = np.unravel_index(int(np.argmax(hit)), table.shape)
        for c, p in zip(comp, pos):
            best[c] = constraints.candidates[c][p]

    score = closed
    for m in maxima:
        score = sr.mul(score, m)
    sr.validate(np.asarray(score))
    assignment = tuple(best[constraints.slot_class[s]] for s in range(d.k))
    return MatchingFunction(assignment), np.asarray(score).reshape(())[()]


# ---------------------------------------------------------------------------
# Structural evaluators for the entity-store factorization.

def matching_process_eval(d: Discourse, mu: MatchingFunction,
                          enc: EncodingMatrix, verbs: VerbMatrix):
    """Evaluate the discourse through an explicit entity store and copy spiders.

    Per entity referenced by i slots, a 1-input i-output spider copies the
    stored state; each copy is recovered by discarding the other copy wires
    and fed to its discourse wire.  Unreferenced entities are discarded with
    the 1-input 0-output spider (each contributing the scalar 1).
    """
    if len(mu) != d.k:
        raise GrammarError(f"matching of length {len(mu)} for k={d.k}")
    sr = enc.semiring
    ne = enc.vocab.n_entities
    referencing: dict[int, list[int]] = {}
    for slot, e in enumerate(mu.assignment):
        referencing.setdefault(e, []).append(slot)

    total = sr.one
    slot_states: dict[int, np.ndarray] = {}
    discard = spider(1, 0, ne, sr)
    for e in range(ne):
        store = one_hot_state(e, ne, sr)
        slots = referencing.get(e, [])
        if not slots:
            total = sr.mul(total, scalar_value(compose(store, discard)))
            continue
        i = len(slots)
        copied = compose(store, spider(1, i, ne, sr))
        for w, slot in enumerate(slots):
            keep = [identity(ne, sr) if j == w else discard for j in range(i)]
            factor = compose(copied, tensor_all(keep, sr))
            slot_states[slot] = factor.entries.reshape(-1)

    emat = enc.matrix.entries

    def stored(pronoun):
        return sr.matmul(emat, slot_states[pronoun.slot][:, None])

    return sr.mul(total, _product(d.sentences, enc, verbs, stored))[()]


def dense_theorem_check(d: Discourse, mu: MatchingFunction,
                        enc: EncodingMatrix, verbs: VerbMatrix,
                        max_entities: int = 4):
    """Sparse scalar vs. fully materialized store/process contraction.

    The second component composes the dense entity store 1 -> |E|^|E|, the
    matching-process incidence matrix (built from tensored copy/discard
    spiders followed by an explicit wire permutation) and the dense
    discourse effect.  Guarded to |E| <= max_entities.
    """
    from .semantics import discourse_effect
    sr = enc.semiring
    ne = enc.vocab.n_entities
    if ne > max_entities:
        raise GrammarError(
            f"dense check limited to |E| <= {max_entities}, got {ne}")
    sparse = resolution_scalar(d, mu, enc, verbs)

    store = tensor_all([one_hot_state(e, ne, sr) for e in range(ne)], sr)
    counts = [0] * ne
    for e in mu.assignment:
        counts[e] += 1
    spiders = tensor_all([spider(1, counts[e], ne, sr) for e in range(ne)], sr)
    # grouped wire order: per entity in vocabulary order, its slots ascending
    grouped = [slot for e in range(ne)
               for slot in sorted(s for s, a in enumerate(mu.assignment)
                                  if a == e)]
    if d.k:
        perm = tuple(grouped.index(slot) for slot in range(d.k))
        process = compose(spiders, wire_permutation(perm, ne, sr))
    else:
        process = spiders
    dense = scalar_value(compose(compose(store, process),
                                 discourse_effect(d, enc, verbs)))
    return sparse, dense
