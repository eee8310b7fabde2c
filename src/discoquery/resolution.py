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
    ``slot_class`` maps each slot to the index of its class, and
    ``indices`` holds each class's candidates as a read-only ``intp`` array
    (a range stays a range), converted once for ``EncodingMatrix.columns``.
    """
    classes: tuple[tuple[int, ...], ...]
    candidates: tuple[Sequence[int], ...]
    slot_class: dict[int, int] = field(init=False, repr=False)
    indices: tuple[np.ndarray | range, ...] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "slot_class", {
            s: c for c, members in enumerate(self.classes) for s in members})
        object.__setattr__(self, "indices",
                           tuple(map(_index_array, self.candidates)))


def _index_array(cands: Sequence[int]) -> np.ndarray | range:
    if isinstance(cands, range):
        return cands
    arr = np.fromiter(cands, np.intp, len(cands))
    arr.flags.writeable = False
    return arr


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


def enumerate_matchings(constraints: DrsConstraints, k: int):
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

    sr = enc.semiring
    total = sr.one
    for s in d.sentences:
        total = sr.mul(total, contract(s, enc, verbs, bound))
    value = np.asarray(total).reshape(())
    sr.validate(value)
    return value[()]


def score_all_matchings(d: Discourse, constraints: DrsConstraints,
                        enc: EncodingMatrix, verbs: VerbMatrix):
    """Every constrained matching with its scalar, in enumeration order.

    Raises BudgetExceeded past the budget, DomainError if a scalar overflows.
    """
    check_budget(prod(map(len, constraints.candidates)))
    return [(mu, resolution_scalar(d, mu, enc, verbs))
            for mu in enumerate_matchings(constraints, d.k)]


@np.errstate(over="ignore", invalid="ignore")
def resolve_argmax(d: Discourse, constraints: DrsConstraints,
                   enc: EncodingMatrix, verbs: VerbMatrix,
                   vocab: Vocabulary) -> tuple[MatchingFunction, object]:
    """Best matching under the semiring order and its score.

    Ties go to the first best matching in ``enumerate_matchings`` order.

    Classes are joined into components by the sentences they share.  A
    sentence with one pronoun (its ``contract_operands`` on the class's
    columns), or with two of one class (``verb_diagonal``), is a unary
    factor on its class; a sentence with pronouns of two classes is an
    edge between them.  A component's maximum M_c comes from one of two
    forms:

    - Messages (``_belief``), when (+) is max (boolean, fuzzy) and the
      component's edges form a tree over its classes (one class is a
      tree).  No table is built, and a class costs O(n^2 + n |C|) a pass.
    - A table otherwise (every real component; two edges on one class
      pair, or a longer cycle): the semiring product of the component's
      sentence contractions, each pronoun wire on its class's candidate
      columns E[:, C], axes in class order, of prod |C_c| scalars; M_c is
      its largest entry.

    The score is closed (x) M_1 (x) ... (x) M_m, with closed the product of
    the pronoun-free sentences.  With rest_c the product of closed and the
    other components' maxima, component c takes its first assignment in
    enumeration order whose value (x) rest_c == M_c (x) rest_c (value ==
    M_c if there is no rest).  That is the entries equal to M_c for boolean
    and reals, the entries at least the score for fuzzy min, and every
    entry, hence each class's first candidate, when the score is zero:
    exactly the enumeration-order tie-break of the whole search.  A table
    takes its first such entry in C order.  Messages decode class by class,
    in class order: each class takes its first candidate whose max-marginal,
    with the classes before it held at their choices, passes the same test.
    As (x) (min, and) distributes over max, that is the same assignment.
    All of it runs in the operand form, and the score alone is decoded: the
    decode is strictly increasing.

    Raises BudgetExceeded, before any contraction, if a component would
    exceed the budget: under a max (+), n |C| scalars for each class of a
    message component (its columns, and each temporary of a message it
    sends or receives); prod |C_c| for a table; and DomainError if the
    score overflows (an inf entry, or the nan of inf times zero, leaves the
    score non-finite).
    """
    sr = enc.semiring
    _check_constraints(constraints, d.k)
    slot_class = constraints.slot_class
    cands = constraints.candidates
    classes = [[slot_class[x] for x in s.slots()] for s in d.sentences]
    components = _blocks(len(cands), classes)
    comp_of = {c: i for i, comp in enumerate(components) for c in comp}
    n_edges = [0] * len(components)
    for cls in classes:
        if len(cls) == 2 and cls[0] != cls[1]:
            n_edges[comp_of[cls[0]]] += 1
    # Messages for a tree of classes (one class is a tree) under a max (+).
    messages = [sr.name != "nonneg-real" and n_edges[i] == len(comp) - 1
                for i, comp in enumerate(components)]
    for comp, by_messages in zip(components, messages):
        check_budget(enc.n * max(len(cands[c]) for c in comp) if by_messages
                     else prod(len(cands[c]) for c in comp))
    columns = [enc.columns(ix) for ix in constraints.indices]

    closed, factors = [], [[] for _ in components]
    own = [None] * len(cands)  # product of each class's unary factors
    edges = [[] for _ in cands]
    for s, cls in zip(d.sentences, classes):
        if not cls:
            closed.append(contract_operands(s, enc, verbs).reshape(()))
            continue
        i = comp_of[cls[0]]
        if len(cls) == 2 and cls[0] == cls[1]:
            factor = enc.verb_diagonal(verbs, s.verb, columns[cls.pop()])
        elif len(cls) == 1 or not messages[i]:
            factor = contract_operands(s, enc, verbs,
                                       lambda p: columns[slot_class[p.slot]])
            if len(cls) == 2 and cls[0] > cls[1]:
                factor = factor.T
        else:
            edges[cls[0]].append((cls[1], s.verb, True))
            edges[cls[1]].append((cls[0], s.verb, False))
            continue
        if not messages[i]:
            factors[i].append((cls, factor))
        else:
            c, factor = cls[0], factor.reshape(-1)
            own[c] = factor if own[c] is None else sr.mul(own[c], factor)

    tops, maxima = [], []
    for comp, by_messages, table_factors in zip(components, messages,
                                                factors):
        top = (_belief(enc, verbs, comp[0], {}, own, edges, columns)
               if by_messages else reduce(sr.mul, [
                   factor.reshape([len(cands[c]) if c in cls else 1
                                   for c in comp])
                   for cls, factor in table_factors]))
        tops.append(top)
        maxima.append(top.max())
    best = [0] * len(cands)
    for i, comp in enumerate(components):
        others = closed + maxima[:i] + maxima[i + 1:]
        rest = reduce(sr.mul, others) if others else None
        goal = None if rest is None else sr.mul(maxima[i], rest)
        if messages[i]:
            fixed = {comp[0]: _first(sr, tops[i], rest, goal)}
            for c in comp[1:]:
                fixed[c] = _first(sr, _belief(enc, verbs, c, fixed, own,
                                              edges, columns), rest, goal)
            for c, pos in fixed.items():
                best[c] = cands[c][pos]
        else:
            pos = _first(sr, tops[i], rest, goal)
            for c in reversed(comp):
                pos, p = divmod(pos, len(cands[c]))
                best[c] = cands[c][p]

    score = np.asarray(enc.decode(reduce(sr.mul, closed + maxima)))
    sr.validate(score)
    assignment = tuple(best[slot_class[s]] for s in range(d.k))
    return MatchingFunction(assignment), score[()]


def _first(sr, values: np.ndarray, rest, goal) -> int:
    """Flat position of the first entry with values (x) rest == goal, where
    goal = M (x) rest for the largest value M; the first M when there is no
    rest."""
    if rest is None:
        return int(values.argmax())
    return int((sr.mul(values, rest) == goal).argmax())


def _belief(enc, verbs, target: int, fixed: dict[int, int], own, edges,
            columns) -> np.ndarray:
    """Max-marginal of class ``target`` over its candidates, in the operand
    form, for a tree of classes under a max (+): its own unary factors
    ``own`` times a message from each neighbour.  A class in ``fixed`` is
    held at the candidate position given there.

    The tree is walked outwards from the target; then each class, leaves
    first, sends its parent the n-vector m = (+)_j b[j] (x) E[:, C[j]], where
    b is its own factors times the messages it has received (one column if
    the class is fixed).  The parent's candidates receive the edge
    sentence with m on the sender's wire, (V.m)^T.E[:, C_p] when the
    sender is the sentence's object and (m^T.V).E[:, C_p] when it is the
    subject, by the verb products."""
    sr = enc.semiring
    order = [(target, None, None, False)]
    for c, parent, _, _ in order:
        for other, v, subject in edges[c]:
            if other != parent:
                order.append((other, c, v, not subject))
    received = {}
    for c, parent, v, subject in reversed(order):
        b = own[c]
        if c in received:
            b = received[c] if b is None else sr.mul(b, received[c])
        if parent is None:
            return b
        if c in fixed:
            col = columns[c][:, fixed[c], None]
            m = col if b is None else sr.mul(b[fixed[c]], col)
        else:
            m = sr.add.reduce(columns[c] if b is None
                              else sr.mul(columns[c], b), axis=1, keepdims=True)
        w = enc.verb_subject(verbs, v, m) if subject \
            else enc.verb_object(verbs, v, m).T
        into = enc.product(w, columns[parent])[0]
        received[parent] = into if parent not in received \
            else sr.mul(received[parent], into)
