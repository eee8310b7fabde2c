"""Dense evaluators built literally from ``Matrix`` generators: test oracles
of |E|^k or n^6 scalars for the query path, which no query calls.  They
contract the floats ``enc.entries`` and ``verbs.blocks`` with their own
broadcasts, so a fault in the query path's contraction shows."""
from __future__ import annotations

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError, ShapeMismatch
from .kb import KnowledgeGraph, Triple, Vocabulary
from .matrix import (Matrix, cap, check_budget, compose, cup, identity,
                     one_hot_state, scalar_value, spider, tensor, tensor_all,
                     wire_permutation)
from .resolution import MatchingFunction, resolution_scalar
from .semantics import (AtomicSentence, Discourse, EntityNP, NounPhrase,
                        PronounNP, RestrictedNP)
from .semiring import Semiring


def kg_effect(kg: KnowledgeGraph, vocab: Vocabulary,
              semiring: Semiring) -> Matrix:
    """Dense membership effect |E| (x) |R| (x) |E| -> 1."""
    ne, nr = vocab.n_entities, vocab.n_relations
    check_budget(ne * nr * ne)
    ent = np.zeros((1, ne * nr * ne), dtype=semiring.dtype)
    s, v, o = kg.spo.T
    ent[0, (s * nr + v) * ne + o] = semiring.one
    return Matrix(semiring, (ne, nr, ne), (), ent)


def triple_state(t: Triple, vocab: Vocabulary, semiring: Semiring) -> Matrix:
    if not (0 <= t.s < vocab.n_entities and 0 <= t.o < vocab.n_entities
            and 0 <= t.v < vocab.n_relations):
        raise ShapeMismatch(f"triple {t} out of range for vocabulary")
    ne, nr = vocab.n_entities, vocab.n_relations
    return tensor(tensor(one_hot_state(t.s, ne, semiring),
                         one_hot_state(t.v, nr, semiring)),
                  one_hot_state(t.o, ne, semiring))


def _noun(np_: NounPhrase, enc: EncodingMatrix,
          verbs: VerbMatrix) -> np.ndarray:
    """Float n-vector of a pronoun-free noun phrase: the head's column, met
    entrywise with the clause verb's rows summed against the complement."""
    sr = enc.semiring
    if isinstance(np_, EntityNP):
        return enc.entries[:, np_.ordinal]
    if isinstance(np_, RestrictedNP):
        clause = sr.sum(sr.mul(verbs.blocks[np_.verb],
                               _noun(np_.complement, enc, verbs)), axis=1)
        return sr.mul(_noun(np_.head, enc, verbs), clause)
    raise GrammarError(f"pronoun {np_.surface!r} in a closed noun phrase")


def float_contract(s: AtomicSentence, enc: EncodingMatrix, verbs: VerbMatrix,
                   wire=None) -> np.ndarray:
    """(+)_{x,y} L[x, i] (x) V[x, y] (x) R[y, j] on floats, as an (m_L, m_R)
    array.  A closed side is its noun phrase's column; a pronoun side is
    the float block ``wire(pronoun)``, E by default, or any (n, m) block,
    such as E . state for an entity-store state."""
    sr = enc.semiring

    def side(np_):
        if isinstance(np_, PronounNP):
            return enc.entries if wire is None else wire(np_)
        return _noun(np_, enc, verbs)[:, None]

    left, right = side(s.subject), side(s.object)
    vr = sr.sum(sr.mul(verbs.blocks[s.verb][:, :, None], right[None]), axis=1)
    return sr.sum(sr.mul(left[:, :, None], vr[:, None, :]), axis=0)


def discourse_effect(d: Discourse, enc: EncodingMatrix,
                     verbs: VerbMatrix) -> Matrix:
    """Dense effect |E|^k -> 1: the tensor of the sentence effects, each
    with its pronoun wires on E."""
    sr = enc.semiring
    ne = enc.vocab.n_entities
    check_budget(ne ** d.k)
    return tensor_all([
        Matrix(sr, (ne,) * len(s.slots()), (),
               float_contract(s, enc, verbs).reshape(1, -1))
        for s in d.sentences], sr)


def object_whom_cap_form(s: AtomicSentence, enc: EncodingMatrix,
                         verbs: VerbMatrix) -> Matrix:
    """Object question ``NP VERB whom``, wired literally with the "does" cap.

    Wires after tensoring who-E, cap, subject and verb states are
    (A, B, C, D, F, G) with cup pairings (A, B), (D, F), (C, G); the cap
    passes the answer wire across the subject into the verb's object slot.
    Dense in n^6, used for cross-checks at small n.
    """
    if (s.a, s.b) != (0, 1):
        raise GrammarError("not an object question")
    sr = enc.semiring
    n = enc.n
    subj = Matrix(sr, (), (n,), _noun(s.subject, enc, verbs).reshape(-1, 1))
    verb_state = Matrix(sr, (), (n, n), verbs.blocks[s.verb].reshape(-1, 1))
    # |E| -> n^6, wire order A B C D F G
    bottom = tensor(tensor(tensor(enc.matrix, cap(n, sr)), subj), verb_state)
    # pair (A, B) off immediately, then reorder (C, D, F, G) to (C, G, D, F)
    reorder = wire_permutation((0, 3, 1, 2), n, sr)
    step = compose(bottom, tensor(cup(n, sr), reorder))
    return compose(step, tensor(cup(n, sr), cup(n, sr)))


def matching_process_eval(d: Discourse, mu: MatchingFunction,
                          enc: EncodingMatrix, verbs: VerbMatrix):
    """Evaluate the discourse through an explicit entity store and copy spiders.

    Per entity referenced by i slots, a 1-input i-output spider copies the
    stored state; each copy is recovered by discarding the other copy wires
    and fed through E to its discourse wire.  Unreferenced entities are
    discarded with the 1-input 0-output spider (each contributing the
    scalar 1).
    """
    if len(mu) != d.k:
        raise GrammarError(f"matching of length {len(mu)} for k={d.k}")
    sr = enc.semiring
    ne = enc.vocab.n_entities
    total = sr.one
    wires: dict[int, np.ndarray] = {}  # slot -> E . its copy of the store
    discard = spider(1, 0, ne, sr)
    for e in range(ne):
        store = one_hot_state(e, ne, sr)
        slots = [x for x, a in enumerate(mu.assignment) if a == e]
        if not slots:
            total = sr.mul(total, scalar_value(compose(store, discard)))
            continue
        i = len(slots)
        copied = compose(store, spider(1, i, ne, sr))
        for w, slot in enumerate(slots):
            keep = [identity(ne, sr) if j == w else discard for j in range(i)]
            factor = compose(copied, tensor_all(keep, sr))
            wires[slot] = compose(factor, enc.matrix).entries

    for s in d.sentences:
        total = sr.mul(total, float_contract(
            s, enc, verbs, lambda p: wires[p.slot])[0, 0])
    return total


def dense_theorem_check(d: Discourse, mu: MatchingFunction,
                        enc: EncodingMatrix, verbs: VerbMatrix,
                        max_entities: int = 4):
    """Sparse scalar vs. fully materialized store/process contraction.

    The second component composes the dense entity store 1 -> |E|^|E|, the
    matching-process incidence matrix (built from tensored copy/discard
    spiders followed by an explicit wire permutation) and the dense
    discourse effect.  Guarded to |E| <= max_entities.
    """
    sr = enc.semiring
    ne = enc.vocab.n_entities
    if ne > max_entities:
        raise GrammarError(
            f"dense check limited to |E| <= {max_entities}, got {ne}")
    sparse = resolution_scalar(d, mu, enc, verbs)

    store = tensor_all([one_hot_state(e, ne, sr) for e in range(ne)], sr)
    spiders = tensor_all([spider(1, mu.assignment.count(e), ne, sr)
                          for e in range(ne)], sr)
    # grouped wire order: per entity in vocabulary order, its slots ascending
    grouped = sorted(range(d.k), key=mu.assignment.__getitem__)
    perm = tuple(grouped.index(slot) for slot in range(d.k))
    process = compose(spiders, wire_permutation(perm, ne, sr))
    dense = scalar_value(compose(compose(store, process),
                                 discourse_effect(d, enc, verbs)))
    return sparse, dense
