"""Dense evaluators built literally from ``Matrix`` generators: test oracles
of |E|^k or n^6 scalars for the query path, which no query calls."""
from __future__ import annotations

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError, ShapeMismatch
from .kb import KnowledgeGraph, Triple, Vocabulary
from .matrix import (Matrix, cap, check_budget, compose, cup, identity,
                     one_hot_state, scalar_value, spider, tensor, tensor_all,
                     wire_permutation)
from .questions import ObjectWhom
from .resolution import MatchingFunction, _product, resolution_scalar
from .semantics import Discourse, noun_vector, sentence_effect
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


def discourse_effect(d: Discourse, enc: EncodingMatrix,
                     verbs: VerbMatrix) -> Matrix:
    """Dense effect |E|^k -> 1: the tensor of the sentence effects."""
    sr = enc.semiring
    ne = enc.vocab.n_entities
    check_budget(ne ** d.k)
    out = np.ones((1, 1), dtype=sr.dtype) * sr.one
    dom: tuple[int, ...] = ()
    for s in d.sentences:
        eff = sentence_effect(s, enc, verbs)
        out = sr.mul(out[:, :, None], eff.entries[:, None, :]).reshape(1, -1)
        dom = dom + eff.dom
    return Matrix(sr, dom, (), out)


def object_whom_cap_form(q: ObjectWhom, enc: EncodingMatrix,
                         verbs: VerbMatrix) -> Matrix:
    """Object question wired literally with the "does" cap.

    Wires after tensoring who-E, cap, subject and verb states are
    (A, B, C, D, F, G) with cup pairings (A, B), (D, F), (C, G); the cap
    passes the answer wire across the subject into the verb's object slot.
    Dense in n^6, used for cross-checks at small n.
    """
    sr = enc.semiring
    n = enc.n
    subj = noun_vector(q.subject, enc, verbs)
    verb_state = Matrix(sr, (), (n, n), verbs.blocks[q.verb].reshape(-1, 1))
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

    def stored(pronoun):
        return sr.matmul(enc.entries, slot_states[pronoun.slot][:, None])

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
