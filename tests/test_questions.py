"""Question parsing to sentences with open wires, their effects, and answer
ranking."""
import numpy as np
import pytest

from discoquery import (BOOLEAN, FUZZY, NONNEG_REAL, EncodingMatrix,
                        Triple, ask, build_verb_matrix, kg_contains,
                        object_whom_cap_form, parse_question, parse_sentence,
                        rank_answers, sentence_effect)
from discoquery.errors import DomainError, GrammarError
from discoquery.kb import KnowledgeGraph, Vocabulary
from discoquery.semantics import (AtomicSentence, EntityNP, PronounNP,
                                  RestrictedNP)

from conftest import identity_setup, random_encoding, random_kg


def test_parse_subject_question(philosophers):
    vocab, _ = philosophers
    q = parse_question("who discovered calculus ?", vocab)
    assert q == AtomicSentence(PronounNP(0, "who"),
                               vocab.relation_index["discovered"],
                               EntityNP(vocab.entity_index["calculus"]))


def test_parse_object_question(philosophers):
    vocab, _ = philosophers
    q = parse_question("who does spinoza influenced ?", vocab)
    assert q == AtomicSentence(EntityNP(vocab.entity_index["spinoza"]),
                               vocab.relation_index["influenced"],
                               PronounNP(0, "whom"))


def test_parse_who_whom(philosophers):
    vocab, _ = philosophers
    q = parse_question("who influenced whom ?", vocab)
    assert q == AtomicSentence(PronounNP(0, "who"),
                               vocab.relation_index["influenced"],
                               PronounNP(1, "whom"))


def test_parse_question_with_clause(alice_kg):
    vocab, _ = alice_kg
    q = parse_question("who loves boys that tell jokes ?", vocab)
    assert isinstance(q.object, RestrictedNP)


def test_parse_question_errors(philosophers):
    vocab, _ = philosophers
    with pytest.raises(GrammarError):
        parse_question("spinoza influenced whom ?", vocab)
    with pytest.raises(GrammarError, match="trailing"):
        parse_question("who discovered calculus ? extra", vocab)
    with pytest.raises(GrammarError):
        parse_question("who discovered calculus", vocab)
    with pytest.raises(GrammarError):
        parse_question("who does him influenced ?", vocab)


def test_subject_question_membership(philosophers):
    vocab, kg = philosophers
    for sr in (BOOLEAN, NONNEG_REAL):
        enc, verbs = identity_setup(vocab, kg, sr)
        eff = sentence_effect(
            parse_question("who discovered calculus ?", vocab), enc, verbs)
        disc = vocab.relation_index["discovered"]
        calc = vocab.entity_index["calculus"]
        for e in range(vocab.n_entities):
            assert eff.entries[0, e] == kg_contains(kg, Triple(e, disc, calc),
                                                    sr)


def test_object_question_membership(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    eff = sentence_effect(
        parse_question("who does spinoza influenced ?", vocab), enc, verbs)
    spin = vocab.entity_index["spinoza"]
    infl = vocab.relation_index["influenced"]
    for e in range(vocab.n_entities):
        assert eff.entries[0, e] == kg_contains(kg, Triple(spin, infl, e),
                                                NONNEG_REAL)


def test_who_whom_membership(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    eff = sentence_effect(parse_question("who influenced whom ?", vocab),
                          enc, verbs)
    ne = vocab.n_entities
    assert eff.dom == (ne, ne)
    infl = vocab.relation_index["influenced"]
    for s in range(ne):
        for o in range(ne):
            assert eff.entries[0, s * ne + o] == kg_contains(
                kg, Triple(s, infl, o), NONNEG_REAL)


def test_cap_form_matches_direct(philosophers):
    vocab, kg = philosophers
    rng = np.random.default_rng(7)
    for sr in (BOOLEAN, NONNEG_REAL):
        for trial in range(4):
            enc = random_encoding(vocab, 3, sr, rng)
            verbs = build_verb_matrix(enc, kg)
            q = parse_question("who does spinoza influenced ?", vocab)
            direct = sentence_effect(q, enc, verbs)
            literal = object_whom_cap_form(q, enc, verbs)
            assert np.allclose(np.asarray(direct.entries, dtype=float),
                               np.asarray(literal.entries, dtype=float),
                               rtol=1e-12, atol=0)


def test_rank_answers_order_and_ties(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    ranked = rank_answers(parse_question("who discovered calculus ?", vocab),
                          enc, verbs, vocab)
    assert len(ranked) == vocab.n_entities
    entities = [vocab.entities[e] for e, _ in ranked]
    scores = [s for _, s in ranked]
    # leibniz and newton both discovered calculus; leibniz comes first in
    # vocabulary order, then the zero-score entities in vocabulary order
    assert entities == ["leibniz", "newton", "descartes", "spinoza",
                        "calculus"]
    assert scores == [1.0, 1.0, 0.0, 0.0, 0.0]
    assert scores == sorted(scores, reverse=True)


def test_rank_answers_is_permutation():
    rng = np.random.default_rng(11)
    vocab, kg = random_kg(rng, 5, 2)
    enc = random_encoding(vocab, 4, NONNEG_REAL, rng)
    verbs = build_verb_matrix(enc, kg)
    q = AtomicSentence(PronounNP(0, "who"), 0, EntityNP(0))
    ranked = rank_answers(q, enc, verbs, vocab)
    assert sorted(e for e, _ in ranked) == list(range(vocab.n_entities))
    scores = [float(s) for _, s in ranked]
    assert scores == sorted(scores, reverse=True)


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL, FUZZY],
                         ids=lambda s: s.name)
def test_rank_answers_matches_key_sort(sr):
    """Seeded scores with heavy ties rank as the old Python key sort did:
    same ordinals, same numpy scalars, ties by ordinal."""
    rng = np.random.default_rng(17)
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(300)], ["r0"])
    # With n = 1, E[0, 0] = 1 and the one triple (e0, r0, e0), the verb is
    # the scalar 1 and "who r0 e0 ?" scores entity e by E[0, e].
    kg = KnowledgeGraph([Triple(0, 0, 0)])
    q = AtomicSentence(PronounNP(0, "who"), 0, EntityNP(0))
    for trial in range(20):
        if sr.name == "boolean":
            row = rng.random(300) < (0.05, 0.5, 0.95)[trial % 3]
        else:
            row = rng.choice([0.0, 0.125, 0.5, 1.0], 300,
                             p=[0.7, 0.1, 0.1, 0.1])
        row[0] = sr.one
        enc = EncodingMatrix(sr, row[None, :], vocab)
        verbs = build_verb_matrix(enc, kg)
        s = sentence_effect(q, enc, verbs).entries.reshape(-1)
        assert np.array_equal(s, row)
        old = sorted(range(300), key=lambda e: (-float(s[e]), e))
        got = rank_answers(q, enc, verbs, vocab)
        assert [e for e, _ in got] == old
        assert all(type(e) is int for e, _ in got)
        assert all(type(v) is type(s[e]) and v == s[e] for e, v in got)


def test_rank_answers_rejects_who_whom(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    with pytest.raises(GrammarError):
        rank_answers(AtomicSentence(PronounNP(0, "who"), 0,
                                    PronounNP(1, "whom")), enc, verbs, vocab)


def test_rank_and_cap_form_take_only_their_questions(philosophers):
    """rank_answers takes a sentence with exactly one hole, and the cap
    form an object question; anything else is a GrammarError."""
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    subject = parse_question("who discovered calculus ?", vocab)
    both = parse_question("who influenced whom ?", vocab)
    closed = parse_sentence("leibniz discovered calculus .", vocab)
    with pytest.raises(GrammarError, match="^two-variable question has no "
                       "single ranking; compile it instead$"):
        rank_answers(both, enc, verbs, vocab)
    with pytest.raises(GrammarError, match="no question hole"):
        rank_answers(closed, enc, verbs, vocab)
    for s in (subject, both, closed):
        with pytest.raises(GrammarError, match="not an object question"):
            object_whom_cap_form(s, enc, verbs)


def test_sentence_effect_overflow_is_one_error():
    """A real effect that overflows raises DomainError with no numpy
    RuntimeWarning before it (pytest turns such a warning into an error)."""
    vocab = Vocabulary.from_lists(["a", "b"], ["r"])
    kg = KnowledgeGraph([Triple(0, 0, 1)])
    enc = EncodingMatrix(NONNEG_REAL, np.array([[1e100, 1e100], [0, 1.0]]),
                         vocab)
    verbs = build_verb_matrix(enc, kg)
    for text in ("who r b ?", "who does a r ?", "who r whom ?"):
        with pytest.raises(DomainError):
            sentence_effect(parse_question(text, vocab), enc, verbs)


def test_ask(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, BOOLEAN)
    assert ask("leibniz discovered calculus .", enc, verbs, vocab)
    assert not ask("descartes discovered calculus .", enc, verbs, vocab)
