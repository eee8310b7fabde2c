"""Who/whom question effects and answer ranking.

Question grammar (anything else is a parse error):

    who VERB NP ?
    who does NP VERB ?
    who VERB whom ?

NP is a pronoun-free noun phrase from the sentence grammar.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError
from .kb import Vocabulary
from .matrix import Matrix, cap, compose, cup, tensor, wire_permutation
from .semantics import (AtomicSentence, NounPhrase, PronounNP, _noun_array,
                        _Parser, eval_sentence, parse_sentence,
                        sentence_effect)


@dataclass(frozen=True)
class SubjectWho:
    verb: int
    object: NounPhrase


@dataclass(frozen=True)
class ObjectWhom:
    subject: NounPhrase
    verb: int


@dataclass(frozen=True)
class WhoWhom:
    verb: int


Question = SubjectWho | ObjectWhom | WhoWhom


def parse_question(text: str, vocab: Vocabulary, lemmas=None,
                   max_clause_depth: int = 1) -> Question:
    tokens = text.split()
    p = _Parser(tokens, vocab, lemmas, max_clause_depth)
    p.cur.next("who")
    if p.cur.peek() == "does":
        p.cur.next("does")
        subject = p.noun_phrase(allow_pronoun=False)
        v = p.verb()
        p.cur.next("?")
        q: Question = ObjectWhom(subject, v)
    else:
        v = p.verb()
        if p.cur.peek() == "whom":
            p.cur.next("whom")
            p.cur.next("?")
            q = WhoWhom(v)
        else:
            obj = p.noun_phrase(allow_pronoun=False)
            p.cur.next("?")
            q = SubjectWho(v, obj)
    if p.cur.peek() is not None:
        raise GrammarError(f"trailing token {p.cur.peek()!r}", p.cur.pos)
    return q


@np.errstate(over="ignore", invalid="ignore")
def question_effect(q: Question, enc: EncodingMatrix,
                    verbs: VerbMatrix) -> Matrix:
    """Effect |E| -> 1 (or |E|^2 -> 1 for the two-variable form).

    A question is a sentence whose holes are open pronoun wires.  Wire order
    for the two-variable form is (subject, object).  The object question is
    evaluated in its snake-rewritten direct form; the explicit "does"-cap
    construction lives in :func:`object_whom_cap_form` and agrees with it
    entrywise.  Raises DomainError (from ``Matrix``) on overflow.
    """
    if isinstance(q, SubjectWho):
        s = AtomicSentence(PronounNP(0, "who"), q.verb, q.object)
    elif isinstance(q, ObjectWhom):
        s = AtomicSentence(q.subject, q.verb, PronounNP(0, "whom"))
    elif isinstance(q, WhoWhom):
        s = AtomicSentence(PronounNP(0, "who"), q.verb, PronounNP(1, "whom"))
    else:
        raise TypeError(f"not a question: {q!r}")
    return sentence_effect(s, enc, verbs)


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
    ne = enc.vocab.n_entities
    subj = Matrix(sr, (), (n,),
                  _noun_array(q.subject, enc, verbs).reshape(-1, 1))
    verb_state = Matrix(sr, (), (n, n),
                        verbs.square(q.verb).reshape(-1, 1))
    # |E| -> n^6, wire order A B C D F G
    bottom = tensor(tensor(tensor(enc.matrix, cap(n, sr)), subj), verb_state)
    # pair (A, B) off immediately, then reorder (C, D, F, G) to (C, G, D, F)
    reorder = wire_permutation((0, 3, 1, 2), n, sr)
    step = compose(bottom, tensor(cup(n, sr), reorder))
    return compose(step, tensor(cup(n, sr), cup(n, sr)))


def rank_answers(q: Question, enc: EncodingMatrix, verbs: VerbMatrix,
                 vocab: Vocabulary) -> list[tuple[int, object]]:
    """All |E| candidates, descending by score, ties by entity ordinal."""
    if isinstance(q, WhoWhom):
        raise GrammarError(
            "two-variable question has no single ranking; compile it instead")
    scores = question_effect(q, enc, verbs).entries.reshape(-1)
    # A stable sort on the negated scores keeps ties in ordinal order.
    order = np.argsort(~scores if scores.dtype == bool else -scores,
                       kind="stable")
    return list(zip(order.tolist(), scores[order]))


def ask(sentence_text: str, enc: EncodingMatrix, verbs: VerbMatrix,
        vocab: Vocabulary, lemmas=None):
    """Scalar truth value of a pronoun-free declarative sentence."""
    s = parse_sentence(sentence_text, vocab, lemmas)
    return eval_sentence(s, enc, verbs)
