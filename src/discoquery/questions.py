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
from .matrix import Matrix
from .semantics import (AtomicSentence, NounPhrase, PronounNP, _Parser,
                        contract, eval_sentence, parse_sentence,
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


def _sentence(q: Question) -> AtomicSentence:
    """A question is a sentence whose holes are open pronoun wires."""
    if isinstance(q, SubjectWho):
        return AtomicSentence(PronounNP(0, "who"), q.verb, q.object)
    if isinstance(q, ObjectWhom):
        return AtomicSentence(q.subject, q.verb, PronounNP(0, "whom"))
    if isinstance(q, WhoWhom):
        return AtomicSentence(PronounNP(0, "who"), q.verb, PronounNP(1, "whom"))
    raise TypeError(f"not a question: {q!r}")


@np.errstate(over="ignore", invalid="ignore")
def question_effect(q: Question, enc: EncodingMatrix,
                    verbs: VerbMatrix) -> Matrix:
    """Effect |E| -> 1 (or |E|^2 -> 1 for the two-variable form).

    Wire order for the two-variable form is (subject, object).  The object
    question is evaluated in its snake-rewritten direct form; the explicit
    "does"-cap construction, ``oracles.object_whom_cap_form``, agrees with
    it entrywise.  Raises DomainError (from ``Matrix``) on overflow.
    """
    return sentence_effect(_sentence(q), enc, verbs)


@np.errstate(over="ignore", invalid="ignore")
def rank_answers(q: Question, enc: EncodingMatrix, verbs: VerbMatrix,
                 vocab: Vocabulary) -> list[tuple[int, object]]:
    """All |E| candidates, descending by score, ties by entity ordinal.
    Raises DomainError if a score overflows."""
    if isinstance(q, WhoWhom):
        raise GrammarError(
            "two-variable question has no single ranking; compile it instead")
    scores = contract(_sentence(q), enc, verbs).reshape(-1)
    enc.semiring.validate(scores)
    # A stable sort on the negated scores keeps ties in ordinal order.
    order = np.argsort(~scores if scores.dtype == bool else -scores,
                       kind="stable")
    return list(zip(order.tolist(), scores[order]))


def ask(sentence_text: str, enc: EncodingMatrix, verbs: VerbMatrix,
        vocab: Vocabulary, lemmas=None):
    """Scalar truth value of a pronoun-free declarative sentence."""
    s = parse_sentence(sentence_text, vocab, lemmas)
    return eval_sentence(s, enc, verbs)
