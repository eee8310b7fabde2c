"""Who/whom questions as sentences with open wires, and answer ranking.

Grammar (anything else is a parse error):

    who VERB NP ?          AtomicSentence(PronounNP(0, "who"), VERB, NP)
    who does NP VERB ?     AtomicSentence(NP, VERB, PronounNP(0, "whom"))
    who VERB whom ?        AtomicSentence(PronounNP(0, "who"), VERB,
                                          PronounNP(1, "whom"))

NP is a pronoun-free noun phrase from the sentence grammar.  Each hole is
an open pronoun wire on E, so a question's effect is ``sentence_effect``
(wire order subject then object), and the object question is the
snake-rewritten direct form of the "does"-cap construction,
``oracles.object_whom_cap_form``, with which it agrees entrywise.
"""
from __future__ import annotations

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError
from .kb import Vocabulary
from .semantics import (AtomicSentence, PronounNP, _Parser, contract,
                        eval_sentence, parse_sentence)


def parse_question(text: str, vocab: Vocabulary, lemmas=None,
                   max_clause_depth: int = 1) -> AtomicSentence:
    p = _Parser(text.split(), vocab, lemmas, max_clause_depth)
    p.cur.next("who")
    if p.cur.peek() == "does":
        p.cur.next("does")
        subject = p.noun_phrase(allow_pronoun=False)
        s = AtomicSentence(subject, p.verb(), PronounNP(0, "whom"))
    else:
        v = p.verb()
        if p.cur.peek() == "whom":
            p.cur.next("whom")
            obj = PronounNP(1, "whom")
        else:
            obj = p.noun_phrase(allow_pronoun=False)
        s = AtomicSentence(PronounNP(0, "who"), v, obj)
    p.cur.next("?")
    if p.cur.peek() is not None:
        raise GrammarError(f"trailing token {p.cur.peek()!r}", p.cur.pos)
    return s


@np.errstate(over="ignore", invalid="ignore")
def rank_answers(s: AtomicSentence, enc: EncodingMatrix, verbs: VerbMatrix,
                 vocab: Vocabulary) -> list[tuple[int, object]]:
    """All |E| candidates for the one hole of ``s``, descending by score,
    ties by entity ordinal.  Raises DomainError if a score overflows."""
    if s.a + s.b == 2:
        raise GrammarError(
            "two-variable question has no single ranking; compile it instead")
    if s.a + s.b == 0:
        raise GrammarError("sentence has no question hole to rank")
    scores = contract(s, enc, verbs).reshape(-1)
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
