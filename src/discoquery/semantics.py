"""Controlled-language parsing and diagram evaluation of sentences and discourses.

Grammar (whitespace-separated tokens):

    discourse := sentence+
    sentence  := NP verb NP "."
    NP        := ENTITY | PRONOUN | ENTITY "that" verb NP
    PRONOUN   := he | him | she | her | they | them | it

Pronoun slots are numbered in reading order (subject before object within a
sentence).  Relative clauses restrict entity heads only and may not contain
pronouns; nesting depth is configurable (default one level).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoding import EncodingMatrix, VerbMatrix
from .errors import GrammarError, utf8_text
from .kb import PRONOUNS, Vocabulary
from .matrix import Matrix, check_budget, prod


@dataclass(frozen=True)
class EntityNP:
    ordinal: int


@dataclass(frozen=True)
class PronounNP:
    slot: int
    surface: str


@dataclass(frozen=True)
class RestrictedNP:
    head: EntityNP
    verb: int
    complement: "NounPhrase"


NounPhrase = EntityNP | PronounNP | RestrictedNP


@dataclass(frozen=True)
class AtomicSentence:
    subject: NounPhrase
    verb: int
    object: NounPhrase

    @property
    def a(self) -> int:
        return int(isinstance(self.subject, PronounNP))

    @property
    def b(self) -> int:
        return int(isinstance(self.object, PronounNP))

    def slots(self) -> tuple[int, ...]:
        out = []
        if isinstance(self.subject, PronounNP):
            out.append(self.subject.slot)
        if isinstance(self.object, PronounNP):
            out.append(self.object.slot)
        return tuple(out)


@dataclass(frozen=True)
class Discourse:
    sentences: tuple[AtomicSentence, ...]
    k: int


def load_lemmas(path) -> dict[str, str]:
    """Optional surface -> relation map, tab-separated, one pair per line."""
    lemmas = {}
    with utf8_text(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise GrammarError(f"bad lemma line {line!r}")
            lemmas[parts[0]] = parts[1]
    return lemmas


class _Cursor:
    def __init__(self, tokens):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None:
            raise GrammarError("unexpected end of input", self.pos)
        if expected is not None and tok != expected:
            raise GrammarError(f"expected {expected!r}, found {tok!r}", self.pos)
        self.pos += 1
        return tok


class _Parser:
    def __init__(self, tokens, vocab: Vocabulary, lemmas, max_clause_depth):
        self.cur = _Cursor(tokens)
        self.vocab = vocab
        self.lemmas = lemmas or {}
        self.max_depth = max_clause_depth
        self.next_slot = 0

    def verb(self) -> int:
        pos = self.cur.pos
        tok = self.cur.next()
        tok = self.lemmas.get(tok, tok)
        if tok not in self.vocab.relation_index:
            raise GrammarError(f"unknown verb {tok!r}", pos)
        return self.vocab.relation_index[tok]

    def noun_phrase(self, allow_pronoun: bool, depth: int = 0) -> NounPhrase:
        pos = self.cur.pos
        tok = self.cur.next()
        if tok in PRONOUNS:
            if not allow_pronoun:
                raise GrammarError(
                    f"pronoun {tok!r} not allowed inside a relative clause", pos)
            slot = self.next_slot
            self.next_slot += 1
            return PronounNP(slot, tok)
        if tok not in self.vocab.entity_index:
            raise GrammarError(f"unknown entity {tok!r}", pos)
        head = EntityNP(self.vocab.entity_index[tok])
        if self.cur.peek() == "that":
            if depth >= self.max_depth:
                raise GrammarError("relative clause nested too deeply",
                                   self.cur.pos)
            self.cur.next("that")
            v = self.verb()
            complement = self.noun_phrase(allow_pronoun=False, depth=depth + 1)
            return RestrictedNP(head, v, complement)
        return head

    def sentence(self) -> AtomicSentence:
        subject = self.noun_phrase(allow_pronoun=True)
        v = self.verb()
        obj = self.noun_phrase(allow_pronoun=True)
        self.cur.next(".")
        return AtomicSentence(subject, v, obj)

    def discourse(self) -> Discourse:
        sentences = [self.sentence()]
        while self.cur.peek() is not None:
            sentences.append(self.sentence())
        return Discourse(tuple(sentences), self.next_slot)


def parse_discourse(text: str, vocab: Vocabulary, lemmas=None,
                    max_clause_depth: int = 1) -> Discourse:
    tokens = text.split()
    if not tokens:
        raise GrammarError("empty input")
    return _Parser(tokens, vocab, lemmas, max_clause_depth).discourse()


def parse_sentence(text: str, vocab: Vocabulary, lemmas=None,
                   max_clause_depth: int = 1) -> AtomicSentence:
    d = parse_discourse(text, vocab, lemmas, max_clause_depth)
    if len(d.sentences) != 1:
        raise GrammarError(f"expected one sentence, found {len(d.sentences)}")
    return d.sentences[0]


# ---------------------------------------------------------------------------
# Evaluation.  Internally we contract innermost vectors first: each sentence
# costs O(n^2) on the verb's contiguous n x n block; the dense triple space
# |E| x |R| x |E| is never materialized.

def _noun_array(np_: NounPhrase, enc: EncodingMatrix,
                verbs: VerbMatrix) -> np.ndarray:
    """The noun vector as an (n, 1) column in the operand form."""
    sr = enc.semiring
    if isinstance(np_, EntityNP):
        return enc.columns(np_.ordinal)
    if isinstance(np_, RestrictedNP):
        head = _noun_array(np_.head, enc, verbs)
        comp = _noun_array(np_.complement, enc, verbs)
        # contract the verb's object wire with the complement, then intersect
        return sr.mul(head, enc.verb_object(verbs, np_.verb, comp))
    raise GrammarError(f"pronoun {np_.surface!r} in a closed noun phrase")


def noun_vector(np_: NounPhrase, enc: EncodingMatrix,
                verbs: VerbMatrix) -> Matrix:
    """State 1 -> n for a pronoun-free noun phrase."""
    vec = enc.decode(_noun_array(np_, enc, verbs))
    return Matrix(enc.semiring, (), (enc.n,), vec)


def contract(s: AtomicSentence, enc: EncodingMatrix, verbs: VerbMatrix,
             wire=None) -> np.ndarray:
    """Sentence contraction L^T V R as an (m_L, m_R) array, subject axis first.

    Each side is an (n, m) block of columns.  A closed noun phrase is its
    noun vector, one column.  A pronoun or question hole is
    ``wire(pronoun)``, a block from ``enc.columns``: E itself by default,
    E[:, C] for a candidate class C, or E[:, [e]] for a bound entity.
    The narrower side meets V first, the subject side on a tie.
    Products run in the encoding's operand form (ranks, for fuzzy), decoded
    once.
    """
    return enc.decode(contract_operands(s, enc, verbs, wire))


def contract_operands(s: AtomicSentence, enc: EncodingMatrix,
                      verbs: VerbMatrix, wire=None) -> np.ndarray:
    """``contract``'s product in the operand form."""
    def side(np_):
        if isinstance(np_, PronounNP):
            return enc.columns(range(enc.vocab.n_entities)) if wire is None \
                else wire(np_)
        return _noun_array(np_, enc, verbs)

    left, right = side(s.subject), side(s.object)
    if left.shape[1] <= right.shape[1]:
        return enc.product(enc.verb_subject(verbs, s.verb, left), right)
    return enc.product(left.T, enc.verb_object(verbs, s.verb, right))


@np.errstate(over="ignore", invalid="ignore")
def sentence_effect(s: AtomicSentence, enc: EncodingMatrix,
                    verbs: VerbMatrix) -> Matrix:
    """Effect |E|^(a+b) -> 1 with wire order subject then object; the
    budget is checked before contracting.  Raises DomainError (from
    ``Matrix``) on overflow."""
    dom = (enc.vocab.n_entities,) * (s.a + s.b)
    check_budget(prod(dom))
    return Matrix(enc.semiring, dom, (), contract(s, enc, verbs).reshape(1, -1))


@np.errstate(over="ignore", invalid="ignore")
def eval_sentence(s: AtomicSentence, enc: EncodingMatrix, verbs: VerbMatrix):
    """Scalar semantics of a pronoun-free sentence.

    Raises DomainError if the scalar overflows.
    """
    if s.a or s.b:
        raise GrammarError("sentence contains a pronoun")
    value = contract(s, enc, verbs).reshape(())
    enc.semiring.validate(value)
    return value[()]
