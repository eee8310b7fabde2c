"""Compilation of discourses and questions to SPARQL basic graph patterns.

Emitted text is byte-exact: ``PREFIX : <IRI>`` on line 1, the query header,
one two-space-indented pattern per line, a closing ``}``, LF endings, no
trailing whitespace.  A built-in Boolean join evaluator makes emitted
queries checkable without an external triplestore.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import GrammarError
from .kb import KnowledgeGraph, Vocabulary
from .resolution import DrsConstraints
from .semantics import (AtomicSentence, Discourse, NounPhrase, PronounNP,
                        RestrictedNP)


@dataclass(frozen=True)
class EntityTerm:
    ordinal: int


@dataclass(frozen=True)
class VarTerm:
    vid: int


Term = EntityTerm | VarTerm
Pattern = tuple[Term, int, Term]


@dataclass(frozen=True)
class BasicGraphPattern:
    patterns: tuple[Pattern, ...]

    def variables(self) -> tuple[int, ...]:
        seen = []
        for s, _, o in self.patterns:
            for t in (s, o):
                if isinstance(t, VarTerm) and t.vid not in seen:
                    seen.append(t.vid)
        return tuple(seen)


@dataclass(frozen=True)
class Ask:
    pass


@dataclass(frozen=True)
class SelectAll:
    pass


@dataclass(frozen=True)
class Select:
    vars: tuple[int, ...]


QueryForm = Ask | SelectAll | Select


def _np_term(np_: NounPhrase, slot_class) -> Term:
    if isinstance(np_, PronounNP):
        return VarTerm(slot_class[np_.slot])
    if isinstance(np_, RestrictedNP):
        return EntityTerm(np_.head.ordinal)
    return EntityTerm(np_.ordinal)


def _clause_patterns(np_: NounPhrase) -> list[Pattern]:
    """Extra patterns contributed by relative clauses, outermost first."""
    out: list[Pattern] = []
    while isinstance(np_, RestrictedNP):
        comp = np_.complement
        comp_term = (EntityTerm(comp.head.ordinal)
                     if isinstance(comp, RestrictedNP)
                     else EntityTerm(comp.ordinal))
        out.append((EntityTerm(np_.head.ordinal), np_.verb, comp_term))
        np_ = comp
    return out


def compile_discourse(d: Discourse, constraints: DrsConstraints | None = None
                      ) -> tuple[BasicGraphPattern, QueryForm]:
    """One pattern per sentence plus one per relative clause.

    Coreferent pronoun slots share a variable; variable ids are dense in
    order of first textual occurrence.  A pronoun-free discourse compiles
    to ASK, anything else to SELECT *.
    """
    if constraints is None:
        slot_class = {s: s for s in range(d.k)}  # every slot its own class
    else:
        slot_class = constraints.slot_class
    patterns: list[Pattern] = []
    for s in d.sentences:
        patterns.append((_np_term(s.subject, slot_class), s.verb,
                         _np_term(s.object, slot_class)))
        patterns.extend(_clause_patterns(s.subject))
        patterns.extend(_clause_patterns(s.object))
    bgp = BasicGraphPattern(tuple(patterns))
    # classes are ordered by smallest slot, which is first-occurrence order
    form: QueryForm = SelectAll() if d.k else Ask()
    return bgp, form


def compile_question(s: AtomicSentence
                     ) -> tuple[BasicGraphPattern, QueryForm]:
    """A question, a sentence whose holes are open pronoun wires, compiled
    as a one-sentence discourse that selects every hole."""
    k = len(s.slots())
    bgp, _ = compile_discourse(Discourse((s,), k))
    return bgp, Select(tuple(range(k)))


DEFAULT_PREFIX = "http://example.org/kb#"


def _render_term(t: Term, vocab: Vocabulary) -> str:
    if isinstance(t, VarTerm):
        return f"?v{t.vid}"
    return f":{vocab.entities[t.ordinal]}"


def emit_sparql(bgp: BasicGraphPattern, form: QueryForm, vocab: Vocabulary,
                prefix: str = DEFAULT_PREFIX) -> str:
    if any(c in prefix for c in "<> \t\n\"{}|\\^`"):
        raise GrammarError(f"invalid prefix IRI {prefix!r}")
    lines = [f"PREFIX : <{prefix}>"]
    if isinstance(form, Ask):
        lines.append("ASK WHERE {")
    elif isinstance(form, SelectAll):
        lines.append("SELECT * WHERE {")
    else:
        heads = " ".join(f"?v{v}" for v in form.vars)
        lines.append(f"SELECT {heads} WHERE {{")
    for s, v, o in bgp.patterns:
        lines.append(f"  {_render_term(s, vocab)} "
                     f":{vocab.relations[v]} {_render_term(o, vocab)} .")
    lines.append("}")
    return "\n".join(lines) + "\n"


def evaluate_bgp(bgp: BasicGraphPattern, form: QueryForm,
                 kg: KnowledgeGraph) -> list[tuple[int, ...]]:
    """Reference Boolean evaluator: left-to-right hash join over the triples.

    Returns binding rows over the query's variables sorted by variable id
    (all variables for ASK/SELECT *), rows sorted lexicographically.  ASK
    returns the single row ``(1,)`` or ``(0,)``.
    """
    bindings: list[dict[int, int]] = [{}]
    for s, v, o in bgp.patterns:
        new: list[dict[int, int]] = []
        for env in bindings:
            sval = env.get(s.vid) if isinstance(s, VarTerm) else s.ordinal
            oval = env.get(o.vid) if isinstance(o, VarTerm) else o.ordinal
            if sval is not None and oval is not None:
                if oval in kg.by_sv.get((sval, v), ()):
                    new.append(env)
            elif sval is not None:
                for obj in kg.by_sv.get((sval, v), ()):
                    new.append({**env, o.vid: obj})
            elif oval is not None:
                for subj in kg.by_vo.get((v, oval), ()):
                    new.append({**env, s.vid: subj})
            else:
                for t in kg.by_v.get(v, ()):
                    if s.vid == o.vid and t.s != t.o:
                        continue
                    new.append({**env, s.vid: t.s, o.vid: t.o})
        bindings = new
    if isinstance(form, Ask):
        return [(1,)] if bindings else [(0,)]
    if isinstance(form, Select):
        var_ids = form.vars
    else:
        var_ids = tuple(sorted(bgp.variables()))
    rows = sorted({tuple(env[v] for v in var_ids) for env in bindings})
    return rows
