"""SPARQL compilation, byte-exact emission, and the reference join evaluator."""
import pytest

from discoquery import (BasicGraphPattern, EntityTerm, VarTerm, Ask, Select,
                        SelectAll, compile_discourse, compile_question,
                        emit_sparql, evaluate_bgp, make_constraints,
                        parse_discourse, parse_question)
from discoquery.errors import GrammarError

SPINOZA = "spinoza influenced him . he discovered calculus ."


def test_compile_plain_discourse_is_ask(philosophers):
    vocab, _ = philosophers
    d = parse_discourse("leibniz discovered calculus .", vocab)
    bgp, form = compile_discourse(d)
    assert form == Ask()
    assert bgp.patterns == (
        (EntityTerm(vocab.entity_index["leibniz"]),
         vocab.relation_index["discovered"],
         EntityTerm(vocab.entity_index["calculus"])),)


def test_compile_unconstrained_discourse(philosophers):
    vocab, _ = philosophers
    d = parse_discourse(SPINOZA, vocab)
    bgp, form = compile_discourse(d)
    assert form == SelectAll()
    assert bgp.patterns == (
        (EntityTerm(vocab.entity_index["spinoza"]),
         vocab.relation_index["influenced"], VarTerm(0)),
        (VarTerm(1), vocab.relation_index["discovered"],
         EntityTerm(vocab.entity_index["calculus"])))
    assert bgp.variables() == (0, 1)


def test_compile_coreferent_discourse(philosophers):
    vocab, _ = philosophers
    d = parse_discourse(SPINOZA, vocab)
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    bgp, _ = compile_discourse(d, cons)
    assert bgp.patterns[0][2] == VarTerm(0)
    assert bgp.patterns[1][0] == VarTerm(0)
    assert bgp.variables() == (0,)


def test_compile_relative_clause_as_extra_pattern(alice_kg):
    vocab, _ = alice_kg
    d = parse_discourse("alice loves boys that tell jokes .", vocab)
    bgp, form = compile_discourse(d)
    assert form == Ask()
    assert bgp.patterns == (
        (EntityTerm(vocab.entity_index["alice"]),
         vocab.relation_index["loves"],
         EntityTerm(vocab.entity_index["boys"])),
        (EntityTerm(vocab.entity_index["boys"]),
         vocab.relation_index["tell"],
         EntityTerm(vocab.entity_index["jokes"])))


def test_compile_questions(philosophers):
    vocab, _ = philosophers
    bgp, form = compile_question(
        parse_question("who discovered calculus ?", vocab))
    assert form == Select((0,))
    assert bgp.patterns == ((VarTerm(0), vocab.relation_index["discovered"],
                             EntityTerm(vocab.entity_index["calculus"])),)
    bgp, form = compile_question(
        parse_question("who does spinoza influenced ?", vocab))
    assert form == Select((0,))
    assert bgp.patterns == ((EntityTerm(vocab.entity_index["spinoza"]),
                             vocab.relation_index["influenced"], VarTerm(0)),)
    bgp, form = compile_question(
        parse_question("who influenced whom ?", vocab))
    assert form == Select((0, 1))
    assert bgp.patterns == ((VarTerm(0), vocab.relation_index["influenced"],
                             VarTerm(1)),)


def test_emit_ask_byte_exact(philosophers):
    vocab, _ = philosophers
    d = parse_discourse("leibniz discovered calculus .", vocab)
    bgp, form = compile_discourse(d)
    assert emit_sparql(bgp, form, vocab) == (
        "PREFIX : <http://example.org/kb#>\n"
        "ASK WHERE {\n"
        "  :leibniz :discovered :calculus .\n"
        "}\n")


def test_emit_select_all_byte_exact(philosophers):
    vocab, _ = philosophers
    d = parse_discourse(SPINOZA, vocab)
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    bgp, form = compile_discourse(d, cons)
    assert emit_sparql(bgp, form, vocab, prefix="http://ex.org/p#") == (
        "PREFIX : <http://ex.org/p#>\n"
        "SELECT * WHERE {\n"
        "  :spinoza :influenced ?v0 .\n"
        "  ?v0 :discovered :calculus .\n"
        "}\n")


def test_emit_select_vars_byte_exact(philosophers):
    vocab, _ = philosophers
    bgp, form = compile_question(
        parse_question("who influenced whom ?", vocab))
    assert emit_sparql(bgp, form, vocab) == (
        "PREFIX : <http://example.org/kb#>\n"
        "SELECT ?v0 ?v1 WHERE {\n"
        "  ?v0 :influenced ?v1 .\n"
        "}\n")


def test_emit_rejects_bad_prefix(philosophers):
    vocab, _ = philosophers
    bgp, form = compile_discourse(
        parse_discourse("leibniz discovered calculus .", vocab))
    for bad in ("http://x/a b#", "http://x/<a>#", "x\ny"):
        with pytest.raises(GrammarError, match="prefix"):
            emit_sparql(bgp, form, vocab, prefix=bad)


def test_evaluate_ask(philosophers):
    vocab, kg = philosophers
    bgp, form = compile_discourse(
        parse_discourse("leibniz discovered calculus .", vocab))
    assert evaluate_bgp(bgp, form, kg) == [(1,)]
    bgp, form = compile_discourse(
        parse_discourse("descartes discovered calculus .", vocab))
    assert evaluate_bgp(bgp, form, kg) == [(0,)]


def test_evaluate_coreferent_single_row(philosophers):
    vocab, kg = philosophers
    d = parse_discourse(SPINOZA, vocab)
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    bgp, form = compile_discourse(d, cons)
    assert evaluate_bgp(bgp, form, kg) == [(vocab.entity_index["leibniz"],)]


def test_evaluate_unconstrained_two_rows(philosophers):
    vocab, kg = philosophers
    d = parse_discourse(SPINOZA, vocab)
    bgp, form = compile_discourse(d)
    leib = vocab.entity_index["leibniz"]
    newt = vocab.entity_index["newton"]
    assert evaluate_bgp(bgp, form, kg) == sorted([(leib, leib), (leib, newt)])


def test_evaluate_questions(philosophers):
    vocab, kg = philosophers
    leib = vocab.entity_index["leibniz"]
    newt = vocab.entity_index["newton"]
    spin = vocab.entity_index["spinoza"]
    bgp, form = compile_question(
        parse_question("who discovered calculus ?", vocab))
    assert evaluate_bgp(bgp, form, kg) == sorted([(leib,), (newt,)])
    bgp, form = compile_question(
        parse_question("who does spinoza influenced ?", vocab))
    assert evaluate_bgp(bgp, form, kg) == [(leib,)]
    bgp, form = compile_question(
        parse_question("who influenced whom ?", vocab))
    assert evaluate_bgp(bgp, form, kg) == [(spin, leib)]


def test_evaluate_repeated_variable_in_pattern(philosophers):
    vocab, kg = philosophers
    bgp = BasicGraphPattern(
        ((VarTerm(0), vocab.relation_index["influenced"], VarTerm(0)),))
    assert evaluate_bgp(bgp, Select((0,)), kg) == []


def test_evaluate_matches_membership_semantics(philosophers):
    """ASK over the compiled pattern agrees with the Boolean diagram scalar."""
    from discoquery import BOOLEAN, ask
    from conftest import identity_setup
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, BOOLEAN)
    for s in range(vocab.n_entities):
        for o in range(vocab.n_entities):
            text = f"{vocab.entities[s]} influenced {vocab.entities[o]} ."
            bgp, form = compile_discourse(parse_discourse(text, vocab))
            truth = evaluate_bgp(bgp, form, kg) == [(1,)]
            assert truth == bool(ask(text, enc, verbs, vocab))
