"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the report lines.
Tolerances: exact equality for boolean and fuzzy values, relative 1e-12 for
algebraic identities over the reals and 1e-9 for the three-way resolution
equivalence.
"""
import itertools
import subprocess
import sys
import time

import numpy as np
import pytest

from discoquery import (BOOLEAN, NONNEG_REAL, Triple, build_verb_matrix,
                        cap, compose, compile_discourse, compile_question,
                        cup, default_constraints, dense_theorem_check,
                        emit_sparql, enumerate_matchings, eval_sentence,
                        evaluate_bgp, identity, identity_encoding,
                        kg_contains, load_kg, make_constraints,
                        matching_process_eval, noun_vector,
                        object_whom_cap_form, one_hot_state, parse_discourse,
                        parse_question, parse_sentence, rank_answers,
                        resolution_scalar, resolve_argmax,
                        score_all_matchings, sentence_effect, spider, tensor,
                        transpose)
from discoquery.kb import KnowledgeGraph
from discoquery.resolution import MatchingFunction
from discoquery.semantics import EntityNP, RestrictedNP

from conftest import (DATA, GOLDENS, SEMIRINGS, cli_env, identity_setup,
                      random_encoding, random_kg, random_matrix)


def report(num: int, label: str, ok: bool, extra: str = ""):
    tail = f" ({extra})" if extra else ""
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}{tail}")
    assert ok, f"criterion {num}: {label}"


def entries_close(sr, a, b, rtol):
    a = np.asarray(a)
    b = np.asarray(b)
    if sr.name == "nonneg-real":
        return bool(np.allclose(a.astype(float), b.astype(float),
                                rtol=rtol, atol=0.0))
    return bool(np.array_equal(a, b))


def test_criterion_1_algebraic_suite():
    rng = np.random.default_rng(101)
    start = time.monotonic()
    cases = 0
    ok = True
    for sr in SEMIRINGS:
        rtol = 1e-12
        for trial in range(80):
            n = int(rng.integers(1, 5))
            # spider fusion: k of the b outputs of delta^{a,b} feed the
            # first k inputs of delta^{c,d}; the fused map is a spider
            a, b = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            c, d = int(rng.integers(0, 3)), int(rng.integers(0, 3))
            k = int(rng.integers(1, min(b, c) + 1)) if min(b, c) else 0
            if k and not (a + (b - k) == 0 and (c - k) + d == 0):
                from discoquery.matrix import wire_permutation
                bottom = tensor(spider(a, b, n, sr),
                                identity(n ** (c - k), sr))
                # wires after bottom: [k shared, b-k pass, c-k fresh];
                # reorder so the top spider sees [k shared, c-k fresh]
                perm = (tuple(range(k)) + tuple(range(b, b + c - k))
                        + tuple(range(k, b)))
                routed = compose(bottom, wire_permutation(perm, n, sr))
                fused = compose(routed, tensor(spider(c, d, n, sr),
                                               identity(n ** (b - k), sr)))
                expect = spider(a + (c - k), (b - k) + d, n, sr)
                ok &= entries_close(sr, fused.entries, expect.entries, rtol)
                cases += 1
            # snake equations
            snake1 = compose(compose(
                tensor(cap(n, sr), identity(n, sr)),
                tensor(identity(n, sr), cup(n, sr))), identity(n, sr))
            snake2 = compose(tensor(identity(n, sr), cap(n, sr)),
                             tensor(cup(n, sr), identity(n, sr)))
            ident = identity(n, sr)
            ok &= entries_close(sr, snake1.entries, ident.entries, rtol)
            ok &= entries_close(sr, snake2.entries, ident.entries, rtol)
            cases += 2
            # delta^{1,1} = id
            ok &= entries_close(sr, spider(1, 1, n, sr).entries,
                                ident.entries, rtol)
            cases += 1
            # copy law
            e = int(rng.integers(0, n))
            i = int(rng.integers(0, 4))
            copied = compose(one_hot_state(e, n, sr), spider(1, i, n, sr))
            want = np.zeros((n ** i, 1), dtype=sr.dtype)
            want[sum(e * n ** p for p in range(i)), 0] = sr.one
            ok &= entries_close(sr, copied.entries, want, rtol)
            cases += 1
            # transpose via cup/cap construction
            da, db = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            m = random_matrix(rng, (da,), (db,), sr)
            state = compose(cap(da, sr), tensor(m, identity(da, sr)))
            built = compose(tensor(identity(db, sr), state),
                            tensor(cup(db, sr), identity(da, sr)))
            ok &= entries_close(sr, built.entries, transpose(m).entries, rtol)
            cases += 1
    elapsed = time.monotonic() - start
    ok &= cases >= 1000 and elapsed < 30.0
    report(1, "algebraic suite (fusion, snakes, copy, transpose)", ok,
           f"{cases} cases in {elapsed:.1f}s")


def test_criterion_2_membership_reduction():
    rng = np.random.default_rng(102)
    ok = True
    for fixture in range(50):
        ne = int(rng.integers(2, 7))
        nr = int(rng.integers(1, 4))
        vocab, kg = random_kg(rng, ne, nr)
        for sr in (BOOLEAN, NONNEG_REAL):
            enc, verbs = identity_setup(vocab, kg, sr)
            for s in range(ne):
                for v in range(nr):
                    for o in range(ne):
                        text = (f"{vocab.entities[s]} {vocab.relations[v]} "
                                f"{vocab.entities[o]} .")
                        got = eval_sentence(parse_sentence(text, vocab),
                                            enc, verbs)
                        ok &= got == kg_contains(kg, Triple(s, v, o), sr)
    report(2, "membership reduction over 50 random KGs", ok)


def test_criterion_3_men_are_mortal():
    vocab, kg = load_kg(DATA / "men.kg")
    phrase = RestrictedNP(EntityNP(vocab.entity_index["men"]),
                          vocab.relation_index["are"],
                          EntityNP(vocab.entity_index["mortal"]))
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    with_triple = noun_vector(phrase, enc, verbs)
    ok = np.array_equal(with_triple.entries,
                        enc.matrix.entries[:, [vocab.entity_index["men"]]])
    enc2, verbs2 = identity_setup(vocab, KnowledgeGraph([]), NONNEG_REAL)
    ok &= not noun_vector(phrase, enc2, verbs2).entries.any()
    report(3, "restricted noun vector for 'men that are mortal'", ok)


def test_criterion_4_philosophers(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    leib = vocab.entity_index["leibniz"]
    newt = vocab.entity_index["newton"]
    desc = vocab.entity_index["descartes"]
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    ok = mu == MatchingFunction((leib, leib)) and score == 1.0
    ok &= resolution_scalar(d, MatchingFunction((desc, desc)),
                            enc, verbs) == 0.0
    scored = score_all_matchings(d, default_constraints(2, vocab), enc, verbs)
    winners = {m.assignment for m, s in scored if s == 1.0}
    ok &= len(scored) == 25
    ok &= winners == {(leib, leib), (leib, newt)}
    report(4, "philosophers discourse resolution", ok)


def test_criterion_5_theorem_equivalence():
    rng = np.random.default_rng(105)
    start = time.monotonic()
    templates = [
        ("e0 r0 e1 .", 0),
        ("e0 r0 him .", 1),
        ("he r0 him .", 2),
        ("e0 r0 him . he r0 e1 .", 2),
        ("he r0 him . e0 r0 him .", 3),
        ("e0 r0 him . he r0 e1 . e1 r0 him .", 3),
    ]
    ok = True
    checked = 0
    for sr in (BOOLEAN, NONNEG_REAL):
        rtol = 1e-9
        for trial in range(3):
            ne = int(rng.integers(2, 5))
            vocab, kg = random_kg(rng, ne, 1)
            enc = random_encoding(vocab, int(rng.integers(1, 4)), sr, rng)
            verbs = build_verb_matrix(enc, kg)
            for text, k in templates:
                d = parse_discourse(text, vocab)
                assert d.k == k
                for mu in enumerate_matchings(default_constraints(k, vocab),
                                              k):
                    a = resolution_scalar(d, mu, enc, verbs)
                    b = matching_process_eval(d, mu, enc, verbs)
                    _, c = dense_theorem_check(d, mu, enc, verbs)
                    ok &= entries_close(sr, a, b, rtol)
                    ok &= entries_close(sr, a, c, rtol)
                    checked += 1
    elapsed = time.monotonic() - start
    ok &= elapsed < 60.0
    report(5, "store/process factorization equals sparse scalar", ok,
           f"{checked} matchings in {elapsed:.1f}s")


def test_criterion_6_question_duality(philosophers):
    vocab, kg = philosophers
    rng = np.random.default_rng(106)
    ok = True
    q = parse_question("who does spinoza influenced ?", vocab)
    for trial in range(100):
        sr = SEMIRINGS[trial % 2]  # boolean and nonneg-real
        enc = random_encoding(vocab, int(rng.integers(1, 4)), sr, rng)
        verbs = build_verb_matrix(enc, kg)
        direct = sentence_effect(q, enc, verbs)
        literal = object_whom_cap_form(q, enc, verbs)
        ok &= entries_close(sr, direct.entries, literal.entries, 1e-12)
    enc, verbs = identity_setup(vocab, kg, BOOLEAN)
    for text, rel, fixed, is_subject in [
            ("who discovered calculus ?", "discovered", "calculus", True),
            ("who does spinoza influenced ?", "influenced", "spinoza", False)]:
        ranked = rank_answers(parse_question(text, vocab), enc, verbs, vocab)
        v = vocab.relation_index[rel]
        f = vocab.entity_index[fixed]
        consistent = {e for e in range(vocab.n_entities)
                      if (Triple(e, v, f) if is_subject else Triple(f, v, e))
                      in kg.triple_set}
        top = {e for e, s in ranked if s}
        ok &= top == consistent
        ok &= all(bool(s) == (e in consistent) for e, s in ranked)
        ok &= [e for e, _ in ranked][: len(consistent)] == sorted(consistent)
    report(6, "cap-form question duality and boolean rankings", ok)


def test_criterion_7_semantics_query_agreement():
    rng = np.random.default_rng(107)
    ok = True
    templates = ["e0 r0 him . he r1 e1 .", "he r0 him .",
                 "e1 r1 him . he r0 him ."]
    for fixture in range(20):
        ne = int(rng.integers(2, 7))
        vocab, kg = random_kg(rng, ne, 2)
        enc, verbs = identity_setup(vocab, kg, BOOLEAN)
        for text in templates:
            d = parse_discourse(text, vocab)
            cons = default_constraints(d.k, vocab)
            truthy = {mu.assignment
                      for mu, s in score_all_matchings(d, cons, enc, verbs)
                      if s}
            bgp, form = compile_discourse(d, cons)
            rows = set(evaluate_bgp(bgp, form, kg))
            ok &= truthy == rows
    report(7, "resolution scalars agree with BGP join evaluation", ok)


def test_criterion_8_golden_bytes():
    kg = str(DATA / "philosophers.kg")
    cons = str(DATA / "philosophers.constraints")
    emit_cases = [
        (["emit-sparql", "--kg", kg, "leibniz discovered calculus ."],
         "ask.rq"),
        (["emit-sparql", "--kg", kg, "--constraints", cons,
          "spinoza influenced him . he discovered calculus ."],
         "select_coref.rq"),
        (["emit-sparql", "--kg", kg, "who influenced whom ?"],
         "select_two.rq"),
    ]
    other_cases = [
        ["ask", "--kg", kg, "leibniz discovered calculus ."],
        ["rank", "--kg", kg, "who discovered calculus ?"],
        ["resolve", "--kg", kg, "--constraints", cons,
         "spinoza influenced him . he discovered calculus ."],
        ["similarity", "--kg", kg, "leibniz", "newton"],
    ]

    def run(argv):
        proc = subprocess.run([sys.executable, "-m", "discoquery.cli"] + argv,
                              capture_output=True, check=True, env=cli_env())
        return proc.stdout

    ok = True
    for argv, golden in emit_cases:
        first, second = run(argv), run(argv)
        ok &= first == second == (GOLDENS / golden).read_bytes()
    for argv in other_cases:
        first, second = run(argv), run(argv)
        ok &= first == second and first.endswith(b"\n")
    report(8, "golden byte equality across consecutive CLI runs", ok)
