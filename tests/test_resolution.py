"""Anaphora resolution: enumeration, argmax, and the structural evaluators."""
import numpy as np
import pytest

from discoquery import (BOOLEAN, FUZZY, NONNEG_REAL, MatchingFunction,
                        build_verb_matrix, default_constraints,
                        dense_theorem_check, enumerate_matchings,
                        load_constraints, make_constraints,
                        matching_process_eval, parse_discourse,
                        resolution_scalar, resolve_argmax,
                        score_all_matchings)
from discoquery.errors import BudgetExceeded, GrammarError, LoadError
from discoquery.kb import KnowledgeGraph, Triple, Vocabulary
from discoquery.resolution import DrsConstraints

from conftest import DATA, identity_setup, random_encoding, random_kg

SPINOZA = "spinoza influenced him . he discovered calculus ."


def test_enumerate_unconstrained(philosophers):
    vocab, _ = philosophers
    cons = default_constraints(2, vocab)
    mus = list(enumerate_matchings(cons, 2, vocab))
    assert len(mus) == 25
    assert mus[0] == MatchingFunction((0, 0))
    assert mus[1] == MatchingFunction((0, 1))
    assert mus[-1] == MatchingFunction((4, 4))


def test_enumerate_coreferent(philosophers):
    vocab, _ = philosophers
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    mus = list(enumerate_matchings(cons, 2, vocab))
    assert mus == [MatchingFunction((e, e)) for e in range(5)]


def test_enumerate_candidate_restriction(philosophers):
    vocab, _ = philosophers
    cons = make_constraints(2, vocab,
                            candidates={0: [vocab.entity_index["leibniz"],
                                            vocab.entity_index["newton"]]})
    mus = list(enumerate_matchings(cons, 2, vocab))
    assert len(mus) == 2 * vocab.n_entities


def test_enumerate_rejects_bad_partition(philosophers):
    vocab, _ = philosophers
    bad = DrsConstraints(((0,),), ((0,),))
    with pytest.raises(GrammarError, match="partition"):
        list(enumerate_matchings(bad, 2, vocab))


def test_unconstrained_scores(philosophers):
    """Exactly (leibniz, leibniz) and (leibniz, newton) score 1."""
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    scored = score_all_matchings(d, default_constraints(2, vocab), enc, verbs,
                                 vocab)
    assert len(scored) == 25
    leib = vocab.entity_index["leibniz"]
    newt = vocab.entity_index["newton"]
    winners = {mu.assignment for mu, s in scored if s == 1.0}
    assert winners == {(leib, leib), (leib, newt)}
    assert all(s in (0.0, 1.0) for _, s in scored)


def test_coreferent_argmax_is_leibniz(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    cons = make_constraints(2, vocab, coref=[(0, 1)])
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    leib = vocab.entity_index["leibniz"]
    assert mu == MatchingFunction((leib, leib))
    assert score == 1.0


def test_unconstrained_argmax_first_winner(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    mu, score = resolve_argmax(d, default_constraints(2, vocab), enc, verbs,
                               vocab)
    leib = vocab.entity_index["leibniz"]
    assert mu == MatchingFunction((leib, leib))
    assert score == 1.0


def test_descartes_candidate_forces_zero(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    desc = vocab.entity_index["descartes"]
    cons = make_constraints(2, vocab, coref=[(0, 1)], candidates={0: [desc]})
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    assert mu == MatchingFunction((desc, desc))
    assert score == 0.0


def test_load_constraints_file(philosophers):
    vocab, kg = philosophers
    cons = load_constraints(DATA / "philosophers.constraints", 2, vocab)
    assert cons.classes == ((0, 1),)
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    assert vocab.entities[mu.assignment[0]] == "leibniz"


def test_load_constraints_errors(tmp_path, philosophers):
    vocab, _ = philosophers
    cases = [
        ("corefer: 0 7\n", "out of range"),
        ("corefer: 0 x\n", "bad slot"),
        ("candidates: 0 nobody\n", "unknown entity"),
        ("candidates: 0\n", "empty candidate"),
        ("candidates:\n", "empty candidates"),
        ("what: ever\n", "unrecognized"),
    ]
    for i, (text, msg) in enumerate(cases):
        p = tmp_path / f"c{i}.constraints"
        p.write_text(text)
        with pytest.raises(LoadError, match=msg):
            load_constraints(p, 2, vocab)


def test_load_constraints_not_utf8(tmp_path, philosophers):
    vocab, _ = philosophers
    p = tmp_path / "bad.constraints"
    p.write_bytes(b"# slots\ncorefer: 0 1\ncandidates: 0 leibniz \xff\n")
    with pytest.raises(LoadError, match="not valid UTF-8") as exc:
        load_constraints(p, 2, vocab)
    assert exc.value.line == 3


def test_resolution_scalar_length_check(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    with pytest.raises(GrammarError, match="matching of length"):
        resolution_scalar(d, MatchingFunction((0,)), enc, verbs)


def brute_force_argmax(scored):
    best = None
    for mu, s in scored:
        if best is None or float(s) > float(best[1]):
            best = (mu, s)
    return best


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL, FUZZY])
def test_argmax_matches_brute_force_random(sr):
    """Same matching and score as enumeration, ties included: 10 trials at
    |E| = 4, n = 3, then 6 at |E| 40-60, n 8-40 with 2-5 candidates per
    class, where products have many rows and columns (the F-ordered left
    operand) and fuzzy tables hold ranks.  Boolean and fuzzy scores are
    bit-exact; real ones may differ by reassociation."""
    rng = np.random.default_rng(29)
    texts = [
        "e0 r0 him . he r1 e1 .",
        "e0 r0 him . e1 r1 him .",
        "he r0 him . e0 r1 e1 .",
        "he r0 e0 . he r1 e1 . e2 r0 him .",
        "he r0 him . she r1 e0 . e1 r0 her .",
        "he r0 him . him r1 she . she r0 e1 .",
    ]
    for trial in range(16):
        large = trial >= 10
        ne, n = (rng.integers(40, 61), rng.integers(8, 41)) if large \
            else (4, 3)
        vocab, kg = random_kg(rng, ne, 2, density=(0.1, 0.3)[trial % 2])
        enc = random_encoding(vocab, n, sr, rng)
        verbs = build_verb_matrix(enc, kg)
        for text in texts:
            d = parse_discourse(text, vocab)
            corefs = [[], [(0, 1)]] + ([[(0, 2)], [(1, 2)]] if d.k > 2 else [])
            coref = corefs[trial % len(corefs)]
            if large:
                classes = make_constraints(d.k, vocab, coref=coref).classes
                candidates = {
                    c[0]: rng.choice(ne, rng.integers(2, 6),
                                     replace=False).tolist()
                    for c in classes}
            else:
                candidates = {
                    s: rng.choice(4, rng.integers(1, 4), replace=False).tolist()
                    for s in range(d.k) if rng.random() < 0.4}
            cons = make_constraints(d.k, vocab, coref=coref,
                                    candidates=candidates)
            if not all(cons.candidates):
                continue
            scored = score_all_matchings(d, cons, enc, verbs, vocab)
            want_mu, want_s = brute_force_argmax(scored)
            got_mu, got_s = resolve_argmax(d, cons, enc, verbs, vocab)
            assert got_mu == want_mu, (text, coref, candidates)
            assert float(got_s) == pytest.approx(float(want_s), rel=1e-9)
            if sr is not NONNEG_REAL:
                assert type(got_s) is type(want_s)
                assert float(got_s).hex() == float(want_s).hex()
            assert float(resolution_scalar(d, got_mu, enc, verbs)) == \
                pytest.approx(float(want_s), rel=1e-9)
            # Every candidate set spelled out as a tuple takes the gather
            # path, with the same matching and score as range(|E|).
            spelled = DrsConstraints(cons.classes, tuple(
                tuple(c) for c in cons.candidates))
            assert resolve_argmax(d, spelled, enc, verbs, vocab) == \
                (got_mu, got_s)


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL, FUZZY])
def test_argmax_zero_score_takes_first_matching(sr):
    """A component scoring zero zeroes the total: every matching ties, so
    the first one wins, as the first line of ``--all`` shows."""
    vocab = Vocabulary.from_lists(["a", "b", "c"], ["r", "s"])
    kg = KnowledgeGraph([Triple(0, 0, 1), Triple(1, 1, 2)])
    enc, verbs = identity_setup(vocab, kg, sr)
    d = parse_discourse("he s c . c s him .", vocab)
    cons = default_constraints(2, vocab)
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    first_mu, first_s = score_all_matchings(d, cons, enc, verbs, vocab)[0]
    assert mu == first_mu == MatchingFunction((0, 0))
    assert score == first_s == sr.zero


def test_argmax_component_over_budget():
    """Two coupled classes over 9000 candidates each need an 81M table."""
    rng = np.random.default_rng(41)
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(9000)], ["r0"])
    enc = random_encoding(vocab, 2, NONNEG_REAL, rng)
    verbs = build_verb_matrix(enc, KnowledgeGraph([Triple(0, 0, 1)]))
    d = parse_discourse("he r0 him . e0 r0 e1 .", vocab)
    with pytest.raises(BudgetExceeded):
        resolve_argmax(d, default_constraints(2, vocab), enc, verbs, vocab)


def test_argmax_factorization_independent_classes(philosophers):
    """Two sentences with disjoint pronouns factorize into two searches."""
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    cons = default_constraints(2, vocab)  # slots in different sentences
    mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
    scored = score_all_matchings(d, cons, enc, verbs, vocab)
    want_mu, want_s = brute_force_argmax(scored)
    assert float(score) == float(want_s)
    assert mu == want_mu


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL, FUZZY])
def test_matching_process_eval_agrees(sr):
    rng = np.random.default_rng(31)
    for trial in range(3):
        vocab, kg = random_kg(rng, 4, 2)
        enc = random_encoding(vocab, 3, sr, rng)
        verbs = build_verb_matrix(enc, kg)
        d = parse_discourse("he r0 him . e0 r1 him .", vocab)
        for mu in enumerate_matchings(default_constraints(d.k, vocab),
                                      d.k, vocab):
            a = resolution_scalar(d, mu, enc, verbs)
            b = matching_process_eval(d, mu, enc, verbs)
            assert sr.close(a, b, rtol=1e-12)


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL])
def test_dense_theorem_check(sr):
    rng = np.random.default_rng(37)
    for trial in range(3):
        vocab, kg = random_kg(rng, 3, 2)
        enc = random_encoding(vocab, 2, sr, rng)
        verbs = build_verb_matrix(enc, kg)
        d = parse_discourse("he r0 him . e0 r1 him .", vocab)
        for mu in enumerate_matchings(default_constraints(d.k, vocab),
                                      d.k, vocab):
            sparse, dense = dense_theorem_check(d, mu, enc, verbs)
            assert sr.close(sparse, dense, rtol=1e-12)


def test_dense_theorem_check_guard(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse(SPINOZA, vocab)
    with pytest.raises(GrammarError, match="dense check"):
        dense_theorem_check(d, MatchingFunction((0, 0)), enc, verbs)
    sparse, dense = dense_theorem_check(d, MatchingFunction((0, 0)), enc,
                                        verbs, max_entities=5)
    assert sparse == dense


def test_k_zero_discourse(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("leibniz discovered calculus .", vocab)
    mu, score = resolve_argmax(d, default_constraints(0, vocab), enc, verbs,
                               vocab)
    assert mu == MatchingFunction(())
    assert score == 1.0
    assert resolution_scalar(d, mu, enc, verbs) == 1.0
