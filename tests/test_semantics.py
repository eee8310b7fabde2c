"""Fragment parsing and diagram evaluation of sentences and discourses."""
import numpy as np
import pytest

from discoquery import (BOOLEAN, NONNEG_REAL, Triple, build_verb_matrix,
                        discourse_effect, eval_sentence, kg_contains, load_kg,
                        noun_vector, parse_discourse, parse_sentence,
                        sentence_effect)
from discoquery import matrix as matrix_mod
from discoquery import semantics
from discoquery import semiring as semiring_mod
from discoquery.errors import BudgetExceeded, GrammarError, LoadError
from discoquery.oracles import float_contract
from discoquery.semantics import (EntityNP, PronounNP, RestrictedNP,
                                  contract, load_lemmas)

from conftest import (DATA, SEMIRINGS, identity_setup, random_encoding,
                      random_entries, random_kg)


# --- parsing ---------------------------------------------------------------

def test_parse_plain_sentence(alice_kg):
    vocab, _ = alice_kg
    d = parse_discourse("alice loves bob .", vocab)
    assert d.k == 0
    (s,) = d.sentences
    assert s.subject == EntityNP(vocab.entity_index["alice"])
    assert s.verb == vocab.relation_index["loves"]
    assert s.object == EntityNP(vocab.entity_index["bob"])


def test_parse_spinoza_discourse(philosophers):
    vocab, _ = philosophers
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    assert len(d.sentences) == 2
    assert d.k == 2
    assert d.sentences[0].object == PronounNP(0, "him")
    assert d.sentences[1].subject == PronounNP(1, "he")
    assert (d.sentences[0].a, d.sentences[0].b) == (0, 1)
    assert (d.sentences[1].a, d.sentences[1].b) == (1, 0)


def test_parse_relative_clause(alice_kg):
    vocab, _ = alice_kg
    d = parse_discourse("alice loves boys that tell jokes .", vocab)
    (s,) = d.sentences
    assert s.object == RestrictedNP(EntityNP(vocab.entity_index["boys"]),
                                    vocab.relation_index["tell"],
                                    EntityNP(vocab.entity_index["jokes"]))
    assert d.k == 0 and s.b == 0  # restricted counts as unambiguous


def test_parse_errors(alice_kg):
    vocab, _ = alice_kg
    with pytest.raises(GrammarError, match="unknown entity 'zorro'"):
        parse_discourse("zorro loves bob .", vocab)
    with pytest.raises(GrammarError, match="unknown verb"):
        parse_discourse("alice bob loves .", vocab)
    with pytest.raises(GrammarError, match="end of input"):
        parse_discourse("alice loves bob", vocab)
    with pytest.raises(GrammarError, match="pronoun 'him' not allowed"):
        parse_discourse("alice loves boys that tell him .", vocab)
    with pytest.raises(GrammarError, match="nested too deeply"):
        parse_discourse(
            "alice loves boys that tell jokes that tell jokes .", vocab)
    # deeper nesting is allowed when configured
    d = parse_discourse(
        "alice loves boys that tell jokes that tell jokes .", vocab,
        max_clause_depth=2)
    assert isinstance(d.sentences[0].object.complement, RestrictedNP)
    with pytest.raises(GrammarError, match="empty"):
        parse_discourse("   ", vocab)


def test_lemma_map(tmp_path, alice_kg):
    vocab, _ = alice_kg
    (tmp_path / "lemmas.tsv").write_text("love\tloves\n")
    lemmas = load_lemmas(tmp_path / "lemmas.tsv")
    d = parse_discourse("alice love bob .", vocab, lemmas)
    assert d.sentences[0].verb == vocab.relation_index["loves"]


def test_lemmas_not_utf8(tmp_path):
    p = tmp_path / "lemmas.tsv"
    p.write_bytes(b"# lemmas\nlove\tloves\n\xfe\tloves\n")
    with pytest.raises(LoadError, match="not valid UTF-8") as exc:
        load_lemmas(p)
    assert exc.value.line == 3


def test_parse_sentence_rejects_discourse(alice_kg):
    vocab, _ = alice_kg
    with pytest.raises(GrammarError, match="one sentence"):
        parse_sentence("alice loves bob . alice loves bob .", vocab)


# --- noun vectors ----------------------------------------------------------

def test_noun_vector_entity(alice_kg):
    vocab, kg = alice_kg
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    vec = noun_vector(EntityNP(vocab.entity_index["boys"]), enc, verbs)
    assert vec.entries.reshape(-1).tolist() == \
        [1.0 if i == vocab.entity_index["boys"] else 0.0
         for i in range(vocab.n_entities)]


def test_men_that_are_mortal():
    vocab, kg = load_kg(DATA / "men.kg")
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("men are mortal .", vocab)
    phrase = RestrictedNP(EntityNP(vocab.entity_index["men"]),
                          vocab.relation_index["are"],
                          EntityNP(vocab.entity_index["mortal"]))
    vec = noun_vector(phrase, enc, verbs)
    assert np.array_equal(vec.entries,
                          enc.matrix.entries[:, [vocab.entity_index["men"]]])
    # without the supporting triple the restriction is empty
    from discoquery.kb import KnowledgeGraph
    enc2, verbs2 = identity_setup(vocab, KnowledgeGraph([]), NONNEG_REAL)
    assert not noun_vector(phrase, enc2, verbs2).entries.any()


def test_noun_vector_rejects_pronouns(alice_kg):
    vocab, kg = alice_kg
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    with pytest.raises(GrammarError, match="pronoun"):
        noun_vector(PronounNP(0, "him"), enc, verbs)


# --- sentence and discourse effects ---------------------------------------

def test_membership_reduction(alice_kg):
    vocab, kg = alice_kg
    for sr in (BOOLEAN, NONNEG_REAL):
        enc, verbs = identity_setup(vocab, kg, sr)
        s = parse_sentence("alice loves bob .", vocab)
        assert eval_sentence(s, enc, verbs) == sr.one
        s2 = parse_sentence("bob loves alice .", vocab)
        assert eval_sentence(s2, enc, verbs) == sr.zero


def test_membership_reduction_random():
    rng = np.random.default_rng(21)
    for sr in (BOOLEAN, NONNEG_REAL):
        for trial in range(5):
            vocab, kg = random_kg(rng, 6, 3)
            enc, verbs = identity_setup(vocab, kg, sr)
            for s in range(vocab.n_entities):
                for v in range(vocab.n_relations):
                    for o in range(vocab.n_entities):
                        text = (f"{vocab.entities[s]} {vocab.relations[v]} "
                                f"{vocab.entities[o]} .")
                        got = eval_sentence(parse_sentence(text, vocab),
                                            enc, verbs)
                        assert got == kg_contains(kg, Triple(s, v, o), sr)


def test_anaphoric_sentence_effect(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him .", vocab)
    eff = sentence_effect(d.sentences[0], enc, verbs)
    assert eff.dom == (vocab.n_entities,)
    spinoza = vocab.entity_index["spinoza"]
    for e in range(vocab.n_entities):
        assert eff.entries[0, e] == kg_contains(
            kg, Triple(spinoza, vocab.relation_index["influenced"], e),
            NONNEG_REAL)


def contraction_oracle_relative(enc, verbs, subj, verb, head, clause_verb,
                                comp):
    """Five-wire brute-force contraction for subject-verb-(head that v comp)."""
    sr = enc.semiring
    n = enc.n
    sv = enc.column(subj)
    V = verbs.blocks[verb]
    hv = enc.column(head)
    W = verbs.blocks[clause_verb]
    cv = enc.column(comp)
    acc = sr.zero
    for i in range(n):
        for j in range(n):
            for k in range(n):
                term = sr.mul(sr.mul(sv[i], V[i, j]),
                              sr.mul(hv[j], sr.mul(W[j, k], cv[k])))
                acc = sr.add(acc, term)
    return acc


def test_relative_clause_against_contraction_oracle(alice_kg):
    vocab, kg = alice_kg
    rng = np.random.default_rng(13)
    for sr in (BOOLEAN, NONNEG_REAL):
        for trial in range(5):
            enc = random_encoding(vocab, 3, sr, rng)
            from discoquery import build_verb_matrix
            verbs = build_verb_matrix(enc, kg)
            s = parse_sentence("alice loves boys that tell jokes .", vocab)
            got = eval_sentence(s, enc, verbs)
            want = contraction_oracle_relative(
                enc, verbs, vocab.entity_index["alice"],
                vocab.relation_index["loves"], vocab.entity_index["boys"],
                vocab.relation_index["tell"], vocab.entity_index["jokes"])
            assert sr.close(got, want, rtol=1e-12)


def naive_contract(sr, left, square, right):
    """(+)_{x,y} L[x,i] (x) V[x,y] (x) R[y,j], one scalar at a time."""
    out = np.empty((left.shape[1], right.shape[1]), dtype=sr.dtype)
    for i in range(left.shape[1]):
        for j in range(right.shape[1]):
            acc = sr.zero
            for x in range(square.shape[0]):
                for y in range(square.shape[1]):
                    acc = sr.add(acc, sr.mul(sr.mul(left[x, i], square[x, y]),
                                             right[y, j]))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_contract_against_naive_oracle(sr, monkeypatch):
    """Every sentence shape and every kind of pronoun wire, on random
    encodings, through the whole and the blocked broadcast (and BLAS for
    boolean matrix products).  ``contract`` gets its wire blocks from
    ``enc.columns``; the oracles' float contraction also takes the
    float-only E . state wire."""
    rng = np.random.default_rng(17)
    texts = ["e0 r0 e1 .", "e0 that r1 e2 r0 e1 .",
             "he r0 e1 .", "he r0 e1 that r1 e2 .",
             "e0 r0 him .", "e0 that r1 e2 r0 him .",
             "he r0 him ."]
    for chunk in (semiring_mod._CHUNK, 4):
        monkeypatch.setattr(semiring_mod, "_CHUNK", chunk)
        for trial in range(3):
            # Sparse, so that boolean verb blocks do not fill up.
            vocab, kg = random_kg(rng, 5, 2, density=0.1)
            enc = random_encoding(vocab, 4, sr, rng)
            verbs = build_verb_matrix(enc, kg)
            e = enc.matrix.entries
            state = random_entries(rng, (vocab.n_entities, 1), sr)
            eye = np.eye(vocab.n_entities, dtype=sr.dtype)
            # wire kind -> (block from enc.columns, or None for a float-only
            # wire; its float values); None is the default E
            blocks = {None: (enc.columns(range(vocab.n_entities)), e),
                      "candidates": (enc.columns([3, 0, 4]), e[:, [3, 0, 4]]),
                      "bound": (enc.columns(2), e[:, [2]]),
                      "store": (None, naive_contract(sr, e.T, eye, state))}
            for text in texts:
                st = parse_sentence(text, vocab)

                def side(np_, kind):
                    if isinstance(np_, PronounNP):
                        return blocks[kind][1]
                    return noun_vector(np_, enc, verbs).entries

                for ks in blocks if st.a else [None]:
                    for ko in blocks if st.b else [None]:
                        want = naive_contract(
                            sr, side(st.subject, ks), verbs.blocks[st.verb],
                            side(st.object, ko))
                        kinds = [ks, ko] if st.a else [ko]
                        floats = float_contract(
                            st, enc, verbs, lambda p: blocks[kinds[p.slot]][1])
                        assert sr.close(floats, want, rtol=1e-12), \
                            (text, ks, ko)
                        if "store" in (ks, ko):
                            continue
                        wire = None if ks is ko is None else (
                            lambda p: blocks[kinds[p.slot]][0])
                        got = contract(st, enc, verbs, wire)
                        assert got.shape == want.shape
                        assert sr.close(got, want, rtol=1e-12), (text, ks, ko)


def test_discourse_effect_spinoza(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    eff = discourse_effect(d, enc, verbs)
    ne = vocab.n_entities
    assert eff.dom == (ne, ne)
    spinoza = vocab.entity_index["spinoza"]
    calculus = vocab.entity_index["calculus"]
    infl = vocab.relation_index["influenced"]
    disc = vocab.relation_index["discovered"]
    for x in range(ne):
        for y in range(ne):
            want = kg_contains(kg, Triple(spinoza, infl, x), NONNEG_REAL) * \
                kg_contains(kg, Triple(y, disc, calculus), NONNEG_REAL)
            assert eff.entries[0, x * ne + y] == want


def test_discourse_scalar_factorizes(alice_kg):
    vocab, kg = alice_kg
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("alice loves bob . boys tell jokes .", vocab)
    eff = discourse_effect(d, enc, verbs)
    product = 1.0
    for s in d.sentences:
        product *= eval_sentence(s, enc, verbs)
    assert eff.entries[0, 0] == product


def test_single_anaphoric_sentence_equals_discourse(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him .", vocab)
    assert discourse_effect(d, enc, verbs).equal(
        sentence_effect(d.sentences[0], enc, verbs))


def test_anaphoric_closure(philosophers):
    """Plugging one-hot entities into open wires equals textual substitution."""
    vocab, kg = philosophers
    rng = np.random.default_rng(17)
    enc = random_encoding(vocab, 3, NONNEG_REAL, rng)
    from discoquery import build_verb_matrix, compose, one_hot_state, \
        scalar_value, tensor
    verbs = build_verb_matrix(enc, kg)
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    eff = discourse_effect(d, enc, verbs)
    ne = vocab.n_entities
    for x in range(ne):
        for y in range(ne):
            plugged = scalar_value(compose(
                tensor(one_hot_state(x, ne, NONNEG_REAL),
                       one_hot_state(y, ne, NONNEG_REAL)), eff))
            text = (f"spinoza influenced {vocab.entities[x]} . "
                    f"{vocab.entities[y]} discovered calculus .")
            replaced = parse_discourse(text, vocab)
            direct = discourse_effect(replaced, enc, verbs).entries[0, 0]
            assert NONNEG_REAL.close(plugged, direct, rtol=1e-12)


def test_relative_clause_intersection_bound(alice_kg):
    vocab, kg = alice_kg
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    restricted = noun_vector(
        RestrictedNP(EntityNP(vocab.entity_index["boys"]),
                     vocab.relation_index["tell"],
                     EntityNP(vocab.entity_index["jokes"])), enc, verbs)
    head = noun_vector(EntityNP(vocab.entity_index["boys"]), enc, verbs)
    assert np.all(restricted.entries <= head.entries)


def test_discourse_budget(philosophers, monkeypatch):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him . he discovered calculus .",
                        vocab)
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        discourse_effect(d, enc, verbs)


def test_sentence_effect_checks_budget_first(philosophers, monkeypatch):
    """|E|^(a+b) is checked against the budget before the sentence
    contracts."""
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    s = parse_sentence("he influenced him .", vocab)
    ne = vocab.n_entities
    contracted = []
    monkeypatch.setattr(semantics, "contract",
                        lambda *args: contracted.append(args))
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", ne * ne - 1)
    with pytest.raises(BudgetExceeded):
        sentence_effect(s, enc, verbs)
    assert not contracted
    monkeypatch.undo()
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", ne * ne)
    assert sentence_effect(s, enc, verbs).dom == (ne, ne)


def test_eval_sentence_rejects_pronouns(philosophers):
    vocab, kg = philosophers
    enc, verbs = identity_setup(vocab, kg, NONNEG_REAL)
    d = parse_discourse("spinoza influenced him .", vocab)
    with pytest.raises(GrammarError, match="pronoun"):
        eval_sentence(d.sentences[0], enc, verbs)
