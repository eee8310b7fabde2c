"""Fuzzy queries contract on integer ranks of the encoding's values: the
same bytes as float max-min oracles, and no float operand in any product."""
import numpy as np
import pytest

from discoquery import (FUZZY, EncodingMatrix, build_verb_matrix,
                        enumerate_matchings, load_embeddings, load_kg,
                        make_constraints, parse_discourse, parse_question,
                        parse_sentence, rank_answers, resolution_scalar,
                        resolve_argmax, score_all_matchings)
from discoquery.cli import main
from discoquery.kb import KnowledgeGraph, Triple, Vocabulary
from discoquery.oracles import float_contract
from discoquery.semantics import EntityNP, PronounNP, RestrictedNP, contract
from discoquery.semiring import Semiring

TEXTS = ["e0 r0 e1 .", "e0 that r1 e2 r0 e1 .", "he r0 e1 .",
         "he r0 e1 that r1 e2 .", "e0 r0 him .", "e0 that r1 e2 r0 him .",
         "he r0 him ."]


def fuzzy_entries(rng, n, ne, levels):
    """Multiples of 1 / levels (many ties), or any float for None, with
    -0.0, exact 0.0 and 1.0 entries mixed in."""
    ent = rng.random((n, ne)) if levels is None else \
        rng.integers(0, levels, (n, ne), endpoint=True) / levels
    cells = rng.random(ent.shape)
    ent[cells < 0.15] = -0.0
    ent[(cells >= 0.15) & (cells < 0.2)] = 0.0
    ent[cells > 0.95] = 1.0
    return ent


def oracle_contract(left, square, right):
    """max over x, y of min(L[x, i], V[x, y], R[y, j]) on floats, with
    every zero as +0.0."""
    cube = np.minimum(np.minimum(left.T[:, :, None, None],
                                 square[None, :, :, None]),
                      right[None, None, :, :])
    return cube.max(axis=(1, 2), initial=0.0) + 0.0


class Oracle:
    """Float max-min semantics straight from the definitions."""

    def __init__(self, ent, kg, n_relations):
        self.ent = ent
        self.verbs = np.zeros((n_relations, len(ent), len(ent)))
        for s, v, o in kg.spo.tolist():
            self.verbs[v] = np.maximum(
                self.verbs[v], np.minimum.outer(ent[:, s], ent[:, o]))

    def noun(self, np_):
        if isinstance(np_, EntityNP):
            return self.ent[:, [np_.ordinal]]
        comp = self.noun(np_.complement)[:, 0]
        clause = np.minimum(self.verbs[np_.verb], comp).max(axis=1,
                                                            initial=0.0)
        return np.minimum(self.noun(np_.head), clause[:, None])

    def contract(self, s, wire):
        def side(np_):
            return wire(np_) if isinstance(np_, PronounNP) else self.noun(np_)
        left, right = side(s.subject), side(s.object)
        return oracle_contract(left, self.verbs[s.verb], right)

    def scalar(self, d, assignment):
        out = 1.0
        for s in d.sentences:
            out = min(out, self.contract(
                s, lambda p: self.ent[:, [assignment[p.slot]]])[0, 0])
        return out


def same_bytes(got, want):
    got = np.asarray(got)
    return got.dtype == np.float64 and got.tobytes() == \
        np.asarray(want, dtype=np.float64).tobytes()


def setup(rng, n, ne, levels):
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(ne)], ["r0", "r1"])
    # Triples among e0..e5, which the texts name, and across all of E.
    spo = np.concatenate([rng.integers(0, 6, (12, 3)),
                          rng.integers(0, ne, (60, 3))]) % [ne, 2, ne]
    kg = KnowledgeGraph([Triple(*t) for t in spo.tolist()])
    ent = fuzzy_entries(rng, n, ne, levels)
    enc = EncodingMatrix(FUZZY, ent, vocab)
    return vocab, kg, ent, enc, build_verb_matrix(enc, kg), \
        Oracle(ent, kg, 2)


def test_rank_path_against_float_oracles():
    """contract on every wire kind, resolve_argmax against brute force,
    resolution_scalar, --all's scores and rank_answers, byte for byte, on
    uint16 ranks (|E| = 30, ties) and uint32 ranks (|E| = 25,000 floats,
    more than 65,536 distinct values).  contract's wire blocks come from
    ``enc.columns``; the float-only wires, "store" (E . state) and
    "foreign", hold values outside E's table and -0.0, and are checked on
    the oracles' float contraction, as every other wire is too."""
    rng = np.random.default_rng(23)
    for ne, n, levels, dtype in [(30, 3, 10, np.uint16),
                                 (25_000, 4, None, np.uint32)]:
        vocab, kg, ent, enc, verbs, oracle = setup(rng, n, ne, levels)
        assert enc.operands[1].dtype == dtype
        assert verbs.operands.dtype == dtype
        store = np.minimum(ent, rng.random(ne)).max(axis=1, keepdims=True)
        foreign = rng.random((n, 40))
        foreign[rng.random(foreign.shape) < 0.3] = -0.0
        # wire kind -> (block from enc.columns, or None for a float-only
        # wire; its float values)
        cands = [3, 0, ne - 1, 4]
        blocks = {
            None: (enc.columns(range(ne)), ent),
            "candidates": (enc.columns(cands), ent[:, cands]),
            "bound": (enc.columns(2), ent[:, [2]]),
            "store": (None, store),
            "foreign": (None, foreign)}
        for text in TEXTS:
            st = parse_sentence(text, vocab)
            for ks in blocks if st.a else [None]:
                for ko in blocks if st.b else [None]:
                    if st.a and st.b and ks is ko is None and ne > 100:
                        continue  # an |E| x |E| table
                    kinds = [ks, ko] if st.a else [ko]
                    want = oracle.contract(
                        st, lambda p: blocks[kinds[p.slot]][1])
                    floats = float_contract(
                        st, enc, verbs, lambda p: blocks[kinds[p.slot]][1])
                    assert same_bytes(floats + 0.0, want), (ne, text, ks, ko)
                    if "store" in kinds or "foreign" in kinds:
                        continue
                    got = contract(st, enc, verbs,
                                   lambda p: blocks[kinds[p.slot]][0])
                    assert same_bytes(got, want), (ne, text, ks, ko)

        for text, coref, sizes in [
                ("he r0 e1 .", [], [None]),
                ("he r0 him .", [(0, 1)], [None]),
                ("he r0 him .", [(0, 1)], [7]),
                ("he r0 him . she r1 e2 .", [(0, 2)], [9, 8]),
                ("he r0 e1 . e2 r1 him .", [], [6, 7]),
                ("he r0 him . him r1 she . she r0 e1 .", [(1, 2), (3, 4)],
                 [5, 4, 6])]:
            d = parse_discourse(text, vocab)
            heads = [c[0] for c in make_constraints(d.k, vocab, coref).classes]
            cons = make_constraints(d.k, vocab, coref, {
                s: rng.choice(ne, size, replace=False).tolist()
                for s, size in zip(heads, sizes) if size})
            mu, score = resolve_argmax(d, cons, enc, verbs, vocab)
            if ne > 100 and sizes == [None]:
                # One class over all of E: its scores in one oracle pass,
                # the diagonal for "he r0 him ." with corefer 0 1.
                s = d.sentences[0]
                cube = np.minimum(np.minimum(ent.T[:, :, None],
                                             oracle.verbs[s.verb]),
                                  ent.T[:, None, :] if d.k == 2 else
                                  ent[:, [1]].T[:, None, :])
                scores = cube.max(axis=(1, 2), initial=0.0) + 0.0
                want_e = int(np.argmax(scores))
                assert mu.assignment == (want_e,) * d.k
                assert same_bytes(score, scores[want_e])
                continue
            scored = score_all_matchings(d, cons, enc, verbs)
            best = None
            for (mu_i, got_i), mu_o in zip(
                    scored, enumerate_matchings(cons, d.k)):
                want_i = oracle.scalar(d, mu_o.assignment)
                assert mu_i == mu_o and same_bytes(got_i, want_i)
                if best is None or want_i > best[1]:
                    best = (mu_o, want_i)
            assert mu == best[0] and same_bytes(score, best[1]), text
            assert type(score) is np.float64
            assert same_bytes(resolution_scalar(d, mu, enc, verbs), best[1])

        # each question with its hole as an open pronoun wire
        for question, sentence in [("who r0 e1 ?", "he r0 e1 ."),
                                   ("who does e0 r1 ?", "e0 r1 him ."),
                                   ("who r1 e2 that r0 e3 ?",
                                    "he r1 e2 that r0 e3 .")]:
            scores = oracle.contract(parse_sentence(sentence, vocab),
                                     lambda p: ent).reshape(-1)
            order = np.argsort(-scores, kind="stable")
            got = rank_answers(parse_question(question, vocab), enc, verbs,
                               vocab)
            assert [e for e, _ in got] == order.tolist()
            assert all(type(v) is np.float64 for _, v in got)
            assert same_bytes([v for _, v in got], scores[order])


def test_fuzzy_queries_multiply_integers(tmp_path, monkeypatch, capsys):
    """Every product under fuzzy ask, rank, resolve (free, coupled, one
    class twice in a sentence), --all and resolution_scalar gets integer
    operands: the encoding's verb products and ``product``, and
    Semiring.matmul behind them.  No float fuzzy product is left on the
    query path."""
    rng = np.random.default_rng(5)
    kg, emb = tmp_path / "kg.tsv", tmp_path / "emb.tsv"
    kg.write_text("".join(f"e{s}\tr{v}\te{o}\n" for s, v, o in zip(
        rng.integers(0, 6, 20), rng.integers(0, 2, 20),
        rng.integers(0, 6, 20))) + "".join(f"e{i}\n" for i in range(6)))
    emb.write_text("".join(
        f"e{i}\t" + ",".join(f"{x:.1f}" for x in rng.random(3)) + "\n"
        for i in range(6)))
    cons, same = tmp_path / "cons.txt", tmp_path / "same.txt"
    cons.write_text("corefer: 0 2\ncandidates: 0 e1 e3 e4\n")
    same.write_text("corefer: 0 1\n")
    operands = []

    def spy(cls, name):
        product = getattr(cls, name)

        def spied(self, *args):
            operands.append("".join(a.dtype.kind for a in args
                                    if isinstance(a, np.ndarray)))
            return product(self, *args)
        monkeypatch.setattr(cls, name, spied)

    spy(Semiring, "matmul")
    for name in ("verb_object", "verb_subject", "verb_diagonal", "product"):
        spy(EncodingMatrix, name)
    common = ["--kg", str(kg), "--embeddings", str(emb), "--semiring", "fuzzy"]
    for argv in (["ask", "e0 r0 e1 that r1 e2 ."],
                 ["rank", "who r0 e1 that r1 e2 ?"],
                 ["rank", "who does e0 r1 ?"],
                 ["resolve", "he r0 e1 . e2 r1 him ."],
                 ["resolve", "--constraints", str(cons),
                  "he r0 him . she r1 e2 ."],
                 ["resolve", "--constraints", str(same),
                  "he r0 him . him r1 e3 ."],
                 ["resolve", "--all", "he r0 him . she r1 e2 ."]):
        assert main([argv[0], *common, *argv[1:]]) == 0, argv
    vocab, graph = load_kg(kg)
    enc = load_embeddings(emb, vocab, FUZZY)
    verbs = build_verb_matrix(enc, graph)
    d = parse_discourse("he r0 him . she r1 e2 .", vocab)
    for mu in enumerate_matchings(make_constraints(d.k, vocab), d.k):
        resolution_scalar(d, mu, enc, verbs)
    capsys.readouterr()
    assert len(operands) > 100
    assert {k for pair in operands for k in pair} <= {"u", "i"}


def test_verbs_of_another_value_table_raise():
    """Fuzzy verb operands are ranks into the value table of the encoding
    they were built on: an encoding with equal values, built again, may
    use them; one with other values raises instead of misreading them."""
    rng = np.random.default_rng(29)
    vocab, kg, ent, enc, verbs, oracle = setup(rng, 3, 30, 10)
    again = EncodingMatrix(FUZZY, ent.copy(), vocab)
    other = EncodingMatrix(FUZZY, ent / 2, vocab)
    st = parse_sentence("he r0 e1 that r1 e2 .", vocab)
    d = parse_discourse("he r0 him .", vocab)
    cons = make_constraints(d.k, vocab, [(0, 1)])
    want = oracle.contract(st, lambda p: ent)
    assert same_bytes(contract(st, again, verbs), want)
    for call in (lambda: contract(st, other, verbs),
                 lambda: resolve_argmax(d, cons, other, verbs, vocab),
                 lambda: rank_answers(parse_question("who r0 e1 ?", vocab),
                                      other, verbs, vocab)):
        with pytest.raises(ValueError, match="another encoding"):
            call()
