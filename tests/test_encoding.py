"""Encoding matrix, verb matrix construction, similarity, normalization."""
import warnings

import numpy as np
import pytest

from discoquery import (BOOLEAN, FUZZY, NONNEG_REAL, build_verb_matrix,
                        identity_encoding, load_embeddings, load_kg,
                        normalize_l1, similarity)
from discoquery import encoding as encoding_mod
from discoquery import matrix as matrix_mod
from discoquery.errors import (BudgetExceeded, LoadError, SemiringMismatch,
                               VerbOverflow)
from discoquery.kb import KnowledgeGraph, Triple, Vocabulary
from discoquery.encoding import EncodingMatrix
from discoquery.semiring import Semiring

from conftest import DATA, SEMIRINGS, random_encoding, random_kg


@pytest.fixture(scope="module")
def catdog():
    vocab, kg = load_kg(DATA / "catdog.kg")
    return vocab, load_embeddings(DATA / "catdog.tsv", vocab)


def test_load_embeddings(catdog):
    vocab, enc = catdog
    assert enc.n == 3
    assert enc.column(vocab.entity_index["cat"]).tolist() == [0.9, 0.1, 0.5]


def test_similarity_hand_computed(catdog):
    vocab, enc = catdog
    cat, dog = vocab.entity_index["cat"], vocab.entity_index["dog"]
    assert similarity(enc, cat, dog) == pytest.approx(1.02, rel=1e-12)
    assert similarity(enc, cat, cat) == pytest.approx(0.9**2 + 0.1**2 + 0.5**2)


def test_similarity_reads_only_its_columns():
    """An overflowing inner product of other columns does not matter."""
    vocab = Vocabulary.from_lists(["a", "b", "c"], ["r"])
    ent = np.array([[1e200, 1.0, 1e200], [0.0, 0.0, 1.0]])
    enc = EncodingMatrix(NONNEG_REAL, ent, vocab)
    assert similarity(enc, 1, 2) == 1e200


def test_identity_like_embeddings(tmp_path):
    (tmp_path / "e.tsv").write_text("a\t1,0\nb\t0,1\n")
    vocab = Vocabulary.from_lists(["a", "b"], ["r"])
    enc = load_embeddings(tmp_path / "e.tsv", vocab)
    assert np.array_equal(enc.matrix.entries, np.eye(2))


def test_embedding_errors(tmp_path, catdog):
    vocab, _ = catdog
    cases = [
        ("cat\t1,2\n", "missing entity 'dog'"),
        ("cat\t1,2\ncat\t1,2\ndog\t1,2\n", "duplicate entity 'cat'"),
        ("cat\t1,2\ndog\t1,2,3\n", "length 3"),
        ("cat\t1,-2\ndog\t1,2\n", "negative"),
        ("cat\t1;2\ndog\t1,2\n", "malformed"),
        ("mouse\t1,2\n", "unknown entity 'mouse'"),
    ]
    for text, match in cases:
        p = tmp_path / "bad.tsv"
        p.write_text(text)
        with pytest.raises(LoadError, match=match):
            load_embeddings(p, vocab)


def test_embeddings_not_utf8(tmp_path, catdog):
    vocab, _ = catdog
    p = tmp_path / "bad.tsv"
    p.write_bytes(b"cat\t1,2\ndog\t1,\xff2\n")
    with pytest.raises(LoadError, match="not valid UTF-8") as exc:
        load_embeddings(p, vocab)
    assert exc.value.line == 2


def test_identity_encoding_similarity():
    vocab = Vocabulary.from_lists(["a", "b", "c"], ["r"])
    enc = identity_encoding(vocab)
    assert np.array_equal(enc.matrix.entries, np.eye(3))
    for i in range(3):
        for j in range(3):
            assert similarity(enc, i, j) == (1.0 if i == j else 0.0)


def test_identity_encoding_budget(monkeypatch):
    """|E|^2 scalars against the budget."""
    vocab = Vocabulary.from_lists(["a", "b", "c"], ["r"])
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 8)
    with pytest.raises(BudgetExceeded, match="9 scalars exceeds budget of 8"):
        identity_encoding(vocab)
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 9)
    assert identity_encoding(vocab).n == 3


def test_verb_matrix_identity_encoding():
    vocab = Vocabulary.from_lists(["a", "b"], ["r", "dead"])
    kg = KnowledgeGraph([Triple(0, 0, 1)])
    verbs = build_verb_matrix(identity_encoding(vocab), kg)
    assert verbs.matrix.entries[:, 0].tolist() == [0, 1, 0, 0]
    assert not verbs.matrix.entries[:, 1].any()  # verb absent from K


def dense_verb_oracle(enc, kg):
    """Brute-force contraction of the dense KG effect through E (x) E."""
    from discoquery import kg_effect
    sr = enc.semiring
    vocab = enc.vocab
    ne, nr, n = vocab.n_entities, vocab.n_relations, enc.n
    keff = kg_effect(kg, vocab, sr).entries.reshape(ne, nr, ne)
    out = np.zeros((nr, n, n), dtype=sr.dtype)
    for v in range(nr):
        for i in range(n):
            for j in range(n):
                acc = sr.zero
                for s in range(ne):
                    for o in range(ne):
                        acc = sr.add(acc, sr.mul(
                            keff[s, v, o],
                            sr.mul(enc.column(s)[i], enc.column(o)[j])))
                out[v, i, j] = acc
    return out


def per_triple_verb(enc, kg):
    """The outer-product-per-triple sum, in triple order, one block per
    relation."""
    sr, n = enc.semiring, enc.n
    out = np.zeros((enc.vocab.n_relations, n, n), dtype=sr.dtype)
    for t in kg.triples:
        outer = sr.mul(enc.column(t.s)[:, None], enc.column(t.o)[None, :])
        out[t.v] = sr.add(out[t.v], outer)
    return out


def selection_encoding(vocab, sr):
    """n=2: e0 and e2 share row 1 with weights 0.5 and 0.25, e1 is zero."""
    ent = np.zeros((2, vocab.n_entities))
    ent[1, 0], ent[1, 2] = 0.5, 0.25
    ent[0, 3:] = np.linspace(1.0, 0.125, vocab.n_entities - 3)
    return EncodingMatrix(sr, ent, vocab)


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_verb_matrix_against_dense_oracle(sr, monkeypatch):
    rng = np.random.default_rng(5)
    # The second pass splits each relation's triples into several matmuls.
    for gather in (encoding_mod._GATHER, 1):
        monkeypatch.setattr(encoding_mod, "_GATHER", gather)
        for trial in range(5):
            vocab, kg = random_kg(rng, 5, 2, density=0.4)
            # Exact where the arithmetic is unchanged: boolean and fuzzy
            # everywhere, and selection encodings, which add in triple
            # order; dense reals are reassociated.
            for enc, exact in (
                    (random_encoding(vocab, 3, sr, rng),
                     sr.name != "nonneg-real"),
                    (selection_encoding(vocab, sr), True)):
                verbs = build_verb_matrix(enc, kg)
                got = verbs.blocks
                assert sr.close(got, dense_verb_oracle(enc, kg), rtol=1e-12)
                want = per_triple_verb(enc, kg)
                assert got.dtype == want.dtype
                if exact:
                    assert got.tobytes() == want.tobytes()
                else:
                    assert sr.close(got, want, rtol=1e-12)
                # The on-demand Matrix holds the same entries, column v
                # being block v.
                assert np.array_equal(verbs.matrix.entries,
                                      got.reshape(len(got), -1).T)


def test_fuzzy_verb_build_on_ranks_exact(monkeypatch):
    """The fuzzy build runs on integer ranks of E's values and decodes to
    the bytes of the per-triple max-min sum, every zero as +0.0.  Cases:
    tied values, exact 0 and 1, -0.0 entries, a relation without triples,
    uint16 and uint32 ranks, and one batch per n triples (_GATHER = 1)."""
    kinds = []

    def spy_min(x, y):
        kinds.append(x.dtype)
        return np.minimum(x, y)

    spied = Semiring(FUZZY.name, FUZZY.dtype, FUZZY.add, spy_min)
    rng = np.random.default_rng(17)
    for gather in (encoding_mod._GATHER, 1):
        monkeypatch.setattr(encoding_mod, "_GATHER", gather)
        # (|E|, n, levels): entries are multiples of 1 / levels, or any
        # float for None; 25,000 x 4 floats hold past 2^16 values.
        for ne, n, levels in [(8, 3, 2), (30, 5, 10), (25_000, 4, None)]:
            vocab = Vocabulary.from_lists([f"e{i}" for i in range(ne)],
                                          ["r0", "r1", "none"])
            ent = (rng.random((n, ne)) if levels is None
                   else rng.integers(0, levels, (n, ne),
                                     endpoint=True) / levels)
            cells = rng.random(ent.shape)
            ent[cells < 0.2] = -0.0
            ent[(cells >= 0.2) & (cells < 0.25)] = 0.0
            ent[cells > 0.95] = 1.0
            kg = KnowledgeGraph([Triple(int(s), int(v), int(o))
                                 for s, v, o in zip(rng.integers(0, ne, 60),
                                                    rng.integers(0, 2, 60),
                                                    rng.integers(0, ne, 60))])
            enc = EncodingMatrix(spied, ent, vocab)
            kinds.clear()
            verbs = build_verb_matrix(enc, kg)
            distinct = len(np.unique(np.append(ent, 0.0)))
            assert set(kinds) == {np.dtype(np.uint16 if distinct <= 1 << 16
                                           else np.uint32)}
            # Adding +0.0 turns the oracle's -0.0 zeros into +0.0.
            want = per_triple_verb(enc, kg) + 0.0
            assert verbs.blocks.dtype == np.float64
            assert verbs.blocks.tobytes() == want.tobytes()
            assert not np.signbit(verbs.blocks).any()
            assert not verbs.blocks[2].any()
        assert distinct > 1 << 16


@pytest.mark.parametrize("positive", [(1 << 16) - 1, 1 << 16])
def test_fuzzy_rank_width_boundary(positive):
    """With +0.0, 65,536 values still fit uint16 ranks and 65,537 need
    uint32: the top value keeps its rank and decodes to 1.0."""
    ne = (positive + 1) // 2
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(ne)], ["r"])
    ent = np.resize(np.arange(1, positive + 1) / positive, (2, ne))
    top = int(np.argmax(ent[1]))
    kg = KnowledgeGraph([Triple(top, 0, top), Triple(0, 0, ne - 1),
                         Triple(ne - 1, 0, 1)])
    enc = EncodingMatrix(FUZZY, ent, vocab)
    _, ranks = encoding_mod._ranks(ent)
    assert ranks.dtype == (np.uint16 if positive < 1 << 16 else np.uint32)
    assert ranks.max() == positive
    verbs = build_verb_matrix(enc, kg)
    assert verbs.blocks[0, 1, 1] == 1.0
    assert verbs.blocks.tobytes() == per_triple_verb(enc, kg).tobytes()


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_verb_blocks_contiguous_read_only(sr):
    """Every relation's square is a C-contiguous, read-only n x n view
    into the one (|R|, n, n) array, on both build kernels."""
    rng = np.random.default_rng(13)
    vocab, kg = random_kg(rng, 6, 3)
    for enc in (identity_encoding(vocab, sr),
                random_encoding(vocab, 4, sr, rng)):
        verbs = build_verb_matrix(enc, kg)
        assert verbs.blocks.shape == (3, enc.n, enc.n)
        for v in range(3):
            square = verbs.blocks[v]
            assert square.shape == (enc.n, enc.n)
            assert square.flags.c_contiguous
            assert not square.flags.writeable
            assert np.shares_memory(square, verbs.blocks)
        with pytest.raises(ValueError, match="read-only"):
            verbs.blocks[0, 0, 0] = sr.one


def test_verb_matrix_overflow():
    vocab = Vocabulary.from_lists(["a", "b"], ["r", "big"])
    kg = KnowledgeGraph([Triple(0, 0, 1), Triple(0, 1, 0), Triple(1, 1, 1)])
    for ent in ([[1e200, 0.0], [0.0, 1e200]],
                [[1e200, 1.0], [1.0, 1e200]]):
        enc = EncodingMatrix(NONNEG_REAL, np.array(ent), vocab)
        with pytest.raises(VerbOverflow, match="'r'"):
            build_verb_matrix(enc, kg)


def test_verb_column_mass_counts_triples():
    rng = np.random.default_rng(9)
    vocab, kg = random_kg(rng, 5, 3)
    verbs = build_verb_matrix(identity_encoding(vocab), kg)
    for v in range(3):
        n_triples = sum(1 for t in kg.triples if t.v == v)
        assert verbs.matrix.entries[:, v].sum() == n_triples


def test_normalize_l1():
    vocab = Vocabulary.from_lists(["a", "b"], ["r"])
    ent = np.array([[2.0, 0.0], [2.0, 0.0]])
    enc = EncodingMatrix(NONNEG_REAL, ent, vocab)
    with pytest.warns(UserWarning, match="zero embedding columns"):
        normed = normalize_l1(enc)
    assert normed.column(0).tolist() == [0.5, 0.5]
    assert normed.column(1).tolist() == [0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        again = normalize_l1(EncodingMatrix(
            NONNEG_REAL, np.array([[0.5, 1.0], [0.5, 0.0]]), vocab))
    assert np.array_equal(
        again.matrix.entries, np.array([[0.5, 1.0], [0.5, 0.0]]))
    for sr in (BOOLEAN, FUZZY):
        with pytest.raises(SemiringMismatch, match="nonneg-real"):
            normalize_l1(identity_encoding(vocab, sr))


def test_normalize_l1_matches_column_loop():
    """Bitwise equal to dividing each nonzero column by its own sum, with
    the same warning naming the zero columns."""
    rng = np.random.default_rng(19)
    for n, ne in [(3, 7), (8, 5), (100, 40), (1000, 6)]:
        ent = rng.random((n, ne)) * 10.0 ** rng.integers(-3, 4, (n, ne))
        ent[:, rng.random(ne) < 0.3] = 0.0
        if n == 8:
            ent[:, 0] = 0.0
        vocab = Vocabulary.from_lists([f"e{i}" for i in range(ne)], ["r"])
        want = ent.copy()
        zero_cols = []
        for e in range(ne):
            mass = ent[:, e].sum()
            if mass == 0.0:
                zero_cols.append(vocab.entities[e])
            else:
                want[:, e] = ent[:, e] / mass
        enc = EncodingMatrix(NONNEG_REAL, ent, vocab)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            normed = normalize_l1(enc)
        assert normed.matrix.entries.tobytes() == want.tobytes()
        assert [str(w.message) for w in caught] == (
            [f"zero embedding columns left unnormalized: {zero_cols}"]
            if zero_cols else [])
