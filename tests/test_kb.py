"""Vocabulary/triple ingestion and the knowledge-graph effect."""
import numpy as np
import pytest

from discoquery import (BOOLEAN, NONNEG_REAL, Triple, compose, kg_contains,
                        kg_effect, load_kg, scalar_value, triple_state)
from discoquery import matrix as matrix_mod
from discoquery.errors import BudgetExceeded, LoadError
from discoquery.kb import KnowledgeGraph, Vocabulary

from conftest import DATA, random_kg


def write_kg(tmp_path, text):
    p = tmp_path / "test.kg"
    p.write_text(text, encoding="utf-8")
    return p


def test_single_line(tmp_path):
    vocab, kg = load_kg(write_kg(tmp_path, "alice\tloves\tbob\n"))
    assert vocab.entities == ("alice", "bob")
    assert vocab.relations == ("loves",)
    assert kg.triples == (Triple(0, 0, 1),)


def test_duplicates_collapse(tmp_path):
    vocab, kg = load_kg(write_kg(
        tmp_path, "alice\tloves\tbob\nalice\tloves\tbob\n"))
    assert len(kg) == 1


def test_comments_and_blank_lines(tmp_path):
    vocab, kg = load_kg(write_kg(
        tmp_path, "# header\n\nalice\tloves\tbob\n"))
    assert len(kg) == 1


def test_philosophers_fixture(philosophers):
    vocab, kg = philosophers
    assert vocab.entities == ("descartes", "spinoza", "leibniz", "calculus",
                              "newton")
    assert vocab.relations == ("influenced", "discovered")
    assert len(kg) == 3
    spinoza = vocab.entity_index["spinoza"]
    leibniz = vocab.entity_index["leibniz"]
    assert Triple(spinoza, 0, leibniz) in kg.triple_set


def test_parse_errors(tmp_path):
    with pytest.raises(LoadError, match=":2:"):
        load_kg(write_kg(tmp_path, "a\tb\tc\nbad\tline\n"))
    with pytest.raises(LoadError, match="both entity and relation"):
        load_kg(write_kg(tmp_path, "a\tb\tc\nb\ta\tc\n"))
    with pytest.raises(LoadError, match="empty token"):
        load_kg(write_kg(tmp_path, "a\t\tc\n"))


def test_not_utf8(tmp_path):
    """The error names the line of the first bad byte, also when it lies
    past the first block the text reader decodes."""
    for lineno in (2, 3000):
        p = tmp_path / "bad.kg"
        p.write_bytes(b"a\tr\tb\n" * (lineno - 1) + b"c\tr\t\xffd\n")
        with pytest.raises(LoadError, match="not valid UTF-8") as exc:
            load_kg(p)
        assert exc.value.line == lineno


def test_reload_is_idempotent(tmp_path, philosophers):
    vocab, kg = philosophers
    lines = [e for e in vocab.entities
             if all(t.s != vocab.entity_index[e] and t.o != vocab.entity_index[e]
                    for t in kg.triples)]
    lines += ["\t".join((vocab.entities[t.s], vocab.relations[t.v],
                         vocab.entities[t.o])) for t in kg.triples]
    p = write_kg(tmp_path, "\n".join(lines) + "\n")
    vocab2, kg2 = load_kg(p)
    assert vocab2.entities == vocab.entities
    assert vocab2.relations == vocab.relations
    assert kg2.triple_set == kg.triple_set


def test_kg_effect_basics():
    vocab = Vocabulary.from_lists(["a", "b"], ["r"])
    kg = KnowledgeGraph([Triple(0, 0, 1)])
    eff = kg_effect(kg, vocab, NONNEG_REAL)
    assert eff.entries.reshape(-1).tolist() == [0, 1, 0, 0]
    empty = kg_effect(KnowledgeGraph([]), vocab, NONNEG_REAL)
    assert not empty.entries.any()


def test_kg_effect_nonzero_count(philosophers):
    vocab, kg = philosophers
    eff = kg_effect(kg, vocab, NONNEG_REAL)
    assert int(eff.entries.sum()) == 3


def test_kg_effect_budget(monkeypatch):
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 50)
    vocab = Vocabulary.from_lists([f"e{i}" for i in range(10)], ["r"])
    with pytest.raises(BudgetExceeded):
        kg_effect(KnowledgeGraph([]), vocab, NONNEG_REAL)


def test_kg_contains(philosophers):
    vocab, kg = philosophers
    t = Triple(vocab.entity_index["spinoza"], 0, vocab.entity_index["leibniz"])
    assert kg_contains(kg, t, NONNEG_REAL) == 1.0
    rev = Triple(t.o, t.v, t.s)
    assert kg_contains(kg, rev, NONNEG_REAL) == 0.0
    assert kg_contains(kg, t, BOOLEAN)


def test_triple_state_indexing():
    vocab = Vocabulary.from_lists(["a", "b"], ["r"])
    st = triple_state(Triple(1, 0, 1), vocab, NONNEG_REAL)
    assert st.entries.reshape(-1).tolist() == [0, 0, 0, 1]
    one = Vocabulary.from_lists(["x"], ["r"])
    st1 = triple_state(Triple(0, 0, 0), one, NONNEG_REAL)
    assert st1.entries.reshape(-1).tolist() == [1]


@pytest.mark.parametrize("sr", [BOOLEAN, NONNEG_REAL], ids=lambda s: s.name)
def test_contains_agrees_with_dense_effect(sr):
    rng = np.random.default_rng(3)
    vocab, kg = random_kg(rng, 4, 2)
    eff = kg_effect(kg, vocab, sr)
    for s in range(4):
        for v in range(2):
            for o in range(4):
                t = Triple(s, v, o)
                dense = scalar_value(compose(triple_state(t, vocab, sr), eff))
                assert dense == kg_contains(kg, t, sr)
