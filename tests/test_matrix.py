"""Diagram generators: composition, tensor, spiders, cups/caps, transpose, swap."""
import numpy as np
import pytest

from discoquery import (BOOLEAN, NONNEG_REAL, Matrix, add, cap, compose, cup,
                        identity, one_hot_effect, one_hot_state, scalar,
                        scalar_value, spider, swap, tensor, transpose)
from discoquery import matrix as matrix_mod
from discoquery.errors import BudgetExceeded, SemiringMismatch, ShapeMismatch
from discoquery.matrix import wire_permutation

from conftest import SEMIRINGS, random_matrix

RNG = np.random.default_rng(11)


def test_identity_basics():
    assert scalar_value(identity(1)) == 1.0
    assert list(identity(2).entries.reshape(-1)) == [1, 0, 0, 1]
    m = random_matrix(RNG, (3,), (4,), NONNEG_REAL)
    assert compose(identity(3), m).equal(m)
    assert compose(m, identity(4)).equal(m)


def test_compose_one_hots():
    assert scalar_value(compose(one_hot_state(1, 3), one_hot_effect(1, 3))) == 1.0
    assert scalar_value(compose(one_hot_state(0, 3), one_hot_effect(2, 3))) == 0.0
    for i in range(3):
        for j in range(3):
            got = scalar_value(compose(one_hot_state(i, 3), one_hot_effect(j, 3)))
            assert got == (1.0 if i == j else 0.0)


def test_boolean_product_hand_checked():
    # [[1,1],[0,1]] . [[1,0],[1,1]] = [[1,1],[1,1]] over (or, and)
    f = Matrix(BOOLEAN, (2,), (2,), [[1, 0], [1, 1]])
    g = Matrix(BOOLEAN, (2,), (2,), [[1, 1], [0, 1]])
    assert compose(f, g).entries.tolist() == [[True, True], [True, True]]


def test_compose_errors():
    f = random_matrix(RNG, (2,), (3,), NONNEG_REAL)
    g = random_matrix(RNG, (4,), (2,), NONNEG_REAL)
    with pytest.raises(ShapeMismatch, match="compose"):
        compose(f, g)
    h = random_matrix(RNG, (3,), (2,), BOOLEAN)
    with pytest.raises(SemiringMismatch):
        compose(f, h)


def test_tensor():
    assert tensor(identity(2), identity(3)).equal(
        Matrix(NONNEG_REAL, (2, 3), (2, 3), np.eye(6)))
    m = random_matrix(RNG, (2,), (3,), NONNEG_REAL)
    assert tensor(scalar(1.0), m).equal(m)
    st = tensor(one_hot_state(0, 2), one_hot_state(1, 2))
    assert st.entries.reshape(-1).tolist() == [0, 1, 0, 0]
    assert st.dom == () and st.cod == (2, 2)


def test_add():
    m = random_matrix(RNG, (2,), (3,), NONNEG_REAL)
    zeros = Matrix(NONNEG_REAL, (2,), (3,), np.zeros((3, 2)))
    assert add(m, zeros).equal(m)
    a = Matrix(BOOLEAN, (2,), (), [0, 1])
    b = Matrix(BOOLEAN, (2,), (), [1, 1])
    assert add(a, b).entries.tolist() == [[True, True]]
    assert scalar_value(add(scalar(0.5), scalar(0.25))) == 0.75
    with pytest.raises(ShapeMismatch):
        add(m, random_matrix(RNG, (3,), (3,), NONNEG_REAL))


def test_one_hot():
    assert one_hot_state(2, 5).entries.reshape(-1).tolist() == [0, 0, 1, 0, 0]
    assert scalar_value(one_hot_state(0, 1)) == 1.0
    with pytest.raises(ShapeMismatch):
        one_hot_state(5, 5)
    with pytest.raises(ShapeMismatch):
        one_hot_effect(-1, 3)


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_spider_special_cases(sr):
    for n in (1, 2, 4):
        assert spider(1, 1, n, sr).equal(identity(n, sr))
    copied = compose(one_hot_state(0, 2, sr), spider(1, 2, 2, sr))
    assert copied.equal(tensor(one_hot_state(0, 2, sr), one_hot_state(0, 2, sr)))
    mixed = compose(tensor(one_hot_state(0, 2, sr), one_hot_state(1, 2, sr)),
                    spider(2, 1, 2, sr))
    assert not mixed.entries.any()


def test_spider_budget(monkeypatch):
    monkeypatch.setattr(matrix_mod, "DEFAULT_BUDGET", 100)
    with pytest.raises(BudgetExceeded) as exc:
        spider(2, 2, 10, NONNEG_REAL)
    assert exc.value.required == 10_000


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_spider_fusion(sr):
    # (id^b (x) spider(k+c, d)) . (spider(a, b+k) (x) id^c) == spider(a+c, b+d)
    for n in (1, 2, 3):
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    for d in range(3):
                        for k in (1, 2):
                            if a + b == 0 and c + d == 0:
                                # closed diagram: the composite is the loop
                                # scalar (the trace of id_n), not a spider
                                continue
                            lo = spider(a, b + k, n, sr)
                            hi = spider(k + c, d, n, sr)
                            for _ in range(c):
                                lo = tensor(lo, identity(n, sr))
                            for _ in range(b):
                                hi = tensor(identity(n, sr), hi)
                            fused = compose(lo, hi)
                            assert fused.equal(spider(a + c, b + d, n, sr)), \
                                (n, a, b, c, d, k)


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_snake_equations(sr):
    for n in (1, 2, 3, 5, 16):
        left = compose(tensor(cap(n, sr), identity(n, sr)),
                       tensor(identity(n, sr), cup(n, sr)))
        right = compose(tensor(identity(n, sr), cap(n, sr)),
                        tensor(cup(n, sr), identity(n, sr)))
        assert left.equal(identity(n, sr))
        assert right.equal(identity(n, sr))


def test_cup_entries_and_loop():
    assert cup(2).entries.reshape(-1).tolist() == [1, 0, 0, 1]
    assert scalar_value(compose(cap(2), cup(2))) == 2.0
    assert scalar_value(compose(cap(2, BOOLEAN), cup(2, BOOLEAN)))
    for i in range(3):
        for j in range(3):
            st = tensor(one_hot_state(i, 3), one_hot_state(j, 3))
            assert scalar_value(compose(st, cup(3))) == (1.0 if i == j else 0.0)


def test_transpose_entrywise_and_diagrammatic():
    assert transpose(one_hot_state(1, 4)).equal(one_hot_effect(1, 4))
    for _ in range(5):
        m = random_matrix(RNG, (3,), (4,), NONNEG_REAL)
        assert transpose(transpose(m)).equal(m)
        # (id (x) cup_m) . (id (x) M (x) id) . (cap_n (x) id_m)
        via_cups = compose(
            compose(tensor(cap(3), identity(4)),
                    tensor(tensor(identity(3), m), identity(4))),
            tensor(identity(3), cup(4)))
        oracle = Matrix(NONNEG_REAL, (4,), (3,), m.entries.T)
        assert transpose(m).equal(oracle)
        assert via_cups.equal(oracle)


def test_swap():
    assert swap(3, 1).equal(identity(3))
    assert swap(1, 3).equal(identity(3))
    s = swap(2, 3)
    assert compose(s, swap(3, 2)).equal(identity(6))
    # symmetry of the cap: (<x| (x) <y|) . cap == (<y| (x) <x|) . cap
    for x in range(3):
        for y in range(3):
            xy = tensor(one_hot_effect(x, 3), one_hot_effect(y, 3))
            yx = tensor(one_hot_effect(y, 3), one_hot_effect(x, 3))
            assert scalar_value(compose(cap(3), xy)) == \
                scalar_value(compose(cap(3), yx))


def test_wire_permutation():
    # 3 wires of dim 2: rotate (0,1,2) -> carries (1,2,0)
    p = wire_permutation((1, 2, 0), 2)
    st = tensor(tensor(one_hot_state(1, 2), one_hot_state(0, 2)),
                one_hot_state(1, 2))
    got = compose(st, p)
    want = tensor(tensor(one_hot_state(0, 2), one_hot_state(1, 2)),
                  one_hot_state(1, 2))
    assert got.equal(want)


def test_functoriality_and_associativity():
    for sr in (BOOLEAN, NONNEG_REAL):
        f1 = random_matrix(RNG, (2,), (3,), sr)
        f2 = random_matrix(RNG, (3,), (2,), sr)
        g1 = random_matrix(RNG, (2,), (2,), sr)
        g2 = random_matrix(RNG, (2,), (4,), sr)
        lhs = tensor(compose(f1, f2), compose(g1, g2))
        rhs = compose(tensor(f1, g1), tensor(f2, g2))
        assert lhs.equal(rhs, rtol=1e-12)
        h = random_matrix(RNG, (4,), (5,), sr)
        assert compose(compose(f1, f2), tensor(g1, scalar(sr.one, sr))).dom == (2,)
        assert compose(f1, compose(f2, g2)).equal(
            compose(compose(f1, f2), g2), rtol=1e-12)


def test_scalar_value_guard():
    with pytest.raises(ShapeMismatch):
        scalar_value(identity(2))


def test_repr_shows_shape():
    text = repr(identity(3))
    assert "dom=[3]" in text and "cod=[3]" in text
