"""Semiring axioms per kind, plus the matmul kernel against a naive oracle."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from discoquery import BOOLEAN, FUZZY, NONNEG_REAL, Semiring, by_name
from discoquery import semiring as semiring_mod
from discoquery.errors import SemiringMismatch
from discoquery.semiring import require_same

from conftest import SEMIRINGS, random_entries


def scalars(sr):
    if sr.name == "boolean":
        return st.booleans()
    if sr.name == "fuzzy-minmax":
        return st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    # Nonzero reals stay >= 1e-100 so that triple products stay normal:
    # a product underflowing into subnormals loses relative precision.
    return st.one_of(st.just(0.0),
                     st.floats(min_value=1e-100, max_value=1e6,
                               allow_nan=False, allow_subnormal=False))


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_axioms(sr):
    @given(scalars(sr), scalars(sr), scalars(sr))
    def check(x, y, z):
        x, y, z = sr.array(x)[()], sr.array(y)[()], sr.array(z)[()]
        assert sr.close(sr.add(sr.add(x, y), z), sr.add(x, sr.add(y, z)),
                        rtol=1e-12)
        assert sr.close(sr.mul(sr.mul(x, y), z), sr.mul(x, sr.mul(y, z)),
                        rtol=1e-12)
        assert sr.close(sr.add(x, y), sr.add(y, x))
        assert sr.close(sr.mul(x, y), sr.mul(y, x))
        # distributivity, units, annihilator
        assert sr.close(sr.mul(x, sr.add(y, z)),
                        sr.add(sr.mul(x, y), sr.mul(x, z)), rtol=1e-12)
        assert sr.close(sr.add(x, sr.zero), x)
        assert sr.close(sr.mul(x, sr.one), x)
        assert sr.close(sr.mul(x, sr.zero), sr.zero)

    check()


def naive_matmul(sr, a, b):
    m, k = a.shape
    n = b.shape[1]
    out = np.empty((m, n), dtype=sr.dtype)
    for i in range(m):
        for j in range(n):
            acc = sr.zero
            for p in range(k):
                acc = sr.add(acc, sr.mul(a[i, p], b[p, j]))
            out[i, j] = acc
    return out


@pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
def test_matmul_against_naive_oracle(sr, monkeypatch):
    rng = np.random.default_rng(7)
    # The second pass splits rows, inner dimension and columns of the
    # fuzzy fallback.
    for chunk in (semiring_mod._CHUNK, 4):
        monkeypatch.setattr(semiring_mod, "_CHUNK", chunk)
        for _ in range(10):
            m, k, n = rng.integers(1, 7, size=3)
            a = random_entries(rng, (m, k), sr)
            b = random_entries(rng, (k, n), sr)
            assert sr.close(sr.matmul(a, b), naive_matmul(sr, a, b),
                            rtol=1e-12)
        for m, k, n in [(0, 3, 2), (2, 0, 3), (2, 3, 0)]:
            out = sr.matmul(random_entries(rng, (m, k), sr),
                            random_entries(rng, (k, n), sr))
            assert out.shape == (m, n) and not out.any()


def test_fuzzy_matmul_temporaries_bounded(monkeypatch):
    monkeypatch.setattr(semiring_mod, "_CHUNK", 6)
    sizes = []

    def spy_min(x, y):
        out = np.minimum(x, y)
        sizes.append(out.size)
        return out

    spied = Semiring(FUZZY.name, FUZZY.dtype, FUZZY.add, spy_min)
    rng = np.random.default_rng(3)
    for m, k, n in [(5, 7, 3), (2, 2, 9), (9, 1, 1)]:
        a = random_entries(rng, (m, k), FUZZY)
        b = random_entries(rng, (k, n), FUZZY)
        sizes.clear()
        assert np.array_equal(spied.matmul(a, b), naive_matmul(FUZZY, a, b))
        assert sizes and max(sizes) <= 6


def test_validation():
    with pytest.raises(ValueError):
        NONNEG_REAL.array([-1.0])
    with pytest.raises(ValueError):
        FUZZY.array([1.5])
    with pytest.raises(ValueError):
        NONNEG_REAL.array([float("nan")])
    assert BOOLEAN.array([True, False]).dtype == np.dtype(bool)


def test_by_name_and_mismatch():
    assert by_name("real") is NONNEG_REAL
    assert by_name("boolean") is BOOLEAN
    assert by_name("fuzzy") is FUZZY
    with pytest.raises(ValueError):
        by_name("tropical")
    with pytest.raises(SemiringMismatch):
        require_same(BOOLEAN, FUZZY)
