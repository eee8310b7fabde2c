"""Semiring axioms per kind, plus the matmul kernel against a naive oracle."""
import numpy as np
import pytest
from hypothesis import given, strategies as st

from discoquery import BOOLEAN, FUZZY, NONNEG_REAL, Semiring, by_name
from discoquery import semiring as semiring_mod
from discoquery.errors import DomainError, SemiringMismatch
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
    muls = []

    def spy_mul(x, y):
        muls.append(1)
        return sr.mul(x, y)

    spied = Semiring(sr.name, sr.dtype, sr.add, spy_mul)
    # The second pass splits rows, inner dimension and columns of the
    # broadcast.
    for chunk in (semiring_mod._CHUNK, 4):
        monkeypatch.setattr(semiring_mod, "_CHUNK", chunk)
        shapes = [(1, 6, 5), (5, 6, 1), (1, 6, 1), (2, 6, 2)]
        for m, k, n in shapes + [rng.integers(1, 7, size=3)
                                 for _ in range(10)]:
            a = random_entries(rng, (m, k), sr)
            b = random_entries(rng, (k, n), sr)
            muls.clear()
            assert sr.close(spied.matmul(a, b), naive_matmul(sr, a, b),
                            rtol=1e-12)
            if sr is BOOLEAN:
                # Matrix-vector products take the broadcast, which
                # multiplies in numpy; matrix products take BLAS, which
                # does not.
                assert bool(muls) == (min(m, n) == 1)
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


def test_boolean_vector_matmul_temporaries_bounded(monkeypatch):
    """Past _CHUNK a boolean matrix-vector product stays on the blocked
    broadcast instead of copying its matrix to float32 for BLAS."""
    monkeypatch.setattr(semiring_mod, "_CHUNK", 6)
    sizes = []

    def spy_and(x, y):
        out = np.logical_and(x, y)
        sizes.append(out.size)
        return out

    spied = Semiring(BOOLEAN.name, BOOLEAN.dtype, BOOLEAN.add, spy_and)
    rng = np.random.default_rng(5)
    for m, k, n in [(1, 7, 9), (9, 7, 1), (1, 20, 1)]:
        a = random_entries(rng, (m, k), BOOLEAN)
        b = random_entries(rng, (k, n), BOOLEAN)
        sizes.clear()
        assert np.array_equal(spied.matmul(a, b), naive_matmul(BOOLEAN, a, b))
        assert sizes and max(sizes) <= 6


@pytest.mark.parametrize("dtype", [bool, np.float64, np.uint16, np.uint32],
                         ids=lambda d: np.dtype(d).name)
def test_transposed_left_operand_same_bytes(dtype, monkeypatch):
    """A transposed left operand against one column, as E^T . col for a
    subject hole, gives the bytes of the same product on a C-contiguous
    copy of the operand: boolean, fuzzy, and fuzzy on integer ranks."""
    sr = BOOLEAN if dtype is bool else FUZZY
    rng = np.random.default_rng(11)
    for chunk in (semiring_mod._CHUNK, 4):
        monkeypatch.setattr(semiring_mod, "_CHUNK", chunk)
        for k, m in [(2, 2), (6, 5), (3, 40), (32, 700)]:
            if dtype is bool or dtype is np.float64:
                e = random_entries(rng, (k, m), sr)
                col = random_entries(rng, (k, 1), sr)
            else:
                top = np.iinfo(dtype).max
                e = rng.integers(0, top, (k, m), dtype=dtype, endpoint=True)
                col = rng.integers(0, top, (k, 1), dtype=dtype, endpoint=True)
            assert e.T.flags.f_contiguous and not e.T.flags.c_contiguous
            got = sr.matmul(e.T, col)
            want = sr.matmul(np.ascontiguousarray(e.T), col)
            assert got.shape == (m, 1) and got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes()
            if m * k <= 200:
                assert np.array_equal(got, naive_matmul(sr, e.T, col))


def _layouts(x):
    """x as C-ordered, F-ordered, column-sliced, transposed, and transposed
    then column-sliced arrays: the same values in five memory layouts."""
    return {"C": np.ascontiguousarray(x), "F": np.asfortranarray(x),
            "sliced": np.repeat(x, 2, axis=1)[:, ::2],
            "transposed": np.ascontiguousarray(x.T).T,
            "transposed-sliced": np.repeat(x.T, 2, axis=1)[:, ::2].T}


@pytest.mark.parametrize("dtype", [bool, np.uint16, np.uint32, np.float64],
                         ids=lambda d: np.dtype(d).name)
def test_matmul_operand_layouts_same_bytes(dtype, monkeypatch):
    """Any layout of either operand gives the bytes of the product on
    C-contiguous copies, and the naive product: one or many rows and
    columns, unblocked and blocked; boolean, fuzzy, fuzzy on ranks."""
    sr = BOOLEAN if dtype is bool else FUZZY
    rng = np.random.default_rng(17)

    def draw(shape):
        if np.dtype(dtype).kind == "u":
            top = np.iinfo(dtype).max
            return rng.integers(0, top, shape, dtype=dtype, endpoint=True)
        return random_entries(rng, shape, sr)

    for chunk in (semiring_mod._CHUNK, 8):
        monkeypatch.setattr(semiring_mod, "_CHUNK", chunk)
        for m, k, n in [(1, 5, 1), (1, 5, 4), (4, 5, 1), (4, 5, 4),
                        (6, 1, 5), (3, 7, 9), (9, 7, 3)]:
            a, b = draw((m, k)), draw((k, n))
            want = sr.matmul(np.ascontiguousarray(a), np.ascontiguousarray(b))
            assert want.dtype == dtype and want.shape == (m, n)
            assert np.array_equal(want, naive_matmul(sr, a, b))
            for la, left in _layouts(a).items():
                for lb, right in _layouts(b).items():
                    got = sr.matmul(left, right)
                    assert got.dtype == dtype, (la, lb, m, k, n)
                    assert got.tobytes() == want.tobytes(), (la, lb, m, k, n)


@pytest.mark.parametrize("sr", [NONNEG_REAL, FUZZY], ids=lambda s: s.name)
@pytest.mark.parametrize("shape", [(), (3,), (2, 3)], ids=str)
def test_validate_keeps_errors(sr, shape):
    """The one-pass range test raises today's DomainError messages, with
    the non-finite check first, on 0-d and n-d arrays."""
    non_finite = f"non-finite entry in {sr.name} array"
    negative = f"negative entry in {sr.name} array"
    cases = [(np.nan, non_finite), (np.inf, non_finite),
             (-np.inf, non_finite), (-0.5, negative),
             (-np.finfo(np.float64).tiny, negative)]
    if sr is FUZZY:
        cases.append((1.0 + 2 ** -52, "fuzzy entry outside [0, 1]"))
    for bad, message in cases:
        arr = np.full(shape, 0.5)
        arr[(0,) * len(shape)] = bad
        with pytest.raises(DomainError) as exc:
            sr.validate(arr)
        assert str(exc.value) == message, (bad, shape)
    if shape:
        # the non-finite check comes first, whichever entry comes first
        for first in (-1.0, 2.0):
            arr = np.full(shape, first)
            arr[(-1,) * len(shape)] = np.nan
            with pytest.raises(DomainError, match="non-finite"):
                sr.validate(arr)
        if sr is FUZZY:
            arr = np.full(shape, 2.0)
            arr[(-1,) * len(shape)] = -1.0
            with pytest.raises(DomainError, match="negative"):
                sr.validate(arr)
    for good in (-0.0, 0.0, 1.0):
        sr.validate(np.full(shape, good))
    sr.validate(np.float64(0.25))
    sr.validate(np.empty((0,) + shape))
    if sr is NONNEG_REAL:
        sr.validate(np.full(shape, np.finfo(np.float64).max))
    assert BOOLEAN.validate(np.full(shape, np.nan)) is None


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
