"""Semiring-valued matrices with tensor-factor shapes, and the diagram generators.

A Matrix with dom factors (d0, ..., dk) and cod factors (c0, ..., cl) stores a
dense prod(cod) x prod(dom) entry grid, row-major over (cod-index, dom-index).
An empty factor list denotes the monoidal unit (dimension 1): a matrix with
empty dom is a state, empty cod an effect, both empty a scalar.

Factor lists are advisory wire bookkeeping; composition checks products only.
All matrices are immutable after construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetExceeded, ShapeMismatch
from .semiring import NONNEG_REAL, Semiring, require_same

#: Default cap on the number of scalars a single dense allocation may hold.
DEFAULT_BUDGET = 1 << 26

Dims = tuple[int, ...]


def prod(dims) -> int:
    return math.prod(dims)


def check_budget(cells: int) -> None:
    if cells > DEFAULT_BUDGET:
        raise BudgetExceeded(cells, DEFAULT_BUDGET)


@dataclass(frozen=True, eq=False)
class Matrix:
    semiring: Semiring
    dom: Dims
    cod: Dims
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        dom = tuple(int(d) for d in self.dom)
        cod = tuple(int(d) for d in self.cod)
        if any(d < 0 for d in dom + cod):
            raise ShapeMismatch(f"negative factor in {dom} -> {cod}")
        rows, cols = prod(cod), prod(dom)
        arr = np.array(self.entries, dtype=self.semiring.dtype)
        if arr.size != rows * cols:
            raise ShapeMismatch(
                f"{arr.size} entries for shape {cols} -> {rows}")
        arr = arr.reshape(rows, cols)
        self.semiring.validate(arr)
        arr.flags.writeable = False
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        object.__setattr__(self, "entries", arr)

    @property
    def dom_dim(self) -> int:
        return prod(self.dom)

    @property
    def cod_dim(self) -> int:
        return prod(self.cod)

    def is_scalar(self) -> bool:
        return self.dom_dim == 1 and self.cod_dim == 1

    def equal(self, other: "Matrix", rtol: float = 1e-9) -> bool:
        if self.semiring.name != other.semiring.name:
            return False
        if (self.dom_dim, self.cod_dim) != (other.dom_dim, other.cod_dim):
            return False
        return self.semiring.close(self.entries, other.entries, rtol=rtol)

    def __repr__(self):
        grid = np.array2string(self.entries, threshold=16, edgeitems=2)
        return (f"Matrix({self.semiring.name}, dom={list(self.dom)}, "
                f"cod={list(self.cod)},\n{grid})")


def scalar(value, semiring: Semiring = NONNEG_REAL) -> Matrix:
    return Matrix(semiring, (), (), semiring.array([value]))


def identity(n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    if n < 1:
        raise ShapeMismatch(f"identity dimension {n} < 1")
    if n == 1:
        return scalar(semiring.one, semiring)
    return Matrix(semiring, (n,), (n,), np.eye(n, dtype=semiring.dtype))


def compose(f: Matrix, g: Matrix) -> Matrix:
    """Composite a -> c of f: a -> b and g: b -> c (the product g . f)."""
    sr = require_same(f.semiring, g.semiring)
    if f.cod_dim != g.dom_dim:
        raise ShapeMismatch(
            f"cannot compose {f.dom} -> {f.cod} with {g.dom} -> {g.cod}")
    return Matrix(sr, f.dom, g.cod, sr.matmul(g.entries, f.entries))


def tensor(f: Matrix, g: Matrix) -> Matrix:
    """Kronecker product, concatenating factor lists."""
    sr = require_same(f.semiring, g.semiring)
    ra, ca = f.entries.shape
    rb, cb = g.entries.shape
    ent = sr.mul(f.entries[:, None, :, None],
                 g.entries[None, :, None, :]).reshape(ra * rb, ca * cb)
    return Matrix(sr, f.dom + g.dom, f.cod + g.cod, ent)


def tensor_all(ms, semiring: Semiring) -> Matrix:
    out = scalar(semiring.one, semiring)
    for m in ms:
        out = tensor(out, m)
    return out


def add(f: Matrix, g: Matrix) -> Matrix:
    sr = require_same(f.semiring, g.semiring)
    if (f.dom_dim, f.cod_dim) != (g.dom_dim, g.cod_dim):
        raise ShapeMismatch(
            f"cannot add {f.dom} -> {f.cod} and {g.dom} -> {g.cod}")
    return Matrix(sr, f.dom, f.cod, sr.add(f.entries, g.entries))


def one_hot_state(i: int, n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    if not 0 <= i < n:
        raise ShapeMismatch(f"one-hot index {i} out of range for dimension {n}")
    ent = np.zeros((n, 1), dtype=semiring.dtype)
    ent[i, 0] = semiring.one
    return Matrix(semiring, (), (n,), ent)


def one_hot_effect(i: int, n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    if not 0 <= i < n:
        raise ShapeMismatch(f"one-hot index {i} out of range for dimension {n}")
    ent = np.zeros((1, n), dtype=semiring.dtype)
    ent[0, i] = semiring.one
    return Matrix(semiring, (n,), (), ent)


def spider(a: int, b: int, n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    """The a-input, b-output Kronecker delta over dimension n."""
    if a < 0 or b < 0 or n < 1:
        raise ShapeMismatch(f"bad spider arity ({a}, {b}) over {n}")
    rows, cols = n ** b, n ** a
    check_budget(rows * cols)
    ent = np.zeros((rows, cols), dtype=semiring.dtype)
    for i in range(n):
        r = sum(i * n ** p for p in range(b))
        c = sum(i * n ** p for p in range(a))
        ent[r, c] = semiring.one
    return Matrix(semiring, (n,) * a, (n,) * b, ent)


def cup(n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    return spider(2, 0, n, semiring)


def cap(n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    return spider(0, 2, n, semiring)


def transpose(m: Matrix) -> Matrix:
    """Entrywise transpose; factor lists collapse to single dimensions."""
    return Matrix(m.semiring, (m.cod_dim,), (m.dom_dim,), m.entries.T)


def swap(m: int, n: int, semiring: Semiring = NONNEG_REAL) -> Matrix:
    """Wire crossing: the permutation sending basis (i, j) to (j, i)."""
    if m < 1 or n < 1:
        raise ShapeMismatch(f"bad swap dimensions ({m}, {n})")
    ent = np.zeros((m * n, m * n), dtype=semiring.dtype)
    for i in range(m):
        for j in range(n):
            ent[j * m + i, i * n + j] = semiring.one
    return Matrix(semiring, (m, n), (n, m), ent)


def wire_permutation(perm, dim: int,
                     semiring: Semiring = NONNEG_REAL) -> Matrix:
    """Permutation of k same-dimension wires (a composite of swaps).

    Output wire p carries input wire perm[p]: basis (x_0, ..., x_{k-1}) maps
    to (x_perm[0], ..., x_perm[k-1]).
    """
    k = len(perm)
    size = dim ** k
    check_budget(size * size)
    ent = np.zeros((size, size), dtype=semiring.dtype)
    for col in range(size):
        digits = []
        rest = col
        for _ in range(k):
            digits.append(rest % dim)
            rest //= dim
        digits.reverse()  # digits[w] = value on input wire w
        row = 0
        for p in range(k):
            row = row * dim + digits[perm[p]]
        ent[row, col] = semiring.one
    return Matrix(semiring, (dim,) * k, (dim,) * k, ent)


def scalar_value(m: Matrix):
    if not m.is_scalar():
        raise ShapeMismatch(
            f"scalar_value on non-scalar shape {m.dom} -> {m.cod}")
    return m.entries[0, 0]
