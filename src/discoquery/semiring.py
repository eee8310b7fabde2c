"""The three supported scalar semirings and their numpy kernels.

boolean uses (or, and, 0, 1), nonneg-real uses (+, *, 0, 1) on floats >= 0,
fuzzy-minmax uses (max, min, 0, 1) on the unit interval.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SemiringMismatch

# Largest temporary (in scalars) of the broadcast fallback matmul.
_CHUNK = 1 << 18


@dataclass(frozen=True)
class Semiring:
    name: str
    dtype: np.dtype
    add: np.ufunc
    mul: np.ufunc

    @property
    def zero(self):
        return self.dtype.type(0)

    @property
    def one(self):
        return self.dtype.type(1)

    def array(self, data) -> np.ndarray:
        arr = np.array(data, dtype=self.dtype)
        self.validate(arr)
        return arr

    def validate(self, arr: np.ndarray) -> None:
        if self.name == "boolean":
            return
        if not np.all(np.isfinite(arr)):
            raise DomainError(f"non-finite entry in {self.name} array")
        if np.any(arr < 0):
            raise DomainError(f"negative entry in {self.name} array")
        if self.name == "fuzzy-minmax" and np.any(arr > 1):
            raise DomainError("fuzzy entry outside [0, 1]")

    def sum(self, arr: np.ndarray, axis=None) -> np.ndarray:
        return self.add.reduce(arr, axis=axis)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Semiring matrix product, deterministic for fixed inputs."""
        if a.shape[1] != b.shape[0]:
            raise ValueError(f"inner dims {a.shape} x {b.shape}")
        if self.name == "boolean":
            # Exact on float BLAS: terms are 0 or 1, and a sum of
            # nonnegative floats with a positive term never rounds to 0.
            return (a.astype(np.float32) @ b.astype(np.float32)) > 0
        if self.name == "nonneg-real":
            return a @ b
        # fuzzy: no BLAS kernel; broadcast over blocks of rows, inner
        # dimension and columns so that no temporary exceeds _CHUNK scalars.
        m, k = a.shape
        n = b.shape[1]
        if m * k * n <= _CHUNK:
            return self.add.reduce(self.mul(a[:, :, None], b[None, :, :]),
                                   axis=1, initial=self.zero)
        out = np.zeros((m, n), dtype=self.dtype)
        nb = min(n, _CHUNK)
        kb = min(k, _CHUNK // nb)
        mb = _CHUNK // (kb * nb)
        for j in range(0, n, nb):
            for p in range(0, k, kb):
                right = b[None, p:p + kb, j:j + nb]
                for i in range(0, m, mb):
                    blk = out[i:i + mb, j:j + nb]
                    self.add(blk, self.add.reduce(
                        self.mul(a[i:i + mb, p:p + kb, None], right), axis=1),
                        out=blk)
        return out

    def close(self, a, b, rtol: float = 1e-9) -> bool:
        """Entrywise comparison: exact for boolean and fuzzy, relative for reals."""
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if self.name == "nonneg-real":
            return bool(np.allclose(a, b, rtol=rtol, atol=0.0))
        return bool(np.array_equal(a, b))


BOOLEAN = Semiring("boolean", np.dtype(bool), np.logical_or, np.logical_and)
NONNEG_REAL = Semiring("nonneg-real", np.dtype(np.float64), np.add, np.multiply)
FUZZY = Semiring("fuzzy-minmax", np.dtype(np.float64), np.maximum, np.minimum)

ALL_SEMIRINGS = (BOOLEAN, NONNEG_REAL, FUZZY)

_BY_NAME = {
    "boolean": BOOLEAN, "bool": BOOLEAN,
    "nonneg-real": NONNEG_REAL, "real": NONNEG_REAL,
    "fuzzy-minmax": FUZZY, "fuzzy": FUZZY,
}


def by_name(name: str) -> Semiring:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown semiring {name!r}") from None


def require_same(a: Semiring, b: Semiring) -> Semiring:
    if a.name != b.name:
        raise SemiringMismatch(f"mixed semirings {a.name} and {b.name}")
    return a
