"""Index-space kernels on G_n: the one place that turns indices into digits.

A polynomial sum g_j x^j of degree < n is the index sum g_j q^j, so G_n is
the index range [0, q^n) and G_m is the index prefix of G_n for m <= n.
Everything here works on int index arrays and the field's add/mul tables;
nothing builds Poly objects.  The kernels:

* `digit` / `digit_matrix`: base-q digits (= coefficients) of indices;
* `leading_coefficients`: the leading coefficient of every index of G_n;
* `times_fixed`: the indices of p*h for every h in G_m, in index order,
  the map behind the irreducible sieve, the Turan-Kubilius counts, the
  prime-power sieve of multiplicative functions and the Katai inner sums;
* `GnIndex`: additive-group arithmetic (g + h, c*g) on index arrays.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetError
from .fields import Field


def digit(idx, q: int, j: int):
    """The coefficient of x^j of every index in `idx`."""
    return (idx // q ** j) % q


def digit_matrix(q: int, m: int, idx=None) -> np.ndarray:
    """(len(idx), m) int16 coefficient rows of the indices `idx`
    (default: all of G_m, in index order; one empty row for G_0 = {0})."""
    if idx is None:
        idx = np.arange(q ** m, dtype=np.int64)
    out = np.empty((len(idx), m), dtype=np.int16)
    for j in range(m):
        out[:, j] = digit(idx, q, j)
    return out


def leading_coefficients(q: int, n: int) -> np.ndarray:
    """int16 leading coefficient of every index of G_n (0 at the index 0)."""
    out = np.zeros(q ** n, dtype=np.int16)
    for j in range(n):
        out[q ** j:q ** (j + 1)] = np.repeat(np.arange(1, q, dtype=np.int16), q ** j)
    return out


def times_fixed(field: Field, coeffs, m: int, digits: np.ndarray | None = None) -> np.ndarray:
    """int64 indices of p*h for every h in G_m, in index order of h.

    `coeffs` are the coefficients of p, lowest first.  `digits` replaces the
    cofactor rows (default `digit_matrix(q, m)`); callers multiplying many
    polynomials by the same cofactors build it once.
    """
    q = field.q
    if digits is None:
        digits = digit_matrix(q, m)
    rows, width = digits.shape
    out_width = width + len(coeffs) - 1
    prod = np.zeros((rows, out_width), dtype=np.int16)
    add_t, mul_t = field.add_table, field.mul_table
    for i, c in enumerate(coeffs):
        if c:
            seg = prod[:, i:i + width]
            prod[:, i:i + width] = add_t[seg, mul_t[c][digits]]
    # int32 while the indices fit: the widened digit matrix is the peak
    # memory of a large sieve step
    wide = np.int32 if q ** out_width < 2 ** 31 else np.int64
    return (prod.astype(wide) @ (q ** np.arange(out_width, dtype=wide))).astype(np.int64)


class GnIndex:
    """Vectorized additive-group arithmetic on G_n index arrays."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.size = field.q ** n
        if self.size > field.enumeration_budget:
            raise BudgetError(f"G_{n} over the enumeration budget")
        self._table = None

    def add(self, a, b):
        q = self.field.q
        add_t = self.field.add_table
        out = np.zeros(np.broadcast(a, b).shape, dtype=np.int64)
        for j in range(self.n):
            out += add_t[digit(a, q, j), digit(b, q, j)].astype(np.int64) * q ** j
        return out

    def smul(self, c: int, a):
        q = self.field.q
        mul_row = self.field.mul_table[c]
        out = np.zeros(np.shape(a), dtype=np.int64)
        for j in range(self.n):
            out += mul_row[digit(a, q, j)].astype(np.int64) * q ** j
        return out

    @property
    def table(self) -> np.ndarray:
        """Full addition table; only for small groups (shift rows for U^k)."""
        if self._table is None:
            if self.size > 4096:
                raise BudgetError(f"addition table for |G| = {self.size} too large")
            idx = np.arange(self.size, dtype=np.int64)
            self._table = self.add(idx[:, None], idx[None, :])
        return self._table
