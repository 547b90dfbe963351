"""Index-space kernels on G_n: the one place that turns indices into digits.

A polynomial sum g_j x^j of degree < n is the index sum g_j q^j, so G_n is
the index range [0, q^n) and G_m is the index prefix of G_n for m <= n.
Everything here works on int index arrays and the field's add/mul tables;
nothing builds Poly objects.  The kernels:

* `digit` / `digit_matrix`: base-q digits (= coefficients) of indices;
* `leading_coefficients`: the leading coefficient of every index of G_n;
* `times_fixed`: the indices of p*h for every h in G_m (or given rows of
  it) and every p of a stack of polynomials of one degree, the map behind
  the irreducible sieve, the Turan-Kubilius counts, the prime-power sieve
  of multiplicative functions, the Katai inner sums and `GnIndex.smul`;
* `GnIndex`: additive-group arithmetic (g + h, c*g) on index arrays.

`times_fixed` uses the base-p view of an index: field elements are encoded
by their F_p coordinates, so an index of G_m is a base-p number with r*m
digits and h -> p*h is F_p-linear on those digits.  Its memory is bounded
by the module constant CHUNK_ELEMENTS, whatever the size of G_m.
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


# the largest float64 block `times_fixed` holds at once (one table of digit
# images, one chunk of cofactor images): the kernel's memory bound for any G_m
CHUNK_ELEMENTS = 1 << 14


def times_fixed(field: Field, polys, m: int, cofactors=None) -> np.ndarray:
    """(k, rows) int64 indices of p*h for every p in `polys` and every cofactor h.

    `polys` is a stack of k polynomials of one degree, as rows of
    coefficients lowest first.  `cofactors` are indices of G_m, default all
    of G_m in index order.

    Field elements are encoded by their base-p coordinates, so an index of
    G_m is a base-p number with r*m digits, and h -> p*h is an F_p-linear
    map on those digits.  The images of the r*m basis vectors u^t x^j come
    from mul_table.  The digits of a cofactor are cut into a few parts;
    the images of every value of one part are tabulated by linearity, and
    the image of h is the sum of its parts' images.  Reduced mod p and
    dotted with the powers of p, that sum is the index of p*h.  Tables and
    chunks of cofactors hold at most CHUNK_ELEMENTS floats each, and all of
    it is exact: digit sums stay far below 2^53.
    """
    p, r = field.p, field.r
    polys = np.asarray(polys, dtype=np.intp)
    k, length = polys.shape
    width = max(m + length - 1, 1)      # coefficients of p*h
    cols = r * width                    # base-p digits of p*h
    if field.q ** width > 2 ** 53:
        raise BudgetError(f"products of {width} coefficients exceed exact float64 indices")
    if cofactors is None:
        cofactors = np.arange(field.q ** m, dtype=np.int64)
    # digits per part: about half of them, as far as a part's table fits
    per = 1
    while per < (r * m + 1) // 2 and p ** (per + 1) * cols <= CHUNK_ELEMENTS:
        per += 1
    split = p ** per
    powers = float(p) ** np.arange(cols)
    # coeff_images[t, k, i, s]: digit s of (coefficient i of p) * u^t
    codes = field.mul_table[polys[:, :, None], p ** np.arange(r)]
    coeff_images = digit(codes[..., None], p, np.arange(r)).transpose(2, 0, 1, 3)
    out = np.empty((k, len(cofactors)), dtype=np.int64)
    group = max(1, CHUNK_ELEMENTS // (split * cols))
    for g0 in range(0, k, group):
        kg = min(group, k - g0)
        # basis[j, t]: the digits of p * u^t x^j for the polynomials of the group
        basis = np.zeros((m, r, kg, width, r))
        for j in range(m):
            basis[j, :, :, j:j + length] = coeff_images[:, g0:g0 + kg]
        basis = basis.reshape(r * m, kg * cols)
        tables = [_images(basis[i:i + per], p) for i in range(0, max(r * m, 1), per)]
        step = max(1, CHUNK_ELEMENTS // (kg * cols))
        for c0 in range(0, len(cofactors), step):
            rest, part = np.divmod(cofactors[c0:c0 + step], split)
            images = tables[0][part]
            for table in tables[1:]:
                rest, part = np.divmod(rest, split)
                images += table[part]
            carry = images / p
            np.floor(carry, out=carry)
            carry *= p
            images -= carry                     # digit sums mod p
            out[g0:g0 + kg, c0:c0 + step] = (images.reshape(-1, kg, cols) @ powers).T
    return out


def _images(basis: np.ndarray, p: int) -> np.ndarray:
    """Digit sums of the images of every index in [0, p^len(basis)), index
    order, from the images `basis` of its digit vectors, by linearity."""
    images = np.zeros((1, basis.shape[1]))
    for row in basis:
        # index d*p^j + i, i < p^j, maps to d*row + images[i]
        images = (np.arange(p)[:, None, None] * row + images).reshape(-1, len(row))
    return images


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
        """c*g for every index g of `a`: the product by the degree-0 polynomial c."""
        a = np.asarray(a, dtype=np.int64)
        return times_fixed(self.field, [[c]], self.n, a.ravel())[0].reshape(a.shape)

    @property
    def table(self) -> np.ndarray:
        """Full addition table; only for small groups (shift rows for U^k)."""
        if self._table is None:
            if self.size > 4096:
                raise BudgetError(f"addition table for |G| = {self.size} too large")
            idx = np.arange(self.size, dtype=np.int64)
            self._table = self.add(idx[:, None], idx[None, :])
        return self._table
