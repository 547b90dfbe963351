"""Index-space kernels on G_n: the one place that turns indices into digits.

A polynomial sum g_j x^j of degree < n is the index sum g_j q^j, so G_n is
the index range [0, q^n) and G_m is the index prefix of G_n for m <= n.
Everything here works on int index arrays and the field's add/mul tables;
nothing builds Poly objects.  The kernels:

* `digit` / `digit_matrix`: base-q digits (= coefficients) of indices;
* `leading_coefficients`: the leading coefficient of every index of G_n;
  `degrees`: the degree of every index of an array;
* `times_fixed`: the indices of p*h for every h in G_m (or given rows of
  it) and every p of a stack of polynomials of one degree, the map behind
  the irreducible sieve, the Turan-Kubilius counts, the prime-power sieve
  of multiplicative functions, the Katai inner sums and `GnIndex.smul`;
* `residues`: the indices of h mod g for a fixed modulus g (Dirichlet
  characters);
* `top_codes`: the normalized top-s coefficients of every index as one
  code (short-interval characters);
* `GnIndex`: additive-group arithmetic (g + h, c*g) on index arrays.

`times_fixed` and `residues` share one engine, `_linear_map`, built on the
base-p view of an index: field elements are encoded by their F_p
coordinates, so an index of G_m is a base-p number with r*m digits, and
h -> p*h and h -> h mod g are F_p-linear on those digits.  In
characteristic 2 (any r) those digits are the bits of the index and adding
two indices is `^`, so the engine tabulates int64 image indices and
combines them with XOR.  For odd p the sum of two indices carries between
digits, with no integer form as cheap, so the engine keeps the base-p
digits of the images as floats, sums them and reduces the sums mod p.  Its
memory, and that of `top_codes`, is bounded by the module constant
CHUNK_ELEMENTS, whatever the size of G_m.
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


# the largest block the linear maps hold at once (one table of images, one
# chunk of cofactor images; int64 images in characteristic 2, float64 digits
# otherwise): the kernel's memory bound for any G_m
CHUNK_ELEMENTS = 1 << 14


def times_fixed(field: Field, polys, m: int, cofactors=None) -> np.ndarray:
    """(k, rows) int64 indices of p*h for every p in `polys` and every cofactor h.

    `polys` is a stack of k polynomials of one degree, as rows of
    coefficients lowest first.  `cofactors` are indices of G_m, default all
    of G_m in index order.  h -> p*h is F_p-linear on the base-p digits of
    h; the image of the basis vector u^t x^j is the index of p*u^t times q^j.
    """
    p, r, q = field.p, field.r, field.q
    polys = np.asarray(polys, dtype=np.intp)
    k, length = polys.shape
    width = max(m + length - 1, 1)      # coefficients of p*h
    if q ** width > 2 ** 53:
        raise BudgetError(f"products of {width} coefficients exceed exact float64 indices")
    # lows[i, t]: the index of (polynomial i) * u^t
    codes = field.mul_table[polys[:, :, None], p ** np.arange(r)].astype(np.int64)
    lows = np.einsum("ijt,j->it", codes, q ** np.arange(length, dtype=np.int64))
    images = q ** np.arange(m, dtype=np.int64)[:, None, None] * lows.T
    return _linear_map(field, images.reshape(r * m, k), width, cofactors)


def residues(field: Field, modulus, idx) -> np.ndarray:
    """int64 index of h mod g for every index h in `idx`, for the fixed
    modulus g given as coefficients lowest first: an F_p-linear map."""
    p, r, q = field.p, field.r, field.q
    idx = np.asarray(idx, dtype=np.int64)
    g = [int(c) for c in modulus]
    while g and g[-1] == 0:
        g.pop()
    if not g:
        raise ValueError("reduction modulo the zero polynomial")
    width = len(g) - 1
    if width == 0:
        return np.zeros(len(idx), dtype=np.int64)
    m, top = 0, int(idx.max()) if idx.size else 0
    while q ** m <= top:                # digits of the largest index
        m += 1
    # rows[j]: coefficients of x^j mod g, from x^(j+1) = x * x^j mod g
    add, mul, neg = field.add_py, field.mul_py, field.neg_py
    monic = [mul[c][field.inv_py[g[-1]]] for c in g]
    rows, row = [], [1] + [0] * (width - 1)
    for _ in range(m):
        rows.append(row)
        top = row[-1]
        row = [add[a][neg[mul[top][b]]] for a, b in zip([0] + row[:-1], monic)]
    # images[j, t]: the index of u^t * (x^j mod g)
    codes = field.mul_table[np.array(rows, dtype=np.intp).reshape(m, 1, width),
                            (p ** np.arange(r))[:, None]].astype(np.int64)
    images = codes @ q ** np.arange(width, dtype=np.int64)
    return _linear_map(field, images.reshape(r * m, 1), width, idx)[0]


def _linear_map(field: Field, images: np.ndarray, width: int, cofactors=None) -> np.ndarray:
    """(k, rows) int64 indices of A_i h for k F_p-linear maps A_i from G_m
    to G_width and every cofactor h (indices of G_m; default all of G_m, in
    index order).

    Field elements are encoded by their base-p coordinates, so an index of
    G_m is a base-p number with r*m digits.  `images` is the (r*m, k) int64
    array of the indices of A_i u^t x^j, row j*r + t, the images of those
    digits' basis vectors.  The digits of a cofactor are cut into a few
    parts; the images of every value of one part are tabulated by
    linearity, and the image of h is the sum of its parts' images.

    In characteristic 2 that sum is the XOR of int64 indices: a part is
    cut by shift and mask, and its table is built by doubling with ^.
    For odd p there is no such integer form, so a table holds the r*width
    base-p digits of each image as floats; the parts' digit sums are
    reduced mod p and dotted with the powers of p.  Either way tables and
    chunks of cofactors hold at most CHUNK_ELEMENTS numbers each, and all
    of it is exact: float digit sums stay far below 2^53.
    """
    p = field.p
    bits, k = images.shape
    if cofactors is None:
        cofactors = np.arange(p ** bits, dtype=np.int64)
    cols = 1 if p == 2 else field.r * width     # numbers per image
    # digits per part: about half of them, as far as a part's table fits
    per = 1
    while per < (bits + 1) // 2 and p ** (per + 1) * cols <= CHUNK_ELEMENTS:
        per += 1
    split = p ** per
    out = np.empty((k, len(cofactors)), dtype=np.int64)
    group = max(1, CHUNK_ELEMENTS // (split * cols))
    for g0 in range(0, k, group):
        kg = min(group, k - g0)
        step = max(1, CHUNK_ELEMENTS // (kg * cols))
        block = images[:, g0:g0 + kg]
        if p == 2:
            tables = [_xor_table(block[i:i + per]) for i in range(0, max(bits, 1), per)]
            for c0 in range(0, len(cofactors), step):
                chunk = cofactors[c0:c0 + step]
                acc = out[g0:g0 + kg, c0:c0 + step]
                np.take(tables[0], chunk & (split - 1), axis=1, out=acc)
                for i, table in enumerate(tables[1:], 1):
                    acc ^= np.take(table, (chunk >> (i * per)) & (split - 1), axis=1)
        else:
            digits = digit(block[..., None], p, np.arange(cols)).reshape(bits, kg * cols)
            tables = [_images(digits[i:i + per], p) for i in range(0, max(bits, 1), per)]
            powers = float(p) ** np.arange(cols)
            for c0 in range(0, len(cofactors), step):
                rest, part = np.divmod(cofactors[c0:c0 + step], split)
                sums = tables[0][part]
                for table in tables[1:]:
                    rest, part = np.divmod(rest, split)
                    sums += table[part]
                carry = sums / p
                np.floor(carry, out=carry)
                carry *= p
                sums -= carry                   # digit sums mod p
                out[g0:g0 + kg, c0:c0 + step] = (sums.reshape(-1, kg, cols) @ powers).T
    return out


def degrees(q: int, idx) -> np.ndarray:
    """int64 degree of every index in `idx` (-1 at the index 0)."""
    idx = np.asarray(idx, dtype=np.int64)
    top = int(idx.max()) if idx.size else 0
    bounds = [1]
    while bounds[-1] <= top:
        bounds.append(bounds[-1] * q)
    return np.searchsorted(np.array(bounds, dtype=np.int64), idx, side="right") - 1


def top_codes(field: Field, s: int, idx) -> np.ndarray:
    """int64 code a_1 + a_2 q + ... + a_s q^(s-1) of the normalized top
    coefficients (a_1, ..., a_s) = (g_{d-1}/g_d, ..., g_{d-s}/g_d),
    zero-padded below x^0, of every nonzero index g in `idx`; 0 at the
    index 0.  Chunks of at most CHUNK_ELEMENTS indices at a time."""
    q = field.q
    idx = np.asarray(idx, dtype=np.int64)
    out = np.zeros(len(idx), dtype=np.int64)
    for c0 in range(0, len(idx), CHUNK_ELEMENTS):
        h = idx[c0:c0 + CHUNK_ELEMENTS]
        deg = degrees(q, h)
        place = q ** np.maximum(deg, 0)
        inv = field.inv_table[h // place]
        code = out[c0:c0 + CHUNK_ELEMENTS]
        for j in range(1, s + 1):
            coeff = np.where(deg >= j, (h // np.maximum(place // q ** j, 1)) % q, 0)
            code += field.mul_table[coeff, inv].astype(np.int64) * q ** (j - 1)
    return out


def _images(basis: np.ndarray, p: int) -> np.ndarray:
    """Digit sums of the images of every index in [0, p^len(basis)), index
    order, from the images `basis` of its digit vectors, by linearity."""
    images = np.zeros((1, basis.shape[1]))
    for row in basis:
        # index d*p^j + i, i < p^j, maps to d*row + images[i]
        images = (np.arange(p)[:, None, None] * row + images).reshape(-1, len(row))
    return images


def _xor_table(rows: np.ndarray) -> np.ndarray:
    """(k, 2^len(rows)) images of every index in [0, 2^len(rows)), index
    order, from the (len(rows), k) int64 images of its bits, by doubling
    with ^."""
    table = np.zeros((rows.shape[1], 1), dtype=np.int64)
    for row in rows:
        # index 2^j + i, i < 2^j, maps to row ^ table[:, i]
        table = np.concatenate([table, table ^ row[:, None]], axis=1)
    return table


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
