"""Index-space kernels on G_n: the one place that turns indices into digits.

A polynomial sum g_j x^j of degree < n is the index sum g_j q^j, so G_n is
the index range [0, q^n) and G_m is the index prefix of G_n for m <= n.
Everything here works on int index arrays and the field's add/mul tables;
nothing builds Poly objects.  The kernels:

* `digit` / `digit_matrix`: base-q digits (= coefficients) of indices;
* `leading_coefficients`: the leading coefficient of every index of G_n;
  `degrees`: the degree of every index of an array;
* `times_fixed`: the indices of p*h for every h in G_m (or a range or
  given rows of it) and every p of a stack of polynomials of one degree,
  the map behind the irreducible sieve, the Turan-Kubilius counts, the
  prime-power sieve of multiplicative functions, the Katai inner sums and
  `GnIndex.smul`;
* `residues`: the indices of h mod g for a fixed modulus g (Dirichlet
  characters);
* `top_codes`: the normalized top-s coefficients of every index as one
  code (short-interval characters);
* `GnIndex`: additive-group arithmetic (g + h, c*g) on index arrays.

`times_fixed` and `residues` share one engine, `_linear_map`, built on the
base-p view of an index: field elements are encoded by their F_p
coordinates, so an index of G_m is a base-p number with r*m digits, and
h -> p*h and h -> h mod g are F_p-linear on those digits.  The engine holds
an image with each base-p digit in its own b-bit lane of an int64, sums
tabulated images of a cofactor's digit parts as plain integers (b wide
enough that no lane overflows) and decodes the sums to indices through
small lookup tables that reduce each lane mod p.  In characteristic 2 (any
r) the lanes are the index's own bits, the sum is XOR and nothing needs
decoding.  Cofactors come as an index array or as a contiguous range of
G_m (every caller's case but `residues` and `GnIndex.smul`); a range is
mapped as an outer sum, the images of its high digit parts against the
whole table of its lowest part, with no index array built.  All of it is
int64 arithmetic, exact for every index int64 holds.  Its memory, and
that of `top_codes`, is bounded by the module constant CHUNK_ELEMENTS,
whatever the size of G_m.
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


# the largest block the linear maps hold at once (one table of packed
# images, one decode table, one chunk of cofactor images): the kernel's
# memory bound for any G_m
CHUNK_ELEMENTS = 1 << 14


def times_fixed(field: Field, polys, m: int, cofactors=None) -> np.ndarray:
    """(k, rows) int64 indices of p*h for every p in `polys` and every cofactor h.

    `polys` is a stack of k polynomials of one degree, as rows of
    coefficients lowest first.  `cofactors` are indices of G_m: an int64
    array, or a `range` of step 1 such as the monic block
    range(q^(m-1), 2 q^(m-1)), which the engine maps as an outer sum;
    default range(q^m), all of G_m in index order.  h -> p*h is F_p-linear
    on the base-p digits of h; the image of the basis vector u^t x^j is the
    index of p*u^t times q^j.
    """
    p, r, q = field.p, field.r, field.q
    polys = np.asarray(polys, dtype=np.intp)
    k, length = polys.shape
    width = max(m + length - 1, 1)      # coefficients of p*h
    if q ** width > 2 ** 63:
        raise BudgetError(f"products of {width} coefficients exceed int64 indices")
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
    to G_width and every cofactor h: an int64 index array, or a `range` of
    step 1 (default: range(q^m), all of G_m in index order).

    Field elements are encoded by their base-p coordinates, so an index of
    G_m is a base-p number with r*m digits.  `images` is the (r*m, k) int64
    array of the indices of A_i u^t x^j, row j*r + t, the images of those
    digits' basis vectors.  The digits of a cofactor are cut into a few
    parts; the images of every value of one part are tabulated by
    linearity, and the image of h is the sum of its parts' images.  A range
    is mapped as an outer sum: the cofactor hi*split + lo, lo below the
    first part's size split, maps to image(hi*split) + table0[lo], so a
    chunk of the range is one broadcast of the images of its consecutive
    high values (cut and taken like an array) against the whole first
    table.

    An image is held packed: each of its r*width base-p digits sits in its
    own b-bit lane of an int64, reduced mod p in the tables.  The parts'
    entries are added as plain integers, with b wide enough that no lane
    overflows, and the sum is decoded back to a base-p index by lookup
    tables, each of which reduces a few lanes mod p and weights them by
    their powers of p.  In characteristic 2 the lanes are the bits of the
    index itself (b = 1), the sum is XOR and there is nothing to decode.
    An image wider than one int64 of lanes is mapped in slices of its
    digits that each fit, added back with their powers of p.  Tables,
    decode tables and chunks of cofactor images hold at most
    CHUNK_ELEMENTS int64 each (a table of one digit, p entries, or a
    decode table of one lane, 2^b entries, where that alone is more).
    """
    p = field.p
    bits, k = images.shape
    if cofactors is None:
        cofactors = range(p ** bits)
    elif isinstance(cofactors, range):
        first, stop = cofactors.start, cofactors.stop
        if cofactors.step != 1 or (first < stop and not (0 <= first and stop <= p ** bits)):
            raise ValueError("a range of cofactors must have step 1 and lie in G_m")
    # digits per part: about half of them, as far as a part's table fits
    per = 1
    while per < (bits + 1) // 2 and p ** (per + 1) <= CHUNK_ELEMENTS:
        per += 1
    split, parts = p ** per, -(-max(bits, 1) // per)
    # lane width: a lane holds the sum of `parts` digits (of two in _table)
    b = 1 if p == 2 else (max(parts, 2) * (p - 1)).bit_length()
    digits, lanes = field.r * width, 63 // b
    combine = np.bitwise_xor if p == 2 else np.add
    out = np.empty((k, len(cofactors)), dtype=np.int64)
    group = max(1, CHUNK_ELEMENTS // split)
    for lo in range(0, digits, lanes):
        count = min(lanes, digits - lo)
        packed = _pack(images, p, b, lo, count)
        decode = _decoders(p, b, lo, count)
        for g0 in range(0, k, group):
            kg = min(group, k - g0)
            step = max(1, CHUNK_ELEMENTS // kg)
            tables = [_table(packed[i:i + per, g0:g0 + kg], p, b)
                      for i in range(0, max(bits, 1), per)]
            for c0, acc in _chunks(tables, cofactors, step, p, per, combine):
                block = out[g0:g0 + kg, c0:c0 + acc.shape[1]]
                if lo:
                    block += _decode(acc, decode)
                else:
                    block[...] = _decode(acc, decode)
    return out


def _chunks(tables: list, cofactors, step: int, p: int, per: int, combine):
    """(first column, packed images) of the cofactors, a chunk of at most
    max(step, split) columns at a time, split the first part's table size:
    an index array by cutting every cofactor into its parts, a range as the
    outer sum of the images of its high values and the first part's
    table."""
    if not isinstance(cofactors, range):
        for c0 in range(0, len(cofactors), step):
            yield c0, _gather(tables, cofactors[c0:c0 + step], p, per, combine)
        return
    if not cofactors:
        return
    start, stop = cofactors.start, cofactors.stop
    k, split = tables[0].shape
    rows, last = max(1, step // split), -(-stop // split)     # high values per chunk
    for h0 in range(start // split, last, rows):
        highs = np.arange(h0, min(h0 + rows, last), dtype=np.int64)
        # the images of hi*split, the high parts' sums (0 if there are none)
        high = (_gather(tables[1:], highs, p, per, combine) if len(tables) > 1
                else np.zeros((k, 1), dtype=np.int64))
        acc = combine(high[:, :, None], tables[0][:, None, :]).reshape(k, -1)
        c0, c1 = max(start, h0 * split), min(stop, (h0 + len(highs)) * split)
        yield c0 - start, acc[:, c0 - h0 * split:c1 - h0 * split]


def _gather(tables: list, values: np.ndarray, p: int, per: int, combine) -> np.ndarray:
    """Packed images of the int64 indices `values`: the sum of their parts'
    table entries."""
    cut = _cut(values, p, per, len(tables))
    acc = np.take(tables[0], cut[0], axis=1)
    for table, part in zip(tables[1:], cut[1:]):
        combine(acc, np.take(table, part, axis=1), out=acc)
    return acc


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


def _cut(rest: np.ndarray, p: int, per: int, count: int) -> list:
    """The `count` parts of `per` base-p digits each of the int64 indices
    `rest` (all of whose digits they cover), lowest first: by shift and
    mask in characteristic 2, else by floor division alone (in numpy much
    cheaper than %)."""
    parts = []
    for _ in range(count - 1):
        if p == 2:
            parts.append(rest & ((1 << per) - 1))
            rest = rest >> per
        else:
            high = rest // p ** per
            parts.append(rest - high * p ** per)
            rest = high
    return parts + [rest]


def _pack(images: np.ndarray, p: int, b: int, lo: int, count: int) -> np.ndarray:
    """The base-p digits lo .. lo+count-1 of the indices `images`, digit
    lo + l in the b-bit lane l of an int64."""
    if b == 1:                          # p = 2: the digits are the bits
        return (images >> lo) & ((1 << count) - 1)
    packed, rest = np.zeros_like(images), images // p ** lo
    for lane in range(count):
        high = rest // p
        packed |= (rest - high * p) << (b * lane)
        rest = high
    return packed


def _table(rows: np.ndarray, p: int, b: int) -> np.ndarray:
    """(k, p^len(rows)) packed images of every index in [0, p^len(rows)),
    index order, from the (len(rows), k) packed images of its digits'
    basis vectors, by linearity."""
    ones = ((1 << (b * (63 // b))) - 1) // ((1 << b) - 1)     # 1 in every lane
    bias = ((1 << (b - 1)) - p) * ones
    table = np.zeros((rows.shape[1], 1), dtype=np.int64)
    for row in rows:
        # index d*p^j + i, i < p^j, maps to d*row + table[:, i], added digit
        # by digit mod p: by XOR in characteristic 2; else a lane holds
        # s <= 2p - 2 < 2^b, and s + 2^(b-1) - p (< 2^b) has the lane's top
        # bit set exactly where s >= p
        blocks = [table]
        for _ in range(1, p):
            if p == 2:
                blocks.append(table ^ row[:, None])
                continue
            s = blocks[-1] + row[:, None]
            s -= ((s + bias) >> (b - 1) & ones) * p
            blocks.append(s)
        table = np.concatenate(blocks, axis=1)
    return table


def _decoders(p: int, b: int, lo: int, count: int) -> list:
    """(shift, table) pairs that turn a sum S of packed images, its lanes
    the digits lo .. lo+count-1, into their index: the sum over the pairs
    of table[(S >> shift) & (len(table) - 1)].  A table covers as many
    lanes as fit in CHUNK_ELEMENTS entries, reduces each lane mod p and
    weights it by its power of p.  No tables in characteristic 2, where S
    is the index."""
    if p == 2:
        return []
    per = min(count, max(1, (CHUNK_ELEMENTS.bit_length() - 1) // b))     # lanes per table
    lane_mod = np.arange(1 << b, dtype=np.int64) % p    # a lane's value mod p
    base = np.zeros(1, dtype=np.int64)  # the index of `per` lanes, by lanes
    for lane in range(per):
        # lane value v followed by lower lanes i: v mod p times p^lane + base[i]
        base = (lane_mod[:, None] * p ** lane + base).ravel()
    # a table of fewer lanes is a prefix of the base
    return [(b * first, base[:1 << (b * min(per, count - first))] * p ** (lo + first))
            for first in range(0, count, per)]


def _decode(packed: np.ndarray, decode: list) -> np.ndarray:
    """The indices of the packed sums `packed` by the `_decoders` tables
    `decode` (the sums themselves when there are none)."""
    if not decode:
        return packed
    index = np.take(decode[0][1], packed & (len(decode[0][1]) - 1))
    for shift, table in decode[1:]:
        index += np.take(table, (packed >> shift) & (len(table) - 1))
    return index


class GnIndex:
    """Vectorized additive-group arithmetic on G_n index arrays."""

    def __init__(self, field: Field, n: int):
        self.field = field
        self.n = n
        self.size = field.q ** n
        field.charge(self.size, f"G_{n}")

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
