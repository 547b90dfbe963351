"""Index-space kernels on G_n: the one place that turns indices into digits.

A polynomial sum g_j x^j of degree < n is the index sum g_j q^j, so G_n is
the index range [0, q^n) and G_m is the index prefix of G_n for m <= n.
Everything here works on int index arrays and the field's add/mul tables;
nothing builds Poly objects.  The kernels:

* `digit` / `digit_matrix`: base-q digits (= coefficients) of indices;
* `degrees`: the degree of every index of an array;
* `times_fixed`: the indices of p*h for every h in G_m (or ranges or
  given rows of it) and every p of an int64 index array of polynomials of
  one degree, as one block, for the Katai inner sums and `GnIndex.smul`;
  `times_fixed_chunks`: the same products a chunk at a time, for the
  irreducible sieve, the sieve of `function_on_gn` and the
  Turan-Kubilius counts, which consume each chunk and never hold the
  block;
* `residues`: the indices of h mod g for a fixed modulus g (Dirichlet
  characters);
* `top_codes`: the normalized top-s coefficients of every index as one
  code (short-interval characters);
* `GnIndex`: additive-group arithmetic (g + h, c*g) on index arrays.

`times_fixed`, `times_fixed_chunks` and `residues` share one engine,
`_map_chunks`, built on the base-p view of an index: field elements are
encoded by their F_p coordinates, so an index of G_m is a base-p number
with r*m digits, and h -> p*h and h -> h mod g are F_p-linear on those
digits.  The images of the basis vectors of a product map are outer
products of the polynomials' indices and powers of q (for r > 1, of the
indices of u^t*p), so no call cuts its polynomials into coefficients.
The engine holds an image with each base-p digit in its own b-bit
lane of an int64, sums tabulated images of a cofactor's digit parts as
plain integers (b wide enough that no lane overflows) and decodes the sums
to indices through small lookup tables that reduce each lane mod p.  A
part whose basis images are the first part's shifted by whole lanes takes
the first part's table shifted alike, so a product map whose images fit
in one int64 of lanes builds one table per group of rows (for r > 1,
where its parts hold whole coefficients).  In
characteristic 2 (any r) the lanes are the index's own bits, the sum is
XOR and nothing needs decoding.  Cofactors come as an index array, or as
contiguous ranges of G_m, one or a tuple mapped one after another (every
caller's case but `residues` and `GnIndex.smul`); a range is mapped as an
outer sum, the images of its high digit parts against the whole table of
its lowest part, with no index array built.  An array decodes every digit
of every sum.  A range in odd characteristic decodes per element only the
overlap, the digits that the images of both its lowest part and its high
parts reach (d of them for the product by a polynomial of degree d over
F_p); the digits below are decoded once per entry of the lowest part's
table, those above once per high value.  All of it is int64 arithmetic,
exact for every index int64 holds.  The engine yields its products in
chunks, each a fresh int64 array with every digit slice summed;
`_linear_map` collects them into one block, the consumers of
`times_fixed_chunks` scatter them.  Its memory per digit slice of the
images (one slice unless an image has more base-p digits than an int64
has lanes), and that of `top_codes`, is bounded by the module constant
CHUNK_ELEMENTS, whatever the size of G_m.  The decode tables are cached
per (p, lane width, first digit, lanes, CHUNK_ELEMENTS) and the packing
table per (p, lane width, CHUNK_ELEMENTS), each built on first use.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import BudgetError
from .fields import Field


def digit(idx, q: int, j: int):
    """The coefficient of x^j of every index in `idx`."""
    return (idx // q ** j) % q


def digit_matrix(q: int, m: int, idx) -> np.ndarray:
    """(len(idx), m) int16 coefficient rows of the indices `idx`."""
    out = np.empty((len(idx), m), dtype=np.int16)
    for j in range(m):
        out[:, j] = digit(idx, q, j)
    return out


# the largest block the linear maps hold at once per digit slice (one
# table of packed images, one decode table, one chunk of cofactor images):
# the kernel's memory bound for any G_m
CHUNK_ELEMENTS = 1 << 14


def times_fixed(field: Field, polys, m: int, cofactors=None) -> np.ndarray:
    """(k, rows) int64 indices of p*h for every p in `polys` and every cofactor h.

    `polys` is the int64 index array of k polynomials, as every caller
    holds its primes, of one degree d (the products are taken to m + d
    coefficients, d the degree of the largest).  `cofactors` are indices
    of G_m: an int64 array, or a `range` of step 1 such as the monic block
    range(q^(m-1), 2 q^(m-1)), which the engine maps as an outer sum, or a
    tuple of such ranges, whose columns follow one another; default
    range(q^m), all of G_m in index order.  h -> p*h is F_p-linear on the
    base-p digits of h; the image of the basis vector u^t x^j is the index
    of p*u^t times q^j.
    """
    return _linear_map(field, *_product_images(field, polys, m), cofactors)


def times_fixed_chunks(field: Field, polys, m: int, cofactors=None):
    """The products of `times_fixed`, a chunk at a time: (row0, col0, idx)
    with idx the block [row0:row0 + len(idx), col0:col0 + idx.shape[1]] of
    times_fixed(field, polys, m, cofactors), a fresh int64 array of at most
    max(CHUNK_ELEMENTS, p) entries that the consumer may overwrite.  A
    chunk lies in one range of a tuple of cofactors.  Column 0 of a group
    of rows comes only in its chunk with col0 == 0."""
    return _map_chunks(field, *_product_images(field, polys, m), cofactors)


def _product_images(field: Field, polys, m: int) -> tuple:
    """(images, width) of the maps h -> p*h from G_m, p in `polys` (int64
    indices), for the engine: the images of the basis vectors u^t x^j, row
    j*r + t, the index of u^t*p times q^j.  Over a prime field that is the
    outer product q^j * p; for r > 1 the index of u^t*p is read first from
    the field's multiplication table, a coefficient at a time."""
    p, r, q = field.p, field.r, field.q
    polys = np.asarray(polys, dtype=np.int64).reshape(-1)
    length, top = 1, int(polys.max(initial=0))
    while q ** length <= top:           # coefficients of the widest p
        length += 1
    width = max(m + length - 1, 1)      # coefficients of p*h
    if q ** width > 2 ** 63:
        raise BudgetError(f"products of {width} coefficients exceed int64 indices")
    lows = polys[None, :]               # lows[t]: the indices of u^t * p
    if r > 1:
        powers = q ** np.arange(length, dtype=np.int64)
        codes = field.mul_table[polys // powers[:, None] % q, p ** np.arange(r)[:, None, None]]
        lows = powers @ codes.astype(np.int64)
    images = q ** np.arange(m, dtype=np.int64)[:, None, None] * lows
    return images.reshape(r * m, len(polys)), width


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
    to G_width and every cofactor h: the chunks of `_map_chunks` collected
    into one block."""
    cofactors = _cofactors(cofactors, field.p ** images.shape[0])
    columns = sum(map(len, cofactors)) if isinstance(cofactors, tuple) else len(cofactors)
    out = np.empty((images.shape[1], columns), dtype=np.int64)
    for row0, col0, idx in _map_chunks(field, images, width, cofactors):
        out[row0:row0 + idx.shape[0], col0:col0 + idx.shape[1]] = idx
    return out


def _cofactors(cofactors, size: int):
    """The cofactors of a map from G_m, |G_m| = size: an index array as
    given, else a tuple of ranges, each checked to have step 1 and lie in
    G_m, with the empty ones dropped and consecutive ones joined (a range
    is the tuple of one, None that of range(size))."""
    if cofactors is None:
        return (range(size),)
    if isinstance(cofactors, range):
        cofactors = (cofactors,)
    elif not isinstance(cofactors, tuple):
        return cofactors
    joined = []
    for rows in cofactors:
        first, stop = rows.start, rows.stop
        if rows.step != 1 or (first < stop and not (0 <= first and stop <= size)):
            raise ValueError("a range of cofactors must have step 1 and lie in G_m")
        if joined and first == joined[-1].stop:
            joined[-1] = range(joined[-1].start, stop)
        elif first < stop:
            joined.append(rows)
    return tuple(joined)


def _map_chunks(field: Field, images: np.ndarray, width: int, cofactors=None):
    """(row0, col0, idx) chunks of the int64 indices A_i h, i from row0 and
    h from column col0 on, for k F_p-linear maps A_i from G_m to G_width
    and every cofactor h: an int64 index array, or a `range` of step 1 or
    a tuple of them, mapped one after another (default: range(q^m), all of
    G_m in index order).  Every chunk is a fresh array and lies in one
    range.

    Field elements are encoded by their base-p coordinates, so an index of
    G_m is a base-p number with r*m digits.  `images` is the (r*m, k) int64
    array of the indices of A_i u^t x^j, row j*r + t, the images of those
    digits' basis vectors.  The digits of a cofactor are cut into a few
    parts; the images of every value of one part are tabulated by
    linearity, and the image of h is the sum of its parts' images.  The
    tables are built per group of maps (`_tables`): a part whose packed
    basis images are the first part's shifted up by whole lanes, as is
    every part of a product map in one slice cut on whole coefficients,
    takes the first part's table shifted alike, and only the other parts
    build their own.  A range is mapped as an outer sum: the cofactor
    hi*split + lo, lo below the first part's size split, maps to
    image(hi*split) + table0[lo], so a chunk of the range is one broadcast
    of the images of its consecutive high values (cut and taken like an
    array) against the whole first table.

    An image is held packed: each of its r*width base-p digits sits in its
    own b-bit lane of an int64, reduced mod p in the tables.  The parts'
    entries are added as plain integers, with b wide enough that no lane
    overflows, and the sum is decoded back to a base-p index by lookup
    tables, each of which reduces a few lanes mod p and weights them by
    their powers of p.  In characteristic 2 the lanes are the bits of the
    index itself (b = 1), the sum is XOR and there is nothing to decode.
    An index array decodes every digit of every sum.  A range in odd
    characteristic sums and decodes per element only the overlap: the
    digits [lo, hi) that the images of both the first part and the high
    parts reach, d digits for the product by a polynomial of degree d when
    r = 1.  Below lo a digit of the image of h is that of table0[lo] alone,
    decoded once per table entry; from hi up it is that of image(hi*split)
    alone, decoded once per high value.  So an element pays the packed
    sum, the overlap's lookups and two broadcast adds.

    An image wider than one int64 of lanes is mapped in slices of its
    digits that each fit; a group of maps holds the tables of all its
    slices, and each index is the sum of its slices' decoded indices.  Per
    slice, tables, decode tables and chunks of cofactor images hold at most
    CHUNK_ELEMENTS int64 each (a table of one digit, p entries, or a decode
    table of one lane, 2^b entries, where that alone is more).
    """
    p = field.p
    bits, k = images.shape
    cofactors = _cofactors(cofactors, p ** bits)
    # digits per part: about half of them, as far as a part's table fits
    per = 1
    while per < (bits + 1) // 2 and p ** (per + 1) <= CHUNK_ELEMENTS:
        per += 1
    split, parts = p ** per, -(-max(bits, 1) // per)
    # lane width: a lane holds the sum of `parts` digits (of two in _table)
    b = 1 if p == 2 else (max(parts, 2) * (p - 1)).bit_length()
    digits, lanes = field.r * width, 63 // b
    ranges = isinstance(cofactors, tuple)
    lo, hi = _overlap(images, p, per, digits) if ranges and p > 2 else (0, digits)
    slices = [_pack(images, p, b, first, min(lanes, digits - first))
              for first in range(0, digits, lanes)]
    if p == 2:                          # one slice, its lanes the index's bits
        below, summed, above = (), ((0, 0, None, ()),), ()
    else:
        below, summed, above = _reads(p, b, digits, lo, hi)
    group = max(1, CHUNK_ELEMENTS // split)
    for row0 in range(0, k, group):
        rows = slice(row0, min(row0 + group, k))
        step = max(1, CHUNK_ELEMENTS // (rows.stop - row0))
        # tables[i][s]: the table of part i in slice s
        tables = [list(parts) for parts in zip(*(_tables(packed[:, rows], p, b, per)
                                                for packed in slices))]
        if not ranges:
            for c0, idx in _chunks(tables, cofactors, step, p, per, summed):
                yield row0, c0, idx
            continue
        low = None
        if below or above:
            # the first part's indices of the digits below lo, once per
            # entry, and its tables read to the summed lanes
            first = list(tables[0])
            for s, shift, mask, decode in below:
                low = _sum(low, _decode(_read(first[s], shift, mask), decode))
            for s, shift, mask, _ in summed:
                first[s] = _read(first[s], shift, mask)
            tables = [first] + tables[1:]
        col0 = 0
        for cols in cofactors:
            for c0, idx in _chunks(tables, cols, step, p, per, summed, above, low):
                yield row0, col0 + c0, idx
            col0 += len(cols)


def _overlap(images: np.ndarray, p: int, per: int, digits: int) -> tuple:
    """(lo, hi), 0 <= lo < hi <= digits: the images of the first part's
    values (the rows of `images` below `per`) have no digit from hi up,
    those of the high parts' values none below lo (the p-adic valuation of
    the gcd of their basis images)."""
    top, reach = int(images[:per].max(initial=0)), 0
    while p ** reach <= top:
        reach += 1
    common, start = int(np.gcd.reduce(images[per:], axis=None)), digits
    if common:
        start = 0
        while common % p == 0:
            common, start = common // p, start + 1
    lo = min(start, digits - 1)
    return lo, max(reach, lo + 1)


def _reads(p: int, b: int, digits: int, lo: int, hi: int) -> tuple:
    """The reads (slice, shift, mask, decode tables) of the digits below, in
    and above [lo, hi) from the packed sums of `digits` base-p digits in
    b-bit lanes, cut into slices of as many lanes as an int64 holds: shift
    and mask (None for no mask: the slice has no lane above) bring the
    lanes of a slice's digits in the range to the bottom alone, and the
    `_decoders` decode them."""
    lanes, reads = 63 // b, ([], [], [])
    for s, first in enumerate(range(0, digits, lanes)):
        stop = min(first + lanes, digits)
        cuts = (first, min(max(lo, first), stop), min(max(hi, first), stop), stop)
        for region, a, c in zip(reads, cuts, cuts[1:]):
            if a < c:
                region.append((s, b * (a - first), (1 << b * (c - a)) - 1 if c < stop else None,
                               _decoders(p, b, a, c - a, CHUNK_ELEMENTS)))
    return reads


def _read(packed: np.ndarray, shift: int, mask) -> np.ndarray:
    """(packed >> shift) & mask, either step left out where it does nothing."""
    if shift:
        packed = packed >> shift
    return packed if mask is None else packed & mask


def _chunks(tables: list, cofactors, step: int, p: int, per: int, summed: list,
            above=(), low=None):
    """(first column, indices) of the cofactors, a chunk of at most
    max(step, split) columns at a time, split the first part's table size.

    tables[i][s] holds the packed images of the values of part i in slice
    s of the digits.  `summed` reads (slice, shift, mask, decode tables)
    the digits summed per element.  An index array is cut into its parts,
    and every digit is summed.  A range is the outer sum of the images of
    its high values and the first part's table (read to the summed lanes);
    the digits that `above` reads are decoded once per high value, and
    `low` (None for none) holds the first part's indices of the digits
    below."""
    combine = np.bitwise_xor if p == 2 else np.add
    if not isinstance(cofactors, range):
        for c0 in range(0, len(cofactors), step):
            sums = _gather(tables, _cut(cofactors[c0:c0 + step], p, per, len(tables)), combine)
            idx = None
            for s, _, _, decode in summed:
                idx = _sum(idx, _decode(sums[s], decode))
            yield c0, idx
        return
    start, stop = cofactors.start, cofactors.stop
    k, split = tables[0][0].shape
    rows, last = max(1, step // split), -(-stop // split)     # high values per chunk
    for h0 in range(start // split, last, rows):
        highs = np.arange(h0, min(h0 + rows, last), dtype=np.int64)
        # the images of hi*split, the high parts' sums (0 if there are none)
        sums = (_gather(tables[1:], _cut(highs, p, per, len(tables) - 1), combine)
                if len(tables) > 1 else [np.zeros((k, 1), dtype=np.int64)] * len(tables[0]))
        idx = None
        for s, shift, mask, decode in summed:
            acc = combine(_read(sums[s], shift, mask)[:, :, None], tables[0][s][:, None, :])
            idx = _sum(idx, _decode(acc.reshape(k, -1), decode))
        # the digits outside the summed ones, by high value and by lo
        high = None
        for s, shift, mask, decode in above:
            high = _sum(high, _decode(_read(sums[s], shift, mask), decode))
        if high is not None or low is not None:
            grid = idx.reshape(k, -1, split)        # a view: (k, high value, lo)
            if high is not None:
                grid += high[:, :, None]
            if low is not None:
                grid += low[:, None, :]
        c0, c1 = max(start, h0 * split), min(stop, (h0 + len(highs)) * split)
        yield c0 - start, idx[:, c0 - h0 * split:c1 - h0 * split]


def _gather(tables: list, cut: list, combine) -> list:
    """Per slice, the packed images of the values whose parts are `cut`:
    the sum of their parts' table entries."""
    sums = []
    for s, table0 in enumerate(tables[0]):
        acc = table0.take(cut[0], axis=1)
        for table, part in zip(tables[1:], cut[1:]):
            combine(acc, table[s].take(part, axis=1), out=acc)
        sums.append(acc)
    return sums


def _sum(index, part: np.ndarray) -> np.ndarray:
    """index + part, in place in index, or part where index is None."""
    if index is None:
        return part
    index += part
    return index


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
    lo + l in the b-bit lane l of an int64: a few digits at a time, by the
    `_encoder` table."""
    if b == 1:                          # p = 2: the digits are the bits
        return (images >> lo) & ((1 << count) - 1)
    per, encode = _encoder(p, b, CHUNK_ELEMENTS)
    packed, rest = np.zeros_like(images), images // p ** lo
    for lane in range(0, count, per):
        high = rest // p ** min(per, count - lane)
        packed |= encode[rest - high * p ** min(per, count - lane)] << (b * lane)
        rest = high
    return packed


@functools.lru_cache(maxsize=16)
def _encoder(p: int, b: int, chunk: int) -> tuple:
    """(digits, table): table[v] holds the base-p digits of v < p^digits,
    digit l in the b-bit lane l, for as many digits as fit in `chunk` (the
    engine's CHUNK_ELEMENTS) entries, at least one.  Cached, read-only."""
    digits = 1
    while p ** (digits + 1) <= chunk:
        digits += 1
    values, table = np.arange(p ** digits, dtype=np.int64), np.zeros(p ** digits, dtype=np.int64)
    for lane in range(digits):
        table |= values // p ** lane % p << (b * lane)
    table.flags.writeable = False
    return digits, table


def _tables(packed: np.ndarray, p: int, b: int, per: int) -> list:
    """The `_table` of every part of `per` rows of the packed basis images
    `packed` (one part for no rows).  A part whose rows are those of the
    first part shifted up by whole lanes, with no lane pushed out of the
    int64, takes the first part's table shifted alike (its prefix, for a
    shorter last part).  Every part of a product map whose images fit in
    one slice is such a shift when the parts hold whole coefficients (r
    divides `per`): part i's basis images are the first part's times
    p^(i*per)."""
    first = _table(packed[:per], p, b)
    tables = [first]
    for i in range(per, len(packed), per):
        rows = packed[i:i + per]
        base, shift = packed[:len(rows)], b * i
        if (shift < 63 and np.array_equal(rows >> shift, base)
                and np.array_equal(base << shift, rows)):
            tables.append(first[:, :p ** len(rows)] << shift)
        else:
            tables.append(_table(rows, p, b))
    return tables


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


@functools.lru_cache(maxsize=64)
def _decoders(p: int, b: int, lo: int, count: int, chunk: int) -> list:
    """(shift, table) pairs that turn a sum S of packed images, its lanes
    the digits lo .. lo+count-1, into their index: the sum over the pairs
    of table[(S >> shift) & (len(table) - 1)].  A table covers as many
    lanes as fit in `chunk` (the engine's CHUNK_ELEMENTS) entries, reduces
    each lane mod p and weights it by its power of p.  No tables in
    characteristic 2, where S is the index.  Cached, so the read-only
    tables are shared by every call with the same arguments."""
    if p == 2:
        return []
    per = min(count, max(1, (chunk.bit_length() - 1) // b))     # lanes per table
    lane_mod = np.arange(1 << b, dtype=np.int64) % p    # a lane's value mod p
    base = np.zeros(1, dtype=np.int64)  # the index of `per` lanes, by lanes
    for lane in range(per):
        # lane value v followed by lower lanes i: v mod p times p^lane + base[i]
        base = (lane_mod[:, None] * p ** lane + base).ravel()
    # a table of fewer lanes is a prefix of the base
    tables = [(b * first, base[:1 << (b * min(per, count - first))] * p ** (lo + first))
              for first in range(0, count, per)]
    for _, table in tables:
        table.flags.writeable = False
    return tables


def _decode(packed: np.ndarray, decode: list) -> np.ndarray:
    """The indices of the packed sums `packed` by the `_decoders` tables
    `decode` (the sums themselves when there are none)."""
    if not decode:
        return packed
    # no sum has bits above its slice's lanes: the top table needs no mask
    *lower, (shift, table) = decode
    index = table.take(packed >> shift if shift else packed)
    for shift, table in lower:
        index += table.take((packed >> shift if shift else packed) & (len(table) - 1))
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
        return times_fixed(self.field, [c], self.n, a.ravel())[0].reshape(a.shape)
