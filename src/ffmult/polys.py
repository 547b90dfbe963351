"""F_q[x]: exact polynomial arithmetic, enumeration, irreducibles, factorization.

Polynomials are immutable coefficient tuples (lowest degree first, encoded
field elements, no trailing zeros).  The zero polynomial has the dedicated
degree NEG_INF, never -1, so degree arithmetic can't silently go wrong.

Enumeration order is canonical everywhere: the polynomial sum g_j x^j maps
to the index sum g_j q^j, and iterators yield in increasing index.  G_n is
the additive group of polynomials of degree at most n-1 (size q^n, contains
0); monic_of_degree(n) has size q^n as well.

Irreducibles are enumerated by a product sieve: every monic polynomial of
degree d that is a product of two smaller monic polynomials gets marked,
survivors are irreducible.  The sieve works on index space only: its
product is a sorted int64 index array per degree (`irreducible_indices`),
vectorized over the cofactor and batched over the primes of a degree, so
desk-scale tables (q^d up to ~10^6) build in well under a second.  One
sieve, `_sieve`, marks a block of consecutive degrees in one mask, one
engine call per prime degree for every q, its cofactors the tuple of the
block's monic blocks, of which only those with a nonzero constant term
are mapped (the multiples of x, the indices divisible by q, are one
strided slice of the mask); a single degree is the block of one, and
`sieve_through` sieves every degree up to N in blocks that halve, so F_2
through degree 17 takes 15 engine calls where a sieve per degree takes 72,
and F_3 through degree 8 takes 7.  Poly tuples of the
irreducibles are made on demand, on the first call of
`irreducibles_of_degree`, for the scalar API.  Factorization is trial
division against those tables up to half the degree of what is left,
since a composite always has a factor of at most half its degree; the
only limit on it is the sieve's charge against the field's enumeration
budget.  Over F_p its least survivor of degree r is the modulus of F_{p^r}.
"""

from __future__ import annotations

import numpy as np

from .fields import Field, factor_int, power
from .gn import digit_matrix, times_fixed_chunks

NEG_INF = float("-inf")

_FACTOR_MEMO_CAP = 1 << 20


class Poly:
    """Immutable polynomial over a Field, coefficients lowest-degree first."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        t = tuple(int(c) for c in coeffs)
        end = len(t)
        while end and t[end - 1] == 0:
            end -= 1
        t = t[:end]
        if any(c < 0 or c >= field.q for c in t):
            raise ValueError("coefficient out of range for " + repr(field))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", t)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _trusted(cls, field: Field, coeffs: tuple) -> "Poly":
        """A Poly from an already normalized tuple of in-range ints, unchecked."""
        g = object.__new__(cls)
        object.__setattr__(g, "field", field)
        object.__setattr__(g, "coeffs", coeffs)
        return g

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, ())

    @classmethod
    def one(cls, field):
        return cls(field, (1,))

    @classmethod
    def x(cls, field):
        return cls(field, (0, 1))

    @classmethod
    def constant(cls, field, c):
        return cls(field, (c,))

    @classmethod
    def from_index(cls, field, index: int):
        """Inverse of to_index(): base-q digits become coefficients."""
        q = field.q
        coeffs, t = [], int(index)
        while t:
            coeffs.append(t % q)
            t //= q
        return cls(field, coeffs)

    def to_index(self) -> int:
        q, idx = self.field.q, 0
        for c in reversed(self.coeffs):
            idx = idx * q + c
        return idx

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.field.inv_py[self.coeffs[-1]]
        mul = self.field.mul_py
        return Poly(self.field, [mul[c][inv] for c in self.coeffs])

    def coeff(self, j: int) -> int:
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else 0

    # -- ring operations ----------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly) or other.field != self.field:
            raise TypeError("operands must be Poly over the same field")

    def __add__(self, other):
        self._check(other)
        a, b, add = self.coeffs, other.coeffs, self.field.add_py
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = add[out[i]][c]
        return Poly(self.field, out)

    def __neg__(self):
        neg = self.field.neg_py
        return Poly(self.field, [neg[c] for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly.zero(self.field)
        add, mul = self.field.add_py, self.field.mul_py
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                row = mul[ai]
                for j, bj in enumerate(b):
                    if bj:
                        out[i + j] = add[out[i + j]][row[bj]]
        return Poly(self.field, out)

    def scalar_mul(self, c: int) -> "Poly":
        if c == 0:
            return Poly.zero(self.field)
        row = self.field.mul_py[c]
        return Poly(self.field, [row[ci] for ci in self.coeffs])

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return Poly(self.field, (0,) * k + self.coeffs)

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        add, mul, neg = F.add_py, F.mul_py, F.neg_py
        db = len(other.coeffs) - 1
        inv_lc = F.inv_py[other.coeffs[-1]]
        rem = list(self.coeffs)
        if len(rem) - 1 < db:
            return Poly.zero(F), self
        quot = [0] * (len(rem) - db)
        for i in range(len(rem) - 1, db - 1, -1):
            c = rem[i]
            if c == 0:
                continue
            f = mul[c][inv_lc]
            quot[i - db] = f
            frow = mul[f]
            for j, bc in enumerate(other.coeffs):
                if bc:
                    rem[i - db + j] = add[rem[i - db + j]][neg[frow[bc]]]
        return Poly(F, quot), Poly(F, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e: int):
        return power(Poly.__mul__, Poly.one(self.field), self, e)

    def __call__(self, a: int) -> int:
        """Evaluate at an encoded field element (Horner)."""
        F = self.field
        acc = 0
        for c in reversed(self.coeffs):
            acc = F.add_py[F.mul_py[acc][a]][c]
        return acc

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Poly) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c == 0:
                continue
            xp = "" if j == 0 else ("x" if j == 1 else f"x^{j}")
            if j == 0:
                parts.append(str(c))
            elif c == 1:
                parts.append(xp)
            else:
                parts.append(f"{c}*{xp}")
        return " + ".join(parts)


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd; gcd(0, 0) = 0."""
    while not b.is_zero():
        a, b = b, a % b
    return a.monic()


# -- enumeration -------------------------------------------------------------


def g_n(field: Field, n: int):
    """All q^n polynomials of degree at most n-1 (includes 0), index order."""
    if n < 0:
        raise ValueError("n must be >= 0")
    field.charge(field.q ** n, f"G_{n}")
    for idx in range(field.q ** n):
        yield Poly.from_index(field, idx)


def monic_of_degree(field: Field, n: int):
    """All q^n monic polynomials of degree exactly n, index order on the tail."""
    if n < 0:
        raise ValueError("n must be >= 0")
    field.charge(field.q ** n, f"the monics of degree {n}")
    for idx in range(field.q ** n):
        low = Poly.from_index(field, idx).coeffs
        yield Poly(field, low + (0,) * (n - len(low)) + (1,))


def p_k(field: Field, k: int):
    """P_k: monic irreducibles of degree k or k+1 (the two-degree span)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    for d in (k, k + 1):
        for g in irreducibles_of_degree(field, d):
            yield g


# -- irreducibles ------------------------------------------------------------


def irreducible_count(field: Field, d: int) -> int:
    """Exact count of monic irreducibles of degree d (necklace formula)."""
    return necklace_count(field.q, d)


def necklace_count(q: int, d: int) -> int:
    """irreducible_count for F_q given by q alone, with no field tables."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            # mu(e): 0 unless e is squarefree, else (-1)^(its prime count)
            parts = factor_int(e)
            if all(k == 1 for _, k in parts):
                total += (-1) ** len(parts) * q ** (d // e)
    assert total % d == 0
    return total // d


def irreducible_indices(field: Field, d: int) -> np.ndarray:
    """Sorted int64 indices of the monic irreducibles of degree d, cached
    on the field: the survivors of `_sieve` of the one degree d.
    `sieve_through` fills the same cache a block of degrees at a time, and
    `multiplicative.function_on_gn` degree by degree from its own sieve,
    both with the same arrays."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    cache = field._irreducible_indices
    if d not in cache:
        _sieve(field, d, d)
    return cache[d]


def sieve_through(field: Field, top: int):
    """Cache `irreducible_indices` of every degree 1..top.

    Each uncached degree d is charged q^d, in ascending order, before any
    is sieved.  Then `sieve_through(field, top // 2)` caches the degrees
    that hold every prime of degree <= top/2, and the uncached degrees
    above top // 2 are one `_sieve` block, with one call of
    `times_fixed_chunks` per prime degree of the block.  F_2 through
    degree 17 is the blocks {1}, {2}, {3, 4}, {5..8}, {9..17} and 15
    calls, where a sieve per degree makes 72; F_3 through degree 8 is
    {1}, {2}, {3, 4}, {5..8} and 7 calls.  Each call maps only the monic
    cofactors with a nonzero constant term, and the multiples of x are one
    strided slice of the block's mask: over F_2 the block {9..17} marks
    226,768 product rows, where mapping every cofactor marked 584,352.
    """
    cache = field._irreducible_indices
    for d in range(1, top + 1):
        if d not in cache:
            field.charge(field.q ** d, f"the irreducible sieve at degree {d}")
    if top > 1:
        sieve_through(field, top // 2)
    todo = [d for d in range(top // 2 + 1, top + 1) if d not in cache]
    if todo:
        _sieve(field, todo[0], todo[-1])


def _sieve(field: Field, lo: int, hi: int):
    """Sieve the monic degrees lo..hi in one mask and cache the survivors of
    each degree that has no cache entry yet; each degree is charged q^d.

    The mask is the index interval [q^lo, 2 q^hi), 2 q^hi - q^lo bools,
    which holds the monic block [q^d, 2 q^d) of each degree d in place.
    A monic g with g(0) = 0 is x times a monic, composite unless g = x: the
    indices divisible by q, marked by one strided slice of the mask (x, at
    its start when lo = 1, left out).  Every other composite monic of
    degree d is a product p*h with p irreducible of degree e <= d/2, p != x,
    and h monic of degree d - e >= e with h(0) != 0, and is marked: one
    `times_fixed_chunks` call per prime degree e <= hi/2, its cofactors the
    tuple of the monic blocks of degrees max(lo - e, e) .. hi - e (one
    range when q = 2, where they are contiguous), of which the engine maps
    only those with a nonzero constant term.  The products are marked a
    chunk at a time, so no Poly and no whole block of products is built.
    """
    q, cache = field.q, field._irreducible_indices
    for d in range(lo, hi + 1):
        field.charge(q ** d, f"the irreducible sieve at degree {d}")
    base = q ** lo                      # the index at the mask's start, x^lo
    composite = np.zeros(2 * q ** hi - base, dtype=bool)
    composite[::q] = True
    composite[0] = lo > 1
    for e in range(1, hi // 2 + 1):
        primes = irreducible_indices(field, e)
        if e == 1:
            primes = primes[1:]         # x, the first prime of degree 1
        monics = tuple(range(q ** m, 2 * q ** m) for m in range(max(lo - e, e), hi - e + 1))
        for _, _, idx in times_fixed_chunks(field, primes, hi - e + 1, monics,
                                            nonzero_constant=True):
            idx -= base
            composite[idx] = True
    np.logical_not(composite, out=composite)
    for d in range(lo, hi + 1):
        if d not in cache:
            survivors = np.flatnonzero(composite[q ** d - base:2 * q ** d - base])
            survivors += q ** d
            cache[d] = survivors


def irreducibles_of_degree(field: Field, d: int) -> tuple:
    """Monic irreducibles of degree d as Poly, index order: boxed from
    `irreducible_indices` on the first call and cached on the field."""
    cache = field._irreducibles
    if d not in cache:
        rows = digit_matrix(field.q, d + 1, irreducible_indices(field, d)).tolist()
        cache[d] = tuple(Poly._trusted(field, tuple(row)) for row in rows)
    return cache[d]


def is_irreducible(g: Poly) -> bool:
    if g.is_zero() or g.degree == 0:
        return False
    field = g.field
    d = int(g.degree)
    m = g.monic()
    if field.q ** d <= field.enumeration_budget:
        idx = irreducible_indices(field, d)
        key = m.to_index()
        at = int(np.searchsorted(idx, key))
        return at < len(idx) and int(idx[at]) == key
    # degree too large to sieve at full width: trial division
    return factor(g)[1] == ((m, 1),)


def factor(g: Poly):
    """g = unit * prod(p_i^{k_i}); returns (unit_code, ((p, k), ...)).

    Trial division against the cached irreducible tables, degree by
    degree up to half the degree of the cofactor left: a composite
    cofactor would have a divisor of at most that degree, so a surviving
    cofactor is certified irreducible.  The sieve of each degree is
    charged to the field's enumeration budget.
    """
    if g.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    field = g.field
    memo = field._factor_memo
    key = g.coeffs
    hit = memo.get(key)
    if hit is not None:
        return hit
    unit = g.lc()
    m = g.monic()
    out = []
    d = 1
    while m.degree >= 1:
        if d > m.degree // 2:
            # all factors of degree < d removed, so a composite m would
            # need two factors of degree >= d > deg(m)/2: impossible
            out.append((m, 1))
            break
        for p in irreducibles_of_degree(field, d):
            k = 0
            while True:
                quo, rem = divmod(m, p)
                if not rem.is_zero():
                    break
                m, k = quo, k + 1
            if k:
                out.append((p, k))
                if m.degree < 1 or d > m.degree // 2:
                    break
        d += 1
    result = (unit, tuple(out))
    if len(memo) < _FACTOR_MEMO_CAP:
        memo[key] = result
    return result
