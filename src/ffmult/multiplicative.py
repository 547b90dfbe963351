"""Multiplicative functions on F_q[x], evaluated through factorization.

A function here is determined by its rule on prime powers (irreducible p,
exponent k), a rule on units (default: constant 1, so built-ins are
unit-invariant), and the convention f(0) = 0.  A value at one polynomial,
f(g), comes from factor() (whose field-wide memo is the one scalar memo),
or, for a character or a twist, from its Hayes product H(g), times the
base function's f(g).  A whole array on G_n comes from `function_on_gn`,
and the values at the irreducibles of one degree from `prime_values`,
both bit for bit equal to the scalar path.
`function_on_gn` needs no factor(): one chunked sieve pass over index
space finds the last prime p of every g (and the irreducibles), and one
gather-multiply per degree block sets f(g) = f(g/p^k) f(p^k), p^k || g,
the scalar path's product in its order.
Characters and twists are the Hayes arrays of `HayesCharacter.values_at`
(times the base function's array), on G_n and at the primes alike.

Built-ins: moebius (mu(p) = -1, zero on non-squarefree), liouville
(lambda(p^k) = (-1)^k), one.  Character-derived functions wrap a Hayes
product directly (completely multiplicative).  Random candidates assign
seeded i.i.d. values to each irreducible, drawn per degree into an array
in index order, and extend completely multiplicatively; the same seed
always reproduces the same function.

Functions whose prime-power values depend only on (deg p, k) carry a
degree profile, and f(p^k) = degree_profile(deg p, k) is then part of the
function's contract.  A built-in is defined by its profile alone: its
prime-power rule reads the profile, so there is one definition.  The array
paths (`function_on_gn`, `prime_values`) read a profile once per
(degree, k) on the sieve's index arrays, which gives the scalar values by
construction and builds no Poly; the Euler-product statistics use it to
group local factors by degree instead of enumerating irreducibles.
"""

from __future__ import annotations

import cmath
import random

import numpy as np

from .characters import DegreeTwist, HayesCharacter
from .fields import Field
from .gn import times_fixed_chunks
from .polys import Poly, factor, irreducible_indices, irreducibles_of_degree


class MultiplicativeFunction:
    """f with f(gh) = f(g)f(h) on coprime pairs, f(0) = 0, f(1) = 1."""

    # (base, H, conjugate) for from_character(H) (base None) and
    # twist(base, H, conjugate): f(g) is H(g), base(g) H(g) or
    # base(g) conj H(g), and the array paths read H as Hayes arrays
    _character = None
    # d -> f(p) at irreducible_indices(field, d) for a random function,
    # whose prime-power rule is f(p) ** k: the array paths read these
    _drawn = None

    def __init__(self, field: Field, prime_power_rule, *, name: str,
                 completely_multiplicative: bool = False, unit_rule=None,
                 degree_profile=None, descriptor=None):
        self.field = field
        self.prime_power_rule = prime_power_rule
        self.name = name
        self.completely_multiplicative = completely_multiplicative
        self.unit_rule = unit_rule or (lambda c: 1.0 + 0j)
        self.degree_profile = degree_profile
        self._descriptor = descriptor or {"kind": "custom", "name": name}

    @property
    def kind(self) -> str:
        return "completely multiplicative" if self.completely_multiplicative else "multiplicative"

    def __call__(self, g: Poly) -> complex:
        if g.is_zero():
            return 0j
        if self._character is not None:
            base, H, conjugate = self._character
            h = H(g)
            if base is None:
                return complex(h)
            return complex(base(g) * (h.conjugate() if conjugate else h))
        if g.degree == 0:
            return complex(self.unit_rule(g.coeffs[0]))
        unit, parts = factor(g)
        val = complex(self.unit_rule(unit))
        for p, k in parts:
            val *= self.prime_power_rule(p, k)
        return val

    def on_prime_power(self, p: Poly, k: int) -> complex:
        return complex(self.prime_power_rule(p, k))

    def descriptor(self) -> dict:
        return dict(self._descriptor)

    def __repr__(self):
        return f"MultiplicativeFunction({self.name} over {self.field!r})"


def _products(a, b, conjugate_b: bool = False):
    """Real and imaginary parts of a * b (or a * conj b), elementwise,
    rounded as Python's complex product rounds them: separate float64
    ufuncs, never numpy's complex `*`, which may fuse the multiply-add."""
    ar, ai = a.real, a.imag
    br, bi = b.real, (-b.imag if conjugate_b else b.imag)
    return ar * br - ai * bi, ar * bi + ai * br


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=np.complex128)
    out.real, out.imag = re, im        # keeps the signs of zeros
    return out


def function_on_gn(f: MultiplicativeFunction, n: int) -> np.ndarray:
    """f on all of G_n as a complex array in index order, bit-identical to
    [f(g) for g in G_n].

    Other functions than characters and twists take two passes over index
    space and no factor().  `_last_primes` gives each g of degree >= 1 its
    last prime p in index order (factor()'s order) and h = g/p.  Then per
    degree block [q^D, q^(D+1)), f(g) = f(c) f(p^k) for p^k || g and
    c = g/p^k (c(h) and k(h) + 1 where p | h, else h and 1): f(c) is the
    scalar path's running product over the earlier primes, and `_products`
    rounds as it does.  A character is its Hayes array; a twist is its
    base's array times the Hayes array (or its conjugate), by `_products`.
    """
    field = f.field
    q = field.q
    size = q ** n
    field.charge(size, f"G_{n}")
    if f._character is not None:
        base, H, conjugate = f._character
        values = H.values_at(np.arange(size, dtype=np.int64))
        if base is None:
            return values
        # at the index 0 both factors are +0, and so is the product
        return _complex(*_products(function_on_gn(base, n), values, conjugate))
    rank, h, table, starts = _last_primes(f, n)
    out = np.empty(size, dtype=np.complex128)
    out[:q] = np.array([0j] + [complex(f.unit_rule(c)) for c in range(1, q)])[:size]
    # c(g) and k(g) are read only at cofactors h = g/p, which lie in G_{n-1}
    c = np.zeros(size // q, dtype=h.dtype)
    k = np.zeros(size // q, dtype=np.uint8)
    for D in range(1, n):
        block = slice(q ** D, q ** (D + 1))
        r, hb = rank[block], h[block].astype(np.intp)
        same = rank[hb] == r            # p | h (a unit h has rank 0)
        cb = np.where(same, c[hb], hb)
        kb = np.where(same, k[hb] + 1, 1)
        if D < n - 1:
            c[block], k[block] = cb, kb
        part = out[block]               # a view
        part.real, part.imag = _products(out[cb], table[starts[kb] + r])
    return out


def _last_primes(f: MultiplicativeFunction, n: int) -> tuple:
    """(rank, h, table, starts) of the sieve of `function_on_gn` on G_n.

    The primes are ranked 1, 2, ... in (degree, index) order.  rank[g] is
    the rank of the last prime p of g and h[g] = g/p, for every g of
    degree >= 1 (rank 0 at the units; the index 0 is never read), in the
    narrowest dtypes that hold them.  f(p^k) at the rank r is
    table[starts[k] + r].

    Degree d = 1..n-1 in turn is one `times_fixed_chunks` call over its
    primes, the monic indices of degree d that no smaller prime has marked
    (they fill the field's irreducible cache where it has no entry yet).
    Each product p*h, h in G_{n-d}, keeps rank * q^n + h at its index if
    larger (`np.maximum.at`, which does not depend on the order of the
    chunks or of repeated indices).
    """
    field = f.field
    q = field.q
    size = q ** n
    cache = field._irreducible_indices
    key = np.zeros(size, dtype=np.int64)
    rows = [[] for _ in range(n)]       # rows[k]: f(p^k), degrees <= (n-1)/k
    ranked = 0
    for d in range(1, n):
        if d not in cache:
            cache[d] = np.flatnonzero(key[q ** d:2 * q ** d] == 0) + q ** d
        primes = cache[d]
        for k, values in enumerate(_prime_power_values(f, d, (n - 1) // d), 1):
            rows[k].append(values)
        for row0, col0, idx in times_fixed_chunks(field, primes, n - d):
            ranks = np.arange(ranked + 1 + row0, ranked + 1 + row0 + len(idx))
            keys = ranks[:, None] * size + np.arange(col0, col0 + idx.shape[1])
            np.maximum.at(key, idx.ravel(), keys.ravel())     # 1-D: the fast path
        ranked += len(primes)
    h = np.empty(size, dtype=np.min_scalar_type(size - 1))
    np.remainder(key, size, out=h, casting="unsafe")
    key //= size
    rank = key.astype(np.min_scalar_type(ranked))
    del key
    # row k begins at starts[k] + 1, after table[0], which no rank reads
    table = np.concatenate([np.zeros(1, dtype=np.complex128)] + sum(rows, []))
    starts = np.cumsum([0, 0] + [sum(map(len, row)) for row in rows[1:-1]])
    return rank, h, table, starts


def _prime_power_values(f: MultiplicativeFunction, d: int, top: int) -> np.ndarray:
    """(top, primes) complex array of f.on_prime_power(p, k), k = 1..top, at
    the irreducibles p of degree d in index order, bit for bit.  A character
    reads H at the sieve's index array with the `** k` of its prime-power
    rule applied to each table entry, and a twist takes its base's rows
    times those (or their conjugates) by `_products`; a degree profile gives
    one value per k and a random function its drawn values raised by its
    rule's own `** k`.  None of these builds a Poly; any other function calls
    its prime-power rule at the boxed primes."""
    ks = range(1, top + 1)
    if f._character is not None:
        base, H, conjugate = f._character
        primes = irreducible_indices(f.field, d)
        rows = np.array([H.values_at(primes, lambda v, k=k: v ** k) for k in ks])
        if base is None:
            return rows
        return _complex(*_products(_prime_power_values(base, d, top), rows, conjugate))
    if f.degree_profile is not None:
        by_k = np.array([complex(f.degree_profile(d, k)) for k in ks])
        return np.repeat(by_k[:, None], len(irreducible_indices(f.field, d)), axis=1)
    if f._drawn is not None:
        drawn = f._drawn(d).tolist()
        return np.array([[v ** k for v in drawn] for k in ks], dtype=np.complex128)
    primes = irreducibles_of_degree(f.field, d)
    return np.array([[f.on_prime_power(p, k) for p in primes] for k in ks],
                    dtype=np.complex128)


def prime_values(f: MultiplicativeFunction, d: int) -> np.ndarray:
    """[f.on_prime_power(p, 1) for p in irreducibles_of_degree(field, d)]
    as a complex array, bit for bit: the k = 1 row of `_prime_power_values`."""
    return _prime_power_values(f, d, 1)[0]


# each built-in is its degree profile: f(p^k) from deg p and k alone, and
# whether it is completely multiplicative
_BUILTINS = {
    "moebius": (lambda d, k: (-1.0 + 0j) if k == 1 else 0j, False),
    "liouville": (lambda d, k: complex((-1.0) ** k), True),
    "one": (lambda d, k: 1.0 + 0j, True),
}


def builtin(field: Field, name: str) -> MultiplicativeFunction:
    """moebius | liouville | one.  The prime-power rule reads the degree
    profile, so the array paths, which read the profile once per degree,
    give the scalar path's values by construction."""
    if name not in _BUILTINS:
        raise ValueError(f"unknown builtin {name!r}; have {', '.join(_BUILTINS)}")
    profile, completely = _BUILTINS[name]
    return MultiplicativeFunction(
        field, lambda p, k: profile(p.degree, k), name=name,
        completely_multiplicative=completely, degree_profile=profile,
        descriptor={"kind": "builtin", "name": name})


def from_character(H: HayesCharacter) -> MultiplicativeFunction:
    """The Hayes product as a completely multiplicative function."""
    profile = None
    if H.dirichlet is None and H.short is None and H.unit is None:
        twist = H.twist or DegreeTwist(0)

        def profile(d, k):
            return twist(d) ** k            # H(p) ** k, the prime-power rule

    f = MultiplicativeFunction(
        H.field, lambda p, k: H(p) ** k, name="hayes",
        completely_multiplicative=True,
        unit_rule=lambda c: H(Poly.constant(H.field, c)),
        degree_profile=profile,
        descriptor={"kind": "character", "hayes": H.descriptor()})
    f._character = (None, H, False)
    return f


# the value sets of `random_on_irreducibles`
_VALUE_SETS = ("pm1", "unit")


def random_on_irreducibles(field: Field, seed: int,
                           value_set: str = "pm1") -> MultiplicativeFunction:
    """Seeded i.i.d. values on irreducibles, extended completely multiplicatively.

    value_set: "pm1" for uniform {+1, -1}, "unit" for uniform on the circle.
    Values are drawn per degree block in index order into an array (the
    +-1 values by one bulk draw, `_pm1_draws`), so they do not depend on
    evaluation order; the prime-power rule finds a prime's
    value by its index, and the array paths read the blocks directly.
    """
    if value_set not in _VALUE_SETS:
        raise ValueError(f"value_set must be {' or '.join(map(repr, _VALUE_SETS))}")
    blocks: dict[int, np.ndarray] = {}

    def drawn(d: int) -> np.ndarray:
        if d not in blocks:
            # arithmetic mixing, not tuple hashing: str hashes are salted
            # per process and would break cross-run reproducibility
            key = ((seed * 1_000_003 + field.q) * 1_000_003 + d) * 2
            rng = random.Random(key + (1 if value_set == "unit" else 0))
            count = len(irreducible_indices(field, d))
            if value_set == "pm1":
                blocks[d] = _pm1_draws(rng, count).astype(np.complex128)
            else:
                blocks[d] = np.array([cmath.exp(2j * cmath.pi * rng.random())
                                      for _ in range(count)], dtype=np.complex128)
        return blocks[d]

    def value_of(p: Poly) -> complex:
        primes, key = irreducible_indices(field, p.degree), p.to_index()
        at = int(np.searchsorted(primes, key))
        if at == len(primes) or primes[at] != key:
            raise KeyError(p)
        return complex(drawn(p.degree)[at])

    f = MultiplicativeFunction(
        field, lambda p, k: value_of(p) ** k, name=f"random[{seed},{value_set}]",
        completely_multiplicative=True,
        descriptor={"kind": "random", "seed": seed, "values": value_set})
    f._drawn = drawn
    return f


def _pm1_draws(rng: random.Random, count: int) -> np.ndarray:
    """[rng.choice((1.0, -1.0)) for _ in range(count)] as a float64 array,
    bit for bit, drawn in bulk.  Each try of `choice` takes one 32-bit word
    of the generator and keeps its top two bits, rejecting 2 and 3; the
    words of getrandbits(32 * tries) are those of `tries` calls, lowest
    first.  Words drawn past the last value needed change only the state
    of `rng`."""
    values = np.empty(0, dtype=np.uint32)
    while len(values) < count:
        tries = 2 * (count - len(values)) + 64
        words = rng.getrandbits(32 * tries).to_bytes(4 * tries, "little")
        top = np.frombuffer(words, dtype="<u4") >> 30
        values = np.concatenate([values, top[top < 2]])
    return 1.0 - 2.0 * values[:count]


def twist(f: MultiplicativeFunction, H: HayesCharacter,
          conjugate: bool = False) -> MultiplicativeFunction:
    """Pointwise product f*H, or f*conj(H) with conjugate=True."""
    sign = "conj " if conjugate else ""
    out = MultiplicativeFunction(
        f.field,
        lambda p, k: f.prime_power_rule(p, k) * ((H(p) ** k).conjugate()
                                                 if conjugate else H(p) ** k),
        name=f"{f.name}*{sign}hayes",
        completely_multiplicative=f.completely_multiplicative,
        unit_rule=lambda c: f.unit_rule(c) * (H(Poly.constant(f.field, c)).conjugate()
                                              if conjugate else H(Poly.constant(f.field, c))),
        descriptor={"kind": "twist", "base": f.descriptor(),
                    "hayes": H.descriptor(), "conjugate": conjugate})
    out._character = (f, H, conjugate)
    return out
