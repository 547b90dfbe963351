"""Multiplicative functions on F_q[x], evaluated through factorization.

A function here is determined by its rule on prime powers (irreducible p,
exponent k), a rule on units (default: constant 1, so built-ins are
unit-invariant), and the convention f(0) = 0.  A value at one polynomial,
f(g), comes from factor() (whose field-wide memo is the one scalar memo);
that is the only use of the field's factor-degree bound.  A whole array on
G_n comes from `function_on_gn`, and the values at the irreducibles of one
degree from `prime_values`, both bit for bit equal to the scalar path: a
prime-power sieve over index space that needs no factor(), and for
characters and twists the Hayes arrays of `HayesCharacter.values_at` (times
the base function's array).  `per_element` is the one loop that calls a
function polynomial by polynomial; only plain callables (and an
`eval_override` that is one) reach it.

Built-ins: moebius (mu(p) = -1, zero on non-squarefree), liouville
(lambda(p^k) = (-1)^k), one.  Character-derived functions wrap a Hayes
product directly (completely multiplicative).  Random candidates assign
seeded i.i.d. values to each irreducible and extend completely
multiplicatively; the same seed always reproduces the same function.

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

from .characters import HayesCharacter
from .errors import BudgetError
from .fields import Field
from .gn import digit_matrix, leading_coefficients, times_fixed
from .polys import Poly, factor, irreducible_indices, irreducibles_of_degree


class MultiplicativeFunction:
    """f with f(gh) = f(g)f(h) on coprime pairs, f(0) = 0, f(1) = 1."""

    # (base, H, conjugate) for from_character(H) (base None) and
    # twist(base, H, conjugate): the array paths read H as Hayes arrays
    _character = None

    def __init__(self, field: Field, prime_power_rule, *, name: str,
                 completely_multiplicative: bool = False, unit_rule=None,
                 eval_override=None, degree_profile=None, descriptor=None):
        self.field = field
        self.prime_power_rule = prime_power_rule
        self.name = name
        self.completely_multiplicative = completely_multiplicative
        self.unit_rule = unit_rule or (lambda c: 1.0 + 0j)
        self.eval_override = eval_override
        self.degree_profile = degree_profile
        self._descriptor = descriptor or {"kind": "custom", "name": name}

    @property
    def kind(self) -> str:
        return "completely multiplicative" if self.completely_multiplicative else "multiplicative"

    def __call__(self, g: Poly) -> complex:
        if g.is_zero():
            return 0j
        if self.eval_override is not None:
            return complex(self.eval_override(g))
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
    out = np.empty(len(re), dtype=np.complex128)
    out.real, out.imag = re, im        # keeps the signs of zeros
    return out


def _scale(re: np.ndarray, im: np.ndarray, idx: np.ndarray, c: complex):
    """(re + i im)[idx] *= c, rounded as Python's complex product rounds it.

    Separate float64 ufuncs, never numpy's complex `*`, which may fuse the
    multiply-add and then differs in the last bit.
    """
    ar, ai = re[idx], im[idx]
    re[idx] = ar * c.real - ai * c.imag
    im[idx] = ar * c.imag + ai * c.real


def function_on_gn(f: MultiplicativeFunction, n: int) -> np.ndarray:
    """f on all of G_n as a complex array in index order, bit-identical to
    [f(g) for g in G_n].

    Functions without an eval_override are sieved over index space: every
    nonzero index starts at unit_rule(lc), and for each irreducible p, in
    (degree, index) order, the indices exactly divisible by p^k are
    multiplied by f(p^k) (`_prime_power_values`).  That is the order
    factor() returns, so each value sees the same roundings as the scalar
    path.
    A character is its Hayes array; a twist is its base's array times the
    Hayes array (or its conjugate), by the separate float64 products of
    `_products`.  Any other eval_override is a plain callable and goes
    through `per_element`.
    """
    field = f.field
    q = field.q
    size = q ** n
    if size > field.enumeration_budget:
        raise BudgetError(f"G_{n} over the enumeration budget")
    if f._character is not None:
        base, H, conjugate = f._character
        values = H.values_at(np.arange(size, dtype=np.int64))
        if base is None:
            return values
        # at the index 0 both factors are +0, and so is the product
        return _complex(*_products(function_on_gn(base, n), values, conjugate))
    if f.eval_override is not None:
        return per_element(field, f, range(size))
    units = [0j] + [complex(f.unit_rule(c)) for c in range(1, q)]
    lc = leading_coefficients(q, n)
    re = np.array([u.real for u in units])[lc]
    im = np.array([u.imag for u in units])[lc]
    for d in range(1, n):
        primes = irreducible_indices(field, d)
        value = _prime_power_values(f, d, (n - 1) // d)
        steps = times_fixed(field, digit_matrix(q, d + 1, primes), n - d)
        for i, step in enumerate(steps):
            # mult[h] = index of p^k h, h in G_{n-kd}; those h divisible by
            # p are step[:q^(n-(k+1)d)], and h = 0 always is
            mult, k = step, 1
            while True:
                rest = n - (k + 1) * d
                divisible = step[:q ** max(rest, 0)]
                exact = np.ones(mult.size, dtype=bool)
                exact[divisible] = False
                _scale(re, im, mult[exact], value(i, k))
                if rest < 1:
                    break
                mult, k = mult[divisible], k + 1
    return _complex(re, im)


def _prime_power_values(f: MultiplicativeFunction, d: int, top: int):
    """value(i, k) = f.on_prime_power(p, k) at the i-th irreducible p of
    degree d, for k <= top: one profile value per k when f has a degree
    profile (no Poly is built), else the prime-power rule at the boxed prime."""
    if f.degree_profile is None:
        primes = irreducibles_of_degree(f.field, d)
        return lambda i, k: complex(f.prime_power_rule(primes[i], k))
    by_k = [complex(f.degree_profile(d, k)) for k in range(1, top + 1)]
    return lambda i, k: by_k[k - 1]


def prime_values(f: MultiplicativeFunction, d: int) -> np.ndarray:
    """[f.on_prime_power(p, 1) for p in irreducibles_of_degree(field, d)]
    as a complex array, bit for bit.  A function with a degree profile
    takes its one value at degree d; a character or twist reads H at the
    sieve's index array, with the `** 1` of its prime-power rule applied to
    each table entry; any other function is called prime by prime."""
    field = f.field
    if f._character is None:
        if f.degree_profile is not None:
            return np.full(len(irreducible_indices(field, d)), complex(f.degree_profile(d, 1)))
        primes = irreducibles_of_degree(field, d)
        return np.fromiter((f.on_prime_power(p, 1) for p in primes), np.complex128, len(primes))
    base, H, conjugate = f._character
    values = H.values_at(irreducible_indices(field, d), lambda v: v ** 1)
    if base is None:
        return values
    return _complex(*_products(prime_values(base, d), values, conjugate))


def per_element(field: Field, f, indices) -> np.ndarray:
    """[f(g) for g at `indices`] as a complex array, one call per index.

    Refused before the first call when there are more indices than the
    field's enumeration budget allows.
    """
    if len(indices) > field.enumeration_budget:
        raise BudgetError(f"{len(indices)} evaluations over the enumeration budget")
    out = np.empty(len(indices), dtype=np.complex128)
    for i, idx in enumerate(indices):
        out[i] = f(Poly.from_index(field, idx))
    return out


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
        raise ValueError(f"unknown builtin {name!r}; have moebius, liouville, one")
    profile, completely = _BUILTINS[name]
    return MultiplicativeFunction(
        field, lambda p, k: profile(p.degree, k), name=name,
        completely_multiplicative=completely, degree_profile=profile,
        descriptor={"kind": "builtin", "name": name})


def from_character(H: HayesCharacter) -> MultiplicativeFunction:
    """The Hayes product as a completely multiplicative function."""
    profile = None
    if H.dirichlet is None and H.short is None and H.unit is None:
        theta = H.twist.theta if H.twist is not None else 0

        def profile(d, k, _theta=theta):
            return cmath.exp(2j * cmath.pi * float(_theta) * d * k)

    f = MultiplicativeFunction(
        H.field, lambda p, k: H(p) ** k, name="hayes",
        completely_multiplicative=True, eval_override=H,
        unit_rule=lambda c: H(Poly.constant(H.field, c)),
        degree_profile=profile,
        descriptor={"kind": "character", "hayes": H.descriptor()})
    f._character = (None, H, False)
    return f


def random_on_irreducibles(field: Field, seed: int,
                           value_set: str = "pm1") -> MultiplicativeFunction:
    """Seeded i.i.d. values on irreducibles, extended completely multiplicatively.

    value_set: "pm1" for uniform {+1, -1}, "unit" for uniform on the circle.
    Values are drawn per degree block in enumeration order, so they do not
    depend on evaluation order.
    """
    if value_set not in ("pm1", "unit"):
        raise ValueError("value_set must be 'pm1' or 'unit'")
    tables: dict[int, dict] = {}

    def value_of(p: Poly) -> complex:
        d = int(p.degree)
        if d not in tables:
            # arithmetic mixing, not tuple hashing: str hashes are salted
            # per process and would break cross-run reproducibility
            key = ((seed * 1_000_003 + field.q) * 1_000_003 + d) * 2
            rng = random.Random(key + (1 if value_set == "unit" else 0))
            block = {}
            for irr in irreducibles_of_degree(field, d):
                if value_set == "pm1":
                    block[irr] = complex(rng.choice((1.0, -1.0)))
                else:
                    block[irr] = cmath.exp(2j * cmath.pi * rng.random())
            tables[d] = block
        return tables[d][p]

    return MultiplicativeFunction(
        field, lambda p, k: value_of(p) ** k, name=f"random[{seed},{value_set}]",
        completely_multiplicative=True,
        descriptor={"kind": "random", "seed": seed, "values": value_set})


def twist(f: MultiplicativeFunction, H: HayesCharacter,
          conjugate: bool = False) -> MultiplicativeFunction:
    """Pointwise product f*H, or f*conj(H) with conjugate=True."""

    def over(g: Poly) -> complex:
        h = H(g)
        return f(g) * (h.conjugate() if conjugate else h)

    sign = "conj " if conjugate else ""
    out = MultiplicativeFunction(
        f.field,
        lambda p, k: f.prime_power_rule(p, k) * ((H(p) ** k).conjugate()
                                                 if conjugate else H(p) ** k),
        name=f"{f.name}*{sign}hayes",
        completely_multiplicative=f.completely_multiplicative,
        eval_override=over,
        unit_rule=lambda c: f.unit_rule(c) * (H(Poly.constant(f.field, c)).conjugate()
                                              if conjugate else H(Poly.constant(f.field, c))),
        descriptor={"kind": "twist", "base": f.descriptor(),
                    "hayes": H.descriptor(), "conjugate": conjugate})
    out._character = (f, H, conjugate)
    return out
