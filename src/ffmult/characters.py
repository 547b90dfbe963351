"""The three character families on F_q[x] and their Hayes products.

* Dirichlet characters mod g: characters of the unit group (F_q[x]/g)^*,
  extended by zero off the units.
* Short-interval characters of length <= s: characters of the group R_s of
  truncated series 1 + a_1 x^{-1} + ... + a_s x^{-s} under truncated
  multiplication, pulled back through the normalized top-coefficient map.
  They depend only on the s+1 highest coefficients and are completely
  multiplicative; units map to 1 (unit-invariant completion; an optional
  UnitCharacter covers the alternative completion through the leading
  coefficient).
* Degree twists e_theta: g -> exp(2*pi*i*theta*deg g).

Character values are exact exponents of a root of unity (exposed as
Fraction "turns" in [0,1)); `turns_to_complex` of the exact turns is the
one conversion to complex, whichever path reads a value.  Every group is
decomposed by `groups.decompose_abelian_group` on int codes, with no Poly
or tuple per element: (F_q[x]/g)^* as the residue indices prime to g under
`gn.residue_products`, R_s as the top-coefficient codes under the
truncated series product (the same kernel mod x^(s+1)), F_q^* as the
field elements under the multiplication table.  Dirichlet, short-interval
and unit characters share one table class: a character of a decomposed
group held as an int table of exponents indexed by code, one dot of the
group's dlog array with the character's exponents, -1 at codes of no
group element.  Each says only where its arguments land in the table: a
Dirichlet character at residue indices (`gn.residues`), a short-interval
character at top-coefficient codes (`gn.top_codes`), a unit character at
leading coefficients.  A degree twist is one exact
Fraction per degree.  A Hayes product on an index array
(`HayesCharacter.values_at`) reads those tables through the `gn` kernels
and looks its values up in a table of the distinct (degree, exponent)
pairs, each entry made by the scalar expression, so the array equals
[H(g)] bit for bit, and a component alone gives its one-component Hayes
product bit for bit.  Enumeration order is lexicographic over exponent
vectors against the elementary-divisor generators, so character index 0
is always the principal character.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import Field
from .gn import degrees, digit_matrix, residue_products, residues, top_codes
from .groups import AbelianGroupStructure, decompose_abelian_group
from .polys import Poly, factor

_QUARTER_TURNS = {Fraction(0): 1 + 0j, Fraction(1, 4): 1j,
                  Fraction(1, 2): -1 + 0j, Fraction(3, 4): -1j}


def turns_to_complex(t) -> complex:
    """exp(2*pi*i*t) with exact values at quarter turns."""
    frac = Fraction(t) % 1
    hit = _QUARTER_TURNS.get(frac)
    if hit is not None:
        return hit
    return cmath.exp(2j * cmath.pi * float(frac))


def _lookup(code: np.ndarray, size: int, value) -> np.ndarray:
    """[value(c) for c in code] as a complex array, for int codes in
    [0, size): value is called once per distinct code, then gathered."""
    present = np.flatnonzero(np.bincount(code, minlength=size))
    slot = np.zeros(size, dtype=np.int64)
    slot[present] = np.arange(len(present))
    return np.array([value(c) for c in present.tolist()], dtype=np.complex128)[slot[code]]


def _character_table(structure: AbelianGroupStructure, exponents: tuple, size: int):
    """(table, L): table[element code] is the numerator mod L of the
    character picked by `exponents`, dlog . (e_i L / d_i), -1 at the codes
    below `size` of no element."""
    orders = structure.orders
    L = orders[0] if orders else 1
    weights = np.array([e * (L // d) for e, d in zip(exponents, orders)], dtype=np.int64)
    table = np.full(size, -1, dtype=np.int64)
    table[structure.elements] = structure.dlog @ weights % L
    return table, L


class _TableCharacter:
    """A character of a decomposed abelian group, read from its exponent table.

    table[code] is the numerator mod `order` of the value at the group
    element of that code, -1 at codes of no element (value 0).  A subclass
    passes its table size, and says where a scalar argument (`_position`)
    and an index array (`_positions`) land among the codes.
    """

    def __init__(self, field: Field, structure: AbelianGroupStructure, exponents: tuple,
                 size: int):
        self.field = field
        self.structure = structure
        self.exponents = tuple(exponents)
        self.table, self.order = _character_table(structure, self.exponents, size)

    @property
    def is_principal(self) -> bool:
        return all(e == 0 for e in self.exponents)

    def exponent(self, arg):
        """Numerator of the value's turns (mod self.order); None when value is 0."""
        num = int(self.table[self._position(arg)])
        return None if num < 0 else num

    def exponents_at(self, idx) -> np.ndarray:
        """exponent() at the polynomial of every index of `idx`, -1 where
        the value is 0."""
        return self.table[self._positions(np.asarray(idx, dtype=np.int64))]

    def turns(self, arg):
        num = self.exponent(arg)
        return None if num is None else Fraction(num, self.order)

    def __call__(self, arg) -> complex:
        t = self.turns(arg)
        return 0j if t is None else turns_to_complex(t)

    def values_at(self, idx) -> np.ndarray:
        """The value at the polynomial of every index of `idx` as a complex
        array, bit for bit the scalar one: turns_to_complex of each exponent
        that occurs, 0j where exponents_at is -1."""
        return _lookup(self.exponents_at(idx) + 1, self.order + 1,
                       lambda c: turns_to_complex(Fraction(c - 1, self.order)) if c else 0j)


class DirichletCharacter(_TableCharacter):
    """A character of (F_q[x]/g)^*, zero off the units, periodic mod g."""

    def __init__(self, field: Field, modulus: Poly, structure, exponents: tuple):
        self.modulus = modulus
        # exponent per residue index, -1 off the units
        super().__init__(field, structure, exponents, field.q ** int(modulus.degree))

    @classmethod
    def trivial(cls, field: Field):
        """The character mod 1: identically one (the no-twist option)."""
        return dirichlet_character(Poly.one(field), 0)

    def _position(self, h: Poly) -> int:
        return (h % self.modulus).to_index()

    def _positions(self, idx) -> np.ndarray:
        return residues(self.field, self.modulus.coeffs, idx)

    def descriptor(self) -> dict:
        return {"modulus": list(self.modulus.coeffs), "index": list(self.exponents),
                "orders": list(self.structure.orders)}

    def __repr__(self):
        return f"DirichletCharacter(mod {self.modulus}, index {self.exponents})"


def unit_count(modulus: Poly) -> int:
    """|(F_q[x]/g)^*|, the number of Dirichlet characters mod g, from the
    factorization of g: prod q^((k-1) deg P) (q^deg P - 1), 1 mod a unit."""
    q = modulus.field.q
    return math.prod(q ** ((k - 1) * int(P.degree)) * (q ** int(P.degree) - 1)
                     for P, k in factor(modulus)[1])


def unit_group(field: Field, modulus: Poly) -> AbelianGroupStructure:
    """(F_q[x]/g)^* as a decomposed abelian group: the residue indices h <
    q^deg g, ascending, with h mod P nonzero for every prime P | g, under
    `gn.residue_products`; mod 1 it is the one-element group of the
    residue 0."""
    if modulus.is_zero():
        raise ValueError("modulus must be nonzero")
    modulus = modulus.monic()
    size = field.q ** int(modulus.degree)
    field.charge(size, f"the residues mod {modulus}")
    every, units = np.arange(size, dtype=np.int64), np.ones(size, dtype=bool)
    for P, _ in factor(modulus)[1]:
        units &= residues(field, P.coeffs, every) != 0
    if units.sum() != unit_count(modulus):
        raise AssertionError("the units mod g are not the count of their factorization")
    return decompose_abelian_group(every[units], residue_products(field, modulus.coeffs))


def character_exponents(structure: AbelianGroupStructure, index: int) -> tuple:
    """The exponents of character `index` in the enumeration order, the
    order of itertools.product over `structure.orders`: `index` in mixed
    radix, the last exponent the fastest digit."""
    if not 0 <= index < structure.size:
        raise ValueError(f"character index {index} outside [0, {structure.size})")
    exps = []
    for order in reversed(structure.orders):
        index, e = divmod(index, order)
        exps.append(e)
    return tuple(reversed(exps))


def dirichlet_character(modulus: Poly, index: int) -> DirichletCharacter:
    """Character `index` of `dirichlet_characters(modulus)`, the only one built."""
    structure = unit_group(modulus.field, modulus)
    return DirichletCharacter(modulus.field, modulus.monic(), structure,
                              character_exponents(structure, index))


def dirichlet_characters(modulus: Poly) -> list:
    """All phi(g) characters mod g; index 0 is the principal character."""
    structure = unit_group(modulus.field, modulus)
    return [DirichletCharacter(modulus.field, modulus.monic(), structure, exps)
            for exps in itertools.product(*(range(d) for d in structure.orders))]


# -- short interval characters -------------------------------------------------


def r_s_group(field: Field, s: int) -> AbelianGroupStructure:
    """R_s: the series 1 + a_1/x + ... + a_s/x^s under truncated product, by
    their codes `_code(a)`, listed in the order of itertools.product over
    the tuples (a_1 slowest).  With X = 1/x the code c is the index
    (1 + q c) of 1 + a_1 X + ... + a_s X^s, and the product is that of
    those indices mod X^(s+1)."""
    if s < 0:
        raise ValueError("s must be >= 0")
    q = field.q
    field.charge(q ** s, f"R_{s}")
    codes = digit_matrix(q, s, np.arange(q ** s))[:, ::-1] @ q ** np.arange(s, dtype=np.int64)
    series = residue_products(field, (0,) * (s + 1) + (1,))
    return decompose_abelian_group(codes, lambda a, b: (series(1 + q * a, 1 + q * b) - 1) // q)


def _code(field: Field, a: tuple) -> int:
    """The top-coefficient code a_1 + a_2 q + ... of `gn.top_codes`."""
    return sum(c * field.q ** j for j, c in enumerate(a))


def top_coefficient_tuple(field: Field, g: Poly, s: int) -> tuple:
    """Normalized top coefficients (g_{d-1}/g_d, ..., g_{d-s}/g_d), zero-padded."""
    if g.is_zero():
        raise ValueError("top coefficients of the zero polynomial are undefined")
    d = int(g.degree)
    inv = field.inv_py[g.coeffs[-1]]
    mul = field.mul_py
    return tuple(mul[g.coeff(d - i)][inv] for i in range(1, s + 1))


class ShortIntervalCharacter(_TableCharacter):
    """Multiplicative, depends only on the s+1 highest coefficients, units -> 1."""

    def __init__(self, field: Field, s: int, structure, exponents: tuple):
        self.s = s
        # exponent per top-coefficient code
        super().__init__(field, structure, exponents, field.q ** s)

    @property
    def length(self) -> int:
        """Effective length: the least e <= s with the character trivial on
        the tuples (0, ..., 0, a_{e+1}, ..., a_s), whose codes are the
        multiples of q^e."""
        return next(e for e in range(self.s + 1) if not self.table[::self.field.q ** e].any())

    def _position(self, g: Poly) -> int:
        return _code(self.field, top_coefficient_tuple(self.field, g, self.s))

    def _positions(self, idx) -> np.ndarray:
        return top_codes(self.field, self.s, idx)

    def descriptor(self) -> dict:
        return {"s": self.s, "index": list(self.exponents),
                "orders": list(self.structure.orders)}

    def __repr__(self):
        return f"ShortIntervalCharacter(s={self.s}, index {self.exponents})"


def short_interval_character(field: Field, s: int, index: int) -> ShortIntervalCharacter:
    """Character `index` of `short_interval_characters(field, s)`, the only one built."""
    structure = r_s_group(field, s)
    return ShortIntervalCharacter(field, s, structure, character_exponents(structure, index))


def short_interval_characters(field: Field, s: int) -> list:
    """All q^s characters of R_s; index 0 is the trivial one."""
    structure = r_s_group(field, s)
    return [ShortIntervalCharacter(field, s, structure, exps)
            for exps in itertools.product(*(range(d) for d in structure.orders))]


# -- degree twists and unit characters ------------------------------------------


@dataclass(frozen=True)
class DegreeTwist:
    """e_theta: g -> exp(2*pi*i*theta*deg g); exact when theta is a Fraction."""

    theta: Fraction | float

    def turns(self, degree: int) -> Fraction:
        return (Fraction(self.theta) * degree) % 1

    def __call__(self, degree: int) -> complex:
        return turns_to_complex(self.turns(degree))


class UnitCharacter(_TableCharacter):
    """Character `index` of the cyclic group F_q^*, applied to the leading
    coefficient (zero at 0).

    Covers the alternative multiplicative completion of short-interval
    characters; the default Hayes product leaves it out (units -> 1).
    """

    def __init__(self, field: Field, index: int):
        structure = decompose_abelian_group(np.arange(1, field.q), lambda a, b:
                                            field.mul_table[a, b].astype(np.int64))
        self.index = index % (field.q - 1)
        # exponent per field element, -1 at 0
        super().__init__(field, structure, character_exponents(structure, self.index), field.q)

    def _position(self, c: int) -> int:
        return c

    def _positions(self, idx) -> np.ndarray:
        return idx // self.field.q ** np.maximum(degrees(self.field.q, idx), 0)


# -- Hayes products -------------------------------------------------------------


class HayesCharacter:
    """chi * xi * e_theta (optionally times a unit character on the lc)."""

    def __init__(self, field: Field, dirichlet: DirichletCharacter | None = None,
                 short: ShortIntervalCharacter | None = None,
                 twist: DegreeTwist | None = None,
                 unit: UnitCharacter | None = None):
        for part in (dirichlet, short, unit):
            if part is not None and part.field != field:
                raise ValueError("component over a different field")
        self.field = field
        self.dirichlet = dirichlet
        self.short = short
        self.twist = twist
        self.unit = unit

    @classmethod
    def trivial(cls, field: Field):
        return cls(field)

    def turns(self, g: Poly):
        """Total turns in [0,1), or None when the value is zero."""
        if g.is_zero():
            raise ValueError("Hayes characters are evaluated on nonzero polynomials")
        total = Fraction(0)
        if self.dirichlet is not None:
            t = self.dirichlet.turns(g)
            if t is None:
                return None
            total += t
        if self.short is not None:
            total += self.short.turns(g)
        if self.twist is not None:
            total += self.twist.turns(int(g.degree))
        if self.unit is not None:
            total += self.unit.turns(g.lc())
        return total % 1

    def __call__(self, g: Poly) -> complex:
        t = self.turns(g)
        if t is None:
            return 0j
        return turns_to_complex(t)

    def exponents_at(self, idx) -> tuple:
        """(L, k) on the index array `idx`: H at the polynomial of index
        idx[i] is exp(2 pi i (k[i]/L + twist turns at its degree)), or 0
        where k[i] = -1 (off the chi-units, and at the index 0).  L is the
        lcm of the component orders."""
        idx = np.asarray(idx, dtype=np.int64)
        parts = [(c.order, c.exponents_at(idx))
                 for c in (self.dirichlet, self.short, self.unit) if c is not None]
        L = math.lcm(*(order for order, _ in parts))
        k = np.zeros(len(idx), dtype=np.int64)
        for order, e in parts:
            k += e * (L // order)
        k %= L
        k[idx == 0] = -1
        if self.dirichlet is not None:
            k[parts[0][1] < 0] = -1         # off the chi-units
        return L, k

    def values_at(self, idx, op=None) -> np.ndarray:
        """[op(H(g)) for g at the index array `idx`] as a complex array, bit
        for bit (op(0j) at the index 0; op defaults to the identity).

        Each (degree, exponent) pair of `exponents_at` that occurs, coded
        deg * (L + 1) + k + 1 (k + 1 = 0 where the value is 0), gets one
        entry, made by the scalar expression: turns_to_complex of the exact
        total turns, then op (say `**k` or `.conjugate()`), so the lookup
        equals the scalar value for float theta too (Fraction(float) is
        exact).  The codes present are found by a bincount, not a sort.
        """
        L, k = self.exponents_at(idx)
        deg = np.maximum(degrees(self.field.q, idx), 0)

        def entry(code):
            d, c = divmod(code, L + 1)
            v = 0j
            if c > 0:
                t = Fraction(c - 1, L)
                if self.twist is not None:
                    t += self.twist.turns(d)
                v = turns_to_complex(t % 1)
            return v if op is None else op(v)

        return _lookup(deg * (L + 1) + k + 1, (int(deg.max(initial=0)) + 1) * (L + 1), entry)

    def descriptor(self) -> dict:
        theta = None
        if self.twist is not None:
            th = self.twist.theta
            theta = str(Fraction(th)) if isinstance(th, Fraction) else float(th)
        return {
            "dirichlet": self.dirichlet.descriptor() if self.dirichlet else None,
            "short": self.short.descriptor() if self.short else None,
            "theta": theta,
            "unit_index": self.unit.index if self.unit else None,
        }

    def __repr__(self):
        bits = []
        if self.dirichlet is not None:
            bits.append(f"chi(mod {self.dirichlet.modulus})[{self.dirichlet.exponents}]")
        if self.short is not None:
            bits.append(f"xi(s={self.short.s})[{self.short.exponents}]")
        if self.twist is not None:
            bits.append(f"e_{self.twist.theta}")
        if self.unit is not None:
            bits.append(f"unit[{self.unit.index}]")
        return "HayesCharacter(" + (" * ".join(bits) if bits else "trivial") + ")"
