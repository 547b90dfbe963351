"""Exact arithmetic for the finite field F_q, q = p^r.

Field elements are encoded as integers in [0, q): the element
c_0 + c_1*u + ... + c_{r-1}*u^{r-1} (u = class of x modulo the defining
polynomial) is encoded as c_0 + c_1*p + ... + c_{r-1}*p^{r-1}.  With this
encoding, addition is digit-wise mod p and multiplication is table-driven,
so every operation on encoded elements is a lookup; numpy fancy indexing
on the same tables gives the vectorized paths used by the statistics
modules.

The defining polynomial is the lexicographically least monic irreducible
of degree r over F_p (least = smallest base-p encoding of the non-leading
coefficients), so a field is reproducible from (p, r) alone: the least
index p^r + sum_j c_j p^j the F_p[x] sieve `polys.irreducible_indices`
leaves at degree r.  q is at most MAX_Q = 512.  `factor_int` (integer
trial division) and `power` (square and multiply) serve the whole package.

Additive characters are t -> exp(2*pi*i*Tr(s*t)/p); their values are kept
as exact exponents k mod p and converted to complex only at aggregation
boundaries (the `roots` table maps exponents to floats deterministically).
`roots` serves additive characters only: every multiplicative character
value is `characters.turns_to_complex` of its exact turns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError

# the default of Field.enumeration_budget and of budget.max_evals_per_n
DEFAULT_BUDGET = 2_000_000

# the largest q with table-driven arithmetic: each table is q x q
MAX_Q = 512


def factor_int(n: int) -> list[tuple[int, int]]:
    """The prime factorization [(prime, exponent), ...] of n >= 1 by trial
    division, primes ascending ([] for n = 1)."""
    out, f = [], 2
    while f * f <= n:
        if n % f == 0:
            k = 0
            while n % f == 0:
                n //= f
                k += 1
            out.append((f, k))
        f += 1
    if n > 1:
        out.append((n, 1))
    return out


def is_prime(n: int) -> bool:
    return n >= 2 and factor_int(n) == [(n, 1)]


def power(op, one, a, e: int):
    """a^e for e >= 0 under the associative `op` with identity `one`."""
    if e < 0:
        raise ValueError("negative exponent")
    acc = one
    while e:
        if e & 1:
            acc = op(acc, a)
        a = op(a, a)
        e >>= 1
    return acc


def within_table_limit(p: int, r: int) -> bool:
    """q = p^r <= MAX_Q for p >= 2 and r >= 1, with no huge p^r formed:
    q >= 2^r, so an r of MAX_Q's bit length or more is already over."""
    return r < MAX_Q.bit_length() and p ** r <= MAX_Q


class Field:
    """F_{p^r} with table-driven arithmetic on int-encoded elements."""

    def __init__(self, p: int, r: int, enumeration_budget: int = DEFAULT_BUDGET):
        if r < 1:
            raise ValueError(f"extension degree r = {r} must be >= 1")
        # the limit before primality, which is trial division
        if not within_table_limit(p, r):
            raise ValueError(f"q = {p}^{r} is over {MAX_Q}, too large for "
                             f"table-driven arithmetic")
        if not is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        self.p, self.r, self.q = p, r, p ** r
        least = p                   # the index of x, the modulus of F_p
        if r > 1:                   # polys imports this module
            from .polys import irreducible_indices
            least = int(irreducible_indices(Field(p, 1), r)[0])
        self.modulus = tuple(least // p ** j % p for j in range(r + 1))
        self.enumeration_budget = enumeration_budget
        self._build_tables()
        # exp(2*pi*i*k/p) for exponent->complex conversion at sum time
        self.roots = _exact_roots(p)
        # lazy caches owned by polys.py (irreducible tables) — see that module;
        # multiplicative.function_on_gn fills the index arrays from its own sieve
        self._irreducibles: dict[int, tuple] = {}
        self._irreducible_indices: dict[int, np.ndarray] = {}
        self._factor_memo: dict = {}

    # -- construction ------------------------------------------------------

    def _build_tables(self):
        p, r, q = self.p, self.r, self.q
        weights = p ** np.arange(r)
        digits = np.arange(q)[:, None] // weights % p       # (q, r) coordinates
        add = ((digits[:, None] + digits) % p @ weights).astype(np.int16)
        self.add_table = add
        self.neg_table = (-digits % p @ weights).astype(np.int16)

        # shifts[i]: the digits of u^i * b for every b, from u * (u^(i-1) b)
        # with u^r = -(m_0 + m_1 u + ... + m_{r-1} u^(r-1)) (m the modulus)
        low = -np.array(self.modulus[:r]) % p
        shifts = np.empty((r, q, r), dtype=np.int64)
        shifts[0] = digits
        for i in range(1, r):
            shifts[i] = shifts[i - 1, :, r - 1:] * low
            shifts[i, :, 1:] += shifts[i - 1, :, :-1]
            shifts[i] %= p
        # the digits of a*b are sum_i a_i (u^i b) mod p: one matrix product
        prod = digits @ shifts.reshape(r, q * r) % p
        mul = (prod.reshape(q, q, r) @ weights).astype(np.int16)
        self.mul_table = mul

        # the one b with a*b = 1 in each row a >= 1 (inv[0] = 0)
        inv = np.zeros(q, dtype=np.int16)
        rows, cols = np.nonzero(mul == 1)
        inv[rows] = cols
        self.inv_table = inv

        # Tr(a) = a + a^p + ... + a^(p^(r-1)), with a -> a^p one array
        codes = np.arange(q)
        frobenius = power(lambda x, y: mul[x, y], np.ones(q, dtype=np.int16), codes, p)
        trace = np.zeros(q, dtype=np.int16)
        for _ in range(r):
            trace = add[trace, codes]
            codes = frobenius[codes]
        self.trace_table = trace
        if not np.all(trace < self.p):
            raise AssertionError("trace values must lie in the prime field")

        # plain-list views: ~4x faster than numpy scalar indexing in the
        # coefficient-at-a-time polynomial loops
        self.add_py = add.tolist()
        self.mul_py = mul.tolist()
        self.neg_py = self.neg_table.tolist()
        self.inv_py = inv.tolist()
        self.trace_py = trace.tolist()

    # -- scalar operations on encoded elements -----------------------------

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def sub(self, a: int, b: int) -> int:
        return int(self.add_table[a, self.neg_table[b]])

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse")
        return int(self.inv_table[a])

    def pow_(self, a: int, e: int) -> int:
        return power(lambda x, y: self.mul_py[x][y], 1, a, e)

    def trace(self, a: int) -> int:
        """Tr(a) = sum of a^(p^i), returned as an integer in [0, p)."""
        return int(self.trace_table[a])

    # -- characters ---------------------------------------------------------

    def char_exponent(self, s: int, t: int) -> int:
        """Exponent k of exp(2*pi*i*k/p) for the additive character alpha_s(t)."""
        return int(self.trace_table[self.mul_table[s, t]])

    def additive_character(self, s: int):
        """t -> exp(2*pi*i*Tr(t*s)/p) as a callable on encoded elements."""
        roots, table = self.roots, self.trace_table
        mul_row = self.mul_table[s]

        def alpha(t: int) -> complex:
            return complex(roots[table[mul_row[t]]])

        return alpha

    def charge(self, count: int, what: str):
        """Refuse `count` elements or operations of `what` over the budget."""
        if count > self.enumeration_budget:
            raise BudgetError(f"{what} needs {count}, over the enumeration budget "
                              f"{self.enumeration_budget}")

    # -- misc ---------------------------------------------------------------

    def coords(self, a: int) -> tuple[int, ...]:
        return tuple((a // self.p ** i) % self.p for i in range(self.r))

    def from_coords(self, coords) -> int:
        return sum(c % self.p * self.p ** i for i, c in enumerate(coords))

    def element(self, code: int) -> "FieldElement":
        return FieldElement(self, code % self.q)

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.r, self.modulus) == (other.p, other.r, other.modulus))

    def __hash__(self):
        return hash((self.p, self.r, self.modulus))

    def __repr__(self):
        return f"F_{self.q}" if self.r == 1 else f"F_{self.q} (= F_{self.p}^{self.r})"


def _exact_roots(order: int) -> np.ndarray:
    """exp(2*pi*i*k/order), with quarter-turn values snapped to exact floats."""
    roots = np.exp(2j * np.pi * np.arange(order) / order)
    for num, val in ((0, 1), (1, 1j), (2, -1), (3, -1j)):
        if (num * order) % 4 == 0:
            roots[num * order // 4] = val
    return roots


@dataclass(frozen=True)
class FieldElement:
    """Operator sugar over an encoded element; handy in demos and axiom tests."""

    field: Field
    code: int

    def _lift(self, other) -> int:
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise ValueError("elements of different fields")
            return other.code
        # plain ints land in the prime subfield: n -> n * 1
        return int(other) % self.field.p

    def __add__(self, other):
        return FieldElement(self.field, self.field.add(self.code, self._lift(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return FieldElement(self.field, self.field.sub(self.code, self._lift(other)))

    def __neg__(self):
        return FieldElement(self.field, self.field.neg(self.code))

    def __mul__(self, other):
        return FieldElement(self.field, self.field.mul(self.code, self._lift(other)))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return FieldElement(self.field, self.field.mul(self.code, self.field.inv(self._lift(other))))

    def __pow__(self, e: int):
        return FieldElement(self.field, self.field.pow_(self.code, e))

    def trace(self) -> int:
        return self.field.trace(self.code)

    def __repr__(self):
        if self.field.r == 1:
            return str(self.code)
        parts = []
        for i, c in enumerate(self.field.coords(self.code)):
            if c == 0:
                continue
            pw = "" if i == 0 else ("u" if i == 1 else f"u^{i}")
            parts.append(f"{c}" if i == 0 else (pw if c == 1 else f"{c}{pw}"))
        return "+".join(reversed(parts)) if parts else "0"


def build_field(p: int, r: int, enumeration_budget: int = DEFAULT_BUDGET) -> Field:
    """Construct F_{p^r} with a deterministically chosen defining polynomial."""
    return Field(p, r, enumeration_budget)
