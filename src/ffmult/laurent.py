"""Truncated Laurent tails and the linear forms they induce on F_q[x].

An element beta of the "torus" (Laurent series in 1/x with |beta| < 1) is
kept to finite depth M as the tuple (beta_{-1}, ..., beta_{-M}).  The map
g -> (beta*g)_{-1} = sum_j g_j * beta_{-j-1} is then exact for every g of
degree < M, and every linear functional on G_n arises from some tail of
depth >= n.  Composition with multiplication by a fixed polynomial stays
in the class: (beta * (a*g))_{-1} = ((beta*a) * g)_{-1}, see scale().
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .gn import _linear_map
from .polys import Poly


class LaurentTruncation:
    """beta in T kept to depth M >= 1; coeffs[i] is beta_{-(i+1)}."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs):
        t = tuple(int(c) for c in coeffs)
        if not t:
            raise ValueError("depth must be >= 1")
        if any(c < 0 or c >= field.q for c in t):
            raise ValueError("coefficient out of range")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", t)

    def __setattr__(self, *a):
        raise AttributeError("LaurentTruncation is immutable")

    @property
    def depth(self) -> int:
        return len(self.coeffs)

    @classmethod
    def coordinate(cls, field: Field, j: int, depth: int):
        """The functional g -> g_j, i.e. beta = x^{-(j+1)}."""
        if depth <= j:
            raise ValueError("depth must exceed the coordinate index")
        c = [0] * depth
        c[j] = 1
        return cls(field, c)

    @classmethod
    def random(cls, field: Field, depth: int, rng):
        return cls(field, [rng.randrange(field.q) for _ in range(depth)])

    @classmethod
    def from_rational(cls, a: Poly, b: Poly, depth: int):
        """Truncation of the fractional part of a/b to the given depth."""
        if b.is_zero():
            raise ZeroDivisionError("rational tail with zero denominator")
        field = a.field
        frac = a % b
        scaled = frac.shift(depth)
        quo = scaled // b
        return cls(field, [quo.coeff(depth - i) for i in range(1, depth + 1)])

    def coefficient(self, i: int) -> int:
        """beta_{-i} for 1 <= i <= depth."""
        if not 1 <= i <= self.depth:
            raise ValueError(f"coefficient index {i} outside stored depth {self.depth}")
        return self.coeffs[i - 1]

    def vanishes_through(self, n: int) -> bool:
        """True when beta_{-1} ... beta_{-n} are all zero."""
        if n > self.depth:
            raise ValueError("truncation too shallow to answer")
        return all(c == 0 for c in self.coeffs[:n])

    def scale(self, a: Poly, depth: int) -> "LaurentTruncation":
        """gamma = beta * a truncated to the given depth.

        gamma_{-i} = sum_j a_j beta_{-(i+j)}; needs source depth >= depth + deg a.
        Realizes g -> (beta * (a g))_{-1} as a plain linear form in g.
        """
        if a.field != self.field:
            raise ValueError("polynomial from a different field")
        if a.is_zero():
            return LaurentTruncation(self.field, (0,) * depth)
        need = depth + int(a.degree)
        if self.depth < need:
            raise ValueError(f"scaling needs depth {need}, have {self.depth}")
        F = self.field
        add, mul = F.add_py, F.mul_py
        out = []
        for i in range(1, depth + 1):
            acc = 0
            for j, aj in enumerate(a.coeffs):
                if aj:
                    acc = add[acc][mul[aj][self.coeffs[i + j - 1]]]
            out.append(acc)
        return LaurentTruncation(F, out)

    def __eq__(self, other):
        return (isinstance(other, LaurentTruncation) and other.field == self.field
                and other.coeffs == self.coeffs)

    def __hash__(self):
        return hash((self.field.q, self.coeffs))

    def __repr__(self):
        parts = [f"{c}*x^-{i+1}" for i, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0 (depth %d)" % self.depth


def linear_form(beta: LaurentTruncation, g: Poly) -> int:
    """(beta*g)_{-1}; exact because deg g < depth is enforced."""
    if g.field != beta.field:
        raise ValueError("mismatched fields")
    if not g.is_zero() and g.degree >= beta.depth:
        raise ValueError(f"deg g = {g.degree} needs depth > that, have {beta.depth}")
    F = beta.field
    add, mul = F.add_py, F.mul_py
    acc = 0
    for j, gj in enumerate(g.coeffs):
        if gj:
            acc = add[acc][mul[gj][beta.coeffs[j]]]
    return acc


def linear_form_table(beta: LaurentTruncation, n: int) -> np.ndarray:
    """Values of the linear form over all of G_n, in index order (int16).

    g -> (beta*g)_{-1} is F_p-linear from G_n to G_1: the image of the
    basis vector u^t x^j is u^t * beta_{-(j+1)}, so the table is one map
    of the `gn` linear-map engine."""
    F = beta.field
    if beta.depth < n:
        raise ValueError(f"depth {beta.depth} too shallow for G_{n}")
    images = F.mul_table[np.array(beta.coeffs[:n], dtype=np.intp)[:, None],
                         F.p ** np.arange(F.r)].astype(np.int64)
    return _linear_map(F, images.reshape(F.r * n, 1), 1)[0].astype(np.int16)
