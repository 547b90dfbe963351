"""Finite abelian group decomposition on int codes.

A group is given by its elements, int codes >= 0 in an enumeration order,
and an elementwise operation on code arrays: op(a, b) maps two equal-length
int64 arrays to the array of their products.  The decomposition yields
generators in elementary-divisor form: orders d_1 >= d_2 >= ... with each
d_{i+1} dividing d_i, so the group is the direct product of the cyclic
subgroups the generators span.  The construction is the textbook one:
extract an element of maximal order (= the exponent), split the group as
a direct factor by correcting lifts from the quotient, recurse.  Each step
works on whole arrays of positions in the enumeration order, and its
choices are fixed by that order:

* the identity is the first element that acts as one;
* the exponent is the lcm of the orders of a prefix of the elements,
  grown until one power of every element verifies it, and g_1 is the
  first element of that order;
* <g_1> is built by doubling, g^(t+B) = g^t g^B over a block of B powers;
* each coset of <g_1> is an orbit of x -> x g_1, represented by its first
  member, found for every element at once by pointer doubling;
* the quotient's elements are the representatives in enumeration order,
  and its operation is the representative of the product.

The discrete-log table is built by enumerating every product of generator
powers, the first generator slowest; a collision there would mean the
decomposition failed, so the reconstruction doubles as verification.
Non-group inputs (duplicates, no identity, closure failures, an element of
no finite order) are rejected.  `fields.factor_int` and `fields.power` do
the arithmetic.  The callers charge the size of the universe to their
field's budget before they build it; nothing here is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import factor_int, power

# the elements whose orders are computed before one power of all of them
# verifies the exponent (quadrupled until it does)
_PREFIX = 64


@dataclass(frozen=True, eq=False)
class AbelianGroupStructure:
    elements: np.ndarray    # int64 codes, enumeration order
    identity: int
    generators: tuple
    orders: tuple
    size: int
    op: object              # (int64 codes, int64 codes) -> int64 codes
    dlog: np.ndarray        # (size, rank) exponents of elements[i], the least uint dtype


def _identity(op, n: int) -> int:
    """The first of the n positions that acts as one."""
    every = np.arange(n)
    for cand in np.flatnonzero(op(every, np.zeros(n, dtype=np.int64)) == 0).tolist():
        if np.array_equal(op(np.full(n, cand), every), every):
            return cand
    raise ValueError("universe has no identity element: not a group")


def _exponent(op, n: int, one: int) -> tuple:
    """(lambda, g_1): the exponent of the group of n positions and its first
    element of that order."""
    primes = factor_int(n)
    k = min(n, _PREFIX)
    while True:
        a, ones = np.arange(k), np.full(k, one)
        if (power(op, ones, a, n) != one).any():
            raise ValueError("element has no finite order reaching the identity: not a group")
        orders = np.ones(k, dtype=np.int64)
        for pr, mult in primes:
            b = power(op, ones, a, n // pr ** mult)
            for _ in range(mult):           # the pr-part of each order
                orders[b != one] *= pr
                b = power(op, ones, b, pr)
        lam = math.lcm(*orders.tolist())
        if (orders == lam).any() and (
                k == n or (power(op, np.full(n, one), np.arange(n), lam) == one).all()):
            return lam, int(np.argmax(orders == lam))
        if k == n:
            raise AssertionError("abelian group without an element of maximal order")
        k = min(n, 4 * k)


def _cyclic(op, g: int, one: int, d: int) -> np.ndarray:
    """The positions of g^t, t < d, by doubling."""
    h, top = np.array([one]), np.array([g])     # top = g^len(h)
    while len(h) < d:
        block = h[:d - len(h)]
        h = np.concatenate([h, op(block, np.repeat(top, len(block)))])
        top = op(top, top)
    return h


def _decompose(op, n: int) -> tuple:
    """(identity, generators, orders) of the group of the positions 0..n-1
    under op, orders a divisibility chain."""
    one = _identity(op, n)
    if n == 1:
        return one, (), ()
    lam, g1 = _exponent(op, n, one)
    h = _cyclic(op, g1, one, lam)
    # the cosets of <g1>: least[x] is the first member of the orbit of x
    # under x -> x g1, from ever longer stretches of it
    step, least, span = op(np.arange(n), np.full(n, g1)), np.arange(n), 1
    while span < lam:
        least = np.minimum(least, least[step])
        step, span = step[step], 2 * span
    first = least == np.arange(n)
    reps, label = np.flatnonzero(first), (np.cumsum(first) - 1)[least]
    _, sub_gens, sub_orders = _decompose(lambda a, b: label[op(reps[a], reps[b])], len(reps))
    # the lifts, on arrays of one position
    ones, g1_inv = np.array([one]), power(op, np.array([one]), np.array([g1]), lam - 1)
    lifted = []
    for gen, d in zip(sub_gens, sub_orders):
        t = np.flatnonzero(h == power(op, ones, reps[[gen]], d)[0])     # lands in <g1>
        if not t.size or t[0] % d != 0:
            raise AssertionError("lift correction failed: order anomaly")
        lifted.append(int(op(reps[[gen]], power(op, ones, g1_inv, int(t[0]) // d))[0]))
    return one, (g1, *lifted), (lam, *sub_orders)


def decompose_abelian_group(elements, op) -> AbelianGroupStructure:
    """Elementary-divisor decomposition of a finite abelian group.

    `elements` are the int codes >= 0 of the group in enumeration order,
    `op` maps two equal-length int64 code arrays to their products.  The
    returned structure carries the dlog row of every element; its
    construction re-generates the whole group from the generators, which
    verifies the decomposition.
    """
    elements = np.array(elements, dtype=np.int64).reshape(-1)
    n = len(elements)
    if not n or elements.min() < 0:
        raise ValueError("a universe is a nonempty array of codes >= 0")
    at = np.full(int(elements.max()) + 1, -1, dtype=np.min_scalar_type(-n))  # -1, 0..n-1
    at[elements] = np.arange(n)
    if not np.array_equal(at[elements], np.arange(n)):
        raise ValueError("duplicate elements in universe")

    def position_op(a, b):
        c = op(elements[a], elements[b])
        if c.size and (c.min() < 0 or c.max() >= len(at) or (at[c] < 0).any()):
            raise ValueError("operation leaves the universe: not a group")
        return at[c]

    one, gens, orders = _decompose(position_op, n)
    if math.prod(orders) != n:
        raise AssertionError("generator orders do not multiply to the group size")
    if any(a % b for a, b in zip(orders, orders[1:])):
        raise AssertionError("orders do not form a divisibility chain")

    # every product of generator powers, the first generator slowest
    made = np.array([one])
    for g, d in zip(gens, orders):
        powers = _cyclic(position_op, g, one, d)
        made = position_op(np.repeat(made, d), np.tile(powers, len(made)))
    if not (np.bincount(made, minlength=n) == 1).all():
        raise AssertionError("reconstruction from generators failed to cover the group")
    dlog = np.empty((n, len(orders)), dtype=np.min_scalar_type(max(orders, default=0)))
    rest = np.arange(n)
    for i in reversed(range(len(orders))):
        rest, dlog[made, i] = np.divmod(rest, orders[i])
    elements.flags.writeable = dlog.flags.writeable = False
    return AbelianGroupStructure(elements=elements, identity=int(elements[one]),
                                 generators=tuple(int(elements[g]) for g in gens),
                                 orders=tuple(orders), size=n, op=op, dlog=dlog)
