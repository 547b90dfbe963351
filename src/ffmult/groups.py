"""Generic finite abelian group decomposition.

Takes any enumerated universe with a black-box operation and produces
generators in elementary-divisor form: orders d_1 >= d_2 >= ... with each
d_{i+1} dividing d_i, so the group is the direct product of the cyclic
subgroups the generators span.  The construction is the textbook one:
extract an element of maximal order (= the exponent), split the group as
a direct factor by correcting lifts from the quotient, recurse.

The discrete-log table is built by enumerating every product of generator
powers; a collision there would mean the decomposition failed, so the
reconstruction doubles as verification.  Non-group inputs (no identity,
missing inverses, closure failures) are detected during order computation
and rejected.  `fields.factor_int` and `fields.power` do the arithmetic.
The callers charge the size of the universe to their field's budget
before they build it; nothing here is capped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import factor_int, power


@dataclass(frozen=True)
class AbelianGroupStructure:
    elements: tuple
    identity: object
    generators: tuple
    orders: tuple
    dlog: dict          # element -> exponent tuple
    element_of: dict    # exponent tuple -> element

    @property
    def size(self) -> int:
        return len(self.elements)

    def op(self, a, b):
        ea, eb = self.dlog[a], self.dlog[b]
        return self.element_of[tuple((x + y) % d for x, y, d in zip(ea, eb, self.orders))]


class _GroupView:
    """Internal working view used during decomposition."""

    def __init__(self, elements, op):
        self.elements = tuple(elements)
        self.op = op
        self.elset = set(self.elements)
        if len(self.elset) != len(self.elements):
            raise ValueError("duplicate elements in universe")
        self.identity = self._find_identity()

    def _find_identity(self):
        x0 = self.elements[0]
        for cand in self.elements:
            if self.op(cand, x0) == x0:
                if all(self.op(cand, y) == y for y in self.elements):
                    return cand
        raise ValueError("universe has no identity element: not a group")

    def power(self, a, e: int):
        return power(self.op, self.identity, a, e)

    def order_by_cycling(self, a) -> int:
        x, k = a, 1
        n = len(self.elements)
        while x != self.identity:
            if x not in self.elset:
                raise ValueError("operation leaves the universe: not a group")
            x = self.op(x, a)
            k += 1
            if k > n:
                raise ValueError("element has no finite order reaching "
                                 "the identity: not a group")
        return k

    def exponent(self) -> int:
        lam = 1
        for a in self.elements:
            if self.power(a, lam) != self.identity:
                lam = math.lcm(lam, self.order_by_cycling(a))
        return lam

    def max_order_element(self, lam: int):
        primes = [pr for pr, _ in factor_int(lam)]
        for a in self.elements:
            if self.power(a, lam) != self.identity:
                raise AssertionError("exponent was not an exponent")
            if all(self.power(a, lam // pr) != self.identity for pr in primes):
                return a
        raise AssertionError("abelian group without an element of maximal order")


def _decompose(view: _GroupView):
    """Returns (generators, orders) with orders a divisibility chain."""
    if len(view.elements) == 1:
        return (), ()
    lam = view.exponent()
    g1 = view.max_order_element(lam)
    # cosets of <g1>
    h_powers = [view.identity]
    x = g1
    while x != view.identity:
        h_powers.append(x)
        x = view.op(x, g1)
    d1 = len(h_powers)
    dlog_h = {h: t for t, h in enumerate(h_powers)}
    rep_of = {}
    reps = []
    for el in view.elements:
        if el in rep_of:
            continue
        reps.append(el)
        for h in h_powers:
            rep_of[view.op(el, h)] = el

    def q_op(a, b):
        return rep_of[view.op(a, b)]

    sub_view = _GroupView(reps, q_op)
    sub_gens, sub_orders = _decompose(sub_view)

    g1_inv = view.power(g1, d1 - 1)
    lifted = []
    for gen, d in zip(sub_gens, sub_orders):
        z = view.power(gen, d)            # lands in <g1>
        t = dlog_h[z]
        if t % d != 0:
            raise AssertionError("lift correction failed: order anomaly")
        corr = view.power(g1_inv, t // d)
        lifted.append(view.op(gen, corr))
    return (g1, *lifted), (d1, *sub_orders)


def decompose_abelian_group(elements, op) -> AbelianGroupStructure:
    """Elementary-divisor decomposition of a finite abelian group.

    `elements` is any enumerable of hashables, `op` the group operation.
    The returned structure carries the dlog table for every element; its
    construction re-generates the whole group from the generators, which
    verifies the decomposition.
    """
    elements = tuple(elements)
    view = _GroupView(elements, op)
    gens, orders = _decompose(view)

    if math.prod(orders) != len(elements):
        raise AssertionError("generator orders do not multiply to the group size")
    for a, b in zip(orders, orders[1:]):
        if a % b != 0:
            raise AssertionError("orders do not form a divisibility chain")

    element_of = {(): view.identity}
    for i, (g, d) in enumerate(zip(gens, orders)):
        new = {}
        for exps, el in element_of.items():
            acc = el
            for t in range(d):
                new[exps + (t,)] = acc
                acc = view.op(acc, g)
        element_of = new
    if len(element_of) != len(elements) or set(element_of.values()) != view.elset:
        raise AssertionError("reconstruction from generators failed to cover the group")
    dlog = {el: exps for exps, el in element_of.items()}
    return AbelianGroupStructure(elements=view.elements, identity=view.identity,
                                 generators=gens, orders=orders,
                                 dlog=dlog, element_of=element_of)
