import itertools
import math

import numpy as np
import pytest

from ffmult.characters import UnitCharacter, _code, r_s_group, unit_group
from ffmult.fields import build_field, factor_int, is_prime, power
from ffmult.groups import decompose_abelian_group
from ffmult.polys import Poly, poly_gcd


# -- the oracle: the decomposition over hashables and a scalar op ---------------


class _GroupView:
    """A universe of hashables under a scalar op, as the oracle works on it."""

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
                raise ValueError("element has no finite order reaching the identity: not a group")
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


def _oracle_decompose(view: _GroupView):
    if len(view.elements) == 1:
        return (), ()
    lam = view.exponent()
    g1 = view.max_order_element(lam)
    h_powers = [view.identity]
    x = g1
    while x != view.identity:
        h_powers.append(x)
        x = view.op(x, g1)
    d1 = len(h_powers)
    dlog_h = {h: t for t, h in enumerate(h_powers)}
    rep_of, reps = {}, []
    for el in view.elements:
        if el in rep_of:
            continue
        reps.append(el)
        for h in h_powers:
            rep_of[view.op(el, h)] = el
    sub_gens, sub_orders = _oracle_decompose(
        _GroupView(reps, lambda a, b: rep_of[view.op(a, b)]))
    g1_inv = view.power(g1, d1 - 1)
    lifted = []
    for gen, d in zip(sub_gens, sub_orders):
        t = dlog_h[view.power(gen, d)]
        assert t % d == 0, "lift correction failed: order anomaly"
        lifted.append(view.op(gen, view.power(g1_inv, t // d)))
    return (g1, *lifted), (d1, *sub_orders)


def oracle_group(elements, op) -> tuple:
    """(elements, identity, generators, orders, dlog dict) by the
    decomposition over hashables with a scalar op, dlog from the dict of
    every product of generator powers, the first generator slowest."""
    view = _GroupView(elements, op)
    gens, orders = _oracle_decompose(view)
    assert math.prod(orders) == len(view.elements)
    element_of = {(): view.identity}
    for g, d in zip(gens, orders):
        new = {}
        for exps, el in element_of.items():
            acc = el
            for t in range(d):
                new[exps + (t,)] = acc
                acc = view.op(acc, g)
        element_of = new
    assert len(element_of) == len(view.elements) and set(element_of.values()) == view.elset
    dlog = {el: exps for exps, el in element_of.items()}
    return view.elements, view.identity, gens, orders, dlog


def assert_same_group(structure, elements, identity, gens, orders, dlog, code=lambda x: x):
    assert structure.elements.tolist() == [code(x) for x in elements]
    assert structure.identity == code(identity)
    assert structure.generators == tuple(code(g) for g in gens)
    assert structure.orders == orders
    assert structure.dlog.shape == (len(elements), len(orders))
    assert structure.dlog.tolist() == [list(dlog[x]) for x in elements]


def _oracle_unit_group(field, modulus):
    modulus = modulus.monic()
    units = [h for h in (Poly.from_index(field, i) for i in range(field.q ** int(modulus.degree)))
             if poly_gcd(h, modulus) == Poly.one(field)]
    return oracle_group(units, lambda a, b: (a * b) % modulus)


def _oracle_r_s_group(field, s):
    add, mul = field.add_py, field.mul_py

    def op(a, b):
        c = []
        for k in range(1, s + 1):
            acc = add[a[k - 1]][b[k - 1]]
            for i in range(1, k):
                acc = add[acc][mul[a[i - 1]][b[k - i - 1]]]
            c.append(acc)
        return tuple(c)

    return oracle_group(list(itertools.product(range(field.q), repeat=s)), op)


# (p, r) -> the largest modulus degree and the largest s of the equality grid
GROUP_GRID = {(2, 1): (6, 6), (3, 1): (4, 4), (2, 2): (3, 3), (5, 1): (3, 3), (7, 1): (0, 2)}


@pytest.mark.parametrize("pr", sorted(GROUP_GRID))
def test_unit_groups_equal_the_oracle(pr):
    # every monic modulus of degree <= the grid's, the constant 1 included
    field = build_field(*pr)
    top, _ = GROUP_GRID[pr]
    count = 0
    for d in range(top + 1):
        for idx in range(field.q ** d):
            low = Poly.from_index(field, idx).coeffs
            modulus = Poly(field, low + (0,) * (d - len(low)) + (1,))
            assert_same_group(unit_group(field, modulus), *_oracle_unit_group(field, modulus),
                              code=Poly.to_index)
            count += d > 0
    assert count == sum(field.q ** d for d in range(1, top + 1))


@pytest.mark.parametrize("pr", sorted(GROUP_GRID))
def test_r_s_groups_equal_the_oracle(pr):
    # R_0 .. R_s: 23 groups over the grid's five fields
    field = build_field(*pr)
    for s in range(GROUP_GRID[pr][1] + 1):
        assert_same_group(r_s_group(field, s), *_oracle_r_s_group(field, s),
                          code=lambda a: _code(field, a))


def test_unit_character_groups_equal_the_oracle():
    fields = [(p, r) for p in range(2, 513) if is_prime(p)
              for r in range(1, 10) if p ** r <= 512]
    assert len(fields) == 117
    for p, r in fields:
        field = build_field(p, r)
        mul = field.mul_py
        assert_same_group(UnitCharacter(field, 0).structure,
                          *oracle_group(range(1, field.q), lambda a, b: mul[a][b]))


# -- the decomposition on codes --------------------------------------------------


def test_cyclic_group():
    g = decompose_abelian_group(range(12), lambda a, b: (a + b) % 12)
    assert g.orders == (12,)
    assert g.size == 12
    assert g.dlog[g.elements.tolist().index(g.identity)].tolist() == [0]


def test_product_group_elementary_divisors():
    # (i, j) in Z_2 x Z_4 as the code 4 i + j
    elems = [4 * i + j for i in range(2) for j in range(4)]
    g = decompose_abelian_group(elems, lambda a, b: (a // 4 + b // 4) % 2 * 4 + (a + b) % 4)
    assert g.orders == (4, 2)
    # divisibility chain and total size
    assert g.orders[0] % g.orders[1] == 0


def test_klein_four():
    elems = [2 * i + j for i, j in itertools.product(range(2), repeat=2)]
    g = decompose_abelian_group(elems, lambda a, b: a ^ b)
    assert g.orders == (2, 2)


def test_trivial_group():
    g = decompose_abelian_group([0], lambda a, b: a * 0)
    assert g.generators == () and g.orders == ()
    assert g.elements.tolist() == [0] and g.identity == 0 and g.dlog.shape == (1, 0)


def test_dlog_reconstructs_operation():
    elems = list(range(9))
    g = decompose_abelian_group(elems, lambda a, b: (a + b) % 9)
    a, b = (np.array(v) for v in zip(*itertools.product(elems, repeat=2)))
    where = {el: i for i, el in enumerate(g.elements.tolist())}
    # the dlogs add mod the orders, and the op is the one given
    sums = (g.dlog[[where[x] for x in a.tolist()]] + g.dlog[[where[x] for x in b.tolist()]]) % 9
    assert (sums == g.dlog[[where[x] for x in ((a + b) % 9).tolist()]]).all()
    assert g.op(a, b).tolist() == ((a + b) % 9).tolist()


def test_non_group_is_rejected():
    # multiplication mod 12 on 1..11 has non-invertible elements
    with pytest.raises(ValueError):
        decompose_abelian_group(range(1, 12), lambda a, b: (a * b) % 12)


@pytest.mark.parametrize("elements,op,problem", [
    ([1, 2, 2], lambda a, b: a, "duplicate"),
    ([0, 1], lambda a, b: np.ones_like(a), "no identity"),
    ([0, 1, 2], lambda a, b: (a + b) % 4, "leaves the universe"),
    ([0, 1, 2], np.maximum, "no finite order"),
    ([], lambda a, b: a, "nonempty"),
])
def test_each_kind_of_non_group_is_rejected(elements, op, problem):
    with pytest.raises(ValueError, match=problem):
        decompose_abelian_group(elements, op)


def test_mixed_torsion():
    # Z_6 x Z_2 has elementary divisors (6, 2); (i, j) is the code 2 i + j
    elems = [2 * i + j for i in range(6) for j in range(2)]
    g = decompose_abelian_group(elems, lambda a, b: (a // 2 + b // 2) % 6 * 2 + (a + b) % 2)
    assert g.orders == (6, 2)
    # every element's exponent vector reproduces it through the generators
    for el, exps in zip(g.elements.tolist(), g.dlog.tolist()):
        acc = (g.identity // 2, g.identity % 2)
        for gen, d, e in zip(g.generators, g.orders, exps):
            for _ in range(e):
                acc = ((acc[0] + gen // 2) % 6, (acc[1] + gen % 2) % 2)
        assert 2 * acc[0] + acc[1] == el


def test_small_groups_equal_the_oracle():
    cases = [(range(12), lambda a, b: (a + b) % 12),
             ([4 * i + j for i in range(2) for j in range(4)],
              lambda a, b: (a // 4 + b // 4) % 2 * 4 + (a + b) % 4),
             ([2 * i + j for i in range(6) for j in range(2)],
              lambda a, b: (a // 2 + b // 2) % 6 * 2 + (a + b) % 2),
             # the identity 0 listed late, the group Z_3 x Z_3 x Z_9 by codes
             ([5, 3, 0, 7] + [c for c in range(81) if c not in (5, 3, 0, 7)],
              lambda a, b: ((a // 27 + b // 27) % 3 * 27 + (a // 9 % 3 + b // 9 % 3) % 3 * 9
                            + (a % 9 + b % 9) % 9))]
    for elements, op in cases:
        elements = list(elements)

        def scalar(a, b, op=op):
            return int(op(np.array([a]), np.array([b]))[0])

        assert_same_group(decompose_abelian_group(elements, op), *oracle_group(elements, scalar))
