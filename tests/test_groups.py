import itertools

import pytest

from ffmult.groups import decompose_abelian_group


def test_cyclic_group():
    g = decompose_abelian_group(range(12), lambda a, b: (a + b) % 12)
    assert g.orders == (12,)
    assert g.size == 12
    assert g.dlog[g.identity] == (0,)


def test_product_group_elementary_divisors():
    elems = [(i, j) for i in range(2) for j in range(4)]
    g = decompose_abelian_group(elems, lambda a, b: ((a[0] + b[0]) % 2,
                                                     (a[1] + b[1]) % 4))
    assert g.orders == (4, 2)
    # divisibility chain and total size
    assert g.orders[0] % g.orders[1] == 0


def test_klein_four():
    elems = list(itertools.product(range(2), repeat=2))
    g = decompose_abelian_group(elems, lambda a, b: ((a[0] ^ b[0]), (a[1] ^ b[1])))
    assert g.orders == (2, 2)


def test_trivial_group():
    g = decompose_abelian_group([()], lambda a, b: ())
    assert g.generators == () and g.orders == ()
    assert g.dlog == {(): ()}


def test_dlog_reconstructs_operation():
    elems = list(range(9))
    g = decompose_abelian_group(elems, lambda a, b: (a + b) % 9)
    for a, b in itertools.product(elems, repeat=2):
        assert g.op(a, b) == (a + b) % 9


def test_non_group_is_rejected():
    # multiplication mod 12 on 1..11 has non-invertible elements
    with pytest.raises(ValueError):
        decompose_abelian_group(range(1, 12), lambda a, b: (a * b) % 12)


def test_mixed_torsion():
    # Z_6 x Z_2 has elementary divisors (6, 2)
    elems = [(i, j) for i in range(6) for j in range(2)]
    g = decompose_abelian_group(elems, lambda a, b: ((a[0] + b[0]) % 6,
                                                     (a[1] + b[1]) % 2))
    assert g.orders == (6, 2)
    # every element's exponent vector reproduces it through the generators
    for el, exps in g.dlog.items():
        acc = g.identity
        for gen, d, e in zip(g.generators, g.orders, exps):
            for _ in range(e):
                acc = ((acc[0] + gen[0]) % 6, (acc[1] + gen[1]) % 2)
        assert acc == el
