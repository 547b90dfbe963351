import ast
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

import ffmult
from ffmult.fields import FieldElement, build_field, is_prime


FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2)]


@pytest.mark.parametrize("p,r", FIELDS)
def test_field_axioms_full_tables(p, r):
    F = build_field(p, r)
    q = F.q
    for a, b in itertools.product(range(q), repeat=2):
        assert F.add(a, b) == F.add(b, a)
        assert F.mul(a, b) == F.mul(b, a)
        assert F.add(a, F.neg(a)) == 0
    for a, b, c in itertools.product(range(q), repeat=3):
        assert F.add(F.add(a, b), c) == F.add(a, F.add(b, c))
        assert F.mul(F.mul(a, b), c) == F.mul(a, F.mul(b, c))
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    for a in range(1, q):
        assert F.mul(a, F.inv(a)) == 1
    assert F.mul(1, 1) == 1 and F.add(0, 0) == 0


def test_modulus_is_deterministic_and_expected():
    assert build_field(2, 2).modulus == (1, 1, 1)      # u^2+u+1, the only one
    assert build_field(3, 2).modulus == (1, 0, 1)      # x^2+1 is least
    assert build_field(2, 1).modulus == (0, 1)
    # rebuilding gives the same modulus
    assert build_field(5, 2).modulus == build_field(5, 2).modulus


def test_construction_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_field(4, 1)
    with pytest.raises(ValueError):
        build_field(2, 0)
    assert not is_prime(1) and is_prime(2) and is_prime(97) and not is_prime(91)


@pytest.mark.parametrize("p,r", FIELDS)
def test_trace_is_additive_and_lands_in_prime_field(p, r):
    F = build_field(p, r)
    for a in range(F.q):
        assert 0 <= F.trace(a) < p
    for a, b in itertools.product(range(F.q), repeat=2):
        assert F.trace(F.add(a, b)) == (F.trace(a) + F.trace(b)) % p


def test_trace_values_in_f4():
    F4 = build_field(2, 2)
    u = 2  # encoding of u
    assert F4.trace(1) == 0       # 1 + 1
    assert F4.trace(u) == 1       # u + u^2 = u + (u+1)
    assert F4.trace(0) == 0


def test_trace_is_surjective_onto_prime_field():
    for p, r in FIELDS:
        F = build_field(p, r)
        assert {F.trace(a) for a in range(F.q)} == set(range(p))


@pytest.mark.parametrize("p,r", FIELDS)
def test_additive_character_sums_vanish(p, r):
    F = build_field(p, r)
    for s in range(F.q):
        total = sum(F.additive_character(s)(t) for t in range(F.q))
        if s == 0:
            assert total == F.q
        else:
            assert abs(total) < 1e-12


def test_additive_character_examples():
    F2 = build_field(2, 1)
    alpha = F2.additive_character(1)
    assert alpha(0) == 1 and alpha(1) == -1
    F3 = build_field(3, 1)
    assert F3.additive_character(0)(2) == 1
    assert F3.additive_character(2)(0) == 1


def test_char_exponent_matches_character():
    F9 = build_field(3, 2)
    for s, t in itertools.product(range(9), repeat=2):
        k = F9.char_exponent(s, t)
        assert abs(F9.additive_character(s)(t) - F9.roots[k]) < 1e-15


def test_field_element_sugar():
    F4 = build_field(2, 2)
    u = F4.element(2)
    assert (u * u) == F4.element(3)          # u^2 = u + 1
    assert (u + u).code == 0
    assert (u ** 3).code == 1                # multiplicative order 3
    assert (u / u).code == 1
    assert FieldElement(F4, 3) - u == FieldElement(F4, 1)


def _loop_tables(p: int, r: int, modulus: tuple) -> tuple:
    """The add, neg, mul and inv tables of F_{p^r} by the coefficient
    loops: the reference for the vectorized builder."""
    q = p ** r
    digits = np.array([[(e // p ** i) % p for i in range(r)] for e in range(q)],
                      dtype=np.int64)
    add = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        add[a] = ((digits[a] + digits) % p) @ (p ** np.arange(r))
    neg = np.array([((-digits[a]) % p) @ (p ** np.arange(r)) for a in range(q)],
                   dtype=np.int16)
    # u^k reduced mod the defining polynomial, for k < 2r-1
    mod = list(modulus)
    red = {k: [0] * k + [1] + [0] * (r - k - 1) for k in range(r)}
    for k in range(r, 2 * r - 1):
        prev = red[k - 1]
        lead = prev[r - 1]
        shifted = [0] + prev[:r - 1]
        red[k] = [(shifted[i] - lead * mod[i]) % p for i in range(r)]
    mul = np.zeros((q, q), dtype=np.int16)
    for a in range(q):
        da = digits[a]
        for b in range(a, q):
            db = digits[b]
            acc = [0] * r
            for i in range(r):
                if da[i] == 0:
                    continue
                for j in range(r):
                    if db[j] == 0:
                        continue
                    c = (da[i] * db[j]) % p
                    for t, rt in enumerate(red[i + j]):
                        acc[t] = (acc[t] + c * rt) % p
            code = sum(c * p ** i for i, c in enumerate(acc))
            mul[a, b] = code
            mul[b, a] = code
    inv = np.zeros(q, dtype=np.int16)
    for a in range(1, q):
        inv[a] = np.nonzero(mul[a] == 1)[0][0]
    return add, neg, mul, inv


# every field with q <= 128
SMALL_FIELDS = ([(p, 1) for p in range(2, 128) if is_prime(p)]
                + [(p, r) for p in (2, 3, 5, 7, 11) for r in range(2, 8) if p ** r <= 128])


@pytest.mark.parametrize("p,r", SMALL_FIELDS)
def test_tables_equal_the_coefficient_loops(p, r):
    F = build_field(p, r)
    tables = (F.add_table, F.neg_table, F.mul_table, F.inv_table)
    for got, expected in zip(tables, _loop_tables(p, r, F.modulus)):
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


def test_a_field_of_512_elements_builds_in_under_a_second():
    # the coefficient loops took about 8 s for F_{2^9}
    start = time.perf_counter()
    F = build_field(2, 9)
    assert time.perf_counter() - start < 1.0
    assert F.mul(F.inv(3), 3) == 1


def test_coords_roundtrip():
    F9 = build_field(3, 2)
    for a in range(9):
        assert F9.from_coords(F9.coords(a)) == a


def _budget_raises(tree: ast.Module) -> list:
    """The qualified names of the functions that `raise BudgetError`."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id == "BudgetError":
                    found.append(".".join(scope))
            visit(child, scope)

    visit(tree, ())
    return found


def test_budget_refusals_come_from_the_field_charge_alone():
    # every budget refusal is Field.charge; the one other BudgetError is the
    # int64 limit of the product-index engine, which no budget can lift
    sites = []
    for path in sorted(Path(ffmult.__file__).parent.glob("*.py")):
        sites += [f"{path.stem}.{name}"
                  for name in _budget_raises(ast.parse(path.read_text()))]
    assert sorted(sites) == ["fields.Field.charge", "gn._product_images"]
