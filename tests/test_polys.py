import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffmult.errors import BudgetError
from ffmult.fields import build_field
from ffmult.multiplicative import builtin
from ffmult import polys
from ffmult.polys import (NEG_INF, Poly, factor, g_n, irreducible_count,
                          irreducible_indices, irreducibles_of_degree,
                          is_irreducible, monic_of_degree, necklace_count, p_k, poly_gcd,
                          sieve_through)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F4 = build_field(2, 2)


def P(field, *coeffs):
    return Poly(field, coeffs)


def test_zero_polynomial_degree_is_neg_inf():
    z = Poly.zero(F2)
    assert z.degree == NEG_INF
    assert z.degree < 0 and z.degree < -10 ** 9
    assert P(F2, 1).degree == 0


def test_basic_identities():
    x, one = Poly.x(F2), Poly.one(F2)
    assert (x + one) * (x + one) == P(F2, 1, 0, 1)
    assert poly_gcd(P(F2, 1, 0, 1), x + one) == x + one
    assert divmod(x ** 3, x ** 2) == (x, Poly.zero(F2))


coeff_lists = st.lists(st.integers(0, 2), max_size=8)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws_random(a, b, c):
    pa, pb, pc = Poly(F3, a), Poly(F3, b), Poly(F3, c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa + (-pa) == Poly.zero(F3)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists)
def test_divmod_contract(a, b):
    pa, pb = Poly(F3, a), Poly(F3, b)
    if pb.is_zero():
        with pytest.raises(ZeroDivisionError):
            divmod(pa, pb)
        return
    quo, rem = divmod(pa, pb)
    assert quo * pb + rem == pa
    assert rem.is_zero() or rem.degree < pb.degree


@settings(max_examples=120, deadline=None)
@given(coeff_lists, coeff_lists)
def test_degree_of_product_adds(a, b):
    pa, pb = Poly(F3, a), Poly(F3, b)
    if pa.is_zero() or pb.is_zero():
        assert (pa * pb).is_zero()
    else:
        assert (pa * pb).degree == pa.degree + pb.degree


def test_gcd_is_monic_and_divides():
    rng = random.Random(1)
    for _ in range(100):
        a = Poly.from_index(F3, rng.randrange(3 ** 5))
        b = Poly.from_index(F3, rng.randrange(3 ** 5))
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
            continue
        assert g.is_monic()
        assert (a % g).is_zero() and (b % g).is_zero()


def test_enumeration_counts_and_contents():
    gs = list(g_n(F2, 3))
    assert len(gs) == 8 and Poly.zero(F2) in gs
    assert all(g.is_zero() or g.degree <= 2 for g in gs)
    m0 = list(monic_of_degree(F2, 0))
    assert m0 == [Poly.one(F2)]
    m3 = list(monic_of_degree(F3, 3))
    assert len(m3) == 27 and all(g.is_monic() and g.degree == 3 for g in m3)
    assert len(set(m3)) == 27


def test_enumeration_index_order_is_canonical():
    for i, g in enumerate(g_n(F3, 3)):
        assert g.to_index() == i
        assert Poly.from_index(F3, i) == g


def test_p_k_two_degree_span():
    pk = list(p_k(F2, 3))
    assert len(pk) == 5  # N_2(3) + N_2(4) = 2 + 3
    assert {int(g.degree) for g in pk} == {3, 4}
    assert all(is_irreducible(g) for g in pk)


def test_set_iterator_sizes():
    assert len(list(g_n(F2, 4))) == 16
    assert len(list(monic_of_degree(F2, 2))) == 4
    assert len(list(p_k(F2, 2))) == 3


def test_enumeration_budget_guard():
    tiny = build_field(2, 1, enumeration_budget=100)
    with pytest.raises(BudgetError):
        list(g_n(tiny, 8))


def test_irreducible_count_examples():
    assert irreducible_count(F2, 3) == 2
    assert irreducible_count(F2, 4) == 3
    assert irreducible_count(F3, 2) == 3
    with pytest.raises(ValueError):
        irreducible_count(F2, 0)


def test_necklace_formula_matches_sieve_small():
    for F, dmax in ((F2, 10), (F3, 6), (F4, 5)):
        for d in range(1, dmax + 1):
            assert irreducible_count(F, d) == len(irreducibles_of_degree(F, d))


# necklace_count(q, d) for d = 1..12, recorded with the Moebius function
# necklace_count had before it read the factorization of fields.factor_int
NECKLACE_GRID = {
    2: [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335],
    3: [3, 3, 8, 18, 48, 116, 312, 810, 2184, 5880, 16104, 44220],
    4: [4, 6, 20, 60, 204, 670, 2340, 8160, 29120, 104754, 381300, 1397740],
    5: [5, 10, 40, 150, 624, 2580, 11160, 48750, 217000, 976248, 4438920, 20343700],
    7: [7, 21, 112, 588, 3360, 19544, 117648, 720300, 4483696, 28245840, 179756976,
        1153430600],
    8: [8, 28, 168, 1008, 6552, 43596, 299592, 2096640, 14913024, 107370900, 780903144,
        5726600880],
    9: [9, 36, 240, 1620, 11808, 88440, 683280, 5380020, 43046640, 348672528, 2852823600,
        23535749880],
    25: [25, 300, 5200, 97500, 1953120, 40687400, 871930800, 19073437500, 423855250000,
         9536742187440, 216744162819600, 4967053710905000],
}


def test_necklace_count_equals_the_recorded_grid():
    for q, counts in NECKLACE_GRID.items():
        assert [necklace_count(q, d) for d in range(1, 13)] == counts
    # degrees with three distinct primes, and squares of primes, among their divisors
    assert necklace_count(2, 30) == 35790267 and necklace_count(2, 36) == 1908866960
    assert necklace_count(3, 24) == 11767874940 and necklace_count(512, 6) == 3002399729167104


# q -> (p, r); each field sieved through the largest top with q^top <= 2^16
SIEVE_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 9: (3, 2)}


@pytest.mark.parametrize("q", sorted(SIEVE_FIELDS))
@pytest.mark.parametrize("cached", ["none", "degrees 1..3", "the top degree"])
def test_sieve_through_equals_the_sieve_per_degree(q, cached):
    top = max(d for d in range(1, 17) if q ** d <= 2 ** 16)
    fresh = build_field(*SIEVE_FIELDS[q])
    expected = {d: irreducible_indices(fresh, d) for d in range(1, top + 1)}
    F = build_field(*SIEVE_FIELDS[q])
    for d in {"none": [], "degrees 1..3": [1, 2, 3], "the top degree": [top]}[cached]:
        irreducible_indices(F, d)
    sieve_through(F, top)
    assert sorted(F._irreducible_indices) == list(range(1, top + 1))
    for d in range(1, top + 1):
        got = irreducible_indices(F, d)
        assert got.dtype == np.int64 and np.array_equal(got, expected[d]), d
        assert len(got) == irreducible_count(F, d)


def _count_engine_calls(monkeypatch, module=polys) -> list:
    """The (args, kwargs) of every `times_fixed_chunks` call `module` makes."""
    calls = []
    engine = module.times_fixed_chunks

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return engine(*args, **kwargs)

    monkeypatch.setattr(module, "times_fixed_chunks", spy)
    return calls


def test_sieve_through_makes_one_engine_call_per_prime_degree_of_a_block(monkeypatch):
    # blocks {1}, {2}, {3, 4}, {5..8}, {9..17}: 0 + 1 + 2 + 4 + 8 calls,
    # where a sieve per degree makes sum(d // 2) = 72
    calls = _count_engine_calls(monkeypatch)
    sieve_through(build_field(2, 1), 17)
    assert len(calls) == 15


@pytest.mark.parametrize("p,top,calls", [(3, 8, 7), (5, 6, 4)])
def test_sieve_through_over_odd_q_makes_one_engine_call_per_prime_degree(p, top, calls,
                                                                          monkeypatch):
    # the cofactors of a prime degree are the tuple of a block's monic blocks:
    # F_3 through 8 is the blocks {1}, {2}, {3, 4}, {5..8} and 0 + 1 + 2 + 4
    # calls, where a call per cofactor degree made 16; F_5 through 6 is {1},
    # {2, 3}, {4, 5, 6} and 0 + 1 + 3 calls, where it made 9
    engine = _count_engine_calls(monkeypatch)
    F = build_field(p, 1)
    sieve_through(F, top)
    assert len(engine) == calls
    assert all(isinstance(args[3], tuple) for args, _ in engine)
    for d in range(1, top + 1):
        assert len(irreducible_indices(F, d)) == irreducible_count(F, d)


def test_only_the_sieve_and_the_tk_counts_skip_the_multiples_of_x(monkeypatch):
    # the sieve and the Turan-Kubilius counts map the cofactors with h(0) != 0
    # and read the multiples of x off index arithmetic; the sieve of
    # function_on_gn maps full ranges
    from ffmult import analytics, multiplicative
    sieve = _count_engine_calls(monkeypatch)
    tk = _count_engine_calls(monkeypatch, analytics)
    last = _count_engine_calls(monkeypatch, multiplicative)
    F = build_field(3, 1)
    sieve_through(F, 8)
    analytics.window_divisor_counts(F, 7, 0, 9)
    multiplicative.function_on_gn(builtin(F, "moebius"), 7)
    assert (len(sieve), len(tk), len(last)) == (7, 6, 6)
    assert all(kwargs == {"nonzero_constant": True} for _, kwargs in sieve + tk)
    assert all(kwargs == {} for _, kwargs in last)


def test_sieve_through_charges_each_degree_before_sieving(monkeypatch):
    calls = _count_engine_calls(monkeypatch)
    with pytest.raises(BudgetError, match="sieve at degree 20 needs 1048576"):
        sieve_through(build_field(2, 1, enumeration_budget=2 ** 20 - 1), 20)
    assert calls == []
    F = build_field(2, 1, enumeration_budget=2 ** 20)
    sieve_through(F, 20)
    assert len(irreducible_indices(F, 20)) == irreducible_count(F, 20)


def test_known_irreducibles_degree_3_over_f2():
    cubes = irreducibles_of_degree(F2, 3)
    assert set(cubes) == {P(F2, 1, 1, 0, 1), P(F2, 1, 0, 1, 1)}


def test_is_irreducible_matches_factorization():
    # the index lookup below the budget, for monic and non-monic input
    for F, dmax in ((F2, 6), (F3, 4), (F4, 3)):
        for d in range(1, dmax + 1):
            for g in monic_of_degree(F, d):
                expected = factor(g)[1] == ((g, 1),)
                assert is_irreducible(g) == expected, g
                assert is_irreducible(g.scalar_mul(F.q - 1)) == expected, g
    # trial division above it
    small = build_field(2, 1, enumeration_budget=2 ** 4)
    assert is_irreducible(P(small, 1, 0, 1, 0, 0, 1))          # x^5 + x^2 + 1
    assert not is_irreducible(P(small, 1, 1, 0, 0, 0, 1))      # (x^2+x+1)(x^3+x^2+1)


def test_factor_examples():
    unit, parts = factor(P(F2, 1, 0, 1))          # x^2+1 = (x+1)^2
    assert unit == 1 and parts == ((P(F2, 1, 1), 2),)
    assert is_irreducible(P(F3, 1, 0, 1))          # x^2+1 over F_3
    unit, parts = factor(Poly.constant(F3, 2))
    assert unit == 2 and parts == ()
    with pytest.raises(ValueError):
        factor(Poly.zero(F2))


def test_factor_multiply_roundtrip_random_products():
    rng = random.Random(7)
    for _ in range(300):
        F = rng.choice([F2, F3, F4])
        parts = [rng.choice(irreducibles_of_degree(F, rng.randint(1, 3)))
                 for _ in range(rng.randint(1, 4))]
        g = Poly.constant(F, rng.randrange(1, F.q))
        for p in parts:
            g = g * p
        unit, fs = factor(g)
        back = Poly.constant(F, unit)
        for p, k in fs:
            back = back * p ** k
        assert back == g
        assert all(is_irreducible(p) for p, _ in fs)


@pytest.mark.parametrize("pr,degree", [((2, 1), 26), ((2, 1), 30), ((3, 1), 18),
                                       ((2, 2), 14)])
def test_factor_past_the_old_degree_caps(pr, degree):
    # F_2, F_3 and F_4 once refused degrees above 25, 17 and 13
    F = build_field(*pr)
    rng = random.Random(degree)
    g = Poly(F, [rng.randrange(F.q) for _ in range(degree)] + [rng.randrange(1, F.q)])
    unit, parts = factor(g)
    back = Poly.constant(F, unit)
    for p, k in parts:
        back = back * p ** k
    assert back == g
    assert all(is_irreducible(p) for p, _ in parts)
    if pr == (2, 2):
        squarefree = all(k == 1 for _, k in parts)
        assert builtin(F, "moebius")(g) == ((-1) ** len(parts) if squarefree else 0)


def test_factor_is_refused_only_by_the_sieve_charge():
    # trial division of an irreducible of degree 16 sieves up to degree 8
    key = int(irreducible_indices(F2, 16)[0])
    tight = build_field(2, 1, enumeration_budget=200)
    with pytest.raises(BudgetError, match="sieve at degree 8 needs 256"):
        factor(Poly.from_index(tight, key))
    enough = build_field(2, 1, enumeration_budget=256)
    g = Poly.from_index(enough, key)
    assert factor(g) == (1, ((g, 1),))


def test_factorization_is_canonical_order():
    g = P(F2, 1, 1) * Poly.x(F2) ** 2 * P(F2, 1, 1, 0, 1)
    _, parts = factor(g)
    degrees = [int(p.degree) for p, _ in parts]
    assert degrees == sorted(degrees)


def test_poly_evaluation_horner():
    g = P(F3, 1, 2, 1)  # 1 + 2x + x^2
    assert g(0) == 1 and g(1) == (1 + 2 + 1) % 3 and g(2) == (1 + 4 + 4) % 3
