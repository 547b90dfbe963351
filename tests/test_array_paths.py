"""The array paths against the per-element paths, bit for bit.

`times_fixed`, the one product kernel on index space, must give the indices
of the Poly products p*h for stacks of polynomials, explicit cofactor rows
and any chunking; the Turan-Kubilius counts built once on G_{n_stop} must
equal the counts built on each G_n.

`function_on_gn` (the prime-power sieve, or its per-element fallback for
characters and twists) must give exactly the bytes of [f(g) for g in G_n],
and `correlate` / `katai_statistic` must give the same floats whether the
function arrives as a MultiplicativeFunction, as an array, or wrapped in a
plain callable that is called polynomial by polynomial.  A plain callable is
called exactly on the indices a statistic reads, and an over-budget one not
at all; `mean_value` equals the scalar fsum over the degree-n slice.
"""

import math
import struct

import numpy as np
import pytest

from ffmult import (BudgetError, HayesCharacter, LaurentTruncation, MultiplicativeFunction,
                    Poly, PolynomialPhase, UnitCharacter, build_field, builtin, correlate,
                    from_character, hayes_on_gn, katai_statistic, mean_value,
                    phase_character_array, random_on_irreducibles, sample_on_gn, twist)
from ffmult import gn
from ffmult.analytics import turan_kubilius_from_counts, window_divisor_counts
from ffmult.experiments import resolve_hayes
from ffmult.gn import GnIndex, times_fixed
from ffmult.multiplicative import function_on_gn
from ffmult.polys import irreducibles_of_degree

# (p, r) -> largest n of the grid
GRID = {(2, 1): 11, (3, 1): 7, (2, 2): 5, (5, 1): 4}

FUNCTIONS = ("moebius", "liouville", "one", "random-pm1", "random-unit",
             "character", "twist", "unit-liouville")


def make_function(field, name):
    if name in ("moebius", "liouville", "one"):
        return builtin(field, name)
    if name == "random-pm1":
        return random_on_irreducibles(field, 17, "pm1")
    if name == "random-unit":
        return random_on_irreducibles(field, 23, "unit")
    if name == "unit-liouville":
        # a nontrivial unit rule (for q > 2) on the sieve path: f(c g) != f(g)
        H = HayesCharacter(field, unit=UnitCharacter(field, 1))
        return MultiplicativeFunction(field, lambda p, k: complex((-1.0) ** k), name=name,
                                      unit_rule=lambda c: H(Poly.constant(field, c)))
    if name == "character":
        return from_character(resolve_hayes(field, {"short": {"s": 1, "index": 1},
                                                    "theta": "1/5"}))
    return twist(builtin(field, "liouville"),
                 resolve_hayes(field, {"theta": "1/3", "short": {"s": 2, "index": 1}}),
                 conjugate=True)


def per_element(f, n):
    field = f.field
    return np.array([f(Poly.from_index(field, i)) for i in range(field.q ** n)],
                    dtype=np.complex128)


def bits(z: complex) -> bytes:
    return struct.pack("<dd", z.real, z.imag)


class Counting:
    """A plain callable that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, g):
        self.calls += 1
        return self.f(g)


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_function_on_gn_matches_per_element_bytes(pr, name):
    field = build_field(*pr)
    for n in range(1, GRID[pr] + 1):
        # fresh objects: no memo shared between the two paths
        sieved = function_on_gn(make_function(field, name), n)
        assert sieved.tobytes() == per_element(make_function(field, name), n).tobytes(), n


def test_sieve_ignores_the_factor_degree_bound():
    field = build_field(2, 1, factor_degree_bound=2)
    mu = builtin(field, "moebius")
    arr = function_on_gn(mu, 9)
    with pytest.raises(ValueError, match="factorable range"):
        mu(Poly.from_index(field, 2 ** 8 + 3))
    wide = build_field(2, 1)
    assert arr.tobytes() == per_element(builtin(wide, "moebius"), 9).tobytes()


def _phase(field, n, seed):
    rng = np.random.default_rng(seed)
    tails = [LaurentTruncation(field, [int(c) for c in rng.integers(0, field.q, n)])
             for _ in range(2)]
    return PolynomialPhase(field, n, ((1, tuple(tails)),))


@pytest.mark.parametrize("pr,n", [((2, 1), 9), ((3, 1), 5), ((2, 2), 4)])
@pytest.mark.parametrize("name", FUNCTIONS)
def test_correlate_bit_equal_across_argument_forms(pr, n, name):
    field = build_field(*pr)
    t = phase_character_array(_phase(field, n, seed=n))
    for domain in ("all", "nonzero", "monic"):
        f = make_function(field, name)
        as_mf = correlate(field, f, t, n, domain)
        as_array = correlate(field, sample_on_gn(field, n, f), t, n, domain)
        g = make_function(field, name)
        as_lambda = correlate(field, lambda h: g(h), t, n, domain)
        assert bits(as_mf) == bits(as_array) == bits(as_lambda), domain


@pytest.mark.parametrize("pr,n", [((2, 1), 9), ((3, 1), 5), ((2, 2), 4)])
def test_bare_hayes_character_correlates_off_zero(pr, n):
    # a HayesCharacter raises at g = 0, so on these domains it must never
    # be called there
    field = build_field(*pr)
    H = resolve_hayes(field, {"short": {"s": 1, "index": 1}, "theta": "1/5"})
    t = phase_character_array(_phase(field, n, seed=n))
    for domain in ("nonzero", "monic"):
        assert bits(correlate(field, H, t, n, domain)) \
            == bits(correlate(field, hayes_on_gn(H, n), t, n, domain)), domain


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_mean_value_equals_the_scalar_fsum(pr, name):
    field = build_field(*pr)
    q = field.q
    for n in range(GRID[pr]):
        for domain, stop in (("monic", 2 * q ** n), ("all", q ** (n + 1))):
            g = make_function(field, name)
            values = [g(Poly.from_index(field, i)) for i in range(q ** n, stop)]
            reference = complex(math.fsum(z.real for z in values),
                                math.fsum(z.imag for z in values)) / len(values)
            got = mean_value(make_function(field, name), n, domain)
            assert bits(got) == bits(reference), (n, domain)


def test_correlate_keeps_signs_of_zero():
    # Moebius against a real phase over F_2: every product has a zero
    # imaginary part, of either sign; the mean's must match the scalar path
    field = build_field(2, 1)
    n = 8
    t = phase_character_array(_phase(field, n, seed=3))
    mu = builtin(field, "moebius")
    for domain in ("all", "nonzero", "monic"):
        a = correlate(field, mu, t, n, domain)
        b = correlate(field, lambda h: mu(h), t, n, domain)
        assert a.imag == 0.0 and bits(a) == bits(b)


@pytest.mark.parametrize("pr,n,k", [((2, 1), 8, 3), ((3, 1), 5, 1), ((2, 2), 4, 1)])
@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("per_pair", [False, True])
def test_katai_bit_equal_across_argument_forms(pr, n, k, name, per_pair):
    field = build_field(*pr)
    pair_set = "G_{k+1}" if pr == (3, 1) else "P_k"
    f = make_function(field, name)
    as_mf = katai_statistic(field, f, n, k, pair_set, per_pair)
    as_array = katai_statistic(field, sample_on_gn(field, n, f), n, k, pair_set, per_pair)
    g = Counting(make_function(field, name))
    as_lambda = katai_statistic(field, g, n, k, pair_set, per_pair)
    assert struct.pack("<d", as_mf) == struct.pack("<d", as_array) \
        == struct.pack("<d", as_lambda)
    assert g.calls == field.q ** n      # once per element of G_n


def test_over_budget_callable_is_refused_before_its_first_call():
    # q^(n-k) = 64 is within the budget, q^n = 512 is not
    field = build_field(2, 1, enumeration_budget=256)
    f = Counting(lambda g: 1.0)
    with pytest.raises(BudgetError):
        katai_statistic(field, f, 9, 3)
    with pytest.raises(BudgetError):
        sample_on_gn(field, 9, f)
    assert f.calls == 0


# q -> ((p, r), largest cofactor width m of the kernel grid)
KERNEL_GRID = {2: ((2, 1), 7), 3: ((3, 1), 4), 4: ((2, 2), 3), 5: ((5, 1), 3),
               9: ((3, 2), 2)}


def poly_products(field, stack, cofactors):
    return np.array([[(Poly(field, coeffs) * Poly.from_index(field, int(h))).to_index()
                      for h in cofactors] for coeffs in stack], dtype=np.int64)


def kernel_stacks(field):
    """One prime (k = 1), every prime of degree 1 and 2, every nonzero
    constant and every nonzero polynomial of degree 1 (leading coefficients
    other than 1)."""
    q = field.q
    return [[irreducibles_of_degree(field, 2)[-1].coeffs],
            [p.coeffs for p in irreducibles_of_degree(field, 1)],
            [p.coeffs for p in irreducibles_of_degree(field, 2)],
            [(c,) for c in range(1, q)],
            [(c0, c1) for c1 in range(1, q) for c0 in range(q)]]


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_times_fixed_equals_poly_products(q, chunk, monkeypatch):
    if chunk is not None:
        # chunk boundaries inside stacks, cofactor rows and digit parts
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    for stack in kernel_stacks(field):
        for m in range(m_max + 1):
            out = times_fixed(field, stack, m)
            assert out.dtype == np.int64 and out.shape == (len(stack), q ** m)
            assert np.array_equal(out, poly_products(field, stack, range(q ** m))), (stack, m)
            # the sieve's explicit rows: the monic cofactors of degree m
            monic = np.arange(q ** m, 2 * q ** m, dtype=np.int64)
            assert np.array_equal(times_fixed(field, stack, m + 1, monic),
                                  poly_products(field, stack, monic)), (stack, m)


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
def test_smul_is_the_product_by_a_constant(q):
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    G = GnIndex(field, m_max)
    idx = np.arange(q ** m_max, dtype=np.int64).reshape(q, -1)
    for c in range(q):
        expected = poly_products(field, [(c,)], idx.ravel()).reshape(idx.shape)
        assert np.array_equal(G.smul(c, idx), expected)


@pytest.mark.parametrize("pr,n_stop,W,H", [((2, 1), 9, 1, 11), ((3, 1), 6, 1, 8),
                                           ((2, 2), 5, 0, 7), ((5, 1), 4, 1, 5)])
def test_tk_counts_on_g_n_stop_have_the_per_n_counts_as_prefixes(pr, n_stop, W, H):
    # H - 1 > n_stop: every n has window primes of degree >= n, which
    # divide only g = 0
    field = build_field(*pr)
    full = window_divisor_counts(field, n_stop, W, H)
    for n in range(1, n_stop + 1):
        per_n = window_divisor_counts(field, n, W, H)
        assert np.array_equal(full[:field.q ** n], per_n), n
        a = turan_kubilius_from_counts(field, full, n, W, H)
        b = turan_kubilius_from_counts(field, per_n, n, W, H)
        assert struct.pack("<3d", a.A, a.lhs, a.ratio) == struct.pack("<3d", b.A, b.lhs, b.ratio)
    primes = sum(len(irreducibles_of_degree(field, d)) for d in range(max(W + 1, 1), H))
    assert full[0] == primes
