import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ffmult.characters import (DegreeTwist, HayesCharacter,
                               dirichlet_characters, short_interval_characters)
from ffmult.errors import BudgetError
from ffmult.fields import build_field
from ffmult.laurent import LaurentTruncation
from ffmult.multiplicative import builtin, from_character, random_on_irreducibles
from ffmult.phases import PolynomialPhase
from ffmult.polys import Poly, irreducibles_of_degree
from ffmult import analytics, gn
from ffmult.analytics import (ap_correlation, correlate, distance_terms,
                              gowers_norm, halasz_product, katai_statistic,
                              linear_phase_sum, mean_value,
                              min_distance_over_hayes, phase_character_array,
                              pretentious_distance, r_bias_statistic,
                              sample_on_gn, turan_kubilius, u2_fourier)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)


def random_bounded(rng, size):
    return rng.uniform(0, 1, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))


# -- correlate ---------------------------------------------------------------


def test_correlate_trivial():
    one = builtin(F2, "one")
    # the all-domain mean carries the nu(0) = 0 convention: 1 - q^{-n}
    assert abs(correlate(F2, one, lambda g: 1.0, 4) - (1 - 2 ** -4)) < 1e-15
    assert abs(correlate(F2, one, lambda g: 1.0, 4, "nonzero") - 1) < 1e-15


def test_correlate_nontrivial_linear_phase_vanishes():
    beta = LaurentTruncation(F3, (2, 1, 0, 0, 1))
    P = PolynomialPhase.from_linear(beta, 4)
    # with nu identically 1 on all of G_n the full character sum is exactly 0
    assert abs(correlate(F3, lambda g: 1.0, P, 4)) < 1e-12
    # the multiplicative one has nu(0) = 0, which leaves exactly -1/q^n
    one = builtin(F3, "one")
    assert abs(correlate(F3, one, P, 4) + 3.0 ** -4) < 1e-12


def test_correlate_moebius_example():
    mu = builtin(F2, "moebius")
    assert abs(correlate(F2, mu, lambda g: 1.0, 5) - (-1 / 32)) < 1e-15


def test_correlate_domains():
    mu = builtin(F2, "moebius")
    full = correlate(F2, mu, lambda g: 1.0, 5, "all")
    nz = correlate(F2, mu, lambda g: 1.0, 5, "nonzero")
    assert abs(full * 32 - nz * 31) < 1e-12      # same sum, different count
    monic = correlate(F2, mu, lambda g: 1.0, 3, "monic")
    # monic slice of G_3 = monic quadratics: x^2, x^2+1, x^2+x, x^2+x+1
    assert abs(monic - 0.0) < 1e-12              # mu values: 0, 0, 1... compute:
    # x^2 -> 0, x^2+1=(x+1)^2 -> 0, x^2+x -> 1, x^2+x+1 irreducible -> -1


def test_correlate_hayes_and_periodic_test_functions():
    one = builtin(F2, "one")
    chi = dirichlet_characters(Poly.x(F2) ** 2)[1]
    H = HayesCharacter(F2, dirichlet=chi)
    val = correlate(F2, one, H, 5)
    assert abs(val) < 1e-12   # character orthogonal to constants
    # the periodic sequence g -> values[g mod x], read by residue index
    values = np.array([1.0, -1.0])
    per = values[gn.residues(F2, Poly.x(F2).coeffs, np.arange(2 ** 5))]
    v2 = correlate(F2, lambda g: 1.0, per, 5)
    assert abs(v2) < 1e-12


def test_correlate_composite_test_function():
    rng = random.Random(31)
    L1 = LaurentTruncation.random(F3, 4, rng)
    L2 = LaurentTruncation.random(F3, 4, rng)
    P1 = PolynomialPhase.from_linear(L1, 4)
    P2 = PolynomialPhase.from_product(4, [L1, L2])
    # F(x, y) = alpha_1(x) * conj(alpha_1(y)) composed with two phases
    roots = F3.roots

    def func(x, y):
        return complex(roots[F3.trace(x)]) * complex(roots[F3.trace(y)]).conjugate()

    # the composite alpha_1(P1(g)) conj alpha_1(P2(g)) as arrays of the encoded values
    v1, v2 = P1.values_on_gn(), P2.values_on_gn()
    t = roots[F3.trace_table[v1]] * roots[F3.trace_table[v2]].conjugate()
    got = correlate(F3, lambda g: 1.0, t, 4)
    want = [func(P1.eval(Poly.from_index(F3, i)), P2.eval(Poly.from_index(F3, i)))
            for i in range(81)]
    assert abs(got - sum(want) / 81) < 1e-12


def test_min_distance_empty_grid_rejected():
    one = builtin(F2, "one")
    with pytest.raises(ValueError):
        min_distance_over_hayes(one, 3, 1, 1, [])


def test_correlate_partition_invariance():
    mu = builtin(F2, "moebius")
    t = lambda g: 1.0
    full = correlate(F2, mu, t, 6)
    # manual two-chunk recombination must agree to 1e-12
    parts = [mu(Poly.from_index(F2, i)) for i in range(2 ** 6)]
    half = len(parts) // 2
    combined = (math.fsum(p.real for p in parts[:half])
                + math.fsum(p.real for p in parts[half:])) / len(parts)
    assert abs(full.real - combined) < 1e-12


# -- Gowers norms ----------------------------------------------------------------


def test_gowers_constant_is_one():
    for k in (1, 2, 3):
        assert abs(gowers_norm(F3, 3, np.ones(27, dtype=complex), k) - 1) < 1e-10


def test_gowers_character_example():
    beta = LaurentTruncation(F3, (1, 0, 0, 0))
    ch = phase_character_array(PolynomialPhase.from_linear(beta, 4))
    assert abs(gowers_norm(F3, 4, ch, 1)) < 1e-12
    assert abs(gowers_norm(F3, 4, ch, 2) - 1) < 1e-10


def test_gowers_budget():
    with pytest.raises(BudgetError):
        gowers_norm(build_field(2, 1, enumeration_budget=10 ** 6), 8,
                    np.ones(256, dtype=complex), 3)


def test_gowers_budget_charges_the_cube_operations():
    # U^3 on G_6 over F_2: 2^12 means of length 2^6, 2^18 element operations
    ones = np.ones(64, dtype=complex)
    assert gowers_norm(build_field(2, 1, enumeration_budget=2 ** 18), 6, ones, 3) == 1.0
    with pytest.raises(BudgetError, match="262144"):
        gowers_norm(build_field(2, 1, enumeration_budget=2 ** 18 - 1), 6, ones, 3)


def test_u2_equals_brute_force():
    rng = np.random.default_rng(7)
    for F, n in ((F2, 6), (F3, 3)):
        for _ in range(5):
            f = random_bounded(rng, F.q ** n)
            assert abs(gowers_norm(F, n, f, 2) - u2_fourier(F, n, f)) < 1e-10


def test_u2_on_extension_field():
    F4 = build_field(2, 2)
    rng = np.random.default_rng(8)
    f = random_bounded(rng, 4 ** 3)
    assert abs(gowers_norm(F4, 3, f, 2) - u2_fourier(F4, 3, f)) < 1e-10


def test_u2_single_character_and_zero():
    beta = LaurentTruncation(F3, (2, 1, 0, 0))
    ch = phase_character_array(PolynomialPhase.from_linear(beta, 4))
    assert abs(u2_fourier(F3, 4, ch) - 1) < 1e-12
    assert u2_fourier(F3, 4, np.zeros(81, dtype=complex)) == 0


def test_gowers_monotonicity_random():
    rng = np.random.default_rng(10)
    for _ in range(8):
        f = random_bounded(rng, 81)
        u1 = gowers_norm(F3, 4, f, 1)
        u2 = gowers_norm(F3, 4, f, 2)
        u3 = gowers_norm(F3, 4, f, 3)
        assert u1 <= u2 + 1e-9 and u2 <= u3 + 1e-9


# -- AP correlation ------------------------------------------------------------------


def test_ap_trivial_and_zero():
    ones = np.ones(125, dtype=complex)
    r = ap_correlation(F5, 3, [ones] * 3)
    assert abs(r.mean - 1) < 1e-12 and r.satisfied and abs(r.gowers_bound - 1) < 1e-9
    rz = ap_correlation(F5, 3, [ones, ones, np.zeros(125, dtype=complex)])
    assert abs(rz.mean) < 1e-15


def test_ap_inequality_random():
    rng = np.random.default_rng(11)
    for _ in range(20):
        fs = [random_bounded(rng, 125) for _ in range(3)]
        r = ap_correlation(F5, 3, fs)
        assert r.satisfied


def test_ap_torsion_guard():
    ones = np.ones(9, dtype=complex)
    with pytest.raises(ValueError, match="torsion"):
        ap_correlation(F3, 2, [ones] * 3)


# -- Katai statistic -------------------------------------------------------------------


def test_katai_constant_function():
    val = katai_statistic(F2, lambda g: 1.0, 10, 3, per_pair=True)
    assert abs(val - 1.0) < 1e-12
    flat = katai_statistic(F2, lambda g: 1.0, 10, 3)
    assert 0 < flat <= 1.0


def test_katai_zero_function():
    assert katai_statistic(F2, lambda g: 0.0, 8, 2) == 0.0


def test_katai_unimodular_rescaling_invariance():
    rng = random.Random(12)
    beta = LaurentTruncation.random(F2, 12, rng)
    from ffmult.laurent import linear_form

    def f(g):
        return complex(F2.roots[F2.trace(linear_form(beta, g))])

    c = cmath.exp(2j * cmath.pi * 0.3173)

    def f_scaled(g):
        return c * f(g)

    a = katai_statistic(F2, f, 9, 2)
    b = katai_statistic(F2, f_scaled, 9, 2)
    assert abs(a - b) < 1e-12


def test_katai_pair_sets():
    v1 = katai_statistic(F3, lambda g: 1.0, 6, 2, pair_set="G_{k+1}", per_pair=True)
    assert abs(v1 - 1.0) < 1e-12
    with pytest.raises(ValueError):
        katai_statistic(F3, lambda g: 1.0, 6, 2, pair_set="nope")


# -- r-bias statistic -----------------------------------------------------------------


def test_r_bias_nonnegative_real():
    rng = random.Random(14)
    L1 = LaurentTruncation.random(F5, 6, rng)
    L2 = LaurentTruncation.random(F5, 6, rng)
    P = PolynomialPhase(F5, 6, ((2, (L1, L2)),))
    res = r_bias_statistic(P, n=3, k=1)
    assert res.value >= -1e-9 and res.imag_residual < 1e-9
    assert res.mode == "exhaustive"


def test_r_bias_zero_top_form_is_one():
    L = LaurentTruncation.random(F5, 6, random.Random(15))
    P = PolynomialPhase(F5, 6, ((3, (L,)),))
    assert r_bias_statistic(P, n=3, k=1, m=2).value == 1.0


def test_r_bias_diagonal_pairs_give_one():
    # restricting to a = b makes R identically zero: check via one pair
    rng = random.Random(16)
    L1 = LaurentTruncation.random(F5, 6, rng)
    L2 = LaurentTruncation.random(F5, 6, rng)
    from ffmult.phases import derivative_form
    P = PolynomialPhase(F5, 6, ((1, (L1, L2)),))
    dQ = derivative_form(P, 2, verify=False)
    a = Poly.from_index(F5, 7)
    diff = dQ.scaled_by(a, (2, 2)).minus(dQ.scaled_by(a, (2, 2)))
    counts = diff.exponent_counts()
    assert counts[0] == counts.sum()          # alpha(0) everywhere


def test_r_bias_base_sets():
    rng = random.Random(17)
    L1 = LaurentTruncation.random(F3, 6, rng)
    L2 = LaurentTruncation.random(F3, 6, rng)
    P = PolynomialPhase(F3, 6, ((1, (L1, L2)),))
    r1 = r_bias_statistic(P, n=3, k=1, base_set="G_{k+1}")
    r2 = r_bias_statistic(P, n=3, k=1, base_set="P_k")
    assert r1.value >= -1e-9 and r2.value >= -1e-9
    assert r2.pairs == len(list(__import__("ffmult.polys", fromlist=["p_k"]).p_k(F3, 1))) ** 2


# -- Turan-Kubilius --------------------------------------------------------------------


def test_tk_window_example():
    res = turan_kubilius(F2, 8, 1, 3)
    assert abs(res.A - 0.25) < 1e-15          # only x^2+x+1 in the window


def test_tk_against_direct_factor_count():
    from ffmult.polys import factor, g_n
    res = turan_kubilius(F2, 8, 1, 5)
    window = {p for d in (2, 3, 4) for p in irreducibles_of_degree(F2, d)}
    lhs = 0.0
    for g in g_n(F2, 8):
        if g.is_zero():
            cnt = len(window)       # every prime divides 0
        else:
            _, parts = factor(g)
            cnt = sum(1 for p, _ in parts if p in window)
        lhs += (cnt - res.A) ** 2
    assert abs(lhs - res.lhs) < 1e-9
    assert res.ratio > 0


def test_tk_window_reaching_past_n_against_divisibility_count():
    # primes of degree >= n divide only g = 0 in G_n
    for n in (4, 5, 6):
        res = turan_kubilius(F2, n, 1, 6)
        window = [p for d in range(2, 6) for p in irreducibles_of_degree(F2, d)]
        counts = np.array([sum(1 for p in window if (g % p).is_zero())
                           for g in (Poly.from_index(F2, i) for i in range(2 ** n))])
        assert counts[0] == len(window)
        dev = counts.astype(np.float64) - res.A
        assert res.lhs == float(np.sum(dev * dev))


def test_tk_over_budget_refused_before_sieving():
    from ffmult.analytics import window_divisor_counts
    field = build_field(2, 1, enumeration_budget=2 ** 10)
    with pytest.raises(BudgetError):
        turan_kubilius(field, 11, 1, 7)
    with pytest.raises(BudgetError):
        window_divisor_counts(field, 11, 1, 7)
    assert not set(field._irreducibles) & set(range(2, 7))
    assert not set(field._irreducible_indices) & set(range(2, 7))


def test_tk_empty_window_rejected():
    with pytest.raises(ValueError):
        turan_kubilius(F2, 6, 1, 2)


# -- pretentious distance ---------------------------------------------------------------


def test_distance_to_self_is_zero():
    lam = builtin(F2, "liouville")
    assert pretentious_distance(lam, lam, 6) == 0.0


def test_distance_moebius_one_example():
    mu, one = builtin(F2, "moebius"), builtin(F2, "one")
    assert abs(pretentious_distance(mu, one, 1) - math.sqrt(2)) < 1e-12


def test_distance_monotone_in_n():
    mu, one = builtin(F3, "moebius"), builtin(F3, "one")
    vals = [pretentious_distance(mu, one, N) for N in range(1, 8)]
    assert all(vals[i] <= vals[i + 1] + 1e-15 for i in range(len(vals) - 1))


def test_distance_empty_window():
    mu, one = builtin(F2, "moebius"), builtin(F2, "one")
    assert pretentious_distance(mu, one, 5, window_low=6) == 0.0


def test_inputs_without_a_field_raise_type_error_before_any_sieve():
    F = build_field(2, 1)               # fresh: no irreducible cached
    one, plain = builtin(F, "one"), (lambda g: 1.0)
    calls = [lambda: pretentious_distance(plain, plain, 3),
             lambda: pretentious_distance(one, plain, 3),
             lambda: distance_terms(plain, one, 1),
             lambda: min_distance_over_hayes(plain, 3, 1, 1),
             lambda: mean_value(plain, 3)]
    for call in calls:
        with pytest.raises(TypeError, match="MultiplicativeFunction or a HayesCharacter"):
            call()
    assert not F._irreducible_indices


def test_min_distance_trivial_target():
    one = builtin(F2, "one")
    res = min_distance_over_hayes(one, 5, 1, 1, 16)
    assert res.M == 1.0 and res.min_distance == 0.0


def test_min_distance_finds_degree_twist():
    f = from_character(HayesCharacter(F3, twist=DegreeTwist(Fraction(1, 3))))
    res = min_distance_over_hayes(f, 4, 1, 1, [0.0, 1 / 3, 2 / 3])
    assert res.min_distance < 1e-12
    assert abs(res.argmin["theta"] - 1 / 3) < 1e-12


def test_min_distance_growth_for_moebius():
    mu = builtin(F2, "moebius")
    ms = [min_distance_over_hayes(mu, N, 2, 2, 16).M for N in (2, 5, 8)]
    assert ms[0] < ms[1] < ms[2]


# -- Euler products and mean values ---------------------------------------------------------


def test_halasz_identity_for_one():
    for F in (F2, F3):
        one = builtin(F, "one")
        for n in (1, 5, 12, 20):
            assert abs(halasz_product(one, n) - 1) < 1e-9


def test_halasz_moebius_local_factors():
    # each local factor for mu is (1 - q^{-d})^2 < 1: strictly decreasing
    mu = builtin(F2, "moebius")
    vals = [abs(halasz_product(mu, n)) for n in range(1, 9)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    # first value: ((1-1/2)(1+(-1)/2))^2 = (1/4)^2
    assert abs(vals[0] - 0.0625) < 1e-12


def test_halasz_grouped_equals_enumerated():
    mu_grouped = builtin(F3, "moebius")
    mu_enum = builtin(F3, "moebius")
    mu_enum.degree_profile = None
    for n in (2, 4, 6):
        assert abs(halasz_product(mu_grouped, n) - halasz_product(mu_enum, n)) < 1e-12


def test_mean_value_degree_twist():
    rng = random.Random(18)
    for _ in range(4):
        theta = rng.random()
        f = from_character(HayesCharacter(F3, twist=DegreeTwist(theta)))
        got = mean_value(f, 5, "monic")
        assert abs(got - cmath.exp(2j * cmath.pi * theta * 5)) < 1e-12


def test_mean_value_all_domain():
    one = builtin(F3, "one")
    assert abs(mean_value(one, 4, "all") - 1) < 1e-12
    with pytest.raises(ValueError):
        mean_value(one, 4, "weird")


# -- linear phase sums ---------------------------------------------------------------------


def test_linear_phase_dichotomy_exact():
    rng = random.Random(19)
    for F in (F2, F3):
        for n in (4, 6):
            for _ in range(25):
                beta = LaurentTruncation.random(F, n + 3, rng)
                s = linear_phase_sum(F, beta, n)
                if beta.vanishes_through(n):
                    assert abs(s - F.q ** n) < 1e-9
                else:
                    assert abs(s) < 1e-9
            deep = LaurentTruncation(F, (0,) * n + (2 % F.q,))
            assert abs(linear_phase_sum(F, deep, n) - F.q ** n) < 1e-9


def test_sample_on_gn_shapes():
    arr = sample_on_gn(F2, 3, lambda g: 1.0)
    assert arr.shape == (8,) and arr.dtype == np.complex128
    with pytest.raises(ValueError):
        sample_on_gn(F2, 3, np.ones(7, dtype=complex))


def test_negative_n_and_empty_domains_are_value_errors_before_any_charge():
    # a budget of 0 refuses every charge: the ValueError must come first
    F = build_field(2, 1, enumeration_budget=0)
    mu = builtin(F, "moebius")
    for n, domain in ((0, "nonzero"), (0, "monic"), (-1, "all"), (-1, "monic")):
        with pytest.raises(ValueError):
            correlate(F, mu, mu, n, domain)
    with pytest.raises(ValueError):
        sample_on_gn(F, -1, mu)
    for domain in ("monic", "all"):
        with pytest.raises(ValueError):
            mean_value(mu, -1, domain)
    for stat in (lambda: gowers_norm(F, -1, mu, 1), lambda: u2_fourier(F, -1, mu),
                 lambda: ap_correlation(build_field(3, 1, enumeration_budget=0), -1, [mu, mu])):
        with pytest.raises(ValueError):
            stat()
    # G_0 = {0} is the one nonempty domain of G_0
    assert correlate(F2, builtin(F2, "moebius"), lambda g: 1.0, 0, "all") == 0j
