import cmath
import functools
import math
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffmult.characters import (DegreeTwist, HayesCharacter,
                               dirichlet_characters, short_interval_characters)
from ffmult.errors import BudgetError
from ffmult.fields import build_field
from ffmult.laurent import LaurentTruncation, linear_form
from ffmult.multiplicative import builtin, from_character, random_on_irreducibles
from ffmult.phases import PolynomialPhase, _form_counts, derivative_form
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


def test_min_distance_charges_its_candidates():
    # F_2, N = 5: moduli of degree <= 1 (1, x and x + 1, one character each),
    # lengths <= 1 (two characters) and 16 thetas make 3 * 2 * 16 = 96
    # candidates, which the default budget never saw
    def search(budget):
        mu = builtin(build_field(2, 1, enumeration_budget=budget), "moebius")
        return min_distance_over_hayes(mu, 5, 1, 1, 16)

    with pytest.raises(BudgetError, match="needs 96"):
        search(95)
    assert search(96).candidates == 96


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


# (q, n, function): struct.pack("<d", U^k).hex() for k = 1, 2, 3, recorded
# with the digit-by-digit G_n addition gowers_norm and ap_correlation read
# before G_n's addition became one engine map; None: over the budget
GOWERS_PINS = {
    (2, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (2, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (2, 1, 'moebius'): ('000000000000e03f', '15b7310afe06e33f', 'cd3b7f669ea0e63f'),
    (2, 1, 'unit'): ('000000000000e03f', '15b7310afe06e33f', 'cd3b7f669ea0e63f'),
    (2, 2, 'moebius'): ('000000000000d03f', 'd6e6b58b1d38e83f', '951068e7e9bfe93f'),
    (2, 2, 'unit'): ('50f7282436fcd63f', '38ff29797e76e63f', '09770e1cf80be93f'),
    (2, 3, 'moebius'): ('000000000000c03f', 'd6744dafcf05e13f', '8e60fb6a0534e73f'),
    (2, 3, 'unit'): ('23d80694d6bad23f', 'bc14e6888c67e53f', '31cdf71ed462ea3f'),
    (3, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (3, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (3, 1, 'moebius'): ('555555555555e53f', '9a335a9889f8e53f', '21cb7b039af5e73f'),
    (3, 1, 'unit'): ('555555555555e53f', '9a335a9889f8e53f', '21cb7b039af5e73f'),
    (3, 2, 'moebius'): ('1cc7711cc771dc3f', '71eb4990e82be63f', 'ca08c770db53eb3f'),
    (3, 2, 'unit'): ('51c0aa5841f3d43f', 'd5dd1785384fe33f', '53fcbf83c1a1eb3f'),
    (3, 3, 'moebius'): ('682fa1bd84f6c23f', '001e0a9ff275d83f', 'd0860ac8dcdbe63f'),
    (3, 3, 'unit'): ('8b1b59638bd7b93f', 'e8d9a911ecb3dc3f', 'ad918145b409e83f'),
    (4, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (4, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (4, 1, 'moebius'): ('000000000000e83f', 'd6e6b58b1d38e83f', '951068e7e9bfe93f'),
    (4, 1, 'unit'): ('000000000000e83f', 'd6e6b58b1d38e83f', '951068e7e9bfe93f'),
    (4, 2, 'moebius'): ('000000000000e23f', '36def4bbe7aae53f', 'd42020da5e04ee3f'),
    (4, 2, 'unit'): ('af67c1684c38c83f', '67c96017549adf3f', 'f1be4758e4e5ea3f'),
    (4, 3, 'moebius'): ('000000000000c23f', 'c9f3aa35d66ed63f', '8eb91d39e6afe43f'),
    (4, 3, 'unit'): ('328fc0955f91c63f', 'a41dda8c52fdd73f', '086c7313bd4de63f'),
    (5, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (5, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (5, 1, 'moebius'): ('9a9999999999e93f', '2cda72250db3e93f', 'd34a1920063fea3f'),
    (5, 1, 'unit'): ('9a9999999999e93f', '2cda72250db3e93f', 'd34a1920063fea3f'),
    (5, 2, 'moebius'): ('7b14ae47e17ae43f', '169b476ac047e63f', 'f07690929ffbeb3f'),
    (5, 2, 'unit'): ('ef8edc951e8adf3f', '81beedf2b89fe13f', 'f0db38afab73e83f'),
    (5, 3, 'moebius'): ('fca9f1d24d62c03f', '5b3ea00d329ad53f', '1e23703fd45fe33f'),
    (5, 3, 'unit'): ('a499e3498df1be3f', '570a99df2aabd53f', '1c9fce5ebcb4e43f'),
    (7, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (7, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (7, 1, 'moebius'): ('dbb66ddbb66deb3f', 'a58547c3d375eb3f', '181b1ad1fea3eb3f'),
    (7, 1, 'unit'): ('dbb66ddbb66deb3f', 'a58547c3d375eb3f', '181b1ad1fea3eb3f'),
    (7, 2, 'moebius'): ('e0e514bc9c82e73f', '4e1cd9969d16e83f', 'f9acaccd9c39eb3f'),
    (7, 2, 'unit'): ('d481256a76fad53f', '2bda00b8321cdb3f', '8648657642bce63f'),
    (7, 3, 'moebius'): ('019985fb69deba3f', 'e5f06d9e7c06d43f', None),
    (7, 3, 'unit'): ('d77069eab961a43f', '8432d6609edbd03f', None),
    (9, 0, 'moebius'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (9, 0, 'unit'): ('0000000000000000', '0000000000000000', '0000000000000000'),
    (9, 1, 'moebius'): ('1cc7711cc771ec3f', 'b060dcaa5475ec3f', '4a9708975189ec3f'),
    (9, 1, 'unit'): ('1cc7711cc771ec3f', 'b060dcaa5475ec3f', '4a9708975189ec3f'),
    (9, 2, 'moebius'): ('e0e9d6fcb048e93f', 'df9c66de3388e93f', 'e49e522ee122eb3f'),
    (9, 2, 'unit'): ('a21499d8efddc23f', '089aec6a0d91d53f', '111168c3bfffe53f'),
    (9, 3, 'moebius'): ('c708bfe08079b63f', 'e620a2c0498cd23f', None),
    (9, 3, 'unit'): ('435bdb1f3daeb33f', '37e730741775cc3f', None),
}

# (q, n, function): struct.pack("<3d?", mean.real, mean.imag, gowers_bound,
# satisfied).hex() of ap_correlation for k = 2 and, where 3 < p, k = 3,
# recorded with GOWERS_PINS
AP_PINS = {
    (3, 0, 'moebius'): ('00000000000000000000000000000000000000000000000001',),
    (3, 0, 'unit'): ('00000000000000000000000000000000000000000000000001',),
    (3, 1, 'moebius'): ('1cc7711cc771dc3f0000000000000000555555555555e53f01',),
    (3, 1, 'unit'): ('1cc7711cc771dc3f0000000000000000555555555555e53f01',),
    (3, 2, 'moebius'): ('e0e9d6fcb048c93f00000000000000001cc7711cc771dc3f01',),
    (3, 2, 'unit'): ('604fe8bcd85cc3bf65010c935746c4bf35819f1c3869e53f01',),
    (3, 3, 'moebius'): ('c708bfe08079963f0000000000000000682fa1bd84f6c23f01',),
    (3, 3, 'unit'): ('0a75ecb09662abbf622d1876229d943f55f16bb0d71de23f01',),
    (5, 0, 'moebius'): ('00000000000000000000000000000000000000000000000001', '00000000000000000000000000000000000000000000000001'),
    (5, 0, 'unit'): ('00000000000000000000000000000000000000000000000001', '00000000000000000000000000000000000000000000000001'),
    (5, 1, 'moebius'): ('7b14ae47e17ae43f00000000000000009a9999999999e93f01', 'b81e85eb51b8de3f00000000000000002cda72250db3e93f01'),
    (5, 1, 'unit'): ('7b14ae47e17ae43f00000000000000009a9999999999e93f01', 'b81e85eb51b8de3f00000000000000002cda72250db3e93f01'),
    (5, 2, 'moebius'): ('2d431cebe236da3f00000000000000007b14ae47e17ae43f01', '623255302aa9b3bf0000000000000000169b476ac047e63f01'),
    (5, 2, 'unit'): ('e66fe34311abd23fcdb55e7da72896bfdbe4c5632afee23f01', '3e68b95d1f31983f1867efd3d14168bfb5f474bcff49dd3f01'),
    (5, 3, 'moebius'): ('8dedb5a0f7c6903f0000000000000000fca9f1d24d62c03f01', '230f441669e2ad3f00000000000000005b3ea00d329ad53f01'),
    (5, 3, 'unit'): ('ca97f773636da53f28aa043206fc823f3ea2bd2827b2d63f01', 'd444f25c29586abfdcd17f3fa6c95fbff33f90458958d63f01'),
    (7, 0, 'moebius'): ('00000000000000000000000000000000000000000000000001', '00000000000000000000000000000000000000000000000001'),
    (7, 0, 'unit'): ('00000000000000000000000000000000000000000000000001', '00000000000000000000000000000000000000000000000001'),
    (7, 1, 'moebius'): ('e0e514bc9c82e73f0000000000000000dbb66ddbb66deb3f01', 'e514bc9c8297e33f0000000000000000a58547c3d375eb3f01'),
    (7, 1, 'unit'): ('e0e514bc9c82e73f0000000000000000dbb66ddbb66deb3f01', 'e514bc9c8297e33f0000000000000000a58547c3d375eb3f01'),
    (7, 2, 'moebius'): ('5ce2d56ad645e13f0000000000000000e0e514bc9c82e73f01', 'd3a71ac67e3bd2bf00000000000000004e1cd9969d16e83f01'),
    (7, 2, 'unit'): ('2f194278918eb4bfcbe22cb62cdab33f19da0769edcdd43f01', '15d10aae944b80bfa2e6879807b8a53ffbf603d29bf4de3f01'),
    (7, 3, 'moebius'): ('a2f89918768f863f0000000000000000019985fb69deba3f01', '33271165010fb03f0000000000000000e5f06d9e7c06d43f01'),
    (7, 3, 'unit'): ('4ca669e2d1696a3f11d07d7f16c9483fda3e28dc3e4cb53f01', '82c02241a0b07cbfa1a4bfa60e2084bf4004c69f61a8d13f01'),
    (9, 0, 'moebius'): ('00000000000000000000000000000000000000000000000001',),
    (9, 0, 'unit'): ('00000000000000000000000000000000000000000000000001',),
    (9, 1, 'moebius'): ('e0e9d6fcb048e93f00000000000000001cc7711cc771ec3f01',),
    (9, 1, 'unit'): ('e0e9d6fcb048e93f00000000000000001cc7711cc771ec3f01',),
    (9, 2, 'moebius'): ('957954ab39fae33f0000000000000000e0e9d6fcb048e93f01',),
    (9, 2, 'unit'): ('4d5d0aee03d5a03f0687019038ad87bfb44f4e643343ce3f01',),
    (9, 3, 'moebius'): ('cfb9621bbd917f3f0000000000000000c708bfe08079b63f01',),
    (9, 3, 'unit'): ('1af8c845c0448d3ffd268ac6016258bf5f095e0a6aecc73f01',),
}


PIN_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def pin_functions(field, name, count):
    """`count` functions: Moebius in every slot, or seeded random units on
    the irreducibles, one seed a slot."""
    if name == "moebius":
        return [builtin(field, "moebius")] * count
    return [random_on_irreducibles(field, field.q + j, "unit") for j in range(count)]


@pytest.mark.parametrize("case", sorted(GOWERS_PINS))
def test_gowers_norm_matches_pin(case):
    q, n, name = case
    field = build_field(*PIN_FIELDS[q])
    for k, pin in zip((1, 2, 3), GOWERS_PINS[case]):
        run = functools.partial(gowers_norm, field, n, pin_functions(field, name, 1)[0], k)
        if pin is None:
            with pytest.raises(BudgetError):
                run()
            continue
        assert struct.pack("<d", run()).hex() == pin, k


@pytest.mark.parametrize("case", sorted(AP_PINS))
def test_ap_correlation_matches_pin(case):
    q, n, name = case
    field = build_field(*PIN_FIELDS[q])
    for k, pin in zip((2, 3), AP_PINS[case]):
        res = ap_correlation(field, n, pin_functions(field, name, k))
        assert struct.pack("<3d?", res.mean.real, res.mean.imag, res.gowers_bound,
                           res.satisfied).hex() == pin, k


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
    assert res.value >= 0
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
    P = PolynomialPhase(F5, 6, ((1, (L1, L2)),))
    dQ = derivative_form(P, 2, verify=False)
    base = analytics._pair_set(F5, 1, "G_{k+1}")
    rows = analytics._dilated_rows(F5, (L1, L2), base, 2)
    a = 6                                     # the base member of index 7
    assert np.concatenate(list(base.values()))[a] == 7
    terms = [(c, [rows[L][a] for L in funcs]) for c, funcs in dQ.terms]
    terms += [(F5.neg_py[c], [rows[L][a] for L in funcs]) for c, funcs in dQ.terms]
    counts = _form_counts(F5, terms, (25, 25))
    assert counts[0] == counts.sum() == 25 ** 2      # alpha(0) everywhere


def test_dilated_rows_match_pointwise():
    rng = random.Random(23)
    for pair_set in ("G_{k+1}", "P_k"):
        base = analytics._pair_set(F3, 2, pair_set)
        members = np.concatenate(list(base.values())).tolist()
        funcs = [LaurentTruncation.random(F3, 8, rng) for _ in range(3)]
        inner = 8 - max(base)
        rows = analytics._dilated_rows(F3, funcs, base, inner)
        for L in funcs:
            assert rows[L].shape == (len(members), 3 ** inner)
            for i, a in enumerate(members):
                a = Poly.from_index(F3, a)
                for g in rng.sample(range(3 ** inner), 10):
                    assert rows[L][i, g] == linear_form(L, a * Poly.from_index(F3, g))
    with pytest.raises(ValueError):           # depth 8 < 6 + the largest degree 3
        analytics._dilated_rows(F3, funcs, analytics._pair_set(F3, 2, "P_k"), 6)


# (q, n, k, base set, mode): struct.pack("<d", value).hex(), pairs, mode used
# (mode "sampled" with max_pairs 300, "exhaustive" with the default 2000,
# seed 5).  Each value is the exact mean of its pairs' inner biases rounded
# once, which tests/test_exactness.py asserts against its Fraction; the
# entries that read the same bits before the bias was a vanishing count were
# recorded with the per-a scaled forms r_bias_statistic had before it read
# dilated tables
R_BIAS_PINS = {
    (3, 3, 1, "G_{k+1}", "exhaustive"): ("555555555555d53f", 64, "exhaustive"),
    (3, 3, 1, "G_{k+1}", "sampled"): ("555555555555d53f", 64, "sampled"),
    (3, 4, 2, "G_{k+1}", "exhaustive"): ("e4f4615a5789d03f", 676, "exhaustive"),
    (3, 4, 2, "G_{k+1}", "sampled"): ("02d4fb784b73d03f", 300, "sampled"),
    (3, 4, 1, "P_k", "exhaustive"): ("242ac8360414cf3f", 36, "exhaustive"),
    (3, 4, 1, "P_k", "sampled"): ("242ac8360414cf3f", 36, "sampled"),
    (5, 3, 1, "G_{k+1}", "exhaustive"): ("ec51b81e85ebc13f", 576, "exhaustive"),
    (5, 3, 1, "G_{k+1}", "sampled"): ("b921b3a01d5dc23f", 300, "sampled"),
    (5, 4, 2, "G_{k+1}", "exhaustive"): ("0b7bdae1afc9ba3f", 2000, "sampled"),
    (5, 4, 2, "G_{k+1}", "sampled"): ("07f0164850fcb83f", 300, "sampled"),
    (5, 4, 1, "P_k", "exhaustive"): ("f4836b8c61ffb33f", 225, "exhaustive"),
    (5, 4, 1, "P_k", "sampled"): ("f4836b8c61ffb33f", 225, "sampled"),
    (7, 3, 1, "G_{k+1}", "exhaustive"): ("601a8d10c4c1b43f", 2000, "sampled"),
    (7, 3, 1, "G_{k+1}", "sampled"): ("e622113e9fd6b53f", 300, "sampled"),
    (7, 4, 2, "G_{k+1}", "exhaustive"): ("43b35b664b44a63f", 2000, "sampled"),
    (7, 4, 2, "G_{k+1}", "sampled"): ("a4f7e75a65c3a13f", 300, "sampled"),
    (7, 4, 1, "P_k", "exhaustive"): ("30150739a0efa43f", 784, "exhaustive"),
    (7, 4, 1, "P_k", "sampled"): ("61bae3cc4ff1a33f", 300, "sampled"),
}


def pin_phase(q):
    """A degree-2 phase on G_5 with product, linear and monomial terms."""
    F = build_field(q, 1)
    rng = random.Random(q)
    L = [LaurentTruncation.random(F, 7, rng) for _ in range(3)]
    return PolynomialPhase(F, 5, ((1, (L[0], L[1])), (q - 1, (L[2], L[2])), (2, (L[0],))),
                           ((1, ((0, 1), (3, 1))),))


@pytest.mark.parametrize("case", sorted(R_BIAS_PINS))
def test_r_bias_matches_pin(case):
    q, n, k, base_set, mode = case
    res = r_bias_statistic(pin_phase(q), n=n, k=k, base_set=base_set, mode=mode,
                           max_pairs=300 if mode == "sampled" else 2000, seed=5)
    assert (struct.pack("<d", res.value).hex(), res.pairs, res.mode) == R_BIAS_PINS[case]


def test_r_bias_checks_its_arguments_first(monkeypatch):
    def no_form(*args, **kwargs):
        raise AssertionError("derivative_form called")

    monkeypatch.setattr(analytics, "derivative_form", no_form)
    P = pin_phase(3)
    for kwargs in ({"mode": "typo"}, {"mode": "Sampled"}, {"m": 0}, {"m": -1},
                   {"n": 4, "k": 4}, {"n": 2, "k": 3}):
        args = {"n": 4, "k": 1, **kwargs}
        with pytest.raises(ValueError):
            r_bias_statistic(P, **args)
    tiny = PolynomialPhase.from_linear(LaurentTruncation.random(
        build_field(3, 1, enumeration_budget=1), 5, random.Random(2)), 5)
    with pytest.raises(ValueError):               # not the BudgetError of the charge
        r_bias_statistic(tiny, n=4, k=1, mode="typo")


def test_r_bias_refuses_max_pairs_below_one_before_any_charge():
    # max_pairs = 0 ended in ZeroDivisionError and -1 in numpy's "negative
    # dimensions", each after the charges and the dilated tables
    tiny = PolynomialPhase.from_linear(LaurentTruncation.random(
        build_field(3, 1, enumeration_budget=1), 5, random.Random(2)), 5)
    for P in (pin_phase(3), tiny):
        for max_pairs in (0, -1):
            with pytest.raises(ValueError, match="max_pairs"):
                r_bias_statistic(P, n=4, k=1, mode="sampled", max_pairs=max_pairs)


def test_r_bias_base_sets():
    rng = random.Random(17)
    L1 = LaurentTruncation.random(F3, 6, rng)
    L2 = LaurentTruncation.random(F3, 6, rng)
    P = PolynomialPhase(F3, 6, ((1, (L1, L2)),))
    r1 = r_bias_statistic(P, n=3, k=1, base_set="G_{k+1}")
    r2 = r_bias_statistic(P, n=3, k=1, base_set="P_k")
    assert r1.value >= 0 and r2.value >= 0
    assert r2.pairs == len(list(__import__("ffmult.polys", fromlist=["p_k"]).p_k(F3, 1))) ** 2


def test_sampled_r_bias_over_every_pair_is_exhaustive_with_no_stderr():
    # drawn without replacement, a sample of all M pairs is the population
    exhaustive = r_bias_statistic(pin_phase(3), n=4, k=1)
    sampled = r_bias_statistic(pin_phase(3), n=4, k=1, mode="sampled", max_pairs=64, seed=3)
    assert (exhaustive.pairs, exhaustive.mode, sampled.pairs) == (64, "exhaustive", 64)
    assert struct.pack("<d", sampled.value) == struct.pack("<d", exhaustive.value)
    assert sampled.stderr == 0.0


def test_sampled_r_bias_stderr_is_the_spread_of_the_estimate():
    # 40 of the 64 pairs: the stderr needs the finite population correction
    runs = [r_bias_statistic(pin_phase(3), n=4, k=1, mode="sampled", max_pairs=40, seed=seed)
            for seed in range(100)]
    spread = np.std([r.value for r in runs], ddof=1)
    ratio = np.mean([r.stderr for r in runs]) / spread
    assert 0.75 <= ratio <= 1.33, ratio


def test_sampled_r_bias_holds_no_list_of_the_pairs():
    # |G_7 - 0|^2 = 4,778,596 pairs over F_3, 200 of them sampled
    rng = random.Random(3)
    L = [LaurentTruncation.random(F3, 8, rng) for _ in range(3)]
    P = PolynomialPhase(F3, 8, ((1, (L[0], L[1])), (2, (L[2],))))
    tracemalloc.start()
    try:
        res = r_bias_statistic(P, n=8, k=6, mode="sampled", max_pairs=200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.pairs, res.mode) == (200, "sampled")
    assert peak < 8 * 2 ** 20, peak


def test_r_bias_charges_its_dilated_tables():
    # 2 functionals x 728 members of G_6 - 0 x 3^2 entries of G_2 = 13,104,
    # where the one pair's inner bias is bias_cost(3, (2, 2)) = 3^2 * 2 = 18
    rng = random.Random(4)
    tails = [LaurentTruncation.random(F3, 7, rng) for _ in range(2)]
    for budget in (13103, 13104):
        F = build_field(3, 1, enumeration_budget=budget)
        L1, L2 = (LaurentTruncation(F, tail.coeffs) for tail in tails)
        run = functools.partial(r_bias_statistic, PolynomialPhase(F, 7, ((1, (L1, L2)),)),
                                n=7, k=5, max_pairs=1)
        if budget < 13104:
            with pytest.raises(BudgetError, match="13104"):
                run()
        else:
            assert run().inner_evaluations == 18


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
