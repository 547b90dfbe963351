import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from ffmult.characters import DegreeTwist, HayesCharacter, dirichlet_characters
from ffmult.fields import build_field
from ffmult.multiplicative import (_pm1_draws, builtin, from_character,
                                   random_on_irreducibles, twist)
from ffmult.polys import Poly, g_n, irreducibles_of_degree, poly_gcd

F2 = build_field(2, 1)
F3 = build_field(3, 1)


def test_builtin_values():
    mu = builtin(F2, "moebius")
    x, xp1 = Poly.x(F2), Poly(F2, (1, 1))
    assert mu(x) == -1
    assert mu(x * x) == 0
    assert mu(x * xp1) == 1
    lam = builtin(F2, "liouville")
    assert lam(x * x) == 1 and lam(x ** 3) == -1
    one = builtin(F2, "one")
    assert all(one(Poly.from_index(F2, i)) == 1 for i in range(1, 64))
    with pytest.raises(ValueError):
        builtin(F2, "tau")


def test_conventions_at_zero_and_units():
    mu = builtin(F3, "moebius")
    assert mu(Poly.zero(F3)) == 0
    assert mu(Poly.one(F3)) == 1
    assert mu(Poly.constant(F3, 2)) == 1      # unit rule constant 1


def test_moebius_sum_over_gn():
    # brute force oracle: sum over G_n of mu is (q-1)(1-q) for n >= 3
    for F, n in ((F2, 4), (F2, 6), (F3, 4)):
        mu = builtin(F, "moebius")
        total = sum(mu(g) for g in g_n(F, n))
        assert abs(total - (F.q - 1) * (1 - F.q)) < 1e-12


def test_monic_moebius_sums_match_zeta_identity():
    # sums over monic polynomials of degree d: 1, -q, 0, 0, ...
    for F in (F2, F3):
        mu = builtin(F, "moebius")
        from ffmult.polys import monic_of_degree
        sums = [sum(mu(g) for g in monic_of_degree(F, d)) for d in range(5)]
        assert sums[0] == 1 and sums[1] == -F.q
        assert all(abs(s) < 1e-12 for s in sums[2:])


def test_coprime_multiplicativity_random_pairs():
    rng = random.Random(5)
    funcs = [builtin(F3, "moebius"), builtin(F3, "liouville"),
             random_on_irreducibles(F3, 77)]
    checked = 0
    while checked < 1000:
        f = rng.choice(funcs)
        a = Poly.from_index(F3, rng.randrange(1, 3 ** 4))
        b = Poly.from_index(F3, rng.randrange(1, 3 ** 4))
        if poly_gcd(a, b) != Poly.one(F3):
            continue
        checked += 1
        assert abs(f(a * b) - f(a) * f(b)) < 1e-12


def test_complete_multiplicativity_of_liouville_and_random():
    rng = random.Random(6)
    for f in (builtin(F2, "liouville"), random_on_irreducibles(F2, 3)):
        for _ in range(300):
            a = Poly.from_index(F2, rng.randrange(1, 2 ** 6))
            b = Poly.from_index(F2, rng.randrange(1, 2 ** 6))
            assert abs(f(a * b) - f(a) * f(b)) < 1e-12


def test_boundedness_on_g12():
    for name in ("moebius", "liouville", "one"):
        f = builtin(F2, name)
        assert all(abs(f(g)) <= 1 + 1e-12 for g in g_n(F2, 12))


def test_cache_transparency():
    f1 = builtin(F2, "moebius")
    f2 = builtin(F2, "moebius")
    for idx in range(1, 2 ** 8):
        g = Poly.from_index(F2, idx)
        first = f1(g)
        again = f1(g)          # same instance, second call
        fresh = f2(g)          # another instance
        assert first == again == fresh


def test_random_function_determinism():
    f1 = random_on_irreducibles(F2, 42)
    f2 = random_on_irreducibles(F2, 42)
    g3 = random_on_irreducibles(F2, 43)
    vals1 = [f1(Poly.from_index(F2, i)) for i in range(1, 2 ** 10)]
    vals2 = [f2(Poly.from_index(F2, i)) for i in range(1, 2 ** 10)]
    assert vals1 == vals2
    assert vals1 != [g3(Poly.from_index(F2, i)) for i in range(1, 2 ** 10)]


def test_random_function_value_sets():
    f = random_on_irreducibles(F3, 1, "pm1")
    assert all(f(p) in (1, -1) for p in
               [Poly(F3, (1, 1)), Poly(F3, (2, 1)), Poly(F3, (1, 0, 1))])
    u = random_on_irreducibles(F3, 1, "unit")
    for p in (Poly(F3, (1, 1)), Poly(F3, (1, 0, 1))):
        assert abs(abs(u(p)) - 1) < 1e-12
    # complete multiplicativity on prime powers
    p = Poly(F3, (1, 1))
    assert abs(f(p * p) - f(p) ** 2) < 1e-12
    with pytest.raises(ValueError):
        random_on_irreducibles(F3, 1, "gauss")


@pytest.mark.parametrize("key", [1, 12345, 99, 2 ** 40 + 7])
def test_bulk_pm1_draws_are_those_of_rng_choice(key):
    # count 0, short counts and the 747 primes of F_2 of degrees 1..12; at
    # the key 2^40 + 7, 5000 values take a second bulk draw
    for count in (0, 1, 5, 63, 64, 747, 5000):
        rng = random.Random(key)
        expected = [rng.choice((1.0, -1.0)) for _ in range(count)]
        got = _pm1_draws(random.Random(key), count)
        assert got.dtype == np.float64 and got.shape == (count,)
        assert struct.pack(f"<{count}d", *got.tolist()) == struct.pack(f"<{count}d", *expected)


def test_from_character_matches_hayes():
    H = HayesCharacter(F3, twist=DegreeTwist(Fraction(1, 3)))
    f = from_character(H)
    for idx in range(1, 81):
        g = Poly.from_index(F3, idx)
        assert abs(f(g) - H(g)) < 1e-15
    assert f.completely_multiplicative
    triv = from_character(HayesCharacter.trivial(F2))
    assert all(triv(Poly.from_index(F2, i)) == 1 for i in range(1, 32))


@pytest.mark.parametrize("theta", [Fraction(1, 3), Fraction(1, 4), Fraction(2, 5), 0.7, None])
def test_twist_profile_is_the_prime_power_rule(theta):
    # the degree profile of a pure twist is f(p^k) by contract: bit for bit
    # on_prime_power(p, k) = H(p) ** k at a prime of every degree d <= 8
    H = HayesCharacter(F2, twist=None if theta is None else DegreeTwist(theta))
    f = from_character(H)
    for d in range(1, 9):
        p = irreducibles_of_degree(F2, d)[0]
        for k in range(1, 4):
            got, expected = complex(f.degree_profile(d, k)), complex(f.on_prime_power(p, k))
            assert struct.pack("<2d", got.real, got.imag) \
                == struct.pack("<2d", expected.real, expected.imag), (d, k)


def test_from_character_zero_off_units():
    chi = dirichlet_characters(Poly.x(F2))[0]
    f = from_character(HayesCharacter(F2, dirichlet=chi))
    assert f(Poly.x(F2) * Poly(F2, (1, 1))) == 0


def test_twist_identities():
    mu = builtin(F2, "moebius")
    trivial = HayesCharacter.trivial(F2)
    t = twist(mu, trivial)
    for idx in range(1, 2 ** 6):
        g = Poly.from_index(F2, idx)
        assert t(g) == mu(g)
    # twist(one, H) = from_character(H)
    H = HayesCharacter(F2, twist=DegreeTwist(Fraction(1, 2)))
    lhs = twist(builtin(F2, "one"), H)
    rhs = from_character(H)
    for idx in range(1, 2 ** 6):
        g = Poly.from_index(F2, idx)
        assert abs(lhs(g) - rhs(g)) < 1e-15
    # twist(mu, e_{1/2}) = mu(g) * (-1)^deg
    tm = twist(mu, H)
    for idx in range(1, 2 ** 6):
        g = Poly.from_index(F2, idx)
        assert abs(tm(g) - mu(g) * (-1) ** int(g.degree)) < 1e-15


def test_twist_conjugate_flag():
    H = HayesCharacter(F3, twist=DegreeTwist(Fraction(1, 3)))
    mu = builtin(F3, "moebius")
    tc = twist(mu, H, conjugate=True)
    for idx in range(1, 81):
        g = Poly.from_index(F3, idx)
        assert abs(tc(g) - mu(g) * H(g).conjugate()) < 1e-15


def test_descriptors():
    assert builtin(F2, "moebius").descriptor() == {"kind": "builtin", "name": "moebius"}
    d = random_on_irreducibles(F2, 9, "unit").descriptor()
    assert d == {"kind": "random", "seed": 9, "values": "unit"}
