"""The array paths against the per-element paths, bit for bit.

`function_on_gn` (the prime-power sieve, or its per-element fallback for
characters and twists) must give exactly the bytes of [f(g) for g in G_n],
and `correlate` / `katai_statistic` must give the same floats whether the
function arrives as a MultiplicativeFunction, as an array, or wrapped in a
plain lambda that forces the per-element loop.
"""

import struct

import numpy as np
import pytest

from ffmult import (LaurentTruncation, Poly, PolynomialPhase, build_field, builtin,
                    correlate, from_character, katai_statistic, phase_character_array,
                    random_on_irreducibles, sample_on_gn, twist)
from ffmult.experiments import resolve_hayes
from ffmult.multiplicative import function_on_gn

# (p, r) -> largest n of the grid
GRID = {(2, 1): 11, (3, 1): 7, (2, 2): 5, (5, 1): 4}

FUNCTIONS = ("moebius", "liouville", "one", "random-pm1", "random-unit",
             "character", "twist")


def make_function(field, name):
    if name in ("moebius", "liouville", "one"):
        return builtin(field, name)
    if name == "random-pm1":
        return random_on_irreducibles(field, 17, "pm1")
    if name == "random-unit":
        return random_on_irreducibles(field, 23, "unit")
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
    g = make_function(field, name)
    as_lambda = katai_statistic(field, lambda h: g(h), n, k, pair_set, per_pair)
    assert struct.pack("<d", as_mf) == struct.pack("<d", as_array) \
        == struct.pack("<d", as_lambda)
