"""The array paths against the per-element paths, bit for bit.

`times_fixed`, the one product kernel on index space, must give the indices
of the Poly products p*h for stacks of polynomials, cofactor ranges (mapped
as outer sums) and the same rows as explicit index arrays, and any
chunking; the Turan-Kubilius counts built once on G_{n_stop} must equal
the counts built on each G_n and those of a per-prime loop, and each
tk-check row the result of `turan_kubilius` for its n alone.

The residue and top-coefficient kernels must equal `Poly.__mod__` and
`top_coefficient_tuple`; a Hayes product read as an array
(`HayesCharacter.values_at`) must give the bytes of [H(g)], and of [H(g) ** 1]
where the prime-power rule applies it.

`function_on_gn` (the prime-power sieve, or the Hayes arrays for
characters and twists) must give exactly the bytes of [f(g) for g in G_n],
and, at sizes where that scalar path is too slow, of a per-prime reference
loop; the sieve makes one chunked engine call per degree and no block,
stays within a memory bound, gives the same bytes at every chunk size and
leaves in the field the irreducibles the standalone sieve gives;
`prime_values` those of [f.on_prime_power(p, 1)], and `correlate` /
`katai_statistic` must give the same floats whether the function arrives
as a MultiplicativeFunction, as an array, or wrapped in a plain callable
that is called polynomial by polynomial.  A plain callable is called once
per element of G_n, and an over-budget one not at all; a bare
HayesCharacter gives the bytes of its function on every statistic of G_n;
`mean_value` equals the scalar fsum over the degree-n slice, and for a
character reads and charges that slice alone;
`distance_terms` and `min_distance_over_hayes` equal their scalar loops.
The exact integer route of `katai_statistic`, `correlate` and `mean_value`
(int64 Gram matrices, dots and sums for values in {0, +-1, +-i, +-1+-i})
must give the bits of the fsum route, call no fsum but the Katai total,
leave NaN, infinities and non-integers to the fsum route without a
RuntimeWarning, and read array inputs in place without changing them.

A built-in read once per degree from its profile must give the bytes of
its per-prime rule, and the array paths of the built-ins and random
functions (the sieve, the Turan-Kubilius counts, function and prime
arrays, distance terms against a Hayes character, the Katai statistic on
either pair set, the Euler product of every function but a built-in
without its profile, a run of every experiment kind) must build no Poly.
The Katai and r-bias pair sets read as index arrays must be `p_k` and the
nonzero G_{k+1} in order, `halasz_product` must give the bits of its
per-prime loop, and a phase on G_{n_stop} must have the phase on each G_n
as its prefix.
"""

import cmath
import functools
import math
import random
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from ffmult import (BudgetError, DegreeTwist, HayesCharacter, LaurentTruncation,
                    MultiplicativeFunction, Poly, PolynomialPhase, UnitCharacter, ap_correlation,
                    build_field, builtin, correlate, dirichlet_characters, from_character,
                    halasz_product, gowers_norm, katai_statistic, mean_value, p_k,
                    phase_character_array, r_bias_statistic, random_on_irreducibles,
                    run_experiment, sample_on_gn, short_interval_characters, twist, u2_fourier)
from ffmult import analytics, gn
from ffmult.analytics import (distance_terms, min_distance_over_hayes, squared_deviations,
                              turan_kubilius, turan_kubilius_from_squares,
                              window_divisor_counts, window_mass)
from ffmult.characters import DirichletCharacter, top_coefficient_tuple
from ffmult.experiments import resolve_hayes
from ffmult.gn import times_fixed, translates
from ffmult.laurent import linear_form, linear_form_table
from ffmult.multiplicative import _products, function_on_gn, prime_values
from ffmult.polys import (irreducible_count, irreducible_indices, irreducibles_of_degree,
                          necklace_count, sieve_through)

# (p, r) -> largest n of the grid
GRID = {(2, 1): 11, (3, 1): 7, (2, 2): 5, (5, 1): 4}

FUNCTIONS = ("moebius", "liouville", "one", "random-pm1", "random-unit",
             "character", "twist", "unit-liouville", "dirichlet-unit", "float-theta",
             "twist-random-unit")
# the FUNCTIONS that are from_character of a bare Hayes character
CHARACTERS = ("character", "dirichlet-unit", "float-theta")


def _quartic_dirichlet(field):
    """A Dirichlet character that takes the value -i, where `** 1` flips the
    sign of a zero real part: mod x^3 in characteristic 2 (units 1 + x
    of order 4), mod x^2 + 1 otherwise."""
    modulus = (0, 0, 0, 1) if field.p == 2 else (1, 0, 1)
    return next(c for c in dirichlet_characters(Poly(field, modulus))
                if any(4 * e == 3 * c.order for e in c.table.tolist()))


def make_character(field, name):
    """The HayesCharacter of the function `name` of CHARACTERS."""
    if name == "character":
        return resolve_hayes(field, {"short": {"s": 1, "index": 1}, "theta": "1/5"})
    if name == "dirichlet-unit":
        return HayesCharacter(field, _quartic_dirichlet(field), unit=UnitCharacter(field, 1))
    return resolve_hayes(field, {"theta": 0.3, "short": {"s": 1, "index": 1}})


def make_function(field, name):
    if name in CHARACTERS:
        return from_character(make_character(field, name))
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
    if name == "twist-random-unit":
        return twist(random_on_irreducibles(field, 29, "unit"),
                     HayesCharacter(field, _quartic_dirichlet(field),
                                    twist=DegreeTwist(Fraction(1, 4))),
                     conjugate=True)
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


def per_prime_sieve(f, n):
    """function_on_gn as the prime-power sieve was first written: one scale
    of the exact multiples of p^k per prime p and k, primes boxed from the
    standalone sieve, in (degree, index) order."""
    field = f.field
    q = field.q
    units = [0j] + [complex(f.unit_rule(c)) for c in range(1, q)]
    lc = np.zeros(q ** n, dtype=np.intp)          # the leading coefficient of each index
    for j in range(n):
        lc[q ** j:q ** (j + 1)] = np.repeat(np.arange(1, q), q ** j)
    re = np.array([u.real for u in units])[lc]
    im = np.array([u.imag for u in units])[lc]
    for d in range(1, n):
        primes = irreducibles_of_degree(field, d)
        for p, step in zip(primes, times_fixed(field, [p.to_index() for p in primes], n - d)):
            mult, k = step, 1
            while True:
                rest = n - (k + 1) * d
                divisible = step[:q ** max(rest, 0)]
                exact = np.ones(mult.size, dtype=bool)
                exact[divisible] = False
                c, at = f.on_prime_power(p, k), mult[exact]
                ar, ai = re[at], im[at]
                re[at] = ar * c.real - ai * c.imag
                im[at] = ar * c.imag + ai * c.real
                if rest < 1:
                    break
                mult, k = mult[divisible], k + 1
    out = np.empty(q ** n, dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def prime_rule(field):
    """No degree profile, and a distinct value at every prime power, so the
    order in which a g's factors are multiplied shows in the last bits."""
    return MultiplicativeFunction(
        field, lambda p, k: cmath.exp(1j * (0.1 + p.to_index() * 0.7 + k * 0.3)) * (1 + k / 7),
        name="prime-rule")


@pytest.mark.parametrize("pr,n", [((2, 1), 14), ((3, 1), 9), ((2, 2), 6), ((5, 1), 6),
                                  ((3, 2), 4)])
@pytest.mark.parametrize("name", ("random-unit", "unit-liouville", "prime-rule"))
def test_function_on_gn_equals_the_per_prime_sieve(pr, n, name):
    # n where rounds (several primes of one degree) and k >= 2 meet; the
    # scalar path is too slow here, so the per-prime loop is the reference
    def make(field):
        return prime_rule(field) if name == "prime-rule" else make_function(field, name)

    field, reference = build_field(*pr), build_field(*pr)
    got = function_on_gn(make(field), n)
    assert got.tobytes() == per_prime_sieve(make(reference), n).tobytes()
    # the irreducibles read from the pass's marks, against a fresh field's sieve
    fresh = build_field(*pr)
    assert sorted(field._irreducible_indices) == list(range(1, n))
    for d in range(1, n):
        cached = field._irreducible_indices[d]
        assert cached.dtype == np.int64
        assert np.array_equal(cached, irreducible_indices(fresh, d)), d


def test_function_on_gn_sieves_by_one_chunked_call_per_degree_within_a_memory_bound(
        monkeypatch):
    from ffmult import multiplicative

    degrees, blocks = [], []
    chunks, linear_map = multiplicative.times_fixed_chunks, gn._linear_map

    def chunks_spy(field, polys, m, *args, **kwargs):
        # the primes arrive as an index array of one degree, and every
        # cofactor is mapped
        assert polys.dtype == np.int64 and not kwargs
        (degree,) = set(gn.degrees(field.q, polys).tolist())
        degrees.append(degree)
        return chunks(field, polys, m, *args, **kwargs)

    def block_spy(*args):               # every times_fixed block is collected here
        blocks.append(args)
        return linear_map(*args)

    monkeypatch.setattr(multiplicative, "times_fixed_chunks", chunks_spy)
    monkeypatch.setattr(gn, "_linear_map", block_spy)
    for pr, n in (((2, 1), 13), ((3, 1), 9)):
        degrees.clear()
        function_on_gn(builtin(build_field(*pr), "moebius"), n)
        assert degrees == list(range(1, n)), pr
    assert not blocks
    monkeypatch.undo()
    for pr, n in (((2, 1), 16), ((3, 1), 9)):
        for name in ("moebius", "random-pm1"):
            f = make_function(build_field(*pr), name)
            out, peak = _traced_peak(lambda: function_on_gn(f, n))
            assert peak <= 8 * out.nbytes, (pr, name)


@pytest.mark.parametrize("pr,n", [((2, 1), 10), ((3, 1), 7), ((2, 2), 5), ((5, 1), 5)])
def test_function_on_gn_is_independent_of_the_chunk_size(pr, n, monkeypatch):
    # chunks of 7 and 40 cut the sieve's stores inside rows of primes and
    # of cofactors: the same bytes and irreducibles as one chunk per degree
    for name in ("prime-rule", "random-unit"):
        got = []
        for chunk in (None, 7, 40):
            if chunk is not None:
                monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
            field = build_field(*pr)
            f = prime_rule(field) if name == "prime-rule" else make_function(field, name)
            got.append((function_on_gn(f, n).tobytes(),
                        [field._irreducible_indices[d].tobytes() for d in range(1, n)]))
        monkeypatch.undo()
        assert got[0] == got[1] == got[2], name


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
    # H(0) raises: a bare character is read as its function's array, which
    # is 0 at g = 0, and gives that function's bytes on every domain
    field = build_field(*pr)
    t = phase_character_array(_phase(field, n, seed=n))
    for name in CHARACTERS:
        H, f = make_character(field, name), make_function(field, name)
        for domain in ("all", "nonzero", "monic"):
            assert bits(correlate(field, H, t, n, domain)) \
                == bits(correlate(field, f, t, n, domain)), (name, domain)


@pytest.mark.parametrize("pr,n,k", [((2, 1), 9, 3), ((3, 1), 5, 1), ((2, 2), 4, 1)])
@pytest.mark.parametrize("name", CHARACTERS)
def test_bare_hayes_character_equals_its_function_on_every_statistic(pr, n, k, name):
    # correlate is test_bare_hayes_character_correlates_off_zero
    field = build_field(*pr)
    H, f = make_character(field, name), make_function(field, name)
    for domain in ("monic", "all"):
        assert bits(mean_value(H, n - 1, domain)) == bits(mean_value(f, n - 1, domain)), domain
    stats = [lambda g: gowers_norm(field, n, g, 1), lambda g: gowers_norm(field, n, g, 2),
             lambda g: u2_fourier(field, n, g)]
    stats += [lambda g, pair_set=pair_set: katai_statistic(field, g, n, k, pair_set)
              for pair_set in ("P_k", "G_{k+1}")]
    for stat in stats:
        assert struct.pack("<d", stat(H)) == struct.pack("<d", stat(f))


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


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", CHARACTERS)
def test_mean_value_of_a_character_reads_its_slice_alone(pr, name):
    # H and from_character(H) give the bits of the fsum over sample_on_gn's
    # slice of G_{n+1}, and a budget of the slice's size is enough
    field = build_field(*pr)
    q, n = field.q, GRID[pr] - 2
    for domain, top in (("monic", 2), ("all", q)):
        size = (top - 1) * q ** n
        values = sample_on_gn(field, n + 1, make_character(field, name))[q ** n:top * q ** n]
        reference = complex(math.fsum(values.real.tolist()),
                            math.fsum(values.imag.tolist())) / size
        for budget in (size, size - 1):
            H = make_character(build_field(*pr), name)
            H.field.enumeration_budget = budget
            for f in (H, from_character(H)):
                if budget < size:
                    with pytest.raises(BudgetError):
                        mean_value(f, n, domain)
                else:
                    assert bits(mean_value(f, n, domain)) == bits(reference), (domain, f)


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


# q -> ((p, r), largest cofactor width m of the kernel grid); for p = 3, 5
# and 17, 2(p - 1) is a power of two, so a lane one bit too narrow for the
# sum of two digits overflows
KERNEL_GRID = {2: ((2, 1), 7), 3: ((3, 1), 4), 4: ((2, 2), 3), 5: ((5, 1), 3),
               8: ((2, 3), 3), 9: ((3, 2), 2), 17: ((17, 1), 2), 27: ((3, 3), 1)}


def poly_products(field, stack, cofactors):
    """The indices of the Poly products a*h, a in the index stack `stack`."""
    return np.array([[(Poly.from_index(field, int(a)) * Poly.from_index(field, int(h))).to_index()
                      for h in cofactors] for a in stack], dtype=np.int64)


def as_indices(q: int, stack) -> np.ndarray:
    """The int64 indices of a stack of coefficient rows, lowest first."""
    return np.array([sum(c * q ** j for j, c in enumerate(row)) for row in stack],
                    dtype=np.int64)


def kernel_stacks(field):
    """Index stacks: one prime (k = 1), every prime of degree 1 and 2,
    every nonzero constant, the constants 0 and q - 1 alone as lists (a
    product by one constant) and every nonzero polynomial of degree 1
    (leading coefficients other than 1)."""
    q = field.q
    return [irreducible_indices(field, 2)[-1:],
            irreducible_indices(field, 1),
            irreducible_indices(field, 2),
            np.arange(1, q, dtype=np.int64),
            [0], [q - 1],
            np.arange(q, q * q, dtype=np.int64)]


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_times_fixed_equals_poly_products(q, chunk, monkeypatch):
    # a range is mapped as an outer sum of its high parts' images and the
    # first part's table, an array part by part: both must give the products
    if chunk is not None:
        # chunk boundaries inside stacks, cofactor rows and digit parts;
        # chunk 7 cuts a cofactor into many parts
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    parts = []
    chunks = gn._chunks

    def spy(tables, cofactors, *args):
        if isinstance(cofactors, range):
            parts.append(len(tables))
        return chunks(tables, cofactors, *args)
    monkeypatch.setattr(gn, "_chunks", spy)
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    for stack in kernel_stacks(field):
        for m in range(m_max + 1):
            size = q ** m
            expected = poly_products(field, stack, range(2 * size))
            out = times_fixed(field, stack, m)          # range(q^m), all of G_m
            assert out.dtype == np.int64 and out.shape == (len(stack), size)
            assert np.array_equal(out, expected[:, :size]), (stack, m)
            assert np.array_equal(times_fixed(field, stack, m, np.arange(size)), out)
            # the sieve's monic block of G_{m+1}; ends off every power of p
            # (for p^m > 4) and empty ranges for a few polynomials of the
            # stack (more than one group at chunk 7); as ranges and as arrays
            for k, width, rows in [(len(stack), m + 1, range(size, 2 * size)),
                                   (4, m, range(min(size // 3 + 1, size), max(size - 2, 0))),
                                   (4, m, range(0)), (4, m, range(size // 2, size // 2))]:
                for cofactors in (rows, np.arange(rows.start, rows.stop, dtype=np.int64)):
                    out = times_fixed(field, stack[:k], width, cofactors)
                    assert out.shape == (len(stack[:k]), len(rows))
                    assert np.array_equal(out, expected[:k, rows.start:rows.stop]), (stack, rows)
    # the top of G_{m_max + 2}: three coefficients or more, so three parts or
    # more at chunk 7 for every q (a part holds whole coefficients)
    stack, m = kernel_stacks(field)[0], m_max + 2
    rows = range(q ** m - 30, q ** m)
    assert np.array_equal(times_fixed(field, stack, m, rows), poly_products(field, stack, rows))
    assert min(parts) == 1
    if chunk == 7:
        assert max(parts) >= 3


def convolution_products(p: int, stack, cofactors) -> np.ndarray:
    """The indices of P*h over the prime field F_p for every P of `stack`
    and every cofactor h, by convolving coefficient rows mod p: an oracle
    that shares no code with the engine."""
    h = np.asarray(cofactors, dtype=np.int64)
    m = 1
    while p ** m <= int(h.max(initial=0)):
        m += 1
    digits = h[:, None] // p ** np.arange(m, dtype=np.int64) % p
    out = []
    for coeffs in stack:
        prod = np.zeros((len(h), m + len(coeffs) - 1), dtype=np.int64)
        for i, c in enumerate(coeffs):
            prod[:, i:i + m] += c * digits
        out.append(prod % p @ p ** np.arange(prod.shape[1], dtype=np.int64))
    return np.array(out, dtype=np.int64).reshape(len(stack), len(h))


# p, m: ranges of G_m in two parts at the default CHUNK_ELEMENTS, in more at 7
# and 40, multiplied by primes of degree 3..5, whose d overlap digits run past
# the first part's digits
HIGH_DEGREE_GRID = [(3, 4), (3, 5), (5, 3)]


@pytest.mark.parametrize("p,m", HIGH_DEGREE_GRID)
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_times_fixed_by_primes_above_the_first_part_equals_convolution(p, m, chunk, monkeypatch):
    # a range decodes per element only the overlap; ranges that start and
    # end off the parts' boundaries, alone, as a tuple and as adjacent ranges
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    field = build_field(p, 1)
    size = p ** m
    ranges = [range(size), range(1, size - 1), range(p + 2, size // 2 + 5),
              range(size // 3 + 4, size - p - 1)]
    for d in (3, 4, 5):
        stack = [prime.coeffs for prime in irreducibles_of_degree(field, d)]
        primes = irreducible_indices(field, d)
        expected = convolution_products(p, stack, range(size))
        if d == 3:
            assert np.array_equal(expected[:2, :3 * p], poly_products(field, primes[:2], range(3 * p)))
        for cols in ranges:
            assert np.array_equal(times_fixed(field, primes, m, cols),
                                  expected[:, cols.start:cols.stop]), (d, cols)
        for cols in [tuple(ranges[2:]), (range(0, 5), range(5, size - 7), range(3, 3))]:
            assert np.array_equal(times_fixed(field, primes, m, cols), np.concatenate(
                [expected[:, rows.start:rows.stop] for rows in cols], axis=1)), (d, cols)


@pytest.mark.parametrize("p,d,m", [(3, 2, 25), (3, 14, 20), (17, 12, 2)])
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_times_fixed_maps_wide_ranges_in_slices(p, d, m, chunk, monkeypatch):
    # ranges in odd characteristic whose digits below, in or above the
    # overlap need more lanes than one int64 holds: a zero map beside two
    # others, and multiples of x^d, whose high parts' images start d digits
    # higher
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    field = build_field(p, 1)
    for stack in ([(1,) * (d + 1), (p - 1,) + (0,) * (d - 1) + (2,), (0,) * (d + 1)],
                  [(0,) * d + (1,), (0,) * d + (p - 1,)]):
        for cols in (range(p ** m - 30, p ** m), range(p ** (m - 1) + 3, p ** (m - 1) + 40)):
            assert np.array_equal(times_fixed(field, as_indices(p, stack), m, cols),
                                  convolution_products(p, stack, cols)), (stack, cols)


def test_times_fixed_refuses_a_range_with_steps_or_outside_g_m():
    field = build_field(2, 1)
    one_plus_x = [3]
    assert times_fixed(field, one_plus_x, 3, range(9, 9)).shape == (1, 0)
    for rows in (range(0, 8, 2), range(-1, 3), range(4, 9), range(0, 1, -1)):
        with pytest.raises(ValueError, match="step 1 and lie in G_m"):
            times_fixed(field, one_plus_x, 3, rows)
        with pytest.raises(ValueError, match="step 1 and lie in G_m"):
            times_fixed(field, one_plus_x, 3, (range(2), rows))


# q -> (p, r), m: G_m in two or more parts at every chunk size
NONZERO_CONSTANT_GRID = {2: ((2, 1), 9), 3: ((3, 1), 6), 4: ((2, 2), 5), 5: ((5, 1), 4),
                         9: ((3, 2), 3)}


@pytest.mark.parametrize("q", sorted(NONZERO_CONSTANT_GRID))
def test_chunks_with_nonzero_constant_are_the_products_by_those_cofactors(q, monkeypatch):
    # each chunk is image(hi) + table0[kept lo]: the products p*h for the h of
    # the ranges with h(0) != 0 alone, in order, as a multiset and by
    # (row0, col0); ranges and tuples whose ends are off the parts, and a
    # range of x-multiples alone, which maps nothing
    (p, r), m = NONZERO_CONSTANT_GRID[q]
    field = build_field(p, r)
    size = q ** m
    stack = np.concatenate([irreducible_indices(field, 1), irreducible_indices(field, 2)[:4]])
    everything = poly_products(field, stack, range(size))
    for chunk in (7, 40, gn.CHUNK_ELEMENTS):
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
        monic = range(q ** (m - 1) + 1, 2 * q ** (m - 1))
        for cofactors in (range(size), range(3, size - 2), monic,
                          (range(q, 2 * q + 1), range(size - 2 * q - 1, size - 1)),
                          range(q, q + 1)):
            kept = [h for rows in (cofactors if isinstance(cofactors, tuple) else (cofactors,))
                    for h in rows if h % q]
            expected = everything[:, kept]
            got = np.full_like(expected, -1)
            chunks = []
            for row0, col0, idx in gn.times_fixed_chunks(field, stack, m, cofactors,
                                                          nonzero_constant=True):
                block = got[row0:row0 + idx.shape[0], col0:col0 + idx.shape[1]]
                assert block.shape == idx.shape and (block == -1).all(), (chunk, cofactors)
                block[:] = idx
                chunks.append(idx.ravel())
            assert np.array_equal(np.sort(np.concatenate(chunks + [np.zeros(0, np.int64)])),
                                  np.sort(expected.ravel())), (chunk, cofactors)
            assert np.array_equal(got, expected), (chunk, cofactors)
    with pytest.raises(ValueError, match="only ranges"):
        list(gn.times_fixed_chunks(field, stack, m, np.arange(size), nonzero_constant=True))


@pytest.mark.parametrize("pr,m", [((3, 1), 25), ((3, 2), 12), ((17, 1), 10)])
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_times_fixed_maps_wide_images_in_slices(pr, m, chunk, monkeypatch):
    # the images' base-p digits need more lanes than one int64 holds
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    field = build_field(*pr)
    q = field.q
    stack = as_indices(q, [(1, q - 1, 2), (q - 1, 0, 1)])
    rng = np.random.default_rng(m)
    cofactors = np.array([0, 1, q ** m - 1, q ** m // 3]
                         + [int(h) for h in rng.integers(0, q ** m, 4)], dtype=np.int64)
    assert np.array_equal(times_fixed(field, stack, m, cofactors),
                          poly_products(field, stack, cofactors))


@pytest.mark.parametrize("pr,widest", [((2, 1), 63), ((2, 3), 21), ((3, 1), 39),
                                       ((17, 1), 15)])
def test_times_fixed_refuses_products_past_int64_indices(pr, widest):
    # q^widest <= 2^63 < q^(widest + 1): products of `widest` coefficients
    # are the widest whose indices int64 holds
    field = build_field(*pr)
    q = field.q
    assert q ** widest <= 2 ** 63 < q ** (widest + 1)
    stack = as_indices(q, [(1, q - 1)])
    cofactors = np.array([0, 1, q ** (widest - 1) - 1, q ** (widest - 1) // 3], dtype=np.int64)
    assert np.array_equal(times_fixed(field, stack, widest - 1, cofactors),
                          poly_products(field, stack, cofactors))
    with pytest.raises(BudgetError, match="exceed int64 indices"):
        times_fixed(field, stack, widest, cofactors)


def test_linear_map_blocks_hold_at_most_chunk_elements(monkeypatch):
    # every table of packed images, decode table and chunk of cofactor
    # images, whatever the size of G_m
    sizes = []

    def spy(name, size):
        inner = getattr(gn, name)

        def wrapped(*args):
            out = inner(*args)
            sizes.append((name, size(out, *args)))
            return out
        monkeypatch.setattr(gn, name, wrapped)

    spy("_table", lambda out, *args: out.size)
    spy("_decoders", lambda out, *args: max([len(t) for _, t in out], default=0))
    spy("_decode", lambda out, packed, decode: packed.size)
    # (p, r), m of all of G_m, a wide m of a few cofactors
    for pr, m, wide in [((2, 1), 14, 40), ((2, 3), 5, 12), ((3, 1), 9, 25), ((17, 1), 4, 12),
                        ((3, 3), 3, 8)]:
        field = build_field(*pr)
        q, primes = field.q, irreducible_indices(field, 1)
        # the outer sums of ranges (G_m by default, the monic block, ends off
        # the parts) and the same rows as an array
        times_fixed(field, primes, m)
        times_fixed(field, primes, m + 1, range(q ** m, 2 * q ** m))
        times_fixed(field, primes, m, range(3, q ** m - 3))
        times_fixed(field, primes, m, np.arange(q ** m, dtype=np.int64))
        times_fixed(field, [1 + q + q * q], wide, np.arange(5, dtype=np.int64))
        gn.residues(field, (1, 0, 0, 0, 0, 0, 1), np.arange(field.q ** m, dtype=np.int64))
    assert {name for name, _ in sizes} == {"_table", "_decoders", "_decode"}
    assert max(size for _, size in sizes) <= gn.CHUNK_ELEMENTS


# (p, r), m, CHUNK_ELEMENTS: G_m in two or more digit parts, each part
# whole coefficients (at 40, F_4's 12 digits are cut 4 + 4 + 4, not
# 5 + 5 + 2), and products by degree-2 primes in one slice
ONE_TABLE_GRID = [((2, 1), 12, None), ((2, 1), 12, 7), ((2, 1), 12, 40),
                  ((3, 1), 9, None), ((3, 1), 9, 7), ((3, 1), 9, 40),
                  ((5, 1), 5, None), ((5, 1), 5, 7), ((2, 2), 6, None), ((2, 2), 6, 7),
                  ((3, 2), 4, None), ((2, 2), 6, 40)]


@pytest.mark.parametrize("pr,m,chunk", ONE_TABLE_GRID)
def test_a_product_map_builds_one_table_per_group_of_rows(pr, m, chunk, monkeypatch):
    # part i of a product map's images is its first part shifted up by
    # whole lanes, so its table is the first part's table shifted: one
    # `_table` per group of rows.  The residues mod x + 1 lie in one
    # coefficient, no part is a shift, and they build one table per part,
    # which shows that G_m has more than one.
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    built = []
    table = gn._table

    def spy(rows, p, b):
        built.append(rows.shape)
        return table(rows, p, b)

    monkeypatch.setattr(gn, "_table", spy)
    field = build_field(*pr)
    q, primes = field.q, irreducible_indices(field, 2)
    cofactors = np.arange(q ** m, dtype=np.int64)
    for cols in (None, range(q ** (m - 1), q ** m), cofactors):
        built.clear()
        out = times_fixed(field, primes, m, cols)
        rows = range(q ** m) if cols is None else cols
        picks = np.linspace(0, len(rows) - 1, 12).astype(np.int64)
        assert np.array_equal(out[:, picks], poly_products(field, primes, np.asarray(rows)[picks]))
        assert sum(maps for _, maps in built) == len(primes), cols
    built.clear()
    g = Poly.from_index(field, q + 1)
    assert np.array_equal(gn.residues(field, g.coeffs, cofactors[::7]),
                          [(Poly.from_index(field, int(h)) % g).to_index() for h in cofactors[::7]])
    assert len(built) >= 2 and sum(digits for digits, _ in built) == field.r * m


def test_a_part_shifted_out_of_its_slice_builds_its_own_table():
    # over F_17 with m = 6 (parts of 3 digits, 6-bit lanes, 10 lanes a
    # slice) the images of 1 + 16x^5 span two slices.  In the first, the
    # second part's rows are the first part's shifted by 3 lanes, except
    # that the digit 16 of x^2 (1 + 16x^5) goes to lane 10, out of the
    # slice; at bits 64..69 the shift drops it, so the shifted rows alone
    # would match, but a table entry 16a mod 17 there (a = 2..16) has bits
    # left at 60..63, above the slice's lanes
    field = build_field(17, 1)
    m, rows = 6, [(1, 0, 0, 0, 0, 16), (3, 0, 0, 0, 0, 16)]
    stack = as_indices(17, rows)
    rng = np.random.default_rng(6)
    cofactors = np.array([0, 3 * 17 ** 5 + 5, 17 ** m - 1]
                         + [int(h) for h in rng.integers(0, 17 ** m, 12)], dtype=np.int64)
    for cols in (cofactors, range(17 ** m - 40, 17 ** m)):
        assert np.array_equal(times_fixed(field, stack, m, cols),
                              convolution_products(17, rows, cols)), cols


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
def test_times_fixed_by_a_constant_on_an_index_array(q):
    # the engine's index-array path, on every constant and all of G_m
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    idx = np.arange(q ** m_max, dtype=np.int64)[::-1].copy()
    for c in range(q):
        expected = poly_products(field, [c], idx)
        assert np.array_equal(times_fixed(field, [c], m_max, idx), expected), c


TRANSLATE_FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3),
                    9: (3, 2)}


@functools.lru_cache(maxsize=None)
def poly_translates(q: int, n: int, c: int, rows=None) -> np.ndarray:
    """The indices of the Poly sums x + c*y, row x (every x of G_n, or those
    of `rows`) and column y of G_n."""
    field = build_field(*TRANSLATE_FIELDS[q])
    polys = [Poly.from_index(field, i) for i in range(q ** n)]
    scaled = [g.scalar_mul(c) for g in polys]
    xs = polys if rows is None else [polys[x] for x in rows]
    return np.array([[(x + y).to_index() for y in scaled] for x in xs], dtype=np.int64)


@pytest.mark.parametrize("q", sorted(TRANSLATE_FIELDS))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_translates_are_poly_sums(q, chunk, monkeypatch):
    # G_n's addition x + c*y, c in F_p, is one engine map from G_2n: the
    # table must hold the Poly sum at every entry, whatever the chunk size.
    # Over F_7, F_8 and F_9 the Poly sums of all of G_3 x G_3 take seconds,
    # so there n = 3 is checked at the default chunk size, on every entry of
    # eight rows and eight columns
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    field = build_field(*TRANSLATE_FIELDS[q])
    for n in range(4):
        for c in range(field.p):
            if q ** n > 125 and chunk is not None:
                continue
            table = translates(field, n, c)
            assert table.dtype == np.int64 and table.shape == (q ** n, q ** n)
            if q ** n <= 125:
                assert np.array_equal(table, poly_translates(q, n, c)), (n, c)
                continue
            lines = sorted(random.Random(q * 10 + c).sample(range(q ** n), 8))
            assert np.array_equal(table[lines], poly_translates(q, n, c, tuple(lines))), (n, c)
            columns = [[(Poly.from_index(field, x) + Poly.from_index(field, y).scalar_mul(c))
                        .to_index() for y in lines] for x in range(q ** n)]
            assert np.array_equal(table[:, lines], np.array(columns)), (n, c)


@pytest.mark.parametrize("pr,n_stop,W,H", [((2, 1), 9, 1, 11), ((3, 1), 6, 1, 8),
                                           ((2, 2), 5, 0, 7), ((5, 1), 4, 1, 5)])
def test_tk_counts_on_g_n_stop_have_the_per_n_counts_as_prefixes(pr, n_stop, W, H):
    # H - 1 > n_stop: every n has window primes of degree >= n, which
    # divide only g = 0
    field = build_field(*pr)
    full = window_divisor_counts(field, n_stop, W, H)
    A = window_mass(field, W, H)
    for n in range(1, n_stop + 1):
        per_n = window_divisor_counts(field, n, W, H)
        assert np.array_equal(full[:field.q ** n], per_n), n
        a = turan_kubilius_from_squares(field, squared_deviations(full, A), n, A, W, H)
        b = turan_kubilius_from_squares(field, squared_deviations(per_n, A), n, A, W, H)
        assert struct.pack("<3d", a.A, a.lhs, a.ratio) == struct.pack("<3d", b.A, b.lhs, b.ratio)
    primes = sum(len(irreducibles_of_degree(field, d)) for d in range(max(W + 1, 1), H))
    assert full[0] == primes


def per_prime_counts(field, n, W, H):
    """window_divisor_counts by the per-prime loop: each window prime's
    multiples in G_n added one prime at a time."""
    counts = np.zeros(field.q ** n, dtype=np.int32)
    for d in range(max(W + 1, 1), H):
        for prime in irreducibles_of_degree(field, d):
            counts[times_fixed(field, [prime.to_index()], max(n - d, 0))[0]] += 1
    return counts


# (p, r), n and a window with degrees below n/2, from n/2 to n and above n
TK_GRID = [((2, 1), 10, 1, 13), ((3, 1), 6, 0, 8), ((2, 2), 5, 0, 7), ((5, 1), 4, 0, 6)]


@pytest.mark.parametrize("pr,n,W,H", TK_GRID)
def test_tk_counts_equal_the_per_prime_loop(pr, n, W, H):
    # a degree with 2d >= n is one scatter of all its primes' multiples
    field = build_field(*pr)
    assert any(2 * d < n for d in range(W + 1, H)) and any(d >= n for d in range(W + 1, H))
    for m in range(1, n + 1):
        assert np.array_equal(window_divisor_counts(field, m, W, H),
                              per_prime_counts(field, m, W, H)), m


@pytest.mark.parametrize("pr,n,W,H", TK_GRID)
def test_tk_check_rows_are_turan_kubilius_per_n(pr, n, W, H):
    # the squares built once on G_{n_stop} give each n the lhs of its own run
    field = build_field(*pr)
    rows = run_experiment({"kind": "tk-check", "field": {"p": pr[0], "r": pr[1]},
                           "n": {"start": 1, "stop": n}, "tk": {"W": W, "H": H}}).rows
    for m, A, lhs, ratio in rows:
        res = turan_kubilius(field, m, W, H)
        assert struct.pack("<3d", A, lhs, ratio) == struct.pack("<3d", res.A, res.lhs,
                                                                res.ratio), m


@pytest.mark.parametrize("pr,n,W,H", TK_GRID)
def test_tk_counts_are_unsigned_and_give_the_int32_bits(pr, n, W, H):
    # the narrowest unsigned dtype holding the number of window primes, the
    # count at g = 0; the squares and rows those of int32 counts
    field = build_field(*pr)
    counts = window_divisor_counts(field, n, W, H)
    reference = per_prime_counts(field, n, W, H)
    primes = sum(irreducible_count(field, d) for d in range(max(W + 1, 1), H))
    assert counts.dtype == np.min_scalar_type(primes) and counts.dtype.kind == "u"
    assert reference.dtype == np.int32 and np.array_equal(counts, reference)
    assert int(counts[0]) == primes
    A = window_mass(field, W, H)
    squares, expected = squared_deviations(counts, A), squared_deviations(reference, A)
    assert squares.tobytes() == expected.tobytes()
    for m in range(1, n + 1):
        a = turan_kubilius_from_squares(field, squares, m, A, W, H)
        b = turan_kubilius_from_squares(field, expected, m, A, W, H)
        assert struct.pack("<3d", a.A, a.lhs, a.ratio) == struct.pack("<3d", b.A, b.lhs, b.ratio)


def tk_moments(q: int, n: int, W: int, H: int) -> tuple:
    """(S1, S2), the sums over G_n of the window counts and of their
    squares, by counting multiples: a prime of degree d divides
    q^((n - d)+) of the g, and two distinct primes of degrees d and e,
    being coprime, divide q^((n - d - e)+) of them together."""
    degrees = range(max(W + 1, 1), H)
    pi = {d: necklace_count(q, d) for d in degrees}
    s1 = sum(pi[d] * q ** max(n - d, 0) for d in degrees)
    pairs = sum((pi[d] * pi[e] - (pi[d] if d == e else 0)) * q ** max(n - d - e, 0)
                for d in degrees for e in degrees)
    return s1, s1 + pairs


def test_tk_moments_of_the_benchmark_window():
    assert tk_moments(3, 12, 1, 9) == (783_675, 3_399_041)


@pytest.mark.parametrize("chunk", [None, 7, 40])
@pytest.mark.parametrize("pr,n,W,H", TK_GRID + [((3, 1), 12, 1, 9)])
def test_tk_counts_have_the_moments_of_counting_multiples(pr, n, W, H, chunk, monkeypatch):
    # an oracle that shares no code with the engine, the sieve or the
    # decode; the last window is the benchmark's tk-f3
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    field = build_field(*pr)
    counts = window_divisor_counts(field, n, W, H).astype(np.int64)
    assert (int(counts.sum()), int((counts * counts).sum())) == tk_moments(field.q, n, W, H)


@pytest.mark.parametrize("pr,n,W,H", [((2, 1), 6, 5, 9), ((3, 1), 3, 2, 6), ((2, 2), 2, 3, 5)])
def test_tk_primes_of_degree_at_least_n_divide_only_zero(pr, n, W, H):
    # every window degree is >= n: each prime's one multiple in G_n is g = 0
    field = build_field(*pr)
    counts = window_divisor_counts(field, n, W, H)
    primes = sum(irreducible_count(field, d) for d in range(W + 1, H))
    assert int(counts[0]) == primes and not counts[1:].any()
    assert np.array_equal(counts, per_prime_counts(field, n, W, H))


@pytest.mark.parametrize("W,H,dtype", [(0, 11, np.uint8), (0, 12, np.uint16)])
def test_tk_counts_dtype_follows_the_number_of_window_primes(W, H, dtype):
    # F_2: 226 primes of degree 1..10, 412 of degree 1..11
    field = build_field(2, 1)
    counts = window_divisor_counts(field, 6, W, H)
    assert counts.dtype == dtype
    assert int(counts[0]) == sum(irreducible_count(field, d) for d in range(1, H))
    assert np.array_equal(counts, per_prime_counts(field, 6, W, H))


# a few chunk-sized int64 temporaries of the decode and the scatter, the
# decode tables the engine caches and, for the sieve, its output
CHUNK_ALLOWANCE = 12


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sieve_memory_is_its_mask_and_a_few_chunks():
    # the products are marked a chunk at a time: no (k, q^(d-e)) block
    field = build_field(2, 1)
    for e in range(1, 11):
        irreducible_indices(field, e)
    out, peak = _traced_peak(lambda: irreducible_indices(field, 20))
    assert len(out) == irreducible_count(field, 20)
    assert peak <= 2 ** 20 + CHUNK_ALLOWANCE * gn.CHUNK_ELEMENTS * 8


def test_block_sieve_memory_is_its_mask_and_a_few_chunks():
    # degrees 11..20 in one mask of 2^21 - 2^11 bools, marked a chunk at a time
    field = build_field(2, 1)
    for e in range(1, 11):
        irreducible_indices(field, e)
    _, peak = _traced_peak(lambda: sieve_through(field, 20))
    assert len(irreducible_indices(field, 20)) == irreducible_count(field, 20)
    assert peak <= 2 ** 21 + CHUNK_ALLOWANCE * gn.CHUNK_ELEMENTS * 8


def test_tk_counts_memory_is_the_counts_and_a_few_chunks():
    counts, peak = _traced_peak(lambda: window_divisor_counts(build_field(3, 1), 12, 1, 9))
    assert peak <= counts.nbytes + CHUNK_ALLOWANCE * gn.CHUNK_ELEMENTS * 8
    assert counts.dtype == np.uint16


def test_decoder_cache_follows_chunk_elements(monkeypatch):
    # decode tables cached at the default size must not serve a smaller
    # CHUNK_ELEMENTS: every table within the patched bound, the same products
    grid = []
    for q in (3, 5, 9, 17, 27):
        (p, r), m_max = KERNEL_GRID[q]
        field = build_field(p, r)
        for stack in kernel_stacks(field):
            for m in range(m_max + 1):
                grid.append((field, stack, m, times_fixed(field, stack, m)))
    decoders = gn._decoders
    for chunk in (7, 40):
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
        sizes = []

        def spy(p, b, lo, count, size):
            out = decoders(p, b, lo, count, size)
            sizes.append((size, max(len(t) for _, t in out) <= max(chunk, 1 << b)))
            return out
        monkeypatch.setattr(gn, "_decoders", spy)
        for field, stack, m, expected in grid:
            assert np.array_equal(times_fixed(field, stack, m), expected), (field.q, stack, m)
        assert sizes and sizes == [(chunk, True)] * len(sizes)


def kernel_moduli(field):
    """Moduli of degree 0 to 3: constants, x, a non-monic one, x^2 (not
    squarefree) and x^2 + 1 and a degree-3 polynomial."""
    q = field.q
    picks = {1, q - 1, q, 2 * q - 1, q * q, q * q + 1, (q - 1) * q * q + 1, q ** 3 + q - 1}
    return [Poly.from_index(field, i) for i in sorted(picks)]


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_residues_equal_poly_mod(q, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    for g in kernel_moduli(field):
        for m in range(m_max + 1):
            expected = [(Poly.from_index(field, h) % g).to_index() for h in range(q ** m)]
            out = gn.residues(field, g.coeffs, np.arange(q ** m))
            assert out.dtype == np.int64 and np.array_equal(out, expected), (g, m)
        rows = np.arange(q ** m_max - 1, 0, -3, dtype=np.int64)
        expected = [(Poly.from_index(field, int(h)) % g).to_index() for h in rows]
        assert np.array_equal(gn.residues(field, g.coeffs, rows), expected), g


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_top_codes_equal_top_coefficient_tuples(q, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    idx = np.arange(q ** (m_max + 1), dtype=np.int64)
    for s in range(4):
        expected = [0] + [sum(a * q ** j for j, a in enumerate(
            top_coefficient_tuple(field, Poly.from_index(field, h), s)))
            for h in range(1, len(idx))]
        assert np.array_equal(gn.top_codes(field, s, idx), expected), s


@pytest.mark.parametrize("q", sorted(KERNEL_GRID))
@pytest.mark.parametrize("chunk", [None, 7, 40])
def test_linear_form_table_equals_the_scalar_form(q, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    (p, r), m_max = KERNEL_GRID[q]
    field = build_field(p, r)
    rng = np.random.default_rng(q)
    for n in range(m_max + 2):
        beta = LaurentTruncation(field, [int(c) for c in rng.integers(0, q, n + 1)])
        table = linear_form_table(beta, n)
        expected = [linear_form(beta, Poly.from_index(field, h)) for h in range(q ** n)]
        assert table.dtype == np.int16 and table.tolist() == expected, (beta, n)


def hayes_grid(field):
    """Hayes products over every combination of a Dirichlet modulus
    (squarefree, not squarefree, non-monic input, or none), s in 0..3, a
    Fraction or float theta and a unit character or none."""
    q = field.q
    moduli = [Poly(field, (1, 1, 1)), Poly(field, (0, 0, 1)),
              Poly(field, (1, 0, q - 1)), None]
    for modulus in moduli:
        chis = [None] if modulus is None else dirichlet_characters(modulus)[1::3][:2]
        for chi in chis:
            for s in range(4):
                xi = short_interval_characters(field, s)[-1]
                for theta in (Fraction(3, 4), 0.3):
                    for unit in (None, UnitCharacter(field, 1)):
                        yield HayesCharacter(field, chi, xi, DegreeTwist(theta), unit)


@pytest.mark.parametrize("pr,n", [((2, 1), 7), ((3, 1), 4), ((2, 2), 3), ((5, 1), 3)])
def test_hayes_values_equal_the_scalar_character(pr, n):
    field = build_field(*pr)
    idx = np.arange(1, field.q ** n, dtype=np.int64)
    polys = [Poly.from_index(field, int(i)) for i in idx]
    for H in hayes_grid(field):
        assert H.values_at(idx).tobytes() == np.array([H(g) for g in polys]).tobytes(), H
        powered = np.array([H(g) ** 1 for g in polys])
        assert H.values_at(idx, lambda v: v ** 1).tobytes() == powered.tobytes(), H
    assert HayesCharacter(field).values_at(np.arange(1)).tobytes() == np.zeros(1, complex).tobytes()


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_prime_values_equal_on_prime_power(pr, name):
    field = build_field(*pr)
    f = make_function(field, name)
    for d in range(1, GRID[pr] + 1):
        g = make_function(field, name)
        expected = np.array([g.on_prime_power(p, 1) for p in irreducibles_of_degree(field, d)])
        assert prime_values(f, d).tobytes() == expected.tobytes(), d


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", ("moebius", "liouville", "one"))
def test_builtin_profile_paths_equal_the_per_prime_rule(pr, name):
    # without its degree profile a built-in takes the per-prime loop: its
    # prime-power rule called at every boxed irreducible
    field = build_field(*pr)
    by_degree, per_prime = builtin(field, name), builtin(field, name)
    per_prime.degree_profile = None
    for n in range(1, GRID[pr] + 1):
        assert function_on_gn(by_degree, n).tobytes() == function_on_gn(per_prime, n).tobytes(), n
        assert prime_values(by_degree, n).tobytes() == prime_values(per_prime, n).tobytes(), n


@pytest.fixture
def poly_constructions(monkeypatch):
    """The list of Poly constructions (by __init__ or _trusted) from now on."""
    made = []
    init, trusted = Poly.__init__, Poly._trusted.__func__

    def counted_init(self, *args):
        made.append(args)
        init(self, *args)

    def counted_trusted(cls, *args):
        made.append(args)
        return trusted(cls, *args)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_trusted", classmethod(counted_trusted))
    return made


@pytest.mark.parametrize("pr", sorted(GRID))
def test_array_paths_build_no_poly(pr, poly_constructions):
    n = GRID[pr]
    field = build_field(*pr)            # fresh: no irreducible cached
    functions = [make_function(field, name)
                 for name in ("moebius", "liouville", "one", "random-pm1", "random-unit")]
    target = from_character(resolve_hayes(field, {
        "theta": "1/3", "short": {"s": 1, "index": 1},
        "dirichlet": {"modulus": [1, 1, 1], "index": 1}}))
    hayes_functions = [make_function(field, name) for name in ("character", "twist")]
    tails = [LaurentTruncation.random(field, 5, random.Random(j)) for j in range(3)]
    deg = min(2, field.p - 1)           # d^mP needs m < char
    phase = PolynomialPhase(field, 4, ((1, tails[:deg]), (1, tails[2:])),
                            ((1, ((0, 1), (2, 1))[:deg]),))
    poly_constructions.clear()
    for d in range(1, n + 1):
        assert len(irreducible_indices(field, d)) == irreducible_count(field, d)
    turan_kubilius(field, n, 1, n + 2)
    for f in functions:
        function_on_gn(f, n)
        for d in range(1, n + 1):
            prime_values(f, d)
            distance_terms(f, target, d)
    random_pm1, random_unit = functions[3:]
    for f in [random_pm1, random_unit] + hayes_functions:
        halasz_product(f, n)
    katai_statistic(field, random_pm1, n, 2, "P_k")
    katai_statistic(field, random_unit, n, 1, "G_{k+1}", per_pair=True)
    for base_set in ("G_{k+1}", "P_k"):
        for mode in ("exhaustive", "sampled"):
            r_bias_statistic(phase, n=3, k=1, base_set=base_set, mode=mode, max_pairs=20)
    run_experiment({"kind": "decay-table", "field": {"p": pr[0], "r": pr[1]}, "seed": 3,
                    "n": {"start": 2, "stop": n},
                    "function": {"kind": "random", "values": "unit"},
                    "phase": {"terms": [{"coef": 1, "factors": [[1] * (n + 1), [0, 1] * n]}],
                              "monomials": [{"coef": 1, "powers": [[0, 2], [1, 1]]}]}})
    assert poly_constructions == []
    # the Poly API still boxes on demand
    assert len(irreducibles_of_degree(field, 2)) == irreducible_count(field, 2)
    assert poly_constructions


_HAYES = {"theta": "1/3", "short": {"s": 1, "index": 1}}
_LIOUVILLE = {"kind": "builtin", "name": "liouville"}
# one small run of every experiment kind; the Hayes descriptors leave out
# Dirichlet characters, whose unit groups still box residues as Poly
# (ROADMAP item 10): modulus x^2 + 1 over F_3 builds 346
KIND_RUNS = {
    "decay-table": {
        "kind": "decay-table", "field": {"p": 2}, "seed": 1, "n": {"start": 2, "stop": 5},
        "function": {"kind": "random"},
        "phase": {"terms": [{"coef": 1, "factors": [[1, 0, 1, 1, 0, 1], [0, 1, 1, 0, 1, 1]]}]}},
    "distance-growth": {
        "kind": "distance-growth", "field": {"p": 3}, "seed": 2, "n": {"start": 1, "stop": 4},
        "function": {"kind": "random"}, "hayes": _HAYES},
    "gowers-decay-2": {
        "kind": "gowers-decay", "field": {"p": 3}, "n": {"start": 2, "stop": 3},
        "function": _LIOUVILLE, "gowers": {"k": 2}},
    "gowers-decay-3": {
        "kind": "gowers-decay", "field": {"p": 2}, "n": {"start": 2, "stop": 3},
        "function": _LIOUVILLE, "gowers": {"k": 3}},
    "ap-decay": {
        "kind": "ap-decay", "field": {"p": 5}, "n": {"start": 2, "stop": 2},
        "function": _LIOUVILLE, "ap": {"k": 3}},
    "katai-check-random": {
        "kind": "katai-check", "field": {"p": 2}, "seed": 3, "n": {"start": 4, "stop": 5},
        "function": {"kind": "random"}, "katai": {"k": 2}},
    "katai-check-twist": {
        "kind": "katai-check", "field": {"p": 3}, "seed": 3, "n": {"start": 3, "stop": 4},
        "function": {"kind": "twist", "hayes": _HAYES,
                     "base": {"kind": "random", "values": "unit"}},
        "katai": {"k": 1, "pair_set": "G_{k+1}"}},
    "tk-check": {"kind": "tk-check", "field": {"p": 3}, "n": {"start": 3, "stop": 5},
                 "tk": {"W": 1, "H": 4}},
    "bias-rank-demo": {"kind": "bias-rank-demo", "field": {"p": 2},
                       "bias": {"r_values": [1, 2], "slot_dim": 3, "arity": 2}},
    "zero-count-check": {"kind": "zero-count-check", "field": {"p": 3}, "seed": 5,
                         "zero_count": {"dim": 3, "trials": 4, "max_total_degree": 2}},
}


@pytest.mark.parametrize("run", sorted(KIND_RUNS))
def test_every_experiment_kind_builds_no_poly(run, poly_constructions):
    assert run_experiment(KIND_RUNS[run]).rows
    assert poly_constructions == []


def scalar_distance_terms(f, g, d):
    """distance_terms as a loop over Poly irreducibles."""
    field = f.field

    def at(h, p):
        return h.on_prime_power(p, 1) if isinstance(h, MultiplicativeFunction) else h(p)

    qd = float(field.q) ** -d
    return [qd * max(1.0 - (at(f, p) * at(g, p).conjugate()).real, 0.0)
            for p in irreducibles_of_degree(field, d)]


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS)
def test_distance_terms_equal_the_scalar_loop(pr, name):
    field = build_field(*pr)
    target = HayesCharacter(field, _quartic_dirichlet(field), twist=DegreeTwist(Fraction(1, 4)),
                            unit=UnitCharacter(field, 1))
    for g in (from_character(target), target, make_function(field, "twist-random-unit")):
        for d in range(1, GRID[pr] + 1):
            got = distance_terms(make_function(field, name), g, d)
            expected = scalar_distance_terms(make_function(field, name), g, d)
            assert struct.pack(f"<{len(got)}d", *got) \
                == struct.pack(f"<{len(expected)}d", *expected), (g, d)


def scalar_min_distance(f, N, modulus_degree_bound, length_bound, thetas):
    """min_distance_over_hayes as a loop over Poly irreducibles, calling
    chi(p) and xi(p) once per prime and pair: (min distance, argmin)."""
    field = f.field
    primes = [(d, p, f.on_prime_power(p, 1))
              for d in range(1, N + 1) for p in irreducibles_of_degree(field, d)]
    chis = [DirichletCharacter.trivial(field)]
    for deg in range(1, modulus_degree_bound + 1):
        for mi in range(field.q ** deg):
            low = Poly.from_index(field, mi).coeffs
            chis.extend(dirichlet_characters(Poly(field, low + (0,) * (deg - len(low)) + (1,))))
    weight_total = math.fsum(float(field.q) ** -d for d, _, _ in primes)
    best = None
    for chi in chis:
        for xi in short_interval_characters(field, length_bound):
            by_degree = {}
            for d, p, fp in primes:
                z = chi(p) * xi(p)
                if z != 0:
                    by_degree[d] = by_degree.get(d, 0j) + float(field.q) ** -d * fp * z.conjugate()
            for theta in thetas:
                s = 0.0
                for d, zsum in by_degree.items():
                    s += (zsum * cmath.exp(-2j * cmath.pi * theta * d)).real
                dist = math.sqrt(max(weight_total - s, 0.0))
                if best is None or dist < best[0]:
                    best = (dist, chi.exponents, xi.exponents, theta)
    return best[0], best[1:]


@pytest.mark.parametrize("pr,N,bound", [((2, 1), 7, 2), ((3, 1), 4, 1), ((2, 2), 3, 1)])
@pytest.mark.parametrize("name", ["moebius", "random-unit", "dirichlet-unit",
                                  "twist-random-unit"])
def test_min_distance_equals_the_scalar_loop(pr, N, bound, name):
    field = build_field(*pr)
    thetas = [j / 8 for j in range(8)]
    res = min_distance_over_hayes(make_function(field, name), N, bound, 2, thetas)
    dist, (chi, xi, theta) = scalar_min_distance(make_function(field, name), N, bound, 2,
                                                 thetas)
    assert struct.pack("<2d", res.min_distance, res.M) == struct.pack("<2d", dist, 1.0 + dist)
    assert tuple(res.argmin["short"]["index"]) == xi and res.argmin["theta"] == theta
    assert tuple(res.argmin["dirichlet"]["index"] if res.argmin["dirichlet"] else ()) == chi


@pytest.mark.parametrize("pr,n_stop", [((2, 1), 10), ((3, 1), 6), ((2, 2), 5), ((5, 1), 4)])
def test_phase_on_g_n_stop_has_the_per_n_phases_as_prefixes(pr, n_stop):
    # decay-table reads G_n as the prefix of the phase on G_{n_stop}; the
    # tails are deeper than n_stop and the monomials sit below n = 2
    field = build_field(*pr)
    rng = random.Random(n_stop)
    tails = [LaurentTruncation.random(field, n_stop + 2, rng) for _ in range(3)]
    terms = [(1, (tails[0], tails[1])), (field.q - 1, (tails[2],))]
    monomials = [(1, ((0, 2), (1, 1))), (field.q - 1, ((1, 3),))]
    full = phase_character_array(PolynomialPhase(field, n_stop, terms, monomials))
    for n in range(2, n_stop + 1):
        per_n = phase_character_array(PolynomialPhase(field, n, terms, monomials))
        assert full[:field.q ** n].tobytes() == per_n.tobytes(), n


def per_prime_halasz(f, n, tail_eps):
    """halasz_product for a function without a degree profile as it was first
    written: on_prime_power at every boxed irreducible and every k."""
    field = f.field
    acc = 1.0 + 0j
    for d in range(1, n + 1):
        u = float(field.q) ** -d
        for p in irreducibles_of_degree(field, d):
            local = 1.0 + 0j
            uk = u
            k = 1
            while uk >= tail_eps * u:
                local += complex(f.on_prime_power(p, k)) * uk
                uk *= u
                k += 1
            acc *= (1.0 - u) * local
    return acc


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS)
@pytest.mark.parametrize("tail_eps", [1e-15, 1e-4])
def test_halasz_product_equals_the_per_prime_loop(pr, name, tail_eps):
    field = build_field(*pr)
    f = make_function(field, name)
    if f.degree_profile is not None:
        # a built-in takes the grouped path; its rule without the profile
        # takes the prime-power tables
        f = MultiplicativeFunction(field, f.prime_power_rule, name=name)
    n = GRID[pr]
    assert bits(halasz_product(f, n, tail_eps)) == bits(per_prime_halasz(f, n, tail_eps))


@pytest.mark.parametrize("pr", sorted(GRID))
def test_katai_and_r_bias_read_the_pair_sets_in_order(pr, monkeypatch):
    field = build_field(*pr)
    q = field.q
    read = []

    def spy(*args):
        read.append(real(*args))
        return read[-1]

    real = analytics._pair_set
    monkeypatch.setattr(analytics, "_pair_set", spy)
    phase = PolynomialPhase.from_linear(LaurentTruncation.random(field, 4, random.Random(1)), 4)
    for k in (1, 2):
        expected = {"P_k": list(p_k(field, k)),
                    "G_{k+1}": [Poly.from_index(field, i) for i in range(1, q ** (k + 1))]}
        for pair_set, polys in expected.items():
            katai_statistic(field, make_function(field, "random-pm1"), k + 1, k, pair_set)
            r_bias_statistic(phase, n=3, k=k, base_set=pair_set, max_pairs=1)
            assert len(read) == 2
            for by_degree in read:
                assert list(by_degree) == sorted(by_degree)
                assert all(members.dtype == np.int64 for members in by_degree.values())
                assert [Poly.from_index(field, i) for members in by_degree.values()
                        for i in members.tolist()] == polys, (k, pair_set)
            read.clear()


# -- exact integer reductions ----------------------------------------------------------


def fsum_katai(field, f, n, k, pair_set, per_pair):
    """katai_statistic with every inner sum the fsum of its `_products`,
    pair by pair, for every input (the float route)."""
    q = field.q
    pairs = analytics._pair_set(field, k, pair_set)
    f_arr = sample_on_gn(field, n, f)
    parts = []
    for top, members in pairs.items():
        m, scale = n - top, q ** (n - top) if per_pair else 1
        rows = np.concatenate([f_arr[times_fixed(field, idx, m)]
                               for d, idx in pairs.items() if d <= top])
        below = len(rows) - len(members)
        for a, row in enumerate(rows):
            re, im = _products(row, rows[below:] if a < below else rows, conjugate_b=True)
            parts += [abs(complex(math.fsum(x), math.fsum(y))) / scale
                      for x, y in zip(re.tolist(), im.tolist())]
    size = sum(len(idx) for idx in pairs.values())
    total = math.fsum(parts)
    if per_pair:
        return total / size ** 2
    return total / (size ** 2 * q ** (n - k))


def fsum_correlate(field, nu, t, n, domain):
    rng = analytics.domain_indices(field, n, domain)
    re, im = _products(sample_on_gn(field, n, nu)[rng.start:rng.stop],
                       sample_on_gn(field, n, t)[rng.start:rng.stop])
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist())) / len(rng)


def fsum_mean_value(f, n, domain):
    q = f.field.q
    values = sample_on_gn(f.field, n + 1, f)[q ** n:(2 if domain == "monic" else q) * q ** n]
    return complex(math.fsum(values.real.tolist()), math.fsum(values.imag.tolist())) / len(values)


# (p, r) -> (n, k) of the Katai statistic
KATAI_GRID = {(2, 1): (11, 3), (3, 1): (7, 2), (2, 2): (5, 1), (5, 1): (4, 1)}


def make_input(field, name):
    """A FUNCTIONS name as its MultiplicativeFunction; a CHARACTERS name
    prefixed with "bare " as its HayesCharacter."""
    if name.startswith("bare "):
        return make_character(field, name[len("bare "):])
    return make_function(field, name)


@pytest.mark.parametrize("pr", sorted(GRID))
@pytest.mark.parametrize("name", FUNCTIONS + tuple(f"bare {c}" for c in CHARACTERS))
def test_exact_reductions_give_the_bits_of_the_fsums(pr, name):
    field = build_field(*pr)
    n, k = KATAI_GRID[pr]
    f = make_input(field, name)
    for pair_set in ("P_k", "G_{k+1}"):
        for per_pair in (False, True):
            assert struct.pack("<d", katai_statistic(field, f, n, k, pair_set, per_pair)) \
                == struct.pack("<d", fsum_katai(field, f, n, k, pair_set, per_pair)), \
                (pair_set, per_pair)
    # against a phase (integer values when p = 2) and against f itself
    for t in (phase_character_array(_phase(field, n, seed=n)), f):
        for domain in ("all", "nonzero", "monic"):
            assert bits(correlate(field, f, t, n, domain)) \
                == bits(fsum_correlate(field, f, t, n, domain)), domain
    for m in range(GRID[pr]):
        for domain in ("monic", "all"):
            assert bits(mean_value(f, m, domain)) == bits(fsum_mean_value(f, m, domain)), \
                (m, domain)


class FsumCalls:
    def __init__(self, monkeypatch):
        self.calls, real = 0, math.fsum

        def spy(values):
            self.calls += 1
            return real(values)

        monkeypatch.setattr(math, "fsum", spy)


@pytest.mark.parametrize("name,exact", [("moebius", True), ("liouville", True), ("one", True),
                                        ("random-pm1", True), ("random-unit", False),
                                        ("float-theta", False)])
def test_integer_route_calls_no_fsum(name, exact, monkeypatch):
    field = build_field(2, 1)
    n, k = 9, 3
    f = sample_on_gn(field, n, make_function(field, name))
    t = phase_character_array(_phase(field, n, seed=n))
    fsum = FsumCalls(monkeypatch)
    correlate(field, f, t, n, "nonzero")
    mean_value(make_function(field, name), n, "all")
    assert (fsum.calls == 0) == exact
    katai_statistic(field, f, n, k, "G_{k+1}")
    assert (fsum.calls == 1) == exact           # only the total is an fsum


@pytest.mark.parametrize("pr,n_stop", [((2, 1), 9), ((3, 1), 6)])
def test_correlate_prefixes_give_the_bits_of_correlate_per_n(pr, n_stop, monkeypatch):
    # +-1 values read by the integer route; the same with one value of
    # G_{n_stop} past the prefixes set to 0.5, so the whole arrays take the
    # fsum route where each prefix alone takes the integer route
    field = build_field(*pr)
    q = field.q
    nu = sample_on_gn(field, n_stop, make_function(field, "moebius"))
    t = phase_character_array(_phase(field, n_stop, seed=n_stop))
    ns = range(1, n_stop)
    for a in (nu, with_value(nu, q ** n_stop - 1, 0.5)):
        for domain in ("all", "nonzero", "monic"):
            expected = [bits(correlate(field, a[:q ** n], t[:q ** n], n, domain)) for n in ns]
            checks = []
            real = analytics._unit_integer_parts
            monkeypatch.setattr(analytics, "_unit_integer_parts",
                                lambda v: checks.append(len(v)) or real(v))
            got = [bits(mean) for mean in analytics.correlate_prefixes(field, a, t, ns, domain)]
            monkeypatch.undo()
            assert got == expected, domain
            assert checks[0] == q ** n_stop and len(checks) <= 2, checks


def test_decay_table_checks_its_values_once(monkeypatch):
    checks = []
    real = analytics._unit_integer_parts
    monkeypatch.setattr(analytics, "_unit_integer_parts",
                        lambda v: checks.append(len(v)) or real(v))
    # n = 2..5 over F_2, Moebius against a phase of values +-1
    run_experiment(dict(KIND_RUNS["decay-table"], function={"kind": "builtin", "name": "moebius"}))
    assert checks == [2 ** 5, 2 ** 5]


def with_value(values, at, value):
    out = values.copy()
    out[at] = value
    return out


EDGE_VALUES = (math.nan, math.inf, -math.inf, 0.5, 2.0, 1e300)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", EDGE_VALUES)
def test_values_off_the_gaussian_units_take_the_fsum_route(value, monkeypatch):
    field = build_field(2, 1)
    n = 7
    rng = np.random.default_rng(5)
    pm1 = rng.choice([-1.0, 1.0], field.q ** n).astype(np.complex128)
    # both parts of b nonzero: no inf * 0 in the products
    b = rng.choice([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j], field.q ** n)
    a = with_value(pm1, 100, value)        # inside every domain's slice
    assert analytics._unit_integer_parts(a) is None
    assert analytics._unit_integer_parts(with_value(pm1, 100, complex(0.0, value))) is None
    references = [bits(fsum_correlate(field, a, b, n, d)) for d in ("all", "nonzero", "monic")]
    fsum = FsumCalls(monkeypatch)
    assert [bits(correlate(field, a, b, n, d)) for d in ("all", "nonzero", "monic")] \
        == references
    assert fsum.calls == 6
    monkeypatch.undo()
    if value in (0.5, 2.0) or math.isnan(value):
        # f(x) = value at the prime x: f(x h) = value f(h), and no product overflows
        f = MultiplicativeFunction(field, lambda p, k: value if (p.to_index(), k) == (2, 1)
                                   else (-1.0) ** k, name="edge")
        assert bits(mean_value(f, n, "all")) == bits(fsum_mean_value(f, n, "all"))
        assert struct.pack("<d", katai_statistic(field, f, n, 2)) \
            == struct.pack("<d", fsum_katai(field, f, n, 2, "P_k", False))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", (complex(-0.0, 0.0), complex(0.0, -0.0), 1j, -1j))
def test_signed_zeros_and_quarter_turns_take_the_integer_route(value, monkeypatch):
    field = build_field(2, 1)
    n = 7
    rng = np.random.default_rng(6)
    a = with_value(rng.choice([-1, 1, 1j, -1j, 0], field.q ** n).astype(np.complex128), 100, value)
    b = rng.choice([1, -1, 1 + 1j, -1j], field.q ** n).astype(np.complex128)
    assert analytics._unit_integer_parts(a) is not None
    references = [bits(fsum_correlate(field, a, b, n, d)) for d in ("all", "nonzero", "monic")]
    katai_reference = struct.pack("<d", fsum_katai(field, a, n, 2, "G_{k+1}", True))
    fsum = FsumCalls(monkeypatch)
    assert [bits(correlate(field, a, b, n, d)) for d in ("all", "nonzero", "monic")] \
        == references
    assert struct.pack("<d", katai_statistic(field, a, n, 2, "G_{k+1}", True)) \
        == katai_reference
    assert fsum.calls == 1


def test_array_inputs_are_read_in_place_and_left_unchanged():
    field = build_field(3, 1)
    n = 4
    arr = sample_on_gn(field, n, make_function(field, "random-unit"))
    arr.setflags(write=False)
    before = arr.tobytes()
    assert sample_on_gn(field, n, arr) is arr
    correlate(field, arr, arr, n, "monic")
    katai_statistic(field, arr, n, 1, "G_{k+1}")
    gowers_norm(field, n, arr, 1)
    gowers_norm(field, n, arr, 2)
    u2_fourier(field, n, arr)
    ap_correlation(field, n, [arr, arr])
    assert arr.tobytes() == before
