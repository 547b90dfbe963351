"""Acceptance suite: the library's headline guarantees, end to end.

One test per criterion, each printing a PASS/FAIL line (run with
`pytest tests/test_acceptance.py -v -s` to see the report).  Every
tolerance is pinned here, not deferred.

Two sub-criteria are marked xfail(strict) because the stated target is
mathematically unattainable, with the blocking fact recorded in the test
and exercised by a companion test in the regime where the statement is
true:

* katai literal tail (11a): over F_2 the only depth-14 tail with every
  coefficient nonzero is the truncation of 1/(x+1), which is rational;
  a - b is always divisible by x+1 for irreducible pairs from P_3, so no
  off-diagonal sum vanishes and the statistic is 1.0, not <= 0.25.  The
  companion (11b) uses a seeded tail whose off-diagonal products are
  verified to hit a nonzero probed coefficient, giving exactly the 0.2
  diagonal share.
* zero-count literal (13a): when the total degree D equals the ambient
  dimension, systems with no nontrivial common zero exist (three
  independent linear forms), so the |Pr(V)|/(2 q^{D+1}) lower bound can
  fail; seeded draws do hit such systems.  The companion (13b) stays in
  the D < dim regime where a nontrivial zero is guaranteed.
"""

import cmath
import math
import random
import time

import numpy as np
import pytest

from ffmult.characters import DegreeTwist, HayesCharacter, dirichlet_characters
from ffmult.fields import build_field
from ffmult.laurent import LaurentTruncation, linear_form
from ffmult.multiplicative import builtin, from_character, random_on_irreducibles
from ffmult.phases import (MultilinearForm, PolynomialPhase, derivative_form,
                           diagonal, iterated_difference, projective_common_zeros)
from ffmult.polys import (Poly, factor, g_n, irreducible_count,
                          irreducibles_of_degree, monic_of_degree, p_k)
from ffmult.analytics import (ap_correlation, correlate, gowers_norm,
                              halasz_product, katai_statistic,
                              linear_phase_sum, mean_value,
                              phase_character_array, pretentious_distance,
                              turan_kubilius, u2_fourier)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)
F7 = build_field(7, 1)


def report(num: str, ok: bool, label: str, detail: str = ""):
    print(f"ACCEPTANCE {num:>3} {'PASS' if ok else 'FAIL'}  {label}  {detail}")


def random_bounded(rng, size):
    return rng.uniform(0, 1, size) * np.exp(2j * np.pi * rng.uniform(0, 1, size))


def test_01_linear_phase_dichotomy():
    t0 = time.time()
    rng = random.Random(101)
    worst = 0.0
    for F in (F2, F3):
        for n in range(4, 11):
            betas = [LaurentTruncation.random(F, n + 2, rng) for _ in range(40)]
            # force the vanishing branch for 10 of the 50
            betas += [LaurentTruncation(
                F, (0,) * n + tuple(rng.randrange(F.q) for _ in range(2)))
                for _ in range(10)]
            for beta in betas:
                s = linear_phase_sum(F, beta, n)
                want = F.q ** n if beta.vanishes_through(n) else 0.0
                worst = max(worst, abs(s - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-9 and elapsed < 10
    report("1", ok, "linear-phase dichotomy (sum is q^n or 0)",
           f"worst |error| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10


def test_02_u2_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(202)
    worst = 0.0
    for F, n in ((F2, 8), (F3, 4)):
        for _ in range(20):
            f = random_bounded(rng, F.q ** n)
            worst = max(worst, abs(gowers_norm(F, n, f, 2) - u2_fourier(F, n, f)))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 30
    report("2", ok, "U^2 cube average = character-transform route",
           f"worst gap = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30


def test_03_gowers_monotonicity():
    t0 = time.time()
    rng = np.random.default_rng(303)
    ok_all = True
    for _ in range(20):
        f = random_bounded(rng, 81)
        u1 = gowers_norm(F3, 4, f, 1)
        u2 = gowers_norm(F3, 4, f, 2)
        u3 = gowers_norm(F3, 4, f, 3)
        ok_all &= (u1 <= u2 + 1e-9) and (u2 <= u3 + 1e-9)
    elapsed = time.time() - t0
    report("3", ok_all and elapsed < 60, "U^1 <= U^2 <= U^3 on random 1-bounded f",
           f"{elapsed:.1f}s")
    assert ok_all
    assert elapsed < 60


def test_04_ap_inequality():
    t0 = time.time()
    rng = np.random.default_rng(404)
    ok_all = True
    worst_slack = math.inf
    for _ in range(50):
        fs = [random_bounded(rng, 125) for _ in range(3)]
        res = ap_correlation(F5, 3, fs)
        ok_all &= res.satisfied
        worst_slack = min(worst_slack, res.gowers_bound - abs(res.mean))
    elapsed = time.time() - t0
    report("4", ok_all and elapsed < 60,
           "3-term progression mean bounded by U^2 of the last function",
           f"min slack = {worst_slack:.3f}, {elapsed:.1f}s")
    assert ok_all
    assert elapsed < 60


def test_05_bias_rank_lower_bound():
    t0 = time.time()
    rng = random.Random(505)
    worst_eq = 0.0
    ok_all = True
    for F in (build_field(2, 1, enumeration_budget=10 ** 7),
              build_field(3, 1, enumeration_budget=10 ** 7)):
        dim = 4
        coords = [LaurentTruncation.coordinate(F, j, dim) for j in range(dim)]
        for r in (1, 2, 3):
            Q = MultilinearForm(F, (dim, dim),
                                [(1, (coords[i], coords[i])) for i in range(r)],
                                block_count=r)
            res = Q.bias()
            worst_eq = max(worst_eq, abs(res.bias - F.q ** -r))
            # random partition-rank-r block forms stay above q^{-r}
            for _ in range(8):
                m = rng.choice([2, 3])
                blocks = []
                for _ in range(r):
                    ks = rng.randint(1, m - 1)
                    slots_i = tuple(sorted(rng.sample(range(m), ks)))
                    blocks.append((slots_i,
                                   [(rng.randrange(1, F.q),
                                     tuple(LaurentTruncation.random(F, dim, rng)
                                           for _ in range(ks)))],
                                   [(rng.randrange(1, F.q),
                                     tuple(LaurentTruncation.random(F, dim, rng)
                                           for _ in range(m - ks)))]))
                Qr = MultilinearForm.from_blocks(F, (dim,) * m, blocks)
                ok_all &= Qr.bias().bias >= F.q ** -r
    elapsed = time.time() - t0
    ok = ok_all and worst_eq == 0 and elapsed < 60
    report("5", ok, "bias >= q^-r for rank-r blocks; direct sums exactly q^-r",
           f"direct-sum error = {worst_eq:.2e}, {elapsed:.1f}s")
    assert worst_eq == 0
    assert ok_all
    assert elapsed < 60


def test_06_derivative_identities():
    t0 = time.time()
    rng = random.Random(606)
    ok_all = True
    for F, m in ((F5, 2), (F5, 3), (F7, 2), (F7, 3)):
        for _ in range(100):
            n = 2
            terms = [(rng.randrange(1, F.q),
                      tuple(LaurentTruncation.random(F, n, rng) for _ in range(m)))
                     for _ in range(rng.randint(1, 3))]
            P = PolynomialPhase(F, n, terms)
            Q = derivative_form(P, m, verify=False)
            mfact = math.factorial(m) % F.p
            ok_all &= diagonal(Q).equal_as_functions(P.scalar_mul(mfact))
            hs = [Poly.from_index(F, rng.randrange(F.q ** n)) for _ in range(m)]
            g0 = Poly.from_index(F, rng.randrange(F.q ** n))
            g1 = Poly.from_index(F, rng.randrange(F.q ** n))
            d0 = iterated_difference(P, hs, g0)
            ok_all &= d0 == iterated_difference(P, hs, g1) == Q.eval(*hs)
    elapsed = time.time() - t0
    report("6", ok_all and elapsed < 30,
           "diagonal of d^mP equals m!P; iterated differences base-point free",
           f"(400 phases) {elapsed:.1f}s")
    assert ok_all
    assert elapsed < 30


def test_07_irreducible_counts():
    t0 = time.time()
    worst = None
    for p, r in ((2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (3, 2)):
        F = build_field(p, r)   # fresh caches to keep the check self-contained
        d = 1
        while F.q ** (d := d) <= 10 ** 6:
            assert irreducible_count(F, d) == len(irreducibles_of_degree(F, d)), (p, r, d)
            worst = (F.q, d)
            d += 1
    elapsed = time.time() - t0
    report("7", elapsed < 60, "necklace formula = exhaustive sieve for q^d <= 10^6",
           f"largest case q={worst[0]}, d={worst[1]}; {elapsed:.1f}s")
    assert elapsed < 60


def test_08_pretentious_distance_divergence():
    t0 = time.time()
    mu, one = builtin(F2, "moebius"), builtin(F2, "one")
    d1 = pretentious_distance(mu, one, 1)
    values = [pretentious_distance(mu, one, N) for N in range(1, 21)]
    increasing = all(a < b for a, b in zip(values, values[1:]))
    gap = values[19] - values[4]
    elapsed = time.time() - t0
    ok = abs(d1 - math.sqrt(2)) <= 1e-9 and increasing and gap > 0.5 and elapsed < 10
    report("8", ok, "D(mu,1;N): sqrt(2) at N=1, strictly increasing, divergent",
           f"D(20)-D(5) = {gap:.4f}, {elapsed:.1f}s")
    assert abs(d1 - math.sqrt(2)) <= 1e-9
    assert increasing
    assert gap > 0.5
    assert elapsed < 10


def test_09_euler_product_and_mean_value():
    t0 = time.time()
    worst_p = 0.0
    for F in (F2, F3):
        one = builtin(F, "one")
        for n in range(1, 21):
            worst_p = max(worst_p, abs(halasz_product(one, n) - 1))
    worst_m = 0.0
    rng = random.Random(909)
    for F, n in ((F3, 6), (F2, 8)):
        for _ in range(5):
            theta = rng.random()
            f = from_character(HayesCharacter(F, twist=DegreeTwist(theta)))
            got = mean_value(f, n, "monic")
            worst_m = max(worst_m, abs(got - cmath.exp(2j * cmath.pi * theta * n)))
    elapsed = time.time() - t0
    ok = worst_p <= 1e-9 and worst_m <= 1e-12 and elapsed < 10
    report("9", ok, "Euler product of 1 is 1; monic mean of e_theta is e(theta n)",
           f"|P-1| <= {worst_p:.1e}, mean err <= {worst_m:.1e}, {elapsed:.1f}s")
    assert worst_p <= 1e-9
    assert worst_m <= 1e-12
    assert elapsed < 10


def test_10_turan_kubilius_ratio():
    t0 = time.time()
    # direct oracle at n=8: count window divisors through factorization
    res8 = turan_kubilius(F2, 8, 1, 5)
    window = {p for d in (2, 3, 4) for p in irreducibles_of_degree(F2, d)}
    direct = 0.0
    for g in g_n(F2, 8):
        cnt = len(window) if g.is_zero() else sum(
            1 for p, _ in factor(g)[1] if p in window)
        direct += (cnt - res8.A) ** 2
    agree = abs(direct - res8.lhs) <= 1e-9
    ratios = [turan_kubilius(F2, n, 1, 5).ratio for n in range(8, 15)]
    elapsed = time.time() - t0
    ok = agree and all(r <= 5 for r in ratios) and elapsed < 60
    report("10", ok, "prime-divisor variance ratio <= 5 for n = 8..14",
           f"ratios {min(ratios):.3f}..{max(ratios):.3f}, n=8 oracle agrees: {agree}, "
           f"{elapsed:.1f}s")
    assert agree
    assert all(r <= 5 for r in ratios)
    assert elapsed < 60


def _linear_phase_function(field, beta):
    roots, trace = field.roots, field.trace

    def f(g):
        return complex(roots[trace(linear_form(beta, g))])

    return f


@pytest.mark.xfail(
    strict=True,
    reason="over F_2 the only depth-14 tail with all coefficients nonzero is "
           "the truncation of the rational 1/(x+1); every difference of two "
           "P_3 irreducibles is divisible by x+1, so all off-diagonal inner "
           "sums keep full modulus and the statistic is 1.0")
def test_11a_katai_linear_phase_literal_tail():
    t0 = time.time()
    beta = LaurentTruncation(F2, (1,) * 14)
    f = _linear_phase_function(F2, beta)
    stat = katai_statistic(F2, f, 14, 3, per_pair=True)
    elapsed = time.time() - t0
    report("11a", stat <= 0.25, "katai statistic, all-nonzero depth-14 tail",
           f"statistic = {stat:.4f} (target <= 0.25), {elapsed:.1f}s")
    assert stat <= 0.25


def test_11b_katai_linear_phase_verified_vanishing():
    t0 = time.time()
    beta = LaurentTruncation.random(F2, 20, random.Random(0))
    # verify the dichotomy hypothesis: each off-diagonal difference drives a
    # nonzero coefficient somewhere in the probed window
    primes = list(p_k(F2, 3))
    for a in primes:
        for b in primes:
            if a == b:
                continue
            depth = 14 - int(max(a.degree, b.degree))
            assert not beta.scale(a - b, depth).vanishes_through(depth)
    f = _linear_phase_function(F2, beta)
    stat = katai_statistic(F2, f, 14, 3, per_pair=True)
    diagonal_share = 1 / len(primes)
    elapsed = time.time() - t0
    ok = stat <= 0.25 and abs(stat - diagonal_share) <= 1e-12 and elapsed < 120
    report("11b", ok, "katai statistic, tail with verified off-diagonal vanishing",
           f"statistic = {stat:.4f} = diagonal share 1/|P_3|, {elapsed:.1f}s")
    assert stat <= 0.25
    assert abs(stat - diagonal_share) <= 1e-12
    assert elapsed < 120


def test_11c_katai_constant_function():
    t0 = time.time()
    stat = katai_statistic(F2, lambda g: 1.0, 14, 3, per_pair=True)
    elapsed = time.time() - t0
    ok = stat >= 0.9 and elapsed < 120
    report("11c", ok, "katai statistic of the constant function",
           f"statistic = {stat:.4f} (target >= 0.9), {elapsed:.1f}s")
    assert stat >= 0.9
    assert elapsed < 120


def test_12_aperiodic_decay_exhibit():
    t0 = time.time()
    field = build_field(2, 1)
    nu = random_on_irreducibles(field, 4)
    rng = random.Random(10)
    L1 = LaurentTruncation.random(field, 16, rng)
    L2 = LaurentTruncation.random(field, 16, rng)
    values = []
    for n in range(6, 15):
        P = PolynomialPhase(field, n, ((1, (L1, L2)),))
        values.append(abs(correlate(field, nu, phase_character_array(P), n)))
    steps_down = sum(1 for a, b in zip(values, values[1:]) if b <= a + 1e-15)
    halved = values[-1] < 0.5 * values[0]
    elapsed = time.time() - t0
    ok = halved and steps_down >= 6 and elapsed < 600
    report("12", ok, "quadratic-phase correlation of a random +-1 function decays",
           f"|mean|: {values[0]:.4f} -> {values[-1]:.4f}, "
           f"{steps_down}/8 steps nonincreasing, {elapsed:.1f}s")
    assert halved
    assert steps_down >= 6
    assert elapsed < 600


def _random_homogeneous_system(F, dim, rng, max_total):
    while True:
        D = rng.randint(1, max_total)
        degs = []
        left = D
        while left:
            d = rng.randint(1, left)
            degs.append(d)
            left -= d
        phases = []
        for d in degs:
            terms = [(rng.randrange(1, F.q),
                      tuple(LaurentTruncation.random(F, dim, rng) for _ in range(d)))
                     for _ in range(rng.randint(1, 2))]
            phases.append(PolynomialPhase(F, dim, terms))
        if all(not P.is_zero() and P.degree == d for P, d in zip(phases, degs)):
            return phases


@pytest.mark.xfail(
    strict=True,
    reason="at total degree D equal to the ambient dimension the common zero "
           "set can be trivial (e.g. three independent linear forms), so the "
           "|Pr(V)|/(2 q^{D+1}) lower bound fails for such draws")
def test_13a_zero_count_bound_literal():
    t0 = time.time()
    rng = random.Random(13)
    failures = []
    for F in (F2, F3):
        for trial in range(50):
            system = _random_homogeneous_system(F, 3, rng, max_total=3)
            res = projective_common_zeros(system, 3)
            if not res.passes:
                failures.append((F.q, trial, res.count, round(res.bound, 3)))
    elapsed = time.time() - t0
    report("13a", not failures, "projective zero count >= bound, D <= 3 draws",
           f"failing draws (q, trial, count, bound): {failures}, {elapsed:.1f}s")
    assert not failures


def test_13b_zero_count_bound_chevalley_regime():
    t0 = time.time()
    rng = random.Random(13)
    ok_all = True
    for F in (F2, F3):
        for _ in range(50):
            system = _random_homogeneous_system(F, 3, rng, max_total=2)
            res = projective_common_zeros(system, 3)
            ok_all &= res.passes
    elapsed = time.time() - t0
    ok = ok_all and elapsed < 30
    report("13b", ok, "projective zero count >= bound when D < dim",
           f"100 draws, {elapsed:.1f}s")
    assert ok_all
    assert elapsed < 30


def test_14_character_orthogonality():
    t0 = time.time()
    worst = 0.0
    for F in (F2, F3):
        for deg in (1, 2):
            for mi in range(F.q ** deg):
                low = Poly.from_index(F, mi).coeffs
                modulus = Poly(F, low + (0,) * (deg - len(low)) + (1,))
                chars = dirichlet_characters(modulus)
                residues = [Poly.from_index(F, i) for i in range(F.q ** deg)]
                for i, c1 in enumerate(chars):
                    for j, c2 in enumerate(chars):
                        total = sum(c1(h) * c2(h).conjugate() for h in residues)
                        want = len(chars) if i == j else 0.0
                        worst = max(worst, abs(total - want))
    elapsed = time.time() - t0
    ok = worst <= 1e-10 and elapsed < 10
    report("14", ok, "Dirichlet pairs: inner product phi(g) on, 0 off diagonal",
           f"worst |error| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10
