import itertools
import math
import random
import time

import numpy as np
import pytest

from ffmult import gn
from ffmult.errors import BudgetError
from ffmult.fields import build_field
from ffmult.laurent import LaurentTruncation
from ffmult.phases import (MultilinearForm, PolynomialPhase, delta,
                           derivative_form, diagonal, eval_phase,
                           iterated_difference, projective_common_zeros,
                           rank_upper_bounds)
from ffmult.polys import Poly

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)
F7 = build_field(7, 1)
F4 = build_field(2, 2)
F8 = build_field(2, 3)
F9 = build_field(3, 2)


def random_phase(F, n, rng, max_terms=3, max_factors=3, monomials=False):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        k = rng.randint(0, max_factors)
        terms.append((rng.randrange(1, F.q),
                      tuple(LaurentTruncation.random(F, n, rng) for _ in range(k))))
    monos = []
    if monomials:
        for _ in range(rng.randint(0, 2)):
            js = rng.sample(range(n), k=rng.randint(1, n))
            monos.append((rng.randrange(1, F.q),
                          tuple((j, rng.randint(1, 3)) for j in js)))
    return PolynomialPhase(F, n, terms, monos)


def test_eval_basics():
    assert eval_phase(PolynomialPhase.zero(F5, 3), Poly.x(F5)) == 0
    beta = LaurentTruncation.coordinate(F5, 0, 3)
    P = PolynomialPhase.from_linear(beta, 3)
    g = Poly.constant(F5, 2)
    assert eval_phase(P, g) == 2
    # L^2 with L(g) = g_0: eval at g_0 = 2 gives 4
    P2 = PolynomialPhase.from_product(3, [beta, beta])
    assert eval_phase(P2, g) == 4
    with pytest.raises(ValueError):
        eval_phase(P, Poly.x(F5) ** 4)


def test_delta_pointwise_consistency_random():
    rng = random.Random(42)
    for _ in range(300):
        F = rng.choice([F2, F3, F5])
        n = rng.randint(2, 3)
        P = random_phase(F, n, rng, monomials=True)
        h = Poly.from_index(F, rng.randrange(F.q ** n))
        dP = delta(P, h)
        for gi in range(F.q ** n):
            g = Poly.from_index(F, gi)
            assert dP.eval(g) == F.sub(P.eval(g + h), P.eval(g))


def test_delta_on_linear_and_constant():
    beta = LaurentTruncation.random(F5, 3, random.Random(1))
    P = PolynomialPhase.from_linear(beta, 3)
    h = Poly.from_index(F5, 17)
    dP = delta(P, h)
    assert dP.degree == 0
    from ffmult.laurent import linear_form
    assert dP.eval(Poly.zero(F5)) == linear_form(beta, h)
    const = PolynomialPhase.constant(F5, 3, 4)
    assert delta(const, h).is_zero()


def test_delta_binomial_expansion_of_product():
    # Delta_h (L1 L2) = L1(h) L2 + L2(h) L1 + L1(h) L2(h)
    rng = random.Random(2)
    L1 = LaurentTruncation.random(F5, 3, rng)
    L2 = LaurentTruncation.random(F5, 3, rng)
    P = PolynomialPhase.from_product(3, [L1, L2])
    h = Poly.from_index(F5, 44)
    dP = delta(P, h)
    assert dP.degree <= 1
    from ffmult.laurent import linear_form
    for gi in range(125):
        g = Poly.from_index(F5, gi)
        want = F5.add(F5.add(F5.mul(linear_form(L1, h), linear_form(L2, g)),
                             F5.mul(linear_form(L2, h), linear_form(L1, g))),
                      F5.mul(linear_form(L1, h), linear_form(L2, h)))
        assert dP.eval(g) == want


def test_values_on_gn_matches_eval():
    rng = random.Random(9)
    for _ in range(40):
        F = rng.choice([F2, F3, F5])
        n = rng.randint(2, 3)
        P = random_phase(F, n, rng, monomials=True)
        vals = P.values_on_gn()
        for gi in range(F.q ** n):
            assert vals[gi] == P.eval(Poly.from_index(F, gi))


def test_derivative_form_symmetry_and_factorial():
    rng = random.Random(3)
    for F, m in ((F5, 2), (F5, 3), (F7, 2), (F7, 3)):
        for _ in range(25):
            n = 2
            terms = [(rng.randrange(1, F.q),
                      tuple(LaurentTruncation.random(F, n, rng) for _ in range(m)))
                     for _ in range(rng.randint(1, 3))]
            P = PolynomialPhase(F, n, terms)
            Q = derivative_form(P, m)
            args = [Poly.from_index(F, rng.randrange(F.q ** n)) for _ in range(m)]
            v = Q.eval(*args)
            for perm in itertools.permutations(args):
                assert Q.eval(*perm) == v
            mfact = math.factorial(m) % F.p
            assert diagonal(Q).equal_as_functions(P.scalar_mul(mfact))
            assert diagonal(Q, divide_by_factorial=True).equal_as_functions(P)


def test_derivative_form_base_point_independence():
    rng = random.Random(5)
    for m in (2, 3):
        for _ in range(30):
            P = PolynomialPhase(
                F5, 3, [(rng.randrange(1, 5),
                         tuple(LaurentTruncation.random(F5, 3, rng) for _ in range(m)))
                        for _ in range(2)])
            hs = [Poly.from_index(F5, rng.randrange(125)) for _ in range(m)]
            g0 = Poly.from_index(F5, rng.randrange(125))
            g1 = Poly.from_index(F5, rng.randrange(125))
            assert iterated_difference(P, hs, g0) == iterated_difference(P, hs, g1)


def test_derivative_of_symmetrized_form_is_m_factorial_q():
    rng = random.Random(6)
    for m in (2, 3):
        base = [(rng.randrange(1, 5),
                 tuple(LaurentTruncation.random(F5, 2, rng) for _ in range(m)))]
        sym_terms = [(c, tuple(funcs[p] for p in perm))
                     for c, funcs in base
                     for perm in itertools.permutations(range(m))]
        Q = MultilinearForm(F5, (2,) * m, sym_terms)
        Q2 = derivative_form(diagonal(Q), m)
        mfact = math.factorial(m) % 5
        for _ in range(20):
            args = [Poly.from_index(F5, rng.randrange(25)) for _ in range(m)]
            assert Q2.eval(*args) == F5.mul(mfact, Q.eval(*args))


def test_derivative_form_guards():
    P = random_phase(F3, 2, random.Random(1), max_factors=2)
    with pytest.raises(ValueError, match="factorial"):
        derivative_form(PolynomialPhase(F3, 2, ((1, tuple(LaurentTruncation.random(F3, 2, random.Random(0)) for _ in range(3))),)), 3)
    L = LaurentTruncation.random(F5, 2, random.Random(0))
    deg2 = PolynomialPhase.from_product(2, [L, L])
    with pytest.raises(ValueError, match="structural degree"):
        derivative_form(deg2, 1)


def test_monomial_lowering_in_derivative():
    # x_0 * x_1 as a monomial phase: d^2 = e_0 (x) e_1 + e_1 (x) e_0
    P = PolynomialPhase(F5, 2, monomial_terms=((1, ((0, 1), (1, 1))),))
    Q = derivative_form(P, 2)
    h1, h2 = Poly.constant(F5, 2), Poly.x(F5).scalar_mul(3)
    assert Q.eval(h1, h2) == F5.mul(2, 3)
    assert Q.eval(h2, h1) == F5.mul(2, 3)
    bad = PolynomialPhase(F3, 2, monomial_terms=((1, ((0, 3),)),))
    with pytest.raises(ValueError, match="factorial degeneracy"):
        derivative_form(bad, 3)


def _coordinate_power_oracle(F, monos, g):
    """sum_t c_t prod g_j^e_j, straight from the coefficients of g."""
    acc = 0
    for c, powers in monos:
        v = c
        for j, e in powers:
            v = F.mul(v, F.pow_(g.coeff(j), e))
        acc = F.add(acc, v)
    return acc


# runs at and past the characteristic: x -> x^p is additive, x^q = x
_LONG_RUNS = [(F2, ((0, 4),)), (F5, ((0, 5),)), (F9, ((0, 9),)), (F4, ((0, 4), (1, 2))),
              (F8, ((1, 8),)), (F9, ((0, 3), (1, 10)))]


@pytest.mark.parametrize("F, powers", _LONG_RUNS,
                         ids=[f"F{F.q}-" + "".join(f"g{j}^{e}" for j, e in powers)
                              for F, powers in _LONG_RUNS])
def test_coordinate_powers_past_the_characteristic(F, powers):
    n = 2
    monos = [(F.q - 1, powers)]
    P = PolynomialPhase(F, n, monomial_terms=monos)
    assert P.degree == sum(e for _, e in powers)
    vals = P.values_on_gn()
    h = Poly.from_index(F, F.q + 1)
    dvals = delta(P, h).values_on_gn()
    for gi in range(F.q ** n):
        g = Poly.from_index(F, gi)
        want = _coordinate_power_oracle(F, monos, g)
        assert vals[gi] == P.eval(g) == want
        assert dvals[gi] == F.sub(_coordinate_power_oracle(F, monos, g + h), want)


def test_coordinate_powers_over_extension_fields():
    rng = random.Random(26)
    for F in (F4, F8, F9):
        for _ in range(8):
            n = rng.randint(2, 3)
            monos = [(rng.randrange(1, F.q),
                      tuple((j, rng.randint(1, 2 * F.p + 1))
                            for j in rng.sample(range(n), k=rng.randint(1, n))))
                     for _ in range(rng.randint(1, 3))]
            terms = [(rng.randrange(1, F.q), (LaurentTruncation.random(F, n, rng),))]
            P = PolynomialPhase(F, n, terms, monos)
            h = Poly.from_index(F, rng.randrange(F.q ** n))
            vals, dvals = P.values_on_gn(), delta(P, h).values_on_gn()
            lin = PolynomialPhase(F, n, terms)
            for gi in range(F.q ** n):
                g = Poly.from_index(F, gi)
                want = F.add(lin.eval(g), _coordinate_power_oracle(F, monos, g))
                assert vals[gi] == P.eval(g) == want
                assert dvals[gi] == F.sub(P.eval(g + h), want)


def test_delta_of_a_long_run_is_fast_and_pointwise():
    # a run of 20 equal factors expands binomially: 21 choices, not 2^20
    n = 3
    L = LaurentTruncation.random(F3, n, random.Random(20))
    P = PolynomialPhase(F3, n, ((2, (L,) * 20), (1, (L,) * 7)))
    h = Poly.from_index(F3, 11)
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        dP = delta(P, h)
        best = min(best, time.perf_counter() - start)
    assert best < 0.05
    for gi in range(F3.q ** n):
        g = Poly.from_index(F3, gi)
        assert dP.eval(g) == F3.sub(P.eval(g + h), P.eval(g))


def test_diagonal_examples():
    L = LaurentTruncation.random(F5, 3, random.Random(8))
    Q = MultilinearForm.rank_one(F5, (3, 3), (L, L))
    P = diagonal(Q)
    for gi in range(125):
        g = Poly.from_index(F5, gi)
        v = Q.eval(g, g)
        assert P.eval(g) == v
    assert diagonal(MultilinearForm.zero(F5, (3, 3))).is_zero()
    with pytest.raises(ValueError):
        diagonal(MultilinearForm.zero(F5, (2, 3)))


def test_bias_exact_examples():
    for F in (F2, F3):
        dim = 4
        coords = [LaurentTruncation.coordinate(F, j, dim) for j in range(dim)]
        assert MultilinearForm.zero(F, (dim, dim)).bias().bias == 1.0
        for r in (1, 2, 3):
            Q = MultilinearForm(F, (dim, dim),
                                [(1, (coords[i], coords[i])) for i in range(r)])
            res = Q.bias()
            assert res.bias == F.q ** -r
            assert res.analytic_rank == r


def test_bias_nonnegative_on_random_forms():
    rng = random.Random(13)
    fields = [build_field(2, 1, enumeration_budget=10 ** 6),
              build_field(3, 1, enumeration_budget=10 ** 6)]
    for _ in range(100):
        F = rng.choice(fields)
        m = rng.choice([2, 3])
        dim = rng.randint(2, 4)
        terms = [(rng.randrange(1, F.q),
                  tuple(LaurentTruncation.random(F, dim, rng) for _ in range(m)))
                 for _ in range(rng.randint(1, 4))]
        Q = MultilinearForm(F, (dim,) * m, terms)
        res = Q.bias()
        assert res.bias >= 0


def test_block_forms_meet_partition_rank_bound():
    rng = random.Random(17)
    for _ in range(60):
        F = rng.choice([F2, F3])
        m = rng.choice([2, 3])
        dim = rng.randint(2, 4)
        r = rng.randint(1, 3)
        blocks = []
        for _ in range(r):
            ksplit = rng.randint(1, m - 1)
            slots_i = tuple(sorted(rng.sample(range(m), ksplit)))
            terms_m = [(rng.randrange(1, F.q),
                        tuple(LaurentTruncation.random(F, dim, rng)
                              for _ in range(ksplit)))]
            terms_r = [(rng.randrange(1, F.q),
                        tuple(LaurentTruncation.random(F, dim, rng)
                              for _ in range(m - ksplit)))]
            blocks.append((slots_i, terms_m, terms_r))
        Q = MultilinearForm.from_blocks(F, (dim,) * m, blocks)
        assert Q.bias().bias >= F.q ** -r
        assert rank_upper_bounds(Q).partition_upper == r


def _coordinate_form(F):
    """x_0 * y_0 on G_3 x G_3: bias 1/q."""
    e0 = LaurentTruncation.coordinate(F, 0, 3)
    return MultilinearForm.rank_one(F, (3, 3), (e0, e0))


def test_bias_budget_and_sampled():
    with pytest.raises(BudgetError):
        _coordinate_form(build_field(3, 1, enumeration_budget=10)).bias()
    # the sampled bias charges its samples, so it runs under a budget of them
    Q = _coordinate_form(build_field(3, 1, enumeration_budget=30000))
    s = Q.bias(mode="sampled", samples=30000, seed=4)
    assert abs(s.bias - 1 / 3) < 1.75 * max(s.stderr, 1e-3)
    assert s.mode == "sampled" and s.stderr is not None


def test_sampled_bias_charges_its_samples_and_needs_one():
    # a budget of 100 ran 100,000 samples, and samples = 0 returned a bias
    # of nan with RuntimeWarnings
    Q = _coordinate_form(build_field(3, 1, enumeration_budget=100))
    assert Q.bias(mode="sampled", samples=100).evaluations == 100
    with pytest.raises(BudgetError, match="needs 101"):
        Q.bias(mode="sampled", samples=101)
    for samples in (0, -1):
        with pytest.raises(ValueError, match="samples"):
            Q.bias(mode="sampled", samples=samples)


def test_sampled_bias_stderr_is_the_spread_of_the_estimate():
    # the reported stderr against the spread of the sampled bias over seeds
    e0 = LaurentTruncation.coordinate(F3, 0, 3)
    Q = MultilinearForm.rank_one(F3, (3, 3), (e0, e0))
    runs = [Q.bias(mode="sampled", samples=2000, seed=seed) for seed in range(100)]
    spread = np.std([r.bias for r in runs], ddof=1)
    ratio = np.mean([r.stderr for r in runs]) / spread
    assert 0.75 <= ratio <= 1.33, ratio


# (q, r): slot dims of the random forms; at CHUNK_ELEMENTS 7 a block of
# slot-0 rows ends inside slot 0 (or is one row)
COUNT_GRID = {(2, 1): [(3,), (3, 1), (2, 1, 2)], (3, 1): [(2,), (2, 1), (1, 1, 2)],
              (2, 2): [(2,), (1, 2), (1, 1, 1)], (5, 1): [(2,), (1, 1), (1, 1, 1)]}


@pytest.mark.parametrize("chunk", (7, None))
@pytest.mark.parametrize("pr", sorted(COUNT_GRID))
def test_exponent_counts_equal_brute_force(pr, chunk, monkeypatch):
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    F = build_field(*pr)
    rng = random.Random(sum(pr))
    for dims in COUNT_GRID[pr]:
        Q = MultilinearForm(F, dims, [
            (rng.randrange(1, F.q), tuple(LaurentTruncation.random(F, d + 1, rng) for d in dims))
            for _ in range(3)])
        brute = np.zeros(F.p, dtype=np.int64)
        for xs in itertools.product(*(range(F.q ** d) for d in dims)):
            brute[F.trace_table[Q.eval(*(Poly.from_index(F, i) for i in xs))]] += 1
        assert Q.exponent_counts().tolist() == brute.tolist(), dims


@pytest.mark.parametrize("chunk", (7, None))
def test_the_bias_charges_are_the_entries_the_kernel_evaluates(chunk, monkeypatch):
    # the entries _term_values fills for an exhaustive bias (arity 1-3,
    # unequal dims) and for r_bias_statistic are what each charges, and what
    # validate_config estimates for a bias-rank-demo config; a bias builds
    # the whole linear_form_table of its prefix slots only, sum_s q^(d_s) <=
    # q^D entries a term, never the last slot's q^(d_m)
    from ffmult import phases
    from ffmult.analytics import r_bias_statistic
    from ffmult.experiments import _estimated_cost, run_experiment, validate_config
    from ffmult.fields import Field
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    entries, charges, tables = [], [], []
    term_values, charge, form_table = phases._term_values, Field.charge, phases.linear_form_table

    def spy_values(F, terms, shape):
        entries.append(math.prod(shape))
        return term_values(F, terms, shape)

    def spy_table(beta, n):
        tables.append(beta.field.q ** n)
        return form_table(beta, n)

    def spy_charge(F, count, what):
        charges.append(count)
        return charge(F, count, what)

    monkeypatch.setattr(phases, "_term_values", spy_values)
    monkeypatch.setattr(Field, "charge", spy_charge)
    monkeypatch.setattr(phases, "linear_form_table", spy_table)
    rng = random.Random(29)
    for F in (F2, F3, F4):
        for dims in ((3,), (1,), (30,), (2, 3), (3, 1), (1, 30), (1, 2, 2), (2, 1, 3)):
            Q = MultilinearForm(F, dims, [
                (rng.randrange(1, F.q), tuple(LaurentTruncation.random(F, d, rng) for d in dims))
                for _ in range(2)])
            entries.clear(), charges.clear(), tables.clear()
            res = Q.bias()
            cost = F.q ** sum(dims[:-1]) * dims[-1]
            assert sum(entries) == res.evaluations == cost and charges == [cost], dims
            assert sum(tables) <= len(Q.terms) * F.q ** sum(dims[:-1]), dims
    L = [LaurentTruncation.random(F5, 7, rng) for _ in range(3)]
    for factors in (L[:1], L[:2], L):
        P = PolynomialPhase(F5, 5, ((1, tuple(factors)),))
        entries.clear(), charges.clear()
        res = r_bias_statistic(P, n=3, k=1)
        inner = res.pairs * 5 ** (2 * (len(factors) - 1)) * 2
        assert sum(entries) == res.inner_evaluations == charges[0] == inner
    for p, dim, arity in ((2, 3, 1), (2, 30, 1), (3, 2, 2), (2, 2, 3), (5, 1, 3)):
        cfg = validate_config({"kind": "bias-rank-demo", "field": {"p": p},
                               "bias": {"r_values": [1], "slot_dim": dim, "arity": arity}})
        entries.clear(), charges.clear()
        run_experiment(cfg)
        estimate = _estimated_cost("bias-rank-demo", 0, p, cfg.sections)
        assert sum(entries) == max(charges) == estimate == p ** (dim * (arity - 1)) * dim
    # at arity 1 the r coordinate functionals of depth slot_dim, r * slot_dim
    # entries, are the largest charge and the estimate
    cfg = validate_config({"kind": "bias-rank-demo", "field": {"p": 2},
                           "bias": {"r_values": [1, 4], "slot_dim": 30, "arity": 1}})
    entries.clear(), charges.clear()
    run_experiment(cfg)
    assert sum(entries) == 2 * 30 and max(charges) == 4 * 30
    assert _estimated_cost("bias-rank-demo", 0, 2, cfg.sections) == 4 * 30


def test_rank_bookkeeping():
    rng = random.Random(19)
    terms = [(1, (LaurentTruncation.random(F3, 3, rng),
                  LaurentTruncation.random(F3, 3, rng))) for _ in range(3)]
    P = PolynomialPhase(F3, 3, terms)
    assert rank_upper_bounds(P).schmidt_upper == 3
    Q = derivative_form(P, 2)
    rb = rank_upper_bounds(Q)
    assert rb.derivative_bound == 12          # 2^2 * 3
    lin = PolynomialPhase.from_linear(LaurentTruncation.random(F3, 3, rng), 3)
    assert rank_upper_bounds(lin).schmidt_upper == 0
    # lower-degree terms do not count toward the Schmidt bound
    mixed = PolynomialPhase(F3, 3, terms + [(1, (LaurentTruncation.random(F3, 3, rng),))])
    assert rank_upper_bounds(mixed).schmidt_upper == 3
    with pytest.raises(TypeError):
        rank_upper_bounds(42)


def test_projective_zero_counts():
    e0 = LaurentTruncation.coordinate(F2, 0, 3)
    res = projective_common_zeros([PolynomialPhase.from_linear(e0, 3)], 3)
    assert (res.count, res.projective_size) == (3, 7)
    assert abs(res.bound - 7 / 8) < 1e-12 and res.passes
    e0_3 = LaurentTruncation.coordinate(F3, 0, 3)
    e1_3 = LaurentTruncation.coordinate(F3, 1, 3)
    res2 = projective_common_zeros(
        [PolynomialPhase.from_linear(e0_3, 3), PolynomialPhase.from_linear(e1_3, 3)], 3)
    assert res2.count == 1 and res2.passes
    # non-homogeneous rejected
    bad = PolynomialPhase(F2, 3, ((1, (e0,)), (1, ())))
    with pytest.raises(ValueError):
        projective_common_zeros([bad], 3)


def test_projective_empty_system_counts_everything():
    res = projective_common_zeros([], 3, field=F2)
    assert res.count == res.projective_size == 7
    assert res.passes
    with pytest.raises(ValueError):
        projective_common_zeros([], 3)


def test_projective_product_form_zeros():
    # a product of two coordinate forms vanishes on the union of planes
    e = [LaurentTruncation.coordinate(F2, j, 3) for j in range(3)]
    P = PolynomialPhase.from_product(3, [e[0], e[1]])
    res = projective_common_zeros([P], 3)
    # zeros: x0 = 0 (3 pts) union x1 = 0 (3 pts), intersection 1 pt -> 5
    assert res.count == 5 and res.passes
