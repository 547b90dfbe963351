"""Each reported column against an independent exact value.

A column is *exact* when it is an integer, a boolean, or a rational rounded
once: Python's float(Fraction) is correctly rounded, so a value is compared
with the float of its Fraction by its bits.  The columns asserted so far:

* every `bias-rank-demo` column, on the bias-rank-f3 pin and a grid over
  q in {2, 3, 4, 5, 7, 9}: the bias from `MultilinearForm.eval` on Poly over
  every slot tuple; `analytic_rank` exactly where the bias is p^-e, and as
  math.log of the rounded bias (a float contract) otherwise;
* `r_bias_statistic` on the pin phases of tests/test_analytics.py: the mean
  of each pair's inner bias, from the trace exponent counts of the pair's
  form with Laurent-scaled functionals.

An oracle reads a bias from the counts c_j of the trace exponents j of the
form's values: when the classes j != 0 are equal (asserted), the sum of
the p-th roots of unity is c_0 - c_1.

`KNOWN` lists payload rows whose exact value is a rational that the column
does not yet round once.  Each row must still print its recorded value, so
the list cannot go stale: a change that mends a row moves it into the
asserted set.
"""

import functools
import io
import itertools
import math
import random
import struct
from fractions import Fraction

import numpy as np
import pytest

from ffmult import analytics, gn
from ffmult.analytics import r_bias_statistic
from ffmult.experiments import resolve_phase, run_experiment
from ffmult.fields import build_field
from ffmult.laurent import LaurentTruncation, linear_form_table
from ffmult.phases import MultilinearForm, _form_counts, derivative_form
from ffmult.polys import Poly, factor, g_n

from test_analytics import R_BIAS_PINS, pin_phase
from test_payload_pins import PINS

# q: (p, r)
FIELDS = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 9: (3, 2)}


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def mean_of_alpha(F, counts) -> Fraction:
    """E alpha_1 over points with trace exponent counts `counts`, whose
    nonzero classes must be equal."""
    counts = [int(c) for c in counts]
    assert len(set(counts[1:])) == 1, counts
    return Fraction(counts[0] - counts[1], sum(counts))


def exact_rank(F, bias: Fraction):
    """-log_q bias as a Fraction when bias = p^-e, otherwise None (also at 0)."""
    den, e = bias.denominator, 0
    while den % F.p == 0:
        den, e = den // F.p, e + 1
    return Fraction(e, F.r) if bias.numerator == den == 1 else None


# -- bias-rank-demo -------------------------------------------------------------------


def poly_bias(F, dim: int, arity: int, r: int) -> Fraction:
    """The bias of a bias-rank-demo row's form, sum_i<r x_i ... x_i (i-th
    coordinates, one per slot), by Poly over every slot tuple."""
    coords = [LaurentTruncation.coordinate(F, j, dim) for j in range(dim)]
    Q = MultilinearForm(F, (dim,) * arity, [(1, (coords[i],) * arity) for i in range(r)])
    counts = [0] * F.p
    for x in itertools.product(list(g_n(F, dim)), repeat=arity):
        counts[F.trace(Q.eval(*x))] += 1
    return mean_of_alpha(F, counts)


def check_bias_rows(cfg):
    p, r = cfg["field"]["p"], cfg["field"].get("r", 1)
    F = build_field(p, r)
    sec = cfg["bias"]
    rows = run_experiment(cfg).rows
    assert [row[0] for row in rows] == sec["r_values"]
    for rank_r, bias, rank, bound, meets in rows:
        exact = poly_bias(F, sec["slot_dim"], sec["arity"], rank_r)
        exact_bound = Fraction(1, F.q ** rank_r)
        assert bits(bias) == bits(float(exact)), (rank_r, bias, exact)
        assert bits(bound) == bits(float(exact_bound))
        assert meets is (exact >= exact_bound)
        e = exact_rank(F, exact)
        if not exact:
            assert rank == math.inf
        elif e is not None:
            assert bits(rank) == bits(float(e)), (rank_r, rank, e)
        else:
            assert bits(rank) == bits(-math.log(float(exact), F.q))


def test_bias_rank_f3_pin_is_exact():
    cfg = PINS["bias-rank-f3"][0]
    check_bias_rows(cfg)
    out = io.StringIO()
    run_experiment(cfg, stream=out)
    rows = [line for line in out.getvalue().splitlines() if not line.startswith("#")]
    assert rows == ["1,0.3333333333333333,1.0,0.3333333333333333,1",
                    "2,0.1111111111111111,2.0,0.1111111111111111,1"]


# every (q, slot_dim, arity) with at most 729 slot tuples for the Poly oracle
BIAS_GRID = [(q, dim, arity) for q in FIELDS for dim in (1, 2, 3) for arity in (1, 2, 3)
             if q ** (dim * arity) <= 729]


@pytest.mark.parametrize("q, dim, arity", BIAS_GRID)
def test_bias_rank_demo_columns_are_exact(q, dim, arity):
    p, r = FIELDS[q]
    check_bias_rows({"kind": "bias-rank-demo", "field": {"p": p, "r": r},
                     "bias": {"r_values": list(range(1, dim + 1)), "slot_dim": dim,
                              "arity": arity}})


@pytest.mark.parametrize("chunk", (7, None))
@pytest.mark.parametrize("q", sorted(FIELDS))
def test_exhaustive_bias_is_the_exponent_count_mean_rounded_once(q, chunk, monkeypatch):
    # random forms of arity 1-3 with slot dims 1-3 (at most 60,000 slot tuples);
    # at CHUNK_ELEMENTS 7 the prefixes go a few rows at a time
    if chunk is not None:
        monkeypatch.setattr(gn, "CHUNK_ELEMENTS", chunk)
    F = build_field(*FIELDS[q])
    rng = random.Random(q)
    for _ in range(12):
        dims = tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
        if q ** sum(dims) > 60_000:
            continue
        Q = MultilinearForm(F, dims, [
            (rng.randrange(1, q), tuple(LaurentTruncation.random(F, d, rng) for d in dims))
            for _ in range(rng.randint(0, 3))])
        exact = mean_of_alpha(F, Q.exponent_counts())
        res = Q.bias()
        assert bits(res.bias) == bits(float(exact)), (dims, res.bias, exact)
        e = exact_rank(F, exact)
        if e is not None:
            assert bits(res.analytic_rank) == bits(float(e))


def test_the_bias_grid_meets_both_rank_contracts():
    # the grid holds rows of either analytic_rank contract: arity 3 direct sums
    # have a bias (2q - 1)^r / q^(2r) that is no power of p
    F = build_field(3, 1)
    assert exact_rank(F, poly_bias(F, 2, 2, 2)) == 2
    assert exact_rank(F, poly_bias(F, 2, 3, 1)) is None
    assert (3, 2, 3) in BIAS_GRID and (3, 2, 2) in BIAS_GRID


# -- r_bias_statistic ---------------------------------------------------------------


def exact_r_bias(case) -> Fraction:
    """The mean over the pairs r_bias_statistic reads (every pair, or the
    sorted draw without replacement it documents) of the exact inner bias of
    Q(a g) - Q(b g), Q = d^mP: L(a g) is the Laurent-scaled L.scale(a) at g,
    and the bias comes from the trace exponent counts of the form's values
    (`_form_counts`, which `exponent_counts` reads), one table per scaled
    functional and member."""
    q, n, k, base_set, mode = case
    P = pin_phase(q)
    F, m, inner = P.field, P.degree, n - k
    dQ = derivative_form(P, m, verify=False)
    members = [Poly.from_index(F, int(a)) for a in
               np.concatenate(list(analytics._pair_set(F, k, base_set).values()))]
    total = len(members) ** 2
    max_pairs = 300 if mode == "sampled" else 2000
    chosen = range(total)
    if mode == "sampled" or total > max_pairs:
        rng = np.random.default_rng(5)
        chosen = np.sort(rng.choice(total, size=min(max_pairs, total), replace=False)).tolist()

    @functools.cache
    def table(L, i):
        return linear_form_table(L.scale(members[i], inner), inner)

    neg = F.neg_py
    acc = Fraction(0)
    for pair in chosen:
        a, b = divmod(pair, len(members))
        terms = [(c, [table(L, a) for L in funcs]) for c, funcs in dQ.terms]
        terms += [(neg[c], [table(L, b) for L in funcs]) for c, funcs in dQ.terms]
        acc += mean_of_alpha(F, _form_counts(F, terms, (q ** inner,) * m))
    return acc / len(chosen)


@pytest.mark.parametrize("case", sorted(R_BIAS_PINS))
def test_r_bias_pins_are_the_exact_means_rounded_once(case):
    q, n, k, base_set, mode = case
    res = r_bias_statistic(pin_phase(q), n=n, k=k, base_set=base_set, mode=mode,
                           max_pairs=300 if mode == "sampled" else 2000, seed=5)
    assert bits(res.value) == bits(float(exact_r_bias(case)))
    assert bits(res.value).hex() == R_BIAS_PINS[case][0]


def test_r_bias_oracle_agrees_with_poly_evaluation():
    # the Laurent-scaled form of one pair against d^mP(a g) - d^mP(b g) read
    # by Poly products, over every g
    P = pin_phase(3)
    F = P.field
    dQ = derivative_form(P, 2, verify=False)
    a, b = Poly.from_index(F, 4), Poly.from_index(F, 7)
    terms = [(c, tuple(L.scale(a, 2) for L in funcs)) for c, funcs in dQ.terms]
    terms += [(F.neg_py[c], tuple(L.scale(b, 2) for L in funcs)) for c, funcs in dQ.terms]
    Q = MultilinearForm(F, (2, 2), terms)
    for g, h in itertools.product(list(g_n(F, 2)), repeat=2):
        assert Q.eval(g, h) == F.sub(dQ.eval(a * g, a * h), dQ.eval(b * g, b * h))


# -- rows not yet rounded once --------------------------------------------------------


def _liouville(g: Poly) -> int:
    return 0 if g.is_zero() else (-1) ** sum(e for _, e in factor(g)[1])


def _moebius(g: Poly) -> int:
    if g.is_zero():
        return 0
    parts = factor(g)[1]
    return 0 if any(e > 1 for _, e in parts) else (-1) ** len(parts)


def exact_decay_re(cfg, n: int) -> Fraction:
    """Re E lambda(g) alpha_1(P(g)) over the row's domain of G_n, by Poly:
    rational when the sums of lambda over the trace classes j and p - j
    (j != 0) are all equal (asserted), as sum_j cos(2 pi j / p) = 0."""
    F = build_field(cfg["field"]["p"], cfg["field"]["r"])
    P = resolve_phase(F, cfg["phase"], cfg["n"]["stop"])
    gs = [g for g in g_n(F, n) if cfg.get("domain", "all") == "all" or not g.is_zero()]
    sums = [0] * F.p
    for g in gs:
        sums[F.trace(P.eval(g))] += _liouville(g)
    pairs = {sums[j] + sums[F.p - j] for j in range(1, F.p)}
    assert len(pairs) == 1, sums
    return Fraction(2 * sums[0] - pairs.pop(), 2 * len(gs))


def exact_ap_mean(cfg, n: int) -> Fraction:
    """|E_{x,y in G_n} mu(x) mu(x + y) mu(x + 2y)| (k = 3), by Poly."""
    F = build_field(cfg["field"]["p"], cfg["field"]["r"])
    assert cfg["ap"]["k"] == 3
    gs = list(g_n(F, n))
    mu = {g: _moebius(g) for g in gs}
    total = sum(mu[x] * mu[x + y] * mu[x + y + y] for x in gs for y in gs)
    return abs(Fraction(total, len(gs) ** 2))


# (pin, n, column, printed value, exact value, oracle)
KNOWN = [
    ("ap-moebius-f5", 2, "abs_mean", "0.07680000000000001", Fraction(48, 625), exact_ap_mean),
    ("decay-liouville-f3-nonzero", 2, "re", "-0.12499999999999997", Fraction(-1, 8),
     exact_decay_re),
    ("decay-liouville-f7", 1, "re", "-0.14285714285714293", Fraction(-1, 7), exact_decay_re),
]


@pytest.mark.parametrize("name, n, column, printed, exact, oracle", KNOWN,
                         ids=[f"{k[0]}-n{k[1]}-{k[2]}" for k in KNOWN])
def test_known_misrounded_rows_still_print_their_recorded_values(name, n, column, printed,
                                                                  exact, oracle):
    cfg = PINS[name][0]
    out = io.StringIO()
    run_experiment(cfg, stream=out)
    lines = out.getvalue().splitlines()
    columns = next(line for line in lines if line.startswith("# columns="))
    index = columns.partition("=")[2].split(",").index(column)
    rows = {int(line.split(",")[0]): line.split(",") for line in lines
            if not line.startswith("#")}
    assert rows[n][index] == printed
    assert oracle(cfg, n) == exact
    assert float(exact) != float(printed)
