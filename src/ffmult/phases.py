"""Polynomial phases on G_n, discrete derivatives, multilinear forms, bias.

A phase P: G_n -> F_q is stored in structured form: a sum of terms
c * L_1(g) * ... * L_k(g) where each L_i is a Laurent linear form.  This
mirrors rank decompositions (each term of degree >= 2 is a product of two
lower-degree polynomials), and discrete derivatives expand symbolically on
it, so degree bookkeeping is exact.  A coordinate power g_j^e is e copies
of the coordinate functional g -> g_j, so it is a term like any other; a
run of e >= char(F_q) equal factors has formal degree e but is not of
functional degree e (x -> x^p is additive), and no shortcut reads it as
such: derivative_form needs m < char(F_q) whatever the factors.

The m-fold derivative of a degree-m phase is the symmetric m-linear form
d^mP; restricting it back to the diagonal multiplies by m!, which is why
everything here insists on m < char(F_q).

Bias of a multilinear form is the mean of the additive character alpha_1
over all slot tuples, and analytic rank is -log_q of it.  Q is linear in
its last slot, so the bias is the share Z / q^(d_1 + ... + d_{m-1}) of the
prefixes x at which y -> Q(x, y) vanishes, an exact rational rounded once.

One kernel, `_term_values`, evaluates phases and forms (at a point, on
G_n, at sampled slot tuples) from tables of field codes, one per factor;
`_form_blocks` runs it over all slot tuples, reduced by `_form_counts`
(trace exponent counts) and `_vanishing_prefixes` (Z).  Like terms combine
through one `_merge_terms`, and `_runs` groups a term's equal factors for
Delta_h's binomial expansion and G_n's power tables.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import gn
from .fields import Field, factor_int
from .laurent import LaurentTruncation, linear_form, linear_form_table
from .polys import Poly


def _term_values(field: Field, terms, shape) -> np.ndarray:
    """sum_t c_t prod_s tables_ts as int16 field codes of `shape`: `terms`
    is (c, tables) pairs, tables of field codes that broadcast to `shape`
    (no tables: the constant c)."""
    add_t, mul_t = field.add_table, field.mul_table
    acc = np.zeros(shape, dtype=np.int16)
    for c, tables in terms:
        v = c
        for table in tables:
            v = mul_t[v, table]
        acc = add_t[acc, v]
    return acc


def _form_blocks(field: Field, terms, sizes):
    """sum_t c_t prod_s tables_ts[x_s] as int16 codes over every slot tuple x of
    prod range(sizes), `terms` (c, tables) pairs with one 1-D table per slot:
    blocks of max(1, CHUNK_ELEMENTS // |other slots|) rows of slot 0."""
    rest = tuple(sizes[1:])
    block = max(1, gn.CHUNK_ELEMENTS // math.prod(rest))
    # the table of slot s on axis s; leading axes broadcast
    shaped = [(c, [t.reshape((-1,) + (1,) * (len(rest) - s)) for s, t in enumerate(tabs)])
              for c, tabs in terms]
    for lo in range(0, sizes[0], block):
        hi = min(lo + block, sizes[0])
        rows = [(c, [tabs[0][lo:hi]] + tabs[1:]) for c, tabs in shaped]
        yield _term_values(field, rows, (hi - lo,) + rest)


def _form_counts(field: Field, terms, sizes) -> np.ndarray:
    """Counts of each trace exponent over the `_form_blocks`."""
    counts = np.zeros(field.p, dtype=np.int64)
    for acc in _form_blocks(field, terms, sizes):
        counts += np.bincount(field.trace_table[acc].ravel(), minlength=field.p)
    return counts


def _vanishing_prefixes(field: Field, terms, dims) -> int:
    """Z, the prefixes x (all slots but the last) at which y -> Q(x, y) is zero,
    Q the form of `terms`: (c, tables) pairs holding each prefix slot's whole
    table and the last slot's d_m values at its basis points x^j (indices
    q^j).  Q is F_q-linear in y, so it vanishes where it does at those.
    Arity 1 has one empty prefix, here a slot of size 1 whose table is the
    field's 1."""
    d = dims[-1]
    if d == 0:
        return field.q ** sum(dims[:-1])
    lead = [np.ones(1, dtype=np.int16)] if len(dims) == 1 else []
    sizes = [1] * len(lead) + [field.q ** e for e in dims[:-1]] + [d]
    return sum(int(np.count_nonzero(~acc.reshape(-1, d).any(axis=1))) for acc in
               _form_blocks(field, [(c, lead + list(tabs)) for c, tabs in terms], sizes))


def _merge_terms(field: Field, raw, key):
    """Combine like terms (c, parts): parts sorted by `key` to a canonical
    tuple, the coefficients of equal tuples summed, zero sums dropped."""
    acc: dict = {}
    for c, parts in raw:
        if c == 0:
            continue
        canon = tuple(sorted(parts, key=key))
        acc[canon] = field.add_py[acc.get(canon, 0)][c]
    return tuple((c, k) for k, c in acc.items() if c != 0)


def _runs(factors):
    """(L, e) for each run of e equal factors; a merged term keeps equal
    factors adjacent."""
    return [(L, len(list(run))) for L, run in itertools.groupby(factors)]


class PolynomialPhase:
    """Structured polynomial map G_n -> F_q."""

    __slots__ = ("field", "n", "product_terms")
    # always empty (monomials are lowered to product terms); read by
    # perfbench/worker.py `_replay_decay`
    monomial_terms = ()

    def __init__(self, field: Field, n: int, product_terms=(), monomial_terms=()):
        if n < 1:
            raise ValueError("ambient n must be >= 1")
        lowered = []
        for c, powers in monomial_terms:
            powers = tuple((int(j), int(e)) for j, e in powers)
            for j, e in powers:
                if not 0 <= j < n:
                    raise ValueError(f"coordinate {j} outside G_{n}")
                if e < 1:
                    raise ValueError("monomial exponents must be >= 1")
            if len({j for j, _ in powers}) != len(powers):
                raise ValueError("repeated coordinate in monomial")
            # g_j^e is e copies of the coordinate functional g -> g_j
            lowered.append((c, [LaurentTruncation.coordinate(field, j, n)
                                for j, e in powers for _ in range(e)]))
        pt = []
        for c, factors in itertools.chain(product_terms, lowered):
            c = int(c)
            if not 0 <= c < field.q:
                raise ValueError("coefficient out of range")
            factors = tuple(factors)
            for L in factors:
                if L.field != field:
                    raise ValueError("linear factor over a different field")
                if L.depth < n:
                    raise ValueError(f"factor depth {L.depth} too shallow for G_{n}")
            pt.append((c, factors))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "product_terms", _merge_terms(field, pt, lambda L: L.coeffs))

    def __setattr__(self, *a):
        raise AttributeError("PolynomialPhase is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field: Field, n: int):
        return cls(field, n)

    @classmethod
    def constant(cls, field: Field, n: int, c: int):
        return cls(field, n, product_terms=((c, ()),))

    @classmethod
    def from_linear(cls, beta: LaurentTruncation, n: int, c: int = 1):
        return cls(beta.field, n, product_terms=((c, (beta,)),))

    @classmethod
    def from_product(cls, n: int, factors, c: int = 1):
        factors = tuple(factors)
        return cls(factors[0].field, n, product_terms=((c, factors),))

    # -- structure -----------------------------------------------------------

    @property
    def degree(self) -> int:
        """Structural (declared) degree; 0 for the zero phase and constants."""
        return max((len(f) for _, f in self.product_terms), default=0)

    def is_zero(self) -> bool:
        return not self.product_terms

    def is_homogeneous(self) -> bool:
        return len({len(f) for _, f in self.product_terms}) == 1

    def top_term_count(self) -> int:
        """Number of stored terms of full structural degree."""
        deg = self.degree
        return sum(1 for _, f in self.product_terms if len(f) == deg)

    # -- evaluation ----------------------------------------------------------

    def eval(self, g: Poly) -> int:
        return int(_term_values(self.field, [
            (c, [linear_form(L, g) for L in factors]) for c, factors in self.product_terms], ()))

    def values_on_gn(self) -> np.ndarray:
        """Encoded values over all of G_n, index order (vectorized): one
        engine table per distinct factor, raised to each run's power."""
        F = self.field
        size = F.q ** self.n
        F.charge(size, f"G_{self.n}")
        tables: dict = {}

        def run_table(L, e):
            if L not in tables:
                tables[L] = linear_form_table(L, self.n)
            if e == 1:
                return tables[L]
            return np.array([F.pow_(a, e) for a in range(F.q)], dtype=np.int16)[tables[L]]

        # generators: a factor's table is built when the kernel first reaches it
        return _term_values(F, ((c, (run_table(L, e) for L, e in _runs(factors)))
                                for c, factors in self.product_terms), (size,))

    def exponent_values_on_gn(self) -> np.ndarray:
        """Trace exponents of alpha_1(P(g)) over G_n."""
        return self.field.trace_table[self.values_on_gn()]

    # -- algebra ---------------------------------------------------------------

    def __add__(self, other: "PolynomialPhase") -> "PolynomialPhase":
        if other.field != self.field or other.n != self.n:
            raise ValueError("phases over different domains")
        return PolynomialPhase(self.field, self.n, self.product_terms + other.product_terms)

    def scalar_mul(self, c: int) -> "PolynomialPhase":
        mul = self.field.mul_py
        return PolynomialPhase(self.field, self.n,
                               tuple((mul[c][tc], f) for tc, f in self.product_terms))

    def __neg__(self):
        return self.scalar_mul(self.field.neg_py[1])

    def equal_as_functions(self, other: "PolynomialPhase") -> bool:
        return bool(np.array_equal(self.values_on_gn(), other.values_on_gn()))

    def descriptor(self) -> dict:
        """The phase as a config `phase` section: `resolve_phase` of it on
        G_n gives this phase back."""
        return {"terms": [{"coef": c, "factors": [list(L.coeffs) for L in fs]}
                          for c, fs in self.product_terms]}

    def __repr__(self):
        return (f"PolynomialPhase(n={self.n}, degree={self.degree}, "
                f"{len(self.product_terms)} product terms)")


def eval_phase(P: PolynomialPhase, g: Poly) -> int:
    if not g.is_zero() and g.degree >= P.n:
        raise ValueError(f"deg g = {g.degree} outside G_{P.n}")
    return P.eval(g)


# -- discrete derivatives ------------------------------------------------------


def delta(P: PolynomialPhase, h: Poly) -> PolynomialPhase:
    """Delta_h P(g) = P(g+h) - P(g), expanded symbolically (exact).

    Each run L^e of a term expands by the binomial theorem,
    (L + L(h))^e = sum_t C(e, t) L(h)^(e-t) L^t; the all-top choice
    (t = e in every run) is the term itself and cancels against -P(g)."""
    F = P.field
    if h.field != F:
        raise ValueError("shift from a different field")
    mul = F.mul_py
    out = []
    for c, factors in P.product_terms:
        # each run's nonzero choices (t, L, weight), t = e (weight 1) first
        choices = []
        for L, e in _runs(factors):
            a = linear_form(L, h)
            choices.append([(t, L, w) for t in range(e, -1, -1)
                            if (w := mul[math.comb(e, t) % F.p][F.pow_(a, e - t)])])
        for combo in itertools.islice(itertools.product(*choices), 1, None):
            coef, rest = c, []
            for t, L, w in combo:
                coef = mul[coef][w]
                rest += [L] * t
            out.append((coef, rest))
    return PolynomialPhase(F, P.n, out)


def iterated_difference(P: PolynomialPhase, hs, g: Poly) -> int:
    """Delta_{h_1}...Delta_{h_k} P evaluated at g, by inclusion-exclusion."""
    F = P.field
    add, neg = F.add_py, F.neg_py
    k = len(hs)
    acc = 0
    for mask in range(1 << k):
        pt = g
        for i in range(k):
            if mask >> i & 1:
                pt = pt + hs[i]
        v = P.eval(pt)
        if (k - bin(mask).count("1")) % 2 == 1:
            v = neg[v]
        acc = add[acc][v]
    return acc


# -- multilinear forms ---------------------------------------------------------


def bias_cost(q: int, dims) -> int:
    """The entries an exhaustive bias evaluates: the d_m basis points of the
    last slot at each of the q^(d_1 + ... + d_{m-1}) prefixes."""
    return q ** sum(dims[:-1]) * dims[-1]


@dataclass
class BiasResult:
    bias: float
    analytic_rank: float
    mode: str
    evaluations: int
    stderr: float | None = None
    imag_residual: float = 0.0  # sampled only: an exhaustive bias is rational


class MultilinearForm:
    """Sum of rank-one terms c * L_1(x_1) * ... * L_m(x_m) on prod G_{dims}."""

    __slots__ = ("field", "dims", "terms", "block_count", "source")

    def __init__(self, field: Field, dims, terms, block_count: int | None = None,
                 source: dict | None = None):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("arity must be >= 1")
        checked = []
        for c, funcs in terms:
            c = int(c)
            funcs = tuple(funcs)
            if len(funcs) != len(dims):
                raise ValueError("one functional per slot required")
            for L, d in zip(funcs, dims):
                if L.field != field:
                    raise ValueError("functional over a different field")
                if L.depth < d:
                    raise ValueError("functional too shallow for its slot")
            if c:
                checked.append((c, funcs))
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "terms", tuple(checked))
        object.__setattr__(self, "block_count", block_count)
        object.__setattr__(self, "source", source)

    def __setattr__(self, *a):
        raise AttributeError("MultilinearForm is immutable")

    @property
    def arity(self) -> int:
        return len(self.dims)

    @classmethod
    def zero(cls, field: Field, dims):
        return cls(field, dims, ())

    @classmethod
    def rank_one(cls, field: Field, dims, functionals, c: int = 1):
        return cls(field, dims, ((c, tuple(functionals)),), block_count=1)

    @classmethod
    def from_blocks(cls, field: Field, dims, blocks):
        """blocks: iterable of (slots_I, terms_M, terms_R) with terms_M over the
        slots in I and terms_R over the complement; the product expands to
        rank-one terms.  Partition-rank bookkeeping = number of blocks."""
        dims = tuple(dims)
        m = len(dims)
        out = []
        for slots_i, terms_m, terms_r in blocks:
            slots_i = tuple(slots_i)
            comp = tuple(s for s in range(m) if s not in slots_i)
            if not slots_i or not comp:
                raise ValueError("a block must split the slots into two nonempty parts")
            for c1, f1 in terms_m:
                for c2, f2 in terms_r:
                    if len(f1) != len(slots_i) or len(f2) != len(comp):
                        raise ValueError("block term arity mismatch")
                    funcs = [None] * m
                    for s, L in zip(slots_i, f1):
                        funcs[s] = L
                    for s, L in zip(comp, f2):
                        funcs[s] = L
                    out.append((field.mul_py[c1][c2], tuple(funcs)))
        return cls(field, dims, out, block_count=len(tuple(blocks)))

    # -- evaluation ----------------------------------------------------------

    def eval(self, *polys) -> int:
        if len(polys) != self.arity:
            raise ValueError("one argument per slot")
        return int(_term_values(self.field, [
            (c, [linear_form(L, g) for L, g in zip(funcs, polys)]) for c, funcs in self.terms], ()))

    # -- bias ------------------------------------------------------------------

    def exponent_counts(self) -> np.ndarray:
        """Counts of each trace exponent of Q over all slot tuples (exact ints)."""
        counts = _form_counts(self.field, [
            (c, [linear_form_table(L, d) for L, d in zip(funcs, self.dims)])
            for c, funcs in self.terms], [self.field.q ** d for d in self.dims])
        assert counts.sum() == self.field.q ** sum(self.dims)
        return counts

    def bias(self, mode: str = "exhaustive", samples: int = 10000,
             seed: int = 0) -> BiasResult:
        """E over slot tuples of alpha_1(Q(x)); real and >= q^{-partition rank}.
        Exhaustive: Z / q^D rounded once, Z the `_vanishing_prefixes` and D =
        d_1 + ... + d_{m-1}, charged `bias_cost`; the rank is D - e/r exactly
        when Z = p^e (`factor_int`), else a float.  Sampled: charged the
        `samples`, with the stderr of the real part, the reported bias."""
        F = self.field
        if mode == "exhaustive":
            cost, D = bias_cost(F.q, self.dims), sum(self.dims[:-1])
            F.charge(cost, f"the exhaustive bias over {len(self.dims)} slots")
            # L(x^j) = (beta x^j)_{-1} = beta_j: the last slot's basis values
            zeros = _vanishing_prefixes(F, [
                (c, [linear_form_table(L, d) for L, d in zip(funcs[:-1], self.dims)]
                 + [np.array(funcs[-1].coeffs[:self.dims[-1]], dtype=np.int16)])
                for c, funcs in self.terms], self.dims)
            e = dict(factor_int(zeros)).get(F.p, 0)
            if not zeros:
                rank = math.inf
            elif zeros == F.p ** e:  # the bias is p^(e - rD)
                rank = float(Fraction(D * F.r - e, F.r))
            else:
                rank = -math.log(zeros / F.q ** D, F.q)
            return BiasResult(float(Fraction(zeros, F.q ** D)), rank, "exhaustive", cost)
        if mode != "sampled":
            raise ValueError("mode must be 'exhaustive' or 'sampled'")
        if samples < 1:
            raise ValueError("samples must be >= 1")
        F.charge(samples, f"the sampled bias over {len(self.dims)} slots")
        rng = np.random.default_rng(seed)
        idx = [rng.integers(0, F.q ** d, size=samples) for d in self.dims]
        acc = _term_values(F, [
            (c, [linear_form_table(L, d)[i] for L, d, i in zip(funcs, self.dims, idx)])
            for c, funcs in self.terms], (samples,))
        vals = F.roots[F.trace_table[acc]]
        mean = complex(vals.mean())
        stderr = float(vals.real.std() / math.sqrt(samples))
        bias = mean.real
        rank = -math.log(bias, F.q) if bias > 0 else math.inf
        return BiasResult(bias, rank, "sampled", samples, stderr, abs(mean.imag))

    def descriptor(self) -> dict:
        return {"dims": list(self.dims),
                "terms": [{"coef": c, "functionals": [list(L.coeffs) for L in fs]}
                          for c, fs in self.terms],
                "blocks": self.block_count}

    def __repr__(self):
        return (f"MultilinearForm(arity={self.arity}, dims={self.dims}, "
                f"{len(self.terms)} rank-one terms)")


# -- derivative form and diagonal ------------------------------------------------


def derivative_form(P: PolynomialPhase, m: int, verify: bool = True) -> MultilinearForm:
    """d^mP as a symmetric m-linear form; requires m < char and deg P <= m.

    Terms of structural degree < m are killed by m derivatives; each
    degree-m product term L_1...L_m polarizes into the sum over all ways to
    assign its factors to the m slots.
    """
    F = P.field
    if m >= F.p:
        raise ValueError(f"m = {m} >= char = {F.p}: factorial degeneracy")
    if P.degree > m:
        raise ValueError(f"phase has structural degree {P.degree} > m = {m}")
    terms = [(c, perm) for c, factors in P.product_terms if len(factors) == m
             for perm in itertools.permutations(factors)]
    Q = MultilinearForm(F, (P.n,) * m, terms,
                        source={"kind": "derivative", "m": m,
                                "schmidt_upper": _schmidt_upper(P)})
    if verify and F.q ** P.n <= 4096:
        import random as _random
        rng = _random.Random(1)
        size = F.q ** P.n
        hs = [Poly.from_index(F, rng.randrange(size)) for _ in range(m)]
        for g in (Poly.zero(F), Poly.from_index(F, rng.randrange(size))):
            if iterated_difference(P, hs, g) != Q.eval(*hs):
                raise AssertionError("iterated difference disagrees with d^mP")
    return Q


def diagonal(Q: MultilinearForm, divide_by_factorial: bool = False) -> PolynomialPhase:
    """P_Q(g) = Q(g, ..., g); optionally divided by m! to invert d^m."""
    if len(set(Q.dims)) != 1:
        raise ValueError("diagonal needs all slots over a common domain")
    F = Q.field
    n = Q.dims[0]
    scale = 1
    if divide_by_factorial:
        m = Q.arity
        if m >= F.p:
            raise ValueError("cannot divide by m! at or above the characteristic")
        scale = F.inv_py[math.factorial(m) % F.p]
    terms = [(F.mul_py[scale][c], funcs) for c, funcs in Q.terms]
    return PolynomialPhase(F, n, product_terms=terms)


def _schmidt_upper(P: PolynomialPhase) -> int:
    if P.degree < 2:
        return 0
    return P.top_term_count()


@dataclass
class RankBounds:
    schmidt_upper: int | None = None
    partition_upper: int | None = None
    derivative_bound: int | None = None


def rank_upper_bounds(obj) -> RankBounds:
    """Constructive upper bounds read off the stored decomposition.

    These are bookkeeping numbers, not computed ranks: term counts for
    phases (top-degree terms only, per the definition through the
    homogeneous part), block counts for block-built forms, and the
    2^m * r(P) bound for derivative forms.
    """
    if isinstance(obj, PolynomialPhase):
        return RankBounds(schmidt_upper=_schmidt_upper(obj))
    if isinstance(obj, MultilinearForm):
        part = obj.block_count if obj.block_count is not None else len(obj.terms)
        deriv = None
        if obj.source and obj.source.get("kind") == "derivative":
            deriv = (2 ** obj.source["m"]) * obj.source["schmidt_upper"]
        return RankBounds(partition_upper=part, derivative_bound=deriv)
    raise TypeError("expected a PolynomialPhase or MultilinearForm")


# -- projective zero counts -------------------------------------------------------


@dataclass
class ZeroCountResult:
    count: int
    projective_size: int
    bound: float
    passes: bool
    total_degree: int


def projective_common_zeros(phases, dim: int,
                            field: Field | None = None) -> ZeroCountResult:
    """Brute-force common projective zeros of homogeneous phases on G_dim,
    checked against the |Pr(V)| / (2 q^{D+1}) lower bound.

    An empty system imposes no conditions: every projective point counts
    (pass `field` explicitly in that case).
    """
    phases = list(phases)
    if phases:
        field = phases[0].field
    elif field is None:
        raise ValueError("an empty system needs an explicit field")
    q = field.q
    size = q ** dim
    proj_size = (size - 1) // (q - 1)
    if not phases:
        return ZeroCountResult(proj_size, proj_size, proj_size / (2 * q), True, 0)
    field.charge(size, f"G_{dim}")
    D = 0
    for P in phases:
        if P.n != dim:
            raise ValueError("phase ambient dimension disagrees with dim")
        if P.is_zero() or not P.is_homogeneous() or P.degree < 1:
            raise ValueError("system members must be homogeneous of degree >= 1")
        D += P.degree
    # the representatives, lowest nonzero coefficient 1: x^j + x^(j+1) t
    reps = np.concatenate([q ** j + q ** (j + 1) * np.arange(q ** (dim - j - 1), dtype=np.int64)
                           for j in range(dim)])
    zero_mask = np.ones(len(reps), dtype=bool)
    for P in phases:
        zero_mask &= P.values_on_gn()[reps] == 0
    count = int(np.count_nonzero(zero_mask))
    bound = proj_size / (2 * q ** (D + 1))
    return ZeroCountResult(count, proj_size, bound, count >= bound, D)
