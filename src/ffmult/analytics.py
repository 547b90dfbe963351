"""Correlation, norm, distance and criterion statistics over G_n.

Everything here is an exhaustive (or explicitly seeded-sampled) desk-scale
computation; nothing asserts asymptotics, the ops only report the numbers
whose trends the theory predicts.  Conventions shared by all ops:

* G_n is indexed canonically (polynomial <-> base-q index), so a function
  on G_n can be a callable on Poly or a complex array in index order.
  `sample_on_gn` alone decides how a function reaches G_n: it makes an
  array, a phase, a MultiplicativeFunction, a HayesCharacter or a plain
  callable one whole array, and every statistic reduces (slices of) that
  array.  At the primes, `_at_primes` reads a MultiplicativeFunction
  (`prime_values`) or a HayesCharacter as arrays, never a plain callable.
* Multiplicative inputs use f(0) = 0; the `domain` selector picks between
  all of G_n ("all"), G_n minus 0 ("nonzero"), and the monic top slice of
  degree n-1 ("monic").
* Correlation means, Katai inner sums and mean values are summed with
  math.fsum (correctly rounded, so independent of order and partition).
  Array products there use separate float64 ufuncs (re = ar*br - ai*bi,
  im = ar*bi + ai*br), which round exactly as Python's complex product
  does; numpy's complex `*` may fuse the multiply-add and is not used.  So
  a sum equals the scalar sum of the same products, bit for bit.  When
  every value is a Gaussian integer with both parts in [-1, 1] (mu,
  lambda, 1, random +-1, every F_2 phase, the quarter-turn characters;
  `_unit_integer_parts`), the same sums are taken exactly in int64 (dots,
  sums, and integer Gram matrices for the Katai inner sums): every product
  is then an exact integer and the fsum of integers below 2^53 is that
  integer (+0.0 when it is 0), so the bits are those of the fsum.  Gowers
  and progression averages use numpy's mean and complex products:
  deterministic, with no scalar twin.
* Gowers norms: the U^k brute-force cube average is computed by iterating
  multiplicative derivatives (an exact regrouping of the sum over
  (x, h_1..h_k)); the independent U^2 route goes through the additive
  character transform (multidimensional length-p DFT) and Parseval.  The
  shifts x + h of the cube and the positions x + j*y of the progressions
  are G_n's addition, each one table of `gn.translates`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .characters import HayesCharacter, dirichlet_characters, short_interval_characters
from .fields import Field
from .gn import times_fixed, times_fixed_chunks, translates
from .laurent import LaurentTruncation, linear_form_table
from .multiplicative import (MultiplicativeFunction, _complex, _prime_power_values, _products,
                             from_character, function_on_gn, prime_values)
from .phases import PolynomialPhase, _counts_mean, _form_counts, derivative_form
from .polys import (Poly, irreducible_count, irreducible_indices, monic_of_degree,
                    necklace_count, sieve_through)


def sample_on_gn(field: Field, n: int, f) -> np.ndarray:
    """f on all of G_n as a complex array in index order.  `f` is an array in
    index order (a complex128 one is returned as it is, not copied), a phase
    (alpha_1 of it), a MultiplicativeFunction (`function_on_gn`), a
    HayesCharacter (its function's array, 0 at g = 0) or any other callable
    on Poly, called once per element of G_n after q^n is charged to the
    field.  A negative n is a ValueError."""
    size = _gn_size(field, n)
    if isinstance(f, np.ndarray):
        if f.shape != (size,):
            raise ValueError(f"array has shape {f.shape}, expected ({size},)")
        return np.asarray(f, dtype=np.complex128)
    if isinstance(f, PolynomialPhase):
        if f.n != n:
            raise ValueError(f"phase lives on G_{f.n}, asked to sample on G_{n}")
        return phase_character_array(f)
    if isinstance(f, HayesCharacter):
        f = from_character(f)
    if isinstance(f, MultiplicativeFunction):
        return function_on_gn(f, n)
    field.charge(size, "calls of a plain callable")
    out = np.empty(size, dtype=np.complex128)
    for idx in range(size):
        out[idx] = f(Poly.from_index(field, idx))
    return out


def phase_character_array(P: PolynomialPhase) -> np.ndarray:
    """alpha_1(P(g)) over G_n as a complex array (exact exponents inside)."""
    return P.field.roots[P.exponent_values_on_gn()]


def _gn_size(field: Field, n: int) -> int:
    """|G_n| = q^n; ValueError for a negative n."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return field.q ** n


def _fsum_arrays(re: np.ndarray, im: np.ndarray) -> complex:
    return complex(math.fsum(re.tolist()), math.fsum(im.tolist()))


def _unit_integer_parts(values: np.ndarray):
    """The real and imaginary parts of `values` as int64 arrays when every
    value is a Gaussian integer with both parts in [-1, 1] (0, +-1, +-i,
    +-1+-i), else None.  Both parts are read at once, as the float64 pairs
    of the complex values; the bound is tested before anything is cast, so
    NaN, infinities and huge values never reach `astype`."""
    pairs = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    if pairs.size and not (pairs.min() >= -1.0 and pairs.max() <= 1.0):
        return None
    ints = pairs.astype(np.int64)
    if not np.array_equal(ints, pairs):
        return None
    return ints[..., 0::2], ints[..., 1::2]


# -- correlation ----------------------------------------------------------------


def domain_indices(field: Field, n: int, domain: str):
    """Index range of the chosen slice of G_n; ValueError for a negative n
    and for the empty slices "nonzero" and "monic" of G_0."""
    size = _gn_size(field, n)
    if domain == "all":
        return range(size)
    if domain in ("nonzero", "monic") and n == 0:
        raise ValueError(f"the {domain} slice of G_0 is empty")
    if domain == "nonzero":
        return range(1, size)
    if domain == "monic":
        base = field.q ** (n - 1)
        return range(base, 2 * base)
    raise ValueError(f"unknown domain {domain!r}")


def correlate(field: Field, nu, t, n: int, domain: str = "all") -> complex:
    """Mean of nu(g) * t(g) over the chosen slice of G_n.

    `nu` and `t` are each in a form `sample_on_gn` reads: an index-order
    array on G_n, a PolynomialPhase (meaning alpha_1 applied to it), a
    MultiplicativeFunction, a HayesCharacter or a callable on Poly.  Both
    are sampled on all of G_n (a plain callable is called q^n times, on
    any domain), sliced and multiplied as arrays.  When both slices are
    read by `_unit_integer_parts`, the sum of products is two exact int64
    dots (re = ar.br - ai.bi, im = ar.bi + ai.br); otherwise it is the
    fsum of the `_products`.  A negative n or an empty slice is a
    ValueError, raised before the charge.
    """
    rng = domain_indices(field, n, domain)
    field.charge(field.q ** n, f"G_{n}")
    a = sample_on_gn(field, n, nu)[rng.start:rng.stop]
    b = sample_on_gn(field, n, t)[rng.start:rng.stop]
    return _product_sum(a, b, _exact_pair(a, b)) / len(rng)


def correlate_prefixes(field: Field, nu: np.ndarray, t: np.ndarray, ns, domain: str = "all"):
    """correlate(field, nu[:q^n], t[:q^n], n, domain) for every n of `ns` in
    turn, bit for bit, from index-order arrays `nu` and `t` on G_N, N the
    largest n: `_unit_integer_parts` reads the whole arrays once, and each
    n takes its slice of them (the integer and fsum routes give the same
    bits, so a prefix read by either gives its `correlate`)."""
    exact = _exact_pair(nu, t)
    for n in ns:
        rng = domain_indices(field, n, domain)
        field.charge(field.q ** n, f"G_{n}")
        yield _product_sum(nu, t, exact, slice(rng.start, rng.stop)) / len(rng)


def _exact_pair(a: np.ndarray, b: np.ndarray):
    """The int64 parts (ar, ai, br, bi) of a and b when `_unit_integer_parts`
    reads both, else None."""
    exact_a = _unit_integer_parts(a)
    exact_b = None if exact_a is None else _unit_integer_parts(b)
    return None if exact_b is None else exact_a + exact_b


def _product_sum(a: np.ndarray, b: np.ndarray, exact, cut: slice = slice(None)) -> complex:
    """The sum of a*b over `cut`: two int64 dots of the `_exact_pair` parts,
    or the fsum of the `_products` where they are None."""
    if exact is None:
        return _fsum_arrays(*_products(a[cut], b[cut]))
    ar, ai, br, bi = (part[cut] for part in exact)
    return complex(float(ar @ br - ai @ bi), float(ar @ bi + ai @ br))


# -- Gowers norms -----------------------------------------------------------------


def gowers_cost(q: int, n: int, k: int) -> int:
    """`gowers_norm`'s |G_n|^k element operations; for k >= 2 they cover its shift table."""
    return q ** (n * k)


def gowers_norm(field: Field, n: int, f, k: int) -> float:
    """U^k norm by the 2^k-corner cube average over (x, h_1, ..., h_k).

    The sum is evaluated by iterating multiplicative derivatives
    f -> f(.+h) conj f(.), which regroups the corner sum exactly: |G|^(k-1)
    means of length |G|, the `gowers_cost` charged to the field.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    size = _gn_size(field, n)
    field.charge(gowers_cost(field.q, n, k), f"U^{k} on G_{n}")
    arr = sample_on_gn(field, n, f)
    # shift[h] holds the indices of x + h; U^1 = |E f| reads no row of it
    shift = translates(field, n, 1) if k >= 2 else None

    def cube_mean(v: np.ndarray, kk: int) -> float:
        if kk == 1:
            m = v.mean()
            return float((m * m.conjugate()).real)
        parts = np.empty(size, dtype=np.float64)
        for h in range(size):
            parts[h] = cube_mean(v[shift[h]] * v.conjugate(), kk - 1)
        return float(parts.mean())

    val = max(cube_mean(arr, k), 0.0)
    return val ** (1.0 / 2 ** k)


def u2_fourier(field: Field, n: int, f) -> float:
    """U^2 via the character transform: (sum |f_hat|^4)^(1/4).

    The characters of G_n are alpha_1(<x, xi>) under the trace pairing;
    re-indexed through the F_p-coordinate dual basis they become the
    standard multidimensional length-p DFT, which is what numpy computes.
    """
    size = _gn_size(field, n)
    field.charge(size, f"the transform on G_{n}")
    arr = sample_on_gn(field, n, f).reshape((field.p,) * (field.r * n))
    hat = np.fft.fftn(arr) / size
    return float(np.sum(np.abs(hat) ** 4) ** 0.25)


# -- arithmetic-progression correlation ---------------------------------------------


@dataclass
class ApResult:
    mean: complex
    gowers_bound: float
    satisfied: bool
    k: int


def ap_cost(q: int, n: int, k: int) -> int:
    """`ap_correlation`'s q^(2n) pairs (x, y) and the cube of its U^(k-1) bound."""
    return max(q ** (2 * n), gowers_cost(q, n, k - 1))


def ap_correlation(field: Field, n: int, fs) -> ApResult:
    """E_{x,y in G_n} prod_j f_j(x + (j-1)y), checked against U^{k-1}(f_k)
    up to 1e-9.

    Requires k < char(F_q), so that j*y = 0 has only the trivial solution
    for every j < k.  The field is charged the `ap_cost` up front.
    """
    fs = list(fs)
    k = len(fs)
    if k < 2:
        raise ValueError("need at least two functions")
    if k >= field.p:
        raise ValueError(f"k = {k} >= char = {field.p}: torsion condition fails")
    size = _gn_size(field, n)
    field.charge(ap_cost(field.q, n, k), f"the {k}-term progressions on G_{n}")
    arrays = [sample_on_gn(field, n, f) for f in fs]
    prod = np.repeat(arrays[0][:, None], size, axis=1)
    for j in range(1, k):
        prod = prod * arrays[j][translates(field, n, j)]     # f_j(x + j y) at [x, y]
    mean = complex(prod.mean())
    bound = gowers_norm(field, n, arrays[-1], k - 1)
    return ApResult(mean, bound, abs(mean) <= bound + 1e-9, k)


# -- Katai statistic -------------------------------------------------------------


# a pair set by name: (its degrees for k, its number of members of degree d
# over F_q, its members of degree d as sorted int64 indices)
_PAIR_SETS = {
    "P_k": (lambda k: (k, k + 1), necklace_count, irreducible_indices),
    "G_{k+1}": (lambda k: range(k + 1), lambda q, d: (q - 1) * q ** d,
                lambda field, d: np.arange(field.q ** d, field.q ** (d + 1), dtype=np.int64)),
}


def _pair_set(field: Field, k: int, name: str) -> dict:
    """{d: members of degree d}, degrees ascending: "P_k" is the monic
    irreducibles of degree k and k+1, "G_{k+1}" every nonzero polynomial of
    degree <= k."""
    if name not in _PAIR_SETS or k < 1:
        raise ValueError(f"need a pair set in {', '.join(_PAIR_SETS)} and k >= 1")
    degrees, _, members = _PAIR_SETS[name]
    return {d: members(field, d) for d in degrees(k)}


def katai_cost(q: int, n: int, k: int, pair_set: str) -> int:
    """Inner-sum terms of katai_statistic: sum over pairs (a, b) of
    q^(n - max(deg a, deg b)), from the per-degree sizes of the pair set."""
    degrees, count, _ = _PAIR_SETS[pair_set]
    cost, below = 0, 0
    for d in degrees(k):
        # pairs whose larger degree is d
        size = count(q, d)
        pairs = (below + size) ** 2 - below ** 2
        if d <= n:
            cost += pairs * q ** (n - d)
        below += size
    return cost


def katai_statistic(field: Field, f, n: int, k: int, pair_set: str = "P_k",
                    per_pair: bool = False) -> float:
    """Normalized double sum over irreducible pairs certifying orthogonality.

    sum_{a,b} |sum_{g in G_m} f(ag) conj f(bg)| with m = min(n-deg a, n-deg b),
    divided by |pairs|^2 * q^{n-k}.  The flat q^{n-k} weight is the default;
    per_pair=True divides each inner sum by its own q^m instead, which
    balances the two degrees in the pair window (useful for sensitivity
    studies, and the mode whose diagonal share is exactly 1/|pairs|).

    pair_set "P_k" uses irreducibles of degree k and k+1; "G_{k+1}" uses all
    nonzero polynomials of degree <= k; both are index arrays (`_pair_set`).

    `f` is in any form `sample_on_gn` reads; it is sampled once on all of
    G_n (a plain callable is called q^n times; q^n and the `katai_cost` are
    charged to the field).  The pairs whose larger degree is D share
    m = n - D, and f(a g) for the a of one degree is read from that array
    through one `times_fixed` block per (deg a, m).  Every inner sum and the
    total are fsums, so the order of the pairs does not change the result.
    When `_unit_integer_parts` reads the rows of one D, their inner sums S
    are instead exact int64 Gram matrices of the rows' parts R and I,
    Re S = R R^T + I I^T and Im S = I R^T - R I^T, which give the fsums'
    bits; the total is still an fsum.  |S| is `np.hypot` over each block,
    which gives the bits of abs(complex).
    """
    q = field.q
    pairs = _pair_set(field, k, pair_set)
    if n < max(pairs):
        raise ValueError("n too small for the chosen pair degrees")
    field.charge(katai_cost(q, n, k, pair_set), f"the Katai inner sums on G_{n}")
    f_arr = sample_on_gn(field, n, f)
    parts = []
    for top, members in pairs.items():
        m, scale = n - top, q ** (n - top) if per_pair else 1
        rows = np.concatenate([f_arr[times_fixed(field, idx, m)]
                               for d, idx in pairs.items() if d <= top])
        below = len(rows) - len(members)      # rows of degree < top pair with degree top only
        exact = _unit_integer_parts(rows)
        if exact is None:
            for a, row in enumerate(rows):
                re, im = _products(row, rows[below:] if a < below else rows, conjugate_b=True)
                sums = [[math.fsum(x) for x in part.tolist()] for part in (re, im)]
                parts += (np.hypot(*sums) / scale).tolist()
            continue
        R, I = exact
        # the rows of degree top against every row, the lower rows against those of degree top
        for a, b in ((slice(below, None), slice(None)), (slice(below), slice(below, None))):
            re = R[a] @ R[b].T + I[a] @ I[b].T
            im = I[a] @ R[b].T - R[a] @ I[b].T
            parts += (np.hypot(re, im) / scale).ravel().tolist()
    size = sum(len(idx) for idx in pairs.values())
    total = math.fsum(parts)
    if per_pair:
        return total / size ** 2
    return total / (size ** 2 * q ** (n - k))


# -- derivative bias statistic ------------------------------------------------------


@dataclass
class RBiasResult:
    value: float
    imag_residual: float
    pairs: int
    inner_evaluations: int
    mode: str
    stderr: float | None = None


def _dilated_rows(field: Field, functionals, base: dict, m: int) -> dict:
    """{L: rows}: row i is g -> L(a_i g) on G_m, a_i the i-th member of
    `base` ({degree: int64 indices}), read from linear_form_table(L, m + the
    largest degree) at one `times_fixed` block per degree, since
    (beta (a g))_{-1} = ((beta a) g)_{-1}."""
    products = np.concatenate([times_fixed(field, members, m) for members in base.values()])
    width = m + max(base)
    return {L: linear_form_table(L, width)[products] for L in functionals}


def r_bias_statistic(P: PolynomialPhase, n: int, k: int,
                     base_set: str = "G_{k+1}", mode: str = "exhaustive",
                     max_pairs: int = 2000,
                     seed: int = 0, m: int | None = None) -> RBiasResult:
    """E_{a,b} E_{g in G_{n-k}^m} alpha_1(d^mP(a g) - d^mP(b g)).

    The inner form is m-linear in g for each fixed (a, b) (slot functionals
    compose with multiplication by a), so each inner mean is an exact bias
    computation.  The (a,b) average of the difference structure makes the
    statistic a modulus-squared average: real and nonnegative.  Declaring
    m above the structural degree makes d^mP vanish and the statistic is
    exactly 1.  The pairs' inner evaluations are charged to the field, and
    so are the entries of the `_dilated_rows` tables, (distinct functionals)
    * |base| * q^(n-k).

    A pair's inner mean is the exponent counts of the terms (c, rows of a)
    and (-c, rows of b) of `_dilated_rows`.  Sampled, the N pairs are drawn
    without replacement as pair numbers a*|base| + b in [0, M), M = |base|^2,
    and the stderr is that of the mean of their real parts, with the finite
    population correction sqrt((M - N) / (M - 1)): 0 when every pair is
    drawn.
    """
    if mode not in ("exhaustive", "sampled"):
        raise ValueError("mode must be 'exhaustive' or 'sampled'")
    if max_pairs < 1:
        raise ValueError("max_pairs must be >= 1")
    field = P.field
    if m is None:
        m = P.degree
    if m < 1:
        raise ValueError("phase must have degree >= 1")
    inner_dim = n - k
    if inner_dim < 1:
        raise ValueError("n - k must be >= 1")
    dQ = derivative_form(P, m, verify=False)
    base = _pair_set(field, k, base_set)
    size = sum(len(members) for members in base.values())
    inner_size = field.q ** (inner_dim * m)
    total = size * size
    mode_used = "sampled" if mode == "sampled" or total > max_pairs else "exhaustive"
    chosen = range(total)
    if mode_used == "sampled":
        rng = np.random.default_rng(seed)
        chosen = np.sort(rng.choice(total, size=min(max_pairs, total), replace=False)).tolist()
    pairs = len(chosen)
    field.charge(pairs * inner_size, f"the inner means of {pairs} pairs")
    functionals = dict.fromkeys(L for _, funcs in dQ.terms for L in funcs)
    field.charge(len(functionals) * size * field.q ** inner_dim,
                 f"the dilated tables of {len(functionals)} functionals")
    rows = _dilated_rows(field, functionals, base, inner_dim)
    neg = field.neg_py
    parts = []
    for pair in chosen:
        a, b = divmod(pair, size)
        terms = [(c, [rows[L][a] for L in funcs]) for c, funcs in dQ.terms]
        terms += [(neg[c], [rows[L][b] for L in funcs]) for c, funcs in dQ.terms]
        counts = _form_counts(field, terms, (field.q ** inner_dim,) * m)
        parts.append(_counts_mean(field, counts, inner_size))
    vals = np.array(parts)
    mean = _fsum_arrays(vals.real, vals.imag) / pairs
    stderr = None
    if mode_used == "sampled":
        correction = (total - pairs) / (total - 1) if total > pairs else 0.0
        stderr = float(vals.real.std() / math.sqrt(pairs) * math.sqrt(correction))
    return RBiasResult(mean.real, abs(mean.imag), pairs, pairs * inner_size, mode_used, stderr)


# -- Turan-Kubilius ------------------------------------------------------------------


@dataclass
class TKResult:
    A: float
    lhs: float
    ratio: float
    n: int
    window: tuple


def tk_cost(q: int, n: int, W: int, H: int) -> int:
    """Index rows window_divisor_counts marks on G_n: the (q-1) q^(n-d-1)
    multiples p*h with h(0) != 0 of each window prime p of degree d < n,
    p != x.  The multiples of x and the index 0 are copied or set, not
    marked."""
    return sum((necklace_count(q, d) - (d == 1)) * (q - 1) * q ** (n - d - 1)
               for d in range(max(W + 1, 1), min(H, n)))


def window_divisor_counts(field: Field, n: int, W: int, H: int) -> np.ndarray:
    """#{p in window : p | g} for every g in G_n, the window being the monic
    irreducibles with W < deg p < H, as unsigned integers of the narrowest
    dtype that holds the number of window primes (`np.min_scalar_type`).

    The count of g does not depend on n, so the counts on G_m, m <= n, are
    the prefix [:q^m].  Every p divides g = 0, so counts[0] is the number
    of window primes.  G_n and the `tk_cost` rows are charged to the field
    before the irreducibles are sieved, by one `sieve_through(field,
    H - 1)`.  A window prime p != x of degree d < n divides g with g(0) != 0
    exactly when g = p*h with h(0) != 0: the engine maps those h of G_{n-d}
    alone, and each chunk is added by one `np.add.at`, which adds 1 per
    occurrence of an index (g divisible by two primes of one chunk is
    counted once per prime).  A multiple x*h, index q*h, has the primes
    p != x of h, so the counts of the multiples of x are copied from those
    of their cofactors a degree block at a time, in ascending order; x
    itself, when in the window (W <= 0), then adds 1 to each of them.
    """
    degrees = _tk_degrees(W, H)
    q = field.q
    size = q ** n
    field.charge(size, f"G_{n}")
    field.charge(tk_cost(q, n, W, H), f"the window's multiples on G_{n}")
    sieve_through(field, H - 1)
    total = sum(irreducible_count(field, d) for d in degrees)
    counts = np.zeros(size, dtype=np.min_scalar_type(total))
    one = counts.dtype.type(1)      # a 1-D index and a scalar of the dtype: add.at's fast path
    for d in degrees:
        if d >= n:                  # a prime of degree >= n divides only g = 0
            break
        primes = irreducible_indices(field, d)
        if d == 1:
            primes = primes[1:]     # x, the first prime of degree 1
        for _, _, multiples in times_fixed_chunks(field, primes, n - d, nonzero_constant=True):
            np.add.at(counts, multiples.ravel(), one)
    for k in range(1, n):
        counts[q ** k:q ** (k + 1):q] = counts[q ** (k - 1):q ** k]
    if degrees[0] == 1:
        counts[q::q] += one
    counts[0] = total
    return counts


def _tk_degrees(W: int, H: int) -> list:
    degrees = [d for d in range(W + 1, H) if d >= 1]
    if not degrees:
        raise ValueError(f"no irreducibles with {W} < degree < {H}")
    return degrees


def turan_kubilius(field: Field, n: int, W: int, H: int) -> TKResult:
    """Variance of the windowed distinct-prime-divisor count on G_n.

    A = sum over irreducibles with W < deg p < H of q^{-deg p};
    lhs = sum over G_n of |#{p in window : p | g} - A|^2; ratio = lhs/(A q^n).
    Every p divides g = 0, so the count at g = 0 is the number of primes in
    the window.
    """
    A = window_mass(field, W, H)
    return turan_kubilius_from_squares(
        field, squared_deviations(window_divisor_counts(field, n, W, H), A), n, A, W, H)


def window_mass(field: Field, W: int, H: int) -> float:
    """A = sum over the monic irreducibles with W < deg p < H of q^{-deg p},
    one correctly rounded fsum with a term per prime."""
    return math.fsum(field.q ** -d for d in _tk_degrees(W, H)
                     for _ in range(irreducible_count(field, d)))


def squared_deviations(counts: np.ndarray, A: float) -> np.ndarray:
    """float64 (count - A)^2 of every window count, built in place: on
    window_divisor_counts of G_N, the squares on every G_n, n <= N, are its
    prefix."""
    squares = counts.astype(np.float64)
    squares -= A
    squares *= squares
    return squares


def turan_kubilius_from_squares(field: Field, squares: np.ndarray, n: int, A: float,
                                W: int, H: int) -> TKResult:
    """turan_kubilius on G_n from the `squared_deviations` of its window
    counts (or of those of a larger G_N, read as the prefix) and the
    window's `window_mass` A: lhs is numpy's pairwise sum of the q^n
    squares."""
    size = field.q ** n
    lhs = float(np.sum(squares[:size]))
    return TKResult(A, lhs, lhs / (A * size), n, (W, H))


# -- pretentious distance --------------------------------------------------------------


def _field_of(*fs) -> Field:
    """The field of `fs[0]`; TypeError unless each of `fs` is a
    MultiplicativeFunction or a HayesCharacter, the two forms that carry one."""
    for f in fs:
        if not isinstance(f, (MultiplicativeFunction, HayesCharacter)):
            raise TypeError("expected a MultiplicativeFunction or a HayesCharacter, "
                            f"got {type(f).__name__}")
    return fs[0].field


def _at_primes(f, d: int) -> np.ndarray:
    """f at the monic irreducibles of degree d, index order, without a
    factorization round trip: f(p) for a MultiplicativeFunction is
    on_prime_power(p, 1) (`prime_values`), a HayesCharacter is read as an
    array."""
    if isinstance(f, MultiplicativeFunction):
        return prime_values(f, d)
    return f.values_at(irreducible_indices(f.field, d))


def distance_terms(f, g, d: int) -> list:
    """The summands of D(f, g; N) at the monic irreducibles p of degree d:
    q^{-d} max(1 - Re f(p) conj g(p), 0), in index order.  f and g are each
    a MultiplicativeFunction or a HayesCharacter."""
    field = _field_of(f, g)
    re, _ = _products(_at_primes(f, d), _at_primes(g, d), conjugate_b=True)
    return (float(field.q) ** -d * np.maximum(1.0 - re, 0.0)).tolist()


def distance_from_terms(terms) -> float:
    """sqrt of the correctly rounded sum of distance_terms, clamped at 0."""
    return math.sqrt(max(math.fsum(terms), 0.0))


def pretentious_distance(f, g, N: int, window_low: int = 0) -> float:
    """D(f, g; N): sqrt of sum over irreducibles with window_low <= deg <= N
    of q^{-deg p} (1 - Re f(p) conj g(p)), each summand clamped at >= 0.
    f and g are each a MultiplicativeFunction or a HayesCharacter."""
    sieve_through(_field_of(f, g), N)
    return distance_from_terms([t for d in range(max(window_low, 1), N + 1)
                                for t in distance_terms(f, g, d)])


@dataclass
class MinDistanceResult:
    M: float
    min_distance: float
    argmin: dict
    N: int
    grid_size: int
    candidates: int


def min_distance_over_hayes(f, N: int, modulus_degree_bound: int,
                            length_bound: int, theta_grid=64) -> MinDistanceResult:
    """1 + min over (chi, xi, theta) of D(f, chi xi e_theta; N).

    chi runs over all Dirichlet characters with deg(modulus) <= bound
    (modulus 1, i.e. no twist, included); xi over all characters of length
    <= length_bound; theta over a uniform grid (or an explicit list).  f is a
    MultiplicativeFunction or a HayesCharacter.  The sieve, the unit groups,
    the R_s and the |chi| * |xi| * |theta| candidates are charged to the
    field.
    """
    field = _field_of(f)
    thetas = ([j / theta_grid for j in range(theta_grid)]
              if isinstance(theta_grid, int) else list(theta_grid))
    if not thetas:
        raise ValueError("theta grid must contain at least one point")
    degrees = range(1, N + 1)
    sieve_through(field, N)
    primes = {d: irreducible_indices(field, d) for d in degrees}
    # q^{-d} f(p) per degree, rounded as Python's float * complex rounds it
    weighted = {d: _products(complex(float(field.q) ** -d), _at_primes(f, d))
                for d in degrees}
    # modulus 1 first: its one character is the trivial one
    chis = [chi for deg in range(modulus_degree_bound + 1)
            for modulus in monic_of_degree(field, deg) for chi in dirichlet_characters(modulus)]
    xis = short_interval_characters(field, length_bound)
    field.charge(len(chis) * len(xis) * len(thetas), "the (chi, xi, theta) candidates")
    weight_total = math.fsum(float(field.q) ** -d for d in degrees for _ in primes[d])
    chi_at = [{d: chi.values_at(primes[d]) for d in degrees} for chi in chis]
    xi_at = [{d: xi.values_at(primes[d]) for d in degrees} for xi in xis]
    best = None
    tried = 0
    for chi, chi_d in zip(chis, chi_at):
        for xi, xi_d in zip(xis, xi_at):
            # group the prime sums by degree so every theta costs O(N); a
            # degree's sum over the primes with (chi xi)(p) != 0 is added
            # left to right from 0j (a cumulative sum), as a scalar loop adds
            by_degree = {}
            for d in degrees:
                zr, zi = _products(chi_d[d], xi_d[d])
                live = (zr != 0) | (zi != 0)
                if live.any():
                    wr, wi = weighted[d]
                    tr, ti = _products(_complex(wr[live], wi[live]),
                                       _complex(zr[live], zi[live]), conjugate_b=True)
                    by_degree[d] = complex(np.cumsum(np.append(0.0, tr))[-1],
                                           np.cumsum(np.append(0.0, ti))[-1])
            for theta in thetas:
                s = 0.0
                for d, zsum in by_degree.items():
                    s += (zsum * cmath.exp(-2j * cmath.pi * theta * d)).real
                dist_sq = max(weight_total - s, 0.0)
                # pairs with chi(p) = 0 hit the clamp exactly at weight q^{-d}
                tried += 1
                dist = math.sqrt(dist_sq)
                if best is None or dist < best[0]:
                    best = (dist, chi, xi, theta)
    dist, chi, xi, theta = best
    argmin = {"dirichlet": chi.descriptor() if chi.modulus.degree >= 1 else None,
              "short": xi.descriptor(), "theta": theta}
    return MinDistanceResult(1.0 + dist, dist, argmin, N,
                             len(thetas), tried)


# -- Euler products and mean values -------------------------------------------------------


def halasz_product(f: MultiplicativeFunction, n: int,
                   tail_eps: float = 1e-15) -> complex:
    """P(f, n) = prod over irreducibles of degree <= n of the local factor
    (1 - q^{-deg p}) * sum_k f(p^k) q^{-k deg p}, tails cut below tail_eps.

    Degree-determined functions (constant one, moebius, liouville, pure
    degree twists) take the grouped path: one local factor per degree,
    raised to the irreducible count, accumulated in log space with the
    deviation from 1 computed cancellation-free.  Other functions read
    f(p^k), k = 1..top (the tail terms kept), at the irreducibles of each
    degree as one table (`_prime_power_values`) and multiply the local
    factors in the scalar order, prime by prime in index order.
    """
    field = f.field
    if f.degree_profile is not None:
        log_acc = 0j
        for d in range(1, n + 1):
            u = float(field.q) ** -d
            T = 0j
            uk = u
            k = 1
            # the factor sits inside a power N_q(d) ~ q^d/d, so the tail
            # must be cut relative to u, not absolutely
            while uk >= tail_eps * u:
                T += f.degree_profile(d, k) * uk
                uk *= u
                k += 1
            delta = T - u - u * T        # (1-u)(1+T) - 1 without cancellation
            factor = 1.0 + delta
            if abs(factor) < 1e-12:
                return 0j
            log_acc += irreducible_count(field, d) * cmath.log(factor)
        return cmath.exp(log_acc)
    acc = 1.0 + 0j
    for d in range(1, n + 1):
        u = float(field.q) ** -d
        powers, uk = [], u               # u^k of the tail terms kept
        while uk >= tail_eps * u:
            powers.append(uk)
            uk *= u
        values = _prime_power_values(f, d, len(powers)).tolist()    # [k - 1][prime]
        for i in range(irreducible_count(field, d)):
            local = 1.0 + 0j
            for by_k, uk in zip(values, powers):
                local += by_k[i] * uk
            acc *= (1.0 - u) * local
    return acc


def mean_value(f, n: int, domain: str = "monic") -> complex:
    """Exhaustive average of f, a MultiplicativeFunction or a HayesCharacter,
    over degree-n polynomials (monic or all): the index slice [q^n, 2 q^n)
    or [q^n, q^(n+1)) of f sampled on G_{n+1}.  A character H (bare or
    from_character(H)) is read on the slice alone, by `H.values_at`, and
    only the slice is charged to the field.  The sum is the fsum of the
    values, or an exact int64 sum when `_unit_integer_parts` reads them; a
    negative n is a ValueError, raised before the charge."""
    field = _field_of(f)
    if domain not in ("monic", "all"):
        raise ValueError("domain must be 'monic' or 'all'")
    lo = _gn_size(field, n)
    hi = (2 if domain == "monic" else field.q) * lo
    if isinstance(f, MultiplicativeFunction) and f._character is not None \
            and f._character[0] is None:
        f = f._character[1]             # from_character(H): H itself
    if isinstance(f, HayesCharacter):
        field.charge(hi - lo, f"the degree-{n} slice")
        values = f.values_at(np.arange(lo, hi, dtype=np.int64))
    else:
        values = sample_on_gn(field, n + 1, f)[lo:hi]
    exact = _unit_integer_parts(values)
    if exact is None:
        return _fsum_arrays(values.real, values.imag) / len(values)
    return complex(*(float(x.sum()) for x in exact)) / len(values)


# -- exact linear-phase sums ------------------------------------------------------


def linear_phase_sum(field: Field, beta: LaurentTruncation, n: int) -> complex:
    """Brute-force sum over G_n of alpha_1((beta g)_{-1}).

    Every g contributes through its exact trace exponent; the only floats
    are the final counts-times-roots sum.  Equals q^n when beta vanishes
    through depth n and 0 otherwise (the section-6.2 dichotomy), which the
    acceptance suite checks against this computation.
    """
    field.charge(field.q ** n, f"G_{n}")
    counts = _form_counts(field, [(1, [linear_form_table(beta, n)])], (field.q ** n,))
    return _counts_mean(field, counts, 1)
