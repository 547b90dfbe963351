#!/usr/bin/env python3
"""Bias of multilinear forms, analytic rank, derivative identities, zero counts.

The exhaustive bias of a multilinear form is the share of prefixes (all
slots but the last) at which the form, linear in its last slot, vanishes
on it: an exact count over the slices, rounded once.  It is nonnegative
and bounded below by q^(-partition rank).  Direct sums of r independent
rank-one blocks meet the bound with equality, so the analytic rank reads
off r exactly.
"""

import math
import random

from ffmult import (LaurentTruncation, MultilinearForm, PolynomialPhase,
                    build_field, derivative_form, diagonal,
                    projective_common_zeros, rank_upper_bounds)

F2 = build_field(2, 1)
F3 = build_field(3, 1)
F5 = build_field(5, 1)

print("Direct sums of rank-one bilinear blocks on G_4 x G_4")
for F in (F2, F3):
    coords = [LaurentTruncation.coordinate(F, j, 4) for j in range(4)]
    for r in (1, 2, 3):
        Q = MultilinearForm(F, (4, 4), [(1, (coords[i], coords[i]))
                                        for i in range(r)], block_count=r)
        res = Q.bias()
        print(f"  q={F.q} r={r}: bias = {res.bias:.6f} = q^-{r}?"
              f" {res.bias == F.q ** -r}   analytic rank ="
              f" {res.analytic_rank:.3f}")

print("\nRandom partition-rank-2 block forms stay above q^-2")
rng = random.Random(5)
for _ in range(4):
    blocks = []
    for _ in range(2):
        blocks.append(((0,),
                       [(1, (LaurentTruncation.random(F3, 3, rng),))],
                       [(rng.randrange(1, 3),
                         (LaurentTruncation.random(F3, 3, rng),
                          LaurentTruncation.random(F3, 3, rng)))]))
    Q = MultilinearForm.from_blocks(F3, (3, 3, 3), blocks)
    res = Q.bias()
    print(f"  bias = {res.bias:.6f} >= {3 ** -2:.6f}"
          f"   bookkeeping: {rank_upper_bounds(Q)}")

print("\nDerivative identities over F_5 (m = 2)")
L1 = LaurentTruncation.random(F5, 3, rng)
L2 = LaurentTruncation.random(F5, 3, rng)
P = PolynomialPhase(F5, 3, ((2, (L1, L2)),))
Q = derivative_form(P, 2)
print("  diagonal(d^2 P) equals 2! * P:",
      diagonal(Q).equal_as_functions(P.scalar_mul(math.factorial(2) % 5)))
print("  recovering P by dividing out 2!:",
      diagonal(Q, divide_by_factorial=True).equal_as_functions(P))
print("  bookkeeping for d^2 P:", rank_upper_bounds(Q))

print("\nProjective common zeros vs the counting bound")
e = [LaurentTruncation.coordinate(F2, j, 3) for j in range(3)]
single = projective_common_zeros([PolynomialPhase.from_linear(e[0], 3)], 3)
print(f"  one linear form on F_2^3: count {single.count},"
      f" bound {single.bound:.3f}, passes {single.passes}")
pair = projective_common_zeros(
    [PolynomialPhase.from_linear(LaurentTruncation.coordinate(F3, 0, 3), 3),
     PolynomialPhase.from_linear(LaurentTruncation.coordinate(F3, 1, 3), 3)], 3)
print(f"  two coordinate forms on F_3^3: count {pair.count},"
      f" bound {pair.bound:.3f}, passes {pair.passes}")
