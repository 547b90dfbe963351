#!/usr/bin/env python3
"""Decay exhibits: correlations of a random multiplicative function.

A seeded random +-1 assignment on irreducibles, extended completely
multiplicatively, is the generic aperiodic candidate.  Its correlation with
a quadratic exponential phase shrinks as the group grows, and the Katai
double sum over irreducible pairs certifies orthogonality pointwise:
for a linear-phase f whose tail hits every off-diagonal difference, the
statistic collapses to the diagonal share 1/|P_k|.

These are trend exhibits at desk scale, not claimed constants.
"""

import random

from ffmult import (LaurentTruncation, PolynomialPhase, build_field, correlate,
                    katai_statistic, linear_form, phase_character_array,
                    random_on_irreducibles)

field = build_field(2, 1)

print("Correlation of a random +-1 multiplicative function with a quadratic phase")
nu = random_on_irreducibles(field, 4)
rng = random.Random(10)
L1 = LaurentTruncation.random(field, 16, rng)
L2 = LaurentTruncation.random(field, 16, rng)
print("  n : |E nu(g) alpha(L1(g) L2(g))|")
for n in range(6, 15):
    P = PolynomialPhase(field, n, ((1, (L1, L2)),))
    val = abs(correlate(field, nu, phase_character_array(P), n))
    print(f"  {n:2d}: {val:.6f}  " + "#" * int(val * 120))

print("\nKatai statistic at n = 14, k = 3 (pair-normalized)")
beta = LaurentTruncation.random(field, 20, random.Random(0))


def linear_phase(g):
    return complex(field.roots[field.trace(linear_form(beta, g))])


print("  constant function:      ",
      round(katai_statistic(field, lambda g: 1.0, 14, 3, per_pair=True), 4))
print("  linear-phase character: ",
      round(katai_statistic(field, linear_phase, 14, 3, per_pair=True), 4),
      " (diagonal share 1/|P_3| = 0.2)")
