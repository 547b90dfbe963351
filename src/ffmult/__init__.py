"""ffmult: multiplicative functions, characters and correlation statistics
on the polynomial ring F_q[x], all at desk scale and exactly where exactness
is possible.

Layers, bottom to top:

* fields / polys / laurent -- exact F_q and F_q[x] arithmetic, enumeration,
  irreducibles and factorization, Laurent-tail linear forms.
* gn -- index-space kernels on G_n (digits, degrees, top-coefficient
  codes, and "G_m times a fixed polynomial", "reduction mod a fixed g" and
  G_n's addition x + c*y as F_p-linear index maps of one engine) that
  every array path reads.
* groups / characters -- a generic finite-abelian character engine and the
  three families built on it (Dirichlet, short-interval, degree twists),
  combined into Hayes products.
* multiplicative -- the multiplicative-function framework (Moebius,
  Liouville, constant one, character-derived, seeded random, twists) and
  its prime-power sieve onto G_n.
* phases -- polynomial phases in structured form, discrete derivatives,
  multilinear forms, bias/analytic rank, rank bookkeeping, projective
  zero counts.
* analytics -- correlations, Gowers norms, the Katai and Turan-Kubilius
  statistics, pretentious distance and its Hayes minimization, Euler
  products and mean values.
* experiments / cli -- config-driven reproducible experiment tables.
"""

from .errors import BudgetError, ConfigError
from .fields import Field, FieldElement, build_field
from .polys import (NEG_INF, Poly, factor, g_n, irreducible_count,
                    irreducibles_of_degree, is_irreducible, monic_of_degree, p_k,
                    poly_gcd)
from .laurent import LaurentTruncation, linear_form, linear_form_table
from .groups import AbelianGroupStructure, decompose_abelian_group
from .characters import (DegreeTwist, DirichletCharacter, HayesCharacter,
                         ShortIntervalCharacter, UnitCharacter, dirichlet_character,
                         dirichlet_characters, r_s_group,
                         short_interval_character, short_interval_characters,
                         unit_group)
from .multiplicative import (MultiplicativeFunction, builtin, from_character,
                             function_on_gn, random_on_irreducibles, twist)
from .phases import (BiasResult, MultilinearForm, PolynomialPhase, RankBounds,
                     ZeroCountResult, delta, derivative_form, diagonal,
                     eval_phase, iterated_difference, projective_common_zeros,
                     rank_upper_bounds)
from .analytics import (ApResult, MinDistanceResult, RBiasResult, TKResult,
                        ap_correlation, correlate, gowers_norm, halasz_product,
                        katai_statistic, linear_phase_sum, mean_value,
                        min_distance_over_hayes, phase_character_array,
                        pretentious_distance, r_bias_statistic, sample_on_gn,
                        turan_kubilius, u2_fourier)
from .experiments import (ExperimentConfig, ExperimentResult, list_builtins,
                          run_experiment, validate_config)

__version__ = "0.1.0"
