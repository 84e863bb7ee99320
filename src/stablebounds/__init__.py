"""Verification workbench for moment and deviation bounds of uniformly
stable learning algorithms: closed-form bound evaluators, exact moment
oracles over Rademacher signs, the adversarial chaos family, the dyadic
telescoping decomposition, and a simulated-learner lab."""

from .bounds import (BoundInputs, BoundValue, CappedMomentBound,
                     GENERALIZATION_KINDS, capped_moment_bound,
                     classical_moment_bound, dyadic_sum_moment_bound,
                     fit_tail_coefficients, generalization_bound,
                     moments_from_tail, second_moment_bound,
                     tail_from_moments, variance_bound)
from .chaos import (ChaosParams, TailCertificate, chaos_g, chaos_lp,
                    chaos_sum, lower_ratio, paley_zygmund_certificate,
                    verify_chaos_conditions)
from .lab import (Dataset, Example, FiniteDistribution, LearnerSpec,
                  bernoulli_labels, clipped_mean_learner, constant_learner,
                  correlation_check, estimate_gamma, g_i_exact, g_values, gap,
                  gap_loo, gap_quantiles, labelled_pair, memorizer_learner,
                  risk, sandwich_check, sandwich_sweep, shrunk_mean_learner)
from .oracle import (MomentSpec, MonteCarloNorm, SignFunction, collapse_lp,
                     empirical_tail, enumerate_lp, hitczenko_functional,
                     latala_allones_estimate, mc_lp)
from .partition import (PartitionTree, block_of, build_partition,
                        telescope_term_chaos, telescope_term_generic,
                        verify_level_bounds, verify_telescoping)

__version__ = "0.1.0"
