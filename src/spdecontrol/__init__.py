"""Spectral simulation and Pontryagin-type optimality diagnostics for
controlled dissipative reaction-diffusion equations with additive noise."""

__version__ = "0.1.0"

from .spectral import (DomainKind, SpectralDomain, make_domain, eigenpairs,
                       semigroup_apply, ultracontractivity_witness,
                       weyl_count, regularity_threshold)
from .nonlinearity import (NemytskiiDrift, ControlSpace, cubic_drift, linear_drift,
                           bistable_drift, drift_from_config)
from .noise import (NoiseModel, PathRecord, sample_convolution, trace_summand,
                    series_condition_v, supnorm_moment_study,
                    sample_singular_process, factorization_reconstruct)
from .forward import (ControlProcess, EnsembleStates,
                      constant_control, simulate_ensemble,
                      trajectory_to_csv, trajectory_to_binary, read_binary_trajectory)
from .variation import SpikeConfig, spike_order_study, cost_expansion_check
from .adjoint import (AdjointSolution, PathwiseAdjoint, RegressionSpec,
                      solve_adjoint_regression, duality_residual, weighted_norm_report)
from .control import (Measure, CostSpec, ControlProblem, quadratic_cost,
                      catalog_problem, check_maximum_principle, optimize_control,
                      lq_optimal_control, lq_adjoint_oracle)
