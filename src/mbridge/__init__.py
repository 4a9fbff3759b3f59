"""Entropic martingale transport: discrete solver, Gaussian closed forms,
pinned-martingale simulation, observation-time filtering, and the 3x3
comparison family."""

__version__ = "0.1.0"

from .dynamics import (BijectionReport, FiberModel, LawCheckReport,
                       PathEnsemble, backward_posterior, fiber_coefficients,
                       law_checks, phi_bijection_check, randomize_over_mu,
                       simulate_follmer_martingale)
from .errors import (DegenerateFiber, DualDivergence, Infeasible,
                     InfeasibleParameters, MbridgeError, NotConverged,
                     NotInConvexOrder, NotIrreducible, StructuralError,
                     TerminalAmbiguity)
from .filtering import (RestartReport, SigmaInvarianceReport, WonhamReport,
                        info_time_change, inverse_info_time,
                        posterior_estimator, restart_posterior,
                        sigma_invariance_test, simulate_observations,
                        wonham_sde_crosscheck)
from .gaussian import (BassComparison, GaussianMsb, bass_comparison_gaussian,
                       follmer_volatility_gaussian,
                       gaussian_energy_closed_form, gaussian_msb_closed_form,
                       weighted_energy_quadrature)
from .measures import (Coupling, DiscreteMeasure, GaussianSpec,
                       barycenter_and_moments, check_convex_order,
                       gaussian_reference_identity_check, load_measure,
                       martingale_residual, mcov_discrete, measure_from_json,
                       measure_to_json, merge_close_atoms, primal_value,
                       product_coupling, relative_entropy, save_measure)
from .solver import (PotentialTriple, SolveReport, SolverConfig,
                     classical_sinkhorn_sp, dual_value, extract_base_measure,
                     gauge_normalize, gibbs_coupling, inner_dual_solve,
                     mcov_bounds, schroedinger_system_residuals,
                     sinkhorn_msb, vp_value)
from .stats import ks_distance, norm_cdf, norm_pdf, norm_ppf
from .threepoint import (ThreePointInstance, ThreePointSolution, bass_minimize,
                         bass_system_residual, entropy_minimize,
                         entropy_system_residual, parametrize_coupling,
                         w2_to_standard_gaussian)

__all__ = [
    "BijectionReport", "FiberModel", "LawCheckReport", "PathEnsemble",
    "backward_posterior", "fiber_coefficients", "law_checks",
    "phi_bijection_check", "randomize_over_mu",
    "simulate_follmer_martingale", "DegenerateFiber", "DualDivergence",
    "Infeasible", "InfeasibleParameters", "MbridgeError", "NotConverged",
    "NotInConvexOrder", "NotIrreducible", "StructuralError",
    "TerminalAmbiguity", "RestartReport", "SigmaInvarianceReport",
    "WonhamReport", "info_time_change",
    "inverse_info_time", "posterior_estimator", "restart_posterior",
    "sigma_invariance_test", "simulate_observations", "wonham_sde_crosscheck",
    "BassComparison", "GaussianMsb", "bass_comparison_gaussian",
    "follmer_volatility_gaussian", "gaussian_energy_closed_form",
    "gaussian_msb_closed_form", "weighted_energy_quadrature", "Coupling",
    "DiscreteMeasure", "GaussianSpec", "barycenter_and_moments",
    "check_convex_order", "gaussian_reference_identity_check", "load_measure",
    "martingale_residual", "mcov_discrete", "measure_from_json",
    "measure_to_json", "merge_close_atoms", "product_coupling",
    "relative_entropy", "save_measure", "PotentialTriple", "SolveReport",
    "SolverConfig", "classical_sinkhorn_sp", "dual_value",
    "extract_base_measure", "gauge_normalize", "gibbs_coupling",
    "inner_dual_solve", "mcov_bounds", "primal_value",
    "schroedinger_system_residuals", "sinkhorn_msb", "vp_value", "ks_distance", "norm_cdf", "norm_pdf",
    "norm_ppf", "ThreePointInstance", "ThreePointSolution", "bass_minimize",
    "bass_system_residual", "entropy_minimize", "entropy_system_residual",
    "parametrize_coupling", "w2_to_standard_gaussian",
]
