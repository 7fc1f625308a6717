"""Adaptive BDM mixed finite elements with residual-minimization postprocessing."""

from .adaptivity import AdaptiveRun, dorfler_mark, run_adaptive
from .basis import (QuadRule, RefScalarBasis, make_scalar_basis,
                    make_zero_mean_basis, project_l2, quad_rule)
from .bdm import (BdmSpace, DgSpace, advection_matrix, bdm_mass_matrix,
                  divergence_matrix, interpolate_boundary_term)
from .estimators import (EstimatorReport, ErrorBlock, dual_norm_star,
                         error_norms, eta_improved, full_report,
                         oscillation_bound)
from .experiments import ExperimentConfig, fit_slope, run_experiment
from .fortin import (BiorthogonalSet, build_biorthogonal, fortin_apply,
                     fortin_report, scaled_trace_inequality_check)
from .mesh import (DomainSpec, TriMesh, build_initial_mesh, jump_trace_pairs,
                   load_mesh, refine, save_mesh)
from .postprocess import PostprocResult, postprocess_resmin, stenberg_oracle
from .problems import preset
from .solver import (MixedSolution, MixedSystem, ProblemSpec,
                     SingularSystemError, assemble, load_solution,
                     save_solution, solve, solve_problem)

__version__ = "0.1.0"
