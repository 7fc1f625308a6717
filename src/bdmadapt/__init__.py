"""Adaptive BDM mixed finite elements with residual-minimization postprocessing."""

from .adaptivity import AdaptiveRun, dorfler_mark, run_adaptive
from .basis import QuadRule, RefScalarBasis, make_scalar_basis, quad_rule
from .bdm import BdmSpace, interpolate_boundary_term
from .estimators import (EstimatorReport, ErrorBlock, error_norms,
                         eta_improved, full_report, oscillation_bound)
from .experiments import ExperimentConfig, fit_slope, run_experiment
from .fortin import (BiorthogonalSet, build_biorthogonal, fortin_apply,
                     fortin_report, scaled_trace_inequality_check)
from .mesh import DomainSpec, TriMesh, build_initial_mesh, load_mesh, save_mesh
from .postprocess import PostprocResult, postprocess_resmin
from .problems import preset
from .solver import (MixedSolution, MixedSystem, ProblemSpec,
                     SingularSystemError, assemble, solve)

__version__ = "0.1.0"
