"""Adaptive BDM mixed finite elements with residual-minimization postprocessing.

`import bdmadapt` loads the method only.  The batch driver (`experiments`,
which brings in `logging`) and the trace-system checks (`fortin`) load the
first time one of their names below is read (PEP 562).
"""

import importlib

from .adaptivity import AdaptiveRun, dorfler_mark, run_adaptive
from .basis import QuadRule, RefScalarBasis, make_scalar_basis, quad_rule
from .bdm import BdmSpace, interpolate_boundary_term
from .estimators import (EstimatorReport, ErrorBlock, error_norms,
                         eta_improved, full_report, oscillation_bound)
from .mesh import DomainSpec, TriMesh, build_initial_mesh, load_mesh, save_mesh
from .postprocess import PostprocResult, postprocess_resmin
from .problems import preset
from .solver import (MixedSolution, MixedSystem, ProblemSpec,
                     SingularSystemError, assemble, solve)

__version__ = "0.1.0"

_LAZY = {
    "ExperimentConfig": "experiments",
    "fit_slope": "experiments",
    "run_experiment": "experiments",
    "BiorthogonalSet": "fortin",
    "build_biorthogonal": "fortin",
    "fortin_apply": "fortin",
    "fortin_report": "fortin",
    "scaled_trace_inequality_check": "fortin",
}


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted([*globals(), *_LAZY])
