"""Dörfler (bulk) marking and the solve/postprocess/estimate/refine loop."""

from dataclasses import dataclass, field

import numpy as np

from .artifacts import write_json
from .estimators import EstimatorReport, full_report
from .mesh import TriMesh, build_initial_mesh
from .postprocess import postprocess_resmin
from .solver import ProblemSpec, SingularSystemError, assemble, solve


def dorfler_mark(eta_K, theta: float) -> np.ndarray:
    """Minimal set M (greedy, squared indicators) with sum_{M} eta_K^2 >=
    theta * sum eta_K^2; ties broken by element id; empty if all zero."""
    eta_K = np.asarray(eta_K, dtype=float)
    if eta_K.ndim != 1:
        raise ValueError("eta_K must be one-dimensional")
    if not np.all(np.isfinite(eta_K)):
        raise ValueError("indicators must be finite")
    if np.any(eta_K < 0):
        raise ValueError("indicators must be nonnegative")
    if not 0.0 < theta < 1.0:
        raise ValueError("the marking fraction must lie in (0, 1)")
    total = float(np.sum(eta_K ** 2))
    if total == 0.0:
        return np.array([], dtype=np.int64)
    order = np.argsort(-eta_K, kind="stable")
    csum = np.cumsum(eta_K[order] ** 2)
    target = theta * total
    count = int(np.searchsorted(csum, target * (1.0 - 1e-12))) + 1
    count = min(count, len(eta_K))
    return np.sort(order[:count])


@dataclass
class IterationRecord:
    """State of one loop iteration.

    report, which holds the solved mesh, is set on the newest record of a
    run; on the earlier ones only when run_adaptive was called with
    keep_meshes=True.
    """

    iteration: int
    n_elements: int
    n_flux_dofs: int
    n_scalar_dofs: int
    eta: float
    eta_tilde: float
    delta: float | None = None
    effectivity: float | None = None
    errors: dict | None = None
    marked: np.ndarray | None = None
    report: EstimatorReport | None = None

    def to_dict(self) -> dict:
        out = {
            "iteration": self.iteration,
            "n_elements": self.n_elements,
            "n_flux_dofs": self.n_flux_dofs,
            "n_scalar_dofs": self.n_scalar_dofs,
            "eta": self.eta,
            "eta_tilde": self.eta_tilde,
            "delta": self.delta,
            "effectivity": self.effectivity,
            "n_marked": None if self.marked is None else int(len(self.marked)),
        }
        if self.errors is not None:
            out["errors"] = self.errors
        return out


@dataclass
class AdaptiveRun:
    """Append-only record of an adaptive (or uniform) refinement run.

    Without keep_meshes only the last record holds its report (and with it
    its mesh), and after a solver failure none does: the failed mesh has no
    record, and the last record's report was dropped before the failed mesh
    was assembled.
    """

    problem_name: str
    p: int
    theta: float
    marker: str
    uniform: bool
    records: list = field(default_factory=list)
    abort_reason: str | None = None

    @property
    def aborted(self) -> bool:
        return self.abort_reason is not None

    @property
    def n_iterations(self) -> int:
        return len(self.records)

    def element_counts(self):
        return [r.n_elements for r in self.records]

    def to_dict(self) -> dict:
        return {
            "problem": self.problem_name, "p": self.p, "theta": self.theta,
            "marker": self.marker, "uniform": self.uniform,
            "aborted": self.aborted, "abort_reason": self.abort_reason,
            "iterations": [r.to_dict() for r in self.records],
        }

    def to_json(self, path: str):
        write_json(path, self.to_dict())


def _refine(mesh: TriMesh, marked, uniform: bool) -> TriMesh:
    """One refinement step of a run: bisect the marked elements, and in a
    uniform run sweep once more, which halves h and keeps one congruence
    family."""
    refined = mesh.refine(marked)
    if uniform:
        refined = refined.refine(np.arange(refined.n_triangles))
    return refined


def run_adaptive(problem: ProblemSpec, p: int, theta: float = 0.5,
                 iterations: int = 10, marker: str = "eta",
                 uniform: bool = False, initial_elements: int | None = None,
                 with_errors: bool = True, with_theta: bool = True,
                 eta_tol: float = 0.0, max_elements: int | None = None,
                 keep_meshes: bool = True) -> AdaptiveRun:
    """Execute the refinement loop and record one entry per solved mesh.

    Each stage takes the one result before it: solve -> postprocess_resmin
    -> full_report.  marker selects the indicator driving the marking
    ("eta" improved or "eta_tilde" built-in); uniform=True bisects every
    element instead.  with_theta decides whether the records carry the
    saturation delta.  The newest record holds its report, and with it its
    mesh; without keep_meshes the report is dropped from it right before
    the next mesh is assembled, so that no solve runs while an earlier mesh
    is held, and the last record keeps it when the loop ends.
    keep_meshes=True keeps it on every record.  The loop stops early when
    the estimator reaches eta_tol, when max_elements would be exceeded, or
    when the solver fails (partial run returned with the abort reason).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if marker not in ("eta", "eta_tilde"):
        raise ValueError("marker must be 'eta' or 'eta_tilde'")
    if not 0.0 < theta < 1.0:
        raise ValueError(f"theta must lie in (0, 1), got {theta}")
    mesh = build_initial_mesh(problem.domain, initial_elements)
    run = AdaptiveRun(problem_name=problem.name, p=p, theta=theta,
                      marker=marker, uniform=uniform)
    for it in range(iterations):
        if run.records and not keep_meshes:
            run.records[-1].report = None
        try:
            solution = solve(assemble(mesh, p, problem))
        except SingularSystemError as exc:
            run.abort_reason = str(exc)
            break
        post = postprocess_resmin(solution)
        report = full_report(post, with_errors=with_errors)
        rec = IterationRecord(
            iteration=it, n_elements=mesh.n_triangles,
            n_flux_dofs=solution.flux_space.n_dofs,
            n_scalar_dofs=solution.scalar.size,
            eta=report.eta, eta_tilde=report.eta_tilde,
            delta=report.delta if with_theta else None,
            effectivity=report.effectivity,
            errors=None if report.errors is None else report.errors.to_dict(),
            report=report)
        run.records.append(rec)
        if rec.eta <= eta_tol or it == iterations - 1:
            break
        # the next global solve sets the peak memory: of this mesh's state
        # only the record's report stays, until the next assembly
        del solution, post
        if uniform:
            marked = np.arange(mesh.n_triangles)
        else:
            marked = dorfler_mark(report.eta_K if marker == "eta"
                                  else report.eta_tilde_K, theta)
        del report
        rec.marked = marked
        if len(marked) == 0:
            break
        refined = _refine(mesh, marked, uniform)
        if max_elements is not None and refined.n_triangles > max_elements:
            run.abort_reason = "max_elements reached"
            break
        mesh = refined
    return run
