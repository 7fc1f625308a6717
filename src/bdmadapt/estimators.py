"""Mesh-dependent norms, a posteriori estimators, and exact-error reports.

The built-in indicator is eta_tilde_K = ||grad eps_K||_K from the residual
representative.  The improved indicator adds the flux mismatch and scaled
traces of the postprocessed scalar:

    eta_K^2 = eta_tilde_K^2 + ||q_h + grad nu_h||_K^2
              + 1/2 sum_{interior F of K} h_F^{-1} ||[nu_h]||_F^2
              + sum_{boundary F of K} h_F^{-1} ||u_D - nu_h||_F^2.

Exact-error norms use a high-order rule, subdivided where the problem asks
for it: on elements and edges touching its singular point, and on elements
with a vertex in its quadrature region.  One pass over the element
quadrature points gathers every element-interior error, the saturation
numerator ||grad(u - theta_h)||_K included; the scaled traces of nu_h are
shared with the indicator through PostprocResult.nu_traces.  The edge terms
(the normal-flux trace error and the oscillation bound) are taken once per
global edge: q . n_e is sampled in the stored edge direction, and q_h . n_e =
sum_m c_(e,m) (2m+1) L_m(t) / |e| comes from the global edge moments c_(e,m)
of q_h.  The element-local dual norm ||r||_*K on the mean-free degree-(p+2)
space is ||G b|| with G = L^{-1} the inverse Cholesky factor of the element's
class stiffness that the postprocessing already holds, and b the load of r.
"""

import json
from dataclasses import dataclass

import numpy as np

from .basis import make_scalar_basis, quad_rule
from .bdm import shifted_legendre
from .fields import (ElementClasses, coeff_contract, edge_points,
                     field_values, mapped_points, scalar_tables,
                     subdivided_edge_rule, subdivided_rule)
from .mesh import TriMesh
from .postprocess import PostprocResult, class_factors
from .solver import MixedSolution, ProblemSpec


# -- quadrature groups for exact-solution integrals ---------------------------


def _element_groups(mesh: TriMesh, problem: ProblemSpec, exactness: int):
    """[(element ids, ref points, ref weights)] with local refinement flags."""
    base = quad_rule(exactness, "triangle")
    nt = mesh.n_triangles
    flagged = np.zeros(nt, dtype=bool)
    groups = []
    if problem.quad_singular_point is not None:
        xs = np.asarray(problem.quad_singular_point, dtype=float)
        touch = (np.linalg.norm(mesh.tri_coords - xs, axis=2) < 1e-12).any(axis=1)
        if touch.any():
            pts, w = subdivided_rule(exactness, 2)
            groups.append((np.nonzero(touch)[0], pts, w))
            flagged |= touch
    if problem.quad_region is not None:
        inside = field_values(problem.quad_region, mesh.vertices,
                              "quad_region") != 0
        near = inside[mesh.triangles].any(axis=1) & ~flagged
        if near.any():
            pts, w = subdivided_rule(exactness, 1)
            groups.append((np.nonzero(near)[0], pts, w))
            flagged |= near
    rest = np.nonzero(~flagged)[0]
    if rest.size:
        groups.insert(0, (rest, base.points, base.weights))
    return groups


def _edge_flux_sq(problem: ProblemSpec, mesh: TriMesh, n_points: int,
                  residual):
    """Per element, sum over its edges e of |e| int_0^1 r^2 dt.

    Each global edge is visited once, with the n-point Gauss rule (subdivided
    twice on edges touching quad_singular_point).  residual(edge_ids, t, w,
    g) returns r (n, nq) from g = q . n_e, the exact normal flux at the
    points in the stored edge direction.
    """
    singular = np.zeros(mesh.n_edges, dtype=bool)
    if problem.quad_singular_point is not None:
        xs = np.asarray(problem.quad_singular_point, dtype=float)
        at = np.linalg.norm(mesh.vertices - xs, axis=1) < 1e-12
        singular = at[mesh.edges].any(axis=1)
    sq = np.zeros(mesh.n_edges)
    for flagged, levels in ((False, 0), (True, 2)):
        ids = np.nonzero(singular == flagged)[0]
        if ids.size == 0:
            continue
        t, w = subdivided_edge_rule(n_points, levels)
        qv = field_values(problem.exact_q, edge_points(mesh, ids, t),
                          "exact_q", vector=True)
        g = (qv @ mesh.edge_normals[ids, :, None])[..., 0]
        sq[ids] = (residual(ids, t, w, g) ** 2 @ w) * mesh.edge_lengths[ids]
    return sq[mesh.elem_edges].sum(axis=1)


def _norm_sq(v):
    """|v|^2 of 2-vectors v (..., 2); np.sum over a length-2 last axis is
    several times slower."""
    return v[..., 0] ** 2 + v[..., 1] ** 2


# -- discrete dual norm -------------------------------------------------------


def _grad_load(r, Binv, J, w, D) -> np.ndarray:
    """Loads (r, grad v_i)_K (n, s) from values r (n, nq, 2) at a rule with
    weights w, reference gradients D (nq, s, 2), Binv (n, 2, 2) and J (n,)."""
    # r . grad v = (r B^{-T}) . Dhat
    pulled = np.matmul(r, np.swapaxes(Binv, 1, 2)) * (w * J[:, None])[..., None]
    return pulled.reshape(len(J), -1) @ np.swapaxes(D, 1, 2).reshape(
        -1, D.shape[1])


def dual_norm_star(mesh: TriMesh, p: int, element: int, r) -> float:
    """sup over mean-free degree-(p+2) v of (r, grad v)_K / ||grad v||_K.

    r maps (n, 2) physical points to (n, 2) vector values.  The element is
    evaluated as a one-element mesh with the kernels of the adaptive loop.
    """
    if not 0 <= element < mesh.n_triangles:
        raise IndexError(f"element {element} out of range")
    one = TriMesh(mesh.tri_coords[element], [[0, 1, 2]])
    rule, _, D = scalar_tables(p + 2, 2 * p + 8)
    vals = field_values(r, mapped_points(one, rule.points), "r", vector=True)
    b = _grad_load(vals, one.inv_jacobians, one.det_jacobians,
                   rule.weights, D[:, 1:])
    G = class_factors(one, p, ElementClasses(one))
    return float(np.linalg.norm(G[0] @ b[0]))


# -- estimators ----------------------------------------------------------------


@dataclass
class EstimatorReport:
    """Per-element indicator decomposition plus optional exact-error block."""

    mesh: TriMesh
    p: int
    eta_K: np.ndarray
    eta_tilde_K: np.ndarray
    mismatch_K: np.ndarray
    jump_K: np.ndarray
    boundary_K: np.ndarray
    errors: "ErrorBlock | None" = None
    osc_K: np.ndarray | None = None
    delta: float | None = None
    delta_degenerate: bool = False
    effectivity: float | None = None

    @property
    def eta(self) -> float:
        return float(np.sqrt(np.sum(self.eta_K ** 2)))

    @property
    def eta_tilde(self) -> float:
        return float(np.sqrt(np.sum(self.eta_tilde_K ** 2)))

    @property
    def has_exact(self) -> bool:
        return self.errors is not None

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "n_elements": self.mesh.n_triangles,
            "eta": self.eta,
            "eta_tilde": self.eta_tilde,
            "eta_K": self.eta_K.tolist(),
            "eta_tilde_K": self.eta_tilde_K.tolist(),
            "mismatch_K": self.mismatch_K.tolist(),
            "jump_K": self.jump_K.tolist(),
            "boundary_K": self.boundary_K.tolist(),
            "has_exact": self.has_exact,
            "delta": self.delta,
            "delta_degenerate": self.delta_degenerate,
            "effectivity": self.effectivity,
        }
        if self.errors is not None:
            out["errors"] = self.errors.to_dict()
        if self.osc_K is not None:
            out["osc"] = float(np.sqrt(np.sum(self.osc_K ** 2)))
            out["osc_K"] = self.osc_K.tolist()
        return out

    def save(self, path: str):
        # json.dump streams through the pure-Python encoder; json.dumps
        # runs the C one and gives the same text
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_dict()))


def eta_improved(post: PostprocResult, solution: MixedSolution,
                 u_D) -> EstimatorReport:
    """Improved indicator: residual representative + mismatch + scaled traces."""
    mesh, p = post.mesh, post.p
    rule, _, D = scalar_tables(p + 1, 2 * (p + 2))
    grad_nu = np.matmul(coeff_contract(post.nu, D), mesh.inv_jacobians)
    qh = solution.flux_space.flux_values(solution.flux, rule.points)
    mismatch_sq = (_norm_sq(qh + grad_nu) @ rule.weights) * mesh.det_jacobians
    jump_K, bnd_K = post.nu_traces(u_D, p + 5)
    eta_K = np.sqrt(post.eta_tilde_K ** 2 + mismatch_sq + jump_K + bnd_K)
    return EstimatorReport(
        mesh=mesh, p=p, eta_K=eta_K, eta_tilde_K=post.eta_tilde_K.copy(),
        mismatch_K=np.sqrt(np.maximum(mismatch_sq, 0.0)),
        jump_K=jump_K, boundary_K=bnd_K)


# -- exact-error norms ---------------------------------------------------------


@dataclass
class ErrorBlock:
    """Per-element exact-error quantities and their global reductions."""

    grad_nu_K: np.ndarray       # ||grad(u - nu_h)||_K
    grad_theta_K: np.ndarray    # ||grad(u - theta_h)||_K
    one_h_K: np.ndarray         # |u - nu_h|_{1,K,h}
    q_L2_K: np.ndarray          # ||q - q_h||_K
    q_trace_K: np.ndarray       # h_K^{1/2} ||(q - q_h).n||_{dK}
    q_star_K: np.ndarray        # ||q - q_h||_{*,K}
    u_L2: float                 # ||u - u_h||
    nu_L2: float                # ||u - nu_h||

    @property
    def grad_nu(self):
        return float(np.sqrt(np.sum(self.grad_nu_K ** 2)))

    @property
    def grad_theta(self):
        return float(np.sqrt(np.sum(self.grad_theta_K ** 2)))

    @property
    def one_h(self):
        return float(np.sqrt(np.sum(self.one_h_K ** 2)))

    @property
    def q_0h_K(self):
        return np.sqrt(self.q_L2_K ** 2 + self.q_trace_K ** 2)

    @property
    def q_0h(self):
        return float(np.sqrt(np.sum(self.q_0h_K ** 2)))

    @property
    def q_star_h_K(self):
        return np.sqrt(self.q_star_K ** 2 + self.q_trace_K ** 2)

    @property
    def q_star_h(self):
        return float(np.sqrt(np.sum(self.q_star_h_K ** 2)))

    @property
    def full(self):
        """Combined error (||u - nu||_{1,h}^2 + ||q - q_h||_{0,h}^2)^(1/2)."""
        return float(np.sqrt(self.one_h ** 2 + self.q_0h ** 2))

    def to_dict(self):
        return {"grad_nu": self.grad_nu, "one_h": self.one_h,
                "q_0h": self.q_0h, "q_star_h": self.q_star_h,
                "u_L2": self.u_L2, "nu_L2": self.nu_L2, "full": self.full}


def error_norms(problem: ProblemSpec, solution: MixedSolution,
                post: PostprocResult) -> ErrorBlock:
    """All exact-error norms; requires the problem's exact pair."""
    if not problem.has_exact:
        raise ValueError("problem carries no exact solution")
    mesh, p = solution.mesh, solution.p
    exact = 2 * p + 8
    nt = mesh.n_triangles
    basis_p2 = make_scalar_basis(p + 2)
    grad_nu_sq = np.zeros(nt)
    grad_theta_sq = np.zeros(nt)
    q_L2_sq = np.zeros(nt)
    u_L2_sq = np.zeros(nt)
    nu_L2_sq = np.zeros(nt)
    star_rhs = np.zeros((nt, basis_p2.size - 1))
    u_by_el = solution.scalar_by_element

    for ids, pts, w in _element_groups(mesh, problem, exact):
        phys = mapped_points(mesh, pts, ids)
        qv = field_values(problem.exact_q, phys, "exact_q", vector=True)
        uv = field_values(problem.exact_u, phys, "exact_u")
        J = mesh.det_jacobians[ids]
        Binv = mesh.inv_jacobians[ids]
        V, D = basis_p2.values(pts), basis_p2.grads(pts)

        def at_points(coeffs, table):
            # the bases are hierarchical: a lower degree is a leading slice
            return coeff_contract(coeffs[ids], table[:, :coeffs.shape[1]])

        def integral(vals):
            return (vals @ w) * J

        def grad_error_sq(coeffs):
            # grad(u - v) = -q - grad v
            g = np.matmul(at_points(coeffs, D), Binv)
            return integral(_norm_sq(qv + g))

        qh = solution.flux_space.flux_values(solution.flux, pts, ids)
        grad_nu_sq[ids] = grad_error_sq(post.nu)
        grad_theta_sq[ids] = grad_error_sq(post.theta)
        diff = qv - qh
        q_L2_sq[ids] = integral(_norm_sq(diff))
        u_L2_sq[ids] = integral((uv - at_points(u_by_el, V)) ** 2)
        nu_L2_sq[ids] = integral((uv - at_points(post.nu, V)) ** 2)
        # load (q - q_h, grad v) of the mean-free degree-(p+2) basis
        star_rhs[ids] = _grad_load(diff, Binv, J, w, D[:, 1:])

    q_star_K = np.linalg.norm(post.classes.matmul(post.chol_inv, star_rhs),
                              axis=1)

    trace_sq = _flux_trace_error_sq(problem, solution)
    jump_K, bnd_K = post.nu_traces(problem.u_D, p + 5)
    one_h_K = np.sqrt(grad_nu_sq + jump_K + bnd_K)
    return ErrorBlock(
        grad_nu_K=np.sqrt(grad_nu_sq),
        grad_theta_K=np.sqrt(grad_theta_sq),
        one_h_K=one_h_K,
        q_L2_K=np.sqrt(q_L2_sq),
        q_trace_K=np.sqrt(mesh.h_K * trace_sq),
        q_star_K=q_star_K,
        u_L2=float(np.sqrt(u_L2_sq.sum())),
        nu_L2=float(np.sqrt(nu_L2_sq.sum())),
    )


def _flux_trace_error_sq(problem: ProblemSpec, solution: MixedSolution):
    """sum over the edges of K of ||(q - q_h) . n||^2_{edge}, per element."""
    mesh, p = solution.mesh, solution.p
    moments = np.asarray(solution.flux)[:mesh.n_edges * (p + 1)]
    scaled = moments.reshape(-1, p + 1) * (2.0 * np.arange(p + 1) + 1.0)

    def residual(ids, t, w, g):
        qh_n = scaled[ids] @ shifted_legendre(np.arange(p + 1)[:, None], t)
        return g - qh_n / mesh.edge_lengths[ids, None]

    return _edge_flux_sq(problem, mesh, p + 5, residual)


def oscillation_bound(problem: ProblemSpec, mesh: TriMesh, p: int):
    """Upper bound h_K^{1/2} * (edgewise best approximation of q.n by P_p).

    Returns (per-element array, global value).
    """
    if problem.exact_q is None:
        raise ValueError("oscillation bound needs the exact flux")
    scale = 2.0 * np.arange(p + 1) + 1.0

    def residual(ids, t, w, g):
        # g minus its L2(0, 1) projection onto P_p
        leg = shifted_legendre(np.arange(p + 1)[:, None], t)
        return g - ((g * w) @ leg.T * scale) @ leg

    per = np.sqrt(mesh.h_K * _edge_flux_sq(problem, mesh, p + 6, residual))
    return per, float(np.sqrt(np.sum(per ** 2)))


def full_report(problem: ProblemSpec, solution: MixedSolution,
                post: PostprocResult,
                with_errors: bool = True) -> EstimatorReport:
    """Improved-estimator report, augmented with the exact-error block.

    With exact errors, delta = ||grad(u - theta_h)|| / ||grad(u - nu_h)||
    measures saturation; an exactly discrete solution (zero denominator) is
    flagged degenerate and reports delta = 0.
    """
    report = eta_improved(post, solution, problem.u_D)
    if with_errors and problem.has_exact:
        err = report.errors = error_norms(problem, solution, post)
        report.osc_K, _ = oscillation_bound(problem, post.mesh, post.p)
        report.effectivity = report.eta / err.full if err.full > 0 else None
        report.delta_degenerate = err.grad_nu ** 2 <= 1e-28
        report.delta = 0.0 if report.delta_degenerate \
            else err.grad_theta / err.grad_nu
    return report
