"""Mesh-dependent norms, a posteriori estimators, and exact-error reports.

The built-in indicator is eta_tilde_K = ||grad eps_K||_K from the residual
representative.  The improved indicator adds the flux mismatch and scaled
traces of the postprocessed scalar:

    eta_K^2 = eta_tilde_K^2 + ||q_h + grad nu_h||_K^2
              + 1/2 sum_{interior F of K} h_F^{-1} ||[nu_h]||_F^2
              + sum_{boundary F of K} h_F^{-1} ||u_D - nu_h||_F^2.

Exact-error norms use the "data" rule of fields.ref_tables(p, kind),
refined where the problem asks for it.  Elements touching its singular
point get the "singular" rule and edges touching it the graded edge rule
(basis.quad_rule), which make the r^(-2/3) of |q|^2 at a re-entrant corner a
polynomial integrand.  They grade toward every vertex alike, so the errors
depend only on the physical element and not on its local vertex order.
Elements with a vertex in its quadrature region get the "region" rule, the
data rule subdivided once.  The tables of each of these jobs are built once
per p and shared by every later mesh; the "data" tables are also the ones
the load vector and the dual norm read.  One pass over the element quadrature
points, in blocks of at most fields.BLOCK_POINTS points, gathers every
element-interior error, the saturation numerator ||grad(u - theta_h)||_K
included; the scaled traces of nu_h are those the postprocessing took for
the indicator.  Every entry point takes the PostprocResult alone.  A report is
plain data: the caller that writes it sets its oscillation bound osc_K.  The
edge terms (the normal-flux trace error and the oscillation bound) are taken
once per global edge, in blocks of edges likewise: q . n_e is sampled in the
stored edge direction, on singular edges from the singular end, and
q_h . n_e = sum_m c_(e,m) (2m+1) L_m(t) / |e| comes from the global edge
moments c_(e,m) of q_h.  The element-local dual norm ||r||_*K on the mean-free
degree-(p+2) space is ||G b|| with G = L^{-1} the inverse Cholesky factor of
the element's class stiffness that the postprocessing already holds, and b
the load of r.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import write_json
from .basis import basis_size
from .bdm import edge_legendre
from .fields import (ElementClasses, edge_points, field_values, mapped_points,
                     point_blocks, ref_tables)
from .mesh import TriMesh
from .postprocess import PostprocResult, class_factors
from .solver import MixedSolution, ProblemSpec


# -- quadrature groups for exact-solution integrals ---------------------------


def _singular_vertices(problem: ProblemSpec, mesh: TriMesh) -> np.ndarray:
    """Per-vertex mask of the vertices at quad_singular_point (all False
    without one); elements and edges touching it get the graded rules."""
    if problem.quad_singular_point is None:
        return np.zeros(len(mesh.vertices), dtype=bool)
    xs = np.asarray(problem.quad_singular_point, dtype=float)
    return np.linalg.norm(mesh.vertices - xs, axis=1) < 1e-12


def _element_groups(mesh: TriMesh, problem: ProblemSpec, p: int):
    """[(element ids, ref_tables)]: the "singular" point set on elements
    touching quad_singular_point, "region" on the other elements with a
    vertex in quad_region, and the plain "data" rule on the rest."""
    groups = []
    flagged = _singular_vertices(problem, mesh)[mesh.triangles].any(axis=1)
    if flagged.any():
        groups.append((np.nonzero(flagged)[0], ref_tables(p, "singular")))
    if problem.quad_region is not None:
        inside = field_values(problem.quad_region, mesh.vertices,
                              "quad_region") != 0
        near = inside[mesh.triangles].any(axis=1) & ~flagged
        if near.any():
            groups.append((np.nonzero(near)[0], ref_tables(p, "region")))
            flagged |= near
    rest = np.nonzero(~flagged)[0]
    if rest.size:
        groups.insert(0, (rest, ref_tables(p, "data")))
    return groups


def _edge_flux_sq(problem: ProblemSpec, mesh: TriMesh, p: int,
                  n_points: int, residual):
    """Per element, sum over its edges e of |e| int_0^1 r^2 dt.

    Each global edge is visited once, with the n-point Gauss rule, or on
    edges touching quad_singular_point the graded edge rule, sampled from the
    singular end.  residual(edge_ids, w, leg, g) returns r (n, nq) from the
    weights w, the Legendre table leg (p + 1, nq) of edge_legendre and g =
    q . n_e, the exact normal flux at the points in the stored edge
    direction.
    """
    at = _singular_vertices(problem, mesh)[mesh.edges]
    singular = at.any(axis=1)
    sq = np.zeros(mesh.n_edges)
    for graded in (False, True):
        group = np.nonzero(singular == graded)[0]
        if group.size == 0:
            continue
        t, w, leg = edge_legendre(p, n_points, graded)
        for b in point_blocks(len(group), len(t)):
            ids = group[b]
            pts = edge_points(mesh, ids, t, from_end=at[ids, 1])
            qv = field_values(problem.exact_q, pts, "exact_q", vector=True)
            g = (qv @ mesh.edge_normals[ids, :, None])[..., 0]
            sq[ids] = ((residual(ids, w, leg, g) ** 2 @ w)
                       * mesh.edge_lengths[ids])
    return sq[mesh.elem_edges].sum(axis=1)


def _norm_sq(v):
    """|v|^2 of 2-vectors v (..., 2), squaring v in place so that the sum
    is the only new array; np.sum over a length-2 last axis is several
    times slower."""
    np.square(v, out=v)
    return v[..., 0] + v[..., 1]


# -- discrete dual norm -------------------------------------------------------


def _grad_load(r, Binv, J, w, D) -> np.ndarray:
    """Loads (r, grad v_i)_K (n, s) from values r (n, nq, 2) at a rule with
    weights w, the gradient table D (s, 2 nq), Binv (n, 2, 2) and J (n,)."""
    # r . grad v = (r B^{-T}) . Dhat; J rides on the 2x2 map and w on the
    # table, so no pass over the (n, nq, 2) values weights them
    pulled = np.matmul(r, np.swapaxes(Binv, 1, 2) * J[:, None, None])
    return pulled.reshape(len(J), -1) @ (D * np.repeat(w, 2)).T


def dual_norm_star(mesh: TriMesh, p: int, element: int, r) -> float:
    """sup over mean-free degree-(p+2) v of (r, grad v)_K / ||grad v||_K.

    r maps (n, 2) physical points to (n, 2) vector values.  The element is
    evaluated as a one-element mesh with the kernels of the adaptive loop.
    """
    if not 0 <= element < mesh.n_triangles:
        raise IndexError(f"element {element} out of range")
    one = TriMesh(mesh.tri_coords[element], [[0, 1, 2]])
    T = ref_tables(p, "data")
    vals = field_values(r, mapped_points(one, T.points), "r", vector=True)
    b = _grad_load(vals, one.inv_jacobians, one.det_jacobians,
                   T.weights, T.D[1:])
    G = class_factors(one, p, ElementClasses(one))
    return float(np.linalg.norm(G[0] @ b[0]))


# -- estimators ----------------------------------------------------------------


@dataclass
class EstimatorReport:
    """Per-element indicator decomposition plus optional exact-error block
    and per-element oscillation bound (oscillation_bound)."""

    mesh: TriMesh
    p: int
    eta_K: np.ndarray
    eta_tilde_K: np.ndarray
    mismatch_K: np.ndarray
    jump_K: np.ndarray
    boundary_K: np.ndarray
    errors: "ErrorBlock | None" = None
    delta: float | None = None
    delta_degenerate: bool = False
    effectivity: float | None = None
    osc_K: np.ndarray | None = None

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
        write_json(path, self.to_dict())


def eta_improved(post: PostprocResult) -> EstimatorReport:
    """Improved indicator: residual representative + mismatch + scaled traces.

    The mismatch ||q_h + grad nu_h||_K is evaluated on point blocks, so that
    grad nu_h and q_h never exist at every point of the mesh at once.
    """
    solution = post.solution
    mesh, p = solution.mesh, solution.p
    T = ref_tables(p, "local")
    D = T.D[:post.nu.shape[1]]
    mismatch_sq = np.empty(mesh.n_triangles)
    for b in point_blocks(mesh.n_triangles, len(T.weights)):
        qh = solution.flux_space.flux_values(solution.flux, T.N, b)
        qh += np.matmul((post.nu[b] @ D).reshape(len(qh), -1, 2),
                        mesh.inv_jacobians[b])
        mismatch_sq[b] = (_norm_sq(qh) @ T.weights) * mesh.det_jacobians[b]
    eta_K = np.sqrt(post.eta_tilde_K ** 2 + mismatch_sq + post.jump_K
                    + post.boundary_K)
    return EstimatorReport(
        mesh=mesh, p=p, eta_K=eta_K, eta_tilde_K=post.eta_tilde_K.copy(),
        mismatch_K=np.sqrt(np.maximum(mismatch_sq, 0.0)),
        jump_K=post.jump_K, boundary_K=post.boundary_K)


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


def _element_errors(post: PostprocResult, ids, T):
    """Squared errors ||grad(u - nu_h)||^2, ||grad(u - theta_h)||^2,
    ||u - u_h||^2, ||u - nu_h||^2 and ||q - q_h||^2 of elements ids, and
    the dual-norm load of q - q_h, at the rule of the tables T."""
    solution, problem = post.solution, post.solution.problem
    mesh, w = solution.mesh, T.weights
    phys = mapped_points(mesh, T.points, ids)
    qv = field_values(problem.exact_q, phys, "exact_q", vector=True)
    uv = field_values(problem.exact_u, phys, "exact_u")
    J = mesh.det_jacobians[ids]
    Binv = mesh.inv_jacobians[ids]

    def at_points(coeffs, table):
        # the bases are hierarchical: a lower degree is a leading slice
        return coeffs[ids] @ table[:coeffs.shape[1]]

    def integral(vals):
        return (vals @ w) * J

    def grad_error_sq(coeffs):
        # grad(u - v) = -q - grad v
        g = np.matmul(at_points(coeffs, T.D).reshape(len(ids), -1, 2), Binv)
        g += qv
        return integral(_norm_sq(g))

    def value_error_sq(coeffs):
        d = at_points(coeffs, T.V)
        np.subtract(uv, d, out=d)
        return integral(np.square(d, out=d))

    grad_nu_sq = grad_error_sq(post.nu)
    grad_theta_sq = grad_error_sq(post.theta)
    u_L2_sq = value_error_sq(solution.scalar_by_element)
    nu_L2_sq = value_error_sq(post.nu)
    diff = solution.flux_space.flux_values(solution.flux, T.N, ids)
    np.subtract(qv, diff, out=diff)
    # load (q - q_h, grad v) of the mean-free degree-(p+2) basis
    star_rhs = _grad_load(diff, Binv, J, w, T.D[1:])
    return (grad_nu_sq, grad_theta_sq, u_L2_sq, nu_L2_sq,
            integral(_norm_sq(diff)), star_rhs)


def error_norms(post: PostprocResult) -> ErrorBlock:
    """All exact-error norms; requires the problem's exact pair."""
    solution, problem = post.solution, post.solution.problem
    if not problem.has_exact:
        raise ValueError("problem carries no exact solution")
    mesh, p = solution.mesh, solution.p
    nt = mesh.n_triangles
    grad_nu_sq = np.zeros(nt)
    grad_theta_sq = np.zeros(nt)
    q_L2_sq = np.zeros(nt)
    u_L2_sq = np.zeros(nt)
    nu_L2_sq = np.zeros(nt)
    star_rhs = np.zeros((nt, basis_size(p + 2) - 1))

    for group, T in _element_groups(mesh, problem, p):
        for b in point_blocks(len(group), len(T.weights)):
            ids = group[b]
            (grad_nu_sq[ids], grad_theta_sq[ids], u_L2_sq[ids], nu_L2_sq[ids],
             q_L2_sq[ids], star_rhs[ids]) = _element_errors(post, ids, T)

    q_star_K = np.linalg.norm(
        solution.classes.matmul(post.chol_inv, star_rhs), axis=1)

    trace_sq = _flux_trace_error_sq(solution)
    one_h_K = np.sqrt(grad_nu_sq + post.jump_K + post.boundary_K)
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


def _flux_trace_error_sq(solution: MixedSolution):
    """sum over the edges of K of ||(q - q_h) . n||^2_{edge}, per element."""
    mesh, p = solution.mesh, solution.p
    moments = np.asarray(solution.flux)[:mesh.n_edges * (p + 1)]
    scaled = moments.reshape(-1, p + 1) * (2.0 * np.arange(p + 1) + 1.0)

    def residual(ids, w, leg, g):
        return g - (scaled[ids] @ leg) / mesh.edge_lengths[ids, None]

    return _edge_flux_sq(solution.problem, mesh, p, p + 5, residual)


def oscillation_bound(problem: ProblemSpec, mesh: TriMesh, p: int):
    """Upper bound h_K^{1/2} * (edgewise best approximation of q.n by P_p).

    Returns (per-element array, global value).
    """
    if problem.exact_q is None:
        raise ValueError("oscillation bound needs the exact flux")
    scale = 2.0 * np.arange(p + 1) + 1.0

    def residual(ids, w, leg, g):
        # g minus its L2(0, 1) projection onto P_p
        return g - ((g * w) @ leg.T * scale) @ leg

    per = np.sqrt(mesh.h_K * _edge_flux_sq(problem, mesh, p, p + 6, residual))
    return per, float(np.sqrt(np.sum(per ** 2)))


def full_report(post: PostprocResult,
                with_errors: bool = True) -> EstimatorReport:
    """Improved-estimator report, augmented with the exact-error block.

    With exact errors, delta = ||grad(u - theta_h)|| / ||grad(u - nu_h)||
    measures saturation; an exactly discrete solution (zero denominator) is
    flagged degenerate and reports delta = 0.  osc_K is left unset.
    """
    report = eta_improved(post)
    if with_errors and post.solution.problem.has_exact:
        err = report.errors = error_norms(post)
        report.effectivity = report.eta / err.full if err.full > 0 else None
        report.delta_degenerate = err.grad_nu ** 2 <= 1e-28
        report.delta = 0.0 if report.delta_degenerate \
            else err.grad_theta / err.grad_nu
    return report
