import math
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import eigh
from scipy.sparse import bmat, coo_matrix, csc_matrix

from bdmadapt import TriMesh, assemble, build_initial_mesh, preset, solve
from bdmadapt.basis import (_jacobi, basis_size, bdm_reference,
                            edge_ref_points, interior_test_fields,
                            make_scalar_basis, quad_rule)
from bdmadapt.bdm import (BdmSpace, edge_legendre, interpolate_boundary_term,
                          load_vector)
from bdmadapt.estimators import ErrorBlock, _element_groups
from bdmadapt.fields import (edge_points, field_values, mapped_points,
                             ref_tables, tabulate)
from bdmadapt.postprocess import _with_mean


# The hypothesis plugin imports this module to report a falsifying example;
# its libcst dependency warns on import, which filterwarnings = ["error"]
# would turn into a pytest INTERNALERROR instead of the example.  Import it
# once here with that one third-party message ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # hypothesis or libcst missing: nothing to report
        pass


@pytest.fixture
def rng():
    return np.random.default_rng(20240612)


# -- global matrices, assembled only as oracles ------------------------------


def _scatter(blocks, row_map, col_map, shape):
    """Sum element blocks (n, r, c) into a global CSR matrix."""
    rows = np.broadcast_to(row_map[:, :, None], blocks.shape).ravel()
    cols = np.broadcast_to(col_map[:, None, :], blocks.shape).ravel()
    return coo_matrix((blocks.ravel(), (rows, cols)), shape=shape).tocsr()


def _scalar_map(space):
    """Global numbers (n_elements, s) of the degree-(p-1) scalar dofs that
    pair with the BDM(p) space, element by element."""
    s = basis_size(space.p - 1)
    return np.arange(space.mesh.n_triangles * s).reshape(-1, s)


def bdm_mass_matrix(space):
    """Global flux mass matrix (CSR)."""
    return _scatter(einsum_element_mass_matrices(space), space.l2g,
                    space.l2g, (space.n_dofs, space.n_dofs))


def divergence_matrix(space):
    """B[i, j] = (div N_j, psi_i) over the mesh against the degree-(p-1)
    scalars psi_i (CSR)."""
    rows = _scalar_map(space)
    return _scatter(element_divergence_matrices(space), rows, space.l2g,
                    (rows.size, space.n_dofs))


def advection_matrix(space, beta):
    """C[i, j] = (beta . N_j, psi_i) for a constant vector beta (CSR)."""
    rows = _scalar_map(space)
    return _scatter(einsum_element_advection_matrices(space, beta), rows,
                    space.l2g, (rows.size, space.n_dofs))


def saddle_system(mesh, p, problem):
    """Global saddle system [[M, -B^T], [B - C, 0]] x = (-g_D, F) as an oracle.

    Returns matrix (CSC), rhs and the flux space; the program itself only
    solves the hybridized form of this system.
    """
    flux = BdmSpace(mesh, p)
    M = bdm_mass_matrix(flux)
    B = divergence_matrix(flux)
    C = advection_matrix(flux, problem.beta)
    g = interpolate_boundary_term(flux, problem.u_D)
    F = load_vector(mesh, p, problem.f).ravel()
    A = bmat([[M, -B.T], [B - C, None]], format="csc")
    return SimpleNamespace(matrix=A, rhs=np.concatenate([g, F]),
                           flux_space=flux)


def scipy_schur(system):
    """system.schur as a scipy CSC matrix on the same arrays."""
    S = system.schur
    return csc_matrix((S.data, S.indices, S.indptr), shape=S.shape)


def coo_schur(system):
    """(S, multiplier numbers) of system, built the direct way: int64
    multiplier numbers from the mesh, the signed element blocks, a mask over
    their (row, column) pairs and a COO -> CSC conversion.  The oracle of
    solver._multiplier_matrix, which forms each triplet array once."""
    mesh, p = system.flux_space.mesh, system.flux_space.p
    interior = ~mesh.boundary_edge
    n_mult = int(interior.sum()) * (p + 1)
    edge_mult = np.full(mesh.n_edges, -1, dtype=np.int64)
    edge_mult[interior] = np.arange(n_mult // (p + 1))
    local_mult = edge_mult[mesh.elem_edges]
    multiplier = np.where(local_mult[:, :, None] >= 0,
                          local_mult[:, :, None] * (p + 1) + np.arange(p + 1),
                          -1).reshape(mesh.n_triangles, -1)
    ne = 3 * (p + 1)
    S_loc = system.inverse[:, :ne, :ne][system.classes.id]
    S_loc *= system.edge_sign[:, :, None]
    S_loc *= system.edge_sign[:, None, :]
    rows = np.broadcast_to(multiplier[:, :, None], S_loc.shape)
    cols = np.broadcast_to(multiplier[:, None, :], S_loc.shape)
    keep = (rows >= 0) & (cols >= 0)
    S = coo_matrix((S_loc[keep], (rows[keep], cols[keep])),
                   shape=(n_mult, n_mult)).tocsc()
    return S, multiplier


def element_flux_trace_sq(problem, solution):
    """Element-side oracle for the exact normal-flux trace term.

    Per element, sums ||(q - q_h) . n_K||^2 and ||q . n_K||^2 over its three
    local edges, in their local traversal, with q_h evaluated from the
    reference shape functions and the Piola map and the (p+5)-point Gauss
    rule (the graded edge rule on edges touching quad_singular_point, whose
    exact flux is sampled from the singular end).  Returns (trace_sq,
    qn_sq).
    """
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    c_flux = solution.flux_space.local_coeffs(solution.flux)
    at = np.zeros(len(mesh.vertices), dtype=bool)
    if problem.quad_singular_point is not None:
        at = np.linalg.norm(mesh.vertices - problem.quad_singular_point,
                            axis=1) < 1e-12
    singular = at[mesh.edges].any(axis=1)
    normals = outward_normals(mesh)
    trace_sq = np.zeros(mesh.n_triangles)
    qn_sq = np.zeros(mesh.n_triangles)
    for graded in (False, True):
        t, w, _ = edge_legendre(p, p + 5, graded)
        for j in range(3):
            ids = np.nonzero(singular[mesh.elem_edges[:, j]] == graded)[0]
            if ids.size == 0:
                continue
            ref = np.einsum("nl,qla->nqa", c_flux[ids],
                            reference_shape_values(p, edge_ref_points(j, t)))
            qh = np.einsum("nqa,nba->nqb", ref, mesh.jacobians[ids]) \
                / mesh.det_jacobians[ids, None, None]
            if graded:
                # a node near a vertex other than v0 has lost digits of the
                # distance to it; the graded rule is symmetric, so the edge
                # is sampled from its singular end x0 towards x1, at the
                # nodes mirrored when that end is the second one
                ends = mesh.tri_coords[ids][:, [(j + 1) % 3, (j + 2) % 3]]
                back = at[mesh.triangles[ids, (j + 2) % 3]]
                ends[back] = ends[back, ::-1]
                u = np.where(back[:, None], t[::-1], t)
                pts = ends[:, None, 0] + np.einsum(
                    "nq,na->nqa", u, ends[:, 1] - ends[:, 0])
            else:
                pts = mapped_points(mesh, edge_ref_points(j, t), ids)
            qv = np.asarray(problem.exact_q(pts.reshape(-1, 2)), float)
            qv = qv.reshape(len(ids), len(t), 2)
            nrm = normals[ids, j]
            le = mesh.tri_edge_lengths[ids, j]
            dn = np.einsum("nqa,na->nq", qv - qh, nrm)
            gn = np.einsum("nqa,na->nq", qv, nrm)
            trace_sq[ids] += np.einsum("nq,q->n", dn ** 2, w) * le
            qn_sq[ids] += np.einsum("nq,q->n", gn ** 2, w) * le
    return trace_sq, qn_sq


def make_linear_problem():
    return preset("linear")


@pytest.fixture(scope="session")
def linear_problem():
    return make_linear_problem()


@pytest.fixture(scope="session")
def smooth_problem():
    return preset("smooth")


@pytest.fixture(scope="session")
def small_smooth_solutions(smooth_problem):
    """(p -> (solution, mesh)) on a 128-element unit square mesh."""
    out = {}
    mesh = build_initial_mesh(smooth_problem.domain, 32).refine(range(32))
    for p in (1, 2, 3):
        out[p] = solve(assemble(mesh, p, smooth_problem))
    return out


def skewed_triangle():
    """A reference-unlike triangle for single-element checks."""
    return np.array([[0.2, -0.1], [1.3, 0.4], [0.1, 1.1]])


def single_element_mesh(tri=None):
    tri = skewed_triangle() if tri is None else np.asarray(tri, dtype=float)
    return TriMesh(tri, np.array([[0, 1, 2]]))


# -- geometry audits and the canonical interpolant ------------------------------


def areas(mesh):
    return 0.5 * mesh.det_jacobians


def centroids(mesh):
    return mesh.tri_coords.mean(axis=1)


def inradius(mesh):
    return 2.0 * areas(mesh) / mesh.tri_edge_lengths.sum(axis=1)


def outward_normals(mesh):
    """Outward unit normal per (triangle, local edge); shape (nt, 3, 2)."""
    sign = np.where(mesh.elem_edge_aligned, 1.0, -1.0)
    return mesh.edge_normals[mesh.elem_edges] * sign[..., None]


def domain_area(domain):
    """Area of the domain's polygon by the shoelace formula."""
    x, y = domain.vertices.T
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def validate(mesh):
    """Raise AssertionError if a structural invariant of mesh fails:
    positive orientation, boundary flags that match the edge adjacency, and
    edge normals that point out of every element.  Returns mesh."""
    assert np.all(mesh.det_jacobians > 0), "a triangle is not positively " \
        "oriented"
    counts = np.bincount(mesh.elem_edges.ravel(), minlength=mesh.n_edges)
    assert np.array_equal(counts == 1, mesh.boundary_edge), \
        "edge adjacency inconsistent with boundary flags"
    ends = mesh.vertices[mesh.edges[mesh.elem_edges]]
    to_edge = 0.5 * ends.sum(axis=2) - centroids(mesh)[:, None, :]
    assert np.all(np.einsum("nja,nja->nj", to_edge,
                            outward_normals(mesh)) > 0), \
        "an edge normal does not point out of its element"
    return mesh


def interpolate(space, q):
    """Canonical BDM interpolant (global coefficients) of a smooth vector
    field q(x) -> (n, 2): edge moments by the (p+5)-point Gauss rule,
    interior moments by the "data" rule; q is read through
    fields.field_values as "q"."""
    mesh, p = space.mesh, space.p
    t, w, leg = edge_legendre(p, p + 5, False)
    qv = field_values(q, edge_points(mesh, slice(None), t), "q", vector=True)
    qn = (qv @ mesh.edge_normals[:, :, None])[..., 0]
    dofs = np.empty(space.n_dofs)
    edge_part = ((qn * w) @ leg.T) * mesh.edge_lengths[:, None]
    dofs[: space.n_edge_dofs] = edge_part.ravel()
    if space.n_interior:
        T = ref_tables(p, "data")
        theta = interior_test_fields(
            p, T.points, T.V, T.D.reshape(len(T.D), -1, 2))
        qv = field_values(q, mapped_points(mesh, T.points), "q", vector=True)
        # contravariant pull-back J B^{-1} q
        JBinvT = mesh.det_jacobians[:, None, None] * np.swapaxes(
            mesh.inv_jacobians, 1, 2)
        qhat = np.matmul(qv, JBinvT) * T.weights[:, None]
        vals = qhat.reshape(mesh.n_triangles, -1) @ theta.reshape(
            len(theta), -1).T
        dofs[space.n_edge_dofs:] = vals.ravel()
    return dofs


# -- moments of the boundary trace functionals ----------------------------------


def reference_grads(basis, pts):
    """Gradients (npts, size, 2) of a reference scalar basis at pts."""
    return np.ascontiguousarray(basis.tabulate(pts)[1].transpose(1, 0, 2))


def affine_map(pts, tri):
    """Images (n, 2) of reference points pts in the triangle tri (3x2 vertex
    rows): v0 + x (v1 - v0) + y (v2 - v0)."""
    tri = np.asarray(tri, dtype=float)
    pts = np.asarray(pts, dtype=float)
    return (tri[0] + pts[:, :1] * (tri[1] - tri[0])
            + pts[:, 1:] * (tri[2] - tri[0]))


# local edge j runs from vertex P to vertex Q and is opposite vertex j
_EDGE_ENDS = ((1, 2), (2, 0), (0, 1))


def _trace_moments(tri, traces):
    """int_{dK} phi_i g over one triangle for the six trace functionals
    phi_(j, m) = (xi_K / |e_j|) (2m+1) L_m(t), with xi_K = |dK| / (2 + sqrt 2)
    and t the parameter from P to Q, by the 12-point Gauss rule.

    traces(j, pts, t) returns g at the physical points pts (nq, 2) of local
    edge j; ds = |e_j| dt cancels the 1/|e_j| of phi.
    """
    tri = np.asarray(tri, dtype=float)
    x, w = np.polynomial.legendre.leggauss(12)
    t, w = 0.5 * (x + 1.0), 0.5 * w
    perimeter = sum(math.hypot(*(tri[q] - tri[p])) for p, q in _EDGE_ENDS)
    xi = perimeter / (2.0 + math.sqrt(2.0))
    leg = np.stack([np.ones_like(t), 3.0 * (2.0 * t - 1.0)], axis=1)
    out = np.empty(6)
    for j, (p, q) in enumerate(_EDGE_ENDS):
        pts = (1.0 - t)[:, None] * tri[p] + t[:, None] * tri[q]
        g = np.asarray(traces(j, pts, t), dtype=float)
        out[2 * j: 2 * j + 2] = xi * ((w * g) @ leg)
    return out


def boundary_moments(tri, v):
    """int_{dK} phi_i v for all six trace functionals, v a field on tri."""
    return _trace_moments(tri, lambda j, pts, t: v(pts))


def projection_moments(tri, trace_values):
    """int_{dK} phi_i Pi v, for the moment-preservation check;
    trace_values(j, t) gives Pi v along local edge j of tri."""
    return _trace_moments(tri, lambda j, pts, t: trace_values(j, t))


# -- closed forms of the problem presets ---------------------------------------
#
# The presets as first written, one expression per formula: the advdiff
# layer factors take their own exponential in every term, the lshape flux
# builds its polar unit vectors from cos and sin of the angle.


def closed_form_advdiff(P):
    """(u, q, f) of the advdiff preset at Peclet number P."""
    em = -np.expm1(-P)

    def g(s):
        return s - (np.exp(P * (s - 1.0)) - np.exp(-P)) / em

    def dg(s):
        return 1.0 - P * np.exp(P * (s - 1.0)) / em

    def d2g(s):
        return -P * P * np.exp(P * (s - 1.0)) / em

    def u(x):
        return g(x[:, 0]) * g(x[:, 1])

    def q(x):
        return -np.stack([dg(x[:, 0]) * g(x[:, 1]),
                          g(x[:, 0]) * dg(x[:, 1])], axis=1)

    def f(x):
        gx, gy = g(x[:, 0]), g(x[:, 1])
        lap = d2g(x[:, 0]) * gy + gx * d2g(x[:, 1])
        adv = P * (dg(x[:, 0]) * gy + gx * dg(x[:, 1]))
        return -lap + adv

    return u, q, f


def closed_form_lshape_q(x):
    """-grad of r^(2/3) sin(2/3 (pi - theta))."""
    r = np.hypot(x[:, 0], x[:, 1])
    th = np.arctan2(x[:, 1], x[:, 0])
    rs = np.maximum(r, 1e-300) ** (-1.0 / 3.0)
    arg = (2.0 / 3.0) * (np.pi - th)
    er = np.stack([np.cos(th), np.sin(th)], axis=1)
    et = np.stack([-np.sin(th), np.cos(th)], axis=1)
    return -(2.0 / 3.0) * rs[:, None] * (
        np.sin(arg)[:, None] * er - np.cos(arg)[:, None] * et)


# -- einsum oracles for the batched kernels ------------------------------------
#
# The program contracts element-batched arrays with reference tables as
# matrix products and applies 2x2 geometry factors as batched products.  These
# are the same kernels written as single einsum calls, kept as independent
# references: their point tables come from the scalar basis at the points,
# point-major, and not from fields.ref_tables.


def reference_shape_values(p, pts):
    """Reference BDM(p) shape values (nq, nloc, 2) at pts."""
    C, s = bdm_reference(p), basis_size(p)
    phi = make_scalar_basis(p).values(pts)
    return np.stack([phi @ C[:s], phi @ C[s:]], axis=-1)


def reference_shape_divs(p, pts):
    """Reference divergences (nq, nloc) of the BDM(p) shapes at pts."""
    C, s = bdm_reference(p), basis_size(p)
    g = reference_grads(make_scalar_basis(p), pts)
    return g[:, :, 0] @ C[:s] + g[:, :, 1] @ C[s:]


def eval_flux(space, coeffs, element, pts):
    """Physical flux values (nq, 2) of global coefficients on one element
    at reference points pts, tabulated on the call."""
    return space.flux_values(coeffs, tabulate(space.p, pts)[2], [element])[0]


def einsum_mapped_points(mesh, ref_pts, ids=slice(None)):
    """optimize=True contracts over b through BLAS, as fields.mapped_points
    does, so the two agree bitwise."""
    v0 = mesh.tri_coords[ids, 0]
    return v0[:, None, :] + np.einsum("qb,nab->nqa", np.asarray(ref_pts),
                                      mesh.jacobians[ids], optimize=True)


def broadcast_edge_points(mesh, edge_ids, t):
    """Points along global edges by one broadcast lo + t (hi - lo)."""
    lo = mesh.vertices[mesh.edges[edge_ids, 0]]
    hi = mesh.vertices[mesh.edges[edge_ids, 1]]
    return lo[:, None, :] + np.asarray(t)[None, :, None] * (hi - lo)[:, None, :]


def loop_class_matmul(classes, mats, x):
    """ElementClasses.matmul by one gather and one scatter per class."""
    n_classes = len(classes.reps)
    groups = [slice(None)] if n_classes == 1 else [
        np.flatnonzero(classes.id == c) for c in range(n_classes)]
    out = np.empty((len(x), mats.shape[1]))
    for mat, ids in zip(mats, groups):
        out[ids] = x[ids] @ mat.T
    return out


def einsum_flux_values(space, coeffs, ref_pts, ids=slice(None)):
    Nh = reference_shape_values(space.p, ref_pts)
    c = np.asarray(coeffs)[space.l2g[ids]] * space.signs[ids]
    ref = np.einsum("nl,qla->nqa", c, Nh)
    return np.einsum("nqa,nba->nqb", ref, space.mesh.jacobians[ids]) \
        / space.mesh.det_jacobians[ids][:, None, None]


def einsum_stiffness_tensors(mesh, degree, exactness):
    """(grad v_i, grad v_j)_K per element, with the metric J B^{-1} B^{-T}
    formed here from the mesh's inverse Jacobians and determinants."""
    rule = quad_rule(exactness, "triangle")
    D = reference_grads(make_scalar_basis(degree), rule.points)
    R = np.einsum("q,qia,qjb->abij", rule.weights, D, D)
    Binv = mesh.inv_jacobians
    metric = np.einsum("n,nac,nbc->nab", mesh.det_jacobians, Binv, Binv)
    return np.einsum("nab,abij->nij", metric, R)


def einsum_element_mass_matrices(space):
    p = space.p
    rule = quad_rule(2 * (p + 2), "triangle")
    Nh = reference_shape_values(p, rule.points)
    Rm = np.einsum("q,qia,qjb->abij", rule.weights, Nh, Nh)
    B, J = space.mesh.jacobians, space.mesh.det_jacobians
    T = np.einsum("nca,ncb->nab", B, B) / J[:, None, None]
    Mloc = np.einsum("nab,abij->nij", T, Rm)
    return Mloc * space.signs[:, :, None] * space.signs[:, None, :]


def element_divergence_matrices(space):
    """Element blocks (n_elements, s, nloc) of (div N_l, psi_i) against the
    degree-(p-1) scalars, globally oriented: the reference pairing times the
    orientation signs, since the 1/J of the Piola divergence cancels the
    Jacobian."""
    p = space.p
    rule = quad_rule(2 * (p + 2), "triangle")
    dNh = reference_shape_divs(p, rule.points)
    V = make_scalar_basis(p - 1).values(rule.points)
    D0 = np.einsum("q,qi,ql->il", rule.weights, V, dNh)
    return D0[None, :, :] * space.signs[:, None, :]


def einsum_element_blocks(space, beta):
    """Globally oriented element blocks [[M, -D^T], [D - C, 0]] (n, m, m)
    from the per-element einsum oracles."""
    nq, s = space.local_dim, basis_size(space.p - 1)
    D = element_divergence_matrices(space)
    A = np.zeros((space.mesh.n_triangles, nq + s, nq + s))
    A[:, :nq, :nq] = einsum_element_mass_matrices(space)
    A[:, :nq, nq:] = -np.swapaxes(D, 1, 2)
    A[:, nq:, :nq] = D - einsum_element_advection_matrices(space, beta)
    return A


def einsum_element_advection_matrices(space, beta):
    p = space.p
    rule = quad_rule(2 * (p + 2), "triangle")
    Nh = reference_shape_values(p, rule.points)
    V = make_scalar_basis(p - 1).values(rule.points)
    Rc = np.einsum("q,qi,qla->ila", rule.weights, V, Nh)
    Btb = np.einsum("nba,b->na", space.mesh.jacobians, np.asarray(beta, float))
    return np.einsum("ila,na->nil", Rc, Btb) * space.signs[:, None, :]


def einsum_load_vector(mesh, p, f, exactness):
    """Loads (f, psi_i)_K (n_elements, s) of the degree-(p-1) scalars."""
    rule = quad_rule(exactness, "triangle")
    V = make_scalar_basis(p - 1).values(rule.points)
    pts = einsum_mapped_points(mesh, rule.points)
    vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
    return np.einsum("n,q,nq,qi->ni", mesh.det_jacobians, rule.weights, vals,
                     V)


def einsum_local_ingredients(solution):
    """Per-element stiffness S22 (n, n2, n2) on the mean-free degree-(p+2)
    basis and the load rhs of postprocess.residual_load."""
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    exact = 2 * (p + 2)
    S22 = einsum_stiffness_tensors(mesh, p + 2, exact)[:, 1:, 1:]
    rule = quad_rule(exact, "triangle")
    Nh = reference_shape_values(p, rule.points)
    D = reference_grads(make_scalar_basis(p + 2), rule.points)
    c = solution.flux_space.local_coeffs(solution.flux)
    ref_flux = np.einsum("nl,qla->nqa", c, Nh)
    B, Binv = mesh.jacobians, mesh.inv_jacobians
    W = np.einsum("nca,nbc->nab", B, Binv)
    tw = np.einsum("nqa,nab->nqb", ref_flux, W)
    rhs = -np.einsum("nqb,qib,q->ni", tw, D[:, 1:, :], rule.weights)
    return S22, rhs


def stenberg_oracle(solution):
    """Degree-(p+1) elliptic postprocessing and its degree-(p+2) enrichment,
    solved directly by LU as an independent reference.

    Returns (nu, theta) with the same layout as PostprocResult.
    """
    n1 = basis_size(solution.flux_space.p + 1) - 1
    S22, rhs = einsum_local_ingredients(solution)
    theta = np.linalg.solve(S22, rhs[..., None])[..., 0]
    nu = np.linalg.solve(S22[:, :n1, :n1], rhs[:, :n1, None])[..., 0]
    return _with_mean(solution, nu), _with_mean(solution, theta)


def dual_norm_load(mesh, p, k, r):
    """Load b_i = (r, grad v_i)_K of element k against the mean-free
    degree-(p+2) basis v_i, by einsum at the degree-(2p+8) rule; r maps
    (n, 2) physical points to (n, 2) values."""
    rule = quad_rule(2 * p + 8, "triangle")
    D = reference_grads(make_scalar_basis(p + 2), rule.points)[:, 1:, :]
    vals = np.asarray(r(affine_map(rule.points, mesh.tri_coords[k])), float)
    pulled = np.einsum("qa,ba->qb", vals, mesh.inv_jacobians[k])
    return mesh.det_jacobians[k] * np.einsum("q,qb,qib->i", rule.weights,
                                             pulled, D)


def dual_norm_oracle(mesh, p, k, r):
    """||r||_{*,K} of element k, the sup over mean-free degree-(p+2) v of
    (r, grad v)_K / ||grad v||_K, from the dual_norm_load and a dense
    eigendecomposition of the element's einsum stiffness."""
    S = einsum_stiffness_tensors(mesh, p + 2, 2 * (p + 2))[k, 1:, 1:]
    evals, evecs = eigh(S)
    b = dual_norm_load(mesh, p, k, r)
    return float(np.linalg.norm((evecs.T @ b) / np.sqrt(evals)))


def einsum_mismatch_sq(post, solution):
    """||q_h + grad nu_h||_K^2 per element, as in eta_improved."""
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    rule = quad_rule(2 * (p + 2), "triangle")
    D = reference_grads(make_scalar_basis(p + 1), rule.points)
    grad_nu = np.einsum("ni,qib->nqb", post.nu, D)
    grad_nu = np.einsum("nqb,nba->nqa", grad_nu, mesh.inv_jacobians)
    qh = einsum_flux_values(solution.flux_space, solution.flux, rule.points)
    return np.einsum("nq,q,n->n", np.sum((qh + grad_nu) ** 2, axis=2),
                     rule.weights, mesh.det_jacobians)


def edge_elements(mesh):
    """Edge-to-element table (edge_tris, edge_local), each (n_edges, 2),
    built by a plain loop over the local edges as an adjacency oracle.

    Slot 0 holds the element traversing the edge in its global direction
    (K+) and slot 1 the other one (K-); a boundary edge keeps its single
    element in slot 0 and -1 in slot 1.
    """
    edge_tris = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    edge_local = np.full((mesh.n_edges, 2), -1, dtype=np.int64)
    for k in range(mesh.n_triangles):
        for j in range(3):
            e = mesh.elem_edges[k, j]
            side = 0 if mesh.elem_edge_aligned[k, j] else 1
            assert edge_tris[e, side] == -1, "two K+ (or K-) on one edge"
            edge_tris[e, side] = k
            edge_local[e, side] = j
    swap = edge_tris[:, 0] == -1
    edge_tris[swap] = edge_tris[swap, ::-1]
    edge_local[swap] = edge_local[swap, ::-1]
    return edge_tris, edge_local


def refine_loop(mesh, marked):
    """mesh.refine(marked) by a plain loop over the triangles, as the
    newest-vertex bisection oracle: same closure, same vertices, and the
    children appended parent by parent."""
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size == 0:
        return mesh
    edge_marked = np.zeros(mesh.n_edges, dtype=bool)
    edge_marked[mesh.elem_edges[marked, 0]] = True
    while True:
        has_marked = edge_marked[mesh.elem_edges].any(axis=1)
        need = has_marked & ~edge_marked[mesh.elem_edges[:, 0]]
        if not need.any():
            break
        edge_marked[mesh.elem_edges[need, 0]] = True
    split_ids = np.nonzero(edge_marked)[0]
    new_vid = np.full(mesh.n_edges, -1, dtype=np.int64)
    new_vid[split_ids] = mesh.n_vertices + np.arange(len(split_ids))
    mids = 0.5 * (mesh.vertices[mesh.edges[split_ids, 0]]
                  + mesh.vertices[mesh.edges[split_ids, 1]])
    verts = np.vstack([mesh.vertices, mids])

    tris = []
    for t in range(mesh.n_triangles):
        e0, e1, e2 = mesh.elem_edges[t]
        if not edge_marked[e0]:
            tris.append(mesh.triangles[t])
            continue
        p, a, b = mesh.triangles[t]
        m = new_vid[e0]
        # children (m, p, a) with refinement edge e2=(p,a) and
        # (m, b, p) with refinement edge e1=(b,p)
        for child, opp_edge in (((m, p, a), e2), ((m, b, p), e1)):
            if edge_marked[opp_edge]:
                cp, ca, cb = child
                mm = new_vid[opp_edge]
                tris.extend([(mm, cp, ca), (mm, cb, cp)])
            else:
                tris.append(child)
    return TriMesh(verts, np.asarray(tris, dtype=np.int64))


def einsum_nu_jump_terms(mesh, coeffs, u_D, n_points):
    """(jump_K, boundary_K) as in fields.nu_jump_terms, from the
    edge_elements oracle."""
    coeffs = np.asarray(coeffs)
    degree = int(round((np.sqrt(8 * coeffs.shape[1] + 1) - 3) / 2))
    rule = quad_rule(2 * n_points - 1, "edge")
    t, w = rule.points, rule.weights
    basis = make_scalar_basis(degree)
    # tab[j, o]: values on local edge j, o = 1 against its traversal
    tab = np.array([[basis.values(edge_ref_points(j, u))
                     for u in (t, 1.0 - t)] for j in range(3)])
    nt = mesh.n_triangles
    edge_tris, edge_local = edge_elements(mesh)
    jump_K = np.zeros(nt)
    bnd_K = np.zeros(nt)
    interior = np.nonzero(~mesh.boundary_edge)[0]
    kp = edge_tris[interior, 0]
    km = edge_tris[interior, 1]
    lp = edge_local[interior, 0]
    lm = edge_local[interior, 1]
    vp = np.einsum("ni,nqi->nq", coeffs[kp], tab[lp, 0])
    vm = np.einsum("ni,nqi->nq", coeffs[km], tab[lm, 1])
    sq = np.einsum("nq,q->n", (vp - vm) ** 2, w)
    np.add.at(jump_K, kp, 0.5 * sq)
    np.add.at(jump_K, km, 0.5 * sq)
    bdry = np.nonzero(mesh.boundary_edge)[0]
    k0 = edge_tris[bdry, 0]
    l0 = edge_local[bdry, 0]
    a0 = mesh.elem_edge_aligned[k0, l0].astype(int)
    v = np.einsum("ni,nqi->nq", coeffs[k0], tab[l0, 1 - a0])
    pts = edge_points(mesh, bdry, t)
    vals_ud = np.asarray(u_D(pts.reshape(-1, 2)), dtype=float)
    sq = np.einsum("nq,q->n", (vals_ud.reshape(len(bdry), len(t)) - v) ** 2, w)
    np.add.at(bnd_K, k0, sq)
    return jump_K, bnd_K


def einsum_flux_trace_sq(problem, solution):
    """sum over the edges of K of ||(q - q_h) . n||^2, per element, from one
    (p+5)-point pass per global edge (no subdivision: for problems without a
    singular point)."""
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    assert problem.quad_singular_point is None
    t, w, _ = edge_legendre(p, p + 5, 0)
    pts = edge_points(mesh, slice(None), t)
    qv = np.asarray(problem.exact_q(pts.reshape(-1, 2)), float)
    g = np.einsum("nqa,na->nq", qv.reshape(mesh.n_edges, len(t), 2),
                  mesh.edge_normals)
    moments = np.asarray(solution.flux)[:mesh.n_edges * (p + 1)]
    leg = _jacobi(p, 0, 2.0 * t - 1.0)[0]
    qh_n = np.einsum("em,m,mq->eq", moments.reshape(-1, p + 1),
                     2.0 * np.arange(p + 1) + 1.0, leg)
    r = g - qh_n / mesh.edge_lengths[:, None]
    sq = np.einsum("eq,q->e", r ** 2, w) * mesh.edge_lengths
    return sq[mesh.elem_edges].sum(axis=1)


def einsum_error_norms(problem, solution, post):
    """ErrorBlock from the element loop of estimators.error_norms, written
    with einsum."""
    mesh, p = solution.flux_space.mesh, solution.flux_space.p
    nt = mesh.n_triangles
    basis_nu = make_scalar_basis(p + 1)
    basis_p2 = make_scalar_basis(p + 2)
    basis_u = make_scalar_basis(p - 1)
    grad_nu_sq, grad_theta_sq = np.zeros(nt), np.zeros(nt)
    q_L2_sq, u_L2_sq, nu_L2_sq = np.zeros(nt), np.zeros(nt), np.zeros(nt)
    star_rhs = np.zeros((nt, basis_p2.size - 1))
    for ids, tables in _element_groups(mesh, problem, p):
        pts, w = tables.points, tables.weights
        flat = einsum_mapped_points(mesh, pts, ids).reshape(-1, 2)
        qv = np.asarray(problem.exact_q(flat), float).reshape(len(ids), len(w), 2)
        uv = np.asarray(problem.exact_u(flat), float).reshape(len(ids), len(w))
        J = mesh.det_jacobians[ids]
        Binv = mesh.inv_jacobians[ids]
        Dp2 = reference_grads(basis_p2, pts)

        def grad_error_sq(coeffs, D):
            g = np.einsum("ni,qib->nqb", coeffs[ids], D)
            g = np.einsum("nqb,nba->nqa", g, Binv)
            return np.einsum("nq,q,n->n", np.sum((qv + g) ** 2, axis=2), w, J)

        nu_vals = np.einsum("ni,qi->nq", post.nu[ids], basis_nu.values(pts))
        qh = einsum_flux_values(solution.flux_space, solution.flux, pts, ids)
        uh = np.einsum("ni,qi->nq", solution.scalar[ids], basis_u.values(pts))
        grad_nu_sq[ids] = grad_error_sq(post.nu,
                                        reference_grads(basis_nu, pts))
        grad_theta_sq[ids] = grad_error_sq(post.theta, Dp2)
        q_L2_sq[ids] = np.einsum("nq,q,n->n",
                                 np.sum((qv - qh) ** 2, axis=2), w, J)
        u_L2_sq[ids] = np.einsum("nq,q,n->n", (uv - uh) ** 2, w, J)
        nu_L2_sq[ids] = np.einsum("nq,q,n->n", (uv - nu_vals) ** 2, w, J)
        pulled = np.einsum("nqa,nba->nqb", qv - qh, Binv)
        star_rhs[ids] = np.einsum("nqb,qib,q,n->ni", pulled, Dp2[:, 1:], w, J)
    jump_K, bnd_K = einsum_nu_jump_terms(mesh, post.nu, problem.u_D, p + 5)
    # ||q - q_h||_{*,K} = (b^T S22^{-1} b)^{1/2}, solved directly by LU
    S22 = einsum_stiffness_tensors(mesh, p + 2, 2 * (p + 2))[:, 1:, 1:]
    x = np.linalg.solve(S22, star_rhs[..., None])[..., 0]
    return ErrorBlock(
        grad_nu_K=np.sqrt(grad_nu_sq),
        grad_theta_K=np.sqrt(grad_theta_sq),
        one_h_K=np.sqrt(grad_nu_sq + jump_K + bnd_K),
        q_L2_K=np.sqrt(q_L2_sq),
        q_trace_K=np.sqrt(mesh.h_K * einsum_flux_trace_sq(problem, solution)),
        q_star_K=np.sqrt(np.einsum("ni,ni->n", star_rhs, x)),
        u_L2=float(np.sqrt(u_L2_sq.sum())),
        nu_L2=float(np.sqrt(nu_L2_sq.sum())))
