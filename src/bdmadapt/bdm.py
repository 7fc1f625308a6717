"""BDM H(div)-conforming flux spaces and discontinuous scalar spaces.

Reference shape functions of degree p are the nodal (dual) basis of these
functionals on the full vector polynomial space (P_p)^2:

  * per edge, moments of q.n against shifted Legendre polynomials of degree
    0..p in the edge traversal parameter (p+1 per edge);
  * for p >= 2, interior moments against gradients of mean-free scalars of
    degree <= p-1 and against curl(bubble * w) for w of degree <= p-2.

Physical shape functions are contravariant (Piola) push-forwards, which
preserve edge normal moments exactly, so a single global degree of freedom
per (edge, moment) with per-element sign factors yields single-valued normal
traces.  Global edges are oriented from the lower to the higher vertex index;
an element whose local traversal runs against that direction picks up the
sign (-1)^(m+1) on moment m.
"""

from functools import lru_cache

import numpy as np
from scipy.special import eval_legendre

from .basis import basis_size, make_scalar_basis, quad_rule
from .fields import (coeff_contract, edge_points, edge_ref_points,
                     mapped_points, scalar_tables)
from .mesh import TriMesh

_REF_NORMALS = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_REF_NORMALS[0] /= np.sqrt(2.0)
_REF_EDGE_LEN = np.array([np.sqrt(2.0), 1.0, 1.0])


def local_dimension(p: int) -> int:
    return (p + 1) * (p + 2)


def interior_dof_count(p: int) -> int:
    return p * p - 1 if p >= 2 else 0


def shifted_legendre(m, t):
    return eval_legendre(m, 2.0 * np.asarray(t, dtype=float) - 1.0)


def _bubble_and_grad(pts):
    x, y = pts[:, 0], pts[:, 1]
    b = x * y * (1.0 - x - y)
    db = np.stack([y * (1.0 - 2.0 * x - y), x * (1.0 - x - 2.0 * y)], axis=1)
    return b, db


def _interior_test_fields(p: int, pts) -> np.ndarray:
    """Interior functional fields at pts; shape (nq, n_interior, 2)."""
    n_int = interior_dof_count(p)
    pts = np.asarray(pts, dtype=float)
    out = np.empty((len(pts), n_int, 2))
    if n_int == 0:
        return out
    zm_grads = make_scalar_basis(p - 1).grads(pts)[:, 1:]
    n_zm = zm_grads.shape[1]
    out[:, :n_zm, :] = zm_grads
    wbas = make_scalar_basis(p - 2)
    b, db = _bubble_and_grad(pts)
    wv = wbas.values(pts)
    wg = wbas.grads(pts)
    # curl(b*w) = (d_y(b w), -d_x(b w))
    gx = wv * db[:, 0:1] + b[:, None] * wg[:, :, 0]
    gy = wv * db[:, 1:2] + b[:, None] * wg[:, :, 1]
    out[:, n_zm:, 0] = gy
    out[:, n_zm:, 1] = -gx
    return out


@lru_cache(maxsize=None)
def _bdm_reference(p: int):
    """Nodal coefficient matrix of the reference shape functions.

    Returns (coeffs, cond) where column l of coeffs holds the coefficients of
    shape function l over the primal basis [(phi_i, 0)] + [(0, phi_i)].
    """
    if p < 1:
        raise ValueError("BDM degree must be >= 1")
    s = basis_size(p)
    N = 2 * s
    basis = make_scalar_basis(p)
    V = np.zeros((N, N))
    row = 0
    erule = quad_rule(2 * p + 3, "edge")
    t, w = erule.points, erule.weights
    for j in range(3):
        phi = basis.values(edge_ref_points(j, t))
        for m in range(p + 1):
            base = _REF_EDGE_LEN[j] * np.einsum(
                "q,qi->i", w * shifted_legendre(m, t), phi)
            V[row, :s] = _REF_NORMALS[j, 0] * base
            V[row, s:] = _REF_NORMALS[j, 1] * base
            row += 1
    if p >= 2:
        trule = quad_rule(2 * p + 2, "triangle")
        phi = basis.values(trule.points)
        theta = _interior_test_fields(p, trule.points)
        for k in range(interior_dof_count(p)):
            V[row, :s] = np.einsum("q,qi->i", trule.weights * theta[:, k, 0], phi)
            V[row, s:] = np.einsum("q,qi->i", trule.weights * theta[:, k, 1], phi)
            row += 1
    cond = np.linalg.cond(V)
    if not np.isfinite(cond) or cond > 1e10:
        raise ArithmeticError(f"BDM degree-{p} functional matrix is ill posed")
    coeffs = np.linalg.inv(V)
    coeffs.setflags(write=False)
    return coeffs, cond


def reference_shape_values(p: int, pts) -> np.ndarray:
    """Reference shape function values; shape (npts, local_dim, 2)."""
    coeffs, _ = _bdm_reference(p)
    s = basis_size(p)
    phi = make_scalar_basis(p).values(pts)
    return np.stack([phi @ coeffs[:s, :], phi @ coeffs[s:, :]], axis=-1)


def reference_shape_divs(p: int, pts) -> np.ndarray:
    """Reference divergences of the shape functions; shape (npts, local_dim)."""
    coeffs, _ = _bdm_reference(p)
    s = basis_size(p)
    g = make_scalar_basis(p).grads(pts)
    return g[:, :, 0] @ coeffs[:s, :] + g[:, :, 1] @ coeffs[s:, :]


@lru_cache(maxsize=None)
def bdm_tables(p: int, exactness: int):
    """(rule, shape values (nq, nloc, 2), divergences (nq, nloc))."""
    rule = quad_rule(exactness, "triangle")
    Nh = reference_shape_values(p, rule.points)
    dNh = reference_shape_divs(p, rule.points)
    Nh.setflags(write=False)
    dNh.setflags(write=False)
    return rule, Nh, dNh


class DgSpace:
    """Elementwise discontinuous scalar space of total degree k."""

    def __init__(self, mesh: TriMesh, degree: int):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.mesh = mesh
        self.degree = degree
        self.local_dim = basis_size(degree)
        self.n_dofs = mesh.n_triangles * self.local_dim

    def coeffs_by_element(self, vec) -> np.ndarray:
        return np.asarray(vec).reshape(self.mesh.n_triangles, self.local_dim)

    def load_vector(self, f, exactness: int) -> np.ndarray:
        rule, V, _ = scalar_tables(self.degree, exactness)
        pts = mapped_points(self.mesh, rule.points)
        vals = np.asarray(f(pts.reshape(-1, 2)), dtype=float).reshape(pts.shape[:2])
        F = ((vals * rule.weights) @ V) * self.mesh.det_jacobians[:, None]
        return F.ravel()


class BdmSpace:
    """Degree-p BDM space on a mesh with oriented shared edge DOFs."""

    def __init__(self, mesh: TriMesh, p: int):
        if p < 1:
            raise ValueError("BDM degree must be >= 1")
        self.mesh = mesh
        self.p = p
        self.local_dim = local_dimension(p)
        self.edge_dofs_per_edge = p + 1
        self.n_interior = interior_dof_count(p)
        self.n_edge_dofs = mesh.n_edges * (p + 1)
        self.n_dofs = self.n_edge_dofs + mesh.n_triangles * self.n_interior
        self._build_dof_map()

    def _build_dof_map(self):
        mesh, p = self.mesh, self.p
        nt = mesh.n_triangles
        l2g = np.empty((nt, self.local_dim), dtype=np.int64)
        sig = np.ones((nt, self.local_dim))
        m = np.arange(p + 1)
        for j in range(3):
            cols = slice(j * (p + 1), (j + 1) * (p + 1))
            l2g[:, cols] = mesh.elem_edges[:, j:j + 1] * (p + 1) + m[None, :]
            flip = ~mesh.elem_edge_aligned[:, j]
            sig[flip, cols] = ((-1.0) ** (m + 1))[None, :]
        if self.n_interior:
            base = self.n_edge_dofs + np.arange(nt)[:, None] * self.n_interior
            l2g[:, 3 * (p + 1):] = base + np.arange(self.n_interior)[None, :]
        self.l2g = l2g
        self.signs = sig

    def local_coeffs(self, vec) -> np.ndarray:
        """Per-element reference coefficients, orientation signs applied."""
        return np.asarray(vec)[self.l2g] * self.signs

    def eval_flux(self, coeffs, element: int, pts) -> np.ndarray:
        """Physical flux values of a global coefficient vector at reference pts."""
        coeffs = np.asarray(coeffs)
        if coeffs.shape != (self.n_dofs,):
            raise ValueError(f"expected {self.n_dofs} coefficients")
        if not 0 <= element < self.mesh.n_triangles:
            raise IndexError(f"element {element} out of range")
        return self.flux_values(coeffs, pts, [element])[0]

    def flux_values(self, coeffs, ref_pts, ids=slice(None)) -> np.ndarray:
        """Batched physical flux values (n, nq, 2) at shared reference points
        (on elements ids, default all)."""
        Nh = reference_shape_values(self.p, ref_pts)
        c = np.asarray(coeffs)[self.l2g[ids]] * self.signs[ids]
        # Piola push-forward B N / J, a row map by B^T / J
        BT = np.swapaxes(self.mesh.jacobians[ids], 1, 2)
        return np.matmul(coeff_contract(c, Nh),
                         BT / self.mesh.det_jacobians[ids][:, None, None])

    def interpolate(self, q) -> np.ndarray:
        """Canonical interpolation of a smooth vector field q(x) -> (n, 2)."""
        mesh, p = self.mesh, self.p
        exact = 2 * p + 8
        erule = quad_rule(exact, "edge")
        t, w = erule.points, erule.weights
        pts = edge_points(mesh, slice(None), t)
        qv = np.asarray(q(pts.reshape(-1, 2)), dtype=float).reshape(
            mesh.n_edges, len(t), 2)
        qn = (qv @ mesh.edge_normals[:, :, None])[..., 0]
        leg = np.stack([shifted_legendre(m, t) for m in range(p + 1)])
        dofs = np.empty(self.n_dofs)
        edge_part = ((qn * w) @ leg.T) * mesh.edge_lengths[:, None]
        dofs[: self.n_edge_dofs] = edge_part.ravel()
        if self.n_interior:
            trule = quad_rule(exact, "triangle")
            theta = _interior_test_fields(p, trule.points)
            phys = mapped_points(mesh, trule.points)
            qv = np.asarray(q(phys.reshape(-1, 2)), dtype=float).reshape(
                mesh.n_triangles, len(trule.weights), 2)
            # contravariant pull-back J B^{-1} q
            JBinvT = mesh.det_jacobians[:, None, None] * np.swapaxes(
                mesh.inv_jacobians, 1, 2)
            qhat = np.matmul(qv, JBinvT) * trule.weights[:, None]
            vals = qhat.reshape(mesh.n_triangles, -1) @ np.swapaxes(
                theta, 1, 2).reshape(-1, theta.shape[1])
            dofs[self.n_edge_dofs:] = vals.ravel()
        return dofs


def element_mass_matrices(space: BdmSpace) -> np.ndarray:
    """Element flux mass matrices (n_elements, nloc, nloc), globally oriented."""
    p = space.p
    rule, Nh, _ = bdm_tables(p, 2 * (p + 2))
    Rm = np.einsum("q,qia,qjb->abij", rule.weights, Nh, Nh)
    B, J = space.mesh.jacobians, space.mesh.det_jacobians
    T = np.einsum("nca,ncb->nab", B, B) / J[:, None, None]
    nloc = Rm.shape[-1]
    Mloc = (T.reshape(-1, 4) @ Rm.reshape(4, -1)).reshape(-1, nloc, nloc)
    Mloc *= space.signs[:, :, None] * space.signs[:, None, :]
    return Mloc


def element_divergence_matrices(space: BdmSpace, scalar: DgSpace) -> np.ndarray:
    """Element blocks (n_elements, s, nloc) of (div N_l, psi_i), globally oriented.

    The scalar space must have degree p-1; the reference pairing is geometry
    independent because the 1/J of the Piola divergence cancels the Jacobian.
    """
    if scalar.degree != space.p - 1:
        raise ValueError(
            f"scalar degree {scalar.degree} does not match flux degree "
            f"{space.p} (expected {space.p - 1})")
    if scalar.mesh is not space.mesh:
        raise ValueError("spaces live on different meshes")
    p = space.p
    rule, _, dNh = bdm_tables(p, 2 * (p + 2))
    _, V, _ = scalar_tables(scalar.degree, 2 * (p + 2))
    D0 = np.einsum("q,qi,ql->il", rule.weights, V, dNh)
    return D0[None, :, :] * space.signs[:, None, :]


def element_advection_matrices(space: BdmSpace, scalar: DgSpace,
                               beta) -> np.ndarray:
    """Element blocks (n_elements, s, nloc) of (beta . N_l, psi_i), constant beta."""
    p = space.p
    rule, Nh, _ = bdm_tables(p, 2 * (p + 2))
    _, V, _ = scalar_tables(scalar.degree, 2 * (p + 2))
    Rc = np.einsum("q,qi,qla->ila", rule.weights, V, Nh)
    Btb = np.einsum("nba,b->na", space.mesh.jacobians, np.asarray(beta, float))
    vals = (Btb @ Rc.transpose(2, 0, 1).reshape(2, -1)).reshape(
        -1, *Rc.shape[:2])
    vals *= space.signs[:, None, :]
    return vals


def interpolate_boundary_term(space: BdmSpace, u_D) -> np.ndarray:
    """Load vector with entries -<u_D, N_j . n> over the domain boundary.

    Only boundary-edge DOFs receive contributions.  The normal trace of the
    global (edge e, moment m) basis function against the outward normal is
    +-(2m+1) L_m(t)/|e| depending on whether the owning element traverses e
    with the global orientation, so each entry reduces to a 1D moment of u_D.
    """
    mesh, p = space.mesh, space.p
    g = np.zeros(space.n_dofs)
    bdry = np.nonzero(mesh.boundary_edge)[0]
    if bdry.size == 0:
        return g
    rule = quad_rule(2 * p + 9, "edge")
    t, w = rule.points, rule.weights
    pts = edge_points(mesh, bdry, t)
    ud = np.asarray(u_D(pts.reshape(-1, 2)), dtype=float).reshape(len(bdry), len(t))
    owner = mesh.edge_tris[bdry, 0]
    local = mesh.edge_local[bdry, 0]
    sigma = np.where(mesh.elem_edge_aligned[owner, local], 1.0, -1.0)
    m = np.arange(p + 1)
    mom = ud @ (w * shifted_legendre(m[:, None], t)).T
    g[bdry[:, None] * (p + 1) + m] = -(sigma[:, None] * (2 * m + 1)) * mom
    return g
