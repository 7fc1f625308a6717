"""BDM H(div)-conforming flux spaces and the load of the paired scalars.

Reference shape functions of degree p are the nodal (dual) basis of these
functionals on the full vector polynomial space (P_p)^2 (their coefficients
are basis.bdm_reference, their tables at quadrature points fields.ref_tables):

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

from .basis import _jacobi, basis_size, quad_rule
from .fields import (edge_points, field_values, mapped_points,
                     point_blocks, ref_tables)
from .mesh import TriMesh


def local_dimension(p: int) -> int:
    return (p + 1) * (p + 2)


def interior_dof_count(p: int) -> int:
    return p * p - 1 if p >= 2 else 0


@lru_cache(maxsize=None)
def edge_legendre(p: int, n_points: int, graded: bool):
    """(t, w, L), read-only: the n-point Gauss rule on [0, 1], or with graded
    the graded edge rule of the same exactness (quad_rule "graded edge",
    for edges that end at a singular point), and L[m, q] = L_m(2 t_q - 1),
    m = 0..p.

    Row m of the recurrence does not depend on p, so the tables of every p
    agree bitwise on their common rows.
    """
    rule = quad_rule(2 * n_points - 1, "graded edge" if graded else "edge")
    t, w = rule.points, rule.weights
    L = _jacobi(p, 0, 2.0 * t - 1.0)[0]
    L.setflags(write=False)
    return t, w, L


def load_vector(mesh: TriMesh, p: int, f) -> np.ndarray:
    """Loads (f, psi_i)_K (n_elements, s) of the degree-(p-1) scalars that
    pair with the BDM(p) fluxes; f is weighted block by block, the load is
    one GEMM."""
    T = ref_tables(p, "data")
    vals = np.empty((mesh.n_triangles, len(T.weights)))
    for b in point_blocks(mesh.n_triangles, len(T.weights)):
        np.multiply(field_values(f, mapped_points(mesh, T.points, b), "f"),
                    T.weights, out=vals[b])
    return (vals @ T.V[:basis_size(p - 1)].T) * mesh.det_jacobians[:, None]


class BdmSpace:
    """Degree-p BDM space on a mesh with oriented shared edge DOFs."""

    def __init__(self, mesh: TriMesh, p: int):
        if p < 1:
            raise ValueError("BDM degree must be >= 1")
        self.mesh = mesh
        self.p = p
        self.local_dim = local_dimension(p)
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

    def flux_values(self, coeffs, N, ids=slice(None)) -> np.ndarray:
        """Batched physical flux values (n, nq, 2) from the reference shape
        table N (local_dim, 2 nq) of tabulate at shared points (on elements
        ids, default all)."""
        c = np.asarray(coeffs)[self.l2g[ids]] * self.signs[ids]
        # Piola push-forward B N / J, a row map by B^T / J
        BT = np.swapaxes(self.mesh.jacobians[ids], 1, 2)
        return np.matmul((c @ N).reshape(len(c), -1, 2),
                         BT / self.mesh.det_jacobians[ids][:, None, None])


@lru_cache(maxsize=None)
def _mixed_tables(p: int):
    """Reference tables of the element blocks of degree p: mass Rm (2, 2,
    nloc, nloc), divergence D (s, nloc) and advection Rc (2, s, nloc)."""
    T = ref_tables(p, "local")
    w, V = T.weights, T.V[:basis_size(p - 1)]
    N = T.N.reshape(len(T.N), len(w), 2)
    Rm = np.einsum("q,iqa,jqb->abij", w, N, N)
    D = np.einsum("q,iq,lq->il", w, V, T.div)
    Rc = np.einsum("q,iq,lqa->ail", w, V, N)
    for table in (Rm, D, Rc):
        table.setflags(write=False)
    return Rm, D, Rc


def mixed_blocks(p: int, metric, drift) -> np.ndarray:
    """Element blocks [[M, -D^T], [D - C, 0]] (n, m, m) of degree p in the
    local orientation, m = flux + scalar local dimensions, of n elements
    with metrics B^T B / J (n, 2, 2) and drifts B^T beta (n, 2)
    (fields.ElementClasses holds both per shape class).

    The globally oriented block of element K is Sigma_K A Sigma_K with
    Sigma_K = diag(signs[K], 1) (BdmSpace.signs).  The Piola mass is linear
    in the metric, the advection block (beta . N_l, psi_i) in the drift,
    and the divergence block (div N_l, psi_i) of the degree-(p-1) scalars is
    geometry free: the 1/J of the Piola divergence cancels the Jacobian.
    """
    Rm, D, Rc = _mixed_tables(p)
    s, nloc = D.shape
    A = np.zeros((len(metric), nloc + s, nloc + s))
    A[:, :nloc, :nloc] = (metric.reshape(-1, 4) @ Rm.reshape(4, -1)).reshape(
        -1, nloc, nloc)
    A[:, :nloc, nloc:] = -D.T
    A[:, nloc:, :nloc] = D - (drift @ Rc.reshape(2, -1)).reshape(-1, s, nloc)
    return A


def interpolate_boundary_term(space: BdmSpace, u_D) -> np.ndarray:
    """Load vector with entries -<u_D, N_j . n> over the domain boundary.

    Only boundary-edge DOFs receive contributions.  The normal trace of the
    global (edge e, moment m) basis function against the outward normal is
    +-(2m+1) L_m(t)/|e| depending on whether the owning element traverses e
    with the global orientation, so each entry reduces to a 1D moment of u_D.
    """
    mesh, p = space.mesh, space.p
    g = np.zeros(space.n_dofs)
    owner, local = np.nonzero(mesh.boundary_edge[mesh.elem_edges])
    bdry = mesh.elem_edges[owner, local]
    t, w, leg = edge_legendre(p, p + 5, False)
    ud = field_values(u_D, edge_points(mesh, bdry, t), "u_D")
    sigma = np.where(mesh.elem_edge_aligned[owner, local], 1.0, -1.0)
    m = np.arange(p + 1)
    mom = ud @ (w * leg).T
    g[bdry[:, None] * (p + 1) + m] = -(sigma[:, None] * (2 * m + 1)) * mom
    return g
