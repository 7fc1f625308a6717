"""Reference tables and the batched element-level kernels shared by
assembly, postprocessing and norms.

Scalar fields live elementwise as coefficient rows (n_elements, basis size)
with respect to the orthonormal reference basis composed with the inverse
affine map; fluxes as signed rows (n_elements, nloc) of the BDM(p) reference
shapes under the Piola map.

One cached function, ref_tables(p, kind), tabulates the degree-p method at
the rule of one job, which p fixes: "local" (element matrices and the
indicator, exactness 2(p + 2)), "data" (problem data, the dual norm and the
exact errors, 2p + 8), "region" (the data rule subdivided once), "singular"
(the graded data rule) or "edge" (the 2p + 9 edge rule of the jump terms,
on the six (local edge, orientation) variants).  One run of the Dubiner
recurrence gives the values and gradients of the scalars up to degree
p + 2, and the BDM(p) shapes and divergences follow from their nodal
coefficients (basis.bdm_reference).  Each table is cached read-only and
coefficient-major, one row per basis function:

    V (s, nq), D (s, 2 nq), N (nloc, 2 nq), div (nloc, nq),

a 2-vector column pair being (point, component).  The bases are
hierarchical, so a degree-k field at the points is coeffs @ V[:basis_size(k)],
one GEMM on a row-slice view of the cached array, and the product of D or N
reshapes to (n, nq, 2) without a copy.  The derived reference tables (the
stiffness, mass, divergence and load pairings) are products of the same
arrays.  The kernels are built from two operations:

  * a contraction of element-batched rows against a table is one dense
    matrix product (a load against a table is the transposed product), so
    it runs in BLAS;
  * a per-element 2x2 geometry factor M (Jacobian, its inverse, a metric)
    acts on row 2-vectors v (n, nq, 2) as one np.matmul(v, M): the written-out
    v0 M[0] + v1 M[1] runs ufunc loops of length 2, over ten times slower.

Point maps are the exception: the reference points are shared by every
element, so mapped_points is one GEMM of the Jacobian rows (n, 4) against a
(4, 2 nq) table of the points, and edge_points one outer product per
component.  A broadcast np.matmul((1, nq, 2), (n, 2, 2)) gives the same bits
3-5 times slower; v0 is added afterwards, since folding it into the GEMM as a
fifth row changes the last bit.

einsum only builds the reference tables.  Element matrices that depend on
the geometry only through the element's shape (TriMesh.metric) are built
from the metric of each shape class (ElementClasses) and applied as one
batched matrix product over fixed-length class chunks.
Results do not depend on element visitation order.

The load vector and the exact errors evaluate the problem callables and
their per-point kernels on blocks of whole elements or edges
(point_blocks), at most BLOCK_POINTS points each, so that their temporaries
do not grow with the mesh.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import (basis_size, bdm_reference, edge_ref_points,
                    make_scalar_basis, quad_rule)
from .mesh import TriMesh


def tabulate(p: int, pts):
    """Coefficient-major tables at reference points pts (nq, 2) from one
    evaluation of the degree-(p+2) scalar basis: values V (s, nq), gradients
    D (s, 2 nq), BDM(p) shapes N (nloc, 2 nq) and their divergences div
    (nloc, nq); a 2-vector column pair is (point, component) flattened."""
    V, G = make_scalar_basis(p + 2).tabulate(pts)
    C, s = bdm_reference(p), basis_size(p)
    N = np.stack([C[:s].T @ V[:s], C[s:].T @ V[:s]], axis=-1)
    div = C[:s].T @ G[:s, :, 0] + C[s:].T @ G[:s, :, 1]
    return V, G.reshape(len(G), -1), N.reshape(len(N), -1), div


@dataclass(frozen=True, eq=False)
class RefTables:
    """The tables of tabulate at the points of one rule, read-only.

    weights are the rule's weights.  For the edge variants, points and the
    table columns run over (local edge, orientation, edge point) and weights
    over the edge points of one variant.
    """

    points: np.ndarray
    weights: np.ndarray
    V: np.ndarray
    D: np.ndarray
    N: np.ndarray
    div: np.ndarray


def _job_rule(p: int, kind: str):
    """The quadrature rule of the job kind at degree p (see ref_tables)."""
    jobs = {"local": ("triangle", 2 * (p + 2)),
            "data": ("triangle", 2 * p + 8),
            "region": ("subdivided triangle", 2 * p + 8),
            "singular": ("graded triangle", 2 * p + 8),
            "edge": ("edge", 2 * p + 9)}
    if kind not in jobs:
        raise ValueError(f"unknown point set {kind!r}")
    variant, exactness = jobs[kind]
    return quad_rule(exactness, variant)


@lru_cache(maxsize=None)
def ref_tables(p: int, kind: str) -> RefTables:
    """The degree-p reference tables of the rule of the job kind (see the
    module docstring), built once.  The "edge" tables run over the 6 (local
    edge, orientation) variants, orientation 1 against the local traversal.
    """
    rule = _job_rule(p, kind)
    pts, w = rule.points, rule.weights
    if kind == "edge":
        pts = np.vstack([edge_ref_points(j, u) for j in range(3)
                         for u in (pts, 1.0 - pts)])
    tables = RefTables(pts, w, *tabulate(p, pts))
    for a in vars(tables).values():
        a.setflags(write=False)
    return tables


@lru_cache(maxsize=None)
def curl_outer_tables(p: int):
    """R[a, b, i, j] = sum_q w_q c_a phi_i c_b phi_j on the reference element,
    for the curls c = (-d_y, d_x) of the degree-(p+2) scalars phi at the
    "local" rule."""
    T = ref_tables(p, "local")
    C = T.D.reshape(-1, len(T.weights), 2)[..., ::-1] * [-1.0, 1.0]
    R = np.einsum("q,iqa,jqb->abij", T.weights, C, C)
    R.setflags(write=False)
    return R


# The load vector and the exact-error pass call the problem callables and
# their per-point kernels on blocks of at most this many points, so that
# their temporaries stay bounded while the mesh grows and the factor of the
# multiplier system sets the memory peak (CHANGES.md has the measurement).
BLOCK_POINTS = 2 ** 16


def point_blocks(n: int, n_points: int) -> list:
    """Consecutive slices of range(n), over items (elements or edges) of
    n_points quadrature points each, of at most BLOCK_POINTS points.

    Every block but the last has step items, a multiple of 64 when step
    reaches 64, and the last one takes the rest, step to 2 step - 1 items
    (or all n).  The values per item are then those of one product over all
    n: the BLAS chooses its kernel by the shape of a product (a single row,
    or a few rows against a narrow table, take other kernels) and treats
    the rows past the last full unroll apart, so a block keeps both the
    size class of the whole product and its row offsets modulo 64.
    """
    step = max(1, BLOCK_POINTS // (2 * n_points))
    if step >= 64:
        step -= step % 64
    bounds = [i * step for i in range(max(1, n // step))] + [n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


def field_values(fn, pts, name: str, vector: bool = False) -> np.ndarray:
    """A problem callable at points (..., 2), called once on the flat (n, 2)
    batch; it must return finite values of shape (n,), or (n, 2) if vector.
    The load and the exact errors make one call per block of point_blocks.
    """
    pts = np.asarray(pts, dtype=float)
    flat = pts.reshape(-1, 2)
    vals = np.asarray(fn(flat), dtype=float)
    want = flat.shape if vector else flat.shape[:1]
    if vals.shape != want:
        raise ValueError(f"{name} returned shape {vals.shape} for "
                         f"{len(flat)} points; expected {want}")
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"{name} returned non-finite values")
    return vals.reshape(pts.shape if vector else pts.shape[:-1])


def stiffness_tensors(p: int, metric) -> np.ndarray:
    """Stiffness matrices (n, s - 1, s - 1) of the mean-free degree-(p+2)
    scalars on elements of metrics T (n, 2, 2): gradients pair by T^{-1} =
    J B^-1 B^-T, which is rot T rot^T as det T = 1, so T pairs the curls.
    Row and column 0 of the full basis, the constant's, are dropped."""
    R = curl_outer_tables(p)
    s = R.shape[-1]
    return (metric.reshape(-1, 4)
            @ R.reshape(4, s * s)).reshape(-1, s, s)[:, 1:, 1:]


class ElementClasses:
    """The elements of a mesh grouped into shape classes.

    The element blocks of the mixed system and the scalar stiffnesses depend
    on the geometry only through the metric T = B^T B / J, which is scale and
    rotation free, and, with an advection vector beta, through B^T beta;
    orientation signs are applied per element.
    Elements whose key agrees to 12 digits share one class: the key is T, to
    which beta != 0 adds B^T beta / (|beta| sqrt J) and log2 J.  Newest-vertex
    bisection keeps the number of classes small; a mesh whose elements all
    differ has one class per element.

    id (n_elements,) is the class of each element and reps (n_classes,) the
    representative element of each class (its lowest id); metric (n_classes,
    2, 2) and drift (n_classes, 2), T and B^T beta of the representatives,
    are all the geometry of a class's blocks and stiffness (bdm.mixed_blocks,
    stiffness_tensors).  For matmul each class is cut into chunks of L =
    ceil(n_elements / n_classes) rows, at most 2 n_classes chunks padded to
    at most 2 n_elements + n_classes rows: chunk_class (n_chunks,) is the
    class of each chunk, slot (n_elements,) the row of each element in the
    padded (n_chunks L) buffer and source (n_chunks L,) the element of each
    buffer row (element 0 on padding).
    """

    def __init__(self, mesh: TriMesh, beta=(0.0, 0.0)):
        B, J, T = mesh.jacobians, mesh.det_jacobians, mesh.metric
        Btb = np.matmul(np.asarray(beta, dtype=float), B)
        key = [T[:, 0, 0], T[:, 0, 1], T[:, 1, 1]]
        size = float(np.hypot(*beta))
        if size:
            key += [*(Btb / (size * np.sqrt(J)[:, None])).T, np.log2(J)]
        key = np.round(np.stack(key), 12)
        order = np.lexsort(key[::-1])
        ordered = key[:, order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
        self.id = np.empty(len(order), dtype=np.int64)
        self.id[order] = np.cumsum(first) - 1
        starts = np.flatnonzero(first)
        self.reps = order[starts]
        self.metric, self.drift = T[self.reps], Btb[self.reps]
        # chunk the class-sorted rows: row j of class c goes to chunk
        # offset[c] + j // L, row j % L
        counts = np.diff(np.append(starts, len(order)))
        self.chunk_rows = L = -(-len(order) // len(starts))
        per_class = -(-counts // L)
        self.chunk_class = np.repeat(np.arange(len(starts)), per_class)
        offset = np.cumsum(per_class) - per_class
        j = np.arange(len(order)) - np.repeat(starts, counts)
        self.slot = np.empty(len(order), dtype=np.int64)
        self.slot[order] = np.repeat(offset * L, counts) + j
        self.source = np.zeros(len(self.chunk_class) * L, dtype=np.int64)
        self.source[self.slot] = np.arange(len(order))

    def matmul(self, mats, x) -> np.ndarray:
        """Rows y_K = mats[id_K] @ x_K (n_elements, r) of rows x (n_elements,
        k) and class matrices mats (n_classes, r, k): one gather into the
        padded chunk buffer, one batched GEMM against the matrices of the
        chunks, one gather back.  The padding rows are copies of row 0 (a
        gather is faster than zeroing and scattering) whose products are
        dropped."""
        if len(mats) == 1:
            return x @ mats[0].T
        n_chunks, L = len(self.chunk_class), self.chunk_rows
        ys = np.matmul(x[self.source].reshape(n_chunks, L, -1),
                       mats[self.chunk_class].swapaxes(1, 2))
        return ys.reshape(n_chunks * L, -1)[self.slot]


def edge_points(mesh: TriMesh, edge_ids, t, from_end=None) -> np.ndarray:
    """Physical points (n, nq, 2) at parameters t along global edges, in
    their stored direction.

    A node t near 1 has lost the digits of 1 - t, the distance to the second
    end, that a field singular there needs.  For a rule t symmetric about
    1/2, the point at t_q is also hi - d t_(nq-1-q): the edges of the mask
    from_end (n,) are sampled that way, from their second end.
    """
    lo = mesh.vertices[mesh.edges[edge_ids, 0]]
    hi = mesh.vertices[mesh.edges[edge_ids, 1]]
    d = hi - lo
    t = np.asarray(t)
    out = np.empty((len(lo), len(t), 2))
    for c in range(2):
        np.add(np.multiply.outer(d[:, c], t), lo[:, c, None], out=out[..., c])
    if from_end is not None:
        out[from_end] = hi[from_end, None] - d[from_end, None] * t[::-1, None]
    return out


def mapped_points(mesh: TriMesh, ref_pts, ids=slice(None)) -> np.ndarray:
    """Physical images (n, nq, 2) of shared reference points (on elements
    ids, default all)."""
    ref = np.asarray(ref_pts, dtype=float)
    # table[(a, b), (q, c)] = ref[q, b] [a == c], so row (a, b) of B picks
    # B[a, b] ref[q, b] into component a
    table = np.zeros((2, 2, len(ref), 2))
    table[0, :, :, 0] = table[1, :, :, 1] = ref.T
    out = (mesh.jacobians[ids].reshape(-1, 4)
           @ table.reshape(4, -1)).reshape(-1, len(ref), 2)
    v0 = mesh.tri_coords[ids, 0]
    out[..., 0] += v0[:, 0, None]
    out[..., 1] += v0[:, 1, None]
    return out


# -- interior-edge jumps and boundary traces of elementwise scalar fields ----


def nu_jump_terms(mesh: TriMesh, coeffs, u_D, p: int):
    """Scaled squared traces of an elementwise field of degree <= p + 2
    across and along edges, by the (p + 5)-point Gauss rule of the "edge" job.

    Returns (jump_K, boundary_K): jump_K accumulates, per element, half of
    h_F^{-1} ||[field]||_F^2 over its interior edges; boundary_K accumulates
    h_F^{-1} ||u_D - field||_F^2 over its boundary edges.
    """
    coeffs = np.asarray(coeffs)
    tables = ref_tables(p, "edge")
    t, w = _job_rule(p, "edge").points, tables.weights
    # every element's field on all 6 (local edge, orientation) variants
    vals = (coeffs @ tables.V[:coeffs.shape[1]]).reshape(-1, 3, 2, len(t))
    aligned = mesh.elem_edge_aligned
    # slot 0 of an edge holds the trace of K+, slot 1 that of K-, both in
    # the global edge direction; a boundary edge fills one slot
    sides = np.zeros((mesh.n_edges, 2, len(t)))
    sides[mesh.elem_edges, (~aligned).astype(np.intp)] = np.where(
        aligned[..., None], vals[:, :, 0], vals[:, :, 1])

    bdry = mesh.boundary_edge
    # h_F^{-1} ||jump||_F^2: the 1/h_F weight cancels the |e| of ds = |e| dt
    jump = np.zeros(mesh.n_edges)
    jump[~bdry] = 0.5 * ((sides[~bdry, 0] - sides[~bdry, 1]) ** 2 @ w)
    bnd = np.zeros(mesh.n_edges)
    vals_ud = field_values(u_D, edge_points(mesh, bdry, t), "u_D")
    bnd[bdry] = (vals_ud - sides[bdry].sum(axis=1)) ** 2 @ w
    return jump[mesh.elem_edges].sum(axis=1), bnd[mesh.elem_edges].sum(axis=1)

