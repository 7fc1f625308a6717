"""Biorthogonal edge functions and the normal-trace projection for degree 1.

Per edge (P, Q) of the reference triangle, the three cubic bubbles
lamP lamQ, lamP^2 lamQ and lamP lamQ^2 in the barycentric coordinates of the
endpoints vanish on the two other edges.  Two combinations of them, the
columns of the solution of one 3x3 floating-point system with closed-form
factorial entries, are biorthogonal to the edge trace basis and mean-free
on the element.  Composing with the inverse affine map and scaling the trace
basis per edge yields

    int_{dK} phi_i psi_j = xi_K delta_ij,    xi_K = |dK| / |dK_ref|,

on arbitrary triangles.  The induced projection Pi_{dK} v = sum alpha_j psi_j
with alpha_j = (1/xi_K) int_{dK} phi_j v preserves all degree-1 normal-flux
moments and is bounded on L2 of the boundary.

Every check runs on a TriMesh and takes its geometry from it (edge lengths,
affine maps, stiffnesses, angles), batched over the elements: the random
sample is one mesh of n disjoint triangles, and a single triangle is a
one-element mesh.  Per-element results carry the element as leading axis.
"""

from dataclasses import dataclass
import math

import numpy as np

from .basis import (REF_VERTICES, _jacobi, edge_ref_points, make_scalar_basis,
                    quad_rule)
from .bdm import edge_legendre
from .fields import field_values, mapped_points, stiffness_tensors
from .mesh import TriMesh, _LOCAL_EDGE_VERTS

REF_PERIMETER = 2.0 + math.sqrt(2.0)

# exponents (a, b) of the edge bubbles lamP^a lamQ^b
_BUBBLE_EXPONENTS = ((1, 1), (2, 1), (1, 2))


def _edge_system_matrix() -> np.ndarray:
    """The 3x3 system pairing the edge bubbles with trace moments and the mean.

    Column k is the bubble lamP^a lamQ^b, whose edge trace is (1-t)^a t^b.
    With I = a! b! / (a+b+2)! its element integral (row 3), the trace has
    moment 0 int_0^1 (1-t)^a t^b dt = (a+b+2) I (row 1) and moment 1
    3 int_0^1 (2t-1) (1-t)^a t^b dt = 3(b-a) I (row 2).  Each entry is one
    rounded division of integers.
    """
    cols = []
    for a, b in _BUBBLE_EXPONENTS:
        num = math.factorial(a) * math.factorial(b)
        den = math.factorial(a + b + 2)
        cols.append(((a + b + 2) * num / den, 3 * (b - a) * num / den,
                     num / den))
    return np.array(cols).T


@dataclass
class BiorthogonalSet:
    """Reference data of the six biorthogonal boundary functions.

    psi functions are ordered (edge 0, moments 0..1), (edge 1, ...), (edge 2,
    ...); psi_(j, m) = sum_k coeffs[k, m] * (bubble k of edge j).
    """

    A: np.ndarray
    coeffs: np.ndarray            # (3 bubbles, 2 moments)

    def psi_values(self, pts) -> np.ndarray:
        """Values of the six functions at reference points; (npts, 6)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lam = np.stack([1.0 - pts[:, 0] - pts[:, 1], pts[:, 0], pts[:, 1]],
                       axis=1)
        P, Q = np.array(_LOCAL_EDGE_VERTS).T
        a, b = np.array(_BUBBLE_EXPONENTS).T
        bubbles = lam[:, P, None] ** a * lam[:, Q, None] ** b
        return (bubbles @ self.coeffs).reshape(len(pts), 6)

    def psi_edge_trace(self, local_edge: int, t) -> np.ndarray:
        """Traces of all six functions along one local edge; (nt, 6)."""
        return self.psi_values(edge_ref_points(local_edge, np.asarray(t)))


def xi_scale(mesh: TriMesh) -> np.ndarray:
    """Perimeter ratios |dK| / |dK_ref| per element; shape (n,)."""
    return mesh.tri_edge_lengths.sum(axis=1) / REF_PERIMETER


def trace_basis_values(mesh: TriMesh, local_edge: int, t) -> np.ndarray:
    """phi_(edge, m) along its edge in local parameter; shape (n, nt, 2).

    Scaled so that the pairing with the psi functions is xi_K * identity on
    any triangle: phi_(j, m) = (xi_K / |e_j|) (2m+1) L_m(t).
    """
    m = np.arange(2)
    scale = xi_scale(mesh) / mesh.tri_edge_lengths[:, local_edge]
    L = _jacobi(1, 0, 2.0 * np.asarray(t, dtype=float) - 1.0)[0]
    return (scale[:, None, None] * (2 * m + 1)) * L.T


def build_biorthogonal() -> BiorthogonalSet:
    """Construct and verify the six-function biorthogonal boundary set."""
    A = _edge_system_matrix()
    bset = BiorthogonalSet(A=A, coeffs=np.linalg.solve(A, np.eye(3)[:, :2]))
    rule = quad_rule(3, "triangle")
    if np.abs(rule.weights @ bset.psi_values(rule.points)).max() > 1e-13:
        raise ArithmeticError("biorthogonal functions fail to be mean-free")
    G = pairing_matrices(bset, TriMesh(REF_VERTICES, [[0, 1, 2]]))
    if np.abs(G - np.eye(6)).max() > 1e-12:
        raise ArithmeticError("reference biorthogonality violated")
    return bset


def pairing_matrices(bset: BiorthogonalSet, mesh: TriMesh) -> np.ndarray:
    """(1/xi_K) int_{dK} phi_i psi_j over all 36 pairs per element; shape
    (n, 6, 6), the identity when correct."""
    rule = quad_rule(11, "edge")
    t, w = rule.points, rule.weights
    le = mesh.tri_edge_lengths
    G = np.empty((mesh.n_triangles, 6, 6))
    for j in range(3):
        G[:, 2 * j: 2 * j + 2] = np.einsum(
            "nq,nqm,qk->nmk", w * le[:, j, None],
            trace_basis_values(mesh, j, t), bset.psi_edge_trace(j, t))
    return G / xi_scale(mesh)[:, None, None]


@dataclass
class FortinProjection:
    """Boundary projections of one scalar field on the elements of a mesh;
    alphas (n, 6) holds the psi coefficients per element."""

    bset: BiorthogonalSet
    mesh: TriMesh
    alphas: np.ndarray

    def trace_values(self, local_edge: int, t) -> np.ndarray:
        """Values along one local edge per element; shape (n, nt)."""
        return self.alphas @ self.bset.psi_edge_trace(local_edge, t).T

    def boundary_norm(self) -> np.ndarray:
        """||Pi v||_{dK} per element; shape (n,)."""
        return _boundary_norms(self.mesh, self.trace_values)


def _boundary_norms(mesh: TriMesh, traces) -> np.ndarray:
    """L2(dK) norms (n,) of the boundary functions given by their traces(j,
    t) (n, nt) along the local edges, with the 7-point Gauss rule."""
    rule = quad_rule(13, "edge")
    le = mesh.tri_edge_lengths
    return np.sqrt(sum(le[:, j] * (traces(j, rule.points) ** 2 @ rule.weights)
                       for j in range(3)))


def fortin_apply(v, bset: BiorthogonalSet, mesh: TriMesh) -> FortinProjection:
    """Project a boundary field on every element: alpha_j = (1/xi_K)
    int_{dK} phi_j v.

    v maps (N, 2) physical boundary points to values; it is called once per
    local edge, on the points of all elements.  The moments reduce to
    (2m+1) int_0^1 L_m(t) v(x_j(t)) dt per edge, independent of xi_K, and
    are taken with the 12-point Gauss rule.
    """
    t, w, leg = edge_legendre(1, 12, False)
    weights = (w * leg).T
    alphas = np.empty((mesh.n_triangles, 6))
    for j in range(3):
        pts = mapped_points(mesh, edge_ref_points(j, t))
        alphas[:, 2 * j: 2 * j + 2] = (2 * np.arange(2) + 1) * (
            field_values(v, pts, "v") @ weights)
    return FortinProjection(bset=bset, mesh=mesh, alphas=alphas)


def _check_count(n: int, name: str):
    if n < 1:
        raise ValueError(f"{name} must be at least 1, got {n}")


def random_shape_regular_triangles(n: int, seed: int) -> TriMesh:
    """Deterministic sample of n triangles with all angles >= 15 degrees, as
    one mesh of disjoint elements."""
    _check_count(n, "n")
    rng = np.random.default_rng(seed)
    tris = []
    min_angle = math.radians(15.0)
    while len(tris) < n:
        base = rng.uniform(0.4, 2.5)
        apex = rng.uniform([-1.5, 0.15], [2.5, 2.5])
        tri = np.array([[0.0, 0.0], [base, 0.0], apex])
        if TriMesh(tri, [[0, 1, 2]]).min_angles[0] < min_angle:
            continue
        ang = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        tris.append(tri @ R.T + rng.uniform(-1, 1, size=2)[None, :])
    return TriMesh(np.concatenate(tris), np.arange(3 * n).reshape(n, 3))


def trace_constants(mesh: TriMesh, p: int) -> np.ndarray:
    """Per element, the measured constant C_K in ||grad v||_K <= C_K
    h_K^{-1/2} ||v||_{dK} on the trace-visible complement of the mean-free
    degree-(p+2) space; shape (n,)."""
    from scipy.linalg import eigh
    rule = quad_rule(2 * (p + 2) + 1, "edge")
    basis = make_scalar_basis(p + 2)
    S = stiffness_tensors(p, mesh.metric)
    V = np.stack([basis.values(edge_ref_points(j, rule.points))[:, 1:]
                  for j in range(3)])
    # boundary mass: the reference edge Gram matrices scaled by |e_j|
    gram = np.einsum("q,jqi,jqk->jik", rule.weights, V, V)
    T = np.einsum("nj,jik->nik", mesh.tri_edge_lengths, gram)
    lam = np.empty(mesh.n_triangles)
    for k, (S_K, T_K) in enumerate(zip(S, T)):
        evals, evecs = eigh(T_K)
        C = evecs[:, evals > 1e-10 * evals.max()]
        lam[k] = eigh(C.T @ S_K @ C, C.T @ T_K @ C, eigvals_only=True).max()
    return np.sqrt(lam * mesh.h_K)


def scaled_trace_inequality_check(p: int, n_triangles: int = 100,
                                  seed: int = 20240601) -> dict:
    """Measured constant in ||grad v|| <= C h^{-1/2} ||v||_{dK} on the
    trace-visible complement of the mean-free degree-(p+2) space."""
    if p not in (1, 2, 3):
        raise ValueError("supported degrees are 1, 2, 3")
    _check_count(n_triangles, "n_triangles")
    consts = trace_constants(
        random_shape_regular_triangles(n_triangles, seed), p)
    return {"p": p, "n_samples": n_triangles,
            "max_constant": float(consts.max()),
            "min_constant": float(consts.min()),
            "mean_constant": float(np.mean(consts))}


def fortin_report(n_samples: int = 100, seed: int = 20240601) -> dict:
    """Verification report: biorthogonality residuals, boundedness, traces."""
    _check_count(n_samples, "n_samples")
    bset = build_biorthogonal()
    eye = np.eye(6)
    ref = TriMesh(REF_VERTICES, [[0, 1, 2]])
    ref_res = np.abs(pairing_matrices(bset, ref) - eye).max()
    mesh = random_shape_regular_triangles(n_samples, seed)
    phys_res = np.abs(pairing_matrices(bset, mesh) - eye).max()
    root_xi = np.sqrt(xi_scale(mesh))
    psi_ratio = max(
        (FortinProjection(bset, mesh, np.tile(e, (n_samples, 1)))
         .boundary_norm() / root_xi).max() for e in eye)
    # one coefficient row per element: c[i] has shape (n, 1)
    c = np.random.default_rng(seed).standard_normal((n_samples, 6)).T[
        :, :, None]

    def vfun(x):
        # smooth non-polynomial boundary data, points grouped by element
        x0, x1 = x.reshape(n_samples, -1, 2).transpose(2, 0, 1)
        return (c[0] + c[1] * np.sin(x0) + c[2] * x1
                + c[3] * np.cos(2 * x0 * x1) + c[4] * x0 ** 2
                + c[5] * np.exp(-x1)).ravel()

    vn = _boundary_norms(mesh, lambda j, t: vfun(mapped_points(
        mesh, edge_ref_points(j, t))).reshape(n_samples, -1))
    ok = vn > 1e-10
    ratios = fortin_apply(vfun, bset, mesh).boundary_norm()[ok] / vn[ok]
    return {
        "A": bset.A.tolist(),
        "det_A": float(np.linalg.det(bset.A)),
        "reference_biorthogonality_residual": float(ref_res),
        "physical_biorthogonality_residual": float(phys_res),
        "stability_constant": float(ratios.max()),
        "psi_boundary_norm_over_sqrt_xi": float(psi_ratio),
        "trace_inequality": {str(p): scaled_trace_inequality_check(p, 40, seed)
                             for p in (1, 2, 3)},
        "n_samples": n_samples,
    }
