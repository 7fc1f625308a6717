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
"""

from dataclasses import dataclass
import math

import numpy as np

from .basis import (REF_VERTICES, make_scalar_basis, map_to_triangle,
                    quad_rule)
from .bdm import shifted_legendre
from .fields import edge_ref_points, stiffness_tensors
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


def xi_scale(tri) -> float:
    """Perimeter ratio |dK| / |dK_ref| of a physical triangle."""
    tri = np.asarray(tri, dtype=float)
    per = sum(np.linalg.norm(tri[(i + 1) % 3] - tri[i]) for i in range(3))
    return float(per / REF_PERIMETER)


def edge_lengths(tri) -> np.ndarray:
    tri = np.asarray(tri, dtype=float)
    return np.array([np.linalg.norm(tri[b] - tri[a])
                     for a, b in _LOCAL_EDGE_VERTS])


def trace_basis_values(tri, local_edge: int, t) -> np.ndarray:
    """phi_(edge, m) along its edge in local parameter; shape (nt, 2).

    Scaled so that the pairing with the psi functions is xi_K * identity on
    any triangle: phi_(j, m) = (xi_K / |e_j|) (2m+1) L_m(t).
    """
    xi = xi_scale(tri)
    le = edge_lengths(tri)[local_edge]
    t = np.asarray(t, dtype=float)
    return np.stack([(xi / le) * (2 * m + 1) * shifted_legendre(m, t)
                     for m in range(2)], axis=1)


def build_biorthogonal() -> BiorthogonalSet:
    """Construct and verify the six-function biorthogonal boundary set."""
    A = _edge_system_matrix()
    bset = BiorthogonalSet(A=A, coeffs=np.linalg.solve(A, np.eye(3)[:, :2]))
    rule = quad_rule(3, "triangle")
    if np.abs(rule.weights @ bset.psi_values(rule.points)).max() > 1e-13:
        raise ArithmeticError("biorthogonal functions fail to be mean-free")
    _verify_reference_biorthogonality(bset)
    return bset


def _verify_reference_biorthogonality(bset: BiorthogonalSet, tol=1e-12):
    G = pairing_matrix(bset, REF_VERTICES)
    if np.max(np.abs(G - np.eye(6))) > tol:
        raise ArithmeticError("reference biorthogonality violated")


def pairing_matrix(bset: BiorthogonalSet, tri) -> np.ndarray:
    """(1/xi_K) int_{dK} phi_i psi_j over all 36 pairs; identity when correct."""
    rule = quad_rule(11, "edge")
    t, w = rule.points, rule.weights
    xi = xi_scale(tri)
    le = edge_lengths(tri)
    G = np.zeros((6, 6))
    for j in range(3):
        phi = trace_basis_values(tri, j, t)          # (nt, 2)
        psi = bset.psi_edge_trace(j, t)              # (nt, 6)
        block = np.einsum("q,qm,qk->mk", w * le[j], phi, psi)
        G[2 * j: 2 * j + 2, :] = block
    return G / xi


@dataclass
class FortinProjection:
    """Boundary projection of one scalar field on one triangle."""

    bset: BiorthogonalSet
    tri: np.ndarray
    alphas: np.ndarray

    def trace_values(self, local_edge: int, t) -> np.ndarray:
        return self.bset.psi_edge_trace(local_edge, t) @ self.alphas

    def boundary_norm(self) -> float:
        rule = quad_rule(13, "edge")
        le = edge_lengths(self.tri)
        total = 0.0
        for j in range(3):
            v = self.trace_values(j, rule.points)
            total += le[j] * float(np.dot(rule.weights, v ** 2))
        return math.sqrt(total)


def fortin_apply(v, bset: BiorthogonalSet, tri) -> FortinProjection:
    """Project a boundary field: alpha_j = (1/xi_K) int_{dK} phi_j v.

    v maps (n, 2) physical boundary points to values.  The moments reduce to
    (2m+1) int_0^1 L_m(t) v(x_j(t)) dt per edge, independent of xi_K, and are
    taken with the 12-point Gauss rule.
    """
    tri = np.asarray(tri, dtype=float)
    rule = quad_rule(23, "edge")
    t, w = rule.points, rule.weights
    alphas = np.empty(6)
    for j in range(3):
        pts = map_to_triangle(edge_ref_points(j, t), tri)
        vals = np.asarray(v(pts), dtype=float)
        for m in range(2):
            alphas[2 * j + m] = (2 * m + 1) * float(
                np.dot(w * shifted_legendre(m, t), vals))
    return FortinProjection(bset=bset, tri=tri, alphas=alphas)


def random_shape_regular_triangles(n: int, seed: int):
    """Deterministic sample of triangles with all angles >= 15 degrees."""
    rng = np.random.default_rng(seed)
    tris = []
    min_angle = math.radians(15.0)
    while len(tris) < n:
        base = rng.uniform(0.4, 2.5)
        apex = rng.uniform([-1.5, 0.15], [2.5, 2.5])
        tri = np.array([[0.0, 0.0], [base, 0.0], apex])
        L = sorted([np.linalg.norm(tri[1] - tri[0]),
                    np.linalg.norm(tri[2] - tri[1]),
                    np.linalg.norm(tri[0] - tri[2])])
        a, b, c = L
        cosA = (b * b + c * c - a * a) / (2 * b * c)
        if math.acos(min(1.0, max(-1.0, cosA))) < min_angle:
            continue
        ang = rng.uniform(0, 2 * math.pi)
        R = np.array([[math.cos(ang), -math.sin(ang)],
                      [math.sin(ang), math.cos(ang)]])
        tris.append(tri @ R.T + rng.uniform(-1, 1, size=2)[None, :])
    return tris


def _triangle_mesh(tri) -> TriMesh:
    return TriMesh(np.asarray(tri, dtype=float), np.array([[0, 1, 2]]))


def scaled_trace_inequality_check(p: int, n_triangles: int = 100,
                                  seed: int = 20240601) -> dict:
    """Measured constant in ||grad v|| <= C h^{-1/2} ||v||_{dK} on the
    trace-visible complement of the mean-free degree-(p+2) space."""
    if p not in (1, 2, 3):
        raise ValueError("supported degrees are 1, 2, 3")
    basis = make_scalar_basis(p + 2)
    rule = quad_rule(2 * (p + 2) + 1, "edge")
    t, w = rule.points, rule.weights
    consts = []
    from scipy.linalg import eigh
    for tri in random_shape_regular_triangles(n_triangles, seed):
        mesh = _triangle_mesh(np.asarray(tri))
        S = stiffness_tensors(mesh, p + 2, 2 * (p + 2))[0, 1:, 1:]
        le = edge_lengths(tri)
        T = np.zeros_like(S)
        for j in range(3):
            vals = basis.values(edge_ref_points(j, t))[:, 1:]
            T += le[j] * np.einsum("q,qi,qk->ik", w, vals, vals)
        evals, evecs = eigh(T)
        keep = evals > 1e-10 * evals.max()
        C = evecs[:, keep]
        lam = eigh(C.T @ S @ C, C.T @ T @ C, eigvals_only=True)
        hK = float(le.max())
        consts.append(math.sqrt(max(lam) * hK))
    return {"p": p, "n_samples": n_triangles,
            "max_constant": float(max(consts)),
            "min_constant": float(min(consts)),
            "mean_constant": float(np.mean(consts))}


def fortin_report(n_samples: int = 100, seed: int = 20240601,
                  degrees=(1, 2, 3)) -> dict:
    """Verification report: biorthogonality residuals, boundedness, traces."""
    bset = build_biorthogonal()
    ref_res = float(np.max(np.abs(pairing_matrix(bset, REF_VERTICES)
                                  - np.eye(6))))
    rng = np.random.default_rng(seed)
    phys_res = 0.0
    ratios = []
    psi_norm_ratios = []
    erule = quad_rule(13, "edge")
    for tri in random_shape_regular_triangles(n_samples, seed):
        G = pairing_matrix(bset, tri)
        phys_res = max(phys_res, float(np.max(np.abs(G - np.eye(6)))))
        xi = xi_scale(tri)
        for alphas in np.eye(6):
            psi = FortinProjection(bset=bset, tri=tri, alphas=alphas)
            psi_norm_ratios.append(psi.boundary_norm() / math.sqrt(xi))
        coeff = rng.standard_normal(6)

        def vfun(x, tri=tri, coeff=coeff):
            # smooth non-polynomial boundary data
            return (coeff[0] + coeff[1] * np.sin(x[:, 0]) + coeff[2] * x[:, 1]
                    + coeff[3] * np.cos(2 * x[:, 0] * x[:, 1])
                    + coeff[4] * x[:, 0] ** 2 + coeff[5] * np.exp(-x[:, 1]))

        proj = fortin_apply(vfun, bset, tri)
        le = edge_lengths(tri)
        vn2 = 0.0
        for j in range(3):
            vals = vfun(map_to_triangle(edge_ref_points(j, erule.points), tri))
            vn2 += le[j] * float(np.dot(erule.weights, vals ** 2))
        if vn2 > 1e-20:
            ratios.append(proj.boundary_norm() / math.sqrt(vn2))
    report = {
        "A": bset.A.tolist(),
        "det_A": float(np.linalg.det(bset.A)),
        "reference_biorthogonality_residual": ref_res,
        "physical_biorthogonality_residual": phys_res,
        "stability_constant": float(max(ratios)),
        "psi_boundary_norm_over_sqrt_xi": float(max(psi_norm_ratios)),
        "trace_inequality": {str(p): scaled_trace_inequality_check(p, 40, seed)
                             for p in degrees},
        "n_samples": n_samples,
    }
    return report
