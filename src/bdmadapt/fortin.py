"""Biorthogonal edge functions and the normal-trace projection for degree 1.

Per edge of the reference triangle, three cubic bubbles built from the
barycentric coordinates of the edge endpoints vanish on the two other edges.
Two combinations of them are fixed by a 3x3 system so that they are
biorthogonal to the edge trace basis and mean-free on the element.  Composing
with the inverse affine map and scaling the trace basis per edge yields

    int_{dK} phi_i psi_j = xi_K delta_ij,    xi_K = |dK| / |dK_ref|,

on arbitrary triangles.  The induced projection Pi_{dK} v = sum alpha_j psi_j
with alpha_j = (1/xi_K) int_{dK} phi_j v preserves all degree-1 normal-flux
moments and is bounded on L2 of the boundary.
"""

from dataclasses import dataclass
from fractions import Fraction
import math

import numpy as np

from .basis import (basis_size, make_zero_mean_basis, map_to_triangle,
                    monomial_exponents, quad_rule)
from .bdm import shifted_legendre
from .fields import edge_ref_points, stiffness_tensors
from .mesh import TriMesh, _LOCAL_EDGE_VERTS

REF_PERIMETER = 2.0 + math.sqrt(2.0)

# barycentric coordinates on the reference triangle as monomial triples
# lambda = c0 + c1 x + c2 y
_BARY = ((1, -1, -1), (0, 1, 0), (0, 0, 1))


def _poly1_integral(coeffs):
    """Exact integral over [0,1] of a 1D polynomial with Fraction coeffs."""
    return sum(Fraction(c) / (k + 1) for k, c in enumerate(coeffs))


def _poly1_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += Fraction(ai) * Fraction(bj)
    return out


def _edge_system_matrix():
    """The 3x3 system pairing the edge bubbles with trace moments and the mean.

    Edge-parameter forms of the bubbles: (1-t)t, (1-t)^2 t, (1-t) t^2.  Rows
    1-2 pair them with the moment trace basis (2m+1) L_m(t); row 3 holds the
    element integrals of the corresponding cubics.
    """
    one_minus = [Fraction(1), Fraction(-1)]
    t = [Fraction(0), Fraction(1)]
    bubbles = [_poly1_mul(one_minus, t),
               _poly1_mul(_poly1_mul(one_minus, one_minus), t),
               _poly1_mul(one_minus, _poly1_mul(t, t))]
    legendre = [[Fraction(1)], [Fraction(-1), Fraction(2)]]
    A = [[Fraction(0)] * 3 for _ in range(3)]
    for m in range(2):
        weight = 2 * m + 1
        for k in range(3):
            A[m][k] = weight * _poly1_integral(_poly1_mul(legendre[m], bubbles[k]))
    # element integrals of lamP^a lamQ^b: a! b! / (a+b+2)!
    A[2][0] = Fraction(math.factorial(1) ** 2, math.factorial(4))
    A[2][1] = Fraction(math.factorial(2), math.factorial(5))
    A[2][2] = Fraction(math.factorial(2), math.factorial(5))
    return A


def _solve3_fractions(A, rhs):
    a = [row[:] for row in A]
    b = list(rhs)
    n = 3
    for col in range(n):
        piv = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                fac = a[r][col] / a[col][col]
                a[r] = [x - fac * y for x, y in zip(a[r], a[col])]
                b[r] = b[r] - fac * b[col]
    return [b[r] / a[r][r] for r in range(n)]


def _mono2_mul(a, b, degree):
    """Multiply two 2D monomial coefficient dicts {(i, j): c}."""
    out = {}
    for (i1, j1), c1 in a.items():
        for (i2, j2), c2 in b.items():
            if i1 + i2 + j1 + j2 > degree:
                raise ValueError("degree overflow")
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, Fraction(0)) + c1 * c2
    return out


def _edge_bubble_monomials(local_edge):
    """Monomial dicts of the three cubics lamP lamQ, lamP^2 lamQ, lamP lamQ^2."""
    pa, qa = _LOCAL_EDGE_VERTS[local_edge]
    lp = {(0, 0): Fraction(_BARY[pa][0]), (1, 0): Fraction(_BARY[pa][1]),
          (0, 1): Fraction(_BARY[pa][2])}
    lq = {(0, 0): Fraction(_BARY[qa][0]), (1, 0): Fraction(_BARY[qa][1]),
          (0, 1): Fraction(_BARY[qa][2])}
    pq = _mono2_mul(lp, lq, 3)
    return pq, _mono2_mul(lp, pq, 3), _mono2_mul(lq, pq, 3)


@dataclass
class BiorthogonalSet:
    """Reference data of the six biorthogonal boundary functions.

    psi functions are ordered (edge 0, moments 0..1), (edge 1, ...), (edge 2,
    ...); monomial and mean-free-basis coefficient forms are both kept.
    """

    A: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    psi_monomial: np.ndarray      # (6, 10) over degree-3 monomials
    psi_zero_mean: np.ndarray     # (6, 9) over the mean-free degree-3 basis

    def psi_values(self, pts) -> np.ndarray:
        """Values of the six functions at reference points; (npts, 6)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        exps = np.array(monomial_exponents(3))
        mono = pts[:, 0:1] ** exps[:, 0][None, :] * pts[:, 1:2] ** exps[:, 1][None, :]
        return mono @ self.psi_monomial.T

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
    beta = _solve3_fractions(A, [Fraction(1), Fraction(0), Fraction(0)])
    gamma = _solve3_fractions(A, [Fraction(0), Fraction(1), Fraction(0)])
    exps = monomial_exponents(3)
    index = {e: k for k, e in enumerate(exps)}
    psi_mono = np.zeros((6, len(exps)))
    for j in range(3):
        bubbles = _edge_bubble_monomials(j)
        for m, combo in enumerate((beta, gamma)):
            acc = {}
            for coef, bub in zip(combo, bubbles):
                for key, c in bub.items():
                    acc[key] = acc.get(key, Fraction(0)) + coef * c
            for key, c in acc.items():
                psi_mono[2 * j + m, index[key]] = float(c)
    bset = BiorthogonalSet(
        A=np.array([[float(x) for x in row] for row in A]),
        beta=np.array([float(x) for x in beta]),
        gamma=np.array([float(x) for x in gamma]),
        psi_monomial=psi_mono,
        psi_zero_mean=np.zeros((6, basis_size(3) - 1)),
    )
    # express psi in the mean-free degree-3 basis (exact quadrature)
    rule = quad_rule(8, "triangle")
    zb = make_zero_mean_basis(3)
    vals = bset.psi_values(rule.points)
    bset.psi_zero_mean = np.einsum("q,qi,qk->ki", rule.weights,
                                   zb.values(rule.points), vals)
    recon = zb.values(rule.points) @ bset.psi_zero_mean.T
    if np.max(np.abs(recon - vals)) > 1e-11:
        raise ArithmeticError("biorthogonal functions fail to be mean-free")
    _verify_reference_biorthogonality(bset)
    return bset


def _verify_reference_biorthogonality(bset: BiorthogonalSet, tol=1e-12):
    G = pairing_matrix(bset, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
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


def fortin_apply(v, bset: BiorthogonalSet, tri,
                 n_points: int = 12) -> FortinProjection:
    """Project a boundary field: alpha_j = (1/xi_K) int_{dK} phi_j v.

    v maps (n, 2) physical boundary points to values.  The moments reduce to
    (2m+1) int_0^1 L_m(t) v(x_j(t)) dt per edge, independent of xi_K.
    """
    tri = np.asarray(tri, dtype=float)
    rule = quad_rule(2 * n_points - 1, "edge")
    t, w = rule.points, rule.weights
    alphas = np.empty(6)
    for j in range(3):
        pts = map_to_triangle(edge_ref_points(j, t), tri)
        vals = np.asarray(v(pts), dtype=float)
        for m in range(2):
            alphas[2 * j + m] = (2 * m + 1) * float(
                np.dot(w * shifted_legendre(m, t), vals))
    return FortinProjection(bset=bset, tri=tri, alphas=alphas)


def random_shape_regular_triangles(n: int, seed: int, min_angle_deg: float = 15.0):
    """Deterministic sample of triangles with all angles >= min_angle_deg."""
    rng = np.random.default_rng(seed)
    tris = []
    min_angle = math.radians(min_angle_deg)
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
    basis = make_zero_mean_basis(p + 2)
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
            vals = basis.values(edge_ref_points(j, t))
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
    ref_res = float(np.max(np.abs(
        pairing_matrix(bset, np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
        - np.eye(6))))
    rng = np.random.default_rng(seed)
    phys_res = 0.0
    ratios = []
    psi_norm_ratios = []
    for tri in random_shape_regular_triangles(n_samples, seed):
        G = pairing_matrix(bset, tri)
        phys_res = max(phys_res, float(np.max(np.abs(G - np.eye(6)))))
        xi = xi_scale(tri)
        le = edge_lengths(tri)
        erule = quad_rule(13, "edge")
        for k in range(6):
            nrm2 = 0.0
            for j in range(3):
                v = bset.psi_edge_trace(j, erule.points)[:, k]
                nrm2 += le[j] * float(np.dot(erule.weights, v ** 2))
            psi_norm_ratios.append(math.sqrt(nrm2 / xi))
        coeff = rng.standard_normal(6)

        def vfun(x, tri=tri, coeff=coeff):
            # smooth non-polynomial boundary data
            return (coeff[0] + coeff[1] * np.sin(x[:, 0]) + coeff[2] * x[:, 1]
                    + coeff[3] * np.cos(2 * x[:, 0] * x[:, 1])
                    + coeff[4] * x[:, 0] ** 2 + coeff[5] * np.exp(-x[:, 1]))

        proj = fortin_apply(vfun, bset, tri)
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
