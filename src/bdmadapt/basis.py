"""Reference-triangle bases and quadrature rules.

The reference triangle is K = {(x, y) : x >= 0, y >= 0, x + y <= 1}.  Scalar
bases are hierarchical and L2-orthonormal on K: the Dubiner-Koornwinder
functions (Dubiner, J. Sci. Comput. 6 (1991) 345)

    psi_ij(x, y) = c_ij Q_i(x, 1 - y) P_j^(2i+1,0)(2y - 1),
    c_ij^2 = 2 (2i + 1) (i + j + 1),

where Q_i(x, s) = s^i P_i(2x/s - 1) is the scaled Legendre polynomial.  They
are ordered by total degree i + j, so the degree-r basis is the leading slice
of every higher-degree basis, and the first function is the normalized
constant sqrt(2).  Every other function is orthogonal to it, so dropping
column 0 of values and grads yields a mean-free sub-basis.  tabulate
evaluates values and gradients together, coefficient-major.

The reference BDM(p) shapes are the nodal basis of the functionals listed in
the bdm module on (P_p)^2; bdm_reference holds their coefficients over the
scalar basis.

Quadrature rules are collapsed products of Gauss-Legendre and
Gauss-Jacobi(1, 0) rules, computed in numpy: Golub-Welsch nodes (eigenvalues
of the Jacobi matrix) polished by two Newton steps on the three-term
recurrence of P_n^(alpha,0), and the closed-form weights
2^(alpha+1) / ((1 - x^2) P_n'(x)^2).  The same recurrence evaluates the
P_j^(2i+1,0) factors of the scalar bases and the Legendre polynomials of the
BDM edge moments.

The graded rules integrate fields singular like r^(k/3) at a vertex, r the
distance to it.  The graded triangle rule splits K into its 6 barycentric
sub-triangles (vertex, edge midpoint, centroid) and collapses a Gauss product
at each one's vertex with the radial map rho = s^3; the graded edge rule maps
the halves of [0, 1] by t = s^3 / 2 and 1 - s^3 / 2.  Under these maps
r^(k/3) times a polynomial, k >= -2, is a polynomial in s on the pieces at
the vertex (Duffy, SIAM J. Numer. Anal. 19 (1982) 1260).  Its angular factor
and its values on the other pieces are smooth, and there the rules converge
geometrically.  They grade toward every vertex alike, so they are symmetric
under the vertex permutations of K and of the edge.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
MAX_QUAD_EXACTNESS = 50
# the power s^GRADING of the graded rules' maps toward a vertex
GRADING = 3
# Gauss points a graded rule adds in each direction to those its polynomial
# exactness needs: away from the graded vertex the mapped fields are smooth
# but not polynomial in s, so convergence sets this count
GRADED_EXTRA_POINTS = 4


def basis_size(degree: int) -> int:
    """Dimension of the full polynomial space of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


class RefScalarBasis:
    """Orthonormal scalar basis on the reference triangle."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self.size = basis_size(degree)
        # (i, j) of each column, ordered by total degree i + j
        self._i, self._j = np.array([(i, d - i) for d in range(degree + 1)
                                     for i in range(d + 1)]).T
        self._c = np.sqrt(2.0 * (2 * self._i + 1) * (self._i + self._j + 1))

    def tabulate(self, pts):
        """Values (size, npts) and gradients (size, npts, 2) at pts from one
        run of the recurrence, coefficient-major: row i belongs to basis
        function i, so the rows of a lower degree are a leading slice."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        r, n = self.degree, len(pts)
        x, y = pts[:, 0], pts[:, 1]
        s = 1.0 - y
        t, ss = 2.0 * x - s, s * s
        # Q_k(x, s) by the division-free scaled Legendre recurrence
        # (k + 1) Q_{k+1} = (2k + 1) t Q_k - k s^2 Q_{k-1}, t = 2x + y - 1,
        # differentiated through it in x and y
        Q = np.empty((r + 1, n))
        Qx, Qy = np.empty_like(Q), np.empty_like(Q)
        Q[0], Qx[0], Qy[0] = 1.0, 0.0, 0.0
        if r > 0:
            Q[1], Qx[1], Qy[1] = t, 2.0, 1.0
        for k in range(1, r):
            a, b = (2 * k + 1) / (k + 1), k / (k + 1)
            Q[k + 1] = a * t * Q[k] - b * ss * Q[k - 1]
            Qx[k + 1] = a * (2.0 * Q[k] + t * Qx[k]) - b * ss * Qx[k - 1]
            Qy[k + 1] = (a * (Q[k] + t * Qy[k])
                         - b * s * (s * Qy[k - 1] - 2.0 * Q[k - 1]))
        # P_j^(2i+1,0)(2y - 1) for every i at once, indexed [j, i]
        alpha = 2 * np.arange(r + 1)[:, None] + 1
        P, dP = _jacobi(r, alpha, np.broadcast_to(2.0 * y - 1.0, (r + 1, n)))
        i, j, c = self._i, self._j, self._c[:, None]
        P, dP = P[j, i], dP[j, i]
        V = c * Q[i] * P
        G = np.stack([c * Qx[i] * P, c * (Qy[i] * P + 2.0 * Q[i] * dP)],
                     axis=-1)
        return V, G

    def values(self, pts) -> np.ndarray:
        """Basis values at reference points; shape (npts, size)."""
        return np.ascontiguousarray(self.tabulate(pts)[0].T)

    def __repr__(self):
        return f"RefScalarBasis(degree={self.degree}, size={self.size})"


@lru_cache(maxsize=None)
def make_scalar_basis(degree: int) -> RefScalarBasis:
    return RefScalarBasis(degree)


def _jacobi(n: int, alpha, x):
    """Values and derivatives of P_k^(alpha,0) at x for k = 0..n and any
    integer alpha >= 0 (or an integer array of them broadcasting against
    x); two arrays of shape (n + 1, *x.shape) from the three-term
    recurrence (alpha = 0 gives the Legendre polynomials)."""
    x = np.asarray(x, dtype=float)
    P = np.empty((n + 1,) + x.shape)
    dP = np.empty_like(P)
    P[0], dP[0] = 1.0, 0.0
    if n > 0:
        P[1], dP[1] = ((alpha + 2) * x + alpha) / 2, (alpha + 2) / 2
    for k in range(2, n + 1):
        # 2k(k+a)(s-2) P_k = (s-1)(s(s-2)x + a^2) P_{k-1}
        #                    - 2(k+a-1)(k-1)s P_{k-2},  s = 2k + a
        s = 2 * k + alpha
        den = 2 * k * (k + alpha) * (s - 2)
        a, b = (s - 1) * s * (s - 2) / den, (s - 1) * alpha ** 2 / den
        c = 2 * (k + alpha - 1) * (k - 1) * s / den
        P[k] = (a * x + b) * P[k - 1] - c * P[k - 2]
        dP[k] = (a * x + b) * dP[k - 1] + a * P[k - 1] - c * dP[k - 2]
    return P, dP


@lru_cache(maxsize=None)
def _gauss_jacobi(n: int, alpha: int):
    """Ascending nodes and weights of the n-point Gauss rule on [-1, 1] for
    the weight (1 - x)^alpha, alpha in {0, 1}."""
    k = np.arange(n)
    s = 2 * k + alpha
    diag = np.zeros(n) if alpha == 0 else -1.0 / (s * (s + 2.0))
    k, s = k[1:], s[1:]
    off = 2 * k * (k + alpha) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    for _ in range(2):
        P, dP = _jacobi(n, alpha, x)
        x = x - P[n] / dP[n]
    dP = _jacobi(n, alpha, x)[1][n]
    w = 2.0 ** (alpha + 1) / ((1.0 - x * x) * dP * dP)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def _unit_gauss(n: int):
    """Ascending nodes and weights of the n-point Gauss-Legendre rule on
    [0, 1]."""
    x, w = _gauss_jacobi(n, 0)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class QuadRule:
    """Quadrature rule on the reference triangle or the unit edge [0, 1].

    Triangle rules integrate over the reference triangle (weights sum to 1/2);
    edge rules integrate dt over [0, 1] (weights sum to 1).
    """

    points: np.ndarray
    weights: np.ndarray

    def __len__(self):
        return len(self.weights)


@lru_cache(maxsize=None)
def quad_rule(exactness: int, variant: str = "triangle") -> QuadRule:
    """Rule exact for polynomials of total degree <= exactness.

    variant is "triangle", "edge", "subdivided triangle", "graded triangle"
    or "graded edge".  Triangle rules are collapsed Gauss-Legendre x
    Gauss-Jacobi(1,0) products with strictly interior points and positive
    weights; the subdivided rule is the triangle rule replicated on the 4
    congruent sub-triangles.  The graded rules
    (see the module docstring) take, in s, the Gauss rule that keeps this
    exactness under the map, with GRADED_EXTRA_POINTS more points in every
    direction.
    """
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if exactness > MAX_QUAD_EXACTNESS:
        raise ValueError(
            f"exactness {exactness} unsupported; maximum is {MAX_QUAD_EXACTNESS}")
    n = max(1, (exactness + 2) // 2)
    if variant == "edge":
        pts, wts = _unit_gauss(n)
    elif variant == "graded edge":
        # degree e in t is degree GRADING (e + 1) - 1 in s
        s, ws = _unit_gauss((GRADING * (exactness + 1) + 1) // 2
                            + GRADED_EXTRA_POINTS)
        half = 0.5 * s ** GRADING
        w = 0.5 * GRADING * s ** (GRADING - 1) * ws
        pts = np.concatenate([half, 1.0 - half[::-1]])
        wts = np.concatenate([w, w[::-1]])
    elif variant == "graded triangle":
        # degree e in x is degree GRADING (e + 2) - 1 in s, with rho drho =
        # GRADING s^(2 GRADING - 1) ds; sigma runs along the far side
        s, ws = _unit_gauss((GRADING * (exactness + 2) + 1) // 2
                            + GRADED_EXTRA_POINTS)
        sigma, wsigma = _unit_gauss(n + GRADED_EXTRA_POINTS)
        rho = s ** GRADING
        centroid = REF_VERTICES.mean(axis=0)
        pts = []
        for i, j in ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)):
            v = REF_VERTICES[i]
            mid = 0.5 * (v + REF_VERTICES[j])
            ray = (mid - v) + sigma[:, None] * (centroid - mid)
            pts.append(v + rho[:, None, None] * ray)
        pts = np.concatenate(pts).reshape(-1, 2)
        # each sub-triangle has |det(mid - v, centroid - mid)| = 1/6
        w = np.outer(GRADING * s ** (2 * GRADING - 1) * ws, wsigma) / 6.0
        wts = np.tile(w.ravel(), 6)
    elif variant == "subdivided triangle":
        rule = quad_rule(exactness, "triangle")
        children = np.array([[[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]],
                             [[0.5, 0.0], [1.0, 0.0], [0.5, 0.5]],
                             [[0.0, 0.5], [0.5, 0.5], [0.0, 1.0]],
                             [[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]]])
        pts = np.vstack([v0 + rule.points @ np.stack([v1 - v0, v2 - v0],
                                                     axis=1).T
                         for v0, v1, v2 in children])
        wts = np.tile(rule.weights / 4.0, 4)
    elif variant == "triangle":
        xa, wa = _gauss_jacobi(n, 0)
        xb, wb = _gauss_jacobi(n, 1)
        A, B = np.meshgrid(xa, xb, indexing="ij")
        WA, WB = np.meshgrid(wa, wb, indexing="ij")
        x = (1.0 + A) * (1.0 - B) / 4.0
        y = (1.0 + B) / 2.0
        pts = np.stack([x.ravel(), y.ravel()], axis=1)
        wts = (WA * WB / 8.0).ravel()
    else:
        raise ValueError(f"unknown quadrature variant {variant!r}")
    pts = np.ascontiguousarray(pts)
    wts = np.ascontiguousarray(wts)
    pts.setflags(write=False)
    wts.setflags(write=False)
    return QuadRule(points=pts, weights=wts)


# -- the reference BDM element ------------------------------------------------

# local edge j is opposite vertex j; its traversal parameter t runs between
# these ends, its outward unit normal and length follow
_REF_EDGE_ENDS = (((1.0, 0.0), (0.0, 1.0)),
                  ((0.0, 1.0), (0.0, 0.0)),
                  ((0.0, 0.0), (1.0, 0.0)))
_REF_NORMALS = np.array([[1.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
_REF_NORMALS[0] /= np.sqrt(2.0)
_REF_EDGE_LEN = np.array([np.sqrt(2.0), 1.0, 1.0])


def edge_ref_points(local_edge: int, t) -> np.ndarray:
    """Reference coordinates of local-edge points at traversal parameters t."""
    t = np.asarray(t, dtype=float)[:, None]
    a, b = np.asarray(_REF_EDGE_ENDS[local_edge])
    return (1.0 - t) * a[None, :] + t * b[None, :]


def interior_test_fields(p: int, pts, V, G) -> np.ndarray:
    """The BDM(p) interior functional fields (p^2 - 1, nq, 2) at pts, from
    the values V (rows, nq) and gradients G (rows, nq, 2) of the scalar
    basis to any degree >= p - 1: the gradients of the mean-free
    degree-(p-1) functions, then curl(b w) for the bubble b = xy(1 - x - y)
    and the degree-(p-2) functions w."""
    k = basis_size(p - 2)
    x, y = pts[:, 0], pts[:, 1]
    b = x * y * (1.0 - x - y)
    bx, by = y * (1.0 - 2.0 * x - y), x * (1.0 - x - 2.0 * y)
    # curl(b w) = (d_y(b w), -d_x(b w))
    curl = np.stack([V[:k] * by + b * G[:k, :, 1],
                     -(V[:k] * bx + b * G[:k, :, 0])], axis=-1)
    return np.concatenate([G[1:basis_size(p - 1)], curl])


@lru_cache(maxsize=None)
def bdm_reference(p: int) -> np.ndarray:
    """Nodal coefficient matrix (2s, 2s), s = basis_size(p), of the
    reference BDM(p) shapes, read-only: column l holds the coefficients of
    shape l over the primal basis [(phi_i, 0)] + [(0, phi_i)] of (P_p)^2,
    so that the edge and interior functionals of the bdm module are dual to
    the shapes."""
    if p < 1:
        raise ValueError("BDM degree must be >= 1")
    basis = make_scalar_basis(p)
    erule = quad_rule(2 * p + 3, "edge")
    t, w = erule.points, erule.weights
    phi = basis.tabulate(np.vstack([edge_ref_points(j, t)
                                    for j in range(3)]))[0]
    L = _jacobi(p, 0, 2.0 * t - 1.0)[0]
    # |e_j| int_0^1 L_m phi_i dt, then times the normal components: rows
    # (j, m), columns (component, i)
    moments = np.einsum("mq,ijq->jmi", w * L, phi.reshape(len(phi), 3, -1))
    scale = _REF_EDGE_LEN[:, None] * _REF_NORMALS
    edge = scale[:, None, :, None] * moments[:, :, None, :]
    trule = quad_rule(2 * p + 2, "triangle")
    V, G = basis.tabulate(trule.points)
    theta = interior_test_fields(p, trule.points, V, G)
    interior = np.einsum("kqa,q,iq->kai", theta, trule.weights, V)
    M = np.vstack([edge.reshape(-1, 2 * basis.size),
                   interior.reshape(-1, 2 * basis.size)])
    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e10:
        raise ArithmeticError(f"BDM degree-{p} functional matrix is ill posed")
    coeffs = np.linalg.inv(M)
    coeffs.setflags(write=False)
    return coeffs
