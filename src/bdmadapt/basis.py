"""Reference-triangle scalar bases and quadrature rules.

The reference triangle is K = {(x, y) : x >= 0, y >= 0, x + y <= 1}.  Scalar
bases are hierarchical and L2-orthonormal on K: they come from an exact
rational LDL^T Gram-Schmidt of the monomial basis ordered by total degree, so
the degree-r basis is the leading slice of every higher-degree basis and the
first function is the normalized constant.  Dropping that constant (column 0
of values and grads) yields an exactly mean-free sub-basis.  One exact
factorization serves every degree: it is extended on demand to the largest
degree asked for, and a lower degree reads its leading block.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
import math

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

REF_VERTICES = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
MAX_DEGREE = 12
MAX_QUAD_EXACTNESS = 50


def basis_size(degree: int) -> int:
    """Dimension of the full polynomial space of total degree <= degree."""
    return (degree + 1) * (degree + 2) // 2


@lru_cache(maxsize=None)
def monomial_exponents(degree: int):
    """(a, b) exponent pairs of x^a y^b ordered by total degree."""
    return tuple((d - i, i) for d in range(degree + 1) for i in range(d + 1))


def monomial_integral(a: int, b: int) -> Fraction:
    """Exact integral of x^a y^b over the reference triangle."""
    return Fraction(math.factorial(a) * math.factorial(b),
                    math.factorial(a + b + 2))


# Exact LDL^T of the monomial Gram matrix, kept as the strict lower rows of
# L, the diagonal D and the columns of L^{-T}.  It grows on demand to the
# largest degree asked for so far; a lower degree reads its leading block.
_LOW, _DIAG, _INV_T = [], [], []


def _dot(xs, ys) -> Fraction:
    """Exact sum of x * y over pairs of Fractions, reduced once at the end."""
    num, den = 0, 1
    for x, y in zip(xs, ys):
        q = x.denominator * y.denominator
        num = num * q + x.numerator * y.numerator * den
        den *= q
    return Fraction(num, den)


def _grow_exact_factor(degree: int):
    """Extend the exact factors by the rows and columns up to degree."""
    exps = monomial_exponents(degree)
    for i in range(len(_DIAG), len(exps)):
        a, b = exps[i]
        # t[j] = L[i][j] D[j]
        t = []
        for j in range(i):
            s = monomial_integral(a + exps[j][0], b + exps[j][1])
            t.append(s - _dot(t, _LOW[j]))
        row = [t[j] / _DIAG[j] for j in range(i)]
        d = monomial_integral(2 * a, 2 * b) - _dot(t, row)
        if d <= 0:
            raise ArithmeticError("monomial Gram matrix not positive definite")
        _LOW.append(row)
        _DIAG.append(d)
        # column i of X = L^{-T}, from L^T X = I; X is unit upper triangular
        col = [Fraction(0)] * i + [Fraction(1)]
        for r in range(i - 1, -1, -1):
            col[r] = -_dot((_LOW[k][r] for k in range(r + 1, i + 1)),
                           col[r + 1:])
        _INV_T.append(col)


@lru_cache(maxsize=None)
def _orthonormal_monomial_coeffs(degree: int) -> np.ndarray:
    """Column j holds the monomial coefficients of the j-th orthonormal function.

    The leading block L^{-T} D^{-1/2} of the exact factors; only the final
    diagonal scaling leaves rational arithmetic.
    """
    if degree > MAX_DEGREE:
        raise ValueError(f"degree {degree} exceeds supported maximum {MAX_DEGREE}")
    _grow_exact_factor(degree)
    n = basis_size(degree)
    coeffs = np.zeros((n, n))
    for j in range(n):
        coeffs[:j + 1, j] = [float(x) for x in _INV_T[j]]
    scale = np.array([1.0 / math.sqrt(float(d)) for d in _DIAG[:n]])
    coeffs = coeffs * scale[None, :]
    coeffs.setflags(write=False)
    return coeffs


class RefScalarBasis:
    """Orthonormal scalar basis on the reference triangle."""

    def __init__(self, degree: int):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        self.degree = degree
        self._coeffs = _orthonormal_monomial_coeffs(degree)
        self._exps = np.array(monomial_exponents(degree))
        self.size = self._coeffs.shape[1]

    def _monomial_values(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = self._exps[:, 0][None, :]
        b = self._exps[:, 1][None, :]
        return pts[:, 0:1] ** a * pts[:, 1:2] ** b

    def _monomial_grads(self, pts):
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        a = self._exps[:, 0][None, :]
        b = self._exps[:, 1][None, :]
        x, y = pts[:, 0:1], pts[:, 1:2]
        with np.errstate(divide="ignore", invalid="ignore"):
            dx = np.where(a > 0, a * x ** np.maximum(a - 1, 0) * y ** b, 0.0)
            dy = np.where(b > 0, b * x ** a * y ** np.maximum(b - 1, 0), 0.0)
        return dx, dy

    def values(self, pts) -> np.ndarray:
        """Basis values at reference points; shape (npts, size)."""
        return self._monomial_values(pts) @ self._coeffs

    def grads(self, pts) -> np.ndarray:
        """Basis gradients at reference points; shape (npts, size, 2)."""
        dx, dy = self._monomial_grads(pts)
        return np.stack([dx @ self._coeffs, dy @ self._coeffs], axis=-1)

    def __repr__(self):
        return f"RefScalarBasis(degree={self.degree}, size={self.size})"


@lru_cache(maxsize=None)
def make_scalar_basis(degree: int) -> RefScalarBasis:
    return RefScalarBasis(degree)


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

    Triangle rules are collapsed Gauss-Legendre x Gauss-Jacobi(1,0) products
    with strictly interior points and positive weights.
    """
    if exactness < 0:
        raise ValueError("exactness must be nonnegative")
    if exactness > MAX_QUAD_EXACTNESS:
        raise ValueError(
            f"exactness {exactness} unsupported; maximum is {MAX_QUAD_EXACTNESS}")
    n = max(1, (exactness + 2) // 2)
    if variant == "edge":
        x, w = roots_legendre(n)
        pts = 0.5 * (x + 1.0)
        wts = 0.5 * w
    elif variant == "triangle":
        xa, wa = roots_legendre(n)
        xb, wb = roots_jacobi(n, 1.0, 0.0)
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


def map_to_triangle(pts, tri) -> np.ndarray:
    """Map reference points into the physical triangle tri (3x2 vertex rows)."""
    tri = np.asarray(tri, dtype=float)
    jac = np.stack([tri[1] - tri[0], tri[2] - tri[0]], axis=1)
    return tri[0][None, :] + np.asarray(pts) @ jac.T
