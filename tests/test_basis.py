import math
import random

import numpy as np
import pytest

import bdmadapt.basis as basis_mod
from bdmadapt import make_scalar_basis, quad_rule
from bdmadapt.basis import basis_size, map_to_triangle

from conftest import orthonormal_coeffs_per_degree, skewed_triangle


def exact_monomial(a, b):
    """Independent factorial oracle for reference-triangle monomials."""
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


def project_l2(f, degree, tri=None, exactness=None):
    """Coefficients of the L2 projection of f onto the degree-r space on tri.

    f takes (n, 2) physical points; tri=None means the reference triangle.
    The basis is orthonormal and the Jacobian cancels, so the projection is
    the quadrature sum w . f . V.
    """
    rule = quad_rule(2 * degree + 8 if exactness is None else exactness,
                     "triangle")
    pts = rule.points if tri is None else map_to_triangle(rule.points, tri)
    V = make_scalar_basis(degree).values(rule.points)
    return (rule.weights * np.asarray(f(pts), dtype=float)) @ V


def test_zero_mean_dimensions_and_means():
    # dropping the constant column leaves a mean-free sub-basis
    rule = quad_rule(8, "triangle")
    for k, dim in ((1, 2), (2, 5), (3, 9)):
        values = make_scalar_basis(k).values(rule.points)[:, 1:]
        assert values.shape[1] == dim
        means = np.einsum("q,qi->i", rule.weights, values)
        assert np.abs(means).max() <= 1e-13


def test_gradient_gram_nonsingular_dense_eig():
    rule = quad_rule(6, "triangle")
    D = make_scalar_basis(2).grads(rule.points)[:, 1:]
    G = np.einsum("q,qia,qja->ij", rule.weights, D, D)
    evals = np.linalg.eigvalsh(G)
    assert evals.min() > 1e-12
    cond = evals.max() / evals.min()
    assert np.isfinite(cond) and cond < 1e6


def test_projection_idempotent_on_member():
    basis = make_scalar_basis(3)
    coeffs = np.linspace(-1, 1, basis.size)

    def f(x):
        # x here are reference points (tri=None)
        return basis.values(x) @ coeffs

    out = project_l2(f, 3)
    assert np.abs(out - coeffs).max() <= 1e-12


def test_projection_degree_zero_is_mean():
    tri = skewed_triangle()

    def f(x):
        return np.sin(np.pi * x[:, 0])

    coeffs = project_l2(f, 0, tri=tri, exactness=24)
    value = float(make_scalar_basis(0).values([[1 / 3, 1 / 3]])[0] @ coeffs)
    rule = quad_rule(24, "triangle")
    pts = map_to_triangle(rule.points, tri)
    mean = float(np.dot(rule.weights, f(pts)) / rule.weights.sum())
    assert abs(value - mean) < 1e-10


def test_projection_against_dense_normal_equations():
    # independent oracle: least squares in the monomial basis at dense points

    def f(x):
        return x[:, 0] ** 2

    coeffs = project_l2(f, 1)
    rule = quad_rule(10, "triangle")
    pts, w = rule.points, rule.weights
    A = np.stack([np.ones(len(pts)), pts[:, 0], pts[:, 1]], axis=1)
    G = A.T @ (w[:, None] * A)
    rhs = A.T @ (w * f(pts))
    mono = np.linalg.solve(G, rhs)  # projection in monomial form
    got = make_scalar_basis(1).values(pts) @ coeffs
    want = A @ mono
    assert np.abs(got - want).max() <= 1e-12


def test_galerkin_orthogonality_of_projection():
    def f(x):
        return np.cos(2.0 * x[:, 0]) * x[:, 1]

    r = 2
    coeffs = project_l2(f, r)
    basis = make_scalar_basis(r)
    rule = quad_rule(2 * r + 10, "triangle")
    resid = f(rule.points) - basis.values(rule.points) @ coeffs
    inner = np.einsum("q,q,qi->i", rule.weights, resid,
                      basis.values(rule.points))
    assert np.abs(inner).max() <= 1e-12


def test_centroid_rule():
    rule = quad_rule(1, "triangle")
    assert len(rule) == 1
    assert np.allclose(rule.points[0], [1 / 3, 1 / 3], atol=1e-14)
    assert abs(rule.weights.sum() - 0.5) < 1e-15


def test_edge_rule_is_gauss():
    for k in (1, 2, 3, 5):
        rule = quad_rule(2 * k - 1, "edge")
        assert len(rule) == k
        # integrates t^(2k-1) exactly
        val = float(np.dot(rule.weights, rule.points ** (2 * k - 1)))
        assert abs(val - 1.0 / (2 * k)) < 1e-14


def test_monomial_exactness_high_order():
    rule = quad_rule(10, "triangle")
    val = float(np.einsum("q,q->", rule.weights,
                          rule.points[:, 0] ** 4 * rule.points[:, 1] ** 6))
    want = exact_monomial(4, 6)
    assert abs(val - want) <= 1e-13 * abs(want)


@pytest.mark.parametrize("exactness", [2, 5, 9, 14])
def test_monomial_exactness_sweep(exactness):
    rule = quad_rule(exactness, "triangle")
    assert np.all(rule.weights > 0)
    for total in range(exactness + 1):
        for a in range(total + 1):
            b = total - a
            val = float(np.einsum("q,q->", rule.weights,
                                  rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            want = exact_monomial(a, b)
            assert abs(val - want) <= 1e-13 * max(abs(want), 1e-3)


def test_quad_rule_unsupported_degree_lists_maximum():
    with pytest.raises(ValueError, match="maximum"):
        quad_rule(51, "triangle")


def test_zero_mean_plus_constants_spans_full_space(rng):
    for k in (1, 2, 3):
        full = make_scalar_basis(k)
        rule = quad_rule(2 * k + 2, "triangle")
        target = full.values(rule.points) @ rng.standard_normal(full.size)
        A = np.column_stack([np.ones(len(rule.points)),
                             full.values(rule.points)[:, 1:]])
        coef, *_ = np.linalg.lstsq(A, target, rcond=None)
        assert np.abs(A @ coef - target).max() <= 1e-10


def test_nested_projections_collapse_to_min(rng):
    # Q_r Q_s = Q_min(r, s) on a random degree-4 polynomial
    base = make_scalar_basis(4)
    coeffs4 = rng.standard_normal(base.size)

    def f(x):
        return base.values(x) @ coeffs4

    for r in range(5):
        for s in range(5):
            inner = project_l2(f, s)

            def g(x, inner=inner, s=s):
                return make_scalar_basis(s).values(x) @ inner

            outer = project_l2(g, r)
            direct = project_l2(f, min(r, s))
            m = basis_size(min(r, s))
            padded = np.zeros(basis_size(r))
            padded[:m] = direct[:m]
            assert np.abs(outer - padded).max() <= 1e-11


def test_gradients_match_finite_differences(rng):
    basis = make_scalar_basis(4)
    pts = rng.uniform(0.05, 0.4, size=(12, 2))
    h = 1e-6
    gx = (basis.values(pts + [h, 0]) - basis.values(pts - [h, 0])) / (2 * h)
    gy = (basis.values(pts + [0, h]) - basis.values(pts - [0, h])) / (2 * h)
    G = basis.grads(pts)
    assert np.abs(G[:, :, 0] - gx).max() <= 1e-6
    assert np.abs(G[:, :, 1] - gy).max() <= 1e-6


def test_hierarchical_nesting():
    b2 = make_scalar_basis(2)
    b4 = make_scalar_basis(4)
    pts = np.array([[0.1, 0.2], [0.4, 0.5], [0.25, 0.3]])
    assert np.allclose(b4.values(pts)[:, : b2.size], b2.values(pts), atol=1e-14)


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
def test_grown_exact_basis_matches_per_degree_build(monkeypatch, order):
    # the shared factorization grown in any call order gives bitwise the
    # floats of a fresh exact build for each degree
    degrees = list(range(9))
    if order == "descending":
        degrees.reverse()
    elif order == "shuffled":
        random.Random(7).shuffle(degrees)
    for name in ("_LOW", "_DIAG", "_INV_T"):
        monkeypatch.setattr(basis_mod, name, [])
    basis_mod._orthonormal_monomial_coeffs.cache_clear()
    try:
        for degree in degrees:
            got = basis_mod._orthonormal_monomial_coeffs(degree)
            want = orthonormal_coeffs_per_degree(degree)
            assert got.shape == want.shape
            assert np.array_equal(got.view(np.int64), want.view(np.int64)), \
                degree
    finally:
        basis_mod._orthonormal_monomial_coeffs.cache_clear()
