import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import bdmadapt.basis as basis_mod
from bdmadapt import make_scalar_basis, preset, quad_rule, run_adaptive
from bdmadapt.basis import basis_size
from bdmadapt.experiments import run_slopes

from conftest import affine_map, reference_grads, skewed_triangle


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
    pts = rule.points if tri is None else affine_map(rule.points, tri)
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
    D = reference_grads(make_scalar_basis(2), rule.points)[:, 1:]
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
    pts = affine_map(rule.points, tri)
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


# r^(k/3) times a monomial, r the distance to a vertex: the power alone at
# k = -2 (|q|^2 at the L-shape corner), monomials of degree <= 2 at k = -1
# (q . q_h) and k = 2 (u)
_SINGULAR_CASES = [(-2, 0, 0)] + [(k, a, b) for k in (-1, 2)
                                  for a in range(3) for b in range(3 - a)]


def _vertex_power_integral(mpmath, k, a, b, vertex):
    """int_K r^(k/3) x^a y^b, r = |x - REF_VERTICES[vertex]|, in polar
    coordinates about the vertex: the binomial expansion gives the radial
    integral in closed form and mpmath.quad the smooth angular one."""
    v = [mpmath.mpf(c) for c in basis_mod.REF_VERTICES[vertex]]
    (ax, ay), (bx, by) = [[mpmath.mpf(c) for c in basis_mod.REF_VERTICES[j]]
                          for j in range(3) if j != vertex]
    # the opposite side is n . (x - A) = 0
    nx, ny = by - ay, ax - bx
    height = nx * (ax - v[0]) + ny * (ay - v[1])

    def angular(th):
        c, s = mpmath.cos(th), mpmath.sin(th)
        R = height / (nx * c + ny * s)
        total = 0
        for i in range(a + 1):
            for j in range(b + 1):
                m = mpmath.mpf(k) / 3 + 2 + i + j
                total += (mpmath.binomial(a, i) * v[0] ** (a - i) * c ** i
                          * mpmath.binomial(b, j) * v[1] ** (b - j) * s ** j
                          * R ** m / m)
        return total

    ends = sorted(mpmath.atan2(y - v[1], x - v[0])
                  for x, y in ((ax, ay), (bx, by)))
    return float(mpmath.quad(angular, ends))


def test_graded_triangle_rule_matches_mpmath():
    # the exactness of the exact-error report at p = 1..3, with the
    # singular point at each vertex
    mpmath = pytest.importorskip("mpmath")
    rules = [quad_rule(2 * p + 8, "graded triangle") for p in (1, 2, 3)]
    with mpmath.workdps(30):
        for vertex in range(3):
            for k, a, b in _SINGULAR_CASES:
                want = _vertex_power_integral(mpmath, k, a, b, vertex)
                for rule in rules:
                    x = rule.points
                    r = np.hypot(*(x - basis_mod.REF_VERTICES[vertex]).T)
                    got = rule.weights @ (r ** (k / 3) * x[:, 0] ** a
                                          * x[:, 1] ** b)
                    assert abs(got - want) <= 1e-13, (vertex, k, a, b)
    for rule in rules:
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 0.5) <= 1e-15


def test_graded_edge_rule_matches_mpmath():
    # the trace and oscillation rules, n = p + 5 and p + 6 points for
    # p = 1..3, with the singular point at either end: int_0^1 t^(k/3) t^m
    # is 1 / (k/3 + m + 1), int_0^1 (1 - t)^(k/3) t^m the beta function.
    # The distance 1 - t is read off the mirrored node, as the exact-error
    # report samples such an edge: 1.0 - t has lost its digits near t = 1.
    mpmath = pytest.importorskip("mpmath")
    rules = [quad_rule(2 * n - 1, "graded edge") for n in range(6, 10)]
    with mpmath.workdps(30):
        for k in (-2, -1, 2):
            alpha = mpmath.mpf(k) / 3
            for m in range(4):
                want = (float(1 / (alpha + m + 1)),
                        float(mpmath.beta(alpha + 1, m + 1)))
                for rule in rules:
                    t = rule.points
                    for r, exact in zip((t, t[::-1]), want):
                        got = rule.weights @ (r ** (k / 3) * t ** m)
                        assert abs(got - exact) <= 1e-13, (k, m, len(t))
    for rule in rules:
        assert np.all(np.diff(rule.points) > 0) and np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - 1.0) <= 1e-15


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
    G = reference_grads(basis, pts)
    assert np.abs(G[:, :, 0] - gx).max() <= 1e-6
    assert np.abs(G[:, :, 1] - gy).max() <= 1e-6


def test_hierarchical_nesting():
    b2 = make_scalar_basis(2)
    b4 = make_scalar_basis(4)
    pts = np.array([[0.1, 0.2], [0.4, 0.5], [0.25, 0.3]])
    assert np.allclose(b4.values(pts)[:, : b2.size], b2.values(pts), atol=1e-14)


def test_orthonormal_and_mean_free_up_to_degree_12():
    for degree in range(13):
        rule = quad_rule(2 * degree + 2, "triangle")
        V = make_scalar_basis(degree).values(rule.points)
        gram = V.T @ (rule.weights[:, None] * V)
        assert np.abs(gram - np.eye(len(gram))).max() <= 1e-14, degree
        assert np.abs(rule.weights @ V[:, 1:]).max(initial=0.0) <= 1e-14, \
            degree


def test_values_and_grads_match_exact_dubiner(rng):
    # psi_ij = c_ij Q_i(x, 1 - y) P_j^(2i+1,0)(2y - 1) in column
    # (i + j)(i + j + 1)/2 + i, built exactly in sympy: Q_i(x, s) =
    # sum_k a_k s^(i-k) (2x - s)^k for P_i(t) = sum_k a_k t^k
    sp = pytest.importorskip("sympy")
    x, y, t = sp.symbols("x y t")
    s = 1 - y
    degree = 8
    u = rng.uniform(size=(12, 2))
    u = np.where(u.sum(axis=1, keepdims=True) > 1, 1 - u, u)
    pts = np.vstack([basis_mod.REF_VERTICES, [[0.5, 0.5], [1 / 3, 1 / 3]],
                     u])
    basis = make_scalar_basis(degree)
    got = [basis.values(pts), reference_grads(basis, pts)[..., 0],
           reference_grads(basis, pts)[..., 1]]
    for i in range(degree + 1):
        leg = sp.Poly(sp.legendre(i, t), t).all_coeffs()[::-1]
        Q = sum(a * s ** (i - k) * (2 * x - s) ** k for k, a in enumerate(leg))
        for j in range(degree + 1 - i):
            psi = sp.Poly(sp.expand(Q * sp.jacobi(j, 2 * i + 1, 0, 2 * y - 1)),
                          x, y)
            c = math.sqrt(2 * (2 * i + 1) * (i + j + 1))
            col = (i + j) * (i + j + 1) // 2 + i
            for table, f in zip(got, (psi, psi.diff(x), psi.diff(y))):
                want = np.array([c * float(f(sp.Rational(px), sp.Rational(py)))
                                 for px, py in pts])
                err = np.abs(table[:, col] - want) / np.maximum(1, np.abs(want))
                assert err.max() <= 1e-13, (i, j)


@pytest.mark.parametrize("p", [4, 5])
def test_smooth_uniform_rates_at_high_degree(p):
    # the basis must stay accurate enough for the a priori rate p + 1 of
    # the estimator, the full error and the flux error at p = 4 and 5
    run = run_adaptive(preset("smooth"), p, iterations=4, uniform=True,
                       with_theta=False)
    slopes = run_slopes(run)
    for key in ("eta", "err_full", "err_q_0h"):
        assert abs(slopes[key] + (p + 1)) <= 0.2, (key, slopes[key])


@pytest.mark.parametrize("alpha", [0, 1], ids=["legendre", "jacobi10"])
def test_gauss_rules_match_high_precision(alpha):
    # every rule quad_rule can need (n <= 26), against 40-digit nodes found
    # by Newton on mpmath's hypergeometric P_n^(alpha,0) and the weights
    # 2^(alpha+1) / ((1 - x^2) P_n'(x)^2)
    mpmath = pytest.importorskip("mpmath")
    n_max = (basis_mod.MAX_QUAD_EXACTNESS + 2) // 2
    with mpmath.workdps(40):
        for n in range(1, n_max + 1):
            x, w = basis_mod._gauss_jacobi(n, alpha)
            for xi, wi in zip(x, w):
                t = mpmath.mpf(float(xi))
                for _ in range(3):
                    d = (n + alpha + 1) * mpmath.jacobi(n - 1, alpha + 1, 1,
                                                        t) / 2
                    t -= mpmath.jacobi(n, alpha, 0, t, zeroprec=400) / d
                d = (n + alpha + 1) * mpmath.jacobi(n - 1, alpha + 1, 1, t) / 2
                want = 2 ** (alpha + 1) / ((1 - t * t) * d * d)
                assert abs(float(xi - t)) <= 4.5e-16, (n, xi)
                assert abs(float((wi - want) / want)) <= 3e-14, (n, xi)


def test_jacobi_recurrence_holds_for_every_alpha():
    # the Gauss rules use alpha = 0 and 1 only; the recurrence itself must
    # give P_n^(alpha,0) and its derivative (n + alpha + 1)/2
    # P_(n-1)^(alpha+1,1) for any alpha, against scipy.special (tests only)
    special = pytest.importorskip("scipy.special")
    x = np.linspace(-1.0, 1.0, 41)
    for alpha in range(10):
        P, dP = basis_mod._jacobi(8, alpha, x)
        for n in range(9):
            want = special.eval_jacobi(n, alpha, 0, x)
            assert np.abs(P[n] - want).max() <= 4e-15 * np.abs(want).max()
            if n:
                want = (n + alpha + 1) / 2 * special.eval_jacobi(
                    n - 1, alpha + 1, 1, x)
                assert np.abs(dP[n] - want).max() <= \
                    4e-15 * np.abs(want).max()
            else:
                assert not dP[n].any()


def _fresh_interpreter_output(code):
    """Stripped stdout of code run in a fresh interpreter that imports the
    package from this checkout."""
    src = str(pathlib.Path(basis_mod.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    return out.stdout.strip()


def test_import_leaves_scipy_special_unloaded():
    code = ("import sys, bdmadapt, bdmadapt.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith('scipy.special')))")
    assert _fresh_interpreter_output(code) == "[]"


def test_basis_build_leaves_fractions_unloaded():
    code = ("import sys, bdmadapt; "
            "bdmadapt.make_scalar_basis(5).values([[0.2, 0.3]]); "
            "print('fractions' in sys.modules)")
    assert _fresh_interpreter_output(code) == "False"
