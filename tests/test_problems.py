import numpy as np
import pytest

from bdmadapt import preset
from bdmadapt.problems import ADVECTION_PECLET

from conftest import closed_form_advdiff, closed_form_lshape_q


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        preset("nonexistent")


def test_smooth_value_at_center():
    smooth = preset("smooth")
    val = smooth.exact_u(np.array([[0.5, 0.5]]))[0]
    assert abs(val - 0.25) <= 1e-15


def test_smooth_source_matches_fd_laplacian():
    smooth = preset("smooth")
    pts = np.array([(a, b) for a in (0.2, 0.5, 0.7) for b in (0.3, 0.6, 0.8)])
    h = 1e-4
    lap = (smooth.exact_u(pts + [h, 0]) + smooth.exact_u(pts - [h, 0])
           + smooth.exact_u(pts + [0, h]) + smooth.exact_u(pts - [0, h])
           - 4 * smooth.exact_u(pts)) / h ** 2
    assert np.abs(-lap - smooth.f(pts)).max() <= 1e-6


def test_smooth_boundary_data_zero():
    smooth = preset("smooth")
    t = np.linspace(0, 1, 13)
    edges = [np.stack([t, np.zeros_like(t)], axis=1),
             np.stack([t, np.ones_like(t)], axis=1),
             np.stack([np.zeros_like(t), t], axis=1),
             np.stack([np.ones_like(t), t], axis=1)]
    for pts in edges:
        assert np.abs(smooth.exact_u(pts)).max() <= 1e-15
        assert np.abs(smooth.u_D(pts)).max() == 0.0


def test_lshape_harmonic_away_from_corner():
    lshape = preset("lshape")
    pts = np.array([(0.5, 0.5), (0.7, -0.4), (-0.6, 0.5), (0.3, 0.8),
                    (0.8, 0.2), (-0.2, 0.9), (0.4, -0.7), (0.9, 0.9),
                    (-0.8, 0.3), (0.25, 0.35)])
    h = 1e-4
    u = lshape.exact_u
    lap = (u(pts + [h, 0]) + u(pts - [h, 0]) + u(pts + [0, h])
           + u(pts - [0, h]) - 4 * u(pts)) / h ** 2
    assert np.abs(lap).max() <= 1e-6


def test_lshape_gradient_consistency():
    lshape = preset("lshape")
    pts = np.array([(0.4, 0.3), (-0.5, 0.6), (0.3, -0.6)])
    lshape.validate_exact(pts)


def test_lshape_boundary_values_on_reentrant_edges():
    lshape = preset("lshape")
    s = np.linspace(0.05, 0.95, 7)
    down = np.stack([np.zeros_like(s), -s], axis=1)   # x = 0, y < 0
    left = np.stack([-s, np.zeros_like(s)], axis=1)   # y = 0, x < 0
    assert np.abs(lshape.exact_u(down)).max() <= 1e-13
    assert np.abs(lshape.exact_u(left)).max() <= 1e-13


def test_advdiff_residual_against_symbolic_oracle(rng):
    sp = pytest.importorskip("sympy")
    adv = preset("advdiff")
    x1, x2 = sp.symbols("x1 x2")
    P = sp.Rational(1000, 3)
    gex = lambda s: s + (sp.exp(P * s) - 1) / (1 - sp.exp(P))
    u_sym = gex(x1) * gex(x2)
    f_sym = (-sp.diff(u_sym, x1, 2) - sp.diff(u_sym, x2, 2)
             + P * sp.diff(u_sym, x1) + P * sp.diff(u_sym, x2))
    q_sym = (-sp.diff(u_sym, x1), -sp.diff(u_sym, x2))
    import mpmath
    mpmath.mp.dps = 40
    u_fn = sp.lambdify((x1, x2), u_sym, modules="mpmath")
    f_fn = sp.lambdify((x1, x2), f_sym, modules="mpmath")
    qx_fn = sp.lambdify((x1, x2), q_sym[0], modules="mpmath")
    qy_fn = sp.lambdify((x1, x2), q_sym[1], modules="mpmath")
    pts = rng.uniform(0.05, 0.97, size=(12, 2))
    u_got = adv.exact_u(pts)
    q_got = adv.exact_q(pts)
    f_got = adv.f(pts)
    for k, (a, b) in enumerate(pts):
        u_ref = float(u_fn(a, b))
        f_ref = float(f_fn(a, b))
        qx_ref, qy_ref = float(qx_fn(a, b)), float(qy_fn(a, b))
        assert abs(u_got[k] - u_ref) <= 1e-8 * max(1.0, abs(u_ref))
        assert abs(f_got[k] - f_ref) <= 1e-8 * max(1.0, abs(f_ref))
        assert abs(q_got[k, 0] - qx_ref) <= 1e-8 * max(1.0, abs(qx_ref))
        assert abs(q_got[k, 1] - qy_ref) <= 1e-8 * max(1.0, abs(qy_ref))


def test_advdiff_boundary_data_zero():
    adv = preset("advdiff")
    t = np.linspace(0, 1, 9)
    for pts in (np.stack([t, np.zeros_like(t)], axis=1),
                np.stack([t, np.ones_like(t)], axis=1),
                np.stack([np.zeros_like(t), t], axis=1),
                np.stack([np.ones_like(t), t], axis=1)):
        assert np.abs(adv.exact_u(pts)).max() <= 1e-12
        assert np.abs(adv.u_D(pts)).max() == 0.0


def test_advdiff_beta_value():
    adv = preset("advdiff")
    assert np.allclose(adv.beta, (1000.0 / 3.0, 1000.0 / 3.0))


def _advdiff_points(rng):
    """Random points of the unit square, and points with x or y in {0, 1}."""
    inner = rng.uniform(0.0, 1.0, size=(500, 2))
    t = rng.uniform(0.0, 1.0, 40)
    edges = [np.column_stack([np.full_like(t, c), t]) for c in (0.0, 1.0)]
    edges += [e[:, ::-1] for e in edges]
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    return np.vstack([inner, *edges, corners])


def test_advdiff_matches_closed_form_bitwise(rng):
    """The shared-exponential u, q and f give the bits of one exponential
    per term."""
    adv = preset("advdiff")
    pts = _advdiff_points(rng)
    for got, ref in zip((adv.exact_u, adv.exact_q, adv.f),
                        closed_form_advdiff(ADVECTION_PECLET)):
        assert np.array_equal(got(pts), ref(pts))


def test_lshape_flux_matches_closed_form(rng):
    """q from x / r and r^(-4/3) agrees with the polar unit-vector form to
    2e-15 relative per point, near the corner and on the rays theta = pi and
    theta = -pi/2 where u vanishes."""
    lshape = preset("lshape")
    r = 10.0 ** rng.uniform(-12, 0, 300)
    th = rng.uniform(-0.5 * np.pi, np.pi, 300)
    near = np.column_stack([r * np.cos(th), r * np.sin(th)])
    s = np.geomspace(1e-12, 1.0, 50)
    rays = [np.column_stack([-s, np.zeros_like(s)]),
            np.column_stack([np.zeros_like(s), -s])]
    for pts in (near, *rays):
        got, ref = lshape.exact_q(pts), closed_form_lshape_q(pts)
        err = np.linalg.norm(got - ref, axis=1)
        assert np.all(err <= 2e-15 * np.linalg.norm(ref, axis=1))


@pytest.mark.parametrize("name", ["smooth", "lshape", "advdiff", "linear"])
def test_preset_callables_leave_points_unchanged(name, rng):
    spec = preset(name)
    pts = rng.uniform(-1.0, 1.0, size=(64, 2))
    pts.setflags(write=False)
    keep = pts.copy()
    fns = [spec.f, spec.u_D, spec.exact_u, spec.exact_q, spec.quad_region]
    for fn in filter(None, fns):
        fn(pts)
        assert np.array_equal(pts, keep)
