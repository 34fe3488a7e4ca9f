"""Tangent-bundle geometry: spray family, tidal tensor, D-curvature ladder,
scalar-curvature split, generalized Einstein tensor.

Closed-form oracles used below (derived by hand before the assertions):
  - static Schwarzschild tidal eigenvalues: +2M/r^3 radial, -M/r^3 transverse;
  - flat constant field E0, y=(2,0,0,0), alpha: B-scalar = alpha^2 E0^2 / 2;
  - F_ij F^ij = -2 E0^2 (uniform field), -2 Q^2/r^4 (Reissner-Nordstrom).
"""

import math

import numpy as np
import pytest

from tbgrav import base_geom as bg
from tbgrav import bundle_geom as bun
from tbgrav import verify
from tbgrav.bundle_geom import BundleGeometry, BundlePoint, Y_SLOT0
from tbgrav.errors import SingularEvaluationError, UsageError
from tbgrav import jet_arrays
from tbgrav.jet_arrays import JetArray, concat
from tbgrav.jets import MAX_ORDER, Jet, ln_series
from tbgrav.exprlang import Tape, evaluate
from tbgrav.spacetime import CATALOG_NAMES, catalog, metric_jet

MINK = catalog("minkowski")
UNI = catalog("uniform_field", {"E0": 0.1})
SCHW = catalog("schwarzschild", {"M": 1.0})
RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})

X_FLAT = [0.0, 2.0, -1.0, 0.5]
Y_TIME = [2.0, 0.0, 0.0, 0.0]
X_RN = [0.2, 6.0, 1.2, 0.5]
Y_RN = [1.4, 0.05, 0.01, 0.02]


def _joint_space_fields(model, x, order):
    """g_ij and A_i as jet arrays on 8-variable jets by the tree walk, the
    reference semantics of the model's expressions; mirrored g entries hold
    one jet's bytes."""
    env = model.coord_env(x, order, 8)
    upper, _ = concat(*[evaluate(model.g_exprs[i][j], env) for i, j in zip(*np.triu_indices(4))])
    return bg.symmetric(upper), concat(*[evaluate(e, env) for e in model.a_exprs])[0]


def _rand_bundle_points(model, rng, n, boost=0.5):
    pts = []
    for _ in range(n):
        if model.coords[1] == "r":
            x = [rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.5, 2.6), rng.uniform(0, 6.2)]
        else:
            x = rng.uniform(-1, 1, size=4).tolist()
        g = metric_jet(model, x, order=0).values[0]
        # timelike y: normalized time direction plus a small spatial part
        y = np.array([1.0 / math.sqrt(g[0, 0]), 0.0, 0.0, 0.0])
        y[1:] = rng.uniform(-boost, boost, size=3) / np.sqrt(-np.diag(g)[1:])
        if y @ g @ y <= 0.1:
            y[1:] *= 0.1
        pts.append(BundlePoint(x, y))
    return pts


# -- supporting element ----------------------------------------------------------


def test_supporting_element_minkowski():
    geo = BundleGeometry(MINK, BundlePoint(X_FLAT, Y_TIME))
    assert geo.norm.values[0] == pytest.approx(2.0)
    assert np.allclose(geo.l_up.values, [1, 0, 0, 0])
    assert np.allclose(geo.l_low.values, [1, 0, 0, 0])


def test_supporting_element_null_rejected():
    with pytest.raises(SingularEvaluationError, match="g\\(y,y\\)"):
        BundleGeometry(MINK, BundlePoint(X_FLAT, [1.0, 1.0, 0.0, 0.0])).l_up


def test_supporting_element_schwarzschild():
    geo = BundleGeometry(SCHW, BundlePoint([0, 10, math.pi / 2, 0], [1, 0, 0, 0]))
    assert geo.norm.values[0] == pytest.approx(math.sqrt(0.8))
    assert geo.l_up[0].values[0] == pytest.approx(1 / math.sqrt(0.8))


def test_unit_supporting_element_everywhere():
    rng = np.random.default_rng(21)
    for p in _rand_bundle_points(RN, rng, 5):
        geo = BundleGeometry(RN, p)
        assert float(geo.l_up.values[0] @ geo.l_low.values[0]) == pytest.approx(1.0, abs=1e-13)


# -- spray family -----------------------------------------------------------------


def test_spray_alpha_zero_reduces_to_geodesic():
    rng = np.random.default_rng(22)
    for p in _rand_bundle_points(SCHW, rng, 3):
        geo = BundleGeometry(SCHW, p, alpha=0.0)
        assert np.max(np.abs(geo.b_up.values)) == 0.0
        n = geo.n_conn.values[0]
        gamma = bg.BaseGeometry(SCHW, p.x, 1).gamma.values[0]
        assert np.allclose(n, np.einsum("ijk,k->ij", gamma, p.y[0]), atol=1e-12)


def test_spray_B_uniform_field_closed_form():
    p = BundlePoint(X_FLAT, Y_TIME)
    b = BundleGeometry(UNI, p, alpha=1.0).b_up.values[0]
    # B^i = -(1/2)*|y|*F^i_j y^j = -2 F^i_0 at y=(2,0,0,0)
    f_mix = bg.BaseGeometry(UNI, X_FLAT, 1).faraday[1].values[0]
    assert np.allclose(b, -2.0 * f_mix[:, 0] * 2.0 * 0.5)
    assert b[1] == pytest.approx(-0.2)


def test_spray_perturbation_orthogonal_to_y():
    rng = np.random.default_rng(23)
    for p in _rand_bundle_points(RN, rng, 5):
        g = metric_jet(RN, p.x, order=0).values[0]
        b = BundleGeometry(RN, p).b_up.values[0]
        assert abs(b @ g @ p.y[0]) <= 1e-12


def test_nonlinear_connection_matches_spray_fiber_jets():
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), order=2)
    n_closed = geo.n_conn.values[0]
    n_jets = np.empty((4, 4))
    for i in range(4):
        for j in range(4):
            n_jets[i, j] = geo.spray.flat[i].partial(Y_SLOT0 + j).value
    assert np.max(np.abs(n_closed - n_jets)) <= 1e-12


def test_at_fiber_is_the_geometry_at_the_new_fiber_vector():
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), alpha=0.5)
    geo.tidal  # the x-only fields are built and cached
    y2 = 2.0 * np.asarray(Y_RN, dtype=float)
    moved, fresh = geo.at_fiber(y2), BundleGeometry(RN, BundlePoint(X_RN, y2), alpha=0.5)
    assert moved.base is geo.base and moved.g is geo.g
    for attr in ("n_conn", "tidal", "berwald"):
        assert [j.c.tobytes() for j in getattr(moved, attr).flat] == [j.c.tobytes() for j in getattr(fresh, attr).flat]
    assert moved.quad_term == fresh.quad_term and np.array_equal(moved.b_hessian, fresh.b_hessian)


# -- fiber derivatives of B --------------------------------------------------------


def test_fiber_derivs_euler_identities():
    p = BundlePoint(X_RN, Y_RN)
    b = BundleGeometry(RN, p).b_up.values[0]
    (b1, b2, b3), _ = (tuple(v[0] for v in part) for part in bun.fiber_derivs_B(RN, p))
    y = p.y[0]
    assert np.allclose(b1 @ y, 2 * b, rtol=1e-10)
    assert np.allclose(np.einsum("ijk,k->ij", b2, y), b1, rtol=1e-10)
    assert np.allclose(np.einsum("ijkl,l->ijk", b3, y), np.zeros((4, 4, 4)), atol=1e-10)


def test_fiber_derivs_trace_vanishes():
    # B^j_.ij = 0, hence N^j_.ij = gamma^j_ij
    p = BundlePoint(X_RN, Y_RN)
    (_, b2, _), _ = bun.fiber_derivs_B(RN, p)
    assert np.max(np.abs(np.einsum("jij->i", b2[0]))) <= 1e-12
    geo = BundleGeometry(RN, p, order=2)
    gamma = geo.gamma.values[0]
    n_trace = np.empty(4)
    for i in range(4):
        n_trace[i] = sum(geo.n_conn[j, i].flat[0].partial(Y_SLOT0 + j).value for j in range(4))
    assert np.allclose(n_trace, np.einsum("jij->i", gamma), atol=1e-12)


def test_fiber_derivs_alpha_zero():
    (b1, b2, b3), _ = bun.fiber_derivs_B(RN, BundlePoint(X_RN, Y_RN), alpha=0.0)
    assert np.max(np.abs(b1)) == np.max(np.abs(b2)) == np.max(np.abs(b3)) == 0.0


def test_fiber_derivs_closed_vs_jets():
    rng = np.random.default_rng(24)
    for model in (UNI, RN):
        for p in _rand_bundle_points(model, rng, 3):
            closed, jets = bun.fiber_derivs_B(model, p)
            for c, j in zip(closed, jets):
                scale = np.max(np.abs(c)) + 1.0
                assert np.max(np.abs(c - j)) <= 1e-10 * scale


# -- Berwald coefficients -----------------------------------------------------------


def test_berwald_alpha_zero_is_christoffel():
    p = BundlePoint(X_RN, Y_RN)
    gb = BundleGeometry(RN, p, alpha=0.0).berwald.values
    gamma = bg.BaseGeometry(RN, p.x, 1).gamma.values
    assert np.max(np.abs(gb - gamma)) <= 1e-10


def test_berwald_euler_identity():
    p = BundlePoint(X_RN, Y_RN)
    geo = BundleGeometry(RN, p)
    gb, n = geo.berwald.values[0], geo.n_conn.values[0]
    assert np.allclose(np.einsum("ijk,k->ij", gb, p.y[0]), n, rtol=1e-10, atol=1e-12)


def test_berwald_symmetry_and_hessian_consistency():
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), order=3)
    gb = geo.berwald.values[0]
    assert np.max(np.abs(gb - np.swapaxes(gb, 1, 2))) == 0.0
    for i in range(4):
        for j in range(4):
            for k in range(4):
                hess = geo.spray.flat[i].partial(Y_SLOT0 + j).partial(Y_SLOT0 + k).value
                assert hess == pytest.approx(gb[i, j, k], rel=1e-10, abs=1e-12)


# -- adapted derivative ---------------------------------------------------------------


def test_adapted_derivative_base_function():
    # for f = f(x) the fiber correction drops: delta_i f = d_i f
    geo = BundleGeometry(SCHW, BundlePoint([0, 10, math.pi / 2, 0.3], [2, 0, 0, 0]), order=2)
    out = geo.delta(_joint_space_fields(SCHW, geo.p.x, geo.order)[0][0, 0])
    # d_r g_00 = 2M/r^2 = 0.02
    assert out[1].values[0] == pytest.approx(0.02, rel=1e-12)
    assert out[0].values[0] == pytest.approx(0.0, abs=1e-15)


def test_adapted_derivative_log_volume_is_christoffel_trace():
    p = BundlePoint(X_RN, Y_RN)
    geo = BundleGeometry(RN, p, order=2)
    g, _ = _joint_space_fields(RN, p.x, geo.order)
    out = geo.delta((-bg.det_jet_matrix(g)).sqrt().compose(ln_series))
    gamma = bg.BaseGeometry(RN, p.x, 1).gamma.values[0]
    for i in range(4):
        assert out[i].values[0] == pytest.approx(np.einsum("jji->i", gamma)[i], rel=1e-10, abs=1e-13)


def test_adapted_derivative_norm_squared_two_paths():
    p = BundlePoint(X_RN, Y_RN)
    geo = BundleGeometry(RN, p, order=2)
    out = geo.delta(geo.norm2)
    gj = metric_jet(RN, p.x, order=1)
    n = geo.n_conn.values[0]
    g = geo.g.values[0]
    y = p.y[0]
    for i in range(4):
        dg = np.array([[gj[a, b].flat[0].gradient()[i] for b in range(4)] for a in range(4)])
        hand = y @ dg @ y - 2.0 * (y @ g @ n[:, i])
        assert out[i].values[0] == pytest.approx(hand, rel=1e-10, abs=1e-13)


def test_delta_and_divergence_take_jet_arrays_only():
    """``delta`` takes any joint-space jet array and ``divergence`` a (4,)
    one; a field of floats, a list of jet arrays or a field of 3 components
    raises ``UsageError``."""
    p = BundlePoint(X_RN, Y_RN)
    geo = BundleGeometry(RN, p, order=2)
    out = geo.delta(geo.l_low)
    assert isinstance(out, JetArray) and out.shape == (4, 4)
    r = RN.coord_env(p.x, geo.order, nvars=8)["r"]
    lifted, _ = concat(r, r, r, r)
    assert np.isfinite(geo.divergence(lifted, geo.n_conn))
    for bad in ([1.0, 2.0], np.zeros(4), [r, r, r, r]):
        with pytest.raises(UsageError, match="needs a jet array"):
            geo.delta(bad)
        with pytest.raises(UsageError, match="4 components"):
            geo.divergence(bad, geo.n_conn)
    with pytest.raises(UsageError, match="4 components"):
        geo.divergence(lifted[:3], geo.n_conn)


# -- curvature of N and tidal tensor ---------------------------------------------------


def test_n_curvature_antisymmetry_exact():
    r3 = BundleGeometry(RN, BundlePoint(X_RN, Y_RN)).n_curvature.values[0]
    assert np.array_equal(r3, -np.swapaxes(r3, 1, 2))


def test_tidal_alpha_zero_matches_base_riemann():
    rng = np.random.default_rng(25)
    for model in (SCHW, RN):
        for p in _rand_bundle_points(model, rng, 3):
            e = BundleGeometry(model, p, alpha=0.0).tidal.values[0]
            riem = bg.BaseGeometry(model, p.x, 2).riemann.values[0]
            expected = np.einsum("iabl,a,b->il", riem, p.y[0], p.y[0])
            scale = np.max(np.abs(expected)) + 1e-12
            assert np.max(np.abs(e - expected)) <= 1e-10 * scale


def test_tidal_minkowski_zero():
    e = BundleGeometry(MINK, BundlePoint(X_FLAT, Y_TIME), alpha=0.0).tidal.values
    assert np.max(np.abs(e)) == 0.0


def test_schwarzschild_static_tidal_eigenvalues():
    r = 10.0
    f = 1 - 2 / r
    p = BundlePoint([0, r, math.pi / 2, 0.3], [1 / math.sqrt(f), 0, 0, 0])
    e = BundleGeometry(SCHW, p, alpha=0.0).tidal.values[0]
    assert e[1, 1] == pytest.approx(2 / r**3, rel=1e-12)
    assert e[2, 2] == pytest.approx(-1 / r**3, rel=1e-12)
    assert e[3, 3] == pytest.approx(-1 / r**3, rel=1e-12)
    assert abs(np.trace(e)) <= 1e-15


# -- D-curvature ladder -------------------------------------------------------------------


def test_d_curvature_alpha_zero_collapse():
    p = BundlePoint(X_RN, Y_RN)
    geo = BundleGeometry(RN, p, alpha=0.0)
    ric, scalar = geo.d_ricci, geo.d_ricci_scalar
    base = bg.BaseGeometry(RN, p.x, 2)
    assert np.max(np.abs(ric - base.ricci.values)) <= 1e-10
    assert abs(scalar - base.ricci_scalar) <= 1e-10


def test_d_curvature_reconstruction_identities():
    rng = np.random.default_rng(26)
    for p in _rand_bundle_points(RN, rng, 4):
        geo = BundleGeometry(RN, p, order=4)
        e, y = geo.tidal.values[0], p.y[0]
        scale = np.max(np.abs(e)) + 1e-12
        recon = np.einsum("jikl,j,l->ik", geo.d_riemann[0], y, y)
        assert np.max(np.abs(e - recon)) <= 1e-9 * scale
        assert abs(np.trace(e) + y @ geo.d_ricci[0] @ y) <= 1e-9 * scale


def test_d_ricci_contraction_relations():
    # exact relations in these conventions: sum_i R_j^i_il = -R_jl and
    # 2 sum_i R_j^i_li = R_jl (the factor 2 is where the reference display differs)
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), order=4)
    r4, ric = geo.d_riemann[0], geo.d_ricci[0]
    contr_li = np.einsum("jili->jl", r4)
    contr_il = np.einsum("jiil->jl", r4)
    scale = np.max(np.abs(ric)) + 1e-12
    assert np.max(np.abs(2 * contr_li - ric)) <= 1e-12 * scale
    assert np.max(np.abs(contr_il + ric)) <= 1e-12 * scale


def test_d_ricci_homogeneity_degree_zero():
    p = BundlePoint(X_RN, Y_RN)
    geo1 = BundleGeometry(RN, p)
    geo2 = BundleGeometry(RN, BundlePoint(X_RN, 2.0 * np.asarray(Y_RN)))
    ric1, r1 = geo1.d_ricci, geo1.d_ricci_scalar
    ric2, r2 = geo2.d_ricci, geo2.d_ricci_scalar
    scale = np.max(np.abs(ric1)) + 1.0
    assert np.max(np.abs(ric1 - ric2)) <= 1e-9 * scale
    assert abs(r1 - r2) <= 1e-9 * (abs(r1) + 1.0)


# -- scalar-curvature split ------------------------------------------------------------------


def test_decomposition_alpha_zero():
    dec = bun.ricci_decomposition(SCHW, BundlePoint([0, 10, math.pi / 2, 0.3], [1.2, 0.01, 0, 0]), alpha=0.0)
    assert dec["div_term"] == 0.0 and dec["quad_term"] == 0.0
    assert dec["R"] == pytest.approx(dec["r"], abs=1e-12)


def test_decomposition_uniform_field_closed_form():
    dec = bun.ricci_decomposition(UNI, BundlePoint(X_FLAT, [2.0, 0.3, -0.2, 0.1]), alpha=1.0)
    assert dec["f_squared"] == pytest.approx(-0.02, rel=1e-12)  # -2 E0^2
    assert dec["quad_term"] == pytest.approx(1.5 * -0.02, rel=1e-12)  # (3 a^2/2) F^2
    assert abs(dec["residual"]) <= 1e-12


def test_decomposition_rn_at_star_coupling():
    p = BundlePoint([0.0, 5.0, math.pi / 2, 0.3], [1.4, 0.0, 0.0, 0.02])
    dec = bun.ricci_decomposition(RN, p)  # model alpha defaults to star
    # (3 a*^2/2) F^2 = (k/c^4) * (-2 Q^2 / r^4)
    assert dec["quad_term"] == pytest.approx(-2 * 0.09 / 625.0, rel=1e-9)
    assert abs(dec["residual"]) <= 1e-8


def test_decomposition_divergence_convention_frozen():
    # the split closes only with the coupling-free adapted basis; using the
    # alpha-adapted basis leaves exactly (5 alpha^2/4) F^2 uncancelled in flat
    # space with constant F (hand derivation), which pins the frozen choice
    alpha = 1.0
    p = BundlePoint(X_FLAT, [2.0, 0.3, -0.2, 0.1])

    geo, geo0 = BundleGeometry(UNI, p, order=3, alpha=alpha), BundleGeometry(UNI, p, order=3, alpha=0.0)
    out = [None] * 4
    for i in range(4):
        acc = None
        for j in range(4):
            for k in range(4):
                term = geo.ginv[j, k] * geo.b_jk[i, j, k]
                acc = term if acc is None else acc + term
        out[i] = acc
    b_contraction, _ = concat(*out)

    div_frozen = geo0.divergence(b_contraction, geo0.n_conn)
    div_variant = geo.divergence(b_contraction, geo.n_conn)
    dec = bun.ricci_decomposition(UNI, p, alpha=alpha)
    assert div_frozen == pytest.approx(dec["div_term"], abs=1e-14)
    assert abs(dec["R"] - dec["r"] - div_variant - dec["quad_term"]) > 1e-4
    assert div_variant == pytest.approx(1.25 * alpha**2 * dec["f_squared"], rel=1e-10)


def test_decomposition_quad_term_y_independent():
    quads = []
    for y in ([1.5, 0, 0, 0], [1.3, 0.2, -0.1, 0.05], [2.0, -0.3, 0.2, 0.1]):
        quads.append(bun.ricci_decomposition(RN, BundlePoint(X_RN, y))["quad_term"])
    assert max(quads) - min(quads) <= 1e-9 * (abs(quads[0]) + 1.0)


# -- B-scalar ---------------------------------------------------------------------------------


def test_b_scalar_alpha_zero():
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), alpha=0.0)
    val, hess = geo.b_scalar.values[0], geo.b_hessian
    assert val == 0.0 and np.max(np.abs(hess)) == 0.0


def test_b_scalar_uniform_field_hand_oracle():
    # y=(2,0,0,0): B-scalar = (3/2)(-4 a^2 E0^2)/4 + (1/2)(4 a^2 E0^2) = a^2 E0^2 / 2
    val = BundleGeometry(UNI, BundlePoint(X_FLAT, Y_TIME), alpha=1.0).b_scalar.values[0]
    assert val == pytest.approx(0.005, rel=1e-12)


def test_b_scalar_homogeneity_degree_two():
    # B^i is degree-2 homogeneous, so the B-scalar is an exact quadratic form in y
    # (closed form alpha^2/8 (phi^2 - |y|^2 F^2)); the reference text's degree-0
    # claim miscounts.  The degree-0 object is the fiber Hessian below.
    v1 = BundleGeometry(RN, BundlePoint(X_RN, Y_RN)).b_scalar.values[0]
    v2 = BundleGeometry(RN, BundlePoint(X_RN, 2.0 * np.asarray(Y_RN))).b_scalar.values[0]
    assert v2 == pytest.approx(4.0 * v1, rel=1e-10)


def test_b_scalar_closed_form_quadratic():
    geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), order=1)
    g = geo.g.values[0]
    ginv = np.linalg.inv(g)
    fl = geo.faraday[0].values[0]
    phi = ginv @ fl @ np.asarray(Y_RN)
    f2 = np.einsum("ia,jb,ij,ab->", ginv, ginv, fl, fl)
    y = np.asarray(Y_RN)
    closed = RN.alpha**2 / 8 * (phi @ g @ phi - (y @ g @ y) * f2)
    val = geo.b_scalar.values[0]
    assert val == pytest.approx(closed, rel=1e-12)


def test_b_hessian_y_independent():
    hs = [
        BundleGeometry(RN, BundlePoint(X_RN, y)).b_hessian
        for y in ([1.4, 0.05, 0.01, 0.02], [1.7, 0, 0, 0], [1.3, 0.2, -0.1, 0.05])
    ]
    scale = np.max(np.abs(hs[0])) + 1e-12
    assert max(np.max(np.abs(h - hs[0])) for h in hs[1:]) <= 1e-10 * scale


def test_b_hessian_symmetric():
    hess = BundleGeometry(RN, BundlePoint(X_RN, Y_RN)).b_hessian[0]
    assert np.array_equal(hess, hess.T)


# -- generalized Einstein tensor ------------------------------------------------------------------


def test_generalized_einstein_rn_electrovacuum():
    rng = np.random.default_rng(27)
    for p in _rand_bundle_points(RN, rng, 5):
        ge = bun.generalized_einstein(RN, p)
        assert ge["max_abs_variational"] <= 1e-9


def test_generalized_einstein_schwarzschild_any_alpha():
    ge = bun.generalized_einstein(SCHW, BundlePoint([0, 10, math.pi / 2, 0.3], [1.2, 0, 0, 0]), alpha=0.37)
    assert ge["max_abs_variational"] <= 1e-10


def test_generalized_einstein_minkowski():
    ge = bun.generalized_einstein(MINK, BundlePoint(X_FLAT, Y_TIME))
    assert ge["max_abs_variational"] == 0.0
    assert ge["difference"] <= 1e-12


# The arithmetic members ``Jet`` had before it became read-only.
JET_ARITHMETIC = ("_coerce", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__", "__rmul__",
                  "__truediv__", "__rtruediv__", "__pow__", "_compose", "_reciprocal", "sqrt", "exp", "ln", "sin",
                  "cos", "abs", "pow_const")


def test_jet_operation_budget(monkeypatch):
    """The work of one ricci_decomposition plus one generalized_einstein call
    on the stacked route: masked kernel calls (``jet_arrays._coefficients``),
    the live terms they form (both factors not all zero) and the products of
    those terms over their live table pairs, pinned to the counts measured
    since |y|, 1/|y| and the b-scalar's division compose on jet arrays
    (``JetArray.compose``).  ``Jet`` is read-only: every product is the
    kernel's or, on the tapes, the dense row product's."""
    assert not any(name in vars(Jet) for name in JET_ARITHMETIC)
    counts = {"calls": 0, "terms": 0, "products": 0}
    kernel = jet_arrays._coefficients

    def counted_kernel(space, a, b, ta, tb):
        live = int(np.count_nonzero(a.any(axis=(0, 2))[ta] & b.any(axis=(0, 2))[tb]))
        counts["calls"] += 1
        counts["terms"] += live
        ia, ib, _ = space._mul_table
        counts["products"] += live * int(np.count_nonzero(a.any(axis=(0, 1))[ia] & b.any(axis=(0, 1))[ib]))
        return kernel(space, a, b, ta, tb)

    p = BundlePoint(X_RN, Y_RN)
    bun.ricci_decomposition(RN, p)  # the model's tapes are compiled on first use
    monkeypatch.setattr(jet_arrays, "_coefficients", counted_kernel)
    bun.ricci_decomposition(RN, p)
    bun.generalized_einstein(RN, p)
    assert counts == {"calls": 64, "terms": 665, "products": 72084}


# -- carrier order ------------------------------------------------------------------------------

CATALOG_PARAMS = {
    "minkowski": {},
    "uniform_field": {"E0": 0.1},
    "schwarzschild": {"M": 1.0},
    "reissner_nordstrom": {"M": 1.0, "Q": 0.3},
    "weak_field": {"M": 1.0},
}
# (object, lowest carrier order that holds it)
LADDER_OBJECTS = (("spray", 1), ("n_conn", 1), ("berwald", 1), ("b_up", 1), ("tidal", 2), ("b_hessian", 3))


def _value_bytes(geo, attr):
    value = getattr(geo, attr)
    return (value.values if isinstance(value, JetArray) else value).tobytes()


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_values_independent_of_carrier_order(name):
    """BundleGeometry defaults to MAX_ORDER because no object's values depend
    on the carrier order: every lower order that holds an object gives the
    MAX_ORDER bytes."""
    model = catalog(name, CATALOG_PARAMS[name])
    rng = np.random.default_rng(28)
    for alpha in (0.0, 0.5):
        for p in verify.sample_bundle_points(model, rng, 2):
            full = BundleGeometry(model, p, alpha=alpha)
            assert full.order == MAX_ORDER
            for order in range(1, MAX_ORDER):
                geo = BundleGeometry(model, p, order=order, alpha=alpha)
                for attr, lowest in LADDER_OBJECTS:
                    if order >= lowest:
                        assert _value_bytes(geo, attr) == _value_bytes(full, attr), (attr, order, alpha)


def _joint_space_route(model, x, order):
    """g, g^-1, A and, from budget 2 (an x-partial's weight) on, gamma and
    (F_ij, F^i_j) evaluated on 8-variable jets, as BundleGeometry built them
    before its base fields were lifted."""
    g, a_pot = _joint_space_fields(model, x, order)
    ginv = bg.invert_jet_matrix(g)
    if order < 2:
        return {"g": g, "ginv": ginv, "a_pot": a_pot}
    f_low, f_mix = bg.faraday_jets(a_pot, ginv)
    return {"g": g, "ginv": ginv, "gamma": bg.christoffel_jets(g, ginv), "a_pot": a_pot,
            "f_low": f_low, "f_mix": f_mix}


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_lifted_base_fields_match_joint_space_route(name):
    """The base fields BundleGeometry builds on 4-variable jets and lifts
    hold at least the budget of the 8-variable evaluation and, truncated to
    it, its coefficients, compared with ``np.array_equal``, so +0.0 and -0.0
    count as equal: the 8-variable route leaves -0.0 in some y coefficients
    (negations and negative scalar factors of zero), where the lift writes
    +0.0.  Mirrored entries hold the same bytes."""
    model = catalog(name, CATALOG_PARAMS[name])
    rng = np.random.default_rng(31)
    for alpha in (0.0, 0.5):
        for p in verify.sample_bundle_points(model, rng, 2):
            for order in range(1, MAX_ORDER + 1):
                geo = BundleGeometry(model, p, order=order, alpha=alpha)
                lifted = {"g": geo.g, "ginv": geo.ginv, "gamma": geo.gamma, "a_pot": geo.base.a_pot.lift(geo.space),
                          "f_low": geo.faraday[0], "f_mix": geo.faraday[1]}
                for key, ref in _joint_space_route(model, p.x, order).items():
                    assert lifted[key].order >= ref.order, (key, order)
                    for idx in np.ndindex(ref.shape):
                        got = lifted[key][idx].truncate(ref.order)
                        assert got.space is ref[idx].space, (key, idx, order)
                        assert np.array_equal(got.c, ref[idx].c), (name, key, idx, order, alpha)
                assert all(geo.g[i, j].c.tobytes() == geo.g[j, i].c.tobytes() for i in range(4) for j in range(4))
                assert all(geo.gamma[i, j, k].c.tobytes() == geo.gamma[i, k, j].c.tobytes()
                           for i, j, k in np.ndindex(4, 4, 4))


def test_geometry_evaluates_no_joint_space_tape(monkeypatch):
    """The base fields are built once on the tapes' 4-variable jets, at total
    order budget // 2 + 1, and lifted: reading the curvature ladder and the
    split terms of a default-budget geometry runs the metric and the
    potential tape once each, at order 3."""
    jets, runs = Tape.jets, []

    def recorded(self, x, order):
        runs.append((self, order))
        return jets(self, x, order)

    monkeypatch.setattr(Tape, "jets", recorded)
    for alpha in (0.0, 0.5):
        runs.clear()
        geo = BundleGeometry(RN, BundlePoint(X_RN, Y_RN), alpha=alpha)
        assert geo.order == MAX_ORDER
        geo.tidal, geo.b_hessian, geo.div_term, geo.quad_term
        assert runs == [(RN.metric_tape, 3), (RN.potential_tape, 3)]


# -- homogeneity ladder ------------------------------------------------------------------------


def test_homogeneity_ladder():
    defects = verify.homogeneity_defects(RN, BundlePoint(X_RN, Y_RN))
    assert len(defects) == 6 and max(defects) <= 1e-9
