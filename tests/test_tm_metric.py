"""Fiber metric completion, unit-volume ball, quadrature, divergence lift.

Hand oracles:
  - 4-ball volume pi^2 R^4 / 2 with R^2 = sqrt(2)/pi gives exactly 1;
  - quadratic moment over the ball: integral of z.z = pi^2 R^6 / 3 = 2 sqrt(2)/(3 pi);
  - div(r^2 d_r) on Schwarzschild = (1/(r^2 sin th)) d_r(r^2 sin th * r^2) = 4 r.
"""

import json
import math
import re

import numpy as np
import pytest

from tbgrav import bundle_geom as bun
from tbgrav import cli, exprlang, verify
from tbgrav import tm_metric as tm
from tbgrav.bundle_geom import BundleGeometry, BundlePoint
from tbgrav.errors import SingularEvaluationError, UsageError
from tbgrav.jet_arrays import concat
from tbgrav.spacetime import catalog, load_model, metric_jet

MINK = catalog("minkowski")
SCHW = catalog("schwarzschild", {"M": 1.0})
RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
X_SCHW = [0.0, 10.0, math.pi / 2, 0.3]
X_FLAT = [0.0, 0.5, -0.2, 1.0]


def test_fiber_metric_minkowski_identity():
    ball = tm.fiber_ball(MINK, X_FLAT)
    assert np.allclose(ball.v, np.eye(4), atol=1e-15)


def test_det_v_equals_minus_det_g():
    rng = np.random.default_rng(31)
    for model in (MINK, SCHW, RN, catalog("weak_field", {"M": 1.0})):
        for _ in range(10):
            if model.coords[1] == "r":
                x = [rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.5, 2.6), rng.uniform(0, 6.2)]
            elif model.name == "weak_field":
                x = [0.0, rng.uniform(3, 8), rng.uniform(3, 8), rng.uniform(3, 8)]
            else:
                x = rng.uniform(-1, 1, size=4).tolist()
            ball = tm.fiber_ball(model, x)
            g = metric_jet(model, x, order=0).values
            assert np.linalg.det(ball.v) == pytest.approx(-np.linalg.det(g), rel=1e-12)


def test_schwarzschild_det_closed_form():
    ball = tm.fiber_ball(SCHW, X_SCHW)
    r, th = 10.0, math.pi / 2
    assert np.linalg.det(ball.v) == pytest.approx(r**4 * math.sin(th) ** 2, rel=1e-12)


def test_fiber_metric_positive_definite():
    rng = np.random.default_rng(32)
    ball = tm.fiber_ball(SCHW, X_SCHW)
    for _ in range(100):
        y = rng.uniform(-1, 1, size=4)
        if np.linalg.norm(y) > 1e-12:
            assert y @ ball.v @ y > 0.0


def test_ball_volume_is_one():
    for model, x in ((MINK, X_FLAT), (SCHW, X_SCHW), (RN, [0.0, 5.0, 1.2, 0.5])):
        vol = tm.fiber_integral(model, x, lambda ys: np.ones(len(ys)))
        assert vol == pytest.approx(1.0, abs=1e-8)


def test_ball_bound_constant():
    assert tm.BALL_BOUND == pytest.approx(math.sqrt(2) / math.pi)
    # the rule's nodes lie in {v(y, y) <= BALL_BOUND}, the outermost near its boundary
    ball, ys, _, _ = tm.fiber_rule(SCHW, X_SCHW, (8, 8, 8, 16))
    vyy = np.einsum("ni,ij,nj->n", ys, ball.v, ys)
    assert 0.9 * tm.BALL_BOUND < np.max(vyy) < tm.BALL_BOUND


def test_fiber_ball_needs_timelike_time_axis():
    """Inside the outer horizon of the charged black hole in ingoing
    Eddington-Finkelstein coordinates g_00 < 0, so the time axis is no
    direction to complete g along."""
    ingoing = load_model(json.dumps({
        "name": "rn_ingoing_ef", "coords": ["v", "r", "theta", "phi"], "params": {"M": 1.0, "Q": 0.3},
        "metric": [["1 - 2*M/r + Q^2/r^2", "-1", "0", "0"], ["-1", "0", "0", "0"],
                   ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]],
        "chart_guard": "r + sin(theta) - sqrt(r^2 + sin(theta)^2)",
    }))
    assert tm.fiber_ball(ingoing, [0.0, 5.0, 1.2, 0.3]).g[0, 0] > 0.0
    with pytest.raises(SingularEvaluationError, match="g_00 > 0"):
        tm.fiber_ball(ingoing, [0.0, 1.0, 1.2, 0.3])


def test_quadratic_moment_closed_form():
    # f = v_ij y^i y^j integrates to pi^2 R^6/3 with R = sqrt(bound)
    ball = tm.fiber_ball(SCHW, X_SCHW)
    val = tm.fiber_integral(SCHW, X_SCHW, lambda ys: np.einsum("ni,ij,nj->n", ys, ball.v, ys))
    expect = 2.0 * math.sqrt(2.0) / (3.0 * math.pi)
    assert val == pytest.approx(expect, rel=1e-10)


def test_odd_integrand_vanishes():
    val = tm.fiber_integral(MINK, X_FLAT, lambda ys: ys[:, 0] + 0.3 * ys[:, 2] ** 3)
    assert abs(val) <= 1e-10


def test_fiber_integral_reports_node_count():
    _, ys, w, shifted = tm.fiber_rule(MINK, X_FLAT, (8, 8, 8, 16))
    assert len(ys) == len(w) == 8 * 8 * 8 * 16 and shifted == 0
    val = tm.fiber_integral(MINK, X_FLAT, lambda ys: np.ones(len(ys)), nodes=(8, 8, 8, 16))
    assert val == pytest.approx(1.0, abs=1e-8)


def test_one_metric_evaluation_per_fiber_point(monkeypatch, capsys):
    """fiber_rule, each base node of tm_integral, integrate-volume and each
    det_fiber_metric point run the metric tape once: g and v come from one
    fiber ball.  ``integrate-volume --box`` runs it once at x and once per
    node of its 4^4 base rule, where both integrals read that node's ball."""
    runs = []
    values = exprlang.Tape.values

    def counted(tape, x):
        runs.append(tape is SCHW.metric_tape)
        return values(tape, x)

    monkeypatch.setattr(exprlang.Tape, "values", counted)
    monkeypatch.setattr(cli, "catalog", lambda name, params: SCHW)
    box = [(0.0, 0.5), (9.0, 11.0), (1.2, 1.8), (0.0, 0.5)]
    xs = [X_SCHW, [0.1, 8.0, 1.2, 0.5], [0.0, 12.0, 0.9, 1.0]]
    for work, points in (
        (lambda: tm.fiber_rule(SCHW, X_SCHW, (4, 4, 4, 8)), 1),
        (lambda: tm.tm_integral(SCHW, box, lambda x, ys: np.ones(len(ys)), base_nodes=2, fiber_nodes=(4, 4, 4, 8)), 16),
        (lambda: cli.main(["integrate-volume", "--catalog", "schwarzschild", "--x", "0,10,1.5707963,0.3"]), 1),
        (lambda: cli.main(["integrate-volume", "--catalog", "schwarzschild", "--x", "0,10,1.5707963,0.3",
                           "--box", "0:0.5,9:11,1.2:1.8,0:0.5"]), 1 + 4**4),
        (lambda: verify._det_fiber_metric(BundleGeometry(SCHW, BundlePoint(xs, np.tile([1.0, 0.0, 0.0, 0.0], (3, 1)))), None), 3),
    ):
        runs.clear()
        work()
        assert sum(runs) == points
    capsys.readouterr()


@pytest.mark.parametrize("integrand, shape", [(lambda ys: 1.0, "()"), (lambda ys: np.ones((len(ys), 1)), "(512, 1)")])
def test_fiber_integral_rejects_bad_integrand(integrand, shape):
    """The integrand maps the (n, 4) nodes to an (n,) float array; any other
    return fails fast and names the shape it got."""
    with pytest.raises(UsageError, match=rf"shape \(512,\), got shape {re.escape(shape)}"):
        tm.fiber_integral(MINK, X_FLAT, integrand, nodes=(4, 4, 4, 8))
    with pytest.raises(UsageError, match=re.escape(shape)):
        tm.tm_integral(MINK, [(0, 1)] * 4, lambda x, ys: integrand(ys), base_nodes=1, fiber_nodes=(4, 4, 4, 8))


def test_tm_integral_unit_box_flat():
    box = [(0, 1), (0, 1), (0, 1), (0, 1)]
    assert tm.tm_integral(MINK, box, lambda x, ys: np.ones(len(ys)), base_nodes=2) == pytest.approx(1.0, abs=1e-10)


def test_tm_integral_matches_base_integral():
    box = [(0.0, 0.5), (9.0, 11.0), (1.2, 1.8), (0.0, 0.5)]
    f = lambda x: 1.0 + 0.1 * x[1] + math.sin(x[2])
    lhs = tm.tm_integral(SCHW, box, lambda x, ys: np.full(len(ys), f(x)), base_nodes=3, fiber_nodes=(6, 6, 6, 12))
    rhs = tm.base_integral(SCHW, box, f, base_nodes=3)
    assert lhs == pytest.approx(rhs, rel=1e-8)


def test_tm_integral_linear_in_f():
    box = [(0, 0.5), (0, 0.5), (0, 0.5), (0, 0.5)]
    f1 = lambda x, ys: np.ones(len(ys))
    f2 = lambda x, ys: np.full(len(ys), x[1])
    a = tm.tm_integral(MINK, box, f1, base_nodes=2)
    b = tm.tm_integral(MINK, box, f2, base_nodes=2)
    c = tm.tm_integral(MINK, box, lambda x, ys: 2.0 * f1(x, ys) + 3.0 * f2(x, ys), base_nodes=2)
    assert c == pytest.approx(2 * a + 3 * b, rel=1e-12)


def _lift(geo, component_fn):
    """The horizontal lift of the base field ``component_fn(env)`` (its 4
    components on ``coord_env``'s jets): the field on the joint jets of
    the geometry's points, as one jet array."""
    return concat(*component_fn(geo.model.coord_env(geo.p.x, geo.order, nvars=8)))[0]


def test_horizontal_divergence_constant_field_flat():
    geo = BundleGeometry(MINK, BundlePoint(X_FLAT, [1.5, 0, 0, 0]), order=2)
    field = _lift(geo, lambda env: [env["t"] * 0 + 1.0, env["t"] * 0, env["t"] * 0, env["t"] * 0])
    div = geo.divergence(field, geo.n_conn)
    assert div == pytest.approx(0.0, abs=1e-14)


def test_horizontal_divergence_radial_field_closed_form():
    geo = BundleGeometry(SCHW, BundlePoint(X_SCHW, [1.2, 0.0, 0.0, 0.0]), order=2)
    field = _lift(geo, lambda env: [env["r"] * 0, env["r"] * env["r"], env["r"] * 0, env["r"] * 0])
    div = geo.divergence(field, geo.n_conn)
    assert div == pytest.approx(4.0 * 10.0, rel=1e-12)


def test_divergence_lift_commutation_random_polynomials():
    rng = np.random.default_rng(34)
    geo = BundleGeometry(SCHW, BundlePoint(X_SCHW, [1.2, 0.02, 0.0, 0.01]), order=2)
    for _ in range(5):
        coeffs = rng.uniform(-1, 1, size=(4, 4))

        def components(env, c=coeffs):
            names = ("t", "r", "theta", "phi")
            out = []
            for i in range(4):
                acc = env[names[0]] * 0 + float(c[i, 0])
                for j, nm in enumerate(names):
                    acc = acc + env[nm] * float(c[i, min(j + 1, 3)])
                out.append(acc)
            return out

        lifted = geo.divergence(_lift(geo, components), geo.n_conn)
        base = tm.base_divergence_values(geo.base, concat(*components(SCHW.coord_env(geo.p.x, 1)))[0])
        assert lifted == pytest.approx(base, rel=1e-9, abs=1e-12)


def test_divergence_matches_decomposition_div_term():
    # the frozen scalar-split divergence term equals the alpha=0 horizontal
    # divergence of X^i = g^{jk} B^i_jk
    p = BundlePoint([0.2, 6.0, 1.2, 0.5], [1.4, 0.05, 0.01, 0.02])

    geo, geo0 = BundleGeometry(RN, p, order=3), BundleGeometry(RN, p, order=3, alpha=0.0)
    out = [None] * 4
    for i in range(4):
        acc = None
        for j in range(4):
            for k in range(4):
                term = geo.ginv[j, k] * geo.b_jk[i, j, k]
                acc = term if acc is None else acc + term
        out[i] = acc
    b_contraction, _ = concat(*out)

    div = geo0.divergence(b_contraction, geo0.n_conn)
    dec = bun.ricci_decomposition(BundleGeometry(RN, p))
    assert div == pytest.approx(dec["div_term"], rel=1e-9, abs=1e-14)
