"""Worldlines, conservation, deviation, and the first-order neighbor oracle.

Closed-form oracles:
  - flat constant field E0, rest start: y = (cosh(a t), sinh(a t), 0, 0),
    x = (sinh(a t)/a, (cosh(a t) - 1)/a, 0, 0) with a = alpha E0;
  - circular orbit at r: Omega = sqrt(M/r^3), unit-normalized.
"""

import io
import json
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from tbgrav import base_geom, bundle_geom, exprlang, spacetime
from tbgrav import dynamics as dyn
from tbgrav.base_geom import BaseGeometry
from tbgrav.bundle_geom import BundleGeometry, BundlePoint, connection_and_tidal_values
from tbgrav.errors import IntegrationError, SingularEvaluationError, UsageError
from tbgrav.jet_arrays import JetArray
from tbgrav.jets import Jet
from tbgrav.spacetime import catalog, load_model, metric_jet

MINK = catalog("minkowski")
UNI = catalog("uniform_field", {"E0": 0.1})
SCHW = catalog("schwarzschild", {"M": 1.0})
RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})

X0_ORBIT = np.array([0.0, 10.0, math.pi / 2, 0.0])
OMEGA = math.sqrt(1e-3)
Y0_PERTURBED = np.array([1.0, 0.005, 0.0, 0.98 * OMEGA])
DENSE = Path(__file__).resolve().parents[1] / "tools" / "dense_model.json"


def test_lagrangian_flat_unit():
    assert dyn.randers_lagrangian(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0) == 1.0


def test_lagrangian_rn_value():
    f5 = 1 - 2 / 5 + 0.09 / 25
    val = dyn.randers_lagrangian(RN, [0.0, 5.0, math.pi / 2, 0.0], [1, 0, 0, 0], alpha=1.0)
    assert val == pytest.approx(math.sqrt(f5) + 0.06, rel=1e-12)


def test_lagrangian_positive_homogeneity():
    x, y = [0.0, 5.0, math.pi / 2, 0.0], np.array([1.0, 0.01, 0.0, 0.01])
    l1 = dyn.randers_lagrangian(RN, x, y, alpha=0.7)
    l3 = dyn.randers_lagrangian(RN, x, 3.0 * y, alpha=0.7)
    assert l3 == pytest.approx(3.0 * l1, rel=1e-12)


def test_rhs_flat_geodesic():
    assert np.max(np.abs(dyn.worldline_rhs(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0))) == 0.0


def test_rhs_uniform_field():
    a = dyn.worldline_rhs(UNI, [0, 0, 0, 0], [1, 0, 0, 0], alpha=1.0)
    assert a[1] == pytest.approx(0.1)


def test_rhs_equals_minus_twice_spray():
    rng = np.random.default_rng(41)
    for _ in range(20):
        x = [rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.5, 2.6), rng.uniform(0, 6)]
        from tbgrav.spacetime import metric_jet

        g = metric_jet(RN, x, order=0).values[0]
        y = np.array([1.2 / math.sqrt(g[0, 0]), 0, 0, 0])
        y[1:] = rng.uniform(-0.2, 0.2, 3) / np.sqrt(-np.diag(g)[1:])
        rhs = dyn.worldline_rhs(RN, x, y, alpha=0.6)
        spray = BundleGeometry(RN, BundlePoint(x, y), alpha=0.6).spray.values[0]
        assert np.max(np.abs(rhs + 2 * spray)) <= 1e-12 * (np.max(np.abs(rhs)) + 1)


def test_rhs_rejects_null_vector():
    with pytest.raises(SingularEvaluationError):
        dyn.worldline_rhs(MINK, [0, 0, 0, 0], [1, 1, 0, 0], alpha=0.0)


@pytest.mark.parametrize("big", [math.inf, -math.inf, math.nan, 1e200])
def test_fiber_vector_too_large_fails_without_numpy_warning(big):
    x, y = [0.0, 10.0, math.pi / 2, 0.0], [big, 0.0, 0.0, 0.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for refuse in (dyn.normalize_unit_speed, dyn.randers_lagrangian):
            with pytest.raises(SingularEvaluationError, match="fiber vector is not timelike"):
                refuse(SCHW, x, y)


def test_flat_straight_line():
    traj = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [2.0, 0.5, 0.1, 0.0], alpha=0.0, t_end=10.0)
    y0 = np.array([2.0, 0.5, 0.1, 0.0])
    y0 = y0 / math.sqrt(y0[0] ** 2 - y0[1] ** 2 - y0[2] ** 2)
    for t in np.linspace(0, 10, 7):
        s = traj.sample(t)
        assert np.allclose(s[:4], y0 * t, rtol=1e-12, atol=1e-12)
        assert np.allclose(s[4:], y0, rtol=1e-12, atol=1e-12)


def test_circular_orbit_stays_circular():
    y0 = np.array([1.0, 0.0, 0.0, OMEGA])
    period = 2 * math.pi / OMEGA * math.sqrt(0.8 - 100 * OMEGA**2)
    traj = dyn.integrate_worldline(SCHW, X0_ORBIT, y0, alpha=0.0, t_end=period)
    for t in np.linspace(0, period, 40):
        assert abs(traj.sample(t)[1] - 10.0) <= 1e-6


def test_hyperbolic_motion_closed_form():
    traj = dyn.integrate_worldline(UNI, [0, 0, 0, 0], [1, 0, 0, 0], alpha=1.0, t_end=10.0)
    a = 0.1
    for t in np.linspace(0, 10, 25):
        s = traj.sample(t)
        exact = np.array(
            [
                math.sinh(a * t) / a,
                (math.cosh(a * t) - 1) / a,
                0,
                0,
                math.cosh(a * t),
                math.sinh(a * t),
                0,
                0,
            ]
        )
        scale = np.max(np.abs(exact)) + 1.0
        assert np.max(np.abs(s - exact)) <= 1e-8 * scale


def test_norm_conserved_long_run():
    for model, alpha, y0 in ((SCHW, 0.0, Y0_PERTURBED), (RN, 0.5, Y0_PERTURBED)):
        traj = dyn.integrate_worldline(model, X0_ORBIT, y0, alpha=alpha, t_end=100.0)
        assert dyn.norm_drift(model, traj) <= 1e-8


def test_geodesic_residual_at_accepted_states():
    traj = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=20.0)
    worst = 0.0
    for k in range(0, traj.n_steps + 1, max(1, traj.n_steps // 10)):
        x, y = traj.states[k][:4], traj.states[k][4:8]
        res = traj.derivs[k][4:8] - dyn.worldline_rhs(RN, x, y, alpha=0.5)
        worst = max(worst, float(np.max(np.abs(res))))
    assert worst <= 1e-9  # tolerance x10


def test_chart_exit_detected():
    # plunging initial data crosses the horizon
    y0 = np.array([2.0, -0.5, 0.0, 0.0])
    with pytest.raises(IntegrationError):
        dyn.integrate_worldline(SCHW, [0.0, 3.0, math.pi / 2, 0.0], y0, alpha=0.0, t_end=50.0)


def test_chart_guard_reports_chart_exit():
    guard = dyn._chart_and_cone_guard(SCHW)
    guard(0.5, np.array([0.0, 3.0, math.pi / 2, 0.0, 2.0, 0.0, 0.0, 0.0]))
    with pytest.raises(IntegrationError, match=r"worldline left the chart at t=0.5 \("):
        guard(0.5, np.array([0.0, 1.5, math.pi / 2, 0.0, 2.0, 0.0, 0.0, 0.0]))


def test_compare_classical_neutral_geodesic():
    assert dyn.compare_classical(SCHW, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=10.0) <= 1e-10


def test_compare_classical_uniform_field():
    assert dyn.compare_classical(UNI, [0, 0, 0, 0], [1, 0, 0, 0], alpha=1.0, t_end=10.0) <= 1e-8


def test_compare_classical_rn_charge():
    assert dyn.compare_classical(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0) <= 1e-8


def test_flat_deviation_linear():
    base = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=10.0)
    dev = dyn.integrate_deviation(MINK, base, w0=[0.1, 0.2, 0, 0], W0=[0.0, 0.05, 0, 0], alpha=0.0)
    for t in (0.0, 3.7, 10.0):
        s = dev.sample(t)
        assert np.allclose(s[:4], [0.1, 0.2 + 0.05 * t, 0, 0], atol=1e-12)


def test_schwarzschild_tidal_stretch_and_compression():
    # release from rest at r=10: radial separations stretch (eigenvalue +2M/r^3),
    # transverse separations compress (eigenvalue -M/r^3)
    from tbgrav.spacetime import metric_jet

    f = 0.8
    y0 = np.array([1 / math.sqrt(f), 0, 0, 0])
    base = dyn.integrate_worldline(SCHW, X0_ORBIT, y0, alpha=0.0, t_end=8.0)
    dev_r = dyn.integrate_deviation(SCHW, base, w0=[0, 1.0, 0, 0], W0=[0, 0, 0, 0], alpha=0.0)
    dev_t = dyn.integrate_deviation(SCHW, base, w0=[0, 0, 1.0, 0], W0=[0, 0, 0, 0], alpha=0.0)
    # covariant initial acceleration equals the closed-form eigenvalues exactly
    assert dev_r.derivs[0][5] == pytest.approx(2e-3, rel=1e-10)
    assert dev_t.derivs[0][6] == pytest.approx(-1e-3, rel=1e-10)

    def proper(dev, t, idx):
        xb = base.sample(t)[:4]
        g = metric_jet(SCHW, xb, order=0).values[0]
        return math.sqrt(-g[idx, idx]) * dev.sample(t)[idx]

    assert proper(dev_r, 8.0, 1) > proper(dev_r, 0.0, 1)  # stretched
    assert proper(dev_t, 8.0, 2) < proper(dev_t, 0.0, 2)  # compressed
    # radial coordinate growth tracks cosh(sqrt(2M/r^3) t) to leading order
    assert dev_r.sample(8.0)[1] == pytest.approx(math.cosh(math.sqrt(2e-3) * 8), rel=2e-2)


def test_deviation_linearity():
    base = dyn.integrate_worldline(SCHW, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=5.0)
    d1 = dyn.integrate_deviation(SCHW, base, w0=[0, 0.1, 0.05, 0], W0=[0, 0, 0, 0.001], alpha=0.0)
    d2 = dyn.integrate_deviation(SCHW, base, w0=[0, 0.2, 0.1, 0], W0=[0, 0, 0, 0.002], alpha=0.0)
    s1, s2 = d1.sample(5.0), d2.sample(5.0)
    assert np.allclose(2 * s1, s2, rtol=1e-9, atol=1e-12)


def test_deviation_accepts_coordinate_rate():
    base = dyn.integrate_worldline(SCHW, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=2.0)
    n0, _, _ = dyn._connection_and_tidal(SCHW, base.states[0][:4], base.states[0][4:8], 0.0)
    w0 = np.array([0, 0.1, 0.0, 0.0])
    via_W = dyn.integrate_deviation(SCHW, base, w0, W0=n0 @ w0, alpha=0.0)
    via_dw = dyn.integrate_deviation(SCHW, base, w0, dw0=[0, 0, 0, 0], alpha=0.0)
    assert np.allclose(via_W.sample(2.0), via_dw.sample(2.0), atol=1e-12)



def test_deviation_refuses_both_rates():
    """W0 and dw0 are two ways to give one initial rate: both at once is a
    usage error, not a silent choice of W0."""
    base = dyn.integrate_worldline(SCHW, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=2.0)
    with pytest.raises(UsageError, match="not both"):
        dyn.integrate_deviation(SCHW, base, [0, 0.1, 0, 0], W0=np.zeros(4), dw0=np.ones(4), alpha=0.0)
    with pytest.raises(UsageError, match="either W0"):
        dyn.integrate_deviation(SCHW, base, [0, 0.1, 0, 0], alpha=0.0)

# the charged black hole in ingoing Eddington-Finkelstein coordinates: every
# catalog metric is diagonal, this one has off-diagonal entries and g_rr = 0
RN_INGOING_EF = spacetime.load_model(json.dumps({
    "name": "rn_ingoing_ef", "coords": ["v", "r", "theta", "phi"], "params": {"M": 1.0, "Q": 0.3},
    "metric": [["1 - 2*M/r + Q^2/r^2", "-1", "0", "0"], ["-1", "0", "0", "0"],
               ["0", "0", "-r^2", "0"], ["0", "0", "0", "-r^2*sin(theta)^2"]],
    "potential": ["Q/r", "0", "0", "0"],
    "chart_guard": "r + sin(theta) - sqrt(r^2 + sin(theta)^2)",
}))

KERNEL_MODELS = {
    "schwarzschild": SCHW,
    "reissner_nordstrom": RN,
    "uniform_field": UNI,
    "weak_field": catalog("weak_field", {"M": 1.0}),
    "rn_ingoing_ef": RN_INGOING_EF,
}


def _timelike_point(model, rng):
    if model.coords[1] == "r":
        x = np.array([rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.4, 2.7), rng.uniform(0, 6.2)])
    else:
        x = np.concatenate([[rng.uniform(-1, 1)], rng.uniform(3, 8, size=3)])
    g = metric_jet(model, x, order=0).values[0]
    y = np.empty(4)
    y[0] = 1.2 / math.sqrt(g[0, 0])
    scale = np.sqrt(-np.diag(g)[1:])
    y[1:] = rng.uniform(-0.2, 0.2, 3) / np.where(scale > 0.0, scale, 1.0)
    return x, y


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_float_kernel_matches_jet_route(name, alpha):
    # every RHS runs a float kernel (the spray kernel or connection_and_tidal_values); the jet route is the reference
    model = KERNEL_MODELS[name]
    rng = np.random.default_rng(17)
    for _ in range(3):
        x, y = _timelike_point(model, rng)
        n, e, acc = dyn._connection_and_tidal(model, x, y, alpha)
        geo = BundleGeometry(model, BundlePoint(x, y), order=2, alpha=alpha)
        base = BaseGeometry(model, x, 1)
        gamma, f_mix = base.gamma.values[0], base.faraday[1].values[0]
        lorentz = -np.einsum("ijk,j,k->i", gamma, y, y) + alpha * f_mix @ y
        pairs = (
            (n, geo.n_conn.values[0]),
            (e, geo.tidal.values[0]),
            (acc, -2 * geo.spray.values[0]),
            (dyn.worldline_rhs(model, x, y, alpha=alpha), -2 * geo.spray.values[0]),
            (base_geom.classical_lorentz_rhs(model, x, y, alpha), lorentz),
        )
        for fast, ref in pairs:
            assert np.max(np.abs(fast - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))


# the five catalog models, and two whose metrics have the off-diagonal
# entries that the guard's pair weight 2 multiplies
GUARD_MODELS = {**KERNEL_MODELS, "minkowski": MINK, "dense": load_model(DENSE.read_text())}


@pytest.mark.parametrize("name", sorted(GUARD_MODELS))
def test_guard_norm_matches_metric_matrix(name):
    """The guard's g(y,y), formed from the metric tape's ten floats, is
    y @ g @ y up to rounding."""
    model = GUARD_MODELS[name]
    norm2 = dyn._norm2(model)
    rng = np.random.default_rng(23)
    for _ in range(5):
        x, y = _timelike_point(model, rng)
        g = spacetime.metric_values(model, x)
        ref, terms = float(y @ g @ y), float(np.abs(y) @ np.abs(g) @ np.abs(y))
        assert ref > 0.0 and abs(norm2(x.tolist(), y.tolist()) - ref) <= 1e-15 * terms


def test_guard_refuses_a_null_vector_of_an_off_diagonal_metric():
    guard = dyn._chart_and_cone_guard(RN_INGOING_EF)
    x = [0.0, 5.0, 1.2, 0.3]
    guard(0.0, x + [1.0, -0.1, 0.0, 0.0])  # g(y,y) = f + 0.2 > 0
    for y in ([0.0, 1.0, 0.0, 0.0], [1.0, 0.5 * (1 - 2 / 5 + 0.09 / 25), 0.0, 0.0], [math.nan] * 4):
        with pytest.raises(IntegrationError, match="null cone"):  # g_rr = 0, then f - 2 y^r = 0, then NaN
            guard(1.0, x + y)
    with pytest.raises(IntegrationError, match="left the chart"):
        guard(1.0, [0.0, -1.0, 1.2, 0.3, 1.0, 0.0, 0.0, 0.0])


@pytest.mark.parametrize("model", [MINK, UNI], ids=["minkowski", "uniform_field"])
def test_float_kernel_rejects_null_vector(model):
    with pytest.raises(SingularEvaluationError):
        dyn._connection_and_tidal(model, [0, 0, 0, 0], [1, 1, 0, 0], 0.5)


@pytest.mark.parametrize("alpha", [0.0, 0.5])
def test_rhs_rejects_spacelike_vector(alpha):
    x = [0.0, 10.0, 1.2, 0.3]
    # g(y,y) = 0.008 - 1.25 < 0, then NaN and inf: every route refuses all three
    for y in ([0.1, 1.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0], [math.inf, 0.0, 0.0, 0.0]):
        with pytest.raises(SingularEvaluationError, match="not timelike"):
            dyn.worldline_rhs(SCHW, x, y, alpha=alpha)
        with pytest.raises(SingularEvaluationError, match="not timelike"):
            base_geom.classical_lorentz_rhs(SCHW, x, y, alpha)
        with pytest.raises(SingularEvaluationError, match="not timelike"):
            connection_and_tidal_values(SCHW, x, y, alpha)
        with pytest.raises(SingularEvaluationError, match="not timelike"), warnings.catch_warnings():
            warnings.simplefilter("error")  # refused before any jet product can warn
            BundleGeometry(SCHW, BundlePoint(x, y), alpha=alpha).spray  # the jet route


def test_null_cone_guard_refuses_nan_and_near_null_vectors():
    guard = dyn._chart_and_cone_guard(SCHW)
    x = [0.0, 10.0, math.pi / 2, 0.0]
    guard(0.0, np.array(x + [1.0, 0.0, 0.0, 0.0]))  # g(y,y) = 0.8
    # NaN, then g(y,y) = 0.8 - 1.25 * 0.8^2, zero up to rounding
    for y in ([math.nan, 0.0, 0.0, 0.0], [1.0, 0.8, 0.0, 0.0]):
        with pytest.raises(IntegrationError, match="null cone"):
            guard(1.0, np.array(x + y))


def _flat_model(g_tt: str, a_t: str):
    return spacetime.load_model(json.dumps({
        "name": "flat", "coords": ["t", "x", "y", "z"],
        "metric": [[g_tt, "0", "0", "0"], ["0", "-1", "0", "0"], ["0", "0", "-1", "0"], ["0", "0", "0", "-1"]],
        "potential": [a_t, "0", "0", "0"],
    }))


def test_rhs_not_finite_where_a_tape_coefficient_is_not():
    # at x = 10, x^400 overflows to inf and 0*x^400 is NaN in the value and every partial
    x, y = [0.0, 10.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0]
    nan_metric = _flat_model("1 + 0*x^400", "0")  # g(y,y) is NaN
    with pytest.raises(SingularEvaluationError, match="not timelike"):
        dyn.worldline_rhs(nan_metric, x, y, alpha=0.0)
    with pytest.raises(SingularEvaluationError, match="not timelike"):
        connection_and_tidal_values(nan_metric, x, y, 0.0)
    charged = _flat_model("1", "-0.1*x + 0*x^400")  # only F is NaN
    assert np.all(np.isfinite(dyn.worldline_rhs(charged, x, y, alpha=0.0)))  # F does not enter
    assert not np.any(np.isfinite(dyn.worldline_rhs(charged, x, y, alpha=0.5)))
    assert not np.any(np.isfinite(base_geom.classical_lorentz_rhs(charged, x, y, 0.5)))


def test_deviation_hot_path_builds_no_bundle_geometry(monkeypatch):
    base = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=1.0)

    def forbidden(*args, **kwargs):
        raise AssertionError("BundleGeometry built on the deviation hot path")

    monkeypatch.setattr(BundleGeometry, "__init__", forbidden)
    dev = dyn.integrate_deviation(RN, base, w0=[0, 0.1, 0.05, 0], W0=[0, 0, 0, 0.001], alpha=0.5)
    assert dev.t_end == pytest.approx(1.0)
    err = dyn.neighbor_oracle(
        RN, X0_ORBIT, Y0_PERTURBED, w0=[0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], eps=1e-4, alpha=0.5, t_end=1.0
    )
    assert math.isfinite(err)


def test_hot_paths_walk_no_tree(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("expression tree walked on a hot path")

    monkeypatch.setattr(exprlang, "evaluate", forbidden)
    monkeypatch.setattr(spacetime, "evaluate", forbidden)
    schw = catalog("schwarzschild", {"M": 1.0})  # fresh models: their tapes compile under the patch
    rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    assert dyn.integrate_worldline(schw, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=1.0).t_end == pytest.approx(1.0)
    assert dyn.compare_classical(rn, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=1.0) <= 1e-9
    err = dyn.neighbor_oracle(
        rn, X0_ORBIT, Y0_PERTURBED, w0=[0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], eps=1e-4, alpha=0.5, t_end=1.0
    )
    assert math.isfinite(err)
    rn.check_chart(X0_ORBIT)


def test_hot_paths_build_no_jet(monkeypatch):
    rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    # compile the tapes and whatever each right-hand side compiles on first use
    dyn.worldline_rhs(rn, X0_ORBIT, Y0_PERTURBED, alpha=0.5)
    base_geom.classical_lorentz_rhs(rn, X0_ORBIT, Y0_PERTURBED, 0.5)
    connection_and_tidal_values(rn, X0_ORBIT, Y0_PERTURBED, 0.5)
    spacetime.metric_values(rn, X0_ORBIT)

    def forbidden(self, *args, **kwargs):
        raise AssertionError("Jet or JetArray built on a hot path")

    monkeypatch.setattr(Jet, "__init__", forbidden)
    monkeypatch.setattr(JetArray, "__init__", forbidden)
    base = dyn.integrate_worldline(rn, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=1.0)
    assert base.t_end == pytest.approx(1.0)
    assert dyn.compare_classical(rn, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=1.0) <= 1e-9

    def no_numpy(*args, **kwargs):
        raise AssertionError("np.einsum or np.linalg.inv called by the deviation or oracle right-hand side")

    # the deviation and oracle right-hand sides run on the deviation kernel alone
    monkeypatch.setattr(np, "einsum", no_numpy)
    monkeypatch.setattr(np.linalg, "inv", no_numpy)
    dev = dyn.integrate_deviation(rn, base, [0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], alpha=0.5)
    assert np.all(np.isfinite(dev.states))
    err = dyn.neighbor_oracle(
        rn, X0_ORBIT, Y0_PERTURBED, w0=[0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], eps=1e-4, alpha=0.5, t_end=1.0
    )
    assert math.isfinite(err)


def test_deviation_kernel_compiles_in_blocks():
    rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    kernel = rn.metric_tape.kernel(bundle_geom._write_deviation, rn.potential_tape)
    parts = [fn for name, fn in kernel.__globals__.items() if name.startswith("part")]
    assert len(parts) >= 2
    for part in parts:  # lines: the def, one per statement, the return
        last = max(line for *_, line in part.__code__.co_lines() if line is not None)
        assert last - part.__code__.co_firstlineno - 1 <= exprlang.KERNEL_BLOCK


def test_spray_kernel_shares_the_tapes_subexpressions(monkeypatch):
    rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    kernel = rn.metric_tape.kernel(base_geom._write_spray, rn.potential_tape)
    recip, calls = kernel.__globals__["reciprocal_value"], []
    monkeypatch.setitem(kernel.__globals__, "reciprocal_value", lambda *args: calls.append(args) or recip(*args))
    kernel(X0_ORBIT.tolist(), Y0_PERTURBED.tolist())
    # 1/r, 1/r^2 and 1/f for the metric, then 1/det g for g^-1; A_t = Q/r reuses the metric's 1/r
    assert len(calls) == 4


def test_integrator_counts_smooth_orbit():
    traj = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0)
    assert traj.n_singular_retries == 0
    # the first stage and the start rule's probe, then six per attempted step (first same as last)
    assert traj.n_rhs == 2 + 6 * (traj.n_steps + traj.n_rejected)
    assert traj.h_min == pytest.approx(np.diff(traj.times).min(), rel=1e-6)


def test_integrator_counts_rejections_and_singular_retries():
    chirp = dyn._integrate(lambda t, y: [math.cos(10 * t * t)], [0.0], 5.0, 1e-9, 1e-9)
    assert chirp.n_rejected > 0 and chirp.n_singular_retries == 0
    assert chirp.n_rhs == 2 + 6 * (chirp.n_steps + chirp.n_rejected)

    failed = []

    def rhs(t, y):
        if t > 0.5 and not failed:
            failed.append(t)
            raise SingularEvaluationError("probe singularity")
        return [-v for v in y]

    decay = dyn._integrate(rhs, [1.0], 1.0, 1e-8, 1e-8)
    assert decay.n_singular_retries == 1
    assert decay.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-7)


def test_start_rule_starts_at_a_real_step():
    """Hairer, Norsett & Wanner's start rule: the first accepted step of a
    smooth orbit is of the size its later steps are, so h_min does not read a
    crawl up from 1e-10."""
    traj = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0)
    assert traj.times[1] >= 1e-3 and traj.h_min >= 1e-3


def test_start_rule_leaves_out_a_component_without_scale():
    # atol = 0 and the time coordinate starting at 0: that component's scale is 0
    traj = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0, rtol=1e-10, atol=0.0)
    assert traj.h_min >= 1e-3 and dyn.norm_drift(RN, traj) <= 1e-9


def test_start_rule_makes_no_probe_at_t_end_zero():
    calls = []
    point = dyn._integrate(lambda t, y: calls.append(t) or [-v for v in y], [1.0], 0.0, 1e-8, 1e-8)
    assert calls == [0.0] and point.n_rhs == 1 and point.n_steps == 0


def test_start_rule_probes_no_later_than_t_end():
    # the deviation RHS samples its base worldline, which refuses a time past its end
    base = dyn.integrate_worldline(SCHW, X0_ORBIT, Y0_PERTURBED, alpha=0.0, t_end=1e-3)
    dev = dyn.integrate_deviation(SCHW, base, [0.0, 0.1, 0.0, 0.0], W0=np.zeros(4), alpha=0.0)
    assert dev.t_end == pytest.approx(1e-3, abs=1e-15) and dev.n_rhs == 2 + 6 * dev.n_steps


def test_start_rule_survives_a_singular_probe():
    calls = []

    def rhs(t, y):
        calls.append(t)
        if len(calls) == 2:
            raise SingularEvaluationError("singular probe")
        return [-v for v in y]

    decay = dyn._integrate(rhs, [1.0], 1.0, 1e-8, 1e-8)
    assert decay.t_end == pytest.approx(1.0, abs=1e-14) and decay.n_rhs == len(calls) - 1 == 1 + 6 * decay.n_steps
    assert decay.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-7)


def test_start_rule_on_a_rhs_that_is_not_finite_ends():
    """A right-hand side that gives NaN or inf without raising ends in a step
    size underflow, as it did before the start rule: no NaN step size, which
    no rejection could shrink, and no division by a zero h0."""
    for bad in (math.nan, math.inf):
        calls = []

        def rhs(t, y):
            calls.append(t)
            assert len(calls) <= 1000, "the integration did not stop"
            return [bad]

        with pytest.raises(IntegrationError, match="step size underflow"):
            dyn._integrate(rhs, [1.0], 1.0, 1e-8, 1e-8)


def test_plunge_steps_do_not_depend_on_its_azimuth():
    """The start rule scales each component by its own size, so the azimuth
    of the plunge (constant along it) must not move a single step: the
    benchmark seeds the azimuth and relies on the same steps for every seed."""
    times = [dyn.integrate_worldline(SCHW, [0.0, 3.0, math.pi / 2, phi], [2.0, -0.5, 0.0, 0.0],
                                     alpha=0.0, t_end=0.5).times for phi in (0.0, 2.4)]
    assert len(times[0]) > 10 and times[0].tobytes() == times[1].tobytes()


def _capped_rhs():
    """y' = -y, failing its caller after 1,000 calls: an integration that
    would never end fails instead of hanging."""
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        assert calls[0] <= 1000, "the integration did not stop"
        return [-v for v in y]

    return rhs


def test_integrate_checks_its_inputs():
    """t_end must be finite and >= 0; rtol and atol finite, >= 0 and not both
    0.  t_end = 0 gives the initial state alone; one zero tolerance is enough."""
    for t_end, rtol, atol in ((math.nan, 1e-8, 1e-8), (math.inf, 1e-8, 1e-8), (-1.0, 1e-8, 1e-8),
                              (1.0, -1.0, 1e-8), (1.0, 1e-8, -1.0), (1.0, math.nan, 1e-8), (1.0, 1e-8, math.inf),
                              (1.0, 0.0, 0.0)):
        with pytest.raises(UsageError):
            dyn._integrate(_capped_rhs(), [1.0], t_end, rtol, atol)
    point = dyn._integrate(_capped_rhs(), [1.0], 0.0, 1e-8, 1e-8)
    assert point.times.tolist() == [0.0] and point.states.tolist() == [[1.0]]
    for rtol, atol in ((0.0, 1e-8), (1e-8, 0.0)):
        decay = dyn._integrate(_capped_rhs(), [1.0], 1.0, rtol, atol)
        assert decay.states[-1, 0] == pytest.approx(math.exp(-1.0), rel=1e-6)


def test_step_ratio_is_the_dopri5_stability_polynomial():
    """On y' = y an accepted step of size h multiplies y by R(h) = 1 +
    sum_k h^k b^T A^(k-1) 1, here derived exactly from the tableau of
    Hairer, Norsett & Wanner (table II.5.2): every entry of a and b enters R,
    so a mistyped entry of the integrator's tableau moves the ratio."""
    F = Fraction
    a = [[], [F(1, 5)], [F(3, 40), F(9, 40)], [F(44, 45), F(-56, 15), F(32, 9)],
         [F(19372, 6561), F(-25360, 2187), F(64448, 6561), F(-212, 729)],
         [F(9017, 3168), F(-355, 33), F(46732, 5247), F(49, 176), F(-5103, 18656)]]
    b = [F(35, 384), F(0), F(500, 1113), F(125, 192), F(-2187, 6784), F(11, 84)]
    coeffs, power = [F(1)], [F(1)] * 6  # power = A^(k-1) 1
    for _ in range(6):
        coeffs.append(sum(bi * pi for bi, pi in zip(b, power)))
        power = [sum(aij * pj for aij, pj in zip(row, power)) for row in a]
    assert not any(power)  # A^6 = 0: R has degree 6
    assert coeffs == [F(1, math.factorial(k)) for k in range(6)] + [F(1, 600)]

    traj = dyn._integrate(lambda t, y: list(y), [1.0], 2.0, 1e-6, 1e-6)
    assert traj.n_steps >= 8 and traj.n_rejected == 0
    for n in range(traj.n_steps):
        h = traj.times[n + 1] - traj.times[n]
        ratio = traj.states[n + 1, 0] / traj.states[n, 0]
        assert ratio == pytest.approx(sum(float(c) * h**k for k, c in enumerate(coeffs)), rel=1e-15, abs=0)


def test_neighbor_oracle_flat_exact():
    err = dyn.neighbor_oracle(
        MINK, [0, 0, 0, 0], [1, 0, 0, 0], w0=[0, 0.5, 0.3, 0], W0=[0, 0.01, 0, 0], eps=1e-4, alpha=0.0
    )
    assert err <= 1e-12


@pytest.mark.parametrize(
    "model,alpha",
    [(SCHW, 0.0), (RN, 0.5)],
    ids=["schwarzschild", "rn-charged"],
)
def test_neighbor_oracle_first_order(model, alpha):
    kw = dict(w0=[0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], alpha=alpha, t_end=10.0)
    e1 = dyn.neighbor_oracle(model, X0_ORBIT, Y0_PERTURBED, eps=1e-4, **kw)
    e2 = dyn.neighbor_oracle(model, X0_ORBIT, Y0_PERTURBED, eps=5e-5, **kw)
    assert 1.7 <= e1 / e2 <= 2.3


def test_trajectory_csv_format():
    base = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=1.0)
    dev = dyn.integrate_deviation(MINK, base, w0=[0, 0.1, 0, 0], W0=[0, 0, 0, 0], alpha=0.0)
    text = dyn.trajectory_csv(base, np.linspace(0, 1, 3), deviation=dev)
    lines = text.strip().split("\n")
    assert lines[0] == "t,x0,x1,x2,x3,y0,y1,y2,y3,w0,w1,w2,w3,W0,W1,W2,W3"
    assert len(lines) == 4
    row = lines[2].split(",")
    assert float(row[0]) == pytest.approx(0.5)
    assert float(row[1]) == pytest.approx(0.5)  # x0 = t for rest worldline
    # 17 significant digits: every cell parses back to exactly the sampled float
    for t, line in zip(np.linspace(0, 1, 3), lines[1:]):
        want = [t, *base.sample(t), *dev.sample(t)]
        assert [float(cell) for cell in line.split(",")] == want


def test_sample_outside_range_rejected():
    traj = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=1.0)
    for t in (-0.5, 2.0):
        with pytest.raises(UsageError, match="outside"):
            traj.sample(t)
    point = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=0.0)
    assert np.array_equal(point.sample(0.0), point.states[0])  # one accepted time
    for t in (-0.5, 0.5):
        with pytest.raises(UsageError, match="outside"):
            point.sample(t)


def test_sample_refuses_nan():
    traj = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=1.0)
    point = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=0.0)
    for sample in (traj.sample, traj.sampler(), point.sample, point.sampler()):
        with pytest.raises(UsageError, match="outside"):
            sample(math.nan)


def test_list_sampler_matches_sample_bit_for_bit():
    """The deviation right-hand side samples its base worldline on lists of
    floats (``Trajectory.sampler``): at every accepted step time, at every
    midpoint between two and at both ends of the charged orbit it gives the
    floats of ``Trajectory.sample`` bit for bit, and it refuses the same times."""
    base = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0)
    sample, times = base.sampler(), base.times.tolist()
    probes = [0.0, *times, *((a + b) / 2 for a, b in zip(times, times[1:])), base.t_end, base.t_end + 1e-13, -1e-13]
    assert len(times) > 10
    for t in probes:
        assert [v.hex() for v in sample(t)] == [float(v).hex() for v in base.sample(t)], t
    for t in (-0.5, base.t_end + 0.5):
        with pytest.raises(UsageError, match="outside"):
            sample(t)
    point = dyn.integrate_worldline(MINK, [0, 0, 0, 0], [1, 0, 0, 0], alpha=0.0, t_end=0.0)
    assert point.sampler()(0.0) == point.sample(0.0).tolist()


def test_sampler_is_built_once_and_gives_the_continuous_extension():
    """A trajectory builds its list sampler once, and ``sample`` gives the
    bits of Dormand-Prince's continuous extension on its arrays: cubic Hermite
    on the states and derivatives plus s^2 (1 - s)^2 times the step's quartic
    row, written here with NumPy rows as a reference."""
    base = dyn.integrate_worldline(RN, X0_ORBIT, Y0_PERTURBED, alpha=0.5, t_end=10.0)
    assert base.sampler() is base.sampler()
    assert base.quartic.shape == base.states.shape and not base.quartic[0].any()
    times = base.times
    for t in np.linspace(0.0, base.t_end, 37):
        k = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), len(times) - 2)
        h = times[k + 1] - times[k]
        s = (t - times[k]) / h
        ref = ((1 + 2 * s) * (1 - s) ** 2 * base.states[k] + s * (1 - s) ** 2 * (base.derivs[k] * h)
               + s * s * (3 - 2 * s) * base.states[k + 1] + s * s * (s - 1) * (base.derivs[k + 1] * h)
               + s * (s * (1 - s) ** 2) * base.quartic[k + 1])
        assert base.sample(t).tobytes() == ref.tobytes(), t


def test_dense_output_is_exact_on_a_quartic():
    """The continuous extension has order 4, so on y' = 4 t^3 it samples t^4
    to rounding between the accepted steps (cubic Hermite missed by
    s^2 (1 - s)^2 h^4)."""
    traj = dyn._integrate(lambda t, y: [4.0 * t**3], [0.0], 2.0, 1e-10, 1e-10)
    assert traj.n_steps >= 3
    ts = np.linspace(0.0, 2.0, 101)
    assert max(abs(traj.sample(t)[0] - t**4) for t in ts) <= 1e-12


def test_step_growth_is_capped_at_ten():
    """On y' = 1 the error estimate is rounding, so the steps grow by the cap
    of the PI control, a factor of 10 (Hairer, Norsett & Wanner), until the
    rounding of a large y holds them back."""
    steps = np.diff(dyn._integrate(lambda t, y: [1.0], [0.0], 10.0, 1e-10, 1e-10).times)
    assert steps[1:5] / steps[:4] == pytest.approx(10.0, rel=1e-9)


def _near_circular(rng):
    """The benchmark's bound orbit draw (``near_circular`` of the orbits
    workload): equatorial, near the circular orbit of the M = 1 hole at r ~ 10."""
    r0 = 10.0 + rng.uniform(-0.5, 0.5)
    omega = math.sqrt(1.0 / r0**3)
    y0 = [1.0, rng.uniform(-0.005, 0.005), rng.uniform(-2e-4, 2e-4), rng.uniform(0.97, 0.99) * omega]
    return np.array([0.0, r0, math.pi / 2, 0.0]), np.array(y0)


@pytest.mark.parametrize("seed", [1, 7])
def test_sampled_outputs_keep_the_integrators_accuracy(seed):
    """Sampled between accepted steps, the outputs hold the accuracy of the
    steps themselves: the unit-speed drift of t = 100 orbits stays within
    2e-11 (cubic Hermite read about 2e-10), and a deviation at rtol = atol =
    1e-10 stays within 2e-10 of one at 1e-13 at 41 sampled times (Hermite:
    about 2e-9)."""
    rng = np.random.default_rng([seed, 0])
    for model, alpha in ((SCHW, 0.0), (RN, 0.5)):
        x0, y0 = _near_circular(rng)
        orbit = dyn.integrate_worldline(model, x0, y0, alpha=alpha, t_end=100.0)
        assert dyn.norm_drift(model, orbit) <= 2e-11
        w0, W0 = [0.0, rng.uniform(0.08, 0.12), rng.uniform(0.04, 0.08), 0.0], [0.0, 0.0, 0.0, 1e-3]
        fine = dict(rtol=1e-13, atol=1e-13)
        dev = dyn.integrate_deviation(model, dyn.integrate_worldline(model, X0_ORBIT, Y0_PERTURBED, alpha=alpha),
                                      w0, W0=W0, alpha=alpha)
        ref = dyn.integrate_deviation(model, dyn.integrate_worldline(model, X0_ORBIT, Y0_PERTURBED, alpha=alpha, **fine),
                                      w0, W0=W0, alpha=alpha, **fine)
        assert max(np.max(np.abs(dev.sample(t) - ref.sample(t))) for t in np.linspace(0.0, 10.0, 41)) <= 2e-10
