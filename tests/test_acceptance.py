"""Acceptance criteria, one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
All tolerances are pinned here, straight from the engine's contract.
"""

import json
import math
import sys

import numpy as np
import pytest

from tbgrav import base_geom, bundle_geom, dynamics, exprlang, tm_metric, verify
from tbgrav.bundle_geom import BundleGeometry, BundlePoint
from tbgrav.errors import EngineError
from tbgrav.jet_arrays import concat
from tbgrav.jets import Jet
from tbgrav.spacetime import alpha_star, catalog, metric_jet, metric_values

MODELS = {
    "minkowski": catalog("minkowski"),
    "uniform_field": catalog("uniform_field", {"E0": 0.1}),
    "schwarzschild": catalog("schwarzschild", {"M": 1.0}),
    "reissner_nordstrom": catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3}),
    "weak_field": catalog("weak_field", {"M": 1.0}),
}

X0_ORBIT = np.array([0.0, 10.0, math.pi / 2, 0.0])
Y0_ORBIT = np.array([1.0, 0.005, 0.0, 0.98 * math.sqrt(1e-3)])


def _report(number: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] acceptance {number}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.stderr)
    assert passed, line


def _rn_box_points(rng, n):
    return [
        np.array(
            [rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.45, math.pi - 0.45), rng.uniform(0, 2 * math.pi)]
        )
        for _ in range(n)
    ]


def _points(model, rng, n):
    """n bundle points of the verify suite's sampler, one BundlePoint each."""
    p = verify.sample_bundle_points(model, rng, n)
    return [BundlePoint(x, y) for x, y in zip(p.x, p.y)]


def test_criterion_1_rn_anchor():
    """Generalized Einstein tensor vanishes on the exact charged solution at
    the distinguished coupling; vacuum/flat anchors are one notch tighter."""
    rng = np.random.default_rng(1001)
    rn = MODELS["reissner_nordstrom"]
    assert rn.alpha == pytest.approx(alpha_star(1.0, 1.0))
    worst_rn = 0.0
    for x in _rn_box_points(rng, 20):
        y = verify.sample_timelike(metric_values(rn, x), rng)
        ge = bundle_geom.generalized_einstein(BundleGeometry(rn, BundlePoint(x, y)))
        worst_rn = max(worst_rn, ge["max_abs_variational"][0])
    worst_other = 0.0
    for name in ("schwarzschild", "minkowski"):
        model = MODELS[name]
        for p in _points(model, rng, 10):
            ge = bundle_geom.generalized_einstein(BundleGeometry(model, p))
            worst_other = max(worst_other, ge["max_abs_variational"][0])
    _report(
        1,
        "Reissner-Nordstrom anchor max|G_ij|",
        worst_rn <= 1e-9 and worst_other <= 1e-10,
        f"rn={worst_rn:.2e} (tol 1e-9), vacuum/flat={worst_other:.2e} (tol 1e-10)",
    )


def test_criterion_2_scalar_curvature_split():
    """quad term is y-independent, equals (3 alpha^2/2) F^2, and the full split
    closes pointwise on every catalog model."""
    rng = np.random.default_rng(1002)
    worst_spread = worst_closed = worst_residual = 0.0
    for model in MODELS.values():
        for x in verify.sample_bundle_points(model, rng, 3).x:
            g = metric_values(model, x)
            quads = []
            for _ in range(3):
                y = verify.sample_timelike(g, rng)
                dec = bundle_geom.ricci_decomposition(BundleGeometry(model, BundlePoint(x, y)))
                quad, f_squared, residual = dec["quad_term"][0], dec["f_squared"][0], dec["residual"][0]
                quads.append(quad)
                closed = 1.5 * dec["alpha"] ** 2 * f_squared
                worst_closed = max(worst_closed, abs(quad - closed) / (abs(closed) + 1.0))
                worst_residual = max(worst_residual, abs(residual))
            worst_spread = max(worst_spread, (max(quads) - min(quads)) / (abs(quads[0]) + 1.0))
    _report(
        2,
        "scalar-curvature split (y-independence, closed form, residual)",
        worst_spread <= 1e-9 and worst_closed <= 1e-9 and worst_residual <= 1e-8,
        f"spread={worst_spread:.2e}, closed={worst_closed:.2e}, residual={worst_residual:.2e}",
    )


def test_criterion_3_tidal_reconstruction():
    """E^i_k = R_j^i_kl y^j y^l and E^i_i = -R_jl y^j y^l at 50 seeded bundle
    points per model, relative 1e-9."""
    rng = np.random.default_rng(1003)
    worst = 0.0
    for model in MODELS.values():
        for p in _points(model, rng, 50):
            geo = BundleGeometry(model, p, order=4)
            e, y = geo.tidal.values[0], p.y[0]
            scale = np.max(np.abs(e)) + 1e-12
            recon = np.einsum("jikl,j,l->ik", geo.d_riemann[0], y, y)
            trace_defect = abs(np.trace(e) + y @ geo.d_ricci[0] @ y)
            worst = max(worst, float(max(np.max(np.abs(e - recon)), trace_defect) / scale))
    _report(3, "tidal/curvature reconstruction", worst <= 1e-9, f"max rel defect {worst:.2e}")


def test_criterion_4_alpha_zero_collapse():
    """With the coupling off, every bundle object reduces to its Levi-Civita
    counterpart to 1e-10."""
    rng = np.random.default_rng(1004)
    worst = 0.0
    for model in MODELS.values():
        for p in _points(model, rng, 5):
            base = base_geom.BaseGeometry(model, p.x, 2)
            gamma = base.gamma.values[0]
            riem = base.riemann.values[0]
            geo = BundleGeometry(model, p, alpha=0.0)
            y = p.y[0]
            defects = [
                np.max(np.abs(geo.n_conn.values[0] - np.einsum("ijk,k->ij", gamma, y))),
                np.max(np.abs(geo.berwald.values[0] - gamma)),
                np.max(np.abs(geo.tidal.values[0] - np.einsum("iabl,a,b->il", riem, y, y))),
                np.max(np.abs(geo.d_ricci - base.ricci.values)),
                abs(geo.d_ricci_scalar[0] - base.ricci_scalar[0]),
            ]
            worst = max(worst, float(max(defects)))
    _report(4, "alpha=0 collapse to Levi-Civita objects", worst <= 1e-10, f"max defect {worst:.2e}")


def test_criterion_5_homogeneity_ladder():
    """Euler identities at lambda=1.5 for degrees (2,1,0,2,0,0) of (spray,
    connection, Berwald coefficients, tidal tensor, d-Ricci, B-Hessian), plus
    closed-form vs fiber-jet agreement for the spray-perturbation derivatives."""
    rng = np.random.default_rng(1005)
    worst_euler = worst_agree = 0.0
    for name in ("uniform_field", "reissner_nordstrom", "schwarzschild"):
        model = MODELS[name]
        for p in _points(model, rng, 3):
            geo = BundleGeometry(model, p)
            worst_euler = max(worst_euler, *(defect[0] for defect in verify.homogeneity_defects(geo)))
            closed, jets = bundle_geom.fiber_derivs_B(geo)
            for c, j in zip(closed, jets):
                worst_agree = max(worst_agree, np.max(np.abs(c - j)) / (np.max(np.abs(c)) + 1.0))
    _report(
        5,
        "homogeneity ladder + closed-form/fiber-jet agreement",
        worst_euler <= 1e-9 and worst_agree <= 1e-10,
        f"euler={worst_euler:.2e} (tol 1e-9), agreement={worst_agree:.2e} (tol 1e-10)",
    )


def test_criterion_6_volume_structure():
    """det v = -det g (rel 1e-12); unit ball volume (1e-8); base-vs-bundle
    integral identity (rel 1e-8); divergence-lift commutation (rel 1e-9)."""
    rng = np.random.default_rng(1006)
    worst_det = 0.0
    for model in MODELS.values():
        for x in verify.sample_bundle_points(model, rng, 10).x:
            ball = tm_metric.fiber_ball(model, x)
            g = metric_jet(model, x, order=0).values[0]
            worst_det = max(worst_det, abs(np.linalg.det(ball.v) + np.linalg.det(g)) / abs(np.linalg.det(g)))

    schw = MODELS["schwarzschild"]
    worst_vol = 0.0
    for model_name in ("minkowski", "schwarzschild", "reissner_nordstrom"):
        model = MODELS[model_name]
        for x in verify.sample_bundle_points(model, rng, 2).x:
            worst_vol = max(worst_vol, abs(tm_metric.fiber_integral(model, x, lambda ys: np.ones(len(ys))) - 1.0))

    box = [(0.0, 0.5), (9.0, 11.0), (1.2, 1.8), (0.0, 0.5)]
    f = lambda x: 1.0 + 0.1 * x[1] + math.sin(x[2])
    lhs = tm_metric.tm_integral(schw, box, lambda x, ys: np.full(len(ys), f(x)), base_nodes=3)
    rhs = tm_metric.base_integral(schw, box, f, base_nodes=3)
    integral_defect = abs(lhs - rhs) / abs(rhs)

    worst_div = 0.0
    names = list(schw.coords)
    for p in _points(schw, rng, 5):
        coeffs = rng.uniform(-1, 1, size=(4, 5))

        def components(env, c=coeffs):
            vals = []
            for i in range(4):
                acc = env[names[0]] * 0 + float(c[i, 0])
                for j, nm in enumerate(names):
                    acc = acc + env[nm] * float(c[i, j + 1])
                vals.append(acc)
            return concat(*vals)[0]

        geo = BundleGeometry(schw, p, order=2)  # the horizontal lift: the field on the joint jets
        lifted = geo.divergence(components(schw.coord_env(p.x, geo.order, nvars=8)), geo.n_conn)[0]
        base = tm_metric.base_divergence_values(geo.base, components(schw.coord_env(p.x, 1)))[0]
        worst_div = max(worst_div, abs(lifted - base) / (abs(base) + 1.0))

    _report(
        6,
        "volume structure (det v, ball volume, integral identity, divergence lift)",
        worst_det <= 1e-12 and worst_vol <= 1e-8 and integral_defect <= 1e-8 and worst_div <= 1e-9,
        f"det={worst_det:.2e}, vol={worst_vol:.2e}, integral={integral_defect:.2e}, div={worst_div:.2e}",
    )


def test_criterion_7_dynamics():
    """Norm conservation over t in [0,100]; hyperbolic closed form; classical
    Lorentz agreement; first-order neighbor oracle under eps-halving."""
    schw, rn, uni, mink = (
        MODELS["schwarzschild"],
        MODELS["reissner_nordstrom"],
        MODELS["uniform_field"],
        MODELS["minkowski"],
    )
    drift = 0.0
    for model, alpha in ((schw, 0.0), (rn, 0.5)):
        traj = dynamics.integrate_worldline(model, X0_ORBIT, Y0_ORBIT, alpha=alpha, t_end=100.0)
        drift = max(drift, dynamics.norm_drift(model, traj))

    traj = dynamics.integrate_worldline(uni, [0, 0, 0, 0], [1, 0, 0, 0], alpha=1.0, t_end=10.0)
    a = 0.1
    hyp = 0.0
    for t in np.linspace(0, 10, 25):
        s = traj.sample(t)
        exact = np.array(
            [math.sinh(a * t) / a, (math.cosh(a * t) - 1) / a, 0, 0,
             math.cosh(a * t), math.sinh(a * t), 0, 0]
        )
        hyp = max(hyp, float(np.max(np.abs(s - exact)) / (np.max(np.abs(exact)) + 1.0)))

    classical = max(
        dynamics.compare_classical(uni, [0, 0, 0, 0], [1, 0, 0, 0], alpha=1.0, t_end=10.0),
        dynamics.compare_classical(rn, X0_ORBIT, Y0_ORBIT, alpha=0.5, t_end=10.0),
    )

    kw = dict(w0=[0, 0.5, 0.3, 0], W0=[0, 0, 0, 0.01], t_end=10.0)
    ratios = []
    for model, alpha in ((schw, 0.0), (rn, 0.5)):
        e1 = dynamics.neighbor_oracle(model, X0_ORBIT, Y0_ORBIT, eps=1e-4, alpha=alpha, **kw)
        e2 = dynamics.neighbor_oracle(model, X0_ORBIT, Y0_ORBIT, eps=5e-5, alpha=alpha, **kw)
        ratios.append(e1 / e2)
    ratios_ok = all(1.7 <= r <= 2.3 for r in ratios)

    _report(
        7,
        "dynamics (norm drift, hyperbolic, classical agreement, oracle ratio)",
        drift <= 1e-8 and hyp <= 1e-8 and classical <= 1e-8 and ratios_ok,
        f"drift={drift:.2e}, hyperbolic={hyp:.2e}, classical={classical:.2e}, "
        f"ratios={[f'{r:.2f}' for r in ratios]}",
    )


def test_criterion_8_conservation():
    """Divergence of the generalized Einstein tensor vanishes to 1e-7 at 10
    seeded points on the black-hole models."""
    rng = np.random.default_rng(1008)
    worst = 0.0
    for name in ("reissner_nordstrom", "schwarzschild"):
        model = MODELS[name]
        base = base_geom.BaseGeometry(model, verify.sample_bundle_points(model, rng, 10).x, 3)
        worst = max(worst, float(np.max(np.abs(verify.conservation_residual(base)))))
    _report(8, "conservation divergence of the field tensor", worst <= 1e-7, f"max {worst:.2e}")


def test_criterion_9_infrastructure():
    """Jet-vs-finite-difference spot checks, parser fuzz robustness, and
    byte-identical seeded reports."""
    # jets vs central differences
    def fn(v):
        return exprlang.evaluate(exprlang.parse("sqrt(v*v + 1)*sin(v) + ln(v*0.3 + 2)"), {"v": v})

    x0, h1, h2 = 0.8, 1e-5, 1e-4
    jet = fn(Jet.variable(0, x0, 2, 1))
    f = lambda t: fn(Jet.constant(t, 0, 1)).value
    fd1 = (f(x0 + h1) - f(x0 - h1)) / (2 * h1)
    fd2 = (f(x0 + h2) - 2 * f(x0) + f(x0 - h2)) / h2**2
    ad_ok = (
        abs(jet.derivative((1,)) - fd1) <= 1e-6 * abs(fd1)
        and abs(jet.derivative((2,)) - fd2) <= 1e-4 * abs(fd2)
    )

    # parser fuzz: structured garbage either parses or raises the typed error
    rng = np.random.default_rng(1009)
    alphabet = "0123456789.+-*/^()abMQr_ sincoqrtelxp"
    fuzz_ok = True
    for _ in range(500):
        text = "".join(rng.choice(list(alphabet)) for _ in range(rng.integers(0, 25)))
        try:
            exprlang.parse(text)
        except EngineError:
            continue
        except Exception:  # noqa: BLE001 - the point of the fuzz check
            fuzz_ok = False
            break

    rn = MODELS["reissner_nordstrom"]
    a = verify.reports_to_json(verify.run_suite(rn, seed=99, n_points=2))
    b = verify.reports_to_json(verify.run_suite(rn, seed=99, n_points=2))
    deterministic = a == b

    _report(
        9,
        "infrastructure (AD vs finite differences, parser fuzz, determinism)",
        ad_ok and fuzz_ok and deterministic,
        f"ad={ad_ok}, fuzz={fuzz_ok}, deterministic={deterministic}",
    )
