"""Identity and property checks bundled into reproducible residual reports.

Every geometric claim the engine implements appears exactly once in the
registry below.  A check is a residual over a batch of points plus the
sampler that draws its points (chart points, or chart points with timelike
fiber vectors).  The residual evaluates the batch's jets as one
``BaseGeometry`` or ``BundleGeometry`` with a point axis and then runs each
point's float epilogue on its own, so each residual has the bits it has
alone.  The suite owns the batch and the count of points skipped as
singular: a batch in which a point is singular is run again point by point
from the same random state.  ``run_suite`` evaluates a deterministic, seeded
sample per check and reports max/mean residuals against tiered tolerances
(tier 1 = first-derivative checks, tier 2 = curvature-level, tier 3 =
third-derivative conservation checks) or the fixed tolerance the registry
gives.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import base_geom, bundle_geom, tm_metric
from .base_geom import BaseGeometry
from .bundle_geom import BundleGeometry, BundlePoint
from .errors import EngineError, UsageError
from .jet_arrays import concat
from .spacetime import SpacetimeModel, metric_values, signature_signs

DEFAULT_TIERS = {1: 1e-10, 2: 1e-9, 3: 1e-7}

SAFE_BOXES = {
    "minkowski": [(-1, 1)] * 4,
    "uniform_field": [(-1, 1)] * 4,
    "weak_field": [(-1, 1), (3, 8), (3, 8), (3, 8)],
}


@dataclass
class ResidualReport:
    check: str
    model: str
    points: list
    residuals: list
    tolerance: float | None
    passed: bool
    max_residual: float
    mean_residual: float
    seed: int
    conventions: dict = field(default_factory=dict)
    notes: str = ""

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ResidualReport":
        return ResidualReport(**d)


def _conventions(model: SpacetimeModel) -> dict:
    return {
        "signature": "+---",
        "em_stress_sign": base_geom.EM_STRESS_SIGN,
        "div_term_connection": "alpha0",
        "alpha": model.alpha,
    }


# -- point sampling ------------------------------------------------------------------


def _default_box(model: SpacetimeModel):
    if model.name in SAFE_BOXES:
        return SAFE_BOXES[model.name]
    # a spherical-type chart: Schwarzschild, RN and model files alike
    if "r" in model.coords and "theta" in model.coords:
        box = []
        for name in model.coords:
            if name == "r":
                box.append((4.0, 20.0))
            elif name == "theta":
                box.append((0.45, math.pi - 0.45))
            elif name == "phi":
                box.append((0.0, 2 * math.pi))
            else:
                box.append((-1.0, 1.0))
        return box
    return [(-0.9, 0.9)] * 4


def _chart_points(model: SpacetimeModel, rng, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """(x, g at x) for n chart points drawn uniformly from the model's safe
    box: the chart test's evaluation of g, kept for the caller."""
    box = _default_box(model)
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 50 * n:
        attempts += 1
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        try:
            pts.append((x, metric_values(model, x)))
        except EngineError:
            continue
    if len(pts) < n:
        raise EngineError(f"could not sample {n} chart points for model {model.name!r}")
    return pts


def sample_points(model: SpacetimeModel, rng, n: int) -> list[np.ndarray]:
    """n chart points drawn uniformly from the model's safe box."""
    return [x for x, _ in _chart_points(model, rng, n)]


def sample_timelike(model: SpacetimeModel, rng, x) -> np.ndarray:
    """Random timelike y: a unit time axis boosted by rapidity up to 2 in an
    orthonormal frame."""
    return _timelike(metric_values(model, x), rng)


def _timelike(g: np.ndarray, rng) -> np.ndarray:
    """``sample_timelike`` at a point where g is known."""
    eigvals, eigvecs = np.linalg.eigh(g)
    order = np.argsort(-eigvals)  # positive eigenvalue first
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    frame = np.empty((4, 4))
    frame[0] = eigvecs[:, 0] / math.sqrt(eigvals[0])
    for a in range(1, 4):
        frame[a] = eigvecs[:, a] / math.sqrt(-eigvals[a])
    chi = rng.uniform(0.0, 2.0)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    coeffs = np.array([math.cosh(chi), *(math.sinh(chi) * direction)])
    return coeffs @ frame


def sample_bundle_points(model: SpacetimeModel, rng, n: int) -> list[BundlePoint]:
    """n chart points, then a timelike y at each, from one evaluation of g per point."""
    return [BundlePoint(x, _timelike(g, rng)) for x, g in _chart_points(model, rng, n)]


# -- checks -----------------------------------------------------------------------------
# each check is a residual(model, points, rng) -> one float per point of a
# batch (chart points as a (P, 4) array, bundle points as one ``BundlePoint``
# of (P, 4) arrays), which makes its random draws point by point, plus its
# sampler; ``_check`` owns the batch and the skip count


def _batch(points):
    """Sampled points as one batch."""
    if isinstance(points[0], BundlePoint):
        return BundlePoint(np.concatenate([p.x for p in points]), np.concatenate([p.y for p in points]))
    return np.array(points)


def _check(residual, sample=sample_points, notes: str = "", at_most: int | None = None):
    """The registry's check(model, rng, n) -> (residuals, skipped, notes).  Every
    point is drawn before the first residual, and all of them are evaluated
    as one batch.  If the batch raises an engine error, the random state is
    restored and each point is evaluated alone: a point whose evaluation
    raises is counted as skipped, not fatal, and the residuals, skips and
    random draws are those of a loop over the points."""

    def check(model, rng, n):
        points = sample(model, rng, n if at_most is None else min(n, at_most))
        state = rng.bit_generator.state
        try:
            return [float(r) for r in residual(model, _batch(points), rng)], 0, notes
        except EngineError:
            rng.bit_generator.state = state
        residuals, skipped = [], 0
        for point in points:
            try:
                residuals += [float(r) for r in residual(model, _batch([point]), rng)]
            except EngineError:
                skipped += 1
        return residuals, skipped, notes

    return check


def _each(residual):
    """The batch residual of a float residual(model, x, rng) at one chart
    point, for the checks that build no jets."""

    def batch(model, xs, rng):
        return [residual(model, x, rng) for x in xs]

    return batch


def _metric_symmetry(model, x, rng):
    g = metric_values(model, x)
    return np.max(np.abs(g - g.T)) + (0.0 if signature_signs(g) == (1, 3) else 1.0)


def _riemann_defect(g, riem):
    rlow = np.einsum("im,mjkl->ijkl", g, riem)
    scale = np.max(np.abs(rlow)) + 1.0
    worst = max(
        np.max(np.abs(rlow + np.swapaxes(rlow, 0, 1))),
        np.max(np.abs(rlow + np.swapaxes(rlow, 2, 3))),
        np.max(np.abs(rlow - np.transpose(rlow, (2, 3, 0, 1)))),
        np.max(np.abs(rlow + np.transpose(rlow, (0, 2, 3, 1)) + np.transpose(rlow, (0, 3, 1, 2)))),
    )
    return worst / scale


def _riemann_symmetries(model, xs, rng):
    geo = BaseGeometry(model, xs, 2)
    return [_riemann_defect(g, riem) for g, riem in zip(geo.g.values, geo.riemann.values)]


def _max_abs(values) -> list:
    """max |v| over each point's array."""
    return [np.max(np.abs(v)) for v in values]


def _contracted_bianchi(model, xs, rng):
    geo = BaseGeometry(model, xs, 3)
    g_upper = base_geom.raise_both_indices(geo.einstein, geo.ginv)
    return _max_abs(base_geom.covariant_divergence(geo, g_upper))


def _stress_trace(model, xs, rng):
    geo = BaseGeometry(model, xs, 1)
    return [abs(np.einsum("ij,ij->", ginv, t)) for ginv, t in zip(geo.ginv.values, geo.em_stress.values)]


def homogeneity_defects(model: SpacetimeModel, p: BundlePoint) -> list:
    """Relative Euler-scaling defect of each ladder object under y -> 2y:
    spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0);
    six arrays of one float per point."""

    def ladder(geo):
        return [geo.spray.values, geo.n_conn.values, geo.berwald.values,
                geo.tidal.values, geo.d_ricci, geo.b_hessian]

    lam = 2.0
    geo = BundleGeometry(model, p)
    base, scaled = ladder(geo), ladder(geo.at_fiber(lam * p.y))
    defects = []
    for values, scaled_values, degree in zip(base, scaled, (2, 1, 0, 2, 0, 0)):
        expect = lam**degree * values
        axes = tuple(range(1, values.ndim))
        defects.append(np.max(np.abs(scaled_values - expect), axis=axes) / (np.max(np.abs(expect), axis=axes) + 1.0))
    return defects


def _homogeneity(model, ps, rng):
    return [max(point) for point in zip(*homogeneity_defects(model, ps))]


def _fiber_derivs_agreement(model, ps, rng):
    closed, jets = bundle_geom.fiber_derivs_B(model, ps)
    return [max(np.max(np.abs(c - j)) / (np.max(np.abs(c)) + 1.0) for c, j in zip(cs, js))
            for cs, js in zip(zip(*closed), zip(*jets))]


def _tidal_reconstruction(model, ps, rng):
    geo = BundleGeometry(model, ps)
    out = []
    for e, d_riemann, d_ricci, y in zip(geo.tidal.values, geo.d_riemann, geo.d_ricci, ps.y):
        scale = np.max(np.abs(e)) + 1e-12
        recon = np.einsum("jikl,j,l->ik", d_riemann, y, y)
        trace_defect = abs(np.trace(e) + y @ d_ricci @ y)
        out.append(max(np.max(np.abs(e - recon)), trace_defect) / scale)
    return out


def _alpha_zero_collapse(model, ps, rng):
    geo = BundleGeometry(model, ps, alpha=0.0)
    base = geo.base
    objects = (base.gamma.values, geo.n_conn.values, geo.berwald.values, geo.tidal.values,
               base.riemann.values, geo.d_ricci, base.ricci.values, geo.d_ricci_scalar, base.ricci_scalar)
    out = []
    for gamma, n_conn, berw, e, riem, d_ricci, ricci, d_scalar, scalar, y in zip(*objects, ps.y):
        out.append(max(
            np.max(np.abs(n_conn - np.einsum("ijk,k->ij", gamma, y))),
            np.max(np.abs(berw - gamma)),
            np.max(np.abs(e - np.einsum("iabl,a,b->il", riem, y, y))),
            np.max(np.abs(d_ricci - ricci)),
            abs(d_scalar - scalar),
        ))
    return out


def _quad_y_independent(model, xs, rng):
    gs = [metric_values(model, x) for x in xs]
    ys = np.array([[_timelike(g, rng) for _ in range(3)] for g in gs])  # [point, draw]
    geo = BundleGeometry(model, BundlePoint(xs, ys[:, 0]))
    quads = [geo.quad_term] + [geo.at_fiber(ys[:, k]).quad_term for k in (1, 2)]
    return [(max(q) - min(q)) / (abs(q[0]) + 1.0) for q in zip(*quads)]


def _quad_closed_form(model, ps, rng):
    geo = BundleGeometry(model, ps)
    expect = 1.5 * geo.alpha**2 * geo.f_squared
    return abs(geo.quad_term - expect) / (abs(expect) + 1.0)


def _det_fiber_metric(model, x, rng):
    ball = tm_metric.fiber_ball(model, x)
    return abs(np.linalg.det(ball.v) + np.linalg.det(ball.g)) / abs(np.linalg.det(ball.g))


BALL_MOMENT_NODES = (4, 4, 4, 8)  # 2,048 nodes: exact for polynomials of degree 2 in y


def _fiber_ball_volume(model, x, rng):
    """The larger of |vol - 1| for the canonical fiber ball and the largest
    deviation of its second moment int y^a y^b dmu from (R^2/6) (v^-1)^ab,
    relative to the largest entry of the latter."""
    ball, ys, w, _ = tm_metric.fiber_rule(model, x, BALL_MOMENT_NODES)  # one node set for all 17 integrals
    volume = float(np.sum(w))
    moment = np.array([[float(np.sum(w * (ys[:, a] * ys[:, b]))) for b in range(4)] for a in range(4)])
    expect = tm_metric.BALL_BOUND / 6.0 * np.linalg.inv(ball.v)  # R^2 is the ball's bound
    return max(abs(volume - 1.0), np.max(np.abs(moment - expect)) / np.max(np.abs(expect)))


def _divergence_lift(model, ps, rng):
    names = list(model.coords)
    coeffs = np.array([rng.uniform(-1, 1, size=(4, 5)) for _ in ps.x])  # one field per point, [point, i, term]

    def components(env):  # the field's 4 components on env's jets, as one jet array
        vals = []
        for i in range(4):
            acc = env[names[0]] * 0 + coeffs[:, i, 0]
            for j, nm in enumerate(names):
                acc = acc + env[nm] * coeffs[:, i, j + 1]
            vals.append(acc)
        return concat(*vals)[0]

    geo = BundleGeometry(model, ps, order=2)  # the horizontal lift: the field on the joint space
    lifted = geo.divergence(components(model.coord_env(ps.x, geo.order, nvars=8)), geo.n_conn)
    base = tm_metric.base_divergence_values(model, ps.x, components(model.coord_env(ps.x, 1)))
    return abs(lifted - base) / (abs(base) + 1.0)


def conservation_residual(model: SpacetimeModel, x) -> np.ndarray:
    """div_j of the generalized Einstein tensor (variational form)
    G^{ij} - 12 pi alpha^2 T^f{}^{ij} at x (or at each point of a batch x)."""
    geo = BaseGeometry(model, x, 3)
    gt = base_geom.raise_both_indices(geo.einstein, geo.ginv)
    tf = base_geom.raise_both_indices(geo.em_stress, geo.ginv)
    return base_geom.covariant_divergence(geo, gt - tf * (12.0 * math.pi * model.alpha**2))


# (name, tolerance, check): an int tolerance names a tier of ``tiers``, a float
# is fixed, and None reports the check without gating it
REGISTRY = [
    ("metric_symmetry", 1, _check(
        _each(_metric_symmetry), notes="symmetry defect plus a unit penalty unless signature is (+,-,-,-)")),
    ("riemann_symmetries", 2, _check(_riemann_symmetries)),
    ("contracted_bianchi", 3, _check(_contracted_bianchi)),
    ("maxwell_homogeneous", 2, _check(
        lambda model, xs, rng: _max_abs(base_geom.maxwell_cyclic_residual(model, xs)))),
    ("maxwell_current", 2, _check(
        lambda model, xs, rng: _max_abs(base_geom.maxwell_current(model, xs)),
        notes="source-free potentials only")),
    ("stress_trace_free", 1, _check(_stress_trace)),
    ("homogeneity_ladder", 2, _check(
        _homogeneity, sample_bundle_points,
        "spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0)")),
    ("fiber_derivs_agreement", 1, _check(_fiber_derivs_agreement, sample_bundle_points)),
    ("tidal_reconstruction", 2, _check(_tidal_reconstruction, sample_bundle_points)),
    ("alpha_zero_collapse", 1, _check(_alpha_zero_collapse, sample_bundle_points)),
    ("theorem1_quad_y_independent", 2, _check(_quad_y_independent)),
    ("theorem1_quad_closed_form", 2, _check(_quad_closed_form, sample_bundle_points)),
    ("theorem1_residual", 1e-8, _check(
        lambda model, ps, rng: abs(bundle_geom.ricci_decomposition(model, ps)["residual"]),
        sample_bundle_points)),
    ("gen_einstein_comparison", None, _check(
        lambda model, ps, rng: bundle_geom.generalized_einstein(model, ps)["difference"],
        sample_bundle_points, "reported only: literal bundle assembly vs variational tensor")),
    ("det_fiber_metric", 1e-12, _check(_each(_det_fiber_metric))),
    ("fiber_ball_volume", 1e-8, _check(
        _each(_fiber_ball_volume), notes="unit volume and second moment (R^2/6) v^-1", at_most=3)),
    ("divergence_lift", 2, _check(
        _divergence_lift, sample_bundle_points, "random affine base fields", at_most=5)),
    ("conservation", 3, _check(
        lambda model, xs, rng: _max_abs(conservation_residual(model, xs)),
        notes="source-free models: the variational tensor is divergence-free")),
]

CHECK_NAMES = [name for name, _, _ in REGISTRY]


def run_suite(
    model: SpacetimeModel,
    seed: int = 0,
    n_points: int = 5,
    selection: list[str] | None = None,
    tiers: dict | None = None,
) -> list[ResidualReport]:
    """Run the (selected) checks with deterministic seeded sampling."""
    if n_points < 1:
        raise UsageError(f"n_points must be at least 1, got {n_points}")
    unknown = [name for name in selection or () if name not in CHECK_NAMES]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")
    tiers = {**DEFAULT_TIERS, **(tiers or {})}
    reports = []
    for index, (name, tol, fn) in enumerate(REGISTRY):
        if selection is not None and name not in selection:
            continue
        rng = np.random.default_rng([seed, index])
        try:
            residuals, skipped, notes = fn(model, rng, n_points)
        except EngineError as err:
            residuals, skipped, notes = [], 0, f"check aborted: {err}"
        if skipped:
            notes = f"{skipped} point(s) skipped: singular evaluation; {notes}"
        tolerance = tiers[tol] if isinstance(tol, int) else tol
        max_res = float(np.max(residuals)) if residuals else float("nan")
        mean_res = float(np.mean(residuals)) if residuals else float("nan")
        # a check passes only on every requested point: a skipped point fails it
        passed = bool(residuals) and not skipped and (tolerance is None or max_res <= tolerance)
        reports.append(
            ResidualReport(
                check=name,
                model=model.name,
                points=[len(residuals)],
                residuals=[float(r) for r in residuals],
                tolerance=tolerance,
                passed=passed,
                max_residual=max_res,
                mean_residual=mean_res,
                seed=seed,
                conventions=_conventions(model),
                notes=notes,
            )
        )
    return reports


def reports_to_json(reports: list[ResidualReport]) -> str:
    return json.dumps([r.to_dict() for r in reports], indent=2, sort_keys=True, allow_nan=True)


def reports_from_json(text: str) -> list[ResidualReport]:
    return [ResidualReport.from_dict(d) for d in json.loads(text)]


def reports_to_csv(reports: list[ResidualReport]) -> str:
    lines = ["check,model,seed,tolerance,max_residual,mean_residual,passed"]
    for r in reports:
        tol = "" if r.tolerance is None else f"{r.tolerance:.17g}"
        lines.append(
            f"{r.check},{r.model},{r.seed},{tol},{r.max_residual:.17g},{r.mean_residual:.17g},{r.passed}"
        )
    return "\n".join(lines) + "\n"
