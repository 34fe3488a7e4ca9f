"""Identity and property checks bundled into reproducible residual reports.

Every geometric claim the engine implements appears exactly once in the
registry below, as a residual of the suite's geometry: ``residual(geo, rng)``
gives one float per point of ``geo``, a ``BundleGeometry`` whose objects all
carry the point axis (the base checks read its ``base``), and makes the
draws it needs on ``rng``, its own stream.  ``run_suite`` owns the points,
the geometry and the retry.  It draws n chart points and one timelike y at
each from one seeded stream and builds one ``BundleGeometry`` on them, so
every identity is checked at the same n points, and a selection of checks
reads the points and residuals it reads in the whole suite.  A check whose
batch raises an engine error is run again, from the same random state, on
one-point geometries: a point that still raises is skipped, and fails its
check.  Reports give max/mean residuals against tiered tolerances (tier 1 =
first-derivative checks, tier 2 = curvature-level, tier 3 = third-derivative
conservation checks) or the fixed tolerance the registry gives.
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
    requested: int
    evaluated: int
    skipped: int
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


def sample_bundle_points(model: SpacetimeModel, rng, n: int) -> BundlePoint:
    """A batch of n bundle points: n chart points drawn uniformly from the
    model's safe box, then a timelike y at each (``sample_timelike``), drawn
    from the g that the point's chart test evaluates, so g is evaluated once
    per point."""
    box = _default_box(model)
    xs, gs = [], []
    attempts = 0
    while len(xs) < n and attempts < 50 * n:
        attempts += 1
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        try:
            g = metric_values(model, x)
        except EngineError:
            continue
        xs.append(x)
        gs.append(g)
    if len(xs) < n:
        raise EngineError(f"could not sample {n} chart points for model {model.name!r}")
    return BundlePoint(np.array(xs), np.array([sample_timelike(g, rng) for g in gs]))


def sample_timelike(g: np.ndarray, rng) -> np.ndarray:
    """Random timelike y at a point where the metric is g: a unit time axis
    boosted by rapidity up to 2 in an orthonormal frame."""
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


# -- checks -----------------------------------------------------------------------------
# each check is a residual(geo, rng) -> one float per point of the suite's
# geometry, which makes its own random draws point by point


def _metric_symmetry(geo, rng):
    return [np.max(np.abs(g - g.T)) + (0.0 if signature_signs(g) == (1, 3) else 1.0) for g in geo.base.g.values]


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


def _riemann_symmetries(geo, rng):
    return [_riemann_defect(g, riem) for g, riem in zip(geo.base.g.values, geo.base.riemann.values)]


def _max_abs(values) -> list:
    """max |v| over each point's array."""
    return [np.max(np.abs(v)) for v in values]


def _contracted_bianchi(geo, rng):
    base = geo.base
    return _max_abs(base_geom.covariant_divergence(base, base_geom.raise_both_indices(base.einstein, base.ginv)))


def _stress_trace(geo, rng):
    return [abs(np.einsum("ij,ij->", ginv, t)) for ginv, t in zip(geo.base.ginv.values, geo.base.em_stress.values)]


def homogeneity_defects(geo: BundleGeometry) -> list:
    """Relative Euler-scaling defect of each ladder object under y -> 1.5 y:
    spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0);
    six arrays of one float per point of the geometry."""

    def ladder(geo):
        return [geo.spray.values, geo.n_conn.values, geo.berwald.values,
                geo.tidal.values, geo.d_ricci, geo.b_hessian]

    lam = 1.5  # not a power of 2, so that the scaled floats round
    base, scaled = ladder(geo), ladder(geo.at_fiber(lam * geo.p.y))
    defects = []
    for values, scaled_values, degree in zip(base, scaled, (2, 1, 0, 2, 0, 0)):
        expect = lam**degree * values
        axes = tuple(range(1, values.ndim))
        defects.append(np.max(np.abs(scaled_values - expect), axis=axes) / (np.max(np.abs(expect), axis=axes) + 1.0))
    return defects


def _fiber_derivs_agreement(geo, rng):
    closed, jets = bundle_geom.fiber_derivs_B(geo)
    return [max(np.max(np.abs(c - j)) / (np.max(np.abs(c)) + 1.0) for c, j in zip(cs, js))
            for cs, js in zip(zip(*closed), zip(*jets))]


def _tidal_reconstruction(geo, rng):
    out = []
    for e, d_riemann, d_ricci, y in zip(geo.tidal.values, geo.d_riemann, geo.d_ricci, geo.p.y):
        scale = np.max(np.abs(e)) + 1e-12
        recon = np.einsum("jikl,j,l->ik", d_riemann, y, y)
        trace_defect = abs(np.trace(e) + y @ d_ricci @ y)
        out.append(max(np.max(np.abs(e - recon)), trace_defect) / scale)
    return out


def _alpha_zero_collapse(geo, rng):
    geo = geo.at_alpha(0.0)
    base = geo.base
    objects = (base.gamma.values, geo.n_conn.values, geo.berwald.values, geo.tidal.values,
               base.riemann.values, geo.d_ricci, base.ricci.values, geo.d_ricci_scalar, base.ricci_scalar)
    out = []
    for gamma, n_conn, berw, e, riem, d_ricci, ricci, d_scalar, scalar, y in zip(*objects, geo.p.y):
        out.append(max(
            np.max(np.abs(n_conn - np.einsum("ijk,k->ij", gamma, y))),
            np.max(np.abs(berw - gamma)),
            np.max(np.abs(e - np.einsum("iabl,a,b->il", riem, y, y))),
            np.max(np.abs(d_ricci - ricci)),
            abs(d_scalar - scalar),
        ))
    return out


def _quad_y_independent(geo, rng):
    """The spread of the quadratic term over the point's y and two more
    timelike fiber vectors drawn at each point."""
    ys = np.array([[sample_timelike(g, rng) for _ in range(2)] for g in geo.base.g.values])  # [point, draw]
    quads = [geo.quad_term] + [geo.at_fiber(ys[:, k]).quad_term for k in (0, 1)]
    return [(max(q) - min(q)) / (abs(q[0]) + 1.0) for q in zip(*quads)]


def _quad_closed_form(geo, rng):
    expect = 1.5 * geo.alpha**2 * geo.f_squared
    return abs(geo.quad_term - expect) / (abs(expect) + 1.0)


def _det_fiber_metric(geo, rng):
    balls = [tm_metric.fiber_ball(geo.model, x) for x in geo.p.x]
    return [abs(np.linalg.det(ball.v) + np.linalg.det(ball.g)) / abs(np.linalg.det(ball.g)) for ball in balls]


BALL_MOMENT_NODES = (4, 4, 4, 8)  # 2,048 nodes: exact for polynomials of degree 2 in y
BALL_POINTS = 3  # the points of a batch that the fiber-ball check integrates over


def _fiber_ball_volume(geo, rng):
    """At each of the first BALL_POINTS points of the batch, the larger of
    |vol - 1| for the canonical fiber ball and the largest deviation of its
    second moment int y^a y^b dmu from (R^2/6) (v^-1)^ab, relative to the
    largest entry of the latter.  A batch of one is its own first point, so
    the suite's point-by-point retry integrates at every point."""
    out = []
    for x in geo.p.x[:BALL_POINTS]:
        ball, ys, w, _ = tm_metric.fiber_rule(geo.model, x, BALL_MOMENT_NODES)  # one node set for all 17 integrals
        volume = float(np.sum(w))
        moment = np.array([[float(np.sum(w * (ys[:, a] * ys[:, b]))) for b in range(4)] for a in range(4)])
        expect = tm_metric.BALL_BOUND / 6.0 * np.linalg.inv(ball.v)  # R^2 is the ball's bound
        out.append(max(abs(volume - 1.0), np.max(np.abs(moment - expect)) / np.max(np.abs(expect))))
    return out


def _divergence_lift(geo, rng):
    """The horizontal divergence of the lift of a random affine base field
    drawn at each point against the classical divergence of the field."""
    model, xs = geo.model, geo.p.x
    names = list(model.coords)
    coeffs = np.array([rng.uniform(-1, 1, size=(4, 5)) for _ in xs])  # one field per point, [point, i, term]

    def components(env):  # the field's 4 components on env's jets, as one jet array
        vals = []
        for i in range(4):
            acc = env[names[0]] * 0 + coeffs[:, i, 0]
            for j, nm in enumerate(names):
                acc = acc + env[nm] * coeffs[:, i, j + 1]
            vals.append(acc)
        return concat(*vals)[0]

    lifted = geo.divergence(components(model.coord_env(xs, geo.order, nvars=8)), geo.n_conn)
    base = tm_metric.base_divergence_values(geo.base, components(model.coord_env(xs, 1)))
    return abs(lifted - base) / (abs(base) + 1.0)


def conservation_residual(geo: BaseGeometry) -> np.ndarray:
    """div_j of the generalized Einstein tensor (variational form)
    G^{ij} - 12 pi alpha^2 T^f{}^{ij} at each of the geometry's points
    (carrier order 3 or more), alpha the model's coupling."""
    gt = base_geom.raise_both_indices(geo.einstein, geo.ginv)
    tf = base_geom.raise_both_indices(geo.em_stress, geo.ginv)
    return base_geom.covariant_divergence(geo, gt - tf * (12.0 * math.pi * geo.model.alpha**2))


# (name, tolerance, residual): an int tolerance names a tier of ``tiers``, a
# float is fixed, and None reports the check without gating it
REGISTRY = [
    ("metric_symmetry", 1, _metric_symmetry),
    ("riemann_symmetries", 2, _riemann_symmetries),
    ("contracted_bianchi", 3, _contracted_bianchi),
    ("maxwell_homogeneous", 2, lambda geo, rng: _max_abs(base_geom.maxwell_cyclic_residual(geo.base))),
    ("maxwell_current", 2, lambda geo, rng: _max_abs(base_geom.maxwell_current(geo.base))),
    ("stress_trace_free", 1, _stress_trace),
    ("homogeneity_ladder", 2, lambda geo, rng: [max(point) for point in zip(*homogeneity_defects(geo))]),
    ("fiber_derivs_agreement", 1, _fiber_derivs_agreement),
    ("tidal_reconstruction", 2, _tidal_reconstruction),
    ("alpha_zero_collapse", 1, _alpha_zero_collapse),
    ("theorem1_quad_y_independent", 2, _quad_y_independent),
    ("theorem1_quad_closed_form", 2, _quad_closed_form),
    ("theorem1_residual", 1e-8, lambda geo, rng: abs(bundle_geom.ricci_decomposition(geo)["residual"])),
    ("gen_einstein_comparison", None, lambda geo, rng: bundle_geom.generalized_einstein(geo)["difference"]),
    ("det_fiber_metric", 1e-12, _det_fiber_metric),
    ("fiber_ball_volume", 1e-8, _fiber_ball_volume),
    ("divergence_lift", 2, _divergence_lift),
    ("conservation", 3, lambda geo, rng: _max_abs(conservation_residual(geo.base))),
]

CHECK_NAMES = [name for name, _, _ in REGISTRY]
SAMPLE_STREAM = len(REGISTRY)  # the sample's stream is [seed, SAMPLE_STREAM], check k's own [seed, k]

NOTES = {
    "metric_symmetry": "symmetry defect plus a unit penalty unless signature is (+,-,-,-)",
    "maxwell_current": "source-free potentials only",
    "homogeneity_ladder": "y -> 1.5 y: spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0)",
    "gen_einstein_comparison": "reported only: literal bundle assembly vs variational tensor",
    "fiber_ball_volume": f"unit volume and second moment (R^2/6) v^-1, first {BALL_POINTS} points",
    "divergence_lift": "random affine base fields",
    "conservation": "source-free models: the variational tensor is divergence-free",
}


def _evaluate(residual, geo: BundleGeometry, rng, singles: list) -> tuple[list, int]:
    """(residuals, skipped) of one check on the suite's geometry.  If the
    batch raises an engine error, the random state is restored and the check
    runs on each point's one-point geometry (``singles``, built on the
    suite's first retry and kept for the next): a point whose evaluation
    raises is counted as skipped, and the residuals, skips and random draws
    are those of a loop over the points."""
    state = rng.bit_generator.state
    try:
        return [float(r) for r in residual(geo, rng)], 0
    except EngineError:
        rng.bit_generator.state = state
    if not singles:
        singles += [BundleGeometry(geo.model, BundlePoint(x, y)) for x, y in zip(geo.p.x, geo.p.y)]
    residuals, skipped = [], 0
    for single in singles:
        try:
            residuals += [float(r) for r in residual(single, rng)]
        except EngineError:
            skipped += 1
    return residuals, skipped


def run_suite(
    model: SpacetimeModel,
    seed: int = 0,
    n_points: int = 5,
    selection: list[str] | None = None,
    tiers: dict | None = None,
) -> list[ResidualReport]:
    """Run the (selected) checks on one seeded sample of n_points bundle
    points and the one geometry built on it (``SAMPLE_STREAM``), seed an int
    >= 0 and n_points one >= 1 (not bools)."""
    seed = base_geom.whole_number(seed, "seed", 0)
    n_points = base_geom.whole_number(n_points, "n_points", 1)
    unknown = [name for name in selection or () if name not in CHECK_NAMES]
    if unknown:
        raise UsageError(f"unknown checks {unknown}; choose from {CHECK_NAMES}")
    tiers = {**DEFAULT_TIERS, **(tiers or {})}
    try:
        geo, aborted = BundleGeometry(model, sample_bundle_points(
            model, np.random.default_rng([seed, SAMPLE_STREAM]), n_points)), ""
    except EngineError as err:
        geo, aborted = None, f"check aborted: {err}"
    singles = []
    reports = []
    for index, (name, tol, fn) in enumerate(REGISTRY):
        if selection is not None and name not in selection:
            continue
        rng = np.random.default_rng([seed, index])
        residuals, skipped = ([], 0) if geo is None else _evaluate(fn, geo, rng, singles)
        tolerance = tiers[tol] if isinstance(tol, int) else tol
        max_res = float(np.max(residuals)) if residuals else float("nan")
        mean_res = float(np.mean(residuals)) if residuals else float("nan")
        # a check passes only on every requested point: a skipped point fails it
        passed = bool(residuals) and not skipped and (tolerance is None or max_res <= tolerance)
        reports.append(
            ResidualReport(
                check=name,
                model=model.name,
                requested=n_points if geo is None else len(residuals) + skipped,
                evaluated=len(residuals),
                skipped=skipped,
                residuals=residuals,
                tolerance=tolerance,
                passed=passed,
                max_residual=max_res,
                mean_residual=mean_res,
                seed=seed,
                conventions=_conventions(model),
                notes=aborted or NOTES.get(name, ""),
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
