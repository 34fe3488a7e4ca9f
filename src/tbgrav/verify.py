"""Identity and property checks bundled into reproducible residual reports.

Every geometric claim the engine implements appears exactly once in the
registry below; ``run_suite`` evaluates a deterministic, seeded sample of
chart points and timelike fiber vectors per check and reports max/mean
residuals against tiered tolerances (tier 1 = first-derivative checks,
tier 2 = curvature-level, tier 3 = third-derivative conservation checks).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import base_geom, bundle_geom, tm_metric
from .bundle_geom import BundleGeometry, BundlePoint
from .errors import EngineError, SingularEvaluationError
from .jets import jet_values
from .spacetime import SpacetimeModel, metric_jet, metric_values

DEFAULT_TIERS = {1: 1e-10, 2: 1e-9, 3: 1e-7}
THEOREM1_RESIDUAL_TOL = 1e-8
DET_V_TOL = 1e-12
BALL_VOLUME_TOL = 1e-8

SAFE_BOXES = {
    "minkowski": [(-1, 1)] * 4,
    "uniform_field": [(-1, 1)] * 4,
    "schwarzschild": [(-1, 1), (4, 20), (0.45, math.pi - 0.45), (0, 2 * math.pi)],
    "reissner_nordstrom": [(-1, 1), (4, 20), (0.45, math.pi - 0.45), (0, 2 * math.pi)],
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
        return {
            "check": self.check,
            "model": self.model,
            "points": self.points,
            "residuals": self.residuals,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "seed": self.seed,
            "conventions": self.conventions,
            "notes": self.notes,
        }

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
    # heuristic for file models on spherical-type charts
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


def sample_points(model: SpacetimeModel, rng, n: int, box=None) -> list[np.ndarray]:
    """n chart points drawn uniformly from the model's safe box."""
    if box is None:
        box = _default_box(model)
    pts = []
    attempts = 0
    while len(pts) < n and attempts < 50 * n:
        attempts += 1
        x = np.array([rng.uniform(lo, hi) for lo, hi in box])
        try:
            metric_values(model, x)
        except EngineError:
            continue
        pts.append(x)
    if len(pts) < n:
        raise EngineError(f"could not sample {n} chart points for model {model.name!r}")
    return pts


def sample_timelike(model: SpacetimeModel, rng, x, max_rapidity: float = 2.0) -> np.ndarray:
    """Random timelike y: a boosted unit time axis in an orthonormal frame."""
    g = metric_values(model, x)
    eigvals, eigvecs = np.linalg.eigh(g)
    order = np.argsort(-eigvals)  # positive eigenvalue first
    eigvals, eigvecs = eigvals[order], eigvecs[:, order]
    frame = np.empty((4, 4))
    frame[0] = eigvecs[:, 0] / math.sqrt(eigvals[0])
    for a in range(1, 4):
        frame[a] = eigvecs[:, a] / math.sqrt(-eigvals[a])
    chi = rng.uniform(0.0, max_rapidity)
    direction = rng.normal(size=3)
    direction /= np.linalg.norm(direction)
    coeffs = np.array([math.cosh(chi), *(math.sinh(chi) * direction)])
    return coeffs @ frame


def sample_bundle_points(model: SpacetimeModel, rng, n: int, box=None) -> list[BundlePoint]:
    return [BundlePoint(x, sample_timelike(model, rng, x)) for x in sample_points(model, rng, n, box)]



def _map_points(items, fn, notes: str = ""):
    """Per-point evaluation; singular points are counted, not fatal."""
    residuals, skipped = [], 0
    for item in items:
        try:
            residuals.append(float(fn(item)))
        except EngineError:
            skipped += 1
    return residuals, skipped, notes


# -- individual checks ------------------------------------------------------------------
# each returns (list of per-point residuals, number of skipped points, notes)


def _check_metric_symmetry(model, rng, n):
    def residual(x):
        g = metric_values(model, x)
        eig = np.linalg.eigvalsh(g)
        signature_ok = int(np.sum(eig > 0)) == 1 and int(np.sum(eig < 0)) == 3
        return np.max(np.abs(g - g.T)) + (0.0 if signature_ok else 1.0)

    return _map_points(
        sample_points(model, rng, n),
        residual,
        "symmetry defect plus a unit penalty unless signature is (+,-,-,-)",
    )


def _check_riemann_symmetries(model, rng, n):
    def residual(x):
        g = jet_values(metric_jet(model, x, order=2))
        riem = jet_values(base_geom.riemann(model, x))
        rlow = np.einsum("im,mjkl->ijkl", g, riem)
        scale = np.max(np.abs(rlow)) + 1.0
        worst = max(
            np.max(np.abs(rlow + np.swapaxes(rlow, 0, 1))),
            np.max(np.abs(rlow + np.swapaxes(rlow, 2, 3))),
            np.max(np.abs(rlow - np.transpose(rlow, (2, 3, 0, 1)))),
            np.max(
                np.abs(rlow + np.transpose(rlow, (0, 2, 3, 1)) + np.transpose(rlow, (0, 3, 1, 2)))
            ),
        )
        return worst / scale

    return _map_points(sample_points(model, rng, n), residual)


def _check_contracted_bianchi(model, rng, n):
    return _map_points(
        sample_points(model, rng, n),
        lambda x: np.max(
            np.abs(base_geom.covariant_divergence(model, x, base_geom.einstein_upper_field, order=3))
        ),
    )


def _check_maxwell_homogeneous(model, rng, n):
    return _map_points(
        sample_points(model, rng, n),
        lambda x: np.max(np.abs(base_geom.maxwell_cyclic_residual(model, x))),
    )


def _check_maxwell_current(model, rng, n):
    return _map_points(
        sample_points(model, rng, n),
        lambda x: np.max(np.abs(base_geom.maxwell_current(model, x))),
        "source-free potentials only",
    )


def _check_stress_trace(model, rng, n):
    def residual(x):
        t = jet_values(base_geom.em_stress_energy(model, x))
        ginv = np.linalg.inv(metric_values(model, x))
        return abs(np.einsum("ij,ij->", ginv, t))

    return _map_points(sample_points(model, rng, n), residual)


def homogeneity_defects(model: SpacetimeModel, p: BundlePoint) -> list[float]:
    """Relative Euler-scaling defect of each ladder object under y -> 2y:
    spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0)."""

    def ladder(geo):
        return [jet_values(geo.spray), jet_values(geo.n_conn), jet_values(geo.berwald),
                jet_values(geo.tidal), geo.d_ricci, geo.b_hessian]

    lam = 2.0
    base = ladder(BundleGeometry(model, p))
    scaled = ladder(BundleGeometry(model, BundlePoint(p.x, lam * p.y)))
    defects = []
    for values, scaled_values, degree in zip(base, scaled, (2, 1, 0, 2, 0, 0)):
        expect = lam**degree * values
        defects.append(float(np.max(np.abs(scaled_values - expect)) / (np.max(np.abs(expect)) + 1.0)))
    return defects


def _check_homogeneity_ladder(model, rng, n):
    return _map_points(
        sample_bundle_points(model, rng, n),
        lambda p: max(homogeneity_defects(model, p)),
        "spray(2), connection(1), berwald(0), tidal(2), d-ricci(0), b-hessian(0)",
    )


def _check_fiber_derivs_agreement(model, rng, n):
    def residual(p):
        closed, jets = bundle_geom.fiber_derivs_B(model, p)
        return max(
            np.max(np.abs(c - j)) / (np.max(np.abs(c)) + 1.0) for c, j in zip(closed, jets)
        )

    return _map_points(sample_bundle_points(model, rng, n), residual)


def _check_tidal_reconstruction(model, rng, n):
    def residual(p):
        geo = BundleGeometry(model, p)
        e = jet_values(geo.tidal)
        scale = np.max(np.abs(e)) + 1e-12
        recon = np.einsum("jikl,j,l->ik", geo.d_riemann, p.y, p.y)
        trace_defect = abs(np.trace(e) + p.y @ geo.d_ricci @ p.y)
        return max(np.max(np.abs(e - recon)), trace_defect) / scale

    return _map_points(sample_bundle_points(model, rng, n), residual)


def _check_alpha_zero_collapse(model, rng, n):
    def residual(p):
        gamma = base_geom.christoffel_values(model, p.x)
        geo = BundleGeometry(model, p, alpha=0.0)
        n_conn = jet_values(geo.n_conn)
        berw = jet_values(geo.berwald)
        e = jet_values(geo.tidal)
        g = metric_jet(model, p.x, order=2)  # the base curvature, built once
        ginv = base_geom.invert_jet_matrix(g)
        riem_jets = base_geom.riemann_jets(base_geom.christoffel_jets(g, ginv))
        riem = jet_values(riem_jets)
        ric, scal = geo.d_ricci, geo.d_ricci_scalar
        ric_jets = base_geom.ricci_jets(riem_jets)
        ric_base = jet_values(ric_jets)
        scal_base = base_geom.scalar_curvature(ginv, ric_jets)
        return max(
            np.max(np.abs(n_conn - np.einsum("ijk,k->ij", gamma, p.y))),
            np.max(np.abs(berw - gamma)),
            np.max(np.abs(e - np.einsum("iabl,a,b->il", riem, p.y, p.y))),
            np.max(np.abs(ric - ric_base)),
            abs(scal - scal_base),
        )

    return _map_points(sample_bundle_points(model, rng, n), residual)


def _check_theorem1_quad_y_independent(model, rng, n):
    def residual(x):
        quads = []
        for _ in range(3):
            y = sample_timelike(model, rng, x)
            quads.append(BundleGeometry(model, BundlePoint(x, y)).quad_term)
        return (max(quads) - min(quads)) / (abs(quads[0]) + 1.0)

    return _map_points(sample_points(model, rng, n), residual)


def _check_theorem1_quad_closed_form(model, rng, n):
    def residual(p):
        geo = BundleGeometry(model, p)
        expect = 1.5 * geo.alpha**2 * geo.f_squared
        return abs(geo.quad_term - expect) / (abs(expect) + 1.0)

    return _map_points(sample_bundle_points(model, rng, n), residual)


def _check_theorem1_residual(model, rng, n):
    return _map_points(
        sample_bundle_points(model, rng, n),
        lambda p: abs(bundle_geom.ricci_decomposition(model, p)["residual"]),
    )


def _check_gen_einstein_comparison(model, rng, n):
    return _map_points(
        sample_bundle_points(model, rng, n),
        lambda p: bundle_geom.generalized_einstein(model, p)["difference"],
        "reported only: literal bundle assembly vs variational tensor",
    )


def _check_det_fiber_metric(model, rng, n):
    def residual(x):
        fm = tm_metric.fiber_metric(model, x)
        g = metric_values(model, x)
        return abs(np.linalg.det(fm.v) + np.linalg.det(g)) / abs(np.linalg.det(g))

    return _map_points(sample_points(model, rng, n), residual)


def _check_ball_volume(model, rng, n):
    return _map_points(
        sample_points(model, rng, min(n, 3)),
        lambda x: abs(tm_metric.fiber_integral(model, x, lambda ys: np.ones(len(ys))) - 1.0),
    )


def _check_divergence_lift(model, rng, n):
    names = list(model.coords)

    def residual(p):
        coeffs = rng.uniform(-1, 1, size=(4, 5))

        def components(env, c=coeffs):
            vals = []
            for i in range(4):
                acc = env[names[0]] * 0 + float(c[i, 0])
                for j, nm in enumerate(names):
                    acc = acc + env[nm] * float(c[i, j + 1])
                vals.append(acc)
            return vals

        lifted = tm_metric.horizontal_divergence(model, p, tm_metric.lift_base_field(components))
        base = tm_metric.base_divergence_values(model, p.x, components)
        return abs(lifted - base) / (abs(base) + 1.0)

    return _map_points(
        sample_bundle_points(model, rng, min(n, 5)), residual, "random affine base fields"
    )


def _gen_einstein_upper_field(model, x, order):
    """Upper-index variational tensor G^{ij} - 12 pi alpha^2 T^f{}^{ij}."""
    gt = base_geom.einstein_upper_field(model, x, order)
    tf = base_geom.em_stress_upper_field(model, x, order)
    return gt - tf * (12.0 * math.pi * model.alpha**2)


def conservation_residual(model: SpacetimeModel, x) -> np.ndarray:
    """div_j of the generalized Einstein tensor (variational form) at x."""
    return base_geom.covariant_divergence(model, x, _gen_einstein_upper_field, order=3)


def _check_conservation(model, rng, n):
    return _map_points(
        sample_points(model, rng, n),
        lambda x: np.max(np.abs(conservation_residual(model, x))),
        "source-free models: the variational tensor is divergence-free",
    )


REGISTRY = [
    ("metric_symmetry", 1, _check_metric_symmetry),
    ("riemann_symmetries", 2, _check_riemann_symmetries),
    ("contracted_bianchi", 3, _check_contracted_bianchi),
    ("maxwell_homogeneous", 2, _check_maxwell_homogeneous),
    ("maxwell_current", 2, _check_maxwell_current),
    ("stress_trace_free", 1, _check_stress_trace),
    ("homogeneity_ladder", 2, _check_homogeneity_ladder),
    ("fiber_derivs_agreement", 1, _check_fiber_derivs_agreement),
    ("tidal_reconstruction", 2, _check_tidal_reconstruction),
    ("alpha_zero_collapse", 1, _check_alpha_zero_collapse),
    ("theorem1_quad_y_independent", 2, _check_theorem1_quad_y_independent),
    ("theorem1_quad_closed_form", 2, _check_theorem1_quad_closed_form),
    ("theorem1_residual", None, _check_theorem1_residual),  # fixed 1e-8
    ("gen_einstein_comparison", None, _check_gen_einstein_comparison),  # reported only
    ("det_fiber_metric", None, _check_det_fiber_metric),  # fixed 1e-12
    ("fiber_ball_volume", None, _check_ball_volume),  # fixed 1e-8
    ("divergence_lift", 2, _check_divergence_lift),
    ("conservation", 3, _check_conservation),
]

_FIXED_TOLERANCES = {
    "theorem1_residual": THEOREM1_RESIDUAL_TOL,
    "det_fiber_metric": DET_V_TOL,
    "fiber_ball_volume": BALL_VOLUME_TOL,
    "gen_einstein_comparison": None,
}

CHECK_NAMES = [name for name, _, _ in REGISTRY]


def run_suite(
    model: SpacetimeModel,
    seed: int = 0,
    n_points: int = 5,
    selection: list[str] | None = None,
    tiers: dict | None = None,
    box=None,
) -> list[ResidualReport]:
    """Run the (selected) checks with deterministic seeded sampling."""
    tiers = {**DEFAULT_TIERS, **(tiers or {})}
    reports = []
    for index, (name, tier, fn) in enumerate(REGISTRY):
        if selection is not None and name not in selection:
            continue
        rng = np.random.default_rng([seed, index])
        try:
            residuals, skipped, notes = fn(model, rng, n_points)
        except EngineError as err:
            residuals, skipped, notes = [], 0, f"check aborted: {err}"
        if skipped:
            notes = f"{skipped} point(s) skipped: singular evaluation; {notes}"
        if name in _FIXED_TOLERANCES:
            tolerance = _FIXED_TOLERANCES[name]
        else:
            tolerance = tiers[tier]
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
