"""Suite orchestration: determinism, registry completeness, serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tbgrav import exprlang, tm_metric, verify
from tbgrav.base_geom import BaseGeometry
from tbgrav.bundle_geom import BundleGeometry
from tbgrav.errors import SingularEvaluationError, UsageError
from tbgrav.spacetime import catalog, load_model, metric_jet, print_model

RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
MINK = catalog("minkowski")


def test_minkowski_full_suite_passes_tightly():
    reports = verify.run_suite(MINK, seed=3, n_points=3)
    assert all(r.passed for r in reports)
    for r in reports:
        assert r.max_residual <= 1e-12


def test_default_box_for_model_files():
    """A model file outside SAFE_BOXES gets the spherical-chart box when its
    coordinates include r and theta, and a small cube otherwise."""
    def renamed(model, name):
        return load_model(json.dumps({**json.loads(print_model(model)), "name": name}))

    spherical, flat = renamed(RN, "rn_file"), renamed(MINK, "flat_file")
    assert verify._default_box(spherical) == [(-1.0, 1.0), (4.0, 20.0), (0.45, math.pi - 0.45), (0.0, 2 * math.pi)]
    assert verify._default_box(flat) == [(-0.9, 0.9)] * 4
    reports = verify.run_suite(spherical, seed=5, n_points=2, selection=["metric_symmetry", "maxwell_current"])
    assert [r.check for r in reports] == ["metric_symmetry", "maxwell_current"]
    assert all(r.passed for r in reports)


def test_rn_star_suite_passes():
    reports = verify.run_suite(RN, seed=42, n_points=3)
    assert all(r.passed for r in reports), [
        (r.check, r.max_residual) for r in reports if not r.passed
    ]


def test_schwarzschild_alpha_nonzero_zero_potential():
    model = catalog("schwarzschild", {"M": 1.0})
    model.alpha = 0.3  # B = 0 branch regardless of alpha
    reports = verify.run_suite(model, seed=9, n_points=2)
    assert all(r.passed for r in reports)


def test_suite_deterministic_byte_identical():
    a = verify.reports_to_json(verify.run_suite(RN, seed=7, n_points=2))
    b = verify.reports_to_json(verify.run_suite(RN, seed=7, n_points=2))
    assert a == b


def test_different_seed_changes_points():
    a = verify.run_suite(RN, seed=1, n_points=2, selection=["contracted_bianchi"])
    b = verify.run_suite(RN, seed=2, n_points=2, selection=["contracted_bianchi"])
    assert a[0].residuals != b[0].residuals


def test_registry_completeness():
    expected = [
        "metric_symmetry",
        "riemann_symmetries",
        "contracted_bianchi",
        "maxwell_homogeneous",
        "maxwell_current",
        "stress_trace_free",
        "homogeneity_ladder",
        "fiber_derivs_agreement",
        "tidal_reconstruction",
        "alpha_zero_collapse",
        "theorem1_quad_y_independent",
        "theorem1_quad_closed_form",
        "theorem1_residual",
        "gen_einstein_comparison",
        "det_fiber_metric",
        "fiber_ball_volume",
        "divergence_lift",
        "conservation",
    ]
    assert verify.CHECK_NAMES == expected
    assert len(set(verify.CHECK_NAMES)) == len(verify.CHECK_NAMES)


def test_report_serialization_round_trip():
    reports = verify.run_suite(MINK, seed=5, n_points=2, selection=["metric_symmetry"])
    text = verify.reports_to_json(reports)
    back = verify.reports_from_json(text)
    assert verify.reports_to_json(back) == text


def test_csv_flatten():
    reports = verify.run_suite(MINK, seed=5, n_points=2, selection=["metric_symmetry", "conservation"])
    csv = verify.reports_to_csv(reports)
    lines = csv.strip().split("\n")
    assert lines[0].startswith("check,model,seed,")
    assert len(lines) == 3


@pytest.mark.parametrize("kwargs, match", [
    ({"n_points": 0}, "n_points"),
    ({"n_points": -1}, "n_points"),
    ({"selection": ["metric_symetry"]}, "metric_symetry"),
    ({"selection": ["metric_symmetry", "bianchi"]}, "bianchi"),
])
def test_run_suite_refuses_what_it_cannot_run(kwargs, match):
    """No points, or a selected check that is not registered, is a usage
    error: neither a crash nor an empty report that a typo would pass."""
    with pytest.raises(UsageError, match=match):
        verify.run_suite(MINK, **kwargs)


def test_selection_subsets_registry():
    reports = verify.run_suite(MINK, seed=0, n_points=1, selection=["fiber_ball_volume"])
    assert [r.check for r in reports] == ["fiber_ball_volume"]


def test_fiber_ball_volume_reads_the_model():
    """The fiber-ball check integrates y^a y^b as well as 1, so it reads the
    model's fiber metric v: on the dense model, whose v is not diagonal, a
    change of variables by L^-1 in place of L^-T fails it."""
    dense = load_model((Path(__file__).resolve().parents[1] / "tools" / "dense_model.json").read_text())
    for x in verify.sample_points(dense, np.random.default_rng(42), 3):
        v = tm_metric.fiber_ball(dense, x).v
        assert np.max(np.abs(v - np.diag(np.diag(v)))) > 0.01 * np.max(np.abs(v))
    (report,) = verify.run_suite(dense, seed=42, n_points=3, selection=["fiber_ball_volume"])
    assert report.passed and len(report.residuals) == 3 and report.max_residual <= 1e-14


def test_sampled_y_is_timelike():
    rng = np.random.default_rng(11)
    for x in verify.sample_points(RN, rng, 5):
        y = verify.sample_timelike(RN, rng, x)
        g = metric_jet(RN, x, order=0).values
        assert y @ g @ y > 0.1


def test_sampling_evaluates_g_once_per_point(monkeypatch):
    """``sample_bundle_points`` runs the metric tape once per point (the chart
    test's g draws its y) and ``theorem1_quad_y_independent`` once per x for
    its three draws, with the draws of ``sample_points`` then
    ``sample_timelike`` on one random stream."""
    xs = verify.sample_points(RN, np.random.default_rng(9), 5)
    ref = np.random.default_rng(9)
    ref_xs = verify.sample_points(RN, ref, 5)
    ref_ys = [verify.sample_timelike(RN, ref, x) for x in ref_xs]
    runs = []
    values = exprlang.Tape.values

    def counted(tape, x):
        runs.append(tape is RN.metric_tape)
        return values(tape, x)

    monkeypatch.setattr(exprlang.Tape, "values", counted)
    points = verify.sample_bundle_points(RN, np.random.default_rng(9), 5)
    assert sum(runs) == 5
    assert all(p.x.tobytes() == x.tobytes() and p.y.tobytes() == y.tobytes()
               for p, x, y in zip(points, ref_xs, ref_ys, strict=True))
    runs.clear()
    verify._quad_y_independent(RN, np.array(xs), np.random.default_rng(9))
    assert sum(runs) == 5


def test_conservation_residual_values():
    assert np.max(np.abs(verify.conservation_residual(MINK, [0, 0, 0, 0]))) == 0.0
    assert np.max(np.abs(verify.conservation_residual(RN, [0.0, 5.0, 1.2, 0.5]))) <= 1e-7
    schw = catalog("schwarzschild", {"M": 1.0})
    assert np.max(np.abs(verify.conservation_residual(schw, [0.0, 10.0, 1.2, 0.5]))) <= 1e-7


def test_singular_points_recorded_not_fatal():
    """A batch with singular points is run again point by point; each
    singular point is counted as skipped."""
    calls = []

    def flaky(model, xs, rng):
        calls.append(list(xs))
        if any(x % 2 for x in xs):
            raise SingularEvaluationError("boom", value=0.0)
        return [1e-12] * len(xs)

    check = verify._check(flaky, sample=lambda model, rng, n: list(range(n)))
    residuals, skipped, notes = check(MINK, np.random.default_rng(0), 6)
    assert calls == [list(range(6))] + [[k] for k in range(6)]
    assert residuals == [1e-12] * 3
    assert skipped == 3
    assert notes == ""


def test_skipped_point_fails_check(monkeypatch):
    def residual(model, xs, rng):
        if (xs[:, 0] == 0).any():
            raise SingularEvaluationError("boom", value=0.0)
        return [0.0] * len(xs)

    one_singular = verify._check(
        residual, sample=lambda model, rng, n: [[k] for k in range(n)], notes="stub check"
    )
    monkeypatch.setattr(verify, "REGISTRY", [("metric_symmetry", 1, one_singular)])
    (report,) = verify.run_suite(MINK, seed=0, n_points=5, selection=["metric_symmetry"])
    assert report.residuals == [0.0] * 4
    assert report.notes == "1 point(s) skipped: singular evaluation; stub check"
    assert report.passed is False


def test_registry_entries_keep_check_contract():
    """Each entry is (name, tolerance, check) and check(model, rng, n) returns
    (residuals, skipped, notes); the benchmark's tracer wraps these triples."""
    for entry in verify.REGISTRY:
        assert isinstance(entry, tuple) and len(entry) == 3
        name, _, check = entry
        out = check(MINK, np.random.default_rng(0), 1)
        assert isinstance(out, tuple) and len(out) == 3, name
        residuals, skipped, notes = out
        assert isinstance(residuals, list) and residuals, name
        assert all(type(r) is float for r in residuals), name
        assert type(skipped) is int and isinstance(notes, str), name


def test_check_draws_every_point_before_first_residual():
    """The seeded reports depend on the rng order: all sample draws, then the
    batch's residuals, which may draw more point by point
    (theorem1_quad_y_independent, divergence_lift)."""
    log = []

    class RecordingRng:
        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)
            self.bit_generator = self.rng.bit_generator  # saved before each batch

        def uniform(self, *args, **kwargs):
            log.append("draw")
            return self.rng.uniform(*args, **kwargs)

    def residual(model, xs, rng):
        log.append("residual")
        return [rng.uniform() for _ in xs]

    residuals, skipped, _ = verify._check(residual)(MINK, RecordingRng(3), 3)
    assert log == ["draw"] * 12 + ["residual"] + ["draw"] * 3
    plain = np.random.default_rng(3)
    points = verify.sample_points(MINK, plain, 3)
    assert residuals == [plain.uniform() for _ in points]
    assert skipped == 0


def test_reports_carry_conventions_and_seed():
    r = verify.run_suite(RN, seed=13, n_points=1, selection=["metric_symmetry"])[0]
    assert r.seed == 13
    assert r.conventions["signature"] == "+---"
    assert r.conventions["em_stress_sign"] == 1.0


@pytest.mark.parametrize(
    "check, per_point_axis",
    [("alpha_zero_collapse", 1), ("fiber_derivs_agreement", 1), ("homogeneity_ladder", 2),
     ("theorem1_quad_y_independent", 3)],
)
def test_geometry_builds_per_point(monkeypatch, check, per_point_axis):
    """The points of a check share one geometry with a point axis: one
    BundleGeometry per batch (two for the y -> 2y ladder, three fiber vectors
    per x for the quadratic term) and one BaseGeometry, for any number of
    points."""
    builds, bases = [], []
    init, at_fiber, base_init = BundleGeometry.__init__, BundleGeometry.at_fiber, BaseGeometry.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(check)
        init(self, *args, **kwargs)

    def counted_at_fiber(self, y):
        builds.append(check)
        return at_fiber(self, y)

    def counted_base_init(self, *args, **kwargs):
        bases.append(check)
        base_init(self, *args, **kwargs)

    monkeypatch.setattr(BundleGeometry, "__init__", counted_init)
    monkeypatch.setattr(BundleGeometry, "at_fiber", counted_at_fiber)
    monkeypatch.setattr(BaseGeometry, "__init__", counted_base_init)
    n = 2
    [report] = verify.run_suite(RN, seed=42, n_points=n, selection=[check])
    assert report.passed
    assert len(builds) == per_point_axis
    assert len(bases) == 1
