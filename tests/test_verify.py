"""Suite orchestration: determinism, registry completeness, serialization."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tbgrav import exprlang, tm_metric, verify
from tbgrav.base_geom import BaseGeometry
from tbgrav.bundle_geom import BundleGeometry, BundlePoint
from tbgrav.errors import SingularEvaluationError, UsageError
from tbgrav.spacetime import catalog, load_model, metric_jet, metric_values, print_model

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
    """A report carries the points it requested, evaluated and skipped as
    ints, and round-trips through JSON."""
    reports = verify.run_suite(MINK, seed=5, n_points=2, selection=["metric_symmetry", "fiber_ball_volume"])
    text = verify.reports_to_json(reports)
    back = verify.reports_from_json(text)
    assert verify.reports_to_json(back) == text
    counts = [(d["requested"], d["evaluated"], d["skipped"]) for d in json.loads(text)]
    assert counts == [(2, 2, 0), (2, 2, 0)]
    assert all(type(n) is int for n in counts[0]) and "points" not in json.loads(text)[0]
    [ball] = verify.run_suite(MINK, seed=5, n_points=5, selection=["fiber_ball_volume"])
    assert (ball.requested, ball.evaluated, ball.skipped) == (verify.BALL_POINTS, verify.BALL_POINTS, 0)


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
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"n_points": 2.5}, "n_points"),
    ({"n_points": True}, "n_points"),
])
def test_run_suite_refuses_what_it_cannot_run(kwargs, match):
    """No points, a selected check that is not registered, or a seed or
    point count that is not a whole number (>= 0, >= 1) is a usage error:
    neither a crash nor an empty report that a typo would pass, nor NumPy's
    ValueError, a bool written as the seed or 2.5 points run as 3."""
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
    for x in verify.sample_bundle_points(dense, np.random.default_rng(42), 3).x:
        v = tm_metric.fiber_ball(dense, x).v
        assert np.max(np.abs(v - np.diag(np.diag(v)))) > 0.01 * np.max(np.abs(v))
    (report,) = verify.run_suite(dense, seed=42, n_points=3, selection=["fiber_ball_volume"])
    assert report.passed and len(report.residuals) == 3 and report.max_residual <= 1e-14


def test_sampled_y_is_timelike():
    p = verify.sample_bundle_points(RN, np.random.default_rng(11), 5)
    for x, y in zip(p.x, p.y, strict=True):
        g = metric_jet(RN, x, order=0).values
        assert y @ g @ y > 0.1


def test_sampling_evaluates_g_once_per_point(monkeypatch):
    """``sample_bundle_points`` runs the metric tape once per point (the chart
    test's g draws its y), drawing every x and then a y at each on one random
    stream, and ``theorem1_quad_y_independent`` draws its two more fiber
    vectors per point from the geometry's g without running it again."""
    ref = np.random.default_rng(9)
    box = verify._default_box(RN)
    ref_xs = [np.array([ref.uniform(lo, hi) for lo, hi in box]) for _ in range(5)]  # RN's box is all chart
    ref_ys = [verify.sample_timelike(metric_values(RN, x), ref) for x in ref_xs]
    runs = []
    values = exprlang.Tape.values

    def counted(tape, x):
        runs.append(tape is RN.metric_tape)
        return values(tape, x)

    monkeypatch.setattr(exprlang.Tape, "values", counted)
    points = verify.sample_bundle_points(RN, np.random.default_rng(9), 5)
    assert sum(runs) == 5
    assert points.x.tobytes() == np.array(ref_xs).tobytes() and points.y.tobytes() == np.array(ref_ys).tobytes()
    runs.clear()
    verify._quad_y_independent(BundleGeometry(RN, points), np.random.default_rng(9))
    assert sum(runs) == 0


def test_conservation_residual_values():
    def residual(model, x):
        return np.max(np.abs(verify.conservation_residual(BaseGeometry(model, x, 3))))

    assert residual(MINK, [0, 0, 0, 0]) == 0.0
    assert residual(RN, [0.0, 5.0, 1.2, 0.5]) <= 1e-7
    assert residual(catalog("schwarzschild", {"M": 1.0}), [0.0, 10.0, 1.2, 0.5]) <= 1e-7


def _fixed_sample(monkeypatch, n):
    """Make the suite's sample the Minkowski points (k, 0, 0, 0), k < n, with
    y the time axis."""
    x = np.zeros((n, 4))
    x[:, 0] = np.arange(n)
    points = BundlePoint(x, np.tile([1.0, 0.0, 0.0, 0.0], (n, 1)))
    monkeypatch.setattr(verify, "sample_bundle_points", lambda model, rng, n_points: points)


def test_singular_points_recorded_not_fatal(monkeypatch):
    """A batch with singular points is run again point by point, on one-point
    geometries; each singular point is counted as skipped, and a skip fails
    its check."""
    calls = []

    def flaky(geo, rng):
        calls.append(geo.p.x[:, 0].tolist())
        if (geo.p.x[:, 0] % 2).any():
            raise SingularEvaluationError("boom", value=0.0)
        return [1e-12] * len(geo.p.x)

    _fixed_sample(monkeypatch, 6)
    monkeypatch.setattr(verify, "REGISTRY", [("metric_symmetry", 1, flaky)])
    (report,) = verify.run_suite(MINK, seed=0, n_points=6)
    assert calls == [[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]] + [[float(k)] for k in range(6)]
    assert report.residuals == [1e-12] * 3
    assert (report.requested, report.evaluated, report.skipped) == (6, 3, 3)
    assert report.passed is False
    assert report.notes == verify.NOTES["metric_symmetry"]


def test_skipped_point_fails_check(monkeypatch):
    def residual(geo, rng):
        if (geo.p.x[:, 0] == 0).any():
            raise SingularEvaluationError("boom", value=0.0)
        return [0.0] * len(geo.p.x)

    _fixed_sample(monkeypatch, 5)
    monkeypatch.setattr(verify, "REGISTRY", [("metric_symmetry", 1, residual)])
    (report,) = verify.run_suite(MINK, seed=0, n_points=5, selection=["metric_symmetry"])
    assert report.residuals == [0.0] * 4
    assert (report.requested, report.evaluated, report.skipped) == (5, 4, 1)
    assert report.passed is False


def test_registry_entries_keep_check_contract():
    """Each entry is (name, tolerance, check), and check(geo, rng) gives one
    float per point of the suite's geometry; the benchmark's tracer wraps
    these triples."""
    geo = BundleGeometry(MINK, verify.sample_bundle_points(MINK, np.random.default_rng(0), 2))
    for entry in verify.REGISTRY:
        assert isinstance(entry, tuple) and len(entry) == 3
        name, _, check = entry
        residuals = [float(r) for r in check(geo, np.random.default_rng(0))]
        assert len(residuals) == 2, name


def test_check_draws_every_point_before_first_residual(monkeypatch):
    """The seeded reports depend on the rng order: the suite draws every x,
    then a y at each, on its sample stream before the first residual runs,
    and each check makes its own draws on its stream [seed, index]."""
    log = []
    sample = verify.sample_bundle_points

    def logged_sample(model, rng, n):
        log.append("sample")
        return sample(model, rng, n)

    def residual(geo, rng):
        log.append(geo.p)
        return [rng.uniform() for _ in geo.p.x]

    monkeypatch.setattr(verify, "sample_bundle_points", logged_sample)
    monkeypatch.setattr(verify, "REGISTRY", [("metric_symmetry", 1, residual), ("riemann_symmetries", 2, residual)])
    reports = verify.run_suite(MINK, seed=3, n_points=3)
    assert log[0] == "sample" and len(log) == 3 and log[1] is log[2]
    ref = sample(MINK, np.random.default_rng([3, verify.SAMPLE_STREAM]), 3)
    assert log[1].x.tobytes() == ref.x.tobytes() and log[1].y.tobytes() == ref.y.tobytes()
    for index, report in enumerate(reports):
        plain = np.random.default_rng([3, index])
        assert report.residuals == [plain.uniform() for _ in range(3)]


def test_reports_carry_conventions_and_seed():
    r = verify.run_suite(RN, seed=13, n_points=1, selection=["metric_symmetry"])[0]
    assert r.seed == 13
    assert r.conventions["signature"] == "+---"
    assert r.conventions["em_stress_sign"] == 1.0


@pytest.mark.parametrize("n", [1, 4])
def test_geometry_builds_per_suite(monkeypatch, n):
    """A suite builds one BundleGeometry and one BaseGeometry of order 3,
    whatever the number of points: every check reads them, at other fibers
    (``at_fiber``) or at alpha 0 (``at_alpha``, for alpha_zero_collapse)."""
    builds, bases = [], []
    init, base_init = BundleGeometry.__init__, BaseGeometry.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(kwargs.get("alpha"))
        init(self, *args, **kwargs)

    def counted_base_init(self, *args, **kwargs):
        bases.append(args[-1])
        base_init(self, *args, **kwargs)

    monkeypatch.setattr(BundleGeometry, "__init__", counted_init)
    monkeypatch.setattr(BaseGeometry, "__init__", counted_base_init)
    reports = verify.run_suite(RN, seed=42, n_points=n)
    assert all(r.passed for r in reports)
    assert builds == [None]
    assert bases == [3]


def test_selection_reads_the_suite_points():
    """Each check run alone gives the bytes of its row of the whole suite:
    the same points, geometry values and random draws."""
    suite = verify.run_suite(RN, seed=42, n_points=5)
    for report in suite:
        [alone] = verify.run_suite(RN, seed=42, n_points=5, selection=[report.check])
        assert np.array(alone.residuals).tobytes() == np.array(report.residuals).tobytes(), report.check


def test_homogeneity_ladder_reads_rounding():
    """Under y -> 1.5 y the ladder's floats round, so the check reads a
    defect above zero (y -> 2 y scaled them exactly and read 0.0) that
    passes its tolerance."""
    [report] = verify.run_suite(RN, seed=42, n_points=5, selection=["homogeneity_ladder"])
    assert report.max_residual > 0.0 and report.passed
