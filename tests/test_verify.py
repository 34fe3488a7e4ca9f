"""Suite orchestration: determinism, registry completeness, serialization."""

import numpy as np
import pytest

from tbgrav import verify
from tbgrav.bundle_geom import BundleGeometry
from tbgrav.errors import SingularEvaluationError
from tbgrav.jets import jet_values
from tbgrav.spacetime import catalog, metric_jet

RN = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
MINK = catalog("minkowski")


def test_minkowski_full_suite_passes_tightly():
    reports = verify.run_suite(MINK, seed=3, n_points=3)
    assert all(r.passed for r in reports)
    for r in reports:
        assert r.max_residual <= 1e-12


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


def test_selection_subsets_registry():
    reports = verify.run_suite(MINK, seed=0, n_points=1, selection=["fiber_ball_volume"])
    assert [r.check for r in reports] == ["fiber_ball_volume"]


def test_sampled_y_is_timelike():
    rng = np.random.default_rng(11)
    for x in verify.sample_points(RN, rng, 5):
        y = verify.sample_timelike(RN, rng, x)
        g = jet_values(metric_jet(RN, x, order=0))
        assert y @ g @ y > 0.1


def test_conservation_residual_values():
    assert np.max(np.abs(verify.conservation_residual(MINK, [0, 0, 0, 0]))) == 0.0
    assert np.max(np.abs(verify.conservation_residual(RN, [0.0, 5.0, 1.2, 0.5]))) <= 1e-7
    schw = catalog("schwarzschild", {"M": 1.0})
    assert np.max(np.abs(verify.conservation_residual(schw, [0.0, 10.0, 1.2, 0.5]))) <= 1e-7


def test_singular_points_recorded_not_fatal():
    calls = []

    def flaky(x):
        calls.append(x)
        if len(calls) % 2 == 0:
            raise SingularEvaluationError("boom", value=0.0)
        return 1e-12

    residuals, skipped, _ = verify._map_points(range(6), flaky)
    assert residuals == [1e-12] * 3
    assert skipped == 3


def test_skipped_point_fails_check(monkeypatch):
    def one_singular(model, rng, n):
        def residual(x):
            if x[0] == 0:
                raise SingularEvaluationError("boom", value=0.0)
            return 0.0

        return verify._map_points([[k] for k in range(n)], residual, "stub check")

    monkeypatch.setattr(verify, "REGISTRY", [("metric_symmetry", 1, one_singular)])
    (report,) = verify.run_suite(MINK, seed=0, n_points=5, selection=["metric_symmetry"])
    assert report.residuals == [0.0] * 4
    assert report.notes == "1 point(s) skipped: singular evaluation; stub check"
    assert report.passed is False


def test_reports_carry_conventions_and_seed():
    r = verify.run_suite(RN, seed=13, n_points=1, selection=["metric_symmetry"])[0]
    assert r.seed == 13
    assert r.conventions["signature"] == "+---"
    assert r.conventions["em_stress_sign"] == 1.0


@pytest.mark.parametrize(
    "check, per_point",
    [("alpha_zero_collapse", 1), ("fiber_derivs_agreement", 1), ("homogeneity_ladder", 2)],
)
def test_geometry_builds_per_point(monkeypatch, check, per_point):
    """One BundleGeometry per bundle point (two for the y -> 2y ladder)."""
    builds = []
    init = BundleGeometry.__init__

    def counted_init(self, *args, **kwargs):
        builds.append(check)
        init(self, *args, **kwargs)

    monkeypatch.setattr(BundleGeometry, "__init__", counted_init)
    n = 2
    [report] = verify.run_suite(RN, seed=42, n_points=n, selection=[check])
    assert report.passed
    assert len(builds) == per_point * n
