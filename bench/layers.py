"""Per-layer metrics of the traced run: (name, unit, better, value from tracer and extras).

Times are totals over the traced pass (a fixed number of cycles per workload),
``s_per_call`` is inclusive time per call, ``self_s`` excludes wrapped
callees, and ``calls``/``count`` are exact for a seed.  A layer the workload
does not reach reports 0.  ``METRICS.md`` maps each metric to the end-to-end
figure it should move.
"""

VERIFY_CHECKS = (
    "metric_symmetry", "riemann_symmetries", "contracted_bianchi", "maxwell_homogeneous",
    "maxwell_current", "stress_trace_free", "homogeneity_ladder", "fiber_derivs_agreement",
    "tidal_reconstruction", "alpha_zero_collapse", "theorem1_quad_y_independent",
    "theorem1_quad_closed_form", "theorem1_residual", "gen_einstein_comparison",
    "det_fiber_metric", "fiber_ball_volume", "divergence_lift", "conservation",
)


def _calls(label):
    return lambda tr, ex: tr.calls(label)


def _self(label):
    return lambda tr, ex: tr.self_s(label)


def _per_call(label):
    return lambda tr, ex: tr.s_per_call(label)


def _extra(name):
    return lambda tr, ex: ex.get(name, 0)


def _ratio(num, den):
    return num / den if den else 0.0


PER_LAYER = [
    ("exprlang.evaluate.calls", "count", "lower", _calls("exprlang.evaluate")),
    ("exprlang.evaluate.self_s", "s", "lower", _self("exprlang.evaluate")),
    ("spacetime.metric_jet.o0.s_per_call", "s", "lower", _per_call("spacetime.metric_jet.o0")),
    ("spacetime.metric_jet.o1.s_per_call", "s", "lower", _per_call("spacetime.metric_jet.o1")),
    ("spacetime.metric_jet.calls", "count", "lower", _calls("spacetime.metric_jet")),
    ("spacetime.potential_jet.calls", "count", "lower", _calls("spacetime.potential_jet")),
    ("spacetime.potential_jet.self_s", "s", "lower", _self("spacetime.potential_jet")),
    ("spacetime.check_chart.calls", "count", "lower", _calls("spacetime.check_chart")),
    ("spacetime.check_chart.s_per_call", "s", "lower", _per_call("spacetime.check_chart")),
    ("jets.mul.calls", "count", "lower", _calls("jets.mul")),
    ("jets.add.calls", "count", "lower", _calls("jets.add")),
    ("jets.truncate.calls", "count", "lower", _calls("jets.truncate")),
    ("jets.coerce_mixed.calls", "count", "lower", _calls("jets.coerce_mixed")),
    ("jets.elementary.calls", "count", "lower", _calls("jets.elementary")),
    ("jets.partial.calls", "count", "lower", _calls("jets.partial")),
    ("jets.self_s", "s", "lower", _self("jets")),
    ("jets.truncate_per_mul", "1", "lower",
     lambda tr, ex: _ratio(tr.calls("jets.truncate"), tr.calls("jets.mul"))),
    ("jets.mul.o4v8.s_per_call", "s", "lower", _per_call("jets.mul.o4v8")),
    ("base_geom.christoffel_jets.calls", "count", "lower", _calls("base_geom.christoffel_jets")),
    ("base_geom.christoffel_jets.self_s", "s", "lower", _self("base_geom.christoffel_jets")),
    ("base_geom.riemann_jets.self_s", "s", "lower", _self("base_geom.riemann_jets")),
    ("base_geom.invert_jet_matrix.self_s", "s", "lower", _self("base_geom.invert_jet_matrix")),
    ("base_geom.covariant_divergence.self_s", "s", "lower", _self("base_geom.covariant_divergence")),
    ("base_geom.maxwell_residuals.s_per_call", "s", "lower", _per_call("base_geom.maxwell_residuals")),
    ("base_geom.classical_lorentz_rhs.s_per_call", "s", "lower",
     _per_call("base_geom.classical_lorentz_rhs")),
    ("bundle_geom.geometry.o2.count", "count", "lower", _calls("bundle_geom.geometry.o2")),
    ("bundle_geom.geometry.o3.count", "count", "lower", _calls("bundle_geom.geometry.o3")),
    ("bundle_geom.geometry.o4.count", "count", "lower", _calls("bundle_geom.geometry.o4")),
    ("bundle_geom.n_conn.self_s", "s", "lower", _self("bundle_geom.n_conn")),
    ("bundle_geom.tidal.self_s", "s", "lower", _self("bundle_geom.tidal")),
    ("bundle_geom.d_ricci.self_s", "s", "lower", _self("bundle_geom.d_ricci")),
    ("bundle_geom.base_ricci_scalar.self_s", "s", "lower", _self("bundle_geom.base_ricci_scalar")),
    ("bundle_geom.b_scalar.self_s", "s", "lower", _self("bundle_geom.b_scalar")),
    ("bundle_geom.div_term.self_s", "s", "lower", _self("bundle_geom.div_term")),
    ("bundle_geom.d_curvature.s_per_call", "s", "lower", _per_call("bundle_geom.d_curvature")),
    ("bundle_geom.ricci_decomposition.s_per_call", "s", "lower",
     _per_call("bundle_geom.ricci_decomposition")),
    ("bundle_geom.generalized_einstein.s_per_call", "s", "lower",
     _per_call("bundle_geom.generalized_einstein")),
    ("tm_metric.fiber_integral.calls", "count", "lower", _calls("tm_metric.fiber_integral")),
    ("tm_metric.fiber_integral.self_s", "s", "lower", _self("tm_metric.fiber_integral")),
    ("tm_metric.horizontal_divergence.self_s", "s", "lower", _self("tm_metric.horizontal_divergence")),
    ("dynamics.rhs_calls", "count", "lower", _calls("dynamics.rhs")),
    ("dynamics.steps_accepted", "count", "lower", lambda tr, ex: tr.steps["accepted"]),
    ("dynamics.steps_rejected", "count", "lower",
     lambda tr, ex: tr.steps["attempted"] - tr.steps["accepted"]),
    ("dynamics.accept_ratio", "1", "higher",
     lambda tr, ex: _ratio(tr.steps["accepted"], tr.steps["attempted"])),
    ("dynamics.worldline_rhs.s_per_call", "s", "lower", _per_call("dynamics.worldline_rhs")),
    ("dynamics.connection_and_tidal.s_per_call", "s", "lower", _per_call("dynamics.connection_and_tidal")),
    ("dynamics.integrator.self_s", "s", "lower", _self("dynamics.integrator")),
    ("dynamics.sample.calls", "count", "lower", _calls("dynamics.sample")),
    *[(f"verify.{name}.s", "s", "lower", (lambda label: lambda tr, ex: tr.total_s(label))(f"verify.{name}"))
      for name in VERIFY_CHECKS],
    ("verify.points_evaluated", "count", "higher", _extra("verify.evaluated")),
    ("verify.points_skipped", "count", "lower", _extra("verify.skipped")),
    ("verify.checks_failed", "count", "lower", _extra("verify.checks_failed")),
    ("trace.overhead", "1", "lower", _extra("trace.overhead")),
]
