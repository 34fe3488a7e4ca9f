"""Catalog models, JSON ingestion round trips, jet-valued metric evaluation."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from tbgrav.errors import ChartError, ConfigError, EngineError, ModelError, SingularEvaluationError
from tbgrav.exprlang import _KernelWriter, evaluate, parse
from tbgrav.jet_arrays import concat
from tbgrav.jets import MAX_ORDER, jet_space
from tbgrav.spacetime import (
    CATALOG_NAMES,
    alpha_star,
    catalog,
    load_model,
    metric_jet,
    metric_values,
    potential_jet,
    print_model,
    signature_signs,
)

SCHW_POINT = [0.0, 10.0, math.pi / 2, 0.3]
RN_POINT = [0.0, 5.0, math.pi / 2, 0.3]


def test_schwarzschild_lapse():
    m = catalog("schwarzschild", {"M": 1.0})
    g = metric_jet(m, SCHW_POINT, order=0)
    assert g[0, 0].values[0] == pytest.approx(0.8)


def test_minkowski_everywhere():
    m = catalog("minkowski")
    for x in ([0, 0, 0, 0], [3, -2, 7, 0.5]):
        assert np.allclose(metric_values(m, x), np.diag([1.0, -1.0, -1.0, -1.0]))


def test_rn_potential_value():
    m = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    a = potential_jet(m, RN_POINT, order=1).flat  # the one point's jets
    assert a[0].value == pytest.approx(0.06)
    assert a[0].derivative((0, 1, 0, 0)) == pytest.approx(-0.012)


def test_catalog_errors():
    with pytest.raises(ConfigError):
        catalog("kerr")
    with pytest.raises(ConfigError):
        catalog("schwarzschild", {"M": -1.0})
    with pytest.raises(ConfigError):
        catalog("schwarzschild", {})
    with pytest.raises(ConfigError):
        catalog("minkowski", {"M": 1.0})
    with pytest.raises(ConfigError):
        catalog("reissner_nordstrom", {"M": 1.0, "Q": 2.0})
    for name, params in (("schwarzschild", {"M": math.nan}), ("schwarzschild", {"M": math.inf}),
                         ("reissner_nordstrom", {"M": 1.0, "Q": math.nan}), ("uniform_field", {"E0": -math.inf})):
        with pytest.raises(ConfigError, match="must be finite"):
            catalog(name, params)


def test_catalog_refuses_an_int_too_large_for_a_float():
    with pytest.raises(ConfigError, match="M must be finite"):
        catalog("schwarzschild", {"M": 10**400})


def test_load_model_refuses_an_int_too_large_for_a_float():
    for change in ({"c": 10**400}, {"alpha": -(10**400)}, {"params": {"M": 10**400}}):
        with pytest.raises(ModelError, match="must be finite"):
            load_model(json.dumps(dict(SCHW_DOC, **change)))


def test_metric_jet_constant_for_minkowski():
    m = catalog("minkowski")
    g = metric_jet(m, [0.1, 0.2, 0.3, 0.4], order=2)
    for i in range(4):
        for j in range(4):
            assert not g[i, j].c[1:].any()


def test_schwarzschild_metric_radial_derivative():
    m = catalog("schwarzschild", {"M": 1.0})
    g = metric_jet(m, SCHW_POINT, order=1)
    # d g_00 / dr = 2M/r^2
    assert g[0, 0].flat[0].derivative((0, 1, 0, 0)) == pytest.approx(0.02)


def test_signature():
    for m, x in (
        (catalog("minkowski"), [0, 0, 0, 0]),
        (catalog("schwarzschild", {"M": 1.0}), SCHW_POINT),
        (catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3}), RN_POINT),
        (catalog("weak_field", {"M": 1.0}), [0.0, 4.0, 3.0, 1.0]),
    ):
        g = metric_values(m, x)
        assert signature_signs(g) == (1, 3)
        assert np.linalg.det(g) < 0


def test_metric_symmetry_shared_storage():
    m = catalog("schwarzschild", {"M": 1.0})
    g = metric_jet(m, SCHW_POINT, order=2)
    for i in range(4):
        for j in range(4):
            assert g[i, j].c.tobytes() == g[j, i].c.tobytes()


def test_chart_guard():
    m = catalog("schwarzschild", {"M": 1.0})
    with pytest.raises(ChartError):
        metric_jet(m, [0.0, 1.5, math.pi / 2, 0.0], order=0)
    with pytest.raises(ChartError):
        metric_jet(m, [0.0, 10.0, 0.0, 0.0], order=0)
    m2 = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    with pytest.raises(ChartError):
        metric_jet(m2, [0.0, 1.9, math.pi / 2, 0.0], order=0)  # r+ ~ 1.954


SCHW_DOC = {
    "name": "schw-file",
    "coords": ["t", "r", "theta", "phi"],
    "params": {"M": 1.0},
    "metric": [
        ["1 - 2*M/r", "0", "0", "0"],
        ["0", "-1/(1 - 2*M/r)", "0", "0"],
        ["0", "0", "-r^2", "0"],
        ["0", "0", "0", "-r^2*sin(theta)^2"],
    ],
    "potential": ["0", "0", "0", "0"],
    "alpha": "star",
    "c": 1.0,
    "k": 1.0,
    "chart_guard": "(r - 2*M)*sin(theta)",
}


def test_load_model_matches_catalog():
    loaded = load_model(json.dumps(SCHW_DOC))
    cat = catalog("schwarzschild", {"M": 1.0})
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = [rng.uniform(-1, 1), rng.uniform(4, 20), rng.uniform(0.4, 2.7), rng.uniform(0, 6)]
        ga, gb = metric_values(loaded, x), metric_values(cat, x)
        assert np.allclose(ga, gb, rtol=1e-12, atol=1e-15)


def test_alpha_star_value():
    doc = dict(SCHW_DOC, alpha="star", c=1.0, k=1.0)
    m = load_model(json.dumps(doc))
    assert m.alpha == pytest.approx(math.sqrt(2.0 / 3.0), abs=1e-7)
    assert alpha_star(1.0, 1.0) == pytest.approx(0.8164966, abs=1e-7)


@pytest.mark.parametrize("change,match", [
    ({"c": 0}, "c must be positive"), ({"c": -2.0}, "c must be positive"), ({"k": -1}, "k must be positive"),
    ({"k": 0.0}, "k must be positive"), ({"c": math.inf}, "c must be finite"), ({"k": math.nan}, "k must be finite"),
    ({"alpha": math.nan}, "alpha must be finite"), ({"alpha": -math.inf}, "alpha must be finite"),
    ({"params": {"M": math.nan}}, "M must be finite"), ({"c": 0, "alpha": 0.5}, "c must be positive"),
])
def test_load_model_refuses_bad_constants(change, match):
    """A model document's parameters, alpha, c and k must be finite, and c
    and k positive (JSON as Python writes it: NaN and Infinity literals)."""
    with pytest.raises(ModelError, match=match):
        load_model(json.dumps(dict(SCHW_DOC, **change)))


@pytest.mark.parametrize("change,name", [
    ({"c": "abc"}, "c"), ({"c": True}, "c"), ({"k": None}, "k"), ({"k": [1.0]}, "k"), ({"alpha": False}, "alpha"),
    ({"params": {"M": True}}, "M"),
])
def test_load_model_refuses_constants_that_are_not_numbers(change, name):
    """c, k, alpha and the parameters must be numbers: a string, a bool,
    null or a list is refused, not read as a number."""
    with pytest.raises(ModelError, match=f"{name} must be a number"):
        load_model(json.dumps(dict(SCHW_DOC, **change)))


def test_empty_potential_defaults_to_zero():
    doc = {k: v for k, v in SCHW_DOC.items() if k != "potential"}
    m = load_model(json.dumps(doc))
    a = potential_jet(m, SCHW_POINT, order=1).flat  # the one point's jets
    assert all(a[i].value == 0.0 for i in range(4))


def test_unknown_keys_rejected():
    doc = dict(SCHW_DOC, extra_key=1)
    with pytest.raises(ModelError, match="extra_key"):
        load_model(json.dumps(doc))


def test_asymmetric_metric_rejected():
    doc = json.loads(json.dumps(SCHW_DOC))
    doc["metric"][1][0] = "r"
    with pytest.raises(ModelError, match="symmetric"):
        load_model(json.dumps(doc))


def test_lower_triangle_filled_from_upper():
    doc = json.loads(json.dumps(SCHW_DOC))
    doc["metric"][0][1] = "M/r^3"
    doc["metric"][1][0] = ""
    m = load_model(json.dumps(doc))
    g = metric_values(m, SCHW_POINT, check=False)
    assert g[1, 0] == g[0, 1] == pytest.approx(1e-3)


def test_unbound_symbol_rejected():
    doc = json.loads(json.dumps(SCHW_DOC))
    doc["metric"][2][2] = "-r^2*omega"
    with pytest.raises(ModelError, match="omega"):
        load_model(json.dumps(doc))


def test_print_load_round_trip():
    m = load_model(json.dumps(SCHW_DOC))
    again = load_model(print_model(m))
    rng = np.random.default_rng(11)
    for _ in range(3):
        x = [0.0, rng.uniform(4, 20), rng.uniform(0.4, 2.7), rng.uniform(0, 6)]
        assert np.allclose(metric_values(m, x), metric_values(again, x), rtol=1e-15, atol=0)
    assert again.alpha == m.alpha and again.alpha_is_star


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_catalog_round_trip_bit_for_bit(name):
    """Every catalog model printed and loaded back evaluates with the same
    bits as the original: its metric and potential tapes' values and order-2
    jets at a chart point, its document text and its coupling."""
    m = {model.name: model for model in _tape_models()}[name]
    again = load_model(print_model(m))
    x = TAPE_POINTS[name]
    assert print_model(again) == print_model(m)
    for tape, tape_again in ((m.metric_tape, again.metric_tape), (m.potential_tape, again.potential_tape)):
        assert np.array(tape_again.values(x)).tobytes() == np.array(tape.values(x)).tobytes()
        assert tape_again.jets(x, 2).c.tobytes() == tape.jets(x, 2).c.tobytes()
    assert (again.alpha, again.alpha_is_star) == (m.alpha, m.alpha_is_star)


def test_catalog_stores_parameters_as_floats():
    m = catalog("reissner_nordstrom", {"M": 1, "Q": np.int64(0)})
    assert [type(v) for v in m.params.values()] == [float, float]


def test_uniform_field_potential_gradient():
    m = catalog("uniform_field", {"E0": 0.1})
    a = potential_jet(m, [0.0, 2.0, 0.0, 0.0], order=1).flat  # the one point's jets
    assert a[0].value == pytest.approx(-0.2)
    assert a[0].derivative((0, 1, 0, 0)) == pytest.approx(-0.1)


def test_degenerate_metric_detected():
    doc = json.loads(json.dumps(SCHW_DOC))
    doc["metric"][0][0] = "0"
    doc["chart_guard"] = "1"
    m = load_model(json.dumps(doc))
    with pytest.raises(SingularEvaluationError):
        metric_jet(m, SCHW_POINT, order=0)


# -- compiled tapes against the tree walk -------------------------------------------

# sqrt, sin, cos, exp, ln, abs, pi, unary minus, a parameter exponent, a
# non-constant exponent, a shared subexpression and a folded -0.0
TAPE_DOC = {
    "name": "tape-probe",
    "coords": ["t", "r", "theta", "phi"],
    "params": {"M": 1.0, "n": 3.0, "a": 0.5},
    "metric": [
        ["1 - 2*M/r + a*exp(-r/(10*M))*abs(cos(theta))/r^n", "-theta - 1", "-(2*pi - pi*2)", "a*M*sin(theta)^2/r"],
        ["", "-1/(1 - 2*M/r) - sqrt(r)*a^2/r^theta", "0*r", "-(a - a) - 0*r"],
        ["", "", "-r^2*(1 + a*ln(t + 1)/r^2)", "r/(10*M)"],
        ["", "", "", "-r^2*sin(theta)^2 + (1 - 2*M/r)*0.01"],
    ],
    "potential": ["M/r - a*cos(theta)^n", "-(M - M)*r", "a*abs(phi)", "(r/M)^(a*pi)"],
    "chart_guard": "(r - 2*M)*sin(theta)",
}
# signed zeros that only order 0 shows: sin(-0.0) = -0.0 while a jet of
# order >= 1 returns 0.0 + sin(-0.0), and a power of -0.0 is a product
# 0.0 + a*b, never -0.0
ZERO_SIGN_DOC = {
    "name": "zero-signs",
    "coords": ["t", "r", "theta", "phi"],
    "params": {"a": 0.5},
    "metric": [
        ["1", "sin(-(a - a))", "(-(a - a))^3", "sin(-(t - t))"],
        ["", "-1", "(-(t - t))^3", "-(a - a)"],
        ["", "", "-1", "0"],
        ["", "", "", "-1"],
    ],
    "potential": ["sin(-(r - r))", "(-(r - r))^2", "0", "0"],
}
# every branch of the power rule: integer exponents of either sign (unrolled
# by squaring), a zero exponent, a non-integer one, and exponents that depend
# on a coordinate, with derivatives that vanish (t - t) or not (2*t)
POWER_DOC = {
    "name": "powers",
    "coords": ["t", "r", "theta", "phi"],
    "params": {},
    "metric": [
        ["1 + r^-2", "r^0", "0.01*theta^-3", "(r - r)^2"],
        ["", "-1 - r^(t - t)", "0.01*sin(theta)^-1", "0.001*abs(r - 7)^3"],
        ["", "", "-r^2 + r^0.5", "0*exp(-r)^-2"],
        ["", "", "", "-1 - (theta*r)^-1"],
    ],
    "potential": ["r^(2*t)", "theta^(phi - phi)", "(-r)^2", "r^-1 + 0^0"],
}
TAPE_POINTS = {
    "minkowski": [0.1, 0.2, -0.3, 0.4],
    "uniform_field": [0.0, 2.0, 0.5, 0.1],
    "schwarzschild": [0.1, 7.0, 1.1, 0.4],
    "reissner_nordstrom": [0.0, 5.0, 1.2, 0.3],
    "weak_field": [0.0, 4.0, 3.0, 1.0],
    "tape-probe": [0.2, 6.0, 1.1, 0.7],
    "zero-signs": [0.2, 6.0, 1.1, 0.7],
    "powers": [0.2, 6.0, 1.1, 0.7],
    "dense": [0.1, 0.3, -0.2, 0.4],
}
# division by r = 0, sqrt(0) (weak_field), ln(-1) and abs(0) (tape-probe)
SINGULAR_POINTS = [[0.0, 0.0, 1.1, 0.4], [0.0, 0.0, 0.0, 0.0], [-2.0, 6.0, 1.1, 0.7], [0.0, 6.0, 1.1, 0.0]]


def _tape_models():
    params = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0},
              "reissner_nordstrom": {"M": 1.0, "Q": 0.3}, "weak_field": {"M": 1.0}}
    docs = [load_model(json.dumps(doc)) for doc in (TAPE_DOC, ZERO_SIGN_DOC, POWER_DOC)]
    return [catalog(name, params.get(name)) for name in CATALOG_NAMES] + docs


def _tree_jets(model, x, order, nvars):
    """The tree walk's root jets at the point x."""
    env = model.coord_env(x, order, nvars)
    upper = [model.g_exprs[i][j] for i in range(4) for j in range(i, 4)]
    return [evaluate(e, env).flat[0] for e in upper + model.a_exprs]


def _tape_jets(model, x, order, nvars):
    """The metric and potential tapes' 4-variable root jets, lifted to
    ``nvars`` variables as ``BundleGeometry`` lifts its base fields, at
    budget ``_lifted_budget``."""
    roots, _ = concat(model.metric_tape.jets(x, order), model.potential_tape.jets(x, order))
    return (roots if nvars == 4 else roots.lift(jet_space(_lifted_budget(order), nvars))).flat


def _lifted_budget(order):
    """The joint-space budget of a field of total order k's x monomials: 2k (x weighs 2), capped at 4."""
    return min(2 * order, MAX_ORDER)


def _kernel(model, order):
    """One float kernel ``x -> coefficients`` that runs the metric and then the
    potential tape, sharing one writer's ``emit`` memo as the geometric
    kernels do, and returns every coefficient of every root."""
    w = _KernelWriter(order)
    roots = w.run(model.metric_tape) + w.run(model.potential_tape)
    return w.compile("x", [p for c in roots for p in c], f"<test kernel, order {order}>")


def _coefficient_bytes(jets):
    return np.array([jet.c for jet in jets]).tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except EngineError as err:
        return type(err), str(err)


@pytest.mark.parametrize("model", _tape_models(), ids=lambda m: m.name)
@pytest.mark.parametrize("order", range(5))
@pytest.mark.parametrize("nvars", [4, 8], ids=["v4", "v8"])
def test_tape_matches_tree_bit_for_bit(model, order, nvars):
    """In 4 variables the tapes give the tree walk's bytes.  Lifted to 8, at
    the budget of their x monomials (2 x order, capped at 4; x weighs 2),
    they give the coefficients of the tree walk at that budget, compared
    with ``np.array_equal``: the 8-variable walk leaves -0.0 in some
    coefficients of the added variables, where the lift writes +0.0."""
    x = TAPE_POINTS[model.name]
    budget = order if nvars == 4 else _lifted_budget(order)
    tape, tree = _tape_jets(model, x, order, nvars), _tree_jets(model, x, budget, nvars)
    for got, want in zip(tape, tree, strict=True):
        assert (got.order, got.nvars) == (want.order, want.nvars)
        assert np.array_equal(got.c, want.c)
        if nvars == 4:
            assert got.c.tobytes() == want.c.tobytes()  # the sign of every zero as well
    if order == 0:
        upper, g = np.triu_indices(4), np.empty((4, 4))
        g[upper] = g.T[upper] = [jet.value for jet in tree[:10]]
        assert metric_values(model, x, check=False).tobytes() == g.tobytes()
    kernel = _kernel(model, order) if nvars == 4 and order <= 2 else None  # the float program of both tapes
    if kernel:
        assert np.array(kernel(x)).tobytes() == _coefficient_bytes(tree)
    for x_bad in SINGULAR_POINTS:
        want = _outcome(_tree_jets, model, x_bad, budget, nvars)
        got = _outcome(_tape_jets, model, x_bad, order, nvars)
        if isinstance(want, tuple):
            assert got == want
        elif nvars == 4:
            assert all(a.c.tobytes() == b.c.tobytes() for a, b in zip(got, want, strict=True))
        else:
            assert all(np.array_equal(a.c, b.c) for a, b in zip(got, want, strict=True))
        if kernel:
            got = _outcome(kernel, x_bad)
            if isinstance(want, tuple):
                assert got == want
            else:
                assert np.array(got).tobytes() == _coefficient_bytes(want)


# Two batches of three points about a model's tape point: r (or x) alone moves,
# so a coordinate-dependent exponent such as r^(2*t) or r^theta is one row
# for the whole batch, and then every coordinate moves, so that its rows
# differ from point to point.
BATCH_STEPS = (np.array([[0.0, 0.0, 0.0, 0.0], [0.0, 0.25, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]),
               np.array([[0.0, 0.0, 0.0, 0.0], [0.1, 0.25, 0.05, 0.2], [0.2, 0.5, 0.1, 0.4]]))
DENSE_DOC = Path(__file__).resolve().parents[1] / "tools" / "dense_model.json"


def _batch_models():
    return _tape_models() + [load_model(DENSE_DOC.read_text())]


def _root_rows(model, x, order):
    """The metric and potential tapes' roots at a batch (a point being a
    batch of one), as one coefficient array, points first."""
    metric, potential = model.metric_tape.jets(x, order), model.potential_tape.jets(x, order)
    assert metric.points == potential.points == len(np.reshape(x, (-1, 4)))
    return np.concatenate([metric.c, potential.c], axis=-2)


def _tree_rows(model, x, order):
    """The tree walk's roots at a point or a batch, as ``_root_rows`` gives them."""
    env = model.coord_env(x, order)
    upper = [model.g_exprs[i][j] for i in range(4) for j in range(i, 4)]
    return np.stack([evaluate(e, env).c for e in upper + model.a_exprs], axis=-2)


@pytest.mark.parametrize("model", _batch_models(), ids=lambda m: m.name)
@pytest.mark.parametrize("order", range(5))
def test_tape_batch_gives_each_point_its_bytes(model, order):
    """``Tape.jets`` on a (3, 4) batch runs each instruction once and gives
    each point the bytes of a one-point run and of the tree walk there;
    ``evaluate`` on a batched ``coord_env`` gives the same bytes."""
    for steps in BATCH_STEPS:
        xs = np.array(TAPE_POINTS[model.name]) + steps
        batch = _root_rows(model, xs, order)
        assert batch.tobytes() == _tree_rows(model, xs, order).tobytes()
        for p, x in enumerate(xs):
            assert batch[p].tobytes() == _root_rows(model, x, order).tobytes()
            assert batch[p].tobytes() == _tree_rows(model, x, order).tobytes()


@pytest.mark.parametrize("model", _batch_models(), ids=lambda m: m.name)
def test_batch_with_a_singular_point_raises_as_the_point_alone(model):
    """A batch holding one singular point raises the error that point raises
    alone (or gives its bytes where it raises none), on the tapes and on the
    tree walk."""
    good = np.array(TAPE_POINTS[model.name]) + BATCH_STEPS[1][1:]
    for order in (0, 2):
        for x_bad in SINGULAR_POINTS:
            xs = np.array([good[0], x_bad, good[1]])
            for run in (_root_rows, _tree_rows):
                alone, batch = _outcome(run, model, x_bad, order), _outcome(run, model, xs, order)
                if isinstance(alone, tuple):
                    assert batch == alone
                else:
                    assert batch[1].tobytes() == alone.tobytes()


@pytest.mark.parametrize("order", range(5))
def test_every_function_evaluates_on_a_batch(order):
    """Each operation of the grammar, a constant and a coordinate-dependent
    exponent among them, evaluates on a batched ``coord_env`` with each
    point's bytes."""
    model = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    xs = np.array(TAPE_POINTS[model.name]) + BATCH_STEPS[1]
    sources = ["-r", "r + theta", "r - theta", "r*theta", "r/theta", "sqrt(r)", "sin(theta)", "cos(theta)",
               "exp(theta)", "ln(r)", "abs(t - 0.05)", "r^2", "r^-3", "r^0.5", "r^theta", "r^(t - t)", "M*Q"]
    env = model.coord_env(xs, order)
    for source in sources:
        got = evaluate(parse(source), env)
        assert got.points == 3 and got.shape == (), source
        for p, x in enumerate(xs):
            assert got.c[p].tobytes() == evaluate(parse(source), model.coord_env(x, order)).c.tobytes(), source


def test_coordinate_dependent_power_keeps_its_value_at_every_order():
    """A_t = r^(2t) of the ``powers`` document, whose exponent's jet has
    derivatives, holds at orders 1-4 the value bits it holds at order 0: on
    ``Tape.values``, on ``Tape.jets`` and on the tree walk over a batched
    ``coord_env``, and on the float kernels of orders 1 and 2.  At
    (t, r) = (-2, 6), exp(2t ln r) is one bit off r^(2t)."""
    model = load_model(json.dumps(POWER_DOC))
    xs = np.array([[-2.0, 6.0, 1.1, 0.7], [0.3, 6.0, 1.1, 0.7]])
    want = np.array([model.potential_tape.values(x)[0] for x in xs])
    for order in range(MAX_ORDER + 1):
        assert model.potential_tape.jets(xs, order).values[:, 0].tobytes() == want.tobytes()
        assert evaluate(model.a_exprs[0], model.coord_env(xs, order)).values.tobytes() == want.tobytes()
    for order in (1, 2):
        size = jet_space(order, 4).size
        got = [_kernel(model, order)(x)[10 * size] for x in xs]  # A_t follows the metric's ten roots
        assert np.array(got).tobytes() == want.tobytes()


def test_tape_singular_points_raise():
    probe, weak = load_model(json.dumps(TAPE_DOC)), catalog("weak_field", {"M": 1.0})
    for model, x, reason in zip((probe, weak, probe, probe), SINGULAR_POINTS, ("division", "sqrt", "ln", "abs")):
        for order in (0, 2):
            with pytest.raises(SingularEvaluationError, match=reason):
                _tape_jets(model, x, order, 4)
            with pytest.raises(SingularEvaluationError, match=reason):
                _kernel(model, order)(x)


def test_chart_guard_text_matches_tree():
    schw = catalog("schwarzschild", {"M": 1.0})
    rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
    for model, x in ((schw, [0.0, 1.5, math.pi / 2, 0.0]), (schw, [0.0, 10.0, 0.0, 0.0]),
                     (rn, [0.0, 1.9, math.pi / 2, 0.0])):
        guard = evaluate(model.chart_guard, model.coord_env(x, order=0)).flat[0].value
        with pytest.raises(ChartError) as err:
            model.check_chart(x)
        assert str(err.value) == f"point {x} outside chart of {model.name!r} (guard value {guard})"


def test_potential_tape_folds_zero_components():
    assert catalog("schwarzschild", {"M": 1.0}).potential_tape.constants == (0.0, 0.0, 0.0, 0.0)
    assert catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3}).potential_tape.constants == (None, 0.0, 0.0, 0.0)
    probe = load_model(json.dumps(TAPE_DOC))
    assert probe.potential_tape.constants[1] is None  # -(M - M)*r depends on r, though it is 0
