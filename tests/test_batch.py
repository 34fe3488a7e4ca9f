"""The point axis of the jet route: a batch of points gives every point the
bytes it has alone, and the verify suite's batches keep the per-point
residuals, skips, notes and random stream."""

from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from tbgrav import verify
from tbgrav.base_geom import BaseGeometry
from tbgrav.bundle_geom import BundleGeometry, BundlePoint
from tbgrav.errors import EngineError, SingularEvaluationError, UsageError
from tbgrav.jet_arrays import JetArray
from tbgrav.jets import Jet, jet_space
from tbgrav.spacetime import CATALOG_NAMES, catalog, load_model

PARAMS = {"uniform_field": {"E0": 0.1}, "schwarzschild": {"M": 1.0},
          "reissner_nordstrom": {"M": 1.0, "Q": 0.3}, "weak_field": {"M": 1.0}}
DENSE = Path(__file__).resolve().parents[1] / "tools" / "dense_model.json"
MODELS = [*CATALOG_NAMES, "dense"]
BASE_OBJECTS = ("g", "ginv", "a_pot", "gamma", "riemann", "ricci", "ricci_scalar", "faraday", "em_stress",
                "einstein", "einstein_maxwell")
BUNDLE_OBJECTS = tuple(name for name, value in vars(BundleGeometry).items() if isinstance(value, cached_property))


def _model(name):
    return load_model(DENSE.read_text()) if name == "dense" else catalog(name, PARAMS.get(name))


def _point_bytes(value, point=None):
    """The bytes of one point's object: a jet, jet array, float array or
    float, or a tuple of them; ``point`` picks a batch's point."""
    if isinstance(value, tuple):
        return [_point_bytes(v, point) for v in value]
    if isinstance(value, (Jet, JetArray)):
        arr = JetArray.stack(value)
        c = arr.c if point is None else arr.c[point]
        return arr.space.order, arr.space.nvars, c.shape, c.tobytes()
    v = np.asarray(value, dtype=float)
    v = v if point is None else v[point]
    return v.shape, v.tobytes()


@pytest.mark.parametrize("name", MODELS)
def test_batch_equals_single_point_geometries(name):
    """A batch of 5 points gives each point the bytes and shapes of its own
    geometry, on every cached base and bundle object (the dense model's zero
    masks differ from point to point)."""
    model = _model(name)
    points = verify.sample_bundle_points(model, np.random.default_rng(5), 5)
    batch = BundleGeometry(model, BundlePoint([p.x for p in points], [p.y for p in points]))
    singles = [BundleGeometry(model, p) for p in points]
    assert batch.points == 5 and all(geo.points is None for geo in singles)
    for attr in BUNDLE_OBJECTS:
        value = getattr(batch, attr)
        for k, geo in enumerate(singles):
            assert _point_bytes(value, k) == _point_bytes(getattr(geo, attr)), (attr, k)
    for attr in BASE_OBJECTS:
        value = getattr(batch.base, attr)
        for k, geo in enumerate(singles):
            assert _point_bytes(value, k) == _point_bytes(getattr(geo.base, attr)), (attr, k)


def test_single_point_keeps_its_shapes_and_types():
    """One point keeps no point axis: tensors are jet arrays of the symbol's
    shape, the scalar jets are ``Jet`` objects and the scalars floats."""
    model = _model("reissner_nordstrom")
    geo = BundleGeometry(model, BundlePoint([0.0, 5.0, 1.2, 0.3], [1.5, 0.1, 0.02, 0.03]))
    assert geo.tidal.shape == geo.tidal.c.shape[:-1] == (4, 4)
    assert geo.base.riemann.c.shape[:-1] == (4, 4, 4, 4)
    assert all(isinstance(getattr(geo, attr), Jet) for attr in ("norm2", "norm", "inv_norm", "b_trace2", "b_scalar"))
    assert all(type(getattr(geo, attr)) is float for attr in ("d_ricci_scalar", "f_squared", "div_term", "quad_term"))
    assert type(geo.base.ricci_scalar) is float


def test_batch_rejects_mismatched_points():
    with pytest.raises(UsageError):
        BundlePoint(np.zeros((3, 4)), np.zeros((2, 4)))
    with pytest.raises(UsageError):
        BaseGeometry(_model("minkowski"), np.zeros((2, 3)), 2).g


@pytest.mark.parametrize("nvars", (4, 8))
@pytest.mark.parametrize("order", range(5))
def test_compose_matches_jet_compose(order, nvars):
    """``JetArray.sqrt`` and ``reciprocal`` give ``Jet._compose``'s bytes,
    entry by entry and point by point, for dense jets and for jets with zero
    and -0.0 coefficients."""
    rng = np.random.default_rng(order * 10 + nvars)
    space = jet_space(order, nvars)
    c = rng.uniform(-1.0, 1.0, (3, 2, space.size))
    c[..., 0] = rng.uniform(0.5, 2.0, (3, 2))
    c[0, 1, 1:] = 0.0
    c[1, 0, 1::2] = -0.0
    arr = JetArray(space, c, 3)
    for got, want in ((arr.sqrt(), Jet.sqrt), (arr.reciprocal(), Jet._reciprocal)):
        assert got.points == 3 and got.shape == (2,)
        for p in range(3):
            for i in range(2):
                assert got.c[p, i].tobytes() == want(Jet(space, c[p, i].copy())).c.tobytes()


def test_compose_raises_where_the_jet_does():
    space = jet_space(2, 4)
    c = np.zeros((2, space.size))
    c[:, 0] = [1.0, -1.0]
    with pytest.raises(SingularEvaluationError):
        JetArray(space, c, 2).sqrt()
    c[1, 0] = 0.0
    with pytest.raises(SingularEvaluationError):
        JetArray(space, c, 2).reciprocal()


def _per_point_check(residual, sample):
    """The check the suite ran before batches: one residual per point."""

    def check(model, rng, n):
        residuals, skipped = [], 0
        for point in sample(model, rng, n):
            try:
                residuals.append(float(residual(model, point, rng)))
            except SingularEvaluationError:
                skipped += 1
        return residuals, skipped, "notes"

    return check


def test_batch_with_a_singular_point_redoes_it_point_by_point():
    """A batch holding one singular point gives exactly the residuals, skip
    count, notes and later random draws of the per-point loop, with draws
    inside the residual made before the point fails."""
    bad = 2

    def residual(model, x, rng):
        draw = rng.uniform()
        if x[0] == bad:
            raise SingularEvaluationError("singular", value=0.0)
        return x[0] + draw + rng.uniform()

    def batch(model, xs, rng):
        draws = []
        for x in xs:
            draws.append(rng.uniform())
            if x[0] == bad:
                raise SingularEvaluationError("singular", value=0.0)
            draws.append(rng.uniform())
        return [x[0] + a + b for x, a, b in zip(xs, draws[0::2], draws[1::2])]

    def sample(model, rng, n):
        rng.uniform(size=n)
        return [np.array([float(k), 0.0, 0.0, 0.0]) for k in range(n)]

    outcomes = []
    for check in (verify._check(batch, sample, "notes"), _per_point_check(residual, sample)):
        rng = np.random.default_rng(9)
        outcomes.append((check(_model("minkowski"), rng, 5), rng.uniform(size=3).tobytes()))
    assert outcomes[0] == outcomes[1]
    (residuals, skipped, notes), _ = outcomes[0]
    assert len(residuals) == 4 and skipped == 1 and notes == "notes"


@pytest.mark.parametrize("residual", ["_riemann_symmetries", "_contracted_bianchi", "_quad_y_independent"])
def test_registry_batch_with_a_singular_point_matches_per_point_runs(residual):
    """On the registry's own residuals: a batch with a point outside the
    chart gives the residuals, skip count and later random draws of the
    same points evaluated one at a time (``_quad_y_independent`` draws three
    fiber vectors per point)."""
    model = _model("schwarzschild")
    fn = getattr(verify, residual)

    def with_singular(model, rng, n):
        points = verify.sample_points(model, rng, n)
        points[1] = points[1].copy()
        points[1][1] = 2.0  # on the horizon: outside the chart
        return points

    rng = np.random.default_rng(4)
    got = verify._check(fn, with_singular)(model, rng, 4), rng.uniform(size=3).tobytes()
    rng = np.random.default_rng(4)
    residuals, skipped = [], 0
    for x in with_singular(model, rng, 4):
        try:
            residuals += [float(r) for r in fn(model, x[None], rng)]
        except EngineError:
            skipped += 1
    assert got == (([float(r) for r in residuals], skipped, ""), rng.uniform(size=3).tobytes())
    assert skipped == 1 and len(residuals) == 3


def test_batched_arithmetic_broadcasts_each_point_as_alone():
    """Sums, products and quotients of a batch with an unbatched operand of
    another shape give each point the bytes of the unbatched operation."""
    rng = np.random.default_rng(3)
    space = jet_space(2, 3)
    batch = JetArray(space, rng.uniform(0.5, 2.0, (3, space.size)), 3)  # one entry per point
    vector = JetArray(space, rng.uniform(-1.0, 1.0, (4, space.size)))
    for got, op in ((batch + vector, lambda p: JetArray(space, batch.c[p]) + vector),
                    (vector - batch, lambda p: vector - JetArray(space, batch.c[p])),
                    (vector * batch, lambda p: vector * JetArray(space, batch.c[p])),
                    (vector / batch, lambda p: vector / JetArray(space, batch.c[p]))):
        assert got.points == 3 and got.shape == (4,)
        for p in range(3):
            assert got.c[p].tobytes() == op(p).c.tobytes()
