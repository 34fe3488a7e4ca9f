"""Spacetime models: built-in catalog, JSON ingestion, jet-valued evaluation.

A model owns the covariant metric g_ij(x), the covariant potential A_i(x),
the coupling parameter alpha, and the constants c and k.  Signature is fixed
to (+,-,-,-) so that g(y,y) > 0 selects timelike fiber vectors.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ChartError, ConfigError, EngineError, ModelError, SingularEvaluationError, UsageError
from .exprlang import Expr, Tape, evaluate, free_symbols, parse, print_expr
from .jet_arrays import JetArray
from .jets import Jet, jet_space, variable_rows

PAIRS = [(i, j) for i in range(4) for j in range(i, 4)]  # the ten (i, j >= i), row-major: the metric tape's roots
UPPER = tuple(np.array(PAIRS).T)  # the pairs as an index into 4x4 arrays
ROOT = np.empty((4, 4), dtype=int)  # ROOT[i, j]: the metric tape's root for g_ij, the pair of (i, j) or (j, i)
ROOT[UPPER] = ROOT.T[UPPER] = range(10)


def alpha_star(c: float, k: float) -> float:
    """Coupling for which the bundle scalar curvature reproduces the
    Einstein-Maxwell Lagrangian: 3*alpha^2/2 = k/c^4."""
    return math.sqrt(2.0 * k / 3.0) / c**2


def checked_alpha(error: type[EngineError], params: dict[str, float], alpha: float | str, c: float, k: float) -> float:
    """The coupling ``alpha`` (``alpha_star(c, k)`` for "star"), once every
    parameter, alpha, c and k is a finite number (not a bool, nor an int too
    large for a float) and c and k are positive; else ``error`` names the
    first constant that is not."""
    named = [*params.items(), ("c", c), ("k", k)] + ([] if alpha == "star" else [("alpha", alpha)])
    for name, value in named:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise error(f"{name} must be a number, got {value!r}")
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise error(f"{name} must be finite, got {value}")
    for name, value in (("c", c), ("k", k)):
        if value <= 0:
            raise error(f"{name} must be positive, got {value}")
    return alpha_star(c, k) if alpha == "star" else float(alpha)


@dataclass
class SpacetimeModel:
    """A spacetime and its expressions.

    The metric's upper triangle, the potential and the chart guard are each
    compiled to a ``Tape`` on first use and cached.  Nothing changes a model
    after construction (``dataclasses.replace`` makes one at another
    ``alpha``); a model whose expressions were changed would keep evaluating
    its old tapes.
    """

    name: str
    coords: tuple[str, str, str, str]
    params: dict[str, float]
    g_exprs: list[list[Expr]]  # symmetric, entries shared across the diagonal
    a_exprs: list[Expr]
    alpha: float
    c: float = 1.0
    k: float = 1.0
    chart_guard: Expr | None = None
    alpha_is_star: bool = False

    def param_env(self, order: int, nvars: int) -> dict[str, JetArray]:
        """The parameters and ``pi`` as constant 0-d jet arrays."""
        constants = {**self.params, "pi": math.pi}
        space = jet_space(order, nvars)
        c = np.zeros((len(constants), 1, space.size))
        c[:, 0, 0] = list(constants.values())
        return {name: JetArray(space, row) for name, row in zip(constants, c)}

    def coord_env(self, x, order: int, nvars: int = 4) -> dict[str, JetArray]:
        """``param_env`` and coordinate k seeded in variable k of ``nvars``: a
        0-d jet array of one entry per point of a batch x (P, 4), a point x
        (4,) being a batch of one."""
        env, space = self.param_env(order, nvars), jet_space(order, nvars)
        x = np.asarray(x, dtype=float).reshape(-1, 4)
        for k, name in enumerate(self.coords):
            env[name] = JetArray(space, variable_rows(k, x[:, k], order, nvars))
        return env

    @cached_property
    def metric_tape(self) -> Tape:
        """g_ij for j >= i, row by row."""
        roots = [self.g_exprs[i][j] for i, j in PAIRS]
        return Tape(roots, self.coords, self.params)

    @cached_property
    def potential_tape(self) -> Tape:
        return Tape(self.a_exprs, self.coords, self.params)

    @cached_property
    def guard_tape(self) -> Tape | None:
        return None if self.chart_guard is None else Tape([self.chart_guard], self.coords, self.params)

    def check_chart(self, x) -> None:
        if self.guard_tape is None:
            return
        (guard,) = self.guard_tape.values(x)
        if not guard > 0.0:
            raise ChartError(
                f"point {np.asarray(x).tolist()} outside chart of {self.name!r} "
                f"(guard value {guard})"
            )


# -- catalog ------------------------------------------------------------------


def _outside_horizon_guard(r_plus: str) -> str:
    """Positive exactly when r > r_plus AND sin(theta) > 0.

    u + s - sqrt(u^2 + s^2) > 0 iff both u and s are positive, which avoids
    the both-negative hole a plain product guard would have.
    """
    u = f"(r - {r_plus})"
    return f"{u} + sin(theta) - sqrt({u}^2 + sin(theta)^2)"


def _diag(*entries: str) -> list[list[str]]:
    """The diagonal metric with these four entries."""
    return [[e if i == j else "0" for j in range(4)] for i, e in enumerate(entries)]


def _static_spherical(f: str) -> list[list[str]]:
    """diag(f, -1/f, -r^2, -r^2 sin^2(theta))."""
    return _diag(f, f"-1/({f})", "-r^2", "-r^2*sin(theta)^2")


_CARTESIAN, _SPHERICAL = ["t", "x", "y", "z"], ["t", "r", "theta", "phi"]
_FLAT, _RHO = _diag("1", "-1", "-1", "-1"), "sqrt(x^2 + y^2 + z^2)"

# name -> (required parameters, model document without its name and params)
_CATALOG = {
    "minkowski": ((), {"coords": _CARTESIAN, "metric": _FLAT}),
    "uniform_field": (("E0",), {"coords": _CARTESIAN, "metric": _FLAT, "potential": ["-E0*x", "0", "0", "0"]}),
    "schwarzschild": (("M",), {"coords": _SPHERICAL, "metric": _static_spherical("1 - 2*M/r"),
                               "chart_guard": _outside_horizon_guard("2*M")}),
    "reissner_nordstrom": (("M", "Q"), {"coords": _SPHERICAL, "metric": _static_spherical("1 - 2*M/r + Q^2/r^2"),
                                        "potential": ["Q/r", "0", "0", "0"],
                                        "chart_guard": _outside_horizon_guard("(M + sqrt(M^2 - Q^2))")}),
    "weak_field": (("M",), {"coords": _CARTESIAN, "metric": _diag(f"1 - 2*M/{_RHO}", *[f"-(1 + 2*M/{_RHO})"] * 3),
                            "chart_guard": f"{_RHO} - 2*M"}),
}
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str, params: dict[str, float] | None = None) -> SpacetimeModel:
    """A built-in spacetime with signature (+,-,-,-): its model document in
    ``_CATALOG`` at alpha "star" and these parameters (each required one,
    finite, M > 0, Q^2 <= M^2), stored as floats, built and checked by the
    code that builds a model file."""
    params = dict(params or {})
    if name not in _CATALOG:
        raise ConfigError(f"unknown catalog model {name!r}; choose from {CATALOG_NAMES}")
    required, doc = _CATALOG[name]
    missing = [p for p in required if p not in params]
    if missing:
        raise ConfigError(f"model {name!r} requires parameters {missing}")
    extra = [p for p in params if p not in required]
    if extra:
        raise ConfigError(f"model {name!r} does not accept parameters {extra}")
    checked_alpha(ConfigError, params, "star", 1.0, 1.0)
    if "M" in params and params["M"] <= 0:
        raise ConfigError(f"mass must be positive, got M={params['M']}")
    if "Q" in params and params["Q"] ** 2 > params["M"] ** 2:
        raise ConfigError(f"{name} requires Q^2 <= M^2 (no naked singularity)")
    return _model({"name": name, "params": {p: float(v) for p, v in params.items()}, **doc})


# -- document ingestion --------------------------------------------------------

_ALLOWED_KEYS = {"name", "coords", "params", "metric", "potential", "alpha", "c", "k", "chart_guard"}


def load_model(document: str) -> SpacetimeModel:
    """Build a model from its JSON document (see README for the schema)."""
    try:
        doc = json.loads(document)
    except json.JSONDecodeError as err:
        raise ModelError(f"model document is not valid JSON: {err}") from None
    if not isinstance(doc, dict):
        raise ModelError("model document must be a JSON object")
    return _model(doc)


def _model(doc: dict) -> SpacetimeModel:
    """The model of a parsed document: every model is built here."""
    unknown = set(doc) - _ALLOWED_KEYS
    if unknown:
        raise ModelError(f"unknown model keys {sorted(unknown)}")
    for key in ("name", "coords", "metric"):
        if key not in doc:
            raise ModelError(f"model document missing required key {key!r}")

    name = doc["name"]
    coords = doc["coords"]
    if not (isinstance(coords, list) and len(coords) == 4 and all(isinstance(s, str) for s in coords)):
        raise ModelError("coords must be a list of 4 coordinate names")
    if len(set(coords)) != 4:
        raise ModelError("coordinate names must be distinct")
    params = doc.get("params", {})
    if not isinstance(params, dict) or not all(
        isinstance(k, str) and isinstance(v, (int, float)) for k, v in params.items()
    ):
        raise ModelError("params must map names to numbers")
    c, k = doc.get("c", 1.0), doc.get("k", 1.0)
    alpha_field = doc.get("alpha", "star")
    if not (alpha_field == "star" or isinstance(alpha_field, (int, float))):
        raise ModelError('alpha must be a number or "star"')
    alpha = checked_alpha(ModelError, params, alpha_field, c, k)
    params = {name: float(value) for name, value in params.items()}
    c, k = float(c), float(k)

    metric_src = doc["metric"]
    if not (isinstance(metric_src, list) and len(metric_src) == 4 and all(
        isinstance(row, list) and len(row) == 4 for row in metric_src
    )):
        raise ModelError("metric must be a 4x4 array of expression strings")

    pot_src = doc.get("potential", ["0"] * 4)
    if pot_src in ([], None):
        pot_src = ["0"] * 4
    if not (isinstance(pot_src, list) and len(pot_src) == 4):
        raise ModelError("potential must be a list of 4 expression strings")

    g_exprs = [[None] * 4 for _ in range(4)]
    for i in range(4):
        for j in range(i, 4):
            g_exprs[i][j] = parse(_entry(metric_src[i][j]))
    probe_rng = None  # made on first use: importing numpy.random takes about 6 MB
    for i in range(4):
        for j in range(i):
            src = metric_src[i][j]
            lower = None if src in (None, "") else parse(_entry(src))
            if lower is not None and lower != g_exprs[j][i]:
                probe_rng = probe_rng or np.random.default_rng(20230917)
                if not _numerically_equal(lower, g_exprs[j][i], coords, params, probe_rng):
                    raise ModelError(f"metric entries ({i},{j}) and ({j},{i}) are not symmetric")
            g_exprs[i][j] = g_exprs[j][i]

    a_exprs = [parse(_entry(src)) for src in pot_src]
    guard_src = doc.get("chart_guard")
    guard = parse(guard_src) if guard_src else None

    allowed = set(coords) | set(params) | {"pi"}
    for label, exprs in (("metric", [e for row in g_exprs for e in row]), ("potential", a_exprs)):
        for e in exprs:
            unbound = free_symbols(e) - allowed
            if unbound:
                raise ModelError(f"{label} expression uses unbound symbols {sorted(unbound)}")
    if guard is not None and free_symbols(guard) - allowed:
        raise ModelError("chart_guard uses unbound symbols")

    return SpacetimeModel(
        name=str(name),
        coords=tuple(coords),
        params=params,
        g_exprs=g_exprs,
        a_exprs=a_exprs,
        alpha=alpha,
        c=c,
        k=k,
        chart_guard=guard,
        alpha_is_star=alpha_field == "star",
    )


def _entry(src) -> str:
    if isinstance(src, (int, float)):
        return repr(src)
    if not isinstance(src, str):
        raise ModelError(f"expression entries must be strings, got {type(src).__name__}")
    return src


def _numerically_equal(a: Expr, b: Expr, coords, params, rng) -> bool:
    for _ in range(5):
        env_vals = {name: rng.uniform(0.5, 2.0) for name in coords}
        env = {k: Jet.constant(v, 0, 4) for k, v in {**params, **env_vals}.items()}
        env["pi"] = Jet.constant(math.pi, 0, 4)
        try:
            va, vb = evaluate(a, env).value, evaluate(b, env).value
        except SingularEvaluationError:
            continue
        if abs(va - vb) > 1e-12 * (1 + abs(va) + abs(vb)):
            return False
    return True


def print_model(model: SpacetimeModel) -> str:
    """Canonical JSON document reproducing the model's evaluations."""
    doc = {
        "name": model.name,
        "coords": list(model.coords),
        "params": dict(model.params),
        "metric": [[print_expr(model.g_exprs[i][j]) for j in range(4)] for i in range(4)],
        "potential": [print_expr(e) for e in model.a_exprs],
        "alpha": "star" if model.alpha_is_star else model.alpha,
        "c": model.c,
        "k": model.k,
    }
    if model.chart_guard is not None:
        doc["chart_guard"] = print_expr(model.chart_guard)
    return json.dumps(doc, indent=2, sort_keys=True)


# -- jet-valued evaluation ------------------------------------------------------

def _check_determinant(g: np.ndarray, x: np.ndarray) -> None:
    det = np.linalg.det(g)
    if not det < 0.0:
        raise SingularEvaluationError(f"metric determinant {det} is not negative at {x.tolist()}", value=det)


def _points(x) -> np.ndarray:
    """x as a float array of a batch of chart points (P, 4), a point (4,)
    being a batch of one."""
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != 4:
        raise UsageError(f"expected a point of 4 coordinates or a batch of them, got shape {x.shape}")
    return x.reshape(-1, 4)


def metric_jet(model: SpacetimeModel, x, order: int) -> JetArray:
    """Symmetric 4x4 jet array of g_ij in the 4 base coordinates at each
    point of a batch x (P, 4) or at a point x (4,), each a chart point whose
    metric determinant is negative; mirrored entries hold the same bytes."""
    x = _points(x)
    for point in x:
        model.check_chart(point)
    comps = model.metric_tape.jets(x, order)[ROOT]
    for g, point in zip(comps.values, x):
        _check_determinant(g, point)
    return comps


def potential_jet(model: SpacetimeModel, x, order: int) -> JetArray:
    """Covariant potential components A_i as a jet array in the 4 base
    coordinates at each point of a batch x (or at a point x).  The chart is
    not checked: every caller has checked it for the metric at the same x."""
    return model.potential_tape.jets(_points(x), order)


def metric_values(model: SpacetimeModel, x) -> np.ndarray:
    """Plain float matrix g_ij(x), from the metric tape's order-0 kernel."""
    x = np.asarray(x, dtype=float)
    model.check_chart(x)
    g = np.array(model.metric_tape.values(x))[ROOT]
    _check_determinant(g, x)
    return g


def signature_signs(g: np.ndarray) -> tuple[int, int]:
    """(number of positive, number of negative) eigenvalues of a metric g."""
    eig = np.linalg.eigvalsh(g)
    return int(np.sum(eig > 0)), int(np.sum(eig < 0))
