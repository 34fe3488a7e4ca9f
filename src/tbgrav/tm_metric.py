"""Fiber metric, canonical fiber ball, tangent-bundle integration, divergence.

The Lorentzian metric is completed to a Riemannian fiber metric by reflecting
along the unit timelike direction u of the coordinate time axis:

    v_ij = 2 u_i u_j - g_ij,    u_i = g_ij u^j / sqrt(g(u,u)),    u^j = (1, 0, 0, 0),

which is positive definite with det v = -det g.  The canonical fiber ball
{y : v_ij y^i y^j <= c} with c = sqrt(2)/pi has unit Euclidean 4-volume in
v-orthonormal coordinates, so integrating a base function over box x ball
reproduces its base integral.

Fiber integrands are vectorised: one call maps the (n, 4) array of quadrature
nodes to the (n,) float array of the integrand's values at them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .base_geom import BaseGeometry, densitized_divergence, timelike_norm
from .errors import SingularEvaluationError, UsageError
from .jet_arrays import JetArray
from .spacetime import SpacetimeModel, metric_values

BALL_BOUND = math.sqrt(2.0) / math.pi  # unit-volume normalization: the ball is v(y, y) <= BALL_BOUND
BALL_RADIUS = math.sqrt(BALL_BOUND)  # its Euclidean radius in v-orthonormal coordinates
FIBER_NODES = (16, 16, 16, 32)  # the default fiber rule: 131,072 nodes
_BLOCK = 1 << 14  # quadrature nodes per block of the null-cone test


@dataclass(frozen=True)
class FiberBall:
    """The canonical fiber ball {y : v(y, y) <= BALL_BOUND} at a point: g
    there, its completion v and the lower-triangular L with v = L L^T."""

    g: np.ndarray
    v: np.ndarray
    cholesky: np.ndarray


def fiber_ball(model: SpacetimeModel, x) -> FiberBall:
    """Canonical (unit-volume) fiber integration domain at x, from one
    evaluation of g; v completes g along the normalized coordinate time axis."""
    g = metric_values(model, x)
    if g[0, 0] <= 0.0:
        raise SingularEvaluationError(f"fiber ball needs g_00 > 0, got {g[0, 0]}", value=g[0, 0])
    u = np.array([1.0, 0.0, 0.0, 0.0])
    u_low = (g @ u) / timelike_norm(g, u)
    v = 2.0 * np.outer(u_low, u_low) - g
    try:
        chol = np.linalg.cholesky(v)
    except np.linalg.LinAlgError:
        raise SingularEvaluationError("fiber metric is not positive definite") from None
    return FiberBall(g, v, chol)


# -- quadrature -------------------------------------------------------------------


@lru_cache(maxsize=8)
def _ball_nodes(counts: tuple[int, int, int, int]):
    """Product quadrature over the Euclidean 4-ball in spherical coordinates
    (rho, theta1, theta2, phi), rules matched to each measure so that constants
    integrate exactly at any node count:

      rho:    Gauss-Legendre on [0, R] against rho^3 drho;
      theta1: Gauss-Chebyshev (2nd kind) for the sin^2 weight;
      theta2: Gauss-Legendre in u = cos(theta2) (sin weight absorbed);
      phi:    uniform (trapezoid) rule on the periodic interval.

    The rule, on the ball of radius ``BALL_RADIUS``, is built once per node
    count and shared by every caller, so the returned arrays are read-only.
    """
    n_r, n_t1, n_t2, n_p = counts
    r_x, r_w = np.polynomial.legendre.leggauss(n_r)
    rho = 0.5 * BALL_RADIUS * (r_x + 1.0)
    rho_w = 0.5 * BALL_RADIUS * r_w * rho**3
    k = np.arange(1, n_t1 + 1)
    c1 = np.cos(k * math.pi / (n_t1 + 1))
    t1_w = math.pi / (n_t1 + 1) * np.sin(k * math.pi / (n_t1 + 1)) ** 2
    s1 = np.sqrt(1.0 - c1**2)
    c2, t2_w = np.polynomial.legendre.leggauss(n_t2)
    s2 = np.sqrt(1.0 - c2**2)
    phi = 2.0 * math.pi * (np.arange(n_p) + 0.5) / n_p
    phi_w = np.full(n_p, 2.0 * math.pi / n_p)

    rho_g, c1_g, c2_g, phi_g = np.meshgrid(rho, c1, c2, phi, indexing="ij")
    s1_g = np.sqrt(1.0 - c1_g**2)
    s2_g = np.sqrt(1.0 - c2_g**2)
    z = np.stack(
        [
            rho_g * c1_g,
            rho_g * s1_g * c2_g,
            rho_g * s1_g * s2_g * np.cos(phi_g),
            rho_g * s1_g * s2_g * np.sin(phi_g),
        ],
        axis=-1,
    ).reshape(-1, 4)
    w = (
        rho_w[:, None, None, None]
        * t1_w[None, :, None, None]
        * t2_w[None, None, :, None]
        * phi_w[None, None, None, :]
    ).reshape(-1)
    z.flags.writeable = w.flags.writeable = False
    return z, w


def fiber_rule(model: SpacetimeModel, x, nodes: tuple[int, int, int, int]):
    """(ball, ys, w, shifted): the canonical fiber ball at x, its (n, 4) nodes
    and weights (``np.sum(w * f(ys))`` integrates f with the fiber volume
    density), and the count of nodes shifted radially by 1e-9 off g's null cone."""
    ball = fiber_ball(model, x)
    z, w = _ball_nodes(nodes)
    # v(y,y) = z.z under y = L^{-T} z; d^4y sqrt(det v) = d^4z
    linv_t = np.linalg.inv(ball.cholesky).T
    ys = z @ linv_t.T
    # g(y,y) per node, in blocks that bound the temporaries
    norms = np.concatenate([((blk @ ball.g) * blk).sum(axis=1) for blk in np.split(ys, range(_BLOCK, len(ys), _BLOCK))])
    scale = np.max(np.abs(norms)) + 1e-30
    on_cone = np.abs(norms) <= 1e-12 * scale
    n_shifted = int(np.count_nonzero(on_cone))
    if n_shifted:
        ys[on_cone] *= 1.0 + 1e-9
    return ball, ys, w, n_shifted


def fiber_integral(model: SpacetimeModel, x, f, nodes: tuple[int, int, int, int] = FIBER_NODES) -> float:
    """Integral of f(y) over the canonical fiber ball with the fiber volume
    density (constants integrate to themselves), on ``fiber_rule``'s nodes.

    ``f`` maps the (n, 4) array of fiber nodes, one 4-vector per row, to the
    (n,) float array of its values there; any other return raises
    ``UsageError``.  Quadrature nodes that land on the null cone of g are
    shifted radially by 1e-9.
    """
    _, ys, w, _ = fiber_rule(model, x, nodes)
    return _weighted_sum(w, f(ys))


def _weighted_sum(w: np.ndarray, values) -> float:
    """np.sum(w * values) for a fiber integrand's values on len(w) nodes; a
    return other than a float array of shape (len(w),) raises UsageError."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "f" and values.shape == w.shape):
        raise UsageError(
            f"fiber integrand must return a float array of shape ({len(w)},), got shape {np.shape(values)}"
        )
    return float(np.sum(w * values))


def _box_rule(box, base_nodes: int):
    """Yield (x, weight) of the tensor-product Gauss-Legendre rule over a box of
    four (lo, hi) coordinate intervals, first coordinate outermost."""
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != 4:
        raise UsageError("box must give four coordinate intervals")
    bx, bw = np.polynomial.legendre.leggauss(base_nodes)
    axes = [zip(0.5 * (hi - lo) * (bx + 1.0) + lo, 0.5 * (hi - lo) * bw) for lo, hi in box]
    for (x0, w0), (x1, w1), (x2, w2), (x3, w3) in itertools.product(*axes):
        yield np.array([x0, x1, x2, x3]), w0 * w1 * w2 * w3


def tm_integral(
    model: SpacetimeModel,
    box,
    f,
    base_nodes: int = 4,
    fiber_nodes: tuple[int, int, int, int] = (6, 6, 6, 12),
) -> float:
    """Integral of f(x, y) over box x fiber ball with density sqrt(-g v).

    ``f(x, ys)`` takes a base point and the (n, 4) array of fiber nodes and
    returns the (n,) float array of values, as ``fiber_integral``'s integrand
    does.  ``box`` is a sequence of four (lo, hi) coordinate intervals inside
    the chart.  For y-independent f this equals the base integral of f sqrt(-g).
    """
    return box_integrals(model, box, f, lambda x: 0.0, base_nodes, fiber_nodes)[0]


def box_integrals(
    model: SpacetimeModel,
    box,
    f,
    f_base,
    base_nodes: int = 4,
    fiber_nodes: tuple[int, int, int, int] = (6, 6, 6, 12),
) -> tuple[float, float]:
    """(``tm_integral`` of f, ``base_integral`` of f_base) over one box, in
    one pass over the base nodes: each node's fiber ball gives both sums
    their sqrt(-g), so g is evaluated once per node."""
    tm = base = 0.0
    for x, wx in _box_rule(box, base_nodes):
        ball, ys, w, _ = fiber_rule(model, x, fiber_nodes)
        volume = wx * math.sqrt(-np.linalg.det(ball.g))
        tm += volume * _weighted_sum(w, f(x, ys))
        base += volume * f_base(x)
    return tm, base


def base_integral(model: SpacetimeModel, box, f, base_nodes: int = 4) -> float:
    """Reference rule: integral of f(x) sqrt(-g) over the box (same base rule
    as tm_integral)."""
    total = 0.0
    for x, wx in _box_rule(box, base_nodes):
        det = np.linalg.det(metric_values(model, x))
        total += wx * math.sqrt(-det) * f(x)
    return total


def base_divergence_values(geo: BaseGeometry, comps: JetArray) -> np.ndarray:
    """Classical divergence (1/sqrt(-g)) d_i(sqrt(-g) Y^i) via base jets, at
    each of the geometry's points (carrier order 1 or more), for Y's
    components ``comps``, a (4,) jet array on 4-variable jets of order 1 or
    more (as Y evaluated on ``coord_env(geo.x, 1)`` gives them)."""
    s = geo.sqrt_minus_det
    return densitized_divergence(s, comps) / s.values
