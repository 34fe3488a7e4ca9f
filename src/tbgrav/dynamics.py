"""Charged-particle worldlines and worldline deviation.

Worldlines extremize L = sqrt(g_ij y^i y^j) + alpha A_i y^i in the affine
gauge |y(0)| = 1 (parameter proportional to arc length), which gives

    dy^i/dt = -gamma^i_jk y^j y^k + alpha |y| F^i_j y^j = -2 G^i(x, y).

g(y,y) is an exact invariant of this flow (metric compatibility plus the
antisymmetry of F), which the adaptive integrator must preserve to ~1e-8
over t in [0, 100] at default tolerances.

The right-hand side reads g(y,y), -gamma^i_jk y^j y^k and F^i_j y^j from one
straight-line float kernel per model and field switch (``base_geom.spray_terms``,
written from the model's tapes and cached on them), which leaves out
every term with a factor that folds to zero and rejects a y that is not
timelike; the classical Lorentz-force RHS shares it.  The tests cross-check it
against the jet route (``BaseGeometry``, ``BundleGeometry``).

The deviation of a neighboring worldline with the same coupling evolves as
a linear first-order system in (w, W) with W^i = dw^i/dt + N^i_j w^j:

    dw^i/dt = W^i - N^i_j(x,y) w^j
    dW^i/dt = E^i_k(x,y) w^k - N^i_k(x,y) W^k

with connection and tidal tensor evaluated along the base worldline.

Integrator: Dormand-Prince embedded 5(4) pair, PI step control, cubic
Hermite dense output on accepted steps (interpolation accuracy one order
below the integrator).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import base_geom
from .bundle_geom import connection_and_tidal_values
from .errors import ChartError, IntegrationError, SingularEvaluationError, UsageError
from .jets import jet_values
from .spacetime import SpacetimeModel, metric_values, potential_jet

NULL_CONE_GUARD = 1e-6
DRIFT_SAMPLES = 50  # times at which norm_drift reads g(y,y)
# sampled times and integrator tolerance (rtol = atol) of the two oracles
CLASSICAL_SAMPLES, CLASSICAL_TOL = 50, 1e-10
ORACLE_SAMPLES, ORACLE_TOL = 30, 1e-11

# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array(row)
    for row in (
        [],
        [1 / 5],
        [3 / 40, 9 / 40],
        [44 / 45, -56 / 15, 32 / 9],
        [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
        [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
        [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
    )
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


@dataclass
class Trajectory:
    """Accepted steps with cubic Hermite dense output, and the integrator's
    counts: accepted steps, RHS calls, steps rejected by the error test,
    attempts abandoned on a singular stage, and the smallest accepted step
    (inf when none was accepted)."""

    times: np.ndarray  # accepted step times, shape (n,)
    states: np.ndarray  # shape (n, dim)
    derivs: np.ndarray  # shape (n, dim)
    n_steps: int
    n_rhs: int
    n_rejected: int
    n_singular_retries: int
    h_min: float

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def sample(self, t: float) -> np.ndarray:
        """Cubic Hermite interpolation between accepted steps."""
        times = self.times
        if t < times[0] - 1e-12 or t > times[-1] + 1e-12:
            raise UsageError(f"sample time {t} outside [{times[0]}, {times[-1]}]")
        if len(times) == 1:
            return self.states[0].copy()
        t = min(max(t, times[0]), times[-1])
        k = int(np.searchsorted(times, t, side="right") - 1)
        k = min(max(k, 0), len(times) - 2)
        h = times[k + 1] - times[k]
        s = (t - times[k]) / h
        y0, y1 = self.states[k], self.states[k + 1]
        d0, d1 = self.derivs[k] * h, self.derivs[k + 1] * h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h10 * d0 + h01 * y1 + h11 * d1


def _integrate(rhs, y0, t_end, rtol, atol, guard=None) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with PI step control from t=0 to t_end."""
    t = 0.0
    y = np.asarray(y0, dtype=float).copy()
    f = rhs(t, y)
    n_rhs = 1
    scale0 = atol + rtol * np.max(np.abs(y))
    h = min(1e-2, t_end / 10.0) if t_end > 0 else 1e-2
    if np.max(np.abs(f)) > 0:
        h = min(h, 0.1 * scale0 / np.max(np.abs(f)))
    times, states, derivs = [t], [y.copy()], [f.copy()]
    n_steps = n_rejected = n_singular_retries = 0
    h_min = math.inf
    err_prev = 1.0
    consecutive_failures = 0
    k = np.empty((7, y.size))
    while t < t_end - 1e-14:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        k[0] = f
        failed = False
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ k[:i])
            try:
                k[i] = rhs(t + _DP_C[i] * h, yi)
            except (SingularEvaluationError, IntegrationError) as err:
                failed = True
                consecutive_failures += 1
                if consecutive_failures > 40:
                    raise IntegrationError(
                        f"persistent singular evaluations near t={t} "
                        f"(worldline likely leaving the valid region): {err}"
                    ) from err
                break
            n_rhs += 1
        if failed:
            n_singular_retries += 1
            h *= 0.25
            continue
        consecutive_failures = 0
        y_new = y + h * (_DP_B5 @ k)
        err_vec = h * ((_DP_B5 - _DP_B4) @ k)
        tol = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        err = max(float(np.sqrt(np.mean((err_vec / tol) ** 2))), 1e-16)
        if err <= 1.0:
            t += h
            y = y_new
            f = k[6].copy()  # FSAL: last stage is the derivative at the new point
            times.append(t)
            states.append(y.copy())
            derivs.append(f.copy())
            n_steps += 1
            h_min = min(h_min, h)
            if guard is not None:
                guard(t, y)
            fac = 0.9 * err ** (-0.7 / 5.0) * err_prev ** (0.4 / 5.0)
            h *= min(5.0, max(0.2, fac))
            err_prev = max(err, 1e-10)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** (-1.0 / 5.0))
    return Trajectory(
        times=np.array(times),
        states=np.array(states),
        derivs=np.array(derivs),
        n_steps=n_steps,
        n_rhs=n_rhs,
        n_rejected=n_rejected,
        n_singular_retries=n_singular_retries,
        h_min=h_min,
    )


# -- worldline dynamics ---------------------------------------------------------------


def randers_lagrangian(model: SpacetimeModel, x, y, alpha: float | None = None) -> float:
    """L = |y| + alpha A_i y^i for timelike y."""
    alpha = model.alpha if alpha is None else float(alpha)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    norm = base_geom.timelike_norm(metric_values(model, x), y)
    a_vals = jet_values(potential_jet(model, x, order=0))
    return norm + alpha * float(a_vals @ y)


def worldline_rhs(model: SpacetimeModel, x, y, alpha: float | None = None) -> np.ndarray:
    """dy^i/dt = -gamma^i_jk y^j y^k + alpha |y| F^i_j y^j."""
    alpha = model.alpha if alpha is None else float(alpha)
    field = base_geom.has_field(model, alpha)
    n2, *acc = base_geom.spray_terms(model, x, y, field)
    if field:
        coupling = alpha * math.sqrt(n2)
        acc = [a + coupling * f for a, f in zip(acc[:4], acc[4:])]
    return np.array(acc)


def normalize_unit_speed(model: SpacetimeModel, x, y) -> np.ndarray:
    """Scale y so that g(y,y) = 1 (the affine gauge used throughout)."""
    y = np.asarray(y, dtype=float)
    return y / base_geom.timelike_norm(metric_values(model, x), y)


def _chart_and_cone_guard(model: SpacetimeModel):
    def guard(t, state):
        x, y = state[:4], state[4:8]
        try:
            model.check_chart(x)
        except ChartError as err:
            raise IntegrationError(f"worldline left the chart at t={t} ({err})") from None
        g = metric_values(model, x, check=False)
        n2 = float(y @ g @ y)
        if not NULL_CONE_GUARD <= n2 < math.inf:  # a NaN g(y,y) fails too
            raise IntegrationError(f"worldline approached the null cone at t={t} (g(y,y) = {n2})")

    return guard


def integrate_worldline(
    model: SpacetimeModel,
    x0,
    y0,
    alpha: float | None = None,
    t_end: float = 10.0,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> Trajectory:
    """Integrate the worldline ODE from (x0, y0), y0 scaled to unit speed."""
    x0 = np.asarray(x0, dtype=float)
    model.check_chart(x0)
    y0 = normalize_unit_speed(model, x0, y0)

    def rhs(t, state):
        x, y = state[:4], state[4:8]
        return np.concatenate([y, worldline_rhs(model, x, y, alpha=alpha)])

    return _integrate(
        rhs,
        np.concatenate([x0, y0]),
        t_end,
        rtol,
        atol,
        guard=_chart_and_cone_guard(model),
    )


def norm_drift(model: SpacetimeModel, traj: Trajectory) -> float:
    """max |g(y,y)(t) - g(y,y)(0)| over uniformly sampled times."""
    ts = np.linspace(traj.times[0], traj.t_end, DRIFT_SAMPLES)
    vals = []
    for t in ts:
        s = traj.sample(t)
        g = metric_values(model, s[:4], check=False)
        vals.append(float(s[4:8] @ g @ s[4:8]))
    vals = np.array(vals)
    return float(np.max(np.abs(vals - vals[0])))


def compare_classical(
    model: SpacetimeModel,
    x0,
    y0,
    alpha: float | None = None,
    t_end: float = 10.0,
) -> float:
    """Max position/velocity gap to the classical Lorentz-force worldline with
    q/(m c^2) = alpha and unit-speed initial data (the two ODEs then agree)."""
    alpha = model.alpha if alpha is None else float(alpha)
    x0 = np.asarray(x0, dtype=float)
    y0 = normalize_unit_speed(model, x0, y0)

    def rhs(t, state):
        x, y = state[:4], state[4:8]
        xc, yc = state[8:12], state[12:16]
        return np.concatenate(
            [
                y,
                worldline_rhs(model, x, y, alpha=alpha),
                yc,
                base_geom.classical_lorentz_rhs(model, xc, yc, alpha),
            ]
        )

    # one joint system so both worldlines share the accepted steps
    joint = _integrate(rhs, np.concatenate([x0, y0, x0, y0]), t_end, CLASSICAL_TOL, CLASSICAL_TOL)
    ts = np.linspace(0.0, t_end, CLASSICAL_SAMPLES)
    gap = 0.0
    for t in ts:
        s = joint.sample(t)
        gap = max(gap, float(np.max(np.abs(s[:8] - s[8:]))))
    return gap


# -- worldline deviation ----------------------------------------------------------------


# (N^i_j, E^i_j, dy^i/dt) along the base worldline: the float point kernel; the
# alias stays because bench/tracing.py hooks the deviation RHS by this name
_connection_and_tidal = connection_and_tidal_values


def integrate_deviation(
    model: SpacetimeModel,
    base: Trajectory,
    w0,
    W0=None,
    dw0=None,
    alpha: float | None = None,
    rtol: float = 1e-10,
    atol: float = 1e-10,
) -> Trajectory:
    """Integrate the deviation system along a base worldline.

    Initial data: either the covariant rate W0 = dw/dt + N w (preferred) or
    the plain coordinate rate dw0.  State layout (w, W).
    """
    w0 = np.asarray(w0, dtype=float)
    s0 = base.sample(0.0)
    n0, _, _ = _connection_and_tidal(model, s0[:4], s0[4:8], alpha)
    if W0 is None and dw0 is None:
        raise UsageError("provide either W0 (covariant rate) or dw0 (coordinate rate)")
    if W0 is None:
        W0 = np.asarray(dw0, dtype=float) + n0 @ w0
    else:
        W0 = np.asarray(W0, dtype=float)

    def rhs(t, state):
        s = base.sample(t)
        x, y = s[:4], s[4:8]
        n, e, _ = _connection_and_tidal(model, x, y, alpha)
        w, bigw = state[:4], state[4:8]
        return np.concatenate([bigw - n @ w, e @ w - n @ bigw])

    return _integrate(rhs, np.concatenate([w0, W0]), base.t_end, rtol, atol)


def neighbor_oracle(
    model: SpacetimeModel,
    x0,
    y0,
    w0,
    W0,
    eps: float,
    alpha: float | None = None,
    t_end: float = 10.0,
) -> float:
    """Max gap between the integrated deviation field and the finite-difference
    of two nearby worldlines sharing the coupling: O(eps) by construction.

    The neighbor's initial velocity offset follows the covariant convention
    dy_eps(0) = eps * (W0 - N(x0, y0) w0).  Base worldline, neighbor, and
    deviation are integrated as one joint system on shared steps, so the
    integration errors of the two worldlines cancel in the finite difference.
    """
    x0 = np.asarray(x0, dtype=float)
    y0 = normalize_unit_speed(model, x0, y0)
    w0 = np.asarray(w0, dtype=float)
    W0 = np.asarray(W0, dtype=float)
    n0, _, _ = _connection_and_tidal(model, x0, y0, alpha)
    x0_eps = x0 + eps * w0
    y0_eps = y0 + eps * (W0 - n0 @ w0)

    def rhs(t, state):
        x, y = state[:4], state[4:8]
        xe, ye = state[8:12], state[12:16]
        w, bigw = state[16:20], state[20:24]
        n, e, acc = _connection_and_tidal(model, x, y, alpha)
        return np.concatenate(
            [
                y,
                acc,
                ye,
                worldline_rhs(model, xe, ye, alpha=alpha),
                bigw - n @ w,
                e @ w - n @ bigw,
            ]
        )

    state0 = np.concatenate([x0, y0, x0_eps, y0_eps, w0, W0])
    joint = _integrate(rhs, state0, t_end, ORACLE_TOL, ORACLE_TOL)
    ts = np.linspace(0.0, t_end, ORACLE_SAMPLES)
    worst = 0.0
    for t in ts:
        s = joint.sample(t)
        fd = (s[8:12] - s[:4]) / eps
        worst = max(worst, float(np.max(np.abs(fd - s[16:20]))))
    return worst


# -- export -----------------------------------------------------------------------------


def trajectory_csv(traj: Trajectory, ts, deviation: Trajectory | None = None) -> str:
    """CSV sample of a worldline (and optional deviation), 17 significant digits."""
    header = ["t"] + [f"x{i}" for i in range(4)] + [f"y{i}" for i in range(4)]
    if deviation is not None:
        header += [f"w{i}" for i in range(4)] + [f"W{i}" for i in range(4)]
    lines = [",".join(header)]
    for t in np.asarray(ts, dtype=float):
        row = [t] + list(traj.sample(t))
        if deviation is not None:
            row += list(deviation.sample(t))
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"
