"""Charged-particle worldlines and worldline deviation.

Worldlines extremize L = sqrt(g_ij y^i y^j) + alpha A_i y^i in the affine
gauge |y(0)| = 1 (parameter proportional to arc length), which gives

    dy^i/dt = -gamma^i_jk y^j y^k + alpha |y| F^i_j y^j = -2 G^i(x, y).

g(y,y) is an exact invariant of this flow (metric compatibility plus the
antisymmetry of F), which the adaptive integrator must preserve to ~1e-8
over t in [0, 100] at default tolerances.

The right-hand side reads g(y,y), -gamma^i_jk y^j y^k and F^i_j y^j from one
straight-line float kernel per model and field switch (``base_geom.spray_kernel``,
written from the model's tapes and cached on them), which leaves out
every term with a factor that folds to zero and rejects a y that is not
timelike; the classical Lorentz-force RHS shares it.  The tests cross-check it
against the jet route (``BaseGeometry``, ``BundleGeometry``).

The deviation of a neighboring worldline with the same coupling evolves as
a linear first-order system in (w, W) with W^i = dw^i/dt + N^i_j w^j:

    dw^i/dt = W^i - N^i_j(x,y) w^j
    dW^i/dt = E^i_k(x,y) w^k - N^i_k(x,y) W^k

with connection and tidal tensor evaluated along the base worldline, from
the order-2 deviation kernel (``bundle_geom.deviation_kernel``).

Integrator: Dormand-Prince embedded 5(4) pair with the PI step control of
Hairer, Norsett & Wanner (Solving ODEs I, II.4: exponents 0.17 and 0.04,
growth capped at 10), and Dormand-Prince's own 4th-order continuous extension
as dense output (Shampine 1986; HNW II.6): cubic Hermite on each accepted
step plus a quartic term that the step's stages give, so a sample costs no
RHS call and is accurate to one order below the integrator.  The first step
follows HNW's starting-step rule (II.4), which costs one Euler probe call of
the right-hand side (counted in ``n_rhs``; none when t_end = 0), so a
run starts at the size of step its tolerance allows instead of climbing to
it.  It runs on plain floats: the state, the seven stages and the error norm
are lists of Python floats, the stage sums are written out over the
components, and each right-hand side is a closure that reads its kernels once
per integration and builds lists, with no NumPy call per stage.  The
worldline's guard on accepted states, and ``norm_drift``, form g(y,y) from
the metric tape's ten float values (``_norm2``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import base_geom
from .bundle_geom import connection_and_tidal_values, deviation_kernel
from .errors import ChartError, IntegrationError, SingularEvaluationError, UsageError
from .spacetime import SpacetimeModel, metric_values, potential_jet

NULL_CONE_GUARD = 1e-6
DRIFT_SAMPLES = 50  # times at which norm_drift reads g(y,y)
# sampled times and integrator tolerance (rtol = atol) of the two oracles
CLASSICAL_SAMPLES, CLASSICAL_TOL = 50, 1e-10
ORACLE_SAMPLES, ORACLE_TOL = 30, 1e-11

# Dormand-Prince 5(4) tableau (Hairer, Norsett & Wanner, Solving ODEs I, table
# II.5.2), 1-based as there: the nodes c2..c5 (c6 = c7 = 1), the rows of a for
# stages 2..7, the last of which is also the 5th-order weights b (its stage is
# the derivative at the new point: first same as last), and the weights b - b^
# of the error estimate, b^ the embedded 4th-order weights
_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9)
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b - b4 for b, b4 in zip((*_A[-1], 0.0), _B4))
# the weights d of the quartic term of the continuous extension of Dormand and
# Prince (Shampine 1986; Hairer, Norsett & Wanner, Solving ODEs I, II.6, and
# their code DOPRI5): over a step from y0 to y1 it is the cubic Hermite
# interpolant of y0, y1, h f0 and h f1 plus s^2 (1 - s)^2 h sum_i d_i k_i,
# s the fraction of the step (d2 = 0)
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799, -10690763975 / 1880347072,
      701980252875 / 199316789632, -1453857185 / 822651844, 69997945 / 29380423)
# PI step control (Hairer, Norsett & Wanner, Solving ODEs I, II.4, and DOPRI5):
# after an accepted step h changes by the factor 0.9 err^-alpha err_prev^beta,
# kept in [0.2, 10], with beta = 0.04 and alpha = 1/5 - 0.75 beta = 0.17;
# err_prev is the last accepted step's error, floored at 1e-4, and 1 before
# the first (no history), so the first step's factor is 0.9 err^-alpha
_BETA = 0.04
_ALPHA = 0.2 - 0.75 * _BETA
# accepted steps per buffer block of the integrator: small enough that a
# block is not a memory map of its own, so no run maps and unmaps large ones
_BLOCK = 256


@dataclass
class Trajectory:
    """Accepted steps with Dormand-Prince's continuous extension as dense
    output, and the integrator's counts: accepted steps, RHS calls, steps
    rejected by the error test, attempts abandoned on a singular stage, and
    the smallest accepted step (inf when none was accepted).

    Between times[k] and times[k + 1], at s = (t - times[k]) / h, the sample
    is the cubic Hermite interpolant of the two states and of h times their
    derivatives, plus s^2 (1 - s)^2 quartic[k + 1]: a polynomial of degree 4
    with local error O(h^5), one order below the integrator, built from the
    step's stages with no extra RHS call."""

    times: np.ndarray  # accepted step times, shape (n,)
    states: np.ndarray  # shape (n, dim)
    derivs: np.ndarray  # shape (n, dim)
    quartic: np.ndarray  # shape (n, dim): row k + 1 for the step from times[k], row 0 zero
    n_steps: int
    n_rhs: int
    n_rejected: int
    n_singular_retries: int
    h_min: float

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def sample(self, t: float) -> np.ndarray:
        """Dormand-Prince's continuous extension between accepted steps: the
        floats of ``sampler`` as an array."""
        return np.array(self._dense(t))

    def sampler(self):
        """``t -> list``: ``sample`` on Python floats, for a right-hand side
        that samples this trajectory on every call."""
        return self._dense

    @cached_property
    def _dense(self):
        """The sampler on the arrays read as lists, built once."""
        times, states, derivs = self.times.tolist(), self.states.tolist(), self.derivs.tolist()
        quartic = self.quartic.tolist()
        first, last = times[0], times[-1]

        def sample(t: float) -> list[float]:
            if not first - 1e-12 <= t <= last + 1e-12:
                raise UsageError(f"sample time {t} outside [{first}, {last}]")
            if len(times) == 1:
                return list(states[0])
            t = min(max(t, first), last)
            k = min(max(bisect_right(times, t) - 1, 0), len(times) - 2)
            h = times[k + 1] - times[k]
            s = (t - times[k]) / h
            h00 = (1 + 2 * s) * (1 - s) ** 2
            h10 = s * (1 - s) ** 2
            h01 = s * s * (3 - 2 * s)
            h11 = s * s * (s - 1)
            q = s * h10  # s^2 (1 - s)^2
            return [h00 * y0 + h10 * (d0 * h) + h01 * y1 + h11 * (d1 * h) + q * r
                    for y0, d0, y1, d1, r in zip(states[k], derivs[k], states[k + 1], derivs[k + 1], quartic[k + 1])]

        return sample


def _rms(v, scale) -> float:
    """The integrator's error norm: the RMS of v_i / scale_i, a component
    whose scale is 0 counted as 0."""
    return math.sqrt(sum((p / s) ** 2 for p, s in zip(v, scale) if s > 0.0) / len(v))


def _start_step(rhs, y, f, t_end, rtol, atol) -> tuple[float, int]:
    """The first step size of Hairer, Norsett & Wanner (Solving ODEs I, II.4)
    and the number of RHS calls it made (0 or 1).

    With scale_i = atol + rtol |y_i| and d0 = |y|, d1 = |f| in ``_rms``: an
    Euler step h0 = 0.01 d0 / d1 (1e-6 when d0 or d1 is below 1e-5 or not
    finite, so that h0 is a positive float), capped at t_end, probes
    d2 = |f(h0) - f| / h0, and the step is min(100 h0, h1) with
    h1 = (0.01 / max(d1, d2))^(1/5), the step whose local error estimate is
    about 0.01.  A probe that meets a singular evaluation starts at h0, which
    the step loop then shrinks as it does any such step."""
    scale = [atol + rtol * abs(p) for p in y]
    d0, d1 = _rms(y, scale), _rms(f, scale)
    h0 = min(0.01 * d0 / d1 if 1e-5 <= d0 < math.inf and 1e-5 <= d1 < math.inf else 1e-6, t_end)
    try:
        f1 = rhs(h0, [p + h0 * q for p, q in zip(y, f)])
    except (SingularEvaluationError, IntegrationError):
        return h0, 0
    d2 = _rms([q1 - q for q, q1 in zip(f, f1)], scale) / h0
    d = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d <= 1e-15 else (0.01 / d) ** 0.2
    return min(100.0 * h0, h1), 1


def _integrate(rhs, y0, t_end, rtol, atol, guard=None) -> Trajectory:
    """Adaptive Dormand-Prince 5(4) with PI step control from t=0 to t_end.

    The state is a list of floats, and ``rhs(t, state)`` returns one; the
    stage sums are written out over the components.  Each accepted step is
    one row (t, state, derivative, quartic term) of a float block of
    ``_BLOCK`` rows, and the trajectory's arrays are joined from the blocks at
    the end.  The quartic term is summed in the loop of the error norm, which
    reads the same stages."""
    if not 0.0 <= t_end < math.inf:
        raise UsageError(f"t_end must be finite and >= 0, got {t_end}")
    if not (0.0 <= rtol < math.inf and 0.0 <= atol < math.inf) or rtol == atol == 0.0:
        raise UsageError(f"rtol and atol must be finite, >= 0 and not both 0, got {rtol} and {atol}")
    (a21,), (a31, a32), (a41, a42, a43), (a51, a52, a53, a54), (a61, a62, a63, a64, a65), a7 = _A
    a71, _, a73, a74, a75, a76 = a7
    c2, c3, c4, c5 = _C
    e1, _, e3, e4, e5, e6, e7 = _E
    d1, _, d3, d4, d5, d6, d7 = _D
    t = 0.0
    y = np.asarray(y0, dtype=float).tolist()
    f = rhs(t, y)
    h, probes = _start_step(rhs, y, f, t_end, rtol, atol) if t_end > 0 else (0.0, 0)
    n_rhs = 1 + probes
    blocks = [np.empty((_BLOCK, 1 + 3 * len(y)))]
    blocks[0][0] = [t, *y, *f, *[0.0] * len(y)]
    n_steps = n_rejected = n_singular_retries = 0
    h_min = math.inf
    err_prev = 1.0
    consecutive_failures = 0
    while t < t_end - 1e-14:
        h = min(h, t_end - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise IntegrationError(f"step size underflow at t={t}")
        k1 = f
        try:
            k2 = rhs(t + c2 * h, [p + h * (a21 * q1) for p, q1 in zip(y, k1)])
            n_rhs += 1
            k3 = rhs(t + c3 * h, [p + h * (a31 * q1 + a32 * q2) for p, q1, q2 in zip(y, k1, k2)])
            n_rhs += 1
            k4 = rhs(t + c4 * h, [p + h * (a41 * q1 + a42 * q2 + a43 * q3) for p, q1, q2, q3 in zip(y, k1, k2, k3)])
            n_rhs += 1
            k5 = rhs(t + c5 * h, [p + h * (a51 * q1 + a52 * q2 + a53 * q3 + a54 * q4)
                                  for p, q1, q2, q3, q4 in zip(y, k1, k2, k3, k4)])
            n_rhs += 1
            k6 = rhs(t + h, [p + h * (a61 * q1 + a62 * q2 + a63 * q3 + a64 * q4 + a65 * q5)
                             for p, q1, q2, q3, q4, q5 in zip(y, k1, k2, k3, k4, k5)])
            n_rhs += 1
            y_new = [p + h * (a71 * q1 + a73 * q3 + a74 * q4 + a75 * q5 + a76 * q6)
                     for p, q1, q3, q4, q5, q6 in zip(y, k1, k3, k4, k5, k6)]
            k7 = rhs(t + h, y_new)
            n_rhs += 1
        except (SingularEvaluationError, IntegrationError) as err:
            consecutive_failures += 1
            if consecutive_failures > 40:
                raise IntegrationError(
                    f"persistent singular evaluations near t={t} "
                    f"(worldline likely leaving the valid region): {err}"
                ) from err
            n_singular_retries += 1
            h *= 0.25
            continue
        consecutive_failures = 0
        total = 0.0  # sum of squares of the scaled error estimate
        quartic = []  # the quartic term of the step's continuous extension
        for p, r, q1, q3, q4, q5, q6, q7 in zip(y, y_new, k1, k3, k4, k5, k6, k7):
            scaled = (h * (e1 * q1 + e3 * q3 + e4 * q4 + e5 * q5 + e6 * q6 + e7 * q7)
                      / (atol + rtol * max(abs(p), abs(r))))
            total += scaled * scaled
            quartic.append(h * (d1 * q1 + d3 * q3 + d4 * q4 + d5 * q5 + d6 * q6 + d7 * q7))
        err = max(math.sqrt(total / len(y)), 1e-16)
        if err <= 1.0:
            t += h
            y, f = y_new, k7
            n_steps += 1
            if n_steps % _BLOCK == 0:
                blocks.append(np.empty_like(blocks[0]))
            blocks[-1][n_steps % _BLOCK] = [t, *y, *f, *quartic]
            h_min = min(h_min, h)
            if guard is not None:
                guard(t, y)
            h *= min(10.0, max(0.2, 0.9 * err ** -_ALPHA * err_prev ** _BETA))
            err_prev = max(err, 1e-4)
        else:
            n_rejected += 1
            h *= max(0.2, 0.9 * err ** (-1.0 / 5.0))
    dim, n = len(y), n_steps + 1
    return Trajectory(
        times=np.concatenate([b[:, 0] for b in blocks])[:n],
        states=np.concatenate([b[:, 1 : dim + 1] for b in blocks])[:n],
        derivs=np.concatenate([b[:, dim + 1 : 2 * dim + 1] for b in blocks])[:n],
        quartic=np.concatenate([b[:, 2 * dim + 1 :] for b in blocks])[:n],
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
    a_vals = potential_jet(model, x, order=0).values[0]
    return norm + alpha * float(a_vals @ y)


def _acceleration(model: SpacetimeModel, alpha: float | None):
    """The function ``(x, y) -> [dy^i/dt]`` on float lists, on the worldline
    kernel read once."""
    alpha = model.alpha if alpha is None else float(alpha)
    field = base_geom.has_field(model, alpha)
    kernel = base_geom.spray_kernel(model, field)
    if not field:
        return lambda x, y: kernel(x, y)[1:]

    def acceleration(x, y):
        n2, a0, a1, a2, a3, f0, f1, f2, f3 = kernel(x, y)
        coupling = alpha * math.sqrt(n2)
        return [a0 + coupling * f0, a1 + coupling * f1, a2 + coupling * f2, a3 + coupling * f3]

    return acceleration


def worldline_rhs(model: SpacetimeModel, x, y, alpha: float | None = None) -> np.ndarray:
    """dy^i/dt = -gamma^i_jk y^j y^k + alpha |y| F^i_j y^j."""
    return np.array(_acceleration(model, alpha)(x, np.asarray(y, dtype=float).tolist()))


def normalize_unit_speed(model: SpacetimeModel, x, y) -> np.ndarray:
    """Scale y so that g(y,y) = 1 (the affine gauge used throughout)."""
    y = np.asarray(y, dtype=float)
    return y / base_geom.timelike_norm(metric_values(model, x), y)


def _norm2(model: SpacetimeModel):
    """The function ``(x, y) -> g(y,y)`` on floats, from the ten values of the
    metric tape (``spacetime.PAIRS`` order), an off-diagonal pair counted twice."""
    metric = model.metric_tape.values

    def norm2(x, y):
        g00, g01, g02, g03, g11, g12, g13, g22, g23, g33 = metric(x)
        y0, y1, y2, y3 = y
        return (g00 * y0 * y0 + g11 * y1 * y1 + g22 * y2 * y2 + g33 * y3 * y3
                + 2.0 * (y0 * (g01 * y1 + g02 * y2 + g03 * y3) + y1 * (g12 * y2 + g13 * y3) + g23 * y2 * y3))

    return norm2


def _chart_and_cone_guard(model: SpacetimeModel):
    norm2 = _norm2(model)

    def guard(t, state):
        x = state[:4]
        try:
            model.check_chart(x)
        except ChartError as err:
            raise IntegrationError(f"worldline left the chart at t={t} ({err})") from None
        n2 = norm2(x, state[4:8])
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
    acceleration = _acceleration(model, alpha)

    def rhs(t, state):
        y = state[4:]
        return y + acceleration(state[:4], y)

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
    norm2, sample = _norm2(model), traj.sampler()
    vals = [norm2(s[:4], s[4:8]) for s in map(sample, np.linspace(traj.times[0], traj.t_end, DRIFT_SAMPLES))]
    return max(abs(v - vals[0]) for v in vals)


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
    acceleration = _acceleration(model, alpha)
    lorentz = base_geom.lorentz_acceleration(model, alpha)

    def rhs(t, state):
        y, yc = state[4:8], state[12:]
        return y + acceleration(state[:4], y) + yc + lorentz(state[8:12], yc)

    # one joint system so both worldlines share the accepted steps
    joint = _integrate(rhs, np.concatenate([x0, y0, x0, y0]), t_end, CLASSICAL_TOL, CLASSICAL_TOL)
    ts = np.linspace(0.0, t_end, CLASSICAL_SAMPLES)
    gap = 0.0
    for t in ts:
        s = joint.sample(t)
        gap = max(gap, float(np.max(np.abs(s[:8] - s[8:]))))
    return gap


# -- worldline deviation ----------------------------------------------------------------


# (N^i_j, E^i_j, dy^i/dt) at a point, for the initial data; the alias stays
# because bench/tracing.py hooks it by this name
_connection_and_tidal = connection_and_tidal_values


def _deviation_rates(nte, state):
    """[W - N w, E w - N W], the rates of the deviation state (w, W), from
    the deviation kernel's output nte (N and E row-major), each product of a
    matrix row and a vector written as one sum of four terms."""
    (n00, n01, n02, n03, n10, n11, n12, n13, n20, n21, n22, n23, n30, n31, n32, n33,
     e00, e01, e02, e03, e10, e11, e12, e13, e20, e21, e22, e23, e30, e31, e32, e33) = nte[:32]
    w0, w1, w2, w3, v0, v1, v2, v3 = state
    return [
        v0 - (n00 * w0 + n01 * w1 + n02 * w2 + n03 * w3),
        v1 - (n10 * w0 + n11 * w1 + n12 * w2 + n13 * w3),
        v2 - (n20 * w0 + n21 * w1 + n22 * w2 + n23 * w3),
        v3 - (n30 * w0 + n31 * w1 + n32 * w2 + n33 * w3),
        (e00 * w0 + e01 * w1 + e02 * w2 + e03 * w3) - (n00 * v0 + n01 * v1 + n02 * v2 + n03 * v3),
        (e10 * w0 + e11 * w1 + e12 * w2 + e13 * w3) - (n10 * v0 + n11 * v1 + n12 * v2 + n13 * v3),
        (e20 * w0 + e21 * w1 + e22 * w2 + e23 * w3) - (n20 * v0 + n21 * v1 + n22 * v2 + n23 * v3),
        (e30 * w0 + e31 * w1 + e32 * w2 + e33 * w3) - (n30 * v0 + n31 * v1 + n32 * v2 + n33 * v3),
    ]


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
    the plain coordinate rate dw0, not both.  State layout (w, W).
    """
    if (W0 is None) == (dw0 is None):
        raise UsageError("provide either W0 (covariant rate) or dw0 (coordinate rate), not both")
    w0 = np.asarray(w0, dtype=float)
    if W0 is None:
        s0 = base.sample(0.0)
        n0, _, _ = _connection_and_tidal(model, s0[:4], s0[4:8], alpha)
        W0 = np.asarray(dw0, dtype=float) + n0 @ w0
    else:
        W0 = np.asarray(W0, dtype=float)

    kernel, coef = deviation_kernel(model, alpha)
    sample = base.sampler()

    def rhs(t, state):
        s = sample(t)
        return _deviation_rates(kernel(s[:4], s[4:], coef), state)

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

    kernel, coef = deviation_kernel(model, alpha)
    acceleration = _acceleration(model, alpha)

    def rhs(t, state):
        y, ye = state[4:8], state[12:16]
        nte = kernel(state[:4], y, coef)
        return y + nte[32:] + ye + acceleration(state[8:12], ye) + _deviation_rates(nte, state[16:])

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
