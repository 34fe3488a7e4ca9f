"""Tangent-bundle geometry of the charged-particle connection family.

For a coupling alpha, the spray perturbation is

    B^i   = -(alpha/2) |y| F^i_j y^j,            |y| = sqrt(g_ij y^i y^j)
    N^i_j = gamma^i_jk y^k + B^i_.j              (nonlinear connection)
    delta_i = d/dx^i - N^j_i d/dy^j              (adapted horizontal basis)

and the curvature ladder is built from the tidal tensor

    R^i_jk = delta_k N^i_j - delta_j N^i_k,      E^i_j = R^i_jk y^k,
    R_j^i_kl = (1/2) (E^i_k)_.jl,                R_jl = -(1/2) (E^i_i)_.jl.

Everything is evaluated on joint 8-variable jets (x in slots 0-3, y in slots
4-7); the base fields g, g^-1, gamma, A and F are built on 4-variable jets
and lifted (``jets.lift_jets``), which gives the coefficients an 8-variable
evaluation gives, up to the sign of zero y coefficients.  Fiber derivatives
of B use the explicit closed forms; the pure jet route is kept alongside as a
cross-check (``fiber_derivs_B``).  Contractions of jet arrays go through
``jets.contract``, which gives the bits of ``@`` (the products added left to
right, as an explicit loop does) but leaves out the terms with an all-zero
factor: with a finite other factor such a term is all +0.0, and adding it to
a sum of products changes no bit.  ``np.einsum`` is used on float arrays only.

Frozen convention for the scalar-curvature split (see the decisions note and
the flat constant-field derivation in the tests): the divergence term uses the
alpha=0 connection throughout,

    div_term = delta0_i X^i + gamma^j_ji X^i,    X^i = g^{jk} B^i_jk,
    delta0_i = d/dx^i - gamma^j_ik y^k d/dy^j,

which makes  R = r + div_term + quad_term  hold pointwise, with
quad_term = -(1/2) g^{jk} (B^i_h B^h_i)_.jk = (3 alpha^2/2) F_ij F^ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import base_geom
from .errors import SingularEvaluationError, UsageError
from .jets import MAX_ORDER, Jet, contract, jet_values, lift_jets
from .spacetime import SpacetimeModel, metric_derivatives

Y_SLOT0 = 4


@dataclass
class BundlePoint:
    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        self.x = np.asarray(x, dtype=float)
        self.y = np.asarray(y, dtype=float)
        if self.x.shape != (4,) or self.y.shape != (4,):
            raise UsageError("bundle point needs 4 base and 4 fiber components")


class BundleGeometry:
    """Lazy cache of all jet-valued objects at one bundle point.

    ``order`` is the total derivative budget of the carrier jets; each object
    below consumes shift levels as annotated.  The default, ``MAX_ORDER`` (4),
    supports every object including the fiber Hessians of the tidal-tensor
    trace; an object's values are the same at every carrier order that holds
    it, so a lower order only saves work for callers that read few objects.
    """

    def __init__(self, model: SpacetimeModel, p: BundlePoint, order: int = MAX_ORDER,
                 alpha: float | None = None):
        self.model = model
        self.p = p if isinstance(p, BundlePoint) else BundlePoint(*p)
        self.order = order
        self.alpha = model.alpha if alpha is None else float(alpha)
        self.base = base_geom.BaseGeometry(model, self.p.x, order)

    # -- base fields (full carrier order) ----------------------------------------
    #
    # g, A and what they give depend on x alone: each is built on 4-variable
    # jets by ``self.base`` and lifted to the joint space, where its y
    # coefficients are zero.

    @cached_property
    def g(self) -> np.ndarray:
        return lift_jets(self.base.g, 8)

    @cached_property
    def ginv(self) -> np.ndarray:
        return lift_jets(self.base.ginv, 8)

    @cached_property
    def a_pot(self) -> np.ndarray:
        return lift_jets(self.base.a_pot, 8)

    @cached_property
    def yj(self) -> np.ndarray:
        out = np.empty(4, dtype=object)
        for i in range(4):
            out[i] = Jet.variable(Y_SLOT0 + i, self.p.y[i], self.order, 8)
        return out

    # -- one shift consumed ----------------------------------------------------

    @cached_property
    def gamma(self) -> np.ndarray:
        return lift_jets(self.base.gamma, 8)

    @cached_property
    def faraday(self) -> tuple[np.ndarray, np.ndarray]:
        return tuple(lift_jets(f, 8) for f in self.base.faraday)

    # -- fiber algebra (no shifts) ----------------------------------------------

    @cached_property
    def norm2(self) -> Jet:
        return contract(contract(self.yj, self.g), self.yj)

    @cached_property
    def norm(self) -> Jet:
        n2 = self.norm2
        if n2.value <= 0.0:
            raise SingularEvaluationError(
                f"fiber vector is not timelike: g(y,y) = {n2.value}", value=n2.value
            )
        return n2.sqrt()

    @cached_property
    def l_up(self) -> np.ndarray:
        inv = 1.0 / self.norm
        return np.array([self.yj[i] * inv for i in range(4)], dtype=object)

    @cached_property
    def l_low(self) -> np.ndarray:
        return contract(self.g, self.l_up)

    @cached_property
    def l_hess(self) -> np.ndarray:
        """Fiber Hessian of |y|: l_{j.k} = (g_jk - l_j l_k)/|y|."""
        inv = 1.0 / self.norm
        out = np.empty((4, 4), dtype=object)
        for j in range(4):
            for k in range(j, 4):
                out[j, k] = out[k, j] = (self.g[j, k] - self.l_low[j] * self.l_low[k]) * inv
        return out

    @cached_property
    def f_vec(self) -> np.ndarray:
        """F^i = F^i_j y^j."""
        _, f_mix = self.faraday
        return contract(f_mix, self.yj)

    # -- spray family -----------------------------------------------------------

    @cached_property
    def b_up(self) -> np.ndarray:
        """Spray perturbation B^i = -(alpha/2)|y| F^i."""
        coef = -0.5 * self.alpha
        return np.array([self.norm * self.f_vec[i] * coef for i in range(4)], dtype=object)

    @cached_property
    def spray(self) -> np.ndarray:
        """G^i = (1/2) gamma^i_jk y^j y^k + B^i."""
        return contract(self.n_conn0, self.yj) * 0.5 + self.b_up

    @cached_property
    def b_j(self) -> np.ndarray:
        """Closed form B^i_.j = -(alpha/2)(F^i l_j + |y| F^i_j)."""
        _, f_mix = self.faraday
        coef = -0.5 * self.alpha
        out = np.empty((4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                out[i, j] = (self.f_vec[i] * self.l_low[j] + self.norm * f_mix[i, j]) * coef
        return out

    @cached_property
    def b_jk(self) -> np.ndarray:
        """Closed form B^i_.jk = -(alpha/2)(l_{j.k} F^i + l_j F^i_k + l_k F^i_j)."""
        _, f_mix = self.faraday
        coef = -0.5 * self.alpha
        out = np.empty((4, 4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                for k in range(j, 4):
                    term = (
                        self.l_hess[j, k] * self.f_vec[i]
                        + self.l_low[j] * f_mix[i, k]
                        + self.l_low[k] * f_mix[i, j]
                    ) * coef
                    out[i, j, k] = out[i, k, j] = term
        return out

    @cached_property
    def n_conn(self) -> np.ndarray:
        """N^i_j = gamma^i_jk y^k + B^i_.j."""
        return self.n_conn0 + self.b_j

    @cached_property
    def n_conn0(self) -> np.ndarray:
        """alpha=0 connection gamma^i_jk y^k (alone in the frozen divergence term)."""
        return contract(self.gamma, self.yj)

    @cached_property
    def berwald(self) -> np.ndarray:
        """G^i_jk = gamma^i_jk + B^i_.jk (fiber Hessian of the spray)."""
        out = np.empty((4, 4, 4), dtype=object)
        for i in range(4):
            for j in range(4):
                for k in range(j, 4):
                    out[i, j, k] = out[i, k, j] = self.gamma[i, j, k] + self.b_jk[i, j, k]
        return out

    # -- adapted derivatives and curvature (more shifts consumed) -----------------

    def delta(self, f: Jet, i: int, connection: np.ndarray | None = None) -> Jet:
        """delta_i f = f_{,i} - N^j_i f_{.j} (with the alpha connection by default)."""
        n = self.n_conn if connection is None else connection
        acc = f.partial(i)
        for j in range(4):
            acc = acc - n[j, i] * f.partial(Y_SLOT0 + j)
        return acc

    @cached_property
    def n_curvature(self) -> np.ndarray:
        """R^i_jk = delta_k N^i_j - delta_j N^i_k, antisymmetric in (j,k).

        These components double as the (generally nonvanishing) torsion of the
        Berwald-type connection; no separate storage is needed."""
        out = np.empty((4, 4, 4), dtype=object)
        zero = self.n_conn[0, 0] * 0.0
        zero = zero.truncate(max(zero.order - 1, 0))
        for i in range(4):
            for j in range(4):
                out[i, j, j] = zero
            for j in range(4):
                for k in range(j + 1, 4):
                    term = self.delta(self.n_conn[i, j], k) - self.delta(self.n_conn[i, k], j)
                    out[i, j, k] = term
                    out[i, k, j] = -term
        return out

    @cached_property
    def tidal(self) -> np.ndarray:
        """E^i_j = R^i_jk y^k."""
        return contract(self.n_curvature, self.yj)

    @cached_property
    def d_riemann(self) -> np.ndarray:
        """R_j^i_kl = (1/2)(E^i_k)_.jl as float values, indexed [j, i, k, l]."""
        out = np.empty((4, 4, 4, 4))
        for i in range(4):
            for k in range(4):
                out[:, i, k, :] = 0.5 * _fiber_hessian(self.tidal[i, k])
        return out

    @cached_property
    def d_ricci(self) -> np.ndarray:
        """R_jl = -(1/2)(E^i_i)_.jl as float values (a fiber Hessian, symmetric)."""
        return -0.5 * _fiber_hessian(np.trace(self.tidal))

    @cached_property
    def d_ricci_scalar(self) -> float:
        ginv = jet_values(self.ginv)
        return float(np.einsum("jl,jl->", ginv, self.d_ricci))

    # -- scalar-curvature split ----------------------------------------------------

    @cached_property
    def f_squared(self) -> float:
        """F_ij F^ij at the base point."""
        f_low, f_mix = self.faraday
        ginv = jet_values(self.ginv)
        fl = jet_values(f_low)
        return float(np.einsum("ia,jb,ij,ab->", ginv, ginv, fl, fl))

    def divergence(self, x_vec: np.ndarray, connection: np.ndarray) -> float:
        """delta_i X^i + gamma^j_ji X^i for jets X^i, with delta_i built on ``connection``."""
        total = 0.0
        for i in range(4):
            total += self.delta(x_vec[i], i, connection).value
            for j in range(4):
                total += self.gamma[j, j, i].value * x_vec[i].value
        return total

    @cached_property
    def div_term(self) -> float:
        """delta0-divergence of X^i = g^{jk} B^i_.jk (frozen convention)."""
        # X^i summed over (j, k) row by row, g^{jk} the left factor of each term
        x_vec = contract(self.ginv.reshape(16), self.b_jk.transpose(1, 2, 0).reshape(16, 4))
        return self.divergence(x_vec, self.n_conn0)

    @cached_property
    def b_trace2(self) -> Jet:
        """B^i_.h B^h_.i."""
        return contract(self.b_j.ravel(), self.b_j.T.ravel())

    @cached_property
    def quad_term(self) -> float:
        """-(1/2) g^{jk} (B^i_h B^h_i)_.jk."""
        ginv = jet_values(self.ginv)
        hess = _fiber_hessian(self.b_trace2)
        total = 0.0
        for j in range(4):
            for k in range(4):
                total += -0.5 * ginv[j, k] * hess[j, k]
        return total

    @cached_property
    def b_scalar(self) -> Jet:
        """(3/2) B^l B_l / |y|^2 + (1/2) B^i_h B^h_i as a jet."""
        bb = contract(self.b_up, contract(self.g, self.b_up))
        return bb / self.norm2 * 1.5 + self.b_trace2 * 0.5

    @cached_property
    def b_hessian(self) -> np.ndarray:
        """Fiber Hessian of ``b_scalar`` as float values (y-independent)."""
        return _fiber_hessian(self.b_scalar)


def _fiber_hessian(f: Jet) -> np.ndarray:
    """f_.jl, the second fiber partials of a joint-space jet, as float values."""
    return f.hessian()[Y_SLOT0:, Y_SLOT0:]


# -- public operations ------------------------------------------------------------


def fiber_derivs_B(model: SpacetimeModel, p, alpha: float | None = None):
    """(B^i_.j, B^i_.jk, B^i_.jkl) values from one geometry, twice: via the
    closed forms and via pure fiber jets of B^i, returned as (closed, jets)."""
    geo = BundleGeometry(model, p, alpha=alpha)
    closed = (jet_values(geo.b_j), jet_values(geo.b_jk), np.empty((4, 4, 4, 4)))
    jets = (np.empty((4, 4)), np.empty((4, 4, 4)), np.empty((4, 4, 4, 4)))
    for i in range(4):
        firsts = [geo.b_up[i].partial(Y_SLOT0 + j) for j in range(4)]
        for j in range(4):
            jets[0][i, j] = firsts[j].value
            seconds = [firsts[j].partial(Y_SLOT0 + k) for k in range(4)]
            for k in range(4):
                jets[1][i, j, k] = seconds[k].value
                for l in range(4):
                    closed[2][i, j, k, l] = geo.b_jk[i, j, k].partial(Y_SLOT0 + l).value
                    jets[2][i, j, k, l] = seconds[k].partial(Y_SLOT0 + l).value
    return closed, jets


def adapted_derivative(model: SpacetimeModel, p, field, order: int = 2,
                       alpha: float | None = None) -> np.ndarray:
    """delta_i applied componentwise to a fiber field ``field(model, point, order)``,
    which returns a jet or an array of jets on the joint 8-variable space;
    returns jets one order down, indexed [i, *field index]."""
    geo = BundleGeometry(model, p, order=order, alpha=alpha)
    values = np.asarray(field(model, geo.p, order), dtype=object)
    out = np.empty((4, *values.shape), dtype=object)
    for idx in np.ndindex(values.shape):
        f = values[idx]
        if not isinstance(f, Jet):
            raise UsageError("fiber field must evaluate to jets")
        for i in range(4):
            out[(i, *idx)] = geo.delta(f, i)
    return out


def ricci_decomposition(model: SpacetimeModel, p, alpha: float | None = None) -> dict:
    """Split of the bundle Ricci scalar into base curvature, a divergence term,
    and the quadratic field-strength term; residual should vanish pointwise."""
    geo = BundleGeometry(model, p, alpha=alpha)
    r_bundle = geo.d_ricci_scalar
    r_base = geo.base.ricci_scalar
    div_term = geo.div_term
    quad_term = geo.quad_term
    return {
        "R": r_bundle,
        "r": r_base,
        "div_term": div_term,
        "quad_term": quad_term,
        "residual": r_bundle - r_base - div_term - quad_term,
        "f_squared": geo.f_squared,
        "alpha": geo.alpha,
    }


def generalized_einstein(model: SpacetimeModel, p, alpha: float | None = None) -> dict:
    """Generalized Einstein tensor.

    'variational' is the metric variation of the equivalent base Lagrangian
    (the classical Einstein tensor minus the alpha-scaled electromagnetic
    stress-energy); 'assembled' is the literal bundle-side combination
    sym(R_jl) - (1/2) Rtilde g_jl + Hess(B-scalar).  Their difference is
    reported, not asserted.
    """
    geo = BundleGeometry(model, p, alpha=alpha)
    a, base = geo.alpha, geo.base
    coupling = 8.0 * math.pi * (1.5 * a**2)
    variational = jet_values(base.einstein) - coupling * jet_values(base.em_stress)

    r_tilde = base.ricci_scalar + 1.5 * a**2 * geo.f_squared
    gvals = jet_values(geo.g)
    ric = geo.d_ricci
    assembled = 0.5 * (ric + ric.T) - 0.5 * r_tilde * gvals + geo.b_hessian

    return {
        "variational": variational,
        "assembled": assembled,
        "difference": float(np.max(np.abs(variational - assembled))),
        "max_abs_variational": float(np.max(np.abs(variational))),
        "alpha": a,
        "r_tilde": r_tilde,
    }


def connection_and_tidal_values(model: SpacetimeModel, x, y, alpha: float | None = None):
    """(N^i_j, E^i_j, -2 G^i) as floats from g, A and their first two
    derivatives, read from the tapes' float kernels; no jet is built.

    Float twin of ``BundleGeometry.n_conn``, ``.tidal`` and ``-2 .spray`` for the
    deviation and neighbour-oracle right-hand sides, cross-checked against that
    jet route in the tests.  Derivative indices come first: ``dg[m,i,j] =
    d_m g_ij``, ``dgamma[m,i,j,k] = d_m gamma^i_jk``, ``df_mix[m,i,j] =
    d_m F^i_j``.  B^i_.j and B^i_.jk use the closed forms above, and
    delta_k N^i_j = d_k N^i_j - N^l_k (gamma^i_jl + B^i_.jl).
    """
    alpha = model.alpha if alpha is None else float(alpha)
    y = np.asarray(y, dtype=float)
    field = base_geom.has_field(model, alpha)
    g, dg, ddg = metric_derivatives(model, x, 2, check=False)
    ginv = np.linalg.inv(g)
    # 2 gamma_hjk = d_k g_hj + d_j g_hk - d_h g_jk, then its partial d_m for m = 0..3
    dgs = np.concatenate([dg[None], ddg])
    first_kind = np.moveaxis(dgs, -3, -1) + np.swapaxes(dgs, -3, -2) - dgs
    gamma = 0.5 * np.einsum("ih,hjk->ijk", ginv, first_kind[0])
    dginv = -np.einsum("ia,mab,bh->mih", ginv, dg, ginv)
    dgamma = 0.5 * (np.einsum("mih,hjk->mijk", dginv, first_kind[0])
                    + np.einsum("ih,mhjk->mijk", ginv, first_kind[1:]))
    if field:
        _, da, dda = model.potential_tape.derivatives(x, 2)  # da[i,j] = d_i A_j
        f_low = da - da.T
        f_mix = ginv @ f_low
        df_low = dda - dda.transpose(0, 2, 1)
        df_mix = np.einsum("mih,hj->mij", dginv, f_low) + np.einsum("ih,mhj->mij", ginv, df_low)
    norm = base_geom.timelike_norm(g, y)
    n_conn = np.einsum("ijk,k->ij", gamma, y)
    dn = np.einsum("mijk,k->mij", dgamma, y)  # d_m N^i_j
    n_fiber = gamma  # N^i_j.l at [i, j, l]
    if field:
        coef = -0.5 * alpha
        dnorm = np.einsum("mij,i,j->m", dg, y, y) / (2.0 * norm)
        l_low = (g @ y) / norm
        dl_low = np.einsum("mja,a->mj", dg, y) / norm - dnorm[:, None] * l_low / norm
        phi = f_mix @ y
        dphi = df_mix @ y
        n_conn = n_conn + coef * (phi[:, None] * l_low + norm * f_mix)
        dn = dn + coef * (
            dphi[:, :, None] * l_low
            + phi[:, None] * dl_low[:, None, :]
            + dnorm[:, None, None] * f_mix
            + norm * df_mix
        )
        l_hess = (g - l_low[:, None] * l_low) / norm
        n_fiber = n_fiber + coef * (
            phi[:, None, None] * l_hess
            + l_low[:, None] * f_mix[:, None, :]
            + f_mix[:, :, None] * l_low
        )
    delta_n = dn.transpose(1, 2, 0) - np.einsum("lk,ijl->ijk", n_conn, n_fiber)  # delta_k N^i_j
    tidal = np.einsum("ijk,k->ij", delta_n - delta_n.transpose(0, 2, 1), y)
    # the spray is 2-homogeneous in y, so -2 G^i = -N^i_j y^j
    return n_conn, tidal, -(n_conn @ y)

