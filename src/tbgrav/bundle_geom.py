"""Tangent-bundle geometry of the charged-particle connection family.

For a coupling alpha, the spray perturbation is

    B^i   = -(alpha/2) |y| F^i_j y^j,            |y| = sqrt(g_ij y^i y^j)
    N^i_j = gamma^i_jk y^k + B^i_.j              (nonlinear connection)
    delta_i = d/dx^i - N^j_i d/dy^j              (adapted horizontal basis)

and the curvature ladder is built from the tidal tensor

    R^i_jk = delta_k N^i_j - delta_j N^i_k,      E^i_j = R^i_jk y^k,
    R_j^i_kl = (1/2) (E^i_k)_.jl,                R_jl = -(1/2) (E^i_i)_.jl.

Everything is evaluated on joint 8-variable jets (x in slots 0-3, y in slots
4-7) of weighted budget ``order``, x weighing 2 and y 1 (``jets``): an
adapted derivative delta takes 2 of the budget (its x-partial), and a fiber
derivative 1.  The curvature ladder takes one delta and then only fiber
derivatives, so the default budget 4 holds every object.  The base fields g,
g^-1, gamma, A and F are built on 4-variable jets at total order
budget // 2 + 1 (gamma and F one less, which still determines the budget)
and lifted (``JetArray.lift``), which gives the coefficients an 8-variable
evaluation gives, up to the sign of zero y coefficients.  Fiber derivatives
of B use the explicit closed forms; the pure jet route is kept alongside as a
cross-check (``fiber_derivs_B``).  Each object is one ``JetArray``, formed by
whole-tensor operations: a contraction or a sum of products is one masked
kernel call (``jet_arrays.sum_of_products``), which gives the bits of the
left-to-right jet sum but leaves out the terms with an all-zero factor (the
mask rules of ``jet_arrays``).  A geometry forms each object for every point
of its batch at once, with a leading point axis (one point is a batch of
one), and gives every point the bits it has alone.  ``np.einsum`` is used on
float arrays only, one point at a time.
The deviation and oracle right-hand sides read N, E and the spray from a
float twin of this route, one straight-line kernel written from the model's
tapes (``deviation_kernel``; at a point, ``connection_and_tidal_values``).

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
from .errors import UsageError
from .base_geom import STRICT, antisymmetric, point_sum, symmetric
from .jet_arrays import JetArray, concat, contract, products, sum_of_products
from .jets import MAX_ORDER, jet_space, variable_rows
from .spacetime import UPPER, SpacetimeModel

Y_SLOT0 = 4
_X_ONLY = ("model", "order", "space", "alpha", "base", "g", "ginv", "gamma", "faraday")  # attributes free of y


@dataclass
class BundlePoint:
    """A batch of P bundle points (x, y), x and y of shape (P, 4); an x or y
    of shape (4,) is a batch of one."""

    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        if x.shape[-1:] != (4,) or y.shape[-1:] != (4,) or max(x.ndim, y.ndim) > 2 or x.size != y.size:
            raise UsageError("bundle point needs 4 base and 4 fiber components")
        self.x, self.y = x.reshape(-1, 4), y.reshape(-1, 4)


class BundleGeometry:
    """Lazy cache of all jet-valued objects at each point of a batch of
    bundle points (a ``BundlePoint``).

    ``order`` is the weighted budget of the carrier jets: delta (an x-shift)
    consumes 2 of it and a fiber derivative 1, as annotated below.  The
    default, ``MAX_ORDER`` (4), supports every object, the fiber Hessians of
    the tidal tensor (delta, then two fiber derivatives) included; an
    object's values are the same at every budget that holds it, so a lower
    budget only saves work for callers that read few objects.  The base
    geometry runs at total order order // 2 + 1, which g, g^-1, gamma and F
    need and no more.
    As in ``BaseGeometry``, every object has a leading point axis (a float
    object is an array of one float per point), and every point has the bits
    it has alone.
    """

    def __init__(self, model: SpacetimeModel, p: BundlePoint, order: int = MAX_ORDER,
                 alpha: float | None = None):
        self.model = model
        self.p = p if isinstance(p, BundlePoint) else BundlePoint(*p)
        self.order = order
        self.space = jet_space(order, 8)
        self.alpha = model.alpha if alpha is None else float(alpha)
        self.base = base_geom.BaseGeometry(model, self.p.x, order // 2 + 1)

    def at_fiber(self, y) -> "BundleGeometry":
        """The geometry at (x, y) for the same model, order and alpha; it
        shares this one's base geometry and the lifted fields of x alone."""
        geo = object.__new__(BundleGeometry)
        geo.__dict__.update({k: v for k, v in self.__dict__.items() if k in _X_ONLY})
        geo.p = BundlePoint(self.p.x, y)
        return geo

    def at_alpha(self, alpha: float) -> "BundleGeometry":
        """The geometry at the same points and order for the coupling alpha;
        like ``at_fiber`` it shares the base geometry and the lifted fields of
        x alone, none of which depends on alpha."""
        geo = self.at_fiber(self.p.y)
        geo.alpha = float(alpha)
        return geo

    # -- base fields (full carrier budget) ----------------------------------------
    #
    # g, A and what they give depend on x alone: each is built on 4-variable
    # jets by ``self.base`` and lifted to the joint space, where its y
    # coefficients are zero and its x coefficients of total order k weigh 2k
    # (a field of total order k determines budget 2k + 1).

    @cached_property
    def g(self) -> JetArray:
        return self.base.g.lift(self.space)

    @cached_property
    def ginv(self) -> JetArray:
        return self.base.ginv.lift(self.space)

    @cached_property
    @np.errstate(invalid="ignore")
    def yj(self) -> JetArray:
        for g, y in zip(self.base.g.values, self.p.y):
            base_geom.timelike_norm(g, y)
        rows = [variable_rows(Y_SLOT0 + k, self.p.y[:, k], self.order, 8) for k in range(4)]
        return JetArray(self.space, np.stack(rows, axis=1))

    # -- one shift consumed ----------------------------------------------------

    @cached_property
    def gamma(self) -> JetArray:
        return self.base.gamma.lift(self.space)

    @cached_property
    def faraday(self) -> tuple[JetArray, JetArray]:
        return tuple(f.lift(self.space) for f in self.base.faraday)

    # -- fiber algebra (no shifts) ----------------------------------------------

    @cached_property
    def norm2(self) -> JetArray:
        return contract(contract(self.yj, self.g), self.yj)

    @cached_property
    def norm(self) -> JetArray:
        return self.norm2.sqrt()

    @cached_property
    def inv_norm(self) -> JetArray:
        return 1.0 / self.norm

    @cached_property
    def l_up(self) -> JetArray:
        return self.yj * self.inv_norm

    @cached_property
    def l_low(self) -> JetArray:
        return contract(self.g, self.l_up)

    @cached_property
    def l_hess(self) -> JetArray:
        """Fiber Hessian of |y|: l_{j.k} = (g_jk - l_j l_k)/|y|."""
        j, k = UPPER
        outer = products(self.l_low, self.l_low, j, k)
        return symmetric((self.g[UPPER] - outer) * self.inv_norm)

    @cached_property
    def f_vec(self) -> JetArray:
        """F^i = F^i_j y^j."""
        _, f_mix = self.faraday
        return contract(f_mix, self.yj)

    # -- spray family -----------------------------------------------------------

    @cached_property
    def b_up(self) -> JetArray:
        """Spray perturbation B^i = -(alpha/2)|y| F^i."""
        return self.norm * self.f_vec * (-0.5 * self.alpha)

    @cached_property
    def spray(self) -> JetArray:
        """G^i = (1/2) gamma^i_jk y^j y^k + B^i."""
        return contract(self.n_conn0, self.yj) * 0.5 + self.b_up

    @cached_property
    def b_j(self) -> JetArray:
        """Closed form B^i_.j = -(alpha/2)(F^i l_j + |y| F^i_j)."""
        (left, (vec, norm)), (right, (low, mix)) = concat(self.f_vec, self.norm), concat(self.l_low, self.faraday[1])
        i, j = np.arange(4)[:, None], np.arange(4)
        # F^i l_j + |y| F^i_j, indexed [i, j]
        return sum_of_products(left, right, [vec + i, norm + 0 * j], [low + j, mix + i * 4 + j]) * (-0.5 * self.alpha)

    @cached_property
    def b_jk(self) -> JetArray:
        """Closed form B^i_.jk = -(alpha/2)(l_{j.k} F^i + l_j F^i_k + l_k F^i_j)."""
        (left, (hess, low)), (right, (vec, mix)) = concat(self.l_hess, self.l_low), concat(self.f_vec, self.faraday[1])
        i, (j, k) = np.arange(4)[:, None], UPPER
        # l_{j.k} F^i + l_j F^i_k + l_k F^i_j, indexed [i, pair]
        upper = sum_of_products(left, right, [hess + j * 4 + k, low + j, low + k],
                                [vec + i, mix + i * 4 + k, mix + i * 4 + j]) * (-0.5 * self.alpha)
        return symmetric(upper.transpose(1, 0)).transpose(2, 0, 1)

    @cached_property
    def n_conn(self) -> JetArray:
        """N^i_j = gamma^i_jk y^k + B^i_.j."""
        return self.n_conn0 + self.b_j

    @cached_property
    def n_conn0(self) -> JetArray:
        """alpha=0 connection gamma^i_jk y^k (alone in the frozen divergence term)."""
        return contract(self.gamma, self.yj)

    @cached_property
    def berwald(self) -> JetArray:
        """G^i_jk = gamma^i_jk + B^i_.jk (fiber Hessian of the spray)."""
        return self.gamma + self.b_jk

    # -- adapted derivatives and curvature (more of the budget consumed) ----------

    def delta(self, f: JetArray, connection: JetArray | None = None) -> JetArray:
        """delta_i f = f_{,i} - N^j_i f_{.j} for i = 0..3, a new leading axis,
        for any jet array f on the joint space (else ``UsageError``), with
        the alpha connection by default, 2 below f's budget (the x-partial's);
        the four terms are subtracted in j order."""
        if not isinstance(f, JetArray):
            raise UsageError("adapted derivative needs a jet array")
        n = self.n_conn if connection is None else connection
        d = f.partials(range(8))
        size = math.prod(f.shape)
        j, i = np.ix_(range(4), range(4))
        # N^j_i f_{.j}, indexed [j, i, entry of f]
        terms = products(n, d, (j * 4 + i)[..., None], ((Y_SLOT0 + j) * size)[..., None] + np.arange(size))
        terms = terms.reshape(4, 4, *f.shape)
        acc = d[:4]
        for m in range(4):
            acc = acc - terms[m]
        return acc

    @cached_property
    def n_curvature(self) -> JetArray:
        """R^i_jk = delta_k N^i_j - delta_j N^i_k, antisymmetric in (j,k).

        These components double as the (generally nonvanishing) torsion of the
        Berwald-type connection; no separate storage is needed."""
        adapted = self.delta(self.n_conn)  # [k, i, j]
        j, k = STRICT
        strict = adapted[k, :, j] - adapted[j, :, k]  # [pair, i]
        return antisymmetric(strict, self.n_conn[0, 0] * 0.0).transpose(2, 0, 1)

    @cached_property
    def tidal(self) -> JetArray:
        """E^i_j = R^i_jk y^k."""
        return contract(self.n_curvature, self.yj)

    @cached_property
    def d_riemann(self) -> np.ndarray:
        """R_j^i_kl = (1/2)(E^i_k)_.jl as float values, indexed [j, i, k, l]."""
        # C order, as the einsum of ``tidal_reconstruction`` sums in memory order
        return np.ascontiguousarray(np.moveaxis(0.5 * _fiber_hessian(self.tidal), -2, -4))

    @cached_property
    def d_ricci(self) -> np.ndarray:
        """R_jl = -(1/2)(E^i_i)_.jl as float values (a fiber Hessian, symmetric)."""
        e = self.tidal
        return -0.5 * _fiber_hessian(e[0, 0] + e[1, 1] + e[2, 2] + e[3, 3])

    @cached_property
    def d_ricci_scalar(self) -> np.ndarray:
        return base_geom.per_point(lambda ginv, ric: float(np.einsum("jl,jl->", ginv, ric)), self.ginv.values,
                                   self.d_ricci)

    # -- scalar-curvature split ----------------------------------------------------

    @cached_property
    def f_squared(self) -> np.ndarray:
        """F_ij F^ij at the base point."""
        f_low, f_mix = self.faraday
        return base_geom.per_point(lambda ginv, fl: float(np.einsum("ia,jb,ij,ab->", ginv, ginv, fl, fl)),
                                   self.ginv.values, f_low.values)

    def divergence(self, x_vec: JetArray, connection: JetArray) -> np.ndarray:
        """div(X) = delta_i X^i + gamma^j_ji X^i for a horizontal field X^i(x, y),
        a (4,) jet array on the joint space (else ``UsageError``), with delta_i
        built on ``connection``.  The horizontal lift of a base field Y(x) is
        Y evaluated on ``model.coord_env(p.x, order, nvars=8)``."""
        if not (isinstance(x_vec, JetArray) and x_vec.shape == (4,)):
            raise UsageError("horizontal field must be a jet array of 4 components")
        adapted = self.delta(x_vec, connection).values.diagonal(0, -2, -1)
        trace = self.gamma.values.diagonal(0, -3, -2) * x_vec.values[..., None]  # [i, j]: gamma^j_ji X^i
        return point_sum(np.concatenate([adapted[..., None], trace], axis=-1), 2)

    @cached_property
    def div_term(self) -> np.ndarray:
        """delta0-divergence of X^i = g^{jk} B^i_.jk (frozen convention)."""
        # X^i summed over (j, k) row by row, g^{jk} the left factor of each term
        x_vec = contract(self.ginv.reshape(16), self.b_jk.transpose(1, 2, 0).reshape(16, 4))
        return self.divergence(x_vec, self.n_conn0)

    @cached_property
    def b_trace2(self) -> JetArray:
        """B^i_.h B^h_.i."""
        return contract(self.b_j.ravel(), self.b_j.T.ravel())

    @cached_property
    def quad_term(self) -> np.ndarray:
        """-(1/2) g^{jk} (B^i_h B^h_i)_.jk."""
        return point_sum(-0.5 * self.ginv.values * _fiber_hessian(self.b_trace2), 2)

    @cached_property
    def b_scalar(self) -> JetArray:
        """(3/2) B^l B_l / |y|^2 + (1/2) B^i_h B^h_i as a 0-d jet array."""
        bb = contract(self.b_up, contract(self.g, self.b_up))
        return bb / self.norm2 * 1.5 + self.b_trace2 * 0.5

    @cached_property
    def b_hessian(self) -> np.ndarray:
        """Fiber Hessian of ``b_scalar`` as float values (y-independent)."""
        return _fiber_hessian(self.b_scalar)


def _fiber_hessian(f: JetArray) -> np.ndarray:
    """f_.jl, the second fiber partials of a joint-space jet array (budget 2
    or more), as float values indexed [point, *f.shape, j, l]: the y-y block
    of its Hessian."""
    return f.hessian()[..., Y_SLOT0:, Y_SLOT0:]


# -- public operations ------------------------------------------------------------


def fiber_derivs_B(geo: BundleGeometry):
    """(B^i_.j, B^i_.jk, B^i_.jkl) values of a geometry, twice: via the
    closed forms and via pure fiber jets of B^i, returned as (closed, jets)."""
    fiber = range(Y_SLOT0, Y_SLOT0 + 4)
    firsts = geo.b_up.partials(fiber)  # [j, i]
    seconds = firsts.partials(fiber)  # [k, j, i]
    closed = (geo.b_j.values, geo.b_jk.values, geo.b_jk.partials(fiber).transpose(1, 2, 3, 0).values)
    jets = (firsts.T.values, seconds.transpose(2, 1, 0).values, seconds.partials(fiber).transpose(3, 2, 1, 0).values)
    return closed, jets


def ricci_decomposition(geo: BundleGeometry) -> dict:
    """Split of a geometry's bundle Ricci scalar into base curvature, a
    divergence term, and the quadratic field-strength term; residual should
    vanish pointwise."""
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


def generalized_einstein(geo: BundleGeometry) -> dict:
    """Generalized Einstein tensor of a geometry.

    'variational' is the metric variation of the equivalent base Lagrangian
    (the classical Einstein tensor minus the alpha-scaled electromagnetic
    stress-energy); 'assembled' is the literal bundle-side combination
    sym(R_jl) - (1/2) Rtilde g_jl + Hess(B-scalar).  Their difference is
    reported, not asserted.
    """
    a, base = geo.alpha, geo.base
    coupling = 8.0 * math.pi * (1.5 * a**2)
    variational = base.einstein.values - coupling * base.em_stress.values

    r_tilde = base.ricci_scalar + 1.5 * a**2 * geo.f_squared
    gvals = geo.g.values
    ric = geo.d_ricci
    assembled = 0.5 * (ric + np.swapaxes(ric, -1, -2)) - (0.5 * r_tilde)[:, None, None] * gvals + geo.b_hessian
    return {
        "variational": variational,
        "assembled": assembled,
        "difference": np.max(np.abs(variational - assembled), axis=(-2, -1)),
        "max_abs_variational": np.max(np.abs(variational), axis=(-2, -1)),
        "alpha": a,
        "r_tilde": r_tilde,
    }


def connection_and_tidal_values(model: SpacetimeModel, x, y, alpha: float | None = None):
    """(N^i_j, E^i_j, -2 G^i) as floats at (x, y): the float twin of
    ``BundleGeometry``'s ``n_conn``, ``tidal`` and ``-2 spray``, cross-checked
    against them in the tests.  One straight-line kernel per model and field
    switch, alpha its argument (``deviation_kernel``, which the deviation and
    neighbour-oracle right-hand sides call directly); no jet is built.  Raises
    ``SingularEvaluationError`` unless 0 < g(y,y) < inf."""
    kernel, coef = deviation_kernel(model, alpha)
    out = np.array(kernel(x, np.asarray(y, dtype=float).tolist(), coef))
    return out[:16].reshape(4, 4), out[16:32].reshape(4, 4), out[32:]


def deviation_kernel(model: SpacetimeModel, alpha: float | None):
    """(kernel, coef): the model's deviation kernel ``(x, y, coef) -> [N^i_j
    (16, row-major), E^i_j (16), -2 G^i (4)]`` for the coupling alpha, y a
    list of floats, and its argument coef = -alpha/2 (``_write_deviation``,
    written once per model and field switch)."""
    alpha = model.alpha if alpha is None else float(alpha)
    potential = model.potential_tape if base_geom.has_field(model, alpha) else None
    return model.metric_tape.kernel(_write_deviation, potential), -0.5 * alpha


def _write_deviation(metric, potential):
    """The deviation kernel ``(x, y, coef) -> [N^i_j (16), E^i_j (16), -N^i_j
    y^j (4)]``, coef = -alpha/2, from the metric tape and, unless None, the
    potential tape at order 2.  Each term is formed with a lower index and
    raised by g^-1 last.  N lowered is

        M_hj = gamma_hjk y^k + coef (F_h l_j + |y| F_hj),   F_h = F_hk y^k,  l_j = g_jk y^k / |y|,

    and d_m N^i_j = g^ih (d_m M_hj - d_m g_ha N^a_j) needs no partial of g^-1.
    With S^l = N^l_k y^k, and N^i_.kl y^k = N^i_l (N is 1-homogeneous in y),

        E^i_j = y^k d_k N^i_j - y^k d_j N^i_k - N^i_.jl S^l + N^l_j N^i_l,

    where y^k d_j M_hk = d_j (M_hk y^k).  The second partials of g enter only
    as y^m y^k (d_m d_k g_hj + d_h d_j g_mk - d_h d_m g_jk - d_j d_m g_hk) / 2,
    those of A only as y^m d_m F_hj and d_j F_h.
    """
    w = base_geom.FiberWriter(2, metric)
    y, g, first, combine, merged = w.y, w.g, w.first, w.combine, w.merged
    slot, fac = (t.tolist() for t in w.space.second_index)
    four = range(4)

    def dg(m, i, j):  # d_m g_ij
        return g[i][j][first[m]]

    def ddg(m, k, i, j, coef, factor):  # the term coef * d_m d_k g_ij * factor
        return coef * fac[m][k], (g[i][j][slot[m][k]], factor)

    def df(m, h, j, factor):  # the terms of d_m F_hj * factor, F_hj = d_h A_j - d_j A_h
        return [(fac[m][h], (a[j][slot[m][h]], factor)), (-fac[m][j], (a[h][slot[m][j]], factor))]

    dg_y = [[None] * 4 for _ in four]  # y^m d_m g_ik
    for i in four:
        for k in range(i, 4):
            dg_y[i][k] = dg_y[k][i] = combine([(1.0, [dg(m, i, k), y[m]]) for m in four])
    m_low = [[merged([(0.5, (dg(k, h, j), y[k])) for k in four] + [(0.5, (dg(j, h, k), y[k])) for k in four]
                     + [(-0.5, (dg(h, j, k), y[k])) for k in four]) for j in four] for h in four]
    if potential is not None:
        a = w.run(potential)
        f = [[0.0 if h == j else combine([(1.0, [a[j][first[h]]]), (-1.0, [a[h][first[j]]])]) for j in four]
             for h in four]  # F_hj = d_h A_j - d_j A_h
        f_y = [combine([(1.0, [f[h][j], y[j]]) for j in four]) for h in four]
        norm = w.let(w.call(math.sqrt, w.n2))
        cr, cnorm = w.let(f"coef / {norm}"), w.let(f"coef * {norm}")
        gy = [combine([(1.0, [g[j][k][0], y[k]]) for k in four]) for j in four]
        cl = [combine([(1.0, [cr, gy[j]])]) for j in four]  # coef l_j
        for h in four:
            for j in four:
                m_low[h][j] += [(1.0, [f_y[h], cl[j]]), (1.0, [cnorm, f[h][j]])]
    m_low = [[combine(terms) for terms in row] for row in m_low]
    n = [list(row) for row in zip(*(w.raise_index([m_low[h][j] for h in four]) for j in four))]
    s = [combine([(1.0, [n[i][k], y[k]]) for k in four]) for i in four]  # S^i

    if potential is not None:
        dn2 = [combine([(1.0 if i == k else 2.0, [dg(m, i, k), w.pair[i, k]]) for i in four for k in range(i, 4)])
               for m in four]  # d_m g(y,y)
        g_s = [combine([(1.0, [g[j][l][0], s[l]]) for l in four]) for j in four]
        # kappa = y^m d_m (coef |y|) - coef l_l S^l, rho = kappa / g(y,y)
        kappa = combine([(0.5, [cr, dn2[m], y[m]]) for m in four] + [(-1.0, [cr, gy[l], s[l]]) for l in four])
        rho = w.let(f"{w.ref(kappa)} / {w.ref(w.n2)}")
        # E_hj's field terms: F_h v_j + l_j coef z_h + kappa F_hj + coef |y| (y^m d_m F_hj - 2 d_j F_h)
        v = [combine([(1.0, [cr, dg_y[j][b], y[b]]) for b in four] + [(-1.0, [cr, g_s[j]]), (-1.0, [cr, dn2[j]]),
                                                                      (-1.0, [rho, gy[j]])]) for j in four]
        df_y = [[combine(merged([t for j in four for t in df(m, h, j, y[j])])) for h in four] for m in four]  # d_m F_h
        z = [combine([(1.0, [df_y[m][h], y[m]]) for m in four] + [(-1.0, [f[h][l], s[l]]) for l in four])
             for h in four]

    def e_terms(h, j):  # the terms of E lowered, E_hj = g_hi E^i_j
        terms = [t for m in four for k in four for t in (
            ddg(m, k, h, j, 0.5, w.pair[m, k]), ddg(h, j, m, k, 0.5, w.pair[m, k]),
            ddg(h, m, j, k, -0.5, w.pair[m, k]), ddg(j, m, h, k, -0.5, w.pair[m, k]))]
        # -gamma_hjl S^l + d_j g_hl S^l, then (M_hl - y^m d_m g_hl) N^l_j
        terms += [(c, (entry, s[l])) for l in four for c, entry in ((0.5, dg(j, h, l)), (0.5, dg(h, j, l)),
                                                                     (-0.5, dg(l, h, j)))]
        terms = merged(terms) + [(1.0, [m_low[h][l], n[l][j]]) for l in four]
        terms += [(-1.0, [dg_y[h][l], n[l][j]]) for l in four]
        if potential is None:
            return terms
        terms += [(1.0, [f_y[h], v[j]]), (1.0, [cl[j], z[h]]), (1.0, [kappa, f[h][j]]), (-2.0, [cnorm, df_y[j][h]])]
        return terms + [(c, [cnorm, *fs]) for c, fs in merged([t for m in four for t in df(m, h, j, y[m])])]

    e_low = [[combine(e_terms(h, j)) for j in four] for h in four]
    e = [list(row) for row in zip(*(w.raise_index([e_low[h][j] for h in four]) for j in four))]
    flat = [n[i][j] for i in four for j in four] + [e[i][j] for i in four for j in four]
    return w.compile("x, y, coef", flat + [combine([(-1.0, [s[i]])]) for i in four], "<deviation kernel>")
