"""Classical geometry on the base manifold: Levi-Civita connection, curvature,
Faraday tensor, Maxwell residuals, electromagnetic stress-energy, and the
classical Einstein-Maxwell combination.

Conventions (frozen by the Schwarzschild/Reissner-Nordstrom anchor tests):

    gamma^i_jk = (1/2) g^{ih} (d_k g_hj + d_j g_hk - d_h g_jk)
    r^i_jkl    = d_k gamma^i_jl - d_l gamma^i_jk
                 + gamma^i_mk gamma^m_jl - gamma^i_ml gamma^m_jk
    r_jl       = r^i_jil           (contraction over the first derivative slot)
    F_ij       = d_i A_j - d_j A_i
    T^f_ij     = EM_STRESS_SIGN * (1/4pi) (-F_il F_j^l + (1/4) g_ij F^lm F_lm)

With these choices the weak-field Ricci scalar is positive for a negative
potential well and Reissner-Nordstrom satisfies G_ij = (8 pi k / c^4) T^f_ij.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import SingularEvaluationError, UsageError
from .jets import Jet, contract, jet_values
from .spacetime import _ROOT, SpacetimeModel, metric_derivatives, metric_jet, potential_jet

_ROOT_LIST = _ROOT.tolist()  # [i][j] -> the metric tape's root for g_ij

# Sign switch for the electromagnetic stress-energy tensor; see module docstring.
EM_STRESS_SIGN = +1.0


# -- jet-matrix utilities -------------------------------------------------------


def invert_jet_matrix(g: np.ndarray) -> np.ndarray:
    """Inverse of a 4x4 jet matrix via the truncated Neumann series around the
    inverse of its value part."""
    g0 = jet_values(g)
    try:
        g0inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError:
        raise SingularEvaluationError("metric value matrix is singular") from None
    # X = -g0inv . (g - g0) has zero value part, so X^(order+1) truncates away;
    # it is formed transposed so that every product is jet * float.  Those
    # products are scaled copies, which may hold -0.0, so they stay dense ``@``.
    x = ((g - g0).T @ -g0inv.T).T
    s = x.copy()  # S = I + X + X^2 + ... + X^order, then ginv = S . g0inv
    s[range(4), range(4)] += 1.0
    power = x
    for _ in range(g[0, 0].order - 1):
        power = contract(power, x)
        s = s + power
    return s @ g0inv


def det_jet_matrix(g: np.ndarray) -> Jet:
    """Determinant of a 4x4 jet matrix by cofactor expansion along row 0."""

    def det3(m, rows, cols):
        (r0, r1, r2), (c0, c1, c2) = rows, cols
        return (
            m[r0, c0] * (m[r1, c1] * m[r2, c2] - m[r1, c2] * m[r2, c1])
            - m[r0, c1] * (m[r1, c0] * m[r2, c2] - m[r1, c2] * m[r2, c0])
            + m[r0, c2] * (m[r1, c0] * m[r2, c1] - m[r1, c1] * m[r2, c0])
        )

    cofactors = np.empty(4, dtype=object)
    for j in range(4):
        minor = det3(g, (1, 2, 3), tuple(c for c in range(4) if c != j))
        cofactors[j] = -minor if j % 2 else minor
    return contract(g[0], cofactors)


def sqrt_minus_det(g: np.ndarray) -> Jet:
    return (-det_jet_matrix(g)).sqrt()


def _symmetric(row) -> np.ndarray:
    """4x4 object array filled from its upper triangle, ``row(i)`` giving the
    entries j >= i; mirrored entries share one jet."""
    out = np.empty((4, 4), dtype=object)
    for i in range(4):
        out[i, i:] = out[i:, i] = row(i)
    return out


# -- connection and curvature kernels --------------------------------------------


def christoffel_jets(g: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """gamma^i_jk from a jet-valued metric and its inverse; symmetric entries share storage."""
    dg = np.empty((4, 4, 4), dtype=object)  # dg[k,i,j] = d_k g_ij
    for i in range(4):
        for j in range(i, 4):
            for k in range(4):
                dg[k, i, j] = dg[k, j, i] = g[i, j].partial(k)
    gamma = np.empty((4, 4, 4), dtype=object)
    for j in range(4):
        for k in range(j, 4):
            first_kind = dg[k, :, j] + dg[j, :, k] - dg[:, j, k]  # 2 gamma_hjk over h
            gamma[:, j, k] = gamma[:, k, j] = contract(ginv, first_kind) * 0.5
    return gamma


def riemann_jets(gamma: np.ndarray) -> np.ndarray:
    """r^i_jkl, antisymmetric in (k,l)."""
    dgam = np.empty((4, 4, 4, 4), dtype=object)  # dgam[k,i,j,l] = d_k gamma^i_jl
    for i in range(4):
        for j in range(4):
            for l in range(j, 4):
                for k in range(4):
                    dgam[k, i, j, l] = dgam[k, i, l, j] = gamma[i, j, l].partial(k)
    riem = np.empty((4, 4, 4, 4), dtype=object)
    zero = gamma[0, 0, 0] * 0.0
    for k in range(4):
        riem[:, :, k, k] = zero
        for l in range(k + 1, 4):
            r = (dgam[k, :, :, l] - dgam[l, :, :, k]
                 + contract(gamma[:, :, k], gamma[:, :, l]) - contract(gamma[:, :, l], gamma[:, :, k]))
            riem[:, :, k, l] = r
            riem[:, :, l, k] = -r
    return riem


def faraday_jets(a: np.ndarray, ginv: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(F_ij, F^i_j) from potential jets."""
    f_low = np.empty((4, 4), dtype=object)
    zero = a[0] * 0.0
    for i in range(4):
        f_low[i, i] = zero
        for j in range(i + 1, 4):
            fij = a[j].partial(i) - a[i].partial(j)
            f_low[i, j] = fij
            f_low[j, i] = -fij
    return f_low, contract(ginv, f_low)


def raise_both_indices(s_low: np.ndarray, ginv: np.ndarray) -> np.ndarray:
    """S^{ij} = g^{ia} g^{jb} S_ab for a symmetric 4x4 object array."""
    return _symmetric(lambda i: contract(ginv[i:], contract(ginv[i], s_low)))


# -- one base point --------------------------------------------------------------


class BaseGeometry:
    """Lazy cache of the jet-valued base objects at one point x.

    ``order`` is the carrier order of the 4-variable jets of g and A.  The
    connection and F hold one level less, the curvature and the tensors built
    on it two less; an object's values are the same at every carrier order
    that holds it.  Arrays are indexed as their symbols are written, and
    mirrored entries of a symmetric tensor are one jet.
    """

    def __init__(self, model: SpacetimeModel, x, order: int):
        self.model = model
        self.x = np.asarray(x, dtype=float)
        self.order = order

    @cached_property
    def g(self) -> np.ndarray:
        return metric_jet(self.model, self.x, order=self.order)

    @cached_property
    def ginv(self) -> np.ndarray:
        return invert_jet_matrix(self.g)

    @cached_property
    def a_pot(self) -> np.ndarray:
        return potential_jet(self.model, self.x, order=self.order, check=False)

    @cached_property
    def gamma(self) -> np.ndarray:
        """gamma^i_jk."""
        return christoffel_jets(self.g, self.ginv)

    @cached_property
    def riemann(self) -> np.ndarray:
        """r^i_jkl."""
        return riemann_jets(self.gamma)

    @cached_property
    def ricci(self) -> np.ndarray:
        """r_jl = r^i_jil."""
        return np.trace(self.riemann, axis1=0, axis2=2)

    @cached_property
    def ricci_scalar(self) -> float:
        """g^jl r_jl from the values, summed row by row."""
        total = 0.0
        for j in range(4):
            for l in range(4):
                total += self.ginv[j, l].value * self.ricci[j, l].value
        return total

    @cached_property
    def faraday(self) -> tuple[np.ndarray, np.ndarray]:
        """(F_ij, F^i_j)."""
        ginv = self.ginv  # the metric's chart check runs before the unchecked potential
        return faraday_jets(self.a_pot, ginv)

    @cached_property
    def em_stress(self) -> np.ndarray:
        """Electromagnetic stress-energy T^f_ij (symmetric, trace-free)."""
        f_low, f_mix = self.faraday
        f_up = contract(f_mix, self.ginv)  # F^{lm} = F^l_a g^{am}
        quarter_f2 = contract(f_up.ravel(), f_low.ravel()) * 0.25  # F^{lm} F_lm / 4
        coeff = EM_STRESS_SIGN / (4.0 * math.pi)
        # -F_il F_j^l = +F_il F^l_j
        return _symmetric(lambda i: (contract(f_low[i], f_mix[:, i:]) + self.g[i, i:] * quarter_f2) * coeff)

    @cached_property
    def einstein(self) -> np.ndarray:
        """G_jl = r_jl - (1/2) g_jl g^ab r_ab."""
        ric = self.ricci
        half_scalar = contract(self.ginv.ravel(), ric.ravel()) * 0.5
        return _symmetric(lambda i: ric[i, i:] - self.g[i, i:] * half_scalar)

    @cached_property
    def einstein_maxwell(self) -> np.ndarray:
        """CEM_ij = G_ij - (8 pi k / c^4) T^f_ij; zero on electrovacuum solutions."""
        gt, t = self.einstein, self.em_stress
        kappa = 8.0 * math.pi * self.model.k / self.model.c**4
        return _symmetric(lambda i: gt[i, i:] - t[i, i:] * kappa)


# -- residuals -------------------------------------------------------------------


def maxwell_cyclic_residual(model: SpacetimeModel, x) -> np.ndarray:
    """H_ijk = nabla_i F_jk + nabla_k F_ij + nabla_j F_ki from explicit
    covariant derivatives (the Christoffel terms must cancel)."""
    geo = BaseGeometry(model, x, 3)
    f_low, _ = geo.faraday
    gamma = geo.gamma

    cov_df = np.empty((4, 4, 4), dtype=object)  # cov_df[i,j,k] = nabla_i F_jk
    for i, j, k in np.ndindex(4, 4, 4):
        acc = f_low[j, k].partial(i)
        for m in range(4):
            acc = acc - gamma[m, i, j] * f_low[m, k]
            acc = acc - gamma[m, i, k] * f_low[j, m]
        cov_df[i, j, k] = acc
    return jet_values(cov_df + cov_df.transpose(1, 2, 0) + cov_df.transpose(2, 0, 1))


def densitized_divergence(s: Jet, v_up) -> float:
    """sum_j d_j(s V^j) at the point, for the density jet s = sqrt(-g) and the
    four component jets V^j; callers divide by s themselves."""
    acc = 0.0
    for j in range(4):
        acc += (s * v_up[j]).partial(j).value
    return acc


def maxwell_current(model: SpacetimeModel, x) -> np.ndarray:
    """Source current J^i = -(c/4pi) (1/sqrt(-g)) d_j(sqrt(-g) F^ij), densitized form."""
    geo = BaseGeometry(model, x, 3)
    _, f_mix = geo.faraday
    s = sqrt_minus_det(geo.g)
    f_up = contract(f_mix, geo.ginv.T)
    coeff = -model.c / (4.0 * math.pi)
    return np.array([coeff * densitized_divergence(s, f_up[i]) / s.value for i in range(4)])


def covariant_divergence(geo: BaseGeometry, s_upper: np.ndarray) -> np.ndarray:
    """div_j S^{ij} at the geometry's point, with its gamma, for a 4x4 object
    array of jets S^{ij} carrying at least one derivative level."""
    if not (isinstance(s_upper, np.ndarray) and s_upper.shape == (4, 4) and s_upper.dtype == object):
        raise UsageError("divergence needs a 4x4 object array of jets")
    if s_upper[0, 0].order < 1:
        raise UsageError("divergence needs jets carrying a derivative level")
    gamma = geo.gamma
    out = np.zeros(4)
    for i in range(4):
        acc = 0.0
        for j in range(4):
            acc += s_upper[i, j].partial(j).value
            for m in range(4):
                acc += gamma[i, m, j].value * s_upper[m, j].value
                acc += gamma[j, m, j].value * s_upper[i, m].value
        out[i] = acc
    return out


# -- float point kernel (hot paths in dynamics) ------------------------------------


@dataclass
class PointFields:
    """Float metric, Levi-Civita and Faraday values at one base point.

    Derivative indices come first: ``dg[m,i,j] = d_m g_ij``.  At order 2 the
    kernel adds ``dgamma[m,i,j,k] = d_m gamma^i_jk`` and ``df_mix[m,i,j] =
    d_m F^i_j``.  The Faraday entries are None when the potential was skipped.
    """

    g: np.ndarray
    ginv: np.ndarray
    dg: np.ndarray
    gamma: np.ndarray
    f_low: np.ndarray | None = None
    f_mix: np.ndarray | None = None
    dgamma: np.ndarray | None = None
    df_mix: np.ndarray | None = None


def _first_kind(dg: np.ndarray) -> np.ndarray:
    """2 gamma_hjk = d_k g_hj + d_j g_hk - d_h g_jk from dg[..., k,h,j] = d_k g_hj."""
    return np.moveaxis(dg, -3, -1) + np.swapaxes(dg, -3, -2) - dg


def point_fields(model: SpacetimeModel, x, order: int = 1, potential: bool = True) -> PointFields:
    """Christoffel symbols and Faraday tensor at x from one run of the metric
    tape's float kernel and at most one of the potential tape's, by forward-mode
    chain rules on value, gradient and Hessian arrays; ``order=2`` adds their
    first derivatives.  No jet is built."""
    g, dg, *ddg = metric_derivatives(model, x, order, check=False)
    ginv = np.linalg.inv(g)
    stacked = _first_kind(np.concatenate([dg[None], *ddg]))  # s, then d_m s for m = 0..3 at order 2
    s = stacked[0]
    out = PointFields(g, ginv, dg, 0.5 * np.einsum("ih,hjk->ijk", ginv, s))
    if order >= 2:
        dginv = -np.einsum("ia,mab,bh->mih", ginv, dg, ginv)
        out.dgamma = 0.5 * (np.einsum("mih,hjk->mijk", dginv, s) + np.einsum("ih,mhjk->mijk", ginv, stacked[1:]))
    if potential:
        _, da, *dda = model.potential_tape.derivatives(x, order)  # da[i,j] = d_i A_j
        out.f_low = da - da.T
        out.f_mix = ginv @ out.f_low
        if order >= 2:
            df_low = dda[0] - dda[0].transpose(0, 2, 1)
            out.df_mix = np.einsum("mih,hj->mij", dginv, out.f_low) + np.einsum("ih,mhj->mij", ginv, df_low)
    return out


def has_field(model: SpacetimeModel, coupling: float) -> bool:
    """False when F cannot enter the dynamics: zero coupling or a potential
    whose every component folds to 0 on its compiled tape."""
    constants = model.potential_tape.constants
    return coupling != 0.0 and constants.count(0.0) != len(constants)


def timelike_norm(g: np.ndarray, y: np.ndarray) -> float:
    """|y| = sqrt(g_ij y^i y^j); fails fast unless y is timelike."""
    n2 = float(y @ g @ y)
    if n2 <= 0:
        raise SingularEvaluationError(f"fiber vector is not timelike: g(y,y) = {n2}", value=n2)
    return math.sqrt(n2)


def christoffel_values(model: SpacetimeModel, x) -> np.ndarray:
    """gamma^i_jk as a float array."""
    return point_fields(model, x, potential=False).gamma


def faraday_values(model: SpacetimeModel, x):
    """(F_ij, F^i_j) as float arrays."""
    fields = point_fields(model, x)
    return fields.f_low, fields.f_mix


def spray_terms(model: SpacetimeModel, x, y, field: bool) -> list[float]:
    """[g(y,y), -gamma^i_jk y^j y^k for i = 0..3] at (x, y), then F^i_j y^j
    for i = 0..3 when ``field``, from the model's one straight-line worldline
    kernel (``exprlang.Tape.spray``, written once per model and field switch);
    raises ``SingularEvaluationError`` unless y is timelike.  No jet is built."""
    kernel = model.metric_tape.spray(model.potential_tape if field else None, _ROOT_LIST)
    return kernel(x, np.asarray(y, dtype=float).tolist())


def classical_lorentz_rhs(model: SpacetimeModel, x, y, charge_ratio: float) -> np.ndarray:
    """a^i = -gamma^i_jk y^j y^k + (q/(m c^2)) F^i_j y^j  (unit-speed gauge)."""
    field = has_field(model, charge_ratio)
    _, *acc = spray_terms(model, x, y, field)
    if field:
        acc = [a + charge_ratio * f for a, f in zip(acc[:4], acc[4:])]
    return np.array(acc)
