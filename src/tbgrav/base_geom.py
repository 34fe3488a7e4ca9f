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
from functools import cache, cached_property

import numpy as np

from .errors import SingularEvaluationError, UsageError
from .exprlang import Tape, _KernelWriter
from .jets import Jet, contract, jet_values, reciprocal_value
from .spacetime import _ROOT, SpacetimeModel, metric_jet, potential_jet

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
        return potential_jet(self.model, self.x, order=self.order)

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


# -- float helpers of the dynamics' right-hand sides --------------------------------


def has_field(model: SpacetimeModel, coupling: float) -> bool:
    """False when F cannot enter the dynamics: zero coupling or a potential
    whose every component folds to 0 on its compiled tape."""
    constants = model.potential_tape.constants
    return coupling != 0.0 and constants.count(0.0) != len(constants)


def _not_timelike(n2: float):
    raise SingularEvaluationError(f"fiber vector is not timelike: g(y,y) = {n2}", value=n2)


def timelike_norm(g: np.ndarray, y: np.ndarray) -> float:
    """|y| = sqrt(g_ij y^i y^j); fails fast unless 0 < g(y,y) < inf, as the
    kernels of ``FiberWriter`` do, so a NaN g(y,y) fails too.  A y that is
    not finite, or so large that g(y,y) overflows, fails by that test and not
    with a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        n2 = float(y @ g @ y)
    if not 0.0 < n2 < math.inf:
        _not_timelike(n2)
    return math.sqrt(n2)


_PAIRS = [(j, k) for j in range(4) for k in range(j, 4)]


class FiberWriter(_KernelWriter):
    """Writer of a float kernel of (x, y, ...) on a metric tape run at
    ``order`` (1 or 2).  The constructor writes what each such kernel starts
    with: y, the tape (``g[i][j]`` the coefficient list of g_ij), g(y,y) with
    the test of ``timelike_norm``, and g^-1 from the cofactors and
    determinant of g (Laplace expansion along first rows, each minor once).

    These terms match no jet operation bit for bit, so their rule, the
    geometric-term rule, is plainer and lives here only: each is one sum of
    products (``combine``) that leaves out a product with a factor known to
    be 0.0, such as an entry of g or A that folds to 0.  A non-finite
    run-time value still reaches the result: every entry of g meets only
    run-time factors in g(y,y), which must lie in (0, inf), and every partial
    of g or A only run-time factors in its contraction with y.  A kernel is
    cached on its metric tape (``Tape.kernel``).
    """

    def __init__(self, order: int, metric: Tape):
        super().__init__(order)
        self.first = self.space.first_index.tolist()
        self.y = self.unpack("y", 4)
        coeffs = self.run(metric)
        self.g = [[coeffs[_ROOT_LIST[i][j]] for j in range(4)] for i in range(4)]
        g = [[c[0] for c in row] for row in self.g]
        y_pair = cache(lambda j, k: self.let(f"{self.y[j]}*{self.y[k]}"))  # y^j y^k, bound on first use
        self.pair = {}  # (j, k) -> y^j y^k as a combine factor, bound only where its term stays
        for j, k in _PAIRS:
            self.pair[j, k] = self.pair[k, j] = lambda j=j, k=k: y_pair(j, k)
        self.n2 = self.combine([(1.0 if j == k else 2.0, [g[j][k], self.pair[j, k]]) for j, k in _PAIRS])
        self.lines.append(f"if not 0.0 < {self.ref(self.n2)} < inf: {self.call(_not_timelike, self.n2)}")
        minors = {}  # (rows, cols) -> the determinant of that submatrix of g, by Laplace along its first row

        def minor(rows, cols):
            if len(rows) == 1:
                return g[rows[0]][cols[0]]
            if (rows, cols) not in minors:
                terms = [((-1.0) ** n, [g[rows[0]][c], minor(rows[1:], cols[:n] + cols[n + 1:])])
                         for n, c in enumerate(cols) if g[rows[0]][c] != 0.0]
                minors[rows, cols] = self.combine(terms)
            return minors[rows, cols]

        rest = [(0, 1, 2, 3)[:i] + (0, 1, 2, 3)[i + 1:] for i in range(4)]  # the indices other than i
        adj = {(i, j): self.combine([((-1.0) ** (i + j), [minor(rest[j], rest[i])])])
               for i, j in _PAIRS}  # cofactors of the symmetric g
        det = self.combine([(1.0, [g[0][j], adj[0, j]]) for j in range(4) if g[0][j] != 0.0])
        rdet = self.let(self.call(reciprocal_value, det)) if isinstance(det, str) or det == 0.0 else 1.0 / det
        self.ginv = {(i, j): self.combine([(1.0, [rdet, adj[i, j]])]) for i, j in adj}
        self.ginv.update({(j, i): v for (i, j), v in self.ginv.items()})

    def combine(self, terms: list):
        """One statement for the sum of coef * prod(factors) over the (coef,
        factors) pairs of a geometric term: a term with a factor known to be
        0.0 is left out, known factors are folded into the coefficient, and a
        callable factor is called (its statement written) only when its term
        stays.  The float total when no run-time factor is left."""
        const, parts = 0.0, []
        for coef, factors in terms:
            known = [f for f in factors if isinstance(f, float)]
            for f in known:
                coef *= f
            if coef == 0.0:
                continue
            names = [f if isinstance(f, str) else f() for f in factors if not isinstance(f, float)]
            if not names:
                const += coef
                continue
            body = "*".join(names)
            if abs(coef) != 1.0:
                body = f"{self.ref(abs(coef))}*{body}"
            parts.append(("-" if coef < 0.0 else "+", body))
        if not parts:
            return const
        if parts == [("+", parts[0][1])] and const == 0.0 and "*" not in parts[0][1]:
            return parts[0][1]  # a single factor: no new statement
        text = "".join(f" {sign} {body}" for sign, body in parts)
        text = text[3:] if text.startswith(" + ") else "-" + text[3:]
        if const != 0.0:
            text += f" + {self.ref(const)}"
        return self.let(text)

    @staticmethod
    def merged(terms: list) -> list:
        """(coef, factors) terms with equal factor tuples summed into one."""
        coefs = {}
        for coef, factors in terms:
            coefs[factors] = coefs.get(factors, 0.0) + coef
        return [(coef, list(factors)) for factors, coef in coefs.items()]

    def raise_index(self, low: list) -> list:
        """[sum_h g^ih low_h for i in 0..3]."""
        return [self.combine([(1.0, [self.ginv[i, h], low[h]]) for h in range(4)]) for i in range(4)]


def _write_spray(metric: Tape, potential: Tape | None):
    """The worldline kernel ``(x, y) -> [g(y,y), -gamma^i_jk y^j y^k for i in
    0..3, F^i_j y^j for i in 0..3]``, the last four only with a potential
    tape: -gamma^i_jk y^j y^k from the Christoffel symbols of the first kind
    and F^i_j y^j from the first partials of the tapes at order 1."""
    w = FiberWriter(1, metric)
    dg = [[[w.g[i][j][w.first[k]] for j in range(4)] for i in range(4)] for k in range(4)]  # d_k g_ij
    # low[h] = -gamma_hjk y^j y^k (first kind) summed over j <= k: the terms
    # -(d_j g_hj - d_h g_jj / 2) y^j y^j and -(d_k g_hj + d_j g_hk - d_h g_jk) y^j y^k
    low = []
    for h in range(4):
        terms = []  # for h = j the two diagonal parts are one entry
        for j, k in _PAIRS:
            if j == k:
                terms += [(-1.0, (dg[j][h][j], w.pair[j, j])), (0.5, (dg[h][j][j], w.pair[j, j]))]
            else:
                terms += [(c, (entry, w.pair[j, k])) for c, entry in ((-1.0, dg[k][h][j]), (-1.0, dg[j][h][k]),
                                                                       (1.0, dg[h][j][k]))]
        low.append(w.combine(w.merged(terms)))
    flat = [w.n2, *w.raise_index(low)]
    if potential is not None:
        a = w.run(potential)
        da = [[a[j][w.first[i]] for j in range(4)] for i in range(4)]  # d_i A_j
        f_y = [w.combine([(1.0, [da[h][j], w.y[j]]) for j in range(4) if j != h]
                         + [(-1.0, [da[j][h], w.y[j]]) for j in range(4) if j != h]) for h in range(4)]
        flat += w.raise_index(f_y)
    return w.compile("x, y", flat, "<spray kernel>")


def spray_kernel(model: SpacetimeModel, field: bool):
    """The model's one straight-line worldline kernel ``(x, y) -> [g(y,y),
    -gamma^i_jk y^j y^k for i = 0..3]``, then F^i_j y^j for i = 0..3 when
    ``field``, y a list of floats (``_write_spray``, written once per model
    and field switch); it raises ``SingularEvaluationError`` unless y is
    timelike.  No jet is built."""
    return model.metric_tape.kernel(_write_spray, model.potential_tape if field else None)


def lorentz_acceleration(model: SpacetimeModel, charge_ratio: float):
    """The function ``(x, y) -> [a^i]`` on float lists, a^i = -gamma^i_jk y^j
    y^k + (q/(m c^2)) F^i_j y^j (unit-speed gauge), on the worldline kernel
    read once."""
    field = has_field(model, charge_ratio)
    kernel = spray_kernel(model, field)
    if not field:
        return lambda x, y: kernel(x, y)[1:]

    def acceleration(x, y):
        _, a0, a1, a2, a3, f0, f1, f2, f3 = kernel(x, y)
        return [a0 + charge_ratio * f0, a1 + charge_ratio * f1, a2 + charge_ratio * f2, a3 + charge_ratio * f3]

    return acceleration


def classical_lorentz_rhs(model: SpacetimeModel, x, y, charge_ratio: float) -> np.ndarray:
    """a^i = -gamma^i_jk y^j y^k + (q/(m c^2)) F^i_j y^j  (unit-speed gauge)."""
    return np.array(lorentz_acceleration(model, charge_ratio)(x, np.asarray(y, dtype=float).tolist()))
