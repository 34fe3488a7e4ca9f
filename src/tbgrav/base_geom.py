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
from .jet_arrays import JetArray, concat, contract, products, sum_of_products
from .jets import reciprocal_value
from .spacetime import PAIRS, ROOT, UPPER, SpacetimeModel, _points, metric_jet, potential_jet

# Sign switch for the electromagnetic stress-energy tensor; see module docstring.
EM_STRESS_SIGN = +1.0


# -- jet-matrix utilities -------------------------------------------------------

STRICT = np.triu_indices(4, 1)  # the six (k, l > k) pairs
# _ANTI[k, l]: the slot of (k, l) in [zero, the six pairs, their negations]
_ANTI = np.zeros((4, 4), dtype=int)
_ANTI[STRICT], _ANTI.T[STRICT] = range(1, 7), range(7, 13)


def symmetric(upper: JetArray) -> JetArray:
    """The 4x4 jet array (in the two leading axes) whose entries (i, j) and
    (j, i) are both the upper pair's entry of ``upper``, indexed by pair first."""
    return upper[ROOT]


def antisymmetric(strict: JetArray, zero: JetArray) -> JetArray:
    """The jet array indexed [k, l, ...] with the six strict-upper pairs
    ``strict`` (pair first) above the diagonal, their negations below and
    ``zero`` on it, at the lower order of the two."""
    order = min(strict.order, zero.order)
    strict, zero = strict.truncate(order), zero.truncate(order)
    zero = zero.c.reshape(zero.c.shape[:-1] + (1,) * strict.ndim + zero.c.shape[-1:])
    zero = np.broadcast_to(zero, strict.c.shape[:1] + (1,) + strict.c.shape[2:])
    return JetArray(strict.space, np.concatenate([zero, strict.c, -strict.c], axis=1))[_ANTI]


def sequential_sum(terms: np.ndarray) -> np.ndarray:
    """0.0 + terms[0] + terms[1] + ..., added in that order along axis 0."""
    return np.cumsum(np.concatenate([np.zeros((1,) + terms.shape[1:]), terms]), axis=0)[-1]


def point_sum(terms: np.ndarray, axes: int) -> np.ndarray:
    """``sequential_sum`` of each point's ``terms`` in C order over the last
    ``axes`` axes, an array over the points."""
    return sequential_sum(np.moveaxis(terms.reshape(terms.shape[:terms.ndim - axes] + (-1,)), -1, 0))


def per_point(fn, *arrays) -> np.ndarray:
    """The array of ``fn`` of each point's slices of the float arrays: a float
    epilogue that must see one point at a time."""
    return np.array([fn(*slices) for slices in zip(*arrays)])


def invert_jet_matrix(g: JetArray) -> JetArray:
    """Inverse of a 4x4 jet matrix via the truncated Neumann series around the
    inverse of its value part."""
    g0 = g.values
    try:
        g0inv = np.linalg.inv(g0)
    except np.linalg.LinAlgError:
        raise SingularEvaluationError("metric value matrix is singular") from None
    # X = -g0inv . (g - g0) has zero value part, so X^(order+1) truncates away;
    # X_ij = sum_k (g - g0)_kj (-g0inv_ik), a sum of scaled copies (which may
    # hold -0.0) added in k order
    terms = (g - g0).c[..., None, :, :, :] * -g0inv[..., None, None]  # [i, k, j]
    x = JetArray(g.space, terms[..., 0, :, :] + terms[..., 1, :, :] + terms[..., 2, :, :] + terms[..., 3, :, :])
    s = x.c.copy()  # S = I + X + X^2 + ... + X^order, then ginv = S . g0inv
    s[..., range(4), range(4), :] += np.eye(1, g.space.size)[0]  # a constant jet 1 added to the diagonal
    s = JetArray(g.space, s)
    power = x
    for _ in range(g.order - 1):
        power = contract(power, x)
        s = s + power
    terms = s.c[..., :, :, None, :] * g0inv[..., None, :, :, None]  # [i, k, j]
    return JetArray(g.space, terms[..., 0, :, :] + terms[..., 1, :, :] + terms[..., 2, :, :] + terms[..., 3, :, :])


_MINOR_COLS = np.array([[c for c in range(4) if c != j] for j in range(4)])  # columns of minor j


def det_jet_matrix(g: JetArray) -> JetArray:
    """Determinant of a 4x4 jet matrix by cofactor expansion along row 0, each
    3x3 minor of rows 1-3 expanded along its first row."""
    c0, c1, c2 = _MINOR_COLS.T
    m = g.ravel()
    # the six 2x2 products of rows 2 and 3 of each minor, then its three 2x2 minors
    pairs = ((c1, c2), (c2, c1), (c0, c2), (c2, c0), (c0, c1), (c1, c0))
    prod = products(m, m, np.array([8 + a for a, _ in pairs]), np.array([12 + b for _, b in pairs]))
    two = prod[0::2] - prod[1::2]
    three = products(m, two, np.array([4 + c0, 4 + c1, 4 + c2]), np.arange(12).reshape(3, 4))
    minor = three[0] - three[1] + three[2]
    cofactors = minor.c.copy()
    cofactors[..., 1::2, :] = -cofactors[..., 1::2, :]
    return contract(g[0], JetArray(minor.space, cofactors))


# -- connection and curvature kernels --------------------------------------------


def christoffel_jets(g: JetArray, ginv: JetArray) -> JetArray:
    """gamma^i_jk from a jet-valued metric and its inverse, each symmetric pair
    (j, k) formed once."""
    dg = g.partials(range(4))  # dg[k, i, j] = d_k g_ij
    j, k = UPPER
    h = np.arange(4)[:, None]
    first_kind = dg[k, h, j] + dg[j, h, k] - dg[h, j, k]  # 2 gamma_hjk, indexed [h, pair]
    return symmetric((contract(ginv, first_kind) * 0.5).transpose(1, 0)).transpose(2, 0, 1)


def riemann_jets(gamma: JetArray) -> JetArray:
    """r^i_jkl, antisymmetric in (k,l)."""
    dgam = gamma.partials(range(4))  # dgam[k, i, j, l] = d_k gamma^i_jl
    k, l = STRICT
    lower = gamma.truncate(dgam.order)
    i, j, m = np.ix_(range(4), range(4), range(4))
    first, second = np.concatenate([k, l])[:, None, None, None], np.concatenate([l, k])[:, None, None, None]
    # gamma^i_mk gamma^m_jl for each pair (k, l) and then (l, k), indexed [pair, i, j, m]
    quad = sum_of_products(lower, lower, i * 16 + m * 4 + first, m * 16 + j * 4 + second)
    strict = dgam[k, :, :, l] - dgam[l, :, :, k] + quad[:6] - quad[6:]  # [pair, i, j]
    return antisymmetric(strict, gamma[0, 0, 0] * 0.0).transpose(2, 3, 0, 1)


def faraday_jets(a: JetArray, ginv: JetArray) -> tuple[JetArray, JetArray]:
    """(F_ij, F^i_j) from potential jets."""
    da = a.partials(range(4))  # da[i, j] = d_i A_j
    i, j = STRICT
    f_low = antisymmetric(da[i, j] - da[j, i], a[0] * 0.0)
    return f_low, contract(ginv, f_low)


def raise_both_indices(s_low: JetArray, ginv: JetArray) -> JetArray:
    """S^{ij} = g^{ia} g^{jb} S_ab for a symmetric 4x4 jet array."""
    half = contract(ginv, s_low)  # half[i, b] = g^{ia} S_ab
    b = np.arange(4)
    i, j = UPPER
    return symmetric(sum_of_products(ginv, half, j[:, None] * 4 + b, i[:, None] * 4 + b))


# -- base points -------------------------------------------------------------------


class BaseGeometry:
    """Lazy cache of the jet-valued base objects at each point of a batch x
    (P, 4), a point x (4,) being a batch of one.

    ``order`` is the carrier order of the 4-variable jets of g and A.  The
    connection and F hold one level less, the curvature and the tensors built
    on it two less; an object's values are the same at every carrier order
    that holds it.  Each object is one ``JetArray`` indexed as its symbol is
    written after the leading point axis; mirrored entries of a symmetric
    tensor hold the same bytes.  A float object is an array of one float per
    point.  Every point of a batch has the bits it has alone.
    """

    def __init__(self, model: SpacetimeModel, x, order: int):
        self.model = model
        self.x = _points(x)
        self.order = order

    @cached_property
    def g(self) -> JetArray:
        return metric_jet(self.model, self.x, order=self.order)

    @cached_property
    def ginv(self) -> JetArray:
        return invert_jet_matrix(self.g)

    @cached_property
    def a_pot(self) -> JetArray:
        return potential_jet(self.model, self.x, order=self.order)

    @cached_property
    def sqrt_minus_det(self) -> JetArray:
        """sqrt(-det g), a 0-d jet array (one entry per point)."""
        return (-det_jet_matrix(self.g)).sqrt()

    @cached_property
    def gamma(self) -> JetArray:
        """gamma^i_jk."""
        return christoffel_jets(self.g, self.ginv)

    @cached_property
    def riemann(self) -> JetArray:
        """r^i_jkl."""
        return riemann_jets(self.gamma)

    @cached_property
    def ricci(self) -> JetArray:
        """r_jl = r^i_jil, the four terms added in i order."""
        r = self.riemann
        return r[0, :, 0] + r[1, :, 1] + r[2, :, 2] + r[3, :, 3]

    @cached_property
    def ricci_scalar(self) -> np.ndarray:
        """g^jl r_jl from the values, summed row by row."""
        return point_sum(self.ginv.values * self.ricci.values, 2)

    @cached_property
    def faraday(self) -> tuple[JetArray, JetArray]:
        """(F_ij, F^i_j)."""
        ginv = self.ginv  # the metric's chart check runs before the unchecked potential
        return faraday_jets(self.a_pot, ginv)

    @cached_property
    def em_stress(self) -> JetArray:
        """Electromagnetic stress-energy T^f_ij (symmetric, trace-free)."""
        f_low, f_mix = self.faraday
        f_up = contract(f_mix, self.ginv)  # F^{lm} = F^l_a g^{am}
        quarter_f2 = contract(f_up.ravel(), f_low.ravel()) * 0.25  # F^{lm} F_lm / 4
        coeff = EM_STRESS_SIGN / (4.0 * math.pi)
        # -F_il F_j^l = +F_il F^l_j, then g_ij F^{lm} F_lm / 4, over the upper pairs
        (left, (low, g)), (right, (mix, q)) = concat(f_low, self.g), concat(f_mix, quarter_f2)
        i, j = UPPER
        upper = sum_of_products(left, right, [low + i * 4 + l for l in range(4)] + [g + i * 4 + j],
                                [mix + l * 4 + j for l in range(4)] + [q + 0 * i])
        return symmetric(upper * coeff)

    @cached_property
    def einstein(self) -> JetArray:
        """G_jl = r_jl - (1/2) g_jl g^ab r_ab."""
        ric = self.ricci
        half_scalar = contract(self.ginv.ravel(), ric.ravel()) * 0.5
        return symmetric(ric[UPPER] - self.g[UPPER] * half_scalar)

    @cached_property
    def einstein_maxwell(self) -> JetArray:
        """CEM_ij = G_ij - (8 pi k / c^4) T^f_ij; zero on electrovacuum solutions."""
        kappa = 8.0 * math.pi * self.model.k / self.model.c**4
        return self.einstein - self.em_stress * kappa


# -- residuals -------------------------------------------------------------------


def maxwell_cyclic_residual(geo: BaseGeometry) -> np.ndarray:
    """H_ijk = nabla_i F_jk + nabla_k F_ij + nabla_j F_ki from explicit
    covariant derivatives (the Christoffel terms must cancel), at each of the
    geometry's points (carrier order 2 or more)."""
    f_low, _ = geo.faraday
    df = f_low.partials(range(4))  # df[i, j, k] = d_i F_jk
    gamma, f_low = geo.gamma.truncate(df.order), f_low.truncate(df.order)
    m, i, j, k = np.ix_(range(4), range(4), range(4), range(4))
    # gamma^m_ij F_mk, then gamma^m_ik F_jm, indexed [m, i, j, k]
    first = products(gamma, f_low, m * 16 + i * 4 + j, m * 4 + k)
    second = products(gamma, f_low, m * 16 + i * 4 + k, j * 4 + m)
    cov_df = df  # nabla_i F_jk: the terms subtracted in m order, each pair in turn
    for n in range(4):
        cov_df = cov_df - first[n] - second[n]
    v = cov_df.values
    return v + np.moveaxis(v, -3, -1) + np.moveaxis(v, -1, -3)


def densitized_divergence(s: JetArray, v_up: JetArray) -> np.ndarray:
    """sum_j d_j(s V^j) at each point, for the density jets s = sqrt(-g) (a
    0-d jet array) and component jets V^j along the last axis of ``v_up``;
    callers divide by s themselves."""
    prod = s * v_up
    first = prod.space.first_index
    return sequential_sum(np.moveaxis(prod.c[..., range(4), first], -1, 0))


def maxwell_current(geo: BaseGeometry) -> np.ndarray:
    """Source current J^i = -(c/4pi) (1/sqrt(-g)) d_j(sqrt(-g) F^ij), densitized
    form, at each of the geometry's points (carrier order 2 or more)."""
    _, f_mix = geo.faraday
    s = geo.sqrt_minus_det
    f_up = contract(f_mix, geo.ginv.T)
    coeff = -geo.model.c / (4.0 * math.pi)
    return coeff * densitized_divergence(s, f_up) / s.values[..., None]


def covariant_divergence(geo: BaseGeometry, s_upper: JetArray) -> np.ndarray:
    """div_j S^{ij} at each of the geometry's points, with its gamma, for a
    4x4 jet array S^{ij} carrying at least one derivative level."""
    if not (isinstance(s_upper, JetArray) and s_upper.shape == (4, 4)):
        raise UsageError("divergence needs a 4x4 array of jets")
    if s_upper.order < 1:
        raise UsageError("divergence needs jets carrying a derivative level")
    gam, s = geo.gamma.values, s_upper.values
    d_s = s_upper.c[..., range(4), s_upper.space.first_index[:4]]  # d_j S^{ij}
    # for each j: d_j S^{ij}, then gamma^i_mj S^{mj} and gamma^j_mj S^{im} for each m
    first = np.swapaxes(gam, -1, -2) * np.swapaxes(s, -1, -2)[..., None, :, :]  # [i, j, m]
    second = np.swapaxes(gam.diagonal(0, -3, -1), -1, -2)[..., None, :, :] * s[..., :, None, :]  # [i, j, m]
    pairs = np.stack([first, second], axis=-1).reshape(s.shape + (8,))
    terms = np.concatenate([d_s[..., None], pairs], axis=-1)
    return sequential_sum(np.moveaxis(terms.reshape(s.shape[:-1] + (36,)), -1, 0))


# -- float helpers of the dynamics' right-hand sides --------------------------------


def has_field(model: SpacetimeModel, coupling: float) -> bool:
    """False when F cannot enter the dynamics: zero coupling or a potential
    whose every component folds to 0 on its compiled tape."""
    constants = model.potential_tape.constants
    return coupling != 0.0 and constants.count(0.0) != len(constants)


def _not_timelike(n2: float):
    raise SingularEvaluationError(f"fiber vector is not timelike: g(y,y) = {n2}", value=n2)


def four_vector(v, name: str) -> np.ndarray:
    """v as a float array of shape (4,); raises ``UsageError`` otherwise."""
    v = np.asarray(v, dtype=float)
    if v.shape != (4,):
        raise UsageError(f"{name} needs 4 components, got shape {v.shape}")
    return v


def fiber_state(x, y) -> list[float]:
    """The bundle point (x, y) as the list s = (x^0..x^3, y^0..y^3) of floats
    that the kernels of ``FiberWriter`` read."""
    return [*four_vector(x, "x").tolist(), *four_vector(y, "y").tolist()]


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


class FiberWriter(_KernelWriter):
    """Writer of a float kernel of (s, ...) on a metric tape run at ``order``
    (1 or 2), s the bundle point as one list (x^0..x^3, y^0..y^3), which may
    go on with entries the kernel does not read.  The constructor writes what
    each such kernel starts with: y from s[4:8], the tape on x = s[0:4]
    (``g[i][j]`` the coefficient list of g_ij), g(y,y) with
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

    point = "s"

    def __init__(self, order: int, metric: Tape):
        super().__init__(order)
        self.first = self.space.first_index.tolist()
        self.y = self.unpack("s[4:8]", 4)
        coeffs = self.run(metric)
        self.g = [[coeffs[ROOT[i, j]] for j in range(4)] for i in range(4)]
        g = [[c[0] for c in row] for row in self.g]
        y_pair = cache(lambda j, k: self.let(f"{self.y[j]}*{self.y[k]}"))  # y^j y^k, bound on first use
        self.pair = {}  # (j, k) -> y^j y^k as a combine factor, bound only where its term stays
        for j, k in PAIRS:
            self.pair[j, k] = self.pair[k, j] = lambda j=j, k=k: y_pair(j, k)
        self.n2 = self.combine([(1.0 if j == k else 2.0, [g[j][k], self.pair[j, k]]) for j, k in PAIRS])
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
               for i, j in PAIRS}  # cofactors of the symmetric g
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
    """The worldline kernel ``(s, c1, c2) -> [y^i for i in 0..3, a^i for i in
    0..3]``, the rates of the worldline state s: a^i = -gamma^i_jk y^j y^k
    from the Christoffel symbols of the first kind, and with a potential tape
    a^i = -gamma^i_jk y^j y^k + (c1 |y| + c2) F^i_j y^j, F^i_j y^j from the
    first partials of the tapes at order 1, each component one sum written
    term for term (a known-zero F^i_j y^j kept as 0.0)."""
    w = FiberWriter(1, metric)
    dg = [[[w.g[i][j][w.first[k]] for j in range(4)] for i in range(4)] for k in range(4)]  # d_k g_ij
    # low[h] = -gamma_hjk y^j y^k (first kind) summed over j <= k: the terms
    # -(d_j g_hj - d_h g_jj / 2) y^j y^j and -(d_k g_hj + d_j g_hk - d_h g_jk) y^j y^k
    low = []
    for h in range(4):
        terms = []  # for h = j the two diagonal parts are one entry
        for j, k in PAIRS:
            if j == k:
                terms += [(-1.0, (dg[j][h][j], w.pair[j, j])), (0.5, (dg[h][j][j], w.pair[j, j]))]
            else:
                terms += [(c, (entry, w.pair[j, k])) for c, entry in ((-1.0, dg[k][h][j]), (-1.0, dg[j][h][k]),
                                                                       (1.0, dg[h][j][k]))]
        low.append(w.combine(w.merged(terms)))
    accel = w.raise_index(low)
    if potential is not None:
        a = w.run(potential)
        da = [[a[j][w.first[i]] for j in range(4)] for i in range(4)]  # d_i A_j
        f_y = [w.combine([(1.0, [da[h][j], w.y[j]]) for j in range(4) if j != h]
                         + [(-1.0, [da[j][h], w.y[j]]) for j in range(4) if j != h]) for h in range(4)]
        coupling = w.let(f"c1 * {w.let(w.call(math.sqrt, w.n2))} + c2")
        accel = [w.let(f"{w.ref(acc)} + {coupling} * {w.ref(f)}") for acc, f in zip(accel, w.raise_index(f_y))]
    return w.compile("s, c1, c2", w.y + accel, "<spray kernel>")


def spray_kernel(model: SpacetimeModel, alpha: float | None):
    """(kernel, alpha): the model's one straight-line worldline kernel ``(s,
    c1, c2) -> [y^i, -gamma^i_jk y^j y^k + (c1 |y| + c2) F^i_j y^j]``, s a
    list of floats (x, y, ...), the F term only where the coupling alpha lets
    the field in (``_write_spray``, written once per model and field switch),
    and alpha as a float, the model's when None.  Couplings (alpha, 0) give
    the Randers worldline, (0, q/(m c^2)) the classical Lorentz force.  The
    kernel raises ``SingularEvaluationError`` unless y is timelike."""
    alpha = model.alpha if alpha is None else float(alpha)
    potential = model.potential_tape if has_field(model, alpha) else None
    return model.metric_tape.kernel(_write_spray, potential), alpha


def classical_lorentz_rhs(model: SpacetimeModel, x, y, charge_ratio: float) -> np.ndarray:
    """a^i = -gamma^i_jk y^j y^k + (q/(m c^2)) F^i_j y^j  (unit-speed gauge)."""
    kernel, charge_ratio = spray_kernel(model, charge_ratio)
    return np.array(kernel(fiber_state(x, y), 0.0, charge_ratio)[4:])
