"""Truncated multivariate Taylor arithmetic (jets).

A Jet stores the value of a smooth function together with all of its partial
derivatives up to a fixed total order, in up to eight variables (four base
coordinates and four fiber coordinates).  Every derivative the geometry
modules consume is obtained either by evaluating expressions on seeded jets
or by shifting jet coefficients (``partial``), never by finite differences.

Coefficients are Taylor coefficients (derivative / multi-index factorial),
stored densely in graded-lexicographic order.  A ``Jet`` is read-only: its
constructors and reads are here, and its arithmetic is a few functions on
coefficient rows with a leading point axis (the dense product over the whole
multiplication table, Horner composition with a series, powers and abs).
The expression tapes run on these rows, once per batch of points.  A tensor
of jets is one ``jet_arrays.JetArray``, whose products leave out zero terms
and give the bits of the dense row product (its mask rules).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache, partial

import numpy as np

from .errors import ConfigError, SingularEvaluationError, UsageError

MAX_ORDER = 4
MAX_NVARS = 8


def _monomials(order: int, nvars: int) -> list[tuple[int, ...]]:
    """All exponent tuples with total degree <= order, graded-lexicographic."""
    out: list[tuple[int, ...]] = []

    def parts(total: int, slots: int):
        if slots == 1:
            yield (total,)
            return
        for head in range(total, -1, -1):
            for tail in parts(total - head, slots - 1):
                yield (head,) + tail

    for degree in range(order + 1):
        out.extend(sorted(parts(degree, nvars)))
    return out


class JetSpace:
    """Shared immutable tables for all jets of one (order, nvars) signature."""

    def __init__(self, order: int, nvars: int):
        if not (0 <= order <= MAX_ORDER):
            raise ConfigError(f"jet order must be in 0..{MAX_ORDER}, got {order}")
        if not (1 <= nvars <= MAX_NVARS):
            raise ConfigError(f"jet nvars must be in 1..{MAX_NVARS}, got {nvars}")
        self.order = order
        self.nvars = nvars
        self.monomials = _monomials(order, nvars)
        self.size = len(self.monomials)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self._mul_table = self._build_mul_table()
        self._shift_tables: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        # derivative = coefficient * prod(factorials of the multi-index)
        self.factorials = np.array(
            [math.prod(math.factorial(e) for e in m) for m in self.monomials], dtype=float
        )

    def _build_mul_table(self):
        by_degree: dict[int, list[int]] = {}
        for i, m in enumerate(self.monomials):
            by_degree.setdefault(sum(m), []).append(i)
        ia, ib, ic = [], [], []
        for da, rows in by_degree.items():
            for db, cols in by_degree.items():
                if da + db > self.order:
                    continue
                for i in rows:
                    mi = self.monomials[i]
                    for j in cols:
                        mj = self.monomials[j]
                        k = self.index[tuple(a + b for a, b in zip(mi, mj))]
                        ia.append(i)
                        ib.append(j)
                        ic.append(k)
        return np.array(ia), np.array(ib), np.array(ic)

    @cached_property
    def first_index(self) -> np.ndarray:
        """Coefficient slot of d/dx_v for v = 0..nvars-1 (its factorial is 1)."""
        return np.array([self.index[tuple(int(i == v) for i in range(self.nvars))]
                         for v in range(self.nvars)])

    @cached_property
    def second_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(slot, factorial) arrays of shape (nvars, nvars) for d2/dx_a dx_b."""
        slot = np.empty((self.nvars, self.nvars), dtype=int)
        for a in range(self.nvars):
            for b in range(self.nvars):
                multi = [0] * self.nvars
                multi[a] += 1
                multi[b] += 1
                slot[a, b] = self.index[tuple(multi)]
        return slot, self.factorials[slot]

    def shift_table(self, var: int):
        """Arrays (dst, src, factor) mapping coefficients of f to those of df/dx_var
        in JetSpace(order-1, nvars)."""
        if var not in self._shift_tables:
            lower = jet_space(self.order - 1, self.nvars)
            dst, src, fac = [], [], []
            for m, i in lower.index.items():
                up = list(m)
                up[var] += 1
                dst.append(i)
                src.append(self.index[tuple(up)])
                fac.append(m[var] + 1)
            self._shift_tables[var] = (np.array(dst), np.array(src), np.array(fac, dtype=float))
        return self._shift_tables[var]


@lru_cache(maxsize=None)
def jet_space(order: int, nvars: int) -> JetSpace:
    return JetSpace(order, nvars)


# -- order-0 rules ------------------------------------------------------------
#
# Each function below is a jet operation at order 0, on a plain float.  The
# row functions take their singular-value checks and their value from it, so
# a float program built from these functions matches order-0 jets bit for bit.


def mul_value(a: float, b: float) -> float:
    """A product's coefficients are sums that start from +0.0 (np.bincount)."""
    return 0.0 + a * b


def reciprocal_value(v: float) -> float:
    if v == 0.0:
        raise SingularEvaluationError("division by jet with zero value", value=v)
    return 1.0 / v


def sqrt_value(v: float) -> float:
    if v <= 0.0:
        raise SingularEvaluationError(f"sqrt of non-positive jet value {v}", value=v)
    return math.sqrt(v)


def ln_value(v: float) -> float:
    if v <= 0.0:
        raise SingularEvaluationError(f"ln of non-positive jet value {v}", value=v)
    return math.log(v)


def abs_value(v: float) -> float:
    if v == 0.0:
        raise SingularEvaluationError("abs of jet with zero value", value=v)
    return v if v > 0 else -v


def _is_integer(exponent) -> bool:
    return isinstance(exponent, (int, np.integer)) or float(exponent).is_integer()


def _power_by_squaring(base, n: int, one, mul):
    result = one
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def pow_value(v: float, exponent: float) -> float:
    if _is_integer(exponent):
        n = int(exponent)
        if n >= 0:
            return _power_by_squaring(v, n, 1.0, mul_value)
        if v == 0.0:
            raise SingularEvaluationError("negative power of zero jet value", value=v)
        return reciprocal_value(pow_value(v, -n))
    if v <= 0.0:
        raise SingularEvaluationError(f"non-integer power of non-positive jet value {v}", value=v)
    return v**exponent


# -- Taylor series ------------------------------------------------------------
#
# Each function below gives the Taylor coefficients f(v), f'(v), f''(v)/2, ...
# up to ``order`` of one univariate function, its first entry from the order-0
# rule above.  ``compose_rows``, ``JetArray.compose`` and the tape's compiled
# kernels all take a series from here; the kernels write three of them out as
# statements (``inline_series``), which the tests pin to these functions bit
# for bit.


def reciprocal_series(v: float, order: int) -> list[float]:
    return [reciprocal_value(v)] + [(-1.0) ** k / v ** (k + 1) for k in range(1, order + 1)]


def _binomial_series(value: float, v: float, exponent: float, order: int) -> list[float]:
    """Series of v^exponent from its value."""
    taylor = [value]
    coeff = float(exponent)
    for k in range(1, order + 1):
        taylor.append(taylor[k - 1] * coeff / (k * v))
        coeff -= 1.0
    return taylor


def sqrt_series(v: float, order: int) -> list[float]:
    return _binomial_series(sqrt_value(v), v, 0.5, order)


def power_series(v: float, exponent: float, order: int) -> list[float]:
    """Series of v^exponent for a non-integer exponent."""
    return _binomial_series(pow_value(v, exponent), v, exponent, order)


def exp_series(v: float, order: int) -> list[float]:
    e = math.exp(v)
    return [e / math.factorial(k) for k in range(order + 1)]


def ln_series(v: float, order: int) -> list[float]:
    return [ln_value(v)] + [(-1.0) ** (k - 1) / (k * v**k) for k in range(1, order + 1)]


def sin_series(v: float, order: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [s, c, -s, -c]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def cos_series(v: float, order: int) -> list[float]:
    s, c = math.sin(v), math.cos(v)
    cycle = [c, -s, -c, s]
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


# The series of each univariate operation of an expression tape, by name.
SERIES = {"recip": reciprocal_series, "sqrt": sqrt_series, "exp": exp_series, "ln": ln_series, "sin": sin_series,
          "cos": cos_series}
# Three of the series to order 2, as the float expressions they evaluate:
# term k reads the argument as {v} and the terms before it as {0}, {1}.  A
# division by 0! or 1! leaves every float as it is, and the sign (-1.0) ** k
# of a reciprocal term is folded.  The functions the terms call are
# INLINE_NAMES.
_INLINE_SERIES = {
    reciprocal_series: ("reciprocal_value({v})", "-1.0 / {v} ** 2", "1.0 / {v} ** 3"),
    sin_series: ("sin({v})", "cos({v})", "-{0} / 2.0"),
    cos_series: ("cos({v})", "-sin({v})", "-{0} / 2.0"),
}
INLINE_NAMES = {"reciprocal_value": reciprocal_value, "sin": math.sin, "cos": math.cos}


def inline_series(series, v: str, order: int, let) -> list[str] | None:
    """For a kernel that writes a series as statements: the names ``let``
    binds to the terms of ``series`` to ``order`` at the argument named v,
    or None where the series has no written form to that order."""
    terms = _INLINE_SERIES.get(series, ())
    if len(terms) <= order:
        return None
    names = []
    for term in terms[:order + 1]:
        names.append(let(term.format(*names, v=v)))
    return names


# -- arithmetic on coefficient rows --------------------------------------------
#
# The dense jet arithmetic.  The functions below act on coefficient rows of
# one space with a leading point axis, arrays of shape (P, S), or (1, S) for a
# row that serves every point, and give each point's row the bits the
# operation gives that point alone.  The expression tapes and
# ``exprlang.evaluate`` run on them, once per batch.  A ``JetArray`` composes
# with ``horner`` too, and forms its products in its masked kernel with the
# bits of ``mul_rows``.  The tapes' registers are dense single jets, so masks
# would cut nothing there, and the kernel's fixed cost per call would exceed
# a dense product's.


@lru_cache(maxsize=None)
def _row_bins(space: JetSpace, points: int) -> np.ndarray:
    """The multiplication table's output slots for each of ``points`` points in turn, point p's moved up by p x S."""
    bins = space._mul_table[2]
    return bins if points == 1 else (bins + np.arange(0, points * space.size, space.size)[:, None]).ravel()


def variable_rows(index: int, values, order: int, nvars: int) -> np.ndarray:
    """Rows of the coordinate function x_index, one at each of ``values``."""
    space = jet_space(order, nvars)
    if not (0 <= index < nvars):
        raise ConfigError(f"variable slot {index} out of range for nvars={nvars}")
    c = np.zeros((len(values), space.size))
    c[:, 0] = values
    if order >= 1:
        c[:, space.first_index[index]] = 1.0
    return c


def mul_rows(space: JetSpace, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b at every point: the multiplication table's np.bincount, each
    coefficient a sum from +0.0 of its table pairs in table order."""
    ia, ib, _ = space._mul_table
    points = max(len(a), len(b))
    prods = a[:, ia] * b[:, ib]
    return np.bincount(_row_bins(space, points), prods.ravel(), points * space.size).reshape(points, space.size)


def horner(c: np.ndarray, taylor: np.ndarray, mul) -> np.ndarray:
    """sum_k taylor[k] (f - f(0))^k for each jet f of the coefficients c
    (..., S) by Horner's scheme: taylor (order + 1, ...) holds each jet's
    series, and ``mul`` multiplies two coefficient arrays of c's shape."""
    u = c.copy()
    u[..., 0] = 0.0
    out = np.zeros(c.shape)
    out[..., 0] = taylor[-1]
    for t in taylor[-2::-1]:
        out = mul(out, u)
        out[..., 0] += t
    return out


def series_table(series, values: np.ndarray, order: int, *args) -> np.ndarray:
    """taylor[k] = series(v, *args, order)[k] at each of ``values``, shape (order + 1, *values.shape)."""
    taylor = [series(v, *args, order) for v in values.ravel().tolist()]
    return np.array(taylor, dtype=float).reshape(values.size, order + 1).T.reshape((order + 1,) + values.shape)


def compose_rows(space: JetSpace, c: np.ndarray, series, *args) -> np.ndarray:
    """``series`` (one of the series above, with its extra ``args``) composed
    with each row."""
    return horner(c, series_table(series, c[:, 0], space.order, *args), partial(mul_rows, space))


def pow_rows(space: JetSpace, c: np.ndarray, exponent: float) -> np.ndarray:
    """Each row to a constant power: by squaring for a nonnegative integer,
    the reciprocal of that for a negative one, else by ``power_series``."""
    if _is_integer(exponent) and exponent >= 0:
        return _power_by_squaring(c, int(exponent), np.eye(1, space.size), partial(mul_rows, space))
    if _is_integer(exponent):
        for v in c[:, 0].tolist():
            pow_value(v, exponent)  # raises where the power is singular
        return compose_rows(space, pow_rows(space, c, -int(exponent)), reciprocal_series)
    return compose_rows(space, c, power_series, exponent)


def abs_rows(space: JetSpace, c: np.ndarray) -> np.ndarray:
    """|f| for each row f: f where its value is positive, else -f."""
    for v in c[:, 0].tolist():
        abs_value(v)  # raises at 0
    return np.where(c[:, :1] > 0, c, -c)


class Jet:
    """Value plus partial derivatives to fixed total order, in nvars variables:
    a read-only view of one coefficient row.  Arithmetic on jets is the row
    functions above, or a ``JetArray``'s."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, order: int, nvars: int) -> "Jet":
        sp = jet_space(order, nvars)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(index: int, value: float, order: int, nvars: int) -> "Jet":
        """Jet of the coordinate function x_index at the given value."""
        return Jet(jet_space(order, nvars), variable_rows(index, [value], order, nvars)[0])

    # -- basic queries ------------------------------------------------------

    @property
    def value(self) -> float:
        return float(self.c[0])

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def nvars(self) -> int:
        return self.space.nvars

    def derivative(self, multi: tuple[int, ...]) -> float:
        """Partial derivative for the exponent tuple ``multi``."""
        if len(multi) != self.nvars:
            raise UsageError(f"multi-index length {len(multi)} != nvars {self.nvars}")
        if sum(multi) > self.order:
            raise UsageError(f"degree {sum(multi)} exceeds jet order {self.order}")
        i = self.space.index.get(tuple(multi))
        if i is None:
            raise UsageError(f"multi-index {tuple(multi)} must hold nonnegative integers")
        return float(self.c[i] * self.space.factorials[i])

    def gradient(self) -> np.ndarray:
        """First partials with respect to all variables."""
        if self.order < 1:
            raise UsageError("gradient requires order >= 1")
        return self.c[self.space.first_index]

    def truncate(self, order: int) -> "Jet":
        """This jet at a lower order, a slice of its coefficients (jets are
        not changed in place)."""
        if order == self.order:
            return self
        if order > self.order:
            raise UsageError(f"cannot extend jet of order {self.order} to {order}")
        sp = jet_space(order, self.nvars)
        return Jet(sp, self.c[: sp.size])

    def partial(self, var: int) -> "Jet":
        """Derivative with respect to variable ``var`` as a jet of order-1."""
        if self.order < 1:
            raise UsageError("partial() requires order >= 1")
        lower = jet_space(self.order - 1, self.nvars)
        dst, src, fac = self.space.shift_table(var)
        c = np.zeros(lower.size)
        c[dst] = self.c[src] * fac
        return Jet(lower, c)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value!r})"
