"""Truncated multivariate Taylor arithmetic (jets).

A Jet stores the value of a smooth function together with all of its partial
derivatives up to a fixed total order, in up to eight variables (four base
coordinates and four fiber coordinates).  Every derivative the geometry
modules consume is obtained either by evaluating expressions on seeded jets
or by shifting jet coefficients (``partial``), never by finite differences.

Coefficients are Taylor coefficients (derivative / multi-index factorial),
stored densely in graded-lexicographic order.  Arithmetic between jets of the
same variable count but different orders truncates to the coarser operand;
jets of different variable counts do not mix.
"""

from __future__ import annotations

import math
import operator
from functools import cached_property, lru_cache

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
        self.degrees = np.array([sum(m) for m in self.monomials])
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

    @cached_property
    def zero(self) -> "Jet":
        """The jet of this space whose coefficients are all +0.0 (read-only,
        shared by every operation that returns it)."""
        c = np.zeros(self.size)
        c.flags.writeable = False
        return Jet(self, c, PLUS_ZERO)


@lru_cache(maxsize=None)
def jet_space(order: int, nvars: int) -> JetSpace:
    return JetSpace(order, nvars)


# -- order-0 rules ------------------------------------------------------------
#
# Each function below is a Jet operation at order 0, on a plain float.  The
# Jet methods take their singular-value checks and their value from it, so a
# float program built from these functions matches order-0 jets bit for bit.


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
# rule above.  ``Jet._compose`` and the tape's compiled kernels both take a
# series from here; the kernels write three of them out as statements
# (``inline_series``), which the tests pin to these functions bit for bit.


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


# -- zero rules ---------------------------------------------------------------
#
# Most jets of a static, symmetric solution are identically zero.  These rules
# leave such terms out and give the bits the full operation gives:
#
# - A product's coefficients are np.bincount sums that start from +0.0, so a
#   product never holds -0.0, and a product with an all-zero factor (of
#   either sign) and a finite other factor is all +0.0: ``Jet.__mul__``
#   returns the space's shared +0.0 jet.  With an inf or NaN in the other
#   factor it takes the full product, so that NaN propagates.
# - x - Z is x when Z is all +0.0, for every x (``Jet.__sub__``).
# - x + Z is x when Z is all +0.0 only if x holds no -0.0.  That holds for
#   products and sums of products, the terms of ``contract``, and for a jet
#   known to be all +0.0 (``Jet.__add__``); not for a negation or a scaled
#   copy.
#
# ``Jet.kind`` sorts a jet into one of four classes, ordered so that
# ``kind <= SIGNED_ZERO`` means all zero and ``kind <= FINITE`` all finite.
# It is set when a rule makes the jet, or computed once on first use.  A
# truncation, partial or lift of an all-+0.0 jet is the shared +0.0 jet.

PLUS_ZERO = 0  # every coefficient is +0.0
SIGNED_ZERO = 1  # every coefficient is +0.0 or -0.0, and one is -0.0
FINITE = 2  # finite, and one coefficient is nonzero
NONFINITE = 3  # a coefficient is inf or NaN, or so large that its square overflows


class Jet:
    """Value plus partial derivatives to fixed total order, in nvars variables."""

    __slots__ = ("space", "c", "_truncated", "_kind")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, kind: int | None = None):
        self.space = space
        self.c = coeffs
        self._truncated = None  # order -> the jet truncate() returned for it
        self._kind = kind  # None until ``kind`` first computes it

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
        sp = jet_space(order, nvars)
        if not (0 <= index < nvars):
            raise ConfigError(f"variable slot {index} out of range for nvars={nvars}")
        c = np.zeros(sp.size)
        c[0] = value
        if order >= 1:
            unit = tuple(1 if i == index else 0 for i in range(nvars))
            c[sp.index[unit]] = 1.0
        return Jet(sp, c)

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

    @property
    def kind(self) -> int:
        """PLUS_ZERO, SIGNED_ZERO, FINITE or NONFINITE, computed once."""
        if self._kind is None:
            c = self.c
            s = c @ c
            if s != 0.0:
                self._kind = FINITE if s < math.inf else NONFINITE
            elif np.count_nonzero(c):  # the squares of tiny coefficients underflow to 0
                self._kind = FINITE
            else:
                self._kind = SIGNED_ZERO if np.count_nonzero(c.view(np.int64)) else PLUS_ZERO
        return self._kind

    def derivative(self, multi: tuple[int, ...]) -> float:
        """Partial derivative for the exponent tuple ``multi``."""
        if len(multi) != self.nvars:
            raise UsageError(f"multi-index length {len(multi)} != nvars {self.nvars}")
        if sum(multi) > self.order:
            raise UsageError(f"degree {sum(multi)} exceeds jet order {self.order}")
        i = self.space.index[tuple(multi)]
        return float(self.c[i] * self.space.factorials[i])

    def gradient(self) -> np.ndarray:
        """First partials with respect to all variables."""
        if self.order < 1:
            raise UsageError("gradient requires order >= 1")
        return self.c[self.space.first_index]

    def hessian(self) -> np.ndarray:
        """Matrix of second partials."""
        if self.order < 2:
            raise UsageError("hessian requires order >= 2")
        slot, fac = self.space.second_index
        return self.c[slot] * fac

    def truncate(self, order: int) -> "Jet":
        """This jet at a lower order; each order's copy is made once and then
        returned again (jets are not changed in place)."""
        if order == self.order:
            return self
        if order > self.order:
            raise UsageError(f"cannot extend jet of order {self.order} to {order}")
        if self._truncated is None:
            self._truncated = {}
        out = self._truncated.get(order)
        if out is None:
            sp = jet_space(order, self.nvars)
            out = sp.zero if self._kind == PLUS_ZERO else Jet(sp, self.c[: sp.size].copy())
            self._truncated[order] = out
        return out

    def partial(self, var: int) -> "Jet":
        """Derivative with respect to variable ``var`` as a jet of order-1."""
        if self.order < 1:
            raise UsageError("partial() requires order >= 1")
        lower = jet_space(self.order - 1, self.nvars)
        if self._kind == PLUS_ZERO:
            return lower.zero
        dst, src, fac = self.space.shift_table(var)
        c = np.zeros(lower.size)
        c[dst] = self.c[src] * fac
        return Jet(lower, c)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "tuple[Jet, Jet] | None":
        if isinstance(other, Jet):
            if other.space is self.space:
                return self, other
            if other.nvars != self.nvars:
                raise UsageError(
                    f"jet nvars mismatch: {self.nvars} vs {other.nvars}"
                )
            m = min(self.order, other.order)
            return self.truncate(m), other.truncate(m)
        if isinstance(other, (int, float, np.floating, np.integer)):
            return self, Jet.constant(float(other), self.order, self.nvars)
        return None

    def __add__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if a._kind == PLUS_ZERO and b._kind == PLUS_ZERO:
            return a
        return Jet(a.space, a.c + b.c)

    __radd__ = __add__

    def __sub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        if b._kind == PLUS_ZERO:
            return a
        return Jet(a.space, a.c - b.c)

    def __rsub__(self, other):
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Jet(a.space, b.c - a.c)

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c * float(other))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        ka, kb = self.kind, other.kind  # a truncation keeps a zero zero and a finite jet finite
        if (ka <= SIGNED_ZERO and kb <= FINITE) or (kb <= SIGNED_ZERO and ka <= FINITE):
            return a.space.zero
        ia, ib, ic = a.space._mul_table
        c = np.bincount(ic, weights=a.c[ia] * b.c[ib], minlength=a.space.size)
        return Jet(a.space, c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float, np.floating, np.integer)):
            return Jet(self.space, self.c / float(other))
        pair = self._coerce(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b._reciprocal()

    def __rtruediv__(self, other):
        rec = self._reciprocal()
        return rec * other

    def __pow__(self, exponent):
        return self.pow_const(exponent)

    def __repr__(self):
        return f"Jet(order={self.order}, nvars={self.nvars}, value={self.value!r})"

    # -- composition with univariate functions ------------------------------

    def _compose(self, taylor: list[float]) -> "Jet":
        """Evaluate sum_k taylor[k] * (self - value)^k by Horner's scheme."""
        c = self.c.copy()
        c[0] = 0.0
        u = Jet(self.space, c)
        result = Jet.constant(float(taylor[self.order]), self.order, self.nvars)
        for k in range(self.order - 1, -1, -1):
            c = (result * u).c.copy()  # a product may be a shared zero jet
            c[0] += taylor[k]
            result = Jet(self.space, c)
        return result

    def _reciprocal(self) -> "Jet":
        return self._compose(reciprocal_series(self.value, self.order))

    def sqrt(self) -> "Jet":
        return self._compose(sqrt_series(self.value, self.order))

    def exp(self) -> "Jet":
        return self._compose(exp_series(self.value, self.order))

    def ln(self) -> "Jet":
        return self._compose(ln_series(self.value, self.order))

    def sin(self) -> "Jet":
        return self._compose(sin_series(self.value, self.order))

    def cos(self) -> "Jet":
        return self._compose(cos_series(self.value, self.order))

    def abs(self) -> "Jet":
        abs_value(self.value)  # raises at 0
        return self if self.value > 0 else -self

    def pow_const(self, exponent: float) -> "Jet":
        if _is_integer(exponent) and exponent >= 0:
            return _power_by_squaring(self, int(exponent), Jet.constant(1.0, self.order, self.nvars), operator.mul)
        if _is_integer(exponent):
            pow_value(self.value, exponent)  # raises where the power is singular
            return self.pow_const(-int(exponent))._reciprocal()
        return self._compose(power_series(self.value, exponent, self.order))


def _operand(jets: np.ndarray):
    """(jets, zero flags, lowest order, all finite) of a 1-D object array."""
    kinds = [j.kind for j in jets]
    return jets, [k <= SIGNED_ZERO for k in kinds], min(j.space.order for j in jets), max(kinds) <= FINITE


def _dot(row, col) -> Jet:
    jets_a, zero_a, order_a, finite_a = row
    jets_b, zero_b, order_b, finite_b = col
    skip = finite_a and finite_b
    total = None
    for x, y, zx, zy in zip(jets_a, jets_b, zero_a, zero_b):
        if skip and (zx or zy):
            continue
        term = x * y
        total = term if total is None else total + term
    order = min(order_a, order_b)
    if total is None:
        return jet_space(order, jets_a[0].space.nvars).zero
    return total.truncate(order)


def contract(a: np.ndarray, b: np.ndarray):
    """``a @ b`` for object arrays of jets (``b`` of one or two dimensions),
    with the bits ``@`` gives.

    Each output is the left-to-right sum of its jet products, but the terms
    with an all-zero factor are left out: they are all +0.0, and adding +0.0
    to a sum of products changes no bit.  The sum is still truncated to the
    lowest order over all terms, and it is the +0.0 jet of that space when
    no term is left.  A row or column that holds an inf or NaN takes every
    term, so that NaN propagates as in ``@``.
    """
    if a.shape[-1] != b.shape[0]:
        raise UsageError(f"cannot contract shapes {a.shape} and {b.shape}")
    cols = [_operand(b)] if b.ndim == 1 else [_operand(b[:, j]) for j in range(b.shape[1])]
    rows = a.reshape(-1, a.shape[-1])
    out = np.empty((len(rows), len(cols)), dtype=object)
    for i, row in enumerate(rows):
        r = _operand(row)
        for j, col in enumerate(cols):
            out[i, j] = _dot(r, col)
    shape = a.shape[:-1] + b.shape[1:]
    return out.reshape(shape) if shape else out[0, 0]


@lru_cache(maxsize=None)
def _lift_slots(order: int, nvars: int, to_nvars: int) -> np.ndarray:
    """Slots in jet_space(order, to_nvars) of the monomials of jet_space(order, nvars)."""
    pad = (0,) * (to_nvars - nvars)
    index = jet_space(order, to_nvars).index
    return np.array([index[m + pad] for m in jet_space(order, nvars).monomials])


def lift_jets(arr: np.ndarray, nvars: int) -> np.ndarray:
    """The jets of an object array as jets in ``nvars`` variables: variable k
    stays in slot k, and every monomial in the added variables gets a +0.0
    coefficient.  Entries that are one jet stay one jet, and a jet keeps its
    kind."""
    out = np.empty(arr.shape, dtype=object)
    lifted: dict[int, Jet] = {}
    for idx, jet in np.ndenumerate(arr):
        new = lifted.get(id(jet))
        if new is None:
            space = jet_space(jet.order, nvars)
            if jet.kind == PLUS_ZERO:
                new = space.zero
            else:
                c = np.zeros(space.size)
                c[_lift_slots(jet.order, jet.nvars, nvars)] = jet.c
                new = Jet(space, c, jet.kind)
            lifted[id(jet)] = new
        out[idx] = new
    return out


def jet_values(arr: np.ndarray) -> np.ndarray:
    """Float array of the values of an object array of jets."""
    out = np.empty(arr.shape)
    for idx in np.ndindex(arr.shape):
        out[idx] = arr[idx].value
    return out
