"""Stacked jet tensors: arrays of jets of one space as one coefficient array.

A ``JetArray`` holds a tensor of jets at a batch of P >= 1 points as one
float array of shape (P, *shape, S), S the size of its ``JetSpace``: one
tensor per point, the point axis first.  One point is a batch of one, and an
array of one point serves every point of a larger batch.  Shapes, indices,
axes and term tables are those of one point's tensor, and the point axis
rides along; indexing down to one entry gives a 0-d jet array.
Every operation runs on the whole batch: sums, differences and scalings
broadcast, partials, truncations, lifts and values are one gather or slice,
and products, contractions and each Horner step of ``compose`` are one
masked kernel call (``sum_of_products``: at each point, an np.bincount of
the live products, then one of their sums).  Each coefficient has the bits
the dense row arithmetic of ``jets`` gives each entry at each point alone
(``mul_rows`` for a product, sums added left to right, ``horner`` for a
composition); the mask rules below allow it.  The kernel plans each key of
term tables and zero masks once (flat gathers and bincount bins of one point,
which each point runs in turn) and keeps the plans that fit its byte bound
for the calls that meet the key again; products are formed in one buffer.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .jets import Jet, JetSpace, horner, jet_space, reciprocal_series, series_table, sqrt_series

# -- mask rules ---------------------------------------------------------------
#
# Most jets of a static, symmetric solution are identically zero, and most
# coefficients of a lifted base field are.  ``_coefficients`` leaves out what
# these rules allow and gives the bits of the dense row product
# (``jets.mul_rows``) and of sums of such products:
#
# - A product's coefficients are np.bincount sums over the multiplication
#   table that start from +0.0, so a product never holds -0.0, and neither
#   does a sum of products.  Adding the +0.0 of a left-out term to one
#   changes no bit.
# - A term with an all-zero factor (of either sign) and a finite other
#   factor is all +0.0: it is left out (its all-zero mask per entry).
# - A table pair with a coefficient that is zero in every entry of its
#   operand adds only zeros to a bincount sum: it is left out.
# - The masks of a batch are the union over its points: a term or pair that
#   is live at one point and all zero at another adds only zeros there.
# - With an inf or NaN in an operand, every term and pair is taken, so that
#   NaN propagates.

_PLAN_BYTES = 8 << 20  # bytes of kernel plans kept, and of the product buffer; what does not fit is not kept
_plans: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
_plan_bytes = 0  # bytes of the plans in _plans
_buffer = np.empty(0)  # one point's two gathers, shared by every call: the kernel runs in one thread at a time
_any, _all = np.logical_or.reduce, np.logical_and.reduce


def _plan(space: JetSpace, ta: np.ndarray, tb: np.ndarray, masks):
    """(gather_a, gather_b, term_bins, out_bins) of one kernel call: the flat
    indices into one point's a and b of the live products, term by term and
    each term's table pairs in table order, the bin of each product (term x
    S + slot) and the output bin of each term coefficient; with one term per
    output row, term_bins are the output bins out_bins[term_bins] and out_bins
    is empty.  ``masks`` holds the nonzero masks (rows_a, rows_b, slots_a,
    slots_b); all true takes every term and pair."""
    size = space.size
    rows_a, rows_b, slots_a, slots_b = masks
    out_index, k = np.nonzero(rows_a[ta] & rows_b[tb])
    ra, rb = ta[out_index, k] % len(rows_a), tb[out_index, k] % len(rows_b)  # in range, as take(mode="clip") needs
    ia, ib, ic = space._mul_table
    keep = np.flatnonzero(slots_a[ia] & slots_b[ib])
    ia, ib, ic = ia[keep], ib[keep], ic[keep]
    gather_a, gather_b = (ra[:, None] * size + ia).ravel(), (rb[:, None] * size + ib).ravel()
    if ta.shape[1] == 1:
        return gather_a, gather_b, (out_index[:, None] * size + ic).ravel(), np.empty(0, dtype=np.intp)
    term_bins = (np.arange(len(ra))[:, None] * size + ic).ravel()
    return gather_a, gather_b, term_bins, (out_index[:, None] * size + np.arange(size)).ravel()


def _coefficients(space: JetSpace, a: np.ndarray, b: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Rows out[p, o] = sum over k of a[p, ta[o, k]] * b[p, tb[o, k]], for
    coefficient rows a and b of ``space`` at P points, of shapes (P, Na, S)
    and (P, Nb, S) (an operand of one point serves every point), and term
    tables ta, tb of shape (n, K); out has shape (P, n, S).

    Each product is the multiplication table's np.bincount (its pairs added
    in table order, as ``jets.mul_rows`` adds them), and each sum adds its
    terms in k order, starting from +0.0, less what the mask rules leave
    out.  One plan, on the masks of the whole batch, serves every point:
    each point gathers and multiplies its factors in the module's buffer
    (kept while they fit _PLAN_BYTES; a larger call uses arrays of its own)
    and sums them with its own np.bincount calls, so a call on a kept plan
    allocates only its output and each point's term sums.  A one-term plan
    (K = 1) sums the products straight into the output bins: a term sum
    starts from +0.0, so it is never -0.0, and the +0.0 of the second sum
    changes no bit.
    """
    global _plan_bytes, _buffer
    points = max(len(a), len(b))
    if _all(np.isfinite(a), None) and _all(np.isfinite(b), None):
        nz_a, nz_b = a != 0.0, b != 0.0
        masks = _any(nz_a, (0, 2)), _any(nz_b, (0, 2)), _any(nz_a, (0, 1)), _any(nz_b, (0, 1))
        key = (space, ta.shape, ta.tobytes(), tb.tobytes(), *(m.tobytes() for m in masks))
        plan = _plans.get(key)
        if plan is None:
            plan = _plan(space, ta, tb, masks)
            nbytes = sum(x.nbytes for x in plan)
            if _plan_bytes + nbytes <= _PLAN_BYTES:  # a plan that does not fit runs once and is not kept
                _plans[key] = plan
                _plan_bytes += nbytes
    else:
        every = np.ones(a.shape[1], bool), np.ones(b.shape[1], bool), *(np.ones(space.size, bool),) * 2
        plan = _plan(space, ta, tb, every)
    gather_a, gather_b, term_bins, out_bins = plan
    n, width = len(gather_a), len(ta) * space.size
    if len(_buffer) < 2 * n <= _PLAN_BYTES // _buffer.itemsize:
        _buffer = np.empty(2 * n)
    x, y = (_buffer[:n], _buffer[n:2 * n]) if len(_buffer) >= 2 * n else (np.empty(n), np.empty(n))
    rows_a, rows_b = a.reshape(len(a), -1), b.reshape(len(b), -1)
    out = np.empty((points, width))
    for p in range(points):
        # the plan's indices are in range, so mode="clip" only spares take() a buffered copy of out
        rows_a[p % len(a)].take(gather_a, out=x, mode="clip")
        rows_b[p % len(b)].take(gather_b, out=y, mode="clip")
        np.multiply(x, y, out=x)
        sums = np.bincount(term_bins, x, len(out_bins) or width)
        out[p] = np.bincount(out_bins, sums, width) if len(out_bins) else sums
    return out.reshape(points, len(ta), space.size)


@lru_cache(maxsize=None)
def _partial_gather(order: int, nvars: int, variables: tuple[int, ...]):
    """(lower, src, factor): the space of the partials, at the lowest budget
    that a partial in ``variables`` leaves, and arrays of shape
    (len(variables), lower.size) with which the coefficients of d/dx_v of a
    jet are c[src[v]] * factor[v] (each shift table truncated to the prefix
    of that budget)."""
    space = jet_space(order, nvars)
    lower = jet_space(order - max(space.weights[v] for v in variables), nvars)
    tables = [space.shift_table(v) for v in variables]
    return lower, *(np.array([t[k][:lower.size] for t in tables]) for k in (1, 2))


@lru_cache(maxsize=None)
def _lift_slots(order: int, nvars: int, space: JetSpace) -> tuple[np.ndarray, np.ndarray]:
    """(src, dst): the slots of jet_space(order, nvars) whose monomials
    ``space`` holds, and their slots there."""
    pad = (0,) * (space.nvars - nvars)
    held = [(i, space.index[m + pad]) for i, m in enumerate(jet_space(order, nvars).monomials) if m + pad in space.index]
    return tuple(np.array(slots) for slots in zip(*held))


@lru_cache(maxsize=None)
def _contract_terms(rows: int, inner: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Term tables of a (rows, inner) @ (inner, cols) contraction."""
    k = np.arange(inner)
    ta = np.broadcast_to(np.arange(rows)[:, None, None] * inner + k, (rows, cols, inner))
    tb = np.broadcast_to(k * cols + np.arange(cols)[:, None], (rows, cols, inner))
    return ta.reshape(-1, inner), tb.reshape(-1, inner)


_NUMBER = (int, float, np.floating, np.integer)


class JetArray:
    """A tensor of jets of one space at ``points`` points, stored as one float
    array ``c`` of shape (points, *shape, space.size): entry idx of point p is
    the jet ``c[p, idx]``.

    ``shape``, ``ndim``, indices and axes are those of one point's tensor.
    Indexing gives a ``JetArray`` (down to one entry, a 0-d one: one jet per
    point); ``flat`` runs over the entries of every point as ``Jet`` views,
    and ``concat`` joins jet arrays (0-d components into one vector, say).
    Arithmetic takes jet arrays, numbers and float arrays and broadcasts as
    NumPy does over the entries of each point, with the bits of the row
    arithmetic of ``jets`` entry by entry: operands of two orders are
    truncated to the lower, a number is a constant jet in a sum and a scale
    factor in a product or a quotient (a float array is one too, broadcast
    against ``values``), an operand of one point serves every point of the
    other, and a product of two jet operands is one masked kernel call
    (``sum_of_products``).  Jet arrays are not changed in place.
    """

    __slots__ = ("space", "c")
    __array_ufunc__ = None  # NumPy operands defer to the reflected operators

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # -- shape ----------------------------------------------------------------

    @property
    def points(self) -> int:
        """P, the length of the point axis."""
        return len(self.c)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[1:-1]

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def nvars(self) -> int:
        return self.space.nvars

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, index):
        index = index if isinstance(index, tuple) else (index,)
        # the point axis sits next to the coefficients while one point's index
        # applies, so that advanced indices leave it where it was
        n = self.c.ndim
        c = self.c.transpose(*range(1, n - 1), 0, n - 1)[index + (slice(None), slice(None))]
        n = c.ndim
        return JetArray(self.space, c.transpose(n - 2, *range(n - 2), n - 1))

    @property
    def flat(self) -> list[Jet]:
        return [Jet(self.space, c) for c in self.c.reshape(-1, self.space.size)]

    def transpose(self, *axes) -> "JetArray":
        axes = axes or tuple(range(self.ndim))[::-1]
        return JetArray(self.space, self.c.transpose(0, *(axis + 1 for axis in axes), self.ndim + 1))

    @property
    def T(self) -> "JetArray":
        return self.transpose()

    def reshape(self, *shape) -> "JetArray":
        return JetArray(self.space, self.c.reshape(self.points, *shape, self.space.size))

    def ravel(self) -> "JetArray":
        return self.reshape(-1)

    def __repr__(self):
        return f"JetArray(shape={self.shape}, order={self.order}, nvars={self.nvars}, points={self.points})"

    # -- coefficient reads ----------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Float array of the entries' values (the point axis first)."""
        return self.c[..., 0].copy()

    def hessian(self) -> np.ndarray:
        """Float array (points, *shape, nvars, nvars) of the second partials,
        in C order (so that each point is laid out as it is alone); NaN for
        a pair of variables whose weights exceed the budget (in the joint
        space, a mixed partial below budget 3 and an x-x one below 4)."""
        if self.order < 2:
            raise UsageError("hessian requires order >= 2")
        slot, fac = self.space.second_index
        return np.take(self.c, slot, axis=-1) * fac

    def truncate(self, order: int) -> "JetArray":
        if order == self.order:
            return self
        if order > self.order:
            raise UsageError(f"cannot extend jet of order {self.order} to {order}")
        space = jet_space(order, self.nvars)
        return JetArray(space, self.c[..., : space.size])

    def partials(self, variables) -> "JetArray":
        """d/dx_v of every entry for each v of ``variables``, a new leading
        axis, at the lowest budget they leave: a partial lowers the budget
        by its variable's weight (in the joint space, 2 for x and 1 for y)."""
        variables = tuple(variables)
        if self.order < max(self.space.weights[v] for v in variables):
            raise UsageError(f"partial() of budget {self.order} past a variable's weight")
        lower, src, fac = _partial_gather(self.order, self.nvars, variables)
        return JetArray(lower, np.moveaxis(self.c[..., src] * fac, -2, 1))

    def lift(self, space: JetSpace) -> "JetArray":
        """The entries as jets of ``space``, in more variables: variable k
        stays in slot k, and every monomial in the added variables gets a
        +0.0 coefficient.  A field of total order k determines the joint
        space up to budget 2k + 1 (its first unknown monomial is one of x
        alone of degree k + 1, weight 2k + 2); a higher budget raises
        UsageError."""
        if space.order >= (self.order + 1) * min(space.weights[:self.nvars]):
            raise UsageError(f"a jet of order {self.order} does not determine budget {space.order}")
        src, dst = _lift_slots(self.order, self.nvars, space)
        c = np.zeros(self.c.shape[:-1] + (space.size,))
        c[..., dst] = self.c[..., src]
        return JetArray(space, c)

    # -- arithmetic -------------------------------------------------------------------

    def _pair(self, other):
        """(self, other) as jet arrays of one space for a JetArray ``other``,
        else None."""
        if not isinstance(other, JetArray):
            return None
        if other.space is self.space:
            return self, other
        if other.nvars != self.nvars:
            raise UsageError(f"jet nvars mismatch: {self.nvars} vs {other.nvars}")
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def _terms(self, other):
        """(space, a, b): coefficient arrays of self and of ``other`` (a
        number or float array as a constant jet) that broadcast entry by
        entry, or None."""
        if isinstance(other, (*_NUMBER, np.ndarray)):
            values = np.asarray(other, dtype=float)
            c = np.zeros(values.shape + (self.space.size,))
            c[..., 0] = values
            return self.space, self.c, c
        pair = self._pair(other)
        if pair is None:
            return None
        a, b = pair
        if a.ndim != b.ndim:  # the point axis stays in front
            ndim = max(a.ndim, b.ndim)
            return (a.space, *(x.c.reshape((x.points,) + (1,) * (ndim - x.ndim) + x.c.shape[1:]) for x in (a, b)))
        return a.space, a.c, b.c

    def __add__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b = terms
        return JetArray(space, a + b)

    __radd__ = __add__

    def __sub__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b = terms
        return JetArray(space, a - b)

    def __rsub__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b = terms
        return JetArray(space, b - a)

    def __neg__(self):
        return JetArray(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, (*_NUMBER, np.ndarray)):
            return JetArray(self.space, self.c * np.asarray(other, dtype=float)[..., None])
        pair = self._pair(other)
        return NotImplemented if pair is None else _elementwise(*pair)

    def __rmul__(self, other):
        if isinstance(other, (*_NUMBER, np.ndarray)):
            return self * other
        pair = self._pair(other)
        return NotImplemented if pair is None else _elementwise(pair[1], pair[0])

    def __truediv__(self, other):
        if isinstance(other, (*_NUMBER, np.ndarray)):
            return JetArray(self.space, self.c / np.asarray(other, dtype=float)[..., None])
        if isinstance(other, JetArray):
            return self * other.reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- composition with univariate functions ----------------------------------------

    def compose(self, series) -> "JetArray":
        """Entry by entry, ``series`` (one of the series functions of ``jets``)
        composed with each entry by ``jets.horner``, with one masked kernel
        call per step for every entry of every point: the bits of
        ``jets.compose_rows`` on each entry."""
        index = _entry_index(self)

        def mul(x, y):
            return products(JetArray(self.space, x), JetArray(self.space, y), index, index).c

        return JetArray(self.space, horner(self.c, series_table(series, self.c[..., 0], self.order), mul))

    def sqrt(self) -> "JetArray":
        return self.compose(sqrt_series)

    def reciprocal(self) -> "JetArray":
        return self.compose(reciprocal_series)


def _entry_index(arr: JetArray) -> np.ndarray:
    return np.arange(math.prod(arr.shape)).reshape(arr.shape)


def _elementwise(a: JetArray, b: JetArray) -> JetArray:
    """a * b entry by entry (broadcast), a the left factor."""
    return products(a, b, _entry_index(a), _entry_index(b))


def _rows(arr: JetArray) -> np.ndarray:
    """The coefficients of ``arr`` as rows (points, entries, S)."""
    return arr.c.reshape(arr.points, -1, arr.space.size)


def sum_of_products(a, b, ta, tb) -> JetArray:
    """The jet array out[o] = sum_k a.flat[ta[o, k]] * b.flat[tb[o, k]] for
    integer term tables ta and tb (broadcast together, k the last axis; or
    two lists of tables, one per term), at every point (``flat`` one point's
    entries): each product as ``jets.mul_rows`` forms it, each sum
    added in k order, at the lower order of a and b.  One masked kernel call."""
    a, b = a._pair(b)
    if isinstance(ta, list):
        shape = np.broadcast_shapes(*(np.shape(t) for t in (*ta, *tb)))
        tables = np.empty((2, *shape, len(ta)), dtype=np.intp)
        for k, (x, y) in enumerate(zip(ta, tb)):
            tables[0, ..., k], tables[1, ..., k] = x, y
        ta, tb = tables
    elif np.shape(ta) != np.shape(tb):
        ta, tb = np.broadcast_arrays(ta, tb)
    out = _coefficients(a.space, _rows(a), _rows(b), ta.reshape(-1, ta.shape[-1]), tb.reshape(-1, tb.shape[-1]))
    return JetArray(a.space, out.reshape(len(out), *ta.shape[:-1], a.space.size))


def products(a, b, ia, ib) -> JetArray:
    """The jet array out[o] = a.flat[ia[o]] * b.flat[ib[o]] (ia and ib broadcast
    together); ``sum_of_products`` with one term."""
    return sum_of_products(a, b, [ia], [ib])


def concat(*arrays) -> tuple[JetArray, list[int]]:
    """The entries of jet arrays as one flat jet array at their lowest order
    (per point), and the flat index of each array's first entry, for the
    term tables of one ``sum_of_products`` call over several operands."""
    order = min(a.order for a in arrays)
    if len({a.nvars for a in arrays}) != 1:
        raise UsageError("jet nvars mismatch in one array")
    space = jet_space(order, arrays[0].nvars)
    points = max(a.points for a in arrays)
    parts = [_rows(a.truncate(order)) for a in arrays]
    offsets = np.cumsum([0] + [p.shape[1] for p in parts[:-1]]).tolist()
    parts = [np.broadcast_to(p, (points,) + p.shape[1:]) for p in parts]
    return JetArray(space, np.concatenate(parts, axis=1)), offsets


def contract(a, b) -> JetArray:
    """``a @ b`` for jet arrays (``b`` of one or more dimensions, contracted
    over its first axis), with the bits the left-to-right jet sum gives: two
    np.bincount calls, one for the products of the live terms and one for
    their sums (``sum_of_products``)."""
    if a.shape[-1] != b.shape[0]:
        raise UsageError(f"cannot contract shapes {a.shape} and {b.shape}")
    inner = b.shape[0]
    rows, cols = math.prod(a.shape[:-1]), math.prod(b.shape[1:])
    ta, tb = _contract_terms(rows, inner, cols)
    return sum_of_products(a, b, ta, tb).reshape(*a.shape[:-1], *b.shape[1:])

