"""Stacked jet tensors: arrays of jets of one space as one coefficient array.

A ``JetArray`` holds a tensor of jets as one float array of shape
(*shape, S), S the size of its ``JetSpace``, or, for a batch of P points,
(P, *shape, S): one tensor per point, the point axis first.  Shapes, indices,
axes and term tables are those of one point's tensor, and the point axis
rides along; indexing an unbatched array down to one entry gives a ``Jet``.
Every operation runs on the whole batch: sums, differences and scalings
broadcast, partials, truncations, lifts and values are one gather or slice,
and products, contractions and each Horner step of ``compose`` are one
masked kernel call (``sum_of_products``: an np.bincount of the live
products, then one of their sums).  Each coefficient has the bits the same
operations give on the entries of each point as ``Jet`` objects; the mask
rules below allow it.  The kernel plans each key of term tables and zero
masks once (flat gathers and bincount bins of one point) and keeps the plans
that fit its byte bound for the calls that meet the key again.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import UsageError
from .jets import Jet, JetSpace, jet_space, reciprocal_series, sqrt_series

# -- mask rules ---------------------------------------------------------------
#
# Most jets of a static, symmetric solution are identically zero, and most
# coefficients of a lifted base field are.  ``_coefficients`` leaves out what
# these rules allow and gives the bits of the full dense operation:
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

_PLAN_BYTES = 8 << 20  # bytes of kernel plans kept; a plan that does not fit runs and is not kept
_plans: dict[tuple, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
_plan_bytes = 0  # bytes of the plans in _plans
_any, _all = np.logical_or.reduce, np.logical_and.reduce


def _plan(space: JetSpace, ta: np.ndarray, tb: np.ndarray, masks):
    """(gather_a, gather_b, term_bins, out_bins) of one kernel call: the flat
    indices into one point's a and b of the live products, term by term and
    each term's table pairs in table order, the bin of each product (term x
    S + slot) and the output bin of each term coefficient.  ``masks`` holds
    the nonzero masks (rows_a, rows_b, slots_a, slots_b); all true takes every
    term and pair."""
    size = space.size
    rows_a, rows_b, slots_a, slots_b = masks
    out_index, k = np.nonzero(rows_a[ta] & rows_b[tb])
    ra, rb = ta[out_index, k], tb[out_index, k]
    ia, ib, ic = space._mul_table
    keep = np.flatnonzero(slots_a[ia] & slots_b[ib])
    ia, ib, ic = ia[keep], ib[keep], ic[keep]
    term_bins = (np.arange(len(ra))[:, None] * size + ic).ravel()
    out_bins = (out_index[:, None] * size + np.arange(size)).ravel()
    return (ra[:, None] * size + ia).ravel(), (rb[:, None] * size + ib).ravel(), term_bins, out_bins


def _per_point(bins: np.ndarray, points: int, width: int) -> np.ndarray:
    """``bins`` for each of ``points`` points in turn, point p's moved up by p x width."""
    return bins if points == 1 else (bins + np.arange(0, points * width, width)[:, None]).ravel()


def _coefficients(space: JetSpace, a: np.ndarray, b: np.ndarray, ta: np.ndarray, tb: np.ndarray) -> np.ndarray:
    """Rows out[p, o] = sum over k of a[p, ta[o, k]] * b[p, tb[o, k]], for
    coefficient rows a and b of ``space`` at P points, of shapes (P, Na, S)
    and (P, Nb, S) (an operand of one point serves every point), and term
    tables ta, tb of shape (n, K); out has shape (P, n, S).

    Each product is the multiplication table's np.bincount (its pairs added
    in table order), and each sum adds its terms in k order, starting from
    +0.0, as ``Jet`` sums them, less what the mask rules leave out.  One plan,
    on the masks of the whole batch, serves every point: each point gathers
    from its own rows and sums into its own bins.
    """
    global _plan_bytes
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
    width = len(ta) * space.size
    if not len(term_bins):  # no live product (np.bincount of nothing gives integers)
        return np.zeros((points, len(ta), space.size))
    prods = a.reshape(len(a), -1).take(gather_a, axis=1)
    prods = np.multiply(prods, b.reshape(len(b), -1).take(gather_b, axis=1), out=prods if len(a) == points else None)
    terms = np.bincount(_per_point(term_bins, points, len(out_bins)), prods.ravel(), points * len(out_bins))
    return np.bincount(_per_point(out_bins, points, width), terms, points * width).reshape(points, len(ta), -1)


@lru_cache(maxsize=None)
def _partial_gather(order: int, nvars: int, variables: tuple[int, ...]):
    """(src, factor) arrays of shape (len(variables), lower size): the
    coefficients of d/dx_v of a jet are c[src[v]] * factor[v]."""
    space = jet_space(order, nvars)
    tables = [space.shift_table(v) for v in variables]
    return np.array([src for _, src, _ in tables]), np.array([fac for _, _, fac in tables])


@lru_cache(maxsize=None)
def _lift_slots(order: int, nvars: int, to_nvars: int) -> np.ndarray:
    """Slots in jet_space(order, to_nvars) of the monomials of jet_space(order, nvars)."""
    pad = (0,) * (to_nvars - nvars)
    index = jet_space(order, to_nvars).index
    return np.array([index[m + pad] for m in jet_space(order, nvars).monomials])


@lru_cache(maxsize=None)
def _contract_terms(rows: int, inner: int, cols: int) -> tuple[np.ndarray, np.ndarray]:
    """Term tables of a (rows, inner) @ (inner, cols) contraction."""
    k = np.arange(inner)
    ta = np.broadcast_to(np.arange(rows)[:, None, None] * inner + k, (rows, cols, inner))
    tb = np.broadcast_to(k * cols + np.arange(cols)[:, None], (rows, cols, inner))
    return ta.reshape(-1, inner), tb.reshape(-1, inner)


_NUMBER = (int, float, np.floating, np.integer)


class JetArray:
    """A tensor of jets of one space, stored as one float array ``c`` of
    shape (*shape, space.size), or (points, *shape, space.size) for a batch:
    entry idx of point p is the jet ``c[p, idx]``.

    ``shape``, ``ndim``, indices and axes are those of one point's tensor.
    Indexing an unbatched array down to one entry gives a ``Jet`` (a view of
    the coefficients), anything else a ``JetArray``; ``flat`` runs over the
    entries as jets.  Arithmetic broadcasts as NumPy does over the entries of
    each point, and follows ``Jet``'s rules entry by entry, with the same
    bits: operands of two orders are truncated to the lower, a number is a
    constant jet in a sum and a scale factor in a product (a float array is
    one too, broadcast against ``values``), an unbatched operand serves every
    point of a batched one, and a product of two jet operands is one masked
    kernel call (``sum_of_products``).  Jet arrays are not changed in place.
    """

    __slots__ = ("space", "c", "points")
    __array_ufunc__ = None  # NumPy operands defer to the reflected operators

    def __init__(self, space: JetSpace, coeffs: np.ndarray, points: int | None = None):
        self.space = space
        self.c = coeffs
        self.points = points

    @staticmethod
    def stack(jets) -> "JetArray":
        """A jet array from a JetArray, a Jet, a (nested) sequence or object
        array of jets of one variable count, or a list of jet arrays of one
        shape (the new axis first, after a batch's point axis), at their
        lowest order."""
        if isinstance(jets, JetArray):
            return jets
        if isinstance(jets, Jet):
            return JetArray(jets.space, jets.c)
        if isinstance(jets, list) and any(isinstance(j, JetArray) for j in jets):
            rows, _ = concat(*jets)
            return rows.reshape(len(jets), *JetArray.stack(jets[0]).shape)
        arr = np.empty(np.shape(jets), dtype=object)
        arr[...] = jets
        entries = list(arr.flat)
        if not entries or not all(isinstance(j, Jet) for j in entries):
            raise UsageError("expected jets")
        if len({j.nvars for j in entries}) != 1:
            raise UsageError("jet nvars mismatch in one array")
        space = jet_space(min(j.order for j in entries), entries[0].nvars)
        c = np.array([j.c[: space.size] for j in entries]).reshape(arr.shape + (space.size,))
        return JetArray(space, c)

    # -- shape ----------------------------------------------------------------

    @property
    def _lead(self) -> tuple[int, ...]:
        """The shape of the point axis: (points,), or () unbatched."""
        return () if self.points is None else (self.points,)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.c.shape[len(self._lead):-1]

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
        if self.points is None:
            c = self.c[index + (slice(None),)]
            return Jet(self.space, c) if c.ndim == 1 else JetArray(self.space, c)
        # the point axis sits next to the coefficients while one point's index
        # applies, so that advanced indices leave it where it was
        n = self.c.ndim
        c = self.c.transpose(*range(1, n - 1), 0, n - 1)[index + (slice(None), slice(None))]
        n = c.ndim
        return JetArray(self.space, c.transpose(n - 2, *range(n - 2), n - 1), self.points)

    @property
    def flat(self) -> list[Jet]:
        return [Jet(self.space, c) for c in self.c.reshape(-1, self.space.size)]

    def transpose(self, *axes) -> "JetArray":
        axes = axes or tuple(range(self.ndim))[::-1]
        lead = len(self._lead)
        c = self.c.transpose(*range(lead), *(axis + lead for axis in axes), lead + self.ndim)
        return JetArray(self.space, c, self.points)

    @property
    def T(self) -> "JetArray":
        return self.transpose()

    def reshape(self, *shape) -> "JetArray":
        return JetArray(self.space, self.c.reshape(*self._lead, *shape, self.space.size), self.points)

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
        """Float array (*shape, nvars, nvars) of the second partials, in C order
        (so that each point of a batch is laid out as it is alone)."""
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
        return JetArray(space, self.c[..., : space.size], self.points)

    def partials(self, variables) -> "JetArray":
        """d/dx_v of every entry for each v of ``variables``, a new leading axis."""
        if self.order < 1:
            raise UsageError("partial() requires order >= 1")
        src, fac = _partial_gather(self.order, self.nvars, tuple(variables))
        c = np.moveaxis(self.c[..., src] * fac, -2, len(self._lead))
        return JetArray(jet_space(self.order - 1, self.nvars), c, self.points)

    def lift(self, nvars: int) -> "JetArray":
        """The entries as jets in ``nvars`` variables: variable k stays in slot
        k, and every monomial in the added variables gets a +0.0 coefficient."""
        space = jet_space(self.order, nvars)
        c = np.zeros(self.c.shape[:-1] + (space.size,))
        c[..., _lift_slots(self.order, self.nvars, nvars)] = self.c
        return JetArray(space, c, self.points)

    # -- arithmetic -------------------------------------------------------------------

    def _pair(self, other):
        """(self, other) as jet arrays of one space for a Jet or JetArray
        ``other``, else None."""
        if isinstance(other, Jet):
            other = JetArray(other.space, other.c)
        elif not isinstance(other, JetArray):
            return None
        if other.space is self.space:
            return self, other
        if other.nvars != self.nvars:
            raise UsageError(f"jet nvars mismatch: {self.nvars} vs {other.nvars}")
        order = min(self.order, other.order)
        return self.truncate(order), other.truncate(order)

    def _terms(self, other):
        """(space, a, b, points): coefficient arrays of self and of ``other``
        (a number or float array as a constant jet) that broadcast entry by
        entry, or None."""
        if isinstance(other, (*_NUMBER, np.ndarray)):
            values = np.asarray(other, dtype=float)
            c = np.zeros(values.shape + (self.space.size,))
            c[..., 0] = values
            return self.space, self.c, c, self.points
        pair = self._pair(other)
        if pair is None:
            return None
        a, b = pair
        if a.ndim != b.ndim and (a.points or b.points):  # the point axis stays in front
            ndim = max(a.ndim, b.ndim)
            return (a.space, *(x.c.reshape((x.points or 1,) + (1,) * (ndim - x.ndim) + x.c.shape[len(x._lead):])
                               for x in (a, b)), a.points or b.points)
        return a.space, a.c, b.c, a.points or b.points

    def __add__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b, points = terms
        return JetArray(space, a + b, points)

    __radd__ = __add__

    def __sub__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b, points = terms
        return JetArray(space, a - b, points)

    def __rsub__(self, other):
        terms = self._terms(other)
        if terms is None:
            return NotImplemented
        space, a, b, points = terms
        return JetArray(space, b - a, points)

    def __neg__(self):
        return JetArray(self.space, -self.c, self.points)

    def __mul__(self, other):
        if isinstance(other, (*_NUMBER, np.ndarray)):
            return JetArray(self.space, self.c * np.asarray(other, dtype=float)[..., None], self.points)
        pair = self._pair(other)
        return NotImplemented if pair is None else _elementwise(*pair)

    def __rmul__(self, other):
        if isinstance(other, (*_NUMBER, np.ndarray)):
            return self * other
        pair = self._pair(other)
        return NotImplemented if pair is None else _elementwise(pair[1], pair[0])

    def __truediv__(self, other):
        if isinstance(other, _NUMBER):
            return JetArray(self.space, self.c / float(other), self.points)
        if isinstance(other, (Jet, JetArray)):
            return self * JetArray.stack(other).reciprocal()
        return NotImplemented

    def __rtruediv__(self, other):
        return self.reciprocal() * other

    # -- composition with univariate functions ----------------------------------------

    def compose(self, series) -> "JetArray":
        """Entry by entry, sum_k t[k] (f - f(0))^k for the Taylor coefficients
        t = series(value, order) of each entry f (``series`` one of the series
        functions of ``jets``), by Horner's scheme: the bits of
        ``Jet._compose``, with one masked kernel call per step for every entry
        of every point."""
        values = self.c[..., 0]
        taylor = np.array([series(v, self.order) for v in values.ravel().tolist()]).T
        taylor = taylor.reshape((self.order + 1,) + values.shape)
        u = self.c.copy()
        u[..., 0] = 0.0
        u = JetArray(self.space, u, self.points)
        index = _entry_index(self)
        c = np.zeros(self.c.shape)
        c[..., 0] = taylor[self.order]
        for k in range(self.order - 1, -1, -1):
            c = products(JetArray(self.space, c, self.points), u, index, index).c
            c[..., 0] += taylor[k]
        return JetArray(self.space, c, self.points)

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
    """The coefficients of ``arr`` as rows (points or 1, entries, S)."""
    return arr.c.reshape(arr.points or 1, -1, arr.space.size)


def sum_of_products(a, b, ta, tb) -> JetArray:
    """The jet array out[o] = sum_k a.flat[ta[o, k]] * b.flat[tb[o, k]] for
    integer term tables ta and tb (broadcast together, k the last axis; or
    two lists of tables, one per term), at every point of a batch (``flat``
    one point's entries): each product as ``Jet.__mul__`` forms it, each sum
    added in k order as ``Jet`` adds it, at the lower order of a and b.  One
    masked kernel call."""
    a, b = JetArray.stack(a)._pair(JetArray.stack(b))
    if isinstance(ta, list):
        shape = np.broadcast_shapes(*(np.shape(t) for t in (*ta, *tb)))
        tables = np.empty((2, *shape, len(ta)), dtype=np.intp)
        for k, (x, y) in enumerate(zip(ta, tb)):
            tables[0, ..., k], tables[1, ..., k] = x, y
        ta, tb = tables
    elif np.shape(ta) != np.shape(tb):
        ta, tb = np.broadcast_arrays(ta, tb)
    out = _coefficients(a.space, _rows(a), _rows(b), ta.reshape(-1, ta.shape[-1]), tb.reshape(-1, tb.shape[-1]))
    points = a.points or b.points
    return JetArray(a.space, out.reshape(((points,) if points else ()) + ta.shape[:-1] + (a.space.size,)), points)


def products(a, b, ia, ib) -> JetArray:
    """The jet array out[o] = a.flat[ia[o]] * b.flat[ib[o]] (ia and ib broadcast
    together); ``sum_of_products`` with one term."""
    return sum_of_products(a, b, [ia], [ib])


def concat(*arrays) -> tuple[JetArray, list[int]]:
    """The entries of jet arrays (or jets) as one flat jet array at their
    lowest order (per point, for a batch), and the flat index of each array's
    first entry, for the term tables of one ``sum_of_products`` call over
    several operands."""
    arrays = [JetArray.stack(a) for a in arrays]
    order = min(a.order for a in arrays)
    if len({a.nvars for a in arrays}) != 1:
        raise UsageError("jet nvars mismatch in one array")
    space = jet_space(order, arrays[0].nvars)
    points = next((a.points for a in arrays if a.points), None)
    parts = [_rows(a.truncate(order)) for a in arrays]
    offsets = np.cumsum([0] + [p.shape[1] for p in parts[:-1]]).tolist()
    if points:
        parts = [np.broadcast_to(p, (points,) + p.shape[1:]) for p in parts]
        return JetArray(space, np.concatenate(parts, axis=1), points), offsets
    return JetArray(space, np.concatenate(parts, axis=1)[0]), offsets


def contract(a, b):
    """``a @ b`` for jet arrays (``b`` of one or more dimensions, contracted
    over its first axis), with the bits the left-to-right jet sum gives: two
    np.bincount calls, one for the products of the live terms and one for
    their sums (``sum_of_products``).  A single output of an unbatched
    contraction is a ``Jet``."""
    a, b = JetArray.stack(a), JetArray.stack(b)
    if a.shape[-1] != b.shape[0]:
        raise UsageError(f"cannot contract shapes {a.shape} and {b.shape}")
    inner = b.shape[0]
    rows, cols = math.prod(a.shape[:-1]), math.prod(b.shape[1:])
    ta, tb = _contract_terms(rows, inner, cols)
    out = sum_of_products(a, b, ta, tb).reshape(*(a.shape[:-1] + b.shape[1:]))
    return out if out.ndim else out[()]


def jet_values(arr) -> np.ndarray:
    """Float array of the values of a jet array (or of jets ``JetArray.stack`` takes)."""
    return JetArray.stack(arr).values
