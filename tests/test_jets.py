"""Jet arithmetic: exactness on polynomials, chain rules, finite-difference spot checks.

``Jet`` is read-only; arithmetic on single jets runs through ``evaluate``
(the row functions of ``jets``) or on 0-d jet arrays."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbgrav import jet_arrays
from tbgrav.errors import ConfigError, SingularEvaluationError, UsageError
from tbgrav.exprlang import evaluate, parse
from tbgrav.jet_arrays import JetArray, contract, products, sum_of_products
from tbgrav.jets import (
    INLINE_NAMES, MAX_ORDER, SERIES, Jet, _monomials, compose_rows, cos_series, horner, inline_series, jet_space,
    mul_rows, reciprocal_series, series_table, sin_series, sqrt_series,
)


def _ev(source, **env):
    """The jet of an expression over jets."""
    return evaluate(parse(source), env)


def _one_point(jets):
    """The jet array of one point of a jet, or of a (nested) list or object
    array of jets of one variable count, at their lowest order."""
    arr = np.empty(np.shape(jets), dtype=object)
    arr[...] = jets
    entries = list(arr.flat)
    space = jet_space(min(j.order for j in entries), entries[0].nvars)
    return JetArray(space, np.array([j.c[: space.size] for j in entries]).reshape((1, *arr.shape, space.size)))


def _var(index, value, order, nvars):
    """The 0-d jet array of the coordinate function x_index."""
    return _one_point(Jet.variable(index, value, order, nvars))


def _const(value, order, nvars):
    return _one_point(Jet.constant(value, order, nvars))


def test_seed_identity_function():
    j = Jet.variable(0, 3.0, order=2, nvars=1)
    assert j.derivative((0,)) == 3.0
    assert j.derivative((1,)) == 1.0
    assert j.derivative((2,)) == 0.0


def test_derivative_rejects_a_negative_or_fractional_index():
    """A multi-index of the right length and degree with a negative or
    non-integer entry is a ``UsageError``, as a wrong length or degree is."""
    j = Jet.variable(0, 1.0, 2, 2)
    for multi in ((3, -1), (0.5, 0.5), (-1, 0)):
        with pytest.raises(UsageError, match="nonnegative integers"):
            j.derivative(multi)
    assert j.derivative((1.0, 0)) == j.derivative((1, 0)) == 1.0


def test_square_of_seed():
    sq = _ev("j*j", j=Jet.variable(0, 3.0, order=2, nvars=1))
    assert sq.derivative((0,)) == 9.0
    assert sq.derivative((1,)) == 6.0
    assert sq.derivative((2,)) == 2.0


def test_gradient_of_sum_of_two_seeds():
    s = _ev("a + b", a=Jet.variable(0, 1.5, order=1, nvars=4), b=Jet.variable(1, 0.5, order=1, nvars=4))
    assert np.allclose(s.gradient(), [1.0, 1.0, 0.0, 0.0])


def test_mul_at_two():
    p = _ev("x*x", x=Jet.variable(0, 2.0, order=2, nvars=1))
    assert p.value == 4.0
    assert p.derivative((1,)) == 4.0
    assert p.derivative((2,)) == 2.0


def test_reciprocal_quotient_rule():
    r = _ev("one/x", one=Jet.constant(1.0, 2, 1), x=Jet.variable(0, 2.0, order=2, nvars=1))
    assert r.value == 0.5
    assert r.derivative((1,)) == -0.25
    assert r.derivative((2,)) == 0.25


def test_x_over_x_is_constant_one():
    r = _ev("x/x", x=Jet.variable(0, 5.0, order=3, nvars=1))
    assert r.value == pytest.approx(1.0, rel=1e-15)
    assert abs(r.derivative((1,))) < 1e-15
    assert abs(r.derivative((2,))) < 1e-15


def test_sqrt_chain_rule():
    # value 4 with unit slope: d sqrt = 1/(2 sqrt v), d2 = -1/(4 v^(3/2))
    s = _ev("sqrt(x)", x=Jet.variable(0, 4.0, order=2, nvars=1))
    assert s.value == 2.0
    assert s.derivative((1,)) == pytest.approx(0.25)
    assert s.derivative((2,)) == pytest.approx(-1.0 / 32.0)


def test_sin_at_zero():
    s = _ev("sin(x)", x=Jet.variable(0, 0.0, order=2, nvars=1))
    assert s.value == 0.0
    assert s.derivative((1,)) == 1.0
    assert s.derivative((2,)) == 0.0


def test_exp_ln_inverse_composition():
    y = _ev("exp(ln(x))", x=Jet.variable(0, 3.0, order=3, nvars=1))
    assert y.value == pytest.approx(3.0, rel=1e-14)
    assert y.derivative((1,)) == pytest.approx(1.0, rel=1e-13)
    assert abs(y.derivative((2,))) < 1e-13
    assert abs(y.derivative((3,))) < 1e-12


def test_extract_from_constant():
    c = Jet.constant(7.0, 2, 3)
    assert c.derivative((0, 0, 0)) == 7.0
    assert c.derivative((1, 0, 0)) == 0.0
    assert c.derivative((0, 2, 0)) == 0.0


def test_cross_derivative():
    x = Jet.variable(0, 1.3, order=2, nvars=2)
    y = Jet.variable(1, -0.7, order=2, nvars=2)
    assert _ev("x*y", x=x, y=y).derivative((1, 1)) == pytest.approx(1.0)


def test_errors():
    with pytest.raises(ConfigError):
        Jet.variable(4, 1.0, order=2, nvars=4)
    with pytest.raises(UsageError):
        Jet.variable(0, 1.0, order=2, nvars=2).derivative((2, 1))
    with pytest.raises(SingularEvaluationError):
        _ev("1/x", x=Jet.constant(0.0, 2, 1))
    with pytest.raises(SingularEvaluationError):
        _ev("sqrt(x)", x=Jet.constant(-1.0, 2, 1))


def test_strict_arith_rejects_nvars_mismatch():
    a = Jet.constant(1.0, 2, 2)
    b = Jet.constant(1.0, 2, 3)
    with pytest.raises(UsageError):
        _one_point(a) + _one_point(b)
    with pytest.raises(UsageError):
        _ev("a + b", a=a, b=b)


def test_stack_takes_a_jet_array_or_a_list_of_them():
    """``JetArray.stack`` returns a jet array as it is and stacks a list of
    jet arrays of one shape (the form in which a field callable hands over its
    components) at their lowest order; anything else, a ``Jet`` or an object
    array among it, raises ``UsageError``.  A ``Jet`` takes no part in
    jet-array arithmetic."""
    x, y = _var(0, 1.5, 3, 2), _var(1, -0.5, 2, 2)
    assert JetArray.stack(x) is x
    both = JetArray.stack([x, y])
    assert both.shape == (2,) and both.order == 2
    assert both[0].c.tobytes() == x.truncate(2).c.tobytes() and both[1].c.tobytes() == y.c.tobytes()
    objects = np.empty(2, dtype=object)
    objects[0], objects[1] = x, y
    jet = Jet.constant(1.0, 3, 2)
    for bad in (jet, [jet], [], [x, 1.0], (x, y), [x, both], objects):
        with pytest.raises(UsageError):
            JetArray.stack(bad)
    for op in (lambda: x + jet, lambda: jet * x, lambda: x / jet, lambda: jet - x):
        with pytest.raises(TypeError):
            op()


# -- polynomial exactness ------------------------------------------------------


def _random_cubic(rng, nvars):
    """Random polynomial of total degree <= 3 with analytic partials."""
    from tbgrav.jets import _monomials

    mons = _monomials(3, nvars)
    coeffs = rng.uniform(-2, 2, size=len(mons))
    return mons, coeffs


def _poly_eval(mons, coeffs, x):
    return sum(c * np.prod(np.asarray(x) ** np.asarray(m)) for m, c in zip(mons, coeffs))


def _poly_partial(mons, coeffs, target):
    """Analytic partial derivative of the polynomial for exponent tuple target."""
    total = 0.0
    for m, c in zip(mons, coeffs):
        term = c
        ok = True
        for e, t in zip(m, target):
            if e < t:
                ok = False
                break
            term *= math.factorial(e) / math.factorial(e - t)
        if ok:
            total += term
    return total


@pytest.mark.parametrize("nvars", [1, 3, 8])
def test_polynomial_derivatives_exact(nvars):
    rng = np.random.default_rng(42 + nvars)
    mons, coeffs = _random_cubic(rng, nvars)
    x = rng.uniform(0.5, 1.5, size=nvars)
    jets = [_var(i, x[i], 3, nvars) for i in range(nvars)]
    val = _const(0.0, 3, nvars)
    for m, c in zip(mons, coeffs):
        term = _const(float(c), 3, nvars)
        for i, e in enumerate(m):
            for _ in range(e):
                term = term * jets[i]
        val = val + term
    # at x itself every derivative (after applying the factorials) matches
    for target in mons:
        exact = _poly_partial(
            mons, coeffs, target
        ) if sum(target) == 0 else None
        # evaluate analytic partial at x: differentiate term by term
        analytic = 0.0
        for m, c in zip(mons, coeffs):
            if any(e < t for e, t in zip(m, target)):
                continue
            term = c
            for e, t, xi in zip(m, target, x):
                term *= (math.factorial(e) / math.factorial(e - t)) * xi ** (e - t)
            analytic += term
        jet = val.flat[0]
        if jet.space.weight(target) > jet.order:  # an x-partial of the joint space past its budget
            with pytest.raises(UsageError, match="exceeds jet order"):
                jet.derivative(target)
            continue
        assert jet.derivative(target) == pytest.approx(analytic, rel=1e-13, abs=1e-13)


def _smooth(j):
    return _ev("sqrt(j*j + 1)*sin(j) + ln(j*0.3 + 2)", j=j)


def test_first_derivative_matches_central_difference():
    x0 = 0.8
    j = _smooth(Jet.variable(0, x0, 2, 1))
    h = 1e-5
    fd = (_smooth(Jet.constant(x0 + h, 0, 1)).value - _smooth(Jet.constant(x0 - h, 0, 1)).value) / (

        2 * h
    )
    assert j.derivative((1,)) == pytest.approx(fd, rel=1e-7)


def test_second_derivative_matches_central_difference():
    x0 = 0.8
    j = _smooth(Jet.variable(0, x0, 2, 1))
    h = 1e-4
    f = lambda t: _smooth(Jet.constant(t, 0, 1)).value
    fd2 = (f(x0 + h) - 2 * f(x0) + f(x0 - h)) / h**2
    assert j.derivative((2,)) == pytest.approx(fd2, rel=1e-4)


finite = st.floats(min_value=-3, max_value=3, allow_nan=False, allow_infinity=False)


@given(a=finite, b=finite, c=finite)
@settings(max_examples=50, deadline=None)
def test_multiplication_associative(a, b, c):
    ja = _var(0, a, 3, 2) + 0.5
    jb = _var(1, b, 3, 2) - 0.25
    jc = _const(c, 3, 2) + ja * 0.1
    left = (ja * jb) * jc
    right = ja * (jb * jc)
    scale = np.max(np.abs(left.c)) + 1.0
    assert np.max(np.abs(left.c - right.c)) <= 1e-13 * scale


@given(a=finite, b=finite)
@settings(max_examples=50, deadline=None)
def test_multiplication_commutative(a, b):
    ja = _var(0, a, 2, 2)
    jb = _var(1, b, 2, 2) * 0.7 + 0.2
    assert np.array_equal((ja * jb).c, (jb * ja).c)


def test_partial_shift_consistency():
    # d/dx of x^2 y at (1.2, -0.5): 2xy; second mixed partial 2x
    f = _ev("x*x*y", x=Jet.variable(0, 1.2, 3, 2), y=Jet.variable(1, -0.5, 3, 2))
    fx = f.partial(0)
    assert fx.value == pytest.approx(2 * 1.2 * -0.5)
    assert fx.derivative((1, 0)) == pytest.approx(2 * -0.5)
    assert fx.derivative((0, 1)) == pytest.approx(2 * 1.2)


def test_truncate_is_a_slice():
    j = _ev("x*sin(x) + z", x=Jet.variable(0, 1.2, 4, 3), z=Jet.variable(2, -0.5, 4, 3))
    for k in range(4):
        low = j.truncate(k)
        assert low.order == k and np.array_equal(low.c, j.c[: low.space.size])
        assert np.shares_memory(low.c, j.c)
    assert j.truncate(4) is j


# -- the weighted joint space ---------------------------------------------------
#
# In eight variables x (slots 0-3) weighs 2 and y (slots 4-7) 1, and the order
# is the weighted budget.  The references below are the total-order space of
# the same budget, built here from ``_monomials``: its multiplication table
# (pairs by the degrees of their slots, then the slots), its shifts and its
# dense row arithmetic.  Every slot the weighted space keeps must carry the
# reference's bytes.

JOINT_SIZES = ((1, 1), (5, 9), (19, 53), (55, 237), (140, 891))  # (slots, table pairs) at budgets 0-4


def _weight(m):
    return 2 * sum(m[:4]) + sum(m[4:])


def _total_order_table(monomials, order):
    index = {m: i for i, m in enumerate(monomials)}
    degrees = sorted({sum(m) for m in monomials})
    table = []
    for da in degrees:
        for db in degrees:
            if da + db <= order:
                table += [(i, j, index[tuple(p + q for p, q in zip(a, b))])
                          for i, a in enumerate(monomials) if sum(a) == da
                          for j, b in enumerate(monomials) if sum(b) == db]
    return np.array(table).T


def _total_order_mul(monomials, order):
    ia, ib, ic = _total_order_table(monomials, order)
    return lambda a, b: np.bincount(
        (ic + np.arange(len(a))[:, None] * len(monomials)).ravel(), (a[:, ia] * b[:, ib]).ravel(),
        len(a) * len(monomials)).reshape(len(a), len(monomials))


def test_joint_space_sizes_prefixes_and_table():
    """Budgets 0-4 keep 1, 5, 19, 55 and 140 monomials with 1, 9, 53, 237 and
    891 table pairs; each budget is a prefix of the next, sorted by weight;
    and the table is the total-order table filtered to the kept output
    slots, in table order."""
    for order, (size, pairs) in enumerate(JOINT_SIZES):
        space = jet_space(order, 8)
        assert space.weights == (2, 2, 2, 2, 1, 1, 1, 1)
        assert (space.size, len(space._mul_table[0])) == (size, pairs)
        assert [_weight(m) for m in space.monomials] == sorted(_weight(m) for m in space.monomials)
        total = _monomials(order, 8)
        assert space.monomials == sorted((m for m in total if _weight(m) <= order), key=_weight)
        if order:
            assert jet_space(order - 1, 8).monomials == space.monomials[:JOINT_SIZES[order - 1][0]]
        ia, ib, ic = _total_order_table(total, order)
        keep = [_weight(total[k]) <= order for k in ic]
        for got, want in zip(space._mul_table, (ia[keep], ib[keep], ic[keep])):
            assert [space.monomials[k] for k in got] == [total[k] for k in want]


def test_joint_space_arithmetic_keeps_the_total_order_bits():
    """On random dense rows at budget 4, the product, a composition, the
    partials and the Hessian give, on every slot the weighted space keeps,
    the bytes of the total-order reference; a 4-variable field lifts to the
    joint space's slots of its monomials, +0.0 elsewhere, up to the budget
    it determines."""
    rng = np.random.default_rng(27)
    order, space = MAX_ORDER, jet_space(MAX_ORDER, 8)
    total = _monomials(order, 8)
    kept = [total.index(m) for m in space.monomials]
    ref_mul = _total_order_mul(total, order)
    a, b = rng.normal(size=(2, 3, len(total)))
    a[:, 0] = rng.uniform(0.5, 2.0, size=3)  # a value sqrt accepts
    assert mul_rows(space, a[:, kept], b[:, kept]).tobytes() == ref_mul(a, b)[:, kept].tobytes()
    ref_sqrt = horner(a, series_table(sqrt_series, a[:, 0], order), ref_mul)
    assert compose_rows(space, a[:, kept], sqrt_series).tobytes() == ref_sqrt[:, kept].tobytes()

    parts = JetArray(space, a[:, kept]).partials(range(8))
    lower = jet_space(order - 2, 8)  # the x-partials' budget, the lowest
    assert parts.space is lower
    for v in range(8):
        up = [total.index(tuple(e + (i == v) for i, e in enumerate(m))) for m in lower.monomials]
        fac = [m[v] + 1.0 for m in lower.monomials]
        assert parts.c[:, v].tobytes() == (a[:, up] * fac).tobytes(), v
    assert [len(jet_space(1, 8).shift_table(v)[0]) for v in range(8)] == [0] * 4 + [1] * 4

    field = rng.normal(size=(3, len(_monomials(1, 4))))
    lifted = JetArray(jet_space(1, 4), field).lift(jet_space(3, 8))  # order 1 determines budget 2 x 1 + 1
    for slot, m in enumerate(lifted.space.monomials):
        want = field[:, _monomials(1, 4).index(m[:4])] if not any(m[4:]) else np.zeros(3)
        assert lifted.c[:, slot].tobytes() == want.tobytes(), m
    with pytest.raises(UsageError, match="does not determine budget 4"):
        JetArray(jet_space(1, 4), field).lift(space)

    hess = JetArray(jet_space(2, 8), a[:, kept[:19]]).hessian()
    for i in range(8):
        for j in range(8):
            m = tuple((k == i) + (k == j) for k in range(8))
            if _weight(m) > 2:  # a mixed or x-x partial past budget 2
                assert np.isnan(hess[:, i, j]).all()
            else:
                assert hess[:, i, j].tobytes() == (a[:, total.index(m)] * (1.0 + (i == j))).tobytes()


def test_shift_past_the_budget_is_an_empty_table():
    """An x-partial (weight 2) of a budget-1 jet holds nothing: its shift
    table is empty, and ``partials`` past the budget raises."""
    space = jet_space(1, 8)
    for var in range(4):
        dst, src, fac = space.shift_table(var)
        assert len(dst) == len(src) == len(fac) == 0
    with pytest.raises(UsageError, match="past a variable's weight"):
        JetArray(space, np.zeros((1, space.size))).partials(range(8))
    assert JetArray(space, np.ones((1, space.size))).partials(range(4, 8)).space is jet_space(0, 8)


def test_pow_const_integer_and_fractional():
    x = Jet.variable(0, 2.0, 3, 1)
    assert _ev("x^3", x=x).value == 8.0
    assert _ev("x^3", x=x).derivative((1,)) == 12.0
    assert _ev("x^-2", x=x).value == 0.25
    assert _ev("x^-2", x=x).derivative((1,)) == pytest.approx(-2 / 8)
    assert _ev("x^0.5", x=x).value == pytest.approx(math.sqrt(2))
    neg = Jet.variable(0, -2.0, 3, 1)
    assert _ev("x^2", x=neg).value == 4.0  # integer powers fine on negative base
    with pytest.raises(SingularEvaluationError):
        _ev("x^0.5", x=neg)


# -- zeros ---------------------------------------------------------------------
#
# The signs of zero that the mask rules of ``jet_arrays`` rely on.  The
# references below are the dense operations on coefficient rows: a product
# is ``mul_rows`` (an np.bincount over the whole multiplication table) in the
# lower of the two spaces, a sum adds the truncated coefficients.


def _dense_mul(a, b):
    space = jet_space(min(a.order, b.order), a.nvars)
    return Jet(space, mul_rows(space, a.c[None, : space.size], b.c[None, : space.size])[0])


def _dense_add(a, b, sign=1.0):
    space = jet_space(min(a.order, b.order), a.nvars)
    x, y = a.c[: space.size], b.c[: space.size]
    return Jet(space, x + y if sign > 0 else x - y)


def _dense_matmul(a, b):
    """a @ b as left-to-right sums of the reference products."""
    rows = a.reshape(-1, a.shape[-1])
    cols = b.reshape(b.shape[0], -1)
    out = np.empty((len(rows), cols.shape[1]), dtype=object)
    for i, row in enumerate(rows):
        for j in range(cols.shape[1]):
            total = _dense_mul(row[0], cols[0, j])
            for x, y in zip(row[1:], cols[1:, j]):
                total = _dense_add(total, _dense_mul(x, y))
            out[i, j] = total
    shape = a.shape[:-1] + b.shape[1:]
    return out.reshape(shape) if shape else out[0, 0]


def _same_bits(x, y):
    return x.space is y.space and x.c.tobytes() == y.c.tobytes()


def _signed_zero(order, nvars):
    """All-zero jet whose coefficients mix +0.0 and -0.0 (a scaled copy)."""
    return ((_var(0, -1.5, order, nvars) - _var(1, 0.0, order, nvars)) * 0.0).flat[0]


def _plus_zero(order, nvars):
    """All-+0.0 jet of a product of a zero with a finite jet."""
    return _dense_mul(Jet.constant(0.0, order, nvars), Jet.variable(0, 2.0, order, nvars))


def test_zero_product_is_plus_zero_in_lower_space():
    """A dense product with a zero factor of either sign is all +0.0, and the
    kernel's product has its bytes."""
    x = _ev("x*sin(y)", x=Jet.variable(0, 1.3, 3, 3), y=Jet.variable(1, -0.7, 3, 3))
    for zero in (_plus_zero(2, 3), _signed_zero(2, 3)):
        for prod, (a, b) in ((_dense_mul(zero, x), (zero, x)), (_dense_mul(x, zero), (x, zero))):
            assert prod.order == 2
            assert _same_bits((_one_point(a) * _one_point(b)).flat[0], prod)
            assert not np.signbit(prod.c).any()


def test_zero_times_nonfinite_gives_dense_nan():
    for bad in (math.inf, math.nan):
        c = Jet.variable(0, 0.4, 3, 2).c.copy()
        c[2] = bad
        x = Jet(jet_space(3, 2), c)
        for zero in (_plus_zero(3, 2), _signed_zero(2, 2)):
            with np.errstate(invalid="ignore"):
                prod = (_one_point(zero) * _one_point(x)).flat[0]
            assert np.isnan(prod.c).any()
            with np.errstate(invalid="ignore"):
                assert _same_bits(prod, _dense_mul(zero, x))


def _negated_product():
    """-(x * 2): -0.0 in its zero coefficients."""
    return (-(_var(0, 1.2, 3, 2) * _const(2.0, 3, 2))).flat[0]


def test_minus_plus_zero_keeps_negative_zeros():
    x = _negated_product()
    assert np.signbit(x.c[x.c == 0.0]).all()
    for zero, plus in ((_plus_zero(3, 2), True), (_plus_zero(2, 2), True), (_signed_zero(3, 2), False)):
        diff = (_one_point(x) - _one_point(zero)).flat[0]
        assert _same_bits(diff, _dense_add(x, zero, -1.0))
        assert np.signbit(diff.c[diff.c == 0.0]).all() == plus


def test_plus_zero_added_to_negation_gives_dense_bits():
    x = _negated_product()
    zero = _plus_zero(3, 2)
    for total, ref in (((_one_point(x) + _one_point(zero)).flat[0], _dense_add(x, zero)),
                       ((_one_point(zero) + _one_point(x)).flat[0], _dense_add(zero, x))):
        assert _same_bits(total, ref)
        assert not np.signbit(total.c[total.c == 0.0]).any()


def _sparse_jet(rng, nvars):
    """A jet of random order: a zero of one of three kinds, a negation, a
    nonzero negation holding -0.0, a product, or a random dense jet."""
    order = int(rng.integers(1, 4))
    dense = Jet(jet_space(order, nvars), rng.uniform(-2, 2, jet_space(order, nvars).size))
    pick = rng.integers(0, 7)
    if pick == 0:
        return _plus_zero(order, nvars)
    if pick == 1:
        return _signed_zero(order, nvars)
    if pick == 2:
        return (-_const(0.0, order, nvars)).flat[0]
    if pick == 3:
        return (-_one_point(dense)).flat[0]
    if pick == 4:
        return (-(_var(0, 0.7, order, nvars) * _var(1, -1.2, order, nvars))).flat[0]
    if pick == 5:
        return _dense_mul(dense, Jet.variable(2, -0.3, order, nvars))
    return dense


def _jet_array(rng, shape, nvars):
    """An object array of ``_sparse_jet`` entries (mixed orders, zeros of
    both signs, negations holding -0.0) and the same jets stacked."""
    out = np.empty(shape, dtype=object)
    for idx in np.ndindex(shape):
        out[idx] = _sparse_jet(rng, nvars)
    return out, _one_point(out)


def _truncated(arr, order):
    out = np.empty(arr.shape, dtype=object)
    for idx in np.ndindex(arr.shape):
        out[idx] = arr[idx].truncate(order)
    return out


def _put(arr, idx, slot, value):
    """A copy of the object array with one coefficient of one jet replaced."""
    arr = arr.copy()
    c = arr[idx].c.copy()
    c[slot] = value
    arr[idx] = Jet(arr[idx].space, c)
    return arr


def _assert_same_jets(got, ref):
    """Every entry of the jet array ``got`` has the bytes of the jet ``ref[idx]``."""
    ref = np.asarray(ref, dtype=object)
    assert got.shape == ref.shape
    for idx in np.ndindex(ref.shape):
        assert _same_bits(got[idx], ref[idx]), idx


@pytest.mark.parametrize("seed", range(6))
def test_contract_matches_matmul(seed):
    """The stacked contraction gives, entry for entry, the bytes of the
    per-jet left-to-right route: a @ b over object arrays of the same jets
    by the dense row products and sums, the
    arrays truncated to their lowest order.  The entries mix orders, +0.0
    and -0.0; a row meeting an inf or a NaN takes every term, so that
    0 * inf and NaN reach its outputs."""
    rng = np.random.default_rng(seed)
    nvars = 3
    shapes = [((4, 4), (4, 4)), ((4, 4), (4,)), ((4,), (4, 4)), ((4,), (4,)), ((4, 4, 4), (4,)), ((2, 4), (4, 3))]
    cases = [(_jet_array(rng, sa, nvars)[0], _jet_array(rng, sb, nvars)[0]) for sa, sb in shapes]
    # one inf and one NaN entry, each met by a zero in the row it is contracted with
    a, b = cases[0]
    a = _put(_put(a, (1, 2), slice(None), 0.0), (3, 0), slice(None), 0.0)
    b = _put(_put(b, (2, 1), 0, math.inf), (0, 3), 0, math.nan)
    cases[0] = (a, b)
    # operands of two carrier orders
    cases.append((cases[1][0], _truncated(cases[1][1], 1)))
    for a, b in cases:
        sa, sb = _one_point(a), _one_point(b)
        order = min(sa.order, sb.order)
        with np.errstate(invalid="ignore"):
            got = contract(sa, sb)
            ref = _dense_matmul(_truncated(a, order), _truncated(b, order))
        _assert_same_jets(got, ref)
    with np.errstate(invalid="ignore"):
        out = contract(_one_point(cases[0][0]), _one_point(cases[0][1]))
    assert np.isnan(out[1, 1].c).any() and np.isnan(out[3, 3].c).any()
    assert not np.isnan(out[0, 0].c).any()


@pytest.mark.parametrize("seed", range(4))
def test_elementwise_product_matches_jet_products(seed):
    """A product of jet arrays (broadcast) gives, entry for entry, the bytes
    of the dense row product of its two entries, left factor first; a zero
    met by an inf or a NaN gives NaN."""
    rng = np.random.default_rng(100 + seed)
    a = _put(_jet_array(rng, (4, 4), 3)[0], (0, 2), slice(None), 0.0)
    b = _put(_jet_array(rng, (4,), 3)[0], 2, 1, math.inf)
    sa, sb = _one_point(a), _one_point(b)
    order = min(sa.order, sb.order)
    ta, tb = _truncated(a, order), _truncated(b, order)
    with np.errstate(invalid="ignore"):
        for got, ref in ((sa * sb, [[_dense_mul(x, y) for x, y in zip(row, tb)] for row in ta]),
                         (sb * sa, [[_dense_mul(y, x) for x, y in zip(row, tb)] for row in ta])):
            _assert_same_jets(got, np.array(ref, dtype=object))
        assert np.isnan((sa * sb)[0, 2].c).any()
        scalar = a[1, 1].truncate(order)
        _assert_same_jets(_one_point(scalar) * sb, np.array([_dense_mul(scalar, y) for y in tb], dtype=object))


def test_division_by_a_float_array_divides_each_entry():
    """``arr / values`` divides each entry's coefficients by its float, as a
    number does, broadcast as ``arr * values`` is, at a batch's points too."""
    rng = np.random.default_rng(13)
    space = jet_space(2, 3)
    arr = JetArray(space, rng.uniform(-2.0, 2.0, (1, 2, 3, space.size)))  # one point of 2 x 3 entries
    values = np.array([0.5, -3.0, 7.0])
    got = arr / values
    assert got.shape == (arr * values).shape == (2, 3)
    for i, j in np.ndindex(2, 3):
        assert got[i, j].c.tobytes() == (arr[i, j] / float(values[j])).c.tobytes()
    per_point = np.array([[2.0, -0.25, 3.0], [1.5, 4.0, -8.0]])
    got = JetArray(space, arr.c[0]) / per_point  # 2 points of 3 entries
    assert got.points == 2 and got.shape == (3,)
    for p, j in np.ndindex(2, 3):
        assert got.c[p, j].tobytes() == (arr.c[0, p, j] / per_point[p, j]).tobytes()


# -- kernel plans ---------------------------------------------------------------


def _masked_coefficients(rng, rows, space):
    """Coefficient rows with all-zero rows, all-zero slots, scattered zeros,
    and -0.0 in about half of the zeros."""
    c = rng.uniform(-2, 2, (rows, space.size))
    c[rng.random(rows) < 0.3] = 0.0
    c[:, rng.random(space.size) < 0.3] = 0.0
    c[rng.random(c.shape) < 0.2] = 0.0
    return np.where(rng.random(c.shape) < 0.5, c, -c)


def _jet_sums(a, b, ta, tb):
    """Object array of the sums over k of the dense row products a.flat[ta[o, k]] * b.flat[tb[o, k]], left to
    right."""
    out = np.empty(len(ta), dtype=object)
    for o, (ra, rb) in enumerate(zip(ta, tb)):
        total = _dense_mul(a.flat[ra[0]], b.flat[rb[0]])
        for i, j in zip(ra[1:], rb[1:]):
            total = _dense_add(total, _dense_mul(a.flat[i], b.flat[j]))
        out[o] = total
    return out


def _fresh_plans(monkeypatch):
    monkeypatch.setattr(jet_arrays, "_plans", {})
    monkeypatch.setattr(jet_arrays, "_plan_bytes", 0)
    monkeypatch.setattr(jet_arrays, "_buffer", np.empty(0))


def _counted_plans(monkeypatch):
    """A list that gets one entry per plan the kernel builds."""
    built, build = [], jet_arrays._plan

    def counted(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(jet_arrays, "_plan", counted)
    return built


@pytest.mark.parametrize("seed", range(4))
def test_planned_kernel_matches_jet_products(seed, monkeypatch):
    """A call that builds its plan, one that runs the kept plan and one on a
    cleared cache give the bytes of the entry-by-entry dense products, for
    operands with all-zero rows and slots and -0.0 entries."""
    _fresh_plans(monkeypatch)
    built = _counted_plans(monkeypatch)
    rng = np.random.default_rng(200 + seed)
    space = jet_space(3, 3)
    a = JetArray(space, _masked_coefficients(rng, 6, space)[None])
    b = JetArray(space, _masked_coefficients(rng, 5, space)[None])
    ta, tb = rng.integers(0, 6, (7, 3)), rng.integers(0, 5, (7, 3))
    ref = _jet_sums(a, b, ta, tb)
    first, again = sum_of_products(a, b, ta, tb), sum_of_products(a, b, ta, tb)
    assert len(built) == 1 and len(jet_arrays._plans) == 1
    jet_arrays._plans.clear()
    for got in (first, again, sum_of_products(a, b, ta, tb)):
        _assert_same_jets(got, ref)
    assert len(built) == 2


def test_kernel_plan_is_reused_per_key(monkeypatch):
    """A repeated call runs its kept plan.  Fewer live rows, fewer live slots
    or the same table entries in another shape get a plan of their own: the
    sparser operands come first, so that running their plan on the denser
    ones would leave out live products."""
    _fresh_plans(monkeypatch)
    built = _counted_plans(monkeypatch)
    rng = np.random.default_rng(7)
    space = jet_space(2, 4)
    a = JetArray(space, _masked_coefficients(rng, 6, space)[None])
    b = _masked_coefficients(rng, 6, space)
    fewer_rows, fewer_slots = b.copy(), b.copy()
    fewer_rows[np.flatnonzero(b.any(axis=1))[0]] = 0.0
    fewer_slots[:, np.flatnonzero(b.any(axis=0))[0]] = 0.0
    ta, tb = rng.integers(0, 6, (6, 2)), rng.integers(0, 6, (6, 2))
    cases = [(fewer_rows, ta, tb), (fewer_slots, ta, tb), (b, ta, tb), (b, ta.reshape(4, 3), tb.reshape(4, 3))]
    for c, ta_, tb_ in cases:
        b_ = JetArray(space, c[None])
        for _ in range(2):
            _assert_same_jets(sum_of_products(a, b_, ta_, tb_), _jet_sums(a, b_, ta_, tb_))
    assert len(built) == 4 and len(jet_arrays._plans) == 4


def test_nonfinite_operand_takes_every_term_and_keeps_no_plan(monkeypatch):
    """An inf or a NaN in an operand gives the dense result (a zero factor
    met by it gives NaN), and its call stores no plan."""
    _fresh_plans(monkeypatch)
    rng = np.random.default_rng(11)
    space = jet_space(2, 3)
    a = JetArray(space, _masked_coefficients(rng, 4, space)[None])
    a.c[0, 1] = -0.0  # an all-zero row, met by the inf and the NaN below
    for bad in (math.inf, math.nan):
        b = JetArray(space, _masked_coefficients(rng, 4, space)[None])
        b.c[0, 2, 3] = bad
        ta, tb = np.array([[1, 0], [0, 1], [3, 2]]), np.array([[2, 3], [1, 0], [0, 2]])
        with np.errstate(invalid="ignore"):
            got, ref = sum_of_products(a, b, ta, tb), _jet_sums(a, b, ta, tb)
        _assert_same_jets(got, ref)
        assert np.isnan(got.c[0, 0]).any()
        assert jet_arrays._plans == {}


def test_kernel_plans_are_kept_while_they_fit(monkeypatch):
    """Plans are kept while their index arrays fit in _PLAN_BYTES; a plan
    that does not fit runs, is not kept and evicts none, so the plans kept
    before it are run again without a rebuild."""
    _fresh_plans(monkeypatch)
    built = _counted_plans(monkeypatch)
    monkeypatch.setattr(jet_arrays, "_PLAN_BYTES", 160)
    space = jet_space(1, 2)
    # one-term plans (no output bins) of 3, 3, 1 and 10 live products: 72, 72, 24 and 240 bytes
    rows = ([1.0, 2.0, 0.0], [1.0, 0.0, 2.0], [1.0, 0.0, 0.0], [1.0, 2.0, 3.0])
    calls = list(zip(rows, (1, 1, 1, 2))) + [(rows[0], 1), (rows[1], 1), (rows[2], 1)]
    for (row, n_out), kept, builds in zip(calls, (1, 2, 2, 2, 2, 2, 2), (1, 2, 3, 4, 4, 4, 5)):
        a = JetArray(space, np.array([[row]]))
        ta = np.zeros((n_out, 1), dtype=int)
        _assert_same_jets(sum_of_products(a, a, ta, ta), _jet_sums(a, a, ta, ta))
        assert len(jet_arrays._plans) == kept and len(built) == builds
        assert jet_arrays._plan_bytes == sum(x.nbytes for plan in jet_arrays._plans.values() for x in plan)
    assert jet_arrays._plan_bytes == 144


def test_warm_contract_allocates_little_more_than_its_output(monkeypatch):
    """A warm call runs its kept plan in the kept product buffer: a dense
    order-4, 8-variable 4x4 contraction at 5 points (310,080 products per
    point) peaks at a few times its output's bytes, its term sums and
    bincounts, not at the bytes of its products."""
    _fresh_plans(monkeypatch)
    rng = np.random.default_rng(3)
    space = jet_space(4, 8)
    a, b = (JetArray(space, rng.uniform(-1, 1, (5, 4, 4, space.size))) for _ in range(2))
    contract(a, b)
    tracemalloc.start()
    try:
        out = contract(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(jet_arrays._plans) == 1
    assert peak <= 4 * out.c.nbytes


def test_kernel_results_share_no_memory_with_the_product_buffer(monkeypatch):
    """Every result is an array of its own: none is a view of the product
    buffer, and later calls leave earlier results as they were."""
    _fresh_plans(monkeypatch)
    space = jet_space(3, 3)
    results = []
    for seed in range(3):
        rng = np.random.default_rng(300 + seed)
        a, b = (JetArray(space, np.stack([_masked_coefficients(rng, 4, space) for _ in range(2)]).reshape(2, 2, 2, -1))
                for _ in range(2))
        for out in (a * b, contract(a, b)):
            assert not np.shares_memory(out.c, jet_arrays._buffer)
            results.append((out, out.c.copy()))
    for out, before in results:
        assert out.c.tobytes() == before.tobytes()


def test_one_term_plan_gives_each_point_the_dense_product(monkeypatch):
    """A one-term call sums its products straight into the output bins (its
    plan keeps no output bins), and each entry at each of 3 points has the
    bytes of ``mul_rows`` on that point's rows: with a NaN at one point
    (every term taken, no plan kept), a -0.0 product, and a point whose left
    operand is all zero."""
    _fresh_plans(monkeypatch)
    rng = np.random.default_rng(17)
    space = jet_space(3, 3)
    a = np.stack([_masked_coefficients(rng, 4, space) for _ in range(3)])
    b = np.stack([_masked_coefficients(rng, 4, space) for _ in range(3)])
    a[0, 1, 0], b[0, 2, :2], b[1, 2, 0] = 2.0, (-0.0, 1.0), 1.5  # a[0, 1] * b[0, 2] has a -0.0 product in slot 0
    a[2] = np.where(rng.random(a[2].shape) < 0.5, 0.0, -0.0)
    ia, ib = np.array([0, 1, 2, 3]), np.array([3, 2, 1, 0])
    with_nan = a.copy()
    with_nan[1, 2, 4] = math.nan
    for left, kept in ((with_nan, 0), (a, 1)):
        got = products(JetArray(space, left), JetArray(space, b), ia, ib)
        for p, o in np.ndindex(3, 4):
            ref = mul_rows(space, left[p, ia[o]][None], b[p, ib[o]][None])[0]
            assert got.c[p, o].tobytes() == ref.tobytes(), (p, o)
        assert len(jet_arrays._plans) == kept
        assert np.isnan(got.c[1, 2]).any() == (left is with_nan)
    ((_, _, _, out_bins),) = jet_arrays._plans.values()
    assert out_bins.size == 0


def test_a_call_larger_than_the_buffer_bound_keeps_the_buffer(monkeypatch):
    """A call whose two gathers pass _PLAN_BYTES gathers into arrays of its
    own: each point gets the bytes of the dense route, and the kept buffer
    is left as it was."""
    _fresh_plans(monkeypatch)
    rng = np.random.default_rng(23)
    space = jet_space(2, 3)
    small = JetArray(space, _masked_coefficients(rng, 2, space)[None])
    _assert_same_jets(small * small, [_dense_mul(j, j) for j in small.flat])
    buffer, before = jet_arrays._buffer, jet_arrays._buffer.copy()
    monkeypatch.setattr(jet_arrays, "_PLAN_BYTES", buffer.nbytes)
    a, b = (JetArray(space, np.stack([_masked_coefficients(rng, 6, space) for _ in range(2)])) for _ in range(2))
    ta, tb = rng.integers(0, 6, (7, 3)), rng.integers(0, 6, (7, 3))
    got = sum_of_products(a, b, ta, tb)
    assert jet_arrays._buffer is buffer and buffer.tobytes() == before.tobytes()
    for p in range(2):
        one = [JetArray(space, x.c[p:p + 1]) for x in (got, a, b)]
        _assert_same_jets(one[0], _jet_sums(one[1], one[2], ta, tb))


def test_contract_rejects_mismatched_shapes():
    a = _one_point([Jet.constant(1.0, 1, 2)] * 4)
    with pytest.raises(UsageError):
        contract(a, a[:3])


def test_compose_changes_no_earlier_jet():
    """Horner's scheme on a constant jet multiplies by an all-zero jet;
    composing must not write into any jet it did not make."""
    zero = _plus_zero(3, 2)
    const = Jet.constant(2.0, 3, 2)
    before = [j.c.tobytes() for j in (zero, const)]
    for series in SERIES.values():
        for c in (compose_rows(const.space, const.c[None], series)[0], _one_point(const).compose(series).c):
            assert np.count_nonzero(c[1:]) == 0
    assert _ev("sqrt(x)", x=const).value == math.sqrt(2.0)
    assert [j.c.tobytes() for j in (zero, const)] == before
    assert not zero.c.any()


def _written_series(series, order):
    """The function of v that the statements ``inline_series`` writes return."""
    lines = []

    def let(expr):
        lines.append(f"t{len(lines)} = {expr}")
        return f"t{len(lines) - 1}"

    names = inline_series(series, "v", order, let)
    namespace = dict(INLINE_NAMES)
    exec("\n    ".join(["def written(v):", *lines, f"return [{', '.join(names)}]"]), namespace)
    return namespace["written"]


def _outcome(fn, *args):
    try:
        return [float(c).hex() for c in fn(*args)]
    except (ArithmeticError, ValueError, SingularEvaluationError) as err:
        return type(err), str(err)


@pytest.mark.parametrize("series", [reciprocal_series, sin_series, cos_series])
def test_inline_series_match_the_series_bit_for_bit(series):
    # at the first three, v * v differs from v ** 2 in the last bit
    values = [0.3664465704550999, -1426.913158789656, 0.01219429585277711, 2.5, -7.0, math.pi, 1e-300, 1e300,
              -0.0, 0.0, math.inf, -math.inf, math.nan]
    for order in range(3):
        written = _written_series(series, order)
        for v in values:
            assert _outcome(written, v) == _outcome(series, v, order), (order, v)
