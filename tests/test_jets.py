"""Jet arithmetic: exactness on polynomials, chain rules, finite-difference spot checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbgrav.errors import ConfigError, SingularEvaluationError, UsageError
from tbgrav.jets import (
    FINITE, INLINE_NAMES, NONFINITE, PLUS_ZERO, SIGNED_ZERO, Jet, contract, cos_series, inline_series, jet_space,
    reciprocal_series, sin_series,
)


def test_seed_identity_function():
    j = Jet.variable(0, 3.0, order=2, nvars=1)
    assert j.derivative((0,)) == 3.0
    assert j.derivative((1,)) == 1.0
    assert j.derivative((2,)) == 0.0


def test_square_of_seed():
    j = Jet.variable(0, 3.0, order=2, nvars=1)
    sq = j * j
    assert sq.derivative((0,)) == 9.0
    assert sq.derivative((1,)) == 6.0
    assert sq.derivative((2,)) == 2.0


def test_gradient_of_sum_of_two_seeds():
    a = Jet.variable(0, 1.5, order=1, nvars=4)
    b = Jet.variable(1, 0.5, order=1, nvars=4)
    s = a + b
    assert np.allclose(s.gradient(), [1.0, 1.0, 0.0, 0.0])


def test_mul_at_two():
    x = Jet.variable(0, 2.0, order=2, nvars=1)
    p = x * x
    assert p.value == 4.0
    assert p.derivative((1,)) == 4.0
    assert p.derivative((2,)) == 2.0


def test_reciprocal_quotient_rule():
    x = Jet.variable(0, 2.0, order=2, nvars=1)
    one = Jet.constant(1.0, 2, 1)
    r = one / x
    assert r.value == 0.5
    assert r.derivative((1,)) == -0.25
    assert r.derivative((2,)) == 0.25


def test_x_over_x_is_constant_one():
    x = Jet.variable(0, 5.0, order=3, nvars=1)
    r = x / x
    assert r.value == pytest.approx(1.0, rel=1e-15)
    assert abs(r.derivative((1,))) < 1e-15
    assert abs(r.derivative((2,))) < 1e-15


def test_sqrt_chain_rule():
    # value 4 with unit slope: d sqrt = 1/(2 sqrt v), d2 = -1/(4 v^(3/2))
    x = Jet.variable(0, 4.0, order=2, nvars=1)
    s = x.sqrt()
    assert s.value == 2.0
    assert s.derivative((1,)) == pytest.approx(0.25)
    assert s.derivative((2,)) == pytest.approx(-1.0 / 32.0)


def test_sin_at_zero():
    x = Jet.variable(0, 0.0, order=2, nvars=1)
    s = x.sin()
    assert s.value == 0.0
    assert s.derivative((1,)) == 1.0
    assert s.derivative((2,)) == 0.0


def test_exp_ln_inverse_composition():
    x = Jet.variable(0, 3.0, order=3, nvars=1)
    y = x.ln().exp()
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
    assert (x * y).derivative((1, 1)) == pytest.approx(1.0)


def test_errors():
    with pytest.raises(ConfigError):
        Jet.variable(4, 1.0, order=2, nvars=4)
    with pytest.raises(UsageError):
        Jet.variable(0, 1.0, order=2, nvars=2).derivative((2, 1))
    with pytest.raises(SingularEvaluationError):
        Jet.constant(0.0, 2, 1)._reciprocal()
    with pytest.raises(SingularEvaluationError):
        Jet.constant(-1.0, 2, 1).sqrt()


def test_strict_arith_rejects_nvars_mismatch():
    a = Jet.constant(1.0, 2, 2)
    b = Jet.constant(1.0, 2, 3)
    with pytest.raises(UsageError):
        a + b


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
    jets = [Jet.variable(i, x[i], 3, nvars) for i in range(nvars)]
    val = Jet.constant(0.0, 3, nvars)
    for m, c in zip(mons, coeffs):
        term = Jet.constant(float(c), 3, nvars)
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
        got = val.derivative(target)
        assert got == pytest.approx(analytic, rel=1e-13, abs=1e-13)


def _smooth(j):
    return (j * j + 1.0).sqrt() * j.sin() + (j * 0.3 + 2.0).ln()


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
    ja = Jet.variable(0, a, 3, 2) + 0.5
    jb = Jet.variable(1, b, 3, 2) - 0.25
    jc = Jet.constant(c, 3, 2) + ja * 0.1
    left = (ja * jb) * jc
    right = ja * (jb * jc)
    scale = np.max(np.abs(left.c)) + 1.0
    assert np.max(np.abs(left.c - right.c)) <= 1e-13 * scale


@given(a=finite, b=finite)
@settings(max_examples=50, deadline=None)
def test_multiplication_commutative(a, b):
    ja = Jet.variable(0, a, 2, 2)
    jb = Jet.variable(1, b, 2, 2) * 0.7 + 0.2
    assert np.array_equal((ja * jb).c, (jb * ja).c)


def test_partial_shift_consistency():
    # d/dx of x^2 y at (1.2, -0.5): 2xy; second mixed partial 2x
    x = Jet.variable(0, 1.2, 3, 2)
    y = Jet.variable(1, -0.5, 3, 2)
    f = x * x * y
    fx = f.partial(0)
    assert fx.value == pytest.approx(2 * 1.2 * -0.5)
    assert fx.derivative((1, 0)) == pytest.approx(2 * -0.5)
    assert fx.derivative((0, 1)) == pytest.approx(2 * 1.2)


def test_truncate_is_made_once():
    x = Jet.variable(0, 1.2, 4, 3)
    j = x * x.sin() + Jet.variable(2, -0.5, 4, 3)
    for k in range(4):
        low = j.truncate(k)
        assert low is j.truncate(k)
        assert low.order == k and np.array_equal(low.c, j.c[: low.space.size])
    assert j.truncate(4) is j


def test_pow_const_integer_and_fractional():
    x = Jet.variable(0, 2.0, 3, 1)
    assert (x**3).value == 8.0
    assert (x**3).derivative((1,)) == 12.0
    assert (x ** (-2)).value == 0.25
    assert (x ** (-2)).derivative((1,)) == pytest.approx(-2 / 8)
    assert x.pow_const(0.5).value == pytest.approx(math.sqrt(2))
    neg = Jet.variable(0, -2.0, 3, 1)
    assert (neg**2).value == 4.0  # integer powers fine on negative base
    with pytest.raises(SingularEvaluationError):
        neg.pow_const(0.5)


# -- zero rules ----------------------------------------------------------------
#
# The references below are the dense operations written out on coefficients,
# with no zero rule: a product is an np.bincount over the multiplication table
# of the lower of the two spaces, a sum adds the truncated coefficients.


def _dense_mul(a, b):
    space = jet_space(min(a.order, b.order), a.nvars)
    ia, ib, ic = space._mul_table
    return Jet(space, np.bincount(ic, weights=a.c[: space.size][ia] * b.c[: space.size][ib],
                                  minlength=space.size))


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
    return (Jet.variable(0, -1.5, order, nvars) - Jet.variable(1, 0.0, order, nvars)) * 0.0


def _plus_zero(order, nvars):
    """All-+0.0 jet of a product of a zero with a finite jet."""
    return Jet.constant(0.0, order, nvars) * Jet.variable(0, 2.0, order, nvars)


def test_kind_classes():
    assert _plus_zero(2, 3).kind == PLUS_ZERO
    assert _signed_zero(2, 3).kind == SIGNED_ZERO
    assert (-Jet.constant(0.0, 2, 3)).kind == SIGNED_ZERO
    tiny = Jet.constant(1e-200, 2, 3)  # its square underflows to 0
    assert tiny.kind == FINITE and Jet.variable(0, 2.0, 2, 3).kind == FINITE
    for bad in (math.inf, -math.inf, math.nan):
        assert Jet.constant(bad, 2, 3).kind == NONFINITE


def test_zero_product_is_plus_zero_in_lower_space():
    x = Jet.variable(0, 1.3, 3, 3) * Jet.variable(1, -0.7, 3, 3).sin()
    for zero in (_plus_zero(2, 3), _signed_zero(2, 3)):
        for prod in (zero * x, x * zero):
            assert prod.order == 2
            assert _same_bits(prod, _dense_mul(zero, x))
            assert not np.signbit(prod.c).any()


def test_zero_times_nonfinite_gives_dense_nan():
    for bad in (math.inf, math.nan):
        c = Jet.variable(0, 0.4, 3, 2).c.copy()
        c[2] = bad
        x = Jet(jet_space(3, 2), c)
        for zero in (_plus_zero(3, 2), _signed_zero(2, 2)):
            with np.errstate(invalid="ignore"):
                prod = zero * x
            assert np.isnan(prod.c).any()
            with np.errstate(invalid="ignore"):
                assert _same_bits(prod, _dense_mul(zero, x))


def test_minus_plus_zero_keeps_negative_zeros():
    x = -(Jet.variable(0, 1.2, 3, 2) * Jet.constant(2.0, 3, 2))  # -0.0 in its zero coefficients
    assert np.signbit(x.c[x.c == 0.0]).all()
    for zero in (_plus_zero(3, 2), _plus_zero(2, 2), _signed_zero(3, 2)):
        assert zero.kind <= SIGNED_ZERO  # known before the subtraction, as after a product
        diff = x - zero
        assert _same_bits(diff, _dense_add(x, zero, -1.0))
        assert np.signbit(diff.c[diff.c == 0.0]).all() == (zero.kind == PLUS_ZERO)


def test_plus_zero_added_to_negation_gives_dense_bits():
    x = -(Jet.variable(0, 1.2, 3, 2) * Jet.constant(2.0, 3, 2))
    zero = _plus_zero(3, 2)
    for total, ref in ((x + zero, _dense_add(x, zero)), (zero + x, _dense_add(zero, x))):
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
        return -Jet.constant(0.0, order, nvars)
    if pick == 3:
        return -dense
    if pick == 4:
        return -(Jet.variable(0, 0.7, order, nvars) * Jet.variable(1, -1.2, order, nvars))
    if pick == 5:
        return dense * Jet.variable(2, -0.3, order, nvars)
    return dense


@pytest.mark.parametrize("seed", range(6))
def test_contract_matches_matmul(seed):
    rng = np.random.default_rng(seed)
    nvars = 3

    def array(shape):
        out = np.empty(shape, dtype=object)
        for idx in np.ndindex(shape):
            out[idx] = _sparse_jet(rng, nvars)
        return out

    cases = [(array((4, 4)), array((4, 4))), (array((4, 4)), array((4,))), (array((4,)), array((4, 4))),
             (array((4,)), array((4,))), (array((4, 4, 4)), array((4,)))]
    # one inf entry, met by a zero in the row it is contracted with: 0 * inf makes NaN
    bad = cases[0][1]
    c = bad[2, 1].c.copy()
    c[1] = math.inf
    bad[2, 1] = Jet(bad[2, 1].space, c)
    cases[0][0][1, 2] = _plus_zero(2, nvars)
    for a, b in cases:
        with np.errstate(invalid="ignore"):
            got, ref = np.asarray(contract(a, b), dtype=object), np.asarray(_dense_matmul(a, b), dtype=object)
            via_matmul = np.asarray(a @ b, dtype=object)
        assert got.shape == ref.shape == via_matmul.shape
        for idx in np.ndindex(ref.shape):
            assert _same_bits(got[idx], ref[idx]), idx
            assert _same_bits(via_matmul[idx], ref[idx]), idx
    with np.errstate(invalid="ignore"):
        assert np.isnan(contract(cases[0][0], cases[0][1])[1, 1].c).any()


def test_contract_rejects_mismatched_shapes():
    a = np.array([Jet.constant(1.0, 1, 2)] * 4, dtype=object)
    with pytest.raises(UsageError):
        contract(a, a[:3])


def test_compose_changes_no_earlier_jet():
    """Horner's scheme on a constant jet multiplies by an all-zero jet, whose
    product is the space's shared zero; composing must not write into it."""
    zero = jet_space(3, 2).zero
    shared = _plus_zero(3, 2)
    const = Jet.constant(2.0, 3, 2)
    before = [j.c.tobytes() for j in (zero, shared, const)]
    for f in (const.sqrt(), const.exp(), const.ln(), const.sin(), const.cos(), const._reciprocal()):
        assert np.count_nonzero(f.c[1:]) == 0
    assert const.sqrt().value == math.sqrt(2.0)
    assert [j.c.tobytes() for j in (zero, shared, const)] == before
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
