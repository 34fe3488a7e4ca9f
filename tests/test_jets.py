"""Jet arithmetic: exactness on polynomials, chain rules, finite-difference spot checks."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbgrav.errors import ConfigError, SingularEvaluationError, UsageError
from tbgrav.jets import Jet


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
