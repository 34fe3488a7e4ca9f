"""Expression grammar, jet evaluation, round-trip printing, fuzz safety."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tbgrav import exprlang
from tbgrav.errors import EngineError, EvaluationError, ParseError
from tbgrav.exprlang import (
    Binary,
    Const,
    Sym,
    Unary,
    evaluate,
    free_symbols,
    parse,
    print_expr,
)
from tbgrav.jets import Jet


def _env(order=1, **values):
    env = {}
    slots = sorted(values)
    for i, name in enumerate(slots):
        env[name] = Jet.variable(i, values[name], order, max(len(slots), 1))
    return env


def _const_env(**values):
    n = max(len(values), 1)
    return {k: Jet.constant(v, 0, n) for k, v in values.items()}


def test_lapse_function_structure():
    tree = parse("1 - 2*M/r + Q^2/r^2")
    assert isinstance(tree, Binary) and tree.op == "+"
    assert free_symbols(tree) == {"M", "r", "Q"}


def test_unary_minus_binds_looser_than_power():
    tree = parse("-r^2")
    assert isinstance(tree, Unary) and tree.fn == "neg"
    assert isinstance(tree.child, Binary) and tree.child.op == "^"
    val = evaluate(tree, _const_env(r=10.0))
    assert val.value == -100.0


def test_sin_squared_at_pi_over_two():
    val = evaluate(parse("sin(theta)^2"), _const_env(theta=math.pi / 2))
    assert val.value == pytest.approx(1.0)


def test_power_right_associative():
    val = evaluate(parse("2^3^2"), _const_env(x=0.0))
    assert val.value == 512.0  # 2^(3^2)


def test_negative_exponent():
    val = evaluate(parse("r^-2"), _const_env(r=4.0))
    assert val.value == pytest.approx(1 / 16)


def test_evaluate_with_parameter_and_seeded_coordinate():
    env = {"M": Jet.constant(1.0, 1, 1), "r": Jet.variable(0, 10.0, 1, 1)}
    val = evaluate(parse("2*M/r"), env)
    assert val.value == pytest.approx(0.2)
    assert val.derivative((1,)) == pytest.approx(-0.02)


def test_schwarzschild_lapse_derivative():
    env = {"M": Jet.constant(1.0, 1, 1), "r": Jet.variable(0, 10.0, 1, 1)}
    val = evaluate(parse("1-2*M/r"), env)
    assert val.value == pytest.approx(0.8)
    assert val.derivative((1,)) == pytest.approx(0.02)


def test_coulomb_term():
    env = {"Q": Jet.constant(0.3, 1, 1), "r": Jet.variable(0, 5.0, 1, 1)}
    val = evaluate(parse("Q/r"), env)
    assert val.value == pytest.approx(0.06)
    assert val.derivative((1,)) == pytest.approx(-0.012)


def test_free_symbols():
    assert free_symbols(parse("1-2*M/r")) == {"M", "r"}
    assert free_symbols(parse("0")) == set()
    assert free_symbols(parse("sin(theta)*r")) == {"theta", "r"}


def test_unbound_symbol_reports_name():
    with pytest.raises(EvaluationError, match="zeta"):
        evaluate(parse("zeta + 1"), _const_env(r=1.0))


def test_unknown_function_is_parse_error():
    with pytest.raises(ParseError, match="tanh"):
        parse("tanh(x)")


def test_parse_error_carries_span():
    with pytest.raises(ParseError) as err:
        parse("1 + * 2")
    begin, end = err.value.span
    assert (begin, end) == (4, 5)
    assert err.value.expected


def test_spans_are_byte_offsets():
    # a multibyte character before the offending token shifts the byte span
    with pytest.raises(ParseError) as err:
        parse("r² + 1")  # superscript-two is 2 bytes in UTF-8
    begin, end = err.value.span
    assert (begin, end) == (1, 3)
    with pytest.raises(ParseError) as err2:
        parse("1 + µ")
    assert err2.value.span[0] == len("1 + ".encode())


@pytest.mark.parametrize(
    "source",
    [
        "1 - 2*M/r + Q^2/r^2",
        "-r^2",
        "(-r)^2",
        "sin(theta)^2",
        "a*b/c - -d",
        "2^-3",
        "exp(ln(x)) + sqrt(abs(y))",
        "1e-3*x + 2.5E+2",
    ],
)
def test_print_parse_round_trip(source):
    tree = parse(source)
    printed = print_expr(tree)
    reparsed = parse(printed)
    assert print_expr(reparsed) == printed
    assert reparsed == tree


def test_order_zero_evaluation_matches_python():
    src = "1 - 2*M/r + Q^2/r^2 + sin(th)*cos(th)/exp(Q)"
    M, r, Q, th = 1.0, 7.3, 0.3, 0.9
    want = 1 - 2 * M / r + Q**2 / r**2 + math.sin(th) * math.cos(th) / math.exp(Q)
    got = evaluate(parse(src), _const_env(M=M, r=r, Q=Q, th=th)).value
    assert got == pytest.approx(want, rel=1e-15)


@given(st.text(max_size=40))
@settings(max_examples=300, deadline=None)
def test_fuzz_never_crashes(source):
    try:
        tree = parse(source)
    except ParseError:
        return
    assert free_symbols(tree) is not None


@given(
    st.text(
        alphabet="0123456789.+-*/^()abMQrE_ ",
        max_size=30,
    )
)
@settings(max_examples=300, deadline=None)
def test_fuzz_structured_alphabet(source):
    try:
        tree = parse(source)
        evaluate(tree, _const_env(a=1.1, b=0.7, M=1.0, Q=0.3, r=5.0, E=2.0, _=1.0))
    except EngineError:
        return
    except OverflowError:
        return  # huge exponents overflow float pow; not a parser defect
