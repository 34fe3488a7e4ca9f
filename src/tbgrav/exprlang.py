"""Scalar expression language for metric and potential components.

Grammar (EBNF, also documented in the README):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := primary ('^' factor)?
    primary := number | ident | ident '(' expr ')' | '(' expr ')'

'^' is right-associative and binds tighter than unary minus, so ``-r^2``
means ``-(r^2)``.  Known functions: sqrt, sin, cos, exp, ln, abs.  Angles
are radians.  Expressions evaluate over jets, so every parse tree doubles
as a derivative program.

``evaluate`` walks a tree over jets.  It is the reference semantics.  Models
evaluate their expressions through a ``Tape`` instead: a straight-line
program compiled once from a list of root trees (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., SIAM 2008).  The compiler

- hash-conses the nodes (frozen dataclasses serve as dict keys) and numbers
  each instruction by (operation, operand registers), so a subexpression
  shared within or across roots is computed once (common-subexpression
  elimination);
- folds every subtree built only from constants, parameters and ``pi``
  with the operations the tape itself runs: the jets' order-0 rules on
  floats and the Jet methods on a constant jet, so a folded constant is the
  value ``evaluate`` would compute, down to the sign of its zeros.  A
  division is a product with the reciprocal, as ``Jet.__truediv__`` forms
  it, so ``x / 10`` is ``x * 0.1``.

A tape runs on plain floats (``Tape.values``) and on jets of any order
(``Tape.jets``).  Both match ``evaluate`` bit for bit,
coefficient by coefficient down to the sign of a zero, and raise the same
errors at the same points.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, ParseError, SingularEvaluationError
from .jets import MAX_ORDER, Jet, abs_value, jet_space, ln_value, mul_value, pow_value, reciprocal_value, sqrt_value

FUNCTIONS = ("sqrt", "sin", "cos", "exp", "ln", "abs")

# -- syntax tree -------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Sym:
    name: str


@dataclass(frozen=True)
class Unary:
    fn: str  # 'neg' or one of FUNCTIONS
    child: "Expr"


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


Expr = Const | Sym | Unary | Binary

# -- lexer -------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


@dataclass(frozen=True)
class Token:
    kind: str  # 'num' | 'ident' | one of "+-*/^()" | 'end'
    text: str
    span: tuple[int, int]


def _byte_span(source: str, begin: int, end: int) -> tuple[int, int]:
    """Convert character offsets to byte offsets into the UTF-8 source."""
    return len(source[:begin].encode()), len(source[:end].encode())


def _tokenize(source: str) -> list[Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        m = _TOKEN_RE.match(source, pos)
        if m is None or m.end() == pos:
            stripped = source[pos:].lstrip()
            if not stripped:
                break
            bad = pos + (len(source[pos:]) - len(stripped))
            raise ParseError(
                f"unexpected character {source[bad]!r}",
                span=_byte_span(source, bad, bad + 1),
            )
        if m.lastgroup == "op":
            kind = m.group("op")
        else:
            kind = m.lastgroup
        tokens.append(
            Token(
                kind,
                m.group(m.lastgroup),
                _byte_span(source, m.start(m.lastgroup), m.end(m.lastgroup)),
            )
        )
        pos = m.end()
    span_end = len(source.encode())
    tokens.append(Token("end", "", (span_end, span_end)))
    return tokens


# -- parser ------------------------------------------------------------------


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def _advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def _expect(self, kind: str) -> Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self.cur.text or 'end of input'!r}",
                span=self.cur.span,
                expected={kind},
            )
        return self._advance()

    def parse(self) -> Expr:
        node = self.expr()
        if self.cur.kind != "end":
            raise ParseError(
                f"unexpected trailing input {self.cur.text!r}",
                span=self.cur.span,
                expected={"end"},
            )
        return node

    def expr(self) -> Expr:
        node = self.term()
        while self.cur.kind in ("+", "-"):
            op = self._advance().kind
            node = Binary(op, node, self.term())
        return node

    def term(self) -> Expr:
        node = self.factor()
        while self.cur.kind in ("*", "/"):
            op = self._advance().kind
            node = Binary(op, node, self.factor())
        return node

    def factor(self) -> Expr:
        if self.cur.kind == "-":
            self._advance()
            return Unary("neg", self.factor())
        return self.power()

    def power(self) -> Expr:
        base = self.primary()
        if self.cur.kind == "^":
            self._advance()
            return Binary("^", base, self.factor())
        return base

    def primary(self) -> Expr:
        tok = self.cur
        if tok.kind == "num":
            self._advance()
            return Const(float(tok.text))
        if tok.kind == "ident":
            self._advance()
            if self.cur.kind == "(":
                if tok.text not in FUNCTIONS:
                    raise ParseError(
                        f"unknown function {tok.text!r}",
                        span=tok.span,
                        expected=set(FUNCTIONS),
                    )
                self._advance()
                arg = self.expr()
                self._expect(")")
                return Unary(tok.text, arg)
            return Sym(tok.text)
        if tok.kind == "(":
            self._advance()
            node = self.expr()
            self._expect(")")
            return node
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            span=tok.span,
            expected={"num", "ident", "("},
        )


def parse(source: str) -> Expr:
    """Parse UTF-8 source text into an expression tree."""
    if not isinstance(source, str):
        raise ParseError("expression source must be text", span=(0, 0))
    return _Parser(source).parse()


# -- evaluation --------------------------------------------------------------


def _jet_pow(base: Jet, exponent: Jet) -> Jet:
    if not exponent.c[1:].any():  # constant exponent: exact power rule
        return base.pow_const(exponent.value)
    return (exponent * base.ln()).exp()


def evaluate(expr: Expr, env: dict[str, Jet]) -> Jet:
    """Evaluate the tree over jets; every symbol must be bound in env."""
    if isinstance(expr, Const):
        probe = next(iter(env.values()), None)
        if probe is None:
            raise EvaluationError("evaluation environment must bind at least one jet")
        return Jet.constant(expr.value, probe.order, probe.nvars)
    if isinstance(expr, Sym):
        try:
            return env[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {expr.name!r}") from None
    if isinstance(expr, Unary):
        child = evaluate(expr.child, env)
        if expr.fn == "neg":
            return -child
        return getattr(child, expr.fn)()
    op, left, right = expr.op, expr.left, expr.right
    if op == "^":
        return _jet_pow(evaluate(left, env), evaluate(right, env))
    a = evaluate(left, env)
    b = evaluate(right, env)
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    return a / b


# -- compiled tape ------------------------------------------------------------

# The float operations are the jets' own order-0 rules; the jet operations
# are the Jet methods, looked up on each call as ``evaluate`` does.
_FLOAT_OPS = {
    "+": operator.add, "-": operator.sub, "*": mul_value, "^": pow_value, "neg": operator.neg,
    "recip": reciprocal_value, "sqrt": sqrt_value, "exp": math.exp, "ln": ln_value, "sin": math.sin,
    "cos": math.cos, "abs": abs_value,
}
_JET_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "^": _jet_pow, "neg": operator.neg,
    "recip": operator.methodcaller("_reciprocal"), **{fn: operator.methodcaller(fn) for fn in FUNCTIONS},
}


class Tape:
    """Straight-line program for a list of root expressions.

    Registers 0..len(coords)-1 hold the coordinates; the others hold folded
    constants or instruction results.  An instruction is ``(op, out, a, b)``
    on registers, with ``b`` None for a unary op; a division is a product
    with the reciprocal, as in ``Jet.__truediv__``.  Symbols resolve as in
    ``SpacetimeModel.coord_env``: a coordinate first, then ``pi``, then a
    parameter.

    A folded constant is kept twice: as a float, its order-0 value, and as a
    constant jet in one variable at the highest order.  Both are folded with
    the operations the tape runs, so the jet holds what a constant jet of
    every order >= 1 holds in ``evaluate``: the same value, and derivative
    coefficients that are all one signed zero (-0.0 after a negation, for
    instance).  A fold that raises at any order is left on the tape.
    """

    def __init__(self, roots: list[Expr], coords, params: dict[str, float]):
        self.coords = tuple(coords)
        self._params = {**{k: float(v) for k, v in params.items()}, "pi": math.pi}
        self._regs: list = [None] * len(self.coords)  # the float at a constant's register
        self._consts: dict[int, Jet] = {}  # constant register -> its folded jet
        self._const_regs: dict[tuple, int] = {}
        self._numbering: dict[tuple, int] = {}  # (op, a, b) -> register
        self._code: list[tuple] = []
        self._seeds: set[int] = set()  # the coordinates the roots use
        self._jet_regs: dict = {}  # JetSpace -> registers with the constants as its jets
        memo: dict[Expr, tuple | int] = {}
        self.outputs = [self._reg(self._lower(root, memo)) for root in roots]
        self._fcode = [(_FLOAT_OPS[op], out, a, b) for op, out, a, b in self._code]
        self._jcode = [(_JET_OPS[op], out, a, b) for op, out, a, b in self._code]

    # -- compiler -----------------------------------------------------------------

    def _lower(self, node: Expr, memo) -> tuple | int:
        """(float, jet) for a folded subtree, else the register of its value."""
        ref = memo.get(node)
        if ref is not None:
            return ref
        if isinstance(node, Const):
            ref = _constant(node.value)
        elif isinstance(node, Sym):
            if node.name in self.coords:
                ref = self.coords.index(node.name)
                self._seeds.add(ref)
            elif node.name in self._params:
                ref = _constant(self._params[node.name])
            else:
                raise EvaluationError(f"unbound symbol {node.name!r}")
        elif isinstance(node, Unary):
            ref = self._emit(node.fn, self._lower(node.child, memo))
        else:
            left, right = self._lower(node.left, memo), self._lower(node.right, memo)
            if node.op == "/":
                ref = self._emit("*", left, self._emit("recip", right))
            else:
                ref = self._emit(node.op, left, right)
        memo[node] = ref
        return ref

    def _emit(self, op: str, a, b=None) -> tuple | int:
        args = (a,) if b is None else (a, b)
        if all(isinstance(arg, tuple) for arg in args):
            try:
                return _FLOAT_OPS[op](*(f for f, _ in args)), _JET_OPS[op](*(jet for _, jet in args))
            except (ArithmeticError, ValueError, SingularEvaluationError):
                pass  # stays on the tape and raises on every run, as evaluate does
        key = (op, self._reg(a), None if b is None else self._reg(b))
        out = self._numbering.get(key)
        if out is None:
            out = self._numbering[key] = len(self._regs)
            self._regs.append(None)
            self._code.append((op, out, key[1], key[2]))
        return out

    def _reg(self, ref: tuple | int) -> int:
        if isinstance(ref, int):
            return ref
        f, jet = ref
        key = (f.hex(), jet.c.tobytes())
        out = self._const_regs.get(key)
        if out is None:
            out = self._const_regs[key] = len(self._regs)
            self._regs.append(f)
            self._consts[out] = jet
        return out

    # -- evaluators ---------------------------------------------------------------

    @property
    def constants(self) -> tuple[float | None, ...]:
        """Per root, its folded value, or None where it depends on a coordinate."""
        return tuple(self._regs[r] for r in self.outputs)

    def values(self, x) -> list[float]:
        """Root values at the coordinate values x, on plain floats."""
        regs = self._regs.copy()
        for k in self._seeds:
            regs[k] = float(x[k])
        for fn, out, a, b in self._fcode:
            regs[out] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        return [regs[r] for r in self.outputs]

    def jets(self, x, order: int, nvars: int = 4, slots=(0, 1, 2, 3)) -> list[Jet]:
        """Root jets with coordinate k seeded in variable ``slots[k]``.  A
        folded root is a jet shared by every call in its space (no jet is
        changed in place)."""
        space = jet_space(order, nvars)
        regs = self._jet_regs.get(space)
        if regs is None:  # the constants as the jets evaluate builds, once per space
            regs = self._jet_regs[space] = self._regs.copy()
            for r, jet in self._consts.items():
                c = np.full(space.size, jet.c[1])
                c[0] = regs[r] if order == 0 else jet.c[0]
                regs[r] = Jet(space, c)
        regs = regs.copy()
        for k in self._seeds:
            regs[k] = Jet.variable(slots[k], float(x[k]), order, nvars)
        for fn, out, a, b in self._jcode:
            regs[out] = fn(regs[a]) if b is None else fn(regs[a], regs[b])
        return [regs[r] for r in self.outputs]


def _constant(value: float) -> tuple[float, Jet]:
    return float(value), Jet.constant(float(value), MAX_ORDER, 1)


def free_symbols(expr: Expr) -> set[str]:
    if isinstance(expr, Const):
        return set()
    if isinstance(expr, Sym):
        return {expr.name}
    if isinstance(expr, Unary):
        return free_symbols(expr.child)
    return free_symbols(expr.left) | free_symbols(expr.right)


# -- canonical printer --------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 2, "^": 4}


def _print(expr: Expr, parent_prec: int, right_side: bool) -> str:
    if isinstance(expr, Const):
        text = repr(expr.value)
        return text[:-2] if text.endswith(".0") else text
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Unary):
        if expr.fn == "neg":
            inner = _print(expr.child, _PREC["neg"], True)
            text = f"-{inner}"
            return f"({text})" if parent_prec > _PREC["neg"] or right_side else text
        return f"{expr.fn}({_print(expr.child, 0, False)})"
    prec = _PREC[expr.op]
    if expr.op == "^":
        left = _print(expr.left, prec + 1, False)
        right = _print(expr.right, prec, False)
    else:
        left = _print(expr.left, prec, False)
        right = _print(expr.right, prec + 1, False)
    text = f"{left} {expr.op} {right}" if expr.op in "+-" else f"{left}{expr.op}{right}"
    return f"({text})" if parent_prec > prec else text


def print_expr(expr: Expr) -> str:
    """Canonical text form; parse(print_expr(e)) rebuilds an equal tree."""
    return _print(expr, 0, False)
