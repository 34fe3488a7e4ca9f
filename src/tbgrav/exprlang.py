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
*Evaluating Derivatives*, 2nd ed., SIAM 2008).  Both run one table of
operations (``_JET_OPS``) on the coefficient rows of ``jets``, once for a
whole batch of points.  The compiler

- hash-conses the nodes (frozen dataclasses serve as dict keys) and numbers
  each instruction by (operation, operand registers), so a subexpression
  shared within or across roots is computed once (common-subexpression
  elimination);
- folds every subtree built only from constants, parameters and ``pi``
  with the operations the tape itself runs: the jets' order-0 rules on
  floats and the operation table on the row of a constant jet, so a folded
  constant is the value ``evaluate`` would compute, down to the sign of its
  zeros.  A division is a product with the reciprocal, as ``evaluate``
  forms it, so ``x / 10`` is ``x * 0.1``.

A tape runs two ways: on 4-variable jets of any order at a batch of points,
a point being a batch of one (``Tape.jets``), and on plain floats
(``Tape.values``) through the order-0 kernel it writes for itself, one
straight-line Python function.  A kernel writer (``_KernelWriter``) makes,
on the float Taylor coefficients of an order <= 2, the operations
``Tape.jets`` makes on coefficient rows, in the same order, so its
coefficients match ``evaluate`` bit for bit, down to the sign of a zero, and
it raises the same errors at the same points.  Writers elsewhere run a
metric tape and a potential tape into one function of the bundle point
s = (x, y) as one list, with geometric terms that are not bit-identical to
any jet route (``base_geom.FiberWriter``).  Every kernel is cached on its
tape (``Tape.kernel``).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import cached_property, partial
from typing import TypeVar

import numpy as np

from .errors import EvaluationError, ParseError, SingularEvaluationError, UsageError
from .jet_arrays import JetArray, concat
from .jets import (
    INLINE_NAMES, MAX_ORDER, SERIES, Jet, JetSpace, _is_integer, _power_by_squaring, abs_rows, abs_value,
    compose_rows, horner, inline_series, jet_space, ln_series, ln_value, mul_rows, mul_value, pow_rows, pow_value,
    power_series, reciprocal_series, reciprocal_value, sqrt_value, variable_rows,
)

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


def _jet_pow(space: JetSpace, base: np.ndarray, exponent: np.ndarray) -> np.ndarray:
    """base ^ exponent on coefficient rows: the exact power rule where the
    exponent is a constant jet, else exp(exponent ln base), whose series at
    each point is built from that point's order-0 power (``pow_value``), so
    that every order gives the value order 0 gives.  Exponent rows that
    differ from point to point are taken one point at a time."""
    if len(exponent) > 1 and (exponent != exponent[0]).any():
        base = np.broadcast_to(base, exponent.shape)
        return np.concatenate([_jet_pow(space, b[None], e[None]) for b, e in zip(base, exponent)])
    if not exponent[0, 1:].any():  # constant exponent: exact power rule
        return pow_rows(space, base, exponent[0, 0])
    log = mul_rows(space, exponent, compose_rows(space, base, ln_series))
    power = np.array([pow_value(b, exponent[0, 0]) for b in base[:, 0].tolist()])
    return horner(log, np.array([power / math.factorial(k) for k in range(space.order + 1)]), partial(mul_rows, space))


# The operations of trees and tapes on coefficient rows (see ``jets``), by
# name; a division is a product with the reciprocal.  The float operations
# are the jets' own order-0 rules.
_JET_OPS = {
    "+": lambda space, a, b: a + b, "-": lambda space, a, b: a - b, "*": mul_rows, "^": _jet_pow,
    "neg": lambda space, a: -a, "abs": abs_rows,
    **{op: partial(compose_rows, series=series) for op, series in SERIES.items()},
}
_FLOAT_OPS = {
    "+": operator.add, "-": operator.sub, "*": mul_value, "^": pow_value, "neg": operator.neg,
    "recip": reciprocal_value, "sqrt": sqrt_value, "exp": math.exp, "ln": ln_value, "sin": math.sin,
    "cos": math.cos, "abs": abs_value,
}


AnyJet = TypeVar("AnyJet", Jet, JetArray)  # evaluate gives jets on jets, jet arrays on jet arrays


def evaluate(expr: Expr, env: dict[str, AnyJet]) -> AnyJet:
    """Evaluate the tree over jets; every symbol must be bound in env, all
    to jets or all to 0-d jet arrays (one entry per point), in one variable
    count and taken at their lowest order.  Each operation runs once for the
    whole batch, jets as a batch of one point.  The result is a jet on jets,
    else a 0-d jet array."""
    if not env:
        raise EvaluationError("evaluation environment must bind at least one jet")
    values = list(env.values())
    single = all(isinstance(value, Jet) for value in values)
    if single:  # each jet as the row of one point
        values = [JetArray(value.space, value.c[None]) for value in values]
    if not all(isinstance(value, JetArray) and value.shape == () for value in values):
        raise UsageError("an evaluation environment binds jets, or jet arrays of one entry per point")
    flat, _ = concat(*values)
    out = _evaluate(expr, dict(zip(env, flat.c.transpose(1, 0, 2))), flat.space)
    if single:
        return Jet(flat.space, out[0])
    # a row that serves every point becomes one row per point
    return JetArray(flat.space, np.broadcast_to(out, (flat.points, flat.space.size)).copy())


def _evaluate(expr: Expr, rows: dict[str, np.ndarray], space: JetSpace) -> np.ndarray:
    if isinstance(expr, Const):
        return Jet.constant(expr.value, space.order, space.nvars).c[None]
    if isinstance(expr, Sym):
        try:
            return rows[expr.name]
        except KeyError:
            raise EvaluationError(f"unbound symbol {expr.name!r}") from None
    if isinstance(expr, Unary):
        return _JET_OPS[expr.fn](space, _evaluate(expr.child, rows, space))
    a, b = _evaluate(expr.left, rows, space), _evaluate(expr.right, rows, space)
    if expr.op == "/":
        return mul_rows(space, a, _JET_OPS["recip"](space, b))
    return _JET_OPS[expr.op](space, a, b)


# -- compiled tape ------------------------------------------------------------

_FOLD_SPACE = jet_space(MAX_ORDER, 1)  # the space of a folded constant's jet


class Tape:
    """Straight-line program for a list of root expressions.

    Registers 0..len(coords)-1 hold the coordinates; the others hold folded
    constants or instruction results.  An instruction is ``(op, out, a, b)``
    on registers, with ``b`` None for a unary op; a division is a product
    with the reciprocal, as in ``evaluate``.  Symbols resolve as in
    ``SpacetimeModel.coord_env``: a coordinate first, then ``pi``, then a
    parameter.

    A folded constant is kept twice: as a float, its order-0 value, and as
    the row (1, S) of a constant jet in one variable at the highest order.
    Both are folded with the operations the tape runs, so the row holds what
    a constant jet of every order >= 1 holds in ``evaluate``: the same value,
    and derivative coefficients that are all one signed zero (-0.0 after a
    negation, for instance).  A fold that raises at any order is left on the
    tape.
    """

    def __init__(self, roots: list[Expr], coords, params: dict[str, float]):
        self.coords = tuple(coords)
        self._params = {**{k: float(v) for k, v in params.items()}, "pi": math.pi}
        self._regs: list = [None] * len(self.coords)  # the float at a constant's register
        self._consts: dict[int, np.ndarray] = {}  # constant register -> its folded jet's row
        self._const_regs: dict[tuple, int] = {}
        self._numbering: dict[tuple, int] = {}  # (op, a, b) -> register
        self._code: list[tuple] = []
        self._seeds: set[int] = set()  # the coordinates the roots use
        self._jet_regs: dict = {}  # JetSpace -> registers with the constants as its rows
        self._kernels: dict = {}  # (writer, potential tape) -> compiled float kernel
        memo: dict[Expr, tuple | int] = {}
        self.outputs = [self._reg(self._lower(root, memo)) for root in roots]
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
                return _FLOAT_OPS[op](*(f for f, _ in args)), _JET_OPS[op](_FOLD_SPACE, *(row for _, row in args))
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
        f, row = ref
        key = (f.hex(), row.tobytes())
        out = self._const_regs.get(key)
        if out is None:
            out = self._const_regs[key] = len(self._regs)
            self._regs.append(f)
            self._consts[out] = row
        return out

    # -- evaluators ---------------------------------------------------------------

    @cached_property
    def constants(self) -> tuple[float | None, ...]:
        """Per root, its folded value, or None where it depends on a coordinate."""
        return tuple(self._regs[r] for r in self.outputs)

    def values(self, x) -> list[float]:
        """Root values at the coordinate values x, on plain floats."""
        return self.kernel(_write_values, None)(x)

    def kernel(self, write, potential: "Tape | None"):
        """``write(self, potential)``, the float kernel a writer makes from this
        tape and, for a geometric kernel, a potential tape (None for no
        field), cached on this tape."""
        kernel = self._kernels.get((write, potential))
        if kernel is None:
            kernel = self._kernels[write, potential] = write(self, potential)
        return kernel

    def jets(self, x, order: int) -> JetArray:
        """The roots as a jet array in 4 variables, coordinate k seeded in
        variable k, at a batch x (P, 4), a point x (4,) being a batch of one:
        each instruction runs once on the rows of every point."""
        points = np.asarray(x, dtype=float).reshape(-1, 4)
        space = jet_space(order, 4)
        regs = self._jet_regs.get(space)
        if regs is None:  # the constants as the rows evaluate builds, once per space
            regs = self._jet_regs[space] = self._regs.copy()
            for r, row in self._consts.items():
                c = np.full((1, space.size), row[0, 1])
                c[0, 0] = regs[r] if order == 0 else row[0, 0]
                regs[r] = c
        regs = regs.copy()
        for k in self._seeds:
            regs[k] = variable_rows(k, points[:, k], order, 4)
        for fn, out, a, b in self._jcode:
            regs[out] = fn(space, regs[a]) if b is None else fn(space, regs[a], regs[b])
        c = np.empty((len(points), len(self.outputs), space.size))
        for k, r in enumerate(self.outputs):
            c[:, k] = regs[r]  # a row that serves every point is copied to each
        return JetArray(space, c)


# -- float kernels ------------------------------------------------------------

KERNEL_NVARS = 4
KERNEL_BLOCK = 200  # statements per compiled function of a kernel (see _KernelWriter.compile)
_LOCAL = re.compile(r"\b(?:v\d+|u\d+_\d+)\b")  # the names ``let`` and ``unpack`` bind


class _KernelWriter:
    """Writes tapes into one straight-line Python function over the Taylor
    coefficients of ``jet_space(order, KERNEL_NVARS)`` (Fike & Alonso's
    hyper-dual numbers, AIAA 2011-886, in this engine's coefficient layout):
    ``run`` writes a tape's statements and returns its roots' coefficients,
    and ``compile`` makes the function that returns the ones asked for.

    Each statement repeats, on floats, an operation ``Tape.jets`` makes on a
    coefficient row (the row functions of ``jets``): a product adds its terms
    from +0.0 in the pair order of the multiplication table (the order
    ``mul_rows``' np.bincount adds them in), a univariate function takes its
    series from ``jets`` (the reciprocal, sin and cos as statements,
    ``jets.inline_series``) and composes it by ``jets.horner``'s scheme, and
    every singular value raises through the same order-0 rule.  A coefficient known when the kernel is written (of
    a constant or of a seed's derivative) is a float here, and the writer
    folds the operations between known floats.  It also leaves out what
    changes no bit for any input: a factor 1.0, and a known zero added to a
    sum that started from +0.0 (such a sum is never -0.0).  A product of a
    known zero with a run-time coefficient stays, because it makes the sum NaN
    where that coefficient is infinite, as in the jet route.  So every
    coefficient ``run`` gives equals, bit for bit, the one ``Tape.jets`` gives
    in ``jet_space(order, KERNEL_NVARS)``; at order 0 (``Tape.values``) the
    kernel is the float program of the jets' order-0 rules.

    One writer makes one kernel, and it writes an operation on equal operand
    coefficients once (``emit``), so two tapes run into one kernel share
    their common subexpressions.  Writers of geometric kernels build on this
    one (``base_geom.FiberWriter``).  A body longer than ``KERNEL_BLOCK``
    statements is compiled block by block (``compile``).
    """

    point = "x"  # the kernel's argument whose first four entries the seeds read

    def __init__(self, order: int):
        self.order = order
        self.space = jet_space(order, KERNEL_NVARS)
        self.pairs = list(zip(*(t.tolist() for t in self.space._mul_table)))
        self.lines: list[str] = []
        self.namespace: dict = {"space": self.space, "_pow_jets": _pow_jets, "inf": math.inf, **INLINE_NAMES}
        self.seeds: dict[int, list] = {}  # coordinate -> its coefficient list
        self.emitted: dict[tuple, list] = {}  # (op, operand keys) -> coefficient list

    def run(self, tape: "Tape") -> list[list]:
        """The coefficient lists of the tape's roots; a seed read by an earlier
        tape of the same kernel is not read again."""
        size = self.space.size
        regs = tape._regs.copy()
        for r, row in tape._consts.items():
            regs[r] = [regs[r] if self.order == 0 else float(row[0, 0])] + [float(row[0, 1])] * (size - 1)
        for k in tape._seeds:
            if k not in self.seeds:
                self.seeds[k] = [self.let(f"float({self.point}[{k}])")] + [0.0] * (size - 1)
                if self.order >= 1:
                    self.seeds[k][self.space.first_index[k]] = 1.0
            regs[k] = self.seeds[k]
        for op, out, a, b in tape._code:
            regs[out] = self.emit(op, regs[a], None if b is None else regs[b])
        return [regs[r] for r in tape.outputs]

    def compile(self, args: str, flat: list, label: str):
        """The function ``kernel(args)`` of the statements, returning ``flat``.
        CPython's ``compile`` peaks in proportion to the statements of one
        function, so a longer body than ``KERNEL_BLOCK`` is compiled block by
        block, each block a function of the arguments and the names it reads
        from earlier blocks that returns the names later ones read, and
        ``kernel`` calls them."""
        result = f"return [{', '.join(map(self.ref, flat))}]"
        if len(self.lines) <= KERNEL_BLOCK:
            return self._define("kernel", args, self.lines + [result], label)
        blocks = [self.lines[n:n + KERNEL_BLOCK] for n in range(0, len(self.lines), KERNEL_BLOCK)]
        names = [set(_LOCAL.findall("\n".join(block))) for block in blocks] + [set(_LOCAL.findall(result))]
        before, driver = set(), []  # names bound by earlier blocks; the driver's statements
        for n, block in enumerate(blocks):
            params = ", ".join([args, *sorted(names[n] & before)])
            out = "".join(f"{name}, " for name in sorted((names[n] - before) & set().union(*names[n + 1:])))
            before |= names[n]
            self._define(f"part{n}", params, block + [f"return {out}"], f"{label[:-1]}, part {n}>")
            driver.append(f"{out}= part{n}({params})" if out else f"part{n}({params})")
        return self._define("kernel", args, driver + [result], label)

    def _define(self, name: str, args: str, body: list[str], label: str):
        source = "\n    ".join([f"def {name}({args}):", *body])
        exec(compile(source, label, "exec"), self.namespace)
        return self.namespace[name]

    # -- statements -------------------------------------------------------------------

    def let(self, expr: str) -> str:
        name = f"v{len(self.lines)}"
        self.lines.append(f"{name} = {expr}")
        return name

    def unpack(self, expr: str, count: int) -> list[str]:
        names = [f"u{len(self.lines)}_{k}" for k in range(count)]
        self.lines.append(f"{', '.join(names)}, = {expr}")
        return names

    def ref(self, c) -> str:
        if isinstance(c, str):
            return c
        if math.isfinite(c):
            return repr(c) if math.copysign(1.0, c) > 0 else f"({c!r})"
        name = f"k{len(self.namespace)}"
        self.namespace[name] = c
        return name

    def call(self, fn, *args) -> str:
        self.namespace[fn.__name__] = fn
        return f"{fn.__name__}({', '.join(self.ref(a) for a in args)})"

    # -- operations on coefficient lists ----------------------------------------------

    def emit(self, op: str, a: list, b: list | None) -> list:
        """The coefficient list of ``op`` on ``a`` (and ``b``), written once per
        writer for equal operands (floats keyed by ``float.hex``: -0.0 != 0.0)."""
        key = (op, *(None if c is None else tuple(p if isinstance(p, str) else p.hex() for p in c) for c in (a, b)))
        out = self.emitted.get(key)
        if out is None:
            out = self.emitted[key] = self._apply(op, a, b)
        return out

    def _apply(self, op: str, a: list, b: list | None) -> list:
        if op in ("+", "-"):
            fold = operator.add if op == "+" else operator.sub
            return [fold(p, q) if isinstance(p, float) and isinstance(q, float)
                    else self.let(f"{self.ref(p)} {op} {self.ref(q)}") for p, q in zip(a, b)]
        if op == "neg":
            return [-p if isinstance(p, float) else self.let(f"-{p}") for p in a]
        if op == "*":
            return self.mul(a, b)
        if self.order == 0:
            return [self.let(self.call(_FLOAT_OPS[op], a[0], *(() if b is None else (b[0],))))]
        if op == "abs":
            self.lines.append(self.call(abs_value, a[0]))
            positive = self.let(f"{self.ref(a[0])} > 0")
            return [self.let(f"{self.ref(p)} if {positive} else -{self.ref(p)}") for p in a]
        if op == "^":
            return self.power(a, b)
        return self.compose(SERIES[op], a)

    def mul(self, a: list, b: list) -> list:
        terms = [[] for _ in range(self.space.size)]
        for i, j, k in self.pairs:
            terms[k].append(self.product(a[i], b[j]))
        return [self.total(t) for t in terms]

    def product(self, p, q):
        if isinstance(p, float) and isinstance(q, float):
            return p * q
        if p == 1.0 or q == 1.0:  # 1.0 * q == q for every q
            return q if p == 1.0 else p
        return f"{self.ref(p)}*{self.ref(q)}"

    def total(self, terms: list):
        acc = 0.0
        for t in terms:
            if isinstance(acc, float) and isinstance(t, float):
                acc += t
            elif not isinstance(t, float) or t != 0.0:
                acc = f"{self.ref(acc)} + {self.ref(t)}"
        return acc if isinstance(acc, float) else self.let(acc)

    def compose(self, series, a: list, *args) -> list:
        n = self.order
        taylor = inline_series(series, self.ref(a[0]), n, self.let)
        if taylor is None:
            taylor = self.unpack(self.call(series, a[0], *args, n), n + 1)
        u = [0.0, *a[1:]]
        result = [taylor[n]] + [0.0] * (self.space.size - 1)
        for k in range(n - 1, -1, -1):
            result = self.mul(result, u)
            result[0] = self.let(f"{self.ref(result[0])} + {taylor[k]}")
        return result

    def power(self, a: list, b: list) -> list:
        """``_jet_pow``: ``jets.pow_rows`` unrolled for a folded exponent,
        ``_jet_pow`` itself on rebuilt rows for any other."""
        if not all(isinstance(q, float) for q in b) or any(b[1:]):
            return self.unpack(f"_pow_jets(space, [{', '.join(map(self.ref, a))}], [{', '.join(map(self.ref, b))}])",
                               self.space.size)
        exponent = b[0]
        one = [1.0] + [0.0] * (self.space.size - 1)
        if _is_integer(exponent) and exponent >= 0:
            return _power_by_squaring(a, int(exponent), one, self.mul)
        if _is_integer(exponent):
            self.lines.append(self.call(pow_value, a[0], exponent))  # raises where the power is singular
            return self.compose(reciprocal_series, _power_by_squaring(a, -int(exponent), one, self.mul))
        return self.compose(power_series, a, exponent)


def _write_values(tape: Tape, potential: None):
    """The order-0 kernel ``x -> [value of each root]``."""
    w = _KernelWriter(0)
    return w.compile("x", [c[0] for c in w.run(tape)], "<tape kernel, order 0>")


def _pow_jets(space, base: list, exponent: list) -> list[float]:
    return _jet_pow(space, np.array([base]), np.array([exponent]))[0].tolist()


def _constant(value: float) -> tuple[float, np.ndarray]:
    return float(value), Jet.constant(float(value), MAX_ORDER, 1).c[None]


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
