"""Jets and the expression language: exact derivatives without symbols.

A jet carries a value plus all partial derivatives up to a fixed order.
Evaluating an expression tree on seeded jets gives machine-exact derivatives
of the expression, which is how every tensor in the engine is differentiated.
"""

import math

from tbgrav import Jet, evaluate, free_symbols, parse, print_expr

# -- jet arithmetic ----------------------------------------------------------
#
# A Jet is read-only: arithmetic on single jets runs through an expression
# evaluated over them (on tensors of jets, through tbgrav.jet_arrays).

# f(x) = x^2 at x = 3, carrying two derivative levels
x = Jet.variable(0, 3.0, order=2, nvars=1)
f = evaluate(parse("x*x"), {"x": x})
print("f(3) =", f.value)                      # 9
print("f'(3) =", f.derivative((1,)))          # 6
print("f''(3) =", f.derivative((2,)))         # 2

# chain rule through sqrt: d/dx sqrt(x) at 4 is 1/4
s = evaluate(parse("sqrt(x)"), {"x": Jet.variable(0, 4.0, order=2, nvars=1)})
print("sqrt'(4) =", s.derivative((1,)))

# mixed partials in two variables
u = Jet.variable(0, 1.5, order=2, nvars=2)
v = Jet.variable(1, -0.5, order=2, nvars=2)
print("d2(uv)/dudv =", evaluate(parse("u*v"), {"u": u, "v": v}).derivative((1, 1)))

# -- expressions -------------------------------------------------------------

# the lapse function of a charged black hole
tree = parse("1 - 2*M/r + Q^2/r^2")
print("symbols:", sorted(free_symbols(tree)))
print("canonical form:", print_expr(tree))

env = {
    "M": Jet.constant(1.0, 1, 1),
    "Q": Jet.constant(0.3, 1, 1),
    "r": Jet.variable(0, 5.0, 1, 1),
}
val = evaluate(tree, env)
print("f(5) =", val.value)
print("df/dr(5) =", val.derivative((1,)), " (closed form:", 2 / 25 - 2 * 0.09 / 125, ")")

# unary minus binds looser than the power operator
print("-r^2 at r=10 ->", evaluate(parse("-r^2"), {"r": Jet.constant(10.0, 0, 1)}).value)
print("sin(theta)^2 at pi/2 ->", evaluate(parse("sin(th)^2"), {"th": Jet.constant(math.pi / 2, 0, 1)}).value)
