"""Volume structure on the tangent bundle.

The Lorentzian metric extends to a positive-definite fiber metric with the
same absolute determinant.  Its unit-volume ball is the canonical fiber
integration domain: integrating a base function over box x ball reproduces
the base integral, and horizontal lifts preserve divergences.
"""

import math

import numpy as np

from tbgrav import BundlePoint, catalog, fiber_ball, fiber_integral, tm_integral
from tbgrav.tm_metric import BALL_BOUND, BALL_RADIUS, base_integral, horizontal_divergence, lift_base_field

schw = catalog("schwarzschild", {"M": 1.0})
x = [0.0, 10.0, math.pi / 2, 0.3]

ball = fiber_ball(schw, x)
print("det v =", np.linalg.det(ball.v), " -det g =", -np.linalg.det(ball.g))
print("ball bound c =", BALL_BOUND, " radius =", BALL_RADIUS)
print("ball volume =", fiber_integral(schw, x, lambda ys: np.ones(len(ys))), " (unit by construction)")

# quadratic moment against the closed form pi^2 R^6 / 3
moment = fiber_integral(schw, x, lambda ys: np.einsum("ni,ij,nj->n", ys, ball.v, ys))
print("quadratic moment =", moment, " closed form:", 2 * math.sqrt(2) / (3 * math.pi))

# odd integrands vanish by symmetry
print("odd integrand ->", fiber_integral(schw, x, lambda ys: ys[:, 1] ** 3))

# integrating a base function over box x ball = base integral
box = [(0.0, 0.5), (9.0, 11.0), (1.2, 1.8), (0.0, 0.5)]
f = lambda xx: 1.0 + 0.1 * xx[1]
lhs = tm_integral(schw, box, lambda xx, ys: np.full(len(ys), f(xx)))
rhs = base_integral(schw, box, f)
print("bundle integral =", lhs, " base integral =", rhs, " rel diff =", abs(lhs - rhs) / rhs)

# divergence of a horizontal lift = classical divergence: div(r^2 d_r) = 4r
field = lift_base_field(lambda env: [env["r"] * 0, env["r"] * env["r"], env["r"] * 0, env["r"] * 0])
p = BundlePoint(x, [1.2, 0.0, 0.0, 0.0])
print("div(r^2 d_r) =", horizontal_divergence(schw, p, field)[0], " (4r = 40)")
