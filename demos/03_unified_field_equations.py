"""The tangent-bundle unification: one connection family carries both fields.

For coupling alpha, charged worldlines are autoparallels of a nonlinear
connection N(alpha) whose curvature is summarized by the tidal tensor E.
The scalar curvature of the induced bundle connection splits into the base
Ricci scalar, a divergence, and (3 alpha^2/2) F_ij F^ij -- so at the special
coupling alpha* = sqrt(2/3) (geometrized units) the bundle geometry encodes
the full Einstein-Maxwell dynamics.
"""

import math

import numpy as np

from tbgrav import (
    BundleGeometry,
    BundlePoint,
    alpha_star,
    catalog,
    generalized_einstein,
    ricci_decomposition,
)

rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
print("distinguished coupling alpha* =", alpha_star(1.0, 1.0))

p = BundlePoint([0.0, 5.0, math.pi / 2, 0.3], [1.4, 0.0, 0.0, 0.02])
# every object of the connection's ladder is read off one geometry at (x, y),
# a batch of one point: each object is read at point 0
geo = BundleGeometry(rn, p)
print("|y| =", geo.norm.values[0], " supporting element:", geo.l_up.values[0])

# the spray perturbation is metrically orthogonal to y
print("B^i =", geo.b_up.values[0])
print("N^i_j nonzero entries:", int(np.count_nonzero(np.abs(geo.n_conn.values) > 1e-14)))

# tidal tensor and its curvature ladder
e = geo.tidal.values[0]
print("tidal tensor diagonal:", np.diag(e))
print("bundle Ricci scalar R(x,y) =", geo.d_ricci_scalar[0])

# the scalar-curvature split closes pointwise
dec = ricci_decomposition(geo)
print("R =", dec["R"][0])
print("  base r      =", dec["r"][0])
print("  divergence  =", dec["div_term"][0])
print("  quad term   =", dec["quad_term"][0], " vs (3a^2/2)F^2 =", 1.5 * dec["alpha"] ** 2 * dec["f_squared"][0])
print("  residual    =", dec["residual"][0])

# at alpha*, the variational field tensor vanishes on the exact solution
ge = generalized_einstein(geo)
print("max|generalized Einstein tensor| =", ge["max_abs_variational"][0])
print("literal bundle assembly differs by", ge["difference"][0], "(reported, not asserted)")

# tidal stretch/compression for a hovering observer near a mass
schw = catalog("schwarzschild", {"M": 1.0})
f = 0.8
hover = BundlePoint([0.0, 10.0, math.pi / 2, 0.0], [1.0 / math.sqrt(f), 0.0, 0.0, 0.0])
eigs = np.diag(BundleGeometry(schw, hover, alpha=0.0).tidal.values[0])[1:]
print("Schwarzschild tidal eigenvalues:", eigs, " (2M/r^3, -M/r^3, -M/r^3)")
