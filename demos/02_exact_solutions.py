"""Classical geometry on exact solutions.

The built-in catalog carries the standard test spacetimes with signature
(+,-,-,-).  Schwarzschild is Ricci-flat, Reissner-Nordstrom has vanishing
Ricci scalar but nonzero Ricci tensor, and both satisfy their field
equations to machine precision because jets differentiate exactly.
"""

import math

import numpy as np

from tbgrav import BaseGeometry, catalog, maxwell_current, maxwell_cyclic_residual

schw = catalog("schwarzschild", {"M": 1.0})
rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
x_schw = [0.0, 10.0, math.pi / 2, 0.3]
x_rn = [0.0, 5.0, math.pi / 2, 0.3]

# every base object at a point, on jets carrying two derivative levels: enough
# for the curvature, which consumes both; one point is a batch of one, so
# each object is read at point 0
schw_geo = BaseGeometry(schw, x_schw, 2)
rn_geo = BaseGeometry(rn, x_rn, 2)

# connection coefficients: gamma^r_tt = (M/r^2)(1 - 2M/r) = 0.008 at r=10
print("gamma^r_tt =", schw_geo.gamma[1, 0, 0].values[0])

# vacuum: the Ricci tensor vanishes
print("Schwarzschild max|Ricci| =", np.max(np.abs(schw_geo.ricci.values)))

# electrovacuum: trace-free source, so the Ricci scalar still vanishes
print("RN Ricci scalar =", rn_geo.ricci_scalar[0])
print("RN max|Ricci| =", np.max(np.abs(rn_geo.ricci.values)), "(nonzero)")

# the field tensor of the Coulomb potential: F_tr = Q/r^2
f_low, _ = rn_geo.faraday
print("F_tr =", f_low[0, 1].values[0], " (Q/r^2 =", 0.3 / 25, ")")

# both Maxwell identities hold: dF = 0 and no sources
h, j = maxwell_cyclic_residual(rn_geo), maxwell_current(rn_geo)
print("max|dF identity| =", np.max(np.abs(h)), " max|current| =", np.max(np.abs(j)))

# the electromagnetic stress-energy is trace-free and feeds the field equations
print("T^f_00 =", rn_geo.em_stress[0, 0].values[0])

# Einstein-Maxwell: G_ij - 8 pi T^f_ij = 0 on the exact charged solution
print("max|G - 8 pi T^f| =", np.max(np.abs(rn_geo.einstein_maxwell.values)))
