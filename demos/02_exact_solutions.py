"""Classical geometry on exact solutions.

The built-in catalog carries the standard test spacetimes with signature
(+,-,-,-).  Schwarzschild is Ricci-flat, Reissner-Nordstrom has vanishing
Ricci scalar but nonzero Ricci tensor, and both satisfy their field
equations to machine precision because jets differentiate exactly.
"""

import math

import numpy as np

from tbgrav import (
    catalog,
    christoffel,
    classical_einstein_maxwell,
    em_stress_energy,
    faraday,
    jet_values,
    maxwell_current,
    maxwell_cyclic_residual,
    ricci,
    ricci_scalar,
)

schw = catalog("schwarzschild", {"M": 1.0})
rn = catalog("reissner_nordstrom", {"M": 1.0, "Q": 0.3})
x_schw = [0.0, 10.0, math.pi / 2, 0.3]
x_rn = [0.0, 5.0, math.pi / 2, 0.3]

# connection coefficients: gamma^r_tt = (M/r^2)(1 - 2M/r) = 0.008 at r=10
gam = christoffel(schw, x_schw)
print("gamma^r_tt =", gam[1, 0, 0].value)

# vacuum: the Ricci tensor vanishes
print("Schwarzschild max|Ricci| =", np.max(np.abs(jet_values(ricci(schw, x_schw)))))

# electrovacuum: trace-free source, so the Ricci scalar still vanishes
print("RN Ricci scalar =", ricci_scalar(rn, x_rn))
print("RN max|Ricci| =", np.max(np.abs(jet_values(ricci(rn, x_rn)))), "(nonzero)")

# the field tensor of the Coulomb potential: F_tr = Q/r^2
f_low, _ = faraday(rn, x_rn)
print("F_tr =", f_low[0, 1].value, " (Q/r^2 =", 0.3 / 25, ")")

# both Maxwell identities hold: dF = 0 and no sources
h, j = maxwell_cyclic_residual(rn, x_rn), maxwell_current(rn, x_rn)
print("max|dF identity| =", np.max(np.abs(h)), " max|current| =", np.max(np.abs(j)))

# the electromagnetic stress-energy is trace-free and feeds the field equations
t = em_stress_energy(rn, x_rn)
print("T^f_00 =", t[0, 0].value)

# Einstein-Maxwell: G_ij - 8 pi T^f_ij = 0 on the exact charged solution
cem = classical_einstein_maxwell(rn, x_rn)
print("max|G - 8 pi T^f| =", np.max(np.abs(jet_values(cem))))
