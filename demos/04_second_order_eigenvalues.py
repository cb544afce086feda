"""Second-order pipeline: two routes to u0, the quadratic eigenvalue
formula and its reality condition.
"""

import numpy as np

from pdmsusy import MassFn, ModelSpec, parse, riccati_residual
from pdmsusy.expr import ParamEnv, evaluate_many
from pdmsusy.susy2 import (build_second_order, f_aux, lowest_eigenvalues,
                           u0_integrated)
from pdmsusy.susyn import energy_roots

spec = ModelSpec(order=2,
                 mass=MassFn(parse("sec(x)"), 0.05, 1.5),
                 superpotential=parse("exp(i*alpha*x)-sin(x)"),
                 susy_constants=(-3.0, 2.0),
                 params=ParamEnv(alpha=1.0))
system = build_second_order(spec)

print("delta =", system.delta, " E0 =", system.e0, " E1 =", system.e1,
      " real spectrum:", system.real_spectrum)

# Route agreement: the closed u0 against the integrated one
theta = system.l2 - system.l1**2 / 4
u0_integ = u0_integrated(system.f, system.wm, spec.mass, theta)
xs = np.linspace(0.05, 1.5, 200)
gap = np.max(np.abs(evaluate_many(system.u0, xs, spec.params)
                    - evaluate_many(u0_integ, xs, spec.params)))
print("u0 closed-vs-integrated sup difference:", gap)

# Both zero modes satisfy the Riccati identity at their eigenvalues; a
# tuple of modes is evaluated in one call
samples = np.linspace(0.05, 1.5, 100)
r0, r1 = riccati_residual(spec.mass, system.vtilde, (system.phi2, system.phi1),
                          (system.e0, system.e1), samples, spec.params)
print("Riccati (phi2, E0):", r0)
print("Riccati (phi1, E1):", r1)

# Reality boundary: the flag flips exactly at l1^2 = 4 l2
print("\nreality sweep at l1 = 2:")
for l2 in (0.999999, 1.0, 1.000001):
    e0, e1, real = lowest_eigenvalues(2.0, l2)
    print(f"  l2 = {l2}: E0 = {e0:.6f}, E1 = {e1:.6f}, real = {real}")

# The same roots from the degree-N energy polynomial (companion matrix)
print("\ncompanion-matrix roots of E^2 - 3E + 2:",
      energy_roots([-3.0, 2.0]).roots)
print("cubic (E-1)(E-2)(E-3):", energy_roots([-6.0, 11.0, -6.0]).roots)
