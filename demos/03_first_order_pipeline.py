"""First-order pipeline on the worked periodic example.

Builds the complex potential, its PT defect and the zero-mode
log-derivative, then verifies H psi0 = -l1 psi0 through the Riccati form
(no antiderivative ever needed).
"""

import numpy as np

from pdmsusy import MassFn, ModelSpec, parse, pt_image, riccati_residual
from pdmsusy.expr import ParamEnv, evaluate, evaluate_many
from pdmsusy.susy1 import build_first_order

spec = ModelSpec(order=1,
                 mass=MassFn(parse("1/4*sec(x)^2"), 0.05, 1.5),
                 superpotential=parse("exp(i*alpha*x)-sin(x)"),
                 susy_constants=(1.0,),
                 params=ParamEnv(alpha=1.0))
system = build_first_order(spec)

print("W_m(0.5)    =", evaluate(system.wm, 0.5, spec.params))
print("Vtilde(0.5) =", evaluate(system.vtilde, 0.5, spec.params))
print("phi0(0.5)   =", evaluate(system.phi0, 0.5, spec.params))
print("lowest eigenvalue -l1 =", system.e0)

coeffs = system.charge
print("\ncharge operator: C = lead * d/dx + zeroth")
print("  lead(0.5)   =", evaluate(coeffs.lead, 0.5, spec.params),
      " (this is 2 cos x)")
print("  zeroth(0.5) =", evaluate(coeffs.sub, 0.5, spec.params))

xs = np.linspace(0.05, 1.5, 100)
residual = riccati_residual(spec.mass, system.vtilde, system.phi0, system.e0,
                            xs, spec.params)
print("\nRiccati residual of (phi0, -l1):", residual)

# The PT defect of the potential has the closed form 2 W_m'/sqrt(m)
defect = system.vtilde - pt_image(system.vtilde)
worst = np.max(np.abs(evaluate_many(defect, xs, spec.params)
                      - evaluate_many(system.delta_v, xs, spec.params)))
print("PT-defect identity residual:", worst)
