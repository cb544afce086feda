"""Discrete verification: operator constraint residuals, their convergence
under grid refinement, the conjugate-closure of the SUSY-algebra spectrum,
and an eigensolver sanity check on the harmonic oscillator.
"""

import numpy as np

from pdmsusy import (Grid, MassFn, ModelSpec, assemble_charge,
                     assemble_hamiltonian, constraint_residuals,
                     convergence_study, hamiltonian_spectrum, parse,
                     susy_algebra_spectrum)
from pdmsusy.susy1 import build_first_order

# Synthetic CPT-conserving model: even mass, PT-symmetric W_m
spec = ModelSpec(order=1, mass=MassFn(parse("1/(1+x^2)"), -6.0, 6.0),
                 deformed=parse("x^2+i*x"), susy_constants=(1.0,))
system = build_first_order(spec)


def residual_fn(grid):
    H = assemble_hamiltonian(spec.mass, system.vtilde, grid, spec.params)
    C = assemble_charge(system.charge, grid, spec.params)
    return constraint_residuals(H, C, spec.susy_constants)


grids = [Grid(-6.0, 6.0, n) for n in (201, 401, 801)]
study = convergence_study(residual_fn, grids)
print("constraint residuals under grid refinement (n = 201, 401, 801):")
for name, result in study.items():
    levels = ", ".join(f"{r:.3e}" for r in result.residuals)
    print(f"  {name:6s}: [{levels}]  measured order {result.order:.3f}")

# Conjugate closure of the SUSY-algebra spectrum: zeta = C P is C with its
# columns reversed (parity is the node reversal of a grid symmetric about
# 0), zeta conj(zeta) is formed from C's band as the susy residual forms
# it, spec(zeta conj(zeta)) is exactly closed under conjugation, and the
# measured distance sits at the eigensolver's backward-error level
g = Grid(-8.0, 8.0, 601)
spec8 = ModelSpec(order=1, mass=MassFn(parse("1/(1+x^2)"), -8.0, 8.0),
                  deformed=parse("x^2+i*x"), susy_constants=(1.0,))
C = assemble_charge(build_first_order(spec8).charge, g, spec8.params)
closure = susy_algebra_spectrum(C).conjugate_pairing_distance
print(f"\nconjugate closure of spec(zeta zeta*) at n=601: {closure:.3e}")

# Eigensolver sanity: harmonic oscillator levels 2k+1
g = Grid(-10.0, 10.0, 1001)
mass = MassFn(parse("1"), -10.0, 10.0)
s = hamiltonian_spectrum(assemble_hamiltonian(mass, parse("x^2"), g))
print("\nharmonic oscillator lowest five (targets 1, 3, 5, 7, 9):")
print(" ", np.round(s.values[:5].real, 6))
