"""First-order (N=1) charge-operator pipeline.

From a PT-symmetric deformed superpotential W_m and a parity-even mass m
the pipeline produces:

  * the potential
      Vtilde = W_m^2 + W_m'/sqrt(m) + m''/(4 m^2) - (7/16) m'^2/m^3 - l1,
    where the integration constant is fixed to -l1 by the N=1 SUSY algebra
    zeta zeta* = H + l1;
  * the PT defect Delta V = 2 W_m'/sqrt(m);
  * the ground-state log-derivative phi0 = m'/(4m) + sqrt(m) W_m, an exact
    zero mode with eigenvalue -l1;
  * the charge C = m^(-1/2) d + W, with W the constant-mass superpotential.

The state is kept as a log-derivative because the wavefunction itself
contains an antiderivative with no closed form in general; every check the
library performs (the Riccati form of H psi = E psi) needs only phi0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .expr import Const, Expr, ParamEnv, differentiate, div, func
from .model import MassFn, ModelError, ModelSpec
from .susyn import NthOrderCoefficients

__all__ = ["FirstOrderSystem", "build_first_order"]


@dataclass(frozen=True)
class FirstOrderSystem:
    wm: Expr
    m: MassFn
    l1: complex
    vtilde: Expr
    delta_v: Expr
    phi0: Expr
    e0: complex
    charge: NthOrderCoefficients
    zero_modes: tuple    # (Riccati key, energy label, phi, E) per zero mode
    params: ParamEnv = field(default_factory=ParamEnv)


def build_first_order(spec: ModelSpec) -> FirstOrderSystem:
    if spec.order != 1:
        raise ModelError(f"first-order pipeline needs order 1, got {spec.order}")
    wm = spec.wm()
    mx = spec.mass.expr
    dm = differentiate(mx)
    d2m = differentiate(mx, 2)
    dwm = differentiate(wm)
    sqrt_m = func("sqrt", mx)
    l1 = spec.susy_constants[0]

    vtilde = (wm * wm + dwm / sqrt_m
              + d2m / (4 * mx * mx)
              - Const(7.0 / 16.0) * dm * dm / (mx * mx * mx)
              - Const(l1))
    delta_v = 2 * dwm / sqrt_m
    phi0 = dm / (4 * mx) + sqrt_m * wm
    charge = NthOrderCoefficients(n=1, lead=div(Const(1.0), sqrt_m),
                                  sub=spec.w(), u=())
    return FirstOrderSystem(wm=wm, m=spec.mass, l1=l1, vtilde=vtilde,
                            delta_v=delta_v, phi0=phi0, e0=-l1, charge=charge,
                            zero_modes=(("phi0", "e0", phi0, -l1),),
                            params=spec.params)
