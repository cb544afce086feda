"""Second-order (N=2) charge-operator pipeline.

The N=2 SUSY algebra zeta zeta* = H^2 + l1 H + l2 pins down, for a given
(m, W_m, l1, l2):

  * the auxiliary function f = (1/2)[m W_m^2 - (m'/m) W_m - W_m'];
  * the zeroth charge coefficient u0, by two independent routes that must
    agree identically: the closed form in terms of delta^2 = l1^2 - 4 l2
    and the integrated form u0 = f'/(m W_m) + f^2/(m W_m^2) + Theta/(m W_m^2)
    with Theta = l2 - l1^2/4;
  * the potential Vtilde = (3/2) W_m' + (m'/2m) W_m + (m/2) W_m^2 - u0 - l1/2
    and its PT defect Delta V = 2 W_m' + (m'/m) W_m;
  * two zero-mode log-derivatives phi_j = m'/(2m) + W_m'/(2 W_m) + F_j,
    F_j = (m W_m^2 + (-1)^j delta)/(2 W_m), whose Riccati residuals vanish
    identically for the lowest eigenvalues E0 = -(l1+delta)/2 (paired with
    phi2) and E1 = -(l1-delta)/2 (paired with phi1);
  * the charge C = (1/m) d^2 + W d + u0 (W: constant-mass superpotential).

Divisions by W_m are everywhere, so inputs are scanned for near-zeros of
W_m before a system is built.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expr import Const, Expr, ParamEnv, differentiate, div, evaluate_many
from .model import MassFn, ModelError, ModelSpec
from .susyn import NthOrderCoefficients

__all__ = [
    "SecondOrderSystem", "SingularPointError",
    "f_aux", "u0_closed", "u0_integrated", "potential_second_order",
    "zero_mode_logderivs", "lowest_eigenvalues", "build_second_order",
    "scan_superpotential_zeros",
]

# |W_m| below this on the evaluation set counts as a zero of W_m.
WM_ZERO_TOLERANCE = 1e-8


class SingularPointError(ModelError):
    def __init__(self, points: Sequence[float]):
        shown = ", ".join(f"{p:.6g}" for p in points[:8])
        more = "" if len(points) <= 8 else f" (+{len(points) - 8} more)"
        super().__init__(
            f"W_m vanishes (|W_m| < {WM_ZERO_TOLERANCE}) near x = {shown}{more}")
        self.points = tuple(points)


@dataclass(frozen=True)
class SecondOrderSystem:
    wm: Expr
    m: MassFn
    l1: complex
    l2: complex
    delta: complex
    f: Expr
    u0: Expr
    vtilde: Expr
    delta_v: Expr
    phi1: Expr           # Riccati pair (phi1, e1)
    phi2: Expr           # Riccati pair (phi2, e0)
    e0: complex
    e1: complex
    real_spectrum: bool
    charge: NthOrderCoefficients
    zero_modes: tuple    # (Riccati key, energy label, phi, E), ground first
    params: ParamEnv = field(default_factory=ParamEnv)


def scan_superpotential_zeros(wm: Expr, samples: Sequence[float],
                              env: Optional[ParamEnv] = None) -> None:
    """Raise SingularPointError listing sample points where |W_m| < 1e-8."""
    xs = np.asarray(list(samples), dtype=float)
    bad = xs[np.abs(evaluate_many(wm, xs, env)) < WM_ZERO_TOLERANCE]
    if bad.size:
        raise SingularPointError(bad.tolist())


def f_aux(wm: Expr, m: MassFn) -> Expr:
    """f = (1/2)[m W_m^2 - (m'/m) W_m - W_m']."""
    mx = m.expr
    dm = differentiate(mx)
    dwm = differentiate(wm)
    return Const(0.5) * (mx * wm * wm - (dm / mx) * wm - dwm)


def u0_closed(wm: Expr, m: MassFn, l1: complex, l2: complex) -> Expr:
    """Closed form of u0; enters through delta^2 = l1^2 - 4 l2 only.

    u0 = m W^2/4 + W'/2 - W''/(2mW) + (1/m)(W'/(2W))^2
         + (3/4) m'^2/m^3 - m''/(2m^2) - (1/m)(delta/(2W))^2
    """
    mx = m.expr
    dm = differentiate(mx)
    d2m = differentiate(mx, 2)
    dwm = differentiate(wm)
    d2wm = differentiate(wm, 2)
    delta_sq = complex(l1) * complex(l1) - 4.0 * complex(l2)
    return (mx * wm * wm / 4
            + dwm / 2
            - d2wm / (2 * mx * wm)
            + (dwm * dwm) / (4 * mx * wm * wm)
            + Const(0.75) * dm * dm / (mx * mx * mx)
            - d2m / (2 * mx * mx)
            - Const(delta_sq) / (4 * mx * wm * wm))


def u0_integrated(f: Expr, wm: Expr, m: MassFn, theta: complex) -> Expr:
    """Integrated route: u0 = f'/(m W_m) + f^2/(m W_m^2) + Theta/(m W_m^2).

    Equals u0_closed identically when Theta = l2 - l1^2/4.
    """
    mx = m.expr
    df = differentiate(f)
    return (df / (mx * wm)
            + (f * f) / (mx * wm * wm)
            + Const(complex(theta)) / (mx * wm * wm))


def potential_second_order(wm: Expr, m: MassFn, u0: Expr, l1: complex) -> Expr:
    """Vtilde = (3/2) W_m' + (m'/2m) W_m + (m/2) W_m^2 - u0 - l1/2.

    The integration constant is hard-wired to -l1/2 by the SUSY algebra;
    exposing it would break the polynomial residual check.
    """
    mx = m.expr
    dm = differentiate(mx)
    dwm = differentiate(wm)
    return (Const(1.5) * dwm
            + (dm / (2 * mx)) * wm
            + (mx / 2) * wm * wm
            - u0
            - Const(complex(l1) / 2.0))


def zero_mode_logderivs(wm: Expr, m: MassFn, delta: complex) -> tuple[Expr, Expr]:
    """Log-derivatives of the two zero modes psi_j = N_j sqrt(m W_m) exp(int F_j):

        phi_j = m'/(2m) + W_m'/(2 W_m) + F_j,
        F_j   = (m W_m^2 + (-1)^j delta)/(2 W_m),  j = 1, 2.

    delta -> -delta swaps phi1 and phi2 exactly.
    """
    mx = m.expr
    dm = differentiate(mx)
    dwm = differentiate(wm)
    common = dm / (2 * mx) + dwm / (2 * wm)
    phis = []
    for j in (1, 2):
        sign = -1.0 if j == 1 else 1.0
        f_j = (mx * wm * wm + Const(sign * complex(delta))) / (2 * wm)
        phis.append(common + f_j)
    return phis[0], phis[1]


def _delta(l1: complex, l2: complex) -> complex:
    """delta = +sqrt(l1^2 - 4 l2), the principal square root."""
    return cmath.sqrt(complex(l1) * complex(l1) - 4.0 * complex(l2))


def lowest_eigenvalues(l1: complex, l2: complex) -> tuple[complex, complex, bool]:
    """Roots of E^2 + l1 E + l2 = 0 through delta = +sqrt(l1^2 - 4 l2):

        E0 = -(l1 + delta)/2,   E1 = -(l1 - delta)/2.

    The principal square root is used; for negative real radicand this is
    the branch with positive imaginary part.  real_spectrum is True exactly
    when l1, l2 are real with l1^2 >= 4 l2, and flips at l1^2 = 4 l2.
    """
    l1 = complex(l1)
    l2 = complex(l2)
    delta = _delta(l1, l2)
    e0 = -(l1 + delta) / 2.0
    e1 = -(l1 - delta) / 2.0
    real_spec = (l1.imag == 0.0 and l2.imag == 0.0
                 and l1.real * l1.real - 4.0 * l2.real >= 0.0)
    return e0, e1, real_spec


def build_second_order(spec: ModelSpec) -> SecondOrderSystem:
    if spec.order != 2:
        raise ModelError(f"second-order pipeline needs order 2, got {spec.order}")
    wm = spec.wm()
    scan_superpotential_zeros(wm, spec.mass.interior_points(), spec.params)

    l1, l2 = spec.susy_constants
    e0, e1, real_spec = lowest_eigenvalues(l1, l2)
    delta = _delta(l1, l2)
    f = f_aux(wm, spec.mass)
    u0 = u0_closed(wm, spec.mass, l1, l2)
    vtilde = potential_second_order(wm, spec.mass, u0, l1)
    mx = spec.mass.expr
    delta_v = 2 * differentiate(wm) + (differentiate(mx) / mx) * wm
    phi1, phi2 = zero_mode_logderivs(wm, spec.mass, delta)
    charge = NthOrderCoefficients(n=2, lead=div(Const(1.0), mx), sub=spec.w(),
                                  u=(u0,))
    return SecondOrderSystem(wm=wm, m=spec.mass, l1=l1, l2=l2, delta=delta,
                             f=f, u0=u0, vtilde=vtilde, delta_v=delta_v,
                             phi1=phi1, phi2=phi2,
                             e0=e0, e1=e1, real_spectrum=real_spec,
                             charge=charge,
                             zero_modes=(("phi2_e0", "e0", phi2, e0),
                                         ("phi1_e1", "e1", phi1, e1)),
                             params=spec.params)
