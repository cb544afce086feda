"""General-N formulas: charge coefficients, PT-defect identities, the closed
potential and the degree-N energy polynomial.

For N >= 3 the interior coefficients u_0..u_(N-3) have no closed form here
(only their PT defects are constrained), so NthOrderCoefficients stores
absent entries and operator-level checks stay restricted to N <= 2;
formula-level identities below hold for every N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import Const, Expr, differentiate, mul, pow_
from .model import MassFn, ModelError
from . import discrete

__all__ = [
    "NthOrderCoefficients", "EnergyPolynomial",
    "delta_v_general", "potential_general", "delta_u_coefficients",
    "monic_value", "energy_roots",
]


@dataclass(frozen=True)
class NthOrderCoefficients:
    """Coefficients of the N-th order charge
    C = m^(-N/2) d^N + W(x) d^(N-1) + sum_j u_j(x) d^j, j = 0..N-2.
    Entries of u may be None when no closed form exists (N >= 3)."""

    n: int
    lead: Expr
    sub: Expr
    u: tuple

    def __post_init__(self):
        if self.n < 1:
            raise ModelError(f"order must be >= 1, got {self.n}")
        expected = max(self.n - 1, 0)
        if len(self.u) != expected:
            raise ModelError(
                f"u must have {expected} entries for order {self.n}, got {len(self.u)}")


def delta_v_general(wm: Expr, m: MassFn, n: int) -> Expr:
    """PT defect of the potential for any order:

        Delta V = sqrt(m^N)/m^2 * [2 m W_m' + (N-1) m' W_m].

    Reduces to 2 W_m'/sqrt(m) at N=1 and to 2 W_m' + (m'/m) W_m at N=2.
    """
    if n < 1:
        raise ModelError(f"order must be >= 1, got {n}")
    mx = m.expr
    dm = differentiate(mx)
    dwm = differentiate(wm)
    prefactor = pow_(mx, Const(n / 2.0)) / (mx * mx)
    bracket = 2 * mx * dwm + Const(float(n - 1)) * dm * wm
    return prefactor * bracket


def potential_general(wm: Expr, m: MassFn, u_nm2: Expr, n: int, lam: complex) -> Expr:
    """Closed potential for any order (with C(N,2) = 0 and u_(N-2) = 0
    understood for N < 2):

        N Vtilde = sqrt(m^N)/m^2 * [ C(N,2) m' W_m
                     + m ( sqrt(m^N) W_m^2 + (2N-1) W_m' - 2 u_(N-2) ) ]
                   + N(N-2)/48 * [ 4(2N+1)(1/m)'' + 3N(N-2) m ((1/m)')^2 ]
                   + lambda.

    With lambda = -l1 this reduces at N=1 to the first-order potential
    (including the m''/(4m^2) - 7 m'^2/(16 m^3) mass terms) and at N=2,
    with u0 from the closed second-order form, to the second-order one.
    """
    if n < 1:
        raise ModelError(f"order must be >= 1, got {n}")
    mx = m.expr
    dm = differentiate(mx)
    sqrt_mn = pow_(mx, Const(n / 2.0))
    inv_m = pow_(mx, Const(-1.0))
    d_inv = differentiate(inv_m)
    d2_inv = differentiate(inv_m, 2)

    binom = float(math.comb(n, 2))
    bracket = (Const(binom) * dm * wm
               + mx * (sqrt_mn * wm * wm
                       + Const(float(2 * n - 1)) * differentiate(wm)
                       - 2 * u_nm2))
    mass_correction = (Const(n * (n - 2) / 48.0)
                       * (Const(4.0 * (2 * n + 1)) * d2_inv
                          + Const(3.0 * n * (n - 2)) * mx * d_inv * d_inv))
    total = sqrt_mn / (mx * mx) * bracket + mass_correction + Const(complex(lam))
    return total / n


def delta_u_coefficients(wm: Expr, m: MassFn, n: int,
                         u_nm2: Optional[Expr] = None) -> tuple[Expr, Optional[Expr]]:
    """PT defects of the two highest interior charge coefficients:

        Delta u_(N-2) = (N-1) W_m'                                (N >= 2)
        Delta u_(N-3) = (N-2)[ -((N-1)/2){ (N/6)(m^(-N/2))''' + W_m'' }
                               + u_(N-2)' ]                       (N >= 3)

    The second entry is None when N = 2 or u_(N-2) was not supplied.
    """
    if n < 2:
        raise ModelError(f"Delta u_(N-2) needs order >= 2, got {n}")
    dwm = differentiate(wm)
    first = Const(float(n - 1)) * dwm
    if n < 3 or u_nm2 is None:
        return first, None
    lead_3rd = differentiate(pow_(m.expr, Const(-n / 2.0)), 3)
    inner = (Const(-(n - 1) / 2.0)
             * (Const(n / 6.0) * lead_3rd + differentiate(wm, 2))
             + differentiate(u_nm2))
    return first, mul(Const(float(n - 2)), inner)


def monic_value(coeffs: tuple, e: complex) -> complex:
    """Horner value of E^N + l1 E^(N-1) + ... + lN at e; coeffs = (l1..lN)."""
    acc = complex(1.0)
    for c in coeffs:
        acc = acc * e + c
    return acc


def _monic_derivative(coeffs: tuple, e: complex) -> complex:
    n = len(coeffs)
    acc = complex(0.0)
    for k, c in enumerate((complex(1.0),) + coeffs[:-1]):
        acc = acc * e + (n - k) * c
    return acc


@dataclass(frozen=True)
class EnergyPolynomial:
    """Monic polynomial E^N + l1 E^(N-1) + ... + lN and its roots."""

    coefficients: tuple   # (l1, ..., lN); l0 = 1 implicit
    roots: tuple

    def value(self, e: complex) -> complex:
        return monic_value(self.coefficients, e)

    def __post_init__(self):
        for r in self.roots:
            scale = max(1.0, abs(r) ** len(self.coefficients))
            if abs(self.value(r)) > 1e-9 * scale:
                raise ModelError(
                    f"root {r!r} fails the polynomial residual contract")


def energy_roots(l: Sequence[complex]) -> EnergyPolynomial:
    """All N roots of the SUSY energy polynomial via the companion-matrix
    eigenproblem, polished by one Newton step and sorted by (Re, Im).

    For odd N with real coefficients at least one root is real up to the
    1e-9 residual contract (odd-degree real polynomials cross zero).
    """
    coeffs = tuple(complex(c) for c in l)
    n = len(coeffs)
    if n < 1:
        raise ModelError("need at least one coefficient")
    companion = np.zeros((n, n), dtype=complex)
    companion[0, :] = [-c for c in coeffs]
    if n > 1:
        companion[np.arange(1, n), np.arange(0, n - 1)] = 1.0
    raw = discrete.dense_eigenvalues(companion)

    polished = []
    for r in raw:
        r = complex(r)
        dp = _monic_derivative(coeffs, r)
        if abs(dp) > 0.0:
            r = r - monic_value(coeffs, r) / dp
        polished.append(r)
    polished.sort(key=lambda z: (z.real, z.imag))
    return EnergyPolynomial(coefficients=coeffs, roots=tuple(polished))
