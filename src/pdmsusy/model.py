"""Domain types for the position-dependent-mass problem.

The central objects are a real positive mass function m(x) on an interval,
the mass-deformed superpotential

    W_m(x) = W(x) - (N/2) * d/dx[ m(x)^(-N/2) ],

the kinetic-ordering term rho(m), and quantitative symmetry measures:
parity defect of the mass and PT defect of W_m.  Symmetry is measured,
never enforced; pipelines decide what to do with nonzero defects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .expr import (Const, Expr, ParamEnv, PoleError, Sub, Var, conj_expr,
                   differentiate, div, evaluate_many, mul, pow_, sub,
                   substitute_x)

__all__ = [
    "ModelError", "MassError", "DomainError",
    "MassFn", "ModelSpec", "SymmetryReport",
    "mass_deformed_superpotential", "constant_mass_superpotential",
    "rho", "pt_image", "symmetry_report",
    "chebyshev_points",
]

# Tolerance for "real valued": |Im m| <= REALITY_TOL * (1 + |m|)
REALITY_TOL = 1e-14
SYMMETRY_SAMPLES = 513


class ModelError(Exception):
    pass


class MassError(ModelError):
    pass


class DomainError(ModelError):
    pass


def symmetric_interval(x_min: float, x_max: float) -> bool:
    """Whether (x_min, x_max) is symmetric about 0, up to rounding."""
    return abs(x_min + x_max) <= 1e-14 * max(1.0, abs(x_max))


def chebyshev_points(x_min: float, x_max: float, n: int = SYMMETRY_SAMPLES) -> np.ndarray:
    """Interior Chebyshev (Gauss) nodes: clustered at the endpoints without
    touching them, which is where masses like sec(x) vary fastest."""
    k = np.arange(n)
    c = 0.5 * (x_min + x_max)
    r = 0.5 * (x_max - x_min)
    return np.sort(c + r * np.cos(math.pi * (2 * k + 1) / (2 * n)))


@dataclass(frozen=True)
class MassFn:
    """Real-valued, positive mass function on an open interval."""

    expr: Expr
    x_min: float
    x_max: float

    def __post_init__(self):
        if not self.x_min < self.x_max:
            raise DomainError(f"empty mass domain ({self.x_min}, {self.x_max})")
        if not math.isfinite(self.x_max - self.x_min):
            raise DomainError(f"mass domain ({self.x_min}, {self.x_max}) is "
                              "wider than the float range")

    @property
    def symmetric_domain(self) -> bool:
        return symmetric_interval(self.x_min, self.x_max)

    def interior_points(self, n: int = 257) -> np.ndarray:
        """The midpoints of n equal cells of the domain.  On a domain
        symmetric about 0 the second half is the exact negation of the
        first, reversed (an odd n's middle point is 0), so xs[::-1] == -xs
        and values at -x are the values at x reversed."""
        h = (self.x_max - self.x_min) / n
        if not self.symmetric_domain:
            return self.x_min + h * (np.arange(n) + 0.5)
        half = self.x_min + h * (np.arange(n // 2) + 0.5)
        return np.concatenate([half, np.zeros(n % 2), -half[::-1]])

    def validate(self, env: ParamEnv | None = None, samples: Optional[Sequence[float]] = None) -> np.ndarray:
        """Check reality and positivity on sample points; raises MassError.
        Returns the real mass values at the samples."""
        xs = self.interior_points() if samples is None else np.asarray(samples, dtype=float)
        try:
            v = evaluate_many(self.expr, xs, env)
        except PoleError as exc:
            # a pointwise scan checks the samples before the pole first
            self.validate(env, xs[:int(np.argmax(xs == exc.x))])
            raise
        not_real = np.abs(v.imag) > REALITY_TOL * (1.0 + np.abs(v))
        bad = np.flatnonzero(not_real | (v.real <= 0.0))
        if bad.size:
            i = bad[0]
            kind = "real" if not_real[i] else "positive"
            raise MassError(f"mass not {kind} at x={float(xs[i])!r}: m={complex(v[i])!r}")
        return v.real


@dataclass
class SymmetryReport:
    """Measured symmetry defects; zero (up to tolerance) iff the symmetry
    holds on the sampled points."""

    mass_parity_defect: float
    wm_pt_defect: float
    delta_sup: dict = field(default_factory=dict)

    def entries(self):
        out = {"mass_parity_defect": self.mass_parity_defect,
               "wm_pt_defect": self.wm_pt_defect}
        out.update(self.delta_sup)
        return out


@dataclass(frozen=True)
class ModelSpec:
    """Order-N SUSY model: mass, superpotential (constant-mass form W or
    deformed form W_m), SUSY constants l_1..l_N (l_0 = 1 is implicit)
    and parameter bindings."""

    order: int
    mass: MassFn
    superpotential: Optional[Expr] = None
    deformed: Optional[Expr] = None
    susy_constants: tuple = ()
    params: ParamEnv = field(default_factory=ParamEnv)

    def __post_init__(self):
        if self.order < 1:
            raise ModelError(f"order must be >= 1, got {self.order}")
        if (self.superpotential is None) == (self.deformed is None):
            raise ModelError("exactly one of superpotential/deformed must be given")
        constants = tuple(complex(c) for c in self.susy_constants)
        if len(constants) != self.order:
            raise ModelError(
                f"susy_constants must have length {self.order}, got {len(constants)}")
        object.__setattr__(self, "susy_constants", constants)
        self.mass.validate(self.params)

    @property
    def real_susy_constants(self) -> bool:
        return all(c.imag == 0.0 for c in self.susy_constants)

    def wm(self) -> Expr:
        """Mass-deformed superpotential W_m."""
        if self.deformed is not None:
            return self.deformed
        return mass_deformed_superpotential(self.superpotential, self.mass, self.order)

    def w(self) -> Expr:
        """Constant-mass superpotential W (inverts the deformation)."""
        if self.superpotential is not None:
            return self.superpotential
        return constant_mass_superpotential(self.deformed, self.mass, self.order)


def _deformation_term(m: MassFn, n: int) -> Expr:
    # (N/2) * d/dx[ m^(-N/2) ]
    return mul(Const(n / 2.0), differentiate(pow_(m.expr, Const(-n / 2.0))))


def mass_deformed_superpotential(w: Expr, m: MassFn, n: int) -> Expr:
    """W_m = W - (N/2) [m^(-N/2)]'."""
    if n < 1:
        raise ModelError(f"order must be >= 1, got {n}")
    return sub(w, _deformation_term(m, n))


def constant_mass_superpotential(wm: Expr, m: MassFn, n: int) -> Expr:
    """W = W_m + (N/2) [m^(-N/2)]'."""
    if n < 1:
        raise ModelError(f"order must be >= 1, got {n}")
    return wm + _deformation_term(m, n)


def rho(m: MassFn, a: float, b: float) -> Expr:
    """Kinetic-ordering term rho = ((1+b)/2) m''/m^2 - c m'^2/m^3 with
    c = 1 + b + a(a+b+1); identically zero for (a, b) = (0, -1)."""
    mx = m.expr
    dm = differentiate(mx)
    d2m = differentiate(mx, 2)
    c = 1.0 + b + a * (a + b + 1.0)
    first = mul(Const((1.0 + b) / 2.0), div(d2m, mul(mx, mx)))
    second = mul(Const(c), div(mul(dm, dm), mul(mx, mul(mx, mx))))
    return sub(first, second)


def pt_image(f: Expr) -> Expr:
    """AST whose evaluation at x equals conj(f(-x)), exactly.

    Built as conjugation of the parity substitution x -> 0-x, so the identity
    holds bit-for-bit at evaluation; derivatives obey PT f'(x) = -conj(f'(-x)).
    0-x and not -x: negating x+0i gives -x-0i, and the sign of that zero
    would put sqrt, log and fractional powers on the other side of their
    branch cuts.  The result may contain a conjugation node (printed
    "conj(...)") that is not part of the input grammar.
    """
    return conj_expr(substitute_x(f, Sub(Const(0.0), Var())))


def symmetry_report(spec: ModelSpec, functions=None) -> SymmetryReport:
    """Parity defect of the mass and PT defect of W_m on the 513 interior
    Chebyshev points of the mass domain.

    ``functions`` may map names to further expressions (a potential, charge
    coefficients); for each entry the report carries sup|f(x) - conj(f(-x))|,
    the size of its PT defect.  These extra norms are informational: the
    derived functions are non-PT-symmetric by construction.

    Raises DomainError when the mass domain is not symmetric about 0,
    because parity is undefined there.
    """
    if not spec.mass.symmetric_domain:
        raise DomainError(
            f"domain ({spec.mass.x_min}, {spec.mass.x_max}) is not symmetric "
            "about 0; parity comparison is undefined")
    xs = chebyshev_points(spec.mass.x_min, spec.mass.x_max)

    # each x next to -x, so an evaluation error names the point that a
    # pointwise scan meets first
    pairs = np.column_stack([xs, -xs]).ravel()

    def defect(values: np.ndarray, image=np.conj) -> float:
        return float(np.max(np.abs(values[0::2] - image(values[1::2]))))

    functions = functions or {}
    mass, *derived, wm = evaluate_many(
        (spec.mass.expr, *functions.values(), spec.wm()), pairs, spec.params)
    return SymmetryReport(
        mass_parity_defect=defect(mass, image=np.positive),
        wm_pt_defect=defect(wm),
        delta_sup={name: defect(v) for name, v in zip(functions, derived)})
