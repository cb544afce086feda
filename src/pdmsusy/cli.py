"""Configuration ingestion, pipeline orchestration and report emission.

A run is described by a JSON config (see RunConfig / load_config), executes
a deterministic sequence of checks and emits a machine-readable JSON report
plus optional plot-ready CSV curves.  Exit codes: 0 all requested checks
pass, 1 a check failed, 2 configuration error, 3 numerical failure.

A run evaluates what its checks share once: the identity quantities at
the identity samples, and the operator coefficients of every grid it
assembles on (the config's grid, and with convergence the refinement
chain) in one sampling, from which H and C are built grid by grid.  If
that sampling fails, each grid evaluates its own, so a failure is
reported where and as it would be grid by grid.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import math
import operator
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, cached_property, partial
from itertools import combinations
from typing import Optional, Sequence

import numpy as np

from . import discrete, susy1, susy2, susyn
from .expr import (Const, EvaluationError, Expr, ParamEnv, ParseError,
                   evaluate_many, node_counts, parameter_names, parse)
from .model import (DomainError, MassError, MassFn, ModelError, ModelSpec,
                    symmetry_report)
from .susy2 import SingularPointError

__all__ = ["ConfigError", "RunConfig", "CheckOutcome", "VerificationReport",
           "load_config", "run", "paper_examples",
           "emit_curves", "main",
           "KNOWN_CHECKS", "DEFAULT_TOLERANCES"]

DEFAULT_TOLERANCES = {
    "identity": 1e-9,            # pointwise closed-form identities
    "quadratic_residual": 1e-12, # E^2 + l1 E + l2 at the closed-form roots
    "symmetry": 1e-12,           # parity/PT defects of symmetric inputs
    "discrete_residual": 1e-2,   # single-grid constraint residuals
    "slope_min": 1.7,            # measured convergence-order window
    "slope_max": 2.3,
    "closure": 1e-6,             # conjugate-closure distance
    "eigen_match": 5e-3,         # discrete eigenvalue vs closed form
}

IDENTITY_SAMPLES = 100

log = logging.getLogger("pdmsusy.cli")    # also when run as __main__


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    spec: ModelSpec             # its mass domain is the grid interval
    grid: discrete.Grid
    checks: tuple
    tolerances: dict
    output: dict
    echo: dict = field(default_factory=dict)


@dataclass
class CheckOutcome:
    name: str
    status: str                 # "pass" | "fail" | "skip"
    tolerance: Optional[float] = None
    values: dict = field(default_factory=dict)
    reason: Optional[str] = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.tolerance is not None:
            out["tolerance"] = self.tolerance
        if self.values:
            out["values"] = self.values
        if self.reason:
            out["reason"] = self.reason
        return out


@dataclass
class VerificationReport:
    model: dict
    checks: list
    symmetry: Optional[dict] = None
    closed_form_eigenvalues: Optional[list] = None
    reality_condition: Optional[bool] = None
    susy_constants_real: Optional[bool] = None
    spectrum: Optional[list] = None
    wall_clock_seconds: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def as_dict(self) -> dict:
        out = {"model": self.model, "passed": self.passed,
               "checks": [c.as_dict() for c in self.checks]}
        for key in ("symmetry", "closed_form_eigenvalues", "reality_condition",
                    "susy_constants_real", "spectrum"):
            if getattr(self, key) is not None:
                out[key] = getattr(self, key)
        if self.notes:
            out["notes"] = self.notes
        out["wall_clock_seconds"] = self.wall_clock_seconds
        return out

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, default=_json_default)


def _json_default(obj):
    """json.dumps hook for what JSON lacks: a complex number becomes
    [re, im], a numpy array or scalar its Python value (encoded in turn)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# ---------------------------------------------------------------------------
# Config loading
# ---------------------------------------------------------------------------

def _is_a(value, types) -> bool:
    """isinstance, except that no boolean and no infinite or NaN float
    passes: JSON true and false load as bool, which Python counts as an
    int, JSON Infinity and NaN load as floats, and no field takes either."""
    return (isinstance(value, types) and not isinstance(value, bool)
            and not (isinstance(value, float) and not math.isfinite(value)))


def _want(mapping: dict, key: str, types, path: str, optional: bool = False,
          default=None):
    if key not in mapping:
        if optional:
            return default
        raise ConfigError(f"missing field '{path}{key}'")
    value = mapping[key]
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"field '{path}{key}' is not finite ({value})")
    if not _is_a(value, types):
        raise ConfigError(f"field '{path}{key}' has wrong type "
                          f"({type(value).__name__})")
    return value


def _check_unknown(mapping: dict, allowed: Sequence[str], path: str):
    for key in mapping:
        if key not in allowed:
            raise ConfigError(f"unknown field '{path}{key}'")


def _parse_expression(source: str, path: str) -> Expr:
    try:
        return parse(source)
    except ParseError as exc:
        raise ConfigError(f"field '{path}': {exc}") from exc


def _as_complex(value, path: str) -> complex:
    parts = value if isinstance(value, list) and len(value) == 2 else [value]
    if not all(_is_a(v, (int, float)) for v in parts):
        raise ConfigError(f"field '{path}' must be a number or [re, im] pair")
    return complex(*parts)


def parse_config_dict(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = ("order", "mass", "superpotential", "params", "susy_constants",
               "grid", "checks", "tolerances", "output")
    _check_unknown(raw, allowed, "")

    order = _want(raw, "order", int, "")
    if order < 1:
        raise ConfigError("field 'order' must be a positive integer")

    mass_expr = _parse_expression(_want(raw, "mass", str, ""), "mass")

    sp = _want(raw, "superpotential", dict, "")
    _check_unknown(sp, ("kind", "expr"), "superpotential.")
    kind = _want(sp, "kind", str, "superpotential.")
    if kind not in ("constant_mass", "deformed"):
        raise ConfigError("field 'superpotential.kind' must be "
                          "'constant_mass' or 'deformed'")
    sp_expr = _parse_expression(_want(sp, "expr", str, "superpotential."),
                                "superpotential.expr")

    params_raw = _want(raw, "params", dict, "", optional=True, default={})
    params = {}
    for name, value in params_raw.items():
        params[str(name)] = _as_complex(value, f"params.{name}")
    used = set()
    for path, expr in (("mass", mass_expr), ("superpotential.expr", sp_expr)):
        for name in parameter_names(expr):
            if name not in params:
                raise ConfigError(
                    f"field '{path}': unbound parameter '{name}'")
            used.add(name)
    for name in params:
        if name not in used:
            raise ConfigError(f"field 'params.{name}': parameter not used "
                              "by 'mass' or 'superpotential.expr'")

    constants_raw = _want(raw, "susy_constants", list, "")
    constants = tuple(_as_complex(v, f"susy_constants[{i}]")
                      for i, v in enumerate(constants_raw))
    if len(constants) != order:
        raise ConfigError(
            f"field 'susy_constants' must have length {order} (the order), "
            f"got {len(constants)}")

    grid_raw = _want(raw, "grid", dict, "")
    _check_unknown(grid_raw, ("xmin", "xmax", "points"), "grid.")
    points = _want(grid_raw, "points", int, "grid.")
    if points < 16:
        raise ConfigError("field 'grid.points' must be >= 16")
    try:
        grid = discrete.Grid(float(_want(grid_raw, "xmin", (int, float), "grid.")),
                             float(_want(grid_raw, "xmax", (int, float), "grid.")),
                             points)
    except discrete.GridError as exc:
        raise ConfigError(f"field 'grid': {exc}") from exc

    checks_raw = _want(raw, "checks", list, "")
    checks = []
    for c in checks_raw:
        if c not in KNOWN_CHECKS:
            raise ConfigError(
                f"unknown check '{c}'; valid checks: {', '.join(KNOWN_CHECKS)}")
        if c not in checks:
            checks.append(c)
    if order > 2:
        unsupported = [c for c in checks if c not in ("symmetry", "eigenvalues")]
        if unsupported:
            raise ConfigError(
                f"order {order} supports only the 'symmetry' and 'eigenvalues' "
                f"checks (no closed interior coefficients); remove {unsupported}")
    if order == 1 and "u0_routes" in checks:
        raise ConfigError("check 'u0_routes' requires order 2")

    tol_raw = _want(raw, "tolerances", dict, "", optional=True, default={})
    tolerances = dict(DEFAULT_TOLERANCES)
    for name, value in tol_raw.items():
        _set_tolerance(tolerances, name, value, f"field 'tolerances.{name}'")

    output_raw = _want(raw, "output", dict, "", optional=True, default={})
    _check_unknown(output_raw, ("report", "curves"), "output.")
    output = {k: _want(output_raw, k, str, "output.") for k in output_raw}

    sp_field = "superpotential" if kind == "constant_mass" else "deformed"
    spec = ModelSpec(order=order, mass=MassFn(mass_expr, grid.x_min, grid.x_max),
                     susy_constants=constants, params=ParamEnv(params),
                     **{sp_field: sp_expr})
    return RunConfig(spec=spec, grid=grid, checks=tuple(checks),
                     tolerances=tolerances, output=output, echo=raw)


def _set_tolerance(tolerances: dict, name: str, value, source: str) -> None:
    """Set one named tolerance from a config value or a --tol override."""
    if name not in DEFAULT_TOLERANCES:
        raise ConfigError(
            f"unknown tolerance '{name}'; valid names: "
            f"{', '.join(sorted(DEFAULT_TOLERANCES))}")
    try:
        number = float(value) if _is_a(value, (int, float, str)) else None
    except ValueError:
        number = None
    if number is None:
        raise ConfigError(f"{source}: '{value}' is not a number")
    if not 0.0 <= number < math.inf:
        raise ConfigError(f"{source}: '{value}' must be a finite number >= 0")
    tolerances[name] = number


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file unreadable: {exc}") from exc
    return parse_config_dict(raw)


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------

@contextmanager
def _timed(wall: dict, key: str):
    """Record the wall-clock time of the pipeline stage ``key`` as
    wall[key]; a model or numerical failure raised in it, an allocation
    that fails among them, is tagged with the stage (printed as
    "[stage key]"), unless a stage run inside it tagged it first."""
    t0 = time.perf_counter()
    try:
        yield
    except (EvaluationError, ModelError, discrete.DiscreteError,
            MemoryError) as exc:
        if not hasattr(exc, "stage"):
            exc.stage = key
        raise
    wall[key] = time.perf_counter() - t0
    log.info("stage %s: %.3f s", key, wall[key])


def _sup(va, vb) -> float:
    return float(np.max(np.abs(va - vb)))


def _sup_diff(a: Expr, b: Expr, xs, env) -> float:
    return _sup(*evaluate_many((a, b), xs, env))


def _bounded(name: str, values: dict, tol: float) -> CheckOutcome:
    """Outcome that passes when every value is within tol."""
    ok = max(values.values()) <= tol
    return CheckOutcome(name, "pass" if ok else "fail", tol, values)


def _build_system(spec: ModelSpec):
    # builders are read off their modules at call time, so wrappers see them
    if spec.order == 1:
        system = susy1.build_first_order(spec)
    elif spec.order == 2:
        system = susy2.build_second_order(spec)
    else:
        return None
    if log.isEnabledFor(logging.INFO):
        log.info("order-%d potential: %d tree nodes, %d unique", spec.order,
                 *node_counts(system.vtilde))
    return system


def _delta_v_quantities(system, spec) -> tuple:
    return (system.vtilde, system.delta_v,
            susyn.delta_v_general(system.wm, spec.mass, spec.order))


def _u0_quantities(system, spec) -> tuple:
    theta = system.l2 - system.l1 * system.l1 / 4.0
    return system.u0, susy2.u0_integrated(system.f, system.wm, spec.mass,
                                          theta)


def _riccati_quantities(system, spec) -> tuple:
    return discrete.riccati_roots(system.m, system.vtilde,
                                  [phi for _, _, phi, _ in system.zero_modes])


# identity check -> the expressions it compares at the identity samples
_QUANTITIES = {"delta_v": _delta_v_quantities, "u0_routes": _u0_quantities,
               "riccati": _riccati_quantities}


@dataclass
class _CheckContext:
    """Everything a check reads, and what it adds to the report.  The
    values at the identity samples, the operator coefficients, the
    operators on the config's grid, their constraint residuals and H's
    lowest levels are computed on first use, once per context."""

    config: RunConfig
    spec: ModelSpec
    system: object
    refinements: int
    wall: dict = field(default_factory=dict)
    report: dict = field(default_factory=lambda: {"notes": []})

    @cached_property
    def identity_points(self) -> np.ndarray:
        return self.spec.mass.interior_points(IDENTITY_SAMPLES)

    @cached_property
    def samples(self) -> dict:
        """Per requested identity check, the values at the identity samples
        of the expressions it compares, all built and evaluated in stage
        "samples" by one evaluate_many call over their joint DAG.  Its
        roots are in config order, so the first one that fails is the one
        the checks, run one by one, would meet first."""
        with _timed(self.wall, "samples"):
            quantities = {name: _QUANTITIES[name](self.system, self.spec)
                          for name in self.config.checks
                          if name in _QUANTITIES}
            unique = {id(e): e for exprs in quantities.values()
                      for e in exprs}
            roots = tuple(unique.values())
            values = dict(zip(unique, evaluate_many(
                roots, self.identity_points, self.spec.params)))
        if log.isEnabledFor(logging.INFO):
            log.info("identity samples: %d points, %d expressions, "
                     "%d unique nodes", len(self.identity_points), len(roots),
                     node_counts(roots)[1])
        return {name: tuple(values[id(e)] for e in exprs)
                for name, exprs in quantities.items()}

    @cached_property
    def chain(self) -> list:
        """The grids of the convergence study: the config's grid refined
        until there are ``refinements``, or up to the first grid past the
        dense limit, which the study refuses before any residual."""
        grids = [self.config.grid]
        while (len(grids) < self.refinements
               and grids[-1].points <= discrete.MAX_DENSE_DIMENSION):
            grids.append(grids[-1].refined())
        return grids

    @cached_property
    def coefficients(self) -> dict:
        """Grid -> [the samples of H's coefficients there, C's (None if no
        check reads C)], for every grid whose operators the run assembles,
        all from one discrete.coefficient_samples call.  Each is read once
        and then released (_samples).  Empty where that call raises: each
        grid then evaluates its own, and so fails where and as it would
        alone."""
        grid, checks = self.config.grid, self.config.checks
        # the checks that read C need parity (zeta = C P), so they are the
        # ones skipped on a grid not symmetric about 0, and they refuse a
        # grid past the dense limit
        charge = (grid.symmetric
                  and grid.points <= discrete.MAX_DENSE_DIMENSION
                  and any(_CHECKS[name][1] is _ASYMMETRIC_GRID
                          for name in checks))
        grids = [grid]
        if (charge and "convergence" in checks
                and self.chain[-1].points <= discrete.MAX_DENSE_DIMENSION):
            grids = self.chain
        c = self.system.charge
        roots = (self.system.vtilde, *((c.lead, c.sub, *c.u) if charge else ()))
        try:
            samples = discrete.coefficient_samples(self.spec.mass, roots,
                                                   grids, self.spec.params)
        except (EvaluationError, ModelError, MemoryError):
            return {}
        return {g: [(mass, values[0]), values[1:] or None]
                for g, (mass, values) in zip(grids, samples)}

    def _samples(self, grid, part: int):
        """H's (part 0) or C's (part 1) coefficient samples on grid, or
        None; taken out, so the run keeps no slice it has assembled."""
        parts = self.coefficients.get(grid)
        if parts is None:
            return None
        samples, parts[part] = parts[part], None
        return samples

    def _hamiltonian(self, grid):
        """H on grid, from its coefficient samples if it has them."""
        return discrete.assemble_hamiltonian(
            self.spec.mass, self.system.vtilde, grid, self.spec.params,
            samples=self._samples(grid, 0))

    def _charge(self, grid):
        """C on grid, from its coefficient samples if it has them."""
        return discrete.assemble_charge(self.system.charge, grid,
                                        self.spec.params,
                                        samples=self._samples(grid, 1))

    @cached_property
    def hamiltonian(self):
        return self._hamiltonian(self.config.grid)

    @cached_property
    def operators(self):
        # every check that reads C is dense-limited: refuse before building
        discrete.check_dense_budget(self.config.grid.points)
        return self.hamiltonian, self._charge(self.config.grid)

    @cached_property
    def levels(self):
        # LOW_LEVELS is read at call time, as the builders are
        return discrete.lowest_levels(self.hamiltonian, discrete.LOW_LEVELS)

    @cached_property
    def residuals(self) -> dict:
        return discrete.constraint_residuals(*self.operators,
                                             self.spec.susy_constants)

    def residuals_on(self, grid) -> dict:
        """The constraint residuals on grid, a grid of the chain."""
        if grid == self.config.grid:
            return self.residuals
        return discrete.constraint_residuals(
            self._hamiltonian(grid), self._charge(grid),
            self.spec.susy_constants)


def _check_symmetry(ctx: _CheckContext) -> CheckOutcome:
    tol = ctx.config.tolerances["symmetry"]
    # above order 2 there is no system: only m and W_m are measured
    functions = {} if ctx.system is None else {
        "delta_vtilde": ctx.system.vtilde,
        **{f"delta_u{j}": u for j, u in enumerate(ctx.system.charge.u)}}
    rep = symmetry_report(ctx.spec, functions=functions)
    # the delta_* norms are informational (those functions are
    # non-PT-symmetric by construction); only m and W_m must be symmetric
    ok = max(rep.mass_parity_defect, rep.wm_pt_defect) <= tol
    return CheckOutcome("symmetry", "pass" if ok else "fail", tol,
                        dict(rep.entries()))


def _check_delta_v(ctx: _CheckContext) -> CheckOutcome:
    vtilde, delta_v, general = ctx.samples["delta_v"]
    # the PT image of Vtilde, conj(Vtilde(-x)): pt_image(Vtilde) at x,
    # bit for bit
    image = np.conj(evaluate_many(ctx.system.vtilde, -ctx.identity_points,
                                  ctx.spec.params))
    return _bounded("delta_v", {
        "identity": _sup(vtilde - image, delta_v),
        "general_reduction": _sup(general, delta_v),
    }, ctx.config.tolerances["identity"])


def _check_u0_routes(ctx: _CheckContext) -> CheckOutcome:
    return _bounded("u0_routes", {
        "closed_vs_integrated": _sup(*ctx.samples["u0_routes"]),
    }, ctx.config.tolerances["identity"])


def _riccati_values(system, xs, values=None) -> dict:
    """Riccati residual per zero mode of ``system``: see
    discrete.riccati_residual, which reads ``values`` if given."""
    keys, _, phis, energies = zip(*system.zero_modes)
    return dict(zip(keys, discrete.riccati_residual(
        system.m, system.vtilde, phis, energies, xs, system.params, values)))


def _check_riccati(ctx: _CheckContext) -> CheckOutcome:
    return _bounded("riccati", _riccati_values(
        ctx.system, ctx.identity_points, ctx.samples["riccati"]),
        ctx.config.tolerances["identity"])


def _closed_form_eigenvalues(spec):
    if spec.order == 1:
        return [-spec.susy_constants[0]], None
    if spec.order == 2:
        e0, e1, real_spec = susy2.lowest_eigenvalues(*spec.susy_constants)
        return [e0, e1], real_spec
    poly = susyn.energy_roots(spec.susy_constants)
    return list(poly.roots), None


def _check_eigenvalues(ctx: _CheckContext) -> CheckOutcome:
    tol = ctx.config.tolerances["quadratic_residual"]
    roots, real_spec = _closed_form_eigenvalues(ctx.spec)
    coeffs = ctx.spec.susy_constants
    worst = max(abs(susyn.monic_value(coeffs, r))
                / susyn.residual_scale(r, len(coeffs)) for r in roots)
    values = {"polynomial_residual": worst,
              "roots": [complex(r) for r in roots]}
    if real_spec is not None:
        values["real_spectrum"] = real_spec
    return CheckOutcome("eigenvalues", "pass" if worst <= tol else "fail",
                        tol, values)


def _check_constraint(name: str, ctx: _CheckContext) -> CheckOutcome:
    return _bounded(name, {name: ctx.residuals[name]},
                    ctx.config.tolerances["discrete_residual"])


def _check_conjugate_closure(ctx: _CheckContext) -> CheckOutcome:
    tol = ctx.config.tolerances["closure"]
    pairing = discrete.conjugate_pairing_distance
    distance = pairing(discrete.susy_algebra_spectrum(ctx.operators[1]))
    values = {"susy_algebra_distance": distance,
              "h_spectrum_distance": pairing(ctx.levels.values)}
    return CheckOutcome("conjugate_closure",
                        "pass" if distance <= tol else "fail", tol, values)


def _check_convergence(ctx: _CheckContext) -> CheckOutcome:
    lo, hi = ctx.config.tolerances["slope_min"], ctx.config.tolerances["slope_max"]
    discrete.check_dense_budget(ctx.chain[-1].points)
    study = discrete.convergence_study(ctx.residuals_on, ctx.chain)
    values = {}
    ok = True
    reasons = []
    for name, result in study.items():
        values[f"{name}_order"] = result.order
        values[f"{name}_residuals"] = list(result.residuals)
        if result.floored:
            reasons.append(f"{name} converged to floor")
        elif not lo <= result.order <= hi:
            ok = False
    return CheckOutcome("convergence", "pass" if ok else "fail", lo, values,
                        "; ".join(reasons) or None)


def _check_spectrum(ctx: _CheckContext) -> CheckOutcome:
    """The lowest levels of the discrete H plus closed-form comparison when
    the zero modes are window-confined."""
    config, spec = ctx.config, ctx.spec
    # H alone: assembling C evaluates u0, which divides by W_m
    s = ctx.levels

    xs = config.grid.nodes()
    tol = config.tolerances["eigen_match"]
    values = {}
    confined = {}
    targets = {}
    for _, label, phi, energy in ctx.system.zero_modes:
        psi = discrete.wavefunction_from_log_derivative(phi, xs, spec.params)
        confined[label] = discrete.l2_normalizable(psi)
        if (label == "e0" and config.grid.symmetric
                and np.all(np.isfinite(psi))):
            # PT defect of the ground mode under the midpoint normalization
            # (any other normalization changes this number)
            values["psi0_pt_defect"] = float(
                np.max(np.abs(psi - np.conj(psi[::-1]))))
            ctx.report["notes"].append(
                "psi0_pt_defect uses the midpoint normalization")
        if confined[label]:
            targets[label] = complex(energy)
    # the unlisted levels lie right of s.edge: widen the window until none
    # of them can be nearer to a closed-form level than the listed ones
    while any(np.min(np.abs(s.values - e)) > s.edge - e.real
              for e in targets.values()):
        s = discrete.lowest_levels(ctx.hamiltonian, 2 * len(s))
    ctx.report["spectrum"] = [complex(v) for v in s.values]
    ok = True
    for label, energy in targets.items():
        dist = float(np.min(np.abs(s.values - energy)))
        values[f"{label}_distance"] = dist
        ok = ok and dist <= tol
    values.update({f"{k}_confined": v for k, v in confined.items()})
    if any(confined.values()):
        return CheckOutcome("spectrum_match", "pass" if ok else "fail", tol,
                            values)
    return CheckOutcome("spectrum_match", "skip", values=values,
                        reason="zero modes not window-confined; "
                               "closed-form comparison not meaningful")


_ASYMMETRIC_GRID = "grid not symmetric about 0"

# name -> (check, reason it is skipped on a grid not symmetric about 0, or
# None when it runs on any grid); the order is the documented check order
_CHECKS = {
    "symmetry": (_check_symmetry, "domain not symmetric about 0"),
    "delta_v": (_check_delta_v, None),
    "u0_routes": (_check_u0_routes, None),
    "riccati": (_check_riccati, None),
    "eigenvalues": (_check_eigenvalues, None),
    "pseudo": (partial(_check_constraint, "pseudo"), _ASYMMETRIC_GRID),
    "cpt": (partial(_check_constraint, "cpt"), _ASYMMETRIC_GRID),
    "susy": (partial(_check_constraint, "susy"), _ASYMMETRIC_GRID),
    "conjugate_closure": (_check_conjugate_closure, _ASYMMETRIC_GRID),
    "spectrum": (_check_spectrum, None),
    "convergence": (_check_convergence, _ASYMMETRIC_GRID),
}

KNOWN_CHECKS = tuple(_CHECKS)


def run(config: RunConfig, refinements: int = 3) -> VerificationReport:
    """Execute every requested check; deterministic apart from wall-clock."""
    wall = {}
    spec = config.spec
    lo, hi = config.tolerances["slope_min"], config.tolerances["slope_max"]
    if lo > hi:
        raise ConfigError(f"tolerances: slope_min = {lo:g} exceeds "
                          f"slope_max = {hi:g}, an empty convergence window")
    roots, real_spec = _closed_form_eigenvalues(spec)
    if not all(math.isfinite(susyn.residual_scale(r, spec.order))
               for r in roots):
        raise ConfigError(f"field 'susy_constants': closed-form eigenvalues "
                          f"{roots}, or |E|^{spec.order}, pass the float range")
    with _timed(wall, "system"):
        system = _build_system(spec)

    ctx = _CheckContext(config, spec, system, refinements, wall)
    checks = []
    for name in config.checks:
        check, skip_reason = _CHECKS[name]
        with _timed(wall, name):
            if skip_reason and not config.grid.symmetric:
                outcome = CheckOutcome(name, "skip", reason=skip_reason)
            else:
                outcome = check(ctx)
        checks.append(outcome)
        if name == "symmetry":
            ctx.report["symmetry"] = (dict(outcome.values) if outcome.values
                                      else {"skipped": outcome.reason})

    if not spec.real_susy_constants:
        ctx.report["notes"].append(
            "susy_constants are not all real; reality analysis of the "
            "lowest eigenvalues does not apply")
    return VerificationReport(
        model=dict(config.echo), checks=checks,
        closed_form_eigenvalues=[complex(r) for r in roots],
        reality_condition=real_spec,
        susy_constants_real=spec.real_susy_constants,
        wall_clock_seconds=wall, **ctx.report)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

FIRST_ORDER_HEADER = "x,re_m,re_wm,im_wm,re_v,im_v,re_psi0,im_psi0"
SECOND_ORDER_HEADER = (FIRST_ORDER_HEADER
                       + ",re_u0,im_u0,re_psi1,im_psi1,re_psi2,im_psi2")


def emit_curves(system, grid: discrete.Grid, path: str) -> None:
    """Write plot-ready curves, one row per grid node, deterministic order.

    First order: x, m, W_m, Vtilde and psi0 (from phi0).  Second order adds
    u0 and both zero modes; psi0 is then the ground mode (the phi2 state,
    paired with E0).  All wavefunctions use the midpoint normalization.
    """
    env = system.params
    xs = grid.nodes()
    m_vals, wm_vals, v_vals, *u0 = evaluate_many(
        (system.m.expr, system.wm, system.vtilde, *system.charge.u), xs, env)
    psis = [discrete.wavefunction_from_log_derivative(phi, xs, env)
            for _, _, phi, _ in system.zero_modes]     # ground mode first
    curves = [wm_vals, v_vals, psis[0]]
    header = FIRST_ORDER_HEADER
    if u0:
        # u0, then the modes in the order of their log-derivatives phi1, phi2
        curves += [*u0, *psis[::-1]]
        header = SECOND_ORDER_HEADER
    # each distinct curve is formatted once (at order 2, psi2 is psi0)
    distinct = {id(c): c for c in curves}
    slot = {key: 2 + 2 * k for k, key in enumerate(distinct)}
    table = np.column_stack([xs, m_vals.real] + [
        part for c in distinct.values() for part in (c.real, c.imag)])
    columns = operator.itemgetter(0, 1, *(slot[id(c)] + j for c in curves
                                          for j in (0, 1)))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        # blocks of rows as Python floats, whose repr is the shortest form
        for start in range(0, len(table), 128):
            fh.writelines(",".join(columns([*map(repr, row)])) + "\n"
                          for row in table[start:start + 128].tolist())


# ---------------------------------------------------------------------------
# Built-in paper-example reproduction
# ---------------------------------------------------------------------------

# The paper's worked models: W = exp(i alpha x) - sin x with, per order, the
# sec-type mass that deforms it into W_m = exp(i alpha x), and the SUSY
# constants (order -> (mass, constants))
WORKED_W = "exp(i*alpha*x)-sin(x)"
WORKED_WM = "exp(i*alpha*x)"
WORKED = {1: ("1/4*sec(x)^2", (1.0,)), 2: ("sec(x)", (-3.0, 2.0))}


def paper_examples() -> VerificationReport:
    """Reproduce the worked examples end to end with built-in configs:
    superpotential recovery at both orders, the three u0 routes, the
    general-order reductions, zero-mode Riccati identities, the quadratic
    eigenvalue formula with its reality boundary, and symmetry defects on
    symmetrized windows."""
    checks = []
    wall = {}
    wm_exact = parse(WORKED_WM)

    def worked(order, x_min, x_max, **superpotential) -> ModelSpec:
        mass, constants = WORKED[order]
        return ModelSpec(order=order, mass=MassFn(parse(mass), x_min, x_max),
                         susy_constants=constants, params=ParamEnv(alpha=1.0),
                         **superpotential)

    route_pts = np.linspace(0.05, 1.5, 200)
    with _timed(wall, "systems"):
        systems = {order: _build_system(worked(order, 0.05, 1.5,
                                               superpotential=parse(WORKED_W)))
                   for order in WORKED}

    # 1. mass-deformed superpotential recovery, both orders; W_m does not
    # depend on the mass window, and at alpha = 0 it collapses to 1
    with _timed(wall, "recovery"):
        recovery_pts = np.linspace(0.02, 1.55, 1000)
        for order, system in systems.items():
            for alpha in (0.5, 1.0, 2.0, 0.0):
                residual = _sup_diff(system.wm, wm_exact, recovery_pts,
                                     ParamEnv(alpha=alpha))
                checks.append(_bounded(f"wm_recovery_n{order}_alpha{alpha:g}",
                                       {"residual": residual}, 1e-12))

    # 2. u0 route agreement at order 2: closed form, integrated form, and
    # the worked sec-mass expression, built once per delta and evaluated
    # together once per (alpha, delta)
    with _timed(wall, "u0_routes"):
        u0_example = parse(
            "1/4*sec(x)*exp(2*i*alpha*x) - delta^2/4*cos(x)*exp(-2*i*alpha*x)"
            " + i*alpha/2*exp(i*alpha*x) + alpha^2/4*cos(x)"
            " + 1/4*sin(x)^2*sec(x) - 1/2*sec(x)")
        mass = systems[2].m
        f = susy2.f_aux(wm_exact, mass)
        worst = 0.0
        for delta in (0.5, 1.0):
            l2 = -delta * delta / 4.0          # l1 = 0, so Theta = l2
            routes = (susy2.u0_closed(wm_exact, mass, 0.0, l2),
                      susy2.u0_integrated(f, wm_exact, mass, l2), u0_example)
            for alpha in (0.5, 1.0, 2.0):
                values = evaluate_many(routes, route_pts,
                                       ParamEnv(alpha=alpha, delta=delta))
                worst = max(worst, *(_sup(a, b)
                                     for a, b in combinations(values, 2)))
        checks.append(_bounded("u0_triple_agreement", {"residual": worst},
                               1e-10))

    # 3 + 4. general-order defect and potential reductions
    with _timed(wall, "reductions"):
        worst_dv = max(
            _sup_diff(susyn.delta_v_general(s.wm, s.m, order), s.delta_v,
                      route_pts, s.params) for order, s in systems.items())
        worst_pot = max(
            _sup_diff(susyn.potential_general(
                s.wm, s.m, s.u0 if order == 2 else Const(0.0), order, -s.l1),
                s.vtilde, route_pts, s.params) for order, s in systems.items())
        checks.append(_bounded("delta_v_general_reduction",
                               {"residual": worst_dv}, 1e-10))
        checks.append(_bounded("potential_general_reduction",
                               {"residual": worst_pot}, 1e-10))

    # 5. zero-mode Riccati identities
    with _timed(wall, "riccati"):
        riccati_pts = np.linspace(0.05, 1.5, IDENTITY_SAMPLES)
        for order, label in ((1, "first"), (2, "second")):
            values = _riccati_values(systems[order], riccati_pts)
            checks.append(_bounded(f"riccati_{label}_order",
                                   {"residual": max(values.values())}, 1e-9))

    # 6. quadratic eigenvalues and the reality boundary
    with _timed(wall, "eigenvalues"):
        e0, e1, real_spec = susy2.lowest_eigenvalues(*WORKED[2][1])
        outcome = _bounded("quadratic_eigenvalues",
                           {"residual": max(abs(e0 - 1.0), abs(e1 - 2.0))},
                           1e-12)
        flags = [susy2.lowest_eigenvalues(2.0, l2)[2]
                 for l2 in (1.0, 1.0 - 1e-9, 1.0 + 1e-9)]
        if not real_spec or flags != [True, True, False]:
            outcome.status = "fail"
            outcome.reason = "reality flag did not flip at l1^2 = 4 l2"
        checks.append(outcome)

    # 7. symmetry defects on symmetrized windows
    with _timed(wall, "symmetry"):
        worst_sym = 0.0
        for order in WORKED:
            rep = symmetry_report(worked(order, -1.4, 1.4, deformed=wm_exact))
            worst_sym = max(worst_sym, rep.mass_parity_defect, rep.wm_pt_defect)
        checks.append(_bounded("symmetry_defects", {"residual": worst_sym},
                               DEFAULT_TOLERANCES["symmetry"]))

    max_identity = max(c.values["residual"] for c in checks)
    return VerificationReport(
        model={"built_in": "paper-examples"},
        checks=checks,
        wall_clock_seconds=wall,
        notes=[f"max identity residual {max_identity:.3e}"],
    )


# ---------------------------------------------------------------------------
# Command-line interface
# ---------------------------------------------------------------------------

def _in_stage(exc: Exception) -> str:
    stage = getattr(exc, "stage", None)
    return f" [stage {stage}]" if stage else ""


def _apply_tol_overrides(config: RunConfig, pairs: Sequence[str]) -> RunConfig:
    tolerances = dict(config.tolerances)
    for pair in pairs:
        if "=" not in pair:
            raise ConfigError(f"--tol expects name=value, got '{pair}'")
        name, _, value = pair.partition("=")
        _set_tolerance(tolerances, name, value, f"--tol {name}")
    return dataclasses.replace(config, tolerances=tolerances)


def _report_text(report: VerificationReport) -> str:
    lines = []
    for outcome in report.checks:
        shown = [f"{k}={v}" if isinstance(v, bool) else f"{k}={v:.3e}"
                 for k, v in outcome.values.items()
                 if isinstance(v, (int, float))]
        detail = "  " + ", ".join(shown) if shown else ""
        if outcome.reason:
            detail += f"  ({outcome.reason})"
        lines.append(f"{outcome.status.upper():4s} {outcome.name}{detail}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


@cache         # built on first use, once per process
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pdmsusy",
        description="Construct CPT-conserved position-dependent-mass SUSY "
                    "Hamiltonians and verify their closed-form identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, help, config=True, report=True):
        """A sub-command; --tol is taken where a config's checks run."""
        p = sub.add_parser(name, help=help)
        if config:
            p.add_argument("config", help="JSON run configuration")
        if config and report:
            p.add_argument("--tol", action="append", default=[],
                           metavar="NAME=VALUE", help="override a tolerance")
        if report:
            p.add_argument("--report", default=None, help="report output path")
        p.add_argument("--quiet", action="store_true")
        p.add_argument("-v", "--verbose", action="store_true",
                       help="log stage wall times and eigensolver "
                            "statistics to stderr")
        return p

    add_command("check", "run the configured checks")
    add_command("spectrum", "discrete spectrum of H")
    add_command("curves", "emit plot-ready CSV curves", report=False)
    add_command("paper-examples", "reproduce the built-in worked examples",
                config=False)
    add_command("convergence", "grid-refinement study").add_argument(
        "--refinements", type=int, default=3,
        help="number of grids (spacing halves each time)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    with _logging(args.verbose):
        code, text = _command(args)
    if text and not args.quiet:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # the reader closed stdout early (as "| head" does): the rest
            # is dropped, and so is the interpreter's flush of it at exit
            if sys.stdout is sys.__stdout__:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
    return code


@contextmanager
def _logging(verbose: bool):
    """With verbose, INFO records of the pdmsusy loggers go to stderr for
    the duration of the block; without it nothing changes."""
    if not verbose:
        yield
        return
    logger = logging.getLogger("pdmsusy")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        yield
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def _command(args):
    """Run the parsed command; returns the exit code and the text for
    stdout.  A report file is written before anything is printed."""
    try:
        if args.command == "paper-examples":
            config, path = None, args.report
        else:
            config = load_config(args.config)
            # spectrum, curves and convergence need the closed-form system
            if config.spec.order > 2 and args.command != "check":
                raise ConfigError(f"'{args.command}' supports orders 1 and 2 "
                                  f"only, got order {config.spec.order}")
            if args.command == "curves":
                path = config.output.get("curves", "curves.csv")
            else:
                config = _apply_tol_overrides(config, args.tol)
                refinements = getattr(args, "refinements", 3)
                if refinements < 3:
                    raise ConfigError("--refinements must be >= 3")
                if args.command != "check":     # one registry check
                    config = dataclasses.replace(config, checks=(args.command,))
                path = args.report or config.output.get("report")
        if path:    # unwritable fails before the run; the path stays as it was
            existed = os.path.lexists(path)
            open(path, "a", encoding="utf-8").close()
            if not existed:
                os.remove(path)
        if args.command == "curves":
            wall = {}
            with _timed(wall, "system"):
                system = _build_system(config.spec)
            with _timed(wall, "curves"):
                emit_curves(system, config.grid, path)
            return 0, f"curves written to {path}"
        report = paper_examples() if config is None else run(config, refinements)
        if path:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(report.to_json() + "\n")
        return (0 if report.passed else 1), _report_text(report)

    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2, ""
    except SingularPointError as exc:
        print(f"numerical failure{_in_stage(exc)}: {exc}", file=sys.stderr)
        return 3, ""
    except (MassError, DomainError, ModelError) as exc:
        print(f"configuration error{_in_stage(exc)}: {exc}", file=sys.stderr)
        return 2, ""
    except (EvaluationError, discrete.DiscreteError) as exc:
        print(f"numerical failure{_in_stage(exc)}: {exc}", file=sys.stderr)
        return 3, ""
    except MemoryError as exc:  # an array larger than the memory left
        print(f"numerical failure{_in_stage(exc)}: "
              f"{str(exc) or 'out of memory'}", file=sys.stderr)
        return 3, ""
    except OSError as exc:      # a report or curves file that cannot be written
        print(f"configuration error: output file unwritable: {exc}",
              file=sys.stderr)
        return 2, ""


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
