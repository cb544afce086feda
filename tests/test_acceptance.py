"""Acceptance battery: one test per criterion, each printing a PASS/FAIL
line with its measured value and enforcing the stated tolerance and
runtime budget."""

import time

import numpy as np

from conftest import interior, random_pt_model, sup_diff

from pdmsusy import (Grid, MassFn, ModelSpec, assemble_charge,
                     assemble_hamiltonian, constraint_residuals,
                     convergence_study, lowest_levels,
                     mass_deformed_superpotential, parse, pt_image,
                     riccati_residual)
from pdmsusy.cli import main as cli_main
from pdmsusy.expr import Const, ParamEnv, differentiate, evaluate_many
from pdmsusy.susy1 import build_first_order
from pdmsusy.susy2 import (build_second_order, f_aux, lowest_eigenvalues,
                           u0_closed, u0_integrated)
from pdmsusy.susyn import (delta_u_coefficients, delta_v_general, energy_roots,
                           potential_general)


class Criterion:
    def __init__(self, number, budget_seconds):
        self.number = number
        self.budget = budget_seconds
        self.start = time.perf_counter()

    def finish(self, measured, bound, detail=""):
        elapsed = time.perf_counter() - self.start
        ok = measured <= bound and elapsed < self.budget
        status = "PASS" if ok else "FAIL"
        print(f"CRITERION {self.number}: {status} "
              f"(measured {measured:.3e} vs {bound:.0e}, "
              f"{elapsed:.1f}s of {self.budget:.0f}s){detail and '  ' + detail}")
        assert measured <= bound, \
            f"criterion {self.number}: {measured:.6e} > {bound:.0e} {detail}"
        assert elapsed < self.budget, \
            f"criterion {self.number}: {elapsed:.1f}s over budget"


def test_criterion_1_superpotential_deformation():
    crit = Criterion(1, 1.0)
    xs = np.linspace(0.02, 1.55, 1000)
    target = parse("exp(i*alpha*x)")
    worst = 0.0
    for order, mass_source in ((1, "1/4*sec(x)^2"), (2, "sec(x)")):
        mass = MassFn(parse(mass_source), 0.02, 1.55)
        wm = mass_deformed_superpotential(parse("exp(i*alpha*x)-sin(x)"),
                                          mass, order)
        for alpha in (0.5, 1.0, 2.0):
            env = ParamEnv(alpha=alpha)
            diff = np.abs(evaluate_many(wm, xs, env)
                          - evaluate_many(target, xs, env))
            worst = max(worst, float(np.max(diff)))
    crit.finish(worst, 1e-12)


def test_criterion_2_u0_triple_agreement():
    crit = Criterion(2, 1.0)
    mass = MassFn(parse("sec(x)"), 0.05, 1.5)
    wm = parse("exp(i*alpha*x)")
    worked = parse(
        "1/4*sec(x)*exp(2*i*alpha*x) - delta^2/4*cos(x)*exp(-2*i*alpha*x)"
        " + i*alpha/2*exp(i*alpha*x) + alpha^2/4*cos(x)"
        " + 1/4*sin(x)^2*sec(x) - 1/2*sec(x)")
    f = f_aux(wm, mass)
    xs = np.linspace(0.05, 1.5, 200)
    worst = 0.0
    for alpha in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0):
            env = ParamEnv(alpha=alpha, delta=delta)
            l1, l2 = 0.0, -delta * delta / 4.0
            closed = evaluate_many(u0_closed(wm, mass, l1, l2), xs, env)
            theta = l2 - l1 * l1 / 4.0
            integ = evaluate_many(u0_integrated(f, wm, mass, theta), xs, env)
            example = evaluate_many(worked, xs, env)
            worst = max(worst,
                        float(np.max(np.abs(closed - integ))),
                        float(np.max(np.abs(closed - example))),
                        float(np.max(np.abs(integ - example))))
    crit.finish(worst, 1e-10)


def test_criterion_3_pt_defect_identities():
    crit = Criterion(3, 5.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    for k in range(20):
        order = 1 if k % 2 == 0 else 2
        spec = random_pt_model(rng, order)
        xs = interior(spec, 60)
        wm = spec.wm()
        if order == 1:
            system = build_first_order(spec)
            worst = max(worst, sup_diff(system.vtilde - pt_image(system.vtilde),
                                        system.delta_v, xs))
        else:
            system = build_second_order(spec)
            worst = max(worst, sup_diff(system.u0 - pt_image(system.u0),
                                        differentiate(wm), xs))
            mx = spec.mass.expr
            closed = 2 * differentiate(wm) + (differentiate(mx) / mx) * wm
            worst = max(worst, sup_diff(system.vtilde - pt_image(system.vtilde),
                                        closed, xs))
            # order-2 reduction of the general coefficient defect
            du, _ = delta_u_coefficients(wm, spec.mass, 2)
            worst = max(worst, sup_diff(du, differentiate(wm), xs))
    crit.finish(worst, 1e-10)


def test_criterion_4_general_order_reductions():
    crit = Criterion(4, 5.0)
    rng = np.random.default_rng(103)
    worst = 0.0
    for k in range(20):
        order = 1 if k % 2 == 0 else 2
        spec = random_pt_model(rng, order)
        xs = interior(spec, 60)
        wm = spec.wm()
        mx = spec.mass.expr
        general_dv = delta_v_general(wm, spec.mass, order)
        if order == 1:
            system = build_first_order(spec)
            closed_dv = system.delta_v
            general_pot = potential_general(wm, spec.mass, Const(0.0), 1,
                                            -spec.susy_constants[0])
        else:
            system = build_second_order(spec)
            closed_dv = 2 * differentiate(wm) + (differentiate(mx) / mx) * wm
            general_pot = potential_general(wm, spec.mass, system.u0, 2,
                                            -spec.susy_constants[0])
        worst = max(worst, sup_diff(general_dv, closed_dv, xs))
        worst = max(worst, sup_diff(general_pot, system.vtilde, xs))
    crit.finish(worst, 1e-10)


def test_criterion_5_zero_mode_riccati():
    crit = Criterion(5, 5.0)
    worst = 0.0

    worked1 = ModelSpec(order=1, mass=MassFn(parse("1/4*sec(x)^2"), 0.05, 1.5),
                       superpotential=parse("exp(i*alpha*x)-sin(x)"),
                       susy_constants=(1.0,), params=ParamEnv(alpha=1.0))
    sys1 = build_first_order(worked1)
    xs = np.linspace(0.05, 1.5, 100)
    worst = max(worst, riccati_residual(worked1.mass, sys1.vtilde, sys1.phi0,
                                        sys1.e0, xs, worked1.params))

    worked2 = ModelSpec(order=2, mass=MassFn(parse("sec(x)"), 0.05, 1.5),
                       superpotential=parse("exp(i*alpha*x)-sin(x)"),
                       susy_constants=(-3.0, 2.0), params=ParamEnv(alpha=1.0))
    sys2 = build_second_order(worked2)
    worst = max(worst, riccati_residual(worked2.mass, sys2.vtilde, sys2.phi2,
                                        sys2.e0, xs, worked2.params))
    worst = max(worst, riccati_residual(worked2.mass, sys2.vtilde, sys2.phi1,
                                        sys2.e1, xs, worked2.params))

    rng = np.random.default_rng(107)
    for k in range(20):
        order = 1 if k % 2 == 0 else 2
        spec = random_pt_model(rng, order)
        samples = interior(spec, 100)
        if order == 1:
            system = build_first_order(spec)
            worst = max(worst, riccati_residual(
                spec.mass, system.vtilde, system.phi0, system.e0, samples))
        else:
            system = build_second_order(spec)
            worst = max(worst, riccati_residual(
                spec.mass, system.vtilde, system.phi2, system.e0, samples))
            worst = max(worst, riccati_residual(
                spec.mass, system.vtilde, system.phi1, system.e1, samples))
    crit.finish(worst, 1e-9)


def test_criterion_6_eigenvalue_formulas():
    crit = Criterion(6, 10.0)
    rng = np.random.default_rng(109)
    worst = 0.0

    for _ in range(1000):
        l1 = rng.uniform(-5.0, 5.0)
        l2 = rng.uniform(-5.0, 5.0)
        e0, e1, _ = lowest_eigenvalues(l1, l2)
        r0, r1 = energy_roots([l1, l2]).roots
        # best matching (sorting by (Re, Im) can flip ties between the
        # members of a conjugate pair)
        direct = max(abs(e0 - r0), abs(e1 - r1))
        crossed = max(abs(e0 - r1), abs(e1 - r0))
        worst = max(worst, min(direct, crossed))

    flag_ok = True
    for l1 in (-4.0, -1.0, 0.0, 2.5):
        boundary = l1 * l1 / 4.0
        flag_ok &= lowest_eigenvalues(l1, boundary)[2]
        flag_ok &= lowest_eigenvalues(l1, boundary - 1e-10)[2]
        flag_ok &= not lowest_eigenvalues(l1, boundary + 1e-10)[2]
    assert flag_ok, "reality flag did not flip exactly at l1^2 = 4 l2"

    real_root_ok = True
    for n in (3, 5, 7):
        for _ in range(100):
            poly = energy_roots(list(rng.uniform(-5.0, 5.0, size=n)))
            real_root_ok &= min(abs(r.imag) for r in poly.roots) <= 1e-9
    assert real_root_ok, "odd order lost its real root"
    crit.finish(worst, 1e-12)


def _synthetic_operators(grid):
    spec = ModelSpec(order=1,
                     mass=MassFn(parse("1/(1+x^2)"), grid.x_min, grid.x_max),
                     deformed=parse("x^2+i*x"), susy_constants=(1.0,))
    system = build_first_order(spec)
    H = assemble_hamiltonian(spec.mass, system.vtilde, grid, spec.params)
    C = assemble_charge(system.charge, grid, spec.params)
    return H, C, spec


def test_criterion_7_constraint_residual_convergence():
    crit = Criterion(7, 60.0)

    def residual_fn(grid):
        H, C, spec = _synthetic_operators(grid)
        return constraint_residuals(H, C, spec.susy_constants)

    grids = [Grid(-6.0, 6.0, n) for n in (201, 401, 801)]
    study = convergence_study(residual_fn, grids)
    orders = {name: study[name].order for name in ("pseudo", "cpt", "susy")}
    worst = max(abs(order - 2.0) for order in orders.values())
    detail = " ".join(f"{k}={v:.3f}" for k, v in orders.items())
    crit.finish(worst, 0.3, detail)


def test_criterion_8_cpt_spectral_property():
    # imported here, so that the other criteria do not depend on it
    from pdmsusy import conjugate_pairing_distance, susy_algebra_spectrum
    crit = Criterion(8, 30.0)
    grid = Grid(-8.0, 8.0, 601)
    _, C, _ = _synthetic_operators(grid)
    distance = conjugate_pairing_distance(susy_algebra_spectrum(C))
    crit.finish(distance, 1e-6)


def test_criterion_9_eigensolver_sanity():
    crit = Criterion(9, 30.0)
    grid = Grid(-10.0, 10.0, 1001)
    mass = MassFn(parse("1"), -10.0, 10.0)
    H = assemble_hamiltonian(mass, parse("x^2"), grid)
    s = lowest_levels(H)
    lows = s.values[:5]
    targets = np.array([1.0, 3.0, 5.0, 7.0, 9.0])
    worst = float(np.max(np.abs(lows.real - targets)))
    # The 3-point stencil error for the fifth level is (h^2/12)<x^4> with
    # <x^4> = 30.75 at this grid, i.e. 1.025e-3: intrinsically above the
    # 1e-3 budget.  Kept at the stated bound; expected to fail on that level.
    crit.finish(worst, 1e-3, f"levels {lows.real}")


def test_criterion_10_paper_examples_command(capsys):
    crit = Criterion(10, 120.0)
    code = cli_main(["paper-examples", "--quiet"])
    crit.finish(float(code), 0.0, "exit code")
