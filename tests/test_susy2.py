"""Second-order pipeline: auxiliary f, the two u0 routes, the potential,
zero modes and the quadratic eigenvalue formula."""

import cmath
import math

import numpy as np
import pytest

from conftest import interior, random_pt_model, sup_diff

from pdmsusy import MassFn, ModelSpec, parse, pt_image, riccati_residual
from pdmsusy.expr import Const, ParamEnv, differentiate, evaluate
from pdmsusy.susy2 import (SingularPointError, build_second_order, f_aux,
                           lowest_eigenvalues, potential_second_order,
                           scan_superpotential_zeros, u0_closed, u0_integrated,
                           zero_mode_logderivs)


def worked_spec(l1=-3.0, l2=2.0, alpha=1.0, domain=(0.05, 1.5)):
    return ModelSpec(order=2, mass=MassFn(parse("sec(x)"), *domain),
                     superpotential=parse("exp(i*alpha*x)-sin(x)"),
                     susy_constants=(l1, l2), params=ParamEnv(alpha=alpha))


def flat_spec(wm="0.8", l=(0.0, 0.0)):
    return ModelSpec(order=2, mass=MassFn(parse("1"), -2.0, 2.0),
                     deformed=parse(wm), susy_constants=l)


# ---------------------------------------------------------------------------
# f
# ---------------------------------------------------------------------------

def test_f_constant_superpotential():
    spec = flat_spec()
    f = f_aux(spec.wm(), spec.mass)
    assert sup_diff(f, Const(0.32), interior(spec, 20)) <= 1e-15


def test_f_value_at_origin_for_sec_mass():
    f = f_aux(parse("exp(i*x)"), MassFn(parse("sec(x)"), 0.05, 1.5))
    # m(0)=1, m'(0)=0, W_m'(0)=i: f(0) = (1 - 0 - i)/2
    assert abs(evaluate(f, 0.0) - (0.5 - 0.5j)) < 1e-12


def test_f_vanishes_for_zero_superpotential():
    f = f_aux(Const(0.0), MassFn(parse("sec(x)"), 0.05, 1.5))
    assert f == Const(0.0)


# ---------------------------------------------------------------------------
# u0: closed and integrated routes
# ---------------------------------------------------------------------------

def test_u0_closed_value_at_origin():
    u0 = u0_closed(parse("exp(i*alpha*x)"), MassFn(parse("sec(x)"), 0.05, 1.5),
                   l1=0.0, l2=-0.25)   # delta = 1
    assert abs(evaluate(u0, 0.0, ParamEnv(alpha=1.0)) - (-0.25 + 0.5j)) < 1e-12


def test_u0_constant_case():
    spec = flat_spec()
    u0 = u0_closed(spec.wm(), spec.mass, 0.0, 0.0)
    assert sup_diff(u0, Const(0.16), interior(spec, 20)) <= 1e-15
    f = f_aux(spec.wm(), spec.mass)
    u0i = u0_integrated(f, spec.wm(), spec.mass, 0.0)
    assert sup_diff(u0i, Const(0.16), interior(spec, 20)) <= 1e-15


def test_u0_worked_expression_agreement():
    mass = MassFn(parse("sec(x)"), 0.05, 1.5)
    wm = parse("exp(i*alpha*x)")
    worked = parse(
        "1/4*sec(x)*exp(2*i*alpha*x) - delta^2/4*cos(x)*exp(-2*i*alpha*x)"
        " + i*alpha/2*exp(i*alpha*x) + alpha^2/4*cos(x)"
        " + 1/4*sin(x)^2*sec(x) - 1/2*sec(x)")
    xs = np.linspace(0.05, 1.5, 200)
    for alpha in (0.5, 1.0, 2.0):
        for delta in (0.5, 1.0):
            env = ParamEnv(alpha=alpha, delta=delta)
            u0 = u0_closed(wm, mass, 0.0, -delta * delta / 4.0)
            assert sup_diff(u0, worked, xs, env) <= 1e-10


def test_u0_route_equivalence_on_random_models():
    rng = np.random.default_rng(17)
    for _ in range(8):
        spec = random_pt_model(rng, 2)
        l1, l2 = spec.susy_constants
        closed = u0_closed(spec.wm(), spec.mass, l1, l2)
        f = f_aux(spec.wm(), spec.mass)
        theta = l2 - l1 * l1 / 4.0
        integrated = u0_integrated(f, spec.wm(), spec.mass, theta)
        assert sup_diff(closed, integrated, interior(spec, 60)) <= 1e-10


def test_u0_theta_shift_is_linear():
    spec = worked_spec()
    f = f_aux(spec.wm(), spec.mass)
    base = u0_integrated(f, spec.wm(), spec.mass, 0.3)
    shifted = u0_integrated(f, spec.wm(), spec.mass, 1.3)
    gap = parse("cos(x)*exp(-2*i*alpha*x)")   # 1/(m W_m^2) for the worked model
    xs = interior(spec, 50)
    assert sup_diff(shifted - base, gap, xs, spec.params) <= 1e-12


def test_u0_pt_defect_identity():
    rng = np.random.default_rng(29)
    for _ in range(8):
        spec = random_pt_model(rng, 2)
        l1, l2 = spec.susy_constants
        u0 = u0_closed(spec.wm(), spec.mass, l1, l2)
        defect = u0 - pt_image(u0)
        assert sup_diff(defect, differentiate(spec.wm()),
                        interior(spec, 60)) <= 1e-10


# ---------------------------------------------------------------------------
# potential
# ---------------------------------------------------------------------------

def test_potential_constant_case():
    spec = flat_spec()
    vt = potential_second_order(spec.wm(), spec.mass, Const(0.16), 0.0)
    assert sup_diff(vt, Const(0.16), interior(spec, 20)) <= 1e-15


def test_potential_value_at_origin_worked_model():
    system = build_second_order(worked_spec())
    assert abs(evaluate(system.vtilde, 0.0, system.params) - (2.25 + 1j)) < 1e-11


def test_potential_pt_defect_identity():
    rng = np.random.default_rng(31)
    for _ in range(8):
        spec = random_pt_model(rng, 2)
        system = build_second_order(spec)
        defect = system.vtilde - pt_image(system.vtilde)
        mx = spec.mass.expr
        closed = 2 * differentiate(system.wm) + (differentiate(mx) / mx) * system.wm
        assert sup_diff(defect, closed, interior(spec, 60)) <= 1e-10


def test_alternate_form_identity():
    # PT(Vtilde) + u0 = f - l1/2
    rng = np.random.default_rng(37)
    for _ in range(8):
        spec = random_pt_model(rng, 2)
        system = build_second_order(spec)
        lhs = pt_image(system.vtilde) + system.u0
        rhs = system.f - Const(system.l1 / 2.0)
        assert sup_diff(lhs, rhs, interior(spec, 60)) <= 1e-10


# ---------------------------------------------------------------------------
# zero modes and eigenvalues
# ---------------------------------------------------------------------------

def test_zero_modes_degenerate_delta():
    spec = flat_spec()
    phi1, phi2 = zero_mode_logderivs(spec.wm(), spec.mass, 0.0)
    xs = interior(spec, 20)
    assert sup_diff(phi1, Const(0.4), xs) <= 1e-15
    assert sup_diff(phi2, Const(0.4), xs) <= 1e-15


def test_zero_mode_riccati_worked_example():
    system = build_second_order(worked_spec())
    xs = np.linspace(0.05, 1.5, 100)
    r0 = riccati_residual(system.m, system.vtilde, system.phi2, system.e0, xs,
                          system.params)
    r1 = riccati_residual(system.m, system.vtilde, system.phi1, system.e1, xs,
                          system.params)
    assert max(r0, r1) <= 1e-9


def test_riccati_residual_of_both_modes_in_one_call():
    # one evaluation of both modes gives each mode's residual bit for bit
    system = build_second_order(worked_spec())
    xs = np.linspace(0.05, 1.5, 100)
    single = [riccati_residual(system.m, system.vtilde, phi, e, xs,
                               system.params)
              for phi, e in ((system.phi2, system.e0), (system.phi1, system.e1))]
    both = riccati_residual(system.m, system.vtilde, (system.phi2, system.phi1),
                            (system.e0, system.e1), xs, system.params)
    assert isinstance(both, tuple)
    assert [r.hex() for r in both] == [r.hex() for r in single]


def test_zero_mode_riccati_shift_detection():
    system = build_second_order(worked_spec())
    xs = np.linspace(0.05, 1.5, 100)
    r = riccati_residual(system.m, system.vtilde, system.phi1,
                         system.e1 + 0.5, xs, system.params)
    assert abs(r - 0.5) <= 1e-9


def test_delta_sign_flip_swaps_modes():
    spec = worked_spec()
    phi1, phi2 = zero_mode_logderivs(spec.wm(), spec.mass, 1.0)
    phi1_flipped, phi2_flipped = zero_mode_logderivs(spec.wm(), spec.mass, -1.0)
    assert phi1 is phi2_flipped
    assert phi2 is phi1_flipped


def test_lowest_eigenvalues_examples():
    e0, e1, real_spec = lowest_eigenvalues(-3.0, 2.0)
    assert (e0, e1, real_spec) == (1.0 + 0j, 2.0 - 0j, True) or \
           (abs(e0 - 1) < 1e-15 and abs(e1 - 2) < 1e-15 and real_spec)

    e0, e1, real_spec = lowest_eigenvalues(0.0, 1.0)
    assert abs(e0 - (-1j)) < 1e-15 and abs(e1 - 1j) < 1e-15
    assert not real_spec

    e0, e1, real_spec = lowest_eigenvalues(2.0, 1.0)
    assert e0 == e1 == -1.0 and real_spec


def test_quadratic_residual_over_random_draws():
    rng = np.random.default_rng(41)
    for _ in range(1000):
        l1 = rng.uniform(-5, 5)
        l2 = rng.uniform(-5, 5)
        e0, e1, _ = lowest_eigenvalues(l1, l2)
        for e in (e0, e1):
            assert abs(e * e + l1 * e + l2) <= 1e-12 * max(1.0, abs(e) ** 2)


def test_reality_flag_flips_exactly_at_boundary():
    for l1 in (-2.0, 0.5, 3.0):
        boundary = l1 * l1 / 4.0
        assert lowest_eigenvalues(l1, boundary)[2]
        assert lowest_eigenvalues(l1, boundary - 1e-12)[2]
        assert not lowest_eigenvalues(l1, boundary + 1e-12)[2]


def test_principal_branch_for_broken_reality():
    # negative radicand: branch with positive imaginary part
    assert cmath.sqrt(-4 + 0j) == 2j
    e0, e1, real_spec = lowest_eigenvalues(0.0, 4.0)
    assert e0 == -2j and e1 == 2j and not real_spec


def test_superpotential_zero_scan():
    spec = ModelSpec(order=2, mass=MassFn(parse("1"), -1.0, 1.0),
                     deformed=parse("x"), susy_constants=(0.0, 0.0))
    with pytest.raises(SingularPointError, match="W_m vanishes"):
        build_second_order(spec)
    # the points are listed in input order
    with pytest.raises(SingularPointError) as err:
        scan_superpotential_zeros(parse("x*(x-0.5)"), [0.5, 0.25, 0.0, -0.5])
    assert err.value.points == (0.5, 0.0)
