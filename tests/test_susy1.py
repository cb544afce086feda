"""First-order pipeline: potential, PT defect, charge coefficients and the
zero-mode Riccati identity."""

import math

import numpy as np
import pytest

from conftest import interior, random_pt_model, sup_diff

from pdmsusy import (Grid, MassFn, ModelError, ModelSpec,
                     assemble_charge, assemble_hamiltonian, constraint_residuals,
                     parse, pt_image, riccati_residual)
from pdmsusy.expr import Const, ParamEnv, evaluate
from pdmsusy.susy1 import build_first_order


def worked_spec(l1=1.0, alpha=1.0, domain=(0.05, 1.5)):
    return ModelSpec(order=1, mass=MassFn(parse("1/4*sec(x)^2"), *domain),
                     superpotential=parse("exp(i*alpha*x)-sin(x)"),
                     susy_constants=(l1,), params=ParamEnv(alpha=alpha))


def test_constant_superpotential_system():
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -2.0, 2.0),
                     deformed=parse("0.8"), susy_constants=(0.0,))
    system = build_first_order(spec)
    xs = interior(spec, 30)
    assert sup_diff(system.vtilde, Const(0.64), xs) <= 1e-15
    assert sup_diff(system.phi0, Const(0.8), xs) <= 1e-15
    assert riccati_residual(spec.mass, system.vtilde, system.phi0, system.e0,
                            xs) <= 1e-12


def test_imaginary_linear_superpotential_potential():
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -2.0, 2.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))
    system = build_first_order(spec)
    xs = interior(spec, 40)
    assert sup_diff(system.vtilde, parse("-x^2 + i"), xs) <= 1e-14


def test_worked_delta_v_value_at_pi_over_four():
    system = build_first_order(worked_spec())
    value = evaluate(system.delta_v, math.pi / 4, system.params)
    expected = 2 * math.sqrt(2) * 1j * complex(math.cos(math.pi / 4),
                                               math.sin(math.pi / 4))
    assert abs(value - expected) < 1e-12
    assert abs(value - (-2 + 2j)) < 1e-12


def test_charge_coefficients():
    flat = ModelSpec(order=1, mass=MassFn(parse("1"), -1.0, 1.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))
    coeffs = build_first_order(flat).charge
    xs = interior(flat, 20)
    assert sup_diff(coeffs.lead, Const(1.0), xs) == 0.0
    assert sup_diff(coeffs.sub, flat.wm(), xs) == 0.0

    spec = worked_spec()
    coeffs = build_first_order(spec).charge
    xs = interior(spec, 40)
    assert sup_diff(coeffs.lead, parse("2*cos(x)"), xs, spec.params) <= 1e-13
    assert sup_diff(coeffs.sub, parse("exp(i*alpha*x)-sin(x)"), xs,
                    spec.params) <= 1e-13

    heavy = ModelSpec(order=1, mass=MassFn(parse("4"), -1.0, 1.0),
                      deformed=parse("i*x"), susy_constants=(0.0,))
    coeffs = build_first_order(heavy).charge
    assert sup_diff(coeffs.lead, Const(0.5), xs=interior(heavy, 10)) == 0.0
    assert sup_diff(coeffs.sub, heavy.wm(), xs=interior(heavy, 10)) == 0.0


def test_order_mismatch_rejected():
    spec = ModelSpec(order=2, mass=MassFn(parse("1"), -1.0, 1.0),
                     deformed=parse("i*x+1"), susy_constants=(0.0, 0.0))
    with pytest.raises(ModelError):
        build_first_order(spec)


def test_riccati_on_worked_example():
    spec = worked_spec()
    system = build_first_order(spec)
    xs = np.linspace(0.05, 1.5, 100)
    assert riccati_residual(spec.mass, system.vtilde, system.phi0, system.e0,
                            xs, spec.params) <= 1e-9


def test_riccati_detects_shifted_potential():
    spec = worked_spec()
    system = build_first_order(spec)
    shifted = system.vtilde + Const(0.1)
    xs = np.linspace(0.05, 1.5, 100)
    r = riccati_residual(spec.mass, shifted, system.phi0, system.e0, xs,
                         spec.params)
    assert abs(r - 0.1) <= 1e-9


def test_delta_v_identity_on_random_models():
    rng = np.random.default_rng(5)
    for _ in range(5):
        spec = random_pt_model(rng, 1)
        system = build_first_order(spec)
        defect = system.vtilde - pt_image(system.vtilde)
        xs = interior(spec, 60)
        assert sup_diff(defect, system.delta_v, xs) <= 1e-10


def test_integration_constant_fixing_is_visible_discretely():
    # zeta zeta* - (H + l1) converges only with the -l1 constant in the
    # potential; with the constant dropped the residual stalls near a
    # nonzero level instead
    spec = ModelSpec(order=1, mass=MassFn(parse("1/(1+x^2)"), -6.0, 6.0),
                     deformed=parse("x^2+i*x"), susy_constants=(1.0,))
    system = build_first_order(spec)
    coeffs = system.charge
    wrong_vtilde = system.vtilde + Const(spec.susy_constants[0])   # Lambda = 0

    def residuals(vt):
        out = []
        for n in (201, 401, 801):
            g = Grid(-6.0, 6.0, n)
            H = assemble_hamiltonian(spec.mass, vt, g, spec.params)
            C = assemble_charge(coeffs, g, spec.params)
            out.append(constraint_residuals(H, C, spec.susy_constants)["susy"])
        return out

    good = residuals(system.vtilde)
    bad = residuals(wrong_vtilde)
    assert good[0] / good[2] > 10.0          # order ~2 decay
    assert bad[2] > 10 * good[2]             # stalls well above
    assert bad[0] / bad[2] < 1.5             # and barely decays
