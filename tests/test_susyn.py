"""General-order formulas: reductions to the first/second-order pipelines,
PT defects of the charge coefficients, and the energy polynomial."""

import numpy as np
import pytest

from conftest import interior, random_pt_model, sup_diff

from pdmsusy import MassFn, ModelError, ModelSpec, parse
from pdmsusy.expr import Const, differentiate, evaluate
from pdmsusy.susy1 import build_first_order
from pdmsusy.susy2 import build_second_order, lowest_eigenvalues
from pdmsusy.susyn import (NthOrderCoefficients, delta_u_coefficients,
                           delta_v_general, energy_roots, potential_general,
                           residual_scale)


def test_delta_v_reduces_to_first_order():
    rng = np.random.default_rng(53)
    for _ in range(5):
        spec = random_pt_model(rng, 1)
        system = build_first_order(spec)
        general = delta_v_general(system.wm, spec.mass, 1)
        assert sup_diff(general, system.delta_v, interior(spec, 60)) <= 1e-12


def test_delta_v_reduces_to_second_order():
    rng = np.random.default_rng(59)
    for _ in range(5):
        spec = random_pt_model(rng, 2)
        wm = spec.wm()
        mx = spec.mass.expr
        general = delta_v_general(wm, spec.mass, 2)
        closed = 2 * differentiate(wm) + (differentiate(mx) / mx) * wm
        assert sup_diff(general, closed, interior(spec, 60)) <= 1e-12


def test_delta_v_third_order_self_consistency():
    # evaluate the formula as one tree and rebuilt term by term numerically
    mass = MassFn(parse("1/(1+x^2)"), -2.0, 2.0)
    wm = parse("x^2+i*x")
    tree = delta_v_general(wm, mass, 3)
    x = 1.0
    m = 1.0 / (1.0 + x * x)
    dm = -2.0 * x / (1.0 + x * x) ** 2
    wmv = x * x + 1j * x
    dwm = 2.0 * x + 1j
    expected = (m ** 1.5 / m ** 2) * (2.0 * m * dwm + 2.0 * dm * wmv)
    assert abs(evaluate(tree, x) - expected) <= 1e-12


def test_potential_general_reduces_to_first_order():
    rng = np.random.default_rng(61)
    for _ in range(5):
        spec = random_pt_model(rng, 1)
        system = build_first_order(spec)
        general = potential_general(system.wm, spec.mass, Const(0.0), 1,
                                    -spec.susy_constants[0])
        assert sup_diff(general, system.vtilde, interior(spec, 60)) <= 1e-10


def test_potential_general_reduces_to_second_order():
    rng = np.random.default_rng(67)
    for _ in range(5):
        spec = random_pt_model(rng, 2)
        system = build_second_order(spec)
        general = potential_general(system.wm, spec.mass, system.u0, 2,
                                    -spec.susy_constants[0])
        assert sup_diff(general, system.vtilde, interior(spec, 60)) <= 1e-10


def test_potential_general_constant_case():
    mass = MassFn(parse("1"), -1.0, 1.0)
    wm = parse("0.8")
    vt = potential_general(wm, mass, Const(0.16), 2, 0.0)
    xs = np.linspace(-0.9, 0.9, 11)
    assert sup_diff(vt, Const(0.16), xs) <= 1e-15


def test_delta_u_reduction_to_second_order():
    wm = parse("1 + i*sin(x)")
    mass = MassFn(parse("1/(1+x^2)"), -1.5, 1.5)
    first, second = delta_u_coefficients(wm, mass, 2)
    assert first == differentiate(wm)
    assert second is None


def test_delta_u_third_order_examples():
    mass = MassFn(parse("1"), -2.0, 2.0)
    first, second = delta_u_coefficients(parse("i*x"), mass, 3, parse("5"))
    assert abs(evaluate(first, 0.3) - 2j) == 0.0
    assert evaluate(second, 0.3) == 0.0
    with pytest.raises(ModelError):
        delta_u_coefficients(parse("i*x"), mass, 1)


def test_coefficient_container_validation():
    mass = MassFn(parse("1"), -1.0, 1.0)
    with pytest.raises(ModelError, match="u must have"):
        NthOrderCoefficients(n=2, lead=parse("1"), sub=parse("x"), u=())
    coeffs = NthOrderCoefficients(n=3, lead=parse("1"), sub=parse("x"),
                                  u=(None, parse("x")))
    assert coeffs.u[0] is None


def test_energy_roots_quadratic_matches_closed_form():
    poly = energy_roots([-3.0, 2.0])
    e0, e1, _ = lowest_eigenvalues(-3.0, 2.0)
    expected = sorted([e0, e1], key=lambda z: (z.real, z.imag))
    for root, ref in zip(poly.roots, expected):
        assert abs(root - ref) <= 1e-12


def test_energy_roots_cubic():
    poly = energy_roots([-6.0, 11.0, -6.0])
    for root, ref in zip(poly.roots, (1.0, 2.0, 3.0)):
        assert abs(root - ref) <= 1e-9


def test_residual_scale_saturates_instead_of_raising():
    assert residual_scale(0.5j, 3) == 1.0
    assert residual_scale(-2.0, 3) == 8.0
    assert residual_scale(-1e120, 3) == np.inf     # 1e360 overflows
    assert residual_scale(complex(np.nan, 1.0), 2) == np.inf
    poly = energy_roots([1e120, 1.0, 1.0])          # so the contract holds
    assert abs(poly.roots[0] + 1e120) <= 1e-9 * 1e120


def test_odd_order_keeps_a_real_root():
    rng = np.random.default_rng(71)
    for _ in range(100):
        coeffs = rng.uniform(-5.0, 5.0, size=3)
        poly = energy_roots(list(coeffs))
        assert min(abs(r.imag) for r in poly.roots) <= 1e-9


def test_high_degree_composition_residual():
    rng = np.random.default_rng(73)
    for n in (8, 12):
        coeffs = list(rng.uniform(-2.0, 2.0, size=n))
        poly = energy_roots(coeffs)   # the residual contract is validated
        assert len(poly.roots) == n   # on construction
