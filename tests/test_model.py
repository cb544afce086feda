"""Mass deformation, ordering term, parity/PT images and symmetry measures."""

import math

import numpy as np
import pytest

from conftest import random_pt_model, sup_diff

from pdmsusy import (DomainError, MassError, MassFn, ModelError, ModelSpec,
                     chebyshev_points, constant_mass_superpotential,
                     mass_deformed_superpotential, parse,
                     pt_image, rho, symmetry_report)
from pdmsusy.expr import Const, ParamEnv, PoleError, evaluate, evaluate_many


def test_deformation_recovers_periodic_superpotential_first_order():
    mass = MassFn(parse("1/4*sec(x)^2"), 0.01, 1.55)
    wm = mass_deformed_superpotential(parse("exp(i*alpha*x)-sin(x)"), mass, 1)
    env = ParamEnv(alpha=1.0)
    target = parse("exp(i*alpha*x)")
    xs = np.linspace(0.01, 1.55, 400)
    assert sup_diff(wm, target, xs, env) <= 1e-12


def test_deformation_recovers_periodic_superpotential_second_order():
    mass = MassFn(parse("sec(x)"), 0.01, 1.55)
    wm = mass_deformed_superpotential(parse("exp(i*alpha*x)-sin(x)"), mass, 2)
    env = ParamEnv(alpha=1.0)
    xs = np.linspace(0.01, 1.55, 400)
    assert sup_diff(wm, parse("exp(i*alpha*x)"), xs, env) <= 1e-12


def test_deformation_with_constant_mass_is_identity():
    mass = MassFn(parse("1"), -2.0, 2.0)
    w = parse("x^2 + i*sin(x)")
    assert mass_deformed_superpotential(w, mass, 1) == w
    assert mass_deformed_superpotential(w, mass, 5) == w


def test_deformation_inversion_round_trip():
    rng = np.random.default_rng(3)
    for order in (1, 2, 3):
        spec = random_pt_model(rng, min(order, 2))
        mass = spec.mass
        w = parse("x^2 + i*x")
        wm = mass_deformed_superpotential(w, mass, order)
        back = constant_mass_superpotential(wm, mass, order)
        xs = mass.interior_points(50)
        assert sup_diff(back, w, xs) <= 1e-12


def test_rho_constant_mass_is_structural_zero():
    mass = MassFn(parse("4"), -1.0, 1.0)
    assert rho(mass, 0.3, 0.7) == Const(0.0)


def test_rho_vanishing_ambiguity_choice_for_random_masses():
    rng = np.random.default_rng(11)
    for _ in range(20):
        spec = random_pt_model(rng, 1)
        r = rho(spec.mass, 0.0, -1.0)
        assert r == Const(0.0)


def test_rho_sec_mass_value():
    # hand substitution: m = sec x, a = b = 0 at pi/4 gives
    # (1/2) m''/m^2 - m'^2/m^3 = 3 sqrt(2)/4 - 1/sqrt(2)
    mass = MassFn(parse("sec(x)"), 0.1, 1.5)
    value = evaluate(rho(mass, 0.0, 0.0), math.pi / 4)
    expected = 3 * math.sqrt(2) / 4 - 1 / math.sqrt(2)
    assert abs(value - expected) < 1e-13


def test_pt_image_examples():
    env = ParamEnv(alpha=0.7)
    f = parse("exp(i*alpha*x)")
    img = pt_image(f)
    xs = np.linspace(-1.2, 1.2, 41)
    assert sup_diff(img, f, xs, env) <= 1e-15          # PT-symmetric
    assert sup_diff(pt_image(parse("x")), parse("-x"), xs) == 0.0
    g = parse("x^2 + i*x")
    assert sup_diff(pt_image(g), g, xs) == 0.0          # Re even, Im odd


def test_pt_image_is_exact_conjugate_parity():
    env = ParamEnv(alpha=0.3, beta=1.0 + 0.5j)
    f = parse("beta*exp(i*alpha*x) - sin(x)/(2+x^2)")
    img = pt_image(f)
    for x in np.linspace(-1.3, 1.3, 57):
        x = float(x)
        assert evaluate(img, x, env) == evaluate(f, -x, env).conjugate()


def test_pt_image_renders_its_conjugation_node():
    # the image is conj(f(0-x)); a pole inside it is reported at the
    # failing subexpression, rendered inside the conjugation
    img = pt_image(parse("1/(x-a)+i*x"))
    assert str(img) == "conj(1/(0-x-a)+i*(0-x))"
    env = ParamEnv(a=-1.0)
    with pytest.raises(PoleError, match=r"^pole hit in '1/\(0-x-a\)' at "
                       r"x=1.0$") as err:
        evaluate(img, 1.0, env)
    assert str(err.value.subexpr) == "1/(0-x-a)" and err.value.x == 1.0
    with pytest.raises(PoleError) as err:
        evaluate_many(img, [0.5, 1.0], env)
    assert str(err.value.subexpr) == "1/(0-x-a)" and err.value.x == 1.0


def test_pt_image_is_an_involution():
    f = parse("x^3 - i*cos(x) + 2/(1+x^2)")
    twice = pt_image(pt_image(f))
    for x in np.linspace(-1.0, 1.0, 21):
        assert evaluate(twice, float(x)) == evaluate(f, float(x))


def test_pt_recovery_from_constructed_superpotential():
    # any PT-symmetric g plus the deformation term for an even mass must
    # deform back to g, hence a zero PT defect
    rng = np.random.default_rng(23)
    for order in (1, 2, 3):
        spec = random_pt_model(rng, min(order, 2))
        g = spec.wm()
        w = constant_mass_superpotential(g, spec.mass, order)
        wm = mass_deformed_superpotential(w, spec.mass, order)
        xs = spec.mass.interior_points(60)
        assert sup_diff(wm, g, xs) <= 1e-12
        defect = np.max(np.abs(evaluate_many(wm, xs)
                               - np.conj(evaluate_many(wm, -xs))))
        assert defect <= 1e-12


def test_symmetry_report_symmetric_model():
    spec = ModelSpec(order=1, mass=MassFn(parse("1/(1+x^2)"), -2.0, 2.0),
                     deformed=parse("x^2+i*x"), susy_constants=(1.0,))
    rep = symmetry_report(spec)
    assert rep.mass_parity_defect <= 1e-13
    assert rep.wm_pt_defect <= 1e-13


def test_symmetry_report_detects_odd_mass():
    spec = ModelSpec(order=1, mass=MassFn(parse("1+x/2"), -1.0, 1.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))
    rep = symmetry_report(spec)
    xs = chebyshev_points(-1.0, 1.0)
    assert abs(rep.mass_parity_defect - max(abs(xs))) < 1e-13


def test_symmetry_report_detects_real_odd_superpotential():
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -1.0, 1.0),
                     deformed=parse("x"), susy_constants=(0.0,))
    rep = symmetry_report(spec)
    xs = chebyshev_points(-1.0, 1.0)
    assert abs(rep.wm_pt_defect - 2 * max(abs(xs))) < 1e-13
    # the scan meets x and -x in turn, so W_m = exp(800 x) first overflows
    # at -xs[0], the largest point
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -1.0, 1.0),
                     deformed=parse("exp(800*x)"), susy_constants=(0.0,))
    with pytest.raises(PoleError, match="overflow") as err:
        symmetry_report(spec)
    assert err.value.x == -xs[0]


def test_symmetry_report_rejects_asymmetric_domain():
    spec = ModelSpec(order=1, mass=MassFn(parse("sec(x)"), 0.02, 1.55),
                     deformed=parse("exp(i*x)"), susy_constants=(1.0,))
    with pytest.raises(DomainError, match="not symmetric"):
        symmetry_report(spec)


def test_mass_domain_wider_than_the_float_range_is_refused():
    # its width overflows, so interior_points would hold only inf and nan
    with pytest.raises(DomainError, match="wider than the float range"):
        MassFn(parse("1"), -1.7e308, 1.7e308)
    assert MassFn(parse("1"), -8e307, 8e307).interior_points()[0] > -8e307


def _cell_midpoints(x_min, x_max, n):
    return x_min + (x_max - x_min) / n * (np.arange(n) + 0.5)


@pytest.mark.parametrize("domain", [(-1.5, 1.5), (-8.0, 8.0),
                                    (-8e307, 8e307)])
@pytest.mark.parametrize("n", [2, 100, 256, 257])
def test_interior_points_are_antisymmetric_on_symmetric_domains(domain, n):
    # the first half is the cell midpoints from x_min, the second half
    # their exact negation, so values at -x are values at x reversed
    xs = MassFn(parse("1"), *domain).interior_points(n)
    half = n // 2
    assert xs[:half].tobytes() == _cell_midpoints(*domain, n)[:half].tobytes()
    assert xs[::-1][:half].tobytes() == (-xs[:half]).tobytes()
    if n % 2:
        assert xs[half] == 0.0 and math.copysign(1.0, xs[half]) == 1.0
    assert np.all(np.diff(xs) > 0)


@pytest.mark.parametrize("domain", [(0.02, 1.55), (-1.5, 1.4), (-3.0, -1.0)])
@pytest.mark.parametrize("n", [100, 257])
def test_interior_points_on_asymmetric_domains_are_the_cell_midpoints(
        domain, n):
    xs = MassFn(parse("1"), *domain).interior_points(n)
    assert xs.tobytes() == _cell_midpoints(*domain, n).tobytes()


def test_mass_validation():
    with pytest.raises(MassError, match="positive"):
        MassFn(parse("x"), -1.0, 1.0).validate()
    with pytest.raises(MassError, match="real"):
        MassFn(parse("1+i*x"), 0.5, 1.0).validate()
    MassFn(parse("sec(x)"), -1.5, 1.5).validate()   # fine
    # the first failing sample is named; "real" is checked before "positive"
    with pytest.raises(MassError, match=r"positive at x=-0.25:"):
        MassFn(parse("x"), -1.0, 1.0).validate(samples=[0.5, -0.25, -0.5])
    with pytest.raises(MassError, match=r"real at x=0.5:"):
        MassFn(parse("i*x-1"), -1.0, 1.0).validate(samples=[0.5])
    # samples before a pole are checked first
    with pytest.raises(MassError, match=r"positive at x=-0.5:"):
        MassFn(parse("1/x"), -1.0, 1.0).validate(samples=[-0.5, 0.0])
    with pytest.raises(PoleError, match=r"at x=0.0"):
        MassFn(parse("1/x"), -1.0, 1.0).validate(samples=[0.5, 0.0, -0.5])


def test_model_spec_validation():
    mass = MassFn(parse("1"), -1.0, 1.0)
    with pytest.raises(ModelError, match="exactly one"):
        ModelSpec(order=1, mass=mass, susy_constants=(0.0,))
    with pytest.raises(ModelError, match="exactly one"):
        ModelSpec(order=1, mass=mass, superpotential=parse("x"),
                  deformed=parse("x"), susy_constants=(0.0,))
    with pytest.raises(ModelError, match="length"):
        ModelSpec(order=2, mass=mass, deformed=parse("i*x"),
                  susy_constants=(0.0,))
    spec = ModelSpec(order=2, mass=mass, deformed=parse("i*x+1"),
                     susy_constants=(1.0, 0.5 + 0.1j))
    assert not spec.real_susy_constants
