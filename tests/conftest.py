"""Shared helpers: randomized PT-symmetric models and sampling utilities."""

import numpy as np

from pdmsusy import MassFn, ModelSpec, parse
from pdmsusy.expr import evaluate_many

DOMAIN = (-1.5, 1.5)


def random_pt_model(rng, order, domain=DOMAIN):
    """Random model with even positive mass and PT-symmetric W_m whose real
    part is bounded away from zero (so every division by W_m is safe)."""
    a0 = rng.uniform(1.0, 2.0)
    a2 = rng.uniform(-0.3, 0.3)
    b1 = rng.uniform(-1.0, 1.0)
    b3 = rng.uniform(-0.5, 0.5)
    wm = parse(f"{a0!r} + {a2!r}*x^2 + i*({b1!r}*x + {b3!r}*sin(x))")

    kind = int(rng.integers(0, 3))
    c = rng.uniform(0.8, 2.0)
    if kind == 0:
        q = rng.uniform(0.1, 1.0)
        mass_source = f"{c!r}/(1+{q!r}*x^2)"
    elif kind == 1:
        d = rng.uniform(-0.4, 0.4) * c
        omega = rng.uniform(0.5, 2.0)
        mass_source = f"{c!r} + {d!r}*cos({omega!r}*x)"
    else:
        d = rng.uniform(0.0, 0.5)
        mass_source = f"{c!r} + {d!r}*x^2"
    mass = MassFn(parse(mass_source), *domain)

    if order == 1:
        constants = (rng.uniform(-2.0, 2.0),)
    else:
        constants = (rng.uniform(-3.0, 3.0), rng.uniform(-2.0, 2.0))
    return ModelSpec(order=order, mass=mass, deformed=wm,
                     susy_constants=constants)


def sup_diff(a, b, xs, env=None):
    xs = np.asarray(xs, dtype=float)
    return float(np.max(np.abs(evaluate_many(a, xs, env)
                               - evaluate_many(b, xs, env))))


def sup_abs(e, xs, env=None):
    return float(np.max(np.abs(evaluate_many(e, xs, env))))


def interior(spec, n=100):
    return spec.mass.interior_points(n)
