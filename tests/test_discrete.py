"""Discretization, eigensolver and constraint-residual tests."""

import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_pt_model

from pdmsusy import (Grid, GridError, MassFn, ModelSpec, Tridiagonal,
                     assemble_charge, assemble_hamiltonian,
                     conjugate_pairing_distance,
                     constraint_residuals, convergence_study,
                     dense_eigenvalues, l2_normalizable, lowest_levels,
                     parse, susy_algebra_spectrum,
                     wavefunction_from_log_derivative)
from pdmsusy import discrete
from pdmsusy.discrete import (AssemblyError, DiscreteError, EigensolverError,
                              UnsupportedOrderError)
from pdmsusy.expr import Const, ParamEnv, evaluate, evaluate_many
from pdmsusy.susy1 import build_first_order
from pdmsusy.susy2 import build_second_order
from pdmsusy.susyn import NthOrderCoefficients


def synthetic_spec(half_width=6.0):
    return ModelSpec(order=1,
                     mass=MassFn(parse("1/(1+x^2)"), -half_width, half_width),
                     deformed=parse("x^2+i*x"), susy_constants=(1.0,))


def synthetic_operators(grid, spec=None):
    spec = spec or synthetic_spec(abs(grid.x_max))
    system = build_first_order(spec)
    H = assemble_hamiltonian(spec.mass, system.vtilde, grid, spec.params)
    C = assemble_charge(system.charge, grid, spec.params)
    return H, C, spec


def pt_operators(order, n):
    """H, C and spec of the seed-0 random_pt_model on n nodes over +-1.5."""
    spec = random_pt_model(np.random.default_rng(0), order)
    system = (build_first_order if order == 1 else build_second_order)(spec)
    g = Grid(-1.5, 1.5, n)
    return (assemble_hamiltonian(spec.mass, system.vtilde, g, spec.params),
            assemble_charge(system.charge, g, spec.params), spec)


def dense(M):
    """The n x n matrix of a Tridiagonal, from its band alone."""
    return band_dense(M.band)


def dense_parity_reference(H, C, l):
    """Residuals, closure distance and ||zeta conj(zeta)||_2 from the dense
    formulas: P a permutation matrix, zeta = C @ P, P conj(H) P by two
    products and the power sum started from eye @ H."""
    n = H.n
    P = np.zeros((n, n), dtype=complex)
    P[np.arange(n), n - 1 - np.arange(n)] = 1.0
    Hd, Cd = dense(H), dense(C)
    V = discrete._probe_matrix(H.grid)
    rows = slice(1 + 2 * len(l), n - 1 - 2 * len(l))

    def act(mat):
        return float(np.linalg.norm((mat @ V)[rows]))

    zeta = Cd @ P
    lhs = Cd @ (P @ Hd.conj() @ P)
    rhs = Hd @ Cd
    poly = np.zeros_like(Hd)
    power = np.eye(n, dtype=complex)
    poly += l[-1] * power
    for k in range(len(l) - 1, 0, -1):
        power = power @ Hd
        poly += l[k - 1] * power
    poly += power @ Hd
    lhs2 = zeta @ zeta.conj()
    residuals = {
        "pseudo": act(zeta - zeta.conj().T) / act(zeta),
        "cpt": act(lhs - rhs) / max(act(lhs), act(rhs)),
        "susy": act(lhs2 - poly) / max(act(lhs2), act(poly)),
    }
    closure = conjugate_pairing_distance(dense_eigenvalues(lhs2))
    return residuals, closure, np.linalg.norm(lhs2, 2)


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def test_particle_in_a_box_ground_state():
    g = Grid(0.0, np.pi, 401)
    mass = MassFn(parse("1"), 0.0, np.pi)
    H = assemble_hamiltonian(mass, Const(0.0), g)
    s = lowest_levels(H)
    assert abs(s.values[0] - 1.0) < 1e-4


def test_constant_potential_shifts_spectrum():
    g = Grid(-3.0, 3.0, 64)
    mass = MassFn(parse("1"), -3.0, 3.0)
    base = lowest_levels(assemble_hamiltonian(mass, Const(0.0), g))
    shifted = lowest_levels(assemble_hamiltonian(mass, Const(5.0), g))
    assert np.max(np.abs(shifted.values - base.values - 5.0)) < 1e-10


def test_hamiltonian_boundary_rows_are_decoupled_identity():
    g = Grid(-2.0, 2.0, 32)
    mass = MassFn(parse("1"), -2.0, 2.0)
    H = assemble_hamiltonian(mass, parse("x^2"), g)
    assert H.band[0, 1] == 1.0 and H.band[-1, 1] == 1.0
    assert H.band[0, 2] == 0 and H.band[-1, 0] == 0     # H[0, 1], H[-1, -2]
    assert H.band[1, 0] == 0 and H.band[-2, 2] == 0     # H[1, 0], H[-2, -1]
    assert H.band[0, 0] == 0 and H.band[-1, 2] == 0     # outside H
    Hd = dense(H)
    assert np.all(Hd[0, 1:] == 0) and np.all(Hd[-1, :-1] == 0)


def test_charge_stencils():
    g = Grid(-2.0, 2.0, 32)
    mass = MassFn(parse("1"), -2.0, 2.0)
    spec = ModelSpec(order=1, mass=mass, deformed=Const(0.0),
                     susy_constants=(0.0,))
    C = assemble_charge(build_first_order(spec).charge, g)
    h = g.h
    # row 5: C[5, 4], C[5, 5], C[5, 6]
    assert C.band[5, 0] == -1 / (2 * h) and C.band[5, 2] == 1 / (2 * h)
    assert C.band[5, 1] == 0
    # boundary rows zeroed, and the slots outside C
    assert np.all(C.band[[0, -1]] == 0)
    assert np.all(dense(C)[[0, -1]] == 0)

    spec_c = ModelSpec(order=1, mass=mass, deformed=Const(0.7),
                       susy_constants=(0.0,))
    C2 = assemble_charge(build_first_order(spec_c).charge, g)
    assert np.allclose(C2.band[1:-1, 1], C.band[1:-1, 1] + 0.7)
    assert np.allclose(C2.band[[0, -1], 1], 0)
    assert np.array_equal(C2.band[:, [0, 2]], C.band[:, [0, 2]])


def test_second_order_charge_on_worked_model_is_finite():
    spec = ModelSpec(order=2, mass=MassFn(parse("sec(x)"), 0.05, 1.5),
                     superpotential=parse("exp(i*alpha*x)-sin(x)"),
                     susy_constants=(-3.0, 2.0), params=ParamEnv(alpha=1.0))
    system = build_second_order(spec)
    g = Grid(0.05, 1.5, 401)
    C = assemble_charge(system.charge, g, spec.params)
    assert np.all(np.isfinite(C.band.real))
    assert np.all(np.isfinite(C.band.imag))


def test_unsupported_charge_orders():
    g = Grid(-2.0, 2.0, 32)
    coeffs = NthOrderCoefficients(n=3, lead=parse("1"), sub=parse("x"),
                                  u=(None, parse("x")))
    with pytest.raises(UnsupportedOrderError):
        assemble_charge(coeffs, g)


def test_parity_is_node_reversal():
    x = Grid(-2.0, 2.0, 17).nodes()
    assert np.max(np.abs((x**3)[::-1] - (-x) ** 3)) < 1e-12
    H, C, spec = synthetic_operators(Grid(0.0, 1.0, 17), synthetic_spec(1.0))
    with pytest.raises(GridError):
        constraint_residuals(H, C, spec.susy_constants)
    with pytest.raises(GridError):
        susy_algebra_spectrum(C)


def test_grid_contract():
    g = Grid(-6.0, 6.0, 201)
    x = g.nodes()
    assert x[0] == -6.0 and len(x) == 201
    assert abs(x[1] - x[0] - g.h) < 1e-15
    assert g.symmetric and not Grid(0.0, 1.0, 21).symmetric
    with pytest.raises(GridError):
        Grid(0.0, 1.0, 8)
    with pytest.raises(GridError, match="wider than the float range"):
        Grid(-1.7e308, 1.7e308, 21)
    assert g.refined().points == 401


@settings(max_examples=300, deadline=None)
@given(st.floats(-1e300, 1e300), st.floats(0.0, 1e300, exclude_min=True),
       st.integers(16, 4096))
def test_refined_nodes_nest_bit_for_bit(x_min, width, points):
    # h/2 is exact while it is a normal float, and (2i) (h/2) rounds as
    # i h does, so a refined chain's union of nodes is its finest grid's
    x_max = x_min + width
    assume(x_min < x_max)
    g = Grid(x_min, x_max, points)
    assume(g.refined().h >= np.finfo(float).tiny)
    assert g.refined().nodes()[::2].tobytes() == g.nodes().tobytes()


@pytest.mark.parametrize("order", [1, 2])
def test_shared_coefficient_samples_build_the_same_operators(order,
                                                             monkeypatch):
    spec = random_pt_model(np.random.default_rng(order), order)
    system = (build_first_order if order == 1 else build_second_order)(spec)
    grids = [Grid(-1.5, 1.5, 33)]
    while len(grids) < 4:
        grids.append(grids[-1].refined())
    c = system.charge
    roots = (system.vtilde, c.lead, c.sub, *c.u)
    points = []
    evaluate = discrete.evaluate_many

    def counted(e, xs, env=None):
        points.append(len(xs))
        return evaluate(e, xs, env)

    monkeypatch.setattr(discrete, "evaluate_many", counted)
    samples = discrete.coefficient_samples(spec.mass, roots, grids,
                                           spec.params)
    # one evaluation, at the finest grid's interior nodes
    assert points == [grids[-1].points - 2]
    for g, (mass, values) in zip(grids, samples):
        shared = (assemble_hamiltonian(spec.mass, system.vtilde, g,
                                       spec.params, samples=(mass, values[0])),
                  assemble_charge(c, g, spec.params, samples=values[1:]))
        alone = (assemble_hamiltonian(spec.mass, system.vtilde, g,
                                      spec.params),
                 assemble_charge(c, g, spec.params))
        for a, b in zip(shared, alone):
            assert np.array_equal(a.band, b.band)


# ---------------------------------------------------------------------------
# eigenvalues
# ---------------------------------------------------------------------------

def test_diagonal_matrix_eigenvalues_sorted():
    vals = dense_eigenvalues(np.diag([3.0, 1.0 + 2.0j, -5.0]))
    assert np.allclose(vals, [-5.0, 1.0 + 2.0j, 3.0])


def test_companion_matrix_eigenvalues():
    companion = np.array([[3.0, -2.0], [1.0, 0.0]], dtype=complex)
    vals = dense_eigenvalues(companion)
    assert np.allclose(vals, [1.0, 2.0], atol=1e-12)


def test_trace_identity_on_random_matrix():
    rng = np.random.default_rng(79)
    a = rng.normal(size=(200, 200)) + 1j * rng.normal(size=(200, 200))
    vals = dense_eigenvalues(a)
    assert abs(np.sum(vals) - np.trace(a)) <= 1e-8 * abs(np.trace(a))


def test_dense_budget_enforced():
    with pytest.raises(EigensolverError, match="4096"):
        dense_eigenvalues(np.zeros((5000, 5000), dtype=complex))
    # assembly stores the band, so it has no budget; the residuals
    # and the spectrum of zeta conj(zeta) refuse before they allocate
    H, C, spec = synthetic_operators(Grid(-1.0, 1.0, 4097))
    budget = "dense budget is n <= 4096, got 4097"
    with pytest.raises(AssemblyError, match=budget):
        constraint_residuals(H, C, spec.susy_constants)
    with pytest.raises(AssemblyError, match=budget):
        susy_algebra_spectrum(C)


def test_conjugate_closure_trivial_cases():
    assert conjugate_pairing_distance(np.array([1.0, 2.0, 3.0])) == 0.0
    assert conjugate_pairing_distance(np.array([1j, -1j, 2.0])) <= 1e-15


def test_spectrum_from_operator_carries_pairing_distance():
    g = Grid(-2.0, 2.0, 24)
    mass = MassFn(parse("1"), -2.0, 2.0)
    H = assemble_hamiltonian(mass, parse("x^2"), g)
    s = lowest_levels(H)
    assert len(s) == min(discrete.LOW_LEVELS, 22)  # boundary rows dropped
    assert conjugate_pairing_distance(s.values) <= 1e-10  # real symmetric
    # a block of LOW_LEVELS rows or fewer gives all of its levels
    small = assemble_hamiltonian(mass, parse("x^2"), Grid(-2.0, 2.0, 16))
    s = lowest_levels(small)
    assert len(s) == 14 and s.edge == np.inf


# ---------------------------------------------------------------------------
# the eigensolver behind lowest_levels
# ---------------------------------------------------------------------------

SOLVER = settings(max_examples=60, deadline=None, derandomize=True,
                  database=None)
UNIT_ROUNDOFF = 2.0**-53


@st.composite
def tridiagonals(draw):
    """(T, beta): a tridiagonal matrix with complex diagonal a and
    off-diagonal products beta of one kind, small enough to be solved
    dense.  Mirror draws have a and beta symmetric under reversal
    (J T J = T, near-degenerate pairs), PT draws have them
    conjugate-symmetric (a spectrum closed under conjugation); the others
    split each beta_k unevenly between T[k, k+1] and T[k+1, k]."""
    n = draw(st.integers(14, discrete.COARSE_ROWS))
    kind = draw(st.sampled_from(["positive", "negative", "complex"]))
    symmetry = draw(st.sampled_from(["none", "mirror", "pt"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    size = rng.uniform(0.05, 2.0, size=n - 1)
    beta = {"positive": size, "negative": -size,
            "complex": size * np.exp(2j * np.pi * rng.uniform(size=n - 1))
            }[kind].astype(complex)
    split = np.ones(n - 1)
    if symmetry == "mirror":
        a, beta = (a + a[::-1]) / 2, (beta + beta[::-1]) / 2
    elif symmetry == "pt":
        a, beta = (a + a[::-1].conj()) / 2, (beta + beta[::-1].conj()) / 2
    else:
        split = np.exp(rng.uniform(-0.5, 0.5, size=n - 1))
    root = np.sqrt(beta)
    T = np.diag(a) + np.diag(root * split, 1) + np.diag(root / split, -1)
    return T, beta


@st.composite
def smooth_hamiltonians(draw):
    """H of a seeded PT-symmetric model (the test suite's random_pt_model)
    on a grid of more than COARSE_ROWS interior rows: the coarse-to-fine
    path with its certification."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    order = draw(st.sampled_from([1, 2]))
    points = draw(st.integers(discrete.COARSE_ROWS + 3, 401))
    spec = random_pt_model(rng, order)
    build = build_first_order if order == 1 else build_second_order
    return assemble_hamiltonian(spec.mass, build(spec).vtilde,
                                Grid(-1.5, 1.5, points), spec.params)


def dirichlet_operator(T):
    """An operator whose interior block is T, with identity boundary rows."""
    band = np.zeros((T.shape[0] + 2, 3), dtype=complex)
    band[[0, -1], 1] = 1.0
    band[1:-1, 1] = np.diagonal(T)
    band[2:-1, 0] = np.diagonal(T, -1)
    band[1:-2, 2] = np.diagonal(T, 1)
    return Tridiagonal(band, Grid(-1.0, 1.0, T.shape[0] + 2))


def assert_lowest_levels(M):
    """lowest_levels(M) gives the lowest levels of M's interior
    block T by real part: LOW_LEVELS of them (all where T has no more
    rows), more only where the next level's real part lies within the
    error bounds, and each within twice its error bound n*u*||T||*kappa_i
    of the dense solver's (its own bound plus the dense solver's), kappa_i
    = ||v||^2 / |v^T v| from the dense eigenvector v of the symmetrized T.
    The returned edge separates them from the other levels."""
    s = lowest_levels(M)
    a = M.band[1:-1, 1]
    o = np.sqrt(M.band[1:-2, 2] * M.band[2:-1, 0])
    T = np.diag(a) + np.diag(o, 1) + np.diag(o, -1)
    reference, vectors = np.linalg.eig(T)
    kappa = (np.sum(np.abs(vectors) ** 2, axis=0)
             / np.abs(np.sum(vectors * vectors, axis=0)))
    order = np.argsort(reference.real, kind="stable")
    n, k = a.size, len(s)
    norm = np.max(np.abs(a) + np.abs(np.r_[0.0, o]) + np.abs(np.r_[o, 0.0]))
    bound = 2 * n * UNIT_ROUNDOFF * norm * kappa[order[:k]]
    assert k >= min(discrete.LOW_LEVELS, n)
    gap = np.abs(s.values[:, None] - reference[order[:k]])
    assert np.all(np.min(gap, axis=0) <= bound)
    assert np.all(np.min(gap, axis=1) <= bound[np.argmin(gap, axis=1)])
    if k < n:
        assert np.max(s.values.real) < s.edge < reference[order[k]].real
    return s


@SOLVER
@given(tridiagonals())
def test_tridiagonal_solver_matches_dense(case):
    T, _ = case
    assert_lowest_levels(dirichlet_operator(T))


@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@given(smooth_hamiltonians())
def test_coarse_to_fine_solver_matches_dense(H):
    assert_lowest_levels(H)


def ill_conditioned_hamiltonian():
    """H of order 2, mass 1+0.3x^2, W_m -x+i on [-8, 8] (601 points):
    eigenvalue condition numbers up to ~1e4 among the lowest levels."""
    spec = ModelSpec(order=2, mass=MassFn(parse("1+0.3*x^2"), -8.0, 8.0),
                     deformed=parse("-x+i"), susy_constants=(-3.0, 2.0))
    return assemble_hamiltonian(spec.mass, build_second_order(spec).vtilde,
                                Grid(-8.0, 8.0, 601), spec.params)


def harmonic_hamiltonian(points=401):
    """H = -d^2 + x^2 on [-1, 1]: 399 interior rows, one coarser grid."""
    return assemble_hamiltonian(MassFn(parse("1"), -1.0, 1.0), parse("x^2"),
                                Grid(-1.0, 1.0, points))


def test_ill_conditioned_levels_are_certified():
    # an absolute n*u*||T|| stop would lie below the rounding noise
    s = assert_lowest_levels(ill_conditioned_hamiltonian())
    assert len(s) == discrete.LOW_LEVELS
    assert abs(s.values[0] - 1.0) == pytest.approx(5.0e-6, rel=0.05)


def test_lowest_levels_refuse_counts_below_one():
    H = harmonic_hamiltonian(64)
    for count in (0, -2):
        with pytest.raises(DiscreteError, match=f"got count {count}$"):
            lowest_levels(H, count)
    assert len(lowest_levels(H, 1)) == 1


def test_lowest_levels_reach_every_level():
    g = Grid(-3.0, 3.0, 240)
    H = assemble_hamiltonian(MassFn(parse("1"), -3.0, 3.0), parse("x^2"), g)
    assert len(lowest_levels(H, 40)) == 40
    s = lowest_levels(H, 500)
    assert len(s) == 238 and s.edge == np.inf


def test_tridiagonal_solver_failures_are_reported(monkeypatch):
    H = harmonic_hamiltonian()
    # sweeps that do not converge raise: there is no other solver
    monkeypatch.setattr(discrete, "SWEEP_BUDGET", 1)
    with pytest.raises(EigensolverError, match="unconverged after 1 Aberth"):
        lowest_levels(H)
    monkeypatch.undo()

    # a result that repeats a level is refused by the certification
    aberth = discrete._aberth

    def duplicate(*args, **kwargs):
        z, bound, sweeps = aberth(*args, **kwargs)
        z[1] = z[0]
        return z, bound, sweeps

    monkeypatch.setattr(discrete, "_aberth", duplicate)
    with pytest.raises(EigensolverError, match="within their error bounds"):
        lowest_levels(H)


def test_aberth_refuses_a_non_finite_correction(monkeypatch):
    ratio = discrete._newton_ratio

    def poisoned(*args):
        newton, kappa = ratio(*args)
        newton[0] = np.nan
        return newton, kappa

    monkeypatch.setattr(discrete, "_newton_ratio", poisoned)
    with pytest.raises(EigensolverError, match=r"^non-finite Aberth "
                       r"correction at 1 of 24 tracked values \(399 rows\)$"):
        lowest_levels(harmonic_hamiltonian())


def test_counting_contour_refuses_past_its_budget(monkeypatch):
    # this H's window contour needs more than its first CONTOUR_POINTS
    # points (it resolves at the default budget, see
    # test_ill_conditioned_levels_are_certified)
    monkeypatch.setattr(discrete, "CONTOUR_BUDGET", discrete.CONTOUR_POINTS)
    with pytest.raises(EigensolverError, match=r"^the phase of det\(T - z\) "
                       r"along the window Re in .* does not resolve within "
                       r"1000 contour points$"):
        lowest_levels(ill_conditioned_hamiltonian())


def leave_window(z, bound, order):
    z[order[0]] += 1e6j


def cross_a_disc(z, bound, order):
    # the lowest two discs (radius r) overlap, and the circle of radius 4r
    # around the lowest value passes through the third value
    r = 1e-3
    bound[order[:3]] = r
    z[order[1]] = z[order[0]] + r
    z[order[2]] = z[order[0]] + 4 * r


def lose_a_level(z, bound, order):
    z[order[0]] = 1e9         # past T's spectrum: the 17th level is taken in


def hide_every_gap(z, bound, order):
    bound[:] = 1e9


@pytest.mark.parametrize("edit, message", [
    (leave_window, r"^levels leave the window Re in .* within their error "
                   r"bounds$"),
    (cross_a_disc, r"^levels within their error bounds of each other, and a "
                   r"circle of radius 0.004 around .* crosses the bounds of "
                   r"others$"),
    (lose_a_level, r"^the window Re in .* holds 17 eigenvalues, 16 levels "
                   r"were found there$"),
    (hide_every_gap, r"^no gap in real part after level 16 exceeds the error "
                     r"bounds$"),
])
def test_certification_refuses_wrong_levels(monkeypatch, edit, message):
    # edit(z, bound, order) changes the refined values and their error
    # bounds, order their indices by real part
    aberth = discrete._aberth

    def edited(*args, **kwargs):
        z, bound, sweeps = aberth(*args, **kwargs)
        edit(z, bound, np.argsort(z.real, kind="stable"))
        return z, bound, sweeps

    H = harmonic_hamiltonian()
    monkeypatch.setattr(discrete, "_aberth", edited)
    with pytest.raises(EigensolverError, match=message):
        lowest_levels(H)


# ---------------------------------------------------------------------------
# constraint residuals and convergence
# ---------------------------------------------------------------------------

def test_constraint_residuals_converge_at_second_order():
    def residual_fn(g):
        H, C, spec = synthetic_operators(g)
        return constraint_residuals(H, C, spec.susy_constants)

    grids = [Grid(-6.0, 6.0, n) for n in (201, 401, 801)]
    study = convergence_study(residual_fn, grids)
    for name in ("pseudo", "cpt", "susy"):
        assert 1.7 <= study[name].order <= 2.3, (name, study[name])

    # the node reversal agrees with the dense permutation formulas to
    # matmul rounding, 100 n u relative to the dominant term
    first = synthetic_operators(Grid(-6.0, 6.0, 201))
    for H, C, spec in (first, pt_operators(2, 201)):
        bound = 100 * H.n * np.finfo(float).eps / 2     # 100 n u
        ref, ref_closure, scale = dense_parity_reference(
            H, C, spec.susy_constants)
        got = constraint_residuals(H, C, spec.susy_constants)
        for name in ("pseudo", "cpt", "susy"):
            assert abs(got[name] - ref[name]) <= bound, (name, got, ref)
        closure = conjugate_pairing_distance(susy_algebra_spectrum(C))
        assert abs(closure - ref_closure) <= bound * scale


@pytest.mark.parametrize("order", [1, 2])
def test_panel_residuals_match_the_dense_formulas(order):
    # n = 33 and 129 leave one row and 15 of padding in their last panel;
    # at 201 and 801 the products' windows hold k-block seams
    bound_factor = 100 * np.finfo(float).eps / 2     # 100 n u
    for n in (33, 129, 201, 401, 801):
        H, C, spec = pt_operators(order, n)
        got = constraint_residuals(H, C, spec.susy_constants)
        ref = dense_parity_reference(H, C, spec.susy_constants)[0]
        for name in ("pseudo", "cpt", "susy"):
            assert abs(got[name] - ref[name]) <= bound_factor * n, (
                n, name, got, ref)


@pytest.mark.parametrize("order", [1, 2])
def test_constraint_residuals_hold_no_dense_array(order):
    # a warm-up call fills what is built once per process (_layout's
    # cache, expression plans, numpy's lazy imports), so the peak does not
    # depend on the tests run before; H's and C's bands exist before the
    # call.  While a probe action runs, the arrays of length n alive are
    # the two sides of a residual (n x 5), the probe matrix, the action and
    # its term (n x 8 each): 34 complex numbers per row, besides numpy's
    # ufunc buffers for the action's strided operands (8192 entries each,
    # 256 KiB with flip).  While a product is formed, 23 per row are alive
    # (the probe matrix and the bands of a finished side, a power sum and
    # the product) and one stack of panel blocks, at most _STACK_BYTES,
    # with its gathered rows, seam pieces and products: 377 KB at n = 801,
    # order 2, under the 2 _STACK_BYTES and 11 rows left by the bound
    working = discrete._STACK_BYTES
    for n in (801, 1601):
        H, C, spec = pt_operators(order, n)
        constraint_residuals(H, C, spec.susy_constants)
        tracemalloc.start()
        try:
            constraint_residuals(H, C, spec.susy_constants)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 34 * n * 16 + 2 * working, (n, peak / (n * 16))


def band_dense(band, flip=False):
    """The n x n matrix of a band storage (with flip, its columns
    reversed), entry by entry."""
    n, w = band.shape[0], band.shape[1] // 2
    out = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for d in range(2 * w + 1):
            if 0 <= i + d - w < n:
                out[i, i + d - w] = band[i, d]
    return out[:, ::-1] if flip else out


def band_indices(r0, r1, w, n, flip):
    """The inner indices that rows r0:r1 of a band of half-width w reach
    (column-reversed with flip)."""
    cols = (np.arange(r0, r1)[:, None] + np.arange(-w, w + 1)).ravel()
    cols = cols[(cols >= 0) & (cols < n)]
    return n - 1 - cols if flip else cols


def test_panels_cover_the_rows_and_none_has_one_row():
    # every panel gathers _TILE rows of X (past n, row n - 1 again, whose
    # products are dropped), so no block has a single row; the panels
    # gather every row of 0:n, in order, and none lies wholly past n
    tile = discrete._TILE
    for n in range(16, discrete.MAX_DENSE_DIMENSION + 1):
        for flip in (False, True):
            _, _, _, passes = discrete._layout(n, 1, 1, flip)
            panels = np.concatenate([p for p, *_ in passes])
            rows = np.concatenate([r for _, r, *_ in passes])
            assert rows.shape == (-(-n // tile), tile), (n, flip)
            rows = rows[np.argsort(panels)].ravel()
            assert np.array_equal(rows, np.minimum(
                np.arange(rows.size), n - 1)), (n, flip)


LAYOUTS = dict(n=st.integers(16, 5000), wx=st.integers(1, 4),
               wy=st.integers(1, 4), flip=st.booleans())


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**LAYOUTS)
def test_stacked_plan_makes_every_entry_once(n, wx, wy, flip):
    # the passes take every panel once, and the panels' 16 rows cover 0:n;
    # panel p's product block holds its rows and the columns from 16p - pad
    # on, the first on a multiple of _UNROLL_M, and the out map reads
    # band[16p + t, e] from the product's entry (16p + t, 16p + t + e - w)
    # in it: so each band entry comes from exactly one panel, at its own row
    # and column
    tile, w = discrete._TILE, wx + wy
    k0, pad, (_, _, out), passes = discrete._layout(n, wx, wy, flip)
    panels = np.concatenate([p for p, *_ in passes])
    assert np.array_equal(np.sort(panels), np.arange(k0.size))
    assert tile * (k0.size - 1) < n <= tile * k0.size
    c0 = tile * panels - pad
    assert np.all(c0 % discrete._UNROLL_M == 0), pad
    t, e = np.divmod(np.arange(tile * (2 * w + 1)), 2 * w + 1)
    row, col = np.divmod(out, tile + 2 * pad)
    assert np.array_equal(row, t)
    assert np.array_equal(c0[:, None] + col,
                          (tile * panels)[:, None] + t + e - w)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**LAYOUTS)
def test_layout_windows_cover_the_inner_indices(n, wx, wy, flip):
    # the k-block seams step by at most _KBLOCK, each on a multiple of
    # _UNROLL_M.  Panel p's window k0:k0 + 16 + 2wx is exactly the inner
    # indices that its 16 rows reach (the reach of rows past n and indices
    # outside 0:n are padding); X's entries sit at their own inner index in
    # it, Y's at their own inner index and product column, and the rows
    # gathered are the panel's (past n: row n - 1) and the window's
    seams = discrete._kseams(n)
    assert seams[0] == 0 and seams[-1] == n
    steps = np.diff(seams)
    assert np.all(steps > 0) and np.all(steps <= discrete._KBLOCK)
    assert all(s % discrete._UNROLL_M == 0 for s in seams[:-1])
    tile = discrete._TILE
    k0, pad, (left, right, _), passes = discrete._layout(n, wx, wy, flip)
    wide, span = tile + 2 * wx, tile + 2 * pad
    t, d = np.divmod(np.arange(tile * (2 * wx + 1)), 2 * wx + 1)
    j, dy = np.divmod(np.arange(wide * (2 * wy + 1)), 2 * wy + 1)
    assert np.array_equal(left // wide, t) and np.array_equal(right // span, j)
    for panels, rows, inner, _, _ in passes:
        for p, got_rows, got_inner in zip(panels, rows, inner):
            reach = tile * p + t + d - wx               # X[16p + t, reach]
            reach = n - 1 - reach if flip else reach
            assert k0[p] == reach.min() and k0[p] + wide == reach.max() + 1
            assert np.array_equal(k0[p] + left % wide, reach)
            window = np.arange(k0[p], k0[p] + wide)
            assert set(band_indices(tile * p, min(n, tile * p + tile), wx, n,
                                    flip)) <= set(window)
            cols = k0[p] + j + dy - wy                  # Y[k0 + j, cols]
            cols = n - 1 - cols if flip else cols
            assert np.array_equal(tile * p - pad + right % span, cols)
            assert np.array_equal(got_rows, np.minimum(
                tile * p + np.arange(tile), n - 1))
            assert np.array_equal(got_inner, window)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(**LAYOUTS)
def test_layout_cuts_the_seam_and_tail_panels(n, wx, wy, flip):
    # the seam passes hold exactly the panels whose window a k-block seam
    # crosses, each cut at that seam's own inner index; the tail passes
    # exactly the panels whose columns reach the M tail from 4 [n / 4] on,
    # one panel each, its columns ending at n; no panel is both, and no
    # pass stacks more than _STACK_BYTES of blocks
    tile, unroll = discrete._TILE, discrete._UNROLL_M
    k0, pad, _, passes = discrete._layout(n, wx, wy, flip)
    wide, span = tile + 2 * wx, tile + 2 * pad
    crossed = sorted((p, s) for p in range(k0.size)
                     for s in discrete._kseams(n)[1:-1]
                     if k0[p] < s < k0[p] + wide)
    cut = sorted((p, k0[p] + c) for panels, _, _, cuts, _ in passes
                 if cuts is not None for p, c in zip(panels, cuts))
    assert cut == crossed
    reach = [p for p in range(k0.size)
             if tile * p + tile + pad > n // unroll * unroll]
    tails = [(panels, cols) for panels, _, _, _, cols in passes if cols]
    assert [p for panels, _ in tails for p in panels] == reach
    for panels, cols in tails:
        assert panels.size == 1 and tile * panels[0] - pad + cols == n
    assert not set(reach) & {p for p, _ in cut}
    for panels, *_ in passes:
        assert panels.size * 16 * wide * (tile + span) <= discrete._STACK_BYTES


def random_band(rng, n, w):
    """Diagonal-by-row storage of a random complex band of half-width w."""
    band = rng.standard_normal((n, 2 * w + 1)) + 1j * rng.standard_normal(
        (n, 2 * w + 1))
    cols = np.arange(n)[:, None] + np.arange(-w, w + 1)
    band[(cols < 0) | (cols >= n)] = 0
    return band


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(16, 700), st.integers(1, 2), st.integers(1, 2),
       st.booleans(), st.integers(0, 2**32 - 1))
def test_stacked_products_match_the_full_products(n, wx, wy, flip, seed):
    # the stacked product against the product over all n inner columns,
    # within the rounding bound of two complex sums of length n + 2,
    # 2 sqrt(2) gamma_(n+2) |X| |Y| (Higham, Lemma 3.5)
    rng = np.random.default_rng(seed)
    x, y = random_band(rng, n, wx), random_band(rng, n, wy)
    X, Y = band_dense(x, flip), band_dense(y, flip)
    u = np.finfo(float).eps / 2
    gamma = 2 * np.sqrt(2) * (n + 2) * u / (1 - (n + 2) * u)
    product = band_dense(discrete._band_product(x, y, flip))
    assert np.all(np.abs(product - X @ Y)
                  <= gamma * (np.abs(X) @ np.abs(Y))), (n, wx, wy, flip)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(16, 700), st.integers(1, 4), st.booleans(),
       st.integers(0, 2**32 - 1))
def test_band_action_is_the_band_sum(n, w, flip, seed):
    # the probe action sums each entry's 2w + 1 band terms, and the product
    # over all n inner columns adds only zeros to them: two complex sums of
    # 2w + 1 terms, which differ by at most 2 sqrt(2) gamma_(2w+2) |X| |V|
    # (Higham, Lemma 3.5), far below the gamma_(n+2) of a length-n sum
    rng = np.random.default_rng(seed)
    x = random_band(rng, n, w)
    V = rng.standard_normal((n, 8)) + 1j * rng.standard_normal((n, 8))
    X = band_dense(x, flip)
    u = np.finfo(float).eps / 2
    k = 2 * w + 2
    gamma = 2 * np.sqrt(2) * k * u / (1 - k * u)
    assert np.all(np.abs(discrete._band_action(x, V, flip) - X @ V)
                  <= gamma * (np.abs(X) @ np.abs(V))), (n, w, flip)


def test_constraint_residuals_check_inputs_before_allocating():
    n = 401
    H, C, spec = synthetic_operators(Grid(-6.0, 6.0, n))
    H_off, C_off, _ = synthetic_operators(Grid(-5.0, 6.0, n))
    H_big, C_big, _ = synthetic_operators(Grid(-1.0, 1.0, 4097))
    l = spec.susy_constants
    cases = [
        ((H, C_off, l), GridError, "share one grid"),
        ((H_off, C_off, l), GridError, "symmetric about 0"),
        ((H, C, ()), DiscreteError, "at least one SUSY constant"),
        ((H, C, (1.0,) * 200), GridError, "margin 401 leaves no interior rows"),
        ((H_big, C_big, l), AssemblyError, "dense budget is n <= 4096, got 4097"),
    ]
    for args, error, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                constraint_residuals(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < args[0].n ** 2 * 16, (message, peak)


@pytest.mark.parametrize("order", [1, 2])
def test_susy_algebra_spectrum_builds_one_dense_array(order):
    # zeta conj(zeta) comes from the panel product; the one n x n array is
    # the eigensolver's input (LAPACK's own work space is not traced)
    n = 801
    _, C, _ = pt_operators(order, n)
    tracemalloc.start()
    try:
        susy_algebra_spectrum(C)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * n * n * 16, peak / (n * n * 16)


def test_susy_algebra_spectrum_checks_inputs_before_allocating():
    _, C_off, _ = synthetic_operators(Grid(-5.0, 6.0, 401))
    _, C_big, _ = synthetic_operators(Grid(-1.0, 1.0, 4097))
    cases = [(C_off, GridError, "symmetric about 0"),
             (C_big, AssemblyError, "dense budget is n <= 4096, got 4097")]
    for C, error, message in cases:
        tracemalloc.start()
        try:
            with pytest.raises(error, match=message):
                susy_algebra_spectrum(C)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < C.n * 16 * 8, (message, peak)


def test_constraint_residuals_log_their_working_set(caplog):
    # one line per call: n, the order and the half-width of the widest
    # product (C (P conj(H) P) and H C at order 1, zeta conj(zeta) and H^2
    # at order 2).  With logging off nothing is logged
    for order in (1, 2):
        H, C, spec = pt_operators(order, 201)
        constraint_residuals(H, C, spec.susy_constants)
    assert not [r for r in caplog.records if r.name == "pdmsusy.discrete"]
    caplog.set_level(logging.INFO, logger="pdmsusy.discrete")
    for order in (1, 2):
        H, C, spec = pt_operators(order, 201)
        constraint_residuals(H, C, spec.susy_constants)
    assert [r.getMessage() for r in caplog.records
            if r.name == "pdmsusy.discrete"] == [
        f"constraint residuals: n=201, order {order}, product half-width 2"
        for order in (1, 2)]


def test_constant_mass_model_residuals():
    # m = 1, W_m = ix: pseudo vanishes identically (exact discrete
    # Hermiticity), susy and cpt converge at the stencil order
    spec = ModelSpec(order=1, mass=MassFn(parse("1"), -6.0, 6.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))

    def residual_fn(g):
        H, C, _ = synthetic_operators(g, spec)
        return constraint_residuals(H, C, spec.susy_constants)

    grids = [Grid(-6.0, 6.0, n) for n in (201, 401, 801)]
    study = convergence_study(residual_fn, grids)
    assert study["pseudo"].floored
    assert 1.7 <= study["cpt"].order <= 2.3
    assert 1.7 <= study["susy"].order <= 2.3


def test_parity_violation_is_detected():
    # an odd mass breaks pseudo-Hermiticity: the residual stalls at a
    # nonzero level instead of converging
    spec = ModelSpec(order=1, mass=MassFn(parse("1+0.3*x"), -2.0, 2.0),
                     deformed=parse("i*x"), susy_constants=(0.0,))
    residuals = []
    for n in (101, 201, 401):
        g = Grid(-2.0, 2.0, n)
        H, C, _ = synthetic_operators(g, spec)
        residuals.append(constraint_residuals(H, C, spec.susy_constants)["pseudo"])
    assert residuals[-1] > 1e-3
    assert residuals[0] / residuals[-1] < 2.0


def test_harmonic_oscillator_eigenvalue_error_is_second_order():
    mass = MassFn(parse("1"), -10.0, 10.0)
    errors = {}
    for n in (101, 201, 401):
        g = Grid(-10.0, 10.0, n)
        H = assemble_hamiltonian(mass, parse("x^2"), g)
        errors[g.h] = abs(lowest_levels(H).values[0] - 1.0)
    hs = sorted(errors, reverse=True)
    slope = np.polyfit(np.log(hs), np.log([errors[h] for h in hs]), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_constant_family_has_zero_slope():
    def residual_fn(g):
        return {"flat": 0.123}

    grids = [Grid(-1.0, 1.0, n) for n in (33, 65, 129)]
    study = convergence_study(residual_fn, grids)
    assert abs(study["flat"].order) < 1e-12


def test_convergence_study_needs_halving_grids():
    with pytest.raises(GridError):
        convergence_study(lambda g: {"r": 1.0},
                          [Grid(-1, 1, 33), Grid(-1, 1, 49), Grid(-1, 1, 65)])


# ---------------------------------------------------------------------------
# intertwining identities
# ---------------------------------------------------------------------------

def test_intertwining_residuals_are_conjugate():
    g = Grid(-6.0, 6.0, 41)
    H, C, _ = synthetic_operators(g)
    zeta = dense(C)[:, ::-1]
    Hd = dense(H)
    r1 = Hd @ zeta - zeta @ Hd.conj()
    r2 = Hd.conj() @ zeta.conj() - zeta.conj() @ Hd
    assert np.array_equal(r1.conj(), r2)


# ---------------------------------------------------------------------------
# spectral containment for a window-confined N=2 model
# ---------------------------------------------------------------------------

def test_confined_second_order_modes_appear_in_spectrum():
    spec = ModelSpec(order=2, mass=MassFn(parse("1"), -8.0, 8.0),
                     deformed=parse("-x+i"), susy_constants=(-3.0, 2.0))
    system = build_second_order(spec)
    assert system.real_spectrum
    g = Grid(-8.0, 8.0, 801)
    xs = g.nodes()
    psi_ground = wavefunction_from_log_derivative(system.phi2, xs)
    psi_excited = wavefunction_from_log_derivative(system.phi1, xs)
    assert l2_normalizable(psi_ground)
    assert l2_normalizable(psi_excited)

    H = assemble_hamiltonian(spec.mass, system.vtilde, g, spec.params)
    s = lowest_levels(H)
    for target in (system.e0, system.e1):
        assert np.min(np.abs(s.values - complex(target))) <= 5e-3


# ---------------------------------------------------------------------------
# log-derivative quadrature
# ---------------------------------------------------------------------------

def test_wavefunction_quadrature_constant_logderivative():
    xs = np.linspace(-2.0, 2.0, 81)
    psi = wavefunction_from_log_derivative(Const(0.5), xs)
    expected = np.exp(0.5 * xs)   # midpoint is 0
    assert np.max(np.abs(psi - expected)) < 1e-12


def test_wavefunction_quadrature_is_fourth_order():
    # non-polynomial log-derivative (Simpson is exact on cubics)
    phi = parse("cos(2*x)")
    errors = []
    for n in (41, 81, 161):
        xs = np.linspace(-1.0, 1.0, n)
        psi = wavefunction_from_log_derivative(phi, xs)
        expected = np.exp(np.sin(2 * xs) / 2.0)
        errors.append(np.max(np.abs(psi - expected)))
    order = np.log2(errors[0] / errors[2]) / 2
    assert order > 3.5


def test_wavefunction_sums_outward_from_the_anchor():
    # reference: the pointwise cumulative Simpson sum, outward from the node
    # nearest the midpoint, subtracting on the left; the arithmetic is the
    # same, so the results agree bit for bit
    phi = parse("-x + i*sin(x)/(2+x^2)")

    def segment(a, b):
        if a == b:
            return 0j
        fa, fm, fb = evaluate_many(phi, [a, 0.5 * (a + b), b])
        return ((b - a) / 6.0) * (fa + 4.0 * fm + fb)

    for xs in (np.linspace(-1.5, 1.5, 33), np.linspace(-1.0, 2.0, 20),
               np.array([0.0, 0.0, 0.5, 0.5, 1.0])):
        midpoint = 0.5 * (xs[0] + xs[-1])
        anchor = int(np.argmin(np.abs(xs - midpoint)))
        integral = np.zeros(xs.size, dtype=complex)
        integral[anchor] = segment(midpoint, xs[anchor])
        for j in range(anchor + 1, xs.size):
            integral[j] = integral[j - 1] + segment(xs[j - 1], xs[j])
        for j in range(anchor - 1, -1, -1):
            integral[j] = integral[j + 1] - segment(xs[j], xs[j + 1])
        psi = wavefunction_from_log_derivative(phi, xs)
        assert np.array_equal(psi, np.exp(integral))


def test_wavefunction_evaluates_each_point_once(monkeypatch):
    # one evaluation at the points the live segments read, each once and in
    # the order of its first read (a node two segments share, once)
    calls = []
    evaluate = discrete.evaluate_many
    monkeypatch.setattr(discrete, "evaluate_many", lambda phi, xs, env=None:
                        calls.append(list(xs)) or evaluate(phi, xs, env))
    for xs in (np.linspace(-1.5, 1.5, 33), np.linspace(-1.0, 2.0, 20)):
        midpoint = 0.5 * (xs[0] + xs[-1])
        anchor = int(np.argmin(np.abs(xs - midpoint)))
        # segments as node indices, None for the midpoint; a point is named
        # by its index, or by its segment for a segment's middle
        segments = [(None, anchor)]
        segments += [(j - 1, j) for j in range(anchor + 1, xs.size)]
        segments += [(j, j + 1) for j in range(anchor - 1, -1, -1)]
        at = {None: midpoint, **dict(enumerate(xs))}
        reads = {}
        for s, (i, k) in enumerate(segments):
            if at[i] != at[k]:
                for name, x in ((i, at[i]), (-1 - s, 0.5 * (at[i] + at[k])),
                                (k, at[k])):
                    reads.setdefault(name, x)
        calls.clear()
        wavefunction_from_log_derivative(parse("cos(x)"), xs)
        assert calls == [list(reads.values())]
        assert len(calls[0]) == 2 * xs.size - 1 + 2 * (midpoint != xs[anchor])


def identity_band(n):
    band = np.zeros((n, 3))
    band[:, 1] = 1.0
    return band


def test_tridiagonal_validation():
    g = Grid(-1.0, 1.0, 16)
    for band in (np.zeros((15, 3)), np.zeros((16, 2)), np.zeros(48),
                 np.zeros((16, 3, 1)), identity_band(16).T):
        with pytest.raises(AssemblyError, match="grid with 16 points"):
            Tridiagonal(band, g)
    for entry in ((3, 2), (3, 0), (0, 1), (15, 1)):
        bad = identity_band(16).astype(complex)
        bad[entry] = complex(0.0, np.inf)
        with pytest.raises(AssemblyError, match="non-finite"):
            Tridiagonal(bad, g)
    for entry in ((0, 0), (15, 2)):     # M[0, -1] and M[n-1, n]
        bad = identity_band(16)
        bad[entry] = 1e-300
        with pytest.raises(AssemblyError, match="outside the matrix"):
            Tridiagonal(bad, g)
    M = Tridiagonal(identity_band(16), g)
    with pytest.raises(ValueError, match="read-only"):
        M.band[0, 1] = 2.0
    assert np.array_equal(dense(M), np.eye(16))


def test_tridiagonal_keeps_the_callers_arrays_writeable():
    # complex arrays, which np.asarray would not copy, are copied too: the
    # caller's stay writeable, and writing to them leaves the operator as
    # it was
    g = Grid(-1.0, 1.0, 16)
    band = identity_band(16).astype(complex)
    M = Tridiagonal(band, g)
    assert band.flags.writeable
    assert not M.band.flags.writeable
    band[0, 1] = band[1, 0] = 2.0
    assert np.array_equal(dense(M), np.eye(16))
