"""CPT-conserved position-dependent-mass SUSY Hamiltonians.

Build mass-deformed superpotentials, first/second/N-th order charge-operator
pipelines, discretize the resulting non-Hermitian Hamiltonians, and verify
every closed-form identity numerically at desk scale.
"""

from .expr import (
    Expr, ParamEnv, ExprError, ParseError, EvaluationError,
    UnboundParameterError, PoleError,
    parse, differentiate, evaluate, evaluate_many,
)
from .model import (
    MassFn, ModelSpec, SymmetryReport, ModelError, MassError, DomainError,
    mass_deformed_superpotential, constant_mass_superpotential, rho,
    pt_image, symmetry_report, chebyshev_points,
)
from .susy1 import FirstOrderSystem, build_first_order
from .susy2 import (
    SecondOrderSystem, SingularPointError, f_aux, u0_closed, u0_integrated,
    potential_second_order, zero_mode_logderivs, lowest_eigenvalues,
    build_second_order,
)
from .susyn import (
    NthOrderCoefficients, EnergyPolynomial, delta_v_general,
    potential_general, delta_u_coefficients, energy_roots,
)
from .discrete import (
    Grid, Tridiagonal, Spectrum, DiscreteError, GridError, AssemblyError,
    EigensolverError, UnsupportedOrderError,
    assemble_hamiltonian, assemble_charge, constraint_residuals,
    dense_eigenvalues,
    lowest_levels, susy_algebra_spectrum, conjugate_pairing_distance,
    riccati_residual, convergence_study, wavefunction_from_log_derivative,
    l2_normalizable,
)

__version__ = "0.1.0"
