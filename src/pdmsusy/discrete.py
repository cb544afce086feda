"""Grid discretization and residual measurement.

Three-point stencils on a uniform 1-D grid make the Hamiltonian
H = -d(m^{-1} d) + Vtilde (midpoint-sampled mass flux, Dirichlet walls as
identity rows decoupled from the interior block) and the charge operator C
(central stencils with node-sampled coefficients, zeroed boundary rows)
tridiagonal, and both are stored as their three diagonals (Tridiagonal).
Only the residuals and the spectrum of zeta conj(zeta) multiply them, and
those build the dense n x n matrix (Tridiagonal.dense, at most
MAX_DENSE_DIMENSION rows).  Parity P: x -> -x is no matrix: on a grid
symmetric about 0 it is the node reversal, so zeta = C P reverses the
columns of C and P conj(H) P reverses both axes of conj(H).

Operator identities such as zeta = zeta^dagger or zeta zeta* = sum_k l_k
H^{N-k} hold in the continuum; their discrete counterparts are measured by
applying the residual matrix to a fixed basis of smooth, boundary-decaying
probe vectors and taking interior-restricted Frobenius norms, normalized by
the dominant term.  Raw entrywise matrix norms would not converge (the
compact flux Laplacian and composed central stencils differ by a null
stencil with O(1) entries); the probe measurement sees the operator action
and decreases at the stencil order O(h^2).

The spectrum of H is computed from its three diagonals, never from a dense
copy: H's interior block T is tridiagonal, and its eigenvalues are the roots
of p(z) = det(T - z), which the three-term recurrence evaluates in O(n) per
point.  A divide-and-conquer Ehrlich-Aberth iteration (Aberth, Math. Comp.
27, 339 (1973); Bini, Gemignani & Tisseur, SIAM J. Matrix Anal. Appl. 27,
153 (2005)) splits T in halves down to blocks of BASE_BLOCK rows, solves
those dense, and refines the union of the halves' eigenvalues into the
eigenvalues of their parent, all n at once, in O(n^2) per sweep.  The
Newton ratio p/p' = -1/trace((T - z)^-1) comes from the forward and
backward pivots of T - z; a pivot that vanishes is replaced by 2*u*||T||
(u the unit roundoff).  A value is converged when its last correction is
at most n*u*||T||_inf, and a last sweep over all n values confirms it.
A level that does not converge within SWEEP_BUDGET sweeps or meets a
non-finite correction has its blocks solved dense instead, as the base
blocks are: where eigenvalue condition numbers are large (~1e10 on
CPT-conserved H with a variable mass) that stop lies below the rounding
noise of the eigenvalues, and no iteration reaches it.  A sum of
eigenvalues that misses trace(T) by more than the sum of the stopping
thresholds raises EigensolverError.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .expr import Expr, ParamEnv, differentiate, evaluate_many
from .model import MassFn

__all__ = [
    "DiscreteError", "GridError", "AssemblyError", "EigensolverError",
    "UnsupportedOrderError",
    "Grid", "Tridiagonal", "Spectrum", "ConvergenceResult",
    "assemble_hamiltonian", "assemble_charge", "probe_matrix",
    "constraint_residuals", "dense_eigenvalues",
    "hamiltonian_spectrum", "susy_algebra_spectrum",
    "conjugate_pairing_distance", "riccati_residual", "convergence_study",
    "wavefunction_from_log_derivative", "l2_normalizable",
    "MAX_DENSE_DIMENSION", "RESIDUAL_FLOOR",
]

MAX_DENSE_DIMENSION = 4096
RESIDUAL_FLOOR = 1e-14

UNIT_ROUNDOFF = 2.0 ** -53
BASE_BLOCK = 48          # tridiagonal blocks this small are solved dense
SWEEP_BUDGET = 60        # Aberth sweeps allowed per level of the recursion
WORK_BYTES = 16 * 2**20  # scratch buffer of one solve: the pivot and
                         # pairwise-sum arrays of a chunk of points

log = logging.getLogger(__name__)


class DiscreteError(Exception):
    pass


class GridError(DiscreteError):
    pass


class AssemblyError(DiscreteError):
    pass


class EigensolverError(DiscreteError):
    pass


class UnsupportedOrderError(DiscreteError):
    pass


@dataclass(frozen=True)
class Grid:
    """Uniform grid; node i sits at x_min + i*h with h = (x_max-x_min)/(n-1)."""

    x_min: float
    x_max: float
    points: int

    def __post_init__(self):
        if self.points < 16:
            raise GridError(f"need at least 16 points, got {self.points}")
        if not self.x_min < self.x_max:
            raise GridError(f"empty grid ({self.x_min}, {self.x_max})")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def symmetric(self) -> bool:
        return abs(self.x_min + self.x_max) <= 1e-14 * max(1.0, abs(self.x_max))

    def nodes(self) -> np.ndarray:
        return self.x_min + np.arange(self.points) * self.h

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def refined(self) -> "Grid":
        """Grid with halved spacing on the same interval."""
        return Grid(self.x_min, self.x_max, 2 * self.points - 1)


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Complex tridiagonal operator on a grid, stored as its three
    diagonals: lower[k] = M[k+1, k], diag[k] = M[k, k] and
    upper[k] = M[k, k+1].  The diagonals are read-only once built."""

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    grid: Grid
    label: str = ""

    def __post_init__(self):
        n = self.grid.points
        for name, size in (("lower", n - 1), ("diag", n), ("upper", n - 1)):
            a = np.asarray(getattr(self, name), dtype=complex)
            if a.shape != (size,):
                raise AssemblyError(
                    f"{name} diagonal of operator '{self.label}' has shape "
                    f"{a.shape}, a grid with {n} points needs ({size},)")
            if not (np.all(np.isfinite(a.real)) and np.all(np.isfinite(a.imag))):
                raise AssemblyError(
                    f"non-finite entries in operator '{self.label}'")
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def n(self) -> int:
        return self.grid.points

    def dense(self) -> np.ndarray:
        """The n x n matrix, for the consumers that multiply or zgeev it;
        refused above MAX_DENSE_DIMENSION grid points."""
        n = self.n
        if n > MAX_DENSE_DIMENSION:
            raise AssemblyError(
                f"dense budget is n <= {MAX_DENSE_DIMENSION}, got {n}")
        out = np.zeros((n, n), dtype=complex)
        flat = out.reshape(-1)
        flat[::n + 1] = self.diag
        flat[n::n + 1] = self.lower
        flat[1::n + 1] = self.upper
        return out


@dataclass
class Spectrum:
    """Eigenvalues sorted by (Re, Im) plus the conjugate-pairing distance."""

    values: np.ndarray
    conjugate_pairing_distance: float

    def __len__(self) -> int:
        return int(self.values.size)


def _sorted_eigenvalues(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def assemble_hamiltonian(m: MassFn, vtilde: Expr, g: Grid,
                         env: Optional[ParamEnv] = None) -> Tridiagonal:
    """H = -d(m^{-1} d) + Vtilde with midpoint mass sampling:

        (H psi)_i = -(1/h^2)[ (psi_{i+1}-psi_i)/m_{i+1/2}
                              - (psi_i-psi_{i-1})/m_{i-1/2} ] + Vtilde_i psi_i

    on interior rows; Dirichlet boundary rows are identity rows decoupled
    from the interior block.  Second-order accurate.  MassFn.validate
    raises MassError where a midpoint mass is not real and positive.
    """
    n = g.points
    h = g.h
    inv_m = 1.0 / m.validate(env, g.midpoints())
    v_nodes = evaluate_many(vtilde, g.nodes()[1:-1], env)

    diag = np.ones(n, dtype=complex)
    diag[1:-1] = (inv_m[:-1] + inv_m[1:]) / h**2 + v_nodes
    off = np.zeros(n - 1, dtype=complex)    # H is symmetric: lower = upper
    off[1:-1] = -inv_m[1:-1] / h**2
    return Tridiagonal(off, diag, off, g, label="H")


def assemble_charge(coeffs, g: Grid, env: Optional[ParamEnv] = None) -> Tridiagonal:
    """Discrete N-th order charge operator with central stencils and
    node-sampled coefficients; boundary rows zeroed.

    Supported orders are N = 1 (lead * D1 + sub) and N = 2
    (lead * D2 + sub * D1 + u0); for N >= 3 the interior coefficients have
    no closed form and assembly raises UnsupportedOrderError.
    """
    n_order = coeffs.n
    if n_order > 2:
        raise UnsupportedOrderError(
            f"no discrete stencil for order {n_order}: interior coefficients "
            "u_0..u_(N-3) are not derivable in closed form")
    if any(entry is None for entry in coeffs.u):
        raise UnsupportedOrderError("charge coefficients contain absent entries")

    n = g.points
    h = g.h
    x_int = g.nodes()[1:-1]
    lead = evaluate_many(coeffs.lead, x_int, env)
    sub = evaluate_many(coeffs.sub, x_int, env)

    lower = np.zeros(n - 1, dtype=complex)     # row i holds lower[i - 1],
    diag = np.zeros(n, dtype=complex)          # diag[i] and upper[i]
    upper = np.zeros(n - 1, dtype=complex)
    if n_order == 1:
        lower[:-1] = -lead / (2 * h)
        upper[1:] = lead / (2 * h)
        diag[1:-1] = sub
    else:
        u0 = evaluate_many(coeffs.u[0], x_int, env)
        lower[:-1] = lead / h**2 - sub / (2 * h)
        upper[1:] = lead / h**2 + sub / (2 * h)
        diag[1:-1] = -2 * lead / h**2 + u0
    return Tridiagonal(lower, diag, upper, g, label=f"C{n_order}")


# ---------------------------------------------------------------------------
# Constraint residuals
# ---------------------------------------------------------------------------

def probe_matrix(g: Grid) -> np.ndarray:
    """Fixed basis of eight smooth probe vectors (Gaussian-windowed
    polynomials and low harmonics), normalized columns; deterministic."""
    x = g.nodes()
    half = 0.5 * (g.x_max - g.x_min)
    center = 0.5 * (g.x_max + g.x_min)
    t = (x - center) / half
    window = np.exp(-(3.0 * t) ** 2)
    shapes = [np.ones_like(t), t, t**2, t**3,
              np.cos(np.pi * t), np.sin(np.pi * t),
              np.cos(2 * np.pi * t), np.sin(2 * np.pi * t)]
    cols = [window * base for base in shapes]
    return np.stack([col / np.linalg.norm(col) for col in cols],
                    axis=1).astype(complex)


def _zeta(C: Tridiagonal) -> np.ndarray:
    """zeta = C P: the columns of the dense C reversed (P is the node
    reversal)."""
    if not C.grid.symmetric:
        raise GridError("parity needs a grid symmetric about 0, got "
                        f"({C.grid.x_min}, {C.grid.x_max})")
    return C.dense()[:, ::-1]


def constraint_residuals(H: Tridiagonal, C: Tridiagonal,
                         l: Sequence[complex]) -> dict:
    """Normalized residuals of the three operator constraints with
    zeta = C P:

        pseudo : zeta - zeta^dagger                     (Hermiticity of zeta)
        cpt    : C (P conj(H) P) - H C                  (CPT conservation)
        susy   : zeta conj(zeta) - sum_k l_k H^{N-k}    (SUSY polynomial)

    Each residual matrix is applied to smooth probe vectors, restricted to
    interior rows (boundary rows plus a 2N-node stencil margin trimmed) and
    measured in the Frobenius norm relative to the dominant term.
    """
    if H.grid != C.grid:
        raise GridError("H and C must share one grid")
    zeta = _zeta(C)
    coeffs = tuple(complex(c) for c in l)
    n_order = len(coeffs)
    if n_order < 1:
        raise DiscreteError("need at least one SUSY constant")
    n = H.n
    margin = 1 + 2 * n_order
    if 2 * margin >= n:
        raise GridError(f"margin {margin} leaves no interior rows for n={n}")
    V = probe_matrix(H.grid)

    rows = slice(margin, n - margin)
    Hd, Cd = H.dense(), zeta[:, ::-1]      # zeta's columns restored: C

    def act(mat: np.ndarray) -> float:
        return float(np.linalg.norm((mat @ V)[rows]))

    out = {}
    out["pseudo"] = act(zeta - zeta.conj().T) / max(act(zeta), np.finfo(float).tiny)

    lhs = Cd @ Hd[::-1, ::-1].conj()       # C (P conj(H) P)
    rhs = Hd @ Cd
    out["cpt"] = act(lhs - rhs) / max(act(lhs), act(rhs), np.finfo(float).tiny)

    poly = np.diag(np.full(n, coeffs[-1]))  # l_N H^0
    power = Hd
    for k in range(n_order - 1, 0, -1):    # l_k H^{N-k}
        poly += coeffs[k - 1] * power
        power = power @ Hd
    poly += power                          # H^N
    lhs2 = zeta @ zeta.conj()
    out["susy"] = act(lhs2 - poly) / max(act(lhs2), act(poly), np.finfo(float).tiny)
    return out


# ---------------------------------------------------------------------------
# Eigenvalues
# ---------------------------------------------------------------------------

def dense_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a dense complex matrix, sorted by (Re, Im).

    Backed by LAPACK's standard dense pipeline (balancing, Householder
    Hessenberg reduction, shifted QR); the computed eigenvalues are exact
    for some M + E with ||E|| <= p(n) * u * ||M||, p(n) a modest function
    of n and u the unit roundoff (LAPACK Users' Guide, section 4.8).
    Non-convergence of the QR iteration (LAPACK's ~30n sweep budget) is
    reported, never silent.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EigensolverError(f"need a square matrix, got shape {a.shape}")
    if a.shape[0] > MAX_DENSE_DIMENSION:
        raise EigensolverError(
            f"dense budget is n <= {MAX_DENSE_DIMENSION}, got {a.shape[0]}")
    try:
        values = np.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise EigensolverError(f"QR iteration did not converge: {exc}") from exc
    return _sorted_eigenvalues(values)


def conjugate_pairing_distance(values: np.ndarray) -> float:
    """Greedy nearest-pair matching distance between the eigenvalue multiset
    and its conjugate image (both sorted by (Re, Im)); 0 for self-conjugate
    spectra."""
    ev = _sorted_eigenvalues(np.asarray(values, dtype=complex))
    target = _sorted_eigenvalues(ev.conj())
    used = np.zeros(ev.size, dtype=bool)
    worst = 0.0
    for s in ev:
        d = np.abs(target - s)
        d[used] = np.inf
        j = int(np.argmin(d))
        used[j] = True
        worst = max(worst, float(d[j]))
    return worst


def _resolvent_trace(az: np.ndarray, bt: np.ndarray, tplus: np.ndarray,
                     pivmin: float = 0.0) -> np.ndarray:
    """trace((T - z)^-1) for each column of az = a - z (the diagonal of
    T - z per point z) and bt (the off-diagonal products, one column or
    one per point).  az is overwritten; tplus is scratch space of its shape.

    The k-th diagonal entry of the resolvent is 1/g_k with
    g_k = d+_k + d-_k - (a_k - z) = d-_k - b_(k-1) / d+_(k-1), where d+
    and d- are the pivots of the forward and backward LDU factorizations
    of T - z.  With pivmin > 0 (the stable form) a zero pivot or g_k
    becomes pivmin, a change of a_k by pivmin; without it a zero pivot
    gives a non-finite trace.  Small nonzero values are kept: a small
    pivot only makes the next one large, and a small g_k is the true,
    large resolvent entry near an eigenvalue, which raising it to pivmin
    would cap (and so move the Newton ratio by more than the stopping
    threshold).
    """
    rows = az.shape[0]
    d = az[0].copy()
    tplus[0] = 0.0
    for k in range(1, rows):            # forward: tplus_k = b_(k-1) / d+_(k-1)
        if pivmin:
            d[d == 0] = pivmin
        np.divide(bt[k - 1], d, out=tplus[k])
        np.subtract(az[k], tplus[k], out=d)
    t = d                               # d+ is no longer needed
    for k in range(rows - 2, -1, -1):   # backward: az_k becomes d-_k
        if pivmin:
            az[k + 1][az[k + 1] == 0] = pivmin
        np.divide(bt[k], az[k + 1], out=t)
        np.subtract(az[k], t, out=az[k])
    g = np.subtract(az, tplus, out=az)
    if pivmin:
        g[g == 0] = pivmin
    return np.reciprocal(g, out=g).sum(axis=0)


def _newton_ratio(a_t: np.ndarray, cols, bt: np.ndarray, z: np.ndarray,
                  az: np.ndarray, scratch: np.ndarray,
                  pivmin: float) -> np.ndarray:
    """N = p/p' = -1/trace((T - z)^-1) at the points z (see
    _resolvent_trace).  The diagonal of T at each point is the column cols
    of a_t, or its only column when cols is None; bt holds the off-diagonal
    products, one column or one per point; az and scratch are work arrays
    of shape (rows, points).  The fast form, which leaves zero pivots
    alone, gives the stable form's result wherever it is finite; the
    points where it is not are evaluated again in the stable form."""
    if cols is None:
        np.subtract(a_t, z, out=az)
    else:
        np.take(a_t, cols, axis=1, out=az, mode="clip")
        az -= z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace = _resolvent_trace(az, bt, scratch)
        bad = ~np.isfinite(trace)
        if bad.any():
            redo = (a_t if cols is None else a_t[:, cols[bad]]) - z[bad]
            trace[bad] = _resolvent_trace(
                redo, bt if bt.shape[1] == 1 else bt[:, bad],
                np.empty_like(redo), pivmin)
        return -1.0 / trace


def _repulsion(zi: np.ndarray, zrows: np.ndarray, pos: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """sum_{j != i} 1/(z_i - z_j) for each point z_i, the sum running over
    its row of zrows (one shared row or one per point); pos is the index
    of z_i in its row and out is scratch space for the terms."""
    np.subtract(zi[:, None], zrows, out=out)
    with np.errstate(divide="ignore", invalid="ignore"):
        np.reciprocal(out, out=out)
    out[np.arange(zi.size), pos] = 0.0
    return out.sum(axis=1)


def _aberth(a: np.ndarray, beta: np.ndarray, z: np.ndarray, tol: float,
            pivmin: float, confirm: bool, work: np.ndarray):
    """Refine the guesses z (B, L) into the eigenvalues of B independent
    tridiagonal blocks with diagonals a (B, L) and off-diagonal products
    beta (B, L-1) by Ehrlich-Aberth sweeps

        z_i <- z_i - w_i,  w_i = N_i / (1 - N_i sum_{j != i} 1/(z_i - z_j)),

    N = p/p' (see _newton_ratio), the sum running over the guesses of the
    same block.  The points of a sweep go in chunks whose arrays fit the
    flat complex buffer work, and each chunk sees the values that the
    chunks before it updated.  A value is frozen once |w_i| <= tol.  With
    confirm, one more sweep then updates every value, and those it moves
    by more than tol iterate again.  Returns the refined values, the
    number of sweeps and the largest final |w_i|."""
    blocks, size = a.shape
    z = z.copy()
    flat = z.reshape(-1)
    active = np.arange(flat.size)
    last = 0.0
    # a chunk holds a - z and the pivot quotients, and with several blocks
    # the off-diagonal products of each point: 2 or 3 (size, width) arrays
    arrays = 2 if blocks == 1 else 3
    width = max(1, work.size // (arrays * size))
    a_t, b_t = np.ascontiguousarray(a.T), np.ascontiguousarray(beta.T)
    for sweep in range(1, SWEEP_BUDGET + 1):
        w = np.empty(active.size, dtype=complex)
        for start in range(0, active.size, width):
            idx = active[start:start + width]
            owner, pos = np.divmod(idx, size)
            zi = flat[idx]
            chunk = work[:arrays * size * idx.size].reshape(
                arrays, size, idx.size)
            if blocks == 1:       # the diagonals broadcast to every point
                cols, bt, zrows = None, b_t, z
            else:
                cols, zrows = owner, z[owner]
                bt = np.take(b_t, owner, axis=1, out=chunk[2, :-1],
                             mode="clip")
            newton = _newton_ratio(a_t, cols, bt, zi, chunk[0], chunk[1],
                                   pivmin)
            w[start:start + idx.size] = newton / (1.0 - newton * _repulsion(
                zi, zrows, pos, chunk[1].reshape(idx.size, size)))
            flat[idx] -= w[start:start + idx.size]
        if not np.all(np.isfinite(w)):
            raise EigensolverError(
                f"non-finite Aberth correction at {np.sum(~np.isfinite(w))} "
                f"of {flat.size} eigenvalues (blocks of {size} rows)")
        done = np.abs(w) <= tol
        last = max(last, float(np.max(np.abs(w[done]), initial=0.0)))
        active = active[~done]
        if active.size == 0:
            if not confirm:
                return z, sweep, last
            confirm, last = False, 0.0
            active = np.arange(flat.size)
    raise EigensolverError(
        f"{active.size} of {flat.size} eigenvalues unconverged after "
        f"{SWEEP_BUDGET} Aberth sweeps (blocks of {size} rows, last "
        f"correction above {tol:.3e})")


def _tridiagonal_eigenvalues(a: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """All eigenvalues of the tridiagonal matrix T with diagonal a and
    off-diagonal products beta_k = T[k, k+1] T[k+1, k], sorted by (Re, Im).

    T is split in halves down to blocks of at most BASE_BLOCK rows, which
    are solved dense in their symmetrized form (off-diagonals sqrt(beta),
    a diagonal similarity of T).  Each level refines the eigenvalues of its
    halves, offset by distinct multiples of 1e3*u*||T|| so that the equal
    eigenvalues of mirror-image halves do not coincide, with _aberth to
    the stopping threshold L*u*||T||_inf for blocks of L rows; the top
    level (L = n) ends with a confirmation sweep over all n values.  A
    level on which _aberth raises EigensolverError has its blocks solved
    dense, like the base blocks.
    """
    a = np.asarray(a, dtype=complex)
    beta = np.asarray(beta, dtype=complex)
    n = a.size
    root = np.sqrt(beta)
    off = np.abs(root)
    norm = max(float(np.max(np.abs(a) + np.r_[0.0, off] + np.r_[off, 0.0])),
               np.finfo(float).tiny)
    pivmin = 2.0 * UNIT_ROUNDOFF * norm

    levels = [np.array([0, n])]        # block boundaries, top level first
    while np.max(np.diff(levels[-1])) > BASE_BLOCK:
        edges = levels[-1]
        levels.append(np.union1d(edges, edges[:-1] + np.diff(edges) // 2))

    def dense_blocks(edges):
        return np.concatenate([
            dense_eigenvalues(np.diag(a[lo:hi]) + np.diag(root[lo:hi - 1], 1)
                              + np.diag(root[lo:hi - 1], -1))
            for lo, hi in zip(edges[:-1], edges[1:])])

    z = dense_blocks(levels.pop())

    offsets = 1e3 * UNIT_ROUNDOFF * norm * np.exp(
        2j * np.pi * (np.arange(n) + 0.5) / n)
    work = np.empty(max(min(WORK_BYTES // 16, 2 * n * n), 3 * n), dtype=complex)
    sweeps = []
    last = 0.0
    for edges in reversed(levels):
        z = z + offsets
        starts, sizes = edges[:-1], np.diff(edges)
        level_sweeps = 0
        try:
            for size in np.unique(sizes):  # the blocks of a level differ by <= 1
                rows = starts[sizes == size][:, None] + np.arange(size)
                z[rows], count, last = _aberth(
                    a[rows], beta[rows[:, :-1]], z[rows],
                    size * UNIT_ROUNDOFF * norm, pivmin, size == n, work)
                level_sweeps = max(level_sweeps, count)
        except EigensolverError as exc:
            log.info("tridiagonal eigenvalues: %s; the level's blocks are "
                     "solved dense", exc)
            z, level_sweeps, last = dense_blocks(edges), "dense", math.nan
        sweeps.append(level_sweeps)

    # sum of the eigenvalues = trace; each value is within its stopping
    # threshold n*u*||T|| of an eigenvalue, so the sum within n^2*u*||T||
    excess = abs(z.sum() - a.sum())
    bound = n * n * UNIT_ROUNDOFF * norm
    if not excess <= bound:
        raise EigensolverError(
            f"sum of the {n} computed eigenvalues misses trace(T) by "
            f"{excess:.3e} > {bound:.3e}")
    log.info("tridiagonal eigenvalues: n=%d, sweeps per level (top last) "
             "%s, final max |w|/(u*||T||) = %.3g", n, sweeps,
             last / (UNIT_ROUNDOFF * norm))
    return _sorted_eigenvalues(z)


def hamiltonian_spectrum(M: Tridiagonal) -> Spectrum:
    """Spectrum of the decoupled interior block of a Dirichlet Hamiltonian
    (drops the two identity boundary rows, which would otherwise contribute
    two artificial unit eigenvalues), from its three diagonals.

    Raises EigensolverError when the solve fails.
    """
    values = _tridiagonal_eigenvalues(M.diag[1:-1],
                                      M.upper[1:-1] * M.lower[1:-1])
    return Spectrum(values=values,
                    conjugate_pairing_distance=conjugate_pairing_distance(values))


def susy_algebra_spectrum(C: Tridiagonal) -> Spectrum:
    """Spectrum of zeta conj(zeta) with zeta = C P, the discrete image of
    the SUSY polynomial sum_k l_k H^{N-k}.

    This multiset is exactly closed under conjugation for every zeta
    (spec(AB) = spec(BA) and conj(zeta conj(zeta)) = conj(zeta) zeta), so
    its measured pairing distance isolates eigensolver backward error.  It
    does not test H: it is small also where H has no conjugate pair.
    """
    zeta = _zeta(C)
    values = dense_eigenvalues(zeta @ zeta.conj())
    return Spectrum(values=values,
                    conjugate_pairing_distance=conjugate_pairing_distance(values))


# ---------------------------------------------------------------------------
# Riccati residual (shared verification kernel)
# ---------------------------------------------------------------------------

def riccati_residual(m: MassFn, vtilde: Expr, phi: Expr, e: complex,
                     samples: Sequence[float],
                     env: Optional[ParamEnv] = None) -> float:
    """Sup over samples of |-(phi' + phi^2)/m + (m'/m^2) phi + Vtilde - e|,
    the log-derivative form of H psi = e psi."""
    dphi = differentiate(phi)
    mx = m.expr
    dm = differentiate(mx)
    xs = np.asarray(list(samples), dtype=float)
    mv, pv, dpv, dmv, vv = (evaluate_many(f, xs, env)
                            for f in (mx, phi, dphi, dm, vtilde))
    r = -(dpv + pv * pv) / mv + (dmv / (mv * mv)) * pv + vv - complex(e)
    return float(np.max(np.abs(r), initial=0.0))


# ---------------------------------------------------------------------------
# Convergence studies
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConvergenceResult:
    order: float
    residuals: tuple
    floored: bool = False


def convergence_study(residual_fn: Callable[[Grid], Mapping[str, float]],
                      grids: Sequence[Grid]) -> dict:
    """Least-squares slope of log(residual) against log(h) per residual name.

    Needs at least three grids with successively halved spacing.  Residuals
    below the 1e-14 floor are flagged as converged-to-floor (the slope is
    then fit anyway but carries no information).
    """
    if len(grids) < 3:
        raise GridError("need at least 3 grids")
    hs = [g.h for g in grids]
    for a, b in zip(hs, hs[1:]):
        if not 1.9 <= a / b <= 2.1:
            raise GridError(f"grid spacings must halve, got ratio {a / b:.3f}")
    rows = [dict(residual_fn(g)) for g in grids]
    names = rows[0].keys()
    out = {}
    log_h = np.log(hs)
    for name in names:
        vals = np.array([row[name] for row in rows], dtype=float)
        floored = bool(np.any(vals < RESIDUAL_FLOOR))
        slope = float(np.polyfit(log_h, np.log(np.maximum(vals, 1e-300)), 1)[0])
        out[name] = ConvergenceResult(order=slope, residuals=tuple(vals),
                                      floored=floored)
    return out


# ---------------------------------------------------------------------------
# Wavefunction reconstruction from a log-derivative
# ---------------------------------------------------------------------------

def wavefunction_from_log_derivative(phi: Expr, xs: Sequence[float],
                                     env: Optional[ParamEnv] = None) -> np.ndarray:
    """psi on the nodes from psi'/psi = phi by fixed-step 4th-order
    (Simpson) cumulative quadrature of phi from the domain midpoint, with
    the normalization psi(midpoint) = 1."""
    xs = np.asarray(list(xs), dtype=float)
    midpoint = 0.5 * (xs[0] + xs[-1])

    anchor = int(np.argmin(np.abs(xs - midpoint)))
    # Simpson segments (a, b) in summation order: midpoint to the anchor
    # node, then outward to the right, then outward to the left
    a = np.concatenate([[midpoint], xs[anchor:-1], xs[:anchor][::-1]])
    b = np.concatenate([[xs[anchor]], xs[anchor + 1:], xs[1:anchor + 1][::-1]])
    live = a != b
    f = evaluate_many(phi, np.column_stack([a, 0.5 * (a + b), b])[live].ravel(),
                      env).reshape(-1, 3)
    segments = np.zeros(a.size, dtype=complex)
    segments[live] = ((b - a)[live] / 6.0) * (f[:, 0] + 4.0 * f[:, 1] + f[:, 2])
    right = xs.size - anchor
    integral = np.empty(xs.size, dtype=complex)
    integral[anchor:] = np.add.accumulate(segments[:right])
    integral[anchor::-1] = np.subtract.accumulate(
        np.concatenate([segments[:1], segments[right:]]))
    return np.exp(integral)


def l2_normalizable(psi: np.ndarray) -> bool:
    """Window-confinement test: boundary amplitude at most 1e-3 of the
    peak amplitude, i.e. |psi|^2 at the walls is negligible."""
    peak = float(np.max(np.abs(psi)))
    edge = math.sqrt(abs(psi[0]) ** 2 + abs(psi[-1]) ** 2)
    return edge <= 1e-3 * peak
