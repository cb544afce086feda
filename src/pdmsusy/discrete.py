"""Grid discretization and residual measurement.

Three-point stencils on a uniform 1-D grid make the Hamiltonian
H = -d(m^{-1} d) + Vtilde (midpoint-sampled mass flux, Dirichlet walls as
identity rows decoupled from the interior block) and the charge operator C
(central stencils with node-sampled coefficients, zeroed boundary rows)
tridiagonal, and both are stored as their band (Tridiagonal): row i holds
M[i, i-1], M[i, i] and M[i, i+1], from assembly to eigensolver.  No n x n
operator is built: the constraint residuals and zeta conj(zeta) multiply
bands (_band_product), and only eigensolver inputs are n x n.  Both refuse
n > MAX_DENSE_DIMENSION.  Parity P: x -> -x is band data: on a grid
symmetric about 0 it reverses the nodes, so P M P is M's band reversed,
zeta V = C (P V), and zeta conj(zeta) = P ((P C P) conj(C)) P.  The
coefficients of H and C on several grids (a refinement chain) come from
one sampling at the union of their points (coefficient_samples), and each
grid's slice goes into its assembly as ``samples``.

Operator identities such as zeta = zeta^dagger or zeta zeta* = sum_k l_k
H^{N-k} hold in the continuum; their discrete counterparts are measured by
applying the residual matrix to a fixed basis of smooth, boundary-decaying
probe vectors and taking interior-restricted Frobenius norms, normalized by
the dominant term.  Raw entrywise matrix norms would not converge (the
compact flux Laplacian and composed central stencils differ by a null
stencil with O(1) entries); the probe measurement sees the operator action
and decreases at the stencil order O(h^2).  The products of tridiagonal
operators are pentadiagonal, and constraint_residuals keeps them in
diagonal-by-row storage.  Each product is taken in O(n) time and memory
and summed in the order of the dense n x n product (_band_product says
how, and why).  The probe actions are plain sums (_band_action); they move
the residuals by under 2e-3 of the matmul rounding bound 100 n u (u the
unit roundoff) of the dense formulas.

The spectrum of H is computed from its band, and only its low
end, where the paper's claims live (the high levels of a 3-point stencil
are discretization artifacts): lowest_levels returns the LOW_LEVELS
lowest levels by real part of H's interior block T.  T is halved down to at
most COARSE_ROWS rows, solved dense there, and the lowest values plus
SPARES spares are refined on each finer grid by Ehrlich-Aberth sweeps
(Aberth, Math. Comp. 27, 339 (1973); Bini, Gemignani & Tisseur, SIAM J.
Matrix Anal. Appl. 27, 153 (2005)) over the tracked values, in O(n) per
value and sweep.  A value stops once its correction is at most
n*u*||T||_inf*kappa_i (u the unit roundoff, kappa_i its condition number),
its error bound; a spare that does not stop is dropped.  The argument
principle certifies the result: the winding number of det(T - z) along a
rectangle that holds T's spectrum up to midway between level k and k + 1
must equal k, with the k error discs inside it and apart (discs that
overlap must hold as many eigenvalues, by their own winding number).
Otherwise the solve raises EigensolverError; there is no other solver to
fall back on.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .expr import Expr, ParamEnv, differentiate, evaluate_many, node_counts
from .model import MassFn, symmetric_interval

__all__ = [
    "DiscreteError", "GridError", "AssemblyError", "EigensolverError",
    "UnsupportedOrderError",
    "Grid", "Tridiagonal", "Spectrum", "ConvergenceResult",
    "coefficient_samples", "assemble_hamiltonian", "assemble_charge",
    "constraint_residuals",
    "dense_eigenvalues", "lowest_levels", "susy_algebra_spectrum",
    "conjugate_pairing_distance",
    "riccati_residual", "convergence_study",
    "wavefunction_from_log_derivative", "l2_normalizable",
    "check_dense_budget", "MAX_DENSE_DIMENSION", "RESIDUAL_FLOOR",
]

MAX_DENSE_DIMENSION = 4096
RESIDUAL_FLOOR = 1e-14

UNIT_ROUNDOFF = 2.0 ** -53
LOW_LEVELS = 16          # levels of H that lowest_levels returns
SPARES = 8               # values tracked above the requested levels
COARSE_ROWS = 200        # a grid this small is solved dense
SWEEP_BUDGET = 60        # Aberth sweeps allowed per grid
CONTOUR_POINTS = 1000    # points of the counting contour before refinement
CONTOUR_BUDGET = 2**16   # points it may be refined to
PHASE_STEP = np.pi / 4   # largest phase step of det(T - z) between points
_TILE = 16               # rows per panel
_STACK_BYTES = 160 << 10  # of the blocks stacked into one matmul (each
                          # stacked array under glibc's 128 KiB mmap threshold)
_KBLOCK = 128            # zgemm k-block and M unroll of OpenBLAS 0.3.31 on a
_UNROLL_M = 4            # SkylakeX core at one thread (_kseams, _layout)

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
        if not 16 <= self.points <= 2**53:  # node indices are exact floats
            raise GridError(f"need 16 to 2^53 points, got {self.points}")
        if not self.x_min < self.x_max:
            raise GridError(f"empty grid ({self.x_min}, {self.x_max})")
        if not math.isfinite(self.x_max - self.x_min):
            raise GridError(f"grid ({self.x_min}, {self.x_max}) is wider "
                            "than the float range")
        h2 = self.h * self.h            # the stencils divide by h^2
        if not (h2 and math.isfinite(h2) and math.isfinite(1.0 / h2)):
            raise GridError(f"spacing {self.h:g} squares past the float range")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.points - 1)

    @property
    def symmetric(self) -> bool:
        return symmetric_interval(self.x_min, self.x_max)

    def nodes(self) -> np.ndarray:
        return self.x_min + np.arange(self.points) * self.h

    def midpoints(self) -> np.ndarray:
        return self.nodes()[:-1] + 0.5 * self.h

    def refined(self) -> "Grid":
        """Grid with halved spacing on the same interval."""
        return Grid(self.x_min, self.x_max, 2 * self.points - 1)


def check_dense_budget(n: int) -> None:
    if n > MAX_DENSE_DIMENSION:
        raise AssemblyError(
            f"dense budget is n <= {MAX_DENSE_DIMENSION}, got {n}")


@dataclass(frozen=True, eq=False)
class Tridiagonal:
    """Complex tridiagonal operator M on a grid, stored as its band: row i
    of the (n, 3) array band is (M[i, i-1], M[i, i], M[i, i+1]), and the
    two slots outside M, band[0, 0] and band[n-1, 2], are zero.  The band
    is a read-only copy."""

    band: np.ndarray
    grid: Grid
    label: str = ""

    def __post_init__(self):
        n = self.grid.points
        band = np.array(self.band, dtype=complex)
        if band.shape != (n, 3):
            raise AssemblyError(
                f"band of operator '{self.label}' has shape {band.shape}, "
                f"a grid with {n} points needs ({n}, 3)")
        if not np.all(np.isfinite(band)):
            raise AssemblyError(
                f"non-finite entries in operator '{self.label}'")
        if band[0, 0] or band[-1, 2]:
            raise AssemblyError(
                f"operator '{self.label}' has entries outside the matrix")
        band.setflags(write=False)
        object.__setattr__(self, "band", band)

    @property
    def n(self) -> int:
        return self.grid.points


@dataclass
class Spectrum:
    """The k lowest levels of H, sorted by (Re, Im): every eigenvalue
    whose real part is below edge, and no other (edge is inf when all
    are)."""

    values: np.ndarray
    edge: float

    def __len__(self) -> int:
        return int(self.values.size)


def _sorted_eigenvalues(values: np.ndarray) -> np.ndarray:
    order = np.lexsort((values.imag, values.real))
    return values[order]


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def coefficient_samples(m: MassFn, roots: tuple, grids: Sequence[Grid],
                        env: Optional[ParamEnv] = None) -> list:
    """Per grid, its real masses at the midpoints and the arrays of roots
    at the interior nodes, from one MassFn.validate at the union of all
    grids' midpoints and one evaluate_many of roots at the union of their
    interior nodes.  Evaluation is elementwise, so each grid's values are
    bit for bit those of its own evaluation.  The nodes of a
    Grid.refined() chain nest bit for bit (h/2 is exact while it is a
    normal float), so a chain's union of nodes is its finest grid's.
    Raises as validate and evaluate_many do; the failing x may then lie
    on another grid than the one an evaluation grid by grid meets first."""
    mids, mid_at = _union([g.midpoints() for g in grids])
    nodes, node_at = _union([g.nodes()[1:-1] for g in grids])
    mass = m.validate(env, mids)
    values = evaluate_many(roots, nodes, env)
    if log.isEnabledFor(logging.INFO):
        log.info("operator coefficients: %d grids, %d points, %d midpoints, "
                 "%d expressions, %d unique nodes", len(grids), nodes.size,
                 mids.size, len(roots), node_counts(roots)[1])
    return [(mass[i], tuple(v[j] for v in values))
            for i, j in zip(mid_at, node_at)]


def _union(parts: list) -> tuple:
    """The values of the largest of the sorted arrays parts, then those of
    the others that it lacks, and per part the index of each of its values
    in them.  No sort: each part is searched in the largest."""
    fine = max(parts, key=len)
    union, at, size = [fine], [], fine.size
    for part in parts:
        i = np.searchsorted(fine, part).clip(max=max(fine.size - 1, 0))
        miss = fine[i] != part
        i[miss] = size + np.arange(np.count_nonzero(miss))
        union.append(part[miss])
        at.append(i)
        size += union[-1].size
    return np.concatenate(union), at


def assemble_hamiltonian(m: MassFn, vtilde: Expr, g: Grid,
                         env: Optional[ParamEnv] = None,
                         samples=None) -> Tridiagonal:
    """H = -d(m^{-1} d) + Vtilde with midpoint mass sampling:

        (H psi)_i = -(1/h^2)[ (psi_{i+1}-psi_i)/m_{i+1/2}
                              - (psi_i-psi_{i-1})/m_{i-1/2} ] + Vtilde_i psi_i

    on interior rows; Dirichlet boundary rows are identity rows decoupled
    from the interior block.  Second-order accurate.  MassFn.validate
    raises MassError where a midpoint mass is not real and positive.  A
    caller that already holds the masses at g's midpoints and Vtilde at
    its interior nodes (see coefficient_samples) passes them as
    ``samples``, and nothing is evaluated.
    """
    n = g.points
    h = g.h
    if samples is None:
        samples = (m.validate(env, g.midpoints()),
                   evaluate_many(vtilde, g.nodes()[1:-1], env))
    mass, v_nodes = samples
    inv_m = 1.0 / mass

    band = np.zeros((n, 3), dtype=complex)
    band[[0, -1], 1] = 1.0
    band[1:-1, 1] = (inv_m[:-1] + inv_m[1:]) / h**2 + v_nodes
    # H is symmetric; rows 1 and n-2 do not couple to the walls
    band[2:-1, 0] = band[1:-2, 2] = -inv_m[1:-1] / h**2
    return Tridiagonal(band, g, label="H")


def assemble_charge(coeffs, g: Grid, env: Optional[ParamEnv] = None,
                    samples=None) -> Tridiagonal:
    """Discrete N-th order charge operator with central stencils and
    node-sampled coefficients; boundary rows zeroed.

    Supported orders are N = 1 (lead * D1 + sub) and N = 2
    (lead * D2 + sub * D1 + u0); for N >= 3 the interior coefficients have
    no closed form and assembly raises UnsupportedOrderError.  A caller
    that already holds lead, sub and u at g's interior nodes passes their
    arrays as ``samples``, and nothing is evaluated.
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
    if samples is None:
        samples = evaluate_many((coeffs.lead, coeffs.sub, *coeffs.u),
                                g.nodes()[1:-1], env)
    lead, sub, *u0 = samples

    if n_order == 1:        # interior row: C[i, i-1], C[i, i], C[i, i+1]
        stencil = (-lead / (2 * h), sub, lead / (2 * h))
    else:
        stencil = (lead / h**2 - sub / (2 * h), -2 * lead / h**2 + u0[0],
                   lead / h**2 + sub / (2 * h))
    band = np.zeros((n, 3), dtype=complex)
    band[1:-1] = np.column_stack(stencil)
    return Tridiagonal(band, g, label=f"C{n_order}")


# ---------------------------------------------------------------------------
# Constraint residuals
# ---------------------------------------------------------------------------

def _probe_matrix(g: Grid) -> np.ndarray:
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


def _check_parity(g: Grid) -> None:
    if not g.symmetric:
        raise GridError("parity needs a grid symmetric about 0, got "
                        f"({g.x_min}, {g.x_max})")


def _kseams(n: int) -> list:
    """The seams, from 0 to n, at which OpenBLAS's level-3 driver cuts an
    inner dimension of n into k-blocks: of _KBLOCK while 2 _KBLOCK remain,
    then a remainder above _KBLOCK halved, rounded up to _UNROLL_M."""
    seams = [0]
    while n - seams[-1] >= 2 * _KBLOCK:
        seams.append(seams[-1] + _KBLOCK)
    rest = n - seams[-1]
    if rest > _KBLOCK:
        seams.append(seams[-1] + -(-(rest // 2) // _UNROLL_M) * _UNROLL_M)
    return seams + [n]


@functools.lru_cache(maxsize=64)
def _layout(n: int, wx: int, wy: int) -> tuple:
    """The panels of X Y, X and Y of half-widths wx and wy, w = wx + wy.
    Panel p is rows _TILE p + t of X (t < _TILE; past n row n - 1, whose
    products are dropped), the inner window k0[p] + j (j < _TILE + 2 wx;
    zero outside 0:n) and the product columns from _TILE p - pad on, pad =
    w rounded up to _UNROLL_M.  Returns k0, pad, the flat maps of
    x[_TILE p + t, d], y[k0[p] + j, d'] and band[_TILE p + t, e] into a
    panel's blocks of X, Y and the product (the same for every panel), and
    the passes (panels, rows of X, rows of Y, cuts, cols) of at most
    _STACK_BYTES of blocks: the plain panels, those that a k-block seam
    crosses (cuts, its index in their window), and one by one those whose
    columns reach the M tail (cols, their count to n)."""
    t, w = _TILE, wx + wy
    pad = -(-w // _UNROLL_M) * _UNROLL_M
    wide, span = t + 2 * wx, t + 2 * pad
    i, j = np.arange(t)[:, None], np.arange(wide)[:, None]
    dx, dy = np.arange(2 * wx + 1), np.arange(2 * wy + 1)
    left = i * wide + i + dx
    right = j * span + j + dy - w + pad
    out = i * span + i + np.arange(2 * w + 1) - w + pad
    panels = np.arange(-(-n // t))
    k0 = t * panels - wx
    seams = np.array(_kseams(n)[1:-1], dtype=int)
    seamed, which = np.nonzero((k0[:, None] < seams)
                               & (seams < k0[:, None] + wide))
    cuts = seams[which] - k0[seamed]
    tails = panels[t * panels + t + pad > n // _UNROLL_M * _UNROLL_M]
    plain = np.delete(panels, np.r_[seamed, tails])
    stack = max(1, _STACK_BYTES // (16 * wide * (t + span)))
    passes = [(p[k:k + stack], c if c is None else c[k:k + stack], None)
              for p, c in ((plain, None), (seamed, cuts))
              for k in range(0, p.size, stack)]
    passes += [(tails[k:k + 1], None, n - t * p + pad)
               for k, p in enumerate(tails)]
    return k0, pad, (left.ravel(), right.ravel(), out.ravel()), [
        (p, np.minimum(t * p[:, None] + i.T, n - 1).astype(np.int32),
         (k0[p, None] + j.T).astype(np.int32), cuts, cols)
        for p, cuts, cols in passes]


def _band_product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The band of X Y from the bands of X and Y, in O(n): the panels'
    blocks (_layout) stacked into one np.matmul per pass.  numpy calls
    zgemm row-major, so OpenBLAS's M dimension counts the product's
    columns, and each entry is summed as in the n x n product by three
    facts of OpenBLAS 0.3.31 at one thread: (1) zero terms anywhere in a
    k-block add nothing, so padding needs no geometry of its own; (2) the
    k-blocks (_kseams) are summed one after the other, so a panel that a
    seam crosses is summed in two pieces, before and after it, in that
    order; (3) the last n % _UNROLL_M columns go through a remainder
    kernel, so the panels that reach them are cut at n.  Bit for bit at
    n = 16 to 4096 (tools/blas_order_sweep.py); with another BLAS the last
    bits may differ.  The order matters to the residuals: a plain sum over
    the band moved the seed-0 order-2 cpt residual by 20.6 and 30 times
    100 n u at n = 801 and 1601, and the susy residual by 189 times at
    n = 1601."""
    n, wx, wy = x.shape[0], x.shape[1] // 2, y.shape[1] // 2
    k0, pad, (left, right, out), passes = _layout(n, wx, wy)
    wide, span = _TILE + 2 * wx, _TILE + 2 * pad
    band = np.empty((k0.size, out.size), dtype=complex)
    stack = max(p.size for p, *_ in passes)
    a_all = np.zeros((stack, _TILE, wide), dtype=complex)
    b_all = np.zeros((stack, wide, span), dtype=complex)
    for panels, rows, inner, cuts, cols in passes:
        size = panels.size
        a, b = a_all[:size], b_all[:size]  # the maps fill the same entries
        a.reshape(size, -1)[:, left] = x.take(rows, 0).reshape(size, -1)
        part = y.take(inner, 0, mode="clip")
        part[(inner < 0) | (inner >= n)] = 0
        b.reshape(size, -1)[:, right] = part.reshape(size, -1)
        if cuts is not None:                    # fact 2
            before = np.arange(wide) < cuts[:, None, None]
            product = np.where(before, a, 0) @ b
            product += np.where(before, 0, a) @ b
        elif cols:                              # fact 3
            product = np.zeros((size, _TILE, span), dtype=complex)
            product[..., :cols] = a @ b[..., :cols]
        else:
            product = a @ b
        band[panels] = np.take(product.reshape(size, -1), out, axis=1)
    return band.reshape(-1, 2 * (wx + wy) + 1)[:n]


def _band_action(band: np.ndarray, v: np.ndarray) -> np.ndarray:
    """M V, M stored in band: a plain sum over M's 2w + 1 diagonals in
    order, no BLAS call, within sqrt(2) gamma_(2w+2) |M| |V| of the exact
    product (Higham, Lemma 3.5).  M P V is _band_action(band, V[::-1])."""
    n, w = band.shape[0], band.shape[1] // 2
    out, term = np.zeros((2, *v.shape), dtype=complex)
    for d in range(2 * w + 1):      # diagonal d: M[i, i + d - w]
        rows = slice(max(0, w - d), min(n, n + w - d))
        cols = slice(max(0, d - w), min(n, n + d - w))
        out[rows] += np.multiply(band[rows, d, None], v[cols], out=term[rows])
    return out


def _dense(band: np.ndarray) -> np.ndarray:
    """The n x n matrix stored in band."""
    n, w = band.shape[0], band.shape[1] // 2
    out = np.zeros((n, n), dtype=complex)
    for d in range(2 * w + 1):      # diagonal d: M[i, i + d - w]
        i = np.arange(max(0, w - d), min(n, n + w - d))
        out[i, i + d - w] = band[i, d]
    return out


def _widened(band: np.ndarray, w: int) -> np.ndarray:
    """band stored with half-width w (zero outer diagonals); band itself
    if it has that width."""
    pad = w - band.shape[1] // 2
    return np.pad(band, ((0, 0), (pad, pad))) if pad else band


def _power_sum(h: np.ndarray, coeffs: tuple) -> np.ndarray:
    """The band of sum_k l_k H^{N-k}, N = len(coeffs), from H's band h,
    summed in the order of the dense formula: l_N H^0, each l_k H^{N-k}
    by rising power, then H^N."""
    n_order = len(coeffs)
    poly = np.zeros((h.shape[0], 2 * n_order + 1), dtype=complex)
    poly[:, n_order] = coeffs[-1]
    power = h
    for k in range(n_order - 1, 0, -1):
        poly += coeffs[k - 1] * _widened(power, n_order)
        power = _band_product(power, h)
    poly += _widened(power, n_order)
    return poly


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

    Every input is checked before anything of size n is allocated, the
    limit n <= MAX_DENSE_DIMENSION among them.  No n x n array is built:
    the operators and their products are banded, kept in diagonal-by-row
    storage, every product is summed in the order of the n x n product
    (_band_product), and every probe action M V is a plain sum over M's
    diagonals (_band_action), within the matmul rounding bound 100 n u of
    the dense formulas (u the unit roundoff).  Parity is band data (module
    docstring).  P conj(H) P, the power sum and the differences are formed
    on the band storage in the order of the dense formulas.  The log line
    gives n, the order and the half-width of the widest product.
    """
    if H.grid != C.grid:
        raise GridError("H and C must share one grid")
    _check_parity(H.grid)
    coeffs = tuple(complex(c) for c in l)
    n_order = len(coeffs)
    if n_order < 1:
        raise DiscreteError("need at least one SUSY constant")
    n = H.n
    margin = 1 + 2 * n_order
    if 2 * margin >= n:
        raise GridError(f"margin {margin} leaves no interior rows for n={n}")
    check_dense_budget(n)
    width = max(2, n_order)             # half-width of the widest product
    log.info("constraint residuals: n=%d, order %d, product half-width %d",
             n, n_order, width)
    V = _probe_matrix(H.grid)
    rows = slice(margin, n - margin)
    tiny = np.finfo(float).tiny

    def act(band: np.ndarray, probes: np.ndarray = V) -> float:
        """||(M probes)[rows]||, M stored in band."""
        return float(np.linalg.norm(_band_action(band, probes)[rows]))

    def relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
        """act(lhs - rhs) / max(act(lhs), act(rhs)); lhs becomes lhs - rhs."""
        scale = max(act(lhs), act(rhs), tiny)
        return act(np.subtract(lhs, rhs, out=lhs)) / scale

    h, c = H.band, C.band
    cpt = relative(_band_product(c, h[::-1, ::-1].conj()),  # C (P conj(H) P)
                   _band_product(h, c))
    susy = relative(            # zeta conj(zeta) = P ((P C P) conj(C)) P
        _widened(_band_product(c[::-1, ::-1], c.conj())[::-1, ::-1], width),
        _widened(_power_sum(h, coeffs), width))

    scale = max(act(c, V[::-1]), tiny)     # zeta V = C P V
    t = np.zeros_like(c)                   # the band of C^T
    t[1:, 0], t[:, 1], t[:-1, 2] = c[:-1, 2], c[:, 1], c[1:, 0]
    pseudo = act(c - t[::-1, ::-1].conj(),  # P C^dagger P = zeta^dagger P
                 V[::-1]) / scale          # zeta - zeta^dagger
    return {"pseudo": pseudo, "cpt": cpt, "susy": susy}


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
                     pivmin: float = 0.0):
    """trace((T - z)^-1) and sum_k |((T - z)^-1)_kk| for each column of
    az = a - z (the diagonal of T - z per point z) and bt (the off-diagonal
    products, one column).  az is overwritten; tplus is scratch space of
    its shape.

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
    g = np.reciprocal(g, out=g)
    return g.sum(axis=0), np.abs(g).sum(axis=0)


def _newton_ratio(a: np.ndarray, beta: np.ndarray, z: np.ndarray,
                  pivmin: float):
    """N = p/p' = -1/trace(G) and kappa = sum_k |G_kk| / |trace(G)| at the
    points z, G = (T - z)^-1 (see _resolvent_trace).  Near an eigenvalue
    lambda, G = v v^T / ((lambda - z) v^T v) + O(1), v its eigenvector in
    the symmetrized T (complex symmetric: v^T is the left eigenvector), so
    kappa is ||v||^2 / |v^T v|, its condition number.  The fast form, which
    leaves zero pivots alone, gives the stable form's result wherever it
    is finite; the other points are evaluated again in the stable form."""
    az = a[:, None] - z
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        trace, spread = _resolvent_trace(az, beta[:, None], np.empty_like(az))
        bad = ~np.isfinite(trace) | ~np.isfinite(spread)
        if bad.any():
            redo = a[:, None] - z[bad]
            trace[bad], spread[bad] = _resolvent_trace(
                redo, beta[:, None], np.empty_like(redo), pivmin)
        return -1.0 / trace, spread / np.abs(trace)


def _coarsened(a: np.ndarray, beta: np.ndarray):
    """T (diagonal a, off-diagonal products beta) on every second node:
    with o = -sqrt(beta) (H's off-diagonals), the potential part
    a_i + o_(i-1) + o_i of the even nodes is kept, and two intervals join
    in series, o_a o_b / (2 (o_a + o_b)), as two half-interval inverse
    masses do.  The wall couplings, which T lacks, copy the nearest
    interval; of an even number of rows the last becomes a wall."""
    o = -np.sqrt(beta)
    edges = np.concatenate([o[:1], o, o[-1:]])
    v = a + edges[:-1] + edges[1:]
    if a.size % 2 == 0:
        v, edges = v[:-1], edges[:-1]
    joined = 0.5 * edges[0::2] * edges[1::2] / (edges[0::2] + edges[1::2])
    return v[1::2] - joined[:-1] - joined[1:], joined[1:-1] ** 2


def _split(z: np.ndarray, bound: np.ndarray, k: int):
    """The first s >= k at which z, ordered by real part, splits into the
    s lowest values and the rest: the real parts of values s and s + 1
    differ by more than their error bounds, and the values up to s + 1
    have stopped (finite bound).  None when there is none."""
    order = np.argsort(z.real, kind="stable")
    re, r = z.real[order], bound[order]
    for s in range(k, z.size):
        if re[s] - re[s - 1] > r[s] + r[s - 1]:
            return s if np.all(np.isfinite(r[:s + 1])) else None
    return None


def _aberth(a: np.ndarray, beta: np.ndarray, z: np.ndarray, k: int,
            tol: float, pivmin: float):
    """Refine the tracked values z toward eigenvalues of T by
    Ehrlich-Aberth sweeps

        z_i <- z_i - w_i,  w_i = N_i / (1 - N_i sum_{j != i} 1/(z_i - z_j)),

    N = p/p' (see _newton_ratio), the sum running over the tracked values.
    A value stops once |w_i| <= tol * kappa_i, its error bound, and the
    sweeps end once the k lowest stand apart (see _split).  Returns the
    values, their bounds (inf where not stopped) and the sweep count."""
    z = z.copy()
    bound = np.full(z.size, np.inf)
    active = np.arange(z.size)
    for sweep in range(1, SWEEP_BUDGET + 1):
        zi = z[active]
        newton, kappa = _newton_ratio(a, beta, zi, pivmin)
        gaps = zi[:, None] - z
        gaps[np.arange(active.size), active] = np.inf
        with np.errstate(divide="ignore", invalid="ignore"):
            w = newton / (1.0 - newton * np.sum(1.0 / gaps, axis=1))
        if not np.all(np.isfinite(w)):
            raise EigensolverError(
                f"non-finite Aberth correction at {np.sum(~np.isfinite(w))} "
                f"of {z.size} tracked values ({a.size} rows)")
        z[active] = zi - w
        done = np.abs(w) <= tol * kappa
        bound[active[done]] = tol * kappa[done]
        active = active[~done]
        if _split(z, bound, k):
            return z, bound, sweep
    raise EigensolverError(
        f"the {k} lowest of {z.size} tracked values are unconverged after "
        f"{SWEEP_BUDGET} Aberth sweeps ({a.size} rows)")


def _det_phase(a: np.ndarray, beta: np.ndarray, z: np.ndarray,
               pivmin: float):
    """det(T - z) / |det(T - z)| and p'/p = sum_k d_k'/d_k at the points z,
    p(z) = det(T - z) the product of the forward pivots
    d_k = a_k - z - beta_(k-1)/d_(k-1) (a zero one becomes pivmin), with
    d_k' = -1 + beta_(k-1) d_(k-1)'/d_(k-1)^2."""
    phase, d = np.ones(z.size, dtype=complex), np.ones(z.size, dtype=complex)
    slope, dd, t = (np.zeros(z.size, dtype=complex) for _ in range(3))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(a.size):
            if k:
                np.divide(beta[k - 1], d, out=t)
                dd *= t
                dd /= d
            dd -= 1.0
            np.subtract(a[k], z, out=d)
            d -= t
            d[d == 0] = pivmin
            slope += dd / d
            phase *= d
            if k % 8 == 7:      # a product of eight pivots stays in range
                phase /= np.abs(phase)
    return phase / np.abs(phase), slope


def _winding(a: np.ndarray, beta: np.ndarray, points: np.ndarray,
             pivmin: float, where: str):
    """The winding number of det(T - z) along the closed counterclockwise
    polygon through points, the number of eigenvalues of T inside, and
    its largest phase step.  A segment gets a point in its middle until
    neither its phase step nor the step that p'/p at its ends predicts
    exceeds PHASE_STEP: the latter sees an eigenvalue, a double one say,
    so close to the segment that the phase turns by 2*pi along it."""
    phase, slope = _det_phase(a, beta, points, pivmin)
    while True:
        steps = np.angle(np.roll(phase, -1) * phase.conj())
        predicted = (np.maximum(np.abs(slope), np.abs(np.roll(slope, -1)))
                     * np.abs(np.roll(points, -1) - points))
        coarse = np.flatnonzero((np.abs(steps) > PHASE_STEP)
                                | ~(predicted <= PHASE_STEP))
        if coarse.size == 0:
            return round(steps.sum() / (2 * np.pi)), np.max(np.abs(steps))
        if points.size + coarse.size > CONTOUR_BUDGET:
            raise EigensolverError(
                f"the phase of det(T - z) along {where} does not resolve "
                f"within {CONTOUR_BUDGET} contour points")
        middle = 0.5 * (points[coarse] + np.roll(points, -1)[coarse])
        points = np.insert(points, coarse + 1, middle)
        phase, slope = (np.insert(old, coarse + 1, new) for old, new in zip(
            (phase, slope), _det_phase(a, beta, middle, pivmin)))


def _certify(a: np.ndarray, beta: np.ndarray, values: np.ndarray,
             bound: np.ndarray, edge: float, pivmin: float):
    """Raise EigensolverError unless values are the eigenvalues of T with
    real part below edge, each within its error bound.

    The window reaches from left of T's Gershgorin discs to edge, over
    the imaginary parts that Bendixson's bound allows ([min Im a,
    max Im a] where sqrt(beta) is real, the Gershgorin range otherwise).
    The values' error discs must lie inside it, and the winding number
    of det(T - z) along it must equal their number.  Overlapping discs (a
    near-degenerate pair) must hold as many eigenvalues as values, by the
    winding number along a circle around them that crosses no disc.
    Returns the largest phase step along the window."""
    o = np.sqrt(beta)
    reach = np.abs(np.r_[0.0, o]) + np.abs(np.r_[o, 0.0])
    spread = 0.0 if np.all(o.imag == 0) else reach
    low, high = np.min(a.imag - spread), np.max(a.imag + spread)
    left, right = np.min(a.real - reach), min(edge, np.max(a.real + reach))
    pad = 0.05 * (right - left + high - low) + pivmin
    left, right, low, high = left - pad, right + pad, low - pad, high + pad
    edge = min(edge, right)
    window = (f"the window Re in ({left:.6g}, {edge:.6g}), "
              f"Im in ({low:.6g}, {high:.6g})")
    inside = ((values.real - bound > left) & (values.imag - bound > low)
              & (values.real + bound < edge) & (values.imag + bound < high))
    if not np.all(inside):
        raise EigensolverError(f"levels leave {window} within their error "
                               "bounds")
    near = np.abs(values[:, None] - values) <= bound[:, None] + bound
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    for i in np.flatnonzero(near.sum(axis=1) > 1):
        dist = np.abs(values - values[i])
        radius = 2 * np.max((dist + bound)[near[i]])
        where = (f"levels within their error bounds of each other, and a "
                 f"circle of radius {radius:.3g} around {values[i]:.6g}")
        if not np.all(np.abs(dist - radius) > bound):
            raise EigensolverError(f"{where} crosses the bounds of others")
        count, _ = _winding(a, beta, values[i] + radius * circle, pivmin,
                            where)
        if count != np.sum(dist < radius):
            raise EigensolverError(f"{where} holds {count} eigenvalues, not "
                                   f"{np.sum(dist < radius)}")
    corners = [left + 1j * low, edge + 1j * low, edge + 1j * high,
               left + 1j * high, left + 1j * low]
    count, step = _winding(a, beta, np.concatenate([
        np.linspace(p, q, CONTOUR_POINTS // 4, endpoint=False)
        for p, q in zip(corners, corners[1:])]), pivmin, window)
    if count != values.size:
        raise EigensolverError(f"{window} holds {count} eigenvalues, "
                               f"{values.size} levels were found there")
    return step


def lowest_levels(M: Tridiagonal, count: int = LOW_LEVELS) -> Spectrum:
    """The count lowest levels by real part of the interior block T of a
    Dirichlet Hamiltonian (the two identity boundary rows would add two
    unit eigenvalues), certified, from its band, with the edge that
    parts them from the rest (Spectrum): more where level count shares
    its real part with the next within their error bounds, all where T
    has no more rows.

    T is halved (_coarsened) down to COARSE_ROWS rows, but to no fewer
    than twice the values tracked, count + SPARES; their dense solution
    there (symmetrized: off-diagonals sqrt(beta), a diagonal similarity)
    is refined by _aberth on each finer grid, with T's stop
    n*u*||T||_inf*kappa_i, and certified by _certify.  Raises
    EigensolverError when that fails, and DiscreteError when count < 1.
    """
    if count < 1:
        raise DiscreteError(f"need at least one level, got count {count}")
    band = M.band[1:-1]                 # the rows of T
    a, beta = band[:, 1], band[:-1, 2] * band[1:, 0]
    rows, o = a.size, np.abs(np.sqrt(beta))
    norm = max(float(np.max(np.abs(a) + np.r_[0.0, o] + np.r_[o, 0.0])),
               np.finfo(float).tiny)
    pivmin, tol = 2.0 * UNIT_ROUNDOFF * norm, rows * UNIT_ROUNDOFF * norm
    k = min(count, rows)
    tracked = min(k + SPARES, rows)
    grids = [(a, beta)]
    while grids[-1][0].size > max(COARSE_ROWS, 4 * tracked):
        grids.append(_coarsened(*grids[-1]))
    ca, cb = grids.pop()
    co = np.sqrt(cb)
    z = dense_eigenvalues(np.diag(ca) + np.diag(co, 1)
                          + np.diag(co, -1))[:tracked]
    if not grids:                       # T itself was solved dense
        bound = tol * _newton_ratio(a, beta, z, pivmin)[1]
    sweeps = []
    for grid in reversed(grids):
        z, bound, sweep = _aberth(*grid, z, k, tol, pivmin)
        sweeps.append(sweep)
    s = _split(z, bound, k) or (rows if tracked == rows else None)
    if s is None:
        raise EigensolverError(f"no gap in real part after level {k} "
                               "exceeds the error bounds")
    order = np.argsort(z.real, kind="stable")
    values, bound = z[order[:s]], bound[order[:s]]
    edge = math.inf if s == rows else 0.5 * float(z[order[s - 1]].real
                                                   + z[order[s]].real)
    step = _certify(a, beta, values, bound, edge, pivmin)
    log.info("tridiagonal eigenvalues: n=%d, %d lowest, sweeps per grid "
             "(coarse to fine) %s, largest phase step %.3g rad, largest "
             "kappa %.3g", rows, s, sweeps, step, np.max(bound) / tol)
    return Spectrum(_sorted_eigenvalues(values), edge)


def susy_algebra_spectrum(C: Tridiagonal) -> np.ndarray:
    """Eigenvalues of zeta conj(zeta) with zeta = C P, the discrete image
    of the SUSY polynomial sum_k l_k H^{N-k}, sorted by (Re, Im).

    This multiset is exactly closed under conjugation for every zeta
    (spec(AB) = spec(BA) and conj(zeta conj(zeta)) = conj(zeta) zeta), so
    its conjugate_pairing_distance isolates eigensolver backward error.  It
    does not test H: it is small also where H has no conjugate pair.  The
    product is the susy residual's, P ((P C P) conj(C)) P; where n % 4 > 0
    its rows within n % 4 + 2 of the ends may differ in the last bits from
    the n x n (C P)(conj(C) P)'s (_band_product's fact 3 falls at the other
    end).  The eigensolver's input is written out from its band (_dense)."""
    _check_parity(C.grid)
    check_dense_budget(C.n)
    band = _band_product(C.band[::-1, ::-1], C.band.conj())
    return dense_eigenvalues(_dense(band[::-1, ::-1]))  # zeta conj(zeta)


# ---------------------------------------------------------------------------
# Riccati residual (shared verification kernel)
# ---------------------------------------------------------------------------

def riccati_roots(m: MassFn, vtilde: Expr, phis: Sequence[Expr]) -> tuple:
    """The expressions the Riccati residuals of the zero modes ``phis``
    read, each object once, in the order of one walk per mode: m, phi,
    phi', m', Vtilde."""
    mx = m.expr
    dm = differentiate(mx)
    return tuple({id(r): r for phi in phis
                  for r in (mx, phi, differentiate(phi), dm, vtilde)}.values())


def riccati_residual(m: MassFn, vtilde: Expr, phi, e,
                     samples: Sequence[float],
                     env: Optional[ParamEnv] = None, values=None):
    """Sup over samples of |-(phi' + phi^2)/m + (m'/m^2) phi + Vtilde - e|,
    the log-derivative form of H psi = e psi.  ``phi`` and ``e`` may also
    be tuples, one entry per zero mode: the result is then the tuple of
    their residuals, from one evaluation of riccati_roots.  A caller that
    already holds the arrays of riccati_roots at the samples, in its order,
    passes them as ``values``, and nothing is evaluated."""
    phis, energies = (phi, e) if isinstance(phi, tuple) else ((phi,), (e,))
    roots = riccati_roots(m, vtilde, phis)
    if values is None:
        values = evaluate_many(roots, samples, env)
    value = dict(zip(map(id, roots), values))
    mx = m.expr
    mv, dmv, vv = (value[id(r)] for r in (mx, differentiate(mx), vtilde))
    out = []
    for p, energy in zip(phis, energies):
        pv, dpv = value[id(p)], value[id(differentiate(p))]
        r = -(dpv + pv * pv) / mv + (dmv / (mv * mv)) * pv + vv - complex(energy)
        out.append(float(np.max(np.abs(r), initial=0.0)))
    return tuple(out) if isinstance(phi, tuple) else out[0]


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
    below RESIDUAL_FLOOR are flagged as converged-to-floor (the slope is
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

def wavefunction_from_log_derivative(phi, xs: Sequence[float],
                                     env: Optional[ParamEnv] = None):
    """psi on the nodes from psi'/psi = phi by fixed-step 4th-order
    (Simpson) cumulative quadrature of phi from the domain midpoint, with
    the normalization psi(midpoint) = 1 (inf, quietly, past the float range).
    ``phi`` may also be a tuple of log-derivatives, as in riccati_residual:
    the result is then the tuple of their wavefunctions, from one
    evaluation of all of them at the shared quadrature points."""
    phis = phi if isinstance(phi, tuple) else (phi,)
    xs = np.asarray(xs if hasattr(xs, "__len__") else list(xs), dtype=float)
    n = xs.size
    midpoint = 0.5 * (xs[0] + xs[-1])

    anchor = int(np.argmin(np.abs(xs - midpoint)))
    # Simpson segments (a, b) in summation order: midpoint to the anchor
    # node, then outward to the right, then outward to the left; as indices
    # into the points [nodes, midpoint, segment middles]
    ia = np.concatenate([[n], np.arange(anchor, n - 1), np.arange(anchor)[::-1]])
    ib = np.concatenate([[anchor], np.arange(anchor + 1, n),
                         np.arange(1, anchor + 1)[::-1]])
    points = np.append(xs, midpoint)
    a, b = points[ia], points[ib]
    points = np.concatenate([points, 0.5 * (a + b)])
    live = a != b
    # phi once per point that a live segment reads (a node two segments
    # share, once), at its first read, so the first point that fails is the
    # same; no sort, each read's first position comes from one minimum.at
    reads = np.column_stack([ia, np.arange(n + 1, points.size), ib])[live]
    reads, order = reads.ravel(), np.arange(reads.size)
    first = np.full(points.size, reads.size)
    np.minimum.at(first, reads, order)
    once = reads[first[reads] == order]
    right = n - anchor
    psis = []
    for values in evaluate_many(phis, points[once], env):
        phi_at = np.empty(points.size, dtype=complex)
        phi_at[once] = values
        f = phi_at[reads].reshape(-1, 3)
        segments = np.zeros(a.size, dtype=complex)
        segments[live] = ((b - a)[live] / 6.0) * (f[:, 0] + 4.0 * f[:, 1]
                                                   + f[:, 2])
        integral = np.empty(xs.size, dtype=complex)
        integral[anchor:] = np.add.accumulate(segments[:right])
        integral[anchor::-1] = np.subtract.accumulate(
            np.concatenate([segments[:1], segments[right:]]))
        with np.errstate(over="ignore"):
            psis.append(np.exp(integral))
    return tuple(psis) if isinstance(phi, tuple) else psis[0]


def l2_normalizable(psi: np.ndarray) -> bool:
    """Window-confinement test: psi is finite and its boundary amplitude at
    most 1e-3 of the peak amplitude (|psi|^2 at the walls negligible)."""
    if not np.all(np.isfinite(psi)):
        return False
    peak = float(np.max(np.abs(psi)))
    edge = math.hypot(abs(psi[0]), abs(psi[-1]))     # no overflow of |psi|^2
    return edge <= 1e-3 * peak
