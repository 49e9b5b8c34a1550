"""Radial Dirac operators on staggered grids, and their bound spectra.

Each angular sector reduces the D-dimensional problem to a two-component
radial doublet (F, G).  In units hbar = c = 1, with V = -Z alpha / r:

    H = [[ m + V,  d/dr + kappa/r ],
         [ -d/dr + kappa/r,  -m + V ]]

acting on (F, G), after the angular and r-power prefactors are stripped; the
same reduced form holds for every D (even D included), with kappa
half-integer there.

Discretization: F and G live on mutually staggered nodes, half a step apart,
so first derivatives are two-point centered differences with no spurious
null mode; the assembled matrix is real symmetric and tridiagonal when the
components are interleaved by position, which is also the fast eigensolver
path.  On the log_uniform scheme the operator is assembled for the
transformed fields e^{t/2} F(e^t), t = ln r, which is a unitary change, and
eigenvectors are mapped back to physical samples.  Walls are Dirichlet: the
component values just outside [r_min, r_max] are dropped.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError, eigh_tridiagonal

from . import analytic
from .core import LOG_UNIFORM, UNIFORM, KappaSector, PhysParams, RadialGrid
from .errors import ConvergenceError, SpuriousSpectrumError

STANDARD = "standard"   # F on grid.nodes, G on grid.nodes_small
SWAPPED = "swapped"     # F on grid.nodes_small, G on grid.nodes

HAMILTONIAN = "hamiltonian"
IDENTITY = "identity"
POTENTIAL = "potential"
DERIVATIVE = "derivative"
COMPOSITE = "composite"


class TruncationWarning(UserWarning):
    """Fewer bound levels resolvable than requested."""


@dataclass(frozen=True)
class RadialOperator:
    """Dense symmetric operator on the stacked doublet (F block, then G).

    matrix is real, shape (2n, 2n), with the F block first regardless of
    layout; layout records which staggered node set F occupies.  For
    hamiltonian kind the matrix is tridiagonal after interleaving by node
    position, which solve_spectrum exploits.
    """

    params: PhysParams
    sector: KappaSector
    grid: RadialGrid
    matrix: np.ndarray
    kind: str
    layout: str = STANDARD

    def __post_init__(self):
        n = self.grid.n_points
        if self.matrix.shape != (2 * n, 2 * n):
            raise ValueError(f"matrix shape {self.matrix.shape} != {(2 * n, 2 * n)}")
        self.matrix.flags.writeable = False

    @property
    def nodes_f(self) -> np.ndarray:
        return _layout_nodes(self.grid, self.layout)[0]

    @property
    def nodes_g(self) -> np.ndarray:
        return _layout_nodes(self.grid, self.layout)[1]

    @property
    def weights_f(self) -> np.ndarray:
        return _layout_weights(self.grid, self.layout)[0]

    @property
    def weights_g(self) -> np.ndarray:
        return _layout_weights(self.grid, self.layout)[1]


def _layout_nodes(grid: RadialGrid, layout: str) -> tuple:
    if layout == STANDARD:
        return grid.nodes, grid.nodes_small
    if layout == SWAPPED:
        return grid.nodes_small, grid.nodes
    raise ValueError(f"layout must be {STANDARD!r} or {SWAPPED!r}, got {layout!r}")


def _layout_weights(grid: RadialGrid, layout: str) -> tuple:
    if layout == STANDARD:
        return grid.weights, grid.weights_small
    return grid.weights_small, grid.weights


def _cross_vectors(grid: RadialGrid, kappa: float) -> tuple:
    """Stencil weights of d/dr + kappa/r from nodes_small to nodes rows.

    Returns (lo, up): lo[j] couples row j to the small node below it, up[j]
    to the small node above.  The 1/r factor is sampled at the quarter-step
    midpoints so the pairing with each neighbor is symmetric and second
    order.  On the log scheme both terms carry the e^{-t} weights of the
    unitarily transformed operator.
    """
    if grid.scheme == UNIFORM:
        h = grid.step
        lo = -1.0 / h + 0.5 * kappa / (grid.nodes - h / 4)
        up = 1.0 / h + 0.5 * kappa / (grid.nodes + h / 4)
    else:
        ht = grid.step
        t = np.log(grid.nodes)
        w_lo = np.exp(-(t - ht / 4))
        w_up = np.exp(-(t + ht / 4))
        lo = w_lo * (-1.0 / ht + 0.5 * kappa)
        up = w_up * (1.0 / ht + 0.5 * kappa)
    return lo, up


def _cross_block(grid: RadialGrid, kappa: float) -> np.ndarray:
    """Dense matrix of the _cross_vectors stencil; the sample above r_max
    is dropped (Dirichlet)."""
    n = grid.n_points
    lo, up = _cross_vectors(grid, kappa)
    c = np.zeros((n, n))
    idx = np.arange(n)
    c[idx, idx] = lo
    c[idx[:-1], idx[:-1] + 1] = up[:-1]
    return c


def _diag_potential(params: PhysParams, r: np.ndarray) -> np.ndarray:
    return -params.z_alpha / r


def build_radial_hamiltonian(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str = STANDARD,
) -> RadialOperator:
    """Assemble the sector Hamiltonian on the staggered grid.

    layout=STANDARD puts F on grid.nodes; layout=SWAPPED puts F on
    grid.nodes_small, with the cross coupling built so that the two layouts
    of opposite-kappa sectors share one cross block exactly (the structure
    the sector-swap operator requires).  The matrix is exactly symmetric;
    it is the dense form of _sector_csr.
    """
    return RadialOperator(params=params, sector=sector, grid=grid,
                          matrix=_sector_csr(params, sector, grid,
                                             layout).toarray(),
                          kind=HAMILTONIAN, layout=layout)


def build_radial_operator(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    kind: str,
    layout: str = STANDARD,
) -> RadialOperator:
    """Assemble one of the primitive operators on the doublet.

    identity and potential are diagonal; derivative is the antisymmetric
    pure-d/dr coupling between the components (the kappa/r-free part of the
    Hamiltonian cross block).  Composites are built with compose_operators.
    """
    n = grid.n_points
    std = layout == STANDARD
    r_f = grid.nodes if std else grid.nodes_small
    r_g = grid.nodes_small if std else grid.nodes
    mat = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    if kind == IDENTITY:
        mat[idx, idx] = 1.0
        mat[n + idx, n + idx] = 1.0
    elif kind == POTENTIAL:
        mat[idx, idx] = _diag_potential(params, r_f)
        mat[n + idx, n + idx] = _diag_potential(params, r_g)
    elif kind == DERIVATIVE:
        d = _cross_block(grid, 0.0) if std else -_cross_block(grid, 0.0).T
        mat[:n, n:] = d
        mat[n:, :n] = -d.T
    else:
        raise ValueError(f"kind must be one of {IDENTITY!r}, {POTENTIAL!r}, "
                         f"{DERIVATIVE!r}, got {kind!r}")
    return RadialOperator(params=params, sector=sector, grid=grid,
                          matrix=mat, kind=kind, layout=layout)


def compose_operators(coeffs, ops) -> RadialOperator:
    """Linear combination sum(c * op) as a composite RadialOperator."""
    ops = list(ops)
    first = ops[0]
    if any(o.grid is not first.grid or o.layout != first.layout for o in ops[1:]):
        raise ValueError("operators must share one grid and layout")
    mat = np.zeros_like(first.matrix)
    for c, o in zip(coeffs, ops):
        mat = mat + c * o.matrix
    return RadialOperator(params=first.params, sector=first.sector,
                          grid=first.grid, matrix=mat, kind=COMPOSITE,
                          layout=first.layout)


@dataclass(frozen=True)
class Eigenpair:
    """One bound level: energy in units of m, physical doublet samples.

    doublet = (F, G) on the operator's F/G node sets, quadrature-normalized;
    norm_weight_small is the quadrature weight carried by G.
    """

    energy: float
    doublet: tuple
    norm_weight_small: float


def _interleaved_bands(op: RadialOperator) -> tuple:
    """Diagonal and off-diagonal of the position-ordered tridiagonal form."""
    n = op.grid.n_points
    m = op.matrix
    d_f = np.diagonal(m[:n, :n])
    d_g = np.diagonal(m[n:, n:])
    ur = m[:n, n:]
    d = np.empty(2 * n)
    e = np.empty(2 * n - 1)
    if op.layout == STANDARD:
        # Position order G_1, F_1, G_2, F_2, ...
        d[0::2] = d_g
        d[1::2] = d_f
        e[0::2] = np.diagonal(ur)
        e[1::2] = np.diagonal(ur, 1)
    else:
        # Position order F_1, G_1, F_2, G_2, ...
        d[0::2] = d_f
        d[1::2] = d_g
        e[0::2] = np.diagonal(ur)
        e[1::2] = np.diagonal(ur, -1)
    return d, e


def _sector_vectors(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str,
) -> tuple:
    """Nonzero entries of the sector Hamiltonian as vectors.

    Returns (d_f, d_g, e_same, e_next): the F and G diagonals, the coupling
    of F and G at the same index, and the coupling across one index step
    (F_j to G_{j+1} for STANDARD, G_j to F_{j+1} for SWAPPED).
    """
    m = params.m
    r_f, r_g = _layout_nodes(grid, layout)
    d_f = m + _diag_potential(params, r_f)
    d_g = -m + _diag_potential(params, r_g)
    if layout == STANDARD:
        lo, up = _cross_vectors(grid, sector.kappa)
        return d_f, d_g, lo, up[:-1]
    lo, up = _cross_vectors(grid, -sector.kappa)
    return d_f, d_g, -lo, -up[:-1]


def _sector_bands(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str,
) -> tuple:
    """Tridiagonal bands of the sector Hamiltonian, built without the dense
    matrix.  Bitwise equal to _interleaved_bands(build_radial_hamiltonian());
    this is the O(n)-memory path for large grids.
    """
    n = grid.n_points
    d_f, d_g, e_same, e_next = _sector_vectors(params, sector, grid, layout)
    d = np.empty(2 * n)
    e = np.empty(2 * n - 1)
    if layout == STANDARD:
        # Position order G_1, F_1, G_2, F_2, ...
        d[0::2] = d_g
        d[1::2] = d_f
    else:
        # Position order F_1, G_1, F_2, G_2, ...
        d[0::2] = d_f
        d[1::2] = d_g
    e[0::2] = e_same
    e[1::2] = e_next
    return d, e


def _stacked_csr(n: int, bands) -> sp.csr_matrix:
    """(2n, 2n) CSR matrix from diagonals of its four n x n blocks.

    Each band is (block_row, block_col, offset, values); values run along
    that diagonal of the block, as in scipy.sparse.diags (offset 1 starts at
    block entry (0, 1), offset -1 at (1, 0)).
    """
    rows, cols, data = [], [], []
    for block_row, block_col, offset, values in bands:
        i = np.arange(max(0, -offset), n - max(0, offset))
        rows.append(block_row * n + i)
        cols.append(block_col * n + i + offset)
        data.append(values)
    return sp.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(2 * n, 2 * n))


def _sector_csr(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str = STANDARD,
) -> sp.csr_matrix:
    """The sector Hamiltonian as a (2n, 2n) CSR matrix, stacked (F, G).

    Same entries as the bands of _sector_bands, so its dense form is the
    matrix of build_radial_hamiltonian; at most 3 nonzeros per row.
    """
    d_f, d_g, e_same, e_next = _sector_vectors(params, sector, grid, layout)
    step = 1 if layout == STANDARD else -1
    return _stacked_csr(grid.n_points, [
        (0, 0, 0, d_f), (1, 1, 0, d_g),
        (0, 1, 0, e_same), (1, 0, 0, e_same),
        (0, 1, step, e_next), (1, 0, -step, e_next),
    ])


def _alternation_fraction(u: np.ndarray) -> float:
    """Fraction of sign flips between consecutive significant samples."""
    mag = np.abs(u)
    top = mag.max()
    if top == 0.0:
        return 0.0
    uu = u[mag > 1e-9 * top]
    if uu.size < 3:
        return 0.0
    sgn = np.sign(uu)
    flips = np.count_nonzero(sgn[1:] * sgn[:-1] < 0)
    return flips / (uu.size - 1)


def _split_doublet(layout: str, grid: RadialGrid, column: np.ndarray) -> tuple:
    if layout == STANDARD:
        g, f = column[0::2], column[1::2]
    else:
        f, g = column[0::2], column[1::2]
    if grid.scheme == LOG_UNIFORM:
        nodes_f, nodes_g = _layout_nodes(grid, layout)
        f = f / np.sqrt(nodes_f)
        g = g / np.sqrt(nodes_g)
    return f, g


# tol <= 0 would mean eps * ||T||, and ||T|| is dominated by the huge
# near-wall Coulomb rows, which quantizes close eigenvalues at ~1e-4 * m.
# The underflow-threshold setting makes bisection run to full relative
# precision of the eigenvalue itself.
_FULL_PRECISION = 2.0 * np.finfo(np.float64).tiny


def _eigh(d: np.ndarray, e: np.ndarray, **kwargs):
    """eigh_tridiagonal by bisection (stebz), with LAPACK failures typed."""
    try:
        return eigh_tridiagonal(d, e, lapack_driver="stebz", **kwargs)
    except LinAlgError as exc:
        raise ConvergenceError(f"tridiagonal eigensolver failed: {exc}") from exc


def _window_bounds(m: float) -> tuple:
    """The bound window (tiny, m - tiny] as its (lower, upper) ends."""
    tiny = 1e-12 * m
    return tiny, m - tiny


def _count_in(d: np.ndarray, e: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues in (lo, hi].

    A bisection tolerance as wide as the interval stops stebz after its
    Sturm counts at the ends, so this costs a few O(n) passes.
    """
    if not lo < hi:
        return 0
    return _eigh(d, e, eigvals_only=True, select="v",
                 select_range=(lo, hi), tol=hi - lo).size


def _window(d: np.ndarray, e: np.ndarray, m: float) -> tuple:
    """(index of the first eigenvalue in the window, how many lie there)."""
    # Gershgorin puts every eigenvalue at or above min(d) - 2 max|e|, which
    # is below -m because the G rows carry -m; twice it is strictly below.
    floor = 2.0 * (d.min() - 2.0 * np.abs(e).max())
    lo, hi = _window_bounds(m)
    return _count_in(d, e, floor, lo), _count_in(d, e, lo, hi)


def _bound_window_solve(d: np.ndarray, e: np.ndarray, m: float) -> tuple:
    """Every eigenpair in the window, ascending."""
    return _eigh(d, e, select="v", select_range=_window_bounds(m),
                 tol=_FULL_PRECISION)


def _solve_banded(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str,
    bands: tuple,
    count: int,
    spurious_threshold: float,
    stability_check: bool,
    stability_tol: float,
) -> list:
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    m = params.m
    first, size = _window(*bands, m)
    if size == 0:
        warnings.warn(f"no bound levels in (0, m); requested {count}",
                      TruncationWarning)
        return []
    fine = (_sector_bands(params, sector, grid.refined(2), layout)
            if stability_check else None)
    lo, hi = _window_bounds(m)
    # Levels are bisected by index, lowest first, only as far as needed to
    # keep `count` of them (at least one, so that a window of nothing but
    # rejects still raises); the result equals filtering the whole window
    # and taking the first `count`.
    want = max(count, 1)
    kept = []
    passed_filter = 0
    done = 0
    while len(kept) < want and done < size:
        take = min(want - len(kept), size - done)
        vals, vecs = _eigh(*bands, select="i", tol=_FULL_PRECISION,
                           select_range=(first + done, first + done + take - 1))
        done += take
        for j, val in enumerate(vals):
            f, g = _split_doublet(layout, grid, vecs[:, j])
            if max(_alternation_fraction(f),
                   _alternation_fraction(g)) > spurious_threshold:
                continue
            passed_filter += 1
            # Stable: the doubled grid has a window level within
            # stability_tol * m of this one.
            if fine is None or _count_in(
                    *fine, max(lo, val - stability_tol * m),
                    min(hi, val + stability_tol * m)):
                kept.append((val, f, g))
    if not passed_filter:
        raise SpuriousSpectrumError(
            f"all {size} candidates rejected by the alternation filter"
        )
    if not kept:
        raise SpuriousSpectrumError(
            "no candidate persisted under grid doubling"
        )
    if len(kept) < count:
        warnings.warn(
            f"only {len(kept)} of {count} requested levels resolvable on this grid",
            TruncationWarning,
        )
    w_f, w_g = _layout_weights(grid, layout)
    pairs = []
    for val, f, g in kept[:count]:
        wf2 = w_f @ f**2
        wg2 = w_g @ g**2
        norm = math.sqrt(wf2 + wg2)
        pairs.append(Eigenpair(
            energy=float(val / m),
            doublet=(f / norm, g / norm),
            norm_weight_small=float(wg2 / (wf2 + wg2)),
        ))
    return pairs


def solve_spectrum(
    op: RadialOperator,
    count: int = 4,
    spurious_threshold: float = 0.5,
    stability_check: bool = True,
    stability_tol: float = 0.02,
) -> list:
    """Bound levels of a sector Hamiltonian, ascending, as Eigenpairs.

    Eigenvalues are taken in the open window (0, m).  Sturm counts size the
    window, and only the lowest levels needed are bisected and inverted,
    taken in order until count of them pass the checks or the window runs
    out.  Each candidate must pass a node-alternation filter on both
    components (a rapidly sign-alternating vector is a discretization
    artifact, not a bound state) and, when stability_check is set, must
    persist within stability_tol * m under one grid doubling: a Sturm count
    on the doubled grid's bands must find a window eigenvalue within
    stability_tol * m of it.  The result is the first count levels of the
    whole window that pass.  Raises SpuriousSpectrumError if filtering
    rejects every candidate, ConvergenceError on solver failure; emits
    TruncationWarning when fewer than count levels survive.
    """
    if op.kind != HAMILTONIAN:
        raise ValueError(f"solve_spectrum needs a hamiltonian operator, got {op.kind!r}")
    return _solve_banded(op.params, op.sector, op.grid, op.layout,
                         _interleaved_bands(op), count, spurious_threshold,
                         stability_check, stability_tol)


def solve_bound_levels(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str = STANDARD,
    count: int = 4,
    spurious_threshold: float = 0.5,
    stability_check: bool = True,
    stability_tol: float = 0.02,
) -> list:
    """solve_spectrum without the dense matrix: bands are assembled straight
    from the grid, so memory stays O(n).  Identical results to solving the
    built operator, since the band entries are the same floats.

    As there, only the requested levels are bisected, and the stability
    check is a Sturm interval count on the doubled grid with the same
    stability_tol criterion, so no doubled-grid eigenpairs are computed.
    """
    return _solve_banded(params, sector, grid, layout,
                         _sector_bands(params, sector, grid, layout),
                         count, spurious_threshold,
                         stability_check, stability_tol)


@dataclass(frozen=True)
class ConvergenceRow:
    level_index: int
    label: analytic.LevelLabel
    exact: float
    energies: tuple
    errors: tuple
    ratios: tuple
    fitted_order: float


@dataclass(frozen=True)
class ConvergenceReport:
    params: PhysParams
    sector: KappaSector
    n_points: tuple
    rows: tuple

    @property
    def min_fitted_order(self) -> float:
        return min(r.fitted_order for r in self.rows)


def convergence_study(
    params: PhysParams,
    sector: KappaSector,
    grid_family,
    count: int = 2,
) -> ConvergenceReport:
    """Solve on each grid and fit the error order against the level formula.

    The reference for level index k is the analytic energy of radial quantum
    number n' = k (kappa > 0) or n' = k + 1 (kappa < 0, which has no n' = 0
    level).  fitted_order is the least-squares slope of log error against
    log n_points, negated.
    """
    grids = list(grid_family)
    ns = [g.n_points for g in grids]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"grid family must have increasing n_points, got {ns}")
    per_level = []
    for grid in grids:
        pairs = solve_bound_levels(params, sector, grid, count=count)
        if len(pairs) < count:
            raise ConvergenceError(
                f"grid with n_points={grid.n_points} resolved only "
                f"{len(pairs)} of {count} levels"
            )
        per_level.append([p.energy for p in pairs])
    energies = np.array(per_level)  # shape (n_grids, count)
    rows = []
    for k in range(count):
        n_prime = k if sector.sign > 0 else k + 1
        label = analytic.LevelLabel(n=sector.l + 1 + n_prime, l=sector.l,
                                    sign=sector.sign)
        exact = analytic.energy(params, label)
        errs = np.abs(energies[:, k] - exact)
        if np.any(errs == 0):
            order = float("inf")
            ratios = tuple(float("inf") for _ in errs[1:])
        else:
            slope = np.polyfit(np.log(ns), np.log(errs), 1)[0]
            order = -float(slope)
            ratios = tuple(float(a / b) for a, b in zip(errs[:-1], errs[1:]))
        rows.append(ConvergenceRow(
            level_index=k, label=label, exact=exact,
            energies=tuple(float(x) for x in energies[:, k]),
            errors=tuple(float(x) for x in errs),
            ratios=ratios, fitted_order=order,
        ))
    return ConvergenceReport(params=params, sector=sector,
                             n_points=tuple(ns), rows=tuple(rows))
