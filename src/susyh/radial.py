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
path.  The grid is uniform in t = ln r, and the operator is assembled for
the transformed fields e^{t/2} F(e^t), which is a unitary change, and
eigenvectors are mapped back to physical samples.  Walls are Dirichlet: the
component values just outside [r_min, r_max] are dropped.  _sector_vectors,
the one source of every sector operator's entries, checks there once that
the inner wall's couplings do not square past the largest double.

Bound levels are the eigenvalues in the window (0, m), found by LAPACK
bisection (stebz) and inverse iteration (stein) on those bands.  Only the
levels a caller uses are bisected to full precision, each from its own node
of the bisection tree, which ends on the same float as a bisection of the
whole window (_window_levels).  Each wanted level's closed-form energy
(analytic.energy, through _closed_form_seed) seeds Rayleigh-quotient
iteration, a few tridiagonal solves that place the level within its
Kato-Temple bound; halving the window toward that bound gives its node, and
Sturm counts confirm that each node holds one level and together the lowest
ones.  The computed Sturm count is monotone in the shift (Kahan 1966;
Demmel, Dhillon & Ren, ETNA 3, 1995), so each node lies on the whole-window
bisection's path.  Where a node check fails twice, the second time with
the bound widened by the count's roundoff, or the iteration gives up, the
whole window is bisected.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.linalg import get_lapack_funcs

from . import analytic
from .core import KappaSector, PhysParams, RadialGrid
from .errors import ConvergenceError, GridError, SpuriousSpectrumError

STANDARD = "standard"   # F on grid.nodes, G on grid.nodes_small
SWAPPED = "swapped"     # F on grid.nodes_small, G on grid.nodes

# solve_bound_levels' gates: the largest sign-flip fraction of a level's F
# and G, and how near (in m) a level of the doubled grid must lie; then the
# convergence command's default smallest fitted order.
SPURIOUS_THRESHOLD = 0.5
STABILITY_TOL = 0.02
MIN_CONVERGENCE_ORDER = 1.8


class TruncationWarning(UserWarning):
    """Fewer bound levels resolvable than requested, or a box too short
    for the levels a check compares."""


@dataclass(frozen=True)
class RadialOperator:
    """A sector Hamiltonian, stored as its (2n, 2n) CSR matrix on the
    stacked doublet (F block, then G).

    csr is real and read-only, with the F block first regardless of layout;
    layout records which staggered node set F occupies.  The operator is
    tridiagonal after interleaving by node position; solve_bound_levels
    solves it from bands rebuilt out of params, sector, grid and layout.
    matrix is the dense form of csr, built on first read and read-only;
    no library path reads it.
    """

    params: PhysParams
    sector: KappaSector
    grid: RadialGrid
    csr: sp.csr_matrix
    layout: str = STANDARD

    def __post_init__(self):
        _layout_nodes(self.grid, self.layout)  # ValueError on a bad layout
        n = self.grid.n_points
        if self.csr.shape != (2 * n, 2 * n):
            raise ValueError(f"csr shape {self.csr.shape} != {(2 * n, 2 * n)}")
        _read_only(self.csr)

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(self.csr.toarray())


def _layout_nodes(grid: RadialGrid, layout: str) -> tuple:
    if layout == STANDARD:
        return grid.nodes, grid.nodes_small
    if layout == SWAPPED:
        return grid.nodes_small, grid.nodes
    raise ValueError(f"layout must be {STANDARD!r} or {SWAPPED!r}, got {layout!r}")


def _read_only(a):
    """Mark a dense array, or the arrays of a sparse CSR matrix, read-only;
    returns a."""
    for arr in (a.data, a.indices, a.indptr) if sp.issparse(a) else (a,):
        arr.flags.writeable = False
    return a


def _layout_weights(grid: RadialGrid, layout: str) -> tuple:
    if layout == STANDARD:
        return grid.weights, grid.weights_small
    return grid.weights_small, grid.weights


def _cross_vectors(grid: RadialGrid, kappa: float) -> tuple:
    """Stencil weights of d/dr + kappa/r from nodes_small to nodes rows.

    Returns (lo, up): lo[j] couples row j to the small node below it, up[j]
    to the small node above.  The 1/r factor is sampled at the quarter-step
    midpoints so the pairing with each neighbor is symmetric and second
    order.  Both terms carry the e^{-t} weights of the unitarily transformed
    operator.
    """
    ht = grid.step
    t = np.log(grid.nodes)
    w_lo = np.exp(-(t - ht / 4))
    w_up = np.exp(-(t + ht / 4))
    lo = w_lo * (-1.0 / ht + 0.5 * kappa)
    up = w_up * (1.0 / ht + 0.5 * kappa)
    return lo, up


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
    the sector-swap operator requires).  The operator is stored as the CSR
    of _sector_csr, which is exactly symmetric; no dense matrix is built.
    Raises GridError, as every assembly from _sector_vectors does, when the
    off-diagonal squares past the largest double (near-critical walls).
    """
    return RadialOperator(params=params, sector=sector, grid=grid,
                          csr=_sector_csr(params, sector, grid, layout),
                          layout=layout)


@dataclass(frozen=True)
class Eigenpair:
    """One bound level: energy in units of m, physical doublet samples.

    doublet = (F, G) on the operator's F/G node sets, quadrature-normalized;
    norm_weight_small is the quadrature weight carried by G.
    """

    energy: float
    doublet: tuple
    norm_weight_small: float


def _sector_vectors(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str,
) -> tuple:
    """Nonzero entries of the sector Hamiltonian as vectors, the one source
    of the solver's bands, the sector CSR and the primary A assembly.

    Returns (d_f, d_g, e_same, e_next): the F and G diagonals, the coupling
    of F and G at the same index, and the coupling across one index step
    (F_j to G_{j+1} for STANDARD, G_j to F_{j+1} for SWAPPED).  Raises
    GridError when the couplings fail _check_offdiagonal, so every operator
    built from them refuses the same walls.
    """
    r_f, r_g = _layout_nodes(grid, layout)
    if layout == STANDARD:
        lo, up = _cross_vectors(grid, sector.kappa)
        e_same, e_next = lo, up[:-1]
    else:
        lo, up = _cross_vectors(grid, -sector.kappa)
        e_same, e_next = -lo, -up[:-1]
    _check_offdiagonal(grid, e_same, e_next)
    m, za = params.m, params.z_alpha
    return m - za / r_f, -m - za / r_g, e_same, e_next


def _check_offdiagonal(grid: RadialGrid, *couplings: np.ndarray) -> None:
    """GridError once max |e| over the couplings squares past the largest
    double.  Bisection (stebz) squares the off-diagonal and fails there with
    LAPACK info=1: on the sector bands every max |e| up to 1.34e154 solves
    and every larger one fails.  Past it the products overflow too (kernel
    residuals of 4e141 at D = 2, Z alpha = 0.4999).  The largest entries sit
    at the inner wall, where they scale like 1 / (step * r_min)."""
    e_max = max(float(np.abs(e).max(initial=0.0)) for e in couplings)
    if not math.isfinite(e_max * e_max):
        raise GridError(
            f"sector off-diagonal max |e| = {e_max:.3g} near the inner wall "
            f"r_min = {grid.r_min:.3g} squares past the largest double, "
            f"which the eigensolver and the operator products cannot "
            f"handle; use a smaller z_alpha (--zalpha)"
        )


def _sector_bands(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str,
) -> tuple:
    """Tridiagonal bands of the sector Hamiltonian in position order, built
    without the dense matrix: the same floats as the matrix of
    build_radial_hamiltonian, in O(n) memory, checked by _sector_vectors.
    """
    n = grid.n_points
    d_f, d_g, e_same, e_next = _sector_vectors(params, sector, grid, layout)
    d = np.empty(2 * n)
    e = np.empty(2 * n - 1)
    # Position order puts the nodes_small component first: G_1, F_1, G_2,
    # ... for STANDARD and F_1, G_1, F_2, ... for SWAPPED.
    d[0::2], d[1::2] = (d_g, d_f) if layout == STANDARD else (d_f, d_g)
    e[0::2] = e_same
    e[1::2] = e_next
    return d, e


def _shift(x: np.ndarray, k: int) -> np.ndarray:
    """w[i] = x[i + k] along the first axis, zero where i + k falls outside."""
    n = x.shape[0]
    w = np.zeros(x.shape)
    if k >= 0:
        w[:max(n - k, 0)] = x[k:]
    else:
        w[min(-k, n):] = x[:max(n + k, 0)]
    return w


class Bands:
    """Square n x n banded operator stored by diagonals.

    bands maps an offset k to a row-indexed vector v of length n: v[i] is
    the entry (i, i + k), and entries whose column falls outside the matrix
    are held at zero.  The product loops over offset pairs in one fixed
    order (ascending left offset, then ascending right offset), so two
    products made of the same terms with opposite signs sum to exactly
    zero.  Results share the vectors they leave unchanged, so treat them
    as read-only.  _block_csr is the one conversion to scipy.sparse.
    """

    __slots__ = ("n", "bands")

    def __init__(self, n: int, bands: dict):
        self.n = n
        self.bands = {}
        for k, v in bands.items():
            w = np.full(n, v, dtype=np.float64)
            if k > 0:
                w[max(n - k, 0):] = 0.0
            elif k < 0:
                w[:min(-k, n)] = 0.0
            self.bands[k] = w

    @classmethod
    def _of(cls, n: int, bands: dict) -> Bands:
        """Wrap vectors that already hold zeros outside the matrix: every
        operation below keeps that, so its results skip the masking copy."""
        out = cls.__new__(cls)
        out.n = n
        out.bands = bands
        return out

    def __add__(self, other: Bands) -> Bands:
        out = dict(self.bands)
        for k, v in other.bands.items():
            out[k] = out[k] + v if k in out else v
        return Bands._of(self.n, out)

    def __neg__(self) -> Bands:
        return -1.0 * self

    def __sub__(self, other: Bands) -> Bands:
        return self + (-other)

    def __mul__(self, scalar: float) -> Bands:
        return Bands._of(self.n, {k: scalar * v for k, v in self.bands.items()})

    __rmul__ = __mul__

    def scale_rows(self, s: np.ndarray) -> Bands:
        """diag(s) @ self: row i multiplied by s[i]."""
        return Bands._of(self.n, {k: s * v for k, v in self.bands.items()})

    @property
    def T(self) -> Bands:
        return Bands._of(self.n,
                         {-k: _shift(v, -k) for k, v in self.bands.items()})

    def __matmul__(self, other: Bands) -> Bands:
        out = {}
        for a in sorted(self.bands):
            x = self.bands[a]
            for b in sorted(other.bands):
                term = x * _shift(other.bands[b], a)
                out[a + b] = out[a + b] + term if a + b in out else term
        return Bands._of(self.n, out)


def _block_csr(blocks) -> sp.csr_matrix:
    """CSR matrix of a grid of equally sized Bands.

    Every entry whose column lies inside its block is stored, explicit
    zeros included, and the indices come out sorted.
    """
    n = blocks[0][0].n
    # int32 indices, as scipy would choose them, spare it a conversion.
    rows = np.arange(n, dtype=np.int32)[:, None]
    data, indices, counts = [], [], []
    for row in blocks:
        # One slot per (block, offset), in ascending column order.
        slots = [(j * n, k, b.bands[k]) for j, b in enumerate(row)
                 for k in sorted(b.bands)]
        start = np.array([s[0] for s in slots], dtype=np.int32)
        col = rows + (start + np.array([s[1] for s in slots], dtype=np.int32))
        inside = (col >= start) & (col < start + n)
        data.append(np.stack([s[2] for s in slots], axis=1)[inside])
        indices.append(col[inside])
        counts.append(inside.sum(axis=1, dtype=np.int32))
    indptr = np.zeros(len(blocks) * n + 1, dtype=np.int32)
    np.cumsum(np.concatenate(counts), out=indptr[1:])
    return sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr),
        shape=(len(blocks) * n, len(blocks[0]) * n))


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
    n = grid.n_points
    d_f, d_g, e_same, e_next = _sector_vectors(params, sector, grid, layout)
    # e_next couples F_j to G_{j+1} (STANDARD) or G_j to F_{j+1} (SWAPPED).
    step_up = Bands(n, {0: e_same, 1: np.append(e_next, 0.0)})
    fg = step_up if layout == STANDARD else step_up.T  # F rows, G columns
    return _block_csr([[Bands(n, {0: d_f}), fg],
                       [fg.T, Bands(n, {0: d_g})]])


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
    nodes_f, nodes_g = _layout_nodes(grid, layout)
    return f / np.sqrt(nodes_f), g / np.sqrt(nodes_g)


# tol <= 0 would mean eps * ||T||, and ||T|| is dominated by the huge
# near-wall Coulomb rows, which quantizes close eigenvalues at ~1e-4 * m.
# The underflow-threshold setting makes bisection run to full relative
# precision of the eigenvalue itself.
_FULL_PRECISION = 2.0 * np.finfo(np.float64).tiny

# dstebz's relative tolerance: twice its ulp, dlamch('P') = 2^-52.
_RELTOL = 2.0 * np.finfo(np.float64).eps

# Rayleigh-quotient steps at most, the ulps of |theta| added to a distance
# bound for the roundoff in computing the quotient, and the multiple of eps
# |x|^T |T| |x| added on the seeded pass's retry for the roundoff of the
# computed Sturm count.
_RQI_STEPS = 5
_RQI_ULPS = 16.0
_RETRY_WIDEN = 4.0

_STEBZ, _STEIN, _GTSV = get_lapack_funcs(("stebz", "stein", "gtsv"),
                                         dtype=np.float64)


def _check_vectors(vecs: np.ndarray, e: np.ndarray) -> None:
    """Raise GridError when the solver returned non-finite eigenvectors.

    Just inside the bisection overflow boundary (see _check_offdiagonal)
    stebz still returns eigenvalues, but inverse iteration returns NaN
    vectors and the eigenvalues are off by up to 15% (D = 2, Z alpha =
    0.4996, default wall 9.3e-151)."""
    if not np.isfinite(vecs).all():
        raise GridError(
            f"the tridiagonal eigensolver returned non-finite eigenvectors "
            f"(off-diagonal max |e| = {np.abs(e).max():.3g} near the inner "
            f"wall); use a smaller z_alpha (--zalpha)"
        )


def _window_bounds(m: float) -> tuple:
    """The bound window (tiny, m - tiny] as its (lower, upper) ends."""
    tiny = 1e-12 * m
    return tiny, m - tiny


def _bisect(d: np.ndarray, e: np.ndarray, lo: float, hi: float,
            tol: float) -> tuple:
    """stebz by value over (lo, hi] to tolerance tol: (how many eigenvalues
    lie there, their values ascending)."""
    size, w, _, _, info = _STEBZ(d, e, 1, lo, hi, 0, 0, tol, "E")
    if info:
        raise ConvergenceError(f"tridiagonal bisection failed: stebz info={info}")
    return size, w[:size]


def _count_in(d: np.ndarray, e: np.ndarray, lo: float, hi: float) -> int:
    """Number of eigenvalues in (lo, hi].

    A bisection tolerance as wide as the interval stops stebz after its
    Sturm counts at the ends and the midpoint, so this costs a few O(n)
    passes.
    """
    return _bisect(d, e, lo, hi, hi - lo)[0] if lo < hi else 0


def _converged(a: float, b: float, tol: float, pivmin: float) -> bool:
    """dstebz's stopping rule for the interval (a, b]."""
    return b - a < max(tol, pivmin, _RELTOL * max(abs(a), abs(b)))


def _node_of(lo: float, hi: float, a: float, b: float, tol: float,
             pivmin: float) -> tuple:
    """Halve the bisection node (a, b] as dlaebz does, toward [lo, hi]: the
    node where bisection to tolerance tol stops, or the deepest node that
    holds [lo, hi] whole if a midpoint falls inside it first.  With lo = hi
    = v, the node that bisection ends in when it returns the value v."""
    wide = max(tol, pivmin, _RELTOL * max(abs(a), abs(b)))  # stops only below
    while True:
        c = 0.5 * (a + b)
        if lo <= c < hi:
            return a, b
        a, b = (c, b) if lo > c else (a, c)
        if b - a < wide and _converged(a, b, tol, pivmin):
            return a, b


def _rayleigh(d: np.ndarray, e: np.ndarray, a: float, b: float,
              theta: float, widen: float = 0.0):
    """Rayleigh-quotient iteration on the bands from the shift theta, for
    the one eigenvalue taken to lie in (a, b]: (theta, delta), the Rayleigh
    quotient of the unit iterate x and its Kato-Temple distance bound delta
    = r^2 / gap + _RQI_ULPS eps |theta| + widen eps |x|^T |T| |x|, with r =
    ||T x - theta x|| and gap the distance from theta to the nearer end of
    (a, b].  Stops once r^2 / gap is below the ulp term.  None when an
    iterate leaves (a, b], a shifted solve is singular, or r cannot get
    there: r stops halving, or the roundoff of T x is already too large
    (deep walls), or _RQI_STEPS pass.
    """
    eps = np.finfo(np.float64).eps
    x = np.ones(d.size)
    r_last = math.inf
    for _ in range(_RQI_STEPS):
        # gtsv factors its bands in place, so it gets copies of e.
        *_, x, info = _GTSV(e.copy(), d - theta, e.copy(), x,
                            True, True, True, True)
        if info:
            return None
        x /= math.sqrt(x @ x)
        tx = d * x
        up, down = e * x[1:], e * x[:-1]
        if r_last == math.inf:
            # T x's roundoff, far above r's target near a deep wall.
            r_min = eps * float(np.abs(up).max(initial=0.0))
        tx[:-1] += up
        tx[1:] += down
        theta = float(x @ tx)
        if not a < theta <= b:
            return None
        tx -= theta * x
        r = math.sqrt(tx @ tx)
        floor, gap = _RQI_ULPS * eps * abs(theta), min(theta - a, b - theta)
        if r * r <= floor * gap:
            if widen:
                # |x|^T |T| |x|, the scale of the Sturm count's roundoff.
                floor += widen * eps * float(
                    np.abs(d) @ (x * x) + 2.0 * np.abs(x[:-1]) @ np.abs(up))
            return theta, floor + (r * r / gap if r else 0.0)
        if r > 0.5 * r_last or r_min * r_min > floor * gap:
            return None
        r_last = r
    return None


def _one_level(d: np.ndarray, e: np.ndarray, a: float, b: float,
               pivmin: float):
    """The one eigenvalue of the bisection node (a, b] at full precision,
    the midpoint when (a, b] has converged (the whole-window pass stops
    there; stebz on (a, b] would split it once more); None unless (a, b]
    holds exactly one eigenvalue, or when stebz's node is not found again.
    See _window_levels."""
    if _converged(a, b, _FULL_PRECISION, pivmin):
        return 0.5 * (a + b) if _count_in(d, e, a, b) == 1 else None
    size, w = _bisect(d, e, a, b, _FULL_PRECISION)
    if size != 1:
        return None
    na, nb = _node_of(w[0], w[0], a, b, _FULL_PRECISION, pivmin)
    return w[0] if 0.5 * (na + nb) == w[0] else None


def _seeded_levels(d: np.ndarray, e: np.ndarray, ends: list, hi: float,
                   widen: float, pivmin: float):
    """The levels seeded by ends[1:-1], ascending, at full precision; None
    when a node check fails, False when an iteration gives up.  ends[0] is
    the window's lower end, ends[-1] the seed above the top level.  See
    _window_levels."""
    lo, k = ends[0], len(ends) - 2
    nodes = []
    # Top level first: where seeds stray, the higher levels stray most, and
    # the count up to the top node then ends the pass before any bisection.
    for j in reversed(range(k)):
        got = _rayleigh(d, e, ends[j], min(ends[j + 2], hi), ends[j + 1],
                        widen)
        if got is None:
            return False
        a, b = _node_of(got[0] - got[1], sum(got), lo, hi, _FULL_PRECISION,
                        pivmin)
        # Below the node above, or for the top node, the k lowest levels.
        if b > nodes[-1][0] if nodes else _count_in(d, e, lo, b) != k:
            return None
        nodes.append((a, b))
    levels = []
    for a, b in reversed(nodes):
        levels.append(_one_level(d, e, a, b, pivmin))
        if levels[-1] is None:
            return None
    return np.array(levels)


def _window_levels(d: np.ndarray, e: np.ndarray, m: float, count: int,
                   seed=None) -> tuple:
    """(how many eigenvalues lie in the bound window, the lowest count of
    them ascending), bitwise the values of one full-precision stebz pass
    over the whole window; seed(k), when given, guesses level k.

    Bisection as dstebz runs it (Barth, Martin & Wilkinson 1967, in LAPACK's
    dlaebz) halves intervals at 0.5 * (a + b), starting from (lo, hi], and
    stops an interval once b - a < max(tol, pivmin, 2 eps max(|a|, |b|)).
    Each value it returns is the midpoint of the interval (node) it stops
    in, and that node, its Sturm counts and everything bisected below it
    are fixed by the node alone.  The computed Sturm count N is monotone
    (Kahan 1966; Demmel, Dhillon & Ren, ETNA 3, 1995), so a node found by
    halving toward a level, if it holds that level alone, lies on the
    whole-window pass's path: bisected from its own (a, b], or taken at its
    midpoint once converged, it gives the same float.

    Rayleigh-quotient iteration (_rayleigh) from seed(j), kept between the
    neighbouring seeds, places level j within its Kato-Temple bound delta,
    and halving the window toward theta +- delta (_node_of) gives its node
    (a, b].  The top level goes first: N(b) - N(lo) must equal the number
    of levels wanted before anything is bisected.  The nodes must be
    disjoint and ascending and hold one eigenvalue each (_one_level); then
    node j holds level j.  A failed check ends the pass.  The bound leaves
    out the roundoff of N itself, which at n = 1e5 can put a level just
    outside its node, so a pass whose node check fails runs once more with
    delta widened by _RETRY_WIDEN eps |x|^T |T| |x| (widening every pass
    would make each node's bisection longer).  A pass whose iteration gives
    up is not retried: the widening only enters a converged bound, and each
    iteration starts from the seeds alone, so the retry would give up at
    the same level.  Without seeds, or when the seeded pass fails (seeds
    that stray past a neighbour, as on coarse grids or for levels the box
    holds away from their closed forms, or a residual that cannot converge
    near deep walls), the whole window is bisected.
    """
    lo, hi = _window_bounds(m)
    if seed is not None:
        # dstebz's pivot floor: the underflow threshold times max(1, max e^2).
        e2_max = float(np.max(e * e, initial=0.0))
        pivmin = np.finfo(np.float64).tiny * max(1.0, e2_max)
        size = _count_in(d, e, lo, hi)
        ends = [lo, *(seed(j) for j in range(min(count, size) + 1))]
        for widen in (0.0, _RETRY_WIDEN):
            levels = _seeded_levels(d, e, ends, hi, widen, pivmin)
            if levels is False:
                break
            if levels is not None:
                return size, levels
    size, values = _bisect(d, e, lo, hi, _FULL_PRECISION)
    return size, values[:count]


def _closed_form_seed(params: PhysParams, sector: KappaSector):
    """seed(k) for _window_levels: level k's closed-form energy, in the
    units of the bands."""
    return lambda k: params.m * analytic.energy(
        params, analytic.level_label(sector, k))


def _eigenvectors(d: np.ndarray, e: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Inverse iteration (stein) for the ascending eigenvalues w, one
    column each; non-finite vectors raise GridError.

    The bands are passed as one block: they never split, and where an
    off-diagonal did fall below dstebz's split threshold the coupling it
    drops is below roundoff anyway.
    """
    n = d.size
    iblock = np.ones(n, dtype=np.int32)
    isplit = np.full(n, n, dtype=np.int32)
    vecs, info = _STEIN(d, e, w, iblock, isplit)
    if info:
        raise ConvergenceError(f"inverse iteration failed: stein info={info}")
    _check_vectors(vecs, e)
    return vecs


def _held(d: np.ndarray, e: np.ndarray, ends: list) -> list:
    """Whether the bands hold an eigenvalue in each interval (a, b] of ends,
    whose a and b both ascend.

    Consecutive intervals whose common part (a_last, b_first] is not empty
    form a run.  The computed Sturm count N is monotone (see
    _window_levels), so N(b) - N(a) >= N(b_first) - N(a_last) on every
    interval of a run: one count over the common part that finds an
    eigenvalue decides the whole run, and only a run whose common part
    holds none is counted an interval at a time.
    """
    held = []
    while len(held) < len(ends):
        i = j = len(held)
        while j + 1 < len(ends) and ends[j + 1][0] < ends[i][1]:
            j += 1
        common = _count_in(d, e, ends[j][0], ends[i][1]) > 0
        held += ([common] * (j + 1 - i) if common or i == j else
                 [_count_in(d, e, a, b) > 0 for a, b in ends[i:j + 1]])
    return held


def solve_bound_levels(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
    layout: str = STANDARD,
    count: int = 4,
    stability_check: bool = True,
) -> list:
    """Bound levels of a sector Hamiltonian, ascending, as Eigenpairs.

    The tridiagonal bands are assembled straight from the grid, so memory
    stays O(n).  Eigenvalues are taken in the window (0, m), lowest first,
    and only as many are bisected and inverted as it takes to keep count of
    them: _window_levels bisects just those levels, to the same floats as a
    bisection of the whole window.  Each candidate must pass a
    node-alternation filter on both components (a sign-alternation fraction
    above SPURIOUS_THRESHOLD marks a discretization artifact, not a bound
    state) and, when stability_check is set, must persist within
    STABILITY_TOL * m under one grid doubling: the doubled grid's bands
    must hold a window eigenvalue within STABILITY_TOL * m of it.  Sturm
    counts decide that, one over the common part of each run of
    overlapping intervals (_held), so no doubled-grid eigenpairs are
    computed and most solves make one count.
    The result is the first count levels of the whole window that pass.
    Raises SpuriousSpectrumError if filtering rejects every candidate,
    ConvergenceError on solver failure, GridError when the bands are too
    large for the solver (near-critical walls); emits TruncationWarning
    when fewer than count levels survive.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    bands = _sector_bands(params, sector, grid, layout)
    m = params.m
    # At least one level, so that a window of nothing but rejects still
    # raises; the result equals filtering the whole window and taking the
    # first `count`.
    want = max(count, 1)
    seed = _closed_form_seed(params, sector)
    size, vals = _window_levels(*bands, m, want, seed)
    if size == 0:
        warnings.warn(f"no bound levels in (0, m); requested {count}",
                      TruncationWarning)
        return []
    fine = (_sector_bands(params, sector, grid.refined(), layout)
            if stability_check else None)
    lo, hi = _window_bounds(m)
    kept = []
    passed_filter = 0
    done = 0
    while len(kept) < want and done < size:
        if done == vals.size:
            # Rejections used up the levels bisected so far (rare): bisect
            # the rest of the window in one pass.
            vals = _window_levels(*bands, m, size, seed)[1]
        take = min(want - len(kept), size - done)
        batch = vals[done:done + take]
        vecs = _eigenvectors(*bands, batch)
        done += take
        passed = []
        for j, val in enumerate(batch):
            f, g = _split_doublet(layout, grid, vecs[:, j])
            if max(_alternation_fraction(f),
                   _alternation_fraction(g)) <= SPURIOUS_THRESHOLD:
                passed.append((val, f, g))
        passed_filter += len(passed)
        if fine is not None:
            # Stable: the doubled grid has a window level within tol of it.
            tol = STABILITY_TOL * m
            held = _held(*fine, [(max(lo, val - tol), min(hi, val + tol))
                                 for val, _, _ in passed])
            passed = [level for level, ok in zip(passed, held) if ok]
        kept += passed
    # At large l the default box is too short for the window's levels.
    hint = "; use a larger r_max (--r-max) or more points (--grid-points)"
    if not passed_filter:
        raise SpuriousSpectrumError(
            f"all {size} candidates rejected by the alternation filter{hint}"
        )
    if not kept:
        raise SpuriousSpectrumError(
            f"no candidate persisted under grid doubling{hint}")
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
    stability_check: bool = True,
) -> list:
    """solve_bound_levels on the operator's params, sector, grid and layout:
    its bands are the same floats as the tridiagonal entries of op.csr."""
    return solve_bound_levels(op.params, op.sector, op.grid, op.layout,
                              count, stability_check)


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


def check_family(ns) -> None:
    """ValueError unless ns holds two or more increasing grid sizes."""
    if len(ns) < 2 or any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(
            f"grid family must have increasing n_points, got {list(ns)}")


def refinement(ns, values) -> tuple:
    """(successive ratios a / b, negated least-squares slope of log value
    on log n) of values on grid sizes ns; any zero value makes all inf."""
    if any(v == 0 for v in values):
        return tuple(math.inf for _ in values[1:]), math.inf
    ratios = tuple(float(a / b) for a, b in zip(values[:-1], values[1:]))
    return ratios, -float(np.polyfit(np.log(ns), np.log(values), 1)[0])


def convergence_study(
    params: PhysParams,
    sector: KappaSector,
    grid_family,
    count: int = 2,
) -> ConvergenceReport:
    """Solve on each grid and fit the error order against the level formula.

    The reference for level index k is the closed-form energy of
    analytic.level_label(sector, k).  Ratios and fitted_order of the errors
    follow refinement, and the family must pass check_family.
    """
    grids = list(grid_family)
    ns = [g.n_points for g in grids]
    check_family(ns)
    per_level = []
    for grid in grids:
        pairs = solve_bound_levels(params, sector, grid, count=count)
        if len(pairs) < count:
            raise ConvergenceError(
                f"grid with n_points={grid.n_points} resolved only "
                f"{len(pairs)} of {count} levels; use more points "
                f"(--grid-points) or fewer levels (--levels)"
            )
        per_level.append([p.energy for p in pairs])
    energies = np.array(per_level)  # shape (n_grids, count)
    rows = []
    for k in range(count):
        label = analytic.level_label(sector, k)
        exact = analytic.energy(params, label)
        errs = np.abs(energies[:, k] - exact)
        ratios, order = refinement(ns, errs)
        rows.append(ConvergenceRow(
            level_index=k, label=label, exact=exact,
            energies=tuple(float(x) for x in energies[:, k]),
            errors=tuple(float(x) for x in errs),
            ratios=ratios, fitted_order=order,
        ))
    return ConvergenceReport(params=params, sector=sector,
                             n_points=tuple(ns), rows=tuple(rows))
