"""Hidden N=2 supersymmetry of the Coulomb-Dirac spectrum, per |kappa| block.

A block couples the two sectors kappa = -|k| and +|k|.  The sector-swap
operator A (the D-dimensional relativistic Runge-Lenz-Pauli scalar) commutes
with H, anticommutes with K, and satisfies

    A^2 = 1 + (K / Z alpha)^2 (H^2 / m^2 - 1),

so with Q1 = A, Q2 = i A K / |kappa|, Q+- = (Q1 +- i Q2) / 2 the charges are
nilpotent and {Q+, Q-} = A^2: every bound level of one sector is degenerate
with a partner in the other, except the unpaired A-kernel state at the
bottom of the +|kappa| ladder (Witten index 1).

Discretely, A is assembled so the algebraic identities hold exactly: the
block form [[0, A_mp], [A_mp^T, 0]] is symmetric by construction, K is
exactly diagonal, and each charge product has a partner made of the same
floating-point products with opposite signs, giving bitwise-zero residuals
when both are summed in the same order.  The charges are formed once, in
_charges, as CSR matrices (A has at most 3 nonzeros per row): Im Q2 = A p
and Q+- = (1 +- p) A / 2, with p = K / |kappa| = +-1, scale A's data only,
so all four share A's index structure and every product sums over k in A's
index order.  Products with a scipy.sparse diagonal would reorder the
indices of their result, and {Q1, Q2} and H_susy - A^2 would then come out
nonzero.
The two analytic identities that are not structural, A^2 = 1 + ... and
[H, A] = 0, hold at second order in the grid step and are verified by
refinement (ratios and fitted order from radial.refinement, with each
study's own gate).  The refinement ladder, the kernel study and the
alternate-assembly check act with O(n) CSR forms of A_mp and the sector
Hamiltonians; their sums run in another order than dense products, which
shifts reported refinement residuals by up to about 1e-5 relative.  Those
operators are assembled as radial.Bands (offset -> row vector) and
converted to CSR once; scipy.sparse is used where they act, for its
sorted-index matvecs and products.  The band product loops over offset
pairs in one fixed order, so sign-symmetric sums built from it would cancel
exactly too.  SusyBlock stores A as one (4n, 4n) CSR matrix and K as its
diagonal vector, so verify allocates no (4n)^2 array; the dense fields
H_block, K_block and A_block are built from those only when read.

Two independent A assemblies are kept: the primary one from the defining
Johnson-Lippmann form A = eta * interp + (|kappa| / (Z alpha m)) J (H - m
gamma^0), and an alternate one from the Hermitian vector form built out of
the anticommutator {p, L} / (2 m Z alpha) - x/r; they agree at second order
on smooth states.  The sign eta of the angular term is fixed by the algebra:
A must annihilate the unpaired ground state, which forces eta = +1 in every
dimension (see ETA).  The kernel contract stays a measured check: the
kernel_annihilation row of verify_A_squared and kernel_annihilation_report
follow ||A psi_0|| under refinement.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import analytic, radial
from .core import KappaSector, PhysParams, RadialGrid, default_grid, kappa_of
from .errors import ConventionError, PairingError

MAX_ELEMENT_EXACT = "max_element_exact"
INTERIOR_RMS = "interior_rms_bound_states"

# Residual entries within this factor of their own floating-point noise
# floor carry no truncation signal and are dropped from refinement norms.
ROUNDOFF_FLOOR_FACTOR = 32.0

# Pass/fail gates, one constant each so that every path judges alike.
# Smallest residual ratio per grid doubling that a refinement row of
# verify_A_squared or KernelReport.passed accepts (second order gives 4).
MIN_REFINEMENT_RATIO = 3.5
# Largest relative error of the zero mode's Rayleigh quotient against the
# closed-form ground level that KernelReport.passed accepts.
RQ_TOL = 1e-5
# Largest partner gap, in units of m, that a PairingReport passes; a minus
# level this close to two plus levels makes the matching ambiguous.
PAIRING_TOL = 1e-5
# Smallest fitted order KernelReport.passed (and kernel's --min-order)
# takes by default, and the factor by which build_A's primary/alternate
# zero-mode gap must shrink under one grid doubling.
MIN_KERNEL_ORDER = 1.9
MIN_ALTERNATE_GAP_RATIO = 1.8

# verify_A_squared's ladder: doublings of the block's grid, bound states.
REFINEMENTS = 2
ENSEMBLE = 4
PAIRING_COUNT = 3  # minus levels that spectral_pairing_at pairs


@dataclass(frozen=True)
class SusyBlock:
    """One |kappa| block: both sector Hamiltonians plus the SUSY operators.

    Vector layout: (minus sector, plus sector), each sector stacked (F, G).
    The minus sector uses the swapped staggering (F on half nodes) so that
    A_mp maps plus-sector vectors onto minus-sector node sets consistently.

    The block stores operators, not dense matrices: each sector's CSR (in
    minus and plus), K as its diagonal (-|kappa| over the minus sector,
    +|kappa| over the plus sector), and A as one (4n, 4n) CSR matrix
    [[0, A_mp], [A_mp^T, 0]] with sorted indices and no explicit zeros.  A
    and eta are populated by build_A; the block is immutable (its arrays
    are read-only), so build_A returns a new instance.  H_block, K_block
    and A_block are dense read-only forms built from the stored operators
    only when read; dataclasses.replace does not carry them over.  No
    library path reads them.
    """

    params: PhysParams
    abs_kappa: float
    grid: RadialGrid
    minus: radial.RadialOperator
    plus: radial.RadialOperator
    K: np.ndarray
    A: sp.csr_matrix | None = None
    eta: int | None = None

    def __post_init__(self):
        n4 = 4 * self.n
        if self.K.shape != (n4,):
            raise ValueError(f"K shape {self.K.shape} != {(n4,)}")
        radial._read_only(self.K)
        if self.A is not None:
            if (self.A.format != "csr" or self.A.shape != (n4, n4)
                    or not self.A.has_canonical_format):
                raise ValueError(
                    f"A must be a ({n4}, {n4}) CSR matrix with sorted "
                    f"indices and no duplicates")
            radial._read_only(self.A)

    @property
    def n(self) -> int:
        return self.grid.n_points

    @functools.cached_property
    def H_block(self) -> np.ndarray:
        return radial._read_only(
            sp.block_diag((self.minus.csr, self.plus.csr)).toarray())

    @functools.cached_property
    def K_block(self) -> np.ndarray:
        return radial._read_only(np.diag(self.K))

    @functools.cached_property
    def A_block(self) -> np.ndarray | None:
        return None if self.A is None else radial._read_only(self.A.toarray())


def sector_pair(params: PhysParams, abs_kappa: float) -> tuple:
    """(minus, plus) KappaSector for a given |kappa| = l + (D-1)/2."""
    if not math.isfinite(abs_kappa * abs_kappa):
        raise ValueError(f"abs_kappa must be finite, with a finite square, "
                         f"got {abs_kappa!r}")
    l_float = abs_kappa - (params.D - 1) / 2
    l = round(l_float)
    if l < 0 or abs(l_float - l) > 1e-12:
        raise ValueError(
            f"abs_kappa = {abs_kappa} is not l + (D-1)/2 for integer l >= 0 "
            f"at D = {params.D}"
        )
    return kappa_of(params, l, -1), kappa_of(params, l, 1)


def build_susy_block(
    params: PhysParams,
    abs_kappa: float,
    grid: RadialGrid | None = None,
    n_points: int = 800,
) -> SusyBlock:
    """Assemble both sector Hamiltonians on one shared staggered grid, as
    CSR, and K as its diagonal vector."""
    minus_sector, plus_sector = sector_pair(params, abs_kappa)
    if grid is None:
        grid = default_grid(params, plus_sector, n_points=n_points)
    plus = radial.build_radial_hamiltonian(params, plus_sector, grid,
                                           layout=radial.STANDARD)
    minus = radial.build_radial_hamiltonian(params, minus_sector, grid,
                                            layout=radial.SWAPPED)
    k = np.repeat(np.array([-abs_kappa, abs_kappa], dtype=np.float64),
                  2 * grid.n_points)
    return SusyBlock(params=params, abs_kappa=abs_kappa, grid=grid,
                     minus=minus, plus=plus, K=k)


def interior_norm(vec: np.ndarray, n: int, margin: int) -> float:
    """l2 norm of a stacked (F, G) vector over stencil-complete rows.

    The first and last `margin` rows of each component are excluded: wall
    rows of Dirichlet stencils are inconsistent for profiles that do not
    vanish at the wall (the kernel behaves like r^s with s < 1), so they do
    not converge pointwise and would mask the interior order.
    """
    w = np.concatenate([vec[margin:n - margin], vec[n + margin:2 * n - margin]])
    return float(np.linalg.norm(w))


def _floor_masked(res: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Zero residual entries that sit at their own roundoff floor.

    `scale` is the componentwise magnitude sum of the terms combined in each
    row, so eps * scale is the best accuracy floating point can deliver
    there.  Near the inner wall the composed coefficients reach
    1/(step * r)^2, so those rows' floors grow under refinement while the
    entries carry no truncation signal; keeping them would mask the interior
    order.  A wrong operator produces residuals of order scale itself, about
    1/eps above the floor, so the mask cannot hide a real defect.
    """
    floor = ROUNDOFF_FLOOR_FACTOR * np.finfo(np.float64).eps * scale
    return np.where(np.abs(res) > floor, res, 0.0)


# Sign of the angular term of A, fixed by the Johnson-Lippmann algebra
# (Johnson and Lippmann, Phys. Rev. 78, 329 (1950)): A must annihilate the
# unpaired ground state.  In _assemble_a_mp's layout A = eta 1 + c J (H -
# m gamma^0) on the plus-sector doublet (F, G), with c = |kappa| / (Z alpha
# m) and J = [[0, -1], [1, 0]].  On the ground state, H psi_0 = E_0 psi_0
# gives (H - m gamma^0) psi_0 = ((E_0 - m) F, (E_0 + m) G), so A psi_0 = 0
# needs
#     eta F = c (E_0 + m) G   and   eta G = c (m - E_0) F.
# The two are consistent when c^2 (m^2 - E_0^2) = 1, which holds exactly:
# E_0 = m s / |kappa| and kappa^2 - s^2 = (Z alpha)^2.  The ground state has
# G / F = (kappa - s) / Z alpha (analytic.kernel_wavefunction), positive
# because s = sqrt(kappa^2 - (Z alpha)^2) < kappa = |kappa|.  So eta =
# sign(G / F) = +1 for every D, l and subcritical Z alpha.
ETA = 1


def _assemble_a_mp(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                   eta: int) -> sp.csr_matrix:
    """Primary A assembly from the plus-sector Hamiltonian's entries, as CSR.

    A_mp = eta * blockdiag(Av, Av^T) + c * J (H_plus - m gamma^0), with
    c = |kappa| / (Z alpha m), J = [[0, -1], [1, 0]] on the doublet, and Av
    the staggered two-point average; eta = ETA annihilates the zero mode.
    J swaps the component roles, which is what lands the result on the
    swapped (minus-sector) node sets.  Every block is diagonal or
    bidiagonal, so A_mp has at most 3 nonzeros per row.
    """
    _, plus_sector = sector_pair(params, abs_kappa)
    n = grid.n_points
    d_f, d_g, cross_same, cross_next = radial._sector_vectors(
        params, plus_sector, grid, radial.STANDARD)
    c = abs_kappa / (params.z_alpha * params.m)
    v_int = d_f - params.m
    v_half = d_g + params.m
    av = radial.Bands(n, {0: 0.5, -1: 0.5})
    # The plus cross block: cross_same on its diagonal, cross_next above.
    cross = radial.Bands(n, {0: cross_same, 1: np.append(cross_next, 0.0)})
    return radial._block_csr([
        [eta * av - c * cross.T, radial.Bands(n, {0: -c * v_half})],
        [radial.Bands(n, {0: c * v_int}), eta * av.T + c * cross],
    ])


def alternate_a_mp(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                   eta: int) -> sp.csr_matrix:
    """Independent A assembly from the Hermitian vector form, as CSR.

    The radial reduction of (1 / (2 m Z alpha)) {p, L} - x/r gives, acting
    between the sectors,

        W(kappa) = 2 r (-d^2/dr^2 + kappa (kappa - 1) / r^2)
                 + 2 (r d/dr - nu)(d/dr - kappa / r) + 2 nu (d/dr - kappa/r),

    nu = (D - 1) / 2, which collapses analytically to -2 kappa (d/dr -
    kappa/r); here it is discretized term by term WITHOUT the collapse, on
    the staggered nodes in physical variables, composing two-point pieces
    (average insertions restore node parity for even derivative counts), and
    then conjugated into the transformed representation.  Wall rows are not
    stencil-complete; compare on interior rows.

    The pieces are radial.Bands (offset -> row vector), composed with its
    fixed-order band product; scipy.sparse enters only at the end, in the
    one conversion of the four n x n blocks to CSR.
    """
    n = grid.n_points
    ak = abs_kappa
    nu = (params.D - 1) / 2
    r_i = grid.nodes
    r_h = grid.nodes_small

    def di(v):
        return radial.Bands(n, {0: v})

    # Two-point physical primitives between the staggered node sets.
    gap_ih = np.empty(n)
    gap_ih[0] = r_i[0] - grid.r_min
    gap_ih[1:] = np.diff(r_i)
    inv = 1.0 / gap_ih
    d_ih = radial.Bands(n, {0: inv, -1: -inv})
    r_h_top = r_h[-1] ** 2 / r_h[-2]
    gap_hi = np.empty(n)
    gap_hi[:-1] = np.diff(r_h)
    gap_hi[-1] = r_h_top - r_h[-1]
    inv = 1.0 / gap_hi
    d_hi = radial.Bands(n, {0: -inv, 1: inv})
    avg_ih = radial.Bands(n, {0: 0.5, -1: 0.5})
    avg_hi = radial.Bands(n, {0: 0.5, 1: 0.5})

    def w_blocks(kappa, d_fwd, d_bwd, avg_fwd, avg_bwd, r_src, r_dst):
        # int->half for the upper-left block, half->int for the lower-right;
        # d_fwd/avg_fwd map source to destination rows, d_bwd/avg_bwd back.
        xi_fwd = avg_fwd.scale_rows(1.0 / r_dst)
        d2_src = d_bwd @ d_fwd
        term1 = avg_fwd.scale_rows(2.0 * r_dst) @ (
            -d2_src + kappa * (kappa - 1.0) * di(1.0 / r_src**2))
        inner = d_fwd - kappa * xi_fwd
        outer = d_bwd.scale_rows(r_src) - nu * avg_bwd
        term2 = 2.0 * avg_fwd @ (outer @ inner)
        term3 = 2.0 * nu * inner
        return term1 + term2 + term3

    scale = 1.0 / (2.0 * params.z_alpha * params.m)
    ul = eta * (avg_ih - scale * w_blocks(ak, d_ih, d_hi, avg_ih, avg_hi,
                                          r_i, r_h))
    lr = eta * (avg_hi + scale * w_blocks(-ak, d_hi, d_ih, avg_hi, avg_ih,
                                          r_h, r_i))
    s_i = np.sqrt(r_i)
    s_h = np.sqrt(r_h)
    ul = ul.scale_rows(s_h) @ di(1.0 / s_i)
    lr = lr.scale_rows(s_i) @ di(1.0 / s_h)
    return radial._block_csr([[ul, di(ak / (params.m * r_h))],
                              [di(-ak / (params.m * r_i)), lr]])


def _kernel_flat_vector(params: PhysParams, abs_kappa: float,
                        grid: RadialGrid) -> np.ndarray:
    """Discretized A-kernel doublet as a unit vector in solver coordinates."""
    _, plus_sector = sector_pair(params, abs_kappa)
    f, g = analytic.kernel_wavefunction(params, plus_sector, grid)
    v = np.concatenate([f * np.sqrt(grid.nodes), g * np.sqrt(grid.nodes_small)])
    return v / np.linalg.norm(v)


def _alternate_gap(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                   eta: int, a_mp: sp.csr_matrix) -> float:
    """Zero-mode action gap between a_mp, the primary assembly on grid, and
    the alternate one."""
    alt = alternate_a_mp(params, abs_kappa, grid, eta)
    v = _kernel_flat_vector(params, abs_kappa, grid)
    return interior_norm(a_mp @ v - alt @ v, grid.n_points, 3)


def build_A(block: SusyBlock, eta: int | None = None,
            check_alternate: bool = True) -> SusyBlock:
    """Assemble the sector-swap operator and return the completed block.

    eta = None takes the sign of the angular term from the algebra, ETA =
    +1 (A annihilates the unpaired ground state only with that sign).
    Passing eta = +-1 forces the convention; -1 is the negative control,
    which the kernel contract rejects.  check_alternate also requires the
    independent Hermitian-form assembly to converge to this one on the zero
    mode; ConventionError if it does not.

    The block's A is stored as one CSR matrix, sp.bmat([[None, A_mp],
    [A_mp^T, None]]) with explicit zeros dropped and indices sorted: the
    structure verify_A_squared shares among A and the charges.  No dense
    array is built.
    """
    if eta is None:
        eta = ETA
    elif eta not in (1, -1):
        raise ValueError(f"eta must be +1 or -1, got {eta!r}")
    params, ak = block.params, block.abs_kappa
    a_mp = _assemble_a_mp(params, ak, block.grid, eta)
    if check_alternate:
        # Agreement "to discretization tolerance" means the gap between the
        # two assemblies vanishes under refinement; its absolute size at one
        # grid is dominated by wall-amplified cusp error when s is small.
        fine = block.grid.refined()
        gap = _alternate_gap(params, ak, block.grid, eta, a_mp)
        gap_fine = _alternate_gap(params, ak, fine, eta,
                                  _assemble_a_mp(params, ak, fine, eta))
        if not gap_fine < gap / MIN_ALTERNATE_GAP_RATIO:
            raise ConventionError(
                f"primary and alternate A assemblies do not converge to each "
                f"other: zero-mode action gaps {gap:.3e} -> {gap_fine:.3e}"
            )
    a = sp.bmat([[None, a_mp], [a_mp.T, None]], format="csr")
    a.eliminate_zeros()
    a.sort_indices()
    return replace(block, A=a, eta=eta)


@dataclass(frozen=True)
class SusyCharges:
    """Nilpotent charges of the block; all products of A and K/|kappa|.

    Q1 is real symmetric, Q2 = i A K / |kappa| is purely imaginary and
    Hermitian, Q+- = (1 +- K/|kappa|) A / 2 are real, and H_susy =
    {Q+, Q-}.  All are read-only CSR, assembled so that Q+-^2, {Q1, Q2}
    and H_susy - A^2 are identically zero matrices, not merely small.
    """

    Q1: sp.csr_matrix
    Q2: sp.csr_matrix
    Q_plus: sp.csr_matrix
    Q_minus: sp.csr_matrix
    H_susy: sp.csr_matrix

    def __post_init__(self):
        for mat in (self.Q1, self.Q2, self.Q_plus, self.Q_minus, self.H_susy):
            radial._read_only(mat)


def _charges(block: SusyBlock) -> tuple:
    """(Im Q2, Q+, Q-) = (A p, (1 + p) A / 2, (1 - p) A / 2), p = K /
    |kappa| = +-1, as CSR sharing A's indices and indptr (see the module
    docstring for why the exact zeros need that)."""
    a = block.A
    p = block.K / block.abs_kappa
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))

    def shared(data):
        return sp.csr_matrix((data, a.indices, a.indptr), shape=a.shape)

    return (shared(a.data * p[a.indices]),
            shared((0.5 * (1.0 + p))[row_of] * a.data),
            shared((0.5 * (1.0 - p))[row_of] * a.data))


def build_supercharges(block: SusyBlock) -> SusyCharges:
    """Q1 = A, Q2, Q+- and H_susy = Q+ Q- + Q- Q+ from _charges, as CSR:
    no (4n)^2 array is built.  H_susy - A @ A is an exact CSR zero; H_susy
    is not bitwise a dense gemm, which sums in another order."""
    if block.A is None:
        raise ValueError("A not assembled; call build_A first")
    q2_im, q_plus, q_minus = _charges(block)
    return SusyCharges(Q1=block.A, Q2=1j * q2_im, Q_plus=q_plus,
                       Q_minus=q_minus,
                       H_susy=q_plus @ q_minus + q_minus @ q_plus)


@dataclass(frozen=True)
class VerifyRow:
    name: str
    norm_type: str
    residual: float
    refinement_order: float | None
    passed: bool
    residuals: tuple = ()
    ratios: tuple = ()

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "norm_type": self.norm_type,
            "residual": self.residual,
            "refinement_order": self.refinement_order,
            "pass": self.passed,
        }


@dataclass(frozen=True)
class SusyVerification:
    params: PhysParams
    abs_kappa: float
    n_points: tuple
    rows: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _bound_columns(params: PhysParams, sector: KappaSector, grid: RadialGrid,
                   count: int) -> np.ndarray:
    """Lowest `count` bound eigencolumns of the sector in the STANDARD
    layout, as stacked (F, G) solver-coordinate vectors.

    Only those levels are bisected (radial._window_levels, seeded with
    their closed-form energies as solve_bound_levels seeds them) and
    inverted, and their eigenvalues are bitwise those of a bisection of the
    whole window, so the columns are those of the whole-window solve.  The
    eigenvalues must not move by even an ulp: the roundoff mask of the
    refinement rows amplifies that to about 3e-5 in a fitted order (D = 2,
    |kappa| = 1/2, n = 80).
    """
    bands = radial._sector_bands(params, sector, grid, radial.STANDARD)
    _, vals = radial._window_levels(*bands, params.m, count,
                                    radial._closed_form_seed(params, sector))
    cols = radial._eigenvectors(*bands, vals)
    # Position order G_1, F_1, G_2, F_2, ...
    return np.vstack([cols[1::2], cols[0::2]])


def verify_A_squared(block: SusyBlock) -> SusyVerification:
    """Verify the full operator algebra of the block.

    Structural identities (A symmetric, {A, K} = 0, Q+-^2 = 0, {Q1, Q2} = 0,
    H_susy = A^2) are checked for exact zero max element at the block's own
    grid size, from the block's CSR A and K vector and the charges of
    _charges: O(n) sparse work, and no (4n)^2 array.
    The two analytic identities, A^2 = 1 + (K/Z alpha)^2 (H^2/m^2 - 1) and
    [H, A] = 0, are genuine discretizations: their residuals are measured by
    action on the lowest ENSEMBLE bound states plus the zero mode, on
    interior rows, over REFINEMENTS grid doublings, and must shrink by
    MIN_REFINEMENT_RATIO per doubling (radial.refinement).  The base level
    acts with the block's own A_mp, H+ and H-; each refined level assembles
    them as CSR (A_mp with the block's eta), at most 3 nonzeros per row, so
    the ladder costs O(n) per state.
    Sparse products sum in another order than dense ones, which moves the
    reported residuals by up to about 1e-5 relative where entries sit at the
    edge of the roundoff mask.  Entries at their own roundoff floor are
    dropped first (see _floor_masked); without that the blocks with s < 1/2
    fail spuriously, because rows pinned at the inner wall amplify machine
    noise by 1/(step * r)^2 under the composed operators.  The bound-state
    seminorm is the metric because raw operator norms of the residual
    matrices diverge like 1/step: rows near the origin carry 1/r-weighted
    coefficients with no bound-state support.
    """
    blk = block if block.A is not None else build_A(block)
    rows = []
    a = blk.A
    k = blk.K
    row_of = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    q2, q_plus, q_minus = _charges(blk)

    def exact_row(name, entries):
        res = float(np.max(np.abs(entries), initial=0.0))
        rows.append(VerifyRow(name=name, norm_type=MAX_ELEMENT_EXACT,
                              residual=res, refinement_order=None,
                              passed=res == 0.0))

    # Sparse sums and products store each entry once, so the largest |data|
    # is the largest entry of the whole matrix.
    exact_row("a_symmetric", (a - a.T).data)
    exact_row("anticommutator_k_a", a.data * k[a.indices] + k[row_of] * a.data)
    exact_row("q_plus_squared", (q_plus @ q_plus).data)
    exact_row("q_minus_squared", (q_minus @ q_minus).data)
    exact_row("anticommutator_q1_q2", (a @ q2 + q2 @ a).data)
    exact_row("h_susy_equals_a_squared",
              (q_plus @ q_minus + q_minus @ q_plus - a @ a).data)

    ns, eq6_res, comm_res, kern_res = [], [], [], []
    params, ak = blk.params, blk.abs_kappa
    factor = (ak / params.z_alpha) ** 2
    m = params.m
    plus_sector, minus_sector = blk.plus.sector, blk.minus.sector
    grid = blk.grid
    n2 = 2 * blk.n
    a_mp, hp, hm = a[:n2, n2:], blk.plus.csr, blk.minus.csr
    for level in range(REFINEMENTS + 1):
        if level:
            grid = grid.refined()
            a_mp = _assemble_a_mp(params, ak, grid, blk.eta)
            hp = radial._sector_csr(params, plus_sector, grid, radial.STANDARD)
            hm = radial._sector_csr(params, minus_sector, grid, radial.SWAPPED)
        n = grid.n_points
        ns.append(n)
        a_abs, hp_abs, hm_abs = abs(a_mp), abs(hp), abs(hm)
        vk = _kernel_flat_vector(params, ak, grid)
        # Columns: the lowest ENSEMBLE bound states, then the zero mode.
        vs = np.column_stack([
            _bound_columns(params, plus_sector, grid, ENSEMBLE), vk])
        va = np.abs(vs)
        av = a_mp @ vs
        r_eq6 = a_mp.T @ av - vs - factor * ((hp @ (hp @ vs)) / m**2 - vs)
        s_eq6 = a_abs.T @ (a_abs @ va) + va \
            + factor * ((hp_abs @ (hp_abs @ va)) / m**2 + va)
        r_comm = hm @ av - a_mp @ (hp @ vs)
        s_comm = hm_abs @ (a_abs @ va) + a_abs @ (hp_abs @ va)
        r_eq6 = _floor_masked(r_eq6, s_eq6)
        r_comm = _floor_masked(r_comm, s_comm)
        eq6 = [interior_norm(col, n, 3) for col in r_eq6.T]
        comm = [interior_norm(col, n, 3) for col in r_comm.T]
        eq6_res.append(float(np.sqrt(np.mean(np.square(eq6)))))
        comm_res.append(float(np.sqrt(np.mean(np.square(comm)))))
        kern_res.append(interior_norm(
            _floor_masked(av[:, -1], a_abs @ va[:, -1]), n, 2))

    def refine_row(name, res):
        ratios, order = radial.refinement(ns, res)
        rows.append(VerifyRow(
            name=name, norm_type=INTERIOR_RMS, residual=res[-1],
            refinement_order=order,
            passed=all(r >= MIN_REFINEMENT_RATIO for r in ratios),
            residuals=tuple(res), ratios=ratios,
        ))

    refine_row("a_squared_identity", eq6_res)
    refine_row("commutator_h_a", comm_res)
    refine_row("kernel_annihilation", kern_res)
    return SusyVerification(params=blk.params, abs_kappa=blk.abs_kappa,
                            n_points=tuple(ns), rows=tuple(rows))


@dataclass(frozen=True)
class PairingRow:
    n_prime: int
    energy_minus: float
    energy_plus: float
    gap: float


@dataclass(frozen=True)
class PairingReport:
    """Measured SUSY pairing between the two sectors of one block; tol
    records the PAIRING_TOL it was judged with."""

    params: PhysParams
    abs_kappa: float
    tol: float
    unpaired_energy: float
    rows: tuple
    witten_index: int
    reason: str = ""

    @property
    def max_gap(self) -> float:
        return max((r.gap for r in self.rows), default=0.0)

    @property
    def passed(self) -> bool:
        return (not self.reason and self.witten_index == 1
                and self.max_gap < self.tol
                and all(self.unpaired_energy < r.energy_plus for r in self.rows))


def _match_levels(params: PhysParams, abs_kappa: float,
                  e_minus: list, e_plus: list) -> PairingReport:
    if not e_plus:
        raise PairingError("no bound levels resolved in the plus sector")
    tol = PAIRING_TOL
    rows = []
    reason = ""
    for j, em in enumerate(e_minus):
        if j + 1 >= len(e_plus):
            reason = f"minus level {j} has no plus partner resolved"
            break
        gap = abs(em - e_plus[j + 1])
        neighbors = [abs(em - e) for jj, e in enumerate(e_plus) if jj != j + 1]
        if gap < tol and neighbors and min(neighbors) < tol:
            raise PairingError(
                f"minus level {j} at E/m = {em} lies within {tol} of two "
                "plus levels; matching ambiguous at this tolerance"
            )
        rows.append(PairingRow(n_prime=j + 1, energy_minus=em,
                               energy_plus=e_plus[j + 1], gap=gap))
    witten = len(e_plus) - len(e_minus)
    return PairingReport(params=params, abs_kappa=abs_kappa,
                         tol=tol, unpaired_energy=e_plus[0], rows=tuple(rows),
                         witten_index=witten, reason=reason)


def _pairing_r_max(params: PhysParams, plus_sector: KappaSector,
                   count: int) -> float:
    """Outer radius of the block default grid, widened so the top tested
    level's tail fits.

    default_grid sizes r_max for the nodeless state, but level n' decays
    like exp(-sqrt(m^2 - E^2) r), so the count-th pair needs roughly
    r_max > 14 / sqrt(m^2 - E^2) before wall truncation stops moving its
    energy at the 1e-5 gap scale.  Blocks with |kappa| around 1 or more
    already satisfy this at the default 60 units; small half-integer
    |kappa| blocks need the wider box.
    """
    label = analytic.level_label(plus_sector, count)
    e_top = params.m * analytic.energy(params, label)
    lam = math.sqrt(params.m ** 2 - e_top ** 2)
    unit = plus_sector.abs_kappa / (params.z_alpha * params.m)
    factor = max(60.0, 14.0 / (lam * unit))
    return factor * unit


def spectral_pairing_at(
    params: PhysParams,
    abs_kappa: float,
    grid: RadialGrid = None,
    n_points: int = 800,
) -> PairingReport:
    """Solve both sectors of the block and match levels across the SUSY map.

    The expected structure is minus-level j <-> plus-level j+1, for the
    lowest PAIRING_COUNT minus levels, with the plus ground state unpaired.
    A minus level lying within PAIRING_TOL of two plus levels makes the
    matching ambiguous: PairingError.  Gaps exceeding PAIRING_TOL or a
    Witten index != 1 are reported as a failed pairing, not an exception.
    Both sectors are solved from their bands (radial.solve_bound_levels),
    in O(n) memory.

    With grid=None the block default grid is used, widened if needed so the
    top pair's exponential tail fits the box (see _pairing_r_max); a given
    grid that ends short of that box gets a TruncationWarning, since its
    gaps then measure the box rather than the step.  Gaps shrink like the
    square of the step, so a block whose pairing sits above PAIRING_TOL on
    the default grid (small s makes the cusp expensive) just needs more
    points.
    """
    minus_sector, plus_sector = sector_pair(params, abs_kappa)
    box = _pairing_r_max(params, plus_sector, PAIRING_COUNT)
    if grid is None:
        grid = default_grid(params, plus_sector, n_points, box)
    elif grid.r_max < box:
        warnings.warn(f"pairing grid r_max = {grid.r_max:.6g} is below "
                      f"{box:.6g}, the box the top pair's tail needs; "
                      f"pass a larger --r-max", radial.TruncationWarning)
    plus_pairs = radial.solve_bound_levels(params, plus_sector, grid,
                                           layout=radial.STANDARD,
                                           count=PAIRING_COUNT + 1)
    minus_pairs = radial.solve_bound_levels(params, minus_sector, grid,
                                            layout=radial.SWAPPED,
                                            count=PAIRING_COUNT)
    return _match_levels(params, abs_kappa,
                         [p.energy for p in minus_pairs],
                         [p.energy for p in plus_pairs])


@dataclass(frozen=True)
class KernelReport:
    """Refinement study of the zero-mode annihilation and its energy."""

    params: PhysParams
    abs_kappa: float
    n_points: tuple
    residuals: tuple
    ratios: tuple
    fitted_order: float
    rayleigh_quotient: float
    ground_exact: float
    rq_rel_error: float

    def failed_gate(self, min_order: float = MIN_KERNEL_ORDER) -> str:
        """The first gate the study fails, with its numbers, or "" if it
        passes.  min_order is set by --min-order; the other gates are
        constants."""
        if not self.fitted_order >= min_order:
            return f"fitted order {self.fitted_order:.3f} < {min_order}"
        for ratio in self.ratios:
            if not ratio >= MIN_REFINEMENT_RATIO:
                return f"refinement ratio {ratio:.3f} < {MIN_REFINEMENT_RATIO}"
        if not self.rq_rel_error <= RQ_TOL:
            return f"rq_rel_error {self.rq_rel_error:.3e} > {RQ_TOL:g}"
        return ""

    def passed(self, min_order: float = MIN_KERNEL_ORDER) -> bool:
        return not self.failed_gate(min_order)


def kernel_annihilation_report(
    params: PhysParams,
    abs_kappa: float,
    n_points: tuple = (200, 400, 800, 1600),
) -> KernelReport:
    """Measure ||A psi_0|| (interior) under refinement, plus the Rayleigh
    quotient of H on psi_0 at the finest grid against the closed form.

    All grids share the sector's default domain, so the family is a genuine
    refinement ladder.  A is assembled with the derived sign ETA = +1.
    """
    radial.check_family(n_points)
    _, plus_sector = sector_pair(params, abs_kappa)
    grids = [default_grid(params, plus_sector, n_points=n) for n in n_points]
    residuals = []
    for grid in grids:
        a_mp = _assemble_a_mp(params, abs_kappa, grid, ETA)
        v = _kernel_flat_vector(params, abs_kappa, grid)
        residuals.append(interior_norm(a_mp @ v, grid.n_points, 2))
    h_plus = radial._sector_csr(params, plus_sector, grids[-1])
    rq = float((v @ (h_plus @ v)) / (v @ v) / params.m)
    ground = analytic.ground_energy(params, abs_kappa)
    ratios, order = radial.refinement(n_points, residuals)
    return KernelReport(
        params=params, abs_kappa=abs_kappa, n_points=tuple(n_points),
        residuals=tuple(residuals), ratios=ratios, fitted_order=order,
        rayleigh_quotient=rq, ground_exact=ground,
        rq_rel_error=abs(rq - ground) / ground,
    )
