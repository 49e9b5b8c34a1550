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
exactly diagonal, and the charge products reduce to identical gemms with
sign-symmetric summands, giving bitwise-zero residuals.  These dense
(4n)^2 products are the only dense work, and only at the block's base
size; products with the diagonal K are applied as row and column scalings.
The two analytic identities that are not structural, A^2 = 1 + ... and
[H, A] = 0, hold at second order in the grid step and are verified by
refinement.  The refinement ladder, the kernel study and the eta pinning
act with O(n) CSR forms of A_mp and the sector Hamiltonians (at most 3
nonzeros per row); their sums run in another order than dense products,
which shifts reported refinement residuals by up to about 1e-5 relative.

Two independent A assemblies are kept: the primary one from the defining
form A = eta * interp - (kappa / (Z alpha m)) J (H - m gamma^0), and an
alternate one from the Hermitian vector form built out of the anticommutator
{p, L} / (2 m Z alpha) - x/r; they agree at second order on smooth states.
The free sign eta of the angular matrix element is pinned by the kernel
contract: the assembled A must annihilate the discretized analytic zero
mode under refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from . import analytic, radial
from .core import LOG_UNIFORM, UNIFORM, KappaSector, PhysParams, RadialGrid, \
    default_grid, kappa_of
from .errors import ConventionError, PairingError

MAX_ELEMENT_EXACT = "max_element_exact"
INTERIOR_RMS = "interior_rms_bound_states"
RELATIVE_ERROR = "relative_error"

# Residual entries within this factor of their own floating-point noise
# floor carry no truncation signal and are dropped from refinement norms.
ROUNDOFF_FLOOR_FACTOR = 32.0


@dataclass(frozen=True)
class SusyBlock:
    """One |kappa| block: both sector Hamiltonians plus the SUSY operators.

    Vector layout: (minus sector, plus sector), each sector stacked (F, G).
    The minus sector uses the swapped staggering (F on half nodes) so that
    A_mp maps plus-sector vectors onto minus-sector node sets consistently.
    A_block and eta are populated by build_A; the block is immutable, so
    build_A returns a new instance.
    """

    params: PhysParams
    abs_kappa: float
    l: int
    grid: RadialGrid
    minus: radial.RadialOperator
    plus: radial.RadialOperator
    H_block: np.ndarray
    K_block: np.ndarray
    A_block: np.ndarray | None = None
    eta: int | None = None

    def __post_init__(self):
        self.H_block.flags.writeable = False
        self.K_block.flags.writeable = False
        if self.A_block is not None:
            self.A_block.flags.writeable = False

    @property
    def n(self) -> int:
        return self.grid.n_points

    def a_mp(self) -> np.ndarray:
        """Upper-right block of A: maps plus-sector vectors to minus rows."""
        if self.A_block is None:
            raise ValueError("A_block not assembled; call build_A first")
        return self.A_block[: 2 * self.n, 2 * self.n:]


def sector_pair(params: PhysParams, abs_kappa: float) -> tuple:
    """(minus, plus) KappaSector for a given |kappa| = l + (D-1)/2."""
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
    scheme: str = LOG_UNIFORM,
) -> SusyBlock:
    """Assemble both sector Hamiltonians on one shared staggered grid."""
    minus_sector, plus_sector = sector_pair(params, abs_kappa)
    if grid is None:
        grid = default_grid(params, plus_sector, n_points=n_points, scheme=scheme)
    plus = radial.build_radial_hamiltonian(params, plus_sector, grid,
                                           layout=radial.STANDARD)
    minus = radial.build_radial_hamiltonian(params, minus_sector, grid,
                                            layout=radial.SWAPPED)
    n2 = 2 * grid.n_points
    h_block = np.zeros((2 * n2, 2 * n2))
    h_block[:n2, :n2] = minus.matrix
    h_block[n2:, n2:] = plus.matrix
    k_block = np.zeros((2 * n2, 2 * n2))
    idx = np.arange(n2)
    k_block[idx, idx] = -abs_kappa
    k_block[n2 + idx, n2 + idx] = abs_kappa
    return SusyBlock(params=params, abs_kappa=abs_kappa, l=plus_sector.l,
                     grid=grid, minus=minus, plus=plus,
                     H_block=h_block, K_block=k_block)


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


def _assemble_a_mp(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                   eta: int) -> sp.csr_matrix:
    """Primary A assembly from the plus-sector Hamiltonian's entries, as CSR.

    A_mp = eta * blockdiag(Av, Av^T) + c * J (H_plus - m gamma^0), with
    c = kappa / (Z alpha m), J = [[0, -1], [1, 0]] on the doublet, and Av the
    staggered two-point average.  J swaps the component roles, which is what
    lands the result on the swapped (minus-sector) node sets.  Every block
    is diagonal or bidiagonal, so A_mp has at most 3 nonzeros per row.
    """
    _, plus_sector = sector_pair(params, abs_kappa)
    d_f, d_g, cross_same, cross_next = radial._sector_vectors(
        params, plus_sector, grid, radial.STANDARD)
    c = abs_kappa / (params.z_alpha * params.m)
    v_int = d_f - params.m
    v_half = d_g + params.m
    # Av carries 0.5 on its diagonal and subdiagonal; the plus cross block
    # carries cross_same on its diagonal and cross_next on its superdiagonal.
    return radial._stacked_csr(grid.n_points, [
        (0, 0, 0, eta * 0.5 - c * cross_same),
        (0, 0, -1, eta * 0.5 - c * cross_next),
        (1, 1, 0, eta * 0.5 + c * cross_same),
        (1, 1, 1, eta * 0.5 + c * cross_next),
        (0, 1, 0, -c * v_half),
        (1, 0, 0, c * v_int),
    ])


def _sparse_bidiag(main: np.ndarray, sub: np.ndarray | None = None,
                   sup: np.ndarray | None = None) -> sp.spmatrix:
    n = main.size
    diags, offsets = [main], [0]
    if sub is not None:
        diags.append(sub)
        offsets.append(-1)
    if sup is not None:
        diags.append(sup)
        offsets.append(1)
    return sp.diags(diags, offsets, shape=(n, n), format="csr")


def alternate_a_mp(block: SusyBlock, eta: int | None = None) -> np.ndarray:
    """Independent A assembly from the Hermitian vector form.

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
    """
    if eta is None:
        eta = 1 if block.eta is None else block.eta
    params, grid = block.params, block.grid
    n = grid.n_points
    ak = block.abs_kappa
    nu = (params.D - 1) / 2
    r_i = grid.nodes
    r_h = grid.nodes_small
    # Two-point physical primitives between the staggered node sets.
    gap_ih = np.empty(n)
    gap_ih[0] = r_i[0] - grid.r_min
    gap_ih[1:] = np.diff(r_i)
    inv = 1.0 / gap_ih
    d_ih = _sparse_bidiag(inv, sub=-inv[1:])
    if grid.scheme == LOG_UNIFORM:
        r_h_top = r_h[-1] ** 2 / r_h[-2]
    else:
        r_h_top = 2 * r_h[-1] - r_h[-2]
    gap_hi = np.empty(n)
    gap_hi[:-1] = np.diff(r_h)
    gap_hi[-1] = r_h_top - r_h[-1]
    inv = 1.0 / gap_hi
    d_hi = _sparse_bidiag(-inv, sup=inv[:-1])
    half = np.full(n, 0.5)
    avg_ih = _sparse_bidiag(half, sub=half[1:])
    avg_hi = _sparse_bidiag(half, sup=half[:-1])
    di = sp.diags

    def w_blocks(kappa, d_fwd, d_bwd, avg_fwd, avg_bwd, r_src, r_dst):
        # int->half for the upper-left block, half->int for the lower-right;
        # d_fwd/avg_fwd map source to destination rows, d_bwd/avg_bwd back.
        xi_fwd = di(1.0 / r_dst) @ avg_fwd
        d2_src = d_bwd @ d_fwd
        term1 = 2.0 * di(r_dst) @ avg_fwd @ (-d2_src
                                             + kappa * (kappa - 1.0) * di(1.0 / r_src**2))
        inner = d_fwd - kappa * xi_fwd
        outer = di(r_src) @ d_bwd - nu * avg_bwd
        term2 = 2.0 * avg_fwd @ (outer @ inner)
        term3 = 2.0 * nu * inner
        return term1 + term2 + term3

    scale = 1.0 / (2.0 * params.z_alpha * params.m)
    ul = eta * (avg_ih - scale * w_blocks(ak, d_ih, d_hi, avg_ih, avg_hi, r_i, r_h))
    lr = eta * (avg_hi + scale * w_blocks(-ak, d_hi, d_ih, avg_hi, avg_ih, r_h, r_i))
    ul = ul.toarray()
    lr = lr.toarray()
    if grid.scheme == LOG_UNIFORM:
        s_i = np.sqrt(r_i)
        s_h = np.sqrt(r_h)
        ul = (s_h[:, None] * ul) / s_i[None, :]
        lr = (s_i[:, None] * lr) / s_h[None, :]
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = ul
    a[n:, n:] = lr
    idx = np.arange(n)
    a[idx, n + idx] = ak / (params.m * r_h)
    a[n + idx, idx] = -ak / (params.m * r_i)
    return a


def _kernel_flat_vector(params: PhysParams, abs_kappa: float,
                        grid: RadialGrid) -> np.ndarray:
    """Discretized A-kernel doublet as a unit vector in solver coordinates."""
    _, plus_sector = sector_pair(params, abs_kappa)
    f, g = analytic.kernel_wavefunction(params, plus_sector, grid)
    if grid.scheme == LOG_UNIFORM:
        f = f * np.sqrt(grid.nodes)
        g = g * np.sqrt(grid.nodes_small)
    v = np.concatenate([f, g])
    return v / np.linalg.norm(v)


def _kernel_residual(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                     eta: int) -> float:
    a_mp = _assemble_a_mp(params, abs_kappa, grid, eta)
    v = _kernel_flat_vector(params, abs_kappa, grid)
    return interior_norm(a_mp @ v, grid.n_points, 2)


def _alternate_gap(params: PhysParams, abs_kappa: float, grid: RadialGrid,
                   eta: int) -> float:
    """Zero-mode action gap between the primary and alternate assemblies."""
    probe = build_susy_block(params, abs_kappa, grid=grid)
    alt = alternate_a_mp(probe, eta)
    a_mp = _assemble_a_mp(params, abs_kappa, grid, eta)
    v = _kernel_flat_vector(params, abs_kappa, grid)
    return interior_norm(a_mp @ v - alt @ v, grid.n_points, 3)


def _pin_eta(params: PhysParams, abs_kappa: float, grid: RadialGrid) -> int:
    """The sign whose zero-mode action shrinks by 2x under one doubling."""
    scores = {}
    fine = grid.refined(2)
    for cand in (1, -1):
        scores[cand] = (_kernel_residual(params, abs_kappa, grid, cand),
                        _kernel_residual(params, abs_kappa, fine, cand))
    converging = [cand for cand, (c, f) in scores.items() if f < c / 2.0]
    if len(converging) != 1:
        raise ConventionError(
            f"kernel contract pins no unique sign: residuals {scores}"
        )
    return converging[0]


def build_A(block: SusyBlock, eta: int | None = None,
            check_alternate: bool = True) -> SusyBlock:
    """Assemble the sector-swap operator and return the completed block.

    When eta is None the sign of the angular matrix element is pinned by the
    kernel contract: the candidate whose action on the discretized zero mode
    shrinks by at least 2x under one grid doubling wins; ConventionError if
    no candidate (or both) does.  Passing eta = +-1 forces the convention
    (used by negative-control tests).  check_alternate also requires the
    independent Hermitian-form assembly to agree on the zero mode.
    """
    if eta is None:
        eta = _pin_eta(block.params, block.abs_kappa, block.grid)
    elif eta not in (1, -1):
        raise ValueError(f"eta must be +1 or -1, got {eta!r}")
    a_mp = _assemble_a_mp(block.params, block.abs_kappa, block.grid,
                          eta).toarray()
    if check_alternate:
        # Agreement "to discretization tolerance" means the gap between the
        # two assemblies vanishes under refinement; its absolute size at one
        # grid is dominated by wall-amplified cusp error when s is small.
        gap = _alternate_gap(block.params, block.abs_kappa, block.grid, eta)
        gap_fine = _alternate_gap(block.params, block.abs_kappa,
                                  block.grid.refined(2), eta)
        if not gap_fine < gap / 1.8:
            raise ConventionError(
                f"primary and alternate A assemblies do not converge to each "
                f"other: zero-mode action gaps {gap:.3e} -> {gap_fine:.3e}"
            )
    n2 = 2 * block.n
    a_block = np.zeros((2 * n2, 2 * n2))
    a_block[:n2, n2:] = a_mp
    a_block[n2:, :n2] = a_mp.T
    return replace(block, A_block=a_block, eta=eta)


@dataclass(frozen=True)
class SusyCharges:
    """Nilpotent charges of the block; all products of A and K/|kappa|.

    Q1 is real symmetric, Q2 = i A K / |kappa| is purely imaginary and
    Hermitian, Q+- = (1 +- K/|kappa|) A / 2 are real, and H_susy =
    {Q+, Q-}.  Assembled so that Q+-^2, {Q1, Q2} and H_susy - A^2 are
    identically zero matrices, not merely small.
    """

    Q1: np.ndarray
    Q2: np.ndarray
    Q_plus: np.ndarray
    Q_minus: np.ndarray
    H_susy: np.ndarray

    def __post_init__(self):
        for mat in (self.Q1, self.Q2, self.Q_plus, self.Q_minus, self.H_susy):
            mat.flags.writeable = False


def build_supercharges(block: SusyBlock) -> SusyCharges:
    """Assemble Q1, Q2, Q+- and H_susy from the block's A and K.

    The grading p = K / |kappa| is formed first (exactly +-1 on the
    diagonal), so every scalar multiplication is exact and the nilpotency
    identities reduce to sums of sign-symmetric floating-point products.
    The diagonal factors are applied as row and column scalings: a product
    with a diagonal matrix has one nonzero term per entry, so A p and
    (1 +- p) A / 2 are the same floats the dense products give, without a
    (4n)^3 gemm.  Only H_susy = {Q+, Q-} is a genuine dense product.
    """
    if block.A_block is None:
        raise ValueError("A_block not assembled; call build_A first")
    a = block.A_block
    p = np.diagonal(block.K_block) / block.abs_kappa  # exactly +-1
    q1 = a
    q2 = 1j * (a * p)
    q_plus = (0.5 * (1.0 + p))[:, None] * a
    q_minus = (0.5 * (1.0 - p))[:, None] * a
    h_susy = q_plus @ q_minus + q_minus @ q_plus
    return SusyCharges(Q1=q1.copy(), Q2=q2, Q_plus=q_plus, Q_minus=q_minus,
                       H_susy=h_susy)


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
    diagnostics: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)


def _bound_columns(params: PhysParams, sector: KappaSector, grid: RadialGrid,
                   count: int) -> np.ndarray:
    """Lowest bound eigencolumns of the sector in the STANDARD layout, as
    stacked (F, G) solver-coordinate vectors."""
    bands = radial._sector_bands(params, sector, grid, radial.STANDARD)
    vals, vecs = radial._bound_window_solve(*bands, params.m)
    cols = vecs[:, :count]
    # Position order G_1, F_1, G_2, F_2, ...
    return np.vstack([cols[1::2], cols[0::2]])


def _fit_order(ns, residuals) -> float:
    return -float(np.polyfit(np.log(ns), np.log(residuals), 1)[0])


def verify_A_squared(
    block: SusyBlock,
    min_ratio: float = 3.5,
    refinements: int = 2,
    ensemble: int = 4,
    include_raw: bool = False,
) -> SusyVerification:
    """Verify the full operator algebra of the block.

    Structural identities (A symmetric, {A, K} = 0, Q+-^2 = 0, {Q1, Q2} = 0,
    H_susy = A^2) are checked for exact zero max element at the block's own
    grid size.  This is the only dense work: {A, K} applies the diagonal K
    as row and column scalings, and the squares and {Q1, Q2} (in real
    arithmetic on Im Q2, since Q2 is purely imaginary) are (4n)^3 gemms.
    The two analytic identities, A^2 = 1 + (K/Z alpha)^2 (H^2/m^2 - 1) and
    [H, A] = 0, are genuine discretizations: their residuals are measured by
    action on the lowest `ensemble` bound states plus the zero mode, on
    interior rows, over `refinements` (at least 1) grid doublings, and must
    shrink by min_ratio per doubling.  Each level, the base included,
    assembles only A_mp (with the block's eta), H+ and H- as CSR (at most 3
    nonzeros per row), so the ladder costs O(n) per state.  Sparse products
    sum in another order than dense ones, which moves the reported residuals
    by up to about 1e-5 relative where entries sit at the edge of the
    roundoff mask.  Entries at their own roundoff floor are dropped first
    (see _floor_masked); without that the blocks with s < 1/2 fail
    spuriously, because rows pinned at the inner wall amplify machine noise
    by 1/(step * r)^2 under the composed operators.  Raw operator norms of
    those residual matrices, formed as sparse products, are reported in
    diagnostics when include_raw is set; they diverge like 1/step because
    rows near the origin carry 1/r-weighted coefficients with no bound-state
    support, which is why the bound-state seminorm is the contractual
    metric.  Structural rows cost O((4n)^3); prefer a modest base grid.
    """
    if refinements < 1:
        raise ValueError(
            f"refinements must be >= 1 to measure a refinement ratio, "
            f"got {refinements}"
        )
    blk = block if block.A_block is not None else build_A(block)
    rows = []
    charges = build_supercharges(blk)
    a = blk.A_block
    k = np.diagonal(blk.K_block)
    # Q2 is purely imaginary; a contiguous Im Q2 keeps {Q1, Q2} a real gemm.
    q2 = np.ascontiguousarray(charges.Q2.imag)

    def exact_row(name, mat):
        res = float(np.max(np.abs(mat)))
        rows.append(VerifyRow(name=name, norm_type=MAX_ELEMENT_EXACT,
                              residual=res, refinement_order=None,
                              passed=res == 0.0))

    exact_row("a_symmetric", a - a.T)
    exact_row("anticommutator_k_a", a * k + k[:, None] * a)
    exact_row("q_plus_squared", charges.Q_plus @ charges.Q_plus)
    exact_row("q_minus_squared", charges.Q_minus @ charges.Q_minus)
    exact_row("anticommutator_q1_q2", charges.Q1 @ q2 + q2 @ charges.Q1)
    exact_row("h_susy_equals_a_squared", charges.H_susy - a @ a)

    ns, eq6_res, comm_res, kern_res = [], [], [], []
    diagnostics: dict = {"raw_norms": []} if include_raw else {}
    params, ak = blk.params, blk.abs_kappa
    factor = (ak / params.z_alpha) ** 2
    m = params.m
    plus_sector, minus_sector = blk.plus.sector, blk.minus.sector
    grid = blk.grid
    for level in range(refinements + 1):
        if level:
            grid = grid.refined(2)
        n = grid.n_points
        ns.append(n)
        a_mp = _assemble_a_mp(params, ak, grid, blk.eta)
        hp = radial._sector_csr(params, plus_sector, grid, radial.STANDARD)
        hm = radial._sector_csr(params, minus_sector, grid, radial.SWAPPED)
        a_abs, hp_abs, hm_abs = abs(a_mp), abs(hp), abs(hm)
        vk = _kernel_flat_vector(params, ak, grid)
        # Columns: the lowest `ensemble` bound states, then the zero mode.
        vs = np.column_stack([
            _bound_columns(params, plus_sector, grid, ensemble), vk])
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
        if include_raw:
            eye = sp.identity(2 * n, format="csr")
            r_eq6_mat = a_mp.T @ a_mp - eye \
                - factor * ((hp @ hp) / m**2 - eye)
            r_comm_mat = hm @ a_mp - a_mp @ hp
            raw = {"n_points": n}
            # Sparse sums and products store each entry once, so norms of
            # .data are the norms of the whole matrix.
            for name, mat in (("eq6", r_eq6_mat), ("commutator", r_comm_mat)):
                raw[f"{name}_frobenius"] = float(np.linalg.norm(mat.data))
                raw[f"{name}_max_element"] = float(
                    np.max(np.abs(mat.data), initial=0.0))
            diagnostics["raw_norms"].append(raw)
    if include_raw:
        diagnostics["raw_norms_note"] = (
            "raw matrix norms do not converge: near-wall rows carry 1/r "
            "coefficients that grow under refinement; use the bound-state rows"
        )

    def refine_row(name, res, margin_note=INTERIOR_RMS):
        ratios = tuple(a_ / b_ for a_, b_ in zip(res[:-1], res[1:]))
        rows.append(VerifyRow(
            name=name, norm_type=margin_note, residual=res[-1],
            refinement_order=_fit_order(ns, res),
            passed=all(r >= min_ratio for r in ratios),
            residuals=tuple(res), ratios=ratios,
        ))

    refine_row("a_squared_identity", eq6_res)
    refine_row("commutator_h_a", comm_res)
    refine_row("kernel_annihilation", kern_res)
    return SusyVerification(params=blk.params, abs_kappa=blk.abs_kappa,
                            n_points=tuple(ns), rows=tuple(rows),
                            diagnostics=diagnostics)


@dataclass(frozen=True)
class PairingRow:
    n_prime: int
    energy_minus: float
    energy_plus: float
    gap: float


@dataclass(frozen=True)
class PairingReport:
    """Measured SUSY pairing between the two sectors of one block."""

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
                  e_minus: list, e_plus: list, tol: float) -> PairingReport:
    if not e_plus:
        raise PairingError("no bound levels resolved in the plus sector")
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


def spectral_pairing(block: SusyBlock, count: int = 3,
                     tol: float = 1e-5) -> PairingReport:
    """Solve both sectors and match levels across the SUSY map.

    The expected structure is minus-level j <-> plus-level j+1 with the
    plus-sector ground state unpaired.  A minus level lying within tol of
    two plus levels makes the matching ambiguous: PairingError.  Gaps
    exceeding tol or a Witten index != 1 are reported as a failed pairing,
    not an exception.
    """
    plus_pairs = radial.solve_spectrum(block.plus, count=count + 1)
    minus_pairs = radial.solve_spectrum(block.minus, count=count)
    return _match_levels(block.params, block.abs_kappa,
                         [p.energy for p in minus_pairs],
                         [p.energy for p in plus_pairs], tol)


def _pairing_grid(params: PhysParams, plus_sector: KappaSector,
                  n_points: int, scheme: str, count: int) -> RadialGrid:
    """Block default grid widened so the top tested level's tail fits.

    default_grid sizes r_max for the nodeless state, but level n' decays
    like exp(-sqrt(m^2 - E^2) r), so the count-th pair needs roughly
    r_max > 14 / sqrt(m^2 - E^2) before wall truncation stops moving its
    energy at the 1e-5 gap scale.  Blocks with |kappa| around 1 or more
    already satisfy this at the default 60 units; small half-integer
    |kappa| blocks need the wider box.
    """
    label = analytic.LevelLabel(n=count + plus_sector.l + 1,
                                l=plus_sector.l, sign=1)
    e_top = params.m * analytic.energy(params, label)
    lam = math.sqrt(params.m ** 2 - e_top ** 2)
    unit = plus_sector.abs_kappa / (params.z_alpha * params.m)
    factor = max(60.0, 14.0 / (lam * unit))
    return default_grid(params, plus_sector, n_points=n_points,
                        scheme=scheme, r_max_factor=factor)


def spectral_pairing_at(
    params: PhysParams,
    abs_kappa: float,
    grid: RadialGrid = None,
    n_points: int = 800,
    scheme: str = LOG_UNIFORM,
    count: int = 3,
    tol: float = 1e-5,
) -> PairingReport:
    """spectral_pairing via banded sector solves, skipping the dense block.

    With grid=None the block default grid is used, widened if needed so the
    count-th level's exponential tail fits the box (see _pairing_grid).
    Gaps shrink like the square of the step, so a block whose pairing sits
    above tol on that grid (small s makes the cusp expensive) just needs
    more points, and those solves stay O(n) in memory here.
    """
    minus_sector, plus_sector = sector_pair(params, abs_kappa)
    if grid is None:
        grid = _pairing_grid(params, plus_sector, n_points, scheme, count)
    plus_pairs = radial.solve_bound_levels(params, plus_sector, grid,
                                           layout=radial.STANDARD,
                                           count=count + 1)
    minus_pairs = radial.solve_bound_levels(params, minus_sector, grid,
                                            layout=radial.SWAPPED,
                                            count=count)
    return _match_levels(params, abs_kappa,
                         [p.energy for p in minus_pairs],
                         [p.energy for p in plus_pairs], tol)


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

    def passed(self, min_order: float = 1.9, min_ratio: float = 3.5,
               rq_tol: float = 1e-5) -> bool:
        return (self.fitted_order >= min_order
                and all(r >= min_ratio for r in self.ratios)
                and self.rq_rel_error <= rq_tol)


def kernel_annihilation_report(
    params: PhysParams,
    abs_kappa: float,
    n_points: tuple = (200, 400, 800, 1600),
    scheme: str = LOG_UNIFORM,
    eta: int | None = None,
) -> KernelReport:
    """Measure ||A psi_0|| (interior) under refinement, plus the Rayleigh
    quotient of H on psi_0 at the finest grid against the closed form.

    All grids share the sector's default domain, so the family is a genuine
    refinement ladder.  eta defaults to the kernel-contract pinning on the
    coarsest pair.
    """
    if len(n_points) < 2 or any(b <= a for a, b in zip(n_points,
                                                      n_points[1:])):
        raise ValueError(
            f"grid family must have increasing n_points, got {list(n_points)}"
        )
    _, plus_sector = sector_pair(params, abs_kappa)
    grids = [default_grid(params, plus_sector, n_points=n, scheme=scheme)
             for n in n_points]
    if eta is None:
        eta = _pin_eta(params, abs_kappa, grids[0])
    residuals = []
    for grid in grids:
        a_mp = _assemble_a_mp(params, abs_kappa, grid, eta)
        v = _kernel_flat_vector(params, abs_kappa, grid)
        residuals.append(interior_norm(a_mp @ v, grid.n_points, 2))
    h_plus = radial._sector_csr(params, plus_sector, grids[-1])
    rq = float((v @ (h_plus @ v)) / (v @ v) / params.m)
    ground = analytic.ground_energy(params, abs_kappa)
    ratios = tuple(a / b for a, b in zip(residuals[:-1], residuals[1:]))
    return KernelReport(
        params=params, abs_kappa=abs_kappa, n_points=tuple(n_points),
        residuals=tuple(residuals), ratios=ratios,
        fitted_order=_fit_order(n_points, residuals),
        rayleigh_quotient=rq, ground_exact=ground,
        rq_rel_error=abs(rq - ground) / ground,
    )
