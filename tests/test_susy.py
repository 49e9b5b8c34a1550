"""Sector-swap operator A, supercharges, pairing, and kernel contracts.

The structural identities are exact zeros by construction (sign-symmetric
summands, summed in the same order), so tests assert residual == 0.0, not
smallness.  The two analytic identities and the kernel annihilation are
discretizations and are tested through refinement ratios instead.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal

from susyh import radial, susy
from susyh.core import PhysParams, default_grid
from susyh.errors import ConventionError, PairingError
from susyh.susy import (build_A, build_supercharges, build_susy_block,
                        interior_norm, kernel_annihilation_report,
                        sector_pair, spectral_pairing_at, verify_A_squared)
from test_bench_contract import load_bench_module
from test_radial import (_assert_seeded_path, _interleaved_bands,
                        _record_bisections)

P3 = PhysParams(D=3, z_alpha=0.5)

# Smallest two |kappa| blocks for D = 2..5; D = 2 needs z_alpha < 1/2.
BLOCK_CASES = [(2, 0.5), (2, 1.5), (3, 1.0), (3, 2.0),
               (4, 1.5), (4, 2.5), (5, 2.0), (5, 3.0)]


def _params(D):
    return PhysParams(D=D, z_alpha=0.4 if D == 2 else 0.5)


@pytest.fixture(scope="module")
def small_blocks():
    # The alternate-assembly check doubles the grid once, so n = 80 keeps
    # this cheap.
    return {(D, ak): build_A(build_susy_block(_params(D), ak, n_points=80))
            for D, ak in BLOCK_CASES}


def _dense_of(charges):
    return tuple(m.toarray() for m in (charges.Q1, charges.Q2, charges.Q_plus,
                                       charges.Q_minus, charges.H_susy))


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_structural_identities_are_exact_zeros(small_blocks, case):
    block = small_blocks[case]
    q1, q2, q_plus, q_minus, _ = _dense_of(build_supercharges(block))
    a, k = block.A_block, block.K_block
    zeros = {
        "a_symmetric": a - a.T,
        "anticommutator_k_a": a @ k + k @ a,
        "q_plus_squared": q_plus @ q_plus,
        "q_minus_squared": q_minus @ q_minus,
        "anticommutator_q1_q2": q1 @ q2 + q2 @ q1,
        "h_susy_equals_a_squared": q_plus @ q_minus + q_minus @ q_plus - a @ a,
    }
    for name, mat in zeros.items():
        assert np.max(np.abs(mat)) == 0.0, name
    assert block.eta == 1


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_supercharges_are_read_only_csr_on_A_structure(small_blocks, case):
    # One builder: the charges are CSR sharing A's indices, and their
    # H_susy is A^2 as an exact CSR zero (no entry left, not even a 0.0).
    block = small_blocks[case]
    charges = build_supercharges(block)
    assert charges.Q1 is block.A
    mats = (charges.Q1, charges.Q2, charges.Q_plus, charges.Q_minus,
            charges.H_susy)
    for mat in mats:
        assert mat.format == "csr" and mat.shape == block.A.shape
        assert not any(arr.flags.writeable
                       for arr in (mat.data, mat.indices, mat.indptr))
    for mat in (charges.Q_plus, charges.Q_minus):
        assert np.shares_memory(mat.indices, block.A.indices)
        assert np.shares_memory(mat.indptr, block.A.indptr)
    assert np.array_equal(charges.Q2.indices, block.A.indices)
    assert (charges.H_susy - block.A @ block.A).nnz == 0


def test_charge_combinations_are_bitwise_consistent(small_blocks):
    # Q+- = (Q1 +- i Q2)/2 must equal the projector form (1 +- K/|k|)A/2
    # exactly: P A = -A P is an exact sign flip, so both reductions run
    # through identical float operations.
    q1, q2, q_plus, q_minus, _ = _dense_of(
        build_supercharges(small_blocks[(3, 1.0)]))
    plus = 0.5 * (q1 + 1j * q2)
    minus = 0.5 * (q1 - 1j * q2)
    assert np.array_equal(plus.imag, np.zeros_like(plus.imag))
    assert np.array_equal(q_plus, plus.real)
    assert np.array_equal(q_minus, minus.real)
    assert np.array_equal(q2.real, np.zeros_like(q2.real))
    assert np.array_equal(q2.conj().T, q2)


def test_block_assembly_structure():
    block = build_susy_block(P3, 1.0, n_points=60)
    n2 = 2 * block.n
    assert np.array_equal(block.H_block[:n2, :n2], block.minus.matrix)
    assert np.array_equal(block.H_block[n2:, n2:], block.plus.matrix)
    assert np.count_nonzero(block.H_block[:n2, n2:]) == 0
    assert block.K.dtype == np.float64 and block.K.shape == (2 * n2,)
    assert np.all(block.K[:n2] == -1.0) and np.all(block.K[n2:] == 1.0)
    assert np.array_equal(block.K_block, np.diag(block.K))
    assert np.count_nonzero(block.K_block) == 2 * n2
    assert block.minus.layout == radial.SWAPPED
    assert block.plus.layout == radial.STANDARD
    assert block.A is None and block.A_block is None and block.eta is None
    for view in (block.H_block, block.K_block, block.K):
        assert not view.flags.writeable


def test_build_A_returns_new_immutable_block():
    base = build_susy_block(P3, 1.0, n_points=60)
    done = build_A(base, check_alternate=False)
    assert base.A_block is None
    assert done is not base and done.A_block is not None
    with pytest.raises(ValueError):
        done.A_block[0, 0] = 1.0
    with pytest.raises(ValueError):
        done.A.data[0] = 1.0
    n2 = 2 * done.n
    assert np.count_nonzero(done.A_block[:n2, :n2]) == 0
    assert np.array_equal(done.A_block[n2:, :n2], done.A_block[:n2, n2:].T)


def test_stored_A_is_the_csr_of_the_dense_block(small_blocks):
    # The structure verify_A_squared once took from sp.csr_matrix(A_block):
    # sorted indices, no explicit zeros, the same floats in the same order.
    for block in small_blocks.values():
        a = block.A
        ref = sp.csr_matrix(block.A_block)
        ref.sort_indices()
        assert a.format == "csr" and a.has_canonical_format
        assert np.count_nonzero(a.data) == a.nnz <= 3 * a.shape[0]
        for got, want in ((a.data, ref.data), (a.indices, ref.indices),
                          (a.indptr, ref.indptr)):
            assert np.array_equal(got, want)
        # verify's base level reads A_mp from the stored A instead of
        # assembling it again: the slice is the assembly's CSR exactly.
        a_mp = susy._assemble_a_mp(block.params, block.abs_kappa,
                                   block.grid, block.eta)
        n2 = 2 * block.n
        got = a[:n2, n2:]
        for x, y in ((got.data, a_mp.data), (got.indices, a_mp.indices),
                     (got.indptr, a_mp.indptr)):
            assert x.dtype == y.dtype and np.array_equal(x, y)


def test_replace_rebuilds_dense_views():
    # Dense forms are derived from the stored operators on first read, so a
    # replaced A must not leave the old A_block behind.
    block = build_A(build_susy_block(P3, 1.0, n_points=40),
                    check_alternate=False)
    old = block.A_block
    n2 = 2 * block.n
    defect = sp.csr_matrix(([0.25], ([0], [n2])), shape=block.A.shape)
    planted = replace(block, A=block.A + defect)
    assert planted.A_block[0, n2] == old[0, n2] + 0.25
    assert np.array_equal(block.A_block, old)
    assert replace(block, A=None).A_block is None


def test_block_rejects_a_non_canonical_A():
    block = build_A(build_susy_block(P3, 1.0, n_points=40),
                    check_alternate=False)
    unsorted = block.A.copy()
    unsorted.has_sorted_indices = False
    for bad in (unsorted, block.A.tocoo(), block.A[:-1]):
        with pytest.raises(ValueError, match="CSR"):
            replace(block, A=bad)
    with pytest.raises(ValueError, match="K shape"):
        replace(block, K=block.K[:-1])


def _kernel_residual(params, abs_kappa, grid, eta):
    a_mp = susy._assemble_a_mp(params, abs_kappa, grid, eta)
    v = susy._kernel_flat_vector(params, abs_kappa, grid)
    return interior_norm(a_mp @ v, grid.n_points, 2)


def _reference_pin_eta(params, abs_kappa, grid):
    """Reference: the refinement race that chose eta before it was derived.
    The sign whose zero-mode action shrinks by 2x under one doubling wins;
    None when no sign, or both, does."""
    fine = grid.refined()
    converging = [cand for cand in (1, -1)
                  if _kernel_residual(params, abs_kappa, fine, cand)
                  < _kernel_residual(params, abs_kappa, grid, cand) / 2.0]
    return converging[0] if len(converging) == 1 else None


def test_derived_eta_matches_refinement_race_on_bench_blocks():
    blocks = load_bench_module("workloads").block_domain()
    assert len(blocks) == 47
    for D, l, za in blocks:
        params = PhysParams(D=D, z_alpha=za)
        ak = l + (D - 1) / 2
        grid = default_grid(params, sector_pair(params, ak)[1], n_points=200)
        assert _reference_pin_eta(params, ak, grid) == susy.ETA, (D, l, za)
        block = build_A(build_susy_block(params, ak, grid=grid),
                        check_alternate=False)
        assert block.eta == susy.ETA == 1


def test_explicit_eta_reproduces_pinned_assembly():
    base = build_susy_block(P3, 1.0, n_points=60)
    pinned = build_A(base, check_alternate=False)
    forced = build_A(base, eta=1, check_alternate=False)
    assert np.array_equal(pinned.A_block, forced.A_block)
    with pytest.raises(ValueError):
        build_A(base, eta=0)


def test_wrong_eta_breaks_kernel_annihilation(monkeypatch):
    # With the flipped sign the zero-mode action does not shrink under
    # refinement at all: the defining contract rejects it.
    grid = default_grid(P3, sector_pair(P3, 1.0)[1], n_points=100)
    coarse = _kernel_residual(P3, 1.0, grid, -1)
    fine = _kernel_residual(P3, 1.0, grid.refined(), -1)
    assert fine > coarse / 2.0
    monkeypatch.setattr(susy, "ETA", -1)
    report = kernel_annihilation_report(P3, 1.0, n_points=(100, 200, 400))
    assert report.fitted_order < 0.5
    assert not report.passed()


def test_alternate_assembly_rejects_disagreement(monkeypatch):
    # An alternate route that disagrees by O(1) on the zero mode (here a
    # spurious identity term) must be caught by the convergence gate.
    base = build_susy_block(P3, 1.0, n_points=80)
    true_alternate = susy.alternate_a_mp
    monkeypatch.setattr(
        susy, "alternate_a_mp",
        lambda params, abs_kappa, grid, eta:
            true_alternate(params, abs_kappa, grid, eta)
            + sp.identity(2 * grid.n_points, format="csr"))
    with pytest.raises(ConventionError):
        build_A(base, eta=1, check_alternate=True)


def test_alternate_assembly_converges_to_primary():
    gaps = []
    for n in (100, 200, 400):
        grid = default_grid(P3, sector_pair(P3, 1.0)[1], n_points=n)
        gaps.append(susy._alternate_gap(
            P3, 1.0, grid, 1, susy._assemble_a_mp(P3, 1.0, grid, 1)))
    assert all(a / b > 3.0 for a, b in zip(gaps, gaps[1:]))


def test_build_A_with_alternate_check_small_s():
    # s = 0.3: the cusp is at its worst among the tested blocks; the
    # dual-assembly agreement must still converge.
    p2 = _params(2)
    block = build_A(build_susy_block(p2, 0.5, n_points=200))
    assert block.eta == 1


def test_verify_A_squared_full_suite():
    block = build_susy_block(P3, 1.0, n_points=200)
    verification = verify_A_squared(build_A(block))
    assert verification.all_passed
    assert verification.n_points == (200, 400, 800)
    by_name = {r.name: r for r in verification.rows}
    exact_names = {"a_symmetric", "anticommutator_k_a", "q_plus_squared",
                   "q_minus_squared", "anticommutator_q1_q2",
                   "h_susy_equals_a_squared"}
    for name in exact_names:
        row = by_name[name]
        assert row.residual == 0.0
        assert row.refinement_order is None
        assert row.norm_type == susy.MAX_ELEMENT_EXACT
    for name in ("a_squared_identity", "commutator_h_a",
                 "kernel_annihilation"):
        row = by_name[name]
        assert row.refinement_order > 1.9
        assert len(row.residuals) == 3
        assert all(r >= 3.5 for r in row.ratios)
        assert row.norm_type == susy.INTERIOR_RMS


def test_verify_A_squared_small_s_block():
    # s = 0.3 regression: composed operators amplify roundoff by
    # 1/(step * r)^2 at rows pinned to the inner wall, so without the
    # noise-floor mask these residuals grow under refinement.
    block = build_susy_block(_params(2), 0.5, n_points=200)
    verification = verify_A_squared(build_A(block))
    assert verification.all_passed
    by_name = {r.name: r for r in verification.rows}
    for name in ("a_squared_identity", "commutator_h_a"):
        assert all(r >= 3.5 for r in by_name[name].ratios)
        assert by_name[name].refinement_order > 1.9


def test_floor_mask_keeps_truncation_and_defect_signal():
    scale = np.array([1.0, 1e16, 1e16, 0.0])
    res = np.array([1e-8, 1.0, 1e4, 1e-300])
    masked = susy._floor_masked(res, scale)
    # 1.0 against a 1e16 scale is pure roundoff; 1e4 (a real defect,
    # still twelve orders above the floor) must survive, as must any
    # nonzero entry whose scale is zero.
    assert masked.tolist() == [1e-8, 0.0, 1e4, 1e-300]


def test_verify_row_serialization(monkeypatch):
    block = build_A(build_susy_block(P3, 1.0, n_points=60),
                    check_alternate=False)
    monkeypatch.setattr(susy, "REFINEMENTS", 1)
    monkeypatch.setattr(susy, "ENSEMBLE", 2)
    verification = verify_A_squared(block)
    doc = verification.rows[0].to_dict()
    assert set(doc) == {"name", "norm_type", "residual", "refinement_order",
                        "pass"}


def test_spectral_pairing_default_block():
    report = spectral_pairing_at(P3, 1.0)
    assert report.passed
    assert report.witten_index == 1
    assert [r.n_prime for r in report.rows] == [1, 2, 3]
    assert 0.0 < report.max_gap < 1e-5
    assert abs(report.unpaired_energy - math.sqrt(3) / 2) < 1e-5
    for row in report.rows:
        assert report.unpaired_energy < row.energy_plus
        assert abs(row.energy_minus - row.energy_plus) == row.gap


def test_pairing_grid_widens_for_slow_tails():
    # The top tested level on the D=2, |kappa|=1/2 block decays too slowly
    # for the 60-unit default box, so the pairing default must widen r_max;
    # blocks whose tails already fit must keep the stock grid bitwise.
    p2 = _params(2)
    _, plus = sector_pair(p2, 0.5)
    widened = default_grid(p2, plus, 800, susy._pairing_r_max(p2, plus, 3))
    unit = 0.5 / (p2.z_alpha * p2.m)
    assert widened.nodes[-1] > 85.0 * unit
    _, plus3 = sector_pair(P3, 1.0)
    stock = default_grid(P3, plus3, 800, susy._pairing_r_max(P3, plus3, 3))
    assert np.array_equal(stock.nodes, default_grid(P3, plus3, 800).nodes)


def test_spectral_pairing_defaults_pass_on_small_s_block():
    report = spectral_pairing_at(_params(2), 0.5)
    assert report.passed
    assert report.witten_index == 1
    assert 0.0 < report.max_gap < 1e-5


def _block_pairing(block, count=3):
    """Reference: pairing from the block's dense sector operators."""
    plus = radial.solve_spectrum(block.plus, count=count + 1)
    minus = radial.solve_spectrum(block.minus, count=count)
    return susy._match_levels(block.params, block.abs_kappa,
                              [p.energy for p in minus],
                              [p.energy for p in plus])


def test_pairing_paths_agree_bitwise():
    block = build_susy_block(P3, 1.0, n_points=200)
    via_block = _block_pairing(block)
    via_bands = spectral_pairing_at(P3, 1.0, grid=block.grid)
    assert via_block.unpaired_energy == via_bands.unpaired_energy
    assert via_block.witten_index == via_bands.witten_index
    for a, b in zip(via_block.rows, via_bands.rows):
        assert (a.energy_minus, a.energy_plus) == (b.energy_minus, b.energy_plus)


def test_pairing_ambiguity_at_absurd_tolerance(monkeypatch):
    grid = default_grid(P3, sector_pair(P3, 1.0)[1], n_points=200)
    monkeypatch.setattr(susy, "PAIRING_TOL", 0.5)
    with pytest.raises(PairingError):
        spectral_pairing_at(P3, 1.0, grid=grid)


def test_pairing_requires_plus_levels():
    with pytest.raises(PairingError):
        susy._match_levels(P3, 1.0, [0.9], [])


def test_pairing_reports_missing_partner(monkeypatch):
    monkeypatch.setattr(susy, "PAIRING_TOL", 1e-3)
    report = susy._match_levels(P3, 1.0, [0.96, 0.985], [0.866, 0.9659])
    assert report.tol == 1e-3
    assert report.reason
    assert not report.passed


def test_kernel_annihilation_report(monkeypatch):
    report = kernel_annihilation_report(P3, 1.0)
    assert report.n_points == (200, 400, 800, 1600)
    assert report.passed()
    assert report.fitted_order >= 1.9
    assert all(r >= 3.5 for r in report.ratios)
    assert all(a > b > 0 for a, b in zip(report.residuals, report.residuals[1:]))
    assert report.ground_exact == math.sqrt(3) / 2
    assert abs(report.rayleigh_quotient - report.ground_exact) < 1e-5
    assert report.rq_rel_error < 1e-5
    assert report.failed_gate() == ""
    # Tighter thresholds must be able to fail it, and the gate is named.
    monkeypatch.setattr(susy, "RQ_TOL", 1e-9)
    assert not report.passed()
    assert report.failed_gate().startswith("rq_rel_error ")
    assert report.failed_gate(min_order=3.0).startswith("fitted order ")


def test_one_refinement_gate_for_verify_and_kernel(small_blocks,
                                                   monkeypatch):
    # verify's refinement rows and the kernel study read one constant:
    # raised just past every ratio they measured, it fails all of them.
    refine = ("a_squared_identity", "commutator_h_a", "kernel_annihilation")
    block = small_blocks[(3, 1.0)]
    rows = {r.name: r for r in verify_A_squared(block).rows}
    report = kernel_annihilation_report(P3, 1.0)
    assert all(r.passed for r in rows.values()) and report.passed()
    ratios = list(report.ratios)
    for name in refine:
        ratios += rows[name].ratios
    monkeypatch.setattr(susy, "MIN_REFINEMENT_RATIO",
                        float(np.nextafter(max(ratios), np.inf)))
    rows = {r.name: r for r in verify_A_squared(block).rows}
    assert [name for name, r in rows.items() if not r.passed] == list(refine)
    assert not report.passed()
    assert report.failed_gate().startswith("refinement ratio ")


def test_supercharges_require_assembled_A():
    block = build_susy_block(P3, 1.0, n_points=60)
    with pytest.raises(ValueError, match="build_A"):
        build_supercharges(block)


@pytest.mark.parametrize("abs_kappa", [0.7, 0.5, 3.3])
def test_sector_pair_rejects_non_ladder_kappa(abs_kappa):
    with pytest.raises(ValueError):
        sector_pair(P3, abs_kappa)


def test_sector_pair_signs():
    minus, plus = sector_pair(P3, 2.0)
    assert (minus.kappa, plus.kappa) == (-2.0, 2.0)
    assert minus.l == plus.l == 1
    assert minus.s == plus.s


def test_interior_norm_drops_wall_rows():
    n, margin = 20, 3
    vec = np.ones(2 * n)
    assert interior_norm(vec, n, margin) == math.sqrt(2 * (n - 2 * margin))
    edge = np.zeros(2 * n)
    edge[0] = edge[n - 1] = edge[n] = edge[2 * n - 1] = 1e9
    assert interior_norm(edge, n, margin) == 0.0


# --- References: the dense assembly and the dense refinement ladder that
# the sparse operators replaced, kept here to pin the port. ---------------

def _dense_a_mp(plus_op, eta, abs_kappa):
    """Dense A_mp from the dense plus-sector Hamiltonian (replaced formula)."""
    params, grid = plus_op.params, plus_op.grid
    n = grid.n_points
    m_mat = plus_op.matrix
    c = abs_kappa / (params.z_alpha * params.m)
    v_int = np.diagonal(m_mat[:n, :n]) - params.m
    v_half = np.diagonal(m_mat[n:, n:]) + params.m
    cross = m_mat[:n, n:]
    av = np.zeros((n, n))  # two-point average, nodes to nodes_small rows
    idx = np.arange(n)
    av[idx, idx] = 0.5
    av[idx[1:], idx[1:] - 1] = 0.5
    a = np.zeros((2 * n, 2 * n))
    a[:n, :n] = eta * av - c * cross.T
    a[n:, n:] = eta * av.T + c * cross
    a[idx, n + idx] = -c * v_half
    a[n + idx, idx] = c * v_int
    return a


def _dense_level(params, abs_kappa, grid, eta):
    minus_sector, plus_sector = sector_pair(params, abs_kappa)
    plus = radial.build_radial_hamiltonian(params, plus_sector, grid)
    minus = radial.build_radial_hamiltonian(params, minus_sector, grid,
                                            layout=radial.SWAPPED)
    return _dense_a_mp(plus, eta, abs_kappa), plus, minus.matrix


def _dense_charges(block):
    a = block.A_block
    p = block.K_block / block.abs_kappa
    eye = np.eye(a.shape[0])
    q_plus = (0.5 * (eye + p)) @ a
    q_minus = (0.5 * (eye - p)) @ a
    return (a, 1j * (a @ p), q_plus, q_minus,
            q_plus @ q_minus + q_minus @ q_plus)


def _dense_verify(block, refinements=2, ensemble=4):
    """The dense verify_A_squared: structural rows with dense K and complex
    Q2, refinement rows by dense matvecs on fully assembled levels."""
    a, k = block.A_block, block.K_block
    q1, q2, q_plus, q_minus, h_susy = _dense_charges(block)
    exact = {
        "a_symmetric": a - a.T,
        "anticommutator_k_a": a @ k + k @ a,
        "q_plus_squared": q_plus @ q_plus,
        "q_minus_squared": q_minus @ q_minus,
        "anticommutator_q1_q2": q1 @ q2 + q2 @ q1,
        "h_susy_equals_a_squared": h_susy - a @ a,
    }
    rows = {name: (float(np.max(np.abs(mat))), None)
            for name, mat in exact.items()}
    params, ak, m = block.params, block.abs_kappa, block.params.m
    factor = (ak / params.z_alpha) ** 2
    ns, eq6_res, comm_res, kern_res = [], [], [], []
    grid = block.grid
    for level in range(refinements + 1):
        if level:
            grid = grid.refined()
        n = grid.n_points
        ns.append(n)
        a_mp, plus, hm = _dense_level(params, ak, grid, block.eta)
        hp = plus.matrix
        a_abs, hp_abs, hm_abs = np.abs(a_mp), np.abs(hp), np.abs(hm)
        vk = susy._kernel_flat_vector(params, ak, grid)
        _, vecs = eigh_tridiagonal(*_interleaved_bands(plus),
                                   lapack_driver="stebz", select="v",
                                   select_range=radial._window_bounds(m),
                                   tol=radial._FULL_PRECISION)
        cols = vecs[:, :ensemble]
        vs = np.column_stack([np.vstack([cols[1::2], cols[0::2]]), vk])
        eq6, comm = [], []
        for j in range(vs.shape[1]):
            v = vs[:, j]
            va = np.abs(v)
            av = a_mp @ v
            r_eq6 = a_mp.T @ av - v - factor * ((hp @ (hp @ v)) / m**2 - v)
            s_eq6 = a_abs.T @ (a_abs @ va) + va \
                + factor * ((hp_abs @ (hp_abs @ va)) / m**2 + va)
            r_comm = hm @ av - a_mp @ (hp @ v)
            s_comm = hm_abs @ (a_abs @ va) + a_abs @ (hp_abs @ va)
            eq6.append(interior_norm(susy._floor_masked(r_eq6, s_eq6), n, 3))
            comm.append(interior_norm(susy._floor_masked(r_comm, s_comm), n,
                                      3))
        eq6_res.append(float(np.sqrt(np.mean(np.square(eq6)))))
        comm_res.append(float(np.sqrt(np.mean(np.square(comm)))))
        kern_res.append(interior_norm(
            susy._floor_masked(a_mp @ vk, a_abs @ np.abs(vk)), n, 2))
    for name, res in (("a_squared_identity", eq6_res),
                      ("commutator_h_a", comm_res),
                      ("kernel_annihilation", kern_res)):
        order = -float(np.polyfit(np.log(ns), np.log(res), 1)[0])
        rows[name] = (tuple(res), order)
    return rows


def _dense_kernel_study(params, abs_kappa, n_points, eta):
    _, plus_sector = sector_pair(params, abs_kappa)
    residuals = []
    for n in n_points:
        grid = default_grid(params, plus_sector, n_points=n)
        plus = radial.build_radial_hamiltonian(params, plus_sector, grid)
        v = susy._kernel_flat_vector(params, abs_kappa, grid)
        residuals.append(interior_norm(_dense_a_mp(plus, eta, abs_kappa) @ v,
                                       n, 2))
    rq = float((v @ (plus.matrix @ v)) / (v @ v) / params.m)
    return residuals, rq


def _rel(a, b):
    return abs(a - b) / abs(b)


def _assert_matches_dense(verification, block):
    ref = _dense_verify(block)
    ref_flags = {}
    for row in verification.rows:
        residual, order = ref[row.name]
        if order is None:
            assert row.residual == 0.0 and residual == 0.0, row.name
            ref_flags[row.name] = True
            continue
        ref_flags[row.name] = all(a / b >= 3.5
                                  for a, b in zip(residual, residual[1:]))
        for new, old in zip(row.residuals, residual):
            assert _rel(new, old) <= 1e-4, row.name
        assert abs(row.refinement_order - order) <= 1e-5, row.name
    assert {r.name: r.passed for r in verification.rows} == ref_flags


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_sparse_a_mp_equals_dense_formula(case):
    D, ak = case
    params = _params(D)
    _, plus_sector = sector_pair(params, ak)
    grid = default_grid(params, plus_sector, n_points=70)
    plus = radial.build_radial_hamiltonian(params, plus_sector, grid)
    for eta in (1, -1):
        a_mp = susy._assemble_a_mp(params, ak, grid, eta)
        assert sp.issparse(a_mp) and a_mp.nnz <= 3 * 2 * grid.n_points
        assert np.array_equal(a_mp.toarray(), _dense_a_mp(plus, eta, ak))


@pytest.mark.parametrize("case", [(2, 0.5), (3, 1.0), (4, 2.5)])
def test_supercharges_equal_gemm_with_diagonal(small_blocks, case):
    # Row and column scalings give the floats of the dense products with
    # the diagonal grading.  H_susy is a CSR product, which sums in another
    # order than the dense gemm, so only its identity with A^2 is exact.
    block = small_blocks[case]
    got = _dense_of(build_supercharges(block))
    want = _dense_charges(block)
    for new, old in zip(got[:4], want[:4]):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)
    assert np.allclose(got[4], want[4], rtol=1e-12,
                       atol=1e-12 * np.max(np.abs(want[4])))


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_sparse_ladder_matches_dense_reference(small_blocks, case):
    block = small_blocks[case]
    _assert_matches_dense(verify_A_squared(block), block)


def test_sparse_ladder_matches_dense_reference_at_base_200():
    block = build_A(build_susy_block(P3, 1.0, n_points=200))
    _assert_matches_dense(verify_A_squared(block), block)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_sparse_kernel_study_matches_dense_reference(case):
    D, ak = case
    params = _params(D)
    family = (80, 160, 320)
    report = kernel_annihilation_report(params, ak, n_points=family)
    residuals, rq = _dense_kernel_study(params, ak, family, eta=1)
    for new, old in zip(report.residuals, residuals):
        assert _rel(new, old) <= 1e-9
    assert _rel(report.rayleigh_quotient, rq) <= 1e-13
    # The alternate-assembly gap, (A_mp - alt) v before the port.
    plus_sector = sector_pair(params, ak)[1]
    grid = default_grid(params, plus_sector, n_points=80)
    plus = radial.build_radial_hamiltonian(params, plus_sector, grid)
    alt = susy.alternate_a_mp(params, ak, grid, 1)
    assert sp.issparse(alt)
    v = susy._kernel_flat_vector(params, ak, grid)
    old_gap = interior_norm((_dense_a_mp(plus, 1, ak) - alt.toarray()) @ v,
                            80, 3)
    gap = susy._alternate_gap(params, ak, grid, 1,
                              susy._assemble_a_mp(params, ak, grid, 1))
    assert _rel(gap, old_gap) <= 1e-12


def test_sparse_kernel_study_matches_dense_reference_default_family():
    report = kernel_annihilation_report(P3, 1.0)
    residuals, rq = _dense_kernel_study(P3, 1.0, report.n_points, eta=1)
    for new, old in zip(report.residuals, residuals):
        assert _rel(new, old) <= 1e-9
    assert _rel(report.rayleigh_quotient, rq) <= 1e-13


@pytest.mark.parametrize("case", [(3, 1.0), (4, 1.5)])
def test_sparse_ladder_sees_a_perturbed_assembly(monkeypatch, case):
    # Negative control: 1e-3 on one interior diagonal entry of A_mp, where
    # the zero mode peaks, must break both analytic identities.  The block
    # is built first, so the defect lives only in the refined levels of the
    # ladder (the base level reads the block's A), and the structural rows
    # stay exact.
    D, ak = case
    params = _params(D)
    block = build_A(build_susy_block(params, ak, n_points=200))
    true_assembly = susy._assemble_a_mp

    def perturbed(params, abs_kappa, grid, eta):
        a_mp = true_assembly(params, abs_kappa, grid, eta)
        n = grid.n_points
        vk = susy._kernel_flat_vector(params, abs_kappa, grid)
        i = int(np.argmax(np.abs(vk[:n])))
        return a_mp + sp.csr_matrix(([1e-3], ([i], [i])), shape=a_mp.shape)

    assert verify_A_squared(block).all_passed
    monkeypatch.setattr(susy, "_assemble_a_mp", perturbed)
    by_name = {r.name: r for r in verify_A_squared(block).rows}
    assert not by_name["a_squared_identity"].passed
    assert not by_name["commutator_h_a"].passed
    assert by_name["a_symmetric"].passed


def test_ladder_base_level_reads_the_blocks_A(small_blocks):
    # A symmetric defect planted in the stored A (A_mp and its transpose
    # alike) must reach the base level of the refinement ladder, which acts
    # with the block's own A_mp instead of assembling it again.  The gate
    # still passes: the refined levels assemble a clean A_mp, so a defect
    # in the base block only raises the first ratio.
    block = small_blocks[(3, 1.0)]
    n2 = 2 * block.n
    vk = susy._kernel_flat_vector(block.params, block.abs_kappa, block.grid)
    i = int(np.argmax(np.abs(vk[:block.n])))
    planted = _planted(_planted(block, i, n2 + i, -1e-2), n2 + i, i, -1e-2)
    clean = {r.name: r for r in verify_A_squared(block).rows}
    dirty = {r.name: r for r in verify_A_squared(planted).rows}
    for name in ("a_squared_identity", "commutator_h_a",
                 "kernel_annihilation"):
        assert dirty[name].residuals[0] > clean[name].residuals[0]
        assert dirty[name].residuals[1:] == clean[name].residuals[1:]
        assert dirty[name].ratios[0] > clean[name].ratios[0]
        assert dirty[name].passed
    assert dirty["a_symmetric"].passed


STRUCTURAL_ROWS = ("a_symmetric", "anticommutator_k_a", "q_plus_squared",
                   "q_minus_squared", "anticommutator_q1_q2",
                   "h_susy_equals_a_squared")


def _structural_residuals(block):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(susy, "REFINEMENTS", 1)
        patch.setattr(susy, "ENSEMBLE", 1)
        rows = verify_A_squared(block).rows
    return {r.name: r.residual for r in rows if r.name in STRUCTURAL_ROWS}


def test_structural_rows_exact_at_base_400():
    block = build_A(build_susy_block(P3, 2.0, n_points=400))
    assert _structural_residuals(block) == dict.fromkeys(STRUCTURAL_ROWS, 0.0)


def _planted(block, i, j, value):
    # A canonical CSR sum, as SusyBlock requires of its stored A.
    defect = sp.csr_matrix(([value], ([i], [j])), shape=block.A.shape)
    return replace(block, A=block.A + defect)


# Negative controls for the structural pass: each planted defect breaks the
# identities it violates in exact arithmetic, and no other.  A lone entry in
# A_mp leaves A block off-diagonal, so only symmetry fails.  A diagonal entry
# inside one sector block commutes with K instead of anticommuting, makes
# that sector's charge square non-nilpotent, and so also breaks {Q1, Q2} = 0
# and {Q+, Q-} = A^2; the other sector's charge does not see it.
@pytest.mark.parametrize("where, broken", [
    ("a_mp", {"a_symmetric"}),
    ("minus", {"anticommutator_k_a", "q_minus_squared",
               "anticommutator_q1_q2", "h_susy_equals_a_squared"}),
    ("plus", {"anticommutator_k_a", "q_plus_squared",
              "anticommutator_q1_q2", "h_susy_equals_a_squared"}),
])
def test_structural_rows_see_a_planted_defect(small_blocks, where, broken):
    block = small_blocks[(3, 1.0)]
    n2, i = 2 * block.n, block.n // 2
    entry = {"a_mp": (i, n2 + i), "minus": (i, i),
             "plus": (n2 + i, n2 + i)}[where]
    residuals = _structural_residuals(_planted(block, *entry, 0.25))
    assert {name for name, res in residuals.items() if res != 0.0} == broken
    assert all(residuals[name] > 1e-3 for name in broken)


@pytest.mark.parametrize("family", [(200,), (200, 200), (400, 200), ()])
def test_kernel_report_rejects_degenerate_family(family):
    with pytest.raises(ValueError, match="increasing n_points"):
        kernel_annihilation_report(P3, 1.0, n_points=family)


# --- Reference: the scipy.sparse composition of alternate_a_mp that the
# band-vector assembly replaced, kept to pin the port. ---------------------

def _sparse_bidiag(main, sub=None, sup=None):
    diags, offsets = [main], [0]
    if sub is not None:
        diags.append(sub)
        offsets.append(-1)
    if sup is not None:
        diags.append(sup)
        offsets.append(1)
    return sp.diags(diags, offsets, shape=(main.size, main.size),
                    format="csr")


def _scipy_alternate_a_mp(params, abs_kappa, grid, eta):
    n = grid.n_points
    ak = abs_kappa
    nu = (params.D - 1) / 2
    r_i = grid.nodes
    r_h = grid.nodes_small
    gap_ih = np.empty(n)
    gap_ih[0] = r_i[0] - grid.r_min
    gap_ih[1:] = np.diff(r_i)
    inv = 1.0 / gap_ih
    d_ih = _sparse_bidiag(inv, sub=-inv[1:])
    r_h_top = r_h[-1] ** 2 / r_h[-2]
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
        xi_fwd = di(1.0 / r_dst) @ avg_fwd
        d2_src = d_bwd @ d_fwd
        term1 = 2.0 * di(r_dst) @ avg_fwd @ (
            -d2_src + kappa * (kappa - 1.0) * di(1.0 / r_src**2))
        inner = d_fwd - kappa * xi_fwd
        outer = di(r_src) @ d_bwd - nu * avg_bwd
        term2 = 2.0 * avg_fwd @ (outer @ inner)
        term3 = 2.0 * nu * inner
        return term1 + term2 + term3

    scale = 1.0 / (2.0 * params.z_alpha * params.m)
    ul = (eta * (avg_ih - scale * w_blocks(ak, d_ih, d_hi, avg_ih, avg_hi,
                                           r_i, r_h))).tocsr()
    lr = (eta * (avg_hi + scale * w_blocks(-ak, d_hi, d_ih, avg_hi, avg_ih,
                                           r_h, r_i))).tocsr()
    s_i = np.sqrt(r_i)
    s_h = np.sqrt(r_h)
    for blk, s_row, s_col in ((ul, s_h, s_i), (lr, s_i, s_h)):
        rows = np.repeat(np.arange(n), np.diff(blk.indptr))
        blk.data = (s_row[rows] * blk.data) / s_col[blk.indices]
    return sp.bmat([[ul, di(ak / (params.m * r_h))],
                    [di(-ak / (params.m * r_i)), lr]], format="csr")


# Fixed before the comparison: entrywise relative agreement, and exact
# zeros where the reference has them.
ALTERNATE_RTOL = 1e-13


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_alternate_assembly_matches_scipy_composition(case):
    D, ak = case
    params = _params(D)
    _, plus_sector = sector_pair(params, ak)
    grid = default_grid(params, plus_sector, n_points=70)
    for eta in (1, -1):
        alt = susy.alternate_a_mp(params, ak, grid, eta)
        assert sp.issparse(alt) and alt.format == "csr"
        got = alt.toarray()
        ref = _scipy_alternate_a_mp(params, ak, grid, eta).toarray()
        assert np.all(np.abs(got - ref) <= ALTERNATE_RTOL * np.abs(ref))


# --- _bound_columns takes only the levels it uses from the window. ---

def _full_window_columns(params, sector, grid):
    d, e = radial._sector_bands(params, sector, grid, radial.STANDARD)
    tiny = 1e-12 * params.m
    _, vecs = eigh_tridiagonal(d, e, select="v", lapack_driver="stebz",
                               select_range=(tiny, params.m - tiny),
                               tol=2.0 * np.finfo(np.float64).tiny)
    return np.vstack([vecs[1::2], vecs[0::2]])


@pytest.mark.parametrize("case", [(2, 0.5), (3, 1.0), (5, 3.0)])
def test_bound_columns_match_full_window(case):
    D, ak = case
    params = _params(D)
    _, plus_sector = sector_pair(params, ak)
    grid = default_grid(params, plus_sector, n_points=80)
    full = _full_window_columns(params, plus_sector, grid)
    window = full.shape[1]
    assert window >= 4
    for count in (1, 4, window + 3):
        cols = susy._bound_columns(params, plus_sector, grid, count)
        take = min(count, window)
        assert cols.shape == (2 * grid.n_points, take)
        for got, ref in zip(cols.T, full[:, :take].T):
            assert min(np.max(np.abs(got - ref)),
                       np.max(np.abs(got + ref))) <= 1e-12


def test_bound_columns_bisect_only_their_levels(monkeypatch):
    # verify's refinement ladder seeds its columns with their closed forms:
    # over the block domain at the benchmark's base grid, each level is
    # bisected alone from its own node, with no pass over the whole window.
    for D, l, za in load_bench_module("workloads").block_domain():
        params = PhysParams(D=D, z_alpha=za)
        _, plus_sector = sector_pair(params, l + (D - 1) / 2)
        grid = default_grid(params, plus_sector, n_points=200)
        with monkeypatch.context() as patch:
            passes = _record_bisections(patch)
            cols = susy._bound_columns(params, plus_sector, grid,
                                       susy.ENSEMBLE)
        assert cols.shape[1] == susy.ENSEMBLE
        _assert_seeded_path(passes, susy.ENSEMBLE)
