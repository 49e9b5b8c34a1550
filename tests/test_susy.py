"""Sector-swap operator A, supercharges, pairing, and kernel contracts.

The structural identities are exact zeros by construction (sign-symmetric
gemm summands), so tests assert residual == 0.0, not smallness.  The two
analytic identities and the kernel annihilation are discretizations and are
tested through refinement ratios instead.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from susyh import radial, susy
from susyh.core import PhysParams, default_grid
from susyh.errors import ConventionError, PairingError
from susyh.susy import (build_A, build_supercharges, build_susy_block,
                        interior_norm, kernel_annihilation_report,
                        sector_pair, spectral_pairing, spectral_pairing_at,
                        verify_A_squared)

P3 = PhysParams(D=3, z_alpha=0.5)

# Smallest two |kappa| blocks for D = 2..5; D = 2 needs z_alpha < 1/2.
BLOCK_CASES = [(2, 0.5), (2, 1.5), (3, 1.0), (3, 2.0),
               (4, 1.5), (4, 2.5), (5, 2.0), (5, 3.0)]


def _params(D):
    return PhysParams(D=D, z_alpha=0.4 if D == 2 else 0.5)


@pytest.fixture(scope="module")
def small_blocks():
    # eta pinning doubles the grid once, so n = 80 keeps this cheap.
    return {(D, ak): build_A(build_susy_block(_params(D), ak, n_points=80))
            for D, ak in BLOCK_CASES}


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_structural_identities_are_exact_zeros(small_blocks, case):
    block = small_blocks[case]
    charges = build_supercharges(block)
    a, k = block.A_block, block.K_block
    zeros = {
        "a_symmetric": a - a.T,
        "anticommutator_k_a": a @ k + k @ a,
        "q_plus_squared": charges.Q_plus @ charges.Q_plus,
        "q_minus_squared": charges.Q_minus @ charges.Q_minus,
        "anticommutator_q1_q2": charges.Q1 @ charges.Q2 + charges.Q2 @ charges.Q1,
        "h_susy_equals_a_squared": charges.H_susy - a @ a,
    }
    for name, mat in zeros.items():
        assert np.max(np.abs(mat)) == 0.0, name
    assert block.eta == 1


def test_charge_combinations_are_bitwise_consistent(small_blocks):
    # Q+- = (Q1 +- i Q2)/2 must equal the projector form (1 +- K/|k|)A/2
    # exactly: P A = -A P is an exact sign flip, so both reductions run
    # through identical float operations.
    charges = build_supercharges(small_blocks[(3, 1.0)])
    plus = 0.5 * (charges.Q1 + 1j * charges.Q2)
    minus = 0.5 * (charges.Q1 - 1j * charges.Q2)
    assert np.array_equal(plus.imag, np.zeros_like(plus.imag))
    assert np.array_equal(charges.Q_plus, plus.real)
    assert np.array_equal(charges.Q_minus, minus.real)
    q2 = charges.Q2
    assert np.array_equal(q2.real, np.zeros_like(q2.real))
    assert np.array_equal(q2.conj().T, q2)


def test_block_assembly_structure():
    block = build_susy_block(P3, 1.0, n_points=60)
    n2 = 2 * block.n
    assert np.array_equal(block.H_block[:n2, :n2], block.minus.matrix)
    assert np.array_equal(block.H_block[n2:, n2:], block.plus.matrix)
    assert np.count_nonzero(block.H_block[:n2, n2:]) == 0
    diag = np.diagonal(block.K_block)
    assert np.all(diag[:n2] == -1.0) and np.all(diag[n2:] == 1.0)
    assert block.minus.layout == radial.SWAPPED
    assert block.plus.layout == radial.STANDARD
    assert block.A_block is None and block.eta is None


def test_build_A_returns_new_immutable_block():
    base = build_susy_block(P3, 1.0, n_points=60)
    done = build_A(base, check_alternate=False)
    assert base.A_block is None
    assert done is not base and done.A_block is not None
    with pytest.raises(ValueError):
        done.A_block[0, 0] = 1.0
    n2 = 2 * done.n
    assert np.count_nonzero(done.A_block[:n2, :n2]) == 0
    assert np.array_equal(done.A_block[:n2, n2:], done.a_mp())


def test_explicit_eta_reproduces_pinned_assembly():
    base = build_susy_block(P3, 1.0, n_points=60)
    pinned = build_A(base, check_alternate=False)
    forced = build_A(base, eta=1, check_alternate=False)
    assert np.array_equal(pinned.A_block, forced.A_block)
    with pytest.raises(ValueError):
        build_A(base, eta=0)


def test_wrong_eta_breaks_kernel_annihilation():
    # With the flipped sign the zero-mode action does not shrink under
    # refinement at all: the defining contract rejects it.
    grid = default_grid(P3, sector_pair(P3, 1.0)[1], n_points=100)
    coarse = susy._kernel_residual(P3, 1.0, grid, -1)
    fine = susy._kernel_residual(P3, 1.0, grid.refined(2), -1)
    assert fine > coarse / 2.0
    report = kernel_annihilation_report(P3, 1.0, n_points=(100, 200, 400),
                                        eta=-1)
    assert report.fitted_order < 0.5
    assert not report.passed()


def test_alternate_assembly_rejects_disagreement(monkeypatch):
    # An alternate route that disagrees by O(1) on the zero mode (here a
    # spurious identity term) must be caught by the convergence gate.
    base = build_susy_block(P3, 1.0, n_points=80)
    true_alternate = susy.alternate_a_mp
    monkeypatch.setattr(
        susy, "alternate_a_mp",
        lambda block, eta=None: true_alternate(block, eta) + np.eye(2 * block.n))
    with pytest.raises(ConventionError):
        build_A(base, eta=1, check_alternate=True)


def test_alternate_assembly_converges_to_primary():
    gaps = []
    for n in (100, 200, 400):
        grid = default_grid(P3, sector_pair(P3, 1.0)[1], n_points=n)
        gaps.append(susy._alternate_gap(P3, 1.0, grid, 1))
    assert all(a / b > 3.0 for a, b in zip(gaps, gaps[1:]))


def test_build_A_with_alternate_check_small_s():
    # s = 0.3: the cusp is at its worst among the tested blocks; the
    # dual-assembly agreement must still converge.
    p2 = _params(2)
    block = build_A(build_susy_block(p2, 0.5, n_points=200))
    assert block.eta == 1


def test_verify_A_squared_full_suite():
    block = build_susy_block(P3, 1.0, n_points=200)
    verification = verify_A_squared(build_A(block), include_raw=True)
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
    # Raw matrix norms are diagnostics only: wall rows make them diverge.
    raw = verification.diagnostics["raw_norms"]
    assert [d["n_points"] for d in raw] == [200, 400, 800]
    assert raw[-1]["eq6_frobenius"] > raw[0]["eq6_frobenius"]
    assert "raw_norms_note" in verification.diagnostics


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


def test_verify_row_serialization():
    block = build_A(build_susy_block(P3, 1.0, n_points=60),
                    check_alternate=False)
    verification = verify_A_squared(block, refinements=1, ensemble=2)
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
    widened = susy._pairing_grid(p2, plus, 800, susy.LOG_UNIFORM, 3)
    unit = 0.5 / (p2.z_alpha * p2.m)
    assert widened.nodes[-1] > 85.0 * unit
    _, plus3 = sector_pair(P3, 1.0)
    stock = susy._pairing_grid(P3, plus3, 800, susy.LOG_UNIFORM, 3)
    assert np.array_equal(stock.nodes, default_grid(P3, plus3, 800).nodes)


def test_spectral_pairing_defaults_pass_on_small_s_block():
    report = spectral_pairing_at(_params(2), 0.5)
    assert report.passed
    assert report.witten_index == 1
    assert 0.0 < report.max_gap < 1e-5


def test_pairing_paths_agree_bitwise():
    block = build_susy_block(P3, 1.0, n_points=200)
    via_block = spectral_pairing(block)
    via_bands = spectral_pairing_at(P3, 1.0, grid=block.grid)
    assert via_block.unpaired_energy == via_bands.unpaired_energy
    assert via_block.witten_index == via_bands.witten_index
    for a, b in zip(via_block.rows, via_bands.rows):
        assert (a.energy_minus, a.energy_plus) == (b.energy_minus, b.energy_plus)


def test_pairing_ambiguity_at_absurd_tolerance():
    block = build_susy_block(P3, 1.0, n_points=200)
    with pytest.raises(PairingError):
        spectral_pairing(block, tol=0.5)


def test_pairing_requires_plus_levels():
    with pytest.raises(PairingError):
        susy._match_levels(P3, 1.0, [0.9], [], tol=1e-5)


def test_pairing_reports_missing_partner():
    report = susy._match_levels(P3, 1.0, [0.96, 0.985], [0.866, 0.9659],
                                tol=1e-3)
    assert report.reason
    assert not report.passed


def test_kernel_annihilation_report():
    report = kernel_annihilation_report(P3, 1.0)
    assert report.n_points == (200, 400, 800, 1600)
    assert report.passed()
    assert report.fitted_order >= 1.9
    assert all(r >= 3.5 for r in report.ratios)
    assert all(a > b > 0 for a, b in zip(report.residuals, report.residuals[1:]))
    assert report.ground_exact == math.sqrt(3) / 2
    assert abs(report.rayleigh_quotient - report.ground_exact) < 1e-5
    assert report.rq_rel_error < 1e-5
    # Tighter thresholds must be able to fail it.
    assert not report.passed(rq_tol=1e-9)


def test_supercharges_require_assembled_A():
    block = build_susy_block(P3, 1.0, n_points=60)
    with pytest.raises(ValueError):
        build_supercharges(block)
    with pytest.raises(ValueError):
        block.a_mp()


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


def _dense_verify(block, min_ratio=3.5, refinements=2, ensemble=4,
                  include_raw=False):
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
    ns, eq6_res, comm_res, kern_res, raw = [], [], [], [], []
    grid = block.grid
    for level in range(refinements + 1):
        if level:
            grid = grid.refined(2)
        n = grid.n_points
        ns.append(n)
        a_mp, plus, hm = _dense_level(params, ak, grid, block.eta)
        hp = plus.matrix
        a_abs, hp_abs, hm_abs = np.abs(a_mp), np.abs(hp), np.abs(hm)
        vk = susy._kernel_flat_vector(params, ak, grid)
        _, vecs = radial._bound_window_solve(*radial._interleaved_bands(plus),
                                             m)
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
        if include_raw:
            r_eq6_mat = a_mp.T @ a_mp - np.eye(2 * n) \
                - factor * ((hp @ hp) / m**2 - np.eye(2 * n))
            r_comm_mat = hm @ a_mp - a_mp @ hp
            raw.append({
                "n_points": n,
                "eq6_frobenius": float(np.linalg.norm(r_eq6_mat)),
                "eq6_max_element": float(np.max(np.abs(r_eq6_mat))),
                "commutator_frobenius": float(np.linalg.norm(r_comm_mat)),
                "commutator_max_element": float(np.max(np.abs(r_comm_mat))),
            })
    for name, res in (("a_squared_identity", eq6_res),
                      ("commutator_h_a", comm_res),
                      ("kernel_annihilation", kern_res)):
        rows[name] = (tuple(res), susy._fit_order(ns, res))
    return rows, raw


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


def _assert_matches_dense(verification, block, include_raw=False):
    ref, raw = _dense_verify(block, include_raw=include_raw)
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
    if include_raw:
        got = verification.diagnostics["raw_norms"]
        assert [d["n_points"] for d in got] == [d["n_points"] for d in raw]
        for new, old in zip(got, raw):
            for key in old:
                assert _rel(new[key], old[key]) <= 1e-4, key


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_sparse_a_mp_equals_dense_formula(case):
    D, ak = case
    params = _params(D)
    _, plus_sector = sector_pair(params, ak)
    for scheme in (susy.LOG_UNIFORM, susy.UNIFORM):
        grid = default_grid(params, plus_sector, n_points=70, scheme=scheme)
        plus = radial.build_radial_hamiltonian(params, plus_sector, grid)
        for eta in (1, -1):
            a_mp = susy._assemble_a_mp(params, ak, grid, eta)
            assert sp.issparse(a_mp) and a_mp.nnz <= 3 * 2 * grid.n_points
            assert np.array_equal(a_mp.toarray(), _dense_a_mp(plus, eta, ak))


@pytest.mark.parametrize("case", [(2, 0.5), (3, 1.0), (4, 2.5)])
def test_supercharges_equal_gemm_with_diagonal(small_blocks, case):
    # Row and column scalings give the floats of the dense products with
    # the diagonal grading.
    block = small_blocks[case]
    charges = build_supercharges(block)
    got = (charges.Q1, charges.Q2, charges.Q_plus, charges.Q_minus,
           charges.H_susy)
    for new, old in zip(got, _dense_charges(block)):
        assert new.dtype == old.dtype
        assert np.array_equal(new, old)


@pytest.mark.parametrize("case", BLOCK_CASES)
def test_sparse_ladder_matches_dense_reference(small_blocks, case):
    block = small_blocks[case]
    _assert_matches_dense(verify_A_squared(block), block)


def test_sparse_ladder_matches_dense_reference_with_raw():
    block = build_A(build_susy_block(P3, 1.0, n_points=200))
    verification = verify_A_squared(block, include_raw=True)
    _assert_matches_dense(verification, block, include_raw=True)


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
    grid = default_grid(params, sector_pair(params, ak)[1], n_points=80)
    block = build_susy_block(params, ak, grid=grid)
    alt = susy.alternate_a_mp(block, 1)
    v = susy._kernel_flat_vector(params, ak, grid)
    old_gap = interior_norm((_dense_a_mp(block.plus, 1, ak) - alt) @ v, 80, 3)
    assert _rel(susy._alternate_gap(params, ak, grid, 1), old_gap) <= 1e-12


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
    # is built first, so the defect lives only in the sparse ladder and the
    # structural rows stay exact.
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


@pytest.mark.parametrize("refinements", [0, -1])
def test_verify_needs_a_refinement(small_blocks, refinements):
    with pytest.raises(ValueError, match="refinements"):
        verify_A_squared(small_blocks[(3, 1.0)], refinements=refinements)


@pytest.mark.parametrize("family", [(200,), (200, 200), (400, 200), ()])
def test_kernel_report_rejects_degenerate_family(family):
    with pytest.raises(ValueError, match="increasing n_points"):
        kernel_annihilation_report(P3, 1.0, n_points=family)
