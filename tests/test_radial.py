"""Staggered-grid radial Hamiltonians and the pollution-free eigensolver."""

import itertools
import math
import warnings

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from susyh import analytic, radial
from susyh.core import LOG_UNIFORM, UNIFORM, PhysParams, default_grid, \
    kappa_of, make_grid
from susyh.errors import GridError, SpuriousSpectrumError
from susyh.radial import (DERIVATIVE, IDENTITY, POTENTIAL, STANDARD, SWAPPED,
                          TruncationWarning, build_radial_hamiltonian,
                          build_radial_operator, compose_operators,
                          convergence_study, solve_bound_levels,
                          solve_spectrum)

P3 = PhysParams(D=3, z_alpha=0.5)
SECTOR_P = kappa_of(P3, 0, 1)
SECTOR_M = kappa_of(P3, 0, -1)

GROUND = math.sqrt(3) / 2
FIRST_EXCITED = 0.9659258262890683


def test_uniform_grid_layout():
    g = make_grid(UNIFORM, 1e-3, 50.0, 64)
    assert g.step == (50.0 - 1e-3) / 65
    assert np.all(np.diff(g.nodes) > 0)
    np.testing.assert_allclose(np.diff(g.nodes), g.step, rtol=1e-12)
    np.testing.assert_allclose(g.nodes - g.nodes_small, g.step / 2, rtol=1e-12)
    # G nodes interleave the F nodes from below.
    assert np.all(g.nodes_small < g.nodes)
    assert np.all(g.nodes[:-1] < g.nodes_small[1:])
    for w in (g.weights, g.weights_small):
        assert np.all(w > 0)
        assert math.isclose(w.sum(), 50.0 - 1e-3, rel_tol=1e-13)


def test_log_grid_layout():
    g = make_grid(LOG_UNIFORM, 1e-5, 60.0, 128)
    t = np.log(g.nodes)
    np.testing.assert_allclose(np.diff(t), g.step, rtol=1e-10)
    np.testing.assert_allclose(np.log(g.nodes / g.nodes_small), g.step / 2,
                               rtol=1e-10)
    for w in (g.weights, g.weights_small):
        assert np.all(w > 0)
        assert math.isclose(w.sum(), 60.0 - 1e-5, rel_tol=1e-13)


def test_refined_grid():
    g = make_grid(LOG_UNIFORM, 1e-5, 60.0, 100)
    f = g.refined(2)
    assert f.n_points == 200
    assert (f.r_min, f.r_max, f.scheme) == (g.r_min, g.r_max, g.scheme)
    assert 0.49 < f.step / g.step < 0.51


@pytest.mark.parametrize("kwargs", [
    dict(scheme="chebyshev", r_min=1e-3, r_max=10.0, n_points=32),
    dict(scheme=UNIFORM, r_min=0.0, r_max=10.0, n_points=32),
    dict(scheme=UNIFORM, r_min=10.0, r_max=1.0, n_points=32),
    dict(scheme=UNIFORM, r_min=1e-3, r_max=10.0, n_points=4),
])
def test_grid_validation(kwargs):
    with pytest.raises(ValueError):
        make_grid(**kwargs)


@pytest.mark.parametrize("field,value", [
    ("z_alpha", math.nan), ("z_alpha", math.inf),
    ("m", math.nan), ("m", math.inf),
])
def test_params_reject_non_finite(field, value):
    kwargs = dict(D=3, z_alpha=0.5, m=1.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        PhysParams(**kwargs)


def test_default_grid_wall_underflow_is_typed():
    # s = 0.0032, so the default wall 10^(-3/s) underflows to 0.0.
    p = PhysParams(D=2, z_alpha=0.49999)
    with pytest.raises(GridError, match="underflowed.*wall_factor.*z_alpha"):
        default_grid(p, kappa_of(p, 0, 1))


def test_default_grid_scales_with_sector():
    g = default_grid(P3, SECTOR_P, n_points=100)
    unit = SECTOR_P.abs_kappa / (P3.z_alpha * P3.m)
    assert math.isclose(g.r_max, 60.0 * unit, rel_tol=1e-12)
    assert g.r_min < 1e-5 * unit
    with pytest.raises(ValueError):
        default_grid(PhysParams(D=3, z_alpha=0.0, allow_free=True), SECTOR_P)


@pytest.mark.parametrize("scheme", [UNIFORM, LOG_UNIFORM])
@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
@pytest.mark.parametrize("sign", [1, -1])
def test_hamiltonian_exactly_symmetric(scheme, layout, sign):
    sector = kappa_of(P3, 0, sign)
    grid = default_grid(P3, sector, n_points=60, scheme=scheme)
    op = build_radial_hamiltonian(P3, sector, grid, layout=layout)
    assert np.array_equal(op.matrix, op.matrix.T)
    assert op.kind == radial.HAMILTONIAN


def test_banded_assembly_matches_dense():
    # The O(n) band path must produce the same floats as extracting bands
    # from the assembled matrix, for both layouts and both schemes.
    for scheme in (UNIFORM, LOG_UNIFORM):
        for layout, sector in ((STANDARD, SECTOR_P), (SWAPPED, SECTOR_M)):
            grid = default_grid(P3, SECTOR_P, n_points=50, scheme=scheme)
            op = build_radial_hamiltonian(P3, sector, grid, layout=layout)
            d_ref, e_ref = radial._interleaved_bands(op)
            d, e = radial._sector_bands(P3, sector, grid, layout)
            assert np.array_equal(d, d_ref)
            assert np.array_equal(e, e_ref)


def _dense_hamiltonian(params, sector, grid, layout):
    """Reference: the dense assembly that the CSR sector operator replaced."""
    n = grid.n_points
    if layout == STANDARD:
        r_f, r_g = grid.nodes, grid.nodes_small
        cross = radial._cross_block(grid, sector.kappa)
    else:
        r_f, r_g = grid.nodes_small, grid.nodes
        cross = -radial._cross_block(grid, -sector.kappa).T
    mat = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    mat[idx, idx] = params.m + radial._diag_potential(params, r_f)
    mat[n + idx, n + idx] = -params.m + radial._diag_potential(params, r_g)
    mat[:n, n:] = cross
    mat[n:, :n] = cross.T
    return mat


@pytest.mark.parametrize("scheme", [UNIFORM, LOG_UNIFORM])
def test_sector_csr_matches_dense_assembly(scheme):
    # Same floats entry by entry (the old swapped assembly negated its zeros
    # to -0.0, which compare equal); at most 3 stored entries per row.
    for D, l, sign, layout in itertools.product(
            (2, 3, 5), (0, 1), (1, -1), (STANDARD, SWAPPED)):
        params = PhysParams(D=D, z_alpha=0.4 if D == 2 else 0.5)
        sector = kappa_of(params, l, sign)
        grid = default_grid(params, sector, n_points=70, scheme=scheme)
        csr = radial._sector_csr(params, sector, grid, layout)
        ref = _dense_hamiltonian(params, sector, grid, layout)
        assert np.array_equal(csr.toarray(), ref)
        assert np.array_equal(
            build_radial_hamiltonian(params, sector, grid, layout).matrix, ref)
        assert csr.nnz == 6 * grid.n_points - 2


def test_ground_state_accuracy():
    grid = default_grid(P3, SECTOR_P, n_points=800)
    pairs = solve_bound_levels(P3, SECTOR_P, grid, count=3)
    exact = [GROUND, FIRST_EXCITED, 0.9851210547941825]
    errors = [abs(p.energy - e) for p, e in zip(pairs, exact)]
    # Honest bracket: inside tolerance but visibly a discretization.
    assert all(e < 1e-5 for e in errors)
    assert all(e > 1e-8 for e in errors)
    assert all(0.0 < p.energy < P3.m for p in pairs)


def test_minus_sector_has_no_nodeless_state():
    grid = default_grid(P3, SECTOR_M, n_points=400)
    pairs = solve_bound_levels(P3, SECTOR_M, grid, count=3)
    assert abs(pairs[0].energy - FIRST_EXCITED) < 1e-4
    assert all(abs(p.energy - GROUND) > 1e-3 for p in pairs)


def test_eigenpair_normalization():
    grid = default_grid(P3, SECTOR_P, n_points=800)
    pair = solve_bound_levels(P3, SECTOR_P, grid, count=1)[0]
    F, G = pair.doublet
    op = build_radial_hamiltonian(P3, SECTOR_P, grid)
    norm = op.weights_f @ F**2 + op.weights_g @ G**2
    assert abs(norm - 1.0) < 1e-12
    # Small-component weight for the nodeless state: c^2/(1+c^2) with
    # c = (kappa - s)/(Z alpha).
    c = (1.0 - SECTOR_P.s) / P3.z_alpha
    assert abs(pair.norm_weight_small - c * c / (1 + c * c)) < 1e-5


def test_solver_paths_agree_bitwise():
    grid = default_grid(P3, SECTOR_P, n_points=200)
    op = build_radial_hamiltonian(P3, SECTOR_P, grid)
    dense = solve_spectrum(op, count=3)
    banded = solve_bound_levels(P3, SECTOR_P, grid, count=3)
    for a, b in zip(dense, banded):
        assert a.energy == b.energy
        assert np.array_equal(a.doublet[0], b.doublet[0])
        assert np.array_equal(a.doublet[1], b.doublet[1])


def test_determinism():
    grid = default_grid(P3, SECTOR_P, n_points=300)
    runs = [solve_bound_levels(P3, SECTOR_P, grid, count=2)
            for _ in range(2)]
    for a, b in zip(*runs):
        assert a.energy == b.energy
        assert np.array_equal(a.doublet[0], b.doublet[0])


def test_truncation_warning_when_too_few_levels():
    grid = default_grid(P3, SECTOR_P, n_points=200)
    with pytest.warns(TruncationWarning):
        pairs = solve_bound_levels(P3, SECTOR_P, grid, count=20)
    assert 0 < len(pairs) < 20
    energies = [p.energy for p in pairs]
    assert energies == sorted(energies)


def test_free_limit_has_no_bound_states():
    p = PhysParams(D=3, z_alpha=0.0, allow_free=True)
    sector = kappa_of(p, 0, 1)
    grid = make_grid(UNIFORM, 0.01, 30.0, 200)
    with pytest.warns(TruncationWarning):
        pairs = solve_bound_levels(p, sector, grid, count=2)
    assert pairs == []


def test_spurious_filter_can_reject_everything():
    grid = default_grid(P3, SECTOR_P, n_points=200)
    with pytest.raises(SpuriousSpectrumError):
        solve_bound_levels(P3, SECTOR_P, grid, spurious_threshold=-1.0)


def test_negative_count_is_rejected():
    grid = default_grid(P3, SECTOR_P, n_points=200)
    with pytest.raises(ValueError, match="count"):
        solve_bound_levels(P3, SECTOR_P, grid, count=-1)


def test_solve_spectrum_requires_hamiltonian():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    ident = build_radial_operator(P3, SECTOR_P, grid, IDENTITY)
    with pytest.raises(ValueError):
        solve_spectrum(ident)


def test_primitive_operators():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    n = grid.n_points
    ident = build_radial_operator(P3, SECTOR_P, grid, IDENTITY)
    assert np.array_equal(ident.matrix, np.eye(2 * n))
    pot = build_radial_operator(P3, SECTOR_P, grid, POTENTIAL)
    off_diag = pot.matrix - np.diag(np.diagonal(pot.matrix))
    assert np.count_nonzero(off_diag) == 0
    np.testing.assert_allclose(np.diagonal(pot.matrix)[:n],
                               -P3.z_alpha / grid.nodes, rtol=1e-14)
    der = build_radial_operator(P3, SECTOR_P, grid, DERIVATIVE)
    assert np.array_equal(der.matrix, -der.matrix.T)
    with pytest.raises(ValueError):
        build_radial_operator(P3, SECTOR_P, grid, "laplacian")


def test_compose_operators():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    ident = build_radial_operator(P3, SECTOR_P, grid, IDENTITY)
    pot = build_radial_operator(P3, SECTOR_P, grid, POTENTIAL)
    combo = compose_operators([2.0, -1.0], [ident, pot])
    assert np.array_equal(combo.matrix, 2.0 * ident.matrix - pot.matrix)
    assert combo.kind == radial.COMPOSITE
    other = build_radial_operator(P3, SECTOR_P, grid.refined(2), IDENTITY)
    with pytest.raises(ValueError):
        compose_operators([1.0, 1.0], [ident, other])


def test_layout_validation():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    with pytest.raises(ValueError):
        build_radial_hamiltonian(P3, SECTOR_P, grid, layout="diagonal")


def test_matrix_is_immutable():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    op = build_radial_hamiltonian(P3, SECTOR_P, grid)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


@pytest.mark.parametrize("sign,n_prime0", [(1, 0), (-1, 1)])
def test_convergence_study_is_second_order(sign, n_prime0):
    sector = kappa_of(P3, 0, sign)
    grids = [default_grid(P3, sector, n_points=n) for n in (100, 200, 400)]
    report = convergence_study(P3, sector, grids, count=2)
    assert report.n_points == (100, 200, 400)
    assert report.min_fitted_order >= 1.9
    for row in report.rows:
        assert row.label.n_prime == n_prime0 + row.level_index
        assert all(e > 0 for e in row.errors)
        assert all(3.5 < r < 4.5 for r in row.ratios)
        assert row.exact == analytic.energy(P3, row.label)


def test_convergence_study_requires_increasing_grids():
    grids = [default_grid(P3, SECTOR_P, n_points=n) for n in (400, 200)]
    with pytest.raises(ValueError):
        convergence_study(P3, SECTOR_P, grids)


def test_alternation_fraction_units():
    smooth = np.ones(50)
    ragged = np.cumprod(np.full(50, -1.0))
    assert radial._alternation_fraction(smooth) == 0.0
    assert radial._alternation_fraction(ragged) == 1.0


# Reference for the lazy window solve: the algorithm it replaced, which
# bisects and inverts every level in the window, filters them all, and
# re-solves the whole window on the doubled grid for the stability check.
# Tolerances are fixed from the dtype: bisection from another starting
# interval may end one ulp away, and inverse iteration over another subset
# of levels moves eigenvectors at roundoff.
ENERGY_ULPS = 4
DOUBLET_ATOL = 1e-12


def _reference_window(d, e, m):
    tiny = 1e-12 * m
    return eigh_tridiagonal(d, e, select="v", select_range=(tiny, m - tiny),
                            tol=2.0 * np.finfo(np.float64).tiny)


def _reference_solve(params, sector, grid, layout, count,
                     spurious_threshold=0.5, stability_tol=0.02):
    vals, vecs = _reference_window(
        *radial._sector_bands(params, sector, grid, layout), params.m)
    if vals.size == 0:
        warnings.warn(f"no bound levels in (0, m); requested {count}",
                      TruncationWarning)
        return []
    keep, doublets = [], []
    for j in range(vals.size):
        f, g = radial._split_doublet(layout, grid, vecs[:, j])
        alt = max(radial._alternation_fraction(f),
                  radial._alternation_fraction(g))
        if alt <= spurious_threshold:
            keep.append(j)
            doublets.append((f, g))
    if not keep:
        raise SpuriousSpectrumError("all candidates rejected")
    vals = vals[keep]
    ref_vals, _ = _reference_window(
        *radial._sector_bands(params, sector, grid.refined(2), layout),
        params.m)
    stable = [j for j, v in enumerate(vals)
              if ref_vals.size and np.min(np.abs(ref_vals - v))
              <= stability_tol * params.m]
    if not stable:
        raise SpuriousSpectrumError("no candidate persisted")
    if len(stable) < count:
        warnings.warn(f"only {len(stable)} of {count} requested levels "
                      "resolvable on this grid", TruncationWarning)
    w_f, w_g = radial._layout_weights(grid, layout)
    out = []
    for j in stable[:count]:
        f, g = doublets[j]
        norm = math.sqrt(w_f @ f**2 + w_g @ g**2)
        out.append((float(vals[j] / params.m), f / norm, g / norm))
    return out


def _solve_both(params, sector, grid, layout, count, **kwargs):
    runs = []
    for solve in (_reference_solve, solve_bound_levels):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            levels = solve(params, sector, grid, layout=layout, count=count,
                           **kwargs)
        runs.append((levels, [str(w.message) for w in caught
                              if w.category is TruncationWarning]))
    return runs


def _assert_matches_reference(ref, ref_warned, got, got_warned):
    assert len(got) == len(ref)
    assert got_warned == ref_warned
    for (energy, f, g), pair in zip(ref, got):
        assert abs(pair.energy - energy) <= ENERGY_ULPS * np.spacing(energy)
        assert np.max(np.abs(pair.doublet[0] - f)) <= DOUBLET_ATOL
        assert np.max(np.abs(pair.doublet[1] - g)) <= DOUBLET_ATOL


@pytest.mark.parametrize("D", range(2, 7))
@pytest.mark.parametrize("l", range(3))
def test_lazy_window_solve_matches_reference(D, l):
    p = PhysParams(D=D, z_alpha=0.2 * (D - 1))
    for sign, layout, scheme in itertools.product(
            (1, -1), (STANDARD, SWAPPED), (UNIFORM, LOG_UNIFORM)):
        sector = kappa_of(p, l, sign)
        grid = default_grid(p, sector, n_points=150, scheme=scheme)
        window = _reference_window(
            *radial._sector_bands(p, sector, grid, layout), p.m)[0].size
        for count in (1, 3, window + 2):
            (ref, ref_warned), (got, got_warned) = _solve_both(
                p, sector, grid, layout, count)
            _assert_matches_reference(ref, ref_warned, got, got_warned)


def _reject_first_candidate(monkeypatch):
    # The filter sees candidates lowest first, F before G, in both solvers:
    # failing its first call rejects the lowest window level.
    calls = itertools.count()
    original = radial._alternation_fraction
    monkeypatch.setattr(radial, "_alternation_fraction",
                        lambda u: 1.0 if next(calls) == 0 else original(u))


@pytest.mark.parametrize("count", [1, 3])
def test_rejection_extends_past_requested_levels(monkeypatch, count):
    grid = default_grid(P3, SECTOR_P, n_points=200)
    runs = []
    for solve in (_reference_solve, solve_bound_levels):
        _reject_first_candidate(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs.append(solve(P3, SECTOR_P, grid, layout=STANDARD,
                              count=count))
    ref, got = runs
    _assert_matches_reference(ref, [], got, [])
    # The ground state was rejected, so the lowest kept level is n' = 1.
    assert abs(got[0].energy - FIRST_EXCITED) < 1e-4


@pytest.mark.parametrize("tol", [1e-12, 1e-300])
def test_tiny_stability_tol_rejects_everything(tol):
    # Levels move by ~1e-6 m under grid doubling; 1e-300 m is below one
    # ulp of every level, so its count interval is empty.
    grid = default_grid(P3, SECTOR_P, n_points=200)
    for solve in (_reference_solve, solve_bound_levels):
        with pytest.raises(SpuriousSpectrumError, match="persisted"):
            solve(P3, SECTOR_P, grid, layout=STANDARD, count=3,
                  stability_tol=tol)
