"""Staggered-grid radial Hamiltonians and the pollution-free eigensolver."""

import importlib.util
import itertools
import math
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from susyh import analytic, radial, susy
from susyh.core import PhysParams, default_grid, kappa_of, make_grid
from susyh.errors import GridError, SpuriousSpectrumError
from susyh.radial import (STANDARD, SWAPPED, TruncationWarning,
                          build_radial_hamiltonian, convergence_study,
                          solve_bound_levels, solve_spectrum)

P3 = PhysParams(D=3, z_alpha=0.5)
SECTOR_P = kappa_of(P3, 0, 1)
SECTOR_M = kappa_of(P3, 0, -1)

# The advice every near-critical GridError ends with: the wall is not a
# user setting, the coupling is.
ZALPHA_HINT = r"use a smaller z_alpha \(--zalpha\)"


def _walled_grid(p, sector, wall, n_points=800):
    """default_grid's box with the inner wall at wall * u instead of
    10^(-3/s) * u."""
    unit = sector.abs_kappa / (p.z_alpha * p.m)
    return make_grid(wall * unit, 60.0 * unit, n_points)


GROUND = math.sqrt(3) / 2
FIRST_EXCITED = 0.9659258262890683


def test_log_grid_layout():
    g = make_grid(1e-5, 60.0, 128)
    t = np.log(g.nodes)
    np.testing.assert_allclose(np.diff(t), g.step, rtol=1e-10)
    np.testing.assert_allclose(np.log(g.nodes / g.nodes_small), g.step / 2,
                               rtol=1e-10)
    for w in (g.weights, g.weights_small):
        assert np.all(w > 0)
        assert math.isclose(w.sum(), 60.0 - 1e-5, rel_tol=1e-13)


def test_refined_grid():
    g = make_grid(1e-5, 60.0, 100)
    f = g.refined()
    assert f.n_points == 200
    assert (f.r_min, f.r_max) == (g.r_min, g.r_max)
    assert 0.49 < f.step / g.step < 0.51


@pytest.mark.parametrize("kwargs", [
    dict(r_min=0.0, r_max=10.0, n_points=32),
    dict(r_min=10.0, r_max=1.0, n_points=32),
    dict(r_min=1e-3, r_max=10.0, n_points=4),
    dict(r_min=1e-3, r_max=math.inf, n_points=32),
])
def test_grid_validation(kwargs):
    # The bounds are checked before any logarithm is taken, so no bare
    # "math domain error" escapes.
    message = ("n_points must be >= 8" if kwargs["n_points"] < 8
               else "need 0 < r_min < r_max < inf")
    with pytest.raises(ValueError, match=message):
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
    with pytest.raises(GridError, match="underflowed.*" + ZALPHA_HINT):
        default_grid(p, kappa_of(p, 0, 1))


def test_default_grid_r_max_inside_the_wall_is_typed():
    # The wall is 1e-6 u = 2e-6 here; make_grid's ValueError names no flag.
    for r_max in (1e-9, 2e-6):
        with pytest.raises(GridError, match=r"use a larger r_max \(--r-max\)"):
            default_grid(P3, SECTOR_P, 100, r_max=r_max)


def test_default_grid_scales_with_sector():
    g = default_grid(P3, SECTOR_P, n_points=100)
    unit = SECTOR_P.abs_kappa / (P3.z_alpha * P3.m)
    assert g.r_max == 60.0 * unit
    assert default_grid(P3, SECTOR_P, 100, r_max=123.4).r_max == 123.4
    assert g.r_min < 1e-5 * unit


@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
@pytest.mark.parametrize("sign", [1, -1])
def test_hamiltonian_exactly_symmetric(layout, sign):
    sector = kappa_of(P3, 0, sign)
    grid = default_grid(P3, sector, n_points=60)
    op = build_radial_hamiltonian(P3, sector, grid, layout=layout)
    assert np.array_equal(op.matrix, op.matrix.T)


# --- References: the dense-matrix routes that the band assembly replaced,
# kept here to pin it. ------------------------------------------------------

def _interleaved_bands(op):
    """Diagonal and off-diagonal of op.matrix in position order."""
    n = op.grid.n_points
    m = op.matrix
    d = np.empty(2 * n)
    e = np.empty(2 * n - 1)
    ur = m[:n, n:]
    if op.layout == STANDARD:
        # Position order G_1, F_1, G_2, F_2, ...
        d[0::2] = np.diagonal(m[n:, n:])
        d[1::2] = np.diagonal(m[:n, :n])
        e[1::2] = np.diagonal(ur, 1)
    else:
        # Position order F_1, G_1, F_2, G_2, ...
        d[0::2] = np.diagonal(m[:n, :n])
        d[1::2] = np.diagonal(m[n:, n:])
        e[1::2] = np.diagonal(ur, -1)
    e[0::2] = np.diagonal(ur)
    return d, e


def _cross_block(grid, kappa):
    """Dense matrix of the d/dr + kappa/r stencil from nodes_small to nodes
    rows; the sample above r_max is dropped (Dirichlet)."""
    n = grid.n_points
    lo, up = radial._cross_vectors(grid, kappa)
    c = np.zeros((n, n))
    idx = np.arange(n)
    c[idx, idx] = lo
    c[idx[:-1], idx[:-1] + 1] = up[:-1]
    return c


def test_banded_assembly_matches_dense():
    # The O(n) band path must produce the same floats as extracting bands
    # from the assembled matrix, for both layouts.
    for layout, sector in ((STANDARD, SECTOR_P), (SWAPPED, SECTOR_M)):
        grid = default_grid(P3, SECTOR_P, n_points=50)
        op = build_radial_hamiltonian(P3, sector, grid, layout=layout)
        d_ref, e_ref = _interleaved_bands(op)
        d, e = radial._sector_bands(P3, sector, grid, layout)
        assert np.array_equal(d, d_ref)
        assert np.array_equal(e, e_ref)


def _dense_hamiltonian(params, sector, grid, layout):
    """Reference: the dense assembly that the CSR sector operator replaced."""
    n = grid.n_points
    if layout == STANDARD:
        r_f, r_g = grid.nodes, grid.nodes_small
        cross = _cross_block(grid, sector.kappa)
    else:
        r_f, r_g = grid.nodes_small, grid.nodes
        cross = -_cross_block(grid, -sector.kappa).T
    mat = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    mat[idx, idx] = params.m - params.z_alpha / r_f
    mat[n + idx, n + idx] = -params.m - params.z_alpha / r_g
    mat[:n, n:] = cross
    mat[n:, :n] = cross.T
    return mat


def test_sector_csr_matches_dense_assembly():
    # Same floats entry by entry (the old swapped assembly negated its zeros
    # to -0.0, which compare equal); at most 3 stored entries per row.
    for D, l, sign, layout in itertools.product(
            (2, 3, 5), (0, 1), (1, -1), (STANDARD, SWAPPED)):
        params = PhysParams(D=D, z_alpha=0.4 if D == 2 else 0.5)
        sector = kappa_of(params, l, sign)
        grid = default_grid(params, sector, n_points=70)
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
    # STANDARD layout: F on grid.nodes, G on grid.nodes_small.
    norm = grid.weights @ F**2 + grid.weights_small @ G**2
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
    p = PhysParams(D=3, z_alpha=1e-7)
    sector = kappa_of(p, 0, 1)
    grid = make_grid(0.01, 30.0, 200)
    with pytest.warns(TruncationWarning):
        pairs = solve_bound_levels(p, sector, grid, count=2)
    assert pairs == []


def test_spurious_filter_can_reject_everything(monkeypatch):
    grid = default_grid(P3, SECTOR_P, n_points=200)
    monkeypatch.setattr(radial, "SPURIOUS_THRESHOLD", -1.0)
    with pytest.raises(SpuriousSpectrumError):
        solve_bound_levels(P3, SECTOR_P, grid)


def test_negative_count_is_rejected():
    grid = default_grid(P3, SECTOR_P, n_points=200)
    with pytest.raises(ValueError, match="count"):
        solve_bound_levels(P3, SECTOR_P, grid, count=-1)


def test_negative_count_is_rejected_before_the_bands():
    # D = 2, Z alpha = 0.4999: the default grid's bands overflow bisection
    # (GridError), but a bad count is named first, without building them.
    p = PhysParams(D=2, z_alpha=0.4999)
    sector = kappa_of(p, 0, 1)
    grid = default_grid(p, sector)
    with pytest.raises(GridError):
        radial._sector_bands(p, sector, grid, STANDARD)
    with pytest.raises(ValueError, match="count must be >= 0"):
        solve_bound_levels(p, sector, grid, count=-1)


def test_layout_validation():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    with pytest.raises(ValueError):
        build_radial_hamiltonian(P3, SECTOR_P, grid, layout="diagonal")
    csr = radial._sector_csr(P3, SECTOR_P, grid)
    with pytest.raises(ValueError, match="layout"):
        radial.RadialOperator(P3, SECTOR_P, grid, csr, layout="diagonal")
    with pytest.raises(ValueError, match="shape"):
        radial.RadialOperator(P3, SECTOR_P, grid, csr[:-1])


def test_matrix_is_immutable():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    op = build_radial_hamiltonian(P3, SECTOR_P, grid)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 1.0


def test_operator_stores_csr_and_derives_matrix():
    grid = default_grid(P3, SECTOR_P, n_points=60)
    op = build_radial_hamiltonian(P3, SECTOR_P, grid)
    assert "matrix" not in vars(op)
    assert op.csr.format == "csr" and op.csr.nnz == 6 * 60 - 2
    assert np.array_equal(op.matrix, op.csr.toarray())
    assert op.matrix is op.matrix
    with pytest.raises(ValueError):
        op.csr.data[0] = 1.0


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


@pytest.mark.parametrize("family", [(400,), ()])
def test_convergence_study_needs_two_grids(family):
    # One grid gives no ratio and an order fitted to a single point.
    grids = [default_grid(P3, SECTOR_P, n_points=n) for n in family]
    with pytest.raises(ValueError, match="increasing n_points"):
        convergence_study(P3, SECTOR_P, grids)


# The kernel study's residuals at D = 3, Z alpha = 0.5, |kappa| = 1.
KERNEL_NS = (200, 400, 800, 1600)
KERNEL_RESIDUALS = (0.0009027507927959475, 0.00022693299208040177,
                    5.6882498321466294e-05, 1.4238871603698372e-05)


@pytest.mark.parametrize("as_array", [False, True])
def test_refinement_is_the_inline_rule(as_array):
    values = KERNEL_RESIDUALS
    if as_array:
        values = np.array(values)  # as convergence_study passes its errors
    ratios, order = radial.refinement(KERNEL_NS, values)
    assert ratios == tuple(a / b for a, b in zip(KERNEL_RESIDUALS,
                                                  KERNEL_RESIDUALS[1:]))
    assert all(type(r) is float for r in ratios)
    slope = np.polyfit(np.log(KERNEL_NS), np.log(KERNEL_RESIDUALS), 1)[0]
    assert order == -float(slope) and type(order) is float


def test_refinement_of_a_zero_value_is_inf():
    for values in ((1e-3, 0.0, 1e-5), (0.0, 0.0), np.array([1e-4, 0.0])):
        ratios, order = radial.refinement((200, 400, 800)[:len(values)],
                                          values)
        assert ratios == (math.inf,) * (len(values) - 1)
        assert order == math.inf


@pytest.mark.parametrize("family", [(), (200,), (200, 200), (400, 200)])
def test_check_family_rejects_degenerate_family(family):
    with pytest.raises(ValueError, match="increasing n_points"):
        radial.check_family(family)
    radial.check_family((200, 400))


def test_alternation_fraction_units():
    smooth = np.ones(50)
    ragged = np.cumprod(np.full(50, -1.0))
    assert radial._alternation_fraction(smooth) == 0.0
    assert radial._alternation_fraction(ragged) == 1.0


# Reference for the lazy window solve: the algorithm it replaced, which
# bisects and inverts every level in the window, filters them all, and
# re-solves the whole window on the doubled grid for the stability check.
# The energies are bitwise those of the whole-window bisection
# (_window_levels); inverse iteration over another subset of levels moves
# eigenvectors at roundoff, so the doublets get a tolerance.
ENERGY_ULPS = 0
DOUBLET_ATOL = 1e-12


def _reference_window(d, e, m):
    tiny = 1e-12 * m
    return eigh_tridiagonal(d, e, select="v", select_range=(tiny, m - tiny),
                            tol=2.0 * np.finfo(np.float64).tiny)


def _reference_solve(params, sector, grid, layout, count):
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
        if alt <= radial.SPURIOUS_THRESHOLD:
            keep.append(j)
            doublets.append((f, g))
    if not keep:
        raise SpuriousSpectrumError("all candidates rejected")
    vals = vals[keep]
    ref_vals, _ = _reference_window(
        *radial._sector_bands(params, sector, grid.refined(), layout),
        params.m)
    stable = [j for j, v in enumerate(vals)
              if ref_vals.size and np.min(np.abs(ref_vals - v))
              <= radial.STABILITY_TOL * params.m]
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


def _solve_both(params, sector, grid, layout, count):
    runs = []
    for solve in (_reference_solve, solve_bound_levels):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            levels = solve(params, sector, grid, layout=layout, count=count)
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
    for sign, layout in itertools.product((1, -1), (STANDARD, SWAPPED)):
        sector = kappa_of(p, l, sign)
        grid = default_grid(p, sector, n_points=150)
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


def _reject_first_by_stability(monkeypatch, grid):
    # A doubled grid that lacks the level nearest the lowest candidate: on
    # its bands (4n rows; the window solve counts on the sector's own, 2n)
    # the count is the real one less one wherever the interval holds that
    # level, so the lowest candidate has no level within STABILITY_TOL m.
    lowest = _whole_window(*radial._sector_bands(P3, SECTOR_P, grid, STANDARD),
                           P3.m)[0]
    fine = _whole_window(*radial._sector_bands(P3, SECTOR_P, grid.refined(),
                                               STANDARD), P3.m)
    lost = fine[np.argmin(np.abs(fine - lowest))]
    original = radial._count_in

    def count_in(d, e, lo, hi):
        got = original(d, e, lo, hi)
        if d.size == 4 * grid.n_points and lo < lost <= hi:
            return got - 1
        return got

    monkeypatch.setattr(radial, "_count_in", count_in)


@pytest.mark.parametrize("count", [1, 3])
def test_stability_rejection_extends_past_requested_levels(monkeypatch, count):
    # On log grids no level of the reference sweep fails the stability
    # check, so a rejection is forced; it must keep the same levels as a
    # rejection by the alternation filter.
    grid = default_grid(P3, SECTOR_P, n_points=200)
    runs = []
    for reject in (_reject_first_candidate,
                   lambda patch: _reject_first_by_stability(patch, grid)):
        with monkeypatch.context() as patch, warnings.catch_warnings():
            warnings.simplefilter("error")
            reject(patch)
            runs.append(solve_bound_levels(P3, SECTOR_P, grid, count=count))
    by_filter, by_stability = runs
    assert len(by_stability) == len(by_filter) == count
    for got, ref in zip(by_stability, by_filter):
        assert got.energy == ref.energy
        assert np.array_equal(got.doublet[0], ref.doublet[0])
        assert np.array_equal(got.doublet[1], ref.doublet[1])
    assert abs(by_stability[0].energy - FIRST_EXCITED) < 1e-4


@pytest.mark.parametrize("tol", [1e-12, 1e-300])
def test_tiny_stability_tol_rejects_everything(monkeypatch, tol):
    # Levels move by ~1e-6 m under grid doubling; 1e-300 m is below one
    # ulp of every level, so its count interval is empty.
    grid = default_grid(P3, SECTOR_P, n_points=200)
    monkeypatch.setattr(radial, "STABILITY_TOL", tol)
    for solve in (_reference_solve, solve_bound_levels):
        with pytest.raises(SpuriousSpectrumError, match="persisted"):
            solve(P3, SECTOR_P, grid, layout=STANDARD, count=3)


def test_unpersisted_levels_name_the_grid_flags(monkeypatch):
    grid = default_grid(P3, SECTOR_P, n_points=200)
    monkeypatch.setattr(radial, "STABILITY_TOL", 1e-300)
    with pytest.raises(SpuriousSpectrumError,
                       match=r"^no candidate persisted under grid doubling; "
                       r"use a larger r_max \(--r-max\) or more points "
                       r"\(--grid-points\)$"):
        solve_bound_levels(P3, SECTOR_P, grid)


# --- _window_levels: bitwise the values of whole-window bisection. ---

def _sector_domain():
    """bench/workloads.py's sector_domain(): the `spectrum` benchmark's."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads.sector_domain()


# Tier-1 runs n = 150 (and the near-critical walls at 150 and 800);
# SUSYH_BISECTION_SWEEP=1 (a CI step) adds 40, 800 and 3200 to both, and the
# n = 1e5 sectors whose seeded pass needs its retry.  From n = 150 up the
# closed-form seeds give every sector's lowest three levels without the
# whole-window pass; at n = 40 they often stray past a neighbour.
SWEEP = bool(os.environ.get("SUSYH_BISECTION_SWEEP"))
WINDOW_POINTS = (40, 150, 800, 3200) if SWEEP else (150,)
NEAR_CRITICAL_POINTS = sorted({150, 800, *WINDOW_POINTS})


def _whole_window(d, e, m):
    return eigh_tridiagonal(d, e, eigvals_only=True, select="v",
                            select_range=radial._window_bounds(m),
                            lapack_driver="stebz", tol=radial._FULL_PRECISION)


# The seeds solve_bound_levels and susy._bound_columns pass: level k's
# closed-form energy.
_seed_of = radial._closed_form_seed


def _whole_pass(m):
    return (*radial._window_bounds(m), radial._FULL_PRECISION)


def _record_bisections(patch):
    """Make _bisect record its calls as {(lo, hi, tol): their result}."""
    passes = {}
    original = radial._bisect

    def recorded(d, e, *args):
        passes[args] = original(d, e, *args)
        return passes[args]

    patch.setattr(radial, "_bisect", recorded)
    return passes


def _assert_seeded_path(passes, count):
    # No bisection but Sturm counts (a tolerance as wide as the interval)
    # and one full-precision pass per wanted level, on a node that holds
    # that level alone.
    full = [got[0] for (lo, hi, tol), got in passes.items()
            if tol == radial._FULL_PRECISION]
    assert full == [1] * count
    assert all(tol in (hi - lo, radial._FULL_PRECISION)
               for lo, hi, tol in passes)


def _assert_window_levels_bitwise(monkeypatch, d, e, m, seeds,
                                  counts=(1, 2, 3, 4, 9), ref=None,
                                  seeded_up_to=0, fallback=False):
    # With each of the seeds and each count, and the window size + 2, the
    # values of one whole-window pass.  Without a seed (None) that pass is
    # the only bisection.  With one, no other full-precision pass holds more
    # than one level, and none a level past the count; counts up to
    # seeded_up_to make no whole-window pass, and with fallback set every
    # count makes one unless the window is empty.
    ref = _whole_window(d, e, m) if ref is None else ref
    whole = _whole_pass(m)
    for seed, count in itertools.product(seeds, (*counts, ref.size + 2)):
        with monkeypatch.context() as patch:
            passes = _record_bisections(patch)
            size, values = radial._window_levels(d, e, m, count, seed)
        assert size == ref.size
        assert np.array_equal(values, ref[:count])
        if seed is None:
            assert list(passes) == [whole]
            continue
        held = [got[0] for args, got in passes.items()
                if args[2] == radial._FULL_PRECISION and args != whole]
        assert max(held, default=0) <= 1
        assert sum(held) <= count
        if count <= seeded_up_to:
            assert whole not in passes
        if fallback and ref.size:
            assert whole in passes


@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
@pytest.mark.parametrize("n", WINDOW_POINTS)
def test_window_levels_equal_whole_window_bisection(monkeypatch, n, layout):
    # Count 9 and the whole window ask for levels that the box holds away
    # from their closed forms, so the seeded pass falls back there in all
    # but 2 of the 142 sectors at n = 150.
    for D, l, sign, z_alpha in _sector_domain():
        p = PhysParams(D=D, z_alpha=z_alpha)
        sector = kappa_of(p, l, sign)
        grid = default_grid(p, sector, n_points=n)
        bands = radial._sector_bands(p, sector, grid, layout)
        _assert_window_levels_bitwise(monkeypatch, *bands, p.m,
                                      (_seed_of(p, sector),),
                                      seeded_up_to=3 if n >= 150 else 0)


def test_window_levels_from_seeds_at_n_40(monkeypatch):
    # At n = 40 the seeds often stray past a neighbouring level, and the
    # pass falls back to the whole window, with the same floats.  Tier-1
    # takes every fourth sector; the sweep runs them all.
    for D, l, sign, z_alpha in _sector_domain()[::4]:
        p = PhysParams(D=D, z_alpha=z_alpha)
        sector = kappa_of(p, l, sign)
        grid = default_grid(p, sector, n_points=40)
        for layout in (STANDARD, SWAPPED):
            _assert_window_levels_bitwise(
                monkeypatch, *radial._sector_bands(p, sector, grid, layout),
                p.m, (_seed_of(p, sector),))


@pytest.mark.parametrize("z_alpha,wall", [(0.4996, 1e-100), (0.4999, 1e-153)])
@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
def test_window_levels_near_critical(monkeypatch, z_alpha, wall, layout):
    # Near-wall rows raise dstebz's pivot floor tiny * max e^2 to 1e-107 m
    # and, at Z alpha = 0.4999 and n = 800, to 0.05 m.  The seeded pass
    # gives up here (the roundoff of T x near the wall holds the residual
    # up), and the whole window is bisected.
    p = PhysParams(D=2, z_alpha=z_alpha)
    for sign, n in itertools.product((1, -1), NEAR_CRITICAL_POINTS):
        sector = kappa_of(p, 0, sign)
        grid = _walled_grid(p, sector, wall, n)
        _assert_window_levels_bitwise(
            monkeypatch, *radial._sector_bands(p, sector, grid, layout), p.m,
            (_seed_of(p, sector),), fallback=True)


def test_window_levels_fall_back_when_a_node_is_lost(monkeypatch):
    # A bisection that does not stop in the replayed nodes (another LAPACK)
    # gets the whole-window pass instead; so does a call without seeds.
    monkeypatch.setattr(radial, "_node_of",
                        lambda lo, hi, a, b, tol, pivmin:
                        (a, np.nextafter(b, a)))
    grid = default_grid(P3, SECTOR_P, n_points=150)
    _assert_window_levels_bitwise(
        monkeypatch, *radial._sector_bands(P3, SECTOR_P, grid, STANDARD),
        P3.m, (None, _seed_of(P3, SECTOR_P)), fallback=True)


def test_window_levels_jump_past_the_coarse_nodes(monkeypatch):
    # At n = 3000 a bisection of the whole window at 1e-2 m would stop in
    # nodes 7.8e-3 m wide: for kappa = 1 the third and fourth levels share
    # one, and for kappa = -1 two wanted levels do.  The seeded pass makes
    # no such pass: each level jumps from its closed form straight to a node
    # under 1e-12 m wide and gets one full-precision bisection there.
    for sector, counts in ((SECTOR_P, (1, 2, 3, 4)), (SECTOR_M, (3, 4))):
        grid = default_grid(P3, sector, n_points=3000)
        d, e = radial._sector_bands(P3, sector, grid, STANDARD)
        ref = _whole_window(d, e, P3.m)
        for count in counts:
            with monkeypatch.context() as patch:
                passes = _record_bisections(patch)
                size, values = radial._window_levels(d, e, P3.m, count,
                                                     _seed_of(P3, sector))
            assert size == ref.size > count
            assert np.array_equal(values, ref[:count])
            _assert_seeded_path(passes, count)
            assert all(hi - lo < 1e-12 * P3.m for lo, hi, tol in passes
                       if tol == radial._FULL_PRECISION)


def _misplaced_quotient(where):
    """A _rayleigh stand-in whose theta misses the level it is asked for."""
    original = radial._rayleigh

    def rayleigh(d, e, a, b, theta, widen=0.0):
        if where == "above":
            return b + (b - a), 0.0
        if where == "below":
            return a - (b - a), 0.0
        got = original(d, e, a, b, theta, widen)
        if got is None:
            return None
        theta, delta = got
        ulps = 4096 if where == "ulps above" else -4096
        return theta + ulps * np.spacing(theta), delta

    return rayleigh


@pytest.mark.parametrize("where", ["above", "below", "ulps above",
                                   "ulps below"])
def test_window_levels_fall_back_when_the_jump_misses(monkeypatch, where):
    # A Rayleigh quotient outside its interval, or thousands of ulps off with
    # its bound, gives a node that does not hold the level: a count rejects
    # it, or the node is bisected and holds no level, on both tries, and the
    # whole window is bisected instead.
    grid = default_grid(P3, SECTOR_P, n_points=150)
    d, e = radial._sector_bands(P3, SECTOR_P, grid, STANDARD)
    landed = []
    original = radial._one_level

    def one_level(*args):
        landed.append(original(*args))
        return landed[-1]

    monkeypatch.setattr(radial, "_rayleigh", _misplaced_quotient(where))
    monkeypatch.setattr(radial, "_one_level", one_level)
    _assert_window_levels_bitwise(monkeypatch, d, e, P3.m,
                                  (_seed_of(P3, SECTOR_P),), fallback=True)
    assert all(v is None for v in landed)
    assert bool(landed) == (where == "ulps above")


def _stray(seed, how):
    if how == "ulps above":
        return lambda k: seed(k) + 4096 * np.spacing(seed(k))
    if how == "ulps below":
        return lambda k: seed(k) - 4096 * np.spacing(seed(k))
    if how == "outside the window":
        return lambda k: 2.0 * seed(k)
    return lambda k: seed(k + 1)  # the next level's


@pytest.mark.parametrize("how,seeded", [
    ("ulps above", True), ("ulps below", True),
    ("outside the window", False), ("the next level's", False)])
def test_window_levels_from_stray_seeds(monkeypatch, how, seeded):
    # A seed thousands of ulps off still starts the iteration close enough;
    # a seed outside the window, or one for the wrong level, is caught by
    # the interval or the counts, and the whole window gives the floats.
    grid = default_grid(P3, SECTOR_P, n_points=150)
    d, e = radial._sector_bands(P3, SECTOR_P, grid, STANDARD)
    _assert_window_levels_bitwise(monkeypatch, d, e, P3.m,
                                  (_stray(_seed_of(P3, SECTOR_P), how),),
                                  seeded_up_to=3 if seeded else 0,
                                  fallback=not seeded)


@pytest.mark.parametrize("z_alpha", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
def test_window_levels_fall_back_at_the_box_floor(monkeypatch, z_alpha,
                                                  layout):
    # D = 2, l = 0, kappa < 0: the 60 u box pulls level 3 away from its
    # closed form, past the neighbouring seed, so count 4 falls back to the
    # whole window, with the same floats.
    p = PhysParams(D=2, z_alpha=z_alpha)
    sector = kappa_of(p, 0, -1)
    grid = default_grid(p, sector, n_points=150)
    d, e = radial._sector_bands(p, sector, grid, layout)
    with monkeypatch.context() as patch:
        passes = _record_bisections(patch)
        _, values = radial._window_levels(d, e, p.m, 4, _seed_of(p, sector))
    assert np.array_equal(values, _whole_window(d, e, p.m)[:4])
    assert _whole_pass(p.m) in passes


@pytest.mark.parametrize("sign", [1, -1])
def test_no_jump_at_the_residual_floor(monkeypatch, sign):
    # At D = 2, Z alpha = 0.49 (s = 0.099, wall 7e-31 u) the roundoff of T x
    # near the wall holds r near 1e-2, far above what the Kato-Temple bound
    # needs, so the top level's iteration gives up after one solve.  The
    # retry would start it from the same seeds and give up again, so it is
    # not made: the seeded pass ends before any bisection, and the whole
    # window is bisected once.
    p = PhysParams(D=2, z_alpha=0.49)
    sector = kappa_of(p, 0, sign)
    grid = default_grid(p, sector, n_points=20000)
    d, e = radial._sector_bands(p, sector, grid, STANDARD)
    events = []
    rayleigh, gtsv, bisect = radial._rayleigh, radial._GTSV, radial._bisect

    def logged(name, fn):
        def call(*args):
            got = fn(*args)
            events.append((name, got, args[2:]))
            return got
        return call

    monkeypatch.setattr(radial, "_rayleigh", logged("rayleigh", rayleigh))
    monkeypatch.setattr(radial, "_GTSV", logged("solve", gtsv))
    monkeypatch.setattr(radial, "_bisect", logged("bisect", bisect))
    _, values = radial._window_levels(d, e, p.m, 4, _seed_of(p, sector))
    assert np.array_equal(values, _whole_window(d, e, p.m)[:4])
    assert [name for name, *_ in events] == [
        "bisect", "solve", "rayleigh", "bisect"]
    assert all(got is None for name, got, _ in events if name == "rayleigh")
    assert events[0][2][-1] != radial._FULL_PRECISION  # the window's count
    assert events[-1][2] == _whole_pass(p.m)


# At n = 1e5 the Sturm count's roundoff puts a level of these sectors just
# outside the node of its Kato-Temple bound; the retry's widened bound finds
# it.  Tier-1 runs the `spectrum --D 3` default sector, the sweep all five.
RETRY_SECTORS = [(3, 0, 1, 0.5)] + ([(2, 0, 1, 0.2), (2, 0, 1, 0.3),
                                     (4, 0, 1, 0.5), (5, 2, 1, 0.2)]
                                    if SWEEP else [])


@pytest.mark.parametrize("D,l,sign,z_alpha", RETRY_SECTORS)
def test_window_levels_seeded_at_n_1e5_on_the_retry(monkeypatch, D, l, sign,
                                                     z_alpha):
    p = PhysParams(D=D, z_alpha=z_alpha)
    sector = kappa_of(p, l, sign)
    grid = default_grid(p, sector, n_points=100000)
    d, e = radial._sector_bands(p, sector, grid, STANDARD)
    tries, landed = [], []
    seeded_levels, one_level = radial._seeded_levels, radial._one_level

    def one_try(*args):
        passes.clear()  # keep the bisections of the last try
        landed.append([])
        tries.append(seeded_levels(*args))
        return tries[-1]

    def level(*args):
        landed[-1].append(one_level(*args))
        return landed[-1][-1]

    with monkeypatch.context() as patch:
        passes = _record_bisections(patch)
        patch.setattr(radial, "_seeded_levels", one_try)
        patch.setattr(radial, "_one_level", level)
        _, values = radial._window_levels(d, e, p.m, 3, _seed_of(p, sector))
    assert [got is None for got in tries] == [True, False]
    # The first try stops at the node it refuses: no node above it is
    # bisected.
    assert landed[0][-1] is None and None not in landed[0][:-1]
    _assert_seeded_path(passes, 3)
    assert np.array_equal(values, _whole_window(d, e, p.m)[:3])


def test_converged_node_gives_its_midpoint_after_one_count(monkeypatch):
    # A pivot floor wider than theta +- delta ends the descent in a node that
    # has converged.  The whole-window pass stops there, at its midpoint, so
    # one count that finds the level alone there gives it; stebz on the node
    # would split it once more, to another float.  (The floor is set by
    # hand: at the walls tried, down to the overflow boundary, the
    # iteration gives up first.)
    grid = default_grid(P3, SECTOR_P, n_points=150)
    d, e = radial._sector_bands(P3, SECTOR_P, grid, STANDARD)
    lo, hi = radial._window_bounds(P3.m)
    pivmin = 1e-9 * P3.m
    theta, delta = radial._rayleigh(d, e, lo, hi, GROUND * P3.m)
    a, b = radial._node_of(theta - delta, theta + delta, lo, hi,
                           radial._FULL_PRECISION, pivmin)
    assert radial._converged(a, b, radial._FULL_PRECISION, pivmin)
    assert a < _whole_window(d, e, P3.m)[0] <= b
    with monkeypatch.context() as patch:
        passes = _record_bisections(patch)
        assert radial._one_level(d, e, a, b, pivmin) == 0.5 * (a + b)
    assert list(passes) == [(a, b, b - a)]
    # The converged node above it holds no level.
    assert radial._one_level(d, e, b, 2 * b - a, pivmin) is None


def test_level_off_the_replayed_node_is_refused(monkeypatch):
    # The value stebz returns from a jump's node must be the midpoint of the
    # node that the replayed halving ends in; from a LAPACK whose bisection
    # differs it is another float, and the level is not taken.
    grid = default_grid(P3, SECTOR_P, n_points=150)
    d, e = radial._sector_bands(P3, SECTOR_P, grid, STANDARD)
    lo, hi = radial._window_bounds(P3.m)
    pivmin = np.finfo(np.float64).tiny * max(1.0, float(np.max(e * e)))
    theta, delta = radial._rayleigh(d, e, lo, hi, GROUND * P3.m)
    a, b = radial._node_of(theta - delta, theta + delta, lo, hi,
                           radial._FULL_PRECISION, pivmin)
    assert radial._one_level(d, e, a, b, pivmin) == \
        _whole_window(d, e, P3.m)[0]
    bisect = radial._bisect

    def shifted(*args):
        size, w = bisect(*args)
        return size, np.nextafter(w, 2.0)

    monkeypatch.setattr(radial, "_bisect", shifted)
    assert radial._one_level(d, e, a, b, pivmin) is None


def test_window_solve_leaves_the_bands_unchanged():
    # The bands go on to inverse iteration after bisection; gtsv factors
    # its arguments in place, so _rayleigh must hand it copies.
    grid = default_grid(P3, SECTOR_P, n_points=400)
    for layout, seed in itertools.product((STANDARD, SWAPPED),
                                          (None, _seed_of(P3, SECTOR_P))):
        d, e = radial._sector_bands(P3, SECTOR_P, grid, layout)
        d0, e0 = d.tobytes(), e.tobytes()
        for count in (1, 3, 100):
            _, values = radial._window_levels(d, e, P3.m, count, seed)
            radial._eigenvectors(d, e, values)
            assert d.tobytes() == d0 and e.tobytes() == e0


def test_all_levels_request_builds_one_seed_past_the_window(monkeypatch):
    # bench's tracer asks for count=10**6 to see the whole window: seeds are
    # built for the window's levels and one above, not for every count.
    grid = default_grid(P3, SECTOR_P, n_points=200)
    size = _whole_window(*radial._sector_bands(P3, SECTOR_P, grid, STANDARD),
                         P3.m).size
    calls = []
    energy = analytic.energy
    monkeypatch.setattr(analytic, "energy",
                        lambda *args: calls.append(args) or energy(*args))
    runs = []
    for count in (10**6, size):
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", TruncationWarning)
            runs.append(solve_bound_levels(P3, SECTOR_P, grid, count=count))
        assert 0 < len(calls) <= size + 1
    every, window = runs
    assert len(every) == len(window) > 0
    for got, ref in zip(every, window):
        assert got.energy == ref.energy
        assert np.array_equal(got.doublet[0], ref.doublet[0])
        assert np.array_equal(got.doublet[1], ref.doublet[1])


# --- The stability check: one count per run of overlapping intervals. ---

def _record_counts(patch):
    """Make _count_in record the size of the bands and the interval of
    each call."""
    calls = []
    original = radial._count_in

    def recorded(d, e, lo, hi):
        calls.append((d.size, lo, hi))
        return original(d, e, lo, hi)

    patch.setattr(radial, "_count_in", recorded)
    return calls


# Tier-1 runs n = 150 and 800; SUSYH_BISECTION_SWEEP=1 adds 2e4, the
# smallest size of the `spectrum` benchmark.
STABILITY_POINTS = (150, 800, 20000) if SWEEP else (150, 800)


@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
@pytest.mark.parametrize("n", STABILITY_POINTS)
def test_grouped_stability_counts_equal_one_count_per_interval(n, layout):
    # The lowest 1, 3 and 4 window levels of every sector as one batch of
    # candidates, with solve_bound_levels' intervals: a count over the
    # common part of each run decides as one count per interval does.
    for D, l, sign, z_alpha in _sector_domain():
        p = PhysParams(D=D, z_alpha=z_alpha)
        sector = kappa_of(p, l, sign)
        grid = default_grid(p, sector, n_points=n)
        _, vals = radial._window_levels(
            *radial._sector_bands(p, sector, grid, layout), p.m, 4,
            _seed_of(p, sector))
        fine = radial._sector_bands(p, sector, grid.refined(), layout)
        lo, hi = radial._window_bounds(p.m)
        tol = radial.STABILITY_TOL * p.m
        for count in (1, 3, 4):
            ends = [(max(lo, v - tol), min(hi, v + tol)) for v in vals[:count]]
            assert radial._held(*fine, ends) == [
                radial._count_in(*fine, a, b) > 0 for a, b in ends]


@pytest.mark.parametrize("levels,held", [
    ((0.34, 0.44), [True, True, True]),
    ((0.44,), [False, True, True]),
    ((0.34,), [True, False, False]),
    ((0.40,), [True, True, True]),
])
def test_run_without_a_common_level_is_counted_interval_by_interval(
        monkeypatch, levels, held):
    # Diagonal bands, whose eigenvalues are their entries (0.9 lies outside
    # every interval).  The intervals form one run with the common part
    # (0.37, 0.43]; only where that holds a level does one count decide
    # them all, and otherwise each is counted, so a level in some intervals
    # of the run but not in others is found where it lies.
    d = np.array([*levels, 0.9])
    ends = [(0.33, 0.43), (0.35, 0.45), (0.37, 0.47)]
    with monkeypatch.context() as patch:
        calls = _record_counts(patch)
        assert radial._held(d, np.zeros(d.size - 1), ends) == held
    common = (d.size, 0.37, 0.43)
    if 0.40 in levels:
        assert calls == [common]
    else:
        assert calls == [common, *((d.size, a, b) for a, b in ends)]


def test_disjoint_intervals_are_separate_runs(monkeypatch):
    # An empty interval (a >= b) holds nothing and ends its run; the
    # intervals after it start a new one.
    d = np.array([0.1, 0.5])
    ends = [(0.05, 0.15), (0.2, 0.2), (0.45, 0.55), (0.48, 0.6)]
    with monkeypatch.context() as patch:
        calls = _record_counts(patch)
        assert radial._held(d, np.zeros(1), ends) == [True, False, True, True]
    assert [(a, b) for _, a, b in calls] == [
        (0.05, 0.15), (0.2, 0.2), (0.48, 0.55)]


@pytest.mark.parametrize("z_alpha,runs", [(0.2, 1), (0.5, 2)])
def test_stability_check_counts_once_per_run(monkeypatch, z_alpha, runs):
    # D = 3, kappa = 1, count 3: at Z alpha = 0.2 the three levels lie within
    # 0.02 m of each other and their intervals form one run, so the solve
    # makes one count on the doubled grid's bands (4n rows); at 0.5 the
    # ground level's interval stands apart from the other two.
    p = PhysParams(D=3, z_alpha=z_alpha)
    sector = kappa_of(p, 0, 1)
    grid = default_grid(p, sector, n_points=200)
    with monkeypatch.context() as patch:
        calls = _record_counts(patch)
        pairs = solve_bound_levels(p, sector, grid, count=3)
    assert len(pairs) == 3
    assert sum(size == 4 * grid.n_points for size, _, _ in calls) == runs


# --- The band operator type: every operation against its dense form. ---

def _random_bands(rng, n, offsets):
    return radial.Bands(n, {k: rng.standard_normal(n) for k in offsets})


def _dense(bands):
    return radial._block_csr([[bands]]).toarray()


# Offsets past the edge (|k| >= n) hold no entries at all; the rest lose
# the rows whose column falls outside.
BAND_OFFSETS = [(-1, 0, 1), (-3, 2), (-8, -1, 4, 7), (0,), (5, -5, 1)]


@pytest.mark.parametrize("offsets", BAND_OFFSETS)
@pytest.mark.parametrize("n", [1, 2, 6])
def test_bands_match_dense(offsets, n):
    rng = np.random.default_rng(sum(offsets) + 10 * n)
    x = _random_bands(rng, n, offsets)
    y = _random_bands(rng, n, (-2, 0, 1, 6))
    dx, dy = _dense(x), _dense(y)
    for k, v in x.bands.items():
        rows = np.arange(max(0, -k), n - max(0, k))
        assert np.array_equal(v[rows], dx[rows, rows + k])
        assert not np.delete(v, rows).any()
    assert np.allclose(_dense(x @ y), dx @ dy, rtol=1e-14, atol=1e-14)
    assert np.array_equal(_dense(x.T), dx.T)
    assert np.array_equal(_dense(x + y), dx + dy)
    assert np.array_equal(_dense(x - y), dx - dy)
    assert np.array_equal(_dense(-x), -dx)
    assert np.array_equal(_dense(2.5 * x), 2.5 * dx)
    s = rng.standard_normal(n)
    assert np.array_equal(_dense(x.scale_rows(s)), s[:, None] * dx)


def test_bands_product_of_diagonals_is_exact():
    # One term per entry: a product with a diagonal is a plain scaling.
    rng = np.random.default_rng(7)
    x = _random_bands(rng, 9, (-2, 0, 3))
    s = rng.standard_normal(9)
    diag = radial.Bands(9, {0: s})
    assert np.array_equal(_dense(diag @ x), s[:, None] * _dense(x))
    assert np.array_equal(_dense(x @ diag), _dense(x) * s)


@pytest.mark.parametrize("n", [5, 40])
def test_bands_sign_symmetric_pair_sums_to_zero(n):
    # p = +-1 alternating anticommutes with odd-offset operators, so
    # X (Y p) and (X p) Y are made of the same floating-point products with
    # opposite signs; summed over offset pairs in one fixed order they
    # cancel exactly, offsets running off the edge included.
    rng = np.random.default_rng(n)
    x = _random_bands(rng, n, (-3, -1, 1, 5))
    y = _random_bands(rng, n, (-1, 1, 3, n + 1))
    p = radial.Bands(n, {0: np.where(np.arange(n) % 2, -1.0, 1.0)})
    total = x @ (y @ p) + (x @ p) @ y
    assert max(np.max(np.abs(v)) for v in total.bands.values()) == 0.0
    assert np.max(np.abs(_dense(x @ (y @ p)))) > 0.0


def test_block_csr_layout():
    rng = np.random.default_rng(3)
    ul = _random_bands(rng, 4, (-1, 0, 2))
    lr = _random_bands(rng, 4, (0, 1))
    ur = radial.Bands(4, {0: rng.standard_normal(4)})
    ll = _random_bands(rng, 4, (-2, 1, 5))
    csr = radial._block_csr([[ul, ur], [ll, lr]])
    assert csr.shape == (8, 8) and csr.has_sorted_indices
    ref = np.zeros((8, 8))
    ref[:4, :4], ref[:4, 4:] = _dense(ul), _dense(ur)
    ref[4:, :4], ref[4:, 4:] = _dense(ll), _dense(lr)
    assert np.array_equal(csr.toarray(), ref)


# --- Bisection overflow: stebz squares the off-diagonal. ---

def test_offdiagonal_overflow_boundary_is_typed():
    grid = default_grid(P3, SECTOR_P, n_points=20)
    edge = math.sqrt(np.finfo(np.float64).max)
    radial._check_offdiagonal(grid, np.array([1.0, -edge]))
    with pytest.raises(GridError, match="cannot handle; " + ZALPHA_HINT):
        radial._check_offdiagonal(grid, np.array([1.0]),
                                  np.array([-np.nextafter(edge, np.inf)]))


def test_near_critical_wall_overflow_is_typed():
    # D = 2, Z alpha = 0.4999: the default wall 10^(-3/s) sits at 1e-300,
    # where max |e| reaches 4.9e299.  A wall at 1e-152 (max |e| 1.5e152)
    # still bisects, though its eigenvectors are not finite (see the next
    # test); one at 1e-154 (1.4e154) is past the boundary.
    p = PhysParams(D=2, z_alpha=0.4999)
    sector = kappa_of(p, 0, 1)
    with pytest.raises(GridError, match="cannot handle; " + ZALPHA_HINT):
        solve_bound_levels(p, sector, default_grid(p, sector))
    grid = _walled_grid(p, sector, 1e-152)
    bands = radial._sector_bands(p, sector, grid, STANDARD)
    assert np.abs(bands[1]).max() < 1e153
    assert radial._window_levels(*bands, p.m, 0)[0] > 0
    with pytest.raises(GridError, match="non-finite.*" + ZALPHA_HINT):
        solve_bound_levels(p, sector, grid, count=1)
    grid = _walled_grid(p, sector, 1e-154)
    with pytest.raises(GridError, match=ZALPHA_HINT):
        radial._sector_bands(p, sector, grid, STANDARD)


@pytest.mark.parametrize("layout", [STANDARD, SWAPPED])
def test_hamiltonian_assembly_runs_the_overflow_guard(layout):
    # build_radial_hamiltonian (and so build_susy_block) refuses the bands
    # that bisection cannot take, exactly where _sector_bands does.
    p = PhysParams(D=2, z_alpha=0.4999)
    sector = kappa_of(p, 0, 1 if layout == STANDARD else -1)
    for wall in (1e-152, 1e-154, None):
        grid = (default_grid(p, sector) if wall is None
                else _walled_grid(p, sector, wall))
        try:
            radial._sector_bands(p, sector, grid, layout)
        except GridError:
            with pytest.raises(GridError, match=ZALPHA_HINT):
                build_radial_hamiltonian(p, sector, grid, layout=layout)
            assert wall != 1e-152
        else:
            build_radial_hamiltonian(p, sector, grid, layout=layout)
            assert wall == 1e-152


@pytest.mark.parametrize("n_points", [800, 8000])
def test_every_sector_assembly_runs_the_overflow_guard(n_points):
    # D = 2, Z alpha = 0.4999 with the wall at 1e-153 u: max |e| is 1.4e153
    # at n = 800, which bisects, and 2.1e154 at n = 8000, past the boundary.
    # The bands, the sector CSR and the primary A_mp all take their entries
    # from _sector_vectors, so they refuse the same grids.
    p = PhysParams(D=2, z_alpha=0.4999)
    sector = kappa_of(p, 0, 1)
    grid = _walled_grid(p, sector, 1e-153, n_points)
    assemblies = (
        lambda: radial._sector_bands(p, sector, grid, STANDARD),
        lambda: radial._sector_csr(p, sector, grid),
        lambda: susy._assemble_a_mp(p, sector.abs_kappa, grid, susy.ETA),
    )
    for assemble in assemblies:
        if n_points == 800:
            assemble()
        else:
            with pytest.raises(GridError, match="cannot handle; " + ZALPHA_HINT):
                assemble()


def test_non_finite_eigenvectors_are_typed():
    # D = 2, Z alpha = 0.4996: the default wall (9.3e-151) passes the
    # overflow check, but inverse iteration returns NaN vectors and the
    # ground level reads E/m = 0.034 against 0.040.  Both solver outputs
    # refuse them; a larger wall gives finite levels.
    p = PhysParams(D=2, z_alpha=0.4996)
    sector = kappa_of(p, 0, 1)
    grid = default_grid(p, sector)
    with pytest.raises(GridError, match="non-finite.*" + ZALPHA_HINT):
        solve_bound_levels(p, sector, grid, count=3)
    with pytest.raises(GridError, match="non-finite"):
        susy._bound_columns(p, sector, grid, 4)
    grid = _walled_grid(p, sector, 1e-100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        pairs = solve_bound_levels(p, sector, grid, count=3)
    assert all(np.isfinite(x).all() for pair in pairs for x in pair.doublet)
