"""Closed-form level structure: exact degeneracies, limits, and exports.

The energy formula is pure arithmetic, so most properties here are exact
float equalities by construction (shared (n', s) denominators); hypothesis
drives those over the whole admissible parameter range.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from susyh import analytic
from susyh.analytic import (LevelLabel, energy, enumerate_levels,
                            ground_energy, interdimensional_check,
                            kernel_wavefunction, level_scheme_export,
                            nonrel_limit_check)
from susyh.core import PhysParams, default_grid, kappa_of, make_grid
from susyh.errors import (InvalidLabelError, NormalizationError,
                          SubcriticalError)

EPS = np.finfo(float).eps

P3 = PhysParams(D=3, z_alpha=0.5)


def params_strategy(min_d=2, max_d=9):
    # z_alpha strictly inside the stability window for the chosen D.
    return st.integers(min_d, max_d).flatmap(
        lambda d: st.tuples(
            st.just(d),
            st.floats(0.02, 0.95).map(lambda f: f * (d - 1) / 2)))


# Frozen oracle values: independent closed forms evaluated once.
@pytest.mark.parametrize("label,expected", [
    (LevelLabel(n=1, l=0, sign=1), math.sqrt(3) / 2),
    (LevelLabel(n=2, l=0, sign=1), 0.9659258262890683),
    (LevelLabel(n=3, l=0, sign=1), 0.9851210547941825),
    (LevelLabel(n=4, l=0, sign=1), 0.9917401207983119),
    (LevelLabel(n=2, l=1, sign=1), math.sqrt(15) / 4),
])
def test_frozen_levels_d3(label, expected):
    assert energy(P3, label) == expected


def test_frozen_level_d4():
    p = PhysParams(D=4, z_alpha=0.6)
    assert energy(p, LevelLabel(n=1, l=0, sign=1)) == math.sqrt(0.84)


def test_frozen_ground_d2():
    # s = sqrt(0.25 - 0.16) = 0.3 exactly in the reals; the float detour
    # through sqrt makes E land one ulp below 0.6.
    p = PhysParams(D=2, z_alpha=0.4)
    e = ground_energy(p, 0.5)
    assert e == 0.5999999999999999
    assert abs(e - 0.6) <= 4 * EPS


def test_ground_energy_rejects_subcritical():
    with pytest.raises(SubcriticalError):
        ground_energy(PhysParams(D=2, z_alpha=0.45), 0.3)
    with pytest.raises(SubcriticalError):
        ground_energy(P3, 0.0)


@settings(max_examples=200, deadline=None)
@given(params_strategy(), st.integers(0, 4))
def test_ground_matches_energy_bitwise(dz, l):
    # ground_energy returns the same float as the general formula at n' = 0.
    d, za = dz
    p = PhysParams(D=d, z_alpha=za)
    kappa = l + (d - 1) / 2
    label = LevelLabel(n=l + 1, l=l, sign=1)
    assert ground_energy(p, kappa) == energy(p, label)


@settings(max_examples=200, deadline=None)
@given(params_strategy(), st.integers(0, 4), st.integers(1, 5))
def test_kappa_sign_degeneracy_is_exact(dz, l, n_prime):
    d, za = dz
    p = PhysParams(D=d, z_alpha=za)
    n = l + 1 + n_prime
    assert energy(p, LevelLabel(n=n, l=l, sign=1)) \
        == energy(p, LevelLabel(n=n, l=l, sign=-1))


@settings(max_examples=200, deadline=None)
@given(params_strategy(), st.integers(0, 4), st.integers(0, 5))
def test_ladder_shift_identity(dz, l, n_prime):
    # Raising n' by one equals substituting s -> s + 1: the two float
    # denominators (n'+1) + s and n' + (s+1) differ by at most one rounding.
    d, za = dz
    p = PhysParams(D=d, z_alpha=za)
    s = kappa_of(p, l, 1).s
    lifted = energy(p, LevelLabel(n=l + 2 + n_prime, l=l, sign=1))
    substituted = (1.0 + (za / (n_prime + (s + 1.0))) ** 2) ** -0.5
    assert math.isclose(lifted, substituted, rel_tol=8 * EPS)


def test_enumeration_structure():
    table = enumerate_levels(P3, 4)
    assert len(table.rows) == 16  # 7 + 5 + 3 + 1 over l = 0..3
    by_label = {r.label: r for r in table.rows}
    for row in table.rows:
        if row.is_ladder_bottom:
            assert row.label.sign == 1 and row.partner is None
        else:
            partner = by_label[row.partner]
            assert partner.partner == row.label
            assert partner.E_over_m == row.E_over_m
            assert partner.kappa == -row.kappa
    for l in range(4):
        bottoms = [r for r in table.rows
                   if r.label.l == l and r.is_ladder_bottom]
        assert len(bottoms) == 1
        ladder = sorted(r.E_over_m for r in table.rows
                        if r.label.l == l and r.label.sign == 1)
        assert ladder == sorted(set(ladder))  # strictly increasing in n


def test_enumeration_rejects_bad_n_max():
    with pytest.raises(InvalidLabelError):
        enumerate_levels(P3, 0)


@pytest.mark.parametrize("kwargs", [
    dict(n=0, l=0, sign=1),
    dict(n=1, l=1, sign=1),
    dict(n=2, l=-1, sign=1),
    dict(n=2, l=0, sign=0),
    dict(n=1, l=0, sign=-1),   # n' = 0 exists only on the + side
    dict(n=2.0, l=0, sign=1),
])
def test_label_validation(kwargs):
    with pytest.raises(InvalidLabelError):
        LevelLabel(**kwargs)


def test_interdimensional_is_bitwise():
    for d in range(4, 10):
        for za in (0.3, 0.5):
            if za >= (d - 3) / 2:  # lower dimension would be unstable
                continue
            p = PhysParams(D=d, z_alpha=za)
            for l in (0, 1):
                for n_prime in range(4):
                    report = interdimensional_check(p, l, n_prime)
                    assert report.max_rel_diff == 0.0
                    assert report.passed()


def test_interdimensional_gate_reads_the_module_constant(monkeypatch):
    # The energies are bitwise equal, so only a negative tolerance fails.
    report = interdimensional_check(PhysParams(D=5, z_alpha=0.5), 0, 1)
    assert report.passed()
    monkeypatch.setattr(analytic, "INTERDIM_TOL", -1.0)
    assert not report.passed()


def test_interdimensional_guards():
    with pytest.raises(InvalidLabelError):
        interdimensional_check(P3, 0, 1)
    with pytest.raises(InvalidLabelError):
        interdimensional_check(PhysParams(D=4, z_alpha=0.5), 0, 1)
    with pytest.raises(InvalidLabelError):
        interdimensional_check(PhysParams(D=5, z_alpha=0.5), 0, -1)


@pytest.mark.parametrize("D", [3, 5])
def test_nonrel_limit_scales_quadratically(D):
    report = nonrel_limit_check(PhysParams(D=D, z_alpha=0.2))
    assert report.passed()
    for row in report.rows:
        for ratio in row.ratios:
            assert 3.2 <= ratio <= 4.8


@pytest.mark.parametrize("name,value", [
    ("NONREL_RATIO", 2.0),  # a deviation linear in Z alpha
    ("NONREL_RTOL", 1e-3),  # D = 3 ratios reach 1.6% off 4
])
def test_nonrel_gate_reads_the_module_constants(monkeypatch, name, value):
    report = nonrel_limit_check(P3)
    assert report.passed()
    monkeypatch.setattr(analytic, name, value)
    assert not report.passed()


def test_nonrel_frozen_row():
    report = nonrel_limit_check(P3)
    row = next(r for r in report.rows if r.label == LevelLabel(1, 0, 1))
    za, binding, binding_nr, dev = row.deviations[1]
    assert za == 0.1
    assert binding == -0.005012562893380035
    assert binding_nr == -0.005000000000000001  # 0.1*0.1 rounds up one ulp
    assert dev == 0.002512578676006738


def test_nonrel_requires_decreasing_couplings():
    with pytest.raises(ValueError):
        nonrel_limit_check(P3, z_alphas=(0.1, 0.2))


def test_kernel_wavefunction_profile():
    sector = kappa_of(P3, 0, 1)
    grid = default_grid(P3, sector, n_points=400)
    F, G = kernel_wavefunction(P3, sector, grid)
    norm = grid.weights @ F**2 + grid.weights_small @ G**2
    assert abs(norm - 1.0) < 1e-12
    # Both components are the same x^s e^{-x} profile, with the component
    # ratio fixed at (kappa - s) / (Z alpha).
    scale = P3.z_alpha * P3.m / sector.kappa
    x_f, x_g = scale * grid.nodes, scale * grid.nodes_small
    u = F / (x_f**sector.s * np.exp(-x_f))
    v = G / (x_g**sector.s * np.exp(-x_g))
    np.testing.assert_allclose(u, u[0], rtol=1e-10)
    np.testing.assert_allclose(v, v[0], rtol=1e-10)
    c = (sector.kappa - sector.s) / P3.z_alpha
    np.testing.assert_allclose(v[0] / u[0], c, rtol=1e-12)


def test_kernel_wavefunction_satisfies_its_ode():
    # Independent check: x F' + x F = s F for F = x^s e^{-x}.  A centered
    # difference in t = ln x is second order, so the residual must fall
    # by ~4x per doubling.
    sector = kappa_of(P3, 0, 1)
    res = []
    for n in (200, 400):
        grid = default_grid(P3, sector, n_points=n)
        F, _ = kernel_wavefunction(P3, sector, grid)
        x = (P3.z_alpha * P3.m / sector.kappa) * grid.nodes
        dt = math.log(x[1] / x[0])
        dF = (F[2:] - F[:-2]) / (2 * dt)  # d/dt = x d/dx
        r = dF + (x[1:-1] - sector.s) * F[1:-1]
        res.append(float(np.linalg.norm(r[5:-5]) / np.linalg.norm(F)))
    assert res[0] / res[1] > 3.5


def test_kernel_wavefunction_guards():
    sector = kappa_of(P3, 0, 1)
    grid = default_grid(P3, sector, n_points=200)
    with pytest.raises(NormalizationError):
        kernel_wavefunction(P3, kappa_of(P3, 0, -1), grid)
    unit = sector.abs_kappa / (P3.z_alpha * P3.m)
    cramped = make_grid(1e-5 * unit, 2.0 * unit, 200)
    with pytest.raises(NormalizationError):
        kernel_wavefunction(P3, sector, cramped)


def test_level_scheme_export():
    family = [PhysParams(D=d, z_alpha=0.4) for d in range(2, 6)]
    scheme = level_scheme_export(family, n_max=3)
    assert len(scheme.rows) == 4 * 9  # 5 + 3 + 1 labels per dimension
    by_id = {r.id: r for r in scheme.rows}
    assert len(by_id) == len(scheme.rows)
    for row in scheme.rows:
        assert row.tanh_D == math.tanh(row.D)
        assert row.binding == 1.0 - row.E_over_m
        if row.is_ladder_bottom:
            assert row.partner_id == ""
            assert row.kappa > 0
        else:
            partner = by_id[row.partner_id]
            assert partner.partner_id == row.id
            assert partner.E_over_m == row.E_over_m
    assert math.tanh(3) == 0.9950547536867305
    # The D = 3 slice reproduces the single-dimension enumeration.
    p = PhysParams(D=3, z_alpha=0.4)
    table = enumerate_levels(p, 3)
    sliced = [r for r in scheme.rows if r.D == 3]
    assert [r.E_over_m for r in sliced] == [r.E_over_m for r in table.rows]


def test_row_id_format():
    scheme = level_scheme_export([P3], n_max=2)
    assert scheme.rows[0].id == "D3:k+1:n1"
    assert any(r.id == "D3:k-1:n2" for r in scheme.rows)
