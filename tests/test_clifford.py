"""Gamma-matrix construction: every identity must hold with exact equality.

All representation entries lie in {0, +-1, +-i} and the generators have
entries in {0, +-1/2, +-i/2}, so products and sums below are exact in
complex128; tests therefore use array_equal, not allclose.
"""

import numpy as np
import pytest

from susyh import clifford
from susyh.clifford import (GammaRep, build_gamma_rep, gamma_rep_to_json,
                            spin_generator, spin_operator, verify_clifford)

EXACT_ENTRIES = np.array([0, 1, -1, 1j, -1j])


@pytest.mark.parametrize("D", range(2, 16))
def test_all_identities_pass(D):
    report = verify_clifford(build_gamma_rep(D))
    assert report.all_passed
    assert report.D == D
    # (D+2)(D+3)/2 anticommutators and hermiticity rows plus the chirality
    # rows; odd D adds the product-proportionality row.
    failed = [r.name for r in report.rows if not r.passed]
    assert failed == []


@pytest.mark.parametrize("D,dim", [(2, 4), (3, 4), (4, 8), (5, 8), (10, 64)])
def test_spinor_dimension(D, dim):
    rep = build_gamma_rep(D)
    assert rep.spinor_dim == dim == 2 ** ((D + 2) // 2)
    for g in (*rep.gammas, rep.gamma_chir):
        assert g.shape == (dim, dim)
    assert len(rep.gammas) == D + 1


@pytest.mark.parametrize("bad", [1, 0, -3, 20, 2.0, "3"])
def test_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        build_gamma_rep(bad)


@pytest.mark.parametrize("D", [2, 3, 6, 9])
def test_entries_are_gaussian_units(D):
    rep = build_gamma_rep(D)
    for g in (*rep.gammas, rep.gamma_chir):
        assert np.isin(g, EXACT_ENTRIES).all()


def test_metric_signature():
    rep = build_gamma_rep(5)
    assert np.array_equal(rep.metric, np.diag([1.0, -1, -1, -1, -1, -1]))


def test_arrays_immutable():
    rep = build_gamma_rep(3)
    with pytest.raises(ValueError):
        rep.gammas[1][0, 0] = 7.0
    with pytest.raises(ValueError):
        rep.gamma_chir[0, 0] = 7.0


def _sigma(rep, a, b):
    # Antisymmetric extension of the a < b generators.
    if a == b:
        return np.zeros((rep.spinor_dim, rep.spinor_dim), dtype=complex)
    if a < b:
        return spin_generator(rep, a, b)
    return -spin_generator(rep, b, a)


@pytest.mark.parametrize("D", [3, 4, 5])
def test_so_d_commutators_close_exactly(D):
    # [S_ab, S_cd] = -i (d_bc S_ad - d_ac S_bd - d_bd S_ac + d_ad S_bc);
    # all entries are multiples of 1/4, so the equality is exact.
    rep = build_gamma_rep(D)
    delta = np.eye(D + 1)
    pairs = [(a, b) for a in range(1, D + 1) for b in range(a + 1, D + 1)]
    for a, b in pairs:
        s_ab = spin_generator(rep, a, b)
        for c, d in pairs:
            s_cd = spin_generator(rep, c, d)
            lhs = s_ab @ s_cd - s_cd @ s_ab
            rhs = -1j * (delta[b, c] * _sigma(rep, a, d)
                         - delta[a, c] * _sigma(rep, b, d)
                         - delta[b, d] * _sigma(rep, a, c)
                         + delta[a, d] * _sigma(rep, b, c))
            assert np.array_equal(lhs, rhs), (a, b, c, d)


def test_commutator_spot_check():
    rep = build_gamma_rep(3)
    s12, s23, s13 = (spin_generator(rep, *ab) for ab in ((1, 2), (2, 3), (1, 3)))
    assert np.array_equal(s12 @ s23 - s23 @ s12, -1j * s13)


def test_generator_spectrum_is_spin_half():
    s12 = spin_generator(build_gamma_rep(3), 1, 2)
    assert np.array_equal(s12.conj().T, s12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s12)),
                               [-0.5, -0.5, 0.5, 0.5], atol=1e-14)


def test_generator_squares_to_quarter_identity():
    rep = build_gamma_rep(2)
    s12 = spin_generator(rep, 1, 2)
    assert np.array_equal(s12 @ s12, 0.25 * np.eye(rep.spinor_dim))


@pytest.mark.parametrize("D", [2, 3, 5])
def test_spin_operators(D):
    rep = build_gamma_rep(D)
    eye = np.eye(rep.spinor_dim)
    sigmas = [spin_operator(rep, i) for i in range(1, D + 1)]
    for s in sigmas:
        assert np.array_equal(s.conj().T, s)
        assert np.array_equal(s @ s, eye + 0j)
    for a in range(1, D + 1):
        for b in range(a + 1, D + 1):
            want = 2j * spin_generator(rep, a, b)
            assert np.array_equal(sigmas[a - 1] @ sigmas[b - 1], want)


def test_index_bounds():
    rep = build_gamma_rep(4)
    for args in ((0, 1), (2, 2), (3, 1), (1, 5)):
        with pytest.raises(IndexError):
            spin_generator(rep, *args)
    for i in (0, 5, -1):
        with pytest.raises(IndexError):
            spin_operator(rep, i)


def test_tampered_representation_fails():
    # Duplicating gamma^1 in the gamma^2 slot breaks {g1, g2} = 0.
    rep = build_gamma_rep(3)
    gammas = list(g.copy() for g in rep.gammas)
    gammas[2] = gammas[1].copy()
    bad = GammaRep(D=rep.D, spinor_dim=rep.spinor_dim, gammas=tuple(gammas),
                   gamma_chir=rep.gamma_chir.copy(), metric=rep.metric.copy())
    report = verify_clifford(bad)
    assert not report.all_passed
    assert any(r.name == "anticommutator_1_2" and not r.passed
               for r in report.rows)


@pytest.mark.parametrize("D", range(2, 10))
def test_row_gather_equals_matrix_product(D):
    rep = build_gamma_rep(D)
    mats = (*rep.gammas, rep.gamma_chir)
    for a in mats:
        cols, vals = clifford._row_nonzeros(a)
        for b in mats:
            assert np.array_equal(vals[:, None] * b[cols], a @ b)


def test_non_permutation_falls_back_to_matrix_product():
    # gamma^1 + gamma^3 has two nonzeros per row, so its products go through
    # `@`; its square and {., gamma^3} are wrong, and the gamma product is
    # no longer proportional to gamma^{D+1}.
    rep = build_gamma_rep(3)
    gammas = list(g.copy() for g in rep.gammas)
    gammas[1] = gammas[1] + gammas[3]
    assert clifford._row_nonzeros(gammas[1]) is None
    bad = GammaRep(D=rep.D, spinor_dim=rep.spinor_dim, gammas=tuple(gammas),
                   gamma_chir=rep.gamma_chir.copy(), metric=rep.metric.copy())
    failed = [r.name for r in verify_clifford(bad).rows if not r.passed]
    assert failed == ["anticommutator_1_1", "anticommutator_1_3",
                      "chirality_proportional_to_gamma_product"]


def test_report_dict_schema():
    doc = verify_clifford(build_gamma_rep(2)).to_dict()
    assert set(doc) == {"D", "spinor_dim", "all_passed", "rows"}
    assert doc["all_passed"] is True
    assert all(set(r) == {"name", "passed", "detail"} for r in doc["rows"])


def test_json_roundtrip():
    rep = build_gamma_rep(3)
    doc = gamma_rep_to_json(rep)
    assert doc["D"] == 3 and doc["spinor_dim"] == 4
    assert len(doc["gammas"]) == 4
    decoded = np.array([[complex(re, im) for re, im in row]
                        for row in doc["gammas"][1]])
    assert np.array_equal(decoded, rep.gammas[1])
    decoded_chir = np.array([[complex(re, im) for re, im in row]
                             for row in doc["gamma_chir"]])
    assert np.array_equal(decoded_chir, rep.gamma_chir)
