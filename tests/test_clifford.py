"""Gamma-matrix construction: every identity must hold with exact equality.

All representation entries lie in {0, +-1, +-i} and the generators have
entries in {0, +-1/2, +-i/2}, so products and sums below are exact in
complex128; tests therefore use array_equal, not allclose.  Dense matrices
come from Monomial.toarray() and serve as the reference.
"""

import numpy as np
import pytest

from susyh import clifford
from susyh.clifford import GammaRep, Monomial, build_gamma_rep, verify_clifford

UNIT_ENTRIES = np.array([1, -1, 1j, -1j])


@pytest.mark.parametrize("D", range(2, 26))
def test_all_identities_pass(D):
    report = verify_clifford(build_gamma_rep(D))
    assert report.all_passed
    assert report.D == D
    # (D+2)(D+3)/2 anticommutators and hermiticity rows plus the chirality
    # rows; odd D adds the product-proportionality row.
    failed = [r.name for r in report.rows if not r.passed]
    assert failed == []


def _euclidean_set_per_kron(k):
    """The Euclidean set as a list of Monomials, one kron per element: the
    recursion the stacked build must reproduce."""
    if k == 1:
        return [clifford._identity(1)]
    if k == 2:
        return [clifford._SIGMA1, clifford._SIGMA2]
    inner = _euclidean_set_per_kron(k - 2)
    eye = clifford._identity(inner[0].cols.size)
    return ([clifford._SIGMA1.kron(e) for e in inner]
            + [clifford._SIGMA2.kron(eye), clifford._SIGMA3.kron(eye)])


@pytest.mark.parametrize("D", range(2, 20))
def test_stacked_build_matches_per_kron_recursion(D):
    eye = clifford._identity(clifford.spinor_dim(D) // 2)
    want = [clifford._SIGMA3.kron(eye),
            *(clifford._I_SIGMA1.kron(e) for e in _euclidean_set_per_kron(D)),
            clifford._SIGMA2.kron(eye)]
    rep = build_gamma_rep(D)
    got = [*rep.gammas, rep.gamma_chir]
    assert len(got) == len(want) == D + 2
    for g, w in zip(got, want):
        assert np.array_equal(g.cols, w.cols)
        # Bitwise, signed zeros included.
        assert g.vals.tobytes() == w.vals.tobytes()


@pytest.mark.parametrize("D,dim", [(2, 4), (3, 4), (4, 8), (5, 8), (10, 64)])
def test_spinor_dimension(D, dim):
    rep = build_gamma_rep(D)
    assert rep.spinor_dim == dim == 2 ** ((D + 2) // 2)
    for g in (*rep.gammas, rep.gamma_chir):
        assert g.cols.shape == g.vals.shape == (dim,)
        assert g.toarray().shape == (dim, dim)
    assert len(rep.gammas) == D + 1


@pytest.mark.parametrize("bad", [1, 0, -3, 32, 2.0, "3"])
def test_rejects_bad_dimension(bad):
    with pytest.raises(ValueError):
        build_gamma_rep(bad)


def test_cap_bound_follows_the_constant():
    assert clifford.MAX_D == 31
    assert clifford.spinor_dim(clifford.MAX_D) == clifford.MAX_SPINOR_DIM
    with pytest.raises(ValueError, match=r"\(D <= 31\)"):
        clifford.spinor_dim(clifford.MAX_D + 1)


@pytest.mark.parametrize("D", [2, 3, 6, 9])
def test_entries_are_gaussian_units(D):
    rep = build_gamma_rep(D)
    for g in (*rep.gammas, rep.gamma_chir):
        assert np.isin(g.vals, UNIT_ENTRIES).all()
        assert np.isin(g.toarray(), [0, *UNIT_ENTRIES]).all()


def test_metric_signature():
    rep = build_gamma_rep(5)
    assert np.array_equal(rep.metric, np.diag([1.0, -1, -1, -1, -1, -1]))


def test_arrays_immutable():
    rep = build_gamma_rep(3)
    with pytest.raises(ValueError):
        rep.gammas[1].cols[0] = 2
    with pytest.raises(ValueError):
        rep.gammas[1].vals[0] = 7.0
    with pytest.raises(ValueError):
        rep.gamma_chir.vals[0] = 7.0
    with pytest.raises(ValueError):
        rep.metric[0, 0] = 7.0
    # Any integer dtype is accepted; the constructor copies, so the
    # caller's arrays stay its own.
    for dtype in (np.uint8, np.int32, np.uint64):
        assert Monomial(np.array([1, 0], dtype=dtype), [1, 1]).cols.dtype \
            == np.intp
    cols, vals = np.array([1, 0]), np.array([1j, 1j])
    m = Monomial(cols, vals)
    vals[0] = 5
    assert m.vals[0] == 1j and cols.flags.writeable


@pytest.mark.parametrize("cols,vals", [
    ([0, 0], [1, 1]),            # repeated column
    ([0, 2], [1, 1]),            # column out of range
    ([-1, 0], [1, 1]),           # negative column
    ([0.0, 1.0], [1, 1]),        # non-integer columns
    ([[0, 1]], [[1, 1]]),        # not one-dimensional
    ([1, 0], [1, 0]),            # zero value
    ([1, 0], [1, np.nan]),       # value not finite
    ([1, 0], [np.inf * 1j, 1]),  # value not finite
    ([1, 0], [1, 1, 1]),         # one value per row
])
def test_monomial_rejects_what_is_not_a_monomial(cols, vals):
    with pytest.raises(ValueError, match="Monomial"):
        Monomial(cols, vals)


def _spin_generator(rep, a, b):
    # Sigma_ab = (i/2) gamma^a gamma^b, Hermitian with entries in +-1/2, +-i/2.
    return 0.5j * (rep.gammas[a] @ rep.gammas[b]).toarray()


def _sigma(rep, a, b):
    # Antisymmetric extension of the a < b generators.
    if a == b:
        return np.zeros((rep.spinor_dim, rep.spinor_dim), dtype=complex)
    if a < b:
        return _spin_generator(rep, a, b)
    return -_spin_generator(rep, b, a)


@pytest.mark.parametrize("D", [3, 4, 5])
def test_so_d_commutators_close_exactly(D):
    # [S_ab, S_cd] = -i (d_bc S_ad - d_ac S_bd - d_bd S_ac + d_ad S_bc);
    # all entries are multiples of 1/4, so the equality is exact.
    rep = build_gamma_rep(D)
    delta = np.eye(D + 1)
    pairs = [(a, b) for a in range(1, D + 1) for b in range(a + 1, D + 1)]
    for a, b in pairs:
        s_ab = _spin_generator(rep, a, b)
        for c, d in pairs:
            s_cd = _spin_generator(rep, c, d)
            lhs = s_ab @ s_cd - s_cd @ s_ab
            rhs = -1j * (delta[b, c] * _sigma(rep, a, d)
                         - delta[a, c] * _sigma(rep, b, d)
                         - delta[b, d] * _sigma(rep, a, c)
                         + delta[a, d] * _sigma(rep, b, c))
            assert np.array_equal(lhs, rhs), (a, b, c, d)


def test_commutator_spot_check():
    rep = build_gamma_rep(3)
    s12, s23, s13 = (_spin_generator(rep, *ab) for ab in ((1, 2), (2, 3), (1, 3)))
    assert np.array_equal(s12 @ s23 - s23 @ s12, -1j * s13)


def test_generator_spectrum_is_spin_half():
    s12 = _spin_generator(build_gamma_rep(3), 1, 2)
    assert np.array_equal(s12.conj().T, s12)
    np.testing.assert_allclose(np.sort(np.linalg.eigvalsh(s12)),
                               [-0.5, -0.5, 0.5, 0.5], atol=1e-14)


def test_generator_squares_to_quarter_identity():
    rep = build_gamma_rep(2)
    s12 = _spin_generator(rep, 1, 2)
    assert np.array_equal(s12 @ s12, 0.25 * np.eye(rep.spinor_dim))


@pytest.mark.parametrize("D", [2, 3, 5])
def test_spin_operators(D):
    # sigma^i = gamma^{D+1} gamma^0 gamma^i: Hermitian, squares to the
    # identity, and sigma^a sigma^b = 2i Sigma_ab for a != b.
    rep = build_gamma_rep(D)
    eye = np.eye(rep.spinor_dim)
    sigmas = [(rep.gamma_chir @ rep.gammas[0] @ rep.gammas[i]).toarray()
              for i in range(1, D + 1)]
    for s in sigmas:
        assert np.array_equal(s.conj().T, s)
        assert np.array_equal(s @ s, eye + 0j)
    for a in range(1, D + 1):
        for b in range(a + 1, D + 1):
            want = 2j * _spin_generator(rep, a, b)
            assert np.array_equal(sigmas[a - 1] @ sigmas[b - 1], want)


def test_tampered_representation_fails():
    # Duplicating gamma^1 in the gamma^2 slot breaks {g1, g2} = 0.
    rep = build_gamma_rep(3)
    gammas = list(rep.gammas)
    gammas[2] = gammas[1]
    bad = GammaRep(D=rep.D, spinor_dim=rep.spinor_dim, gammas=tuple(gammas),
                   gamma_chir=rep.gamma_chir, metric=rep.metric.copy())
    report = verify_clifford(bad)
    assert not report.all_passed
    assert any(r.name == "anticommutator_1_2" and not r.passed
               for r in report.rows)


@pytest.mark.parametrize("D", range(2, 10))
def test_row_gather_equals_matrix_product(D):
    # The gammas' permutations commute with each other, so random monomials
    # join them to tell a @ b from b @ a.
    rep = build_gamma_rep(D)
    rng = np.random.default_rng(D)
    shuffled = [Monomial(rng.permutation(rep.spinor_dim),
                         rng.choice([*UNIT_ENTRIES, 2, 0.5j], rep.spinor_dim))
                for _ in range(3)]
    mats = (*rep.gammas, rep.gamma_chir, *shuffled)
    for a in mats:
        dense_a = a.toarray()
        assert np.array_equal(a.adjoint().toarray(), dense_a.conj().T)
        for b in mats:
            assert np.array_equal((a @ b).toarray(), dense_a @ b.toarray())
        for b in (clifford._SIGMA2, mats[1]):
            assert np.array_equal(a.kron(b).toarray(),
                                  np.kron(dense_a, b.toarray()))
            assert np.array_equal(b.kron(a).toarray(),
                                  np.kron(b.toarray(), dense_a))


def _dense_verdicts(rep):
    """Each identity row checked on the dense matrices with `@` and
    array_equal: the reference that verify_clifford must agree with."""
    gs = [g.toarray() for g in rep.gammas]
    ch = rep.gamma_chir.toarray()
    eye = np.eye(rep.spinor_dim, dtype=complex)
    rows = []
    for mu in range(rep.D + 1):
        for nu in range(mu, rep.D + 1):
            anti = gs[mu] @ gs[nu] + gs[nu] @ gs[mu]
            rows.append((f"anticommutator_{mu}_{nu}", np.array_equal(
                anti, 2.0 * rep.metric[mu, nu] * eye)))
    rows.append(("hermitian_gamma0", np.array_equal(gs[0].conj().T, gs[0])))
    for i in range(1, rep.D + 1):
        rows.append((f"antihermitian_gamma{i}",
                     np.array_equal(gs[i].conj().T, -gs[i])))
    rows.append(("chirality_hermitian", np.array_equal(ch.conj().T, ch)))
    rows.append(("chirality_squares_to_identity",
                 np.array_equal(ch @ ch, eye)))
    for mu in range(rep.D + 1):
        rows.append((f"chirality_anticommutes_gamma{mu}",
                     np.array_equal(ch @ gs[mu] + gs[mu] @ ch, 0 * eye)))
    if rep.D % 2 == 1:
        prod = gs[0]
        for g in gs[1:]:
            prod = prod @ g
        nz = np.flatnonzero(ch)
        with np.errstate(divide="ignore", invalid="ignore"):
            phase = ch.flat[nz[0]] / prod.flat[nz[0]]
        ok = abs(phase) == 1.0 and np.array_equal(ch, phase * prod)
        rows.append(("chirality_proportional_to_gamma_product", ok))
    return rows


def _tampered(D, slot, change):
    """build_gamma_rep(D) with gammas[slot] (gamma_chir for slot -1)
    replaced by change(rep, monomial)."""
    rep = build_gamma_rep(D)
    mats = [*rep.gammas, rep.gamma_chir]
    mats[slot] = change(rep, mats[slot])
    return GammaRep(D=D, spinor_dim=rep.spinor_dim, gammas=tuple(mats[:-1]),
                    gamma_chir=mats[-1], metric=rep.metric.copy())


def _flip_first(rep, g):
    return Monomial(g.cols, np.concatenate([-g.vals[:1], g.vals[1:]]))


def _swap_first_columns(rep, g):
    return Monomial(np.concatenate([g.cols[1::-1], g.cols[2:]]), g.vals)


def _twisted_pair(rep, g):
    # A non-unitary gamma^0 that still squares to the identity.
    vals = g.vals.copy()
    vals[0], vals[1] = 2.0, 0.5
    return Monomial([1, 0, *g.cols[2:]], vals)


TAMPERED = [
    ("duplicate gamma1", 3, 2, lambda rep, g: rep.gammas[1]),
    ("gamma2 doubled", 4, 2, lambda rep, g: Monomial(g.cols, 2 * g.vals)),
    ("gamma1 negated", 5, 1, lambda rep, g: Monomial(g.cols, -g.vals)),
    ("gamma3 times i", 5, 3, lambda rep, g: Monomial(g.cols, 1j * g.vals)),
    ("chirality times i", 5, -1, lambda rep, g: Monomial(g.cols, 1j * g.vals)),
    ("chirality negated", 7, -1, lambda rep, g: Monomial(g.cols, -g.vals)),
    ("chirality is gamma0", 3, -1, lambda rep, g: rep.gammas[0]),
    ("one sign flipped", 5, 2, _flip_first),
    ("one chirality sign flipped", 3, -1, _flip_first),
    ("two columns swapped", 4, 1, _swap_first_columns),
    ("two chirality columns swapped", 5, -1, _swap_first_columns),
    ("non-unitary gamma0", 3, 0, _twisted_pair),
    ("gamma0 is the identity", 2, 0, lambda rep, g: clifford._identity(4)),
]


def _off_diagonal_metric(D):
    # gamma^0 gamma^1 has no diagonal, and {gamma^0, gamma^1} = 0 no longer
    # matches 2 g^{01} = -2.
    rep = build_gamma_rep(D)
    metric = rep.metric.copy()
    metric[0, 1] = metric[1, 0] = -1.0
    return GammaRep(D=D, spinor_dim=rep.spinor_dim, gammas=rep.gammas,
                    gamma_chir=rep.gamma_chir, metric=metric)


@pytest.mark.parametrize("rep", [
    *(pytest.param(build_gamma_rep(D), id=f"D{D}") for D in range(2, 10)),
    *(pytest.param(_tampered(D, slot, change), id=name)
      for name, D, slot, change in TAMPERED),
    pytest.param(_off_diagonal_metric(4), id="off-diagonal metric"),
])
def test_rows_match_dense_reference(rep):
    got = [(r.name, r.passed) for r in verify_clifford(rep).rows]
    assert got == _dense_verdicts(rep)


def _duplicate(D, mu, nu):
    """build_gamma_rep(D) with gamma^nu replaced by gamma^mu: for spatial
    mu < nu this breaks {gamma^mu, gamma^nu} and no other anticommutator."""
    return _tampered(D, nu, lambda rep, g: rep.gammas[mu])


@pytest.mark.parametrize("block,D,nu", [
    (64, 7, 6),    # d = 16, blocks of rows [0, 4), [4, 8), [8, 9): middle
    (64, 7, 4),    # first row of a block
    (64, 7, 3),    # last row of the block before
    (16, 6, 5),    # one row per block
    (2 ** 12, 7, 5),
])
def test_broken_pair_matches_dense_reference(monkeypatch, block, D, nu):
    # The block constant is shrunk so that the mu = 1 family splits over
    # several blocks at a D small enough for the dense reference.
    monkeypatch.setattr(clifford, "_BLOCK", block)
    rep = _duplicate(D, 1, nu)
    got = [(r.name, r.passed) for r in verify_clifford(rep).rows]
    assert got == _dense_verdicts(rep)
    failed = [name for name, ok in got if not ok]
    assert [f for f in failed if f.startswith("anticommutator")] \
        == [f"anticommutator_1_{nu}"]


@pytest.mark.parametrize("nu", [7, 8, 12, 15, 16])
def test_broken_pair_at_the_block_constant(nu):
    # D = 16: d = 512, so blocks hold 8 rows and the mu = 1 family spans
    # rows [1, 8), [8, 16) and [16, 18).
    D = 16
    assert clifford._blocks(D + 2, 512) == [(0, 8), (8, 16), (16, 18)]
    report = verify_clifford(_duplicate(D, 1, nu))
    assert [r.name for r in report.rows if not r.passed] \
        == [f"anticommutator_1_{nu}"]


def _scaled(D, slot, factor):
    return _tampered(D, slot, lambda rep, g: Monomial(g.cols, factor * g.vals))


def _all_scaled(D, factor):
    rep = build_gamma_rep(D)
    gammas = tuple(Monomial(g.cols, factor * g.vals) for g in rep.gammas)
    return GammaRep(D=D, spinor_dim=rep.spinor_dim, gammas=gammas,
                    gamma_chir=rep.gamma_chir, metric=rep.metric.copy())


@pytest.mark.parametrize("rep", [
    pytest.param(_scaled(3, 1, 1e200), id="gamma1 squared overflows"),
    pytest.param(_scaled(3, 1, 1e-200), id="gamma1 squared underflows"),
    pytest.param(_scaled(3, -1, 1e200), id="chirality squared overflows"),
    pytest.param(_scaled(12, 9, 1e200), id="D12 gamma9 squared overflows"),
    # Each pair product is about 1e80; only the product of all eight
    # gammas overflows.
    pytest.param(_all_scaled(7, 1e40), id="gamma product overflows"),
])
def test_product_overflow_raises(rep):
    with pytest.raises(ValueError, match="zero or non-finite"):
        verify_clifford(rep)


@pytest.mark.parametrize("slot,size", [(2, 16), (2, 4), (0, 2), (-1, 16)])
def test_gammas_of_different_sizes_raise(slot, size):
    rep = _tampered(5, slot, lambda rep, g: clifford._identity(size))
    with pytest.raises(ValueError, match="of one size"):
        verify_clifford(rep)


def test_wrong_spinor_dim_fails_only_the_identity_row():
    # gamma^{D+1} squared is compared with the identity of size spinor_dim.
    rep = build_gamma_rep(4)
    bad = GammaRep(D=4, spinor_dim=4, gammas=rep.gammas,
                   gamma_chir=rep.gamma_chir, metric=rep.metric.copy())
    report = verify_clifford(bad)
    assert [r.name for r in report.rows if not r.passed] \
        == ["chirality_squares_to_identity"]


@pytest.mark.parametrize("D,phase", [
    (3, "-1j"), (5, "(1+0j)"), (7, "1j"), (9, "(-1+0j)"), (11, "-1j"),
    (13, "(1+0j)"), (15, "1j"), (17, "(-1+0j)"), (19, "-1j"),
])
def test_odd_d_phase_detail(D, phase):
    # gamma^{D+1} = phase * gamma^0 ... gamma^D, printed without signed zeros.
    row = verify_clifford(build_gamma_rep(D)).rows[-1]
    assert row.name == "chirality_proportional_to_gamma_product"
    assert row.detail == f"phase {phase}"
