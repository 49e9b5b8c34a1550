"""Gamma matrices for D spatial dimensions with an extra chirality element.

Conventions: metric g = diag(+1, -1, ..., -1) with indices mu = 0..D, so
{gamma^mu, gamma^nu} = 2 g^{mu nu}.  gamma^0 is Hermitian and diagonal with
the +1 block first; the spatial gamma^i are anti-Hermitian.  gamma^{D+1} is
Hermitian, squares to the identity, and anticommutes with every gamma^mu;
for odd D it is proportional to the product gamma^0 gamma^1 ... gamma^D.

All entries lie in {0, +-1, +-i}, so every identity below holds exactly in
complex128 arithmetic, with no rounding at any dimension.

Each gamma matrix has exactly one nonzero per row (a signed permutation, up
to factors of i), so row i of a product a @ b is value[i] * b[column[i]]:
one exact multiplication per entry, the same values as the O(d^3) matrix
product up to the sign of a zero, in O(d^2).  verify_clifford forms its
products this way and falls back to `@` for a matrix of any other shape,
since it accepts any caller-built GammaRep.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SIGMA1 = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_SIGMA3 = np.array([[1, 0], [0, -1]], dtype=complex)

MAX_SPINOR_DIM = 1024  # caps D at 19


@dataclass(frozen=True)
class GammaRep:
    """Concrete gamma-matrix representation for D spatial dimensions.

    gammas holds (gamma^0, gamma^1, ..., gamma^D); gamma_chir is gamma^{D+1}.
    Arrays are read-only; the representation is immutable once built.
    """

    D: int
    spinor_dim: int
    gammas: tuple
    gamma_chir: np.ndarray
    metric: np.ndarray

    def __post_init__(self):
        for g in (*self.gammas, self.gamma_chir, self.metric):
            g.flags.writeable = False


def _euclidean_set(k: int) -> list:
    """k mutually anticommuting Hermitian involutions on dimension 2^(k//2)."""
    if k == 1:
        return [np.array([[1]], dtype=complex)]
    if k == 2:
        return [_SIGMA1.copy(), _SIGMA2.copy()]
    inner = _euclidean_set(k - 2)
    eye = np.eye(inner[0].shape[0], dtype=complex)
    out = [np.kron(_SIGMA1, e) for e in inner]
    out.append(np.kron(_SIGMA2, eye))
    out.append(np.kron(_SIGMA3, eye))
    return out


def spinor_dim(D: int) -> int:
    """2^ceil((D+1)/2), the spinor size of the representation for D.

    Raises ValueError for D < 2 or when it would exceed MAX_SPINOR_DIM.
    """
    if not isinstance(D, int) or D < 2:
        raise ValueError(f"D must be an integer >= 2, got {D!r}")
    dim = 2 ** ((D + 2) // 2)
    if dim > MAX_SPINOR_DIM:
        raise ValueError(
            f"spinor_dim {dim} exceeds cap {MAX_SPINOR_DIM} (D <= 19)"
        )
    return dim


def build_gamma_rep(D: int) -> GammaRep:
    """Build the representation for D >= 2 spatial dimensions.

    The spinor size is spinor_dim(D), which validates D; construction is the
    doubling gamma^0 = sigma3 x 1, gamma^i = i sigma1 x e_i,
    gamma^{D+1} = sigma2 x 1 over a Euclidean anticommuting set {e_i}.
    """
    dim = spinor_dim(D)
    spatial = _euclidean_set(D)
    eye = np.eye(spatial[0].shape[0], dtype=complex)
    gamma0 = np.kron(_SIGMA3, eye)
    gammas = (gamma0, *(1j * np.kron(_SIGMA1, e) for e in spatial))
    gamma_chir = np.kron(_SIGMA2, eye)
    metric = np.diag([1.0] + [-1.0] * D)
    return GammaRep(D=D, spinor_dim=dim, gammas=gammas,
                    gamma_chir=gamma_chir, metric=metric)


def spin_generator(rep: GammaRep, a: int, b: int) -> np.ndarray:
    """Rotation generator Sigma_ab = (i/2) gamma^a gamma^b for 1 <= a < b <= D.

    Hermitian with exact Gaussian-integer entries; the commutators close on
    the so(D) algebra [Sigma_ab, Sigma_cd] =
    -i (d_bc Sigma_ad - d_ac Sigma_bd - d_bd Sigma_ac + d_ad Sigma_bc).
    """
    if not (1 <= a < b <= rep.D):
        raise IndexError(f"need 1 <= a < b <= D = {rep.D}, got a={a}, b={b}")
    return 0.5j * (rep.gammas[a] @ rep.gammas[b])


def spin_operator(rep: GammaRep, i: int) -> np.ndarray:
    """sigma^i = gamma^{D+1} gamma^0 gamma^i for 1 <= i <= D.

    Hermitian, squares to the identity, and satisfies
    sigma^a sigma^b = 2i Sigma_ab for a != b (phase fixed by this rep).
    """
    if not (1 <= i <= rep.D):
        raise IndexError(f"need 1 <= i <= D = {rep.D}, got i={i}")
    return rep.gamma_chir @ rep.gammas[0] @ rep.gammas[i]


EXACT_EQUALITY = "exact_equality"


@dataclass(frozen=True)
class CheckRow:
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class CliffordReport:
    """Outcome of the exact identity suite for one representation."""

    D: int
    spinor_dim: int
    rows: tuple

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def to_dict(self) -> dict:
        return {
            "D": self.D,
            "spinor_dim": self.spinor_dim,
            "all_passed": self.all_passed,
            "rows": [{"name": r.name, "passed": r.passed, "detail": r.detail}
                     for r in self.rows],
        }


def _row_nonzeros(a: np.ndarray) -> tuple | None:
    """(column, value) of the single nonzero in each row of a, or None when
    some row has another count of nonzeros or an entry is not finite."""
    rows, cols = np.nonzero(a)
    if not (np.array_equal(rows, np.arange(a.shape[0]))
            and np.isfinite(a).all()):
        return None
    return cols, a[rows, cols]


def verify_clifford(rep: GammaRep) -> CliffordReport:
    """Check every defining identity exactly (bitwise array equality).

    Covered: all (D+1)(D+2)/2 anticommutators {gamma^mu, gamma^nu} = 2 g^{mu nu},
    hermiticity of gamma^0 / anti-hermiticity of gamma^i, the three gamma^{D+1}
    identities, and for odd D the proportionality of gamma^{D+1} to the product
    of all gammas with a unimodular phase.
    """
    rows = []
    eye = np.eye(rep.spinor_dim, dtype=complex)
    gs = rep.gammas
    ch = rep.gamma_chir
    mats = (*gs, ch)
    forms = [_row_nonzeros(g) for g in mats]

    def times(i: int, j: int) -> np.ndarray:
        """mats[i] @ mats[j], as a row gather when mats[i] allows it."""
        if forms[i] is None:
            return mats[i] @ mats[j]
        cols, vals = forms[i]
        out = mats[j].take(cols, axis=0)
        out *= vals[:, None]
        return out

    for mu in range(rep.D + 1):
        for nu in range(mu, rep.D + 1):
            anti = times(mu, nu) + times(nu, mu)
            want = 2.0 * rep.metric[mu, nu] * eye
            rows.append(CheckRow(
                name=f"anticommutator_{mu}_{nu}",
                passed=bool(np.array_equal(anti, want)),
            ))
    rows.append(CheckRow("hermitian_gamma0",
                         bool(np.array_equal(gs[0].conj().T, gs[0]))))
    for i in range(1, rep.D + 1):
        rows.append(CheckRow(f"antihermitian_gamma{i}",
                             bool(np.array_equal(gs[i].conj().T, -gs[i]))))
    chir = rep.D + 1
    rows.append(CheckRow("chirality_hermitian",
                         bool(np.array_equal(ch.conj().T, ch))))
    rows.append(CheckRow("chirality_squares_to_identity",
                         bool(np.array_equal(times(chir, chir), eye))))
    for mu in range(rep.D + 1):
        anti = times(chir, mu) + times(mu, chir)
        rows.append(CheckRow(f"chirality_anticommutes_gamma{mu}",
                             bool(np.array_equal(anti, np.zeros_like(anti)))))
    if rep.D % 2 == 1:
        # Kept on `@`: a row gather gives other signs of zero, which reach
        # the phase printed in detail (D = 5 would print (1+0j), not (1-0j)).
        prod = gs[0].copy()
        for g in gs[1:]:
            prod = prod @ g
        nz = np.flatnonzero(ch)
        phase = ch.flat[nz[0]] / prod.flat[nz[0]]
        ok = abs(phase) == 1.0 and np.array_equal(ch, phase * prod)
        rows.append(CheckRow("chirality_proportional_to_gamma_product", bool(ok),
                             detail=f"phase {phase}"))
    return CliffordReport(D=rep.D, spinor_dim=rep.spinor_dim, rows=tuple(rows))


def gamma_rep_to_json(rep: GammaRep) -> dict:
    """JSON-ready dict: entries as [re, im] pairs, matrices as row lists."""
    def encode(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    return {
        "D": rep.D,
        "spinor_dim": rep.spinor_dim,
        "gammas": [encode(g) for g in rep.gammas],
        "gamma_chir": encode(rep.gamma_chir),
    }
