"""Gamma matrices for D spatial dimensions with an extra chirality element.

Conventions: metric g = diag(+1, -1, ..., -1) with indices mu = 0..D, so
{gamma^mu, gamma^nu} = 2 g^{mu nu}.  gamma^0 is Hermitian and diagonal with
the +1 block first; the spatial gamma^i are anti-Hermitian.  gamma^{D+1} is
Hermitian, squares to the identity, and anticommutes with every gamma^mu;
for odd D it is proportional to the product gamma^0 gamma^1 ... gamma^D.

Each gamma matrix has exactly one nonzero per row (a signed permutation up
to factors of i), so it is stored as a Monomial of O(d) numbers for spinor
size d, and products, adjoints and equality tests cost O(d).  All values
lie in {+-1, +-i}, so every identity below holds exactly in complex128.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class Monomial:
    """d x d matrix with one nonzero per row: entry (i, cols[i]) is vals[i].

    cols must be a permutation of range(d) and vals nonzero and finite, so
    equal cols and vals mean equal dense matrices.  Both arrays are read-only
    copies.  A product whose values over- or underflow raises ValueError.
    """

    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self):
        cols = np.array(self.cols)
        vals = np.array(self.vals, dtype=complex)
        d = cols.size
        # Bounds before bincount, which allocates max(cols) + 1 counters.
        if not (cols.ndim == 1 and cols.dtype.kind in "iu"
                and 0 <= cols.min(initial=0) and cols.max(initial=0) < d
                and np.bincount(cols.astype(np.intp), minlength=d).all()):
            raise ValueError("Monomial cols must be a permutation of range(d)")
        if not (vals.shape == cols.shape and np.count_nonzero(vals) == d
                and np.isfinite(vals).all()):
            raise ValueError("Monomial vals must be d nonzero finite numbers")
        cols = cols.astype(np.intp, copy=False)
        for name, arr in (("cols", cols), ("vals", vals)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    def __matmul__(self, other: Monomial) -> Monomial:
        return Monomial(other.cols[self.cols],
                        self.vals * other.vals[self.cols])

    def __eq__(self, other) -> bool:
        return (isinstance(other, Monomial)
                and np.array_equal(self.cols, other.cols)
                and np.array_equal(self.vals, other.vals))

    def adjoint(self) -> Monomial:
        """Conjugate transpose: entry (cols[i], i) becomes conj(vals[i])."""
        inverse = np.argsort(self.cols)
        return Monomial(inverse, self.vals[inverse].conj())

    def kron(self, other: Monomial) -> Monomial:
        """Kronecker product self (x) other, row i * d_other + k."""
        d = other.cols.size
        return Monomial(np.add.outer(self.cols * d, other.cols).ravel(),
                        np.outer(self.vals, other.vals).ravel())

    def toarray(self) -> np.ndarray:
        """The dense d x d complex matrix."""
        d = self.cols.size
        out = np.zeros((d, d), dtype=complex)
        out[np.arange(d), self.cols] = self.vals
        return out


def _identity(d: int) -> Monomial:
    return Monomial(np.arange(d), np.ones(d))


_SIGMA1 = Monomial([1, 0], [1, 1])
_SIGMA2 = Monomial([1, 0], [-1j, 1j])
_SIGMA3 = Monomial([0, 1], [1, -1])
_I_SIGMA1 = Monomial([1, 0], [1j, 1j])

MAX_SPINOR_DIM = 2 ** 16
MAX_D = 2 * (MAX_SPINOR_DIM.bit_length() - 1) - 1


@dataclass(frozen=True)
class GammaRep:
    """Concrete gamma-matrix representation for D spatial dimensions.

    gammas holds the Monomials (gamma^0, gamma^1, ..., gamma^D); gamma_chir
    is gamma^{D+1}.  The representation is immutable once built.
    """

    D: int
    spinor_dim: int
    gammas: tuple
    gamma_chir: Monomial
    metric: np.ndarray

    def __post_init__(self):
        self.metric.flags.writeable = False


def _euclidean_set(k: int) -> list:
    """k mutually anticommuting Hermitian involutions on dimension 2^(k//2)."""
    if k == 1:
        return [_identity(1)]
    if k == 2:
        return [_SIGMA1, _SIGMA2]
    inner = _euclidean_set(k - 2)
    eye = _identity(inner[0].cols.size)
    out = [_SIGMA1.kron(e) for e in inner]
    out.append(_SIGMA2.kron(eye))
    out.append(_SIGMA3.kron(eye))
    return out


def spinor_dim(D: int) -> int:
    """2^ceil((D+1)/2), the spinor size of the representation for D.

    Raises ValueError for D < 2 or when it would exceed MAX_SPINOR_DIM.
    """
    if not isinstance(D, int) or D < 2:
        raise ValueError(f"D must be an integer >= 2, got {D!r}")
    dim = 2 ** ((D + 2) // 2)
    if dim > MAX_SPINOR_DIM:
        raise ValueError(f"spinor_dim {dim} exceeds cap {MAX_SPINOR_DIM} "
                         f"(D <= {MAX_D})")
    return dim


def build_gamma_rep(D: int) -> GammaRep:
    """Build the representation for D >= 2 spatial dimensions.

    The spinor size is spinor_dim(D), which validates D; construction is the
    doubling gamma^0 = sigma3 x 1, gamma^i = i sigma1 x e_i,
    gamma^{D+1} = sigma2 x 1 over a Euclidean anticommuting set {e_i}.
    """
    dim = spinor_dim(D)
    spatial = _euclidean_set(D)
    eye = _identity(dim // 2)
    gammas = (_SIGMA3.kron(eye), *(_I_SIGMA1.kron(e) for e in spatial))
    metric = np.diag([1.0] + [-1.0] * D)
    return GammaRep(D=D, spinor_dim=dim, gammas=gammas,
                    gamma_chir=_SIGMA2.kron(eye), metric=metric)


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


def _sum_is_scalar(p: Monomial, q: Monomial, c: complex) -> bool:
    """Whether the dense sum p + q is c times the identity.  A row where p
    and q differ in column holds two nonzeros, so cols must agree."""
    s = p.vals + q.vals
    on_diagonal = p.cols == np.arange(p.cols.size)
    fits = np.where(on_diagonal, s == c, (s == 0) & (c == 0))
    return bool(np.array_equal(p.cols, q.cols) and fits.all())


def verify_clifford(rep: GammaRep) -> CliffordReport:
    """Check every defining identity exactly.

    Covered: all (D+1)(D+2)/2 anticommutators {gamma^mu, gamma^nu} = 2 g^{mu nu},
    hermiticity of gamma^0 / anti-hermiticity of gamma^i, the three gamma^{D+1}
    identities, and for odd D the proportionality of gamma^{D+1} to the product
    of all gammas with a unimodular phase.  Each row passes exactly when the
    same identity holds entrywise for the dense matrices (toarray()).
    """
    rows = []
    gs, ch = rep.gammas, rep.gamma_chir
    for mu in range(rep.D + 1):
        for nu in range(mu, rep.D + 1):
            rows.append(CheckRow(f"anticommutator_{mu}_{nu}", _sum_is_scalar(
                gs[mu] @ gs[nu], gs[nu] @ gs[mu], 2.0 * rep.metric[mu, nu])))
    rows.append(CheckRow("hermitian_gamma0", gs[0].adjoint() == gs[0]))
    for i in range(1, rep.D + 1):
        rows.append(CheckRow(f"antihermitian_gamma{i}", gs[i].adjoint()
                             == Monomial(gs[i].cols, -gs[i].vals)))
    rows.append(CheckRow("chirality_hermitian", ch.adjoint() == ch))
    rows.append(CheckRow("chirality_squares_to_identity",
                         ch @ ch == _identity(rep.spinor_dim)))
    for mu in range(rep.D + 1):
        rows.append(CheckRow(f"chirality_anticommutes_gamma{mu}",
                             _sum_is_scalar(ch @ gs[mu], gs[mu] @ ch, 0.0)))
    if rep.D % 2 == 1:
        prod = gs[0]
        for g in gs[1:]:
            prod = prod @ g
        # Adding zero prints each signed zero of the phase as +0.
        phase = ch.vals[0] / prod.vals[0] + 0
        ok = bool(abs(phase) == 1.0 and np.array_equal(ch.cols, prod.cols)
                  and np.array_equal(ch.vals, phase * prod.vals))
        rows.append(CheckRow("chirality_proportional_to_gamma_product", ok,
                             detail=f"phase {phase}"))
    return CliffordReport(D=rep.D, spinor_dim=rep.spinor_dim, rows=tuple(rows))
