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

The build applies one kron per doubling step to the whole stacked (rows, d)
Euclidean set.  verify_clifford checks one family of identities at a time
(gamma^mu against every gamma^nu with nu >= mu, the adjoints, gamma^{D+1}
against every gamma^mu) with a few gathers on stacked rows, and builds no
Monomial per product.  Rows are stacked in blocks of at most _BLOCK entries.
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
        return Monomial(*_kron(self.cols, self.vals, other.cols, other.vals))

    def toarray(self) -> np.ndarray:
        """The dense d x d complex matrix."""
        d = self.cols.size
        out = np.zeros((d, d), dtype=complex)
        out[np.arange(d), self.cols] = self.vals
        return out


def _identity(d: int) -> Monomial:
    return Monomial(np.arange(d), np.ones(d))


def _kron(lcols, lvals, cols, vals) -> tuple:
    """cols and vals of a (x) b for each stacked row pair: a from (lcols,
    lvals), b from (cols, vals); rows broadcast, so one a may serve all."""
    n = cols.shape[-1]
    shape = (*cols.shape[:-1], -1)
    return ((lcols[..., :, None] * n + cols[..., None, :]).reshape(shape),
            (lvals[..., :, None] * vals[..., None, :]).reshape(shape))


def _stack(mats) -> tuple:
    """Stacked (rows, d) cols and vals of a sequence of Monomials."""
    return (np.stack([m.cols for m in mats]),
            np.stack([m.vals for m in mats]))


# Entries per stacked block: rows are taken max(1, _BLOCK // d) at a time.
# Stacking every row at once was slower than one product at a time at
# large d (its temporaries leave the cache) and held a second copy of the
# representation.
_BLOCK = 2 ** 12


def _blocks(rows: int, d: int):
    """(lo, hi) bounds of consecutive blocks of at most _BLOCK entries."""
    step = max(1, _BLOCK // max(d, 1))
    return [(lo, min(lo + step, rows)) for lo in range(0, rows, step)]


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


def _euclidean_set(k: int) -> tuple:
    """k mutually anticommuting Hermitian involutions on dimension 2^(k//2),
    as stacked (k, n) cols and vals.

    Each doubling step maps the set {e_j} to sigma1 x e_j, sigma2 x 1,
    sigma3 x 1 with one kron over the stack, whose last two rows are 1.
    """
    cols, vals = _stack([_identity(1)] if k % 2 else [_SIGMA1, _SIGMA2])
    for _ in range((k - 1) // 2):
        m, n = cols.shape
        eye_cols, eye_vals = _stack([_identity(n)] * 2)
        cols, vals = _kron(*_stack([_SIGMA1] * m + [_SIGMA2, _SIGMA3]),
                           np.concatenate([cols, eye_cols]),
                           np.concatenate([vals, eye_vals]))
    return cols, vals


def spinor_dim(D: int) -> int:
    """2^ceil((D+1)/2), the spinor size of the representation for D.

    Raises ValueError for D < 2 or when it would exceed MAX_SPINOR_DIM.
    """
    if not isinstance(D, int) or D < 2:
        raise ValueError(f"D must be an integer >= 2, got {D!r}")
    if D > MAX_D:  # before forming 2^(D/2), which a huge D cannot
        raise ValueError(f"spinor_dim 2^{(D + 2) // 2} exceeds cap "
                         f"{MAX_SPINOR_DIM} (D <= {MAX_D})")
    return 2 ** ((D + 2) // 2)


def build_gamma_rep(D: int) -> GammaRep:
    """Build the representation for D >= 2 spatial dimensions.

    The spinor size is spinor_dim(D), which validates D; construction is the
    doubling gamma^0 = sigma3 x 1, gamma^i = i sigma1 x e_i,
    gamma^{D+1} = sigma2 x 1 over a Euclidean anticommuting set {e_i}.
    The set stays stacked until this last kron, so only the D+2 gammas go
    through the Monomial constructor.
    """
    dim = spinor_dim(D)
    cols, vals = _euclidean_set(D)
    spatial = []
    # The constructor copies each row, so a block at a time keeps the
    # kron's output from doubling the memory the gammas hold.
    for lo, hi in _blocks(D, dim):
        spatial += map(Monomial, *_kron(_I_SIGMA1.cols, _I_SIGMA1.vals,
                                        cols[lo:hi], vals[lo:hi]))
    eye = _identity(dim // 2)
    gammas = (_SIGMA3.kron(eye), *spatial)
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


def _check_values(*vals) -> None:
    """Raise ValueError unless every product value is nonzero and finite,
    as the Monomial constructor would for each product."""
    for v in vals:
        if not (v.all() and np.isfinite(v).all()):
            raise ValueError("a product of the gammas has a zero or "
                             "non-finite value")


def _anticommutators(a: Monomial, cols, vals, c) -> np.ndarray:
    """Whether the dense a b + b a equals c[j] times the identity, for each
    stacked row b = (cols[j], vals[j]).  A row where a b and b a differ in
    column holds two nonzeros, so their cols must agree; a nonzero c also
    needs every column on the diagonal."""
    p_cols = cols.take(a.cols, axis=1)      # a b
    p_vals = a.vals * vals.take(a.cols, axis=1)
    q_cols = a.cols.take(cols)              # b a
    q_vals = vals * a.vals.take(cols)
    _check_values(p_vals, q_vals)
    on_diagonal = (p_cols == np.arange(a.cols.size)).all(axis=1)
    return (((p_cols == q_cols) & (p_vals + q_vals == c[:, None])).all(axis=1)
            & (on_diagonal | (c == 0)))


# Over- and underflow in a product is reported by _check_values.
@np.errstate(all="ignore")
def verify_clifford(rep: GammaRep) -> CliffordReport:
    """Check every defining identity exactly.

    Covered: all (D+1)(D+2)/2 anticommutators {gamma^mu, gamma^nu} = 2 g^{mu nu},
    hermiticity of gamma^0 / anti-hermiticity of gamma^i, the three gamma^{D+1}
    identities, and for odd D the proportionality of gamma^{D+1} to the product
    of all gammas with a unimodular phase.  Each row passes exactly when the
    same identity holds entrywise for the dense matrices (toarray()).

    With gamma^{D+1} as index D+1, every product identity is {a, b} = c 1
    for a pair mu <= nu: c is 2 g^{mu nu} among the gammas, 0 against
    gamma^{D+1}, and 2 for gamma^{D+1} squared.  Raises ValueError if the
    gammas are not D+1 Monomials of one size or a product value is zero or
    not finite.
    """
    D, gs, ch = rep.D, rep.gammas, rep.gamma_chir
    mats = (*gs, ch)
    d = ch.cols.size
    if len(gs) != D + 1 or any(m.cols.size != d for m in gs):
        raise ValueError("verify_clifford needs D+1 gammas and gamma^{D+1} "
                         "of one size")
    n = D + 2
    target = np.zeros((n, n), dtype=complex)
    target[:-1, :-1] = 2.0 * rep.metric
    target[-1, -1] = 2.0
    # The adjoint has entry (cols[i], i) = conj(vals[i]), so it equals
    # sign * m exactly when cols is an involution and conj(vals[cols]) =
    # sign * vals.
    sign = np.array([1.0] + [-1.0] * D + [1.0])
    identity_cols = np.arange(d)
    anti = np.zeros((n, n), dtype=bool)
    adjoint = np.zeros(n, dtype=bool)
    for lo, hi in _blocks(n, d):
        cols, vals = _stack(mats[lo:hi])
        adjoint[lo:hi] = (
            (np.take_along_axis(cols, cols, axis=1) == identity_cols).all(axis=1)
            & (np.take_along_axis(vals, cols, axis=1).conj()
               == sign[lo:hi, None] * vals).all(axis=1))
        for mu in range(hi):
            j = max(mu, lo)
            anti[mu, j:hi] = _anticommutators(mats[mu], cols[j - lo:],
                                              vals[j - lo:], target[mu, j:hi])
    anti, adjoint = anti.tolist(), adjoint.tolist()
    rows = [CheckRow(f"anticommutator_{mu}_{nu}", anti[mu][nu])
            for mu in range(D + 1) for nu in range(mu, D + 1)]
    rows.append(CheckRow("hermitian_gamma0", adjoint[0]))
    rows += [CheckRow(f"antihermitian_gamma{i}", adjoint[i])
             for i in range(1, D + 1)]
    rows.append(CheckRow("chirality_hermitian", adjoint[-1]))
    rows.append(CheckRow("chirality_squares_to_identity",
                         anti[-1][-1] and d == rep.spinor_dim))
    rows += [CheckRow(f"chirality_anticommutes_gamma{mu}", anti[mu][-1])
             for mu in range(D + 1)]
    if D % 2 == 1:
        cols, vals = gs[0].cols, gs[0].vals
        for g in gs[1:]:
            cols, vals = g.cols[cols], vals * g.vals[cols]
        # A zero or non-finite value persists through later products, so
        # checking the whole product checks each partial one.
        _check_values(vals)
        # Adding zero prints each signed zero of the phase as +0.
        phase = ch.vals[0] / vals[0] + 0
        ok = bool(abs(phase) == 1.0 and np.array_equal(ch.cols, cols)
                  and np.array_equal(ch.vals, phase * vals))
        rows.append(CheckRow("chirality_proportional_to_gamma_product", ok,
                             detail=f"phase {phase}"))
    return CliffordReport(D=D, spinor_dim=rep.spinor_dim, rows=tuple(rows))
