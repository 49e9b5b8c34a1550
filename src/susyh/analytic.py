"""Closed-form spectrum of the D-dimensional Coulomb-Dirac problem.

Level formula, in units of the mass:

    E/m = [1 + (Z alpha)^2 / (n' + s)^2]^(-1/2),
    s = sqrt(kappa^2 - (Z alpha)^2),  kappa = +-(l + (D-1)/2),

with radial quantum number n' = n - l - 1 >= 0 and principal label
n >= l + 1.  The two kappa signs are exactly degenerate for n' >= 1; the
n' = 0 state exists only for kappa > 0 (the supersymmetric ladder bottom).
The formula depends on (l, D) only through s, which drives the exact
degeneracy under (l, D) -> (l + 1, D - 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .core import KappaSector, PhysParams, RadialGrid, kappa_of
from .errors import InvalidLabelError, NormalizationError, SubcriticalError

_EPS = np.finfo(float).eps

# Largest zero-mode weight outside [r_min, r_max] kernel_wavefunction accepts.
MAX_TRUNCATION = 1e-8
# NonrelReport.passed: each coupling halving divides the deviation by
# NONREL_RATIO to within relative NONREL_RTOL.  InterdimReport.passed:
# largest relative energy difference.
NONREL_RATIO = 4.0
NONREL_RTOL = 0.2
INTERDIM_TOL = 1e-15


@dataclass(frozen=True)
class LevelLabel:
    """Bound-state label (n, l, sign): n >= l + 1 >= 1, sign in {+1, -1}.

    n' = n - l - 1 counts radial nodes; n' = 0 requires sign = +1 because the
    nodeless state exists only in the kappa > 0 sector.
    """

    n: int
    l: int
    sign: int

    def __post_init__(self):
        if not isinstance(self.l, int) or self.l < 0:
            raise InvalidLabelError(f"l must be a non-negative integer, got {self.l!r}")
        if not isinstance(self.n, int) or self.n < self.l + 1:
            raise InvalidLabelError(f"need n >= l + 1, got n={self.n!r}, l={self.l}")
        if self.sign not in (1, -1):
            raise InvalidLabelError(f"sign must be +1 or -1, got {self.sign!r}")
        if self.n == self.l + 1 and self.sign != 1:
            raise InvalidLabelError(
                f"n' = 0 exists only for sign = +1, got label ({self.n}, {self.l}, -1)"
            )

    @property
    def n_prime(self) -> int:
        return self.n - self.l - 1


def level_label(sector: KappaSector, k: int) -> LevelLabel:
    """Label of the sector's k-th bound level, k = 0 the lowest: n' = k for
    kappa > 0, n' = k + 1 for kappa < 0, which has no n' = 0 level."""
    n_prime = k if sector.sign > 0 else k + 1
    return LevelLabel(n=sector.l + 1 + n_prime, l=sector.l, sign=sector.sign)


def ground_energy(params: PhysParams, kappa: float) -> float:
    """Lowest level of the kappa sector (the supersymmetric singlet), E/m.

    Computed in two algebraically equal forms,
    sqrt(1 - (Z alpha / kappa)^2) and [1 + (Z alpha / s)^2]^(-1/2),
    asserted equal to machine precision; the second form is returned so the
    value matches energy() at n' = 0 bitwise.  Normalizable only for
    kappa > 0; the kappa argument itself is unconstrained in sign here.
    """
    za = params.z_alpha
    if kappa == 0 or kappa * kappa <= za * za:
        raise SubcriticalError(f"kappa^2 = {kappa * kappa} <= (z_alpha)^2 = {za * za}")
    form_root = math.sqrt(1.0 - (za / kappa) ** 2)
    # s as kappa_of forms it: x**2 and x*x can differ by an ulp.
    s = math.sqrt(kappa**2 - za**2)
    form_s = (1.0 + (za / s) ** 2) ** -0.5
    assert abs(form_root - form_s) <= 16 * _EPS
    return form_s


def _level_energy(z_alpha: float, n_prime: int, s: float) -> float:
    """The level formula, with the denominator assembled as n' + s."""
    return (1.0 + (z_alpha / (n_prime + s)) ** 2) ** -0.5


def energy(params: PhysParams, label: LevelLabel) -> float:
    """E/m for a bound-state label, via the closed-form level formula.

    The denominator is assembled as n' + s with the integer part computed
    exactly, so levels that share (n', s) agree bitwise; this makes the
    kappa-sign degeneracy and the interdimensional (l, D) -> (l+1, D-2)
    degeneracy exact equalities of floats, not approximate ones.
    enumerate_levels goes further: a degenerate pair there shares one
    computed float.
    """
    sector = kappa_of(params, label.l, label.sign)
    return _level_energy(params.z_alpha, label.n_prime, sector.s)


@dataclass(frozen=True)
class SpectrumRow:
    label: LevelLabel
    kappa: float
    s: float
    E_over_m: float
    partner: LevelLabel | None

    @property
    def is_ladder_bottom(self) -> bool:
        return self.label.n_prime == 0


@dataclass(frozen=True)
class SpectrumTable:
    """All analytic levels with n <= n_max, sorted by (l, n), + before -.

    Rows with n' >= 1 carry a partner label: the opposite-kappa state exactly
    degenerate with them.  n' = 0 rows (ladder bottoms) have partner None.
    """

    params: PhysParams
    n_max: int
    rows: tuple


def enumerate_levels(params: PhysParams, n_max: int) -> SpectrumTable:
    """Enumerate labels with n <= n_max and link degenerate partners.

    Each degenerate pair shares one computed float: its energy is evaluated
    once, from the one sector both labels' |kappa| gives.
    """
    if n_max < 1:
        raise InvalidLabelError(f"n_max must be >= 1, got {n_max}")
    rows = []
    for l in range(n_max):
        sector = kappa_of(params, l, 1)
        kappa, s = sector.kappa, sector.s
        for n in range(l + 1, n_max + 1):
            plus = LevelLabel(n=n, l=l, sign=1)
            e = _level_energy(params.z_alpha, n - l - 1, s)
            if n == l + 1:
                rows.append(SpectrumRow(plus, kappa, s, e, None))
                continue
            minus = LevelLabel(n=n, l=l, sign=-1)
            rows.append(SpectrumRow(plus, kappa, s, e, minus))
            rows.append(SpectrumRow(minus, -kappa, s, e, plus))
    return SpectrumTable(params=params, n_max=n_max, rows=tuple(rows))


def kernel_wavefunction(
    params: PhysParams,
    sector: KappaSector,
    grid: RadialGrid,
) -> tuple:
    """Exact zero mode of the sector-swap operator, sampled on the grid.

    In x = (Z alpha m / kappa) r the doublet is
        F = x^s e^(-x),   G = ((kappa - s) / Z alpha) * x^s e^(-x),
    with F on grid.nodes and G on grid.nodes_small; the same two-component
    profile holds in every D (radial prefactors cancel in this reduction).
    Returned quadrature-normalized.  Raises NormalizationError for
    kappa <= 0 (no normalizable zero mode) or when the weight outside
    [r_min, r_max] exceeds MAX_TRUNCATION.
    """
    if sector.kappa <= 0:
        raise NormalizationError(
            f"zero mode is normalizable only for kappa > 0, got {sector.kappa}"
        )
    kappa, s, za = sector.kappa, sector.s, params.z_alpha
    scale = za * params.m / kappa
    x_f = scale * grid.nodes
    x_g = scale * grid.nodes_small
    # Truncated fraction of the x^(2s) e^(-2x) weight outside the domain.
    a = 2 * s + 1
    tail = special.gammainc(a, 2 * scale * grid.r_min) \
        + special.gammaincc(a, 2 * scale * grid.r_max)
    if tail > MAX_TRUNCATION:
        raise NormalizationError(
            f"truncated weight {tail:.3e} exceeds {MAX_TRUNCATION:.3e}; "
            f"widen [r_min, r_max] (r_max = {grid.r_max:.6g}): use a larger "
            f"r_max (verify --r-max) or a smaller |kappa| (--abs-kappa)"
        )
    F = x_f**s * np.exp(-x_f)
    G = ((kappa - s) / za) * x_g**s * np.exp(-x_g)
    norm = math.sqrt(grid.weights @ F**2 + grid.weights_small @ G**2)
    return F / norm, G / norm


@dataclass(frozen=True)
class NonrelRow:
    label: LevelLabel
    n_eff: float
    deviations: tuple  # ((z_alpha, binding, binding_nr, deviation), ...)
    ratios: tuple      # deviation(za_k) / deviation(za_{k+1})


@dataclass(frozen=True)
class NonrelReport:
    """Nonrelativistic-limit scaling of every level with n <= n_max.

    deviation = binding/binding_nr - 1 with binding = E/m - 1 and
    binding_nr = -(Z alpha)^2 / (2 n_eff^2), n_eff = n + (D-3)/2.  The
    deviation is O((Z alpha)^2), so each coupling halving should divide it
    by ~4; `ratios` records the measured factors.
    """

    D: int
    z_alphas: tuple
    rows: tuple

    def passed(self) -> bool:
        return all(abs(r / NONREL_RATIO - 1.0) <= NONREL_RTOL
                   for row in self.rows for r in row.ratios)


def nonrel_limit_check(
    params: PhysParams,
    z_alphas: tuple = (0.2, 0.1, 0.05),
    n_max: int = 3,
) -> NonrelReport:
    """Compare each level against the Coulomb formula as Z alpha -> 0.

    params supplies D and m; its own z_alpha is not used.  z_alphas must be
    decreasing (successive halvings give the cleanest factor-4 ratios).
    """
    if any(b >= a for a, b in zip(z_alphas, z_alphas[1:])):
        raise ValueError(f"z_alphas must be strictly decreasing, got {z_alphas}")
    rows = []
    for l in range(n_max):
        for n in range(l + 1, n_max + 1):
            for sign in (1, -1):
                if sign == -1 and n == l + 1:
                    continue
                label = LevelLabel(n=n, l=l, sign=sign)
                n_eff = n + (params.D - 3) / 2
                devs = []
                for za in z_alphas:
                    p = PhysParams(D=params.D, z_alpha=za, m=params.m)
                    binding = energy(p, label) - 1.0
                    binding_nr = -(za * za) / (2.0 * n_eff * n_eff)
                    devs.append((za, binding, binding_nr,
                                 binding / binding_nr - 1.0))
                ratios = tuple(devs[k][3] / devs[k + 1][3]
                               for k in range(len(devs) - 1))
                rows.append(NonrelRow(label=label, n_eff=n_eff,
                                      deviations=tuple(devs), ratios=ratios))
    return NonrelReport(D=params.D, z_alphas=tuple(z_alphas), rows=tuple(rows))


@dataclass(frozen=True)
class InterdimRow:
    sign: int
    label_high: LevelLabel
    label_low: LevelLabel
    E_high: float
    E_low: float
    rel_diff: float


@dataclass(frozen=True)
class InterdimReport:
    D_high: int
    D_low: int
    z_alpha: float
    rows: tuple

    @property
    def max_rel_diff(self) -> float:
        return max(r.rel_diff for r in self.rows)

    def passed(self) -> bool:
        return self.max_rel_diff <= INTERDIM_TOL


def interdimensional_check(params: PhysParams, l: int, n_prime: int) -> InterdimReport:
    """Confirm E(D, l, n') equals E(D-2, l+1, n') for both kappa signs.

    Both labels share |kappa| = l + (D-1)/2 and hence s, so the energies are
    bitwise equal by construction of energy(); the report records the realized
    relative differences.  Raises InvalidLabelError when D < 4, or when the
    lower dimension D-2 is unstable at this coupling (Z alpha >= (D-3)/2).
    """
    if params.D < 4:
        raise InvalidLabelError(f"need D >= 4 for the (l+1, D-2) map, got D={params.D}")
    if n_prime < 0:
        raise InvalidLabelError(f"n_prime must be >= 0, got {n_prime}")
    try:
        params_low = PhysParams(D=params.D - 2, z_alpha=params.z_alpha, m=params.m)
    except ValueError as exc:
        raise InvalidLabelError(
            f"dimension {params.D - 2} is unstable at z_alpha = {params.z_alpha}: {exc}"
        ) from None
    rows = []
    for sign in (1, -1):
        if sign == -1 and n_prime == 0:
            continue
        hi = LevelLabel(n=l + 1 + n_prime, l=l, sign=sign)
        lo = LevelLabel(n=l + 2 + n_prime, l=l + 1, sign=sign)
        e_hi = energy(params, hi)
        e_lo = energy(params_low, lo)
        rows.append(InterdimRow(sign=sign, label_high=hi, label_low=lo,
                                E_high=e_hi, E_low=e_lo,
                                rel_diff=abs(e_hi - e_lo) / e_hi))
    return InterdimReport(D_high=params.D, D_low=params.D - 2,
                          z_alpha=params.z_alpha, rows=tuple(rows))


class SchemeRow(NamedTuple):
    id: str
    D: int
    tanh_D: float
    kappa: float
    n: int
    l: int
    E_over_m: float
    binding: float
    partner_id: str
    is_ladder_bottom: bool


@dataclass(frozen=True)
class LevelScheme:
    """Flattened level table across a family of dimensions, ready to export."""

    n_max: int
    rows: tuple

    COLUMNS = SchemeRow._fields


def _row_id(D: int, kappa: float, n: int) -> str:
    return f"D{D}:k{kappa:+g}:n{n}"


def level_scheme_export(family, n_max: int = 4) -> LevelScheme:
    """Levels for every PhysParams in `family`, with degeneracy links.

    binding = 1 - E/m; tanh_D is a bounded dimension coordinate for plotting.
    partner_id points at the opposite-kappa row of the same (D, n, l); empty
    for ladder bottoms (n' = 0), which is_ladder_bottom marks.
    """
    rows = []
    for params in family:
        D = params.D
        tanh_D = math.tanh(D)
        table = enumerate_levels(params, n_max).rows
        ids = [_row_id(D, row.kappa, row.label.n) for row in table]
        for k, row in enumerate(table):
            lab = row.label
            # A partnered + row is followed by its - partner, and only there.
            partner = "" if row.partner is None else ids[k + lab.sign]
            rows.append(SchemeRow(ids[k], D, tanh_D, row.kappa, lab.n, lab.l,
                                  row.E_over_m, 1.0 - row.E_over_m, partner,
                                  row.is_ladder_bottom))
    return LevelScheme(n_max=n_max, rows=tuple(rows))
