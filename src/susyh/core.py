"""Shared domain types: physical parameters, angular sectors, radial grids.

Units: hbar = c = 1 throughout; energies are reported in units of the mass m.
The Coulomb problem in D spatial dimensions has a natural radial length scale
|kappa| / (Z alpha m) per angular sector, used by the default grid rule.
Radial grids are uniform in t = ln r, the one scheme that resolves the r^s
cusp of the bound states at the origin.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SubcriticalError


@dataclass(frozen=True)
class PhysParams:
    """Coupling data for the D-dimensional Coulomb-Dirac problem.

    The stability bound z_alpha < (D - 1) / 2 keeps every angular sector
    subcritical, since the smallest |kappa| equals (D - 1) / 2.
    """

    D: int
    z_alpha: float
    m: float = 1.0

    def __post_init__(self):
        if (not isinstance(self.D, int)
                or not 2 <= self.D <= sys.float_info.max):
            raise ValueError(f"D must be an integer >= 2 within double "
                             f"range, got {self.D!r} (--D)")
        for name, flag in (("z_alpha", " (--zalpha)"), ("m", "")):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}{flag}")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        if self.z_alpha <= 0:
            raise ValueError(f"z_alpha must be positive, got {self.z_alpha} "
                             f"(--zalpha)")
        bound = (self.D - 1) / 2
        if self.z_alpha >= bound:
            raise ValueError(
                f"stability requires z_alpha < (D-1)/2 = {bound}, got "
                f"{self.z_alpha} at D = {self.D}; use a smaller z_alpha "
                f"(--zalpha) or a larger D (--D)"
            )


@dataclass(frozen=True)
class KappaSector:
    """One angular sector: orbital label l, sign, kappa = sign*(l + (D-1)/2).

    s = sqrt(kappa^2 - (Z alpha)^2) is the effective (generally irrational)
    angular-momentum parameter controlling the r -> 0 behavior r^s.
    """

    l: int
    sign: int
    kappa: float
    s: float

    @property
    def abs_kappa(self) -> float:
        return abs(self.kappa)


def kappa_of(params: PhysParams, l: int, sign: int) -> KappaSector:
    """Build the sector for orbital quantum number l and sign of kappa.

    kappa = sign * (l + (D-1)/2); half-integer for even D, integer for odd D.
    Raises SubcriticalError if kappa^2 <= (Z alpha)^2 (unreachable for
    parameters satisfying the stability bound, kept as a guard).
    """
    if not isinstance(l, int) or l < 0:
        raise ValueError(f"l must be a non-negative integer, got {l!r}")
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    try:
        abs_kappa = l + (params.D - 1) / 2
        kappa_sq = abs_kappa**2
    except OverflowError:
        raise ValueError(f"kappa^2 overflows a double at l = {l}, "
                         f"D = {params.D}") from None
    if kappa_sq <= params.z_alpha**2:
        raise SubcriticalError(
            f"kappa^2 = {kappa_sq} <= (z_alpha)^2 = {params.z_alpha**2}"
        )
    s = math.sqrt(kappa_sq - params.z_alpha**2)
    return KappaSector(l=l, sign=sign, kappa=sign * abs_kappa, s=s)


@dataclass(frozen=True)
class RadialGrid:
    """Staggered log-uniform radial grid on [r_min, r_max].

    The large component F lives on `nodes`, the small component G on
    `nodes_small`, shifted half a step toward the origin.  The step is
    constant in t = ln r, which resolves the r^s cusp at the origin.
    `weights`/`weights_small` are exact cell widths of a partition of
    [r_min, r_max], so each weight vector sums to r_max - r_min.
    """

    r_min: float
    r_max: float
    n_points: int
    step: float
    nodes: np.ndarray = field(repr=False)
    nodes_small: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    weights_small: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")
        for arr in (self.nodes, self.nodes_small, self.weights, self.weights_small):
            arr.flags.writeable = False

    def refined(self) -> "RadialGrid":
        """Same domain with twice the points."""
        return make_grid(self.r_min, self.r_max, self.n_points * 2)


def make_grid(r_min: float, r_max: float, n_points: int) -> RadialGrid:
    """Construct a staggered grid; see RadialGrid for the layout."""
    if not 0 < r_min < r_max < math.inf:
        raise ValueError(
            f"need 0 < r_min < r_max < inf, got r_min = {r_min!r}, "
            f"r_max = {r_max!r}"
        )
    n = int(n_points)
    t_min, t_max = math.log(r_min), math.log(r_max)
    h = (t_max - t_min) / (n + 1)
    t = t_min + h * np.arange(1, n + 1)
    nodes = np.exp(t)
    nodes_small = np.exp(t - h / 2)
    edges = np.exp(np.concatenate([[t_min], t[:-1] + h / 2, [t_max]]))
    edges_s = np.exp(np.concatenate([[t_min], t[:-1], [t_max]]))
    edges[0] = edges_s[0] = r_min
    edges[-1] = edges_s[-1] = r_max
    return RadialGrid(
        r_min=float(r_min), r_max=float(r_max), n_points=n,
        step=h, nodes=nodes, nodes_small=nodes_small,
        weights=edges[1:] - edges[:-1],
        weights_small=edges_s[1:] - edges_s[:-1],
    )


def default_grid(
    params: PhysParams,
    sector: KappaSector,
    n_points: int = 800,
    r_max: float | None = None,
) -> RadialGrid:
    """Sector-adapted grid on [wall * u, r_max], u = |kappa|/(Z alpha m).

    r_max is the outer radius itself, used exactly as given; None puts it
    at 60 * u, which holds the nodeless state's tail.  The wall factor
    10^(-max(6, 3/s)) keeps the truncated r^(2s) weight below ~1e-6 even
    for small s, while keeping the log-grid span (and hence the step) as
    small as accuracy allows.  Raises GridError when the wall falls below
    the smallest normal double, which it reaches as s -> 0 (near-critical
    z_alpha), or when r_max is not above the wall.
    """
    unit = sector.abs_kappa / (params.z_alpha * params.m)
    wall = 10.0 ** (-max(6.0, 3.0 / sector.s))
    r_min = wall * unit
    if not r_min >= np.finfo(np.float64).tiny:
        raise GridError(
            f"inner wall r_min = wall * u = {wall!r} * {unit!r} is below the "
            f"smallest normal double: the wall 10^(-3/s) underflowed at "
            f"s = {sector.s:.6g}; use a smaller z_alpha (--zalpha)"
        )
    if r_max is None:
        r_max = 60.0 * unit
    if r_max <= r_min:
        raise GridError(
            f"r_max = {r_max!r} is not above the inner wall r_min = "
            f"{r_min:.3g}; use a larger r_max (--r-max)"
        )
    return make_grid(r_min, r_max, n_points)
