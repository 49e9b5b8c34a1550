"""Shared domain types: physical parameters, angular sectors, radial grids.

Units: hbar = c = 1 throughout; energies are reported in units of the mass m.
The Coulomb problem in D spatial dimensions has a natural radial length scale
|kappa| / (Z alpha m) per angular sector, used by the default grid rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GridError, SubcriticalError

UNIFORM = "uniform"
LOG_UNIFORM = "log_uniform"
_SCHEMES = (UNIFORM, LOG_UNIFORM)


@dataclass(frozen=True)
class PhysParams:
    """Coupling data for the D-dimensional Coulomb-Dirac problem.

    The stability bound z_alpha < (D - 1) / 2 keeps every angular sector
    subcritical, since the smallest |kappa| equals (D - 1) / 2.
    allow_free permits z_alpha == 0 for free-particle consistency checks.
    """

    D: int
    z_alpha: float
    m: float = 1.0
    allow_free: bool = False

    def __post_init__(self):
        if not isinstance(self.D, int) or self.D < 2:
            raise ValueError(f"D must be an integer >= 2, got {self.D!r}")
        for name in ("z_alpha", "m"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.m <= 0:
            raise ValueError(f"mass must be positive, got {self.m}")
        lo = 0.0 if self.allow_free else None
        if self.z_alpha < 0 or (self.z_alpha == 0 and lo is None):
            raise ValueError(f"z_alpha must be positive, got {self.z_alpha}")
        bound = (self.D - 1) / 2
        if self.z_alpha >= bound:
            raise ValueError(
                f"stability requires z_alpha < (D-1)/2 = {bound}, got {self.z_alpha}"
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
    abs_kappa = l + (params.D - 1) / 2
    if abs_kappa**2 <= params.z_alpha**2:
        raise SubcriticalError(
            f"kappa^2 = {abs_kappa**2} <= (z_alpha)^2 = {params.z_alpha**2}"
        )
    s = math.sqrt(abs_kappa**2 - params.z_alpha**2)
    return KappaSector(l=l, sign=sign, kappa=sign * abs_kappa, s=s)


@dataclass(frozen=True)
class RadialGrid:
    """Staggered radial grid on [r_min, r_max].

    The large component F lives on `nodes`, the small component G on
    `nodes_small`, shifted half a step toward the origin.  For the uniform
    scheme the step is constant in r; for log_uniform it is constant in
    t = ln r.  `weights`/`weights_small` are exact cell widths of a partition
    of [r_min, r_max], so each weight vector sums to r_max - r_min.
    """

    scheme: str
    r_min: float
    r_max: float
    n_points: int
    step: float
    nodes: np.ndarray = field(repr=False)
    nodes_small: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    weights_small: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not (0 < self.r_min < self.r_max):
            raise ValueError(f"need 0 < r_min < r_max, got {self.r_min}, {self.r_max}")
        if self.n_points < 8:
            raise ValueError(f"n_points must be >= 8, got {self.n_points}")
        for arr in (self.nodes, self.nodes_small, self.weights, self.weights_small):
            arr.flags.writeable = False

    def refined(self, factor: int = 2) -> "RadialGrid":
        """Same domain and scheme with n_points scaled by `factor`."""
        return make_grid(self.scheme, self.r_min, self.r_max, self.n_points * factor)


def _partition_weights(edges_low: np.ndarray, edges_high: np.ndarray) -> np.ndarray:
    return edges_high - edges_low


def make_grid(scheme: str, r_min: float, r_max: float, n_points: int) -> RadialGrid:
    """Construct a staggered grid; see RadialGrid for the layout."""
    n = int(n_points)
    if scheme == UNIFORM:
        h = (r_max - r_min) / (n + 1)
        nodes = r_min + h * np.arange(1, n + 1)
        nodes_small = nodes - h / 2
        # F cells: [r_min, F_1 + h/2], interior [F_j - h/2, F_j + h/2], last to r_max.
        edges = np.concatenate([[r_min], nodes[:-1] + h / 2, [r_max]])
        # G cells start exactly at r_min (G_1 - h/2 = r_min); last extends to r_max.
        edges_s = np.concatenate([[r_min], nodes_small[:-1] + h / 2, [r_max]])
    elif scheme == LOG_UNIFORM:
        t_min, t_max = math.log(r_min), math.log(r_max)
        h = (t_max - t_min) / (n + 1)
        t = t_min + h * np.arange(1, n + 1)
        nodes = np.exp(t)
        nodes_small = np.exp(t - h / 2)
        edges = np.exp(np.concatenate([[t_min], t[:-1] + h / 2, [t_max]]))
        edges_s = np.exp(np.concatenate([[t_min], t[:-1], [t_max]]))
        edges[0] = edges_s[0] = r_min
        edges[-1] = edges_s[-1] = r_max
    else:
        raise ValueError(f"scheme must be one of {_SCHEMES}, got {scheme!r}")
    w = _partition_weights(edges[:-1], edges[1:])
    w_s = _partition_weights(edges_s[:-1], edges_s[1:])
    return RadialGrid(
        scheme=scheme, r_min=float(r_min), r_max=float(r_max), n_points=n,
        step=h, nodes=nodes, nodes_small=nodes_small,
        weights=w, weights_small=w_s,
    )


def default_grid(
    params: PhysParams,
    sector: KappaSector,
    n_points: int = 800,
    scheme: str = LOG_UNIFORM,
    r_max_factor: float = 60.0,
    wall_factor: float | None = None,
) -> RadialGrid:
    """Sector-adapted grid on [wall * u, r_max_factor * u], u = |kappa|/(Z alpha m).

    The wall factor 10^(-max(6, 3/s)) keeps the truncated r^(2s) weight below
    ~1e-6 even for small s, while keeping the log-grid span (and hence the
    step) as small as accuracy allows.  Raises GridError when the wall
    falls below the smallest normal double, which the default reaches as
    s -> 0 (near-critical z_alpha).
    """
    if params.z_alpha == 0:
        raise ValueError("default_grid needs z_alpha > 0; build an explicit grid")
    unit = sector.abs_kappa / (params.z_alpha * params.m)
    if wall_factor is None:
        if scheme == LOG_UNIFORM:
            wall_factor = 10.0 ** (-max(6.0, 3.0 / sector.s))
        else:
            wall_factor = 1.0 / (n_points + 1) * r_max_factor
    r_min = wall_factor * unit
    if not r_min >= np.finfo(np.float64).tiny:
        raise GridError(
            f"inner wall r_min = wall_factor * u = {wall_factor!r} * {unit!r} "
            f"is below the smallest normal double: the wall underflowed at "
            f"s = {sector.s:.6g}; pass a larger wall_factor or use a smaller "
            f"z_alpha"
        )
    return make_grid(scheme, r_min, r_max_factor * unit, n_points)
