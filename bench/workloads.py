"""Seeded workload generators for the susyh benchmark.

A workload is one *pass*: a fixed list of CLI invocations (argv lists for
`susyh.cli.main`) that the benchmark repeats until its time is up.  The seed
picks the physical parameters from each command's domain below; the same
seed always gives the same pass, a different seed a different one.  The
order of a pass is fixed by its slots, not by the seed: an op's time
depends on what ran just before it (memory the previous op freed must be
faulted in again), so a seeded order would add spread between seeds.

Ops of the commands a workload is about are *primary*.  Every workload
also reports a time for every other command, from *canary* ops: one small
op per missing command, with fixed parameters, timed in a process of its
own so that neither their memory nor their cache effects touch the primary
ops.

Domains (see README.md for the failures found just outside them):

- Z alpha is drawn from 0.1 ... 0.5 with Z alpha < (D - 1) / 2 and
  s = sqrt(kappa^2 - Z alpha^2) >= 0.4.
- blocks (`verify`, `kernel`): D in 2..6, l in {0, 1}.
- sectors (`spectrum`): D in 2..6, l in 0..2, both signs.
- ladders (`convergence`): the sector domain without |kappa| = 1/2.
- `levels`: --D 2:hi, hi in 30..40, --n-max 8.
- `verify --clifford-only`: --D 2:hi, hi in 12..14.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

Z_ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5)
MIN_S = 0.4

# A window solve costs about n times the number of levels in the window, and
# (|kappa|, sign) fixes that number.  So each pass has fixed slots of
# (|kappa|, sign, size) and the seed draws the rest: D and l for that
# |kappa|, and Z alpha.  Every seed then gives a pass of the same cost, and
# the median op lands in the same slot.
SPECTRUM_SLOTS = (  # one per |kappa| of the sector domain
    (0.5, 1, 20000), (1.0, 1, 50000), (1.5, 1, 100000),
    (2.0, -1, 20000), (2.5, -1, 50000), (3.0, -1, 100000),
    (3.5, 1, 20000), (4.0, 1, 50000), (4.5, 1, 100000),
)
LADDER_SLOTS = tuple(  # one per |kappa| of the ladder domain, then one finer
    (k / 2, 1 if k % 2 == 0 else -1, "400,800,1600") for k in range(2, 10)
) + ((2.5, 1, "800,1600,3200"),)
# verify and kernel blocks by |kappa| at the base grid; then one verify at 400.
BLOCK_SLOTS = (0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
BIG_BLOCK_SLOT = 2.0
VERIFY_BIG_POINTS = 400
LEVELS_STRATA = ((30, 33), (34, 37), (38, 40))
LEVELS_FORMATS = ("text", "csv", "json")
LEVELS_N_MAX = 8
CLIFFORD_TOPS = (12, 13, 14)

COMMANDS = ("verify", "kernel", "spectrum", "convergence", "levels", "clifford")
WORKLOADS = ("block_verify", "sector_solve", "catalog")
PRIMARY = {
    "block_verify": ("verify", "kernel"),
    "sector_solve": ("spectrum", "convergence"),
    "catalog": ("levels", "clifford"),
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation.  `command` names the timing it feeds."""

    command: str
    argv: tuple
    primary: bool
    params: tuple = ()  # (name, value) pairs the correctness check reads

    def param(self, name):
        return dict(self.params)[name]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple       # one pass of primary ops, in slot order
    warmup: tuple    # the cheapest op of each primary command, untimed
    canaries: tuple  # one canary op per command the pass leaves out


def _subcritical(D: int, l: int) -> list:
    abs_kappa = l + (D - 1) / 2
    return [za for za in Z_ALPHAS
            if za < (D - 1) / 2 and math.sqrt(abs_kappa ** 2 - za ** 2) >= MIN_S]


def block_domain() -> list:
    """(D, l, z_alpha) for `verify` and `kernel` blocks."""
    return [(D, l, za) for D in range(2, 7) for l in (0, 1)
            for za in _subcritical(D, l)]


def sector_domain() -> list:
    """(D, l, sign, z_alpha) for `spectrum`."""
    return [(D, l, sign, za) for D in range(2, 7) for l in range(3)
            for sign in (1, -1) for za in _subcritical(D, l)]


def ladder_domain() -> list:
    """(D, l, sign, z_alpha) for `convergence`: |kappa| = 1/2 has an error
    floor that breaks the fitted order on these ladders."""
    return [s for s in sector_domain() if s[1] + (s[0] - 1) / 2 >= 1.0]


def _sign_flag(sign: int) -> str:
    return "+" if sign > 0 else "-"


def verify_op(block, points=None, primary=True) -> Op:
    D, l, za = block
    argv = ["verify", "--D", str(D), "--abs-kappa", repr(l + (D - 1) / 2),
            "--zalpha", repr(za), "--format", "json"]
    if points is not None:
        argv += ["--grid-points", str(points)]
    return Op("verify", tuple(argv), primary, (("D", D), ("l", l), ("za", za)))


def kernel_op(block, primary=True) -> Op:
    D, l, za = block
    argv = ("kernel", "--D", str(D), "--abs-kappa", repr(l + (D - 1) / 2),
            "--zalpha", repr(za), "--format", "json")
    return Op("kernel", argv, primary, (("D", D), ("l", l), ("za", za)))


def spectrum_op(sector, points, primary=True) -> Op:
    D, l, sign, za = sector
    argv = ("spectrum", "--D", str(D), "--l", str(l), "--sign", _sign_flag(sign),
            "--zalpha", repr(za), "--grid-points", str(points),
            "--format", "json")
    return Op("spectrum", argv, primary,
              (("D", D), ("l", l), ("sign", sign), ("za", za), ("levels", 3)))


def convergence_op(sector, ladder, primary=True) -> Op:
    D, l, sign, za = sector
    argv = ("convergence", "--D", str(D), "--l", str(l),
            "--sign", _sign_flag(sign), "--zalpha", repr(za),
            "--grid-points", ladder, "--format", "json")
    return Op("convergence", argv, primary,
              (("D", D), ("l", l), ("sign", sign), ("za", za)))


def levels_op(lo, hi, fmt, n_max=LEVELS_N_MAX, primary=True) -> Op:
    d_flag = str(lo) if lo == hi else f"{lo}:{hi}"
    argv = ("levels", "--D", d_flag, "--n-max", str(n_max), "--format", fmt)
    return Op("levels", argv, primary,
              (("lo", lo), ("hi", hi), ("format", fmt), ("za", 0.4),
               ("n_max", n_max)))


def clifford_op(lo, hi, primary=True) -> Op:
    d_flag = str(lo) if lo == hi else f"{lo}:{hi}"
    argv = ("verify", "--clifford-only", "--D", d_flag, "--format", "json")
    return Op("clifford", argv, primary, (("lo", lo), ("hi", hi)))


def _draw_sector(rng: random.Random, domain: list, slot: tuple) -> tuple:
    abs_kappa, sign = slot[:2]
    return rng.choice([s for s in domain
                       if s[1] + (s[0] - 1) / 2 == abs_kappa and s[2] == sign])


def _draw_block(rng: random.Random, abs_kappa: float) -> tuple:
    return rng.choice([b for b in block_domain()
                       if b[1] + (b[0] - 1) / 2 == abs_kappa])


# Canaries, one per command, with fixed parameters: they give every command a
# time on every workload, and a seed would only add spread.  They are sized
# to take well under a second, so that a short share of the run gives each
# of them a steady median.
CANARIES = {
    "verify": verify_op((3, 0, 0.5), 150, primary=False),
    "kernel": kernel_op((3, 0, 0.5), primary=False),
    "spectrum": spectrum_op((4, 0, 1, 0.3), 10000, primary=False),
    "convergence": convergence_op((5, 0, -1, 0.2), "400,800,1600",
                                  primary=False),
    "levels": levels_op(5, 5, "json", n_max=50, primary=False),
    "clifford": clifford_op(12, 12, primary=False),
}


def _block_verify(rng: random.Random) -> list:
    ops = []
    for abs_kappa in BLOCK_SLOTS:
        block = _draw_block(rng, abs_kappa)
        ops += [verify_op(block), kernel_op(block)]
    ops.append(verify_op(_draw_block(rng, BIG_BLOCK_SLOT), VERIFY_BIG_POINTS))
    return ops


def _sector_solve(rng: random.Random) -> list:
    ops = [spectrum_op(_draw_sector(rng, sector_domain(), slot), slot[2])
           for slot in SPECTRUM_SLOTS]
    ops += [convergence_op(_draw_sector(rng, ladder_domain(), slot), slot[2])
            for slot in LADDER_SLOTS]
    return ops


def _catalog(rng: random.Random) -> list:
    ops = [levels_op(2, rng.randint(lo, hi), fmt)
           for lo, hi in LEVELS_STRATA for fmt in LEVELS_FORMATS]
    ops += [clifford_op(2, hi) for hi in CLIFFORD_TOPS]
    return ops


_PASSES = {
    "block_verify": _block_verify,
    "sector_solve": _sector_solve,
    "catalog": _catalog,
}


def _cost_key(op: Op) -> tuple:
    """Size proxy used to pick the cheapest op of a command for warm-up."""
    argv = op.argv
    points = argv[argv.index("--grid-points") + 1] if "--grid-points" in argv else ""
    d_flag = argv[argv.index("--D") + 1]
    return (len(points), points, len(d_flag), d_flag)


def _warmup(ops: list) -> tuple:
    chosen = {}
    for op in ops:
        best = chosen.get(op.command)
        if best is None or _cost_key(op) < _cost_key(best):
            chosen[op.command] = op
    return tuple(chosen[c] for c in COMMANDS if c in chosen)


def generate(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload's pass for this seed.

    tiny keeps only the warm-up op of each primary command, for smoke tests.
    """
    if name not in _PASSES:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = random.Random(f"{name}:{seed}")
    ops = _PASSES[name](rng)
    warmup = _warmup(ops)
    if tiny:
        ops = list(warmup)
    canaries = tuple(CANARIES[c] for c in COMMANDS if c not in PRIMARY[name])
    return Workload(name=name, seed=seed, ops=tuple(ops), warmup=warmup,
                    canaries=canaries)
