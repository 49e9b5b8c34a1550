"""susyh benchmark: one seeded workload, timed end to end or traced per layer.

    python3 bench/run.py --workload {block_verify,sector_solve,catalog} \
        --seed N --seconds S --trace {0,1}

--trace 0 sets the workload up SETUP_RUNS times, each in a fresh interpreter
(set-up time is the median).  The last of them times the primary ops and one
more process times the canary ops; they take turns, a pass of primary ops
then a stretch of canaries, so both see the whole run.  It prints the
end-to-end metrics.  --trace 1 runs one traced process and prints the
per-layer metrics.  Summary lines start with '#'; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}.  The exit
code is non-zero, with no result printed, when the run could not complete
(for instance when src/susyh is missing).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import COMMANDS, PRIMARY, WORKLOADS  # noqa: E402

SETUP_RUNS = 3
CANARY_SHARE = 1 / 3   # of the timed seconds; the rest times the primary ops
TIME_LIMIT_S = 170.0
# With two CPUs, a second BLAS thread spin-waits after each call and slows
# whatever runs next; one thread halves the run-to-run spread.
BLAS_ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
) + tuple((f"{c}_ms", "ms", "lower") for c in COMMANDS) + (
    ("peak_rss_mb", "MB", "lower"),
)

PER_LAYER_NAMES = (
    "cli.main.self_s",
    "clifford.build_gamma_rep_s",
    "clifford.verify_clifford_s",
    "clifford.verify_clifford.calls",
    "analytic.level_scheme_export_s",
    "analytic.energy.calls",
    "analytic.kernel_wavefunction_s",
    "analytic.kernel_wavefunction.calls",
    "core.make_grid_s",
    "core.make_grid.calls",
    "core.default_grid.calls",
    "radial.build_radial_hamiltonian_s",
    "radial.build_radial_hamiltonian.calls",
    "radial.dense_mb",
    "radial.solve_bound_levels_s",
    "radial.solve_bound_levels.calls",
    "radial.stability_s",
    "radial.window_levels_found",
    "radial.window_yield",
    "radial.solve_bound_levels.peak_mb",
    "radial.solve_spectrum_s",
    "radial.convergence_study_s",
    "susy.build_susy_block_s",
    "susy.build_susy_block.calls",
    "susy.dense_mb",
    "susy.build_A_s",
    "susy.build_A.calls",
    "susy.pinning_s",
    "susy.alternate_a_mp_s",
    "susy.build_supercharges_s",
    "susy.verify_A_squared.self_s",
    "susy.verify_A_squared.peak_mb",
    "susy.spectral_pairing_at_s",
    "susy.kernel_annihilation_report.self_s",
    "trace.overhead",
) + tuple(f"trace.overhead.{c}" for c in COMMANDS)


def layer_unit(name: str) -> tuple:
    """(unit, better) of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s", "lower"
    if name.endswith("_mb"):
        return "MB", "lower"
    if name.endswith(".calls") or name == "radial.window_levels_found":
        return "count", "lower"
    if name == "radial.window_yield":
        return "ratio", "higher"
    return "ratio", "lower"   # trace.overhead*


PER_LAYER = tuple((n,) + layer_unit(n) for n in PER_LAYER_NAMES)


class BenchError(Exception):
    """The run could not complete; no result is printed."""


class Worker:
    """worker.py in a fresh interpreter: it sets up, then times stretches of
    whole passes on request (see worker.py)."""

    def __init__(self, args, mode: str, deadline: float, trace_out=None):
        cmd = [sys.executable, str(BENCH / "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--mode", mode]
        if args.tiny:
            cmd.append("--tiny")
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONHASHSEED="0", **BLAS_ONE_THREAD)
        env.pop("SUSYH_THREADS", None)
        self.mode = mode
        self.deadline = deadline
        start = time.monotonic()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True,
                                     env=env, cwd=ROOT)
        try:
            self.setup_s = self._reply()["setup_end"] - start
        except BaseException:
            self.stop()
            raise

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _reply(self) -> dict:
        left = self.deadline - time.monotonic()
        if not select.select([self.proc.stdout], [], [], max(0.0, left))[0]:
            raise BenchError(f"{self.mode} worker passed the "
                             f"{TIME_LIMIT_S:.0f} s limit")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(f"{self.mode} worker exited with "
                             f"{self.proc.wait()}")
        return json.loads(line)

    def stretch(self, seconds: float) -> float:
        """Whole passes until `seconds` have elapsed; the seconds taken."""
        try:
            self.proc.stdin.write(f"{seconds!r}\n")
            self.proc.stdin.flush()
        except BrokenPipeError:
            raise BenchError(f"{self.mode} worker exited with "
                             f"{self.proc.wait()}") from None
        return self._reply()["elapsed"]

    def finish(self) -> dict:
        self.proc.stdin.close()
        result = self._reply()
        if self.proc.wait() != 0:
            raise BenchError(f"{self.mode} worker exited with "
                             f"{self.proc.returncode}")
        return result

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def tail_percentile(values: list):
    """(p, value) for the highest of p99/p90/p50 with >= 10 samples beyond
    it, or None when there are fewer than 20 samples."""
    cuts = statistics.quantiles(values, n=100, method="inclusive") \
        if len(values) >= 2 else []
    for p in (99, 90, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, cuts[p - 1]
    return None


def _timing_detail(values: list) -> str:
    tail = tail_percentile(values)
    text = f"median of {len(values)} ops"
    if tail is not None:
        text += f", p{tail[0]} {tail[1]:.4g} ms"
    else:
        text += ", too few for a tail percentile"
    return text


def end_to_end(args, deadline: float) -> tuple:
    setups, results = [], []
    for _ in range(0 if args.tiny else SETUP_RUNS - 1):
        with Worker(args, "setup", deadline) as setup:
            setups.append(setup.setup_s)
            results.append(setup.finish())
    with Worker(args, "measure", deadline) as primary, \
            Worker(args, "canary", deadline) as canaries:
        setups.append(primary.setup_s)
        timed = canary_timed = 0.0
        while timed + canary_timed < args.seconds:
            timed += primary.stretch(0.0)
            owed = timed * CANARY_SHARE / (1 - CANARY_SHARE) - canary_timed
            if owed > 0:
                canary_timed += canaries.stretch(owed)
        main, canary = primary.finish(), canaries.finish()
    results += [main, canary]
    samples = {c: (main if c in PRIMARY[args.workload] else canary)["samples"]
               .get(c) for c in COMMANDS}
    missing = [c for c in COMMANDS if not samples[c]]
    if missing:
        raise BenchError(f"no timed ops for {missing}")
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main["primary_ops"] / main["primary_seconds"],
        "peak_rss_mb": main["peak_rss_mb"],
    }
    details = {
        "setup_s": "median of " + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{main['primary_ops']} primary ops in "
                     f"{main['primary_seconds']:.2f} s of cli.main, "
                     f"{main['passes']} passes",
        "peak_rss_mb": "max RSS of the process timing the primary ops",
    }
    for c in COMMANDS:
        metrics[f"{c}_ms"] = statistics.median(samples[c])
        kind = "primary" if c in PRIMARY[args.workload] else "canary"
        details[f"{c}_ms"] = f"{kind}, " + _timing_detail(samples[c])
    units = {name: unit for name, unit, _ in END_TO_END}
    return results, {k: (metrics[k], units[k], details[k]) for k in units}, []


def per_layer(args, deadline: float) -> tuple:
    out = BENCH / "out" / f"trace-{args.workload}-{args.seed}.jsonl"
    with Worker(args, "trace", deadline, trace_out=out) as worker:
        worker.stretch(args.seconds)
        result = worker.finish()
    layers = dict(result["layers"])
    plain, traced = result["samples"], result["traced_samples"]
    for c in COMMANDS:
        layers[f"trace.overhead.{c}"] = (statistics.median(traced[c])
                                         / statistics.median(plain[c]))
    layers["trace.overhead"] = (sum(map(sum, traced.values()))
                                / sum(map(sum, plain.values())))
    missing = [n for n in PER_LAYER_NAMES if n not in layers]
    if missing:
        raise BenchError(f"trace produced no {missing}")
    passes = result["passes"]
    metrics = {name: (layers[name], unit, f"per pass, {passes} traced passes")
               for name, unit, _ in PER_LAYER}
    extra = {k: v for k, v in layers.items() if k not in metrics}
    notes = [f"spans written to {out.relative_to(ROOT)}",
             "other layer values: " + json.dumps(extra, sort_keys=True)]
    return [result], metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="one small op per command and one set-up "
                             "(for smoke tests; not a benchmark result)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if not (ROOT / "src" / "susyh" / "__init__.py").is_file():
            raise BenchError(f"no susyh sources under {ROOT / 'src'}")
        measure = per_layer if args.trace else end_to_end
        results, metrics, notes = measure(args, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"# susyh benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("# env " + json.dumps(results[-1]["env"], sort_keys=True))
    for note in notes:
        print("# " + note)
    for r in results:
        for failure in r["failures"]:
            print(f"# FAILED {failure}")
    for name, (value, unit, detail) in metrics.items():
        print(f"# {name:40s} {value:14.6g} {unit:6s} {detail}")
    print(f"# {'failed_ratio':40s} {failed / attempted:14.6g} {'ratio':6s} "
          f"{failed} of {attempted} ops failed")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
