"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 bench/smoke.py

Checks that BENCHMARK.json declares exactly the metrics run.py prints, that
the seeded generators are deterministic, that every workload prints every
metric by name and unit in both modes, and that the benchmark fails without
printing a result when the package sources are missing.  Exits non-zero on
the first failed check.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAIL: {message}")


def check_declaration() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check(spec["command"] == ["python3", "bench/run.py"], "command")
    check(spec["paths"] == ["bench"], "paths")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "workload names")
    for key, declared in (("end_to_end", run.END_TO_END),
                          ("per_layer", run.PER_LAYER)):
        got = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        check(got == list(declared), f"{key} differs from run.py")
    check(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds")
    return spec


def check_generators() -> None:
    for name in workloads.WORKLOADS:
        first = workloads.generate(name, 7)
        check(first == workloads.generate(name, 7), f"{name}: same seed differs")
        check(first.ops != workloads.generate(name, 8).ops,
              f"{name}: seeds 7 and 8 give the same ops")
        primary = {op.command for op in first.ops}
        check(primary == set(workloads.PRIMARY[name]),
              f"{name}: primary commands {primary}")
        canaries = [op.command for op in first.canaries]
        check(sorted(canaries + sorted(primary)) == sorted(workloads.COMMANDS),
              f"{name}: canaries {canaries}")


def run_bench(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, stdout=subprocess.PIPE, text=True, timeout=180)


def check_runs(spec: dict) -> None:
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            check(proc.returncode == 0, f"{workload} trace={trace} exit code")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            check(set(result) == RESULT_KEYS, f"result keys {set(result)}")
            check(result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: {proc.stdout}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace}: metrics {got}")
            for name, m in result["metrics"].items():
                value = m["value"]
                check(isinstance(value, float) and math.isfinite(value)
                      and (value > 0 or key == "per_layer"),
                      f"{workload} {name} = {value!r}")
            print(f"smoke: {workload} trace={trace} ok "
                  f"({result['attempted']} ops)")


def check_missing_sources() -> None:
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    proc = run_bench(bare, workloads.WORKLOADS[0], 0)
    shutil.rmtree(bare)
    check(proc.returncode != 0, "ran without src/susyh")
    check(proc.stdout.strip() == "", "printed a result without src/susyh")
    print("smoke: fails without sources ok")


def main() -> int:
    spec = check_declaration()
    check_generators()
    check_missing_sources()
    check_runs(spec)
    print("smoke: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
