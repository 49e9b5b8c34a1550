"""One benchmark process: set up a workload, then time stretches of it.

Started by run.py in a fresh interpreter, so set-up covers importing susyh.
A single client drives `susyh.cli.main` in-process: it sends the next op
only after the previous one returned and its output was checked.

After set-up the worker prints one JSON line with the time set-up ended.
Then each line it reads on stdin is a number of seconds: it runs whole
passes until that long has elapsed (at least one pass) and prints one JSON
line with the seconds it took.  Later stretches go on with the same
samples.  At the end of stdin it prints one JSON object with the raw
samples, which run.py turns into metrics.

Modes:

- setup: import, generate the pass, run one untimed warm-up op per primary
  command.  No stretches.
- measure: the same set-up; a pass is the primary ops.  Its max RSS is the
  workload's peak memory.
- canary: warm up the canary ops; a pass is one round of them.
- trace: primary and canary ops in one pass, alternating untraced and
  traced passes in one process, so the tracing overhead is measured there
  too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5


def import_susyh():
    """Import the package from this checkout's sources, never an installed copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import susyh
    import susyh.cli  # noqa: F401  (not imported by the package itself)
    if Path(susyh.__file__).resolve().parent != src / "susyh":
        raise ImportError(f"susyh imported from {susyh.__file__}, not {src}")
    return susyh


def _git_commit() -> str:
    # The ceiling keeps git from reporting an enclosing repository's commit
    # when the checkout itself is not a git repository.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _blas() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    record = {"name": info.get("name"), "version": info.get("version"),
              "threads": None}
    # OpenBLAS wheels export their thread query under a prefixed name.
    import ctypes
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("lib*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(dll, symbol):
                record["threads"] = getattr(dll, symbol)()
                return record
    return record


def environment(susyh) -> dict:
    import numpy as np
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "blas_thread_env": {k: os.environ[k] for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                             "MKL_NUM_THREADS") if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "susyh": susyh.__version__,
        "SUSYH_THREADS": os.environ.get("SUSYH_THREADS", "unset"),
    }


class Client:
    """Closed-loop client: run an op, check it, record its time."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.clock = tracer.now if tracer is not None else time.perf_counter
        self.outputs = {}     # argv -> stdout of its first run
        self.attempted = 0
        self.failures = []

    def run(self, op) -> float:
        """Seconds the op took; failures are recorded, not raised."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op_id = self.attempted
        out, err = io.StringIO(), io.StringIO()
        start = self.clock()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(op.argv))
        except Exception as exc:  # an op that raises is a failed op
            elapsed = self.clock() - start
            self._fail(op, f"raised {exc!r}")
            return elapsed
        elapsed = self.clock() - start
        text = out.getvalue()
        reason = checks.check(op, code, text)
        first = self.outputs.setdefault(op.argv, text)
        if reason is None and first != text:
            reason = "output differs from an earlier run of the same op"
        if reason is not None:
            self._fail(op, reason + (f"; stderr: {err.getvalue().strip()}"
                                     if err.getvalue() else ""))
        return elapsed

    def _fail(self, op, reason: str) -> None:
        self.failures.append(f"{' '.join(op.argv)}: {reason}")


class Loop:
    """Whole passes over a fixed list of ops, in stretches."""

    def __init__(self, client, ops):
        self.client = client
        self.ops = ops
        self.passes = 0
        self.samples = {}   # command -> ms of each op
        self.primary_ops = 0
        self.primary_seconds = 0.0   # time `cli.main` took for them

    def stretch(self, seconds: float) -> float:
        """Whole passes until `seconds` have elapsed; the seconds taken."""
        begin = self.client.clock()
        while True:
            for op in self.ops:
                elapsed = self.client.run(op)
                self.samples.setdefault(op.command, []).append(elapsed * 1e3)
                if op.primary:
                    self.primary_ops += 1
                    self.primary_seconds += elapsed
            self.passes += 1
            took = self.client.clock() - begin
            if took >= seconds:
                return took


def _traced_stretch(loops, tracer):
    """Alternate untraced and traced passes, the same number of each."""
    def stretch(seconds: float) -> float:
        took = 0.0
        while took < seconds:
            for loop, traced in zip(loops, (False, True)):
                tracer.enabled = traced
                took += loop.stretch(0.0)
        tracer.enabled = False
        return took
    return stretch


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "canary", "trace"),
                        required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    susyh = import_susyh()
    load = workloads.generate(args.workload, args.seed, tiny=args.tiny)
    tracer = None
    if args.mode == "trace":
        from tracing import Tracer
        tracer = Tracer()
        tracer.install(susyh)
    client = Client(susyh.cli, tracer)
    ops = load.canaries if args.mode == "canary" else load.ops
    warmup = load.canaries if args.mode == "canary" else load.warmup
    if args.mode == "trace":
        ops += load.canaries
        warmup += load.canaries
    for op in warmup:
        client.run(op)
    print(json.dumps({"setup_end": time.monotonic()}), flush=True)

    loop = Loop(client, ops)
    if tracer is None:
        stretch = loop.stretch
    else:
        traced = Loop(client, ops)
        stretch = _traced_stretch((loop, traced), tracer)
    for line in sys.stdin:
        print(json.dumps({"elapsed": stretch(float(line))}), flush=True)

    result = {"samples": loop.samples, "passes": loop.passes,
              "primary_ops": loop.primary_ops,
              "primary_seconds": loop.primary_seconds}
    if tracer is not None:
        result["traced_samples"] = traced.samples
        result["layers"] = tracer.layer_metrics(traced.passes)
        if args.trace_out:
            tracer.write(Path(args.trace_out))
    result.update({
        "attempted": client.attempted,
        "failed": len(client.failures),
        "failures": client.failures[:MAX_REPORTED_FAILURES],
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "env": environment(susyh),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
