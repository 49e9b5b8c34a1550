"""Per-layer tracing of susyh from the outside.

`Tracer.install` replaces the public functions listed in WRAPPED with
wrappers, rebinding every module's copy of each name (the CLI and `susy`
import `default_grid` and `kappa_of` by name).  Nothing under `src/`
changes.  While enabled, each wrapped call records a span (id, parent, op
id, name, start, end) in memory; `write` saves them when the run ends.

Splits with no public boundary come from probes on the same inputs, run
right after the traced call and hidden from every span and op time:

- `radial.stability_s`: the call minus a rerun with stability_check=False.
  A second, untimed rerun asks for every level; its length is
  `radial.window_levels_found` (levels the window produced).
- `susy.pinning_s`: an automatic `build_A` (eta=None) minus a rerun with the
  sign it chose forced.  When the call also ran the alternate-assembly
  check, a rerun without that check is subtracted instead.

tracemalloc runs only inside the outermost `solve_bound_levels` and
`verify_A_squared` spans, for their `.peak_mb`.  Probes run before it
stops, so a probe and the call it is compared with run under the same
tracemalloc state.
"""

from __future__ import annotations

import contextlib
import inspect
import itertools
import json
import threading
import time
import tracemalloc
import warnings
from collections import Counter, defaultdict

WRAPPED = {
    "cli": ("main",),
    "clifford": ("build_gamma_rep", "verify_clifford"),
    "analytic": ("level_scheme_export", "kernel_wavefunction"),
    "core": ("make_grid", "default_grid"),
    "radial": ("build_radial_hamiltonian", "solve_bound_levels",
               "solve_spectrum", "convergence_study"),
    "susy": ("build_susy_block", "build_A", "alternate_a_mp",
             "build_supercharges", "verify_A_squared", "spectral_pairing_at",
             "kernel_annihilation_report"),
}
COUNTED = {"analytic": ("energy",)}   # called thousands of times: no spans
PEAK_SPANS = ("radial.solve_bound_levels", "susy.verify_A_squared")
SELF_SPANS = ("cli.main", "susy.verify_A_squared",
              "susy.kernel_annihilation_report")

_MB = 1e6
_ALL_LEVELS = 10 ** 6


class Tracer:
    def __init__(self):
        self.enabled = False
        self.op_id = None
        self.spans = []        # (id, parent, op_id, name, start, end)
        self.totals = Counter()  # additive per-layer quantities
        self.peaks = {}
        self._hidden = 0.0     # seconds spent in probes, off every clock
        self._paused = 0
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._op_root = None
        self._hooks = {
            "radial.build_radial_hamiltonian": self._after_hamiltonian,
            "radial.solve_bound_levels": self._after_solve,
            "susy.build_susy_block": self._after_block,
            "susy.build_A": self._after_build_A,
            "susy.build_supercharges": self._after_charges,
        }

    def now(self) -> float:
        """Clock for spans and op times: wall time minus probe time."""
        return time.perf_counter() - self._hidden

    @contextlib.contextmanager
    def hidden(self):
        """Run probes untraced and keep their time off every clock."""
        start = time.perf_counter()
        self._paused += 1
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                yield
        finally:
            self._paused -= 1
            self._hidden += time.perf_counter() - start

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        modules = [package] + [getattr(package, name) for name in WRAPPED]
        for mod_name, names in WRAPPED.items():
            for name in names:
                self._rebind(modules, getattr(package, mod_name), name,
                             self._span_wrapper)
        for mod_name, names in COUNTED.items():
            for name in names:
                self._rebind(modules, getattr(package, mod_name), name,
                             self._count_wrapper)

    def _rebind(self, modules, home, name, make) -> None:
        original = getattr(home, name)
        wrapper = make(f"{home.__name__.rsplit('.', 1)[-1]}.{name}", original)
        for mod in modules:
            if getattr(mod, name, None) is original:
                setattr(mod, name, wrapper)

    def _count_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.enabled and not self._paused:
                with self._lock:
                    self.totals[name + ".calls"] += 1
            return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def _span_wrapper(self, name, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)
        track_peak = name in PEAK_SPANS

        def wrapper(*args, **kwargs):
            if not self.enabled or self._paused:
                return fn(*args, **kwargs)
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else self._op_root
            if parent is None:
                self._op_root = span_id
            peak = track_peak and not tracemalloc.is_tracing()
            if peak:
                with self.hidden():
                    tracemalloc.start()
            try:
                stack.append(span_id)
                start = self.now()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = self.now()
                    stack.pop()
                    if parent is None:
                        self._op_root = None
                    if peak:
                        with self.hidden():
                            used = tracemalloc.get_traced_memory()[1] / _MB
                        self.peaks[name] = max(self.peaks.get(name, 0.0), used)
                    self.spans.append((span_id, parent, self.op_id, name,
                                       start, end))
                if hook is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(fn, bound.arguments, result, end - start)
            finally:
                if peak:
                    with self.hidden():
                        tracemalloc.stop()
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- after-call hooks ----------------------------------------------

    def _add(self, key: str, value: float) -> None:
        with self._lock:
            self.totals[key] += value

    # Bytes are summed as integers so that the per-pass MB repeat exactly.
    def _after_hamiltonian(self, fn, args, result, elapsed):
        self._add("radial.dense_mb", result.matrix.nbytes)

    def _after_block(self, fn, args, result, elapsed):
        self._add("susy.dense_mb", result.H_block.nbytes + result.K_block.nbytes)

    def _after_charges(self, fn, args, result, elapsed):
        mats = (result.Q1, result.Q2, result.Q_plus, result.Q_minus,
                result.H_susy)
        self._add("susy.dense_mb", sum(m.nbytes for m in mats))

    def _after_solve(self, fn, args, result, elapsed):
        unchecked = dict(args, stability_check=False)
        with self.hidden():
            if args["stability_check"]:
                start = time.perf_counter()
                fn(**unchecked)
                self._add("radial.stability_s",
                          elapsed - (time.perf_counter() - start))
            window = fn(**dict(unchecked, count=_ALL_LEVELS))
        self._add("radial.window_levels_found", len(window))
        self._add("radial.levels_returned", len(result))

    def _after_build_A(self, fn, args, result, elapsed):
        self._add("susy.dense_mb", result.A_block.nbytes)
        if args["eta"] is not None:
            return
        block = args["block"]
        with self.hidden():
            start = time.perf_counter()
            fn(block, eta=result.eta, check_alternate=False)
            forced = time.perf_counter() - start
            pinned = elapsed
            if args["check_alternate"]:
                start = time.perf_counter()
                fn(block, eta=None, check_alternate=False)
                pinned = time.perf_counter() - start
        self._add("susy.pinning_s", pinned - forced)

    # -- results ---------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-pass values of the per-layer metrics, from spans and totals."""
        seconds = defaultdict(float)
        calls = Counter()
        children = defaultdict(list)
        for span_id, parent, _, name, start, end in self.spans:
            seconds[name] += end - start
            calls[name] += 1
            if parent is not None:
                children[parent].append((start, end))
        self_seconds = defaultdict(float)
        for span_id, _, _, name, start, end in self.spans:
            if name in SELF_SPANS:
                covered = _union_length(children.get(span_id, ()))
                self_seconds[name] += (end - start) - covered
        out = {}
        for mod_name, names in WRAPPED.items():
            for name in names:
                key = f"{mod_name}.{name}"
                out[key + "_s"] = seconds[key] / passes
                out[key + ".calls"] = calls[key] / passes
        for key, value in self_seconds.items():
            out[key + ".self_s"] = value / passes
        for key, value in self.totals.items():
            out[key] = value / passes / (_MB if key.endswith("dense_mb") else 1)
        for key, value in self.peaks.items():
            out[key + ".peak_mb"] = value
        found = self.totals["radial.window_levels_found"]
        out["radial.window_yield"] = (
            self.totals["radial.levels_returned"] / found if found else 0.0)
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "parent", "op", "name", "start", "end"), span))) + "\n")


def _union_length(intervals) -> float:
    """Length of the union of (start, end) intervals: child spans from
    worker threads may overlap each other."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total
