"""The library names and parameters that bench/tracing.py wraps.

The tracer rebinds every name in WRAPPED and COUNTED with getattr, and its
after-call hooks read arguments by name, so a renamed or deleted one
otherwise shows up only when the benchmark itself runs.
"""

import importlib.util
import inspect
import sys
from pathlib import Path

import susyh

BENCH = Path(__file__).resolve().parents[1] / "bench"


def load_bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracing = load_bench_module("tracing")
    for table in (tracing.WRAPPED, tracing.COUNTED):
        for mod_name, names in table.items():
            module = getattr(susyh, mod_name)
            for name in names:
                assert callable(getattr(module, name, None)), \
                    f"{mod_name}.{name}"
    hooked = {name.split(".", 1)[1] for name in tracing.Tracer()._hooks}
    wrapped = {name for names in tracing.WRAPPED.values() for name in names}
    assert hooked <= wrapped


def test_hooked_parameters_keep_their_names():
    build_a = inspect.signature(susyh.susy.build_A).parameters
    assert list(build_a) == ["block", "eta", "check_alternate"]
    assert build_a["eta"].default is None
    solve = inspect.signature(susyh.radial.solve_bound_levels).parameters
    assert {"count", "stability_check"} <= set(solve)
