"""The benchmark in perfbench/ still imports, and every function it probes still exists.

perfbench's own tests run the workloads and take minutes; this check takes
seconds, so a removed name that the benchmark uses fails the main suite.
"""

import importlib
from pathlib import Path

from floortag.warehouse import generate_grid_map

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_modules_import_and_build_their_tracer(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("harness", "micro", "layers", "tracing"):
        importlib.import_module(name)
    tracing = importlib.import_module("tracing")
    # Building the tracer looks up every probed function by its name.
    tracer = tracing.Tracer(tracing.probes(generate_grid_map(1, 1, 1.0)))
    with tracer.installed():
        pass
    assert tracer.spans == []
