"""Tests of the benchmark itself: metric coverage, determinism, seeding, refusal.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``
(a few minutes: every workload is run at its smallest length).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIME_UNITS = {"ms", "s", "us", "1/s"}
JUDGED = {w["name"] for w in SPEC["workloads"]}


# The runner with every workload cut to one scored frame, in a fresh process so
# that no cache of an earlier run is warm.
ONE_FRAME = """
import dataclasses, sys
sys.path[:0] = ["src", "perfbench"]
import harness, run
for name, wl in list(harness.WORKLOADS.items()):
    harness.WORKLOADS[name] = dataclasses.replace(wl, scored_frames=1)
sys.exit(run.main(sys.argv[1:]))
"""


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def tiny(workload: str, seed: int, trace: int, seconds: float = 0) -> dict:
    out = subprocess.run(
        [sys.executable, "-c", ONE_FRAME, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    result = tiny(workload, seed=11, trace=trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == 0
    # blur10 places identified frames up to ~0.6 m off, so only the judged workloads must pass.
    assert result["correct"] or workload not in JUDGED
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float | int) and np.isfinite(got["value"])


@pytest.mark.parametrize("workload", ["large-map", "blur10"])
def test_same_seed_repeats_accuracy_and_counts(workload):
    # The second run goes on past its scored frame and renders more; its counts must not move.
    # large-map builds a texture per new sticker in view; blur10 takes the identify path.
    a, b = (tiny(workload, seed=5, trace=1, seconds=s)["metrics"] for s in (0, 8))
    repeatable = [
        name for name, m in a.items()
        if m["unit"] not in TIME_UNITS | {"MB"} and name != "trace.overhead_ratio"
    ]
    assert {"simulate.texture_builds", "identify.view_renders",
            "pipeline.unread_rate"} <= set(repeatable)
    busy = "simulate.texture_builds" if workload == "large-map" else "identify.view_renders"
    assert a[busy]["value"] > 0
    assert {n: a[n]["value"] for n in repeatable} == {n: b[n]["value"] for n in repeatable}


def test_seed_picks_the_frames():
    wl = harness.WORKLOADS["sharp"]
    intr = harness.camera()
    wmap = harness.generate_grid_map(wl.grid, wl.grid, harness.PITCH_M)

    def first_frame(seed):
        pose, cfg = next(harness.frame_specs(wl, wmap, intr, seed))
        img, _ = harness.simulate.render(wmap, intr, pose, cfg)
        return harness.camera_world_position(pose), img.pixels

    one, again, other = first_frame(1), first_frame(1), first_frame(2)
    assert np.array_equal(one[0], again[0]) and np.array_equal(one[1], again[1])
    assert not np.array_equal(one[0], other[0])
    assert not np.array_equal(one[1], other[1])


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("--workload", "sharp", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_tracer_self_time_and_restore():
    import types

    mod = types.SimpleNamespace()

    def inner():
        return 3

    def outer():
        return mod.inner() + 1

    mod.inner, mod.outer = inner, outer
    tracer = Tracer([(mod, "inner", "inner", lambda a, k, r: {"value": r}),
                     (mod, "outer", "outer", None)])
    with tracer.installed():
        assert mod.outer() == 4
    assert mod.inner is inner and mod.outer is outer
    outer_span, inner_span = tracer.spans
    assert inner_span.parent is outer_span and inner_span.note == {"value": 3}
    assert outer_span.self_ms == pytest.approx(outer_span.ms - inner_span.ms)
