"""floortag benchmark: render seeded frames, localise them, score and time every call.

Run from the repository root:

    python3 perfbench/run.py --workload sharp --seed 1 --seconds 50 --trace 0

With ``--trace 0`` the last stdout line carries the end-to-end metrics named in
BENCHMARK.json; with ``--trace 1`` it carries the per-layer metrics, from a
traced and an untraced lane that localise the same frames, plus the
micro-benchmarks. The line before it records the machine. A readable table
goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="run length; every run still completes its scored frames")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 0:
        p.error("--seconds must be >= 0")
    return args


def _select(computed: dict, wanted: list[dict]) -> dict:
    out = {}
    for m in wanted:
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            raise RuntimeError(f"{m['name']}: measured in {unit}, BENCHMARK.json says {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    if not (SRC / "floortag" / "__init__.py").is_file():
        print(f"perfbench: floortag sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import floortag

    if not Path(floortag.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported floortag from {floortag.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import harness
    import layers
    import micro
    import tracing

    args = parse_args(argv, harness.WORKLOADS)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wl = harness.WORKLOADS[args.workload]
    scored = wl.scored_frames
    intr = harness.camera()
    setup = harness.set_up(wl, intr)
    wmap = setup.warehouse_map

    if not args.trace:
        frames, (calls,) = harness.run_loop(wl, setup, intr, args.seed, args.seconds, scored)
        computed = harness.end_to_end_metrics(setup, frames, calls)
        wanted = spec["end_to_end"]
        wrong = harness.wrong_answers(calls, frames)
    else:
        # Both lanes localise every frame, so a traced run scores half the
        # workload's frames to take about as long as an untraced one.
        scored = max(1, scored // 2)
        tracer = tracing.Tracer(tracing.probes(wmap))
        frames, (plain, traced) = harness.run_loop(
            wl, setup, intr, args.seed, args.seconds, scored, tracer)
        calls = plain + traced
        computed = {"memory.peak_rss_mb": (harness.peak_rss_mb(), "MB")}
        bank_s = sorted(setup.bank_build_s)[len(setup.bank_build_s) // 2]
        computed.update(layers.layer_metrics(tracer, traced, scored, len(wmap), bank_s))
        computed.update(harness.stage_metrics(plain))
        computed.update(harness.accuracy_metrics(plain, frames))
        fps_plain, fps_traced = harness.frames_per_s(plain), harness.frames_per_s(traced)
        computed["trace.frames_per_s_untraced"] = (fps_plain, "1/s")
        computed["trace.frames_per_s_traced"] = (fps_traced, "1/s")
        computed["trace.overhead_ratio"] = (fps_plain / fps_traced, "ratio")
        computed.update(micro.micro_metrics(intr))
        wanted = spec["per_layer"]
        wrong = ([f"untraced {line}" for line in harness.wrong_answers(plain, frames)]
                 + [f"traced {line}" for line in harness.wrong_answers(traced, frames)])

    failures = [c.error for c in calls if c.error]
    for line in wrong + failures:
        print(f"perfbench: {line}", file=sys.stderr)
    for name in sorted(computed):
        value, unit = computed[name]
        print(f"{name:40s} {value:14.4f} {unit}", file=sys.stderr)

    context = {
        "workload": wl.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "scored_frames": scored, "frames": len(frames), "calls": len(calls),
        "machine": harness.machine(ROOT),
    }
    print(json.dumps(context))
    result = {
        "correct": not wrong,
        "attempted": len(calls),
        "failed": len(failures),
        "metrics": _select(computed, wanted),
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
