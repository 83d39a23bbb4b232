"""Seeded benchmark frames localise as recorded in tests/data/frame_identity.json.

For the first frames of the sharp, large-map and blur10 workloads of
perfbench/harness.py at two harness seeds, the fixture holds what
process_frame returned: outcome, sticker, method and camera position, with
the tracker state threaded from frame to frame as the benchmark does. A
change meant to leave results alone must keep this test passing.

Positions are compared within 1e-9 m, which does not absorb a change in
rounding. refine_pose stops once its step falls below 1e-10, so moving the
quad corners by a relative 1e-13, 1e-12 or 1e-10 moved sharp and large-map
positions by up to 2.2e-9, 4.5e-9 and 2.6e-9 m. The fixture therefore needs
corners that are bit-identical upstream of refine_pose; a numpy or scipy
that rounds them differently fails it.

Regenerate the fixture only for a change meant to move results:

    PYTHONPATH=src python tests/test_frame_identity.py
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from floortag import pipeline, simulate
from floortag.identify import ReferenceBank
from floortag.warehouse import generate_grid_map

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "data" / "frame_identity.json"
WORKLOADS = ("sharp", "large-map", "blur10")
SEEDS = (1, 4)
FRAMES = 3
POSITION_TOL_M = 1e-9


def _harness():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import harness
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return harness


def localise_workload(name: str) -> dict[str, list[dict]]:
    """Each seed's first FRAMES frames, rendered and localised with one tracker state."""
    harness = _harness()
    wl = harness.WORKLOADS[name]
    intr = harness.camera()
    wmap = generate_grid_map(wl.grid, wl.grid, harness.PITCH_M)
    bank = ReferenceBank.build(wmap, intr)
    out = {}
    for seed in SEEDS:
        state = pipeline.TrackerState()
        records = []
        specs = harness.frame_specs(wl, wmap, intr, seed)
        for k, (pose, cfg) in enumerate(itertools.islice(specs, FRAMES)):
            img, _ = simulate.render(wmap, intr, pose, cfg)
            result, state = pipeline.process_frame(
                img, wmap, intr, bank, state, frame_id=k, timestamp=k / harness.FPS
            )
            records.append({
                "outcome": result.outcome,
                "sticker_id": result.sticker_id,
                "method": result.method,
                "position": None if result.position is None
                else [float(v) for v in result.position],
            })
        out[str(seed)] = records
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_frames_localise_as_recorded(name):
    want = json.loads(FIXTURE.read_text())[name]
    got = localise_workload(name)
    assert set(got) == set(want)
    for seed, records in want.items():
        for k, (g, w) in enumerate(zip(got[seed], records, strict=True)):
            where = f"{name} seed {seed} frame {k}"
            assert (g["outcome"], g["sticker_id"], g["method"]) == (
                w["outcome"], w["sticker_id"], w["method"]), where
            if w["position"] is None:
                assert g["position"] is None, where
            else:
                assert g["position"] is not None, where
                err = np.abs(np.subtract(g["position"], w["position"])).max()
                assert err <= POSITION_TOL_M, f"{where}: position moved {err:.3g} m"


if __name__ == "__main__":
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps({n: localise_workload(n) for n in WORKLOADS}, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
