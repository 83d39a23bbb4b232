"""Seeded end-to-end benchmark: render frames, localise them, score against truth."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import CameraIntrinsics, Pose, downward_camera_pose
from .identify import ReferenceBank
from .pipeline import OUTCOME_LOCALISED, TrackerState, process_frame
from .simulate import RenderConfig, exposure_for_blur_px, render
from .warehouse import WarehouseMap

AIM_JITTER_M = 0.06  # the aim point falls this far from the target, at most, per axis
VELOCITY_M_S = 1.0  # walking speed behind the blurred frames


@dataclass(frozen=True)
class TrialResult:
    trial: int
    sticker_id: int
    outcome: str
    method: str | None
    error_m: float | None


@dataclass(frozen=True)
class BenchReport:
    trials: list[TrialResult] = field(default_factory=list)

    @property
    def n(self) -> int:
        return len(self.trials)

    @property
    def localised(self) -> list[TrialResult]:
        return [t for t in self.trials if t.outcome == OUTCOME_LOCALISED]

    def rate(self, method: str | None = None) -> float:
        hits = [
            t for t in self.localised if method is None or t.method == method
        ]
        return len(hits) / max(self.n, 1)

    def error_percentile(self, q: float) -> float:
        errs = [t.error_m for t in self.localised if t.error_m is not None]
        if not errs:
            return float("nan")
        return float(np.percentile(errs, q))

    def summary_rows(self) -> list[tuple[str, str]]:
        rows = [
            ("trials", str(self.n)),
            ("localised", str(len(self.localised))),
            ("localised_decoded", str(sum(1 for t in self.localised if t.method == "decoded"))),
            ("localised_identified", str(sum(1 for t in self.localised if t.method == "identified"))),
            ("localised_rate", f"{self.rate():.4f}"),
        ]
        for q in (50, 90, 100):
            rows.append((f"position_error_p{q}_mm", f"{self.error_percentile(q) * 1000:.2f}"))
        return rows


def sample_camera_pose(
    rng: np.random.Generator,
    target_xy: tuple[float, float],
    height_range=(0.8, 1.5),
    max_tilt: float = np.deg2rad(30),
) -> Pose:
    """Camera pose keeping a ground target in view: aim through the target point."""
    height = rng.uniform(*height_range)
    tilt = rng.uniform(0.0, max_tilt)
    azimuth = rng.uniform(0.0, 2 * np.pi)
    spin = rng.uniform(0.0, 2 * np.pi)
    aim = np.array(target_xy) + rng.uniform(-AIM_JITTER_M, AIM_JITTER_M, size=2)
    offset = height * np.tan(tilt)
    position = (
        aim[0] + offset * np.cos(azimuth),
        aim[1] + offset * np.sin(azimuth),
        height,
    )
    # Tilt the downward camera so its axis passes through the aim point.
    pose = downward_camera_pose(position, tilt=tilt, azimuth=azimuth + np.pi / 2, spin=spin)
    return pose


def run_benchmark(
    warehouse_map: WarehouseMap,
    intr: CameraIntrinsics,
    bank: ReferenceBank,
    trials: int = 200,
    seed: int = 0,
    blur_px: float = 0.0,
) -> BenchReport:
    """Render `trials` seeded frames over random stickers and localise each one."""
    rng = np.random.default_rng(seed)
    ids = warehouse_map.ids
    results = []
    state = TrackerState()
    for trial in range(trials):
        sticker = warehouse_map.get(ids[int(rng.integers(0, len(ids)))])
        pose = sample_camera_pose(rng, (sticker.world_x, sticker.world_y))
        cam_truth = -(pose.rotation.T @ pose.translation)
        if blur_px > 0:
            distance = float(cam_truth[2])
            cfg = RenderConfig(
                seed=seed * 100003 + trial,
                exposure_reciprocal=exposure_for_blur_px(intr, distance, VELOCITY_M_S, blur_px),
                velocity=VELOCITY_M_S,
                heading=float(rng.uniform(0, 2 * np.pi)),
            )
        else:
            cfg = RenderConfig(seed=seed * 100003 + trial)
        img, truth = render(warehouse_map, intr, pose, cfg)
        result, state = process_frame(
            img, warehouse_map, intr, bank, state, frame_id=trial, timestamp=trial / 10.0
        )
        error = None
        if result.position is not None:
            error = float(np.linalg.norm(result.position - cam_truth))
        results.append(
            TrialResult(trial, sticker.id, result.outcome, result.method, error)
        )
    return BenchReport(results)
