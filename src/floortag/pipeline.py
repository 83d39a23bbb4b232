"""Frame-level orchestration: detect, cluster, decode, pose, with identify fallback.

A frame is matched against the generic detection reference; matched keypoints
are clustered into per-sticker ROIs, and each ROI's sticker outline is traced
to a quad. Every quad is first read at the artwork's known symbol cells
(`artwork.read_sticker`): the first read the map knows names the sticker, and
the slot it was read at gives the sticker's quarter turns. When no ROI reads,
each quad is identified on its outline's crop against candidate references
pruned around the last known position, and the winner takes the quarter turns
its view was scored at (`identify.estimate_view`). Either way the quad feeds
the planar pose chain.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from . import artwork, clustering, features, identify, warehouse
from .geometry import (
    CameraIntrinsics,
    Pose,
    camera_world_position,
    homography_dlt,
    pose_from_homography,
    refine_pose,
)
from .identify import ReferenceBank, estimate_view
from .imaging import (
    GreyImage,
    MeanOffset,
    NotAQuadError,
    QuadCorners,
    binarize,
    extract_quad_corners,
    trace_contours,
)

OUTCOME_LOCALISED = "localised"
OUTCOME_DETECTED_UNREAD = "detected_unread"
OUTCOME_NO_STICKER = "no_sticker"
OUTCOME_ERROR = "error"  # processing raised; `error` holds the exception text

METHOD_DECODED = "decoded"
METHOD_IDENTIFIED = "identified"


class PipelineConfig:
    """The pipeline's calibrated settings; fixed, so the class takes no arguments."""

    detect_features = 2500
    detect_threshold = 8.0
    detect_max_distance = 64
    # Detection reference matches: more than detect_min means a sticker is in
    # view, fewer than absent_max means none is. Calibrated on the synthetic
    # camera; criterion 6 checks the band. process_frame reads only
    # detect_min: a count inside the band is treated as no sticker.
    detect_min = 35
    absent_max = 15
    # Wider than the clustering default so rotated quad corners survive the crop.
    roi_margin = 0.4
    # Minimum ROI side, as a multiple of the projected sticker size at 1 m.
    roi_min_size_factor = 1.35
    min_contour_area = 400.0
    candidate_radius_m = 3.0
    state_expiry_s = 5.0
    identify_scene_features = 10000
    identify_threshold = identify.REFERENCE_THRESHOLD
    # identify_sticker's defaults, named for callers that pass them explicitly.
    identify_max_distance = identify.DEFAULT_MAX_DISTANCE
    accept_min = identify.DEFAULT_ACCEPT_MIN
    margin_ratio = identify.DEFAULT_MARGIN_RATIO
    max_reprojection_rms = 3.0


@dataclass(frozen=True)
class TrackerState:
    position: tuple[float, float] | None = None
    timestamp: float | None = None

    def valid_position(self, now: float, expiry_s: float):
        if self.position is None or self.timestamp is None:
            return None
        if now - self.timestamp > expiry_s:
            return None
        return self.position


@dataclass(frozen=True)
class LocalisationResult:
    frame_id: int
    outcome: str
    position: np.ndarray | None = None  # camera centre, world metres
    pose: Pose | None = None
    sticker_id: int | None = None
    method: str | None = None
    timings_ms: dict[str, float] = field(default_factory=dict)
    error: str | None = None

    def to_json_dict(self) -> dict:
        return {
            "frame": self.frame_id,
            "outcome": self.outcome,
            "position": None if self.position is None else [float(v) for v in self.position],
            "pose": None
            if self.pose is None
            else {
                "rotation": [[float(v) for v in row] for row in self.pose.rotation],
                "translation": [float(v) for v in self.pose.translation],
            },
            "sticker_id": self.sticker_id,
            "method": self.method,
            "timings_ms": {k: round(v, 3) for k, v in self.timings_ms.items()},
            "error": self.error,
        }


@dataclass(frozen=True)
class Observation:
    """One sticker outline in view; sticker, turns and method are None, 0, None until named."""

    roi: clustering.Roi
    crop: GreyImage
    corners: QuadCorners  # crop-local
    sticker: warehouse.StickerSpec | None
    turns: int
    method: str | None


class _StageClock:
    def __init__(self):
        self.timings: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, stage: str) -> None:
        now = time.perf_counter()
        self.timings[stage] = self.timings.get(stage, 0.0) + (now - self._last) * 1000.0
        self._last = now


def extract_corners(crop: GreyImage, min_area: float) -> QuadCorners | None:
    """Corners of the first of the three largest outlines that is a quad, if any."""
    binary = binarize(crop, MeanOffset(31, 10))
    for contour in trace_contours(binary)[:3]:
        if contour.area() < min_area:
            break
        try:
            return extract_quad_corners(contour, crop)
        except NotAQuadError:
            continue
    return None


def outline_crop(img: GreyImage, quad: np.ndarray, margin: float) -> tuple[GreyImage, np.ndarray]:
    """The quad's bounding box widened by margin per side, clipped to img and cut; the quad in it.

    Identification renders every candidate over the whole crop it is given,
    so it gets this box: a cluster ROI that took in stray matches can be
    several times the sticker's size. The pipeline passes the ROI as img, so
    the crop is never larger than the ROI, even when a sticker cut by the
    frame edge gives a quad whose corners lie outside it.
    """
    roi = clustering.roi_from_cluster(
        clustering.Cluster(quad.mean(axis=0), np.arange(4)), quad, img.width, img.height, margin
    )
    crop = img.crop(roi.x0, roi.y0, roi.x1 + 1, roi.y1 + 1)
    return crop, quad - (roi.x0, roi.y0)


def identify_crop(
    crop: GreyImage,
    quad: np.ndarray,
    warehouse_map: warehouse.WarehouseMap,
    bank: ReferenceBank,
    candidates: list[int],
) -> identify.IdentificationResult | None:
    """Identify the sticker outlined by quad (crop pixels) without decoding it.

    The smear is fitted with the first candidate as the probe, then every
    candidate is scored in that view. None when the crop has no features,
    as one that spans at most twice the descriptor margin has none: the
    outline's crop of a sticker cut by the frame edge can be that narrow.
    """
    if min(crop.width, crop.height) <= 2 * features.MARGIN:
        return None
    cfg = PipelineConfig
    feats = features.detect_and_describe(
        crop, max_features=cfg.identify_scene_features, threshold=cfg.identify_threshold
    )
    if len(feats) == 0:
        return None
    view = estimate_view(crop, feats, quad, warehouse_map.get(candidates[0]).payloads)
    return identify.identify_sticker(feats, bank, candidates, view)


def _decode(obs: Observation, warehouse_map: warehouse.WarehouseMap) -> Observation | None:
    """obs named by the symbol read at its artwork cells; None if none reads or is not mapped."""
    read = artwork.read_sticker(obs.crop, obs.corners)
    if read is None:
        return None
    payload, slot = read
    try:
        sticker = warehouse.lookup_by_payload(warehouse_map, payload)
    except warehouse.UnknownPayloadError:
        return None
    turns = artwork.quarter_turns(slot, sticker.payloads.index(payload.text))
    return replace(obs, sticker=sticker, turns=turns, method=METHOD_DECODED)


def _identify(
    obs: Observation, warehouse_map: warehouse.WarehouseMap, bank: ReferenceBank, candidates: list[int]
) -> Observation | None:
    """obs named by the accepted identification of its outline's crop, or None."""
    crop, quad = outline_crop(obs.crop, obs.corners.corners, PipelineConfig.roi_margin)
    result = identify_crop(crop, quad, warehouse_map, bank, candidates)
    if result is None or not result.accepted:
        return None
    return replace(
        obs, sticker=warehouse_map.get(result.sticker_id), turns=result.turns,
        method=METHOD_IDENTIFIED,
    )


def _pose_from_quad(
    intr: CameraIntrinsics,
    sticker: warehouse.StickerSpec,
    frame_corners: np.ndarray,
    turns: int,
    max_rms: float,
) -> tuple[Pose, np.ndarray] | None:
    world = sticker.corners_world()
    ordered = np.array([world[(j + turns) % 4] for j in range(4)])
    try:
        h = homography_dlt(ordered[:, :2], frame_corners)
        pose0 = pose_from_homography(intr, h)
    except ValueError:
        return None
    result = refine_pose(intr, pose0, ordered, frame_corners)
    if result.rms > max_rms:
        return None
    position = camera_world_position(result.pose)
    if not (0.05 < position[2] < 20.0):
        return None
    return result.pose, position


def process_frame(
    img: GreyImage,
    warehouse_map: warehouse.WarehouseMap,
    intr: CameraIntrinsics,
    bank: ReferenceBank,
    state: TrackerState = TrackerState(),
    frame_id: int = 0,
    timestamp: float | None = None,
) -> tuple[LocalisationResult, TrackerState]:
    """Run the full localisation chain on one frame and update the tracker state."""
    cfg = PipelineConfig
    now = time.monotonic() if timestamp is None else timestamp
    clock = _StageClock()

    feats = features.detect_and_describe(
        img, max_features=cfg.detect_features, threshold=cfg.detect_threshold
    )
    clock.lap("detect")

    if len(feats) == 0:
        clock.lap("match")
        return LocalisationResult(frame_id, OUTCOME_NO_STICKER, timings_ms=clock.timings), state
    matches = features.match(bank.detection, feats, cfg.detect_max_distance)
    clock.lap("match")
    if len(matches) <= cfg.detect_min:
        return LocalisationResult(frame_id, OUTCOME_NO_STICKER, timings_ms=clock.timings), state

    points = feats.positions[matches.scene_indices()]
    clusters = clustering.cluster_keypoints(
        points, merge_dist=clustering.default_merge_dist(intr)
    )
    min_roi = cfg.roi_min_size_factor * artwork.STICKER_SIZE_M * intr.focal_px
    rois = []
    for cluster in clustering.clusters_by_size(clusters):
        try:
            roi = clustering.roi_from_cluster(
                cluster, points, intr.width, intr.height, cfg.roi_margin,
                min_size=min_roi,
            )
        except ValueError:
            continue
        rois.append(roi)
    clock.lap("cluster")

    observations = []
    for roi in rois:
        crop = img.crop(roi.x0, roi.y0, roi.x1 + 1, roi.y1 + 1)
        if crop.width < 40 or crop.height < 40:
            continue
        corners = extract_corners(crop, cfg.min_contour_area)
        if corners is not None:
            observations.append(Observation(roi, crop, corners, None, 0, None))
    clock.lap("quad")

    # Every outline is tried for a decode before any identification fires.
    named = next(filter(None, (_decode(obs, warehouse_map) for obs in observations)), None)
    clock.lap("decode")
    if named is None:
        last = state.valid_position(now, cfg.state_expiry_s)
        candidates = warehouse.candidate_stickers(warehouse_map, last, cfg.candidate_radius_m)
        if candidates:
            identified = (_identify(obs, warehouse_map, bank, candidates) for obs in observations)
            named = next(filter(None, identified), None)
    clock.lap("identify")

    if named is None:
        return (
            LocalisationResult(frame_id, OUTCOME_DETECTED_UNREAD, timings_ms=clock.timings),
            state,
        )

    frame_corners = named.corners.corners + (named.roi.x0, named.roi.y0)
    solved = _pose_from_quad(
        intr, named.sticker, frame_corners, named.turns, cfg.max_reprojection_rms
    )
    clock.lap("pose")
    if solved is None:
        return (
            LocalisationResult(
                frame_id, OUTCOME_DETECTED_UNREAD, sticker_id=named.sticker.id,
                method=named.method, timings_ms=clock.timings,
            ),
            state,
        )
    pose, position = solved
    new_state = TrackerState((float(position[0]), float(position[1])), now)
    return (
        LocalisationResult(
            frame_id,
            OUTCOME_LOCALISED,
            position=position,
            pose=pose,
            sticker_id=named.sticker.id,
            method=named.method,
            timings_ms=clock.timings,
        ),
        new_state,
    )


def process_sequence(
    frames,
    warehouse_map: warehouse.WarehouseMap,
    intr: CameraIntrinsics,
    bank: ReferenceBank,
    fps: float = 10.0,
):
    """Process time-ordered frames, threading the tracker state; yields one result each.

    The tracker starts empty. A frame whose processing raises yields an
    `error` result carrying the exception text, its traceback goes to stderr,
    and the stream continues. Frame k is taken at k / fps seconds; unless fps
    is finite and positive, the first result raises ValueError instead.
    """
    if not (math.isfinite(fps) and fps > 0):
        raise ValueError(f"fps must be finite and positive, got {fps}")
    state = TrackerState()
    for index, img in enumerate(frames):
        timestamp = index / fps
        try:
            result, state = process_frame(
                img, warehouse_map, intr, bank, state, frame_id=index, timestamp=timestamp
            )
        except Exception as exc:
            print(f"frame {index}:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            result = LocalisationResult(index, OUTCOME_ERROR, error=f"{type(exc).__name__}: {exc}")
        yield result
