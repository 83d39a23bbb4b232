"""Fixed-input micro-benchmarks of the hot kernels, one median per kernel.

Inputs come from MICRO_SEED, never from the run's seed, so the numbers are
comparable across runs and workloads. Each result is checked before it is
timed again; a wrong result raises.
"""

from __future__ import annotations

import time

import numpy as np

from floortag import artwork, features, identify, simulate
from floortag.bench import sample_camera_pose
from floortag.datamatrix import rs_decode
from floortag.geometry import (
    camera_world_position, homography_dlt, pose_from_homography, refine_pose,
)
from floortag.identify import (
    ReferenceBank, ViewContext, estimate_view, identify_sticker, render_candidate_view,
)
from floortag.imaging import MeanOffset, binarize, extract_quad_corners, trace_contours
from floortag.pipeline import PipelineConfig
from floortag.simulate import RenderConfig, exposure_for_blur_px
from floortag.warehouse import candidate_stickers, generate_grid_map
from tracing import Tracer

MICRO_SEED = 4242


def _median_ms(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000.0)
    return float(np.median(times))


def micro_metrics(intr) -> dict[str, tuple[float, str]]:
    cfg = PipelineConfig()
    small = generate_grid_map(3, 3, 1.0)
    large = generate_grid_map(10, 10, 1.0)
    bank = ReferenceBank.build(small, intr)
    sticker = small.get(5)
    pose = sample_camera_pose(np.random.default_rng(MICRO_SEED), (sticker.world_x, sticker.world_y))
    render_cfg = RenderConfig(seed=MICRO_SEED)
    frame, truth = simulate.render(small, intr, pose, render_cfg)
    corners = truth.corners_of(sticker.id)

    feats = features.detect_and_describe(
        frame, max_features=cfg.detect_features, threshold=cfg.detect_threshold)
    if len(features.match(bank.detection, feats, cfg.detect_max_distance)) <= cfg.detect_min:
        raise RuntimeError("micro: the fixed frame no longer matches the detection reference")

    # A crop around the sticker, as the pipeline's ROI would be.
    x0, y0 = np.floor(corners.min(axis=0) - 40).astype(int).clip(0)
    x1, y1 = np.ceil(corners.max(axis=0) + 40).astype(int)
    crop = frame.crop(x0, y0, min(x1, frame.width), min(y1, frame.height))
    contour = trace_contours(binarize(crop, MeanOffset(31, 10)))[0]
    quad = extract_quad_corners(contour, crop)
    local = corners - (x0, y0)
    if np.linalg.norm(local[:, None] - quad.corners[None], axis=2).min(axis=1).max() > 2.0:
        raise RuntimeError("micro: quad corners off the rendered sticker")

    world = sticker.corners_world()
    pose0 = pose_from_homography(intr, homography_dlt(world[:, :2], corners + 0.7))
    refined = refine_pose(intr, pose0, world, corners)
    if refined.rms > 0.1:
        raise RuntimeError(f"micro: refine_pose left {refined.rms:.3f} px RMS")

    codewords = artwork.sticker_codewords(sticker.id)[0]
    damaged = bytearray(codewords.full)
    damaged[1] ^= 0x5A
    damaged[6] ^= 0xC3  # two errors: the most five ECC codewords correct
    for cw in (codewords, bytes(damaged)):
        if rs_decode(cw).data != codewords.data:
            raise RuntimeError("micro: rs_decode returned the wrong data")

    view = ViewContext(local, (crop.height, crop.width), 10.0, (1.0, 0.0))

    # The identify fallback as pipeline.process_frame runs it when decoding fails, on
    # the same crop smeared by 10 px: the stickers near the tracker's last position,
    # the view fit, then one synthetic view per candidate. The quad is the rendered one.
    blur_cfg = RenderConfig(
        seed=MICRO_SEED, velocity=1.0, heading=0.0,
        exposure_reciprocal=exposure_for_blur_px(
            intr, float(camera_world_position(pose)[2]), 1.0, 10.0),
    )
    blurred = simulate.render(small, intr, pose, blur_cfg)[0].crop(
        x0, y0, min(x1, frame.width), min(y1, frame.height))
    last = (sticker.world_x + 0.3, sticker.world_y - 0.2)
    candidates = candidate_stickers(small, last, cfg.candidate_radius_m)
    scene = features.detect_and_describe(
        blurred, max_features=cfg.identify_scene_features, threshold=cfg.identify_threshold)
    probe = small.get(candidates[0]).payloads

    def identify_fitted(view):
        return identify_sticker(
            scene, bank, candidates, max_distance=cfg.identify_max_distance,
            accept_min=cfg.accept_min, margin_ratio=cfg.margin_ratio, view=view)

    counter = Tracer([(identify, "render_candidate_view", "view", None)])
    with counter.installed():
        fitted = estimate_view(blurred, scene, local, probe)
        found = identify_fitted(fitted)
    if found.sticker_id != sticker.id:
        raise RuntimeError(f"micro: identify_sticker chose {found.sticker_id}, not {sticker.id}")
    centre = np.array([5.5, 4.5])
    near = candidate_stickers(large, centre, cfg.candidate_radius_m)
    dist = [np.hypot(large.get(i).world_x - centre[0], large.get(i).world_y - centre[1])
            for i in near]
    if not near or max(dist) > cfg.candidate_radius_m or dist != sorted(dist):
        raise RuntimeError("micro: candidate_stickers returned stickers out of range or order")

    rs_reps = 400
    cand_reps = 1000
    return {
        "micro.detect_ms": (_median_ms(lambda: features.detect_and_describe(
            frame, max_features=cfg.detect_features, threshold=cfg.detect_threshold), 5), "ms"),
        "micro.match_ms": (_median_ms(
            lambda: features.match(bank.detection, feats, cfg.detect_max_distance), 5), "ms"),
        "micro.rs_decode_clean_us": (
            _median_ms(lambda: [rs_decode(codewords) for _ in range(rs_reps)], 5)
            * 1000.0 / rs_reps, "us"),
        "micro.rs_decode_2err_us": (
            _median_ms(lambda: [rs_decode(bytes(damaged)) for _ in range(rs_reps)], 5)
            * 1000.0 / rs_reps, "us"),
        "micro.quad_corners_ms": (_median_ms(
            lambda: extract_quad_corners(contour, crop), 21), "ms"),
        "micro.refine_pose_ms": (_median_ms(
            lambda: refine_pose(intr, pose0, world, corners), 21), "ms"),
        "micro.candidate_view_ms": (_median_ms(
            lambda: render_candidate_view(sticker.payloads, view), 5), "ms"),
        "micro.estimate_view_ms": (_median_ms(
            lambda: estimate_view(blurred, scene, local, probe), 3), "ms"),
        "micro.identify_ms": (_median_ms(lambda: identify_fitted(fitted), 3), "ms"),
        "micro.identify_view_renders": (float(len(counter.spans)), "count"),
        "micro.identify_score": (float(found.score), "count"),
        "micro.candidate_stickers_us": (
            _median_ms(lambda: [candidate_stickers(large, centre, cfg.candidate_radius_m)
                                for _ in range(cand_reps)], 5) * 1000.0 / cand_reps, "us"),
        "micro.render_3x3_ms": (_median_ms(
            lambda: simulate.render(small, intr, pose, render_cfg), 3), "ms"),
        "micro.render_10x10_ms": (_median_ms(
            lambda: simulate.render(large, intr, pose, render_cfg), 3), "ms"),
    }
