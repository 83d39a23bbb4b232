import numpy as np
import pytest

from floortag.bench import sample_camera_pose
from floortag.geometry import (
    CameraIntrinsics, camera_world_position, downward_camera_pose, project_many,
)
from floortag import artwork, pipeline
from floortag.features import MatchSet
from floortag.identify import IdentificationResult, ReferenceBank
from floortag.imaging import GreyImage, NotAQuadError
from floortag.pipeline import (
    OUTCOME_DETECTED_UNREAD,
    OUTCOME_ERROR,
    OUTCOME_LOCALISED,
    OUTCOME_NO_STICKER,
    PipelineConfig,
    TrackerState,
    process_frame,
    process_sequence,
)
from floortag.simulate import RenderConfig, exposure_for_blur_px, render
from floortag.warehouse import generate_grid_map

INTR = CameraIntrinsics.reference_camera(binning=2)


@pytest.fixture(scope="module")
def wmap():
    return generate_grid_map(3, 3, 1.0)


@pytest.fixture(scope="module")
def bank(wmap):
    return ReferenceBank.build(wmap, INTR)


def blank_frame(seed=0):
    rng = np.random.default_rng(seed)
    base = np.clip(rng.normal(120.0, 2.0, size=(INTR.height, INTR.width)), 0, 255)
    return GreyImage.from_float(base)


def test_blank_frame_no_sticker(wmap, bank):
    state = TrackerState((1.0, 1.0), 0.0)
    result, new_state = process_frame(blank_frame(), wmap, INTR, bank, state, timestamp=0.1)
    assert result.outcome == OUTCOME_NO_STICKER
    assert result.position is None and result.pose is None
    assert new_state == state


@pytest.mark.parametrize("count", [PipelineConfig.absent_max, PipelineConfig.detect_min])
def test_match_count_inside_the_calibrated_band_is_no_sticker(wmap, bank, monkeypatch, count):
    # A rendered sticker whose detection matches are cut to the band between
    # absent_max and detect_min: the frame stops after matching.
    target = wmap.get(5)
    pose = downward_camera_pose((target.world_x, target.world_y, 1.0), spin=0.4)
    img, _ = render(wmap, INTR, pose, RenderConfig(seed=34))
    real_match = pipeline.features.match

    def band_match(reference, scene, max_distance):
        m = real_match(reference, scene, max_distance)
        assert len(m) > count
        return MatchSet(m.reference[:count], m.scene[:count], m.distance[:count])

    monkeypatch.setattr(pipeline.features, "match", band_match)
    result, state = process_frame(img, wmap, INTR, bank, TrackerState(), timestamp=0.0)
    assert result.outcome == OUTCOME_NO_STICKER
    assert set(result.timings_ms) == {"detect", "match"}
    assert state == TrackerState()


def test_clean_render_localises_by_decoding(wmap, bank):
    target = wmap.get(5)
    cam = (target.world_x + 0.04, target.world_y - 0.02, 1.05)
    pose = downward_camera_pose(cam, tilt=0.12, spin=0.8)
    img, _ = render(wmap, INTR, pose, RenderConfig(seed=31))
    result, state = process_frame(img, wmap, INTR, bank, TrackerState(), timestamp=0.0)
    assert result.outcome == OUTCOME_LOCALISED
    assert result.method == "decoded"
    assert result.sticker_id == 5
    assert np.linalg.norm(result.position - np.asarray(cam)) < 0.02
    assert state.position == (pytest.approx(cam[0], abs=0.02), pytest.approx(cam[1], abs=0.02))
    assert set(result.timings_ms) >= {"detect", "match", "cluster", "quad", "decode", "pose"}


def test_blurred_render_localises_by_identification(wmap, bank):
    target = wmap.get(5)
    cam = (target.world_x + 0.02, target.world_y + 0.03, 1.0)
    pose = downward_camera_pose(cam, tilt=0.08, spin=2.1)
    n10 = exposure_for_blur_px(INTR, 1.0, 1.0, 10.0)
    img, _ = render(
        wmap, INTR, pose,
        RenderConfig(seed=32, exposure_reciprocal=n10, velocity=1.0, heading=1.1),
    )
    state = TrackerState((cam[0], cam[1]), 0.0)
    result, _ = process_frame(img, wmap, INTR, bank, state, timestamp=0.5)
    assert result.outcome in (OUTCOME_LOCALISED, OUTCOME_DETECTED_UNREAD)
    if result.outcome == OUTCOME_LOCALISED:
        assert result.method == "identified"
        assert result.sticker_id == 5


def test_unread_carries_no_position(wmap, bank, monkeypatch):
    # Identification disabled: the blurred sticker is detected but never read.
    target = wmap.get(5)
    pose = downward_camera_pose((target.world_x, target.world_y, 1.0), spin=0.3)
    n10 = exposure_for_blur_px(INTR, 1.0, 1.0, 10.0)
    img, _ = render(
        wmap, INTR, pose,
        RenderConfig(seed=33, exposure_reciprocal=n10, velocity=1.0, heading=0.2),
    )
    monkeypatch.setattr(pipeline, "identify_crop", lambda *args: None)
    result, state = process_frame(img, wmap, INTR, bank, TrackerState(), timestamp=0.0)
    assert result.outcome == OUTCOME_DETECTED_UNREAD
    assert result.position is None and result.pose is None
    assert state.position is None


def test_sequence_of_blanks(wmap, bank):
    frames = [blank_frame(s) for s in range(3)]
    results = list(process_sequence(frames, wmap, INTR, bank))
    assert [r.outcome for r in results] == [OUTCOME_NO_STICKER] * 3
    assert [r.frame_id for r in results] == [0, 1, 2]


def test_sequence_failure_is_an_error_not_no_sticker(wmap, bank, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise RuntimeError("detector exploded")

    monkeypatch.setattr(pipeline, "process_frame", fail)
    results = list(process_sequence([blank_frame(0), blank_frame(1)], wmap, INTR, bank))
    assert [r.outcome for r in results] == [OUTCOME_ERROR, OUTCOME_ERROR]
    assert [r.frame_id for r in results] == [0, 1]
    assert all(r.error == "RuntimeError: detector exploded" for r in results)
    assert results[0].to_json_dict()["error"] == "RuntimeError: detector exploded"
    assert "detector exploded" in capsys.readouterr().err


@pytest.mark.parametrize("fps", [0.0, -1.0, float("nan"), float("inf")])
def test_sequence_rejects_fps_that_is_not_finite_and_positive(wmap, bank, monkeypatch, fps):
    def fail(*args, **kwargs):
        raise AssertionError("no frame may be processed")

    monkeypatch.setattr(pipeline, "process_frame", fail)
    with pytest.raises(ValueError, match="fps must be finite and positive"):
        list(process_sequence([blank_frame(0)], wmap, INTR, bank, fps=fps))


def test_sequence_deterministic(wmap, bank):
    target = wmap.get(1)
    frames = []
    for k in range(3):
        pose = downward_camera_pose(
            (target.world_x + 0.02 * k, target.world_y, 1.0), tilt=0.05, spin=0.4
        )
        img, _ = render(wmap, INTR, pose, RenderConfig(seed=40 + k))
        frames.append(img)
    first = [r.to_json_dict() for r in process_sequence(frames, wmap, INTR, bank)]
    second = [r.to_json_dict() for r in process_sequence(frames, wmap, INTR, bank)]
    for a, b in zip(first, second):
        a.pop("timings_ms")
        b.pop("timings_ms")
    assert first == second
    assert all(r["outcome"] == OUTCOME_LOCALISED for r in first)


def test_walking_path_sequence(wmap, bank):
    # One-metre-per-second walk across the grid at 10 fps.
    frames = []
    cams = []
    for k in range(4):
        cam = (1.0 + 0.1 * k, 1.0, 1.0)
        cams.append(cam)
        pose = downward_camera_pose(cam, tilt=0.05, spin=0.2)
        img, _ = render(wmap, INTR, pose, RenderConfig(seed=50 + k))
        frames.append(img)
    results = list(process_sequence(frames, wmap, INTR, bank, fps=10.0))
    localised = [r for r in results if r.outcome == OUTCOME_LOCALISED]
    assert len(localised) >= 3
    for r, cam in zip(results, cams):
        if r.outcome == OUTCOME_LOCALISED:
            assert np.linalg.norm(r.position - np.asarray(cam)) < 0.03


@pytest.mark.parametrize("gain", [0.25, 2.0])
def test_illumination_extremes_localise_by_decoding(wmap, bank, gain):
    # The ends of the 50-200 lux spread that RenderConfig.illumination stands
    # in for. The same 12 poses at both gains, aimed at random stickers as
    # bench.run_benchmark aims them; the dark frame 2 (a whole sticker 93 px
    # across, 1.38 m below the camera) lands 41.5 mm off, within perfbench's
    # 100 mm tolerance.
    rng = np.random.default_rng(17)
    errors = []
    for k in range(12):
        target = wmap.get(wmap.ids[int(rng.integers(0, len(wmap.ids)))])
        pose = sample_camera_pose(rng, (target.world_x, target.world_y))
        img, truth = render(wmap, INTR, pose, RenderConfig(seed=1700 + k, illumination=gain))
        result, _ = process_frame(img, wmap, INTR, bank, TrackerState(), timestamp=0.0)
        assert truth.visible
        assert (result.outcome, result.method) == (OUTCOME_LOCALISED, "decoded")
        errors.append(np.linalg.norm(result.position - camera_world_position(pose)))
    assert max(errors) < 0.100
    assert np.median(errors) < 0.020


def test_tracker_state_expiry():
    state = TrackerState((1.0, 2.0), 10.0)
    assert state.valid_position(11.0, 5.0) == (1.0, 2.0)
    assert state.valid_position(16.0, 5.0) is None
    assert TrackerState().valid_position(0.0, 5.0) is None


def test_result_json_shape(wmap, bank):
    result, _ = process_frame(blank_frame(7), wmap, INTR, bank, TrackerState(), timestamp=0.0)
    d = result.to_json_dict()
    assert set(d) == {
        "frame", "outcome", "position", "pose", "sticker_id", "method", "timings_ms", "error",
    }
    assert d["outcome"] == OUTCOME_NO_STICKER
    assert d["error"] is None
    assert d["position"] is None


def test_identify_crop_on_a_crop_narrower_than_the_feature_margin_is_none(wmap, bank):
    # The outline's crop of a sticker cut by the frame edge can be this narrow.
    crop = GreyImage(np.full((120, 17), 90, dtype=np.uint8))
    quad = np.array([[2.0, 10.0], [15.0, 10.0], [15.0, 100.0], [2.0, 100.0]])
    assert pipeline.identify_crop(crop, quad, wmap, bank, wmap.ids) is None


def _edge_frame(wmap, cam, spin):
    img, _ = render(wmap, INTR, downward_camera_pose(cam, spin=spin), RenderConfig(seed=1))
    return img


@pytest.mark.parametrize("cam, spin", [((1.52, 1.0, 1.0), 0.0), ((1.0, 1.59, 1.0), 0.6)])
def test_identification_crops_stay_inside_the_roi_at_the_frame_edge(wmap, bank, monkeypatch, cam, spin):
    # No sticker reads in these frames, and in both the largest outline runs
    # along the frame's border and is skipped: at (1.52, 1, 1) an inner
    # outline's 102x75 px crop is identified, and at (1, 1.59, 1) the next
    # outline's.
    rois, crops = [], []
    real_extract, real_identify = pipeline.extract_corners, pipeline.identify_crop

    def extract(crop, *args):
        rois.append(crop)
        return real_extract(crop, *args)

    def identify(crop, *args):
        crops.append(crop)
        return real_identify(crop, *args)

    monkeypatch.setattr(pipeline, "extract_corners", extract)
    monkeypatch.setattr(pipeline, "identify_crop", identify)
    result, _ = process_frame(_edge_frame(wmap, cam, spin), wmap, INTR, bank, timestamp=0.0)
    assert result.outcome == OUTCOME_DETECTED_UNREAD
    assert crops
    for crop in crops:
        assert any(crop.width <= r.width and crop.height <= r.height for r in rois)


def _spy_on_quads(monkeypatch):
    """Lists that fill with the quads extract_quad_corners returns and the reasons it drops them."""
    kept, dropped = [], []
    real = pipeline.extract_quad_corners

    def extract(contour, crop):
        try:
            quad = real(contour, crop)
        except NotAQuadError as err:
            dropped.append(str(err))
            raise
        kept.append((quad.corners, crop.width, crop.height))
        return quad

    monkeypatch.setattr(pipeline, "extract_quad_corners", extract)
    return kept, dropped


def _spy_on_outlines(monkeypatch):
    """Lists that fill with each crop's traced outlines and the outlines extract_quad_corners gets."""
    traced, tried = [], []
    real_trace, real_extract = pipeline.trace_contours, pipeline.extract_quad_corners

    def trace(binary):
        traced.append(real_trace(binary))
        return traced[-1]

    def extract(contour, crop):
        tried.append(contour)
        return real_extract(contour, crop)

    monkeypatch.setattr(pipeline, "trace_contours", trace)
    monkeypatch.setattr(pipeline, "extract_quad_corners", extract)
    return traced, tried


def _on_top_row(contour):
    return int(np.count_nonzero(contour.points[:, 1] == 0))


def test_quads_far_outside_their_crop_are_dropped_at_the_frame_edge(wmap, bank, monkeypatch):
    # At (1, 1.59, 1) the largest outline runs 28 px along the crop's top
    # row, the frame's top border: its fitted edges would meet far outside
    # the crop. It is skipped before any quad is fitted, the next outline is
    # tried, and the frame still reads nothing.
    kept, dropped = _spy_on_quads(monkeypatch)
    traced, tried = _spy_on_outlines(monkeypatch)
    result, _ = process_frame(_edge_frame(wmap, (1.0, 1.59, 1.0), 0.6), wmap, INTR, bank,
                              timestamp=0.0)
    assert result.outcome == OUTCOME_DETECTED_UNREAD
    (outlines,) = traced
    assert _on_top_row(outlines[0]) == 28
    assert all(c is not outlines[0] for c in tried)
    assert tried and dropped == [] and kept
    for corners, w, h in kept:
        assert np.all((corners >= (-w, -h)) & (corners <= (2 * w, 2 * h)))


def test_self_crossing_quads_never_reach_identification(wmap, bank, monkeypatch):
    # At (1, 1.58, 1) the two largest outlines run along the crop's top row,
    # the frame's top border, and are skipped; the third gives a quad whose
    # edges cross.
    kept, dropped = _spy_on_quads(monkeypatch)
    traced, tried = _spy_on_outlines(monkeypatch)
    identified = []
    monkeypatch.setattr(pipeline, "identify_crop", lambda *args: identified.append(args))
    result, _ = process_frame(_edge_frame(wmap, (1.0, 1.58, 1.0), 0.6), wmap, INTR, bank,
                              timestamp=0.0)
    assert result.outcome == OUTCOME_DETECTED_UNREAD
    (outlines,) = traced
    assert [_on_top_row(c) for c in outlines[:3]] == [28, 32, 0]
    assert len(tried) == 1 and tried[0] is outlines[2]
    assert dropped == ["quad not convex"]
    assert kept == [] and identified == []


def test_outlines_are_skipped_only_on_crop_edges_at_the_frame_border():
    # A dark square frame that touches the crop's left edge: a sticker cut by
    # the frame when that edge is the frame's border, a whole one otherwise.
    px = np.full((80, 80), 200, dtype=np.uint8)
    px[20:60, 0:40] = 20
    px[26:54, 6:34] = 200
    crop = GreyImage(px)
    assert pipeline.extract_corners(crop, 400.0, (True, False, False, False)) is None
    for border in [(False, False, False, False), (False, True, True, True)]:
        quad = pipeline.extract_corners(crop, 400.0, border)
        assert quad is not None and quad.corners[:, 0].min() == 0.0


def test_a_sticker_cut_by_the_frame_border_is_not_posed(wmap, bank):
    # At (1.46, 1, 1) sticker 5's outline runs 129 px along the frame's left
    # border; posed from that outline, the camera came out 124 mm off.
    result, state = process_frame(_edge_frame(wmap, (1.46, 1.0, 1.0), 0.0), wmap, INTR, bank,
                                  timestamp=0.0)
    assert result.outcome == OUTCOME_DETECTED_UNREAD
    assert result.position is None and result.pose is None
    assert state == TrackerState()


def test_a_sharp_sweep_past_the_frame_border_localises_only_close_to_the_truth(wmap, bank):
    # Camera 1 m high, 0.40-0.64 m off sticker 5 along x or y: stickers enter
    # and leave the frame. Decoded frames stay decoded, and no frame is
    # localised more than 100 mm off.
    target = wmap.get(5)
    decoded = 0
    for axis in (0, 1):
        for offset in np.arange(0.40, 0.641, 0.04):
            for spin in (0.0, 0.6):
                cam = np.array([target.world_x, target.world_y, 1.0])
                cam[axis] += offset
                pose = downward_camera_pose(tuple(cam), spin=spin)
                img, _ = render(wmap, INTR, pose, RenderConfig(seed=1))
                result, _ = process_frame(img, wmap, INTR, bank, timestamp=0.0)
                if result.position is not None:
                    assert np.linalg.norm(result.position - camera_world_position(pose)) < 0.100
                decoded += result.method == "decoded"
    assert decoded == 13


_BEHIND_CAMERA_QUAD = np.array([
    [602.3840537486577, 385.0786907489427], [696.7934063813433, 416.33471399640285],
    [659.0733610604566, 500.1562883483169], [581.1633326113388, 467.6459656730184],
])


def test_a_pose_step_behind_the_camera_gives_no_pose(wmap):
    # Refining this quad tries a step that puts a sticker corner behind the
    # camera; the step is rejected, and the refined pose misses the 3 px bound.
    assert pipeline._pose_from_quad(INTR, wmap.get(7), _BEHIND_CAMERA_QUAD, 2, 3.0) is None


def test_noisy_quads_never_raise(wmap):
    # Projected sticker corners with the noise of blurred outlines (3-8 px).
    rng = np.random.default_rng(3)
    posed = 0
    for _ in range(200):
        sticker = wmap.get(int(rng.integers(1, 10)))
        offset = rng.uniform(-0.6, 0.6, size=2)
        pose = downward_camera_pose(
            (sticker.world_x + offset[0], sticker.world_y + offset[1], 1.0),
            spin=rng.uniform(0, 2 * np.pi),
        )
        turns = int(rng.integers(0, 4))
        pixels = project_many(INTR, pose, sticker.corners_world())
        noise = rng.normal(0, rng.choice([3.0, 5.0, 8.0]), (4, 2))
        corners = np.roll(pixels, -turns, axis=0) + noise
        posed += pipeline._pose_from_quad(INTR, sticker, corners, turns, 3.0) is not None
    assert posed > 0


# Several stickers in view: a 3x3 map at 0.5 m pitch seen from 1 m straight
# down between stickers 5 and 6, both whole in the frame. Sticker 6's outline
# is the first tried.
DENSE_CAMERA = (0.75, 0.5, 1.0)


@pytest.fixture(scope="module")
def dense_scene():
    dense = generate_grid_map(3, 3, 0.5)
    img, truth = render(dense, INTR, downward_camera_pose(DENSE_CAMERA), RenderConfig(seed=3))
    return dense, ReferenceBank.build(dense, INTR), img, truth


def _frame_corners(quad, truth, sticker_id):
    """The crop-local quad in frame pixels, shifted by the whole-pixel offset to its truth corners."""
    offset = np.round(truth.corners_of(sticker_id) - quad.corners).mean(axis=0).astype(int)
    frame = quad.corners + offset
    assert np.abs(frame - truth.corners_of(sticker_id)).max() < 0.1
    return frame


def _read_all_but_the_first(monkeypatch):
    """The (crop, quad) arguments of every read_sticker call; the first call reads nothing."""
    reads = []
    real_read = artwork.read_sticker

    def read(crop, quad):
        reads.append((crop, quad))
        return None if len(reads) == 1 else real_read(crop, quad)

    monkeypatch.setattr(artwork, "read_sticker", read)
    return reads


def test_the_first_outline_that_reads_names_a_frame_with_several_stickers(dense_scene):
    dense, dense_bank, img, truth = dense_scene
    assert sorted(s.sticker_id for s in truth.visible) == [5, 6]
    result, _ = process_frame(img, dense, INTR, dense_bank, TrackerState(), timestamp=0.0)
    assert (result.outcome, result.method, result.sticker_id) == (OUTCOME_LOCALISED, "decoded", 6)
    assert np.linalg.norm(result.position - DENSE_CAMERA) < 0.002


def test_an_unread_first_outline_leaves_the_next_outline_to_decode(dense_scene, monkeypatch):
    dense, dense_bank, img, truth = dense_scene
    reads = _read_all_but_the_first(monkeypatch)
    result, _ = process_frame(img, dense, INTR, dense_bank, TrackerState(), timestamp=0.0)
    assert (result.outcome, result.method, result.sticker_id) == (OUTCOME_LOCALISED, "decoded", 5)
    assert len(reads) == 2
    _frame_corners(reads[0][1], truth, 6)  # the unread outline is sticker 6's
    corners = _frame_corners(reads[1][1], truth, 5)
    _, position = pipeline._pose_from_quad(
        INTR, dense.get(5), corners, 0, PipelineConfig.max_reprojection_rms
    )
    np.testing.assert_array_equal(result.position, position)
    assert np.linalg.norm(result.position - DENSE_CAMERA) < 0.002


def test_every_outline_is_tried_for_a_decode_before_any_identification(dense_scene, monkeypatch):
    # An identification that would accept sticker 6 on the unread first
    # outline is never asked for: the second outline decodes first.
    dense, dense_bank, img, _ = dense_scene
    _read_all_but_the_first(monkeypatch)
    identified = []

    def accept(*args):
        identified.append(args)
        return IdentificationResult(6, 100, 0, True, 0)

    monkeypatch.setattr(pipeline, "identify_crop", accept)
    result, _ = process_frame(img, dense, INTR, dense_bank, TrackerState(), timestamp=0.0)
    assert (result.outcome, result.method, result.sticker_id) == (OUTCOME_LOCALISED, "decoded", 5)
    assert identified == []
