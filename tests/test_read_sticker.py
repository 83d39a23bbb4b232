"""artwork.read_sticker: a sticker read at its known symbol cells.

The reference is the path the pipeline took before: rectify the quad onto a
240 px raster, find a symbol among its contours (decode_roi_detail) and
correlate the four artwork rotations with the raster's block means
(rectified.rectified_rotation).
"""

import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

from floortag import artwork, datamatrix, pipeline, simulate, warehouse
from floortag.geometry import homography_dlt
from floortag.identify import ReferenceBank, contract_quad
from floortag.imaging import GreyImage, QuadCorners, bilinear_sample
from floortag.warehouse import generate_grid_map

from rectified import (
    RECTIFIED_STICKER_PX,
    rectified_rotation,
    rectify_quad,
    reference_rotation,
)

ROOT = Path(__file__).resolve().parents[1]


def reference_read(crop: GreyImage, quad: QuadCorners, wmap) -> tuple | None:
    """(payload text, sticker id, turns) by the rectify + contour + correlation path.

    Sticker id and turns are None for a payload the map does not hold.
    """
    flat = rectify_quad(crop, quad, RECTIFIED_STICKER_PX)
    reads = datamatrix.decode_roi_detail(flat)
    if not reads:
        return None
    payload = reads[0].payload
    try:
        sticker = warehouse.lookup_by_payload(wmap, payload)
    except warehouse.UnknownPayloadError:
        return payload.text, None, None
    cells = artwork.sticker_cells_from_payloads(list(sticker.payloads))
    return payload.text, sticker.id, rectified_rotation(flat, cells)


def new_read(crop: GreyImage, quad: QuadCorners, wmap) -> tuple | None:
    """reference_read's triple from read_sticker and quarter_turns."""
    read = artwork.read_sticker(crop, quad)
    if read is None:
        return None
    payload, slot = read
    try:
        sticker = warehouse.lookup_by_payload(wmap, payload)
    except warehouse.UnknownPayloadError:
        return payload.text, None, None
    return payload.text, sticker.id, artwork.quarter_turns(slot, sticker.payloads.index(payload.text))


def warp_into(src: np.ndarray, quad: np.ndarray, shape: tuple[int, int], background: float):
    """src's square drawn into quad (QuadCorners order) on a background canvas."""
    side = src.shape[0]
    h = homography_dlt(quad, np.array([[0, 0], [side, 0], [side, side], [0, side]]))
    ys, xs = np.mgrid[0 : shape[0], 0 : shape[1]]
    mapped = np.column_stack([xs.ravel() + 0.5, ys.ravel() + 0.5, np.ones(xs.size)]) @ h.T
    sx = mapped[:, 0] / mapped[:, 2] - 0.5
    sy = mapped[:, 1] / mapped[:, 2] - 0.5
    inside = (sx >= 0) & (sx <= side - 1) & (sy >= 0) & (sy <= side - 1)
    out = np.full(shape[0] * shape[1], background)
    out[inside] = bilinear_sample(src, sx[inside], sy[inside])
    return GreyImage.from_float(out.reshape(shape))


QUAD = np.array([[42.0, 30.0], [168.0, 46.0], [160.0, 172.0], [34.0, 158.0]])


@pytest.mark.parametrize("m", range(4))
def test_read_sticker_gives_payload_and_turns_of_a_turned_sticker(m):
    art = np.rot90(artwork.render_sticker(37, 150).pixels, m)
    crop = warp_into(art.astype(np.float64), QUAD, (200, 210), 200.0)
    payload, slot = artwork.read_sticker(crop, QuadCorners(QUAD))
    quadrant = artwork.sticker_payloads(37).index(payload.text)
    assert artwork.quarter_turns(slot, quadrant) == m
    # The slot in view is the first, and it holds the quadrant m turns bring there.
    assert slot == 0
    assert artwork.best_artwork_rotation(crop, QUAD, artwork.sticker_cells(37)) == m


def test_quarter_turns_follow_rot90():
    cells = artwork.sticker_cells(12)
    for m in range(4):
        turned = np.rot90(cells, m)
        for q in range(4):
            slot = next(s for s in range(4) if artwork.quarter_turns(s, q) == m)
            r0, c0 = artwork._slot_origin(slot)
            grid = turned[r0 : r0 + 10, c0 : c0 + 10]
            payload, _ = datamatrix.decode_bitmap(grid)
            assert payload.text == artwork.payload_text(12, q)
    with pytest.raises(ValueError):
        artwork.quarter_turns(0, 4)


def test_read_sticker_skips_a_slot_damaged_beyond_correction():
    cells = artwork.sticker_cells(21)
    # Invert every other data row of the first symbol: too many codeword
    # errors for Reed-Solomon, with the finder pattern intact.
    first = cells[4:14, 4:14]
    first[1:9:2, 1:9] = ~first[1:9:2, 1:9]
    assert datamatrix.decode_bitmap(first) is None
    crop = warp_into(artwork.render_cells(cells, 150).pixels.astype(np.float64), QUAD, (200, 210), 200.0)
    payload, slot = artwork.read_sticker(crop, QuadCorners(QUAD))
    assert (payload.text, slot) == (artwork.payload_text(21, 1), 1)
    assert artwork.quarter_turns(slot, 1) == 0


def test_read_sticker_on_a_blank_crop_is_none():
    assert artwork.read_sticker(GreyImage(np.full((200, 210), 180, np.uint8)), QuadCorners(QUAD)) is None
    noise = np.random.default_rng(3).integers(0, 256, size=(200, 210)).astype(np.uint8)
    assert artwork.read_sticker(GreyImage(noise), QuadCorners(QUAD)) is None


def test_read_sticker_clips_a_quad_that_leaves_the_crop():
    art = artwork.render_sticker(5, 150).pixels.astype(np.float64)
    crop = warp_into(art, QUAD, (200, 210), 200.0)
    # The outline's corners just outside the crop: module centres stay inside.
    shifted = GreyImage(crop.pixels[28:, 30:].copy())
    payload, slot = artwork.read_sticker(shifted, QuadCorners(QUAD - (30, 28)))
    assert payload.text == artwork.payload_text(5, 0) and slot == 0


def _harness():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import harness
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return harness


def _pipeline_rois(img, wmap, intr, bank):
    """Every (crop, quad) the pipeline's quad stage found, identification off."""
    rois = []
    real = pipeline.extract_corners

    def recording(crop, *args):
        corners = real(crop, *args)
        if corners is not None:
            rois.append((crop, corners))
        return corners

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "extract_corners", recording)
        mp.setattr(pipeline, "identify_crop", lambda *args: None)
        pipeline.process_frame(img, wmap, intr, bank)
    return rois


@pytest.mark.parametrize(
    "name, seed, frames", [("sharp", 77, 4), ("large-map", 77, 2), ("blur10", 5, 2)]
)
def test_read_sticker_agrees_with_the_rectified_path_on_seeded_frames(name, seed, frames):
    harness = _harness()
    wl = harness.WORKLOADS[name]
    intr = harness.camera()
    wmap = generate_grid_map(wl.grid, wl.grid, harness.PITCH_M)
    bank = ReferenceBank.build(wmap, intr)
    seen = reads = 0
    for pose, cfg in itertools.islice(harness.frame_specs(wl, wmap, intr, seed), frames):
        img, _ = simulate.render(wmap, intr, pose, cfg)
        for crop, quad in _pipeline_rois(img, wmap, intr, bank):
            want = reference_read(crop, quad, wmap)
            got = new_read(crop, quad, wmap)
            # Either read may come from another of the sticker's four symbols.
            assert (got is None) == (want is None)
            assert got is None or got[1:] == want[1:]
            seen += 1
            reads += got is not None
    assert seen >= frames
    if name != "blur10":
        assert reads >= frames


def _spies(monkeypatch):
    """Call counts of the sampling and search steps, the functions that called them, and the spy."""
    calls: dict[str, int] = {}
    callers: dict[str, set[str]] = {}

    def spy(module, name, key):
        real = getattr(module, name)

        def counted(*args, **kwargs):
            calls[key] = calls.get(key, 0) + 1
            callers.setdefault(key, set()).add(sys._getframe(1).f_code.co_name)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    spy(datamatrix, "sample_quad", "datamatrix.sample_quad")
    spy(datamatrix, "decode_roi_detail", "decode_roi_detail")
    spy(artwork, "best_artwork_rotation", "best_artwork_rotation")
    spy(pipeline, "estimate_view", "estimate_view")
    return calls, callers, spy


@pytest.fixture(scope="module")
def sharp_frame():
    harness = _harness()
    intr = harness.camera()
    wmap = generate_grid_map(3, 3, harness.PITCH_M)
    pose, cfg = next(harness.frame_specs(harness.WORKLOADS["sharp"], wmap, intr, 1))
    img, _ = simulate.render(wmap, intr, pose, cfg)
    return img, wmap, intr, ReferenceBank.build(wmap, intr)


def test_a_decoded_frame_rectifies_and_searches_nothing(sharp_frame, monkeypatch):
    img, wmap, intr, bank = sharp_frame
    calls, _, _ = _spies(monkeypatch)
    result, _ = pipeline.process_frame(img, wmap, intr, bank, timestamp=0.0)
    assert result.outcome == pipeline.OUTCOME_LOCALISED
    assert result.method == pipeline.METHOD_DECODED
    assert calls == {}


def test_an_identified_frame_rectifies_nothing_of_its_own(sharp_frame, monkeypatch):
    img, wmap, intr, bank = sharp_frame
    decoded, _ = pipeline.process_frame(img, wmap, intr, bank, timestamp=0.0)
    calls, callers, spy = _spies(monkeypatch)
    spy(artwork, "sample_quad", "artwork.sample_quad")
    monkeypatch.setattr(artwork, "read_sticker", lambda crop, quad: None)
    result, _ = pipeline.process_frame(img, wmap, intr, bank, timestamp=0.0)
    assert result.method == pipeline.METHOD_IDENTIFIED
    assert result.sticker_id == decoded.sticker_id
    # The pipeline poses at the turns identification returns: only
    # estimate_view correlates, once per ROI it identifies, and it samples
    # the outline through artwork alone.
    assert calls.get("datamatrix.sample_quad", 0) == 0
    assert calls["estimate_view"] >= 1
    assert calls["artwork.sample_quad"] == calls["estimate_view"]
    assert callers["artwork.sample_quad"] == {"best_artwork_rotation"}
    assert calls["best_artwork_rotation"] == calls["estimate_view"]
    assert callers["best_artwork_rotation"] == {"estimate_view"}
    assert calls.get("decode_roi_detail", 0) == 0
    assert np.linalg.norm(result.position - decoded.position) < 0.01


@pytest.fixture(scope="module")
def identified_blurred_frames():
    """blur10 harness seed 2, 3 frames, all identified, one tracker: what each frame recorded.

    Per frame: the result; each estimate_view call as (crop, quad, probe
    payloads, view); each accepted identification as (result, reference
    turns, ROI quad), where the reference correlates the accepted ROI with
    the accepted sticker's artwork on a 240 px raster; and the arguments of
    each _pose_from_quad call.
    """
    harness = _harness()
    wl = harness.WORKLOADS["blur10"]
    intr = harness.camera()
    wmap = generate_grid_map(wl.grid, wl.grid, harness.PITCH_M)
    bank = ReferenceBank.build(wmap, intr)
    real_crop, real_identify = pipeline.outline_crop, pipeline.identify_crop
    real_view, real_pose = pipeline.estimate_view, pipeline._pose_from_quad
    roi: list = []
    frames: list[dict] = []

    def recording_crop(img, quad, margin):
        roi[:] = [img, quad]
        return real_crop(img, quad, margin)

    def recording_view(crop, feats, quad, probe_payloads):
        view = real_view(crop, feats, quad, probe_payloads)
        frames[-1]["views"].append((crop, quad, probe_payloads, view))
        return view

    def recording_identify(*args):
        result = real_identify(*args)
        if result is not None and result.accepted:
            cells = artwork.sticker_cells_from_payloads(list(wmap.get(result.sticker_id).payloads))
            frames[-1]["accepted"].append((result, reference_rotation(*roi, cells), roi[1]))
        return result

    def recording_pose(*args):
        frames[-1]["posed"].append(args)
        return real_pose(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "outline_crop", recording_crop)
        mp.setattr(pipeline, "estimate_view", recording_view)
        mp.setattr(pipeline, "identify_crop", recording_identify)
        mp.setattr(pipeline, "_pose_from_quad", recording_pose)
        state = pipeline.TrackerState()
        specs = harness.frame_specs(wl, wmap, intr, 2)
        for k, (pose, cfg) in enumerate(itertools.islice(specs, 3)):
            img, _ = simulate.render(wmap, intr, pose, cfg)
            frames.append({"views": [], "accepted": [], "posed": []})
            frames[-1]["result"], state = pipeline.process_frame(
                img, wmap, intr, bank, state, frame_id=k, timestamp=k / harness.FPS
            )
    return intr, frames


def test_identified_blurred_frames_pose_at_the_accepted_stickers_turns(identified_blurred_frames):
    """On blur10 frames the view's turns equal the accepted sticker's own, and pose the frame.

    The reference is how the pipeline posed an identified frame before it took
    the view's turns: the accepted ROI's quad at the turns of the accepted
    sticker's artwork correlated with the ROI.
    """
    intr, frames = identified_blurred_frames
    for frame in frames:
        result = frame["result"]
        assert result.method == pipeline.METHOD_IDENTIFIED
        ((found, want, roi_quad),) = frame["accepted"]
        assert found.turns == want
        ((_, sticker, frame_corners, _, max_rms),) = frame["posed"]
        assert sticker.id == found.sticker_id == result.sticker_id
        # The accepted ROI's quad, moved by the ROI's whole-pixel offset.
        shift = frame_corners - roi_quad
        assert np.allclose(shift, np.round(shift[0]), rtol=0, atol=1e-9)
        solved = pipeline._pose_from_quad(intr, sticker, frame_corners, want, max_rms)
        assert solved is not None
        assert result.outcome == pipeline.OUTCOME_LOCALISED
        assert np.array_equal(result.position, solved[1])


def test_estimate_view_returns_the_contracted_outline_at_its_chosen_length(identified_blurred_frames):
    # No shift moves the view after the smear fit: its quad is the outline
    # pulled in by half the chosen length along the smear, and its turns are
    # the probe's artwork correlated with the outline on a 240 px raster.
    _, frames = identified_blurred_frames
    views = [v for frame in frames for v in frame["views"]]
    assert len(views) >= len(frames)
    assert any(view.blur_length_px > 0 for *_, view in views)
    for crop, quad, probe_payloads, view in views:
        want = contract_quad(quad, view.blur_direction, view.blur_length_px / 2.0)
        assert np.array_equal(view.quad, want)
        cells = artwork.sticker_cells_from_payloads(list(probe_payloads))
        assert view.turns == reference_rotation(crop, quad, cells)
