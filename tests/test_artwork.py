import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from floortag import artwork
from floortag.datamatrix import bitmap_from_codewords, decode_bitmap
from floortag.geometry import CameraIntrinsics, downward_camera_pose
from floortag.imaging import (
    UNIT_SQUARE,
    GreyImage,
    MeanOffset,
    NotAQuadError,
    binarize,
    extract_quad_corners,
    trace_contours,
)
from floortag.simulate import RenderConfig, exposure_for_blur_px, render
from floortag.warehouse import candidate_stickers, generate_grid_map

from rectified import reference_rotation
import supersampled

INTR = CameraIntrinsics.reference_camera(binning=2)


def test_payload_text_format():
    assert artwork.payload_text(7, 2) == "000702"
    assert artwork.payload_text(0, 0) == "000000"
    assert artwork.payload_text(9999, 3) == "999903"


def test_payload_text_validation():
    with pytest.raises(ValueError):
        artwork.payload_text(10000, 0)
    with pytest.raises(ValueError):
        artwork.payload_text(1, 4)


def test_sticker_cells_layout():
    cells = artwork.sticker_cells(42)
    assert cells.shape == (30, 30)
    # Border ink on all four sides, two cells thick.
    assert cells[:2, :].all() and cells[-2:, :].all()
    assert cells[:, :2].all() and cells[:, -2:].all()
    # Quiet gap between border and symbols is paper.
    assert not cells[2:4, 2:-2].any()
    assert not cells[14:16, 4:26].any()
    # Each quadrant carries its own symbol bitmap.
    for q, (r0, c0) in enumerate([(4, 4), (4, 16), (16, 4), (16, 16)]):
        expected = bitmap_from_codewords(artwork.sticker_codewords(42)[q]).modules
        assert np.array_equal(cells[r0 : r0 + 10, c0 : c0 + 10], expected)


def test_sticker_symbols_decode_to_quadrants():
    cells = artwork.sticker_cells(3)
    for q, (r0, c0) in enumerate([(4, 4), (4, 16), (16, 4), (16, 16)]):
        grid = cells[r0 : r0 + 10, c0 : c0 + 10]
        payload, rot = decode_bitmap(grid)
        assert rot == 0
        assert payload.text == artwork.payload_text(3, q)


def test_detection_reference_deterministic():
    a = artwork.detection_reference_payloads(seed=5)
    b = artwork.detection_reference_payloads(seed=5)
    c = artwork.detection_reference_payloads(seed=6)
    assert a == b
    assert a != c
    assert all(len(p) == 6 and p.isdigit() for p in a)


def test_render_cells_sizes():
    img = artwork.render_sticker(1, 120)
    assert img.width == img.height == 120
    with pytest.raises(ValueError):
        artwork.render_sticker(1, 10)


@settings(max_examples=60, deadline=None)
@given(
    cells=arrays(bool, (artwork.CELLS, artwork.CELLS)),
    size=st.integers(artwork.CELLS, 300),
    supersample=st.integers(1, 4),
)
def test_render_cells_equals_the_supersampled_raster(cells, size, supersample):
    got = artwork.render_cells(cells, size, supersample)
    assert np.array_equal(got.pixels, supersampled.render_cells(cells, size, supersample).pixels)


def test_render_sticker_ink_fraction():
    img = artwork.render_sticker(1, 240)
    dark = (img.pixels < 128).mean()
    assert 0.3 < dark < 0.7


def test_corners_local_order():
    c = artwork.corners_local()
    assert np.allclose(c, [[-0.05, 0.05], [0.05, 0.05], [0.05, -0.05], [-0.05, -0.05]])


def test_corners_world_yaw():
    c = artwork.corners_world(1.0, 2.0, np.pi / 2)
    # Quarter-turn: a0 local (-h, +h) -> world (-h, -h) offset.
    assert np.allclose(c[0], [1.0 - 0.05, 2.0 - 0.05, 0.0])
    assert np.allclose(c[:, 2], 0.0)


# A 240 px raster's outline: its corners on the pixel boundaries, in QuadCorners order.
OUTLINE_240 = 240 * UNIT_SQUARE - 0.5


def test_best_artwork_rotation_identifies_turns():
    cells = artwork.sticker_cells(9)
    base = artwork.render_cells(cells, 240)
    for m in range(4):
        rotated = GreyImage(np.rot90(base.pixels, m).copy())
        assert artwork.best_artwork_rotation(rotated, OUTLINE_240, cells) == m


def test_best_artwork_rotation_under_blur():
    cells = artwork.sticker_cells(11)
    base = artwork.render_cells(cells, 240).to_float()
    for m in range(4):
        blurred = GreyImage.from_float(ndimage.gaussian_filter(np.rot90(base, m), 8.0))
        assert artwork.best_artwork_rotation(blurred, OUTLINE_240, cells) == m


def criterion_7_rois(seed: int, count: int):
    """(map, ROI crop, outline quad, candidates) as criterion 7 generates them at seed.

    A 4x4 map at 1 m pitch, a camera ~1 m over a random sticker, a 10 px
    smear; the crop is the sticker's box plus 30 px and the quad its traced
    outline.
    """
    wmap = generate_grid_map(4, 4, 1.0)
    rng = np.random.default_rng(seed)
    done = attempt = 0
    while done < count and attempt < count * 3:
        attempt += 1
        true_id = int(rng.integers(1, 17))
        s = wmap.get(true_id)
        cam = (
            s.world_x + rng.uniform(-0.05, 0.05),
            s.world_y + rng.uniform(-0.05, 0.05),
            rng.uniform(0.9, 1.1),
        )
        pose = downward_camera_pose(
            cam, tilt=rng.uniform(0, 0.1), spin=rng.uniform(0, 2 * np.pi),
            azimuth=rng.uniform(0, 2 * np.pi),
        )
        img, truth = render(wmap, INTR, pose, RenderConfig(
            seed=seed * 1000 + attempt, exposure_reciprocal=exposure_for_blur_px(INTR, cam[2], 1.0, 10.0),
            velocity=1.0, heading=rng.uniform(0, 2 * np.pi),
        ))
        if true_id not in truth.visible_ids:
            continue
        tc = truth.corners_of(true_id)
        x0, y0 = max(int(tc[:, 0].min()) - 30, 0), max(int(tc[:, 1].min()) - 30, 0)
        x1 = min(int(tc[:, 0].max()) + 30, INTR.width)
        y1 = min(int(tc[:, 1].max()) + 30, INTR.height)
        if x1 - x0 < 60 or y1 - y0 < 60:
            continue
        roi = img.crop(x0, y0, x1, y1)
        contours = [c for c in trace_contours(binarize(roi, MeanOffset(31, 10))) if c.area() > 1500]
        if not contours:
            continue
        try:
            quad = extract_quad_corners(contours[0], roi).corners
        except NotAQuadError:
            continue
        done += 1
        yield wmap, roi, quad, candidate_stickers(wmap, (cam[0], cam[1]), 3.0)


def test_best_artwork_rotation_equals_the_rectified_block_means_on_blurred_rois():
    # The reference warps the outline to 240 px and correlates 16 x 16 block
    # means; every candidate of each ROI serves as the artwork in turn. A
    # 30 x 30 sample grid in place of 120 x 120 disagrees on the last ROI.
    pairs = 0
    for wmap, roi, quad, candidates in criterion_7_rois(78, 3):
        for sid in candidates:
            cells = artwork.sticker_cells_from_payloads(list(wmap.get(sid).payloads))
            assert artwork.best_artwork_rotation(roi, quad, cells) == reference_rotation(roi, quad, cells)
            pairs += 1
    assert pairs >= 40
