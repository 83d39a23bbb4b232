import numpy as np
import pytest

from floortag.artwork import sticker_cells
from floortag.features import detect_and_describe
from floortag.geometry import CameraIntrinsics, downward_camera_pose
from floortag.identify import (
    ReferenceBank,
    ViewContext,
    contract_quad,
    estimate_blur_direction,
    estimate_view,
    identify_sticker,
    reference_sizes,
    render_candidate_view,
)
from floortag.imaging import GreyImage
from floortag.simulate import RenderConfig, render
from floortag.warehouse import StickerSpec, generate_grid_map

from maps import single_sticker_map

INTR = CameraIntrinsics.reference_camera(binning=2)


@pytest.fixture(scope="module")
def small_map():
    return generate_grid_map(2, 2, 1.0)


@pytest.fixture(scope="module")
def bank(small_map):
    return ReferenceBank.build(small_map, INTR)


def test_reference_sizes_follow_intrinsics():
    sizes = reference_sizes(INTR)
    assert sizes == tuple(int(round(0.1 * INTR.focal_px / h)) for h in (0.75, 0.95, 1.2, 1.5))


def _rendered_scene(sticker_id, position, spin, seed):
    """Crop around one rendered sticker, and its truth quad in crop coordinates."""
    wmap = single_sticker_map(StickerSpec(sticker_id, 0.0, 0.0, 0.0))
    pose = downward_camera_pose(position, spin=spin)
    img, truth = render(wmap, INTR, pose, RenderConfig(seed=seed))
    tc = truth.corners_of(sticker_id)
    x0, y0 = int(tc[:, 0].min()) - 25, int(tc[:, 1].min()) - 25
    x1, y1 = int(tc[:, 0].max()) + 25, int(tc[:, 1].max()) + 25
    return img.crop(x0, y0, x1, y1), tc - (x0, y0)


def _blank_view(size):
    quad = np.array([[20.0, 20.0], [size - 20.0, 20.0], [size - 20.0, size - 20.0],
                     [20.0, size - 20.0]])
    return ViewContext(quad, (size, size))


def test_identify_single_candidate(bank, small_map):
    roi, quad = _rendered_scene(3, (0.02, -0.03, 1.0), 0.4, seed=21)
    feats = detect_and_describe(roi, max_features=10000, threshold=8.0)
    view = estimate_view(roi, feats, quad, small_map.get(3).payloads)
    result = identify_sticker(feats, bank, [3], view)
    assert result.sticker_id == 3
    assert result.accepted
    assert result.runner_up_score == 0


def test_identify_blank_scene_ambiguous(bank):
    blank = GreyImage(np.full((200, 200), 120, dtype=np.uint8))
    feats = detect_and_describe(blank, max_features=10000, threshold=8.0)
    result = identify_sticker(feats, bank, [1, 2, 3], _blank_view(200))
    assert not result.accepted
    assert result.sticker_id is None
    assert set(result.scores) == {1, 2, 3}


def test_identify_rejects_empty_candidates(bank):
    blank = GreyImage(np.full((100, 100), 120, dtype=np.uint8))
    feats = detect_and_describe(blank, max_features=10000, threshold=8.0)
    with pytest.raises(ValueError):
        identify_sticker(feats, bank, [], _blank_view(100))


def test_identify_permutation_invariant(bank, small_map):
    roi, quad = _rendered_scene(2, (0.0, 0.0, 1.0), 1.2, seed=22)
    feats = detect_and_describe(roi, max_features=5000, threshold=8.0)
    # estimate_view probes with one candidate, so both orders share one view.
    view = estimate_view(roi, feats, quad, small_map.get(1).payloads)
    a = identify_sticker(feats, bank, [1, 2, 3, 4], view)
    b = identify_sticker(feats, bank, [4, 3, 2, 1], view)
    assert a.sticker_id == b.sticker_id == 2
    assert a.scores == b.scores


def test_identify_restricting_candidates_keeps_answer(bank, small_map):
    roi, quad = _rendered_scene(4, (0.01, 0.02, 0.95), 2.5, seed=23)
    feats = detect_and_describe(roi, max_features=5000, threshold=8.0)
    view = estimate_view(roi, feats, quad, small_map.get(1).payloads)
    full = identify_sticker(feats, bank, [1, 2, 3, 4], view)
    restricted = identify_sticker(feats, bank, [2, 4], view)
    assert full.accepted
    assert restricted.sticker_id == full.sticker_id == 4


def test_contract_quad_pulls_along_axis():
    quad = np.array([[0.0, 0.0], [100.0, 0.0], [100.0, 100.0], [0.0, 100.0]])
    out = contract_quad(quad, (1.0, 0.0), 10.0)
    assert np.allclose(out[:, 0], [10.0, 90.0, 90.0, 10.0])
    assert np.allclose(out[:, 1], quad[:, 1])


def test_estimate_blur_direction_on_streaks():
    rng = np.random.default_rng(5)
    base = rng.uniform(0, 255, size=(120, 120))
    from scipy import ndimage

    smeared = ndimage.uniform_filter1d(base, 15, axis=1)  # horizontal smear
    d = estimate_blur_direction(GreyImage.from_float(smeared))
    assert abs(d[0]) > 0.95  # dominant x component


def test_render_candidate_view_matches_orientation():
    cells = sticker_cells(6)
    quad = np.array([[20.0, 20.0], [180.0, 20.0], [180.0, 180.0], [20.0, 180.0]])
    view = ViewContext(quad, (200, 200), 0.0, (1.0, 0.0), 120.0, turns=0)
    img = render_candidate_view(StickerSpec(6, 0, 0).payloads, view)
    from floortag.artwork import best_artwork_rotation

    assert best_artwork_rotation(img, quad, cells) == 0
    view1 = ViewContext(quad, (200, 200), 0.0, (1.0, 0.0), 120.0, turns=1)
    img1 = render_candidate_view(StickerSpec(6, 0, 0).payloads, view1)
    assert best_artwork_rotation(img1, quad, cells) == 1
