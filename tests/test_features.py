from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from floortag import artwork, features
from floortag.artwork import render_sticker
from floortag.bench import sample_camera_pose
from floortag.features import (
    DESCRIPTOR_BITS,
    DESCRIPTOR_BYTES,
    MARGIN,
    FeatureSet,
    calibrate_thresholds,
    detect_and_describe,
    match,
)
from floortag.geometry import CameraIntrinsics, camera_world_position
from floortag.identify import (
    DETECTION_FEATURES,
    VIEW_REFERENCE_FEATURES,
    REFERENCE_THRESHOLD,
    ReferenceBank,
    reference_sizes,
)
from floortag.imaging import GreyImage
from floortag.simulate import RenderConfig, exposure_for_blur_px, render
from floortag.warehouse import generate_grid_map

import supersampled

INTR = CameraIntrinsics.reference_camera(binning=2)


def described(descriptors: np.ndarray) -> FeatureSet:
    """Descriptor rows as a FeatureSet; matching reads no positions."""
    return FeatureSet(np.zeros((len(descriptors), 2)), descriptors)


# Reference detector: the plain full-frame computation, on exact integer sums.
# detect_and_describe must reproduce its keypoints and descriptors bit for bit.
def oracle_fast_candidates(px: np.ndarray, threshold: float):
    h, w = px.shape
    core = px[3 : h - 3, 3 : w - 3]
    bright_bits = np.zeros(core.shape, dtype=np.uint16)
    dark_bits = np.zeros(core.shape, dtype=np.uint16)
    diffs = np.empty((16,) + core.shape, dtype=np.float32)
    for i, (dy, dx) in enumerate(features._CIRCLE):
        shifted = px[3 + dy : h - 3 + dy, 3 + dx : w - 3 + dx]
        d = shifted - core
        diffs[i] = d
        bright_bits |= (d > threshold).astype(np.uint16) << i
        dark_bits |= (d < -threshold).astype(np.uint16) << i
    is_corner = features._RUN9[bright_bits] | features._RUN9[dark_bits]
    if not is_corner.any():
        return np.empty((0, 2), dtype=np.int64), np.zeros(0)
    excess = np.abs(diffs) - threshold
    np.clip(excess, 0.0, None, out=excess)
    score = excess.sum(axis=0)
    score[~is_corner] = 0.0
    local_max = score >= ndimage.maximum_filter(score, size=3, mode="constant")
    keep = is_corner & local_max & (score > 0)
    ys, xs = np.nonzero(keep)
    return np.column_stack([xs + 3, ys + 3]), score[ys, xs]


def oracle_pretest(px: np.ndarray, threshold: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns where two adjacent compass points both pass, in int16."""
    h, w = px.shape
    p = px.astype(np.int16)
    core = p[3 : h - 3, 3 : w - 3]
    north, east, south, west = (
        p[3 + dy : h - 3 + dy, 3 + dx : w - 3 + dx] for dy, dx in features._CIRCLE[::4]
    )
    step = np.floor(threshold)
    hi, lo = core + step, core - step
    maybe = ((north > hi) | (south > hi)) & ((east > hi) | (west > hi))
    maybe |= ((north < lo) | (south < lo)) & ((east < lo) | (west < lo))
    ys, xs = np.nonzero(maybe)
    return ys + 3, xs + 3


def test_ring_masks_set_bit_i_for_ring_pixel_i():
    passed = np.random.default_rng(5).random((16, 500)) < 0.5
    want = np.zeros(500, dtype=np.uint16)
    for i in range(16):
        want |= passed[i].astype(np.uint16) << i
    assert np.array_equal(features._ring_masks(passed), want)


def oracle_box_sums(px: np.ndarray, size: int) -> np.ndarray:
    """Exact integer size x size sums over the whole frame."""
    ones = np.ones((size, size), dtype=np.int64)
    return ndimage.correlate(px.astype(np.int64), ones, mode="nearest")


def oracle_harris_response(px: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """25 times the Harris response (k = 1/25) of the 7x7 sums of Sobel products."""
    p = px.astype(np.int32)
    gx = ndimage.sobel(p, axis=1, mode="nearest").astype(np.int64)
    gy = ndimage.sobel(p, axis=0, mode="nearest").astype(np.int64)
    ixx = oracle_box_sums(gx * gx, 7)
    iyy = oracle_box_sums(gy * gy, 7)
    ixy = oracle_box_sums(gx * gy, 7)
    det = ixx * iyy - ixy * ixy
    trace = ixx + iyy
    response = 25 * det - trace * trace
    return response[ys, xs]


def oracle_candidates(img: GreyImage, threshold: float):
    """FAST points inside the margin, their scores and Harris responses."""
    px = img.to_float()
    h, w = px.shape
    pts, scores = oracle_fast_candidates(px, threshold)
    inside = (
        (pts[:, 0] >= MARGIN)
        & (pts[:, 0] < w - MARGIN)
        & (pts[:, 1] >= MARGIN)
        & (pts[:, 1] < h - MARGIN)
    )
    pts, scores = pts[inside], scores[inside]
    return pts, scores, oracle_harris_response(img.pixels, pts[:, 0], pts[:, 1])


def oracle_describe(sums: np.ndarray, xs, ys, angles) -> np.ndarray:
    """Test bits from four rotated coordinate arrays, each cast to integers on its own."""
    c = np.cos(angles)[:, None]
    s = np.sin(angles)[:, None]
    x1, y1, x2, y2 = features._PATTERN.T
    ax = np.rint(c * x1 - s * y1).astype(np.int64) + xs[:, None]
    ay = np.rint(s * x1 + c * y1).astype(np.int64) + ys[:, None]
    bx = np.rint(c * x2 - s * y2).astype(np.int64) + xs[:, None]
    by = np.rint(s * x2 + c * y2).astype(np.int64) + ys[:, None]
    w = sums.shape[1]
    flat = sums.ravel()
    bits = flat[ay * w + ax] < flat[by * w + bx]
    return np.packbits(bits, axis=1)


def oracle_detect(img: GreyImage, max_features: int, threshold: float) -> FeatureSet:
    pts, scores, harris = oracle_candidates(img, threshold)
    if len(pts) == 0:
        return FeatureSet(np.empty((0, 2)), np.empty((0, DESCRIPTOR_BYTES), dtype=np.uint8))
    order = np.argsort(-harris, kind="stable")[:max_features]
    xs, ys, scores = pts[order, 0], pts[order, 1], scores[order]
    angles = features._orientations(img.to_float(), xs, ys)
    descriptors = oracle_describe(oracle_box_sums(img.pixels, 5), xs, ys, angles)
    order = np.argsort(-scores, kind="stable")
    return FeatureSet(np.column_stack([xs, ys])[order], descriptors[order])


def assert_matches_oracle(img: GreyImage, max_features: int, threshold: float) -> FeatureSet:
    got = detect_and_describe(img, max_features=max_features, threshold=threshold)
    want = oracle_detect(img, max_features, threshold)
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.descriptors, want.descriptors)
    return got


def assert_row_kernels_match_oracle(img: GreyImage, threshold: float) -> None:
    """Harris at every candidate, and every box sum a test can read, equal the full frame's."""
    pts, _, want_harris = oracle_candidates(img, threshold)
    if len(pts) == 0:
        return
    xs, ys = pts[:, 0], pts[:, 1]
    assert np.array_equal(features._harris_at(img.pixels, xs, ys), want_harris)
    full = oracle_box_sums(img.pixels, 5)
    store, cols, rows = features._box_sums(img.pixels, xs, ys)
    assert store.dtype == np.int16
    for x, y, col, row in zip(xs.tolist(), ys.tolist(), cols.tolist(), rows.tolist()):
        got = store[row - 13 : row + 14, col - 13 : col + 14]
        assert np.array_equal(got, full[y - 13 : y + 14, x - 13 : x + 14])


@pytest.fixture(scope="module")
def scene_renders():
    """A sharp and a 10 px-smeared frame of a 3x3 map, seeded."""
    wmap = generate_grid_map(3, 3, 1.0)
    target = wmap.get(4)
    pose = sample_camera_pose(np.random.default_rng(11), (target.world_x, target.world_y))
    height = float(camera_world_position(pose)[2])
    sharp, _ = render(wmap, INTR, pose, RenderConfig(seed=11))
    smeared, _ = render(wmap, INTR, pose, RenderConfig(
        seed=12, exposure_reciprocal=exposure_for_blur_px(INTR, height, 1.0, 10.0),
        velocity=1.0, heading=0.7))
    return {"sharp": sharp, "smeared": smeared}


@pytest.mark.parametrize("kind", ["sharp", "smeared"])
@pytest.mark.parametrize("threshold", [8.0, 20.0])
@pytest.mark.parametrize("max_features", [2500, 1000])
def test_frame_features_match_oracle(scene_renders, kind, threshold, max_features):
    feats = assert_matches_oracle(scene_renders[kind], max_features, threshold)
    assert len(feats) > 50


@pytest.mark.parametrize("kind", ["sharp", "smeared"])
def test_frame_row_kernels_match_oracle(scene_renders, kind):
    assert_row_kernels_match_oracle(scene_renders[kind], 8.0)


def test_reference_artwork_features_match_oracle():
    # Clean artwork is where Harris responses tie and the per-size cap bites,
    # so the order among tied candidates decides which keypoints are kept.
    sizes = reference_sizes(INTR)
    grids = {
        "detection": (artwork.sticker_cells_from_payloads(
            list(artwork.detection_reference_payloads(0))), DETECTION_FEATURES),
        "sticker": (artwork.sticker_cells(5), VIEW_REFERENCE_FEATURES),
    }
    capped_with_ties = 0
    for cells, total in grids.values():
        for size in sizes:
            img = artwork.render_cells(cells, size)
            per_size = total // len(sizes)
            assert_matches_oracle(img, per_size, REFERENCE_THRESHOLD)
            harris = oracle_candidates(img, REFERENCE_THRESHOLD)[2]
            ties = len(harris) - len(np.unique(harris))
            capped_with_ties += len(harris) > per_size and ties > 0
    assert capped_with_ties > 0


def test_reference_bank_detection_matches_oracle():
    # The bank's rasters drawn sub-pixel by sub-pixel, then detected in full frame.
    got = ReferenceBank.build(generate_grid_map(3, 3, 1.0), INTR).detection
    cells = artwork.sticker_cells_from_payloads(list(artwork.detection_reference_payloads(0)))
    sizes = reference_sizes(INTR)
    want = [
        oracle_detect(supersampled.render_cells(cells, size),
                      DETECTION_FEATURES // len(sizes), REFERENCE_THRESHOLD)
        for size in sizes
    ]
    assert np.array_equal(got.positions, np.vstack([w.positions for w in want]))
    assert np.array_equal(got.descriptors, np.vstack([w.descriptors for w in want]))


@pytest.mark.parametrize("kind", ["sharp", "smeared"])
def test_frame_descriptors_match_oracle(scene_renders, kind):
    # _describe on what detection hands it: the keypoints' places in the box-sum store.
    img = scene_renders[kind]
    pts = oracle_candidates(img, 8.0)[0]
    xs, ys = pts[:, 0], pts[:, 1]
    angles = features._orientations(img.pixels, xs, ys)
    store, cols, rows = features._box_sums(img.pixels, xs, ys)
    got = features._describe(store, cols, rows, angles)
    assert len(got) > 50
    assert np.array_equal(got, oracle_describe(store, cols, rows, angles))


# Multiples of pi/4, where cos and sin are 0, +-1 or +-sqrt(1/2) up to rounding.
_QUARTER_ANGLES = (np.arange(8) * np.pi / 4).tolist()


@settings(max_examples=100, deadline=None)
@given(
    angles=arrays(np.float64, st.integers(0, 40),
                  elements=st.one_of(st.sampled_from(_QUARTER_ANGLES), st.floats(0.0, 2 * np.pi))),
    seed=st.integers(0, 2**32 - 1),
)
def test_descriptors_at_random_angles_match_oracle(angles, seed):
    # Up to 40 keypoints: none, one or two _describe chunks. Rotated tests
    # reach 13 px from a keypoint; 1280 levels of box sums tie often.
    rng = np.random.default_rng(seed)
    sums = rng.integers(0, 256 * 5, size=(40, 60)).astype(np.int16)
    xs = rng.integers(13, 47, len(angles))
    ys = rng.integers(13, 27, len(angles))
    got = features._describe(sums, xs, ys, angles)
    assert got.shape == (len(angles), DESCRIPTOR_BYTES)
    assert np.array_equal(got, oracle_describe(sums, xs, ys, angles))


def test_blank_frame_matches_oracle():
    img = GreyImage(np.full((INTR.height, INTR.width), 120, dtype=np.uint8))
    assert len(assert_matches_oracle(img, 1000, 20.0)) == 0


def test_corners_at_the_frame_edge_match_oracle():
    # Squares whose corners sit 3 px from the edge: the outermost pixels FAST
    # tests, where non-maximal suppression meets the border.
    px = np.full((32, 32), 40, dtype=np.uint8)
    px[3:12, 3:12] = 220
    px[20:29, 20:29] = 220
    pts, scores = features._fast_candidates(px, 20.0)
    want_pts, want_scores = oracle_fast_candidates(px.astype(np.float64), 20.0)
    assert np.array_equal(pts, want_pts) and np.array_equal(scores, want_scores)
    assert {3, 28} <= set(pts.ravel().tolist())
    assert_matches_oracle(GreyImage(px), 1000, 20.0)


# Grey levels around 100 at the threshold boundaries, mixed with any level.
_LEVEL_VALUES = np.array([100 + d for d in (0, 7, 8, 9, 20, 21, -7, -8, -9, -20, -21)])
_LEVELS = st.sampled_from(_LEVEL_VALUES.tolist())


@settings(max_examples=300, deadline=None)
@given(
    px=arrays(np.uint8, st.tuples(st.integers(7, 24), st.integers(7, 24)),
              elements=st.one_of(_LEVELS, st.integers(0, 255))),
    threshold=st.sampled_from([0.0, 7.5, 8.0, 20.0]),
)
def test_fast_candidates_match_oracle(px, threshold):
    pts, scores = features._fast_candidates(px, threshold)
    want_pts, want_scores = oracle_fast_candidates(px.astype(np.float64), threshold)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(scores, want_scores)


@settings(max_examples=200, deadline=None)
@given(
    px=arrays(np.uint8, st.tuples(st.integers(7, 40), st.integers(7, 64)),
              elements=st.one_of(_LEVELS, st.integers(0, 255))),
    threshold=st.sampled_from([0.0, 7.5, 20.0, 254.5, 255.0, 300.0]),
    chunk=st.integers(1, 300),
)
def test_pretest_chunks_match_oracle(px, threshold, chunk):
    # Small chunks put chunk edges mid-row, at row ends and in a last partial chunk.
    h, w = px.shape
    step = min(int(np.floor(threshold)), 255)
    with mock.patch.object(features, "_PRETEST_CHUNK", chunk):
        ys, xs = np.divmod(features._pretest(px.ravel(), h, w, step), w)
        pts, scores = features._fast_candidates(px, threshold)
    # The pre-test itself is the exact compass-point test, away from the
    # columns where its flat shifts wrap.
    inside = (xs >= 3) & (xs < w - 3)
    want_ys, want_xs = oracle_pretest(px, threshold)
    assert np.array_equal(ys[inside], want_ys) and np.array_equal(xs[inside], want_xs)
    want_pts, want_scores = oracle_fast_candidates(px.astype(np.float64), threshold)
    assert np.array_equal(pts, want_pts)
    assert np.array_equal(scores, want_scores)


@pytest.mark.parametrize("threshold", [-1.0, -0.5, float("nan"), float("inf"), float("-inf")])
def test_negative_or_non_finite_threshold_rejected(threshold):
    img = GreyImage(np.random.default_rng(0).integers(0, 256, (40, 40), dtype=np.uint8))
    with pytest.raises(ValueError, match="threshold"):
        detect_and_describe(img, threshold=threshold)


@st.composite
def blocky_images(draw):
    """A uint8 image of 32 to 120 px a side: a flat ground, blocks, then noise."""
    h = draw(st.integers(32, 120))
    w = draw(st.integers(32, 120))
    px = np.full((h, w), draw(st.integers(0, 255)), dtype=np.int16)
    for _ in range(draw(st.integers(0, 12))):
        y0, y1 = sorted(draw(st.tuples(st.integers(0, h), st.integers(0, h))))
        x0, x1 = sorted(draw(st.tuples(st.integers(0, w), st.integers(0, w))))
        px[y0:y1, x0:x1] = draw(st.integers(0, 255))
    amplitude = draw(st.sampled_from([0, 2, 12, 60]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    px += rng.integers(-amplitude, amplitude + 1, size=(h, w), dtype=np.int16)
    return GreyImage(np.clip(px, 0, 255).astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(
    img=blocky_images(),
    threshold=st.sampled_from([0.0, 8.0, 20.0, REFERENCE_THRESHOLD]),
    max_features=st.sampled_from([1, 3, 17, 60, 1000]),
)
def test_random_images_match_oracle(img, threshold, max_features):
    assert_matches_oracle(img, max_features, threshold)
    assert_row_kernels_match_oracle(img, threshold)


@st.composite
def level_images(draw):
    """A 40 to 72 px image of _LEVELS grey levels: a ground with sparse or dense dots."""
    h = draw(st.integers(40, 72))
    w = draw(st.integers(40, 72))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    px = np.full((h, w), draw(_LEVELS), dtype=np.uint8)
    dots = rng.random((h, w)) < draw(st.sampled_from([0.02, 0.2, 1.0]))
    px[dots] = rng.choice(_LEVEL_VALUES, dots.sum())
    return GreyImage(px)


@settings(max_examples=100, deadline=None)
@given(
    img=level_images(),
    threshold=st.sampled_from([0.0, 7.5, 8.0, 20.0]),
    below=st.integers(1, 20),
)
def test_tied_scores_match_oracle_around_the_cap(img, threshold, below):
    # Few grey levels make many corners score the same, so Harris decides
    # their order; the cap below, at and above the corner count decides
    # whether it ranks every corner or only the tied ones.
    corners = len(oracle_candidates(img, threshold)[0])
    for max_features in {max(1, corners - below), max(1, corners), corners + below}:
        assert_matches_oracle(img, max_features, threshold)


def _corners_given_to_harris(img: GreyImage, max_features: int) -> set:
    seen = []
    real = features._harris_at

    def spy(px, xs, ys):
        seen.extend(zip(xs.tolist(), ys.tolist()))
        return real(px, xs, ys)

    with mock.patch.object(features, "_harris_at", spy):
        detect_and_describe(img, max_features=max_features, threshold=20.0)
    assert len(seen) == len(set(seen))
    return set(seen)


def test_harris_runs_only_where_it_decides_the_order(scene_renders):
    img = scene_renders["sharp"]
    pts, scores, _ = oracle_candidates(img, 20.0)
    values, counts = np.unique(scores, return_counts=True)
    tied = np.isin(scores, values[counts > 1])
    every = {tuple(p) for p in pts.tolist()}
    assert 0 < tied.sum() < len(pts) < 2500
    # Below the cap a unique FAST score fixes a corner's place by itself.
    got = _corners_given_to_harris(img, 2500)
    assert got == {tuple(p) for p in pts[tied].tolist()}
    # When the cap cuts, Harris ranks every corner.
    assert _corners_given_to_harris(img, len(pts) - 1) == every
    for max_features in (len(pts) - 1, len(pts), len(pts) + 1):
        assert_matches_oracle(img, max_features, 20.0)


def test_detection_makes_no_float_copy_of_the_frame(scene_renders, monkeypatch):
    want = oracle_detect(scene_renders["sharp"], 1000, 20.0)

    def refuse(self):
        raise AssertionError("detection copied the frame to float")

    monkeypatch.setattr(GreyImage, "to_float", refuse)
    got = detect_and_describe(scene_renders["sharp"], max_features=1000, threshold=20.0)
    assert len(got) > 50
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.descriptors, want.descriptors)


def test_detection_runs_no_scipy_filter(scene_renders, monkeypatch):
    img = scene_renders["sharp"]
    want = oracle_detect(img, 1000, 20.0)

    def refuse(*args, **kwargs):
        raise AssertionError("detection ran a scipy filter")

    for name in ("uniform_filter1d", "uniform_filter", "correlate1d", "correlate", "sobel"):
        monkeypatch.setattr(ndimage, name, refuse)
    got = detect_and_describe(img, max_features=1000, threshold=20.0)
    assert len(got) > 50
    assert np.array_equal(got.positions, want.positions)
    assert np.array_equal(got.descriptors, want.descriptors)


def shifted_right(img: GreyImage, k: int) -> GreyImage:
    """img moved k px to the right, its left column repeated into the gap."""
    px = img.pixels
    return GreyImage(np.concatenate([np.repeat(px[:, :1], k, axis=1), px[:, :-k]], axis=1))


@pytest.mark.parametrize("k", [1, 37])
def test_descriptors_are_translation_invariant(k):
    # Box sums are exact, so a keypoint's descriptor depends on the pixels
    # around it and not on its column: a keypoint at (x, y) reappears at
    # (x + k, y) in the shifted frame with the same bits.
    wmap = generate_grid_map(3, 3, 1.0)
    rng = np.random.default_rng(1)
    for i in range(4):
        target = wmap.get(wmap.ids[int(rng.integers(0, len(wmap.ids)))])
        pose = sample_camera_pose(rng, (target.world_x, target.world_y))
        img, _ = render(wmap, INTR, pose, RenderConfig(seed=100 + i))
        a = detect_and_describe(img, max_features=2500, threshold=8.0)
        b = detect_and_describe(shifted_right(img, k), max_features=2500, threshold=8.0)
        where = {p: j for j, p in enumerate(map(tuple, b.positions.tolist()))}
        pairs = [(j, where[(x + k, y)]) for j, (x, y) in enumerate(a.positions.tolist())
                 if (x + k, y) in where]
        assert len(pairs) > 0.9 * len(a) > 100
        ia, ib = np.array(pairs).T
        assert np.array_equal(a.descriptors[ia], b.descriptors[ib])


@pytest.mark.parametrize("max_features", [0, -3])
def test_max_features_below_one_rejected(max_features):
    with pytest.raises(ValueError, match="max_features"):
        detect_and_describe(render_sticker(1, 200), max_features=max_features)


def test_uniform_image_has_no_keypoints():
    img = GreyImage(np.full((64, 64), 128, dtype=np.uint8))
    assert len(detect_and_describe(img)) == 0


def test_too_small_image_rejected():
    with pytest.raises(ValueError):
        detect_and_describe(GreyImage(np.zeros((16, 16), dtype=np.uint8)))


def test_reference_sticker_keypoint_count():
    feats = detect_and_describe(render_sticker(1, 400), max_features=1000)
    # Regression band around the measured count; the contract floor is 50.
    assert len(feats) >= 50
    assert 380 <= len(feats) <= 640


def test_keypoints_sorted_by_response_and_capped():
    # The oracle orders its keypoints by FAST score, the response.
    feats = assert_matches_oracle(render_sticker(2, 400), 120, 20.0)
    assert len(feats) == 120


def test_keypoints_respect_margin():
    img = render_sticker(3, 300)
    feats = detect_and_describe(img, max_features=500)
    xs, ys = feats.positions.T
    assert ((16 <= xs) & (xs < img.width - 16)).all()
    assert ((16 <= ys) & (ys < img.height - 16)).all()
    angles = features._orientations(img.pixels, xs.astype(np.int64), ys.astype(np.int64))
    assert ((0 <= angles) & (angles < 2 * np.pi)).all()


def test_rotated_copy_matches_with_small_distance():
    img = render_sticker(1, 260)
    rotated = GreyImage(np.rot90(img.pixels).copy())
    a = detect_and_describe(img, max_features=300, threshold=15.0)
    b = detect_and_describe(rotated, max_features=300, threshold=15.0)
    ms = match(a, b, max_distance=64)
    assert len(ms) > 0.7 * min(len(a), len(b))
    assert np.median(ms.distance) <= 40


def test_match_self_identity():
    feats = detect_and_describe(render_sticker(4, 220), max_features=150, threshold=15.0)
    # Grid artwork can yield byte-identical descriptors; self-identity is
    # defined on distinct descriptor values.
    unique = np.unique(feats.descriptors, axis=0)
    ms = match(described(unique), described(unique), max_distance=64)
    assert len(ms) == len(unique)
    assert np.array_equal(ms.reference, ms.scene) and not ms.distance.any()


def test_random_descriptors_rarely_match_close():
    rng = np.random.default_rng(0)
    a = rng.integers(0, 256, size=(100, 32), dtype=np.uint8)
    b = rng.integers(0, 256, size=(100, 32), dtype=np.uint8)
    ms = match(described(a), described(b), max_distance=10)
    assert len(ms) == 0


def test_match_requires_descriptors():
    feats = detect_and_describe(render_sticker(4, 220), max_features=50)
    with pytest.raises(ValueError):
        match(described(np.empty((0, 32), dtype=np.uint8)), feats)


def test_match_sorted_by_distance():
    rng = np.random.default_rng(1)
    base = rng.integers(0, 256, size=(60, 32), dtype=np.uint8)
    noisy = base.copy()
    for i in range(60):
        for _ in range(i % 5):
            noisy[i, rng.integers(0, 32)] ^= 1 << rng.integers(0, 8)
    ms = match(described(base), described(noisy), max_distance=64)
    assert np.array_equal(ms.distance, np.sort(ms.distance))


def test_match_one_to_one_on_scene():
    ref = np.zeros((3, 32), dtype=np.uint8)
    ref[1, 0] = 0xFF
    ref[2, 1] = 0xFF
    scene = np.zeros((2, 32), dtype=np.uint8)
    scene[1, 0] = 0xFF
    ms = match(described(ref), described(scene), max_distance=256)
    scene_indices = ms.scene_indices()
    assert len(scene_indices) == len(set(scene_indices))


def test_match_tie_breaks_to_lower_scene_index():
    ref = np.zeros((1, 32), dtype=np.uint8)
    scene = np.zeros((3, 32), dtype=np.uint8)
    ms = match(described(ref), described(scene), max_distance=0)
    assert (ms.reference.tolist(), ms.scene.tolist(), ms.distance.tolist()) == ([0], [0], [0])


def test_hamming_is_a_metric_on_random_triples():
    def hamming_distance(a, b):
        return int(features._distance_matrix(a[None], b[None])[0, 0])

    rng = np.random.default_rng(2)
    for _ in range(200):
        a, b, c = rng.integers(0, 256, size=(3, 32), dtype=np.uint8)
        dab = hamming_distance(a, b)
        dba = hamming_distance(b, a)
        assert dab == dba
        assert 0 <= dab <= 256
        assert hamming_distance(a, c) <= dab + hamming_distance(b, c)
        assert hamming_distance(a, a) == 0


# Reference bit count: a 256-entry table over the bytes of the XOR.
_BYTE_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def oracle_distance_matrix(ref: np.ndarray, scene: np.ndarray) -> np.ndarray:
    return np.array(
        [_BYTE_POPCOUNT[np.bitwise_xor(row, scene)].sum(axis=1, dtype=np.uint16) for row in ref]
    ).reshape(len(ref), len(scene))


@pytest.mark.parametrize("n_ref,n_scene", [(1, 1), (1, 300), (300, 1), (927, 228), (250, 40000)])
def test_distance_matrix_matches_byte_table(n_ref, n_scene):
    # 250 references against 40000 scene descriptors run in blocks of 100,
    # the last one partial.
    rng = np.random.default_rng(n_ref * 7 + n_scene)
    ref = rng.integers(0, 256, size=(n_ref, DESCRIPTOR_BYTES), dtype=np.uint8)
    scene = rng.integers(0, 256, size=(n_scene, DESCRIPTOR_BYTES), dtype=np.uint8)
    # Identical rows reach distance 0 and complements reach the full 256 bits.
    ref[-1] = ~scene[-1]
    ref[0] = scene[0]
    got = features._distance_matrix(ref, scene)
    want = oracle_distance_matrix(ref, scene)
    assert got.dtype == np.uint16 and got.shape == (n_ref, n_scene)
    assert np.array_equal(got, want)
    assert got[0, 0] == 0
    assert n_ref == 1 or got[-1, -1] == DESCRIPTOR_BITS


def test_scene_superset_rarely_loses_matches():
    rng = np.random.default_rng(3)
    losses = 0
    trials = 40
    for _ in range(trials):
        ref = rng.integers(0, 256, size=(50, 32), dtype=np.uint8)
        scene = rng.integers(0, 256, size=(80, 32), dtype=np.uint8)
        extra = rng.integers(0, 256, size=(40, 32), dtype=np.uint8)
        m1 = len(match(described(ref), described(scene), max_distance=128))
        m2 = len(match(described(ref), described(np.vstack([scene, extra])), max_distance=128))
        if m2 < m1:
            losses += 1
    assert losses <= trials * 0.05 + 1


def test_calibrate_thresholds():
    absent_max, detect_min = calibrate_thresholds([80, 95, 120], [2, 5, 9])
    assert 9 < absent_max <= detect_min < 80
    with pytest.raises(ValueError):
        calibrate_thresholds([10, 12], [11, 13])


def test_feature_set_validates_lengths():
    with pytest.raises(ValueError):
        FeatureSet(np.ones((1, 2)), np.zeros((2, 32), dtype=np.uint8))


# Reference matcher: a Python loop over the references. match must return the
# same pairs in the same order.
def oracle_match(ref: np.ndarray, scene: np.ndarray, max_distance: int) -> list:
    dist = oracle_distance_matrix(ref, scene)
    nearest_scene = dist.argmin(axis=1)
    nearest_ref = dist.argmin(axis=0)
    pairs = []
    for i, j in enumerate(nearest_scene):
        d = int(dist[i, j])
        if d <= max_distance and nearest_ref[j] == i:
            pairs.append((i, int(j), d))
    pairs.sort(key=lambda p: (p[2], p[0]))
    return pairs


@pytest.mark.parametrize("seed", range(12))
def test_match_equals_loop_oracle_with_tied_distances(seed):
    # Copies of a few descriptors, half with one bit flipped: many pairs share
    # a distance, rows and columns tie for their nearest, and duplicates abound.
    rng = np.random.default_rng(seed)
    palette = rng.integers(0, 256, size=(int(rng.integers(2, 8)), DESCRIPTOR_BYTES), dtype=np.uint8)

    def draw(n):
        d = palette[rng.integers(0, len(palette), n)]
        flip = rng.random(n) < 0.5
        bit = rng.integers(0, DESCRIPTOR_BITS, flip.sum())
        d[flip, bit // 8] ^= (1 << bit % 8).astype(np.uint8)
        return d

    ref, scene = draw(int(rng.integers(1, 60))), draw(int(rng.integers(1, 60)))
    for max_distance in (0, 1, 2, 64, 256):
        want = oracle_match(ref, scene, max_distance)
        ms = match(described(ref), described(scene), max_distance=max_distance)
        assert list(zip(ms.reference.tolist(), ms.scene.tolist(), ms.distance.tolist())) == want
    dist = oracle_distance_matrix(ref, scene)
    assert len(np.unique(dist)) < dist.size
