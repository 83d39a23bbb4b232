from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import ndimage

from floortag import artwork, datamatrix, imaging, pipeline
from floortag.artwork import read_sticker
from floortag.bench import sample_camera_pose
from floortag.geometry import CameraIntrinsics, camera_world_position, homography_dlt
from floortag.identify import ReferenceBank
from floortag.imaging import (
    Contour,
    GreyImage,
    MeanOffset,
    NotAQuadError,
    PgmError,
    QuadCorners,
    binarize,
    extract_quad_corners,
    load_pgm,
    save_pgm,
    trace_contours,
)
from floortag.simulate import RenderConfig, exposure_for_blur_px, render
from floortag.warehouse import generate_grid_map

from rectified import RECTIFIED_STICKER_PX, rectify_quad


def test_grey_image_validates_shape():
    with pytest.raises(ValueError):
        GreyImage(np.zeros((0, 5), dtype=np.uint8))
    with pytest.raises(ValueError):
        GreyImage(np.zeros(10, dtype=np.uint8))


def test_grey_image_keeps_pixels_holding_bytes():
    for px in (np.array([[0, 7, 255]], dtype=np.uint8), np.array([[0, 128, 255]]),
               np.array([[0.0, 128.0, 255.0]]), np.eye(2, dtype=bool)):
        img = GreyImage(px)
        assert img.pixels.dtype == np.uint8 and np.array_equal(img.pixels, px)


def test_grey_image_rejects_integers_out_of_range():
    with pytest.raises(ValueError, match="GreyImage.from_float"):
        GreyImage(np.array([[256, -1, 300]]))
    with pytest.raises(ValueError, match="GreyImage.from_float"):
        GreyImage(np.array([[0, -1]], dtype=np.int16))


def test_grey_image_rejects_fractional_floats():
    with pytest.raises(ValueError, match="GreyImage.from_float"):
        GreyImage(np.array([[255.7, 0.0]]))
    assert GreyImage.from_float(np.array([[255.7, 0.4]])).pixels.tolist() == [[255, 0]]


def test_grey_image_rejects_non_finite_floats():
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="GreyImage.from_float"):
            GreyImage(np.array([[bad, 10.0]]))


def test_from_float_rejects_non_finite_values():
    with pytest.raises(ValueError, match="finite"):
        GreyImage.from_float(np.array([[np.nan, 300.0, -np.inf]]))
    with pytest.raises(ValueError, match="finite"):
        GreyImage.from_float(np.array([[10.0, np.inf]]))


def test_grey_image_immutable():
    img = GreyImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


def test_pgm_round_trip_small(tmp_path):
    img = GreyImage(np.array([[0, 255], [128, 7]], dtype=np.uint8))
    path = tmp_path / "t.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert back.width == 2 and back.height == 2
    assert np.array_equal(back.pixels, img.pixels)


def test_pgm_round_trip_frame(tmp_path):
    rng = np.random.default_rng(0)
    img = GreyImage(rng.integers(0, 256, size=(480, 640), dtype=np.uint8))
    path = tmp_path / "frame.pgm"
    save_pgm(img, path)
    save_pgm(load_pgm(path), tmp_path / "frame2.pgm")
    assert (tmp_path / "frame.pgm").read_bytes() == (tmp_path / "frame2.pgm").read_bytes()


def test_pgm_rejects_maxval_65535(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(PgmError, match="unsupported maxval"):
        load_pgm(path)


def test_pgm_rejects_truncated(tmp_path):
    path = tmp_path / "short.pgm"
    path.write_bytes(b"P5\n4 4\n255\n" + bytes(7))
    with pytest.raises(PgmError, match="truncated"):
        load_pgm(path)


def test_pgm_rejects_bad_magic(tmp_path):
    path = tmp_path / "p2.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(PgmError):
        load_pgm(path)


def test_pgm_allows_comment(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5\n# made by hand\n2 1\n255\n\x05\x09")
    img = load_pgm(path)
    assert img.pixels.tolist() == [[5, 9]]


def test_binarize_mean_offset_rejects_even_window():
    img = GreyImage(np.zeros((8, 8), dtype=np.uint8))
    with pytest.raises(ValueError):
        binarize(img, MeanOffset(window=4))


def test_binarize_mean_offset_dark_square():
    arr = np.full((60, 60), 200, dtype=np.uint8)
    arr[20:40, 20:40] = 10
    out = binarize(GreyImage(arr), MeanOffset(window=31, offset=10))
    assert np.all(out.pixels[25:35, 25:35] == 0)
    assert np.all(out.pixels[:10, :10] == 255)


def test_trace_contours_blank():
    img = GreyImage(np.full((20, 20), 255, dtype=np.uint8))
    assert trace_contours(img) == []


def test_trace_contours_rejects_grey():
    img = GreyImage(np.full((4, 4), 7, dtype=np.uint8))
    with pytest.raises(ValueError):
        trace_contours(img)


def test_trace_contours_square_area():
    arr = np.full((30, 30), 255, dtype=np.uint8)
    arr[5:15, 5:15] = 0
    contours = trace_contours(GreyImage(arr))
    assert len(contours) == 1
    c = contours[0]
    # Shoelace over boundary pixel centres of a 10x10 block is 9*9.
    assert c.area() == pytest.approx(81.0)
    assert abs(c.area() - 100.0) <= 20.0
    # Closed 8-connected loop.
    pts = c.points
    diffs = np.abs(pts - np.roll(pts, -1, axis=0))
    assert diffs.max() == 1


def test_trace_contours_largest_first():
    arr = np.full((60, 80), 255, dtype=np.uint8)
    arr[5:15, 5:15] = 0
    arr[20:50, 30:70] = 0
    contours = trace_contours(GreyImage(arr))
    assert len(contours) == 2
    assert contours[0].area() > contours[1].area()
    assert contours[0].points[:, 0].min() >= 29


def test_trace_contours_enclosed_pixels_dark():
    arr = np.full((40, 40), 255, dtype=np.uint8)
    arr[10:20, 12:25] = 0
    contours = trace_contours(GreyImage(arr))
    (c,) = contours
    xs = c.points[:, 0]
    ys = c.points[:, 1]
    interior = arr[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    assert np.all(interior == 0)


def test_trace_contours_ring_outer_only():
    arr = np.full((40, 40), 255, dtype=np.uint8)
    arr[10:30, 10:30] = 0
    arr[15:25, 15:25] = 255  # hole
    contours = trace_contours(GreyImage(arr))
    assert len(contours) == 1
    assert contours[0].area() == pytest.approx(19 * 19)


# Reference tracer: the Moore-neighbour walk scanning up to 8 neighbours per
# step, one component at a time. trace_contours must reproduce its contours
# point for point and in the same order.
def oracle_trace_boundary(mask: np.ndarray, start: tuple[int, int]) -> list[tuple[int, int]]:
    """Moore-neighbour boundary walk of one component from its topmost-leftmost pixel."""
    h, w = mask.shape
    sy, sx = start
    points = [(sx, sy)]
    cy, cx = sy, sx
    back = 0  # west of the topmost-leftmost pixel is guaranteed background
    first_state = None
    max_steps = 4 * int(mask.sum()) + 8
    for _ in range(max_steps):
        found = -1
        for k in range(8):
            d = (back + 1 + k) % 8
            dy, dx = imaging._MOORE[d]
            ny, nx = cy + dy, cx + dx
            if 0 <= ny < h and 0 <= nx < w and mask[ny, nx]:
                found = d
                break
        if found < 0:
            return points  # isolated pixel
        state = (cy, cx, found)
        if first_state is None:
            first_state = state
        elif state == first_state:
            return points[:-1]
        cy, cx = cy + imaging._MOORE[found][0], cx + imaging._MOORE[found][1]
        points.append((cx, cy))
        # New backtrack: the last background cell scanned, seen from the new pixel.
        back = ((found // 2) * 2 + 6) % 8
    return points


def oracle_trace_contours(binary: GreyImage) -> list[Contour]:
    px = binary.pixels
    if not np.all(np.isin(np.unique(px), (0, 255))):
        raise ValueError("input is not binary (values must be 0 or 255)")
    mask = px == 0
    if not mask.any():
        return []
    labels, count = ndimage.label(mask, structure=np.ones((3, 3), dtype=np.int8))
    contours = []
    slices = ndimage.find_objects(labels)
    for idx in range(1, count + 1):
        sl = slices[idx - 1]
        sub = labels[sl] == idx
        ys, xs = np.nonzero(sub)
        order = np.lexsort((xs, ys))  # topmost, then leftmost
        pts = oracle_trace_boundary(sub, (int(ys[order[0]]), int(xs[order[0]])))
        if len(pts) < 4:
            continue
        off = (sl[1].start, sl[0].start)
        contours.append(Contour(np.array(pts, dtype=np.int64) + off))
    contours.sort(key=lambda c: -c.area())
    return contours


def assert_traces_like_oracle(mask: np.ndarray) -> list[Contour]:
    binary = GreyImage(np.where(mask, 0, 255).astype(np.uint8))
    got = trace_contours(binary)
    want = oracle_trace_contours(binary)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.array_equal(g.points, w.points)
    return got


def _mask(rows: list[str]) -> np.ndarray:
    return np.array([[ch == "#" for ch in row] for row in rows])


HAND_MADE_MASKS = {
    "touches_every_edge": _mask([
        "####..#####",
        "#.........#",
        "#..........",
        "...........",
        "##.......##",
        "###..###.##",
    ]),
    "full_image": np.ones((5, 4), dtype=bool),
    "spurs": _mask([
        ".........",
        "....#....",
        "..#####..",
        "..#####.#",
        "########.",
        "..#####..",
        "....#....",
        "....#....",
    ]),
    "diagonal_links_only": _mask([
        "#.......",
        ".#...#..",
        "..#.#...",
        "...#....",
        "..#.#..#",
        ".#...##.",
    ]),
    "rings_with_holes": _mask([
        "##########..",
        "#........#..",
        "#.######.#..",
        "#.#....#.#..",
        "#.#.##.#.###",
        "#.#....#.#.#",
        "#.######.###",
        "##########..",
    ]),
    "u_with_top_row_arms": _mask([
        "#....#...#.#",
        "#....#...#.#",
        "#....#...###",
        "######......",
    ]),
    "isolated_pixels": _mask([
        "#.#.#",
        ".....",
        "..#..",
        ".....",
        "#...#",
    ]),
    "one_pixel": np.ones((1, 1), dtype=bool),
    "one_row": _mask(["##.###.#.####"]),
    "one_column": _mask(["##.###.#.####"]).T.copy(),
    "two_rows": _mask([".##.#..###", "##..##.#.#"]),
}


@pytest.mark.parametrize("name", sorted(HAND_MADE_MASKS))
def test_trace_contours_matches_oracle_on_hand_made_masks(name):
    contours = assert_traces_like_oracle(HAND_MADE_MASKS[name])
    # Lone pixels are dropped; every other case must trace something.
    assert (len(contours) == 0) == (name in ("isolated_pixels", "one_pixel"))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    hnp.arrays(
        np.bool_,
        st.tuples(st.integers(1, 40), st.integers(1, 40)),
        elements=st.booleans(),
    )
)
def test_trace_contours_matches_oracle_on_random_masks(mask):
    assert_traces_like_oracle(mask)


@pytest.fixture(scope="module")
def pipeline_binaries(sticker_frames):
    """Every binary the quad stage traces in a sharp and a 10 px-smeared frame,
    and those decode_roi_detail traces on the rectified sticker of each quad
    the decode stage reads.

    The pipeline itself no longer rectifies a quad it reads, so each one is
    rectified here from the same ROI crop and corners. Identification is
    switched off: on the smeared frame it would dominate the run time.
    """
    intr = CameraIntrinsics.reference_camera(binning=2)
    wmap = generate_grid_map(3, 3, 1.0)
    bank = ReferenceBank.build(wmap, intr)
    seen: dict[str, list[GreyImage]] = {}
    for kind, frame in sticker_frames.items():
        binaries = seen.setdefault(kind, [])

        def recording(binary):
            binaries.append(binary)
            return trace_contours(binary)

        def reading(crop, quad):
            flat = rectify_quad(crop, quad, RECTIFIED_STICKER_PX)
            datamatrix.decode_roi_detail(flat)
            return read_sticker(crop, quad)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "trace_contours", recording)
            mp.setattr(datamatrix, "trace_contours", recording)
            mp.setattr(artwork, "read_sticker", reading)
            mp.setattr(pipeline, "identify_crop", lambda *args: None)
            pipeline.process_frame(frame, wmap, intr, bank)
    return seen


@pytest.mark.parametrize("kind", ["sharp", "smeared"])
def test_trace_contours_matches_oracle_on_pipeline_binaries(pipeline_binaries, kind):
    binaries = pipeline_binaries[kind]
    # The ROI outlines and, where a quad was found, the rectified sticker.
    assert len(binaries) >= 2
    assert any(b.width == b.height == RECTIFIED_STICKER_PX for b in binaries)
    for binary in binaries:
        assert_traces_like_oracle(binary.pixels == 0)


def blank(height: int, width: int) -> GreyImage:
    """A uniform image: no edge profile swings enough to move a corner."""
    return GreyImage(np.full((height, width), 255, dtype=np.uint8))


def test_quad_corners_axis_aligned_square():
    square = [(x, 0) for x in range(10)]
    square += [(9, y) for y in range(1, 10)]
    square += [(x, 9) for x in range(8, -1, -1)]
    square += [(0, y) for y in range(8, 0, -1)]
    qc = extract_quad_corners(Contour(np.array(square)), blank(10, 10))
    assert np.allclose(qc.corners, [[0, 0], [9, 0], [9, 9], [0, 9]], atol=1e-9)


def test_quad_corners_traced_square():
    arr = np.full((30, 30), 255, dtype=np.uint8)
    arr[5:15, 5:15] = 0
    (c,) = trace_contours(GreyImage(arr))
    qc = extract_quad_corners(c, blank(30, 30))
    assert np.allclose(qc.corners, [[5, 5], [14, 5], [14, 14], [5, 14]], atol=1e-9)


def test_quad_corners_diamond():
    # 45-degree square: axis extremes are the true corners.
    arr = np.full((41, 41), 255, dtype=np.uint8)
    cx = cy = 20
    r = 10
    for y in range(41):
        for x in range(41):
            if abs(x - cx) + abs(y - cy) <= r:
                arr[y, x] = 0
    (c,) = trace_contours(GreyImage(arr))
    qc = extract_quad_corners(c, blank(41, 41))
    got = {tuple(np.round(p, 1)) for p in qc.corners}
    want = {(20.0, 10.0), (30.0, 20.0), (20.0, 30.0), (10.0, 20.0)}
    assert got == want


def test_quad_corners_collinear_rejected():
    line = [(x, 5) for x in range(12)] + [(x, 5) for x in range(10, 0, -1)]
    with pytest.raises(NotAQuadError):
        extract_quad_corners(Contour(np.array(line)), blank(12, 12))


def test_quad_corners_rotation_equivariant():
    rng = np.random.default_rng(3)
    arr = np.full((50, 50), 255, dtype=np.uint8)
    arr[12:38, 8:30] = 0
    img = GreyImage(arr)
    (c,) = trace_contours(img)
    base = extract_quad_corners(c, blank(50, 50))

    rot = GreyImage(np.rot90(arr).copy())
    (c_rot,) = trace_contours(rot)
    rotated = extract_quad_corners(c_rot, blank(50, 50))
    # np.rot90 maps (x, y) -> (y, w-1-x); map recovered corners back.
    w = img.width
    mapped = np.column_stack([w - 1 - rotated.corners[:, 1], rotated.corners[:, 0]])
    got = {tuple(np.round(p, 6)) for p in mapped}
    want = {tuple(np.round(p, 6)) for p in base.corners}
    assert got == want
    assert rng is not None


def test_quad_corners_ccw_order_from_top_left():
    arr = np.full((40, 40), 255, dtype=np.uint8)
    arr[10:30, 5:35] = 0
    (c,) = trace_contours(GreyImage(arr))
    qc = extract_quad_corners(c, blank(40, 40))
    x = qc.corners[:, 0]
    y = qc.corners[:, 1]
    shoelace = np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)
    assert shoelace > 0
    s = x + y
    assert np.argmin(s) == 0


# Reference edge refinement: one profile per call. extract_quad_corners must
# reproduce its corners bit for bit.
def oracle_subpixel_edge(
    px: np.ndarray, p: np.ndarray, normal: np.ndarray, half_width: float = 3.0
) -> np.ndarray | None:
    h, w = px.shape
    n_samples = max(17, 2 * int(4 * half_width) + 1)
    ts = np.linspace(-half_width, half_width, n_samples)
    xs = p[0] + ts * normal[0]
    ys = p[1] + ts * normal[1]
    if xs.min() < 0 or ys.min() < 0 or xs.max() > w - 1 or ys.max() > h - 1:
        return None
    vals = imaging.bilinear_sample(px, xs, ys)
    diffs = np.diff(vals)
    total = float(diffs.sum())
    swing = float(vals.max() - vals.min())
    if swing < 20 or abs(total) < 0.7 * swing:
        return None
    if np.abs(diffs).sum() > 1.6 * abs(total):
        return None
    tail = max(2, n_samples // 10)
    if abs(vals[tail] - vals[0]) > 0.15 * swing or abs(vals[-1] - vals[-1 - tail]) > 0.15 * swing:
        return None
    mids = (ts[:-1] + ts[1:]) / 2.0
    t = float(diffs @ mids) / total
    return p + t * normal


def oracle_refine_edge(px, pts, normal, half_width=3.0):
    refined = [q for p in pts if (q := oracle_subpixel_edge(px, p, normal, half_width)) is not None]
    return np.asarray(refined, dtype=np.float64).reshape(-1, 2)


@pytest.fixture(scope="module")
def sticker_frames():
    """A sharp and a 10 px-smeared 1296x972 frame of a 3x3 map, seeded."""
    intr = CameraIntrinsics.reference_camera(binning=2)
    wmap = generate_grid_map(3, 3, 1.0)
    target = wmap.get(4)
    pose = sample_camera_pose(np.random.default_rng(21), (target.world_x, target.world_y))
    height = float(camera_world_position(pose)[2])
    sharp, _ = render(wmap, intr, pose, RenderConfig(seed=21))
    smeared, _ = render(wmap, intr, pose, RenderConfig(
        seed=22, exposure_reciprocal=exposure_for_blur_px(intr, height, 1.0, 10.0),
        velocity=1.0, heading=0.4))
    return {"sharp": sharp, "smeared": smeared}


def assert_corners_match_oracle(img: GreyImage, half_width: float) -> dict[str, int]:
    """Compare every outline's corners with the reference, then each edge's points at half_width.

    extract_quad_corners refines at PROFILE_HALF_WIDTH; the edge points it
    refined are then refined again by the kernel and the reference at half_width.
    """
    px = img.to_float()
    edges = []

    def recording_oracle(px, pts, normal, hw):
        assert hw == imaging.PROFILE_HALF_WIDTH
        edges.append((pts.copy(), normal.copy()))
        return oracle_refine_edge(px, pts, normal, hw)

    outlines = 0
    for contour in trace_contours(binarize(img, MeanOffset(31, 10))):
        if contour.area() < 400:
            break
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(imaging, "_refine_edge", recording_oracle)
            try:
                want = extract_quad_corners(contour, img).corners
            except NotAQuadError:
                want = None
        try:
            got = extract_quad_corners(contour, img).corners
        except NotAQuadError:
            got = None
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got, want)
            outlines += 1
    counts = {"outlines": outlines, "points": 0, "kept": 0, "outside": 0}
    n_samples = max(17, 2 * int(4 * half_width) + 1)
    for pts, normal in edges:
        got = imaging._refine_edge(px, pts, normal, half_width)
        want = oracle_refine_edge(px, pts, normal, half_width)
        assert np.array_equal(got, want)
        counts["points"] += len(pts)
        counts["kept"] += len(want)
        reach = pts[:, None, :] + np.linspace(-half_width, half_width, n_samples)[:, None] * normal
        counts["outside"] += int(np.sum(
            (reach.min(axis=1) < 0).any(axis=1)
            | (reach[..., 0].max(axis=1) > img.width - 1)
            | (reach[..., 1].max(axis=1) > img.height - 1)
        ))
    return counts


@pytest.mark.parametrize("kind,half_width", [("sharp", 3.0), ("smeared", 3.0), ("smeared", 8.0)])
def test_quad_corners_match_per_point_oracle(sticker_frames, kind, half_width):
    counts = assert_corners_match_oracle(sticker_frames[kind], half_width)
    assert counts["outlines"] >= 1
    # Some profiles pass every test and some fail one.
    assert 0 < counts["kept"] < counts["points"]


def test_quad_corners_match_oracle_where_profiles_leave_the_roi(sticker_frames):
    img = sticker_frames["sharp"]
    contour = trace_contours(binarize(img, MeanOffset(31, 10)))[0]
    x0, y0 = contour.points.min(axis=0)
    x1, y1 = contour.points.max(axis=0)
    # The ROI cuts 6 px off every side of the outline's box, so the sticker's
    # corners fall outside it and profiles near them reach past its border.
    roi = img.crop(int(x0) + 6, int(y0) + 6, int(x1) - 5, int(y1) - 5)
    counts = assert_corners_match_oracle(roi, 3.0)
    assert counts["outlines"] >= 1
    assert counts["outside"] > 0


# Reference bilinear sampling: 2-D indexing. bilinear_sample must reproduce
# it bit for bit on every point inside the image.
def oracle_bilinear_sample(px: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    h, w = px.shape
    x0 = np.floor(xs).astype(int)
    y0 = np.floor(ys).astype(int)
    x1 = np.minimum(x0 + 1, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    fx = xs - x0
    fy = ys - y0
    return (
        px[y0, x0] * (1 - fx) * (1 - fy)
        + px[y0, x1] * fx * (1 - fy)
        + px[y1, x0] * (1 - fx) * fy
        + px[y1, x1] * fx * fy
    )


@st.composite
def sample_points(draw):
    """An image of 1 to 12 px a side, and points in it: exact pixels, the last row and column."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dtype = draw(st.sampled_from([np.uint8, np.float64]))
    px = draw(hnp.arrays(dtype, (h, w), elements=st.integers(0, 255)))

    def coord(top):
        return st.one_of(
            st.integers(0, top).map(float),
            st.just(float(top)),
            st.floats(0, top, allow_nan=False),
        )

    pts = draw(st.lists(st.tuples(coord(w - 1), coord(h - 1)), min_size=1, max_size=30))
    xs, ys = np.array(pts).T
    return px, xs, ys


@settings(max_examples=300, deadline=None, derandomize=True)
@given(sample_points())
def test_bilinear_sample_matches_oracle(case):
    px, xs, ys = case
    got = imaging.bilinear_sample(px, xs, ys)
    assert np.array_equal(got, oracle_bilinear_sample(px, xs, ys))
    grid = (xs.reshape(-1, 1), ys.reshape(-1, 1))
    assert np.array_equal(imaging.bilinear_sample(px, *grid), oracle_bilinear_sample(px, *grid))


def test_bilinear_sample_reads_the_last_pixel_exactly():
    px = np.arange(20, dtype=np.uint8).reshape(4, 5)
    got = imaging.bilinear_sample(px, np.array([4.0, 0.0, 4.0]), np.array([3.0, 3.0, 0.0]))
    assert got.tolist() == [19.0, 15.0, 4.0]


@pytest.mark.parametrize("x,y", [
    (-0.5, 1.0), (-1e-12, 1.0), (1.0, -0.5),
    (4.0 + 1e-9, 1.0), (5.0, 1.0), (1.0, 3.0 + 1e-9), (1.0, 4.0),
    (float("nan"), 1.0), (1.0, float("nan")),
])
def test_bilinear_sample_rejects_points_outside_the_image(x, y):
    # A 5x4 image: x must lie in [0, 4] and y in [0, 3].
    px = np.arange(20, dtype=np.float64).reshape(4, 5)
    with pytest.raises(ValueError, match="outside"):
        imaging.bilinear_sample(px, np.array([0.0, x]), np.array([0.0, y]))


def test_bilinear_sample_accepts_no_points():
    px = np.zeros((4, 5))
    assert imaging.bilinear_sample(px, np.empty((0, 17)), np.empty((0, 17))).shape == (0, 17)


# The three homography-sample copies sample_quad replaced, as they were written.
def oracle_sticker_samples(px: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """artwork.read_sticker's samples at the sticker's 400 symbol module centres."""
    unit_square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = homography_dlt(unit_square, quad)
    mapped = artwork._MODULE_CENTRES @ h.T
    xs = np.clip(mapped[:, 0] / mapped[:, 2], 0, px.shape[1] - 1)
    ys = np.clip(mapped[:, 1] / mapped[:, 2], 0, px.shape[0] - 1)
    return imaging.bilinear_sample(px, xs, ys)


def oracle_grid_samples(px: np.ndarray, quad: np.ndarray) -> np.ndarray:
    """datamatrix._grid_from_quad's samples at one symbol's 10x10 module centres."""
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    h = homography_dlt(unit, quad)
    cc, rr = np.meshgrid((np.arange(10) + 0.5) / 10, (np.arange(10) + 0.5) / 10)
    pts = np.column_stack([cc.ravel(), rr.ravel(), np.ones(100)])
    mapped = pts @ h.T
    xs = np.clip(mapped[:, 0] / mapped[:, 2], 0, px.shape[1] - 1)
    ys = np.clip(mapped[:, 1] / mapped[:, 2], 0, px.shape[0] - 1)
    return imaging.bilinear_sample(px, xs, ys)


def oracle_rectify_samples(px: np.ndarray, quad: np.ndarray, size: int) -> np.ndarray:
    """The samples at the pixel centres of a size x size raster (rectified.rectify_quad)."""
    dst = np.array([[0.0, 0.0], [size, 0.0], [size, size], [0.0, size]])
    h = homography_dlt(dst, quad)
    xs, ys = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    mapped = np.column_stack([xs.ravel(), ys.ravel(), np.ones(size * size)]) @ h.T
    sx = np.clip(mapped[:, 0] / mapped[:, 2], 0, px.shape[1] - 1)
    sy = np.clip(mapped[:, 1] / mapped[:, 2], 0, px.shape[0] - 1)
    return imaging.bilinear_sample(px, sx, sy)


def cell_centres(n: int, divisor: float) -> np.ndarray:
    """(x, y, 1) rows at (k + 0.5) / divisor for k < n, row-major."""
    xs, ys = np.meshgrid((np.arange(n) + 0.5) / divisor, (np.arange(n) + 0.5) / divisor)
    return np.column_stack([xs.ravel(), ys.ravel(), np.ones(n * n)])


def random_quads(rng: np.random.Generator, count: int, width: int, height: int):
    """Jittered, turned squares in QuadCorners order; their centres may leave the image."""
    for _ in range(count):
        centre = rng.uniform((-10, -10), (width + 10, height + 10))
        half = rng.uniform(6, 30)
        angles = rng.uniform(0, 2 * np.pi) + np.array([-0.75, -0.25, 0.25, 0.75]) * np.pi
        corners = centre + half * np.sqrt(2) * np.column_stack([np.cos(angles), np.sin(angles)])
        yield corners + rng.uniform(-0.2, 0.2, size=(4, 2)) * half


def test_sample_quad_equals_the_copies_it_replaced():
    rng = np.random.default_rng(11)
    px = rng.integers(0, 256, size=(90, 120)).astype(np.uint8)
    outside = 0
    for k, quad in enumerate(random_quads(np.random.default_rng(12), 300, 120, 90)):
        outside += bool((quad < 0).any() or (quad[:, 0] > 119).any() or (quad[:, 1] > 89).any())
        got = imaging.sample_quad(px, quad, 1.0, artwork._MODULE_CENTRES)
        assert np.array_equal(got, oracle_sticker_samples(px, quad))
        want = oracle_grid_samples(px, quad)
        got = imaging.sample_quad(px, quad, 1.0, cell_centres(10, 10))
        assert np.array_equal(got, want)
        threshold = float(rng.uniform(60, 200))
        grid = datamatrix._grid_from_quad(px.astype(np.float64), quad, threshold)
        assert np.array_equal(grid, (want < threshold).reshape(10, 10))
        size = RECTIFIED_STICKER_PX if k % 50 == 0 else 40
        want = oracle_rectify_samples(px, quad, size)
        got = imaging.sample_quad(px, quad, size, cell_centres(size, 1))
        assert np.array_equal(got, want)
        flat = rectify_quad(GreyImage(px), QuadCorners(quad), size)
        assert np.array_equal(flat.pixels, GreyImage.from_float(want.reshape(size, size)).pixels)
    assert 60 <= outside <= 240


# Reference corner search: one subset of the support points at a time.
# _initial_corner_indices must return the same indices or also raise.
def oracle_initial_corner_indices(pts: np.ndarray) -> list[int]:
    scores = pts @ imaging._SUPPORT_DIRS.T
    candidates = sorted(set(int(np.argmax(scores[:, k])) for k in range(8)))
    if len(candidates) < 4:
        raise NotAQuadError("not a quad")
    best, best_area = None, 0.0
    for combo in combinations(candidates, 4):
        p = pts[list(combo)]
        cen = p.mean(axis=0)
        order = np.argsort(np.arctan2(p[:, 1] - cen[1], p[:, 0] - cen[0]))
        q = p[order]
        area = abs(
            float(np.dot(q[:, 0], np.roll(q[:, 1], -1)) - np.dot(np.roll(q[:, 0], -1), q[:, 1]))
        ) / 2.0
        if area > best_area:
            best_area = area
            best = [combo[i] for i in order]
    if best is None or best_area < 2.0:
        raise NotAQuadError("not a quad")
    return best


def assert_corner_indices_match_oracle(pts: np.ndarray) -> bool:
    """True when a quad was found; both must agree on the indices or both raise."""
    pts = np.asarray(pts, dtype=np.float64)
    try:
        want = oracle_initial_corner_indices(pts)
    except NotAQuadError:
        with pytest.raises(NotAQuadError):
            imaging._initial_corner_indices(pts)
        return False
    got = imaging._initial_corner_indices(pts)
    assert got == want and all(type(i) is int for i in got)
    return True


def _square(x0, y0, side):
    s = [(x0 + x, y0) for x in range(side)]
    s += [(x0 + side - 1, y0 + y) for y in range(1, side)]
    s += [(x0 + x, y0 + side - 1) for x in range(side - 2, -1, -1)]
    s += [(x0, y0 + y) for y in range(side - 2, 0, -1)]
    return s


def _diamond(r):
    """The traced outline of a 45-degree square of radius r."""
    y, x = np.mgrid[: 2 * r + 3, : 2 * r + 3]
    mask = np.abs(x - r - 1) + np.abs(y - r - 1) <= r
    (c,) = trace_contours(GreyImage(np.where(mask, 0, 255).astype(np.uint8)))
    return c.points


@pytest.mark.parametrize("pts", [
    _square(0, 0, 10),
    _square(3, 7, 2),
    _diamond(6),
    _diamond(2),
    [(x, 5) for x in range(12)] + [(x, 5) for x in range(10, 0, -1)],
    [(x, x) for x in range(8)] + [(x, x) for x in range(6, 0, -1)],
    [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2)],
    [(0, 0), (1, 0), (1, 1), (0, 1)],
], ids=["square", "square_2px", "diamond", "diamond_r2", "collinear_row",
        "collinear_diagonal", "square_and_centre", "unit_square"])
def test_initial_corner_indices_match_oracle_on_shapes(pts):
    assert_corner_indices_match_oracle(pts)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    hnp.arrays(np.bool_, st.tuples(st.integers(1, 30), st.integers(1, 30)), elements=st.booleans())
)
def test_initial_corner_indices_match_oracle_on_random_blobs(mask):
    binary = GreyImage(np.where(mask, 0, 255).astype(np.uint8))
    for contour in trace_contours(binary):
        assert_corner_indices_match_oracle(contour.points)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(-20, 20), st.integers(-20, 20)), min_size=1, max_size=40))
def test_initial_corner_indices_match_oracle_on_point_sets(pts):
    assert_corner_indices_match_oracle(pts)


def test_initial_corner_indices_match_oracle_on_frame_contours(sticker_frames):
    found = 0
    for img in sticker_frames.values():
        for contour in trace_contours(binarize(img, MeanOffset(31, 10))):
            found += assert_corner_indices_match_oracle(contour.points)
    assert found > 10
