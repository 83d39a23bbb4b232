import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from floortag import artwork, datamatrix, pipeline
from floortag.bench import sample_camera_pose
from floortag.datamatrix import (
    Codewords,
    EncodingError,
    SymbolBitmap,
    UncorrectableError,
    bitmap_from_codewords,
    codewords_from_bitmap,
    decode_bitmap,
    decode_roi,
    decode_text,
    encode_text,
    finder_mismatches,
    min_area_rect,
    otsu_threshold,
    render_symbol,
    rs_decode,
    rs_encode,
    syndromes,
)
from floortag.geometry import CameraIntrinsics, camera_world_position
from floortag.identify import ReferenceBank
from floortag.imaging import GreyImage, QuadCorners, trace_contours
from floortag.simulate import RenderConfig, exposure_for_blur_px, render
from floortag.warehouse import (
    UnknownPayloadError,
    WarehouseMap,
    generate_grid_map,
    lookup_by_payload,
)

from rectified import RECTIFIED_STICKER_PX, rectified_rotation, rectify_quad


# Independent GF(256) arithmetic (russian peasant, polynomial 0x12D) used as
# the oracle for the table-driven codec.
def peasant_mul(a: int, b: int) -> int:
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x12D
    return r


def peasant_pow(a: int, n: int) -> int:
    r = 1
    for _ in range(n):
        r = peasant_mul(r, a)
    return r


def oracle_ecc(data: bytes) -> list[int]:
    g = [1]
    for i in range(1, 6):
        root = peasant_pow(2, i)
        ng = [0] * (len(g) + 1)
        for k, c in enumerate(g):
            ng[k] ^= c
            ng[k + 1] ^= peasant_mul(c, root)
        g = ng
    msg = list(data) + [0] * 5
    for i in range(3):
        c = msg[i]
        if c:
            for j in range(1, 6):
                msg[i + j] ^= peasant_mul(g[j], c)
    return msg[3:]


def test_encode_text_ab_pads_with_129():
    assert list(encode_text("AB")) == [66, 67, 129]


def test_encode_text_digit_pairs():
    assert list(encode_text("123456")) == [142, 164, 186]


def test_encode_text_randomised_pad():
    # One char, then pad 129, then a 253-state randomised pad at position 3.
    assert list(encode_text("A")) == [66, 129, 70]


def test_encode_text_capacity():
    with pytest.raises(EncodingError):
        encode_text("ABCD")
    with pytest.raises(EncodingError):
        encode_text("1234567")


def test_encode_text_rejects_non_ascii():
    with pytest.raises(EncodingError):
        encode_text("é")


def test_decode_text_round_trip():
    for text in ("AB", "123456", "A1", "xyz", "", "9"):
        assert decode_text(encode_text(text)) == text.encode("ascii")


def test_rs_encode_known_vector():
    # Published ECC200 example: "123456" -> 142 164 186 + 114 25 5 88 102.
    cw = rs_encode(encode_text("123456"))
    assert list(cw.ecc) == [114, 25, 5, 88, 102]


def test_rs_encode_matches_independent_oracle():
    rng = np.random.default_rng(1)
    for _ in range(300):
        data = bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
        assert list(rs_encode(data).ecc) == oracle_ecc(data)


def test_rs_encode_zero_syndromes():
    rng = np.random.default_rng(2)
    for _ in range(100):
        data = bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
        assert max(syndromes(rs_encode(data).full)) == 0


def test_rs_encode_wrong_length():
    with pytest.raises(ValueError):
        rs_encode(b"ABCD")


def test_rs_decode_clean():
    cw = rs_encode(encode_text("042"))
    p = rs_decode(cw)
    assert p.data == encode_text("042")
    assert p.text == "042"
    assert p.errors_corrected == 0


def test_rs_decode_single_error_exhaustive():
    cw = rs_encode(encode_text("123456"))
    for pos in range(8):
        for flip in (0x01, 0x80, 0x5A, 0xFF):
            corrupted = bytearray(cw.full)
            corrupted[pos] ^= flip
            p = rs_decode(bytes(corrupted))
            assert p.text == "123456"
            assert p.errors_corrected == 1


def test_rs_decode_double_errors_random():
    rng = np.random.default_rng(3)
    for _ in range(500):
        data = bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
        cw = rs_encode(data)
        pos = rng.choice(8, size=2, replace=False)
        corrupted = bytearray(cw.full)
        for q in pos:
            corrupted[q] ^= int(rng.integers(1, 256))
        p = rs_decode(bytes(corrupted))
        assert p.data == cw.data
        assert p.errors_corrected == 2


def test_rs_decode_three_errors_always_detected():
    # Minimum distance 6: a triple corruption can never sit within the
    # correction radius of another codeword.
    rng = np.random.default_rng(4)
    cw = rs_encode(encode_text("007"))
    for _ in range(500):
        pos = rng.choice(8, size=3, replace=False)
        corrupted = bytearray(cw.full)
        for q in pos:
            corrupted[q] ^= int(rng.integers(1, 256))
        with pytest.raises(UncorrectableError):
            rs_decode(bytes(corrupted))


def test_codewords_validation():
    with pytest.raises(ValueError):
        Codewords(b"AB", b"12345")


def test_placement_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(200):
        data = bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
        cw = rs_encode(data)
        bitmap = bitmap_from_codewords(cw)
        assert codewords_from_bitmap(bitmap.modules) == cw.full


def test_bitmap_finder_and_timing():
    cw = rs_encode(encode_text("ZZ"))
    m = bitmap_from_codewords(cw).modules
    assert m[:, 0].all()  # left column dark
    assert m[9, :].all()  # bottom row dark
    assert list(m[0, :]) == [c % 2 == 0 for c in range(10)]
    assert list(m[:, 9]) == [r % 2 == 1 for r in range(10)]
    assert finder_mismatches(m) == 0


def test_symbol_bitmap_type_guards():
    cw = rs_encode(encode_text("OK"))
    m = np.asarray(bitmap_from_codewords(cw).modules).copy()
    m[0, 0] = False
    with pytest.raises(ValueError):
        SymbolBitmap(m)


def test_render_symbol_geometry():
    cw = rs_encode(encode_text("77"))
    img = render_symbol(cw, module_px=4)
    assert img.width == img.height == 12 * 4
    px = img.pixels
    # Quiet zone light, finder column dark.
    assert np.all(px[:4, :] == 255)
    assert np.all(px[4:-4, 4:8] == 0)
    with pytest.raises(ValueError):
        render_symbol(cw, 0)


def test_render_sample_round_trip():
    rng = np.random.default_rng(6)
    for _ in range(20):
        data = bytes(rng.integers(0, 256, size=3, dtype=np.uint8))
        cw = rs_encode(data)
        img = render_symbol(cw, module_px=6)
        px = img.to_float()
        # Sample module centres straight off the raster.
        grid = np.zeros((10, 10), dtype=bool)
        for r in range(10):
            for c in range(10):
                grid[r, c] = px[(r + 1) * 6 + 3, (c + 1) * 6 + 3] < 128
        assert codewords_from_bitmap(grid) == cw.full


def test_decode_bitmap_all_rotations():
    cw = rs_encode(encode_text("314159"))
    m = bitmap_from_codewords(cw).modules
    for k in range(4):
        rotated = np.rot90(m, -k)
        result = decode_bitmap(rotated)
        assert result is not None
        payload, rot = result
        assert payload.text == "314159"
        assert rot == k % 4


def test_decode_roi_clean_symbol():
    cw = rs_encode(encode_text("000702"))
    img = render_symbol(cw, module_px=8)
    payloads = decode_roi(img)
    assert [p.text for p in payloads] == ["000702"]


def test_decode_roi_rotated_symbols():
    cw = rs_encode(encode_text("112233"))
    img = render_symbol(cw, module_px=8)
    for k in range(4):
        rotated = GreyImage(np.rot90(img.pixels, k).copy())
        payloads = decode_roi(rotated)
        assert [p.text for p in payloads] == ["112233"]


def test_decode_roi_blank():
    blank = GreyImage(np.full((80, 80), 200, dtype=np.uint8))
    assert decode_roi(blank) == []


def test_decode_roi_too_small():
    with pytest.raises(ValueError):
        decode_roi(GreyImage(np.zeros((30, 30), dtype=np.uint8)))


def test_decode_roi_rectified_tilt():
    # Perspective-squash a symbol, then recover it through rectification.
    cw = rs_encode(encode_text("424242"))
    img = render_symbol(cw, module_px=8)
    src = img.to_float()
    h_img, w_img = src.shape
    out = np.full((120, 160), 230.0)
    # Forward map the symbol square onto a trapezoid.
    quad = np.array([[30.0, 20.0], [130.0, 35.0], [120.0, 100.0], [25.0, 95.0]])
    from floortag.geometry import homography_dlt
    from floortag.imaging import bilinear_sample

    h = homography_dlt(quad, np.array([[0, 0], [w_img, 0], [w_img, h_img], [0, h_img]]))
    ys, xs = np.mgrid[0:120, 0:160]
    pts = np.column_stack([xs.ravel() + 0.5, ys.ravel() + 0.5, np.ones(xs.size)])
    mapped = pts @ h.T
    sx = mapped[:, 0] / mapped[:, 2]
    sy = mapped[:, 1] / mapped[:, 2]
    inside = (sx >= 0) & (sx < w_img - 1) & (sy >= 0) & (sy < h_img - 1)
    vals = bilinear_sample(src, np.clip(sx, 0, w_img - 1), np.clip(sy, 0, h_img - 1))
    out.ravel()[inside] = vals[inside]
    warped = GreyImage.from_float(out)

    flat = rectify_quad(warped, QuadCorners(quad), RECTIFIED_STICKER_PX)
    payloads = decode_roi(flat)
    assert "424242" in [p.text for p in payloads]


def test_otsu_bimodal():
    arr = np.concatenate([np.full(500, 30, dtype=np.uint8), np.full(500, 220, dtype=np.uint8)])
    t = otsu_threshold(arr.reshape(20, 50))
    assert 30 < t < 220


def test_min_area_rect_axis_aligned():
    pts = np.array([[0, 0], [10, 0], [10, 6], [0, 6], [5, 3]])
    rect = min_area_rect(pts)
    got = {tuple(np.round(p, 6)) for p in rect}
    assert got == {(0.0, 0.0), (10.0, 0.0), (10.0, 6.0), (0.0, 6.0)}


def test_min_area_rect_rotated():
    rng = np.random.default_rng(8)
    angle = 0.53
    c, s = np.cos(angle), np.sin(angle)
    base = rng.uniform(0, 1, size=(200, 2)) * [8, 3]
    pts = base @ np.array([[c, -s], [s, c]]).T + 5.0
    rect = min_area_rect(pts)
    sides = [np.linalg.norm(rect[(i + 1) % 4] - rect[i]) for i in range(4)]
    assert sides[0] == pytest.approx(sides[2], rel=1e-9)
    assert sides[1] == pytest.approx(sides[3], rel=1e-9)
    assert max(sides) <= 8.2


def test_rectify_quad_identity():
    rng = np.random.default_rng(9)
    img = GreyImage(rng.integers(0, 256, size=(50, 50), dtype=np.uint8))
    # Corners on pixel boundaries make the warp an exact identity resample.
    corners = QuadCorners(np.array([[-0.5, -0.5], [49.5, -0.5], [49.5, 49.5], [-0.5, 49.5]]))
    flat = rectify_quad(img, corners, 50)
    assert np.abs(flat.to_float() - img.to_float()).mean() < 1.0


# Reference hull: Andrew's monotone chain, counterclockwise from the
# lexicographic minimum. _convex_hull must return the same vertices.
def monotone_chain_hull(points: np.ndarray) -> np.ndarray:
    pts = np.unique(points, axis=0)
    if len(pts) < 3:
        return pts.astype(np.float64)
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))].astype(np.float64)

    def half(seq):
        out: list[np.ndarray] = []
        for p in seq:
            while len(out) >= 2:
                a = out[-1] - out[-2]
                b = p - out[-2]
                if a[0] * b[1] - a[1] * b[0] > 0:
                    break
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def assert_hull_matches_oracle(points) -> None:
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    want = monotone_chain_hull(pts)
    got = datamatrix._convex_hull(pts)
    if len(want) >= 3:
        assert np.array_equal(got, want)
    else:
        assert len(got) < 3
        with pytest.raises(ValueError, match="degenerate point set"):
            min_area_rect(pts)


_COORD = st.integers(-40, 40)
_POINT = st.tuples(_COORD, _COORD)


@st.composite
def _collinear_run(draw):
    x0, y0 = draw(_POINT)
    dx, dy = draw(st.sampled_from([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (3, -2)]))
    n = draw(st.integers(1, 12))
    return [(x0 + k * dx, y0 + k * dy) for k in range(n)]


@st.composite
def _point_sets(draw):
    kind = draw(st.sampled_from(["few", "random", "duplicates", "collinear", "run_plus"]))
    if kind == "few":
        return draw(st.lists(_POINT, min_size=1, max_size=3))
    if kind == "random":
        return draw(st.lists(_POINT, min_size=1, max_size=40))
    if kind == "duplicates":
        pool = draw(st.lists(_POINT, min_size=1, max_size=5))
        return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=20))
    run = draw(_collinear_run())
    if kind == "collinear":
        return run + draw(st.lists(st.sampled_from(run), max_size=5))
    return run + draw(st.lists(_POINT, min_size=1, max_size=3))


@settings(max_examples=400, deadline=None)
@given(points=_point_sets())
def test_convex_hull_matches_monotone_chain(points):
    assert_hull_matches_oracle(points)


@settings(max_examples=150, deadline=None)
@given(blob=arrays(np.bool_, st.tuples(st.integers(2, 14), st.integers(2, 14))))
def test_convex_hull_matches_monotone_chain_on_traced_blobs(blob):
    # Random blobs padded by background: their outlines as decode traces them.
    px = np.full((blob.shape[0] + 2, blob.shape[1] + 2), 255, dtype=np.uint8)
    px[1:-1, 1:-1][blob] = 0
    for contour in trace_contours(GreyImage(px)):
        assert_hull_matches_oracle(contour.points)


def test_degenerate_outline_is_no_exception():
    # A 1-px line and a single pixel: no contour has an area, and none may
    # raise anything but the ValueError that decode_roi_detail skips.
    px = np.full((60, 60), 220, dtype=np.uint8)
    px[20, 5:50] = 20
    px[40, 30] = 20
    img = GreyImage(px)
    assert decode_roi(img) == []
    (line,) = trace_contours(GreyImage(np.where(px < 128, 0, 255).astype(np.uint8)))
    with pytest.raises(ValueError, match="degenerate point set"):
        min_area_rect(line.points)


# Reference decoder: every symbol-sized contour is fitted and decoded, and
# every read is kept. decode_roi_detail must return its first read only.
def reference_decode_roi_detail(roi_img: GreyImage) -> list[datamatrix.SymbolRead]:
    if roi_img.width < 40 or roi_img.height < 40:
        raise ValueError("ROI must be at least 40x40 pixels")
    px = roi_img.to_float()
    threshold = otsu_threshold(roi_img.pixels)
    binary = GreyImage(np.where(px < threshold, 0, 255).astype(np.uint8))
    side = datamatrix.MIN_SYMBOL_SIDE_PX
    reads = []
    for contour in trace_contours(binary):
        if contour.area() < side * side * 0.3:
            continue
        try:
            quad = min_area_rect(contour.points)
        except ValueError:
            continue
        side_a = np.linalg.norm(quad[1] - quad[0])
        side_b = np.linalg.norm(quad[3] - quad[0])
        short = min(side_a, side_b)
        if short < side or max(side_a, side_b) > 4 * short:
            continue
        result = decode_bitmap(datamatrix._grid_from_quad(px, quad, threshold))
        if result is not None:
            reads.append(datamatrix.SymbolRead(result[0]))
    return reads


def assert_first_read_of_reference(img: GreyImage) -> list[datamatrix.SymbolRead]:
    want = reference_decode_roi_detail(img)
    got = datamatrix.decode_roi_detail(img)
    assert isinstance(got, list)
    assert [r.payload for r in got] == [r.payload for r in want[:1]]
    return want


INTR = CameraIntrinsics.reference_camera(binning=2)
READ_STICKER = artwork.read_sticker


def recording_reads(flats: list[GreyImage], reads: list | None = None):
    """A read_sticker that keeps the rectified sticker of every quad it is given.

    The pipeline no longer rectifies a quad it reads; this rectifies each one
    as the decode stage did before, from the same ROI crop and corners.
    """
    def read(crop, quad):
        flats.append(rectify_quad(crop, quad, RECTIFIED_STICKER_PX))
        result = READ_STICKER(crop, quad)
        if reads is not None:
            reads.append(result)
        return result
    return read


def reference_reader(wmap: WarehouseMap):
    """read_sticker's contract met by the rectify, every-contour and correlation path.

    Returns the first read of the rectified sticker that the map holds, else
    its first read, with the slot where the correlated quarter turns put it.
    """
    def read(crop, quad):
        flat = rectify_quad(crop, quad, RECTIFIED_STICKER_PX)
        reads = reference_decode_roi_detail(flat)
        for r in reads:
            try:
                sticker = lookup_by_payload(wmap, r.payload)
            except UnknownPayloadError:
                continue
            cells = artwork.sticker_cells_from_payloads(list(sticker.payloads))
            turns = rectified_rotation(flat, cells)
            quadrant = sticker.payloads.index(r.payload.text)
            return r.payload, next(s for s in range(4) if artwork.quarter_turns(s, quadrant) == turns)
        # The pipeline skips an unregistered read wherever it sits.
        return (reads[0].payload, 0) if reads else None
    return read


@pytest.fixture(scope="module")
def grid_map():
    return generate_grid_map(3, 3, 1.0)


@pytest.fixture(scope="module")
def seeded_frames(grid_map):
    """Three sharp frames and two smeared frames of a 3x3 map, seeded.

    The 10 px smear leaves no symbol readable; the 6 px smear leaves three
    of the four.
    """
    frames = {}
    for seed, target_id in ((41, 4), (42, 1), (43, 8)):
        target = grid_map.get(target_id)
        pose = sample_camera_pose(np.random.default_rng(seed), (target.world_x, target.world_y))
        frames[f"sharp{seed}"], _ = render(grid_map, INTR, pose, RenderConfig(seed=seed))
    target = grid_map.get(4)
    for seed, smear_px in ((44, 10.0), (45, 6.0)):
        pose = sample_camera_pose(np.random.default_rng(seed), (target.world_x, target.world_y))
        height = float(camera_world_position(pose)[2])
        frames[f"smeared{seed}"], _ = render(grid_map, INTR, pose, RenderConfig(
            seed=seed, exposure_reciprocal=exposure_for_blur_px(INTR, height, 1.0, smear_px),
            velocity=1.0, heading=0.4))
    return frames


@pytest.fixture(scope="module")
def rectified_stickers(seeded_frames, grid_map):
    """The rectified sticker of every quad the decode stage reads in the seeded frames.

    Identification is switched off: on the smeared frame it would dominate
    the run time.
    """
    bank = ReferenceBank.build(grid_map, INTR)
    flats: dict[str, list[GreyImage]] = {}
    for kind, frame in seeded_frames.items():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(artwork, "read_sticker", recording_reads(flats.setdefault(kind, [])))
            mp.setattr(pipeline, "identify_crop", lambda *args: None)
            pipeline.process_frame(frame, grid_map, INTR, bank)
    return flats


def test_decode_stops_at_first_read_on_rectified_stickers(rectified_stickers):
    counts = {
        kind: [len(assert_first_read_of_reference(flat)) for flat in flats]
        for kind, flats in rectified_stickers.items()
    }
    assert counts == {
        "sharp41": [4], "sharp42": [4], "sharp43": [4], "smeared44": [0], "smeared45": [3],
    }


def test_decode_fits_a_symbol_first_not_the_sticker_outline(rectified_stickers, monkeypatch):
    # The rectified sticker's largest contour is its own outline, which
    # reaches all four edges; the first rectangle fitted must be a symbol's.
    fitted: list[np.ndarray] = []

    def recording_min_area_rect(points):
        fitted.append(np.asarray(points))
        return min_area_rect(points)

    monkeypatch.setattr(datamatrix, "min_area_rect", recording_min_area_rect)
    for kind in ("sharp41", "sharp42", "sharp43"):
        (flat,) = rectified_stickers[kind]
        fitted.clear()
        (read,) = datamatrix.decode_roi_detail(flat)
        first = fitted[0]
        assert first.min() > 0 and first.max() < RECTIFIED_STICKER_PX - 1
        px = flat.to_float()
        quad = min_area_rect(first)
        grid = datamatrix._grid_from_quad(px, quad, otsu_threshold(flat.pixels))
        assert decode_bitmap(grid)[0] == read.payload


def test_decode_skips_a_symbol_that_fails_ahead_of_one_that_reads():
    # The larger symbol comes first but has too many codeword errors to
    # correct; the smaller one after it is clean.
    bad = bitmap_from_codewords(rs_encode(encode_text("000101"))).modules.copy()
    bad[1:9:2, 1:9] = ~bad[1:9:2, 1:9]
    assert decode_bitmap(bad) is None
    big = np.kron(np.pad(bad, 1), np.ones((10, 10), dtype=bool))
    small = render_symbol(rs_encode(encode_text("000202")), module_px=6).pixels
    px = np.full((130, 220), 255, dtype=np.uint8)
    px[5:125, 5:125] = np.where(big, 0, 255)
    px[20:92, 140:212] = small
    want = assert_first_read_of_reference(GreyImage(px))
    assert [r.payload.text for r in want] == ["000202"]


def test_decode_stops_at_first_read_on_symbols_and_blank():
    cw = rs_encode(encode_text("000903"))
    img = render_symbol(cw, module_px=8)
    for k in range(4):
        rotated = GreyImage(np.rot90(img.pixels, k).copy())
        assert len(assert_first_read_of_reference(rotated)) == 1
    blank = GreyImage(np.full((80, 80), 200, dtype=np.uint8))
    assert assert_first_read_of_reference(blank) == []


def test_decode_stops_at_first_read_on_a_whole_sticker():
    # Four symbols in one image: the reference reads all of them.
    sticker = artwork.render_sticker(6, RECTIFIED_STICKER_PX)
    want = assert_first_read_of_reference(sticker)
    assert sorted(r.payload.text for r in want) == list(artwork.sticker_payloads(6))


def _outcome(result):
    position = None if result.position is None else result.position.tobytes().hex()
    return result.outcome, result.sticker_id, result.method, position


def _localise_both_ways(frame, wmap):
    bank = ReferenceBank.build(wmap, INTR)
    got, _ = pipeline.process_frame(frame, wmap, INTR, bank, timestamp=0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artwork, "read_sticker", reference_reader(wmap))
        want, _ = pipeline.process_frame(frame, wmap, INTR, bank, timestamp=0.0)
    return _outcome(got), _outcome(want)


@pytest.mark.parametrize("kind", ["sharp41", "sharp42", "sharp43"])
def test_pipeline_result_unchanged_by_the_early_stop(seeded_frames, grid_map, kind):
    got, want = _localise_both_ways(seeded_frames[kind], grid_map)
    assert got == want
    assert got[0] == pipeline.OUTCOME_LOCALISED and got[2] == pipeline.METHOD_DECODED


def test_pipeline_result_unchanged_when_the_sticker_is_not_in_the_map(seeded_frames, grid_map):
    # Sticker 4 is in view but missing from the map: every read is an
    # unregistered payload, and both readers fall through to identification.
    partial = WarehouseMap([s for s in grid_map if s.id != 4])
    frame = seeded_frames["sharp41"]
    seen: list[GreyImage] = []
    read: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(artwork, "read_sticker", recording_reads(seen, read))
        got, want = _localise_both_ways(frame, partial)
    reads = [r.payload.text for flat in seen for r in reference_decode_roi_detail(flat)]
    assert reads and all(text.startswith("0004") for text in reads)
    read_texts = [r[0].text for r in read if r is not None]
    assert read_texts and all(text.startswith("0004") for text in read_texts)
    assert got == want
    assert got[2] != pipeline.METHOD_DECODED
