import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floortag import artwork
from floortag.datamatrix import bitmap_from_codewords, decode_bitmap


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


def test_best_artwork_rotation_identifies_turns():
    cells = artwork.sticker_cells(9)
    base = artwork.render_cells(cells, 240)
    for m in range(4):
        from floortag.imaging import GreyImage

        rotated = GreyImage(np.rot90(base.pixels, m).copy())
        assert artwork.best_artwork_rotation(rotated, cells) == m


def test_best_artwork_rotation_under_blur():
    from scipy import ndimage

    from floortag.imaging import GreyImage

    cells = artwork.sticker_cells(11)
    base = artwork.render_cells(cells, 240).to_float()
    for m in range(4):
        blurred = ndimage.gaussian_filter(np.rot90(base, m), 8.0)
        assert artwork.best_artwork_rotation(GreyImage.from_float(blurred), cells) == m


# Reference block means: one slice mean per block, at the same edges.
def oracle_block_means(px: np.ndarray, n: int) -> np.ndarray:
    px = px.astype(np.float64)
    h, w = px.shape
    ys = np.linspace(0, h, n + 1)
    xs = np.linspace(0, w, n + 1)
    obs = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            obs[i, j] = px[int(ys[i]) : max(int(ys[i + 1]), int(ys[i]) + 1),
                           int(xs[j]) : max(int(xs[j + 1]), int(xs[j]) + 1)].mean()
    return obs


_SIDES = st.one_of(st.integers(1, 14), st.integers(15, 260), st.sampled_from([15, 30, 240, 241]))


@settings(max_examples=150, deadline=None)
@given(h=_SIDES, w=_SIDES, seed=st.integers(0, 2**32 - 1))
def test_block_means_match_slice_means(h, w, seed):
    px = np.random.default_rng(seed).integers(0, 256, size=(h, w), dtype=np.uint8)
    got = artwork._block_means(px, 15)
    assert got.dtype == np.float64
    assert np.array_equal(got, oracle_block_means(px, 15))

