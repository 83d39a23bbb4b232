"""Ground sticker artwork: a 2x2 grid of 10x10 Data Matrix symbols in a black border.

The sticker is a 30x30 cell design on a 10 cm square: a 2-cell border, 2-cell
quiet gaps and four symbols. Each symbol encodes the sticker id and its
quadrant as six digits, so reading any one symbol identifies the sticker.

Quadrants are numbered row-major in artwork view: 0 top-left, 1 top-right,
2 bottom-left, 3 bottom-right. Artwork corners are indexed counter-clockwise
(in image-axis terms) from the top-left: a0 TL, a1 TR, a2 BR, a3 BL, matching
the QuadCorners ordering so that image-to-world correspondence is a pure
cyclic shift.

The layout fixes where every symbol module sits, so `read_sticker` reads a
sticker seen through its outline by sampling those cells alone. The slot in
view (numbered like the quadrants) where a symbol reads, together with the
quadrant its payload names, gives the sticker's quarter turns. A sticker that
does not read is oriented through its outline in the same way:
`best_artwork_rotation` samples a fixed grid over the artwork square and
correlates it with the four turns of a candidate's artwork.
"""

from __future__ import annotations

import numpy as np

from .datamatrix import (
    Codewords,
    Payload,
    bitmap_from_codewords,
    decode_bitmap,
    encode_text,
    otsu_threshold,
    rs_encode,
)
from .imaging import GreyImage, QuadCorners, sample_quad

STICKER_SIZE_M = 0.1
MAX_STICKER_ID = 9999  # the payload holds four id digits
CELLS = 30
BORDER_CELLS = 2
SYMBOL_CELLS = 10
_SYMBOL_OFFSETS = (4, 16)  # cell origin of each symbol row/column band

INK = 0
PAPER = 255


def payload_text(sticker_id: int, quadrant: int) -> str:
    """Six-digit payload: four id digits then two quadrant digits."""
    if not (0 <= sticker_id <= MAX_STICKER_ID):
        raise ValueError(f"sticker id must be in 0..{MAX_STICKER_ID}")
    if not (0 <= quadrant <= 3):
        raise ValueError("quadrant must be in 0..3")
    return f"{sticker_id:04d}{quadrant:02d}"


def sticker_payloads(sticker_id: int) -> tuple[str, str, str, str]:
    return tuple(payload_text(sticker_id, q) for q in range(4))  # type: ignore[return-value]


def sticker_codewords(sticker_id: int) -> tuple[Codewords, ...]:
    return tuple(rs_encode(encode_text(p)) for p in sticker_payloads(sticker_id))


def _slot_origin(slot: int) -> tuple[int, int]:
    """Cell (row, column) of the first module of symbol slot 0..3, numbered row-major."""
    return _SYMBOL_OFFSETS[slot // 2], _SYMBOL_OFFSETS[slot % 2]


def sticker_cells_from_payloads(payload_texts) -> np.ndarray:
    """30x30 cell grid (True = ink) for four explicit payload strings."""
    if len(payload_texts) != 4:
        raise ValueError("a sticker carries exactly 4 symbols")
    cells = np.zeros((CELLS, CELLS), dtype=bool)
    b = BORDER_CELLS
    cells[:b, :] = True
    cells[-b:, :] = True
    cells[:, :b] = True
    cells[:, -b:] = True
    for q, text in enumerate(payload_texts):
        bitmap = bitmap_from_codewords(rs_encode(encode_text(text)))
        r0, c0 = _slot_origin(q)
        cells[r0 : r0 + SYMBOL_CELLS, c0 : c0 + SYMBOL_CELLS] = bitmap.modules
    return cells


def sticker_cells(sticker_id: int) -> np.ndarray:
    return sticker_cells_from_payloads(sticker_payloads(sticker_id))


def detection_reference_payloads(seed: int = 0) -> tuple[str, str, str, str]:
    """Random-content payloads for the generic detection reference sticker."""
    rng = np.random.default_rng(seed)
    return tuple("".join(str(d) for d in rng.integers(0, 10, size=6)) for _ in range(4))  # type: ignore[return-value]


def render_cells(cells: np.ndarray, size_px: int, supersample: int = 3) -> GreyImage:
    """Rasterise a cell grid onto size_px x size_px, box-averaged for soft edges.

    Each pixel is the mean of supersample x supersample sub-pixels, each
    taking the ink or paper level of the cell under its centre. The sub-pixel
    levels are integers, so that mean is exactly (ink sum + paper sum) / s^2,
    and only each pixel's count of ink sub-pixels is needed. With R[r, i] the
    number of pixel row r's sub-rows that fall in cell row i, that count is
    R @ cells @ R.T; it is summed from gathered cell rows, then columns,
    without drawing the sub-pixels.
    """
    if size_px < CELLS:
        raise ValueError(f"raster must be at least {CELLS} px")
    n = size_px * supersample
    coords = (np.arange(n) + 0.5) / n * CELLS
    # Row r of sub: the cell index under each of pixel r's sub-rows (or sub-columns).
    sub = np.minimum(coords.astype(int), CELLS - 1).reshape(size_px, supersample)
    ink_by_cell_column = np.asarray(cells, dtype=bool)[sub].sum(axis=1)
    ink = ink_by_cell_column[:, sub].sum(axis=2)
    area = supersample * supersample
    return GreyImage.from_float((ink * INK + (area - ink) * PAPER) / area)


def render_sticker(sticker_id: int, size_px: int) -> GreyImage:
    return render_cells(sticker_cells(sticker_id), size_px)


def corners_local() -> np.ndarray:
    """Artwork corners a0..a3 in the sticker frame (x right, y up, metres)."""
    h = STICKER_SIZE_M / 2.0
    return np.array([[-h, h], [h, h], [h, -h], [-h, -h]])


def corners_world(x: float, y: float, yaw: float) -> np.ndarray:
    """Artwork corners a0..a3 on the ground plane, (4, 3) world coordinates."""
    local = corners_local()
    c, s = np.cos(yaw), np.sin(yaw)
    rot = np.array([[c, -s], [s, c]])
    xy = local @ rot.T + (x, y)
    return np.column_stack([xy, np.zeros(4)])


def local_to_artwork_uv(sx: np.ndarray, sy: np.ndarray):
    """Sticker-frame metres to artwork unit coordinates (u right, v down)."""
    u = sx / STICKER_SIZE_M + 0.5
    v = 0.5 - sy / STICKER_SIZE_M
    return u, v


def quarter_turns(slot: int, quadrant: int) -> int:
    """CCW quarter turns m that put the quadrant's symbol at the slot of rot90(artwork, m).

    A CCW quarter turn moves the symbol at cell origin (r, c) to (20 - c, r).
    """
    if not (0 <= slot <= 3 and 0 <= quadrant <= 3):
        raise ValueError(f"slot and quadrant must be in 0..3, got {slot} and {quadrant}")
    r, c = _slot_origin(quadrant)
    m = 0
    while (r, c) != _slot_origin(slot):
        r, c = CELLS - SYMBOL_CELLS - c, r
        m += 1
    return m


def _module_centres() -> np.ndarray:
    """Homogeneous artwork-unit (u, v, 1) centres of the 4 x 10 x 10 symbol modules.

    Slot by slot in row-major order, then row-major within the symbol.
    """
    cells = np.arange(SYMBOL_CELLS)
    origins = np.array([_slot_origin(slot) for slot in range(4)])
    rows = origins[:, 0, None, None] + cells[None, :, None]
    cols = origins[:, 1, None, None] + cells[None, None, :]
    rows, cols = np.broadcast_arrays(rows, cols)
    pts = np.column_stack(
        [(cols.ravel() + 0.5) / CELLS, (rows.ravel() + 0.5) / CELLS, np.ones(rows.size)]
    )
    pts.setflags(write=False)
    return pts


_MODULE_CENTRES = _module_centres()

_ORIENTATION_GRID = 15  # coarse cells per side that best_artwork_rotation correlates
_ORIENTATION_SAMPLES = 8  # samples per coarse cell side


def _orientation_centres() -> np.ndarray:
    """Homogeneous artwork-unit (u, v, 1) centres of a row-major 120 x 120 grid."""
    n = _ORIENTATION_GRID * _ORIENTATION_SAMPLES
    us, vs = np.meshgrid((np.arange(n) + 0.5) / n, (np.arange(n) + 0.5) / n)
    pts = np.column_stack([us.ravel(), vs.ravel(), np.ones(n * n)])
    pts.setflags(write=False)
    return pts


_ORIENTATION_CENTRES = _orientation_centres()


def best_artwork_rotation(crop: GreyImage, quad: np.ndarray, cells: np.ndarray) -> int:
    """CCW quarter turns m maximising correlation of the quad's view with rot90(artwork, m).

    The crop is sampled through the quad (crop pixels, QuadCorners order) at
    the centres of a 120 x 120 grid over the artwork square, and each 8 x 8
    group is averaged into a 15 x 15 coarse grid, so the fit stays usable
    under heavy motion blur.
    """
    coarse, k = _ORIENTATION_GRID, _ORIENTATION_SAMPLES
    obs = sample_quad(crop.pixels, quad, 1.0, _ORIENTATION_CENTRES)
    obs = obs.reshape(coarse, k, coarse, k).mean(axis=(1, 3))
    obs = obs - obs.mean()
    block = CELLS // coarse
    ref = np.where(cells, float(INK), float(PAPER))
    ref = ref.reshape(coarse, block, coarse, block).mean(axis=(1, 3))
    ref = ref - ref.mean()
    # Every turn of the artwork has the same norm, so the dot products rank them.
    return int(np.argmax([(obs * np.rot90(ref, m)).sum() for m in range(4)]))


def read_sticker(crop: GreyImage, quad: QuadCorners) -> tuple[Payload, int] | None:
    """The first symbol that decodes at its known cells, with its slot in view; or None.

    One homography from the artwork unit square to the quad (crop pixels)
    maps the 400 symbol module centres into the crop. Their samples are
    binarised at one Otsu threshold and the slots decoded in row-major order;
    every symbol carries the sticker id, so the first read ends the search.
    Pass the slot and the payload's quadrant to quarter_turns for the
    sticker's orientation.
    """
    levels = np.rint(sample_quad(crop.pixels, quad.corners, 1.0, _MODULE_CENTRES))
    dark = levels < otsu_threshold(levels)
    for slot, modules in enumerate(dark.reshape(4, SYMBOL_CELLS, SYMBOL_CELLS)):
        result = decode_bitmap(modules)
        if result is not None:
            return result[0], slot
    return None
