"""Ground sticker artwork: a 2x2 grid of 10x10 Data Matrix symbols in a black border.

The sticker is a 30x30 cell design on a 10 cm square: a 2-cell border, 2-cell
quiet gaps and four symbols. Each symbol encodes the sticker id and its
quadrant as six digits, so reading any one symbol identifies the sticker.

Quadrants are numbered row-major in artwork view: 0 top-left, 1 top-right,
2 bottom-left, 3 bottom-right. Artwork corners are indexed counter-clockwise
(in image-axis terms) from the top-left: a0 TL, a1 TR, a2 BR, a3 BL, matching
the QuadCorners ordering so that image-to-world correspondence is a pure
cyclic shift.
"""

from __future__ import annotations

import numpy as np

from .datamatrix import Codewords, bitmap_from_codewords, encode_text, rs_encode
from .imaging import GreyImage

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
        r0 = _SYMBOL_OFFSETS[q // 2]
        c0 = _SYMBOL_OFFSETS[q % 2]
        cells[r0 : r0 + SYMBOL_CELLS, c0 : c0 + SYMBOL_CELLS] = bitmap.modules
    return cells


def sticker_cells(sticker_id: int) -> np.ndarray:
    return sticker_cells_from_payloads(sticker_payloads(sticker_id))


def detection_reference_payloads(seed: int = 0) -> tuple[str, str, str, str]:
    """Random-content payloads for the generic detection reference sticker."""
    rng = np.random.default_rng(seed)
    return tuple("".join(str(d) for d in rng.integers(0, 10, size=6)) for _ in range(4))  # type: ignore[return-value]


def render_cells(cells: np.ndarray, size_px: int, supersample: int = 3) -> GreyImage:
    """Rasterise a cell grid onto size_px x size_px, box-averaged for soft edges."""
    if size_px < CELLS:
        raise ValueError(f"raster must be at least {CELLS} px")
    n = size_px * supersample
    coords = (np.arange(n) + 0.5) / n * CELLS
    idx = np.minimum(coords.astype(int), CELLS - 1)
    big = np.where(cells[np.ix_(idx, idx)], float(INK), float(PAPER))
    if supersample > 1:
        big = big.reshape(size_px, supersample, size_px, supersample).mean(axis=(1, 3))
    return GreyImage.from_float(big)


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


def _block_means(px: np.ndarray, n: int) -> np.ndarray:
    """Means of an n x n grid of blocks cut at the int(linspace) edges.

    Where two edges coincide (fewer than n pixels) the block is the single
    row or column at that edge. The sums are whole numbers, so they are exact.
    """
    h, w = px.shape
    rows = np.linspace(0, h, n + 1).astype(int)
    cols = np.linspace(0, w, n + 1).astype(int)
    band_sums = np.add.reduceat(px, rows[:-1], axis=0, dtype=np.int64)
    sums = np.add.reduceat(band_sums, cols[:-1], axis=1)
    counts = np.outer(np.maximum(np.diff(rows), 1), np.maximum(np.diff(cols), 1))
    return sums / counts


def best_artwork_rotation(rectified: GreyImage, cells: np.ndarray) -> int:
    """CCW quarter turns m maximising correlation of the view with rot90(artwork, m).

    Works on a coarse grid so it stays usable under heavy motion blur.
    """
    coarse = 15
    obs = _block_means(rectified.pixels, coarse)
    obs = obs - obs.mean()
    denom = np.linalg.norm(obs)
    if denom < 1e-9:
        return 0
    ref_full = np.where(cells, float(INK), float(PAPER))
    block = CELLS // coarse or 1
    scores = []
    for m in range(4):
        ref = np.rot90(ref_full, m)
        small = ref[: coarse * block, : coarse * block]
        small = small.reshape(coarse, block, coarse, block).mean(axis=(1, 3))
        small = small - small.mean()
        nref = np.linalg.norm(small)
        scores.append(float((obs * small).sum() / (denom * nref)) if nref > 1e-9 else -1.0)
    return int(np.argmax(scores))
