"""A sticker warped onto a square raster: the reference paths the tests compare with.

`rectify_quad` samples a quad at the pixel centres of a size x size raster
(through imaging.sample_quad), which decode_roi can then search for symbols.
`rectified_rotation` is how a sticker was once oriented: its 240 px raster
cut into 15 x 15 block means and correlated with the four turns of the
artwork. `reference_rotation` chains the two, for a quad in a crop.
"""

import numpy as np

from floortag import artwork
from floortag.imaging import GreyImage, QuadCorners, sample_quad

RECTIFIED_STICKER_PX = 240


def rectify_quad(img: GreyImage, corners: QuadCorners, size: int) -> GreyImage:
    """The quad's interior on a size x size raster, sampled at pixel centres."""
    xs, ys = np.meshgrid(np.arange(size) + 0.5, np.arange(size) + 0.5)
    centres = np.column_stack([xs.ravel(), ys.ravel(), np.ones(size * size)])
    out = sample_quad(img.pixels, corners.corners, size, centres).reshape(size, size)
    return GreyImage.from_float(out)


def block_means(px: np.ndarray, n: int) -> np.ndarray:
    """One slice mean per block of an n x n grid cut at the int(linspace) edges.

    Where two edges coincide (fewer than n pixels) the block is the single
    row or column at that edge.
    """
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


def rectified_rotation(flat: GreyImage, cells: np.ndarray) -> int:
    """CCW quarter turns m maximising the correlation of a square raster with rot90(artwork, m)."""
    coarse = 15
    obs = block_means(flat.pixels, coarse)
    obs = obs - obs.mean()
    denom = np.linalg.norm(obs)
    if denom < 1e-9:
        return 0
    ref_full = np.where(cells, float(artwork.INK), float(artwork.PAPER))
    block = artwork.CELLS // coarse
    scores = []
    for m in range(4):
        small = np.rot90(ref_full, m).reshape(coarse, block, coarse, block).mean(axis=(1, 3))
        small = small - small.mean()
        scores.append(float((obs * small).sum() / (denom * np.linalg.norm(small))))
    return int(np.argmax(scores))


def reference_rotation(crop: GreyImage, quad: np.ndarray, cells: np.ndarray) -> int:
    """rectified_rotation of the quad (crop pixels) warped onto a 240 px raster."""
    flat = rectify_quad(crop, QuadCorners(quad), RECTIFIED_STICKER_PX)
    return rectified_rotation(flat, cells)
