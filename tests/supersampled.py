"""A cell grid drawn sub-pixel by sub-pixel: the raster the tests compare with.

`render_cells` is how artwork.render_cells once drew a sticker: every one of
the (supersample * size)^2 sub-pixels takes the ink or paper level of the
cell under its centre, and each supersample x supersample block is averaged
into one pixel.
"""

import numpy as np

from floortag import artwork
from floortag.imaging import GreyImage


def render_cells(cells: np.ndarray, size_px: int, supersample: int = 3) -> GreyImage:
    n = size_px * supersample
    coords = (np.arange(n) + 0.5) / n * artwork.CELLS
    idx = np.minimum(coords.astype(int), artwork.CELLS - 1)
    big = np.where(cells[np.ix_(idx, idx)], float(artwork.INK), float(artwork.PAPER))
    if supersample > 1:
        big = big.reshape(size_px, supersample, size_px, supersample).mean(axis=(1, 3))
    return GreyImage.from_float(big)
