"""Oriented FAST corners, 256-bit rotated binary descriptors, Hamming matching.

Detection follows ORB: FAST-9 corners with 3x3 non-maximal suppression,
Harris re-ranking, an intensity-centroid orientation over a radius-15 disc,
and descriptor bits that compare smoothed intensities over a fixed random
test pattern rotated to the keypoint angle. Harris re-ranks every corner only
when there are more than max_features; below the cap it only orders corners
whose FAST scores are equal, so it is computed at those corners alone.

Detection costs what is textured, not what is in the frame:

- FAST first tests every pixel on its 4 compass points of the radius-3
  circle (12, 3, 6 and 9 o'clock). Any 9-arc of the circle holds two
  adjacent compass points, so a corner has some adjacent pair that is both
  brighter than floor(threshold) or both darker than -floor(threshold). For
  integer pixels this test is exact, so it drops no corner. The full
  16-pixel ring, the 9-arc test and the score run only on the pixels that
  pass, under 1% of a mostly blank frame.
- The pre-test runs on the flat uint8 pixels, in chunks of _PRETEST_CHUNK
  pixels through four reused buffers, with no wider copy of the frame. With
  step = floor(threshold) clipped to 255, "both brighter" is
  min(max(N, S), max(E, W)) > C + step, which saturating uint8 arithmetic
  states exactly as max(A, step) - step > C; "both darker" is
  min(B, 255 - step) + step < C. The bounds step and 255 - step are arrays,
  not scalars: numpy's uint8 maximum and minimum against a scalar run a loop
  about ten times slower. Whole rows are tested, so the flat shifts wrap
  around the ends of a row; the 3 columns at each end are dropped after the
  test.
- The ring is one flat gather at idx + dy * w + dx, and its 16 tests are
  packed into a 16-bit mask per pixel. Non-maximal suppression finds each
  corner's 8 neighbours by binary search in the sorted flat indices of the
  corners, so no frame-sized score grid is made.
- Harris and the descriptor tests use exact integer sums, read only near
  the keypoints, and no float copy of the frame is made. Harris sums the
  Sobel products over a 7x7 window of each corner's own 9x9 patch and
  ranks by 25 det - trace^2 (k = 1/25) in int64. The tests compare int16
  5x5 sums, formed on the bands of rows within reach of the rotated tests,
  cut to the columns the tests reach. As in ORB, the sums are not divided:
  comparing sums is comparing means.

Exact sums make a descriptor depend only on the pixels around its keypoint,
not on where the keypoint lies in the frame: a shifted frame gives shifted
keypoints with the same bits. Equal Harris responses are exact ties, and
keep the corners' row-major order. The tests keep the plain full-frame
computation on integer sums as the reference, and detection equals it bit
for bit.

Keypoints travel as columns, not objects. A `FeatureSet` holds `positions`,
an (n, 2) float64 array of (x, y) pixels, and `descriptors`, the matching
(n, 32) uint8 rows, strongest FAST score first. The FAST score orders the
rows and the angle rotates each descriptor; neither is kept. A `MatchSet`
holds three equal-length columns: `reference` and `scene`, row indices into
the two FeatureSets, and `distance`, in Hamming bits. Its rows run by
distance, then by reference index, and `positions[matches.scene]` are the
matched scene points.

Hamming distances use a word-level popcount: each 32-byte descriptor is
viewed as four 64-bit words, and `np.bitwise_count` counts the bits of their
XOR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .imaging import GreyImage

DESCRIPTOR_BITS = 256
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8
PATCH_RADIUS = 15
MARGIN = 16

# FAST circle of radius 3, clockwise from 12 o'clock: (dy, dx).
_CIRCLE = np.array(
    [(-3, 0), (-3, 1), (-2, 2), (-1, 3), (0, 3), (1, 3), (2, 2), (3, 1),
     (3, 0), (3, -1), (2, -2), (1, -3), (0, -3), (-1, -3), (-2, -2), (-3, -1)],
    dtype=np.int64,
)


def _run9_lut() -> np.ndarray:
    """For every 16-bit neighbourhood mask: does it hold 9 contiguous set bits?"""
    values = np.arange(1 << 16, dtype=np.uint32)
    doubled = values | (values << 16)
    ok = np.zeros(1 << 16, dtype=bool)
    for start in range(16):
        run = np.ones(1 << 16, dtype=bool)
        for k in range(9):
            run &= ((doubled >> (start + k)) & 1).astype(bool)
        ok |= run
    return ok


_RUN9 = _run9_lut()


def _disc_offsets(radius: int) -> tuple[np.ndarray, np.ndarray]:
    dy, dx = np.mgrid[-radius : radius + 1, -radius : radius + 1]
    keep = dy**2 + dx**2 <= radius**2
    return dy[keep], dx[keep]


_DISC_DY, _DISC_DX = _disc_offsets(PATCH_RADIUS)


def _test_pattern() -> np.ndarray:
    """Fixed (DESCRIPTOR_BITS, 4) array of paired test offsets inside a radius-13 disc."""
    bits = DESCRIPTOR_BITS
    rng = np.random.default_rng(20240927)
    pts = np.empty((2 * bits, 2))
    count = 0
    while count < 2 * bits:
        cand = rng.normal(0.0, 5.5, size=(4 * bits, 2))
        good = cand[(cand**2).sum(axis=1) <= 13.0**2]
        take = min(len(good), 2 * bits - count)
        pts[count : count + take] = good[:take]
        count += take
    return np.hstack([pts[:bits], pts[bits:]])  # x1 y1 x2 y2


_PATTERN = _test_pattern()


@dataclass(frozen=True)
class FeatureSet:
    """Keypoints as columns, strongest FAST score first: (x, y) positions and descriptors."""

    positions: np.ndarray  # (n, 2) float64
    descriptors: np.ndarray  # (n, 32) uint8

    def __post_init__(self):
        p = np.asarray(self.positions, dtype=np.float64).reshape(-1, 2)
        d = np.asarray(self.descriptors, dtype=np.uint8).reshape(-1, DESCRIPTOR_BYTES)
        if len(p) != len(d):
            raise ValueError("position/descriptor count mismatch")
        object.__setattr__(self, "positions", p)
        object.__setattr__(self, "descriptors", d)

    def __len__(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class MatchSet:
    """Mutual nearest-neighbour matches as index columns, by distance then reference index."""

    reference: np.ndarray  # indices into the reference FeatureSet
    scene: np.ndarray  # indices into the scene FeatureSet
    distance: np.ndarray  # Hamming distances in bits

    def __len__(self) -> int:
        return len(self.scene)

    def scene_indices(self) -> np.ndarray:
        return self.scene


# Pixels the FAST pre-test handles per pass; its four buffers stay in cache.
_PRETEST_CHUNK = 1 << 17
_NEIGHBOURS = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx]


def _pretest(flat: np.ndarray, h: int, w: int, step: int) -> np.ndarray:
    """Flat indices in rows 3..h-4 that pass the compass-point pre-test.

    On uint8, min(max(N, S), max(E, W)) > C + step is max(A, step) - step > C,
    and max(min(N, S), min(E, W)) < C - step is min(B, 255 - step) + step < C,
    for 0 <= step <= 255. Columns near the ends of a row are tested too, on
    shifts that wrap into the next row; the caller drops them.
    """
    size = min(_PRETEST_CHUNK, max(0, (h - 6) * w))
    # The bounds are arrays: numpy's uint8 maximum and minimum against a
    # scalar take a loop ~10x slower than against an array.
    up, down = np.full(size, step, dtype=np.uint8), np.full(size, 255 - step, dtype=np.uint8)
    a, b = np.empty(size, dtype=np.uint8), np.empty(size, dtype=np.uint8)
    bright, dark = np.empty(size, dtype=bool), np.empty(size, dtype=bool)
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(3 * w, (h - 3) * w, _PRETEST_CHUNK):
        hi = min(lo + _PRETEST_CHUNK, (h - 3) * w)
        n = hi - lo
        centre = flat[lo:hi]
        north, south = flat[lo - 3 * w : hi - 3 * w], flat[lo + 3 * w : hi + 3 * w]
        east, west = flat[lo + 3 : hi + 3], flat[lo - 3 : hi - 3]
        ca, cb, cbright, cdark = a[:n], b[:n], bright[:n], dark[:n]
        cup, cdown = up[:n], down[:n]
        np.maximum(north, south, out=ca)
        np.maximum(east, west, out=cb)
        np.minimum(ca, cb, out=ca)
        np.maximum(ca, cup, out=ca)
        np.subtract(ca, cup, out=ca)
        np.greater(ca, centre, out=cbright)
        np.minimum(north, south, out=ca)
        np.minimum(east, west, out=cb)
        np.maximum(ca, cb, out=ca)
        np.minimum(ca, cdown, out=ca)
        np.add(ca, cup, out=ca)
        np.less(ca, centre, out=cdark)
        np.logical_or(cbright, cdark, out=cbright)
        found.append(np.flatnonzero(cbright) + lo)
    return np.concatenate(found)


_RING_BITS = (1 << np.arange(16)).astype(np.uint16)


def _ring_masks(passed: np.ndarray) -> np.ndarray:
    """(16, n) ring tests to n 16-bit masks: bit i is set when ring pixel i passed."""
    # A sum of distinct powers of two: exact, and at most 0xFFFF.
    return _RING_BITS @ passed


def _fast_candidates(pixels: np.ndarray, threshold: float):
    """FAST-9 corners of uint8 pixels after 3x3 non-maximal suppression.

    The threshold must be finite and >= 0. Returns (x, y) points in
    row-major order and their float32 scores.
    """
    h, w = pixels.shape
    flat = pixels.ravel()
    # For integer differences, d > t <=> d > floor(t); they lie in [-255, 255].
    step = min(int(np.floor(threshold)), 255)
    idx = _pretest(flat, h, w, step)
    ys, xs = np.divmod(idx, w)
    inside = (xs >= 3) & (xs < w - 3)
    idx, ys, xs = idx[inside], ys[inside], xs[inside]
    ring = flat[idx + (_CIRCLE @ (w, 1))[:, None]]
    d = ring.astype(np.int16) - flat[idx].astype(np.int16)
    is_corner = _RUN9[_ring_masks(d > step)] | _RUN9[_ring_masks(d < -step)]
    idx, ys, xs = idx[is_corner], ys[is_corner], xs[is_corner]
    excess = np.abs(d[:, is_corner].astype(np.float32)) - threshold
    np.clip(excess, 0.0, None, out=excess)
    score = excess.sum(axis=0)
    if len(idx) == 0:
        return np.column_stack([xs, ys]), score
    # Every pixel that is not a corner scores 0, so a corner is a local maximum
    # when no corner among its 8 neighbours scores higher. Corners lie in
    # columns 3..w-4, so a neighbour's flat index never wraps onto a corner of
    # another row; idx is sorted, so each neighbour is found by binary search.
    keep = score > 0
    last = len(idx) - 1
    for dy, dx in _NEIGHBOURS:
        target = idx + (dy * w + dx)
        at = np.minimum(np.searchsorted(idx, target), last)
        keep &= (idx[at] != target) | (score >= score[at])
    return np.column_stack([xs[keep], ys[keep]]), score[keep]


def _row_bands(ys: np.ndarray, reach: int) -> list[tuple[int, int]]:
    """Merged [start, stop) row ranges that cover every row in ys +- reach."""
    rows = np.unique(ys)
    starts, stops = rows - reach, rows + reach + 1
    breaks = np.nonzero(starts[1:] > stops[:-1])[0] + 1
    return list(zip(starts[np.r_[0, breaks]].tolist(), stops[np.r_[breaks - 1, -1]].tolist()))


# Keypoints lie at least MARGIN = 16 px inside the image, and the sums below
# read at most 15 px from a keypoint, so no edge handling is needed.

# The 9x9 patch that a 7x7 window of Sobel gradients reads, as (dy, dx).
_HARRIS_DY, _HARRIS_DX = np.mgrid[-4:5, -4:5]


def _harris_at(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """25 times the Harris response (k = 1/25) of the uint8 pixels at (xs, ys).

    Sobel gradients, their products and the products' 7x7 sums are integers,
    read from each point's own 9x9 patch, so 25 det - trace^2 of the summed
    structure tensor is exact in int64: |gx|, |gy| <= 1020, so each sum is
    below 49 * 1020^2 < 2^26 and 25 det below 2^57.
    """
    w = pixels.shape[1]
    p = pixels.ravel()[(ys * w + xs)[:, None, None] + (_HARRIS_DY * w + _HARRIS_DX)]
    p = p.astype(np.int16)
    dx = p[:, :, 2:] - p[:, :, :-2]
    gx = (dx[:, :-2] + 2 * dx[:, 1:-1] + dx[:, 2:]).reshape(len(p), 49)
    dy = p[:, 2:] - p[:, :-2]
    gy = (dy[:, :, :-2] + 2 * dy[:, :, 1:-1] + dy[:, :, 2:]).reshape(len(p), 49)
    ixx = np.multiply(gx, gx, dtype=np.int32).sum(axis=1, dtype=np.int64)
    iyy = np.multiply(gy, gy, dtype=np.int32).sum(axis=1, dtype=np.int64)
    ixy = np.multiply(gx, gy, dtype=np.int32).sum(axis=1, dtype=np.int64)
    trace = ixx + iyy
    return 25 * (ixx * iyy - ixy * ixy) - trace * trace


def _box_sums(pixels: np.ndarray, xs: np.ndarray, ys: np.ndarray):
    """int16 5x5 sums of the uint8 pixels at every point within 13 px of a keypoint.

    Returns a compact store and each keypoint's (x, y) in it. The rows within
    13 of a keypoint are merged into bands; each band is cut to the columns
    its keypoints' tests reach and stored from column 0, below the bands
    before it. Every point a keypoint's tests read lies in its band, at the
    same offsets from the keypoint as in the frame.
    """
    bands = _row_bands(ys, 13)
    starts = np.array([start for start, _ in bands])
    band = np.searchsorted(starts, ys, side="right") - 1
    lefts = np.full(len(bands), pixels.shape[1])
    rights = np.zeros(len(bands), dtype=np.int64)
    np.minimum.at(lefts, band, xs - 13)
    np.maximum.at(rights, band, xs + 14)
    heights = [stop - start for start, stop in bands]
    store = np.empty((sum(heights), int((rights - lefts).max())), dtype=np.int16)
    tops = np.cumsum([0] + heights[:-1])
    for (start, stop), left, right, top in zip(bands, lefts.tolist(), rights.tolist(), tops):
        # Sums of at most 25 * 255 fit int16.
        p = pixels[start - 2 : stop + 2, left - 2 : right + 2].astype(np.int16)
        col = p[:-4] + p[1:-3] + p[2:-2] + p[3:-1] + p[4:]
        out = store[top : top + stop - start, : right - left]
        np.add(col[:, :-4], col[:, 1:-3], out=out)
        out += col[:, 2:-2]
        out += col[:, 3:-1]
        out += col[:, 4:]
    return store, xs - lefts[band], ys - starts[band] + tops[band]


def _orientations(px: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    w = px.shape[1]
    disc = _DISC_DY * w + _DISC_DX
    patches = px.ravel()[(ys * w + xs)[:, None] + disc].astype(np.float64)
    m10 = patches @ _DISC_DX.astype(np.float64)
    m01 = patches @ _DISC_DY.astype(np.float64)
    return np.mod(np.arctan2(m01, m10), 2 * np.pi)


# The two points of every test, as (2, 1, bits) x and y offsets.
_PATTERN_X = np.ascontiguousarray(_PATTERN[:, 0::2].T)[:, None, :]
_PATTERN_Y = np.ascontiguousarray(_PATTERN[:, 1::2].T)[:, None, :]
# Keypoints _describe handles per pass; its (2, chunk, bits) buffers stay in cache.
_DESCRIBE_CHUNK = 32


def _describe(sums: np.ndarray, xs, ys, angles) -> np.ndarray:
    """Packed tests sums[first point] < sums[second point], rotated to each angle.

    A test point (x, y) lands at (rint(c x - s y), rint(s x + c y)) from the
    keypoint. Both points of every test are rotated together, _DESCRIBE_CHUNK
    keypoints at a time through three reused float64 buffers, and their flat
    indices into sums are formed in float64, where these integers are
    exact, then cast once.
    """
    n, w = len(angles), sums.shape[1]
    flat = sums.ravel()
    cos, sin = np.cos(angles)[:, None], np.sin(angles)[:, None]
    base = (ys * w + xs).astype(np.float64)[:, None]
    shape = (2, min(_DESCRIBE_CHUNK, n), DESCRIPTOR_BITS)
    rx, ry, tmp = np.empty(shape), np.empty(shape), np.empty(shape)
    idx = np.empty(shape, dtype=np.int64)
    out = np.empty((n, DESCRIPTOR_BYTES), dtype=np.uint8)
    for lo in range(0, n, _DESCRIBE_CHUNK):
        hi = min(lo + _DESCRIBE_CHUNK, n)
        c, s = cos[lo:hi], sin[lo:hi]
        x, y, t, i = rx[:, : hi - lo], ry[:, : hi - lo], tmp[:, : hi - lo], idx[:, : hi - lo]
        np.multiply(c, _PATTERN_X, out=x)
        np.multiply(s, _PATTERN_Y, out=t)
        np.subtract(x, t, out=x)
        np.rint(x, out=x)
        np.multiply(s, _PATTERN_X, out=y)
        np.multiply(c, _PATTERN_Y, out=t)
        np.add(y, t, out=y)
        np.rint(y, out=y)
        y *= w
        y += x
        y += base[lo:hi]
        np.copyto(i, y, casting="unsafe")
        values = flat[i]
        out[lo:hi] = np.packbits(values[0] < values[1], axis=1)
    return out


def detect_and_describe(
    img: GreyImage,
    max_features: int = 1000,
    threshold: float = 20.0,
) -> FeatureSet:
    """Detect oriented corners and describe them.

    Keeps the max_features FAST corners with the highest Harris response and
    returns them strongest FAST score first, equal scores by Harris response,
    then in row-major order. When no more than max_features corners are found,
    Harris only orders equal scores, so it is computed only at the corners
    whose score another corner shares.
    """
    if max_features < 1:
        raise ValueError(f"max_features must be at least 1, got {max_features}")
    if not (np.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"threshold must be finite and >= 0, got {threshold}")
    if img.width < 32 or img.height < 32:
        raise ValueError("image too small for feature detection (min 32x32)")
    h, w = img.height, img.width
    pts, scores = _fast_candidates(img.pixels, threshold)
    inside = (
        (pts[:, 0] >= MARGIN)
        & (pts[:, 0] < w - MARGIN)
        & (pts[:, 1] >= MARGIN)
        & (pts[:, 1] < h - MARGIN)
    )
    pts, scores = pts[inside], scores[inside]
    if len(pts) == 0:
        return FeatureSet(pts, np.empty((0, DESCRIPTOR_BYTES), dtype=np.uint8))
    xs, ys = pts[:, 0], pts[:, 1]
    # Harris decides a corner's place only when the cap cuts or its FAST score
    # is shared: a unique score alone fixes its place in the final stable sort.
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    need = (counts[inverse] > 1) | (len(pts) > max_features)
    harris = np.zeros(len(pts), dtype=np.int64)
    if need.any():
        harris[need] = _harris_at(img.pixels, xs[need], ys[need])
    order = np.argsort(-harris, kind="stable")[:max_features]
    xs, ys, scores = xs[order], ys[order], scores[order]
    angles = _orientations(img.pixels, xs, ys)
    sums, cols, rows = _box_sums(img.pixels, xs, ys)
    descriptors = _describe(sums, cols, rows, angles)
    order = np.argsort(-scores, kind="stable")
    return FeatureSet(np.column_stack([xs, ys])[order], descriptors[order])


def _distance_matrix(ref: np.ndarray, scene: np.ndarray) -> np.ndarray:
    ref_words = np.ascontiguousarray(ref).view(np.uint64)
    # One contiguous row per descriptor word: scene_cols[k] is word k of every scene descriptor.
    scene_cols = np.ascontiguousarray(np.ascontiguousarray(scene).view(np.uint64).T)
    out = np.zeros((len(ref), len(scene)), dtype=np.uint16)
    block = max(1, int(4e6 // max(len(scene), 1)))
    tmp = np.empty((min(block, len(ref)), len(scene)), dtype=np.uint64)
    for start in range(0, len(ref), block):
        chunk = ref_words[start : start + block]
        dst = out[start : start + block]
        xored = tmp[: len(chunk)]
        # Bits are counted one 64-bit word at a time, into the uint16 sums.
        for k, words in enumerate(scene_cols):
            np.bitwise_xor(chunk[:, k, None], words, out=xored)
            dst += np.bitwise_count(xored)
    return out


def match(reference: FeatureSet, scene: FeatureSet, max_distance: int = 64) -> MatchSet:
    """Mutual nearest-neighbour Hamming matches within max_distance bits."""
    ref, sc = reference.descriptors, scene.descriptors
    if len(ref) == 0 or len(sc) == 0:
        raise ValueError("descriptor sets must be non-empty")
    dist = _distance_matrix(ref, sc)
    i = np.arange(len(ref))
    j = dist.argmin(axis=1)
    d = dist[i, j]
    mutual = (d <= max_distance) & (dist.argmin(axis=0)[j] == i)
    i, j, d = i[mutual], j[mutual], d[mutual]
    order = np.lexsort((i, d))
    return MatchSet(i[order], j[order], d[order])


def calibrate_thresholds(
    present_counts, absent_counts
) -> tuple[int, int]:
    """(absent_max, detect_min) placed midway between the two observed count bands."""
    lo = max(absent_counts)
    hi = min(present_counts)
    if hi <= lo:
        raise ValueError(f"count distributions overlap: max absent {lo} >= min present {hi}")
    mid = (lo + hi) // 2
    return (max(lo + 1, min(mid, hi - 1)), mid)

