"""Greyscale image container, PGM I/O, binarisation, contour tracing and quads.

Contour tracing is a Moore-neighbour walk driven by two tables:

- The neighbour code of a dark pixel is one byte: bit d is set when its
  Moore neighbour d (`_MOORE`, clockwise from west) is dark. Pixels outside
  the image count as background. Eight shifted-slice ORs over the flat
  padded mask give every pixel its code.
- The direction table maps (code, backtrack direction) to the first dark
  direction clockwise after the backtrack, or -1 when no neighbour is dark.
  It is built once at import, so a step of the walk is one table lookup and
  one flat-index step instead of a scan of up to 8 neighbours.

Each component's walk starts at its topmost-leftmost pixel, the first of its
pixels in raster order. That pixel has no dark W, NW, N or NE neighbour: any
such neighbour comes earlier in raster order and, being 8-adjacent, belongs
to the same component. So the first pixel of each label that passes this
test is exactly the raster-first one: no earlier pixel of the label exists
to pass it.

`bilinear_sample` reads the pixels by flat index. Every point it is given
must lie in [0, w - 1] x [0, h - 1]; a point outside, or NaN, raises
ValueError, since a flat index past a row's end would read the next row.
Its callers clip or filter their points first.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import ndimage

from .geometry import homography_dlt


class PgmError(ValueError):
    pass


class NotAQuadError(ValueError):
    pass


def _holds_bytes(px: np.ndarray) -> bool:
    """Whether every value of a non-empty array is an integer in 0..255."""
    if px.dtype.kind not in "buif":
        return False
    # A NaN makes min and max NaN, which fails both comparisons.
    if not (px.min() >= 0 and px.max() <= 255):
        return False
    return px.dtype.kind != "f" or bool((np.floor(px) == px).all())


@dataclass(frozen=True)
class GreyImage:
    """8-bit luminance image, row-major, immutable after construction.

    uint8 pixels are copied as they are. Pixels of any other dtype must be
    integers in 0..255, so that the cast to uint8 keeps every value;
    `from_float` rounds and clips other finite values first.
    """

    pixels: np.ndarray

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError(f"image must be 2D with positive dims, got shape {px.shape}")
        if px.dtype != np.uint8 and not _holds_bytes(px):
            raise ValueError(
                f"{px.dtype} pixels must be integers in 0..255; "
                "use GreyImage.from_float to round and clip them"
            )
        px = np.ascontiguousarray(px.astype(np.uint8, copy=True))
        px.setflags(write=False)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def to_float(self) -> np.ndarray:
        return self.pixels.astype(np.float64)

    def crop(self, x0: int, y0: int, x1: int, y1: int) -> "GreyImage":
        if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
            raise ValueError(f"crop ({x0},{y0},{x1},{y1}) outside {self.width}x{self.height}")
        return GreyImage(self.pixels[y0:y1, x0:x1])

    @staticmethod
    def from_float(arr: np.ndarray) -> "GreyImage":
        if not np.isfinite(arr).all():
            raise ValueError("pixels must be finite")
        return GreyImage(np.clip(np.rint(arr), 0, 255).astype(np.uint8))


@dataclass(frozen=True)
class Contour:
    """Closed 8-connected boundary loop, integer pixel coordinates (x, y)."""

    points: np.ndarray  # (n, 2) int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.int64)
        if pts.ndim != 2 or pts.shape[1] != 2 or pts.shape[0] < 4:
            raise ValueError("contour needs at least 4 (x, y) points")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    def area(self) -> float:
        """Enclosed area by the shoelace formula (boundary pixel centres)."""
        x = self.points[:, 0]
        y = self.points[:, 1]
        twice = np.dot(x[:-1], y[1:]) - np.dot(x[1:], y[:-1]) + x[-1] * y[0] - x[0] * y[-1]
        return abs(float(twice)) / 2.0


@dataclass(frozen=True)
class QuadCorners:
    """Four sub-pixel corners, counter-clockwise from the top-left-most one."""

    corners: np.ndarray  # (4, 2) float

    def __post_init__(self):
        c = np.asarray(self.corners, dtype=np.float64)
        if c.shape != (4, 2):
            raise ValueError("expected 4 corner points")
        c.setflags(write=False)
        object.__setattr__(self, "corners", c)


# Corners of the unit square in QuadCorners order; scale by a side for a square.
UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
UNIT_SQUARE.setflags(write=False)


def sample_quad(px: np.ndarray, quad: np.ndarray, side: float, points: np.ndarray) -> np.ndarray:
    """Bilinear samples of px at points of a side x side square mapped into quad.

    points are homogeneous (x, y, 1) rows in the square's frame; the square's
    corners, in QuadCorners order, map onto quad's. Mapped points are clipped
    into the image, so a quad that leaves it samples its border.
    """
    h = homography_dlt(side * UNIT_SQUARE, quad)
    mapped = points @ h.T
    xs = np.clip(mapped[:, 0] / mapped[:, 2], 0, px.shape[1] - 1)
    ys = np.clip(mapped[:, 1] / mapped[:, 2], 0, px.shape[0] - 1)
    return bilinear_sample(px, xs, ys)


@dataclass(frozen=True)
class MeanOffset:
    window: int
    offset: float = 10.0


def save_pgm(img: GreyImage, path) -> None:
    """Write a binary PGM (P5, maxval 255)."""
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (img.width, img.height))
        fh.write(img.pixels.tobytes())


def load_pgm(path) -> GreyImage:
    """Read a binary PGM (P5, maxval 255); comment lines in the header are skipped."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P5"):
        raise PgmError("not a P5 PGM file")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if pos >= len(raw):
            raise PgmError("truncated header")
        if raw[pos : pos + 1] == b"#":
            end = raw.find(b"\n", pos)
            if end < 0:
                raise PgmError("truncated header")
            pos = end + 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise PgmError(f"malformed header token {token[:20]!r}")
        try:
            fields.append(int(token))
        except ValueError:  # more digits than int() converts
            raise PgmError(f"header value of {len(token)} digits") from None
    width, height, maxval = fields
    if maxval != 255:
        raise PgmError(f"unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise PgmError("non-positive dimensions")
    pos += 1  # single whitespace after maxval
    payload = raw[pos : pos + width * height]
    if len(payload) < width * height:
        raise PgmError("truncated payload")
    return GreyImage(np.frombuffer(payload, dtype=np.uint8).reshape(height, width))


def binarize(img: GreyImage, method: MeanOffset) -> GreyImage:
    """Threshold to {0, 255}: dark where a pixel is below its local mean minus the offset."""
    if method.window < 3 or method.window % 2 == 0:
        raise ValueError(f"window must be odd and >= 3, got {method.window}")
    px = img.to_float()
    local_mean = ndimage.uniform_filter(px, size=method.window, mode="nearest")
    dark = px < local_mean - method.offset
    return GreyImage(np.where(dark, 0, 255).astype(np.uint8))


# Moore neighbourhood, clockwise on screen starting west: (dy, dx).
_MOORE = ((0, -1), (-1, -1), (-1, 0), (-1, 1), (0, 1), (1, 1), (1, 0), (1, -1))

# Bits of the W, NW, N and NE neighbours: the ones raster order reaches first.
_EARLIER_BITS = 0b1111


def _next_direction_lut() -> tuple[int, ...]:
    """For every (neighbour code, backtrack): the first dark direction clockwise after it, or -1.

    Flattened so that entry code * 8 + backtrack holds the answer.
    """
    table = []
    for code in range(256):
        for back in range(8):
            dirs = [(back + k) % 8 for k in range(1, 9)]
            table.append(next((d for d in dirs if code >> d & 1), -1))
    return tuple(table)


_NEXT_DIR = _next_direction_lut()
# Backtrack at the new pixel after a step in direction d: the last background
# cell scanned, seen from there.
_BACKTRACK = tuple(((d // 2) * 2 + 6) % 8 for d in range(8))


def _walk(codes: bytes, start: int, steps: tuple[int, ...], max_steps: int) -> list[int]:
    """Moore-neighbour walk over flat indices of a padded neighbour-code array.

    Starts at a component's topmost-leftmost pixel, whose west neighbour is
    background, and stops when the first (pixel, direction) state comes back
    (Jacob's criterion) or after max_steps steps. Each step is one table
    lookup; after the first, the pixel came from a dark neighbour, so a
    direction is always found.
    """
    i = start
    d = _NEXT_DIR[codes[i] << 3]
    if d < 0:
        return [i]  # isolated pixel
    first_state = i << 3 | d
    points = [i]
    for _ in range(max_steps - 1):
        i += steps[d]
        points.append(i)
        d = _NEXT_DIR[codes[i] << 3 | _BACKTRACK[d]]
        if i << 3 | d == first_state:
            return points[:-1]
    points.append(i + steps[d])
    return points


def trace_contours(binary: GreyImage) -> list[Contour]:
    """Outer boundaries of dark (0) regions, largest shoelace area first.

    Components are 8-connected and traced in label order. The mask is padded
    with one background pixel on every side, so pixels outside the image count
    as background and every neighbour of an image pixel has a flat index.
    """
    px = binary.pixels
    mask = px == 0
    n_dark = int(np.count_nonzero(mask))
    if n_dark + int(np.count_nonzero(px == 255)) != px.size:
        raise ValueError("input is not binary (values must be 0 or 255)")
    if n_dark == 0:
        return []
    padded = np.pad(mask, 1)
    pw = padded.shape[1]
    steps = tuple(dy * pw + dx for dy, dx in _MOORE)
    # Neighbour codes over the flat padded mask, one shifted slice per
    # direction. Codes of the padding ring mix in pixels from the far side of
    # the image, but the walk never stands on the ring. Each bit is placed by
    # a multiply: numpy's uint8 shift by a scalar takes a ~10x slower loop.
    flat = padded.view(np.uint8).ravel()
    inner = slice(pw + 1, flat.size - pw - 1)
    codes = np.zeros_like(flat)
    core = codes[inner]
    for d, step in enumerate(steps):
        core |= flat[inner.start + step : inner.stop + step] * np.uint8(1 << d)
    labels, _ = ndimage.label(padded, structure=np.ones((3, 3), dtype=np.int8))
    flat_labels = labels.ravel()
    # A component's raster-first pixel has no dark W, NW, N or NE neighbour;
    # the first such pixel of each label is therefore its topmost-leftmost one.
    firsts = np.flatnonzero(flat & ((codes & _EARLIER_BITS) == 0))
    ids, where = np.unique(flat_labels[firsts], return_index=True)
    sizes = np.bincount(flat_labels)[ids]
    code_bytes = codes.tobytes()
    contours = []
    for start, size in zip(firsts[where].tolist(), sizes.tolist()):
        path = _walk(code_bytes, start, steps, 4 * size + 8)
        if len(path) < 4:
            continue
        ys, xs = np.divmod(np.array(path, dtype=np.int64), pw)
        contours.append(Contour(np.column_stack([xs - 1, ys - 1])))
    contours.sort(key=lambda c: -c.area())
    return contours


_SUPPORT_DIRS = np.array(
    [(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)], dtype=np.float64
)


# Every 4-subset of k support points, in combinations() order, for k = 4..8.
_SUBSETS = {k: np.array(list(combinations(range(k), 4))) for k in range(4, 9)}


def _initial_corner_indices(pts: np.ndarray) -> list[int]:
    """Indices of the 4 support points spanning the largest quad.

    Supports are taken every 45 degrees so that square and diamond orientations
    (where a single support family ties along an edge) both yield true corners.
    All subsets are scored at once; on a tie the first subset wins.
    """
    scores = pts @ _SUPPORT_DIRS.T
    candidates = np.unique(np.argmax(scores, axis=0))
    if len(candidates) < 4:
        raise NotAQuadError("not a quad")
    combos = candidates[_SUBSETS[len(candidates)]]
    p = pts[combos]
    cen = p.mean(axis=1, keepdims=True)
    order = np.argsort(np.arctan2(p[..., 1] - cen[..., 1], p[..., 0] - cen[..., 0]), axis=1)
    q = np.take_along_axis(p, order[..., None], axis=1)
    nxt = np.roll(q, -1, axis=1)
    # Contour points are integers, so the shoelace sums are exact.
    twice = (q[..., 0] * nxt[..., 1]).sum(axis=1) - (nxt[..., 0] * q[..., 1]).sum(axis=1)
    areas = np.abs(twice) / 2.0
    best = int(np.argmax(areas))
    if areas[best] < 2.0:
        raise NotAQuadError("not a quad")
    return combos[best, order[best]].tolist()


def _edge_arc(n: int, i: int, j: int) -> np.ndarray:
    if j >= i:
        return np.arange(i, j + 1)
    return np.concatenate([np.arange(i, n), np.arange(0, j + 1)])


def _fit_line(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Total-least-squares line: returns (centroid, unit direction)."""
    c = points.mean(axis=0)
    _, _, vt = np.linalg.svd(points - c, full_matrices=False)
    return c, vt[0]


def _intersect(c1, d1, c2, d2) -> np.ndarray:
    a = np.column_stack([d1, -d2])
    if abs(np.linalg.det(a)) < 1e-12:
        raise NotAQuadError("not a quad")
    t = np.linalg.solve(a, c2 - c1)
    return c1 + t[0] * d1


def bilinear_sample(px: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of px at points (xs, ys) of any shape.

    Every point must lie in [0, w - 1] x [0, h - 1]; callers clip or filter
    first, and a point outside (or NaN) raises ValueError. The last row and
    column are their own right and lower neighbours.
    """
    h, w = px.shape
    if np.size(xs) and not (
        np.min(xs) >= 0 and np.max(xs) <= w - 1 and np.min(ys) >= 0 and np.max(ys) <= h - 1
    ):
        raise ValueError(f"sample points outside the {w}x{h} image")
    x0 = np.floor(xs).astype(np.int64)
    y0 = np.floor(ys).astype(np.int64)
    x1 = np.minimum(x0 + 1, w - 1)
    row0 = y0 * w
    row1 = np.minimum(y0 + 1, h - 1) * w
    fx = xs - x0
    fy = ys - y0
    gx = 1 - fx
    gy = 1 - fy
    flat = px.ravel()
    return (
        flat[row0 + x0] * gx * gy
        + flat[row0 + x1] * fx * gy
        + flat[row1 + x0] * gx * fy
        + flat[row1 + x1] * fx * fy
    )


# Half the length of each edge-normal luminance profile, pixels.
PROFILE_HALF_WIDTH = 3.0


def _refine_edge(
    px: np.ndarray, pts: np.ndarray, normal: np.ndarray, half_width: float
) -> np.ndarray:
    """Edge positions along the normal through each point via the gradient centroid.

    The centroid of the luminance derivative is phase-independent to second
    order for a symmetric point spread, unlike mid-level crossing
    interpolation; for a motion-smeared edge it lands on the smear centre.
    half_width must span the whole transition (plateaus at both ends). All
    profiles are sampled in one call, one row per point; a point is dropped
    when its profile leaves the image, swings too little, crosses more than
    one transition or does not settle inside the window.
    """
    h, w = px.shape
    n_samples = max(17, 2 * int(4 * half_width) + 1)
    ts = np.linspace(-half_width, half_width, n_samples)
    xs = pts[:, :1] + ts * normal[0]
    ys = pts[:, 1:] + ts * normal[1]
    inside = (
        (xs.min(axis=1) >= 0)
        & (ys.min(axis=1) >= 0)
        & (xs.max(axis=1) <= w - 1)
        & (ys.max(axis=1) <= h - 1)
    )
    pts = pts[inside]
    vals = bilinear_sample(px, xs[inside], ys[inside])
    diffs = np.diff(vals, axis=1)
    total = diffs.sum(axis=1)
    swing = vals.max(axis=1) - vals.min(axis=1)
    tail = max(2, n_samples // 10)
    ok = (
        (swing >= 20)
        & (np.abs(total) >= 0.7 * swing)
        # A single transition: total variation close to the net change.
        & (np.abs(diffs).sum(axis=1) <= 1.6 * np.abs(total))
        # The transition sits inside the window (flat plateaus at both ends).
        & (np.abs(vals[:, tail] - vals[:, 0]) <= 0.15 * swing)
        & (np.abs(vals[:, -1] - vals[:, -1 - tail]) <= 0.15 * swing)
    )
    mids = (ts[:-1] + ts[1:]) / 2.0
    t = np.vecdot(diffs[ok], mids) / total[ok]
    return pts[ok] + t[:, None] * normal


def extract_quad_corners(c: Contour, image: GreyImage | None = None) -> QuadCorners:
    """Quad corners from a contour: support extreme points refined by edge-line intersection.

    With the source grey image supplied, edge points are re-localised at the
    luminance-gradient centroid along the edge normal before the line fit,
    which removes the half-pixel bias of binarised boundary centres. Each edge
    is refined in one batch: one bilinear sample over all its points' profiles.
    A corner more than the image's width (x) or height (y) outside it then
    raises NotAQuadError. So does a quad that is not convex, such as one
    whose edges cross.
    """
    pts = c.points.astype(np.float64)
    idx = _initial_corner_indices(pts)
    corners = pts[idx]
    px = image.pixels if image is not None else None

    n = len(pts)
    lines = []
    for k in range(4):
        i, j = idx[k], idx[(k + 1) % 4]
        a, b = corners[k], corners[(k + 1) % 4]
        chord = b - a
        chord_len = np.linalg.norm(chord)
        if chord_len < 1e-9:
            raise NotAQuadError("not a quad")
        chord_dir = chord / chord_len
        normal = np.array([-chord_dir[1], chord_dir[0]])
        # The loop runs either way between the two corners; keep the arc
        # whose points hug the chord.
        arc_a = _edge_arc(n, i, j)
        arc_b = _edge_arc(n, j, i)[::-1]

        def max_dev(arc):
            return np.abs((pts[arc] - a) @ normal).max() if len(arc) else np.inf

        arc = arc_a if max_dev(arc_a) <= max_dev(arc_b) else arc_b
        edge_pts = pts[arc]
        along = (edge_pts - a) @ chord_dir
        keep = (along > 0.15 * chord_len) & (along < 0.85 * chord_len)
        if keep.sum() >= 2:
            edge_pts = edge_pts[keep]
        if len(edge_pts) < 2:
            lines.append((a, chord_dir))
            continue
        cen, direction = _fit_line(edge_pts)
        if px is not None:
            nrm = np.array([-direction[1], direction[0]])
            refined_pts = _refine_edge(px, edge_pts, nrm, PROFILE_HALF_WIDTH)
            if len(refined_pts) >= 2:
                cen, direction = _fit_line(refined_pts)
        lines.append((cen, direction))

    out = []
    for k in range(4):
        c_prev, d_prev = lines[(k - 1) % 4]
        c_k, d_k = lines[k]
        out.append(_intersect(c_prev, d_prev, c_k, d_k))
    out = np.asarray(out)
    if image is not None:
        # Nearly parallel edge lines of an outline cut by the crop edge meet
        # far away; a sticker's corner lies within a crop size of the crop.
        size = np.array([image.width, image.height])
        if np.any((out < -size) | (out > 2 * size)):
            raise NotAQuadError("corner far outside the crop")
    # A sticker's quad is convex: the path turns the same way at every corner.
    # One whose edges cross, or that folds inward, is no sticker outline.
    edges = np.roll(out, -1, axis=0) - out
    before = np.roll(edges, 1, axis=0)
    turns = before[:, 0] * edges[:, 1] - before[:, 1] * edges[:, 0]
    if not (np.all(turns > 0) or np.all(turns < 0)):
        raise NotAQuadError("quad not convex")

    # Counter-clockwise (positive shoelace) starting at the top-left-most corner.
    cross = float(np.dot(out[:, 0], np.roll(out[:, 1], -1)) - np.dot(np.roll(out[:, 0], -1), out[:, 1]))
    if cross < 0:
        out = out[::-1]
    s = out[:, 0] + out[:, 1]
    start = int(np.lexsort((out[:, 1], np.round(s, 6)))[0])
    out = np.roll(out, -start, axis=0)
    if len(np.unique(np.round(out, 6), axis=0)) < 4:
        raise NotAQuadError("not a quad")
    return QuadCorners(out)
