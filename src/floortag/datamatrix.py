"""ECC200 Data Matrix codec for the 10x10 symbol: 3 data + 5 Reed-Solomon codewords.

Galois field GF(256) with the Data Matrix polynomial x^8+x^5+x^3+x^2+1 and
generator roots alpha^1..alpha^5. Only the 10x10 size is supported.

`decode_bitmap` decodes a sampled 10x10 module grid. The pipeline samples
those grids at the sticker's known symbol cells (`artwork.read_sticker`), so
it needs no symbol search. `decode_roi_detail` finds symbols in an image of
unknown layout, such as a crop or a sticker warped onto a square raster: it
fits a rectangle to each contour, skips the sticker's own outline, and stops
at the first symbol that decodes. The pipeline does not call it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .imaging import GreyImage, sample_quad, trace_contours

SYMBOL_SIZE = 10
DATA_REGION = 8
DATA_CODEWORDS = 3
ECC_CODEWORDS = 5
GF_POLY = 0x12D
MAX_FINDER_ERRORS = 2  # L finder and timing modules a decodable grid may miss


class UncorrectableError(ValueError):
    pass


class EncodingError(ValueError):
    pass


def _build_tables() -> tuple[np.ndarray, np.ndarray]:
    exp = np.zeros(512, dtype=np.int64)
    log = np.zeros(256, dtype=np.int64)
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x <<= 1
        if x & 0x100:
            x ^= GF_POLY
    exp[255:510] = exp[:255]
    return exp, log


_GF_EXP, _GF_LOG = _build_tables()


def gf_mul(a: int, b: int) -> int:
    if a == 0 or b == 0:
        return 0
    return int(_GF_EXP[_GF_LOG[a] + _GF_LOG[b]])


def gf_div(a: int, b: int) -> int:
    if b == 0:
        raise ZeroDivisionError("division by zero in GF(256)")
    if a == 0:
        return 0
    return int(_GF_EXP[(_GF_LOG[a] - _GF_LOG[b]) % 255])


def gf_pow(a: int, n: int) -> int:
    if a == 0:
        return 0
    return int(_GF_EXP[(_GF_LOG[a] * n) % 255])


def gf_inv(a: int) -> int:
    return gf_div(1, a)


def _poly_mul(p: list[int], q: list[int]) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, pi in enumerate(p):
        if pi == 0:
            continue
        for j, qj in enumerate(q):
            out[i + j] ^= gf_mul(pi, qj)
    return out


def _poly_eval(p: list[int], x: int) -> int:
    # Coefficients ordered highest degree first.
    y = p[0]
    for c in p[1:]:
        y = gf_mul(y, x) ^ c
    return y


def _generator_poly() -> list[int]:
    g = [1]
    for i in range(1, ECC_CODEWORDS + 1):
        g = _poly_mul(g, [1, gf_pow(2, i)])
    return g


_GEN_POLY = _generator_poly()


@dataclass(frozen=True)
class Codewords:
    data: bytes
    ecc: bytes

    def __post_init__(self):
        if len(self.data) != DATA_CODEWORDS or len(self.ecc) != ECC_CODEWORDS:
            raise ValueError("10x10 symbols carry 3 data + 5 ecc codewords")

    @property
    def full(self) -> bytes:
        return self.data + self.ecc


@dataclass(frozen=True)
class Payload:
    """Corrected data codewords plus how many codeword errors were corrected."""

    data: bytes
    errors_corrected: int = 0

    @property
    def text(self) -> str:
        """Message text; raises for codewords that are not valid ASCII encodation."""
        return decode_text(self.data).decode("ascii")


@dataclass(frozen=True)
class SymbolBitmap:
    """10x10 module grid, True = dark, finder and timing patterns in place."""

    modules: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.modules, dtype=bool)
        if m.shape != (SYMBOL_SIZE, SYMBOL_SIZE):
            raise ValueError("expected a 10x10 module grid")
        if finder_mismatches(m) != 0:
            raise ValueError("finder or timing pattern violated")
        m.setflags(write=False)
        object.__setattr__(self, "modules", m)


@dataclass(frozen=True)
class SymbolRead:
    payload: Payload


def _randomised_pad(position: int) -> int:
    # 253-state algorithm; position is 1-based.
    v = 129 + ((149 * position) % 253) + 1
    return v - 254 if v > 254 else v


def encode_text(text: str | bytes) -> bytes:
    """ASCII-mode encodation into exactly 3 data codewords (digit pairs packed)."""
    if isinstance(text, str):
        try:
            raw = text.encode("ascii")
        except UnicodeEncodeError as exc:
            raise EncodingError("only ASCII payloads are supported") from exc
    else:
        raw = bytes(text)
    out: list[int] = []
    i = 0
    while i < len(raw):
        if len(out) >= DATA_CODEWORDS:
            raise EncodingError(f"payload {text!r} exceeds 10x10 capacity")
        if i + 1 < len(raw) and raw[i : i + 2].isdigit():
            out.append(130 + int(raw[i : i + 2]))
            i += 2
        else:
            if raw[i] > 127:
                raise EncodingError("only ASCII payloads are supported")
            out.append(raw[i] + 1)
            i += 1
    if len(out) > DATA_CODEWORDS:
        raise EncodingError(f"payload {text!r} exceeds 10x10 capacity")
    if len(out) < DATA_CODEWORDS:
        out.append(129)
    while len(out) < DATA_CODEWORDS:
        out.append(_randomised_pad(len(out) + 1))
    return bytes(out)


def decode_text(data: bytes) -> bytes:
    """Invert ASCII-mode encodation; stops at the first pad codeword."""
    out = bytearray()
    for v in data:
        if v == 129:
            break
        if 1 <= v <= 128:
            out.append(v - 1)
        elif 130 <= v <= 229:
            out.extend(b"%02d" % (v - 130))
        else:
            raise ValueError(f"invalid ASCII encodation value {v}")
    return bytes(out)


def rs_encode(data: bytes) -> Codewords:
    """Append the 5 Reed-Solomon check codewords to 3 data codewords."""
    if len(data) != DATA_CODEWORDS:
        raise ValueError(f"expected {DATA_CODEWORDS} data codewords, got {len(data)}")
    msg = list(data) + [0] * ECC_CODEWORDS
    for i in range(DATA_CODEWORDS):
        coef = msg[i]
        if coef:
            for j in range(1, len(_GEN_POLY)):
                msg[i + j] ^= gf_mul(_GEN_POLY[j], coef)
    return Codewords(bytes(data), bytes(msg[DATA_CODEWORDS:]))


def syndromes(codewords: bytes) -> list[int]:
    return [_poly_eval(list(codewords), gf_pow(2, i)) for i in range(1, ECC_CODEWORDS + 1)]


def _berlekamp_massey(synd: list[int]) -> list[int]:
    err_loc = [1]
    old_loc = [1]
    for k in range(len(synd)):
        delta = synd[k]
        for j in range(1, len(err_loc)):
            delta ^= gf_mul(err_loc[-(j + 1)], synd[k - j])
        old_loc.append(0)
        if delta != 0:
            if len(old_loc) > len(err_loc):
                new_loc = [gf_mul(c, delta) for c in old_loc]
                old_loc = [gf_mul(c, gf_inv(delta)) for c in err_loc]
                err_loc = new_loc
            pad = [0] * (len(err_loc) - len(old_loc))
            scaled = pad + [gf_mul(c, delta) for c in old_loc]
            err_loc = [a ^ b for a, b in zip(err_loc, scaled)]
    while err_loc and err_loc[0] == 0:
        err_loc.pop(0)
    return err_loc


def rs_decode(cw: Codewords | bytes) -> Payload:
    """Correct up to 2 codeword errors and unpack the message."""
    if isinstance(cw, Codewords):
        received = list(cw.full)
    else:
        received = list(cw)
    if len(received) != DATA_CODEWORDS + ECC_CODEWORDS:
        raise ValueError("expected 8 codewords")
    n = len(received)

    synd = syndromes(bytes(received))
    if max(synd) == 0:
        return Payload(bytes(received[:DATA_CODEWORDS]))

    err_loc = _berlekamp_massey(synd)
    n_errors = len(err_loc) - 1
    if 2 * n_errors > ECC_CODEWORDS:
        raise UncorrectableError("uncorrectable: too many errors")

    # Chien search: the reversed locator has roots alpha^e at error degrees e.
    reversed_loc = list(reversed(err_loc))
    err_pos = []
    for i in range(n):
        if _poly_eval(reversed_loc, gf_pow(2, i)) == 0:
            err_pos.append(n - 1 - i)
    if len(err_pos) != n_errors:
        raise UncorrectableError("uncorrectable: error locator roots inconsistent")

    corrected = _forney_correct(received, synd, sorted(err_pos))
    if max(syndromes(bytes(corrected))) != 0:
        raise UncorrectableError("uncorrectable: correction failed")
    return Payload(bytes(corrected[:DATA_CODEWORDS]), errors_corrected=n_errors)


def _forney_correct(received: list[int], synd: list[int], positions: list[int]) -> list[int]:
    """Forney magnitudes for fcr=1: Y_l = Omega(X_l^-1) / (X_l * prod(1 + X_k X_l^-1))."""
    n = len(received)
    xs = [gf_pow(2, n - 1 - p) for p in positions]
    # Locator and evaluator as low-degree-first coefficient lists.
    lam = [1]
    for x in xs:
        lam = _poly_mul(lam, [1, x])
    omega = _poly_mul(synd, lam)[: ECC_CODEWORDS]

    out = list(received)
    for i, xi in enumerate(xs):
        xi_inv = gf_inv(xi)
        denom = xi
        for j, xj in enumerate(xs):
            if j != i:
                denom = gf_mul(denom, 1 ^ gf_mul(xi_inv, xj))
        if denom == 0:
            raise UncorrectableError("uncorrectable: repeated error location")
        num = _poly_eval(list(reversed(omega)), xi_inv)
        out[positions[i]] ^= gf_div(num, denom)
    return out


# ECC200 module placement for the 8x8 data region (bit 0 is the codeword MSB).
def _placement_grid() -> list[list[tuple[int, int]]]:
    nrow = ncol = DATA_REGION
    grid: list[list[tuple[int, int] | None]] = [[None] * ncol for _ in range(nrow)]

    def place_bit(r: int, c: int, idx: int, bit: int) -> None:
        if r < 0:
            r += nrow
            c += 4 - ((nrow + 4) % 8)
        if c < 0:
            c += ncol
            r += 4 - ((ncol + 4) % 8)
        grid[r][c] = (idx, bit)

    def place_utah(r: int, c: int, idx: int) -> None:
        offsets = [(-2, -2), (-2, -1), (-1, -2), (-1, -1), (-1, 0), (0, -2), (0, -1), (0, 0)]
        for bit, (dr, dc) in enumerate(offsets):
            place_bit(r + dr, c + dc, idx, bit)

    def corner(cells: list[tuple[int, int]], idx: int) -> None:
        for bit, (r, c) in enumerate(cells):
            grid[r][c] = (idx, bit)

    idx = 0
    row, col = 4, 0
    while row < nrow or col < ncol:
        if row == nrow and col == 0:
            corner(
                [(nrow - 1, 0), (nrow - 1, 1), (nrow - 1, 2), (0, ncol - 2), (0, ncol - 1),
                 (1, ncol - 1), (2, ncol - 1), (3, ncol - 1)], idx)
            idx += 1
        if row == nrow - 2 and col == 0 and ncol % 4 != 0:
            corner(
                [(nrow - 3, 0), (nrow - 2, 0), (nrow - 1, 0), (0, ncol - 4), (0, ncol - 3),
                 (0, ncol - 2), (0, ncol - 1), (1, ncol - 1)], idx)
            idx += 1
        if row == nrow - 2 and col == 0 and ncol % 8 == 4:
            corner(
                [(nrow - 3, 0), (nrow - 2, 0), (nrow - 1, 0), (0, ncol - 2), (0, ncol - 1),
                 (1, ncol - 1), (2, ncol - 1), (3, ncol - 1)], idx)
            idx += 1
        if row == nrow + 4 and col == 2 and ncol % 8 == 0:
            corner(
                [(nrow - 1, 0), (nrow - 1, ncol - 1), (0, ncol - 3), (0, ncol - 2),
                 (0, ncol - 1), (1, ncol - 3), (1, ncol - 2), (1, ncol - 1)], idx)
            idx += 1
        while row >= 0 and col < ncol:
            if row < nrow and col >= 0 and grid[row][col] is None:
                place_utah(row, col, idx)
                idx += 1
            row -= 2
            col += 2
        row += 1
        col += 3
        while row < nrow and col >= 0:
            if row >= 0 and col < ncol and grid[row][col] is None:
                place_utah(row, col, idx)
                idx += 1
            row += 2
            col -= 2
        row += 3
        col += 1
    if grid[nrow - 1][ncol - 1] is None:
        # Fixed checker in the lower-right 2x2 when the walk leaves it empty.
        grid[nrow - 1][ncol - 1] = (-1, 0)
        grid[nrow - 2][ncol - 2] = (-1, 0)
        grid[nrow - 1][ncol - 2] = (-2, 0)
        grid[nrow - 2][ncol - 1] = (-2, 0)
    assert all(cell is not None for rowcells in grid for cell in rowcells)
    return grid  # type: ignore[return-value]


_PLACEMENT = _placement_grid()


def bitmap_from_codewords(cw: Codewords) -> SymbolBitmap:
    """10x10 symbol bitmap: L finder, timing pattern and placed codeword bits."""
    full = cw.full
    m = np.zeros((SYMBOL_SIZE, SYMBOL_SIZE), dtype=bool)
    m[:, 0] = True
    m[SYMBOL_SIZE - 1, :] = True
    m[0, :] = [c % 2 == 0 for c in range(SYMBOL_SIZE)]
    m[:, SYMBOL_SIZE - 1] = [r % 2 == 1 for r in range(SYMBOL_SIZE)]
    for r in range(DATA_REGION):
        for c in range(DATA_REGION):
            idx, bit = _PLACEMENT[r][c]
            if idx == -1:
                dark = True
            elif idx == -2:
                dark = False
            else:
                dark = bool((full[idx] >> (7 - bit)) & 1)
            m[r + 1, c + 1] = dark
    return SymbolBitmap(m)


def codewords_from_bitmap(modules: np.ndarray) -> bytes:
    """Inverse placement: read 8 codewords out of a 10x10 module grid."""
    m = np.asarray(modules, dtype=bool)
    if m.shape != (SYMBOL_SIZE, SYMBOL_SIZE):
        raise ValueError("expected a 10x10 module grid")
    values = [0] * (DATA_CODEWORDS + ECC_CODEWORDS)
    for r in range(DATA_REGION):
        for c in range(DATA_REGION):
            idx, bit = _PLACEMENT[r][c]
            if idx >= 0 and m[r + 1, c + 1]:
                values[idx] |= 1 << (7 - bit)
    return bytes(values)


def finder_mismatches(modules: np.ndarray) -> int:
    """Count border modules violating the L finder and timing patterns."""
    m = np.asarray(modules, dtype=bool)
    n = SYMBOL_SIZE
    bad = int(np.count_nonzero(~m[:, 0]))  # left column dark
    bad += int(np.count_nonzero(~m[n - 1, 1:]))  # bottom row dark
    top = np.array([c % 2 == 0 for c in range(1, n)])
    bad += int(np.count_nonzero(m[0, 1:] != top))
    right = np.array([r % 2 == 1 for r in range(n - 1)])
    bad += int(np.count_nonzero(m[: n - 1, n - 1] != right))
    return bad


def render_symbol(cw: Codewords, module_px: int) -> GreyImage:
    """Rasterise a symbol with a one-module quiet zone; dark = 0, light = 255."""
    if module_px < 1:
        raise ValueError("module_px must be >= 1")
    bitmap = bitmap_from_codewords(cw)
    padded = np.zeros((SYMBOL_SIZE + 2, SYMBOL_SIZE + 2), dtype=bool)
    padded[1:-1, 1:-1] = bitmap.modules
    img = np.where(np.kron(padded, np.ones((module_px, module_px), dtype=bool)), 0, 255)
    return GreyImage(img.astype(np.uint8))


def decode_bitmap(modules: np.ndarray) -> tuple[Payload, int] | None:
    """Try the four symbol orientations; return (payload, ccw quarter turns) or None."""
    m = np.asarray(modules, dtype=bool)
    candidates = sorted(range(4), key=lambda k: finder_mismatches(np.rot90(m, k)))
    for k in candidates:
        rotated = np.rot90(m, k)
        if finder_mismatches(rotated) > MAX_FINDER_ERRORS:
            continue
        try:
            payload = rs_decode(codewords_from_bitmap(rotated))
        except UncorrectableError:
            continue
        return payload, k
    return None


def otsu_threshold(px: np.ndarray) -> float:
    """Otsu's threshold over an 8-bit luminance array."""
    hist = np.bincount(px.astype(np.uint8).ravel(), minlength=256).astype(np.float64)
    total = hist.sum()
    if total == 0:
        return 127.5
    levels = np.arange(256, dtype=np.float64)
    w0 = np.cumsum(hist)
    w1 = total - w0
    mu0 = np.cumsum(hist * levels)
    mu_total = mu0[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        m0 = mu0 / w0
        m1 = (mu_total - mu0) / w1
        between = w0 * w1 * (m0 - m1) ** 2
    between[~np.isfinite(between)] = -1
    return float(np.argmax(between)) + 0.5


def _convex_hull(points: np.ndarray) -> np.ndarray:
    """Qhull's vertices, counterclockwise from the lexicographic minimum, as the monotone chain gave."""
    # Rows sorted by x, then y: the lowest index is the lexicographic minimum.
    pts = np.unique(points, axis=0).astype(np.float64)
    try:
        vertices = ConvexHull(pts).vertices
    except QhullError:  # fewer than 3 points, or all on one line
        return pts[[0, -1]] if len(pts) > 2 else pts
    return pts[np.roll(vertices, -int(np.argmin(vertices)))]


def min_area_rect(points: np.ndarray) -> np.ndarray:
    """Smallest-area enclosing rectangle of a point set; corners ordered CCW."""
    hull = _convex_hull(np.asarray(points, dtype=np.float64))
    if len(hull) < 3:
        raise ValueError("degenerate point set")
    best = None
    for i in range(len(hull)):
        edge = hull[(i + 1) % len(hull)] - hull[i]
        norm = np.linalg.norm(edge)
        if norm < 1e-12:
            continue
        d = edge / norm
        n = np.array([-d[1], d[0]])
        a = hull @ d
        b = hull @ n
        area = (a.max() - a.min()) * (b.max() - b.min())
        if best is None or area < best[0]:
            best = (area, d, n, a.min(), a.max(), b.min(), b.max())
    if best is None:
        raise ValueError("degenerate point set")
    _, d, n, a0, a1, b0, b1 = best
    corners = np.array(
        [a0 * d + b0 * n, a1 * d + b0 * n, a1 * d + b1 * n, a0 * d + b1 * n]
    )
    x = corners[:, 0]
    y = corners[:, 1]
    if float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y)) < 0:
        corners = corners[::-1]
    return corners


def _grid_from_quad(px: np.ndarray, quad: np.ndarray, threshold: float) -> np.ndarray:
    """Sample the 10x10 module centres of an arbitrary quad via its homography."""
    cc, rr = np.meshgrid(
        (np.arange(SYMBOL_SIZE) + 0.5) / SYMBOL_SIZE,
        (np.arange(SYMBOL_SIZE) + 0.5) / SYMBOL_SIZE,
    )
    pts = np.column_stack([cc.ravel(), rr.ravel(), np.ones(SYMBOL_SIZE**2)])
    vals = sample_quad(px, quad, 1.0, pts)
    return (vals < threshold).reshape(SYMBOL_SIZE, SYMBOL_SIZE)


MIN_SYMBOL_SIDE_PX = 12.0


def decode_roi_detail(roi_img: GreyImage) -> list[SymbolRead]:
    """The first symbol read in an image of unknown layout: a crop, or a sticker's square raster.

    Contours are tried largest first; the first that passes the size and
    aspect tests and decodes ends the search. Every symbol of a sticker
    carries its id, so one read identifies it. Returns [] or a one-read list.

    A contour that reaches all four image edges is skipped: on a sticker's
    square raster it is the sticker's own outline, never a symbol, since a symbol
    keeps a quiet zone of at least one module (as render_symbol draws it).
    """
    if roi_img.width < 40 or roi_img.height < 40:
        raise ValueError("ROI must be at least 40x40 pixels")
    px = roi_img.to_float()
    threshold = otsu_threshold(roi_img.pixels)
    binary = GreyImage(np.where(px < threshold, 0, 255).astype(np.uint8))
    last = np.array([roi_img.width - 1, roi_img.height - 1])
    for contour in trace_contours(binary):
        if contour.area() < MIN_SYMBOL_SIDE_PX * MIN_SYMBOL_SIDE_PX * 0.3:
            continue
        pts = contour.points
        if (pts.min(axis=0) == 0).all() and (pts.max(axis=0) == last).all():
            continue
        try:
            quad = min_area_rect(pts)
        except ValueError:
            continue
        side_a = np.linalg.norm(quad[1] - quad[0])
        side_b = np.linalg.norm(quad[3] - quad[0])
        short = min(side_a, side_b)
        if short < MIN_SYMBOL_SIDE_PX or max(side_a, side_b) > 4 * short:
            continue
        grid = _grid_from_quad(px, quad, threshold)
        result = decode_bitmap(grid)
        if result is not None:
            return [SymbolRead(result[0])]
    return []


def decode_roi(roi_img: GreyImage) -> list[Payload]:
    """The payload of the first symbol decoded in the ROI, as a list of at most one."""
    return [read.payload for read in decode_roi_detail(roi_img)]
