"""Synthetic downward-camera renderer: the ground-truth oracle for the localiser.

Every pixel is back-projected through the exact pinhole model onto the ground
plane, so projected corner ground truth and rendered appearance share one
camera model by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import artwork
from .geometry import CameraIntrinsics, Pose, camera_world_position, project_many, projection_matrix
from .imaging import GreyImage, bilinear_sample
from .warehouse import StickerSpec, WarehouseMap

STICKER_TEXTURE_PX = 240
FLOOR_LUMINANCE = 120.0
OPTICS_SIGMA_PX = 0.6  # lens point-spread; keeps edges sub-pixel smooth
BLUR_SAMPLES = 8  # camera positions averaged over one exposure


class RenderGeometryError(ValueError):
    pass


class TruthFormatError(ValueError):
    """A malformed truth sidecar; the message names the file and line."""


@dataclass(frozen=True)
class RenderConfig:
    exposure_reciprocal: float | None = None  # N, 1/s; None renders a sharp frame
    velocity: float = 0.0  # camera speed, m/s
    heading: float = 0.0  # travel direction in the ground plane, radians
    noise_sigma: float = 2.0
    illumination: float = 1.0  # relative gain standing in for the 50-200 lux spread
    seed: int | None = None

    def __post_init__(self):
        for name in ("exposure_reciprocal", "velocity", "heading", "noise_sigma", "illumination"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.illumination <= 0:
            raise ValueError("illumination gain must be positive")
        moving = self.velocity > 0 and self.exposure_reciprocal is not None
        if moving and self.exposure_reciprocal <= 0:
            raise ValueError("exposure_reciprocal must be positive for motion blur")


@dataclass(frozen=True)
class StickerTruth:
    sticker_id: int
    corners_px: np.ndarray  # (4, 2) projected artwork corners a0..a3


@dataclass(frozen=True)
class GroundTruth:
    visible: list[StickerTruth] = field(default_factory=list)

    @property
    def visible_ids(self) -> list[int]:
        return [s.sticker_id for s in self.visible]

    def corners_of(self, sticker_id: int) -> np.ndarray:
        for s in self.visible:
            if s.sticker_id == sticker_id:
                return s.corners_px
        raise KeyError(sticker_id)


def sticker_texture(payloads: tuple[str, str, str, str]) -> np.ndarray:
    """The sticker's uint8 raster, STICKER_TEXTURE_PX square, built on every call.

    A build is cheap next to any image drawn from it, so none is kept to grow with the map.
    """
    cells = artwork.sticker_cells_from_payloads(list(payloads))
    return artwork.render_cells(cells, STICKER_TEXTURE_PX, supersample=2).pixels


def _ground_intersections(
    intr: CameraIntrinsics, pose: Pose
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """World (X, Y) hit by each pixel ray, the ray depth, and a validity mask."""
    p = projection_matrix(intr, pose)
    h_ground = p[:, [0, 1, 3]]  # plane Z=0: columns for X, Y, 1
    try:
        h_inv = np.linalg.inv(h_ground)
    except np.linalg.LinAlgError as exc:
        raise RenderGeometryError("camera does not view the ground plane") from exc
    xs, ys = np.meshgrid(np.arange(intr.width, dtype=np.float64),
                         np.arange(intr.height, dtype=np.float64))
    pix = np.stack([xs.ravel(), ys.ravel(), np.ones(xs.size)])
    ground = h_inv @ pix
    w = ground[2]
    # Depth of the ground point must be positive (in front of the camera).
    depth = (h_ground[2] @ (ground / np.where(np.abs(w) < 1e-15, np.nan, w)))
    valid = np.isfinite(depth) & (depth > 0)
    gx = ground[0] / w
    gy = ground[1] / w
    return gx, gy, depth, valid


def _check_camera(intr: CameraIntrinsics, pose: Pose) -> None:
    centre = camera_world_position(pose)
    if centre[2] <= 0:
        raise RenderGeometryError("camera must be above the ground plane")
    axis = pose.rotation.T @ np.array([0.0, 0.0, 1.0])  # optical axis in world
    if axis[2] >= 0:
        raise RenderGeometryError("optical axis does not intersect the ground")


def _shade(intr: CameraIntrinsics, pose: Pose, warehouse_map: WarehouseMap) -> np.ndarray:
    gx, gy, depth, valid = _ground_intersections(intr, pose)
    shade = np.full(gx.shape, FLOOR_LUMINANCE)
    size = artwork.STICKER_SIZE_M
    half = size / 2.0
    # Metres covered by one pixel at each ground point: sets the analytic
    # anti-aliasing ramp so sticker outlines land sub-pixel at any scale.
    m_per_px = np.where(valid, depth / intr.focal_px, np.inf)
    for sticker in warehouse_map:
        c, s = np.cos(sticker.yaw), np.sin(sticker.yaw)
        dx = gx - sticker.world_x
        dy = gy - sticker.world_y
        sx = c * dx + s * dy
        sy = -s * dx + c * dy
        margin = m_per_px
        inside = valid & (np.abs(sx) <= half + margin) & (np.abs(sy) <= half + margin)
        if not inside.any():
            continue
        u, v = artwork.local_to_artwork_uv(sx[inside], sy[inside])
        tex = sticker_texture(sticker.payloads)
        tx = np.clip(u * STICKER_TEXTURE_PX - 0.5, 0, STICKER_TEXTURE_PX - 1)
        ty = np.clip(v * STICKER_TEXTURE_PX - 0.5, 0, STICKER_TEXTURE_PX - 1)
        ink = bilinear_sample(tex, tx, ty)
        # Signed distance to the sticker outline in pixels; 1-px coverage ramp.
        dist_m = half - np.maximum(np.abs(sx[inside]), np.abs(sy[inside]))
        alpha = np.clip(dist_m / m_per_px[inside] + 0.5, 0.0, 1.0)
        shade[inside] = FLOOR_LUMINANCE + alpha * (ink - FLOOR_LUMINANCE)
    return shade.reshape(intr.height, intr.width)


def _visible_truth(intr: CameraIntrinsics, pose: Pose, warehouse_map: WarehouseMap) -> GroundTruth:
    frame = np.array(
        [[0.0, 0.0], [intr.width, 0.0], [intr.width, intr.height], [0.0, intr.height]]
    )
    visible = []
    for sticker in warehouse_map:
        corners3 = sticker.corners_world()
        try:
            px = project_many(intr, pose, corners3)
        except ValueError:
            continue
        if _convex_quads_intersect(px, frame):
            visible.append(StickerTruth(sticker.id, px))
    return GroundTruth(visible)


def _convex_quads_intersect(a: np.ndarray, b: np.ndarray) -> bool:
    """Separating-axis test for two convex quads."""
    for quad in (a, b):
        for i in range(4):
            edge = quad[(i + 1) % 4] - quad[i]
            axis = np.array([-edge[1], edge[0]])
            pa = a @ axis
            pb = b @ axis
            if pa.max() < pb.min() or pb.max() < pa.min():
                return False
    return True


def render(
    warehouse_map: WarehouseMap,
    intr: CameraIntrinsics,
    pose: Pose,
    cfg: RenderConfig = RenderConfig(),
) -> tuple[GreyImage, GroundTruth]:
    """Render one frame and its ground truth; blur and noise follow the config.

    The shading is averaged over the camera's positions during the exposure; a sharp frame has one.
    """
    _check_camera(intr, pose)
    if cfg.exposure_reciprocal is not None and cfg.velocity > 0:
        offsets = np.linspace(0.0, cfg.velocity / cfg.exposure_reciprocal, BLUR_SAMPLES)
    else:
        offsets = [0.0]
    direction = np.array([np.cos(cfg.heading), np.sin(cfg.heading), 0.0])
    shade = np.zeros((intr.height, intr.width))
    for off in offsets:
        shifted = Pose(pose.rotation, pose.translation - pose.rotation @ (direction * off))
        shade += _shade(intr, shifted, warehouse_map)
    shade = ndimage.gaussian_filter(shade / len(offsets), OPTICS_SIGMA_PX, mode="nearest")
    shade = shade * cfg.illumination
    if cfg.noise_sigma > 0:
        rng = np.random.default_rng(cfg.seed)
        shade = shade + rng.normal(0.0, cfg.noise_sigma, size=shade.shape)
    img = GreyImage.from_float(shade)
    return img, _visible_truth(intr, pose, warehouse_map)


def exposure_for_blur_px(intr: CameraIntrinsics, distance_m: float, velocity: float,
                         blur_px: float) -> float:
    """Exposure reciprocal N producing a given blur streak length."""
    if blur_px <= 0:
        raise ValueError("blur_px must be positive")
    return velocity * intr.f / (distance_m * intr.pixel_pitch * blur_px)


def save_truth(truth: GroundTruth, pose: Pose, path) -> None:
    """Sidecar text file: camera pose line plus one line per visible sticker."""
    centre = camera_world_position(pose)
    with open(path, "w") as fh:
        fh.write("# floortag truth v1\n")
        fh.write("camera " + " ".join(repr(float(v)) for v in centre) + "\n")
        for s in truth.visible:
            flat = " ".join(repr(float(v)) for v in s.corners_px.ravel())
            fh.write(f"sticker {s.sticker_id} {flat}\n")


def load_truth(path) -> tuple[np.ndarray, GroundTruth]:
    """Read a sidecar written by save_truth: the camera centre and the visible stickers.

    It needs one `camera` line of 3 finite numbers; each `sticker` line holds
    an integer id and 8 finite corner coordinates. A malformed file raises
    TruthFormatError naming the file and line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise TruthFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    camera = None
    visible = []
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts or parts[0].startswith("#"):
            continue
        where = f"{path}:{lineno}"
        if parts[0] == "camera":
            if camera is not None:
                raise TruthFormatError(f"{where}: second camera line")
            camera = _finite_numbers(parts[1:], 3, where)
        elif parts[0] == "sticker":
            if len(parts) < 2:
                raise TruthFormatError(f"{where}: sticker line without an id")
            try:
                sticker_id = int(parts[1])
            except ValueError:
                message = f"{where}: sticker id {parts[1]!r} is not an integer"
                raise TruthFormatError(message) from None
            corners = _finite_numbers(parts[2:], 8, where).reshape(4, 2)
            visible.append(StickerTruth(sticker_id, corners))
        else:
            raise TruthFormatError(f"{where}: unknown record {parts[0]!r}")
    if camera is None:
        raise TruthFormatError(f"{path}: missing camera line")
    return camera, GroundTruth(visible)


def _finite_numbers(fields: list[str], count: int, where: str) -> np.ndarray:
    if len(fields) != count:
        raise TruthFormatError(f"{where}: expected {count} numbers, got {len(fields)}")
    try:
        values = np.array([float(v) for v in fields])
    except ValueError as exc:
        raise TruthFormatError(f"{where}: {exc}") from None
    if not np.all(np.isfinite(values)):
        raise TruthFormatError(f"{where}: values must be finite")
    return values


def single_sticker_map(sticker: StickerSpec | None = None) -> WarehouseMap:
    """One sticker at the origin; convenient for focused tests."""
    return WarehouseMap([sticker or StickerSpec(1, 0.0, 0.0, 0.0)])
