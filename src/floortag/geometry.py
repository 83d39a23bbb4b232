"""Pinhole camera model, planar pose estimation and reprojection refinement.

Conventions: the pose T maps world coordinates into the camera frame; pixels
follow (su, sv, s) = K F T (X, Y, Z, 1) with K the intrinsic matrix, F the
focal matrix and T the rigid transform. The camera centre in world
coordinates is -R^T t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

REFERENCE_FOCAL_M = 3.6e-3
REFERENCE_PIXEL_PITCH_M = 1.4e-6
REFERENCE_SENSOR_W = 2592
REFERENCE_SENSOR_H = 1944


class BehindCameraError(ValueError):
    pass


class IntrinsicsFormatError(ValueError):
    """A malformed intrinsics file; the message names the file and line."""


@dataclass(frozen=True)
class CameraIntrinsics:
    ku: float
    kv: float
    s_uv: float
    cu: float
    cv: float
    f: float
    width: int
    height: int
    pixel_pitch: float

    def __post_init__(self):
        if self.ku <= 0 or self.kv <= 0 or self.f <= 0:
            raise ValueError("ku, kv and f must be positive")
        if not (0 <= self.cu < self.width and 0 <= self.cv < self.height):
            raise ValueError("principal point outside sensor")

    @classmethod
    def from_physical(
        cls,
        focal_m: float = REFERENCE_FOCAL_M,
        pixel_pitch_m: float = REFERENCE_PIXEL_PITCH_M,
        width: int = REFERENCE_SENSOR_W,
        height: int = REFERENCE_SENSOR_H,
        cu: float | None = None,
        cv: float | None = None,
        skew: float = 0.0,
    ) -> "CameraIntrinsics":
        """Square-pixel camera: magnification factors are 1/pixel_pitch."""
        if pixel_pitch_m <= 0:
            raise ValueError("pixel pitch must be positive")
        k = 1.0 / pixel_pitch_m
        return cls(
            ku=k,
            kv=k,
            s_uv=skew,
            cu=width / 2.0 if cu is None else cu,
            cv=height / 2.0 if cv is None else cv,
            f=focal_m,
            width=width,
            height=height,
            pixel_pitch=pixel_pitch_m,
        )

    @classmethod
    def reference_camera(cls, binning: int = 1) -> "CameraIntrinsics":
        """The 5 MP reference camera, optionally binned to a coarser grid."""
        if binning < 1:
            raise ValueError(f"binning must be at least 1, got {binning}")
        return cls.from_physical(
            pixel_pitch_m=REFERENCE_PIXEL_PITCH_M * binning,
            width=REFERENCE_SENSOR_W // binning,
            height=REFERENCE_SENSOR_H // binning,
        )

    def k_matrix(self) -> np.ndarray:
        return np.array(
            [[self.ku, self.s_uv, self.cu], [0.0, self.kv, self.cv], [0.0, 0.0, 1.0]]
        )

    def kf_matrix(self) -> np.ndarray:
        """K folded with the focal matrix: maps camera coordinates to homogeneous pixels."""
        return self.k_matrix() @ np.diag([self.f, self.f, 1.0])

    @property
    def focal_px(self) -> float:
        return self.f * self.ku


INTRINSICS_KEYS = ("focal_m", "pixel_pitch_m", "cu_px", "cv_px", "skew", "width", "height")


def save_intrinsics(intr: CameraIntrinsics, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"focal_m = {intr.f!r}\n")
        fh.write(f"pixel_pitch_m = {intr.pixel_pitch!r}\n")
        fh.write(f"cu_px = {intr.cu!r}\n")
        fh.write(f"cv_px = {intr.cv!r}\n")
        fh.write(f"skew = {intr.s_uv!r}\n")
        fh.write(f"width = {intr.width}\n")
        fh.write(f"height = {intr.height}\n")


def load_intrinsics(path) -> CameraIntrinsics:
    """Read `key = value` intrinsics; missing keys fall back to the reference camera.

    Keys are the seven that save_intrinsics writes (INTRINSICS_KEYS). Values
    must be finite numbers, and width and height whole numbers. An unknown or
    repeated key or a malformed line raises IntrinsicsFormatError naming the
    file and line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise IntrinsicsFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    values: dict[str, float] = {}
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if not sep:
            raise IntrinsicsFormatError(f"{path}:{lineno}: expected 'key = value'")
        where = f"{path}:{lineno}: {key}"
        if key not in INTRINSICS_KEYS:
            raise IntrinsicsFormatError(
                f"{path}:{lineno}: unknown key {key!r}; expected one of {', '.join(INTRINSICS_KEYS)}"
            )
        try:
            value = float(text)
        except ValueError:
            raise IntrinsicsFormatError(f"{where} is not a number: {text!r}") from None
        if not math.isfinite(value):
            raise IntrinsicsFormatError(f"{where} must be finite, got {text!r}")
        if key in ("width", "height") and not value.is_integer():
            raise IntrinsicsFormatError(f"{where} must be a whole number, got {text!r}")
        if key in first_line:
            raise IntrinsicsFormatError(
                f"{where} is repeated (first seen line {first_line[key]})"
            )
        first_line[key] = lineno
        values[key] = value
    try:
        return CameraIntrinsics.from_physical(
            focal_m=values.get("focal_m", REFERENCE_FOCAL_M),
            pixel_pitch_m=values.get("pixel_pitch_m", REFERENCE_PIXEL_PITCH_M),
            width=int(values.get("width", REFERENCE_SENSOR_W)),
            height=int(values.get("height", REFERENCE_SENSOR_H)),
            cu=values.get("cu_px"),
            cv=values.get("cv_px"),
            skew=values.get("skew", 0.0),
        )
    except ValueError as exc:
        raise IntrinsicsFormatError(f"{path}: {exc}") from None


@dataclass(frozen=True)
class Pose:
    """Rigid world-to-camera transform."""

    rotation: np.ndarray  # (3, 3)
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        r = np.asarray(self.rotation, dtype=np.float64)
        t = np.asarray(self.translation, dtype=np.float64).reshape(3)
        if r.shape != (3, 3):
            raise ValueError("rotation must be 3x3")
        if np.abs(r.T @ r - np.eye(3)).max() > 1e-9 or abs(np.linalg.det(r) - 1.0) > 1e-9:
            raise ValueError("rotation is not orthonormal with determinant +1")
        r.setflags(write=False)
        t.setflags(write=False)
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    def matrix(self) -> np.ndarray:
        m = np.eye(4)
        m[:3, :3] = self.rotation
        m[:3, 3] = self.translation
        return m

    @classmethod
    def from_camera(cls, position, r_cam_in_world) -> "Pose":
        """Pose of a camera at `position` whose axes (columns) are given in world frame."""
        r_cw = np.asarray(r_cam_in_world, dtype=np.float64)
        r = r_cw.T
        return cls(r, -r @ np.asarray(position, dtype=np.float64))


def rotation_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])


def rotation_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])


def rotation_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])


def rotation_zyx(roll: float, pitch: float, yaw: float) -> np.ndarray:
    """ZYX intrinsic: yaw about z, then pitch about new y, then roll about new x."""
    return rotation_z(yaw) @ rotation_y(pitch) @ rotation_x(roll)


# Camera base orientation looking straight down at the ground plane:
# camera x = world +X, camera y = world -Y, camera z (optical axis) = world -Z.
DOWNWARD_BASE = np.diag([1.0, -1.0, -1.0])


def downward_camera_pose(
    position, tilt: float = 0.0, azimuth: float = 0.0, spin: float = 0.0
) -> Pose:
    """World-to-camera pose for a camera above the floor, looking down.

    azimuth turns the rig about the world vertical, tilt rocks it about the
    camera x axis, spin rolls it about the optical axis.
    """
    r_cw = rotation_z(azimuth) @ DOWNWARD_BASE @ rotation_x(tilt) @ rotation_z(spin)
    return Pose.from_camera(position, r_cw)


def look_at_pose(position, target, spin: float = 0.0) -> Pose:
    """Pose of a camera at `position` with the optical axis through `target`."""
    pos = np.asarray(position, dtype=np.float64)
    z = np.asarray(target, dtype=np.float64) - pos
    nz = np.linalg.norm(z)
    if nz < 1e-12:
        raise ValueError("target coincides with camera position")
    z = z / nz
    helper = np.array([0.0, 1.0, 0.0]) if abs(z[2]) > 0.9 else np.array([0.0, 0.0, 1.0])
    x = np.cross(helper, z)
    x = x / np.linalg.norm(x)
    y = np.cross(z, x)
    r_cw = np.column_stack([x, y, z]) @ rotation_z(spin)
    return Pose.from_camera(pos, r_cw)


def projection_matrix(intr: CameraIntrinsics, pose: Pose) -> np.ndarray:
    """The full 3x4 matrix K F T of the pinhole model."""
    return intr.kf_matrix() @ pose.matrix()[:3, :]


def project_homogeneous(intr: CameraIntrinsics, pose: Pose, point) -> np.ndarray:
    p = np.asarray(point, dtype=np.float64).reshape(3)
    return projection_matrix(intr, pose) @ np.append(p, 1.0)


def project_many(intr: CameraIntrinsics, pose: Pose, points: np.ndarray) -> np.ndarray:
    """Pixels (u, v) of world points, (n, 2); raises if any is at or behind the camera plane."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    h = np.column_stack([pts, np.ones(len(pts))]) @ projection_matrix(intr, pose).T
    if np.any(h[:, 2] <= 1e-12):
        raise BehindCameraError("point has non-positive depth")
    return h[:, :2] / h[:, 2:3]


def camera_world_position(pose: Pose) -> np.ndarray:
    """Camera centre in world coordinates: -R^T t."""
    return -pose.rotation.T @ pose.translation


def _normalise_points(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    centroid = pts.mean(axis=0)
    d = np.sqrt(((pts - centroid) ** 2).sum(axis=1)).mean()
    scale = np.sqrt(2.0) / d if d > 1e-12 else 1.0
    t = np.array(
        [[scale, 0, -scale * centroid[0]], [0, scale, -scale * centroid[1]], [0, 0, 1]]
    )
    ones = np.ones((len(pts), 1))
    normed = (np.hstack([pts, ones]) @ t.T)[:, :2]
    return normed, t


def homography_dlt(world_xy, pixels) -> np.ndarray:
    """Direct linear transform homography from >= 4 plane-to-image correspondences."""
    w = np.asarray(world_xy, dtype=np.float64).reshape(-1, 2)
    p = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    if len(w) != len(p) or len(w) < 4:
        raise ValueError("need at least 4 correspondences")
    wn, tw = _normalise_points(w)
    pn, tp = _normalise_points(p)
    a = np.zeros((2 * len(w), 9))
    a[0::2, 0:2] = wn
    a[0::2, 2] = 1.0
    a[0::2, 6:8] = -pn[:, 0:1] * wn
    a[0::2, 8] = -pn[:, 0]
    a[1::2, 3:5] = wn
    a[1::2, 5] = 1.0
    a[1::2, 6:8] = -pn[:, 1:2] * wn
    a[1::2, 8] = -pn[:, 1]
    _, sv, vt = np.linalg.svd(a)
    # Rank must be 8: with 3 collinear world points the nullspace widens.
    if sv[0] <= 0 or sv[7] < 1e-10 * sv[0]:
        raise ValueError("degenerate configuration")
    hn = vt[-1].reshape(3, 3)
    h = np.linalg.inv(tp) @ hn @ tw
    if abs(h[2, 2]) > 1e-12:
        h = h / h[2, 2]
    return h


def pose_from_homography(intr: CameraIntrinsics, h: np.ndarray) -> Pose:
    """Decompose a ground-plane homography into a world-to-camera pose.

    Scale is fixed by the first rotation column; the sign is chosen so the
    ground point imaged at the principal point lies in front of the camera.
    """
    h = np.asarray(h, dtype=np.float64)
    if abs(np.linalg.det(h)) < 1e-15:
        raise ValueError("homography is not invertible")
    g = np.linalg.solve(intr.kf_matrix(), h)
    lam = 1.0 / np.linalg.norm(g[:, 0])

    centre = np.linalg.solve(h, np.array([intr.cu, intr.cv, 1.0]))
    if abs(centre[2]) < 1e-15:
        raise ValueError("homography is not invertible")
    anchor = np.array([centre[0] / centre[2], centre[1] / centre[2], 0.0])

    best = None
    for sign in (1.0, -1.0):
        s = sign * lam
        r1, r2, t = s * g[:, 0], s * g[:, 1], s * g[:, 2]
        r_approx = np.column_stack([r1, r2, np.cross(r1, r2)])
        u, _, vt = np.linalg.svd(r_approx)
        r = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
        depth = (r @ anchor + t)[2]
        if depth > 0:
            best = Pose(r, t)
            break
    if best is None:
        raise ValueError("no pose places the viewed ground in front of the camera")
    return best


def _skew(v: np.ndarray) -> np.ndarray:
    return np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])


def rotation_exp(w: np.ndarray) -> np.ndarray:
    """Rodrigues exponential of an axis-angle vector."""
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return np.eye(3) + _skew(w)
    k = _skew(w / theta)
    return np.eye(3) + np.sin(theta) * k + (1 - np.cos(theta)) * (k @ k)


def apply_pose_update(pose: Pose, delta: np.ndarray) -> Pose:
    """Left-multiplicative update: rotation exp(w) R, translation t + dt."""
    w, dt = delta[:3], delta[3:]
    r = rotation_exp(w) @ pose.rotation
    # Re-orthonormalise to keep the Pose invariant over long iteration chains.
    u, _, vt = np.linalg.svd(r)
    r = u @ np.diag([1.0, 1.0, np.linalg.det(u @ vt)]) @ vt
    return Pose(r, pose.translation + dt)


def reprojection_residuals(
    intr: CameraIntrinsics, pose: Pose, world_points, pixels
) -> np.ndarray:
    pts = np.asarray(world_points, dtype=np.float64).reshape(-1, 3)
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    return (project_many(intr, pose, pts) - pix).ravel()


def reprojection_jacobian(intr: CameraIntrinsics, pose: Pose, world_points) -> np.ndarray:
    """Analytic Jacobian of stacked residuals w.r.t. (w, dt) at the current pose."""
    pts = np.asarray(world_points, dtype=np.float64).reshape(-1, 3)
    kf = intr.kf_matrix()
    jac = np.zeros((2 * len(pts), 6))
    for i, x in enumerate(pts):
        q = pose.rotation @ x
        p = q + pose.translation
        h = kf @ p
        u, v = h[0] / h[2], h[1] / h[2]
        du_dp = (kf[0] - u * kf[2]) / h[2]
        dv_dp = (kf[1] - v * kf[2]) / h[2]
        dp_dw = -_skew(q)
        jac[2 * i, :3] = du_dp @ dp_dw
        jac[2 * i, 3:] = du_dp
        jac[2 * i + 1, :3] = dv_dp @ dp_dw
        jac[2 * i + 1, 3:] = dv_dp
    return jac


@dataclass(frozen=True)
class RefineResult:
    pose: Pose
    rms: float
    iterations: int
    converged: bool


REFINE_MAX_ITERATIONS = 50
REFINE_STEP_TOL = 1e-10  # a Gauss-Newton step shorter than this has converged


def refine_pose(intr: CameraIntrinsics, pose0: Pose, world_points, pixels) -> RefineResult:
    """Damped Gauss-Newton on reprojection residuals; RMS never increases."""
    pts = np.asarray(world_points, dtype=np.float64).reshape(-1, 3)
    pix = np.asarray(pixels, dtype=np.float64).reshape(-1, 2)
    pose = pose0
    r = reprojection_residuals(intr, pose, pts, pix)
    cost = float(r @ r)
    n = 2 * len(pts)
    lam = 1e-6
    iterations = 0
    for iterations in range(1, REFINE_MAX_ITERATIONS + 1):
        jac = reprojection_jacobian(intr, pose, pts)
        a = jac.T @ jac
        g = jac.T @ r
        if np.linalg.norm(g) < 1e-14:
            return RefineResult(pose, np.sqrt(cost / n), iterations, True)
        stepped = False
        for _ in range(30):
            try:
                delta = np.linalg.solve(a + lam * np.eye(6), -g)
            except np.linalg.LinAlgError:
                lam *= 10
                continue
            # At the rounding floor a step this short can raise the cost; it
            # is converged either way, and damping it further gains nothing.
            if np.linalg.norm(delta) < REFINE_STEP_TOL:
                return RefineResult(pose, np.sqrt(cost / n), iterations, True)
            candidate = apply_pose_update(pose, delta)
            r_new = reprojection_residuals(intr, candidate, pts, pix)
            cost_new = float(r_new @ r_new)
            if cost_new <= cost:
                pose, r, cost = candidate, r_new, cost_new
                lam = max(lam * 0.3, 1e-12)
                stepped = True
                break
            lam *= 10
        if not stepped:
            # Never improved from pose0: report divergence with the input pose.
            return RefineResult(pose, np.sqrt(cost / n), iterations, pose is not pose0)
    return RefineResult(pose, np.sqrt(cost / n), iterations, True)
