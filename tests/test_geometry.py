import numpy as np
import pytest

from floortag import geometry
from floortag.bench import sample_camera_pose
from floortag.geometry import (
    BehindCameraError,
    CameraIntrinsics,
    IntrinsicsFormatError,
    Pose,
    apply_pose_update,
    camera_world_position,
    downward_camera_pose,
    homography_dlt,
    load_intrinsics,
    look_at_pose,
    pose_from_homography,
    project_homogeneous,
    project_many,
    projection_matrix,
    refine_pose,
    reprojection_jacobian,
    reprojection_residuals,
    rotation_zyx,
    save_intrinsics,
)

STICKER_CORNERS = np.array(
    [[-0.05, 0.05, 0.0], [0.05, 0.05, 0.0], [0.05, -0.05, 0.0], [-0.05, -0.05, 0.0]]
)


def random_pose(rng, dist_range=(0.3, 2.0), max_tilt=np.deg2rad(60)):
    """Camera on a hemisphere over the origin, optical axis through the origin."""
    tilt = rng.uniform(0, max_tilt)
    azim = rng.uniform(0, 2 * np.pi)
    dist = rng.uniform(*dist_range)
    pos = dist * np.array([np.sin(tilt) * np.cos(azim), np.sin(tilt) * np.sin(azim), np.cos(tilt)])
    return look_at_pose(pos, (0.0, 0.0, 0.0), spin=rng.uniform(0, 2 * np.pi))


def rotation_angle_deg(r1, r2):
    dr = r1 @ r2.T
    return np.degrees(np.arccos(np.clip((np.trace(dr) - 1) / 2, -1, 1)))


def test_intrinsics_validation():
    with pytest.raises(ValueError):
        CameraIntrinsics(ku=-1, kv=1, s_uv=0, cu=0, cv=0, f=1, width=10, height=10, pixel_pitch=1)
    with pytest.raises(ValueError):
        CameraIntrinsics(ku=1, kv=1, s_uv=0, cu=99, cv=0, f=1, width=10, height=10, pixel_pitch=1)


def test_reference_camera_defaults():
    intr = CameraIntrinsics.reference_camera()
    assert intr.f == pytest.approx(3.6e-3)
    assert intr.pixel_pitch == pytest.approx(1.4e-6)
    assert intr.width == 2592 and intr.height == 1944
    assert intr.focal_px == pytest.approx(3.6e-3 / 1.4e-6)


def test_intrinsics_file_round_trip(tmp_path):
    intr = CameraIntrinsics.reference_camera(binning=2)
    path = tmp_path / "cam.txt"
    save_intrinsics(intr, path)
    back = load_intrinsics(path)
    assert back == intr


@pytest.mark.parametrize("line,message", [
    ("focal_m = 3.6 mm", ":3: focal_m is not a number: '3.6 mm'"),
    ("skew = nan", ":3: skew must be finite, got 'nan'"),
    ("cu_px = -inf", ":3: cu_px must be finite, got '-inf'"),
    ("width = 1296.5", ":3: width must be a whole number, got '1296.5'"),
    ("height = 970.25", ":3: height must be a whole number, got '970.25'"),
    ("focal_m", ":3: expected 'key = value'"),
])
def test_intrinsics_file_rejects_a_malformed_line(tmp_path, line, message):
    path = tmp_path / "cam.txt"
    path.write_text(f"# camera\nwidth = 1296\n{line}\n")
    with pytest.raises(IntrinsicsFormatError) as exc:
        load_intrinsics(path)
    assert str(exc.value) == f"{path}{message}"


@pytest.mark.parametrize("line,key", [
    ("focal = 0.004", "focal"),
    ("Width = 1296", "Width"),
    ("pixel_pitch = 2.8e-6", "pixel_pitch"),
    ("= 5", ""),
])
def test_intrinsics_file_rejects_an_unknown_key(tmp_path, line, key):
    # A misspelt key must not fall back to the reference camera's value.
    path = tmp_path / "cam.txt"
    path.write_text(f"width = 1296\nheight = 972\n{line}\n")
    with pytest.raises(IntrinsicsFormatError) as exc:
        load_intrinsics(path)
    assert str(exc.value).startswith(f"{path}:3: unknown key {key!r}; expected one of focal_m,")


def test_intrinsics_file_rejects_a_repeated_key(tmp_path):
    # The second focal length must not silently replace the first.
    path = tmp_path / "cam.txt"
    path.write_text("focal_m = 0.0036\nwidth = 1296\n# again\nfocal_m = 0.0072\n")
    with pytest.raises(IntrinsicsFormatError) as exc:
        load_intrinsics(path)
    assert str(exc.value) == f"{path}:4: focal_m is repeated (first seen line 1)"


def test_intrinsics_file_rejects_an_impossible_camera(tmp_path):
    path = tmp_path / "cam.txt"
    path.write_text("pixel_pitch_m = 0\n")
    with pytest.raises(IntrinsicsFormatError, match="pixel pitch must be positive"):
        load_intrinsics(path)
    path.write_text("width = 0\n")
    with pytest.raises(IntrinsicsFormatError, match="principal point outside sensor"):
        load_intrinsics(path)


def test_pose_rejects_non_orthonormal():
    with pytest.raises(ValueError):
        Pose(np.eye(3) * 1.001, np.zeros(3))
    with pytest.raises(ValueError):
        Pose(np.diag([1.0, 1.0, -1.0]), np.zeros(3))


IDENTITY = Pose(np.eye(3), np.zeros(3))


def test_project_principal_point():
    intr = CameraIntrinsics.reference_camera()
    (uv,) = project_many(intr, IDENTITY, (0.0, 0.0, 1.0))
    assert uv == pytest.approx([intr.cu, intr.cv])


def test_project_similar_triangles():
    intr = CameraIntrinsics.reference_camera()
    (uv,) = project_many(intr, IDENTITY, (0.1, 0.0, 1.0))
    assert uv[0] == pytest.approx(intr.cu + 0.1 * intr.f * intr.ku)
    assert uv[1] == pytest.approx(intr.cv)


def test_project_behind_camera_raises():
    intr = CameraIntrinsics.reference_camera()
    with pytest.raises(BehindCameraError):
        project_many(intr, IDENTITY, (0.0, 0.0, -1.0))


def test_project_matches_expanded_matrix_product():
    intr = CameraIntrinsics.from_physical(skew=1500.0)
    rng = np.random.default_rng(42)
    k = np.array([[intr.ku, intr.s_uv, intr.cu], [0, intr.kv, intr.cv], [0, 0, 1]])
    f = np.array([[intr.f, 0, 0, 0], [0, intr.f, 0, 0], [0, 0, 1, 0]])
    for _ in range(200):
        pose = random_pose(rng)
        t = pose.matrix()
        point = rng.uniform(-0.4, 0.4, size=3) * [1, 1, 0]
        expected = k @ f @ t @ np.append(point, 1.0)
        got = project_homogeneous(intr, pose, point)
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)
        assert got[:2] / got[2] == pytest.approx(project_many(intr, pose, point)[0], rel=1e-12)


def test_homography_identity():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    h = homography_dlt(square, square)
    assert np.allclose(h, np.eye(3), atol=1e-10)


def test_homography_scale():
    square = np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float)
    h = homography_dlt(square, 2 * square)
    assert np.allclose(h, np.diag([2.0, 2.0, 1.0]), atol=1e-10)


def test_homography_degenerate_rejected():
    collinear = np.array([[0, 0], [1, 0], [2, 0], [3, 0]], dtype=float)
    pix = np.array([[0, 0], [1, 1], [2, 2], [3, 3]], dtype=float)
    with pytest.raises(ValueError):
        homography_dlt(collinear, pix)


def test_homography_maps_projected_corners():
    intr = CameraIntrinsics.reference_camera()
    rng = np.random.default_rng(7)
    for _ in range(50):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        h = homography_dlt(STICKER_CORNERS[:, :2], pixels)
        mapped = (np.column_stack([STICKER_CORNERS[:, :2], np.ones(4)]) @ h.T)
        mapped = mapped[:, :2] / mapped[:, 2:3]
        assert np.abs(mapped - pixels).max() < 1e-8


def test_pose_from_homography_fronto_parallel():
    intr = CameraIntrinsics.reference_camera()
    pose = downward_camera_pose((0.0, 0.0, 1.0))
    pixels = project_many(intr, pose, STICKER_CORNERS)
    h = homography_dlt(STICKER_CORNERS[:, :2], pixels)
    recovered = pose_from_homography(intr, h)
    assert recovered.translation[2] == pytest.approx(1.0, abs=1e-6)
    assert rotation_angle_deg(recovered.rotation, pose.rotation) < 1e-4


def test_pose_round_trip_identity_rotation():
    intr = CameraIntrinsics.reference_camera()
    pose = Pose(np.eye(3), np.array([0.02, -0.01, 1.2]))
    corners = STICKER_CORNERS.copy()
    pixels = project_many(intr, pose, corners)
    h = homography_dlt(corners[:, :2], pixels)
    recovered = pose_from_homography(intr, h)
    assert np.allclose(recovered.rotation, np.eye(3), atol=1e-6)


def test_pose_round_trip_random_poses():
    intr = CameraIntrinsics.reference_camera()
    rng = np.random.default_rng(11)
    for _ in range(100):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        h = homography_dlt(STICKER_CORNERS[:, :2], pixels)
        p0 = pose_from_homography(intr, h)
        result = refine_pose(intr, p0, STICKER_CORNERS, pixels)
        assert rotation_angle_deg(result.pose.rotation, pose.rotation) < 0.01
        assert np.linalg.norm(result.pose.translation - pose.translation) < 1e-4


def test_refine_exact_corners_is_fixed_point():
    intr = CameraIntrinsics.reference_camera()
    pose = random_pose(np.random.default_rng(5))
    pixels = project_many(intr, pose, STICKER_CORNERS)
    result = refine_pose(intr, pose, STICKER_CORNERS, pixels)
    assert result.converged
    assert result.rms < 1e-9
    assert np.allclose(result.pose.rotation, pose.rotation, atol=1e-12)


def test_refine_reduces_noisy_rms():
    intr = CameraIntrinsics.reference_camera()
    rng = np.random.default_rng(19)
    worse = 0
    for _ in range(50):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        noisy = pixels + rng.normal(0, 0.5, size=pixels.shape)
        h = homography_dlt(STICKER_CORNERS[:, :2], noisy)
        p0 = pose_from_homography(intr, h)
        rms0 = np.sqrt(np.mean(reprojection_residuals(intr, p0, STICKER_CORNERS, noisy) ** 2))
        result = refine_pose(intr, p0, STICKER_CORNERS, noisy)
        if result.rms > rms0 + 1e-12:
            worse += 1
    assert worse == 0


def test_refine_stops_at_a_converged_step_without_applying_it(monkeypatch):
    # Seeded quads with traced-outline noise, on the pipeline's camera.
    intr = CameraIntrinsics.reference_camera(binning=2)
    updates = [0]
    real = geometry.apply_pose_update

    def counted(pose, delta):
        updates[0] += 1
        return real(pose, delta)

    monkeypatch.setattr(geometry, "apply_pose_update", counted)
    total_updates = total_iterations = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        pose = sample_camera_pose(rng, (0.0, 0.0))
        pixels = project_many(intr, pose, STICKER_CORNERS) + rng.normal(0, 0.02, size=(4, 2))
        p0 = pose_from_homography(intr, homography_dlt(STICKER_CORNERS[:, :2], pixels))
        updates[0] = 0
        first = refine_pose(intr, p0, STICKER_CORNERS, pixels)
        assert first.converged
        total_updates += updates[0]
        total_iterations += first.iterations
        # Restarted at its own optimum, the first step is below the tolerance.
        updates[0] = 0
        again = refine_pose(intr, first.pose, STICKER_CORNERS, pixels)
        assert (updates[0], again.iterations, again.converged) == (0, 1, True)
        assert again.pose is first.pose
    # The last iteration applies nothing, so damping retries must be rare for
    # the updates to stay within one per iteration.
    assert total_updates <= total_iterations


def test_refine_rejects_a_step_that_puts_a_point_behind_the_camera():
    # A noisy quad from the pipeline's camera whose damped steps reach a pose
    # with a sticker corner behind the camera plane; refining still lowers
    # the RMS, and the pose keeps every corner in front.
    intr = CameraIntrinsics.reference_camera(binning=2)
    world = np.array([[0.05, 1.95, 0.0], [-0.05, 1.95, 0.0], [-0.05, 2.05, 0.0], [0.05, 2.05, 0.0]])
    pixels = np.array([
        [602.3840537486577, 385.0786907489427], [696.7934063813433, 416.33471399640285],
        [659.0733610604566, 500.1562883483169], [581.1633326113388, 467.6459656730184],
    ])
    p0 = pose_from_homography(intr, homography_dlt(world[:, :2], pixels))
    rms0 = np.sqrt(np.mean(reprojection_residuals(intr, p0, world, pixels) ** 2))
    result = refine_pose(intr, p0, world, pixels)
    assert result.rms < rms0
    assert np.all((world @ result.pose.rotation.T + result.pose.translation)[:, 2] > 0)


def test_jacobian_matches_finite_differences():
    intr = CameraIntrinsics.reference_camera()
    rng = np.random.default_rng(23)
    step = 1e-6
    for _ in range(20):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        jac = reprojection_jacobian(intr, pose, STICKER_CORNERS)
        fd = np.zeros_like(jac)
        for k in range(6):
            d = np.zeros(6)
            d[k] = step
            rp = reprojection_residuals(intr, apply_pose_update(pose, d), STICKER_CORNERS, pixels)
            rm = reprojection_residuals(intr, apply_pose_update(pose, -d), STICKER_CORNERS, pixels)
            fd[:, k] = (rp - rm) / (2 * step)
        assert np.abs(jac - fd).max() < 1e-5


def test_camera_world_position_translation_only():
    pose = Pose(np.eye(3), np.array([0.0, 0.0, -1.0]))
    assert camera_world_position(pose) == pytest.approx([0.0, 0.0, 1.0])


def test_camera_world_position_pure_rotation():
    pose = Pose(rotation_zyx(0.3, -0.2, 1.0), np.zeros(3))
    assert camera_world_position(pose) == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_camera_centre_maps_to_null_ray():
    rng = np.random.default_rng(31)
    intr = CameraIntrinsics.reference_camera()
    for _ in range(20):
        pose = random_pose(rng)
        centre = camera_world_position(pose)
        h = project_homogeneous(intr, pose, centre)
        assert np.abs(h).max() < 1e-9


def test_round_trip_reprojects_pixels():
    intr = CameraIntrinsics.reference_camera()
    rng = np.random.default_rng(37)
    for _ in range(50):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        h = homography_dlt(STICKER_CORNERS[:, :2], pixels)
        p = pose_from_homography(intr, h)
        result = refine_pose(intr, p, STICKER_CORNERS, pixels)
        redone = project_many(intr, result.pose, STICKER_CORNERS)
        assert np.abs(redone - pixels).max() < 1e-6


def test_returned_poses_satisfy_invariants():
    rng = np.random.default_rng(41)
    intr = CameraIntrinsics.reference_camera()
    for _ in range(20):
        pose = random_pose(rng)
        pixels = project_many(intr, pose, STICKER_CORNERS)
        h = homography_dlt(STICKER_CORNERS[:, :2], pixels)
        p = pose_from_homography(intr, h)
        r = p.rotation
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-9
        assert abs(np.linalg.det(r) - 1) < 1e-9


def test_downward_pose_looks_down():
    pose = downward_camera_pose((0.5, 0.2, 1.0))
    intr = CameraIntrinsics.reference_camera()
    (uv,) = project_many(intr, pose, (0.5, 0.2, 0.0))
    assert uv == pytest.approx([intr.cu, intr.cv])


def test_projection_matrix_shape_and_consistency():
    intr = CameraIntrinsics.reference_camera()
    pose = downward_camera_pose((0.0, 0.0, 1.0), tilt=0.2)
    p = projection_matrix(intr, pose)
    assert p.shape == (3, 4)
    point = np.array([0.03, -0.02, 0.0])
    assert np.allclose(p @ np.append(point, 1), project_homogeneous(intr, pose, point))
