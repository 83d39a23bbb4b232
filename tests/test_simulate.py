import numpy as np
import pytest

from floortag import artwork, identify, simulate
from floortag.geometry import CameraIntrinsics, downward_camera_pose, project_many
from floortag.simulate import (
    GroundTruth,
    RenderConfig,
    RenderGeometryError,
    TruthFormatError,
    exposure_for_blur_px,
    load_truth,
    render,
    save_truth,
)
from floortag.identify import ViewContext, render_candidate_view
from floortag.imaging import bilinear_sample
from floortag.warehouse import StickerSpec, WarehouseMap, generate_grid_map

import supersampled
from maps import single_sticker_map

INTR = CameraIntrinsics.reference_camera(binning=4)  # 648x486, quick for tests


def test_render_empty_map_is_background_noise():
    empty = WarehouseMap([])
    img, truth = render(empty, INTR, downward_camera_pose((0, 0, 1.0)),
                        RenderConfig(seed=1, noise_sigma=1.5))
    assert truth.visible == []
    px = img.to_float()
    assert abs(px.mean() - 120.0) < 1.0
    assert 0.5 < px.std() < 3.0


def test_render_sticker_centred():
    m = single_sticker_map()
    pose = downward_camera_pose((0.0, 0.0, 1.0))
    img, truth = render(m, INTR, pose, RenderConfig(seed=2))
    assert truth.visible_ids == [1]
    # Centre of the artwork is quiet paper; just outside the sticker is floor.
    cx, cy = INTR.width // 2, INTR.height // 2
    assert img.pixels[cy, cx] > 200
    span = 0.05 * INTR.focal_px  # half sticker in pixels at 1 m
    assert abs(float(img.pixels[cy, int(cx + span + 8)]) - 120.0) < 10


def test_truth_corners_match_projection_exactly():
    m = single_sticker_map(StickerSpec(4, 0.2, -0.1, 0.7))
    pose = downward_camera_pose((0.25, -0.2, 1.2), tilt=0.2, spin=1.0)
    _, truth = render(m, INTR, pose, RenderConfig(seed=3))
    expected = project_many(INTR, pose, m.get(4).corners_world())
    assert np.abs(truth.corners_of(4) - expected).max() < 1e-9


def test_render_rejects_camera_below_ground():
    m = single_sticker_map()
    with pytest.raises(RenderGeometryError):
        render(m, INTR, downward_camera_pose((0, 0, -1.0)), RenderConfig(seed=1))


def test_render_rejects_skyward_camera():
    m = single_sticker_map()
    pose = downward_camera_pose((0, 0, 1.0), tilt=np.pi)  # flipped upward
    with pytest.raises(RenderGeometryError):
        render(m, INTR, pose, RenderConfig(seed=1))


def test_render_deterministic_given_seed():
    m = single_sticker_map()
    pose = downward_camera_pose((0.02, 0.01, 1.0))
    a, _ = render(m, INTR, pose, RenderConfig(seed=9))
    b, _ = render(m, INTR, pose, RenderConfig(seed=9))
    assert np.array_equal(a.pixels, b.pixels)


def test_illumination_scales_mean_linearly():
    m = single_sticker_map()
    pose = downward_camera_pose((0, 0, 1.0))
    base, _ = render(m, INTR, pose, RenderConfig(seed=4, noise_sigma=0.0, illumination=0.5))
    full, _ = render(m, INTR, pose, RenderConfig(seed=4, noise_sigma=0.0, illumination=1.0))
    ratio = base.to_float().mean() / full.to_float().mean()
    assert abs(ratio - 0.5) < 0.01


def test_visibility_excludes_distant_stickers():
    m = generate_grid_map(3, 3, 1.5)  # ids 1..9, spread over 3 m
    pose = downward_camera_pose((0.0, 0.0, 1.0))
    _, truth = render(m, INTR, pose, RenderConfig(seed=5))
    assert truth.visible_ids == [1]


def test_zero_velocity_blur_equals_sharp():
    m = single_sticker_map()
    pose = downward_camera_pose((0.01, 0.0, 1.0))
    sharp, _ = render(m, INTR, pose, RenderConfig(seed=6, noise_sigma=0.0))
    blurred, _ = render(
        m, INTR, pose,
        RenderConfig(seed=6, noise_sigma=0.0, exposure_reciprocal=500.0, velocity=0.0),
    )
    assert np.array_equal(sharp.pixels, blurred.pixels)


def test_motion_blur_smears_edges():
    m = single_sticker_map()
    pose = downward_camera_pose((0.0, 0.0, 1.0))
    n = exposure_for_blur_px(INTR, 1.0, 1.0, 12.0)
    sharp = render(m, INTR, pose, RenderConfig(noise_sigma=0.0))[0]
    blurred = render(
        m, INTR, pose,
        RenderConfig(noise_sigma=0.0, exposure_reciprocal=n, velocity=1.0, heading=0.0),
    )[0]
    def grad_energy(img):
        px = img.to_float()
        return float(np.abs(np.diff(px, axis=1)).mean())
    assert grad_energy(blurred) < 0.6 * grad_energy(sharp)


@pytest.mark.parametrize("n", [0.0, -500.0])
def test_moving_camera_needs_a_positive_exposure_reciprocal(monkeypatch, n):
    def shade(*args):
        raise AssertionError("a frame was shaded")

    monkeypatch.setattr(simulate, "_shade", shade)
    with pytest.raises(ValueError, match="exposure_reciprocal must be positive"):
        render(
            single_sticker_map(), INTR, downward_camera_pose((0.0, 0.0, 1.0)),
            RenderConfig(exposure_reciprocal=n, velocity=1.0),
        )


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize(
    "name", ["exposure_reciprocal", "velocity", "heading", "noise_sigma", "illumination"]
)
def test_render_config_rejects_a_field_that_is_not_finite(name, value):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        RenderConfig(**{name: value})


def test_truth_sidecar_round_trip(tmp_path):
    m = single_sticker_map(StickerSpec(3, 0.1, 0.2, 0.3))
    pose = downward_camera_pose((0.1, 0.1, 1.0))
    _, truth = render(m, INTR, pose, RenderConfig(seed=7))
    path = tmp_path / "frame_0001.truth"
    save_truth(truth, pose, path)
    camera, loaded = load_truth(path)
    assert np.allclose(camera, [0.1, 0.1, 1.0])
    assert loaded.visible_ids == truth.visible_ids
    assert np.allclose(loaded.corners_of(3), truth.corners_of(3))


CAMERA = "camera 0.1 0.1 1.0"
CORNERS = "1 2 3 4 5 6 7 8"


@pytest.mark.parametrize("lines,message", [
    (["camera 0.5"], ":2: expected 3 numbers, got 1"),
    (["camera 0.1 0.1 1.0 2.0"], ":2: expected 3 numbers, got 4"),
    (["camera 0.1 x 1.0"], ":2: could not convert string to float: 'x'"),
    (["camera 0.1 0.1 inf"], ":2: values must be finite"),
    ([CAMERA, CAMERA], ":3: second camera line"),
    ([CAMERA, "sticker"], ":3: sticker line without an id"),
    ([CAMERA, f"sticker 3.5 {CORNERS}"], ":3: sticker id '3.5' is not an integer"),
    ([CAMERA, "sticker 3 1 2 3 4 5 6 7"], ":3: expected 8 numbers, got 7"),
    ([CAMERA, "sticker 3 1 2 3 4 5 6 7 nan"], ":3: values must be finite"),
    ([CAMERA, f"marker 3 {CORNERS}"], ":3: unknown record 'marker'"),
    ([f"sticker 3 {CORNERS}"], ": missing camera line"),
])
def test_truth_sidecar_rejects_a_malformed_file(tmp_path, lines, message):
    path = tmp_path / "frame.truth"
    path.write_text("\n".join(["# floortag truth v1", *lines]) + "\n")
    with pytest.raises(TruthFormatError) as exc:
        load_truth(path)
    assert str(exc.value) == f"{path}{message}"


def test_ground_truth_lookup_missing():
    with pytest.raises(KeyError):
        GroundTruth([]).corners_of(5)


def test_every_texture_of_a_10x10_map_equals_the_supersampled_raster():
    wmap = generate_grid_map(10, 10, 1.0)
    for sticker_id in wmap.ids:
        payloads = wmap.get(sticker_id).payloads
        cells = artwork.sticker_cells_from_payloads(list(payloads))
        want = supersampled.render_cells(cells, simulate.STICKER_TEXTURE_PX, supersample=2)
        assert np.array_equal(simulate.sticker_texture(payloads), want.pixels)


def _float_texture(payloads):
    """The float64 sticker texture the renderer once cached: the reference."""
    cells = artwork.sticker_cells_from_payloads(list(payloads))
    return artwork.render_cells(cells, simulate.STICKER_TEXTURE_PX, supersample=2).to_float()


def test_renders_from_the_uint8_texture_equal_the_float64_reference(monkeypatch):
    wmap = generate_grid_map(2, 2, 0.3)
    tex = simulate.sticker_texture(wmap.get(1).payloads)
    assert tex.dtype == np.uint8 and tex.nbytes == simulate.STICKER_TEXTURE_PX**2
    xs, ys = np.random.default_rng(6).uniform(0, simulate.STICKER_TEXTURE_PX - 1, size=(2, 5000))
    assert np.array_equal(bilinear_sample(tex, xs, ys), bilinear_sample(tex.astype(np.float64), xs, ys))
    pose = downward_camera_pose((0.1, 0.2, 0.8), spin=0.7)
    sharp = RenderConfig(seed=4)
    smeared = RenderConfig(
        seed=5, exposure_reciprocal=exposure_for_blur_px(INTR, 0.8, 1.0, 6.0), velocity=1.0, heading=0.3
    )
    quad = np.array([[30.0, 22.0], [150.0, 40.0], [140.0, 160.0], [25.0, 140.0]])
    view = ViewContext(quad, (180, 170), 8.0, (0.6, 0.8), 110.0, turns=3)
    got = [render(wmap, INTR, pose, cfg)[0].pixels for cfg in (sharp, smeared)]
    got.append(render_candidate_view(wmap.get(2).payloads, view).pixels)
    monkeypatch.setattr(simulate, "sticker_texture", _float_texture)
    monkeypatch.setattr(identify, "sticker_texture", _float_texture)
    want = [render(wmap, INTR, pose, cfg)[0].pixels for cfg in (sharp, smeared)]
    want.append(render_candidate_view(wmap.get(2).payloads, view).pixels)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    assert (got[0] < 100).any()  # a sticker is in view
