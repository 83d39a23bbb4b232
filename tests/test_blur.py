import pytest

from floortag.blur import (
    BlurParams,
    is_sharp,
    magnification,
    min_shutter_reciprocal,
    projected_displacement,
)


def test_magnification_unity():
    assert magnification(0.0036, 0.0036) == 1.0


def test_magnification_reference_values():
    assert magnification(3.6e-3, 1.0) == pytest.approx(0.0036)
    assert magnification(3.6e-3, 2.0) == pytest.approx(0.0018)


def test_magnification_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        magnification(0.0036, 0.0)


def test_displacement_zero_velocity():
    for n in (1.0, 100.0, 2571.0):
        assert projected_displacement(0.0036, 0.0, n) == 0.0


def test_displacement_one_pixel_at_bound():
    d = projected_displacement(0.0036, 1.0, 2571.4285714285716)
    assert d == pytest.approx(1.4e-6, rel=1e-12)


def test_displacement_halves_when_shutter_doubles():
    d1 = projected_displacement(0.0036, 1.0, 1000.0)
    d2 = projected_displacement(0.0036, 1.0, 2000.0)
    assert d1 == pytest.approx(2 * d2)


def test_min_shutter_reference_camera():
    n_min = min_shutter_reciprocal(3.6e-3, 1.0, 1.0, 1.4e-6)
    assert abs(n_min - 2571.43) < 0.5


def test_min_shutter_linear_in_velocity():
    n1 = min_shutter_reciprocal(3.6e-3, 1.0, 1.0, 1.4e-6)
    n2 = min_shutter_reciprocal(3.6e-3, 1.0, 2.0, 1.4e-6)
    assert n2 == pytest.approx(2 * n1)
    assert n2 == pytest.approx(5142.9, abs=0.1)


def test_min_shutter_halves_when_pitch_doubles():
    n1 = min_shutter_reciprocal(3.6e-3, 1.0, 1.0, 1.4e-6)
    n2 = min_shutter_reciprocal(3.6e-3, 1.0, 1.0, 2.8e-6)
    assert n1 == pytest.approx(2 * n2)


def test_min_shutter_monotonic():
    base = min_shutter_reciprocal(3.6e-3, 1.0, 1.0, 1.4e-6)
    assert min_shutter_reciprocal(7.2e-3, 1.0, 1.0, 1.4e-6) > base
    assert min_shutter_reciprocal(3.6e-3, 2.0, 1.0, 1.4e-6) < base


def test_displacement_at_min_shutter_is_exactly_one_pixel():
    f, dist, v, pitch = 3.6e-3, 1.3, 0.7, 1.4e-6
    n_min = min_shutter_reciprocal(f, dist, v, pitch)
    assert projected_displacement(magnification(f, dist), v, n_min) == pytest.approx(
        pitch, rel=1e-12
    )


def test_is_sharp_verdict():
    sharp = BlurParams(3.6e-3, 1.0, 1.0, 3000.0, 1.4e-6)
    blurred = BlurParams(3.6e-3, 1.0, 1.0, 2000.0, 1.4e-6)
    assert is_sharp(sharp)
    assert not is_sharp(blurred)


def test_blur_params_reject_nonpositive():
    with pytest.raises(ValueError):
        BlurParams(0.0, 1.0, 1.0, 1.0, 1.4e-6)
    with pytest.raises(ValueError):
        projected_displacement(0.0036, 1.0, 0.0)


@pytest.mark.parametrize("f, distance, velocity, pitch", [
    (3.6e-3, 1e-300, 1.0, 1e-30),  # distance * pitch underflows to 0
    (1e300, 1.0, 1e300, 1.4e-6),  # f * velocity overflows
    (1e-160, 1.0, 1e-150, 1.0),  # N is subnormal, so 1 / N overflows
], ids=["zero-denominator", "infinite", "infinite-exposure"])
def test_min_shutter_rejects_a_result_outside_the_float_range(f, distance, velocity, pitch):
    with pytest.raises(ValueError, match="outside the float range"):
        min_shutter_reciprocal(f, distance, velocity, pitch)
