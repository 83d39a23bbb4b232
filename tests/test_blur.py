import math

import pytest

from floortag.blur import BlurParams, is_sharp, min_shutter_reciprocal


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
    assert f / dist * v / n_min == pytest.approx(pitch, rel=1e-12)


def test_is_sharp_verdict():
    sharp = BlurParams(3.6e-3, 1.0, 1.0, 3000.0, 1.4e-6)
    blurred = BlurParams(3.6e-3, 1.0, 1.0, 2000.0, 1.4e-6)
    assert is_sharp(sharp)
    assert not is_sharp(blurred)


def test_is_sharp_at_the_minimum_shutter_and_blurred_just_below():
    n = min_shutter_reciprocal(3.6e-3, 0.7, 1.3, 2.8e-6)
    assert is_sharp(BlurParams(3.6e-3, 0.7, 1.3, n, 2.8e-6))
    assert not is_sharp(BlurParams(3.6e-3, 0.7, 1.3, math.nextafter(n, 0), 2.8e-6))


def test_is_sharp_when_magnification_times_velocity_overflows():
    # f / distance * velocity is 1e310, but N_min = 1e290 is finite: a 1e10 m
    # smear against a 1e20 m pixel.
    assert is_sharp(BlurParams(1e150, 1e-10, 1e150, 1e300, 1e20))


def test_is_sharp_raises_where_the_minimum_shutter_does():
    with pytest.raises(ValueError, match="outside the float range"):
        is_sharp(BlurParams(1e300, 1.0, 1e300, 1.0, 1.4e-6))


def test_blur_params_reject_nonpositive():
    with pytest.raises(ValueError):
        BlurParams(0.0, 1.0, 1.0, 1.0, 1.4e-6)


@pytest.mark.parametrize("f, distance, velocity, pitch", [
    (3.6e-3, 1e-300, 1.0, 1e-30),  # distance * pitch underflows to 0
    (1e300, 1.0, 1e300, 1.4e-6),  # f * velocity overflows
    (1e-160, 1.0, 1e-150, 1.0),  # N is subnormal, so 1 / N overflows
], ids=["zero-denominator", "infinite", "infinite-exposure"])
def test_min_shutter_rejects_a_result_outside_the_float_range(f, distance, velocity, pitch):
    with pytest.raises(ValueError, match="outside the float range"):
        min_shutter_reciprocal(f, distance, velocity, pitch)
