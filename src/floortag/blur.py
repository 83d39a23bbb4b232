"""Motion-blur feasibility: projected displacement per exposure and the shutter bound."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class BlurParams:
    f: float  # focal length, m
    distance: float  # camera-object distance, m
    velocity: float  # camera speed, m/s
    shutter_reciprocal: float  # N, 1/s (exposure time is 1/N)
    pixel_pitch: float  # m

    def __post_init__(self):
        for name in ("f", "distance", "velocity", "shutter_reciprocal", "pixel_pitch"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value}")


def magnification(f: float, distance: float) -> float:
    """Optical magnification f/D."""
    if distance <= 0:
        raise ValueError("distance must be positive")
    return f / distance


def projected_displacement(magnification_ratio: float, velocity: float, shutter_reciprocal: float) -> float:
    """Distance the projection travels on the sensor during one exposure, metres."""
    if shutter_reciprocal <= 0:
        raise ValueError("shutter reciprocal must be positive")
    return magnification_ratio * velocity / shutter_reciprocal


def min_shutter_reciprocal(
    f: float, distance: float, velocity: float, pixel_pitch: float
) -> float:
    """Smallest N keeping the projected motion within one pixel during 1/N seconds."""
    if not all(math.isfinite(v) and v > 0 for v in (f, distance, velocity, pixel_pitch)):
        raise ValueError("all parameters must be finite and positive")
    denominator = distance * pixel_pitch
    n_min = f * velocity / denominator if denominator > 0 else 0.0
    if not (0.0 < n_min < math.inf and 1.0 / n_min < math.inf):
        raise ValueError("the minimum shutter reciprocal is outside the float range")
    return n_min


def is_sharp(params: BlurParams) -> bool:
    """True when the exposure is short enough for sub-pixel projected motion."""
    d = projected_displacement(
        magnification(params.f, params.distance), params.velocity, params.shutter_reciprocal
    )
    return d <= params.pixel_pitch
