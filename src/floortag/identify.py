"""Decode-free sticker identification by view-conditioned feature matching.

Each candidate sticker is drawn into the observed view (the quad where the
sticker sits, its orientation and its motion-smear estimate) and scored by
the number of descriptor matches between that rendering and the scene; the
winner must clear an absolute score floor and a margin over the runner-up.
Rendering into the view keeps heavy blur from washing out the payload texture
that separates candidates. The view is fitted once per outline
(`estimate_view`): its orientation from the outline sampled at fixed artwork
positions (`artwork.best_artwork_rotation`), its smear length by rendering.
Both the fit and the scoring draw and match through one helper,
`_view_matches`; the fit draws the probe candidate at each trial length.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from . import artwork
from .features import FeatureSet, detect_and_describe, match
from .geometry import CameraIntrinsics, homography_dlt
from .imaging import UNIT_SQUARE, GreyImage, bilinear_sample
from .simulate import FLOOR_LUMINANCE, sticker_texture
from .warehouse import WarehouseMap

VIEW_REFERENCE_FEATURES = 500  # features of a candidate drawn into the view, when scored
PROBE_FEATURES = 400  # features of the probe drawn at a trial smear length
DETECTION_FEATURES = 1200
DEFAULT_ACCEPT_MIN = 80
DEFAULT_MARGIN_RATIO = 1.25
DEFAULT_MAX_DISTANCE = 48
REFERENCE_THRESHOLD = 8.0
# Expected camera heights, metres: one detection-reference raster per height.
REFERENCE_HEIGHTS_M = (0.75, 0.95, 1.2, 1.5)
VIEW_BLUR_SAMPLES = 9  # shifted copies averaged to draw a smeared candidate
VIEW_BLUR_LENGTHS_PX = (0.0, 5.0, 10.0, 15.0, 20.0)  # smear lengths estimate_view tries


@dataclass(frozen=True)
class ViewContext:
    """Where a sticker sits in the scene image, its orientation, and its smear."""

    quad: np.ndarray  # (4, 2) corner pixels in scene coordinates
    shape: tuple[int, int]  # scene (height, width)
    blur_length_px: float = 0.0
    blur_direction: tuple[float, float] = (1.0, 0.0)
    background: float = FLOOR_LUMINANCE
    turns: int = 0  # artwork corner a[(j+turns)%4] sits at quad[j]


@dataclass(frozen=True)
class IdentificationResult:
    sticker_id: int | None
    score: int
    runner_up_score: int
    accepted: bool
    turns: int  # the view's quarter turns, at which every candidate was scored
    scores: dict[int, int] = field(default_factory=dict)


def reference_sizes(intr: CameraIntrinsics) -> tuple[int, ...]:
    """Reference raster sizes matching the projected sticker at expected distances."""
    return tuple(
        int(round(artwork.STICKER_SIZE_M * intr.focal_px / h)) for h in REFERENCE_HEIGHTS_M
    )


def _multi_size_features(
    cells: np.ndarray, sizes, features_total: int, threshold: float = REFERENCE_THRESHOLD
) -> FeatureSet:
    per_size = max(1, features_total // len(sizes))
    per_raster = [
        detect_and_describe(
            artwork.render_cells(cells, size), max_features=per_size, threshold=threshold
        )
        for size in sizes
    ]
    merged = FeatureSet(
        np.concatenate([f.positions for f in per_raster]),
        np.concatenate([f.descriptors for f in per_raster]),
    )
    if len(merged) == 0:
        raise ValueError("reference artwork produced no features")
    return merged


class ReferenceBank:
    """The generic detection reference, and the map; candidates are drawn as they are scored."""

    def __init__(self, detection: FeatureSet, warehouse_map: WarehouseMap):
        self.detection = detection
        self.warehouse_map = warehouse_map

    @classmethod
    def build(cls, warehouse_map: WarehouseMap, intr: CameraIntrinsics) -> "ReferenceBank":
        detection_cells = artwork.sticker_cells_from_payloads(
            list(artwork.detection_reference_payloads(0))
        )
        detection = _multi_size_features(
            detection_cells, reference_sizes(intr), DETECTION_FEATURES
        )
        return cls(detection, warehouse_map)


def render_candidate_view(payloads, view: ViewContext) -> GreyImage:
    """Draw a candidate sticker into the view quad with the view's motion smear."""
    tex = sticker_texture(tuple(payloads))
    s = tex.shape[0]
    dst = (s * UNIT_SQUARE)[(np.arange(4) + view.turns) % 4]
    h = homography_dlt(dst, view.quad)
    hinv = np.linalg.inv(h)
    hh, ww = view.shape
    ys, xs = np.mgrid[0:hh, 0:ww]
    acc = np.zeros(hh * ww)
    scale = np.linalg.norm(view.quad[1] - view.quad[0]) / s
    half = view.blur_length_px / 2.0
    dx, dy = view.blur_direction
    offsets = np.linspace(-half, half, VIEW_BLUR_SAMPLES) if half > 0 else [0.0]
    for off in offsets:
        px_x = (xs + dx * off).ravel()
        px_y = (ys + dy * off).ravel()
        mapped = np.column_stack([px_x, px_y, np.ones(px_x.size)]) @ hinv.T
        u = mapped[:, 0] / mapped[:, 2]
        v = mapped[:, 1] / mapped[:, 2]
        sample = bilinear_sample(tex, np.clip(u, 0, s - 1), np.clip(v, 0, s - 1))
        dist = np.minimum.reduce([u, s - u, v, s - v]) * scale
        alpha = np.clip(dist + 0.5, 0.0, 1.0)
        acc += view.background + alpha * (sample - view.background)
    out = ndimage.gaussian_filter((acc / len(offsets)).reshape(hh, ww), 0.6)
    return GreyImage.from_float(out)


def _view_matches(
    payloads, view: ViewContext, scene_feats: FeatureSet, max_features: int, max_distance: int
) -> int | None:
    """Scene matches of the candidate drawn into the view; None if the drawing has no features."""
    synth = render_candidate_view(payloads, view)
    ref = detect_and_describe(synth, max_features=max_features, threshold=REFERENCE_THRESHOLD)
    if len(ref) == 0:
        return None
    return len(match(ref, scene_feats, max_distance))


def estimate_blur_direction(roi: GreyImage) -> tuple[float, float]:
    """Motion axis from the structure tensor: the direction of least gradient energy."""
    px = roi.to_float()
    gx = ndimage.sobel(px, axis=1, mode="nearest")
    gy = ndimage.sobel(px, axis=0, mode="nearest")
    j = np.array(
        [[(gx * gx).sum(), (gx * gy).sum()], [(gx * gy).sum(), (gy * gy).sum()]]
    )
    _, vecs = np.linalg.eigh(j)
    d = vecs[:, 0]
    return float(d[0]), float(d[1])


def contract_quad(quad: np.ndarray, direction, amount: float) -> np.ndarray:
    """Pull the quad in by `amount` on each side along the given axis.

    A one-sided motion smear makes the traced outline longer by the blur
    length along the motion axis; contracting by half the length per side
    restores the extent a centred smear of the same length would produce.
    """
    d = np.asarray(direction, dtype=np.float64)
    d = d / np.linalg.norm(d)
    centre = quad.mean(axis=0)
    proj = (quad - centre) @ d
    return quad - np.sign(proj)[:, None] * d * amount


def estimate_view(
    roi: GreyImage, scene_feats: FeatureSet, quad: np.ndarray, probe_payloads
) -> ViewContext:
    """Fit the motion-smear length to the scene, and the artwork's quarter turns.

    The turns come from correlating the outline (`artwork.best_artwork_rotation`)
    with the probe candidate's artwork. The probe is then drawn into the quad,
    contracted by half the trial length along the smear, at each trial length;
    the length whose rendering matches the scene best wins, because a matched
    smear helps structural matches for any candidate.
    """
    shape = (roi.height, roi.width)
    direction = estimate_blur_direction(roi)
    edge_px = np.concatenate(
        [roi.pixels[0, :], roi.pixels[-1, :], roi.pixels[:, 0], roi.pixels[:, -1]]
    )
    background = float(np.median(edge_px))
    # Payload content is a second-order effect on the coarse correlation, so
    # the probe candidate decides for everyone, and the accepted sticker is
    # posed at these turns.
    turns = artwork.best_artwork_rotation(
        roi, quad, artwork.sticker_cells_from_payloads(list(probe_payloads))
    )
    best_pairs = -1
    best_view = ViewContext(quad, shape, 0.0, direction, background, turns)
    for length in VIEW_BLUR_LENGTHS_PX:
        trial_quad = contract_quad(quad, direction, length / 2.0)
        view = ViewContext(trial_quad, shape, length, direction, background, turns)
        pairs = _view_matches(
            probe_payloads, view, scene_feats, PROBE_FEATURES, DEFAULT_MAX_DISTANCE
        )
        if pairs is not None and pairs > best_pairs:
            best_pairs, best_view = pairs, view
    return best_view


def identify_sticker(
    scene_feats: FeatureSet,
    bank: ReferenceBank,
    candidates,
    view: ViewContext,
    max_distance: int = DEFAULT_MAX_DISTANCE,
    accept_min: int = DEFAULT_ACCEPT_MIN,
    margin_ratio: float = DEFAULT_MARGIN_RATIO,
) -> IdentificationResult:
    """Best-matching candidate by the match count of its rendering into the view.

    Accepted only when the score clears accept_min and the margin over the
    runner-up; otherwise the result is carried as ambiguous with all scores.
    The result carries the view's quarter turns, which pose the winner.
    """
    candidates = list(candidates)
    if not candidates:
        raise ValueError("candidate list must not be empty")
    scores: dict[int, int] = {}
    for sid in sorted(set(int(c) for c in candidates)):
        if len(scene_feats) == 0:
            scores[sid] = 0
            continue
        payloads = bank.warehouse_map.get(sid).payloads
        pairs = _view_matches(payloads, view, scene_feats, VIEW_REFERENCE_FEATURES, max_distance)
        scores[sid] = pairs or 0
    best_id = min(scores, key=lambda sid: (-scores[sid], sid))
    best = scores[best_id]
    rivals = [v for sid, v in scores.items() if sid != best_id]
    runner_up = max(rivals) if rivals else 0
    accepted = best > accept_min and best >= margin_ratio * max(runner_up, 1)
    return IdentificationResult(
        sticker_id=best_id if accepted else None,
        score=best,
        runner_up_score=runner_up,
        accepted=accepted,
        turns=view.turns,
        scores=scores,
    )
