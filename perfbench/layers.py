"""Per-layer metrics from a traced run's spans.

A layer's time is the self time of its spans, summed per frame, so the layers
and the root span's own time add up to the frame. Per-frame values are the
median over frames; a count whose name ends in ``_per_call`` is a total over
calls, and a ``_ratio`` is useful outcomes over attempts. Counts come from the
scored calls and the renders of the scored frames only, so they repeat exactly
for a seed however many frames the run's time allows; call times come from
every traced call.
"""

from __future__ import annotations

from collections import defaultdict

from harness import Call, pct

FEATURES_DETECT = {"features.detect"}
FEATURES_MATCH = {"features.match"}
CLUSTERING = {"clustering.cluster_keypoints", "clustering.clusters_by_size",
              "clustering.roi_from_cluster"}
QUAD = {"imaging.binarize", "imaging.trace_contours", "imaging.extract_quad_corners"}
DECODE = {"datamatrix.decode_roi_detail", "datamatrix.rs_decode"}
ROTATION = {"artwork.best_artwork_rotation"}
POSE = {"geometry.homography_dlt", "geometry.pose_from_homography", "geometry.refine_pose"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class FrameSpans:
    """Spans grouped by the frame (call index) they were opened under."""

    def __init__(self, spans, frames):
        self.frames = list(frames)
        self.by_frame = defaultdict(list)
        for s in spans:
            self.by_frame[s.frame].append(s)

    def spans(self, names):
        return [s for f in self.frames for s in self.by_frame[f] if s.name in names]

    def ms_p50(self, names) -> float:
        return pct([sum(s.self_ms for s in self.by_frame[f] if s.name in names)
                    for f in self.frames], 50)

    def count_p50(self, names, ok=lambda s: True) -> float:
        return pct([sum(1 for s in self.by_frame[f] if s.name in names and ok(s))
                    for f in self.frames], 50)

    def note_p50(self, names, key) -> float:
        return pct([sum(s.note.get(key, 0) for s in self.by_frame[f] if s.name in names)
                    for f in self.frames], 50)


def layer_metrics(tracer, calls: list[Call], scored_frames: int, stickers_in_map: int,
                  bank_build_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; render spans carry frame labels ("render", i)."""
    frames = range(len(calls))
    timed = FrameSpans(tracer.spans, frames)
    first = FrameSpans(tracer.spans, [k for k, c in enumerate(calls) if c.scored])
    rendered = FrameSpans(tracer.spans, [("render", i) for i in range(scored_frames)])

    detects = first.spans(FEATURES_DETECT)
    matches = first.spans(FEATURES_MATCH)
    rois = [s for s in first.spans({"clustering.roi_from_cluster"}) if s.error is None]
    quads = [s for s in first.spans({"imaging.extract_quad_corners"}) if s.error is None]
    decodes = first.spans({"datamatrix.decode_roi_detail"})
    idents = first.spans({"identify.identify_sticker"})
    cands = first.spans({"warehouse.candidate_stickers"})
    refines = first.spans({"geometry.refine_pose"})
    renders_traced = rendered.spans({"simulate.render"})
    texture_builds = [
        s for s in rendered.spans({"artwork.render_cells"})
        if s.parent is not None and s.parent.name == "simulate.sticker_texture"
    ]
    in_map = max(stickers_in_map, 1)
    mean_visible = _ratio(sum(s.note["visible"] for s in renders_traced), len(renders_traced))
    return {
        "features.detect_ms": (timed.ms_p50(FEATURES_DETECT), "ms"),
        "features.detect_calls": (first.count_p50(FEATURES_DETECT), "count"),
        "features.detect_px": (pct([s.note["px"] for s in detects], 50), "px"),
        "features.keypoints_per_call": (
            _ratio(sum(s.note["keypoints"] for s in detects), len(detects)), "count"),
        "features.match_ms": (timed.ms_p50(FEATURES_MATCH), "ms"),
        "features.match_pairs_per_call": (
            _ratio(sum(s.note["pairs"] for s in matches), len(matches)), "count"),
        "clustering.ms": (timed.ms_p50(CLUSTERING), "ms"),
        "clustering.clusters": (first.note_p50({"clustering.cluster_keypoints"}, "clusters"),
                                "count"),
        "clustering.rois": (first.count_p50({"clustering.roi_from_cluster"},
                                            lambda s: s.error is None), "count"),
        "imaging.quad_ms": (timed.ms_p50(QUAD), "ms"),
        "imaging.quad_found_ratio": (_ratio(len(quads), len(rois)), "ratio"),
        "imaging.bilinear_ms.simulate": (rendered.ms_p50({"imaging.bilinear.simulate"}), "ms"),
        "imaging.bilinear_ms.identify": (timed.ms_p50({"imaging.bilinear.identify"}), "ms"),
        "imaging.bilinear_samples.simulate": (
            rendered.note_p50({"imaging.bilinear.simulate"}, "samples"), "count"),
        "imaging.bilinear_samples.identify": (
            first.note_p50({"imaging.bilinear.identify"}, "samples"), "count"),
        "datamatrix.decode_ms": (timed.ms_p50(DECODE), "ms"),
        "datamatrix.decode_calls": (first.count_p50({"datamatrix.decode_roi_detail"}), "count"),
        "datamatrix.reads_per_call": (
            _ratio(sum(s.note["reads"] for s in decodes), len(decodes)), "count"),
        "datamatrix.decode_hit_ratio": (
            _ratio(sum(1 for s in decodes if s.note["hit"]), len(decodes)), "ratio"),
        "datamatrix.rs_decode_calls": (first.count_p50({"datamatrix.rs_decode"}), "count"),
        "datamatrix.rs_uncorrectable": (
            first.count_p50({"datamatrix.rs_decode"}, lambda s: s.error is not None), "count"),
        "artwork.rotation_ms": (timed.ms_p50(ROTATION), "ms"),
        "artwork.rotation_calls": (first.count_p50(ROTATION), "count"),
        "identify.estimate_view_ms": (timed.ms_p50({"identify.estimate_view"}), "ms"),
        "identify.identify_ms": (timed.ms_p50({"identify.identify_sticker"}), "ms"),
        "identify.view_renders": (first.count_p50({"identify.render_candidate_view"}), "count"),
        "identify.view_render_ms": (timed.ms_p50({"identify.render_candidate_view"}), "ms"),
        "identify.candidates_per_call": (
            _ratio(sum(s.note["candidates"] for s in idents), len(idents)), "count"),
        "identify.accept_ratio": (
            _ratio(sum(1 for s in idents if s.note["accepted"]), len(idents)), "ratio"),
        "identify.bank_build_s": (bank_build_s, "s"),
        "warehouse.candidate_ms": (timed.ms_p50({"warehouse.candidate_stickers"}), "ms"),
        "warehouse.candidates_returned": (
            _ratio(sum(s.note["returned"] for s in cands), len(cands)), "count"),
        "geometry.pose_ms": (timed.ms_p50(POSE), "ms"),
        "geometry.refine_iterations": (pct([s.note["iterations"] for s in refines], 50), "count"),
        "geometry.reprojection_rms_px": (pct([s.note["rms"] for s in refines], 50), "px"),
        "simulate.render_ms": (rendered.ms_p50({"simulate.render"}), "ms"),
        "simulate.stickers_in_map": (float(stickers_in_map), "count"),
        "simulate.stickers_visible": (rendered.note_p50({"simulate.render"}, "visible"), "count"),
        "simulate.visible_ratio": (mean_visible / in_map, "ratio"),
        "simulate.texture_builds": (float(len(texture_builds)), "count"),
        "pipeline.self_ms": (timed.ms_p50({"pipeline.process_frame"}), "ms"),
        "trace.spans_per_frame": (
            pct([len(first.by_frame[f]) for f in first.frames], 50), "count"),
    }
