"""Spans around calls into floortag's public functions, recorded from outside the package.

Each probe replaces one function at the name its caller looks it up by: a
module attribute for callers that go through the module (``features.match``
from the pipeline), or the module-level name for callers that imported the
function directly (``identify.match``, ``pipeline.refine_pose``). Spans live in
memory; self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass(eq=False)
class Span:
    name: str
    frame: Any  # call index of the process_frame (or render) the span belongs to
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    error: str | None = None  # exception type name when the call raised
    note: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1000.0

    @property
    def self_ms(self) -> float:
        return self.ms - self.child_s * 1000.0


class Tracer:
    """In-memory span recorder; `frame` labels every span opened while it is set.

    probes are (module, attribute, span name, note) tuples, patched in by `installed`.
    """

    def __init__(self, probes=()):
        self.spans: list[Span] = []
        self.frame: Any = None
        self._stack: list[Span] = []
        self._patches = [
            (module, attr, getattr(module, attr), self.wrap(name, getattr(module, attr), note))
            for module, attr, name, note in probes
        ]

    def wrap(self, name: str, fn: Callable, note: Callable | None = None) -> Callable:
        """fn recorded as a span; note(args, kwargs, result) -> dict adds counts to it."""

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, self.frame, parent)
            self.spans.append(span)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
            if note is not None:
                span.note = note(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every probe in; restore the originals on exit."""
        try:
            for module, attr, _, traced in self._patches:
                setattr(module, attr, traced)
            yield self
        finally:
            for module, attr, original, _ in self._patches:
                setattr(module, attr, original)


def probes(warehouse_map) -> list[tuple[Any, str, str, Callable | None]]:
    """Every per-frame and render-path entry point, at the names its callers look up."""
    from floortag import (
        artwork, clustering, datamatrix, features, identify, pipeline, simulate, warehouse,
    )

    def registered(reads) -> bool:
        for read in reads:
            try:
                warehouse.lookup_by_payload(warehouse_map, read.payload)
            except warehouse.UnknownPayloadError:
                continue
            return True
        return False

    def detect_note(args, kwargs, result):
        img = args[0]
        return {"px": img.width * img.height, "keypoints": len(result)}

    def samples_note(args, kwargs, result):
        return {"samples": int(getattr(args[1], "size", 1))}

    return [
        (features, "detect_and_describe", "features.detect", detect_note),
        (identify, "detect_and_describe", "features.detect", detect_note),
        (features, "match", "features.match", lambda a, k, r: {"pairs": len(r)}),
        (identify, "match", "features.match", lambda a, k, r: {"pairs": len(r)}),
        (clustering, "cluster_keypoints", "clustering.cluster_keypoints",
         lambda a, k, r: {"clusters": len(r)}),
        (clustering, "clusters_by_size", "clustering.clusters_by_size", None),
        (clustering, "roi_from_cluster", "clustering.roi_from_cluster", None),
        (pipeline, "binarize", "imaging.binarize", None),
        (pipeline, "trace_contours", "imaging.trace_contours", None),
        (pipeline, "extract_quad_corners", "imaging.extract_quad_corners", None),
        (simulate, "bilinear_sample", "imaging.bilinear.simulate", samples_note),
        (identify, "bilinear_sample", "imaging.bilinear.identify", samples_note),
        (datamatrix, "decode_roi_detail", "datamatrix.decode_roi_detail",
         lambda a, k, r: {"reads": len(r), "hit": registered(r)}),
        (datamatrix, "rs_decode", "datamatrix.rs_decode", None),
        (artwork, "best_artwork_rotation", "artwork.best_artwork_rotation", None),
        (pipeline, "estimate_view", "identify.estimate_view", None),
        (identify, "identify_sticker", "identify.identify_sticker",
         lambda a, k, r: {"candidates": len(r.scores), "accepted": bool(r.accepted)}),
        (identify, "render_candidate_view", "identify.render_candidate_view", None),
        (warehouse, "candidate_stickers", "warehouse.candidate_stickers",
         lambda a, k, r: {"returned": len(r)}),
        (pipeline, "homography_dlt", "geometry.homography_dlt", None),
        (pipeline, "pose_from_homography", "geometry.pose_from_homography", None),
        (pipeline, "refine_pose", "geometry.refine_pose",
         lambda a, k, r: {"iterations": r.iterations, "rms": float(r.rms)}),
        (simulate, "render", "simulate.render",
         lambda a, k, r: {"visible": len(r[1].visible)}),
        (simulate, "sticker_texture", "simulate.sticker_texture", None),
        (identify, "sticker_texture", "simulate.sticker_texture", None),
        (artwork, "render_cells", "artwork.render_cells", None),
    ]
