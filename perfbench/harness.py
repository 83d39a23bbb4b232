"""Workloads, the closed-loop frame runner, end-to-end metrics and the machine record.

A run sets up the map and reference bank several times (timed), then renders
seeded frames with the synthetic renderer and localises each with
``pipeline.process_frame``, one at a time, until the run's time is up. Every
run completes the workload's scored frames, and accuracy comes from those
alone, so it depends on the seed and not on speed; timings come from every
call.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import itertools
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

import numpy as np
import scipy

from floortag import pipeline, simulate
from floortag.bench import sample_camera_pose
from floortag.geometry import CameraIntrinsics, Pose, camera_world_position
from floortag.identify import ReferenceBank
from floortag.imaging import GreyImage
from floortag.simulate import GroundTruth, RenderConfig, exposure_for_blur_px
from floortag.warehouse import WarehouseMap, generate_grid_map

BINNING = 2
PITCH_M = 1.0
VELOCITY_M_S = 1.0
FPS = 10.0  # timestamps handed to the tracker: frame k is taken at k / FPS seconds
# A localised frame further than this from the rendered camera centre is a wrong answer.
POSITION_TOLERANCE_M = 0.10


@dataclass(frozen=True)
class Workload:
    name: str
    grid: int  # the map is grid x grid stickers at PITCH_M
    blur_px: float  # projected smear at VELOCITY_M_S; 0 renders sharp frames
    scored_frames: int  # frames every run completes; accuracy and counts come from these
    repeats: int  # process_frame calls per rendered frame, each on freshly jittered pixels
    setup_repeats: int  # setups timed per run; setup_s is their median


# large-map localises each frame 4 times so that it makes as many process_frame
# calls as sharp while its renders, four times dearer, still spread over the run.
# Repeats after the first get fresh noise (see `jittered`), as a camera that
# stands still would send, so no call sees the same pixels as another.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("sharp", grid=3, blur_px=0.0, scored_frames=32, repeats=1, setup_repeats=5),
        Workload("large-map", grid=10, blur_px=0.0, scored_frames=8, repeats=4, setup_repeats=3),
        Workload("blur10", grid=3, blur_px=10.0, scored_frames=4, repeats=1, setup_repeats=5),
    )
}


@dataclass(frozen=True)
class Frame:
    truth: GroundTruth
    camera: np.ndarray  # rendered camera centre, world metres


@dataclass(frozen=True)
class Call:
    """One process_frame call: which frame, how long, and what came back."""

    frame: int
    scored: bool  # first call on one of the workload's scored frames
    ms: float
    result: Any  # LocalisationResult, or None when process_frame raised
    error: str | None


@dataclass
class Setup:
    warehouse_map: WarehouseMap
    bank: ReferenceBank
    setup_s: list[float]
    bank_build_s: list[float]


def camera() -> CameraIntrinsics:
    return CameraIntrinsics.reference_camera(binning=BINNING)


def set_up(wl: Workload, intr: CameraIntrinsics) -> Setup:
    """Map generation plus ReferenceBank.build, repeated; the last build is kept."""
    setup_s, bank_s = [], []
    for _ in range(wl.setup_repeats):
        t0 = time.perf_counter()
        wmap = generate_grid_map(wl.grid, wl.grid, PITCH_M)
        t1 = time.perf_counter()
        bank = ReferenceBank.build(wmap, intr)
        t2 = time.perf_counter()
        setup_s.append(t2 - t0)
        bank_s.append(t2 - t1)
    return Setup(wmap, bank, setup_s, bank_s)


def frame_specs(wl: Workload, wmap: WarehouseMap, intr: CameraIntrinsics,
                seed: int) -> Iterator[tuple[Pose, RenderConfig]]:
    """Endless seeded poses aimed at random stickers, with their render settings."""
    rng = np.random.default_rng(seed)
    ids = wmap.ids
    for i in itertools.count():
        sticker = wmap.get(ids[int(rng.integers(0, len(ids)))])
        pose = sample_camera_pose(rng, (sticker.world_x, sticker.world_y))
        noise_seed = seed * 100003 + i
        if wl.blur_px > 0:
            height = float(camera_world_position(pose)[2])
            cfg = RenderConfig(
                seed=noise_seed,
                exposure_reciprocal=exposure_for_blur_px(intr, height, VELOCITY_M_S, wl.blur_px),
                velocity=VELOCITY_M_S,
                heading=float(rng.uniform(0, 2 * np.pi)),
            )
        else:
            cfg = RenderConfig(seed=noise_seed)
        yield pose, cfg


def jittered(img: GreyImage, rng: np.random.Generator) -> GreyImage:
    """img with a fresh grey level of noise on every pixel: the same scene, new bytes."""
    noise = rng.integers(-1, 2, img.pixels.shape, dtype=np.int16)
    return GreyImage(np.clip(img.pixels + noise, 0, 255))


def _traced(tracer, frame):
    """The tracer's probes, labelling spans with `frame`; nothing without a tracer."""
    if tracer is None:
        return contextlib.nullcontext()
    tracer.frame = frame
    return tracer.installed()


class Lane:
    """One client's tracker state and calls; a traced lane runs with the probes installed."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.process = pipeline.process_frame
        if tracer is not None:
            self.process = tracer.wrap("pipeline.process_frame", self.process)
        self.state = pipeline.TrackerState()
        self.calls: list[Call] = []

    def localise(self, img, setup: Setup, intr: CameraIntrinsics, frame: int, scored: bool):
        k = len(self.calls)
        t0 = time.perf_counter()
        try:
            with _traced(self.tracer, k):
                result, self.state = self.process(
                    img, setup.warehouse_map, intr, setup.bank, self.state,
                    frame_id=k, timestamp=k / FPS,
                )
            error = None
        except Exception as exc:  # a failed frame is counted and reported, never hidden
            result, error = None, f"{type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        self.calls.append(Call(frame, scored, ms, result, error))


def run_loop(wl: Workload, setup: Setup, intr: CameraIntrinsics, seed: int, seconds: float,
             scored_frames: int, tracer=None) -> tuple[list[Frame], list[list[Call]]]:
    """Closed loop: render a frame, localise it, then take the next.

    Starts from a fresh tracker state, completes the scored frames, then stops
    at the first frame boundary after `seconds`. An exception from
    process_frame is a failed call, never an outcome. Returns the frames and
    the calls of each lane: one untraced lane, then, given a tracer, a traced
    lane with its own tracker state that localises every frame too. The lanes
    take turns going first, so the tracing overhead is measured on the same
    frames at the same moments and the machine's drift cancels out of it.
    """
    lanes = [Lane()] + ([Lane(tracer)] if tracer is not None else [])
    frames: list[Frame] = []
    t_end = time.perf_counter() + seconds
    for i, (pose, cfg) in enumerate(frame_specs(wl, setup.warehouse_map, intr, seed)):
        if i >= scored_frames and time.perf_counter() >= t_end:
            break
        with _traced(tracer, ("render", i)):
            rendered, truth = simulate.render(setup.warehouse_map, intr, pose, cfg)
        frames.append(Frame(truth, camera_world_position(pose)))
        jitter = np.random.default_rng((seed, i))
        for rep in range(wl.repeats):
            img = jittered(rendered, jitter) if rep else rendered
            # The lane that goes first right after a render finds the caches cold.
            for lane in lanes if (i + rep) % 2 == 0 else lanes[::-1]:
                lane.localise(img, setup, intr, i, rep == 0 and i < scored_frames)
    return frames, [lane.calls for lane in lanes]


def position_error_m(call: Call, frames: list[Frame]) -> float | None:
    r = call.result
    if r is None or r.outcome != pipeline.OUTCOME_LOCALISED or r.position is None:
        return None
    return float(np.linalg.norm(r.position - frames[call.frame].camera))


def wrong_answers(calls: list[Call], frames: list[Frame]) -> list[str]:
    """Localised calls whose sticker is not in view or whose position is off."""
    bad = []
    for k, c in enumerate(calls):
        err = position_error_m(c, frames)
        if err is None:
            continue
        visible = frames[c.frame].truth.visible_ids
        if c.result.sticker_id not in visible:
            bad.append(f"call {k}: sticker {c.result.sticker_id} not in view {visible}")
        elif err > POSITION_TOLERANCE_M:
            bad.append(f"call {k}: position off by {err * 1000:.1f} mm")
    return bad


def pct(values, q: float) -> float:
    """Percentile of the values; 0 when there are none."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def accuracy_metrics(calls: list[Call], frames: list[Frame]) -> dict[str, tuple[float, str]]:
    """Outcome rates over the scored calls and failures over all calls."""
    scored = [c for c in calls if c.scored and c.result is not None]
    n = sum(1 for c in calls if c.scored)
    visible = lambda c: frames[c.frame].truth.visible_ids  # noqa: E731
    localised = [c for c in scored if c.result.outcome == pipeline.OUTCOME_LOCALISED]
    errors_mm = [position_error_m(c, frames) * 1000.0 for c in localised]
    outcome_rate = lambda o: sum(1 for c in scored if c.result.outcome == o) / n  # noqa: E731
    method_rate = lambda m: sum(1 for c in localised if c.result.method == m) / n  # noqa: E731
    return {
        "localised_rate": (len(localised) / n, "ratio"),
        "pipeline.position_error_mm_p50": (pct(errors_mm, 50), "mm"),
        "pipeline.position_error_mm_p90": (pct(errors_mm, 90), "mm"),
        "pipeline.missed_rate": (sum(
            1 for c in scored
            if c.result.outcome == pipeline.OUTCOME_NO_STICKER and visible(c)) / n, "ratio"),
        "pipeline.wrong_sticker_rate": (sum(
            1 for c in localised if c.result.sticker_id not in visible(c)) / n, "ratio"),
        "pipeline.failed_rate": (sum(1 for c in calls if c.error) / len(calls), "ratio"),
        "pipeline.decoded_rate": (method_rate(pipeline.METHOD_DECODED), "ratio"),
        "pipeline.identified_rate": (method_rate(pipeline.METHOD_IDENTIFIED), "ratio"),
        "pipeline.unread_rate": (outcome_rate(pipeline.OUTCOME_DETECTED_UNREAD), "ratio"),
    }


def frames_per_s(calls: list[Call]) -> float:
    return len(calls) / (sum(c.ms for c in calls) / 1000.0)


def end_to_end_metrics(setup: Setup, frames: list[Frame], calls: list[Call]):
    times = [c.ms for c in calls]
    metrics = {
        "frame_ms_p50": (pct(times, 50), "ms"),
        "frame_ms_p75": (pct(times, 75), "ms"),
        "frames_per_s": (frames_per_s(calls), "1/s"),
        "setup_s": (float(np.median(setup.setup_s)), "s"),
        "memory.peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    metrics.update(accuracy_metrics(calls, frames))
    return metrics


def stage_metrics(calls: list[Call]) -> dict[str, tuple[float, str]]:
    """Per-stage laps from LocalisationResult.timings_ms, and what they leave out."""
    done = [c for c in calls if c.result is not None]
    out = {}
    for stage in ("detect", "match", "cluster", "decode", "identify", "pose"):
        out[f"pipeline.{stage}_ms"] = (
            pct([c.result.timings_ms.get(stage, 0.0) for c in done], 50), "ms")
    out["pipeline.unaccounted_ms"] = (
        pct([c.ms - sum(c.result.timings_ms.values()) for c in done], 50), "ms")
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _blas() -> dict:
    info: dict[str, Any] = {"library": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        paths = set()
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["threads"] = fn()
                return info
    return info


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "floortag").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def machine(root: Path) -> dict:
    """Where the numbers were measured: compare results only across equal records."""
    blas = _blas()
    return {
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas["library"],
        "blas_threads": blas["threads"],
        "git_commit": _git_commit(root),
        "src_sha256": _source_digest(root),
    }
