"""Command-line interface: generation, rendering, localisation and benchmarking."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import artwork, blur
from .bench import run_benchmark
from .geometry import (
    DOWNWARD_BASE,
    CameraIntrinsics,
    Pose,
    load_intrinsics,
    rotation_zyx,
)
from .identify import ReferenceBank
from .imaging import load_pgm, save_pgm
from .pipeline import (
    OUTCOME_ERROR,
    PipelineConfig,
    extract_corners,
    identify_crop,
    outline_crop,
    process_sequence,
)
from .simulate import RenderConfig, render, save_truth
from .warehouse import generate_grid_map, load_map, save_map


def _intrinsics_from_args(args) -> CameraIntrinsics:
    if getattr(args, "intrinsics", None):
        return load_intrinsics(args.intrinsics)
    return CameraIntrinsics.reference_camera(binning=getattr(args, "binning", 1))


def _parse_pose(text: str) -> Pose:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 6:
        raise argparse.ArgumentTypeError("pose needs x,y,z,roll,pitch,yaw")
    if not all(math.isfinite(v) for v in parts):
        raise argparse.ArgumentTypeError(f"pose values must be finite, got {text!r}")
    x, y, z, roll, pitch, yaw = parts
    # Orientation applies to the nominal downward-looking camera, ZYX intrinsic.
    r_cw = rotation_zyx(roll, pitch, yaw) @ DOWNWARD_BASE
    return Pose.from_camera((x, y, z), r_cw)


def _add_intrinsics_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--intrinsics", help="intrinsics text file (default: reference camera)")
    p.add_argument("--binning", type=int, default=1,
                   help="bin the reference camera by this factor when no file is given")


def _cmd_gen_map(args) -> int:
    wmap = generate_grid_map(args.rows, args.cols, args.pitch)
    if args.out:
        save_map(wmap, args.out)
    else:
        sys.stdout.write("id,x_m,y_m,yaw_rad\n")
        for s in wmap:
            sys.stdout.write(f"{s.id},{s.world_x!r},{s.world_y!r},{s.yaw!r}\n")
    return 0


def _cmd_gen_sticker(args) -> int:
    img = artwork.render_sticker(args.id, args.size)
    save_pgm(img, args.out)
    return 0


def _cmd_render(args) -> int:
    wmap = load_map(args.map)
    intr = _intrinsics_from_args(args)
    pose = args.pose
    cfg = RenderConfig(
        exposure_reciprocal=args.shutter,
        velocity=args.velocity,
        heading=args.heading,
        noise_sigma=args.noise,
        illumination=args.illumination,
        seed=args.seed,
    )
    img, truth = render(wmap, intr, pose, cfg)
    save_pgm(img, args.out)
    truth_path = args.truth or str(Path(args.out).with_suffix(".truth"))
    save_truth(truth, pose, truth_path)
    print(f"wrote {args.out} and {truth_path}", file=sys.stderr)
    return 0


def _print_results(results) -> int:
    """One JSON line per result; exit code 1 when any frame ended in an error."""
    code = 0
    for result in results:
        sys.stdout.write(json.dumps(result.to_json_dict()) + "\n")
        sys.stdout.flush()
        if result.outcome == OUTCOME_ERROR:
            code = 1
    return code


def _cmd_localize(args) -> int:
    wmap = load_map(args.map)
    intr = _intrinsics_from_args(args)
    bank = ReferenceBank.build(wmap, intr)
    img = load_pgm(args.image)
    return _print_results(process_sequence([img], wmap, intr, bank))


def _cmd_localize_stream(args) -> int:
    wmap = load_map(args.map)
    intr = _intrinsics_from_args(args)
    bank = ReferenceBank.build(wmap, intr)
    paths = sorted(Path(args.dir).glob("*.pgm"))
    if not paths:
        print(f"no .pgm frames found in {args.dir}", file=sys.stderr)
        return 1
    frames = (load_pgm(p) for p in paths)
    return _print_results(process_sequence(frames, wmap, intr, bank, fps=args.fps))


def _cmd_identify(args) -> int:
    wmap = load_map(args.map)
    candidates = (
        [int(v) for v in args.candidates.split(",")] if args.candidates else wmap.ids
    )
    if not candidates:
        print(f"error: the map {args.map} holds no stickers", file=sys.stderr)
        return 1
    known = set(wmap.ids)
    unknown = [sid for sid in candidates if sid not in known]
    if unknown:
        listed = ", ".join(str(sid) for sid in unknown)
        print(f"error: candidate ids not in the map: {listed}", file=sys.stderr)
        return 1
    intr = _intrinsics_from_args(args)
    bank = ReferenceBank.build(wmap, intr)
    img = load_pgm(args.image)
    cfg = PipelineConfig()
    corners = extract_corners(img, cfg.min_contour_area)
    if corners is None:
        print("error: no sticker outline found", file=sys.stderr)
        return 1
    crop, quad = outline_crop(img, corners.corners, cfg.roi_margin)
    result = identify_crop(crop, quad, wmap, bank, candidates)
    if result is None:
        print("error: no features around the sticker outline", file=sys.stderr)
        return 1
    payload = {
        "sticker_id": result.sticker_id,
        "score": result.score,
        "runner_up_score": result.runner_up_score,
        "accepted": result.accepted,
        "scores": {str(k): v for k, v in sorted(result.scores.items())},
    }
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


def _cmd_blur_check(args) -> int:
    n_min = blur.min_shutter_reciprocal(args.focal, args.distance, args.velocity, args.pixel_pitch)
    print(f"min_shutter_reciprocal_hz {n_min:.2f}")
    print(f"max_exposure_s {1.0 / n_min:.6g}")
    if args.shutter is not None:
        params = blur.BlurParams(args.focal, args.distance, args.velocity, args.shutter, args.pixel_pitch)
        verdict = "sharp" if blur.is_sharp(params) else "blurred"
        print(f"verdict {verdict}")
    return 0


def _cmd_bench(args) -> int:
    if args.map:
        wmap = load_map(args.map)
    else:
        wmap = generate_grid_map(args.rows, args.cols, args.pitch)
    intr = _intrinsics_from_args(args)
    bank = ReferenceBank.build(wmap, intr)
    report = run_benchmark(
        wmap, intr, bank, trials=args.trials, seed=args.seed, blur_px=args.blur
    )
    sys.stdout.write("metric,value\n")
    for key, value in report.summary_rows():
        sys.stdout.write(f"{key},{value}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floortag",
        description="Visual localisation from Data Matrix floor stickers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-map", help="generate a regular sticker grid map CSV")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--pitch", type=float, required=True, help="sticker spacing in metres")
    p.add_argument("--out", help="output CSV (default: stdout)")
    p.set_defaults(func=_cmd_gen_map)

    p = sub.add_parser("gen-sticker", help="render sticker artwork to a PGM file")
    p.add_argument("--id", type=int, required=True)
    p.add_argument("--size", type=int, default=400, help="raster size in pixels")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_sticker)

    p = sub.add_parser("render", help="render a synthetic frame plus ground truth")
    p.add_argument("--map", required=True)
    p.add_argument("--pose", type=_parse_pose, required=True,
                   help="x,y,z,roll,pitch,yaw for the downward camera (m, rad)")
    p.add_argument("--out", required=True)
    p.add_argument("--truth", help="truth sidecar path (default: out with .truth)")
    p.add_argument("--velocity", type=float, default=0.0)
    p.add_argument("--heading", type=float, default=0.0)
    p.add_argument("--shutter", type=float, default=None, help="exposure reciprocal 1/s")
    p.add_argument("--noise", type=float, default=2.0)
    p.add_argument("--illumination", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    _add_intrinsics_args(p)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("localize", help="localise a single PGM frame, print one JSON line")
    p.add_argument("--map", required=True)
    p.add_argument("--image", required=True)
    _add_intrinsics_args(p)
    p.set_defaults(func=_cmd_localize)

    p = sub.add_parser("localize-stream", help="localise every PGM in a directory, JSON lines")
    p.add_argument("--map", required=True)
    p.add_argument("--dir", required=True)
    p.add_argument("--fps", type=float, default=10.0)
    _add_intrinsics_args(p)
    p.set_defaults(func=_cmd_localize_stream)

    p = sub.add_parser("identify", help="identify the sticker in an image without decoding")
    p.add_argument("--map", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--candidates", help="comma-separated sticker ids (default: all)")
    _add_intrinsics_args(p)
    p.set_defaults(func=_cmd_identify)

    p = sub.add_parser("blur-check", help="minimum shutter reciprocal for sub-pixel motion")
    p.add_argument("--focal", type=float, required=True, help="focal length, m")
    p.add_argument("--distance", type=float, required=True, help="camera-object distance, m")
    p.add_argument("--velocity", type=float, required=True, help="camera speed, m/s")
    p.add_argument("--pixel-pitch", type=float, required=True, help="pixel pitch, m")
    p.add_argument("--shutter", type=float, help="exposure reciprocal to check, 1/s")
    p.set_defaults(func=_cmd_blur_check)

    p = sub.add_parser("bench", help="seeded synthetic localisation benchmark")
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--map")
    p.add_argument("--rows", type=int, default=3)
    p.add_argument("--cols", type=int, default=3)
    p.add_argument("--pitch", type=float, default=1.0)
    p.add_argument("--blur", type=float, default=0.0, help="motion blur length in pixels")
    _add_intrinsics_args(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
