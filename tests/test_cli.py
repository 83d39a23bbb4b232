import argparse
import json
import re
from pathlib import Path

import numpy as np
import pytest

from floortag import pipeline
from floortag.cli import build_parser, main
from floortag.imaging import GreyImage, load_pgm, save_pgm


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_blur_check_reference_values(capsys):
    code, out, _ = run(capsys, [
        "blur-check", "--focal", "3.6e-3", "--distance", "1",
        "--velocity", "1", "--pixel-pitch", "1.4e-6",
    ])
    assert code == 0
    n_min = float(out.splitlines()[0].split()[1])
    assert abs(n_min - 2571.43) < 0.5


def test_blur_check_verdicts(capsys):
    code, out, _ = run(capsys, [
        "blur-check", "--focal", "3.6e-3", "--distance", "1",
        "--velocity", "1", "--pixel-pitch", "1.4e-6", "--shutter", "2000",
    ])
    assert code == 0
    assert "verdict blurred" in out


def test_gen_map_stdout(capsys):
    code, out, _ = run(capsys, ["gen-map", "--rows", "2", "--cols", "3", "--pitch", "1.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "id,x_m,y_m,yaw_rad"
    assert len(lines) == 7


def test_gen_sticker_writes_pgm(tmp_path, capsys):
    out_path = tmp_path / "sticker.pgm"
    code, _, _ = run(capsys, ["gen-sticker", "--id", "5", "--size", "240", "--out", str(out_path)])
    assert code == 0
    img = load_pgm(out_path)
    assert img.width == img.height == 240


def test_render_localize_round_trip(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    code, _, _ = run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0",
                              "--out", str(map_path)])
    assert code == 0
    frame = tmp_path / "frame.pgm"
    code, _, _ = run(capsys, [
        "render", "--map", str(map_path), "--pose", "0.02,0.01,1.0,0.05,0,0.3",
        "--binning", "2", "--seed", "9", "--out", str(frame),
    ])
    assert code == 0
    assert (tmp_path / "frame.truth").exists()
    code, out, _ = run(capsys, [
        "localize", "--map", str(map_path), "--image", str(frame), "--binning", "2",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["outcome"] == "localised"
    assert record["method"] == "decoded"
    assert abs(record["position"][0] - 0.02) < 0.01
    assert abs(record["position"][2] - 1.0) < 0.01


def test_localize_blank_is_no_sticker(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0", "--out", str(map_path)])
    blank = tmp_path / "blank.pgm"
    save_pgm(GreyImage(np.full((486, 648), 120, dtype=np.uint8)), blank)
    code, out, _ = run(capsys, [
        "localize", "--map", str(map_path), "--image", str(blank), "--binning", "4",
    ])
    assert code == 0
    assert json.loads(out)["outcome"] == "no_sticker"


def test_localize_reports_a_failing_frame_as_error(tmp_path, capsys, monkeypatch):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0", "--out", str(map_path)])
    blank = tmp_path / "blank.pgm"
    save_pgm(GreyImage(np.full((486, 648), 120, dtype=np.uint8)), blank)

    def fail(*args, **kwargs):
        raise RuntimeError("detector exploded")

    monkeypatch.setattr(pipeline, "process_frame", fail)
    code, out, err = run(capsys, [
        "localize", "--map", str(map_path), "--image", str(blank), "--binning", "4",
    ])
    assert code == 1
    record = json.loads(out)
    assert record["outcome"] == "error"
    assert record["error"] == "RuntimeError: detector exploded"
    assert "RuntimeError: detector exploded" in err


def test_localize_stream(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0", "--out", str(map_path)])
    frames = tmp_path / "frames"
    frames.mkdir()
    for k in range(2):
        save_pgm(GreyImage(np.full((486, 648), 120, dtype=np.uint8)), frames / f"frame_{k:04d}.pgm")
    code, out, _ = run(capsys, [
        "localize-stream", "--map", str(map_path), "--dir", str(frames), "--binning", "4",
    ])
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["frame"] for r in records] == [0, 1]
    assert all(r["outcome"] == "no_sticker" for r in records)


@pytest.mark.parametrize("fps", ["0", "-1", "nan", "inf"])
def test_localize_stream_rejects_fps_that_is_not_finite_and_positive(tmp_path, capsys, fps):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0", "--out", str(map_path)])
    frames = tmp_path / "frames"
    frames.mkdir()
    save_pgm(GreyImage(np.full((486, 648), 120, dtype=np.uint8)), frames / "frame_0000.pgm")
    code, out, err = run(capsys, [
        "localize-stream", "--map", str(map_path), "--dir", str(frames), "--binning", "4",
        "--fps", fps,
    ])
    assert code == 1
    assert out == ""
    assert err == f"error: fps must be finite and positive, got {float(fps)}\n"


@pytest.mark.parametrize("pose", ["nan,0,1,0,0,0", "0,0,1,0,inf,0"])
def test_render_rejects_a_pose_that_is_not_finite(tmp_path, capsys, pose):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "1", "--cols", "1", "--pitch", "1.0", "--out", str(map_path)])
    frame = tmp_path / "frame.pgm"
    with pytest.raises(SystemExit) as exc:
        main(["render", "--map", str(map_path), "--pose", pose, "--out", str(frame),
              "--binning", "4"])
    assert exc.value.code == 2
    assert "pose values must be finite" in capsys.readouterr().err
    assert not frame.exists()


def test_bench_deterministic(tmp_path, capsys):
    argv = ["bench", "--trials", "2", "--seed", "7", "--rows", "1", "--cols", "1",
            "--pitch", "1.0", "--binning", "2"]
    code1, out1, _ = run(capsys, argv)
    code2, out2, _ = run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("metric,value")


def test_identify_names_the_sticker_under_the_camera(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "2", "--cols", "2", "--pitch", "1.0", "--out", str(map_path)])
    frame = tmp_path / "frame.pgm"
    code, _, _ = run(capsys, [
        "render", "--map", str(map_path), "--pose", "1.02,0.98,0.8,0.05,0,0.7",
        "--binning", "4", "--seed", "4", "--out", str(frame),
    ])
    assert code == 0
    code, out, _ = run(capsys, [
        "identify", "--map", str(map_path), "--image", str(frame), "--binning", "4",
        "--candidates", "3,4,2,1",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["sticker_id"] == 4
    assert record["accepted"] is True
    assert sorted(record["scores"]) == ["1", "2", "3", "4"]


def test_identify_without_outline_is_an_error(tmp_path, capsys):
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "2", "--cols", "2", "--pitch", "1.0", "--out", str(map_path)])
    blank = tmp_path / "blank.pgm"
    save_pgm(GreyImage(np.full((486, 648), 120, dtype=np.uint8)), blank)
    code, out, err = run(capsys, [
        "identify", "--map", str(map_path), "--image", str(blank), "--binning", "4",
    ])
    assert code == 1
    assert out == ""
    assert "error: no sticker outline found" in err


def test_identify_without_features_is_an_error(tmp_path, capsys):
    # A plain 24 px square: a quad outline, but its corners sit within the
    # feature margin of the crop around it, so the crop has no features.
    map_path = tmp_path / "map.csv"
    run(capsys, ["gen-map", "--rows", "2", "--cols", "2", "--pitch", "1.0", "--out", str(map_path)])
    px = np.full((200, 200), 120, dtype=np.uint8)
    px[80:104, 80:104] = 20
    square = tmp_path / "square.pgm"
    save_pgm(GreyImage(px), square)
    code, out, err = run(capsys, [
        "identify", "--map", str(map_path), "--image", str(square), "--binning", "4",
    ])
    assert code == 1
    assert out == ""
    assert "error: no features around the sticker outline" in err


@pytest.fixture(scope="module")
def sticker_frame(tmp_path_factory):
    """A binning-4 frame over sticker 4 of a 2x2 map: an outline with features around it."""
    root = tmp_path_factory.mktemp("identify")
    map_path = root / "map.csv"
    frame = root / "frame.pgm"
    assert main(["gen-map", "--rows", "2", "--cols", "2", "--pitch", "1.0",
                 "--out", str(map_path)]) == 0
    assert main(["render", "--map", str(map_path), "--pose", "1.02,0.98,0.8,0.05,0,0.7",
                 "--binning", "4", "--seed", "4", "--out", str(frame)]) == 0
    return map_path, frame


def test_identify_with_an_empty_map_is_an_error(sticker_frame, tmp_path, capsys):
    _, frame = sticker_frame
    empty = tmp_path / "empty.csv"
    empty.write_text("id,x_m,y_m,yaw_rad\n")
    code, out, err = run(capsys, [
        "identify", "--map", str(empty), "--image", str(frame), "--binning", "4",
    ])
    assert code == 1
    assert out == ""
    assert f"error: the map {empty} holds no stickers" in err


def test_identify_names_candidates_missing_from_the_map(sticker_frame, capsys):
    map_path, frame = sticker_frame
    code, out, err = run(capsys, [
        "identify", "--map", str(map_path), "--image", str(frame), "--binning", "4",
        "--candidates", "4,99,7",
    ])
    assert code == 1
    assert out == ""
    assert "error: candidate ids not in the map: 99, 7" in err


def test_readme_usage_lists_every_command():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"^floortag ([a-z-]+)", readme, flags=re.MULTILINE))
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert documented == set(subparsers.choices)


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["localize", "--bogus-flag"])
    assert exc.value.code == 2


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, [
        "localize", "--map", "/nonexistent/map.csv", "--image", "/nonexistent/img.pgm",
    ])
    assert code == 1
    assert "error" in err
