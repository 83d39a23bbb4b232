import numpy as np
import pytest

from floortag.warehouse import (
    MapFormatError,
    StickerSpec,
    UnknownPayloadError,
    WarehouseMap,
    candidate_stickers,
    generate_grid_map,
    load_map,
    lookup_by_payload,
    save_map,
)


def test_sticker_spec_payloads_derived():
    s = StickerSpec(7, 1.0, 2.0)
    assert s.payloads == ("000700", "000701", "000702", "000703")


def test_map_rejects_duplicate_ids():
    with pytest.raises(MapFormatError):
        WarehouseMap([StickerSpec(1, 0, 0), StickerSpec(1, 1, 1)])


def test_empty_map_from_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("id,x_m,y_m,yaw_rad\n")
    assert len(load_map(path)) == 0


def test_save_load_round_trip(tmp_path):
    grid = generate_grid_map(10, 10, 1.5)
    path = tmp_path / "map.csv"
    save_map(grid, path)
    assert load_map(path) == grid


def test_load_rejects_duplicate_id_with_line(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("id,x_m,y_m,yaw_rad\n1,0,0,0\n2,1,0,0\n1,2,0,0\n")
    with pytest.raises(MapFormatError, match="4.*duplicate|duplicate.*1"):
        load_map(path)


def test_load_reports_parse_error_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x_m,y_m,yaw_rad\n1,0,0,0\n2,zero,0,0\n")
    with pytest.raises(MapFormatError, match=":3:"):
        load_map(path)


def test_load_counts_lines_at_newlines_only(tmp_path):
    # A form feed inside a line must not shift the line number of later errors.
    path = tmp_path / "ff.csv"
    path.write_text("id,x_m,y_m,yaw_rad\n1,0,0,0\x0c\n2,1,0\n")
    with pytest.raises(MapFormatError, match=":3: expected 4 fields"):
        load_map(path)


@pytest.mark.parametrize("sid", [10000, -1])
def test_load_rejects_id_outside_payload_range(tmp_path, sid):
    path = tmp_path / "ids.csv"
    path.write_text(f"id,x_m,y_m,yaw_rad\n1,0,0,0\n{sid},1,0,0\n")
    with pytest.raises(MapFormatError, match=f":3: sticker id {sid} outside 0..9999"):
        load_map(path)


@pytest.mark.parametrize("column", [1, 2, 3])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_load_rejects_non_finite_values(tmp_path, column, value):
    fields = ["2", "1.0", "0.0", "0.0"]
    fields[column] = value
    path = tmp_path / "finite.csv"
    path.write_text("id,x_m,y_m,yaw_rad\n1,0,0,0\n" + ",".join(fields) + "\n")
    name = ["id", "x_m", "y_m", "yaw_rad"][column]
    with pytest.raises(MapFormatError, match=f":3: {name} must be finite"):
        load_map(path)


def test_load_requires_header(tmp_path):
    path = tmp_path / "nohdr.csv"
    path.write_text("1,0,0,0\n")
    with pytest.raises(MapFormatError):
        load_map(path)


def test_generate_grid_single():
    m = generate_grid_map(1, 1, 1.0)
    assert len(m) == 1
    s = m.get(1)
    assert (s.world_x, s.world_y, s.yaw) == (0.0, 0.0, 0.0)


def test_generate_grid_3x3():
    m = generate_grid_map(3, 3, 1.5)
    assert len(m) == 9
    coords = [(s.world_x, s.world_y) for s in m]
    assert max(max(x, y) for x, y in coords) == pytest.approx(3.0)
    assert m.ids == list(range(1, 10))


def test_generate_grid_warns_above_two_metres():
    with pytest.warns(UserWarning, match="2 m"):
        m = generate_grid_map(2, 2, 2.5)
    assert len(m) == 4


def test_generate_grid_rejects_zero():
    with pytest.raises(ValueError):
        generate_grid_map(0, 3, 1.0)


@pytest.mark.parametrize("pitch", [float("nan"), float("inf")])
def test_generate_grid_rejects_a_pitch_that_is_not_finite(pitch):
    with pytest.raises(ValueError, match="pitch must be positive and finite"):
        generate_grid_map(2, 2, pitch)


def test_lookup_by_payload():
    m = generate_grid_map(3, 3, 1.0)
    s = lookup_by_payload(m, "000702")
    assert s.id == 7
    for q in range(4):
        assert lookup_by_payload(m, f"00070{q}").id == 7


def test_lookup_unknown_payload():
    m = generate_grid_map(2, 2, 1.0)
    with pytest.raises(UnknownPayloadError):
        lookup_by_payload(m, "999900")


def test_candidates_tight_radius():
    m = generate_grid_map(5, 5, 1.0)
    s = m.get(13)
    got = candidate_stickers(m, (s.world_x, s.world_y), 0.4)
    assert got == [13]


def test_candidates_tie_by_id():
    m = WarehouseMap([StickerSpec(4, 0.0, 0.0), StickerSpec(2, 2.0, 0.0)])
    got = candidate_stickers(m, (1.0, 0.0), 5.0)
    assert got == [2, 4]


def test_candidates_brute_force_oracle():
    m = generate_grid_map(10, 10, 1.0)
    centre = (4.5, 4.5)
    radius = 2.1
    got = candidate_stickers(m, centre, radius)
    expected = sorted(
        (
            (np.hypot(s.world_x - centre[0], s.world_y - centre[1]), s.id)
            for s in m
            if np.hypot(s.world_x - centre[0], s.world_y - centre[1]) <= radius
        ),
    )
    assert got == [sid for _, sid in expected]
    dists = [np.hypot(m.get(i).world_x - centre[0], m.get(i).world_y - centre[1]) for i in got]
    assert all(a <= b + 1e-12 for a, b in zip(dists, dists[1:]))


def test_candidates_without_position_returns_all():
    m = generate_grid_map(3, 2, 1.0)
    assert candidate_stickers(m, None, 1.0) == m.ids


def test_candidates_rejects_bad_radius():
    m = generate_grid_map(2, 2, 1.0)
    with pytest.raises(ValueError):
        candidate_stickers(m, (0, 0), 0.0)
