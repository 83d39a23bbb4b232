"""Sticker registry: identities, ground poses, CSV persistence and candidate lookup."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import artwork


class MapFormatError(ValueError):
    pass


class UnknownPayloadError(KeyError):
    pass


@dataclass(frozen=True)
class StickerSpec:
    id: int
    world_x: float
    world_y: float
    yaw: float = 0.0

    @property
    def payloads(self) -> tuple[str, str, str, str]:
        """The texts of the sticker's four symbols, which its id determines."""
        return artwork.sticker_payloads(self.id)

    def corners_world(self) -> np.ndarray:
        return artwork.corners_world(self.world_x, self.world_y, self.yaw)


class WarehouseMap:
    """Immutable collection of stickers, indexed by id and by symbol payload."""

    def __init__(self, stickers):
        by_id: dict[int, StickerSpec] = {}
        for s in stickers:
            if s.id in by_id:
                raise MapFormatError(f"duplicate sticker id {s.id}")
            by_id[s.id] = s
        self._by_id = dict(sorted(by_id.items()))
        self._by_payload = {p: s.id for s in self._by_id.values() for p in s.payloads}

    def __len__(self) -> int:
        return len(self._by_id)

    def __iter__(self):
        return iter(self._by_id.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, WarehouseMap):
            return NotImplemented
        return self._by_id == other._by_id

    def get(self, sticker_id: int) -> StickerSpec:
        return self._by_id[sticker_id]

    @property
    def ids(self) -> list[int]:
        return list(self._by_id)


CSV_HEADER = "id,x_m,y_m,yaw_rad"


def save_map(warehouse_map: WarehouseMap, path) -> None:
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for s in warehouse_map:
            fh.write(f"{s.id},{float(s.world_x)!r},{float(s.world_y)!r},{float(s.yaw)!r}\n")


def load_map(path) -> WarehouseMap:
    """Parse the CSV map; errors carry the offending line number.

    Ids must fit the payload's four digits and coordinates must be finite.
    """
    stickers = []
    seen: dict[int, int] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().split("\n")
    except UnicodeDecodeError as exc:
        raise MapFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not lines or lines[0].strip() != CSV_HEADER:
        raise MapFormatError(f"{path}:1: expected header {CSV_HEADER!r}")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 4:
            raise MapFormatError(f"{path}:{lineno}: expected 4 fields, got {len(parts)}")
        try:
            sid = int(parts[0])
            x, y, yaw = (float(v) for v in parts[1:])
        except ValueError as exc:
            raise MapFormatError(f"{path}:{lineno}: {exc}") from None
        if not 0 <= sid <= artwork.MAX_STICKER_ID:
            raise MapFormatError(
                f"{path}:{lineno}: sticker id {sid} outside 0..{artwork.MAX_STICKER_ID}"
            )
        for name, value in zip(CSV_HEADER.split(",")[1:], (x, y, yaw)):
            if not math.isfinite(value):
                raise MapFormatError(f"{path}:{lineno}: {name} must be finite, got {value!r}")
        if sid in seen:
            raise MapFormatError(
                f"{path}:{lineno}: duplicate sticker id {sid} (first seen line {seen[sid]})"
            )
        seen[sid] = lineno
        stickers.append(StickerSpec(sid, x, y, yaw))
    return WarehouseMap(stickers)


def generate_grid_map(rows: int, cols: int, pitch_m: float) -> WarehouseMap:
    """Regular rows x cols grid at the given pitch; ids start at 1."""
    if rows < 1 or cols < 1:
        raise ValueError("rows and cols must be positive")
    if not math.isfinite(pitch_m) or pitch_m <= 0:
        raise ValueError(f"pitch must be positive and finite, got {pitch_m!r}")
    if pitch_m > 2.0:
        warnings.warn(
            f"pitch {pitch_m} m exceeds the 2 m sticker spacing the system is designed for",
            stacklevel=2,
        )
    stickers = []
    sid = 1
    for r in range(rows):
        for c in range(cols):
            stickers.append(StickerSpec(sid, c * pitch_m, r * pitch_m, 0.0))
            sid += 1
    return WarehouseMap(stickers)


def lookup_by_payload(warehouse_map: WarehouseMap, payload) -> StickerSpec:
    """Resolve a symbol payload (text or datamatrix.Payload) to its sticker."""
    try:
        text = payload if isinstance(payload, str) else payload.text
        sid = warehouse_map._by_payload[text]
    except (KeyError, ValueError) as exc:
        raise UnknownPayloadError(f"payload {payload!r} is not registered") from exc
    return warehouse_map.get(sid)


def candidate_stickers(
    warehouse_map: WarehouseMap, last_position=None, radius_m: float = 3.0
) -> list[int]:
    """Sticker ids within the radius of the last position, nearest first.

    Without a last position every sticker is a candidate, ordered by id.
    """
    if radius_m <= 0:
        raise ValueError("radius must be positive")
    if last_position is None:
        return warehouse_map.ids
    px, py = float(last_position[0]), float(last_position[1])
    scored = []
    for s in warehouse_map:
        d = float(np.hypot(s.world_x - px, s.world_y - py))
        if d <= radius_m:
            scored.append((d, s.id))
    scored.sort()
    return [sid for _, sid in scored]
