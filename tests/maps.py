"""Warehouse maps that the tests build by hand."""

from floortag.warehouse import StickerSpec, WarehouseMap


def single_sticker_map(sticker: StickerSpec | None = None) -> WarehouseMap:
    """One sticker, by default sticker 1 at the origin; convenient for focused tests."""
    return WarehouseMap([sticker or StickerSpec(1, 0.0, 0.0, 0.0)])
