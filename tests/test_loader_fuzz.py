"""Arbitrary bytes never escape a file loader as anything but that loader's own error.

Each loader gets raw bytes, UTF-8 text, and text shaped like its own format
(the right keywords and separators around numbers, junk and extreme values),
so that the fuzzing reaches the field checks and not only the first line.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floortag.geometry import CameraIntrinsics, IntrinsicsFormatError, load_intrinsics
from floortag.imaging import GreyImage, PgmError, load_pgm
from floortag.simulate import TruthFormatError, load_truth
from floortag.warehouse import CSV_HEADER, MapFormatError, WarehouseMap, load_map

# name: (loader, its error type, the type of what it returns)
LOADERS = {
    "pgm": (load_pgm, PgmError, GreyImage),
    "map": (load_map, MapFormatError, WarehouseMap),
    "truth": (load_truth, TruthFormatError, tuple),
    "intrinsics": (load_intrinsics, IntrinsicsFormatError, CameraIntrinsics),
}

FUZZ = settings(max_examples=100, deadline=None, derandomize=True)

# Field values: numbers, the non-finite spellings, a value past int()'s
# 4300-digit limit, and short junk.
FIELD = st.one_of(
    st.integers(-(10**6), 10**6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "1e400", "0", "-0", "1_0", "9" * 4400, ""]),
    st.text(max_size=6),
)


def _lines(line, header=()):
    return st.lists(line, max_size=6).map(lambda ls: "\n".join([*header, *ls]).encode())


FORMATTED = {
    "pgm": st.tuples(
        st.lists(
            st.one_of(
                st.sampled_from([b"1", b"2", b"3", b"255", b"0", b"65535", b"#c\n", b"9" * 4400]),
                st.binary(max_size=4),
            ),
            max_size=4,
        ),
        st.binary(max_size=12),
    ).map(lambda t: b"P5\n" + b" ".join(t[0]) + b"\n" + t[1]),
    "map": _lines(st.lists(FIELD, max_size=5).map(",".join), header=(CSV_HEADER,)),
    "truth": _lines(
        st.tuples(
            st.sampled_from(["camera", "sticker", "#", "marker"]), st.lists(FIELD, max_size=10)
        ).map(lambda t: " ".join([t[0], *t[1]]))
    ),
    "intrinsics": _lines(
        st.tuples(
            st.sampled_from(
                ["focal_m", "pixel_pitch_m", "width", "height", "cu_px", "cv_px", "skew", "#"]
            ),
            st.sampled_from([" = ", "=", " "]),
            FIELD,
        ).map("".join)
    ),
}


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def assert_loads_or_raises_own_error(name, path, data: bytes) -> None:
    loader, error, kind = LOADERS[name]
    path.write_bytes(data)
    try:
        value = loader(path)
    except error:
        return
    assert isinstance(value, kind)


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_survives_arbitrary_bytes(scratch, name):
    @FUZZ
    @given(st.binary(max_size=200))
    def check(data):
        assert_loads_or_raises_own_error(name, scratch, data)

    check()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_survives_arbitrary_text(scratch, name):
    @FUZZ
    @given(st.text(max_size=200))
    def check(text):
        assert_loads_or_raises_own_error(name, scratch, text.encode())

    check()


@pytest.mark.parametrize("name", sorted(LOADERS))
def test_loader_survives_text_shaped_like_its_format(scratch, name):
    @FUZZ
    @given(FORMATTED[name])
    def check(data):
        assert_loads_or_raises_own_error(name, scratch, data)

    check()
