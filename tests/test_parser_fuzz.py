"""Generated-bytes fuzzing of the three file readers: only ParseError may escape."""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from batchsvd import ParseError, load_matrix, load_pgm, load_sparse

# tokens that exercise number parsing, line layout and encoding at once
_TOKENS = st.sampled_from([
    b"0", b"1", b"-2.5", b"3e2", b"1e999", b"nan", b"-inf", b"1_0", b"0x1f", b"x",
    b"9" * 30, b"255", b"256", b"-1", b" ", b"  ", b"\t", b"\n", b"\r\n", b"\r",
    b"#", b"\x00", b"\xff", b"\xc3\xa9",
])
_BODY = st.lists(_TOKENS | st.binary(max_size=4), max_size=40).map(b"".join)
_DIM = st.integers(-1, 4) | st.just(10**30)


def _header(*fields):
    return st.tuples(*fields).map(lambda t: " ".join(map(str, t)).encode() + b"\n")


_FILES = {
    load_matrix: _header(_DIM, _DIM),
    load_sparse: _header(_DIM, _DIM, _DIM),
    load_pgm: st.tuples(st.sampled_from([b"P2\n", b"P5 "]), _header(_DIM, _DIM, st.sampled_from(
        [0, 1, 255, 256]))).map(b"".join),
}


@pytest.mark.parametrize("reader", list(_FILES), ids=lambda f: f.__name__)
def test_readers_raise_only_parse_error(reader, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input"

    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=64) | st.tuples(_FILES[reader], _BODY).map(b"".join))
    def check(data):
        path.write_bytes(data)
        try:
            reader(path)
        except ParseError:
            pass

    check()
