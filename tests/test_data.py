import dataclasses
import gzip
import tracemalloc

import numpy as np
import pytest

from fedpower import data, linalg, privacy
from fedpower.data import ShardedDataset, SyntheticSpec
from fedpower.errors import DimensionMismatch, IndexOutOfRange, NonFinite, ParseError, TooManyShards
from reference import is_orthonormal
from tables import table_test


# ---------------------------------------------------------------- libsvm


def test_parse_basic_row(tmp_path):
    path = tmp_path / "tiny.libsvm"
    path.write_text("1 1:0.5 3:-1.2\n")
    matrix, labels = data.parse_libsvm(path, d=3)
    np.testing.assert_array_equal(matrix, [[0.5, 0.0, -1.2]])
    np.testing.assert_array_equal(labels, [1.0])


def test_parse_label_only_row(tmp_path):
    path = tmp_path / "empty.libsvm"
    path.write_text("0\n")
    matrix, labels = data.parse_libsvm(path, d=2)
    np.testing.assert_array_equal(matrix, [[0.0, 0.0]])
    np.testing.assert_array_equal(labels, [0.0])


def test_parse_infers_width(tmp_path):
    path = tmp_path / "w.libsvm"
    path.write_text("1 2:1.0\n-1 5:2.0\n")
    matrix, _ = data.parse_libsvm(path)
    assert matrix.shape == (2, 5)
    assert matrix[1, 4] == 2.0


def test_write_parse_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    original = rng.standard_normal((20, 6))
    original[rng.random((20, 6)) < 0.3] = 0.0  # exercise sparsity
    labels = rng.integers(0, 2, 20).astype(float)
    path = tmp_path / "round.libsvm"
    data.write_libsvm(path, original, labels)
    matrix, got_labels = data.parse_libsvm(path, d=6)
    np.testing.assert_array_equal(matrix, original)
    np.testing.assert_array_equal(got_labels, labels)


def test_parse_gzip_transparent(tmp_path):
    path = tmp_path / "z.libsvm.gz"
    with gzip.open(path, "wt") as fh:
        fh.write("1 1:2.0\n")
    matrix, _ = data.parse_libsvm(path)
    np.testing.assert_array_equal(matrix, [[2.0]])


def test_parse_error_reports_line_and_offset(tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_text("1 1:0.5\n1 oops\n")
    with pytest.raises(ParseError) as err:
        data.parse_libsvm(path)
    assert err.value.line == 2
    assert err.value.offset == len("1 1:0.5\n")


def test_parse_rejects_non_increasing_indices(tmp_path):
    path = tmp_path / "order.libsvm"
    path.write_text("1 2:1.0 2:2.0\n")
    with pytest.raises(ParseError):
        data.parse_libsvm(path)
    path.write_text("1 0:1.0\n")
    with pytest.raises(ParseError):
        data.parse_libsvm(path)


def test_parse_index_out_of_range(tmp_path):
    path = tmp_path / "wide.libsvm"
    path.write_text("1 4:1.0\n")
    with pytest.raises(IndexOutOfRange):
        data.parse_libsvm(path, d=3)


GOOD_LINE = b"1 1:0.5 3:-2\n"  # 13 bytes: the bad line after it starts at byte offset 13


def _bad(message):
    return ParseError, f"{message} (line 2, byte offset 13)", 2, 13


# Each file is GOOD_LINE plus a tail; the errors are the ones the line-by-line
# parser raised before the bulk path existed.
MALFORMED = {
    "bad label": (b"x 1:1\n", None, *_bad("bad label 'x'")),
    "label 1:2": (b"1:2 1:1\n", None, *_bad("bad label '1:2'")),
    "missing colon": (b"1 3\n", None, *_bad("expected idx:val, got '3'")),
    "empty value": (b"1 1:\n", None, *_bad("bad feature token '1:'")),
    "index 1.0": (b"1 1.0:2\n", None, *_bad("bad feature token '1.0:2'")),
    "index 1e0": (b"1 1e0:2\n", None, *_bad("bad feature token '1e0:2'")),
    "zero index": (b"1 0:2\n", None, *_bad("indices must be 1-based and strictly increasing, got 0 after 0")),
    "repeated index": (b"1 2:1 2:2\n", None, *_bad("indices must be 1-based and strictly increasing, got 2 after 2")),
    "decreasing index": (b"1 3:1 2:2\n", None, *_bad("indices must be 1-based and strictly increasing, got 2 after 3")),
    "nan value": (b"1 1:nan\n", None, *_bad("non-finite value in token '1:nan'")),
    "inf value": (b"1 2:inf\n", None, *_bad("non-finite value in token '2:inf'")),
    "1e400 value": (b"1 2:1e400\n", None, *_bad("non-finite value in token '2:1e400'")),
    "index above d": (b"1 4:1\n", 3, IndexOutOfRange,
                      "feature index 4 exceeds declared d=3 (line 2, byte offset 13)", 2, 13),
    "cr inside a line": (b"1\r2 1:3\n", None, *_bad("expected idx:val, got '2'")),
    "undecodable bytes": (b"1 1:\xff\n", None, *_bad(
        "undecodable bytes: 'utf-8' codec can't decode byte 0xff in position 4: invalid start byte")),
    "word for a value": (b"1 2:oops\n", None, *_bad("bad feature token '2:oops'")),
}


@pytest.mark.parametrize("tail, d, error, message, line, offset", MALFORMED.values(), ids=list(MALFORMED))
def test_malformed_file_raises_the_line_parsers_error(tail, d, error, message, line, offset, tmp_path):
    path = tmp_path / "bad.libsvm"
    path.write_bytes(GOOD_LINE + tail)
    with pytest.raises(error) as err:
        data.parse_libsvm(path, d)
    assert str(err.value) == message
    assert (getattr(err.value, "line", None), getattr(err.value, "offset", None)) == (line, offset)


# Spellings outside the form write_libsvm writes that the line-by-line parser
# accepts, with the matrix and labels it returned for GOOD_LINE plus the tail.
ACCEPTED = {
    "index +1": (b"1 +1:2\n", [[0.5, 0, -2], [2, 0, 0]], [1, 1]),
    "index 01": (b"1 01:2\n", [[0.5, 0, -2], [2, 0, 0]], [1, 1]),
    "index 1_0": (b"1 1_0:2\n", [[0.5, 0, -2, 0, 0, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, 0, 0, 2]], [1, 1]),
    "label 1e400": (b"1e400 2:1\n", [[0.5, 0, -2], [0, 1, 0]], [1, np.inf]),
    "crlf": (b"2 2:1\r\n-1 1:3\r\n", [[0.5, 0, -2], [0, 1, 0], [3, 0, 0]], [1, 2, -1]),
    "tabs": (b"2\t2:1 \t3:4\n", [[0.5, 0, -2], [0, 1, 4]], [1, 2]),
    "lone cr": (b"2 2:1\r3:4\n", [[0.5, 0, -2], [0, 1, 4]], [1, 2]),  # a line ends at "\n" only
    "space before crlf": (b"2 2:1 \r\n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "blank crlf line": (b"\r\n2 2:1\r\n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "leading spaces": (b"  2 2:1\n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "blank and whitespace-only lines": (b"\n \t\n2 2:1\n\n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "no final newline": (b"2 2:1", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "blank line, then no final newline": (b"\n2 2:5", [[0.5, 0, -2], [0, 5, 0]], [1, 2]),
    "doubled space": (b"2  2:1\n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "trailing space": (b"2 2:1 \n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
    "doubled trailing space": (b"2 2:1  \n", [[0.5, 0, -2], [0, 1, 0]], [1, 2]),
}


@pytest.mark.parametrize("tail, matrix, labels", ACCEPTED.values(), ids=list(ACCEPTED))
def test_loose_spellings_parse_as_before(tail, matrix, labels, tmp_path):
    path = tmp_path / "loose.libsvm"
    path.write_bytes(GOOD_LINE + tail)
    got_matrix, got_labels = data.parse_libsvm(path)
    np.testing.assert_array_equal(got_matrix, matrix)
    np.testing.assert_array_equal(got_labels, labels)


def test_parse_empty_file(tmp_path):
    path = tmp_path / "empty.libsvm"
    path.write_bytes(b"")
    matrix, labels = data.parse_libsvm(path)
    assert matrix.shape == (0, 0) and labels.shape == (0,) and labels.dtype == np.float64
    assert data.parse_libsvm(path, d=4)[0].shape == (0, 4)


def test_gzip_error_offset_counts_decompressed_bytes(tmp_path):
    path = tmp_path / "bad.libsvm.gz"
    path.write_bytes(gzip.compress(GOOD_LINE * 3 + b"1 2:1 1:1\n"))
    with pytest.raises(ParseError) as err:
        data.parse_libsvm(path)
    assert str(err.value) == (
        "indices must be 1-based and strictly increasing, got 1 after 2 (line 4, byte offset 39)"
    )
    assert (err.value.line, err.value.offset) == (4, 39)


@pytest.mark.parametrize("bad, message", [
    (b"1 2:1 2:1\n", "indices must be 1-based and strictly increasing, got 2 after 2"),
    (b"1:2 3:4\n", "bad label '1:2'"),
    (b"1 1:1.2.3\n", "bad feature token '1:1.2.3'"),  # passes the byte and structure checks; np.fromstring rejects it
])
def test_bad_line_after_many_chunks_reports_its_offset_in_the_file(bad, message, tmp_path, monkeypatch):
    # 32-byte reads end mid-line and are extended over three lines, so line 40 starts chunk 14.
    monkeypatch.setattr(data, "_CHUNK_BYTES", 32)
    path = tmp_path / "late.libsvm"
    path.write_bytes(GOOD_LINE * 39 + bad + GOOD_LINE)
    with pytest.raises(ParseError) as err:
        data.parse_libsvm(path)
    assert str(err.value) == f"{message} (line 40, byte offset 507)"
    assert (err.value.line, err.value.offset) == (40, 507)


@pytest.mark.parametrize("tail", [b"", b"2\t2:1\n"])  # the bulk path, and a tab that sends the file to the line loop
def test_dense_entry_limit_is_checked_before_the_matrix_is_allocated(tail, tmp_path, monkeypatch):
    monkeypatch.setattr(data, "DENSE_ENTRY_LIMIT", 5)
    path = tmp_path / "big.libsvm"
    path.write_bytes(GOOD_LINE * 2 + tail)
    rows = 2 + bool(tail)
    with pytest.raises(ParseError, match=rf"^dense matrix of {rows} x 3 exceeds the 5e\+00-entry limit$") as err:
        data.parse_libsvm(path)
    assert err.value.line is None


def _line_by_line(path, d=None):
    """``parse_libsvm`` with every chunk sent to the line parser: the reference."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(data, "_parse_chunk", lambda chunk, d: None)
        return data.parse_libsvm(path, d)


def _random_libsvm(rng, n: int, d: int) -> bytes:
    """LIBSVM text in many spellings of the strict form: 17-digit and
    exponent reprs, -0.0, subnormals, ``1e5``/``.5``/``5.``/``+3`` and
    label-only rows."""
    spellings = [
        lambda: repr(float(rng.standard_normal() * 10.0 ** rng.integers(-8, 9))),
        lambda: f"{rng.standard_normal():.17e}",
        lambda: f"{rng.standard_normal() * 1e-3:.16g}",
        lambda: "-0.0",
        lambda: repr(float(rng.integers(1, 2**20)) * 5e-324),
        lambda: repr(float(rng.random()) * 2.2250738585072014e-308),
        lambda: rng.choice(["1e5", ".5", "5.", "+3", "-2E-3", "0", "7"]),
    ]
    lines = []
    for _ in range(n):
        cols = np.sort(rng.choice(d, size=rng.integers(0, d + 1), replace=False)) + 1
        fields = [spellings[rng.integers(len(spellings))]()]
        fields += [f"{c}:{spellings[rng.integers(len(spellings))]()}" for c in cols]
        lines.append(" ".join(fields) + "\n")
    return "".join(lines).encode()


@pytest.mark.parametrize("chunk_bytes", [1 << 20, 97])
@pytest.mark.parametrize("declared", [True, False])
def test_bulk_parse_equals_the_line_parser_bit_for_bit(chunk_bytes, declared, tmp_path, monkeypatch):
    rng = np.random.default_rng(36)
    path = tmp_path / "random.libsvm"
    path.write_bytes(_random_libsvm(rng, 300, 25))
    d = 30 if declared else None
    want_matrix, want_labels = _line_by_line(path, d)
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk_bytes)
    chunks = []
    real_chunk = data._parse_chunk
    monkeypatch.setattr(data, "_parse_chunk", lambda chunk, d: chunks.append(len(chunk)) or real_chunk(chunk, d))
    monkeypatch.setattr(data, "_parse_lines", None)  # the bulk path must take every chunk
    matrix, labels = data.parse_libsvm(path, d)
    assert matrix.shape == want_matrix.shape and labels.shape == want_labels.shape
    np.testing.assert_array_equal(matrix.view(np.int64), want_matrix.view(np.int64))
    np.testing.assert_array_equal(labels.view(np.int64), want_labels.view(np.int64))
    if chunk_bytes < 1 << 20:  # many chunks, some extended over a line that straddles their edge
        assert len(chunks) > 50 and max(chunks) > chunk_bytes


def test_a_blank_last_line_sends_only_its_chunk_to_the_line_parser(tmp_path, monkeypatch):
    monkeypatch.setattr(data, "_CHUNK_BYTES", 64)
    path = tmp_path / "blank.libsvm"
    path.write_bytes(GOOD_LINE * 200 + b"\n")
    sent = []
    real_lines = data._parse_lines
    monkeypatch.setattr(data, "_parse_lines", lambda chunk, *args: sent.append(len(chunk)) or real_lines(chunk, *args))
    matrix, labels = data.parse_libsvm(path)
    assert len(sent) == 1 and sent[0] <= 64 + len(GOOD_LINE)
    np.testing.assert_array_equal(matrix, np.tile([0.5, 0, -2], (200, 1)))
    np.testing.assert_array_equal(labels, np.ones(200))


def test_a_gzip_file_with_a_loose_line_is_opened_once(tmp_path, monkeypatch):
    path = tmp_path / "loose.libsvm.gz"
    path.write_bytes(gzip.compress(GOOD_LINE + b"2\t2:1\n"))
    opened = []
    real_open = gzip.open
    monkeypatch.setattr(gzip, "open", lambda *args: opened.append(args) or real_open(*args))
    matrix, _ = data.parse_libsvm(path)
    assert len(opened) == 1
    np.testing.assert_array_equal(matrix, [[0.5, 0, -2], [0, 1, 0]])


@pytest.mark.parametrize("chunk_bytes", [1 << 20, 97])
def test_svm_scale_output_stays_on_the_bulk_path(chunk_bytes, tmp_path, monkeypatch):
    # LIBSVM's svm-scale prints each feature as "%d:%g " and then "\n", so every line
    # ends in " \n", and a line of a label only in "1 \n".
    plain, scaled = tmp_path / "plain.libsvm", tmp_path / "scaled.libsvm"
    plain.write_bytes(_random_libsvm(np.random.default_rng(38), 200, 12) + b"1\n")
    scaled.write_bytes(plain.read_bytes().replace(b"\n", b" \n"))
    want_matrix, want_labels = data.parse_libsvm(plain)
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk_bytes)
    monkeypatch.setattr(data, "_parse_lines", None)  # the bulk path must take every chunk
    matrix, labels = data.parse_libsvm(scaled)
    assert matrix.shape == want_matrix.shape and labels.shape == want_labels.shape
    np.testing.assert_array_equal(matrix.view(np.int64), want_matrix.view(np.int64))
    np.testing.assert_array_equal(labels.view(np.int64), want_labels.view(np.int64))


@pytest.mark.parametrize("chunk_bytes", [1 << 20, 97])
def test_crlf_line_ends_stay_on_the_bulk_path(chunk_bytes, tmp_path, monkeypatch):
    plain, crlf = tmp_path / "plain.libsvm", tmp_path / "crlf.libsvm"
    plain.write_bytes(_random_libsvm(np.random.default_rng(40), 200, 12) + b"1\n")
    crlf.write_bytes(plain.read_bytes().replace(b"\n", b"\r\n"))
    want_matrix, want_labels = data.parse_libsvm(plain)
    monkeypatch.setattr(data, "_CHUNK_BYTES", chunk_bytes)
    sent = []
    real_lines = data._parse_lines
    monkeypatch.setattr(data, "_parse_lines", lambda chunk, *args: sent.append(chunk) or real_lines(chunk, *args))
    matrix, labels = data.parse_libsvm(crlf)
    assert sent == []
    assert matrix.shape == want_matrix.shape and labels.shape == want_labels.shape
    np.testing.assert_array_equal(matrix.view(np.int64), want_matrix.view(np.int64))
    np.testing.assert_array_equal(labels.view(np.int64), want_labels.view(np.int64))


@pytest.mark.parametrize("name", ["lone cr", "space before crlf", "blank crlf line"])
def test_a_cr_that_is_not_one_line_end_goes_to_the_line_parser(name, tmp_path, monkeypatch):
    tail, matrix, labels = ACCEPTED[name]
    path = tmp_path / "loose.libsvm"
    path.write_bytes(GOOD_LINE + tail)
    sent = []
    real_lines = data._parse_lines
    monkeypatch.setattr(data, "_parse_lines", lambda chunk, *args: sent.append(chunk) or real_lines(chunk, *args))
    got_matrix, got_labels = data.parse_libsvm(path)
    assert sent == [GOOD_LINE + tail]
    np.testing.assert_array_equal(got_matrix, matrix)
    np.testing.assert_array_equal(got_labels, labels)


def test_bulk_parse_equals_the_line_parser_on_random_mixed_files(tmp_path):
    # Strict lines, loose spellings and at most one malformed line, in random order and
    # chunk sizes: the result, or the first error with its line and offset, is the reference's.
    rng = np.random.default_rng(39)
    path = tmp_path / "mixed.libsvm"
    loose = [tail for tail, _, _ in ACCEPTED.values()]
    malformed = [tail for tail, *_ in MALFORMED.values()]
    for _ in range(200):
        pieces = [_random_libsvm(rng, int(rng.integers(0, 4)), 12) for _ in range(int(rng.integers(1, 7)))]
        pieces += [loose[i] for i in rng.integers(len(loose), size=int(rng.integers(0, 3)))]
        if rng.random() < 0.5:
            pieces.append(malformed[rng.integers(len(malformed))])
        path.write_bytes(b"".join(pieces[i] for i in rng.permutation(len(pieces))))
        d = None if rng.random() < 0.5 else 12
        try:
            want = _line_by_line(path, d)  # one chunk: the file is far below _CHUNK_BYTES
        except ParseError as exc:
            want = exc
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(data, "_CHUNK_BYTES", int(rng.integers(32, 4097)))
            try:
                got = data.parse_libsvm(path, d)
            except ParseError as exc:
                got = exc
        if isinstance(want, ParseError):
            assert type(got) is type(want)
            assert (str(got), got.line, got.offset) == (str(want), want.line, want.offset)
        else:
            for got_array, want_array in zip(got, want):
                assert got_array.shape == want_array.shape
                np.testing.assert_array_equal(got_array.view(np.int64), want_array.view(np.int64))


def test_an_index_beyond_int64_is_refused_by_the_dense_entry_limit(tmp_path):
    path = tmp_path / "huge.libsvm"
    path.write_bytes(GOOD_LINE + b"1 %d:2\n" % 10**30)
    with pytest.raises(ParseError, match=rf"^dense matrix of 2 x {10**30} exceeds the 1e\+08-entry limit$"):
        data.parse_libsvm(path)


@pytest.mark.parametrize("chunk", [b"\n", b" \n", b"\r\n"])
def test_a_chunk_led_by_a_blank_is_left_to_the_line_parser(chunk):
    # np.fromstring reads a text of blanks only as [-1.0]: "\n" alone came back as a row labelled -1.
    assert data._parse_chunk(chunk, None) is None


def test_chunk_decodes_indices_of_one_to_nine_digits():
    # The bit-for-bit file above has indices of one or two digits only.
    tokens = [b"7", b"99", b"12345678", b"99999999", b"123456789"]
    chunk = b"1 " + b" ".join(t + b":%d" % v for v, t in enumerate(tokens)) + b"\n-1 007:5\n2\n"
    labels, counts, indices, values = data._parse_chunk(chunk, None)
    assert indices.tolist() == [int(t) for t in tokens] + [int(b"007")]
    assert counts.tolist() == [5, 1, 0]
    assert labels.tolist() == [1, -1, 2] and values.tolist() == [0, 1, 2, 3, 4, 5]


def test_chunk_decodes_every_digit_in_every_place():
    # 300 or 70000 overflow a narrow product, and 999999999 needs int32.
    want = sorted({digit * 10**place for digit in range(1, 10) for place in range(9)} | {999999999})
    chunk = b"1 " + b" ".join(b"%d:1" % i for i in want) + b"\n"
    assert data._parse_chunk(chunk, None)[2].tolist() == want


UNDECODED = {
    "10 digits": b"1 0000000002:2\n",
    "10 digits above the entry limit": b"1 1234567890:2\n",
    "empty index": b"1 :2\n",
    "empty second index": b"1 2:3 :4\n",
    "index +1": b"1 +1:2\n",
    "index 1.0": b"1 1.0:2\n",
    "index 1e2": b"1 1e2:2\n",
}


@pytest.mark.parametrize("tail", UNDECODED.values(), ids=list(UNDECODED))
def test_chunk_leaves_an_index_it_does_not_decode_to_the_line_parser(tail, tmp_path):
    assert data._parse_chunk(GOOD_LINE + tail, None) is None
    path = tmp_path / "index.libsvm"
    path.write_bytes(GOOD_LINE + tail)
    try:
        want_matrix, want_labels = _line_by_line(path)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            data.parse_libsvm(path)
        assert str(err.value) == str(exc)
    else:
        matrix, labels = data.parse_libsvm(path)
        np.testing.assert_array_equal(matrix, want_matrix)
        np.testing.assert_array_equal(labels, want_labels)


def _traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory it allocated, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_holds_no_more_than_the_sparse_entries_and_the_matrix(tmp_path, monkeypatch):
    # Small chunks keep the chunk buffers minor. A dense file's entries (8-byte values, 4-byte
    # indices) are 1.5x the matrix; concatenating them and a file-wide row index peaked at 5.6x.
    monkeypatch.setattr(data, "_CHUNK_BYTES", 1 << 14)
    matrix = np.random.default_rng(37).standard_normal((2000, 40))
    path = tmp_path / "dense.libsvm"
    data.write_libsvm(path, matrix)
    (got, _), peak = _traced_peak(data.parse_libsvm, path)
    np.testing.assert_array_equal(got, matrix)
    assert peak <= 3 * matrix.nbytes


# ---------------------------------------------------------------- scaling


def test_scale_features_examples():
    a = np.array([[-5.0, 0.0, 0.0], [5.0, 10.0, 0.0]])
    scaled = data.scale_features(a)
    np.testing.assert_array_equal(scaled[:, 0], [-1.0, 1.0])
    np.testing.assert_array_equal(scaled[:, 1], [0.0, 1.0])
    np.testing.assert_array_equal(scaled[:, 2], [0.0, 0.0])
    assert np.abs(scaled).max() <= 1.0


def test_scale_features_allocates_one_matrix():
    # A copy plus a full-size np.abs temporary allocated twice the matrix.
    a = np.random.default_rng(38).standard_normal((2000, 40))
    scaled, peak = _traced_peak(data.scale_features, a)
    assert peak < 1.2 * a.nbytes
    np.testing.assert_array_equal(scaled, a / np.abs(a).max(axis=0))


def test_scale_features_idempotent():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((15, 4)) * 7.0
    once = data.scale_features(a)
    twice = data.scale_features(once)
    np.testing.assert_array_equal(once, twice)


# ---------------------------------------------------------------- partitioning


def test_partition_remainder_rule():
    a = np.arange(30.0).reshape(10, 3)
    ds = data.partition(a, 3)
    assert ds.sizes == (4, 3, 3)
    np.testing.assert_array_equal(ds.stacked(), a)  # contiguous keeps order


def test_partition_single_shard():
    a = np.arange(8.0).reshape(4, 2)
    ds = data.partition(a, 1)
    np.testing.assert_array_equal(ds.shards[0], a)


def test_partition_shuffled_deterministic_and_preserves_rows():
    rng = np.random.default_rng(33)
    a = rng.standard_normal((11, 2))
    ds1 = data.partition(a, 4, mode="shuffled", seed=5)
    ds2 = data.partition(a, 4, mode="shuffled", seed=5)
    for s1, s2 in zip(ds1.shards, ds2.shards):
        np.testing.assert_array_equal(s1, s2)
    assert ds1.sizes == (3, 3, 3, 2)
    # every row exactly once: the rows are distinct, so sorted equality rules out repeats and losses
    original = sorted(map(tuple, a))
    scattered = sorted(map(tuple, ds1.stacked()))
    assert len(set(original)) == a.shape[0]
    assert original == scattered


PARTITION_MODES = [{"mode": "contiguous"}, {"mode": "shuffled", "seed": 5}]


@pytest.mark.parametrize("mode", PARTITION_MODES, ids=lambda kw: kw["mode"])
def test_partition_shards_are_read_only(mode):
    ds = data.partition(np.arange(22.0).reshape(11, 2), 4, **mode)
    for shard in ds.shards:
        assert not shard.flags.writeable
        with pytest.raises(ValueError):
            shard[0, 0] = -1.0
        with pytest.raises(ValueError):
            shard *= 2.0


@pytest.mark.parametrize("mode", PARTITION_MODES, ids=lambda kw: kw["mode"])
def test_partition_shards_do_not_alias_the_input(mode):
    a = np.arange(22.0).reshape(11, 2)
    ds = data.partition(a, 4, **mode)
    before = [s.copy() for s in ds.shards]
    a[:] = -1.0
    for shard, kept in zip(ds.shards, before):
        np.testing.assert_array_equal(shard, kept)
    assert a.flags.writeable  # the caller's matrix stays theirs


def test_partition_too_many_shards():
    with pytest.raises(TooManyShards):
        data.partition(np.ones((3, 2)), 4)


def test_partition_shuffled_requires_seed():
    with pytest.raises(ValueError):
        data.partition(np.ones((4, 2)), 2, mode="shuffled")


def test_dataset_needs_a_column():
    with pytest.raises(DimensionMismatch, match="at least one column"):
        ShardedDataset((np.zeros((3, 0)), np.zeros((2, 0))))
    with pytest.raises(DimensionMismatch, match="at least one column"):
        data.partition(np.zeros((4, 0)), 2)


def test_overflowing_second_moments_raise_non_finite():
    ds = ShardedDataset((np.full((3, 2), 1e160), np.ones((2, 2))))
    with pytest.raises(NonFinite, match="second-moment"):
        ds.global_gram()


# ---------------------------------------------------------------- operators against their Gram-stack definitions
# One harness checks every ShardedDataset operator on every row of OPERATOR_ROWS against definitions built from
# each shard's own rows. The table groups its rows by what they show; a group's cases keep the ids they had as
# a test function. The tests after it show mechanisms that no definition fixes.


@dataclasses.dataclass(frozen=True)
class Operands:
    """A dataset and the arguments its operators take.

    With an integer ``rows``, the dataset is that many seeded Gaussian rows with column scales
    ``geomspace(*columns, d)`` (or ``synth`` of that spectrum), times ``scale``, split into m shards: shuffled
    with ``partition_seed``, or contiguous when it is None. With a tuple, it is one such shard of each height,
    of which ``pattern`` picks the dataset's shards in order. The bases are two (m, d, r) stacks of orthonormal
    bases; the local steps start from the first in stretches of each length. A row that sets ``chunk`` pins
    the number of steps that one QR takes: 1 off the eigenbasis route.
    """

    rows: int | tuple
    d: int
    seed: int
    m: int = 1
    partition_seed: int | None = None
    columns: tuple = (10.0, 0.1)
    synthetic: bool = False
    scale: float = 1.0
    pattern: tuple | None = None
    k: int = 3
    r: int = 3
    stretches: tuple = (1, 2, 3, 4)
    chunk: int | None = None

    def build(self) -> tuple[ShardedDataset, np.ndarray]:
        rng = np.random.default_rng(self.seed)
        columns = np.geomspace(*self.columns, self.d)
        if isinstance(self.rows, tuple):
            shards = [rng.standard_normal((n, self.d)) * columns * self.scale for n in self.rows]
            ds = ShardedDataset(tuple(shards[i] for i in self.pattern or range(len(shards))))
        else:
            a = (data.synth(SyntheticSpec(self.rows, self.d, tuple(columns), seed=self.seed)) if self.synthetic
                 else rng.standard_normal((self.rows, self.d)) * columns) * self.scale
            mode = "contiguous" if self.partition_seed is None else "shuffled"
            ds = data.partition(a, self.m, mode=mode, seed=self.partition_seed)
        return ds, linalg.orth(rng.standard_normal((2, ds.m, self.d, self.r)))


def _chunk(grams, r):
    # The largest q with min_i (lambda_ir / lambda_i1)**q >= the floor, from the shard Grams' own eigenvalues.
    lam = np.linalg.eigvalsh(grams)[:, ::-1]
    worst = float((lam[:, r - 1] / lam[:, 0]).min())
    q = 1
    while worst ** (q + 1) >= data._CHUNK_FLOOR:
        q += 1
    return q


def _counting_orth(monkeypatch):
    calls = []
    monkeypatch.setattr(data, "orth", lambda y, **kw: calls.append(y.shape) or linalg.orth(y, **kw))
    return calls


def check_operators(row: Operands, monkeypatch) -> None:
    """Every ShardedDataset operator on ``row`` against its definition from the shards' own Grams."""
    ds, bases = row.build()
    zs, m, d, h, k, r = bases[0], ds.m, ds.d, max(ds.sizes), row.k, row.r
    grams = np.stack([linalg.gram(s) for s in ds.shards])
    row_path = 2 * h < d  # the products apply the shards' row factor

    # (a) Grams: the stack has each shard's bits, the global Gram those of their weighted sum.
    assert abs(ds.weights.sum() - 1.0) <= 1e-12
    assert np.array_equal(ds.shard_grams, grams)
    assert np.array_equal(ds.global_gram(), np.tensordot(ds.weights, grams, axes=1))
    direct = linalg.gram(ds.stacked())
    assert np.abs(ds.global_gram() - direct).max() <= 1e-13 * np.abs(direct).max()

    # (c) Products: the Gram products, through the row factor only on the row path; a member subset, a shared
    # basis and a stack of bases per budget give the bits of their slices of lone calls.
    got, want = ds.local_products(zs), grams @ zs
    assert ("_row_factor" in vars(ds)) == row_path
    assert got.shape == want.shape and np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    ids = np.arange(0, m, 2)
    assert np.array_equal(ds.local_products(zs[ids], ids), got[ids])
    assert np.array_equal(ds.local_products(zs[:1], ids), ds.local_products(np.repeat(zs[:1], m, axis=0))[ids])
    assert np.array_equal(ds.local_products(bases), [ds.local_products(b) for b in bases])
    assert np.array_equal(ds.local_products(bases[:, ids], ids), [ds.local_products(b[ids], ids) for b in bases])
    if row_path:
        v, lam = ds._row_factor
        assert v.shape == (m, d, h) and lam.shape == (m, h)
        assert np.abs(np.swapaxes(v, 1, 2) @ v - np.eye(h)).max() <= 1e-13
        assert (np.diff(lam, axis=1) <= 0.0).all()  # descending
        rebuilt = v @ (lam[:, :, None] * np.swapaxes(v, 1, 2))  # M_i = V_i diag(lam_i) V_i.T
        assert np.abs(rebuilt - grams).max() <= 1e-13 * np.abs(grams).max()

    # (d, e) Steps: each stretch is repeated orth of the Gram products, taken in one QR per chunk in the row
    # factor's eigenbases and one QR per step otherwise. A shard shorter than r gives a rank-deficient step,
    # whose basis orth completes from rounding noise, so there only the QRs are counted.
    assert ds.local_steps(zs, 0) is zs
    eigenbasis = row_path and ds.min_shard_size >= r
    chunk = _chunk(grams, r) if eigenbasis else 1
    assert row.chunk in (None, chunk)
    calls = _counting_orth(monkeypatch)
    want, done = zs, 0
    for steps in row.stretches:
        calls.clear()
        got = ds.local_steps(zs, steps)
        assert calls == [(m, h if eigenbasis else d, r)] * -(-steps // chunk), steps
        if ds.min_shard_size >= r:
            for _ in range(steps - done):
                want = linalg.orth(grams @ want, require_full_rank=False)
            done = steps
            assert np.abs(got - want).max() <= 1e-12, steps
    steps = row.stretches[0]
    assert np.array_equal(ds.local_steps(bases, steps), [ds.local_steps(b, steps) for b in bases])

    # (f) Eigenpairs: the top k of each Gram, read off the row factor on the row path with k <= h only.
    fresh = ShardedDataset(ds.shards)  # empty caches
    vecs, vals = fresh.local_eigenpairs(k)
    assert ("_row_factor" in vars(fresh)) == (row_path and k <= h)
    assert vecs.shape == (m, d, k) and vals.shape == (m, k)
    for v, lam, g, shard in zip(vecs, vals, grams, ds.shards):
        top = linalg.top_eigenpairs(g, k)
        # A shard of fewer than k rows fixes only its row space; the rest of the Gram's top k is an arbitrary
        # null-space basis, so there the vectors need only be orthonormal and in the null space.
        rank = min(shard.shape[0], k)
        assert is_orthonormal(v)
        assert linalg.projection_distance(v[:, :rank], top.u[:, :rank]) <= 1e-12
        np.testing.assert_allclose(lam[:rank], top.singular_values[:rank], rtol=1e-12)
        assert np.abs(lam[rank:]).max(initial=0.0) <= 1e-12 * lam[0]
        assert np.abs(shard @ v[:, rank:]).max(initial=0.0) <= 1e-12 * np.abs(shard).max()

    # (b) Caches are shared: a second call returns the same object, and a caller's write raises.
    for call in (lambda: ds.shard_grams, ds.global_gram, lambda: ds.reference_basis(k),
                 lambda: ds.local_eigenpairs(k), lambda: ds._row_factor if row_path else ()):
        cached = call()
        assert call() is cached
        for array in cached if isinstance(cached, tuple) else (cached,):
            with pytest.raises(ValueError):
                array *= 2.0
    assert np.array_equal(ds.reference_basis(k), linalg.top_eigenpairs(ds.global_gram(), k).u)

    # (g) eta: the largest shard_eta to the bit, each from a dataset of its own so that eta cannot read a
    # cached shard_eta, and its spectral-norm definition.
    eta = ShardedDataset(ds.shards).eta
    assert eta == max(ShardedDataset(ds.shards).shard_eta)
    m_global = ds.global_gram()
    want = np.linalg.norm(grams - m_global, 2, axis=(1, 2)).max() / np.linalg.norm(m_global, 2)
    assert abs(eta - want) <= 1e-13 * want


def _shard_rows(rows, **kw) -> Operands:
    return Operands(rows, 12, 36, columns=(5.0, 0.2), k=4, **kw)


# Shard heights around d = 12 with k = 4: shards near or above d/2, whose products use the Grams; shards
# below d/2 (the row path), some shorter than k; and shards below d/2 that are all shorter than k, so k > h.
SHARD_ROWS = [(5, 9, 3, 7), (20, 40, 17, 13), (2, 30, 12, 3), (5, 2, 4, 3, 5), (3, 2, 3)]
OPERATOR_ROWS = {
    "test_weights_and_gram_identity": {"": [Operands(23, 5, 34, 4, 2, columns=(1.0, 1.0))]},
    "test_global_gram_is_the_weighted_sum_of_shard_grams": {"": [Operands(61, 7, 35, 5, 3)]},
    # (n, d, m): shards shorter than d/2, equal and unequal, then as tall as d/2 or taller, and one shard.
    "test_local_products_equal_the_shard_grams_times_the_bases": {
        f"{n}-{d}-{m}": [Operands(n, d, n + d + m, m, 4)]
        for n, d, m in [(40, 12, 10), (125, 30, 10), (9, 20, 1), (100, 40, 5), (123, 10, 4), (30, 20, 1)]},
    # (n, d, m, r): shards of 3-4 rows with r = 3, in their row spaces; shards of 6-7 rows, in theirs; shards
    # of 10-11 rows with d = 20, through the Gram stack; one shard of 9 rows.
    "test_local_steps_equal_repeated_orth_of_the_gram_products": {
        f"{n}-{d}-{m}-{r}": [Operands(n, d, n + d + m + r, m, 5, r=r)]
        for n, d, m, r in [(38, 20, 12, 3), (62, 20, 9, 4), (103, 20, 10, 4), (9, 20, 1, 5)]},
    # Five shards with d = 20, in a stretch of two chunks and one step: of exactly r = 3 rows and of 8 rows,
    # both shorter than d/2, in chunks of 7 and 9 steps; of 12 rows (the Gram path) and of 2 rows (shorter
    # than r), one step each.
    "test_a_stretch_takes_one_qr_per_chunk_on_the_row_path": {
        name: [Operands(n, 20, n + 25, 5, 6, stretches=(2 * chunk + 1,), chunk=chunk)]
        for name, n, chunk in [("r-rows", 15, 7), ("taller", 40, 9), ("grams", 60, 1), ("short", 10, 1)]},
    # 300 shards of 33-34 rows with d = 100 and r = 10, as in compare-many-shards, with its own geometric
    # spectrum (worst lambda_1 / lambda_r over the shards about 8) and a wider one (about 90). Both routes
    # differ by rounding only, but a QR basis column is as sensitive to it as its shard's eigenvalues are
    # close: on other data of this shape, single steps in the eigenbasis differed from Gram steps by up to
    # 5e-12, and single steps through M_i = P_i K_i P_i.T (A_i.T = P_i T_i) by up to 6e-12.
    "test_long_stretches_equal_single_gram_steps": {
        name: [Operands(10000, 100, 6, 300, 6, spectrum, synthetic=True, k=10, r=10, stretches=(3, 20, 160, 320, 640))]
        for name, spectrum in [("geometric", (20.0, 0.05)), ("wide", (1e4, 1e-4))]},
    "test_global_gram_is_built_once_and_read_only": {"": [Operands(40, 6, 37, 4, columns=(1.0, 1.0), k=2)]},
    "test_eta_equals_its_spectral_norm_definition": {
        f"rows{i}": [_shard_rows(rows)] for i, rows in enumerate(SHARD_ROWS)},
    # 2**-250 and 2**250 scale every entry of M_i - M by 2**-500 or 2**500: its unscaled fourth power
    # underflows to 0 or overflows, so only a bound that first divides by max|M_i - M| ranks the shards.
    "test_eta_is_the_largest_shard_eta_to_the_bit": {
        f"rows{i}-{scale}": [_shard_rows(rows, scale=scale)]
        for i, rows in enumerate(SHARD_ROWS) for scale in (1.0, 2.0**-250, 2.0**250)},
    # Ten shards of 400 rows from one distribution: their norms lie within the bounds' slack of one another, so
    # eta takes the exact norms of four shards, the largest not the last, before a bound falls below it.
    "test_eta_takes_the_largest_of_the_norms_it_visits": {"": [Operands(4000, 12, 7, 10, 1, columns=(1.0, 1.0))]},
    # Tied bounds and norms, then shards that all equal M.
    "test_eta_is_exact_on_replicated_shards": {"": [_shard_rows((7, 9), pattern=p)
                                                    for p in [(0, 1, 0, 1, 1), (0, 0, 0)]]},
    # M = 1.0 * M_1 is M_1 to the bit, so M_1 - M is 0, and so is eta.
    "test_eta_of_one_shard_is_zero": {"": [_shard_rows((20,))]},
    "test_local_eigenpairs_match_the_eigenpairs_of_the_shard_grams": {
        f"rows{i}": [_shard_rows(rows)] for i, rows in enumerate(SHARD_ROWS)},
}


globals().update({name: table_test(check_operators, cases) for name, cases in OPERATOR_ROWS.items()})


@pytest.mark.parametrize("row", ["generic", "axis"])
def test_a_shard_of_duplicated_rows_steps_one_at_a_time(row, monkeypatch):
    # A shard of 4 copies of one row has rank 1 < r = 3: its r-th eigenvalue is 0 (exactly so for a
    # row along an axis, up to rounding otherwise), so every chunk is one step, and nothing warns.
    rng = np.random.default_rng(41)
    copy = rng.standard_normal(20) if row == "generic" else np.eye(20)[3] * 2.0
    shards = (*(rng.standard_normal((4, 20)) for _ in range(4)), np.tile(copy, (4, 1)))
    ds = ShardedDataset(shards)
    zs = linalg.orth(rng.standard_normal((5, 20, 3)))
    calls = _counting_orth(monkeypatch)
    got = ds.local_steps(zs, 7)
    assert len(calls) == 7 and 2 * max(ds.sizes) < ds.d
    assert np.isfinite(got).all()
    assert np.abs(np.swapaxes(got, 1, 2) @ got - np.eye(3)).max() <= 1e-13
    if row == "axis":
        assert vars(ds)["_row_factor"][1][4, 2] == 0.0


def test_chunks_of_a_long_stretch_equal_its_single_steps():
    # A copy of the dataset whose first shard is all zeros steps one at a time: that shard's eigenvalues
    # are all 0. A chunk's QR grades its rows by up to _CHUNK_FLOOR; graded down to 1e-200, a stretch of
    # 160 steps on this data differed from its single steps by 4e-11.
    ds, (zs, _) = Operands(10000, 100, 3, 300, privacy.derive_seed(3, 0), (20.0, 0.05), synthetic=True, r=10).build()
    zeroed = ShardedDataset((np.zeros_like(ds.shards[0]), *ds.shards[1:]))
    single, done = zs, 0
    for steps in (20, 160, 320):
        single, done = zeroed.local_steps(single, steps - done), steps
        assert np.abs(ds.local_steps(zs, steps)[1:] - single[1:]).max() <= 1e-12, steps
        assert np.isfinite(single[0]).all() and is_orthonormal(single[0])


def test_eta_finds_a_maximum_on_the_shard_nearest_m_and_with_the_smallest_bound():
    # M_i = Q diag(1 + v_i) Q.T. Shard 0 deviates from M by 1.2 in one direction, the others by 1 in 11
    # directions: smaller norms, but larger Frobenius norms and Schatten-8 bounds (11**(1/8) = 1.35).
    d = 12
    q = np.linalg.qr(np.random.default_rng(37).standard_normal((d, d)))[0]
    spikes = [np.eye(d)[0] * 1.5] + [np.r_[0.0, np.tile(signs, 6)[: d - 1]] for signs in ([1, -1], [-1, 1])] * 2
    shards = tuple(np.sqrt(d * (1.0 + v))[:, None] * q.T for v in spikes)  # d rows, Gram Q diag(1 + v) Q.T
    ds = ShardedDataset(shards)
    devs = [g - ds.global_gram() for g in ds.shard_grams]
    assert np.argmax(ds.shard_eta) == np.argmin([np.linalg.norm(x) for x in devs]) == 0
    assert np.argmin([np.linalg.norm(np.linalg.matrix_power(x, 4)) for x in devs]) == 0
    assert ShardedDataset(shards).eta == max(ShardedDataset(shards).shard_eta)


def test_eta_runs_eigvalsh_only_on_shards_that_can_hold_the_maximum(monkeypatch):
    # 30 shards from one distribution and one whose first column is 1.6 times as large. The outlier's norm
    # (2.03) is above every other shard's Schatten-8 bound (1.23 at most) and below its Frobenius norm (2.68
    # at least), so eta needs eigvalsh for ||M||_2 and the outlier only, and a Frobenius bound would skip none.
    rng = np.random.default_rng(38)
    shards = [rng.standard_normal((200, 40)) for _ in range(31)]
    shards[17][:, 0] *= 1.6
    ds = ShardedDataset(tuple(shards))
    ds.global_gram()
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    eta = ds.eta
    assert len(calls) <= 3
    monkeypatch.undo()
    assert eta == max(ShardedDataset(tuple(shards)).shard_eta)


# ---------------------------------------------------------------- synthetic


def test_synth_matches_spectrum():
    spec = SyntheticSpec(n=6, d=4, singular_values=(3.0, 2.0, 1.0), seed=1)
    a = data.synth(spec)
    sv = np.linalg.svd(a, compute_uv=False)
    np.testing.assert_allclose(sv[:3], [3.0, 2.0, 1.0], rtol=1e-9)
    assert sv[3] <= 1e-9


def test_synth_rank_one():
    a = data.synth(SyntheticSpec(n=5, d=3, singular_values=(1.0,), seed=2))
    sv = np.linalg.svd(a, compute_uv=False)
    assert abs(sv[0] - 1.0) <= 1e-10
    assert sv[1:].max() <= 1e-10


def test_synth_deterministic():
    spec = SyntheticSpec(n=7, d=5, singular_values=(2.0, 1.0), seed=9)
    np.testing.assert_array_equal(data.synth(spec), data.synth(spec))


def _householder_synth(spec: SyntheticSpec) -> np.ndarray:
    """synth's matrix with both factors from Householder QR, R's diagonal made positive."""
    rng = np.random.default_rng(spec.seed)
    sv = np.asarray(spec.singular_values)

    def orth(y):
        q, r = np.linalg.qr(y)
        return q * np.where(np.diagonal(r) < 0.0, -1.0, 1.0)

    u = orth(rng.standard_normal((spec.n, sv.size)))
    v = orth(rng.standard_normal((spec.d, sv.size)))
    return (u * sv) @ v.T


# n, d, rank: both sides of the n >= 4 * rank rule that picks the Cholesky route.
# At n = rank = 100 with seed 5, one Cholesky pass misses the spectrum by 5e-12.
SYNTH_SHAPES = {
    "n = rank": (100, 110, 100),
    "n = 2 rank": (40, 30, 20),
    "n just below 4 rank": (79, 30, 20),
    "n = 4 rank": (80, 30, 20),
    "rank 1, square": (3, 3, 1),
    "rank 1, n = 4": (4, 3, 1),
    "20000 x 300": (20000, 300, 300),
    "full rank, square": (6, 6, 6),
}


@pytest.mark.parametrize("n, d, rank", SYNTH_SHAPES.values(), ids=list(SYNTH_SHAPES))
def test_synth_keeps_householder_accuracy_on_both_routes(n, d, rank):
    sv = np.geomspace(10.0, 1.0, rank)
    spec = SyntheticSpec(n=n, d=d, singular_values=tuple(sv), seed=5)
    a = data.synth(spec)
    np.testing.assert_allclose(np.linalg.svd(a, compute_uv=False)[:rank], sv, rtol=1e-13, atol=0.0)
    householder = _householder_synth(spec)
    if n >= data._CHOLESKY_MIN_ASPECT * rank:
        assert np.abs(a - householder).max() <= 1e-13 * sv[0]
    else:
        np.testing.assert_array_equal(a, householder)


def test_synth_falls_back_to_householder_when_cholesky_fails(monkeypatch):
    spec = SyntheticSpec(n=80, d=30, singular_values=tuple(np.geomspace(10.0, 1.0, 20)), seed=5)

    def failing_cholesky(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", failing_cholesky)
    np.testing.assert_array_equal(data.synth(spec), _householder_synth(spec))


def test_synth_spec_refuses_a_matrix_above_the_dense_entry_limit():
    # Checked when the spec is built, so synth never allocates such a matrix; parse_libsvm has the same limit.
    SyntheticSpec(n=data.DENSE_ENTRY_LIMIT // 4, d=4, singular_values=(1.0,))
    with pytest.raises(DimensionMismatch, match=r"^dense matrix of 25000001 x 4 exceeds the 1e\+08-entry limit$"):
        SyntheticSpec(n=data.DENSE_ENTRY_LIMIT // 4 + 1, d=4, singular_values=(1.0,))


def test_synth_spec_validation():
    with pytest.raises(ValueError):
        SyntheticSpec(n=4, d=4, singular_values=(1.0, 2.0))  # increasing
    with pytest.raises(ValueError):
        SyntheticSpec(n=4, d=4, singular_values=(1.0, -1.0))
    with pytest.raises(Exception):
        SyntheticSpec(n=2, d=2, singular_values=(3.0, 2.0, 1.0))  # too many


def test_sharded_dataset_validation():
    with pytest.raises(Exception):
        ShardedDataset((np.ones((2, 3)), np.ones((2, 4))))
    with pytest.raises(Exception):
        ShardedDataset(())
    # The first shard's width was read before its shape was checked: a bare IndexError.
    with pytest.raises(DimensionMismatch, match=r"shard 0 has shape \(3,\)"):
        ShardedDataset((np.zeros(3),))


# ---------------------------------------------------------------- library guards

GUARDS = {
    "empty shard": (lambda: ShardedDataset((np.ones((2, 3)), np.ones((0, 3)))), DimensionMismatch, "shard 1 is empty"),
    "m 0": (lambda: data.partition(np.ones((4, 2)), 0), ValueError, "m must be >= 1, got 0"),
    "partition mode": (lambda: data.partition(np.ones((4, 2)), 2, mode="random"), ValueError,
                       "unknown partition mode 'random'"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=list(GUARDS))
def test_library_guard_raises_its_error(call, error, message):
    with pytest.raises(error) as err:
        call()
    assert str(err.value) == message
