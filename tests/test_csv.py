"""The sample, shot and table CSVs against their former whole-file forms.

The writer formats chunks of rows, with orjson's digits where they are
repr's and repr elsewhere; the sample reader checks the header line and
parses chunks of bytes, each cut after a newline, with orjson where a
chunk's lines are three JSON numbers each and with np.loadtxt otherwise.
Both run in the calling process.  Their former versions, kept here as
oracles, formatted every value with repr into one text and parsed the
list of the file's lines.  Bytes, parsed columns, exception types and
messages must not differ, at any chunk size and on either parse path,
except where the former reader's checker passed a line that np.loadtxt
rejects: the reader now names that line.
"""

import os
import re
import threading
from pathlib import Path

import numpy as np
import pytest

from tmsvlab import io as tio
from tmsvlab.homodyne import Samples, Shots

from conftest import assert_same_batch, loadtxt_shots, traced_peak_mb

CHUNK = tio._CHUNK_ROWS
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                    -1.5e-310, 1e16, 1e-05, 0.1, 1e300])


def former_write(path, header: str, columns) -> None:
    rows = map(",".join, zip(*(map(repr, column.tolist()) for column in columns)))
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def former_read(path) -> Samples:
    header = tio.SAMPLES_HEADER
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header {header!r}")
    body = lines[1:]
    if not "".join(body).strip():
        raise tio.EmptyDataError(f"{path}: no samples")
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != 3:
        for lineno, line in enumerate(body, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                [float(p) for p in parts]
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
        raise ValueError(f"{path}: malformed rows")
    return Samples(*table.T)


def mixed_floats(n: int, rng) -> np.ndarray:
    """Normal draws, two fifths of them replaced by SPECIAL values, and a
    run of one repeated value."""
    values = rng.normal(size=n)
    special = rng.random(n) < 0.4
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    values[n // 3:n // 2] = 0.7853981633974483
    return values


# --------------------------------------------------------------- formatter

def assert_tokens_are_reprs(column):
    tokens = tio._tokens(column)
    expected = [repr(value).encode() for value in column.tolist()]
    assert len(tokens) == len(expected)
    if tokens != expected:
        wrong = [(got, want) for got, want in zip(tokens, expected) if got != want]
        raise AssertionError(f"{len(wrong)} tokens differ from repr: {wrong[:10]}")


def test_formatter_matches_repr_on_random_float_bits():
    # A future orjson that printed floats otherwise would fail here.  1.5 M
    # patterns: 2**18 uniform over all exponents (most take repr, at about
    # 2 us each), 2**20 over the binary exponents around those where
    # orjson's digits are used, and 2**18 floats with few significant
    # digits, whose shortest digits are not the 17 of a random mantissa.
    rng = np.random.default_rng(18)
    uniform = rng.integers(0, 2 ** 64, 1 << 18, dtype=np.uint64, endpoint=False)
    n = 1 << 20
    exponent = rng.integers(1023 - 16, 1023 + 56, n).astype(np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    short = rng.choice([-1, 1], 1 << 18) * rng.integers(1, 10 ** 7, 1 << 18) \
        / 10.0 ** rng.integers(-9, 12, 1 << 18)
    for column in (uniform.view(np.float64), (sign | exponent | mantissa).view(np.float64),
                   short):
        assert_tokens_are_reprs(column)


def test_formatter_matches_repr_at_the_edges():
    # the neighbours of the bounds of orjson's digits, 1e-4 and 1e16; the
    # first odd integer float 2**53 + 2; subnormals; strided, byte-swapped,
    # float32 and empty columns
    edges = np.array([1e-4, 1e16, 2.0 ** 53 + 2, 2.0 ** 53, 9999999999999998.0,
                      2.2250738585072014e-308, 5e-324, 1e300])
    near = np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)])
    special = np.array([0.0, np.nan, np.inf, 1.7976931348623157e308, 0.1, 1 / 3,
                        0.7853981633974483])
    floats = np.concatenate([near, special, -near, -special])
    small = np.array([1e-4, 1e-5, 1e16, 0.1, 1 / 3, -0.0, 1e-45, 3e38], np.float32)
    for column in (floats, floats[::-1], floats[::3], floats.astype(">f8"), small,
                   np.array([], np.float64)):
        assert_tokens_are_reprs(column)
    nan_payload = np.array([0x7FF8000000000001, 0xFFF0000000000001], np.uint64).view(np.float64)
    assert_tokens_are_reprs(nan_payload)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    for column in (np.array([i64.min, i64.min + 1, -1, 0, 1, i64.max - 1, i64.max]),
                   np.array([0, 1, 2 ** 63, u64.max - 1, u64.max], np.uint64),
                   np.array([-128, 0, 127], np.int8), np.array([0, 255], np.uint8),
                   np.array([True, False, True]),
                   np.array([2 ** 70, -5, 3, 2 ** 70], dtype=object)):
        assert_tokens_are_reprs(column)


# ------------------------------------------------------------------ writer

# rows that fill two chunks, and one more
@pytest.mark.parametrize("n", [0, 1, 2 * CHUNK, 2 * CHUNK + 1])
def test_sample_and_shot_files_match_the_former_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng), mixed_floats(n, rng))
    tio.write_samples(tmp_path / "samples.csv", samples)
    former_write(tmp_path / "former.csv", tio.SAMPLES_HEADER,
                 (samples.theta, samples.x_a, samples.x_b))
    assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()

    n_tot = rng.choice([1, 7, 500, 2 ** 62], n)
    shots = Shots(rng.integers(0, n_tot // 2 + 1), rng.integers(0, n_tot // 2 + 1), n_tot)
    tio.write_shots(tmp_path / "shots.csv", shots)
    former_write(tmp_path / "former.csv", tio.SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot))
    assert (tmp_path / "shots.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()


@pytest.mark.parametrize("n", [0, 1, 2 * CHUNK, 2 * CHUNK + 1])
def test_table_rows_match_the_former_writer(tmp_path, n):
    # int, float, bool and nan columns: those of fig_s2_table.csv and, fifth,
    # a nan column
    rng = np.random.default_rng(n)
    header = "p,dx,seed,fidelity,nan,converged,iterations,gap"
    rows = list(zip(rng.choice([25, 400], n).tolist(), mixed_floats(n, rng).tolist(),
                    [0] * n, mixed_floats(n, rng).tolist(), [float("nan")] * n,
                    (rng.random(n) < 0.5).tolist(), rng.integers(0, 3000, n).tolist(),
                    mixed_floats(n, rng).tolist()))
    tio.write_csv_rows(tmp_path / "table.csv", header, rows)
    former_write(tmp_path / "former.csv", header, [np.asarray(c) for c in zip(*rows)])
    assert (tmp_path / "table.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()


# ------------------------------------------------------------------ reader

def reader_cases(header: str, good: list[str], bad_field: str) -> dict[str, str]:
    """File texts by case, from a header, three good rows and a field the
    row type cannot parse."""
    a, b, c = good
    bad_row = ",".join([bad_field, *a.split(",")[1:]])
    return {
        "valid rows": f"{header}\n{a}\n{b}\n{c}\n",
        "bad header": f"{header}x\n{a}\n",
        "empty file": "",
        "header only": f"{header}\n",
        "blank lines only": f"{header}\n\n\n\n",
        "whitespace-only body": f"{header}\n  \n\t\n",
        "blank lines between rows": f"{header}\n{a}\n\n\n{b}\n\n{c}\n",
        "wrong field count": f"{header}\n{a}\n{b},{c}\n",
        "two fields in every row": f"{header}\n1,2\n3,4\n",
        "trailing comma": f"{header}\n{a},\n",
        "malformed field on line 3": f"{header}\n{a}\n{bad_row}\n{c}\n",
        "malformed field on line 70001": f"{header}\n" + f"{a}\n" * 69999 + f"{bad_row}\n{c}\n",
        "CRLF line endings": f"{header}\r\n{a}\r\n{b}\r\n{c}\r\n",
        "no trailing newline": f"{header}\n{a}\n{b}\n{c}",
    }


def outcome(read, path):
    try:
        return "read", read(path)
    except Exception as exc:  # the type and message are compared
        return type(exc), str(exc)


def assert_same_outcome(got, expected):
    assert got[0] == expected[0]
    if got[0] == "read":
        assert_same_batch(got[1], expected[1])
    else:
        assert got[1] == expected[1]


SAMPLE_CASES = reader_cases(tio.SAMPLES_HEADER,
                            ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,nan"], "oops")


# the package reads sample files only, so "samples" is the one kind
@pytest.mark.parametrize("kind, case", [("samples", c) for c in SAMPLE_CASES])
def test_reader_matches_the_former_reader(tmp_path, kind, case):
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(SAMPLE_CASES[case].encode("utf-8"))
    assert_same_outcome(outcome(tio.read_samples, path), outcome(former_read, path))


# lines that np.loadtxt rejects but the former reader's checker passed: it
# skipped lines of only whitespace, and Python's float and int read 1_0 as 10
LOCATED_CASES = {
    "whitespace-only line between rows": ("{a}\n   \n{b}\n", 3, "expected 3 fields, got 1"),
    "tab-only line": ("{a}\n{b}\n\t\n{a}\n", 4, "expected 3 fields, got 1"),
    "underscore in a field": ("{a}\n{b}\n1_0,{rest}\n", 4, "non-numeric field"),
}


@pytest.mark.parametrize("kind, case", [("samples", c) for c in LOCATED_CASES])
def test_reader_names_the_line_that_loadtxt_rejects(tmp_path, kind, case):
    a, b = "0.3,-1.25,2.0", "1.9,0.0,-0.0"
    body, lineno, message = LOCATED_CASES[case]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{tio.SAMPLES_HEADER}\n" + body.format(a=a, b=b, rest=a.split(",", 1)[1]),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line {lineno}: {message}")):
        tio.read_samples(path)


@pytest.mark.parametrize("separator", ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
def test_only_newlines_and_returns_end_a_row(tmp_path, separator):
    # the former reader split rows also at the other line boundaries of
    # str.splitlines; np.loadtxt does not, and the error names the line
    # that holds two rows
    path = tmp_path / "samples.csv"
    path.write_text(f"{tio.SAMPLES_HEADER}\n0.3,-1.25,2.0{separator}1.9,0.0,-0.0\n"
                    "0.3,1e-05,nan\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: expected 3 fields, got 5")):
        tio.read_samples(path)


# ---------------------------------------------------------- fast read path

def fast_path_outcome(read, path, monkeypatch):
    """outcome of read(path) with the orjson path on, and with every chunk
    sent to np.loadtxt."""
    got = outcome(read, path)
    with monkeypatch.context() as m:
        m.setattr(tio, "_fast_rows", lambda chunk: None)
        return got, outcome(read, path)


# decimals at or just off a halfway point between two floats, with more
# digits than a fast float parser reads exactly (1 + 2^-53 is exact in the
# second), at the subnormal and overflow edges, and beyond 64-bit integers
HALFWAY = ["9007199254740993.0", "9007199254740993.00000000000000000001",
           "1.00000000000000011102230246251565404236316680908203125",
           "1.00000000000000011102230246251565404236316680908203125001",
           "1.00000000000000011102230246251565404236316680908203124",
           "2.2250738585072012e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
           "1.7976931348623158e308", "-18446744073709551617"]
# tokens that JSON reads otherwise than np.loadtxt, or not at all, and the
# edges of float parsing; each is read at each field of a row
TOKENS = ["-0", "-0.0", "0.1e-0", "1E5", "1e+5", "5e-324", "4.9406564584124654e-324",
          "2.2250738585072011e-308", "1e-400", "-1e-400", "1e400", "-1e400",
          "9007199254740993", "123456789012345678901234567890", "18446744073709551616",
          *HALFWAY, "01", "1.", ".5", "+1", " 1.0", "\t1.0", "nan", "inf", "-inf", "-00", "1e0400",
          "1" * 400, "", "true", "null", "[1]", "\"1\"", "1,2"]
# tokens that the orjson path must take, in a line of canonical ones; a
# field that ends in -0, as 0.1e-0 does, takes np.loadtxt
FAST_TOKENS = {"-0.0", "1E5", "1e+5", "5e-324", "4.9406564584124654e-324",
               "2.2250738585072011e-308", "1e-400", "-1e-400", "9007199254740993",
               "123456789012345678901234567890", "18446744073709551616", *HALFWAY}


@pytest.mark.parametrize("token", TOKENS)
def test_fast_path_and_loadtxt_agree_on_every_token(tmp_path, monkeypatch, token):
    path = tmp_path / "samples.csv"
    for row in (f"{token},1.5,-2.0", f"0.3,{token},2.0", f"0.3,-1.25,{token}"):
        for end in ("\n", ""):
            chunk = f"0.3,-1.25,2.0\n{row}{end}".encode()
            path.write_bytes(tio.SAMPLES_HEADER.encode() + b"\n" + chunk)
            got, expected = fast_path_outcome(tio.read_samples, path, monkeypatch)
            assert_same_outcome(got, expected)
            table = tio._fast_rows(chunk)
            assert (table is not None) == (token in FAST_TOKENS), (row, end)
            if table is not None:
                assert table.tobytes() == np.loadtxt(chunk.decode().splitlines(), delimiter=",",
                                                     comments=None, ndmin=2).tobytes()


@pytest.mark.parametrize("case", ["CRLF", "CR", "empty line", "whitespace-only line",
                                  "invalid UTF-8", "invalid UTF-8 in the header",
                                  "a field moved to the next line",
                                  "a field moved to the line before"])
def test_fast_path_and_loadtxt_agree_on_every_line_form(tmp_path, monkeypatch, case):
    rows = ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,5e-324"]
    header = tio.SAMPLES_HEADER.encode()
    text = {"CRLF": b"\r\n".join([header, *map(str.encode, rows)]) + b"\r\n",
            "CR": b"\r".join([header, *map(str.encode, rows)]) + b"\r",
            "empty line": "\n".join([tio.SAMPLES_HEADER, rows[0], "", *rows[1:]]).encode(),
            "whitespace-only line": "\n".join([tio.SAMPLES_HEADER, rows[0], " \t",
                                                *rows[1:]]).encode(),
            "invalid UTF-8": "\n".join([tio.SAMPLES_HEADER, *rows]).encode() + b"\n0.3,\xff,1\n",
            "invalid UTF-8 in the header": header + b"\xff\n" + rows[0].encode() + b"\n",
            # six fields in two lines, as two and four, then four and two
            "a field moved to the next line": header + b"\n0.3,-1.25\n2.0,1.9,0.0,-0.0\n",
            "a field moved to the line before": header + b"\n0.3,-1.25,2.0,1.9\n0.0,-0.0\n"}[case]
    path = tmp_path / "samples.csv"
    path.write_bytes(text)
    got, expected = fast_path_outcome(tio.read_samples, path, monkeypatch)
    assert_same_outcome(got, expected)
    assert got[0] == ("read" if case in ("CRLF", "CR", "empty line") else
                      UnicodeDecodeError if case.startswith("invalid") else ValueError)


@pytest.mark.parametrize("size", [tio._CHUNK_BYTES, 4096])
def test_the_writers_finite_output_never_reaches_loadtxt(tmp_path, monkeypatch, size):
    # every finite float that the writer prints, -0.0, subnormals and
    # exponents included, in several chunks
    rng = np.random.default_rng(3)
    n = 3 * CHUNK + 5
    finite = SPECIAL[np.isfinite(SPECIAL)]
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    x_a, x_b = rng.normal(size=n), rng.normal(size=n)
    for x in (x_a, x_b):
        special = rng.random(n) < 0.4
        x[special] = rng.choice(finite, int(special.sum()))
    samples = Samples(theta, x_a, x_b)
    path = tmp_path / "samples.csv"
    tio.write_samples(path, samples)

    def loadtxt_path(*args):
        raise AssertionError("a chunk of the writer's output reached np.loadtxt")

    monkeypatch.setattr(tio, "_parse_rows", loadtxt_path)
    monkeypatch.setattr(tio, "_CHUNK_BYTES", size)
    assert_same_batch(tio.read_samples(path), samples)


# -------------------------------------------------------------- chunk size

# read chunks of 1 to 3 bytes put the edges of reads inside and between
# every line, and make each chunk a line or two; one of 40 holds a few, and
# one of 4096 a few hundred
CHUNK_SIZES = (1, 2, 3, 40, 4096)


@pytest.fixture
def chunk_bytes(monkeypatch):
    """A function that sets the size of the read chunks of every later
    read, in bytes."""
    return lambda size: monkeypatch.setattr(tio, "_CHUNK_BYTES", size)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_files_and_columns_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk_bytes,
                                                            size):
    # -0.0, NaN, +-inf, subnormals and int columns, written in chunks of
    # that many rows and read in chunks of that many bytes
    chunk_bytes(size)
    monkeypatch.setattr(tio, "_CHUNK_ROWS", size)
    rng = np.random.default_rng(7)
    n = 300
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng), mixed_floats(n, rng))
    n_tot = rng.choice([1, 7, 500, 2 ** 62], n)
    shots = Shots(rng.integers(0, n_tot // 2 + 1), rng.integers(0, n_tot // 2 + 1), n_tot)
    rows = list(zip(rng.integers(0, 3000, n).tolist(), mixed_floats(n, rng).tolist(),
                    (rng.random(n) < 0.5).tolist()))
    tio.write_samples(tmp_path / "samples.csv", samples)
    tio.write_shots(tmp_path / "shots.csv", shots)
    tio.write_csv_rows(tmp_path / "table.csv", "i,x,b", rows)
    for name, header, columns in [
            ("samples", tio.SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b)),
            ("shots", tio.SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot)),
            ("table", "i,x,b", [np.asarray(c) for c in zip(*rows)])]:
        former_write(tmp_path / "former.csv", header, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / "former.csv").read_bytes(), name
    assert_same_batch(tio.read_samples(tmp_path / "samples.csv"), samples)
    assert_same_batch(loadtxt_shots(tmp_path / "shots.csv"), shots)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_reader_cases_at_every_chunk_size(tmp_path, chunk_bytes, size):
    # every case of the two reader tests above; the 1 MB file whose line
    # 70001 is bad only in chunks of 4096 bytes, where its bad line sits in
    # the 256th chunk (in chunks of a few bytes it takes seconds, and the
    # next test puts a bad line at every chunk edge)
    chunk_bytes(size)
    for case in SAMPLE_CASES:
        if case == "malformed field on line 70001" and size < 4096:
            continue
        test_reader_matches_the_former_reader(tmp_path, "samples", case)
    for case in LOCATED_CASES:
        test_reader_names_the_line_that_loadtxt_rejects(tmp_path, "samples", case)


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("kind", ["samples"])
def test_reader_names_the_bad_line_in_every_block(tmp_path, chunk_bytes, size, kind):
    # nine good rows and one bad line, at each line in turn, so that the
    # bad line sits in each read chunk and at each chunk's edges
    chunk_bytes(size)
    header, good, field = tio.SAMPLES_HEADER, "0.3,-1.25,2.0", "non-numeric field"
    # the former reader's checker passed 1_0 and a line of spaces
    bad_lines = {"oops,{rest}": field, "{good},1": "expected 3 fields, got 4",
                 "1_0,{rest}": field, "   ": "expected 3 fields, got 1"}
    path = tmp_path / f"{kind}.csv"
    for bad, message in bad_lines.items():
        for at in range(10):
            lines = [good] * 9
            lines.insert(at, bad.format(good=good, rest=good.split(",", 1)[1]))
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            got = outcome(tio.read_samples, path)
            assert got == (ValueError, f"{path}: line {at + 2}: {message}")
            if bad.startswith(("oops", "{good}")):
                assert got == outcome(former_read, path)
            lines[at] = ""  # an empty line is skipped
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            assert_same_outcome(outcome(tio.read_samples, path), outcome(former_read, path))


def test_reader_reads_a_pipe(tmp_path, chunk_bytes):
    # a pipe has no size and cannot seek
    text = f"{tio.SAMPLES_HEADER}\n" + "0.3,-1.25,2.0\n" * 50
    for size in (tio._CHUNK_BYTES, *CHUNK_SIZES):
        chunk_bytes(size)
        path = tmp_path / f"pipe{size}.csv"
        os.mkfifo(path)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            samples = tio.read_samples(path)
        finally:
            writer.join(timeout=10)
        assert not writer.is_alive()
        assert len(samples) == 50 and samples.x_b.tolist() == [2.0] * 50


@pytest.fixture
def forks(monkeypatch):
    # os.fork made to raise; the list counts the calls
    calls = []

    def fork():
        calls.append(1)
        raise OSError("a process was started")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(tio, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(tio, "_CHUNK_BYTES", 64)
    return calls


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_no_child_is_left_after_a_write(tmp_path, forks, monkeypatch):
    # writes of several chunks, and one whose formatting fails in its second chunk
    samples = Samples(np.zeros(30), np.arange(30.0), np.ones(30))
    shots = Shots(np.arange(30), np.arange(30), np.full(30, 60))
    tio.write_samples(tmp_path / "samples.csv", samples)
    tio.write_shots(tmp_path / "shots.csv", shots)
    tio.write_csv_rows(tmp_path / "table.csv", "a,b", [(1, 0.5)] * 30)
    assert_no_child_left()
    tokens, formatted = tio._tokens, []

    def failing(column):
        formatted.append(1)
        if len(formatted) > 3:
            raise MemoryError("formatting failed")
        return tokens(column)

    monkeypatch.setattr(tio, "_tokens", failing)
    with pytest.raises(MemoryError, match="formatting failed"):
        tio.write_samples(tmp_path / "samples.csv", samples)
    assert_no_child_left()
    assert not forks


def test_no_child_is_left_after_a_read(tmp_path, forks):
    # a read of several chunks, and reads that fail
    samples = Samples(np.zeros(30), np.arange(30.0), np.ones(30))
    path = tmp_path / "samples.csv"
    tio.write_samples(path, samples)
    assert_same_batch(tio.read_samples(path), samples)
    assert_no_child_left()
    text = path.read_text(encoding="utf-8")
    for broken in (text.replace("theta", "phi"), text[:-20] + "x" + text[-19:],
                   text[:text.index("\n") + 1]):
        path.write_text(broken, encoding="utf-8")
        with pytest.raises(ValueError):
            tio.read_samples(path)
        assert_no_child_left()
    assert not forks


# ------------------------------------------------------------------ memory

def test_writing_and_reading_200k_rows_stays_within_its_memory_bound(tmp_path):
    # 200k rows at two phases, as in the files benchmark.  The tracemalloc
    # peaks are 3.3 MB to write (one 8192-row chunk's text) and 9.2 MB to
    # read (the chunks' tables and the table they join into are 4.8 MB
    # each); the bounds are about twice these.  Writing the whole text at
    # once peaked at 45 MB, and reading the list of the file's lines at
    # 34 MB.
    rng = np.random.default_rng(0)
    n = 100_000
    samples = Samples(np.repeat([np.pi / 4, 3 * np.pi / 4], n), rng.normal(size=2 * n),
                      rng.normal(size=2 * n))
    path = tmp_path / "samples.csv"
    peaks = [traced_peak_mb(lambda: tio.write_samples(path, samples)),
             traced_peak_mb(lambda: tio.read_samples(path))]
    assert peaks[0] <= 7.0 and peaks[1] <= 18.0, peaks
