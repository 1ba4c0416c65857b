"""The sample, shot and table CSVs against their former whole-file forms,
and the sample reader against its grammar.

The writer formats chunks of sample and shot rows, each value as orjson
spells it, and table rows (reports) with repr; the sample reader checks the
header line and parses chunks of bytes, each cut after a newline, with
orjson, where each line must be three JSON numbers.  Both run in the
calling process.  Their former versions, kept here as oracles, formatted
every value on its own into one text and parsed the list of the file's
lines with np.loadtxt.  Bytes and parsed columns must not differ, at any
chunk size, and every float written reads back to its bits.  The reader
takes only the writer's grammar: the token and line-form tables give what
it reads, and the line it names in what it refuses.
"""

import os
import re
import threading
from pathlib import Path

import numpy as np
import orjson
import pytest

from tmsvlab import io as tio
from tmsvlab.homodyne import Samples, Shots

from conftest import (MALFORMED_TOKENS, NON_FINITE_TOKENS, assert_same_batch, loadtxt_shots,
                      traced_peak_mb)

CHUNK = tio._CHUNK_ROWS
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                    -1.5e-310, 1e16, 1e-05, 0.1, 1e300])
FINITE = SPECIAL[np.isfinite(SPECIAL)]  # what a Samples column can hold


def orjson_spelling(value) -> str:
    return orjson.dumps(value).decode()


def former_write(path, header: str, columns, spell=repr) -> None:
    rows = map(",".join, zip(*(map(spell, column.tolist()) for column in columns)))
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


def mixed_floats(n: int, rng, special_values=SPECIAL) -> np.ndarray:
    """Normal draws, two fifths of them replaced by special values, and a
    run of one repeated value."""
    values = rng.normal(size=n)
    special = rng.random(n) < 0.4
    values[special] = rng.choice(special_values, int(special.sum()))
    values[n // 3:n // 2] = 0.7853981633974483
    return values


# --------------------------------------------------------------- formatter

def csv_lines(texts: list[bytes], k: int) -> bytes:
    """The texts, k to a line."""
    return b"".join(row + b"\n" for row in map(b",".join, zip(*[iter(texts)] * k)))


def assert_same_lines(got: bytes, expected: bytes):
    if got != expected:
        wrong = [(a, b) for a, b in zip(got.splitlines(), expected.splitlines()) if a != b]
        raise AssertionError(f"{len(got)} bytes against {len(expected)}: {wrong[:10]}")


def assert_reads_back(text: bytes, values: np.ndarray):
    """The lines' values, parsed as one JSON array, hold the bits of values
    (floats as float64)."""
    dtype = np.float64 if values.dtype.kind == "f" else values.dtype
    back = np.array(orjson.loads(b"[" + text.replace(b"\n", b",")[:-1] + b"]"), dtype)
    assert back.tobytes() == np.asarray(values, dtype).tobytes()


def assert_formatters_match_orjson(column):
    # _lines of the column as an (n, 1) table and in rows of three as an
    # (n, 3) table (cut to whole rows), against orjson's text of each entry
    # on its own, and read back
    expected = [orjson.dumps(value) for value in column.tolist()]
    rows = len(column) // 3
    for table in (column[:, None], column[:3 * rows].reshape(rows, 3)):
        text = tio._lines(table)
        assert_same_lines(text, csv_lines(expected, table.shape[1]))
        assert_reads_back(text, table.ravel())


def test_formatter_matches_orjson_on_random_float_bits():
    # A future orjson that printed floats otherwise would fail here.  1.5 M
    # patterns: 2**18 uniform over all exponents, whose nan and inf patterns
    # (exponent all ones) have their top exponent bit cleared, since no bulk
    # input holds one; 2**20 over the binary exponents around 1e-4 and 1e16,
    # where shortest spellings change form; and 2**18 floats with few
    # significant digits, whose shortest digits are not the 17 of a random
    # mantissa.
    rng = np.random.default_rng(18)
    uniform = rng.integers(0, 2 ** 64, 1 << 18, dtype=np.uint64, endpoint=False)
    exponent_mask = np.uint64(0x7FF << 52)
    uniform[(uniform & exponent_mask) == exponent_mask] ^= np.uint64(1 << 62)
    n = 1 << 20
    exponent = rng.integers(1023 - 16, 1023 + 56, n).astype(np.uint64) << np.uint64(52)
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    sign = rng.integers(0, 2, n).astype(np.uint64) << np.uint64(63)
    short = rng.choice([-1, 1], 1 << 18) * rng.integers(1, 10 ** 7, 1 << 18) \
        / 10.0 ** rng.integers(-9, 12, 1 << 18)
    for column in (uniform.view(np.float64), (sign | exponent | mantissa).view(np.float64),
                   short):
        assert np.isfinite(column).all()
        assert_formatters_match_orjson(column)


def test_formatter_matches_orjson_at_the_edges(tmp_path):
    # the neighbours of 1e-4 and 1e16, where the shortest spelling changes
    # form; the first odd integer float 2**53 + 2; subnormals; strided,
    # byte-swapped, float32 and empty columns; the extremes of int columns;
    # and, in a table of report rows, bool and object columns.  No nan or
    # inf: Samples refuses them (test_homodyne's
    # test_samples_reject_a_value_that_is_not_finite_and_name_its_column_and_row)
    edges = np.array([1e-4, 1e16, 2.0 ** 53 + 2, 2.0 ** 53, 9999999999999998.0,
                      2.2250738585072014e-308, 5e-324, 1e300])
    near = np.concatenate([np.nextafter(edges, 0), edges, np.nextafter(edges, np.inf)])
    special = np.array([0.0, 1.7976931348623157e308, 0.1, 1 / 3, 0.7853981633974483])
    floats = np.concatenate([near, special, -near, -special])
    small = np.array([1e-4, 1e-5, 1e16, 0.1, 1 / 3, -0.0, 1e-45, 3e38], np.float32)
    for column in (floats, floats[::-1], floats[::3], floats.astype(">f8"), small,
                   np.array([], np.float64)):
        assert_formatters_match_orjson(column)
    i64, u64 = np.iinfo(np.int64), np.iinfo(np.uint64)
    for column in (np.array([i64.min, i64.min + 1, -1, 0, 1, i64.max - 1, i64.max]),
                   np.array([0, 1, 2 ** 63, u64.max - 1, u64.max], np.uint64),
                   np.array([-128, 0, 127], np.int8), np.array([0, 255], np.uint8)):
        assert_formatters_match_orjson(column)
    tio.write_csv_rows(tmp_path / "table.csv", "b,o",
                       zip([True, False, True, False], [2 ** 70, -5, 3, 2 ** 70]))
    assert (tmp_path / "table.csv").read_text(encoding="utf-8") == \
        f"b,o\nTrue,{2 ** 70}\nFalse,-5\nTrue,3\nFalse,{2 ** 70}\n"


# ------------------------------------------------------------------ writer

# rows that fill two chunks, and one more
@pytest.mark.parametrize("n", [0, 1, 2 * CHUNK, 2 * CHUNK + 1])
def test_sample_and_shot_files_match_the_former_writer(tmp_path, n):
    rng = np.random.default_rng(n)
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng, FINITE), mixed_floats(n, rng, FINITE))
    tio.write_samples(tmp_path / "samples.csv", samples)
    former_write(tmp_path / "former.csv", tio.SAMPLES_HEADER,
                 (samples.theta, samples.x_a, samples.x_b), orjson_spelling)
    assert (tmp_path / "samples.csv").read_bytes() == (tmp_path / "former.csv").read_bytes()
    if n:  # a file of no rows reads as EmptyDataError
        assert_same_batch(tio.read_samples(tmp_path / "samples.csv"), samples)

    n_tot = rng.choice([1, 7, 500, 2 ** 62], n)
    shots = Shots(rng.integers(0, n_tot // 2 + 1), rng.integers(0, n_tot // 2 + 1), n_tot)
    tio.write_shots(tmp_path / "shots.csv", shots)
    former_write(tmp_path / "former.csv", tio.SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot),
                 orjson_spelling)
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


# rows of (theta, x_a, x_b) with odd tokens, floats whose shortest spelling
# has an exponent or leading zeros (1e300, 5e-324, 0.00001), at every
# position in a row, a table and a chunk: theta is kept below 2 pi
TINY, HUGE = 1e-05, 1e300
PATCH_CASES = {
    "odd first and last": [[TINY, 0.5, 0.25], [0.5, 0.25, 0.125], [0.5, 0.25, -HUGE]],
    "odd in the last column": [[0.5, 0.25, TINY], [0.5, -0.25, 5e-324], [0.5, 0.25, 0.125]],
    "adjacent odd": [[0.5, TINY, HUGE], [2e-300, -TINY, 0.125], [0.5, 1e16, 3e-5]],
    "every token odd": [[TINY, -HUGE, 5e-324], [2e-5, 1e16, -3e-300], [9e-5, 1e17, -TINY]],
    "one row": [[TINY, 0.5, HUGE]],
    "no rows": np.empty((0, 3)),
}


def patch_case(case: str) -> tuple[np.ndarray, list[bytes]]:
    """The case's (n, 3) table and orjson's text of each entry, row by row."""
    table = np.array(PATCH_CASES[case], np.float64).reshape(-1, 3)
    return table, [orjson.dumps(value) for value in table.ravel().tolist()]


@pytest.mark.parametrize("case", PATCH_CASES)
def test_odd_tokens_at_the_edges_of_a_table(case):
    # each odd token at every position in a row and in the table, and in a
    # one-column table
    table, expected = patch_case(case)
    assert tio._lines(table) == csv_lines(expected, 3)
    assert_reads_back(tio._lines(table), table.ravel())
    column = table.T.reshape(-1, 1)
    assert tio._lines(column) == \
        csv_lines([orjson.dumps(value) for value in column.ravel().tolist()], 1)
    assert_reads_back(tio._lines(column), column.ravel())


@pytest.mark.parametrize("case", PATCH_CASES)
@pytest.mark.parametrize("rows", [1, 2])
def test_odd_tokens_at_the_edges_of_a_chunk(tmp_path, monkeypatch, case, rows):
    # each odd token first or last in a chunk of one or two rows
    table, expected = patch_case(case)
    monkeypatch.setattr(tio, "_CHUNK_ROWS", rows)
    path = tmp_path / "samples.csv"
    tio.write_samples(path, Samples(*table.T))
    assert path.read_bytes() == (tio.SAMPLES_HEADER + "\n").encode() + csv_lines(expected, 3)
    if len(table):  # a file of no rows reads as EmptyDataError
        assert_same_batch(tio.read_samples(path), Samples(*table.T))


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
        "header without its newline": header,
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
                            ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,5e-324"], "oops")
# the cases that the former reader read, or refused as having no samples,
# and that the grammar refuses, by the message after the path: empty and
# whitespace-only lines are malformed rows, and only \n ends a line
NARROWED = {"blank lines only": "line 2: expected 3 fields, got 1",
            "whitespace-only body": "line 2: expected 3 fields, got 1",
            "blank lines between rows": "line 3: expected 3 fields, got 1",
            "CRLF line endings": f"expected header {tio.SAMPLES_HEADER!r}"}


# the package reads sample files only, so "samples" is the one kind
@pytest.mark.parametrize("kind, case", [("samples", c) for c in SAMPLE_CASES])
def test_reader_matches_the_former_reader(tmp_path, kind, case):
    # the former reader is the reference for the files the writer writes
    # and for their header, field count and number errors
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(SAMPLE_CASES[case].encode("utf-8"))
    expected = (ValueError, f"{path}: {NARROWED[case]}") if case in NARROWED else \
        outcome(former_read, path)
    assert_same_outcome(outcome(tio.read_samples, path), expected)


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
def test_other_line_boundaries_leave_two_rows_in_one_line(tmp_path, separator):
    # only \n ends a row: the other line boundaries of str.splitlines, by
    # which the former reader split rows, leave two rows in one line of five
    # fields (a \r is a malformed byte, see the line forms)
    path = tmp_path / "samples.csv"
    path.write_text(f"{tio.SAMPLES_HEADER}\n0.3,-1.25,2.0{separator}1.9,0.0,-0.0\n"
                    "0.3,1e-05,5e-324\n", encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(f"{path}: line 2: expected 3 fields, got 5")):
        tio.read_samples(path)


# ------------------------------------------------------------ token table

# decimals at or just off a halfway point between two floats, with more
# digits than a fast float parser reads exactly (1 + 2^-53 is exact in the
# second), at the subnormal and overflow edges, and beyond 64-bit integers
HALFWAY = ["9007199254740993.0", "9007199254740993.00000000000000000001",
           "1.00000000000000011102230246251565404236316680908203125",
           "1.00000000000000011102230246251565404236316680908203125001",
           "1.00000000000000011102230246251565404236316680908203124",
           "2.2250738585072012e-308", "2.4703282292062327e-324", "2.4703282292062328e-324",
           "1.7976931348623158e308", "-18446744073709551617"]
# the spellings of JSON numbers that the reader takes: exponents, subnormals,
# underflow to 0, halfway decimals, and 2^53 + 1 as an integer
ACCEPTED_TOKENS = ["-0.0", "0.1e-0", "1E5", "1e+5", "5e-324", "4.9406564584124654e-324",
                   "2.2250738585072011e-308", "1e-400", "-1e-400", "9007199254740993",
                   "123456789012345678901234567890", "18446744073709551616", *HALFWAY]
# JSON's integer -0 is +0 (the writer writes -0.0)
TOKENS = ["-0", *ACCEPTED_TOKENS, *NON_FINITE_TOKENS, *MALFORMED_TOKENS]
REFUSED_LINE = r"line 3: (non-numeric field|expected 3 fields, got 4)$"


@pytest.mark.parametrize("token", TOKENS)
def test_fast_path_and_loadtxt_agree_on_every_token(tmp_path, token):
    # the token at each field of line 3, with and without the file's last
    # newline.  A spelling the reader takes reads as float() and np.loadtxt
    # read it, bit for bit, but -0, which reads as +0.0; the reader refuses
    # every other spelling and names its line
    path = tmp_path / "samples.csv"
    for field in range(3):
        row = ["0.3", "-1.25", "2.0"]
        row[field] = token
        for end in ("\n", ""):
            path.write_bytes(f"{tio.SAMPLES_HEADER}\n0.3,-1.25,2.0\n{','.join(row)}{end}".encode())
            if token in TOKENS[:len(ACCEPTED_TOKENS) + 1]:
                value = 0.0 if token == "-0" else float(token)
                if token != "-0":
                    assert np.loadtxt([token]).tobytes() == np.float64(value).tobytes()
                table = np.array([[0.3, -1.25, 2.0], [0.3, -1.25, 2.0]])
                table[1, field] = value
                assert_same_batch(tio.read_samples(path), Samples(*table.T))
            else:
                with pytest.raises(ValueError, match=re.escape(f"{path}: ") + REFUSED_LINE):
                    tio.read_samples(path)


ROWS = ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,5e-324"]
# the file's bytes, and the message after its path, by line form; None
# where it reads
LINE_FORMS = {
    "CRLF": (b"\r\n".join([tio.SAMPLES_HEADER.encode(), *map(str.encode, ROWS)]) + b"\r\n",
             f"expected header {tio.SAMPLES_HEADER!r}"),
    "CR": (b"\r".join([tio.SAMPLES_HEADER.encode(), *map(str.encode, ROWS)]) + b"\r",
           f"expected header {tio.SAMPLES_HEADER!r}"),
    "CRLF rows": ("\r\n".join([tio.SAMPLES_HEADER + "\n" + ROWS[0], *ROWS[1:]]).encode(),
                  "line 2: non-numeric field"),
    "empty line": ("\n".join([tio.SAMPLES_HEADER, ROWS[0], "", *ROWS[1:]]).encode(),
                   "line 3: expected 3 fields, got 1"),
    "whitespace-only line": ("\n".join([tio.SAMPLES_HEADER, ROWS[0], " \t", *ROWS[1:]]).encode(),
                             "line 3: expected 3 fields, got 1"),
    **{f"a {name} line": ("\n".join([tio.SAMPLES_HEADER, ROWS[0], space, *ROWS[1:]]).encode(),
                          "line 3: expected 3 fields, got 1")
       for name, space in [("tab", "\t"), ("space", " "), ("CR", "\r"), ("VT", "\x0b"),
                           ("U+2028", "\u2028")]},
    "trailing comma": ("\n".join([tio.SAMPLES_HEADER, *ROWS]).encode() + b",\n",
                       "line 4: expected 3 fields, got 4"),
    "invalid UTF-8": ("\n".join([tio.SAMPLES_HEADER, *ROWS]).encode() + b"\n0.3,\xff,1\n",
                      "line 5: non-numeric field"),
    "invalid UTF-8 in the header": (tio.SAMPLES_HEADER.encode() + b"\xff\n" + ROWS[0].encode(),
                                    f"expected header {tio.SAMPLES_HEADER!r}"),
    # six fields in two lines, as two and four, then four and two
    "a field moved to the next line": (
        tio.SAMPLES_HEADER.encode() + b"\n0.3,-1.25\n2.0,1.9,0.0,-0.0\n",
        "line 2: expected 3 fields, got 2"),
    "a field moved to the line before": (
        tio.SAMPLES_HEADER.encode() + b"\n0.3,-1.25,2.0,1.9\n0.0,-0.0\n",
        "line 2: expected 3 fields, got 4"),
    # the first bad line is named when a later one fails another check
    "a bad number before a bad byte": (
        "\n".join([tio.SAMPLES_HEADER, ROWS[0], "01,1.0,2.0", "nan,1.0,2.0\n"]).encode(),
        "line 3: non-numeric field"),
    "a bad number before a wrong field count": (
        "\n".join([tio.SAMPLES_HEADER, ROWS[0], "1.0,2.0,", "1.0,2.0\n"]).encode(),
        "line 3: non-numeric field"),
    "no final newline": ("\n".join([tio.SAMPLES_HEADER, *ROWS]).encode(), None),
}


@pytest.mark.parametrize("case", LINE_FORMS)
def test_reader_takes_only_the_writers_line_form_and_names_the_first_bad_line(tmp_path, case):
    # only the writer's line form reads, as np.loadtxt reads it; the reader
    # refuses every other and names its line
    text, message = LINE_FORMS[case]
    path = tmp_path / "samples.csv"
    path.write_bytes(text)
    if message is None:
        table = np.loadtxt(text.decode().splitlines()[1:], delimiter=",", ndmin=2)
        assert_same_batch(tio.read_samples(path), Samples(*table.T))
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
            tio.read_samples(path)


@pytest.mark.parametrize("size", [tio._CHUNK_BYTES, 4096])
def test_the_writers_finite_output_reads_back_bit_for_bit_in_chunks(tmp_path, monkeypatch,
                                                                    size):
    # every finite float that the writer prints, -0.0, subnormals and
    # exponents included, reads back bit for bit, in several chunks
    rng = np.random.default_rng(3)
    n = 3 * CHUNK + 5
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng, FINITE), mixed_floats(n, rng, FINITE))
    path = tmp_path / "samples.csv"
    tio.write_samples(path, samples)
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
    # -0.0, subnormals, int columns and, in the table, NaN and +-inf,
    # written in chunks of that many rows and read in chunks of that many
    # bytes
    chunk_bytes(size)
    monkeypatch.setattr(tio, "_CHUNK_ROWS", size)
    rng = np.random.default_rng(7)
    n = 300
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng, FINITE), mixed_floats(n, rng, FINITE))
    n_tot = rng.choice([1, 7, 500, 2 ** 62], n)
    shots = Shots(rng.integers(0, n_tot // 2 + 1), rng.integers(0, n_tot // 2 + 1), n_tot)
    rows = list(zip(rng.integers(0, 3000, n).tolist(), mixed_floats(n, rng).tolist(),
                    (rng.random(n) < 0.5).tolist()))
    tio.write_samples(tmp_path / "samples.csv", samples)
    tio.write_shots(tmp_path / "shots.csv", shots)
    tio.write_csv_rows(tmp_path / "table.csv", "i,x,b", rows)
    for name, header, columns, spell in [
            ("samples", tio.SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b),
             orjson_spelling),
            ("shots", tio.SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot), orjson_spelling),
            ("table", "i,x,b", [np.asarray(c) for c in zip(*rows)], repr)]:
        former_write(tmp_path / "former.csv", header, columns, spell)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / "former.csv").read_bytes(), name
    assert_same_batch(tio.read_samples(tmp_path / "samples.csv"), samples)
    assert_same_batch(loadtxt_shots(tmp_path / "shots.csv"), shots)


@pytest.mark.parametrize("size", CHUNK_SIZES)
def test_reader_cases_at_every_chunk_size(tmp_path, chunk_bytes, size):
    # every case of the reader tests and tables above; the 1 MB file whose
    # line 70001 is bad only in chunks of 4096 bytes, where its bad line
    # sits in the 256th chunk (in chunks of a few bytes it takes seconds,
    # and the next test puts a bad line at every chunk edge)
    chunk_bytes(size)
    for case in SAMPLE_CASES:
        if case == "malformed field on line 70001" and size < 4096:
            continue
        test_reader_matches_the_former_reader(tmp_path, "samples", case)
    for case in LOCATED_CASES:
        test_reader_names_the_line_that_loadtxt_rejects(tmp_path, "samples", case)
    for token in TOKENS:
        test_fast_path_and_loadtxt_agree_on_every_token(tmp_path, token)
    for case in LINE_FORMS:
        test_reader_takes_only_the_writers_line_form_and_names_the_first_bad_line(tmp_path, case)


@pytest.mark.parametrize("size", CHUNK_SIZES)
@pytest.mark.parametrize("kind", ["samples"])
def test_reader_names_the_bad_line_in_every_block(tmp_path, chunk_bytes, size, kind):
    # nine good rows and one bad line, at each line in turn, so that the
    # bad line sits in each read chunk and at each chunk's edges
    chunk_bytes(size)
    header, good, field = tio.SAMPLES_HEADER, "0.3,-1.25,2.0", "non-numeric field"
    # the former reader's checker passed 1_0 and a line of spaces, and
    # skipped an empty line
    bad_lines = {"oops,{rest}": field, "{good},1": "expected 3 fields, got 4",
                 "1_0,{rest}": field, "   ": "expected 3 fields, got 1",
                 "": "expected 3 fields, got 1", "{good},": "expected 3 fields, got 4",
                 "1e400,{rest}": field}
    path = tmp_path / f"{kind}.csv"
    for bad, message in bad_lines.items():
        for at in range(10):
            lines = [good] * 9
            lines.insert(at, bad.format(good=good, rest=good.split(",", 1)[1]))
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            got = outcome(tio.read_samples, path)
            assert got == (ValueError, f"{path}: line {at + 2}: {message}")
            if bad.startswith(("oops", "{good},1")):
                assert got == outcome(former_read, path)


def read_through_a_pipe(path, text: bytes) -> Samples:
    """read_samples of text written into a new named pipe at path."""
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_bytes, args=(text,), daemon=True)
    writer.start()
    try:
        return tio.read_samples(path)
    finally:
        writer.join(timeout=10)
        assert not writer.is_alive()


def test_reader_reads_a_pipe(tmp_path, chunk_bytes):
    # a pipe has no size and cannot seek
    text = f"{tio.SAMPLES_HEADER}\n" + "0.3,-1.25,2.0\n" * 50
    default = tio._CHUNK_BYTES
    for size in (default, *CHUNK_SIZES):
        chunk_bytes(size)
        samples = read_through_a_pipe(tmp_path / f"pipe{size}.csv", text.encode())
        assert len(samples) == 50 and samples.x_b.tolist() == [2.0] * 50
    # a batch longer than the columns' first capacity: they grow while the
    # pipe is read, and Samples adopts them as they are
    rng = np.random.default_rng(7)
    rows = 2 * tio._FIRST_ROWS + 3
    batch = Samples(rng.uniform(0.0, 2.0 * np.pi, rows), rng.normal(size=rows),
                    rng.normal(size=rows))
    tio.write_samples(tmp_path / "long.csv", batch)
    for size in (default, 4096):
        chunk_bytes(size)
        samples = read_through_a_pipe(tmp_path / f"long{size}.csv",
                                      (tmp_path / "long.csv").read_bytes())
        assert_same_batch(samples, batch)
        assert all(c.base is None for c in (samples.theta, samples.x_a, samples.x_b))


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
    lines, formatted = tio._lines, []

    def failing(table):
        formatted.append(1)
        if len(formatted) > 1:
            raise MemoryError("formatting failed")
        return lines(table)

    monkeypatch.setattr(tio, "_lines", failing)
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
    # peaks are 1.3 MB to write (one 8192-row chunk's table and text), under
    # a fifth of the 7.0 MB bound, and 6.5 MB to read (three columns grown to
    # 262 144 rows, 6.0 MB, and one chunk's table), about 0.8 of the 8.0 MB
    # bound.  A read that joined the chunks' tables into one and copied its
    # transpose peaked at 14.2 MB; writing the whole text at once would peak
    # at 45 MB, and reading the list of the file's lines at 34 MB.
    rng = np.random.default_rng(0)
    n = 100_000
    samples = Samples(np.repeat([np.pi / 4, 3 * np.pi / 4], n), rng.normal(size=2 * n),
                      rng.normal(size=2 * n))
    path = tmp_path / "samples.csv"
    peaks = [traced_peak_mb(lambda: tio.write_samples(path, samples)),
             traced_peak_mb(lambda: tio.read_samples(path))]
    assert peaks[0] <= 7.0 and peaks[1] <= 8.0, peaks
