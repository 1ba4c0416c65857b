"""The sample, shot and table CSVs against their former whole-file forms.

The writer streams blocks of rows and formats each distinct bit pattern of
a block's column once; the reader checks the header line and gives the
open file to np.loadtxt.  Their former versions, kept here as oracles,
formatted every value with repr into one text and parsed the list of the
file's lines.  Bytes, parsed columns, exception types and messages must
not differ, except where the former reader's checker passed a line that
np.loadtxt rejects: the reader now names that line.
"""

import re
from pathlib import Path

import numpy as np
import pytest

from tmsvlab import io as tio
from tmsvlab.homodyne import Samples, Shots

from conftest import assert_same_batch, traced_peak_mb

CHUNK = tio._CHUNK_ROWS
SPECIAL = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 2.2250738585072014e-308,
                    -1.5e-310, 1e16, 1e-05, 0.1, 1e300])


def former_write(path, header: str, columns) -> None:
    rows = map(",".join, zip(*(map(repr, column.tolist()) for column in columns)))
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def former_read(path, header: str, dtype, what: str) -> np.ndarray:
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines or lines[0].strip() != header:
        raise ValueError(f"{path}: expected header {header!r}")
    body = lines[1:]
    if not "".join(body).strip():
        raise tio.EmptyDataError(f"{path}: no {what}")
    try:
        table = np.loadtxt(body, dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        table = None
    if table is None or table.shape[1] != 3:
        parse = float if dtype == np.float64 else int
        for lineno, line in enumerate(body, start=2):
            if not line.strip():
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
            try:
                [parse(p) for p in parts]
            except ValueError:
                kind = "non-numeric" if parse is float else "non-integer"
                raise ValueError(f"{path}: line {lineno}: {kind} field") from None
        raise ValueError(f"{path}: malformed rows")
    return table.T


def mixed_floats(n: int, rng) -> np.ndarray:
    """Normal draws, two fifths of them replaced by SPECIAL values, and a
    run of one repeated value."""
    values = rng.normal(size=n)
    special = rng.random(n) < 0.4
    values[special] = rng.choice(SPECIAL, int(special.sum()))
    values[n // 3:n // 2] = 0.7853981633974483
    return values


# ------------------------------------------------------------------ writer

@pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1])
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


@pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1])
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


SAMPLE_CASES = reader_cases(tio.SAMPLES_HEADER,
                            ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,nan"], "oops")
SHOT_CASES = {**reader_cases(tio.SHOTS_HEADER, ["3,4,100", "0,0,1", "12,7,500"], "oops"),
              "float count": f"{tio.SHOTS_HEADER}\n3,4,100\n1.5,0,7\n",
              "negative count": f"{tio.SHOTS_HEADER}\n3,4,100\n-1,0,7\n"}


@pytest.mark.parametrize("kind, case", [("samples", c) for c in SAMPLE_CASES]
                         + [("shots", c) for c in SHOT_CASES])
def test_reader_matches_the_former_reader(tmp_path, kind, case):
    if kind == "samples":
        text, read = SAMPLE_CASES[case], tio.read_samples
        former = lambda path: Samples(*former_read(path, tio.SAMPLES_HEADER, np.float64,
                                                   "samples"))
    else:
        text, read = SHOT_CASES[case], tio.read_shots
        former = lambda path: Shots(*former_read(path, tio.SHOTS_HEADER, np.int64, "shots"))
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    got, expected = outcome(read, path), outcome(former, path)
    assert got[0] == expected[0]
    if got[0] == "read":
        assert_same_batch(got[1], expected[1])
    else:
        assert got[1] == expected[1]


# lines that np.loadtxt rejects but the former reader's checker passed: it
# skipped lines of only whitespace, and Python's float and int read 1_0 as 10
LOCATED_CASES = {
    "whitespace-only line between rows": ("{a}\n   \n{b}\n", 3, "expected 3 fields, got 1"),
    "tab-only line": ("{a}\n{b}\n\t\n{a}\n", 4, "expected 3 fields, got 1"),
    "underscore in a field": ("{a}\n{b}\n1_0,{rest}\n", 4, "{kind} field"),
}


@pytest.mark.parametrize("kind, case", [(k, c) for k in ("samples", "shots")
                                        for c in LOCATED_CASES])
def test_reader_names_the_line_that_loadtxt_rejects(tmp_path, kind, case):
    if kind == "samples":
        header, (a, b), read, what = (tio.SAMPLES_HEADER, ("0.3,-1.25,2.0", "1.9,0.0,-0.0"),
                                      tio.read_samples, "non-numeric")
    else:
        header, (a, b), read, what = (tio.SHOTS_HEADER, ("3,4,100", "0,0,1"),
                                      tio.read_shots, "non-integer")
    body, lineno, message = LOCATED_CASES[case]
    path = tmp_path / f"{kind}.csv"
    path.write_text(f"{header}\n" + body.format(a=a, b=b, rest=a.split(",", 1)[1]),
                    encoding="utf-8")
    with pytest.raises(ValueError, match=re.escape(
            f"{path}: line {lineno}: {message.format(kind=what)}")):
        read(path)


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


# ------------------------------------------------------------------ memory

def test_writing_and_reading_200k_rows_stays_within_its_memory_bound(tmp_path):
    # 200k rows at two phases, as in the files benchmark.  The tracemalloc
    # peaks are 5.9 MB to write and 9.2 MB to read (the parsed table and
    # the batch's columns are 4.8 MB each); the bounds are about twice
    # these.  Writing the whole text at once peaked at 45 MB, and reading
    # the list of the file's lines at 34 MB.
    rng = np.random.default_rng(0)
    n = 100_000
    samples = Samples(np.repeat([np.pi / 4, 3 * np.pi / 4], n), rng.normal(size=2 * n),
                      rng.normal(size=2 * n))
    path = tmp_path / "samples.csv"
    peaks = [traced_peak_mb(lambda: tio.write_samples(path, samples)),
             traced_peak_mb(lambda: tio.read_samples(path))]
    assert peaks[0] <= 12.0 and peaks[1] <= 18.0, peaks
