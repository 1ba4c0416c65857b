"""The sample, shot and table CSVs against their former whole-file forms.

The writer formats chunks of rows and each distinct bit pattern of a
chunk's column once; the reader checks the header line and gives the open
file to np.loadtxt.  A large file is written and read in W blocks at once,
all but the first in forked children.  Their former versions, kept here as
oracles, formatted every value with repr into one text and parsed the list
of the file's lines.  Bytes, parsed columns, exception types and messages
must not differ, at any W, except where the former reader's checker passed
a line that np.loadtxt rejects: the reader now names that line.
"""

import os
import re
import threading
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


def former_outcome(kind, path):
    if kind == "samples":
        return outcome(lambda p: Samples(*former_read(p, tio.SAMPLES_HEADER, np.float64,
                                                      "samples")), path)
    return outcome(lambda p: Shots(*former_read(p, tio.SHOTS_HEADER, np.int64, "shots")), path)


def assert_same_outcome(got, expected):
    assert got[0] == expected[0]
    if got[0] == "read":
        assert_same_batch(got[1], expected[1])
    else:
        assert got[1] == expected[1]


SAMPLE_CASES = reader_cases(tio.SAMPLES_HEADER,
                            ["0.3,-1.25,2.0", "1.9,0.0,-0.0", "0.3,1e-05,nan"], "oops")
SHOT_CASES = {**reader_cases(tio.SHOTS_HEADER, ["3,4,100", "0,0,1", "12,7,500"], "oops"),
              "float count": f"{tio.SHOTS_HEADER}\n3,4,100\n1.5,0,7\n",
              "negative count": f"{tio.SHOTS_HEADER}\n3,4,100\n-1,0,7\n"}


@pytest.mark.parametrize("kind, case", [("samples", c) for c in SAMPLE_CASES]
                         + [("shots", c) for c in SHOT_CASES])
def test_reader_matches_the_former_reader(tmp_path, kind, case):
    text = (SAMPLE_CASES if kind == "samples" else SHOT_CASES)[case]
    path = tmp_path / f"{kind}.csv"
    path.write_bytes(text.encode("utf-8"))
    read = tio.read_samples if kind == "samples" else tio.read_shots
    assert_same_outcome(outcome(read, path), former_outcome(kind, path))


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


# ------------------------------------------------------------ worker count

WORKER_COUNTS = (1, 2, 3)


@pytest.fixture
def workers(monkeypatch):
    """A function that sets the worker count W of every later write and
    read, and counts the children started: one block per row or byte, and
    W usable CPUs (W = 3 runs three processes on a host with fewer cores)."""
    started = []
    child = tio._Child

    def counted(*args):
        started.append(args)
        return child(*args)

    monkeypatch.setattr(tio, "_Child", counted)
    monkeypatch.setattr(tio, "_MIN_BLOCK_ROWS", 1)
    monkeypatch.setattr(tio, "_MIN_BLOCK_BYTES", 1)

    def set_workers(w):
        monkeypatch.setattr(tio, "_usable_cpus", lambda: w)
        return started

    return set_workers


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("w", WORKER_COUNTS)
def test_files_and_columns_do_not_depend_on_the_worker_count(tmp_path, workers, w):
    # -0.0, NaN, +-inf, subnormals and int columns, each block several chunks
    started = workers(w)
    rng = np.random.default_rng(7)
    n = 3 * CHUNK + 5
    theta = rng.choice([0.0, 0.7853981633974483, 2.356194490192345], n)
    samples = Samples(theta, mixed_floats(n, rng), mixed_floats(n, rng))
    n_tot = rng.choice([1, 7, 500, 2 ** 62], n)
    shots = Shots(rng.integers(0, n_tot // 2 + 1), rng.integers(0, n_tot // 2 + 1), n_tot)
    rows = list(zip(rng.integers(0, 3000, n).tolist(), mixed_floats(n, rng).tolist(),
                    (rng.random(n) < 0.5).tolist()))
    tio.write_samples(tmp_path / "samples.csv", samples)
    tio.write_shots(tmp_path / "shots.csv", shots)
    tio.write_csv_rows(tmp_path / "table.csv", "i,x,b", rows)
    assert len(started) == 3 * (w - 1)
    for name, header, columns in [
            ("samples", tio.SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b)),
            ("shots", tio.SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot)),
            ("table", "i,x,b", [np.asarray(c) for c in zip(*rows)])]:
        former_write(tmp_path / "former.csv", header, columns)
        assert (tmp_path / f"{name}.csv").read_bytes() == \
            (tmp_path / "former.csv").read_bytes(), name
    assert_same_batch(tio.read_samples(tmp_path / "samples.csv"), samples)
    assert_same_batch(tio.read_shots(tmp_path / "shots.csv"), shots)
    assert len(started) == 5 * (w - 1)
    assert_no_child_left()


@pytest.mark.parametrize("w", WORKER_COUNTS)
def test_reader_cases_at_every_worker_count(tmp_path, workers, w):
    # every case of the two reader tests above
    workers(w)
    for kind, cases in (("samples", SAMPLE_CASES), ("shots", SHOT_CASES)):
        for case in cases:
            test_reader_matches_the_former_reader(tmp_path, kind, case)
        for case in LOCATED_CASES:
            test_reader_names_the_line_that_loadtxt_rejects(tmp_path, kind, case)
    assert_no_child_left()


@pytest.mark.parametrize("w", WORKER_COUNTS)
@pytest.mark.parametrize("kind", ["samples", "shots"])
def test_reader_names_the_bad_line_in_every_block(tmp_path, workers, w, kind):
    # nine good rows and one bad line, at each line in turn, so that at W = 2
    # and 3 the bad line sits in each block and at each block's edges
    workers(w)
    if kind == "samples":
        header, good, read = tio.SAMPLES_HEADER, "0.3,-1.25,2.0", tio.read_samples
        field = "non-numeric field"
    else:
        header, good, read = tio.SHOTS_HEADER, "3,4,100", tio.read_shots
        field = "non-integer field"
    # the former reader's checker passed 1_0 and a line of spaces
    bad_lines = {"oops,{rest}": field, "{good},1": "expected 3 fields, got 4",
                 "1_0,{rest}": field, "   ": "expected 3 fields, got 1"}
    path = tmp_path / f"{kind}.csv"
    for bad, message in bad_lines.items():
        for at in range(10):
            lines = [good] * 9
            lines.insert(at, bad.format(good=good, rest=good.split(",", 1)[1]))
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            got = outcome(read, path)
            assert got == (ValueError, f"{path}: line {at + 2}: {message}")
            if bad.startswith(("oops", "{good}")):
                assert got == former_outcome(kind, path)
            lines[at] = ""  # an empty line is skipped
            path.write_text("\n".join([header, *lines]) + "\n", encoding="utf-8")
            assert_same_outcome(outcome(read, path), former_outcome(kind, path))
    assert_no_child_left()


def test_reader_reads_a_pipe(tmp_path, workers):
    # a pipe has no size and cannot seek: it is read in one block
    started = workers(2)
    text = f"{tio.SAMPLES_HEADER}\n" + "0.3,-1.25,2.0\n" * 50
    path = tmp_path / "pipe.csv"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
    writer.start()
    try:
        samples = tio.read_samples(path)
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive() and not started
    assert len(samples) == 50 and samples.x_b.tolist() == [2.0] * 50


@pytest.mark.parametrize("fails", ["parent", "child"])
def test_no_child_is_left_after_a_write(tmp_path, workers, monkeypatch, fails):
    started = workers(2)
    samples = Samples(np.zeros(10), np.arange(10.0), np.ones(10))
    tio.write_samples(tmp_path / "samples.csv", samples)
    assert len(started) == 1
    assert_no_child_left()
    csv_text = tio._csv_text

    def failing(columns, start, stop):
        if (start == 0) == (fails == "parent"):
            raise MemoryError("formatting failed")
        return csv_text(columns, start, stop)

    monkeypatch.setattr(tio, "_csv_text", failing)
    error = MemoryError if fails == "parent" else ChildProcessError
    with pytest.raises(error):
        tio.write_samples(tmp_path / "samples.csv", samples)
    assert len(started) == 2
    assert_no_child_left()


def test_no_child_is_left_after_a_read(tmp_path, workers):
    started = workers(3)
    path = tmp_path / "samples.csv"
    tio.write_samples(path, Samples(np.zeros(30), np.arange(30.0), np.ones(30)))
    assert len(tio.read_samples(path)) == 30
    assert_no_child_left()
    text = path.read_text(encoding="utf-8")
    for broken in (text.replace("theta", "phi"), text[:-20] + "x" + text[-19:]):
        path.write_text(broken, encoding="utf-8")
        with pytest.raises(ValueError):
            tio.read_samples(path)
        assert_no_child_left()
    assert len(started) == 2 + 2 + 2 + 2


def test_a_read_block_whose_child_died_is_parsed_in_process(tmp_path, workers, monkeypatch):
    workers(3)
    path = tmp_path / "samples.csv"
    samples = Samples(np.zeros(30), np.arange(30.0), np.ones(30))
    tio.write_samples(path, samples)
    parent, parse_block = os.getpid(), tio._parse_block

    def dies_in_a_child(*args):
        if os.getpid() != parent:
            os._exit(3)
        return parse_block(*args)

    monkeypatch.setattr(tio, "_parse_block", dies_in_a_child)
    assert_same_batch(tio.read_samples(path), samples)
    assert_no_child_left()


def test_the_worker_count_never_exceeds_the_usable_cpus(monkeypatch):
    cpus = len(os.sched_getaffinity(0))
    for size, smallest in [(10 ** 12, 1), (10 ** 9, tio._MIN_BLOCK_ROWS),
                           (10 ** 12, tio._MIN_BLOCK_BYTES)]:
        edges = tio._edges(size, smallest)
        assert len(edges) - 1 == cpus and edges[0] == 0 and edges[-1] == size
    assert tio._edges(tio._MIN_BLOCK_ROWS - 1, tio._MIN_BLOCK_ROWS) == [0, tio._MIN_BLOCK_ROWS - 1]
    monkeypatch.delattr(os, "fork")
    assert tio._edges(10 ** 12, 1) == [0, 10 ** 12]


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
