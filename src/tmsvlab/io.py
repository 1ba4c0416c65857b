"""File formats: sample and shot CSVs, density-matrix and report JSON.

CSV files are UTF-8 with exact headers (``theta_rad,x_a,x_b`` for samples,
``n_a,n_b,n_tot`` for shots), decimal points, no thousands separators.
Each row is one shot; the files hold a :class:`~tmsvlab.homodyne.Samples`
or :class:`~tmsvlab.homodyne.Shots` batch column by column.  Every value is
written as its ``repr`` (shortest round-trip precision for floats), so
identical data produce identical bytes.  Writers format chunks of
``_CHUNK_ROWS`` rows, and within a chunk each distinct bit pattern of a
column once (a phase column holds a few values, a count column a few
hundred); floats are told apart by their bits, so ``-0.0`` stays
``'-0.0'``.  Readers check the header line, then parse the rest of the file
with ``np.loadtxt``; a line ends at ``\\n``, ``\\r`` or ``\\r\\n``.  Empty
lines are skipped, and a line of only spaces or tabs is a malformed row.  A
file that fails to parse is read again as text to name the line of the
first malformed row, each non-empty line parsed by the same ``np.loadtxt``
call, or to raise :class:`EmptyDataError` if no line after the header holds
more than whitespace.

A large CSV is written and read in W contiguous blocks at once.  W is the
number of usable CPUs, but at most one block per ``_MIN_BLOCK_ROWS`` rows
written or ``_MIN_BLOCK_BYTES`` bytes read (a pipe, which has no size, is
one block), and 1 where ``os.fork`` does not exist; at W = 1 no process is
started.  The first block is done in process, each other one in a forked
child: it formats its rows, or parses its lines (cut just after a
``\\n``), with the same code, sends the text or the parsed rows back over a
pipe, and ends with ``os._exit``.  A child runs numpy's formatting or
parsing only: no BLAS call and no lock of another thread.  The blocks are
joined in order, so the bytes written and the columns read do not depend
on W.  A read block of only empty lines has no rows.  A read block whose
child failed is parsed again in process, so a child that died costs time,
not the result, and a block that does not parse sends the file to the
error path above: every error is the one a single pass gives.  A write
whose child failed raises :class:`ChildProcessError`.  Every child is
reaped before the call returns, and killed first if the call fails.

The density-matrix JSON stores the cutoff, the basis ordering tag, and the
real and imaginary parts as nested arrays.  It holds the bytes that
``json.dumps(..., indent=2, sort_keys=True)`` gives for
:func:`density_matrix_to_dict`, as :func:`write_json` writes every report,
but its floats are formatted as the CSV writers format a column: the
``repr`` of each distinct bit pattern, once.  (json encodes an indented
payload in pure Python, a float at a time.)  Readers reject any file whose
stated ordering differs from the canonical row-major (nA, nB) layout, and
build the state through :class:`~tmsvlab.fock.DensityMatrix`, which
validates Hermiticity, unit trace, and positivity.
"""

import contextlib
import json
import os
import warnings
from io import BufferedReader, RawIOBase, TextIOWrapper
from pathlib import Path

import numpy as np

from .fock import DENSITY_MATRIX_ORDERING, DensityMatrix, FockSpace
from .homodyne import Samples, Shots

SAMPLES_HEADER = "theta_rad,x_a,x_b"
SHOTS_HEADER = "n_a,n_b,n_tot"
_CHUNK_ROWS = 16384
# A block of these takes about 75 ms to format or 50 ms to parse, against
# about 5 ms to fork a child and drain its pipe; smaller files stay in process.
_MIN_BLOCK_ROWS = 32768
_MIN_BLOCK_BYTES = 1 << 21


class EmptyDataError(ValueError):
    """A data file parsed fine but contains no rows."""


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return os.cpu_count() or 1


def _edges(size: int, smallest: int) -> list[int]:
    """W + 1 offsets that cut range(size) into W equal blocks: the usable
    CPUs, at most one per ``smallest``, at least one; one without os.fork."""
    workers = max(1, min(_usable_cpus(), size // smallest)) if hasattr(os, "fork") else 1
    return [size * i // workers for i in range(workers + 1)]


class _Child:
    """A forked process that sends the bytes of ``work(*block)`` down a pipe
    and exits: status 0 once they are sent, 1 if work raised or returned
    None."""

    def __init__(self, work, block):
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
            raise
        if pid == 0:  # the child: never returns
            status = 1
            try:
                os.close(read_fd)
                payload = work(*block)
                if payload is not None:
                    with open(write_fd, "wb") as pipe:
                        pipe.write(payload)
                    status = 0
            finally:
                os._exit(status)
        os.close(write_fd)
        self.pid, self.fd, self.status = pid, read_fd, None

    def drain(self, sink) -> bool:
        """Pass what the child sends to sink, reap it, and tell whether it
        succeeded."""
        while chunk := os.read(self.fd, 1 << 20):
            sink(chunk)
        self.reap()
        return self.status == 0

    def reap(self, kill: bool = False) -> None:
        if self.status is None:
            if kill:
                from signal import SIGKILL  # only a failed call gets here; the import costs 1 ms
                os.kill(self.pid, SIGKILL)
            self.status = os.waitstatus_to_exitcode(os.waitpid(self.pid, 0)[1])
            os.close(self.fd)


@contextlib.contextmanager
def _forked(work, blocks):
    """One :class:`_Child` running work(*block) per block; each is reaped
    on exit, and killed first if it has not been."""
    children = []
    try:
        for block in blocks:
            children.append(_Child(work, block))
        yield children
    finally:
        for child in children:
            child.reap(kill=True)


def _formatted(column: np.ndarray) -> list[str]:
    """repr of each entry; each distinct bit pattern is formatted once."""
    bits = column.view(f"u{column.dtype.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(bits, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    return np.array(list(map(repr, values)), dtype=object)[inverse].tolist()


def _csv_text(columns, start: int, stop: int):
    """Rows start to stop of the columns as CSV lines, _CHUNK_ROWS at a time."""
    for first in range(start, stop, _CHUNK_ROWS):
        texts = [_formatted(c[first:min(first + _CHUNK_ROWS, stop)]) for c in columns]
        yield "\n".join(map(",".join, zip(*texts))) + "\n"


def _write_columns(path, header: str, columns) -> None:
    rows = len(columns[0]) if columns else 0
    edges = _edges(rows, _MIN_BLOCK_ROWS)
    blocks = list(zip(edges, edges[1:]))
    whole = lambda start, stop: "".join(_csv_text(columns, start, stop)).encode()
    with open(path, "w", encoding="utf-8") as file, _forked(whole, blocks[1:]) as children:
        file.write(header + "\n")
        file.writelines(_csv_text(columns, *blocks[0]))  # holds one chunk at a time
        file.flush()  # the children's bytes follow it
        for child, (start, stop) in zip(children, blocks[1:]):
            if not child.drain(file.buffer.write):
                raise ChildProcessError(f"{path}: formatting rows {start} to {stop} failed "
                                        f"with status {child.status}")


class _Span(RawIOBase):
    """The next ``size`` bytes of a binary file."""

    def __init__(self, file, size: int):
        self._file, self._left = file, size

    def readable(self) -> bool:
        return True

    def readinto(self, buffer) -> int:
        n = self._file.readinto(memoryview(buffer)[:self._left])
        self._left -= n
        return n


def _parse_rows(file, size, header, dtype):
    """The rows in the next ``size`` bytes of a binary file (to its end if
    size is None) as an (n, 3) table, or None if they do not parse; a
    header, if given, must open them."""
    if size is not None:
        file = BufferedReader(_Span(file, size), 1 << 16)
    text = TextIOWrapper(file, encoding="utf-8")
    try:
        if header is not None and text.readline().strip() != header:
            return None
        with warnings.catch_warnings():  # a file or block with no rows is handled below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(text, dtype=dtype, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    finally:
        text.detach()  # the file stays open for its owner
    if len(table) == 0:  # no rows parse to shape (0, 1)
        return table.reshape(0, 3)
    return table if table.shape[1] == 3 else None


def _parse_block(path, start: int, stop, dtype):
    """:func:`_parse_rows` of bytes start to stop of a file, opened anew."""
    with open(path, "rb") as file:
        file.seek(start)
        return _parse_rows(file, None if stop is None else stop - start, None, dtype)


def _block_starts(file) -> list[int]:
    """Where W blocks of about equal size start in an open binary file: at 0
    and, for each later block, at the first line that starts at or after
    its share of the bytes."""
    size = os.fstat(file.fileno()).st_size
    shares = _edges(size, _MIN_BLOCK_BYTES)[1:-1]
    starts = [0]
    for share in shares:
        file.seek(share)
        file.readline()
        if starts[-1] < file.tell() < size:
            starts.append(file.tell())
    if shares:  # a pipe has no size, and cannot seek
        file.seek(0)
    return starts


def _read_columns(path, header: str, dtype, what: str) -> np.ndarray:
    """The three columns of a CSV file under ``header``, parsed as dtype."""
    with open(path, "rb") as file:
        starts = _block_starts(file)
        blocks = list(zip(starts, starts[1:] + [None]))
        parse = lambda start, stop: _parse_block(path, start, stop, dtype)
        with _forked(parse, blocks[1:]) as children:
            tables = [_parse_rows(file, blocks[0][1], header, dtype)]
            for child, block in zip(children, blocks[1:]):
                if tables[-1] is None:
                    break
                received = bytearray()
                tables.append(np.frombuffer(received, dtype).reshape(-1, 3)
                              if child.drain(received.extend) else parse(*block))
    if tables[-1] is None or not sum(map(len, tables)):
        _raise_first_error(path, header, dtype, what)
    return (tables[0] if len(tables) == 1 else np.concatenate(tables)).T


def _raise_first_error(path, header: str, dtype, what: str) -> None:
    """Raise the error of a file that failed to parse: a wrong header, no
    rows, or the first malformed row, named by its line.  Lines end where
    they end for ``np.loadtxt``: at \\n, \\r or \\r\\n.  Each non-empty line
    is parsed by the reader's own ``np.loadtxt`` call, so the two agree on
    which rows are malformed."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0].strip() != header:
        raise ValueError(f"{path}: expected header {header!r}")
    body = lines[1:]
    if not "".join(body).strip():
        raise EmptyDataError(f"{path}: no {what}")
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            np.loadtxt([line], dtype=dtype, delimiter=",", comments=None)
        except ValueError:
            kind = "non-numeric" if dtype == np.float64 else "non-integer"
            raise ValueError(f"{path}: line {lineno}: {kind} field") from None
    raise ValueError(f"{path}: malformed rows")


def write_samples(path, samples: Samples) -> None:
    _write_columns(path, SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b))


def read_samples(path) -> Samples:
    return Samples(*_read_columns(path, SAMPLES_HEADER, np.float64, "samples"))


def write_shots(path, shots: Shots) -> None:
    _write_columns(path, SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot))


def read_shots(path) -> Shots:
    return Shots(*_read_columns(path, SHOTS_HEADER, np.int64, "shots"))


def density_matrix_to_dict(rho: DensityMatrix) -> dict:
    return {
        "n_cut": rho.space.n_cut,
        "ordering": DENSITY_MATRIX_ORDERING,
        "re": rho.entries.real.tolist(),
        "im": rho.entries.imag.tolist(),
    }


def density_matrix_from_dict(d: dict) -> DensityMatrix:
    ordering = d.get("ordering")
    if ordering != DENSITY_MATRIX_ORDERING:
        raise ValueError(f"unsupported basis ordering {ordering!r}; "
                         f"expected {DENSITY_MATRIX_ORDERING!r}")
    entries = np.asarray(d["re"], dtype=np.float64) + 1j * np.asarray(d["im"], dtype=np.float64)
    return DensityMatrix(FockSpace(int(d["n_cut"])), entries)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n",
                          encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_density_matrix(path, rho: DensityMatrix) -> None:
    """The bytes of ``write_json(path, density_matrix_to_dict(rho))``."""
    dim = rho.space.dim

    def nested(part: np.ndarray) -> str:
        values = part.ravel()
        texts = _formatted(values)
        for i in np.flatnonzero(~np.isfinite(values)):  # NaN, Infinity, -Infinity
            texts[i] = json.dumps(values[i].item())
        rows = (",\n      ".join(texts[i:i + dim]) for i in range(0, dim * dim, dim))
        return "[\n    [\n      " + "\n    ],\n    [\n      ".join(rows) + "\n    ]\n  ]"

    Path(path).write_text(
        f'{{\n  "im": {nested(rho.entries.imag)},\n  "n_cut": {rho.space.n_cut},\n'
        f'  "ordering": {json.dumps(DENSITY_MATRIX_ORDERING)},\n'
        f'  "re": {nested(rho.entries.real)}\n}}\n', encoding="utf-8")


def read_density_matrix(path) -> DensityMatrix:
    return density_matrix_from_dict(read_json(path))


def write_csv_rows(path, header: str, rows) -> None:
    """Write rows of floats/ints under a fixed header with repr formatting."""
    _write_columns(path, header, [np.asarray(column) for column in zip(*rows)])
