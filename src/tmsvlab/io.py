"""File formats: sample and shot CSVs, density-matrix and report JSON.

Bulk arrays (sample and shot rows, the parts of a density matrix) are
spelled as ``orjson`` spells them: Ryu's shortest round-trip digits, so
identical data give identical bytes and every float reads back to its
bits.  Reports (:func:`write_json`, :func:`write_csv_rows`) are spelled as
``json`` and ``repr`` spell them.  Bulk inputs are finite by construction
(:class:`~tmsvlab.homodyne.Samples` refuses nan and inf, shots are ints,
and :class:`~tmsvlab.fock.DensityMatrix` refuses a non-finite entry), so
orjson never writes ``null`` for them.

CSV files are UTF-8 with exact headers (``theta_rad,x_a,x_b`` for samples,
``n_a,n_b,n_tot`` for shots), decimal points, no thousands separators.
Each row is one shot of a :class:`~tmsvlab.homodyne.Samples` or
:class:`~tmsvlab.homodyne.Shots` batch; shot files are written only.  Each
chunk of ``_CHUNK_ROWS`` rows is one ``orjson`` text of its (n, 3) table,
every third comma made a ``\\n``.

A sample file is read in the calling process, in chunks of about
``_CHUNK_BYTES`` cut after a ``\\n``, in exactly the grammar the writer
writes: the header line, then lines of three JSON numbers split by commas.
Every line ends at ``\\n``, but the file's last line may lack it.  Every
chunk is parsed by ``orjson`` as one JSON array, which rounds each number
correctly; JSON's integer ``-0`` reads as +0.0 (the writer writes
``-0.0``).  Any other line, an empty one included, raises ValueError naming
it; a file with no line after the header raises :class:`EmptyDataError`.
Each chunk's rows are copied into three float64 columns, which grow by
doubling as a file or a pipe is read and are cut to the row count at the
end; the :class:`~tmsvlab.homodyne.Samples` returned adopts them uncopied.

The density-matrix JSON stores the cutoff, the basis ordering tag, and the
real and imaginary parts as nested arrays: :func:`density_matrix_to_dict`,
indented by two spaces with sorted keys, the line layout of
``json.dumps(..., indent=2, sort_keys=True)``.  Readers reject any file
whose stated ordering differs from the canonical row-major (nA, nB) layout,
and build the state through :class:`~tmsvlab.fock.DensityMatrix`, which
validates Hermiticity, unit trace, and positivity.
"""

import json
from pathlib import Path

import numpy as np
import orjson

from .fock import DENSITY_MATRIX_ORDERING, DensityMatrix, FockSpace
from .homodyne import Samples, Shots

SAMPLES_HEADER = "theta_rad,x_a,x_b"
SHOTS_HEADER = "n_a,n_b,n_tot"
_CHUNK_ROWS = 8192
# Read chunks of 64 KiB parse as fast as chunks of 1 MiB, and their buffers
# stay below glibc malloc's mmap threshold (128 KiB at first), so that each
# chunk reuses the memory of the last.  The read's columns start at
# _FIRST_ROWS rows and double as they fill.  ndarray.resize reallocs them
# (glibc moves a large block with mremap and copies no page) and zeroes the
# new half, so the columns peak at up to twice the rows read, 6 MB on the
# files benchmark's 200k rows; that peak is a `criteria` run's (ROADMAP).
_CHUNK_BYTES = 1 << 16
_FIRST_ROWS = 1 << 12
# the bytes of a line of JSON numbers
_NUMBER_BYTES = b"0123456789+-.Ee,\n"


class EmptyDataError(ValueError):
    """A data file parsed fine but contains no rows."""


def _lines(table: np.ndarray) -> bytes:
    """The CSV lines of an (n, k) table of ints or finite floats, each value
    as orjson spells it; a nan or inf would become ``null``, but no bulk
    input holds one (see the module docstring)."""
    flat = np.ascontiguousarray(table, np.float64 if table.dtype.kind == "f" else None).ravel()
    if not len(flat):
        return b""
    text = np.frombuffer(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8).copy()
    text[0] = text[-1] = ord(",")  # the array's brackets: a comma before each value
    commas = np.flatnonzero(text == ord(","))
    text[commas[table.shape[1]::table.shape[1]]] = ord("\n")
    return text[1:].tobytes()


def _write_table(path, header: str, columns) -> None:
    with open(path, "wb") as file:
        file.write(header.encode() + b"\n")
        for first in range(0, len(columns[0]), _CHUNK_ROWS):  # one chunk's text at a time
            file.write(_lines(np.stack([c[first:first + _CHUNK_ROWS] for c in columns], 1)))


def write_samples(path, samples: Samples) -> None:
    _write_table(path, SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b))


def write_shots(path, shots: Shots) -> None:
    _write_table(path, SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot))


def _chunks(file):
    """The bytes of a binary file, in pieces of about ``_CHUNK_BYTES`` that
    each end just after a ``\\n``, but the last."""
    parts = []  # a line longer than a block spans several
    while block := file.read(_CHUNK_BYTES):
        cut = block.rfind(b"\n") + 1
        if cut:
            parts.append(block[:cut])
            yield b"".join(parts)
            parts = [block[cut:]]
        else:
            parts.append(block)
    if rest := b"".join(parts):
        yield rest


def _rows(chunk: bytes, path, lineno: int) -> np.ndarray:
    """The rows of a chunk of whole lines, the first of them line lineno of
    the file at path, as an (n, 3) table; a malformed line raises."""
    stop = len(chunk) - chunk.endswith(b"\n")
    text = np.frombuffer(chunk, np.uint8, stop)
    ends = np.append(np.flatnonzero(text == ord("\n")), stop)
    commas = np.flatnonzero(text == ord(","))
    fields = None
    if not chunk.translate(None, _NUMBER_BYTES) and len(commas) == 2 * len(ends) \
            and not (commas[1::2] >= ends).any() and not (commas[2::2] <= ends[:-1]).any():
        numbers = memoryview(chunk.replace(b"\n", b","))[:stop]  # two commas inside each line
        try:
            values = orjson.loads(b"".join((b"[", numbers, b"]")))
            return np.array(values, np.float64).reshape(-1, 3)
        except orjson.JSONDecodeError as exc:  # a malformed or overflowing number, or no number
            # the array's "[" comes first, and an error at its "]" is the last line's
            line = chunk.count(b"\n", 0, min(exc.pos - 1, stop))
    else:  # the first line with other than three fields or with a byte outside a number
        fields = np.bincount(np.searchsorted(ends, commas), minlength=len(ends)) + 1
        line = min(np.append(np.flatnonzero(fields != 3), len(ends))[0],
                   chunk.count(b"\n", 0, len(chunk) - len(chunk.lstrip(_NUMBER_BYTES))))
        if line:  # unless a line before it fails as JSON
            _rows(chunk[:ends[line - 1] + 1], path, lineno)
    fault = "non-numeric field" if fields is None or fields[line] == 3 else \
        f"expected 3 fields, got {fields[line]}"
    raise ValueError(f"{path}: line {lineno + line}: {fault}")


def read_samples(path) -> Samples:
    """The samples of a sample CSV, in the grammar of the module docstring."""
    columns, rows = [np.empty(_FIRST_ROWS) for _ in range(3)], 0
    with open(path, "rb") as file:
        if file.readline().removesuffix(b"\n") != SAMPLES_HEADER.encode():
            raise ValueError(f"{path}: expected header {SAMPLES_HEADER!r}")
        for chunk in _chunks(file):
            table = _rows(chunk, path, rows + 2)  # line 1 is the header
            end = rows + len(table)
            if end > len(columns[0]):
                for column in columns:
                    column.resize(max(end, 2 * len(column)), refcheck=False)
            for column, values in zip(columns, table.T):
                column[rows:end] = values
            rows = end
    if not rows:
        raise EmptyDataError(f"{path}: no samples")
    for column in columns:
        column.resize(rows, refcheck=False)
    return Samples(*columns)


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
    entries = np.array(d["re"], dtype=np.complex128)
    entries.imag = d["im"]  # re + 1j * im would turn each -0.0 into +0.0
    return DensityMatrix(FockSpace(int(d["n_cut"])), entries)


def write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def read_json(path) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def write_density_matrix(path, rho: DensityMatrix) -> None:
    """:func:`density_matrix_to_dict` of rho in json's indented layout, each
    float of the finite parts as orjson spells it (unlike :func:`write_json`,
    whose reports json spells)."""
    Path(path).write_bytes(orjson.dumps(
        density_matrix_to_dict(rho),
        option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE))


def read_density_matrix(path) -> DensityMatrix:
    return density_matrix_from_dict(read_json(path))


def write_csv_rows(path, header: str, rows) -> None:
    """Rows under a fixed header, each value the repr of its column's tolist()."""
    texts = [map(repr, np.asarray(column).tolist()) for column in zip(*rows)]
    Path(path).write_text("\n".join([header, *map(",".join, zip(*texts)), ""]), encoding="utf-8")
