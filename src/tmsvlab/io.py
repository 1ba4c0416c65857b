"""File formats: sample and shot CSVs, density-matrix and report JSON.

CSV files are UTF-8 with exact headers (``theta_rad,x_a,x_b`` for samples,
``n_a,n_b,n_tot`` for shots), decimal points, no thousands separators.
Each row is one shot; the files hold a :class:`~tmsvlab.homodyne.Samples`
or :class:`~tmsvlab.homodyne.Shots` batch column by column.  Shot files
are written only; sample files are written and read.  Every value is
written as its ``repr`` (shortest round-trip digits for floats), so
identical data produce identical bytes.  Writers format chunks of
``_CHUNK_ROWS`` rows in the calling process.  An int or float column is
printed by ``orjson``, whose Ryu shortest digits match ``repr`` wherever
``repr`` prints no exponent; every other entry (a float with |x| < 1e-4 or
|x| >= 1e16 other than 0, NaN and +-inf) and every other column (bool,
object) takes the ``repr`` of each distinct bit pattern, once.  Floats are
told apart by their bits, so ``-0.0`` stays ``'-0.0'``.

The sample reader runs in the calling process and starts none.  It checks
the header line, then reads the rest of the file in chunks of about
``_CHUNK_BYTES``, each cut just after a ``\\n``, and joins their rows in
order.  A chunk whose every line is three JSON numbers, split by commas
and ending at ``\\n``, none of them the integer ``-0`` (JSON's ``-0`` is
+0, np.loadtxt's is -0.0), is parsed by ``orjson`` as one JSON array; the
writer's output takes this path wherever it holds no NaN or +-inf.  Every
other chunk (``nan``, ``inf``, ``1e400``, ``01``, ``.5``, ``+1``,
whitespace, ``\\r``, empty lines) is parsed by ``np.loadtxt``, where a
line ends at ``\\n``, ``\\r`` or ``\\r\\n``.  Both parsers round each
number correctly, so the columns do not depend on the path a chunk takes,
nor on the chunk size.  Empty lines are skipped, and a line of only spaces
or tabs is a malformed row.  A header that is not exactly the line
``header\\n`` is checked, as stripped text, by the np.loadtxt call of the
first chunk.  A file that fails to parse is read again as text to name the
line of the first malformed row, each non-empty line parsed by the same
``np.loadtxt`` call, or to raise :class:`EmptyDataError` if no line after
the header holds more than whitespace.

The density-matrix JSON stores the cutoff, the basis ordering tag, and the
real and imaginary parts as nested arrays.  It holds the bytes that
``json.dumps(..., indent=2, sort_keys=True)`` gives for
:func:`density_matrix_to_dict`, as :func:`write_json` writes every report,
but its floats are formatted as the CSV writers format a column, and a
non-finite one as json spells it.  (json encodes an indented payload in
pure Python, a float at a time.)  Readers reject any file whose stated
ordering differs from the canonical row-major (nA, nB) layout, and build
the state through :class:`~tmsvlab.fock.DensityMatrix`, which
validates Hermiticity, unit trace, and positivity.
"""

import json
import warnings
from io import BytesIO, TextIOWrapper
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
# chunk reuses the memory of the last: a 200k-row read raises VmHWM by about
# 10 MB, against 16 MB in 1 MiB chunks.  The heap it leaves still costs a
# later step: a fresh `criteria` run peaks 3 to 6 MB above the former
# loadtxt reader's, in epr_report's (4, n) arrays (ROADMAP).
_CHUNK_BYTES = 1 << 16
# the bytes of a line of JSON numbers
_NUMBER_BYTES = b"0123456789+-.Ee,\n"


class EmptyDataError(ValueError):
    """A data file parsed fine but contains no rows."""


def _reprs(column: np.ndarray) -> list[bytes]:
    """repr of each entry; each distinct bit pattern is formatted once."""
    bits = column.view(f"u{column.dtype.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = [repr(value).encode() for value in distinct.view(column.dtype).tolist()]
    return np.array(texts, dtype=object)[inverse].tolist()


def _tokens(column: np.ndarray) -> list[bytes]:
    """repr of each entry of a 1-D column, as bytes: orjson's digits for an
    int and for a float that repr prints without an exponent, the repr of
    each distinct bit pattern for the rest."""
    kind = column.dtype.kind
    if kind not in "fiu" or not len(column):
        return _reprs(column)
    column = np.ascontiguousarray(column, {"f": np.float64, "i": np.int64, "u": np.uint64}[kind])
    tokens = orjson.dumps(column, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    if kind == "f":
        size = np.abs(column)
        odd = np.flatnonzero(~((size >= 1e-4) & (size < 1e16) | (column == 0)))  # NaN is odd
        for i, text in zip(odd.tolist(), _reprs(column[odd])):
            tokens[i] = text
    return tokens


def _write_columns(path, header: str, columns) -> None:
    rows = len(columns[0]) if columns else 0
    with open(path, "wb") as file:
        file.write(header.encode() + b"\n")
        for first in range(0, rows, _CHUNK_ROWS):  # holds one chunk's text at a time
            texts = [_tokens(c[first:first + _CHUNK_ROWS]) for c in columns]
            file.write(b"\n".join(map(b",".join, zip(*texts))) + b"\n")


def write_samples(path, samples: Samples) -> None:
    _write_columns(path, SAMPLES_HEADER, (samples.theta, samples.x_a, samples.x_b))


def write_shots(path, shots: Shots) -> None:
    _write_columns(path, SHOTS_HEADER, (shots.n_a, shots.n_b, shots.n_tot))


def _chunks(file, head: bytes = b""):
    """head, then the bytes of a binary file, in pieces of about
    ``_CHUNK_BYTES`` that each end just after a ``\\n``, but the last."""
    parts = [head]  # a line longer than a block spans several
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


def _fast_rows(chunk: bytes):
    """The rows of a chunk of float lines as an (n, 3) table, parsed as one
    JSON array, or None unless each line is three JSON numbers, none of
    them the integer -0 (which JSON reads as +0)."""
    if chunk.translate(None, _NUMBER_BYTES):
        return None
    stop = len(chunk) - chunk.endswith(b"\n")
    text = np.frombuffer(chunk, np.uint8, stop)
    ends = np.append(np.flatnonzero(text == ord("\n")), stop)
    commas = np.flatnonzero(text == ord(","))
    if len(commas) != 2 * len(ends) or (commas[1::2] >= ends).any() \
            or (commas[2::2] <= ends[:-1]).any():  # two commas inside each line
        return None
    last = np.concatenate((commas, ends)) - 1  # the last byte of each field
    if ((text[last] == ord("0")) & (text[last - 1] == ord("-"))).any():
        return None
    numbers = memoryview(chunk.replace(b"\n", b","))[:stop]
    try:
        values = orjson.loads(b"".join((b"[", numbers, b"]")))
    except orjson.JSONDecodeError:  # an empty field, or a number out of range
        return None
    return np.array(values, np.float64).reshape(-1, 3)


def _parse_rows(chunk: bytes, header):
    """The rows of a chunk as an (n, 3) table parsed by ``np.loadtxt``, or
    None if they do not parse; a header, if given, must open them."""
    text = TextIOWrapper(BytesIO(chunk), encoding="utf-8")
    try:
        if header is not None and text.readline().strip() != header:
            return None
        with warnings.catch_warnings():  # a file or chunk with no rows is handled below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if len(table) == 0:  # no rows parse to shape (0, 1)
        return table.reshape(0, 3)
    return table if table.shape[1] == 3 else None


def read_samples(path) -> Samples:
    """The samples of a sample CSV, parsed as the module docstring says."""
    tables = []
    with open(path, "rb") as file:
        line = file.readline()
        # any other first line is checked as text with the first chunk
        check = None if line == SAMPLES_HEADER.encode() + b"\n" else SAMPLES_HEADER
        for chunk in _chunks(file, b"" if check is None else line):
            table = _fast_rows(chunk) if check is None else None
            tables.append(_parse_rows(chunk, check) if table is None else table)
            if tables[-1] is None:
                break
            check = None
    if not tables or tables[-1] is None or not sum(map(len, tables)):
        _raise_first_error(path)
    return Samples(*(tables[0] if len(tables) == 1 else np.concatenate(tables)).T)


def _raise_first_error(path) -> None:
    """Raise the error of a file that failed to parse: a wrong header, no
    rows, or the first malformed row, named by its line.  Lines end where
    they end for ``np.loadtxt``: at \\n, \\r or \\r\\n.  Each non-empty line
    is parsed by the reader's own ``np.loadtxt`` call, so the two agree on
    which rows are malformed."""
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    if lines[0].strip() != SAMPLES_HEADER:
        raise ValueError(f"{path}: expected header {SAMPLES_HEADER!r}")
    body = lines[1:]
    if not "".join(body).strip():
        raise EmptyDataError(f"{path}: no samples")
    for lineno, line in enumerate(body, start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields, got {len(parts)}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: non-numeric field") from None
    raise ValueError(f"{path}: malformed rows")


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
        texts = [token.decode() for token in _tokens(values)]
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
