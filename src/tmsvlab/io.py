"""File formats: sample and shot CSVs, density-matrix and report JSON.

CSV files are UTF-8 with exact headers (``theta_rad,x_a,x_b`` for samples,
``n_a,n_b,n_tot`` for shots), decimal points, no thousands separators.
Each row is one shot; the files hold a :class:`~tmsvlab.homodyne.Samples`
or :class:`~tmsvlab.homodyne.Shots` batch column by column.  Every value is
written as its ``repr`` (shortest round-trip precision for floats), so
identical data produce identical bytes.  Writers stream blocks of
``_CHUNK_ROWS`` rows to the open file, and within a block format each
distinct bit pattern of a column once (a phase column holds a few values,
a count column a few hundred); floats are told apart by their bits, so
``-0.0`` stays ``'-0.0'``.  Readers check the header line, then parse the
rest of the open file with ``np.loadtxt``; a line ends at ``\\n``, ``\\r``
or ``\\r\\n``.  Empty lines are skipped, and a line of only spaces or tabs
is a malformed row.  A file that fails to parse is read again as text to
name the line of the first malformed row, each non-empty line parsed by the
same ``np.loadtxt`` call, or to raise :class:`EmptyDataError` if no line
after the header holds more than whitespace.

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

import json
import warnings
from pathlib import Path

import numpy as np

from .fock import DENSITY_MATRIX_ORDERING, DensityMatrix, FockSpace
from .homodyne import Samples, Shots

SAMPLES_HEADER = "theta_rad,x_a,x_b"
SHOTS_HEADER = "n_a,n_b,n_tot"
_CHUNK_ROWS = 16384


class EmptyDataError(ValueError):
    """A data file parsed fine but contains no rows."""


def _formatted(column: np.ndarray) -> list[str]:
    """repr of each entry; each distinct bit pattern is formatted once."""
    bits = column.view(f"u{column.dtype.itemsize}") if column.dtype.kind == "f" else column
    distinct, inverse = np.unique(bits, return_inverse=True)
    values = distinct.view(column.dtype).tolist()
    return np.array(list(map(repr, values)), dtype=object)[inverse].tolist()


def _write_columns(path, header: str, columns) -> None:
    with open(path, "w", encoding="utf-8") as file:
        file.write(header + "\n")
        rows = len(columns[0]) if columns else 0
        for start in range(0, rows, _CHUNK_ROWS):
            texts = [_formatted(c[start:start + _CHUNK_ROWS]) for c in columns]
            file.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _read_columns(path, header: str, dtype, what: str) -> np.ndarray:
    """The three columns of a CSV file under ``header``, parsed as dtype."""
    table = None
    try:
        with open(path, encoding="utf-8") as file:
            if file.readline().strip() == header:
                with warnings.catch_warnings():  # a file with no rows is reported below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    table = np.loadtxt(file, dtype=dtype, delimiter=",", comments=None,
                                       ndmin=2)
    except ValueError:
        pass
    if table is None or table.shape[1] != 3:  # no rows parse to shape (0, 1)
        _raise_first_error(path, header, dtype, what)
    return table.T


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
