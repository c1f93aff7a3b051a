"""Matrix and vector file parsing and emission.

Two matrix formats are auto-detected:

  * plain text: first token is the dimension n, followed by n*n
    whitespace-separated entries in row-major order;
  * CSV: n lines of n comma-separated entries, no header.

Entries are decimals or simple integer fractions ``p/q``, so rational
fixtures round-trip to the nearest binary double without a decimal
transcription step.  Vector files are plain numbers separated by whitespace
or commas, with the same token syntax.

The token grammar is Python's ``float`` (underscores and the ``inf``/``nan``
spellings included; non-finite values are rejected) plus ``p/q`` with
integer parts, rounded once as ``int(p) / int(q)``.  A well-formed matrix
file is read in one conversion pass: ``np.fromstring(text, sep=" ")`` turns
the text (a whole plain file, head included, or each line of a CSV file,
commas made spaces) into a float64 array, rounding each number with CPython's
``PyOS_string_to_double`` as ``float`` does.  Text numpy rejects or warns
about (fractions, underscores, separators outside ASCII whitespace), a count
mismatch, a non-finite value or text with no number falls back to the
positioned scan: a regex over each line that returns the values, fractions
included, or raises the error with the 1-based line and column of the
offending token.  The scan defines the grammar, so which pass ran never
changes a value or an error.  Vector files are read by the scan alone.
Files are read as UTF-8; a leading byte-order mark, as spreadsheet "CSV
UTF-8" exports write, is skipped.  Bytes that are not UTF-8, integers with
more digits than ``int`` converts, and fractions beyond the largest double
raise the same positioned error.
"""

from __future__ import annotations

import math
import re
import warnings

import numpy as np

from .errors import EmptyFile, NonSquare, ParseError

_TOKEN_RE = re.compile(r"[^\s,]+")
_INT_RE = re.compile(r"[+-]?\d+\Z")


def _lines(text: str):
    """Yield the tokens of each non-blank line as (token, line, column), 1-based
    positions; tokens are separated by whitespace and commas, so a line of
    commas only yields no token."""
    for line_no, line in enumerate(text.splitlines(), start=1):
        if line.strip():
            yield [(m.group(0), line_no, m.start() + 1) for m in _TOKEN_RE.finditer(line)]


def _parse_number(token: str, line: int, column: int) -> float:
    if "/" in token:
        num, _, den = token.partition("/")
        if not (_INT_RE.match(num) and _INT_RE.match(den)):
            raise ParseError(line, column, f"malformed fraction {token!r}")
        try:
            denominator = int(den)
            if denominator == 0:
                raise ParseError(line, column, f"zero denominator in {token!r}")
            return int(num) / denominator
        except ValueError:  # over int()'s limit, sys.get_int_max_str_digits()
            message = f"too many digits in fraction ({len(token)} characters)"
            raise ParseError(line, column, message) from None
        except OverflowError:  # the quotient is beyond the largest double
            raise ParseError(line, column, f"non-finite entry {token!r}") from None
    try:
        value = float(token)
    except ValueError:
        raise ParseError(line, column, f"not a number: {token!r}") from None
    if not math.isfinite(value):
        raise ParseError(line, column, f"non-finite entry {token!r}")
    return value


def _convert(text: str) -> np.ndarray | None:
    """The numbers in ``text`` as one float64 array, or None where the scan
    has to run: no number (numpy reads blank text as ``[-1.0]``), text numpy
    rejects (older numpy warns and returns a prefix), a non-finite value."""
    if text.isspace():
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            values = np.fromstring(text, sep=" ")
    except (ValueError, DeprecationWarning):
        return None
    return values if np.isfinite(values).all() else None


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8-sig") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # The bytes before the fault decode; the last of their lines holds it.
        lines = (exc.object[: exc.start].decode("utf-8") + "?").splitlines()
        raise ParseError(
            len(lines), len(lines[-1]), f"not UTF-8 text: byte 0x{exc.object[exc.start]:02x}"
        ) from None
    if not _TOKEN_RE.search(text):  # blank, or separators only
        raise EmptyFile(f"{path} contains no data")
    return text


def parse_matrix(path: str) -> np.ndarray:
    """Parse a matrix file in either supported format."""
    text = _read(path)
    if "," in text:
        return _parse_csv(text)
    return _parse_plain(text)


def _parse_csv(text: str) -> np.ndarray:
    # A line of commas only converts to None, as a row of width 0 fails the scan.
    rows = [_convert(line.replace(",", " ")) for line in text.splitlines() if line.strip()]
    n = len(rows)
    if all(row is not None and row.size == n for row in rows):
        return np.stack(rows)
    return _scan_csv(text)


def _scan_csv(text: str) -> np.ndarray:
    rows = [[_parse_number(*token) for token in line] for line in _lines(text)]
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise NonSquare(f"CSV has {n} rows but row lengths {sorted({len(r) for r in rows})}")
    return np.array(rows)


def _parse_plain(text: str) -> np.ndarray:
    # The head is converted with the entries, then checked against its token;
    # heads too long for int() are left to the scan, which reports them.
    head = _TOKEN_RE.search(text).group(0)
    n = int(head) if _INT_RE.match(head) and len(head) < 20 else 0
    values = _convert(text) if n > 0 else None
    ok = values is not None and values.size == n * n + 1 and values[0] == n
    return values[1:].reshape(n, n) if ok else _scan_plain(text)


def _scan_plain(text: str) -> np.ndarray:
    stream = [token for line in _lines(text) for token in line]
    token, line, column = stream[0]
    try:
        n = int(token) if _INT_RE.match(token) else 0
        if n <= 0:
            raise ParseError(line, column, f"expected a positive dimension, got {token!r}")
        entries = stream[1:]
        if len(entries) < n * n:
            raise ParseError(line, column, f"expected {n * n} entries, found {len(entries)}")
    except ValueError:  # n or n * n has more digits than int() and str() convert
        raise ParseError(line, column, f"dimension too large ({len(token)} characters)") from None
    if len(entries) > n * n:
        extra = entries[n * n]
        raise ParseError(extra[1], extra[2], f"trailing data after {n * n} entries")
    values = [_parse_number(tok, ln, col) for tok, ln, col in entries]
    return np.array(values).reshape(n, n)


def parse_vector(path: str) -> np.ndarray:
    """Parse a vector file: numbers separated by whitespace and/or commas.
    The scan alone reads it: ``q`` of an LCP the solver enumerates is short."""
    text = _read(path)
    return np.array([_parse_number(*token) for line in _lines(text) for token in line])


def format_matrix(m: np.ndarray) -> str:
    """Plain-text dump that reparses bit-exactly (entries via ``repr``)."""
    lines = [str(m.shape[0])]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in m)
    return "\n".join(lines) + "\n"
