"""File formats: MatrixMarket and CSV matrices, JSON reports and manifests.

The MatrixMarket support is deliberately local: parse errors carry
1-based line numbers, and values are written with %.17g so a write/read
round trip reproduces every IEEE double bit-for-bit. Array files are
column-major per the format definition. All writes go through a
temp-file-plus-rename so readers never observe a partial file.

Files are read as UTF-8; a byte that is not UTF-8 is a ParseError at its
line. Array files are the inputs of every solver command, so their io is
done in bulk rather than per entry: the writer formats all values with one
%-operation, and the reader converts all data tokens in one pass with
Python's float(). Only when that pass fails (a bad or non-finite token, or
a % comment line between the values) does the reader rescan the data line
by line, which skips the comments or raises the ParseError with its line.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import tempfile

import numpy as np

from .errors import BadShape, DimensionMismatch, ParseError


def _atomic_write_text(path: str, text: str) -> None:
    d = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _read_lines(path: str) -> list:
    """The lines of a UTF-8 text file, newlines translated as open() does."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.readlines()
    except UnicodeDecodeError:
        pass
    # read again with each undecodable byte b turned into the lone surrogate
    # U+DC00 + b, which valid UTF-8 never yields, to find its line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            bad = next((ch for ch in line if "\udc80" <= ch <= "\udcff"), None)
            if bad is not None:
                raise ParseError(
                    f"not UTF-8 text (byte 0x{ord(bad) - 0xdc00:02x})", lineno)
    raise ParseError("not UTF-8 text")


def _parse_float(tok: str, lineno: int) -> float:
    try:
        v = float(tok)
    except ValueError:
        raise ParseError(f"bad numeric value {tok!r}", lineno) from None
    if not math.isfinite(v):
        raise ParseError(f"non-finite value {tok!r}", lineno)
    return v


def _read_mm(path: str) -> np.ndarray:
    lines = _read_lines(path)
    if not lines:
        raise ParseError("empty file", 1)
    banner = lines[0].split()
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

    idx = 1
    while idx < len(lines) and (lines[idx].startswith("%") or not lines[idx].strip()):
        idx += 1
    if idx >= len(lines):
        raise ParseError("missing size line", len(lines))
    size_line = idx + 1  # 1-based
    toks = lines[idx].split()
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
        tokens = "".join(lines[idx + 1:]).split()
        try:
            vals = np.fromiter(map(float, tokens), float, count=len(tokens))
        except ValueError:  # a bad token, or a '%' comment among the values
            vals = None
        if vals is None or not np.isfinite(vals).all():
            vals = []
            for off, raw in enumerate(lines[idx + 1:], start=size_line + 1):
                s = raw.strip()
                if not s or s.startswith("%"):
                    continue
                for tok in s.split():
                    vals.append(_parse_float(tok, off))
        if len(vals) != n * k:
            raise DimensionMismatch(
                f"expected {n * k} entries for {n} x {k}, found {len(vals)}")
        return np.array(vals).reshape((k, n)).T  # stored column-major
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
    for off, raw in enumerate(lines[idx + 1:], start=size_line + 1):
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


def write_matrix(path: str, M, fmt: str = None) -> None:
    """Write a dense matrix; %.17g so doubles round-trip exactly. Atomic."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise BadShape("write_matrix needs a 2-d array")
    fmt = _infer_format(path, fmt)
    if fmt == "mm":
        n, k = M.shape
        flat = M.T.ravel()  # column-major
        body = ("%.17g\n" * flat.size) % tuple(flat.tolist())
        _atomic_write_text(path, "%%MatrixMarket matrix array real general\n"
                           f"{n} {k}\n" + body)
    else:
        lines = (",".join("%.17g" % v for v in row) for row in M)
        _atomic_write_text(path, "\n".join(lines) + "\n")


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
    _atomic_write_text(path, text + "\n")


def read_report(path: str) -> dict:
    with open(path, "r") as fh:
        return json.load(fh)


@dataclasses.dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run: command, parameters, seeds.

    Deliberately timestamp-free so identical runs produce identical
    manifests (and, seconds aside, identical reports).
    """

    command: str
    params: dict
    seeds: tuple

    def to_dict(self) -> dict:
        return {"command": self.command, "params": _sanitize(self.params),
                "seeds": list(self.seeds)}


def write_manifest(path: str, manifest: RunManifest) -> None:
    write_report(path, manifest.to_dict())
