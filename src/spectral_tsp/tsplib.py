"""Reader for TSPLIB problem files of TYPE TSP.

EDGE_WEIGHT_TYPE EXPLICIT (FULL_MATRIX, UPPER_ROW, LOWER_ROW,
UPPER_DIAG_ROW, LOWER_DIAG_ROW), EUC_2D, ATT and GEO, each rounded as the
format defines, so tour lengths agree with published optima:

  EUC_2D  nint(sqrt(dx^2 + dy^2)) with nint(x) = floor(x + 0.5)
  ATT     r = sqrt((dx^2 + dy^2) / 10), t = nint(r), d = t + (t < r)
  GEO     DDD.MM: deg = trunc(x), angle PI (deg + 5 (x - deg) / 3) / 180
          with PI = 3.141592, d = trunc(6378.388 acos(0.5 ((1 + q1) q2 -
          (1 - q1) q3)) + 1), q1 = cos(dlon), q2 = cos(dlat), q3 = cos(lat+lat')

GEO truncates the degrees, as the TSPLIB95 FAQ and Concorde do; the format
document's nint(x) would read 14.55 as 14.25 degrees, not 14 deg 55'.
Parse errors are typed and name the offending line.  A number that is not
finite (nan, inf, 1e999), or distances that overflow, raise NonFiniteValue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    DimensionMismatch,
    InputFormatError,
    NonFiniteValue,
    TooLarge,
    TruncatedSection,
    UnsupportedKeyword,
)
from .linalg import _BLOCK_ENTRIES, SIZE_CAP, squared_distances

_WEIGHT_TYPES = {"EXPLICIT", "EUC_2D", "ATT", "GEO"}
_WEIGHT_FORMATS = {"FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW"}
_HEADER_KEYS = {
    "NAME",
    "TYPE",
    "COMMENT",
    "DIMENSION",
    "EDGE_WEIGHT_TYPE",
    "EDGE_WEIGHT_FORMAT",
    "DISPLAY_DATA_TYPE",
    "NODE_COORD_TYPE",
}
_SECTIONS = {"NODE_COORD_SECTION", "EDGE_WEIGHT_SECTION", "DISPLAY_DATA_SECTION"}


@dataclass
class TsplibProblem:
    name: str
    dimension: int
    edge_weight_type: str
    matrix: np.ndarray
    coords: np.ndarray | None = None


def _euc_2d(coords: np.ndarray) -> np.ndarray:
    return np.floor(np.sqrt(squared_distances(coords)) + 0.5)


def _att(coords: np.ndarray) -> np.ndarray:
    r = np.sqrt(squared_distances(coords) / 10.0)
    t = np.floor(r + 0.5)
    return t + (t < r)


def _geo(coords: np.ndarray) -> np.ndarray:
    deg = np.trunc(coords)
    lat, lon = (3.141592 * (deg + 5.0 * (coords - deg) / 3.0) / 180.0).T
    n = len(coords)
    D = np.zeros((n, n))
    # the pairs i < j of a block of rows; each holds at most eight 8-byte
    # temporaries at once, so a block holds at most _BLOCK_ENTRIES of them
    step = max(1, _BLOCK_ENTRIES // (8 * n))
    for start in range(0, n - 1, step):
        r, c = np.triu_indices(min(step, n - 1 - start), 0, n - 1 - start)
        i, j = r + start, c + (start + 1)
        del r, c
        q1 = np.cos(lon[i] - lon[j])
        q2 = np.cos(lat[i] - lat[j])
        q3 = np.cos(lat[i] + lat[j])
        D[i, j] = D[j, i] = np.trunc(6378.388 * np.arccos(0.5 * ((1.0 + q1) * q2 - (1.0 - q1) * q3)) + 1.0)
        del i, j, q1, q2, q3  # else the next block is allocated while this one is held
    return D


_COORD_DISTANCE = {"EUC_2D": _euc_2d, "ATT": _att, "GEO": _geo}


def _explicit_count(fmt: str, n: int) -> int:
    """Number of entries an EDGE_WEIGHT_SECTION holds in the given format."""
    if fmt == "FULL_MATRIX":
        return n * n
    if fmt in ("UPPER_ROW", "LOWER_ROW"):
        return n * (n - 1) // 2
    return n * (n + 1) // 2  # UPPER_DIAG_ROW, LOWER_DIAG_ROW


def _explicit_matrix(fmt: str, n: int, weights: np.ndarray) -> np.ndarray:
    """The n x n matrix of an EDGE_WEIGHT_SECTION.  A triangle, mirrored, lists its entries
    row by row, the order of np.triu_indices and np.tril_indices."""
    if fmt == "FULL_MATRIX":
        return weights.reshape(n, n)
    off = 0 if fmt.endswith("DIAG_ROW") else 1
    r, c = np.triu_indices(n, off) if fmt.startswith("UPPER") else np.tril_indices(n, -off)
    D = np.zeros((n, n))
    D[r, c] = D[c, r] = weights
    return D


def parse_tsplib(text: str, source: str = "<string>") -> TsplibProblem:
    """Parse TSPLIB problem text into a realized distance matrix."""
    lines = text.splitlines()
    header: dict[str, str] = {}
    n: int | None = None
    coords: np.ndarray | None = None
    explicit: tuple[str, int, np.ndarray] | None = None  # format, DIMENSION, weights

    def fail(exc, lineno, msg):
        raise exc(f"{source}, line {lineno + 1}: {msg}")

    i = 0
    while i < len(lines):
        line = lines[i].strip()
        if not line:
            i += 1
            continue
        key = line.split(":", 1)[0].strip().upper()

        if key == "EOF":
            break

        if key in _HEADER_KEYS:
            if ":" not in line:
                fail(InputFormatError, i, f"expected '{key}: value'")
            value = line.split(":", 1)[1].strip()
            # reject unsupported kinds at the offending line, before any
            # section is parsed under a wrong assumption
            if key == "EDGE_WEIGHT_TYPE" and value not in _WEIGHT_TYPES:
                fail(UnsupportedKeyword, i, f"EDGE_WEIGHT_TYPE {value!r} is not supported")
            if key == "TYPE" and value.split()[:1] != ["TSP"]:
                fail(UnsupportedKeyword, i, f"only TYPE TSP is supported, got {value!r}")
            if key == "DIMENSION":
                try:
                    n = int(value)
                except ValueError:
                    fail(InputFormatError, i, f"DIMENSION {value!r} is not an integer")
                if n < 3:
                    fail(DimensionMismatch, i, f"DIMENSION must be at least 3, got {n}")
            header[key] = value
            i += 1
            continue

        if key in _SECTIONS:
            if n is None:
                fail(InputFormatError, i, f"{key} before DIMENSION")

            if key == "NODE_COORD_SECTION":
                rows = []  # grows with the data, not with the declared DIMENSION
                for k in range(n):
                    i += 1
                    if i >= len(lines):
                        fail(TruncatedSection, i - 1, f"coordinates end after {k} of {n} points")
                    parts = lines[i].split()
                    if len(parts) != 3:
                        fail(TruncatedSection, i, f"expected 'index x y', got {lines[i].strip()!r}")
                    try:
                        idx, x, y = int(parts[0]), float(parts[1]), float(parts[2])
                    except ValueError:
                        fail(TruncatedSection, i, f"malformed coordinate line {lines[i].strip()!r}")
                    if idx != k + 1:
                        fail(DimensionMismatch, i, f"coordinate index {idx}, expected {k + 1}")
                    if not (math.isfinite(x) and math.isfinite(y)):
                        fail(NonFiniteValue, i, f"coordinate is not a finite number: {lines[i].strip()!r}")
                    rows.append((x, y))
                coords = np.array(rows)
                i += 1
                continue

            if key == "DISPLAY_DATA_SECTION":
                # cosmetic plotting coordinates, not used: skip its 'index x y' lines
                i += 1
                while i < len(lines) and all(tok.isdigit() for tok in lines[i].split()[:1]):
                    i += 1
                continue

            # EDGE_WEIGHT_SECTION
            fmt = header.get("EDGE_WEIGHT_FORMAT")
            if fmt not in _WEIGHT_FORMATS:
                fail(UnsupportedKeyword, i, f"EDGE_WEIGHT_FORMAT {fmt!r} is not supported")
            need = _explicit_count(fmt, n)
            chunks = []  # one float64 array per line: in a list, a Python float takes 32 bytes, not 8
            count = 0
            start = i
            while count < need:
                i += 1
                if i >= len(lines):
                    fail(TruncatedSection, start, f"section has {count} of {need} entries")
                try:
                    vals = np.array([float(tok) for tok in lines[i].split()], dtype=float)
                except ValueError:
                    fail(TruncatedSection, i, f"section has {count} of {need} entries")
                if not np.isfinite(vals).all():
                    fail(NonFiniteValue, i, f"weight is not a finite number: {lines[i].strip()!r}")
                chunks.append(vals)
                count += vals.size
            if count > need:
                fail(DimensionMismatch, i, f"section has more than the {need} entries implied by DIMENSION")
            explicit = (fmt, n, np.concatenate(chunks))
            del chunks  # else every line is held while the matrix is built
            i += 1
            continue

        fail(UnsupportedKeyword, i, f"unsupported keyword {key!r}")

    if n is None:
        raise InputFormatError(f"{source}: missing DIMENSION")
    wtype = header.get("EDGE_WEIGHT_TYPE")
    if wtype not in _WEIGHT_TYPES:
        raise UnsupportedKeyword(f"{source}: EDGE_WEIGHT_TYPE {wtype!r} is not supported")

    if wtype == "EXPLICIT":
        if explicit is None:
            raise InputFormatError(f"{source}: EXPLICIT problem has no EDGE_WEIGHT_SECTION")
        if explicit[1] != n:
            raise DimensionMismatch(f"{source}: DIMENSION changed after the EDGE_WEIGHT_SECTION")
    elif coords is None:
        raise InputFormatError(f"{source}: {wtype} problem has no NODE_COORD_SECTION")
    elif len(coords) != n:
        raise DimensionMismatch(f"{source}: DIMENSION changed after the NODE_COORD_SECTION")
    # the largest order the command line's size flags reach
    if n > 2 * SIZE_CAP:
        raise TooLarge(f"{source}: problems are capped at {2 * SIZE_CAP} cities, got DIMENSION {n}")
    if wtype == "EXPLICIT":
        D = _explicit_matrix(*explicit)
        if not np.array_equal(D, D.T):
            raise InputFormatError(f"{source}: FULL_MATRIX weights are not symmetric")
        if np.any(np.diagonal(D) != 0):
            raise InputFormatError(f"{source}: nonzero diagonal in EDGE_WEIGHT_SECTION")
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            D = _COORD_DISTANCE[wtype](coords)
        if not np.isfinite(D).all():
            raise NonFiniteValue(f"{source}: {wtype} distances overflow; the coordinates are too large")

    return TsplibProblem(
        name=header.get("NAME", Path(source).stem),
        dimension=n,
        edge_weight_type=wtype,
        matrix=D,
        coords=coords,
    )


def load_tsplib(path) -> TsplibProblem:
    p = Path(path)
    return parse_tsplib(p.read_text(), source=str(p))


def read_optimum(path) -> float:
    """The known optimal tour length in a "sidecar" file: its one `optimum: <value>` line."""
    p = Path(path)
    for lineno, raw in enumerate(p.read_text().splitlines()):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, value = line.partition(":")
        if key.strip().lower() != "optimum" or not value.strip():
            raise InputFormatError(f"{p}, line {lineno + 1}: expected 'optimum: <value>'")
        try:
            optimum = float(value.strip())
        except ValueError:
            raise InputFormatError(f"{p}, line {lineno + 1}: optimum is not a number") from None
        if not math.isfinite(optimum):
            raise NonFiniteValue(f"{p}, line {lineno + 1}: optimum is not a finite number")
        return optimum
    raise InputFormatError(f"{p}: no optimum line found")


def load_with_optimum(problem_path, sidecar_path=None) -> tuple[TsplibProblem, float | None]:
    """A problem and its optimum from sidecar_path; without one, from the problem's path with
    suffix .opt, and None if that file does not exist."""
    problem = load_tsplib(problem_path)
    if sidecar_path is None:
        candidate = Path(problem_path).with_suffix(".opt")
        if not candidate.exists():
            return problem, None
        sidecar_path = candidate
    return problem, read_optimum(sidecar_path)
