import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from spectral_tsp import solvers, tsplib
from spectral_tsp.errors import (
    DimensionMismatch,
    InputFormatError,
    TruncatedSection,
    UnsupportedKeyword,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "tsplib"


def _nint(x: float) -> int:
    return math.floor(x + 0.5) if x >= 0 else math.ceil(x - 0.5)


def make(kind: str, body: str, n: int = 3, fmt: str | None = None) -> str:
    head = [f"NAME: t{n}", "TYPE: TSP", f"DIMENSION: {n}", f"EDGE_WEIGHT_TYPE: {kind}"]
    if fmt:
        head.append(f"EDGE_WEIGHT_FORMAT: {fmt}")
    section = "EDGE_WEIGHT_SECTION" if kind == "EXPLICIT" else "NODE_COORD_SECTION"
    return "\n".join(head + [section, body, "EOF", ""])


# ---------------------------------------------------------------- explicit formats


def test_full_matrix_round_trip():
    p = tsplib.parse_tsplib(make("EXPLICIT", "0 1 2\n1 0 3\n2 3 0", fmt="FULL_MATRIX"))
    assert p.dimension == 3
    assert np.array_equal(p.matrix, np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]]))


def test_all_explicit_formats_agree():
    """The five storage layouts must realize the same matrix."""
    M = np.array([[0.0, 5, 7, 2], [5, 0, 1, 9], [7, 1, 0, 4], [2, 9, 4, 0]])
    bodies = {
        "FULL_MATRIX": "0 5 7 2\n5 0 1 9\n7 1 0 4\n2 9 4 0",
        "UPPER_ROW": "5 7 2\n1 9\n4",
        "LOWER_ROW": "5\n7 1\n2 9 4",
        "UPPER_DIAG_ROW": "0 5 7 2\n0 1 9\n0 4\n0",
        "LOWER_DIAG_ROW": "0\n5 0\n7 1 0\n2 9 4 0",
    }
    for fmt, body in bodies.items():
        p = tsplib.parse_tsplib(make("EXPLICIT", body, n=4, fmt=fmt), source=fmt)
        assert np.array_equal(p.matrix, M), fmt


@pytest.mark.parametrize("fmt", ["FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW"])
def test_huge_declared_dimension_is_truncated_without_allocating(fmt):
    # the entry count comes from a formula, so a tiny file that declares
    # 200000 cities fails at its end instead of listing 4e10 positions
    text = make("EXPLICIT", "0 1 2", n=200_000, fmt=fmt)
    tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with pytest.raises(TruncatedSection):
            tsplib.parse_tsplib(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - t0 < 1.0
    assert peak < 2_000_000


def test_huge_declared_dimension_with_coordinates_is_truncated():
    text = make("EUC_2D", "1 0 0\n2 3 4", n=10**15)
    with pytest.raises(TruncatedSection):
        tsplib.parse_tsplib(text)


def test_dimension_redeclared_after_weights_is_rejected():
    text = make("EXPLICIT", "0 1 2\n1 0 3\n2 3 0", fmt="FULL_MATRIX").replace("EOF", "DIMENSION: 4\nEOF")
    with pytest.raises(DimensionMismatch):
        tsplib.parse_tsplib(text)


def test_weights_may_wrap_lines_arbitrarily():
    p = tsplib.parse_tsplib(
        make("EXPLICIT", "0 1\n2 1 0\n3 2 3\n0", n=3, fmt="FULL_MATRIX")
    )
    assert np.array_equal(p.matrix, np.array([[0.0, 1, 2], [1, 0, 3], [2, 3, 0]]))


# ---------------------------------------------------------------- coordinate kinds


def test_euc_2d_rounding():
    p = tsplib.parse_tsplib(
        make("EUC_2D", "1 0 0\n2 3 4\n3 1.5 0")
    )
    assert p.matrix[0, 1] == 5.0
    assert p.matrix[0, 2] == 2.0  # 1.5 rounds half away from zero
    i, j = 1, 2
    d = math.hypot(3 - 1.5, 4 - 0)
    assert p.matrix[i, j] == float(_nint(d))


def test_att_rounding_including_bump():
    p = tsplib.parse_tsplib(make("ATT", "1 0 0\n2 10 0\n3 30 40"))
    # sqrt(100/10) = 3.162...; nearest integer 3 falls short, so 4
    assert p.matrix[0, 1] == 4.0
    # sqrt(2500/10) = 15.81...; rounds up to 16 which covers it
    assert p.matrix[0, 2] == 16.0


def test_att_small_case():
    p = tsplib.parse_tsplib(make("ATT", "1 0 0\n2 7 1\n3 100 100"))
    assert p.matrix[0, 1] == 3.0  # r = sqrt(5), t = 2 < r, so 3


def test_geo_known_distances():
    p = tsplib.parse_tsplib(
        make("GEO", "1 46.00 11.00\n2 48.30 16.20\n3 14.55 -23.31")
    )
    assert p.matrix[0, 1] == 490.0
    q = tsplib.parse_tsplib(
        make("GEO", "1 14.55 -23.31\n2 28.06 -15.24\n3 46.00 11.00")
    )
    assert q.matrix[0, 1] == 1756.0


def test_geo_coordinates_are_degrees_and_minutes():
    # x.30 means 30 minutes, i.e. half a degree, not 0.30 degrees
    body = "1 0.00 0.00\n2 0.30 0.00\n3 10.00 10.00"
    p = tsplib.parse_tsplib(make("GEO", body))
    half_degree_km = math.pi * 6378.388 / 360.0
    assert abs(p.matrix[0, 1] - int(half_degree_km + 1)) <= 1.0


# ---------------------------------------------------------------- headers, errors


def test_unsupported_weight_type_is_rejected_at_its_line():
    bad = "TYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_3D\n"
    with pytest.raises(UnsupportedKeyword, match="line 3"):
        tsplib.parse_tsplib(bad)


def test_non_tsp_type_rejected():
    with pytest.raises(UnsupportedKeyword, match="ATSP"):
        tsplib.parse_tsplib("TYPE: ATSP\nDIMENSION: 3\n")


def test_unknown_keyword_rejected():
    with pytest.raises(UnsupportedKeyword):
        tsplib.parse_tsplib("TYPE: TSP\nDIMENSION: 3\nFROBNICATE: yes\n")


def test_truncated_weight_section():
    bad = make("EXPLICIT", "0 1 1\n1 0 1", fmt="FULL_MATRIX")
    with pytest.raises(TruncatedSection, match="6 of 9"):
        tsplib.parse_tsplib(bad)


def test_dimension_too_small():
    bad = "TYPE: TSP\nDIMENSION: 2\nEDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1\n1 0\nEOF\n"
    with pytest.raises(DimensionMismatch):
        tsplib.parse_tsplib(bad)


@pytest.mark.parametrize(
    "value, error, message",
    [("abc", InputFormatError, "not an integer"), ("4.0", InputFormatError, "not an integer"),
     ("-4", DimensionMismatch, "at least 3")],
)
def test_bad_dimension_is_a_typed_error_at_its_line(value, error, message):
    bad = f"TYPE: TSP\nDIMENSION: {value}\nEDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\nEOF\n"
    with pytest.raises(error, match=f"line 2: .*{message}"):
        tsplib.parse_tsplib(bad)


def test_asymmetric_full_matrix_rejected():
    bad = make("EXPLICIT", "0 1 2\n3 0 1\n1 1 0", fmt="FULL_MATRIX")
    with pytest.raises(InputFormatError, match="not symmetric"):
        tsplib.parse_tsplib(bad)


def test_nonzero_diagonal_rejected():
    bad = make("EXPLICIT", "1 1 2\n1 0 3\n2 3 0", fmt="FULL_MATRIX")
    with pytest.raises(InputFormatError, match="diagonal"):
        tsplib.parse_tsplib(bad)


def test_coordinate_index_must_count_from_one():
    bad = make("EUC_2D", "1 0 0\n3 1 1\n2 2 2")
    with pytest.raises(DimensionMismatch, match="index 3"):
        tsplib.parse_tsplib(bad)


def test_display_data_section_is_skipped():
    text = (
        "TYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EXPLICIT\n"
        "EDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n"
        "0 1 2\n1 0 3\n2 3 0\n"
        "DISPLAY_DATA_SECTION\n1 0 0\n2 1 0\n3 0 1\nEOF\n"
    )
    p = tsplib.parse_tsplib(text)
    assert p.matrix[1, 2] == 3.0


# ---------------------------------------------------------------- sidecars


def test_read_optimum(tmp_path):
    f = tmp_path / "x.opt"
    f.write_text("# reference value\noptimum: 2085\n")
    assert tsplib.read_optimum(f) == 2085.0


def test_read_optimum_malformed(tmp_path):
    f = tmp_path / "x.opt"
    f.write_text("best = 12\n")
    with pytest.raises(InputFormatError):
        tsplib.read_optimum(f)


def test_load_with_optimum_uses_default_sidecar(tmp_path):
    prob = tmp_path / "tiny.tsp"
    prob.write_text(make("EXPLICIT", "0 1 2\n1 0 3\n2 3 0", fmt="FULL_MATRIX"))
    (tmp_path / "tiny.opt").write_text("optimum: 6\n")
    p, opt = tsplib.load_with_optimum(prob)
    assert opt == 6.0
    p2, opt2 = tsplib.load_with_optimum(prob, None)
    assert opt2 == 6.0


def test_load_with_optimum_missing_sidecar_is_none(tmp_path):
    prob = tmp_path / "tiny.tsp"
    prob.write_text(make("EXPLICIT", "0 1 2\n1 0 3\n2 3 0", fmt="FULL_MATRIX"))
    p, opt = tsplib.load_with_optimum(prob)
    assert opt is None


def test_sidecar_for_synthetic_instance_matches_brute_force(tmp_path):
    rng_rows = "0 4 1 9 2\n4 0 7 3 8\n1 7 0 5 6\n9 3 5 0 1\n2 8 6 1 0"
    prob = tmp_path / "five.tsp"
    prob.write_text(make("EXPLICIT", rng_rows, n=5, fmt="FULL_MATRIX"))
    p, _ = tsplib.load_with_optimum(prob)
    best = solvers.brute_force(p.matrix)
    (tmp_path / "five.opt").write_text(f"optimum: {best.length:.0f}\n")
    p2, opt = tsplib.load_with_optimum(prob)
    assert opt == best.length


# ---------------------------------------------------------------- shipped fixtures


def test_gr17_fixture_parses_and_held_karp_reproduces_sidecar():
    p, opt = tsplib.load_with_optimum(FIXTURES / "gr17.tsp")
    assert p.dimension == 17
    assert np.array_equal(p.matrix, p.matrix.T)
    assert solvers.held_karp(p.matrix).length == opt == 2085.0


def test_att48_fixture_realizes_from_coordinates():
    p, opt = tsplib.load_with_optimum(FIXTURES / "att48.tsp")
    assert p.dimension == 48
    assert opt == 10628.0
    assert p.coords is not None
    # re-derive one entry with an independent transcription of the rule
    dx = p.coords[0] - p.coords[1]
    r = math.sqrt((dx @ dx) / 10.0)
    t = _nint(r)
    expect = t + 1 if t < r else t
    assert p.matrix[0, 1] == float(expect)


def test_dantzig42_fixture_parses():
    p, opt = tsplib.load_with_optimum(FIXTURES / "dantzig42.tsp")
    assert p.dimension == 42
    assert opt == 699.0
    # the cities are numbered along an optimal roundtrip
    assert solvers.tour_length(p.matrix, list(range(42))) == 699.0
