import math
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as stn

import oracles
from spectral_tsp import cli, solvers, tsplib
from spectral_tsp.errors import (
    DimensionMismatch,
    InputFormatError,
    NonFiniteValue,
    TooLarge,
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


def _explicit_rows(M: np.ndarray, fmt: str) -> list[np.ndarray]:
    """The rows of M as an EDGE_WEIGHT_SECTION in the given format lists them."""
    n = len(M)
    off = 0 if fmt.endswith("DIAG_ROW") else 1
    if fmt == "FULL_MATRIX":
        return list(M)
    if fmt.startswith("UPPER"):
        return [M[i, i + off :] for i in range(n - off)]
    return [M[i, : i + 1 - off] for i in range(off, n)]


@pytest.mark.parametrize("fmt", ["FULL_MATRIX", "UPPER_ROW", "LOWER_ROW", "UPPER_DIAG_ROW", "LOWER_DIAG_ROW"])
def test_explicit_weights_peak_within_three_and_a_half_matrices(fmt):
    # read as Python floats, the weights alone took four matrices' worth
    n = 150
    M = np.triu(np.arange(n * n).reshape(n, n) % 997 + 1, 1)
    M = M + M.T
    body = "\n".join(" ".join(map(str, row.tolist())) for row in _explicit_rows(M, fmt))
    text = make("EXPLICIT", body, n=n, fmt=fmt)
    tracemalloc.start()
    try:
        p = tsplib.parse_tsplib(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(p.matrix, M)
    assert peak <= 3.5 * 8 * n * n


def test_huge_declared_dimension_with_coordinates_is_truncated():
    text = make("EUC_2D", "1 0 0\n2 3 4", n=10**15)
    with pytest.raises(TruncatedSection):
        tsplib.parse_tsplib(text)


def _cities(n: int, kind: str = "EUC_2D") -> str:
    if kind == "EXPLICIT":
        return make(kind, " ".join("1" for _ in range(n * (n - 1) // 2)), n=n, fmt="UPPER_ROW")
    return make(kind, "\n".join(f"{k + 1} {k} {k * k % 7}" for k in range(n)), n=n)


@pytest.mark.parametrize("kind", ["EUC_2D", "GEO", "EXPLICIT"])
def test_order_is_capped_at_twice_the_size_cap(monkeypatch, kind):
    monkeypatch.setattr(tsplib, "SIZE_CAP", 3)
    assert tsplib.parse_tsplib(_cities(6, kind)).matrix.shape == (6, 6)
    with pytest.raises(TooLarge, match="capped at 6 cities"):
        tsplib.parse_tsplib(_cities(7, kind))


def test_a_full_file_over_the_cap_fails_before_its_matrix():
    n = 2 * tsplib.SIZE_CAP + 1  # its matrix would take 134 MB
    text = _cities(n)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge):
            tsplib.parse_tsplib(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * n * n / 10


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


def _geo_km(a, b) -> int:
    """A second route to a GEO distance: DDD.MM to decimal degrees as
    degrees + minutes / 60, then a haversine arc on the TSPLIB sphere."""

    def radians(v: float) -> float:
        whole = math.trunc(v)
        return math.radians(whole + (v - whole) * 100.0 / 60.0)

    (la1, lo1), (la2, lo2) = [(radians(x), radians(y)) for x, y in (a, b)]
    h = math.sin((la2 - la1) / 2) ** 2 + math.cos(la1) * math.cos(la2) * math.sin((lo2 - lo1) / 2) ** 2
    return int(6378.388 * 2.0 * math.asin(math.sqrt(h)) + 1.0)


def test_geo_known_distances():
    p = tsplib.parse_tsplib(
        make("GEO", "1 46.00 11.00\n2 48.30 16.20\n3 14.55 -23.31")
    )
    assert p.matrix[0, 1] == _geo_km((46.00, 11.00), (48.30, 16.20)) == 490.0
    # 14.55 is 14 degrees 55 minutes; rounding the degrees to the nearest
    # integer, as the TSPLIB95 format document writes it, would read 14.25
    # degrees and give 1756
    q = tsplib.parse_tsplib(
        make("GEO", "1 14.55 -23.31\n2 28.06 -15.24\n3 46.00 11.00")
    )
    assert q.matrix[0, 1] == _geo_km((14.55, -23.31), (28.06, -15.24)) == 1690.0


def test_geo_coordinates_are_degrees_and_minutes():
    # x.30 means 30 minutes, i.e. half a degree, not 0.30 degrees
    body = "1 0.00 0.00\n2 0.30 0.00\n3 10.00 10.00"
    p = tsplib.parse_tsplib(make("GEO", body))
    half_degree_km = math.pi * 6378.388 / 360.0
    assert abs(p.matrix[0, 1] - int(half_degree_km + 1)) <= 1.0


# ------------------------------------------------- the array rules against the loops

_ORACLE = {"EUC_2D": oracles.tsplib_euc_2d, "ATT": oracles.tsplib_att, "GEO": oracles.tsplib_geo}


def coord_text(kind: str, coords) -> str:
    """A problem file whose coordinates parse back to exactly `coords`."""
    body = "\n".join(f"{k + 1} {float(x)!r} {float(y)!r}" for k, (x, y) in enumerate(coords))
    return make(kind, body, n=len(coords))


def assert_matches_oracle(kind: str, coords):
    p = tsplib.parse_tsplib(coord_text(kind, coords))
    assert np.array_equal(p.coords, coords)
    assert p.matrix.tobytes() == _ORACLE[kind](p.coords).tobytes(), kind


@pytest.mark.parametrize("kind", ["EUC_2D", "ATT"])
@pytest.mark.parametrize("seed", range(6))
def test_planar_rules_are_the_loops(kind, seed):
    rng = np.random.default_rng(seed)
    n = 40
    for coords in (
        rng.integers(-5000, 5000, size=(n, 2)).astype(float),
        np.round(rng.uniform(-1000, 1000, size=(n, 2)), 2),
        rng.uniform(0, 1e6, size=(n, 2)),
        rng.integers(0, 8, size=(n, 2)) * 0.5,  # many exact .5 ties and duplicates
    ):
        assert_matches_oracle(kind, coords)


def test_planar_rounding_ties_and_att_bump():
    # EUC_2D: 0.5, 1.5 and 2.5 are exact ties and round up
    coords = np.array([[0.0, 0.0], [0.5, 0.0], [1.5, 0.0], [0.0, 2.5], [3.0, 4.0]])
    p = tsplib.parse_tsplib(coord_text("EUC_2D", coords))
    assert p.matrix[0, 1:].tolist() == [1.0, 2.0, 3.0, 5.0]
    assert_matches_oracle("EUC_2D", coords)
    # ATT: r = 1.5 exactly rounds to 2 with no bump; sqrt(10) and sqrt(5) bump
    coords = np.array([[0.0, 0.0], [4.5, 1.5], [10.0, 0.0], [7.0, 1.0]])
    p = tsplib.parse_tsplib(coord_text("ATT", coords))
    assert p.matrix[0, 1:].tolist() == [2.0, 4.0, 3.0]
    assert_matches_oracle("ATT", coords)


_DDD_MM = stn.tuples(stn.integers(-90, 90), stn.integers(0, 59), stn.integers(-180, 180), stn.integers(0, 59))


def _ddd_mm(deg: int, minutes: int) -> float:
    """The DDD.MM number with the sign of the whole angle on both parts."""
    sign = -1.0 if deg < 0 else 1.0
    return float(f"{sign * (abs(deg) + minutes / 100.0):.2f}")


@settings(max_examples=60, deadline=None)
@given(stn.lists(_DDD_MM, min_size=3, max_size=25), stn.data())
def test_geo_rule_is_the_faq_code(points, data):
    coords = np.array([(_ddd_mm(a, b), _ddd_mm(c, d)) for a, b, c, d in points])
    k = data.draw(stn.integers(0, len(coords) - 1))
    coords = np.vstack([coords, coords[k:k + 1], [[90.0, 0.0], [-90.0, 180.0]]])
    assert_matches_oracle("GEO", coords)


def test_geo_duplicates_are_one_apart():
    coords = np.array([[14.55, -23.31], [14.55, -23.31], [-90.0, 0.0], [-90.0, 0.0], [90.0, 179.59]])
    p = tsplib.parse_tsplib(coord_text("GEO", coords))
    assert not np.diagonal(p.matrix).any()
    assert p.matrix[0, 1] == p.matrix[2, 3] == 1.0
    assert_matches_oracle("GEO", coords)


def _geo_coords(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return np.round(np.column_stack([rng.uniform(-89, 89, n), rng.uniform(-179, 179, n)]), 2)


@pytest.mark.parametrize("n", [3, 17, 400, 2000])
def test_geo_row_blocks_are_the_one_step_route(n):
    # n = 400 is one block; 2000 takes sixteen
    p = tsplib.parse_tsplib(coord_text("GEO", _geo_coords(n, seed=n)))
    assert p.matrix.tobytes() == oracles.tsplib_geo_pairs(p.coords).tobytes()


def test_geo_in_blocks_of_a_few_rows(monkeypatch):
    monkeypatch.setattr(tsplib, "_BLOCK_ENTRIES", 1000)  # one row a block at n = 200, seven at n = 17
    for n in (3, 17, 200):
        coords = _geo_coords(n, seed=n)
        assert tsplib._geo(coords).tobytes() == oracles.tsplib_geo_pairs(coords).tobytes()


def test_geo_peak_is_within_twice_its_matrix():
    n = 2000  # the matrix is 32 MB; every pair at once (oracles.tsplib_geo_pairs) peaks at 144 MB
    text = coord_text("GEO", _geo_coords(n, seed=1))
    tracemalloc.start()
    try:
        tsplib.parse_tsplib(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 8 * n * n


# ---------------------------------------------------------------- numbers that are not finite


@pytest.mark.parametrize("token", ["nan", "inf", "-inf", "NaN", "1e999", "-Infinity"])
def test_non_finite_coordinate_is_rejected_at_its_line(token):
    for kind in ("EUC_2D", "ATT", "GEO"):
        with pytest.raises(NonFiniteValue, match="line 7"):
            tsplib.parse_tsplib(make(kind, f"1 0 0\n2 {token} 1\n3 1 1"))


@pytest.mark.parametrize("token", ["nan", "inf", "-1e999"])
def test_non_finite_weight_is_rejected_at_its_line(token):
    text = make("EXPLICIT", f"0 1 2\n1 0 {token}\n2 3 0", fmt="FULL_MATRIX")
    with pytest.raises(NonFiniteValue, match="line 8"):
        tsplib.parse_tsplib(text)


@pytest.mark.parametrize("kind", ["EUC_2D", "ATT", "GEO"])
def test_overflowing_distances_are_rejected(kind):
    with pytest.raises(NonFiniteValue, match="overflow"):
        tsplib.parse_tsplib(make(kind, "1 -1e308 0\n2 1e308 0\n3 0 0"))


def test_largest_finite_weights_are_kept():
    p = tsplib.parse_tsplib(make("EXPLICIT", "1e308 -0 1e308", fmt="UPPER_ROW"))
    assert p.matrix[0, 1] == 1e308 and np.isfinite(p.matrix).all()


def test_dimension_redeclared_after_coordinates_is_rejected():
    text = make("EUC_2D", "1 0 0\n2 3 4\n3 1 1").replace("EOF", "DIMENSION: 4\nEOF")
    with pytest.raises(DimensionMismatch):
        tsplib.parse_tsplib(text)


@pytest.mark.parametrize("value", ["", "  "])
def test_empty_type_is_rejected_at_its_line(value):
    with pytest.raises(UnsupportedKeyword, match="line 1"):
        tsplib.parse_tsplib(f"TYPE:{value}\nDIMENSION: 3\n")


# ---------------------------------------------------------------- fuzzing the parser

_WEIRD = ["nan", "inf", "-inf", "1e308", "-1e308", "1e999", "-0", "0", "1", "2.5", "-3", "x", "1e-320", "90.00"]
_TOKEN = stn.one_of(
    stn.sampled_from(_WEIRD),
    stn.integers(-10**4, 10**4).map(str),
    stn.floats(allow_nan=True, allow_infinity=True).map(repr),
)
_DIMENSION = stn.one_of(
    stn.integers(3, 6).map(str), stn.sampled_from(["0", "2", "-4", "abc", "4.0", "1e3", "", str(10**15), str(2**63)])
)


@stn.composite
def tsplib_texts(draw):
    """Problem text assembled from headers and sections, then damaged: odd
    header values, numbers swapped for odd tokens, blocks out of order,
    lines cut short.  Half the draws keep the headers and their order sound."""
    sound = draw(stn.booleans())

    def choose(good, *bad):
        return good if sound else draw(stn.sampled_from([good, *bad]))

    n = draw(stn.integers(3, 6))
    kind = choose(draw(stn.sampled_from(["EXPLICIT", "EUC_2D", "ATT", "GEO"])), "EUC_3D")
    fmt = choose(draw(stn.sampled_from(sorted(tsplib._WEIGHT_FORMATS))), "FUNCTION")
    number = stn.one_of(stn.integers(0, 999).map(str), _TOKEN) if draw(stn.booleans()) else stn.integers(0, 99).map(str)
    coords = ["NODE_COORD_SECTION"] + [f"{k + 1} {draw(number)} {draw(number)}" for k in range(n)]
    count = tsplib._explicit_count(fmt, n) if fmt != "FUNCTION" else n * n
    weights = ["EDGE_WEIGHT_SECTION", " ".join(draw(number) for _ in range(count))]
    headers = [
        ["NAME: fuzz"],
        [f"TYPE: {choose('TSP', 'TSP x', 'ATSP', '')}"],
        [f"DIMENSION: {choose(str(n), draw(_DIMENSION))}"],
        [f"EDGE_WEIGHT_TYPE: {kind}"],
        [f"EDGE_WEIGHT_FORMAT: {fmt}"],
    ]
    extra = choose([], ["DISPLAY_DATA_SECTION", "1 0 0"], ["COMMENT: c"], ["FROBNICATE: 1"], weights, coords)
    blocks = draw(stn.permutations(headers)) + [coords if kind != "EXPLICIT" else weights, extra]
    if not sound and draw(stn.booleans()):
        blocks = draw(stn.permutations(blocks))
    lines = [line for block in blocks for line in block]
    if draw(stn.booleans()):
        cut = draw(stn.integers(0, len(lines) - 1))
        lines = lines[:cut] + [lines[cut][: draw(stn.integers(0, len(lines[cut])))]] + lines[cut + 1:]
    if draw(stn.booleans()):
        lines.append("EOF")
    return "\n".join(lines)


@settings(max_examples=400, deadline=None)
@given(tsplib_texts())
def test_parser_fails_only_with_input_errors_and_returns_clean_matrices(text):
    try:
        p = tsplib.parse_tsplib(text)
    except InputFormatError:
        return
    D = p.matrix
    assert D.shape == (p.dimension, p.dimension)
    assert np.isfinite(D).all()
    assert np.array_equal(D, D.T)
    assert not np.diagonal(D).any()


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


def test_display_data_section_ends_at_the_next_keyword():
    # a display section shorter than DIMENSION must not swallow the next section header
    text = (
        "TYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "DISPLAY_DATA_SECTION\n1 0 0\n"
        "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\nEOF\n"
    )
    p = tsplib.parse_tsplib(text)
    assert p.matrix[0, 1] == 5.0 and p.matrix[0, 2] == 10.0
    trailing = text.replace("EOF\n", "DISPLAY_DATA_SECTION\n1 0 0\n2 1 1\n")
    assert np.array_equal(tsplib.parse_tsplib(trailing).matrix, p.matrix)


@pytest.mark.parametrize("section", ["FIXED_EDGES_SECTION", "TOUR_SECTION", "NODE_COORD_SECTON"])
def test_display_data_section_does_not_hide_an_unsupported_section(section):
    # the skip ends at the first line that is not 'index x y' display data
    text = (
        "TYPE: TSP\nDIMENSION: 3\nEDGE_WEIGHT_TYPE: EUC_2D\n"
        "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\n"
        f"DISPLAY_DATA_SECTION\n1 0 0\n2 3 4\n3 6 8\n{section}\n1 2\n-1\nEOF\n"
    )
    with pytest.raises(UnsupportedKeyword, match=section):
        tsplib.parse_tsplib(text)


HEAD3 = "NAME: t3\nTYPE: TSP\nDIMENSION: 3\n"


@pytest.mark.parametrize(
    "text, error, message",
    [
        # the file ends inside the coordinate section
        (HEAD3 + "EDGE_WEIGHT_TYPE: EUC_2D\nNODE_COORD_SECTION\n1 0 0\n2 3 4\n", TruncatedSection,
         "line 7: coordinates end after 2 of 3 points"),
        # the file ends inside the weight section
        (HEAD3 + "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEDGE_WEIGHT_SECTION\n0 1 2\n1 0\n",
         TruncatedSection, "line 6: section has 5 of 9 entries"),
        (HEAD3 + "EDGE_WEIGHT_TYPE\n", InputFormatError, "line 4: expected 'EDGE_WEIGHT_TYPE: value'"),
        (make("EXPLICIT", "0 1 2\n1 0 3\n2 3 0 7", fmt="FULL_MATRIX"), DimensionMismatch,
         "line 9: section has more than the 9 entries implied by DIMENSION"),
        (HEAD3 + "NODE_COORD_SECTION\n1 0 0\n2 3 4\n3 6 8\nEOF\n", UnsupportedKeyword,
         ": EDGE_WEIGHT_TYPE None is not supported"),
        (HEAD3 + "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: FULL_MATRIX\nEOF\n", InputFormatError,
         ": EXPLICIT problem has no EDGE_WEIGHT_SECTION"),
        (HEAD3 + "EDGE_WEIGHT_TYPE: EUC_2D\nEOF\n", InputFormatError, ": EUC_2D problem has no NODE_COORD_SECTION"),
        (HEAD3 + "EDGE_WEIGHT_TYPE: EXPLICIT\nEDGE_WEIGHT_FORMAT: UPPER_COL\nEDGE_WEIGHT_SECTION\n1 2\n3\nEOF\n",
         UnsupportedKeyword, "line 6: EDGE_WEIGHT_FORMAT 'UPPER_COL' is not supported"),
        ("NAME: t3\nTYPE: TSP\nEDGE_WEIGHT_TYPE: EUC_2D\nEOF\n", InputFormatError, ": missing DIMENSION"),
    ],
)
def test_incomplete_or_overfull_files_are_typed_errors(tmp_path, capsys, text, error, message):
    tail = ("" if message.startswith(":") else ", ") + message
    with pytest.raises(error) as info:
        tsplib.parse_tsplib(text, "t3.tsp")
    assert str(info.value) == "t3.tsp" + tail
    # bound on the file exits 2 with the same message after its path
    path = tmp_path / "t3.tsp"
    path.write_text(text)
    assert cli.main(["bound", str(path)]) == 2
    assert capsys.readouterr() == ("", f"error: {path}{tail}\n")


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


@pytest.mark.parametrize(
    "text, message",
    [("optimum: twelve\n", "line 1: optimum is not a number"), ("# nothing here\n\n", ": no optimum line found")],
)
def test_read_optimum_names_what_is_missing(tmp_path, text, message):
    f = tmp_path / "x.opt"
    f.write_text(text)
    with pytest.raises(InputFormatError) as info:
        tsplib.read_optimum(f)
    assert str(info.value) == str(f) + ("" if message.startswith(":") else ", ") + message


@pytest.mark.parametrize("value", ["nan", "inf", "1e999"])
def test_read_optimum_rejects_non_finite_values(tmp_path, value):
    # a NaN optimum would reach the JSON output as a bare NaN, which is not JSON
    f = tmp_path / "x.opt"
    f.write_text(f"optimum: {value}\n")
    with pytest.raises(NonFiniteValue, match="line 1"):
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
