import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lcpbounds import matrixio
from lcpbounds.errors import EmptyFile, LcpBoundsError, NonSquare, ParseError
from lcpbounds.matrixio import format_matrix, parse_matrix, parse_vector


def write(tmp_path, text, name="m.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestPlainFormat:
    def test_identity(self, tmp_path):
        m = parse_matrix(write(tmp_path, "2\n1 0\n0 1\n"))
        np.testing.assert_array_equal(m, np.eye(2))

    def test_fraction_token(self, tmp_path):
        m = parse_matrix(write(tmp_path, "2\n1 -2/5\n0 1\n"))
        assert m[0, 1] == -0.4

    def test_single_entry(self, tmp_path):
        m = parse_matrix(write(tmp_path, "1 2.5"))
        np.testing.assert_array_equal(m, [[2.5]])

    def test_free_form_whitespace(self, tmp_path):
        m = parse_matrix(write(tmp_path, "2 1 2\n3 4"))
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])

    def test_bad_dimension(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(write(tmp_path, "x\n1 2\n3 4\n"))

    def test_missing_entries(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(write(tmp_path, "2\n1 2 3\n"))

    def test_trailing_data(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_matrix(write(tmp_path, "2\n1 2\n3 4 5\n"))
        assert exc.value.line == 3
        assert exc.value.column == 5

    def test_bad_token_position(self, tmp_path):
        with pytest.raises(ParseError) as exc:
            parse_matrix(write(tmp_path, "2\n1 oops\n3 4\n"))
        assert (exc.value.line, exc.value.column) == (2, 3)

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(write(tmp_path, "2\n1 inf\n3 4\n"))


class TestCsvFormat:
    def test_identity(self, tmp_path):
        m = parse_matrix(write(tmp_path, "1,0\n0,1\n"))
        np.testing.assert_array_equal(m, np.eye(2))

    def test_fractions_in_cells(self, tmp_path):
        m = parse_matrix(write(tmp_path, "1,-1/3\n1/2,1\n"))
        assert m[0, 1] == -(1 / 3)
        assert m[1, 0] == 0.5

    def test_non_square(self, tmp_path):
        with pytest.raises(NonSquare):
            parse_matrix(write(tmp_path, "1,0\n"))

    def test_ragged(self, tmp_path):
        with pytest.raises(NonSquare):
            parse_matrix(write(tmp_path, "1,0\n0,1,2\n"))


class TestFractions:
    def test_zero_denominator(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(write(tmp_path, "1 3/0"))

    def test_non_integer_parts(self, tmp_path):
        with pytest.raises(ParseError):
            parse_matrix(write(tmp_path, "1 1.5/2"))

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**6))
    @settings(max_examples=200)
    def test_fraction_rounds_like_division(self, p, q):
        from lcpbounds.matrixio import _parse_number

        assert _parse_number(f"{p}/{q}", 1, 1) == p / q


class TestEmptyAndVectors:
    def test_empty_file(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_matrix(write(tmp_path, "  \n "))

    def test_vector_whitespace(self, tmp_path):
        np.testing.assert_array_equal(parse_vector(write(tmp_path, "-1 -1 2\n")), [-1.0, -1.0, 2.0])

    def test_vector_commas_and_fractions(self, tmp_path):
        np.testing.assert_array_equal(parse_vector(write(tmp_path, "1/2, -3, 4\n")), [0.5, -3.0, 4.0])

    def test_empty_vector(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_vector(write(tmp_path, ""))

    @pytest.mark.parametrize("text", [",,,", ", \n ,"])
    def test_separators_only_vector(self, tmp_path, text):
        path = write(tmp_path, text)
        for read in (parse_vector, matrixio._read):
            with pytest.raises(EmptyFile) as exc:
                read(path)
            assert str(exc.value) == f"{path} contains no data"

    @pytest.mark.parametrize("text", [",,,", ", ,\n,\n"])
    def test_separators_only_matrix(self, tmp_path, text):
        path = write(tmp_path, text)
        with pytest.raises(EmptyFile) as exc:
            parse_matrix(path)
        assert str(exc.value) == f"{path} contains no data"
        # Beside a number, a line of commas is still a CSV row of width 0.
        with pytest.raises(NonSquare, match=r"row lengths \[0, 1\]"):
            parse_matrix(write(tmp_path, "1\n" + text, name="n.txt"))


class TestRoundTrip:
    def test_bit_exact(self, tmp_path, ex1):
        rng = np.random.default_rng(73)
        matrices = [ex1, rng.standard_normal((5, 5)), np.eye(3) * 1e-17]
        for i, m in enumerate(matrices):
            path = write(tmp_path, format_matrix(m), name=f"rt{i}.txt")
            np.testing.assert_array_equal(parse_matrix(path), m)

    def test_fixture_files_match_fixtures(self, data_dir, ex1, ex2, ex3, ex4):
        for name, m in (("example1", ex1), ("example2", ex2),
                        ("example3", ex3), ("example4", ex4)):
            parsed = parse_matrix(str(data_dir / f"{name}.txt"))
            np.testing.assert_array_equal(parsed, m)


class TestByteOrderMarkAndCrlf:
    BOM = "\ufeff"

    def write_bytes(self, tmp_path, text, name):
        path = tmp_path / name
        path.write_bytes(text.encode("utf-8"))
        return str(path)

    def test_bom_csv(self, tmp_path):
        path = self.write_bytes(tmp_path, self.BOM + "1,-1/4\r\n0.5,2\r\n", "bom.csv")
        np.testing.assert_array_equal(parse_matrix(path), [[1.0, -0.25], [0.5, 2.0]])

    def test_bom_plain(self, tmp_path):
        path = self.write_bytes(tmp_path, self.BOM + "2\r\n1 -0.25\r\n0.5 2\r\n", "bom.txt")
        np.testing.assert_array_equal(parse_matrix(path), [[1.0, -0.25], [0.5, 2.0]])

    def test_bom_vector(self, tmp_path):
        path = self.write_bytes(tmp_path, self.BOM + "-1,\r\n-1/2\r\n3\r\n", "q.csv")
        np.testing.assert_array_equal(parse_vector(path), [-1.0, -0.5, 3.0])

    def test_crlf_error_position(self, tmp_path):
        path = self.write_bytes(tmp_path, self.BOM + "2\r\n1 2\r\n3 x\r\n", "bad.txt")
        with pytest.raises(ParseError) as exc:
            parse_matrix(path)
        assert (exc.value.line, exc.value.column) == (3, 3)

    def test_bom_only_is_empty(self, tmp_path):
        with pytest.raises(EmptyFile):
            parse_matrix(self.write_bytes(tmp_path, self.BOM + "\r\n", "empty.csv"))


class TestFaultsPythonRejects:
    """Bytes that are not UTF-8, integers over ``int``'s digit limit and
    fractions beyond the largest double raise ParseError at their position."""

    LONG = "1" + "0" * 4400  # more digits than int() converts by default
    HUGE = "1" + "0" * 400  # over 1.8e308, within int()'s limit

    def parse(self, tmp_path, data, name):
        path = tmp_path / name
        path.write_bytes(data if isinstance(data, bytes) else data.encode())
        with pytest.raises(ParseError) as exc:
            (parse_vector if name.startswith("q") else parse_matrix)(str(path))
        return exc.value

    @pytest.mark.parametrize("data, name, where", [
        (b"2\n1,0\n\xe9,1\n", "m.csv", (3, 1)),
        (b"2\n1 0\n0 \xe9\n", "m.txt", (3, 3)),
        (b"\xef\xbb\xbf2 1 \xff 3 4", "m.txt", (1, 5)),
        (b"1\r\n2 -3/\xe2\x82", "q.txt", (2, 6)),
    ], ids=["csv", "plain", "plain_after_bom", "vector_truncated_at_end"])
    def test_not_utf8(self, tmp_path, data, name, where):
        error = self.parse(tmp_path, data, name)
        assert (error.line, error.column) == where
        assert "not UTF-8" in str(error)

    @pytest.mark.parametrize("dimension", [LONG, "1" + "0" * 3000], ids=["over_int", "square_over_str"])
    def test_dimension_too_long(self, tmp_path, dimension):
        error = self.parse(tmp_path, f"{dimension}\n1 2\n", "m.txt")
        assert (error.line, error.column) == (1, 1)

    @pytest.mark.parametrize("text, name, where", [
        (f"2\n1 2\n3 {LONG}/7\n", "m.txt", (3, 3)),
        (f"2\n1 2\n3 7/{LONG}\n", "m.txt", (3, 3)),
        (f"1,2\n3,-1/{LONG}\n", "m.csv", (2, 3)),
        (f"1, 2, {LONG}/3\n", "q.txt", (1, 7)),
    ], ids=["plain_numerator", "plain_denominator", "csv", "vector"])
    def test_fraction_part_too_long(self, tmp_path, text, name, where):
        error = self.parse(tmp_path, text, name)
        assert (error.line, error.column) == where

    @pytest.mark.parametrize("text, name, where, token", [
        (f"2\n1 2\n{HUGE}/3 1\n", "m.txt", (3, 1), f"{HUGE}/3"),
        (f"1,2\n3,-{HUGE}/3\n", "m.csv", (2, 3), f"-{HUGE}/3"),
        (f"1 2/{HUGE} {HUGE}/1\n", "q.txt", (1, 3 + len(HUGE) + 3), f"{HUGE}/1"),
    ], ids=["plain", "csv", "vector"])
    def test_fraction_overflows_double(self, tmp_path, text, name, where, token):
        error = self.parse(tmp_path, text, name)
        assert (error.line, error.column) == where
        assert str(error).endswith(f"non-finite entry {token!r}")

    def test_long_fraction_within_limits_parses(self, tmp_path):
        big = "1" + "0" * 1500
        m = parse_matrix(write(tmp_path, f"2\n1 2\n-{big}/{big[:-1]} 1/{big}\n"))
        # 10^1500 / 10^1499 is -10; 1 / 10^1500 rounds to 0.
        np.testing.assert_array_equal(m, [[1.0, 2.0], [-10.0, 0.0]])

    def test_dimension_with_leading_zeros_parses(self, tmp_path):
        m = parse_matrix(write(tmp_path, "0" * 30 + "2\n1 2\n3 4\n"))
        np.testing.assert_array_equal(m, [[1.0, 2.0], [3.0, 4.0]])


def _outcome(parse, path):
    try:
        return parse(path)
    except LcpBoundsError as exc:
        return exc


def _scan_matrix(path):
    """The positioned scan alone: what the parser did before it had a fast path."""
    text = matrixio._read(path)
    return matrixio._scan_csv(text) if "," in text else matrixio._scan_plain(text)


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want), (got, want)
        assert str(got) == str(want)
        assert getattr(got, "line", None) == getattr(want, "line", None)
        assert getattr(got, "column", None) == getattr(want, "column", None)
    else:
        assert isinstance(got, np.ndarray), got
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# "\xa0" and "\u2003" split tokens for str.split; "\x00", a fullwidth 1 and an
# Arabic-Indic 3 are characters float() reads.  numpy rejects all five.
_WHITESPACE = " \t\n\r\x0b\x0c\x1c\x85\xa0\u2003"
_ATOMS = (list("0123456789.eE+-/,_") + ["inf", "nan", "\x00", "\uff11", "\u0663"]
          + list(_WHITESPACE))
_free_text = st.lists(st.sampled_from(_ATOMS), max_size=40).map("".join)
_junk = st.lists(st.sampled_from([a for a in _ATOMS if a.strip() and a != ","]),
                 min_size=1, max_size=4).map("".join)
_valid = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-99, 99).map(str),
)
_fraction = st.tuples(st.integers(-99, 99), st.integers(-3, 9)).map(lambda pq: f"{pq[0]}/{pq[1]}")
_any_token = st.one_of(
    _valid, _junk, _fraction, st.sampled_from(["1e400", "-inf", "nan", "1_0", "+.5", "5."]),
)
_gap = st.text(alphabet=_WHITESPACE, min_size=1, max_size=3)


def _heads(n: int):
    """Spellings of a plain file's head that the scan reads as ``n``, or
    rejects, where the conversion pass would read a number."""
    return st.sampled_from([f"+{n}", f"0{n}", f"\n\n{n}", f"\ufeff{n}", f"{n}.0", f"{n}e0",
                            "1e1", chr(0x660 + n), f"{n:020d}", "1" * 20, f"{n}\x1c"])


def _rarely(draw) -> bool:
    return draw(st.integers(0, 3)) == 0


@st.composite
def _layouts(draw):
    """Texts shaped like plain, CSV or vector files, mostly well formed."""
    n = draw(st.integers(1, 4))
    count = n * n + (draw(st.sampled_from([-1, 1])) if _rarely(draw) else 0)
    token = draw(st.sampled_from([_valid, _valid, st.one_of(_valid, _fraction), _any_token]))
    entries = draw(st.lists(token, min_size=count, max_size=count))
    layout = draw(st.sampled_from(["plain", "csv", "vector"]))
    if layout == "plain":
        head = draw(st.one_of(_any_token, _heads(n))) if _rarely(draw) else str(n)
        return "".join(part + draw(_gap) for part in [head] + entries)
    if layout == "csv":
        rows = [entries[i : i + n] for i in range(0, len(entries), n)]
        lines = [draw(st.sampled_from([",", ", ", " ,\t"])).join(row) for row in rows]
        breaks = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\n \n"])
        return "".join(line + draw(breaks) for line in lines)
    seps = st.sampled_from([",", " ", ", ", "\n", "\r\n", "\t,"])
    return "".join(entry + draw(seps) for entry in entries)


class TestFastPathMatchesScan:
    """Every text parses as a matrix to the scan's bit pattern, or fails
    exactly as the scan does: same type, line, column and message.  Vector
    files have no fast path."""

    @given(st.one_of(_free_text, _layouts()))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_outcome(self, tmp_path, text):
        path = str(tmp_path / "input.txt")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        _assert_same(_outcome(parse_matrix, path), _outcome(_scan_matrix, path))

    def test_well_formed_file_skips_the_scan(self, tmp_path, monkeypatch):
        m = np.random.default_rng(5).standard_normal((40, 40))
        path = write(tmp_path, format_matrix(m))
        csv_rows = "\n".join(", ".join(map(repr, row)) for row in m.tolist())
        csv_path = write(tmp_path, f"\n{csv_rows}\n \n", name="m.csv")

        def refuse(*_):
            raise AssertionError("positioned scan ran on a well-formed file")

        monkeypatch.setattr(matrixio, "_lines", refuse)
        monkeypatch.setattr(matrixio, "_parse_number", refuse)
        np.testing.assert_array_equal(parse_matrix(path), m)
        np.testing.assert_array_equal(parse_matrix(csv_path), m)


class TestConversionPass:
    """The one numpy pass gives the scan's outcome, and the numpy behaviours
    it relies on still hold."""

    @pytest.mark.parametrize("text", ["1\n \n", "2\n1 2 3 4 x", "2\n1-2 3 4 5", "2\n1 2 3 4\x00",
                                      "0.0,0.0\n0.0, "])
    def test_same_outcome_as_scan(self, tmp_path, text):
        self.assert_same_outcome(tmp_path, text)

    # The whole plain file goes through the pass, so the head must be checked
    # against its own token: 2.0 and 4e0 convert to a head the scan rejects.
    @pytest.mark.parametrize("head", ["2", "+2", "02", "\n\n2", "\ufeff2", "2.0", "2e0", "4e0",
                                      "\u0662", "0" * 19 + "2", "1" * 20, "2\x1c", "2\x85"])
    def test_head_variants(self, tmp_path, head):
        self.assert_same_outcome(tmp_path, head + "\n1 2\n3 4\n")
        self.assert_same_outcome(tmp_path, head + " 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16")

    @staticmethod
    def assert_same_outcome(tmp_path, text):
        path = str(tmp_path / "input.txt")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        _assert_same(_outcome(parse_matrix, path), _outcome(_scan_matrix, path))

    def test_numpy_canary(self):
        # Blank text reads as [-1.0]; the pass never hands numpy blank text.
        np.testing.assert_array_equal(np.fromstring(" \n ", sep=" "), [-1.0])
        # Unmatched data raises (older numpy warned, an error under pytest).
        with pytest.raises((ValueError, DeprecationWarning)):
            np.fromstring("1-2 3", sep=" ")
        assert not np.isfinite(np.fromstring("inf nan", sep=" ")).any()

    def test_warning_counts_as_rejection(self, tmp_path, monkeypatch):
        """Older numpy warns on unmatched data and returns the prefix it
        read; a prefix of the right length must not pass for the file."""

        def prefix(text, sep):
            warnings.warn("string or file could not be read to its end", DeprecationWarning)
            return np.array([1.0, 2.0, 3.0, 4.0])

        path = write(tmp_path, "2\n1 2 3 4 x\n")
        monkeypatch.setattr(np, "fromstring", prefix)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(ParseError, match="trailing data"):
                parse_matrix(path)


class TestLargeFile:
    N = 400

    @pytest.fixture(scope="class")
    def cells(self):
        rng = np.random.default_rng(400)
        m = rng.standard_normal((self.N, self.N)) * 10.0 ** rng.integers(-300, 300, (self.N, self.N))
        m[0, :4] = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        return m, [[repr(v) for v in row] for row in m.tolist()]

    def write_cells(self, tmp_path, rows):
        return write(tmp_path, f"{self.N}\n" + "\n".join(" ".join(r) for r in rows) + "\n")

    @staticmethod
    def column(row, j):
        return sum(len(token) + 1 for token in row[:j]) + 1

    def test_round_trip_bit_exact(self, tmp_path, cells):
        m, _ = cells
        parsed = parse_matrix(write(tmp_path, format_matrix(m)))
        assert parsed.shape == m.shape
        assert parsed.tobytes() == m.tobytes()

    @pytest.mark.parametrize("token, i, j, message", [
        ("oops", N - 1, N - 1, "not a number: 'oops'"),
        ("1e400", 123, 45, "non-finite entry '1e400'"),
        ("1.5/2", 7, 399, "malformed fraction '1.5/2'"),
    ])
    def test_error_position(self, tmp_path, cells, token, i, j, message):
        _, rows = cells
        rows = [list(r) for r in rows]
        rows[i][j] = token
        with pytest.raises(ParseError) as exc:
            parse_matrix(self.write_cells(tmp_path, rows))
        assert (exc.value.line, exc.value.column) == (i + 2, self.column(rows[i], j))
        assert str(exc.value).endswith(message)

    def test_one_fraction_token(self, tmp_path, cells):
        m, rows = cells
        rows = [list(r) for r in rows]
        rows[200][17] = "-2/7"
        parsed = parse_matrix(self.write_cells(tmp_path, rows))
        want = m.copy()
        want[200, 17] = -2 / 7
        assert parsed.tobytes() == want.tobytes()
