import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from spcakit import (
    AsymmetryExceedsTolerance,
    DataMatrix,
    DimensionNotDivisibleBy4,
    InvalidKernelParams,
    NonConvergenceWarning,
    NonFiniteEntries,
    NotPowerOfTwo,
    NotSquare,
    ParseError,
    SpcaError,
    SymmetricMatrix,
    SyntheticConfig,
    covariance_from_data,
    givens_composition_apply,
    hadamard_basis,
    kernel_matrix,
    load_matrix,
    pit_props,
    save_matrix,
    symmetrize,
    synthetic_spiked,
    unit_row_normalize,
    ZeroVarianceColumn,
)

from spcakit import data as data_mod
from spcakit import matrix as matrix_mod

from helpers import count_calls, random_psd, record_results, two_pass_covariance, wide_data


ARRAY_HEADER = "%%MatrixMarket matrix array real general\n"
COORDINATE_HEADER = "%%MatrixMarket matrix coordinate real general\n"

# The line breaks of str.splitlines other than "\n": read_text has already
# turned "\r" and "\r\n" into "\n". Lines are numbered and comment lines
# recognised with all of these.
SPLITLINES_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


class TestLoadSave:
    def test_matrix_market_coordinate_symmetric(self, tmp_path):
        path = tmp_path / "ident.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "% comment line\n"
            "2 2 2\n"
            "1 1 1.0\n"
            "2 2 1.0\n"
        )
        A = load_matrix(path)
        assert isinstance(A, SymmetricMatrix)
        np.testing.assert_array_equal(A.entries, np.eye(2))

    def test_matrix_market_coordinate_general(self, tmp_path):
        path = tmp_path / "gen.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n"
            "1 1 2.0\n1 2 0.5\n2 1 0.5\n"
        )
        A = load_matrix(path)
        np.testing.assert_array_equal(A.entries, [[2.0, 0.5], [0.5, 0.0]])

    def test_matrix_market_array_symmetric(self, tmp_path):
        path = tmp_path / "arr.mtx"
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "2 2\n"
            "1.0\n0.25\n3.0\n"
        )
        A = load_matrix(path)
        np.testing.assert_array_equal(A.entries, [[1.0, 0.25], [0.25, 3.0]])
        # six distinct values pin the column-major order of the lower triangle
        path.write_text(
            "%%MatrixMarket matrix array real symmetric\n"
            "3 3\n"
            "1.0\n2.0\n3.0\n4.0\n5.0\n6.0\n"
        )
        A = load_matrix(path)
        np.testing.assert_array_equal(
            A.entries, [[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]
        )

    @pytest.mark.parametrize("brk", SPLITLINES_BREAKS)
    def test_coordinate_lines_end_at_every_splitlines_break(self, tmp_path, brk):
        path = tmp_path / "c.mtx"
        head = "%%MatrixMarket matrix coordinate real general\n% c" + brk + "2 2 2\n"
        path.write_bytes((head + "1 1 1.0" + brk + "% c" + brk + "2 2 4.0\n").encode())
        np.testing.assert_array_equal(load_matrix(path, kind="data").entries, [[1.0, 0.0], [0.0, 4.0]])
        path.write_bytes((head + "1 1 1.0" + brk + "2 2 oops\n").encode())
        with pytest.raises(ParseError) as info:
            load_matrix(path, kind="data")
        assert (info.value.line, info.value.column) == (5, 3)

    def test_csv_data(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2\n3,4\n")
        X = load_matrix(path, kind="data")
        assert isinstance(X, DataMatrix)
        np.testing.assert_array_equal(X.entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_csv_header_skipped(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("alpha,beta\n1.5,2.5\n")
        X = load_matrix(path, kind="data")
        np.testing.assert_array_equal(X.entries, [[1.5, 2.5]])

    def test_round_trip_bit_exact_matrix_market(self, tmp_path):
        A = random_psd(6, 515)
        path = tmp_path / "rt.mtx"
        save_matrix(path, A)
        B = load_matrix(path)
        assert np.array_equal(A.entries, B.entries)

    def test_round_trip_bit_exact_csv(self, tmp_path):
        A = random_psd(5, 99)
        path = tmp_path / "rt.csv"
        save_matrix(path, A)
        B = load_matrix(path)
        assert np.array_equal(A.entries, B.entries)

    def test_metadata_sidecar(self, tmp_path):
        path = tmp_path / "m.mtx"
        save_matrix(path, np.eye(2), metadata={"name": "ident", "n": 2})
        sidecar = tmp_path / "m.mtx.meta.json"
        assert json.loads(sidecar.read_text())["name"] == "ident"

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 oops\n")
        with pytest.raises(ParseError) as info:
            load_matrix(path)
        assert info.value.line == 3
        assert info.value.column == 3

    @pytest.mark.parametrize("text", ["a,b\n1,2\n3\n", "1,2\n\n3\n"])
    def test_csv_width_error_reports_file_line(self, tmp_path, text):
        # a skipped header or blank line must not shift the reported line
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_matrix(path, kind="data")
        assert info.value.line == 3

    @pytest.mark.parametrize("text, message, line, column", [
        ("", "empty file", 1, None),
        ("%%MatrixMarket matrix dense real general\n1 1\n1.0\n",
         "unsupported layout 'dense'", 1, 3),
        ("%%MatrixMarket matrix array complex general\n1 1\n1.0\n",
         "unsupported field type 'complex'", 1, 4),
        ("%%MatrixMarket matrix array real hermitian\n1 1\n1.0\n",
         "unsupported symmetry 'hermitian'", 1, 5),
        (COORDINATE_HEADER + "2 2\n", "coordinate size line needs 'rows cols nnz'", 2, None),
        (ARRAY_HEADER + "% c\n2 2 4\n", "array size line needs 'rows cols'", 3, None),
        (COORDINATE_HEADER + "2 2 2\n1 1 1.0\n", "expected 2 entries, found 1", 2, None),
        (COORDINATE_HEADER + "2 2 1\n1 1\n", "coordinate entry needs 'i j value'", 3, None),
        (COORDINATE_HEADER + "2 2 1\n\n3 1 1.0\n", "index (3, 1) out of range", 4, None),
        (COORDINATE_HEADER + "2 2 1\n1 0 1.0\n", "index (1, 0) out of range", 3, None),
        (COORDINATE_HEADER + "2 2 1\n1 x 1.0\n", "expected an integer, got 'x'", 3, 2),
        (COORDINATE_HEADER + "2 2 1.5\n", "expected an integer, got '1.5'", 2, 3),
        ("%%MatrixMarket matrix array real symmetric\n2 3\n1 2 3 4 5 6\n",
         "symmetric array must be square", 2, None),
        ("%%MatrixMarket matrix array real symmetric\n2 2\n1 2\n",
         "expected 3 lower-triangle values, found 2", 2, None),
    ])
    def test_reader_errors_report_their_position(self, tmp_path, text, message, line, column):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(ParseError) as info:
            load_matrix(path)
        assert (info.value.line, info.value.column) == (line, column)
        position = f"line {line}" if column is None else f"line {line}, column {column}"
        assert str(info.value) == f"{message} ({position})"

    def test_explicit_format_overrides_the_suffix(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_text("1,2\n3,4\n")
        with pytest.raises(ValueError, match="cannot infer format"):
            load_matrix(path, kind="data")
        entries = load_matrix(path, format="dense_csv", kind="data").entries
        np.testing.assert_array_equal(entries, [[1.0, 2.0], [3.0, 4.0]])

    def test_header_parse_error(self, tmp_path):
        path = tmp_path / "bad2.mtx"
        path.write_text("not a header\n")
        with pytest.raises(ParseError) as info:
            load_matrix(path)
        assert info.value.line == 1

    def test_covariance_in_large_units_loads(self, tmp_path):
        # Rounding in D C D leaves mirrored entries of a 4e10-scale matrix
        # about 2e-6 apart: far above 1e-8 in absolute terms, but 4e-17 of
        # the largest entry.
        rng = np.random.default_rng(3)
        X = 1e5 * rng.standard_normal((50, 30))
        D = np.diag(rng.uniform(1, 2, 50))
        raw = D @ np.cov(X) @ D
        assert np.abs(raw - raw.T).max() > 1e-8
        path = tmp_path / "cov.mtx"
        save_matrix(path, raw)
        A = load_matrix(path)
        assert A.entries.tobytes() == ((raw + raw.T) / 2.0).tobytes()


# Finite doubles whose text form is hardest to round-trip: signed zero, the
# smallest subnormal, a mid-range subnormal and values near the largest double.
EDGE_FLOATS = (-0.0, 5e-324, -5e-324, 1.5e-310, 1.7e308, -1.7e308)


class TestArrayReader:
    """The MatrixMarket array layout: positions, comments, line endings, tokens."""

    def _load(self, tmp_path, text):
        path = tmp_path / "a.mtx"
        path.write_bytes(text.encode())
        return load_matrix(path, kind="data").entries

    def test_bad_token_after_comment_and_blank_line(self, tmp_path):
        text = ARRAY_HEADER + "2 2\n1.0\n% comment\n\n2.0\noops\n4.0\n"
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, text)
        assert (info.value.line, info.value.column) == (7, 1)
        assert str(info.value) == "expected a number, got 'oops' (line 7, column 1)"

    def test_bad_second_token_on_a_line(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "2 2\n1.0 x2\n3.0 4.0\n")
        assert (info.value.line, info.value.column) == (3, 2)

    def test_percent_inside_a_value_line_is_a_bad_token(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "2 2\n1.0 2.0 %note\n3.0 4.0\n")
        assert (info.value.line, info.value.column) == (3, 3)

    def test_crlf_line_endings(self, tmp_path):
        text = ARRAY_HEADER.replace("\n", "\r\n") + "2 2\r\n1.0\r\n2.0\r\n3.0\r\n4.0\r\n"
        np.testing.assert_array_equal(self._load(tmp_path, text), [[1.0, 3.0], [2.0, 4.0]])

    def test_comment_and_blank_lines_in_body_skipped(self, tmp_path):
        text = ARRAY_HEADER + "% before size\n2 2\n1.0\n\n% c\n  \t% indented\n2.0 3.0\n   \n4.0\n%"
        np.testing.assert_array_equal(self._load(tmp_path, text), [[1.0, 3.0], [2.0, 4.0]])

    @pytest.mark.parametrize("brk", SPLITLINES_BREAKS)
    def test_every_splitlines_break_ends_a_line(self, tmp_path, brk):
        # a comment ends at the break, and the text after it is a line of its own
        for body in ("2 2\n1.0" + brk + "% c\n2.0 3.0\n4.0\n",
                     "% c" + brk + "2 2\n1.0\n% c" + brk + "2.0 3.0 4.0\n"):
            np.testing.assert_array_equal(self._load(tmp_path, ARRAY_HEADER + body),
                                          [[1.0, 3.0], [2.0, 4.0]])
        for body, position in (("2 2\n1.0" + brk + "oops\n3.0 4.0\n", (4, 1)),
                               ("2 2\n% c" + brk + "1.0 x\n3.0 4.0\n", (4, 2)),
                               ("% c" + brk + "2 2\n1.0" + brk + "% c" + brk + "2.0 3.0 ?\n", (6, 3))):
            with pytest.raises(ParseError) as info:
                self._load(tmp_path, ARRAY_HEADER + body)
            assert (info.value.line, info.value.column) == position
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "% c" + brk + "2 2\n1.0\n")
        assert str(info.value) == "expected 4 values, found 1 (line 3)"

    def test_unit_separator_is_blank_but_no_line_break(self, tmp_path):
        # "\x1f" separates tokens, so a "%" after it is a token on the same line
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "2 2\n1.0\x1f% c\n2.0 3.0 4.0\n")
        assert (info.value.line, info.value.column) == (3, 2)

    def test_short_body(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "2 2\n1.0\n")
        assert str(info.value) == "expected 4 values, found 1 (line 2)"

    def test_missing_size_line(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, ARRAY_HEADER + "% only a comment\n\n")
        assert str(info.value) == "missing size line (line 3)"

    def test_python_float_syntax(self, tmp_path):
        # tokens go through float(), which accepts digit-group underscores
        assert self._load(tmp_path, ARRAY_HEADER + "1 1\n1_0\n")[0, 0] == 10.0

    @given(arrays(np.float64, array_shapes(min_dims=2, max_dims=2, max_side=7),
                  elements=st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                                     st.sampled_from(EDGE_FLOATS))))
    @example(arr=np.array([EDGE_FLOATS]))
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_round_trip_bit_exact(self, tmp_path, arr):
        path = tmp_path / "rt.mtx"
        save_matrix(path, arr)
        assert load_matrix(path, kind="data").entries.tobytes() == arr.tobytes()

    def test_round_trip_at_benchmark_size(self, tmp_path):
        X = synthetic_spiked(SyntheticConfig(m=128, n=2048, sigma=0.1, seed=3))
        path = tmp_path / "big.mtx"
        save_matrix(path, X)
        assert load_matrix(path, kind="data").entries.tobytes() == X.entries.tobytes()


def _outcome(load):
    """What ``load()`` gives: the entries' bits and the trace, or the exception in full."""
    try:
        A = load()
    except (SpcaError, ValueError) as exc:
        return type(exc), str(exc), vars(exc)
    return A.entries.tobytes(), A.entries.shape, getattr(A, "trace", None)


class TestMirroredParse:
    """A square general array whose mirrored tokens are equal strings has its
    lower triangle alone converted; every outcome of either kind equals the
    full parse's."""

    def _check(self, tmp_path, monkeypatch, text, converted=None):
        path = tmp_path / "s.mtx"
        path.write_bytes(text.encode())
        with monkeypatch.context() as full_parse:
            full_parse.setattr(data_mod, "_mirrored_lower", lambda tokens, n: None)
            expected = _outcome(lambda: load_matrix(path))
            expected_data = _outcome(lambda: load_matrix(path, kind="data"))
        calls = count_calls(monkeypatch, data_mod, "_floats")
        assert _outcome(lambda: load_matrix(path)) == expected
        if converted is not None:
            assert sum(len(tokens) for tokens, in calls) == converted
        assert _outcome(lambda: load_matrix(path, kind="data")) == expected_data
        return expected

    @staticmethod
    def _text(columns, head="2 2\n"):
        return ARRAY_HEADER + head + "\n".join(columns) + "\n"

    @pytest.mark.parametrize("n", [1, 2, 129])
    def test_bitwise_symmetric_converts_the_lower_triangle(self, tmp_path, monkeypatch, n):
        rng = np.random.Generator(np.random.Philox(n))
        g = rng.standard_normal((n, n))
        g[0, -1] = g[-1, 0] = -0.0
        path = tmp_path / "s.mtx"
        save_matrix(path, (g + g.T) / 2.0)
        outcome = self._check(tmp_path, monkeypatch, path.read_text(), n * (n + 1) // 2)
        assert outcome[0] == ((g + g.T) / 2.0).tobytes()

    def test_asymmetric_converts_every_token(self, tmp_path, monkeypatch):
        # the pair matches as values, not as text: the full parse runs
        self._check(tmp_path, monkeypatch, self._text(["1.0", "0.5", "5e-1", "2.0"]), 4)

    def test_signed_zero_pair_is_averaged(self, tmp_path, monkeypatch):
        outcome = self._check(tmp_path, monkeypatch, self._text(["1.0", "-0.0", "0.0", "2.0"]), 4)
        assert outcome[0] == np.array([[1.0, 0.0], [0.0, 2.0]]).tobytes()  # +0.0

    def test_near_symmetric_is_averaged(self, tmp_path, monkeypatch):
        self._check(tmp_path, monkeypatch, self._text(["1.0", "0.5", "0.5000000000000001", "2.0"]), 4)

    def test_beyond_tolerance_names_the_same_pair(self, tmp_path, monkeypatch):
        text = self._text(["1.0", "2.0", "3.0", "0.5", "1.0", "2.0", "0.5", "9.0", "4.0"],
                          head="3 3\n")
        kind, _, attrs = self._check(tmp_path, monkeypatch, text)
        assert kind is AsymmetryExceedsTolerance
        assert (attrs["i"], attrs["j"], attrs["delta"]) == (1, 2, 7.0)

    @pytest.mark.parametrize("columns", [
        ["1.0", "oops", "0.5", "2.0"],  # below the diagonal
        ["1.0", "0.5", "oops", "2.0"],  # above it
        ["1.0", "oops", "oops", "2.0"],  # a mirrored pair
        ["1.0", "0.5", "0.5", "x"],  # on the diagonal
    ])
    def test_bad_token_names_the_same_position(self, tmp_path, monkeypatch, columns):
        kind, message, _ = self._check(tmp_path, monkeypatch, self._text(columns))
        assert kind is ParseError and "expected a number" in message

    def test_interleaved_comment_lines(self, tmp_path, monkeypatch):
        text = ARRAY_HEADER + "% c\n3 3\n1.0 2.0\n% c\n3.0\n\n2.0 4.0 % x\n5.0\n3.0 5.0 6.0\n"
        kind, message, _ = self._check(tmp_path, monkeypatch, text)
        assert kind is ParseError and "line 8, column 3" in message
        text = ARRAY_HEADER + "% c\n3 3\n1.0 2.0\n% c\n3.0\n\n2.0 4.0\n  % x\n5.0\n3.0 5.0 6.0\n"
        outcome = self._check(tmp_path, monkeypatch, text, 6)
        assert outcome[0] == np.array([[1.0, 2.0, 3.0], [2.0, 4.0, 5.0], [3.0, 5.0, 6.0]]).tobytes()

    @pytest.mark.parametrize("columns", [
        ["1.0", "nan", "nan", "2.0"],
        ["1.0", "inf", "inf", "2.0"],
        ["-inf", "0.5", "0.5", "2.0"],
        ["1.0", "nan", "0.5", "2.0"],
    ])
    def test_nan_and_inf_tokens(self, tmp_path, monkeypatch, columns):
        kind, _, _ = self._check(tmp_path, monkeypatch, self._text(columns))
        assert kind is NonFiniteEntries

    @pytest.mark.parametrize("count", [3, 5, 8])
    def test_wrong_token_count(self, tmp_path, monkeypatch, count):
        kind, message, _ = self._check(tmp_path, monkeypatch, self._text(["1.0"] * count))
        assert kind is ParseError and f"found {count}" in message

    def test_non_square_general_array(self, tmp_path, monkeypatch):
        kind, _, _ = self._check(tmp_path, monkeypatch, self._text(["1.0"] * 6, head="2 3\n"))
        assert kind is NotSquare


class TestCsvReader:
    def _load(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        return load_matrix(path, kind="data").entries

    def test_blanks_around_tokens(self, tmp_path):
        # strip() drops "\x1f", which float() alone would reject
        entries = self._load(tmp_path, " 1.5 ,\x1f2\x1f\n3,\t4\n")
        np.testing.assert_array_equal(entries, [[1.5, 2.0], [3.0, 4.0]])

    def test_bad_token_position_after_a_header(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, "a,b\n1,2\n3, x \n")
        assert str(info.value) == "expected a number, got 'x' (line 3, column 2)"

    def test_numeric_first_line_is_data(self, tmp_path):
        np.testing.assert_array_equal(self._load(tmp_path, "\n1,2\n"), [[1.0, 2.0]])
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, "1,2\n3,y\n")
        assert (info.value.line, info.value.column) == (2, 2)

    def test_first_line_holding_a_number_is_data(self, tmp_path):
        with pytest.raises(ParseError) as info:
            self._load(tmp_path, "1,oops\n2,3\n4,5\n")
        assert str(info.value) == "expected a number, got 'oops' (line 1, column 2)"


class TestCovariance:
    def test_single_informative_column(self):
        X = DataMatrix(np.array([[1.0, 0.0], [-1.0, 0.0]]))
        A = covariance_from_data(X, center=True)
        np.testing.assert_array_equal(A.entries, [[2.0, 0.0], [0.0, 0.0]])

    def test_correlation_unit_diagonal(self):
        rng = np.random.Generator(np.random.Philox(8))
        X = DataMatrix(rng.standard_normal((30, 4)))
        A = covariance_from_data(X, to_correlation=True)
        np.testing.assert_array_equal(np.diag(A.entries), np.ones(4))

    def test_matches_two_pass_oracle(self):
        rng = np.random.Generator(np.random.Philox(12))
        data = rng.standard_normal((20, 5))
        A = covariance_from_data(DataMatrix(data), center=True)
        np.testing.assert_allclose(A.entries, two_pass_covariance(data), atol=1e-10, rtol=0)

    def test_centering_needs_two_samples(self):
        with pytest.raises(ValueError, match="centering requires at least two samples"):
            covariance_from_data(DataMatrix([[1.0, 2.0, 3.0]]))
        A = covariance_from_data(DataMatrix([[1.0, 2.0, 3.0]]), center=False)
        np.testing.assert_array_equal(A.entries, np.outer([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]))

    def test_zero_variance_column_raises(self):
        X = DataMatrix(np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        with pytest.raises(ZeroVarianceColumn):
            covariance_from_data(X, to_correlation=True)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_data_factor_below_half_the_features(self, center, to_correlation):
        X = wide_data(40, 600, 5)
        A = covariance_from_data(X, center=center, to_correlation=to_correlation)
        F = A._factor
        assert F.shape == (40, 600) and not F.flags.writeable
        np.testing.assert_allclose(F.T @ F, A.entries, rtol=0, atol=1e-12 * A.entries.max())
        if center:
            np.testing.assert_allclose(F.sum(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("center", [True, False])
    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_lazily_built_entries_are_the_dense_entries(self, monkeypatch, center, to_correlation):
        X = wide_data(40, 600, 5)
        A = covariance_from_data(X, center=center, to_correlation=to_correlation)
        assert A._entries is None and A._psd
        with monkeypatch.context() as mp:
            # too small a slack certifies nothing, so the covariance is built dense
            mp.setattr(matrix_mod, "PSD_SLACK", 1e-20)
            dense = covariance_from_data(X, center=center, to_correlation=to_correlation)
        assert dense._entries is not None and not dense._psd
        assert A.entries.tobytes() == dense.entries.tobytes()
        assert not A.entries.flags.writeable
        # both are the product of the one stored factor
        product = A._factor.T @ A._factor
        if to_correlation:
            np.fill_diagonal(product, 1.0)
            assert A.trace == 600.0 == dense.trace
        else:
            assert A.trace == pytest.approx(dense.trace, rel=1e-14, abs=0)
        assert A.entries.tobytes() == product.tobytes()

    @pytest.mark.parametrize("center", [True, False])
    def test_factor_only_covariance_holds_one_data_sized_array(self, center):
        import tracemalloc

        X = wide_data(64, 4096, 5)
        tracemalloc.start()
        try:
            A = covariance_from_data(X, center=center)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert A._entries is None and A._factor.nbytes == X.entries.nbytes
        assert held < 1.25 * X.entries.nbytes

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_overflowing_wide_covariance_raises(self, to_correlation):
        X = DataMatrix(1e200 * wide_data(8, 40, 5).entries)
        with pytest.raises(NonFiniteEntries):
            covariance_from_data(X, to_correlation=to_correlation)

    @pytest.mark.parametrize("m", [300, 301])
    def test_no_data_factor_from_half_the_features_or_more(self, m):
        assert covariance_from_data(wide_data(m, 600, 5))._factor is None
        assert covariance_from_data(wide_data(299, 600, 5))._factor is not None

    @pytest.mark.parametrize("to_correlation", [False, True])
    def test_no_data_factor_where_products_could_underflow(self, to_correlation):
        # The PSD certificate of covariance_from_data comes from a rounding
        # bound that assumes no product underflows; so does the factor.
        X = wide_data(8, 20, 5).entries
        for tiny, kept in ((1e-100, True), (2.0**-400, True), (2.0**-401, False), (1e-160, False)):
            low = X.copy()
            low[:, 3] = tiny * np.array([1.0, -2.0, 3.0, 1.5, -1.0, 2.0, 4.0, 1.0])
            A = covariance_from_data(DataMatrix(low), center=False, to_correlation=to_correlation)
            assert (A._factor is not None) == kept == A._psd, tiny
        zero_column = X.copy()
        zero_column[:, 3] = 0.0  # exact zeros cannot underflow
        A = covariance_from_data(DataMatrix(zero_column))
        assert A._factor is not None and A._psd

    def test_other_constructors_carry_no_data_factor(self, tmp_path):
        X = wide_data(8, 20, 5)
        A = covariance_from_data(X)
        assert A._factor is not None
        path = tmp_path / "cov.mtx"
        save_matrix(path, A)
        for built in (unit_row_normalize(A, max_iters=200), load_matrix(path), pit_props(),
                      kernel_matrix(DataMatrix(X.entries.T[:, :8])), random_psd(5, 1)):
            assert built._factor is None

    def test_unit_row_normalization_rejects_a_zero_row(self):
        with pytest.raises(ZeroVarianceColumn, match="zero row"):
            unit_row_normalize(symmetrize(np.diag([1.0, 0.0, 4.0])))

    def test_unit_row_normalization_postcondition(self):
        for seed in (1, 2, 3):
            A = unit_row_normalize(random_psd(8, 9000 + seed))
            norms = np.linalg.norm(A.entries, axis=1)
            np.testing.assert_allclose(norms, np.ones(8), atol=1e-6)
            assert np.linalg.eigvalsh(A.entries)[0] >= -1e-10

    def test_unit_row_normalization_converges_on_wide_covariances(self):
        # Each sweep about halves the deviation here; this input needs 26.
        # The suite turns the NonConvergenceWarning into an error.
        A = covariance_from_data(wide_data(40, 600, 5))
        with pytest.warns(NonConvergenceWarning):
            unit_row_normalize(A, max_iters=25)
        B = unit_row_normalize(A)
        np.testing.assert_allclose(np.linalg.norm(B.entries, axis=1), 1.0, rtol=0, atol=1e-8)

    def test_scaling_needs_no_averaging_pass(self, monkeypatch):
        # Rows and columns are scaled by outer(s, s), which keeps the bitwise
        # symmetric product so: symmetrize copies it, and never averages.
        verdicts = record_results(monkeypatch, matrix_mod, "_bitwise_symmetric")
        wide = covariance_from_data(wide_data(40, 600, 5), to_correlation=True)
        tall = covariance_from_data(wide_data(300, 600, 5), to_correlation=True)
        for A in (wide, tall, unit_row_normalize(wide), unit_row_normalize(random_psd(8, 9001))):
            np.testing.assert_array_equal(A.entries, A.entries.T)
        assert len(verdicts) >= 4 and all(verdicts)

    def test_scales_whose_product_overflows_stay_finite(self):
        # Columns of subnormal variance have scales near 1e160, whose products
        # overflow; those are scaled one factor at a time.
        X = wide_data(8, 20, 5).entries.copy()
        X[:, 3] = 1e-160 * np.array([1.0, -2.0, 3.0, 1.5, -1.0, 2.0, 4.0, 1.0])
        X[:, 4] = 1e-160 * np.array([2.0, 1.0, -1.0, 1.0, 3.0, -2.0, 1.0, 2.0])
        A = covariance_from_data(DataMatrix(X), center=False, to_correlation=True)
        assert np.isfinite(A.entries).all() and abs(A.entries[3, 4]) < 1.0
        np.testing.assert_array_equal(np.diag(A.entries), 1.0)

    def test_unit_row_normalization_warns_when_capped(self):
        A = random_psd(6, 77)
        with pytest.warns(NonConvergenceWarning):
            unit_row_normalize(A, max_iters=1)


class TestKernels:
    def test_linear_on_orthonormal_rows(self):
        K = kernel_matrix(DataMatrix(np.eye(3)), kernel="linear")
        np.testing.assert_array_equal(K.entries, np.eye(3))

    def test_rbf_unit_diagonal(self):
        rng = np.random.Generator(np.random.Philox(5))
        K = kernel_matrix(DataMatrix(rng.standard_normal((6, 3))), kernel="rbf", gamma=0.7)
        np.testing.assert_allclose(np.diag(K.entries), np.ones(6), atol=1e-12)
        assert np.linalg.eigvalsh(K.entries)[0] >= -1e-10

    def test_polynomial_matches_scalar_recomputation(self):
        rng = np.random.Generator(np.random.Philox(6))
        data = rng.standard_normal((5, 3))
        K = kernel_matrix(DataMatrix(data), kernel="polynomial", degree=2, c=1.0)
        for i in range(5):
            for j in range(5):
                expected = (float(data[i] @ data[j]) + 1.0) ** 2
                assert K.entries[i, j] == pytest.approx(expected, abs=1e-10)

    def test_double_centering_zero_row_sums(self):
        rng = np.random.Generator(np.random.Philox(7))
        K = kernel_matrix(
            DataMatrix(rng.standard_normal((6, 2))), kernel="linear",
            center_in_feature_space=True,
        )
        np.testing.assert_allclose(K.entries.sum(axis=0), np.zeros(6), atol=1e-10)

    @pytest.mark.parametrize(
        "params", [dict(kernel="linear"), dict(kernel="polynomial", degree=3, c=0.5),
                   dict(kernel="rbf", gamma=0.3)],
    )
    def test_centering_matches_the_explicit_projection(self, params):
        X = DataMatrix(np.random.default_rng(2).standard_normal((30, 4)))
        K = kernel_matrix(X, **params).entries
        J = np.eye(30) - 1.0 / 30
        centered = kernel_matrix(X, center_in_feature_space=True, **params).entries
        np.testing.assert_allclose(centered, J @ K @ J, rtol=0, atol=1e-13 * np.abs(K).max())

    def test_high_degree_centered_polynomial_is_accepted(self, monkeypatch):
        # Entries reach 1.6e13. Centering subtracts the sum of the mean
        # vectors, which keeps the Gram matrix bitwise symmetric, so
        # symmetrize copies it.
        verdicts = record_results(monkeypatch, matrix_mod, "_bitwise_symmetric")
        X = DataMatrix(3 * np.random.default_rng(1).standard_normal((40, 5)))
        K = kernel_matrix(X, "polynomial", degree=6, c=1.0, center_in_feature_space=True)
        assert verdicts == [True]
        assert np.abs(K.entries).max() > 1e13

    def test_invalid_params(self):
        X = DataMatrix(np.eye(2))
        with pytest.raises(InvalidKernelParams):
            kernel_matrix(X, kernel="rbf", gamma=-1.0)
        with pytest.raises(InvalidKernelParams):
            kernel_matrix(X, kernel="polynomial", degree=0)
        with pytest.raises(InvalidKernelParams):
            kernel_matrix(X, kernel="sigmoid")

    def test_indefinite_kernel_is_flagged(self):
        from spcakit import NotPsdWarning

        rng = np.random.Generator(np.random.Philox(44))
        X = DataMatrix(rng.standard_normal((6, 3)))
        with pytest.warns(NotPsdWarning):
            kernel_matrix(X, kernel="polynomial", degree=3, c=-2.0)

    def test_indefinite_kernel_above_dense_crossover_is_flagged(self, monkeypatch):
        # 300 rows is above the dense crossover, so the PSD check runs a
        # Lanczos norm and a shifted Cholesky and never decomposes K in full.
        from spcakit import NotPsdWarning

        cholesky = count_calls(monkeypatch, matrix_mod, "_shifted_cholesky_succeeds")
        full = count_calls(monkeypatch, matrix_mod, "eigendecompose")
        rng = np.random.Generator(np.random.Philox(44))
        X = DataMatrix(rng.standard_normal((300, 3)))
        assert X.m > matrix_mod._DENSE_CHECK_MAX_N
        with pytest.warns(NotPsdWarning, match="kernel matrix is not PSD"):
            kernel_matrix(X, kernel="polynomial", degree=3, c=-2.0)
        assert len(cholesky) == 1 and full == []


class TestHadamardAndRotations:
    def test_base_cases(self):
        np.testing.assert_array_equal(hadamard_basis(1), [[1.0]])
        np.testing.assert_allclose(
            hadamard_basis(2), np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
        )

    def test_orthonormal_and_uniform_magnitude(self):
        H = hadamard_basis(8)
        np.testing.assert_allclose(H.T @ H, np.eye(8), atol=1e-12)
        np.testing.assert_allclose(np.abs(H), np.full((8, 8), 1 / np.sqrt(8)), atol=1e-15)

    def test_gram_error_up_to_1024(self):
        for p in (4, 64, 1024):
            H = hadamard_basis(p)
            assert np.abs(H.T @ H - np.eye(p)).max() <= 1e-12

    def test_not_power_of_two(self):
        with pytest.raises(NotPowerOfTwo):
            hadamard_basis(12)

    def test_zero_angle_is_identity(self):
        v = hadamard_basis(8)
        np.testing.assert_array_equal(givens_composition_apply(v, 0.0), v)

    def test_quarter_turn_on_identity(self):
        out = givens_composition_apply(np.eye(4), np.pi / 2)
        expected = np.eye(4)
        expected[2, 2] = 0.0
        expected[3, 3] = 0.0
        expected[2, 3] = -1.0
        expected[3, 2] = 1.0
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_orthonormality_preserved_and_split_shape(self):
        v = givens_composition_apply(hadamard_basis(16), 0.27 * np.pi)
        np.testing.assert_allclose(v.T @ v, np.eye(16), atol=1e-10)
        bottom = np.sort(np.abs(v[8:, 0]))
        base = 1 / np.sqrt(16)
        # half of the rotated coordinates nearly vanish, the others grow
        assert np.all(bottom[:4] < 0.2 * base)
        assert np.all(bottom[4:] > 1.2 * base)

    @pytest.mark.parametrize("p", [64, 1024])
    def test_rotated_basis_orthonormal_at_scale(self, p):
        v = givens_composition_apply(hadamard_basis(p), 0.27 * np.pi)
        assert np.abs(v.T @ v - np.eye(p)).max() <= 1e-10

    def test_dimension_not_divisible_by_4(self):
        with pytest.raises(DimensionNotDivisibleBy4):
            givens_composition_apply(np.eye(6), 0.1)
        with pytest.raises(DimensionNotDivisibleBy4):
            givens_composition_apply(np.ones((6, 2)), 0.1)

    def test_rejects_non_2d_input(self):
        with pytest.raises(ValueError, match="2-d"):
            givens_composition_apply(np.ones(8), 0.1)

    @pytest.mark.parametrize("cols", [slice(0, 1), slice(0, 8), slice(3, 40, 5), [63, 0, 17]])
    def test_commutes_with_column_slicing(self, cols):
        rng = np.random.Generator(np.random.Philox(21))
        for v in (hadamard_basis(64), rng.standard_normal((64, 64))):
            full = givens_composition_apply(v, 0.27 * np.pi)
            part = givens_composition_apply(v[:, cols], 0.27 * np.pi)
            assert part.tobytes() == np.ascontiguousarray(full[:, cols]).tobytes()

    def test_wide_array(self):
        v = np.arange(4 * 9, dtype=float).reshape(4, 9)
        out = givens_composition_apply(v, np.pi / 2)
        np.testing.assert_array_equal(out[:2], v[:2])
        np.testing.assert_allclose(out[2], -v[3], atol=1e-14)
        np.testing.assert_allclose(out[3], v[2], atol=1e-14)


class TestSyntheticSpiked:
    def test_noiseless_rank_structure(self):
        X = synthetic_spiked(SyntheticConfig(m=4, n=4, theta=0.0, sigma=0.0))
        gram = X.entries.T @ X.entries
        top = np.linalg.eigvalsh(gram)[-1]
        assert top == pytest.approx(100.0**2, rel=1e-12)

    def test_noiseless_singular_values(self):
        X = synthetic_spiked(SyntheticConfig(m=8, n=16, sigma=0.0, seed=3))
        sv = np.linalg.svd(X.entries, compute_uv=False)
        expected = np.array([100.0] + [np.exp(-i) for i in range(2, 9)])
        np.testing.assert_allclose(sv[:8], expected, atol=1e-8, rtol=0)

    def test_paper_scale_spike_band(self):
        cfg = SyntheticConfig(m=2**7, n=2**12)
        X = synthetic_spiked(cfg)
        top = np.linalg.svd(X.entries, compute_uv=False)[0]
        slack = 1e-3 * np.sqrt(cfg.m * cfg.n) / 100.0
        assert 100.0 * (1 - slack) <= top <= 100.0 * (1 + slack)

    def test_second_moment_tail_small(self):
        X = synthetic_spiked(SyntheticConfig(m=8, n=16, seed=11))
        cov = covariance_from_data(X, center=False)
        from spcakit import eigendecompose

        values = eigendecompose(cov).values
        assert values[1] <= np.exp(-2) * 1.5 + 1e-2

    @pytest.mark.parametrize("m, n", [(8, 64), (128, 2048)])
    def test_matches_full_basis_formula(self, m, n):
        # the m columns the model uses, taken from the full rotated n x n basis
        cfg = SyntheticConfig(m=m, n=n, sigma=0.1, seed=9)
        right = givens_composition_apply(hadamard_basis(n), cfg.theta)
        spectrum = np.exp(-np.arange(1, m + 1, dtype=float))
        spectrum[0] = 100.0
        core = (hadamard_basis(m) * spectrum) @ right[:, :m].T
        noise = cfg.sigma * np.random.Generator(np.random.Philox(cfg.seed)).standard_normal((m, n))
        assert synthetic_spiked(cfg).entries.tobytes() == (core + noise).tobytes()

    def test_deterministic(self):
        a = synthetic_spiked(SyntheticConfig(m=8, n=16, seed=5))
        b = synthetic_spiked(SyntheticConfig(m=8, n=16, seed=5))
        assert np.array_equal(a.entries, b.entries)

    def test_config_validation(self):
        with pytest.raises(NotPowerOfTwo):
            SyntheticConfig(m=3, n=8)
        with pytest.raises(ValueError):
            SyntheticConfig(m=16, n=8)


class TestPitProps:
    def test_unit_diagonal_and_trace(self):
        A = pit_props()
        np.testing.assert_array_equal(np.diag(A.entries), np.ones(13))
        assert A.trace == 13.0

    def test_psd_and_known_top_eigenvalue(self):
        from spcakit import eigendecompose, ensure_psd

        A = pit_props()
        ensure_psd(A)
        # leading eigenvalue of the published correlation matrix
        assert eigendecompose(A).values[0] == pytest.approx(4.2186, abs=2e-3)
