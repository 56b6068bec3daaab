import hashlib
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import _oracles
import okr
from okr import dataio, kernels

from _oracles import fit_dense, random_psd


class TestDense:
    def test_roundtrip(self, tmp_path):
        M = np.array([[1.5, -2.0], [0.25, 1e-9], [3.0, 4.0]])
        p = tmp_path / "m.csv"
        dataio.save_dense(p, M)
        np.testing.assert_array_equal(dataio.load_dense(p), M)

    def test_header_shape(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#3,2\n1,2\n3,4\n5,6\n")
        assert dataio.load_dense(p).shape == (3, 2)

    def test_wrong_row_count(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#3,2\n1,2\n3,4\n")
        with pytest.raises(dataio.DataError, match="expected 3 data rows"):
            dataio.load_dense(p)

    def test_bad_value_reports_line(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#2,2\n1,2\n3,oops\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:3"):
            dataio.load_dense(p)

    def test_bad_value_after_blank_line_reports_its_line(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("#3,2\n1.0,2.0\n\n3.0,4.0\n5.0,x\n")
        with pytest.raises(dataio.DataError, match=r"bad\.csv:5: non-numeric value in '5.0,x'"):
            dataio.load_dense(p)

    def test_missing_header(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("1,2\n3,4\n")
        with pytest.raises(dataio.DataError, match="header"):
            dataio.load_dense(p)

    def test_non_utf8_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_bytes(b"#1,2\n1,\xff\xfe\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv: not UTF-8"):
            dataio.load_dense(p)

    def test_negative_dimension(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#1,-2\n1,2\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:1: negative dimension"):
            dataio.load_dense(p)

    @pytest.mark.parametrize("header", ["#2,99999999999999999999", "#0,99999999999999999999",
                                        "#99999999999999999999,1"])
    def test_dimension_beyond_int64(self, tmp_path, header):
        p = tmp_path / "m.csv"
        p.write_text(f"{header}\n1\n2\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:1: dimension beyond the int64"):
            dataio.load_dense(p)

    def test_huge_width_checked_before_allocation(self, tmp_path):
        # the header's 1 x 3e12 matrix would need 24 TB
        p = tmp_path / "m.csv"
        p.write_text("#1,3000000000000\n1,2\n")
        with pytest.raises(dataio.DataError, match=r"m\.csv:2: expected 3000000000000 values"):
            dataio.load_dense(p)

    def test_empty_matrix_of_unshapeable_width(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("#0,2305843009213693952\n")
        with pytest.raises(dataio.DataError,
                           match=r"m\.csv:1: a 0 x 2305843009213693952 matrix cannot be"):
            dataio.load_dense(p)


class TestSparse:
    def test_basic_row(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 8\n1:0.5 7:2.0\n")
        row = dataio.load_sparse(p)
        assert row.shape == (1, 8)
        assert row[0, 1] == 0.5 and row[0, 7] == 2.0
        assert np.count_nonzero(row) == 2

    def test_out_of_range_index(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 4\n5:1.0\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_sparse(p)

    def test_duplicate_index(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("#dim 4\n1:1.0 1:2.0\n")
        with pytest.raises(dataio.DataError, match="duplicate"):
            dataio.load_sparse(p)


class TestBitsets:
    def test_roundtrip(self, tmp_path):
        B = np.array([[1, 0, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=float)
        p = tmp_path / "b.txt"
        dataio.save_bitsets(p, B)
        np.testing.assert_array_equal(dataio.load_bitsets(p), B)

    def test_bad_index(self, tmp_path):
        p = tmp_path / "b.txt"
        p.write_text("#dim 3\n0 3\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_bitsets(p)

    @pytest.mark.parametrize("loader", [dataio.load_bitsets, dataio.load_sparse])
    @pytest.mark.parametrize("dim", ["x", "-2", "99999999999999999999"])
    def test_bad_dimension_header(self, tmp_path, loader, dim):
        p = tmp_path / "b.txt"
        p.write_text(f"#dim {dim}\n0\n")
        with pytest.raises(dataio.DataError, match=r"b\.txt:1: bad dimension"):
            loader(p)

    @pytest.mark.parametrize("loader, row", [(dataio.load_bitsets, "0"),
                                             (dataio.load_sparse, "0:1.5")])
    @pytest.mark.parametrize("dim", ["3000000000000", "2305843009213693952"])
    def test_unallocatable_dimension(self, tmp_path, loader, row, dim):
        # 2 rows of 3e12 floats need 48 TB; of 2**61, more bytes than numpy
        # can count
        p = tmp_path / "b.txt"
        p.write_text(f"#dim {dim}\n{row}\n{row}\n")
        with pytest.raises(dataio.DataError,
                           match=rf"b\.txt:1: a 2 x {dim} matrix cannot be allocated"):
            loader(p)


class TestPermutations:
    def test_roundtrip(self, tmp_path):
        P = np.array([[1, 3, 2], [2, 1, 3]])
        p = tmp_path / "p.txt"
        dataio.save_permutations(p, P)
        np.testing.assert_array_equal(dataio.load_permutations(p), P)

    def test_invalid_permutation_reports_line(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("1,2,3\n1,1,3\n")
        with pytest.raises(dataio.DataError, match=r"p\.txt:2"):
            dataio.load_permutations(p)

    def test_error_names_the_file_line_past_blank_lines(self, tmp_path):
        p = tmp_path / "p.txt"
        p.write_text("\n1,2\n\n2,1,3\n")
        with pytest.raises(dataio.DataError, match=r"p\.txt:4: rank count 3"):
            dataio.load_permutations(p)


class TestBinaryMatrix:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 5))
        p = tmp_path / "m.mat"
        dataio.save_matrix_binary(p, M)
        back = dataio.load_matrix_binary(p)
        assert M.tobytes() == back.tobytes()

    def test_magic_checked(self, tmp_path):
        p = tmp_path / "m.mat"
        p.write_bytes(b"NOTMAGIC" + b"\0" * 16)
        with pytest.raises(dataio.DataError, match="magic"):
            dataio.load_matrix_binary(p)

    def test_truncation_detected(self, tmp_path):
        p = tmp_path / "m.mat"
        dataio.save_matrix_binary(p, np.ones((3, 3)))
        p.write_bytes(p.read_bytes()[:-8])
        with pytest.raises(dataio.DataError, match="payload"):
            dataio.load_matrix_binary(p)

    @pytest.mark.parametrize("rows, cols", [(2 ** 61, 8), (8, 2 ** 61), (2 ** 62, 2 ** 62)])
    def test_header_product_does_not_wrap(self, tmp_path, rows, cols):
        # 24 + rows * cols * 8 wraps to 24 in uint64, the header-only size
        p = tmp_path / "m.mat"
        p.write_bytes(dataio.MAGIC + np.array([rows, cols], dtype="<u8").tobytes())
        with pytest.raises(dataio.DataError, match="payload is 24 bytes"):
            dataio.load_matrix_binary(p)

    @pytest.mark.parametrize("rows, cols", [(0, 2 ** 63), (2 ** 63 - 1, 0)])
    def test_empty_matrix_of_unshapeable_size(self, tmp_path, rows, cols):
        p = tmp_path / "m.mat"
        p.write_bytes(dataio.MAGIC + np.array([rows, cols], dtype="<u8").tobytes())
        with pytest.raises(dataio.DataError, match=f"cannot shape a {rows}x{cols} matrix"):
            dataio.load_matrix_binary(p)

    def test_gram_symmetry_enforced(self, tmp_path):
        p = tmp_path / "g.mat"
        dataio.save_matrix_binary(p, np.array([[1.0, 0.2], [0.5, 1.0]]))
        with pytest.raises(dataio.DataError, match="not symmetric"):
            dataio.load_gram(p)


class TestRankings:
    def test_roundtrip(self, tmp_path):
        ids = np.array([[3, 1], [0, -1]])
        scores = np.array([[-0.5, 2.0], [1.25, np.nan]])
        p = tmp_path / "r.tsv"
        dataio.save_rankings(p, ids, scores)
        assert p.read_text() == "0\t3:-0.5\t1:2\n1\t0:1.25\n"
        back_ids, back_scores = dataio.load_rankings(p)
        np.testing.assert_array_equal(back_ids, ids)
        np.testing.assert_allclose(back_scores, scores)

    def test_six_significant_digits(self, tmp_path):
        p = tmp_path / "r.tsv"
        dataio.save_rankings(p, np.array([[0]]), np.array([[1.23456789]]))
        assert p.read_text() == "0\t0:1.23457\n"


# Text the C parse and float() or int() may read differently: signs, bare
# dots, exponents, case, underscores, leading zeros, non-ASCII digits and
# spaces; every entry is one float() takes.
FLOAT_SPELLINGS = ["+1", ".5", "1.", "-.5e-3", "1e5", "1E+5", "1e999", "NaN", "nan", "-nan",
                   "inf", "-Infinity", "+INF", "1_0", "1_000.5", "-0.0", "007", "\u0661\u0662",
                   "2.5\u0663"]
BLANK_LINES = st.lists(st.sampled_from(["", " ", "\t", "\xa0"]), max_size=2)


def _padded(core, tabs=True):
    """core with whitespace around it; tabs=False for tab-separated fields."""
    pad = st.sampled_from(["", " ", "  ", "\xa0", "\u3000"] + ["\t"] * tabs)
    return st.tuples(pad, core, pad).map("".join)


def _float_spelling():
    return st.one_of(st.floats().map(repr), st.sampled_from(FLOAT_SPELLINGS))


def _float_text(tabs=True):
    return _padded(_float_spelling(), tabs)


def _int_spelling(value):
    sign, digits = "-" if value < 0 else "", str(abs(value))
    arabic = "".join(chr(0x660 + int(d)) for d in digits)
    return st.sampled_from([sign + digits, (sign or "+") + digits, f"{sign}00{digits}",
                            f"{sign}0_{digits}", sign + arabic])


def _int_text(value, tabs=True):
    return _padded(_int_spelling(value), tabs)


@st.composite
def _dense_text(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 4))
    lines = [f"#{rows},{cols}"]
    for _ in range(rows):
        lines += draw(BLANK_LINES)
        lines.append(",".join(draw(_float_text()) for _ in range(cols)))
    return lines + draw(BLANK_LINES)


@st.composite
def _index_text(draw):
    lines = []
    for value in draw(st.lists(st.integers(-5, 10**12), min_size=1, max_size=6)):
        lines += draw(BLANK_LINES)
        lines.append(draw(_int_text(value)))
    return lines + draw(BLANK_LINES)


@st.composite
def _rankings_text(draw, bounds=(None, 31, 10**6)):
    """The lines of a rankings file, equal-width or ragged rows of candidate
    ids in [0, 30], and an n_candidates drawn from bounds (None when a row
    ranks no candidate)."""
    width, ragged = draw(st.integers(0, 4)), draw(st.booleans())
    lines, widths = [], []
    for qid in range(draw(st.integers(1, 5))):
        widths.append(draw(st.integers(0, width)) if ragged else width)
        pairs = [f"{draw(_int_text(draw(st.integers(0, 30)), False))}:"
                 f"{draw(_float_text(False))}" for _ in range(widths[-1])]
        lines += draw(BLANK_LINES)
        lines.append("\t".join([draw(_int_text(qid, False)), *pairs]))
    n_candidates = draw(st.sampled_from(bounds)) if min(widths) else None
    return lines + draw(BLANK_LINES), n_candidates


# integers int() reads and an int64 array cannot hold
BEYOND_INT64 = ["99999999999999999999", "-99999999999999999999", "9223372036854775808",
                "-9223372036854775809"]
# a '#dim D' header's D spelled beyond int64, negative or not as an integer
BAD_DIMS = BEYOND_INT64 + ["-1", "-3", "2.5", "1e3", "x", "", "0x3"]
DENSE_HEADERS = ["#", "#2", "#2,2", "#-1,3", "#1,x", "#0,0", "# 3 , 2", "#1,1"]
DIM_HEADERS = ["#dim", "#dim 0", "#dim 3", "#dim 3 3", "#3", "# dim 3", "#Dim 3",
               *(f"#dim {d}" for d in BAD_DIMS)]


@st.composite
def _dim_text(draw, bitsets):
    """The lines of a '#dim D' file, bitsets or sparse rows, with D in [0, 6]
    or spelled from BAD_DIMS, and the matrix the loader must return (None
    when it must reject line 1: a bad D, or no data rows)."""
    dim, bad = draw(st.integers(0, 6)), draw(st.one_of(st.none(), st.sampled_from(BAD_DIMS)))
    lines, rows = [f"#dim {draw(_int_text(dim)) if bad is None else bad}"], []
    for _ in range(draw(st.integers(0, 4))):
        row, toks = np.zeros(dim), []
        for i in draw(st.lists(st.integers(0, max(dim - 1, 0)), unique=True, max_size=dim)):
            if bitsets:
                row[i] = 1.0
                toks.append(draw(_int_spelling(i)))
            else:
                value = draw(_float_spelling())
                row[i] = float(value)
                toks.append(f"{draw(_int_spelling(i))}:{value}")
        lines.append(draw(st.sampled_from([" ", "\t", "  \u3000"])).join(toks))
        rows.append(row)
    return lines, None if bad is not None or not rows else np.vstack(rows)


@st.composite
def _permutation_text(draw):
    """The lines of a permutations file, rows of one size K in [1, 5], and the
    matrix they hold."""
    size, lines, rows = draw(st.integers(1, 5)), [], []
    for _ in range(draw(st.integers(1, 4))):
        rows.append(draw(st.permutations(range(1, size + 1))))
        lines += draw(BLANK_LINES)
        lines.append(",".join(draw(_int_text(r)) for r in rows[-1]))
    return lines + draw(BLANK_LINES), np.array(rows, dtype=np.int64)


@st.composite
def _mutated(draw, lines, sep, numbers=(), headers=DENSE_HEADERS):
    """lines with one to three faults, each at a drawn line and column: an
    inserted separator, sign, dot, space, '#', letter or one of numbers, a
    separator swapped for another, a dropped field, a dropped or repeated line,
    a truncation, or a header line drawn from headers."""
    lines = list(lines)
    for _ in range(draw(st.integers(1, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        line = lines[row]
        at = draw(st.integers(0, len(line)))
        kind = draw(st.sampled_from(["insert", "swap", "drop", "drop line", "repeat line",
                                     "truncate", "header"]))
        if kind == "insert":
            lines[row] = line[:at] + draw(st.sampled_from([*",\t:#xe_-. ", *numbers])) + line[at:]
        elif kind == "swap" and any(ch in ",\t:" for ch in line):
            at = draw(st.sampled_from([i for i, ch in enumerate(line) if ch in ",\t:"]))
            other = draw(st.sampled_from([ch for ch in ",\t:" if ch != line[at]]))
            lines[row] = line[:at] + other + line[at + 1:]
        elif kind == "drop":
            fields = line.split(sep)
            del fields[draw(st.integers(0, len(fields) - 1))]
            lines[row] = sep.join(fields)
        elif kind == "drop line" and len(lines) > 1:
            del lines[row]
        elif kind == "repeat line":
            lines.insert(row, line)
        elif kind == "truncate":
            lines = lines[:row] + [line[:at]]
        elif kind == "header":
            header = draw(st.sampled_from(headers))
            lines = [header] + lines[1 if lines[0].startswith("#") else 0:]
    return "\n".join(lines)


def _assert_matches_oracle(path, load, oracle, *args):
    """load returns the oracle's arrays bit for bit, or raises the DataError
    the oracle raises (so with its path:line); no other exception escapes."""
    try:
        want = oracle(path, *args)
    except dataio.DataError as exc:
        with pytest.raises(dataio.DataError) as got:
            load(path, *args)
        assert str(got.value) == str(exc)
        return
    got = load(path, *args)
    for g, w in zip(got, want) if isinstance(want, tuple) else [(got, want)]:
        assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())


FUZZ = settings(max_examples=300, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


class TestTextLoadersMatchLineLoops:
    # the loaders against the line loops of _oracles: the C parse may take
    # only files the loops take, and must read them to the same bits

    @staticmethod
    def _write(tmp_path, text, newline="\n"):
        path = tmp_path / "f.txt"
        path.write_bytes(text.replace("\n", newline).encode("utf-8"))
        return path

    @FUZZ
    @given(lines=_dense_text(), newline=st.sampled_from(["\n", "\r\n"]))
    def test_valid_dense(self, tmp_path, lines, newline):
        path = self._write(tmp_path, "\n".join(lines) + "\n", newline)
        _oracles.load_dense(path)
        _assert_matches_oracle(path, dataio.load_dense, _oracles.load_dense)

    @FUZZ
    @given(data=st.data())
    def test_mutated_dense(self, tmp_path, data):
        text = data.draw(_mutated(data.draw(_dense_text()), ","))
        path = self._write(tmp_path, text)
        _assert_matches_oracle(path, dataio.load_dense, _oracles.load_dense)

    @FUZZ
    @given(lines=_index_text())
    def test_valid_index_vector(self, tmp_path, lines):
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        _oracles.load_index_vector(path)
        _assert_matches_oracle(path, dataio.load_index_vector, _oracles.load_index_vector)

    @FUZZ
    @given(data=st.data())
    def test_mutated_index_vector(self, tmp_path, data):
        text = data.draw(_mutated(data.draw(_index_text()), ","))
        path = self._write(tmp_path, text)
        _assert_matches_oracle(path, dataio.load_index_vector, _oracles.load_index_vector)

    @FUZZ
    @given(case=_rankings_text())
    def test_valid_rankings(self, tmp_path, case):
        lines, n_candidates = case
        path = self._write(tmp_path, "\n".join(lines) + "\n")
        _oracles.load_rankings(path, n_candidates)
        _assert_matches_oracle(path, dataio.load_rankings, _oracles.load_rankings,
                               n_candidates)

    @FUZZ
    @given(data=st.data())
    def test_mutated_rankings(self, tmp_path, data):
        lines, n_candidates = data.draw(_rankings_text((None, 1, 10, 31)))
        path = self._write(tmp_path, data.draw(_mutated(lines, "\t")))
        _assert_matches_oracle(path, dataio.load_rankings, _oracles.load_rankings,
                               n_candidates)

    # files one step from valid whose fields the C parse could read, were it
    # not for a check of the loader: a field with two colons beside one with
    # none, a colon in a query id, an empty id beside a space, a skipped
    # query id, an id past n_candidates, a '#' after a value, every row one
    # value short of the header, an integer field with a fraction, and an
    # integer beyond int64
    @pytest.mark.parametrize("text, load, oracle, args", [
        ("0\t1:2\t3:4\n1\t5:6:7:8\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("0\t1:2\t3:4\n1:2\t3\t4:5\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("0\t1:2\t3:4\n1\t:5 6\t7:8\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("0\t1:2\n2\t3:4\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("0\t1:2\n1\t3:4\n", dataio.load_rankings, _oracles.load_rankings, (3,)),
        ("0\t1:2\n1\t-3:4\n", dataio.load_rankings, _oracles.load_rankings, (5,)),
        ("#2,1\n1.0#\n2.0\n", dataio.load_dense, _oracles.load_dense, ()),
        ("#1,2\n1.0\n", dataio.load_dense, _oracles.load_dense, ()),
        ("1\n2#\n", dataio.load_index_vector, _oracles.load_index_vector, ()),
        ("1\n2.5\n", dataio.load_index_vector, _oracles.load_index_vector, ()),
        ("0\t1:2\n1\t2.5:3\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("0\t1:2\n1.5\t2:3\n", dataio.load_rankings, _oracles.load_rankings, ()),
        ("1\n99999999999999999999\n", dataio.load_index_vector, _oracles.load_index_vector,
         ()),
        ("1\n-99999999999999999999\n", dataio.load_index_vector,
         _oracles.load_index_vector, ()),
        ("0\t1:2\n1\t99999999999999999999:3\n", dataio.load_rankings,
         _oracles.load_rankings, ()),
    ], ids=["two_colons", "colon_in_qid", "empty_id", "skipped_qid", "id_past_n",
            "negative_id", "dense_hash", "dense_short_row", "index_hash", "index_fraction",
            "id_fraction", "qid_fraction", "index_beyond_int64", "index_below_int64",
            "id_beyond_int64"])
    def test_near_misses(self, tmp_path, text, load, oracle, args):
        path = self._write(tmp_path, text)
        with pytest.raises(dataio.DataError, match=r"f\.txt:2: "):
            oracle(path, *args)
        _assert_matches_oracle(path, load, oracle, *args)

    @pytest.mark.parametrize("text, load, oracle", [
        ("1\n2.5\n", dataio.load_index_vector, _oracles.load_index_vector),
        ("0\t1:2\n1\t2.5:3\n", dataio.load_rankings, _oracles.load_rankings),
    ], ids=["index", "rankings"])
    def test_integer_read_through_a_float_is_rejected(self, tmp_path, monkeypatch, text,
                                                       load, oracle):
        # numpy releases before the deprecation expired read the integer
        # field "2.5" as 2 and only warn; a loadtxt that does so stands in here
        loadtxt = np.loadtxt

        def truncating(lines, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.",
                          DeprecationWarning, stacklevel=2)
            return loadtxt([ln.replace("2.5", "2") for ln in lines], **kwargs)

        path = self._write(tmp_path, text)
        monkeypatch.setattr(np, "loadtxt", truncating)
        with pytest.raises(dataio.DataError, match=r"f\.txt:2: "):
            load(path)
        _assert_matches_oracle(path, load, oracle)

    def test_valid_files_never_reach_the_line_loops(self, tmp_path, monkeypatch):
        # the C parse reads valid files whole, so a silent fall back to the
        # line loops cannot lose its speed while the tests above stay green
        rng = np.random.default_rng(4)
        M = rng.standard_normal((10_000, 3)) * 10.0 ** rng.integers(-300, 300, (10_000, 3))
        M[::97, 0], M[::89, 1], M[::83, 2] = np.nan, -np.inf, -0.0
        dataio.save_dense(tmp_path / "m.csv", M)
        ids = np.stack([rng.permutation(5000)[:10] for _ in range(2000)])
        dataio.save_rankings(tmp_path / "r.tsv", ids, rng.standard_normal(ids.shape))
        (tmp_path / "t.txt").write_text("".join(f"{i}\n" for i in ids[:, 0]))
        cases = [("m.csv", dataio.load_dense, _oracles.load_dense, ()),
                 ("r.tsv", dataio.load_rankings, _oracles.load_rankings, (5000,)),
                 ("t.txt", dataio.load_index_vector, _oracles.load_index_vector, ())]
        def reached(path, *_):
            pytest.fail(f"{path} reached a line loop")

        for name in ("_dense_by_line", "_rankings_by_line", "_indices_by_line"):
            monkeypatch.setattr(dataio, name, reached)
        for name, load, oracle, args in cases:
            _assert_matches_oracle(tmp_path / name, load, oracle, *args)
        np.testing.assert_array_equal(dataio.load_dense(tmp_path / "m.csv"), M)


def _assert_reads(path, load, want):
    """load returns want bit for bit, or for want None raises a DataError
    naming path:1."""
    if want is None:
        with pytest.raises(dataio.DataError, match=rf"^{re.escape(str(path))}:1: "):
            load(path)
        return
    got = load(path)
    assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def _assert_parses_or_names_line(path, load):
    """load returns, or raises a DataError naming path:line; no other
    exception escapes."""
    try:
        load(path)
    except dataio.DataError as exc:
        assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", str(exc)), str(exc)


def _allocates_no_huge_row(text):
    """Whether every integer in the first line is small or beyond int64. A
    '#dim D' header with D in between makes the loaders allocate D floats per
    row, which may succeed at a size no test should take, so such files are
    not drawn."""
    header = text.split("\n", 1)[0]
    return all(int(run) <= 1000 or not dataio._in_int64(int(run))
               for run in re.findall(r"\d+(?:_\d+)*", header))


class TestLineLoadersFuzzed:
    # load_sparse, load_bitsets and load_permutations have only line loops:
    # a valid file reads to the matrix it holds, and a mutated one parses or
    # raises DataError naming its file:line

    @staticmethod
    def _write(tmp_path, text):
        path = tmp_path / "f.txt"
        path.write_bytes(text.encode("utf-8"))
        return path

    @FUZZ
    @given(case=_dim_text(bitsets=False))
    def test_valid_sparse(self, tmp_path, case):
        lines, want = case
        _assert_reads(self._write(tmp_path, "\n".join(lines) + "\n"), dataio.load_sparse, want)

    @FUZZ
    @given(case=_dim_text(bitsets=True))
    def test_valid_bitsets(self, tmp_path, case):
        lines, want = case
        _assert_reads(self._write(tmp_path, "\n".join(lines) + "\n"), dataio.load_bitsets,
                      want)

    @FUZZ
    @given(case=_permutation_text())
    def test_valid_permutations(self, tmp_path, case):
        lines, want = case
        _assert_reads(self._write(tmp_path, "\n".join(lines) + "\n"),
                      dataio.load_permutations, want)

    @FUZZ
    @given(data=st.data(), bitsets=st.booleans())
    def test_mutated_dim_files(self, tmp_path, data, bitsets):
        lines, _ = data.draw(_dim_text(bitsets))
        text = data.draw(_mutated(lines, " ", BEYOND_INT64, DIM_HEADERS))
        assume(_allocates_no_huge_row(text))
        load = dataio.load_bitsets if bitsets else dataio.load_sparse
        _assert_parses_or_names_line(self._write(tmp_path, text), load)

    @FUZZ
    @given(data=st.data())
    def test_mutated_permutations(self, tmp_path, data):
        lines, _ = data.draw(_permutation_text())
        text = data.draw(_mutated(lines, ",", BEYOND_INT64))
        _assert_parses_or_names_line(self._write(tmp_path, text), dataio.load_permutations)


@st.composite
def _candidate_map_text(draw):
    """The lines of a candidate map over queries 0..Q-1, its pairs in drawn
    order, and the per-query candidate lists it holds."""
    lists = draw(st.lists(st.lists(st.integers(0, 10**12), min_size=1, max_size=3),
                          min_size=1, max_size=4))
    pairs = draw(st.permutations([(q, c) for q, cids in enumerate(lists) for c in cids]))
    lines = []
    for q, c in pairs:
        lines += draw(BLANK_LINES)
        lines.append(draw(_int_text(q)) + draw(st.sampled_from([" ", "\t", "  "]))
                     + draw(_int_text(c)))
    want = [np.array([c for p, c in pairs if p == q], dtype=np.int64) for q in range(len(lists))]
    return lines + draw(BLANK_LINES), want


# manifest lines for _mutated's "header" fault: values beyond int64, empty
# or unknown matrix names, a missing separator, a forged digest
MANIFEST_LINES = ["bundle_version = 99999999999999999999", "matrix_names = a,a",
                  "matrix_names = ", "matrix_names = ,", "matrix_names = c", "sha256.a = ",
                  "manifest_sha256 = 0", "no separator"]
# manifest values: fractional, signed, non-finite, empty, words, other modes
MANIFEST_VALUES = ["3.5", "-1", "0", "1", "2", "1e3", "nan", "inf", "", "abc", "exact",
                   "nystrom", "gram", "features", "gaussian", *BEYOND_INT64]
# .mat header dimensions: small, the 2**61 x 8 whose byte count wraps uint64
# to the header's, and the uint64 values past int64
MAT_DIMS = [0, 1, 2, 3, 6, 8, 2 ** 61, 2 ** 62, 2 ** 63 - 1, 2 ** 63, 2 ** 64 - 1]


def _resigned(lines):
    """Manifest lines with the digest line load_model checks recomputed, so
    a fault reaches the parse behind it."""
    body = [ln for ln in lines if ln.strip() and not ln.startswith("manifest_sha256 = ")]
    return body + [f"manifest_sha256 = {dataio._manifest_digest(body)}"]


def _assert_parses_or_names_file(path, load, *args):
    """load returns, or raises a DataError naming path (and a line where the
    fault has one); no other exception escapes."""
    try:
        load(path, *args)
    except dataio.DataError as exc:
        assert str(exc).startswith(str(path)), str(exc)


class TestMoreLoadersFuzzed:
    # load_candidate_map and a bundle directory (manifest lines, .mat
    # headers): a valid input reads back, and a mutated one parses or raises
    # DataError

    @FUZZ
    @given(case=_candidate_map_text())
    def test_valid_candidate_map(self, tmp_path, case):
        lines, want = case
        path = tmp_path / "map.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = dataio.load_candidate_map(path)
        assert [(g.dtype, g.tobytes()) for g in got] == [(w.dtype, w.tobytes()) for w in want]

    @FUZZ
    @given(data=st.data(), n_candidates=st.sampled_from([None, 5, 10**12]))
    def test_mutated_candidate_map(self, tmp_path, data, n_candidates):
        lines, _ = data.draw(_candidate_map_text())
        path = tmp_path / "map.txt"
        path.write_text(data.draw(_mutated(lines, " ", BEYOND_INT64)), encoding="utf-8")
        _assert_parses_or_names_file(path, dataio.load_candidate_map, n_candidates)

    @FUZZ
    @given(data=st.data())
    def test_mutated_bundle(self, tmp_path, data):
        d = tmp_path / "model"
        mats = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones((1, 1))}
        dataio.save_model(dataio.ModelBundle({"krr.mode": "exact", "krr.n": "2"}, mats), d)
        lines = (d / "manifest.txt").read_text(encoding="utf-8").splitlines()
        if data.draw(st.booleans()):
            # drawn .mat dimensions over a drawn payload, checksums recorded
            name = data.draw(st.sampled_from(sorted(mats)))
            dims = [data.draw(st.sampled_from(MAT_DIMS)) for _ in range(2)]
            payload = (d / f"{name}.mat").read_bytes()[24:][:data.draw(st.sampled_from([0, 8, 48]))]
            raw = dataio.MAGIC + np.array(dims, dtype="<u8").tobytes() + payload
            (d / f"{name}.mat").write_bytes(raw)
            key = f"sha256.{name} = "
            lines = _resigned([key + hashlib.sha256(raw).hexdigest() if ln.startswith(key)
                               else ln for ln in lines])
        else:
            lines = data.draw(_mutated(lines, " ", BEYOND_INT64, MANIFEST_LINES)).split("\n")
            if data.draw(st.booleans()):
                lines = _resigned(lines)
        (d / "manifest.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
        _assert_parses_or_names_file(d, dataio.load_model)

    @pytest.fixture(scope="class")
    def bundles(self):
        """Embedded and regression-only bundles of exact and Nystrom ridge
        models."""
        fits = [TestModelPersistence()._fit_models(nystrom=nystrom)[:2]
                for nystrom in (False, True)]
        return ([dataio.bundle_from_models(*models) for models in fits]
                + [dataio.bundle_from_models(krr_model) for krr_model, _ in fits])

    @FUZZ
    @given(data=st.data())
    def test_mutated_manifest_values(self, tmp_path, bundles, data):
        # a re-signed manifest whose values were edited or dropped: the
        # models rebuild, or DataError names the manifest
        bundle = data.draw(st.sampled_from(bundles))
        d = tmp_path / f"model{data.draw(st.integers(0, 2 ** 32))}"
        dataio.save_model(bundle, d)
        lines = [ln for ln in (d / "manifest.txt").read_text(encoding="utf-8").splitlines()
                 if not ln.startswith("manifest_sha256 = ")]
        for _ in range(data.draw(st.integers(1, 3))):
            row = data.draw(st.integers(0, len(lines) - 1))
            key = lines[row].split(" = ", 1)[0]
            if data.draw(st.booleans()):
                lines[row] = f"{key} = {data.draw(st.sampled_from(MANIFEST_VALUES))}"
            else:
                del lines[row]
        (d / "manifest.txt").write_text("\n".join(_resigned(lines)) + "\n", encoding="utf-8")
        _assert_parses_or_names_file(
            d, lambda path: dataio.models_from_bundle(dataio.load_model(path)))


class TestCandidateMap:
    def test_basic(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 3\n0 5\n1 2\n")
        lists = dataio.load_candidate_map(p)
        np.testing.assert_array_equal(lists[0], [3, 5])
        np.testing.assert_array_equal(lists[1], [2])

    def test_gap_in_queries_rejected(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 3\n2 1\n")
        with pytest.raises(dataio.DataError, match="query 1"):
            dataio.load_candidate_map(p)

    def test_range_check(self, tmp_path):
        p = tmp_path / "map.txt"
        p.write_text("0 10\n")
        with pytest.raises(dataio.DataError, match="outside"):
            dataio.load_candidate_map(p, n_candidates=4)

    @pytest.mark.parametrize("line", ["0 99999999999999999999", "99999999999999999999 0"])
    def test_id_beyond_int64_rejected(self, tmp_path, line):
        p = tmp_path / "map.txt"
        p.write_text(f"0 1\n{line}\n")
        with pytest.raises(dataio.DataError, match=r"map\.txt:2: ids outside the int64 range"):
            dataio.load_candidate_map(p)


class TestLoadDataset:
    def _write_dense_dataset(self, d):
        dataio.save_dense(d / "x.csv", np.arange(6.0).reshape(3, 2))
        dataio.save_dense(d / "y.csv", np.arange(12.0).reshape(3, 4))
        return {"data.kind": "dense", "data.x": "x.csv", "data.y": "y.csv"}

    def test_minimal(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        ds = dataio.load_dataset(cfg, tmp_path)
        assert ds.n == 3 and ds.m == 0 and ds.output_kind == "dense"

    def test_outputs_shorter_than_inputs_fails_at_load(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "y.csv", np.arange(8.0).reshape(2, 4))
        with pytest.raises(dataio.DataError, match="outputs file has 2 rows"):
            dataio.load_dataset(cfg, tmp_path)

    def test_width_consistency_enforced(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "yu.csv", np.ones((2, 3)))
        cfg["data.y_unsup"] = "yu.csv"
        with pytest.raises(dataio.DataError, match="width"):
            dataio.load_dataset(cfg, tmp_path)

    def test_gram_mode(self, tmp_path):
        rng = np.random.default_rng(1)
        K = random_psd(rng, 4)
        B = rng.standard_normal((4, 2))
        dataio.save_matrix_binary(tmp_path / "k.mat", K)
        dataio.save_matrix_binary(tmp_path / "kt.mat", B)
        dataio.save_dense(tmp_path / "y.csv", rng.standard_normal((4, 3)))
        cfg = {"data.kind": "dense", "data.x_format": "gram", "data.x": "k.mat",
               "data.x_test": "kt.mat", "data.y": "y.csv"}
        ds = dataio.load_dataset(cfg, tmp_path)
        np.testing.assert_array_equal(ds.x, K)      # values preserved exactly
        assert ds.n_test == 2

    def test_candidates_default_to_train_plus_unsup(self, tmp_path):
        cfg = self._write_dense_dataset(tmp_path)
        dataio.save_dense(tmp_path / "yu.csv", np.ones((2, 4)))
        cfg["data.y_unsup"] = "yu.csv"
        ds = dataio.load_dataset(cfg, tmp_path)
        assert ds.candidate_outputs().shape == (5, 4)


class TestSynthRemark1:
    def test_deterministic(self):
        a = dataio.synth_remark1(20, 10, 5, 1.0, 4.0, seed=3)
        b = dataio.synth_remark1(20, 10, 5, 1.0, 4.0, seed=3)
        np.testing.assert_array_equal(a.y_sup, b.y_sup)
        np.testing.assert_array_equal(a.y_unsup, b.y_unsup)

    def test_first_output_coordinate_is_input(self):
        ds = dataio.synth_remark1(15, 0, 4, 1.0, 4.0, seed=0)
        np.testing.assert_array_equal(ds.x[:, 0], ds.y_sup[:, 0])

    def test_z_variance_concentration(self):
        # chi-square concentration: sample variance of z within +-0.5 of 4.0
        ds = dataio.synth_remark1(1000, 0, 1, 1.0, 4.0, seed=7)
        assert 3.5 <= np.var(ds.y_sup[:, 1]) <= 4.5

    def test_nonpositive_variance_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            dataio.synth_remark1(5, 0, 1, 0.0, 1.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dataio.synth_remark1(5, 0, 1, 1.0, -0.5)

    def test_zero_noise_edge_degenerates_to_line(self):
        # sigma2_z = 0: outputs lie on the x axis; kernel PCA of the pool
        # (c=0, p=1) recovers exactly that axis
        with pytest.warns(UserWarning, match="regime"):
            ds = dataio.synth_remark1(20, 15, 2, 1.0, 0.0, seed=4)
        np.testing.assert_array_equal(ds.y_sup[:, 1], np.zeros(20))
        lin = kernels.KernelSpec("linear")
        K_x = kernels.gram(lin, ds.x)
        krr_model = okr.fit_krr(K_x, 1e-3)
        A = okr.predict_alpha(krr_model, K_x)
        model = fit_dense(krr_model, A, okr.OutputSet(lin, ds.y_sup, ds.y_unsup), 1, 0.0)
        axis = (model.scale_unsup * ds.y_unsup.T) @ model.beta[20:]
        axis = axis[:, 0] / np.linalg.norm(axis[:, 0])
        np.testing.assert_allclose(np.abs(axis), [1.0, 0.0], atol=1e-10)

    def test_warns_outside_regime(self):
        with pytest.warns(UserWarning, match="regime"):
            dataio.synth_remark1(5, 0, 1, 2.0, 1.0, seed=0)

    def test_truth_index_points_at_test_outputs(self):
        ds = dataio.synth_remark1(6, 3, 2, 1.0, 4.0, seed=1)
        np.testing.assert_array_equal(ds.candidates[ds.truth_index], ds.y_test)

    def test_save_dataset_roundtrip(self, tmp_path):
        ds = dataio.synth_remark1(8, 4, 3, 1.0, 4.0, seed=2)
        cfg_path = dataio.save_dataset(ds, tmp_path / "data")
        from okr.config import parse_config_file
        back = dataio.load_dataset(parse_config_file(cfg_path), cfg_path.parent)
        np.testing.assert_array_equal(back.y_sup, ds.y_sup)
        np.testing.assert_array_equal(back.truth_index, ds.truth_index)


class TestSplit:
    def test_kfold_disjoint_cover(self):
        parts = dataio.split(10, dataio.KFold(5), seed=0)
        assert len(parts) == 5
        all_val = np.concatenate([v for _, v in parts])
        assert sorted(all_val.tolist()) == list(range(10))
        for tr, va in parts:
            assert va.size == 2 and tr.size == 8
            assert not set(tr) & set(va)

    def test_holdout_8_2(self):
        (tr, va), = dataio.split(10, dataio.Holdout(0.8), seed=1)
        assert tr.size == 8 and va.size == 2

    def test_repeated_subsample_determinism(self):
        a = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=5)
        b = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=5)
        c = dataio.split(30, dataio.RepeatedSubsample(0.8, 5), seed=6)
        for (t1, v1), (t2, v2) in zip(a, b):
            np.testing.assert_array_equal(t1, t2)
            np.testing.assert_array_equal(v1, v2)
        assert any(not np.array_equal(v1, v2) for (_, v1), (_, v2) in zip(a, c))

    def test_fold_larger_than_n(self):
        with pytest.raises(ValueError, match="k-fold"):
            dataio.split(3, dataio.KFold(5), seed=0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(4, 60), st.integers(2, 6), st.integers(0, 2 ** 31 - 1))
    def test_kfold_property(self, n, k, seed):
        if k > n:
            k = n
        parts = dataio.split(n, dataio.KFold(k), seed=seed)
        union = np.sort(np.concatenate([v for _, v in parts]))
        np.testing.assert_array_equal(union, np.arange(n))


class TestNamedSeed:
    def test_stable_and_distinct(self):
        assert dataio.named_seed(7, "anchors") == dataio.named_seed(7, "anchors")
        assert dataio.named_seed(7, "anchors") != dataio.named_seed(7, "sketch")
        assert dataio.named_seed(7, "anchors") != dataio.named_seed(8, "anchors")


class TestModelPersistence:
    def _fit_models(self, seed=0, nystrom=False):
        rng = np.random.default_rng(seed)
        n, m, d = 12, 6, 4
        X = rng.standard_normal((n, 3))
        Y = rng.standard_normal((n, d))
        Yu = rng.standard_normal((m, d))
        spec = kernels.KernelSpec("gaussian", sigma2=2.0)
        K_x = kernels.gram(spec, X)
        if nystrom:
            anchors = okr.select_anchors(n, 5, seed=1)
            krr_model = okr.fit_krr_nystrom(K_x[:, anchors],
                                            K_x[np.ix_(anchors, anchors)], 0.1, anchors)
            A = okr.predict_alpha(krr_model, K_x[anchors, :])
        else:
            krr_model = okr.fit_krr(K_x, 0.1)
            A = okr.predict_alpha(krr_model, K_x)
        oel_model = fit_dense(krr_model, A, okr.OutputSet(kernels.KernelSpec("linear"), Y, Yu),
                              3, 0.5)
        return krr_model, oel_model, K_x, Y, Yu

    @pytest.mark.parametrize("nystrom", [False, True])
    def test_roundtrip_predictions_bitwise(self, tmp_path, nystrom):
        krr_model, oel_model, K_x, Y, Yu = self._fit_models(nystrom=nystrom)
        bundle = dataio.bundle_from_models(krr_model, oel_model)
        dataio.save_model(bundle, tmp_path / "model")
        loaded = dataio.load_model(tmp_path / "model")
        _, oel2 = dataio.models_from_bundle(loaded)
        kappa = K_x[:, :3] if not nystrom else K_x[krr_model.anchors, :3]

        # the embedded bundle stores the fitted test readout as it is
        assert oel2.T_x.tobytes() == oel_model.T_x.tobytes()
        assert (okr.embed_inputs(oel2, kappa).tobytes()
                == okr.embed_inputs(oel_model, kappa).tobytes())

        # the regression-only bundle keeps the solve state
        dataio.save_model(dataio.bundle_from_models(krr_model), tmp_path / "iokr")
        krr3, _ = dataio.models_from_bundle(dataio.load_model(tmp_path / "iokr"))
        a1 = okr.predict_alpha(krr_model, kappa)
        assert a1.tobytes() == okr.predict_alpha(krr3, kappa).tobytes()

        rng = np.random.default_rng(9)
        cands = rng.standard_normal((5, Y.shape[1]))
        C = np.vstack([Y, Yu]) @ cands.T
        c1 = okr.embed_candidates(oel_model, C)
        c2 = okr.embed_candidates(oel2, C)
        assert c1.tobytes() == c2.tobytes()

    @pytest.mark.parametrize("nystrom", [False, True], ids=["exact", "nystrom"])
    @pytest.mark.parametrize("method", ["exact", "randomized"], ids=["factored", "dense"])
    def test_fitted_and_loaded_models_embed_inputs_alike(self, tmp_path, method, nystrom):
        # both paths of fit_embedding give a model with its test readout T_x,
        # and the model rebuilt from its bundle embeds test inputs to the
        # same bytes (the output factor has rank 80 of 400 here)
        ds = dataio.synth_remark1(200, 200, 7, 1.0, 4.0, seed=3)
        gx = kernels.KernelSpec("gaussian", sigma2=1.0)
        K_x = kernels.gram(gx, ds.x)
        if nystrom:
            anchors = okr.select_anchors(200, 50, seed=2)
            K_cols = K_x[:, anchors]
            krr_model = okr.fit_krr_nystrom(K_cols, K_x[np.ix_(anchors, anchors)], 1e-3,
                                            anchors)
            kappa = kernels.gram(gx, ds.x[anchors], ds.x_test)
        else:
            K_cols, krr_model = K_x, okr.fit_krr(K_x, 1e-3)
            kappa = kernels.gram(gx, ds.x, ds.x_test)
        outputs = okr.OutputSet(kernels.KernelSpec("gaussian", sigma2=16.0), ds.y_sup,
                                ds.y_unsup)
        model = okr.fit_embedding(krr_model, K_cols, outputs, 4, 0.5, method=method, seed=1)
        assert model.eigensolver.startswith("pivoted_cholesky" if method == "exact"
                                            else "randomized")
        assert model.T_x.shape == (4, krr_model.alpha_rows)
        dataio.save_model(dataio.bundle_from_models(krr_model, model), tmp_path / "model")
        _, loaded = dataio.models_from_bundle(dataio.load_model(tmp_path / "model"))
        assert (okr.embed_inputs(loaded, kappa).tobytes()
                == okr.embed_inputs(model, kappa).tobytes())

    def test_manifest_tamper_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        mpath = tmp_path / "model" / "manifest.txt"
        text = mpath.read_text().replace("oel.p = 3", "oel.p = 2")
        mpath.write_text(text)
        with pytest.raises(dataio.DataError, match="digest mismatch"):
            dataio.load_model(tmp_path / "model")

    def test_matrix_tamper_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        target = tmp_path / "model" / "oel_R.mat"
        blob = bytearray(target.read_bytes())
        blob[-1] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(dataio.DataError, match="checksum mismatch"):
            dataio.load_model(tmp_path / "model")

    def test_missing_matrix_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        (tmp_path / "model" / "oel_mu.mat").unlink()
        with pytest.raises(dataio.DataError, match="missing"):
            dataio.load_model(tmp_path / "model")

    @staticmethod
    def _rewrite_version(model_dir, version):
        """Set the bundle version in a saved manifest, re-signing it."""
        mpath = model_dir / "manifest.txt"
        lines = [ln.replace(f"bundle_version = {dataio.BUNDLE_VERSION}",
                            f"bundle_version = {version}")
                 for ln in mpath.read_text().splitlines()
                 if not ln.startswith("manifest_sha256")]
        lines.append("manifest_sha256 = " + dataio._manifest_digest(lines))
        mpath.write_text("\n".join(lines) + "\n")

    def test_version_mismatch_detected(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "99")
        with pytest.raises(dataio.DataError, match="version"):
            dataio.load_model(tmp_path / "model")

    def test_v1_bundle_rejected(self, tmp_path):
        # a version-1 bundle stored the n x n training state under the old
        # names; it cannot be served and must be refit
        rng = np.random.default_rng(3)
        v1 = dataio.ModelBundle(
            manifest={"krr.mode": "exact"},
            matrices={"oel_alpha_train": rng.standard_normal((4, 4)),
                      "oel_K_y_ss": np.eye(4)})
        dataio.save_model(v1, tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "1")
        with pytest.raises(dataio.DataError, match="bundle version '1' unsupported"):
            dataio.load_model(tmp_path / "model")

    def test_v2_bundle_rejected(self, tmp_path):
        # a version-2 bundle kept separate supervised and unsupervised
        # readouts (oel_R_s, oel_R_u); it must be refit
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "2")
        with pytest.raises(dataio.DataError,
                           match="bundle version '2' unsupported .*refit"):
            dataio.load_model(tmp_path / "model")

    def test_v3_bundle_rejected(self, tmp_path):
        # a version-3 bundle served tests through the ridge factor and the
        # unfolded readout oel_T; it must be refit
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        self._rewrite_version(tmp_path / "model", "3")
        with pytest.raises(dataio.DataError,
                           match="bundle version '3' unsupported .*expected 4.*refit"):
            dataio.load_model(tmp_path / "model")

    def test_embedding_matrices_have_p_rows(self, tmp_path):
        # every stored embedding matrix is a p-row readout (or mu): nothing
        # of size n x n, n x m or (n+m) x p is persisted
        krr_model, oel_model, *_ = self._fit_models()
        dataio.save_model(dataio.bundle_from_models(krr_model, oel_model),
                          tmp_path / "model")
        loaded = dataio.load_model(tmp_path / "model")
        names = [name for name in loaded.matrices if name.startswith("oel_")]
        assert sorted(names) == ["oel_R", "oel_T_x", "oel_mu"]
        for name in names:
            assert loaded.matrices[name].shape[0] == oel_model.p, name

    @pytest.mark.parametrize("nystrom", [False, True])
    def test_only_regression_bundles_keep_ridge_state(self, tmp_path, nystrom):
        krr_model, oel_model, *_ = self._fit_models(nystrom=nystrom)
        embedded = dataio.bundle_from_models(krr_model, oel_model).matrices
        iokr = dataio.bundle_from_models(krr_model).matrices
        state = "krr_dual" if nystrom else "krr_factor"
        assert state in iokr and state not in embedded
        assert not {"krr_factor", "krr_dual"} & embedded.keys()
        assert ("krr_anchors" in embedded) == nystrom
        assert embedded["oel_T_x"].shape == (oel_model.p, krr_model.alpha_rows)

    def test_readout_shape_mismatch_is_data_error(self, tmp_path):
        krr_model, oel_model, *_ = self._fit_models()
        bundle = dataio.bundle_from_models(krr_model, oel_model)
        bundle.matrices["oel_T_x"] = bundle.matrices["oel_T_x"][:, :-1]
        with pytest.raises(dataio.DataError, match="inconsistent with the manifest"):
            dataio.models_from_bundle(bundle)

    def test_stored_bytes_little_endian(self, tmp_path):
        # beta bytes on disk are the little-endian payload regardless of host
        _, oel_model, *_ = self._fit_models()
        p = tmp_path / "beta.mat"
        dataio.save_matrix_binary(p, oel_model.beta)
        payload = p.read_bytes()[24:]
        assert payload == oel_model.beta.astype("<f8").tobytes()
