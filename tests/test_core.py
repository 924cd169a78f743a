import math
import os
import re
import tempfile
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from embedscale import (DIM_LAW, DataError, LawFit, Observation, ObservationTable,
                        expand_sweep, filter_by, parse_observations)
from embedscale.core import _part_lines, read_lines, record

HEADER = "model_name,n_params,embed_dim,dataset,entropy"


class TestParse:
    def test_single_row(self):
        table = parse_observations(HEADER + "\nm,4.39e6,32,ms,0.3547\n")
        row = table.rows[0]
        assert row.model_name == "m"
        assert row.n_params == 4.39e6
        assert row.embed_dim == 32
        assert row.dataset == "ms"
        assert row.entropy == 0.3547

    def test_empty_body(self):
        with pytest.raises(DataError, match="empty table"):
            parse_observations(HEADER + "\n")

    def test_empty_input(self):
        with pytest.raises(DataError, match="empty table"):
            parse_observations("")

    def test_duplicate_key(self):
        text = HEADER + "\nm,1e6,32,ms,0.5\nm,2e6,32,ms,0.4\n"
        with pytest.raises(DataError, match="duplicate"):
            parse_observations(text)

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\n" + HEADER + "\n# another\nm,1e6,32,ms,0.5\n\n"
        assert len(parse_observations(text)) == 1

    def test_bad_header(self):
        with pytest.raises(DataError, match="expected header"):
            parse_observations("a,b,c\nm,1e6,32,ms,0.5\n")

    def test_malformed_row_reports_line_number(self):
        text = HEADER + "\nm,1e6,32,ms,0.5\nm,not_a_number,64,ms,0.4\n"
        with pytest.raises(DataError, match="line 3"):
            parse_observations(text)

    def test_wrong_field_count_reports_line_number(self):
        with pytest.raises(DataError, match="line 2.*fields"):
            parse_observations(HEADER + "\nm,1e6,32,ms\n")

    def test_fixture_counts(self, bert_ms_table, ettin_ms_table):
        assert len(bert_ms_table) == 58
        assert len(bert_ms_table.model_names) == 7
        assert len(ettin_ms_table) == 42
        assert len(ettin_ms_table.model_names) == 6


class TestRecord:
    def test_positional_keyword_and_default_construction(self):
        fit = LawFit(DIM_LAW, (1.0, 0.5, 0.1), 0.9, residual_norm=0.2, n_points=7)
        assert (fit.converged, fit.multistart_index, fit.warnings) == (True, 0, ())
        assert fit == LawFit(model=DIM_LAW, params=(1.0, 0.5, 0.1), r2=0.9,
                             residual_norm=0.2, n_points=7, converged=True)
        assert fit.alpha == 0.5
        with pytest.raises(TypeError):
            LawFit(DIM_LAW, (1.0, 0.5, 0.1), 0.9)

    def test_post_init_validates(self):
        with pytest.raises(DataError, match="delta"):
            LawFit(DIM_LAW, (1.0, 0.5, -0.1), 0.9, 0.2, 7)

    def test_frozen(self):
        row = Observation("m", 1e6, 32, "ms", 0.5)
        with pytest.raises(AttributeError):
            row.entropy = 0.4
        with pytest.raises(AttributeError):
            del row.entropy
        with pytest.raises(AttributeError):
            row.extra = 1
        assert row.entropy == 0.5

    def test_value_semantics(self):
        row = Observation("m", 1e6, 32, "ms", 0.5)
        same = Observation("m", 1e6, 32, "ms", 0.5)
        assert row == same and hash(row) == hash(same) and row is not same
        assert row != Observation("m", 1e6, 32, "ms", 0.4)
        assert row != ("m", 1e6, 32, "ms", 0.5) and not isinstance(row, tuple)
        assert len({row, same}) == 1
        assert repr(row) == ("Observation(model_name='m', n_params=1000000.0, "
                             "embed_dim=32, dataset='ms', entropy=0.5)")
        assert Observation._fields == ("model_name", "n_params", "embed_dim",
                                       "dataset", "entropy")

    def test_default_before_required_field_rejected(self):
        with pytest.raises(TypeError, match="without a default"):
            @record
            class Bad:
                a: int = 0
                b: int


class TestValidation:
    def test_nonpositive_params(self):
        with pytest.raises(DataError, match="n_params"):
            Observation("m", 0.0, 32, "ms", 0.5)

    def test_bad_dim(self):
        with pytest.raises(DataError, match="embed_dim"):
            Observation("m", 1e6, 0, "ms", 0.5)

    def test_negative_entropy(self):
        with pytest.raises(DataError, match="entropy"):
            Observation("m", 1e6, 32, "ms", -0.1)

    def test_non_finite_entropy(self):
        with pytest.raises(DataError, match="entropy"):
            Observation("m", 1e6, 32, "ms", float("nan"))

    def test_empty_table(self):
        with pytest.raises(DataError, match="empty"):
            ObservationTable(())


class TestFilter:
    def test_single_model_series(self, bert_ms_table):
        sub = filter_by(bert_ms_table, model_name="BERT-L8-H512-A8",
                        dataset="msmarco")
        assert len(sub) == 9
        assert sub.model_names == ("BERT-L8-H512-A8",)

    def test_missing_model_is_empty_selection(self, bert_ms_table):
        with pytest.raises(DataError, match="empty selection"):
            filter_by(bert_ms_table, model_name="nope", dataset="msmarco")

    def test_missing_dataset(self, bert_ms_table):
        with pytest.raises(DataError, match="not present"):
            filter_by(bert_ms_table, dataset="nope")
        with pytest.raises(DataError, match="dataset tag is required"):
            filter_by(bert_ms_table, model_name="BERT-L8-H512-A8")

    def test_no_model_constraint_is_identity(self, bert_ms_table):
        sub = filter_by(bert_ms_table, dataset="msmarco")
        assert sub.rows == bert_ms_table.rows

    def test_order_preserved(self, bert_ms_table):
        sub = filter_by(bert_ms_table, model_name="BERT-L2-H768-A12",
                        dataset="msmarco")
        dims = [r.embed_dim for r in sub]
        assert dims == sorted(dims) == [48, 96, 192, 384, 768, 1536, 3072,
                                        6144, 12288]


class TestSweep:
    def test_native_512(self):
        mults = (Fraction(1, 4), Fraction(1, 2), 1, 2, 4, 8, 16)
        assert expand_sweep(512, mults) == [128, 256, 512, 1024, 2048, 4096, 8192]

    def test_sixteenth_of_768(self):
        assert expand_sweep(768, (Fraction(1, 16),)) == [48]

    def test_identity(self):
        assert expand_sweep(1, (1,)) == [1]

    def test_below_one_rejected(self):
        with pytest.raises(DataError, match="< 1"):
            expand_sweep(4, (Fraction(1, 8),))

    @pytest.mark.parametrize("phi, name", [
        pytest.param(math.inf, "inf", id="inf"),
        pytest.param(1e308, "1e+308", id="1e+308"),
        # An exact product is never infinite, and str() of its 5001 digits
        # passes the interpreter's limit, so the message gives its power of ten.
        pytest.param(Fraction(10 ** 5000), "~1e5000", id="10**5000")])
    def test_product_past_the_doubles_rejected(self, phi, name):
        message = f"multiplier {name} of hidden size 512 gives a dimension past"
        with pytest.raises(DataError, match=re.escape(message)):
            expand_sweep(512, [phi])

    def test_product_below_one_of_many_digits_rejected(self):
        message = "multiplier ~1e-5000 of hidden size 512 gives dimension ~1e-4997 < 1"
        with pytest.raises(DataError, match=re.escape(message)):
            expand_sweep(512, [Fraction(1, 10 ** 5000)])

    def test_product_up_to_the_largest_double_accepted(self):
        # Observation accepts an embed_dim up to the largest double, too.
        assert expand_sweep(512, [Fraction(10 ** 40)]) == [512 * 10 ** 40]

    def test_duplicates_collapse(self):
        assert expand_sweep(100, (1, Fraction(2, 2))) == [100]

    def test_config_validation(self):
        with pytest.raises(DataError):
            expand_sweep(0, (1,))
        with pytest.raises(DataError):
            expand_sweep(8, ())
        with pytest.raises(DataError):
            expand_sweep(8, (Fraction(-1, 2),))

    def test_every_sign_checked_before_any_dimension(self):
        # 1/8 of 4 is below 1, but the negative multiplier is reported first.
        with pytest.raises(DataError, match="multipliers must be positive"):
            expand_sweep(4, (Fraction(1, 8), -1))

    def test_float_and_decimal_multipliers_round_to_int(self):
        dims = expand_sweep(10, (0.25, np.float64(0.45), Decimal("0.35")))
        assert dims == [2, 4] and all(type(d) is int for d in dims)

    @given(
        base=st.integers(min_value=1, max_value=4096),
        mults=st.lists(
            st.fractions(min_value=Fraction(1, 64), max_value=64),
            min_size=1, max_size=10),
    )
    def test_sorted_unique_and_bounded(self, base, mults):
        try:
            dims = expand_sweep(base, tuple(mults))
        except DataError:
            assert any(m * base < 1 for m in mults)
            return
        assert dims == sorted(set(dims))
        assert len(dims) <= len(mults)
        assert all(d >= 1 for d in dims)


ROWS = ["m1,4.39e6,32,ms,0.3547", "m1,4.39e6,64,ms,0.3301",
        "m2,1.1e8,32,ms,0.2904", "m2,1.1e8,64,ms,0.2710"]
FIELD_TEXT = st.one_of(
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
    st.sampled_from(["", " ", "nan", "-inf", "1e400", "-0", "0", "1" * 5000,
                     '"', '"a,b"', "#", "\r", "\x00", "m1", "ms"]))


@st.composite
def mutated_csv(draw):
    """A valid observation CSV with a few rows, fields or lines mutated."""
    lines = [HEADER, *ROWS]
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        fields = lines[i].split(",")
        j = draw(st.integers(0, len(fields) - 1))
        op = draw(st.sampled_from(["field", "drop", "extra", "line", "delete",
                                   "duplicate"]))
        if op == "field":
            fields[j] = draw(FIELD_TEXT)
        elif op == "drop":
            del fields[j]
        elif op == "extra":
            fields.insert(j, draw(FIELD_TEXT))
        if op == "line":
            lines.insert(i, draw(st.text(max_size=40)))
        elif op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = ",".join(fields)
        if not lines:
            lines = [""]
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestParseProperties:
    @settings(max_examples=60, deadline=None)
    @given(text=mutated_csv())
    @example(text=HEADER + "\nm,1e6,32,ms,0.5\rx\n")
    def test_table_or_data_error(self, text):
        try:
            table = parse_observations(text)
        except DataError:
            return
        assert isinstance(table, ObservationTable)


SPLIT_TEXTS = st.lists(st.sampled_from(
    ["a", "b c", "é", "中", "\U0001f600", " ", " ", "\n", "\r\n", "\r"]),
    max_size=40).map("".join)


class TestPartLines:
    """core._part_lines splits a file into P contiguous parts of its lines."""

    @staticmethod
    def split(text):
        """Each P's parts, joined, and the numbered lines of one reader."""
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "lines.txt")
            with open(path, "wb") as fh:
                fh.write(text.encode("utf-8"))
            size = os.stat(path).st_size
            parts = {p: [list(_part_lines(path, k, p, size)) for k in range(p)]
                     for p in range(1, 6)}
            return parts, list(enumerate(read_lines(path), start=1))

    @settings(max_examples=200, deadline=None)
    @given(text=SPLIT_TEXTS)
    @example(text="")
    @example(text="\r\r\n\n\r")
    def test_parts_join_to_one_reader(self, text):
        parts, lines = self.split(text)
        for p, split in parts.items():
            assert [line for part in split for line in part] == lines, p

    def test_non_ascii_text_splits_as_evenly_as_ascii(self):
        # Offsets count bytes, as the file's size does: counted in
        # characters, a part of this text fell 918 / 82 lines at P = 2.
        parts, _ = self.split("".join(f"{'查询' * 20}{i}\n" for i in range(1000)))
        for p in (2, 3):
            assert all(abs(len(part) - 1000 / p) < 5 for part in parts[p]), p

    def test_more_parts_than_lines(self):
        # 10 bytes; line 2 begins at byte 4 of the text, in the third fifth.
        parts, lines = self.split("a 1\r\nb é\n")
        assert lines == [(1, "a 1\n"), (2, "b é\n")]
        assert parts[5] == [[(1, "a 1\n")], [], [(2, "b é\n")], [], []]
