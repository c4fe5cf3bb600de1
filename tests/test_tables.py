import pytest
from hypothesis import given, strategies as st

from fuzzyjoin import (
    Configuration,
    DataError,
    FunctionSpaceOptions,
    JoinFunction,
    Record,
    Solution,
    Table,
    dump_solution,
    enumerate_function_space,
    load_table,
    parse_solution,
)


def test_load_table_basic(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,name\n1,alpha\n2,beta\n", encoding="utf-8")
    t = load_table(p, "id")
    assert t.columns == ("name",)
    assert len(t) == 2
    assert t.get("1").values == ("alpha",)


def test_load_table_duplicate_id(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,name\n7,a\n7,b\n", encoding="utf-8")
    with pytest.raises(DataError, match="'7'"):
        load_table(p, "id")


def test_load_table_missing_cell_becomes_empty(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,name,city\n1,alpha\n", encoding="utf-8")
    t = load_table(p, "id")
    assert t.get("1").values == ("alpha", "")


def test_load_table_missing_id_column(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("key,name\n1,a\n", encoding="utf-8")
    with pytest.raises(DataError, match="id"):
        load_table(p, "id")


def test_load_table_row_too_long(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text("id,name\n1,a,b\n", encoding="utf-8")
    with pytest.raises(DataError, match="row 2"):
        load_table(p, "id")


def test_load_table_quoting_and_delimiter(tmp_path):
    p = tmp_path / "t.csv"
    p.write_text('id;name\n1;"semi;colon"\n', encoding="utf-8")
    t = load_table(p, "id", delimiter=";")
    assert t.get("1").values == ("semi;colon",)


def test_table_rejects_mismatched_record():
    with pytest.raises(DataError):
        Table(("a", "b"), (Record("1", ("x",)),))


def test_table_rejects_duplicate_columns():
    with pytest.raises(DataError):
        Table(("a", "a"), ())


# --- function space ----------------------------------------------------------


def test_full_space_is_136():
    fns = enumerate_function_space()
    assert len(fns) == 136
    assert len(set(fns)) == 136


def test_two_preprocess_space_is_68():
    opts = FunctionSpaceOptions(preprocess=("L", "L+S+RP"))
    assert len(enumerate_function_space(opts)) == 68


def test_set_only_space_is_32():
    opts = FunctionSpaceOptions(
        tokenizers=("SP",), weights=("EW",), char_distances=()
    )
    assert len(enumerate_function_space(opts)) == 4 * 1 * 1 * 8 == 32


def test_reduced24_space():
    assert len(enumerate_function_space(FunctionSpaceOptions.reduced24())) == 24


def test_enumeration_deterministic():
    assert enumerate_function_space() == enumerate_function_space()


def test_join_function_validation():
    with pytest.raises(ValueError):
        JoinFunction("L", "SP", "EW", "ED")  # char kind with tokenizer
    with pytest.raises(ValueError):
        JoinFunction("L", "NONE", "NONE", "JD")  # set kind without tokenizer
    with pytest.raises(ValueError):
        JoinFunction("X", "NONE", "NONE", "ED")
    with pytest.raises(ValueError):
        JoinFunction("L", "NONE", "NONE", "PLUGIN")  # unknown distance kind


def test_configuration_threshold_range():
    f = JoinFunction("L", "NONE", "NONE", "ED")
    with pytest.raises(ValueError):
        Configuration(f, 1.5)


# --- solution round trip -----------------------------------------------------

_functions = st.sampled_from(enumerate_function_space())
_thresholds = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
_configs = st.builds(Configuration, _functions, _thresholds)


@given(st.lists(_configs, max_size=8))
def test_solution_round_trip(configs):
    sol = Solution(tuple(configs), (1.0,), ("name",))
    assert parse_solution(dump_solution(sol)) == sol


def test_multicolumn_solution_round_trip():
    f = JoinFunction("L+S", "SP", "IDFW", "CJD")
    sol = Solution(
        (Configuration(f, 0.25),), (0.7, 0.30000000000000004), ("name", "city")
    )
    assert parse_solution(dump_solution(sol)) == sol


def test_solution_weight_validation():
    with pytest.raises(ValueError):
        Solution((), (0.5, 0.4))
    with pytest.raises(ValueError):
        Solution((), (float("nan"),))
    with pytest.raises(ValueError):
        Solution((), (1.0,), ("name", "city"))


CONFIG = "config: preprocess=L tokenizer=NONE weights=NONE distance=ED threshold=0.5"


@pytest.mark.parametrize(
    "text, line",
    [
        ("columns: name\nconfig: preprocess=L weights=NONE distance=ED threshold=0.5\n", 2),
        ("# fuzzyjoin solution v1\nconfig: foo\n", 2),
        (f"{CONFIG}\n{CONFIG} plugin=rt-demo\n", 2),
        (f"{CONFIG.replace('=ED', '=PLUGIN')}\n", 1),
        (f"{CONFIG} threshold=0.25\n", 1),
        ("columns: a,b\ncolumn_weights: 1.0\n", 2),
        ("column_weights: 0.5,0.5\n\ncolumns: a\n", 3),
        ("columns: a\ncolumn_weights: nan\n", 2),
        ("column_weights: 0.5,0.4\n", 1),
        ("columns: a,,b\ncolumn_weights: 0.5,0.5\n", 1),
        ("column_weights: 1.0\ncolumns: name,\n", 2),
        ("columns: a,a\ncolumn_weights: 0.5,0.5\n", 1),
    ],
    ids=[
        "missing-field", "bare-token", "unknown-field", "unknown-distance",
        "repeated-field", "fewer-weights", "fewer-columns", "nan-weight",
        "weights-not-summing-to-1", "empty-column-name", "trailing-comma-column",
        "repeated-column-name",
    ],
)
def test_parse_solution_rejects_malformed_lines(text, line):
    with pytest.raises(ValueError, match=f"^solution line {line}: "):
        parse_solution(text)


def test_load_table_bom_and_crlf(tmp_path):
    p = tmp_path / "t.csv"
    p.write_bytes(b"\xef\xbb\xbfid,name\r\n1,alpha\r\n2,beta\r\n")
    t = load_table(p, "id")
    assert t.columns == ("name",)
    assert t.get("2").values == ("beta",)
