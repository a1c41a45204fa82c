from __future__ import annotations

import csv
import io
import itertools
import json
import os
import random
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from multimodel import models
from multimodel.cli import main
from multimodel.errors import DataFormatError, EngineError, PathError
from multimodel.executor import Catalog
from multimodel.models import (
    _CSV_CHUNK,
    ABSENT,
    BOOL,
    FLOAT,
    INT,
    STRING,
    UINT,
    Collection,
    Relation,
    ValueType,
    collection_from_jsonl,
    collection_to_jsonl,
    compile_path,
    compile_set,
    csv_row_count,
    relation_from_csv,
    relation_to_csv,
)


# ---------------------------------------------------------------- relations

def test_relation_rejects_ragged_rows():
    # a relation is stored a column at a time, so a row of the wrong arity
    # cannot be held
    with pytest.raises(ValueError, match="1 values for 2 attributes"):
        Relation([("a", INT), ("b", STRING)], [(1, "x"), (1,)])


def test_relation_rejects_duplicate_attr_names():
    with pytest.raises(ValueError):
        Relation([("a", INT), ("a", INT)], [])


def test_bool_is_not_an_int():
    rel = Relation([("a", INT)], [(True,)])
    assert rel.rows == [(True,)] and type(rel.rows[0][0]) is bool


# ---------------------------------------------------------------- dot paths

def test_dot_get_nested():
    doc = {"id": 1015, "geometry": {"type": "Point"}}
    assert compile_path("geometry.type")(doc) == "Point"


def test_dot_get_top_level():
    assert compile_path("x")({"x": 3}) == 3


def test_dot_get_missing_key_absent():
    assert compile_path("a.c")({"a": {"b": 1}}) is ABSENT
    assert compile_path("a.c", None)({"a": {"b": 1}}) is None


def test_dot_get_through_non_dict_absent():
    assert compile_path("a.b.c")({"a": {"b": [1, 2]}}) is ABSENT
    assert compile_path("a")([1]) is ABSENT


@pytest.mark.parametrize("path", ["", "a..b", ".a", "a."])
def test_dot_get_malformed_path(path):
    # refused when compiled, before any document is read
    with pytest.raises(PathError):
        compile_path(path)
    with pytest.raises(PathError):
        compile_set(path)


def _random_doc(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([1, "s", 2.5, True, None, [1, 2]])
    return {f"k{i}": _random_doc(rng, depth - 1) for i in range(rng.randint(1, 3))}


def _walk(doc, prefix=""):
    # independent recursive traversal: every root-to-value path
    for k, v in doc.items():
        p = f"{prefix}.{k}" if prefix else k
        yield p, v
        if isinstance(v, dict):
            yield from _walk(v, p)


def test_dot_get_matches_reference_walker():
    rng = random.Random(11)
    for _ in range(25):
        doc = _random_doc(rng, 4)
        if not isinstance(doc, dict):
            continue
        for path, expect in _walk(doc):
            assert compile_path(path)(doc) == expect


def test_dot_get_absent_iff_not_a_prefix_path():
    doc = {"a": {"b": 1}, "c": 2}
    present = {p for p, _ in _walk(doc)}
    for path in ["a", "a.b", "c", "a.x", "c.d", "q", "a.b.c"]:
        got = compile_path(path)(doc)
        assert (got is not ABSENT) == (path in present), path


def test_dot_set_copy_on_write():
    doc = {"a": {"b": 1}}
    out = compile_set("a.c")(doc, 9)
    assert out == {"a": {"b": 1, "c": 9}}
    assert doc == {"a": {"b": 1}}  # original untouched
    assert compile_set("x")({"x": 1, "y": 2}, 3) == {"x": 3, "y": 2}


# ---------------------------------------------------------------- text formats

def test_csv_round_trip():
    rel = Relation(
        [("id", INT), ("name", STRING), ("score", ValueType("float"))],
        [(1, "ann", 1.5), (2, "bob, jr.", -0.25), (3, None, 2.0)],
    )
    back = relation_from_csv(relation_to_csv(rel), schema=rel.schema)
    assert back.schema == rel.schema
    assert back.rows == rel.rows


def test_csv_infers_types_without_schema():
    text = "id,flag,score,name\n1,true,1.5,ann\n2,false,2,bob\n"
    rel = relation_from_csv(text)
    kinds = [t.kind for _, t in rel.schema]
    assert kinds == ["int", "bool", "float", "string"]
    assert rel.rows[0] == (1, True, 1.5, "ann")


def test_infer_type_order():
    def infer_type(texts):
        text = "c\n" + "".join(f"{t}\n" for t in texts)
        return relation_from_csv(text).schema[0][1]

    assert infer_type(["true", "false"]).kind == "bool"
    assert infer_type(["3", "4"]).kind == "int"
    assert infer_type(["3", "4.5"]).kind == "float"
    assert infer_type(["3", "abc"]).kind == "string"


def test_jsonl_round_trip_preserves_order():
    docs = [{"b": 1, "a": 2}, {"x": {"y": [1, {"z": None}]}}]
    col = Collection("stuff", docs)
    back = collection_from_jsonl(collection_to_jsonl(col), name="stuff")
    assert back.docs == docs
    assert list(back.docs[0]) == ["b", "a"]


def test_value_type_parse_round_trip():
    for s in ["int", "uint", "float", "string", "bool", "list<int>", "doc"]:
        assert str(ValueType.parse(s)) == s


# ------------------------------------------------------- loader reference

def _ref_infer_type(texts):
    seen = [t for t in texts if t != ""]
    if not seen:
        return STRING
    if all(t.strip().lower() in ("true", "false") for t in seen):
        return BOOL
    for vt, conv in ((INT, int), (FLOAT, float)):
        try:
            for t in seen:
                conv(t)
            return vt
        except ValueError:
            pass
    return STRING


def _ref_cell(text, vt):
    if text == "":
        return None
    k = vt.kind
    if k in ("int", "uint"):
        return int(text)
    if k == "float":
        return float(text)
    if k == "bool":
        return text.strip().lower() == "true"
    if k in ("list", "doc"):
        return json.loads(text)
    return text


def reference_relation_from_csv(text, schema=None):
    """The row-wise parser the column-wise loader replaced: every cell
    typed on its own.  Holds for rectangular CSV; blank rows are skipped,
    as the loader skips them."""
    rows_raw = [r for r in csv.reader(io.StringIO(text)) if r]
    if not rows_raw:
        raise ValueError("CSV needs at least a header row")
    header, body = rows_raw[0], rows_raw[1:]
    if any(len(r) != len(header) for r in body):
        raise ValueError("row length differs from the header's")
    if schema is None:
        cols = list(zip(*body)) if body else [[] for _ in header]
        schema = [(n, _ref_infer_type(list(c))) for n, c in zip(header, cols)]
    elif [n for n, _ in schema] != header:
        raise ValueError("declared schema does not match CSV header")
    types = [vt for _, vt in schema]
    rows = [tuple(_ref_cell(t, vt) for t, vt in zip(r, types)) for r in body]
    return Relation(schema, rows)


INT64_MIN, INT64_MAX = -2 ** 63, 2 ** 63 - 1

# cell texts chosen to sit on the borders of the inference order, and of
# what Python's int() and a C integer parser each accept ("\u0663" is an
# Arabic-Indic 3, which int() reads as 3; numpy reads "\x1c2" as 2)
CELLS = ["", "0", "-0", "7", " 3 ", "1_000", "-12", "1.5", "1e3", "nan",
         "-inf", "inf", "true", "FALSE", " True", "tRuE ", "x", "a,b",
         "line\nbreak", 'say "hi"', "[1, 2]", "{}", "\u00e9",
         "+3", "007", str(INT64_MAX), str(INT64_MAX + 1), str(INT64_MIN),
         str(INT64_MIN - 1), "\u0663", "-", "1-", "--1", "#", "3 #x",
         "\x1c2"]
# whole files of these cells are all-integer CSV
DIGIT_CELLS = st.integers(INT64_MIN, INT64_MAX).map(str) | st.sampled_from(
    [str(INT64_MIN), str(INT64_MAX)])
ROW_COUNTS = [0, 1, 2, 5, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1]


@st.composite
def csv_texts(draw):
    """CSV with a unique header; its body repeats a few drawn rows up to a
    row count around the chunk size and ends in one more drawn row, so a
    column can change type in its very last cell.  Three files in four
    hold integer cells only; line ends may be ``\\r\\n``, and blank or
    whitespace-only lines may come anywhere, the header's place included."""
    ncols = draw(st.integers(1, 4))
    cell = DIGIT_CELLS if draw(st.integers(0, 3)) else st.sampled_from(
        CELLS) | st.text(st.characters(codec="utf-8"), max_size=4)
    row = st.lists(cell, min_size=ncols, max_size=ncols)
    base = draw(st.lists(row, min_size=1, max_size=4))
    n = draw(st.sampled_from(ROW_COUNTS))
    body = [base[i % len(base)] for i in range(n - 1)]
    if n:
        body.append(draw(row))
    end = draw(st.sampled_from(["\n"] * 4 + ["\r\n"]))
    lines = []
    for r in [[f"c{j}" for j in range(ncols)]] + body:
        buf = io.StringIO()
        # a lone empty field is written quoted, so no row is a blank line
        csv.writer(buf, lineterminator=end).writerow(r)
        lines.append(buf.getvalue())
    extras = st.lists(st.tuples(st.integers(0, len(lines)),
                                st.sampled_from(["", " ", "\t "])),
                      min_size=1, max_size=2)
    for at, extra in draw(st.one_of([st.just([])] * 3 + [extras])):
        lines.insert(at, extra + end)
    return "".join(lines)


def _same(a, b):
    # repr tells nan, -0.0, 1 from 1.0 and True from 1 apart, as == does not
    assert a.schema == b.schema
    assert repr(a.rows) == repr(b.rows)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts(), st.data())
def test_csv_loader_matches_row_wise_reference(text, data):
    # csv.writer leaves a cell holding "\r" unquoted, which csv.reader may
    # then reject as malformed; a whitespace-only line is a row of one field
    try:
        expect = reference_relation_from_csv(text)
    except (csv.Error, ValueError):
        with pytest.raises(DataFormatError):
            relation_from_csv(text)
        return
    _same(relation_from_csv(text), expect)
    # the same text under a declared schema, which may not fit the cells
    declared = [(n, data.draw(st.sampled_from(
        [vt, STRING, BOOL, INT, FLOAT, ValueType("list")])))
        for n, vt in expect.schema]
    try:
        expect = reference_relation_from_csv(text, declared)
    except ValueError:
        with pytest.raises(DataFormatError):
            relation_from_csv(text, declared)
    else:
        _same(relation_from_csv(text, declared), expect)


def test_all_integer_csv_skips_the_python_reader(tmp_path, monkeypatch):
    # a probe table as the tile_join workload writes it: r, c, w
    rng = np.random.default_rng(0)
    cells = np.column_stack([rng.integers(0, 500, size=(25_000, 2)),
                             rng.integers(0, 100, size=25_000)])
    text = "r,c,w\n" + "".join(f"{r},{c},{w}\n" for r, c, w in cells.tolist())
    (tmp_path / "probe.csv").write_text(text)

    def no_csv_reader(*args, **kwargs):
        raise AssertionError("an all-integer table went through csv.reader")

    monkeypatch.setattr(models.csv, "reader", no_csv_reader)
    got = Catalog(str(tmp_path)).load_table("probe")
    assert got.schema == [("r", INT), ("c", INT), ("w", INT)]
    for col, expect in zip(got.columns, cells.T):
        assert col.null is None and col.values.dtype == np.int64
        assert col.values.flags.c_contiguous
        assert np.array_equal(col.values, expect)


@pytest.mark.parametrize("text, line", [
    ("a,b\n", None),                 # header only
    ("a,b\n\n\n", None),             # header and blank lines only
    ("a,b\n1,2\n3,-4", None),        # no trailing newline
    ("a\n1\n-2\n", None),            # one column
    ("a,b\n\n1,2\n\n3,4\n\n", None),  # blank lines among the rows
    ("\n1\n2\n", None),              # a blank line before the header
    ("a,b\r\n1,2\r\n", None),        # CRLF line ends
    ("a,b\r\n1,2\n", None),          # a CR in the header line only
    ("a,b\n1,2\r\n3,4\n", None),     # a CR in the body only
    ("a\n 3\n+4\n", None),           # a space and a plus sign
    ("a\n1\n\x1c2\n", None),         # numpy strips U+001C, int() does not
    ('"a",b\n1,2\n', None),          # a quoted header name
    ("a,b\n1,\n", None),             # an empty cell is null
    ("a\n1\n \n", None),             # a whitespace-only line is a cell
    ("a\n1\n-\n", None),             # a lone minus sign is a string
    ("a\n1\n007\n-0\n", None),       # leading zeros and a negative zero
    ("a\n9223372036854775807\n", None),  # int64 max: an int64 column
    ("a\n9223372036854775807", None),    # ... as the only cell
    ("a\n9223372036854775808\n", None),  # beyond int64: an object column
    ("a\n-9223372036854775809\n", None),
    ("a\n-9223372036854775808\n", None),  # int64 min: an int64 column
    ("a,b\n123456789012345678,-123456789012345678\n", None),  # 18 digits
    ("a,b\n1234567890123456789,-1234567890123456789\n", None),  # 19
    ("a,b\n1,2\n12345678901234567890,3\n", None),  # 20 digits
    ("a,b\n1,2\n3,-12345678901234567890\n", None),
    ("a\n1\n18446744073709551616\n", None),  # 2**64
    ("a\n-18446744073709551616\n1\n", None),
    ("a\n" + "9" * 30 + "\n", None),   # 30 digits, each sign
    ("a\n-" + "9" * 30 + "\n", None),
    ("a,b\n1,2\n3,", None),           # an empty last cell, no newline
    ("a\n1\n-", None),                # a lone minus sign, the last byte
    ("a,b\n-,1\n", None),             # a lone minus sign before a comma
    ("a\n1-2\n", None),               # a minus sign inside a cell
    ("a,b\n1,2\n3\n", 3),            # a ragged digit-only row
    ("a,b\n1,2\n3,4,5\n", 3),
    ("a,b\n1,2,\n", 2),               # a trailing comma
    ("a,b\n1,2,3\n4\n", 2),           # the right count, ragged rows
    ("a\n1\r2\n", 2),               # a bare CR inside a row
    ("a\n1,2\n", 2),                 # every row wider than the header
    ("a,b\n1,2\n \n", 3),            # a whitespace-only line in two columns
    ("a,a\n1,2\n", 1),               # duplicate names
])
def test_all_integer_csv_near_misses_match_the_python_path(text, line):
    """Texts on the border of the numpy reader's fast path give the
    reference relation, with the same column dtypes, or the error the
    Python path gives, at the same line."""
    if line is not None:
        with pytest.raises(DataFormatError, match=f"line {line}:"):
            relation_from_csv(text)
        return
    got, want = relation_from_csv(text), reference_relation_from_csv(text)
    _same(got, want)
    assert [c.values.dtype for c in got.columns] == \
        [c.values.dtype for c in want.columns]


def test_int_reader_stopping_short_leaves_the_text_to_the_python_path(
        monkeypatch):
    """numpy < 2's ``fromstring`` warns at a cell it cannot read and returns
    the values before it: a short read takes the Python path, and the
    warning does not escape."""
    def fromstring(data, dtype, sep):
        cells = data.decode().split(sep)[:-1]  # the last is after the end
        read = list(itertools.takewhile(str.isdigit, cells))
        if len(read) < len(cells):
            warnings.warn("string or file could not be read to its end",
                          DeprecationWarning)
        return np.array(read, dtype)

    monkeypatch.setattr(models.np, "fromstring", fromstring)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(relation_from_csv("a,b\n1,2\n3,4\n")) == 2
        for text in ("a,b\n1,2\n3,\n", "a\n1\n\n2\n"):
            _same(relation_from_csv(text), reference_relation_from_csv(text))


@pytest.mark.parametrize("text, line", [
    ("a,b\n1,2\n3\n", 3),      # short row: column b was lost
    ("a,b\n1,2\n3,4,5\n", 3),  # long row: the 5 was dropped
    ('a,b\n"x\ny",2\n\n1\n', 5),  # line counts a quoted break and a blank
])
def test_ragged_csv_row_is_rejected_with_its_line(tmp_path, capsys, text,
                                                 line):
    with pytest.raises(DataFormatError) as e:
        relation_from_csv(text, name="t")
    assert e.value.line == line and e.value.name == "t"
    assert isinstance(e.value, EngineError) and isinstance(e.value, ValueError)
    src = tmp_path / "raw.csv"
    src.write_text(text)
    assert main(["ingest", "csv", str(src), "--as", "t",
                 "--data", str(tmp_path / "cat")]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: {e.value}"]
    assert not (tmp_path / "cat" / "t.csv").exists()


def test_blank_csv_lines_are_skipped(tmp_path, capsys):
    text = "a,b\n\n1,2\n\n"
    rel = relation_from_csv(text)
    assert rel.attr_names == ["a", "b"] and rel.rows == [(1, 2)]
    src = tmp_path / "raw.csv"
    src.write_text(text)
    assert main(["ingest", "csv", str(src), "--as", "t",
                 "--data", str(tmp_path)]) == 0
    assert (tmp_path / "t.csv").read_text() == "a,b\n1,2\n"


@pytest.mark.parametrize("text, schema, line", [
    ("", None, 1),
    ("a,a\n1,2\n", None, 1),
    ("a,b\n1,2\n", [("a", INT)], 1),
    ("a\n1\n\n2\nx\n", [("a", INT)], 5),
    ("a\n[1]\n[2,\n", [("a", ValueType("list"))], 3),
    ("a\n1\n-1\n", [("a", UINT)], 3),
])
def test_csv_errors_name_the_line(text, schema, line):
    with pytest.raises(DataFormatError, match=f"line {line}:") as e:
        relation_from_csv(text, schema)
    assert e.value.line == line


@pytest.mark.parametrize("ch", ["\u2028", "\u2029", "\u0085"])
def test_jsonl_round_trip_keeps_line_separators_inside_strings(ch):
    col = Collection("x", [{"s": f"a{ch}b"}, {"t": ch}])
    text = collection_to_jsonl(col)
    assert ch in text  # written raw, not escaped
    assert collection_from_jsonl(text, "x").docs == col.docs


@pytest.mark.parametrize("text, line, what", [
    ('{"a": 1}\n{"a": }\n', 2, r"Expecting value \(column 7\)"),
    ('{"a": 1}\n\n  {"a": 1} {"b": 2}\n', 3, r"Extra data \(column 11\)"),
    ('{"a": 1}\n3\n', 2, "a JSON int, not an object"),
    ('[1, 2]\n', 1, "a JSON list, not an object"),
    ('{"a": 1}\r\n"x"\r\n', 2, "a JSON str, not an object"),
    ('{"a": 1}\n\u00a0\n', 2, r"Expecting value \(column 1\)"),
])
def test_bad_jsonl_line_is_rejected_with_its_line(text, line, what):
    with pytest.raises(DataFormatError, match=what) as e:
        collection_from_jsonl(text, "c")
    assert e.value.line == line and e.value.name == "c"
    assert isinstance(e.value, EngineError) and isinstance(e.value, ValueError)


def test_bad_jsonl_in_a_run_is_one_line_naming_partition_and_line(
        tmp_path, capsys):
    (tmp_path / "ev.jsonl").write_text('{"k": 1}\n{"k": 1,}\n')
    script = tmp_path / "q.m2s"
    script.write_text("execute(openCollection('ev').filter('k = 1'))\n")
    assert main(["run", str(script), "--data", str(tmp_path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: dataset 'ev', line 2: ")
    assert err[0].endswith("(partition 0)")


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(codec="utf-8")),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=3), kids, max_size=3),
    max_leaves=8)


# scalars of one JSON type each, as a shredded key's column would hold them
json_scalars = {"int": st.integers(), "float": st.floats(),
                "bool": st.booleans(), "any": json_values}


@st.composite
def jsonl_docs(draw):
    """Documents over a few shared keys (a dotted and an empty one among
    them), in random order, each key's values mostly of one kind, so that
    typed columns, mixed ones, absent keys and many shapes all arise."""
    keys = draw(st.lists(st.sampled_from(["a", "b", "a.b", "", "\u2028"]),
                         unique=True, min_size=1, max_size=4))
    keys += draw(st.lists(st.text(max_size=3), max_size=1))
    value = {k: st.one_of(*[json_scalars[draw(st.sampled_from(
        sorted(json_scalars)))]] * 4, json_values) for k in keys}
    return [{k: draw(value[k]) for k in draw(st.lists(
        st.sampled_from(keys), max_size=len(keys) + 1))}
        for _ in range(draw(st.integers(0, 8)))]


def _same_json(a, b) -> bool:
    """Equal values, exact types and key order (NaN equal to NaN)."""
    return repr(a) == repr(b)


@settings(max_examples=100, deadline=None)
@given(jsonl_docs(), st.lists(st.tuples(
    st.sampled_from(["", " ", "\t", "\r", " \r"]),
    st.booleans(), st.booleans()), min_size=8, max_size=8))
def test_jsonl_loader_matches_json_loads_per_line(docs, layout):
    """Padding, CRLF endings, blank lines and non-ASCII text, written as
    collection_to_jsonl would and as ASCII escapes; the loaded documents
    equal ``json.loads`` of each line in values, exact types and key order,
    and ``collection_to_jsonl`` writes them back to the same documents."""
    parts = []
    for doc, (pad, ascii_only, blank_after) in zip(docs, layout):
        parts.append(pad + json.dumps(doc, ensure_ascii=ascii_only) + pad)
        if blank_after:
            parts.append(pad)
    text = "\n".join(parts)
    expect = [json.loads(p) for p in parts if p.strip(" \t\r")]
    col = collection_from_jsonl(text)
    assert _same_json(col.docs, expect) and len(col) == len(expect)
    back = collection_from_jsonl(collection_to_jsonl(col))
    assert _same_json(back.docs, expect)


@pytest.mark.parametrize("lines", [
    ['{"a": 1, "b": 2, "a": 3}', '{"b": 4}'],  # a repeated key: last value
    ['{"x": 1}', '{"x": 1.0}', '{"x": true}', '{"x": null}', '{"y": 1}'],
    ['{"x": 1}', '{"x": 2}', '{"x": 1.0}'],
    ['{"x": true}', '{"x": false}', '{"x": 0}'],
    ['{"z": -0.0}', '{"z": 0.0}', '{"z": -0.0, "w": 1e300}'],
    ['{"n": 9223372036854775807}', '{"n": 9223372036854775808}'],
    ['{"n": -9223372036854775808}', '{"n": -9223372036854775809}'],
    ['{"d": {"e": [1, {"f": null}]}, "l": []}', '{"l": [1.0, true]}',
     '{"d": 3}'],
    ['{"s": "a\u2028b"}', '{"s": "\u2029\u0085"}', '{"\u2028": 1}'],
    ['', '{"k": 1}', '   ', '\t', '{"k": 2}', '', '{}', '{"k": null}'],
])
def test_jsonl_loader_keeps_values_types_and_key_order(lines):
    """Each kind of value a shredded column could blur: 1, 1.0 and true
    under one key, -0.0, ints at and beyond the int64 limits, nested
    documents and lists, line separators inside strings, blank lines."""
    text = "\n".join(lines)
    expect = [json.loads(p) for p in text.split("\n") if p.strip()]
    col = collection_from_jsonl(text)
    assert _same_json(col.docs, expect)
    assert _same_json(collection_from_jsonl(collection_to_jsonl(col)).docs,
                      expect)


# ---------------------------------------------------- JSONL line templates

def _same_columns(got, want):
    """The collections hold the same shape table and columns: dtypes, null
    masks and values bit for bit (an object column by repr, which tells 1,
    1.0 and True apart)."""
    assert got.name == want.name and got.shapes == want.shapes
    assert got.shape_ids.dtype == want.shape_ids.dtype
    assert np.array_equal(got.shape_ids, want.shape_ids)
    assert list(got.columns) == list(want.columns)
    for key, g in got.columns.items():
        w = want.columns[key]
        assert g.values.dtype == w.values.dtype, key
        assert (g.null is None) == (w.null is None), key
        assert g.null is None or np.array_equal(g.null, w.null), key
        if g.values.dtype == object:
            assert repr(g.values.tolist()) == repr(w.values.tolist()), key
        else:
            assert g.values.tobytes() == w.values.tobytes(), key


# keys a template takes, and ones it refuses ("a,b", "{") and falls back on
TEMPLATE_KEYS = ["oid", "pid", "rating", "a b", "a:b", "x.y", "k1", "",
                 "é", "a-b", "7", "-", "a,b", "{"]
INT_LITERALS = st.integers(-(10 ** 15 - 1), 10 ** 15 - 1).map(str) \
    | st.sampled_from(["0", "-0", "999999999999999", "-999999999999999"])
FLOAT_LITERALS = st.from_regex(r"-?(0|[1-9][0-9]{0,5})\.[0-9]{1,20}",
                               fullmatch=True) \
    | st.from_regex(r"-?[1-9]\.[0-9]{16}", fullmatch=True) \
    | st.floats(allow_nan=False, allow_infinity=False).map(repr).filter(
        lambda t: "e" not in t) \
    | st.sampled_from(["0.0", "-0.0", "1" + "0" * 400 + ".5"])
# values on the borders of the template: other number spellings, ints a
# float64 may not hold exactly, other JSON values, and text JSON refuses
NEAR_VALUES = (
    st.integers(10 ** 15, 2 ** 70).map(str)
    | st.integers(2 ** 53, 2 ** 63).filter(lambda i: float(i) != i).map(str)
    | st.integers(-2 ** 70, -10 ** 15).map(str)
    | st.floats(allow_nan=False).map(lambda x: f"{x:e}")
    | st.floats().map(repr).filter(lambda t: "e" in t)
    | st.sampled_from([
        "1", "1.0", "1E+5", "-0", "-0.0", "007", "00.5", "1.", ".5", "+1",
        "9007199254740993", "9223372036854775808", "-9223372036854775809",
        "NaN", "Infinity", "-Infinity", "true", "false", "null", '"s"',
        '"1"', "[1]", '{"a": 1}', "[]", "{}"]))
NEAR_MISSES = ["value", "value", "value", "order", "drop", "extra", "dup",
               "escape", "trailing", "cr", "pad", "blank", "space", "seps"]


def _render(pairs, seps) -> str:
    item, colon, opening, closing = seps
    return "{" + opening + item.join(
        json.dumps(k, ensure_ascii=False) + colon + v
        for k, v in pairs) + closing + "}"


@st.composite
def near_misses(draw, nkeys):
    """(kind, key index, the text it adds) of one near miss of a line."""
    kind = draw(st.sampled_from(NEAR_MISSES))
    extra = {"dup": st.sampled_from(["1", "2.5"]),
             "trailing": st.sampled_from([" x", ",", ' {"a": 1}', "}"]),
             "pad": st.sampled_from([" ", "\t", " "]),
             "blank": st.sampled_from(["", " ", "\t", "\r"])}.get(kind)
    return kind, draw(st.integers(0, nkeys - 1)), \
        draw(extra) if extra is not None else None


def _with_miss(draw, pairs, seps, miss) -> str:
    """The line of `pairs` written with the near miss `miss`."""
    kind, at, extra = miss
    pairs, key = list(pairs), pairs[at][0]
    if kind == "value":
        pairs[at] = (pairs[at][0], draw(NEAR_VALUES))
    elif kind == "order":
        pairs = pairs[::-1]
    elif kind == "drop":
        del pairs[at]
    elif kind == "extra":
        pairs.insert(at, ("zz", "1"))
    elif kind == "dup":
        pairs.append((pairs[at][0], extra))
    elif kind == "seps":
        seps = (", ", ": ", "", "") if seps != (", ", ": ", "", "") \
            else (",", ":", "", "")
    line = _render(pairs, seps)
    if kind == "escape" and key:
        plain = json.dumps(key, ensure_ascii=False)
        return line.replace(plain, '"\\u%04x%s' % (ord(key[0]), plain[2:]), 1)
    return {"trailing": line + (extra or ""), "cr": line + "\r",
            "pad": (extra or "") + line, "blank": line + "\n" + (extra or ""),
            "space": line + " "}.get(kind, line)


@st.composite
def template_texts(draw):
    """(JSONL text, whether it fits its first line's template): lines of
    one flat object of ints and floats written with drawn separators; no
    line, some lines or every line (the first included) with a near miss
    of that shape; the last line may lack its newline."""
    keys = draw(st.lists(st.sampled_from(TEMPLATE_KEYS), min_size=1,
                         max_size=4, unique=True))
    floats = [draw(st.booleans()) for _ in keys]
    seps = (draw(st.sampled_from([", ", ",", " , ", ",\t"])),
            draw(st.sampled_from([": ", ":", " :\t"])),
            draw(st.sampled_from(["", " "])), draw(st.sampled_from(["", " "])))
    n = draw(st.integers(1, 10))
    rows = [[(k, draw(FLOAT_LITERALS if f else INT_LITERALS))
             for k, f in zip(keys, floats)] for _ in range(n)]
    lines = [_render(r, seps) for r in rows]
    spread = draw(st.sampled_from(["none", "some", "every"]))
    if spread == "every":  # one miss, on every line
        miss = draw(near_misses(len(keys)))
        lines = [_with_miss(draw, r, seps, miss) for r in rows]
    elif spread == "some":
        for i in draw(st.lists(st.integers(0, n - 1), min_size=1,
                               max_size=2)):
            lines[i] = _with_miss(draw, rows[i], seps,
                                  draw(near_misses(len(keys))))
    end = draw(st.sampled_from(["\n", ""]))
    plain = not any(set(k) & set("{},") for k in keys)
    return "\n".join(lines) + end, plain and spread == "none"


def _agree(text):
    """``collection_from_jsonl`` gives the per-line path's collection, or
    raises its error; returns the template path's collection or None."""
    fast = models._template_collection(text, "c")
    try:
        want = models._decode_lines(text, "c")
    except DataFormatError as e:
        with pytest.raises(DataFormatError) as got:
            collection_from_jsonl(text, "c")
        assert str(got.value) == str(e) and got.value.line == e.line
        return fast
    _same_columns(collection_from_jsonl(text, "c"), want)
    return fast


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(template_texts())
def test_template_path_matches_the_per_line_path(case):
    """The template path gives the per-line path's collection exactly, and
    a text it does not take decodes, or fails, as the per-line path does."""
    text, fits = case
    assert _agree(text) is not None or not fits


@pytest.mark.parametrize("text", [
    '{"a": 1, "a": 2}\n{"a": 3, "a": 4}\n',        # a duplicate key
    '{"\\u006fid": 1}\n{"\\u006fid": 2}\n',          # an escaped key
    '{"a,b": 1, "c": 2}\n{"a,b": 3, "c": 4}\n',    # keys a template refuses
    '{"{": 1}\n{"{": 2}\n',
    '{"a": 1}\n{"a": 9007199254740993}\n',         # 16 digits
    '{"a": 9007199254740993}\n{"a": 1}\n',
    '{"a": 1234567890123456}\n',
    '{"a": 1}\n{"a": 1.0}\n',                      # an int, then a float
    '{"a": 1.5}\n{"a": 2}\n',
    '{"a": 1e5}\n{"a": 2e5}\n',                    # exponents
    '{"a": 1.5e3}\n{"a": 2.5E-3}\n',
    '{"a": 1.0}\n{"a": 2.5E-3}\n',
    '{"a": NaN}\n', '{"a": 1.0}\n{"a": Infinity}\n',
    '{"a": 007}\n{"a": 7}\n', '{"a": 1}\n{"a": 007}\n',
    '{"a": true}\n', '{"a": 1}\n{"a": null}\n', '{"a": "1"}\n',
    '{"a": {"b": 1}}\n', '{"a": [1]}\n', '{}\n{}\n',
    '{"a": 1} x\n{"a": 2} x\n', '{"a": 1}\n{"a": 2}{"a": 3}\n',
    '{"a": 1}\r\n{"a": 2}\r\n', ' {"a": 1}\n {"a": 2}\n',
    '{"a": 1}\n\n{"a": 2}\n', '{"a": 1}\n  \n', '{"a": 1}\n\t',
    '{"a": 1, "b": 2}\n{"b": 2, "a": 1}\n',       # key order
    '{"a": 1, "b": 2}\n{"a": 1}\n', '{"a": 1}\n{"a": 1, "b": 2}\n',
    '{"a": 1, "b": 2}\n{"a": 1,"b": 2}\n',        # other separators
    '["a": 1}\n["a": 2}\n',                        # not an object
])
def test_template_refuses_each_near_miss(text):
    assert _agree(text) is None


@pytest.mark.parametrize("text", [
    '{"a": -0, "b": -0.0}\n{"a": 0, "b": 0.0}\n',  # -0 is 0, -0.0 stays
    '{"a": 1}\n{"a": 2}',                           # no final newline
    '{"a": 999999999999999}\n{"a": -999999999999999}\n',
    '{"x": 0.30000000000000004}\n{"x": 1.7976931348623157}\n',
    '{"x": 0.1}\n{"x": 1' + "0" * 400 + '.5}\n',     # beyond float64: inf
    '{"a":1,"b":2.5}\n{"a":3,"b":-4.0}\n',
    '{ "a:b" :\t1 , "é x": 2.5 }\n{ "a:b" :\t3 , "é x": 0.0 }\n',
    # keys that hold number bytes, first, inside and last
    '{"7": 1, "a-b": 2.5, "-": -3, "x.y": 4}\n{"7": 5, "a-b": -0.5, "-": 6,'
    ' "x.y": 7}\n',
    # a lone surrogate, and a key of four UTF-8 bytes
    '{"\ud800": 1, "\U0001f600": 2.5}\n',
])
def test_template_takes_each_fitting_text(text):
    assert _agree(text) is not None


@pytest.mark.parametrize("values", [
    # mantissas above 2**53: only the first rounds differently when scaled
    ["9007199254740993.0", "-9007199254740993.5"],
    # fraction widths 22 (10.0 ** 22 is exact) and 23 (it is not)
    ["0.0000001234567890123456", "0.00000001062116443042877"],
    ["9" * 19 + ".5", "-" + "9" * 19 + ".5"],  # mantissas int64 saturates
    ["-0.0", "-0.000", "-0.05", "0.000"],       # -0.0 keeps its sign
    ["1.5", "2.25", "-0.125", "10.0", "3.14159", "0.1"],  # widths differ
])
def test_scaled_reader_edges_match_the_per_line_path(values):
    """Floats read as int mantissas scaled by their fraction width are bit
    for bit those of the per-line path, beside an int column, where the
    scaling is inexact, and where the reader saturates."""
    text = "".join(f'{{"i": {i}, "x": {v}}}\n' for i, v in enumerate(values))
    col = models._template_collection(text, "c")
    assert col is not None
    _same_columns(col, models._decode_lines(text, "c"))


def _review_text(n: int, seed: int = 0) -> str:
    """Reviews written as the recommender's data generator writes them."""
    rng = np.random.default_rng(seed)
    return "".join(
        f'{{"oid": {o}, "pid": {p}, "rating": {h / 2:.1f}}}\n' for o, p, h in
        zip(rng.integers(100_000, 101_000, n).tolist(),
            rng.integers(0, 500, n).tolist(), rng.integers(2, 11, n).tolist()))


def test_template_check_covers_every_chunk():
    """A near miss in any line, chunk borders included, sends the text to
    the per-line path."""
    # a review line holds at least 41 characters: these span four chunks
    text = _review_text(4 * models._TEMPLATE_CHUNK // 41)
    starts = [0] + [i + 1 for i, ch in enumerate(text) if ch == "\n"][:-1]
    assert len(text) > 3 * models._TEMPLATE_CHUNK
    want = models._decode_lines(text, "r")
    _same_columns(models._template_collection(text, "r"), want)
    border = text.find("\n", models._TEMPLATE_CHUNK) + 1
    for at in (1, starts.index(border) - 1, starts.index(border),
               len(starts) - 1):
        start = starts[at]
        bad = text[:start] + text[start:].replace(', "rating"',
                                                  '.5, "rating"', 1)
        assert models._template_collection(bad, "r") is None, at
        col = collection_from_jsonl(bad, "r")
        assert col.columns["pid"].values.dtype == object


def test_malformed_line_after_template_lines_names_its_line():
    """Lines 1-2 fit the template, line 3 is malformed: the per-line path
    raises as before the template path existed."""
    head = '{"oid": 1, "rating": 1.5}\n{"oid": 2, "rating": 2.5}\n'
    for tail, what in [
            ('{"oid": 3, "rating": }\n', "Expecting value (column 22)"),
            ('{"oid": 3, "rating": 2.5,}\n',
             "Expecting property name enclosed in double quotes "
             "(column 26)")]:
        with pytest.raises(DataFormatError) as e:
            collection_from_jsonl(head + tail, "review")
        assert str(e.value) == f"dataset 'review', line 3: {what}"
        assert e.value.line == 3


def test_template_decode_peaks_below_the_per_line_path():
    """The template path reads a chunk of lines at a time, so its copies
    of the text and its number arrays peak below the per-line decode of a
    review-shaped text."""
    text = _review_text(12_500)

    def peak(decode):
        tracemalloc.start()
        try:
            col = decode(text, "review")
            return tracemalloc.get_traced_memory()[1], col
        finally:
            tracemalloc.stop()

    fast, col = peak(models._template_collection)
    slow, want = peak(models._decode_lines)
    assert col is not None and fast < slow
    _same_columns(col, want)


DATA = os.path.join(os.path.dirname(__file__), "data", "recommend")


@pytest.mark.parametrize("name", sorted(
    f[:-len(".jsonl")] for f in os.listdir(DATA) if f.endswith(".jsonl")))
def test_shipped_and_written_jsonl_take_the_template_path(name):
    """The recommender's collections, and the text ``collection_to_jsonl``
    writes for them, are read through their first line's template: a
    drift in either format would otherwise fall back without a sign."""
    with open(os.path.join(DATA, name + ".jsonl"), encoding="utf-8") as f:
        text = f.read()
    col = models._template_collection(text, name)
    assert col is not None
    _same_columns(col, models._decode_lines(text, name))
    written = collection_to_jsonl(col)
    _same_columns(models._template_collection(written, name), col)


# ------------------------------------------------------- CSV row counts

# interest.csv's shape: 20,000 rows of two ints
BIG_INT_TABLE = "cid,pid\n" + "".join(
    f"{i // 20},{i * 7919 % 500}\n" for i in range(20_000))

@pytest.mark.parametrize("text", [
    "", "\n\n", "a,b\n", "a,b", "a,b\n\n\n", "\n a\n1\n", "a,b\n1,2\n3,4",
    "a,b\n\n1,2\n\n3,4\n\n", "a\n \n\n", "a,b\n \n", "a,b\n1\n",
    "a,b\n1,2,3\n", "a,b\n1,2\n,\n", "a,a\n1,2\n", "a,b,a\n",
    'a,b\n"x\ny",2\n',
    '"a,b"\n1\n', "a,b\r\n1,2\r\n", "a\n1\r2\n", "a\n1\x002\n",
    "a\n" + "x" * csv.field_size_limit() + "\n",
    "a\n" + "x" * (csv.field_size_limit() + 1) + "\n",
    # within the limit in characters, past it in UTF-8 bytes
    "a\n" + "é" * csv.field_size_limit() + "\n",
    "a\n" + "é" * (csv.field_size_limit() + 1) + "\n",
    pytest.param(BIG_INT_TABLE, id="20000-int-rows"),
])
def test_csv_row_count_matches_the_loader(text):
    try:
        want = len(relation_from_csv(text, name="t"))
    except DataFormatError as e:
        with pytest.raises(DataFormatError) as got:
            csv_row_count(text, "t")
        assert str(got.value) == str(e)
        return
    assert csv_row_count(text, "t") == want


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(csv_texts())
def test_csv_row_count_matches_the_loader_on_generated_texts(text):
    try:
        want = len(relation_from_csv(text))
    except DataFormatError:
        with pytest.raises(DataFormatError):
            csv_row_count(text)
        return
    assert csv_row_count(text) == want


@pytest.mark.parametrize("text, parsed", [
    (BIG_INT_TABLE, False),
    ("a,b\n\n1,2\n\n", False),
    ("a,é\nü,\n", False),
    ('a,b\n"1",2\n', True),
    ("a,b\r\n1,2\r\n", True),
    ("a,b\n1,\x002\n", True),
    ("a,a\n1,2\n", True),
    ("a,b\n1,2\n3\n", True),
    ("a,b\n1,2,3\n", True),
    ("a\n" + "x" * (csv.field_size_limit() + 1) + "\n", True),
    ("a\n" + "é" * csv.field_size_limit() + "\n", False),
], ids=["int-table", "blank-lines", "non-ascii", "quote", "carriage-return",
        "nul", "repeated-header", "short-line", "long-line", "over-long-field",
        "long-in-bytes-only"])
def test_only_texts_the_line_count_cannot_vouch_for_are_parsed(
        text, parsed, monkeypatch):
    calls = []
    loader = models.relation_from_csv

    def spy(*args, **kwargs):
        calls.append(args)
        return loader(*args, **kwargs)

    monkeypatch.setattr(models, "relation_from_csv", spy)
    try:
        n = csv_row_count(text)
    except DataFormatError:
        n = None
    assert bool(calls) == parsed
    monkeypatch.undo()
    try:
        assert n == len(relation_from_csv(text))
    except DataFormatError:
        assert n is None


def test_counting_a_plain_table_does_not_parse_it(tmp_path, monkeypatch):
    (tmp_path / "customer.csv").write_text(
        "cid,name\n" + "".join(f"{c},customer-{c}\n" for c in range(1000)))

    def no_parse(*args, **kwargs):
        raise AssertionError("a plain table was parsed to be counted")

    monkeypatch.setattr(models, "relation_from_csv", no_parse)
    assert Catalog(str(tmp_path)).count("customer", "relational") == 1000
