import ast
import gc
import json
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from defring import ParseError, classify, parse, print_source, serialize_report
from defring.dsl import KEYWORDS, _tokenize, _words, _write_json, render_matrix
from defring.fields import FieldSpec, format_scalar
from defring.linalg import Matrix
from helpers import CORPUS, load_source, read_corpus, reference_tokenize, tolist

ALL_CORPUS = sorted(p.name for p in CORPUS.glob("*.alg"))

BASE = """\
field F 5
quiver
  vertex v
  arrow x: v -> v
truncate 3

module V
  dim v = 1
  mat x = [[0]]
"""


def test_corpus_is_nonempty():
    assert len(ALL_CORPUS) >= 20


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_corpus_parses(name):
    src = parse(read_corpus(name), name)
    assert src.quiver.vertices
    assert src.modules


def test_parse_structure():
    src = parse(BASE)
    assert repr(src.field) == "F_5"
    assert src.quiver.vertices == ("v",)
    assert [a.name for a in src.quiver.arrows] == ["x"]
    assert src.truncate == 3
    assert list(src.modules) == ["V"]
    v = src.modules["V"]
    assert v.dims == {"v": 1}
    assert v.mats["x"].is_zero()


def test_hereditary_source_has_no_truncate():
    src = parse(read_corpus("loop_free_f2.alg"))
    assert src.truncate is None
    assert src.relations == []


def test_omitted_dim_defaults_to_zero():
    text = read_corpus("a2_f5.alg")
    src = parse(text)
    assert src.modules["S1"].dims == {"v1": 1, "v2": 0}
    # zero dimensional endpoints get zero-shaped matrices
    assert src.modules["S1"].mats["a"].nrows == 0


@pytest.mark.parametrize("name", ALL_CORPUS)
def test_print_parse_round_trip(name):
    text = read_corpus(name)
    src = parse(text, name)
    once = print_source(src)
    assert parse(once, name) == src
    again = print_source(parse(once, name))
    assert once == again


def test_printed_form_drops_comments():
    printed = print_source(parse(BASE + "# trailing comment\n"))
    assert "#" not in printed
    assert print_source(parse(BASE)) == printed


def _expect_error(text, code, line=None):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert err.code == code, f"expected {code}, got {err.code}: {err.message}"
    assert err.line >= 1 and err.col >= 1
    if line is not None:
        assert err.line == line
    return err


def test_error_bad_modulus():
    _expect_error(BASE.replace("field F 5", "field F 6"), "bad-modulus", line=1)


def test_error_unknown_vertex():
    _expect_error(BASE.replace("arrow x: v -> v", "arrow x: v -> w"), "unknown-vertex")
    _expect_error(BASE.replace("dim v = 1", "dim w = 1"), "unknown-vertex")


def test_error_unknown_arrow():
    _expect_error(BASE.replace("mat x =", "mat y ="), "unknown-arrow")


def test_error_non_composable_path():
    text = """\
field F 5
quiver
  vertex v1 v2
  arrow a: v1 -> v2
truncate 2
relations
  a*a

module S1
  dim v1 = 1
"""
    err = _expect_error(text, "non-composable-path")
    assert err.line == 7


def test_error_mixed_relation_endpoints():
    text = """\
field F 5
quiver
  vertex v1 v2
  arrow a: v1 -> v2
  arrow b: v2 -> v1
truncate 2
relations
  a + b

module S1
  dim v1 = 1
"""
    _expect_error(text, "mixed-relation-endpoints", line=8)


def test_error_missing_truncation():
    text = BASE.replace("truncate 3\n", "") + "relations\n  x*x\n"
    _expect_error(text, "missing-truncation")


def test_error_shape_mismatch():
    _expect_error(BASE.replace("[[0]]", "[[0,0]]"), "shape-mismatch")
    _expect_error(BASE.replace("[[0]]", "[[0],[0]]"), "shape-mismatch")


def test_error_bad_scalar_literal():
    _expect_error(BASE.replace("[[0]]", "[[q]]"), "bad-scalar-literal")
    # fractions only make sense over the rationals
    _expect_error(BASE.replace("[[0]]", "[[1/2]]"), "bad-scalar-literal")


@pytest.mark.parametrize(
    "old,new,line,col",
    [("[[0]]", "[[1/0]]", 9, 13), ("truncate 3\n", "truncate 3\nrelations\n  1/0*x*x\n", 7, 3)],
    ids=["matrix", "relation-coefficient"],
)
def test_error_scalar_literal_dividing_by_zero(old, new, line, col):
    # over Q a fraction literal is well formed; a zero denominator is named as such
    err = _expect_error(BASE.replace("field F 5", "field Q").replace(old, new),
                        "bad-scalar-literal", line=line)
    assert err.message == "scalar literal '1/0' divides by zero"
    assert err.col == col


def test_error_duplicate_name():
    _expect_error(BASE + "\n" + BASE.split("truncate 3\n\n")[1], "duplicate-name")
    _expect_error(BASE.replace("vertex v", "vertex v v"), "duplicate-name")
    _expect_error(
        BASE.replace("arrow x: v -> v", "arrow x: v -> v\n  arrow x: v -> v"),
        "duplicate-name",
    )


def test_error_syntax():
    _expect_error("field F 5\nquiver\n  vertex v\nwat\n", "syntax")
    _expect_error("", "syntax")


def test_fraction_scalars_over_q():
    text = BASE.replace("field F 5", "field Q").replace("[[0]]", "[[-1/2]]")
    src = parse(text)
    assert str(src.modules["V"].mats["x"][0, 0]) == "-1/2"
    assert "-1/2" in print_source(src)


@pytest.mark.parametrize("field,entries,values", [
    ("F 5", "1,-1,-1,1,2,-2", "1,4,4,1,2,3"),
    ("Q", "1/2,-1/2,-1/2,1/2,2,-2", "1/2,-1/2,-1/2,1/2,2,-2"),
])
def test_repeated_literals_keep_their_sign(field, entries, values):
    # each literal is converted once per parse, with and without its sign
    text = (f"field {field}\nquiver\n  vertex u w\n  arrow a: u -> w\n\n"
            f"module M\n  dim u = 6\n  dim w = 1\n  mat a = [[{entries}]]\n")
    assert [str(x) for x in parse(text).modules["M"].mats["a"].row(0)] == values.split(",")


def _edit(*pairs, text=BASE):
    """text with each (old, new) pair replaced once; old must occur."""
    for old, new in pairs:
        assert old in text, old
        text = text.replace(old, new, 1)
    return text


REL = "truncate 3\nrelations\n  "
TWO_VERTICES = """\
field F 5
quiver
  vertex v1 v2
  arrow a: v1 -> v2
  arrow b: v2 -> v1
truncate 2
relations
  a*a
"""

# one malformed input per place the parser raises, with its exact diagnostic
DIAGNOSTICS = [
    ("unexpected-character", _edit(("v -> v\n", "v -> v $\n")),
     ("syntax", "unexpected character '$'", 4, 19)),
    ("unexpected-word", _edit(("module V", "modul V")),
     ("syntax", "unexpected 'modul'", 7, 1)),
    ("expected-at-end-of-line", _edit(("v -> v\n", "v ->\n")),
     ("syntax", "expected target vertex", 4, 16)),
    ("expected-found", _edit(("x: v", "x= v")),
     ("syntax", "expected ':', found '='", 4, 10)),
    ("trailing", _edit(("truncate 3", "truncate 3 4")),
     ("syntax", "trailing '4'", 5, 12)),
    ("field-twice", _edit(("quiver\n", "field Q\nquiver\n")),
     ("duplicate-name", "field declared twice", 2, 1)),
    ("field-kind-missing", _edit(("field F 5", "field")),
     ("syntax", "expected Q or F", 1, 6)),
    ("field-modulus-missing", _edit(("field F 5", "field F")),
     ("syntax", "expected prime modulus", 1, 8)),
    ("field-modulus-not-integer", _edit(("field F 5", "field F x")),
     ("bad-modulus", "modulus must be an integer, found 'x'", 1, 9)),
    ("field-modulus-not-prime", _edit(("field F 5", "field F 6")),
     ("bad-modulus", "modulus 6 is not prime", 1, 9)),
    ("field-modulus-out-of-range", _edit(("field F 5", "field F 65537")),
     ("bad-modulus", "modulus 65537 out of supported range (< 65536)", 1, 9)),
    ("field-unknown", _edit(("field F 5", "field G 5")),
     ("syntax", "unknown field 'G'", 1, 7)),
    ("quiver-twice", _edit(("quiver\n", "quiver\nquiver\n")),
     ("duplicate-name", "quiver declared twice", 3, 1)),
    ("vertex-outside-quiver", _edit(("truncate 3\n", "truncate 3\nvertex w\n")),
     ("syntax", "vertex outside quiver block", 6, 1)),
    ("vertex-without-name", _edit(("  vertex v\n", "  vertex v\n  vertex\n")),
     ("syntax", "vertex needs at least one name", 4, 3)),
    ("vertex-symbol-name", _edit(("vertex v", "vertex v :")),
     ("syntax", "bad vertex name ':'", 3, 12)),
    ("vertex-reserved-name", _edit(("vertex v", "vertex v dim")),
     ("syntax", "vertex name 'dim' is reserved", 3, 12)),
    ("vertex-twice", _edit(("vertex v", "vertex v v")),
     ("duplicate-name", "vertex 'v' already declared", 3, 12)),
    ("arrow-outside-quiver", _edit(("truncate 3\n", "truncate 3\narrow y: v -> v\n")),
     ("syntax", "arrow outside quiver block", 6, 1)),
    ("arrow-bad-name", _edit(("arrow x:", "arrow 1x:")),
     ("syntax", "bad arrow name '1x'", 4, 9)),
    ("arrow-twice", _edit(("  arrow x: v -> v\n", "  arrow x: v -> v\n  arrow x: v -> v\n")),
     ("duplicate-name", "arrow 'x' already declared", 5, 9)),
    ("arrow-unknown-vertex", _edit(("x: v -> v", "x: v -> w")),
     ("unknown-vertex", "unknown vertex 'w'", 4, 17)),
    ("truncate-twice", _edit(("truncate 3\n", "truncate 3\ntruncate 3\n")),
     ("duplicate-name", "truncate declared twice", 6, 1)),
    ("truncate-not-positive", _edit(("truncate 3", "truncate 0")),
     ("syntax", "truncate bound must be a positive integer, found '0'", 5, 10)),
    ("relations-twice", _edit(("truncate 3\n", REL + "x*x*x\nrelations\n")),
     ("duplicate-name", "relations declared twice", 8, 1)),
    ("module-bad-name", _edit(("module V", "module dim")),
     ("syntax", "bad module name 'dim'", 7, 8)),
    ("module-twice", _edit(("  mat x = [[0]]\n", "  mat x = [[0]]\nmodule V\n")),
     ("duplicate-name", "module 'V' already declared", 10, 8)),
    ("dim-outside-module", _edit(("truncate 3\n", "truncate 3\ndim v = 1\n")),
     ("syntax", "dim outside module block", 6, 1)),
    ("mat-outside-module", _edit(("truncate 3\n", "truncate 3\nmat x = [[0]]\n")),
     ("syntax", "mat outside module block", 6, 1)),
    ("dim-unknown-vertex", _edit(("dim v", "dim w")),
     ("unknown-vertex", "unknown vertex 'w'", 8, 7)),
    ("dim-not-integer", _edit(("dim v = 1", "dim v = one")),
     ("syntax", "dimension must be a nonnegative integer, found 'one'", 8, 11)),
    ("dim-twice", _edit(("  dim v = 1\n", "  dim v = 1\n  dim v = 1\n")),
     ("duplicate-name", "dim 'v' given twice", 9, 7)),
    ("mat-unknown-arrow", _edit(("mat x", "mat y")),
     ("unknown-arrow", "unknown arrow 'y'", 9, 7)),
    ("mat-twice", _edit(("  mat x = [[0]]\n", "  mat x = [[0]]\n  mat x = [[1]]\n")),
     ("duplicate-name", "mat 'x' given twice", 10, 7)),
    ("scalar-before-field", _edit(("field F 5\n", "")),
     ("syntax", "field must be declared before scalars are used", 8, 13)),
    ("scalar-bad-literal", _edit(("[[0]]", "[[q]]")),
     ("bad-scalar-literal", "bad scalar literal 'q'", 9, 13)),
    ("scalar-negated-bad-literal", _edit(("[[0]]", "[[-q]]")),
     ("bad-scalar-literal", "bad scalar literal 'q'", 9, 14)),
    ("scalar-fraction-over-prime-field", _edit(("[[0]]", "[[1/2]]")),
     ("bad-scalar-literal", "fraction literal '1/2' not allowed over F_5", 9, 13)),
    ("scalar-dividing-by-zero", _edit(("field F 5", "field Q"), ("[[0]]", "[[-1/0]]")),
     ("bad-scalar-literal", "scalar literal '1/0' divides by zero", 9, 14)),
    ("scalar-missing", _edit(("[[0]]", "[[0,")),
     ("syntax", "expected scalar", 9, 15)),
    ("matrix-missing-bracket", _edit(("[[0]]", "0")),
     ("syntax", "expected '[', found '0'", 9, 11)),
    ("matrix-open-at-end", _edit(("[[0]]", "[")),
     ("syntax", "expected '[' or ']'", 9, 12)),
    ("matrix-row-open-at-end", _edit(("[[0]]", "[[0")),
     ("syntax", "expected ',' or ']'", 9, 14)),
    ("matrix-entry-separator", _edit(("[[0]]", "[[0 0]]")),
     ("syntax", "expected ',' or ']', found '0'", 9, 15)),
    ("matrix-row-separator", _edit(("[[0]]", "[[0][0]]")),
     ("syntax", "expected ',' or ']', found '['", 9, 15)),
    ("relation-leading-plus", _edit(("truncate 3\n", REL + "+ x*x*x\n")),
     ("syntax", "relation cannot start with '+'", 7, 3)),
    ("relation-missing-sign", _edit(("truncate 3\n", REL + "x*x*x x\n")),
     ("syntax", "expected '+' or '-', found 'x'", 7, 9)),
    ("relation-unknown-arrow", _edit(("truncate 3\n", REL + "x*y\n")),
     ("unknown-arrow", "unknown arrow 'y'", 7, 5)),
    ("relation-coefficient-without-star", _edit(("truncate 3\n", REL + "2 x*x*x\n")),
     ("syntax", "expected '*', found 'x'", 7, 5)),
    ("relation-arrow-missing", _edit(("truncate 3\n", REL + "x*\n")),
     ("syntax", "expected arrow name", 7, 5)),
    ("relation-non-composable", TWO_VERTICES,
     ("non-composable-path", "a starts at v1, path so far ends at v2", 8, 5)),
    ("relation-mixed-endpoints", _edit(("a*a", "a + b"), text=TWO_VERTICES),
     ("mixed-relation-endpoints", "term b runs v2 -> v1, expected v1 -> v2", 8, 3)),
    ("missing-field", "quiver\n  vertex v\n",
     ("syntax", "missing field declaration", 1, 1)),
    ("missing-quiver", "field F 5\n",
     ("syntax", "missing quiver block", 1, 1)),
    ("missing-truncation", _edit(("truncate 3\n", "relations\n  x*x*x\n")),
     ("missing-truncation",
      "relations need a truncate bound to present a finite dimensional algebra", 5, 1)),
    ("shape-mismatch", _edit(("[[0]]", "[[0,0]]")),
     ("shape-mismatch", "mat x must be 1x1 (dim v x dim v), found 1x2", 9, 7)),
]


@pytest.mark.parametrize("text,expected", [case[1:] for case in DIAGNOSTICS],
                         ids=[case[0] for case in DIAGNOSTICS])
def test_diagnostic_is_pinned(text, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    err = exc.value
    assert (err.code, err.message, err.line, err.col) == expected


# the pieces a mutation inserts: token pieces, line breaks, keywords and nothing
MUTATION_PIECES = (["", "\n", "\n\n", "  ", "0", "1", "2", "-1", "1/2", "1/0", "0/1", "[[", "]]",
                    "[]", "],[", "x", "y", "v", "v1", "V", "->", "- >", "#", "$", "é", " "]
                   + sorted(KEYWORDS) + list(":=[],*+-"))


@st.composite
def mutated_corpus_texts(draw):
    """A corpus file with one to four pieces inserted, each replacing up to two characters."""
    text = read_corpus(draw(st.sampled_from(ALL_CORPUS)))
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(text)))
        text = text[:pos] + draw(st.sampled_from(MUTATION_PIECES)) + text[pos + draw(st.integers(0, 2)):]
    return text


# a message that quotes the token or character it is raised at
QUOTING_RE = re.compile(r"(?:found|trailing|unexpected character|unknown \w+|bad [a-z ]+) "
                        r"('(?:[^'\\]|\\.)*'|\"(?:[^\"\\]|\\.)*\")")


@settings(max_examples=300, deadline=None)
@given(mutated_corpus_texts())
def test_diagnostics_point_into_their_line(text):
    try:
        parse(text)
    except ParseError as err:
        lines = text.splitlines()
        line = lines[err.line - 1] if lines else ""
        assert 1 <= err.col <= len(line) + 1
        quoted = QUOTING_RE.search(err.message)
        if quoted:
            assert line[err.col - 1:].startswith(ast.literal_eval(quoted[1]))


@settings(max_examples=150, deadline=None)
@given(st.text(max_size=200))
def test_parser_never_crashes(text):
    try:
        parse(text)
    except ParseError:
        pass


@settings(max_examples=80, deadline=None)
@given(st.integers(0, len(BASE) - 1), st.sampled_from(list("xq*[]=\n 5-")))
def test_parser_survives_mutations(pos, ch):
    mutated = BASE[:pos] + ch + BASE[pos + 1 :]
    try:
        parse(mutated)
    except ParseError:
        pass


# "- >" is a '-' then a '>' that no token starts with; the whitespace
# includes what str.isspace accepts beyond ASCII, and 'é', '٣' and '$' are
# letters, a digit and a symbol outside the token alphabet
TOKEN_PIECES = (["->", "- >", "#", "/", " ", "\t", "\x0b", "\x1c", "\u00a0", "\u2003",
                 "é", "٣", "$"]
                + list(":=[],*+-") + list("0123456789")
                + list("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_"))


def _tokens_or_error(tokenize, line, lineno):
    try:
        return [(tok.text, tok.line, tok.col) for tok in tokenize(line, lineno)]
    except ParseError as err:
        return (err.code, err.message, err.line, err.col)


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES), max_size=30).map("".join), st.integers(1, 500))
def test_tokenizer_matches_character_loop_reference(line, lineno):
    assert (_tokens_or_error(_tokenize, line, lineno)
            == _tokens_or_error(reference_tokenize, line, lineno))


def _words_or_error(line, lineno):
    try:
        return _words(line, lineno)
    except ParseError as err:
        return (err.code, err.message, err.line, err.col)


# '>' on its own, after '-' and after "->" exercises the one character that
# starts no token yet belongs to one
@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(TOKEN_PIECES + [">"]), max_size=30).map("".join), st.integers(1, 500))
def test_word_list_matches_character_loop_reference(line, lineno):
    expected = _tokens_or_error(reference_tokenize, line, lineno)
    if isinstance(expected, list):
        expected = [tok[0] for tok in expected]
    assert _words_or_error(line, lineno) == expected


def test_serialize_report_leaves_no_reference_cycles():
    report = classify(load_source("kx3_f5.alg"), "V")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        blob = serialize_report(report)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert blob.startswith('{\n  "input_digest": ') and blob.endswith("\n}\n")


# ----------------------------------------------------------------------
# the report's text


@st.composite
def report_matrices(draw):
    """A Matrix over F_2, F_5 or Q, zero rows and zero columns included."""
    field = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]))
    values = (st.sampled_from([0, 0, 1, -1, Fraction(1, 2), Fraction(-7, 3)]) if field.p is None
              else st.integers(0, field.p - 1))
    nrows, ncols = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rows = [{j: x for j in range(ncols) if (x := field.scalar(draw(values)))} for _ in range(nrows)]
    return Matrix(field, nrows, ncols, rows)


@settings(max_examples=300, deadline=None)
@given(report_matrices())
@example(Matrix(FieldSpec.rationals(), 0, 3, []))
@example(Matrix(FieldSpec.prime(5), 2, 0, [{}, {}]))
@example(Matrix.from_rows(FieldSpec.rationals(), [[0, -1, 0], [Fraction(-7, 3), 0, Fraction(1, 2)]]))
def test_render_matrix_matches_dense_reference(m):
    dense_rows = ["[" + ",".join(format_scalar(x) for x in row) + "]" for row in tolist(m)]
    assert render_matrix(m) == "[" + ",".join(dense_rows) + "]"


def _as_lists(obj):
    """obj with every Matrix as the rows of literals the report holds."""
    if isinstance(obj, Matrix):
        return [[format_scalar(x) for x in row] for row in tolist(obj)]
    if isinstance(obj, dict):
        return {key: _as_lists(value) for key, value in obj.items()}
    return [_as_lists(value) for value in obj] if isinstance(obj, list) else obj


flags = st.none() | st.booleans()
counts = st.none() | st.integers(-2, 10**20)
report_objects = st.fixed_dictionaries({
    "input_digest": st.text(),
    "field": st.sampled_from([{"kind": "rationals"}, {"kind": "prime", "p": 5}]),
    "tangent_dim": st.integers(0, 3),
    "verdict": st.dictionaries(st.sampled_from(["type", "N", "proved", "max_order_checked"]),
                               st.text() | st.integers() | st.booleans()),
    "ladder": st.lists(st.fixed_dictionaries({
        "order": st.integers(1, 50),
        "matrices": st.dictionaries(st.text(max_size=3), report_matrices(), max_size=3)}), max_size=3),
    "checks": st.fixed_dictionaries({"hom_top_dim": counts, "ext_top_dim": counts,
                                     "sigma_nilpotent": flags, "first_order_nontrivial": flags}),
    "notes": st.lists(st.text(), max_size=4),
})


@settings(max_examples=300, deadline=None)
@given(report_objects)
def test_report_writer_matches_json_dumps(obj):
    out = []
    _write_json(obj, out)
    assert "".join(out) == json.dumps(_as_lists(obj), indent=2)


@pytest.mark.parametrize("obj", [
    {"notes": ["\u00e9t\u00e9 \u2192 \U0001d538", 'a "quoted" \\ back\\slash', "tab\tnew\nline\x00"]},
    {"ladder": [], "notes": []},
    {"ladder": [{"order": 1, "matrices": {"x": Matrix(FieldSpec.prime(3), 0, 2, []),
                                          "y": Matrix(FieldSpec.prime(3), 2, 0, [{}, {}])}}]},
    {"checks": {"hom_top_dim": None, "ext_top_dim": 0, "sigma_nilpotent": True,
                "first_order_nontrivial": False}},
], ids=["escaped-notes", "empty-ladder", "zero-row-and-zero-column-matrices", "checks-literals"])
def test_report_writer_matches_json_dumps_on_edge_cases(obj):
    out = []
    _write_json(obj, out)
    assert "".join(out) == json.dumps(_as_lists(obj), indent=2)


def test_report_writer_refuses_values_a_report_does_not_hold():
    for value in (1.5, (1, 2), {1: "x"}):
        with pytest.raises(TypeError):
            _write_json({"notes": [value]}, [])
