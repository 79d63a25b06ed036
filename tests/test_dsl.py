import gc
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import ParseError, classify, parse, print_source, serialize_report
from defring.dsl import _tokenize, _write_json
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
