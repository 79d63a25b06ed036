"""Line-oriented input language and report serialization.

An input file declares one coefficient field, one quiver, an optional
truncation bound, optional relations, and any number of named modules.
Comments run from '#' to end of line.  Every diagnostic carries a line and
column; parsing never raises anything except ParseError on bad input.  The
parser reads each line as the plain strings of one regex call; a token's
column is computed only when a diagnostic needs it, by re-reading its line
with the positioned tokenizer.

    field F 5
    quiver
      vertex 1
      arrow x: 1 -> 1
    truncate 2
    module V
      dim 1 = 1
      mat x = [[0]]

Relations are linear combinations of parallel paths ('2*a*b - b*a'); a path
'a*b' means a first, then b.  If any relation is present a truncate bound is
required, which makes the presented algebra finite dimensional and
materialises its basis.  With no relation and no path as long as the bound
(or no bound) the algebra is the path algebra kQ.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field as dc_field
from json.encoder import encode_basestring_ascii as _quote
from typing import NamedTuple

from .fields import FieldSpec, format_scalar
from .linalg import Matrix
from .quiver import Arrow, Path, Quiver

KEYWORDS = {"field", "quiver", "vertex", "arrow", "truncate", "relations", "module", "dim", "mat"}

IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
NUMERIC_RE = re.compile(r"^\d+(/\d+)?$")


class ParseError(Exception):
    """A located diagnostic; code is a stable kebab-case identifier."""

    def __init__(self, code: str, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {code}: {message}")
        self.code = code
        self.message = message
        self.line = line
        self.col = col


class Token(NamedTuple):
    text: str
    line: int
    col: int


SYMBOLS = ("->", ":", "=", "[", "]", ",", "*", "+", "-")

WORD_RE = re.compile(r"->|[:=\[\],*+\-]|[A-Za-z0-9_/]+")
# after any whitespace: a token (group 1), the start of a comment (group 2)
# or a character no token can start with (group 3); a run of whitespace at
# the end of a line matches nothing
TOKEN_RE = re.compile(rf"\s*(?:({WORD_RE.pattern})|(#)|(\S))")
# a character no token can start with: '>' belongs to a token only after '-'
BAD_RE = re.compile(r"[^\s:=\[\],*+\-A-Za-z0-9_/>]|(?<!-)>")


def _tokenize(text: str, lineno: int) -> list:
    """The positioned tokens of one line, the one source of columns."""
    tokens = []
    for m in TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 1:
            tokens.append(Token(m[1], lineno, m.start(1) + 1))
        elif kind == 2:
            break
        else:
            raise ParseError("syntax", f"unexpected character {m[3]!r}", lineno, m.start(3) + 1)
    return tokens


def _words(text: str, lineno: int) -> list:
    """The token texts of one line, _tokenize's without their positions."""
    code = text.partition("#")[0]
    if BAD_RE.search(code):
        _tokenize(text, lineno)  # raises at the bad character
    return WORD_RE.findall(code)


@dataclass(frozen=True)
class Relation:
    """A linear combination of parallel paths, declared equal to zero.
    Two relations are equal when their terms are."""

    terms: tuple
    source: str = dc_field(compare=False)
    target: str = dc_field(compare=False)
    line: int = dc_field(default=0, compare=False)

    def label(self) -> str:
        return render_relation(self)


@dataclass
class ModuleDef:
    """Dimension vector and arrow matrices for one named module."""

    name: str
    dims: dict
    mats: dict


@dataclass
class SourceFile:
    field: FieldSpec
    quiver: Quiver
    truncate: int | None
    relations: list
    modules: dict
    name: str = dc_field(default="<input>", compare=False)


class _Parser:
    def __init__(self, text: str, filename: str):
        self.filename = filename
        self.lines = text.splitlines()
        self.lineno = 0
        self.field: FieldSpec | None = None
        self.vertices: list = []
        self.arrows: list = []
        self.quiver_seen = False
        self.truncate: int | None = None
        self.relations: list = []
        self.relations_line: int | None = None
        self.section = None  # None | "quiver" | "relations" | module name
        # raw module lines, resolved after dims are known
        self.module_dims: dict = {}
        self.module_mats: dict = {}
        self.literals: dict = {}  # [-]literal text -> its field value, once checked

    def fail(self, code, message, idx, lineno=None):
        """Raise at the column of token idx of a line, the current one by
        default; an idx past the last token points just after it."""
        lineno = lineno or self.lineno
        tokens = _tokenize(self.lines[lineno - 1], lineno)
        if idx < len(tokens):
            raise ParseError(code, message, lineno, tokens[idx].col)
        last = tokens[-1]
        raise ParseError(code, message, lineno, last.col + len(last.text))

    # ------------------------------------------------------------------
    # line dispatch

    def run(self) -> SourceFile:
        for lineno, raw in enumerate(self.lines, start=1):
            tokens = _words(raw, lineno)
            if tokens:
                self.lineno = lineno
                self.dispatch(tokens)
        return self.finish()

    def dispatch(self, tokens: list):
        head = tokens[0]
        if head in KEYWORDS:
            getattr(self, "line_" + head)(tokens)
            return
        if self.section == "relations":
            self.relation_line(tokens)
            return
        self.fail("syntax", f"unexpected {head!r}", 0)

    def expect(self, tokens, idx, what, text=None):
        if idx >= len(tokens):
            self.fail("syntax", f"expected {what}", idx)
        tok = tokens[idx]
        if text is not None and tok != text:
            self.fail("syntax", f"expected {what}, found {tok!r}", idx)
        return tok

    def end_of_line(self, tokens, idx):
        if idx < len(tokens):
            self.fail("syntax", f"trailing {tokens[idx]!r}", idx)

    # ------------------------------------------------------------------
    # directives

    def line_field(self, tokens):
        if self.field is not None:
            self.fail("duplicate-name", "field declared twice", 0)
        kind = self.expect(tokens, 1, "Q or F")
        if kind == "Q":
            self.end_of_line(tokens, 2)
            self.field = FieldSpec.rationals()
        elif kind == "F":
            modulus = self.expect(tokens, 2, "prime modulus")
            self.end_of_line(tokens, 3)
            if not modulus.isdigit():
                self.fail("bad-modulus", f"modulus must be an integer, found {modulus!r}", 2)
            try:
                self.field = FieldSpec.prime(int(modulus))
            except ValueError as exc:
                self.fail("bad-modulus", str(exc), 2)
        else:
            self.fail("syntax", f"unknown field {kind!r}", 1)
        self.section = None

    def line_quiver(self, tokens):
        if self.quiver_seen:
            self.fail("duplicate-name", "quiver declared twice", 0)
        self.end_of_line(tokens, 1)
        self.quiver_seen = True
        self.section = "quiver"

    def line_vertex(self, tokens):
        if self.section != "quiver":
            self.fail("syntax", "vertex outside quiver block", 0)
        if len(tokens) == 1:
            self.fail("syntax", "vertex needs at least one name", 0)
        for idx, name in enumerate(tokens[1:], start=1):
            if name in SYMBOLS:
                self.fail("syntax", f"bad vertex name {name!r}", idx)
            if name in KEYWORDS:
                self.fail("syntax", f"vertex name {name!r} is reserved", idx)
            if name in self.vertices:
                self.fail("duplicate-name", f"vertex {name!r} already declared", idx)
            self.vertices.append(name)

    def line_arrow(self, tokens):
        if self.section != "quiver":
            self.fail("syntax", "arrow outside quiver block", 0)
        name = self.expect(tokens, 1, "arrow name")
        self.expect(tokens, 2, "':'", ":")
        self.expect(tokens, 3, "source vertex")
        self.expect(tokens, 4, "'->'", "->")
        self.expect(tokens, 5, "target vertex")
        self.end_of_line(tokens, 6)
        if not IDENT_RE.match(name) or name in KEYWORDS:
            self.fail("syntax", f"bad arrow name {name!r}", 1)
        if any(a.name == name for a in self.arrows):
            self.fail("duplicate-name", f"arrow {name!r} already declared", 1)
        for idx in (3, 5):
            if tokens[idx] not in self.vertices:
                self.fail("unknown-vertex", f"unknown vertex {tokens[idx]!r}", idx)
        self.arrows.append(Arrow(name, tokens[3], tokens[5]))

    def line_truncate(self, tokens):
        if self.truncate is not None:
            self.fail("duplicate-name", "truncate declared twice", 0)
        bound = self.expect(tokens, 1, "positive bound")
        self.end_of_line(tokens, 2)
        if not bound.isdigit() or int(bound) < 1:
            self.fail("syntax", f"truncate bound must be a positive integer, found {bound!r}", 1)
        self.truncate = int(bound)
        self.section = None

    def line_relations(self, tokens):
        if self.relations_line is not None:
            self.fail("duplicate-name", "relations declared twice", 0)
        self.end_of_line(tokens, 1)
        self.relations_line = self.lineno
        self.section = "relations"

    def line_module(self, tokens):
        name = self.expect(tokens, 1, "module name")
        self.end_of_line(tokens, 2)
        if name in SYMBOLS or name in KEYWORDS:
            self.fail("syntax", f"bad module name {name!r}", 1)
        if name in self.module_dims:
            self.fail("duplicate-name", f"module {name!r} already declared", 1)
        self.module_dims[name] = {}
        self.module_mats[name] = {}
        self.section = ("module", name)

    def current_module(self, head: str) -> str:
        if not (isinstance(self.section, tuple) and self.section[0] == "module"):
            self.fail("syntax", f"{head} outside module block", 0)
        return self.section[1]

    def line_dim(self, tokens):
        mod = self.current_module(tokens[0])
        vertex = self.expect(tokens, 1, "vertex name")
        self.expect(tokens, 2, "'='", "=")
        dim = self.expect(tokens, 3, "dimension")
        self.end_of_line(tokens, 4)
        if vertex not in self.vertices:
            self.fail("unknown-vertex", f"unknown vertex {vertex!r}", 1)
        if not dim.isdigit():
            self.fail("syntax", f"dimension must be a nonnegative integer, found {dim!r}", 3)
        if vertex in self.module_dims[mod]:
            self.fail("duplicate-name", f"dim {vertex!r} given twice", 1)
        self.module_dims[mod][vertex] = int(dim)

    def line_mat(self, tokens):
        mod = self.current_module(tokens[0])
        arrow = self.expect(tokens, 1, "arrow name")
        self.expect(tokens, 2, "'='", "=")
        if not any(a.name == arrow for a in self.arrows):
            self.fail("unknown-arrow", f"unknown arrow {arrow!r}", 1)
        if arrow in self.module_mats[mod]:
            self.fail("duplicate-name", f"mat {arrow!r} given twice", 1)
        rows, idx = self.parse_matrix(tokens, 3)
        self.end_of_line(tokens, idx)
        self.module_mats[mod][arrow] = (rows, self.lineno)

    # ------------------------------------------------------------------
    # expression pieces

    def need_field(self, idx) -> FieldSpec:
        if self.field is None:
            self.fail("syntax", "field must be declared before scalars are used", idx)
        return self.field

    def parse_scalar(self, tokens, idx):
        """Parse [-]literal starting at idx; returns (field value, next_idx)."""
        tok = self.expect(tokens, idx, "scalar")
        negate = False
        if tok == "-":
            negate = True
            idx += 1
            tok = self.expect(tokens, idx, "scalar")
        key = "-" + tok if negate else tok
        value = self.literals.get(key)
        if value is None:
            fld = self.need_field(idx)
            if not NUMERIC_RE.match(tok):
                self.fail("bad-scalar-literal", f"bad scalar literal {tok!r}", idx)
            try:
                value = fld.parse_literal(tok)
            except ValueError as exc:
                self.fail("bad-scalar-literal", str(exc), idx)
            if negate:
                value = fld.scalar(-value)
            self.literals[key] = value
        return value, idx + 1

    def parse_matrix(self, tokens, idx):
        """Parse [[a,b],[c,d]] starting at idx; returns (rows, next_idx)."""
        self.expect(tokens, idx, "'['", "[")
        idx += 1
        rows = []
        if self.expect(tokens, idx, "'[' or ']'") == "]":
            return rows, idx + 1
        literals = self.literals
        n = len(tokens)
        while True:
            self.expect(tokens, idx, "'['", "[")
            idx += 1
            row = []
            if self.expect(tokens, idx, "scalar or ']'") == "]":
                idx += 1
            else:
                while True:
                    # a literal converted before is read without parse_scalar's checks
                    value = literals.get(tokens[idx]) if idx < n else None
                    if value is None:
                        value, idx = self.parse_scalar(tokens, idx)
                    else:
                        idx += 1
                    row.append(value)
                    separator = tokens[idx] if idx < n else None
                    if separator == ",":
                        idx += 1
                        continue
                    if separator == "]":
                        idx += 1
                        break
                    tok = self.expect(tokens, idx, "',' or ']'")
                    self.fail("syntax", f"expected ',' or ']', found {tok!r}", idx)
            rows.append(row)
            tok = self.expect(tokens, idx, "',' or ']'")
            if tok == ",":
                idx += 1
                continue
            if tok == "]":
                return rows, idx + 1
            self.fail("syntax", f"expected ',' or ']', found {tok!r}", idx)

    def relation_line(self, tokens):
        terms = []
        idx = 0
        while idx < len(tokens):
            sign = 1
            tok = tokens[idx]
            if tok in ("+", "-"):
                if not terms and tok == "+":
                    self.fail("syntax", "relation cannot start with '+'", idx)
                sign = -1 if tok == "-" else 1
                idx += 1
            elif terms:
                self.fail("syntax", f"expected '+' or '-', found {tok!r}", idx)
            coeff, path, idx = self.parse_term(tokens, idx)
            if sign < 0:
                coeff = self.field.scalar(-coeff)
            terms.append((coeff, path))
        src, tgt = terms[0][1].source, terms[0][1].target
        for _, p in terms[1:]:
            if (p.source, p.target) != (src, tgt):
                self.fail("mixed-relation-endpoints",
                          f"term {p.label()} runs {p.source} -> {p.target}, expected {src} -> {tgt}", 0)
        self.relations.append(Relation(tuple(terms), src, tgt, line=self.lineno))

    def parse_term(self, tokens, idx):
        """One summand: [coeff *] arrow [* arrow ...]."""
        tok = self.expect(tokens, idx, "coefficient or arrow")
        fld = self.need_field(idx)
        coeff = fld.one()
        if NUMERIC_RE.match(tok):
            coeff, idx = self.parse_scalar(tokens, idx)
            self.expect(tokens, idx, "'*'", "*")
            idx += 1
            self.expect(tokens, idx, "arrow name")
        arrow_at = [idx]
        idx += 1
        while idx < len(tokens) and tokens[idx] == "*":
            idx += 1
            self.expect(tokens, idx, "arrow name")
            arrow_at.append(idx)
            idx += 1
        path = None
        for at in arrow_at:
            arrow = next((a for a in self.arrows if a.name == tokens[at]), None)
            if arrow is None:
                self.fail("unknown-arrow", f"unknown arrow {tokens[at]!r}", at)
            step = Path((arrow,), arrow.source, arrow.target)
            if path is None:
                path = step
            elif path.target != arrow.source:
                self.fail(
                    "non-composable-path",
                    f"{tokens[at]} starts at {arrow.source}, path so far ends at {path.target}",
                    at,
                )
            else:
                path = path.then(step)
        return coeff, path, idx

    # ------------------------------------------------------------------
    # final assembly

    def finish(self) -> SourceFile:
        if self.field is None:
            raise ParseError("syntax", "missing field declaration", 1, 1)
        if not self.quiver_seen:
            raise ParseError("syntax", "missing quiver block", 1, 1)
        if self.relations and self.truncate is None:
            self.fail("missing-truncation",
                      "relations need a truncate bound to present a finite dimensional algebra",
                      0, self.relations_line)
        quiver = Quiver(self.vertices, self.arrows)
        modules = {}
        for name, declared in self.module_dims.items():
            dims = {v: declared.get(v, 0) for v in quiver.vertices}
            mats = {}
            for arrow in quiver.arrows:
                want_rows = dims[arrow.target]
                want_cols = dims[arrow.source]
                got = self.module_mats[name].get(arrow.name)
                if got is None:
                    mats[arrow.name] = Matrix.zeros(self.field, want_rows, want_cols)
                    continue
                rows, lineno = got
                if len(rows) != want_rows or any(len(r) != want_cols for r in rows):
                    shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
                    self.fail("shape-mismatch",
                              f"mat {arrow.name} must be {want_rows}x{want_cols} "
                              f"(dim {arrow.target} x dim {arrow.source}), found {shape}",
                              1, lineno)
                mats[arrow.name] = Matrix.from_rows(self.field, rows) if rows else Matrix.zeros(self.field, 0, want_cols)
            modules[name] = ModuleDef(name, dims, mats)
        return SourceFile(self.field, quiver, self.truncate, list(self.relations), modules, self.filename)


def parse(text: str, filename: str = "<input>") -> SourceFile:
    """Parse input text; raises ParseError with line and column on bad input."""
    return _Parser(text, filename).run()


# ----------------------------------------------------------------------
# canonical printing


def render_term(coeff, path: Path) -> str:
    if coeff == 1:
        return path.label()
    return f"{format_scalar(coeff)}*{path.label()}"


def render_relation(rel: Relation) -> str:
    parts = []
    for i, (coeff, path) in enumerate(rel.terms):
        # canonical values are negative only over Q
        if coeff < 0:
            text = render_term(-coeff, path)
            parts.append(("-" + text) if i == 0 else ("- " + text))
        else:
            text = render_term(coeff, path)
            parts.append(text if i == 0 else "+ " + text)
    return " ".join(parts)


def render_matrix(m: Matrix) -> str:
    """[[a,b],[c,d]], read off the sparse rows."""
    zero = format_scalar(m.field.zero())
    rows = []
    for row in m.rows:
        cells = [zero] * m.ncols
        for j, x in row.items():
            cells[j] = format_scalar(x)
        rows.append("[" + ",".join(cells) + "]")
    return "[" + ",".join(rows) + "]"


def print_source(src: SourceFile) -> str:
    """Canonical text for a parsed file; parse(print_source(s)) == s."""
    out = []
    if src.field.p is None:
        out.append("field Q")
    else:
        out.append(f"field F {src.field.p}")
    out.append("quiver")
    out.append("  vertex " + " ".join(src.quiver.vertices))
    for a in src.quiver.arrows:
        out.append(f"  arrow {a.name}: {a.source} -> {a.target}")
    if src.truncate is not None:
        out.append(f"truncate {src.truncate}")
    if src.relations:
        out.append("relations")
        for rel in src.relations:
            out.append("  " + render_relation(rel))
    for mod in src.modules.values():
        out.append(f"module {mod.name}")
        for v in src.quiver.vertices:
            out.append(f"  dim {v} = {mod.dims[v]}")
        for a in src.quiver.arrows:
            out.append(f"  mat {a.name} = {render_matrix(mod.mats[a.name])}")
    return "\n".join(out) + "\n"


# ----------------------------------------------------------------------
# report serialization


def field_to_json(field: FieldSpec) -> dict:
    if field.p is None:
        return {"kind": "rationals"}
    return {"kind": "prime", "p": field.p}


def _write_json(obj, out: list, indent: str = ""):
    """Append the text of json.dumps(obj, indent=2) at this indent; a Matrix
    is written as its rows of scalar literals, read off its sparse rows.
    json.dumps with an indent runs the pure-Python encoder, whose nested
    closures leave a reference cycle behind on every call."""
    kind = obj.__class__
    if kind is str:
        out.append(_quote(obj))
    elif kind is dict or kind is list:
        inner, keyed = indent + "  ", kind is dict
        out.append("{" if keyed else "[")
        for k, item in enumerate(obj.items() if keyed else obj):
            out += (",\n" if k else "\n", inner, _quote(item[0]) + ": " if keyed else "")
            _write_json(item[1] if keyed else item, out, inner)
        out += ("\n" + indent if obj else "", "}" if keyed else "]")
    elif kind is Matrix:
        inner, cell = indent + "  ", indent + "    "
        zero = cell + _quote(format_scalar(obj.field.zero()))
        rows = []
        for row in obj.rows:
            cells = [zero] * obj.ncols
            for j, x in row.items():
                cells[j] = cell + _quote(format_scalar(x))
            rows.append("[\n" + ",\n".join(cells) + "\n" + inner + "]" if cells else "[]")
        out.append("[\n" + inner + (",\n" + inner).join(rows) + "\n" + indent + "]" if rows else "[]")
    elif obj is None or obj is True or obj is False:
        out.append("null" if obj is None else "true" if obj else "false")
    else:  # an int: int.__repr__ raises TypeError for anything else
        out.append(int.__repr__(obj))


def verdict_to_json(verdict) -> dict:
    """The report's verdict object; the reason is a note, not part of it."""
    obj = {"type": verdict.type, "N": verdict.n, "proved": verdict.proved,
           "max_order_checked": verdict.max_order_checked}
    return {key: value for key, value in obj.items() if value is not None}


def serialize_report(report) -> str:
    """Deterministic JSON text for a classification report.

    Key order is fixed by construction, scalars are rendered as literal
    strings, and nothing time- or environment-dependent is included, so
    two runs on the same input produce identical bytes.
    """
    tuples = report.ladder.coefficient_tuples() if report.ladder is not None else []
    ladder = [{"order": order, "matrices": mats} for order, mats in enumerate(tuples, start=1)]
    obj = {
        "input_digest": report.input_digest,
        "field": field_to_json(report.field),
        "tangent_dim": report.tangent_dim,
        "verdict": verdict_to_json(report.verdict),
        "ladder": ladder,
        "checks": asdict(report.checks),
        "notes": list(report.notes),
    }
    out = []
    _write_json(obj, out)
    return "".join(out) + "\n"


def report_to_text(report) -> str:
    """Human-readable summary of a classification report."""
    lines = [
        f"input digest: {report.input_digest}",
        f"module: {report.module_name}   field: {report.field!r}",
        f"tangent dimension: {report.tangent_dim}",
    ]
    v = report.verdict
    if v.type == "finite":
        lines.append(f"ladder: terminated at order {v.n}; the chain obstructs at order {v.n + 1}")
        lines.append(f"verdict: R^w ≅ k[[t]]/(t^{v.n + 1}) ({'proved' if v.proved else 'not proved'})")
    elif v.type == "power_series":
        qual = "proved" if v.proved else f"unobstructed through order {v.max_order_checked}, not proved"
        lines.append(f"verdict: R^w ≅ k[[t]] ({qual})")
    elif v.type == "point":
        lines.append("verdict: R^w ≅ k")
    elif v.type == "inconclusive":
        lines.append(f"verdict: inconclusive ({v.reason})")
    else:
        lines.append(f"verdict: out of scope ({v.reason})")
    c = report.checks
    if c.hom_top_dim is not None:
        lines.append(f"top of ladder: dim Hom = {c.hom_top_dim}, dim Ext^1 = {c.ext_top_dim}")
    if c.sigma_nilpotent is not None:
        lines.append(f"shift endomorphism checks: {'ok' if c.sigma_nilpotent else 'FAILED'}")
    if c.first_order_nontrivial is not None:
        lines.append(f"first-order class nontrivial: {'yes' if c.first_order_nontrivial else 'NO'}")
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
