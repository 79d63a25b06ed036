"""Line-oriented input language and report serialization.

An input file declares one coefficient field, one quiver, an optional
truncation bound, optional relations, and any number of named modules.
Comments run from '#' to end of line.  Every diagnostic carries a line and
column; parsing never raises anything except ParseError on bad input.

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

# after any whitespace: a token (group 1), the start of a comment (group 2)
# or a character no token can start with (group 3); a run of whitespace at
# the end of a line matches nothing
TOKEN_RE = re.compile(r"\s*(?:(->|[:=\[\],*+\-]|[A-Za-z0-9_/]+)|(#)|(\S))")
# the Token of one tuple, built in C: Token(...) runs a Python-level __new__
_new_token = tuple.__new__


def _tokenize(text: str, lineno: int) -> list:
    tokens = []
    for m in TOKEN_RE.finditer(text):
        kind = m.lastindex
        if kind == 1:
            tokens.append(_new_token(Token, (m[1], lineno, m.start(1) + 1)))
        elif kind == 2:
            break
        else:
            raise ParseError("syntax", f"unexpected character {m[3]!r}", lineno, m.start(3) + 1)
    return tokens


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
        self.field: FieldSpec | None = None
        self.field_line = None
        self.vertices: list = []
        self.arrows: list = []
        self.quiver_seen = False
        self.truncate: int | None = None
        self.relations: list = []
        self.relations_header: Token | None = None
        self.modules: dict = {}
        self.section = None  # None | "quiver" | "relations" | module name
        # raw module lines, resolved after dims are known
        self.module_dims: dict = {}
        self.module_mats: dict = {}
        self.literals: dict = {}  # [-]literal text -> its field value, once checked

    def fail(self, code, message, token: Token):
        raise ParseError(code, message, token.line, token.col)

    # ------------------------------------------------------------------
    # line dispatch

    def run(self) -> SourceFile:
        for lineno, raw in enumerate(self.lines, start=1):
            tokens = _tokenize(raw, lineno)
            if not tokens:
                continue
            self.dispatch(tokens)
        return self.finish()

    def dispatch(self, tokens: list):
        head = tokens[0]
        if head.text in KEYWORDS:
            getattr(self, "line_" + head.text)(tokens)
            return
        if self.section == "relations":
            self.relation_line(tokens)
            return
        self.fail("syntax", f"unexpected {head.text!r}", head)

    def expect(self, tokens, idx, what, text=None):
        if idx >= len(tokens):
            last = tokens[-1]
            raise ParseError("syntax", f"expected {what}", last.line, last.col + len(last.text))
        tok = tokens[idx]
        if text is not None and tok.text != text:
            self.fail("syntax", f"expected {what}, found {tok.text!r}", tok)
        return tok

    def end_of_line(self, tokens, idx):
        if idx < len(tokens):
            self.fail("syntax", f"trailing {tokens[idx].text!r}", tokens[idx])

    # ------------------------------------------------------------------
    # directives

    def line_field(self, tokens):
        head = tokens[0]
        if self.field is not None:
            self.fail("duplicate-name", "field declared twice", head)
        kind = self.expect(tokens, 1, "Q or F")
        if kind.text == "Q":
            self.end_of_line(tokens, 2)
            self.field = FieldSpec.rationals()
        elif kind.text == "F":
            ptok = self.expect(tokens, 2, "prime modulus")
            self.end_of_line(tokens, 3)
            if not ptok.text.isdigit():
                self.fail("bad-modulus", f"modulus must be an integer, found {ptok.text!r}", ptok)
            try:
                self.field = FieldSpec.prime(int(ptok.text))
            except ValueError as exc:
                self.fail("bad-modulus", str(exc), ptok)
        else:
            self.fail("syntax", f"unknown field {kind.text!r}", kind)
        self.section = None

    def line_quiver(self, tokens):
        if self.quiver_seen:
            self.fail("duplicate-name", "quiver declared twice", tokens[0])
        self.end_of_line(tokens, 1)
        self.quiver_seen = True
        self.section = "quiver"

    def line_vertex(self, tokens):
        if self.section != "quiver":
            self.fail("syntax", "vertex outside quiver block", tokens[0])
        if len(tokens) == 1:
            self.fail("syntax", "vertex needs at least one name", tokens[0])
        for tok in tokens[1:]:
            if tok.text in SYMBOLS:
                self.fail("syntax", f"bad vertex name {tok.text!r}", tok)
            if tok.text in KEYWORDS:
                self.fail("syntax", f"vertex name {tok.text!r} is reserved", tok)
            if tok.text in self.vertices:
                self.fail("duplicate-name", f"vertex {tok.text!r} already declared", tok)
            self.vertices.append(tok.text)

    def line_arrow(self, tokens):
        if self.section != "quiver":
            self.fail("syntax", "arrow outside quiver block", tokens[0])
        name = self.expect(tokens, 1, "arrow name")
        self.expect(tokens, 2, "':'", ":")
        src = self.expect(tokens, 3, "source vertex")
        self.expect(tokens, 4, "'->'", "->")
        tgt = self.expect(tokens, 5, "target vertex")
        self.end_of_line(tokens, 6)
        if not IDENT_RE.match(name.text) or name.text in KEYWORDS:
            self.fail("syntax", f"bad arrow name {name.text!r}", name)
        if any(a.name == name.text for a in self.arrows):
            self.fail("duplicate-name", f"arrow {name.text!r} already declared", name)
        for tok in (src, tgt):
            if tok.text not in self.vertices:
                self.fail("unknown-vertex", f"unknown vertex {tok.text!r}", tok)
        self.arrows.append(Arrow(name.text, src.text, tgt.text))

    def line_truncate(self, tokens):
        if self.truncate is not None:
            self.fail("duplicate-name", "truncate declared twice", tokens[0])
        mtok = self.expect(tokens, 1, "positive bound")
        self.end_of_line(tokens, 2)
        if not mtok.text.isdigit() or int(mtok.text) < 1:
            self.fail("syntax", f"truncate bound must be a positive integer, found {mtok.text!r}", mtok)
        self.truncate = int(mtok.text)
        self.section = None

    def line_relations(self, tokens):
        if self.relations_header is not None:
            self.fail("duplicate-name", "relations declared twice", tokens[0])
        self.end_of_line(tokens, 1)
        self.relations_header = tokens[0]
        self.section = "relations"

    def line_module(self, tokens):
        name = self.expect(tokens, 1, "module name")
        self.end_of_line(tokens, 2)
        if name.text in SYMBOLS or name.text in KEYWORDS:
            self.fail("syntax", f"bad module name {name.text!r}", name)
        if name.text in self.modules:
            self.fail("duplicate-name", f"module {name.text!r} already declared", name)
        self.modules[name.text] = name
        self.module_dims[name.text] = {}
        self.module_mats[name.text] = {}
        self.section = ("module", name.text)

    def current_module(self, head: Token) -> str:
        if not (isinstance(self.section, tuple) and self.section[0] == "module"):
            self.fail("syntax", f"{head.text} outside module block", head)
        return self.section[1]

    def line_dim(self, tokens):
        mod = self.current_module(tokens[0])
        vtok = self.expect(tokens, 1, "vertex name")
        self.expect(tokens, 2, "'='", "=")
        ntok = self.expect(tokens, 3, "dimension")
        self.end_of_line(tokens, 4)
        if vtok.text not in self.vertices:
            self.fail("unknown-vertex", f"unknown vertex {vtok.text!r}", vtok)
        if not ntok.text.isdigit():
            self.fail("syntax", f"dimension must be a nonnegative integer, found {ntok.text!r}", ntok)
        if vtok.text in self.module_dims[mod]:
            self.fail("duplicate-name", f"dim {vtok.text!r} given twice", vtok)
        self.module_dims[mod][vtok.text] = int(ntok.text)

    def line_mat(self, tokens):
        mod = self.current_module(tokens[0])
        atok = self.expect(tokens, 1, "arrow name")
        self.expect(tokens, 2, "'='", "=")
        if not any(a.name == atok.text for a in self.arrows):
            self.fail("unknown-arrow", f"unknown arrow {atok.text!r}", atok)
        if atok.text in self.module_mats[mod]:
            self.fail("duplicate-name", f"mat {atok.text!r} given twice", atok)
        rows, idx = self.parse_matrix(tokens, 3)
        self.end_of_line(tokens, idx)
        self.module_mats[mod][atok.text] = (rows, atok)

    # ------------------------------------------------------------------
    # expression pieces

    def need_field(self, token: Token) -> FieldSpec:
        if self.field is None:
            self.fail("syntax", "field must be declared before scalars are used", token)
        return self.field

    def parse_scalar(self, tokens, idx):
        """Parse [-]literal starting at idx; returns (field value, next_idx)."""
        tok = self.expect(tokens, idx, "scalar")
        negate = False
        if tok.text == "-":
            negate = True
            idx += 1
            tok = self.expect(tokens, idx, "scalar")
        key = "-" + tok.text if negate else tok.text
        value = self.literals.get(key)
        if value is None:
            fld = self.need_field(tok)
            if not NUMERIC_RE.match(tok.text):
                self.fail("bad-scalar-literal", f"bad scalar literal {tok.text!r}", tok)
            try:
                value = fld.parse_literal(tok.text)
            except ValueError as exc:
                self.fail("bad-scalar-literal", str(exc), tok)
            if negate:
                value = fld.scalar(-value)
            self.literals[key] = value
        return value, idx + 1

    def parse_matrix(self, tokens, idx):
        """Parse [[a,b],[c,d]] starting at idx; returns (rows, next_idx)."""
        self.expect(tokens, idx, "'['", "[")
        idx += 1
        rows = []
        tok = self.expect(tokens, idx, "'[' or ']'")
        if tok.text == "]":
            return rows, idx + 1
        literals = self.literals
        n = len(tokens)
        while True:
            self.expect(tokens, idx, "'['", "[")
            idx += 1
            row = []
            tok = self.expect(tokens, idx, "scalar or ']'")
            if tok.text == "]":
                idx += 1
            else:
                while True:
                    # a literal converted before is read without parse_scalar's checks
                    value = literals.get(tokens[idx].text) if idx < n else None
                    if value is None:
                        value, idx = self.parse_scalar(tokens, idx)
                    else:
                        idx += 1
                    row.append(value)
                    separator = tokens[idx].text if idx < n else None
                    if separator == ",":
                        idx += 1
                        continue
                    if separator == "]":
                        idx += 1
                        break
                    tok = self.expect(tokens, idx, "',' or ']'")
                    self.fail("syntax", f"expected ',' or ']', found {tok.text!r}", tok)
            rows.append(row)
            tok = self.expect(tokens, idx, "',' or ']'")
            if tok.text == ",":
                idx += 1
                continue
            if tok.text == "]":
                return rows, idx + 1
            self.fail("syntax", f"expected ',' or ']', found {tok.text!r}", tok)

    def relation_line(self, tokens):
        terms = []
        idx = 0
        first = True
        while idx < len(tokens):
            sign = 1
            tok = tokens[idx]
            if tok.text in ("+", "-"):
                if first and tok.text == "+":
                    self.fail("syntax", "relation cannot start with '+'", tok)
                sign = -1 if tok.text == "-" else 1
                idx += 1
            elif not first:
                self.fail("syntax", f"expected '+' or '-', found {tok.text!r}", tok)
            coeff, path, idx = self.parse_term(tokens, idx)
            if sign < 0:
                coeff = self.field.scalar(-coeff)
            terms.append((coeff, path))
            first = False
        if not terms:
            return
        src, tgt = terms[0][1].source, terms[0][1].target
        for _, p in terms[1:]:
            if (p.source, p.target) != (src, tgt):
                raise ParseError(
                    "mixed-relation-endpoints",
                    f"term {p.label()} runs {p.source} -> {p.target}, expected {src} -> {tgt}",
                    tokens[0].line, tokens[0].col,
                )
        self.relations.append(Relation(tuple(terms), src, tgt, line=tokens[0].line))

    def parse_term(self, tokens, idx):
        """One summand: [coeff *] arrow [* arrow ...]."""
        tok = self.expect(tokens, idx, "coefficient or arrow")
        fld = self.need_field(tok)
        coeff = fld.one()
        if NUMERIC_RE.match(tok.text):
            coeff, idx = self.parse_scalar(tokens, idx)
            self.expect(tokens, idx, "'*'", "*")
            idx += 1
            tok = self.expect(tokens, idx, "arrow name")
        arrow_tokens = [tok]
        idx += 1
        while idx < len(tokens) and tokens[idx].text == "*":
            idx += 1
            arrow_tokens.append(self.expect(tokens, idx, "arrow name"))
            idx += 1
        path = None
        for atok in arrow_tokens:
            arrow = next((a for a in self.arrows if a.name == atok.text), None)
            if arrow is None:
                self.fail("unknown-arrow", f"unknown arrow {atok.text!r}", atok)
            step = Path((arrow,), arrow.source, arrow.target)
            if path is None:
                path = step
            elif path.target != arrow.source:
                self.fail(
                    "non-composable-path",
                    f"{atok.text} starts at {arrow.source}, path so far ends at {path.target}",
                    atok,
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
            hdr = self.relations_header
            raise ParseError(
                "missing-truncation",
                "relations need a truncate bound to present a finite dimensional algebra",
                hdr.line, hdr.col,
            )
        quiver = Quiver(self.vertices, self.arrows)
        modules = {}
        for name in self.modules:
            dims = {v: self.module_dims[name].get(v, 0) for v in quiver.vertices}
            mats = {}
            for arrow in quiver.arrows:
                want_rows = dims[arrow.target]
                want_cols = dims[arrow.source]
                got = self.module_mats[name].get(arrow.name)
                if got is None:
                    mats[arrow.name] = Matrix.zeros(self.field, want_rows, want_cols)
                    continue
                rows, tok = got
                if len(rows) != want_rows or any(len(r) != want_cols for r in rows):
                    shape = f"{len(rows)}x{len(rows[0]) if rows else 0}"
                    raise ParseError(
                        "shape-mismatch",
                        f"mat {arrow.name} must be {want_rows}x{want_cols} "
                        f"(dim {arrow.target} x dim {arrow.source}), found {shape}",
                        tok.line, tok.col,
                    )
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
    rows = []
    for i in range(m.nrows):
        rows.append("[" + ",".join(format_scalar(x) for x in m.row(i)) + "]")
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
