"""Exact linear algebra over a FieldSpec, on sparse rows.

A Matrix holds plain field values in canonical form: `int` residues in
0..p-1 over F_p and `Fraction`s over Q (see fields.py).  It stores them as
sparse rows, one {column: value} dict per row that holds only the nonzero
entries; a zero row is an empty dict and keeps its index.  `from_rows` and
`from_dicts` bring entries into that form; the bare constructor trusts its
input.  `+`, `-`, negation, `scale` and `*` form each output row in one
pass that reduces each new value (`% p` over F_p, zeros dropped), so what
is handed out is always canonical.  A result may share row dicts with its
operands (a product's row with one entry 1 is a row of the other factor),
so nothing changes a Matrix or its rows after construction.  `*` visits
only nonzero entries; `power` squares and multiplies with it.  Every
vector taken or handed out is held as a row is, an {index: value} dict of
nonzero canonical values; `row`, `column`, `tolist` and `apply` are dense
read-outs, for printing and tests.

Linear systems are row-reduced sparsely by one kernel, the forward pass
`echelon`; a rank or a span to reduce against needs nothing more, and
`rref` back-substitutes it.  The reduced row echelon form of a matrix is
unique, so pivots, reduced rows, kernel bases (one vector per free column,
that column set to 1) and particular solutions (free variables set to 0)
are canonical for a given input, whatever order the elimination visits rows
in.  Infeasibility of a linear system is a value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldMismatch, FieldSpec, format_scalar

def _canonical(field: FieldSpec, entries) -> list:
    """Entries (ints or Fractions) as canonical values of field."""
    p = field.p
    scalar = field.scalar
    if p is None:
        return [x if x.__class__ is Fraction else scalar(x) for x in entries]
    return [x % p if x.__class__ is int else scalar(x) for x in entries]


def _dense(row: dict, ncols: int, zero) -> list:
    """The ncols values of a sparse row."""
    out = [zero] * ncols
    for j, x in row.items():
        out[j] = x
    return out


def _scaled(row: dict, c, p) -> dict:
    """c * row for a nonzero canonical c: over a field no product is zero."""
    return {j: c * x % p for j, x in row.items()} if p else {j: c * x for j, x in row.items()}


def _add_scaled(entries: dict, c, part: dict) -> dict:
    """entries += c * part, in place, for {column: value} dicts; values are
    not reduced and zeros are kept."""
    for col, y in part.items():
        y = y if c == 1 else c * y
        entries[col] = entries[col] + y if col in entries else y
    return entries


class Matrix:
    """Immutable nrows x ncols matrix of canonical field values, one {column:
    value} dict of nonzero entries per row; rows may be shared, never changed."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows: list):
        assert len(rows) == nrows
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        out = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            out.append({j: x for j, x in enumerate(_canonical(field, r)) if x})
        return cls(field, nrows, ncols, out)

    @classmethod
    def from_dicts(cls, field: FieldSpec, ncols: int, rows: list) -> "Matrix":
        """Rows of {column: int or Fraction}, reduced into field, zeros dropped."""
        p = field.p
        if p:
            rows = [{j: y for j, x in row.items() if (y := x % p)} for row in rows]
        else:
            scalar = field.scalar
            rows = [{j: x if x.__class__ is Fraction else scalar(x) for j, x in row.items() if x}
                    for row in rows]
        return cls(field, len(rows), ncols, rows)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, [{} for _ in range(nrows)])

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        one = field.one()
        return cls(field, n, n, [{i: one} for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i].get(j, self.field.zero())

    def row(self, i: int) -> tuple:
        return tuple(_dense(self.rows[i], self.ncols, self.field.zero()))

    def column(self, j: int) -> tuple:
        zero = self.field.zero()
        return tuple(row.get(j, zero) for row in self.rows)

    def tolist(self) -> list:
        zero = self.field.zero()
        return [_dense(row, self.ncols, zero) for row in self.rows]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(map(format_scalar, self.row(i))) + "]"
                         for i in range(self.nrows))
        return f"Matrix({self.nrows}x{self.ncols}, [{rows}])"

    def is_zero(self) -> bool:
        return not any(self.rows)

    def _same_field(self, other: "Matrix"):
        if other.field is not self.field and other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _termwise(self, other: "Matrix", c) -> "Matrix":
        """self + c * other, c = 1 or -1, one pass per row; a zero row takes
        the other side's row."""
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        self._same_field(other)
        p = self.field.p
        rows = []
        for a, b in zip(self.rows, other.rows):
            if not b or not a and c == 1:
                rows.append(b or a)
                continue
            row = dict(a)
            for j, y in b.items():
                y = y if c == 1 else p - y if p else -y
                if j in row and not (y := (row[j] + y) % p if p else row[j] + y):
                    del row[j]
                else:
                    row[j] = y
            rows.append(row)
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._termwise(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._termwise(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c, p = self.field.scalar(c), self.field.p
        rows = [_scaled(row, c, p) for row in self.rows] if c else [{} for _ in self.rows]
        return Matrix(self.field, self.nrows, self.ncols, rows)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """A row with one entry c takes c times a row of other, that row itself
        when c is 1; a longer row sums its products, then reduces them."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        self._same_field(other)
        p = self.field.p
        b = other.rows
        out = []
        for row in self.rows:
            if len(row) == 1:
                [(k, x)] = row.items()
                out.append(b[k] if x == 1 else _scaled(b[k], x, p))
                continue
            acc = {}
            for k, x in row.items():
                for j, y in b[k].items():
                    acc[j] = acc[j] + x * y if j in acc else x * y
            out.append({j: y for j, x in acc.items() if (y := x % p)} if p else
                       {j: x for j, x in acc.items() if x})
        return Matrix(self.field, self.nrows, other.ncols, out)

    def power(self, n: int) -> "Matrix":
        """self^n by square-and-multiply: floor(log2 n) + popcount(n) - 1 products."""
        assert self.nrows == self.ncols and n >= 0
        if not n:
            return Matrix.identity(self.field, self.nrows)
        out = self
        for bit in bin(n)[3:]:
            out = out * out * self if bit == "1" else out * out
        return out

    def transpose(self) -> "Matrix":
        columns = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                columns[j][i] = x
        return Matrix(self.field, self.ncols, self.nrows, columns)

    def apply(self, v) -> tuple:
        assert len(v) == self.ncols
        p = self.field.p
        out = []
        for row in self.rows:
            acc = self.field.zero()
            for j, a in row.items():
                x = v[j]
                if x:
                    acc += a * x
            out.append(acc % p if p else acc)
        return tuple(out)

    def hstack(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.field == other.field
        n = self.ncols
        rows = [{**a, **{n + j: x for j, x in b.items()}} if b else a
                for a, b in zip(self.rows, other.rows)]
        return Matrix(self.field, self.nrows, n + other.ncols, rows)

    def augmented(self, column: dict) -> "Matrix":
        """[self | column] for a sparse column {row: value}."""
        n = self.ncols
        rows = list(self.rows)
        for i, x in column.items():
            rows[i] = {**rows[i], n: x}
        return Matrix(self.field, self.nrows, n + 1, rows)


class RowEchelon:
    """Forward (echelon) or reduced (rref) row echelon form of an nrows x ncols
    matrix: its nonzero rows, as {column: value} dicts in pivot order, each 1
    at its pivot and 0 left of it (and, reduced, at every other pivot)."""

    __slots__ = ("field", "nrows", "ncols", "rows", "pivots")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, rows: list, pivots: list):
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def matrix(self) -> Matrix:
        """The echelon form padded with zero rows to nrows."""
        return Matrix(self.field, self.nrows, self.ncols,
                      self.rows + [{} for _ in range(self.nrows - self.rank)])


def _subtract_multiple(row: dict, f, other: dict, p):
    """row -= f * other, in place, keeping only nonzero canonical entries."""
    if p:
        for j, y in other.items():
            x = (row.get(j, 0) - f * y) % p
            if x:
                row[j] = x
            else:
                del row[j]
    else:
        for j, y in other.items():
            x = row.get(j, 0) - f * y
            if x:
                row[j] = x
            else:
                del row[j]


def echelon(m: Matrix) -> RowEchelon:
    """Forward row echelon form of a Matrix: the one elimination kernel.

    Each incoming row is reduced against the pivot rows in ascending order
    of its leading column, until that column holds no pivot yet; if anything
    is left, it becomes a new pivot row, scaled to 1 there.  Earlier pivot
    rows are never touched, so a banded matrix stays banded, and only
    nonzero entries are ever visited.  The pivots are those of rref(m).
    """
    p = m.field.p
    pivot_rows = {}  # pivot column -> its row
    for row in filter(None, m.rows):
        row = dict(row)
        while row and (other := pivot_rows.get(c := min(row))) is not None:
            _subtract_multiple(row, row[c], other, p)
        if not row:
            continue
        if row[c] != 1:
            if p:
                inv = pow(row[c], -1, p)
                row = {j: x * inv % p for j, x in row.items()}
            else:
                inv = 1 / row[c]
                row = {j: x * inv for j, x in row.items()}
        pivot_rows[c] = row
    pivots = sorted(pivot_rows)
    return RowEchelon(m.field, m.nrows, m.ncols, [pivot_rows[c] for c in pivots], pivots)


def rref(m: Matrix | RowEchelon) -> RowEchelon:
    """Reduced row echelon form of a Matrix, or of a forward echelon form of one:
    echelon(m), then each pivot row, in descending pivot order, is cleared at
    the later pivots against rows already reduced.  The reduced form is
    unique, so the result is the same as any elimination order gives."""
    ech = m if isinstance(m, RowEchelon) else echelon(m)
    if ech.rank < 2:  # a forward form of rank 0 or 1 is reduced
        return ech
    p = ech.field.p
    reduced = {}  # pivot column -> its reduced row
    for c, row in zip(reversed(ech.pivots), reversed(ech.rows)):
        if later := [j for j in row if j in reduced]:
            row = dict(row)
            for j in later:
                _subtract_multiple(row, row[j], reduced[j], p)
        reduced[c] = row
    return RowEchelon(ech.field, ech.nrows, ech.ncols, [reduced[c] for c in ech.pivots], ech.pivots)


def rank(m: Matrix) -> int:
    return echelon(m).rank


def kernel_basis(m: Matrix | RowEchelon) -> list:
    """Basis of the right kernel of m (a Matrix or, as for rref, its forward
    echelon form), len == ncols - rank: per free column f, the vector
    {f: 1, c: -row_c[f]} over the pivots c of rref(m)."""
    ech = rref(m)
    p = m.field.p
    pivot_set = set(ech.pivots)
    basis = {f: {f: m.field.one()} for f in range(m.ncols) if f not in pivot_set}
    for row, c in zip(ech.rows, ech.pivots):
        for j, x in row.items():
            if j != c:
                basis[j][c] = p - x if p else -x
    return list(basis.values())


@dataclass
class AffineSolutionSpace:
    """Solvability of A x = b, and a particular solution when there is one.

    feasible is False when the system has no solution; then particular is
    None.  rank and rank_augmented are rank(A) and rank([A | b]), which
    differ exactly when the system is infeasible.  Every solution is
    particular plus a vector of kernel_basis(A).
    """

    feasible: bool
    particular: dict | None
    rank: int
    rank_augmented: int


def solve_affine(a: Matrix, b: dict) -> AffineSolutionSpace:
    """Solve A x = b exactly with one row reduction of [A | b], b a sparse
    column {row: value} of canonical values.

    The first ncols columns of rref([A | b]) are rref(A), so rank(A) is
    read from it too.  The system is feasible exactly when column ncols
    holds no pivot, i.e. rank(A) == rank([A | b]); the particular solution
    sets every free variable to zero.
    """
    n = a.ncols
    ech = rref(a.augmented(b))
    if ech.pivots and ech.pivots[-1] == n:
        return AffineSolutionSpace(False, None, ech.rank - 1, ech.rank)
    x = {c: row[n] for row, c in zip(ech.rows, ech.pivots) if n in row}
    return AffineSolutionSpace(True, x, ech.rank, ech.rank)


def solve_matrix(a: Matrix, b: Matrix):
    """Solve A X = B with one row reduction of [A | B]; None when any column
    of B is out of reach, i.e. when a pivot lies in B's columns.  Column j
    of X is what solve_affine(A, B[:, j]) gives: the rows of rref([A | B])
    restricted to [A | B[:, j]] are rref([A | B[:, j]])."""
    assert a.nrows == b.nrows
    n = a.ncols
    ech = rref(a.hstack(b))
    if ech.pivots and ech.pivots[-1] >= n:
        return None
    rows = [{} for _ in range(n)]
    for row, c in zip(ech.rows, ech.pivots):
        rows[c] = {j - n: x for j, x in row.items() if j >= n}
    return Matrix(a.field, n, b.ncols, rows)


def row_space(vectors: list, field: FieldSpec, width: int) -> RowEchelon:
    """Reduced echelon form of the span of the given vectors."""
    ech = rref(Matrix(field, len(vectors), width, list(vectors)))
    return RowEchelon(field, ech.rank, width, ech.rows, ech.pivots)


def reduce_mod_rows(ech: RowEchelon, v: dict) -> dict:
    """v less the echelon rows that zero out its pivot coordinates, in
    ascending pivot order: a row is 0 left of its pivot, so the form may be
    forward or reduced, and the remainder, 0 at every pivot, is the same."""
    p = ech.field.p
    out = dict(v)
    for c, row in zip(ech.pivots, ech.rows):
        f = out.get(c)
        if f:
            _subtract_multiple(out, f, row, p)
    return out


def in_row_span(ech: RowEchelon, v: dict) -> bool:
    return not reduce_mod_rows(ech, v)

