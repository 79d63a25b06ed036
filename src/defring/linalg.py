"""Exact linear algebra over a FieldSpec, with sparse elimination.

A Matrix holds plain field values in canonical form: `int` residues in
0..p-1 over F_p and `Fraction`s over Q (see fields.py).  `from_rows` and
`from_columns` are where entries are brought into that form; the bare
constructor trusts its input.  Every operation that forms new values
(`+`, `-`, negation, `scale`, `*`, `apply` and the elimination kernel)
reduces them with `% p` over F_p, the path chosen from `field.p`, so
vectors and matrices handed out are always canonical.  `*` is the dense
product; `power` squares on sparse rows and builds a dense Matrix only
for the result.

Linear systems are row-reduced sparsely: `rref` is the one elimination
kernel, and it works on SparseRows, one {column: value} dict of nonzero
entries per row.  A Matrix is converted once on the way in; the
deformation and Hom systems are built as SparseRows directly.  The
reduced row echelon form of a matrix is unique, so pivots, echelon rows,
kernel bases (one vector per free column, that column set to 1) and
particular solutions (free variables set to 0) are canonical for a given
input, whatever order the elimination visits rows in.  Infeasibility of a
linear system is a value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .fields import FieldMismatch, FieldSpec, format_scalar

Vector = tuple  # canonical field values


def _canonical(field: FieldSpec, entries) -> list:
    """Entries (ints or Fractions) as canonical values of field."""
    p = field.p
    scalar = field.scalar
    if p is None:
        return [x if x.__class__ is Fraction else scalar(x) for x in entries]
    return [x % p if x.__class__ is int else scalar(x) for x in entries]


def _sparse(values) -> dict:
    """{index: value} of the nonzero canonical values."""
    return {j: x for j, x in enumerate(values) if x}


class Matrix:
    """Immutable dense matrix of canonical field values, row-major storage."""

    __slots__ = ("field", "nrows", "ncols", "data")

    def __init__(self, field: FieldSpec, nrows: int, ncols: int, data: list):
        assert len(data) == nrows * ncols
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.data = data

    @classmethod
    def from_rows(cls, field: FieldSpec, rows: list) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        data = []
        for r in rows:
            if len(r) != ncols:
                raise ValueError("ragged rows")
            data += _canonical(field, r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def from_columns(cls, field: FieldSpec, nrows: int, columns: list) -> "Matrix":
        ncols = len(columns)
        zero = field.zero()
        data = [zero] * (nrows * ncols)
        for j, col in enumerate(columns):
            assert len(col) == nrows
            data[j::ncols] = _canonical(field, col)
        return cls(field, nrows, ncols, data)

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "Matrix":
        return cls(field, nrows, ncols, [field.zero()] * (nrows * ncols))

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "Matrix":
        m = [field.zero()] * (n * n)
        one = field.one()
        for i in range(n):
            m[i * n + i] = one
        return cls(field, n, n, m)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.ncols + j]

    def row(self, i: int) -> Vector:
        return tuple(self.data[i * self.ncols : (i + 1) * self.ncols])

    def column(self, j: int) -> Vector:
        return tuple(self.data[i * self.ncols + j] for i in range(self.nrows))

    def rows(self) -> list:
        return [self.row(i) for i in range(self.nrows)]

    def sparse_rows(self) -> "SparseRows":
        n = self.ncols
        return SparseRows(self.field, n, [_sparse(self.data[i * n:(i + 1) * n])
                                          for i in range(self.nrows)])

    def tolist(self) -> list:
        return [list(self.row(i)) for i in range(self.nrows)]

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.nrows, self.ncols, tuple(self.data)))

    def __repr__(self):
        rows = ", ".join("[" + ", ".join(map(format_scalar, self.row(i))) + "]"
                         for i in range(self.nrows))
        return f"Matrix({self.nrows}x{self.ncols}, [{rows}])"

    def is_zero(self) -> bool:
        return not any(self.data)

    def _same_field(self, other: "Matrix"):
        if other.field != self.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")

    def _reduced(self, data: list) -> "Matrix":
        """A matrix of this shape holding data, reduced into the field."""
        p = self.field.p
        return Matrix(self.field, self.nrows, self.ncols, [x % p for x in data] if p else data)

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        self._same_field(other)
        return self._reduced([a + b for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        self._same_field(other)
        return self._reduced([a - b for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return self._reduced([-a for a in self.data])

    def scale(self, c) -> "Matrix":
        c = self.field.scalar(c)
        return self._reduced([c * a for a in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        self._same_field(other)
        p = self.field.p
        zero = self.field.zero()
        inner, width = self.ncols, other.ncols
        b = other.data
        # each row of other as its nonzero (column, value) pairs
        b_rows = [[(j, y) for j, y in enumerate(b[k * width:(k + 1) * width]) if y]
                  for k in range(inner)]
        out = []
        for i in range(self.nrows):
            acc = [zero] * width
            for x, pairs in zip(self.data[i * inner:(i + 1) * inner], b_rows):
                if x:
                    for j, y in pairs:
                        acc[j] += x * y
            out += [v % p for v in acc] if p else acc
        return Matrix(self.field, self.nrows, width, out)

    def power(self, n: int) -> "Matrix":
        """self^n by repeated squaring on sparse rows; only the result is dense."""
        assert self.nrows == self.ncols and n >= 0
        p, one, zero = self.field.p, self.field.one(), self.field.zero()
        out = [{i: one} for i in range(self.nrows)]
        square = self.sparse_rows().rows
        while n:
            if n & 1:
                out = _sparse_product(out, square, p)
            n >>= 1
            if n:
                square = _sparse_product(square, square, p)
        return Matrix(self.field, self.nrows, self.ncols,
                      [row.get(j, zero) for row in out for j in range(self.ncols)])

    def transpose(self) -> "Matrix":
        data = [self.data[i * self.ncols + j] for j in range(self.ncols) for i in range(self.nrows)]
        return Matrix(self.field, self.ncols, self.nrows, data)

    def apply(self, v: Vector) -> Vector:
        assert len(v) == self.ncols
        p = self.field.p
        n = self.ncols
        out = []
        for i in range(self.nrows):
            acc = self.field.zero()
            for a, x in zip(self.data[i * n:(i + 1) * n], v):
                if x:
                    acc += a * x
            out.append(acc % p if p else acc)
        return tuple(out)

    def hstack(self, other: "Matrix") -> "Matrix":
        assert self.nrows == other.nrows and self.field == other.field
        data = []
        for i in range(self.nrows):
            data.extend(self.row(i))
            data.extend(other.row(i))
        return Matrix(self.field, self.nrows, self.ncols + other.ncols, data)


def _sparse_product(a: list, b: list, p) -> list:
    """Product of two matrices given as lists of {column: value} rows."""
    out = []
    for row in a:
        acc = {}
        for k, x in row.items():
            for j, y in b[k].items():
                acc[j] = acc.get(j, 0) + x * y
        out.append({j: y for j, x in acc.items() if (y := x % p)} if p
                   else {j: x for j, x in acc.items() if x})
    return out


class SparseRows:
    """The rows of an nrows x ncols matrix as {column: value} dicts that hold
    only the nonzero entries, canonical values of field.  A zero row is an
    empty dict and keeps its index.  The bare constructor trusts its input;
    `from_dicts` brings accumulated entries into canonical form."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: FieldSpec, ncols: int, rows: list):
        self.field = field
        self.nrows = len(rows)
        self.ncols = ncols
        self.rows = rows

    @classmethod
    def from_dicts(cls, field: FieldSpec, ncols: int, rows: list) -> "SparseRows":
        """Rows of {column: int or Fraction}, reduced into field, zeros dropped."""
        p = field.p
        if p:
            rows = [{j: y for j, x in row.items() if (y := x % p)} for row in rows]
        else:
            scalar = field.scalar
            rows = [{j: scalar(x) for j, x in row.items() if x} for row in rows]
        return cls(field, ncols, rows)

    def augmented(self, column) -> "SparseRows":
        """[self | column] for a column of nrows canonical values."""
        n = self.ncols
        rows = [{**row, n: x} if x else row for row, x in zip(self.rows, column)]
        return SparseRows(self.field, n + 1, rows)


class RowEchelon:
    """Reduced row echelon form of an nrows x ncols matrix: its nonzero rows,
    as {column: value} dicts in pivot order, and their pivot columns."""

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

    def vectors(self) -> list:
        """The nonzero rows as dense tuples."""
        zero = self.field.zero()
        return [tuple(row.get(j, zero) for j in range(self.ncols)) for row in self.rows]

    @property
    def matrix(self) -> Matrix:
        """The echelon form padded with zero rows to nrows."""
        data = [x for row in self.vectors() for x in row]
        data += [self.field.zero()] * ((self.nrows - self.rank) * self.ncols)
        return Matrix(self.field, self.nrows, self.ncols, data)


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


def rref(m) -> RowEchelon:
    """Reduced row echelon form of a Matrix or SparseRows, by sparse Gauss–Jordan.

    Every pivot row holds 1 at its pivot and 0 at every other pivot column.
    Each incoming row is reduced against the pivot rows, which leaves it
    zero at every pivot column; if anything is left, its first nonzero
    column becomes a new pivot, the row is scaled to 1 there, and that
    column is cleared from the other pivot rows.  Only nonzero entries are
    ever visited.  The reduced row echelon form is unique, so the result is
    the same as any elimination order gives.
    """
    if isinstance(m, Matrix):
        m = m.sparse_rows()
    p = m.field.p
    pivot_rows = {}  # pivot column -> its row
    for row in m.rows:
        if not row:
            continue
        row = dict(row)
        for c in [c for c in row if c in pivot_rows]:
            _subtract_multiple(row, row[c], pivot_rows[c], p)
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            if p:
                inv = pow(row[c], -1, p)
                row = {j: x * inv % p for j, x in row.items()}
            else:
                inv = 1 / row[c]
                row = {j: x * inv for j, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(c)
            if f:
                _subtract_multiple(other, f, row, p)
        pivot_rows[c] = row
    pivots = sorted(pivot_rows)
    return RowEchelon(m.field, m.nrows, m.ncols, [pivot_rows[c] for c in pivots], pivots)


def rank(m) -> int:
    """Rank of a Matrix or SparseRows."""
    return rref(m).rank


def _kernel(field: FieldSpec, rows: list, pivots: list, ncols: int) -> list:
    """Echelon-normalized kernel basis of the first ncols columns of echelon rows."""
    p = field.p
    zero, one = field.zero(), field.one()
    entries = {}  # free column -> (pivot column, entry) pairs of the rows nonzero there
    for row, c in zip(rows, pivots):
        for j, x in row.items():
            if j != c and j < ncols:
                entries.setdefault(j, []).append((c, p - x if p else -x))
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for c, x in entries.get(f, ()):
            v[c] = x
        basis.append(tuple(v))
    return basis


def kernel_basis(m) -> list:
    """Echelon-normalized basis of the right kernel of a Matrix or SparseRows;
    len == ncols - rank."""
    ech = rref(m)
    return _kernel(m.field, ech.rows, ech.pivots, m.ncols)


@dataclass
class AffineSolutionSpace:
    """Solutions of A x = b: a particular point plus the kernel of A.

    feasible is False when the system has no solution; then particular is
    None and kernel still describes ker A for diagnostic use.  rank and
    rank_augmented are rank(A) and rank([A | b]), which differ exactly
    when the system is infeasible.
    """

    field: FieldSpec
    feasible: bool
    particular: Vector | None
    kernel: list
    rank: int
    rank_augmented: int

    @property
    def dimension(self) -> int:
        return len(self.kernel)

    def point(self, coeffs) -> Vector:
        """particular + sum coeffs[i] * kernel[i]."""
        assert self.feasible and len(coeffs) == len(self.kernel)
        out = list(self.particular)
        for c, k in zip(coeffs, self.kernel):
            if c:
                out = [x + c * y for x, y in zip(out, k)]
        return tuple(_canonical(self.field, out))


def solve_affine(a, b: Vector) -> AffineSolutionSpace:
    """Solve A x = b exactly with one row reduction of [A | b].

    A is a Matrix or SparseRows.  The first ncols columns of rref([A | b])
    are rref(A), so the kernel basis and rank(A) are read from it too.  The
    system is feasible exactly when column ncols holds no pivot, i.e.
    rank(A) == rank([A | b]); the particular solution sets every free
    variable to zero.
    """
    assert len(b) == a.nrows
    n = a.ncols
    rows = a.sparse_rows() if isinstance(a, Matrix) else a
    ech = rref(rows.augmented(_canonical(a.field, b)))
    feasible = not ech.pivots or ech.pivots[-1] != n
    pivots = ech.pivots if feasible else ech.pivots[:-1]
    kern = _kernel(a.field, ech.rows, pivots, n)
    if not feasible:
        return AffineSolutionSpace(a.field, False, None, kern, len(pivots), ech.rank)
    zero = a.field.zero()
    x = [zero] * n
    for row, c in zip(ech.rows, pivots):
        x[c] = row.get(n, zero)
    return AffineSolutionSpace(a.field, True, tuple(x), kern, ech.rank, ech.rank)


def solve_matrix(a: Matrix, b: Matrix):
    """Solve A X = B with one row reduction of [A | B]; None when any column
    of B is out of reach, i.e. when a pivot lies in B's columns.  Column j
    of X is what solve_affine(A, B[:, j]) gives: the rows of rref([A | B])
    restricted to [A | B[:, j]] are rref([A | B[:, j]])."""
    assert a.nrows == b.nrows
    n, k = a.ncols, b.ncols
    ech = rref(a.hstack(b))
    if ech.pivots and ech.pivots[-1] >= n:
        return None
    data = [a.field.zero()] * (n * k)
    for row, c in zip(ech.rows, ech.pivots):
        for j, x in row.items():
            if j >= n:
                data[c * k + j - n] = x
    return Matrix(a.field, n, k, data)


def row_space(vectors: list, field: FieldSpec, width: int) -> RowEchelon:
    """Echelonized span of the given row vectors."""
    if not vectors:
        return RowEchelon(field, 0, width, [], [])
    ech = rref(SparseRows(field, width, [_sparse(_canonical(field, v)) for v in vectors]))
    return RowEchelon(field, ech.rank, width, ech.rows, ech.pivots)


def _reduce_values(ech: RowEchelon, values: list) -> list:
    """Subtract echelon rows from canonical values, in place, to zero its pivot coordinates."""
    p = ech.field.p
    for c, row in zip(ech.pivots, ech.rows):
        f = values[c]
        if f:
            if p:
                for j, y in row.items():
                    values[j] = (values[j] - f * y) % p
            else:
                for j, y in row.items():
                    values[j] -= f * y
    return values


def reduce_mod_rows(ech: RowEchelon, v: Vector) -> Vector:
    """Subtract the echelon rows to zero out v's pivot coordinates."""
    return tuple(_reduce_values(ech, _canonical(ech.field, v)))


def in_row_span(ech: RowEchelon, v: Vector) -> bool:
    return not any(_reduce_values(ech, _canonical(ech.field, v)))


def column_space(m: SparseRows) -> RowEchelon:
    """Echelonized span of the columns of m, i.e. the image of the map it stands for."""
    columns = [{} for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j, x in row.items():
            columns[j][i] = x
    return rref(SparseRows(m.field, m.nrows, columns))

