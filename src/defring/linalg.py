"""Dense exact linear algebra over a FieldSpec.

Everything here is deterministic: row reduction always pivots on the first
nonzero entry scanning columns left to right and rows top to bottom, so
echelon forms, kernel bases, and particular solutions are canonical for a
given input.  Infeasibility of a linear system is a value, not an error.

A Matrix holds plain field values in canonical form: `int` residues in
0..p-1 over F_p and `Fraction`s over Q (see fields.py).  `from_rows` and
`from_columns` are where entries are brought into that form; the bare
constructor trusts its input.  Every operation that forms new values
(`+`, `-`, negation, `scale`, `*`, `apply` and the elimination kernels)
reduces them with `% p` over F_p, the path chosen from `field.p`, so
vectors and matrices handed out are always canonical.
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
        assert self.nrows == self.ncols and n >= 0
        out = Matrix.identity(self.field, self.nrows)
        square = self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

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

    def vstack(self, other: "Matrix") -> "Matrix":
        assert self.ncols == other.ncols and self.field == other.field
        return Matrix(self.field, self.nrows + other.nrows, self.ncols, self.data + other.data)


def block_matrix(field: FieldSpec, grid: list) -> Matrix:
    """Assemble a matrix from a 2d grid of equally aligned blocks."""
    row_heights = [grid[i][0].nrows for i in range(len(grid))]
    col_widths = [b.ncols for b in grid[0]]
    nrows = sum(row_heights)
    ncols = sum(col_widths)
    zero = field.zero()
    data = [zero] * (nrows * ncols)
    r0 = 0
    for bi, blockrow in enumerate(grid):
        c0 = 0
        for bj, block in enumerate(blockrow):
            assert block.nrows == row_heights[bi] and block.ncols == col_widths[bj]
            for i in range(block.nrows):
                base = (r0 + i) * ncols + c0
                bbase = i * block.ncols
                for j in range(block.ncols):
                    data[base + j] = block.data[bbase + j]
            c0 += block.ncols
        r0 += blockrow[0].nrows
    return Matrix(field, nrows, ncols, data)


class RowEchelon:
    """Reduced row echelon form: the echelon rows as lists of field values,
    and their pivot columns."""

    __slots__ = ("field", "ncols", "rows", "pivots", "_supports")

    def __init__(self, field: FieldSpec, ncols: int, rows: list, pivots: list):
        self.field = field
        self.ncols = ncols
        self.rows = rows
        self.pivots = pivots
        self._supports = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def matrix(self) -> Matrix:
        return Matrix(self.field, len(self.rows), self.ncols, [x for row in self.rows for x in row])

    def supports(self) -> list:
        """Per row, the (column, value) pairs of its nonzero entries."""
        if self._supports is None:
            self._supports = [[(j, y) for j, y in enumerate(row) if y] for row in self.rows]
        return self._supports


def rref(m: Matrix) -> RowEchelon:
    """Reduced row echelon form, first-nonzero pivoting, no reordering tricks.

    Rows at and below the current pivot are zero left of its column, so
    scaling the pivot row and eliminating with it touch only the columns
    where the pivot row is nonzero.
    """
    p = m.field.p
    nrows, ncols = m.nrows, m.ncols
    rows = [m.data[i * ncols:(i + 1) * ncols] for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pivot_row in range(r, nrows):
            if rows[pivot_row][c]:
                break
        else:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        support = [j for j in range(c, ncols) if prow[j]]
        if p:
            inv = pow(prow[c], -1, p)
            for j in support:
                prow[j] = prow[j] * inv % p
        else:
            inv = 1 / prow[c]
            for j in support:
                prow[j] *= inv
        pairs = [(j, prow[j]) for j in support]
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                if p:
                    for j, y in pairs:
                        row[j] = (row[j] - f * y) % p
                else:
                    for j, y in pairs:
                        row[j] -= f * y
        pivots.append(c)
        r += 1
    return RowEchelon(m.field, ncols, rows, pivots)


def rank(m: Matrix) -> int:
    return rref(m).rank


def _kernel(field: FieldSpec, rows: list, pivots: list, ncols: int) -> list:
    """Echelon-normalized kernel basis of the first ncols columns of echelon rows."""
    p = field.p
    zero, one = field.zero(), field.one()
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [zero] * ncols
        v[f] = one
        for row, c in zip(rows, pivots):
            x = row[f]
            if x:
                v[c] = p - x if p else -x
        basis.append(tuple(v))
    return basis


def kernel_basis(m: Matrix) -> list:
    """Echelon-normalized basis of the right kernel; len == ncols - rank."""
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


def solve_affine(a: Matrix, b: Vector) -> AffineSolutionSpace:
    """Solve A x = b exactly with one row reduction of [A | b].

    The first ncols columns of rref([A | b]) are rref(A), so the kernel
    basis and rank(A) are read from it too.  The system is feasible
    exactly when column ncols holds no pivot, i.e. rank(A) == rank([A | b]);
    the particular solution sets every free variable to zero.
    """
    assert len(b) == a.nrows
    n = a.ncols
    ech = rref(a.hstack(Matrix.from_columns(a.field, a.nrows, [list(b)])))
    feasible = n not in ech.pivots
    pivots = ech.pivots if feasible else ech.pivots[:-1]
    kern = _kernel(a.field, ech.rows, pivots, n)
    if not feasible:
        return AffineSolutionSpace(a.field, False, None, kern, len(pivots), ech.rank)
    x = [a.field.zero()] * n
    for row, c in zip(ech.rows, pivots):
        x[c] = row[n]
    return AffineSolutionSpace(a.field, True, tuple(x), kern, ech.rank, ech.rank)


def solve_matrix(a: Matrix, b: Matrix):
    """Solve A X = B column by column; None when any column is infeasible."""
    assert a.nrows == b.nrows
    cols = []
    for j in range(b.ncols):
        sol = solve_affine(a, b.column(j))
        if not sol.feasible:
            return None
        cols.append(list(sol.particular))
    return Matrix.from_columns(a.field, a.ncols, cols)


def row_space(vectors: list, field: FieldSpec, width: int) -> RowEchelon:
    """Echelonized span of the given row vectors."""
    if not vectors:
        return RowEchelon(field, width, [], [])
    ech = rref(Matrix.from_rows(field, vectors))
    return RowEchelon(field, ech.ncols, ech.rows[: ech.rank], ech.pivots)


def _reduce_values(ech: RowEchelon, values: list) -> list:
    """Subtract echelon rows from canonical values, in place, to zero its pivot coordinates."""
    p = ech.field.p
    for c, pairs in zip(ech.pivots, ech.supports()):
        f = values[c]
        if f:
            if p:
                for j, y in pairs:
                    values[j] = (values[j] - f * y) % p
            else:
                for j, y in pairs:
                    values[j] -= f * y
    return values


def reduce_mod_rows(ech: RowEchelon, v: Vector) -> Vector:
    """Subtract the echelon rows to zero out v's pivot coordinates."""
    return tuple(_reduce_values(ech, _canonical(ech.field, v)))


def in_row_span(ech: RowEchelon, v: Vector) -> bool:
    return not any(_reduce_values(ech, _canonical(ech.field, v)))


def complement_representatives(space_basis: list, subspace_vectors: list,
                               field: FieldSpec, width: int) -> list:
    """Echelon representatives of span(space_basis) modulo span(subspace_vectors).

    The subspace must be contained in the space; representatives are the
    nonzero echelon rows of the reduced space basis, so the result is
    canonical for the given inputs.
    """
    sub = row_space(subspace_vectors, field, width)
    reduced = [_reduce_values(sub, _canonical(field, v)) for v in space_basis]
    return [tuple(row) for row in row_space([v for v in reduced if any(v)], field, width).rows]
