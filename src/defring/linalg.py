"""Dense exact linear algebra over a FieldSpec.

Everything here is deterministic: row reduction always pivots on the first
nonzero entry scanning columns left to right and rows top to bottom, so
echelon forms, kernel bases, and particular solutions are canonical for a
given input.  Infeasibility of a linear system is a value, not an error.

A Matrix holds Scalars, but the kernels (`rref` and everything built on
it, and `Matrix.__mul__`) compute on raw field values: `int` residues
reduced with `% p` over F_p and `Fraction`s over Q, the path chosen from
`field.p`.  Scalars appear only where the API hands entries out, and those
come from `FieldSpec.box`, so they are shared rather than boxed per cell.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldMismatch, FieldSpec, Scalar

Vector = tuple[Scalar, ...]


def _coerced(field: FieldSpec, entries) -> list:
    """Entries as Scalars of field; those already of this very field pass as they are."""
    scalar = field.scalar
    return [x if x.__class__ is Scalar and x.field is field else scalar(x) for x in entries]


class Matrix:
    """Immutable dense matrix with Scalar entries, row-major storage."""

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
            data += _coerced(field, r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def from_columns(cls, field: FieldSpec, nrows: int, columns: list) -> "Matrix":
        ncols = len(columns)
        zero = field.zero()
        data = [zero] * (nrows * ncols)
        for j, col in enumerate(columns):
            assert len(col) == nrows
            data[j::ncols] = _coerced(field, col)
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

    def __getitem__(self, ij) -> Scalar:
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
        rows = ", ".join("[" + ", ".join(repr(x) for x in self.row(i)) + "]" for i in range(self.nrows))
        return f"Matrix({self.nrows}x{self.ncols}, [{rows}])"

    def is_zero(self) -> bool:
        return all(x.is_zero() for x in self.data)

    def __add__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(
            self.field, self.nrows, self.ncols,
            [a + b for a, b in zip(self.data, other.data)],
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        assert (self.nrows, self.ncols) == (other.nrows, other.ncols)
        return Matrix(
            self.field, self.nrows, self.ncols,
            [a - b for a, b in zip(self.data, other.data)],
        )

    def __neg__(self) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols, [-a for a in self.data])

    def scale(self, c: Scalar) -> "Matrix":
        return Matrix(self.field, self.nrows, self.ncols, [c * a for a in self.data])

    def __mul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        field = self.field
        if other.field != field:
            raise FieldMismatch(f"{field} vs {other.field}")
        p = field.p
        inner, width = self.ncols, other.ncols
        b = [x.value for x in other.data]
        # each row of other as its nonzero (column, value) pairs
        b_rows = [[(j, y) for j, y in enumerate(b[k * width:(k + 1) * width]) if y]
                  for k in range(inner)]
        out = []
        for i in range(self.nrows):
            acc = [0] * width
            for x, pairs in zip(self.data[i * inner:(i + 1) * inner], b_rows):
                x = x.value
                if x:
                    for j, y in pairs:
                        acc[j] += x * y
            if p:
                acc = [v % p for v in acc]
            out += map(field.box, acc)
        return Matrix(field, self.nrows, width, out)

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
        out = []
        for i in range(self.nrows):
            acc = self.field.zero()
            base = i * self.ncols
            for j, x in enumerate(v):
                if not x.is_zero():
                    acc = acc + self.data[base + j] * x
            out.append(acc)
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
    """Reduced row echelon form with its pivot columns.

    `values` holds the echelon rows as raw field values; `matrix` boxes
    them into a Matrix the first time it is read.
    """

    __slots__ = ("field", "ncols", "values", "pivots", "_matrix", "_supports")

    def __init__(self, field: FieldSpec, ncols: int, values: list, pivots: list):
        self.field = field
        self.ncols = ncols
        self.values = values
        self.pivots = pivots
        self._matrix = None
        self._supports = None

    @property
    def rank(self) -> int:
        return len(self.pivots)

    @property
    def matrix(self) -> Matrix:
        if self._matrix is None:
            box = self.field.box
            data = [box(x) for row in self.values for x in row]
            self._matrix = Matrix(self.field, len(self.values), self.ncols, data)
        return self._matrix

    def supports(self) -> list:
        """Per row, the (column, value) pairs of its nonzero entries."""
        if self._supports is None:
            self._supports = [[(j, y) for j, y in enumerate(row) if y] for row in self.values]
        return self._supports


def rref(m: Matrix) -> RowEchelon:
    """Reduced row echelon form, first-nonzero pivoting, no reordering tricks.

    Rows at and below the current pivot are zero left of its column, so
    scaling the pivot row and eliminating with it touch only the columns
    where the pivot row is nonzero.
    """
    p = m.field.p
    nrows, ncols = m.nrows, m.ncols
    values = [x.value for x in m.data]
    rows = [values[i * ncols:(i + 1) * ncols] for i in range(nrows)]
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


def kernel_basis(m: Matrix) -> list:
    """Echelon-normalized basis of the right kernel; len == ncols - rank."""
    ech = rref(m)
    field = m.field
    p = field.p
    box = field.box
    zero = field.zero()
    one = field.one()
    pivot_set = set(ech.pivots)
    basis = []
    for f in range(m.ncols):
        if f in pivot_set:
            continue
        v = [zero] * m.ncols
        v[f] = one
        for row, c in zip(ech.values, ech.pivots):
            x = row[f]
            if x:
                v[c] = box(p - x if p else -x)
        basis.append(tuple(v))
    return basis


@dataclass
class AffineSolutionSpace:
    """Solutions of A x = b: a particular point plus the kernel of A.

    feasible is False when the system has no solution; then particular is
    None and kernel still describes ker A for diagnostic use.
    """

    feasible: bool
    particular: Vector | None
    kernel: list

    @property
    def dimension(self) -> int:
        return len(self.kernel)

    def point(self, coeffs) -> Vector:
        """particular + sum coeffs[i] * kernel[i]."""
        assert self.feasible and len(coeffs) == len(self.kernel)
        out = list(self.particular)
        for c, k in zip(coeffs, self.kernel):
            if not c.is_zero():
                out = [x + c * y for x, y in zip(out, k)]
        return tuple(out)


def solve_affine(a: Matrix, b: Vector) -> AffineSolutionSpace:
    """Solve A x = b exactly.

    Feasibility is decided by rank(A) == rank([A | b]); the particular
    solution sets every free variable to zero.
    """
    assert len(b) == a.nrows
    aug = a.hstack(Matrix.from_columns(a.field, a.nrows, [list(b)]))
    ech = rref(aug)
    kern = kernel_basis(a)
    if a.ncols in ech.pivots:
        return AffineSolutionSpace(False, None, kern)
    box = a.field.box
    x = [a.field.zero()] * a.ncols
    for row, c in zip(ech.values, ech.pivots):
        x[c] = box(row[a.ncols])
    return AffineSolutionSpace(True, tuple(x), kern)


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
    return RowEchelon(field, ech.ncols, ech.values[: ech.rank], ech.pivots)


def _reduce_values(ech: RowEchelon, values: list) -> list:
    """Subtract echelon rows from raw values, in place, to zero its pivot coordinates."""
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
    return tuple(map(ech.field.box, _reduce_values(ech, [x.value for x in v])))


def in_row_span(ech: RowEchelon, v: Vector) -> bool:
    return not any(_reduce_values(ech, [x.value for x in v]))


def complement_representatives(space_basis: list, subspace_vectors: list,
                               field: FieldSpec, width: int) -> list:
    """Echelon representatives of span(space_basis) modulo span(subspace_vectors).

    The subspace must be contained in the space; representatives are the
    nonzero echelon rows of the reduced space basis, so the result is
    canonical for the given inputs.
    """
    sub = row_space(subspace_vectors, field, width)
    box = field.box
    reduced = []
    for v in space_basis:
        values = _reduce_values(sub, [x.value for x in v])
        if any(values):
            reduced.append(tuple(map(box, values)))
    return [tuple(map(box, row)) for row in row_space(reduced, field, width).values]


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a.is_zero() for a in v)
