"""Dense exact linear algebra over a FieldSpec.

Everything here is deterministic: row reduction always pivots on the first
nonzero entry scanning columns left to right and rows top to bottom, so
echelon forms, kernel bases, and particular solutions are canonical for a
given input.  Infeasibility of a linear system is a value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import FieldSpec, Scalar

Vector = tuple[Scalar, ...]


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
            data.extend(field.scalar(x) for x in r)
        return cls(field, nrows, ncols, data)

    @classmethod
    def from_columns(cls, field: FieldSpec, nrows: int, columns: list) -> "Matrix":
        ncols = len(columns)
        zero = field.zero()
        data = [zero] * (nrows * ncols)
        for j, col in enumerate(columns):
            assert len(col) == nrows
            for i, x in enumerate(col):
                data[i * ncols + j] = field.scalar(x)
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
        zero = self.field.zero()
        out = [zero] * (self.nrows * other.ncols)
        for i in range(self.nrows):
            base = i * self.ncols
            for k in range(self.ncols):
                a = self.data[base + k]
                if a.is_zero():
                    continue
                obase = k * other.ncols
                rbase = i * other.ncols
                for j in range(other.ncols):
                    b = other.data[obase + j]
                    if not b.is_zero():
                        out[rbase + j] = out[rbase + j] + a * b
        return Matrix(self.field, self.nrows, other.ncols, out)

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


@dataclass
class RowEchelon:
    """Reduced row echelon form with its pivot columns."""

    matrix: Matrix
    pivots: list

    @property
    def rank(self) -> int:
        return len(self.pivots)


def rref(m: Matrix) -> RowEchelon:
    """Reduced row echelon form, first-nonzero pivoting, no reordering tricks."""
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][c].inv()
        rows[r] = [inv * x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    flat = [x for row in rows for x in row]
    return RowEchelon(Matrix(m.field, m.nrows, m.ncols, flat), pivots)


def rank(m: Matrix) -> int:
    return rref(m).rank


def kernel_basis(m: Matrix) -> list:
    """Echelon-normalized basis of the right kernel; len == ncols - rank."""
    ech = rref(m)
    pivots = ech.pivots
    pivot_set = set(pivots)
    free = [c for c in range(m.ncols) if c not in pivot_set]
    zero = m.field.zero()
    one = m.field.one()
    basis = []
    for f in free:
        v = [zero] * m.ncols
        v[f] = one
        for r, c in enumerate(pivots):
            v[c] = -ech.matrix[r, f]
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
    if a.ncols in ech.pivots:
        kern = kernel_basis(a)
        return AffineSolutionSpace(False, None, kern)
    zero = a.field.zero()
    x = [zero] * a.ncols
    for r, c in enumerate(ech.pivots):
        x[c] = ech.matrix[r, a.ncols]
    kern = kernel_basis(a)
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
        return RowEchelon(Matrix.zeros(field, 0, width), [])
    m = Matrix.from_rows(field, [list(v) for v in vectors])
    ech = rref(m)
    keep = ech.matrix.rows()[: ech.rank]
    if keep:
        reduced = Matrix.from_rows(field, [list(r) for r in keep])
    else:
        reduced = Matrix.zeros(field, 0, width)
    return RowEchelon(reduced, ech.pivots)


def reduce_mod_rows(ech: RowEchelon, v: Vector) -> Vector:
    """Subtract the echelon rows to zero out v's pivot coordinates."""
    out = list(v)
    for r, c in enumerate(ech.pivots):
        f = out[c]
        if not f.is_zero():
            row = ech.matrix.row(r)
            out = [x - f * y for x, y in zip(out, row)]
    return tuple(out)


def in_row_span(ech: RowEchelon, v: Vector) -> bool:
    return all(x.is_zero() for x in reduce_mod_rows(ech, v))


def complement_representatives(space_basis: list, subspace_vectors: list,
                               field: FieldSpec, width: int) -> list:
    """Echelon representatives of span(space_basis) modulo span(subspace_vectors).

    The subspace must be contained in the space; representatives are the
    nonzero echelon rows of the reduced space basis, so the result is
    canonical for the given inputs.
    """
    sub = row_space(subspace_vectors, field, width)
    reduced = [reduce_mod_rows(sub, v) for v in space_basis]
    reduced = [v for v in reduced if any(not x.is_zero() for x in v)]
    return [tuple(r) for r in row_space(reduced, field, width).matrix.rows()]


def vec_add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def vec_scale(c: Scalar, v: Vector) -> Vector:
    return tuple(c * a for a in v)


def vec_is_zero(v: Vector) -> bool:
    return all(a.is_zero() for a in v)
