import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.fields import FieldMismatch, FieldSpec
from defring.linalg import (
    Matrix,
    echelon,
    in_row_span,
    kernel_basis,
    rank,
    reduce_mod_rows,
    row_space,
    rref,
    solve_affine,
)
from defring.rep import MapLayout
from helpers import (CORPUS, apply, canonical, column, columns_matrix, dense, dense_to_matrix,
                     load_algebra,
                     reference_complement_representatives,
                     reference_add, reference_kernel_basis, reference_mul, reference_power,
                     reference_reduce_mod_rows, reference_dense_rref, reference_row_space,
                     reference_rref, reference_scale, reference_solve_affine, reference_sub,
                     paths_up_to, solve_matrix, sparse, tolist)

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()

# every truncated corpus algebra with the paths shorter than its bound
SHORT_PATHS = [(alg, paths_up_to(alg.quiver, alg.truncate - 1))
               for alg in (load_algebra(p.name)[1] for p in sorted(CORPUS.glob("*.alg")))
               if alg.basis is not None]


def mat(field, rows):
    return Matrix.from_rows(field, rows)


def flat(m):
    """m's values, row-major."""
    return [x for row in tolist(m) for x in row]


def dense_rows(m):
    return [m.row(i) for i in range(m.nrows)]


def test_matrix_arithmetic():
    a = mat(F5, [[1, 2], [3, 4]])
    b = mat(F5, [[0, 1], [1, 0]])
    assert tolist(a * b) == [[2, 1], [4, 3]]
    assert tolist(a + b) == [[1, 3], [4, 4]]
    assert tolist(a - a) == [[0, 0], [0, 0]]
    assert (a * Matrix.identity(F5, 2)) == a
    assert tolist(a.transpose()) == [[1, 3], [2, 4]]
    assert a.power(0) == Matrix.identity(F5, 2)
    assert a.power(2) == a * a
    assert Matrix.zeros(F5, 2, 3).is_zero()


def test_matrix_shape_errors():
    a = mat(F5, [[1, 2]])
    with pytest.raises(ValueError):
        a * a
    with pytest.raises(ValueError):
        Matrix.from_rows(F5, [[1, 2], [3]])


def test_apply_is_column_convention():
    # rectangular map k^3 -> k^2
    a = mat(Q, [[1, 0, 2], [0, 1, 0]])
    assert apply(a, (1, 1, 1)) == (3, 1)
    assert all(type(x) is int for x in apply(a, (1, 1, 1)))


def test_stack_and_block():
    a = mat(F3, [[1, 2]])
    b = mat(F3, [[0, 1]])
    assert tolist(a.hstack(b)) == [[1, 2, 0, 1]]


def test_rref_canonical_pivots():
    a = mat(Q, [[2, 4, 0], [1, 2, 1]])
    ech = rref(a)
    assert ech.pivots == [0, 2]
    assert tolist(ech.matrix) == [[1, 2, 0], [0, 0, 1]]
    assert rank(a) == 2
    assert rank(Matrix.zeros(Q, 3, 2)) == 0


def test_kernel_basis_annihilates():
    a = mat(F5, [[1, 2, 3], [2, 4, 1]])
    ker = kernel_basis(a)
    assert len(ker) == 3 - rank(a)
    for v in ker:
        assert not any(apply(a, dense(v, a.ncols)))


def test_solve_affine_feasible():
    a = mat(Q, [[1, 1], [0, 0]])
    b = tuple(Q.scalar(x) for x in (3, 0))
    sol = solve_affine(a, sparse(b))
    assert sol.feasible
    particular = dense(sol.particular, 2)
    assert apply(a, particular) == b
    [kernel] = kernel_basis(a)
    assert (sol.rank, sol.rank_augmented) == (1, 1)
    point = tuple(x + Q.scalar(7) * y for x, y in zip(particular, dense(kernel, 2)))
    assert apply(a, point) == b


def test_solve_affine_infeasible():
    a = mat(Q, [[1, 1], [1, 1]])
    b = tuple(Q.scalar(x) for x in (0, 1))
    sol = solve_affine(a, sparse(b))
    assert not sol.feasible
    assert (sol.rank, sol.rank_augmented) == (1, 2)


def test_solve_matrix_inverse():
    t = mat(F5, [[1, 2], [1, 3]])
    inv = solve_matrix(t, Matrix.identity(F5, 2))
    assert inv is not None
    assert t * inv == Matrix.identity(F5, 2)
    singular = mat(F5, [[1, 2], [2, 4]])
    assert solve_matrix(singular, Matrix.identity(F5, 2)) is None


def test_row_space_membership():
    vectors = [{0: 1, 2: 1}, {1: 1, 2: 1}]
    ech = row_space(vectors, F3, 3)
    assert in_row_span(ech, {0: 1, 1: 2})
    assert not in_row_span(ech, {2: 1})
    reduced = reduce_mod_rows(ech, {0: 1, 2: 1})
    assert reduced == {}


@st.composite
def f3_matrix(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 2), min_size=m, max_size=m),
            min_size=n,
            max_size=n,
        )
    )
    return Matrix.from_rows(F3, rows)


@settings(max_examples=60, deadline=None)
@given(f3_matrix())
def test_rank_transpose_invariant(a):
    assert rank(a) == rank(a.transpose())
    assert rank(a) + len(kernel_basis(a)) == a.ncols


@settings(max_examples=60, deadline=None)
@given(f3_matrix())
def test_rref_is_idempotent(a):
    ech = rref(a)
    again = rref(ech.matrix)
    assert again.matrix == ech.matrix
    assert again.pivots == ech.pivots


@settings(max_examples=40, deadline=None)
@given(f3_matrix(max_dim=3), st.lists(st.integers(0, 2), min_size=3, max_size=3))
def test_solve_affine_consistent_rhs(a, coeffs):
    # rhs built from an actual preimage is always feasible
    v = tuple(F3.scalar(c) for c in coeffs[: a.ncols]) + tuple(
        F3.zero() for _ in range(max(0, a.ncols - len(coeffs)))
    )
    b = apply(a, v)
    sol = solve_affine(a, sparse(b))
    assert sol.feasible
    assert apply(a, dense(sol.particular, a.ncols)) == b


@pytest.mark.parametrize("field", [F5, Q])
def test_power_matches_repeated_product(field):
    a = mat(field, [[1, 2, 0], [0, 3, 1], [4, 0, -2]])
    if field == Q:
        a = a.scale(Q.parse_literal("1/3"))
    expected = Matrix.identity(field, 3)
    for n in range(10):
        assert a.power(n) == expected
        expected = expected * a


@st.composite
def power_case(draw):
    """A field, a square matrix of size 0..30 and an exponent 0..40.  The
    matrix is random (entries drawn from a seed, at a drawn density; over Q
    with fractional entries), strictly lower triangular, or the nilpotent
    shift with ones just below the diagonal."""
    field = draw(st.sampled_from([FieldSpec.prime(2), F3, FieldSpec.prime(65521), Q]))
    size = draw(st.integers(0, 30))
    kind = draw(st.sampled_from(["random", "lower", "shift"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.05, 0.2, 1.0]))

    def entry():
        if rng.random() >= density:
            return 0
        if field.p is None:
            return Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        return rng.randrange(field.p)

    rows = [[field.one() if kind == "shift" and j == i - 1
             else entry() if kind == "random" or (kind == "lower" and j < i)
             else 0 for j in range(size)] for i in range(size)]
    return Matrix.from_rows(field, rows), draw(st.integers(0, 40))


@settings(max_examples=40, deadline=None)
@given(power_case())
def test_power_matches_repeated_reference_product(case):
    a, n = case
    result = a.power(n)
    assert result == reference_power(a, n)
    assert canonical(a.field, flat(result))


KERNEL_FIELDS = [FieldSpec.prime(2), F3, F5, FieldSpec.prime(65521), Q]


@st.composite
def kernel_case(draw):
    """A field, A (n x m, possibly 0 x m or n x 0, often rank deficient, in
    part of the examples padded with many zero rows and repeated rows),
    B (m x k), a right-hand side of length n and C (t x n)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    if field.p is None:
        value = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=3))
    else:
        value = st.one_of(st.just(0), st.integers(-3, 3), st.integers(0, field.p - 1))

    def matrix(nrows, ncols):
        values = draw(st.lists(value, min_size=nrows * ncols, max_size=nrows * ncols))
        return dense_to_matrix(field, nrows, ncols, [field.scalar(x) for x in values])

    n, m, k, t = (draw(st.integers(0, 5)) for _ in range(4))
    a = matrix(n, m)
    if n and m and draw(st.booleans()):
        inner = draw(st.integers(1, min(n, m)))
        a = reference_mul(matrix(n, inner), matrix(inner, m))
    if draw(st.booleans()):
        # zero rows and copies of rows, shuffled in: the shape of the
        # deformation and Hom systems
        rows = dense_rows(a)
        extra = draw(st.lists(st.sampled_from(rows + [(field.zero(),) * m]), max_size=10))
        rows = draw(st.permutations(rows + extra))
        a = dense_to_matrix(field, len(rows), m, [x for row in rows for x in row])
        n = a.nrows
    rhs = tuple(flat(matrix(1, n)))
    return field, a, matrix(m, k), rhs, matrix(t, n)


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_kernels_match_boxed_reference(case):
    field, a, b, rhs, c = case
    ech = rref(a)
    ref_matrix, ref_pivots = reference_dense_rref(a)
    assert ech.pivots == ref_pivots
    assert ech.matrix == ref_matrix and canonical(field, flat(ech.matrix))

    kernel = kernel_basis(a)
    dense_kernel = [dense(v, a.ncols) for v in kernel]
    assert dense_kernel == reference_kernel_basis(a)
    assert all(canonical(field, v.values()) for v in kernel)

    sol = solve_affine(a, sparse(rhs))
    particular = None if sol.particular is None else dense(sol.particular, a.ncols)
    assert ((sol.feasible, particular, dense_kernel, sol.rank, sol.rank_augmented)
            == reference_solve_affine(a, rhs))
    assert sol.particular is None or canonical(field, sol.particular.values())

    # A X = C^T with one row reduction, column by column as solve_affine
    rhs_columns = c.transpose()
    with mock.patch("defring.linalg.rref", wraps=rref) as counted:
        x = solve_matrix(a, rhs_columns)
    assert counted.call_count == 1
    columns = [reference_solve_affine(a, column(rhs_columns, j)) for j in range(c.nrows)]
    if all(col[0] for col in columns):
        assert x is not None and canonical(field, flat(x))
        assert [column(x, j) for j in range(c.nrows)] == [col[1] for col in columns]
    else:
        assert x is None

    product = a * b
    assert product == reference_mul(a, b) and canonical(field, flat(product))

    # the span of C·A lies in the span of A's rows
    space = dense_rows(a)
    sub = dense_rows(reference_mul(c, a)) if a.nrows else []
    ech_sub = row_space([sparse(v) for v in sub], field, a.ncols)
    ref_rows, ref_pivots = reference_row_space(sub, field, a.ncols)
    assert ech_sub.pivots == ref_pivots and dense_rows(ech_sub.matrix) == ref_rows
    for v in space:
        reduced = reduce_mod_rows(ech_sub, sparse(v))
        assert dense(reduced, a.ncols) == reference_reduce_mod_rows(field, ref_rows, ref_pivots, v)
        assert canonical(field, reduced.values())
        assert in_row_span(ech_sub, sparse(v)) == (not reduced)
    # the quotient span(A)/span(C·A) has dimension rank(A) - rank(C·A): the
    # count both Ext^1 routes make instead of forming the quotient
    reps = reference_complement_representatives(space, sub, field, a.ncols)
    assert len(reps) == row_space(a.rows, field, a.ncols).rank - ech_sub.rank


@st.composite
def elimination_case(draw):
    """A matrix over F_2, F_3, F_5 or Q and vectors to reduce against its
    rows.  The matrix is random at a drawn density (in part of the examples a
    product, so rank deficient), banded, or shift-like: one band of values
    repeated one column further right on each row, as δ(top, V) is for
    k[x]/(x^n), which Gauss–Jordan fills in; possibly transposed, with zero
    rows and repeated rows shuffled in."""
    field = draw(st.sampled_from([FieldSpec.prime(2), F3, F5, Q]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    kind = draw(st.sampled_from(["random", "product", "banded", "shift"]))
    n, m = draw(st.integers(0, 24)), draw(st.integers(0, 24))
    width = draw(st.integers(1, 4))
    density = draw(st.sampled_from([0.1, 0.4, 1.0]))

    def value(nonzero=False):
        if field.p is None:
            x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        else:
            x = rng.randrange(field.p)
        return value(nonzero) if nonzero and not x else x

    band = [value(nonzero=True) for _ in range(width)]
    if kind == "shift":
        rows = [[band[j - i] if 0 <= j - i < width else 0 for j in range(m)] for i in range(n)]
    elif kind == "banded":
        rows = [[value() if 0 <= j - i < width and rng.random() < density else 0
                 for j in range(m)] for i in range(n)]
    else:
        rows = [[value() if rng.random() < density else 0 for j in range(m)] for i in range(n)]
    a = Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, m)
    if kind == "product" and n and m:
        inner = rng.randint(1, min(n, m))
        left = Matrix.from_rows(field, [[value() for _ in range(inner)] for _ in range(n)])
        a = left * Matrix.from_rows(field, [[value() for _ in range(m)] for _ in range(inner)])
    if draw(st.booleans()):
        a = a.transpose()
    rows = a.rows + [{}] * draw(st.integers(0, 4))
    rows += [rng.choice(rows) for _ in range(draw(st.integers(0, 6)) if rows else 0)]
    rng.shuffle(rows)
    a = Matrix(field, len(rows), a.ncols, rows)
    vectors = [{j: x for j in range(a.ncols) if (x := field.scalar(value()))}
               for _ in range(3)] + a.rows[:3]
    if a.nrows >= 2:
        vectors.append((a + a).rows[0] if rng.random() < 0.5 else reference_mul(
            Matrix.from_rows(field, [[value() for _ in range(a.nrows)]]), a).rows[0])
    return a, vectors


@settings(max_examples=300, deadline=None)
@given(elimination_case())
def test_forward_elimination_matches_gauss_jordan(case):
    # rref is the forward pass plus back-substitution: it, rank and the
    # remainders reduce_mod_rows leaves all agree with sparse Gauss–Jordan
    a, vectors = case
    field = a.field
    ref = reference_rref(a)
    reduced = rref(a)
    assert (reduced.pivots, reduced.rows) == (ref.pivots, ref.rows)
    assert rank(a) == ref.rank
    forward = echelon(a)
    assert forward.pivots == ref.pivots and (forward.nrows, forward.ncols) == (a.nrows, a.ncols)
    for row, c in zip(forward.rows, forward.pivots):
        assert min(row) == c and row[c] == 1 and canonical(field, row.values())
    # back-substituting a kept forward form gives the same and leaves it as it was
    kept = [dict(row) for row in forward.rows]
    again = rref(forward)
    assert (again.pivots, again.rows) == (ref.pivots, ref.rows)
    assert forward.rows == kept
    assert kernel_basis(forward) == kernel_basis(a)
    for v in vectors:
        assert reduce_mod_rows(forward, v) == reduce_mod_rows(reduced, v)
        assert in_row_span(forward, v) == in_row_span(reduced, v)


def test_product_rejects_foreign_fields():
    with pytest.raises(FieldMismatch):
        mat(F5, [[1]]) * mat(F3, [[1]])
    with pytest.raises(FieldMismatch):
        mat(F5, [[1]]) + mat(F3, [[1]])


CANONICAL_FIELDS = [FieldSpec.prime(2), F5, FieldSpec.prime(65521), Q]


@st.composite
def raw_matrices(draw):
    """A field, n, m, and raw entries for two n x m matrices, an m x k matrix,
    the m columns of an n x m matrix and a scalar: negative ints, ints of p
    and above, and Fractions (integral ones over F_p)."""
    field = draw(st.sampled_from(CANONICAL_FIELDS))
    if field.p is None:
        value = st.one_of(st.integers(-9, 9), st.fractions(-4, 4, max_denominator=5))
    else:
        wide = st.integers(-3 * field.p, 3 * field.p)
        value = st.one_of(wide, wide.map(Fraction), st.sampled_from([0, field.p, -field.p]))
    n, m, k = (draw(st.integers(0, 4)) for _ in range(3))

    def grid(nrows, ncols):
        return [draw(st.lists(value, min_size=ncols, max_size=ncols)) for _ in range(nrows)]

    return field, n, m, grid(n, m), grid(n, m), grid(m, k), grid(m, n), draw(value)


@settings(max_examples=200, deadline=None)
@given(raw_matrices())
def test_matrix_operations_keep_entries_canonical(case):
    field, n, m, rows, other_rows, right_rows, columns, c = case
    scalar = field.scalar
    entries = [x for row in rows for x in row]
    other = [x for row in other_rows for x in row]
    a = mat(field, rows) if n else Matrix.zeros(field, 0, m)
    b = mat(field, other_rows) if n else Matrix.zeros(field, 0, m)
    right = mat(field, right_rows) if m else Matrix.zeros(field, 0, 0)
    from_cols = columns_matrix(field, n, columns)
    assert flat(a) == [scalar(x) for x in entries]
    assert flat(from_cols.transpose()) == [scalar(x) for col in columns for x in col]
    assert flat(a + b) == [scalar(x + y) for x, y in zip(entries, other)]
    assert flat(a - b) == [scalar(x - y) for x, y in zip(entries, other)]
    assert flat(-a) == [scalar(-x) for x in entries]
    assert flat(a.scale(c)) == [scalar(c * x) for x in entries]
    assert a * right == reference_mul(a, right)
    vector = from_cols.row(0) if n else (field.zero(),) * m
    results = [a, b, from_cols, a + b, a - b, -a, a.scale(c), a * right, a.hstack(b),
               a.transpose(), rref(a).matrix, Matrix.identity(field, n)]
    entries = [x for r in results for x in flat(r)] + list(apply(a, vector))
    entries += [x for v in kernel_basis(a) for x in v.values()]
    sol = solve_affine(a, sparse(column(b, 0)) if m else {})
    entries += (sol.particular or {}).values()
    ech = row_space(b.rows, field, m)
    entries += [x for row in ech.rows for x in row.values()]
    entries += [x for v in a.rows for x in reduce_mod_rows(ech, v).values()]
    assert canonical(field, entries)


def test_from_rows_rejects_what_is_not_in_the_field():
    for bad in ([[0.5]], [[Fraction(1, 2)]]):
        with pytest.raises((TypeError, ValueError)):
            mat(F5, bad)
    assert tolist(mat(Q, [[0.5]])) == [[Fraction(1, 2)]]


def stores_only_nonzero_canonical_values(m):
    """m holds one dict per row, and each holds nonzero canonical values at
    columns inside m's shape."""
    return (len(m.rows) == m.nrows
            and all(type(row) is dict and all(0 <= j < m.ncols and x for j, x in row.items())
                    for row in m.rows)
            and canonical(m.field, [x for row in m.rows for x in row.values()]))


@settings(max_examples=200, deadline=None)
@given(raw_matrices(), st.integers(0, 6))
def test_matrices_store_no_zero_and_only_canonical_values(case, e):
    field, n, m, rows, other_rows, right_rows, columns, c = case
    a = mat(field, rows) if n else Matrix.zeros(field, 0, m)
    b = mat(field, other_rows) if n else Matrix.zeros(field, 0, m)
    right = mat(field, right_rows) if m else Matrix.zeros(field, 0, 0)
    square = a.transpose() * a
    results = [a, b, right, columns_matrix(field, n, columns), a + b, a - b, a - a, -a,
               a.scale(c), a.scale(0), a * right, square, square.power(e), a.transpose(),
               a.hstack(b), rref(a).matrix, rref(a.hstack(b)).matrix,
               Matrix.identity(field, n), Matrix.zeros(field, n, m)]
    assert all(stores_only_nonzero_canonical_values(r) for r in results)
    assert (a - a).rows == a.scale(0).rows == [{}] * n
    # vectors are stored as matrix rows are: kernel vectors, particular
    # solutions (of b's first column and of A's own first column), echelon
    # rows, reduced vectors and packed matrices
    layout = MapLayout(field, [("a", n, m), ("b", n, m), ("right", right.nrows, right.ncols)])
    packed = layout.pack({"a": a, "b": b, "right": right})
    vectors = [(v, m) for v in kernel_basis(a)] + [(packed, layout.total)]
    for rhs in ([b.transpose().rows[0], a.transpose().rows[0]] if m else [{}]):
        sol = solve_affine(a, rhs)
        vectors += [(sol.particular, m)] if sol.feasible else []
    assert m == 0 or solve_affine(a, a.transpose().rows[0]).feasible
    ech = row_space(b.rows, field, m)
    vectors += [(row, m) for row in ech.rows + rref(a).rows]
    vectors += [(reduce_mod_rows(ech, row), m) for row in a.rows]
    assert all(stores_only_nonzero_canonical_values(Matrix(field, 1, width, [v]))
               for v, width in vectors)
    # and so are the coordinates of paths in an algebra's basis
    assert all(stores_only_nonzero_canonical_values(
        Matrix(alg.field, 1, alg.dimension, [alg.reduce_path(p)]))
        for alg, paths in SHORT_PATHS for p in paths)
    assert layout.unpack(packed) == {"a": a, "b": b, "right": right}
    assert a * right == reference_mul(a, right)
    assert square == reference_mul(a.transpose(), a)
    assert square.power(e) == reference_power(square, e)


@st.composite
def row_kinds(draw):
    """A field of F_2, F_3, F_5 and Q, and a maker of nrows x ncols matrices
    whose rows are zero rows, unit rows (one entry 1), single-entry rows,
    random rows, or repeats of an earlier row of the same matrix, that same
    dict or a copy; three sizes and a scalar."""
    field = draw(st.sampled_from([FieldSpec.prime(2), F3, F5, Q]))
    rng = random.Random(draw(st.integers(0, 2**32)))

    def value():
        if field.p is None:
            return field.scalar(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3)))
        return rng.randrange(1, field.p)

    def matrix(nrows, ncols):
        rows = []
        for _ in range(nrows):
            kind = rng.choice(["zero", "unit", "single", "random", "repeat"] if ncols else ["zero"])
            if kind == "repeat" and rows:
                row = rng.choice(rows)
                rows.append(row if rng.random() < 0.5 else dict(row))
                continue
            cols = {"zero": 0, "unit": 1, "single": 1}.get(kind, rng.randint(0, ncols))
            row = {j: value() for j in sorted(rng.sample(range(ncols), cols))}
            rows.append({j: field.one() for j in row} if kind == "unit" else row)
        return Matrix(field, nrows, ncols, rows)

    scalars = [0, 1, -1, 2, 7] + ([Fraction(2, 3)] if field.p is None else [])
    return (field, matrix, draw(st.integers(0, 7)), draw(st.integers(0, 7)), draw(st.integers(0, 7)),
            draw(st.sampled_from(scalars)))


@settings(max_examples=150, deadline=None)
@given(row_kinds(), st.integers(0, 4))
def test_one_pass_arithmetic_matches_boxed_references(case, k):
    # unit rows are taken by reference and zero rows take the other side's
    # row: every result must still be the reference's, held canonically, and
    # no operand may change
    field, matrix, n, m, t, c = case
    a, b, right, square = matrix(n, m), matrix(n, m), matrix(m, t), matrix(m, m)
    operands = [a, b, right, square]
    before = [[dict(row) for row in x.rows] for x in operands]
    results = [(a * right, reference_mul(a, right)), (a + b, reference_add(a, b)),
               (a - b, reference_sub(a, b)), (-a, reference_scale(a, -1)),
               (a.scale(c), reference_scale(a, c)), (b + a, reference_add(b, a)),
               (a - a, Matrix.zeros(field, n, m))]
    calls = [0]
    product = Matrix.__mul__

    def counting(x, y):
        calls[0] += 1
        return product(x, y)

    for e in range(2**k + 2):
        calls[0] = 0
        with mock.patch.object(Matrix, "__mul__", counting):
            result = square.power(e)
        # floor(log2 e) squarings and popcount(e) - 1 products by square
        assert calls[0] == (e.bit_length() - 1 + bin(e).count("1") - 1 if e else 0), e
        results.append((result, reference_power(square, e)))
    for result, reference in results:
        assert result == reference
        assert stores_only_nonzero_canonical_values(result)
    assert [[dict(row) for row in x.rows] for x in operands] == before
