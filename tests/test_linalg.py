from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.fields import FieldMismatch, FieldSpec
from defring.linalg import (
    Matrix,
    block_matrix,
    complement_representatives,
    in_row_span,
    kernel_basis,
    rank,
    reduce_mod_rows,
    row_space,
    rref,
    solve_affine,
    solve_matrix,
    vec_add,
    vec_is_zero,
    vec_scale,
)
from helpers import (boxed_complement_representatives, boxed_kernel_basis, boxed_mul,
                     boxed_reduce_mod_rows, boxed_row_space, boxed_rref, boxed_solve_affine)

F3 = FieldSpec.prime(3)
F5 = FieldSpec.prime(5)
Q = FieldSpec.rationals()


def mat(field, rows):
    return Matrix.from_rows(field, rows)


def as_ints(m):
    return [[int(x.value) for x in row] for row in m.tolist()]


def test_matrix_arithmetic():
    a = mat(F5, [[1, 2], [3, 4]])
    b = mat(F5, [[0, 1], [1, 0]])
    assert as_ints(a * b) == [[2, 1], [4, 3]]
    assert as_ints(a + b) == [[1, 3], [4, 4]]
    assert as_ints(a - a) == [[0, 0], [0, 0]]
    assert (a * Matrix.identity(F5, 2)) == a
    assert as_ints(a.transpose()) == [[1, 3], [2, 4]]
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
    v = tuple(Q.scalar(x) for x in (1, 1, 1))
    assert a.apply(v) == tuple(Q.scalar(x) for x in (3, 1))


def test_stack_and_block():
    a = mat(F3, [[1, 2]])
    b = mat(F3, [[0, 1]])
    assert as_ints(a.vstack(b)) == [[1, 2], [0, 1]]
    assert as_ints(a.hstack(b)) == [[1, 2, 0, 1]]
    grid = [[Matrix.identity(F3, 2), Matrix.zeros(F3, 2, 1)]]
    assert as_ints(block_matrix(F3, grid)) == [[1, 0, 0], [0, 1, 0]]


def test_rref_canonical_pivots():
    a = mat(Q, [[2, 4, 0], [1, 2, 1]])
    ech = rref(a)
    assert ech.pivots == [0, 2]
    assert as_ints(ech.matrix) == [[1, 2, 0], [0, 0, 1]]
    assert rank(a) == 2
    assert rank(Matrix.zeros(Q, 3, 2)) == 0


def test_kernel_basis_annihilates():
    a = mat(F5, [[1, 2, 3], [2, 4, 1]])
    ker = kernel_basis(a)
    assert len(ker) == 3 - rank(a)
    for v in ker:
        assert vec_is_zero(a.apply(v))


def test_solve_affine_feasible():
    a = mat(Q, [[1, 1], [0, 0]])
    b = tuple(Q.scalar(x) for x in (3, 0))
    sol = solve_affine(a, b)
    assert sol.feasible
    assert a.apply(sol.particular) == b
    assert len(sol.kernel) == 1
    shifted = vec_add(sol.particular, vec_scale(Q.scalar(7), sol.kernel[0]))
    assert a.apply(shifted) == b


def test_solve_affine_infeasible():
    a = mat(Q, [[1, 1], [1, 1]])
    b = tuple(Q.scalar(x) for x in (0, 1))
    sol = solve_affine(a, b)
    assert not sol.feasible


def test_solve_matrix_inverse():
    t = mat(F5, [[1, 2], [1, 3]])
    inv = solve_matrix(t, Matrix.identity(F5, 2))
    assert inv is not None
    assert t * inv == Matrix.identity(F5, 2)
    singular = mat(F5, [[1, 2], [2, 4]])
    assert solve_matrix(singular, Matrix.identity(F5, 2)) is None


def test_row_space_membership():
    vectors = [tuple(F3.scalar(x) for x in row) for row in ([1, 0, 1], [0, 1, 1])]
    ech = row_space(vectors, F3, 3)
    assert in_row_span(ech, tuple(F3.scalar(x) for x in (1, 2, 0)))
    assert not in_row_span(ech, tuple(F3.scalar(x) for x in (0, 0, 1)))
    reduced = reduce_mod_rows(ech, tuple(F3.scalar(x) for x in (1, 0, 1)))
    assert vec_is_zero(reduced)


def test_complement_representatives():
    space = [tuple(F3.scalar(x) for x in row) for row in ([1, 0], [0, 1])]
    sub = [tuple(F3.scalar(x) for x in (1, 0))]
    reps = complement_representatives(space, sub, F3, 2)
    assert len(reps) == 1
    ech = row_space(sub, F3, 2)
    assert not in_row_span(ech, reps[0])


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
    b = a.apply(v)
    sol = solve_affine(a, b)
    assert sol.feasible
    assert a.apply(sol.particular) == b


@pytest.mark.parametrize("field", [F5, Q])
def test_power_matches_repeated_product(field):
    a = mat(field, [[1, 2, 0], [0, 3, 1], [4, 0, -2]])
    if field == Q:
        a = a.scale(Q.parse_literal("1/3"))
    expected = Matrix.identity(field, 3)
    for n in range(10):
        assert a.power(n) == expected
        expected = expected * a


KERNEL_FIELDS = [FieldSpec.prime(2), F3, F5, FieldSpec.prime(65521), Q]


@st.composite
def kernel_case(draw):
    """A field, A (n x m, possibly 0 x m or n x 0, often rank deficient),
    B (m x k), a right-hand side of length n and C (t x n)."""
    field = draw(st.sampled_from(KERNEL_FIELDS))
    if field.p is None:
        value = st.one_of(st.just(0), st.fractions(-4, 4, max_denominator=3))
    else:
        value = st.one_of(st.just(0), st.integers(-3, 3), st.integers(0, field.p - 1))

    def matrix(nrows, ncols):
        flat = draw(st.lists(value, min_size=nrows * ncols, max_size=nrows * ncols))
        return Matrix(field, nrows, ncols, [field.scalar(x) for x in flat])

    n, m, k, t = (draw(st.integers(0, 5)) for _ in range(4))
    a = matrix(n, m)
    if n and m and draw(st.booleans()):
        inner = draw(st.integers(1, min(n, m)))
        a = boxed_mul(matrix(n, inner), matrix(inner, m))
    rhs = tuple(matrix(1, n).data)
    return field, a, matrix(m, k), rhs, matrix(t, n)


def canonical(field, entries):
    if field.p is None:
        return all(x.field == field and type(x.value) is Fraction for x in entries)
    return all(x.field == field and type(x.value) is int and 0 <= x.value < field.p
               for x in entries)


@settings(max_examples=200, deadline=None)
@given(kernel_case())
def test_kernels_match_boxed_reference(case):
    field, a, b, rhs, c = case
    ech = rref(a)
    ref_matrix, ref_pivots = boxed_rref(a)
    assert ech.pivots == ref_pivots
    assert ech.matrix == ref_matrix and canonical(field, ech.matrix.data)

    kernel = kernel_basis(a)
    assert kernel == boxed_kernel_basis(a)
    assert all(canonical(field, v) for v in kernel)

    sol = solve_affine(a, rhs)
    assert (sol.feasible, sol.particular, sol.kernel) == boxed_solve_affine(a, rhs)
    assert sol.particular is None or canonical(field, sol.particular)

    product = a * b
    assert product == boxed_mul(a, b) and canonical(field, product.data)

    # the span of C·A lies in the span of A's rows
    space = a.rows()
    sub = boxed_mul(c, a).rows() if a.nrows else []
    ech_sub = row_space(sub, field, a.ncols)
    ref_rows, ref_pivots = boxed_row_space(sub, field, a.ncols)
    assert ech_sub.pivots == ref_pivots and ech_sub.matrix.rows() == ref_rows
    for v in space:
        reduced = reduce_mod_rows(ech_sub, v)
        assert reduced == boxed_reduce_mod_rows(ref_rows, ref_pivots, v)
        assert canonical(field, reduced)
        assert in_row_span(ech_sub, v) == vec_is_zero(reduced)
    reps = complement_representatives(space, sub, field, a.ncols)
    assert reps == boxed_complement_representatives(space, sub, field, a.ncols)
    assert all(canonical(field, v) for v in reps)


def test_own_scalars_pass_through_and_foreign_fields_are_rejected():
    x = F5.scalar(3)
    m = Matrix.from_rows(F5, [[x, 4], [-1, FieldSpec.prime(5).scalar(2)]])
    assert m.data[0] is x
    assert as_ints(m) == [[3, 4], [4, 2]]
    with pytest.raises(FieldMismatch):
        Matrix.from_rows(F5, [[F3.scalar(1)]])
    with pytest.raises(FieldMismatch):
        Matrix.from_columns(F5, 1, [[F3.scalar(1)]])
    with pytest.raises(FieldMismatch):
        mat(F5, [[1]]) * mat(F3, [[1]])


def test_kernel_outputs_are_interned():
    a = mat(F5, [[1, 2, 3], [2, 4, 1], [0, 0, 0]])
    echelon = rref(a).matrix
    assert all(x is F5.scalar(x.value) for x in echelon.data)
    assert all(x is F5.zero() for x in (a * Matrix.zeros(F5, 3, 2)).data)
    zeros = (mat(Q, [[1, -1]]) * mat(Q, [[1], [1]])).data + rref(mat(Q, [[0, 0]])).matrix.data
    assert all(x is Q.zero() for x in zeros)
