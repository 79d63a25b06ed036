import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring.fields import FieldSpec
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
