import pytest

from defring import HereditaryModeUnsupported, PresentedAlgebra, parse
from helpers import load_algebra


def labels(algebra):
    return [p.label() for p in algebra.basis]


def test_truncated_polynomial_basis():
    _, alg = load_algebra("kx2_f5.alg")
    assert alg.dimension == 2
    assert labels(alg) == ["e_v", "x"]
    _, alg5 = load_algebra("kx5_f5.alg")
    assert alg5.dimension == 5
    assert labels(alg5) == ["e_v", "x", "x*x", "x*x*x", "x*x*x*x"]


def test_explicit_relation_matches_truncation():
    # x*x as a declared relation cuts the same basis as truncating at 2
    _, with_rel = load_algebra("kx2_rel_f5.alg")
    _, truncated = load_algebra("kx2_f5.alg")
    assert with_rel.dimension == 2
    assert labels(with_rel) == labels(truncated)


def test_linear_relation_pivots_first_path():
    _, alg = load_algebra("parallel_rel_f3.alg")
    assert alg.dimension == 3
    # a - b pivots on a, so b survives as the basis representative
    assert labels(alg) == ["e_v1", "e_v2", "b"]
    a = alg.quiver.path(["a"])
    b = alg.quiver.path(["b"])
    assert alg.reduce_path(a) == alg.reduce_path(b)


def test_two_vertex_path_algebra():
    _, alg = load_algebra("a2_f5.alg")
    assert alg.dimension == 3
    assert labels(alg) == ["e_v1", "e_v2", "a"]


def test_reduce_path_kills_truncated_powers():
    _, alg = load_algebra("kx3_f5.alg")
    x = alg.quiver.path(["x"])
    xx = alg.quiver.path(["x", "x"])
    xxx = alg.quiver.path(["x", "x", "x"])
    assert any(alg.reduce_path(xx))
    assert not any(alg.reduce_path(xxx))


def test_multiply_basis_matches_path_reduction():
    _, alg = load_algebra("kx3_f5.alg")
    x = alg.quiver.path(["x"])
    xx = alg.quiver.path(["x", "x"])
    assert alg.multiply_basis(x, x) == alg.reduce_path(xx)
    assert not any(alg.multiply_basis(x, xx))
    # non-composable products vanish
    _, a2 = load_algebra("a2_f5.alg")
    a = a2.quiver.path(["a"])
    assert not any(a2.multiply_basis(a, a))


def test_multiply_basis_associative_on_basis():
    _, alg = load_algebra("kx4_f5.alg")
    scalar = alg.field.scalar

    def mul_coords(coords, path):
        # multiply a coordinate vector by a basis path on the right
        out = tuple([alg.field.zero()] * len(alg.basis))
        for c, p in zip(coords, alg.basis):
            if c:
                out = tuple(scalar(x + c * y) for x, y in zip(out, alg.multiply_basis(p, path)))
        return out

    for p in alg.basis:
        for q in alg.basis:
            for r in alg.basis:
                left = mul_coords(alg.multiply_basis(p, q), r)
                right = mul_coords(alg.reduce_path(p), q.then(r)) if q.target == r.source else None
                if right is not None:
                    assert left == right


def test_generating_relations_cover_truncation():
    src, alg = load_algebra("kx2_rel_f5.alg")
    gens = alg.generating_relations()
    # one declared relation plus the single length-3 path
    assert len(gens) == 2
    assert gens[0].label() == "x*x"


def test_left_projectives():
    _, alg = load_algebra("kx2_f5.alg")
    p = alg.left_projective("v")
    assert p.dims == {"v": 2}
    assert p.mats["x"].tolist()[1][0] == 1

    _, a2 = load_algebra("a2_f5.alg")
    p1 = a2.left_projective("v1")
    p2 = a2.left_projective("v2")
    assert p1.dims == {"v1": 1, "v2": 1}
    assert p2.dims == {"v1": 0, "v2": 1}
    # regular module decomposes into the vertex projectives
    total = sum(sum(q.dims.values()) for q in (p1, p2))
    assert total == a2.dimension


@pytest.mark.parametrize(
    "name", ["kx2_f5.alg", "kx3_f2.alg", "a2_f5.alg", "parallel_rel_f3.alg"]
)
def test_projective_dims_sum_to_algebra_dim(name):
    _, alg = load_algebra(name)
    total = 0
    for v in alg.quiver.vertices:
        total += sum(alg.left_projective(v).dims.values())
    assert total == alg.dimension


def test_hereditary_mode_guards():
    _, alg = load_algebra("loop_free_f2.alg")
    assert alg.hereditary
    assert alg.generating_relations() == ()
    with pytest.raises(HereditaryModeUnsupported):
        alg.dimension
    with pytest.raises(HereditaryModeUnsupported):
        alg.reduce_path(alg.quiver.path(["x"]))
    with pytest.raises(HereditaryModeUnsupported):
        alg.left_projective("v")


def test_declared_relations_reduce_to_zero():
    for name in ("kx2_rel_f5.alg", "parallel_rel_f3.alg"):
        _, alg = load_algebra(name)
        for rel in alg.relations:
            assert not any(alg.reduce_terms(rel.terms))


def test_relation_spanning_a_generator_shrinks_basis():
    # declaring x itself as a relation leaves only the idempotent
    text = """\
field F 5
quiver
  vertex v
  arrow x: v -> v
truncate 3
relations
  x

module V
  dim v = 1
  mat x = [[0]]
"""
    alg = PresentedAlgebra.from_source(parse(text))
    assert labels(alg) == ["e_v"]
