import dataclasses

import pytest

from defring import HereditaryModeUnsupported, PresentedAlgebra, Representation, ext1_dim, parse
from defring.quiver import Arrow, Path, PathTree
from helpers import (CORPUS, load_algebra, node_paths, paths_up_to, reference_ext1_syzygy,
                     reference_left_projective)

# a skew-commutative algebra whose relations reduce some paths of length 2
# to multiples of others rather than to zero
SKEW = """\
field F 5
quiver
  vertex v
  arrow x: v -> v
  arrow y: v -> v
truncate 4
relations
  x*y - 2*y*x
  x*x - y*y

module S
  dim v = 1
  mat x = [[0]]
  mat y = [[0]]

module M
  dim v = 2
  mat x = [[0,0],[1,0]]
  mat y = [[0,0],[3,0]]
"""

TRUNCATED = [name for name in sorted(p.name for p in CORPUS.glob("*.alg"))
             if load_algebra(name)[1].basis is not None]


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
    assert alg.reduce_path(xx) == {2: 1}
    assert alg.reduce_path(xxx) == {}


def test_products_reduce_through_concatenation():
    _, alg = load_algebra("kx3_f5.alg")
    x = alg.quiver.path(["x"])
    xx = alg.quiver.path(["x", "x"])
    assert alg.reduce_path(x.then(x)) == alg.reduce_path(xx)
    assert not alg.reduce_path(x.then(xx))
    # non-composable paths have no product
    _, a2 = load_algebra("a2_f5.alg")
    a = a2.quiver.path(["a"])
    with pytest.raises(ValueError):
        a.then(a)


def test_skew_relations_reduce_to_multiples():
    alg = PresentedAlgebra.from_source(parse(SKEW))
    assert labels(alg) == ["e_v", "x", "y", "y*x", "y*y"]
    path = alg.quiver.path
    assert alg.reduce_path(path(["x", "y"])) == {3: 2}
    assert alg.reduce_path(path(["x", "x"])) == {4: 1}
    assert alg.reduce_path(path(["x", "x", "y"])) == {}


@pytest.mark.parametrize("text", [None, SKEW], ids=["kx4_f5", "skew"])
def test_path_products_associative_on_basis(text):
    alg = PresentedAlgebra.from_source(parse(text)) if text else load_algebra("kx4_f5.alg")[1]
    scalar = alg.field.scalar

    def times(coords, path):
        # a coordinate dict times a path on the right
        out = {}
        for j, c in coords.items():
            for i, y in alg.reduce_path(alg.basis[j].then(path)).items():
                out[i] = out.get(i, 0) + c * y
        return {i: s for i, x in out.items() if (s := scalar(x))}

    for p in alg.basis:
        for q in alg.basis:
            for r in alg.basis:
                assert times(alg.reduce_path(p.then(q)), r) == times(alg.reduce_path(p), q.then(r))


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
    assert alg.basis is None
    assert alg.generating_relations() == ()
    with pytest.raises(HereditaryModeUnsupported):
        alg.dimension
    with pytest.raises(HereditaryModeUnsupported):
        alg.reduce_path(alg.quiver.path(["x"]))
    with pytest.raises(HereditaryModeUnsupported):
        alg.left_projective("v")


def test_declared_relations_reduce_to_zero():
    algebras = [load_algebra(name)[1] for name in ("kx2_rel_f5.alg", "parallel_rel_f3.alg")]
    for alg in algebras + [PresentedAlgebra.from_source(parse(SKEW))]:
        for rel in alg.relations:
            assert alg.reduce_terms(rel.terms) == {}


@pytest.mark.parametrize("name", TRUNCATED + ["skew"])
def test_left_projective_matches_dense_reference(name):
    alg = PresentedAlgebra.from_source(parse(SKEW)) if name == "skew" else load_algebra(name)[1]
    for v in alg.quiver.vertices:
        p = alg.left_projective(v)
        assert p == reference_left_projective(alg, v)
        assert p.dims == {w: len(js) for w, js in alg.paths_from[v].items()}


def test_skew_ext_backends_agree_with_the_syzygy_reference():
    src = parse(SKEW)
    alg = PresentedAlgebra.from_source(src)
    modules = [Representation.from_module_def(alg, src.modules[name]) for name in ("S", "M")]
    for m in modules:
        for n in modules:
            assert ext1_dim(m, n, "all") == reference_ext1_syzygy(m, n)


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


def test_path_hash_is_taken_at_construction_and_stays_out_of_eq_and_repr():
    x, y = Arrow("x", "v", "v"), Arrow("y", "v", "v")
    p, q = Path((x, y), "v", "v"), Path((x,), "v", "v").then(Path((y,), "v", "v"))
    assert vars(p)["_hash"] == hash(p) == hash(q) and p == q
    assert [f.name for f in dataclasses.fields(Path)] == ["arrows", "source", "target"]
    assert repr(p) == "x*y" and repr(Path.trivial("v")) == "e_v"
    assert p != Path((y, x), "v", "v") and len({p, q, Path((y, x), "v", "v")}) == 2


@pytest.mark.parametrize("name", TRUNCATED + ["skew"])
def test_path_tree_grows_the_degree_lex_enumeration(name):
    # the nodes shorter than the bound are every such path in degree-lex order,
    # the next level the length-m paths, which are the truncation generators
    alg = PresentedAlgebra.from_source(parse(SKEW)) if name == "skew" else load_algebra(name)[1]
    paths = node_paths(alg.tree)
    assert paths[:alg.short] == paths_up_to(alg.quiver, alg.truncate - 1)
    longest = paths_up_to(alg.quiver, alg.truncate)
    assert paths[:len(longest)] == longest
    generators = alg.generating_relations()[len(alg.relations):]
    assert [rel.terms[0][1] for rel in generators] == longest[alg.short:]
    assert [paths[node] for node in alg.basis_nodes] == alg.basis


def test_relation_path_past_the_bound_is_added_after_the_grown_levels():
    alg = PresentedAlgebra.from_source(parse(
        "field F 5\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate 5\nrelations\n  x*x*x*x*x*x\n"))
    assert alg.short == 5 and len(alg.tree.parents) == 7
    assert node_paths(alg.tree)[6].label() == "x*x*x*x*x*x"
    assert alg.generator_terms == (((1, 6),), ((1, 5),))
    assert alg.dimension == 5


def test_long_truncation_looks_up_each_node_about_once(monkeypatch):
    # growing k[x]/(x^640) extends each node once; no path is re-added from its root
    calls = []
    child = PathTree._child

    def counting(tree, *args):
        calls.append(args)
        return child(tree, *args)

    monkeypatch.setattr(PathTree, "_child", counting)
    alg = PresentedAlgebra.from_source(parse(
        "field F 3\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate 640\n"))
    assert alg.dimension == 640
    assert len(calls) <= 2 * 641


def _arrows_of_paths_built(monkeypatch, n):
    """The arrows held by every quiver.Path built with k[x]/(x^n) over F_3,
    and the algebra."""
    built = [0]
    post_init = Path.__post_init__

    def counting(path):
        built[0] += len(path.arrows)
        post_init(path)

    monkeypatch.setattr(Path, "__post_init__", counting)
    alg = PresentedAlgebra.from_source(parse(
        f"field F 3\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate {n}\n"))
    assert alg.dimension == n and alg.paths_from == {"v": {"v": list(range(n))}}
    assert [rel.terms[0][1].length for rel in alg.generating_relations()] == [n]
    return built[0], alg


def test_building_a_long_truncation_grows_linearly(monkeypatch):
    # one Path per tree node, each copying its parent's arrows, made the
    # build quadratic in the bound (4x from x^320 to x^640); now only the
    # generator path x^n is built, and the basis paths on first read
    small, _ = _arrows_of_paths_built(monkeypatch, 320)
    large, alg = _arrows_of_paths_built(monkeypatch, 640)
    assert large <= 2.5 * small
    assert alg.has_basis and "basis" not in vars(alg)
    assert [p.length for p in alg.basis] == list(range(640))
