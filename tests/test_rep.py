import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import (
    DeformationSystem,
    HereditaryModeUnsupported,
    PresentedAlgebra,
    Representation,
    classify,
    deformation_system,
    ext1_cocycle,
    ext1_dim,
    ext1_hereditary,
    ext1_syzygy,
    hom_basis,
    hom_dim,
    hom_stable,
    iso_test,
    ladder_search,
    parse,
    projective_cover,
    syzygy,
    validate,
)
from defring.dsl import Relation
from defring.fields import FieldSpec
from defring.linalg import Matrix, in_row_span, rank, row_space
from defring import linalg, quiver, rep
from defring.quiver import Arrow, Quiver
from defring.lift import as_representation
from defring.rep import (NotHereditary, NotInvariant, direct_sum_many, hom_equations,
                         is_homomorphism, radical_subspaces, syzygy_data, yoneda_homs)
from helpers import (CORPUS, SECOND_PRESENTATIONS, apply, column, columns_matrix, dense,
                     load_algebra, load_module, load_source, node_paths, path_matrix,
                     paths_up_to, quiver_path, read_corpus, reference_coboundary_vectors,
                     reference_deformation_matrix, reference_ext1_cocycle,
                     reference_ext1_syzygy, reference_hom_equations, reference_hom_stable,
                     reference_projective_cover, reference_quotient, reference_rref,
                     reference_syzygy_data, restricted_cover_homs, retruncated,
                     second_presentation, solve_matrix, sparse, sub_from_maps,
                     text_modules, tolist)

THREE_CHAIN = """\
field F 5
quiver
  vertex u v w
  arrow a: u -> v
  arrow b: v -> w
truncate 3

module M
  dim u = 1
  dim v = 2
  dim w = 1
  mat a = [[1],[2]]
  mat b = [[3,4]]
"""


def test_path_matrix_composes_left_to_right():
    src = parse(THREE_CHAIN)
    alg = PresentedAlgebra.from_source(src)
    m = Representation.from_module_def(alg, src.modules["M"])
    ab = quiver_path(alg.quiver, ["a", "b"])
    # a first then b acts as M_b * M_a under the column convention
    assert path_matrix(m, ab) == m.mats["b"] * m.mats["a"]
    assert tolist(path_matrix(m, ab))[0][0] == (3 * 1 + 4 * 2) % 5


def test_trivial_path_matrix_is_identity():
    v = load_module("kx2_f5.alg", "P1")
    e = paths_up_to(v.algebra.quiver, 0)[0]
    assert path_matrix(v, e) == Matrix.identity(v.field, 2)


def test_validate_flags_broken_relations():
    src = parse(THREE_CHAIN.replace("mat x", "mat x"))
    alg = PresentedAlgebra.from_source(src)
    m = Representation.from_module_def(alg, src.modules["M"])
    assert validate(m) == []
    bad_src = parse(
        """\
field F 5
quiver
  vertex v
  arrow x: v -> v
truncate 2

module V
  dim v = 1
  mat x = [[1]]
"""
    )
    bad_alg = PresentedAlgebra.from_source(bad_src)
    bad = Representation.from_module_def(bad_alg, bad_src.modules["V"])
    problems = validate(bad)
    assert problems and "x*x" in problems[0]


def test_representation_rejects_an_unknown_vertex():
    v = load_module("kx3_f5.alg", "V")
    with pytest.raises(ValueError, match="unknown vertex w"):
        Representation(v.algebra, {"v": 1, "w": 3}, {})


def test_representation_rejects_an_unknown_arrow():
    v = load_module("kx3_f5.alg", "V")
    with pytest.raises(ValueError, match="unknown arrow y"):
        Representation(v.algebra, {"v": 1}, {"y": Matrix.from_rows(v.field, [[1]])})


def test_hom_dims_truncated_polynomials():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    assert hom_dim(v, v) == 1
    assert hom_dim(p1, p1) == 2
    assert hom_dim(p1, v) == 1
    assert hom_dim(v, p1) == 1
    vv = direct_sum_many([v, v])
    assert hom_dim(vv, vv) == 4


def test_hom_basis_elements_are_homomorphisms():
    p1 = load_module("kx2_f5.alg", "P1")
    v = load_module("kx2_f5.alg", "V")
    space = hom_basis(p1, v)
    assert len(space.basis) == 1
    for elt in space.basis:
        assert is_homomorphism(p1, v, elt)
    one = space.source.field.one()
    combo = space.element([one * 3])
    assert is_homomorphism(p1, v, combo)


def test_yoneda_on_vertex_projectives():
    for name in ("kx2_f5.alg", "a2_f5.alg", "parallel_rel_f3.alg"):
        src, alg = load_algebra(name)
        for mod_name in src.modules:
            m = load_module(name, mod_name)
            for vtx in alg.quiver.vertices:
                p = alg.left_projective(vtx)
                assert hom_dim(p, m) == m.dims[vtx]


def test_radical_top_cover_syzygy():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    assert radical_subspaces(p1)["v"].rank == 1
    assert p1.top_columns == {"v": [0]}
    assert radical_subspaces(v)["v"].rank == 0
    cover, cover_maps, parts, _ = projective_cover(v)
    assert [w for w, _ in parts] == ["v"]
    assert cover.dim_vector == (2,)
    assert iso_test(cover, p1).kind == "iso"
    assert is_homomorphism(cover, v, cover_maps)
    # cover map is onto: its single block has full rank
    assert rank(cover_maps["v"]) == 1
    om = syzygy(v)
    assert om.dim_vector == (1,)
    assert iso_test(om, v).kind == "iso"


def test_syzygy_of_projective_vanishes():
    p1 = load_module("kx2_f5.alg", "P1")
    assert syzygy(p1).total_dim == 0


def test_ext_backends_agree_on_small_cases():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    assert ext1_cocycle(v, v) == ext1_syzygy(v, v) == 1
    assert ext1_dim(v, v, "all") == 1
    assert ext1_dim(p1, p1, "all") == 0
    assert ext1_dim(p1, v, "all") == 0
    s1 = load_module("a2_f5.alg", "S1")
    s2 = load_module("a2_f5.alg", "S2")
    assert ext1_dim(s1, s2, "all") == 1
    assert ext1_dim(s2, s1, "all") == 0
    assert ext1_dim(s1, s1, "all") == 0


def test_hereditary_backend():
    m = load_module("kronecker_f3.alg", "M11")
    assert ext1_hereditary(m, m) == ext1_cocycle(m, m) == 1
    assert ext1_dim(m, m, "all") == 1
    loop = load_module("loop_free_f3.alg", "V")
    assert ext1_dim(loop, loop, "all") == 1
    # syzygy backend needs a truncated presentation
    with pytest.raises(HereditaryModeUnsupported):
        ext1_syzygy(m, m)
    # a truncation bound that kills no path leaves the path algebra: the closed
    # form holds, and the bound's basis lets the syzygy route run beside it
    for text in (retruncated("kronecker_f3.alg", 2), read_corpus("a2_f5.alg")):
        modules = text_modules(text).values()
        for x, y in itertools.product(modules, repeat=2):
            assert ext1_hereditary(x, y) == ext1_cocycle(x, y) == ext1_syzygy(x, y)
    # hereditary backend rejects a truncation bound that kills a path (x*x)
    v = load_module("kx2_f5.alg", "V")
    with pytest.raises(NotHereditary):
        ext1_hereditary(v, v)


def test_ext_backend_unknown_name():
    v = load_module("kx2_f5.alg", "V")
    with pytest.raises(ValueError):
        ext1_dim(v, v, "nope")


def _conjugate(m, seed):
    # change of basis at every vertex; the result stays a valid module
    rng = random.Random(seed)
    field = m.field
    ts = {}
    for v, d in m.dims.items():
        if d == 0:
            ts[v] = Matrix.identity(field, 0)
            continue
        while True:
            t = Matrix.from_rows(
                field, [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)]
            )
            if solve_matrix(t, Matrix.identity(field, d)) is not None:
                ts[v] = t
                break
    mats = {}
    for name, mat in m.mats.items():
        arr = m.algebra.quiver.arrow_by_name[name]
        t_inv = solve_matrix(ts[arr.source], Matrix.identity(field, m.dims[arr.source]))
        mats[name] = ts[arr.target] * mat * t_inv
    return Representation(m.algebra, dict(m.dims), mats)


def test_backend_agreement_on_conjugates():
    cases = [
        load_module("kx2_f3.alg", "V"),
        load_module("kx2_f5.alg", "P1"),
        load_module("kx3_f2.alg", "V"),
        load_module("kronecker_f2.alg", "M11"),
        load_module("loop_free_f3.alg", "V"),
    ]
    for i, base in enumerate(cases):
        twisted = _conjugate(direct_sum_many([base, base]), seed=31 + i)
        assert validate(twisted) == []
        expected = ext1_dim(base, base, "all")
        assert ext1_dim(twisted, twisted, "all") == ext1_dim(
            direct_sum_many([base, base]), direct_sum_many([base, base]), "all"
        )
        assert iso_test(twisted, direct_sum_many([base, base])).kind in ("iso", "unknown")
        assert expected >= 0


def test_stable_hom():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    assert hom_stable(v, v) == 1
    # anything out of a projective factors through a projective
    assert hom_stable(p1, v) == 0
    assert hom_stable(p1, p1) == 0


def test_stable_hom_refuses_before_building_a_system(monkeypatch):
    # with no truncation bound there is no basis: hom_stable refuses first
    built = []
    init = DeformationSystem.__init__
    monkeypatch.setattr(DeformationSystem, "__init__",
                        lambda self, m, n: built.append(None) or init(self, m, n))
    loop = load_module("loop_free_q.alg", "V")
    with pytest.raises(HereditaryModeUnsupported):
        hom_stable(loop, loop)
    assert built == []


def test_iso_test_kinds():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    twisted = _conjugate(p1, seed=7)
    res = iso_test(p1, twisted)
    assert res.kind == "iso"
    assert is_homomorphism(p1, twisted, res.witness)
    assert iso_test(v, p1).kind == "not_iso"
    vv = direct_sum_many([v, v])
    # same dim vector and symmetric hom dims, but no invertible hom exists
    assert iso_test(vv, p1).kind == "unknown"


def test_iso_test_builds_the_reverse_hom_only_without_an_isomorphism(monkeypatch):
    calls = []
    monkeypatch.setattr("defring.rep.hom_basis", lambda m, n: calls.append(1) or hom_basis(m, n))
    p1 = load_module("kx2_f5.alg", "P1")
    assert iso_test(p1, _conjugate(p1, seed=7)).kind == "iso"
    assert len(calls) == 1
    calls.clear()
    # P1 + S1 and S1 + S1 + S2 over A2 share a dimension vector, but dim Hom
    # is 4 one way and 3 the other: NotIso, certified after the sweep
    s1, s2, a2_p1 = (load_module("a2_f5.alg", name) for name in ("S1", "S2", "P1"))
    res = iso_test(direct_sum_many([a2_p1, s1]), direct_sum_many([s1, s1, s2]))
    assert (res.kind, res.reason) == ("not_iso", "dim Hom asymmetry 4 vs 3")
    assert len(calls) == 2


def test_direct_sum_blocks():
    v = load_module("kx2_f5.alg", "V")
    p1 = load_module("kx2_f5.alg", "P1")
    s = direct_sum_many([v, p1])
    assert s.dims == {"v": 3}
    x = tolist(s.mats["x"])
    assert x == [[0, 0, 0], [0, 0, 0], [0, 1, 0]]
    # one summand passes through unchanged
    assert direct_sum_many([p1]) is p1


def test_sub_from_maps_requires_invariance():
    p1 = load_module("kx2_f5.alg", "P1")
    field = p1.field
    # the span of the generator is not x-invariant
    bad = {"v": [{0: field.one()}]}
    with pytest.raises(NotInvariant):
        sub_from_maps(p1, bad)
    good = {"v": [{1: field.one()}]}
    sub = sub_from_maps(p1, good)
    assert sub.dim_vector == (1,)


def test_deformation_system_shapes():
    v = load_module("kx2_f5.alg", "V")
    sys_v = deformation_system(v, v)
    assert len(sys_v.cocycles) == 1
    assert sys_v.coboundaries.rank == 0
    assert ext1_cocycle(v, v) == 1

    p1 = load_module("kx2_f5.alg", "P1")
    sys_p = deformation_system(p1, p1)
    assert ext1_cocycle(p1, p1) == 0
    # every cocycle of a rigid module is a coboundary
    for z in sys_p.cocycles:
        assert sys_p.is_coboundary(sys_p.layout.unpack(z))


def test_deformation_system_is_kept_per_module_object():
    import gc
    v = load_module("kx2_f5.alg", "V")
    system = deformation_system(v, v)
    assert deformation_system(v, v) is system
    # a module equal to v but parsed again is another object: it gets its own
    # system, as a certificate check that reparses its input must
    w = load_module("kx2_f5.alg", "V")
    assert w == v and deformation_system(v, w) is not system
    assert deformation_system(v, w) is deformation_system(v, w)
    # v holds w weakly: dropping w leaves a dead reference and no cycle
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        ref = v._systems[id(w)][0]
        del w
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_hom_mismatched_algebras_rejected():
    v5 = load_module("kx2_f5.alg", "V")
    v2 = load_module("kx2_f2.alg", "V")
    with pytest.raises(ValueError):
        hom_dim(v5, v2)


def _equation_pairs():
    """(label, M, N): every corpus module with itself, P+S over k<x,y>/J^3
    over F_5 and Q, and a ladder top against its base in both orders."""
    pairs = []
    for path in sorted(CORPUS.glob("*.alg")):
        for module in load_source(path.name).modules:
            m = load_module(path.name, module)
            pairs.append((f"{path.stem} {module}", m, m))
    for field in ("F 5", "Q"):
        alg = PresentedAlgebra.from_source(parse(
            f"field {field}\nquiver\n  vertex v\n  arrow x: v -> v\n  arrow y: v -> v\n"
            "truncate 3\n"))
        s = Representation(alg, {"v": 1}, {})
        ps = direct_sum_many([alg.left_projective("v"), s])
        pairs.append((f"P+S over {field}", ps, ps))
    base = load_module("kx3_f5.alg", "V")
    top_rep = as_representation(ladder_search(base).ladder.top)
    pairs += [("ladder top, base", top_rep, base), ("base, ladder top", base, top_rep)]
    return pairs


def _ladder_tops():
    """(label, top, V): the top of the ladder of every tangent-1 corpus
    module, of the simple module of k[x]/(x^40) over F_3 and of Kronecker
    M11 over Q at order 20, each as as_representation returns it."""
    bases = [(f"{path.stem} {module}", load_module(path.name, module), 10)
             for path in sorted(CORPUS.glob("*.alg")) for module in load_source(path.name).modules]
    source = parse("field F 3\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate 40\n"
                   "module V\n  dim v = 1\n  mat x = [[0]]\n")
    x40 = Representation.from_module_def(PresentedAlgebra.from_source(source), source.modules["V"])
    bases += [("x^40", x40, 40), ("kronecker_q M11 at order 20", load_module("kronecker_q.alg", "M11"), 20)]
    return [(label, as_representation(ladder_search(v, max_order).ladder.top), v)
            for label, v, max_order in bases if ext1_dim(v, v, "all") == 1]


def test_sparse_equations_match_dense_reference():
    # the (top, V) equations read the top's path values off its lift's series;
    # they match the dense reference and those of the same top built plainly
    tops = _ladder_tops()
    assert len(tops) >= 12
    assert {"x^40", "kronecker_q M11 at order 20"} <= {label for label, _, _ in tops}
    for label, top_rep, v in tops:
        assert type(top_rep).prefix_value is not Representation.prefix_value, label
        plain = Representation(top_rep.algebra, top_rep.dims, top_rep.mats)
        equations = DeformationSystem(top_rep, v).equations
        assert equations == reference_deformation_matrix(top_rep, v), label
        assert equations == DeformationSystem(plain, v).equations, label
        if label == "x^40":
            assert top_rep.total_dim == 40
            assert sum(1 for row in equations.rows if row) == 1
        if label == "kronecker_q M11 at order 20":
            assert top_rep.total_dim == 2 * 21
    pairs = _equation_pairs()
    assert len(pairs) >= 30
    for label, m, n in pairs:
        system = DeformationSystem(m, n)
        assert system.equations == reference_deformation_matrix(m, n), label
        layout, equations = hom_equations(m, n)
        assert equations.ncols == layout.total
        assert equations == reference_hom_equations(m, n), label
        # the coboundary generators are the columns of the Hom equations
        cob = reference_coboundary_vectors(m, n)
        assert [tuple(row) for row in tolist(equations.transpose())] == cob, label
        ech = row_space([sparse(v) for v in cob], m.field, system.layout.total)
        # the coboundaries are a forward echelon form: same span, same pivots
        cob_ech = system.coboundaries
        assert cob_ech.pivots == ech.pivots, label
        spanned = Matrix(m.field, cob_ech.rank, cob_ech.ncols, cob_ech.rows)
        assert reference_rref(spanned).rows == ech.rows, label


@st.composite
def deformation_pairs(draw):
    """(M, N) over F_2, F_5 or Q on a quiver of one or two vertices with
    loops and parallel arrows, relations of several parallel paths (which
    share prefixes) and a truncation bound; dimensions may be zero and the
    matrices need not satisfy the relations."""
    field = draw(st.sampled_from([FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()]))

    def scalar(nonzero=False):
        if field.p is None:
            num = draw(st.integers(-3, 3).filter(bool) if nonzero else st.integers(-3, 3))
            return Fraction(num, draw(st.integers(1, 3)))
        return draw(st.integers(1 if nonzero else 0, field.p - 1))

    vertices = ["u", "v"][:draw(st.integers(1, 2))]
    ends = st.sampled_from(vertices)
    arrows = [Arrow(f"a{i}", draw(ends), draw(ends)) for i in range(draw(st.integers(1, 3)))]
    quiver = Quiver(vertices, arrows)
    truncate = draw(st.sampled_from([None, 2, 3, 4]))
    relations = []
    if truncate is not None:
        groups = {}
        for path in paths_up_to(quiver, 3):
            if path.length:
                groups.setdefault((path.source, path.target), []).append(path)
        for _ in range(draw(st.integers(0, 2))):
            group = draw(st.sampled_from(list(groups.values())))
            paths = draw(st.lists(st.sampled_from(group), min_size=1, max_size=3, unique=True))
            terms = tuple((scalar(nonzero=True), q) for q in paths)
            relations.append(Relation(terms, paths[0].source, paths[0].target))
    algebra = PresentedAlgebra(field, quiver, relations, truncate)

    def module():
        dims = {v: draw(st.integers(0, 2)) for v in vertices}
        mats = {}
        for a in arrows:
            rows = [[scalar() for _ in range(dims[a.source])] for _ in range(dims[a.target])]
            mats[a.name] = (Matrix.from_rows(field, rows) if rows
                            else Matrix.zeros(field, 0, dims[a.source]))
        return Representation(algebra, dims, mats)

    return module(), module()


@settings(max_examples=60, deadline=None)
@given(deformation_pairs())
def test_tree_built_deformation_system_matches_reference(pair):
    m, n = pair
    assert DeformationSystem(m, n).equations == reference_deformation_matrix(m, n)


@pytest.mark.parametrize("loops,length,inner", [("xy", 4, 14), ("xyz", 3, 12)])
def test_deformation_system_multiplies_once_per_inner_node(monkeypatch, loops, length, inner):
    # M's prefix values are folded once, one product per node below the root:
    # the inner nodes and the leaves, the generator paths, which validate and
    # the lifts read.  The system then takes N(u) once per distinct generator
    # suffix of two or more arrows, every path of length 2..length-1: on P+S
    # every such value is nonzero.  On S every arrow is zero, so no product is
    # taken through a zero value: one per arrow, M_a·M(e_v), and none for N(u)
    leaves = len(loops) ** length
    suffixes = sum(len(loops) ** k for k in range(2, length))
    arrows = "".join(f"  arrow {a}: v -> v\n" for a in loops)
    alg = PresentedAlgebra.from_source(parse(
        f"field F 5\nquiver\n  vertex v\n{arrows}truncate {length}\n"))
    s = Representation(alg, {"v": 1}, {})
    ps = direct_sum_many([alg.left_projective("v"), s])
    tree = alg.tree
    assert len({p for p in tree.parents if p >= 0 and tree.parents[p] >= 0}) == inner
    generators = [p for rel in alg.generating_relations() for _, p in rel.terms]
    assert len({p.arrows[k:] for p in generators for k in range(1, length - 1)}) == suffixes
    calls = []
    original = Matrix.__mul__

    def counting(self, other):
        calls.append(1)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counting)
    ps.prefix_values
    assert len(calls) == inner + leaves
    del calls[:]
    DeformationSystem(ps, ps)
    assert len(calls) == suffixes
    del calls[:]
    DeformationSystem(s, s)
    assert len(calls) == len(loops)


def test_projective_cover_matches_path_matrix_reference():
    # every truncated corpus module, P+S over k<x,y>/J^3 (F_5 and Q) and a ladder top
    modules = [(label, m) for label, m, _ in _equation_pairs() if m.algebra.basis is not None]
    assert len(modules) >= 25
    for label, m in modules:
        p, cover, parts, _ = projective_cover(m)
        assert (p, cover, [v for v, _ in parts]) == reference_projective_cover(m), label


def _all_ones(m):
    mats = {a.name: Matrix.from_rows(m.field, [[1] * m.dims[a.source]] * m.dims[a.target])
            if m.dims[a.target] else Matrix.zeros(m.field, 0, m.dims[a.source])
            for a in m.algebra.quiver.arrows}
    return Representation(m.algebra, m.dims, mats)


def test_validate_matches_path_matrix_sums():
    reps = [m for _, m, n in _equation_pairs() if m is n]
    reps += [_all_ones(m) for m in reps]
    flagged = 0
    for m in reps:
        bad = []
        for rel in m.algebra.generating_relations():
            first = rel.terms[0][1]
            expected = Matrix.zeros(m.field, m.dims[first.target], m.dims[first.source])
            for coeff, path in rel.terms:
                expected = expected + path_matrix(m, path).scale(coeff)
            if not expected.is_zero():
                bad.append(rel.label())
        assert validate(m) == bad
        flagged += bool(bad)
    assert flagged >= 10


# ----------------------------------------------------------------------
# the rank counts of the two Ext^1 routes against their quotient references

# (quiver lines, truncation bounds, optional relations), small projectives
EXT_ALGEBRAS = [
    (["vertex v", "arrow x: v -> v"], [2, 3, 4], [None]),
    (["vertex v", "arrow x: v -> v", "arrow y: v -> v"], [2], [None]),
    (["vertex v", "arrow x: v -> v", "arrow y: v -> v"], [3], ["x*y - y*x"]),
    (["vertex u w", "arrow a: u -> w", "arrow b: w -> u"], [3], [None, "a*b"]),
    (["vertex v1 v2", "arrow a: v1 -> v2", "arrow b: v1 -> v2"], [2], [None, "a - b"]),
]


@st.composite
def valid_module_pairs(draw):
    """(M, N) over one truncated algebra over F_2, F_3 or Q, each a sum of
    one or two indecomposable projectives modulo the submodule that up to two
    random radical vectors generate, so both satisfy the relations; N is
    drawn on its own, or is M."""
    field = draw(st.sampled_from(["F 2", "F 3", "Q"]))
    quiver, bounds, relations = draw(st.sampled_from(EXT_ALGEBRAS))
    lines = [f"field {field}", "quiver"] + [f"  {line}" for line in quiver]
    lines.append(f"truncate {draw(st.sampled_from(bounds))}")
    relation = draw(st.sampled_from(relations))
    if relation:
        lines += ["relations", f"  {relation}"]
    algebra = PresentedAlgebra.from_source(parse("\n".join(lines) + "\n"))
    values = (st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]) if field == "Q"
              else st.integers(0, int(field[2:]) - 1))
    vertices = algebra.quiver.vertices

    def module():
        tops = draw(st.lists(st.sampled_from(vertices), min_size=1, max_size=2))
        p = direct_sum_many([algebra.left_projective(v) for v in tops])
        gens = {v: [] for v in vertices}
        for _ in range(draw(st.integers(0, 2))):
            # a random vector moved into the radical by a random arrow
            a = draw(st.sampled_from(algebra.quiver.arrows))
            x = tuple(draw(values) for _ in range(p.dims[a.source]))
            gens[a.target].append(sparse(apply(p.mats[a.name], x)))
        # close the generators under the arrows
        while True:
            bases = {v: row_space(gens[v], p.field, p.dims[v]) for v in vertices}
            images = [(a.target, sparse(apply(p.mats[a.name], dense(x, p.dims[a.source]))))
                      for a in algebra.quiver.arrows for x in bases[a.source].rows]
            missing = [(w, y) for w, y in images if not in_row_span(bases[w], y)]
            if not missing:
                break
            for w, y in missing:
                gens[w].append(y)
        return reference_quotient(p, {v: bases[v].rows for v in vertices})[0]

    m = module()
    return m, (m if draw(st.booleans()) else module())


def yoneda_cover_homs(m, n):
    """The Yoneda maps of each summand of M's projective cover P, each
    placed on its summand: maps P -> N, zero on the other summands."""
    p, _, parts, _ = projective_cover(m)
    vertices = m.algebra.quiver.vertices
    out = []
    first = dict.fromkeys(vertices, 0)
    for v, _ in parts:
        for phi in yoneda_homs(v, n, range(n.dims[v])):
            out.append({w: columns_matrix(
                m.field, n.dims[w],
                [(m.field.zero(),) * n.dims[w]] * first[w]
                + [column(phi[w], j) for j in range(phi[w].ncols)]
                + [(m.field.zero(),) * n.dims[w]] * (p.dims[w] - first[w] - phi[w].ncols))
                for w in vertices})
        for w in vertices:
            first[w] += m.algebra.left_projective(v).dims[w]
    return out


@settings(max_examples=80, deadline=None)
@given(valid_module_pairs())
def test_ext_rank_counts_match_quotient_references(pair):
    m, n = pair
    assert validate(m) == [] and validate(n) == []
    cocycle = ext1_cocycle(m, n)
    assert cocycle == reference_ext1_cocycle(m, n)
    assert ext1_syzygy(m, n) == reference_ext1_syzygy(m, n) == cocycle
    assert ext1_dim(m, n, "all") == cocycle
    # dim Hom counted by the rank of the system's δ is the size of the solved basis
    assert hom_dim(m, n) == hom_basis(m, n).dim
    # the Yoneda maps are a basis of what hom_basis(P, N) solves for, and
    # their restrictions to ΩM span what its restrictions span
    maps = yoneda_cover_homs(m, n)
    hom_pn = hom_basis(projective_cover(m)[0], n)
    width = hom_pn.layout.total
    assert len(maps) == hom_pn.dim
    assert (row_space([hom_pn.layout.pack(t) for t in maps], m.field, width).rows
            == row_space(hom_pn.packed_basis, m.field, width).rows)
    _, _, incl = syzygy_data(m)
    hom_on, image = restricted_cover_homs(m, n)
    layout = hom_on.layout
    restricted = [layout.pack({v: t[v] * incl[v] for v in m.algebra.quiver.vertices})
                  for t in maps]
    assert (row_space(restricted, m.field, layout.total).rows
            == row_space(image, m.field, layout.total).rows)


KRONECKER_MODULES = """\
quiver
  vertex v1 v2
  arrow a: v1 -> v2
  arrow b: v1 -> v2

module S1
  dim v1 = 1
module S2
  dim v2 = 1
module M11
  dim v1 = 1
  dim v2 = 1
  mat a = [[1]]
  mat b = [[0]]
module M12
  dim v1 = 1
  dim v2 = 2
  mat a = [[1], [0]]
  mat b = [[0], [1]]
"""


@pytest.mark.parametrize("field", ["F 3", "Q"])
def test_hom_dim_counts_match_the_hom_basis_on_hereditary_pairs(field):
    # the closed form reads dim Hom from hom_dim, so the count must be the
    # solved basis's size on pairs of distinct modules too
    source = parse(f"field {field}\n" + KRONECKER_MODULES)
    algebra = PresentedAlgebra.from_source(source)
    modules = [Representation.from_module_def(algebra, mod) for mod in source.modules.values()]
    for m in modules:
        for n in modules:
            assert hom_dim(m, n) == hom_basis(m, n).dim
            assert ext1_dim(m, n, "all") == ext1_hereditary(m, n) == ext1_cocycle(m, n)
    # S1, S2, M11 and M12 = Λe_v1: every module but S1 has S2 in its socle,
    # and every one but S2 has S1 on top
    assert ([[hom_dim(m, n) for n in modules] for m in modules]
            == [[1, 0, 0, 0], [0, 1, 1, 2], [1, 0, 1, 0], [1, 0, 1, 1]])


@settings(max_examples=80, deadline=None)
@given(valid_module_pairs())
def test_coboundaries_are_cocycles_and_yoneda_maps_are_homs(pair):
    m, n = pair
    # B ⊆ Z: every coboundary row of δ solves the deformation equations
    system = DeformationSystem(m, n)
    for b in system.coboundaries.rows:
        for row in system.equations.rows:
            assert not m.field.scalar(sum(x * b[j] for j, x in row.items() if j in b))
    # Hom(Λe_v, N) ≅ e_vN: each Yoneda map intertwines Λe_v and N, and so
    # each one placed on a summand of the cover intertwines P and N
    for v in m.algebra.quiver.vertices:
        for phi in yoneda_homs(v, n, range(n.dims[v])):
            assert is_homomorphism(m.algebra.left_projective(v), n, phi)
    p = projective_cover(m)[0]
    for phi in yoneda_cover_homs(m, n):
        assert is_homomorphism(p, n, phi)
    # the cover and the top, each read off the top columns, against the
    # references that multiply paths out and project M through its radical
    p, cover, parts, _ = projective_cover(m)
    assert (p, cover, [v for v, _ in parts]) == reference_projective_cover(m)
    quotient = reference_quotient(m, {v: rad.rows for v, rad in radical_subspaces(m).items()})[0]
    assert all(x.is_zero() for x in quotient.mats.values())
    assert quotient.dims == {v: len(columns) for v, columns in m.top_columns.items()}


@settings(max_examples=60, deadline=None)
@given(valid_module_pairs())
def test_stable_hom_matches_full_cover_reference(pair):
    m, n = pair
    # N ⊕ N has two top vectors at each top vertex of N: its cover repeats summands
    for target in (n, direct_sum_many([n, n])):
        expected = reference_hom_stable(m, target)
        assert hom_stable(m, target) == expected


def test_stable_hom_matches_full_cover_reference_on_truncated_corpus():
    # every truncated corpus module, P+S over k<x,y>/J^3 (F_5 and Q) and a ladder top
    pairs = [(label, m, n) for label, m, n in _equation_pairs() if m.algebra.basis is not None]
    assert len(pairs) >= 25
    for label, m, n in pairs:
        expected = reference_hom_stable(m, n)
        assert hom_stable(m, n) == expected, label


def test_yoneda_maps_need_the_relations():
    # over k[x]/(x^3), x = 1 gives N(x^2) != 0, while x·x^2 = 0 in Λ
    source = parse(read_corpus("kx3_f5.alg").replace("mat x = [[0]]", "mat x = [[1]]"))
    algebra = PresentedAlgebra.from_source(source)
    bad = Representation.from_module_def(algebra, source.modules["V"])
    assert validate(bad) == ["x*x*x"]
    [phi] = yoneda_homs("v", bad, [0])
    assert not is_homomorphism(algebra.left_projective("v"), bad, phi)


@pytest.mark.parametrize("name,module", [("kx2_rel_f5.alg", "P1"), ("a2_f5.alg", "P1"),
                                         ("parallel_rel_f3.alg", "M"), ("kx4_f5.alg", "V")])
def test_yoneda_maps_fold_the_algebras_basis_trees(monkeypatch, name, module):
    # the basis paths from each vertex are a subtree of the algebra's one path
    # tree, built once: the node of basis path j is the path itself, its parent
    # is a basis path too, and no Yoneda call builds a tree again
    m = load_module(name, module)
    algebra = m.algebra
    tree = algebra.tree
    paths = node_paths(tree)
    assert [paths[node] for node in algebra.basis_nodes] == algebra.basis
    basis = set(algebra.basis_nodes)
    assert all(tree.parents[node] < 0 or tree.parents[node] in basis for node in basis)
    built = []
    init = quiver.PathTree.__init__

    def counting_init(tree):
        built.append(tree)
        init(tree)

    monkeypatch.setattr(quiver.PathTree, "__init__", counting_init)
    for v in algebra.quiver.vertices:
        first = yoneda_homs(v, m, range(m.dims[v]))
        assert yoneda_homs(v, m, range(m.dims[v])) == first
        for phi in first:
            assert is_homomorphism(algebra.left_projective(v), m, phi)
    assert built == []


@pytest.mark.parametrize("name", ["kx2_rel_f5.alg", "parallel_rel_f3.alg", "kx3_f5.alg",
                                  "kx4_f5.alg", "kx2_f5.alg"])
def test_yoneda_maps_make_one_product_per_nontrivial_basis_path(monkeypatch, name):
    # the relations' leading paths (x*x, a) are shorter than the bound but are
    # no basis paths, so no Yoneda map evaluates N there; and a path through a
    # zero value is zero, so one product is taken per basis path whose
    # parent's value is nonzero (x*x costs none on the simple module of k[x]/(x^3))
    source, algebra = load_algebra(name)
    tree, paths = algebra.tree, node_paths(algebra.tree)
    expected = {}
    for module in source.modules.values():
        n = Representation.from_module_def(algebra, module)
        for v in algebra.quiver.vertices:
            parents = [tree.parents[algebra.basis_nodes[j]]
                       for js in algebra.paths_from[v].values() for j in js]
            expected[module.name, v] = sum(1 for parent in parents if parent >= 0
                                           and not path_matrix(n, paths[parent]).is_zero())
    products = []
    mul = Matrix.__mul__

    def counting_mul(a, b):
        products.append(1)
        return mul(a, b)

    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    for module in source.modules.values():
        n = Representation.from_module_def(algebra, module)
        for v in algebra.quiver.vertices:
            del products[:]
            yoneda_homs(v, n, range(n.dims[v]))
            assert len(products) == expected[module.name, v], (module.name, v)


def _syzygy_modules():
    """(label, M): every truncated module of _equation_pairs and V over each
    second presentation of k[x]/(x^n)."""
    modules = [(label, m) for label, m, _ in _equation_pairs() if m.algebra.basis is not None]
    for relation, truncate, _ in SECOND_PRESENTATIONS:
        modules.append((f"V with {relation}, truncate {truncate}",
                        text_modules(second_presentation(relation, truncate))["V"]))
    return modules


def test_syzygy_matches_the_sub_from_maps_reference():
    # ΩM's arrows read off the echelon kernel are those sub_from_maps solves
    # for, and each summand's block of rows is its part of the inclusion
    modules = _syzygy_modules()
    assert len(modules) >= 28
    for label, m in modules:
        blocks, omega, incl = syzygy_data(m)
        assert (omega, incl) == reference_syzygy_data(m), label
        summands = [v for v, _ in projective_cover(m)[2]]
        assert [v for v, _ in blocks] == summands, label
        for w in m.algebra.quiver.vertices:
            assert [row for _, block in blocks for row in block[w].rows] == incl[w].rows, label
            assert ([block[w].nrows for _, block in blocks]
                    == [m.algebra.left_projective(v).dims[w] for v in summands]), label


def _syzygy_or_exception(data):
    try:
        return data()
    except (AssertionError, NotInvariant, HereditaryModeUnsupported) as exc:
        return type(exc)


@settings(max_examples=120, deadline=None)
@given(deformation_pairs())
def test_syzygy_matches_the_reference_or_raises_alike(pair):
    # on modules that need not satisfy the relations, the cover may fail to
    # be onto (AssertionError) or its kernel to be arrow-stable (NotInvariant)
    for m in pair:
        assert (_syzygy_or_exception(lambda: syzygy_data(m)[1:])
                == _syzygy_or_exception(lambda: reference_syzygy_data(m)))


def test_syzygy_data_row_reduces_each_cover_matrix_once(monkeypatch):
    for label, m in _syzygy_modules():
        _, cover, _, _ = projective_cover(m)  # M's radical and Yoneda maps are kept from here on
        reduced = []
        rref = linalg.rref

        def recording_rref(mat):
            reduced.append(mat)
            return rref(mat)

        monkeypatch.setattr(linalg, "rref", recording_rref)
        syzygy_data(m)
        monkeypatch.setattr(linalg, "rref", rref)
        assert reduced == [cover[w] for w in m.algebra.quiver.vertices], label


@pytest.mark.parametrize("name,module", [("kx3_f5.alg", "V"), ("kx5_q.alg", "V"),
                                         ("kx2_f5.alg", "PV"), ("parallel_rel_f3.alg", "M")])
def test_classify_evaluates_each_yoneda_value_of_v_once(monkeypatch, name, module):
    # the tangent gate's cover and Ext route, the stable note and the top
    # rung's Ext route all read V's top columns and Yoneda maps: V's radical
    # is row-reduced once, and its Yoneda maps cost, over a whole classify,
    # the products of one fresh evaluation per (vertex, columns)
    loaded, radicals, keys = [], [], []
    counting = {"on": False, "products": 0}
    from_module_def = Representation.from_module_def.__func__
    radical_of, yoneda_maps, mul = rep.radical_subspaces, rep.yoneda_homs, Matrix.__mul__

    def recording_from_module_def(cls, algebra, mod):
        loaded.append(from_module_def(cls, algebra, mod))
        return loaded[-1]

    def recording_radical(m):
        radicals.append(m)
        return radical_of(m)

    def counted_yoneda(v, n, columns):
        counting["on"] = True
        try:
            return yoneda_maps(v, n, columns)
        finally:
            counting["on"] = False

    def recording_yoneda(v, n, columns):
        if n is not loaded[0]:
            return yoneda_maps(v, n, columns)
        keys.append((v, tuple(columns)))
        return counted_yoneda(v, n, columns)

    def counting_mul(a, b):
        counting["products"] += counting["on"]
        return mul(a, b)

    monkeypatch.setattr(Representation, "from_module_def", classmethod(recording_from_module_def))
    monkeypatch.setattr(rep, "radical_subspaces", recording_radical)
    monkeypatch.setattr(rep, "yoneda_homs", recording_yoneda)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    classify(load_source(name), module)
    monkeypatch.undo()
    assert sum(1 for m in radicals if m is loaded[0]) == 1
    assert len(keys) > len(set(keys))  # some maps are read more than once
    in_classify, counting["products"] = counting["products"], 0
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    for vertex, columns in set(keys):
        counted_yoneda(vertex, load_module(name, module), columns)
    assert in_classify == counting["products"]
