from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defring import (
    DeformationSystem,
    Ladder,
    Lift,
    Obstruction,
    PresentedAlgebra,
    Representation,
    as_representation,
    classify,
    extend_step,
    is_valid,
    ladder_search,
    parse,
    residual_coefficients,
    serialize_report,
    tangent_dimension,
    validate,
    verify_ladder,
    verify_report,
)
from defring import lift as lift_module
from defring.fields import FieldSpec
from defring.lift import _shift_checks
from defring.linalg import Matrix, rank
from defring.quiver import Path
from helpers import (CORPUS, affine_point, base_embedding, columns_matrix, dense_verify_ladder,
                     load_algebra, load_module, load_source, node_paths,
                     read_corpus, reference_coboundary_vectors, reference_deformation_matrix,
                     path_matrix, reference_path_poly, reference_residual_coefficients,
                     reference_shift_checks, shift_endomorphism, sparse, tolist)


def unit_lift(v, *degrees):
    # x deforms by the given scalar coefficients in degrees 1..order
    field = v.field
    lift = Lift.trivial(v)
    for c in degrees:
        lift = lift.extended({"x": Matrix.from_rows(field, [[c]])})
    return lift


def test_trivial_lift_shape():
    v = load_module("kx2_f5.alg", "V")
    lift = Lift.trivial(v, order=2)
    assert lift.order == 2
    assert all(m.is_zero() for m in lift.coeffs["x"][1:])
    assert lift.coeffs["x"][0] == v.mats["x"]
    assert is_valid(Lift.trivial(v, order=5))


def test_first_order_residual_of_square_relation():
    v = load_module("kx2_f5.alg", "V")
    lift = unit_lift(v, 1)
    # (c1 t)^2 has no t coefficient, so order 1 is consistent
    assert is_valid(lift)
    # the t^2 coefficient of the square is c1^2 = 1
    stuck = lift.extended({"x": Matrix.zeros(v.field, 1, 1)})
    res = residual_coefficients(stuck, 2)
    assert [tolist(r) for r in res] == [[[1]]]
    assert not is_valid(stuck)


def test_first_order_space_matches_cocycles():
    v = load_module("kx2_f5.alg", "V")
    sys_v = DeformationSystem(v, v)
    cocycles = [sys_v.layout.unpack(z) for z in sys_v.cocycles]
    assert len(cocycles) == 1
    assert tolist(cocycles[0]["x"]) == [[1]]
    assert sys_v.coboundaries.rank == 0

    p1 = load_module("kx2_f5.alg", "P1")
    # rigid module: every infinitesimal deformation is a coboundary
    sys_p = DeformationSystem(p1, p1)
    assert sys_p.cocycles
    for z in sys_p.cocycles:
        assert sys_p.is_coboundary(sys_p.layout.unpack(z))


def test_extend_step_solves_next_order():
    v = load_module("kx3_f5.alg", "V")
    lift = unit_lift(v, 1)
    ext = extend_step(lift)
    assert isinstance(ext, Lift)
    assert ext.order == 2 and ext.coeffs["x"][:2] == lift.coeffs["x"]
    assert is_valid(ext)
    # the step's kernel is the cocycle space Z, and every point of the
    # solution space is a valid lift
    system = DeformationSystem(v, v)
    step = system.solve_step(residual_coefficients(lift, 2))
    assert system.layout.total - step.rank == len(system.cocycles) == 1
    assert system.layout.unpack(step.particular) == {"x": ext.coeffs["x"][2]}
    for c in range(5):
        point = affine_point(step.particular, system.cocycles, [c])
        assert is_valid(lift.extended(system.layout.unpack(point)))


CORPUS_MODULES = [(path.name, name) for path in sorted(CORPUS.glob("*.alg"))
                  for name in load_source(path.name).modules]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(CORPUS_MODULES), st.data())
def test_every_feasible_step_has_the_cocycles_as_kernel(case, data):
    # every step solves system.equations, so a feasible step's solutions are
    # a point plus Z: the fact behind the "extension kernel dimensions" note
    v = load_module(*case)
    system = DeformationSystem(v, v)
    lift = Lift.trivial(v)
    for _ in range(data.draw(st.integers(1, 4))):
        step = system.solve_step(residual_coefficients(lift, lift.order + 1))
        if not step.feasible:
            break
        assert system.layout.total - step.rank == len(system.cocycles)
        size = len(system.cocycles)
        coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
        point = affine_point(step.particular, system.cocycles, coeffs)
        lift = lift.extended(system.layout.unpack(point))
    assert is_valid(lift)


def test_extend_step_reports_obstruction():
    v = load_module("kx2_f5.alg", "V")
    step = extend_step(unit_lift(v, 1))
    assert isinstance(step, Obstruction)
    assert step.order == 2
    assert step.rank_coefficient == 0
    assert step.rank_augmented == 1
    assert step.rank_augmented > step.rank_coefficient
    labels = [label for label, _ in step.residuals]
    assert labels == ["x*x"]
    assert [tolist(r) for _, r in step.residuals] == [[[1]]]


@pytest.mark.parametrize("name", ["kx2_f5.alg", "kx3_f5.alg"])
def test_obstruction_ranks_are_those_of_the_step_system(name):
    v = load_module(name, "V")
    search = ladder_search(v)
    ob = search.obstruction
    assert search.kind == "terminated" and ob.order == search.ladder.top.order + 1
    rhs = [-x for block in residual_coefficients(search.ladder.top, ob.order)
           for row in tolist(block) for x in row]
    a = reference_deformation_matrix(v, v)
    augmented = a.hstack(columns_matrix(v.field, a.nrows, [rhs]))
    assert (ob.rank_coefficient, ob.rank_augmented) == (rank(a), rank(augmented))
    assert ob.rank_augmented > ob.rank_coefficient


@pytest.mark.parametrize("name", ["kx4_f5.alg", "kx2_f5.alg"])
def test_extend_step_row_reduces_once(monkeypatch, name):
    # one feasible step and one obstructed step
    import defring.linalg
    v = load_module(name, "V")
    calls = []
    original = defring.linalg.rref

    def counting(m):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(defring.linalg, "rref", counting)
    step = extend_step(unit_lift(v, 1))
    assert isinstance(step, Obstruction) == (name == "kx2_f5.alg")
    assert len(calls) == 1


def test_lift_constructor_rejects_base_mismatch():
    v = load_module("kx2_f5.alg", "V")
    wrong = Matrix.from_rows(v.field, [[1]])
    with pytest.raises(AssertionError):
        Lift(v, 0, {"x": [wrong]})


def test_as_representation_block_toeplitz():
    v = load_module("kx4_f5.alg", "V")
    lift = unit_lift(v, 1, 2)
    rep = as_representation(lift)
    assert rep.dims == {"v": 3}
    # block (i, j) holds coefficient i - j: constant diagonal stripes
    assert tolist(rep.mats["x"]) == [[0, 0, 0], [1, 0, 0], [2, 1, 0]]
    assert validate(rep) == []


def test_as_representation_respects_relations_only_when_valid():
    v = load_module("kx2_f5.alg", "V")
    stuck = unit_lift(v, 1, 0)
    rep = as_representation(stuck)
    assert validate(rep) != []


def test_shift_endomorphism_structure():
    v = load_module("kx3_f5.alg", "V")
    lift = unit_lift(v, 1, 0)
    rep = as_representation(lift)
    sigma = shift_endomorphism(lift)["v"]
    assert tolist(sigma) == [[0, 0, 0], [1, 0, 0], [0, 1, 0]]
    # commutes with the action, cubes to zero, squares to the base embedding
    assert sigma * rep.mats["x"] == rep.mats["x"] * sigma
    assert sigma.power(lift.order + 1).is_zero()
    assert not sigma.power(lift.order).is_zero()
    emb = base_embedding(lift)["v"]
    assert rank(emb) == 1
    assert (sigma * emb).is_zero()


@pytest.mark.parametrize("field", [FieldSpec.prime(2), FieldSpec.prime(5), FieldSpec.rationals()],
                         ids=str)
def test_shift_checks_match_dense_reference(field):
    # every pair, also the ones where J is not sized by the order (blocks != ell + 1)
    for blocks in range(1, 17):
        for ell in range(19):
            facts = _shift_checks(field, blocks, ell)
            assert facts == reference_shift_checks(field, blocks, ell), (blocks, ell)
            assert all(type(x) is bool for x in facts)
            if blocks == ell + 1:
                assert facts == (True, True, True, True)


def test_ladder_from_lift():
    v = load_module("kx4_f5.alg", "V")
    top = unit_lift(v, 1, 0, 0)
    ladder = Ladder(top)
    assert ladder.length == 3
    assert ladder.base == v
    assert ladder.top == top
    assert ladder.first_order_class == {"x": top.coeffs["x"][1]}
    assert ladder.coefficient_tuples() == [{"x": c} for c in top.coeffs["x"][1:]]
    with pytest.raises(AssertionError):
        Ladder(Lift.trivial(v))


def test_verify_ladder_accepts_engine_output():
    v = load_module("kx4_f5.alg", "V")
    search = ladder_search(v, max_order=10)
    assert search.ladder.length == 3
    transcript = verify_ladder(search.ladder)
    assert transcript.ok
    # the nontrivial class, the residuals at each order and the shift facts at the top
    assert [(c.name, c.order) for c in transcript.checks] == [
        ("first_order_nontrivial", 1),
        ("residuals_vanish", 1), ("residuals_vanish", 2), ("residuals_vanish", 3),
        ("sigma_nilpotent", 3), ("sigma_power_nonzero", 3),
        ("kernel_is_base_witness", 3), ("image_power_is_base_witness", 3)]
    assert transcript.lines()[1] == "order 1: residuals_vanish ok"


def test_verify_ladder_rejects_trivial_first_class():
    p1 = load_module("kx2_f5.alg", "P1")
    system = DeformationSystem(p1, p1)
    # every cocycle here is a coboundary, so the gate must fail
    lift = Lift.first_order(p1, system.layout.unpack(system.cocycles[0]))
    transcript = verify_ladder(Ladder(lift))
    assert not transcript.ok
    failed = [c.name for c in transcript.checks if not c.ok]
    assert any("nontrivial" in n for n in failed)


def test_verify_ladder_flags_inconsistent_chain():
    v = load_module("kx2_f5.alg", "V")
    stuck = unit_lift(v, 1, 0)
    transcript = verify_ladder(Ladder(stuck))
    assert not transcript.ok
    failed = [c.name for c in transcript.checks if not c.ok]
    assert any("residual" in n for n in failed)


SHIFT_CHECKS = ("sigma_nilpotent", "sigma_power_nonzero", "kernel_is_base_witness",
                "image_power_is_base_witness")


def _bump(m, r, c):
    rows = tolist(m)
    rows[r][c] = rows[r][c] + m.field.one()
    return Matrix.from_rows(m.field, rows)


@st.composite
def tangent_one_ladders(draw):
    """A tangent-1 loop module and a ladder over it, valid or broken in one way."""
    field = draw(st.sampled_from(["F 2", "F 3", "Q"]))
    entries = st.integers(-1, 2) if field == "Q" else st.integers(0, int(field[2:]) - 1)
    loops = draw(st.sampled_from(["x", "xy"]))
    d = draw(st.integers(1, 2))
    truncate = draw(st.sampled_from([2, 3, 4, None]))
    lines = [f"field {field}", "quiver", "  vertex v"]
    lines += [f"  arrow {a}: v -> v" for a in loops]
    lines += [f"truncate {truncate}"] if truncate else []
    lines += ["module M", f"  dim v = {d}"]
    for a in loops:
        rows = [[draw(entries) if c > r else 0 for c in range(d)] for r in range(d)]
        lines.append(f"  mat {a} = " + str(rows).replace(" ", ""))
    source = parse("\n".join(lines) + "\n")
    base = Representation.from_module_def(PresentedAlgebra.from_source(source),
                                          source.modules["M"])
    assume(validate(base) == [] and tangent_dimension(base) == 1)
    ladder = ladder_search(base, max_order=4).ladder
    kind = draw(st.sampled_from(["search", "perturbed", "coboundary"]))
    arrow = draw(st.sampled_from(list(loops)))
    r, c = draw(st.integers(0, d - 1)), draw(st.integers(0, d - 1))
    if kind == "perturbed":
        top = ladder.top
        k = draw(st.integers(1, top.order))
        coeffs = {a: list(series) for a, series in top.coeffs.items()}
        coeffs[arrow][k] = _bump(coeffs[arrow][k], r, c)
        return Ladder(Lift(base, top.order, coeffs))
    if kind == "coboundary":
        layout = DeformationSystem(base, base).layout
        cob = [layout.unpack(sparse(v)) for v in reference_coboundary_vectors(base, base)]
        lift = (Lift.first_order(base, cob[draw(st.integers(0, len(cob) - 1))])
                if cob else Lift.trivial(base, 1))
        for _ in range(draw(st.integers(0, 2))):
            step = extend_step(lift)
            if isinstance(step, Obstruction):
                break
            lift = step
        return Ladder(lift)
    return ladder


@settings(max_examples=60, deadline=None)
@given(tangent_one_ladders())
def test_verify_ladder_matches_dense_reference(ladder):
    def rows(checks):
        return [(c.name, c.order, c.ok, c.detail) for c in checks]

    transcript = verify_ladder(ladder)
    dense = dense_verify_ladder(ladder).checks
    kept = [c for c in dense if c.name in ("first_order_nontrivial", "residuals_vanish")]
    kept += [c for c in dense if c.name in SHIFT_CHECKS and c.order == ladder.length]
    assert rows(transcript.checks) == rows(kept)
    # every dense check left out holds, whatever the coefficients
    kept_keys = {(c.name, c.order) for c in kept}
    left_out = [c for c in dense if (c.name, c.order) not in kept_keys]
    assert left_out and all(c.ok for c in left_out)
    assert transcript.ok == all(c.ok for c in dense)


# ----------------------------------------------------------------------
# the path series a lift carries

J3_XY = """\
field F 5
quiver
  vertex v
  arrow x: v -> v
  arrow y: v -> v
truncate 3

module M
  dim v = 3
  mat x = [[0,0,0],[1,0,0],[0,1,0]]
  mat y = [[0,0,0],[0,0,0],[1,0,0]]
"""

SERIES_BASES = [(read_corpus("kx2_rel_f5.alg"), "P1"), (read_corpus("parallel_rel_f3.alg"), "M"),
                (J3_XY, "M"), (read_corpus("a2_f5.alg"), "P1")]


def _with_field(text, field):
    return "\n".join(f"field {field}" if line.startswith("field ") else line
                      for line in text.splitlines()) + "\n"


@st.composite
def random_lifts(draw):
    """A lift over kx2_rel_f5 P1, parallel_rel_f3 M or M over k<x,y>/J^3, grown
    by up to six extended calls; fields F_2, F_5 and Q, with fractional
    entries over Q."""
    text, name = draw(st.sampled_from(SERIES_BASES))
    field = draw(st.sampled_from(["F 2", "F 5", "Q"]))
    source = parse(_with_field(text, field))
    base = Representation.from_module_def(PresentedAlgebra.from_source(source),
                                          source.modules[name])
    values = (st.sampled_from([0, 0, 0, 1, -1, Fraction(1, 2), Fraction(-2, 3)]) if field == "Q"
              else st.sampled_from([0, 0, 0, 1, 2, 3, 4]))
    lift = Lift.trivial(base, draw(st.integers(0, 2)))
    history = [lift]
    for _ in range(draw(st.integers(0, 6))):
        b = {}
        for a in base.algebra.quiver.arrows:
            rows, cols = base.dims[a.target], base.dims[a.source]
            b[a.name] = Matrix.from_rows(
                base.field, [[draw(values) for _ in range(cols)] for _ in range(rows)])
        lift = lift.extended(b)
        history.append(lift)
    return history


@settings(max_examples=60, deadline=None)
@given(random_lifts())
def test_series_residuals_match_reference(history):
    for lift in history:
        for j in range(lift.order + 2):
            assert residual_coefficients(lift, j) == reference_residual_coefficients(lift, j), j
        # the series of a grown lift are those the constructor grows from scratch
        assert Lift(lift.base, lift.order, lift.coeffs).series == lift.series
        dense_valid = validate(as_representation(lift)) == []
        assert is_valid(lift) == dense_valid
        if lift.order >= 1:
            # verify_report's top_satisfies_relations reads these checks
            assert verify_ladder(Ladder(lift)).passed("residuals_vanish") == dense_valid


@settings(max_examples=60, deadline=None)
@given(random_lifts())
def test_series_hold_exactly_the_nonzero_prefix_coefficients(history):
    # degree d of the series maps each generator prefix whose t^d coefficient
    # is nonzero to it, stores no zero matrix and no node that prefixes no
    # generator path
    for lift in history:
        prefixes = lift.base.algebra.prefixes
        paths = node_paths(lift.base.algebra.tree)
        assert len(lift.series) == lift.order + 1
        for d, values in enumerate(lift.series):
            assert all(not value.is_zero() for value in values.values()), d
            assert set(values) <= prefixes, d
            for node in prefixes:
                path = paths[node]
                expected = reference_path_poly(lift, path, d)[d]
                assert values.get(node, Matrix.zeros(lift.field, expected.nrows,
                                                     expected.ncols)) == expected, (d, path)


@pytest.mark.parametrize("name", sorted(path.name for path in CORPUS.glob("*.alg")))
def test_only_generator_prefixes_are_multiplied(monkeypatch, name):
    # a node that prefixes no generator path (every node of a2_f5, whose arrow
    # a is as long as no generator, and e_v2 of parallel_rel_f3) is never
    # evaluated: a module's prefix values, the degree-0 series of its lifts,
    # are folded once, one product per generator prefix whose parent's value
    # is nonzero; validate and the deformation system read that fold, and the
    # system adds one product per distinct generator suffix of two or more
    # arrows that its walk reaches, which stops past the first zero suffix value
    source, algebra = load_algebra(name)
    tree, paths, prefixes = algebra.tree, node_paths(algebra.tree), algebra.prefixes
    # the marked nodes are exactly the prefixes of the generator paths
    assert {paths[node] for node in prefixes} == {
        Path(p.arrows[:k], p.source, p.arrows[k - 1].target if k else p.source)
        for rel in algebra.generating_relations() for c, p in rel.terms if c
        for k in range(p.length + 1)}
    modules, expected = [], []
    for mod in source.modules.values():
        m = Representation.from_module_def(algebra, mod)
        modules.append(m)
        expected.append((
            sum(1 for node in prefixes if tree.parents[node] >= 0
                and not path_matrix(m, paths[tree.parents[node]]).is_zero()),
            len(_reached_suffixes(m))))
    if name == "a2_f5.alg":
        assert not prefixes and all(counts == (0, 0) for counts in expected)
    products, mul = [], Matrix.__mul__
    monkeypatch.setattr(Matrix, "__mul__", lambda a, b: products.append(1) or mul(a, b))
    for m, (fold, system) in zip(modules, expected):
        del products[:]
        Lift.trivial(m)
        assert len(products) == fold, m
        del products[:]
        validate(m)
        Lift.trivial(m)
        DeformationSystem(m, m)
        assert len(products) == system, m


def test_degree_zero_series_is_the_module_fold(monkeypatch):
    # a lift's degree-0 series is its base's prefix_values, each generator
    # prefix's value on the module; classify and verify grow every other
    # degree from it, and never evaluate degree 0 again
    modules = [(path.name, module) for path in sorted(CORPUS.glob("*.alg"))
               for module in load_source(path.name).modules]
    assert len(modules) >= 28
    for name, module in modules:
        v = load_module(name, module)
        paths = node_paths(v.algebra.tree)
        series = Lift.trivial(v).series[0]
        assert series is v.prefix_values
        assert series == {node: value for node in v.algebra.prefixes
                          if not (value := path_matrix(v, paths[node])).is_zero()}, (name, module)
    degrees, grow = [], lift_module._series_degree
    monkeypatch.setattr(lift_module, "_series_degree",
                        lambda lift, d: degrees.append(d) or grow(lift, d))
    for name, module in modules:
        report = serialize_report(classify(load_source(name), module))
        assert verify_report(read_corpus(name), module, report, name).ok, (name, module)
    assert degrees and 0 not in degrees


def _reached_suffixes(m):
    """The generator suffixes of two or more arrows whose value the walk of
    the deformation system takes: the suffixes of p of 1..length-1 arrows,
    from the shortest, through the first whose value on m is zero."""
    reached = set()
    for rel in m.algebra.generating_relations():
        for _, p in (term for term in rel.terms if term[0]):
            for k in range(p.length - 1, 0, -1):
                suffix = Path(p.arrows[k:], p.arrows[k].source, p.target)
                if k < p.length - 1:
                    reached.add(suffix)
                if path_matrix(m, suffix).is_zero():
                    break
    return reached


def test_long_ladder_series_hold_one_value_per_degree():
    # k[x]/(x^40): the chain x -> t lifts through order 39, and at degree d only
    # x^d is nonzero, so the series hold 40 values, not one per node and degree
    source = parse("field F 3\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate 40\n"
                   "module V\n  dim v = 1\n  mat x = [[0]]\n")
    v = Representation.from_module_def(PresentedAlgebra.from_source(source), source.modules["V"])
    top = ladder_search(v, max_order=40).ladder.top
    assert top.order == 39
    assert len(v.algebra.tree.parents) == 41
    assert sum(len(values) for values in top.series) == 40
