import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from defring import (
    BudgetExceeded,
    DeformationSystem,
    PresentedAlgebra,
    Representation,
    enumerate_lifts,
    incremental_valid_points,
    is_valid,
    ladder_search,
    oracle_max_order,
    parse,
    tangent_dimension,
    validate,
)
from defring.lift import as_representation
from defring.oracle import DEFAULT_BUDGET, _valid_points, lift_from_point, point_from_lift
from defring.rep import arrow_layout
from helpers import CORPUS, load_module, load_source, reference_valid_points, tolist


def test_coefficient_slots_row_major():
    v = load_module("kx2_f2.alg", "V")
    assert arrow_layout(v, v).slots == [("x", 0, 0)]
    m = load_module("kronecker_f2.alg", "M11")
    assert arrow_layout(m, m).slots == [("a", 0, 0), ("b", 0, 0)]


def test_point_lift_round_trip():
    v = load_module("kx2_f3.alg", "V")
    lift = lift_from_point(v, 2, (0, 2))
    assert lift.order == 2
    assert point_from_lift(lift) == (0, 2)
    assert lift.coeffs["x"][2][0, 0] == 2


PRIME_CORPUS_MODULES = [(path.name, module) for path in sorted(CORPUS.glob("*.alg"))
                        for source in [load_source(path.name)] if source.field.p is not None
                        for module in source.modules]


def test_coefficient_slots_follow_the_deformation_layout():
    for name, module in PRIME_CORPUS_MODULES:
        v = load_module(name, module)
        layout = DeformationSystem(v, v).layout
        slots = arrow_layout(v, v).slots
        assert len(slots) == layout.total
        for i, (arrow, r, c) in enumerate(slots):
            mats = layout.unpack({i: 1})
            assert mats[arrow][r, c] == 1, (name, module, i)
            assert sum(x for m in mats.values() for row in tolist(m) for x in row) == 1


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PRIME_CORPUS_MODULES), st.integers(1, 3), st.data())
def test_point_lift_round_trip_on_corpus_modules(entry, order, data):
    v = load_module(*entry)
    slots = arrow_layout(v, v).slots
    point = tuple(data.draw(st.lists(st.integers(0, v.field.p - 1),
                                     min_size=len(slots) * order, max_size=len(slots) * order)))
    lift = lift_from_point(v, order, point)
    assert lift.order == order
    assert point_from_lift(lift) == point
    for j in range(1, order + 1):
        for i, (arrow, r, c) in enumerate(slots):
            assert lift.coeffs[arrow][j][r, c] == point[(j - 1) * len(slots) + i]


def test_enumerate_first_order():
    v = load_module("kx2_f2.alg", "V")
    result = enumerate_lifts(v, 1)
    assert result.order == 1
    assert result.total_points == 2
    assert result.valid_points == [(0,), (1,)]
    assert result.nontrivial_count == 1
    assert result.iso_classes == [[(0,)], [(1,)]]
    assert result.unknown_points == []


def test_enumerate_second_order_all_trivial():
    v = load_module("kx2_f2.alg", "V")
    result = enumerate_lifts(v, 2)
    assert result.total_points == 4
    # x^2 = 0 forces the degree 1 coefficient to vanish
    assert result.valid_points == [(0, 0), (0, 1)]
    assert result.nontrivial_count == 0
    assert result.iso_classes == [[(0, 0)], [(0, 1)]]


def test_enumerate_groups_conjugate_lifts():
    loop = load_module("loop_free_f3.alg", "V")
    result = enumerate_lifts(loop, 1)
    assert result.valid_points == [(0,), (1,), (2,)]
    assert result.nontrivial_count == 2
    # scaling the basis conjugates t into 2t, so 1 and 2 land together
    assert result.iso_classes == [[(0,)], [(1,), (2,)]]


def test_oracle_max_order():
    assert oracle_max_order(load_module("kx2_f2.alg", "V"), 6) == 1
    assert oracle_max_order(load_module("kx3_f2.alg", "V"), 6) == 2
    # unobstructed module runs to the cap
    assert oracle_max_order(load_module("loop_free_f2.alg", "V"), 4) == 4


def test_valid_points_are_valid_lifts():
    v = load_module("kx3_f3.alg", "V")
    for point in _valid_points(v, 3, DEFAULT_BUDGET)[1]:
        lift = lift_from_point(v, 3, point)
        assert is_valid(lift)
        assert validate(as_representation(lift)) == []


@pytest.mark.parametrize("name,module,order", [
    ("kx2_f2.alg", "V", 4), ("kx3_f2.alg", "V", 4), ("kx2_rel_f5.alg", "V", 3),
    ("kx2_f3.alg", "V", 3), ("kx3_f3.alg", "V", 3), ("parallel_rel_f3.alg", "M", 2),
    ("kronecker_f2.alg", "M11", 3), ("loop_free_f3.alg", "V", 3),
    ("kx2_f5.alg", "V", 3), ("kx2_rel_f5.alg", "P1", 1), ("a2_f5.alg", "P1", 2),
])
def test_degree_by_degree_points_match_product_enumeration(name, module, order):
    v = load_module(name, module)
    total, valid = reference_valid_points(v, order)
    assert enumerate_lifts(v, order).total_points == total
    assert _valid_points(v, order, DEFAULT_BUDGET)[1] == valid


def test_incremental_matches_brute_force():
    v = load_module("kx2_f3.alg", "V")
    per_order = incremental_valid_points(v, 3)
    assert [len(p) for p in per_order] == [3, 3, 9]
    for order, points in enumerate(per_order, start=1):
        assert points == _valid_points(v, order, DEFAULT_BUDGET)[1]


def test_budget_guard():
    v = load_module("kx2_f3.alg", "V")
    with pytest.raises(BudgetExceeded) as exc:
        _valid_points(v, 8, 100)
    assert exc.value.needed > exc.value.budget


def test_prime_field_required():
    v = load_module("kx2_q.alg", "V")
    with pytest.raises(ValueError):
        _valid_points(v, 1, DEFAULT_BUDGET)



@pytest.mark.parametrize("order", [0, -1])
@pytest.mark.parametrize("run", [enumerate_lifts, oracle_max_order, incremental_valid_points])
def test_orders_below_one_are_rejected(run, order):
    v = load_module("kx2_f5.alg", "P1")
    with pytest.raises(ValueError, match=f"at least 1, got {order}"):
        run(v, order)

# brute-force points the oracle may test per example; bounds each example to about two seconds
ORACLE_POINTS = 4096


@st.composite
def small_loop_modules(draw):
    """One vertex, one or two loops, dimension <= 3, strictly upper-triangular."""
    p = draw(st.sampled_from([2, 3]))
    loops = draw(st.sampled_from(["x", "xy"]))
    d = draw(st.integers(1, 3))
    truncate = draw(st.integers(2, 4))
    assume(p ** (len(loops) * d * d) <= ORACLE_POINTS)
    lines = [f"field F {p}", "quiver", "  vertex v"]
    lines += [f"  arrow {a}: v -> v" for a in loops]
    lines += [f"truncate {truncate}", "module M", f"  dim v = {d}"]
    for a in loops:
        rows = [[draw(st.integers(0, p - 1)) if c > r else 0 for c in range(d)]
                for r in range(d)]
        lines.append(f"  mat {a} = " + str(rows).replace(" ", ""))
    source = parse("\n".join(lines) + "\n")
    algebra = PresentedAlgebra.from_source(source)
    return Representation.from_module_def(algebra, source.modules["M"])


@settings(max_examples=30, deadline=None)
@given(small_loop_modules())
def test_one_chain_obstructs_where_the_oracle_does(base):
    assume(validate(base) == [])
    assume(tangent_dimension(base) == 1)
    slots = arrow_layout(base, base).total
    cap = 1
    while cap < 5 and base.field.p ** (slots * (cap + 1)) <= ORACLE_POINTS:
        cap += 1
    search = ladder_search(base, max_order=cap)
    engine_n = search.terminated_at if search.kind == "terminated" else cap
    assert engine_n == oracle_max_order(base, cap)
