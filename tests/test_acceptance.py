"""Acceptance gate: one test per advertised guarantee.

Each test is a full, self-contained check of one promise the package makes;
the terminal summary prints one PASS/FAIL line per criterion.  Nothing here
is redundant with the unit files: these run the library end to end the way
a referee would.
"""

import json
import random

from defring import (
    DeformationSystem,
    Ladder,
    Lift,
    Representation,
    classify,
    deformation_system,
    enumerate_lifts,
    ext1_cocycle,
    ext1_dim,
    ext1_hereditary,
    ext1_syzygy,
    extend_step,
    hom_dim,
    incremental_valid_points,
    ladder_search,
    oracle_max_order,
    residual_coefficients,
    serialize_report,
    tangent_dimension,
    validate,
    verify_ladder,
    verify_report,
)
from defring.cli import main
from defring.linalg import Matrix, rank
from defring.oracle import DEFAULT_BUDGET, _valid_points
from defring.rep import direct_sum_many
from helpers import (CORPUS, columns_matrix, load_algebra, load_module, load_source,
                     read_corpus, reference_deformation_matrix, solve_matrix, tolist)


def test_criterion_1_truncated_family_is_finite():
    # k[x]/(x^n) with the simple module: R^w = k[[t]]/(t^n) over F_5 and Q
    for n in (2, 3, 4, 5):
        for suffix in ("f5", "q"):
            name = f"kx{n}_{suffix}.alg"
            report = classify(load_source(name), "V")
            assert report.verdict.type == "finite", (name, report.verdict)
            assert report.verdict.n == n - 1, name
            assert report.tangent_dim == 1
            assert report.checks.hom_top_dim == 1
            assert report.checks.ext_top_dim == 0
            assert report.checks.sigma_nilpotent is True
            assert report.checks.first_order_nontrivial is True
            # exhaustive proof is only available over a prime field
            assert report.verdict.proved is (suffix == "f5")
            result = verify_report(read_corpus(name), "V", serialize_report(report), name)
            assert result.ok, (name, result.summary())


def test_criterion_2_rigid_modules_give_a_point():
    for name, module in (("kx2_f5.alg", "P1"), ("a2_f5.alg", "S1")):
        base = load_module(name, module)
        assert tangent_dimension(base) == 0, (name, module)
        report = classify(load_source(name), module)
        assert report.verdict.type == "point", (name, module)
        blob = serialize_report(report)
        assert verify_report(read_corpus(name), module, blob, name).ok


def test_criterion_3_free_loop_is_a_power_series_ring():
    for name in ("loop_free_f2.alg", "loop_free_f3.alg", "loop_free_q.alg"):
        report = classify(load_source(name), "V")
        assert report.verdict.type == "power_series", name
        assert report.verdict.proved is True, name
        # the extension system is empty: kernel dimension 1 at every order
        base = load_module(name, "V")
        system = deformation_system(base, base)
        search = ladder_search(base, max_order=10)
        assert search.kind == "unobstructed"
        assert f"extension kernel dimensions per order: {[1] * 10}" in search.notes
        lift = Lift.first_order(base, search.ladder.first_order_class)
        for _ in range(9):
            step = system.solve_step(residual_coefficients(lift, lift.order + 1))
            assert step.feasible and system.layout.total - step.rank == 1
            lift = extend_step(lift)
        assert lift.order == 10 and lift == search.ladder.top
        assert verify_report(read_corpus(name), "V", serialize_report(report), name).ok


def test_criterion_4_kronecker_euler_form_cross_check():
    for name in ("kronecker_q.alg", "kronecker_f3.alg"):
        m = load_module(name, "M11")
        quiver = m.algebra.quiver
        hom = hom_dim(m, m)
        euler = sum(m.dims[v] ** 2 for v in quiver.vertices) - sum(
            m.dims[a.source] * m.dims[a.target] for a in quiver.arrows
        )
        assert hom == 1 and euler == 0, name
        assert ext1_hereditary(m, m) == hom - euler == 1
        assert tangent_dimension(m) == 1
        report = classify(load_source(name), "M11")
        assert report.verdict.type == "power_series" and report.verdict.proved is True


def test_criterion_5_oracle_agrees_with_engine():
    # every prime-field corpus case whose brute-force search stays within
    # six coefficient slots in total
    cases = [
        ("kx2_f2.alg", "V", 6),
        ("kx2_f3.alg", "V", 6),
        ("kx3_f2.alg", "V", 6),
        ("kx3_f3.alg", "V", 6),
        ("loop_free_f2.alg", "V", 6),
        ("loop_free_f3.alg", "V", 6),
        ("kronecker_f2.alg", "M11", 3),
        ("kronecker_f3.alg", "M11", 3),
        ("parallel_rel_f3.alg", "M", 3),
    ]
    for name, module, cap in cases:
        base = load_module(name, module)
        search = ladder_search(base, max_order=cap)
        engine_n = search.terminated_at if search.kind == "terminated" else cap
        assert oracle_max_order(base, cap) == engine_n, (name, module)
        incremental = incremental_valid_points(base, cap)
        for order in range(1, cap + 1):
            brute = _valid_points(base, order, DEFAULT_BUDGET)[1]
            assert incremental[order - 1] == brute, (name, module, order)


def _invertible(field, d, rng):
    while True:
        t = Matrix.from_rows(field, [[rng.randrange(field.p) for _ in range(d)] for _ in range(d)])
        if solve_matrix(t, Matrix.identity(field, d)) is not None:
            return t


def _conjugate(m, rng):
    ts = {v: _invertible(m.field, d, rng) if d else Matrix.identity(m.field, 0)
          for v, d in m.dims.items()}
    mats = {}
    for name, mat in m.mats.items():
        a = m.algebra.quiver.arrow_by_name[name]
        inv = solve_matrix(ts[a.source], Matrix.identity(m.field, m.dims[a.source]))
        mats[name] = ts[a.target] * mat * inv
    return Representation(m.algebra, dict(m.dims), mats)


def _generated_modules():
    rng = random.Random(20240811)
    out = []
    for name in ("kx2_f2.alg", "kx2_f3.alg", "kx3_f2.alg", "kx3_f3.alg"):
        _, alg = load_algebra(name)
        v = load_module(name, "V")
        p = alg.left_projective("v")
        out += [("truncated", v), ("truncated", p), ("truncated", direct_sum_many([v, v])),
                ("truncated", direct_sum_many([v, p])), ("truncated", _conjugate(p, rng))]
    for name in ("loop_free_f2.alg", "loop_free_f3.alg"):
        v = load_module(name, "V")
        field = v.field
        jordan = Representation(v.algebra, {"v": 2},
                                {"x": Matrix.from_rows(field, [[0, 0], [1, 0]])})
        unit = Representation(v.algebra, {"v": 1}, {"x": Matrix.from_rows(field, [[1]])})
        out += [("hereditary", v), ("hereditary", jordan), ("hereditary", unit),
                ("hereditary", _conjugate(jordan, rng))]
    for name in ("kronecker_f2.alg", "kronecker_f3.alg"):
        m = load_module(name, "M11")
        field = m.field
        both = Representation(m.algebra, dict(m.dims),
                              {"a": Matrix.from_rows(field, [[1]]),
                               "b": Matrix.from_rows(field, [[1]])})
        wide = Representation(m.algebra, {"v1": 2, "v2": 1},
                              {"a": Matrix.from_rows(field, [[1, 0]]),
                               "b": Matrix.from_rows(field, [[0, 1]])})
        out += [("hereditary", m), ("hereditary", both), ("hereditary", wide),
                ("hereditary", _conjugate(wide, rng))]
    return out


def test_criterion_6_ext_backends_and_yoneda_agree():
    modules = _generated_modules()
    assert len(modules) >= 20
    for mode, m in modules:
        assert m.total_dim <= 6
        assert validate(m) == []
        cocycle = ext1_cocycle(m, m)
        if mode == "truncated":
            assert ext1_syzygy(m, m) == cocycle
            # the cross-checking backend agrees with itself by construction
            assert ext1_dim(m, m, "all") == cocycle
            for v in m.algebra.quiver.vertices:
                p_v = m.algebra.left_projective(v)
                assert hom_dim(p_v, m) == m.dims[v]
        else:
            assert ext1_hereditary(m, m) == cocycle
            assert ext1_dim(m, m, "all") == cocycle
    # pairwise checks between distinct modules of the same algebra
    by_algebra = {}
    for mode, m in modules:
        by_algebra.setdefault((mode, id(m.algebra)), []).append(m)
    pair_count = 0
    for (mode, _), group in by_algebra.items():
        for m, n in zip(group, group[1:]):
            cocycle = ext1_cocycle(m, n)
            if mode == "truncated":
                assert ext1_syzygy(m, n) == cocycle
            else:
                assert ext1_hereditary(m, n) == cocycle
            pair_count += 1
    assert pair_count >= 10


def test_criterion_7_finite_reports_reverify_from_file(tmp_path):
    finite_cases = [(f"kx{n}_{s}.alg", "V") for n in (2, 3, 4, 5) for s in ("f5", "q")]
    finite_cases.append(("kx2_rel_f5.alg", "V"))
    for name, module in finite_cases:
        report = classify(load_source(name), module)
        assert report.verdict.type == "finite"
        path = tmp_path / f"{name}.{module}.json"
        path.write_text(serialize_report(report), encoding="utf-8")
        # reload from disk: nothing carried over from the classify run
        result = verify_report(read_corpus(name), module, path.read_text(encoding="utf-8"), name)
        assert result.ok, (name, result.summary())
        assert any("residuals_vanish" in line and "ok" in line for line in result.lines)
        assert "hom_top_dim_matches: ok (recomputed 1)" in result.lines
        assert "ext_top_dim_matches: ok (recomputed 0)" in result.lines
        assert any(line.startswith("verdict_matches: ok") for line in result.lines)


def test_criterion_8_obstruction_certificate_is_sound():
    v = load_module("kx2_f5.alg", "V")
    lift = Lift.first_order(v, {"x": Matrix.from_rows(v.field, [[1]])})
    ob = extend_step(lift)
    assert ob.order == 2
    assert ob.rank_augmented > ob.rank_coefficient

    # recompute the rank gap from scratch: the dense coefficient matrix of
    # the deformation system, augmented with the packed residual column
    a = reference_deformation_matrix(v, v)
    assert rank(a) == ob.rank_coefficient == 0
    rhs_entries = []
    for _, res in ob.residuals:
        rhs_entries.extend(-x for row in tolist(res) for x in row)
    rhs = columns_matrix(v.field, a.nrows, [rhs_entries])
    assert rank(a.hstack(rhs)) == ob.rank_augmented == 1
    assert ob.rank_augmented > ob.rank_coefficient

    # the trivial (coboundary) first-order class must not enter a ladder
    p1 = load_module("kx2_f5.alg", "P1")
    system = DeformationSystem(p1, p1)
    trivial = Lift.first_order(p1, system.layout.unpack(system.cocycles[0]))
    transcript = verify_ladder(Ladder(trivial))
    assert not transcript.ok
    assert any("nontrivial" in c.name and not c.ok for c in transcript.checks)
    zero_class = Lift.trivial(v, order=1)
    assert not verify_ladder(Ladder(zero_class)).ok


def test_criterion_9_classify_json_is_deterministic(tmp_path, capsys):
    for path in sorted(CORPUS.glob("*.alg")):
        source = load_source(path.name)
        for module in source.modules:
            outputs = []
            for run in ("a", "b"):
                out = tmp_path / f"{path.stem}.{module}.{run}.json"
                code = main(["classify", str(path), "-m", module, "--json", str(out)])
                capsys.readouterr()
                assert code == 0, (path.name, module)
                outputs.append(out.read_bytes())
            assert outputs[0] == outputs[1], (path.name, module)
            json.loads(outputs[0])
