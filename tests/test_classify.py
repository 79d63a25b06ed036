import dataclasses
import hashlib
import itertools
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from defring import (
    ClassifyConfig,
    PresentedAlgebra,
    Representation,
    classify,
    direct_sum,
    ext1_dim,
    ladder_search,
    parse,
    projective_cover,
    serialize_report,
    source_digest,
    tangent_dimension,
    verify_ladder,
    verify_report,
)
from helpers import (CORPUS, SECOND_PRESENTATIONS, load_module, load_source, read_corpus,
                     reference_coboundary_vectors, retruncated, second_presentation,
                     text_modules)


def run(name, module, **kw):
    return classify(load_source(name), module, ClassifyConfig(**kw) if kw else None)


def test_tangent_dimension_examples():
    assert tangent_dimension(load_module("kx2_f5.alg", "V")) == 1
    assert tangent_dimension(load_module("kx2_f5.alg", "P1")) == 0
    assert tangent_dimension(load_module("kx2_f5.alg", "VV")) == 4
    assert tangent_dimension(load_module("kronecker_q.alg", "M11")) == 1


@pytest.mark.parametrize(
    "name,module,vtype,n,proved",
    [
        ("kx2_f5.alg", "V", "finite", 1, True),
        ("kx3_f5.alg", "V", "finite", 2, True),
        ("kx2_q.alg", "V", "finite", 1, False),
        ("kx2_rel_f5.alg", "V", "finite", 1, True),
        ("kx2_f5.alg", "P1", "point", None, None),
        ("a2_f5.alg", "S1", "point", None, None),
        ("a2_f5.alg", "P1", "point", None, None),
        ("parallel_rel_f3.alg", "M", "point", None, None),
        ("kx2_f5.alg", "VV", "out_of_scope", None, None),
        ("kx2_f5.alg", "PV", "inconclusive", None, None),
        ("loop_free_q.alg", "V", "power_series", None, True),
        ("loop_free_f2.alg", "V", "power_series", None, True),
        ("kronecker_f3.alg", "M11", "power_series", None, True),
    ],
)
def test_verdict_table(name, module, vtype, n, proved):
    report = run(name, module)
    assert report.verdict.type == vtype
    if n is not None:
        assert report.verdict.n == n
    if proved is not None:
        assert report.verdict.proved is proved


def test_finite_report_details():
    report = run("kx2_f5.alg", "V")
    assert report.tangent_dim == 1
    assert report.verdict.n == 1
    assert report.checks.hom_top_dim == 1
    assert report.checks.ext_top_dim == 0
    assert report.checks.sigma_nilpotent is True
    assert report.checks.first_order_nontrivial is True
    assert report.ladder is not None and report.ladder.length == 1
    assert any("tangent dimension: 1" in note for note in report.notes)
    assert any("obstruction at order 2" in note for note in report.notes)


def test_point_report_has_no_ladder():
    report = run("a2_f5.alg", "S2")
    assert report.verdict.type == "point"
    assert report.ladder is None
    assert report.checks.hom_top_dim is None
    assert report.checks.sigma_nilpotent is None


def test_out_of_scope_reports_tangent():
    report = run("kx2_f5.alg", "VV")
    assert report.tangent_dim == 4
    assert report.verdict.reason
    assert report.ladder is None


def test_inconclusive_side_condition():
    report = run("kx2_f5.alg", "PV")
    assert report.verdict.type == "inconclusive"
    # the chain terminates but the top fails the hom side condition
    assert report.checks.hom_top_dim == 9
    assert report.checks.ext_top_dim == 0
    assert "hom" in report.verdict.reason.lower()
    assert any(report.verdict.reason in note for note in report.notes)


def test_reached_bound_gives_unproved_power_series():
    report = run("kx4_f5.alg", "V", max_order=2)
    assert report.verdict.type == "power_series"
    assert report.verdict.proved is False
    assert report.verdict.max_order_checked == 2
    # with enough room the same module is settled as finite
    assert run("kx4_f5.alg", "V", max_order=10).verdict.type == "finite"
    # a bound below one order would leave a ladder longer than the order checked
    with pytest.raises(ValueError):
        run("kx4_f5.alg", "V", max_order=0)


def test_finite_verdict_stable_under_larger_bound():
    a = run("kx3_f5.alg", "V", max_order=10)
    b = run("kx3_f5.alg", "V", max_order=14)
    assert (a.verdict.type, a.verdict.n) == (b.verdict.type, b.verdict.n) == ("finite", 2)


def test_finite_verdict_over_rationals_is_never_proved():
    for name, n in (("kx2_q.alg", 1), ("kx3_q.alg", 2)):
        report = run(name, "V")
        assert (report.verdict.type, report.verdict.n) == ("finite", n)
        assert report.verdict.proved is False
        assert any("prime fields only" in note for note in report.notes)


def test_search_takes_no_strategy_or_budget():
    for knob in ("strategy", "point_budget", "branch_budget"):
        with pytest.raises(TypeError):
            ClassifyConfig(**{knob: None})
        with pytest.raises(TypeError):
            ladder_search(load_module("kx2_f5.alg", "V"), **{knob: None})
    # the same one chain runs over Q and over F_p
    assert run("kx3_q.alg", "V").verdict.n == run("kx3_f5.alg", "V").verdict.n == 2


def truncated_simple(field: str, n: int):
    return parse(f"field {field}\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate {n}\n"
                 "module V\n  dim v = 1\n  mat x = [[0]]\n")


def test_one_chain_needs_no_budget():
    # an enumeration of every chain would follow 6 * 7^5 of them here
    report = classify(truncated_simple("F 7", 7), "V")
    assert (report.verdict.type, report.verdict.n, report.verdict.proved) == ("finite", 6, True)
    report = classify(truncated_simple("Q", 12), "V", ClassifyConfig(max_order=12))
    assert (report.verdict.type, report.verdict.n, report.verdict.proved) == ("finite", 11, False)
    # dim Z = 5 for PV, yet one chain settles it
    search = ladder_search(load_module("kx2_f5.alg", "PV"))
    assert (search.kind, search.terminated_at) == ("terminated", 1)
    assert search.notes == ["extension kernel dimensions per order: [5]"]


@pytest.mark.parametrize("module, tangent", [("P1", 0), ("VV", 4)])
def test_classify_rejects_max_order_below_one_before_the_tangent_gate(module, tangent):
    assert tangent_dimension(load_module("kx2_f5.alg", module)) == tangent
    for max_order in (0, -3):
        with pytest.raises(ValueError, match=f"max_order must be at least 1, got {max_order}$"):
            classify(load_source("kx2_f5.alg"), module, ClassifyConfig(max_order=max_order))


def test_ladder_search_result_shape():
    v = load_module("kx3_f5.alg", "V")
    result = ladder_search(v, max_order=10)
    assert result.kind == "terminated"
    assert result.notes == ["extension kernel dimensions per order: [1, 1]"]
    assert result.terminated_at == 2
    assert result.obstruction is not None and result.obstruction.certifies
    assert result.ladder.length == 2
    assert verify_ladder(result.ladder).ok

    loop = load_module("loop_free_f3.alg", "V")
    free = ladder_search(loop, max_order=10)
    assert free.kind == "unobstructed"
    assert free.notes[1] == f"extension kernel dimensions per order: {[1] * 10}"

    bounded = ladder_search(v, max_order=1)
    assert bounded.kind == "reached_bound"


def test_hereditary_strategy_used_automatically():
    report = run("loop_free_q.alg", "V")
    assert report.verdict.proved is True
    assert any("always feasible" in note for note in report.notes)
    assert any("kernel dimensions per order: [1, 1" in note for note in report.notes)


def test_stable_end_note_advisory():
    report = run("kx2_f5.alg", "V")
    assert any("stable endomorphism dimension: 1" in n for n in report.notes)
    assert any("weak and full deformations agree" in n for n in report.notes)
    hered = run("loop_free_f2.alg", "V")
    assert any("not applicable" in n for n in hered.notes)


def test_report_json_schema():
    report = run("kx2_f5.alg", "V")
    blob = json.loads(serialize_report(report))
    assert set(blob) == {
        "input_digest",
        "field",
        "tangent_dim",
        "verdict",
        "ladder",
        "checks",
        "notes",
    }
    assert blob["field"] == {"kind": "prime", "p": 5}
    assert blob["tangent_dim"] == 1
    assert blob["verdict"] == {"type": "finite", "N": 1, "proved": True}
    assert "reason" not in blob["verdict"]
    assert blob["checks"]["hom_top_dim"] == 1
    assert blob["checks"]["ext_top_dim"] == 0
    assert blob["checks"]["sigma_nilpotent"] is True
    assert blob["checks"]["first_order_nontrivial"] is True
    rung = blob["ladder"][0]
    assert rung["order"] == 1
    assert rung["matrices"] == {"x": [["1"]]}
    assert all(isinstance(n, str) for n in blob["notes"])


def test_report_json_rational_field_and_nulls():
    report = run("kx2_q.alg", "P1")
    blob = json.loads(serialize_report(report))
    assert blob["field"] == {"kind": "rationals"}
    assert blob["verdict"] == {"type": "point"}
    assert blob["ladder"] == []
    assert blob["checks"]["hom_top_dim"] is None
    assert blob["checks"]["sigma_nilpotent"] is None


def test_serialization_is_deterministic():
    for name, module in (("kx2_f5.alg", "V"), ("kx2_f5.alg", "PV")):
        a = serialize_report(run(name, module))
        b = serialize_report(run(name, module))
        assert a == b


def test_input_digest_ignores_comments_and_spacing():
    text = read_corpus("kx2_f5.alg")
    from defring import parse

    digest_plain = source_digest(parse(text))
    digest_commented = source_digest(parse("# extra leading comment\n" + text))
    assert digest_plain == digest_commented
    report = run("kx2_f5.alg", "V")
    assert report.input_digest == digest_plain
    assert len(report.input_digest) == 64


def test_corpus_reports_match_recorded_digests():
    # sha256 of every corpus module's classify JSON, recorded when the notes
    # stopped listing the ladder checks that hold by construction
    recorded = json.loads((Path(__file__).parent / "corpus_report_digests.json").read_text())
    seen = {}
    for path in sorted(CORPUS.glob("*.alg")):
        source = load_source(path.name)
        for module in sorted(source.modules):
            blob = serialize_report(classify(source, module))
            seen[f"{path.name}:{module}"] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
    assert seen == recorded


FRACTIONAL_Q = """\
field Q
quiver
  vertex 1
  arrow x: 1 -> 1
truncate 3
module V
  dim 1 = 2
  mat x = [[0,0],[2/3,0]]
"""


def test_report_with_fractional_ladder_entries_matches_recorded_digest():
    # recorded when the notes stopped listing the ladder checks that hold by
    # construction; the ladder matrices are those since matrices held plain
    # residues and Fractions
    blob = serialize_report(classify(parse(FRACTIONAL_Q), "V"))
    report = json.loads(blob)
    assert report["verdict"]["type"] == "inconclusive"
    assert report["ladder"][1]["matrices"]["x"] == [["0", "-3/2"], ["0", "0"]]
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == (
        "6d17c96bbe39099bf67d7915690e63e1c13dd9599642f85d54d890a97d7c56a5")
    assert verify_report(FRACTIONAL_Q, "V", blob).ok


KX_F3 = """\
field F 3
quiver
  vertex v
  arrow x: v -> v
truncate {n}
module V
  dim v = 1
  mat x = [[0]]
"""


def test_notes_grow_by_one_line_per_order():
    # k[x]/(x^n) has a ladder of length n - 1; each order adds its residuals line
    notes = [classify(parse(KX_F3.format(n=n)), "V", ClassifyConfig(max_order=n)).notes
             for n in (20, 40)]
    assert len(notes[1]) - len(notes[0]) == 20


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_classify_builds_one_deformation_system_for_the_tangent_space(monkeypatch):
    # out_of_scope: the tangent space and the stable note read one system of (V, V)
    from defring.rep import DeformationSystem
    built = _count_calls(monkeypatch, DeformationSystem, "__init__")
    assert run("kx2_f5.alg", "VV").verdict.type == "out_of_scope"
    assert len(built) == 1


def test_verify_report_builds_one_deformation_system_for_the_base(monkeypatch):
    # finite: the tangent space and the ladder certificate share one system;
    # the second is the cocycle route to Ext^1(top, V)
    from defring.rep import DeformationSystem
    blob = serialize_report(run("kx3_f5.alg", "V"))
    built = _count_calls(monkeypatch, DeformationSystem, "__init__")
    assert verify_report(read_corpus("kx3_f5.alg"), "V", blob, "kx3_f5.alg").ok
    assert len(built) == 2
    assert [args[1] is args[2] for args in built] == [True, False]


def _count_eliminations(monkeypatch, counting):
    """Route every forward elimination, linalg's and rep's own, through
    counting(m) before it runs; rref and rank eliminate through linalg's."""
    import defring.linalg
    import defring.rep
    echelon = defring.linalg.echelon

    def counted(m):
        counting(m)
        return echelon(m)

    for module in (defring.linalg, defring.rep):
        monkeypatch.setattr(module, "echelon", counted)


def _count_first_order_reductions(monkeypatch, base):
    """[eliminations of the equations, of the coboundary generators] for
    DeformationSystem(V, V), and the systems built.

    Counts forward eliminations: of the system's own equations, which dim Z
    and the cocycle basis read, and of the coboundary generators (one row per
    elementary vertex map of base) on the system's behalf, i.e. with one of
    its methods on the stack.
    """
    from defring.rep import DeformationSystem
    systems = []
    counts = [0, 0]
    init = DeformationSystem.__init__
    vectors = reference_coboundary_vectors(base, base)
    generators = [{j: x for j, x in enumerate(v) if x} for v in vectors]

    def recording_init(self, m, n):
        init(self, m, n)
        if m is n:
            systems.append(self)

    def on_behalf_of_a_system():
        frame = sys._getframe(1)
        while frame is not None:
            if any(frame.f_locals.get("self") is s for s in systems):
                return True
            frame = frame.f_back
        return False

    def counting(m):
        if any(m is s.equations for s in systems):
            counts[0] += 1
        elif (m.ncols, m.rows) == (len(vectors[0]), generators) and on_behalf_of_a_system():
            counts[1] += 1

    monkeypatch.setattr(DeformationSystem, "__init__", recording_init)
    _count_eliminations(monkeypatch, counting)
    return counts, systems


def test_first_order_space_is_computed_once_per_system(monkeypatch):
    # finite: the tangent space (dim Z), the chain's seed (the cocycle basis)
    # and the certificate's nontriviality check read one forward elimination
    # of the equations and one of the coboundary generators
    counts, systems = _count_first_order_reductions(monkeypatch, load_module("kx3_f5.alg", "V"))
    report = run("kx3_f5.alg", "V")
    assert report.verdict.type == "finite"
    assert counts == [1, 1]
    counts[:] = [0, 0]
    blob = serialize_report(report)
    assert verify_report(read_corpus("kx3_f5.alg"), "V", blob, "kx3_f5.alg").ok
    assert counts == [1, 1]
    # each system read both dim Z and the cocycle basis off that one elimination
    assert len(systems) == 2
    assert all(len(s.cocycles) == s.layout.total - s.equations_echelon.rank for s in systems)
    assert all({"equations_echelon", "cocycles"} <= vars(s).keys() for s in systems)


def test_ladder_command_builds_one_deformation_system(monkeypatch, capsys):
    # the tangent space, the chain and its certificate share one system
    from defring.cli import main
    from defring.rep import DeformationSystem
    built = _count_calls(monkeypatch, DeformationSystem, "__init__")
    assert main(["ladder", str(CORPUS / "kx3_f5.alg"), "-m", "V"]) == 0
    assert "certificate: ok" in capsys.readouterr().out
    assert len(built) == 1


def test_ext_at_the_ladder_top_reuses_its_hom(monkeypatch):
    # hereditary: dim Hom(V, V) for the closed form of the tangent space,
    # then dim Hom(top, V) for both hom_top_dim and the closed form of
    # ext_top_dim; each δ is built once and its rows are eliminated forward
    # once (the coboundaries eliminate its columns)
    import defring.rep
    deltas = []
    build = defring.rep.hom_equations

    def recording(m, n):
        out = build(m, n)
        deltas.append(out[1])
        return out

    monkeypatch.setattr(defring.rep, "hom_equations", recording)
    eliminations = []
    _count_eliminations(monkeypatch, eliminations.append)
    report = run("loop_free_q.alg", "V", max_order=3)
    assert report.checks.hom_top_dim == 1 and report.checks.ext_top_dim == 1
    assert len(deltas) == 2
    assert [sum(m is delta for m in eliminations) for delta in deltas] == [1, 1]


def _elimination_calls_in_ladder_checks(n):
    """The built-in calls (dict lookups and copies, min, sorted, ...) made from
    linalg's frames while ladder_checks reads the top of k[x]/(x^n) over F_3.

    Its row operations (_subtract_multiple) are none: δ(top, V) has one
    nonzero per row and the top is projective.  What an elimination costs
    there is its visits to earlier pivot rows, which these calls count."""
    from defring import linalg
    from defring.classify import ladder_checks
    text = read_corpus("kx2_f5.alg").replace("field F 5", "field F 3")
    source = parse(text.replace("truncate 2", f"truncate {n}"), "kx.alg")
    v = Representation.from_module_def(PresentedAlgebra.from_source(source), source.modules["V"])
    search = ladder_search(v, max_order=n)
    assert search.kind == "terminated" and search.ladder.length == n - 1
    transcript = verify_ladder(search.ladder)
    calls = [0]

    def profile(frame, event, arg):
        if event == "c_call" and frame.f_code.co_filename == linalg.__file__:
            calls[0] += 1

    sys.setprofile(profile)
    try:
        checks = ladder_checks(search.ladder, transcript, v)
    finally:
        sys.setprofile(None)
    assert (checks.hom_top_dim, checks.ext_top_dim) == (1, 0)
    return calls[0]


def test_ladder_top_elimination_grows_linearly():
    # Gauss–Jordan visits every earlier pivot row for each new pivot, so its
    # work on the ladder top grows with the square of the ladder's length
    # (about 3.7x from x^80 to x^160); the forward pass visits only the rows
    # it reduces against
    assert _elimination_calls_in_ladder_checks(160) <= 2.5 * _elimination_calls_in_ladder_checks(80)


class _FrozenRow(dict):
    """A Matrix row whose every in-place change raises."""

    def _refuse(self, *args, **kwargs):
        raise TypeError("a row held by a Matrix was changed")

    __setitem__ = __delitem__ = update = pop = popitem = setdefault = clear = __ior__ = _refuse


def test_no_matrix_row_is_changed_after_construction(monkeypatch):
    # results share row dicts with their operands (a product's unit row is a
    # row of the other factor), so a row changed in place would change every
    # matrix that holds it: here every row a Matrix holds is frozen, and every
    # dict a Matrix was built from must still equal the row it gave
    from defring.linalg import Matrix
    given_rows = []
    init = Matrix.__init__

    def frozen_init(self, field, nrows, ncols, rows):
        held = []
        for row in rows:
            if type(row) is not _FrozenRow:
                frozen = _FrozenRow(row)
                given_rows.append((row, frozen))
                row = frozen
            held.append(row)
        init(self, field, nrows, ncols, held)

    monkeypatch.setattr(Matrix, "__init__", frozen_init)
    kx40 = read_corpus("kx2_f5.alg").replace("field F 5", "field F 3").replace("truncate 2",
                                                                               "truncate 40")
    cases = [(read_corpus(name), module, None) for name, module in CORPUS_MODULES]
    cases += [(kx40, "V", 40), (read_corpus("kronecker_q.alg"), "M11", 20)]
    for text, module, max_order in cases:
        config = ClassifyConfig(max_order=max_order) if max_order else None
        report = classify(parse(text), module, config)
        assert verify_report(text, module, serialize_report(report)).ok, module
    assert given_rows and all(row == frozen for row, frozen in given_rows)


def _builds_per_pair(calls):
    """How often hom_equations(M, N) was built for each pair, in first-call order."""
    per_pair = {}
    for m, n in calls:
        per_pair[id(m), id(n)] = per_pair.get((id(m), id(n)), 0) + 1
    return list(per_pair.values())


def test_hom_equations_are_built_once_per_pair(monkeypatch):
    # hereditary: δ = hom_equations(M, N) serves both Hom(M, N) and the
    # coboundaries, for (V, V) in the tangent space and (top, V) in
    # hom_top_dim and ext_top_dim
    import defring.rep
    from defring.lift import as_representation
    calls = _count_calls(monkeypatch, defring.rep, "hom_equations")
    report = run("loop_free_q.alg", "V")
    top = as_representation(report.ladder.top)

    def pairs():
        (v, same), (upper, lower) = calls[0], calls[-1]
        return same is v and upper == top and lower is v, _builds_per_pair(calls)

    assert pairs() == (True, [1, 1])
    calls.clear()
    assert verify_report(read_corpus("loop_free_q.alg"), "V", serialize_report(report)).ok
    assert pairs() == (True, [1, 1])


def test_truncated_classify_builds_each_hom_equations_once(monkeypatch):
    # (V, V) serves the coboundaries and the stable endomorphisms
    import defring.rep
    calls = _count_calls(monkeypatch, defring.rep, "hom_equations")
    report = run("kx3_f5.alg", "V")
    assert report.verdict.type == "finite"
    assert set(_builds_per_pair(calls)) == {1}
    calls.clear()
    assert verify_report(read_corpus("kx3_f5.alg"), "V", serialize_report(report)).ok
    assert set(_builds_per_pair(calls)) == {1}


def test_stable_note_solves_one_hom_per_top_vertex(monkeypatch):
    # P⊕S over k<x,y>/J^3 has the cover P(V) = Λ²: the note solves Hom(V, Λ)
    # once, and counts dim End(V) off the coboundaries instead of solving δ(V, V)
    import defring.rep

    def mat(ones):  # the 8x8 matrix with a 1 at each (row, column) of ones
        rows = [[0] * 8 for _ in range(8)]
        for r, c in ones:
            rows[r][c] = 1
        return "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in rows) + "]"

    source = parse("field F 5\nquiver\n  vertex v\n  arrow x: v -> v\n  arrow y: v -> v\n"
                   "truncate 3\n\nmodule PS\n  dim v = 8\n"
                   f"  mat x = {mat([(1, 0), (3, 1), (5, 2)])}\n"
                   f"  mat y = {mat([(2, 0), (4, 1), (6, 2)])}\n")
    algebra = PresentedAlgebra.from_source(source)
    v = Representation.from_module_def(algebra, source.modules["PS"])
    projective = algebra.left_projective("v")
    assert v == direct_sum(projective, Representation(algebra, {"v": 1}, {}))
    cover = projective_cover(v)[0]
    assert cover.dims == {"v": 2 * projective.dims["v"]}
    deltas = []
    build = defring.rep.hom_equations

    def recording(m, n):
        out = build(m, n)
        if m == v and n == v:
            deltas.append(out[1])
        return out

    monkeypatch.setattr(defring.rep, "hom_equations", recording)
    homs = _count_calls(monkeypatch, defring.rep, "hom_basis")
    kernels = _count_calls(monkeypatch, defring.rep, "kernel_basis")
    report = classify(source, "PS")
    assert ("stable endomorphism dimension: 1 (advisory: the one-dimensional case, "
            "weak and full deformations agree)") in report.notes
    assert len(deltas) == 1
    assert [n == projective for _, n, *_ in homs].count(True) == 1
    assert not any(n == cover for _, n, *_ in homs)
    assert not any(args[0] is deltas[0] for args in kernels)


def _truncated_loop(n):
    return (f"field F 3\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate {n}\n\n"
            "module V\n  dim v = 1\n  mat x = [[0]]\n")


def test_matrix_products_grow_about_linearly_with_the_ladder(monkeypatch):
    # classify plus verify_report of the simple module of k[x]/(x^n) over F_3;
    # a ladder that re-expands every path from degree 0 at every order makes
    # 3.8x the products at n = 40 that it makes at n = 20
    import defring.linalg
    original = defring.linalg.Matrix.__mul__
    calls = []

    def counting(a, b):
        calls.append(None)
        return original(a, b)

    monkeypatch.setattr(defring.linalg.Matrix, "__mul__", counting)
    products = {}
    for n in (20, 40):
        calls.clear()
        text = _truncated_loop(n)
        report = classify(parse(text), "V", ClassifyConfig(max_order=n))
        assert (report.verdict.type, report.verdict.n) == ("finite", n - 1)
        assert verify_report(text, "V", serialize_report(report)).ok
        products[n] = len(calls)
    assert products[40] <= 2.5 * products[20], products


@pytest.mark.parametrize("name,module", [("kx3_f5.alg", "V"), ("a2_f5.alg", "P1"),
                                         ("kx2_f5.alg", "PV")])
def test_classify_and_verify_leave_no_reference_cycles(name, module):
    # what one run builds (algebra, projectives, lifts and their series) is
    # freed by reference counting alone, not left for the cycle collector
    import gc
    text = read_corpus(name)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        blob = serialize_report(classify(parse(text), module))
        assert verify_report(text, module, blob).ok
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_classify_command_builds_one_algebra(monkeypatch, capsys):
    # the CLI checks the module through classify's loader, on classify's algebra
    from defring.cli import main
    built = _count_calls(monkeypatch, PresentedAlgebra, "__init__")
    assert main(["classify", str(CORPUS / "kx3_f5.alg"), "-m", "V"]) == 0
    assert "verdict: R^w ≅ k[[t]]/(t^3) (proved)" in capsys.readouterr().out
    assert len(built) == 1


def test_classify_raises_the_command_line_messages():
    # classify and the CLI share load_module, so both name the file's modules
    with pytest.raises(ValueError, match=r"^no module named 'nosuch' \(file has: P1, PV, V, VV\)$"):
        classify(load_source("kx2_f5.alg"), "nosuch")
    source = parse(read_corpus("kx3_f5.alg").replace("mat x = [[0]]", "mat x = [[1]]"))
    with pytest.raises(ValueError, match=r"^module 'V' violates relations: x\*x\*x$"):
        classify(source, "V")


# each other presentation of a corpus algebra must give the corpus module's verdict
@pytest.mark.parametrize("relation,truncate,name", SECOND_PRESENTATIONS)
def test_second_presentation_keeps_the_verdict(relation, truncate, name):
    text = second_presentation(relation, truncate)
    report = classify(parse(text), "V", ClassifyConfig(max_order=12))
    expected = run(name, "V", max_order=12)
    assert (report.verdict, report.tangent_dim) == (expected.verdict, expected.tangent_dim)
    assert verify_report(text, "V", serialize_report(report)).ok


# the same path algebras kQ presented with and without a truncation bound that
# kills no path (neither quiver has a path of length 2): the bound materialises
# a basis but adds no ideal generator, so no chain obstructs either way
UNKILLING_TRUNCATIONS = [(f"kronecker_{k}.alg", bound) for k in ("f2", "f3", "q")
                         for bound in (2, 3)] + [("a2_f5.alg", None)]


@pytest.mark.parametrize("name,bound", UNKILLING_TRUNCATIONS)
def test_truncation_that_kills_no_path_keeps_the_verdict(name, bound):
    text = retruncated(name, bound)
    source = parse(text)
    assert source.truncate == bound and not PresentedAlgebra.from_source(source).generating_relations()
    for module in sorted(source.modules):
        report = classify(source, module, ClassifyConfig(max_order=12))
        expected = run(name, module, max_order=12)
        assert (report.verdict, report.tangent_dim) == (expected.verdict, expected.tangent_dim)
        assert verify_report(text, module, serialize_report(report)).ok
    ours, corpus = text_modules(text), text_modules(read_corpus(name))
    for m, n in itertools.product(sorted(source.modules), repeat=2):
        assert ext1_dim(ours[m], ours[n], "all") == ext1_dim(corpus[m], corpus[n], "all"), (m, n)


CORPUS_MODULES = [(path.name, module) for path in sorted(CORPUS.glob("*.alg"))
                  for module in sorted(load_source(path.name).modules)]
NAMES = ["p", "q", "r", "s", "t0", "u_1", "Z", "ab", "vertex_", "e"]


@st.composite
def renamed(draw, src):
    """src with its vertices and arrows renamed and their declarations
    permuted, re-read through print_source."""
    from defring.dsl import ModuleDef, Relation, SourceFile, print_source
    from defring.quiver import Arrow, Path, Quiver

    old_vertices, old_arrows = src.quiver.vertices, src.quiver.arrows
    names = draw(st.permutations(NAMES))
    vertex = dict(zip(old_vertices, names))
    arrow_name = dict(zip((a.name for a in old_arrows), names[len(old_vertices):]))
    arrow = {a.name: Arrow(arrow_name[a.name], vertex[a.source], vertex[a.target])
             for a in old_arrows}
    quiver = Quiver([vertex[v] for v in draw(st.permutations(old_vertices))],
                    [arrow[a.name] for a in draw(st.permutations(old_arrows))])
    relations = [Relation(tuple((c, Path(tuple(arrow[a.name] for a in p.arrows),
                                         vertex[p.source], vertex[p.target]))
                                for c, p in rel.terms), vertex[rel.source], vertex[rel.target])
                 for rel in src.relations]
    modules = {m: ModuleDef(m, {vertex[v]: d for v, d in mod.dims.items()},
                            {arrow_name[a]: x for a, x in mod.mats.items()})
               for m, mod in src.modules.items()}
    return parse(print_source(SourceFile(src.field, quiver, src.truncate, relations, modules)))


@pytest.mark.parametrize("name,module", CORPUS_MODULES)
def test_verdicts_do_not_depend_on_names_or_declaration_order(name, module):
    # the input digests differ, so only the verdict and the tangent dimension are compared
    expected = run(name, module, max_order=12)

    @settings(max_examples=12, deadline=None)
    @given(renamed(load_source(name)))
    def check(source):
        report = classify(source, module, ClassifyConfig(max_order=12))
        assert (report.verdict, report.tangent_dim) == (expected.verdict, expected.tangent_dim)

    check()


def _reprinted(src, **changes):
    """src with the changed fields, re-read through print_source."""
    from defring.dsl import print_source
    return parse(print_source(dataclasses.replace(src, **changes)))


def _field_values(field, nonzero=False):
    """Field values to draw: the residues over F_p, small fractions over Q."""
    if field.p:
        return st.integers(1 if nonzero else 0, field.p - 1)
    values = st.fractions(-3, 3, max_denominator=3)
    return values.filter(bool) if nonzero else values


def _invertible(draw, field, d):
    """A drawn invertible d x d matrix: rows of L·U permuted, L unit lower and
    U upper triangular with a nonzero diagonal."""
    from defring.linalg import Matrix
    lower = Matrix.from_rows(field, [[draw(_field_values(field)) if j < i else int(i == j)
                                      for j in range(d)] for i in range(d)])
    upper = Matrix.from_rows(field, [[draw(_field_values(field, nonzero=i == j)) if j >= i else 0
                                      for j in range(d)] for i in range(d)])
    product = lower * upper
    return Matrix(field, d, d, [product.rows[i] for i in draw(st.permutations(range(d)))])


@st.composite
def conjugated(draw, src, module):
    """src with the module's matrices conjugated by a drawn invertible matrix
    T_v at each vertex: T_t·M_a·T_s⁻¹ for a: s -> t."""
    from defring.dsl import ModuleDef
    from defring.linalg import Matrix, solve_matrix
    field, mod = src.field, src.modules[module]
    ts = {v: _invertible(draw, field, d) for v, d in mod.dims.items()}
    inverses = {v: solve_matrix(t, Matrix.identity(field, t.nrows)) for v, t in ts.items()}
    mats = {a.name: ts[a.target] * mod.mats[a.name] * inverses[a.source] for a in src.quiver.arrows}
    return _reprinted(src, modules={**src.modules, module: ModuleDef(module, mod.dims, mats)})


@pytest.mark.parametrize("name,module", CORPUS_MODULES)
def test_verdicts_do_not_depend_on_a_change_of_basis(name, module):
    expected = run(name, module, max_order=12)

    @settings(max_examples=8, deadline=None)
    @given(conjugated(load_source(name), module))
    def check(source):
        report = classify(source, module, ClassifyConfig(max_order=12))
        assert (report.verdict, report.tangent_dim) == (expected.verdict, expected.tangent_dim)

    check()


# Λ = k[x]/(x^3), y = x^2 (a finite and an inconclusive verdict), and a skew
# algebra: each has two relations from v to v, whose combinations are rewrites
TWO_RELATIONS = {
    label: (f"field {field}\nquiver\n  vertex v\n  arrow x: v -> v\n  arrow y: v -> v\n"
            f"truncate 4\nrelations\n  {relations}\nmodule S\n  dim v = 1\n  mat x = [[0]]\n"
            "  mat y = [[0]]\nmodule T\n  dim v = 2\n  mat x = [[0,0],[1,0]]\n  mat y = [[0,0],[0,0]]\n")
    for label, field, relations in (("x3_f5", "F 5", "y - x*x\n  x*x*x"),
                                    ("x3_q", "Q", "y - x*x\n  x*x*x"),
                                    ("skew_f5", "F 5", "x*y - 2*y*x\n  x*x - y*y"))}
RELATION_TEXTS = {**{name: read_corpus(name) for name in ("kx2_rel_f5.alg", "parallel_rel_f3.alg")},
                  **TWO_RELATIONS}


@st.composite
def relation_scaled(draw, src):
    """src with one relation multiplied by a drawn c != 0."""
    from defring.dsl import Relation
    i, c = draw(st.integers(0, len(src.relations) - 1)), draw(_field_values(src.field, True))
    rel = src.relations[i]
    scaled = Relation(tuple((src.field.scalar(c * coeff), path) for coeff, path in rel.terms),
                      rel.source, rel.target)
    return _reprinted(src, relations=src.relations[:i] + [scaled] + src.relations[i + 1:])


@st.composite
def relation_added(draw, src):
    """src with c times one relation added to another between the same vertices."""
    from defring.dsl import Relation
    pairs = [(i, j) for i, ri in enumerate(src.relations) for j, rj in enumerate(src.relations)
             if i != j and (ri.source, ri.target) == (rj.source, rj.target)]
    (i, j), c = draw(st.sampled_from(pairs)), draw(_field_values(src.field, True))
    rel, terms = src.relations[i], {path: coeff for coeff, path in src.relations[i].terms}
    for coeff, path in src.relations[j].terms:
        terms[path] = src.field.scalar(terms.get(path, 0) + c * coeff)
    added = Relation(tuple((coeff, path) for path, coeff in terms.items() if coeff),
                     rel.source, rel.target)
    return _reprinted(src, relations=src.relations[:i] + [added] + src.relations[i + 1:])


@pytest.mark.parametrize("label,rewritten", [(label, relation_scaled) for label in RELATION_TEXTS]
                         + [(label, relation_added) for label in TWO_RELATIONS])
def test_verdicts_do_not_depend_on_the_generating_relations(label, rewritten):
    # another generating set of the same ideal: one relation scaled, or a
    # multiple of one added to another
    src = parse(RELATION_TEXTS[label])
    expected = {m: classify(src, m, ClassifyConfig(max_order=12)) for m in src.modules}

    @settings(max_examples=8, deadline=None)
    @given(rewritten(src))
    def check(source):
        for m, report in expected.items():
            ours = classify(source, m, ClassifyConfig(max_order=12))
            assert (ours.verdict, ours.tangent_dim) == (report.verdict, report.tangent_dim), m

    check()
