import json

import pytest

from defring import (ClassifyConfig, DeformationSystem, classify, serialize_report,
                     verify_report)
from defring.cli import main
from helpers import CORPUS, load_source, read_corpus


def report_for(name, module, **kw):
    src = load_source(name)
    cfg = ClassifyConfig(**kw) if kw else None
    return serialize_report(classify(src, module, cfg))


@pytest.mark.parametrize(
    "name,module",
    [
        ("kx2_f5.alg", "V"),
        ("kx3_q.alg", "V"),
        ("kx2_f5.alg", "P1"),
        ("kx2_f5.alg", "VV"),
        ("kx2_f5.alg", "PV"),
        ("loop_free_f2.alg", "V"),
        ("kronecker_q.alg", "M11"),
    ],
)
def test_reports_verify_against_their_input(name, module):
    blob = report_for(name, module)
    result = verify_report(read_corpus(name), module, blob, name)
    assert result.ok, result.summary()
    assert not result.failures
    assert any(line.startswith("input_digest: ok") for line in result.lines)


def test_unproved_power_series_verifies():
    blob = report_for("kx4_f5.alg", "V", max_order=2)
    result = verify_report(read_corpus("kx4_f5.alg"), "V", blob)
    assert result.ok, result.summary()


def _tampered(blob, path, value):
    data = json.loads(blob)
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return json.dumps(data)


def test_rejects_tampered_digest():
    blob = report_for("kx2_f5.alg", "V")
    bad = _tampered(blob, ["input_digest"], "0" * 64)
    result = verify_report(read_corpus("kx2_f5.alg"), "V", bad)
    assert not result.ok
    assert "input_digest" in result.failures


def test_replacing_witness_with_another_valid_one_still_verifies():
    # certificates pin the claim, not the particular witness: 2t is as good
    # a nontrivial first-order lift as t over F_5
    blob = report_for("kx2_f5.alg", "V")
    other = _tampered(blob, ["ladder", 0, "matrices", "x"], [["2"]])
    assert verify_report(read_corpus("kx2_f5.alg"), "V", other).ok


def test_rejects_trivialized_ladder_matrix():
    blob = report_for("kx2_f5.alg", "V")
    bad = _tampered(blob, ["ladder", 0, "matrices", "x"], [["0"]])
    result = verify_report(read_corpus("kx2_f5.alg"), "V", bad)
    assert not result.ok


def test_rejects_padded_ladder():
    # appending a fake rung both breaks the length claim and fails the
    # replayed residual checks, since x^2 = 0 obstructs order 2
    blob = report_for("kx2_f5.alg", "V")
    data = json.loads(blob)
    data["ladder"].append({"order": 2, "matrices": {"x": [["0"]]}})
    result = verify_report(read_corpus("kx2_f5.alg"), "V", json.dumps(data))
    assert not result.ok


def test_rejects_inflated_order_claim():
    blob = report_for("kx2_f5.alg", "V")
    bad = _tampered(blob, ["verdict", "N"], 2)
    result = verify_report(read_corpus("kx2_f5.alg"), "V", bad)
    assert not result.ok


def test_rejects_wrong_verdict_type():
    # the PV chain terminates but fails the hom side condition; claiming
    # finite for it must fail against the recomputed verdict
    blob = report_for("kx2_f5.alg", "PV")
    data = json.loads(blob)
    data["verdict"] = {"type": "finite", "N": len(data["ladder"]), "proved": True}
    result = verify_report(read_corpus("kx2_f5.alg"), "PV", json.dumps(data))
    assert not result.ok
    assert result.failures == ["verdict_matches"]


def test_padded_inconclusive_report_stops_before_the_top_side_conditions(monkeypatch):
    # PV's chain obstructs at order 2, so a zero rung of order 2 leaves the
    # degree-2 residual in place: the top rung is not a module, and verify
    # must say so before it builds DeformationSystem(top, V) for Hom and Ext
    data = json.loads(report_for("kx2_f5.alg", "PV"))
    assert data["verdict"] == {"type": "inconclusive"} and len(data["ladder"]) == 1
    data["ladder"].append({"order": 2, "matrices": {"x": [["0"] * 3] * 3}})
    built = []
    init = DeformationSystem.__init__

    def spy(self, m, n):
        built.append(m.dims)
        init(self, m, n)

    monkeypatch.setattr(DeformationSystem, "__init__", spy)
    result = verify_report(read_corpus("kx2_f5.alg"), "PV", json.dumps(data))
    assert result.failures == ["top_satisfies_relations"]
    assert result.lines[-1].startswith("top_satisfies_relations: FAILED")
    # the top of order 2 is k[t]/(t^3) ⊗ PV, three blocks of PV's dimension 3
    assert built and {"v": 9} not in built


def test_rejects_wrong_module():
    blob = report_for("kx2_f5.alg", "V")
    result = verify_report(read_corpus("kx2_f5.alg"), "P1", blob)
    assert not result.ok


def test_rejects_missing_module():
    blob = report_for("kx2_f5.alg", "V")
    result = verify_report(read_corpus("kx2_f5.alg"), "nope", blob)
    assert not result.ok
    assert "module_exists" in result.failures


def test_module_violating_relations_ends_verification():
    # x = 1 breaks x^3 = 0; its projective cover and Yoneda maps do not exist
    blob = report_for("kx3_f5.alg", "V")
    bad = read_corpus("kx3_f5.alg").replace("mat x = [[0]]", "mat x = [[1]]")
    result = verify_report(bad, "V", blob)
    assert not result.ok
    assert result.failures[-1] == "module_satisfies_relations"
    assert result.lines[-1].startswith("module_satisfies_relations: FAILED")


def test_rejects_report_against_different_source():
    blob = report_for("kx2_f5.alg", "V")
    result = verify_report(read_corpus("kx3_f5.alg"), "V", blob)
    assert not result.ok


def test_summary_shape():
    blob = report_for("kx2_f5.alg", "V")
    result = verify_report(read_corpus("kx2_f5.alg"), "V", blob)
    summary = result.summary()
    assert "ok" in summary
    assert all(": " in line for line in result.lines)


@pytest.mark.parametrize(
    "make_body",
    [
        lambda blob: "[]",
        lambda blob: '{"verdict": 3}',
        lambda blob: "not json",
        lambda blob: "[" * 100000,
        lambda blob: _tampered(blob, ["checks"], [1]),
        lambda blob: _tampered(blob, ["ladder"], {"order": 1}),
        lambda blob: _tampered(blob, ["verdict", "proved"], "yes"),
        lambda blob: json.dumps({k: v for k, v in json.loads(blob).items() if k != "notes"}),
        lambda blob: _tampered(blob, ["notes"], 7),
        lambda blob: _tampered(blob, ["notes"], [{"x": 1}]),
    ],
    ids=["list", "verdict-int", "not-json", "deep-nesting", "checks-list", "ladder-object", "proved-string",
         "notes-missing", "notes-int", "notes-objects"],
)
def test_malformed_report_fails_shape_check(make_body):
    body = make_body(report_for("kx2_f5.alg", "V"))
    result = verify_report(read_corpus("kx2_f5.alg"), "V", body)
    assert not result.ok
    assert result.failures == ["report_shape"]


def test_malformed_ladder_entries_fail_to_parse():
    blob = report_for("kx3_q.alg", "V")
    for path, value in ((["ladder", 0], 7),
                        (["ladder", 0, "matrices"], [1]),
                        (["ladder", 0, "matrices", "x"], 5),
                        (["ladder", 0, "matrices", "x"], [[1]]),
                        (["ladder", 0, "matrices", "x"], [["1/0"]])):
        result = verify_report(read_corpus("kx3_q.alg"), "V", _tampered(blob, path, value))
        assert "ladder_parses" in result.failures, (path, value)


@pytest.mark.parametrize("name,literal", [("kx3_f5.alg", " 1"), ("kx3_f5.alg", "\u0661"),
                                          ("kx3_f5.alg", "1_0"), ("kx3_f5.alg", "+1"),
                                          ("kx3_f5.alg", "6"), ("kx3_q.alg", "2/4")],
                         ids=["space", "arabic-indic-one", "underscore", "plus", "unreduced-residue",
                              "unreduced-fraction"])
def test_ladder_entries_that_are_not_canonical_literals_fail_to_parse(name, literal):
    # each reads as a field value, but classify writes none of them
    bad = _tampered(report_for(name, "V"), ["ladder", 0, "matrices", "x"], [[literal]])
    result = verify_report(read_corpus(name), "V", bad)
    assert result.failures == ["ladder_parses"]
    assert any(repr(literal) in line for line in result.lines), result.lines


@pytest.mark.parametrize("earlier,literal", [("1", "01"), ("1/2", "2/4"), ("0", "-0"), ("1", " 1"),
                                             ("1", 1), ("01", "01")],
                         ids=["leading-zero", "unreduced-fraction", "minus-zero", "space",
                              "json-number", "repeated"])
def test_repeated_non_canonical_literals_fail_to_parse(earlier, literal):
    # verify reads each distinct entry text once: a canonical text of the same
    # value, or the same bad text, earlier in the report must not let it through
    blob = json.loads(report_for("kx3_q.alg", "V"))
    assert [entry["order"] for entry in blob["ladder"]] == [1, 2]
    blob["notes"].insert(0, str(literal))
    blob["ladder"][0]["matrices"]["x"] = [[earlier]]
    blob["ladder"][1]["matrices"]["x"] = [[literal]]
    result = verify_report(read_corpus("kx3_q.alg"), "V", json.dumps(blob))
    assert result.failures == ["ladder_parses"]
    assert any(repr(literal) in line for line in result.lines), result.lines


@pytest.mark.parametrize("value", [1, [["1"]], [[]]], ids=["int", "matrix", "empty"])
def test_ladder_entries_naming_an_unknown_arrow_fail_to_parse(value):
    blob = report_for("kx3_f5.alg", "V")
    for entry in range(len(json.loads(blob)["ladder"])):
        bad = _tampered(blob, ["ladder", entry, "matrices", "extra"], value)
        result = verify_report(read_corpus("kx3_f5.alg"), "V", bad)
        assert not result.ok
        assert result.failures == ["ladder_parses"]
        assert any("unknown arrow extra" in line for line in result.lines)


def test_verify_cli_rejects_malformed_report(tmp_path, capsys):
    for body in ("[]", '{"verdict": 3}'):
        path = tmp_path / "report.json"
        path.write_text(body)
        code = main(["verify", str(CORPUS / "kx2_f5.alg"), "-m", "V", "--json", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "report_shape: FAILED" in out


def test_rejects_finite_relabelled_as_unproved_power_series():
    blob = report_for("kx3_f5.alg", "V")
    bad = _tampered(blob, ["verdict"],
                    {"type": "power_series", "proved": False, "max_order_checked": 99})
    result = verify_report(read_corpus("kx3_f5.alg"), "V", bad)
    assert not result.ok
    assert result.failures == ["verdict_matches"]


def test_rejects_proved_finite_over_rationals():
    blob = report_for("kx3_q.alg", "V")
    bad = _tampered(blob, ["verdict", "proved"], True)
    result = verify_report(read_corpus("kx3_q.alg"), "V", bad)
    assert not result.ok
    assert result.failures == ["verdict_matches"]
    # and the converse: an unproved finite verdict over F_p does not verify either
    blob = report_for("kx3_f5.alg", "V")
    bad = _tampered(blob, ["verdict", "proved"], False)
    assert verify_report(read_corpus("kx3_f5.alg"), "V", bad).failures == ["verdict_matches"]


@pytest.mark.parametrize(
    "path,value,failure",
    [
        (["ladder", 0, "order"], True, "ladder_parses"),
        (["ladder", 1, "order"], 2.0, "ladder_parses"),
        (["tangent_dim"], True, "tangent_dim"),
        (["checks", "hom_top_dim"], True, "hom_top_dim_matches"),
        (["checks", "ext_top_dim"], False, "ext_top_dim_matches"),
        (["checks", "sigma_nilpotent"], 1, "sigma_nilpotent_matches"),
        (["checks", "first_order_nontrivial"], 1.0, "first_order_nontrivial_matches"),
    ],
    ids=["order-true", "order-float", "tangent-true", "hom-true", "ext-false",
         "sigma-int", "nontrivial-float"],
)
def test_rejects_values_equal_only_across_types(path, value, failure):
    # JSON true == 1 and 2.0 == 2 in Python; the claim must match in type too
    blob = report_for("kx3_f5.alg", "V")
    result = verify_report(read_corpus("kx3_f5.alg"), "V", _tampered(blob, path, value))
    assert not result.ok
    assert failure in result.failures


@pytest.mark.parametrize(
    "name,module,forge,failure",
    [
        ("a2_f5.alg", "S1", lambda d: d["verdict"].update(N=5, proved=True), "report_shape"),
        ("kx2_f5.alg", "VV", lambda d: d["verdict"].update(proved=True, N=2), "report_shape"),
        ("kx2_f5.alg", "PV", lambda d: d["verdict"].update(proved=True, N=2), "report_shape"),
        ("kx3_f5.alg", "V", lambda d: d["verdict"].update(max_order_checked=99), "report_shape"),
        ("loop_free_f2.alg", "V", lambda d: d["verdict"].update(N=3), "report_shape"),
        ("a2_f5.alg", "S1", lambda d: d["checks"].update(hom_top_dim=7), "checks_null"),
        ("kx2_f5.alg", "VV", lambda d: d["checks"].update(sigma_nilpotent=True), "checks_null"),
        ("kx3_f5.alg", "V", lambda d: d.update(extra=1), "report_shape"),
        ("kx3_f5.alg", "V", lambda d: d["checks"].update(extra=1), "report_shape"),
        ("kx3_f5.alg", "V", lambda d: d["field"].update(p=5.0), "field"),
    ],
    ids=["point-proved-N", "out-of-scope-proved-N", "inconclusive-proved-N",
         "finite-max-order", "proved-power-series-N", "point-hom-top", "out-of-scope-sigma",
         "extra-key", "extra-check", "field-p-float"],
)
def test_rejects_claims_it_does_not_check(name, module, forge, failure):
    data = json.loads(report_for(name, module))
    forge(data)
    result = verify_report(read_corpus(name), module, json.dumps(data))
    assert not result.ok
    assert result.failures == [failure]


@pytest.mark.parametrize("name,module", [("loop_free_f3.alg", "V"), ("kronecker_q.alg", "M11")])
@pytest.mark.parametrize(
    "verdict",
    [{"type": "inconclusive"},
     {"type": "power_series", "proved": False, "max_order_checked": 10}],
    ids=["inconclusive", "unproved-power-series"],
)
def test_rejects_relation_free_power_series_relabelled(name, module, verdict):
    # without relations nothing obstructs, so the one verdict is a proved k[[t]]
    bad = _tampered(report_for(name, module), ["verdict"], verdict)
    result = verify_report(read_corpus(name), module, bad)
    assert result.failures == ["verdict_matches"]
    assert 'verdict_matches: FAILED (recomputed {"type": "power_series", "proved": true})' \
        in result.lines


def test_rejects_inconclusive_claim_for_a_chain_that_extends():
    # the order-1 ladder of k[x]/(x^3) extends to order 2, so it did not terminate
    bad = _tampered(report_for("kx3_f5.alg", "V", max_order=1), ["verdict"],
                    {"type": "inconclusive"})
    result = verify_report(read_corpus("kx3_f5.alg"), "V", bad)
    assert result.failures == ["chain_obstructs"]
    assert "chain_obstructs: FAILED (the order-2 step is feasible)" in result.lines


GRID_REPORTS = [("a2_f5.alg", "S1", 10), ("kx2_f5.alg", "VV", 10), ("kx3_f5.alg", "V", 1),
                ("kx3_f5.alg", "V", 2), ("kx3_f5.alg", "V", 10), ("kx3_q.alg", "V", 10),
                ("kx2_f5.alg", "PV", 1), ("kx2_f5.alg", "PV", 10), ("loop_free_f3.alg", "V", 10)]
GRID_VERDICTS = (
    [{"type": kind} for kind in ("point", "out_of_scope", "inconclusive")]
    + [{"type": "finite", "N": n, "proved": proved} for n in (1, 2, 10) for proved in (True, False)]
    + [{"type": "power_series", "proved": True}]
    + [{"type": "power_series", "proved": False, "max_order_checked": m} for m in (1, 2, 10)])


@pytest.mark.parametrize("name,module,max_order", GRID_REPORTS)
def test_verify_accepts_exactly_the_verdicts_classify_writes(name, module, max_order):
    # classify at some max_order writes a verdict for this ladder exactly when
    # verify accepts that verdict on a report with this ladder
    blob = report_for(name, module, max_order=max_order)
    ladder = json.loads(blob)["ladder"]
    written = []
    for m in range(1, 13):
        data = json.loads(report_for(name, module, max_order=m))
        if data["ladder"] == ladder:
            written.append(data["verdict"])
    accepted = [v for v in GRID_VERDICTS
                if verify_report(read_corpus(name), module, _tampered(blob, ["verdict"], v)).ok]
    assert written and all(v in GRID_VERDICTS for v in written)
    assert sorted(map(json.dumps, accepted)) == sorted(set(map(json.dumps, written)))
