"""Re-verification of classification reports from the input file alone.

A report is a certificate: the ladder coefficients plus the claimed
checks.  Verification reparses the input, rebuilds the ladder's top lift
from the serialized coefficients, and replays every check with no state
carried over from the run that produced the report.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

from .algebra import PresentedAlgebra
from .classify import Checks, decide, ladder_checks, source_digest, tangent_dimension
from .dsl import field_to_json, parse, verdict_to_json
from .fields import format_scalar
from .lift import Ladder, Lift, Obstruction, extend_step, validate, verify_ladder
from .linalg import Matrix
from .rep import Representation


@dataclass
class VerificationResult:
    ok: bool
    failures: list
    lines: list

    def summary(self) -> str:
        head = "certificate verifies" if self.ok else "certificate FAILS"
        return "\n".join([head] + [f"  {line}" for line in self.lines])


REPORT_KEYS = {"input_digest", "field", "tangent_dim", "verdict", "ladder", "checks", "notes"}
CHECK_KEYS = {f.name for f in fields(Checks)}
# the keys of a verdict of each type; an unproved power_series adds max_order_checked
VERDICT_KEYS = {"point": {"type"}, "out_of_scope": {"type"}, "inconclusive": {"type"},
                "finite": {"type", "N", "proved"}, "power_series": {"type", "proved"}}


def _shape_problem(report) -> str | None:
    """Why a decoded report cannot be read field by field, or None.  A key
    that no report of its kind carries would be a claim nothing checks."""
    if not isinstance(report, dict):
        return f"report is a {type(report).__name__}, not an object"
    if not set(report) <= REPORT_KEYS:
        return f"unknown keys {sorted(set(report) - REPORT_KEYS)}"
    if set(report) != REPORT_KEYS:
        return f"missing keys {sorted(REPORT_KEYS - set(report))}"
    for key, kind, name in (("verdict", dict, "an object"), ("checks", dict, "an object"),
                            ("ladder", list, "a list"), ("notes", list, "a list")):
        if not isinstance(report[key], kind):
            return f"{key} is not {name}"
    if not all(isinstance(note, str) for note in report["notes"]):
        return "notes holds a value that is not a string"
    if set(report["checks"]) != CHECK_KEYS:
        return f"checks has keys {sorted(report['checks'])}, not {sorted(CHECK_KEYS)}"
    verdict = report["verdict"]
    if not isinstance(verdict.get("proved", False), bool):
        return "verdict.proved is not a boolean"
    for key in ("N", "max_order_checked"):
        if key in verdict and type(verdict[key]) is not int:
            return f"verdict.{key} is not an integer"
    vtype = verdict.get("type")
    keys = VERDICT_KEYS.get(vtype, set()) if isinstance(vtype, str) else set()
    if vtype == "power_series" and verdict.get("proved") is False:
        keys = keys | {"max_order_checked"}
    if keys and set(verdict) != keys:
        return f"a {vtype} verdict has the keys {sorted(keys)}, not {sorted(verdict)}"
    return None


def _same(claimed, recomputed) -> bool:
    """Equal in type as well as value, inside objects too, so true never
    stands for 1, nor 1.0 for 1."""
    if isinstance(recomputed, dict):
        return (type(claimed) is dict and claimed.keys() == recomputed.keys()
                and all(_same(claimed[key], value) for key, value in recomputed.items()))
    return type(claimed) is type(recomputed) and claimed == recomputed


def _parse_entry(field, x, literals: dict):
    """The value of a ladder entry, which must be written as classify writes
    it: the canonical literal of a field value.  literals maps the entries
    read so far to their values, so each distinct text is checked once."""
    if not isinstance(x, str):
        raise ValueError(f"ladder entry {x!r} is not a scalar literal")
    if x not in literals:
        canonical = format_scalar(value := field.parse_literal(x))
        if canonical != x:
            raise ValueError(f"ladder entry {x!r} is not the canonical literal {canonical!r}")
        literals[x] = value
    return literals[x]


def _ladder_from_json(base: Representation, entries: list) -> Ladder | None:
    if not entries:
        return None
    field = base.field
    coeffs = {a.name: [base.mats[a.name]] for a in base.algebra.quiver.arrows}
    literals = {}
    for expected_order, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict) or not isinstance(entry.get("matrices"), dict):
            raise ValueError(f"ladder entry {expected_order} is not an object with matrices")
        if not _same(entry.get("order"), expected_order):
            raise ValueError(f"ladder orders out of sequence at {entry.get('order')}")
        mats = entry["matrices"]
        unknown = sorted(set(mats) - set(coeffs))
        if unknown:
            raise ValueError(f"ladder entry {expected_order} names unknown arrow {unknown[0]}")
        for a in base.algebra.quiver.arrows:
            rows = mats.get(a.name)
            if rows is None:
                raise ValueError(f"ladder entry {expected_order} misses arrow {a.name}")
            dt, ds = base.dims[a.target], base.dims[a.source]
            if (not isinstance(rows, list) or len(rows) != dt
                    or any(not isinstance(r, list) or len(r) != ds for r in rows)):
                raise ValueError(f"ladder matrix shape mismatch for {a.name}")
            coeffs[a.name].append(Matrix(field, dt, ds, [
                {j: value for j, x in enumerate(r) if (value := _parse_entry(field, x, literals))}
                for r in rows]))
    return Ladder(Lift(base, len(entries), coeffs))


def verify_report(source_text: str, module_name: str, report_json: str,
                  filename: str = "<input>") -> VerificationResult:
    """Replay every check of a serialized report against its input."""
    failures = []
    lines = []

    def check(name: str, ok: bool, detail: str = ""):
        suffix = f" ({detail})" if detail else ""
        lines.append(f"{name}: {'ok' if ok else 'FAILED'}{suffix}")
        if not ok:
            failures.append(name)

    def verdict_matches(verdict):
        expected = verdict_to_json(verdict)
        check("verdict_matches", _same(report["verdict"], expected),
              "recomputed " + json.dumps(expected))

    try:
        report = json.loads(report_json)
        problem = _shape_problem(report)
    except (ValueError, RecursionError) as exc:
        problem = f"not readable JSON: {exc}"
    check("report_shape", problem is None, problem or "")
    if problem is not None:
        return VerificationResult(False, failures, lines)
    source = parse(source_text, filename)
    check("input_digest", report["input_digest"] == source_digest(source))
    check("field", _same(report["field"], field_to_json(source.field)))
    if module_name not in source.modules:
        check("module_exists", False, module_name)
        return VerificationResult(False, failures, lines)
    check("module_exists", True)

    algebra = PresentedAlgebra.from_source(source)
    base = Representation.from_module_def(algebra, source.modules[module_name])
    bad = validate(base)
    check("module_satisfies_relations", not bad, ", ".join(bad))
    if bad:
        # Ext of a non-module is meaningless, and its projective cover need not exist
        return VerificationResult(False, failures, lines)

    tangent = tangent_dimension(base)
    check("tangent_dim", _same(report["tangent_dim"], tangent),
          f"recomputed {tangent}")

    vtype = report["verdict"].get("type")
    ladder_entries = report["ladder"]
    checks = report["checks"]

    if tangent != 1:
        verdict_matches(decide(tangent))
        check("ladder_empty", not ladder_entries)
        check("checks_null", all(value is None for value in checks.values()))
        return VerificationResult(not failures, failures, lines)

    try:
        ladder = _ladder_from_json(base, ladder_entries)
    except ValueError as exc:
        check("ladder_parses", False, str(exc))
        return VerificationResult(False, failures, lines)
    check("ladder_parses", True)
    if ladder is None:
        check("ladder_present", False, "verdict needs a ladder certificate")
        return VerificationResult(False, failures, lines)

    transcript = verify_ladder(ladder)
    if vtype in ("finite", "power_series"):
        # these verdicts assert a passing certificate; replay every check
        for entry in transcript.checks:
            check(f"order {entry.order}: {entry.name}", entry.ok, entry.detail)
    else:
        passed = sum(1 for entry in transcript.checks if entry.ok)
        lines.append(f"ladder transcript: {passed}/{len(transcript.checks)} checks pass")

    # the top rung is a module exactly when its residuals of degrees 0..N
    # vanish, and the residuals_vanish checks are cumulative over them
    failing = [c.order for c in transcript.checks if c.name == "residuals_vanish" and not c.ok]
    check("top_satisfies_relations", not failing,
          f"the degree-{failing[0]} residual does not vanish" if failing else "")
    if failing:
        # hom/ext of a non-module are meaningless; everything downstream is void
        return VerificationResult(False, failures, lines)
    recomputed = ladder_checks(ladder, transcript, base)
    for key, value in asdict(recomputed).items():
        check(f"{key}_matches", _same(checks.get(key), value), f"recomputed {value}")

    # the search outcome the claim stands for, replayed where it is a fact of the chain
    if not algebra.generating_relations():
        kind = "unobstructed"  # as in ladder_search: no generators, nothing obstructs
    elif vtype == "power_series":
        kind = "reached_bound"
    else:
        kind = "terminated"
        step = extend_step(ladder.top)
        obstructs = isinstance(step, Obstruction)
        check("chain_obstructs", obstructs,
              f"rank {step.rank_coefficient} vs augmented rank {step.rank_augmented}" if obstructs
              else f"the order-{ladder.length + 1} step is feasible")
    verdict_matches(decide(tangent, kind, ladder, recomputed, transcript, source.field))
    return VerificationResult(not failures, failures, lines)
