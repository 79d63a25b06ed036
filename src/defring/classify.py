"""Classification of the weak universal deformation ring of a module.

The decision tree is driven by the tangent dimension dim Ext^1(V, V):
zero means the only deformation is trivial (the ring is k), two or more
puts the ring outside the single-parameter scope of this tool, and one
triggers the ladder search.  A search that terminates with the right
side conditions at the top yields k[[t]]/(t^(N+1)).  The path algebra kQ,
which has no ideal generators with or without a truncation bound, yields
k[[t]] proved; a search that never obstructs elsewhere yields it unproved.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field as dc_field

from .dsl import SourceFile, print_source
from .lift import (
    SHIFT_CHECKS,
    Ladder,
    LadderTranscript,
    Lift,
    Obstruction,
    as_representation,
    extend_step,
    validate,
    verify_ladder,
)
from .linalg import in_row_span
from .rep import Representation, deformation_system, ext1_dim, hom_dim, hom_stable


@dataclass
class ClassifyConfig:
    max_order: int = 10


def tangent_dimension(v: Representation) -> int:
    """dim Ext^1(V, V), cross-checked against the second applicable backend."""
    return ext1_dim(v, v, backend="all")


# ----------------------------------------------------------------------
# ladder search


def _require_max_order(max_order: int):
    if max_order < 1:
        raise ValueError(f"max_order must be at least 1, got {max_order}")


@dataclass
class SearchResult:
    kind: str  # terminated | reached_bound | unobstructed
    ladder: Ladder | None
    terminated_at: int | None = None
    obstruction: Obstruction | None = None
    notes: list = dc_field(default_factory=list)


def ladder_search(base: Representation, max_order: int = 10) -> SearchResult:
    """Grow one chain of lifts order by order up to max_order.

    One chain stands for all of them when the tangent dimension is one.
    The valid extensions of a lift L_n over k[t]/(t^(n+1)) form an affine
    space: a particular solution plus the cocycle space Z.  Conjugating
    by 1 + t^(n+1) C moves the new coefficient by a coboundary, and the
    reparametrisation t -> t + c t^(n+1) moves it by c B1, where B1 is
    the first-order class.  Since dim Z/B = 1 and B1 is not a coboundary,
    these two moves reach every extension, so all extensions of L_n are
    isomorphic up to reparametrisation; the seeds c B1 + b are related
    by t -> c t in the same way.  By induction every nontrivial chain is
    the same chain, so all of them obstruct at the same order, and the
    module at the top of the ladder does not depend on the choice.  With
    a larger tangent space the chain is one of many and stands for none
    of the others; classify() never searches there.

    The chain is seeded with the first cocycle basis vector that is not a
    coboundary and extended by the particular solution at each order.
    It stops at an obstruction (terminated) or at max_order (reached_bound,
    or unobstructed for an algebra with no ideal generators, whose extension
    system is empty and always feasible).  Every step solves the same equations, so
    the kernel of each feasible step is Z, and the notes list dim Z once per
    order of the chain.  Z, B and the step equations are those of
    deformation_system(base, base), which the tangent space reads too.
    """
    _require_max_order(max_order)
    system = deformation_system(base, base)
    cocycles = system.cocycles
    seed = next((vec for vec in cocycles if not in_row_span(system.coboundaries, vec)), None)
    if seed is None:
        return SearchResult("terminated", ladder=None, terminated_at=0,
                            notes=["no nonzero tangent class to seed a chain"])
    lift = Lift.first_order(base, system.layout.unpack(seed))
    obstruction = None
    while lift.order < max_order:
        step = extend_step(lift)
        if isinstance(step, Obstruction):
            obstruction = step
            break
        lift = step
    notes = [f"extension kernel dimensions per order: {[len(cocycles)] * lift.order}"]
    if obstruction is not None:
        kind = "terminated"
    elif not base.algebra.generating_relations():
        kind = "unobstructed"
        notes.insert(0, "no relations: the extension system is empty and always feasible")
    else:
        kind = "reached_bound"
    return SearchResult(kind, Ladder(lift),
                        terminated_at=lift.order if obstruction is not None else None,
                        obstruction=obstruction, notes=notes)


# ----------------------------------------------------------------------
# reports


@dataclass
class Verdict:
    type: str  # point | finite | power_series | inconclusive | out_of_scope
    n: int | None = None
    proved: bool | None = None
    max_order_checked: int | None = None
    reason: str | None = None


@dataclass
class Checks:
    hom_top_dim: int | None = None
    ext_top_dim: int | None = None
    sigma_nilpotent: bool | None = None
    first_order_nontrivial: bool | None = None


@dataclass
class ClassificationReport:
    input_digest: str
    field: object
    module_name: str
    tangent_dim: int
    verdict: Verdict
    ladder: Ladder | None
    checks: Checks
    notes: list


def source_digest(source: SourceFile) -> str:
    """Digest of the canonical printing, stable under comments and spacing."""
    return hashlib.sha256(print_source(source).encode("utf-8")).hexdigest()


def stable_end_note(v: Representation) -> str:
    """The stable endomorphism note."""
    if not v.algebra.has_basis:
        return "stable endomorphism check not applicable without truncation"
    dim = hom_stable(v, v)
    note = f"stable endomorphism dimension: {dim}"
    if dim == 1:
        note += " (advisory: the one-dimensional case, weak and full deformations agree)"
    return note


def ladder_checks(ladder: Ladder, transcript: LadderTranscript, base: Representation) -> Checks:
    """The report's checks for a ladder whose top rung is a module: dim Hom and
    dim Ext^1 from the top to V, which read the one system of (top, V); the
    shift and nontriviality flags are read off the transcript."""
    top = as_representation(ladder.top)
    return Checks(hom_top_dim=hom_dim(top, base),
                  ext_top_dim=ext1_dim(top, base, backend="all"),
                  sigma_nilpotent=transcript.passed(*SHIFT_CHECKS),
                  first_order_nontrivial=transcript.passed("first_order_nontrivial"))


def decide(tangent: int, kind: str | None = None, ladder: Ladder | None = None,
           checks: Checks | None = None, transcript: LadderTranscript | None = None,
           field=None) -> Verdict:
    """The verdict table.  Tangent dimension 1 needs the search's kind, its
    ladder, the ladder's checks and transcript, and the field; the reason is
    the note that goes with the verdict."""
    if tangent == 0:
        return Verdict("point", reason="no first-order deformations: the ring is the base field")
    if tangent >= 2:
        return Verdict("out_of_scope", reason=(
            f"tangent dimension {tangent} is at least 2: "
            "the deformation ring need not be a quotient of a power series ring in one variable"))
    if kind == "unobstructed":
        return Verdict("power_series", proved=True)
    if kind == "reached_bound":
        return Verdict("power_series", proved=False, max_order_checked=ladder.length,
                       reason=f"no obstruction found up to order {ladder.length}; "
                              "the classification is evidence, not proof")
    failures = []
    if checks.hom_top_dim != 1:
        failures.append(f"hom_top_dim = {checks.hom_top_dim} (need 1)")
    if checks.ext_top_dim != 0:
        failures.append(f"ext_top_dim = {checks.ext_top_dim} (need 0)")
    if not transcript.ok:
        failures.append("ladder certificate checks failed")
    if failures:
        return Verdict("inconclusive",
                       reason="side conditions at the ladder top fail: " + "; ".join(failures))
    if not field.is_prime_field:
        return Verdict("finite", n=ladder.length, proved=False,
                       reason="finite verdicts are marked proved over prime fields only")
    return Verdict("finite", n=ladder.length, proved=True)


def load_module(source: SourceFile, algebra, name: str) -> Representation:
    """The file's module name over algebra; ValueError if absent or invalid."""
    if name not in source.modules:
        known = ", ".join(sorted(source.modules)) or "none"
        raise ValueError(f"no module named {name!r} (file has: {known})")
    rep = Representation.from_module_def(algebra, source.modules[name])
    bad = validate(rep)
    if bad:
        raise ValueError(f"module {name!r} violates relations: {', '.join(bad)}")
    return rep


def classify(source: SourceFile, module_name: str,
             config: ClassifyConfig | None = None) -> ClassificationReport:
    """Full pipeline: tangent gate, ladder search, side conditions, verdict."""
    from .algebra import PresentedAlgebra

    cfg = config or ClassifyConfig()
    rep = load_module(source, PresentedAlgebra.from_source(source), module_name)
    _require_max_order(cfg.max_order)

    notes = ["assumes a weak universal deformation ring exists; "
             "the tangent-dimension gate below is the computable surrogate"]
    tangent = tangent_dimension(rep)
    notes.append(f"tangent dimension: {tangent}")
    notes.append(stable_end_note(rep))
    kind = ladder = transcript = None
    checks = Checks()
    if tangent == 1:
        search = ladder_search(rep, max_order=cfg.max_order)
        kind = search.kind
        notes.extend(search.notes)
        ladder = search.ladder  # tangent 1: some cocycle is not a coboundary, so a seed exists
        ob = search.obstruction
        if ob is not None:
            notes.append(f"obstruction at order {ob.order}: "
                         f"rank {ob.rank_coefficient} vs augmented rank {ob.rank_augmented}")
        transcript = verify_ladder(ladder)
        notes.extend(transcript.lines())
        checks = ladder_checks(ladder, transcript, rep)
    verdict = decide(tangent, kind, ladder, checks, transcript, rep.field)
    if verdict.reason is not None:
        notes.append(verdict.reason)
    return ClassificationReport(input_digest=source_digest(source), field=rep.field,
                                module_name=module_name, tangent_dim=tangent, verdict=verdict,
                                ladder=ladder, checks=checks, notes=notes)
