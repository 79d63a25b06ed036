"""Command line interface.

One input file carries the field, the quiver, optional relations, and
any number of named modules; every subcommand addresses modules by
name.  Exit status: 0 for results (all verdicts included), 1 for input
problems, 2 for an exhausted oracle enumeration budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .algebra import HereditaryModeUnsupported, PresentedAlgebra
from .certificates import verify_report
from .classify import (ClassifyConfig, _require_max_order, classify, ladder_search,
                       load_module, tangent_dimension)
from .dsl import ParseError, parse, render_matrix, report_to_text, serialize_report
from .lift import validate, verify_ladder
from .oracle import BudgetExceeded, enumerate_lifts
from .rep import NotHereditary, Representation, ext1_dim, hom_basis, hom_stable


class InputProblem(Exception):
    pass


def _load(args):
    try:
        text = Path(args.file).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputProblem(f"{args.file}: {exc.strerror or exc}") from exc
    source = parse(text, args.file)
    return text, source


def _module_name(source, name: str | None) -> str:
    """name, or the file's only module when no name is given."""
    if name is not None:
        return name
    if not source.modules:
        raise InputProblem("the file declares no module")
    if len(source.modules) > 1:
        raise InputProblem("several modules in the file; pick one with -m")
    return next(iter(source.modules))


def _module(source, algebra, name: str | None) -> Representation:
    return load_module(source, algebra, _module_name(source, name))


def _print_maps(maps: dict, indent: str = "  "):
    for v in sorted(maps):
        print(f"{indent}{v}: {render_matrix(maps[v])}")


def cmd_check(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    print(f"field: {source.field!r}")
    q = source.quiver
    print(f"quiver: {len(q.vertices)} vertices, {len(q.arrows)} arrows")
    if not algebra.has_basis:
        print("algebra: hereditary mode (no relations, no truncation)")
    else:
        print(f"algebra: dimension {algebra.dimension}, "
              f"{len(algebra.relations)} explicit relations, truncated at length {algebra.truncate}")
    names = [args.module] if args.module else sorted(source.modules)
    status = 0
    for name in names:
        if name not in source.modules:
            print(f"module {name}: not found")
            status = 1
            continue
        rep = Representation.from_module_def(algebra, source.modules[name])
        bad = validate(rep)
        if bad:
            print(f"module {name}: VIOLATES {', '.join(bad)}")
            status = 1
        else:
            print(f"module {name}: ok (dims {rep.dim_vector})")
    return status


def cmd_hom(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    m = _module(source, algebra, args.module)
    n = _module(source, algebra, args.other or args.module)
    space = hom_basis(m, n)
    print(f"dim Hom = {space.dim}")
    for i, maps in enumerate(space.basis, start=1):
        print(f"basis element {i}:")
        _print_maps(maps)
    return 0


def cmd_ext(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    m = _module(source, algebra, args.module)
    n = _module(source, algebra, args.other or args.module)
    try:
        dim = ext1_dim(m, n, backend=args.backend)
    except (NotHereditary, HereditaryModeUnsupported) as exc:
        raise InputProblem(str(exc)) from exc
    if args.backend == "all":
        print(f"{dim} (all backends agree)")
    else:
        print(dim)
    return 0


def cmd_stable_end(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    m = _module(source, algebra, args.module)
    try:
        dim = hom_stable(m, m)
    except HereditaryModeUnsupported as exc:
        raise InputProblem(str(exc)) from exc
    print(f"dim stable End = {dim}")
    return 0


def cmd_ladder(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    m = _module(source, algebra, args.module)
    _require_max_order(args.max_order)  # before anything is printed
    tangent = tangent_dimension(m)
    print(f"tangent dimension: {tangent}")
    if tangent != 1:
        print("note: the tangent dimension is not 1, so this chain stands for no other chain")
    search = ladder_search(m, max_order=args.max_order)
    for note in search.notes:
        print(f"note: {note}")
    if search.kind == "terminated":
        print(f"search: terminated at order {search.terminated_at}")
        if search.obstruction is not None:
            ob = search.obstruction
            print(f"obstruction at order {ob.order}: rank {ob.rank_coefficient}, "
                  f"augmented rank {ob.rank_augmented}")
    elif search.kind == "reached_bound":
        print(f"search: no obstruction up to order {args.max_order}")
    else:
        print("search: unobstructed (no relations)")
    if search.ladder is None:
        print("no ladder: no nontrivial first-order lift")
        return 0
    for order, mats in enumerate(search.ladder.coefficient_tuples(), start=1):
        print(f"order {order} coefficients:")
        for name in sorted(mats):
            print(f"  {name}: {render_matrix(mats[name])}")
    transcript = verify_ladder(search.ladder)
    for line in transcript.lines():
        print(line)
    print("certificate:", "ok" if transcript.ok else "FAILED")
    return 0


def cmd_classify(args) -> int:
    _, source = _load(args)
    report = classify(source, _module_name(source, args.module),
                      ClassifyConfig(max_order=args.max_order))
    sys.stdout.write(report_to_text(report))
    if args.json:
        try:
            Path(args.json).write_text(serialize_report(report), encoding="utf-8")
        except OSError as exc:
            raise InputProblem(f"{args.json}: {exc.strerror or exc}") from exc
        print(f"json report written to {args.json}")
    return 0


def cmd_oracle(args) -> int:
    _, source = _load(args)
    algebra = PresentedAlgebra.from_source(source)
    m = _module(source, algebra, args.module)
    if m.field.p is None:
        raise InputProblem("oracle enumeration needs a prime field")
    result = enumerate_lifts(m, args.order, budget=args.budget)
    print(f"order: {result.order}")
    print(f"total points: {result.total_points}")
    print(f"valid points: {len(result.valid_points)}")
    print(f"nontrivial first-order part: {result.nontrivial_count}")
    sizes = sorted((len(c) for c in result.iso_classes), reverse=True)
    print(f"iso classes: {len(result.iso_classes)} with sizes {sizes}")
    if result.unknown_points:
        print(f"unclassified points: {len(result.unknown_points)}")
    if len(result.valid_points) <= 32:
        for point in result.valid_points:
            print(f"  valid: {point}")
    return 0


def cmd_verify(args) -> int:
    text, source = _load(args)
    try:
        report_json = Path(args.json).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputProblem(f"{args.json}: {exc.strerror or exc}") from exc
    name = _module_name(source, args.module)
    result = verify_report(text, name, report_json, filename=args.file)
    print(result.summary())
    return 0 if result.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defring",
        description="Classify weak universal deformation rings of quiver algebra modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="input file (field, quiver, relations, modules)")
        p.add_argument("-m", "--module", default=None, help="module name")
        p.set_defaults(func=func)
        return p

    add("check", cmd_check, "validate the input and report the algebra dimension")

    p = add("hom", cmd_hom, "dimension and basis of Hom(M, N)")
    p.add_argument("-n", "--other", default=None, help="second module (default: same as -m)")

    p = add("ext", cmd_ext, "dimension of Ext^1(M, N)")
    p.add_argument("-n", "--other", default=None, help="second module (default: same as -m)")
    p.add_argument("--backend", default="cocycle",
                   choices=["cocycle", "syzygy", "hereditary", "all"])

    add("stable-end", cmd_stable_end, "dimension of the stable endomorphism space")

    p = add("ladder", cmd_ladder, "grow one chain of lifts order by order")
    p.add_argument("--max-order", type=int, default=10)

    p = add("classify", cmd_classify, "classify the weak universal deformation ring")
    p.add_argument("--max-order", type=int, default=10)
    p.add_argument("--json", default=None, help="also write the JSON report here")

    p = add("oracle", cmd_oracle, "brute-force enumeration of valid lifts")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--budget", type=int, default=10**7)

    p = add("verify", cmd_verify, "re-verify a JSON report against its input file")
    p.add_argument("--json", required=True, help="path of the JSON report to verify")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the reader went away: send stdout to devnull, so the flush at exit cannot fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except ParseError as exc:
        print(f"error: {args.file}:{exc}", file=sys.stderr)
        return 1
    except InputProblem as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
