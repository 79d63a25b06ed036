"""Brute-force ground truth over small prime fields.

Finds every coefficient tuple of a lift to a given order whose residuals
all vanish, independently of the incremental engine: no extension step and
no deformation system decides validity.  The tuples are grown degree by
degree, and only the valid ones are extended, since a valid lift truncates
to a valid lift and the degree-j residual depends on degrees <= j only.
Each extension adds one degree to its lift's path series.  Intended for
cross-checking on small cases; the point count, which the budget is charged
for, is p to the power (entries per arrow times order).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .lift import Lift, as_representation, is_valid, residual_coefficients, residuals_vanish
from .linalg import _add_scaled, in_row_span, rank
from .rep import DeformationSystem, Representation, arrow_layout, iso_test

DEFAULT_BUDGET = 10**7


class BudgetExceeded(Exception):
    """A configured enumeration budget was too small for the requested run."""

    def __init__(self, what: str, needed: int, budget: int):
        super().__init__(f"{what}: needs {needed}, budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


def lift_from_point(v: Representation, order: int, point: tuple) -> Lift:
    """Rebuild a lift from a flat tuple of residues, degree 1 first, each
    degree in the coordinates of `arrow_layout(v, v)`."""
    layout = arrow_layout(v, v)
    width = layout.total
    assert len(point) == width * order
    lift = Lift.trivial(v)
    for j in range(order):
        lift = lift.extended(layout.unpack(dict(enumerate(point[j * width:(j + 1) * width]))))
    return lift


def point_from_lift(lift: Lift) -> tuple:
    """Flatten a lift's coefficients of degrees 1..order to residues."""
    slots = arrow_layout(lift.base, lift.base).slots
    return tuple(lift.coeffs[name][j][r, c]
                 for j in range(1, lift.order + 1) for name, r, c in slots)


def _require_order(order: int, name: str = "order"):
    if order < 1:
        raise ValueError(f"{name} must be at least 1, got {order}")


def _valid_points(v: Representation, order: int, budget: int) -> tuple:
    """(number of points, the valid points in lexicographic order).

    The budget is charged for every point, p^(slots * order), but points are
    grown degree by degree: a valid lift truncates to a valid lift and the
    degree-j residual depends on degrees <= j only, so each degree extends
    only the valid points of the degree before, by every coefficient tuple.
    """
    _require_order(order)
    field = v.field
    if field.p is None:
        raise ValueError("oracle enumeration needs a prime field")
    layout = arrow_layout(v, v)
    total = field.p ** (layout.total * order)
    if total > budget:
        raise BudgetExceeded("oracle enumeration", total, budget)
    degree = [(values, layout.unpack(dict(enumerate(values))))
              for values in itertools.product(range(field.p), repeat=layout.total)]
    trivial = Lift.trivial(v)
    frontier = [((), trivial)] if is_valid(trivial) else []
    for j in range(1, order + 1):
        grown = []
        for point, lift in frontier:
            for values, b in degree:
                extended = lift.extended(b)
                if residuals_vanish(extended, j):
                    grown.append((point + values, extended))
        frontier = grown
    return total, [point for point, _ in frontier]


def _first_degree_nontrivial(system: DeformationSystem, points: list) -> int:
    width = system.layout.total  # the degree-1 slots of a point
    return sum(1 for point in points
               if not in_row_span(system.coboundaries,
                                  {i: x for i, x in enumerate(point[:width]) if x}))


@dataclass
class EnumerationResult:
    order: int
    total_points: int
    valid_points: list  # flat residue tuples, lexicographically sorted
    nontrivial_count: int  # valid points whose degree-1 part is not a coboundary
    iso_classes: list  # lists of valid points, grouped by module isomorphism
    unknown_points: list  # points whose comparison stayed inconclusive


def _rank_profile(rep: Representation) -> tuple:
    """Iso invariant used to avoid pairwise tests across obvious non-isos.

    A module isomorphism conjugates each arrow matrix by invertible maps,
    so ranks of arrow matrices (and of arrow powers on loops) must agree.
    """
    parts = [rep.dim_vector]
    for a in rep.algebra.quiver.arrows:
        m = rep.mats[a.name]
        if a.source == a.target:
            power = m
            ranks = []
            while not power.is_zero() and len(ranks) < rep.dims[a.source]:
                ranks.append(rank(power))
                power = power * m
            parts.append((a.name, tuple(ranks)))
        else:
            parts.append((a.name, rank(m)))
    return tuple(parts)


def enumerate_lifts(v: Representation, order: int,
                    budget: int = DEFAULT_BUDGET) -> EnumerationResult:
    """Exhaustively test every coefficient tuple up to the given order."""
    total, valid = _valid_points(v, order, budget)
    system = DeformationSystem(v, v)
    nontrivial = _first_degree_nontrivial(system, valid)
    buckets = {}  # rank profile -> [(representative Representation, [points])]
    unknown = []
    ordered_classes = []
    for point in valid:
        rep = as_representation(lift_from_point(v, order, point))
        classes = buckets.setdefault(_rank_profile(rep), [])
        placed = False
        inconclusive = False
        for entry in classes:
            result = iso_test(rep, entry[0])
            if result.kind == "iso":
                entry[1].append(point)
                placed = True
                break
            if result.kind == "unknown":
                inconclusive = True
        if placed:
            continue
        if inconclusive:
            unknown.append(point)
        else:
            entry = (rep, [point])
            classes.append(entry)
            ordered_classes.append(entry)
    return EnumerationResult(
        order=order,
        total_points=total,
        valid_points=valid,
        nontrivial_count=nontrivial,
        iso_classes=[entry[1] for entry in ordered_classes],
        unknown_points=unknown,
    )


def oracle_max_order(v: Representation, max_order: int,
                     budget: int = DEFAULT_BUDGET) -> int:
    """Largest order up to the cap with a valid lift whose degree-1 part is nontrivial.

    A valid lift truncates to a valid lift with the same degree-1 part,
    so the first order with no nontrivial valid point settles all larger
    ones and the scan can stop there.
    """
    _require_order(max_order, "max_order")
    system = DeformationSystem(v, v)
    best = 0
    for order in range(1, max_order + 1):
        _, valid = _valid_points(v, order, budget)
        if _first_degree_nontrivial(system, valid) == 0:
            break
        best = order
    return best


def _affine_points(layout, particular: dict, kernel: list, p: int):
    """The coefficient matrices of every point particular + sum c_i kernel[i],
    the c_i running over F_p."""
    for combo in itertools.product(range(p), repeat=len(kernel)):
        vec = dict(particular)
        for c, k in zip(combo, kernel):
            _add_scaled(vec, c, k)
        yield layout.unpack(vec)


def incremental_valid_points(v: Representation, order: int,
                             budget: int = DEFAULT_BUDGET) -> list:
    """Valid point sets per order 1..order via the incremental extension engine.

    Seeds from every first-order cocycle point, trivial ones included,
    so the sets are directly comparable with enumerate_lifts output.
    """
    _require_order(order)
    field = v.field
    if field.p is None:
        raise ValueError("incremental point sets need a prime field")
    system = DeformationSystem(v, v)
    z = system.cocycles
    count = field.p ** len(z)
    if count > budget:
        raise BudgetExceeded("first-order point enumeration", count, budget)
    frontier = [Lift.first_order(v, b) for b in _affine_points(system.layout, {}, z, field.p)]
    out = [sorted(point_from_lift(l) for l in frontier)]
    while len(out) < order:
        next_frontier = []
        for lift in frontier:
            step = system.solve_step(residual_coefficients(lift, lift.order + 1))
            if not step.feasible:
                continue  # obstructed chain contributes nothing further
            # every step solves the system's own equations, so its kernel is z
            needed = len(next_frontier) + count
            if needed > budget:
                raise BudgetExceeded("incremental frontier", needed, budget)
            for b in _affine_points(system.layout, step.particular, z, field.p):
                next_frontier.append(lift.extended(b))
        frontier = next_frontier
        out.append(sorted(point_from_lift(l) for l in frontier))
    return out
