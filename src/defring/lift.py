"""Lifts of a module to truncated polynomial coefficients, order by order.

A lift of order L replaces each arrow matrix A by a polynomial
A + B1 t + ... + BL t^L and demands that every ideal generator still
vanish modulo t^(L+1).  The t-coefficients of the generator values are the
residuals; the next coefficient tuple must solve a linear system whose
matrix is the first-order deformation system of the base module and whose
right hand side is the next residual.  Infeasibility is an obstruction and
carries a rank certificate.

A lift carries the t-series of the generator prefixes, the nodes of the
algebra's path tree that prefix some generator path, through degree L, per
degree only the nonzero ones.  Extending the lift computes one new degree
at the prefixes that can be nonzero there, so a degree costs what its
nonzero terms cost; residuals are read off the stored degrees, and the
degree L+1 residual is completed from them.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass

from .linalg import Matrix, rank
from .rep import Representation, deformation_system


class Lift:
    """Coefficient matrices per arrow, degrees 0..order; degree 0 is the base.

    A lift also holds the t-series of its algebra's generator prefixes
    (algebra.prefixes, the path-tree nodes that prefix some generator path),
    through degree order: series[d] maps each node whose t^d coefficient is
    nonzero, that path evaluated at the arrow polynomials, to it.  Degree 0
    is the base's own prefix_values; the constructor grows the others degree
    by degree and `extended` adds the one new degree, so a residual is read
    off rather than re-expanded.  support lists per arrow the degrees of its
    nonzero coefficients.
    """

    def __init__(self, base: Representation, order: int, coeffs: dict):
        assert order >= 0
        self.base = base
        self.order = order
        self.coeffs = {}
        for a in base.algebra.quiver.arrows:
            series = list(coeffs[a.name])
            assert len(series) == order + 1, f"need {order + 1} coefficients for {a.name}"
            assert series[0] == base.mats[a.name], "degree-0 coefficient must be the base matrix"
            for m in series:
                assert (m.nrows, m.ncols) == (base.dims[a.target], base.dims[a.source])
            self.coeffs[a.name] = series
        self.field = base.field
        self.support = {name: [i for i, m in enumerate(series) if not m.is_zero()]
                        for name, series in self.coeffs.items()}
        self.series = [base.prefix_values]
        for d in range(1, order + 1):
            self.series.append(_series_degree(self, d))

    @classmethod
    def trivial(cls, base: Representation, order: int = 0) -> "Lift":
        coeffs = {}
        for a in base.algebra.quiver.arrows:
            zero = Matrix.zeros(base.field, base.dims[a.target], base.dims[a.source])
            coeffs[a.name] = [base.mats[a.name]] + [zero] * order
        return cls(base, order, coeffs)

    @classmethod
    def first_order(cls, base: Representation, b: dict) -> "Lift":
        return cls.trivial(base).extended(b)

    def extended(self, b: dict) -> "Lift":
        """This lift with degree order + 1 coefficients b; one new series degree."""
        base = self.base
        for a in base.algebra.quiver.arrows:
            assert (b[a.name].nrows, b[a.name].ncols) == (base.dims[a.target], base.dims[a.source])
        out = Lift.__new__(Lift)  # from parts that already agree with each other
        out.base, out.field, out.order, out.series = base, self.field, self.order + 1, self.series
        out.coeffs = {name: series + [b[name]] for name, series in self.coeffs.items()}
        out.support = {name: degrees if b[name].is_zero() else degrees + [out.order]
                       for name, degrees in self.support.items()}
        out.series = self.series + [_series_degree(out, out.order)]
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Lift)
            and self.base == other.base
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"Lift(order={self.order}, dims={self.base.dims})"


# ----------------------------------------------------------------------
# residuals


def _series_degree(lift: Lift, d: int) -> dict:
    """The nonzero t^d coefficients of the generator prefixes, {node: value},
    for d >= 1 (degree 0 is the base's prefix_values).

    Node (parent, arrow) has coefficient sum_i C_i * parent_(d-i), C_i the
    arrow's degree-i coefficient, so a prefix is visited, in tree order, only
    when its parent is nonzero at d - i for some i in the arrow's support:
    read from lift.series for i > 0, and found in this pass for i = 0.  A
    trivial path is 0 in every degree above 0, so no root is visited.
    """
    tree, prefixes = lift.base.algebra.tree, lift.base.algebra.prefixes
    if not prefixes:  # no generator path to evaluate
        return {}
    terms = {name: [(i, lift.coeffs[name][i]) for i in degrees if i <= d]
             for name, degrees in lift.support.items()}
    now = [name for name, pairs in terms.items() if pairs and pairs[0][0] == 0]  # C_0 nonzero
    queue = [child for name, pairs in terms.items() for i, _ in pairs if i
             for node in lift.series[d - i] if (child := tree.nodes.get((node, name))) in prefixes]
    heapq.heapify(queue)
    out = {}
    while queue:
        node = heapq.heappop(queue)
        if node in out:  # queued more than once
            continue
        parent = tree.parents[node]
        products = [coeff * factor for i, coeff in terms[tree.steps[node].name]
                    if (factor := (lift.series[d - i] if i else out).get(parent)) is not None]
        if not (value := functools.reduce(Matrix.__add__, products)).is_zero():
            out[node] = value
            for name in now:
                if (child := tree.nodes.get((node, name))) in prefixes:
                    heapq.heappush(queue, child)
    return out


def residual_coefficients(lift: Lift, j: int) -> list:
    """The t^j residual of every ideal generator, in generator order.

    Degrees up to the lift's order are read off its series; degree
    order + 1 is completed from them without being stored.
    """
    assert j <= lift.order + 1
    values = lift.series[j] if j <= lift.order else _series_degree(lift, j)
    algebra = lift.base.algebra
    dims = lift.base.dims
    return [combination(lift.field, dims[rel.target], dims[rel.source], terms, values)
            for rel, terms in zip(algebra.generating_relations(), algebra.generator_terms)]


def combination(field, nrows: int, ncols: int, terms, values: dict) -> Matrix:
    """The sum of coeff * values[node] over (coeff, node) terms, an nrows x
    ncols matrix; values holds the nonzero values, {node: value}."""
    parts = [values[node] if coeff == 1 else values[node].scale(coeff)
             for coeff, node in terms if node in values]
    return functools.reduce(Matrix.__add__, parts) if parts else Matrix.zeros(field, nrows, ncols)


def validate(rep: Representation) -> list:
    """Labels of violated ideal generators, empty for a valid module: each
    generator's terms combined from rep.prefix_values, its one fold."""
    algebra, dims = rep.algebra, rep.dims
    return [rel.label() for rel, terms in zip(algebra.generating_relations(), algebra.generator_terms)
            if not combination(rep.field, dims[rel.target], dims[rel.source], terms,
                               rep.prefix_values).is_zero()]


def residuals_vanish(lift: Lift, j: int) -> bool:
    """Every ideal generator's t^j residual is zero (j <= order + 1)."""
    return all(block.is_zero() for block in residual_coefficients(lift, j))


def is_valid(lift: Lift) -> bool:
    """All residuals vanish in degrees 0..order (degree 0 is base validity)."""
    return all(residuals_vanish(lift, j) for j in range(lift.order + 1))


# ----------------------------------------------------------------------
# one extension step


@dataclass
class Obstruction:
    """Certificate that no next coefficient tuple exists.

    The linear step D(B) = -residual is infeasible exactly when the
    augmented rank exceeds the rank of the deformation matrix; both ranks
    are recorded so the certificate can be replayed independently.
    """

    order: int
    residuals: list  # (generator label, Matrix)
    rank_coefficient: int
    rank_augmented: int


def extend_step(lift: Lift):
    """The lift extended by the particular solution of the next order's
    step, or an Obstruction when that step is infeasible; the step solves
    the equations of deformation_system(base, base)."""
    system = deformation_system(lift.base, lift.base)
    rhs = residual_coefficients(lift, lift.order + 1)
    sol = system.solve_step(rhs)
    if not sol.feasible:
        labels = [rel.label() for rel in lift.base.algebra.generating_relations()]
        return Obstruction(
            order=lift.order + 1,
            residuals=list(zip(labels, rhs)),
            rank_coefficient=sol.rank,
            rank_augmented=sol.rank_augmented,
        )
    extended = lift.extended(system.layout.unpack(sol.particular))
    assert residuals_vanish(extended, extended.order), "extension point failed its residual check"
    return extended


# ----------------------------------------------------------------------
# the module underlying a lift


def as_representation(lift: Lift) -> Representation:
    """Forget the coefficient ring: lower block triangular Toeplitz matrices.

    Vertex spaces get one block per degree 0..order; arrow block (i, j)
    is the degree i-j coefficient.  The lift is valid exactly when this
    representation satisfies the relations, so `validate` of it is empty exactly
    when `is_valid(lift)`, which reads the residuals without forming it.  Its
    path values sum_d J^d ⊗ S_d(w), S_d(w) the t^d coefficient of w, are read
    off lift.series when asked (prefix_value), multiplying no matrices.
    """
    base = lift.base
    return _Unrolled(lift, {v: (lift.order + 1) * d for v, d in base.dims.items()}, {
        a.name: _toeplitz(lift, base.dims[a.target], base.dims[a.source],
                          [(i, lift.coeffs[a.name][i]) for i in lift.support[a.name]])
        for a in base.algebra.quiver.arrows})


class _Unrolled(Representation):
    """The module of as_representation, which reads its path values off the lift."""

    def __init__(self, lift: Lift, dims: dict, mats: dict):
        super().__init__(lift.base.algebra, dims, mats)
        self.lift = lift

    def prefix_value(self, node: int):
        terms = [(d, s) for d, values in enumerate(self.lift.series)
                 if (s := values.get(node)) is not None]
        return _toeplitz(self.lift, terms[0][1].nrows, terms[0][1].ncols, terms) if terms else None


def _toeplitz(lift: Lift, nrows: int, ncols: int, terms: list) -> Matrix:
    """sum_d J^d ⊗ S_d over the (d, S_d) terms, S_d nrows x ncols and J the
    shift of k[t]/(t^(order+1)): block (i, i - d) is S_d."""
    blocks = lift.order + 1
    return Matrix(lift.field, blocks * nrows, blocks * ncols, [
        {(i - d) * ncols + j: x for d, s in reversed(terms) if d <= i for j, x in s.rows[r].items()}
        for i in range(blocks) for r in range(nrows)])


# ----------------------------------------------------------------------
# ladders


@dataclass
class Ladder:
    """A ladder of lifts, orders 1..N, held as its top lift: the rung of
    order j is the top's coefficients through degree j."""

    top: Lift

    def __post_init__(self):
        assert self.top.order >= 1

    @property
    def base(self) -> Representation:
        return self.top.base

    @property
    def length(self) -> int:
        return self.top.order

    @property
    def first_order_class(self) -> dict:
        return {name: series[1] for name, series in self.top.coeffs.items()}

    def coefficient_tuples(self) -> list:
        """Per order 1..N, the degree-at-that-order coefficient per arrow."""
        return [{name: series[j] for name, series in self.top.coeffs.items()}
                for j in range(1, self.length + 1)]


@dataclass
class LadderCheck:
    name: str
    order: int
    ok: bool
    detail: str = ""


@dataclass
class LadderTranscript:
    checks: list

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def passed(self, *names) -> bool:
        """Whether every check bearing one of these names passes."""
        return all(c.ok for c in self.checks if c.name in names)

    def lines(self) -> list:
        out = []
        for c in self.checks:
            status = "ok" if c.ok else "FAILED"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"order {c.order}: {c.name} {status}{suffix}")
        return out


# the facts about the shift endomorphism at the top order, in transcript order
SHIFT_CHECKS = ("sigma_nilpotent", "sigma_power_nonzero", "kernel_is_base_witness",
                "image_power_is_base_witness")


def _shift_checks(field, blocks: int, ell: int) -> tuple:
    """Facts about the nilpotent shift J of k[t]/(t^blocks), with top line e_top.

    Returns whether J^(ell+1) = 0, whether J^ell != 0, whether ker J is
    spanned by e_top, and whether im J^ell is spanned by e_top.
    """
    one = field.one()
    rows = [{}] + [{i - 1: one} for i in range(1, blocks)]  # entries (i, i - 1)
    shift = Matrix(field, blocks, blocks, rows)
    power = shift.power(ell)
    nonzero = not power.is_zero()
    kernel = not any(blocks - 1 in row for row in rows) and rank(shift) == blocks - 1
    # a nonzero matrix whose rows below the top one vanish has image <e_top>
    image = nonzero and not any(power.rows[:-1])
    return (power * shift).is_zero(), nonzero, kernel, image


def verify_ladder(ladder: Ladder) -> LadderTranscript:
    """Replay the certificate checks of a ladder that can fail.

    `first_order_nontrivial` (order 1): the first-order class is not a
    coboundary, so the chain is a ladder rather than the trivial tower.
    `residuals_vanish` (each order ell = 1..N): the residuals of degrees
    0..ell vanish, one degree of the top's series read per order.  Then, at
    the top order N, four facts about the shift endomorphism σ = J ⊗ I_d of
    the underlying module k[t]/(t^(N+1)) ⊗ V (`as_representation`), where J
    is the nilpotent shift of k[t]/(t^(N+1)): `sigma_nilpotent`,
    `sigma_power_nonzero`, `kernel_is_base_witness` and
    `image_power_is_base_witness`.  Rank, kernel and image of X ⊗ I_d are
    those of X tensored with k^d, so they are decided on J (`_shift_checks`)
    and hold vacuously at vertices of dimension 0.

    A rung-by-rung certificate would check more, none of which can fail
    here.  Every rung is a prefix of the top's coefficients, so its order is
    its position, it agrees with the rung below, and the reduction and
    shift-in maps between consecutive rungs are homomorphisms, onto and
    one-to-one.  C_0 is the base matrix (a `Lift` asserts it), so the
    embedding of V as the top block is a homomorphism.  σ is the composite
    of those two maps and commutes with the arrows, and the shift facts
    depend only on the order, so below N they hold as they do at N.
    """
    checks = []
    top = ladder.top
    base = ladder.base
    n = ladder.length
    occupied = any(base.dims.values())

    def add(name, order, ok, detail=""):
        checks.append(LadderCheck(name, order, bool(ok), detail))

    nontrivial = not deformation_system(base, base).is_coboundary(ladder.first_order_class)
    add("first_order_nontrivial", 1, nontrivial,
        "" if nontrivial else "first-order class is a coboundary")
    valid = residuals_vanish(top, 0)
    for ell in range(1, n + 1):
        valid = valid and residuals_vanish(top, ell)
        add("residuals_vanish", ell, valid)
    nilpotent, nonzero, kernel, image = _shift_checks(base.field, n + 1, n)
    facts = (nilpotent or not occupied, nonzero and occupied, kernel or not occupied,
             image or not occupied)
    for name, ok in zip(SHIFT_CHECKS, facts):
        add(name, n, ok)
    return LadderTranscript(checks)
