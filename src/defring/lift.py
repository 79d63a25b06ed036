"""Lifts of a module to truncated polynomial coefficients, order by order.

A lift of order L replaces each arrow matrix A by a polynomial
A + B1 t + ... + BL t^L and demands that every ideal generator still
vanish modulo t^(L+1).  The t-coefficients of the generator values are the
residuals; the next coefficient tuple must solve a linear system whose
matrix is the first-order deformation system of the base module and whose
right hand side is the next residual.  Infeasibility is an obstruction and
carries a rank certificate.

A lift carries the t-series of every prefix of every generator path (the
nodes of the algebra's generator tree) through degree L.  Extending the lift
computes one new degree per prefix, sum_i C_i(a) * prefix_(d-i), so a chain
of length N costs about N^2 block products per prefix rather than N^3, and
far fewer when the coefficients are sparse; residuals are read off the
stored degrees, and the degree L+1 residual is completed from them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Matrix, SparseRows, rank
from .rep import DeformationSystem, Representation, combination


class Lift:
    """Coefficient matrices per arrow, degrees 0..order; degree 0 is the base.

    A lift also holds the t-series of every node of its algebra's
    generator tree (every prefix of every generating-relation path),
    through degree order: series[node][d] is the t^d coefficient of that
    prefix evaluated at the arrow polynomials.  The constructor grows them
    degree by degree, `extended` adds the one new degree and `reduced`
    slices them, so a residual is read off rather than re-expanded.
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
        self.series = [[] for _ in range(len(base.algebra.generator_tree))]
        for d in range(order + 1):
            for series, value in zip(self.series, _series_degree(self, d)):
                series.append(value)

    @classmethod
    def _of(cls, base: Representation, order: int, coeffs: dict, series: list) -> "Lift":
        """A lift from parts that already agree with each other."""
        lift = cls.__new__(cls)
        lift.base, lift.order, lift.coeffs, lift.series = base, order, coeffs, series
        lift.field = base.field
        return lift

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
        coeffs = {name: series + [b[name]] for name, series in self.coeffs.items()}
        out = Lift._of(base, self.order + 1, coeffs, self.series)
        out.series = [series + [value]
                      for series, value in zip(self.series, _series_degree(out, out.order))]
        return out

    def reduced(self, to_order: int) -> "Lift":
        assert 0 <= to_order <= self.order
        n = to_order + 1
        return Lift._of(self.base, to_order,
                        {name: series[:n] for name, series in self.coeffs.items()},
                        [series[:n] for series in self.series])

    def top_coefficients(self) -> dict:
        return {name: series[self.order] for name, series in self.coeffs.items()}

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


def _series_degree(lift: Lift, d: int) -> list:
    """The t^d coefficient of every generator-tree node at the lift.

    Node (parent, arrow) has coefficient sum_i C_i * parent_(d-i), with C_i
    the arrow's degree-i coefficient (zero above lift.order).  The parent's
    degrees below d are read from lift.series, its degree d from this pass.
    """
    base = lift.base
    field = lift.field
    tree = base.algebra.generator_tree
    support = {}  # arrow name -> its nonzero (degree, coefficient) pairs up to degree d
    out = []
    for parent, step, source in zip(tree.parents, tree.steps, tree.sources):
        if parent < 0:
            n = base.dims[step]
            out.append(Matrix.identity(field, n) if d == 0 else Matrix.zeros(field, n, n))
            continue
        terms = support.get(step.name)
        if terms is None:
            coeffs = lift.coeffs[step.name][:d + 1]
            terms = support[step.name] = [(i, c) for i, c in enumerate(coeffs) if not c.is_zero()]
        below = lift.series[parent]
        value = None
        for i, coeff in terms:
            factor = out[parent] if i == 0 else below[d - i]
            if not factor.is_zero():
                term = coeff * factor
                value = term if value is None else value + term
        out.append(Matrix.zeros(field, base.dims[step.target], base.dims[source])
                   if value is None else value)
    return out


def residual_coefficients(lift: Lift, j: int) -> list:
    """The t^j residual of every ideal generator, in generator order.

    Degrees up to the lift's order are read off its series; degree
    order + 1 is completed from them without being stored.
    """
    assert j <= lift.order + 1
    values = [series[j] for series in lift.series] if j <= lift.order else _series_degree(lift, j)
    algebra = lift.base.algebra
    dims = lift.base.dims
    return [combination(lift.field, dims[rel.target], dims[rel.source], terms, values)
            for rel, terms in zip(algebra.generating_relations(), algebra.generator_terms)]


def _vanishes(lift: Lift, j: int) -> bool:
    return all(block.is_zero() for block in residual_coefficients(lift, j))


def is_valid(lift: Lift) -> bool:
    """All residuals vanish in degrees 0..order (degree 0 is base validity)."""
    return all(_vanishes(lift, j) for j in range(lift.order + 1))


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

    @property
    def certifies(self) -> bool:
        return self.rank_augmented > self.rank_coefficient


@dataclass
class LiftExtensions:
    """The affine space of valid next coefficient tuples of a lift."""

    lift: Lift
    system: DeformationSystem
    solution: object  # AffineSolutionSpace over packed arrow matrices

    @property
    def kernel_dim(self) -> int:
        return len(self.solution.kernel)

    def point(self, coeffs) -> Lift:
        vec = self.solution.point(coeffs)
        return self._make(vec)

    def particular(self) -> Lift:
        return self._make(self.solution.particular)

    def _make(self, vec) -> Lift:
        b = self.system.layout.unpack(vec)
        extended = self.lift.extended(b)
        for block in residual_coefficients(extended, extended.order):
            assert block.is_zero(), "extension point failed its residual check"
        return extended


def extend_step(lift: Lift, system: DeformationSystem | None = None):
    """Solve for the next coefficient tuple; Obstruction when infeasible."""
    if system is None:
        system = DeformationSystem(lift.base, lift.base)
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
    return LiftExtensions(lift, system, sol)


# ----------------------------------------------------------------------
# the module underlying a lift


def as_representation(lift: Lift) -> Representation:
    """Forget the coefficient ring: lower block triangular Toeplitz matrices.

    Vertex spaces get one block per degree 0..order; arrow block (i, j)
    is the degree i-j coefficient.  The lift is valid exactly when this
    representation satisfies the relations.
    """
    base = lift.base
    field = lift.field
    ell = lift.order
    dims = {v: (ell + 1) * base.dims[v] for v in base.algebra.quiver.vertices}
    mats = {}
    for a in base.algebra.quiver.arrows:
        series = lift.coeffs[a.name]
        zero = [field.zero()] * base.dims[a.source]
        data = []
        for bi in range(ell + 1):
            for r in range(base.dims[a.target]):
                for bj in range(ell + 1):
                    data += series[bi - bj].row(r) if bj <= bi else zero
        mats[a.name] = Matrix(field, dims[a.target], dims[a.source], data)
    return Representation(base.algebra, dims, mats)


# ----------------------------------------------------------------------
# ladders


@dataclass
class Ladder:
    """A coherent chain of lifts, orders 1..N, each reducing to the previous."""

    base: Representation
    chain: list

    @classmethod
    def from_lift(cls, lift: Lift) -> "Ladder":
        assert lift.order >= 1
        return cls(lift.base, [lift.reduced(j) for j in range(1, lift.order + 1)])

    @property
    def top(self) -> Lift:
        return self.chain[-1]

    @property
    def length(self) -> int:
        return len(self.chain)

    @property
    def first_order_class(self) -> dict:
        return self.chain[0].top_coefficients()

    def coefficient_tuples(self) -> list:
        """Per order 1..N, the degree-at-that-order coefficient per arrow."""
        return [rung.top_coefficients() for rung in self.chain]


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

    def lines(self) -> list:
        out = []
        for c in self.checks:
            status = "ok" if c.ok else "FAILED"
            suffix = f" ({c.detail})" if c.detail else ""
            out.append(f"order {c.order}: {c.name} {status}{suffix}")
        return out


def _shift_checks(field, blocks: int, ell: int) -> tuple:
    """Facts about the nilpotent shift J of k[t]/(t^blocks), with top line e_top.

    Returns whether J^(ell+1) = 0, whether J^ell != 0, whether ker J is
    spanned by e_top, and whether im J^ell is spanned by e_top.  J^ell's rows
    are read once as sparse rows, and rank J is taken on J's sparse rows.
    """
    one = field.one()
    rows = [{}] + [{i - 1: one} for i in range(1, blocks)]
    data = [field.zero()] * (blocks * blocks)
    data[blocks::blocks + 1] = [one] * (blocks - 1)  # entries (i, i - 1)
    shift = Matrix(field, blocks, blocks, data)
    power = shift.power(ell)
    power_rows = power.sparse_rows().rows
    nonzero = any(power_rows)
    kernel = (not any(blocks - 1 in row for row in rows)
              and rank(SparseRows(field, blocks, rows)) == blocks - 1)
    # a nonzero matrix whose rows below the top one vanish has image <e_top>
    image = nonzero and not any(power_rows[:-1])
    return (power * shift).is_zero(), nonzero, kernel, image


def verify_ladder(ladder: Ladder, system: DeformationSystem | None = None) -> LadderTranscript:
    """Replay every certificate check of a ladder.

    Checks per rung: residual vanishing, coherence with the previous rung,
    the reduction epimorphism and the degree-shift monomorphism, their
    composite (the shift endomorphism), its nilpotency degree, and the
    explicit block witness identifying both the kernel of the shift and
    the image of its top power with the base module.  The first-order
    class must not be a coboundary; that is what makes the chain a ladder
    rather than the trivial tower.

    No check builds the module underlying a rung.  For a rung of order ell
    with coefficients C_0..C_ell, that module (`as_representation`) is
    k[t]/(t^(ell+1)) ⊗ V: a vertex of dimension d carries degree blocks
    0..ell, an arrow acts by the block-Toeplitz sum of J^k ⊗ C_k, where J
    is the (ell+1)×(ell+1) nilpotent shift of k[t]/(t^(ell+1)), and the
    shift endomorphism is σ = J ⊗ I_d.  The reduction ε = [I | 0] keeps
    blocks 0..ell-1, the shift-in ι = [0; I] moves block j to block j+1,
    and the witness embeds V as the top block.  So each check is decided
    by one of three sources:

    - the rung's coefficient blocks: ε and ι commute with the arrows of the
      rung and of the previous one (the base when ell = 1) exactly when
      C_0..C_(ell-1) equal the previous rung's coefficients
      (`reduction_is_hom`, `shift_in_is_hom`).  The degree-j residual
      depends on C_0..C_j only, so a rung coherent with a valid previous
      rung is valid exactly when its degree-ell residual vanishes, one
      degree read off the rung's series; any other rung has every degree
      checked (`residuals_vanish`).  A rung's series are always grown from
      its own coefficients: a rung built on its own, a forged one
      included, grows them from degree 0, and a rung sliced from a longer
      lift shares that lift's degrees, which depend on the same
      coefficients.
    - the degree-0 block against the base: block column ell of an arrow
      is C_0 in the top block, so the witness is a homomorphism exactly
      when C_0 is the base matrix (`witness_is_hom`).
    - J: rank, kernel and image of X ⊗ I_d are those of X tensored with
      k^d, so `sigma_nilpotent`, `sigma_power_nonzero`,
      `kernel_is_base_witness` and `image_power_is_base_witness` are
      decided on J and hold vacuously at vertices of dimension 0.  ε and
      ι ⊗ I_d have rank ell·d, the dimension of the previous rung when
      the orders are consecutive (`reduction_surjective`,
      `shift_in_injective`).  ιε is J ⊗ I_d and J commutes with every J^k,
      so `sigma_is_composite` and `sigma_commutes` hold for every rung.

    A rung whose order is not its position fails `order_matches`; the
    checks above still run, with J sized by the rung's own order.
    """
    checks = []
    base = ladder.base
    arrows = base.algebra.quiver.arrows
    dims = list(base.dims.values())
    occupied = any(dims)

    def add(name, order, ok, detail=""):
        checks.append(LadderCheck(name, order, bool(ok), detail))

    if system is None:
        system = DeformationSystem(base, base)
    nontrivial = not system.is_coboundary(ladder.first_order_class)
    add("first_order_nontrivial", 1, nontrivial,
        "" if nontrivial else "first-order class is a coboundary")

    prev = Lift.trivial(base)
    prev_valid = is_valid(prev)
    for ell, rung in enumerate(ladder.chain, start=1):
        coherent = rung.order >= ell - 1 and rung.reduced(ell - 1) == prev
        add("order_matches", ell, rung.order == ell)
        if coherent and rung.order == ell:
            valid = prev_valid and _vanishes(rung, ell)
        else:
            valid = is_valid(rung)
        add("residuals_vanish", ell, valid)
        if ell >= 2:
            add("coherent_with_previous", ell, coherent)
        extends = all(rung.coeffs[a.name][:-1] == prev.coeffs[a.name] for a in arrows)
        consecutive = all(rung.order * d == (prev.order + 1) * d for d in dims)
        add("reduction_is_hom", ell, extends)
        add("reduction_surjective", ell, consecutive)
        add("shift_in_is_hom", ell, extends)
        add("shift_in_injective", ell, consecutive)
        add("sigma_is_composite", ell, True)
        add("sigma_commutes", ell, True)
        nilpotent, nonzero, kernel, image = _shift_checks(base.field, rung.order + 1, ell)
        add("sigma_nilpotent", ell, nilpotent or not occupied)
        add("sigma_power_nonzero", ell, nonzero and occupied)
        add("witness_is_hom", ell,
            all(rung.coeffs[a.name][0] == base.mats[a.name] for a in arrows))
        add("kernel_is_base_witness", ell, kernel or not occupied)
        add("image_power_is_base_witness", ell, image or not occupied)
        prev, prev_valid = rung, valid
    return LadderTranscript(checks)
