"""Representations of a presented algebra and their homological invariants.

A representation assigns a finite dimensional space to each vertex and a
matrix to each arrow (shape dim target x dim source, column convention).
Intertwiners, radicals, projective covers, syzygies and three independent
routes to Ext^1 live here; the first-order deformation machinery shared
with the lifting engine is the DeformationSystem at the bottom.  Each pair
(M, N) has one, deformation_system(M, N), built on first use and kept on M;
every reader of Hom(M, N), Ext^1(M, N) or the lift equations of M fetches it
there, so no caller hands a system to another.
"""

from __future__ import annotations

import functools
import itertools
import random
import weakref
from dataclasses import dataclass
from functools import cached_property

from .algebra import PresentedAlgebra
from .fields import FieldSpec
from .linalg import (
    Matrix,
    RowEchelon,
    _add_scaled,
    echelon,
    in_row_span,
    kernel_basis,
    rank,
    row_space,
    solve_affine,
    solve_matrix,
)
from .quiver import Path


class NotHereditary(Exception):
    pass


class NotInvariant(Exception):
    pass


class Representation:
    """One matrix per arrow; always validated for shape, not for relations."""

    def __init__(self, algebra: PresentedAlgebra, dims: dict, mats: dict):
        self.algebra = algebra
        self.field = algebra.field
        quiver = algebra.quiver
        self.dims = {v: int(dims.get(v, 0)) for v in quiver.vertices}
        for v, d in self.dims.items():
            if d < 0:
                raise ValueError(f"negative dimension at vertex {v}")
        self.mats = {}
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                m = Matrix.zeros(self.field, self.dims[a.target], self.dims[a.source])
            if (m.nrows, m.ncols) != (self.dims[a.target], self.dims[a.source]):
                raise ValueError(
                    f"matrix for {a.name} must be {self.dims[a.target]}x{self.dims[a.source]}, "
                    f"got {m.nrows}x{m.ncols}")
            self.mats[a.name] = m
        self._yoneda = {}  # (vertex, *columns) -> the maps of _yoneda_maps, evaluated once
        self._systems = {}  # id(n) -> (weak reference to n, DeformationSystem(self, n))
        self._prefixes = None  # node -> M(node), filled by prefix_value
        self._suffixes = {}  # arrow names of a generator path's suffix -> N(suffix), None if zero

    @classmethod
    def from_module_def(cls, algebra: PresentedAlgebra, mod) -> "Representation":
        return cls(algebra, mod.dims, mod.mats)

    @property
    def total_dim(self) -> int:
        return sum(self.dims.values())

    @property
    def dim_vector(self) -> tuple:
        return tuple(self.dims[v] for v in self.algebra.quiver.vertices)

    @cached_property
    def top_columns(self) -> dict:
        """Per vertex v, the columns of M_v off the radical's echelon pivots: M's top."""
        return {v: sorted(set(range(self.dims[v])).difference(rad.pivots))
                for v, rad in radical_subspaces(self).items()}

    def prefix_value(self, node: int):
        """M(node), None when zero, at a node that a generator prefix extends:
        all are folded on first use, one product per node whose parent's value
        is nonzero, and kept.  The deformation equations read M through it."""
        if self._prefixes is None:
            tree, self._prefixes = self.algebra.tree, {}
            for inner in sorted({tree.parents[p] for p in self.algebra.prefixes} - {-1}):
                parent, step = tree.parents[inner], tree.steps[inner]
                if parent < 0 or parent in self._prefixes:
                    value = (Matrix.identity(self.field, self.dims[step]) if parent < 0
                             else self.mats[step.name] * self._prefixes[parent])
                    if not value.is_zero():
                        self._prefixes[inner] = value
        return self._prefixes.get(node)

    def suffix_value(self, names: tuple):
        """N(u), None when zero, for u the named arrows (application order) of a
        generator path's suffix whose tail names[1:] has a nonzero value:
        N(a·u) = N(u)·N_a, one product per suffix of two or more arrows, kept."""
        if names not in self._suffixes:
            value = self.mats[names[0]]
            if len(names) > 1:
                value = self._suffixes[names[1:]] * value
            self._suffixes[names] = None if value.is_zero() else value
        return self._suffixes[names]

    def path_matrix(self, path: Path) -> Matrix:
        """Evaluate a path: matrices compose right to left in application order."""
        out = Matrix.identity(self.field, self.dims[path.source])
        for a in path.arrows:
            out = self.mats[a.name] * out
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and self.algebra == other.algebra
            and self.dims == other.dims
            and self.mats == other.mats
        )

    def __repr__(self):
        return f"Representation(dims={self.dims})"


def direct_sum(m: Representation, n: Representation) -> Representation:
    return direct_sum_many([m, n])


def direct_sum_many(parts: list) -> Representation:
    assert parts
    if len(parts) == 1:  # one summand passes through unchanged
        return parts[0]
    algebra = parts[0].algebra
    for p in parts[1:]:
        if p.algebra != algebra:
            raise ValueError("direct sum across different algebras")
    dims = {v: sum(p.dims[v] for p in parts) for v in algebra.quiver.vertices}
    mats = {}
    for a in algebra.quiver.arrows:
        rows, left = [], 0
        for p in parts:
            block = p.mats[a.name]
            rows += [{left + j: x for j, x in row.items()} for row in block.rows]
            left += block.ncols
        mats[a.name] = Matrix(algebra.field, dims[a.target], dims[a.source], rows)
    return Representation(algebra, dims, mats)


# ----------------------------------------------------------------------
# flat coordinates for tuples of matrices


class MapLayout:
    """Row-major flat coordinates for an ordered family of matrices; a
    family is packed into one sparse vector {coordinate: value}."""

    def __init__(self, field: FieldSpec, shapes: list):
        self.field = field
        self.shapes = list(shapes)  # (key, nrows, ncols)
        self.offsets = {}
        total = 0
        for key, nrows, ncols in self.shapes:
            self.offsets[key] = total
            total += nrows * ncols
        self.total = total

    @cached_property
    def slots(self) -> list:
        """(key, row, column) of every coordinate, in coordinate order."""
        return [(key, r, c) for key, nrows, ncols in self.shapes
                for r in range(nrows) for c in range(ncols)]

    def pack(self, mats: dict) -> dict:
        out = {}
        for key, nrows, ncols in self.shapes:
            m = mats[key]
            assert (m.nrows, m.ncols) == (nrows, ncols)
            off = self.offsets[key]
            for r, row in enumerate(m.rows):
                for c, x in row.items():
                    out[off + r * ncols + c] = x
        return out

    def unpack(self, vec: dict) -> dict:
        """The matrices of a vector {coordinate: int or Fraction}, its
        values reduced into the field and its zeros dropped."""
        rows = {key: [{} for _ in range(nrows)] for key, nrows, _ in self.shapes}
        slots = self.slots
        for i, x in vec.items():
            key, r, c = slots[i]
            rows[key][r][c] = x
        return {key: Matrix.from_dicts(self.field, ncols, rows[key])
                for key, _, ncols in self.shapes}


def arrow_layout(m: Representation, n: Representation) -> MapLayout:
    """Coordinates of one matrix per arrow a, dim N(target a) x dim M(source a),
    in arrow order: the unknowns of the deformation system of (m, n)."""
    return MapLayout(m.field, [(a.name, n.dims[a.target], m.dims[a.source])
                               for a in m.algebra.quiver.arrows])


# ----------------------------------------------------------------------
# Hom


@dataclass
class HomSpace:
    """Echelon basis of the intertwiner space, as per-vertex matrices."""

    source: Representation
    target: Representation
    layout: MapLayout
    basis: list

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def packed_basis(self) -> list:
        return [self.layout.pack(b) for b in self.basis]

    def element(self, coeffs) -> dict:
        vec = {}
        for c, b in zip(coeffs, self.packed_basis):
            if c:
                _add_scaled(vec, c, b)
        return self.layout.unpack(vec)


def _same_algebra(m: Representation, n: Representation):
    if m.algebra != n.algebra:
        raise ValueError("representations live over different presentations")


def hom_equations(m: Representation, n: Representation):
    """(layout, equations) of the intertwiners T with T_t M_a = N_a T_s for all
    arrows: one sparse row per arrow a and entry (i, j) of its square."""
    _same_algebra(m, n)
    quiver = m.algebra.quiver
    layout = MapLayout(m.field, [(v, n.dims[v], m.dims[v]) for v in quiver.vertices])
    rows = []
    for a in quiver.arrows:
        ma, na = m.mats[a.name], n.mats[a.name]
        et, ds = n.dims[a.target], m.dims[a.source]
        dt_cols = m.dims[a.target]
        off_t = layout.offsets[a.target]
        off_s = layout.offsets[a.source]
        columns = ma.transpose().rows
        for i in range(et):
            na_row = na.rows[i]
            for j in range(ds):
                row = {}
                # (T_t M_a)[i, j] = sum_k T_t[i, k] M_a[k, j]
                for k, x in columns[j].items():
                    col = off_t + i * dt_cols + k
                    row[col] = row.get(col, 0) + x
                # (N_a T_s)[i, j] = sum_l N_a[i, l] T_s[l, j]
                for l, x in na_row.items():
                    col = off_s + l * ds + j
                    row[col] = row.get(col, 0) - x
                rows.append(row)
    return layout, Matrix.from_dicts(m.field, layout.total, rows)


def hom_basis(m: Representation, n: Representation) -> HomSpace:
    """Solve the intertwining equations T_t M_a = N_a T_s for all arrows.

    Relations impose nothing extra: any arrow-wise intertwiner between
    valid modules automatically respects them.
    """
    layout, equations = hom_equations(m, n)
    basis = [layout.unpack(v) for v in kernel_basis(equations)]
    return HomSpace(m, n, layout, basis)


def hom_dim(m: Representation, n: Representation) -> int:
    """dim Hom(M, N), counted as the unknowns of δ = hom_equations(M, N) less
    its rank: DeformationSystem.hom_dim of (m, n)'s system."""
    return deformation_system(m, n).hom_dim


def is_homomorphism(m: Representation, n: Representation, maps: dict) -> bool:
    return all((maps[a.target] * m.mats[a.name] - n.mats[a.name] * maps[a.source]).is_zero()
               for a in m.algebra.quiver.arrows)


# ----------------------------------------------------------------------
# isomorphism testing


@dataclass
class IsoResult:
    kind: str  # "iso" | "not_iso" | "unknown"
    witness: dict | None = None
    reason: str | None = None


def _invertible(maps: dict, dims: dict) -> bool:
    return all(maps[v].nrows == maps[v].ncols and rank(maps[v]) == d for v, d in dims.items())


# iso_test sweeps a prime field's Hom(M, N) whole if it has at most
# ISO_POINT_BUDGET elements; otherwise it tries the unit vectors, the
# all-ones vector and ISO_TRIALS vectors with entries in -3..3 drawn from
# Random(ISO_SEED)
ISO_POINT_BUDGET = 10**6
ISO_TRIALS = 200
ISO_SEED = 20240811


def iso_test(m: Representation, n: Representation) -> IsoResult:
    """Certified Iso or NotIso where possible, Unknown otherwise.

    NotIso is only ever certified by a dimension-vector mismatch or by
    asymmetric Hom dimensions; a fruitless search is reported as Unknown.
    The candidates are tried in a fixed order and the first isomorphism
    is the witness.
    """
    _same_algebra(m, n)
    field = m.field
    quiver = m.algebra.quiver
    if m.dim_vector != n.dim_vector:
        return IsoResult("not_iso", reason="dimension vectors differ")
    if m.total_dim == 0:
        return IsoResult("iso", witness={v: Matrix.zeros(field, 0, 0) for v in quiver.vertices})
    if m.dims == n.dims and m.mats == n.mats:
        return IsoResult("iso", witness={v: Matrix.identity(field, m.dims[v]) for v in quiver.vertices})
    hom_mn = hom_basis(m, n)
    h = hom_mn.dim
    if not h:
        candidates = ()
    elif field.is_prime_field and field.p ** h <= ISO_POINT_BUDGET:
        candidates = filter(any, itertools.product(range(field.p), repeat=h))
    else:
        # drawn lazily, as the search reaches them
        rng = random.Random(ISO_SEED)
        candidates = itertools.chain(
            ([field.one() if j == i else field.zero() for j in range(h)] for i in range(h)),
            [[field.one()] * h],
            ([field.scalar(rng.randint(-3, 3)) for _ in range(h)] for _ in range(ISO_TRIALS)))
    for coeffs in candidates:
        candidate = hom_mn.element(coeffs)
        if _invertible(candidate, m.dims) and is_homomorphism(m, n, candidate):
            return IsoResult("iso", witness=candidate)
    # M ≅ N forces dim Hom(N, M) = dim Hom(M, N), so the reverse Hom is built
    # only now, to certify NotIso when the search finds no isomorphism
    hom_nm = hom_basis(n, m)
    if hom_nm.dim != h:
        return IsoResult("not_iso", reason=f"dim Hom asymmetry {h} vs {hom_nm.dim}")
    return IsoResult("unknown")


# ----------------------------------------------------------------------
# radical, top, subquotients


def radical_subspaces(m: Representation) -> dict:
    """Per vertex, the echelon form of the span of the arrow images (the
    radical, J nilpotent): the columns of the arrows into it."""
    m.algebra.require_basis("radical")
    quiver = m.algebra.quiver
    return {v: row_space([col for a in quiver.arrows_into(v)
                          for col in m.mats[a.name].transpose().rows], m.field, m.dims[v])
            for v in quiver.vertices}


def sub_from_maps(m: Representation, bases: dict) -> Representation:
    """Subrepresentation spanned by the given sparse vectors; must be arrow-stable."""
    incl = {}
    for v in m.algebra.quiver.vertices:
        vecs = bases.get(v, [])
        incl[v] = Matrix(m.field, len(vecs), m.dims[v], vecs).transpose()
        if vecs and rank(incl[v]) != len(vecs):
            raise ValueError(f"vectors at vertex {v} are dependent")
    mats = {}
    for a in m.algebra.quiver.arrows:
        x = solve_matrix(incl[a.target], m.mats[a.name] * incl[a.source])
        if x is None:
            raise NotInvariant(f"subspace not stable under arrow {a.name}")
        mats[a.name] = x
    return Representation(m.algebra, {v: mat.ncols for v, mat in incl.items()}, mats)


def radical(m: Representation) -> Representation:
    return sub_from_maps(m, {v: rad.rows for v, rad in radical_subspaces(m).items()})


def top(m: Representation) -> Representation:
    """M modulo its radical; every arrow acts by zero there."""
    return Representation(m.algebra, {v: len(c) for v, c in m.top_columns.items()}, {})


# ----------------------------------------------------------------------
# projective cover and syzygy


def projective_cover(m: Representation):
    """Smallest projective mapping onto M: (P, cover, summands).

    One projective summand Λe_v per top column c of M_v, summands listing
    their vertices v in order; the cover on that summand is the Yoneda map
    yoneda_homs(v, M)[c], which sends e_v to e_c, and the cover at w puts
    the summands' blocks side by side.  Each cover[w] is row-reduced once,
    for its kernel, whose dimension dim P_w - dim M_w certifies it onto.
    """
    p, cover, parts, _ = _cover(m)
    return p, cover, [v for v, _ in parts]


def _cover(m: Representation):
    """(P, cover, parts, kernels): projective_cover's P and cover, per summand
    (its vertex, the cover's map on it), and per w the echelon kernel of
    cover[w], which certifies the cover onto and is ΩM's basis at w."""
    m.algebra.require_basis("projective cover")
    algebra = m.algebra
    parts = [(v, phi) for v, columns in m.top_columns.items() if columns
             for phi in _yoneda_maps(v, m, columns)]
    p = (direct_sum_many([algebra.left_projective(v) for v, _ in parts]) if parts
         else Representation(algebra, {}, {}))
    cover, kernels = {}, {}
    for w in algebra.quiver.vertices:
        cover[w] = functools.reduce(Matrix.hstack, [phi[w] for _, phi in parts],
                                    Matrix.zeros(m.field, m.dims[w], 0))
        kernels[w] = kernel_basis(cover[w])
        if len(kernels[w]) != p.dims[w] - m.dims[w]:
            raise AssertionError(f"cover not surjective at vertex {w}")
    return p, cover, parts, kernels


def yoneda_homs(v: str, n: Representation) -> list:
    """A basis of Hom(Λe_v, N), Λe_v = algebra.left_projective(v) (Yoneda:
    Hom(Λe_v, N) ≅ e_vN), read off N without solving a system: the map for
    basis vector e_i of N_v sends the basis path q of Λe_v to N(q)e_i.  The
    maps are homomorphisms when N satisfies the relations.
    """
    return _yoneda_maps(v, n, range(n.dims[v]))


def _yoneda_maps(v: str, n: Representation, columns) -> list:
    """The maps of yoneda_homs(v, N) for the basis vectors e_c of N_v, c in
    columns, evaluated once per (v, columns) and kept on N: so a cover reads
    only its top columns.  N's basis-path values on them come from one pass
    over the basis nodes from v in tree order, as the basis paths are closed
    under prefixes; a path through a zero value is zero, so one product is
    taken per basis path whose parent's value is nonzero.  The values are
    held transposed, N(q)ᵀ restricted to the columns, so each product costs
    the nonzeros it meets."""
    if (key := (v, *columns)) in n._yoneda:
        return n._yoneda[key]
    field, algebra, tree = n.field, n.algebra, n.algebra.tree
    nodes = {w: [algebra.basis_nodes[j] for j in js] for w, js in algebra.paths_from[v].items()}
    transposed = {name: m.transpose() for name, m in n.mats.items()}
    ordered = sorted(node for at_w in nodes.values() for node in at_w)  # e_v first
    values = {ordered[0]: Matrix(field, len(columns), n.dims[v], [{c: field.one()} for c in columns])}
    for node in ordered[1:]:
        parent = values.get(tree.parents[node])
        if parent is not None and not (value := parent * transposed[tree.steps[node].name]).is_zero():
            values[node] = value
    # the map at w has column k N(q_k) restricted to c_i, q_k the k-th basis path v -> w
    n._yoneda[key] = [{w: Matrix(field, len(at_w), n.dims[w], [
        values[node].rows[i] if node in values else {} for node in at_w]).transpose()
        for w, at_w in nodes.items()} for i in range(len(columns))]
    return n._yoneda[key]


def syzygy_data(m: Representation):
    """(blocks, ΩM, incl): ΩM the kernel of the projective cover P -> M, incl
    its inclusion into P and, per summand Λe_v of P in order, (v, {w: its
    rows of incl[w]}).  Each vector of ΩM's basis at w, the echelon kernel of
    cover[w], is 1 at its free column and 0 at the others: so ΩM's X for a:
    s -> t is P_a·incl_s at cover[t]'s free columns, if incl_t·X is that."""
    p, _, parts, kernels = _cover(m)
    field, algebra = m.field, m.algebra
    incl = {w: Matrix(field, len(k), p.dims[w], k).transpose() for w, k in kernels.items()}
    mats = {}
    for a in algebra.quiver.arrows:
        image = p.mats[a.name] * incl[a.source]
        # a kernel vector's free column is its last nonzero coordinate
        x = Matrix(field, len(kernels[a.target]), image.ncols,
                   [image.rows[max(vec)] for vec in kernels[a.target]])
        if incl[a.target] * x != image:
            raise NotInvariant(f"subspace not stable under arrow {a.name}")
        mats[a.name] = x
    rows = {w: iter(mat.rows) for w, mat in incl.items()}  # each summand takes the next rows
    blocks = [(v, {w: Matrix(field, at_w.ncols, incl[w].ncols, [next(rows[w]) for _ in range(at_w.ncols)])
                   for w, at_w in phi.items()}) for v, phi in parts]
    return blocks, Representation(algebra, {w: len(k) for w, k in kernels.items()}, mats), incl


def syzygy(m: Representation) -> Representation:
    """Kernel of the projective cover; dim = dim P - dim M."""
    return syzygy_data(m)[1]


# ----------------------------------------------------------------------
# Ext^1, three routes


def ext1_syzygy(m: Representation, n: Representation) -> int:
    """dim Ext^1 as dim Hom(ΩM, N) minus the rank of the restrictions to ΩM
    of Hom(P, N), P = ⊕ Λe_v the projective cover, each summand's maps
    applied to its rows of ΩM's inclusion; Hom(Λe_v, N) is read off N
    (Yoneda), once per module and vertex.  dim Hom(ΩM, N) is counted as the
    unknowns of hom_equations(ΩM, N) less its rank.

    N must satisfy the relations, or the Yoneda maps are not homomorphisms.
    """
    m.algebra.require_basis("syzygy route to Ext")
    blocks, omega, _ = syzygy_data(m)
    layout, delta = hom_equations(omega, n)
    image = [layout.pack({w: phi[w] * block[w] for w in block})
             for v, block in blocks for phi in yoneda_homs(v, n)]
    return layout.total - rank(delta) - rank(Matrix(m.field, len(image), layout.total, image))


def ext1_hereditary(m: Representation, n: Representation) -> int:
    """The Euler form of the quiver, valid when the algebra is the path
    algebra kQ: no ideal generators, truncated or not."""
    if m.algebra.generating_relations():
        raise NotHereditary(
            "closed form only valid with no relations and no path as long as the truncate bound")
    _same_algebra(m, n)
    quiver = m.algebra.quiver
    arrows_term = sum(m.dims[a.source] * n.dims[a.target] for a in quiver.arrows)
    vertex_term = sum(m.dims[v] * n.dims[v] for v in quiver.vertices)
    return arrows_term - vertex_term + hom_dim(m, n)


def ext1_cocycle(m: Representation, n: Representation) -> int:
    """dim Ext^1 as dim Z - dim B, by rank: the cocycles Z of the first-order
    deformation equations and the coboundaries B, the column space of δ.
    B lies in Z, so no quotient is formed, and no basis of Z."""
    system = deformation_system(m, n)
    return system.layout.total - system.equations_echelon.rank - system.coboundaries.rank


def ext1_dim(m: Representation, n: Representation, backend: str = "cocycle") -> int:
    """Dimension of Ext^1; backend 'all' cross-checks every applicable route:
    the syzygy route when the algebra has a basis, the Euler form when it has
    no ideal generators, both when a truncation bound kills no path.  The
    cocycle route and the Euler form read (m, n)'s one DeformationSystem.
    """
    if backend == "cocycle":
        return ext1_cocycle(m, n)
    if backend == "syzygy":
        return ext1_syzygy(m, n)
    if backend == "hereditary":
        return ext1_hereditary(m, n)
    if backend == "all":
        dims = {"cocycle": ext1_cocycle(m, n)}
        if not m.algebra.generating_relations():
            dims["hereditary"] = ext1_hereditary(m, n)
        if m.algebra.has_basis:
            dims["syzygy"] = ext1_syzygy(m, n)
        values = set(dims.values())
        if len(values) != 1:
            raise AssertionError(f"Ext backends disagree: {dims}")
        return values.pop()
    raise ValueError(f"unknown backend {backend!r}")


# ----------------------------------------------------------------------
# stable Hom


def hom_stable(m: Representation, n: Representation) -> int:
    """dim Hom(M, N) minus the maps that factor through a projective.

    Every map factoring through any projective factors through the cover
    P(N) = ⊕ Λe_v of N, so the projectively-trivial maps are the composites
    yoneda_homs(v, N)[c] ∘ t, c a top column of N at v and t a basis map of
    Hom(M, Λe_v), solved once per vertex v with top columns; no P(N) is
    built, and N's top columns and Yoneda maps are those its cover reads,
    kept on N.  dim Hom(M, N) is counted, not solved, as the number of
    unknowns less the rank of δ = hom_equations(M, N), which is the rank of
    the coboundaries of (m, n)'s DeformationSystem.
    """
    m.algebra.require_basis("stable Hom")
    system = deformation_system(m, n)
    layout = system.delta[0]
    image = [layout.pack({w: phi[w] * t[w] for w in t})
             for v, columns in n.top_columns.items() if columns
             for t in hom_basis(m, m.algebra.left_projective(v)).basis
             for phi in _yoneda_maps(v, n, columns)]
    return layout.total - system.coboundaries.rank - rank(Matrix(m.field, len(image), layout.total, image))


# ----------------------------------------------------------------------
# first-order deformation system


class DeformationSystem:
    """The linear part of the relation equations around a pair (M, N).

    Unknowns are per-arrow matrices B_a of shape dim N(target) x
    dim M(source).  For every ideal generator the directional derivative
    replaces one arrow occurrence at a time by B: the path p = u·a·w (w
    first, then a, then u) gives the term N(u)·B_a·M(w).  Each generator path
    is walked from its last arrow until N(u) is zero, and a term costs the
    nonzero entries of N(u) times those of M(w), which the modules keep
    (N.suffix_value, M.prefix_value).  The kernel is the cocycle space; for
    M == N it is also the space of valid first-order lift coefficients, and
    the same equations drive every higher-order extension step.  The
    equations are sparse rows, one per generator and entry of its block, in
    generator order; most of them are zero rows.  They are eliminated forward
    once, and δ's columns once: Ext^1(M, N) = Z/B is counted from the ranks.

    A system keeps only the dimensions of M and N, not the modules: M keeps
    its systems (deformation_system), so a reference back would be a cycle.
    """

    def __init__(self, m: Representation, n: Representation):
        _same_algebra(m, n)
        self.field, self.dims = m.field, (m.dims, n.dims)
        self.relations = m.algebra.generating_relations()
        self.layout = arrow_layout(m, n)
        tree, offsets, rows = m.algebra.tree, self.layout.offsets, []
        for rel, terms in zip(self.relations, m.algebra.generator_terms):
            block = [{} for _ in range(n.dims[rel.target] * m.dims[rel.source])]
            for coeff, node in terms:
                names, left = (), Matrix.identity(self.field, n.dims[rel.target])  # N(u), u empty
                while left is not None and (parent := tree.parents[node]) >= 0:
                    arrow = tree.steps[node]
                    if (right := m.prefix_value(parent)) is not None:  # M(w), w = parent
                        for r, nonzero in enumerate(left.rows):
                            for alpha, x in nonzero.items():
                                x *= coeff
                                for beta, values in enumerate(right.rows):
                                    col = offsets[arrow.name] + alpha * right.nrows + beta
                                    for c, y in values.items():
                                        entries = block[r * right.ncols + c]
                                        entries[col] = entries[col] + x * y if col in entries else x * y
                    names, node = (arrow.name, *names), parent
                    left = n.suffix_value(names) if tree.parents[parent] >= 0 else None
            rows += block
        self.equations = Matrix.from_dicts(self.field, self.layout.total, rows)
        # the matrix of the map δ: C -> (C_t M_a - N_a C_s)_a, whose kernel is Hom(M, N)
        self.delta = hom_equations(m, n)

    @cached_property
    def equations_echelon(self) -> RowEchelon:
        """Forward echelon form of the equations, their one elimination: dim Z
        is the unknowns less its rank."""
        return echelon(self.equations)

    @cached_property
    def cocycles(self) -> list:
        """Echelon basis of the kernel of the equations (the cocycles Z), as
        sparse packed vectors; back-substitutes equations_echelon on first use."""
        return kernel_basis(self.equations_echelon)

    @cached_property
    def hom_dim(self) -> int:
        """dim Hom(M, N): the unknowns of δ less its rank.  δ's rows are
        eliminated forward here, apart from the column elimination behind
        coboundaries, so the hereditary closed form checks the cocycle route."""
        layout, delta = self.delta
        return layout.total - rank(delta)

    @cached_property
    def coboundaries(self) -> RowEchelon:
        """Forward echelon form of the coboundaries B, the image of δ; computed
        on first use.  The rows of δ are indexed by this system's packed arrow
        coordinates, so B is spanned by its columns.
        """
        return echelon(self.delta[1].transpose())

    def is_coboundary(self, mats: dict) -> bool:
        return in_row_span(self.coboundaries, self.layout.pack(mats))

    def solve_step(self, rhs_blocks: list):
        """Solve D(B) = -(stacked residual blocks); same row order as the equations."""
        rhs = {}
        pos = 0
        m_dims, n_dims = self.dims
        for rel, block in zip(self.relations, rhs_blocks):
            assert (block.nrows, block.ncols) == (n_dims[rel.target], m_dims[rel.source])
            for r, row in enumerate((-block).rows):
                for c, x in row.items():
                    rhs[pos + r * block.ncols + c] = x
            pos += block.nrows * block.ncols
        return solve_affine(self.equations, rhs)


def deformation_system(m: Representation, n: Representation) -> DeformationSystem:
    """The DeformationSystem of (m, n), built on first use and kept on m.

    The memo is keyed by n's identity, not by equality: a module parsed
    again, as a certificate check does, gets a system of its own.  It holds
    n through a weak reference, so it keeps no module alive and makes no
    cycle; an entry whose n has died is rebuilt if its id comes back.
    """
    entry = m._systems.get(id(n))
    if entry is None or entry[0]() is not n:
        entry = m._systems[id(n)] = (weakref.ref(n), DeformationSystem(m, n))
    return entry[1]
