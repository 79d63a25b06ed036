"""Finite dimensional quiver algebras presented by relations and truncation.

A presentation is a quiver, a list of relations (linear combinations of
parallel paths) and a truncation bound m that kills every path of length m.
The algebra is the path algebra modulo the ideal generated by the relations
and the length-m paths; truncation makes it finite dimensional, with a
canonical basis of path representatives.

Relation-free inputs without a truncation bound are kept in hereditary mode:
no basis is materialized (the path algebra may be infinite dimensional) and
the operations that need the radical filtration refuse to run.
"""

from __future__ import annotations

from .dsl import Relation
from .fields import FieldSpec
from .linalg import Matrix, row_space
from .quiver import Path, PathTree, Quiver


class HereditaryModeUnsupported(Exception):
    """Raised by operations that need a finite dimensional presented algebra."""


class PresentedAlgebra:
    """A presented quiver algebra with its canonical path basis.

    In truncated mode the basis consists of the path representatives left
    over after row-reducing the relation span in degree-lex path order, and
    reduce_path projects any path onto that basis.  Multiplication is path
    concatenation followed by reduction.
    """

    def __init__(self, field: FieldSpec, quiver: Quiver, relations: list, truncate: int | None):
        if truncate is None and relations:
            raise ValueError("relations require a truncation bound")
        self.field = field
        self.quiver = quiver
        self.relations = list(relations)
        self.truncate = truncate
        self.basis: list | None = None
        self.basis_index: dict | None = None
        self._reduction: dict | None = None
        self._generators = ()
        # vertex -> (dims, mats) of its left projective, built on first use; a
        # Representation here would make a reference cycle with the algebra
        self._projectives = {}
        if truncate is not None:
            one = field.one()
            self._generators = tuple(self.relations) + tuple(
                Relation(((one, p),), p.source, p.target)
                for p in quiver.paths_of_length(truncate))
            self._build()
        # the generator paths with their prefixes shared, and per generator
        # its nonzero terms as (coefficient, node of the path)
        self.generator_tree = PathTree()
        self.generator_terms = tuple(
            tuple((c, self.generator_tree.add(p)) for c, p in rel.terms if c)
            for rel in self._generators)

    @classmethod
    def from_source(cls, src) -> "PresentedAlgebra":
        return cls(src.field, src.quiver, src.relations, src.truncate)

    @property
    def hereditary(self) -> bool:
        return self.truncate is None

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAlgebra)
            and self.field == other.field
            and self.quiver == other.quiver
            and self.truncate == other.truncate
            and self.relations == other.relations
        )

    def __repr__(self):
        mode = "hereditary" if self.hereditary else f"truncated at {self.truncate}"
        return f"PresentedAlgebra({self.quiver!r}, {mode})"

    # ------------------------------------------------------------------

    def generating_relations(self) -> tuple:
        """Ideal generators: the declared relations plus all length-m paths,
        computed once with the algebra (none in hereditary mode)."""
        return self._generators

    @property
    def dimension(self) -> int:
        if self.hereditary:
            raise HereditaryModeUnsupported(
                "hereditary mode materializes no finite basis; add a truncate bound")
        return len(self.basis)

    # ------------------------------------------------------------------
    # basis construction (truncated mode)

    def _build(self):
        m = self.truncate
        paths = self.quiver.paths_up_to(m - 1)
        index = {p: i for i, p in enumerate(paths)}
        n = len(paths)
        zero = self.field.zero()
        scalar = self.field.scalar
        generators = []
        seen = set()
        for rel in self.relations:
            suffixes = [y for y in paths if y.target == rel.source]
            prefixes = [x for x in paths if x.source == rel.target]
            for y in suffixes:
                for x in prefixes:
                    vec = {}
                    for coeff, p in rel.terms:
                        arrows = y.arrows + p.arrows + x.arrows
                        if len(arrows) < m:
                            i = index[Path(arrows, y.source, x.target)]
                            vec[i] = vec.get(i, zero) + coeff
                    vec = {i: s for i, c in vec.items() if (s := scalar(c))}
                    key = tuple(sorted(vec.items()))
                    if vec and key not in seen:
                        seen.add(key)
                        generators.append(vec)
        ech = row_space(generators, self.field, n)
        pivots, rows = ech.pivots, ech.rows
        pivot_set = set(pivots)
        self.basis = [p for i, p in enumerate(paths) if i not in pivot_set]
        self.basis_index = {p: i for i, p in enumerate(self.basis)}
        free_cols = [i for i in range(n) if i not in pivot_set]
        free_positions = {col: j for j, col in enumerate(free_cols)}
        # pivot path -> its expression in basis coordinates
        reduction = {}
        for r, c in enumerate(pivots):
            expr = [zero] * len(self.basis)
            for i, j in free_positions.items():
                expr[j] = scalar(-rows[r].get(i, zero))
            reduction[paths[c]] = tuple(expr)
        self._reduction = reduction
        for rel in self.relations:
            if any(self.reduce_terms(rel.terms)):
                raise AssertionError(f"relation {rel.label()} does not reduce to zero")

    def reduce_path(self, path: Path) -> tuple:
        """Coordinates of a path in the canonical basis (zero if truncated away)."""
        if self.hereditary:
            raise HereditaryModeUnsupported("no basis in hereditary mode")
        zero = self.field.zero()
        if path.length >= self.truncate:
            return tuple([zero] * len(self.basis))
        if path in self._reduction:
            return self._reduction[path]
        out = [zero] * len(self.basis)
        out[self.basis_index[path]] = self.field.one()
        return tuple(out)

    def reduce_terms(self, terms) -> tuple:
        """Reduce a linear combination of paths to basis coordinates."""
        out = [self.field.zero()] * len(self.basis)
        for coeff, p in terms:
            if coeff:
                for j, x in enumerate(self.reduce_path(p)):
                    out[j] += coeff * x
        return tuple(map(self.field.scalar, out))

    def multiply_basis(self, first: Path, then: Path) -> tuple:
        """Product of two basis paths, applied first-then, in basis coordinates."""
        if first.target != then.source:
            return tuple([self.field.zero()] * len(self.basis))
        return self.reduce_path(Path(first.arrows + then.arrows, first.source, then.target))

    # ------------------------------------------------------------------

    def left_projective(self, v: str):
        """The projective module generated at a vertex.

        Its basis is the set of canonical basis paths starting at v; an
        arrow acts by extending the path at its target end and reducing.
        Its matrices are built once per vertex.
        """
        from .rep import Representation

        if self.hereditary:
            raise HereditaryModeUnsupported("projectives need a truncated presentation")
        if v not in self.quiver.vertex_set:
            raise KeyError(v)
        if v in self._projectives:
            return Representation(self, *self._projectives[v])
        basis_v = [p for p in self.basis if p.source == v]
        by_vertex = {w: [p for p in basis_v if p.target == w] for w in self.quiver.vertices}
        slot = {}
        for w, plist in by_vertex.items():
            for i, p in enumerate(plist):
                slot[p] = i
        dims = {w: len(by_vertex[w]) for w in self.quiver.vertices}
        mats = {}
        for a in self.quiver.arrows:
            cols = []
            for p in by_vertex[a.source]:
                extended = Path(p.arrows + (a,), p.source, a.target)
                reduced = self.reduce_path(extended)
                col = [self.field.zero()] * dims[a.target]
                for j, coeff in enumerate(reduced):
                    if coeff:
                        q = self.basis[j]
                        assert q.source == v and q.target == a.target
                        col[slot[q]] = coeff
                cols.append(col)
            mats[a.name] = Matrix.from_columns(self.field, dims[a.target], cols)
        self._projectives[v] = dims, mats
        return Representation(self, dims, mats)
