"""Finite dimensional quiver algebras presented by relations and truncation.

A presentation is a quiver, a list of relations (linear combinations of
parallel paths) and a truncation bound m that kills every path of length m.
The algebra is the path algebra modulo the ideal generated by the relations
and the length-m paths; truncation makes it finite dimensional, with a
canonical basis of path representatives.  Every path fact is read from one
quiver.PathTree, grown with the algebra: every path of length <= m in
degree-lex order, then the relation paths longer than m.  The nodes shorter
than m are the columns of the relation span and carry their coordinates, a
{basis index: value} dict of nonzero canonical values like every vector in
linalg; the length-m nodes are generators, and a path times an arrow is a
child node.

A truncation bound materialises the basis; without one (and so with no
relation) the algebra may be infinite dimensional, and what needs the radical
filtration refuses to run (require_basis).  With no ideal generators, no
relation and no path as long as the bound, the algebra is the path algebra kQ:
no deformation chain obstructs and Ext^1 has the Euler form.
"""

from __future__ import annotations

import functools

from .dsl import Relation
from .fields import FieldSpec
from .linalg import Matrix, row_space
from .quiver import Path, PathTree, Quiver


class HereditaryModeUnsupported(Exception):
    """Raised by operations that need the basis a truncation bound materialises."""


class PresentedAlgebra:
    """A presented quiver algebra with its canonical path basis.

    With a truncation bound the basis consists of the path representatives left
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
        self.tree = PathTree()
        self.short = 0  # the tree's nodes shorter than the bound come first
        self.basis_nodes: list | None = None  # basis index -> its node
        self._coords: list | None = None  # node of length <= the bound -> its coordinates
        # vertex v -> target w -> indices of the basis paths v -> w, in basis order
        self.paths_from: dict | None = None
        # vertex -> (dims, mats) of its left projective, built on first use; a
        # Representation here would make a reference cycle with the algebra
        self._projectives = {}
        if truncate is not None:
            self.short = self.tree.grow(quiver, truncate)
            self._build()
        one = field.one()
        grown = range(self.short, len(self.tree.parents))  # the length-m nodes
        self._generators = tuple(self.relations) + tuple(
            Relation(((one, p),), p.source, p.target) for p in map(self.tree.path, grown))
        # per generator its nonzero terms as (coefficient, node of the path)
        self.generator_terms = tuple(
            tuple((c, self.tree.add(p)) for c, p in rel.terms if c) for rel in self.relations
        ) + tuple(((one, node),) for node in grown)
        self.prefixes = set()  # the nodes that prefix a generator path, those paths included
        for _, node in (term for terms in self.generator_terms for term in terms):
            while node >= 0 and node not in self.prefixes:
                self.prefixes.add(node)
                node = self.tree.parents[node]

    @classmethod
    def from_source(cls, src) -> "PresentedAlgebra":
        return cls(src.field, src.quiver, src.relations, src.truncate)

    def __eq__(self, other):
        return (
            isinstance(other, PresentedAlgebra)
            and self.field == other.field
            and self.quiver == other.quiver
            and self.truncate == other.truncate
            and self.relations == other.relations
        )

    def __repr__(self):
        mode = "untruncated" if self.truncate is None else f"truncated at {self.truncate}"
        return f"PresentedAlgebra({self.quiver!r}, {mode})"

    # ------------------------------------------------------------------

    def generating_relations(self) -> tuple:
        """Ideal generators: the declared relations plus all length-m paths,
        computed once with the algebra; none exactly when it is the path algebra."""
        return self._generators

    @property
    def has_basis(self) -> bool:
        """Whether a truncation bound materialised the basis; builds nothing."""
        return self.basis_nodes is not None

    @functools.cached_property
    def basis(self) -> list | None:
        """The basis paths, built on first read; None without a truncation bound."""
        return None if self.basis_nodes is None else list(map(self.tree.path, self.basis_nodes))

    def require_basis(self, what: str):
        """Refuse what needs the basis when no truncation bound materialised it."""
        if not self.has_basis:
            raise HereditaryModeUnsupported(
                f"{what} needs the radical filtration of a truncated presentation")

    @property
    def dimension(self) -> int:
        self.require_basis("dimension")
        return len(self.basis_nodes)

    # ------------------------------------------------------------------
    # basis construction (with a truncation bound)

    def _build(self):
        """The basis and the coordinates of the nodes; their paths are built
        only to span the relations' multiples."""
        m = self.truncate
        n = self.short
        zero = self.field.zero()
        scalar = self.field.scalar
        generators = []
        seen = set()
        if self.relations:
            paths = self.tree.fold(Path.trivial,
                                   lambda a, p: Path(p.arrows + (a,), p.source, a.target))
        for rel in self.relations:
            suffixes = [y for y in range(n) if paths[y].target == rel.source]
            prefixes = [x for x in paths[:n] if x.source == rel.target]
            for y in suffixes:
                for x in prefixes:
                    vec = {}
                    for coeff, p in rel.terms:
                        if paths[y].length + p.length + x.length < m:
                            i = self.tree.walk(y, p.arrows + x.arrows)
                            vec[i] = vec.get(i, zero) + coeff
                    vec = {i: s for i, c in vec.items() if (s := scalar(c))}
                    key = tuple(sorted(vec.items()))
                    if vec and key not in seen:
                        seen.add(key)
                        generators.append(vec)
        ech = row_space(generators, self.field, n)
        pivot_set = set(ech.pivots)
        free = [i for i in range(n) if i not in pivot_set]
        position = {col: j for j, col in enumerate(free)}
        self.basis_nodes = free
        # a basis path is its own coordinate; a pivot path is minus the free
        # part of its reduced echelon row; a length-m path is 0
        one = self.field.one()
        self._coords = [{}] * len(self.tree.parents)
        for j, col in enumerate(free):
            self._coords[col] = {j: one}
        for c, row in zip(ech.pivots, ech.rows):
            self._coords[c] = {position[i]: scalar(-x) for i, x in row.items() if i != c}
        self.paths_from = {v: {w: [] for w in self.quiver.vertices} for v in self.quiver.vertices}
        ends = self.tree.fold(lambda v: (v, v), lambda a, up: (up[0], a.target))
        for j, node in enumerate(free):
            source, target = ends[node]
            self.paths_from[source][target].append(j)
        for rel in self.relations:
            if self.reduce_terms(rel.terms):
                raise AssertionError(f"relation {rel.label()} does not reduce to zero")

    def reduce_path(self, path: Path) -> dict:
        """Coordinates {basis index: value} of a path in the canonical basis,
        empty if truncated away; the dict is shared and must not be changed."""
        self.require_basis("path reduction")
        if path.length >= self.truncate:
            return {}
        return self._coords[self.tree.walk(self.tree.nodes[(-1, path.source)], path.arrows)]

    def reduce_terms(self, terms) -> dict:
        """Reduce a linear combination of paths to basis coordinates."""
        zero = self.field.zero()
        out = {}
        for coeff, p in terms:
            if coeff:
                for j, x in self.reduce_path(p).items():
                    out[j] = out.get(j, zero) + coeff * x
        return {j: s for j, x in out.items() if (s := self.field.scalar(x))}

    # ------------------------------------------------------------------

    def left_projective(self, v: str):
        """The projective module generated at a vertex.

        Its basis is the set of canonical basis paths starting at v; an
        arrow acts by extending the path at its target end and reducing.
        Its matrices are built once per vertex.
        """
        from .rep import Representation

        self.require_basis("projective")
        if v not in self.quiver.vertex_set:
            raise KeyError(v)
        if v in self._projectives:
            return Representation(self, *self._projectives[v])
        listing = self.paths_from[v]
        dims = {w: len(js) for w, js in listing.items()}
        slot = {j: k for js in listing.values() for k, j in enumerate(js)}
        mats = {}
        for a in self.quiver.arrows:
            rows = [{} for _ in range(dims[a.target])]
            for k, j in enumerate(listing[a.source]):
                child = self.tree.nodes[(self.basis_nodes[j], a.name)]  # basis path j, then a
                for i, x in self._coords[child].items():
                    rows[slot[i]][k] = x
            mats[a.name] = Matrix(self.field, dims[a.target], dims[a.source], rows)
        self._projectives[v] = dims, mats
        return Representation(self, dims, mats)
