"""Quivers and composable paths.

A path stores its arrows in application order: path (a, b) means "a first,
then b", so it runs from source(a) to target(b) and acts on a representation
as M_b composed with M_a (column vector convention, matrices multiply on
the left).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Path:
    """A composable arrow sequence, or a trivial path at a vertex.  Its hash
    is taken once, at construction, from the arrow names, and kept outside
    the fields, so out of == and repr."""

    arrows: tuple
    source: str
    target: str

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.source, self.target,
                                                *(a.name for a in self.arrows))))

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def trivial(cls, vertex: str) -> "Path":
        return cls((), vertex, vertex)

    @property
    def length(self) -> int:
        return len(self.arrows)

    def then(self, other: "Path") -> "Path":
        """self first, then other; requires target(self) == source(other)."""
        if self.target != other.source:
            raise ValueError(f"paths do not compose: {self} then {other}")
        return Path(self.arrows + other.arrows, self.source, other.target)

    def label(self) -> str:
        if not self.arrows:
            return f"e_{self.source}"
        return "*".join(a.name for a in self.arrows)

    def __repr__(self):
        return self.label()


class PathTree:
    """Paths stored as nodes, each shared prefix once.

    A node is the trivial path at a vertex (parent -1, step the vertex) or
    its parent node followed by one arrow (step that arrow).  Parents come
    before their children, so one pass in node order evaluates every
    prefix from its parent's value.
    """

    def __init__(self):
        self.parents = []  # node -> parent node, -1 for a trivial path
        self.steps = []  # node -> its last arrow, or the vertex of a trivial path
        self.nodes = {}  # (parent, arrow name or vertex) -> node

    def _child(self, parent: int, key: str, step) -> int:
        node = self.nodes.get((parent, key))
        if node is None:
            node = self.nodes[(parent, key)] = len(self.parents)
            self.parents.append(parent)
            self.steps.append(step)
        return node

    def grow(self, quiver: Quiver, length: int) -> int:
        """Add every path of length <= length in degree-lex order: the trivial
        paths in vertex order, then level by level each node of the last level
        extended by the arrows in input order.  Returns the first node of the
        last level, on an empty tree the number of paths shorter than length."""
        level = [(self._child(-1, v, v), v) for v in quiver.vertices]
        for _ in range(length):
            level = [(self._child(node, a.name, a), a.target)
                     for node, v in level for a in quiver.arrows if a.source == v]
        return len(self.parents) - len(level)

    def add(self, path: Path) -> int:
        """The node of path, added with its prefixes unless already present."""
        node = self._child(-1, path.source, path.source)
        for arrow in path.arrows:
            node = self._child(node, arrow.name, arrow)
        return node

    def path(self, node: int) -> Path:
        """The path of a node, read back along its parents."""
        arrows = []
        while self.parents[node] >= 0:
            arrows.append(self.steps[node])
            node = self.parents[node]
        vertex = self.steps[node]
        return Path(tuple(reversed(arrows)), vertex, arrows[0].target if arrows else vertex)

    def walk(self, node: int, arrows) -> int:
        """The node of node's path followed by arrows, which must be in the tree."""
        for arrow in arrows:
            node = self.nodes[(node, arrow.name)]
        return node

    def fold(self, root, step) -> list:
        """Values of the nodes: root(vertex) at a trivial path, else
        step(arrow, value of the parent)."""
        values = []
        for parent, s in zip(self.parents, self.steps):
            values.append(root(s) if parent < 0 else step(s, values[parent]))
        return values


class Quiver:
    """A finite quiver with named vertices and arrows, in input order."""

    def __init__(self, vertices, arrows):
        self.vertices = tuple(vertices)
        self.arrows = tuple(arrows)
        self.vertex_set = set(self.vertices)
        if len(self.vertex_set) != len(self.vertices):
            raise ValueError("duplicate vertex")
        self.arrow_by_name = {}
        for a in self.arrows:
            if a.name in self.arrow_by_name:
                raise ValueError(f"duplicate arrow {a.name}")
            if a.source not in self.vertex_set or a.target not in self.vertex_set:
                raise ValueError(f"arrow {a.name} uses an unknown vertex")
            self.arrow_by_name[a.name] = a

    def arrows_into(self, v: str):
        return [a for a in self.arrows if a.target == v]

    def path(self, arrow_names) -> Path:
        """Compose named arrows in application order."""
        arrows = []
        for name in arrow_names:
            if name not in self.arrow_by_name:
                raise KeyError(name)
            arrows.append(self.arrow_by_name[name])
        if not arrows:
            raise ValueError("empty path needs a vertex")
        p = Path((arrows[0],), arrows[0].source, arrows[0].target)
        for a in arrows[1:]:
            p = p.then(Path((a,), a.source, a.target))
        return p

    def __eq__(self, other):
        return (
            isinstance(other, Quiver)
            and self.vertices == other.vertices
            and self.arrows == other.arrows
        )

    def __repr__(self):
        return f"Quiver(vertices={list(self.vertices)}, arrows={[a.name for a in self.arrows]})"
