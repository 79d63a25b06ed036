"""Seeded workload generators and their expected answers.

Each generator turns a seed into a list of `Item`s: `.alg` source text, the
module to classify, the `max_order` to classify it at, and the expected
verdict.  The expected verdicts come from the mathematics of each family or,
for corpus files, from the verdicts the README and the acceptance tests
state.  Nothing here imports defring, so the oracle is independent of the
engine it checks.

The work a pass does is meant not to depend on the seed: the seed draws
names, scalars, matrix entries, order pairs and item order, but the sizes
and the families are fixed per workload.  That keeps runs on different
seeds comparable.
"""

from __future__ import annotations

import itertools
import random
import string
from dataclasses import dataclass
from pathlib import Path

DEFAULT_MAX_ORDER = 10  # defring's ClassifyConfig default


@dataclass(frozen=True)
class Item:
    id: str
    text: str
    module: str
    max_order: int
    # verdict fields the report must carry: type, and N / proved /
    # max_order_checked where the family pins them
    expect: dict


# ----------------------------------------------------------------------
# text helpers


class Names:
    """Distinct random identifiers; never a DSL keyword (they all carry a digit)."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.used = set()

    def fresh(self, first: str) -> str:
        while True:
            tail = "".join(self.rng.choice(string.ascii_lowercase) for _ in range(2))
            name = f"{first}{self.rng.randrange(10)}{tail}"
            if name not in self.used:
                self.used.add(name)
                return name


def field_line(p: int | None) -> str:
    return "field Q" if p is None else f"field F {p}"


def render_matrix(rows: list) -> str:
    return "[" + ",".join("[" + ",".join(str(x) for x in r) + "]" for r in rows) + "]"


def quiver_block(vertices: list, arrows: list) -> str:
    lines = ["quiver", "  vertex " + " ".join(vertices)]
    lines += [f"  arrow {a}: {s} -> {t}" for a, s, t in arrows]
    return "\n".join(lines) + "\n"


def module_block(name: str, dims: dict, mats: dict) -> str:
    lines = [f"module {name}"]
    lines += [f"  dim {v} = {d}" for v, d in dims.items()]
    lines += [f"  mat {a} = {render_matrix(rows)}" for a, rows in mats.items()]
    return "\n".join(lines) + "\n"


def nonzero_scalar(rng: random.Random, p: int | None) -> int:
    if p is None:
        return rng.choice([-3, -2, -1, 1, 2, 3])
    return rng.randrange(1, p)


def field_tag(p: int | None) -> str:
    return "q" if p is None else f"f{p}"


# ----------------------------------------------------------------------
# ladder_search: the corpus plus the simple module of k[x]/(x^n)

# (file, module) -> expected verdict, as README.md and the acceptance and
# classify tests state them
CORPUS_EXPECT = {
    ("a2_f5.alg", "S1"): {"type": "point"},
    ("a2_f5.alg", "S2"): {"type": "point"},
    ("a2_f5.alg", "P1"): {"type": "point"},
    ("kronecker_f2.alg", "M11"): {"type": "power_series", "proved": True},
    ("kronecker_f3.alg", "M11"): {"type": "power_series", "proved": True},
    ("kronecker_q.alg", "M11"): {"type": "power_series", "proved": True},
    ("kx2_f2.alg", "V"): {"type": "finite", "n": 1},
    ("kx2_f3.alg", "V"): {"type": "finite", "n": 1},
    ("kx2_f5.alg", "V"): {"type": "finite", "n": 1},
    ("kx2_f5.alg", "P1"): {"type": "point"},
    ("kx2_f5.alg", "VV"): {"type": "out_of_scope"},
    ("kx2_f5.alg", "PV"): {"type": "inconclusive"},
    ("kx2_q.alg", "V"): {"type": "finite", "n": 1},
    ("kx2_q.alg", "P1"): {"type": "point"},
    ("kx2_rel_f5.alg", "V"): {"type": "finite", "n": 1},
    ("kx2_rel_f5.alg", "P1"): {"type": "point"},
    ("kx3_f2.alg", "V"): {"type": "finite", "n": 2},
    ("kx3_f3.alg", "V"): {"type": "finite", "n": 2},
    ("kx3_f5.alg", "V"): {"type": "finite", "n": 2},
    ("kx3_q.alg", "V"): {"type": "finite", "n": 2},
    ("kx4_f5.alg", "V"): {"type": "finite", "n": 3},
    ("kx4_q.alg", "V"): {"type": "finite", "n": 3},
    ("kx5_f5.alg", "V"): {"type": "finite", "n": 4},
    ("kx5_q.alg", "V"): {"type": "finite", "n": 4},
    ("loop_free_f2.alg", "V"): {"type": "power_series", "proved": True},
    ("loop_free_f3.alg", "V"): {"type": "power_series", "proved": True},
    ("loop_free_q.alg", "V"): {"type": "power_series", "proved": True},
    ("parallel_rel_f3.alg", "M"): {"type": "point"},
}

# field -> the n of k[x]/(x^n) in every pass.  Each item of the grid F_2
# n<=11, F_3 n<=7, F_5 n<=6, F_7 n<=5, Q n<=8 takes at most 4 s; the ranges
# are cut so that a pass of classify plus verify stays near eight seconds on
# a 2-core x86-64 machine with Python 3.11.  F_2 n=11 is the reached-bound
# case.
TRUNCATED_GRID = {
    2: [2, 3, 4, 5, 6, 7, 8, 9, 11],
    3: [2, 3, 4, 5, 6],
    5: [2, 3, 4, 5],
    7: [2, 3, 4],
    None: [2, 3, 4, 5, 6, 7],
}


def truncated_expect(n: int, max_order: int) -> dict:
    """The simple module of k[x]/(x^n) has R^w = k[[t]]/(t^n)."""
    if n - 1 < max_order:
        return {"type": "finite", "n": n - 1}
    return {"type": "power_series", "proved": False, "max_order_checked": max_order}


def truncated_item(rng: random.Random, p: int | None, n: int) -> Item:
    names = Names(rng)
    v, x, mod = names.fresh("v"), names.fresh("x"), names.fresh("V")
    text = (f"# simple module of k[x]/(x^{n})\n{field_line(p)}\n"
            + quiver_block([v], [(x, v, v)]) + f"truncate {n}\n\n"
            + module_block(mod, {v: 1}, {x: [[0]]}))
    return Item(f"kx{n}_{field_tag(p)}", text, mod, DEFAULT_MAX_ORDER,
                truncated_expect(n, DEFAULT_MAX_ORDER))


def corpus_items(corpus_dir: Path) -> list:
    """Every (file, module) pair of CORPUS_EXPECT, read from the corpus files."""
    items = []
    for (name, module), expect in sorted(CORPUS_EXPECT.items()):
        text = (corpus_dir / name).read_text(encoding="utf-8")
        if f"module {module}\n" not in text:
            raise ValueError(f"corpus file {name} has no module {module}")
        items.append(Item(f"{name[:-4]}:{module}", text, module, DEFAULT_MAX_ORDER, expect))
    return items


def ladder_search(seed: int, corpus_dir: Path) -> list:
    rng = random.Random(seed)
    items = corpus_items(corpus_dir)
    for p, ns in TRUNCATED_GRID.items():
        items += [truncated_item(rng, p, n) for n in ns]
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# ext_wide: local algebras k<loops>/J^L, point and out-of-scope verdicts

def paths_below(loops: list, length: int) -> list:
    return [p for k in range(length) for p in itertools.product(loops, repeat=k)]


def projective_plus_simples(loops: list, length: int, simples: int) -> tuple:
    """P = k<loops>/J^length on its path basis, plus `simples` copies of S.

    Arrow a sends the path p to p*a (p then a), or to zero once p*a has
    length `length`.
    """
    basis = paths_below(loops, length)
    index = {p: i for i, p in enumerate(basis)}
    dim = len(basis) + simples
    mats = {}
    for a in loops:
        rows = [[0] * dim for _ in range(dim)]
        for p, i in index.items():
            j = index.get(p + (a,))
            if j is not None:
                rows[j][i] = 1
        mats[a] = rows
    return dim, mats


def rank_mod_p(rows: list, p: int) -> int:
    rows = [[x % p for x in r] for r in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = pow(rows[rank][c], p - 2, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def generic(blocks: list, p: int) -> bool:
    """Each block, their side-by-side join and their stack have full rank.

    Then the grading is both the radical and the socle filtration and no
    arrow map drops rank, which keeps Hom and Ext dimensions (and so the
    work) the same from one draw to the next.
    """
    rows, cols = len(blocks[0]), len(blocks[0][0])
    joined = [sum((b[r] for b in blocks), []) for r in range(rows)]
    stacked = [r for b in blocks for r in b]
    return (all(rank_mod_p(b, p) == min(rows, cols) for b in blocks)
            and rank_mod_p(joined, p) == min(rows, cols * len(blocks))
            and rank_mod_p(stacked, p) == min(rows * len(blocks), cols))


def graded_plus_simple(rng: random.Random, loops: list, layers: tuple, p: int) -> tuple:
    """A random generic radical-graded module R (layer i -> layer i+1) plus S.

    Paths longer than the number of layers act as zero, so R satisfies the
    J^L relations when len(layers) <= L.  The S summand contributes
    Ext^1(S, S) = len(loops) >= 2, so the tangent dimension is at least 2
    whatever the random entries are.
    """
    dim = sum(layers) + 1
    offsets = [sum(layers[:i]) for i in range(len(layers))]
    mats = {a: [[0] * dim for _ in range(dim)] for a in loops}
    for i in range(len(layers) - 1):
        while True:
            blocks = [[[nonzero_scalar(rng, p) for _ in range(layers[i])]
                       for _ in range(layers[i + 1])] for _ in loops]
            if generic(blocks, p):
                break
        for a, block in zip(loops, blocks):
            for r, row in enumerate(block):
                mats[a][offsets[i + 1] + r][offsets[i]:offsets[i] + layers[i]] = row
    return dim, mats


def local_algebra_text(rng: random.Random, p: int | None, n_loops: int, length: int,
                       modules: dict) -> tuple:
    """Source text with fresh names.

    `modules` maps a label to (dim, mats), the matrices keyed by the loop
    labels l0, l1, ...; returns the text and each label's module name.
    """
    names = Names(rng)
    v = names.fresh("v")
    labels = [f"l{i}" for i in range(n_loops)]
    arrows = {g: names.fresh("x") for g in labels}
    text = (f"# k<{n_loops} loops>/J^{length}\n{field_line(p)}\n"
            + quiver_block([v], [(arrows[g], v, v) for g in labels])
            + f"truncate {length}\n")
    renamed = {}
    for label, (dim, mats) in modules.items():
        mod = names.fresh("M")
        renamed[label] = mod
        text += "\n" + module_block(mod, {v: dim}, {arrows[g]: mats[g] for g in labels})
    return text, renamed


# field, loops, J power, whether P, P+S and S are classified, and the radical
# layer dims of the random summand R (None: no R)
EXT_ALGEBRAS = [
    (5, 2, 3, True, (1, 2, 2)),
    (None, 2, 3, True, None),
    (5, 2, 4, False, (1, 1, 2, 1)),
    (5, 3, 3, False, (1, 2, 2)),
]


def ext_wide(seed: int) -> list:
    """P, P+S and S over k<x,y>/J^3 (F_5 and Q), random graded R+S over F_5.

    Random summands are drawn over F_5 only: over Q the cost of exact
    elimination depends on the entries, which would make the work per pass
    depend on the seed.  P and P+S over k<x,y>/J^4 and k<x,y,z>/J^3 take
    7-27 s each, more than a pass, so those algebras carry only the smaller
    random modules.
    """
    rng = random.Random(seed)
    items = []
    for p, n_loops, length, projectives, layers in EXT_ALGEBRAS:
        labels = [f"l{i}" for i in range(n_loops)]
        modules, expect = {}, {}
        if projectives:
            modules["P"] = projective_plus_simples(labels, length, 0)
            modules["PS"] = projective_plus_simples(labels, length, 1)
            modules["S"] = projective_plus_simples(labels, 1, 0)
            expect.update(P={"type": "point"}, PS={"type": "out_of_scope"},
                          S={"type": "out_of_scope"})
        if layers is not None:
            modules["R"] = graded_plus_simple(rng, labels, layers, p)
            expect["R"] = {"type": "out_of_scope"}
        text, renamed = local_algebra_text(rng, p, n_loops, length, modules)
        tag = f"J{length}_{n_loops}loops_{field_tag(p)}"
        for label in modules:
            items.append(Item(f"{tag}:{label}", text, renamed[label], DEFAULT_MAX_ORDER,
                              expect[label]))
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# long_ladder: hereditary tangent-1 modules at a high max_order

LONG_FIELDS = [2, 3, 5, None]
ORDER_LOW, ORDER_HIGH = 12, 24
# classify plus verify of these modules takes about max_order ** 2.6 (fit
# over orders 12..24 on every field and family)
COST_EXPONENT = 2.6


def partner_order(order: int) -> int:
    """The order whose cost, added to that of `order`, costs one 12 plus one 24."""
    budget = ORDER_LOW ** COST_EXPONENT + ORDER_HIGH ** COST_EXPONENT
    partner = round((budget - order ** COST_EXPONENT) ** (1 / COST_EXPONENT))
    return min(ORDER_HIGH, max(ORDER_LOW, partner))


def loop_item(rng: random.Random, p: int | None, order: int, half: int) -> Item:
    """The one-dimensional module of the free loop, x acting by c != 0."""
    names = Names(rng)
    v, x, mod = names.fresh("v"), names.fresh("x"), names.fresh("V")
    c = nonzero_scalar(rng, p)
    text = (f"# free loop\n{field_line(p)}\n" + quiver_block([v], [(x, v, v)]) + "\n"
            + module_block(mod, {v: 1}, {x: [[c]]}))
    return Item(f"loop_{field_tag(p)}_{half}_o{order}", text, mod, order,
                {"type": "power_series", "proved": True})


def kronecker_item(rng: random.Random, p: int | None, order: int, half: int) -> Item:
    """The Kronecker regular simple k -> k with a = lambda, b = mu, both nonzero."""
    names = Names(rng)
    v1, v2 = names.fresh("v"), names.fresh("v")
    a, b, mod = names.fresh("a"), names.fresh("b"), names.fresh("M")
    lam, mu = nonzero_scalar(rng, p), nonzero_scalar(rng, p)
    text = (f"# Kronecker quiver\n{field_line(p)}\n"
            + quiver_block([v1, v2], [(a, v1, v2), (b, v1, v2)]) + "\n"
            + module_block(mod, {v1: 1, v2: 1}, {a: [[lam]], b: [[mu]]}))
    return Item(f"kronecker_{field_tag(p)}_{half}_o{order}", text, mod, order,
                {"type": "power_series", "proved": True})


def long_ladder(seed: int) -> list:
    """Per field and module family, a seeded order o in 12..24 and its partner.

    The pair costs about the same whatever o is, so the work per pass
    barely depends on the seed while every order of the range can be drawn.
    """
    rng = random.Random(seed)
    items = []
    for p in LONG_FIELDS:
        for make in (loop_item, kronecker_item):
            order = rng.randint(ORDER_LOW, ORDER_HIGH)
            for half, o in enumerate((order, partner_order(order))):
                items.append(make(rng, p, o, half))
    rng.shuffle(items)
    return items


WORKLOADS = ("ladder_search", "ext_wide", "long_ladder")


def generate(workload: str, seed: int, corpus_dir: Path) -> list:
    if workload == "ladder_search":
        return ladder_search(seed, corpus_dir)
    if workload == "ext_wide":
        return ext_wide(seed)
    if workload == "long_ladder":
        return long_ladder(seed)
    raise ValueError(f"unknown workload {workload!r}")
