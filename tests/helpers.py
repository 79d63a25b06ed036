"""Shared corpus loading and reference implementations for the test suite."""

import re
from fractions import Fraction
from pathlib import Path

from defring import PresentedAlgebra, Representation, parse
import itertools

from defring import linalg
from defring.dsl import ParseError, Token

from defring.lift import LadderCheck, LadderTranscript, Lift, as_representation, is_valid
from defring.linalg import (Matrix, RowEchelon, _subtract_multiple, in_row_span, kernel_basis, rank,
                            reduce_mod_rows, row_space)
from defring.oracle import lift_from_point
from defring.quiver import Path as QuiverPath
from defring.rep import (DeformationSystem, MapLayout, NotInvariant, arrow_layout, direct_sum_many,
                         hom_basis, is_homomorphism, projective_cover, radical_subspaces,
                         syzygy_data)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def read_corpus(name):
    return (CORPUS / name).read_text(encoding="utf-8")


def load_source(name):
    return parse(read_corpus(name), name)


def load_algebra(name):
    src = load_source(name)
    return src, PresentedAlgebra.from_source(src)


def load_module(name, module_name):
    src, algebra = load_algebra(name)
    return Representation.from_module_def(algebra, src.modules[module_name])


def retruncated(name, bound):
    """The corpus file's text with its truncate line set to bound, or dropped if bound is None."""
    lines = [line for line in read_corpus(name).splitlines(keepends=True)
             if not line.startswith("truncate ")]
    if bound is not None:
        first_module = next(i for i, line in enumerate(lines) if line.startswith("module "))
        lines.insert(first_module, f"truncate {bound}\n")
    return "".join(lines)


# other presentations of corpus algebras: a relation the truncation already
# implies, a relation path longer than the bound, and a relation with no
# nonzero term; (relation, truncate, corpus file of the same algebra)
SECOND_PRESENTATIONS = [("x*x*x", 5, "kx3_f5.alg"), ("x*x*x*x*x*x", 5, "kx5_f5.alg"),
                        ("0*x*x", 3, "kx3_f5.alg")]


def second_presentation(relation, truncate):
    """The text of the simple module V of k[x] over F_5 with this relation and bound."""
    return (f"field F 5\nquiver\n  vertex v\n  arrow x: v -> v\ntruncate {truncate}\n"
            f"relations\n  {relation}\nmodule V\n  dim v = 1\n  mat x = [[0]]\n")


def text_modules(text):
    """{name: Representation} of every module of an input text, over its algebra."""
    src = parse(text)
    algebra = PresentedAlgebra.from_source(src)
    return {name: Representation.from_module_def(algebra, mod) for name, mod in src.modules.items()}


def dense(vec, width):
    """The width values of a sparse vector {index: value}, zeros filled in."""
    out = [0] * width
    for i, x in vec.items():
        out[i] = x
    return tuple(out)


def sparse(values):
    """The sparse vector {index: value} of the nonzero values."""
    return {i: x for i, x in enumerate(values) if x}


def tolist(m):
    """The rows of a Matrix as lists of values, zeros filled in."""
    return [list(m.row(i)) for i in range(m.nrows)]


def column(m, j):
    """Column j of a Matrix as a tuple of values, zeros filled in."""
    return tuple(row.get(j, m.field.zero()) for row in m.rows)


def apply(m, values):
    """m times the column of values, as a tuple of field values."""
    assert len(values) == m.ncols
    scalar = m.field.scalar
    return tuple(scalar(sum(x * values[j] for j, x in row.items())) for row in m.rows)


def solve_matrix(a, b):
    """Solve A X = B with one row reduction of [A | B]; None when any column
    of B is out of reach, i.e. when a pivot lies in B's columns.  Column j
    of X is what solve_affine(A, B[:, j]) gives: the rows of rref([A | B])
    restricted to [A | B[:, j]] are rref([A | B[:, j]])."""
    assert a.nrows == b.nrows
    n = a.ncols
    ech = linalg.rref(a.hstack(b))
    if ech.pivots and ech.pivots[-1] >= n:
        return None
    rows = [{} for _ in range(n)]
    for row, c in zip(ech.rows, ech.pivots):
        rows[c] = {j - n: x for j, x in row.items() if j >= n}
    return Matrix(a.field, n, b.ncols, rows)


def columns_matrix(field, nrows, columns):
    """The nrows x len(columns) matrix whose columns are the given value lists."""
    if not columns:
        return Matrix.zeros(field, nrows, 0)
    assert all(len(col) == nrows for col in columns)
    return Matrix.from_rows(field, columns).transpose()


def affine_point(particular, basis, coeffs):
    """particular + sum coeffs[i] * basis[i] for sparse vectors, its values
    left unreduced (MapLayout.unpack reduces them)."""
    out = dict(particular)
    for c, v in zip(coeffs, basis):
        for i, x in v.items():
            out[i] = out.get(i, 0) + c * x
    return out


# ----------------------------------------------------------------------
# references for the path series of a lift and the evaluation of paths


def paths_up_to(quiver, max_length):
    """All paths of length <= max_length in degree-lex order: the reference
    enumeration of the algebra's path tree.

    Within a fixed length the order is lexicographic in arrow input
    order, which falls out of extending shorter paths in order.
    """
    out = [QuiverPath.trivial(v) for v in quiver.vertices]
    frontier = list(out)
    for _ in range(max_length):
        nxt = []
        for p in frontier:
            for a in quiver.arrows:
                if a.source == p.target:
                    nxt.append(QuiverPath(p.arrows + (a,), p.source, a.target))
        out.extend(nxt)
        frontier = nxt
        if not frontier:
            break
    return out


def quiver_path(quiver, names):
    """The path of the named arrows, in application order."""
    arrows = tuple(quiver.arrow_by_name[name] for name in names)
    for a, b in zip(arrows, arrows[1:]):
        if a.target != b.source:
            raise ValueError(f"{a.name} then {b.name} do not compose")
    return QuiverPath(arrows, arrows[0].source, arrows[-1].target)


def path_matrix(m, path):
    """M(path): the arrow matrices multiplied out, right to left in
    application order, from the identity at the path's source."""
    out = Matrix.identity(m.field, m.dims[path.source])
    for a in path.arrows:
        out = m.mats[a.name] * out
    return out


def node_paths(tree):
    """The path of every node of a quiver.PathTree, rebuilt from its parents."""
    paths = []
    for parent, step in zip(tree.parents, tree.steps):
        paths.append(QuiverPath.trivial(step) if parent < 0 else
                     QuiverPath(paths[parent].arrows + (step,), paths[parent].source, step.target))
    return paths


def reference_path_poly(lift, path, max_deg):
    """Coefficients 0..max_deg of the path evaluated at the arrow polynomials,
    expanded from degree 0 arrow by arrow."""
    field = lift.field
    d_src = lift.base.dims[path.source]
    out = [Matrix.identity(field, d_src)]
    out += [Matrix.zeros(field, d_src, d_src) for _ in range(max_deg)]
    for arrow in path.arrows:
        series = lift.coeffs[arrow.name]
        nxt = [Matrix.zeros(field, series[0].nrows, out[0].ncols) for _ in range(max_deg + 1)]
        for d in range(max_deg + 1):
            for i in range(min(d, lift.order) + 1):
                coeff = series[i]
                prev = out[d - i]
                if not coeff.is_zero() and not prev.is_zero():
                    nxt[d] = nxt[d] + coeff * prev
        out = nxt
    return out


def reference_residual_coefficients(lift, j):
    """The t^j residual of every ideal generator, each path expanded anew."""
    out = []
    for rel in lift.base.algebra.generating_relations():
        first = rel.terms[0][1]
        block = Matrix.zeros(lift.field, lift.base.dims[first.target],
                             lift.base.dims[first.source])
        for coeff, path in rel.terms:
            if coeff:
                block = block + reference_path_poly(lift, path, j)[j].scale(coeff)
        out.append(block)
    return out


def reference_valid_points(v, order):
    """Every coefficient tuple of degrees 1..order, filtered by the reference
    residuals: (number of points, valid points in lexicographic order)."""
    width = arrow_layout(v, v).total
    valid = []
    for point in itertools.product(range(v.field.p), repeat=width * order):
        lift = lift_from_point(v, order, point)
        if all(block.is_zero() for j in range(order + 1)
               for block in reference_residual_coefficients(lift, j)):
            valid.append(point)
    return v.field.p ** (width * order), valid


def reference_hom_stable(m, n):
    """hom_stable with Hom(M, N) solved as a kernel basis and Hom(M, P(N))
    solved as one system against the whole projective cover P(N) of N."""
    p, cover, _, _ = projective_cover(n)
    hom_mn = hom_basis(m, n)
    hom_mp = hom_basis(m, p)
    layout = hom_mn.layout
    image = [layout.pack({v: cover[v] * t[v] for v in m.algebra.quiver.vertices})
             for t in hom_mp.basis]
    return hom_mn.dim - row_space(image, m.field, layout.total).rank


def reference_left_projective(algebra, v):
    """left_projective(v) from dense columns: the basis paths from v found by
    scanning the basis, and each arrow's column the dense coordinates of a
    path extended by that arrow, read off at the basis paths v -> target."""
    field = algebra.field
    basis_v = [p for p in algebra.basis if p.source == v]
    by_vertex = {w: [p for p in basis_v if p.target == w] for w in algebra.quiver.vertices}
    slot = {p: i for plist in by_vertex.values() for i, p in enumerate(plist)}
    dims = {w: len(plist) for w, plist in by_vertex.items()}
    mats = {}
    for a in algebra.quiver.arrows:
        cols = []
        for p in by_vertex[a.source]:
            extended = p.then(quiver_path(algebra.quiver, [a.name]))
            reduced = dense(algebra.reduce_path(extended), algebra.dimension)
            col = [field.zero()] * dims[a.target]
            for j, coeff in enumerate(reduced):
                if coeff:
                    q = algebra.basis[j]
                    assert q.source == v and q.target == a.target
                    col[slot[q]] = coeff
            cols.append(col)
        mats[a.name] = columns_matrix(field, dims[a.target], cols)
    return Representation(algebra, dims, mats)


def reference_projective_cover(m):
    """projective_cover with every basis path multiplied out from scratch and
    applied to each top vector on its own: (P, cover, summand vertices)."""
    algebra = m.algebra
    field = m.field
    quiver = algebra.quiver
    rad = radical_subspaces(m)
    lifts = []
    for v in quiver.vertices:
        pivot_set = set(rad[v].pivots)
        for c in range(m.dims[v]):
            if c not in pivot_set:
                unit = [field.zero()] * m.dims[v]
                unit[c] = field.one()
                lifts.append((v, tuple(unit)))
    summands = [algebra.left_projective(v) for v, _ in lifts]
    p = direct_sum_many(summands) if summands else Representation(algebra, {}, {})
    cover = {}
    for w in quiver.vertices:
        cols = [list(apply(path_matrix(m, q), u)) for v, u in lifts
                for q in algebra.basis if q.source == v and q.target == w]
        cover[w] = columns_matrix(field, m.dims[w], cols)
    return p, cover, [v for v, _ in lifts]


def reference_syzygy_data(m):
    """(ΩM, incl) as sub_from_maps of the reference cover P on the kernel
    basis of each cover matrix, which is checked to be onto first: ΩM's
    arrows solved from the inclusion rather than read off it."""
    p, cover, _ = reference_projective_cover(m)
    vertices = m.algebra.quiver.vertices
    if any(rank(cover[w]) != m.dims[w] for w in vertices):
        raise AssertionError("cover not surjective")
    bases = {w: kernel_basis(cover[w]) for w in vertices}
    incl = {w: Matrix(m.field, len(bases[w]), p.dims[w], bases[w]).transpose() for w in vertices}
    return sub_from_maps(p, bases), incl


def sub_from_maps(m, bases):
    """Subrepresentation spanned by the given sparse vectors, its arrows
    solved from the inclusion; raises NotInvariant unless arrow-stable."""
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


def reference_quotient(m, bases):
    """(M / U, projection): U the arrow-stable subspaces spanned by bases
    (per vertex, a list of sparse vectors), the quotient on the
    standard-basis columns that are not pivots of U's echelon form at each
    vertex, every arrow of M projected through them."""
    field = m.field
    ech = {}
    free = {}
    for v in m.algebra.quiver.vertices:
        e = row_space(bases.get(v, []), field, m.dims[v])
        ech[v] = e
        pivot_set = set(e.pivots)
        free[v] = [c for c in range(m.dims[v]) if c not in pivot_set]

    def project(v, vec):
        reduced = reduce_mod_rows(ech[v], sparse(vec))
        return tuple(reduced.get(c, field.zero()) for c in free[v])

    proj = {}
    section = {}  # standard-basis lift of quotient coordinates
    for v in m.algebra.quiver.vertices:
        identity = Matrix.identity(field, m.dims[v])
        proj[v] = columns_matrix(field, len(free[v]),
                                      [project(v, column(identity, j)) for j in range(m.dims[v])])
        section[v] = columns_matrix(field, m.dims[v], [column(identity, f) for f in free[v]])
    mats = {}
    for a in m.algebra.quiver.arrows:
        # stability check: each subspace vector must map into the target subspace
        for vec in bases.get(a.source, []):
            image = apply(m.mats[a.name], dense(vec, m.dims[a.source]))
            if not in_row_span(ech[a.target], sparse(image)):
                raise NotInvariant(f"subspace not stable under arrow {a.name}")
        mats[a.name] = proj[a.target] * m.mats[a.name] * section[a.source]
    dims = {v: len(free[v]) for v in m.algebra.quiver.vertices}
    return Representation(m.algebra, dims, mats), proj


# ----------------------------------------------------------------------
# the two Ext^1 routes as quotients, counted by complement representatives


def restricted_cover_homs(m, n):
    """(hom_basis(ΩM, N), the basis of hom_basis(P, N) restricted to ΩM and
    packed in its coordinates), P the projective cover of M: Hom(P, N)
    solved as a linear system rather than read off N."""
    p = projective_cover(m)[0]
    _, omega, incl = syzygy_data(m)
    hom_on = hom_basis(omega, n)
    vertices = m.algebra.quiver.vertices
    image = [hom_on.layout.pack({v: t[v] * incl[v] for v in vertices})
             for t in hom_basis(p, n).basis]
    return hom_on, image


def reference_ext1_syzygy(m, n):
    """dim Hom(ΩM, N) modulo the restrictions of hom_basis(P, N)."""
    hom_on, image = restricted_cover_homs(m, n)
    width = hom_on.layout.total
    return len(reference_complement_representatives(
        [dense(v, width) for v in hom_on.packed_basis], [dense(v, width) for v in image],
        m.field, width))


def reference_ext1_cocycle(m, n):
    """dim of the cocycles of DeformationSystem(m, n) modulo its coboundaries."""
    system = DeformationSystem(m, n)
    width = system.layout.total
    return len(reference_complement_representatives(
        [dense(v, width) for v in system.cocycles],
        [dense(v, width) for v in system.coboundaries.rows], m.field, width))


# ----------------------------------------------------------------------
# dense reference for verify_ladder


def shift_endomorphism(lift):
    """Multiplication by t on the underlying module: the block subdiagonal."""
    base = lift.base
    field = lift.field
    ell = lift.order
    out = {}
    for v in base.algebra.quiver.vertices:
        d = base.dims[v]
        n = (ell + 1) * d
        data = [[field.zero()] * n for _ in range(n)]
        for bi in range(1, ell + 1):
            for r in range(d):
                data[bi * d + r][(bi - 1) * d + r] = field.one()
        out[v] = Matrix.from_rows(field, data) if n else Matrix.zeros(field, 0, 0)
    return out


def base_embedding(lift):
    """The witness copy of the base inside the top degree block."""
    return _unit_columns(lift, lambda d: range(lift.order * d, (lift.order + 1) * d))


def block_projection(lift):
    """Drop the top degree block: the reduction map of underlying modules."""
    field = lift.field
    out = {}
    for v, d in lift.base.dims.items():
        n = (lift.order + 1) * d
        rows = [[field.one() if c == i else field.zero() for c in range(n)]
                for i in range(lift.order * d)]
        out[v] = Matrix.from_rows(field, rows) if rows else Matrix.zeros(field, 0, n)
    return out


def block_injection(lift):
    """Multiply by t: shift degrees up by one, from order-1 into order blocks."""
    return _unit_columns(lift, lambda d: range(d, (lift.order + 1) * d))


def _unit_columns(lift, rows_of):
    field = lift.field
    out = {}
    for v, d in lift.base.dims.items():
        n = (lift.order + 1) * d
        cols = [[field.one() if i == r else field.zero() for i in range(n)] for r in rows_of(d)]
        out[v] = columns_matrix(field, n, cols)
    return out


def rung(lift, j):
    """The lift of order j made of lift's coefficients through degree j."""
    return Lift(lift.base, j, {a: series[:j + 1] for a, series in lift.coeffs.items()})


def dense_verify_ladder(ladder):
    """Every rung-by-rung certificate check, on the dense (order+1)·d matrices.

    Builds rung j from the top's coefficients through degree j, then each
    rung's underlying module, the reduction and shift-in maps, the shift
    endomorphism and the base witness, and checks every identity on them
    directly, the J facts at every order included.
    """
    checks = []
    base = ladder.base
    vertices = base.algebra.quiver.vertices

    def add(name, order, ok, detail=""):
        checks.append(LadderCheck(name, order, bool(ok), detail))

    nontrivial = not DeformationSystem(base, base).is_coboundary(ladder.first_order_class)
    add("first_order_nontrivial", 1, nontrivial,
        "" if nontrivial else "first-order class is a coboundary")

    rungs = [rung(ladder.top, j) for j in range(1, ladder.length + 1)]
    prev_rep = base
    for ell, lift in enumerate(rungs, start=1):
        add("order_matches", ell, lift.order == ell)
        add("residuals_vanish", ell, is_valid(lift))
        if ell >= 2:
            add("coherent_with_previous", ell, rung(lift, ell - 1) == rungs[ell - 2])
        w = as_representation(lift)
        eps = block_projection(lift)
        iota = block_injection(lift)
        sigma = shift_endomorphism(lift)
        add("reduction_is_hom", ell, is_homomorphism(w, prev_rep, eps))
        add("reduction_surjective", ell,
            all(rank(eps[v]) == prev_rep.dims[v] for v in vertices))
        add("shift_in_is_hom", ell, is_homomorphism(prev_rep, w, iota))
        add("shift_in_injective", ell,
            all(rank(iota[v]) == prev_rep.dims[v] for v in vertices))
        add("sigma_is_composite", ell,
            all((iota[v] * eps[v] - sigma[v]).is_zero() for v in vertices))
        add("sigma_commutes", ell, is_homomorphism(w, w, sigma))
        add("sigma_nilpotent", ell,
            all(sigma[v].power(ell + 1).is_zero() for v in vertices))
        add("sigma_power_nonzero", ell,
            any(not sigma[v].power(ell).is_zero() for v in vertices if base.dims[v]))
        emb = base_embedding(lift)
        add("witness_is_hom", ell, is_homomorphism(base, w, emb))
        kernel_ok = True
        image_ok = True
        for v in vertices:
            d = base.dims[v]
            n = (ell + 1) * d
            # ker sigma: witness columns lie in it and dimensions agree
            if not (sigma[v] * emb[v]).is_zero():
                kernel_ok = False
            if n - rank(sigma[v]) != d:
                kernel_ok = False
            if rank(emb[v]) != d:
                kernel_ok = False
            # im sigma^ell: columns solve emb * X = sigma^ell
            power = sigma[v].power(ell)
            if rank(power) != d:
                image_ok = False
            elif solve_matrix(emb[v], power) is None:
                image_ok = False
        add("kernel_is_base_witness", ell, kernel_ok)
        add("image_power_is_base_witness", ell, image_ok)
        prev_rep = w
    return LadderTranscript(checks)


def reference_shift_checks(field, blocks, ell):
    """lift._shift_checks on the dense shift J of k[t]/(t^blocks), with J^ell
    taken by repeated dense products: (J^(ell+1) = 0, J^ell != 0, ker J is
    <e_top>, im J^ell is <e_top>)."""
    data = [field.zero()] * (blocks * blocks)
    for i in range(1, blocks):
        data[i * blocks + i - 1] = field.one()
    shift = dense_to_matrix(field, blocks, blocks, data)
    power = Matrix.identity(field, blocks)
    for _ in range(ell):
        power = reference_mul(power, shift)
    nonzero = not power.is_zero()
    kernel = not any(column(shift, blocks - 1)) and rank(shift) == blocks - 1
    # a nonzero matrix whose rows below the top one vanish has image <e_top>
    image = nonzero and not any(x for row in tolist(power)[:-1] for x in row)
    return reference_mul(power, shift).is_zero(), nonzero, kernel, image


# ----------------------------------------------------------------------
# reference for the linalg kernels: whole rows, every operation reduced


def _field_ops(field):
    """add, sub, mul and inv on canonical values of field, each result reduced."""
    scalar, p = field.scalar, field.p
    inv = (lambda x: scalar(Fraction(1, x))) if p is None else (lambda x: pow(x, p - 2, p))
    return ((lambda a, b: scalar(a + b)), (lambda a, b: scalar(a - b)),
            (lambda a, b: scalar(a * b)), inv)


def canonical(field, entries):
    """Each value has its one canonical type: over Q an int when it is integral
    and a Fraction with denominator > 1 otherwise, over F_p an int in 0..p-1."""
    if field.p is None:
        return all(type(x) is int or type(x) is Fraction and x.denominator > 1 for x in entries)
    return all(type(x) is int and 0 <= x < field.p for x in entries)


def dense_to_matrix(field, nrows, ncols, flat):
    """The Matrix of nrows x ncols canonical values given row-major."""
    assert len(flat) == nrows * ncols
    if not nrows:
        return Matrix.zeros(field, 0, ncols)
    return Matrix.from_rows(field, [flat[i * ncols:(i + 1) * ncols] for i in range(nrows)])


def reference_mul(a, b):
    """Matrix product entry by entry, skipping zero factors."""
    if a.ncols != b.nrows:
        raise ValueError(f"shape mismatch {a.nrows}x{a.ncols} * {b.nrows}x{b.ncols}")
    add, _, mul, _ = _field_ops(a.field)
    out = [a.field.zero()] * (a.nrows * b.ncols)
    for i in range(a.nrows):
        for k in range(a.ncols):
            x = a[i, k]
            if not x:
                continue
            for j in range(b.ncols):
                y = b[k, j]
                if y:
                    out[i * b.ncols + j] = add(out[i * b.ncols + j], mul(x, y))
    return dense_to_matrix(a.field, a.nrows, b.ncols, out)


def reference_termwise(a, b, op):
    """op(a[i, j], b[i, j]) entry by entry, for op one of _field_ops's add and sub."""
    assert (a.nrows, a.ncols) == (b.nrows, b.ncols)
    return dense_to_matrix(a.field, a.nrows, a.ncols,
                           [op(x, y) for i in range(a.nrows) for x, y in zip(a.row(i), b.row(i))])


def reference_add(a, b):
    return reference_termwise(a, b, _field_ops(a.field)[0])


def reference_sub(a, b):
    return reference_termwise(a, b, _field_ops(a.field)[1])


def reference_scale(a, c):
    """c * a entry by entry, c any value the field reads."""
    mul = _field_ops(a.field)[2]
    c = a.field.scalar(c)
    return dense_to_matrix(a.field, a.nrows, a.ncols,
                           [mul(c, x) for i in range(a.nrows) for x in a.row(i)])


def reference_power(a, n):
    """a^n as the identity times a, n times."""
    out = Matrix.identity(a.field, a.nrows)
    for _ in range(n):
        out = reference_mul(out, a)
    return out


def reference_dense_rref(m):
    """(echelon Matrix, pivots): first-nonzero pivoting over whole rows."""
    _, sub, mul, inv = _field_ops(m.field)
    rows = [list(m.row(i)) for i in range(m.nrows)]
    pivots = []
    r = 0
    for c in range(m.ncols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        scale = inv(rows[r][c])
        rows[r] = [mul(scale, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    flat = [x for row in rows for x in row]
    return dense_to_matrix(m.field, m.nrows, m.ncols, flat), pivots


def reference_rref(m):
    """RowEchelon of m by sparse Gauss–Jordan: each incoming row is reduced
    against the pivot rows, which leaves it zero at every pivot column; if
    anything is left, its first nonzero column becomes a new pivot, the row
    is scaled to 1 there, and that column is cleared from the other pivot
    rows.  Every pivot row holds 1 at its pivot and 0 at every other pivot."""
    p = m.field.p
    pivot_rows = {}  # pivot column -> its row
    for row in m.rows:
        if not row:
            continue
        row = dict(row)
        for c in [c for c in row if c in pivot_rows]:
            _subtract_multiple(row, row[c], pivot_rows[c], p)
        if not row:
            continue
        c = min(row)
        if row[c] != 1:
            if p:
                inv = pow(row[c], -1, p)
                row = {j: x * inv % p for j, x in row.items()}
            else:
                inv = Fraction(1, row[c])
                row = {j: m.field.scalar(x * inv) for j, x in row.items()}
        for other in pivot_rows.values():
            f = other.get(c)
            if f:
                _subtract_multiple(other, f, row, p)
        pivot_rows[c] = row
    pivots = sorted(pivot_rows)
    return RowEchelon(m.field, m.nrows, m.ncols, [pivot_rows[c] for c in pivots], pivots)


def reference_kernel_basis(m):
    _, sub, _, _ = _field_ops(m.field)
    echelon, pivots = reference_dense_rref(m)
    free = [c for c in range(m.ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [m.field.zero()] * m.ncols
        v[f] = m.field.one()
        for r, c in enumerate(pivots):
            v[c] = sub(m.field.zero(), echelon[r, f])
        basis.append(tuple(v))
    return basis


def reference_solve_affine(a, b):
    """(feasible, particular or None, kernel basis, rank A, rank [A | b]) of A x = b."""
    aug = a.hstack(columns_matrix(a.field, a.nrows, [list(b)]))
    echelon, pivots = reference_dense_rref(aug)
    kern = reference_kernel_basis(a)
    ranks = (len(reference_dense_rref(a)[1]), len(pivots))
    if a.ncols in pivots:
        return (False, None, kern) + ranks
    x = [a.field.zero()] * a.ncols
    for r, c in enumerate(pivots):
        x[c] = echelon[r, a.ncols]
    return (True, tuple(x), kern) + ranks


def reference_row_space(vectors, field, width):
    """(nonzero echelon rows, pivots) of the span of vectors."""
    if not vectors:
        return [], []
    echelon, pivots = reference_dense_rref(Matrix.from_rows(field, [list(v) for v in vectors]))
    return [echelon.row(i) for i in range(len(pivots))], pivots


def reference_reduce_mod_rows(field, rows, pivots, v):
    _, sub, mul, _ = _field_ops(field)
    out = list(v)
    for row, c in zip(rows, pivots):
        f = out[c]
        if f:
            out = [sub(x, mul(f, y)) for x, y in zip(out, row)]
    return tuple(out)


def reference_complement_representatives(space_basis, subspace_vectors, field, width):
    rows, pivots = reference_row_space(subspace_vectors, field, width)
    reduced = [reference_reduce_mod_rows(field, rows, pivots, v) for v in space_basis]
    reduced = [v for v in reduced if any(v)]
    return [tuple(r) for r in reference_row_space(reduced, field, width)[0]]


# ----------------------------------------------------------------------
# dense references for the sparse equation builders in rep


def reference_hom_equations(m, n):
    """The intertwining equations of hom_equations, one dense row each."""
    quiver = m.algebra.quiver
    field = m.field
    layout = MapLayout(field, [(v, n.dims[v], m.dims[v]) for v in quiver.vertices])
    rows = []
    zero = field.zero()
    for a in quiver.arrows:
        ma, na = m.mats[a.name], n.mats[a.name]
        et, ds = n.dims[a.target], m.dims[a.source]
        dt_cols = m.dims[a.target]
        off_t = layout.offsets[a.target]
        off_s = layout.offsets[a.source]
        for i in range(et):
            for j in range(ds):
                row = [zero] * layout.total
                # (T_t M_a)[i, j] = sum_k T_t[i, k] M_a[k, j]
                for k, x in enumerate(column(ma, j)):
                    if x:
                        row[off_t + i * dt_cols + k] += x
                # (N_a T_s)[i, j] = sum_l N_a[i, l] T_s[l, j]
                for l, x in enumerate(na.row(i)):
                    if x:
                        row[off_s + l * ds + j] -= x
                rows.append(row)
    if rows:
        return Matrix.from_rows(field, rows)
    return Matrix.zeros(field, 0, layout.total)


def reference_coboundary_vectors(m, n):
    """Images of the elementary vertex maps E_ij under C -> (C_t M_a - N_a C_s)_a,
    packed in DeformationSystem(m, n) coordinates, one dense tuple each."""
    quiver = m.algebra.quiver
    field = m.field
    layout = MapLayout(field, [(a.name, n.dims[a.target], m.dims[a.source])
                               for a in quiver.arrows])
    out = []
    for v in quiver.vertices:
        for i in range(n.dims[v]):
            for j in range(m.dims[v]):
                vec = [field.zero()] * layout.total
                for a in quiver.arrows:
                    off = layout.offsets[a.name]
                    width = m.dims[a.source]
                    if a.target == v:
                        # (E_ij M_a)[r, c] = delta(r, i) M_a[j, c]
                        for c, x in enumerate(m.mats[a.name].row(j)):
                            if x:
                                vec[off + i * width + c] = field.scalar(vec[off + i * width + c] + x)
                    if a.source == v:
                        # (N_a E_ij)[r, c] = N_a[r, i] delta(c, j)
                        for r, x in enumerate(column(n.mats[a.name], i)):
                            if x:
                                vec[off + r * width + j] = field.scalar(vec[off + r * width + j] - x)
                out.append(tuple(vec))
    return out


def reference_deformation_matrix(m, n):
    """The DeformationSystem equations of (m, n), one dense row per generator
    and entry of its block."""
    field = m.field
    quiver = m.algebra.quiver
    layout = MapLayout(field, [(a.name, n.dims[a.target], m.dims[a.source])
                               for a in quiver.arrows])
    rows = []
    zero = field.zero()
    for rel in m.algebra.generating_relations():
        block_rows = n.dims[rel.target]
        block_cols = m.dims[rel.source]
        block = [[[zero] * layout.total for _ in range(block_cols)]
                 for _ in range(block_rows)]
        for coeff, path in rel.terms:
            if not coeff:
                continue
            k = path.length
            prefixes = [Matrix.identity(field, m.dims[path.source])]
            for arrow in path.arrows:
                prefixes.append(m.mats[arrow.name] * prefixes[-1])
            suffixes = [None] * (k + 1)
            suffixes[k] = Matrix.identity(field, n.dims[path.target])
            for i in range(k - 1, -1, -1):
                suffixes[i] = suffixes[i + 1] * n.mats[path.arrows[i].name]
            for pos in range(k):
                arrow = path.arrows[pos]
                suf = suffixes[pos + 1]
                pre = prefixes[pos]
                off = layout.offsets[arrow.name]
                b_cols = m.dims[arrow.source]
                for r in range(block_rows):
                    for alpha in range(n.dims[arrow.target]):
                        left = coeff * suf[r, alpha]
                        if not left:
                            continue
                        for beta in range(b_cols):
                            for c in range(block_cols):
                                right = pre[beta, c]
                                if right:
                                    block[r][c][off + alpha * b_cols + beta] += left * right
        for r in range(block_rows):
            for c in range(block_cols):
                rows.append(block[r][c])
    if rows:
        return Matrix.from_rows(field, rows)
    return Matrix.zeros(field, 0, layout.total)


# ----------------------------------------------------------------------
# the character-by-character tokenizer


REFERENCE_WORD_RE = re.compile(r"[A-Za-z0-9_/]+")


def reference_tokenize(text, lineno):
    """dsl._tokenize one character at a time."""
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if text.startswith("->", i):
            tokens.append(Token("->", lineno, i + 1))
            i += 2
            continue
        if ch in ":=[],*+-":
            tokens.append(Token(ch, lineno, i + 1))
            i += 1
            continue
        m = REFERENCE_WORD_RE.match(text, i)
        if m:
            tokens.append(Token(m.group(0), lineno, i + 1))
            i = m.end()
            continue
        raise ParseError("syntax", f"unexpected character {ch!r}", lineno, i + 1)
    return tokens
