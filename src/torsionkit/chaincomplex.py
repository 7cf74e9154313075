"""Based cochain complexes over Z[G] and over Q(zeta_n).

The differential raises degree: d_i maps C_i to C_{i+1} and is stored as a
rank(i+1) x rank(i) matrix indexed [target][source].  Modules are left
Z[G]-modules with coefficients written on the left of basis vectors, so the
matrix of a composite g.f has entries

    (g.f)[gamma][alpha] = sum_beta  f[beta][alpha] * g[gamma][beta],

with the first map's entry on the left (this matters over free products).

Also here: base change along a representation, shift, direct sum, mapping
cone, tensor with an integral complex, chain maps, Smith normal form and
integral homology, and the JSON file format for complexes.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .grouprings import (
    ZERO_ELEM,
    GroupRingElem,
    GroupSpec,
    TRIVIAL_GROUP,
    elem_from_map,
    elem_from_obj,
    elem_to_obj,
    from_int,
    int_value,
    json_int,
    map_form,
    map_mul_add,
    ring_add,
    ring_mul,
    spec_from_obj,
    spec_to_obj,
)
from .cyclofield import (
    CycloNum,
    Representation,
    cyclo_add,
    cyclo_mul,
    cyclo_zero,
    evaluate_rep,
)

Matrix = tuple[tuple[GroupRingElem, ...], ...]
FieldMatrix = tuple[tuple[CycloNum, ...], ...]

# Largest total rank, the sum of the positive ranks, of a complex document
# (``complex_from_obj``) or of a complex an expansion builds (``simpleops``).
# Unchecked, ranks (2000, 2000) with no differentials ran `torsion` for
# 16.7 s and 1200 expansions at degree 0 replayed for 14.9 s (2-vCPU machine).
MAX_TOTAL_RANK = 256


class ShapeMismatchError(ValueError):
    """Matrix or basis shapes do not line up."""


class RankLimitError(ShapeMismatchError):
    """A complex document whose ranks sum past ``MAX_TOTAL_RANK``."""


class SpecMismatchError(ValueError):
    """Operands live over different groups."""


class NotAComplexError(ValueError):
    """d.d is nonzero; carries the first failing degree."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"d.d != 0 starting at degree {degree}")


# --- matrices over the group ring ---


def mat_zero(rows: int, cols: int) -> Matrix:
    return tuple((ZERO_ELEM,) * cols for _ in range(rows))


def mat_identity(n: int) -> Matrix:
    one = from_int(1)
    return tuple(
        tuple(one if i == j else ZERO_ELEM for j in range(n)) for i in range(n)
    )


def mat_shape(m: Matrix) -> tuple[int, int]:
    return (len(m), len(m[0]) if m else 0)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    if mat_shape(a) != mat_shape(b):
        raise ShapeMismatchError("matrix sum shapes differ")
    return tuple(
        tuple(ring_add(x, y) for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def mat_neg(a: Matrix) -> Matrix:
    return tuple([tuple([-x if x else x for x in row]) for row in a])  # a zero is kept, not built anew


def mat_compose(spec: GroupSpec, second: Matrix, first: Matrix, cols: int) -> Matrix:
    """Matrix of (second . first), ``cols`` wide; see the module docstring
    for the order of ring products inside each entry.  Each entry is summed
    in one working map, from factor entries each read once."""
    mid2 = mat_shape(second)[1]
    mid1 = len(first)
    if second and first and mid1 != mid2:
        raise ShapeMismatchError(f"inner dimensions differ: {mid1} vs {mid2}")
    reads = [[map_form(spec, x) if x else None for x in row] for row in first]
    out = []
    for row2 in second:
        pairs = [(xs, map_form(spec, y)) for xs, y in zip(reads, row2) if y]  # (row b of first, y_b)
        row = []
        for a in range(cols):
            acc = {}
            for xs, y in pairs:
                if xs[a] is not None:
                    acc = map_mul_add(spec, acc, xs[a], y)
            row.append(elem_from_map(spec, acc))
        out.append(tuple(row))
    return tuple(out)


def mat_is_zero(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def _as_matrix(rows, expect_rows: int, expect_cols: int, where: str) -> Matrix:
    rows = tuple(tuple(row) for row in rows)
    if len(rows) != expect_rows or any(len(r) != expect_cols for r in rows):
        raise ShapeMismatchError(
            f"{where}: expected {expect_rows}x{expect_cols} matrix"
        )
    return rows


# --- based complexes ---


class _GradedComplex:
    """Degree bookkeeping shared by BasedComplex and FieldComplex.

    ``ranks[k]`` is the rank in degree ``min_degree + k``; ``differentials[k]``
    maps that degree to the next one.  Subclasses name, in ``_zero``, the
    entry that fills the differentials outside the support window.
    """

    __slots__ = ()

    def rank(self, degree: int) -> int:
        if self.min_degree <= degree <= self.max_degree:
            return self.ranks[degree - self.min_degree]
        return 0

    def diff(self, degree: int):
        if self.min_degree <= degree < self.max_degree:
            return self.differentials[degree - self.min_degree]
        z = self._zero()
        return tuple((z,) * self.rank(degree) for _ in range(self.rank(degree + 1)))

    def degree_labels(self, degree: int) -> tuple[str, ...]:
        if self.min_degree <= degree <= self.max_degree:
            return self.labels[degree - self.min_degree]
        return ()

    @property
    def degrees(self) -> range:
        return range(self.min_degree, self.max_degree + 1)

    def total_rank(self) -> int:
        return sum(self.ranks)


@dataclass(frozen=True, slots=True)
class BasedComplex(_GradedComplex):
    """Finitely supported complex of free Z[G]-modules with ordered bases."""

    spec: GroupSpec
    min_degree: int
    max_degree: int
    ranks: tuple[int, ...]
    differentials: tuple[Matrix, ...]
    labels: tuple[tuple[str, ...], ...]

    def _zero(self) -> GroupRingElem:
        return ZERO_ELEM


def support(ranks) -> tuple[int, int] | None:
    """The first and last index of a nonzero rank, or None when all are zero.

    A based complex keeps only this window of degrees (the zero complex keeps
    degree 0), so structural equality agrees with equality of based
    complexes."""
    if ranks[0] and ranks[-1]:
        return 0, len(ranks) - 1
    if not any(ranks):
        return None
    first = next(k for k, r in enumerate(ranks) if r)
    return first, len(ranks) - 1 - next(k for k, r in enumerate(reversed(ranks)) if r)


def based_complex(
    spec: GroupSpec,
    min_degree: int,
    ranks,
    differentials,
    labels=None,
) -> BasedComplex:
    """Build a complex from ranks and differential matrices, shape-checked.

    ``differentials`` lists the matrices for degrees min_degree .. top-1; use
    ``validate`` to additionally check d.d = 0.
    """
    ranks = tuple(int(r) for r in ranks)
    if any(r < 0 for r in ranks):
        raise ShapeMismatchError("ranks must be nonnegative")
    if not ranks:
        ranks = (0,)
    diffs = list(differentials)
    if len(diffs) != len(ranks) - 1:
        raise ShapeMismatchError(
            f"need {len(ranks) - 1} differentials, got {len(diffs)}"
        )
    if labels is not None:
        labels = list(labels)
        if len(labels) != len(ranks):
            raise ShapeMismatchError("labels must match ranks degreewise")
    window = support(ranks)
    if window is None:
        return BasedComplex(spec, 0, 0, (0,), (), ((),))
    first, last = window
    if first or last != len(ranks) - 1:
        min_degree += first
        ranks = ranks[first : last + 1]
        diffs = diffs[first:last]
        if labels is not None:
            labels = labels[first : last + 1]
    max_degree = min_degree + len(ranks) - 1
    mats = tuple(
        _as_matrix(d, ranks[k + 1], ranks[k], f"differential at degree {min_degree + k}")
        for k, d in enumerate(diffs)
    )
    if labels is None:
        labels = tuple(
            tuple(f"c{min_degree + k}_{j}" for j in range(r))
            for k, r in enumerate(ranks)
        )
    else:
        labels = tuple(tuple(ls) for ls in labels)
        if len(labels) != len(ranks) or any(
            len(ls) != r for ls, r in zip(labels, ranks)
        ):
            raise ShapeMismatchError("labels must match ranks degreewise")
    return BasedComplex(spec, min_degree, max_degree, ranks, mats, labels)


def two_term_complex(
    spec: GroupSpec, degree: int, entry: GroupRingElem
) -> BasedComplex:
    """[Z[G] --entry--> Z[G]] in degrees (degree, degree+1)."""
    return based_complex(spec, degree, (1, 1), [((entry,),)])


def zero_complex(spec: GroupSpec) -> BasedComplex:
    return based_complex(spec, 0, (0,), [])


def first_difference(a: BasedComplex, b: BasedComplex):
    """Where two complexes first differ, or None when they are equal.

    The parts are compared in order: the group, the degree window, the rank
    per degree, the labels, then the differential entries by degree, row and
    column.  Returns ``(where, a_value, b_value)``: ``where`` names the part
    and its position, and the values are in the file format.
    """
    if a.spec != b.spec:
        return {"part": "group"}, spec_to_obj(a.spec), spec_to_obj(b.spec)
    if (a.min_degree, a.max_degree) != (b.min_degree, b.max_degree):
        return {"part": "degree_window"}, [a.min_degree, a.max_degree], [b.min_degree, b.max_degree]
    for i in a.degrees:
        if a.rank(i) != b.rank(i):
            return {"part": "rank", "degree": i}, a.rank(i), b.rank(i)
    for i in a.degrees:
        for k, (x, y) in enumerate(zip(a.degree_labels(i), b.degree_labels(i))):
            if x != y:
                return {"part": "label", "degree": i, "index": k}, x, y
    for i in range(a.min_degree, a.max_degree):
        for row, (xs, ys) in enumerate(zip(a.diff(i), b.diff(i))):
            for col, (x, y) in enumerate(zip(xs, ys)):
                if x != y:
                    where = {"part": "entry", "degree": i, "row": row, "column": col}
                    return where, elem_to_obj(x), elem_to_obj(y)
    return None


def validate(c: BasedComplex) -> None:
    """Check d.d = 0 over Z[G]; raises NotAComplexError at the first failure."""
    for i in range(c.min_degree, c.max_degree - 1):
        comp = mat_compose(c.spec, c.diff(i + 1), c.diff(i), c.rank(i))
        if not mat_is_zero(comp):
            raise NotAComplexError(i)


# --- field complexes and base change ---


@dataclass(frozen=True, slots=True)
class FieldComplex(_GradedComplex):
    """Same shape as BasedComplex with entries in Q(zeta_n)."""

    modulus: int
    min_degree: int
    max_degree: int
    ranks: tuple[int, ...]
    differentials: tuple[FieldMatrix, ...]
    labels: tuple[tuple[str, ...], ...]

    def _zero(self) -> CycloNum:
        return cyclo_zero(self.modulus)


def base_change(c: BasedComplex, rep: Representation) -> FieldComplex:
    """Apply the representation entrywise: C tensored over Z[G] with Q(zeta_n).
    Zero entries, about half of a scrambled complex's, share one zero."""
    if rep.spec != c.spec:
        raise SpecMismatchError("representation is for a different group")
    z = cyclo_zero(rep.modulus)
    mats = tuple(
        tuple(tuple(evaluate_rep(rep, x) if x else z for x in row) for row in m)
        for m in c.differentials
    )
    return FieldComplex(
        rep.modulus, c.min_degree, c.max_degree, c.ranks, mats, c.labels
    )


def validate_field(fc: FieldComplex) -> None:
    z = cyclo_zero(fc.modulus)
    for i in range(fc.min_degree, fc.max_degree - 1):
        a, b = fc.diff(i + 1), fc.diff(i)
        for g in range(len(a)):
            for al in range(len(b[0]) if b else 0):
                acc = z
                for be in range(len(b)):
                    acc = cyclo_add(acc, cyclo_mul(a[g][be], b[be][al]))
                if acc:
                    raise NotAComplexError(i, f"field d.d != 0 at degree {i}")


# --- structural operations ---


def shift(c: BasedComplex, k: int) -> BasedComplex:
    """C[k]: degree i content moves to degree i - k; odd shifts negate d."""
    diffs = c.differentials if k % 2 == 0 else tuple(mat_neg(m) for m in c.differentials)
    return based_complex(c.spec, c.min_degree - k, c.ranks, diffs, c.labels)


def direct_sum(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """Blockwise sum; in each degree the basis of ``a`` precedes that of ``b``."""
    if a.spec != b.spec:
        raise SpecMismatchError("direct sum needs matching groups")
    lo = min(a.min_degree, b.min_degree)
    hi = max(a.max_degree, b.max_degree)
    ranks = [a.rank(i) + b.rank(i) for i in range(lo, hi + 1)]
    labels = [a.degree_labels(i) + b.degree_labels(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        da, db = a.diff(i), b.diff(i)
        rows = []
        for r in range(a.rank(i + 1)):
            rows.append(da[r] + (ZERO_ELEM,) * b.rank(i))
        for r in range(b.rank(i + 1)):
            rows.append((ZERO_ELEM,) * a.rank(i) + db[r])
        diffs.append(tuple(rows))
    return based_complex(a.spec, lo, ranks, diffs, labels)


# --- chain maps and mapping cones ---


@dataclass(frozen=True, slots=True)
class ChainMap:
    """Degreewise matrices of a map commuting with the differentials."""

    source: BasedComplex
    target: BasedComplex
    components: tuple[tuple[int, Matrix], ...]

    def component(self, degree: int) -> Matrix:
        for d, m in self.components:
            if d == degree:
                return m
        return mat_zero(self.target.rank(degree), self.source.rank(degree))


def chain_map(
    source: BasedComplex, target: BasedComplex, components: dict[int, "Matrix"]
) -> ChainMap:
    """Validated chain map; raises if any square fails to commute."""
    if source.spec != target.spec:
        raise SpecMismatchError("chain map endpoints over different groups")
    comps: dict[int, Matrix] = {}
    for d, m in components.items():
        comps[d] = _as_matrix(m, target.rank(d), source.rank(d), f"component {d}")
    f = ChainMap(source, target, tuple(sorted(comps.items())))
    lo = min(source.min_degree, target.min_degree)
    hi = max(source.max_degree, target.max_degree)
    for i in range(lo, hi + 1):
        cols = source.rank(i)
        left = mat_compose(source.spec, target.diff(i), f.component(i), cols)
        right = mat_compose(source.spec, f.component(i + 1), source.diff(i), cols)
        if left != right:
            raise ShapeMismatchError(f"chain map does not commute at degree {i}")
    return f


def identity_chain_map(c: BasedComplex) -> ChainMap:
    comps = {i: mat_identity(c.rank(i)) for i in c.degrees}
    return chain_map(c, c, comps)


def scale_chain_map(f: ChainMap, x: GroupRingElem) -> ChainMap:
    """x*f for central x (integer multiples of group elements of an abelian
    group, or plain integers in general)."""
    comps = {
        d: tuple(tuple(ring_mul(f.source.spec, x, e) for e in row) for row in m)
        for d, m in f.components
    }
    return chain_map(f.source, f.target, comps)


def compose_chain_maps(g: ChainMap, f: ChainMap) -> ChainMap:
    if f.target != g.source:
        raise SpecMismatchError("chain maps are not composable")
    lo = min(f.source.min_degree, g.target.min_degree)
    hi = max(f.source.max_degree, g.target.max_degree)
    comps = {
        i: mat_compose(
            f.source.spec, g.component(i), f.component(i), f.source.rank(i)
        )
        for i in range(lo, hi + 1)
    }
    return chain_map(f.source, g.target, comps)


def homotopy_perturbation(f: ChainMap, h: dict[int, "Matrix"]) -> ChainMap:
    """f + d.h + h.d for a degree -1 map h (h_i: source_i -> target_{i-1})."""
    spec = f.source.spec
    hmats: dict[int, Matrix] = {}
    for d, m in h.items():
        hmats[d] = _as_matrix(m, f.target.rank(d - 1), f.source.rank(d), f"h at {d}")

    def hcomp(degree: int) -> Matrix:
        return hmats.get(
            degree, mat_zero(f.target.rank(degree - 1), f.source.rank(degree))
        )

    comps = {}
    lo = min(f.source.min_degree, f.target.min_degree) - 1
    hi = max(f.source.max_degree, f.target.max_degree) + 1
    for i in range(lo, hi + 1):
        cols = f.source.rank(i)
        term1 = mat_compose(spec, hcomp(i + 1), f.source.diff(i), cols)
        term2 = mat_compose(spec, f.target.diff(i - 1), hcomp(i), cols)
        comps[i] = mat_add(f.component(i), mat_add(term1, term2))
    return chain_map(f.source, f.target, comps)


def mapping_cone(f: ChainMap) -> BasedComplex:
    """cone(f) = C[1] + D with differential ((-d_C, 0), (-f, d_D)); the basis
    concatenates the shifted source basis before the target basis."""
    c, d = f.source, f.target
    lo = min(c.min_degree - 1, d.min_degree)
    hi = max(c.max_degree - 1, d.max_degree)
    ranks = [c.rank(i + 1) + d.rank(i) for i in range(lo, hi + 1)]
    labels = [c.degree_labels(i + 1) + d.degree_labels(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        dc = mat_neg(c.diff(i + 1))
        fd = mat_neg(f.component(i + 1))
        dd = d.diff(i)
        rows = []
        for r in range(c.rank(i + 2)):
            rows.append(dc[r] + (ZERO_ELEM,) * d.rank(i))
        for r in range(d.rank(i + 1)):
            rows.append(fd[r] + dd[r])
        diffs.append(tuple(rows))
    return based_complex(c.spec, lo, ranks, diffs, labels)


def tensor_z_complexes(a: BasedComplex, b: BasedComplex) -> BasedComplex:
    """Graded tensor of an integral complex with a complex over Z[G].

    Differential d_a x id + (-1)^deg id x d_b; basis ordered by (i, j) with
    the a-degree i ascending inside each total degree.
    """
    if a.spec != TRIVIAL_GROUP:
        raise SpecMismatchError("left tensor factor must be over the trivial group")
    lo = a.min_degree + b.min_degree
    hi = a.max_degree + b.max_degree

    def blocks(n: int) -> list[tuple[int, int]]:
        return [
            (i, n - i)
            for i in range(a.min_degree, a.max_degree + 1)
            if b.min_degree <= n - i <= b.max_degree
        ]

    def offsets(n: int) -> dict[tuple[int, int], int]:
        out, pos = {}, 0
        for i, j in blocks(n):
            out[(i, j)] = pos
            pos += a.rank(i) * b.rank(j)
        return out

    ranks = [sum(a.rank(i) * b.rank(j) for i, j in blocks(n)) for n in range(lo, hi + 1)]
    labels = [
        tuple(
            f"{la}|{lb}"
            for i, j in blocks(n)
            for la in a.degree_labels(i)
            for lb in b.degree_labels(j)
        )
        for n in range(lo, hi + 1)
    ]
    diffs = []
    for n in range(lo, hi):
        src_off, tgt_off = offsets(n), offsets(n + 1)
        rows = [[ZERO_ELEM] * ranks[n - lo] for _ in range(ranks[n + 1 - lo])]
        for i, j in blocks(n):
            da, db = a.diff(i), b.diff(j)
            so = src_off[(i, j)]
            rb = b.rank(j)
            if (i + 1, j) in tgt_off:
                to = tgt_off[(i + 1, j)]
                for r in range(a.rank(i + 1)):
                    for s in range(a.rank(i)):
                        m = int_value(da[r][s])
                        if m:
                            e = from_int(m)
                            for be in range(rb):
                                rows[to + r * rb + be][so + s * rb + be] = e
            if (i, j + 1) in tgt_off:
                to = tgt_off[(i, j + 1)]
                sign = -1 if i % 2 else 1
                rbt = b.rank(j + 1)
                for al in range(a.rank(i)):
                    for r in range(rbt):
                        for s in range(rb):
                            x = db[r][s]
                            if x:
                                rows[to + al * rbt + r][so + al * rb + s] = (
                                    x if sign == 1 else -x
                                )
        diffs.append(tuple(tuple(row) for row in rows))
    return based_complex(b.spec, lo, ranks, diffs, labels)


# --- integral linear algebra ---


def smith_normal_form(mat) -> tuple[int, ...]:
    """Nonzero invariant factors d_1 | d_2 | ... of an integer matrix."""
    a = [[int(x) for x in row] for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ShapeMismatchError("ragged integer matrix")
    factors: list[int] = []
    t = 0
    while t < min(m, n):
        piv = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] and (piv is None or abs(a[i][j]) < abs(a[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        a[t], a[i0] = a[i0], a[t]
        for row in a:
            row[t], row[j0] = row[j0], row[t]
        while True:
            # clear column t, swapping in any nonzero remainder (its absolute
            # value is strictly smaller than the pivot, so this terminates)
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // a[t][t]
                    if q:
                        for j in range(t, n):
                            a[i][j] -= q * a[t][j]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        dirty = True
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // a[t][t]
                    if q:
                        for i in range(t, m):
                            a[i][j] -= q * a[i][t]
                    if a[t][j]:
                        for i in range(t, m):
                            a[i][t], a[i][j] = a[i][j], a[i][t]
                        dirty = True
            if not dirty:
                break
        d = abs(a[t][t])
        bad = None
        for i in range(t + 1, m):
            if any(a[i][j] % d for j in range(t + 1, n)):
                bad = i
                break
        if bad is not None:
            for j in range(t, n):
                a[t][j] += a[bad][j]
            continue
        factors.append(d)
        t += 1
    return tuple(factors)


def integral_homology(c: BasedComplex) -> dict[int, tuple[int, tuple[int, ...]]]:
    """Per-degree (betti rank, torsion coefficients) of an integer complex."""
    if c.spec != TRIVIAL_GROUP:
        raise SpecMismatchError("integral homology needs the trivial group")
    mats = {
        i: [[int_value(x) for x in row] for row in c.diff(i)]
        for i in range(c.min_degree - 1, c.max_degree + 1)
    }
    snf = {i: smith_normal_form(m) for i, m in mats.items()}
    out = {}
    for i in c.degrees:
        rank_out = len(snf[i])
        rank_in = len(snf[i - 1])
        betti = c.rank(i) - rank_out - rank_in
        torsion = tuple(d for d in snf[i - 1] if d > 1)
        out[i] = (betti, torsion)
    return out


# --- complex file format ---


def complex_to_obj(c: BasedComplex) -> dict:
    return {
        "group": spec_to_obj(c.spec),
        "min_degree": c.min_degree,
        "ranks": list(c.ranks),
        "differentials": {
            str(c.min_degree + k): [[elem_to_obj(x) for x in row] for row in m]
            for k, m in enumerate(c.differentials)
        },
        "labels": [list(ls) for ls in c.labels],
    }


def complex_from_obj(obj) -> BasedComplex:
    """The complex a document spells; ranks summing past ``MAX_TOTAL_RANK``
    raise RankLimitError before any entry is read or matrix built."""
    try:
        spec = spec_from_obj(obj["group"])
        min_degree = json_int(obj["min_degree"])
        ranks = [json_int(r) for r in obj["ranks"]]
        total = sum(r for r in ranks if r > 0)
        if total > MAX_TOTAL_RANK:
            raise RankLimitError(f"total rank {total} exceeds the rank cap {MAX_TOTAL_RANK}")
        raw = obj["differentials"]
        if not isinstance(raw, dict):
            raise ValueError("differentials must be an object keyed by degree")
        window = [str(min_degree + k) for k in range(len(ranks) - 1)]
        stray = sorted(set(raw) - set(window))
        if stray:
            raise ValueError(
                f"differential keys {', '.join(stray)} lie outside the degrees"
                f" {', '.join(window) or '(none)'}"
            )
        diffs = []
        for k, key in enumerate(window):
            m = raw.get(key)
            if m is None:
                diffs.append(mat_zero(ranks[k + 1], ranks[k]))
            else:
                diffs.append(
                    tuple(tuple(elem_from_obj(spec, x) for x in row) for row in m)
                )
        labels = obj.get("labels")
        if "labels" in obj and not (
            isinstance(labels, list)
            and all(
                isinstance(ls, list) and all(isinstance(s, str) for s in ls)
                for ls in labels
            )
        ):
            raise ValueError("labels must be a list of lists of strings")
    except RankLimitError:
        raise
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ShapeMismatchError(f"malformed complex document: {exc}") from exc
    return based_complex(spec, min_degree, ranks, diffs, labels)


def _same_json(a, b) -> bool:
    """Whether JSON values a and b are equal with the same types all through,
    so that 7.0 or true is not 7 or 1, and objects have the same keys."""
    if type(a) is not type(b):
        return False
    if type(a) is list:
        return len(a) == len(b) and all(map(_same_json, a, b))
    if type(a) is dict:
        return a.keys() == b.keys() and all(_same_json(v, b[k]) for k, v in a.items())
    return a == b


_COMPLEX_KEYS = {"group", "min_degree", "ranks", "differentials", "labels"}


def _terms_match(coeffs: dict, terms) -> bool:
    """Whether a document's term list spells the element with this map: each
    term ``[coefficient, word]`` of plain JSON ints, no word twice, and the
    same coefficient on each word.  A word is read as its letter tuple, which
    then must be a key of the map, so it is a reduced word of the group."""
    if type(terms) is not list or len(terms) != len(coeffs):
        return False
    read = {}
    for term in terms:
        if type(term) is not list or len(term) != 2:
            return False
        c, letters = term
        if type(c) is not int or type(letters) is not list:
            return False
        key = []
        for letter in letters:
            if type(letter) is not list or len(letter) != 2:
                return False
            f, e = letter
            if type(f) is not int or type(e) is not int:
                return False
            key.append((f, e))
        read[tuple(key)] = c
    return read == coeffs  # so as many words as terms, none repeated


def matches_obj(c: BasedComplex, obj) -> bool:
    """Whether the complex document ``obj`` spells exactly ``c``, checked on
    the document without building any element.

    True only when the document has the five keys of ``complex_to_obj`` and
    the group, degree window, ranks and labels of ``c`` with JSON types as
    strict as ``complex_from_obj`` holds them to; a key for every
    differential, each matrix of c's shape; and in every entry the same
    coefficient on each word and no word twice, in any term order.  Then
    ``complex_from_obj(obj)`` returns a complex equal to ``c`` without
    raising.  False means nothing more: a document that spells ``c`` another
    way, such as with a zero term, a split term or no labels, may get it.
    ``c`` is held as ``based_complex`` builds it: on its support window,
    every matrix rank(i+1) x rank(i)."""
    if type(obj) is not dict or obj.keys() != _COMPLEX_KEYS:
        return False
    lo = c.min_degree
    if not (
        _same_json(obj["group"], spec_to_obj(c.spec))
        and _same_json(obj["min_degree"], lo)
        and _same_json(obj["ranks"], list(c.ranks))
        and _same_json(obj["labels"], [list(ls) for ls in c.labels])
    ):
        return False
    raw = obj["differentials"]
    if type(raw) is not dict or len(raw) != len(c.differentials):
        return False
    for k, m in enumerate(c.differentials):
        rows = raw.get(str(lo + k))
        if type(rows) is not list or len(rows) != len(m):
            return False
        for row, terms in zip(m, rows):
            if type(terms) is not list or len(terms) != len(row):
                return False
            for x, t in zip(row, terms):
                if not _terms_match(x.coeffs, t):
                    return False
    return True


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def save_complex(c: BasedComplex, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_canonical(complex_to_obj(c)))


def load_complex(path) -> BasedComplex:
    with open(path, "r", encoding="utf-8") as fh:
        return complex_from_obj(json.load(fh))
