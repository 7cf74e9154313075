"""Torsion invariants of based complexes.

field_torsion is the alternating product of change-of-basis determinants
of an acyclic complex over Q(zeta_n) (Milnor, Whitehead torsion; Turaev,
Thm 2.2), from one fraction-free elimination per degree, top degree down.
In degree i, S_i holds the pivot columns of d_i found one step earlier
(none at the top).  Eliminating d_{i-1} on the rows of C_i outside S_i
yields the pivot columns S_{i-1} and the minor of d_{i-1} on those rows
and columns.  Signed by the row order, that minor is the determinant of
the basis (d_{i-1} e_j for j in S_{i-1}, then e_j for j in S_i) of C_i, and
it enters with exponent (-1)^(i-1).  The value does not depend on which
pivots are chosen.  Each minor is a product of pivot powers p^e (see
_eliminate), so the value is one product of the factors with e > 0 over one
product of those with e < 0 (``cyclofield.cyclo_product``, which brings
each to lowest terms once): nothing is divided until the end, which
inverts once, and only when some factor lands in the denominator.

The elimination is left-looking (Golub and Van Loan, Matrix Computations,
Sec. 3.2): it reads and updates a column only when its scan reaches it,
and stops at the last pivot.  In the mapping cone of an isomorphism the
columns past the last pivot of d_{i-1} are the whole d_C and d_D blocks,
which a right-looking elimination would update at every step.  Within a
column the pivot is the row whose entry has the fewest nonzero power-basis
coefficients, the first of them on ties: sparsity pivoting (Markowitz,
1957) among the rows of one column.  The pivot columns do not depend on
it, and sparse pivots keep both the products and the growth of the
entries small: on a complex of ranks (20, 32, 24, 12) over Z/13
(``tests/golden/growth13.json``) the first nonzero row gave factors of
32,145 bits, the sparsest gives 454.  The work is on integer numerators:
a column is read over the lcm of its entries' denominators, an update
multiplies nonzero coefficients only, into one buffer, and a value of
Q(zeta_n) is built only for each factor (see _eliminate).  The elimination
is given the modulus and reads each entry as a pair (power-basis integer
numerators, denominator): field_torsion passes each value's own pair.

reidemeister_torsion is field torsion over a based complex whose entries
go through rho as the scan reads them, each straight into its integer
vector over 1 (``cyclofield.rep_vector``), with no value of Q(zeta_n)
built to be taken apart, so base change is never built and an entry the
scan never reaches is never evaluated; then reduction to the unit coset.
The update p*a - f*b does not divide, so an entry can double in size with
each pivot step; a working entry past ``MAX_ENTRY_BITS`` stops the
elimination with EntryLimitError, which names the degree of the
differential.  torsion_of_map measures a quasi-isomorphism through its mapping cone;
fingerprints collect the classes over a family of representations.

Torsion classes carry the Galois action.  For d a unit mod n, sigma_d:
zeta -> zeta^d is a field automorphism and sigma_d . rho is again a
representation.  An automorphism keeps linear independence, so the
elimination finds the same pivot columns and ranks under sigma_d . rho as
under rho; its pivot rows may differ, since sigma_d changes how many
power-basis coefficients a value has, but the value does not depend on the
pivots, so it is sigma_d of the value under rho, sign included.  Ranks are
kept, so acyclicity holds for every twist or for none.  sigma_d also maps
+-rho(G) onto itself, so the class under sigma_d . rho is
``TorsionClass.conjugate(d)`` of the class under rho: one elimination serves
every unit twist.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .cyclofield import (
    CycloNum,
    Representation,
    TorsionClass,
    cyclo_from_nums,
    cyclo_inv,
    cyclo_one,
    cyclo_product,
    cyclo_zero,
    rep_vector,
    terms_mul_sub,
    torsion_class,
    unit_subgroup,
    units,
)
from .chaincomplex import (
    BasedComplex,
    ChainMap,
    FieldComplex,
    ShapeMismatchError,
    SpecMismatchError,
    mapping_cone,
)

# The most bits the largest coefficient of a working entry of the
# elimination (``_eliminate``) may have.  Its update p*a - f*b does not
# divide, so an entry can double in size with each pivot step.  The
# elimination checks each pivot, once per pivot step, and raises
# ``EntryLimitError``.  The largest pivot is 454 bits on
# ``tests/golden/growth13.json`` (ranks (20, 32, 24, 12) over Z/13, 3
# scramble steps per unit of rank), 7,400 and 7,488 at 4 and 5 steps, at
# most 3 on the other golden inputs, and 2, 132 and 112 on the benchmark's
# lens-cli, cert-verify and wide-torsion at seed 4.  At 6 steps
# (``tests/golden/growth13-6.json``, 133 KB, every document cap passed)
# entries passed 32,768 bits after 0.7 s and 131,072 after 3.6 s, and the
# run had not ended after 120 s; the cap refuses it after about 1 s (2-vCPU
# machine, Python 3.11).
MAX_ENTRY_BITS = 32_768


class EntryLimitError(ValueError):
    """A working entry of the elimination of the differential at ``degree``
    has a coefficient of ``bits`` bits, past ``MAX_ENTRY_BITS``."""

    def __init__(self, degree: int | None, bits: int):
        self.degree = degree
        self.bits = bits
        super().__init__(
            f"the elimination of the differential at degree {degree} built an entry"
            f" of {bits} bits, past MAX_ENTRY_BITS = {MAX_ENTRY_BITS}"
        )


class NotAcyclicError(ValueError):
    """The complex has homology at ``degree``; ``defect`` is the rank gap."""

    def __init__(self, degree: int, defect: int):
        self.degree = degree
        self.defect = defect
        super().__init__(f"not acyclic at degree {degree} (rank defect {defect})")


def _column_scan(cols: int, strategy: str) -> list[int]:
    if strategy == "first":
        return list(range(cols))
    if strategy == "last":
        return list(range(cols - 1, -1, -1))
    raise ValueError(f"unknown pivot strategy {strategy!r}")


def _terms(nums) -> list[tuple[int, int]]:
    """The nonzero (power, coefficient) terms of a power-basis vector."""
    return [(i, c) for i, c in enumerate(nums) if c]


def _eliminate(mat, rows: list[int], scan: list[int], n: int, entry):
    """One fraction-free row elimination of ``mat`` restricted to ``rows``,
    left-looking: column j is read, as ``entry(mat[r][j])`` for every given
    row r, only when the scan reaches it.  ``entry`` gives a value of
    Q(zeta_n) as a pair (power-basis integer numerators, positive
    denominator), so no value is built to be read.

    Columns are visited in ``scan`` order.  Each pivot step is recorded as
    (pivot row, pivot p, the rows it updated with each one's multiplier f);
    a visited column first replays the recorded steps on itself, in order,
    replacing the entry a of an updated row by p*a - f*b, b the pivot row's
    entry, which never divides.  Of the remaining rows with a nonzero entry,
    the one whose entry has the fewest nonzero power-basis coefficients
    (the first on ties) then becomes the column's pivot row (Markowitz's
    sparsity rule, on one column), and every other one is recorded as
    updated.  The scan ends when no rows remain, so columns past the last
    pivot are never read.  Each visited entry gets the products a
    right-looking elimination with the same pivots, which updates every
    later column at each step, would give it.

    The work is on integer numerators.  A column is read as its entries'
    numerators over the lcm s_j of their denominators, so the elimination
    runs on the matrix with column j scaled by s_j.  By induction the
    working entry of row r in column j is then s_j * S_r times the one
    without scales, where S_r starts at 1 and an update by the pivot of row
    q found in column j multiplies it by s_j * S_q; so pivots, rows and the
    zero pattern are those of the elimination without scales, and a pivot
    is divided by its scale once, when it is recorded as a factor.  p and
    each f are kept as their nonzero (power, coefficient) terms, and a
    column's pivot row entry b is split into terms once per step, so an
    update (``terms_mul_sub``) multiplies only nonzero coefficients.

    Size.  Before a pivot step is taken, the bit length of the pivot's
    largest coefficient is held to ``MAX_ENTRY_BITS``, once per step and
    never per update; a larger one raises EntryLimitError, whose degree
    _torsion fills in.  Every update multiplies by a pivot, and in an
    acyclic complex every row's entry ends as a pivot, so growth shows
    there; checking each recorded row as well made a wide-torsion pass
    about 4% slower.

    Returns ``(cols, pivot_rows, factors)``: the pivot columns, which form
    a basis of the column space of the restricted matrix, the row each was
    found in, and a pair (p, 1 - k) for each pivot p that updated k != 1
    rows.  An update multiplies its row, and so the determinant of what
    remains, by p; so when every row becomes a pivot row, as in an acyclic
    complex, the minor of ``mat`` on those rows and columns (both in pivot
    order) is the product of p^e over ``factors``.
    """
    cols: list[int] = []
    pivot_rows: list[int] = []
    factors: list[tuple[CycloNum, int]] = []
    if not rows:
        return cols, pivot_rows, factors
    bound = 1 << MAX_ENTRY_BITS  # a pivot coefficient this large has too many bits
    live = list(range(len(rows)))  # positions in ``rows`` not yet pivots
    scales = [1] * len(rows)  # S_r
    steps: list[tuple[int, list, tuple]] = []  # (q, p's terms, ((k, f's terms), ...))
    for j in scan:
        values = [entry(mat[r][j]) for r in rows]
        s = lcm(*[d for _, d in values])
        col = [nums if d == s else [c * (s // d) for c in nums] for nums, d in values]
        for q, p, updated in steps:
            b = _terms(col[q])
            for k, f in updated:
                a = col[k]
                if b or any(a):  # else p*0 - f*0 leaves the zero
                    col[k] = terms_mul_sub(n, p, a, f, b)
        nonzero = [k for k in live if any(col[k])]
        if not nonzero:
            continue
        q = min(nonzero, key=lambda k: len(col[k]) - col[k].count(0))
        pivot = col[q]
        if max(pivot) >= bound or min(pivot) <= -bound:  # once per pivot step
            raise EntryLimitError(None, max(max(pivot), -min(pivot)).bit_length())
        cols.append(j)
        pivot_rows.append(rows[q])
        live.remove(q)
        nonzero.remove(q)
        scale = s * scales[q]
        for k in nonzero:
            scales[k] *= scale
        if len(nonzero) != 1:
            factors.append((cyclo_from_nums(n, col[q], scale), 1 - len(nonzero)))
        if not live:
            break
        steps.append((q, _terms(col[q]), tuple((k, _terms(col[k])) for k in nonzero)))
    return cols, pivot_rows, factors


def _is_odd(order: list[int]) -> bool:
    """Whether ``order``, a permutation of 0..len(order)-1, is odd."""
    inversions = sum(a > b for k, a in enumerate(order) for b in order[k + 1:])
    return inversions % 2 == 1


def _torsion(c, modulus: int, entry, pivot_strategy: str) -> CycloNum:
    """The field torsion of the graded complex ``c`` (a FieldComplex or a
    BasedComplex) whose entries ``entry`` takes into Q(zeta_modulus), as
    (numerators, denominator) pairs; the one elimination body of
    field_torsion and reidemeister_torsion."""
    num: list[CycloNum] = []  # the factors of the value, repeated by exponent
    den: list[CycloNum] = []  # and those of its inverse
    odd = False
    failure = None
    basis: list[int] = []  # pivot columns of d_i, found in the previous step
    for i in range(c.max_degree, c.min_degree - 1, -1):
        taken = set(basis)
        rest = [r for r in range(c.rank(i)) if r not in taken]
        scan = _column_scan(c.rank(i - 1), pivot_strategy)
        try:
            cols, pivot_rows, factors = _eliminate(c.diff(i - 1), rest, scan, modulus, entry)
        except EntryLimitError as exc:
            raise EntryLimitError(i - 1, exc.bits) from None
        defect = len(rest) - len(cols)
        if defect:
            failure = NotAcyclicError(i, defect)
        elif failure is None:
            # the basis (d e_j for j in cols, e_j for j in basis) of C_i has
            # determinant +-(the minor): expand along its unit columns
            odd ^= _is_odd(pivot_rows + basis)
            sign = 1 if i % 2 else -1  # exponent (-1)^(i-1)
            for p, e in factors:
                e *= sign
                if e > 0:
                    num += [p] * e
                else:
                    den += [p] * -e
        basis = cols
    if failure is not None:
        raise failure
    if den:
        num.append(cyclo_inv(cyclo_product(den)))
    value = cyclo_product(num) if num else cyclo_one(modulus)
    return -value if odd else value


def _as_pair(x: CycloNum) -> tuple[tuple[int, ...], int]:
    return x.nums, x.den


def field_torsion(fc: FieldComplex, pivot_strategy: str = "first") -> CycloNum:
    """Torsion of an acyclic field complex with respect to its basis.

    ``fc`` must be a complex (d.d = 0): the elimination in degree i drops
    the coordinates of C_i already used as pivots of d_i, which loses no
    rank of d_{i-1} only because im d_{i-1} lies in ker d_i.  Raises
    NotAcyclicError (with the lowest offending degree and its rank defect)
    when dim C_i = rank d_i + rank d_{i-1} fails somewhere.
    """
    return _torsion(fc, fc.modulus, _as_pair, pivot_strategy)


def reidemeister_torsion(c: BasedComplex, rep: Representation) -> TorsionClass:
    """Torsion class of C tensored along rho, in Q(zeta_n)^x / +-rho(G).

    The field torsion of ``base_change(c, rep)``, without building it: the
    elimination evaluates an entry only when its column is scanned, straight
    to its integer vector (``rep_vector``) over denominator 1, and a zero
    entry as one shared zero pair, so an entry it never reaches is never
    evaluated, and a malformed word in one goes unreported.

    ``c`` must be a complex (d.d = 0); on anything else the class, or the
    degree of a NotAcyclicError, means nothing.  It is not checked here,
    where a fingerprint would pay for it once per representation: over 12
    certificates of 400 ops on L(7|13,q), one ``chaincomplex.validate`` of
    each end took 0.017 s against 0.010 s for both 6-entry fingerprints and
    0.046 s for the replay (best of 5, Python 3.11, 2-vCPU Intel Xeon).
    Check untrusted input once where it enters, as the CLI does.
    """
    if rep.spec != c.spec:
        raise SpecMismatchError("representation is for a different group")
    zero = (cyclo_zero(rep.modulus).nums, 1)
    value = _torsion(
        c, rep.modulus, lambda x: (rep_vector(rep, x), 1) if x else zero, "first"
    )
    return torsion_class(value, unit_subgroup(rep))


def torsion_of_map(f: ChainMap, rep: Representation) -> TorsionClass:
    """Torsion of a quasi-isomorphism: the torsion of its mapping cone.
    ``f`` must be a chain map between complexes; see reidemeister_torsion."""
    return reidemeister_torsion(mapping_cone(f), rep)


@dataclass(frozen=True, slots=True)
class TorsionFingerprint:
    """Torsion classes of one complex across several representations; a
    None entry records that the complex is not acyclic under that one."""

    entries: tuple[tuple[Representation, TorsionClass | None], ...]


def _twist_between(base: Representation, rep: Representation) -> int | None:
    """A unit d with rep = sigma_d . base, or None when rep lies outside the
    orbit of base."""
    if rep.spec != base.spec or rep.modulus != base.modulus:
        return None
    n = rep.modulus
    pairs = list(zip(base.generator_exponents, rep.generator_exponents))
    return next((d for d in units(n) if all(d * e % n == f for e, f in pairs)), None)


def fingerprint(c: BasedComplex, reps) -> TorsionFingerprint:
    """The classes of ``c`` under each of ``reps``, from one elimination
    per Galois orbit the reps meet: the class under the first rep of an
    orbit, conjugated for the others (see the module docstring); ``c`` must
    be a complex (d.d = 0), which is not checked (see reidemeister_torsion).
    A NotAcyclicError is recorded as a None class; an EntryLimitError is
    raised, since it says nothing about acyclicity."""
    reps = list(reps)
    if len(set(reps)) != len(reps):
        raise ValueError("representations must be pairwise distinct")
    bases: list[tuple[Representation, TorsionClass | None]] = []
    entries = []
    for rep in reps:
        for base, cls in bases:
            d = _twist_between(base, rep)
            if d is not None:
                break
        else:
            d = 1
            try:
                cls = reidemeister_torsion(c, rep)
            except NotAcyclicError:
                cls = None
            bases.append((rep, cls))
        entries.append((rep, None if cls is None else cls.conjugate(d)))
    return TorsionFingerprint(tuple(entries))


def fingerprints_equivalent(a: TorsionFingerprint, b: TorsionFingerprint) -> bool:
    """Compare fingerprints entry by entry: acyclicity patterns and classes
    must both agree.  A twist is a representation, so fingerprints taken
    under a permuted family compare twisted complexes."""
    if len(a.entries) != len(b.entries):
        raise ShapeMismatchError("fingerprints have different lengths")
    for (_, cls_a), (_, cls_b) in zip(a.entries, b.entries):
        if (cls_a is None) != (cls_b is None):
            return False
        if cls_a is None:
            continue
        if cls_a.units != cls_b.units:
            raise ShapeMismatchError("matched entries use different unit groups")
        if cls_a != cls_b:
            return False
    return True
