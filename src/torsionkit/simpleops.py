"""Elementary simple operations on based complexes, plus certificates.

Simple homotopy equivalence of based complexes is generated by two kinds of
edit, and each has one primitive here:

- ``_edit_block`` inserts or deletes a trivial summand [Z[G] --1--> Z[G]]
  in degrees (d, d+1): an expansion or a retraction.  It changes ranks and
  labels and may widen the degree window.
- ``_change_basis`` makes an elementary change of basis in one degree: a
  handle slide c_a -> c_a + x*c_b or, over a free product, a deck
  transform c -> g*c (over Z/n a deck only records an exponent; see
  Exponents).  It keeps ranks, labels, the window and every matrix shape.

Coefficients act on the left of basis vectors, so a slide multiplies the
outgoing column a by x on the left and corrects the incoming row b by x on
the right; a deck transform does the analogous one-sided rescalings.
Certificates record (start, ops, end) and can be replayed mechanically.

Working copy.  The primitives, and ``_is_retractable``, act on a ``_Work``:
a mutable copy of a based complex whose differentials are lists of row
lists, with ranks, labels and the degree window beside them.  ``_thaw``
makes it and ``_freeze`` turns it back into a ``BasedComplex`` (trimming
zero-rank end degrees, with no shape re-check, since every edit keeps the
shapes).  ``apply_op``, ``replay_end`` and ``random_op_sequence`` all thaw
once, apply their ops to the one copy in place and freeze once, so each
op's checks and ``InvalidOpError`` texts exist once.

Entries.  Over Z/n with n*(n+1) <= ``MAX_ENTRY_TERMS`` (n <= 223,
``_dense_order``) a slide computes on lists of n coefficients indexed by
exponent (``grouprings.list_form`` reads an element into one): each term
c*g^e of its coefficient rotates the source entry by e (``x[-e:] +
x[:-e]``) and adds c times it with C-level ``map`` (``_list_mul_add``).
Otherwise a slide or deck computes on working maps (``grouprings.map_form``
reads an element's map into one: group element -> coefficient, keyed by the
exponent over Z/n and by the letter tuple over a free product) with the
multiply-add kernel of the group (``grouprings.map_mul_add``).  A slide's
factors are its coefficient's map and that map negated; over a free
product a deck's are the one-term maps of its word and of the word's
inverse.  Of the multiply-adds that replaying the benchmark's seed-4
certificates made on maps, 84% had a full source entry (all 7 or 13
terms), where a list beats a map; lists lose on entries of one or two
terms.  From L(223,2), 20 random ops replayed in 0.43 ms on lists against
0.24 ms on maps, and 300 ops in 11.8 ms against 27.0 ms (medians).

Exponents.  Over Z/n a deck c_i -> g^e*c_i is a trivial unit of Z[G], so
it touches no entry: it adds e to the exponent s_i (mod n) that the copy
keeps for every basis vector once a deck has run, and the stored entry
(i, j) of d_d stands for g^(s_(d,j) - s_(d+1,i)) times itself (Z/n is
abelian, so the two one-sided factors combine).  A slide c_a -> c_a +
x*c_b in degree d multiplies by x*g^(s_b - s_a) instead of x, a block edit
gives its new vectors exponent 0 and drops a deleted vector's, and
``_is_retractable`` reads the stored entries as they are, since a unit
factor changes neither whether an entry is zero nor whether it is +-g.
``_freeze`` writes the exponents out once, visiting only the columns and
rows of vectors whose exponent is nonzero, so a one-op ``apply_op`` deck
does the work an eager deck does.  Free products keep eager decks: carrying
letter-word units there (x becoming u_a^-1 x u_b) made the replay of the
benchmark's 24 seed-4 free-product certificates about 17% slower (23-24 ->
27-28 ms, best of 5), since their entries grow to hundreds of terms before
the freeze multiplies every term by the units, where an eager deck
multiplies an entry while it is small.

Ownership.  An entry is read (``list_form`` or ``map_form``) the first
time an op touches it, and written back only when the copy is frozen
(through ``power_keys``, built once per freeze, or ``elem_from_map``).  So
an entry is either an unread ``GroupRingElem``, which is immutable and may
be shared (the zeros and pivot ones that a block edit inserts are), a list,
or a working map that its slot owns and that the kernels add into in
place.  A list is never written once made, so slots may share one: a slide
by 1 into a zero entry stores the source's list itself.  Writing out an
exponent puts a new list or map in the slot.  Reading makes a new list or
map, so ``start``, ``end`` and the ops are never mutated; over a free
product the frozen element keeps its slot's map, which is safe because the
copy is dropped once frozen.  A zero is read as the shared empty map
``_NO_TERMS``: the map kernels never write an empty accumulator but return
a new map, and a list sum that cancels to zero is stored as ``_NO_TERMS``,
so an entry is zero exactly when it is falsy, read or not.

Size.  No entry may hold more than ``MAX_ENTRY_TERMS`` terms.  Over a large
group products rarely collide, so each slide by a two-term coefficient can
double an entry.  On maps ``_change_basis`` checks each multiply-add before
it runs: acc's terms plus the product of its factors' counts, the most
terms the result can hold, must stay within the cap, else
``InvalidOpError``.  An entry over Z/n holds at most n terms, so on lists
that bound is at most n + n*n, which the dense range keeps within the cap:
the check could never fire there, and lists make none.  A deck over Z/n
changes no term count, so it makes no such check.

Reach.  Only an expansion adds degrees or rank.  It applies at a degree in
[lo - 1, hi] of the window as it stands (``_window``), while the total rank
after it stays within ``MAX_TOTAL_RANK`` (``chaincomplex``'s cap, which
``complex_from_obj`` holds documents to), else ``OpLimitError``; it is
checked before the copy is edited, and ``random_op_sequence`` draws by it.
``ops_from_obj`` refuses more than ``MAX_CERT_OPS`` ops before it reads
one, and ``replay_end`` before it thaws start.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add, mul, sub

from .grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    InvalidWordError,
    ONE_ELEM,
    ZERO_ELEM,
    elem_from_dict,
    elem_from_map,
    elem_from_obj,
    elem_to_obj,
    generator_word,
    json_int,
    list_form,
    map_form,
    map_mul_add,
    power_keys,
    validate_word,
    word_from_obj,
    word_inverse,
)
from .chaincomplex import (
    MAX_TOTAL_RANK,
    BasedComplex,
    ShapeMismatchError,
    _GradedComplex,
    complex_from_obj,
    complex_to_obj,
    support,
    zero_complex,
)

# The most terms one entry of a differential may hold while ops are applied,
# and so the most term products one multiply-add may form.  Over a large
# group products rarely collide: without a cap, 16 slides by two-term
# coefficients over Z/10^9 built a 642,140-term entry in 7.7 s, and each
# further slide about doubles it; a check after the product instead of
# before it let one slide by a 1000-term coefficient onto a 49,990-term
# entry run 61 s and build 48.8M terms.  The cap lies well above what the
# tests and the benchmark build: the benchmark's certificates peak at 13
# terms over Z/n and 306 over Z/p * Z/p, and 40 random ops over Z/100000 at
# 7,222.  It also sets where entries over Z/n are lists: up to n = 223,
# since 223*224 <= 50,000 < 224*225 (see Entries and Size).
MAX_ENTRY_TERMS = 50_000
# Most simple operations a certificate may hold: ``ops_from_obj`` refuses a
# longer op list before it reads any op, ``replay_end`` a longer certificate
# built in code before it thaws start, and the CLI the --length of gen-cert.
# On L(7,2) and a 2-vCPU machine, gen-cert at the cap takes 0.39 s and
# verify-cert of its output 0.21 s (medians of 5 runs, start-up included);
# the certificate file is 0.8 MB.
MAX_CERT_OPS = 10_000


class InvalidOpError(ValueError):
    """An operation does not apply to the given complex."""


class OpLimitError(InvalidOpError):
    """An expansion outside the reach of the complex or past
    ``MAX_TOTAL_RANK``, or a certificate of more than ``MAX_CERT_OPS`` ops."""


@dataclass(frozen=True, slots=True)
class Expansion:
    """Insert a [Z[G] --1--> Z[G]] summand in degrees (degree, degree+1),
    with the new basis vectors at the given insertion index in both."""

    degree: int
    position: int


@dataclass(frozen=True, slots=True)
class Retraction:
    """Delete such a summand; the pivot entry must be exactly +-g and both
    new basis vectors must be otherwise unlinked by the differential."""

    degree: int
    position: int


@dataclass(frozen=True, slots=True)
class HandleSlide:
    """Replace basis element ``target`` by target + coefficient * source
    (same degree, distinct indices)."""

    degree: int
    target: int
    source: int
    coefficient: GroupRingElem


@dataclass(frozen=True, slots=True)
class DeckTransform:
    """Rescale one basis element by a group element."""

    degree: int
    index: int
    word: GroupWord


SimpleOp = Expansion | Retraction | HandleSlide | DeckTransform


class _Work(_GradedComplex):
    """A mutable working copy of a based complex.  ``ranks`` is a list,
    ``labels`` a list of per-degree tuples and each differential a list of
    row lists, except that what no op has written yet may still be the tuple
    it was thawed from: ``_edit_block`` makes ranks and labels lists, and
    ``rows`` and ``_row`` make matrices and rows lists.  After a block edit
    [min_degree, max_degree] may keep zero-rank end degrees until frozen.

    Over Z/n, once a deck has run, ``shifts`` holds one list per degree of
    the window with the exponent s (mod n) of each basis vector (see
    Exponents in the module docstring).  Before that, and always over a
    free product, it is None.

    ``dense`` is n over a Z/n whose entries are worked on as lists (see
    Entries), else 0."""

    __slots__ = ("spec", "min_degree", "max_degree", "ranks", "differentials", "labels", "shifts", "dense")

    def __init__(self, spec, min_degree, max_degree, ranks, differentials, labels, shifts, dense):
        self.spec = spec
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.ranks = ranks
        self.differentials = differentials
        self.labels = labels
        self.shifts = shifts
        self.dense = dense

    def _zero(self):
        return ZERO_ELEM

    def rows(self, degree: int) -> list:
        """The differential leaving ``degree``, in the window, as a list of
        rows to edit; a row stays a tuple until ``_row`` thaws it."""
        at = degree - self.min_degree
        m = self.differentials[at]
        if type(m) is tuple:
            m = self.differentials[at] = list(m)
        return m


def _row(m: list, i: int) -> list:
    """Row i of a matrix from ``_Work.rows``, as a list to write."""
    row = m[i]
    if type(row) is tuple:
        row = m[i] = list(row)
    return row


# The working form of every zero entry: a read zero, and a list entry that
# a slide cancels.  The map kernels never write an empty accumulator and
# lists are never written, so it stays empty.
_NO_TERMS: dict = {}


def _read(spec: GroupSpec, dense: int, x):
    """Entry x as a working entry: x itself once read, else read from its
    element into a new list of ``dense`` coefficients when dense is nonzero,
    into a new map when it is 0 (``_NO_TERMS`` for a zero either way)."""
    if type(x) is not GroupRingElem:
        return x
    if not x:
        return _NO_TERMS
    return list_form(dense, x) if dense else map_form(spec, x)


def _dense_order(spec: GroupSpec) -> int:
    """n when spec is a Z/n whose entries are worked on as lists, else 0:
    over Z/n an entry holds at most n terms, so when n*(n+1) is within
    ``MAX_ENTRY_TERMS`` no multiply-add can pass the cap (see Size)."""
    n = spec.factor_orders[0]
    return n if spec.kind == "cyclic" and n * (n + 1) <= MAX_ENTRY_TERMS else 0


def _thaw(c: BasedComplex) -> _Work:
    """A working copy of c; a row is copied only when an op first writes it."""
    return _Work(
        c.spec, c.min_degree, c.max_degree, c.ranks, list(c.differentials), c.labels, None, _dense_order(c.spec)
    )


def _shifted(n: int, x, e: int):
    """g^e * x over Z/n, for a list entry and 0 <= e < n a rotation, for a
    map keyed by exponent a new map."""
    if type(x) is list:
        return x[-e:] + x[:-e]
    return {(k + e) % n: c for k, c in x.items()}


def _write_shifts(w: _Work) -> None:
    """Multiply each stored entry (i, j) of each d_d by g^(s_(d,j) - s_(d+1,i))
    and drop the exponents.  Only the columns and rows of basis vectors
    with a nonzero exponent are visited, and each entry at most once."""
    spec, dense, lo, shifts = w.spec, w.dense, w.min_degree, w.shifts
    n = spec.factor_orders[0]
    for at in range(len(shifts) - 1):  # d_d for d = lo + at
        cols, rows = shifts[at], shifts[at + 1]
        hot = [(j, e) for j, e in enumerate(cols) if e]
        if not hot and not any(rows):
            continue
        m = w.rows(lo + at)
        for i, t in enumerate(rows):
            if t:  # the whole row, each entry by its column's shift too
                row = _row(m, i)
                for j, x in enumerate(row):
                    e = (cols[j] - t) % n
                    if x and e:
                        row[j] = _shifted(n, _read(spec, dense, x), e)
            else:
                for j, e in hot:
                    x = m[i][j]
                    if x:
                        _row(m, i)[j] = _shifted(n, _read(spec, dense, x), e)
    w.shifts = None


def _frozen_row(spec: GroupSpec, keys: tuple, row) -> tuple:
    """A row of a working copy as a tuple of elements, each map or list
    written back; keys[e] is the letter tuple of g^e for a list."""
    if type(row) is tuple:
        return row
    out = []
    for x in row:
        if type(x) is list:
            x = GroupRingElem(dict(compress(zip(keys, x), x)))
        elif type(x) is dict:
            x = elem_from_map(spec, x)
        out.append(x)
    return tuple(out)


def _freeze(w: _Work) -> BasedComplex:
    """The based complex w holds, on its support window, with every map
    written back and, over Z/n, every exponent written out.  Every edit
    keeps each matrix rank(i+1) x rank(i), so the shapes are not checked
    again."""
    if w.shifts is not None:
        _write_shifts(w)
    ranks, labels, lo, mats, spec = w.ranks, w.labels, w.min_degree, w.differentials, w.spec
    if type(ranks) is not tuple:  # a block edit ran, so trim the window
        window = support(ranks)
        if window is None:
            return zero_complex(spec)
        first, last = window
        ranks, labels = tuple(ranks[first:last + 1]), tuple(labels[first:last + 1])
        lo, mats = lo + first, mats[first:last]
    keys = power_keys(w.dense)
    mats = tuple([m if type(m) is tuple else tuple([_frozen_row(spec, keys, row) for row in m]) for m in mats])
    return BasedComplex(spec, lo, lo + len(ranks) - 1, ranks, mats, labels)


def _widen(w: _Work, lo: int, hi: int) -> None:
    """Grow w's window to hold degrees lo..hi, adding zero-rank degrees."""
    if lo < w.min_degree:
        gap = w.min_degree - lo
        # d_lo .. d_(min-2) are 0 x 0; d_(min-1) has a row per basis vector
        # of the old bottom degree, each of width 0
        w.differentials[:0] = [()] * (gap - 1) + [((),) * w.ranks[0]]
        w.ranks[:0] = [0] * gap
        w.labels[:0] = [()] * gap
        if w.shifts is not None:
            w.shifts[:0] = [[] for _ in range(gap)]
        w.min_degree = lo
    if hi > w.max_degree:
        gap = hi - w.max_degree
        w.differentials += [()] * gap  # no rows: the new degrees have rank 0
        w.ranks += [0] * gap
        w.labels += [()] * gap
        if w.shifts is not None:
            w.shifts += [[] for _ in range(gap)]
        w.max_degree = hi


def _edit_block(w: _Work, d: int, k: int, insert: bool) -> None:
    """Insert (or delete) basis vector k of degrees d and d+1 in w.

    Their ranks and labels change, and so do column k of each outgoing
    differential and row k of each incoming one; an inserted block gets a
    pivot 1 at [k][k] of d_d.  The new entries are the unread ``ZERO_ELEM``
    and ``ONE_ELEM``; once exponents are kept, the new vectors get 0 and a
    deleted vector's exponent goes with it.  The window first grows to hold
    both degrees; a zero-rank end degree that a deletion leaves is trimmed
    when w is frozen.
    """
    if type(w.ranks) is tuple:
        w.ranks, w.labels = list(w.ranks), list(w.labels)
    _widen(w, d, d + 1)
    lo, hi = w.min_degree, w.max_degree
    ranks, labels, shifts = w.ranks, w.labels, w.shifts
    for i, label in ((d, f"u{d}_{k}"), (d + 1, f"v{d + 1}_{k}")):
        at, ls = i - lo, labels[i - lo]
        if insert:
            ranks[at] += 1
            labels[at] = ls[:k] + (label,) + ls[k:]
            if shifts is not None:
                shifts[at].insert(k, 0)
        else:
            ranks[at] -= 1
            labels[at] = ls[:k] + ls[k + 1:]
            if shifts is not None:
                del shifts[at][k]
        if i < hi:  # column k of the outgoing d_i
            m = w.rows(i)
            for j in range(len(m)):
                row = _row(m, j)
                if insert:
                    row.insert(k, ZERO_ELEM)
                else:
                    del row[k]
        if i > lo:  # row k of the incoming d_{i-1}, as wide as C_{i-1} is now
            if insert:
                w.rows(i - 1).insert(k, [ZERO_ELEM] * ranks[at - 1])
            else:
                del w.rows(i - 1)[k]
    if insert:
        _row(w.rows(d), k)[k] = ONE_ELEM


def _window(w: _Work) -> tuple[int, int]:
    """The degree window of the complex w would freeze to ({0} for the zero complex)."""
    window = support(w.ranks)
    return (0, 0) if window is None else (w.min_degree + window[0], w.min_degree + window[1])


def _apply_expansion(w: _Work, op: Expansion) -> None:
    d, k = op.degree, op.position
    lo, hi = _window(w)
    if not lo - 1 <= d <= hi:
        raise OpLimitError(
            f"expansion degree {d} lies outside {lo - 1}..{hi}, the degrees the ops before it can reach"
        )
    if w.total_rank() + 2 > MAX_TOTAL_RANK:
        raise OpLimitError(f"total rank {w.total_rank() + 2} exceeds the rank cap {MAX_TOTAL_RANK}")
    if k < 0 or k > w.rank(d) or k > w.rank(d + 1):
        raise InvalidOpError(f"expansion position {k} out of range at degree {d}")
    _edit_block(w, d, k, insert=True)


def _is_signed_word(x) -> bool:
    """Whether entry x, read or unread, is +-g: one term, coefficient +-1."""
    if type(x) is list:
        return x.count(0) == len(x) - 1 and (1 in x or -1 in x)
    m = x if type(x) is dict else x.coeffs
    return len(m) == 1 and next(iter(m.values())) in (1, -1)


def _is_retractable(c, d: int, k: int) -> bool:
    """Whether basis vector k of degrees d and d+1 spans a trivial summand:
    a +-g pivot at [k][k] of d_d, and nothing else in row k or column k of
    d_d, in row k of d_{d-1} or in column k of d_{d+1}.  It reads only
    ``diff``, so c is a working copy or a frozen ``BasedComplex``."""
    m = c.diff(d)
    return (
        _is_signed_word(m[k][k])
        and not any(x for j, x in enumerate(m[k]) if j != k)
        and not any(r[k] for i, r in enumerate(m) if i != k)
        and not any(c.diff(d - 1)[k])
        and not any(r[k] for r in c.diff(d + 1))
    )


def retractable_positions(c: BasedComplex, degree: int) -> list[int]:
    """Indices k where (degree, k) names a deletable trivial summand."""
    return [
        k for k in range(min(c.rank(degree), c.rank(degree + 1)))
        if _is_retractable(c, degree, k)
    ]


def _apply_retraction(w: _Work, op: Retraction) -> None:
    d, k = op.degree, op.position
    if not (0 <= k < w.rank(d) and k < w.rank(d + 1)):
        raise InvalidOpError(f"retraction position {k} out of range at degree {d}")
    if not _is_retractable(w, d, k):
        raise InvalidOpError(
            f"block ({d}, {k}) is not a trivial [Z[G] -> Z[G]] summand"
        )
    _edit_block(w, d, k, insert=False)


def _change_basis(w: _Work, d: int, target: int, source: int, left: dict, right: dict) -> None:
    """Replace basis element ``target`` of degree d by left*c_source, added
    to c_target when the indices differ.

    The outgoing differential's column ``target`` takes ``left`` times column
    ``source`` on the left; the incoming differential's row ``source`` takes
    row ``target`` times ``right``, the matching entry of the inverse change,
    on the right.  Entries with a zero factor are kept as they are, and each
    factor entry is kept in its slot once read.  When the indices are equal,
    each product goes into ``_NO_TERMS``, so the old entry is never updated
    in place while it is read.

    On maps, before each multiply-add, the most terms its result can hold,
    acc's plus the product of the factors' counts, is checked against
    ``MAX_ENTRY_TERMS``, so no step does more work or builds a larger entry.
    On lists (Z/n is abelian, so x*right is right*x) that bound is at most
    n*(n+1), which ``_dense_order`` keeps within the cap.
    """
    spec, dense, same = w.spec, w.dense, target == source
    if d < w.max_degree:
        m, width = w.rows(d), len(left)
        for i, row in enumerate(m):
            x = row[source]
            if x:
                if type(row) is tuple:
                    row = m[i] = list(row)
                x = row[source] = _read(spec, dense, x)
                acc = _NO_TERMS if same else _read(spec, dense, row[target])
                if dense:
                    row[target] = _list_mul_add(acc, left, x)
                    continue
                bound = len(acc) + width * len(x)
                if bound > MAX_ENTRY_TERMS:
                    raise _too_many_terms(d, bound)
                row[target] = map_mul_add(spec, acc, left, x)
    if d > w.min_degree:
        m, width = w.rows(d - 1), len(right)
        src, out = _row(m, target), _row(m, source)
        for j, x in enumerate(src):
            if x:
                x = src[j] = _read(spec, dense, x)
                acc = _NO_TERMS if same else _read(spec, dense, out[j])
                if dense:
                    out[j] = _list_mul_add(acc, right, x)
                    continue
                bound = len(acc) + len(x) * width
                if bound > MAX_ENTRY_TERMS:
                    raise _too_many_terms(d - 1, bound)
                out[j] = map_mul_add(spec, acc, x, right)


def _list_mul_add(acc, a: dict, x: list):
    """acc + a*x over Z/n, for an exponent map a and a list entry x (acc a
    list entry or ``_NO_TERMS``): a new list, x itself when acc is zero and
    a is 1, or ``_NO_TERMS`` when the sum is zero.  Each term c*g^e of a
    rotates x by e and adds c times it; neither acc nor x is written."""
    for e, c in a.items():
        y = x[-e:] + x[:-e] if e else x
        if not acc:
            acc = y if c == 1 else list(map(mul, y, repeat(c)))
        elif c == 1:
            acc = list(map(add, acc, y))
        elif c == -1:
            acc = list(map(sub, acc, y))
        else:
            acc = list(map(add, acc, map(mul, y, repeat(c))))
    return acc if any(acc) else _NO_TERMS


def _too_many_terms(degree: int, bound: int) -> InvalidOpError:
    return InvalidOpError(
        f"an entry of the differential at degree {degree} could reach {bound} terms,"
        f" past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}"
    )


def _apply_handle_slide(w: _Work, op: HandleSlide) -> None:
    d, a, b = op.degree, op.target, op.source
    r = w.rank(d)
    if a == b:
        raise InvalidOpError("handle slide needs distinct indices")
    if not (0 <= a < r and 0 <= b < r):
        raise InvalidOpError(f"slide indices ({a}, {b}) out of range at degree {d}")
    left = map_form(w.spec, op.coefficient)
    if w.shifts is not None:  # on the stored vectors, c_a + x*c_b is c_a + x*g^(s_b - s_a)*c_b
        s = w.shifts[d - w.min_degree]
        if s[a] != s[b]:
            left = _shifted(w.spec.factor_orders[0], left, s[b] - s[a])
    _change_basis(w, d, a, b, left, {g: -c for g, c in left.items()})


def _apply_deck(w: _Work, op: DeckTransform) -> None:
    d, idx = op.degree, op.index
    if not (0 <= idx < w.rank(d)):
        raise InvalidOpError(f"deck index {idx} out of range at degree {d}")
    spec, g = w.spec, op.word
    validate_word(spec, g)  # over every group, so a bad word has one text
    if spec.kind == "cyclic":  # a word is g^e or the identity
        if w.shifts is None:  # every basis vector starts at exponent 0
            w.shifts = [[0] * r for r in w.ranks]
        s = w.shifts[d - w.min_degree]
        s[idx] = (s[idx] + (g.letters[0][1] if g else 0)) % spec.factor_orders[0]
        return
    _change_basis(w, d, idx, idx, {g.letters: 1}, {word_inverse(spec, g).letters: 1})


def _apply(w: _Work, op: SimpleOp) -> None:
    """Apply one op to the working copy w, in place."""
    if isinstance(op, HandleSlide):
        _apply_handle_slide(w, op)
    elif isinstance(op, DeckTransform):
        _apply_deck(w, op)
    elif isinstance(op, Expansion):
        _apply_expansion(w, op)
    elif isinstance(op, Retraction):
        _apply_retraction(w, op)
    else:
        raise InvalidOpError(f"unknown operation {op!r}")


def _apply_step(w: _Work, step: int, op: SimpleOp) -> None:
    """``_apply``, with the op's index in a sequence on its error: its text
    becomes ``step i: <reason>``, and it keeps ``step`` and ``reason``."""
    try:
        _apply(w, op)
    except (InvalidOpError, InvalidWordError) as exc:
        err = type(exc)(f"step {step}: {exc}")
        err.step, err.reason = step, str(exc)
        raise err from exc


def apply_op(c: BasedComplex, op: SimpleOp) -> BasedComplex:
    """The complex after one op."""
    w = _thaw(c)
    _apply(w, op)
    return _freeze(w)


@dataclass(frozen=True, slots=True)
class OpCertificate:
    """A recorded simple homotopy: replaying ops from start must yield end."""

    start: BasedComplex
    ops: tuple[SimpleOp, ...]
    end: BasedComplex


def replay_end(cert: OpCertificate) -> BasedComplex:
    """The complex that folding the ops over start builds: start is thawed
    once into a working copy, every op edits it in place, and it is frozen
    once.  A certificate of more than ``MAX_CERT_OPS`` ops raises
    OpLimitError before anything is thawed."""
    if len(cert.ops) > MAX_CERT_OPS:
        raise OpLimitError(f"ops = {len(cert.ops)} exceeds the certificate cap {MAX_CERT_OPS}")
    w = _thaw(cert.start)
    for step, op in enumerate(cert.ops):
        _apply_step(w, step, op)
    return _freeze(w)


def replay(cert: OpCertificate) -> bool:
    """True iff folding the ops over start reproduces end exactly."""
    return replay_end(cert) == cert.end


# --- randomized generation (deterministic per seed) ---


def _random_word(spec: GroupSpec, rng: random.Random) -> GroupWord:
    if spec.kind == "cyclic":
        order = spec.factor_orders[0]
        if order == 1:
            return IDENTITY_WORD
        return generator_word(spec, 0, rng.randint(1, order - 1))
    length = rng.randint(1, 2)
    letters = []
    prev = -1
    for _ in range(length):
        f = rng.choice([i for i in range(spec.num_factors) if i != prev])
        letters.append((f, rng.randint(1, spec.order_of(f) - 1)))
        prev = f
    return GroupWord(tuple(letters))


def _random_coefficient(spec: GroupSpec, rng: random.Random) -> GroupRingElem:
    scale = rng.choice([-2, -1, 1, 2])
    return elem_from_dict({_random_word(spec, rng): scale})


DEFAULT_MAX_GROWTH = 8


def random_op_sequence(
    c: BasedComplex, length: int, seed: int, max_growth: int = DEFAULT_MAX_GROWTH
) -> OpCertificate:
    """A valid random certificate starting at ``c``.

    Like replay, it thaws c once and applies each op to that working copy;
    each op is drawn from the copy as it stands (its ranks, its window and
    its trivial summands), and the copy is frozen once at the end.
    Expansions follow replay's rule (Reach in the module docstring), and
    stop once the total rank exceeds the starting rank by ``max_growth``,
    so long certificates stay desk-sized.  Every op drawn applies, so the
    only ``InvalidOpError`` is ``step i: ...`` for an entry that could pass
    ``MAX_ENTRY_TERMS``.
    """
    rng = random.Random(seed)
    w = _thaw(c)
    ops: list[SimpleOp] = []
    budget = min(c.total_rank() + max_growth, MAX_TOTAL_RANK - 1)  # so total + 2 <= the cap
    for _ in range(length):
        lo, hi = _window(w)
        degrees = range(lo, hi + 1)
        menu = []
        slide_degrees = [d for d in degrees if w.rank(d) >= 2]
        if slide_degrees:
            menu += ["slide"] * 4 + ["deck"] * 3
        elif any(w.rank(d) for d in degrees):
            menu += ["deck"] * 3
        retr = [
            (d, k)
            for d in range(lo, hi)
            for k in range(min(w.rank(d), w.rank(d + 1)))
            if _is_retractable(w, d, k)
        ]
        if retr:
            menu += ["retract"] * 2
        if w.total_rank() < budget:
            menu += ["expand"] * 2
        if not menu:
            break
        kind = rng.choice(menu)
        if kind == "slide":
            d = rng.choice(slide_degrees)
            a, b = rng.sample(range(w.rank(d)), 2)
            op: SimpleOp = HandleSlide(d, a, b, _random_coefficient(w.spec, rng))
        elif kind == "deck":
            d = rng.choice([d for d in degrees if w.rank(d)])
            op = DeckTransform(d, rng.randrange(w.rank(d)), _random_word(w.spec, rng))
        elif kind == "retract":
            d, k = rng.choice(retr)
            op = Retraction(d, k)
        else:
            d = rng.randint(lo - 1, hi)
            k = rng.randint(0, min(w.rank(d), w.rank(d + 1)))
            op = Expansion(d, k)
        _apply_step(w, len(ops), op)  # fails only past MAX_ENTRY_TERMS
        ops.append(op)
    return OpCertificate(c, tuple(ops), _freeze(w))


# --- certificate file format ---


def _op_to_obj(op: SimpleOp) -> dict:
    if isinstance(op, Expansion):
        return {"kind": "expansion", "degree": op.degree, "position": op.position}
    if isinstance(op, Retraction):
        return {"kind": "retraction", "degree": op.degree, "position": op.position}
    if isinstance(op, HandleSlide):
        return {
            "kind": "handle_slide",
            "degree": op.degree,
            "target": op.target,
            "source": op.source,
            "coefficient": elem_to_obj(op.coefficient),
        }
    if isinstance(op, DeckTransform):
        return {
            "kind": "deck_transform",
            "degree": op.degree,
            "index": op.index,
            "word": [[f, e] for f, e in op.word.letters],
        }
    raise InvalidOpError(f"unknown operation {op!r}")


def _op_from_obj(spec: GroupSpec, obj) -> SimpleOp:
    kind = obj.get("kind")
    if kind == "expansion":
        return Expansion(json_int(obj["degree"]), json_int(obj["position"]))
    if kind == "retraction":
        return Retraction(json_int(obj["degree"]), json_int(obj["position"]))
    if kind == "handle_slide":
        return HandleSlide(
            json_int(obj["degree"]),
            json_int(obj["target"]),
            json_int(obj["source"]),
            elem_from_obj(spec, obj["coefficient"]),
        )
    if kind == "deck_transform":
        w = word_from_obj(spec, obj["word"])
        return DeckTransform(json_int(obj["degree"]), json_int(obj["index"]), w)
    raise InvalidOpError(f"unknown op kind {kind!r}")


def cert_to_obj(cert: OpCertificate) -> dict:
    return {
        "start": complex_to_obj(cert.start),
        "ops": [_op_to_obj(op) for op in cert.ops],
        "end": complex_to_obj(cert.end),
    }


def _malformed(exc: Exception) -> ShapeMismatchError:
    return ShapeMismatchError(f"malformed certificate document: {exc}")


def cert_part(obj, key: str):
    """``obj[key]`` of a certificate document; a missing key, or a document
    that is not an object, raises ShapeMismatchError."""
    try:
        return obj[key]
    except (KeyError, TypeError) as exc:
        raise _malformed(exc) from exc


def ops_from_obj(spec: GroupSpec, obj) -> tuple[SimpleOp, ...]:
    """The ops a certificate document's op list spells, each read against
    spec, the group of its start; more than ``MAX_CERT_OPS`` of them raise
    OpLimitError before any is read."""
    if type(obj) is not list:  # an object or a string would iterate
        raise _malformed(TypeError(f"ops must be a list, got {type(obj).__name__}"))
    if len(obj) > MAX_CERT_OPS:
        raise OpLimitError(f"ops = {len(obj)} exceeds the certificate cap {MAX_CERT_OPS}")
    try:
        return tuple([_op_from_obj(spec, o) for o in obj])
    except (AttributeError, KeyError, TypeError) as exc:
        raise _malformed(exc) from exc


def cert_from_obj(obj) -> OpCertificate:
    """The certificate a document spells: its start, its end, then its ops."""
    start = complex_from_obj(cert_part(obj, "start"))
    end = complex_from_obj(cert_part(obj, "end"))
    return OpCertificate(start, ops_from_obj(start.spec, cert_part(obj, "ops")), end)
