"""Elementary simple operations on based complexes, plus certificates.

Simple homotopy equivalence of based complexes is generated by two kinds of
edit, and each has one primitive here:

- ``_edit_block`` inserts or deletes a trivial summand [Z[G] --1--> Z[G]]
  in degrees (d, d+1): an expansion or a retraction.  It changes ranks and
  labels and may widen the degree window.
- ``_change_basis`` makes an elementary change of basis in one degree: a
  handle slide c_a -> c_a + x*c_b or a deck transform c -> g*c.  It keeps
  ranks, labels, the window and every matrix shape.

Coefficients act on the left of basis vectors, so a slide multiplies the
outgoing column a by x on the left and corrects the incoming row b by x on
the right; a deck transform does the analogous one-sided rescalings.
Certificates record (start, ops, end) and can be replayed mechanically.

Working copy.  The primitives, and ``_is_retractable``, act on a ``_Work``:
a mutable copy of a based complex whose differentials are lists of row
lists, with ranks, labels and the degree window beside them.  ``_thaw``
makes it and ``_freeze`` turns it back into a ``BasedComplex`` (trimming
zero-rank end degrees, with no shape re-check, since every edit keeps the
shapes).  ``apply_op`` thaws, applies one op and freezes, and copies only
the rows the op writes; ``replay_end`` thaws ``start`` once, folds every
op into the same copy in place and freezes once.  So each op's checks and
``InvalidOpError`` texts exist once.

The primitives take the arithmetic of the entries as an ``_Entries``: the
zero, a fresh pivot one, the two factors of a slide or a deck, the fused
multiply-add and the +-g pivot test.  ``apply_op`` and
replay over a free product hold ``GroupRingElem`` entries.  Replay over Z/n
holds exponent maps (``grouprings.exponent_form``, exponent -> coefficient):
start's entries are read into maps when it is thawed, a slide's factors are
the coefficient's map and its negation, a deck's are {e: 1} and
{-e % n: 1} after one check of the word, and the maps are written back to
``GroupRingElem``s when the copy is frozen.

Ownership.  Over Z/n, ``exponent_mul_add`` adds into a non-empty map in
place, so a working copy keeps this rule: every non-empty entry is held by
exactly one slot, the shared zero is never written (an empty entry may be
shared, and a product into it is a new map), and ``start``, ``end`` and the
op coefficients are never mutated, since thawing reads them into new maps.

Size.  No entry may hold more than ``MAX_ENTRY_TERMS`` terms.  Over a large
group products rarely collide, so each slide by a two-term coefficient can
double an entry.  ``_change_basis`` checks each multiply-add before it runs:
acc's terms plus the product of its factors' counts, the most terms the
result can hold, must stay within the cap, else ``InvalidOpError``.
"""
from __future__ import annotations

import random
from collections.abc import Callable, Sized
from dataclasses import dataclass
from functools import lru_cache, partial
from operator import attrgetter

from .grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    ONE_ELEM,
    ZERO_ELEM,
    elem_from_dict,
    elem_from_exponents,
    elem_from_obj,
    elem_to_obj,
    exponent_form,
    exponent_mul_add,
    generator_word,
    json_int,
    ring_mul_add,
    validate_word,
    word_from_obj,
    word_inverse,
)
from .chaincomplex import (
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
# 7,222.
MAX_ENTRY_TERMS = 50_000


class InvalidOpError(ValueError):
    """An operation does not apply to the given complex."""


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


@dataclass(frozen=True, slots=True)
class _Entries:
    """The arithmetic of a working copy's entries that the ops use.

    ``zero`` fills new slots and is never written; ``one()`` is a new pivot.
    ``slide(x)`` and ``deck(w)`` give the (left, right) factors of a slide
    by x and of a deck transform by w: the change of basis and the matching
    entry of its inverse.  ``mul_add(acc, a, b)`` = acc + a*b with a's words
    on the left; it may update a non-empty acc in place.  ``len(terms(x))``
    counts an entry's terms, and ``is_signed_word`` is the +-g test of a
    retraction's pivot.  ``read`` and ``write`` convert a ``GroupRingElem``
    into an entry and back when the copy is thawed and frozen; None keeps
    entries as they are.
    """

    zero: object
    one: Callable[[], object]
    slide: Callable[[GroupRingElem], tuple[object, object]]
    deck: Callable[[GroupWord], tuple[object, object]]
    mul_add: Callable[[object, object, object], object]
    terms: Callable[[object], Sized]
    is_signed_word: Callable[[object], bool]
    read: Callable[[GroupRingElem], object] | None = None
    write: Callable[[object], GroupRingElem] | None = None


def _word_entries(spec: GroupSpec) -> _Entries:
    """Entries are ``GroupRingElem``s, which are immutable, so ``one`` and
    ``zero`` may be shared.  Cached, because ``apply_op`` and
    ``retractable_positions`` ask for it on every call, and keyed on the
    group's kind and orders, which hash in C where a ``GroupSpec`` does not."""
    return _word_entries_of(spec.kind, spec.factor_orders)


@lru_cache(maxsize=64)
def _word_entries_of(kind: str, orders: tuple[int, ...]) -> _Entries:
    spec = GroupSpec(kind, orders)
    return _Entries(
        ZERO_ELEM, _one_elem, _word_slide, partial(_word_deck, spec),
        partial(ring_mul_add, spec), attrgetter("terms"), _is_signed_elem,
    )


def _exponent_entries(spec: GroupSpec) -> _Entries:
    """Entries over Z/n are exponent maps (``grouprings.exponent_form``),
    which ``exponent_mul_add`` updates in place."""
    n = spec.factor_orders[0]
    return _Entries(
        {}, _exponent_one, partial(_exponent_slide, n), partial(_exponent_deck, spec),
        partial(exponent_mul_add, n), dict.keys, _is_signed_exponents,
        partial(exponent_form, n), elem_from_exponents,
    )


def _one_elem() -> GroupRingElem:
    return ONE_ELEM


def _word_slide(x: GroupRingElem):
    return x, -x


def _word_deck(spec: GroupSpec, w: GroupWord):
    # word_inverse validates w; both monomials are one term, so sorted
    return GroupRingElem(((w, 1),)), GroupRingElem(((word_inverse(spec, w), 1),))


def _is_signed_elem(x: GroupRingElem) -> bool:
    return len(x.terms) == 1 and x.terms[0][1] in (1, -1)


def _exponent_one() -> dict:
    return {0: 1}


def _exponent_slide(n: int, x: GroupRingElem):
    left = exponent_form(n, x)
    return left, {e: -c for e, c in left.items()}


def _exponent_deck(spec: GroupSpec, w: GroupWord):
    validate_word(spec, w)  # the check and text of word_inverse
    e = w.letters[0][1] if w.letters else 0
    return {e: 1}, {-e % spec.factor_orders[0]: 1}


def _is_signed_exponents(x: dict) -> bool:
    return len(x) == 1 and next(iter(x.values())) in (1, -1)


class _Work(_GradedComplex):
    """A mutable working copy of a based complex.  ``ranks`` is a list,
    ``labels`` a list of per-degree tuples and each differential a list of
    row lists, except that what no op has written yet may still be the tuple
    it was thawed from: ``_edit_block`` makes ranks and labels lists, and
    ``rows`` and ``_row`` make matrices and rows lists.  After a block edit
    [min_degree, max_degree] may keep zero-rank end degrees until frozen."""

    __slots__ = ("spec", "min_degree", "max_degree", "ranks", "differentials", "labels", "zero")

    def __init__(self, spec, min_degree, max_degree, ranks, differentials, labels, zero):
        self.spec = spec
        self.min_degree = min_degree
        self.max_degree = max_degree
        self.ranks = ranks
        self.differentials = differentials
        self.labels = labels
        self.zero = zero

    def _zero(self):
        return self.zero

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


def _thaw(c: BasedComplex, ar: _Entries) -> _Work:
    """A working copy of c.  With ``ar.read`` every entry is read into a new
    one at once; else a row is copied only when an op first writes it."""
    read, zero = ar.read, ar.zero
    if read is None:
        diffs = list(c.differentials)
    else:
        diffs = [[[read(x) if x else zero for x in row] for row in m] for m in c.differentials]
    return _Work(c.spec, c.min_degree, c.max_degree, c.ranks, diffs, c.labels, zero)


def _freeze(w: _Work, ar: _Entries) -> BasedComplex:
    """The based complex w holds, on its support window.  Every edit keeps
    each matrix rank(i+1) x rank(i), so the shapes are not checked again."""
    ranks, labels, lo, mats = w.ranks, w.labels, w.min_degree, w.differentials
    if type(ranks) is not tuple:  # a block edit ran, so trim the window
        window = support(ranks)
        if window is None:
            return zero_complex(w.spec)
        first, last = window
        ranks, labels = tuple(ranks[first:last + 1]), tuple(labels[first:last + 1])
        lo, mats = lo + first, mats[first:last]
    write = ar.write
    if write is None:
        mats = tuple([m if type(m) is tuple else tuple(map(tuple, m)) for m in mats])
    else:
        mats = tuple(
            tuple(tuple(write(x) if x else ZERO_ELEM for x in row) for row in m) for m in mats
        )
    return BasedComplex(w.spec, lo, lo + len(ranks) - 1, ranks, mats, labels)


def _widen(w: _Work, lo: int, hi: int) -> None:
    """Grow w's window to hold degrees lo..hi, adding zero-rank degrees."""
    if lo < w.min_degree:
        gap = w.min_degree - lo
        # d_lo .. d_(min-2) are 0 x 0; d_(min-1) has a row per basis vector
        # of the old bottom degree, each of width 0
        w.differentials[:0] = [()] * (gap - 1) + [((),) * w.ranks[0]]
        w.ranks[:0] = [0] * gap
        w.labels[:0] = [()] * gap
        w.min_degree = lo
    if hi > w.max_degree:
        gap = hi - w.max_degree
        w.differentials += [()] * gap  # no rows: the new degrees have rank 0
        w.ranks += [0] * gap
        w.labels += [()] * gap
        w.max_degree = hi


def _edit_block(w: _Work, d: int, k: int, ar: _Entries, insert: bool) -> None:
    """Insert (or delete) basis vector k of degrees d and d+1 in w.

    Their ranks and labels change, and so do column k of each outgoing
    differential and row k of each incoming one; an inserted block gets a
    new pivot 1 at [k][k] of d_d.  The window first grows to hold both
    degrees; a zero-rank end degree that a deletion leaves is trimmed when
    w is frozen.
    """
    if type(w.ranks) is tuple:
        w.ranks, w.labels = list(w.ranks), list(w.labels)
    _widen(w, d, d + 1)
    lo, hi = w.min_degree, w.max_degree
    ranks, labels, zero = w.ranks, w.labels, ar.zero
    for i, label in ((d, f"u{d}_{k}"), (d + 1, f"v{d + 1}_{k}")):
        at, ls = i - lo, labels[i - lo]
        if insert:
            ranks[at] += 1
            labels[at] = ls[:k] + (label,) + ls[k:]
        else:
            ranks[at] -= 1
            labels[at] = ls[:k] + ls[k + 1:]
        if i < hi:  # column k of the outgoing d_i
            m = w.rows(i)
            for j in range(len(m)):
                row = _row(m, j)
                if insert:
                    row.insert(k, zero)
                else:
                    del row[k]
        if i > lo:  # row k of the incoming d_{i-1}, as wide as C_{i-1} is now
            if insert:
                w.rows(i - 1).insert(k, [zero] * ranks[at - 1])
            else:
                del w.rows(i - 1)[k]
    if insert:
        _row(w.rows(d), k)[k] = ar.one()


def _apply_expansion(w: _Work, op: Expansion, ar: _Entries) -> None:
    d, k = op.degree, op.position
    if k < 0 or k > w.rank(d) or k > w.rank(d + 1):
        raise InvalidOpError(f"expansion position {k} out of range at degree {d}")
    _edit_block(w, d, k, ar, insert=True)


def _is_retractable(c, d: int, k: int, ar: _Entries) -> bool:
    """Whether basis vector k of degrees d and d+1 spans a trivial summand:
    a +-g pivot at [k][k] of d_d, and nothing else in row k or column k of
    d_d, in row k of d_{d-1} or in column k of d_{d+1}.  It reads only
    ``diff``, so c is a working copy or a frozen ``BasedComplex``."""
    m = c.diff(d)
    return (
        ar.is_signed_word(m[k][k])
        and not any(x for j, x in enumerate(m[k]) if j != k)
        and not any(r[k] for i, r in enumerate(m) if i != k)
        and not any(c.diff(d - 1)[k])
        and not any(r[k] for r in c.diff(d + 1))
    )


def retractable_positions(c: BasedComplex, degree: int) -> list[int]:
    """Indices k where (degree, k) names a deletable trivial summand."""
    ar = _word_entries(c.spec)
    return [
        k for k in range(min(c.rank(degree), c.rank(degree + 1)))
        if _is_retractable(c, degree, k, ar)
    ]


def _apply_retraction(w: _Work, op: Retraction, ar: _Entries) -> None:
    d, k = op.degree, op.position
    if not (0 <= k < w.rank(d) and k < w.rank(d + 1)):
        raise InvalidOpError(f"retraction position {k} out of range at degree {d}")
    if not _is_retractable(w, d, k, ar):
        raise InvalidOpError(
            f"block ({d}, {k}) is not a trivial [Z[G] -> Z[G]] summand"
        )
    _edit_block(w, d, k, ar, insert=False)


def _change_basis(
    w: _Work, d: int, target: int, source: int, left, right, ar: _Entries,
) -> None:
    """Replace basis element ``target`` of degree d by left*c_source, added
    to c_target when the indices differ.

    The outgoing differential's column ``target`` takes ``left`` times column
    ``source`` on the left; the incoming differential's row ``source`` takes
    row ``target`` times ``right``, the matching entry of the inverse change,
    on the right.  Entries with a zero factor are kept as they are.  When the
    indices are equal, each product goes into the zero, so the old entry is
    never updated in place while it is read.

    Before each multiply-add, the most terms its result can hold, acc's plus
    the product of the factors' counts, is checked against
    ``MAX_ENTRY_TERMS``, so no step does more work or builds a larger entry.
    """
    mul_add, terms, zero = ar.mul_add, ar.terms, ar.zero
    lo, same = w.min_degree, target == source
    if d < w.max_degree:
        m, width = w.rows(d), len(terms(left))
        for i, row in enumerate(m):
            x = row[source]
            if x:
                acc = zero if same else row[target]
                bound = len(terms(acc)) + width * len(terms(x))
                if bound > MAX_ENTRY_TERMS:
                    raise _too_many_terms(d, bound)
                if type(row) is tuple:
                    row = m[i] = list(row)
                row[target] = mul_add(acc, left, x)
    if d > lo:
        m, width = w.rows(d - 1), len(terms(right))
        out = _row(m, source)
        for j, x in enumerate(m[target]):
            if x:
                acc = zero if same else out[j]
                bound = len(terms(acc)) + len(terms(x)) * width
                if bound > MAX_ENTRY_TERMS:
                    raise _too_many_terms(d - 1, bound)
                out[j] = mul_add(acc, x, right)


def _too_many_terms(degree: int, bound: int) -> InvalidOpError:
    return InvalidOpError(
        f"an entry of the differential at degree {degree} could reach {bound} terms,"
        f" past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}"
    )


def _apply_handle_slide(w: _Work, op: HandleSlide, ar: _Entries) -> None:
    d, a, b = op.degree, op.target, op.source
    r = w.rank(d)
    if a == b:
        raise InvalidOpError("handle slide needs distinct indices")
    if not (0 <= a < r and 0 <= b < r):
        raise InvalidOpError(f"slide indices ({a}, {b}) out of range at degree {d}")
    _change_basis(w, d, a, b, *ar.slide(op.coefficient), ar)


def _apply_deck(w: _Work, op: DeckTransform, ar: _Entries) -> None:
    d, idx = op.degree, op.index
    if not (0 <= idx < w.rank(d)):
        raise InvalidOpError(f"deck index {idx} out of range at degree {d}")
    _change_basis(w, d, idx, idx, *ar.deck(op.word), ar)


def _apply(w: _Work, op: SimpleOp, ar: _Entries) -> None:
    """Apply one op to the working copy w, in place."""
    if isinstance(op, HandleSlide):
        _apply_handle_slide(w, op, ar)
    elif isinstance(op, DeckTransform):
        _apply_deck(w, op, ar)
    elif isinstance(op, Expansion):
        _apply_expansion(w, op, ar)
    elif isinstance(op, Retraction):
        _apply_retraction(w, op, ar)
    else:
        raise InvalidOpError(f"unknown operation {op!r}")


def apply_op(c: BasedComplex, op: SimpleOp) -> BasedComplex:
    """The complex after one op."""
    ar = _word_entries(c.spec)
    w = _thaw(c, ar)
    _apply(w, op, ar)
    return _freeze(w, ar)


@dataclass(frozen=True, slots=True)
class OpCertificate:
    """A recorded simple homotopy: replaying ops from start must yield end."""

    start: BasedComplex
    ops: tuple[SimpleOp, ...]
    end: BasedComplex


def replay_end(cert: OpCertificate) -> BasedComplex:
    """The complex that folding the ops over start builds.

    Start is thawed once into a working copy, every op edits that copy in
    place, and it is frozen once.  Over Z/n its entries are exponent maps,
    over a free product ``GroupRingElem``s."""
    spec = cert.start.spec
    ar = _exponent_entries(spec) if spec.kind == "cyclic" else _word_entries(spec)
    w = _thaw(cert.start, ar)
    for step, op in enumerate(cert.ops):
        try:
            _apply(w, op, ar)
        except InvalidOpError as exc:
            raise InvalidOpError(f"step {step}: {exc}") from exc
    return _freeze(w, ar)


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

    Expansions are suppressed once the total rank exceeds the starting rank
    by ``max_growth``, so long certificates stay desk-sized.  Every op drawn
    applies, so the only ``InvalidOpError`` is ``step i: ...`` for an entry
    that could pass ``MAX_ENTRY_TERMS``.
    """
    rng = random.Random(seed)
    start = c
    ops: list[SimpleOp] = []
    budget = start.total_rank() + max_growth
    for _ in range(length):
        menu = []
        slide_degrees = [d for d in c.degrees if c.rank(d) >= 2]
        if slide_degrees:
            menu += ["slide"] * 4 + ["deck"] * 3
        elif any(c.rank(d) for d in c.degrees):
            menu += ["deck"] * 3
        retr = [
            (d, k)
            for d in range(c.min_degree, c.max_degree)
            for k in retractable_positions(c, d)
        ]
        if retr:
            menu += ["retract"] * 2
        if c.total_rank() < budget:
            menu += ["expand"] * 2
        if not menu:
            break
        kind = rng.choice(menu)
        if kind == "slide":
            d = rng.choice(slide_degrees)
            a, b = rng.sample(range(c.rank(d)), 2)
            op: SimpleOp = HandleSlide(d, a, b, _random_coefficient(c.spec, rng))
        elif kind == "deck":
            degs = [d for d in c.degrees if c.rank(d)]
            d = rng.choice(degs)
            op = DeckTransform(d, rng.randrange(c.rank(d)), _random_word(c.spec, rng))
        elif kind == "retract":
            d, k = rng.choice(retr)
            op = Retraction(d, k)
        else:
            d = rng.randint(c.min_degree - 1, c.max_degree)
            k = rng.randint(0, min(c.rank(d), c.rank(d + 1)))
            op = Expansion(d, k)
        try:
            c = apply_op(c, op)
        except InvalidOpError as exc:  # a step past MAX_ENTRY_TERMS
            raise InvalidOpError(f"step {len(ops)}: {exc}") from exc
        ops.append(op)
    return OpCertificate(start, tuple(ops), c)


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


def cert_from_obj(obj) -> OpCertificate:
    try:
        start = complex_from_obj(obj["start"])
        end = complex_from_obj(obj["end"])
        ops = tuple(_op_from_obj(start.spec, o) for o in obj["ops"])
    except (AttributeError, KeyError, TypeError) as exc:
        raise ShapeMismatchError(f"malformed certificate document: {exc}") from exc
    return OpCertificate(start, ops, end)
