"""Elementary simple operations on based complexes, plus certificates.

Simple homotopy equivalence of based complexes is generated by two kinds of
edit, and each has one primitive here:

- ``_edit_block`` inserts or deletes a trivial summand [Z[G] --1--> Z[G]]
  in degrees (d, d+1): an expansion or a retraction.  It changes ranks and
  labels and may move the degree window, so its result goes through
  ``based_complex``.
- ``_change_basis`` makes an elementary change of basis in one degree: a
  handle slide c_a -> c_a + x*c_b or a deck transform c -> g*c.  It keeps
  ranks, labels, the window and every matrix shape, so it replaces the
  differentials of the complex and checks nothing else.

Coefficients act on the left of basis vectors, so a slide multiplies the
outgoing column a by x on the left and corrects the incoming row b by x on
the right; a deck transform does the analogous one-sided rescalings.
Certificates record (start, ops, end) and can be replayed mechanically.

Both primitives, and so every op's checks and errors, take the arithmetic
of the entries as an ``_Entries``: zero, one, the fused multiply-add and the
+-g pivot test.  ``apply_op`` works on ``GroupRingElem`` entries.  Over Z/n,
``replay_end`` works in exponent form (``grouprings.exponent_form``, a map
from exponent to coefficient) and converts at two points: start's entries
once before the first op, and the end back to ``GroupRingElem``s once after
the last.  Over a free product it folds the ops on words.
"""
from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache, partial

from .grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    ONE_ELEM,
    ZERO_ELEM,
    _word_from_obj,
    elem_from_dict,
    elem_from_exponents,
    elem_from_obj,
    elem_to_obj,
    exponent_form,
    exponent_mul_add,
    generator_word,
    json_int,
    monomial,
    ring_mul_add,
    validate_word,
    word_inverse,
)
from .chaincomplex import (
    BasedComplex,
    ShapeMismatchError,
    based_complex,
    complex_from_obj,
    complex_to_obj,
)


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
    """The arithmetic of a complex's entries that the ops use: ``zero`` and
    ``one``, ``entry`` to read an op's coefficient, ``mul_add(acc, a, b)`` =
    acc + a*b with a's words on the left, and ``is_signed_word``, the +-g
    test of a retraction's pivot.  Entries are never mutated, so one zero
    fills every new slot."""

    zero: object
    one: object
    entry: Callable[[GroupRingElem], object]
    mul_add: Callable[[object, object, object], object]
    is_signed_word: Callable[[object], bool]


@lru_cache(maxsize=64)
def _word_entries(spec: GroupSpec) -> _Entries:
    """Entries are ``GroupRingElem``s.  Cached, because ``apply_op`` and
    ``retractable_positions`` ask for it on every call."""
    return _Entries(ZERO_ELEM, ONE_ELEM, _as_is, partial(ring_mul_add, spec), _is_signed_elem)


def _exponent_entries(n: int) -> _Entries:
    """Entries over Z/n are exponent maps (``grouprings.exponent_form``)."""
    return _Entries(
        {}, {0: 1}, partial(exponent_form, n), partial(exponent_mul_add, n), _is_signed_exponents
    )


def _as_is(x):
    return x


def _is_signed_elem(x: GroupRingElem) -> bool:
    return len(x.terms) == 1 and x.terms[0][1] in (1, -1)


def _is_signed_exponents(x: dict) -> bool:
    return len(x) == 1 and next(iter(x.values())) in (1, -1)


def _edit_block(c: BasedComplex, d: int, k: int, ar: _Entries, insert: bool) -> BasedComplex:
    """Insert (or delete) basis vector k of degrees d and d+1.

    Their ranks and labels change, and so do column k of each outgoing
    differential and row k of each incoming one; an inserted block gets the
    pivot 1 at [k][k] of d_d.  The window grows to hold both degrees, and
    ``based_complex`` trims a zero-rank end degree that a deletion leaves.
    """
    lo, hi = min(c.min_degree, d), max(c.max_degree, d + 1)
    ranks = [c.rank(i) for i in range(lo, hi + 1)]
    labels = [list(c.degree_labels(i)) for i in range(lo, hi + 1)]
    diffs = [c.diff(i) for i in range(lo, hi)]
    zero = ar.zero
    for i, label in ((d, f"u{d}_{k}"), (d + 1, f"v{d + 1}_{k}")):
        at = i - lo
        if insert:
            ranks[at] += 1
            labels[at].insert(k, label)
        else:
            ranks[at] -= 1
            del labels[at][k]
        if i < hi:  # column k of the outgoing d_i
            diffs[at] = [
                r[:k] + (zero,) + r[k:] if insert else r[:k] + r[k + 1:]
                for r in diffs[at]
            ]
        if i > lo:  # row k of the incoming d_{i-1}, as wide as C_{i-1} is now
            rows = list(diffs[at - 1])
            if insert:
                rows.insert(k, (zero,) * ranks[at - 1])
            else:
                del rows[k]
            diffs[at - 1] = rows
    if insert:
        m = diffs[d - lo]
        m[k] = m[k][:k] + (ar.one,) + m[k][k + 1:]
    return based_complex(c.spec, lo, ranks, diffs, labels)


def _apply_expansion(c: BasedComplex, op: Expansion, ar: _Entries) -> BasedComplex:
    d, k = op.degree, op.position
    if k < 0 or k > c.rank(d) or k > c.rank(d + 1):
        raise InvalidOpError(f"expansion position {k} out of range at degree {d}")
    return _edit_block(c, d, k, ar, insert=True)


def _is_retractable(c: BasedComplex, d: int, k: int, ar: _Entries) -> bool:
    """Whether basis vector k of degrees d and d+1 spans a trivial summand:
    a +-g pivot at [k][k] of d_d, and nothing else in row k or column k of
    d_d, in row k of d_{d-1} or in column k of d_{d+1}."""
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


def _apply_retraction(c: BasedComplex, op: Retraction, ar: _Entries) -> BasedComplex:
    d, k = op.degree, op.position
    if not (0 <= k < c.rank(d) and k < c.rank(d + 1)):
        raise InvalidOpError(f"retraction position {k} out of range at degree {d}")
    if not _is_retractable(c, d, k, ar):
        raise InvalidOpError(
            f"block ({d}, {k}) is not a trivial [Z[G] -> Z[G]] summand"
        )
    return _edit_block(c, d, k, ar, insert=False)


def _change_basis(
    c: BasedComplex, d: int, target: int, source: int,
    left: GroupRingElem, right: GroupRingElem, ar: _Entries,
) -> BasedComplex:
    """Replace basis element ``target`` of degree d by left*c_source, added
    to c_target when the indices differ.

    The outgoing differential's column ``target`` takes ``left`` times column
    ``source`` on the left; the incoming differential's row ``source`` takes
    row ``target`` times ``right``, the matching entry of the inverse change,
    on the right.  Rows with a zero in column ``source`` are kept as they are.
    Ranks, labels and the window stay, and every row stays a tuple of the
    same length, so the result needs no shape check.
    """
    mul_add = ar.mul_add
    left, right = ar.entry(left), ar.entry(right)
    lo = c.min_degree
    diffs = list(c.differentials)
    if d < c.max_degree:
        m = list(c.diff(d))
        for i, row in enumerate(m):
            x = row[source]
            if x:
                acc = ar.zero if target == source else row[target]
                m[i] = row[:target] + (mul_add(acc, left, x),) + row[target + 1:]
        diffs[d - lo] = tuple(m)
    if d > lo:
        m = list(c.diff(d - 1))
        accs = m[source] if target != source else (ar.zero,) * len(m[target])
        m[source] = tuple(
            mul_add(acc, x, right) if x else acc for x, acc in zip(m[target], accs)
        )
        diffs[d - 1 - lo] = tuple(m)
    return BasedComplex(c.spec, lo, c.max_degree, c.ranks, tuple(diffs), c.labels)


def _apply_handle_slide(c: BasedComplex, op: HandleSlide, ar: _Entries) -> BasedComplex:
    d, a, b, x = op.degree, op.target, op.source, op.coefficient
    r = c.rank(d)
    if a == b:
        raise InvalidOpError("handle slide needs distinct indices")
    if not (0 <= a < r and 0 <= b < r):
        raise InvalidOpError(f"slide indices ({a}, {b}) out of range at degree {d}")
    return _change_basis(c, d, a, b, x, -x, ar)


def _apply_deck(c: BasedComplex, op: DeckTransform, ar: _Entries) -> BasedComplex:
    d, idx, w = op.degree, op.index, op.word
    if not (0 <= idx < c.rank(d)):
        raise InvalidOpError(f"deck index {idx} out of range at degree {d}")
    # word_inverse validates w
    return _change_basis(
        c, d, idx, idx, monomial(w), monomial(word_inverse(c.spec, w)), ar
    )


def apply_op(c: BasedComplex, op: SimpleOp, ar: _Entries | None = None) -> BasedComplex:
    """The complex after one op.  ``ar`` is the arithmetic of c's entries
    when they are not ``GroupRingElem``s, as inside ``replay_end``."""
    ar = ar or _word_entries(c.spec)
    if isinstance(op, Expansion):
        return _apply_expansion(c, op, ar)
    if isinstance(op, Retraction):
        return _apply_retraction(c, op, ar)
    if isinstance(op, HandleSlide):
        return _apply_handle_slide(c, op, ar)
    if isinstance(op, DeckTransform):
        return _apply_deck(c, op, ar)
    raise InvalidOpError(f"unknown operation {op!r}")


@dataclass(frozen=True, slots=True)
class OpCertificate:
    """A recorded simple homotopy: replaying ops from start must yield end."""

    start: BasedComplex
    ops: tuple[SimpleOp, ...]
    end: BasedComplex


def _map_entries(c: BasedComplex, f) -> BasedComplex:
    return replace(c, differentials=tuple(
        tuple(tuple(f(x) for x in row) for row in m) for m in c.differentials
    ))


def replay_end(cert: OpCertificate) -> BasedComplex:
    """The complex that folding the ops over start builds.

    Over Z/n the fold runs in exponent form: start's entries are read into
    it once, every op acts on exponent maps, and the end is converted back
    to ``GroupRingElem``s once.  Over a free product it runs on words."""
    spec = cert.start.spec
    if spec.kind != "cyclic":
        return _fold(cert.start, cert.ops, _word_entries(spec))
    n = spec.factor_orders[0]
    c = _map_entries(cert.start, partial(exponent_form, n))
    return _map_entries(_fold(c, cert.ops, _exponent_entries(n)), elem_from_exponents)


def _fold(c: BasedComplex, ops, ar: _Entries) -> BasedComplex:
    for step, op in enumerate(ops):
        try:
            c = apply_op(c, op, ar)
        except InvalidOpError as exc:
            raise InvalidOpError(f"step {step}: {exc}") from exc
    return c


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
    by ``max_growth``, so long certificates stay desk-sized.
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
        c = apply_op(c, op)
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
        w = _word_from_obj(obj["word"])
        validate_word(spec, w)
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
