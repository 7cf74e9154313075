"""Elementary simple operations on based complexes, plus certificates.

The three operation kinds (expansion/retraction, handle slide, deck
transformation) generate simple homotopy equivalence of based complexes.
Coefficients act on the left of basis vectors, so a slide replacing c_a by
c_a + x*c_b multiplies the outgoing column a by x on the left and corrects
the incoming row b by x on the right; a deck transform c -> g*c does the
analogous one-sided rescalings.  Certificates record (start, ops, end) and
can be replayed mechanically.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

from .grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    ZERO_ELEM,
    elem_from_dict,
    elem_from_obj,
    elem_to_obj,
    from_int,
    generator_word,
    json_int,
    monomial,
    ring_mul_add,
    validate_word,
    word_inverse,
)
from .chaincomplex import (
    BasedComplex,
    Matrix,
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


def _insert_row(m: Matrix, at: int, row) -> Matrix:
    rows = list(m)
    rows.insert(at, tuple(row))
    return tuple(rows)


def _insert_col(m: Matrix, at: int, value) -> Matrix:
    out = []
    for row in m:
        r = list(row)
        r.insert(at, value)
        out.append(tuple(r))
    return tuple(out)


def _delete_row(m: Matrix, at: int) -> Matrix:
    return tuple(r for i, r in enumerate(m) if i != at)


def _delete_col(m: Matrix, at: int) -> Matrix:
    return tuple(tuple(x for j, x in enumerate(r) if j != at) for r in m)


def _with_degree_window(c: BasedComplex, lo: int, hi: int):
    """Ranks, differentials and labels over the widened range [lo, hi]."""
    ranks = [c.rank(i) for i in range(lo, hi + 1)]
    labels = [list(c.degree_labels(i)) for i in range(lo, hi + 1)]
    diffs = [c.diff(i) for i in range(lo, hi)]
    return ranks, diffs, labels


def _apply_expansion(c: BasedComplex, op: Expansion) -> BasedComplex:
    d, k = op.degree, op.position
    if k < 0 or k > c.rank(d) or k > c.rank(d + 1):
        raise InvalidOpError(f"expansion position {k} out of range at degree {d}")
    lo = min(c.min_degree, d)
    hi = max(c.max_degree, d + 1)
    ranks, diffs, labels = _with_degree_window(c, lo, hi)
    di, dj = d - lo, d + 1 - lo
    ranks[di] += 1
    ranks[dj] += 1
    labels[di].insert(k, f"u{d}_{k}")
    labels[dj].insert(k, f"v{d + 1}_{k}")
    zero = from_int(0)
    one = from_int(1)
    # outgoing d_d: new column k (source u) and new row k (target v), pivot 1
    m = _insert_col(c.diff(d), k, zero)
    new_row = [zero] * (c.rank(d) + 1)
    new_row[k] = one
    m = _insert_row(m, k, new_row)
    diffs[di] = m
    if d - 1 >= lo:
        diffs[di - 1] = _insert_row(c.diff(d - 1), k, [zero] * c.rank(d - 1))
    if d + 1 < hi:
        diffs[dj] = _insert_col(c.diff(d + 1), k, zero)
    return based_complex(c.spec, lo, ranks, diffs, labels)


def _is_unit_monomial(x: GroupRingElem) -> bool:
    return len(x.terms) == 1 and x.terms[0][1] in (1, -1)


def retractable_positions(c: BasedComplex, degree: int) -> list[int]:
    """Indices k where (degree, k) names a deletable trivial summand."""
    out = []
    m = c.diff(degree)
    prev = c.diff(degree - 1)
    nxt = c.diff(degree + 1)
    for k in range(min(c.rank(degree), c.rank(degree + 1))):
        if not _is_unit_monomial(m[k][k]):
            continue
        if any(m[k][j] for j in range(c.rank(degree)) if j != k):
            continue
        if any(m[i][k] for i in range(c.rank(degree + 1)) if i != k):
            continue
        if any(prev[k][j] for j in range(c.rank(degree - 1))):
            continue
        if any(nxt[i][k] for i in range(c.rank(degree + 2))):
            continue
        out.append(k)
    return out


def _apply_retraction(c: BasedComplex, op: Retraction) -> BasedComplex:
    d, k = op.degree, op.position
    if not (0 <= k < c.rank(d) and k < c.rank(d + 1)):
        raise InvalidOpError(f"retraction position {k} out of range at degree {d}")
    if k not in retractable_positions(c, d):
        raise InvalidOpError(
            f"block ({d}, {k}) is not a trivial [Z[G] -> Z[G]] summand"
        )
    lo, hi = c.min_degree, c.max_degree
    ranks, diffs, labels = _with_degree_window(c, lo, hi)
    di, dj = d - lo, d + 1 - lo
    ranks[di] -= 1
    ranks[dj] -= 1
    del labels[di][k]
    del labels[dj][k]
    diffs[di] = _delete_col(_delete_row(c.diff(d), k), k)
    if d - 1 >= lo:
        diffs[di - 1] = _delete_row(c.diff(d - 1), k)
    if d + 1 < hi:
        diffs[dj] = _delete_col(c.diff(d + 1), k)
    return based_complex(c.spec, lo, ranks, diffs, labels)


def _change_basis(
    c: BasedComplex, d: int, target: int, source: int,
    left: GroupRingElem, right: GroupRingElem,
) -> BasedComplex:
    """Replace basis element ``target`` of degree d by left*c_source, added
    to c_target when the indices differ.

    The outgoing differential's column ``target`` takes ``left`` times column
    ``source`` on the left; the incoming differential's row ``source`` takes
    row ``target`` times ``right``, the matching entry of the inverse change,
    on the right.  Rows with a zero in column ``source`` are kept as they are.
    """
    spec = c.spec
    lo = c.min_degree
    diffs = list(c.differentials)
    if d < c.max_degree:
        m = list(c.diff(d))
        for i, row in enumerate(m):
            x = row[source]
            if x:
                acc = ZERO_ELEM if target == source else row[target]
                m[i] = row[:target] + (ring_mul_add(spec, acc, left, x),) + row[target + 1:]
        diffs[d - lo] = tuple(m)
    if d > lo:
        m = list(c.diff(d - 1))
        accs = m[source] if target != source else (ZERO_ELEM,) * len(m[target])
        m[source] = tuple(
            ring_mul_add(spec, acc, x, right) if x else acc for x, acc in zip(m[target], accs)
        )
        diffs[d - 1 - lo] = tuple(m)
    return based_complex(spec, lo, c.ranks, diffs, c.labels)


def _apply_handle_slide(c: BasedComplex, op: HandleSlide) -> BasedComplex:
    d, a, b, x = op.degree, op.target, op.source, op.coefficient
    r = c.rank(d)
    if a == b:
        raise InvalidOpError("handle slide needs distinct indices")
    if not (0 <= a < r and 0 <= b < r):
        raise InvalidOpError(f"slide indices ({a}, {b}) out of range at degree {d}")
    return _change_basis(c, d, a, b, x, -x)


def _apply_deck(c: BasedComplex, op: DeckTransform) -> BasedComplex:
    d, idx, w = op.degree, op.index, op.word
    if not (0 <= idx < c.rank(d)):
        raise InvalidOpError(f"deck index {idx} out of range at degree {d}")
    validate_word(c.spec, w)
    return _change_basis(
        c, d, idx, idx, monomial(w), monomial(word_inverse(c.spec, w))
    )


def apply_op(c: BasedComplex, op: SimpleOp) -> BasedComplex:
    if isinstance(op, Expansion):
        return _apply_expansion(c, op)
    if isinstance(op, Retraction):
        return _apply_retraction(c, op)
    if isinstance(op, HandleSlide):
        return _apply_handle_slide(c, op)
    if isinstance(op, DeckTransform):
        return _apply_deck(c, op)
    raise InvalidOpError(f"unknown operation {op!r}")


@dataclass(frozen=True, slots=True)
class OpCertificate:
    """A recorded simple homotopy: replaying ops from start must yield end."""

    start: BasedComplex
    ops: tuple[SimpleOp, ...]
    end: BasedComplex


def replay_end(cert: OpCertificate) -> BasedComplex:
    """The complex that folding the ops over start builds."""
    c = cert.start
    for step, op in enumerate(cert.ops):
        try:
            c = apply_op(c, op)
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
        w = GroupWord(tuple((json_int(f), json_int(e)) for f, e in obj["word"]))
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
