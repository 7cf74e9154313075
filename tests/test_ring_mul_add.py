"""Differential tests: the group-ring product against the word-by-word product.

``reference_ring_mul`` is the product as it was computed before Z/n became a
cyclic convolution and free products checked each word once: one validated
``word_multiply`` per pair of terms, on the tuple-of-terms elements of
``helpers``.  ``ring_mul`` and ``ring_mul_add`` must give exactly its
results (compared as sorted terms, so term order is included), and must
still refuse a word that is not reduced.  ``mat_compose``, which adds the
products of each entry into one working map, must give the sum of the
word-by-word products entry by entry.
"""
import random

import pytest

from torsionkit.grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    InvalidWordError,
    ONE_ELEM,
    ZERO_ELEM,
    elem_from_dict,
    generator_elem,
    ring_add,
    ring_mul,
    ring_mul_add,
)
from torsionkit.chaincomplex import ShapeMismatchError, mat_compose

from helpers import TermsElem, random_elem, terms_mul_add, terms_of

CYCLIC = [GroupSpec.cyclic(n) for n in (1, 2, 7, 13, 1000)]
FREE = [GroupSpec.free_product(orders) for orders in ([2, 3], [5, 5], [7, 7])]
SPECS = CYCLIC + FREE


def reference_ring_mul(spec: GroupSpec, a: GroupRingElem, b: GroupRingElem) -> TermsElem:
    return terms_mul_add(spec, TermsElem(), terms_of(a), terms_of(b))


def _spec_id(spec: GroupSpec) -> str:
    return "*".join(f"Z{m}" for m in spec.factor_orders)


def _operands(spec: GroupSpec, rng: random.Random, count: int):
    """Random elements of a few sizes, with zero among them."""
    out = [ZERO_ELEM, ONE_ELEM]
    for _ in range(count):
        out.append(random_elem(spec, rng, terms=rng.choice([1, 2, 4, 9]), span=4))
    return out


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_ring_mul_matches_reference(spec):
    rng = random.Random(sum(spec.factor_orders))
    elems = _operands(spec, rng, 14)
    for a in elems:
        for b in elems:
            assert terms_of(ring_mul(spec, a, b)) == reference_ring_mul(spec, a, b)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_ring_mul_add_matches_reference(spec):
    rng = random.Random(100 + sum(spec.factor_orders))
    elems = _operands(spec, rng, 8)
    for a in elems:
        for b in elems:
            product = ring_mul(spec, a, b)
            for acc in elems[:6]:
                want = terms_mul_add(spec, terms_of(acc), terms_of(a), terms_of(b))
                assert terms_of(ring_mul_add(spec, acc, a, b)) == want
                assert ring_mul_add(spec, acc, a, b) == ring_add(acc, product)
            # an accumulator that cancels the product: the sum is zero
            assert ring_mul_add(spec, -product, a, b) == ZERO_ELEM


def test_free_product_order_matters():
    """a*b and b*a differ over Z/7*Z/7, and ring_mul keeps a's words on the left."""
    spec = FREE[2]
    a = generator_elem(spec, 0, 1)
    b = generator_elem(spec, 1, 1)
    ab = GroupWord(((0, 1), (1, 1)))
    assert ring_mul(spec, a, b) == elem_from_dict({ab: 1})
    assert ring_mul(spec, a, b) != ring_mul(spec, b, a)
    assert ring_mul_add(spec, ZERO_ELEM, a, b) == ring_mul(spec, a, b)


def test_cyclic_exponents_wrap():
    spec = GroupSpec.cyclic(7)
    t5 = generator_elem(spec, 0, 5)
    t4 = generator_elem(spec, 0, 4)
    assert ring_mul(spec, t5, t4) == generator_elem(spec, 0, 2)
    assert ring_mul(spec, t4, generator_elem(spec, 0, 3)) == ONE_ELEM


def test_large_cyclic_group_matches_reference():
    """Z/n takes one path for every n: sparse operands of Z/1000 included."""
    spec = GroupSpec.cyclic(1000)
    rng = random.Random(5)
    elems = _operands(spec, rng, 6)
    for a in elems:
        for b in elems:
            assert terms_of(ring_mul(spec, a, b)) == reference_ring_mul(spec, a, b)


Z7 = GroupSpec.cyclic(7)
FP77 = GroupSpec.free_product([7, 7])
INVALID = [
    (Z7, ((0, 0),)),
    (Z7, ((0, 7),)),
    (Z7, ((0, -1),)),
    (Z7, ((1, 1),)),
    (Z7, ((0, 1), (0, 2))),
    (GroupSpec.cyclic(1000), ((0, 1000),)),
    (FP77, ((0, 1), (0, 2))),
]


@pytest.mark.parametrize(
    "spec, letters", INVALID, ids=[f"{_spec_id(s)}-{l}" for s, l in INVALID]
)
def test_invalid_words_raise_in_either_operand(spec, letters):
    bad = elem_from_dict({GroupWord(letters): 1})
    good = elem_from_dict({IDENTITY_WORD: 2, GroupWord(((0, 1),)): -1})
    with pytest.raises(InvalidWordError):
        ring_mul(spec, bad, good)
    with pytest.raises(InvalidWordError):
        ring_mul(spec, good, bad)
    with pytest.raises(InvalidWordError):
        ring_mul_add(spec, ONE_ELEM, good, bad)


def reference_mat_compose(spec: GroupSpec, second, first, cols: int):
    """(second . first) entry by entry: the sum over b of first[b][a] *
    second[g][b], one ``terms_mul_add`` per product."""
    out = []
    for row2 in second:
        row = []
        for a in range(cols):
            acc = TermsElem()
            for b, y in enumerate(row2[: len(first)]):
                acc = terms_mul_add(spec, acc, terms_of(first[b][a]), terms_of(y))
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _random_matrix(spec: GroupSpec, rng: random.Random, rows: int, cols: int):
    """Mostly sparse entries of a few sizes; a row may repeat another negated,
    so that entries of a composite cancel."""
    out = []
    for _ in range(rows):
        if out and rng.random() < 0.2:
            out.append(tuple(-x for x in rng.choice(out)))
            continue
        out.append(tuple(
            random_elem(spec, rng, terms=rng.choice([1, 2, 4]), span=4) if rng.random() < 0.6 else ZERO_ELEM
            for _ in range(cols)
        ))
    return tuple(out)


def _terms(m):
    return tuple(tuple(terms_of(x) for x in row) for row in m)


@pytest.mark.parametrize(
    "spec", [GroupSpec.cyclic(7), GroupSpec.cyclic(1000), GroupSpec.free_product([2, 3])], ids=_spec_id
)
def test_mat_compose_matches_reference(spec):
    rng = random.Random(7 + sum(spec.factor_orders))
    for _ in range(30):
        rows, mid, cols = rng.randint(0, 4), rng.randint(1, 4), rng.randint(0, 4)
        first = _random_matrix(spec, rng, mid, cols)
        second = _random_matrix(spec, rng, rows, mid)
        got = mat_compose(spec, second, first, cols)
        assert _terms(got) == reference_mat_compose(spec, second, first, cols)
        # a composite's entries are ordinary elements: composing again reads them
        if rows:
            third = _random_matrix(spec, rng, rng.randint(1, 3), rows)
            again = mat_compose(spec, third, got, cols)
            assert _terms(again) == reference_mat_compose(spec, third, got, cols)


def test_mat_compose_cancels_to_the_zero_element():
    spec = GroupSpec.cyclic(7)
    x = elem_from_dict({GroupWord(((0, 1),)): 2, IDENTITY_WORD: -1})
    first = ((x,), (x,))
    second = ((ONE_ELEM, -ONE_ELEM),)
    assert mat_compose(spec, second, first, 1) == ((ZERO_ELEM,),)


def test_mat_compose_inner_dimensions_must_agree():
    spec = GroupSpec.cyclic(7)
    with pytest.raises(ShapeMismatchError):
        mat_compose(spec, ((ONE_ELEM, ONE_ELEM),), ((ONE_ELEM,),), 1)
