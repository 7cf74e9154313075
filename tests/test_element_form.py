"""Differential tests: the coefficient-map element against the tuple of terms.

``GroupRingElem`` holds one map from letter tuple to coefficient.  The
reference, ``helpers.TermsElem``, holds an element as its (word,
coefficient) terms sorted by word, with its own sum, negation, word-by-word
product, document form and evaluation.  On random elements
over cyclic groups small and large and over free products, every operation
must give the reference's element, compared term by term in sorted order,
and a document must list its terms in the reference's order.  Products are
compared with the reference in ``test_ring_mul_add``.
"""
import json
import random
from math import lcm

import pytest

from torsionkit.cyclofield import evaluate_rep, representation
from torsionkit.grouprings import (
    GroupSpec,
    ZERO_ELEM,
    elem_from_dict,
    elem_from_obj,
    elem_to_obj,
    ring_add,
)

from helpers import (
    random_word,
    terms_add,
    terms_evaluate,
    terms_from_dict,
    terms_from_obj,
    terms_neg,
    terms_of,
    terms_to_obj,
)

SPECS = [GroupSpec.cyclic(n) for n in (1, 7, 1000)] + [
    GroupSpec.free_product(orders) for orders in ([2, 3], [5, 5])
]


def _spec_id(spec: GroupSpec) -> str:
    return "*".join(f"Z{m}" for m in spec.factor_orders)


def _random_terms(spec: GroupSpec, rng: random.Random) -> dict:
    """A word -> coefficient dict of up to 6 words, zero coefficients and
    the identity among them."""
    return {
        random_word(spec, rng, allow_identity=True): rng.randint(-3, 3)
        for _ in range(rng.choice([0, 1, 2, 6]))
    }


def _pairs(spec: GroupSpec, seed: int, count: int = 40):
    """(element, reference) pairs built from the same random dicts."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        terms = _random_terms(spec, rng)
        out.append((elem_from_dict(terms), terms_from_dict(terms)))
    return out


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_sum_negation_and_equality_match_the_terms(spec):
    pairs = _pairs(spec, 1 + sum(spec.factor_orders))
    for x, rx in pairs:
        assert terms_of(x) == rx
        assert terms_of(-x) == terms_neg(rx)
        for y, ry in pairs[:12]:
            assert terms_of(ring_add(x, y)) == terms_add(rx, ry)
            assert (x == y) == (rx == ry)
            assert x != y or hash(x) == hash(y)


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_equality_ignores_the_order_terms_came_in(spec):
    rng = random.Random(2 + sum(spec.factor_orders))
    for _ in range(20):
        terms = _random_terms(spec, rng)
        backwards = dict(reversed(list(terms.items())))
        x, y = elem_from_dict(terms), elem_from_dict(backwards)
        assert x == y and hash(x) == hash(y) and repr(x) == repr(y)
        assert elem_to_obj(x) == elem_to_obj(y)
    assert elem_from_dict({}) == ZERO_ELEM


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_documents_round_trip_in_the_terms_order(spec):
    for x, rx in _pairs(spec, 4 + sum(spec.factor_orders)):
        obj = elem_to_obj(x)
        assert obj == terms_to_obj(rx)
        assert elem_from_obj(spec, json.loads(json.dumps(obj))) == x
        # terms out of order, one word twice: the reader sums per word
        shuffled = json.loads(json.dumps(obj[::-1] + obj[:1]))
        assert terms_of(elem_from_obj(spec, shuffled)) == terms_from_obj(spec, shuffled)


def _reps(spec: GroupSpec) -> list:
    """Representations that send each generator to a power of zeta_n,
    the trivial one and one with a modulus past the group order among
    them."""
    orders = spec.factor_orders
    n = lcm(*orders)
    reps = [representation(spec, 5, [0] * len(orders))]
    if n > 1:
        reps.append(representation(spec, n, [n // m for m in orders]))
        reps.append(representation(spec, n, [n // m * (m - 1) for m in orders]))
        reps.append(representation(spec, 2 * n, [2 * n // m for m in orders]))
    return reps


@pytest.mark.parametrize("spec", SPECS, ids=_spec_id)
def test_evaluation_matches_the_sum_of_terms(spec):
    pairs = _pairs(spec, 5 + sum(spec.factor_orders), count=25)
    for rep in _reps(spec):
        for x, rx in pairs:
            assert evaluate_rep(rep, x) == terms_evaluate(rep, rx)
