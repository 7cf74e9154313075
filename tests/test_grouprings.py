import random

import pytest
from hypothesis import given, strategies as st

from torsionkit.grouprings import (
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    InvalidWordError,
    ONE_ELEM,
    ZERO_ELEM,
    augmentation,
    elem_from_dict,
    elem_from_obj,
    elem_to_obj,
    from_int,
    generator_elem,
    generator_word,
    int_value,
    list_form,
    map_form,
    norm_elem,
    ring_add,
    ring_mul,
    ring_mul_add,
    ring_sub,
    validate_word,
    word_inverse,
    word_multiply,
)

from helpers import random_elem, random_word

Z7 = GroupSpec.cyclic(7)
FP77 = GroupSpec.free_product([7, 7])


def brute_reduce(spec, letters):
    """Independent normalizer: repeatedly merge adjacent same-factor letters."""
    letters = list(letters)
    changed = True
    while changed:
        changed = False
        for i in range(len(letters) - 1):
            if letters[i][0] == letters[i + 1][0]:
                f = letters[i][0]
                e = (letters[i][1] + letters[i + 1][1]) % spec.order_of(f)
                repl = [(f, e)] if e else []
                letters[i : i + 2] = repl
                changed = True
                break
    return GroupWord(tuple(letters))


class TestWordMultiply:
    def test_cyclic_exponents_mod_order(self):
        a = generator_word(Z7, 0, 3)
        b = generator_word(Z7, 0, 5)
        assert word_multiply(Z7, a, b) == generator_word(Z7, 0, 1)

    def test_free_product_cancellation(self):
        a = GroupWord(((0, 2),))
        b = GroupWord(((0, 5),))
        assert word_multiply(FP77, a, b) == IDENTITY_WORD

    def test_free_product_cascading_reduction(self):
        # (a^2 b^3)(b^4 a^1) -> a^3, checked against the brute normalizer
        a = GroupWord(((0, 2), (1, 3)))
        b = GroupWord(((1, 4), (0, 1)))
        got = word_multiply(FP77, a, b)
        assert got == GroupWord(((0, 3),))
        assert got == brute_reduce(FP77, a.letters + b.letters)

    def test_matches_brute_normalizer_randomly(self):
        rng = random.Random(7)
        for _ in range(500):
            a, b = random_word(FP77, rng), random_word(FP77, rng)
            assert word_multiply(FP77, a, b) == brute_reduce(FP77, a.letters + b.letters)

    def test_associative_and_unital_many_random_triples(self):
        rng = random.Random(1)
        for spec in (Z7, FP77, GroupSpec.free_product([2, 3, 5])):
            for _ in range(10_000 if spec is FP77 else 2_000):
                a = random_word(spec, rng, allow_identity=True)
                b = random_word(spec, rng, allow_identity=True)
                c = random_word(spec, rng, allow_identity=True)
                left = word_multiply(spec, word_multiply(spec, a, b), c)
                right = word_multiply(spec, a, word_multiply(spec, b, c))
                assert left == right
                assert word_multiply(spec, a, IDENTITY_WORD) == a
                assert word_multiply(spec, IDENTITY_WORD, a) == a

    def test_inverse(self):
        rng = random.Random(2)
        for _ in range(200):
            w = random_word(FP77, rng)
            assert word_multiply(FP77, w, word_inverse(FP77, w)) == IDENTITY_WORD

    def test_invalid_words_rejected(self):
        with pytest.raises(InvalidWordError):
            validate_word(Z7, GroupWord(((0, 0),)))
        with pytest.raises(InvalidWordError):
            validate_word(Z7, GroupWord(((0, 7),)))
        with pytest.raises(InvalidWordError):
            validate_word(Z7, GroupWord(((1, 1),)))
        with pytest.raises(InvalidWordError):
            validate_word(FP77, GroupWord(((0, 1), (0, 2))))
        with pytest.raises(InvalidWordError):
            word_multiply(Z7, GroupWord(((0, 1), (0, 1))), IDENTITY_WORD)


NON_INT_LETTERS = [
    (((0, 1.0),), "exponent 1.0 not reduced mod 7"),
    (((0, True),), "exponent True not reduced mod 7"),
    (((False, 1),), "factor index False out of range"),
    (((0.0, 1),), "factor index 0.0 out of range"),
    (((0, 1), (1, 2.0)), "exponent 2.0 not reduced mod 7"),
    # keys that are no letter tuple, or whose letter is not a pair: only the
    # Z/n readers are asked about these (text None)
    (None, None),
    (0, None),
    ("", None),
    (False, None),
    ((5,), None),
    (((5,),), None),
    (((0,),), None),
    (((0, 1, 2),), None),
]


@pytest.mark.parametrize("letters, text", NON_INT_LETTERS, ids=[str(l) or repr(l) for l, _ in NON_INT_LETTERS])
def test_word_readers_refuse_non_int_letters(letters, text):
    """1.0 and True equal 1 and hash alike, so each reader checks the type
    of every factor and exponent: over Z/7 map_form, list_form and
    ring_mul_add, which reads through map_form, refuse with the one text of
    the Z/n check, and validate_word with its own (over Z/7 * Z/7, where
    every letter here is in range).  A falsy key is no identity word, and a
    letter that is not a pair leaks no TypeError or IndexError."""
    x = elem_from_dict({GroupWord(letters): 2, GroupWord(): 1})
    for read in (lambda: map_form(Z7, x), lambda: list_form(7, x), lambda: ring_mul_add(Z7, ZERO_ELEM, ONE_ELEM, x)):
        with pytest.raises(InvalidWordError) as exc:
            read()
        assert str(exc.value) == f"not a reduced word of Z/7: {letters}"
    if text is None:
        return
    with pytest.raises(InvalidWordError):
        validate_word(Z7, GroupWord(letters))
    with pytest.raises(InvalidWordError) as exc:
        validate_word(FP77, GroupWord(letters))
    assert str(exc.value) == text


@pytest.mark.parametrize("letters", [((0, 1),), None, 0, ((0,),)], ids=str)
def test_int_value_reads_the_identity_word_only(letters):
    """Over the trivial group the only word is (); a falsy key is not it."""
    assert int_value(from_int(3)) == 3 and int_value(ZERO_ELEM) == 0
    x = elem_from_dict({GroupWord(letters): 2, GroupWord(): 1})
    with pytest.raises(InvalidWordError) as exc:
        int_value(x)
    assert str(exc.value) == f"not a reduced word of Z/1: {letters}"


class TestRingOps:
    def test_add_examples(self):
        t = generator_elem(Z7)
        one_minus_t = ring_sub(Z7, ONE_ELEM, t)
        assert ring_add(one_minus_t, t) == ONE_ELEM
        x = random_elem(Z7, random.Random(3))
        assert ring_add(x, -x) == ZERO_ELEM
        one_plus_t = ring_add(ONE_ELEM, t)
        assert ring_add(one_plus_t, one_plus_t) == elem_from_dict(
            {IDENTITY_WORD: 2, generator_word(Z7): 2}
        )

    def test_mul_examples(self):
        t = generator_elem(Z7)
        one_minus_t = ring_sub(Z7, ONE_ELEM, t)
        assert ring_mul(Z7, one_minus_t, norm_elem(Z7)) == ZERO_ELEM
        x = random_elem(FP77, random.Random(4))
        assert ring_mul(FP77, ONE_ELEM, x) == x
        # (1-t)(1-t^4) = 1 - t - t^4 + t^5 by hand expansion
        lhs = ring_mul(Z7, one_minus_t, ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 4)))
        assert lhs == elem_from_dict(
            {
                IDENTITY_WORD: 1,
                generator_word(Z7, 0, 1): -1,
                generator_word(Z7, 0, 4): -1,
                generator_word(Z7, 0, 5): 1,
            }
        )

    @pytest.mark.parametrize("n", range(2, 51))
    def test_telescoping_against_norm(self, n):
        spec = GroupSpec.cyclic(n)
        one_minus_t = ring_sub(spec, ONE_ELEM, generator_elem(spec))
        assert ring_mul(spec, one_minus_t, norm_elem(spec)) == ZERO_ELEM

    def test_distributivity_and_augmentation(self):
        rng = random.Random(5)
        for spec in (Z7, FP77):
            for _ in range(300):
                a, b, c = (random_elem(spec, rng) for _ in range(3))
                assert ring_mul(spec, a, ring_add(b, c)) == ring_add(
                    ring_mul(spec, a, b), ring_mul(spec, a, c)
                )
                assert augmentation(ring_mul(spec, a, b)) == augmentation(
                    a
                ) * augmentation(b)

    def test_mul_associative_noncommutative(self):
        rng = random.Random(6)
        for _ in range(200):
            a, b, c = (random_elem(FP77, rng) for _ in range(3))
            assert ring_mul(FP77, ring_mul(FP77, a, b), c) == ring_mul(
                FP77, a, ring_mul(FP77, b, c)
            )

    def test_augmentation_examples(self):
        t = generator_elem(Z7)
        assert augmentation(ring_sub(Z7, ONE_ELEM, t)) == 0
        assert augmentation(elem_from_dict({IDENTITY_WORD: 2, generator_word(Z7, 0, 4): 3})) == 5
        assert augmentation(ZERO_ELEM) == 0


@given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 6))
def test_scalar_terms_add_like_integers(a, b, k):
    w = generator_word(Z7, 0, k) if k else IDENTITY_WORD
    x = elem_from_dict({w: a})
    y = elem_from_dict({w: b})
    assert ring_add(x, y) == elem_from_dict({w: a + b})


class TestSerialization:
    def test_round_trip(self):
        rng = random.Random(8)
        for spec in (Z7, FP77):
            for _ in range(100):
                x = random_elem(spec, rng, terms=4)
                assert elem_from_obj(spec, elem_to_obj(x)) == x

    def test_identity_word_serializes_to_empty_list(self):
        assert elem_to_obj(from_int(3)) == [[3, []]]

    def test_bad_words_rejected_on_load(self):
        with pytest.raises(InvalidWordError):
            elem_from_obj(Z7, [[1, [[0, 9]]]])
        with pytest.raises(InvalidWordError):
            elem_from_obj(Z7, [[1]])
