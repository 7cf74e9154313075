"""Differential test of the document reader ``grouprings.elem_from_obj``.

Over Z/n the reader takes a word ``[]`` or ``[[0, e]]`` straight into the
element's map and sends every other word through the word path.
``helpers.terms_from_obj`` is the word path alone: each term's letters
become a ``GroupWord``, checked by ``validate_word``, and the coefficients
are summed per word.  On every document both must give the same element,
compared as sorted terms (``helpers.terms_of``), or raise the same
exception class with the same text.
"""
import pytest

from torsionkit.grouprings import (
    GroupSpec,
    GroupWord,
    _word_from_obj,
    elem_from_obj,
    validate_word,
    word_from_obj,
)

from helpers import terms_from_obj, terms_of


def _outcome(read, spec, obj):
    try:
        return "value", read(spec, obj)
    except Exception as exc:  # noqa: BLE001 -- the class and text are compared
        return type(exc), str(exc)


def _corpus(n):
    """Term lists over Z/n: valid ones (repeated words, terms that cancel,
    the identity, exponents at both ends of the range) and malformed ones at
    every position a value can stand."""
    e, top = min(3, n - 1) or 1, n - 1 or 1
    bad_values = [True, False, 1.0, "1", None, (), [], {}, "", [1], (0, e)]
    docs = [
        [],
        [[1, []]],
        [[2, [[0, e]]]],
        [[1, [[0, e]]], [2, [[0, e]]]],  # one word twice
        [[1, [[0, e]]], [-1, [[0, e]]]],  # sums to zero
        [[1, [[0, e]]], [-1, [[0, e]]], [3, []]],
        [[5, [[0, top]]], [-2, []], [7, [[0, 1]]], [1, [[0, top]]]],
        [[0, [[0, e]]]],
        [[1, []], [-1, []]],
        [[10**30, [[0, e]]], [-(10**30), [[0, e]]], [1, [[0, e]]]],
        [[1, [[0, 0]]]],
        [[1, [[0, n]]]],
        [[1, [[0, -e]]]],
        [[1, [[1, e]]]],
        [[1, [[-1, e]]]],
        [[1, [[0, e], [0, e]]]],
        [[1, [[0, e], [1, e]]]],
        [[1, [[0, e, 0]]]],
        [[1, [[0]]]],
        [(1, [[0, e]])],
        [[1, ([0, e],)]],
        [[1, [(0, e)]]],
        ([1, [[0, e]]],),
        [[1, [[0, e]]], [True, []]],
        [[1, [[0, e]], 2]],
        [[1]],
        {},
        "",
        None,
        5,
        {"c": 1},
    ]
    for v in bad_values:
        docs += [
            [[v, [[0, e]]]],
            [[v, []]],
            [[1, v]],
            [[1, [v]]],
            [[1, [[v, e]]]],
            [[1, [[0, v]]]],
            [[2, [[0, e]]], [v, [[1, e]]]],  # a bad coefficient after a good term
            [[1, [[0, 0]]], [v, []]],  # a bad word before a bad coefficient
            v,
            [v],
        ]
    return docs


@pytest.mark.parametrize("n", (1, 7, 1000))
def test_reader_agrees_with_the_word_path(n):
    spec = GroupSpec.cyclic(n)
    kinds = set()
    for doc in _corpus(n):
        want = _outcome(terms_from_obj, spec, doc)
        got = _outcome(lambda spec, obj: terms_of(elem_from_obj(spec, obj)), spec, doc)
        assert got == want, doc
        if want[0] == "value":
            assert [type(c) for _, c in got[1].terms] == [int] * len(got[1].terms)
        kinds.add(want[0])
    assert {"value", ValueError} <= kinds and len(kinds) >= 3


@pytest.mark.parametrize("n", (1, 7, 1000))
def test_word_reader_agrees_with_the_word_path(n):
    """``word_from_obj``, which reads a deck transform's word, against the
    letter list read into a ``GroupWord`` and validated."""
    spec = GroupSpec.cyclic(n)

    def word_path(spec, letters):
        w = _word_from_obj(letters)
        validate_word(spec, w)
        return w

    for doc in _corpus(n):
        candidates = [doc]
        if isinstance(doc, list):
            candidates += [t[1] for t in doc if isinstance(t, list) and len(t) == 2]
        for letters in candidates:
            got = _outcome(word_from_obj, spec, letters)
            assert got == _outcome(word_path, spec, letters), letters
            if got[0] == "value":
                assert isinstance(got[1], GroupWord)
