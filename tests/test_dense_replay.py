"""Differential tests: replay on dense coefficient lists against the references.

Over Z/n with n*(n+1) <= ``MAX_ENTRY_TERMS`` the working copy keeps each
entry it has read as a list of n coefficients indexed by exponent (see
Entries in ``simpleops``); a larger Z/n and every free product keep
coefficient maps.  ``reference_ends`` in ``helpers`` computes each op entry
by entry on ``GroupRingElem``s, so every case here is compared with it at
every prefix, through ``replay_end`` and through a chain of ``apply_op``.
Other tests pin the boundary of the dense range and the rule that no list
is written once a slot holds it.
"""
import hashlib
import random
from pathlib import Path

import pytest

from torsionkit import simpleops
from torsionkit.cli import main
from torsionkit.chaincomplex import direct_sum, two_term_complex
from torsionkit.grouprings import GroupSpec, InvalidWordError, elem_from_dict, generator_word, list_form
from torsionkit.simpleops import (
    MAX_ENTRY_TERMS,
    DeckTransform,
    Expansion,
    HandleSlide,
    OpCertificate,
    Retraction,
    apply_op,
    random_op_sequence,
    replay_end,
)

from helpers import random_group_complex, reference_ends

GOLDEN = Path(__file__).parent / "golden"
DENSE_ORDERS = (1, 2, 3, 7, 13, 61, 127, 223)
ORDERS = DENSE_ORDERS + (224,)  # 224 takes the map path


def test_the_dense_range_ends_where_the_cap_could_fire():
    """An entry over Z/n has at most n terms, so a multiply-add by an
    entry's coefficient can reach n + n*n terms: within the cap up to
    n = 223, past it from n = 224."""
    assert 223 * 224 <= MAX_ENTRY_TERMS < 224 * 225
    for n in ORDERS:
        assert simpleops._dense_order(GroupSpec.cyclic(n)) == (n if n <= 223 else 0)
    assert simpleops._dense_order(GroupSpec.free_product([2, 3])) == 0


def _coefficient(spec, *terms):
    """The sum of c * g^k over the (k, c) pairs, k taken mod n."""
    acc = {}
    for k, c in terms:
        w = generator_word(spec, 0, k)
        acc[w] = acc.get(w, 0) + c
    return elem_from_dict(acc)


def _start(spec):
    """Ranks (3, 4, 1) in degrees 0..2: four two-term pieces, most with
    multi-term entries."""
    c = direct_sum(
        two_term_complex(spec, 0, _coefficient(spec, (0, 1), (1, -1), (5, 2))),
        two_term_complex(spec, 0, _coefficient(spec, (3, 2), (4, 1))),
    )
    c = direct_sum(c, two_term_complex(spec, 1, _coefficient(spec, (2, -1), (6, 3))))
    return direct_sum(c, two_term_complex(spec, 0, _coefficient(spec, (1, 1))))


def _ops(spec):
    """A slide by 1 into zero slots; multi-term slides; a slide and its
    inverse, which cancel entries back to zero; decks before and after
    slides, so the freeze writes exponents out of slid entries; and an
    expansion whose block slides write and undo, then its retraction."""
    x = _coefficient(spec, (1, 2), (4, -1), (7, 3))
    y = _coefficient(spec, (0, -1), (2, 1))
    one = _coefficient(spec, (0, 1))
    return (
        HandleSlide(0, 0, 1, one),
        DeckTransform(1, 0, generator_word(spec, 0, 3)),
        HandleSlide(1, 0, 1, x),
        HandleSlide(1, 2, 0, y),
        DeckTransform(1, 1, generator_word(spec, 0, 5)),
        HandleSlide(0, 2, 1, x),
        HandleSlide(0, 2, 1, -x),  # back to the zeros it had
        HandleSlide(1, 1, 2, one),
        DeckTransform(0, 1, generator_word(spec, 0, 2)),
        HandleSlide(0, 0, 2, y),
        Expansion(0, 0),
        HandleSlide(0, 0, 1, x),
        HandleSlide(1, 1, 0, y),  # into the pivot
        HandleSlide(1, 1, 0, -y),
        HandleSlide(0, 0, 1, -x),
        DeckTransform(1, 0, generator_word(spec, 0, 1)),
        Retraction(0, 0),
        DeckTransform(2, 0, generator_word(spec, 0, 6)),
        HandleSlide(1, 2, 1, x),
    )


def _check_every_prefix(start, ops):
    ends = reference_ends(start, ops)
    for i in range(len(ops) + 1):
        assert replay_end(OpCertificate(start, ops[:i], start)) == ends[i]
    c = start
    for op, want in zip(ops, ends[1:]):
        c = apply_op(c, op)
        assert c == want
    return ends


@pytest.mark.parametrize("n", ORDERS)
def test_code_built_certificate_matches_the_references(n):
    spec = GroupSpec.cyclic(n)
    ends = _check_every_prefix(_start(spec), _ops(spec))
    assert ends[-1] != ends[0]
    assert ends[5] == ends[7] != ends[6]  # a slide and its inverse


@pytest.mark.parametrize("n", ORDERS)
def test_random_certificates_match_the_references(n):
    rng = random.Random(n)
    spec = GroupSpec.cyclic(n)
    for _ in range(2):
        cert = random_op_sequence(random_group_complex(spec, rng), 30, seed=rng.randrange(2**32))
        assert _check_every_prefix(cert.start, cert.ops)[-1] == cert.end


def _watch_slots(monkeypatch):
    """After every op, each list a slot holds: a list seen before must
    still hold what it held then, and none may be all zero.  Returns the
    (list, copy) record, and after each op the count of slots that share
    a list and of slots that hold ``_NO_TERMS``, which only a sum that
    cancels to zero puts in a slot."""
    seen, shared, cancelled = {}, [], []

    def apply(w, op, real=simpleops._apply):
        real(w, op)
        slots = [x for m in w.differentials for row in m for x in row]
        held = [x for x in slots if type(x) is list]
        shared.append(len(held) - len({id(x) for x in held}))
        cancelled.append(sum(x is simpleops._NO_TERMS for x in slots))
        for x in held:
            assert any(x), "a zero entry is kept as _NO_TERMS"
            if id(x) in seen:
                assert seen[id(x)][1] == x, "a list was written in place"
            else:
                seen[id(x)] = (x, list(x))

    monkeypatch.setattr(simpleops, "_apply", apply)
    return seen, shared, cancelled


@pytest.mark.parametrize("n", (2, 7, 127))
def test_no_list_is_written_in_place(n, monkeypatch):
    spec = GroupSpec.cyclic(n)
    seen, shared, cancelled = _watch_slots(monkeypatch)
    start, ops = _start(spec), _ops(spec)
    assert replay_end(OpCertificate(start, ops, start)) == reference_ends(start, ops)[-1]
    assert seen and all(x == copy for x, copy in seen.values())  # nor by the freeze
    assert shared[0]  # a slide by 1 into a zero slot shares its source's list
    assert cancelled[6] > cancelled[5]


def test_the_map_path_keeps_maps(monkeypatch):
    seen, _, _ = _watch_slots(monkeypatch)
    spec = GroupSpec.cyclic(224)
    start, ops = _start(spec), _ops(spec)
    assert replay_end(OpCertificate(start, ops, start)) == reference_ends(start, ops)[-1]
    assert not seen


def test_list_mul_add_shares_x_only_for_one_into_zero():
    x = [0, 2, -1]
    assert simpleops._list_mul_add(simpleops._NO_TERMS, {0: 1}, x) is x
    assert simpleops._list_mul_add(simpleops._NO_TERMS, {1: -2}, x) == [2, 0, -4]
    assert simpleops._list_mul_add([0, -2, 1], {0: 1}, x) is simpleops._NO_TERMS
    assert simpleops._list_mul_add([1, 0, 0], {0: 1, 2: 3}, x) == [7, -1, -1]
    assert x == [0, 2, -1]


@pytest.mark.parametrize(
    "x, signed",
    [([0, 1, 0], True), ([0, 0, -1], True), ([1], True), ([-1], True), ([0, 2, 0], False), ([1, 1, 0], False), ([1, -1], False)],
)
def test_signed_words_as_lists(x, signed):
    assert simpleops._is_signed_word(x) is signed


def test_list_form_checks_words_as_map_form_does():
    spec = GroupSpec.cyclic(7)
    assert list_form(7, _coefficient(spec, (0, 2), (3, -1))) == [2, 0, 0, -1, 0, 0, 0]
    bad = elem_from_dict({generator_word(GroupSpec.cyclic(9), 0, 8): 1})
    with pytest.raises(InvalidWordError) as exc:
        list_form(7, bad)
    assert str(exc.value) == "not a reduced word of Z/7: ((0, 8),)"


# sha256 of the certificate below, recorded with coefficient maps before
# entries over Z/n became lists; the CI workflow pins the same digest
CERT_127_SHA256 = "2dc83c374747834f9380c100274500900d62efc814e7bbb048eb1a801a4255e5"


def test_long_certificate_at_the_top_of_the_dense_range(tmp_path, monkeypatch, capsys):
    """300 random ops on L(127,2): gen-cert writes the recorded certificate
    and verify-cert prints the recorded report, byte for byte."""
    monkeypatch.chdir(tmp_path)
    assert main(["lens-emit", "127", "2", "--out", "l127-2.json"]) == 0
    capsys.readouterr()
    assert main(["gen-cert", "l127-2.json", "--length", "300", "--seed", "1", "--out", "cert127.json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "gen-cert-127.text").read_text(encoding="utf-8")
    assert hashlib.sha256((tmp_path / "cert127.json").read_bytes()).hexdigest() == CERT_127_SHA256
    assert main(["verify-cert", "cert127.json"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "verify-cert-127.text").read_text(encoding="utf-8")
