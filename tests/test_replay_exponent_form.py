"""Differential tests: replay over Z/n in exponent form against the word form.

``replay_end`` reads start's entries into exponent form once, folds the ops
on exponent maps in one working copy and converts the end back once.
``word_replay_end`` folds ``apply_op`` instead: every op on its own copy
with ``GroupRingElem`` entries.  Both must build the same end, term
order included, and refuse an invalid op with the same ``step i: ...``
text.  ``basis_change_by_matrices`` is an independent reference for the
two ops that multiply: a slide or deck is the product with its basis-change
matrix on each side.
"""
import json
import random

import pytest

from torsionkit.chaincomplex import direct_sum, dumps_canonical, two_term_complex
from torsionkit.cli import main
from torsionkit.grouprings import (
    GroupSpec,
    GroupWord,
    InvalidWordError,
    ONE_ELEM,
    ZERO_ELEM,
    elem_from_dict,
    elem_from_exponents,
    exponent_form,
    exponent_mul_add,
    generator_elem,
    generator_word,
    ring_mul_add,
    ring_sub,
)
from torsionkit.lensspaces import lens_complex, lens_params
from torsionkit.simpleops import (
    DeckTransform,
    Expansion,
    HandleSlide,
    InvalidOpError,
    OpCertificate,
    Retraction,
    apply_op,
    cert_to_obj,
    random_op_sequence,
    replay,
    replay_end,
)

from helpers import basis_change_by_matrices, random_acyclic_complex, random_elem, random_group_complex

ORDERS = (1, 2, 7, 13, 1000)


def word_replay_end(cert):
    """The fold on ``GroupRingElem`` entries, one ``apply_op`` per op."""
    c = cert.start
    for step, op in enumerate(cert.ops):
        try:
            c = apply_op(c, op)
        except InvalidOpError as exc:
            raise InvalidOpError(f"step {step}: {exc}") from exc
    return c


def _starts(n):
    """Complexes over Z/n to start certificates from: lens cells where n is
    a modulus of the lens workloads, and sparse random complexes."""
    spec = GroupSpec.cyclic(n)
    rng = random.Random(n)
    starts = [random_group_complex(spec, rng), random_group_complex(spec, rng)]
    if n > 1:
        starts.append(random_acyclic_complex(spec, rng, summands=2))
    if n in (7, 13):
        starts += [lens_complex(lens_params(n, q)) for q in (1, 2, 3)]
    return starts


def _certificates(n, length=60):
    return [
        random_op_sequence(start, length, seed=31 * n + k)
        for k, start in enumerate(_starts(n))
    ]


@pytest.mark.parametrize("n", ORDERS)
def test_exponent_replay_builds_the_word_replay_end(n):
    for cert in _certificates(n):
        end = replay_end(cert)
        assert end == word_replay_end(cert) == cert.end
        assert replay(cert)


@pytest.mark.parametrize("n", ORDERS)
def test_tampered_end_is_refused_in_both_forms(n):
    for cert in _certificates(n, length=20):
        c = cert.end
        d = next(d for d in c.degrees if c.rank(d))
        moved = apply_op(c, DeckTransform(d, 0, generator_word(c.spec, 0, 1)))
        tampered = OpCertificate(cert.start, cert.ops, apply_op(moved, Expansion(d, 0)))
        assert not replay(tampered)
        assert replay_end(tampered) == word_replay_end(tampered)


def _invalid_ops(c):
    """Ops that do not apply to c, one per check of ``apply_op``."""
    spec = c.spec
    x = generator_elem(spec, 0, 1)
    d = max(c.degrees, key=c.rank)
    r = c.rank(d)
    ops = [
        HandleSlide(d, 0, r, x),  # out-of-range slide
        HandleSlide(d, -1, 0, x),
        DeckTransform(d, r, generator_word(spec, 0, 1)),  # bad deck index
        DeckTransform(c.max_degree + 1, 0, generator_word(spec, 0, 1)),
        Expansion(d, r + 1),
        Retraction(d, min(r, c.rank(d + 1))),
    ]
    if r >= 2:
        ops.append(HandleSlide(d, 1, 1, x))  # equal indices
    return ops


def _non_retractable(c):
    """A retraction in range whose block is not a trivial summand, or None."""
    for d in range(c.min_degree, c.max_degree):
        for k in range(min(c.rank(d), c.rank(d + 1))):
            try:
                apply_op(c, Retraction(d, k))
            except InvalidOpError:
                return Retraction(d, k)
    return None


@pytest.mark.parametrize("n", ORDERS)
def test_invalid_op_fails_with_the_word_replay_text(n):
    seen = set()
    for cert in _certificates(n, length=30):
        for cut in (0, len(cert.ops) // 2, len(cert.ops)):
            mid = word_replay_end(OpCertificate(cert.start, cert.ops[:cut], cert.start))
            bad_ops = _invalid_ops(mid) + [op for op in [_non_retractable(mid)] if op]
            for bad in bad_ops:
                broken = OpCertificate(cert.start, cert.ops[:cut] + (bad,) + cert.ops[cut:], cert.end)
                with pytest.raises(InvalidOpError) as want:
                    word_replay_end(broken)
                with pytest.raises(InvalidOpError) as got:
                    replay_end(broken)
                assert str(got.value) == str(want.value)
                assert str(got.value).startswith(f"step {cut}: ")
                seen.add(str(want.value).split(" ", 3)[2])
    assert {"slide", "deck", "expansion", "retraction", "handle", "block"} <= seen


@pytest.mark.parametrize("n", ORDERS)
def test_slides_and_decks_are_basis_change_products(n):
    for cert in _certificates(n, length=40):
        c = cert.start
        for op in cert.ops:
            nxt = apply_op(c, op)
            if isinstance(op, (HandleSlide, DeckTransform)):
                assert nxt == basis_change_by_matrices(c, op)
            c = nxt


@pytest.mark.parametrize("n", ORDERS)
def test_exponent_arithmetic_matches_the_ring(n):
    """Round trip through exponent form, and the fused product with one-term
    and many-term factors, against ``ring_mul_add``."""
    spec = GroupSpec.cyclic(n)
    rng = random.Random(7 * n)
    elems = [ZERO_ELEM, ONE_ELEM] + [
        random_elem(spec, rng, terms=rng.choice([1, 2, 5]), span=3) for _ in range(12)
    ]
    for x in elems:
        assert elem_from_exponents(exponent_form(n, x)) == x
    for a in elems:
        for b in elems:
            product = ring_mul_add(spec, ZERO_ELEM, a, b)
            for acc in elems[:5] + [-product]:
                want = ring_mul_add(spec, acc, a, b)
                got = exponent_mul_add(n, exponent_form(n, acc), exponent_form(n, a), exponent_form(n, b))
                assert got == exponent_form(n, want)
                assert 0 not in got.values()


def test_exponent_form_checks_each_word():
    spec = GroupSpec.cyclic(7)
    for letters in (((0, 7),), ((0, 0),), ((1, 2),), ((0, 1), (0, 2))):
        with pytest.raises(InvalidWordError):
            exponent_form(7, elem_from_dict({GroupWord(letters): 1}))
    assert exponent_form(7, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 3))) == {0: 1, 3: -1}


def test_verify_cert_over_a_large_cyclic_group(tmp_path, capsys):
    """Replay over Z/100000 holds one map entry per term, so a certificate
    there costs what it costs over Z/7; the representation sends the
    generator to zeta_5."""
    n = 100_000
    spec = GroupSpec.cyclic(n)
    start = direct_sum(
        two_term_complex(spec, 0, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 31_417))),
        two_term_complex(spec, 1, elem_from_dict({generator_word(spec, 0, 0): 1, generator_word(spec, 0, 777): 1})),
    )
    cert = random_op_sequence(start, 40, seed=5)
    x = cert.end.differentials[0][0][0]
    assert len(exponent_form(n, x)) == len(x.terms)
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(cert_to_obj(cert)), encoding="utf-8")
    assert main(["--json", "verify-cert", str(path), "--rep", "n=5;g0=1", "--rep", "n=5;g0=2"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["replay"] is True and res["fingerprints_agree"] is True
    assert all(row["torsion_class"] is not None for row in res["fingerprint"])
