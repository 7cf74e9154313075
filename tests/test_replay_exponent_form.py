"""Differential tests: replay on coefficient maps against the references.

``replay_end`` thaws ``start`` once, reads each entry into a coefficient
map (keyed by exponent over Z/n, by letter tuple over a free product) the
first time an op touches it, folds the ops on the maps in one working copy
and writes the touched entries back once.  ``apply_op`` and
``random_op_sequence`` run that same fold, so none of them can check
another.  The reference here, ``word_replay_end``, is written out on
``GroupRingElem`` entries in ``helpers``: ``block_edit_reference`` for an
expansion or retraction, ``basis_change_by_matrices`` (a slide or deck as
the product with its basis-change matrix on each side) for the rest.
Replay must build the reference's end, term order included, and refuse
an invalid op with a ``step i: ...`` text pinned here literally.
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
    elem_from_map,
    generator_elem,
    generator_word,
    map_form,
    map_mul_add,
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

from helpers import (
    basis_change_by_matrices,
    random_acyclic_complex,
    random_elem,
    random_group_complex,
    reference_ends,
    terms_of,
    twisted_lens_cells,
)

GROUPS = [GroupSpec.cyclic(n) for n in (1, 2, 7, 13, 1000)] + [
    GroupSpec.free_product(orders) for orders in ([2, 3], [5, 5])
]


def _group_id(spec):
    """n for Z/n, Z2*Z3 for a free product."""
    if spec.kind == "cyclic":
        return str(spec.factor_orders[0])
    return "*".join(f"Z{m}" for m in spec.factor_orders)


def _seed(spec):
    """n for Z/n, 23 for Z/2 * Z/3: the cyclic seeds predate the free products."""
    return int("".join(map(str, spec.factor_orders)))


groups = pytest.mark.parametrize("spec", GROUPS, ids=_group_id)


def word_replay_end(cert):
    """The end the references build from start, one op at a time."""
    return reference_ends(cert.start, cert.ops)[-1]


def _starts(spec):
    """Complexes to start certificates from: sparse random complexes, and
    lens cells where the group is a modulus of the lens workloads or a free
    product of two copies of Z/5."""
    rng = random.Random(_seed(spec))
    starts = [random_group_complex(spec, rng), random_group_complex(spec, rng)]
    if spec.factor_orders[0] > 1:
        starts.append(random_acyclic_complex(spec, rng, summands=2))
    n = spec.factor_orders[0]
    if spec.kind == "cyclic" and n in (7, 13):
        starts += [lens_complex(lens_params(n, q)) for q in (1, 2, 3)]
    if spec.factor_orders == (5, 5):
        starts += [twisted_lens_cells(spec, factor, 1, 5, 2) for factor in (0, 1)]
    return starts


def _certificates(spec, length=60):
    return [
        random_op_sequence(start, length, seed=31 * _seed(spec) + k)
        for k, start in enumerate(_starts(spec))
    ]


@groups
def test_exponent_replay_builds_the_word_replay_end(spec):
    for cert in _certificates(spec):
        end = replay_end(cert)
        assert end == word_replay_end(cert) == cert.end
        assert replay(cert)


@groups
def test_tampered_end_is_refused_in_both_forms(spec):
    for cert in _certificates(spec, length=20):
        c = cert.end
        d = next(d for d in c.degrees if c.rank(d))
        moved = apply_op(c, DeckTransform(d, 0, generator_word(c.spec, 0, 1)))
        tampered = OpCertificate(cert.start, cert.ops, apply_op(moved, Expansion(d, 0)))
        assert not replay(tampered)
        assert replay_end(tampered) == word_replay_end(tampered) == cert.end


def _invalid_ops(c):
    """(op, text) for ops that do not apply to c, one per check of the
    working copy, with the text each must fail with."""
    spec = c.spec
    x = generator_elem(spec, 0, 1)
    g = generator_word(spec, 0, 1)
    d = max(c.degrees, key=c.rank)
    r, top = c.rank(d), c.max_degree + 1
    k = min(r, c.rank(d + 1))
    cases = [
        (HandleSlide(d, 0, r, x), f"slide indices (0, {r}) out of range at degree {d}"),
        (HandleSlide(d, -1, 0, x), f"slide indices (-1, 0) out of range at degree {d}"),
        (DeckTransform(d, r, g), f"deck index {r} out of range at degree {d}"),
        (DeckTransform(top, 0, g), f"deck index 0 out of range at degree {top}"),
        (Expansion(d, r + 1), f"expansion position {r + 1} out of range at degree {d}"),
        (Retraction(d, k), f"retraction position {k} out of range at degree {d}"),
    ]
    if r >= 2:
        cases.append((HandleSlide(d, 1, 1, x), "handle slide needs distinct indices"))
    for d in range(c.min_degree, c.max_degree):
        for k in range(min(c.rank(d), c.rank(d + 1))):
            pivot = terms_of(c.diff(d)[k][k]).terms
            if not (len(pivot) == 1 and pivot[0][1] in (1, -1)):
                cases.append((Retraction(d, k), f"block ({d}, {k}) is not a trivial [Z[G] -> Z[G]] summand"))
                return cases
    return cases


@groups
def test_invalid_op_fails_with_the_word_replay_text(spec):
    seen = set()
    for cert in _certificates(spec, length=30):
        ends = reference_ends(cert.start, cert.ops)
        for cut in (0, len(cert.ops) // 2, len(cert.ops)):
            for bad, text in _invalid_ops(ends[cut]):
                broken = OpCertificate(cert.start, cert.ops[:cut] + (bad,) + cert.ops[cut:], cert.end)
                with pytest.raises(InvalidOpError) as got:
                    replay_end(broken)
                assert str(got.value) == f"step {cut}: {text}"
                seen.add(text.split(" ", 1)[0])
    assert {"slide", "deck", "expansion", "retraction", "handle", "block"} <= seen


@groups
def test_slides_and_decks_are_basis_change_products(spec):
    for cert in _certificates(spec, length=40):
        c = cert.start
        for op in cert.ops:
            nxt = apply_op(c, op)
            if isinstance(op, (HandleSlide, DeckTransform)):
                assert nxt == basis_change_by_matrices(c, op)
            c = nxt


@groups
def test_exponent_arithmetic_matches_the_ring(spec):
    """Round trip through the coefficient map, and the fused product with
    one-term and many-term factors, against ``ring_mul_add``."""
    rng = random.Random(7 * _seed(spec))
    elems = [ZERO_ELEM, ONE_ELEM] + [
        random_elem(spec, rng, terms=rng.choice([1, 2, 5]), span=3) for _ in range(12)
    ]
    for x in elems:
        assert elem_from_map(spec, map_form(spec, x)) == x
    for a in elems:
        for b in elems:
            product = ring_mul_add(spec, ZERO_ELEM, a, b)
            for acc in elems[:5] + [-product]:
                want = ring_mul_add(spec, acc, a, b)
                got = map_mul_add(spec, map_form(spec, acc), map_form(spec, a), map_form(spec, b))
                assert got == map_form(spec, want)
                assert 0 not in got.values()


def test_exponent_form_checks_each_word():
    spec = GroupSpec.cyclic(7)
    for letters in (((0, 7),), ((0, 0),), ((1, 2),), ((0, 1), (0, 2))):
        with pytest.raises(InvalidWordError):
            map_form(spec, elem_from_dict({GroupWord(letters): 1}))
    assert map_form(spec, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 3))) == {0: 1, 3: -1}
    free = GroupSpec.free_product([5, 5])
    for letters in (((0, 5),), ((2, 1),), ((0, 1), (0, 2))):
        with pytest.raises(InvalidWordError):
            map_form(free, elem_from_dict({GroupWord(letters): 1}))
    assert map_form(free, ring_sub(free, ONE_ELEM, generator_elem(free, 1, 3))) == {(): 1, ((1, 3),): -1}


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
    assert len(map_form(spec, x)) == len(x.coeffs)
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(cert_to_obj(cert)), encoding="utf-8")
    assert main(["--json", "verify-cert", str(path), "--rep", "n=5;g0=1", "--rep", "n=5;g0=2"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["replay"] is True and res["fingerprints_agree"] is True
    assert all(row["torsion_class"] is not None for row in res["fingerprint"])
