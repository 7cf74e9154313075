"""The working copy that ``apply_op``, ``replay_end`` and
``random_op_sequence`` fold simple operations into.

All three thaw once, read each entry into a coefficient map the first time
an op touches it, update the maps in place and freeze once, so none can
serve as another's reference.  The references are written out in
``helpers``: ``block_edit_reference`` inserts or deletes a trivial block
entry by entry, and ``basis_change_by_matrices`` multiplies by a slide's or
deck's basis-change matrices.  Other tests pin the ownership rule (no map
is shared between slots, the kernels never write an empty accumulator,
nothing given to replay is mutated) and the ``MAX_ENTRY_TERMS`` cap, also
under ``python -O``.

Over Z/n a deck only adds to its basis vector's exponent, which slides
shift their coefficients by and the freeze writes out; code-built
certificates pin that against the references over every group, since the
random ones slide by one-term coefficients only.
"""
import copy
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from torsionkit.chaincomplex import (
    complex_to_obj,
    direct_sum,
    dumps_canonical,
    save_complex,
    two_term_complex,
)
from torsionkit.cli import main
from torsionkit import simpleops
from torsionkit.grouprings import (
    ONE_ELEM,
    GroupSpec,
    GroupWord,
    InvalidWordError,
    elem_from_dict,
    exponent_mul_add,
    generator_elem,
    generator_word,
    letter_mul_add,
    ring_sub,
)
from torsionkit.lensspaces import lens_complex, lens_params
from torsionkit.simpleops import (
    MAX_ENTRY_TERMS,
    DeckTransform,
    Expansion,
    HandleSlide,
    InvalidOpError,
    OpCertificate,
    Retraction,
    apply_op,
    cert_to_obj,
    random_op_sequence,
    replay_end,
)

from helpers import random_group_complex, reference_ends, reference_step

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parent.parent / "src"
SPECS = (
    GroupSpec.cyclic(1),
    GroupSpec.cyclic(7),
    GroupSpec.cyclic(1000),
    GroupSpec.free_product([2, 3]),
)


def _certificates(spec, count=3, length=40):
    rng = random.Random(repr(spec))
    return [
        random_op_sequence(random_group_complex(spec, rng), length, seed=rng.randrange(2**32))
        for _ in range(count)
    ]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_apply_op_expansions_and_retractions_are_block_edits(spec):
    seen = set()
    for cert in _certificates(spec, count=4, length=60):
        c = cert.start
        for op in cert.ops:
            nxt = apply_op(c, op)
            if isinstance(op, (Expansion, Retraction)):
                assert nxt == reference_step(c, op)
                seen.add(type(op))
            c = nxt
    assert seen == {Expansion, Retraction}


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_replay_end_matches_the_references_at_every_prefix(spec):
    for cert in _certificates(spec, count=2, length=30):
        ends = reference_ends(cert.start, cert.ops)
        assert ends[-1] == cert.end
        for i in range(len(cert.ops) + 1):
            assert replay_end(OpCertificate(cert.start, cert.ops[:i], cert.start)) == ends[i]


def _held_maps(complexes, ops) -> list:
    """Each coefficient map that an entry of the complexes or a slide
    coefficient holds, with a copy of what it holds now."""
    elems = [x for c in complexes for m in c.differentials for row in m for x in row]
    elems += [op.coefficient for op in ops if isinstance(op, HandleSlide)]
    return [(x.coeffs, dict(x.coeffs)) for x in elems]


@pytest.mark.parametrize("spec", SPECS, ids=repr)
def test_replay_mutates_nothing_it_is_given(spec):
    for cert in _certificates(spec):
        start, end, ops = copy.deepcopy((cert.start, cert.end, cert.ops))
        held = _held_maps((cert.start, cert.end), cert.ops)
        first = replay_end(cert)
        assert (cert.start, cert.end, cert.ops) == (start, end, ops)
        assert all(
            a.coefficient == b.coefficient
            for a, b in zip(cert.ops, ops)
            if isinstance(a, HandleSlide)
        )
        assert all(m == before for m, before in held)
        held += _held_maps((first,), ())
        assert replay_end(cert) == first == cert.end
        assert all(m == before for m, before in held)


def _inserted_block_ops(x, y):
    """Two expansions at (0, 0), whose new vectors u2, u1 and v2, v1 take
    indices 0 and 1 in degrees 0 and 1.  Then slide x*c_2 into u2 (its zero
    slots), y*v2 into c_2 of degree 1 (which puts a product into u2's pivot
    slot) and y*u2 into u1 (into u1's pivot), undo the three slides and
    retract both blocks: the net change is none."""
    return [
        Expansion(0, 0),
        Expansion(0, 0),
        HandleSlide(0, 0, 2, x),
        HandleSlide(1, 2, 0, y),
        HandleSlide(0, 1, 0, y),
        HandleSlide(0, 1, 0, -y),
        HandleSlide(1, 2, 0, -y),
        HandleSlide(0, 0, 2, -x),
        Retraction(0, 0),
        Retraction(0, 0),
    ]


@pytest.mark.parametrize("spec", SPECS[1:], ids=repr)
def test_slides_into_an_inserted_block_then_retraction(spec):
    """The expansions' pivots and zero slots are written by later slides;
    a pivot shared with the other block, or a zero shared with other slots,
    would change them too."""
    rng = random.Random(5)
    if spec.kind == "cyclic":
        c = direct_sum(
            two_term_complex(spec, 0, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 1))),
            two_term_complex(spec, 0, generator_elem(spec, 0, 2)),
        )
    else:
        c = direct_sum(random_group_complex(spec, rng), two_term_complex(spec, 0, ONE_ELEM))
    x = elem_from_dict({generator_word(spec, 0, 1): 2, generator_word(spec, 0, 0): -1})
    y = generator_elem(spec, 0, 1)
    ops = tuple(_inserted_block_ops(x, y))
    ends = reference_ends(c, ops)
    assert ends[-1] == c
    for i in range(len(ops) + 1):
        assert replay_end(OpCertificate(c, ops[:i], c)) == ends[i]


# --- exponents of basis vectors over Z/n ---

EXPONENT_SPECS = [GroupSpec.cyclic(n) for n in (1, 2, 7, 13, 1000)] + [
    GroupSpec.free_product(orders) for orders in ([2, 3], [5, 5])
]


def _spec_id(spec):
    if spec.kind == "cyclic":
        return f"Z{spec.factor_orders[0]}"
    return "*".join(f"Z{m}" for m in spec.factor_orders)


def _word(spec, k):
    """g^k over Z/n; over a free product one letter for odd k, two for even."""
    if spec.kind == "cyclic":
        return generator_word(spec, 0, k)
    a, b = spec.factor_orders
    if k % 2:
        return GroupWord(((0, 1 + k % (a - 1)),))
    return GroupWord(((1, 1 + k % (b - 1)), (0, 1 + k % (a - 1))))


def _coefficient(spec, *terms):
    """The sum of c * word k over the (k, c) pairs."""
    acc = {}
    for k, c in terms:
        w = _word(spec, k)
        acc[w] = acc.get(w, 0) + c
    return elem_from_dict(acc)


def _exponent_start(spec):
    """Ranks (2, 4, 2) in degrees 0..2, every vector linked both ways."""
    parts = [
        two_term_complex(spec, 0, _coefficient(spec, (0, 1), (1, -1))),
        two_term_complex(spec, 1, _coefficient(spec, (2, 1))),
        two_term_complex(spec, 0, _coefficient(spec, (3, 2))),
        two_term_complex(spec, 1, _coefficient(spec, (0, 1), (4, 1))),
    ]
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    for op in (HandleSlide(1, 0, 1, _coefficient(spec, (1, 1))), HandleSlide(1, 3, 2, _coefficient(spec, (5, -1)))):
        c = apply_op(c, op)
    return c


def _exponent_ops(spec):
    """Decks on both indices of later slides, slides by two- and three-term
    coefficients, and decks on both vectors of inserted blocks (one inside
    the window, one widening it) before their retraction."""
    two, three = _coefficient(spec, (1, 2), (4, -1)), _coefficient(spec, (0, 1), (2, -3), (5, 1))
    return (
        DeckTransform(1, 0, _word(spec, 1)),
        DeckTransform(1, 2, _word(spec, 3)),
        HandleSlide(1, 0, 2, two),
        DeckTransform(2, 1, _word(spec, 2)),
        DeckTransform(0, 0, _word(spec, 5)),
        HandleSlide(1, 2, 0, three),
        HandleSlide(2, 0, 1, two),
        HandleSlide(0, 1, 0, three),
        Expansion(1, 1),
        DeckTransform(1, 1, _word(spec, 2)),
        DeckTransform(2, 1, _word(spec, 5)),
        DeckTransform(1, 2, _word(spec, 4)),
        Retraction(1, 1),
        HandleSlide(1, 1, 2, two),
        HandleSlide(2, 1, 0, three),
        Expansion(2, 0),
        DeckTransform(3, 0, _word(spec, 3)),
        DeckTransform(2, 0, _word(spec, 6)),
        HandleSlide(2, 1, 2, two),
        Retraction(2, 0),
        DeckTransform(1, 3, _word(spec, 6)),
        HandleSlide(1, 3, 1, three),
        HandleSlide(1, 1, 3, two),
    )


@pytest.mark.parametrize("spec", EXPONENT_SPECS, ids=_spec_id)
def test_decks_and_slides_on_exponents_match_the_references(spec):
    start, ops = _exponent_start(spec), _exponent_ops(spec)
    ends = reference_ends(start, ops)
    assert ends[-1] != start
    for i in range(len(ops) + 1):
        assert replay_end(OpCertificate(start, ops[:i], start)) == ends[i]
    c = start
    for op, want in zip(ops, ends[1:]):
        c = apply_op(c, op)
        assert c == want


@pytest.mark.parametrize("spec", [GroupSpec.cyclic(7), GroupSpec.free_product([5, 5])], ids=_spec_id)
def test_decks_multiply_only_over_free_products(spec, monkeypatch):
    """Over Z/7 a deck-only certificate replays with no multiply-add; over
    Z/5 * Z/5 each deck still multiplies its column and row."""
    start = _exponent_start(spec)
    ops = tuple(
        DeckTransform(d, k, _word(spec, 1 + d + k)) for d in start.degrees for k in range(start.rank(d))
    )
    calls = []
    real = simpleops.map_mul_add
    monkeypatch.setattr(simpleops, "map_mul_add", lambda *args: calls.append(args) or real(*args))
    assert replay_end(OpCertificate(start, ops, start)) == reference_ends(start, ops)[-1]
    assert bool(calls) == (spec.kind != "cyclic")


@pytest.mark.parametrize(
    "op, text",
    [
        (DeckTransform(2, 0, GroupWord(((0, 9),))), "step 2: exponent 9 not reduced mod 7"),
        (HandleSlide(1, 0, 1, elem_from_dict({GroupWord(((0, 9),)): 1})), "step 2: not a reduced word of Z/7: ((0, 9),)"),
    ],
    ids=["deck", "slide"],
)
def test_a_bad_word_names_its_step(op, text):
    spec = GroupSpec.cyclic(7)
    start = _exponent_start(spec)
    ops = _exponent_ops(spec)[:2] + (op,)
    with pytest.raises(InvalidWordError) as err:
        replay_end(OpCertificate(start, ops, start))
    assert str(err.value) == text


# Each kernel on the same products: over Z/7 keyed by exponent, and over
# Z/7 * Z/7 keyed by the letter tuples of the same powers of factor 0.
KERNELS = {
    "exponent_mul_add": (lambda acc, a, b: exponent_mul_add(7, acc, a, b), lambda e: e),
    "letter_mul_add": (lambda acc, a, b: letter_mul_add((7, 7), acc, a, b), lambda e: ((0, e),) if e else ()),
}


@pytest.mark.parametrize("kernel", KERNELS)
def test_exponent_mul_add_never_writes_an_empty_acc(kernel):
    mul_add, key = KERNELS[kernel]

    def form(x):
        return {key(e): c for e, c in x.items()}

    a, b = form({1: 1, 2: -1}), form({0: 3, 5: 1})
    for one_term in (False, True):
        zero = {}
        got = mul_add(zero, a, form({5: 1}) if one_term else b)
        assert zero == {} and got is not zero
    acc = form({3: 1})
    assert mul_add(acc, a, b) is acc
    assert acc == form({1: 3, 2: -3, 3: 1, 6: 1, 0: -1})
    assert (a, b) == (form({1: 1, 2: -1}), form({0: 3, 5: 1}))


# --- MAX_ENTRY_TERMS ---

BIG = GroupSpec.cyclic(10**9)


def _two_terms(spec, e1, e2):
    return elem_from_dict({generator_word(spec, 0, e1): 1, generator_word(spec, 0, e2): 1})


def growth_certificate():
    """Slides back and forth by two-term coefficients over Z/10^9, where
    products never collide, so the entries about double each step."""
    start = direct_sum(
        two_term_complex(BIG, 0, ring_sub(BIG, ONE_ELEM, generator_elem(BIG, 0, 12345))),
        two_term_complex(BIG, 0, _two_terms(BIG, 0, 777)),
    )
    rng = random.Random(9)
    ops = tuple(
        HandleSlide(0, k % 2, 1 - k % 2, _two_terms(BIG, rng.randrange(1, 10**9), rng.randrange(1, 10**9)))
        for k in range(24)
    )
    return OpCertificate(start, ops, start)


def test_replay_refuses_an_entry_past_the_cap():
    with pytest.raises(InvalidOpError) as err:
        replay_end(growth_certificate())
    text = str(err.value)
    assert text.startswith("step 11: an entry of the differential at degree 0 could reach ")
    assert text.endswith(f" terms, past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}")


def test_a_wide_product_is_refused_before_it_is_formed():
    """A slide by a 100-term coefficient onto a 1000-term entry could form
    100,000 terms: refused from the counts, before any product is formed
    (once formed after the fact, a 1000-term coefficient on a 49,990-term
    entry took 61 s and 48.8M terms)."""
    rng = random.Random(2)

    def wide(k):
        return elem_from_dict({generator_word(BIG, 0, rng.randrange(1, 10**9)): 1 for _ in range(k)})

    start = direct_sum(two_term_complex(BIG, 0, wide(1000)), two_term_complex(BIG, 0, wide(1)))
    slide = HandleSlide(0, 1, 0, wide(100))
    with pytest.raises(InvalidOpError) as err:
        replay_end(OpCertificate(start, (slide,), start))
    assert str(err.value) == (
        "step 0: an entry of the differential at degree 0 could reach 100000 terms,"
        f" past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}"
    )
    with pytest.raises(InvalidOpError):
        apply_op(start, slide)


def test_cap_is_above_the_growth_of_forty_random_ops():
    """40 random ops over Z/100000 (the certificate of
    ``test_verify_cert_over_a_large_cyclic_group``) stay well inside."""
    spec = GroupSpec.cyclic(100_000)
    start = direct_sum(
        two_term_complex(spec, 0, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 31_417))),
        two_term_complex(spec, 1, _two_terms(spec, 0, 777)),
    )
    end = random_op_sequence(start, 40, seed=5).end
    peak = max(len(x.coeffs) for m in end.differentials for row in m for x in row)
    assert 1000 < peak < MAX_ENTRY_TERMS // 4


def test_verify_cert_refuses_the_growth_certificate(tmp_path, capsys):
    path = tmp_path / "growth.json"
    path.write_text(dumps_canonical(cert_to_obj(growth_certificate())), encoding="utf-8")
    assert main(["verify-cert", str(path), "--rep", "n=5;g0=1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: invalid certificate: step 11: an entry of the differential")
    assert f"past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}" in captured.err


def test_gen_cert_refuses_an_entry_past_the_cap(tmp_path, capsys):
    """random_op_sequence's slides add one-term multiples, yet over
    Z/100000 the entries still grow past the cap within 60 ops."""
    spec = GroupSpec.cyclic(100_000)
    start = direct_sum(
        two_term_complex(spec, 0, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 31_417))),
        two_term_complex(spec, 1, _two_terms(spec, 0, 777)),
    )
    path, out = tmp_path / "c.json", tmp_path / "cert.json"
    save_complex(start, path)
    assert main(["gen-cert", str(path), "--length", "400", "--seed", "5", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot generate a certificate: step ")
    assert f"past MAX_ENTRY_TERMS = {MAX_ENTRY_TERMS}\n" in err
    assert not out.exists()


# --- the checks hold under python -O, which strips assert statements ---


def _run_optimized(args, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", *args], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )


def test_python_O_keeps_the_replay_checks(tmp_path):
    start = lens_complex(lens_params(7, 2))
    invalid = OpCertificate(start, (Expansion(0, 0), Retraction(0, 5)), start)
    tampered = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
    moved = apply_op(start, DeckTransform(0, 0, generator_word(start.spec, 0, 1)))
    tampered["end"] = complex_to_obj(moved)
    files = {
        "invalid.json": dumps_canonical(cert_to_obj(invalid)),
        "tampered.json": dumps_canonical(tampered),
        "growth.json": dumps_canonical(cert_to_obj(growth_certificate())),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    cases = [
        (["invalid.json"], 1, "error: invalid certificate: step 1: retraction position 5 out of range at degree 0\n"),
        (["tampered.json"], 2, ""),
        (["growth.json", "--rep", "n=5;g0=1"], 1, "error: invalid certificate: step 11: an entry"),
    ]
    for argv, status, err in cases:
        proc = _run_optimized(["-m", "torsionkit", "verify-cert", *argv], tmp_path)
        assert proc.returncode == status, proc.stderr
        assert proc.stderr.startswith(err) and bool(proc.stderr) == bool(err)
    assert "replay: FAILED" in _run_optimized(["-m", "torsionkit", "verify-cert", "tampered.json"], tmp_path).stdout


def test_python_O_keeps_the_fingerprint_cross_check(tmp_path):
    """Exit 3 when the end's torsion differs after an exact replay; the
    fingerprint of the end is swapped for that of L(7,1) to provoke it."""
    script = (
        "import sys\n"
        "import torsionkit.cli as cli\n"
        "from torsionkit.lensspaces import lens_complex, lens_params\n"
        "real, calls = cli.fingerprint, []\n"
        "def swapped(c, reps):\n"
        "    calls.append(c)\n"
        "    return real(lens_complex(lens_params(7, 1)) if len(calls) % 2 == 0 else c, reps)\n"
        "cli.fingerprint = swapped\n"
        f"sys.exit(cli.main(['verify-cert', {str(GOLDEN / 'cert.json')!r}]))\n"
    )
    proc = _run_optimized(["-c", script], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout.endswith("CROSS-CHECK FAILED: torsion changed under simple operations\n")
