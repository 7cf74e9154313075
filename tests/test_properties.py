"""Hypothesis properties: file round-trips, the check of a document
against a complex (``matches_obj``), the two kinds of simple edit, field
axioms, the Galois action, and the CLI on damaged documents.

The complexes and certificates come from the generators in ``helpers``,
seeded by hypothesis; the field values are dense, with small coefficients
over a small denominator.
"""
import contextlib
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from torsionkit.grouprings import GroupSpec
from torsionkit.cyclofield import (
    CycloNum,
    UnitSubgroup,
    cyclo_fraction,
    cyclo_inv,
    cyclo_one,
    cyclo_zero,
    euler_phi,
    torsion_class,
    units,
)
from torsionkit import cli
from torsionkit.chaincomplex import (
    ShapeMismatchError,
    based_complex,
    complex_from_obj,
    complex_to_obj,
    dumps_canonical,
    matches_obj,
    two_term_complex,
)
from torsionkit.grouprings import elem_from_dict, generator_word
from torsionkit.simpleops import (
    Expansion,
    HandleSlide,
    OpCertificate,
    Retraction,
    apply_op,
    cert_from_obj,
    cert_to_obj,
    random_op_sequence,
    replay,
    replay_end,
    retractable_positions,
)

from helpers import (
    random_acyclic_complex,
    random_elem,
    random_acyclic_int_complex,
    random_group_complex,
    random_int_complex,
    random_trivial_class_complex,
    terms_of,
)

SPECS = (GroupSpec.cyclic(5), GroupSpec.cyclic(7), GroupSpec.free_product([3, 5]))


@st.composite
def complexes(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1), label="seed"))
    spec = draw(st.sampled_from(SPECS), label="spec")
    make = draw(
        st.sampled_from(
            [
                lambda: random_acyclic_complex(spec, rng),
                lambda: random_group_complex(spec, rng),
                lambda: random_trivial_class_complex(spec, rng),
                lambda: random_acyclic_int_complex(rng),
                lambda: random_int_complex(rng),
            ]
        )
    )
    return make()


def _through_json(obj):
    """``obj`` as a file would hold it: canonical JSON text, read back."""
    return json.loads(dumps_canonical(obj))


@settings(max_examples=40, deadline=None)
@given(complexes())
def test_complex_round_trip(c):
    obj = complex_to_obj(c)
    back = complex_from_obj(_through_json(obj))
    assert back == c
    assert complex_to_obj(back) == obj


def _read_or_none(obj):
    try:
        return complex_from_obj(obj)
    except ShapeMismatchError:
        return None


@settings(max_examples=40, deadline=None)
@given(complexes())
def test_canonical_document_matches(c):
    assert matches_obj(c, _through_json(complex_to_obj(c)))


# what a mutated leaf becomes: its value moved by one, of another JSON type
# with the same value, or another kind of node
LEAF_VALUES = (
    lambda v: v + 1 if type(v) is int else 1,
    lambda v: v - 1 if type(v) is int else -1,
    lambda v: float(v) if type(v) is int else 1.0,
    lambda v: bool(v) if type(v) is int else True,
    lambda v: str(v),
    lambda v: None,
    lambda v: [],
    lambda v: {},
    lambda v: [v, v],
)


@settings(max_examples=150, deadline=None)
@given(complexes(), st.data())
def test_a_match_reads_back_the_complex(c, data):
    """After any one change of one node of the canonical document (a new
    value, a deletion or a duplicate), a match means the reader builds the
    complex itself."""
    doc = _through_json(complex_to_obj(c))
    path = data.draw(st.sampled_from(list(_node_paths(doc))), label="node")
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    how = data.draw(st.sampled_from(["set", "delete", "duplicate"]), label="how")
    if how == "delete":
        del parent[key]
    elif how == "duplicate" and isinstance(parent, list):
        parent.insert(key, json.loads(json.dumps(parent[key])))
    else:
        parent[key] = data.draw(st.sampled_from(LEAF_VALUES), label="value")(parent[key])
    if matches_obj(c, doc):
        assert _read_or_none(doc) == c


def _trap_complex():
    """[Z[Z/7] --(g + 2g^3)--> Z[Z/7]] in degrees 0 and 1, and its document."""
    spec = GroupSpec.cyclic(7)
    x = elem_from_dict({generator_word(spec, 0, 1): 1, generator_word(spec, 0, 3): 2})
    c = two_term_complex(spec, 0, x)
    return c, _through_json(complex_to_obj(c))


def _terms(doc):
    return doc["differentials"]["0"][0][0]  # [[1, [[0, 1]]], [2, [[0, 3]]]]


def _set(*path, value):
    def edit(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    return edit


# One edit per trap, each leaving a document that does not spell the complex
# exactly as it is held.
TRAPS = {
    "repeated word, sums to 2g": lambda d: _terms(d).__setitem__(1, [1, [[0, 1]]]),
    "repeated word, sums to 3g": lambda d: _terms(d).__setitem__(1, [2, [[0, 1]]]),
    "order 7.0": _set("group", "order", value=7.0),
    "order true": _set("group", "order", value=True),
    "min_degree 0.0": _set("min_degree", value=0.0),
    "min_degree false": _set("min_degree", value=False),
    "ranks [true, true]": _set("ranks", value=[True, True]),
    "ranks [1.0, 1]": _set("ranks", value=[1.0, 1]),
    "coefficient true": lambda d: _terms(d)[0].__setitem__(0, True),
    "coefficient 2.0": lambda d: _terms(d)[1].__setitem__(0, 2.0),
    "exponent true": lambda d: _terms(d)[0][1][0].__setitem__(1, True),
    "exponent 3.0": lambda d: _terms(d)[1][1][0].__setitem__(1, 3.0),
    "factor false": lambda d: _terms(d)[0][1][0].__setitem__(0, False),
    "factor 0.0": lambda d: _terms(d)[0][1][0].__setitem__(0, 0.0),
    "extra key": _set("comment", value="x"),
    "extra group key": _set("group", "note", value=1),
    "missing labels": lambda d: d.pop("labels"),
    "missing differentials": lambda d: d.pop("differentials"),
    "stray degree key": _set("differentials", "5", value=[]),
    "missing degree key": lambda d: d["differentials"].pop("0"),
    "word as an object": lambda d: _terms(d)[0].__setitem__(1, {}),
    "word as a string": lambda d: _terms(d)[0].__setitem__(1, ""),
    "zero term": lambda d: _terms(d).append([0, []]),
    "term as a string": lambda d: _terms(d).__setitem__(0, "ab"),
}


# the traps that still spell the complex, in a form the check need not take
READ_BACK_THE_SAME = {"extra key", "extra group key", "missing labels", "zero term"}


@pytest.mark.parametrize("trap", list(TRAPS))
def test_trap_documents_do_not_match(trap):
    """No trap matches.  The reader refuses the retyped ones and reads a
    repeated word as the sum of its terms, another complex."""
    c, doc = _trap_complex()
    assert matches_obj(c, doc)
    TRAPS[trap](doc)
    assert not matches_obj(c, doc)
    assert (_read_or_none(doc) == c) == (trap in READ_BACK_THE_SAME)


@settings(max_examples=25, deadline=None)
@given(complexes(), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_certificate_round_trip(c, length, seed):
    cert = random_op_sequence(c, length, seed)
    obj = cert_to_obj(cert)
    back = cert_from_obj(_through_json(obj))
    assert back == cert
    assert dumps_canonical(cert_to_obj(back)) == dumps_canonical(obj)


@settings(max_examples=40, deadline=None)
@given(complexes(), st.data())
def test_slide_then_its_inverse_is_the_identity(c, data):
    """c_a -> c_a + x*c_b, then c_a -> c_a - x*c_b, gives back the complex."""
    degrees = [d for d in c.degrees if c.rank(d) >= 2]
    assume(degrees)
    d = data.draw(st.sampled_from(degrees), label="degree")
    a, b = data.draw(st.permutations(range(c.rank(d))), label="indices")[:2]
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = random_elem(c.spec, rng, terms=3)
    slid = apply_op(c, HandleSlide(d, a, b, x))
    assert apply_op(slid, HandleSlide(d, a, b, -x)) == c


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from((GroupSpec.cyclic(7), GroupSpec.free_product([5, 5]))),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_retraction_undoes_every_expansion(spec, acyclic, seed):
    """Every valid (d, k), also d = min - 1 and d = max, which widen the window."""
    rng = random.Random(seed)
    c = random_acyclic_complex(spec, rng) if acyclic else random_group_complex(spec, rng)
    for d in range(c.min_degree - 1, c.max_degree + 1):
        for k in range(min(c.rank(d), c.rank(d + 1)) + 1):
            expanded = apply_op(c, Expansion(d, k))
            assert apply_op(expanded, Retraction(d, k)) == c


def _steps(cert):
    """The complexes a certificate passes through, with the op that leaves each."""
    c = cert.start
    for op in cert.ops:
        yield c, op
        c = apply_op(c, op)


@settings(max_examples=25, deadline=None)
@given(complexes(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_every_op_builds_the_canonical_complex(c, length, seed):
    """What an op builds, trusted shapes and all, is what the checked
    constructor builds from the same parts."""
    for step, op in _steps(random_op_sequence(c, length, seed)):
        r = apply_op(step, op)
        assert r == based_complex(r.spec, r.min_degree, r.ranks, r.differentials, r.labels)


@settings(max_examples=25, deadline=None)
@given(complexes(), st.integers(0, 30), st.integers(0, 2**32 - 1))
def test_certificates_compose(c, length, seed):
    """Replay is apply_op folded over the ops, and a certificate cut at any
    op is two certificates that each replay: whether an op applies depends
    only on the complex it acts on, not on the ops before it."""
    cert = random_op_sequence(c, length, seed)
    mids = [c]
    for op in cert.ops:
        mids.append(apply_op(mids[-1], op))
    assert replay_end(cert) == mids[-1] == cert.end
    for i, mid in enumerate(mids):
        assert replay(OpCertificate(c, cert.ops[:i], mid))
        assert replay(OpCertificate(mid, cert.ops[i:], cert.end))


def _reference_retractable_positions(c, degree):
    """Indices k where (degree, k) names a deletable trivial summand, entry by entry."""
    out = []
    m, prev, nxt = c.diff(degree), c.diff(degree - 1), c.diff(degree + 1)
    for k in range(min(c.rank(degree), c.rank(degree + 1))):
        pivot = terms_of(m[k][k]).terms
        if not (len(pivot) == 1 and pivot[0][1] in (1, -1)):
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


@settings(max_examples=25, deadline=None)
@given(complexes(), st.integers(1, 30), st.integers(0, 2**32 - 1))
def test_retractable_positions_match_the_entrywise_definition(c, length, seed):
    for step, _ in _steps(random_op_sequence(c, length, seed)):
        for d in range(step.min_degree - 1, step.max_degree + 1):
            assert retractable_positions(step, d) == _reference_retractable_positions(step, d)


@st.composite
def field_values(draw, n):
    phi = euler_phi(n)
    nums = draw(st.lists(st.integers(-3, 3), min_size=phi, max_size=phi), label="nums")
    den = draw(st.integers(1, 6), label="den")
    return CycloNum(n, tuple(nums), 1) * cyclo_fraction(n, Fraction(1, den))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_field_axioms(data):
    n = data.draw(st.sampled_from([31, 61]), label="n")
    a, b, c = (data.draw(field_values(n), label=name) for name in "abc")
    zero, one = cyclo_zero(n), cyclo_one(n)
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a and a * one == a and a * zero == zero
    assert a - a == zero and a + (-a) == zero
    if a:
        assert a * cyclo_inv(a) == one


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugation_is_an_action(data):
    """sigma_d then sigma_e is sigma_(d*e) on classes, for every unit group."""
    n = data.draw(st.sampled_from([7, 12, 13, 31]), label="n")
    group = UnitSubgroup(n, data.draw(st.integers(0, n - 1), label="step"))
    value = data.draw(field_values(n).filter(bool), label="value")
    d, e = (data.draw(st.sampled_from(units(n)), label=name) for name in "de")
    cls = torsion_class(value, group)
    assert cls.conjugate(d).conjugate(e) == cls.conjugate(d * e % n)
    assert cls.conjugate(1) == cls


GOLDEN = Path(__file__).parent / "golden"
DAMAGE = ({}, "", [], 0, -1, 1.5, True, None, [[[]]])


def _node_paths(node, prefix=()):
    """The key path of every value below the root of a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _node_paths(child, prefix + (key,))


DOCUMENTS = {
    name: (json.loads((GOLDEN / name).read_text(encoding="utf-8")), argv)
    for name, argv in (
        ("l72.json", ["torsion", "{}", "--rep", "n=7;g0=1"]),
        ("cert.json", ["verify-cert", "{}"]),
    )
}
PATHS = {name: list(_node_paths(doc)) for name, (doc, _) in DOCUMENTS.items()}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(DOCUMENTS)), st.data(), st.sampled_from(DAMAGE))
def test_damaged_document_ends_in_a_documented_exit(name, data, value):
    """One node of a golden input replaced by a wrong value or container: the
    CLI exits 0, 1 or 2, and exit 1 comes with an ``error:`` line."""
    doc, argv = DOCUMENTS[name]
    path = data.draw(st.sampled_from(PATHS[name]), label="node")
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / name
        target.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main([str(target) if a == "{}" else a for a in argv])
    assert status in (0, 1, 2)
    if status == 1:
        assert err.getvalue().startswith("error:")
