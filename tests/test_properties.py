"""Hypothesis properties: file round-trips, slides, field axioms, the Galois action.

The complexes and certificates come from the generators in ``helpers``,
seeded by hypothesis; the field values are dense, with small coefficients
over a small denominator.
"""
import json
import random
from fractions import Fraction

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
from torsionkit.chaincomplex import complex_from_obj, complex_to_obj, dumps_canonical
from torsionkit.simpleops import (
    HandleSlide,
    apply_op,
    cert_from_obj,
    cert_to_obj,
    random_op_sequence,
)

from helpers import (
    random_acyclic_complex,
    random_elem,
    random_acyclic_int_complex,
    random_group_complex,
    random_int_complex,
    random_trivial_class_complex,
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
