"""Conjugated torsion classes against the per-twist path they replace.

The Galois orbit of a representation rho is read from one elimination: the
class under sigma_d . rho is TorsionClass.conjugate(d) of the class under
rho.  Each test here compares that with reidemeister_torsion run once per
twisted representation: the same classes, and None exactly where that
raises NotAcyclicError.  Each test covers a modulus with a unit d != 1/d,
so a conjugation by the wrong power of zeta fails it (mod 12 every unit is
its own inverse).
"""
import random
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import torsionkit.torsion as torsion
from torsionkit.grouprings import GroupSpec
from torsionkit.cyclofield import galois_conjugate, representation, torsion_class, unit_subgroup
from torsionkit.chaincomplex import base_change, direct_sum
from torsionkit.torsion import (
    NotAcyclicError,
    field_torsion,
    fingerprint,
    reidemeister_torsion,
)
from torsionkit.simpleops import random_op_sequence
from torsionkit.lensspaces import (
    free_product_scenario,
    lens_complex,
    lens_params,
    lens_torsion,
    lens_verdict,
    modp_inverse,
)

from helpers import random_acyclic_complex, random_group_complex, scramble, twisted_lens_cells

MODULI = (7, 12, 13, 31, 61)


def units(n):
    return [d for d in range(1, n) if gcd(d, n) == 1]


def twisted(rep, d):
    """sigma_d . rep: every generator exponent times d."""
    return representation(rep.spec, rep.modulus, [d * e for e in rep.generator_exponents])


def per_twist(c, rep):
    """The class by one elimination under ``rep``, None when not acyclic."""
    try:
        return reidemeister_torsion(c, rep)
    except NotAcyclicError:
        return None


def assert_orbit_matches(c, rep, twists=None):
    """The class under ``rep`` conjugated by each unit (or by each d in
    ``twists``) against one per-twist computation per d."""
    cls = per_twist(c, rep)
    twists = units(rep.modulus) if twists is None else twists
    classes = [None if cls is None else cls.conjugate(d) for d in twists]
    assert classes == [per_twist(c, twisted(rep, d)) for d in twists], rep
    return classes


def test_lens_complexes_at_every_unit_twist():
    for n in MODULI:
        spec = GroupSpec.cyclic(n)
        for q in sorted({1, 5 if n == 12 else 2, n - 1}):
            params = lens_params(n, q)
            c = lens_complex(params)
            classes = assert_orbit_matches(c, representation(spec, n, [1]))
            assert None not in classes
            assert [lens_torsion(params, d) for d in units(n)] == classes
            rows = lens_verdict(params, lens_params(n, 1)).sweep.rows
            assert [cls for _, cls, _ in rows] == classes


def test_lens_torsion_at_every_twist():
    """Units conjugate the class at d = 1, other d are computed directly,
    d = 0 with the NotAcyclicError of the direct path."""
    for n in (7, 12):
        spec = GroupSpec.cyclic(n)
        params = lens_params(n, 5)
        c = lens_complex(params)
        for d in (d for d in range(1, 2 * n) if d % n):
            expected = reidemeister_torsion(c, representation(spec, n, [d]))
            assert lens_torsion(params, d) == expected, d
        with pytest.raises(NotAcyclicError) as exc:
            lens_torsion(params, 0)
        assert (exc.value.degree, exc.value.defect) == (0, 1)


def test_free_product_sweep():
    for p in (7, 13, 31, 61):
        spec = GroupSpec.free_product([p, p])
        for q, q2 in ((1, 2), (2, p - 1)):
            rpt = free_product_scenario(p, q, q2)
            first = twisted_lens_cells(spec, 0, 1, p, modp_inverse(q, p))
            second = twisted_lens_cells(spec, 1, 1, p, modp_inverse(q2, p))
            assert rpt.sweep.reference == per_twist(second, representation(spec, p, [1, 1]))
            expected = [per_twist(first, representation(spec, p, [l, 1])) for l in units(p)]
            assert [cls for _, cls, _ in rpt.sweep.rows] == expected
            # [l, 1] and [l, l] agree on a complex over the first factor
            assert_orbit_matches(first, representation(spec, p, [1, 1]))


def test_scrambled_random_complexes():
    outcomes = []
    for n in MODULI:
        spec = GroupSpec.cyclic(n)
        rng = random.Random(800 + n)
        exponents = [1, 0] + [e for e in (2, 3) if gcd(e, n) != 1]
        # past n = 13 a per-twist elimination costs up to 50 ms: sample the units
        twists = None if n <= 13 else [1, n - 1] + rng.sample(units(n)[1:-1], 4)
        for _ in range(4):
            for c in (random_acyclic_complex(spec, rng, summands=3), random_group_complex(spec, rng)):
                for e in exponents + [rng.choice(units(n))]:
                    outcomes += assert_orbit_matches(c, representation(spec, n, [e]), twists)
    assert None in outcomes and any(outcomes)


def test_scrambled_free_product_complexes():
    spec = GroupSpec.free_product([7, 7])
    rng = random.Random(87)
    for _ in range(4):
        a = twisted_lens_cells(spec, 0, rng.randrange(1, 7), 7, rng.randrange(1, 7))
        b = twisted_lens_cells(spec, 1, rng.randrange(1, 7), 7, rng.randrange(1, 7))
        c = scramble(direct_sum(a, b), rng, steps=10)
        for e in ([1, 1], [1, 3], [1, 0], [0, 2], [0, 0]):
            classes = assert_orbit_matches(c, representation(spec, 7, e))
            assert (None in classes) == (0 in e)


def test_certificate_ends():
    for n in (7, 12, 13, 31):
        spec = GroupSpec.cyclic(n)
        reps = [representation(spec, n, [d]) for d in range(n)]
        for seed in range(2 if n == 31 else 3):
            cert = random_op_sequence(lens_complex(lens_params(n, 5)), 40, seed)
            fp = fingerprint(cert.end, reps)
            assert [rep for rep, _ in fp.entries] == reps
            assert [cls for _, cls in fp.entries] == [per_twist(cert.end, r) for r in reps]
            assert fp.entries[0][1] is None


def test_fingerprint_groups_user_reps_by_orbit(monkeypatch):
    """[1,3], [2,6] = sigma_2 [1,3] and [3,2] = sigma_3 [1,3] form one orbit;
    [1,0] and [0,0] one each: three eliminations for five reps."""
    spec = GroupSpec.free_product([7, 7])
    rng = random.Random(77)
    c = scramble(
        direct_sum(twisted_lens_cells(spec, 0, 1, 7, 2), twisted_lens_cells(spec, 1, 3, 7, 5)),
        rng,
        steps=10,
    )
    reps = [representation(spec, 7, e) for e in ([1, 3], [2, 6], [1, 0], [3, 2], [0, 0])]
    eliminations = []
    eliminate = torsion._torsion

    def counted(c, *args):
        eliminations.append(c)
        return eliminate(c, *args)

    monkeypatch.setattr(torsion, "_torsion", counted)
    fp = fingerprint(c, reps)
    assert len(eliminations) == 3
    monkeypatch.undo()
    assert [rep for rep, _ in fp.entries] == reps
    assert [cls for _, cls in fp.entries] == [per_twist(c, rep) for rep in reps]
    assert [cls is None for _, cls in fp.entries] == [False, False, True, False, True]


def test_default_reps_are_one_orbit(monkeypatch):
    spec = GroupSpec.free_product([13, 13])
    c = direct_sum(twisted_lens_cells(spec, 0, 1, 13, 2), twisted_lens_cells(spec, 1, 1, 13, 7))
    reps = [representation(spec, 13, [d, d]) for d in range(1, 7)]
    calls = []
    monkeypatch.setattr(
        torsion, "reidemeister_torsion", lambda *a: calls.append(a) or reidemeister_torsion(*a)
    )
    fp = fingerprint(c, reps)
    assert len(calls) == 1
    monkeypatch.undo()
    assert [cls for _, cls in fp.entries] == [per_twist(c, rep) for rep in reps]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_conjugation_commutes_with_field_torsion(data):
    """field_torsion(base_change(c, sigma_d . rho)) is sigma_d of
    field_torsion(base_change(c, rho)), sign included, or both raise the
    same NotAcyclicError; the conjugated class is that value's class."""
    n = data.draw(st.sampled_from([7, 12, 13]), label="n")
    spec = GroupSpec.cyclic(n)
    c = random_acyclic_complex(spec, random.Random(data.draw(st.integers(0, 10**6))), summands=3)
    rep = representation(spec, n, [data.draw(st.integers(0, n - 1), label="e")])
    d = data.draw(st.sampled_from(units(n)), label="d")
    try:
        value = field_torsion(base_change(c, rep))
    except NotAcyclicError as exc:
        with pytest.raises(NotAcyclicError) as twisted_exc:
            field_torsion(base_change(c, twisted(rep, d)))
        assert (twisted_exc.value.degree, twisted_exc.value.defect) == (exc.degree, exc.defect)
        return
    conjugated = galois_conjugate(value, d)
    assert field_torsion(base_change(c, twisted(rep, d))) == conjugated
    assert reidemeister_torsion(c, rep).conjugate(d) == torsion_class(conjugated, unit_subgroup(rep))

