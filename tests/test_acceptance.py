"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Everything is exact arithmetic; the whole suite is desk-scale.
"""
import random
from itertools import combinations
from math import gcd

from torsionkit.grouprings import (
    GroupSpec,
    ONE_ELEM,
    TRIVIAL_GROUP,
    augmentation,
    from_int,
    generator_elem,
    ring_sub,
)
from torsionkit.cyclofield import (
    cyclo_mul,
    cyclo_one,
    cyclo_pow,
    representation,
    torsion_class,
    unit_subgroup,
    zeta,
)
from torsionkit.chaincomplex import (
    base_change,
    based_complex,
    compose_chain_maps,
    direct_sum,
    homotopy_perturbation,
    identity_chain_map,
    integral_homology,
    scale_chain_map,
    shift,
    smith_normal_form,
    tensor_z_complexes,
    validate,
)
from torsionkit.torsion import (
    field_torsion,
    fingerprint,
    fingerprints_equivalent,
    reidemeister_torsion,
    torsion_of_map,
)
from torsionkit.simpleops import random_op_sequence
from torsionkit.lensspaces import (
    free_product_scenario,
    homotopy_equivalent,
    lens_complex,
    lens_params,
    lens_torsion,
    modp_inverse,
    simple_homotopy_equivalent,
    torsion_distinguish,
)

from helpers import (
    filtered_extension,
    iso_via_ops,
    random_acyclic_complex,
    random_acyclic_int_complex,
    random_elem,
    random_group_complex,
    random_int_complex,
    random_trivial_class_complex,
)

Z7 = GroupSpec.cyclic(7)
REP = representation(Z7, 7, [1])
REPS6 = [representation(Z7, 7, [d]) for d in range(1, 7)]
SWEEP_PRIMES = (5, 7, 11, 13, 17)


def _passed(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_lens_torsion_values():
    units = unit_subgroup(REP)
    one = cyclo_one(7)
    got_71 = reidemeister_torsion(lens_complex(lens_params(7, 1)), REP)
    assert got_71 == torsion_class(cyclo_pow(one - zeta(7), 2), units)
    got_72 = reidemeister_torsion(lens_complex(lens_params(7, 2)), REP)
    assert got_72 == torsion_class(cyclo_mul(one - zeta(7), one - zeta(7, 4)), units)
    _passed(1, "L(7,1) and L(7,2) torsion classes match the closed forms exactly")


def test_criterion_2_closed_form_sweep():
    checked = 0
    for p in SWEEP_PRIMES:
        spec = GroupSpec.cyclic(p)
        one = cyclo_one(p)
        for q in range(1, p):
            if gcd(q, p) != 1:
                continue
            r = modp_inverse(q, p)
            params = lens_params(p, q)
            for d in range(1, p):
                if gcd(d, p) != 1:
                    continue
                units = unit_subgroup(representation(spec, p, [d]))
                closed = cyclo_mul(one - zeta(p, (d * r) % p), one - zeta(p, d))
                assert lens_torsion(params, d) == torsion_class(closed, units), (p, q, d)
                checked += 1
    _passed(2, f"lens torsion equals (1-zeta^(dr))(1-zeta^d) on {checked} cases")


def test_criterion_3_classification_equivalence():
    discrepancies = 0
    pairs = 0
    for p in SWEEP_PRIMES:
        for q in range(1, p):
            for q2 in range(1, p):
                a, b = lens_params(p, q), lens_params(p, q2)
                td, _ = torsion_distinguish(a, b)
                # independent arithmetic: q2 in {+-q, +-q^-1} mod p
                qinv = pow(q, -1, p)
                arithmetically_simple = q2 % p in {
                    q % p,
                    (-q) % p,
                    qinv,
                    (-qinv) % p,
                }
                if td != (not arithmetically_simple):
                    discrepancies += 1
                pairs += 1
    assert discrepancies == 0
    _passed(3, f"torsion distinguishes exactly the non-(+-q^+-1) pairs ({pairs} pairs)")


def test_criterion_4_homotopy_but_not_simple_families():
    a, b = lens_params(7, 1), lens_params(7, 2)
    he, m = homotopy_equivalent(a, b)
    assert he and m is not None
    assert not simple_homotopy_equivalent(a, b)[0]
    for qa, qb in ((1, 2), (1, 4), (2, 4)):
        x, y = lens_params(17, qa), lens_params(17, qb)
        assert homotopy_equivalent(x, y)[0]
        assert not simple_homotopy_equivalent(x, y)[0]
    _passed(4, "L(7,1)~L(7,2) and the L(17,*) family: homotopy yes, simple no")


def test_criterion_5_free_product_brute_force():
    one = cyclo_one(7)
    second = cyclo_mul(one - zeta(7), one - zeta(7, 4))
    units = unit_subgroup(representation(GroupSpec.free_product([7, 7]), 7, [1, 1]))
    assert len(units.elements) == 14
    comparisons = 0
    for l in range(1, 7):
        first = cyclo_pow(one - zeta(7, l), 2)
        for w in units.elements:
            assert first != cyclo_mul(w, second), (l, w)
            comparisons += 1
    assert comparisons == 84
    # cross-check: the complex-level computation over Z[Z/7 * Z/7] agrees
    report = free_product_scenario(7, 1, 2)
    assert report.sweep.match_twist is None
    assert all(cls is not None and not same for _, cls, same in report.sweep.rows)
    _passed(5, f"(1-zeta^l)^2 != unit*(1-zeta)(1-zeta^4), all {comparisons} comparisons")


def test_criterion_6_simple_op_invariance():
    rng = random.Random(2024)
    bases = [
        lens_complex(lens_params(7, 1)),
        lens_complex(lens_params(7, 2)),
        lens_complex(lens_params(7, 3)),
    ]
    bases += [random_acyclic_complex(Z7, rng, summands=3) for _ in range(5)]
    base_fps = [fingerprint(c, REPS6) for c in bases]
    certificates = 500
    failures = 0
    for i in range(certificates):
        k = i % len(bases)
        length = rng.randint(0, 100)
        cert = random_op_sequence(bases[k], length, seed=10_000 + i)
        assert cert.ops or cert.start == cert.end
        if not fingerprints_equivalent(base_fps[k], fingerprint(cert.end, REPS6)):
            failures += 1
    assert failures == 0
    _passed(6, f"{certificates} certificates (length <= 100): fingerprints identical")


def test_criterion_7_multiplicativity_and_filtration():
    rng = random.Random(7_000)
    pairs = 200
    for _ in range(pairs):
        a = random_acyclic_complex(Z7, rng, summands=2)
        b = random_acyclic_complex(Z7, rng, summands=2)
        ta = field_torsion(base_change(a, REP))
        tb = field_torsion(base_change(b, REP))
        ts = field_torsion(base_change(direct_sum(a, b), REP))
        prod = cyclo_mul(ta, tb)
        assert ts == prod or ts == -prod  # equality in reduced K_1
    filtrations = 200
    for i in range(filtrations):
        a = random_trivial_class_complex(Z7, rng, summands=2)
        b = random_trivial_class_complex(Z7, rng, summands=2)
        total = filtered_extension(a, b, rng)
        if i % 5 == 0:
            total = filtered_extension(
                total, random_trivial_class_complex(Z7, rng, summands=1), rng
            )
        assert reidemeister_torsion(total, REP).is_trivial()
        assert reidemeister_torsion(total, REPS6[3]).is_trivial()
    _passed(7, f"{pairs} direct sums multiplicative; {filtrations} filtered complexes trivial")


def test_criterion_8_tensor_lemmas():
    rng = random.Random(8_000)
    instances = 200
    test_reps = (REPS6[0], REPS6[2], REPS6[4])
    for _ in range(instances):
        # acyclic over Z, base-changed to Z[G]
        ci = random_acyclic_int_complex(rng)
        lifted = based_complex(Z7, ci.min_degree, ci.ranks, ci.differentials, ci.labels)
        for rep in test_reps:
            assert reidemeister_torsion(lifted, rep).is_trivial()
    for _ in range(instances):
        # acyclic over Z tensor an arbitrary complex over Z[G]
        a = random_acyclic_int_complex(rng)
        d = random_group_complex(Z7, rng)
        t = tensor_z_complexes(a, d)
        for rep in test_reps:
            assert reidemeister_torsion(t, rep).is_trivial()
    for _ in range(instances):
        # arbitrary complex over Z tensor a trivial-class acyclic complex
        c = random_int_complex(rng)
        d = random_trivial_class_complex(Z7, rng)
        t = tensor_z_complexes(c, d)
        for rep in test_reps:
            assert reidemeister_torsion(t, rep).is_trivial()
    _passed(8, f"3 x {instances} tensor-lemma instances all have trivial class")


def test_criterion_9_quasi_isomorphism_calculus():
    rng = random.Random(9_000)
    for c in (lens_complex(lens_params(7, 2)), random_acyclic_complex(Z7, rng)):
        assert torsion_of_map(identity_chain_map(c), REP).is_trivial()
    pool = [
        ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 1)),
        ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 3)),
        ring_sub(Z7, from_int(2), generator_elem(Z7, 0, 2)),
        generator_elem(Z7, 0, 5),
    ]
    compositions = 100
    for _ in range(compositions):
        c = (
            random_acyclic_complex(Z7, rng, summands=2)
            if rng.random() < 0.5
            else lens_complex(lens_params(7, rng.choice([1, 2, 3])))
        )
        iso1, c1 = iso_via_ops(c, rng, steps=3)
        f = scale_chain_map(iso1, rng.choice(pool))
        iso2, _ = iso_via_ops(c1, rng, steps=3)
        g = scale_chain_map(iso2, rng.choice(pool))
        assert torsion_of_map(compose_chain_maps(g, f), REP) == torsion_of_map(
            g, REP
        ) * torsion_of_map(f, REP)
    perturbations = 100
    for _ in range(perturbations):
        c = lens_complex(lens_params(7, rng.choice([1, 2, 4])))
        f = scale_chain_map(identity_chain_map(c), rng.choice(pool))
        h = {
            i: tuple(
                tuple(random_elem(Z7, rng) for _ in range(c.rank(i)))
                for _ in range(c.rank(i - 1))
            )
            for i in c.degrees
        }
        assert torsion_of_map(homotopy_perturbation(f, h), REP) == torsion_of_map(f, REP)
    _passed(
        9,
        f"tau(id)=1; {compositions} compositions multiplicative; "
        f"{perturbations} homotopy perturbations invariant",
    )


def test_criterion_10_shift_inversion():
    rng = random.Random(10_000)
    cases = 100
    for _ in range(cases):
        c = random_acyclic_complex(Z7, rng)
        t = reidemeister_torsion(c, REP)
        assert reidemeister_torsion(shift(c, 1), REP) == t.inverse()
    _passed(10, f"{cases} complexes satisfy class(C[1]) = class(C)^-1")


def _minors_gcd_oracle(m):
    def det(sub):
        n = len(sub)
        if n == 0:
            return 1
        if n == 1:
            return sub[0][0]
        total = 0
        for j in range(n):
            if sub[0][j]:
                minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
                total += (-1) ** j * sub[0][j] * det(minor)
        return total

    rows, cols = len(m), len(m[0])
    factors, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for ri in combinations(range(rows), k):
            for ci in combinations(range(cols), k):
                g = gcd(g, det([[m[r][c] for c in ci] for r in ri]))
        if g == 0:
            break
        factors.append(g // prev)
        prev = g
    return tuple(factors)


def test_criterion_11_integral_oracle():
    for p in SWEEP_PRIMES:
        c = lens_complex(lens_params(p, p - 1 if p > 2 else 1))
        collapsed = based_complex(
            TRIVIAL_GROUP,
            c.min_degree,
            c.ranks,
            [
                tuple(tuple(from_int(augmentation(x)) for x in row) for row in m)
                for m in c.differentials
            ],
        )
        validate(collapsed)
        assert integral_homology(collapsed) == {
            0: (1, ()),
            1: (0, ()),
            2: (0, (p,)),
            3: (1, ()),
        }
    rng = random.Random(11_000)
    matrices = 200
    for _ in range(matrices):
        m = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        assert smith_normal_form(m) == _minors_gcd_oracle(m), m
    _passed(11, f"lens homology (Z, Z/p, 0, Z) for the p-sweep; SNF = oracle on {matrices} matrices")
