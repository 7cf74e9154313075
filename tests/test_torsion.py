import json
import random
from fractions import Fraction
from functools import reduce
from itertools import combinations
from pathlib import Path

import pytest

from torsionkit.grouprings import (
    GroupSpec,
    ONE_ELEM,
    from_int,
    generator_elem,
    ring_sub,
)
from torsionkit.cyclofield import (
    cyclo_fraction,
    cyclo_from_nums,
    cyclo_int,
    cyclo_inv,
    cyclo_mul,
    cyclo_one,
    cyclo_zero,
    cyclo_pow,
    evaluate_rep,
    rep_vector,
    representation,
    terms_mul_sub,
    torsion_class,
    unit_subgroup,
    zeta,
)
from torsionkit.chaincomplex import (
    FieldComplex,
    ShapeMismatchError,
    SpecMismatchError,
    base_change,
    based_complex,
    complex_from_obj,
    direct_sum,
    homotopy_perturbation,
    identity_chain_map,
    compose_chain_maps,
    mapping_cone,
    scale_chain_map,
    shift,
    tensor_z_complexes,
    two_term_complex,
    validate,
    validate_field,
)
from torsionkit import torsion as torsion_module
from torsionkit.torsion import (
    EntryLimitError,
    NotAcyclicError,
    field_torsion,
    fingerprint,
    fingerprints_equivalent,
    reidemeister_torsion,
    torsion_of_map,
)
from torsionkit.simpleops import DeckTransform, apply_op, random_op_sequence
from torsionkit.lensspaces import lens_complex, lens_params

import helpers
from helpers import (
    cyclo_mul_sub,
    filtered_extension,
    iso_via_ops,
    random_acyclic_complex,
    random_acyclic_int_complex,
    random_elem,
    random_group_complex,
    random_int_complex,
    random_trivial_class_complex,
    random_word,
    right_looking_eliminate,
    scramble,
    twisted_lens_cells,
)

GOLDEN = Path(__file__).parent / "golden"
Z7 = GroupSpec.cyclic(7)
REP = representation(Z7, 7, [1])
REPS = [representation(Z7, 7, [d]) for d in range(1, 7)]
UNITS = unit_subgroup(REP)


def one_minus_zeta(k=1):
    return cyclo_one(7) - zeta(7, k)


class TestFieldTorsion:
    def test_single_nonzero_map_gives_its_entry(self):
        a = ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 3))
        fc = base_change(two_term_complex(Z7, 0, a), REP)
        assert field_torsion(fc) == one_minus_zeta(3)

    def test_lens_72_value_is_the_closed_form(self):
        fc = base_change(lens_complex(lens_params(7, 2)), REP)
        assert field_torsion(fc) == cyclo_mul(one_minus_zeta(4), one_minus_zeta(1))

    def test_not_acyclic_reports_degree_and_defect(self):
        c = lens_complex(lens_params(7, 2))
        with pytest.raises(NotAcyclicError) as exc:
            field_torsion(base_change(c, representation(Z7, 7, [0])))
        assert exc.value.degree == 0 and exc.value.defect == 1

    def test_empty_complex_has_torsion_one(self):
        fc = base_change(based_complex(Z7, 0, (0,), []), REP)
        assert field_torsion(fc) == cyclo_one(7)

    def test_pivot_choice_independence(self):
        rng = random.Random(51)
        for _ in range(30):
            c = random_acyclic_complex(Z7, rng)
            fc = base_change(c, REP)
            assert field_torsion(fc, "first") == field_torsion(fc, "last")

    def test_value_matches_construction_oracle(self):
        # independent oracle: a plain sum of two-term blocks [x_k] at degree
        # pairs (d_k, d_k+1) has torsion prod rho(x_k)^((-1)^(d_k)); slides
        # never change the raw value (unit-determinant base change), decks
        # move it by exactly one unit factor
        from torsionkit.cyclofield import cyclo_inv, evaluate_rep
        from torsionkit.simpleops import HandleSlide, apply_op
        from helpers import unit_after_base_change_elem, random_word
        from torsionkit.grouprings import elem_from_dict

        rng = random.Random(211)
        for _ in range(25):
            blocks = [
                (rng.randint(-2, 2), unit_after_base_change_elem(Z7, rng))
                for _ in range(rng.randint(1, 4))
            ]
            c = two_term_complex(Z7, blocks[0][0], blocks[0][1])
            for d, x in blocks[1:]:
                c = direct_sum(c, two_term_complex(Z7, d, x))
            expected = cyclo_one(7)
            for d, x in blocks:
                img = evaluate_rep(REP, x)
                expected = cyclo_mul(
                    expected, img if d % 2 == 0 else cyclo_inv(img)
                )
            got = field_torsion(base_change(c, REP))
            assert got == expected or got == -expected
            # slides leave the raw value fixed (not only the class)
            slid = c
            for _ in range(6):
                degs = [d for d in slid.degrees if slid.rank(d) >= 2]
                if not degs:
                    break
                d = rng.choice(degs)
                a, b = rng.sample(range(slid.rank(d)), 2)
                coeff = elem_from_dict(
                    {random_word(Z7, rng, True): rng.choice([-2, -1, 1, 2])}
                )
                slid = apply_op(slid, HandleSlide(d, a, b, coeff))
            assert field_torsion(base_change(slid, REP)) == got

    def test_deck_moves_value_by_one_unit(self):
        from torsionkit.cyclofield import cyclo_inv

        rng = random.Random(223)
        units = unit_subgroup(REP)
        for _ in range(20):
            c = random_acyclic_complex(Z7, rng, summands=2)
            before = field_torsion(base_change(c, REP))
            degs = [d for d in c.degrees if c.rank(d)]
            d = rng.choice(degs)
            w = random_word(Z7, rng)
            after = field_torsion(
                base_change(c=apply_op(c, DeckTransform(d, 0, w)), rep=REP)
            )
            ratio = cyclo_mul(after, cyclo_inv(before))
            assert ratio in units.elements

    def test_multiplicative_under_direct_sum(self):
        rng = random.Random(53)
        for _ in range(40):
            a = random_acyclic_complex(Z7, rng, summands=2)
            b = random_acyclic_complex(Z7, rng, summands=2)
            ta = field_torsion(base_change(a, REP))
            tb = field_torsion(base_change(b, REP))
            ts = field_torsion(base_change(direct_sum(a, b), REP))
            prod = cyclo_mul(ta, tb)
            # equality in reduced K_1, i.e. up to the basis-ordering sign
            assert ts == prod or ts == -prod


class TestReidemeisterTorsion:
    def test_lens_values(self):
        got = reidemeister_torsion(lens_complex(lens_params(7, 1)), REP)
        assert got == torsion_class(cyclo_pow(one_minus_zeta(), 2), UNITS)
        got = reidemeister_torsion(lens_complex(lens_params(7, 2)), REP)
        assert got == torsion_class(
            cyclo_mul(one_minus_zeta(), one_minus_zeta(4)), UNITS
        )

    def test_integral_acyclic_lift_has_trivial_class(self):
        rng = random.Random(59)
        for _ in range(20):
            ci = random_acyclic_int_complex(rng)
            lifted = based_complex(
                Z7, ci.min_degree, ci.ranks, ci.differentials, ci.labels
            )
            validate(lifted)
            for rep in REPS[:3]:
                assert reidemeister_torsion(lifted, rep).is_trivial()

    def test_shift_inverts_the_class(self):
        rng = random.Random(61)
        for _ in range(30):
            c = random_acyclic_complex(Z7, rng)
            t = reidemeister_torsion(c, REP)
            assert reidemeister_torsion(shift(c, 1), REP) == t.inverse()

    def test_deck_transform_leaves_class_unchanged(self):
        rng = random.Random(67)
        for _ in range(25):
            c = random_acyclic_complex(Z7, rng)
            t = reidemeister_torsion(c, REP)
            degs = [d for d in c.degrees if c.rank(d)]
            d = rng.choice(degs)
            moved = apply_op(
                c, DeckTransform(d, rng.randrange(c.rank(d)), random_word(Z7, rng))
            )
            assert reidemeister_torsion(moved, REP) == t


class TestFiltration:
    def test_filtered_complexes_with_trivial_pieces_are_trivial(self):
        rng = random.Random(71)
        for _ in range(30):
            a = random_trivial_class_complex(Z7, rng, summands=2)
            b = random_trivial_class_complex(Z7, rng, summands=2)
            total = filtered_extension(a, b, rng)
            validate(total)
            if rng.random() < 0.3:
                total = filtered_extension(
                    total, random_trivial_class_complex(Z7, rng, summands=1), rng
                )
            assert reidemeister_torsion(total, REP).is_trivial()

    def test_filtered_extension_multiplies_classes(self):
        rng = random.Random(73)
        for _ in range(20):
            a = random_acyclic_complex(Z7, rng, summands=2)
            b = random_acyclic_complex(Z7, rng, summands=2)
            total = filtered_extension(a, b, rng)
            validate(total)
            ta = reidemeister_torsion(a, REP)
            tb = reidemeister_torsion(b, REP)
            assert reidemeister_torsion(total, REP) == ta * tb


class TestTensorLemmas:
    def test_integral_acyclic_tensor_anything_is_trivial(self):
        rng = random.Random(79)
        for _ in range(25):
            a = random_acyclic_int_complex(rng)
            d = random_group_complex(Z7, rng)
            t = tensor_z_complexes(a, d)
            validate(t)
            for rep in (REP, REPS[2]):
                assert reidemeister_torsion(t, rep).is_trivial()

    def test_anything_tensor_trivial_class_is_trivial(self):
        rng = random.Random(83)
        for _ in range(25):
            c = random_int_complex(rng)
            d = random_trivial_class_complex(Z7, rng)
            t = tensor_z_complexes(c, d)
            validate(t)
            for rep in (REP, REPS[4]):
                assert reidemeister_torsion(t, rep).is_trivial()


class TestQuasiIsomorphisms:
    def test_identity_has_trivial_torsion(self):
        for c in (lens_complex(lens_params(7, 2)),
                  random_acyclic_complex(Z7, random.Random(0))):
            assert torsion_of_map(identity_chain_map(c), REP).is_trivial()

    def test_cone_of_identity_acyclic_under_every_test_rep(self):
        rng = random.Random(3)
        for c in (lens_complex(lens_params(7, 1)), random_group_complex(Z7, rng)):
            for rep in REPS:
                assert torsion_of_map(identity_chain_map(c), rep).is_trivial()

    def test_composition_multiplies_torsion(self):
        rng = random.Random(89)
        pool = [
            ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 1)),
            ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, 3)),
            ring_sub(Z7, from_int(2), generator_elem(Z7, 0, 2)),
        ]
        for _ in range(30):
            c = random_acyclic_complex(Z7, rng, summands=2) if rng.random() < 0.5 \
                else lens_complex(lens_params(7, rng.choice([1, 2, 3])))
            iso1, c1 = iso_via_ops(c, rng, steps=3)
            f = scale_chain_map(iso1, rng.choice(pool))
            iso2, _ = iso_via_ops(c1, rng, steps=3)
            g = scale_chain_map(iso2, rng.choice(pool))
            tf = torsion_of_map(f, REP)
            tg = torsion_of_map(g, REP)
            assert torsion_of_map(compose_chain_maps(g, f), REP) == tg * tf

    def test_simple_isos_have_trivial_torsion(self):
        rng = random.Random(97)
        for _ in range(15):
            c = random_acyclic_complex(Z7, rng, summands=2)
            iso, _ = iso_via_ops(c, rng, steps=4)
            assert torsion_of_map(iso, REP).is_trivial()

    def test_homotopy_perturbation_preserves_torsion(self):
        rng = random.Random(101)
        for _ in range(30):
            c = lens_complex(lens_params(7, rng.choice([1, 2, 4])))
            x = ring_sub(Z7, ONE_ELEM, generator_elem(Z7, 0, rng.randint(1, 6)))
            f = scale_chain_map(identity_chain_map(c), x)
            h = {
                i: tuple(
                    tuple(random_elem(Z7, rng) for _ in range(c.rank(i)))
                    for _ in range(c.rank(i - 1))
                )
                for i in c.degrees
            }
            g = homotopy_perturbation(f, h)
            assert torsion_of_map(g, REP) == torsion_of_map(f, REP)


class TestFingerprints:
    def test_lens_fingerprint_is_the_twist_family(self):
        fp = fingerprint(lens_complex(lens_params(7, 1)), REPS)
        for (rep, cls), d in zip(fp.entries, range(1, 7)):
            expected = torsion_class(
                cyclo_pow(one_minus_zeta(d), 2), unit_subgroup(rep)
            )
            assert cls == expected

    def test_trivial_complex_has_all_one_fingerprint(self):
        c = random_trivial_class_complex(Z7, random.Random(5))
        fp = fingerprint(c, REPS)
        assert all(cls is not None and cls.is_trivial() for _, cls in fp.entries)

    def test_not_acyclic_entries_are_marked(self):
        reps = [representation(Z7, 7, [0])] + REPS[:2]
        fp = fingerprint(lens_complex(lens_params(7, 1)), reps)
        assert fp.entries[0][1] is None
        assert fp.entries[1][1] is not None

    def test_twist_matchings_separate_lens_complexes(self):
        # a twist t -> t^e is a representation: entry d of the first
        # fingerprint is compared with the second complex under t -> zeta^(d*e)
        def matched_by_some_twist(a, b):
            fa = fingerprint(a, REPS)
            for e in range(1, 7):
                fb = fingerprint(b, [REPS[(d * e) % 7 - 1] for d in range(1, 7)])
                if fingerprints_equivalent(fa, fb):
                    return e
            return None

        l71, l72, l76 = (lens_complex(lens_params(7, q)) for q in (1, 2, 6))
        assert matched_by_some_twist(l71, l72) is None
        assert matched_by_some_twist(l71, l76) is not None
        assert matched_by_some_twist(l71, l71) == 1

    def test_equivalence_checks_matching(self):
        fp = fingerprint(lens_complex(lens_params(7, 1)), REPS)
        assert fingerprints_equivalent(fp, fp)
        with pytest.raises(ShapeMismatchError):
            fingerprints_equivalent(fp, fingerprint(lens_complex(lens_params(7, 1)), REPS[:5]))

    def test_distinct_reps_required(self):
        with pytest.raises(ValueError):
            fingerprint(lens_complex(lens_params(7, 1)), [REP, REP])

    def test_orbit_refuses_non_unit_twists(self):
        spec = GroupSpec.cyclic(12)
        cls = reidemeister_torsion(lens_complex(lens_params(12, 5)), representation(spec, 12, [1]))
        for d in (0, 2, 3, 6):
            with pytest.raises(ValueError):
                cls.conjugate(d)


def _reference_pivot_columns(mat, rows, cols, scan):
    if rows == 0 or cols == 0:
        return []
    work = [list(row) for row in mat]
    pivots = []
    free = list(range(rows))
    for j in scan:
        pr = next((r for r in free if work[r][j]), None)
        if pr is None:
            continue
        pivots.append(j)
        free = [r for r in free if r != pr]
        p = work[pr][j]
        for r in free:
            f = work[r][j]
            if f:
                wr, wp = work[r], work[pr]
                work[r] = [p * wr[c] - f * wp[c] for c in range(cols)]
        if not free:
            break
    return pivots


def _reference_ff_det(rows_mat, n):
    size = len(rows_mat)
    one = cyclo_one(n)
    if size == 0:
        return one, one
    work = [list(r) for r in rows_mat]
    sign, scale = 1, one
    for k in range(size):
        pr = next((r for r in range(k, size) if work[r][k]), None)
        if pr is None:
            return cyclo_zero(n), one
        if pr != k:
            work[k], work[pr] = work[pr], work[k]
            sign = -sign
        p = work[k][k]
        for r in range(k + 1, size):
            f = work[r][k]
            if f:
                wr, wk = work[r], work[k]
                work[r] = [cyclo_zero(n)] * (k + 1) + [
                    p * wr[c] - f * wk[c] for c in range(k + 1, size)
                ]
                scale = cyclo_mul(scale, p)
    num = one
    for k in range(size):
        num = cyclo_mul(num, work[k][k])
    return (-num if sign < 0 else num), scale


def reference_field_torsion(fc, pivot_strategy="first"):
    """Two eliminations per degree: pivot columns of every d_i, then the
    determinant of the dim x dim matrix (pivot columns of d_{i-1}, unit
    columns e_j for the pivots of d_i).  The construction the minor form of
    field_torsion replaced, kept as its reference."""
    n = fc.modulus
    lo, hi = fc.min_degree, fc.max_degree
    scan = {
        "first": lambda k: list(range(k)),
        "last": lambda k: list(range(k - 1, -1, -1)),
    }[pivot_strategy]
    pivots = {
        i: _reference_pivot_columns(fc.diff(i), fc.rank(i + 1), fc.rank(i), scan(fc.rank(i)))
        for i in range(lo - 1, hi + 1)
    }
    for i in range(lo, hi + 1):
        defect = fc.rank(i) - len(pivots[i]) - len(pivots[i - 1])
        if defect != 0:
            raise NotAcyclicError(i, defect)
    num_acc, den_acc = cyclo_one(n), cyclo_one(n)
    zero, one = cyclo_zero(n), cyclo_one(n)
    for i in range(lo, hi + 1):
        dim = fc.rank(i)
        if dim == 0:
            continue
        prev = fc.diff(i - 1)
        columns = [[prev[r][j] for r in range(dim)] for j in pivots[i - 1]]
        for j in pivots[i]:
            columns.append([one if r == j else zero for r in range(dim)])
        num, den = _reference_ff_det(
            [[columns[c][r] for c in range(dim)] for r in range(dim)], n
        )
        if i % 2:
            num_acc, den_acc = cyclo_mul(num_acc, num), cyclo_mul(den_acc, den)
        else:
            num_acc, den_acc = cyclo_mul(num_acc, den), cyclo_mul(den_acc, num)
    return cyclo_mul(num_acc, cyclo_inv(den_acc))


def torsion_outcome(fn, fc, strategy):
    """The value, or ("NOT_ACYCLIC", degree, defect)."""
    try:
        return fn(fc, strategy)
    except NotAcyclicError as exc:
        return ("NOT_ACYCLIC", exc.degree, exc.defect)


def assert_matches_reference(c, rep, strategy):
    """field_torsion against the two-elimination reference, and
    reidemeister_torsion, which evaluates entries as the scan reads them,
    against the class of field_torsion over the whole base change."""
    fc = base_change(c, rep)
    got = torsion_outcome(field_torsion, fc, strategy)
    assert got == torsion_outcome(reference_field_torsion, fc, strategy)
    cls = torsion_outcome(reidemeister_torsion, c, rep)
    assert cls == (got if isinstance(got, tuple) else torsion_class(got, unit_subgroup(rep)))
    return got


FP77 = GroupSpec.free_product([7, 7])


@pytest.mark.parametrize("strategy", ["first", "last"])
class TestMinorFormMatchesReference:
    """field_torsion (one minor per degree) against the two-elimination
    construction it replaced: equal values, and the same NOT_ACYCLIC degree
    and defect, under either pivot strategy."""

    @pytest.mark.parametrize("n", [7, 13])
    def test_scrambled_random_complexes(self, n, strategy):
        spec = GroupSpec.cyclic(n)
        rng = random.Random(300 + n)
        for _ in range(12):
            c = random_acyclic_complex(spec, rng, summands=4)
            for d in (0, 1, rng.randrange(2, n)):
                assert_matches_reference(c, representation(spec, n, [d]), strategy)

    @pytest.mark.parametrize("n", [7, 13])
    def test_lens_complexes_at_every_twist(self, n, strategy):
        spec = GroupSpec.cyclic(n)
        for q in (1, 2, n - 1):
            c = lens_complex(lens_params(n, q))
            outcomes = [
                assert_matches_reference(c, representation(spec, n, [d]), strategy)
                for d in range(n)
            ]
            assert outcomes[0] == ("NOT_ACYCLIC", 0, 1)
            assert not any(isinstance(o, tuple) for o in outcomes[1:])

    def test_free_product_lens_cells(self, strategy):
        rng = random.Random(17)
        reps = [representation(FP77, 7, e) for e in ([1, 1], [0, 1], [3, 0], [2, 5])]
        for factor in (0, 1):
            for twist in range(7):
                c = twisted_lens_cells(FP77, factor, twist, 7, 4)
                for rep in reps:
                    assert_matches_reference(c, rep, strategy)
        for _ in range(4):
            a = twisted_lens_cells(FP77, 0, rng.randrange(1, 7), 7, rng.randrange(1, 7))
            b = twisted_lens_cells(FP77, 1, rng.randrange(1, 7), 7, rng.randrange(1, 7))
            c = scramble(direct_sum(a, b), rng, steps=10)
            for rep in reps:
                assert_matches_reference(c, rep, strategy)

    @pytest.mark.parametrize("n", [7, 13])
    def test_certificate_ends(self, n, strategy):
        spec = GroupSpec.cyclic(n)
        for seed in range(4):
            cert = random_op_sequence(lens_complex(lens_params(n, 2)), 60, seed)
            for d in range(n):
                assert_matches_reference(cert.end, representation(spec, n, [d]), strategy)

    @pytest.mark.parametrize("n", [7, 13])
    def test_mapping_cones(self, n, strategy):
        for cone, rep in mapping_cone_cases(n):
            assert_matches_reference(cone, rep, strategy)


class TestEntriesReadAsScanned:
    """reidemeister_torsion builds no base change: it evaluates an entry
    when the elimination's scan reaches its column."""

    def test_cone_evaluates_fewer_entries_than_it_holds(self, monkeypatch):
        def nonzero(c):
            return sum(bool(x) for m in c.differentials for row in m for x in row)

        cone, rep = max(
            ((c, r) for c, r in mapping_cone_cases(7) if r.generator_exponents == (1,)),
            key=lambda case: nonzero(case[0]),
        )
        calls = []

        def counted(rep, x):
            calls.append(x)
            return rep_vector(rep, x)

        monkeypatch.setattr(torsion_module, "rep_vector", counted)
        got = reidemeister_torsion(cone, rep)
        assert 0 < len(calls) < nonzero(cone)
        assert all(calls)
        assert got == torsion_class(field_torsion(base_change(cone, rep)), unit_subgroup(rep))

    def test_entries_read_as_vectors_match_the_base_change(self):
        """Entries read straight into integer vectors give the class of
        field_torsion over the whole base change, on the mapping cones and
        on the growth input, or the same NotAcyclicError."""
        growth = complex_from_obj(json.loads((GOLDEN / "growth13.json").read_text(encoding="utf-8")))
        cases = [*mapping_cone_cases(7), *mapping_cone_cases(13)]
        cases += [(growth, representation(growth.spec, 13, [d])) for d in (0, 1, 2)]
        for c, rep in cases:
            got = torsion_outcome(reidemeister_torsion, c, rep)
            want = torsion_outcome(field_torsion, base_change(c, rep), "first")
            assert got == (want if isinstance(want, tuple) else torsion_class(want, unit_subgroup(rep)))

    def test_rep_for_another_group_is_refused(self):
        c = lens_complex(lens_params(7, 2))
        rep = representation(GroupSpec.cyclic(13), 13, [1])
        with pytest.raises(SpecMismatchError, match="^representation is for a different group$"):
            reidemeister_torsion(c, rep)


def mapping_cone_cases(n):
    """Cones of scaled chain isomorphisms over Z/n, three reps each."""
    spec = GroupSpec.cyclic(n)
    rng = random.Random(400 + n)
    pool = [
        ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 1)),
        ring_sub(spec, from_int(2), generator_elem(spec, 0, 2)),
    ]
    for _ in range(6):
        c = random_acyclic_complex(spec, rng, summands=2)
        iso, _ = iso_via_ops(c, rng, steps=3)
        cone = mapping_cone(scale_chain_map(iso, rng.choice(pool)))
        for d in (0, 1, rng.randrange(2, n)):
            yield cone, representation(spec, n, [d])


FIELD_MODULI = [1, 2, 7, 12, 13, 15]


def fraction_entry(n, rng, zero_share=0.3):
    """Zero, or a sum of one or two terms q*zeta^k whose q mostly has a
    denominator above 1."""
    if rng.random() < zero_share:
        return cyclo_zero(n)
    x = cyclo_zero(n)
    for _ in range(rng.randint(1, 2)):
        q = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 2, 3, 5]))
        x = x + cyclo_fraction(n, q) * zeta(n, rng.randrange(n))
    return x


def cofactor_det(rows, n):
    """Laplace expansion along the first row: no elimination, no division."""
    if not rows:
        return cyclo_one(n)
    total = cyclo_zero(n)
    for j, a in enumerate(rows[0]):
        if a:
            term = a * cofactor_det([r[:j] + r[j + 1:] for r in rows[1:]], n)
            total = total - term if j % 2 else total + term
    return total


def pivot_product(factors, n):
    return reduce(cyclo_mul, (cyclo_pow(p, e) for p, e in factors), cyclo_one(n))


def has_denominator(rows) -> bool:
    return any(x.den > 1 for row in rows for x in row)


def pivot_power_cases(n):
    """Matrices over Q(zeta_n) with denominators, some with a dependent
    row, each under both scans and on all rows and on a row subset:
    (mat, scan, rows) triples."""
    rng = random.Random(900 + n)
    shapes = [(1, 1), (2, 2), (3, 3), (4, 4), (2, 4), (3, 5), (4, 2), (5, 3)]
    for rows, cols in shapes * 3:
        mat = [[fraction_entry(n, rng) for _ in range(cols)] for _ in range(rows)]
        if rows >= 3 and rng.random() < 0.5:  # a dependent row
            s, t = cyclo_fraction(n, Fraction(rng.choice([-2, 1, 3]), 2)), fraction_entry(n, rng, 0)
            mat[-1] = [s * a + t * b for a, b in zip(mat[0], mat[1])]
        for scan in (list(range(cols)), list(range(cols - 1, -1, -1))):
            for subset in (list(range(rows)), sorted(rng.sample(range(rows), max(1, rows - 1)))):
                yield mat, scan, subset


def as_pair(x):
    """A value as the (numerators, denominator) pair _eliminate reads."""
    return x.nums, x.den


@pytest.fixture()
def mul_sub_calls(monkeypatch):
    """Counts the update steps p*a - f*b of the elimination (each a
    terms_mul_sub call) and of its right-looking reference (each a
    cyclo_mul_sub call) alike."""
    calls = [0]

    def counted(update):
        def step(*args):
            calls[0] += 1
            return update(*args)

        return step

    monkeypatch.setattr(torsion_module, "terms_mul_sub", counted(terms_mul_sub))
    monkeypatch.setattr(helpers, "cyclo_mul_sub", counted(cyclo_mul_sub))
    return calls


left_looking_eliminate = torsion_module._eliminate


def compare_with_right_looking(mul_sub_calls, mat, rows, scan, n, entry):
    """Both eliminations of ``mat`` on ``rows``: equal results, and no more
    update steps for the left-looking one.  Returns its result and the two
    step counts."""
    before = mul_sub_calls[0]
    got = left_looking_eliminate(mat, rows, scan, n, entry)
    left = mul_sub_calls[0] - before
    read = [[cyclo_from_nums(n, *entry(x)) for x in row] for row in mat]
    assert got == right_looking_eliminate(read, rows, scan)
    right = mul_sub_calls[0] - before - left
    assert left <= right
    return got, left, right


class TestPivotPowers:
    """When every row it is given becomes a pivot row, _eliminate returns
    the minor on its pivot rows and columns as the product of p^(1 - k)
    over its pivots p, k the rows each one updated."""

    @pytest.mark.parametrize("n", FIELD_MODULI)
    def test_product_is_the_cofactor_minor(self, n):
        seen_denominator, full = False, 0
        for mat, scan, subset in pivot_power_cases(n):
            seen_denominator |= has_denominator(mat)
            cols = len(mat[0])
            pcols, prows, factors = torsion_module._eliminate(mat, subset, scan, n, as_pair)
            minor = cofactor_det([[mat[r][c] for c in pcols] for r in prows], n)
            assert minor, "pivots must pick a nonsingular minor"
            assert all(e and p for p, e in factors)
            if len(prows) == len(subset):
                assert pivot_product(factors, n) == minor
                full += 1
            else:  # no larger minor is nonsingular
                size = len(prows) + 1
                for rs in combinations(subset, size):
                    for cs in combinations(range(cols), size):
                        assert not cofactor_det([[mat[r][c] for c in cs] for r in rs], n)
        assert seen_denominator and full >= 40

    @pytest.mark.parametrize("n", FIELD_MODULI)
    def test_left_looking_matches_the_right_looking_reference(self, n, mul_sub_calls):
        """The same pivot columns, pivot rows and factors as the
        elimination that updates every later column at each step, with the
        same sparsest-pivot rule, from no more update steps."""
        for mat, scan, subset in pivot_power_cases(n):
            compare_with_right_looking(mul_sub_calls, mat, subset, scan, n, as_pair)

    def test_cones_skip_the_columns_past_the_last_pivot(self, mul_sub_calls, monkeypatch):
        """Every elimination of the mapping cones, under both scans,
        matches the reference; over all of them the left-looking one makes
        fewer products, as the cone's d_C and d_D columns come after the
        last pivot."""
        totals = [0, 0]

        def both(mat, rows, scan, n, entry):
            got, left, right = compare_with_right_looking(mul_sub_calls, mat, rows, scan, n, entry)
            totals[0] += left
            totals[1] += right
            return got

        monkeypatch.setattr(torsion_module, "_eliminate", both)
        for strategy in ("first", "last"):
            for n in (7, 13):
                for cone, rep in mapping_cone_cases(n):
                    torsion_outcome(field_torsion, base_change(cone, rep), strategy)
        assert totals[0] < totals[1]

    def test_a_pivot_updating_one_row_cancels(self):
        """On [[a, b], [c, d]], a updates one row and is left out; the
        second pivot a*d - c*b updates none and is the determinant."""
        n = 7
        a, b = cyclo_fraction(n, Fraction(3, 2)), zeta(n, 2)
        c, d = one_minus_zeta(1), cyclo_fraction(n, Fraction(-1, 5)) * zeta(n, 4)
        cols, rows, factors = torsion_module._eliminate([[a, b], [c, d]], [0, 1], [0, 1], n, as_pair)
        assert (cols, rows) == ([0, 1], [0, 1])
        assert factors == [(a * d - c * b, 1)]


class TestSparsestPivot:
    """In each column the pivot is the remaining row whose entry has the
    fewest nonzero power-basis coefficients, the first of them on ties."""

    def test_a_monomial_beats_a_dense_entry_above_it(self):
        n = 7
        dense = cyclo_one(n) + zeta(n) + zeta(n, 2)
        mono = cyclo_fraction(n, Fraction(-2, 3)) * zeta(n, 4)
        mat = [[dense, zeta(n)], [mono, cyclo_one(n)]]
        cols, rows, _ = torsion_module._eliminate(mat, [0, 1], [0, 1], n, as_pair)
        assert (cols, rows) == ([0, 1], [1, 0])

    def test_ties_go_to_the_first_row(self):
        n = 13
        mat = [[zeta(n, 5) + zeta(n, 2)], [zeta(n, 3)], [cyclo_int(n, 4)]]
        assert torsion_module._eliminate(mat, [0, 1, 2], [0], n, as_pair)[1] == [1]

    def test_growth_input_keeps_its_pivots_small(self, monkeypatch):
        """The growth input: a direct sum of [Z[G] --x--> Z[G]] pieces at
        n = 13, 20, 12 and 12 of them from degrees 0, 1 and 2, scrambled by
        3 slides and decks per unit of total rank (ranks (20, 32, 24, 12)),
        all drawn from random.Random(7) by the benchmark's wide-torsion
        generators.  With the first live row as the pivot its factors
        reached 32,145 bits."""
        c = complex_from_obj(json.loads((GOLDEN / "growth13.json").read_text(encoding="utf-8")))
        assert c.ranks == (20, 32, 24, 12)
        bits = []

        def recorded(*args):
            out = left_looking_eliminate(*args)
            bits.extend(max(p.den, *map(abs, p.nums)).bit_length() for p, _ in out[2])
            return out

        monkeypatch.setattr(torsion_module, "_eliminate", recorded)
        reidemeister_torsion(c, representation(c.spec, 13, [1]))
        assert bits and max(bits) < 1000


def scrambled_field_complex(n, rng, entries, steps=8):
    """A direct sum of two-term field pieces F -> F from degree k+1 to k,
    one per (k, u) of ``entries``, from degree 0 up, followed by ``steps``
    basis changes over Q(zeta_n): e_a -> e_a + c*e_b and e_a -> s*e_a with
    fractions c and s, so entries and pivots carry denominators."""
    top = max(k for k, _ in entries) + 1
    ranks = [0] * (top + 1)
    placed = []
    for k, u in entries:
        placed.append((k, ranks[k + 1], ranks[k], u))
        ranks[k + 1] += 1
        ranks[k] += 1
    zero = cyclo_zero(n)
    mats = [[[zero] * ranks[k] for _ in range(ranks[k + 1])] for k in range(top)]
    for k, a, b, u in placed:
        mats[k][a][b] = u
    for _ in range(steps):
        k = rng.choice([d for d in range(top + 1) if ranks[d]])
        a, b = rng.randrange(ranks[k]), rng.randrange(ranks[k])
        if a != b:  # e_a -> e_a + c*e_b
            c = cyclo_fraction(n, Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([2, 3]))) * zeta(n, rng.randrange(n))
            out_scale, in_scale, src = c, -c, b
        else:  # e_a -> s*e_a
            s = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([2, 3, 7]))
            out_scale, in_scale, src = cyclo_fraction(n, s - 1), cyclo_fraction(n, 1 / s - 1), a
        if k >= 1:  # rows of d_(k-1): row a gains out_scale * row src
            m = mats[k - 1]
            m[a] = [x + out_scale * y for x, y in zip(m[a], m[src])]
        if k < top:  # columns of d_k: column src gains in_scale * column a
            for row in mats[k]:
                row[src] = row[src] + in_scale * row[a]
    fc = FieldComplex(
        n, 0, top, tuple(ranks),
        tuple(tuple(tuple(row) for row in m) for m in mats),
        tuple(tuple(f"e{k}_{j}" for j in range(r)) for k, r in enumerate(ranks)),
    )
    validate_field(fc)
    return fc


@pytest.mark.parametrize("strategy", ["first", "last"])
@pytest.mark.parametrize("n", FIELD_MODULI)
def test_fraction_entries_match_reference(n, strategy):
    """The minor form against the two-elimination reference on complexes
    over Q(zeta_n) whose entries have denominators, acyclic or not."""
    rng = random.Random(1000 + n)
    seen_denominator = False
    for trial in range(6):
        entries = [(rng.randrange(3), fraction_entry(n, rng, 0)) for _ in range(rng.randint(2, 5))]
        if trial == 5:
            entries.append((1, cyclo_zero(n)))  # homology in degrees 1 and 2
        fc = scrambled_field_complex(n, rng, entries)
        seen_denominator |= any(has_denominator(m) for m in fc.differentials)
        got = torsion_outcome(field_torsion, fc, strategy)
        assert got == torsion_outcome(reference_field_torsion, fc, strategy)
        assert isinstance(got, tuple) == (trial == 5 or not all(u for _, u in entries))
    assert seen_denominator


class TestFieldTorsionProducts:
    """field_torsion makes one product of the numerator factors and one of
    the denominator factors, starting from neither one, and inverts only a
    non-empty denominator."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = {"mul": [], "inv": []}

        def mul(a, b):
            calls["mul"].append((a, b))
            return cyclo_mul(a, b)

        def inv(a):
            calls["inv"].append(a)
            return cyclo_inv(a)

        monkeypatch.setattr(torsion_module, "cyclo_mul", mul)
        monkeypatch.setattr(torsion_module, "cyclo_inv", inv)
        return calls

    @staticmethod
    def assert_no_product_by_one(calls, n):
        one = cyclo_one(n)
        assert all(one not in pair for pair in calls["mul"])

    def test_lens_72_inverts_nothing(self, calls):
        fc = base_change(lens_complex(lens_params(7, 2)), REP)
        assert field_torsion(fc) == cyclo_mul(one_minus_zeta(4), one_minus_zeta(1))
        assert calls["inv"] == []
        assert len(calls["mul"]) == 1
        self.assert_no_product_by_one(calls, 7)

    def test_a_denominator_factor_inverts_once(self, calls):
        """Degrees 1 and 2: the single pivot enters with exponent -1."""
        u = cyclo_fraction(7, Fraction(3, 2)) - zeta(7, 3)
        fc = FieldComplex(7, 1, 2, (1, 1), (((u,),),), (("a",), ("b",)))
        assert field_torsion(fc) == cyclo_inv(u)
        assert calls["inv"] == [u]
        assert calls["mul"] == []

    def test_one_product_per_side(self, calls):
        """Pieces u_0..u_3 from degree k+1 to k: u_0 and u_2 are numerator
        factors, u_1 and u_3 denominator factors, so three products and
        one inversion in all."""
        n = 13
        us = [cyclo_fraction(n, Fraction(k + 2, 3)) - zeta(n, k + 1) for k in range(4)]
        fc = scrambled_field_complex(n, random.Random(5), list(enumerate(us)), steps=0)
        value = field_torsion(fc)
        assert len(calls["mul"]) == 3 and len(calls["inv"]) == 1
        self.assert_no_product_by_one(calls, n)
        assert value == reference_field_torsion(fc)

    @pytest.mark.parametrize("n", [7, 12])
    def test_scrambled_complexes_invert_at_most_once(self, calls, n):
        rng = random.Random(20 + n)
        for _ in range(6):
            entries = [(rng.randrange(3), fraction_entry(n, rng, 0)) for _ in range(4)]
            entries = [(k, u) for k, u in entries if u]  # two terms may cancel
            fc = scrambled_field_complex(n, rng, entries)
            calls["mul"].clear()
            calls["inv"].clear()
            field_torsion(fc)
            assert len(calls["inv"]) <= 1
            self.assert_no_product_by_one(calls, n)


class TestEntrySizeCap:
    """The elimination holds its working entries to MAX_ENTRY_BITS, checked
    once per pivot step on its pivot."""

    @staticmethod
    def growth():
        return complex_from_obj(json.loads((GOLDEN / "growth13.json").read_text(encoding="utf-8")))

    def test_the_cap_lies_above_the_growth_input(self, monkeypatch):
        """growth13.json's largest pivot, its largest factor, has 454 bits:
        a cap of 454 passes it, and 453 refuses it at the degree of the
        differential being eliminated."""
        c = self.growth()
        rep = representation(c.spec, 13, [1])
        assert torsion_module.MAX_ENTRY_BITS > 454
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 454)
        value = reidemeister_torsion(c, rep)
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 453)
        with pytest.raises(EntryLimitError) as exc:
            reidemeister_torsion(c, rep)
        assert (exc.value.degree, exc.value.bits) == (2, 454)
        assert str(exc.value) == (
            "the elimination of the differential at degree 2 built an entry of 454 bits,"
            " past MAX_ENTRY_BITS = 453"
        )
        monkeypatch.undo()
        assert reidemeister_torsion(c, rep) == value

    def test_fingerprint_does_not_read_a_breach_as_not_acyclic(self, monkeypatch):
        c = self.growth()
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 100)
        with pytest.raises(EntryLimitError):
            fingerprint(c, [representation(c.spec, 13, [1]), representation(c.spec, 13, [0])])
        assert not issubclass(EntryLimitError, NotAcyclicError)

    def test_field_torsion_holds_the_cap(self, monkeypatch):
        c = self.growth()
        fc = base_change(c, representation(c.spec, 13, [1]))
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 100)
        with pytest.raises(EntryLimitError) as exc:
            field_torsion(fc)
        assert exc.value.degree == 2

    def test_not_acyclic_keeps_its_degree_and_defect(self, monkeypatch):
        """Under the trivial representation the lens complex is not acyclic;
        a cap it never nears changes nothing."""
        c = lens_complex(lens_params(7, 2))
        rep = representation(c.spec, 7, [0])
        with pytest.raises(NotAcyclicError) as uncapped:
            reidemeister_torsion(c, rep)
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 8)
        with pytest.raises(NotAcyclicError) as capped:
            reidemeister_torsion(c, rep)
        assert (capped.value.degree, capped.value.defect) == (uncapped.value.degree, uncapped.value.defect) == (0, 1)
