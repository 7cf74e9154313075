import random
from math import gcd

import pytest

from torsionkit.grouprings import (
    GroupSpec,
    GroupWord,
    IDENTITY_WORD,
    TRIVIAL_GROUP,
    augmentation,
    elem_from_dict,
    from_int,
)
from torsionkit.cyclofield import (
    ModulusMismatchError,
    cyclo_mul,
    cyclo_one,
    cyclo_pow,
    representation,
    torsion_class,
    unit_subgroup,
    zeta,
)
from torsionkit.chaincomplex import based_complex, integral_homology, validate
from torsionkit.torsion import NotAcyclicError, reidemeister_torsion
from torsionkit.simpleops import DeckTransform, apply_op
from torsionkit.lensspaces import (
    LensParams,
    NonPrimeUnsupportedError,
    NotCoprimeError,
    free_product_scenario,
    homotopy_equivalent,
    lens_complex,
    lens_params,
    lens_torsion,
    lens_verdict,
    modp_inverse,
    simple_homotopy_equivalent,
    torsion_distinguish,
    twist_sweep,
)

from helpers import random_word, twisted_lens_cells

SWEEP_PRIMES = (5, 7, 11, 13)


class TestModpInverse:
    def test_examples(self):
        assert modp_inverse(1, 7) == 1
        assert modp_inverse(2, 7) == 4
        assert modp_inverse(4, 17) == 13

    def test_not_coprime(self):
        with pytest.raises(NotCoprimeError):
            modp_inverse(2, 6)

    def test_inverse_property(self):
        for p in (5, 7, 11, 13, 17):
            for q in range(1, p):
                assert (q * modp_inverse(q, p)) % p == 1


class TestLensComplex:
    def test_params_reduced_and_checked(self):
        assert lens_params(7, 9) == LensParams(7, 2)
        with pytest.raises(NotCoprimeError):
            lens_params(6, 2)
        with pytest.raises(NotCoprimeError):
            lens_params(1, 0)

    def test_differentials_and_labels(self):
        c = lens_complex(lens_params(7, 2))
        validate(c)
        assert c.ranks == (1, 1, 1, 1)
        assert [ls[0] for ls in c.labels] == ["e3", "e2", "e1", "e0"]
        # r = 4 since 2*4 = 8 = 1 mod 7
        top = c.diff(0)[0][0]
        assert top == elem_from_dict({IDENTITY_WORD: 1, GroupWord(((0, 4),)): -1})
        norm = c.diff(1)[0][0]
        assert norm == elem_from_dict({GroupWord(((0, e),)) if e else IDENTITY_WORD: 1 for e in range(7)})
        bottom = c.diff(2)[0][0]
        assert bottom == elem_from_dict({IDENTITY_WORD: 1, GroupWord(((0, 1),)): -1})

    @pytest.mark.parametrize("p,q", [(5, 1), (7, 2), (11, 7), (17, 4)])
    def test_collapsed_integral_homology(self, p, q):
        c = lens_complex(lens_params(p, q))
        collapsed = based_complex(
            TRIVIAL_GROUP,
            c.min_degree,
            c.ranks,
            [
                tuple(tuple(from_int(augmentation(x)) for x in row) for row in m)
                for m in c.differentials
            ],
        )
        assert integral_homology(collapsed) == {
            0: (1, ()),
            1: (0, ()),
            2: (0, (p,)),
            3: (1, ()),
        }


class TestLensTorsion:
    def test_p7_closed_form_values(self):
        units = unit_subgroup(representation(GroupSpec.cyclic(7), 7, [1]))
        one = cyclo_one(7)
        assert lens_torsion(lens_params(7, 1), 1) == torsion_class(
            cyclo_pow(one - zeta(7), 2), units
        )
        assert lens_torsion(lens_params(7, 2), 1) == torsion_class(
            cyclo_mul(one - zeta(7), one - zeta(7, 4)), units
        )

    def test_trivial_twist_is_not_acyclic(self):
        with pytest.raises(NotAcyclicError):
            lens_torsion(lens_params(7, 1), 0)

    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    def test_closed_form_sweep(self, p):
        spec = GroupSpec.cyclic(p)
        one = cyclo_one(p)
        for q in range(1, p):
            r = modp_inverse(q, p)
            for d in range(1, p):
                expected = cyclo_mul(one - zeta(p, (d * r) % p), one - zeta(p, d))
                units = unit_subgroup(representation(spec, p, [d]))
                assert lens_torsion(lens_params(p, q), d) == torsion_class(
                    expected, units
                )

    def test_deck_transforms_do_not_move_the_class(self):
        rng = random.Random(109)
        params = lens_params(7, 3)
        base = lens_torsion(params, 1)
        c = lens_complex(params)
        rep = representation(GroupSpec.cyclic(7), 7, [1])
        for _ in range(10):
            d = rng.choice(list(c.degrees))
            c = apply_op(c, DeckTransform(d, 0, random_word(GroupSpec.cyclic(7), rng)))
            assert reidemeister_torsion(c, rep) == base


class TestClassification:
    def test_homotopy_examples(self):
        assert homotopy_equivalent(lens_params(7, 1), lens_params(7, 2)) == (True, 3)
        ok, m = homotopy_equivalent(lens_params(17, 2), lens_params(17, 4))
        assert ok and (2 * 4 - m * m) % 17 == 0 or (2 * 4 + m * m) % 17 == 0
        assert homotopy_equivalent(lens_params(5, 1), lens_params(5, 2)) == (False, None)

    def test_simple_homotopy_examples(self):
        assert simple_homotopy_equivalent(lens_params(7, 1), lens_params(7, 2))[0] is False
        ok, witness = simple_homotopy_equivalent(lens_params(7, 1), lens_params(7, 6))
        assert ok and witness == (-1, False)
        assert simple_homotopy_equivalent(lens_params(17, 1), lens_params(17, 4))[0] is False

    def test_torsion_distinguish_examples(self):
        assert torsion_distinguish(lens_params(7, 1), lens_params(7, 2)) == (True, None)
        assert torsion_distinguish(lens_params(7, 2), lens_params(7, 2)) == (False, 1)
        ok, d = torsion_distinguish(lens_params(7, 1), lens_params(7, 6))
        assert not ok and d is not None

    def test_mismatched_p_rejected(self):
        with pytest.raises(ModulusMismatchError):
            torsion_distinguish(lens_params(7, 1), lens_params(5, 1))

    @pytest.mark.parametrize("p", SWEEP_PRIMES)
    def test_torsion_negates_simple_equivalence(self, p):
        for q in range(1, p):
            for q2 in range(1, p):
                a, b = lens_params(p, q), lens_params(p, q2)
                td, _ = torsion_distinguish(a, b)
                se, _ = simple_homotopy_equivalent(a, b)
                he, _ = homotopy_equivalent(a, b)
                assert td == (not se), (p, q, q2)
                assert he or not se, (p, q, q2)

    @pytest.mark.parametrize(
        "p, q, q2",
        [
            (7, 1, 2), (7, 1, 6), (7, 2, 4),  # distinguished, -q, q^-1
            (13, 1, 2), (13, 2, 7), (13, 5, 5),
            (31, 1, 2), (31, 3, 28), (31, 2, 16),
        ],
    )
    def test_sweep_matches_direct_comparison(self, p, q, q2):
        """The shared sweep against the direct per-twist comparison and an
        early-exit first-match loop."""
        a, b = lens_params(p, q), lens_params(p, q2)
        units = [d for d in range(1, p) if gcd(d, p) == 1]
        early_exit = next((d for d in units if lens_torsion(a, d) == lens_torsion(b, 1)), None)
        verdict = lens_verdict(a, b)
        sweep = verdict.sweep
        assert sweep.reference == lens_torsion(b, 1)
        assert sweep.rows == tuple(
            (d, lens_torsion(a, d), lens_torsion(a, d) == lens_torsion(b, 1)) for d in units
        )
        assert sweep.match_twist == early_exit
        assert torsion_distinguish(a, b) == (early_exit is None, early_exit)
        assert verdict.torsion_match_twist == early_exit
        assert verdict.torsion_distinguished is (early_exit is None)

    def test_sweep_needs_one_class_per_unit(self):
        reference = lens_torsion(lens_params(7, 1), 1)
        with pytest.raises(ValueError):
            twist_sweep(7, reference, [reference] * 5)

    def test_verdict_consistency(self):
        v = lens_verdict(lens_params(7, 1), lens_params(7, 2))
        assert v.homotopy_equivalent and not v.simple_homotopy_equivalent
        assert v.torsion_distinguished and v.consistent


class TestFreeProductScenario:
    def test_distinct_for_q1_q2(self):
        sweep = free_product_scenario(7, 1, 2).sweep
        assert sweep.match_twist is None
        assert len(sweep.rows) == 6
        assert all(cls is not None and not same for _, cls, same in sweep.rows)
        # first complex classes are (1 - zeta^l)^2 under the twist l
        units = sweep.reference.units
        one = cyclo_one(7)
        for l, cls, _ in sweep.rows:
            assert cls == torsion_class(cyclo_pow(one - zeta(7, l), 2), units)
        assert sweep.reference == torsion_class(
            cyclo_mul(one - zeta(7), one - zeta(7, 4)), units
        )

    def test_identical_parameters_match_at_twist_one(self):
        rpt = free_product_scenario(7, 2, 2)
        assert rpt.sweep.match_twist == 1

    def test_negated_q_matches_somewhere(self):
        rpt = free_product_scenario(7, 1, 6)
        assert rpt.sweep.match_twist is not None

    @pytest.mark.parametrize(
        "p, q, q2",
        [
            (2, 1, 1),
            (3, 1, 1), (3, 1, 2),
            (5, 1, 2), (5, 2, 3), (5, 3, 3),
            (7, 1, 2), (7, 1, 6), (7, 2, 4),
            (11, 1, 3), (11, 2, 2),
            (13, 2, 5), (13, 1, 12),
            (31, 1, 2), (31, 3, 3),
            (61, 1, 2), (61, 1, 60),
        ],
    )
    def test_sweep_matches_per_twist_complexes(self, p, q, q2):
        """Twisting rho over one complex against the old construction: one
        complex per twist l, built on the generator g^l, under [1, 1]."""
        spec = GroupSpec.free_product([p, p])
        rep = representation(spec, p, [1, 1])
        r, r2 = modp_inverse(q, p), modp_inverse(q2, p)
        reference = reidemeister_torsion(twisted_lens_cells(spec, 1, 1, p, r2), rep)
        rows = []
        for l in range(1, p):
            try:
                cls = reidemeister_torsion(twisted_lens_cells(spec, 0, l, p, r), rep)
            except NotAcyclicError:
                cls = None
            rows.append((l, cls, cls == reference))
        rpt = free_product_scenario(p, q, q2)
        assert (rpt.p, rpt.q, rpt.q2) == (p, q, q2)
        assert rpt.sweep.reference == reference
        assert rpt.sweep.rows == tuple(rows)
        assert rpt.sweep.match_twist == next((l for l, _, same in rows if same), None)

    def test_errors(self):
        with pytest.raises(NonPrimeUnsupportedError):
            free_product_scenario(6, 1, 1)
        with pytest.raises(NotCoprimeError):
            free_product_scenario(7, 7, 1)
