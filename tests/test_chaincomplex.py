import json
import random
import time
from itertools import combinations
from math import gcd
from pathlib import Path

import pytest

from torsionkit.grouprings import (
    GroupSpec,
    ONE_ELEM,
    TRIVIAL_GROUP,
    ZERO_ELEM,
    augmentation,
    from_int,
    generator_elem,
    ring_sub,
)
from torsionkit.cyclofield import (
    cyclo_one,
    cyclo_zero,
    representation,
    zeta,
)
from torsionkit import chaincomplex
from torsionkit.chaincomplex import (
    MAX_DEGREES,
    MAX_TOTAL_RANK,
    DegreeLimitError,
    NotAComplexError,
    RankLimitError,
    ShapeMismatchError,
    SpecMismatchError,
    base_change,
    based_complex,
    chain_map,
    complex_from_obj,
    complex_to_obj,
    compose_chain_maps,
    direct_sum,
    dumps_canonical,
    first_difference,
    identity_chain_map,
    integral_homology,
    load_complex,
    mapping_cone,
    mat_identity,
    mat_neg,
    shift,
    smith_normal_form,
    tensor_z_complexes,
    two_term_complex,
    validate,
    validate_field,
    zero_complex,
)
from torsionkit.lensspaces import lens_complex, lens_params

from helpers import (
    random_acyclic_complex,
    random_elem,
    random_int_complex,
    random_group_complex,
)

Z7 = GroupSpec.cyclic(7)


class TestValidate:
    def test_lens_complex_is_a_complex(self):
        validate(lens_complex(lens_params(7, 2)))

    def test_two_term_identity(self):
        validate(two_term_complex(Z7, 0, ONE_ELEM))

    def test_one_minus_t_squared_is_not_a_complex(self):
        a = ring_sub(Z7, ONE_ELEM, generator_elem(Z7))
        bad = based_complex(Z7, 0, (1, 1, 1), [((a,),), ((a,),)])
        with pytest.raises(NotAComplexError) as exc:
            validate(bad)
        assert exc.value.degree == 0

    def test_shape_checks(self):
        with pytest.raises(ShapeMismatchError):
            based_complex(Z7, 0, (1, 2), [((ONE_ELEM,),)])
        with pytest.raises(ShapeMismatchError):
            based_complex(Z7, 0, (1, 1), [((ONE_ELEM,),)], labels=[("a",), ()])

    def test_fuzzed_entry_breaks_validation_overwhelmingly(self):
        rng = random.Random(13)
        c = lens_complex(lens_params(7, 2))
        trials, failures = 120, 0
        for _ in range(trials):
            k = rng.randrange(len(c.differentials))
            new = random_elem(Z7, rng, terms=3)
            if new == c.differentials[k][0][0]:
                continue
            diffs = list(c.differentials)
            diffs[k] = ((new,),)
            mutated = based_complex(c.spec, c.min_degree, c.ranks, diffs, c.labels)
            try:
                validate(mutated)
            except NotAComplexError:
                failures += 1
        rate = failures / trials
        print(f"fuzzed-entry validation failure rate: {failures}/{trials}")
        assert rate > 0.7


class TestBaseChange:
    def test_lens_71_differentials(self):
        rep = representation(Z7, 7, [1])
        fc = base_change(lens_complex(lens_params(7, 1)), rep)
        one = cyclo_one(7)
        assert fc.diff(0)[0][0] == one - zeta(7)
        assert fc.diff(1)[0][0] == cyclo_zero(7)
        assert fc.diff(2)[0][0] == one - zeta(7)
        validate_field(fc)

    def test_trivial_rep_gives_augmented_complex(self):
        rep = representation(Z7, 1, [0])
        c = lens_complex(lens_params(7, 3))
        fc = base_change(c, rep)
        for i in range(c.min_degree, c.max_degree):
            for r, row in enumerate(fc.diff(i)):
                for s, val in enumerate(row):
                    expected = augmentation(c.diff(i)[r][s])
                    assert val.nums == (expected,) and val.den == 1

    def test_zero_complex(self):
        rep = representation(Z7, 7, [1])
        fc = base_change(zero_complex(Z7), rep)
        assert fc.ranks == (0,)

    def test_commutes_with_structural_ops(self):
        rng = random.Random(17)
        rep = representation(Z7, 7, [2])
        for _ in range(10):
            a = random_acyclic_complex(Z7, rng, summands=2)
            b = random_acyclic_complex(Z7, rng, summands=2)
            fs = base_change(direct_sum(a, b), rep)
            fa, fb = base_change(a, rep), base_change(b, rep)
            for i in range(fs.min_degree, fs.max_degree):
                m = fs.diff(i)
                ra1, rb1 = fa.rank(i + 1), fb.rank(i + 1)
                ra0 = fa.rank(i)
                for r in range(ra1):
                    assert m[r][:ra0] == fa.diff(i)[r]
                for r in range(rb1):
                    assert m[ra1 + r][ra0:] == fb.diff(i)[r]
            fsh = base_change(shift(a, 1), rep)
            for i in range(fsh.min_degree, fsh.max_degree):
                assert fsh.diff(i) == tuple(
                    tuple(-x for x in row) for row in fa.diff(i + 1)
                )
            cone = base_change(mapping_cone(identity_chain_map(a)), rep)
            validate_field(cone)
            # entrywise: base change of the cone is the cone of base changes
            one = cyclo_one(rep.modulus)
            for i in range(cone.min_degree, cone.max_degree):
                m = cone.diff(i)
                ra = fa.rank(i + 2)
                for r in range(ra):
                    assert m[r][: fa.rank(i + 1)] == tuple(
                        -x for x in fa.diff(i + 1)[r]
                    )
                for r in range(fa.rank(i + 1)):
                    assert m[ra + r][fa.rank(i + 1):] == fa.diff(i)[r]
                    assert m[ra + r][r] == -one  # the -identity block

    def test_spec_mismatch(self):
        rep = representation(GroupSpec.cyclic(5), 5, [1])
        with pytest.raises(SpecMismatchError):
            base_change(lens_complex(lens_params(7, 1)), rep)


class TestShift:
    def test_round_trip(self):
        c = lens_complex(lens_params(7, 2))
        assert shift(shift(c, 1), -1) == c
        assert shift(c, 0) == c

    def test_zero_complex(self):
        assert shift(zero_complex(Z7), 5) == zero_complex(Z7)

    def test_odd_shift_negates_differential(self):
        c = two_term_complex(Z7, 0, ONE_ELEM)
        s = shift(c, 1)
        assert s.min_degree == -1
        assert s.diff(-1)[0][0] == -ONE_ELEM

    def test_negation_keeps_zero_entries(self):
        """mat_neg, which odd shifts and mapping cones use, keeps each zero
        entry as it is instead of building a new empty element."""
        x = generator_elem(Z7, 0, 2)
        m = mat_neg(((ZERO_ELEM, x), (ONE_ELEM, ZERO_ELEM)))
        assert m == ((ZERO_ELEM, -x), (-ONE_ELEM, ZERO_ELEM))
        assert m[0][0] is ZERO_ELEM and m[1][1] is ZERO_ELEM
        c = lens_complex(lens_params(7, 2))
        zeros = [x for m in shift(direct_sum(c, c), 1).differentials for row in m for x in row if not x]
        assert zeros and all(x is ZERO_ELEM for x in zeros)


class TestDirectSum:
    def test_unit(self):
        c = lens_complex(lens_params(7, 2))
        assert direct_sum(c, zero_complex(Z7)) == c
        assert direct_sum(zero_complex(Z7), c) == c

    def test_ranks_add(self):
        rng = random.Random(19)
        a = random_acyclic_complex(Z7, rng)
        b = random_acyclic_complex(Z7, rng)
        s = direct_sum(a, b)
        for i in s.degrees:
            assert s.rank(i) == a.rank(i) + b.rank(i)
        validate(s)

    def test_spec_mismatch(self):
        with pytest.raises(SpecMismatchError):
            direct_sum(zero_complex(Z7), zero_complex(GroupSpec.cyclic(5)))


class TestMappingCone:
    def test_cone_of_identity_on_point(self):
        c = based_complex(Z7, 0, (1,), [])
        cone = mapping_cone(identity_chain_map(c))
        assert cone.min_degree == -1 and cone.ranks == (1, 1)
        assert cone.diff(-1)[0][0] == -ONE_ELEM
        rep = representation(Z7, 7, [1])
        fc = base_change(cone, rep)
        # acyclic: rank condition at both degrees
        assert fc.diff(-1)[0][0]

    def test_cone_of_zero_map_is_shift_plus_target(self):
        rng = random.Random(23)
        a = random_acyclic_complex(Z7, rng, summands=2)
        b = random_acyclic_complex(Z7, rng, summands=2)
        zero_components = {
            i: tuple((from_int(0),) * a.rank(i) for _ in range(b.rank(i)))
            for i in range(min(a.min_degree, b.min_degree), max(a.max_degree, b.max_degree) + 1)
        }
        f = chain_map(a, b, zero_components)
        assert mapping_cone(f) == direct_sum(shift(a, 1), b)

    def test_cone_validates_for_random_maps(self):
        rng = random.Random(29)
        for _ in range(10):
            c = random_acyclic_complex(Z7, rng, summands=2)
            f = identity_chain_map(c)
            cone = mapping_cone(f)
            validate(cone)

    def test_chain_map_commutation_enforced(self):
        c = lens_complex(lens_params(7, 2))
        bad = {i: mat_identity(c.rank(i)) for i in c.degrees}
        bad[1] = ((generator_elem(Z7),),)
        with pytest.raises(ShapeMismatchError):
            chain_map(c, c, bad)

    def test_compose_chain_maps(self):
        c = lens_complex(lens_params(7, 2))
        f = identity_chain_map(c)
        assert compose_chain_maps(f, f).components == f.components


class TestTensor:
    def test_two_step_tensor_shape(self):
        a = based_complex(TRIVIAL_GROUP, 0, (1, 1), [((from_int(1),),)])
        c = lens_complex(lens_params(7, 2))
        t = tensor_z_complexes(a, c)
        validate(t)
        assert t.ranks == (1, 2, 2, 2, 1)

    def test_unit_in_degree_zero(self):
        a = based_complex(TRIVIAL_GROUP, 0, (1,), [])
        c = lens_complex(lens_params(7, 3))
        t = tensor_z_complexes(a, c)
        assert t.ranks == c.ranks and t.differentials == c.differentials

    def test_koszul_sign_gives_complex_on_random_pairs(self):
        rng = random.Random(31)
        for _ in range(25):
            a = random_int_complex(rng)
            b = random_group_complex(Z7, rng)
            t = tensor_z_complexes(a, b)
            validate(t)

    def test_left_factor_must_be_integral(self):
        with pytest.raises(SpecMismatchError):
            tensor_z_complexes(lens_complex(lens_params(7, 1)), zero_complex(Z7))


def minors_gcd_invariant_factors(m):
    """Independent oracle: d_k = D_k / D_{k-1} with D_k the gcd of all k x k
    minors (determinantal divisors)."""

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

    rows = len(m)
    cols = len(m[0]) if rows else 0
    factors = []
    prev = 1
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


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([]) == ()

    def test_against_minors_oracle_on_random_matrices(self):
        rng = random.Random(37)
        for _ in range(150):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            got = smith_normal_form(m)
            assert got == minors_gcd_invariant_factors(m), m

    def test_divisibility_chain(self):
        rng = random.Random(41)
        for _ in range(100):
            m = [[rng.randint(-20, 20) for _ in range(4)] for _ in range(4)]
            f = smith_normal_form(m)
            assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))


class TestIntegralHomology:
    def test_times_two(self):
        c = based_complex(TRIVIAL_GROUP, 0, (1, 1), [((from_int(2),),)])
        assert integral_homology(c) == {0: (0, ()), 1: (0, (2,))}

    def test_acyclic(self):
        c = based_complex(TRIVIAL_GROUP, 0, (1, 1), [((from_int(1),),)])
        assert integral_homology(c) == {0: (0, ()), 1: (0, ())}

    @pytest.mark.parametrize("p,q", [(5, 2), (7, 1), (7, 2), (11, 3)])
    def test_collapsed_lens_complex(self, p, q):
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
        h = integral_homology(collapsed)
        # stored degree i holds the (3-i)-cells: H_3..H_0 = Z, 0, Z/p, Z
        assert h == {0: (1, ()), 1: (0, ()), 2: (0, (p,)), 3: (1, ())}

    def test_requires_trivial_group(self):
        with pytest.raises(SpecMismatchError):
            integral_homology(lens_complex(lens_params(7, 1)))


class TestFileFormat:
    def test_bit_exact_round_trip(self):
        rng = random.Random(43)
        for c in [
            lens_complex(lens_params(7, 2)),
            random_acyclic_complex(Z7, rng),
            random_group_complex(GroupSpec.free_product([7, 7]), rng),
            zero_complex(Z7),
        ]:
            payload = dumps_canonical(complex_to_obj(c))
            c2 = complex_from_obj(json.loads(payload))
            assert c2 == c
            assert dumps_canonical(complex_to_obj(c2)) == payload

    def test_malformed_document(self):
        with pytest.raises(ShapeMismatchError):
            complex_from_obj({"group": {"kind": "cyclic", "order": 7}})
        with pytest.raises(ShapeMismatchError):
            complex_from_obj(
                {
                    "group": {"kind": "cyclic", "order": 7},
                    "min_degree": 0,
                    "ranks": [1, 1],
                    "differentials": {"0": [[[[1, [[0, 9]]]]]]},
                    "labels": [["a"], ["b"]],
                }
            )


class TestRankCap:
    """complex_from_obj holds a document's total rank, the sum of its
    positive ranks, to MAX_TOTAL_RANK before it reads any entry."""

    @staticmethod
    def doc(ranks):
        return {"group": {"kind": "cyclic", "order": 7}, "min_degree": 0, "ranks": ranks, "differentials": {}}

    def test_wide_file_is_refused_before_any_matrix_is_built(self):
        """The 92-byte file asks for a 2000 x 2000 zero differential."""
        path = Path(__file__).parent / "golden" / "wide.json"
        t0 = time.perf_counter()
        with pytest.raises(RankLimitError) as exc:
            load_complex(path)
        assert time.perf_counter() - t0 < 0.1
        assert str(exc.value) == f"total rank 4000 exceeds the rank cap {MAX_TOTAL_RANK}"
        assert isinstance(exc.value, ShapeMismatchError)

    def test_cap_is_checked_before_any_entry_is_read(self):
        doc = self.doc([MAX_TOTAL_RANK, 1])
        doc["differentials"] = {"0": "not a matrix"}
        with pytest.raises(RankLimitError):
            complex_from_obj(doc)

    def test_document_at_the_cap_reads(self):
        half = MAX_TOTAL_RANK // 2
        c = complex_from_obj(self.doc([half, MAX_TOTAL_RANK - half]))
        assert c.total_rank() == MAX_TOTAL_RANK
        with pytest.raises(RankLimitError):
            complex_from_obj(self.doc([half, MAX_TOTAL_RANK - half + 1]))

    def test_negative_ranks_do_not_count(self):
        """A negative rank is not summed, and fails as before, in based_complex."""
        with pytest.raises(ShapeMismatchError) as exc:
            complex_from_obj(self.doc([MAX_TOTAL_RANK, -5]))
        assert not isinstance(exc.value, RankLimitError)
        assert str(exc.value) == "ranks must be nonnegative"

    def test_code_built_complexes_are_not_capped(self):
        assert based_complex(Z7, 0, (MAX_TOTAL_RANK + 1,), []).total_rank() == MAX_TOTAL_RANK + 1


class TestDegreeCap:
    """complex_from_obj holds the number of degrees a document's ranks list,
    zero ranks included, to MAX_DEGREES, right after it reads ranks."""

    @staticmethod
    def doc(gap):
        """Rank 1 at degrees 0 and gap + 1, and rank 0 between."""
        return TestRankCap.doc([1] + [0] * gap + [1])

    def test_long_file_is_refused(self):
        """``long.json`` lists 1026 degrees of total rank 2."""
        with pytest.raises(DegreeLimitError) as exc:
            load_complex(Path(__file__).parent / "golden" / "long.json")
        assert str(exc.value) == f"ranks list 1026 degrees, past the degree cap {MAX_DEGREES}"
        assert isinstance(exc.value, RankLimitError) and isinstance(exc.value, ShapeMismatchError)

    def test_a_long_gap_is_refused_before_any_matrix_is_built(self, monkeypatch):
        """Uncapped, this 400 KB document ran ``torsion`` for 1.2 s and
        46 MB before NOT_ACYCLIC, the time growing with the gap."""
        built = []
        monkeypatch.setattr(chaincomplex, "mat_zero", lambda *shape: built.append(shape))
        doc = self.doc(200_000)
        doc["differentials"] = {"0": "not a matrix"}
        with pytest.raises(DegreeLimitError) as exc:
            complex_from_obj(doc)
        assert str(exc.value) == f"ranks list 200002 degrees, past the degree cap {MAX_DEGREES}"
        assert built == []

    def test_document_at_the_cap_reads(self):
        c = complex_from_obj(self.doc(MAX_DEGREES - 2))
        assert (c.min_degree, c.max_degree, c.total_rank()) == (0, MAX_DEGREES - 1, 2)
        with pytest.raises(DegreeLimitError):
            complex_from_obj(self.doc(MAX_DEGREES - 1))

    def test_the_rank_cap_is_checked_first(self):
        """A document past both caps keeps the rank cap's text."""
        with pytest.raises(RankLimitError) as exc:
            complex_from_obj(TestRankCap.doc([MAX_TOTAL_RANK + 1] + [0] * MAX_DEGREES))
        assert not isinstance(exc.value, DegreeLimitError)

    def test_code_built_complexes_are_not_capped(self):
        ranks = (1,) + (0,) * MAX_DEGREES + (1,)
        diffs = [()] * MAX_DEGREES + [((),)]  # d_i is rank(i + 1) x rank(i)
        assert based_complex(Z7, 0, ranks, diffs).max_degree == MAX_DEGREES + 1


def test_first_difference():
    """None for equal complexes; otherwise the first differing entry, by
    degree, row and column, with both values in the file format."""
    z7 = GroupSpec.cyclic(7)
    t = generator_elem(z7, 0, 1)
    one_minus_t = ring_sub(z7, ONE_ELEM, t)
    c = two_term_complex(z7, 0, one_minus_t)
    assert first_difference(c, c) is None
    other = two_term_complex(z7, 0, ring_sub(z7, ONE_ELEM, generator_elem(z7, 0, 2)))
    where, a, b = first_difference(c, other)
    assert where == {"part": "entry", "degree": 0, "row": 0, "column": 0}
    assert (a, b) == ([[1, []], [-1, [[0, 1]]]], [[1, []], [-1, [[0, 2]]]])
    assert first_difference(c, shift(c, 2))[0] == {"part": "degree_window"}
