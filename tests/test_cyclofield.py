import dataclasses
import pickle
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from torsionkit.grouprings import (
    GroupRingElem,
    GroupSpec,
    GroupWord,
    InvalidWordError,
    ZERO_ELEM,
    elem_from_dict,
    monomial,
    ONE_ELEM,
    generator_elem,
    map_form,
    ring_mul,
    ring_sub,
    validate_word,
)
from torsionkit import cyclofield
from torsionkit.cyclofield import (
    CycloNum,
    UnitSubgroup,
    ModulusMismatchError,
    canonical_rep,
    cyclo_add,
    cyclo_fraction,
    cyclo_int,
    cyclo_inv,
    cyclo_mul,
    cyclo_neg,
    cyclo_one,
    cyclo_pow,
    cyclo_str,
    cyclo_zero,
    cyclotomic_polynomial,
    euler_phi,
    evaluate_rep,
    galois_conjugate,
    rep_vector,
    representation,
    torsion_class,
    unit_chains,
    unit_subgroup,
    units,
    zeta,
)
from torsionkit.lensspaces import lens_params, lens_torsion

from helpers import random_elem, reference_cyclo_str, sequential_inverse, terms_of

Z7 = GroupSpec.cyclic(7)
FP77 = GroupSpec.free_product([7, 7])


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestCyclotomicPolynomial:
    def test_prime_and_one(self):
        assert cyclotomic_polynomial(7) == (1, 1, 1, 1, 1, 1, 1)
        assert cyclotomic_polynomial(1) == (-1, 1)

    def test_phi_6_by_dividing_out_smaller_factors(self):
        # x^6 - 1 = Phi_1 * Phi_2 * Phi_3 * Phi_6, so Phi_6 = x^2 - x + 1
        assert cyclotomic_polynomial(6) == (1, -1, 1)
        prod = [1]
        for d in (1, 2, 3, 6):
            prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        assert prod == [-1, 0, 0, 0, 0, 0, 1]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 17, 20])
    def test_product_over_divisors_gives_x_n_minus_1(self, n):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = poly_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected

    @pytest.mark.parametrize("n", [3, 4, 6, 7, 12, 17])
    def test_phi_n_kills_zeta_n(self, n):
        acc = cyclo_zero(n)
        for j, c in enumerate(cyclotomic_polynomial(n)):
            acc = cyclo_add(acc, cyclo_mul(cyclo_int(n, c), cyclo_pow(zeta(n), j)))
        assert not acc


class TestFieldOps:
    def test_zeta_power_arithmetic(self):
        assert cyclo_mul(cyclo_pow(zeta(7), 3), cyclo_pow(zeta(7), 5)) == zeta(7)
        assert cyclo_mul(cyclo_one(7) - zeta(7), cyclo_zero(7)) == cyclo_zero(7)

    def test_product_of_one_minus_zeta_powers_is_seven(self):
        prod = cyclo_one(7)
        for k in range(1, 7):
            prod = cyclo_mul(prod, cyclo_one(7) - zeta(7, k))
        assert prod == cyclo_int(7, 7)

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            cyclo_add(zeta(7), zeta(12))

    def test_inverse_examples(self):
        assert cyclo_inv(zeta(7)) == cyclo_pow(zeta(7), 6)
        assert cyclo_inv(cyclo_int(7, 2)) == cyclo_fraction(7, Fraction(1, 2))
        # 1/(1 - zeta) = (1/7) * prod_{k=2..6} (1 - zeta^k)
        expected = cyclo_fraction(7, Fraction(1, 7))
        for k in range(2, 7):
            expected = cyclo_mul(expected, cyclo_one(7) - zeta(7, k))
        assert cyclo_inv(cyclo_one(7) - zeta(7)) == expected

    def test_inverse_of_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            cyclo_inv(cyclo_zero(7))

    @pytest.mark.parametrize("n", [7, 12, 17])
    def test_field_axioms_on_random_values(self, n):
        rng = random.Random(n)
        phi = euler_phi(n)

        def rand():
            nums = tuple(rng.randint(-4, 4) for _ in range(phi))
            den = rng.randint(1, 5)
            return CycloNum(n, (0,) * phi, 1) + CycloNum(n, nums, 1) * cyclo_fraction(
                n, Fraction(1, den)
            )

        for _ in range(60):
            a, b, c = rand(), rand(), rand()
            assert a * (b * c) == (a * b) * c
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a and a * b == b * a
            assert a + (-a) == cyclo_zero(n)
            if a:
                assert a * cyclo_inv(a) == cyclo_one(n)

    def test_galois_conjugates_fix_rationals(self):
        x = cyclo_fraction(7, Fraction(3, 5))
        for k in (2, 3, 6):
            assert galois_conjugate(x, k) == x
        assert galois_conjugate(zeta(7), 3) == zeta(7, 3)


@settings(max_examples=60)
@given(st.lists(st.integers(-5, 5), min_size=6, max_size=6),
       st.lists(st.integers(-5, 5), min_size=6, max_size=6))
def test_multiplication_matches_polynomial_model(a_coeffs, b_coeffs):
    # reduce the convolution product mod Phi_7 independently
    a = CycloNum(7, tuple(a_coeffs), 1)
    b = CycloNum(7, tuple(b_coeffs), 1)
    prod = poly_mul(a_coeffs, b_coeffs)
    # fold x^k for k >= 6 using x^6 = -(1 + x + ... + x^5)
    while len(prod) > 6:
        top = prod.pop()
        for j in range(len(prod) - 5, len(prod) + 1):
            prod[j - 1] -= top
    prod += [0] * (6 - len(prod))
    assert a * b == CycloNum(7, tuple(prod), 1)


class TestRepresentations:
    def test_evaluate_on_group_ring(self):
        rep = representation(Z7, 7, [1])
        x = ring_sub(Z7, ONE_ELEM, generator_elem(Z7))
        assert evaluate_rep(rep, x) == cyclo_one(7) - zeta(7)
        assert evaluate_rep(rep, ZERO_ELEM) == cyclo_zero(7)

    def test_evaluate_free_product_word(self):
        rep = representation(FP77, 7, [1, 1])
        w = GroupWord(((0, 2), (1, 3)))
        assert evaluate_rep(rep, monomial(w)) == zeta(7, 5)

    def test_is_ring_homomorphism(self):
        rng = random.Random(11)
        for spec, exps in ((Z7, [2]), (FP77, [1, 3])):
            rep = representation(spec, 7, exps)
            for _ in range(100):
                a, b = random_elem(spec, rng), random_elem(spec, rng)
                assert evaluate_rep(rep, ring_mul(spec, a, b)) == cyclo_mul(
                    evaluate_rep(rep, a), evaluate_rep(rep, b)
                )

    def test_invalid_exponent_rejected(self):
        with pytest.raises(ValueError):
            representation(Z7, 12, [1])  # order 7 generator cannot go to zeta_12

    def test_unit_subgroup_sizes(self):
        assert len(unit_subgroup(representation(Z7, 7, [1])).elements) == 14
        assert len(unit_subgroup(representation(Z7, 7, [0])).elements) == 2
        assert len(unit_subgroup(representation(FP77, 7, [1, 1])).elements) == 14


class TestCanonicalRep:
    def test_orbit_invariance_exhaustive(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        u = cyclo_mul(cyclo_one(7) - zeta(7), cyclo_one(7) - zeta(7, 4))
        base = canonical_rep(u, units)
        for w in units.elements:
            assert canonical_rep(cyclo_mul(w, u), units) == base
        assert canonical_rep(base, units) == base  # idempotent

    def test_same_coset_examples(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        sq = cyclo_pow(cyclo_one(7) - zeta(7), 2)
        shifted = cyclo_mul(zeta(7, 3), sq)
        assert canonical_rep(shifted, units) == canonical_rep(sq, units)
        assert canonical_rep(cyclo_neg(sq), units) == canonical_rep(sq, units)
        assert torsion_class(cyclo_one(7), units) == torsion_class(zeta(7, 5), units)

    def test_zero_rejected(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        with pytest.raises(ZeroDivisionError):
            canonical_rep(cyclo_zero(7), units)
        with pytest.raises(ZeroDivisionError):
            torsion_class(cyclo_one(7), units) == torsion_class(cyclo_zero(7), units)

    def test_minimum_is_lexicographic(self):
        # reference order: coefficient vectors compared as rationals
        def fraction_key(a):
            return tuple(Fraction(c, a.den) for c in a.nums)

        for n in (7, 13, 31):
            units = unit_subgroup(representation(GroupSpec.cyclic(n), n, [1]))
            rng = random.Random(n)
            phi = euler_phi(n)
            samples = [cyclo_one(n) - zeta(n)]
            while len(samples) < 20:
                nums = tuple(rng.randint(-4, 4) for _ in range(phi))
                den = rng.randint(1, 6)
                u = CycloNum(n, nums, 1) * cyclo_fraction(n, Fraction(1, den))
                if u:
                    samples.append(u)
            samples.append(cyclo_inv(samples[-1]))
            for u in samples:
                orbit = [cyclo_mul(w, u) for w in units.elements]
                assert canonical_rep(u, units) == min(orbit, key=fraction_key)


def bfs_units(n, exponents):
    """The group generated by -1 and the zeta^e for e in ``exponents``, by
    breadth-first search through cyclo_mul.  It lies in {+-zeta^k}, so a
    search that finds more than 2n elements fails: a wrong cyclo_mul then
    fails the test instead of searching forever."""
    gens = [cyclo_neg(cyclo_one(n))] + [zeta(n, e) for e in exponents]
    elems = {cyclo_one(n)}
    frontier = list(elems)
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = cyclo_mul(u, g)
                if v not in elems:
                    elems.add(v)
                    nxt.append(v)
                    if len(elems) > 2 * n:
                        pytest.fail(f"more than 2n = {2 * n} products of -1 and zeta^e in Q(zeta_{n})")
        frontier = nxt
    return frozenset(elems)


def reference_unit_subgroup(rep):
    """+-rho(G) as an element set, by breadth-first search from -1 and the
    images zeta^e_i of the generators: the construction unit_subgroup's
    closed form replaced, kept as its reference."""
    return bfs_units(rep.modulus, rep.generator_exponents)


def reference_canonical_rep(u, units):
    """The orbit minimum with every point multiplied out by cyclo_mul."""
    return min((cyclo_mul(w, u) for w in units.elements), key=lambda a: a.nums)


def sample_values(n, count, seed):
    """1 - zeta, then nonzero values with small numerators and denominators."""
    rng = random.Random(seed)
    phi = euler_phi(n)
    out = [cyclo_one(n) - zeta(n)] if n > 1 else [cyclo_int(n, 3)]
    while len(out) < count:
        nums = tuple(rng.randint(-3, 3) for _ in range(phi))
        u = CycloNum(n, nums, 1) * cyclo_fraction(n, Fraction(1, rng.randint(1, 6)))
        if u:
            out.append(u)
    return out


def rep_id(rep):
    factors = "*".join(f"Z{m}" for m in rep.spec.factor_orders)
    return f"{factors}->z{rep.modulus}^{','.join(map(str, rep.generator_exponents))}"


def run_values(n):
    """Values whose difference sequences have long runs of equal entries, so
    that many starts of the least rotation tie: 1 + zeta + ... + zeta^k,
    every second or third power of zeta, their negatives, and a lens torsion
    value times a root of unity."""
    if n < 3:
        return []
    runs = [[1] * (k + 1) for k in sorted({1, 2, n // 2, n - 3})]
    runs += [([1] + [0] * (period - 1)) * (n // period) for period in (2, 3)]
    out = []
    for coeffs in runs:
        run = CycloNum(n, cyclofield._reduce_mod_phi(n, coeffs), 1)
        if run:
            out += [run, -run]
    q = next(q for q in range(2, n) if gcd(q, n) == 1)
    lens = lens_torsion(lens_params(n, q), 1).representative
    out += [lens, zeta(n, n // 3) * lens, -zeta(n, 1) * cyclo_inv(lens)]
    return out


def differential_reps():
    """Cyclic reps at each modulus, with exponents whose gcd with n exceeds 1
    among them, plus Z/3 -> zeta_12^4 and free products.  The prime powers
    (3, 5, 7, 8, 9, 13, 25, 27, 31, 49, 61, 127) take the least rotation,
    with steps g > 1 at 9, 25 and 27; 1, 6, 12 and 15 take the walk."""
    reps = []
    for n in (1, 2, 4, 6, 8, 9, 12, 15, 31, 61, 3, 5, 7, 13, 25, 27, 49, 127):
        exps = range(n) if n <= 15 else (0, 1, 2, n - 1)
        reps += [representation(GroupSpec.cyclic(n), n, [e]) for e in exps]
    reps += [
        representation(GroupSpec.cyclic(5), 25, [5]),
        representation(GroupSpec.cyclic(3), 27, [9]),
        representation(GroupSpec.cyclic(9), 27, [3]),
        representation(GroupSpec.cyclic(7), 49, [7]),
        representation(GroupSpec.cyclic(3), 12, [4]),
        representation(GroupSpec.cyclic(2), 12, [6]),
        representation(FP77, 7, [1, 1]),
        representation(FP77, 7, [0, 3]),
        representation(FP77, 7, [0, 0]),
        representation(GroupSpec.free_product([2, 3]), 6, [3, 2]),
        representation(GroupSpec.free_product([3, 5]), 15, [5, 0]),
    ]
    return reps


class TestUnitsActByRotation:
    """The closed-form unit group and the orbit walk against the cyclo_mul
    constructions they replaced."""

    @pytest.mark.parametrize("rep", differential_reps(), ids=rep_id)
    def test_unit_subgroup_matches_bfs(self, rep):
        units = unit_subgroup(rep)
        assert units.elements == reference_unit_subgroup(rep)
        m = rep.modulus // gcd(rep.modulus, *rep.generator_exponents)
        # -1 = zeta^(n/2) is already a power of zeta^g exactly when m is even
        assert len(units.elements) == (m if m % 2 == 0 else 2 * m)

    @pytest.mark.parametrize("rep", differential_reps(), ids=rep_id)
    def test_canonical_rep_matches_products(self, rep):
        n = rep.modulus
        units = unit_subgroup(rep)
        for u in sample_values(n, 3 if n > 15 else 6, n) + run_values(n):
            rep_u = canonical_rep(u, units)
            assert rep_u == reference_canonical_rep(u, units)
            # the walk, the general path, agrees with the least rotation
            assert rep_u.nums == cyclofield._orbit_walk(u.nums, n, units.step)

    def test_twists_share_one_group(self):
        groups = {unit_subgroup(representation(GroupSpec.cyclic(13), 13, [d])) for d in range(1, 13)}
        assert groups == {UnitSubgroup(13, 1)}

    def test_no_cyclo_mul_at_p61(self, monkeypatch):
        for value in vars(cyclofield).values():
            if hasattr(value, "cache_clear"):
                value.cache_clear()
        calls = []
        mul = cyclofield.cyclo_mul

        def counted(a, b):
            calls.append(1)
            return mul(a, b)

        u, v = sample_values(61, 2, 61)
        monkeypatch.setattr(cyclofield, "cyclo_mul", counted)
        units = unit_subgroup(representation(GroupSpec.cyclic(61), 61, [2]))
        canonical_rep(u, units)
        torsion_class(u, units) == torsion_class(v, units)
        assert len(units.elements) == 122 and calls == []
        u * v  # the counter sees products made through the operator too
        assert calls == [1]

    def test_hand_built_group_accepted(self):
        # +-<zeta_6^2> is all of mu_6, so it is the group for step 1 as well
        units = UnitSubgroup(6, 2)
        assert units == unit_subgroup(representation(GroupSpec.cyclic(6), 6, [1]))
        assert units.step == 1
        u = cyclo_int(6, 2) - zeta(6)
        assert canonical_rep(u, units) == reference_canonical_rep(u, units)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_step_normalisation(self, n):
        """Two steps give equal groups exactly when they generate the same
        element set with -1; the step is the least k with zeta^k inside."""
        groups = {k: (UnitSubgroup(n, k), bfs_units(n, [k])) for k in range(-1, n + 1)}
        for units, elems in groups.values():
            assert units.elements == elems
            assert units.step == min(j for j in range(1, n + 1) if zeta(n, j) in elems)
            for units2, elems2 in groups.values():
                assert (units == units2) == (elems == elems2)
                if units == units2:
                    assert hash(units) == hash(units2)

    @pytest.mark.parametrize("n", [0, -6])
    def test_modulus_below_one_rejected(self, n):
        with pytest.raises(ValueError):
            UnitSubgroup(n, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_canonical_rep_is_a_class_function(self, data):
        n = data.draw(st.sampled_from([6, 12, 31, 61]), label="n")
        units = UnitSubgroup(n, data.draw(st.integers(0, n), label="step"))
        nums = data.draw(
            st.lists(st.integers(-3, 3), min_size=euler_phi(n), max_size=euler_phi(n)).filter(any),
            label="nums",
        )
        u = CycloNum(n, tuple(nums), 1) * cyclo_fraction(n, Fraction(1, data.draw(st.integers(1, 6))))
        w = data.draw(st.sampled_from(sorted(units.elements, key=lambda a: a.nums)), label="w")
        assert canonical_rep(w * u, units) == canonical_rep(u, units)

    def test_modulus_mismatch_rejected(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        with pytest.raises(ModulusMismatchError):
            canonical_rep(cyclo_one(13) - zeta(13), units)


class TestTorsionClassEq:
    @pytest.mark.parametrize(
        "rep",
        [
            representation(Z7, 7, [1]),
            representation(Z7, 7, [0]),
            representation(GroupSpec.cyclic(12), 12, [1]),
            representation(GroupSpec.cyclic(3), 12, [4]),
            representation(GroupSpec.cyclic(31), 31, [1]),
        ],
        ids=rep_id,
    )
    def test_matches_division(self, rep):
        """Comparing canonical representatives agrees with u/v in units."""
        n = rep.modulus
        units = unit_subgroup(rep)
        values = sample_values(n, 4, n + 1)
        shifts = [zeta(n, 1), -zeta(n, 3), cyclo_one(n) - zeta(n)] + sorted(units.elements, key=lambda w: w.nums)[:2]
        seen = set()
        for u in values:
            for v in values + [w * u for w in shifts]:
                same = torsion_class(u, units) == torsion_class(v, units)
                assert same == (cyclo_mul(u, cyclo_inv(v)) in units.elements)
                seen.add(same)
        assert seen == {True, False}


    def test_unit_twist_is_equal(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        u = cyclo_mul(cyclo_one(7) - zeta(7), cyclo_one(7) - zeta(7, 4))
        v = cyclo_mul(zeta(7, 2), u)
        assert torsion_class(u, units) == torsion_class(v, units)
        assert torsion_class(u, units) == torsion_class(u, units)

    def test_lens_inequality_for_all_l(self):
        # (1 - zeta)(1 - zeta^4) is never +-zeta^k (1 - zeta^l)^2
        units = unit_subgroup(representation(Z7, 7, [1]))
        u = cyclo_mul(cyclo_one(7) - zeta(7), cyclo_one(7) - zeta(7, 4))
        for l in range(1, 7):
            v = cyclo_pow(cyclo_one(7) - zeta(7, l), 2)
            assert torsion_class(u, units) != torsion_class(v, units)

    def test_class_multiplication_and_inverse(self):
        units = unit_subgroup(representation(Z7, 7, [1]))
        a = torsion_class(cyclo_one(7) - zeta(7), units)
        b = torsion_class(cyclo_one(7) - zeta(7, 2), units)
        prod = a * b
        assert prod == torsion_class(
            cyclo_mul(cyclo_one(7) - zeta(7), cyclo_one(7) - zeta(7, 2)), units
        )
        assert (a * a.inverse()).is_trivial()


def test_rendering():
    x = cyclo_add(cyclo_int(7, 2), cyclo_mul(cyclo_fraction(7, Fraction(-3, 7)), cyclo_pow(zeta(7), 2)))
    assert cyclo_str(x) == "2 - 3/7*z^2 (mod Phi_7)"
    assert cyclo_str(cyclo_zero(7)) == "0 (mod Phi_7)"
    assert cyclo_str(zeta(7)) == "z (mod Phi_7)"


# --- the lift Z[x]/(x^n - 1) against the row arithmetic it replaced ---

LIFT_MODULI = [1, 2, 3, 4, 6, 8, 9, 12, 15, 30, 31, 61, 127]


def reference_reduce(n, coeffs):
    """Clear every coefficient above x^phi from the top by Phi_n, without
    folding mod x^n - 1 first: the reduction the fold replaced."""
    phi = euler_phi(n)
    mod = cyclotomic_polynomial(n)
    tmp = list(coeffs) + [0] * max(phi - len(coeffs), 0)
    for k in range(len(tmp) - 1, phi - 1, -1):
        c = tmp[k]
        if c:
            for j in range(phi):
                tmp[k - phi + j] -= c * mod[j]
    return tmp[:phi]


def reference_power_row(n, k):
    return reference_reduce(n, [0] * (k % n) + [1])


def from_fractions(n, coeffs):
    """The CycloNum with these rational power-basis coordinates, built
    without the library's normalisation: the least common denominator."""
    den = lcm(*(q.denominator for q in coeffs))
    return CycloNum(n, tuple(int(q * den) for q in coeffs), den)


def reference_mul(a, b):
    """Schoolbook product, then the unfolded reduction."""
    prod = reference_reduce(a.n, poly_mul(list(a.nums), list(b.nums)))
    return from_fractions(a.n, [Fraction(c, a.den * b.den) for c in prod])


def reference_evaluate_rep(rep, x):
    """rho(x) as the sum of one reduced row zeta^e per term."""
    n = rep.modulus
    acc = [0] * euler_phi(n)
    for w, c in terms_of(x).terms:
        validate_word(rep.spec, w)
        e = sum(exp * rep.generator_exponents[f] for f, exp in w.letters)
        for i, r in enumerate(reference_power_row(n, e)):
            acc[i] += c * r
    return CycloNum(n, tuple(acc), 1)


def reference_galois_conjugate(a, k):
    """zeta^j -> zeta^(jk) as one reduced row per coefficient."""
    n = a.n
    acc = [0] * euler_phi(n)
    for j, c in enumerate(a.nums):
        for i, r in enumerate(reference_power_row(n, j * k)):
            acc[i] += c * r
    return from_fractions(n, [Fraction(c, a.den) for c in acc])


def lift_values(n, count, seed):
    """Zero, an integer, zeta and values with large coefficients over
    denominators above 1."""
    rng = random.Random(seed)
    phi = euler_phi(n)
    out = [cyclo_zero(n), cyclo_int(n, -3), zeta(n)]
    while len(out) < count:
        nums = tuple(rng.randint(-10**6, 10**6) for _ in range(phi))
        out.append(CycloNum(n, nums, 1) * cyclo_fraction(n, Fraction(1, rng.randint(1, 30))))
    return out


@pytest.mark.parametrize("n", LIFT_MODULI)
class TestLift:
    def test_reduction_matches_unfolded(self, n):
        rng = random.Random(n)
        for length in (1, euler_phi(n), n, 2 * euler_phi(n) - 1, 2 * n + 3, 3 * n):
            coeffs = [rng.randint(-99, 99) for _ in range(length)]
            assert list(cyclofield._reduce_mod_phi(n, coeffs)) == reference_reduce(n, coeffs)

    def test_zeta_powers(self, n):
        for k in range(-n, 2 * n + 1):
            assert zeta(n, k).nums == tuple(reference_power_row(n, k))

    def test_mul_matches_schoolbook(self, n):
        values = lift_values(n, 5 if n > 60 else 8, n)
        for a in values:
            for b in values:
                assert cyclo_mul(a, b) == reference_mul(a, b)

    def test_mul_sub_matches_two_products(self, n):
        """The elimination's update p*a - f*b on integer numerators, with
        zero operands and large coefficients; p, f and b go in as their
        nonzero terms."""
        values = [CycloNum(n, x.nums, 1) for x in lift_values(n, 4 if n > 60 else 6, n + 1)]
        rng = random.Random(n)

        def terms(x):
            return [(i, c) for i, c in enumerate(x.nums) if c]

        for _ in range(12 if n > 60 else 60):
            p, a, f, b = (rng.choice(values) for _ in range(4))
            got = CycloNum(n, cyclofield.terms_mul_sub(n, terms(p), a.nums, terms(f), terms(b)), 1)
            assert got == p * a - f * b
            assert got == cyclo_add(reference_mul(p, a), cyclo_neg(reference_mul(f, b)))

    def test_galois_conjugate_matches_rows(self, n):
        for a in lift_values(n, 4, n + 2):
            for k in units(n):
                assert galois_conjugate(a, k) == reference_galois_conjugate(a, k)
                assert galois_conjugate(a, k - n) == galois_conjugate(a, k)

    def test_evaluate_rep_matches_rows(self, n):
        rng = random.Random(n)
        for e in sorted({0, 1, n // 2, n - 1, rng.randrange(n)}):
            rep = representation(GroupSpec.cyclic(n), n, [e])
            assert evaluate_rep(rep, ZERO_ELEM) == cyclo_zero(n)
            for _ in range(20):
                x = random_elem(rep.spec, rng, terms=4, span=5)
                assert evaluate_rep(rep, x) == reference_evaluate_rep(rep, x)


@pytest.mark.parametrize(
    "rep",
    [
        representation(GroupSpec.cyclic(3), 12, [4]),
        representation(GroupSpec.cyclic(5), 30, [12]),
        representation(GroupSpec.cyclic(1), 9, [0]),
        representation(FP77, 7, [1, 3]),
        representation(FP77, 7, [0, 0]),
        representation(GroupSpec.free_product([2, 3]), 6, [3, 2]),
        representation(GroupSpec.free_product([2, 3, 5]), 30, [15, 10, 6]),
        representation(GroupSpec.free_product([3, 5]), 15, [5, 0]),
    ],
    ids=rep_id,
)
def test_evaluate_rep_matches_rows_beyond_the_regular_rep(rep):
    rng = random.Random(rep.modulus)
    assert evaluate_rep(rep, ZERO_ELEM) == cyclo_zero(rep.modulus)
    for _ in range(40):
        x = random_elem(rep.spec, rng, terms=4, span=5)
        assert evaluate_rep(rep, x) == reference_evaluate_rep(rep, x)


@pytest.mark.parametrize(
    "rep, letters",
    [
        (representation(Z7, 7, [1]), ((0, 0),)),
        (representation(Z7, 7, [1]), ((0, 7),)),
        (representation(Z7, 7, [1]), ((0, -1),)),
        (representation(Z7, 7, [1]), ((1, 1),)),
        (representation(Z7, 7, [1]), ((0, 1), (0, 2))),
        (representation(GroupSpec.cyclic(1), 7, [0]), ((0, 1),)),
        (representation(FP77, 7, [1, 1]), ((0, 1), (0, 2))),
        (representation(FP77, 7, [1, 1]), ((2, 1),)),
        (representation(FP77, 7, [1, 1]), ((1, 7),)),
        (representation(GroupSpec.cyclic(12), 4, [1]), ((0, 12),)),
    ],
    ids=lambda v: rep_id(v) if hasattr(v, "spec") else str(v),
)
def test_evaluate_rep_rejects_invalid_words(rep, letters):
    """evaluate_rep and rep_vector refuse a word with the class and text of
    the word readers: map_form's over Z/m, validate_word's over a free
    product."""
    x = elem_from_dict({GroupWord(letters): 2, GroupWord(): 1})
    with pytest.raises(InvalidWordError) as want:
        if rep.spec.kind == "cyclic":
            map_form(rep.spec, x)
        else:
            validate_word(rep.spec, GroupWord(letters))
    for reader in (evaluate_rep, rep_vector):
        with pytest.raises(InvalidWordError) as got:
            reader(rep, x)
        assert type(got.value) is type(want.value)
        assert str(got.value) == str(want.value)


def rep_vector_families():
    """(spec, modulus) pairs whose every representation rep_vector is
    checked on: Z/n under n for n in 1, 2, 7, 12, 13, 15, Z/12 under the
    smaller moduli 4 and 6, and Z/5 * Z/5 under 5."""
    for n in (1, 2, 7, 12, 13, 15):
        yield GroupSpec.cyclic(n), n
    for m in (4, 6):
        yield GroupSpec.cyclic(12), m
    yield GroupSpec.free_product([5, 5]), 5


def family_id(family):
    spec, n = family
    return f"{spec.kind}{list(spec.factor_orders)}-n{n}"


def every_rep(spec, n):
    """Every representation of spec into Q(zeta_n)."""
    exps = [()]
    for m in spec.factor_orders:
        exps = [es + (e,) for es in exps for e in range(n) if m * e % n == 0]
    return [representation(spec, n, es) for es in exps]


class TestRepVector:
    """rep_vector, the elimination's reader, against the sum of reduced
    rows and against evaluate_rep; for refused words see
    test_evaluate_rep_rejects_invalid_words."""

    @pytest.mark.parametrize("family", list(rep_vector_families()), ids=family_id)
    def test_matches_rows_and_evaluate_rep(self, family):
        spec, n = family
        rng = random.Random(f"rep_vector/{family_id(family)}")
        reps = every_rep(spec, n)
        assert len(reps) == (25 if spec.kind == "free_product" else n)
        for rep in reps:
            assert rep_vector(rep, ZERO_ELEM) == cyclo_zero(n).nums
            for _ in range(12):
                x = random_elem(spec, rng, terms=4, span=5)
                got = rep_vector(rep, x)
                assert type(got) is tuple
                assert got == reference_evaluate_rep(rep, x).nums
                assert got == evaluate_rep(rep, x).nums

    def test_refusal_text_over_z7(self):
        x = elem_from_dict({GroupWord(((0, 7),)): 1})
        with pytest.raises(InvalidWordError, match=r"^not a reduced word of Z/7: \(\(0, 7\),\)$"):
            rep_vector(representation(Z7, 7, [1]), x)


def linear_pow(a, k):
    """a^k as |k| products, of 1/a for negative k."""
    base = cyclo_inv(a) if k < 0 else a
    out = cyclo_one(a.n)
    for _ in range(abs(k)):
        out = cyclo_mul(out, base)
    return out


@pytest.mark.parametrize("n", [1, 7, 12])
def test_pow_matches_repeated_products(n):
    values = [cyclo_int(n, 2), zeta(n), cyclo_one(n) - zeta(n, 5) * cyclo_fraction(n, Fraction(2, 3))]
    for a in values:
        for k in range(-20, 21):
            if a or k >= 0:
                assert cyclo_pow(a, k) == linear_pow(a, k)
    assert cyclo_pow(cyclo_zero(n), 0) == cyclo_one(n)
    with pytest.raises(ZeroDivisionError):
        cyclo_pow(cyclo_zero(n), -1)


def test_large_power_takes_logarithmically_many_products(monkeypatch):
    calls = []
    mul = cyclofield.cyclo_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(cyclofield, "cyclo_mul", counted)
    k = 10**6
    assert cyclo_pow(zeta(7), k) == zeta(7, k % 7)
    assert len(calls) <= 2 * k.bit_length()


# --- the inverse by Itoh-Tsujii chains, and the hand-written constructors ---


def inverse_samples(n, count, seed):
    """Units of Q(zeta_n) with denominators: dense random values, a
    rational, and +-zeta^k, the values lens torsion inverts."""
    rng = random.Random(seed)
    phi = euler_phi(n)
    out = [cyclo_fraction(n, Fraction(-3, 4)), cyclo_neg(zeta(n, rng.randrange(n)))]
    while len(out) < count:
        nums = tuple(rng.randint(-2**10, 2**10) for _ in range(phi))
        a = cyclo_mul(CycloNum(n, nums, 1), cyclo_fraction(n, Fraction(1, rng.randint(1, 30))))
        if a:
            out.append(a)
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 12, 15, 31, 61, 127])
def test_inverse_matches_sequential_product(n):
    """8, 12 and 15 have non-cyclic unit groups, so several chains."""
    for a in inverse_samples(n, 3 if n > 60 else 8, seed=n):
        inv = cyclo_inv(a)
        assert inv == sequential_inverse(a)
        assert cyclo_mul(a, inv) == cyclo_one(n)


@pytest.mark.parametrize(
    "n, products",
    [(1, 0), (2, 0), (3, 1), (4, 1), (7, 4), (12, 3), (13, 6), (15, 5), (61, 10)],
)
def test_inverse_makes_no_product_by_one(monkeypatch, n, products):
    """The first chain's product starts the product of conjugates, so an
    inverse makes only the chains' own products and one per chain for the
    norm; n = 1 and 2 have no chains and make none."""
    calls = []
    mul = cyclofield.cyclo_mul

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    for a in inverse_samples(n, 3, seed=n):
        monkeypatch.setattr(cyclofield, "cyclo_mul", counted)
        calls.clear()
        inv = cyclo_inv(a)
        assert len(calls) == products
        monkeypatch.undo()
        assert inv == sequential_inverse(a)
        assert cyclo_mul(inv, a) == cyclo_one(n)


@pytest.mark.parametrize("n", [8, 12, 15])
def test_non_cyclic_unit_groups_take_several_chains(n):
    assert len(unit_chains(n)) == 2


def test_unit_chains_cover_each_unit_once():
    """Every unit mod n is exactly one product of d_j^i_j, 0 <= i_j < o_j."""
    for n in range(1, 201):
        products = [1 % n]
        for d, o in unit_chains(n):
            assert o >= 2 and gcd(d, n) == 1
            products = [h * pow(d, i, n) % n for h in products for i in range(o)]
        assert sorted(products) == list(units(n)), n


CONSTRUCTED = [
    CycloNum(7, (1, -2, 0, 0, 3, 0), 5),
    cyclo_zero(12),
    GroupWord(((0, 2), (1, 1))),
    GroupWord(),
    GroupRingElem({(): 3, ((0, 1),): -1}),
    GroupRingElem(),
]


@pytest.mark.parametrize("value", CONSTRUCTED, ids=repr)
def test_constructed_values_stay_frozen_values(value):
    field = dataclasses.fields(value)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(value, field, getattr(value, field))
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and hash(copy) == hash(value) and repr(copy) == repr(value)
    again = dataclasses.replace(value)
    assert again == value and hash(again) == hash(value) and again is not value
    assert type(value)(**{f.name: getattr(value, f.name) for f in dataclasses.fields(value)}) == value


def test_cyclonum_constructor_keeps_its_checks():
    with pytest.raises(ValueError, match="^coefficient vector has wrong length$"):
        CycloNum(7, (1, 2), 1)
    with pytest.raises(ValueError, match="^denominator must be positive$"):
        CycloNum(7, (0,) * 6, 0)
    with pytest.raises(ValueError, match="^denominator must be positive$"):
        dataclasses.replace(CycloNum(7, (1,) * 6, 2), den=-1)
    assert dataclasses.replace(CycloNum(7, (1,) * 6, 2), den=3) == CycloNum(7, (1,) * 6, 3)


def test_default_constructors_build_the_identity_and_zero():
    assert GroupWord() == GroupWord(()) and not GroupWord()
    assert GroupRingElem() == ZERO_ELEM and not GroupRingElem()


def test_zero_is_shared_per_modulus():
    assert cyclo_zero(7) is cyclo_zero(7) is evaluate_rep(representation(Z7, 7, [1]), ZERO_ELEM)
    assert cyclo_zero(12) != cyclo_zero(7)


# --- twist classes from the permuted lift, against the reduce-then-walk path ---

CONJUGATE_PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 25, 27, 49, 61, 127]
CONJUGATE_OTHER = [1, 12, 15]  # these keep torsion_class(galois_conjugate(...))


def unit_groups(n):
    """Every unit group +-<zeta_n^g>, one per distinct step, g = n included."""
    return sorted({UnitSubgroup(n, k) for k in range(n + 1)}, key=lambda u: u.step)


def conjugate_classes(n):
    """Classes over every unit group of values with denominators, runs of
    equal differences and lens torsion."""
    values = sample_values(n, 3 if n > 30 else 6, 3 * n) + run_values(n)
    return [torsion_class(u, units) for units in unit_groups(n) for u in values]


class TestConjugateFromLift:
    @pytest.mark.parametrize("n", CONJUGATE_PRIME_POWERS + CONJUGATE_OTHER)
    def test_matches_conjugate_then_class(self, n):
        for cls in conjugate_classes(n):
            for d in units(n):
                expected = torsion_class(galois_conjugate(cls.representative, d), cls.units)
                got = cls.conjugate(d)
                assert got == expected
                assert got.representative.den == cls.representative.den
                assert cls.conjugate(d + n) == got and cls.conjugate(d - n) == got

    def test_steps_above_one_are_covered(self):
        assert {u.step for n in CONJUGATE_PRIME_POWERS for u in unit_groups(n)} >= {2, 3, 5, 7, 9, 25}
        assert any(cls.representative.den > 1 for cls in conjugate_classes(25))

    @pytest.mark.parametrize("n", CONJUGATE_PRIME_POWERS + CONJUGATE_OTHER)
    def test_canonical_rep_only_off_prime_powers(self, n, monkeypatch):
        """A prime power conjugates without reducing mod Phi_n or walking an
        orbit; n = 1 and composite n go through canonical_rep per twist."""
        classes = conjugate_classes(n)[:4]
        calls = []
        walk = cyclofield.canonical_rep

        def counted(u, units):
            calls.append(1)
            return walk(u, units)

        monkeypatch.setattr(cyclofield, "canonical_rep", counted)
        twists = [d for d in units(n) if d % n != 1 % n]
        for cls in classes:
            for d in twists:
                cls.conjugate(d)
        assert len(calls) == (0 if cyclofield._prime_power_stride(n) else len(classes) * len(twists))

    @pytest.mark.parametrize("n", [9, 25, 12, 15])
    def test_non_unit_rejected_with_one_text(self, n):
        cls = conjugate_classes(n)[0]
        for d in (0, n // 3 if n % 3 == 0 else 5, n):
            with pytest.raises(ValueError) as exc:
                cls.conjugate(d)
            assert str(exc.value) == f"{d} is not coprime to {n}"

    @pytest.mark.parametrize("n", [7, 49])
    def test_least_rotation_takes_any_lift(self, n):
        """Adding a multiple of Phi_n's kernel vector, a constant on each
        residue class mod m, changes the lift but not the representative."""
        m = cyclofield._prime_power_stride(n)
        rng = random.Random(n)
        for cls in conjugate_classes(n):
            nums = cls.representative.nums
            lift = nums + (0,) * m
            shift = [rng.randint(-5, 5) for _ in range(m)]
            other = [c + shift[i % m] for i, c in enumerate(lift)]
            step = cls.units.step
            assert cyclofield._least_rotation(other, n, m, step) == list(nums)
            assert cyclofield._least_rotation(lift, n, m, step) == list(nums)


# --- cyclo_str from per-modulus power names, against the term-by-term renderer ---


def render_values(n, seed):
    """Seeded values over small and composite moduli: zero, +-1 at z^0, z
    and z^2, negative leading terms, and denominators sharing part of their
    factors with some coefficients."""
    phi = euler_phi(n)
    rng = random.Random(seed)
    out = [cyclo_zero(n), cyclo_one(n), -cyclo_one(n), cyclo_int(n, 10), cyclo_int(n, -11)]
    for j in range(min(phi, 3)):
        for c in (1, -1, 12, -12):
            for den in (1, 2, 12):
                nums = [0] * phi
                nums[j] = c
                out.append(cyclofield._make(n, nums, den))
                if phi > j + 1:
                    nums[-1] = 7
                    out.append(cyclofield._make(n, nums, den))
    for _ in range(40):
        nums = [rng.choice([0, 0, 1, -1, 1, -1, 2, -3, 4, 6, -9, 12, 11]) for _ in range(phi)]
        out.append(cyclofield._make(n, nums, rng.choice([1, 1, 2, 3, 4, 6, 12, 35, 60])))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 7, 9, 12, 15, 61])
def test_cyclo_str_matches_reference(n):
    values = render_values(n, n)
    assert {a.den > 1 for a in values} == {False, True}
    for a in values:
        assert cyclo_str(a) == reference_cyclo_str(a)


def test_cyclo_str_cases():
    assert cyclo_str(cyclofield._make(7, [1, -1, 1, 0, -1, 0], 1)) == "1 - z + z^2 - z^4 (mod Phi_7)"
    assert cyclo_str(cyclofield._make(7, [-1, 0, 0, 0, 0, 1], 1)) == "-1 + z^5 (mod Phi_7)"
    assert cyclo_str(cyclofield._make(7, [0, -1, 0, 0, 0, 11], 1)) == "-z + 11*z^5 (mod Phi_7)"
    assert cyclo_str(cyclofield._make(7, [4, 2, -1, 0, 0, 0], 4)) == "1 + 1/2*z - 1/4*z^2 (mod Phi_7)"
    assert cyclo_str(cyclofield._make(5, [0, 0, -6, 0], 6)) == "-z^2 (mod Phi_5)"
    assert cyclo_str(cyclo_int(1, -1)) == "-1 (mod Phi_1)"
    assert cyclo_str(cyclo_fraction(2, Fraction(-3, 2))) == "-3/2 (mod Phi_2)"
    assert cyclo_str(cyclo_zero(2)) == "0 (mod Phi_2)"
