import json
import random
import time

import pytest

from torsionkit.grouprings import (
    GroupSpec,
    GroupWord,
    elem_from_dict,
    generator_word,
    monomial,
    word_inverse,
)
from torsionkit.cyclofield import representation
from torsionkit.chaincomplex import (
    RankLimitError,
    ShapeMismatchError,
    based_complex,
    complex_to_obj,
    dumps_canonical,
    validate,
)
from torsionkit.torsion import fingerprint, fingerprints_equivalent, reidemeister_torsion
from torsionkit import simpleops
from torsionkit.simpleops import (
    DeckTransform,
    Expansion,
    HandleSlide,
    InvalidOpError,
    MAX_CERT_OPS,
    MAX_TOTAL_RANK,
    OpCertificate,
    OpLimitError,
    Retraction,
    apply_op,
    cert_from_obj,
    cert_to_obj,
    ops_from_obj,
    random_op_sequence,
    replay,
    replay_end,
    retractable_positions,
)
from torsionkit.lensspaces import lens_complex, lens_params

from helpers import random_acyclic_complex

Z7 = GroupSpec.cyclic(7)
FP77 = GroupSpec.free_product([7, 7])
REPS = [representation(Z7, 7, [d]) for d in range(1, 7)]


class TestInversePairs:
    def test_expansion_then_retraction(self):
        c = lens_complex(lens_params(7, 2))
        for degree in range(-1, 4):
            for position in range(min(c.rank(degree), c.rank(degree + 1)) + 1):
                expanded = apply_op(c, Expansion(degree, position))
                validate(expanded)
                assert expanded.total_rank() == c.total_rank() + 2
                assert apply_op(expanded, Retraction(degree, position)) == c

    def test_deck_and_inverse(self):
        c = lens_complex(lens_params(7, 1))
        w = generator_word(Z7, 0, 4)
        once = apply_op(c, DeckTransform(2, 0, w))
        assert once != c
        back = apply_op(once, DeckTransform(2, 0, word_inverse(Z7, w)))
        assert back == c

    def test_slide_and_inverse(self):
        c = apply_op(lens_complex(lens_params(7, 2)), Expansion(1, 0))
        x = monomial(generator_word(Z7, 0, 5), 3)
        slid = apply_op(c, HandleSlide(1, 0, 1, x))
        validate(slid)
        assert apply_op(slid, HandleSlide(1, 0, 1, -x)) == c


class TestNoncommutativeConvention:
    """Hand-computed updates over Z[Z/7 * Z/7] pin the one-sided products:
    coefficients act on the left of basis vectors, so slides and decks
    left-multiply outgoing columns and right-multiply incoming rows."""

    def setup_method(self):
        self.fp = GroupSpec.free_product([7, 7])
        self.a = monomial(GroupWord(((0, 1),)))
        self.b = monomial(GroupWord(((1, 1),)))

    def test_slide_outgoing_left_multiplies(self):
        from torsionkit.chaincomplex import based_complex
        from torsionkit.grouprings import ring_add, ring_mul

        c = based_complex(self.fp, 0, (2, 1), [((self.a, self.b),)])
        slid = apply_op(c, HandleSlide(0, 0, 1, self.a))
        # x0' = x0 + a*x1: column 0 becomes a + a*b, never b*a
        expected = ring_add(self.a, ring_mul(self.fp, self.a, self.b))
        assert slid.diff(0)[0][0] == expected

    def test_slide_incoming_right_multiplies(self):
        from torsionkit.chaincomplex import based_complex, validate
        from torsionkit.grouprings import ZERO_ELEM, ring_mul

        c = based_complex(
            self.fp, 0, (1, 2, 1),
            [((self.a,), (ZERO_ELEM,)), ((ZERO_ELEM, self.b),)],
        )
        validate(c)
        slid = apply_op(c, HandleSlide(1, 0, 1, self.b))
        validate(slid)
        assert slid.diff(1)[0][0] == ring_mul(self.fp, self.b, self.b)
        assert slid.diff(0)[1][0] == -ring_mul(self.fp, self.a, self.b)

    def test_deck_scales_column_left_and_row_right(self):
        from torsionkit.chaincomplex import based_complex, validate
        from torsionkit.grouprings import ONE_ELEM, ZERO_ELEM, ring_mul

        c = based_complex(self.fp, 0, (2, 1), [((self.a, self.b),)])
        decked = apply_op(c, DeckTransform(0, 1, GroupWord(((1, 1),))))
        assert decked.diff(0)[0][1] == ring_mul(self.fp, self.b, self.b)
        c2 = based_complex(
            self.fp, 0, (1, 2, 1),
            [((self.a,), (ZERO_ELEM,)), ((ZERO_ELEM, self.b),)],
        )
        moved = apply_op(c2, DeckTransform(1, 0, GroupWord(((0, 1),))))
        validate(moved)
        assert moved.diff(0)[0][0] == ONE_ELEM  # a right-multiplied by a^-1


class TestOpValidity:
    def test_all_ops_preserve_d_squared_zero(self):
        # free-product entries grow under slides (words never collapse), so
        # the stepwise-validated sequence is kept shorter there
        rng = random.Random(103)
        for spec, length in ((Z7, 60), (FP77, 18)):
            c = random_acyclic_complex(spec, rng, summands=2, scramble_steps=4)
            cert = random_op_sequence(c, length, seed=11)
            step = cert.start
            for op in cert.ops:
                step = apply_op(step, op)
                validate(step)
            assert step == cert.end

    def test_rank_bookkeeping(self):
        c = lens_complex(lens_params(7, 1))
        assert apply_op(c, Expansion(0, 0)).total_rank() == c.total_rank() + 2
        expanded = apply_op(c, Expansion(0, 0))
        assert apply_op(expanded, Retraction(0, 0)).total_rank() == c.total_rank()
        same_rank_ops = [
            HandleSlide(0, 0, 1, monomial(generator_word(Z7, 0, 1))),
            DeckTransform(0, 0, generator_word(Z7, 0, 2)),
        ]
        for op in same_rank_ops:
            assert apply_op(expanded, op).total_rank() == expanded.total_rank()

    def test_invalid_ops_rejected(self):
        c = lens_complex(lens_params(7, 1))
        with pytest.raises(InvalidOpError):
            apply_op(c, HandleSlide(0, 0, 0, monomial(generator_word(Z7))))
        with pytest.raises(InvalidOpError):
            apply_op(c, HandleSlide(0, 0, 5, monomial(generator_word(Z7))))
        with pytest.raises(InvalidOpError):
            apply_op(c, DeckTransform(0, 3, generator_word(Z7)))
        with pytest.raises(InvalidOpError):
            apply_op(c, Expansion(0, 9))
        with pytest.raises(InvalidOpError):
            apply_op(c, Retraction(0, 0))  # pivot is 1 - t^r, not a unit monomial

    def test_retraction_requires_unlinked_block(self):
        c = apply_op(lens_complex(lens_params(7, 2)), Expansion(1, 0))
        assert retractable_positions(c, 1) == [0]
        # slide couples the new summand to the old basis: no longer retractable
        slid = apply_op(c, HandleSlide(1, 1, 0, monomial(generator_word(Z7))))
        assert retractable_positions(slid, 1) == []
        with pytest.raises(InvalidOpError):
            apply_op(slid, Retraction(1, 0))


class TestReplay:
    def test_empty_certificate(self):
        c = lens_complex(lens_params(7, 2))
        assert replay(OpCertificate(c, (), c))
        assert not replay(OpCertificate(c, (), apply_op(c, Expansion(0, 0))))

    def test_recorded_sequences_replay(self):
        c = lens_complex(lens_params(7, 2))
        for seed in range(10):
            assert replay(random_op_sequence(c, 35, seed))

    def test_tampered_end_detected(self):
        cert = random_op_sequence(lens_complex(lens_params(7, 2)), 20, 3)
        tampered = OpCertificate(
            cert.start, cert.ops, apply_op(cert.end, DeckTransform(0, 0, generator_word(Z7)))
        )
        assert not replay(tampered)

    def test_invalid_step_reports_index(self):
        c = lens_complex(lens_params(7, 2))
        ops = (Expansion(1, 0), Retraction(1, 0), Retraction(1, 0))
        with pytest.raises(InvalidOpError) as exc:
            replay(OpCertificate(c, ops, c))
        assert "step 2" in str(exc.value)


class TestRandomOpSequence:
    def test_deterministic_per_seed(self):
        c = lens_complex(lens_params(7, 2))
        a = random_op_sequence(c, 50, 12345)
        b = random_op_sequence(c, 50, 12345)
        assert a == b
        other = random_op_sequence(c, 50, 54321)
        assert other.end != a.end or other.ops != a.ops

    def test_zero_length(self):
        c = lens_complex(lens_params(7, 1))
        cert = random_op_sequence(c, 0, 9)
        assert cert.start == cert.end and not cert.ops

    def test_growth_stays_bounded(self):
        c = lens_complex(lens_params(7, 1))
        cert = random_op_sequence(c, 100, 7, max_growth=8)
        assert cert.end.total_rank() <= c.total_rank() + 8 + 2

    def test_fingerprint_preserved(self):
        c = lens_complex(lens_params(7, 2))
        base = fingerprint(c, REPS)
        for seed in (1, 2):
            cert = random_op_sequence(c, 50, seed)
            assert fingerprints_equivalent(base, fingerprint(cert.end, REPS))

    def test_free_product_torsion_preserved(self):
        rng = random.Random(107)
        rep = representation(FP77, 7, [1, 1])
        c = random_acyclic_complex(FP77, rng, summands=2)
        t0 = reidemeister_torsion(c, rep)
        for seed in range(5):
            cert = random_op_sequence(c, 40, seed)
            assert reidemeister_torsion(cert.end, rep) == t0


class TestCertificateFormat:
    def test_round_trip_all_op_kinds(self):
        c = lens_complex(lens_params(7, 2))
        x = elem_from_dict({generator_word(Z7, 0, 2): -2, generator_word(Z7, 0, 5): 1})
        ops = (
            Expansion(1, 0),
            HandleSlide(1, 0, 1, x),
            DeckTransform(2, 0, generator_word(Z7, 0, 6)),
            Retraction(1, 1) ,
        )
        end = c
        kept = []
        for op in ops:
            try:
                end = apply_op(end, op)
                kept.append(op)
            except InvalidOpError:
                pass
        cert = OpCertificate(c, tuple(kept), end)
        payload = dumps_canonical(cert_to_obj(cert))
        cert2 = cert_from_obj(json.loads(payload))
        assert cert2 == cert
        assert dumps_canonical(cert_to_obj(cert2)) == payload
        assert replay(cert2)

    def test_unknown_kind_rejected(self):
        cert = random_op_sequence(lens_complex(lens_params(7, 1)), 5, 1)
        obj = cert_to_obj(cert)
        obj["ops"].append({"kind": "mystery"})
        with pytest.raises(InvalidOpError):
            cert_from_obj(obj)


class TestReach:
    """The one rule for expansions: a degree in [lo - 1, hi] of the window
    as it stands, and a total rank within MAX_TOTAL_RANK after it."""

    def test_far_expansion_raises_before_the_window_grows(self):
        c = lens_complex(lens_params(7, 2))
        t0 = time.perf_counter()
        with pytest.raises(OpLimitError) as exc:
            replay_end(OpCertificate(c, (Expansion(10**6, 0),), c))
        assert time.perf_counter() - t0 < 0.1
        reason = "expansion degree 1000000 lies outside -1..3, the degrees the ops before it can reach"
        assert (exc.value.step, exc.value.reason) == (0, reason)
        assert str(exc.value) == f"step 0: {reason}"

    def test_reach_is_the_window_as_it_stands(self):
        c = lens_complex(lens_params(7, 2))
        assert apply_op(c, Expansion(-1, 0)).min_degree == -1
        assert apply_op(c, Expansion(3, 0)).max_degree == 4
        for d in (-2, 4):
            with pytest.raises(OpLimitError) as exc:
                apply_op(c, Expansion(d, 0))
            assert str(exc.value).startswith(f"expansion degree {d} lies outside -1..3")
        # a retraction narrows the reach again
        ops = (Expansion(3, 0), Retraction(3, 0), Expansion(4, 0))
        with pytest.raises(OpLimitError) as exc:
            replay_end(OpCertificate(c, ops, c))
        assert exc.value.step == 2 and "lies outside -1..3" in exc.value.reason

    def test_zero_complex_reaches_degrees_minus_one_and_zero(self):
        c = based_complex(Z7, 5, (1, 1), [((monomial(generator_word(Z7)),),)])
        ops = (Retraction(5, 0), Expansion(-1, 0), Retraction(-1, 0), Expansion(0, 0))
        end = replay_end(OpCertificate(c, ops, c))
        assert (end.min_degree, end.max_degree) == (0, 1)
        with pytest.raises(OpLimitError):
            replay_end(OpCertificate(c, (Retraction(5, 0), Expansion(5, 0)), c))

    def test_apply_op_refuses_an_expansion_past_the_rank_cap(self):
        at_cap = based_complex(Z7, 0, (MAX_TOTAL_RANK - 2,), [])
        assert apply_op(at_cap, Expansion(0, 0)).total_rank() == MAX_TOTAL_RANK
        over = based_complex(Z7, 0, (MAX_TOTAL_RANK - 1,), [])
        with pytest.raises(OpLimitError) as exc:
            apply_op(over, Expansion(0, 0))
        assert str(exc.value) == f"total rank {MAX_TOTAL_RANK + 1} exceeds the rank cap {MAX_TOTAL_RANK}"

    def test_random_sequences_stop_expanding_at_the_rank_cap(self):
        c = based_complex(Z7, 0, (MAX_TOTAL_RANK - 3,), [])
        for seed in range(5):
            cert = random_op_sequence(c, 20, seed)
            assert cert.end.total_rank() <= MAX_TOTAL_RANK
            assert replay(cert)


class TestOpCap:
    """replay_end holds a certificate, and ops_from_obj an op list, to
    MAX_CERT_OPS before any work."""

    class Thawed(Exception):
        """Raised in place of thawing start, to see whether replay got there."""

    def test_replay_refuses_a_certificate_past_the_op_cap_before_thawing(self, monkeypatch):
        c = lens_complex(lens_params(7, 2))
        deck = DeckTransform(0, 0, generator_word(Z7, 0, 1))

        def thaw(_):
            raise self.Thawed

        monkeypatch.setattr(simpleops, "_thaw", thaw)
        with pytest.raises(OpLimitError) as exc:
            replay_end(OpCertificate(c, (deck,) * (MAX_CERT_OPS + 1), c))
        assert str(exc.value) == f"ops = {MAX_CERT_OPS + 1} exceeds the certificate cap {MAX_CERT_OPS}"
        with pytest.raises(self.Thawed):  # at the cap, replay goes on
            replay_end(OpCertificate(c, (deck,) * MAX_CERT_OPS, c))

    def test_op_list_past_the_cap_is_refused_before_any_op_is_read(self):
        """None is no op, so reading one would raise the malformed error."""
        with pytest.raises(OpLimitError) as exc:
            ops_from_obj(Z7, [None] * (MAX_CERT_OPS + 1))
        assert str(exc.value) == f"ops = {MAX_CERT_OPS + 1} exceeds the certificate cap {MAX_CERT_OPS}"
        with pytest.raises(ShapeMismatchError, match="malformed certificate document"):
            ops_from_obj(Z7, [None] * MAX_CERT_OPS)

    @pytest.mark.parametrize("ops", [{}, "", {"kind": "expansion"}, 7, None])
    def test_op_list_must_be_a_list(self, ops):
        """An empty object or string used to read as no ops."""
        with pytest.raises(ShapeMismatchError) as exc:
            ops_from_obj(Z7, ops)
        assert str(exc.value) == f"malformed certificate document: ops must be a list, got {type(ops).__name__}"

    def test_cert_from_obj_holds_both_caps(self):
        c = lens_complex(lens_params(7, 2))
        deck = {"kind": "deck_transform", "degree": 0, "index": 0, "word": [[0, 1]]}
        obj = {"start": complex_to_obj(c), "ops": [deck] * MAX_CERT_OPS, "end": complex_to_obj(c)}
        assert len(cert_from_obj(obj).ops) == MAX_CERT_OPS
        with pytest.raises(OpLimitError):
            cert_from_obj({**obj, "ops": [deck] * (MAX_CERT_OPS + 1)})
        wide = {**complex_to_obj(c), "ranks": [1, 2000, 1, 1], "differentials": {}}
        for part in ("start", "end"):
            with pytest.raises(RankLimitError) as exc:
                cert_from_obj({**obj, part: wide})
            assert str(exc.value) == f"total rank 2003 exceeds the rank cap {MAX_TOTAL_RANK}"
