"""The three seeded workloads and the oracle for each of their ops.

A workload is a fixed list of ops (one *pass*) built from the seed; a run
repeats the pass.  The multiset of op kinds and sizes in a pass is fixed,
and the seed draws everything else (lens parameters, certificate lengths
and op sequences, matrix entries and scrambles), so pass cost does not
depend on the seed.  Each op returns ``(status, text)``; ``check`` validates
that text against ``oracles`` without calling torsionkit.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from . import oracles


class OracleError(Exception):
    """An op's output disagrees with the reference."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise OracleError(message)


@dataclass
class Op:
    label: str
    call: Callable[[], tuple[int, str]]
    check: Callable[[int, str], None]


@dataclass
class Workload:
    ops: list[Op]
    inputs: list  # every generated input: text, or immutable values by repr
    cold_start: bool  # clear torsionkit's caches before every op

    def input_digest(self) -> str:
        h = hashlib.sha256()
        for item in self.inputs:
            h.update((item if isinstance(item, str) else repr(item)).encode())
            h.update(b"\0")
        return h.hexdigest()


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``torsionkit.cli.main`` in-process with stdout and stderr captured."""
    import torsionkit.cli as cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            status = exc.code if isinstance(exc.code, int) else 1
    return status, out.getvalue() + err.getvalue()


def _load_results(status: int, text: str, command: str) -> dict:
    expect(status == 0, f"exit status {status}: {text[:200]!r}")
    doc = json.loads(text)
    expect(doc.get("command") == command and doc.get("status") == 0, "report header")
    return doc


# --- lens-cli -----------------------------------------------------------

# One pass: 14 `lens-classify --all-d` and 4 `demo-freeproduct` commands
# with p from 17 to 61, weighted toward small p so that a 30-second run holds
# six or more passes (medians over passes need repeats; op_p90_s needs
# at least 10 samples beyond it).  Four ops of similar cost (classify at
# p = 43, demo at p = 47) sit around the 90th percentile and four (classify
# at p = 29, 31) around the median, so neither quantile falls in a gap
# between op sizes.
LENS_CLASSIFY_PRIMES = (61, 43, 43, 43, 37, 31, 31, 29, 29, 23, 23, 19, 19, 17)
LENS_DEMO_PRIMES = (47, 41, 29, 17)


def check_lens_classify(p: int, q: int, q2: int):
    r, r2 = pow(q, -1, p), pow(q2, -1, p)
    he = oracles.homotopy_equivalent(p, q, q2)
    se = oracles.simple_equivalent(p, q, q2)

    def check(status: int, text: str) -> None:
        doc = _load_results(status, text, "lens-classify")
        expect(doc["inputs"] == {"p": p, "q": q, "q2": q2}, "inputs echo")
        res = doc["results"]
        expect(res["homotopy_equivalent"] is he, f"homotopy verdict for L({p},{q}), L({p},{q2})")
        if he:
            m = res["homotopy_witness_m"]
            expect((m * m - q * q2) % p == 0 or (m * m + q * q2) % p == 0, "homotopy witness")
        expect(res["simple_homotopy_equivalent"] is se, "simple homotopy verdict")
        expect(res["torsion_distinguished"] is (not se), "torsion verdict")
        expect(oracles.printed_in_lens_class(res["reference_class"], p, r2, 1), "reference class")
        sweep = res["twist_sweep"]
        expect([row["d"] for row in sweep] == list(range(1, p)), "twist range")
        first_match = None
        for row in sweep:
            d = row["d"]
            expect(
                oracles.printed_in_lens_class(row["torsion_class"], p, d * r, d),
                f"class at d={d}",
            )
            match = oracles.lens_classes_match(p, d * r, d, r2, 1)
            expect(row["matches"] is match, f"match flag at d={d}")
            if match and first_match is None:
                first_match = d
        expect(res["torsion_match_twist"] == first_match, "match twist")

    return check


def check_demo_freeproduct(p: int, q: int, q2: int):
    r, r2 = pow(q, -1, p), pow(q2, -1, p)

    def check(status: int, text: str) -> None:
        doc = _load_results(status, text, "demo-freeproduct")
        expect(doc["inputs"] == {"p": p, "q": q, "q2": q2}, "inputs echo")
        res = doc["results"]
        expect(oracles.printed_in_lens_class(res["second_class"], p, r2, 1), "second class")
        rows = res["rows"]
        expect([row["l"] for row in rows] == list(range(1, p)), "twist range")
        first_match = None
        for row in rows:
            l = row["l"]
            expect(row["torsion_class"] is not None, f"acyclic at l={l}")
            expect(
                oracles.printed_in_lens_class(row["torsion_class"], p, l * r, l),
                f"class at l={l}",
            )
            match = oracles.lens_classes_match(p, l * r, l, r2, 1)
            expect(row["matches"] is match, f"match flag at l={l}")
            if match and first_match is None:
                first_match = l
        expect(res["match_twist"] == first_match, "match twist")
        expect(res["verdict"] == ("DISTINCT" if first_match is None else "MATCH"), "verdict")

    return check


def build_lens_cli(seed: int) -> Workload:
    rng = random.Random(f"lens-cli/{seed}")
    specs = [("lens-classify", p) for p in LENS_CLASSIFY_PRIMES]
    specs += [("demo-freeproduct", p) for p in LENS_DEMO_PRIMES]
    rng.shuffle(specs)
    ops = []
    for command, p in specs:
        q, q2 = rng.randrange(1, p), rng.randrange(1, p)
        argv = ["--json", command, str(p), str(q), str(q2)]
        if command == "lens-classify":
            argv.append("--all-d")
            check = check_lens_classify(p, q, q2)
        else:
            check = check_demo_freeproduct(p, q, q2)
        ops.append(Op(" ".join(argv[1:]), lambda argv=argv: run_cli(argv), check))
    return Workload(ops, [op.label for op in ops], cold_start=True)


# --- cert-verify --------------------------------------------------------

# One pass: 28 certificates over L(7,q) and 28 over L(13,q) with lengths
# spread evenly over 200-400 ops, and 12 each over L(p,2) on the first factor
# of Z/5*Z/5 and Z/7*Z/7 with 40 ops.  Verify time varies with the drawn
# sequence, so a pass holds many certificates: with half as many, op_p50_s
# varied by 12% (IQR/median) over 5 seeds.  The seed draws q and the op sequences;
# the lengths are fixed so that pass cost and op_p90_s do not depend on it.
# Free-product coefficient support grows exponentially with length: over 40
# seeds the largest certificate file was 0.1-0.2 MB at 40 ops and 0.3-0.4 MB
# at 50, one verify took 0.3-6.4 s at 80 ops, and at 125 ops one certificate
# took ~1 GB.  Peak memory follows the largest certificate; do not grow them.
# Even at 40 ops the size is heavy-tailed (over 300 sequences: median 12 KB,
# 7% above 64 KiB, largest 1.5 MB, whose verify took 1.9 s, 30% of a pass),
# so a free-product certificate is drawn again whenever its file after a
# segment of 5 ops exceeds 64 KiB: every pass then holds certificates of one
# size class whatever the seed, and a rejected draw stops growing within 5
# ops of the cap, so set-up time and memory stay bounded.
CERT_CYCLIC = ((7, 28), (13, 28))
CERT_CYCLIC_LENGTHS = (200, 400)
CERT_FREE = ((5, 12), (7, 12))
CERT_FREE_LENGTH = 40
CERT_FREE_SEGMENT = 5
CERT_FREE_MAX_BYTES = 64 * 1024
CERT_MAX_GROWTH = 8  # random_op_sequence's default rank growth
CERTGEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "certgen.py")
CERTGEN_TIMEOUT_S = 120


def _free_product_lens(p: int, q: int):
    """Cells of L(p,q) on the first factor of Z/p * Z/p, built from the
    public group-ring API: differentials (1 - a^r), (1 + a + ... + a^(p-1)),
    (1 - a) on degrees 0..3."""
    from torsionkit.chaincomplex import based_complex
    from torsionkit.grouprings import (
        ONE_ELEM,
        GroupSpec,
        elem_from_dict,
        generator_elem,
        generator_word,
        ring_sub,
    )

    spec = GroupSpec.free_product([p, p])
    r = pow(q, -1, p)
    top = ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, r))
    norm = elem_from_dict({generator_word(spec, 0, k): 1 for k in range(p)})
    bottom = ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 1))
    return based_complex(spec, 0, (1, 1, 1, 1), [((top,),), ((norm,),), ((bottom,),)])


def _bounded_free_cert(start, rng: random.Random) -> str:
    """A ``CERT_FREE_LENGTH``-op certificate from ``start``, as canonical
    JSON, built from ``random_op_sequence`` segments and drawn again from the
    start whenever a prefix's file exceeds ``CERT_FREE_MAX_BYTES``."""
    from torsionkit.chaincomplex import dumps_canonical
    from torsionkit.simpleops import OpCertificate, cert_to_obj, random_op_sequence

    rank_cap = start.total_rank() + CERT_MAX_GROWTH
    while True:
        c, ops = start, ()
        while len(ops) < CERT_FREE_LENGTH:
            seg = random_op_sequence(c, CERT_FREE_SEGMENT, rng.randrange(2**32), rank_cap - c.total_rank())
            c, ops = seg.end, ops + seg.ops
            payload = dumps_canonical(cert_to_obj(OpCertificate(start, ops, c)))
            if len(payload) > CERT_FREE_MAX_BYTES:
                break
        else:
            return payload


def _default_twists(p: int) -> list[int]:
    """verify-cert's default representations: the first six twists d."""
    return [d for d in range(1, p) if gcd(d, p) == 1][:6]


def check_verify_cert(p: int, q: int, free: bool):
    r = pow(q, -1, p)

    def check(status: int, text: str) -> None:
        doc = _load_results(status, text, "verify-cert")
        res = doc["results"]
        expect(res["replay"] is True, "replay")
        expect(res["fingerprints_agree"] is True, "fingerprints agree")
        expect(res["fingerprint"] == res["end_fingerprint"], "start and end fingerprints")
        twists = _default_twists(p)
        expect(len(res["fingerprint"]) == len(twists), "number of representations")
        for d, row in zip(twists, res["fingerprint"]):
            label = f"n={p};g0={d}" + (f",g1={d}" if free else "")
            expect(row["rep"] == label, f"representation {label}")
            expect(
                oracles.printed_in_lens_class(row["torsion_class"], p, d * r, d),
                f"class under {label}",
            )

    return check


def write_certificates(seed: int) -> list[tuple[int, int, bool, int]]:
    """Write the seed's certificates to cert00.json, cert01.json, ... in the
    working directory; return (p, q, free, length) of each, in file order."""
    from torsionkit.chaincomplex import dumps_canonical
    from torsionkit.lensspaces import lens_complex, lens_params
    from torsionkit.simpleops import cert_to_obj, random_op_sequence

    rng = random.Random(f"cert-verify/{seed}")
    starts = []
    lo, hi = CERT_CYCLIC_LENGTHS
    for p, count in CERT_CYCLIC:
        for k in range(count):
            starts.append((p, rng.randrange(1, p), False, lo + (hi - lo) * k // (count - 1)))
    for p, count in CERT_FREE:
        starts += [(p, 2, True, CERT_FREE_LENGTH)] * count
    rng.shuffle(starts)
    for i, (p, q, free, length) in enumerate(starts):
        if free:
            payload = _bounded_free_cert(_free_product_lens(p, q), rng)
        else:
            cert = random_op_sequence(lens_complex(lens_params(p, q)), length, rng.randrange(2**32))
            payload = dumps_canonical(cert_to_obj(cert))
        with open(f"cert{i:02d}.json", "w", encoding="utf-8") as fh:
            fh.write(payload)
    return starts


def build_cert_verify(seed: int) -> Workload:
    """A child process (``certgen.py``) writes the certificates, so that
    generation's memory is not part of the worker's ``peak_rss_mb``: in the
    worker it left 26-29 MB over 5 seeds, against 21 MB after import.  The
    files are in the working directory and named without a directory, so
    verify-cert's report (which echoes the path) and the output digest do
    not depend on where the run happens."""
    proc = subprocess.run(
        [sys.executable, CERTGEN, str(seed)], capture_output=True, text=True, timeout=CERTGEN_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"certgen exited with status {proc.returncode}: {proc.stderr[-500:]}")
    ops, inputs = [], []
    for i, (p, q, free, length) in enumerate(json.loads(proc.stdout)):
        path = f"cert{i:02d}.json"
        with open(path, "rb") as fh:
            inputs.append(hashlib.sha256(fh.read()).hexdigest())
        argv = ["--json", "verify-cert", path]
        group = f"Z/{p}*Z/{p}" if free else f"Z/{p}"
        ops.append(Op(f"verify-cert L({p},{q}) over {group}, {length} ops", lambda argv=argv: run_cli(argv), check_verify_cert(p, q, free)))
    return Workload(ops, inputs, cold_start=False)


# --- wide-torsion -------------------------------------------------------

# One pass at each modulus n in {7, 13}: 48 reidemeister_torsion of
# scrambled sums of two-term complexes with these (0,1), (1,2), (2,3) summand
# counts (ranks (3,5,4,2) up to (6,11,9,4)), and torsion_of_map of g.f and of
# its factors for scaled chain isomorphisms of a complex with Euler
# characteristic 2 (24 at n = 7 and 24 larger ones at n = 13, which set p90).
# Op cost varies with the drawn entries and scrambles, so a pass holds many
# ops: with half as many, pass cost varied by 8% (IQR/median) over 8 seeds.
# Each quantile falls inside a block of ops of similar cost: p90 among the
# n = 13 maps, and the median among the sums at n = 7 ranks (6,11,9,4) and
# n = 13 ranks (5,9,7,3).  With 12 maps at n = 7 the median fell between
# those and the cheaper sums, and op_p50_s varied by 12% over 10 seeds.
# Scrambles run 3 slides/decks per unit of total rank; at ranks (9,14,11,6)
# with heavier scrambles one op took 2-70 s, so stay here.
WIDE_SUM_SHAPES = ((3, 2, 2), (4, 3, 2), (5, 4, 3), (6, 5, 4)) * 12
WIDE_MAP_SHAPES = {7: ((2, 3, 2),) * 24, 13: ((3, 3, 2),) * 24}
WIDE_MAP_FREE = (0, 2)  # extra rank-1 modules with zero differential, by degree
SCRAMBLE_PER_RANK = 3


def _unit_entry(spec, rng: random.Random, n: int):
    """An element of Z[Z/n] whose image under every t -> zeta^e (e prime to
    n) is nonzero, with its own description for the reference."""
    from torsionkit.grouprings import elem_from_dict, generator_word

    k = rng.randrange(1, n)
    terms = rng.choice(([(0, 1), (k, -1)], [(0, 2), (k, -1)], [(k, rng.choice((-1, 1)))], [(0, 1), (k, 1)]))
    elem = elem_from_dict({generator_word(spec, 0, e): c for e, c in terms})
    return elem, terms


def _scramble_ops(c, rng: random.Random, steps: int, n: int):
    """Random slides (by +-t^j) and decks; returns the ops and the end
    complex.  Slide coefficients of 2 made op cost heavy-tailed (one sum at
    ranks (6,11,9,4) took 0.13 s against a median of 0.03 s) and pass cost
    vary by 9% (IQR/median) over 8 seeds, against 3% with these."""
    from torsionkit.grouprings import elem_from_dict, generator_word
    from torsionkit.simpleops import DeckTransform, HandleSlide, apply_op

    ops = []
    for _ in range(steps):
        slide_degs = [d for d in c.degrees if c.rank(d) >= 2]
        if slide_degs and rng.random() < 0.6:
            d = rng.choice(slide_degs)
            a, b = rng.sample(range(c.rank(d)), 2)
            coeff = elem_from_dict({generator_word(c.spec, 0, rng.randrange(n)): rng.choice((-1, 1))})
            op = HandleSlide(d, a, b, coeff)
        else:
            d = rng.choice([d for d in c.degrees if c.rank(d)])
            op = DeckTransform(d, rng.randrange(c.rank(d)), generator_word(c.spec, 0, rng.randrange(1, n)))
        c = apply_op(c, op)
        ops.append(op)
    return ops, c


def _sum_of_two_term(spec, rng: random.Random, n: int, shape, free=()):
    """Direct sum of [Z[G] --x--> Z[G]] pieces in degrees (d, d+1), shape[d]
    of them for d = 0, 1, 2, plus rank-1 modules with zero differential."""
    from torsionkit.chaincomplex import based_complex, direct_sum, two_term_complex

    parts, entries = [], []
    for d, count in enumerate(shape):
        for _ in range(count):
            elem, terms = _unit_entry(spec, rng, n)
            parts.append(two_term_complex(spec, d, elem))
            entries.append((d, terms))
    parts += [based_complex(spec, d, (1,), []) for d in free]
    c = parts[0]
    for part in parts[1:]:
        c = direct_sum(c, part)
    return c, entries


def _iso_via_ops(c, rng: random.Random, steps: int, n: int):
    """The chain isomorphism from ``c`` onto a slide/deck scramble of it.

    In the degree of each op the map is multiplied on the left by the
    elementary matrix P of the op (P = 1 - x at [source][target] for a
    slide, g^-1 at [index][index] for a deck); with left coefficients,
    (P.M)[row] = M[row] * P[row][row] + M[other] * P[row][other].
    """
    from torsionkit.chaincomplex import ChainMap, mat_identity
    from torsionkit.grouprings import monomial, ring_mul, ring_sub, word_inverse
    from torsionkit.simpleops import DeckTransform

    spec = c.spec
    ops, end = _scramble_ops(c, rng, steps, n)
    mats = {i: [list(row) for row in mat_identity(c.rank(i))] for i in c.degrees}
    for op in ops:
        m = mats[op.degree]
        if isinstance(op, DeckTransform):
            ginv = monomial(word_inverse(spec, op.word))
            m[op.index] = [ring_mul(spec, x, ginv) for x in m[op.index]]
        else:
            m[op.source] = [
                ring_sub(spec, x, ring_mul(spec, y, op.coefficient))
                for x, y in zip(m[op.source], m[op.target])
            ]
    comps = tuple((d, tuple(tuple(row) for row in m)) for d, m in sorted(mats.items()))
    return ChainMap(c, end, comps), end


def _scaled(f, x):
    """x*f for central x, unvalidated: ``compose_chain_maps`` validates the
    composite of two of these."""
    from torsionkit.chaincomplex import ChainMap
    from torsionkit.grouprings import ring_mul

    spec = f.source.spec
    comps = tuple(
        (d, tuple(tuple(ring_mul(spec, x, e) for e in row) for row in m)) for d, m in f.components
    )
    return ChainMap(f.source, f.target, comps)


def _rho(n: int, e: int, terms) -> list[int]:
    """Image of sum c*t^k under t -> zeta^e, as a reference vector."""
    return oracles.monomial_sum(n, [(k * e, c) for k, c in terms])


def _class_text(cls) -> str:
    rep = cls.representative
    return f"{rep.n}:{','.join(map(str, rep.nums))}/{rep.den}"


def _parse_class_text(text: str) -> list:
    head, _, rest = text.partition(":")
    nums, _, den = rest.partition("/")
    n = int(head)
    return oracles.lift(n, [Fraction(int(c), int(den)) for c in nums.split(",")])


def check_sum_torsion(n: int, e: int, entries):
    """tau = prod rho(x)^(+1 or -1): +1 for pieces starting in even degree."""
    num = [_rho(n, e, t) for d, t in entries if d % 2 == 0]
    den = [_rho(n, e, t) for d, t in entries if d % 2 == 1]

    def check(status: int, text: str) -> None:
        expect(status == 0, "status")
        value = _parse_class_text(text)
        lhs = oracles.product(n, [value] + den)
        expect(oracles.same_class(n, lhs, oracles.product(n, num)), "torsion of the sum")

    return check


def check_map_torsion(n: int, e: int, x_terms, y_terms, chi: int):
    """tau(s*iso) = rho(s)^(-chi) for a slide/deck isomorphism scaled by a
    central s, and tau(g.f) = tau(g) * tau(f)."""
    x, y = _rho(n, e, x_terms), _rho(n, e, y_terms)

    def check(status: int, text: str) -> None:
        expect(status == 0, "status")
        t_gf, t_g, t_f = (_parse_class_text(t) for t in text.split(" "))
        for value, scales, what in ((t_f, [x], "f"), (t_g, [y], "g"), (t_gf, [x, y], "g.f")):
            # value * s^chi ~ 1, with chi > 0 by construction
            lhs = oracles.product(n, [value] + scales * chi)
            expect(oracles.same_class(n, lhs, oracles.monomial_sum(n, [(0, 1)])), f"tau({what})")
        expect(
            oracles.same_class(n, t_gf, oracles.convolve(n, t_g, t_f)),
            "tau(g.f) = tau(g) tau(f)",
        )

    return check


def build_wide_torsion(seed: int) -> Workload:
    import torsionkit.torsion as torsion
    from torsionkit.chaincomplex import compose_chain_maps
    from torsionkit.cyclofield import representation
    from torsionkit.grouprings import GroupSpec

    rng = random.Random(f"wide-torsion/{seed}")
    ops, inputs = [], []
    for n, map_shapes in WIDE_MAP_SHAPES.items():
        spec = GroupSpec.cyclic(n)
        for shape in WIDE_SUM_SHAPES:
            c, entries = _sum_of_two_term(spec, rng, n, shape)
            _, c = _scramble_ops(c, rng, SCRAMBLE_PER_RANK * c.total_rank(), n)
            e = rng.randrange(1, n)
            rep = representation(spec, n, [e])

            def call(c=c, rep=rep):
                return 0, _class_text(torsion.reidemeister_torsion(c, rep))

            ops.append(Op(f"reidemeister_torsion n={n} ranks={c.ranks}", call, check_sum_torsion(n, e, entries)))
            inputs.append((c, rep))
        for shape in map_shapes:
            c, _ = _sum_of_two_term(spec, rng, n, shape, WIDE_MAP_FREE)
            chi = sum((-1) ** d * c.rank(d) for d in c.degrees)
            steps = SCRAMBLE_PER_RANK * c.total_rank()
            iso1, c1 = _iso_via_ops(c, rng, steps, n)
            iso2, _ = _iso_via_ops(c1, rng, steps, n)
            x, x_terms = _unit_entry(spec, rng, n)
            y, y_terms = _unit_entry(spec, rng, n)
            f = _scaled(iso1, x)
            g = _scaled(iso2, y)
            gf = compose_chain_maps(g, f)
            e = rng.randrange(1, n)
            rep = representation(spec, n, [e])

            def call(gf=gf, g=g, f=f, rep=rep):
                return 0, " ".join(_class_text(torsion.torsion_of_map(m, rep)) for m in (gf, g, f))

            ops.append(Op(f"torsion_of_map n={n} ranks={c.ranks}", call, check_map_torsion(n, e, x_terms, y_terms, chi)))
            inputs.append((gf, g, f, rep))
    rng.shuffle(ops)
    return Workload(ops, inputs, cold_start=False)


BY_NAME = {
    "lens-cli": build_lens_cli,
    "cert-verify": build_cert_verify,
    "wide-torsion": build_wide_torsion,
}
