"""Command-line surface.

Subcommands: ``torsion`` (torsion class of a complex file under a
representation), ``lens-emit`` (write a lens complex file),
``lens-classify`` (the three classification verdicts), ``demo-freeproduct``
(the free-product torsion table), ``verify-cert`` (replay a certificate and
compare fingerprints) and ``gen-cert`` (emit a random certificate).

Every command produces a deterministic report, printed as labeled lines or,
with ``--json``, as one JSON document with the same content.  Exit codes:
0 success, 1 parse/validation error, 2 verification or acyclicity failure,
3 internal cross-check violation (never expected).
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from math import gcd

from .grouprings import GroupSpec
from .cyclofield import (
    ModulusMismatchError,
    Representation,
    cyclo_str,
    representation,
)
from .chaincomplex import (
    NotAComplexError,
    ShapeMismatchError,
    SpecMismatchError,
    complex_from_obj,
    complex_to_obj,
    dumps_canonical,
    validate,
)
from .torsion import (
    NotAcyclicError,
    fingerprint,
    fingerprints_equivalent,
    reidemeister_torsion,
)
from .simpleops import (
    InvalidOpError,
    cert_from_obj,
    cert_to_obj,
    random_op_sequence,
    replay,
)
from .lensspaces import (
    NonPrimeUnsupportedError,
    NotCoprimeError,
    free_product_scenario,
    lens_complex,
    lens_params,
    lens_torsion,
    lens_verdict,
)

PARSE_ERROR = 1
CHECK_FAILED = 2
CROSSCHECK_VIOLATION = 3


@dataclass
class Report:
    command: str
    inputs: dict
    results: dict
    status: int = 0
    lines: list[str] = field(default_factory=list)

    def to_obj(self) -> dict:
        return {
            "command": self.command,
            "inputs": self.inputs,
            "results": self.results,
            "status": self.status,
        }


class CliError(Exception):
    def __init__(self, message: str, status: int = PARSE_ERROR):
        super().__init__(message)
        self.status = status


def parse_rep_spec(text: str, spec: GroupSpec) -> Representation:
    """Grammar: ``n=<modulus>;g0=<e0>,g1=<e1>,...`` with one exponent per
    free factor of the group."""
    modulus = None
    exps: dict[int, int] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        for item in chunk.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep:
                raise CliError(f"rep spec item {item!r} is not key=value")
            try:
                value = int(val)
            except ValueError as exc:
                raise CliError(f"rep spec value {val!r} is not an integer") from exc
            if key == "n":
                modulus = value
            elif key.startswith("g"):
                try:
                    exps[int(key[1:])] = value
                except ValueError as exc:
                    raise CliError(f"bad generator key {key!r}") from exc
            else:
                raise CliError(f"unknown rep spec key {key!r}")
    if modulus is None:
        raise CliError("rep spec is missing n=<modulus>")
    exponents = []
    for i in range(spec.num_factors):
        if i not in exps:
            raise CliError(f"rep spec is missing g{i}=<exponent>")
        exponents.append(exps[i])
    try:
        return representation(spec, modulus, exponents)
    except ValueError as exc:
        raise CliError(f"invalid representation: {exc}") from exc


def _rep_label(rep: Representation) -> str:
    gens = ",".join(f"g{i}={e}" for i, e in enumerate(rep.generator_exponents))
    return f"n={rep.modulus};{gens}"


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}")


def _write_text(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _load_complex_checked(path: str):
    try:
        c = complex_from_obj(_read_json(path))
        validate(c)
    except NotAComplexError as exc:
        raise CliError(f"{path}: not a complex (degree {exc.degree})")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    return c


def cmd_torsion(args) -> Report:
    c = _load_complex_checked(args.complex_file)
    rep = parse_rep_spec(args.rep, c.spec)
    inputs = {"complex_file": args.complex_file, "rep": _rep_label(rep)}
    try:
        cls = reidemeister_torsion(c, rep)
    except NotAcyclicError as exc:
        report = Report(
            "torsion",
            inputs,
            {"acyclic": False, "degree": exc.degree, "defect": exc.defect},
            status=CHECK_FAILED,
        )
        report.lines = [f"NOT_ACYCLIC at degree {exc.degree} (defect {exc.defect})"]
        return report
    rendered = cyclo_str(cls.representative)
    report = Report(
        "torsion",
        inputs,
        {"acyclic": True, "torsion_class": rendered},
    )
    report.lines = [f"torsion class: {rendered}"]
    return report


def cmd_lens_emit(args) -> Report:
    try:
        params = lens_params(args.p, args.q)
    except NotCoprimeError as exc:
        raise CliError(str(exc))
    c = lens_complex(params)
    _write_text(args.out, dumps_canonical(complex_to_obj(c)))
    report = Report(
        "lens-emit",
        {"p": params.p, "q": params.q, "out": args.out},
        {"ranks": list(c.ranks), "min_degree": c.min_degree},
    )
    report.lines = [f"wrote L({params.p},{params.q}) complex to {args.out}"]
    return report


def cmd_lens_classify(args) -> Report:
    try:
        a = lens_params(args.p, args.q)
        b = lens_params(args.p, args.q2)
    except NotCoprimeError as exc:
        raise CliError(str(exc))
    verdict = lens_verdict(a, b)
    results = {
        "homotopy_equivalent": verdict.homotopy_equivalent,
        "homotopy_witness_m": verdict.homotopy_witness,
        "simple_homotopy_equivalent": verdict.simple_homotopy_equivalent,
        "simple_witness": (
            None
            if verdict.simple_witness is None
            else {
                "sign": verdict.simple_witness[0],
                "inverted": verdict.simple_witness[1],
            }
        ),
        "torsion_distinguished": verdict.torsion_distinguished,
        "torsion_match_twist": verdict.torsion_match_twist,
    }
    lines = []
    if verdict.homotopy_equivalent:
        lines.append(f"homotopy-equivalent: YES (m={verdict.homotopy_witness})")
    else:
        lines.append("homotopy-equivalent: NO")
    if verdict.simple_homotopy_equivalent:
        sign, inverted = verdict.simple_witness
        rel = f"{'-' if sign < 0 else '+'}q{'^-1' if inverted else ''}"
        lines.append(f"simple-homotopy-equivalent: YES (q' = {rel})")
    else:
        lines.append("simple-homotopy-equivalent: NO")
    if verdict.torsion_distinguished:
        lines.append("torsion-distinguished: YES")
    else:
        lines.append(
            f"torsion-distinguished: NO (match at d={verdict.torsion_match_twist})"
        )
    if args.all_d:
        sweep = []
        reference = lens_torsion(b, 1)
        for d in range(1, a.p):
            if gcd(d, a.p) != 1:
                continue
            cls = lens_torsion(a, d)
            sweep.append(
                {
                    "d": d,
                    "torsion_class": cyclo_str(cls.representative),
                    "matches": cls == reference,
                }
            )
            lines.append(
                f"  d={d}: {cyclo_str(cls.representative)}"
                f" {'MATCH' if cls == reference else 'DIFFERS'}"
            )
        results["twist_sweep"] = sweep
        results["reference_class"] = cyclo_str(reference.representative)
    status = 0 if verdict.consistent else CROSSCHECK_VIOLATION
    if status:
        lines.append("CROSS-CHECK FAILED: torsion vs arithmetic disagree")
    report = Report(
        "lens-classify",
        {"p": args.p, "q": a.q, "q2": b.q},
        results,
        status=status,
    )
    report.lines = lines
    return report


def cmd_demo_freeproduct(args) -> Report:
    try:
        rpt = free_product_scenario(args.p, args.q, args.q2)
    except (NotCoprimeError, NonPrimeUnsupportedError) as exc:
        raise CliError(str(exc))
    rows = []
    lines = [f"second complex class: {cyclo_str(rpt.second_class.representative)}"]
    for l, cls, same in rpt.rows:
        if cls is None:
            rows.append({"l": l, "torsion_class": None, "matches": False})
            lines.append(f"  l={l}: NOT_ACYCLIC")
        else:
            rows.append(
                {
                    "l": l,
                    "torsion_class": cyclo_str(cls.representative),
                    "matches": same,
                }
            )
            lines.append(
                f"  l={l}: {cyclo_str(cls.representative)}"
                f" {'MATCH' if same else 'DISTINCT'}"
            )
    if rpt.match_twist is None:
        lines.append("verdict: DISTINCT")
    else:
        lines.append(f"verdict: MATCH (l={rpt.match_twist})")
    report = Report(
        "demo-freeproduct",
        {"p": rpt.p, "q": rpt.q, "q2": rpt.q2},
        {
            "second_class": cyclo_str(rpt.second_class.representative),
            "rows": rows,
            "match_twist": rpt.match_twist,
            "verdict": "MATCH" if rpt.match_twist is not None else "DISTINCT",
        },
    )
    report.lines = lines
    return report


def _default_reps(spec: GroupSpec, modulus: int, limit: int = 6):
    reps = []
    for d in range(1, modulus):
        if gcd(d, modulus) != 1:
            continue
        try:
            reps.append(representation(spec, modulus, [d] * spec.num_factors))
        except ValueError:
            continue
        if len(reps) == limit:
            break
    return reps


def cmd_verify_cert(args) -> Report:
    try:
        cert = cert_from_obj(_read_json(args.cert_file))
    except (ValueError, KeyError, TypeError) as exc:
        raise CliError(f"{args.cert_file}: {exc}")
    spec = cert.start.spec
    if args.rep:
        reps = [parse_rep_spec(r, spec) for r in args.rep]
    else:
        reps = _default_reps(spec, max(spec.factor_orders))
    inputs = {
        "cert_file": args.cert_file,
        "reps": [_rep_label(r) for r in reps],
        "ops": len(cert.ops),
    }
    try:
        ok = replay(cert)
    except InvalidOpError as exc:
        raise CliError(f"invalid certificate: {exc}")
    if not ok:
        report = Report(
            "verify-cert",
            inputs,
            {"replay": False, "fingerprints_agree": None},
            status=CHECK_FAILED,
        )
        report.lines = ["replay: FAILED (end complex does not match)"]
        return report
    fp_start = fingerprint(cert.start, reps)
    fp_end = fingerprint(cert.end, reps)
    agree = fingerprints_equivalent(fp_start, fp_end)

    def fp_rows(fp):
        return [
            {
                "rep": _rep_label(rep),
                "torsion_class": None if cls is None else cyclo_str(cls.representative),
            }
            for rep, cls in fp.entries
        ]

    report = Report(
        "verify-cert",
        inputs,
        {
            "replay": True,
            "fingerprints_agree": agree,
            "fingerprint": fp_rows(fp_start),
            "end_fingerprint": fp_rows(fp_end),
        },
        status=0 if agree else CHECK_FAILED,
    )
    report.lines = ["replay: OK"]
    for row in fp_rows(fp_start):
        cls = row["torsion_class"]
        report.lines.append(
            f"  {row['rep']} -> {cls if cls is not None else 'NOT_ACYCLIC'}"
        )
    report.lines.append(f"fingerprints: {'AGREE' if agree else 'DISAGREE'}")
    return report


def cmd_gen_cert(args) -> Report:
    if args.length < 0:
        raise CliError(f"--length must be nonnegative, got {args.length}")
    c = _load_complex_checked(args.complex_file)
    cert = random_op_sequence(c, args.length, args.seed)
    _write_text(args.out, dumps_canonical(cert_to_obj(cert)))
    report = Report(
        "gen-cert",
        {
            "complex_file": args.complex_file,
            "length": args.length,
            "seed": args.seed,
            "out": args.out,
        },
        {"ops": len(cert.ops), "end_ranks": list(cert.end.ranks)},
    )
    report.lines = [f"wrote certificate with {len(cert.ops)} ops to {args.out}"]
    return report


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="torsionkit",
        description="Exact torsion invariants of based complexes over group rings.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torsion", help="torsion class of a complex file")
    p.add_argument("complex_file")
    p.add_argument("--rep", required=True, help="n=<modulus>;g0=<e0>,g1=<e1>,...")
    p.set_defaults(func=cmd_torsion)

    p = sub.add_parser("lens-emit", help="write the lens complex L(p,q)")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lens_emit)

    p = sub.add_parser("lens-classify", help="classification verdicts for a pair")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("q2", type=int)
    p.add_argument("--all-d", action="store_true", help="include the full twist sweep")
    p.set_defaults(func=cmd_lens_classify)

    p = sub.add_parser("demo-freeproduct", help="free-product torsion comparison")
    p.add_argument("p", type=int)
    p.add_argument("q", type=int)
    p.add_argument("q2", type=int)
    p.set_defaults(func=cmd_demo_freeproduct)

    p = sub.add_parser("verify-cert", help="replay a certificate and compare fingerprints")
    p.add_argument("cert_file")
    p.add_argument("--rep", action="append", help="may be repeated; default: twist sweep")
    p.set_defaults(func=cmd_verify_cert)

    p = sub.add_parser("gen-cert", help="emit a random valid certificate")
    p.add_argument("complex_file")
    p.add_argument("--length", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_cert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        report = args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.status
    except (ModulusMismatchError, SpecMismatchError, ShapeMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    if args.json:
        sys.stdout.write(dumps_canonical(report.to_obj()))
    else:
        for line in report.lines:
            print(line)
    return report.status


if __name__ == "__main__":
    sys.exit(main())
