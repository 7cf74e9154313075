"""Command-line surface.

Subcommands: ``torsion`` (torsion class of a complex file under a
representation), ``lens-emit`` (write a lens complex file),
``lens-classify`` (the three classification verdicts), ``lens-sweep`` (the
verdicts of every pair for a list of primes), ``demo-freeproduct`` (the
free-product torsion table), ``verify-cert`` (replay a certificate and compare
fingerprints) and ``gen-cert`` (emit a random certificate).

Every command returns one deterministic report: ``--json`` prints it as one
JSON document, and text output is labeled lines rendered from it.  Exit codes:
0 success, 1 parse/validation error, 2 verification or acyclicity failure,
3 internal cross-check violation (never expected).  A modulus above
``MAX_MODULUS``, a certificate longer than ``MAX_CERT_OPS`` and a complex
whose ranks sum past ``MAX_TOTAL_RANK`` are parse errors (the library's
document readers check the last two), and so is an op replay refuses, such
as an expansion past the reach rule of ``simpleops``, and an elimination
whose working entries pass ``MAX_ENTRY_BITS``.

``verify-cert`` reads a certificate's start and ops, replays, and checks
the replayed end against the recorded one on the document
(``matches_obj``); it reads the recorded end into a complex only when that
check fails, to compare it and name the first difference.  Fingerprints
are taken of the start and of the replayed end.

The parser is built once per process, at import (``_PARSER``), and every
``main`` call parses with it: a one-command process pays for it once either
way, and in-process callers stop paying about 1 ms per call.  So argparse's
defaults are shared between calls, and no command keeps, mutates or hands
out a default object; help is formatted when it is printed, so it follows
``COLUMNS`` and ``sys.stdout`` as they are then.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .grouprings import GroupSpec, spec_from_obj
from .cyclofield import (
    ModulusMismatchError,
    Representation,
    cyclo_str,
    representation,
    units,
)
from .chaincomplex import (
    NotAComplexError,
    RankLimitError,
    ShapeMismatchError,
    SpecMismatchError,
    complex_from_obj,
    complex_to_obj,
    dumps_canonical,
    first_difference,
    matches_obj,
    validate,
)
from .torsion import (
    EntryLimitError,
    NotAcyclicError,
    fingerprint,
    fingerprints_equivalent,
    reidemeister_torsion,
)
from .simpleops import (
    InvalidOpError,
    MAX_CERT_OPS,
    OpCertificate,
    OpLimitError,
    cert_part,
    cert_to_obj,
    ops_from_obj,
    random_op_sequence,
    replay_end,
)
from .lensspaces import (
    NonPrimeUnsupportedError,
    NotCoprimeError,
    free_product_scenario,
    lens_complex,
    lens_params,
    lens_verdict,
)

PARSE_ERROR = 1
CHECK_FAILED = 2
CROSSCHECK_VIOLATION = 3
DEFAULT_REP_COUNT = 6
# Largest modulus the CLI computes in: a lens or free-product p, a --rep n, or
# the default twist modulus of a certificate.  A twist sweep is one
# elimination and p conjugated classes over Q(zeta_p), each a permuted lift
# and one least rotation.  On a 2-vCPU machine (medians of 3 runs, each about
# 0.075 s of start-up) `lens-classify 127 1 2 --all-d` takes 0.1 s (11-13 ms
# of it in the command itself), and `lens-sweep --primes p`, every pair, 0.32 s
# at p = 61 and 1.9 s at 127; one sweep in the library grows about as p^1.6
# (0.015 s at p = 127, 0.046 s at 251, 0.13 s at 509).  So
# sweeps no longer set the cap: it bounds lens-sweep's p^2/2 pairs and the one
# field inversion of an elimination under --rep n, about 0.36 s for a dense
# value with 40-bit coefficients at n = 127 (30 ms at n = 61).
MAX_MODULUS = 127


@dataclass
class Report:
    """What a command found; ``--json`` prints it and text is rendered from it."""

    command: str
    inputs: dict
    results: dict
    status: int = 0


class CliError(Exception):
    """Invalid input found by the CLI itself; reported like the library's."""


def _check_modulus(name: str, value: int) -> None:
    if value > MAX_MODULUS:
        raise CliError(f"{name} = {value} exceeds the modulus cap {MAX_MODULUS}")


def _int_arg(text: str) -> int:
    """An integer argument: ASCII digits with an optional leading sign, no
    more of them than int() converts.  int() alone would also take '1_7',
    non-ASCII digits such as '\u0667' and surrounding spaces."""
    digits = text[1:] if text[:1] in ("+", "-") else text
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def parse_rep_spec(text: str, spec: GroupSpec) -> Representation:
    """Grammar: ``n=<modulus>;g0=<e0>,g1=<e1>,...`` with one exponent per
    free factor of the group; each key appears once."""
    values: dict[str | int, int] = {}  # "n" -> modulus, factor index -> exponent
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
                value = _int_arg(val.strip())
            except argparse.ArgumentTypeError as exc:
                raise CliError(f"rep spec value {val!r} is not an integer") from exc
            slot = key
            if key.startswith("g"):
                if not (key[1:].isascii() and key[1:].isdigit()):
                    raise CliError(f"bad generator key {key!r}")
                slot = int(key[1:])
                if not 0 <= slot < spec.num_factors:
                    raise CliError(f"rep spec key {key!r} names no factor of the group")
            elif key != "n":
                raise CliError(f"unknown rep spec key {key!r}")
            if slot in values:
                raise CliError(f"rep spec repeats key {key!r}")
            values[slot] = value
    if "n" not in values:
        raise CliError("rep spec is missing n=<modulus>")
    exponents = []
    for i in range(spec.num_factors):
        if i not in values:
            raise CliError(f"rep spec is missing g{i}=<exponent>")
        exponents.append(values[i])
    _check_modulus("n", values["n"])
    try:
        return representation(spec, values["n"], exponents)
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
    except UnicodeDecodeError as exc:
        raise CliError(f"{path}: not UTF-8 text (byte {exc.start})")
    except ValueError:  # the one other: an integer past int()'s digit limit
        raise CliError(f"{path}: invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits")
    except RecursionError:
        raise CliError(f"{path}: JSON nested too deeply")


def _write_text(path: str, payload: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}")


def _check_complex(c, path: str) -> None:
    """Check d.d = 0; ``path`` names the file in the error."""
    try:
        validate(c)
    except NotAComplexError as exc:
        raise CliError(f"{path}: not a complex (degree {exc.degree})")


def _load_complex_checked(path: str):
    try:
        c = complex_from_obj(_read_json(path))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")
    _check_complex(c, path)
    return c


def _class_str(cls) -> str | None:
    return None if cls is None else cyclo_str(cls.representative)


def _sweep_rows(rows, twist: str) -> list[dict]:
    """The (twist, class, matches) rows of a ``TwistSweep``, the twist under the key ``twist``."""
    return [{twist: t, "torsion_class": _class_str(cls), "matches": same} for t, cls, same in rows]


def cmd_torsion(args) -> Report:
    c = _load_complex_checked(args.complex_file)
    rep = parse_rep_spec(args.rep, c.spec)
    inputs = {"complex_file": args.complex_file, "rep": _rep_label(rep)}
    try:
        cls = reidemeister_torsion(c, rep)
    except NotAcyclicError as exc:
        return Report(
            "torsion",
            inputs,
            {"acyclic": False, "degree": exc.degree, "defect": exc.defect},
            status=CHECK_FAILED,
        )
    return Report("torsion", inputs, {"acyclic": True, "torsion_class": _class_str(cls)})


def render_torsion(report: Report) -> list[str]:
    res = report.results
    if not res["acyclic"]:
        return [f"NOT_ACYCLIC at degree {res['degree']} (defect {res['defect']})"]
    return [f"torsion class: {res['torsion_class']}"]


def cmd_lens_emit(args) -> Report:
    _check_modulus("p", args.p)
    params = lens_params(args.p, args.q)
    c = lens_complex(params)
    _write_text(args.out, dumps_canonical(complex_to_obj(c)))
    return Report(
        "lens-emit",
        {"p": params.p, "q": params.q, "out": args.out},
        {"ranks": list(c.ranks), "min_degree": c.min_degree},
    )


def render_lens_emit(report: Report) -> list[str]:
    inp = report.inputs
    return [f"wrote L({inp['p']},{inp['q']}) complex to {inp['out']}"]


def cmd_lens_classify(args) -> Report:
    _check_modulus("p", args.p)
    a = lens_params(args.p, args.q)
    b = lens_params(args.p, args.q2)
    verdict = lens_verdict(a, b)
    sw = verdict.simple_witness
    results = {
        "homotopy_equivalent": verdict.homotopy_equivalent,
        "homotopy_witness_m": verdict.homotopy_witness,
        "simple_homotopy_equivalent": verdict.simple_homotopy_equivalent,
        "simple_witness": None if sw is None else {"sign": sw[0], "inverted": sw[1]},
        "torsion_distinguished": verdict.torsion_distinguished,
        "torsion_match_twist": verdict.torsion_match_twist,
    }
    if args.all_d:
        results["twist_sweep"] = _sweep_rows(verdict.sweep.rows, "d")
        results["reference_class"] = _class_str(verdict.sweep.reference)
    return Report(
        "lens-classify",
        {"p": args.p, "q": a.q, "q2": b.q},
        results,
        status=0 if verdict.consistent else CROSSCHECK_VIOLATION,
    )


def render_lens_classify(report: Report) -> list[str]:
    res = report.results
    lines = []
    if res["homotopy_equivalent"]:
        lines.append(f"homotopy-equivalent: YES (m={res['homotopy_witness_m']})")
    else:
        lines.append("homotopy-equivalent: NO")
    if res["simple_homotopy_equivalent"]:
        w = res["simple_witness"]
        rel = f"{'-' if w['sign'] < 0 else '+'}q{'^-1' if w['inverted'] else ''}"
        lines.append(f"simple-homotopy-equivalent: YES (q' = {rel})")
    else:
        lines.append("simple-homotopy-equivalent: NO")
    if res["torsion_distinguished"]:
        lines.append("torsion-distinguished: YES")
    else:
        lines.append(f"torsion-distinguished: NO (match at d={res['torsion_match_twist']})")
    for row in res.get("twist_sweep", ()):
        lines.append(
            f"  d={row['d']}: {row['torsion_class']}"
            f" {'MATCH' if row['matches'] else 'DIFFERS'}"
        )
    if report.status:
        lines.append("CROSS-CHECK FAILED: torsion vs arithmetic disagree")
    return lines


def cmd_lens_sweep(args) -> Report:
    for p in args.primes:
        _check_modulus("p", p)
        lens_params(p, 1)  # rejects p < 2, as lens-classify does
    rows = []
    for p in args.primes:
        qs = units(p)
        separated = []
        failures = 0
        for i, q in enumerate(qs):
            for q2 in qs[i:]:
                verdict = lens_verdict(lens_params(p, q), lens_params(p, q2))
                failures += not verdict.consistent
                if verdict.homotopy_equivalent and not verdict.simple_homotopy_equivalent:
                    separated.append({"q": q, "q2": q2, "m": verdict.homotopy_witness})
        rows.append({"p": p, "separated": separated, "crosscheck_failures": failures})
    return Report(
        "lens-sweep",
        {"primes": list(args.primes)},  # not the parser's shared default
        {"primes": rows},
        status=CROSSCHECK_VIOLATION if any(r["crosscheck_failures"] for r in rows) else 0,
    )


def render_lens_sweep(report: Report) -> list[str]:
    lines = []
    for row in report.results["primes"]:
        p, pairs = row["p"], row["separated"]
        lines.append(f"p = {p}: {len(pairs)} homotopy-equivalent pairs that torsion separates")
        for pair in pairs:
            lines.append(
                f"  L({p},{pair['q']}) ~ L({p},{pair['q2']})  (m={pair['m']})"
                "  but NOT simple homotopy equivalent"
            )
        if row["crosscheck_failures"]:
            lines.append(
                f"  !! {row['crosscheck_failures']} cross-check failures (torsion vs arithmetic)"
            )
    lines.append("")
    if report.status:
        lines.append("FAILED: torsion disagreed with the arithmetic criterion somewhere")
    else:
        lines.append("cross-check clean: torsion = not(q2 = +-q^+-1) on every pair")
    return lines


def cmd_demo_freeproduct(args) -> Report:
    _check_modulus("p", args.p)
    rpt = free_product_scenario(args.p, args.q, args.q2)
    return Report(
        "demo-freeproduct",
        {"p": rpt.p, "q": rpt.q, "q2": rpt.q2},
        {
            "second_class": _class_str(rpt.sweep.reference),
            "rows": _sweep_rows(rpt.sweep.rows, "l"),
            "match_twist": rpt.sweep.match_twist,
            "verdict": "MATCH" if rpt.sweep.match_twist is not None else "DISTINCT",
        },
    )


def render_demo_freeproduct(report: Report) -> list[str]:
    res = report.results
    lines = [f"second complex class: {res['second_class']}"]
    for row in res["rows"]:
        lines.append(
            f"  l={row['l']}: {row['torsion_class']}"
            f" {'MATCH' if row['matches'] else 'DISTINCT'}"
        )
    if res["match_twist"] is None:
        lines.append("verdict: DISTINCT")
    else:
        lines.append(f"verdict: MATCH (l={res['match_twist']})")
    return lines


def _group_str(spec: GroupSpec) -> str:
    return "*".join(f"Z/{m}" for m in spec.factor_orders)


def _default_reps(spec: GroupSpec, modulus: int):
    """The first ``DEFAULT_REP_COUNT`` reps sending every generator to
    zeta^d, d a unit mod ``modulus`` (d = 0 for the trivial group)."""
    reps = []
    for d in units(modulus):
        try:
            reps.append(representation(spec, modulus, [d] * spec.num_factors))
        except ValueError:
            continue
        if len(reps) == DEFAULT_REP_COUNT:
            break
    if not reps:
        raise CliError(f"no default representation for {_group_str(spec)}; pass --rep")
    return reps


def _read_part(path: str, doc, part: str, read):
    """``read`` of a certificate document's ``part``, which holds it to its
    cap; an error names the file, and a rank-cap breach the part."""
    try:
        return read(cert_part(doc, part))
    except RankLimitError as exc:
        raise CliError(f"{path}: {part}: {exc}")
    except ValueError as exc:
        raise CliError(f"{path}: {exc}")


def cmd_verify_cert(args) -> Report:
    doc = _read_json(args.cert_file)
    start = _read_part(args.cert_file, doc, "start", complex_from_obj)
    ops = _read_part(args.cert_file, doc, "ops", lambda obj: ops_from_obj(start.spec, obj))
    # simple operations preserve d.d = 0, so every replayed step is a complex
    _check_complex(start, args.cert_file)
    spec = start.spec
    if args.rep:
        reps = []
        for text in args.rep:
            rep = parse_rep_spec(text, spec)
            if rep in reps:  # compared reduced, so n=7;g0=8 repeats n=7;g0=1
                raise CliError(f"--rep {_rep_label(rep)} is given more than once")
            reps.append(rep)
    else:
        modulus = max(spec.factor_orders)
        _check_modulus("default modulus", modulus)
        reps = _default_reps(spec, modulus)
    inputs = {
        "cert_file": args.cert_file,
        "reps": [_rep_label(r) for r in reps],
        "ops": len(ops),
    }
    try:
        end = replay_end(OpCertificate(start, ops, start))  # replay reads no end
    except OpLimitError as exc:
        raise CliError(f"{args.cert_file}: op {exc.step}: {exc.reason}")
    except InvalidOpError as exc:
        raise CliError(f"invalid certificate: {exc}")
    # checked on the document first, read only when that check fails; the
    # document is an object here, since its start and ops were read
    difference = None
    if not matches_obj(end, doc.get("end")):
        difference = first_difference(end, _read_part(args.cert_file, doc, "end", complex_from_obj))
    if difference is not None:
        where, replayed, recorded = difference
        return Report(
            "verify-cert",
            inputs,
            {
                "replay": False,
                "fingerprints_agree": None,
                "mismatch": {**where, "replayed": replayed, "recorded": recorded},
            },
            status=CHECK_FAILED,
        )
    fp_start = fingerprint(start, reps)
    fp_end = fingerprint(end, reps)
    agree = fingerprints_equivalent(fp_start, fp_end)

    def fp_rows(fp):
        return [
            {"rep": _rep_label(rep), "torsion_class": _class_str(cls)}
            for rep, cls in fp.entries
        ]

    return Report(
        "verify-cert",
        inputs,
        {
            "replay": True,
            "fingerprints_agree": agree,
            "fingerprint": fp_rows(fp_start),
            "end_fingerprint": fp_rows(fp_end),
        },
        # torsion is invariant under simple operations
        status=0 if agree else CROSSCHECK_VIOLATION,
    )


def _mismatch_str(m: dict) -> str:
    """The first difference between the replayed and the recorded end."""
    part, a, b = m["part"], m["replayed"], m["recorded"]
    if part == "group":
        a, b = _group_str(spec_from_obj(a)), _group_str(spec_from_obj(b))
        return f"group {a} replayed, {b} recorded"
    if part == "degree_window":
        return f"degrees {a[0]}..{a[1]} replayed, {b[0]}..{b[1]} recorded"
    if part == "rank":
        return f"rank in degree {m['degree']} {a} replayed, {b} recorded"
    if part == "label":
        return f"label {m['index']} in degree {m['degree']} {a!r} replayed, {b!r} recorded"
    return f"differential entry (degree {m['degree']}, row {m['row']}, column {m['column']})"


def render_verify_cert(report: Report) -> list[str]:
    res = report.results
    if not res["replay"]:
        return [f"replay: FAILED (end complex does not match: {_mismatch_str(res['mismatch'])})"]
    lines = ["replay: OK"]
    for row in res["fingerprint"]:
        cls = row["torsion_class"]
        lines.append(f"  {row['rep']} -> {cls if cls is not None else 'NOT_ACYCLIC'}")
    lines.append(f"fingerprints: {'AGREE' if res['fingerprints_agree'] else 'DISAGREE'}")
    if report.status:
        lines.append("CROSS-CHECK FAILED: torsion changed under simple operations")
    return lines


def cmd_gen_cert(args) -> Report:
    if args.length < 0:
        raise CliError(f"--length must be nonnegative, got {args.length}")
    if args.length > MAX_CERT_OPS:
        raise CliError(f"--length = {args.length} exceeds the certificate cap {MAX_CERT_OPS}")
    c = _load_complex_checked(args.complex_file)
    try:
        cert = random_op_sequence(c, args.length, args.seed)
    except InvalidOpError as exc:
        raise CliError(f"cannot generate a certificate: {exc}")
    _write_text(args.out, dumps_canonical(cert_to_obj(cert)))
    return Report(
        "gen-cert",
        {
            "complex_file": args.complex_file,
            "length": args.length,
            "seed": args.seed,
            "out": args.out,
        },
        {"ops": len(cert.ops), "end_ranks": list(cert.end.ranks)},
    )


def render_gen_cert(report: Report) -> list[str]:
    return [f"wrote certificate with {report.results['ops']} ops to {report.inputs['out']}"]


class _Parser(argparse.ArgumentParser):
    """argparse writes help through a method that swallows OSError, so
    ``--help`` on a closed stdout would exit 0; this one writes and flushes
    it, and a closed pipe raises BrokenPipeError out of parse_args.
    Subcommand parsers share the class."""

    def print_help(self, file=None) -> None:
        file = file or sys.stdout
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="torsionkit",
        description="Exact torsion invariants of based complexes over group rings.",
    )
    parser.add_argument("--json", action="store_true", help="emit one JSON document")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("torsion", help="torsion class of a complex file")
    p.add_argument("complex_file")
    p.add_argument("--rep", required=True, help="n=<modulus>;g0=<e0>,g1=<e1>,...")
    p.set_defaults(func=cmd_torsion, render=render_torsion)

    p = sub.add_parser("lens-emit", help="write the lens complex L(p,q)")
    p.add_argument("p", type=_int_arg)
    p.add_argument("q", type=_int_arg)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_lens_emit, render=render_lens_emit)

    p = sub.add_parser("lens-classify", help="classification verdicts for a pair")
    p.add_argument("p", type=_int_arg)
    p.add_argument("q", type=_int_arg)
    p.add_argument("q2", type=_int_arg)
    p.add_argument("--all-d", action="store_true", help="include the full twist sweep")
    p.set_defaults(func=cmd_lens_classify, render=render_lens_classify)

    p = sub.add_parser("lens-sweep", help="verdicts for every pair of lens spaces")
    p.add_argument(
        "--primes", type=_int_arg, nargs="+", default=[5, 7, 11, 13, 17], help="default: %(default)s"
    )
    p.set_defaults(func=cmd_lens_sweep, render=render_lens_sweep)

    p = sub.add_parser("demo-freeproduct", help="free-product torsion comparison")
    p.add_argument("p", type=_int_arg)
    p.add_argument("q", type=_int_arg)
    p.add_argument("q2", type=_int_arg)
    p.set_defaults(func=cmd_demo_freeproduct, render=render_demo_freeproduct)

    p = sub.add_parser("verify-cert", help="replay a certificate and compare fingerprints")
    p.add_argument("cert_file")
    p.add_argument("--rep", action="append", help="may be repeated; default: twist sweep")
    p.set_defaults(func=cmd_verify_cert, render=render_verify_cert)

    p = sub.add_parser("gen-cert", help="emit a random valid certificate")
    p.add_argument("complex_file")
    p.add_argument("--length", type=_int_arg, default=20)
    p.add_argument("--seed", type=_int_arg, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_cert, render=render_gen_cert)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except BrokenPipeError:  # from --help
        return _stdout_closed()
    try:
        report = args.func(args)
    except (
        CliError,
        EntryLimitError,
        ModulusMismatchError,
        SpecMismatchError,
        ShapeMismatchError,
        NotCoprimeError,
        NonPrimeUnsupportedError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    try:
        if args.json:
            # every value of a report is plain JSON already, so no deep copy
            sys.stdout.write(dumps_canonical({
                "command": report.command,
                "inputs": report.inputs,
                "results": report.results,
                "status": report.status,
            }))
        else:
            for line in args.render(report):
                print(line)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
    except BrokenPipeError:
        return _stdout_closed()
    return report.status


def _stdout_closed() -> int:
    _discard_stdout()
    print("error: stdout was closed before the whole report was written", file=sys.stderr)
    return PARSE_ERROR


def _discard_stdout() -> None:
    """Point stdout's descriptor at the null device, so that the
    interpreter's flush of what is still buffered cannot fail at exit."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
