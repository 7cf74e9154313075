import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from torsionkit import cli
from torsionkit import torsion as torsion_module
from torsionkit.cli import MAX_CERT_OPS, MAX_MODULUS, build_parser, main, parse_rep_spec, CliError
from torsionkit.grouprings import GroupSpec, ONE_ELEM, from_int, generator_elem, ring_sub
from torsionkit.chaincomplex import (
    MAX_DEGREES,
    MAX_TOTAL_RANK,
    complex_from_obj,
    complex_to_obj,
    dumps_canonical,
    load_complex,
    save_complex,
    two_term_complex,
)
from torsionkit.simpleops import (
    Expansion,
    Retraction,
    cert_from_obj,
    cert_to_obj,
    random_op_sequence,
    OpCertificate,
    DeckTransform,
    apply_op,
)
from torsionkit.grouprings import generator_word
from torsionkit.lensspaces import LensVerdict, lens_complex, lens_params

from helpers import twisted_lens_cells


def write_tampered_cert(path):
    """A certificate whose end complex is one deck transform off."""
    c = lens_complex(lens_params(7, 2))
    cert = random_op_sequence(c, 10, 2)
    tampered = OpCertificate(
        cert.start,
        cert.ops,
        apply_op(cert.end, DeckTransform(0, 0, generator_word(GroupSpec.cyclic(7), 0, 1))),
    )
    path.write_text(dumps_canonical(cert_to_obj(tampered)), encoding="utf-8")


@pytest.fixture()
def lens_file(tmp_path):
    path = tmp_path / "l72.json"
    assert main(["lens-emit", "7", "2", "--out", str(path)]) == 0
    return path


class TestRepSpecParsing:
    def test_cyclic(self):
        rep = parse_rep_spec("n=7;g0=3", GroupSpec.cyclic(7))
        assert rep.modulus == 7 and rep.generator_exponents == (3,)

    def test_free_product(self):
        rep = parse_rep_spec("n=7;g0=1,g1=1", GroupSpec.free_product([7, 7]))
        assert rep.generator_exponents == (1, 1)

    def test_errors(self):
        for text in (
            "g0=1",
            "n=7",
            "n=7;g0=x",
            "n=12;g0=1",  # no hom Z/7 -> zeta_12
            "n=7;g0=1;g0=3",  # repeated key
            "n=7;n=9;g0=1",
            "n=9;n=7;g0=1",  # the second n alone would be valid
            "n=7;g0=1;g5=3",  # no factor 5
        ):
            with pytest.raises(CliError):
                parse_rep_spec(text, GroupSpec.cyclic(7))

    @pytest.mark.parametrize(
        "text, val",
        [
            ("n=\u0667;g0=1", "\u0667"),
            ("n=7;g0=0_1", "0_1"),
            ("n=7;g0=1\u0660", "1\u0660"),
            ("n=7;g0=--1", "--1"),
            pytest.param("n=7;g0=" + "1" * 5000, "1" * 5000, id="5000-digits"),  # past int()'s digit limit
        ],
    )
    def test_value_not_of_ascii_digits_exits_1(self, lens_file, capsys, text, val):
        """int() would read '\u0667' as 7 and '0_1' as 1; the spec refuses both."""
        with pytest.raises(CliError, match="is not an integer"):
            parse_rep_spec(text, GroupSpec.cyclic(7))
        assert main(["torsion", str(lens_file), "--rep", text]) == 1
        assert capsys.readouterr().err == f"error: rep spec value {val!r} is not an integer\n"

    def test_generator_key_not_of_ascii_digits(self):
        for key in ("g\u0660", "g-0", "g0_0"):
            with pytest.raises(CliError, match="bad generator key"):
                parse_rep_spec(f"n=7;{key}=1", GroupSpec.cyclic(7))

    @pytest.mark.parametrize("modulus", ["0", "-7"])
    def test_modulus_below_one_exits_1(self, lens_file, capsys, modulus):
        with pytest.raises(CliError, match="modulus must be >= 1"):
            parse_rep_spec(f"n={modulus};g0=1", GroupSpec.cyclic(7))
        assert main(["torsion", str(lens_file), "--rep", f"n={modulus};g0=1"]) == 1
        assert "modulus must be >= 1" in capsys.readouterr().err


class TestTorsionCommand:
    def test_lens_torsion_class(self, lens_file, capsys):
        assert main(["torsion", str(lens_file), "--rep", "n=7;g0=1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("torsion class:")
        assert "(mod Phi_7)" in out

    def test_not_acyclic_exits_2(self, lens_file, capsys):
        assert main(["torsion", str(lens_file), "--rep", "n=7;g0=0"]) == 2
        assert "NOT_ACYCLIC" in capsys.readouterr().out

    def test_malformed_file_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["torsion", str(bad), "--rep", "n=7;g0=1"]) == 1
        err = capsys.readouterr().err
        assert "line 1" in err

    def test_invalid_complex_exits_1(self, tmp_path, capsys):
        doc = {
            "group": {"kind": "cyclic", "order": 7},
            "min_degree": 0,
            "ranks": [1, 1, 1],
            "differentials": {
                "0": [[[[1, []], [-1, [[0, 1]]]]]],
                "1": [[[[1, []], [-1, [[0, 1]]]]]],
            },
            "labels": [["a"], ["b"], ["c"]],
        }
        path = tmp_path / "notacomplex.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", str(path), "--rep", "n=7;g0=1"]) == 1
        assert "not a complex" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_non_integer_coefficient_exits_1(self, tmp_path, capsys, bad):
        doc = json.loads((GOLDEN / "l72.json").read_text(encoding="utf-8"))
        doc["differentials"]["0"][0][0][0][0] = bad  # the coefficient 1 of 1 - t^4
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", str(path), "--rep", "n=7;g0=1"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_free_product_complex_file(self, tmp_path, capsys):
        from torsionkit.lensspaces import free_product_scenario
        from torsionkit.grouprings import GroupSpec as GS

        spec = GS.free_product([7, 7])
        c = twisted_lens_cells(spec, 1, 1, 7, 4)
        path = tmp_path / "fp.json"
        save_complex(c, path)
        assert main(["torsion", str(path), "--rep", "n=7;g0=1,g1=1"]) == 0
        out = capsys.readouterr().out
        # matches the second-factor class of the free-product comparison
        report = free_product_scenario(7, 1, 2)
        from torsionkit.cyclofield import cyclo_str

        assert cyclo_str(report.sweep.reference.representative) in out

    def test_json_output_is_deterministic(self, lens_file, capsys):
        assert main(["--json", "torsion", str(lens_file), "--rep", "n=7;g0=1"]) == 0
        first = capsys.readouterr().out
        assert main(["--json", "torsion", str(lens_file), "--rep", "n=7;g0=1"]) == 0
        second = capsys.readouterr().out
        assert first == second
        doc = json.loads(first)
        assert doc["results"]["acyclic"] is True
        assert doc["status"] == 0


class TestLensEmit:
    def test_round_trips_bit_exactly(self, tmp_path):
        path = tmp_path / "l71.json"
        assert main(["lens-emit", "7", "1", "--out", str(path)]) == 0
        payload = path.read_text(encoding="utf-8")
        c = load_complex(path)
        assert c == lens_complex(lens_params(7, 1))
        save_complex(c, path)
        assert path.read_text(encoding="utf-8") == payload

    def test_r_is_modular_inverse(self, tmp_path):
        path = tmp_path / "l72.json"
        main(["lens-emit", "7", "2", "--out", str(path)])
        doc = json.loads(path.read_text(encoding="utf-8"))
        top = doc["differentials"]["0"][0][0]
        words = sorted(tuple(map(tuple, w)) for _, w in top)
        assert words == [(), ((0, 4),)]  # 1 - t^4 since 2*4 = 1 mod 7

    def test_not_coprime_exits_1(self, tmp_path, capsys):
        assert main(["lens-emit", "6", "2", "--out", str(tmp_path / "x.json")]) == 1
        assert "gcd" in capsys.readouterr().err

    def test_unwritable_out_exits_1(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert main(["lens-emit", "7", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")


class TestLensClassify:
    def test_seven_one_vs_seven_two(self, capsys):
        assert main(["lens-classify", "7", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "homotopy-equivalent: YES (m=3)" in out
        assert "simple-homotopy-equivalent: NO" in out
        assert "torsion-distinguished: YES" in out

    def test_17_family(self, capsys):
        assert main(["lens-classify", "17", "1", "4"]) == 0
        out = capsys.readouterr().out
        assert "homotopy-equivalent: YES" in out
        assert "simple-homotopy-equivalent: NO" in out

    def test_simple_pair(self, capsys):
        assert main(["lens-classify", "7", "1", "6"]) == 0
        out = capsys.readouterr().out
        assert "simple-homotopy-equivalent: YES (q' = -q)" in out
        assert "torsion-distinguished: NO" in out

    def test_all_d_sweep(self, capsys):
        assert main(["--json", "lens-classify", "7", "1", "2", "--all-d"]) == 0
        doc = json.loads(capsys.readouterr().out)
        sweep = doc["results"]["twist_sweep"]
        assert len(sweep) == 6
        assert all(not row["matches"] for row in sweep)

    def test_crosscheck_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(LensVerdict, "consistent", property(lambda self: False))
        assert main(["lens-classify", "7", "1", "2"]) == 3
        assert capsys.readouterr().out.endswith(
            "torsion-distinguished: YES\nCROSS-CHECK FAILED: torsion vs arithmetic disagree\n"
        )
        assert main(["--json", "lens-classify", "7", "1", "2"]) == 3
        assert '"status":3' in capsys.readouterr().out
        assert main(["lens-sweep", "--primes", "5"]) == 3
        assert capsys.readouterr().out.endswith(
            "  !! 10 cross-check failures (torsion vs arithmetic)\n\n"
            "FAILED: torsion disagreed with the arithmetic criterion somewhere\n"
        )
        assert main(["--json", "lens-sweep", "--primes", "5"]) == 3
        assert '"status":3' in capsys.readouterr().out


class TestInputBounds:
    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("l72.json", "group", [7]),
            ("l72.json", "differentials", [1]),
            ("l72.json", "labels", 5),
            ("cert.json", "ops", ["x"]),
            ("cert.json", "ops", {"a": 1}),
            ("l72.json", "labels", None),
            ("l72.json", "labels", ["a", "b", "c", "d"]),
            ("l72.json", "labels", [[1], [2], [3], [4]]),
            ("l72.json", "labels", [None]),
            ("l72.json", "labels", [[None], [None], [None], [None]]),
            ("l72.json", "min_degree", 1),
        ],
    )
    def test_malformed_document_exits_1(self, tmp_path, capsys, name, key, value):
        """A document of the wrong shape is an input error, not a traceback."""
        doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        doc[key] = value
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        if name == "l72.json":
            runs = [
                ["torsion", path, "--rep", "n=7;g0=1"],
                ["gen-cert", path, "--out", str(tmp_path / "cert.json")],
            ]
        else:
            runs = [["verify-cert", path]]
        for argv in runs:
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == ""

    @pytest.mark.parametrize("bad", [{}, ""])
    @pytest.mark.parametrize(
        "name, path",
        [
            ("l72.json", ("differentials", "1", 0, 0)),  # an entry's term list
            ("l72.json", ("differentials", "0", 0, 0, 0)),  # one term
            ("l72.json", ("differentials", "0", 0, 0, 0, 1)),  # its letter list
            ("l72.json", ("differentials", "0", 0, 0, 1, 1, 0)),  # one letter pair
            ("cert.json", ("ops", 0, "word")),  # a deck transform's letter list
            ("cert.json", ("ops", 3, "coefficient")),  # a slide's term list
        ],
        ids=["term-list", "term", "letters", "letter", "deck-word", "slide-coefficient"],
    )
    def test_non_list_where_a_list_belongs_exits_1(self, tmp_path, capsys, name, path, bad):
        """A dict or string in place of a list is refused, not read as an
        empty term list (zero) or an empty letter list (the identity)."""
        doc = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = bad
        target = tmp_path / "coerced.json"
        target.write_text(json.dumps(doc), encoding="utf-8")
        if name == "l72.json":
            argv = ["torsion", str(target), "--rep", "n=7;g0=1"]
        else:
            argv = ["verify-cert", str(target)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""

    def test_differential_key_outside_window_exits_1(self, tmp_path, capsys):
        """A differential the degree window cannot hold is refused, not dropped."""
        doc = json.loads((GOLDEN / "l72.json").read_text(encoding="utf-8"))
        doc["differentials"]["7"] = doc["differentials"]["0"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", str(path), "--rep", "n=7;g0=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: malformed complex document: differential keys 7"
            " lie outside the degrees 0, 1, 2\n"
        )

    @pytest.mark.parametrize("command", ["torsion", "verify-cert"])
    def test_deeply_nested_document_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000, encoding="utf-8")
        argv = [command, str(path)] + (["--rep", "n=7;g0=1"] if command == "torsion" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: JSON nested too deeply\n"

    @pytest.mark.parametrize("command", ["torsion", "gen-cert", "verify-cert"])
    def test_integer_past_the_digit_limit_exits_1(self, tmp_path, capsys, command):
        """json reads an integer with int(), which refuses more than
        sys.get_int_max_str_digits() digits with a ValueError."""
        path = tmp_path / "long.json"
        path.write_text('{"min_degree": ' + "1" * 5000 + "}", encoding="utf-8")
        extra = {"torsion": ["--rep", "n=7;g0=1"], "gen-cert": ["--out", str(tmp_path / "out.json")]}
        assert main([command, str(path)] + extra.get(command, [])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: invalid JSON: an integer of more than {sys.get_int_max_str_digits()} digits\n"
        )
        assert not (tmp_path / "out.json").exists()

    @pytest.mark.parametrize("command", ["torsion", "verify-cert"])
    def test_document_not_utf8_exits_1(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"labels": "\xe9"}')
        argv = [command, str(path)] + (["--rep", "n=7;g0=1"] if command == "torsion" else [])
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: not UTF-8 text (byte 12)\n"

    def test_modulus_cap(self, tmp_path, capsys):
        """Each modulus the CLI computes in is checked before any work is done."""
        big = str(MAX_MODULUS + 1)
        c = lens_complex(lens_params(MAX_MODULUS + 1, 1))
        cert = tmp_path / "big-cert.json"
        cert.write_text(dumps_canonical(cert_to_obj(OpCertificate(c, (), c))), encoding="utf-8")
        for argv, name in (
            (["lens-emit", big, "1", "--out", str(tmp_path / "x.json")], "p"),
            (["lens-classify", big, "1", "2"], "p"),
            (["demo-freeproduct", big, "1", "2"], "p"),
            (["lens-sweep", "--primes", "5", big], "p"),
            (["torsion", str(GOLDEN / "l72.json"), "--rep", f"n={big};g0=0"], "n"),
            (["verify-cert", str(cert)], "default modulus"),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {name} = {big} exceeds the modulus cap {MAX_MODULUS}\n"
            )
        assert not (tmp_path / "x.json").exists()
        assert main(["lens-emit", str(MAX_MODULUS), "1", "--out", str(tmp_path / "x.json")]) == 0

    def test_op_count_cap(self, lens_file, tmp_path, capsys):
        """Certificates longer than MAX_CERT_OPS are refused before any work."""
        out = tmp_path / "cert.json"
        too_long = str(MAX_CERT_OPS + 1)
        assert main(["gen-cert", str(lens_file), "--length", too_long, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: --length = {too_long} exceeds the certificate cap {MAX_CERT_OPS}\n"
        )
        assert not out.exists()
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        doc["ops"] = (doc["ops"] * (MAX_CERT_OPS // len(doc["ops"]) + 1))[: MAX_CERT_OPS + 1]
        out.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-cert", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {out}: ops = {too_long} exceeds the certificate cap {MAX_CERT_OPS}\n"
        )

    def test_total_rank_cap(self, tmp_path, capsys):
        """A complex whose ranks sum past MAX_TOTAL_RANK is refused before
        any matrix is built: without the cap, this file asks for a
        2000 x 2000 zero differential, which took 16.7 s to eliminate."""
        doc = {
            "group": {"kind": "cyclic", "order": 7},
            "min_degree": 0,
            "ranks": [2000, 2000],
            "differentials": {},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")
        cert = tmp_path / "wide-cert.json"
        cert.write_text(json.dumps({"start": doc, "ops": [], "end": doc}), encoding="utf-8")
        for argv, what in (
            (["torsion", str(path), "--rep", "n=7;g0=1"], path),
            (["gen-cert", str(path), "--out", str(tmp_path / "out.json")], path),
            (["verify-cert", str(cert)], f"{cert}: start"),
        ):
            t0 = time.perf_counter()
            assert main(argv) == 1
            assert time.perf_counter() - t0 < 0.5
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: {what}: total rank 4000 exceeds the rank cap {MAX_TOTAL_RANK}\n"
            )
        assert not (tmp_path / "out.json").exists()
        half = MAX_TOTAL_RANK // 2
        doc["ranks"] = [half, MAX_TOTAL_RANK - half]
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", str(path), "--rep", "n=7;g0=1"]) == 2
        assert capsys.readouterr().out == f"NOT_ACYCLIC at degree 0 (defect {half})\n"

    def test_degree_cap(self, tmp_path, monkeypatch, capsys):
        """``long.json`` lists 1026 degrees (rank 1 at both ends, 0 between)
        and is refused with the recorded error line; its end past the cap
        names the certificate's part.  Uncapped, a gap of 200,000 zero
        degrees ran ``torsion`` for 1.2 s and 46 MB before NOT_ACYCLIC."""
        monkeypatch.chdir(tmp_path)
        doc = json.loads((GOLDEN / "long.json").read_text(encoding="utf-8"))
        (tmp_path / "long.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", "long.json", "--rep", "n=7;g0=1"]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", (GOLDEN / "torsion-long.stderr").read_text(encoding="utf-8"))
        assert main(["gen-cert", "long.json", "--out", "out.json"]) == 1
        assert capsys.readouterr().err == (
            f"error: long.json: ranks list 1026 degrees, past the degree cap {MAX_DEGREES}\n"
        )
        assert not (tmp_path / "out.json").exists()
        cert = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        for part in ("start", "end"):
            (tmp_path / "c.json").write_text(json.dumps({**cert, part: doc}), encoding="utf-8")
            assert main(["verify-cert", "c.json"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: c.json: {part}: ranks list 1026 degrees, past the degree cap {MAX_DEGREES}\n"
            )
        doc["ranks"] = doc["ranks"][:MAX_DEGREES - 1] + [1]
        (tmp_path / "long.json").write_text(json.dumps(doc), encoding="utf-8")
        assert main(["torsion", "long.json", "--rep", "n=7;g0=1"]) == 2
        assert capsys.readouterr().out == "NOT_ACYCLIC at degree 0 (defect 1)\n"

    def test_golden_and_benchmark_complexes_fit_the_rank_cap(self):
        """The golden complexes, and the largest the benchmark verifies: a
        lens start over Z/13 and its end after 400 random simple operations."""
        cert = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        docs = [json.loads((GOLDEN / "l72.json").read_text(encoding="utf-8"))]
        docs += [cert["start"], cert["end"]]
        bench = random_op_sequence(lens_complex(lens_params(13, 2)), 400, 0)
        docs += [complex_to_obj(bench.start), complex_to_obj(bench.end)]
        assert all(sum(doc["ranks"]) <= MAX_TOTAL_RANK for doc in docs)

    @pytest.mark.parametrize("edit", ["end", "expansions", "retractions"])
    def test_certificate_replay_rank_cap(self, tmp_path, capsys, edit):
        """verify-cert refuses a certificate whose end (on the document) or
        whose replay after some op (before that op edits the working copy)
        passes MAX_TOTAL_RANK.  Unchecked, an end
        claiming ranks (6000, 6000) reached 292 MB of memory before replay
        failed, and 1200 expansions at degree 0 took 14.9 s.  A retraction
        takes 2 off the running total, so the last file reaches only
        replay, which refuses its first op."""
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        path = tmp_path / "big.json"
        start = sum(doc["start"]["ranks"])
        expansion = {"kind": "expansion", "degree": 0, "position": 0}
        if edit == "end":
            doc["end"] = {**doc["end"], "ranks": [6000, 6000], "differentials": {}}
            expected = f"{path}: end: total rank 12000 exceeds the rank cap {MAX_TOTAL_RANK}"
        elif edit == "expansions":
            doc["ops"] = [expansion] * 1200
            index = (MAX_TOTAL_RANK - start) // 2
            expected = (
                f"{path}: op {index}: total rank {MAX_TOTAL_RANK + 2}"
                f" exceeds the rank cap {MAX_TOTAL_RANK}"
            )
        else:
            retraction = {"kind": "retraction", "degree": 5, "position": 0}
            doc["ops"] = [retraction] * 10 + [expansion] * ((MAX_TOTAL_RANK - start) // 2 + 10)
            expected = "invalid certificate: step 0: retraction position 0 out of range at degree 5"
        path.write_text(json.dumps(doc), encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["verify-cert", str(path)]) == 1
        assert time.perf_counter() - t0 < 0.5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected}\n"

    def test_gen_cert_at_the_rank_cap_verifies(self, tmp_path, capsys):
        """gen-cert never writes a certificate that verify-cert refuses: from
        a start at the cap, its expansions stay within the cap too."""
        half = MAX_TOTAL_RANK // 2
        one, zero = [[1, []]], []
        doc = {
            "group": {"kind": "cyclic", "order": 7},
            "min_degree": 0,
            "ranks": [half, half],
            "differentials": {"0": [[one if i == j else zero for j in range(half)] for i in range(half)]},
        }
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "cert.json"
        assert main(["gen-cert", str(path), "--length", "60", "--seed", "3", "--out", str(out)]) == 0
        ops = json.loads(out.read_text(encoding="utf-8"))["ops"]
        assert {"expansion", "retraction"} <= {op["kind"] for op in ops}
        capsys.readouterr()
        assert main(["verify-cert", str(out)]) == 0
        assert capsys.readouterr().out.endswith("fingerprints: AGREE\n")

    def test_far_expansion_exits_1_at_once(self, tmp_path, capsys):
        """One expansion far outside the degree window is refused before
        replay widens the window: replaying it filled every degree in
        between, 4.9 s and 139 MB at degree 10**6."""
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        doc["ops"] = [{"kind": "expansion", "degree": 10**6, "position": 0}]
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        t0 = time.perf_counter()
        assert main(["verify-cert", str(path)]) == 1
        assert time.perf_counter() - t0 < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: op 0: expansion degree 1000000 lies outside -1..3,"
            " the degrees the ops before it can reach\n"
        )

    def _write_cert(self, path, start, ops, far=None):
        """A certificate of ``ops`` from ``start``, then, if ``far`` is given,
        an expansion at degree ``far`` that only the document records."""
        end = start
        for op in ops:
            end = apply_op(end, op)
        doc = cert_to_obj(OpCertificate(start, tuple(ops), end))
        if far is not None:
            doc["ops"].append({"kind": "expansion", "degree": far, "position": 0})
        path.write_text(dumps_canonical(doc), encoding="utf-8")

    def test_expansions_at_the_reach_of_each_op_verify(self, tmp_path, capsys):
        """An expansion may lie one degree below or at the top of the window
        the expansions before it built; one degree further is refused."""
        start = cert_from_obj(json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))).start
        lo, hi = start.min_degree, start.max_degree
        path = tmp_path / "reach.json"
        reach = [Expansion(lo - 1, 0), Expansion(hi, 0)]
        for last in (lo - 2, hi + 1):
            self._write_cert(path, start, reach + [Expansion(last, 0)])
            assert main(["verify-cert", str(path)]) == 0
        for last in (lo - 3, hi + 2):
            self._write_cert(path, start, reach, far=last)
            capsys.readouterr()
            assert main(["verify-cert", str(path)]) == 1
            assert capsys.readouterr().err == (
                f"error: {path}: op 2: expansion degree {last} lies outside"
                f" {lo - 2}..{hi + 1}, the degrees the ops before it can reach\n"
            )

    def test_ops_that_keep_the_window_do_not_widen_its_reach(self, tmp_path, capsys):
        """N deck transforms leave the window as it was, so an expansion at
        max_degree + N after them is refused: replay would fill N - 1 empty
        degrees in one step."""
        start = cert_from_obj(json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))).start
        lo, hi = start.min_degree, start.max_degree
        d = next(k for k in start.degrees if start.rank(k))
        decks = [DeckTransform(d, 0, generator_word(start.spec, 0, 1))] * 5
        path = tmp_path / "decks.json"
        self._write_cert(path, start, decks, far=hi + 5)
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: op 5: expansion degree {hi + 5} lies outside"
            f" {lo - 1}..{hi}, the degrees the ops before it can reach\n"
        )

    def test_a_retraction_narrows_the_reach(self, tmp_path, capsys):
        """The reach is that of the complex as it stands, not the widest
        window the expansions so far built: after an expansion at the top of
        L(7,2) and its retraction, the window is 0..3 again, so an expansion
        at degree 4 is refused."""
        start = lens_complex(lens_params(7, 2))
        doc = cert_to_obj(OpCertificate(start, (Expansion(3, 0), Retraction(3, 0), Expansion(4, 0)), start))
        path = tmp_path / "narrow.json"
        path.write_text(dumps_canonical(doc), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}: op 2: expansion degree 4 lies outside -1..3,"
            " the degrees the ops before it can reach\n"
        )

    @pytest.mark.parametrize("seed", [4, 5, 9, 11, 12, 16, 30])
    def test_gen_cert_after_a_collapse_verifies(self, tmp_path, capsys, seed):
        """A certificate that retracts its start to the zero complex, whose
        window is {0}, and then expands at degree -1 verifies: gen-cert and
        replay read one reach rule.  Reading the widest window the
        expansions had built, 0..2 for this start, verify-cert refused each
        of these seeds' certificates."""
        out = tmp_path / f"cert{seed}.json"
        argv = ["gen-cert", str(GOLDEN / "collapse12.json"), "--length", "3", "--seed", str(seed)]
        assert main(argv + ["--out", str(out)]) == 0
        ops = json.loads(out.read_text(encoding="utf-8"))["ops"]
        assert {"kind": "expansion", "degree": -1, "position": 0} in ops
        capsys.readouterr()
        assert main(["verify-cert", str(out)]) == 0
        assert capsys.readouterr().out.endswith("fingerprints: AGREE\n")

    def test_collapse_golden(self, tmp_path, monkeypatch, capsys):
        """gen-cert and verify-cert on collapse12.json, byte for byte."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "collapse12.json").write_bytes((GOLDEN / "collapse12.json").read_bytes())
        argv = ["gen-cert", "collapse12.json", "--length", "3", "--seed", "4", "--out", "collapse12-cert.json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == (GOLDEN / "gen-cert-collapse12.text").read_text(encoding="utf-8")
        assert (tmp_path / "collapse12-cert.json").read_bytes() == (GOLDEN / "collapse12-cert.json").read_bytes()
        assert main(["verify-cert", "collapse12-cert.json"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify-cert-collapse12.text").read_text(encoding="utf-8")


    def test_gen_cert_length_400_verifies(self, lens_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["gen-cert", str(lens_file), "--length", "400", "--seed", "7", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify-cert", str(out)]) == 0
        assert capsys.readouterr().out.endswith("fingerprints: AGREE\n")

    def test_start_that_is_not_a_complex_exits_1(self, tmp_path, capsys):
        """verify-cert checks d.d = 0 on start, as torsion does on a complex file."""
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        doc["ops"] = []
        doc["end"] = doc["start"]
        doc["start"]["differentials"]["1"] = [[[[1, []]]]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = tmp_path / "start.json"
        start.write_text(json.dumps(doc["start"]), encoding="utf-8")
        for argv, name in (
            (["verify-cert", str(path)], path),
            (["torsion", str(start), "--rep", "n=7;g0=1"], start),
        ):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {name}: not a complex (degree 0)\n"

    @pytest.mark.parametrize("prime", ["1", "0", "-5"])
    def test_lens_sweep_prime_below_2_exits_1(self, capsys, prime):
        assert main(["lens-sweep", "--primes", "5", prime]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: p must be >= 2, got {prime}\n"


class TestDemoFreeproduct:
    def test_distinct_verdict(self, capsys):
        assert main(["demo-freeproduct", "7", "1", "2"]) == 0
        out = capsys.readouterr().out
        assert "verdict: DISTINCT" in out
        assert out.count("DISTINCT") >= 6

    def test_match_verdict(self, capsys):
        assert main(["demo-freeproduct", "7", "2", "2"]) == 0
        assert "verdict: MATCH (l=1)" in capsys.readouterr().out

    def test_json_rows(self, capsys):
        assert main(["--json", "demo-freeproduct", "7", "1", "6"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["results"]["verdict"] == "MATCH"


class TestCertificates:
    def test_gen_then_verify(self, lens_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        assert main(
            ["gen-cert", str(lens_file), "--length", "30", "--seed", "4", "--out", str(cert)]
        ) == 0
        assert main(["verify-cert", str(cert)]) == 0
        out = capsys.readouterr().out
        assert "replay: OK" in out and "fingerprints: AGREE" in out
        # one fingerprint line per representation in the default twist sweep
        assert out.count("n=7;g0=") == 6

    def test_fingerprint_marks_non_acyclic_entries(self, lens_file, tmp_path, capsys):
        cert = tmp_path / "cert.json"
        main(["gen-cert", str(lens_file), "--length", "5", "--seed", "8", "--out", str(cert)])
        assert main(["verify-cert", str(cert), "--rep", "n=7;g0=0", "--rep", "n=7;g0=1"]) == 0
        out = capsys.readouterr().out
        assert "NOT_ACYCLIC" in out and "(mod Phi_7)" in out

    def test_gen_is_deterministic_per_seed(self, lens_file, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["gen-cert", str(lens_file), "--length", "30", "--seed", "9", "--out", str(a)])
        main(["gen-cert", str(lens_file), "--length", "30", "--seed", "9", "--out", str(b)])
        assert a.read_text() == b.read_text()

    def test_tampered_end_exits_2(self, tmp_path, capsys):
        path = tmp_path / "tampered.json"
        write_tampered_cert(path)
        assert main(["verify-cert", str(path)]) == 2
        assert "FAILED" in capsys.readouterr().out

    @pytest.mark.parametrize("part", ["group", "degree_window", "rank", "label", "entry"])
    def test_replay_mismatch_names_the_first_difference(self, tmp_path, capsys, part):
        """A replay mismatch names the first differing part of the ends, in
        the order group, degree window, rank, label, differential entry."""
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        end = cert_from_obj(doc).end
        lo = end.min_degree
        if part == "group":
            doc["end"]["group"] = {"kind": "free_product", "factor_orders": [7, 7]}
            where, line = {}, "group Z/7 replayed, Z/7*Z/7 recorded"
        elif part == "degree_window":
            doc["end"] = complex_to_obj(apply_op(end, Expansion(lo - 1, 0)))
            where, line = {}, f"degrees {lo}..{end.max_degree} replayed, {lo - 1}..{end.max_degree} recorded"
        elif part == "rank":
            doc["end"] = complex_to_obj(apply_op(end, Expansion(lo + 1, 0)))
            where = {"degree": lo + 1}
            line = f"rank in degree {lo + 1} {end.rank(lo + 1)} replayed, {end.rank(lo + 1) + 1} recorded"
        elif part == "label":
            doc["end"]["labels"][2][0] = "renamed"
            where = {"degree": lo + 2, "index": 0}
            line = f"label 0 in degree {lo + 2} {end.degree_labels(lo + 2)[0]!r} replayed, 'renamed' recorded"
        else:
            doc["end"] = complex_to_obj(apply_op(end, DeckTransform(lo + 1, 0, generator_word(GroupSpec.cyclic(7)))))
            where = {"degree": lo, "row": 0, "column": 0}
            line = f"differential entry (degree {lo}, row 0, column 0)"
        path = tmp_path / "mismatch.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 2
        assert capsys.readouterr().out == f"replay: FAILED (end complex does not match: {line})\n"
        assert main(["--json", "verify-cert", str(path)]) == 2
        mismatch = json.loads(capsys.readouterr().out)["results"]["mismatch"]
        assert mismatch["part"] == part
        assert {k: mismatch[k] for k in where} == where

    def test_recorded_end_is_checked_on_its_document(self, monkeypatch, capsys):
        """A certificate whose end matches its replay reads only its start
        into a complex and never the whole certificate; the end's
        fingerprint is taken from the replayed end."""
        reads, ends = [], []
        real, real_fingerprint = cli.complex_from_obj, cli.fingerprint
        monkeypatch.setattr(cli, "complex_from_obj", lambda obj: reads.append(obj) or real(obj))
        monkeypatch.setattr(cli, "cert_from_obj", None, raising=False)
        monkeypatch.setattr(cli, "fingerprint", lambda c, reps: ends.append(c) or real_fingerprint(c, reps))
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        assert main(["verify-cert", str(GOLDEN / "cert.json")]) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify-cert.text").read_text(encoding="utf-8")
        assert reads == [doc["start"]]
        assert ends[1] == complex_from_obj(doc["end"])

    @pytest.mark.parametrize(
        "second, error",
        [
            ({"kind": "expansion", "degree": 0.5, "position": 0}, "expected an integer, got 0.5"),
            ({"kind": "twist"}, "unknown op kind 'twist'"),
        ],
    )
    def test_an_op_error_comes_before_a_malformed_end(self, tmp_path, capsys, second, error):
        """The end is read after the replay, so a bad op is reported first."""
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        doc["end"]["ranks"] = "three"
        op, doc["ops"][1] = doc["ops"][1], second
        path = tmp_path / "two-faults.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {path}: {error}\n"
        doc["ops"][1] = op
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}: malformed complex document: ")

    def test_entry_size_breach_in_a_fingerprint_exits_1(self, tmp_path, monkeypatch, capsys):
        """A certificate whose start is growth13.json, under a cap its
        elimination passes: the breach is no NOT_ACYCLIC entry of the
        fingerprint but one error line."""
        c = complex_from_obj(json.loads((GOLDEN / "growth13.json").read_text(encoding="utf-8")))
        path = tmp_path / "grown.json"
        path.write_text(dumps_canonical(cert_to_obj(OpCertificate(c, (), c))), encoding="utf-8")
        monkeypatch.setattr(torsion_module, "MAX_ENTRY_BITS", 100)
        assert main(["verify-cert", str(path), "--rep", "n=13;g0=1"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the elimination of the differential at degree 2 built an entry of 111 bits,"
            " past MAX_ENTRY_BITS = 100\n"
        )

    def test_invalid_op_exits_1_with_step(self, tmp_path, capsys):
        c = lens_complex(lens_params(7, 2))
        cert = OpCertificate(c, (DeckTransform(0, 5, generator_word(GroupSpec.cyclic(7), 0, 1)),), c)
        path = tmp_path / "invalid.json"
        path.write_text(dumps_canonical(cert_to_obj(cert)), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        assert "step 0" in capsys.readouterr().err

    def test_gen_cert_unwritable_out_exits_1(self, lens_file, tmp_path, capsys):
        out = tmp_path / "missing" / "cert.json"
        assert main(["gen-cert", str(lens_file), "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}")

    def test_negative_length_exits_1(self, lens_file, tmp_path, capsys):
        out = tmp_path / "cert.json"
        assert main(["gen-cert", str(lens_file), "--length", "-3", "--out", str(out)]) == 1
        assert "--length must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_cert_exits_1(self, tmp_path, capsys):
        assert main(["verify-cert", str(tmp_path / "missing.json")]) == 1
        assert "error: cannot read" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["verify-cert", str(bad)]) == 1
        assert "invalid JSON at line 1" in capsys.readouterr().err

    def test_float_op_degree_exits_1(self, tmp_path, capsys):
        doc = json.loads((GOLDEN / "cert.json").read_text(encoding="utf-8"))
        doc["ops"][0]["degree"] = float(doc["ops"][0]["degree"])
        path = tmp_path / "coerced.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_non_object_cert_exits_1(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[]", encoding="utf-8")
        assert main(["verify-cert", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_fingerprint_disagreement_exits_3(self, monkeypatch, capsys):
        """After an exact replay, torsion must agree: a disagreement is a
        cross-check violation, not a failed verification."""
        real = cli.fingerprint
        calls = []

        def end_swapped(c, reps):
            calls.append(c)
            if len(calls) % 2 == 0:  # the end's fingerprint, taken on L(7,1)
                c = lens_complex(lens_params(7, 1))
            return real(c, reps)

        monkeypatch.setattr(cli, "fingerprint", end_swapped)
        cert = str(GOLDEN / "cert.json")
        assert main(["verify-cert", cert]) == 3
        assert capsys.readouterr().out.endswith(
            "fingerprints: DISAGREE\n"
            "CROSS-CHECK FAILED: torsion changed under simple operations\n"
        )
        assert main(["--json", "verify-cert", cert]) == 3
        doc = json.loads(capsys.readouterr().out)
        assert doc["status"] == 3 and doc["results"]["fingerprints_agree"] is False

    def test_explicit_reps(self, lens_file, tmp_path):
        cert = tmp_path / "cert.json"
        main(["gen-cert", str(lens_file), "--length", "12", "--seed", "1", "--out", str(cert)])
        assert main(["verify-cert", str(cert), "--rep", "n=7;g0=1", "--rep", "n=7;g0=2"]) == 0

    @pytest.mark.parametrize("second", ["n=7;g0=1", "n=7;g0=8"])
    def test_repeated_rep_exits_1(self, monkeypatch, capsys, second):
        """A rep given twice, also in unreduced form, is refused before replay."""
        monkeypatch.setattr(cli, "replay_end", None)  # never reached
        cert = str(GOLDEN / "cert.json")
        for argv in (["verify-cert", cert], ["--json", "verify-cert", cert]):
            assert main([*argv, "--rep", "n=7;g0=1", "--rep", "n=7;g0=2", "--rep", second]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --rep n=7;g0=1 is given more than once\n"

    @staticmethod
    def _cert_of(spec, entry, tmp_path):
        """A 5-op certificate on the two-term complex [Z[G] --entry--> Z[G]]."""
        path = tmp_path / "c.json"
        save_complex(two_term_complex(spec, 0, entry), path)
        cert = tmp_path / "cert.json"
        assert main(["gen-cert", str(path), "--length", "5", "--out", str(cert)]) == 0
        return str(cert)

    @pytest.mark.parametrize("orders", [(5, 7), (2, 3)], ids=["Z5*Z7", "Z2*Z3"])
    def test_no_default_rep_exits_1(self, tmp_path, capsys, orders):
        """Without a representation nothing is compared: that is no AGREE."""
        spec = GroupSpec.free_product(orders)
        cert = self._cert_of(spec, ring_sub(spec, ONE_ELEM, generator_elem(spec, 0, 1)), tmp_path)
        capsys.readouterr()
        group = "*".join(f"Z/{m}" for m in orders)
        for argv in (["verify-cert", cert], ["--json", "verify-cert", cert]):
            assert main(argv) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: no default representation for {group}; pass --rep\n"
        n = orders[0] * orders[1]
        rep = f"n={n};g0={n // orders[0]},g1={n // orders[1]}"
        assert main(["verify-cert", cert, "--rep", rep]) == 0
        assert "fingerprints: AGREE" in capsys.readouterr().out

    def test_trivial_group_default_rep(self, tmp_path, capsys):
        """Z/1 has the one unit d = 0, so its default rep is n=1;g0=0."""
        cert = self._cert_of(GroupSpec.cyclic(1), from_int(2), tmp_path)
        capsys.readouterr()
        assert main(["--json", "verify-cert", cert]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["inputs"]["reps"] == ["n=1;g0=0"]
        assert doc["results"]["fingerprint"] == [
            {"rep": "n=1;g0=0", "torsion_class": "-2 (mod Phi_1)"}
        ]
        assert doc["results"]["fingerprints_agree"] is True


GOLDEN = Path(__file__).parent / "golden"
# sha256 of ``gen-cert l25-2.json --length 200 --seed 3``; the CI workflow
# pins the same digest
CERT_25_SHA256 = "46563ad3062b443c4cc799179c12e2bce756482ff1efd4e7ca3ff6e7ba271831"

GOLDEN_CASES = {
    "lens-classify": (["lens-classify", "7", "1", "2", "--all-d"], 0),
    "lens-classify-simple": (["lens-classify", "7", "2", "3"], 0),
    "lens-classify-not-homotopic": (["lens-classify", "5", "1", "2"], 0),
    "demo-freeproduct": (["demo-freeproduct", "7", "1", "2"], 0),
    "demo-freeproduct-match": (["demo-freeproduct", "7", "1", "1"], 0),
    "torsion-g0-1": (["torsion", "l72.json", "--rep", "n=7;g0=1"], 0),
    "torsion-g0-0": (["torsion", "l72.json", "--rep", "n=7;g0=0"], 2),
    "verify-cert": (["verify-cert", "cert.json"], 0),
    "verify-cert-tampered": (["verify-cert", "tampered.json"], 2),
    "lens-emit": (["lens-emit", "7", "2", "--out", "l72.json"], 0),
    "gen-cert": (["gen-cert", "l72.json", "--length", "40", "--seed", "1", "--out", "cert.json"], 0),
    "lens-sweep": (["lens-sweep", "--primes", "5", "7"], 0),
    # twist sweeps at prime powers, at a modulus with two prime factors and
    # at a larger prime: each canonical representative in print
    "lens-classify-all-d-9": (["lens-classify", "9", "1", "2", "--all-d"], 0),
    "lens-classify-all-d-25": (["lens-classify", "25", "2", "13", "--all-d"], 0),
    "lens-classify-all-d-49": (["lens-classify", "49", "2", "3", "--all-d"], 0),
    "lens-classify-all-d-15": (["lens-classify", "15", "1", "2", "--all-d"], 0),
    "lens-classify-all-d-61": (["lens-classify", "61", "1", "2", "--all-d"], 0),
    # conjugated classes: the free-product sweep at a larger prime, and
    # fingerprints over Q(zeta_49) with step 7, where the rep n=49;g0=7 is
    # conjugated by 2 and 3
    "demo-freeproduct-61": (["demo-freeproduct", "61", "1", "2"], 0),
    "verify-cert-49": (
        ["verify-cert", "cert.json", "--rep", "n=49;g0=7", "--rep", "n=49;g0=14", "--rep", "n=49;g0=21"],
        0,
    ),
    # a certificate over Z/5 * Z/5, whose entries hold words of several
    # letters, so the order of free-product terms is pinned
    "gen-cert-free-product": (["gen-cert", "fp52.json", "--length", "20", "--seed", "1", "--out", "fpcert.json"], 0),
    "verify-cert-free-product": (["verify-cert", "fpcert.json"], 0),
}


def _subcommands() -> list[str]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


HELP_COMMANDS = [None, *_subcommands()]


def _help_golden(command) -> str:
    name = f"help-{command}" if command else "help"
    if command is None and sys.version_info >= (3, 13):
        # 3.13's argparse keeps the subcommands' " ..." on the line of
        # their choices; every other byte is the same
        name = "help-py313"
    return (GOLDEN / f"{name}.text").read_text(encoding="utf-8")


@pytest.fixture()
def workdir(tmp_path, monkeypatch, capsys):
    """A working directory holding the files the golden cases read."""
    monkeypatch.chdir(tmp_path)
    assert main(["lens-emit", "7", "2", "--out", "l72.json"]) == 0
    assert main(["gen-cert", "l72.json", "--length", "40", "--seed", "1", "--out", "cert.json"]) == 0
    (tmp_path / "fp52.json").write_bytes((GOLDEN / "fp52.json").read_bytes())
    assert main(["gen-cert", "fp52.json", "--length", "20", "--seed", "1", "--out", "fpcert.json"]) == 0
    assert capsys.readouterr().out == (
        "wrote L(7,2) complex to l72.json\n"
        "wrote certificate with 40 ops to cert.json\n"
        "wrote certificate with 20 ops to fpcert.json\n"
    )
    write_tampered_cert(tmp_path / "tampered.json")
    return tmp_path


class TestGoldenOutput:
    """Byte-exact stdout and written files, pinned to recorded output in
    ``tests/golden``; refactors must not change a single byte."""

    def test_written_files(self, workdir):
        for name in ("l72.json", "cert.json", "fpcert.json"):
            assert (workdir / name).read_bytes() == (GOLDEN / name).read_bytes()
        for name in ("l72.json", "fp52.json"):
            golden_complex = (GOLDEN / name).read_text(encoding="utf-8")
            assert dumps_canonical(complex_to_obj(complex_from_obj(json.loads(golden_complex)))) == golden_complex
        for name in ("cert.json", "fpcert.json"):
            golden_cert = (GOLDEN / name).read_text(encoding="utf-8")
            assert dumps_canonical(cert_to_obj(cert_from_obj(json.loads(golden_cert)))) == golden_cert

    @pytest.mark.parametrize("command", HELP_COMMANDS)
    def test_help(self, monkeypatch, capsys, command):
        """The CLI surface: no option, subcommand or help text changes unnoticed."""
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(([command] if command else []) + ["--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == _help_golden(command)

    def test_torsion_of_the_growth_input(self, tmp_path, monkeypatch, capsys):
        """A complex of total rank 88 over Z/13 whose elimination makes
        many pivot steps (``growth13.json``, see ``tests/test_torsion.py``),
        byte for byte as recorded."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "growth13.json").write_bytes((GOLDEN / "growth13.json").read_bytes())
        assert main(["torsion", "growth13.json", "--rep", "n=13;g0=1"]) == 0
        assert capsys.readouterr().out == (GOLDEN / "torsion-growth13.text").read_text(encoding="utf-8")

    def test_lens_space_at_a_prime_power(self, tmp_path, monkeypatch, capsys):
        """L(25,2) over Q(zeta_25): n = 5^2, so every reduction mod Phi_25
        subtracts a top block of m = 5 coefficients, a path no benchmark
        workload takes (their moduli are prime).  The complex, its torsion
        class, a 200-op certificate (by sha256) and its verification, each
        byte for byte as recorded before the block reduction."""
        monkeypatch.chdir(tmp_path)

        def golden(name):
            return (GOLDEN / name).read_text(encoding="utf-8")

        assert main(["lens-emit", "25", "2", "--out", "l25-2.json"]) == 0
        assert capsys.readouterr().out == golden("lens-emit-25.text")
        assert (tmp_path / "l25-2.json").read_bytes() == (GOLDEN / "l25-2.json").read_bytes()
        assert main(["torsion", "l25-2.json", "--rep", "n=25;g0=1"]) == 0
        assert capsys.readouterr().out == golden("torsion-l25-2.text")
        assert main(["gen-cert", "l25-2.json", "--length", "200", "--seed", "3", "--out", "cert25.json"]) == 0
        assert capsys.readouterr().out == golden("gen-cert-25.text")
        assert hashlib.sha256((tmp_path / "cert25.json").read_bytes()).hexdigest() == CERT_25_SHA256
        assert main(["verify-cert", "cert25.json"]) == 0
        assert capsys.readouterr().out == golden("verify-cert-25.text")

    def test_six_step_growth_input_is_refused(self, tmp_path, monkeypatch, capsys):
        """Six scramble steps per unit of rank instead of growth13.json's
        three: the elimination's entries pass MAX_ENTRY_BITS, and the command
        exits 1 with the recorded error line (the golden text run is a CI step)."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "growth13-6.json").write_bytes((GOLDEN / "growth13-6.json").read_bytes())
        expected = (GOLDEN / "torsion-growth13-6.stderr").read_text(encoding="utf-8")
        began = time.perf_counter()
        assert main(["--json", "torsion", "growth13-6.json", "--rep", "n=13;g0=1"]) == 1
        assert time.perf_counter() - began < 20  # about 1 s; it ran past 120 s uncapped
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", expected)

    def test_noncanonical_end_prints_the_same_report(self, monkeypatch, capsys):
        """cert.json with its end's terms reordered and one term split: the
        check on the document fails, the end is read and equals the
        replayed one, and the report is verify-cert.text byte for byte."""
        reads = []
        real = cli.complex_from_obj
        monkeypatch.setattr(cli, "complex_from_obj", lambda obj: reads.append(obj) or real(obj))
        assert main(["verify-cert", str(GOLDEN / "cert-noncanonical.json")]) == 0
        assert capsys.readouterr().out == (GOLDEN / "verify-cert.text").read_text(encoding="utf-8")
        assert len(reads) == 2  # start, then the end

    @pytest.mark.parametrize("name", list(GOLDEN_CASES))
    @pytest.mark.parametrize("mode", ["text", "json"])
    def test_stdout(self, workdir, capsys, name, mode):
        argv, status = GOLDEN_CASES[name]
        flags = ["--json"] if mode == "json" else []
        assert main(flags + argv) == status
        expected = (GOLDEN / f"{name}.{mode}").read_text(encoding="utf-8")
        assert capsys.readouterr().out == expected


INT_ARGUMENTS = [
    (["lens-classify", "{}", "1", "2"], "p"),
    (["lens-classify", "7", "{}", "2"], "q"),
    (["lens-classify", "7", "1", "{}"], "q2"),
    (["lens-sweep", "--primes", "5", "{}"], "--primes"),
    (["gen-cert", "l72.json", "--length", "{}", "--out", "c.json"], "--length"),
    (["gen-cert", "l72.json", "--seed", "{}", "--out", "c.json"], "--seed"),
]


@pytest.mark.parametrize("argv, name", INT_ARGUMENTS, ids=[name for _, name in INT_ARGUMENTS])
@pytest.mark.parametrize(
    "bad", ["1_7", "\u0661\u0667", " 17", "+-17", "0x11", pytest.param("1" * 5000, id="5000-digits")]
)
def test_integer_arguments_take_only_ascii_digits(workdir, capsys, argv, name, bad):
    """int() reads '1_7' and '\u0661\u0667' as 17; an argument refuses them as it
    refuses 'x', before any command runs."""
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{}", bad) for a in argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(f"error: argument {name}: invalid int value: {bad!r}")


def test_integer_arguments_keep_a_leading_sign(capsys):
    assert main(["lens-classify", "+7", "1", "2"]) == 0
    plus = capsys.readouterr().out
    assert main(["lens-classify", "7", "1", "2"]) == 0
    assert capsys.readouterr().out == plus
    assert main(["lens-classify", "-7", "1", "2"]) == 1
    assert capsys.readouterr().err == "error: p must be >= 2, got -7\n"


class TestSharedParser:
    """main parses with the one parser built at import, so a call must leave
    nothing behind for the next: not a value, not an error, not a width."""

    def test_golden_cases_twice_interleaved(self, workdir, capsys):
        runs = [(name, mode) for name in GOLDEN_CASES for mode in ("text", "json")]
        for name, mode in runs + runs[::-1]:
            argv, status = GOLDEN_CASES[name]
            assert main((["--json"] if mode == "json" else []) + argv) == status, (name, mode)
            expected = (GOLDEN / f"{name}.{mode}").read_text(encoding="utf-8")
            assert capsys.readouterr().out == expected, (name, mode)

    @pytest.mark.parametrize(
        "bad", [["lens-classify", "7", "1"], ["lens-classify", "7", "1", "x"], ["--nope"], []]
    )
    def test_argparse_error_then_a_good_call(self, workdir, capsys, bad):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].startswith("torsionkit")
        assert main(GOLDEN_CASES["lens-classify"][0]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out == (GOLDEN / "lens-classify.text").read_text(encoding="utf-8")

    def test_rep_does_not_carry_over(self, workdir, capsys):
        assert main(["verify-cert", "cert.json", "--rep", "n=7;g0=2"]) == 0
        assert capsys.readouterr().out.count("n=7;g0=") == 1
        for mode in ("text", "json"):
            assert main((["--json"] if mode == "json" else []) + ["verify-cert", "cert.json"]) == 0
            expected = (GOLDEN / f"verify-cert.{mode}").read_text(encoding="utf-8")
            assert capsys.readouterr().out == expected

    def test_no_default_leaks_out_of_a_report(self, monkeypatch, capsys):
        """A caller that edits a report cannot edit the parser's default."""
        docs = []

        def keep(doc):
            docs.append(doc)
            return dumps_canonical(doc)

        monkeypatch.setattr(cli, "dumps_canonical", keep)
        assert main(["--json", "lens-sweep"]) == 0
        first = capsys.readouterr().out
        assert json.loads(first)["inputs"]["primes"] == [5, 7, 11, 13, 17]
        docs[0]["inputs"]["primes"].append(19)
        monkeypatch.undo()
        assert main(["--json", "lens-sweep"]) == 0
        assert capsys.readouterr().out == first
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit):
            main(["lens-sweep", "--help"])
        assert capsys.readouterr().out == _help_golden("lens-sweep")

    @pytest.mark.parametrize("command", HELP_COMMANDS)
    def test_help_width_is_read_when_printed(self, monkeypatch, capsys, command):
        """Help wraps at the COLUMNS of the call that prints it: a narrow
        call between wide and golden ones wraps differently."""
        argv = ([command] if command else []) + ["--help"]

        def help_at(columns):
            monkeypatch.setenv("COLUMNS", columns)
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 0
            return capsys.readouterr().out

        help_at("200")
        assert help_at("40") != _help_golden(command)
        assert help_at("80") == _help_golden(command)

    def test_import_does_not_load_fractions(self):
        """Importing the CLI does not load fractions, nor the decimal and
        numbers it pulls in: the field imports it in its one use.  That pays
        for part of the parser, which is now built at import."""
        src = str(Path(cli.__file__).resolve().parents[1])
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import torsionkit.cli; "
            "sys.exit('fractions' in sys.modules)"
        )
        proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], timeout=60)
        assert proc.returncode == 0


class TestClosedStdout:
    """A reader that goes away ends the command with exit 1 and one error
    line, never a traceback, whether the write fails on a print or at the
    final flush."""

    ERROR = "error: stdout was closed before the whole report was written\n"

    @staticmethod
    def run_closed(argv, unbuffered=None):
        env = dict(os.environ)
        src = str(Path(cli.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if unbuffered is not None:
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
        read_end, write_end = os.pipe()
        os.close(read_end)  # closed before the command writes anything
        try:
            return subprocess.run(
                [sys.executable, "-m", "torsionkit", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=60,
            )
        finally:
            os.close(write_end)

    @pytest.mark.parametrize("p", ["7", "61"])  # under and over one pipe buffer of text
    @pytest.mark.parametrize("flags", [[], ["--json"]], ids=["text", "json"])
    def test_closed_pipe(self, flags, p):
        proc = self.run_closed([*flags, "lens-classify", p, "1", "2", "--all-d"])
        assert proc.stderr.decode() == self.ERROR
        assert proc.returncode == 1

    @pytest.mark.parametrize("command", [[], ["torsion"]], ids=["top-level", "subcommand"])
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_help_on_closed_pipe(self, command, unbuffered):
        """Buffered, the write of the help text fails only when it is
        flushed; unbuffered, it fails at once, where argparse's own writer
        would swallow the error.  Both end in the error line."""
        proc = self.run_closed([*command, "--help"], unbuffered)
        assert proc.stderr.decode() == self.ERROR
        assert proc.returncode == 1

    def test_in_process(self, monkeypatch, capsys):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        capsys.readouterr()
        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(["lens-classify", "7", "1", "2"]) == 1
        assert capsys.readouterr().err == self.ERROR
        # each twice: a help write that failed leaves the shared parser as it was
        for argv in (["--help"], ["--help"], ["gen-cert", "--help"], ["gen-cert", "--help"]):
            assert main(argv) == 1
            assert capsys.readouterr().err == self.ERROR
