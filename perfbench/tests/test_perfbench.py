"""Tests of the benchmark's oracles, failure accounting and tracing.

Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import json
import os
import random
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import calibrate, oracles, run, tracing, workloads, worker  # noqa: E402
from perfbench.workloads import Op, OracleError, Workload  # noqa: E402


# --- oracles -------------------------------------------------------------


@pytest.mark.parametrize("p", [5, 7, 11, 13, 17])
def test_arithmetic_criteria_match_brute_force(p):
    squares = {m * m % p for m in range(p)}
    for q in range(1, p):
        for q2 in range(1, p):
            t = q * q2 % p
            assert oracles.homotopy_equivalent(p, q, q2) == (t in squares or -t % p in squares)
            units = {pow(q, s, p) * sign % p for s in (1, -1) for sign in (1, -1)}
            assert oracles.simple_equivalent(p, q, q2) == (q2 in units)


def test_parse_cyclo_inverts_cyclo_str():
    from torsionkit.cyclofield import CycloNum, cyclo_str

    rng = random.Random(0)
    for n in (5, 7, 13):
        for _ in range(50):
            nums = tuple(rng.choice([0, 0, 1, -1, 3, -7]) for _ in range(n - 1))
            den = rng.choice([1, 1, 2, 9])
            value = CycloNum(n, nums, den) if any(nums) else CycloNum(n, nums, 1)
            parsed_n, coeffs = oracles.parse_cyclo(cyclo_str(value))
            assert parsed_n == n
            assert coeffs == [oracles.Fraction(c, value.den) for c in value.nums]


def test_lens_class_membership():
    from torsionkit.cyclofield import cyclo_str
    from torsionkit.lensspaces import lens_params, lens_torsion

    p = 13
    for q in (1, 2, 5):
        r = pow(q, -1, p)
        for d in range(1, p):
            text = cyclo_str(lens_torsion(lens_params(p, q), d).representative)
            assert oracles.printed_in_lens_class(text, p, d * r, d)
            # another lens class is accepted only where the two coincide
            assert oracles.printed_in_lens_class(text, p, d * r + 1, d) == oracles.lens_classes_match(
                p, d * r + 1, d, d * r, d
            )


def test_franz_criterion_agrees_with_reference_arithmetic():
    p = 11
    for a in range(1, p):
        for b in range(1, p):
            same = oracles.same_class(p, oracles.lens_class(p, a, b), oracles.lens_class(p, 1, 3))
            assert same == oracles.lens_classes_match(p, a, b, 1, 3)


# --- corrupted outputs count as failures ---------------------------------


def _flip(doc, *path):
    obj = doc
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = not obj[path[-1]]
    return json.dumps(doc)


def test_lens_classify_oracle_rejects_flipped_verdicts():
    p, q, q2 = 17, 1, 4  # homotopy equivalent, not simple
    status, text = workloads.run_cli(["--json", "lens-classify", str(p), str(q), str(q2), "--all-d"])
    check = workloads.check_lens_classify(p, q, q2)
    check(status, text)
    for path in (
        ("results", "homotopy_equivalent"),
        ("results", "simple_homotopy_equivalent"),
        ("results", "torsion_distinguished"),
        ("results", "twist_sweep", 3, "matches"),
    ):
        with pytest.raises(OracleError):
            check(status, _flip(json.loads(text), *path))
    doc = json.loads(text)
    doc["results"]["twist_sweep"][2]["torsion_class"] = doc["results"]["twist_sweep"][5]["torsion_class"]
    with pytest.raises(OracleError):
        check(status, json.dumps(doc))
    with pytest.raises(OracleError):
        check(3, text)


def test_demo_freeproduct_oracle_rejects_wrong_row():
    p, q, q2 = 7, 1, 2
    status, text = workloads.run_cli(["--json", "demo-freeproduct", str(p), str(q), str(q2)])
    check = workloads.check_demo_freeproduct(p, q, q2)
    check(status, text)
    with pytest.raises(OracleError):
        check(status, _flip(json.loads(text), "results", "rows", 0, "matches"))


def _small_cert(tmp_path, tamper: bool):
    from torsionkit.chaincomplex import dumps_canonical
    from torsionkit.lensspaces import lens_complex, lens_params
    from torsionkit.simpleops import cert_to_obj, random_op_sequence

    cert = random_op_sequence(lens_complex(lens_params(7, 3)), 30, 5)
    obj = cert_to_obj(cert)
    if tamper:
        obj["end"] = cert_to_obj(random_op_sequence(lens_complex(lens_params(7, 3)), 31, 6))["end"]
    path = tmp_path / "cert.json"
    path.write_text(dumps_canonical(obj))
    return str(path)


def test_tampered_certificate_counts_as_failed(tmp_path):
    check = workloads.check_verify_cert(7, 3, free=False)
    check(*workloads.run_cli(["--json", "verify-cert", _small_cert(tmp_path, tamper=False)]))
    argv = ["--json", "verify-cert", _small_cert(tmp_path, tamper=True)]
    status, text = workloads.run_cli(argv)
    assert status == 2
    with pytest.raises(OracleError):
        check(status, text)
    wl = Workload([Op("tampered", lambda: workloads.run_cli(argv), check)], [], cold_start=False)
    res = worker.run_phase(wl, 0.0, [], min_passes=2)
    assert worker.check_outputs(wl, res) == 2


@pytest.fixture(scope="module")
def wide():
    return workloads.build_wide_torsion(1)


def test_wide_torsion_oracles_reject_corrupted_classes(wide):
    kinds = set()
    for op in wide.ops:
        status, text = op.call()
        op.check(status, text)
        kind = op.label.split()[0]
        if kind in kinds:
            continue
        kinds.add(kind)
        # move the first numerator away from zero (x -> 2x +- 1, never x):
        # a different class modulo +-zeta^k
        head, _, rest = text.partition(":")
        nums, _, tail = rest.partition(",")
        x = int(nums)
        with pytest.raises(OracleError):
            op.check(status, f"{head}:{2 * x + (1 if x >= 0 else -1)},{tail}")
    assert kinds == {"reidemeister_torsion", "torsion_of_map"}


def test_failure_accounting_counts_every_bad_run():
    good = Op("good", lambda: (0, "x"), lambda s, t: None)
    raises = Op("raises", lambda: (_ for _ in ()).throw(ValueError("boom")), lambda s, t: None)

    def oracle(status, text):
        workloads.expect(text == "right", "wrong output")

    wrong = Op("wrong", lambda: (0, "wrong"), oracle)
    wl = Workload([good, raises, wrong], [], cold_start=False)
    res = worker.run_phase(wl, 0.0, [], min_passes=2)
    assert res.attempted == 6
    assert worker.check_outputs(wl, res) == 4


def test_cold_start_clears_every_cache():
    import torsionkit.cli  # noqa: F401
    from torsionkit.lensspaces import lens_params, lens_torsion

    caches = tracing.cache_functions()
    names = {fn.__name__ for fn in caches}
    assert {"lens_torsion", "unit_subgroup", "cyclotomic_polynomial"} <= names
    lens_torsion(lens_params(7, 2), 1)
    worker._clear_caches(caches)
    assert all(fn.cache_info().currsize == 0 for fn in caches)


# --- calibration ---------------------------------------------------------


def test_scale_is_reference_over_measured_chunk_time():
    n, cpu_s = calibrate.measure(3)
    assert n == 3 and cpu_s > 0
    assert calibrate.after_op(0.0)[0] == 1  # at least one chunk after any op
    assert calibrate.scale([(n, cpu_s)]) == pytest.approx(calibrate.REFERENCE_CHUNK_S * 3 / cpu_s)


def test_local_scales_use_neighbouring_kernel_runs():
    r = calibrate.REFERENCE_CHUNK_S
    samples = [(1, r), (1, r), (1, 2 * r), (1, r), (1, r)]
    assert calibrate.local_scales(samples, window=0) == pytest.approx([1, 1, 0.5, 1, 1])
    assert calibrate.local_scales(samples, window=1) == pytest.approx([1, 0.75, 0.75, 0.75, 1])


def test_end_to_end_scales_each_op_run_by_its_calibration():
    res = worker.PhaseResult(2)
    res.lat = [[1.0, 2.0, 1.0], [3.0, 6.0, 3.0]]  # op i, pass j
    res.cpu = [[0.5, 1.0, 0.5], [1.5, 3.0, 1.5]]
    r = calibrate.REFERENCE_CHUNK_S
    res.kernel = [(2, 4 * r)] * 6  # the whole run on a machine at half speed
    out = worker.end_to_end(res)
    assert out["ops_per_s"] == pytest.approx(2 / 2.0)  # median pass: 4 s, scaled to 2 s
    assert out["cpu_per_op_s"] == pytest.approx(0.5)
    assert out["op_p50_s"] == pytest.approx(1.25)
    assert out["samples"] == 6


# --- tracing -------------------------------------------------------------


def test_wrapped_calls_return_identical_values(tmp_path, wide):
    argvs = [
        ["--json", "lens-classify", "13", "2", "5", "--all-d"],
        ["--json", "demo-freeproduct", "11", "1", "3"],
        ["--json", "verify-cert", _small_cert(tmp_path, tamper=False)],
    ]
    plain = [workloads.run_cli(a) for a in argvs] + [op.call() for op in wide.ops[:6]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = [workloads.run_cli(a) for a in argvs] + [op.call() for op in wide.ops[:6]]
    finally:
        tracer.uninstall()
    assert traced == plain
    summary = tracer.summarize()
    assert summary["cli.main"]["calls"] == 3
    assert summary["lensspaces.lens_torsion"]["calls"] >= 12
    for row in summary.values():
        assert row["self_s"] <= row["total_s"] + 1e-9


def test_install_rebinds_every_import_and_uninstall_restores():
    import torsionkit.cyclofield as cyclofield
    import torsionkit.grouprings as grouprings
    import torsionkit.simpleops as simpleops

    orig = grouprings.validate_word
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for mod in (grouprings, cyclofield, simpleops):
            assert mod.validate_word is not orig
            assert mod.validate_word.__wrapped__ is orig
    finally:
        tracer.uninstall()
    for mod in (grouprings, cyclofield, simpleops):
        assert mod.validate_word is orig


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.names = ["outer", "inner"]
    inner = tracer.wrap(1, lambda: sum(range(20000)))
    outer = tracer.wrap(0, lambda: [inner() for _ in range(3)])
    outer()
    s = tracer.summarize()
    assert s["inner"]["calls"] == 3
    assert s["outer"]["self_s"] == pytest.approx(s["outer"]["total_s"] - s["inner"]["total_s"])
    assert list(tracer.parent) == [-1, 0, 0, 0]


def test_benchmark_json_lists_every_reported_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    wl = Workload([Op("x", lambda: (0, ""), lambda s, t: None)], [], cold_start=False)
    base = worker.run_phase(wl, 0.0, [])
    tracer = tracing.Tracer()
    res = worker.run_phase(wl, 0.0, [], tracer)
    res.cache_hits = {f"{m}.{f}": [0, 0] for m, f in tracing.CACHED}
    layer = worker.per_layer(res, tracer, base)
    assert sorted(layer) == sorted(m["name"] for m in bench["per_layer"])
    assert all(run.layer_units(m["name"]) == m["unit"] for m in bench["per_layer"])
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
